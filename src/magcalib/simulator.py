"""Synthetic warehouse world: ambient field, dipole clutter, paths, sensors.

The ground-truth field is a constant Earth-like ambient plus point-dipole
contributions from rack-like steel structures. Calibration data is
generated by driving pose paths through the world and distorting the true
sensor-frame field with a known affine corruption plus Gaussian noise, so
every estimate produced by the calibration pipeline can be scored against
known truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Dataset, Pose, as_vec3, check_choice, check_integer, check_real, rot_z, \
    row_norms
from .intrinsic import AffineDistortion

PATH_KINDS = ("lawnmower", "perimeter", "random_walk", "figure_eight", "diagonal_sweep")
SURVEY_Z_LEVELS = (0.15, 0.45, 0.75, 1.05, 1.5)  # m; the default survey heights

DIPOLE_EXCLUSION = 0.05  # m; the point-dipole model blows up at the source

_CHORD_CHUNK = 256  # curve points per vectorized step of _resample_by_chord
_LAWNMOWER_ROW_GAP = 2.0  # m between the rows of a lawnmower path


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in meters."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", as_vec3(self.lo, "box lo"))
        object.__setattr__(self, "hi", as_vec3(self.hi, "box hi"))
        if not np.all(self.hi > self.lo):
            raise ValueError("box must have positive extent along every axis")

    def contains(self, t) -> bool:
        t = np.asarray(t, float)
        return bool(np.all(t >= self.lo) and np.all(t <= self.hi))


@dataclass(frozen=True, eq=False)
class Dipole:
    """Point dipole at ``position`` [m] with moment in uT*m^3."""

    position: np.ndarray
    moment: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position, "dipole position"))
        object.__setattr__(self, "moment", as_vec3(self.moment, "dipole moment"))


def default_dipole_layout(extent: Box) -> list:
    """Rack rows plus strong corner 'building steel' sources.

    The twelve rack dipoles give the local field texture the optimizer
    needs (the floor-level field varies by tens of uT); the four ceiling
    corner sources add a long-wavelength trend that keeps the cost
    landscape funnel-shaped over meter-scale lever-arm errors.
    """
    span = extent.hi - extent.lo
    xs = extent.lo[0] + span[0] * np.linspace(0.18, 0.82, 6)
    ys = extent.lo[1] + span[1] * np.array([0.33, 0.67])
    z = extent.lo[2] + 0.88 * span[2]
    dipoles = []
    tilts = [(12.0, 5.0, 36.0), (-10.0, 16.0, 32.0)]
    for row, y in enumerate(ys):
        tx, ty, tz = tilts[row % 2]
        for col, x in enumerate(xs):
            sign = 1.0 if (row + col) % 2 == 0 else -1.0
            moment = np.array([tx * sign, ty, tz * sign])
            dipoles.append(Dipole(np.array([x, y, z]), moment))
    z_top = extent.lo[2] + 0.97 * span[2]
    corners = [(0.08, 0.08), (0.92, 0.08), (0.08, 0.92), (0.92, 0.92)]
    beacon_moments = [(300.0, 150.0, 500.0), (-250.0, 200.0, 520.0),
                      (200.0, -260.0, 480.0), (-180.0, -150.0, 560.0)]
    for (fx, fy), moment in zip(corners, beacon_moments):
        position = np.array([extent.lo[0] + fx * span[0],
                             extent.lo[1] + fy * span[1], z_top])
        dipoles.append(Dipole(position, np.asarray(moment, float)))
    return dipoles


@dataclass(frozen=True, eq=False)
class WorldConfig:
    """Synthetic environment description.

    ``extent`` defaults to a 45 x 35 x 3 m hall. ``ambient_field`` is a
    constant Earth-like background in uT; ``dipoles`` model ferromagnetic
    clutter.
    """

    extent: Box = field(default_factory=lambda: Box(np.zeros(3), np.array([45.0, 35.0, 3.0])))
    ambient_field: np.ndarray = field(default_factory=lambda: np.array([20.0, 0.0, -45.0]))
    dipoles: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "ambient_field", as_vec3(self.ambient_field, "ambient field"))
        mag = float(np.linalg.norm(self.ambient_field))
        if not 20.0 < mag < 70.0:
            raise ValueError(f"ambient magnitude {mag:.1f} uT outside Earth-like range (20, 70)")
        dipoles = self.dipoles
        if dipoles is None:
            dipoles = default_dipole_layout(self.extent)
        object.__setattr__(self, "dipoles", tuple(dipoles))
        for d in self.dipoles:
            if not self.extent.contains(d.position):
                raise ValueError(f"dipole at {d.position} lies outside the world extent")


def field_at_many(world: WorldConfig, ts: np.ndarray) -> np.ndarray:
    """Vectorized ground-truth field (map frame, uT) at positions (N, 3)."""
    ts = np.asarray(ts, float).reshape(-1, 3)
    out = np.tile(world.ambient_field, (ts.shape[0], 1))
    for d in world.dipoles:
        r = ts - d.position                       # (N, 3)
        dist = np.linalg.norm(r, axis=1)
        if np.any(dist < DIPOLE_EXCLUSION):
            bad = ts[dist < DIPOLE_EXCLUSION][0]
            raise ValueError(
                f"query {bad} is within {DIPOLE_EXCLUSION} m of a dipole source")
        rhat = r / dist[:, None]
        m_dot = rhat @ d.moment
        out += (3.0 * m_dot[:, None] * rhat - d.moment) / dist[:, None] ** 3
    return out


# ---------------------------------------------------------------------------
# path generation


@dataclass(frozen=True)
class PathSpec:
    """One calibration trajectory family.

    ``kind`` picks the family; ``sample_spacing`` [m, > 0] the arc distance
    between poses; ``z_height`` [m] the constant driving height. Families
    needing a sample budget (random walk, figure eight) use ``n_samples``.
    ``region_margin`` [m, >= 0] keeps the path away from the world walls.
    ``n_samples`` (>= 2) and ``seed`` are integers held as ``int``, not bools.
    A sweep report records a path by its ``kind`` (one of :data:`PATH_KINDS`).
    """

    kind: str = "lawnmower"
    sample_spacing: float = 0.5
    z_height: float = 0.5
    n_samples: int = 300
    seed: int = 0
    region_margin: float = 1.0

    def __post_init__(self):
        for name, low in (("n_samples", 2), ("seed", None)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), low))
        check_choice("kind", self.kind, PATH_KINDS)
        for name, low in (("sample_spacing", 0.0), ("z_height", None), ("region_margin", 0.0)):
            value = check_real(name, getattr(self, name), low, strict=name == "sample_spacing")
            object.__setattr__(self, name, value)


def _lawnmower_points(lo, hi, spacing):
    # row length and gap are exact multiples of the spacing, so every
    # consecutive pair of samples is exactly one spacing apart
    steps_per_row = int(np.floor((hi[0] - lo[0]) / spacing))
    gap_steps = max(1, int(round(_LAWNMOWER_ROW_GAP / spacing)))
    n_rows = int(np.floor((hi[1] - lo[1]) / (gap_steps * spacing))) + 1
    x, y = lo[0], lo[1]
    pts = [(x, y)]
    direction = 1.0
    for row in range(n_rows):
        for _ in range(steps_per_row):
            x += direction * spacing
            pts.append((x, y))
        if row < n_rows - 1:
            for _ in range(gap_steps):
                y += spacing
                pts.append((x, y))
        direction *= -1.0
    return np.asarray(pts)


def _perimeter_points(lo, hi, spacing):
    nx = max(1, int(np.floor((hi[0] - lo[0]) / spacing)))
    ny = max(1, int(np.floor((hi[1] - lo[1]) / spacing)))
    pts = [(lo[0], lo[1])]
    x, y = lo[0], lo[1]
    for _ in range(nx):
        x += spacing
        pts.append((x, y))
    for _ in range(ny):
        y += spacing
        pts.append((x, y))
    for _ in range(nx):
        x -= spacing
        pts.append((x, y))
    for _ in range(ny - 1):
        y -= spacing
        pts.append((x, y))
    return np.asarray(pts)


def _random_walk_points(lo, hi, spacing, n, rng):
    center = (lo + hi) / 2.0
    pos = center.copy()
    heading = rng.uniform(0.0, 2.0 * np.pi)
    pts = [pos.copy()]
    for _ in range(n - 1):
        heading += rng.normal(0.0, 0.5)
        for _ in range(32):
            step = spacing * np.array([np.cos(heading), np.sin(heading)])
            cand = pos + step
            if np.all(cand >= lo) and np.all(cand <= hi):
                break
            heading = np.arctan2(*(center - pos)[::-1]) + rng.normal(0.0, 0.3)
        pos = pos + spacing * np.array([np.cos(heading), np.sin(heading)])
        pos = np.clip(pos, lo, hi)
        pts.append(pos.copy())
    return np.asarray(pts)


def _resample_by_chord(curve: np.ndarray, spacing: float, n: int) -> np.ndarray:
    """Greedy equal-chord resampling of a densely sampled closed curve: each
    next point is the first one after the current, going round the curve,
    whose chord from it reaches ``spacing``; where none does, the current
    point repeats. The chords are scanned ``_CHORD_CHUNK`` points at a time
    through ``row_norms``, bit for bit one ``np.linalg.norm`` per point."""
    total = curve.shape[0]
    picked = [0]
    for _ in range(n - 1):
        current = nxt = picked[-1]
        for start in range(1, total + 1, _CHORD_CHUNK):
            ahead = (current + np.arange(start, min(start + _CHORD_CHUNK, total + 1))) % total
            reached = np.flatnonzero(row_norms(curve[ahead] - curve[current]) >= spacing)
            if reached.size:
                nxt = int(ahead[reached[0]])
                break
        picked.append(nxt)
    return curve[picked]


def _figure_eight_points(lo, hi, spacing, n):
    center = (lo + hi) / 2.0
    amp = (hi - lo) / 2.0
    u = np.linspace(0.0, 2.0 * np.pi, 20000, endpoint=False)
    curve = np.stack([center[0] + amp[0] * np.sin(u),
                      center[1] + amp[1] * np.sin(u) * np.cos(u)], axis=1)
    return _resample_by_chord(curve, spacing, n)


def _diagonal_sweep_points(lo, hi, spacing):
    """Three sparse diagonal passes across the region."""
    span = hi - lo
    offsets = np.array([-0.3, 0.0, 0.3]) * span[1]
    segs = []
    flip = False
    for off in offsets:
        a = np.array([lo[0], np.clip(lo[1] + off, lo[1], hi[1])])
        b = np.array([hi[0], np.clip(hi[1] + off, lo[1], hi[1])])
        if flip:
            a, b = b, a
        seg_len = np.linalg.norm(b - a)
        n = max(2, int(seg_len / spacing) + 1)
        u = np.linspace(0.0, 1.0, n)
        segs.append(a + u[:, None] * (b - a))
        flip = not flip
    return np.vstack(segs)


def generate_path(spec: PathSpec, world: WorldConfig) -> list:
    """Deterministic pose path (lidar -> map), yaw aligned with motion."""
    lo2 = world.extent.lo[:2] + spec.region_margin
    hi2 = world.extent.hi[:2] - spec.region_margin
    if np.any(hi2 - lo2 < 2 * spec.sample_spacing):
        raise ValueError("world extent too small for the requested path")
    if not (world.extent.lo[2] <= spec.z_height <= world.extent.hi[2]):
        raise ValueError("z_height outside the world extent")
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "lawnmower":
        xy = _lawnmower_points(lo2, hi2, spec.sample_spacing)
    elif spec.kind == "perimeter":
        xy = _perimeter_points(lo2, hi2, spec.sample_spacing)
    elif spec.kind == "random_walk":
        xy = _random_walk_points(lo2, hi2, spec.sample_spacing, spec.n_samples, rng)
    elif spec.kind == "figure_eight":
        xy = _figure_eight_points(lo2, hi2, spec.sample_spacing, spec.n_samples)
    else:
        xy = _diagonal_sweep_points(lo2, hi2, spec.sample_spacing)

    deltas = np.diff(xy, axis=0)
    yaws = np.arctan2(deltas[:, 1], deltas[:, 0])
    yaws = np.append(yaws, yaws[-1] if yaws.size else 0.0)
    poses = []
    for (x, y), yaw in zip(xy, yaws):
        poses.append(Pose(rot_z(yaw), np.array([x, y, spec.z_height]), "lidar", "map"))
    return poses


# ---------------------------------------------------------------------------
# sensor rigs and dataset generation


@dataclass(frozen=True, eq=False)
class SensorRig:
    """Magnetometers rigidly mounted relative to the LiDAR.

    ``offsets`` holds each sensor's true lever arm [m] in the LiDAR frame;
    ``distortions`` the matching injected affine corruptions; ``noise_sigma``
    the per-axis Gaussian measurement noise in uT (>= 0).
    """

    offsets: tuple
    distortions: tuple
    noise_sigma: float = 0.1

    def __post_init__(self):
        offsets = tuple(as_vec3(o, "sensor offset") for o in self.offsets)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "distortions", tuple(self.distortions))
        if len(self.offsets) != len(self.distortions):
            raise ValueError("offsets and distortions must pair up")
        object.__setattr__(self, "noise_sigma", check_real("noise_sigma", self.noise_sigma))
        for o in offsets:
            if np.linalg.norm(o) > 2.0:
                raise ValueError(f"sensor offset {o} exceeds the 2 m rig-scale bound")

    @property
    def n_sensors(self) -> int:
        return len(self.offsets)


def random_distortion(rng: np.random.Generator, scale: float = 1.0) -> AffineDistortion:
    """Draw a random affine corruption: gain = I + scale*U(-0.2, 0.2)^{3x3},
    bias uniform in +-5*scale uT. Draws whose gain strays too far from
    invertibility are rejected (bounded retry)."""
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    for _ in range(100):
        gain = np.eye(3) + scale * rng.uniform(-0.2, 0.2, size=(3, 3))
        if abs(np.linalg.det(gain) - 1.0) < 0.7:
            bias = scale * rng.uniform(-5.0, 5.0, size=3)
            return AffineDistortion(gain, bias)
    raise RuntimeError("could not draw an invertible distortion in 100 attempts")


def sample_dataset(world: WorldConfig, path: list, rig: SensorRig, sensor_index: int,
                   seed: int):
    """Simulate one sensor along a path of LiDAR poses (lidar -> map).

    Returns ``(measured, ground_truth)`` datasets sharing timestamps and
    poses: the truth holds the undistorted lidar-frame field at the sensor's
    true position, the measured data applies the rig's affine corruption and
    Gaussian noise drawn from ``seed``. Sample i is taken at time i seconds.
    """
    offset = rig.offsets[sensor_index]
    dist = rig.distortions[sensor_index]
    rng = np.random.default_rng(seed)

    rotations = np.array([p.rotation for p in path])
    translations = np.array([p.translation for p in path])
    sensor_pos = np.einsum("nij,j->ni", rotations, offset) + translations
    field_map_frame = field_at_many(world, sensor_pos)
    b_true = np.einsum("nji,nj->ni", rotations, field_map_frame)  # rotate into lidar frame
    b_meas = dist.apply_many(b_true)
    if rig.noise_sigma > 0:
        b_meas = b_meas + rng.normal(0.0, rig.noise_sigma, size=b_meas.shape)

    times = np.arange(len(path), dtype=float)
    sensor_id = f"mag{sensor_index}"
    return (Dataset(sensor_id, "lidar", times, rotations, translations, b_meas),
            Dataset(sensor_id + "_truth", "lidar", times, rotations, translations, b_true))


def survey_positions(world: WorldConfig, spacing_xy: float, z_levels=SURVEY_Z_LEVELS,
                     margin: float = 1.0) -> np.ndarray:
    """Regular mapping lattice covering the drivable floor at several heights
    (at least one, each a finite number inside the world's z extent),
    ``margin`` (>= 0) in from the walls, ``spacing_xy`` (> 0) apart."""
    check_real("survey spacing", spacing_xy, strict=True)
    check_real("survey margin", margin)
    if not len(z_levels):
        raise ValueError("survey z levels must not be empty")
    z_lo, z_hi = world.extent.lo[2], world.extent.hi[2]
    for i, z in enumerate(z_levels):
        if not z_lo <= check_real(f"survey z levels[{i}]", z, low=None) <= z_hi:
            raise ValueError(f"survey z levels[{i}] = {float(z)} is outside the world's z "
                             f"extent [{z_lo:g}, {z_hi:g}]")
    xs = np.arange(world.extent.lo[0] + margin, world.extent.hi[0] - margin + 1e-9,
                   spacing_xy)
    ys = np.arange(world.extent.lo[1] + margin, world.extent.hi[1] - margin + 1e-9,
                   spacing_xy)
    z, x, y = np.meshgrid(np.asarray(z_levels, float), xs, ys, indexing="ij")
    return np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)  # y fastest, z slowest


def survey_dataset(world: WorldConfig, positions: np.ndarray, noise_sigma: float,
                   seed: int) -> Dataset:
    """Mapping-run fingerprints: identity-orientation poses (mag -> map),
    map-frame readings with Gaussian noise ``noise_sigma`` (>= 0) drawn from
    ``seed``, sample i taken at time i seconds."""
    check_real("survey noise", noise_sigma)
    positions = np.asarray(positions, float).reshape(-1, 3)
    rng = np.random.default_rng(seed)
    fields = field_at_many(world, positions)
    if noise_sigma > 0:
        fields = fields + rng.normal(0.0, noise_sigma, size=fields.shape)
    n = positions.shape[0]
    return Dataset("survey", "mag", np.arange(n, dtype=float),
                   np.broadcast_to(np.eye(3), (n, 3, 3)), positions, fields)
