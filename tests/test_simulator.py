import numpy as np
import pytest

from magcalib import simulator
from magcalib.intrinsic import AffineDistortion, compensate_many
from magcalib.simulator import (
    Box,
    Dipole,
    PathSpec,
    SensorRig,
    WorldConfig,
    field_at_many,
    generate_path,
    random_distortion,
    sample_dataset,
    survey_dataset,
    survey_positions,
)
from magcalib.sweeps import default_experiment_world, default_path_specs

AMBIENT = np.array([20.0, 0.0, -45.0])


def _empty_world():
    return WorldConfig(extent=Box(np.zeros(3), np.array([10.0, 10.0, 3.0])),
                       ambient_field=AMBIENT, dipoles=())


def test_field_without_dipoles_is_ambient():
    world = _empty_world()
    assert np.allclose(field_at_many(world, [3.0, 4.0, 1.0])[0], AMBIENT)


def test_field_on_dipole_axis():
    # on the moment axis the dipole contributes 2m/r^3 along the moment
    moment = np.array([0.0, 0.0, 50.0])
    world = WorldConfig(extent=Box(np.zeros(3), np.array([10.0, 10.0, 3.0])),
                        ambient_field=AMBIENT,
                        dipoles=(Dipole(np.array([5.0, 5.0, 0.5]), moment),))
    out = field_at_many(world, [5.0, 5.0, 2.5])[0]  # 2 m above, along +z
    expected = AMBIENT + np.array([0.0, 0.0, 2.0 * 50.0 / 2.0**3])
    assert np.allclose(out, expected, atol=1e-12)


def test_field_superposition():
    extent = Box(np.zeros(3), np.array([10.0, 10.0, 3.0]))
    d1 = Dipole(np.array([2.0, 2.0, 2.0]), np.array([30.0, 0.0, 40.0]))
    d2 = Dipole(np.array([8.0, 7.0, 2.5]), np.array([0.0, -25.0, 35.0]))
    both = WorldConfig(extent=extent, ambient_field=AMBIENT, dipoles=(d1, d2))
    only1 = WorldConfig(extent=extent, ambient_field=AMBIENT, dipoles=(d1,))
    only2 = WorldConfig(extent=extent, ambient_field=AMBIENT, dipoles=(d2,))
    t = np.array([5.0, 4.0, 0.8])
    assert np.allclose(field_at_many(both, t),
                       field_at_many(only1, t) + field_at_many(only2, t) - AMBIENT,
                       atol=1e-12)


def test_field_rejects_query_at_dipole():
    world = WorldConfig(extent=Box(np.zeros(3), np.array([10.0, 10.0, 3.0])),
                        ambient_field=AMBIENT,
                        dipoles=(Dipole(np.array([5.0, 5.0, 1.0]),
                                        np.array([0.0, 0.0, 50.0])),))
    with pytest.raises(ValueError, match="dipole"):
        field_at_many(world, [5.0, 5.0, 1.01])


def test_field_is_divergence_free(calib_world):
    rng = np.random.default_rng(0)
    h = 5e-4
    pts = rng.uniform([4.0, 4.0, 0.4], [14.0, 10.0, 1.2], size=(30, 3))
    for t in pts:
        div = 0.0
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            hi = field_at_many(calib_world, (t + step).reshape(1, 3))[0]
            lo = field_at_many(calib_world, (t - step).reshape(1, 3))[0]
            div += (hi[axis] - lo[axis]) / (2.0 * h)
        assert abs(div) <= 1e-6


def test_world_validates_ambient_and_dipoles():
    with pytest.raises(ValueError, match="ambient"):
        WorldConfig(ambient_field=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="extent"):
        WorldConfig(extent=Box(np.zeros(3), np.array([10.0, 10.0, 3.0])),
                    ambient_field=AMBIENT,
                    dipoles=(Dipole(np.array([20.0, 0.0, 0.0]),
                                    np.array([0.0, 0.0, 10.0])),))


# ---------------------------------------------------------------------------
# paths


def test_lawnmower_spacing_is_exact(calib_world):
    spec = PathSpec(kind="lawnmower", sample_spacing=0.5, z_height=0.5,
                    region_margin=2.0)
    poses = generate_path(spec, calib_world)
    positions = np.array([p.translation for p in poses])
    steps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    assert np.all(np.abs(steps - 0.5) <= 1e-9)


def test_perimeter_closes(calib_world):
    spec = PathSpec(kind="perimeter", sample_spacing=0.5, z_height=0.5,
                    region_margin=2.0)
    poses = generate_path(spec, calib_world)
    first = poses[0].translation
    last = poses[-1].translation
    assert np.linalg.norm(first - last) <= 0.5 + 1e-9


def test_random_walk_deterministic(calib_world):
    spec = PathSpec(kind="random_walk", sample_spacing=0.5, z_height=0.5,
                    n_samples=100, seed=3, region_margin=2.0)
    a = generate_path(spec, calib_world)
    b = generate_path(spec, calib_world)
    assert np.allclose([p.translation for p in a], [p.translation for p in b])
    assert np.allclose([p.rotation for p in a], [p.rotation for p in b])


@pytest.mark.parametrize("kind", ["lawnmower", "perimeter", "random_walk",
                                  "figure_eight", "diagonal_sweep"])
def test_paths_stay_inside_margin(calib_world, kind):
    spec = PathSpec(kind=kind, sample_spacing=0.7, z_height=0.5,
                    n_samples=120, region_margin=1.0)
    poses = generate_path(spec, calib_world)
    positions = np.array([p.translation for p in poses])
    lo = calib_world.extent.lo + np.array([1.0, 1.0, 0.0]) - 1e-9
    hi = calib_world.extent.hi - np.array([1.0, 1.0, 0.0]) + 1e-9
    assert np.all(positions >= lo) and np.all(positions <= hi)
    # yaw is aligned with motion
    deltas = np.diff(positions, axis=0)
    for pose, d in zip(poses[:-1], deltas):
        if np.linalg.norm(d[:2]) < 1e-12:
            continue
        heading = pose.rotation @ np.array([1.0, 0.0, 0.0])
        cosang = heading[:2] @ d[:2] / np.linalg.norm(d[:2])
        assert cosang > 0.99


def _chord_scan_one_by_one(curve, spacing, n):
    """Reference for ``_resample_by_chord``: one ``np.linalg.norm`` per step
    round the curve, staying put after 4 laps without reaching ``spacing``."""
    pts = [curve[0]]
    idx = 0
    total = curve.shape[0]
    for _ in range(n - 1):
        current = pts[-1]
        j = idx
        hops = 0
        while hops < 4 * total:
            j = (j + 1) % total
            hops += 1
            if np.linalg.norm(curve[j] - current) >= spacing:
                break
        pts.append(curve[j])
        idx = j
    return np.asarray(pts)


def test_chord_resampling_matches_one_by_one_scan(monkeypatch):
    u = np.linspace(0.0, 2.0 * np.pi, 600, endpoint=False)
    circle = np.stack([np.cos(u), np.sin(u)], axis=1)
    wobbly = circle * (1.0 + 0.3 * np.sin(5.0 * u))[:, None]
    square = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [2, 2], [1, 2], [0, 2], [0, 1]], float)
    # short steps over several laps; every next point; chords exactly at the
    # spacing; long hops; no chord reaching the spacing
    for curve, spacing, n in [(circle, 0.3, 50), (wobbly, 0.05, 700), (circle, 1e-3, 30),
                              (square, 1.0, 12), (wobbly, 2.2, 30), (circle, 2.5, 8)]:
        expected = _chord_scan_one_by_one(curve, spacing, n)
        assert np.array_equal(simulator._resample_by_chord(curve, spacing, n), expected)
    # table1's figure eight: 200 samples 2.5 m apart in the sweeps' hall
    spec = next(p for p in default_path_specs() if p.kind == "figure_eight")
    world = default_experiment_world()
    fast = generate_path(spec, world)
    monkeypatch.setattr(simulator, "_resample_by_chord", _chord_scan_one_by_one)
    slow = generate_path(spec, world)
    assert len(fast) == len(slow) == 200
    for a, b in zip(fast, slow):
        assert np.array_equal(a.translation, b.translation)
        assert np.array_equal(a.rotation, b.rotation)


def test_path_rejects_tiny_world():
    tiny = WorldConfig(extent=Box(np.zeros(3), np.array([3.0, 3.0, 3.0])),
                       ambient_field=AMBIENT, dipoles=())
    with pytest.raises(ValueError, match="too small"):
        generate_path(PathSpec(kind="lawnmower", sample_spacing=1.0,
                               region_margin=1.0), tiny)


# ---------------------------------------------------------------------------
# dataset generation


def _rig(dist=None, sigma=0.0):
    dist = dist or AffineDistortion.identity()
    return SensorRig((np.array([0.3, -0.1, 0.2]),), (dist,), sigma)


def test_ideal_sensor_measures_truth(calib_world, calib_path):
    measured, truth = sample_dataset(calib_world, calib_path, _rig(), 0, seed=0)
    assert np.allclose(measured.readings(), truth.readings(), atol=1e-12)
    assert np.allclose(measured.timestamps(), truth.timestamps())


def test_distorted_readings_compensate_back(calib_world, calib_path):
    rng = np.random.default_rng(1)
    dist = random_distortion(rng, 1.0)
    measured, truth = sample_dataset(calib_world, calib_path, _rig(dist), 0, seed=0)
    recovered = compensate_many(dist, measured.readings())
    assert np.max(np.abs(recovered - truth.readings())) <= 1e-10


def test_noise_statistics(calib_world):
    spec = PathSpec(kind="random_walk", sample_spacing=0.4, z_height=0.6,
                    n_samples=1200, seed=5, region_margin=2.0)
    path = generate_path(spec, calib_world)
    measured, truth = sample_dataset(calib_world, path, _rig(sigma=0.1), 0, seed=2)
    noise = measured.readings() - truth.readings()
    stds = noise.std(axis=0)
    assert np.all(stds >= 0.08) and np.all(stds <= 0.12)


def test_random_distortion_distribution():
    rng = np.random.default_rng(6)
    dets = []
    for _ in range(1000):
        d = random_distortion(rng, 1.0)
        dets.append(np.linalg.det(d.gain))
    dets = np.abs(np.asarray(dets))
    assert np.all(dets > 1e-9)
    assert np.all(np.abs(dets - 1.0) < 0.7)


def test_random_distortion_scale_limit():
    rng = np.random.default_rng(7)
    d = random_distortion(rng, 1e-4)
    assert np.max(np.abs(d.gain - np.eye(3))) < 1e-4
    assert np.max(np.abs(d.bias)) < 1e-3


def test_random_distortion_seeded():
    a = random_distortion(np.random.default_rng(8), 1.0)
    b = random_distortion(np.random.default_rng(8), 1.0)
    assert np.allclose(a.gain, b.gain) and np.allclose(a.bias, b.bias)


def test_survey_positions_form_lattice(calib_world):
    pos = survey_positions(calib_world, 1.0, z_levels=(0.4, 1.0), margin=1.0)
    xs = np.unique(pos[:, 0])
    ys = np.unique(pos[:, 1])
    zs = np.unique(pos[:, 2])
    assert len(xs) * len(ys) * len(zs) == pos.shape[0]
    assert np.allclose(np.diff(xs), 1.0)


@pytest.mark.parametrize("spacing, z_levels, match", [
    (-1.0, (0.4,), "survey spacing must be finite and > 0, got -1.0"),
    (0.0, (0.4,), "survey spacing must be finite and > 0, got 0.0"),
    (float("inf"), (0.4,), "survey spacing must be finite and > 0, got inf"),
    (1.0, (), "survey z levels must not be empty"),
    # each height is a finite number inside the world's z extent, not a string or a bool
    (1.0, ("0.5",), r"survey z levels\[0\] must be finite, got '0.5'"),
    (1.0, (True,), r"survey z levels\[0\] must be finite, got True"),
    (1.0, (0.4, float("nan")), r"survey z levels\[1\] must be finite, got nan"),
    (1.0, (0.4, 9.0), r"survey z levels\[1\] = 9.0 is outside the world's z extent \[0, 3\]"),
    (1.0, (-0.1,), r"survey z levels\[0\] = -0.1 is outside the world's z extent \[0, 3\]"),
])
def test_survey_positions_reject_bad_lattices(calib_world, spacing, z_levels, match):
    with pytest.raises(ValueError, match=f"^{match}$"):
        survey_positions(calib_world, spacing, z_levels)


@pytest.mark.parametrize("key, value", [("n_samples", 50.5), ("n_samples", True),
                                        ("seed", 2.7), ("seed", None)])
def test_path_spec_counts_are_integers(key, value):
    bound = " >= 2" if key == "n_samples" else ""
    with pytest.raises(ValueError, match=f"^{key} must be an integer{bound}, got {value!r}$"):
        PathSpec(**{key: value})


def test_survey_dataset_reads_map_frame(calib_world):
    pos = survey_positions(calib_world, 2.0, z_levels=(0.6,), margin=1.0)
    data = survey_dataset(calib_world, pos, noise_sigma=0.0, seed=0)
    truth = field_at_many(calib_world, pos)
    assert np.allclose(data.readings(), truth, atol=1e-12)
    assert np.allclose(data.positions(), pos)
