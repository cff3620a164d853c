"""Frame-labeled geometric and magnetic primitives shared by all modules.

Conventions used throughout the package:
  * positions and translations are in meters,
  * magnetic field vectors are in microtesla (uT),
  * rotations are stored as 3x3 orthonormal matrices (quaternions only
    appear at the file boundary, see :mod:`magcalib.serialization`).

A sensor's fingerprints are one :class:`Dataset` of read-only columns, built
and validated once by vectorised checks that apply the per-pose rules to
every row; the calibration reads those columns directly. A :class:`Pose` is
one such row as a validated record: :func:`~magcalib.simulator.generate_path`
produces a path as a list of them and :meth:`Dataset.poses` rebuilds them
from the columns. Both are immutable values: safe to share across threads
and to reuse between trials.

Every setting goes through one of three rules, whose error names the setting and
the value: :func:`check_real` (a finite real number within its bound, as a float),
:func:`check_integer` (a Python or numpy integer within its bounds, as an ``int``;
a bool is neither) and :func:`check_choice` (one of a tuple of strings)."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

FRAMES = ("mag", "lidar", "map")

ROTATION_TOL = 1e-9


class FrameError(ValueError):
    """A frame label is unknown, or a rotation matrix failed validation."""


def as_vec3(value, name: str = "vector") -> np.ndarray:
    """Coerce to a read-only float64 array of shape (3,), rejecting non-finite input."""
    arr = np.array(value, dtype=float).reshape(-1)
    if arr.shape != (3,):
        raise ValueError(f"{name} must have 3 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    arr.flags.writeable = False
    return arr


def as_mat3(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a read-only float64 array of shape (3, 3) with finite entries."""
    arr = np.array(value, dtype=float)
    if arr.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def check_integer(name: str, value, low: int | None = None, high: int | None = None,
                  error: type = ValueError) -> int:
    """``value`` as an ``int`` when it is a Python or numpy integer, not a bool, in
    ``[low, high]`` (None is open). Otherwise raises ``error``: ``"{name} must be an
    integer >= 1, got 0"``, ``"... in [1, 7], got 9"`` or ``"... an integer, got 2.5"``."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if integral and (low is None or value >= low) and (high is None or value <= high):
        return int(value)
    bound = (f" in [{low}, {high}]" if None not in (low, high) else
             f" >= {low}" if low is not None else f" <= {high}" if high is not None else "")
    raise error(f"{name} must be an integer{bound}, got {int(value) if integral else repr(value)}")


def check_choice(name: str, value, choices: tuple, error: type = ValueError) -> str:
    """``value`` if it is a string among ``choices``, else raises ``error``:
    ``"{name} must be one of ('fixed', 'l_curve'), got 'x'"``."""
    if isinstance(value, str) and value in choices:
        return value
    raise error(f"{name} must be one of {choices}, got {value!r}")


def check_real(name: str, value, low: float | None = 0.0, strict: bool = False,
               error: type = ValueError) -> float:
    """``value`` as a float when it is a finite real number, not a bool, and
    ``>= low`` (``> low`` if ``strict``; any finite number if ``low`` is None).
    Otherwise raises ``error``: ``"{name} must be finite and > 0, got {value}"``,
    a number shown as a float, anything else by its repr."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        number = math.inf if value > 0 else -math.inf
    if math.isfinite(number) and (low is None or (number > low if strict else number >= low)):
        return number
    bound = "" if low is None else f" and {'>' if strict else '>='} {low:g}"
    raise error(f"{name} must be finite{bound}, got {number if real else repr(value)}")


def row_norms(x: np.ndarray) -> np.ndarray:
    """Norm of each row of ``x`` (N, k), bit for bit ``np.linalg.norm(row)``:
    a stack of (1, k) @ (k, 1) products takes the 1-D norm's dot kernel,
    where ``norm(x, axis=1)`` sums in another order and differs in the last
    bit on a few percent of rows."""
    x = np.ascontiguousarray(x, dtype=float)
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None]).reshape(-1))


def reject_rows(error: type, bad: np.ndarray, reason) -> None:
    """Raise ``error`` for the first row flagged in the mask ``bad``, worded by
    ``reason(row)``. The exception carries ``row`` and ``reason`` so that a
    file reader can restate it against its own line numbers."""
    if np.any(bad):
        row = int(np.argmax(bad))
        exc = error(f"row {row}: {reason(row)}")
        exc.row, exc.reason = row, reason(row)
        raise exc


def _rotation_errors(R: np.ndarray) -> tuple:
    """Per matrix of the stack R (N, 3, 3): the largest entry of |R^T R - I|
    and |det R - 1|. A rotation keeps them within ``ROTATION_TOL`` and
    ``10 * ROTATION_TOL``."""
    ortho = np.abs(np.matmul(np.swapaxes(R, 1, 2), R) - np.eye(3)).max(axis=(1, 2))
    return ortho, np.abs(np.linalg.det(R) - 1.0)


def check_rotation(R: np.ndarray) -> np.ndarray:
    """Validate a rotation matrix, returning it as a read-only array."""
    arr = as_mat3(R, "rotation")
    ortho, det = _rotation_errors(arr[None])
    if not (ortho[0] <= ROTATION_TOL and det[0] <= 10 * ROTATION_TOL):
        raise FrameError("matrix is not orthonormal with determinant +1")
    return arr


def rot_z(angle: float) -> np.ndarray:
    """Rotation about +z by ``angle`` radians."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1.0
    return q


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform carrying frame labels.

    Maps points expressed in ``from_frame`` into ``to_frame``:
    ``x_to = rotation @ x_from + translation``.
    """

    rotation: np.ndarray
    translation: np.ndarray
    from_frame: str
    to_frame: str

    def __post_init__(self):
        object.__setattr__(self, "rotation", check_rotation(self.rotation))
        object.__setattr__(self, "translation", as_vec3(self.translation, "translation"))
        for name in ("from_frame", "to_frame"):
            check_choice(name, getattr(self, name), FRAMES, FrameError)


def _column(value, shape: tuple, name: str) -> np.ndarray:
    """A read-only float64 copy of ``value`` with exactly ``shape``."""
    arr = np.array(value, dtype=float)
    if arr.size == 0:
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Dataset:
    """One sensor's fingerprints as read-only columns.

    Row i is the reading ``readings()[i]`` [uT, sensor frame] taken at
    ``timestamps()[i]`` [s] with the pose ``(rotations()[i], positions()[i])``
    from ``frame`` into the map frame. Built once and validated once, by the
    rules of :class:`Pose` (rotation faults raise :class:`FrameError`) plus
    finite values, reading magnitudes in (0, 1000) uT and strictly
    increasing timestamps; a failure names the first bad row.
    """

    sensor_id: str
    frame: str
    _timestamps: np.ndarray
    _rotations: np.ndarray
    _positions: np.ndarray
    _readings: np.ndarray

    def __init__(self, sensor_id: str, frame: str, timestamps, rotations, positions,
                 readings):
        check_choice("frame", frame, FRAMES, FrameError)
        n = len(timestamps)
        t = _column(timestamps, (n,), "timestamps")
        R = _column(rotations, (n, 3, 3), "rotations")
        p = _column(positions, (n, 3), "positions")
        b = _column(readings, (n, 3), "readings")

        for name, col in (("timestamp", t), ("rotation", R), ("position", p),
                          ("reading", b)):
            bad = ~np.isfinite(col).all(axis=tuple(range(1, col.ndim)))
            reject_rows(ValueError, bad, lambda i: f"{name} {col[i].tolist()} is not finite")
        ortho, det = _rotation_errors(R)
        reject_rows(FrameError, ~(ortho <= ROTATION_TOL), lambda i: (
            f"rotation is not orthonormal: |R^T R - I| reaches {ortho[i]:.3g} "
            f"> {ROTATION_TOL}"))
        reject_rows(FrameError, ~(det <= 10 * ROTATION_TOL), lambda i: (
            f"rotation determinant is off +1 by {det[i]:.3g} > {10 * ROTATION_TOL}"))
        mag = row_norms(b)
        reject_rows(ValueError, ~((mag > 0.0) & (mag < 1000.0)), lambda i: (
            f"reading magnitude {mag[i]:.3g} uT outside sanity bound (0, 1000)"))
        reject_rows(ValueError, ~(np.diff(t, prepend=-np.inf) > 0), lambda i: (
            f"timestamp {t[i]} does not follow {t[i - 1]}: timestamps must be "
            "strictly increasing"))

        for name, value in (("sensor_id", sensor_id), ("frame", frame),
                            ("_timestamps", t), ("_rotations", R),
                            ("_positions", p), ("_readings", b)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self._timestamps.shape[0]

    def timestamps(self) -> np.ndarray:
        """(N,) sample times in seconds."""
        return self._timestamps

    def positions(self) -> np.ndarray:
        """(N, 3) sensor positions in the map frame."""
        return self._positions

    def rotations(self) -> np.ndarray:
        """(N, 3, 3) sensor-to-map rotations."""
        return self._rotations

    def readings(self) -> np.ndarray:
        """(N, 3) sensor-frame readings in uT."""
        return self._readings

    def poses(self) -> list:
        """One :class:`Pose` (``frame`` -> map) per row, built on demand."""
        return [Pose(R, p, self.frame, "map")
                for R, p in zip(self._rotations, self._positions)]
