"""Frame-labeled geometric and magnetic primitives shared by all modules.

Conventions used throughout the package:
  * positions and translations are in meters,
  * magnetic field vectors are in microtesla (uT),
  * rotations are stored as 3x3 orthonormal matrices (quaternions only
    appear at the file boundary, see :mod:`magcalib.serialization`).

Everything here is an immutable value type: safe to share across threads
and to reuse between trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FRAMES = ("mag", "lidar", "map")

ROTATION_TOL = 1e-9


class FrameError(ValueError):
    """Frame labels do not chain, or a rotation matrix failed validation."""


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


def is_rotation(R: np.ndarray, tol: float = ROTATION_TOL) -> bool:
    """True when R is orthonormal with determinant +1 within ``tol``."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3) or not np.all(np.isfinite(R)):
        return False
    if not np.allclose(R.T @ R, np.eye(3), atol=tol, rtol=0.0):
        return False
    return abs(np.linalg.det(R) - 1.0) <= 10 * tol


def check_rotation(R: np.ndarray, tol: float = ROTATION_TOL) -> np.ndarray:
    """Validate a rotation matrix, returning it as a read-only array."""
    arr = as_mat3(R, "rotation")
    if not is_rotation(arr, tol):
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
        for frame in (self.from_frame, self.to_frame):
            if frame not in FRAMES:
                raise FrameError(f"unknown frame {frame!r}, expected one of {FRAMES}")

    @classmethod
    def identity(cls, from_frame: str = "lidar", to_frame: str = "map") -> "Pose":
        return cls(np.eye(3), np.zeros(3), from_frame, to_frame)

    def apply(self, x) -> np.ndarray:
        """Transform a position from ``from_frame`` into ``to_frame``."""
        return self.rotation @ as_vec3(x, "position") + self.translation

    def compose(self, other: "Pose") -> "Pose":
        """self ∘ other: first ``other``, then ``self``. Frame labels must chain."""
        if other.to_frame != self.from_frame:
            raise FrameError(
                f"cannot compose {self.from_frame}->{self.to_frame} with "
                f"{other.from_frame}->{other.to_frame}"
            )
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
            other.from_frame,
            self.to_frame,
        )

    def inverse(self) -> "Pose":
        return Pose(
            self.rotation.T,
            -(self.rotation.T @ self.translation),
            self.to_frame,
            self.from_frame,
        )


def rotate_field(R: np.ndarray, b, inverse: bool = False) -> np.ndarray:
    """Rotate a field vector by an orthonormal matrix.

    With ``inverse=True`` applies R^T, which undoes the forward rotation;
    used to bring a map-frame field prediction back into a sensor frame.
    """
    Rm = check_rotation(R)
    vec = as_vec3(b, "field")
    return (Rm.T if inverse else Rm) @ vec


@dataclass(frozen=True, eq=False)
class Fingerprint:
    """One timestamped (pose, magnetic reading) sample.

    ``pose`` maps the carrying sensor's frame into the map frame; ``reading``
    is the field measured in the sensor frame, in uT.
    """

    timestamp: float
    pose: Pose
    reading: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "reading", as_vec3(self.reading, "reading"))
        if not np.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")
        mag = float(np.linalg.norm(self.reading))
        if not (0.0 < mag < 1000.0):
            raise ValueError(f"reading magnitude {mag:.3g} uT outside sanity bound (0, 1000)")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered fingerprint collection for one sensor."""

    sensor_id: str
    samples: tuple

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        times = np.array([fp.timestamp for fp in self.samples])
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("fingerprint timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.samples)

    def timestamps(self) -> np.ndarray:
        return np.array([fp.timestamp for fp in self.samples])

    def positions(self) -> np.ndarray:
        """(N, 3) sensor positions in the map frame."""
        return np.array([fp.pose.translation for fp in self.samples]).reshape(-1, 3)

    def rotations(self) -> np.ndarray:
        """(N, 3, 3) sensor-to-map rotations."""
        return np.array([fp.pose.rotation for fp in self.samples]).reshape(-1, 3, 3)

    def readings(self) -> np.ndarray:
        """(N, 3) sensor-frame readings in uT."""
        return np.array([fp.reading for fp in self.samples]).reshape(-1, 3)

    def poses(self) -> list:
        return [fp.pose for fp in self.samples]
