from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from magcalib.geometry import (
    ROTATION_TOL,
    Dataset,
    FrameError,
    Pose,
    check_real,
    random_rotation,
    rot_z,
)


def test_rot_z_quarter_turn():
    assert np.allclose(rot_z(np.pi / 2) @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                       atol=1e-12)


def test_check_real_returns_a_float_and_words_every_fault():
    """A finite real number within its bound comes back as a float; any
    other value raises the given error, naming the setting and the value."""
    for value in (2, np.float64(2.0), np.int64(2)):
        assert check_real("x", value) == 2.0 and type(check_real("x", value)) is float
    assert check_real("x", 0) == 0.0
    assert check_real("x", -3.5, low=None) == -3.5
    assert check_real("x", 1.5, low=1.0, strict=True) == 1.5
    with pytest.raises(ValueError, match=r"^x must be finite and > 0, got 0\.0$"):
        check_real("x", 0, strict=True)
    with pytest.raises(ValueError, match=r"^x must be finite and >= 1\.5, got 1\.0$"):
        check_real("x", 1, low=1.5)
    with pytest.raises(ValueError, match=r"^x must be finite, got nan$"):
        check_real("x", float("nan"), low=None)
    with pytest.raises(ValueError, match=r"^x must be finite, got False$"):
        check_real("x", False, low=None)
    with pytest.raises(ValueError, match=r"^x must be finite and >= 0, got inf$"):
        check_real("x", 10**400)  # an int beyond the float range
    with pytest.raises(ValueError, match=r"^x must be finite and >= 0, got None$"):
        check_real("x", None)
    with pytest.raises(FrameError, match=r"^x must be finite and >= 0, got \[1\.0\]$"):
        check_real("x", [1.0], error=FrameError)


def test_pose_rejects_non_rotation():
    with pytest.raises(FrameError):
        Pose(np.eye(3) * 2.0, np.zeros(3), "lidar", "map")


def test_pose_rejects_unknown_frame():
    with pytest.raises(FrameError):
        Pose(np.eye(3), np.zeros(3), "lidar", "world")


def _columns(n=4):
    """Valid columns of an n-row dataset: (timestamps, rotations, positions,
    readings)."""
    rng = np.random.default_rng(3)
    return (np.arange(n, dtype=float),
            np.array([random_rotation(rng) for _ in range(n)]),
            rng.uniform(-5.0, 5.0, size=(n, 3)),
            np.tile([10.0, 0.0, -40.0], (n, 1)))


def test_fingerprint_rejects_unphysical_reading():
    t, R, p, b = _columns(2)
    for reading in ((0.0, 0.0, 0.0), (2000.0, 0.0, 0.0)):
        b[1] = reading
        with pytest.raises(ValueError, match="row 1: reading magnitude"):
            Dataset("s", "mag", t, R, p, b)


def test_dataset_requires_increasing_timestamps():
    _, R, p, b = _columns(2)
    with pytest.raises(ValueError, match="row 1: timestamp"):
        Dataset("s", "mag", [0.0, 0.0], R, p, b)
    ds = Dataset("s", "mag", [0.0, 0.5], R, p, b)
    assert len(ds) == 2
    assert ds.positions().shape == (2, 3)


def test_dataset_array_views():
    columns = _columns(4)
    ds = Dataset("s", "mag", *columns)
    assert ds.readings().shape == (4, 3)
    assert ds.rotations().shape == (4, 3, 3)
    assert np.allclose(ds.timestamps(), [0.0, 1.0, 2.0, 3.0])
    # the columns are read-only copies of the input, and the value is frozen
    for got, given in zip((ds.timestamps(), ds.rotations(), ds.positions(),
                           ds.readings()), columns):
        assert np.array_equal(got, given) and not np.shares_memory(got, given)
        with pytest.raises(ValueError):
            got[0] = 0.0
    with pytest.raises(FrozenInstanceError):
        ds.sensor_id = "other"
    poses = ds.poses()
    assert [(p.from_frame, p.to_frame) for p in poses] == [("mag", "map")] * 4
    assert np.array_equal(poses[2].rotation, columns[1][2])
    assert np.array_equal(poses[2].translation, columns[2][2])


def _set(column, row, value):
    def edit(columns):
        columns[column][row] = value
    return edit


_REFLECTION = np.diag([1.0, 1.0, -1.0])  # orthonormal, determinant -1


@pytest.mark.parametrize("edit, error, match", [
    (_set(0, 2, np.nan), ValueError, "row 2: timestamp nan is not finite"),
    (_set(0, 3, 2.0), ValueError, "row 3: timestamp 2.0 does not follow 2.0"),
    (_set(0, 2, 0.5), ValueError, "row 2: timestamp 0.5 does not follow 1.0"),
    (_set(1, 1, np.full((3, 3), np.inf)), ValueError, "row 1: rotation .* not finite"),
    (_set(1, 2, np.diag([1.0, 1.0, 1.1])), FrameError, "row 2: rotation is not orthonormal"),
    (_set(1, 3, _REFLECTION), FrameError, "row 3: rotation determinant"),
    (_set(1, 1, np.eye(3) * (1.0 + 2 * ROTATION_TOL)), FrameError,
     "row 1: rotation is not orthonormal"),
    (_set(2, 0, [0.0, np.inf, 0.0]), ValueError, "row 0: position .* not finite"),
    (_set(3, 1, [np.nan, 0.0, 0.0]), ValueError, "row 1: reading .* not finite"),
    (_set(3, 2, [0.0, 0.0, 0.0]), ValueError, "row 2: reading magnitude 0 "),
    (_set(3, 3, [1000.0, 0.0, 0.0]), ValueError, "row 3: reading magnitude 1e\\+03 "),
])
def test_dataset_rejects_each_bad_row_kind(edit, error, match):
    columns = [np.array(c) for c in _columns(4)]
    edit(columns)
    with pytest.raises(error, match=match) as info:
        Dataset("s", "mag", *columns)
    assert info.value.row == int(match.split()[1].rstrip(":"))


def test_dataset_keeps_the_per_pose_tolerance():
    t, R, p, b = _columns(4)
    R[1] = np.eye(3) * (1.0 + 0.2 * ROTATION_TOL)   # |R^T R - I| = 0.4 tol
    assert len(Dataset("s", "mag", t, R, p, b)) == 4
    assert len(Dataset("s", "mag", [], np.empty((0, 3, 3)), [], [])) == 0


def test_dataset_rejects_bad_frame_and_shapes():
    t, R, p, b = _columns(4)
    with pytest.raises(FrameError,
                       match=r"^frame must be one of \('mag', 'lidar', 'map'\), got 'world'$"):
        Dataset("s", "world", t, R, p, b)
    with pytest.raises(ValueError, match="readings must have shape"):
        Dataset("s", "mag", t, R, p, b[:3])
    with pytest.raises(ValueError, match="rotations must have shape"):
        Dataset("s", "mag", t, R[:, :2], p, b)
