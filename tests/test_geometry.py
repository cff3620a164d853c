import numpy as np
import pytest

from magcalib.geometry import (
    Dataset,
    Fingerprint,
    FrameError,
    Pose,
    random_rotation,
    rot_z,
    rotate_field,
)


def test_pose_apply_identity():
    pose = Pose.identity("mag", "map")
    assert np.allclose(pose.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_pose_apply_yaw_rotation():
    pose = Pose(rot_z(np.pi / 2), np.zeros(3), "lidar", "map")
    assert np.allclose(pose.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0],
                       atol=1e-12)


def test_pose_apply_hand_composed_affine():
    # R_z(90 deg) sends (1,0,0) to (0,1,0); adding t=(1,1,0) lands on (1,2,0)
    pose = Pose(rot_z(np.pi / 2), np.array([1.0, 1.0, 0.0]), "lidar", "map")
    assert np.allclose(pose.apply([1.0, 0.0, 0.0]), [1.0, 2.0, 0.0],
                       atol=1e-12)


def test_pose_rejects_non_rotation():
    with pytest.raises(FrameError):
        Pose(np.eye(3) * 2.0, np.zeros(3), "lidar", "map")


def test_pose_rejects_unknown_frame():
    with pytest.raises(FrameError):
        Pose(np.eye(3), np.zeros(3), "lidar", "world")


def test_compose_requires_chaining_frames():
    a = Pose.identity("mag", "lidar")
    b = Pose.identity("lidar", "map")
    assert b.compose(a).from_frame == "mag"
    with pytest.raises(FrameError):
        a.compose(b)


def test_pose_compose_associative_and_inverse():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p1 = Pose(random_rotation(rng), rng.normal(size=3), "mag", "lidar")
        p2 = Pose(random_rotation(rng), rng.normal(size=3), "lidar", "map")
        x = rng.normal(size=3)
        left = p2.compose(p1).apply(x)
        right = p2.apply(p1.apply(x))
        assert np.allclose(left, right, atol=1e-12)
        round_trip = p1.inverse().apply(p1.apply(x))
        assert np.allclose(round_trip, x, atol=1e-12)


def test_rotate_field_identity():
    assert np.allclose(rotate_field(np.eye(3), [10.0, 0.0, -40.0]),
                       [10.0, 0.0, -40.0])


def test_rotate_field_inverse_yaw():
    out = rotate_field(rot_z(np.pi / 2), [1.0, 0.0, 0.0], inverse=True)
    assert np.allclose(out, [0.0, -1.0, 0.0], atol=1e-12)


def test_rotate_field_round_trip_and_norm():
    rng = np.random.default_rng(1)
    for _ in range(25):
        R = random_rotation(rng)
        b = rng.normal(scale=30.0, size=3)
        fwd = rotate_field(R, b)
        assert abs(np.linalg.norm(fwd) - np.linalg.norm(b)) < 1e-12
        assert np.allclose(rotate_field(R, fwd, inverse=True), b, atol=1e-12)


def test_rotate_field_rejects_non_orthonormal():
    with pytest.raises(FrameError):
        rotate_field(np.diag([1.0, 1.0, 1.1]), [1.0, 0.0, 0.0])


def _fingerprint(t, reading=(10.0, 0.0, -40.0)):
    return Fingerprint(t, Pose.identity("mag", "map"), np.asarray(reading))


def test_fingerprint_rejects_unphysical_reading():
    with pytest.raises(ValueError):
        _fingerprint(0.0, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        _fingerprint(0.0, (2000.0, 0.0, 0.0))


def test_dataset_requires_increasing_timestamps():
    with pytest.raises(ValueError):
        Dataset("s", [_fingerprint(0.0), _fingerprint(0.0)])
    ds = Dataset("s", [_fingerprint(0.0), _fingerprint(0.5)])
    assert len(ds) == 2
    assert ds.positions().shape == (2, 3)


def test_dataset_array_views():
    ds = Dataset("s", [_fingerprint(float(i)) for i in range(4)])
    assert ds.readings().shape == (4, 3)
    assert ds.rotations().shape == (4, 3, 3)
    assert np.allclose(ds.timestamps(), [0.0, 1.0, 2.0, 3.0])
