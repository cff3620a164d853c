import numpy as np
import pytest

from magcalib.geometry import Dataset, Fingerprint, Pose
from magcalib.magmap import (
    BilinearMap,
    GpHyperparams,
    MapError,
    OutOfMapError,
    build_map,
)
from magcalib.simulator import field_at_many

from conftest import lattice_dataset


def _single_point_map(reading=(15.0, -5.0, -40.0)):
    pose = Pose(np.eye(3), np.zeros(3), "mag", "map")
    data = Dataset("one", [Fingerprint(0.0, pose, np.asarray(reading))])
    hyper = GpHyperparams(length_scale=1.0, noise_variance=0.0)
    return build_map(data, hyper, block_size=4.0)


def test_single_fingerprint_interpolates_exactly():
    field_map = _single_point_map()
    out = field_map.query(np.zeros(3))
    assert np.allclose(out.mean, [15.0, -5.0, -40.0], atol=1e-9)
    assert np.all(out.variance <= 1e-9)


def test_constant_field_recovered_everywhere():
    const = np.array([25.0, -3.0, -35.0])
    xs = np.linspace(0.0, 9.0, 10)
    data = lattice_dataset(lambda p: const, xs, xs, [0.5])
    field_map = build_map(data, GpHyperparams(length_scale=2.0), block_size=12.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.uniform([1.0, 1.0, 0.5], [8.0, 8.0, 0.5])
        assert np.allclose(field_map.query(t).mean, const, atol=1e-6)


def test_gp_consistent_with_simulator_at_held_out_midpoints(gentle_world):
    # noisy 0.25 m survey; held-out midpoint residuals should respect the
    # GP's own predictive std almost everywhere
    from magcalib.simulator import survey_dataset, survey_positions

    positions = survey_positions(gentle_world, 0.25, z_levels=(0.8,), margin=1.5)
    data = survey_dataset(gentle_world, positions, noise_sigma=0.05, seed=3)
    hyper = GpHyperparams(length_scale=0.7, noise_variance=0.0025)
    field_map = build_map(data, hyper, block_size=8.0)

    mids = positions[:-1] + np.diff(positions, axis=0) / 2.0
    mids = mids[np.all(np.abs(np.diff(positions, axis=0)) < 0.3, axis=1)]
    means, variances, _ = field_map.query_many(mids)
    truth = field_at_many(gentle_world, mids)
    std = np.sqrt(variances + hyper.noise_variance)
    frac_ok = np.mean(np.all(np.abs(means - truth) <= 3.0 * std, axis=1))
    assert frac_ok >= 0.99


def test_far_query_recovers_prior(gentle_world):
    # one training cluster in a corner; query the far corner of its block
    pose = Pose(np.eye(3), np.array([0.5, 0.5, 0.5]), "mag", "map")
    samples = [Fingerprint(float(i), Pose(np.eye(3), np.array([0.4 + 0.1 * i, 0.5, 0.5]), "mag", "map"),
                           np.array([20.0, 5.0, -40.0])) for i in range(3)]
    data = Dataset("corner", samples)
    hyper = GpHyperparams(length_scale=0.5, signal_variance=25.0, noise_variance=0.01)
    field_map = build_map(data, hyper, block_size=30.0)
    far = np.array([25.0, 0.5, 0.5])
    out = field_map.query(far)
    assert np.allclose(out.mean, [20.0, 5.0, -40.0], atol=1e-6)  # block mean
    assert np.all(np.abs(out.variance - hyper.signal_variance)
                  <= 0.01 * (hyper.signal_variance + hyper.noise_variance))


def test_variance_zero_at_training_point_when_noise_free():
    field_map = _single_point_map()
    assert np.all(field_map.query(np.zeros(3)).variance <= 1e-9)


def test_dense_grid_map_matches_simulator(gentle_world):
    from magcalib.simulator import survey_dataset, survey_positions

    positions = survey_positions(gentle_world, 0.25, z_levels=(0.8,), margin=1.5)
    data = survey_dataset(gentle_world, positions, noise_sigma=0.0, seed=0)
    hyper = GpHyperparams(length_scale=0.7, noise_variance=1e-8)
    field_map = build_map(data, hyper, block_size=8.0)
    rng = np.random.default_rng(1)
    pts = rng.uniform([2.0, 2.0, 0.8], [6.0, 6.0, 0.8], size=(200, 3))
    means, _, _ = field_map.query_many(pts)
    truth = field_at_many(gentle_world, pts)
    assert np.max(np.linalg.norm(means - truth, axis=1)) <= 0.05


def test_out_of_map_raises(gentle_map):
    with pytest.raises(OutOfMapError):
        gentle_map.query(np.array([100.0, 100.0, 100.0]))
    means, variances, inside = gentle_map.query_many(
        np.array([[100.0, 100.0, 100.0], [4.0, 4.0, 0.9]]), allow_outside=True)
    assert not inside[0] and inside[1]
    assert np.isnan(means[0]).all() and np.isfinite(means[1]).all()


def test_duplicate_positions_zero_noise_is_labeled_error():
    pose = Pose(np.eye(3), np.zeros(3), "mag", "map")
    samples = [Fingerprint(float(i), pose, np.array([10.0, 0.0, -40.0]))
               for i in range(2)]
    data = Dataset("dup", samples)
    with pytest.raises(MapError, match="noise_variance"):
        build_map(data, GpHyperparams(noise_variance=0.0), block_size=4.0)


def test_gradient_of_constant_field_is_zero():
    const = np.array([25.0, -3.0, -35.0])
    xs = np.linspace(0.0, 6.0, 7)
    data = lattice_dataset(lambda p: const, xs, xs, [0.4, 1.2])
    field_map = build_map(data, GpHyperparams(length_scale=1.5), block_size=8.0)
    grad = field_map.gradient(np.array([3.0, 3.0, 0.8]))
    assert np.max(np.abs(grad)) <= 1e-6


def test_gradient_matches_finite_differences(gentle_map):
    rng = np.random.default_rng(2)
    h = 1e-4
    pts = rng.uniform([2.0, 2.0, 0.6], [6.0, 6.0, 1.2], size=(25, 3))
    for t in pts:
        analytic = gentle_map.gradient(t)
        fd = np.zeros((3, 3))
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            hi, _, _ = gentle_map.query_many((t + step).reshape(1, 3))
            lo, _, _ = gentle_map.query_many((t - step).reshape(1, 3))
            fd[:, axis] = (hi[0] - lo[0]) / (2.0 * h)
        scale = max(np.abs(fd).max(), 1e-6)
        assert np.max(np.abs(analytic - fd)) / scale <= 1e-4


def test_gradient_recovers_linear_field():
    gain = np.array([[1.2, 0.3, -0.4],
                     [0.0, -0.8, 0.5],
                     [0.7, 0.1, 1.5]])
    base = np.array([25.0, 5.0, -35.0])
    xs = np.linspace(0.0, 6.0, 13)
    zs = np.linspace(0.0, 2.0, 6)
    data = lattice_dataset(lambda p: base + gain @ (p - 3.0), xs, xs, zs)
    field_map = build_map(data, GpHyperparams(length_scale=1.5, noise_variance=1e-8),
                          block_size=8.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = rng.uniform([2.0, 2.0, 0.7], [4.0, 4.0, 1.3])
        grad = field_map.gradient(t)
        assert np.max(np.abs(grad - gain)) <= 0.01 * np.max(np.abs(gain))


def test_query_mean_invariant_to_fingerprint_order(gentle_world):
    from magcalib.simulator import survey_dataset, survey_positions

    positions = survey_positions(gentle_world, 0.8, z_levels=(0.6, 1.2), margin=1.5)
    data = survey_dataset(gentle_world, positions, noise_sigma=0.05, seed=5)
    hyper = GpHyperparams(length_scale=0.8, noise_variance=0.0025)
    m1 = build_map(data, hyper, block_size=8.0)

    rng = np.random.default_rng(6)
    perm = rng.permutation(len(data))
    shuffled = [data.samples[i] for i in perm]
    reindexed = [Fingerprint(float(i), fp.pose, fp.reading)
                 for i, fp in enumerate(shuffled)]
    m2 = build_map(Dataset("perm", reindexed), hyper, block_size=8.0)

    pts = rng.uniform([2.0, 2.0, 0.7], [6.0, 6.0, 1.1], size=(20, 3))
    a, _, _ = m1.query_many(pts)
    b, _, _ = m2.query_many(pts)
    assert np.max(np.abs(a - b)) <= 1e-10


def test_variance_shrinks_with_noise_at_training_points():
    xs = np.linspace(0.0, 4.0, 5)
    data = lattice_dataset(lambda p: np.array([20.0 + p[0], 0.0, -40.0]),
                           xs, xs, [0.5])
    t = np.array([2.0, 2.0, 0.5])
    prev = np.inf
    for noise in (1.0, 0.3, 0.1, 0.01):
        field_map = build_map(data, GpHyperparams(length_scale=1.0,
                                                  noise_variance=noise),
                              block_size=8.0)
        var = field_map.query(t).variance[0]
        assert var < prev
        prev = var


def test_variance_nonnegative_after_clamp(gentle_map):
    rng = np.random.default_rng(7)
    pts = rng.uniform([1.5, 1.5, 0.5], [6.5, 6.5, 1.3], size=(200, 3))
    _, variances, _ = gentle_map.query_many(pts)
    assert np.all(variances >= 0.0)


def test_mean_only_query_matches_full_query(gentle_map):
    rng = np.random.default_rng(8)
    pts = rng.uniform([-2.0, 1.5, 0.5], [6.5, 6.5, 1.3], size=(100, 3))
    means, _, inside = gentle_map.query_many(pts, allow_outside=True)
    means_only, variances, inside_only = gentle_map.query_many(
        pts, allow_outside=True, with_variance=False)
    assert variances is None
    assert np.array_equal(inside, inside_only)
    assert np.array_equal(means, means_only, equal_nan=True)


# ---------------------------------------------------------------------------
# multilinear baseline


def _ramp(p):
    return np.array([20.0 + 2.0 * p[0] - p[1], 5.0 + 0.5 * p[2], -40.0 + p[0]])


def test_bilinear_exact_at_nodes():
    xs = np.linspace(0.0, 4.0, 5)
    zs = [0.5, 1.5]
    data = lattice_dataset(_ramp, xs, xs, zs)
    grid = BilinearMap(data)
    for fp in data.samples[::7]:
        out = grid.query(fp.pose.translation).mean
        assert np.allclose(out, fp.reading, atol=1e-12)


def test_bilinear_cell_center_is_average():
    vals = {(0.0, 0.0): 1.0, (1.0, 0.0): 2.0, (0.0, 1.0): 5.0, (1.0, 1.0): 10.0}

    def f(p):
        return np.array([vals[(p[0], p[1])], 30.0, -40.0])

    data = lattice_dataset(f, [0.0, 1.0], [0.0, 1.0], [0.5])
    out = BilinearMap(data).query(np.array([0.5, 0.5, 0.5])).mean
    assert np.isclose(out[0], (1.0 + 2.0 + 5.0 + 10.0) / 4.0, atol=1e-12)


def test_bilinear_reproduces_linear_fields():
    xs = np.linspace(0.0, 3.0, 4)
    zs = np.linspace(0.2, 1.4, 3)
    data = lattice_dataset(_ramp, xs, xs, zs)
    grid = BilinearMap(data)
    rng = np.random.default_rng(8)
    for _ in range(30):
        t = rng.uniform([0.0, 0.0, 0.2], [3.0, 3.0, 1.4])
        assert np.allclose(grid.query(t).mean, _ramp(t), atol=1e-9)


def test_bilinear_rejects_irregular_grid():
    samples = []
    rng = np.random.default_rng(9)
    for i in range(12):
        pos = rng.uniform(0.0, 4.0, size=3)
        samples.append(Fingerprint(float(i), Pose(np.eye(3), pos, "mag", "map"),
                                   np.array([20.0, 0.0, -40.0])))
    with pytest.raises(MapError, match="lattice"):
        BilinearMap(Dataset("irr", samples))


def test_bilinear_out_of_hull_raises():
    xs = np.linspace(0.0, 3.0, 4)
    data = lattice_dataset(_ramp, xs, xs, [0.5])
    grid = BilinearMap(data)
    with pytest.raises(OutOfMapError):
        grid.query(np.array([5.0, 1.0, 0.5]))


def test_bilinear_gradient_near_linear_field():
    xs = np.linspace(0.0, 3.0, 4)
    zs = np.linspace(0.2, 1.4, 3)
    data = lattice_dataset(_ramp, xs, xs, zs)
    grid = BilinearMap(data)
    g = grid.gradient(np.array([1.3, 2.1, 0.9]))
    expected = np.array([[2.0, -1.0, 0.0], [0.0, 0.0, 0.5], [1.0, 0.0, 0.0]])
    assert np.allclose(g, expected, atol=1e-6)
