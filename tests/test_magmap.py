import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.spatial.distance import cdist

from magcalib.magmap import (
    BilinearMap,
    GpHyperparams,
    MapError,
    OutOfMapError,
    _CholeskyFit,
    _FD_STEP,
    _kernel,
    _product_grid,
    build_map,
)
from magcalib.simulator import WorldConfig, field_at_many, survey_dataset, survey_positions

from conftest import identity_dataset, lattice_dataset, make_l_shaped_map


def _single_point_map(reading=(15.0, -5.0, -40.0)):
    data = identity_dataset(np.zeros((1, 3)), [reading], "one")
    hyper = GpHyperparams(length_scale=1.0, noise_variance=0.0)
    return build_map(data, hyper, block_size=4.0)


def test_single_fingerprint_interpolates_exactly():
    field_map = _single_point_map()
    means, variances, _ = field_map.query_many(np.zeros((1, 3)))
    assert np.allclose(means[0], [15.0, -5.0, -40.0], atol=1e-9)
    assert np.all(variances[0] <= 1e-9)


def test_constant_field_recovered_everywhere():
    const = np.array([25.0, -3.0, -35.0])
    xs = np.linspace(0.0, 9.0, 10)
    data = lattice_dataset(lambda p: const, xs, xs, [0.5])
    field_map = build_map(data, GpHyperparams(length_scale=2.0), block_size=12.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.uniform([1.0, 1.0, 0.5], [8.0, 8.0, 0.5])
        assert np.allclose(field_map.query_many(t[None])[0][0], const, atol=1e-6)


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
    positions = [[0.4 + 0.1 * i, 0.5, 0.5] for i in range(3)]
    data = identity_dataset(positions, np.tile([20.0, 5.0, -40.0], (3, 1)), "corner")
    hyper = GpHyperparams(length_scale=0.5, signal_variance=25.0, noise_variance=0.01)
    field_map = build_map(data, hyper, block_size=30.0)
    far = np.array([25.0, 0.5, 0.5])
    means, variances, _ = field_map.query_many(far[None])
    assert np.allclose(means[0], [20.0, 5.0, -40.0], atol=1e-6)  # block mean
    assert np.all(np.abs(variances[0] - hyper.signal_variance)
                  <= 0.01 * (hyper.signal_variance + hyper.noise_variance))


def test_variance_zero_at_training_point_when_noise_free():
    field_map = _single_point_map()
    assert np.all(field_map.query_many(np.zeros((1, 3)))[1] <= 1e-9)


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
        gentle_map.query_many(np.array([[100.0, 100.0, 100.0]]))
    means, variances, inside = gentle_map.query_many(
        np.array([[100.0, 100.0, 100.0], [4.0, 4.0, 0.9]]), allow_outside=True)
    assert not inside[0] and inside[1]
    assert np.isnan(means[0]).all() and np.isfinite(means[1]).all()
    with pytest.raises(OutOfMapError):
        gentle_map.gradient_many(np.array([[4.0, 4.0, 0.9], [100.0, 100.0, 100.0]]))


def test_duplicate_positions_zero_noise_is_labeled_error():
    data = identity_dataset(np.zeros((2, 3)), np.tile([10.0, 0.0, -40.0], (2, 1)), "dup")
    with pytest.raises(MapError, match="noise_variance"):
        build_map(data, GpHyperparams(noise_variance=0.0), block_size=4.0)


@pytest.mark.parametrize("length_scale, signal_variance",
                         [(0.7, 25.0), (2.25, 25.0), (1.3, 3.7)])
def test_kernel_is_bit_identical_to_reference_form(length_scale, signal_variance):
    rng = np.random.default_rng(13)
    a = rng.uniform(-5.0, 5.0, size=(40, 3))
    b = np.vstack([rng.uniform(-5.0, 5.0, size=(30, 3)), a[:1]])  # a zero-distance pair
    hyper = GpHyperparams(length_scale=length_scale, signal_variance=signal_variance)
    reference = signal_variance * np.exp(-0.5 * cdist(a, b, "sqeuclidean") / length_scale**2)
    got = _kernel(hyper, a, b)
    assert got[0, -1] == signal_variance
    assert np.array_equal(got, reference)


def test_gradient_of_constant_field_is_zero():
    const = np.array([25.0, -3.0, -35.0])
    xs = np.linspace(0.0, 6.0, 7)
    data = lattice_dataset(lambda p: const, xs, xs, [0.4, 1.2])
    field_map = build_map(data, GpHyperparams(length_scale=1.5), block_size=8.0)
    grad = field_map.gradient_many(np.array([[3.0, 3.0, 0.8]]))[0][0]
    assert np.max(np.abs(grad)) <= 1e-6


def test_gradient_matches_finite_differences(gentle_map):
    rng = np.random.default_rng(2)
    h = 1e-4
    pts = rng.uniform([2.0, 2.0, 0.6], [6.0, 6.0, 1.2], size=(25, 3))
    for t in pts:
        analytic = gentle_map.gradient_many(t[None])[0][0]
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
        grad = field_map.gradient_many(t[None])[0][0]
        assert np.max(np.abs(grad - gain)) <= 0.01 * np.max(np.abs(gain))


def test_query_mean_invariant_to_fingerprint_order(gentle_world):
    positions = survey_positions(gentle_world, 0.8, z_levels=(0.6, 1.2), margin=1.5)
    data = survey_dataset(gentle_world, positions, noise_sigma=0.05, seed=5)
    hyper = GpHyperparams(length_scale=0.8, noise_variance=0.0025)
    m1 = build_map(data, hyper, block_size=8.0)

    rng = np.random.default_rng(6)
    perm = rng.permutation(len(data))
    shuffled = identity_dataset(data.positions()[perm], data.readings()[perm], "perm")
    m2 = build_map(shuffled, hyper, block_size=8.0)

    pts = rng.uniform([2.0, 2.0, 0.7], [6.0, 6.0, 1.1], size=(20, 3))
    a, va, _ = m1.query_many(pts)
    b, vb, _ = m2.query_many(pts)
    ga, gb = m1.gradient_many(pts)[0], m2.gradient_many(pts)[0]
    assert all(b.grid is not None for m in (m1, m2) for b in m.blocks.values())
    assert np.max(np.abs(a - b)) <= 1e-10
    assert np.max(np.abs(va - vb)) <= 1e-10 * hyper.signal_variance
    assert np.max(np.abs(ga - gb)) <= 1e-10 * np.abs(ga).max()


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
        var = field_map.query_many(t[None])[1][0, 0]
        assert var < prev
        prev = var


def test_variance_nonnegative_after_clamp(gentle_map):
    rng = np.random.default_rng(7)
    pts = rng.uniform([1.5, 1.5, 0.5], [6.5, 6.5, 1.3], size=(200, 3))
    _, variances, _ = gentle_map.query_many(pts)
    assert np.all(variances >= 0.0)


# ---------------------------------------------------------------------------
# block lookup on a multi-block map with empty cells


def _l_shaped_queries(field_map, rng):
    """Points in every populated block, in empty cells, on cell edges and
    in the overlap padding, shuffled so that blocks interleave."""
    size, lo = field_map.block_size, field_map.grid_lo
    z = (lo[2] - field_map.overlap, lo[2] + field_map.overlap)
    cells = [(i, j) for i in range(4) for j in range(4)]
    pts = [rng.uniform(lo + [i * size, j * size, z[0]],
                       lo + [(i + 1) * size, (j + 1) * size, z[1]], size=(20, 3))
           for i, j in cells]
    edges = lo + size * rng.integers(0, 5, size=(100, 3)).astype(float)
    edges[:, 2] = rng.uniform(*z, size=100)
    edges[::2, 1] = rng.uniform(lo[1], field_map.grid_hi[1], size=50)
    pad = field_map.overlap
    below = rng.uniform(field_map.grid_lo - pad, field_map.grid_lo, size=(40, 3))
    above = rng.uniform(field_map.grid_hi, field_map.grid_hi + pad, size=(40, 3))
    pts = np.vstack(pts + [edges, below, above])
    return pts[rng.permutation(len(pts))]


def _reference_blocks(field_map, pts):
    """Block key per point: the floored, clipped cell if it holds data, else
    the populated block with the nearest centre (first on a tie)."""
    keys = list(field_map.blocks)
    centers = np.array([b.center for b in field_map.blocks.values()])
    out = []
    for t in pts:
        idx = np.floor((t - field_map.grid_lo) / field_map.block_size).astype(int)
        key = tuple(np.clip(idx, 0, field_map.grid_shape - 1).tolist())
        if key not in field_map.blocks:
            key = keys[int(np.argmin(((centers - t) ** 2).sum(axis=1)))]
        out.append(key)
    return out


def _reference_groups(field_map, pts):
    keys = _reference_blocks(field_map, pts)
    return {key: np.array([i for i, k in enumerate(keys) if k == key]) for key in set(keys)}


def _dense_alpha(hyper, block):
    """``(chol, alpha)`` of one block from a Cholesky factor of its whole
    Gram matrix, whatever factorization the block uses itself."""
    gram = _kernel(hyper, block.train_pos, block.train_pos)
    gram += hyper.noise_variance * np.eye(block.n_train)
    chol = cholesky(gram, lower=True)
    return chol, cho_solve((chol, True), block.train_field - block.mean)


def _einsum_gradient(field_map, block, sub):
    """The gradient in its per-point einsum form over world coordinates."""
    _, alpha = _dense_alpha(field_map.hyper, block)
    kstar = _kernel(field_map.hyper, block.train_pos, sub)
    diff = block.train_pos[None, :, :] - sub[:, None, :]
    weighted = kstar.T[:, :, None] * diff / field_map.hyper.length_scale**2
    return np.einsum("na,mns->mas", alpha, weighted)


def _assert_matches_dense_reference(field_map, block, sub, means, variances, grads):
    """Mean, variance and gradient within 1e-10 of their scale of the dense
    reference: field magnitude, signal variance, per-point gradient size."""
    hyper = field_map.hyper
    chol, alpha = _dense_alpha(hyper, block)
    kstar = _kernel(hyper, block.train_pos, sub)
    ref_means = block.mean + kstar.T @ alpha
    v = solve_triangular(chol, kstar, lower=True)
    ref_var = np.clip(hyper.signal_variance - (v * v).sum(axis=0), 0.0, None)
    ref_grads = _einsum_gradient(field_map, block, sub)
    assert np.abs(means - ref_means).max() <= 1e-10 * np.abs(ref_means).max()
    assert np.abs(variances - ref_var[:, None]).max() <= 1e-10 * hyper.signal_variance
    gscale = np.abs(ref_grads).max(axis=(1, 2))
    assert np.all(np.abs(grads - ref_grads).max(axis=(1, 2)) <= 1e-10 * gscale)


def test_grouping_matches_reference_rule(l_shaped_map):
    pts = _l_shaped_queries(l_shaped_map, np.random.default_rng(10))
    groups = _reference_groups(l_shaped_map, pts)
    assert len(groups) == 7
    idx = np.clip(np.floor((pts - l_shaped_map.grid_lo) / l_shaped_map.block_size),
                  0, l_shaped_map.grid_shape - 1).astype(int)
    assert sum(tuple(i) not in l_shaped_map.blocks for i in idx.tolist()) >= 9 * 20
    got = {}
    for block, rows in l_shaped_map._group_by_block(l_shaped_map._ordinals(pts)):
        key = next(k for k, b in l_shaped_map.blocks.items() if b is block)
        assert key not in got
        got[key] = rows
    assert got.keys() == groups.keys()
    for key, rows in groups.items():
        assert np.array_equal(got[key], rows)  # input order kept within a block


def test_batched_queries_equal_per_block_and_single_point_queries(l_shaped_map):
    pts = _l_shaped_queries(l_shaped_map, np.random.default_rng(11))
    means, variances, inside = l_shaped_map.query_many(pts)
    grads, _ = l_shaped_map.gradient_many(pts)
    assert inside.all()
    # each block sees the same points in the same order as in a batch of its
    # own points only, so its kernel columns, mean and variance are the same
    kinds = set()
    for key, rows in _reference_groups(l_shaped_map, pts).items():
        block = l_shaped_map.blocks[key]
        kinds.add(block.grid is None)
        if block.grid is None:
            kstar = _kernel(l_shaped_map.hyper, block.train_pos, pts[rows])
            assert np.array_equal(means[rows], block.mean + kstar.T @ block.fit.alpha)
        else:
            _assert_matches_dense_reference(l_shaped_map, block, pts[rows], means[rows],
                                            variances[rows], grads[rows])
        m, v, _ = l_shaped_map.query_many(pts[rows])
        g, _ = l_shaped_map.gradient_many(pts[rows])
        assert np.array_equal(means[rows], m)
        assert np.array_equal(variances[rows], v)
        assert np.array_equal(grads[rows], g)
    assert kinds == {True, False}  # Cholesky and lattice blocks
    # one point at a time: BLAS takes its matrix-vector path, last bits move
    sigma2 = l_shaped_map.hyper.signal_variance
    gscale = np.abs(grads).max()
    for i in range(0, len(pts), 7):
        m, v, _ = l_shaped_map.query_many(pts[i:i + 1])
        g, _ = l_shaped_map.gradient_many(pts[i:i + 1])
        assert np.allclose(m[0], means[i], rtol=1e-14, atol=0.0)
        assert np.allclose(v[0], variances[i], rtol=0.0, atol=1e-12 * sigma2)
        assert np.allclose(g[0], grads[i], rtol=0.0, atol=1e-12 * gscale)


def test_lattice_blocks_are_factored_only_into_their_slots():
    """A lattice block's factor lives in its slot of the map's stacks alone:
    after a query that reaches two blocks, then one that reaches every block,
    the stacks mark exactly the lattice blocks reached so far, and only the
    off-grid blocks reached cache a ``fit``."""
    field_map = make_l_shaped_map()
    blocks = list(field_map.blocks.values())
    lattice = np.array([block.grid is not None for block in blocks])
    pts = _l_shaped_queries(field_map, np.random.default_rng(20))
    ordinal = field_map._ordinals(pts)
    first = pts[np.isin(ordinal, [0, 3])]
    assert {lattice[0], lattice[3]} == {True, False}  # one block of each kind
    reached = np.zeros(len(blocks), bool)
    for query, part in ((field_map.query_many, first), (field_map.gradient_many, pts)):
        query(part)
        reached[field_map._ordinals(part)] = True
        assert np.array_equal(field_map._lattice.filled, lattice & reached)
        assert np.array_equal(["fit" in vars(block) for block in blocks], ~lattice & reached)
    assert reached.all()


def test_gemm_gradient_matches_einsum_form(l_shaped_map):
    rng = np.random.default_rng(12)
    small = _l_shaped_queries(l_shaped_map, rng)
    lo, hi, pad = l_shaped_map.grid_lo, l_shaped_map.grid_hi, l_shaped_map.overlap
    large = np.vstack([rng.uniform(lo, lo + [2.0, 2.0, 1.0], size=(4200, 3)),
                       rng.uniform(lo - pad, hi + pad, size=(800, 3))])
    for pts in (small, large):
        grads, _ = l_shaped_map.gradient_many(pts)
        groups = _reference_groups(l_shaped_map, pts)
        assert len(pts) < 4096 or max(rows.size for rows in groups.values()) > 4096
        for key, rows in groups.items():
            ref = _einsum_gradient(l_shaped_map, l_shaped_map.blocks[key], pts[rows])
            scale = np.abs(ref).max(axis=(1, 2))
            assert np.all(np.abs(grads[rows] - ref).max(axis=(1, 2)) <= 1e-10 * scale)


@pytest.mark.parametrize("spacing, length_scale", [(0.7, 0.8), (3.0, 2.25)])
def test_lattice_blocks_match_dense_reference(spacing, length_scale):
    """The default hall's surveys as the table1 sweep (0.7 m) and the
    ablation (3 m) build them: every block is a lattice block, and the
    largest ones and a corner one agree with a dense Cholesky reference."""
    world = WorldConfig()
    data = survey_dataset(world, survey_positions(world, spacing), noise_sigma=0.1, seed=3)
    hyper = GpHyperparams(length_scale=length_scale, noise_variance=0.001)
    field_map = build_map(data, hyper, block_size=8.0)
    blocks = sorted(field_map.blocks.values(), key=lambda b: b.n_train)
    assert all(block.grid is not None for block in blocks)
    rng = np.random.default_rng(15)
    for block in blocks[-2:] + [field_map.blocks[(0, 0, 0)]]:
        sub = rng.uniform(block.lo, block.hi, size=(96, 3))  # routed to this block
        sub[:, 2] = rng.uniform(0.15, 1.5, size=96)
        means, variances, _ = field_map.query_many(sub)
        grads, _ = field_map.gradient_many(sub)
        _assert_matches_dense_reference(field_map, block, sub, means, variances, grads)


@pytest.fixture(scope="module")
def survey_map():
    """The default hall's 0.7 m survey, mapped as the table1 sweep maps it:
    30 lattice blocks, the edge ones with 7 nodes along x or 4 along y."""
    world = WorldConfig()
    data = survey_dataset(world, survey_positions(world, 0.7), noise_sigma=0.03, seed=3)
    return build_map(data, GpHyperparams(length_scale=0.8, noise_variance=0.001),
                     block_size=8.0)


def _survey_queries(field_map, rng):
    """11 points in every block's cell (chunks of 4, 4 and 3 rows) and 20
    beyond each x-y corner of the grid in the overlap padding, at surveyed
    heights, shuffled so that blocks interleave."""
    pad = field_map.overlap
    pts = np.vstack([rng.uniform(b.lo, b.hi, size=(11, 3)) for b in field_map.blocks.values()]
                    + [rng.uniform(field_map.grid_lo - pad, field_map.grid_lo, size=(20, 3)),
                       rng.uniform(field_map.grid_hi, field_map.grid_hi + pad, size=(20, 3))])
    pts[:, 2] = rng.uniform(0.15, 1.5, size=len(pts))
    return pts[rng.permutation(len(pts))]


@pytest.mark.parametrize("name", ["survey_map", "l_shaped_map"])
def test_lattice_results_do_not_depend_on_the_rest_of_the_query(name, request):
    """Each point in a lattice block gets bit for bit the same mean, variance
    and gradient alone, with its block's points only, and inside one query
    over every block, and mean-only queries give the same means. The survey
    map's edge blocks have fewer nodes than the largest block (7 along x, 4
    along y); the L-shaped map routes points in empty cells to the nearest
    centre."""
    field_map = request.getfixturevalue(name)
    rng = np.random.default_rng(18)
    queries = _survey_queries if name == "survey_map" else _l_shaped_queries
    pts = queries(field_map, rng)
    keys = _reference_blocks(field_map, pts)
    lattice = [field_map.blocks[key].grid is not None for key in keys]
    pts = pts[lattice]
    keys = [key for key, keep in zip(keys, lattice) if keep]
    if name == "survey_map":
        counts = np.array([[len(c) for c in b.grid[0]] for b in field_map.blocks.values()])
        assert len(keys) == len(pts) == 30 * 11 + 40
        assert 7 in counts[:, 0] and counts[:, 0].max() > 7
        assert 4 in counts[:, 1] and counts[:, 1].max() > 4
    else:
        idx = np.clip(np.floor((pts - field_map.grid_lo) / field_map.block_size),
                      0, field_map.grid_shape - 1).astype(int)
        assert sum(tuple(i) not in field_map.blocks for i in idx.tolist()) >= 100

    means, variances, _ = field_map.query_many(pts)
    grads, _ = field_map.gradient_many(pts)
    for key in set(keys):
        rows = np.array([i for i, k in enumerate(keys) if k == key])
        m, v, _ = field_map.query_many(pts[rows])
        g, _ = field_map.gradient_many(pts[rows])
        assert np.array_equal(m, means[rows])
        assert np.array_equal(v, variances[rows])
        assert np.array_equal(g, grads[rows])
    for i in range(len(pts)):
        m, v, _ = field_map.query_many(pts[i:i + 1])
        g, _ = field_map.gradient_many(pts[i:i + 1])
        assert np.array_equal(m[0], means[i])
        assert np.array_equal(v[0], variances[i])
        assert np.array_equal(g[0], grads[i])


def test_large_query_keeps_temporaries_small(survey_map):
    """A 2,000-point query and gradient, about ten times the samples that
    one calibration step queries, allocate under 6 MiB at their peak: chunks
    go through the batched calls a bounded number at a time, so their copies
    of the block factors stay small whatever the query's size."""
    rng = np.random.default_rng(19)
    pts = rng.uniform(survey_map.grid_lo, survey_map.grid_hi, size=(2000, 3))
    pts[:, 2] = rng.uniform(0.15, 1.5, size=2000)
    survey_map.query_many(pts)  # factor every block before measuring
    tracemalloc.start()
    try:
        survey_map.query_many(pts)
        survey_map.gradient_many(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_off_grid_blocks_take_the_cholesky_path(jittered_map, l_shaped_map):
    """A survey with jittered rows has no product grid, nor has the corner
    block of the L-shaped map; both keep the Cholesky factor and agree with
    the dense reference."""
    rng = np.random.default_rng(17)
    for field_map, block in ((jittered_map, jittered_map.blocks[(0, 0, 0)]),
                             (l_shaped_map, l_shaped_map.blocks[(0, 0, 0)])):
        assert block.grid is None
        sub = rng.uniform(block.lo, np.minimum(block.hi, field_map.grid_hi), size=(50, 3))
        sub[:, 2] = block.train_pos[:, 2].mean()
        means, variances, _ = field_map.query_many(sub)
        grads, _ = field_map.gradient_many(sub)
        assert isinstance(vars(block).get("fit"), _CholeskyFit)
        _assert_matches_dense_reference(field_map, block, sub, means, variances, grads)


@pytest.mark.parametrize("nodes, noise_variance", [
    (np.array([0.0, 1e-12, 1.0]), 0.0),             # two nodes 1e-12 m apart
    (np.linspace(0.0, 2.0, 41), 0.0),               # 5 cm nodes, l = 1 m, no noise
])
def test_singular_lattice_block_raises_naming_the_block(nodes, noise_variance):
    data = lattice_dataset(lambda p: np.array([20.0 + p[0], 0.0, -40.0]),
                           nodes, [0.0, 0.5], [0.2])
    field_map = build_map(data, GpHyperparams(noise_variance=noise_variance),
                          block_size=4.0)
    assert list(field_map.blocks) == [(0, 0, 0)]
    t = np.array([[0.5, 0.25, 0.2]])
    for query in (field_map.query_many, field_map.gradient_many, field_map.query_many):
        with pytest.raises(MapError, match=r"map block \(0, 0, 0\): .*noise_variance"):
            query(t)


def _reference_product_grid(pos):
    """The grid test as two ``np.unique`` passes: per axis with the inverse
    codes, then over the flat cells."""
    nodes, codes = zip(*(np.unique(pos[:, axis], return_inverse=True) for axis in range(3)))
    shape = tuple(len(c) for c in nodes)
    if np.prod(shape) != len(pos):
        return None
    cell = np.ravel_multi_index(codes, shape)
    return (nodes, cell) if np.unique(cell).size == len(pos) else None


def _lattice_rows():
    x, y, z = np.meshgrid([0.0, 0.7, 1.4, 2.1], [-1.0, 0.5, 2.0], [0.3, 0.9], indexing="ij")
    return np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)


def _duplicated_row(pos):
    pos = pos.copy()
    pos[5] = pos[17]  # n rows over n cells, one cell twice and one empty
    return pos


@pytest.mark.parametrize("edit, is_grid", [
    (lambda pos: pos, True),
    (lambda pos: np.random.default_rng(3).permutation(pos), True),
    (_duplicated_row, False),
    (lambda pos: np.vstack([pos, pos[4]]), False),
    (lambda pos: np.delete(pos, 9, axis=0), False),
    (lambda pos: pos + np.random.default_rng(4).normal(0.0, 1e-3, pos.shape), False),
])
def test_product_grid_matches_reference(edit, is_grid):
    pos = edit(_lattice_rows())
    got, want = _product_grid(pos), _reference_product_grid(pos)
    assert (got is not None) == (want is not None) == is_grid
    if is_grid:
        assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
        assert np.array_equal(got[1], want[1])


def _reference_membership(positions, fields, block_size, overlap):
    """Block membership as one full-width mask per cell of the grid."""
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    shape = np.maximum(np.ceil((hi - lo) / block_size - 1e-12).astype(int), 1)
    blocks = {}
    for i in range(shape[0]):
        for j in range(shape[1]):
            for k in range(shape[2]):
                cell_lo = lo + np.array([i, j, k]) * block_size
                cell_hi = cell_lo + block_size
                mask = np.all((positions >= cell_lo - overlap - 1e-6)
                              & (positions <= cell_hi + overlap + 1e-6), axis=1)
                if np.any(mask):
                    blocks[(i, j, k)] = (cell_lo, cell_hi, positions[mask], fields[mask])
    return blocks


@pytest.mark.parametrize("block_size, overlap", [(2.0, 0.5), (0.7, 1.6), (3.0, 0.0)])
def test_block_membership_matches_reference(block_size, overlap):
    # every inflated cell bound of each axis, and the floats one ulp either side
    lo, hi = np.array([0.3, -1.1, 0.15]), np.array([5.3, 2.9, 1.35])
    shape = np.maximum(np.ceil((hi - lo) / block_size - 1e-12).astype(int), 1)
    axes = []
    for a in range(3):
        starts = lo[a] + np.arange(shape[a]) * block_size
        bounds = np.concatenate([starts - overlap - 1e-6,
                                 starts + block_size + overlap + 1e-6])
        values = np.concatenate([bounds, np.nextafter(bounds, -np.inf),
                                 np.nextafter(bounds, np.inf), [lo[a], hi[a]]])
        axes.append(values[(values >= lo[a]) & (values <= hi[a])])
    rng = np.random.default_rng(8)
    positions = np.vstack([lo, hi, np.stack([rng.choice(v, 600) for v in axes], axis=1)])
    data = identity_dataset(positions, rng.uniform(10.0, 50.0, positions.shape))
    field_map = build_map(data, GpHyperparams(length_scale=0.3, noise_variance=1e-3),
                          block_size=block_size, overlap=overlap)
    fields = np.einsum("nij,nj->ni", data.rotations(), data.readings())
    want = _reference_membership(positions, fields, block_size, overlap)
    assert list(field_map.blocks) == list(want)
    for key, block in field_map.blocks.items():
        got = (block.lo, block.hi, block.train_pos, block.train_field)
        assert all(np.array_equal(g, w) for g, w in zip(got, want[key]))


@pytest.mark.parametrize("block_size, overlap, match", [
    (0.0, None, "block_size must be finite and > 0, got 0.0"),
    (-1.0, None, "block_size must be finite and > 0, got -1.0"),
    (np.nan, None, "block_size must be finite and > 0, got nan"),
    (np.inf, None, "block_size must be finite and > 0, got inf"),
    (4.0, -1.0, "overlap must be finite and >= 0, got -1.0"),
    (4.0, np.nan, "overlap must be finite and >= 0, got nan"),
])
def test_build_map_rejects_bad_block_geometry(block_size, overlap, match):
    data = identity_dataset(np.zeros((1, 3)), [(15.0, -5.0, -40.0)])
    with pytest.raises(MapError, match=match):
        build_map(data, GpHyperparams(length_scale=1.0), block_size=block_size,
                  overlap=overlap)


# ---------------------------------------------------------------------------
# multilinear baseline


def _ramp(p):
    return np.array([20.0 + 2.0 * p[0] - p[1], 5.0 + 0.5 * p[2], -40.0 + p[0]])


def test_bilinear_exact_at_nodes():
    xs = np.linspace(0.0, 4.0, 5)
    zs = [0.5, 1.5]
    data = lattice_dataset(_ramp, xs, xs, zs)
    grid = BilinearMap(data)
    for pos, reading in zip(data.positions()[::7], data.readings()[::7]):
        out = grid.query_many(pos[None])[0][0]
        assert np.allclose(out, reading, atol=1e-12)


def test_bilinear_cell_center_is_average():
    vals = {(0.0, 0.0): 1.0, (1.0, 0.0): 2.0, (0.0, 1.0): 5.0, (1.0, 1.0): 10.0}

    def f(p):
        return np.array([vals[(p[0], p[1])], 30.0, -40.0])

    data = lattice_dataset(f, [0.0, 1.0], [0.0, 1.0], [0.5])
    out = BilinearMap(data).query_many(np.array([[0.5, 0.5, 0.5]]))[0][0]
    assert np.isclose(out[0], (1.0 + 2.0 + 5.0 + 10.0) / 4.0, atol=1e-12)


def test_bilinear_reproduces_linear_fields():
    xs = np.linspace(0.0, 3.0, 4)
    zs = np.linspace(0.2, 1.4, 3)
    data = lattice_dataset(_ramp, xs, xs, zs)
    grid = BilinearMap(data)
    rng = np.random.default_rng(8)
    for _ in range(30):
        t = rng.uniform([0.0, 0.0, 0.2], [3.0, 3.0, 1.4])
        assert np.allclose(grid.query_many(t[None])[0][0], _ramp(t), atol=1e-9)


def test_bilinear_rejects_irregular_grid():
    rng = np.random.default_rng(9)
    data = identity_dataset(rng.uniform(0.0, 4.0, size=(12, 3)),
                            np.tile([20.0, 0.0, -40.0], (12, 1)), "irr")
    with pytest.raises(MapError, match="lattice"):
        BilinearMap(data)


def test_bilinear_out_of_hull_raises():
    xs = np.linspace(0.0, 3.0, 4)
    data = lattice_dataset(_ramp, xs, xs, [0.5])
    grid = BilinearMap(data)
    with pytest.raises(OutOfMapError):
        grid.query_many(np.array([[5.0, 1.0, 0.5]]))
    with pytest.raises(OutOfMapError):
        grid.gradient_many(np.array([[1.0, 1.0, 0.5], [5.0, 1.0, 0.5]]))


def test_bilinear_gradient_near_linear_field():
    xs = np.linspace(0.0, 3.0, 4)
    zs = np.linspace(0.2, 1.4, 3)
    data = lattice_dataset(_ramp, xs, xs, zs)
    grid = BilinearMap(data)
    g = grid.gradient_many(np.array([[1.3, 2.1, 0.9]]))[0][0]
    expected = np.array([[2.0, -1.0, 0.0], [0.0, 0.0, 0.5], [1.0, 0.0, 0.0]])
    assert np.allclose(g, expected, atol=1e-6)


@pytest.mark.parametrize("zs", [np.linspace(0.2, 1.4, 4), [0.5]])
def test_bilinear_matches_scipy_grid_interpolator(zs):
    """The numpy corner sum gives scipy's linear grid interpolation bit for
    bit, at interior points, on faces and at the lattice corners."""
    from scipy.interpolate import RegularGridInterpolator
    xs = np.linspace(0.0, 3.0, 5)
    ys = np.array([-1.0, -0.3, 0.4, 2.0])
    data = lattice_dataset(_wavy, xs, ys, zs)
    grid = BilinearMap(data)
    axes = [a for a in (xs, ys, np.asarray(zs, float)) if len(a) > 1]
    values = data.readings().reshape(*(len(a) for a in axes), 3)  # identity rotations
    reference = RegularGridInterpolator(axes, values)
    rng = np.random.default_rng(32)
    pts = rng.uniform(grid.lo, grid.hi, size=(200, len(grid.active)))
    pts[:20, 0] = grid.lo[0]
    pts[20:40, 1] = grid.hi[1]
    pts = np.vstack([pts, grid.lo, grid.hi])
    assert np.array_equal(grid._eval(pts), reference(pts))


def _per_axis_gradient(grid, ts):
    """The bilinear gradient one active axis at a time, two interpolator
    calls per axis: the reference for the batched ``gradient_many``."""
    sub = np.asarray(ts, float)[:, grid.active]
    g = np.zeros((sub.shape[0], 3, 3))
    for col, axis in enumerate(grid.active):
        step = np.zeros(len(grid.active))
        step[col] = _FD_STEP
        hi_pts = np.minimum(sub + step, grid.hi)
        lo_pts = np.maximum(sub - step, grid.lo)
        denom = hi_pts[:, col] - lo_pts[:, col]
        denom[denom == 0] = np.inf
        g[:, :, axis] = (grid._eval(hi_pts) - grid._eval(lo_pts)) / denom[:, None]
    return g


def _wavy(p):
    return np.array([20.0 + np.sin(1.3 * p[0]) * np.cos(0.7 * p[1]) + p[2] ** 2,
                     5.0 + np.cos(0.9 * p[0] + 0.4 * p[2]), -40.0 + p[0] * p[1]])


@pytest.mark.parametrize("zs", [np.linspace(0.2, 1.4, 4), [0.5]])
def test_bilinear_gradient_matches_per_axis_reference(zs):
    xs = np.linspace(0.0, 3.0, 5)
    ys = np.linspace(-1.0, 2.0, 7)
    grid = BilinearMap(lattice_dataset(_wavy, xs, ys, zs))
    lo = np.array([xs[0], ys[0], zs[0]])
    hi = np.array([xs[-1], ys[-1], zs[-1]])
    rng = np.random.default_rng(31)
    interior = rng.uniform(lo, hi, size=(40, 3))
    faces = rng.uniform(lo, hi, size=(30, 3))
    axis = rng.integers(0, 3, 30)
    faces[np.arange(30), axis] = np.where(rng.random(30) < 0.5, lo[axis], hi[axis])
    # within one step of a face, so that step is clipped
    near = rng.uniform(lo, hi, size=(30, 3))
    near[:, 0] = np.where(rng.random(30) < 0.5, lo[0] + 0.3 * _FD_STEP,
                          hi[0] - 0.7 * _FD_STEP)
    nodes = lattice_dataset(_wavy, xs, ys, zs).positions()[::3]
    corners = np.array([lo, hi, [lo[0], hi[1], lo[2]], [hi[0], lo[1], hi[2]]])
    pts = np.vstack([interior, faces, near, nodes, corners])
    grads, inside = grid.gradient_many(pts)
    assert inside.all()
    assert len(grid.active) == (3 if len(zs) > 1 else 2)
    assert np.array_equal(grads, _per_axis_gradient(grid, pts))
    for i in range(0, pts.shape[0], 17):  # alone, as in one LM sample
        assert np.array_equal(grid.gradient_many(pts[i:i + 1])[0],
                              _per_axis_gradient(grid, pts[i:i + 1]))
