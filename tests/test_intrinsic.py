import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magcalib import intrinsic
from magcalib.intrinsic import (
    DEFAULT_LAMBDA_GRID,
    AffineDistortion,
    RegressionError,
    RegressionProblem,
    compensate,
    select_lambda,
    solve_ols,
    solve_rrtls,
    solve_tls,
    solve_wrrtls,
    tsvd_reconstruct,
    weights_from_variance,
)


def _rich_excitation(rng, n, spread=12.0):
    """Readings spanning all three axes around an Earth-like mean."""
    return np.array([30.0, 5.0, -38.0]) + rng.uniform(-spread, spread, size=(n, 3))


def _random_affine(rng):
    gain = np.eye(3) + rng.uniform(-0.2, 0.2, size=(3, 3))
    bias = rng.uniform(-5.0, 5.0, size=3)
    return AffineDistortion(gain, bias)


def _planar_excitation(rng, n, thickness=1e-3):
    """Trajectory confined to a plane in reading space: pathological design."""
    u = rng.uniform(-10.0, 10.0, size=n)
    v = rng.uniform(-10.0, 10.0, size=n)
    d1 = np.array([1.0, 0.4, 0.1])
    d2 = np.array([-0.2, 1.0, 0.3])
    base = np.array([30.0, 5.0, -38.0])
    normal = np.cross(d1, d2)
    normal /= np.linalg.norm(normal)
    wiggle = rng.normal(0.0, thickness, size=n)
    return base + np.outer(u, d1) + np.outer(v, d2) + np.outer(wiggle, normal)


# ---------------------------------------------------------------------------
# ordinary least squares


def test_ols_identity_recovery():
    rng = np.random.default_rng(0)
    x = _rich_excitation(rng, 40)
    prob = RegressionProblem.from_pairs(x, x)
    dist = solve_ols(prob)
    assert np.allclose(dist.gain, np.eye(3), atol=1e-9)
    assert np.allclose(dist.bias, np.zeros(3), atol=1e-9)


def test_ols_exact_recovery_noise_free():
    rng = np.random.default_rng(1)
    truth = _random_affine(rng)
    x = _rich_excitation(rng, 50)
    prob = RegressionProblem.from_pairs(x, truth.apply_many(x))
    dist = solve_ols(prob)
    assert np.allclose(dist.gain, truth.gain, atol=1e-8)
    assert np.allclose(dist.bias, truth.bias, atol=1e-8)


def test_ols_noise_scaled_error_bound():
    # Monte-Carlo: measured gain error tracks the analytic OLS covariance
    rng = np.random.default_rng(2)
    sigma = 0.3
    errors = []
    bounds = []
    for _ in range(50):
        truth = _random_affine(rng)
        x = _rich_excitation(rng, 1000)
        design = np.hstack([x, np.ones((1000, 1))])
        y = truth.apply_many(x) + rng.normal(0.0, sigma, size=(1000, 3))
        dist = solve_ols(RegressionProblem.from_pairs(x, y))
        errors.append(np.linalg.norm(dist.gain - truth.gain))
        cov = np.linalg.inv(design.T @ design)
        bounds.append(np.sqrt(3.0 * sigma**2 * np.trace(cov[:3, :3])))
    mean_err = np.mean(errors)
    mean_bound = np.mean(bounds)
    assert 0.5 * mean_bound <= mean_err <= 1.5 * mean_bound


def test_ols_rank_deficient_raises_with_condition():
    rng = np.random.default_rng(3)
    x = np.tile(np.array([30.0, 5.0, -38.0]), (10, 1))
    with pytest.raises(RegressionError, match="rank deficient"):
        solve_ols(RegressionProblem.from_pairs(x, x))


# ---------------------------------------------------------------------------
# total least squares


def test_tls_matches_ols_on_consistent_data():
    rng = np.random.default_rng(4)
    truth = _random_affine(rng)
    x = _rich_excitation(rng, 60)
    prob = RegressionProblem.from_pairs(x, truth.apply_many(x))
    a = solve_tls(prob)
    b = solve_ols(prob)
    assert np.allclose(a.gain, b.gain, atol=1e-8)
    assert np.allclose(a.bias, b.bias, atol=1e-8)


def test_tls_beats_ols_under_errors_in_variables():
    rng = np.random.default_rng(5)
    sigma = 2.0
    tls_err = []
    ols_err = []
    for _ in range(50):
        truth = _random_affine(rng)
        x_true = _rich_excitation(rng, 300, spread=10.0)
        x_obs = x_true + rng.normal(0.0, sigma, size=x_true.shape)
        y_obs = truth.apply_many(x_true) + rng.normal(0.0, sigma, size=x_true.shape)
        prob = RegressionProblem.from_pairs(x_obs, y_obs)
        tls_err.append(np.linalg.norm(solve_tls(prob).gain - truth.gain))
        ols_err.append(np.linalg.norm(solve_ols(prob).gain - truth.gain))
    assert np.mean(tls_err) < np.mean(ols_err)


def test_tsvd_reconstruction_rank():
    rng = np.random.default_rng(6)
    matrix = rng.normal(size=(40, 7))
    for rank in (2, 4, 6):
        recon = tsvd_reconstruct(matrix, rank)
        sv = np.linalg.svd(recon, compute_uv=False)
        assert np.sum(sv > sv[0] * 1e-12) == rank


def test_tls_requires_enough_samples():
    rng = np.random.default_rng(7)
    x = _rich_excitation(rng, 6)
    with pytest.raises(RegressionError, match="at least 7"):
        solve_tls(RegressionProblem.from_pairs(x, x))


# ---------------------------------------------------------------------------
# weighted ridge-regularized total least squares


def test_wrrtls_degenerates_to_ols():
    rng = np.random.default_rng(8)
    truth = _random_affine(rng)
    x = _rich_excitation(rng, 40)
    prob = RegressionProblem.from_pairs(x, truth.apply_many(x), ridge=0.0,
                                        tsvd_rank=7)
    a = solve_wrrtls(prob)
    b = solve_ols(prob)
    assert np.allclose(a.gain, b.gain, atol=1e-8)
    assert np.allclose(a.bias, b.bias, atol=1e-8)


def _augmented_lstsq_oracle(prob):
    """Independent route: ridge regression via an augmented lstsq system."""
    recon = tsvd_reconstruct(np.hstack([prob.observed, prob.design]),
                             prob.tsvd_rank)
    obs_bar = recon[:, :3]
    design_bar = recon[:, 3:].copy()
    design_bar[:, 3] = 1.0
    w = prob.weights[:, None]
    top = design_bar * w
    bottom = np.sqrt(prob.ridge) * np.eye(4)
    lhs = np.vstack([top, bottom])
    rhs = np.vstack([obs_bar * w, np.zeros((4, 3))])
    coeffs, _, _, _ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return coeffs.T


def test_wrrtls_closed_form_matches_generic_solver():
    rng = np.random.default_rng(9)
    for _ in range(10):
        truth = _random_affine(rng)
        x = _rich_excitation(rng, 60)
        y = truth.apply_many(x) + rng.normal(0.0, 0.5, size=x.shape)
        weights = rng.uniform(0.2, 5.0, size=60)
        prob = RegressionProblem.from_pairs(x, y, weights, ridge=0.37,
                                            tsvd_rank=4)
        closed = solve_wrrtls(prob)
        a_closed = np.hstack([closed.gain, closed.bias[:, None]])
        a_oracle = _augmented_lstsq_oracle(prob)
        assert np.max(np.abs(a_closed - a_oracle)) <= 1e-8


def test_wrrtls_singular_normal_matrix_suggests_ridge():
    rng = np.random.default_rng(10)
    x = np.tile(np.array([30.0, 5.0, -38.0]), (12, 1))
    x += rng.normal(0.0, 1e-12, size=x.shape)
    prob = RegressionProblem.from_pairs(x, x, ridge=0.0, tsvd_rank=4)
    with pytest.raises(RegressionError, match="ridge"):
        solve_wrrtls(prob)


def test_pathological_ordering_weighted_beats_unweighted_beats_ols():
    # plane-confined trajectory with strongly heteroscedastic design noise;
    # weights matched to the per-sample noise level
    rng = np.random.default_rng(11)
    bias_err = {"wrrtls": [], "rrtls": [], "ols": []}
    for _ in range(50):
        truth = _random_affine(rng)
        x_true = _planar_excitation(rng, 200)
        sig = np.where(rng.uniform(size=200) < 0.4, 2.5, 0.05)
        x_obs = x_true + rng.normal(size=x_true.shape) * sig[:, None]
        y_obs = truth.apply_many(x_true) + rng.normal(0.0, 0.05, size=x_true.shape)
        weights = 1.0 / (3.0 * sig**2)
        lam = 1e-2
        cond = np.linalg.cond(np.hstack([x_true, np.ones((200, 1))]))
        assert cond > 1e4  # the underlying trajectory is pathological
        prob_w = RegressionProblem.from_pairs(x_obs, y_obs, weights, lam, 4)
        prob_u = RegressionProblem.from_pairs(x_obs, y_obs, None, lam, 4)
        bias_err["wrrtls"].append(
            np.linalg.norm(solve_wrrtls(prob_w).bias - truth.bias))
        bias_err["rrtls"].append(
            np.linalg.norm(solve_rrtls(prob_u).bias - truth.bias))
        bias_err["ols"].append(
            np.linalg.norm(solve_ols(prob_u).bias - truth.bias))
    assert np.mean(bias_err["wrrtls"]) <= np.mean(bias_err["rrtls"])
    assert np.mean(bias_err["rrtls"]) <= np.mean(bias_err["ols"])


def test_solver_invariant_to_row_permutation():
    rng = np.random.default_rng(12)
    truth = _random_affine(rng)
    x = _rich_excitation(rng, 50)
    y = truth.apply_many(x) + rng.normal(0.0, 0.3, size=x.shape)
    w = rng.uniform(0.5, 2.0, size=50)
    perm = rng.permutation(50)
    for solver in (solve_ols, solve_tls, solve_wrrtls):
        a = solver(RegressionProblem.from_pairs(x, y, w, 0.1, 4))
        b = solver(RegressionProblem.from_pairs(x[perm], y[perm], w[perm], 0.1, 4))
        assert np.max(np.abs(a.gain - b.gain)) <= 1e-10
        assert np.max(np.abs(a.bias - b.bias)) <= 1e-10


def test_weight_scaling_invariance():
    rng = np.random.default_rng(13)
    truth = _random_affine(rng)
    x = _rich_excitation(rng, 40)
    y = truth.apply_many(x) + rng.normal(0.0, 0.3, size=x.shape)
    w = rng.uniform(0.5, 2.0, size=40)
    c = 7.3
    # ridge = 0: unconditional invariance
    a = solve_wrrtls(RegressionProblem.from_pairs(x, y, w, 0.0, 4))
    b = solve_wrrtls(RegressionProblem.from_pairs(x, y, c * w, 0.0, 4))
    assert np.max(np.abs(a.gain - b.gain)) <= 1e-10
    # ridge > 0: invariance once the ridge is rescaled by c^2
    lam = 0.05
    a = solve_wrrtls(RegressionProblem.from_pairs(x, y, w, lam, 4))
    b = solve_wrrtls(RegressionProblem.from_pairs(x, y, c * w, lam * c**2, 4))
    assert np.max(np.abs(a.gain - b.gain)) <= 1e-10
    assert np.max(np.abs(a.bias - b.bias)) <= 1e-10


def test_solution_continuous_in_ridge():
    rng = np.random.default_rng(14)
    truth = _random_affine(rng)
    x = _planar_excitation(rng, 100)
    y = truth.apply_many(x) + rng.normal(0.0, 0.5, size=x.shape)
    lam = 0.1
    a = solve_wrrtls(RegressionProblem.from_pairs(x, y, None, lam, 4))
    b = solve_wrrtls(RegressionProblem.from_pairs(x, y, None, lam * (1 + 1e-8), 4))
    diff = np.linalg.norm(np.hstack([a.gain - b.gain, (a.bias - b.bias)[:, None]]))
    assert diff <= 1e-6


def test_solution_norm_vanishes_for_large_ridge():
    rng = np.random.default_rng(15)
    truth = _random_affine(rng)
    x = _rich_excitation(rng, 60)
    y = truth.apply_many(x) + rng.normal(0.0, 0.3, size=x.shape)
    norms = []
    for lam in np.logspace(2, 7, 6):
        d = solve_wrrtls(RegressionProblem.from_pairs(x, y, None, lam, 4))
        norms.append(np.linalg.norm(np.hstack([d.gain, d.bias[:, None]])))
    assert all(n2 < n1 for n1, n2 in zip(norms, norms[1:]))
    assert norms[-1] < 0.1


# ---------------------------------------------------------------------------
# ridge factor selection


def test_select_lambda_single_element_grid():
    rng = np.random.default_rng(16)
    x = _rich_excitation(rng, 30)
    prob = RegressionProblem.from_pairs(x, x)
    assert select_lambda(prob, np.array([0.123])) == 0.123


def test_select_lambda_well_conditioned_picks_smallest_decade():
    rng = np.random.default_rng(17)
    truth = _random_affine(rng)
    x = _rich_excitation(rng, 200)
    y = truth.apply_many(x) + rng.normal(0.0, 0.1, size=x.shape)
    prob = RegressionProblem.from_pairs(x, y)
    lam = select_lambda(prob)
    assert lam <= 1e-7  # grid spans 1e-8..1e2


def test_select_lambda_tracks_oracle_on_ill_conditioned_problems():
    # "best" lambda for a problem instance = the grid value minimizing the
    # expected true-parameter error (averaged over fresh noise draws); the
    # corner should land within one step of it on a decade-scale grid, which
    # matches the L-curve criterion's known resolution.
    rng = np.random.default_rng(18)
    grid = np.logspace(-8.0, 2.0, 10)
    log_step = np.log10(grid[1]) - np.log10(grid[0])
    hits = 0
    for _ in range(50):
        truth = _random_affine(rng)
        x_true = _planar_excitation(rng, 400)
        truth_mat = np.hstack([truth.gain, truth.bias[:, None]])

        def draw():
            x_obs = x_true + rng.normal(0.0, 1.0, size=x_true.shape)
            y_obs = truth.apply_many(x_true) + rng.normal(0.0, 1.0,
                                                          size=x_true.shape)
            return RegressionProblem.from_pairs(x_obs, y_obs)

        prob = draw()
        expected_err = np.zeros(grid.size)
        for _ in range(9):
            sample = draw()
            for i, lam in enumerate(grid):
                d = solve_wrrtls(sample.with_ridge(lam))
                expected_err[i] += np.linalg.norm(
                    np.hstack([d.gain, d.bias[:, None]]) - truth_mat)
        oracle = grid[int(np.argmin(expected_err))]
        chosen = select_lambda(prob, grid)
        if abs(np.log10(chosen) - np.log10(oracle)) <= log_step + 1e-9:
            hits += 1
    assert hits >= 35  # 70% of 50


def _reference_lcurve(prob, ridges):
    """The L-curve traced ridge by ridge: one full solve and one truncation each."""
    rho, eta = [], []
    for lam in ridges:
        dist = intrinsic.solve_wrrtls(prob.with_ridge(lam))
        obs_bar, design_bar = intrinsic._truncated_parts(prob)
        a = np.hstack([dist.gain, dist.bias[:, None]])
        rho.append(np.linalg.norm((design_bar @ a.T - obs_bar) * prob.weights[:, None]))
        eta.append(np.linalg.norm(a))
    return np.array(rho), np.array(eta)


def _lcurve_problems():
    """(problem, grid) pairs: unit weights, variance weights, planar designs."""
    rng = np.random.default_rng(19)
    truth = _random_affine(rng)
    x = _rich_excitation(rng, 80)
    y = truth.apply_many(x) + rng.normal(0.0, 0.3, size=x.shape)
    cases = [(RegressionProblem.from_pairs(x, y), DEFAULT_LAMBDA_GRID)]
    variances = rng.uniform(0.01, 2.0, size=(80, 3))
    y_het = truth.apply_many(x) + rng.normal(size=x.shape) * np.sqrt(variances)
    weights = weights_from_variance(variances, measurement_noise=0.1)
    cases.append((RegressionProblem.from_pairs(x, y_het, weights), DEFAULT_LAMBDA_GRID))
    # the regime of test_select_lambda_tracks_oracle_on_ill_conditioned_problems
    for _ in range(5):
        truth = _random_affine(rng)
        x_true = _planar_excitation(rng, 400)
        x_obs = x_true + rng.normal(0.0, 1.0, size=x_true.shape)
        y_obs = truth.apply_many(x_true) + rng.normal(0.0, 1.0, size=x_true.shape)
        cases.append((RegressionProblem.from_pairs(x_obs, y_obs),
                      np.logspace(-8.0, 2.0, 10)))
    return cases


def test_lcurve_matches_per_ridge_solves(monkeypatch):
    cases = _lcurve_problems()
    picks = []
    for prob, grid in cases:
        dense = np.logspace(np.log10(grid[0]), np.log10(grid[-1]), 160)
        rho, eta = intrinsic._lcurve(prob, dense)
        ref_rho, ref_eta = _reference_lcurve(prob, dense)
        np.testing.assert_allclose(rho, ref_rho, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(eta, ref_eta, rtol=1e-12, atol=0.0)
        picks.append(select_lambda(prob, grid))
    monkeypatch.setattr(intrinsic, "_lcurve", _reference_lcurve)
    assert picks == [select_lambda(prob, grid) for prob, grid in cases]


def test_select_lambda_singular_at_small_ridges_raises_like_solver():
    # the problem of test_wrrtls_singular_normal_matrix_suggests_ridge: the
    # normal matrix is singular until the ridge lifts it
    rng = np.random.default_rng(10)
    x = np.tile(np.array([30.0, 5.0, -38.0]), (12, 1))
    x += rng.normal(0.0, 1e-12, size=x.shape)
    prob = RegressionProblem.from_pairs(x, x)
    grid = np.logspace(-12.0, 2.0, 8)
    with pytest.raises(RegressionError, match="ridge") as solver_err:
        solve_wrrtls(prob.with_ridge(grid[0]))
    with pytest.raises(RegressionError) as err:
        select_lambda(prob, grid)
    assert str(err.value) == str(solver_err.value)


def test_select_lambda_singular_gain_raises():
    rng = np.random.default_rng(20)
    x = _rich_excitation(rng, 40)
    prob = RegressionProblem.from_pairs(x, 1e-3 * x)  # |det(gain)| = 1e-9
    with pytest.raises(RegressionError, match="gain matrix is numerically singular"):
        select_lambda(prob)


def _dense(grid):
    """The internal sweep ``select_lambda`` traces for a sorted grid."""
    return np.logspace(np.log10(grid[0]), np.log10(grid[-1]), 160)


def _select_outcome(monkeypatch, prob, grid, lcurve):
    """``("picked", ridge)``, or ``("raised", ridge, message)`` with the
    ridge of the ``solve_wrrtls`` call the error came from, of
    ``select_lambda`` with ``intrinsic._lcurve`` set to ``lcurve``."""
    ridges = []

    def recording(p):
        ridges.append(p.ridge)
        return solve_wrrtls(p)

    with monkeypatch.context() as m:
        m.setattr(intrinsic, "_lcurve", lcurve)
        m.setattr(intrinsic, "solve_wrrtls", recording)
        try:
            return ("picked", select_lambda(prob, grid))
        except RegressionError as err:
            return ("raised", ridges[-1], str(err))


def _near_singular_problem(seed):
    """Noise-free readings on a plane 2 um thick: the weighted normal matrix
    is near-singular at small ridges, the gain is not."""
    rng = np.random.default_rng(seed)
    truth = _random_affine(rng)
    x = _planar_excitation(rng, 400, thickness=2e-6)
    return RegressionProblem.from_pairs(x, truth.apply_many(x))


def _grids_straddling_max_cond(prob):
    """Two grids whose first dense ridge gives a normal-matrix condition
    number just above and just below ``_MAX_NORMAL_COND``, by bisection on
    the grid's smallest value."""
    xw, _ = intrinsic._weighted_parts(prob)
    gram = xw.T @ xw

    def grid(log_first):
        return np.array([10.0 ** log_first, 1e-4, 1e2])

    def first_cond(log_first):
        return np.linalg.cond(gram + _dense(grid(log_first))[0] * np.eye(4))

    above, below = -14.0, -5.0
    assert first_cond(above) > intrinsic._MAX_NORMAL_COND >= first_cond(below)
    for _ in range(60):
        mid = 0.5 * (above + below)
        if first_cond(mid) > intrinsic._MAX_NORMAL_COND:
            above = mid
        else:
            below = mid
    assert first_cond(above) < 1.001 * intrinsic._MAX_NORMAL_COND
    assert first_cond(below) > 0.999 * intrinsic._MAX_NORMAL_COND
    return grid(above), grid(below)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_select_lambda_near_singular_normal_matrix_fails_like_per_ridge_solves(
        monkeypatch, seed):
    # only the smallest ridge's condition number is taken: at the threshold
    # it must decide exactly as solving every ridge in turn does
    prob = _near_singular_problem(seed)
    above, below = _grids_straddling_max_cond(prob)
    outcomes = [_select_outcome(monkeypatch, prob, grid, intrinsic._lcurve)
                for grid in (above, below)]
    assert outcomes == [_select_outcome(monkeypatch, prob, grid, _reference_lcurve)
                        for grid in (above, below)]
    raised, picked = outcomes
    assert raised[:2] == ("raised", _dense(above)[0])
    assert "normal matrix is numerically singular" in raised[2]
    assert picked[0] == "picked"


def test_select_lambda_gain_singular_from_a_middle_ridge_raises_there(monkeypatch):
    # |det(gain)| = 1.16e-9 at small ridges; the ridge shrinks the gain
    # until its determinant falls below 1e-9 inside the sweep
    rng = np.random.default_rng(20)
    x = _rich_excitation(rng, 40)
    prob = RegressionProblem.from_pairs(x, 1.05e-3 * x)
    grid = np.logspace(-8.0, 4.0, 7)
    outcome = _select_outcome(monkeypatch, prob, grid, intrinsic._lcurve)
    assert outcome == _select_outcome(monkeypatch, prob, grid, _reference_lcurve)
    assert outcome[0] == "raised" and "gain matrix is numerically singular" in outcome[2]
    assert _dense(grid)[0] < outcome[1] < _dense(grid)[-1]


@pytest.mark.parametrize("grid, problem", [
    ([0.0, 1.0, 10.0], "> 0"),
    ([-1.0, 1.0, 10.0], ">= 0"),
    ([-1.0], ">= 0"),
    ([np.nan], "finite"),
    ([np.nan, 1.0, 10.0], "finite"),
    ([np.inf, 1.0, 2.0], "finite"),
    ([], "empty"),
])
def test_select_lambda_rejects_bad_grid(grid, problem):
    rng = np.random.default_rng(21)
    x = _rich_excitation(rng, 30)
    prob = RegressionProblem.from_pairs(x, x)
    with pytest.raises(RegressionError, match=f"lambda grid .*{problem}"):
        select_lambda(prob, np.array(grid, float))


def test_select_lambda_short_grid_may_hold_zero():
    # a zero ridge is valid; only the log-spaced sweep of 3+ values needs > 0
    rng = np.random.default_rng(21)
    x = _rich_excitation(rng, 30)
    prob = RegressionProblem.from_pairs(x, x)
    assert select_lambda(prob, np.array([0.0])) == 0.0
    with pytest.warns(RuntimeWarning, match="too short"):
        assert select_lambda(prob, np.array([1.0, 0.0])) == 0.0


def _well_posed_problem():
    rng = np.random.default_rng(22)
    x = _rich_excitation(rng, 60)
    y = _random_affine(rng).apply_many(x) + rng.normal(0.0, 0.3, size=x.shape)
    return RegressionProblem.from_pairs(x, y)


_WELL_POSED = _well_posed_problem()


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.one_of(st.sampled_from(list(DEFAULT_LAMBDA_GRID)),
                          st.floats(min_value=1e-8, max_value=1e2)),
                min_size=1, max_size=20))
def test_select_lambda_returns_a_grid_member(grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a fallback may warn
        chosen = select_lambda(_WELL_POSED, np.array(grid))
    assert chosen in grid


# ---------------------------------------------------------------------------
# compensation


def test_compensate_identity():
    d = AffineDistortion.identity()
    b = np.array([30.0, 0.0, -40.0])
    assert np.allclose(compensate(d, b), b)


def test_compensate_round_trip():
    rng = np.random.default_rng(19)
    for _ in range(20):
        d = _random_affine(rng)
        b = rng.uniform(-60.0, 60.0, size=3)
        assert np.allclose(compensate(d, d.apply(b)), b, atol=1e-10)


def test_compensate_pure_bias():
    d = AffineDistortion(np.eye(3), np.array([5.0, -3.0, 1.0]))
    out = compensate(d, np.array([30.0, 0.0, -40.0]))
    assert np.allclose(out, [25.0, 3.0, -41.0], atol=1e-12)


def test_distortion_requires_invertible_gain():
    with pytest.raises(RegressionError):
        AffineDistortion(np.zeros((3, 3)), np.zeros(3))


def test_weights_from_variance_floor_and_noise():
    var = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    w = weights_from_variance(var)
    assert np.isclose(w[0], 1.0 / 3.0)
    assert np.isclose(w[1], 1e6)  # floored
    w_noisy = weights_from_variance(var, measurement_noise=0.5)
    assert np.isclose(w_noisy[0], 1.0 / 3.75)
    assert np.isclose(w_noisy[1], 1.0 / 0.75)


def test_problem_validation():
    rng = np.random.default_rng(21)
    x = _rich_excitation(rng, 4)
    with pytest.raises(RegressionError, match="at least 5"):
        RegressionProblem.from_pairs(x, x)
    x = _rich_excitation(rng, 10)
    with pytest.raises(RegressionError, match="weights"):
        RegressionProblem.from_pairs(x, x, weights=np.zeros(10))
    with pytest.raises(RegressionError, match="tsvd_rank"):
        RegressionProblem.from_pairs(x, x, tsvd_rank=9)
