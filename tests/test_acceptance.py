"""Acceptance battery: quantitative exit criteria for the whole toolkit.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to watch).
The experiment sweeps share one session-scoped world and reference map so
the full battery stays well inside its runtime budget.
"""

import time

import numpy as np
import pytest

from magcalib.extrinsic import CalibrationConfig, CalibrationInput, calibrate
from magcalib.geometry import Dataset
from magcalib.intrinsic import (
    AffineDistortion,
    RegressionProblem,
    compensate,
    solve_ols,
    solve_wrrtls,
    tsvd_reconstruct,
    weights_from_variance,
)
from magcalib.magmap import GpHyperparams, build_map
from magcalib.simulator import (
    field_at_many,
    random_distortion,
    survey_dataset,
    survey_positions,
)
from magcalib.sweeps import (
    SweepSpec,
    default_path_specs,
    run_ablation,
    run_success_sweep,
    run_table1_sweep,
    run_two_map_workflow,
)


def _report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def _all_trials_scored(agg, n_trials=50):
    """Every path's every trial entered every mean: an error row that drops
    out of a mean must fail the criterion, not flatter it."""
    metrics = ("translation_sq_m2", "gain_frobenius", "bias_sq_ut2")
    return all(cell["n_trials"] == n_trials
               and all(cell[m]["n_scored"] == n_trials for m in metrics)
               for cell in agg.values())


@pytest.fixture(scope="module")
def table1_report():
    spec = SweepSpec(noise_levels=(0.1,), n_distortions=10, n_initial_offsets=5,
                     offset_range=1.0, seed=20)
    start = time.time()
    report = run_table1_sweep(spec)
    report["elapsed_s"] = time.time() - start
    return report


def test_criterion_1_table1_accuracy(table1_report):
    """50 trials per path at sigma=0.1: parameter errors within budget."""
    agg = table1_report["aggregates"]
    mean_et = [agg[k]["translation_sq_m2"]["mean"] for k in agg]
    mean_ec = [agg[k]["gain_frobenius"]["mean"] for k in agg]
    mean_eh = [agg[k]["bias_sq_ut2"]["mean"] for k in agg]
    elapsed = table1_report["elapsed_s"]
    scored = _all_trials_scored(agg)
    detail = (f"mean e_t={max(mean_et):.5f} m^2 (<=0.01), "
              f"e_C={max(mean_ec):.4f} (<=0.02), "
              f"e_H={max(mean_eh):.4f} uT^2 (<=0.3), "
              f"runtime {elapsed:.0f}s (<=600), all 50 trials scored: {scored}")
    ok = (max(mean_et) <= 0.01 and max(mean_ec) <= 0.02
          and max(mean_eh) <= 0.3 and elapsed <= 600 and scored)
    _report("1 (parameter accuracy)", ok, detail)


def test_criterion_2_path_independence(table1_report):
    """Mean translation error varies by less than 10x across path families."""
    agg = table1_report["aggregates"]
    means = [agg[k]["translation_sq_m2"]["mean"] for k in agg]
    ratio = max(means) / max(min(means), 1e-300)
    scored = _all_trials_scored(agg)
    _report("2 (path independence)", ratio < 10.0 and scored,
            f"mean e_t spread across 5 paths: {min(means):.6f}..{max(means):.6f} "
            f"(ratio {ratio:.1f} < 10), all 50 trials scored: {scored}")


def test_criterion_3_success_rate_curve():
    """Near offsets almost always land within 2 cm; far offsets degrade."""
    spec = SweepSpec(noise_levels=(0.1,), n_distortions=8, n_initial_offsets=5,
                     seed=21)
    report = run_success_sweep(spec, bin_edges=(0.0, 0.75, 1.5, 2.5, 3.0))
    agg = report["aggregates"]
    near_small = (agg["0.0-0.75"]["small_rate"] + agg["0.75-1.5"]["small_rate"]) / 2
    near_fail = max(agg["0.0-0.75"]["failure_rate"], agg["0.75-1.5"]["failure_rate"])
    far_fail = agg["2.5-3.0"]["failure_rate"]
    ok = near_small >= 0.9 and far_fail > near_fail
    _report("3 (success-rate curve)", ok,
            f"small-rate (<=1.5m)={near_small:.2f} (>=0.9), "
            f"failure-rate 2.5-3m={far_fail:.2f} > {near_fail:.2f} (<=1.5m)")


def test_criterion_4_ablation_ordering():
    """At sparse fingerprints, sigma=0.5: w-RRTLS <= RRTLS <= OLS and the GP
    map beats multilinear interpolation by at least 0.2 uT in bias error."""
    spec = SweepSpec(noise_levels=(0.5,), n_distortions=10, n_initial_offsets=2,
                     offset_range=0.5, seed=22)
    report = run_ablation(spec, densities=(1.0, 1.8, 3.0))
    agg = report["aggregates"]

    def mean_bias(interp, solver, spacing=3.0):
        return agg[f"spacing={spacing}/{interp}/{solver}"]["bias_norm_ut"]["mean"]

    w, r, o = (mean_bias("sgpr", s) for s in ("wrrtls", "rrtls", "ols"))
    ordering_ok = w <= r <= o
    margins = [mean_bias("bilinear", s) - mean_bias("sgpr", s)
               for s in ("wrrtls", "rrtls", "ols")]
    interp_ok = all(m >= 0.2 for m in margins)
    _report("4 (ablation ordering)", ordering_ok and interp_ok,
            f"sparse bias err: wrrtls={w:.2f} <= rrtls={r:.2f} <= ols={o:.2f}; "
            f"bilinear - sgpr margins {[round(m, 2) for m in margins]} uT (>=0.2)")


def test_criterion_5_two_map_workflow():
    """Compensated readings match an independent validation map to <1 uT."""
    spec = SweepSpec(noise_levels=(0.1,), seed=23)
    report = run_two_map_workflow(spec)
    axis_err = np.asarray(report["mean_axis_error_after_ut"])
    std_after = np.asarray(report["reading_std_after_ut"])
    std_before = np.asarray(report["reading_std_before_ut"])
    ok = (report["converged"] and np.all(axis_err < 1.0)
          and np.all(std_after < std_before))
    _report("5 (two-map workflow)", ok,
            f"per-axis mean error {np.round(axis_err, 3)} uT (<1), "
            f"std after {np.round(std_after, 3)} < before {np.round(std_before, 3)}")


# ---------------------------------------------------------------------------
# criterion 6: the property suite


def test_criterion_6a_gradient_vs_finite_differences(calib_map):
    rng = np.random.default_rng(30)
    pts = rng.uniform([4.0, 4.0, 0.5], [14.0, 10.0, 1.1], size=(40, 3))
    h = 1e-4
    worst = 0.0
    for t in pts:
        analytic = calib_map.gradient_many(t[None])[0][0]
        fd = np.zeros((3, 3))
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            hi, _, _ = calib_map.query_many((t + step).reshape(1, 3))
            lo, _, _ = calib_map.query_many((t - step).reshape(1, 3))
            fd[:, axis] = (hi[0] - lo[0]) / (2.0 * h)
        worst = max(worst, np.max(np.abs(analytic - fd)) / np.abs(fd).max())
    _report("6a (analytic gradient vs FD)", worst <= 1e-4,
            f"max relative deviation {worst:.2e} (<=1e-4)")


def test_criterion_6b_closed_form_vs_generic_ridge():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10):
        truth = random_distortion(rng, 1.0)
        x = np.array([30.0, 5.0, -38.0]) + rng.uniform(-12, 12, (60, 3))
        y = truth.apply_many(x) + rng.normal(0.0, 0.5, (60, 3))
        weights = rng.uniform(0.2, 5.0, 60)
        prob = RegressionProblem.from_pairs(x, y, weights, 0.37, 4)
        closed = solve_wrrtls(prob)
        recon = tsvd_reconstruct(np.hstack([prob.observed, prob.design]), 4)
        obs_bar, design_bar = recon[:, :3], recon[:, 3:].copy()
        design_bar[:, 3] = 1.0
        lhs = np.vstack([design_bar * weights[:, None], np.sqrt(0.37) * np.eye(4)])
        rhs = np.vstack([obs_bar * weights[:, None], np.zeros((4, 3))])
        oracle = np.linalg.lstsq(lhs, rhs, rcond=None)[0].T
        got = np.hstack([closed.gain, closed.bias[:, None]])
        worst = max(worst, np.max(np.abs(got - oracle)))
    _report("6b (closed form vs generic ridge)", worst <= 1e-8,
            f"max deviation {worst:.2e} (<=1e-8)")


def test_criterion_6c_wrrtls_degenerates_to_ols():
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(10):
        truth = random_distortion(rng, 1.0)
        x = np.array([30.0, 5.0, -38.0]) + rng.uniform(-12, 12, (50, 3))
        prob = RegressionProblem.from_pairs(x, truth.apply_many(x), ridge=0.0,
                                            tsvd_rank=7)
        a = solve_wrrtls(prob)
        b = solve_ols(prob)
        worst = max(worst,
                    np.max(np.abs(a.gain - b.gain)),
                    np.max(np.abs(a.bias - b.bias)))
    _report("6c (w-RRTLS degeneracy to OLS)", worst <= 1e-8,
            f"max deviation {worst:.2e} (<=1e-8)")


def test_criterion_6d_compensate_round_trip():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(50):
        dist = random_distortion(rng, 1.0)
        b = rng.uniform(-60.0, 60.0, 3)
        worst = max(worst, np.max(np.abs(compensate(dist, dist.apply(b)) - b)))
    _report("6d (compensate/apply round trip)", worst <= 1e-10,
            f"max deviation {worst:.2e} (<=1e-10)")


def test_criterion_6e_gauss_newton_one_step():
    from magcalib.extrinsic import gauss_newton_step
    rng = np.random.default_rng(34)
    worst = 0.0
    for _ in range(20):
        gain = rng.normal(size=(12, 3))
        t_star = rng.uniform(-1.0, 1.0, 3)
        e = gain @ (np.zeros(3) - t_star)
        step = gauss_newton_step(gain, e)
        worst = max(worst, np.max(np.abs(step - t_star)))
    _report("6e (GN exact on linear residuals)", worst <= 1e-8,
            f"max deviation {worst:.2e} (<=1e-8)")


def test_criterion_6f_grid_search_oracle(calib_world, calib_map, calib_path):
    """Exhaustive 5 cm lattice over a +-1 m cube around truth, inner solve at
    each node; the iterative optimizer must land in the same cell."""
    t_gt = np.array([0.3, -0.1, 0.2])
    rng = np.random.default_rng(35)
    dist = random_distortion(rng, 1.0)
    poses = list(calib_path)[::3]
    rotations = np.array([p.rotation for p in poses])
    translations = np.array([p.translation for p in poses])
    sensor_pos = rotations @ t_gt + translations
    b_true = np.einsum("nji,nj->ni", rotations, field_at_many(calib_world, sensor_pos))
    measured = dist.apply_many(b_true) + rng.normal(0.0, 0.1, b_true.shape)

    data = Dataset("6f", "lidar", np.arange(len(poses), dtype=float), rotations,
                   translations, measured)
    result = calibrate(CalibrationInput(calib_map, data,
                                        t_gt + np.array([0.4, -0.3, 0.2])))

    axis = np.arange(-1.0, 1.0 + 1e-9, 0.05)
    nodes = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                     axis=-1).reshape(-1, 3) + t_gt
    n_samp = len(poses)
    config = CalibrationConfig()
    best_cost = np.inf
    best_node = None
    chunk = 1500
    ones = np.ones((n_samp, 1))
    for start in range(0, nodes.shape[0], chunk):
        batch = nodes[start:start + chunk]
        # positions for every (node, sample) pair
        pos = (rotations[None, :, :, :] @ batch[:, None, :, None]).squeeze(-1) \
            + translations[None, :, :]
        flat = pos.reshape(-1, 3)
        means, variances, inside = calib_map.query_many(flat, allow_outside=True)
        means = means.reshape(batch.shape[0], n_samp, 3)
        variances = variances.reshape(batch.shape[0], n_samp, 3)
        ok_rows = inside.reshape(batch.shape[0], n_samp).all(axis=1)
        for i in np.flatnonzero(ok_rows):
            b_ref = np.einsum("nji,nj->ni", rotations, means[i])
            weights = weights_from_variance(variances[i], config.measurement_noise)
            prob = RegressionProblem.from_pairs(b_ref, measured, weights,
                                                config.lambda_value,
                                                config.tsvd_rank)
            d = solve_wrrtls(prob)
            resid = b_ref @ d.gain.T + d.bias - measured
            cost = float(np.sum(resid**2))
            if cost < best_cost:
                best_cost = cost
                best_node = batch[i]
    per_axis = np.abs(result.translation - best_node)
    ok = result.converged and np.all(per_axis <= 0.05 + 1e-9)
    _report("6f (grid-search oracle)", ok,
            f"|t_hat - t_oracle| per axis {np.round(per_axis, 4)} m "
            f"(<= 0.05 cell)")


def test_criterion_6g_noise_free_identity_recovery(gentle_world):
    """Noise-free pipeline with identity distortion recovers everything."""
    positions = survey_positions(gentle_world, 1.0, z_levels=(0.9,), margin=1.5)
    data = survey_dataset(gentle_world, positions, noise_sigma=0.0, seed=0)
    exact_map = build_map(data, GpHyperparams(length_scale=0.5, noise_variance=0.0),
                          block_size=10.0)
    n = positions.shape[0]
    lidar = Dataset("6g", "lidar", np.arange(n, dtype=float),
                    np.broadcast_to(np.eye(3), (n, 3, 3)), positions,
                    field_at_many(gentle_world, positions))
    result = calibrate(CalibrationInput(exact_map, lidar, np.zeros(3)),
                       CalibrationConfig(measurement_noise=0.0))
    e_t = float(np.sum(result.translation**2))
    e_c = float(np.linalg.norm(result.distortion.gain - np.eye(3)))
    ok = result.converged and e_t <= 1e-6 and e_c <= 1e-6
    _report("6g (noise-free identity recovery)", ok,
            f"e_t={e_t:.2e} (<=1e-6), e_C={e_c:.2e} (<=1e-6)")


def test_pipeline_reproducibility():
    """Identical seeds reproduce the sweep bit for bit."""
    spec = SweepSpec(noise_levels=(0.1,), n_distortions=1, n_initial_offsets=2,
                     paths=default_path_specs()[:1], seed=24)
    a = run_table1_sweep(spec)
    b = run_table1_sweep(spec)
    same = all(
        ra["translation_sq_m2"] == rb["translation_sq_m2"]
        and ra["gain_frobenius"] == rb["gain_frobenius"]
        for ra, rb in zip(a["rows"], b["rows"]))
    _report("repro (bit-for-bit determinism)", same,
            "two identical-seed sweeps produced identical rows")
