import itertools

import numpy as np
import pytest

from magcalib.extrinsic import (
    _chi2_upper_quantile,
    _evaluate,
    _jacobian,
    _projected_jacobian,
    CalibrationConfig,
    CalibrationError,
    CalibrationInput,
    NonConvergenceError,
    calibrate,
    classify_success,
    gauss_newton_step,
    jacobian,
    residual,
)
from magcalib.geometry import Dataset, Pose, rot_z
from magcalib.intrinsic import AffineDistortion, RegressionError, solve_wrrtls, \
    RegressionProblem, weights_from_variance
from magcalib.magmap import GpHyperparams, build_map
from magcalib.simulator import (
    PathSpec,
    SensorRig,
    generate_path,
    random_distortion,
    sample_dataset,
    survey_dataset,
    survey_positions,
)

T_GT = np.array([0.3, -0.1, 0.2])


def _measurements(world, path, dist=None, sigma=0.0, seed=0):
    rig = SensorRig((T_GT,), (dist or AffineDistortion.identity(),), sigma)
    measured, truth = sample_dataset(world, path, rig, 0, seed=seed)
    return measured.readings(), truth.readings()


def _dataset(path, readings):
    """The LiDAR poses of ``path`` (lidar -> map) paired with ``readings``,
    sample i at time i seconds."""
    n = len(path)
    return Dataset("test", "lidar", np.arange(n, dtype=float),
                   [p.rotation for p in path], [p.translation for p in path], readings)


def _input(field_map, path, readings, t0):
    return CalibrationInput(field_map, _dataset(path, readings), t0)


def test_residual_small_at_truth(calib_world, calib_map, calib_path):
    rng = np.random.default_rng(0)
    dist = random_distortion(rng, 1.0)
    sigma = 0.1
    readings, _ = _measurements(calib_world, calib_path, dist, sigma, seed=1)
    inp = _input(calib_map, calib_path, readings, T_GT)
    res = residual(inp, T_GT, dist)
    rms = np.sqrt(np.mean(np.sum(res**2, axis=1)))
    assert rms <= 2.0 * np.sqrt(3) * sigma  # noise plus map error budget


def test_residual_tiny_at_training_points(gentle_world):
    # noise-free map trained exactly on the calibration sample positions:
    # the GP interpolates, so the residual at truth is numerically zero
    from magcalib.simulator import field_at_many
    positions = survey_positions(gentle_world, 1.0, z_levels=(0.9,), margin=1.5)
    data = survey_dataset(gentle_world, positions, noise_sigma=0.0, seed=0)
    exact_map = build_map(data, GpHyperparams(length_scale=0.5,
                                              noise_variance=0.0),
                          block_size=10.0)
    poses = [Pose(np.eye(3), p, "lidar", "map") for p in positions]
    readings = field_at_many(gentle_world, positions)
    inp = _input(exact_map, poses, readings, np.zeros(3))
    res = residual(inp, np.zeros(3), AffineDistortion.identity())
    assert np.max(np.abs(res)) <= 1e-6


def test_perturbing_lever_arm_increases_cost(calib_world, calib_map, calib_path):
    readings, _ = _measurements(calib_world, calib_path)
    inp = _input(calib_map, calib_path, readings, T_GT)
    dist = AffineDistortion.identity()
    cost_true = np.sum(residual(inp, T_GT, dist) ** 2)
    cost_off = np.sum(residual(inp, T_GT + np.array([0.5, 0.0, 0.0]), dist) ** 2)
    assert cost_off > cost_true


def test_residual_errors_when_everything_outside(calib_map, calib_path):
    readings = np.tile([30.0, 0.0, -40.0], (len(calib_path), 1))
    inp = _input(calib_map, calib_path, readings, np.zeros(3))
    with pytest.raises(CalibrationError, match="outside"):
        residual(inp, np.array([500.0, 0.0, 0.0]), AffineDistortion.identity())


def test_jacobian_matches_finite_differences(calib_world, calib_map, calib_path):
    rng = np.random.default_rng(2)
    dist = random_distortion(rng, 1.0)
    readings, _ = _measurements(calib_world, calib_path, dist, 0.0)
    subset = list(calib_path)[::4]
    inp = _input(calib_map, subset, readings[::4], T_GT)
    t = T_GT + np.array([0.05, -0.08, 0.02])
    jac = jacobian(inp, t, dist)
    h = 1e-4
    fd = np.zeros_like(jac)
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        r_hi = residual(inp, t + step, dist).reshape(-1)
        r_lo = residual(inp, t - step, dist).reshape(-1)
        fd[:, axis] = (r_hi - r_lo) / (2.0 * h)
    scale = np.abs(fd).max()
    assert np.max(np.abs(jac - fd)) / scale <= 1e-3


def test_constant_field_reports_nonconvergence():
    # constant field: zero gradient, the lever arm is unobservable
    from conftest import lattice_dataset
    const = np.array([30.0, 5.0, -38.0])
    xs = np.linspace(0.0, 8.0, 9)
    data = lattice_dataset(lambda p: const, xs, xs, [0.3, 0.9])
    field_map = build_map(data, GpHyperparams(length_scale=1.5), block_size=10.0)
    poses = [Pose(rot_z(0.3 * i), np.array([1.0 + 0.5 * i, 4.0, 0.6]),
                  "lidar", "map") for i in range(12)]
    readings = np.array([p.rotation.T @ const for p in poses])
    result = calibrate(_input(field_map, poses, readings, np.array([0.5, 0.5, 0.0])))
    assert not result.converged
    assert "unobservable" in result.message or "descent" in result.message


def test_degenerate_distortion_rejected():
    with pytest.raises(RegressionError):
        AffineDistortion(np.zeros((3, 3)), np.zeros(3))


def test_gauss_newton_step_exact_on_linear_residual():
    rng = np.random.default_rng(3)
    gain = rng.normal(size=(9, 3))
    t_star = np.array([0.4, -0.2, 0.7])
    t = np.zeros(3)
    e = gain @ (t - t_star)
    step = gauss_newton_step(gain, e)
    assert np.allclose(t + step, t_star, atol=1e-8)


def test_gauss_newton_step_identity_blocks():
    jac = np.vstack([np.eye(3)] * 5)
    e = np.tile([1.0, 1.0, 1.0], 5)
    step = gauss_newton_step(jac, e)
    assert np.allclose(step, [-1.0, -1.0, -1.0], atol=1e-12)


def test_gauss_newton_step_matches_lstsq():
    rng = np.random.default_rng(4)
    for _ in range(10):
        jac = rng.normal(size=(30, 3))
        e = rng.normal(size=30)
        step = gauss_newton_step(jac, e)
        oracle, _, _, _ = np.linalg.lstsq(jac, -e, rcond=None)
        assert np.allclose(step, oracle, atol=1e-8)


def test_gauss_newton_step_nan_jacobian_raises():
    jac = np.ones((9, 3))
    jac[4, 1] = np.nan
    with pytest.raises(NonConvergenceError, match="non-finite step"):
        gauss_newton_step(jac, np.ones(9))


def test_gauss_newton_step_damps_rank_deficient_jacobian():
    # the third column carries no signal: J'J is singular, so the undamped
    # solve is replaced by one damped at 1e-6 of the mean diagonal
    rng = np.random.default_rng(6)
    jac = np.hstack([rng.normal(size=(12, 2)), np.zeros((12, 1))])
    e = rng.normal(size=12)
    normal = jac.T @ jac
    base = np.trace(normal) / 3.0 * 1e-6
    step = gauss_newton_step(jac, e)
    assert np.all(np.isfinite(step)) and step[2] == 0.0
    assert np.allclose(step, np.linalg.solve(normal + base * np.eye(3), -jac.T @ e),
                       rtol=1e-12, atol=0.0)


def _quick_inputs(calib_world, calib_map, calib_path):
    """Five noisy trials from 0.8 m off the truth, each with its own
    distortion."""
    rng = np.random.default_rng(5)
    inputs = []
    for _ in range(5):
        dist = random_distortion(rng, 1.0)
        readings, _ = _measurements(calib_world, calib_path, dist, 0.1,
                                    seed=int(rng.integers(1 << 31)))
        direction = rng.normal(size=3)
        offset = 0.8 * direction / np.linalg.norm(direction)
        inputs.append(_input(calib_map, calib_path, readings, T_GT + offset))
    return inputs


def _quick_batch(calib_world, calib_map, calib_path, config=None):
    """:func:`calibrate` of each of the :func:`_quick_inputs`."""
    return [calibrate(inp, config)
            for inp in _quick_inputs(calib_world, calib_map, calib_path)]


def _recording_evaluate(monkeypatch, calls, raise_cost=None):
    """Route ``extrinsic._evaluate`` through a recorder that appends each
    lever arm to ``calls``; with ``raise_cost(t, calls)`` true, the state's
    cost is raised by 1, so the loop rejects that candidate."""
    import magcalib.extrinsic as extrinsic
    evaluate = extrinsic._evaluate

    def recorded(inp, t, config, distortion=None):
        state = evaluate(inp, t, config, distortion)
        if raise_cost is not None and raise_cost(t, calls):
            state.cost += 1.0
        calls.append(np.array(t, float))
        return state

    monkeypatch.setattr(extrinsic, "_evaluate", recorded)


@pytest.mark.parametrize("floor, tol", [(0.0, 1e-3), (1.0, 1e-9)],
                         ids=["short_step", "model_reduction"])
def test_rejected_step_ends_the_run_converged(calib_world, calib_map, calib_path,
                                              monkeypatch, floor, tol):
    """Every candidate within 1 mm of the last evaluated lever arm is made
    to raise the cost. The first such step is rejected, and the run ends
    there, converged at the last accepted iterate, with the rejected
    candidate counted as no iteration: by the step rule when the step is
    shorter than ``step_tolerance`` (1 mm, the model-reduction test off), by
    the model-reduction test when its floor is the whole cost (and the step
    rule is held off by a 1 nm tolerance). A damping ladder would climb
    through the rejections to exhausted damping or a nanometre step."""
    import magcalib.extrinsic as extrinsic
    monkeypatch.setattr(extrinsic, "_PREDICTED_FLOOR", floor)
    calls = []
    _recording_evaluate(monkeypatch, calls,
                        lambda t, calls: calls and np.linalg.norm(t - calls[-1]) < 1e-3)
    inp = _quick_inputs(calib_world, calib_map, calib_path)[0]
    result = calibrate(inp, CalibrationConfig(step_tolerance=tol))
    assert result.converged, result.message
    assert result.message == ""
    assert np.array_equal(result.translation, result.trace[-1][0])
    assert result.iterations == len(result.trace) - 1 >= 2
    assert len(calls) == result.iterations + 2  # the start, each accepted step, one rejection
    assert 0 < np.linalg.norm(calls[-1] - result.translation) < 1e-3
    assert np.linalg.norm(result.translation - T_GT) <= 0.05


def _final_iteration_candidates(calls, trace) -> int:
    """Candidates evaluated after the iterate that the run's last iteration
    started from: the trace's last point, unless the last evaluation was
    itself that point (an accepted final step), then the one before."""
    start = trace[-2][0] if np.array_equal(calls[-1], trace[-1][0]) else trace[-1][0]
    last = max(i for i, t in enumerate(calls) if np.array_equal(t, start))
    return len(calls) - 1 - last


def test_quick_batch_runs_stop_before_a_damping_ladder(calib_world, calib_map, calib_path,
                                                       monkeypatch):
    """Near the optimum the first candidate is often rejected; the run ends
    within a few candidates of that, not after 10-13 rungs of damping that
    each shorten the step tenfold."""
    calls = []
    _recording_evaluate(monkeypatch, calls)
    finals, rejected = [], []
    for inp in _quick_inputs(calib_world, calib_map, calib_path):
        calls.clear()
        result = calibrate(inp)
        assert result.converged and result.message == "", result.message
        finals.append(_final_iteration_candidates(calls, result.trace))
        rejected.append(len(calls) - 1 - result.iterations)
    assert max(finals) <= 4, finals
    assert sum(rejected) <= 10, rejected


def test_calibrate_quick_batch(calib_world, calib_map, calib_path):
    errors = []
    for result in _quick_batch(calib_world, calib_map, calib_path):
        assert result.converged
        errors.append(np.sum((result.translation - T_GT) ** 2))
    assert np.mean(errors) <= 0.01


def test_ols_quick_batch_converges_within_six_iterations(calib_world, calib_map,
                                                          calib_path):
    """Stepping on the reduced cost's Jacobian converges fast: the
    fixed-distortion Jacobian took 11-14 iterations on these trials."""
    results = _quick_batch(calib_world, calib_map, calib_path,
                           CalibrationConfig(intrinsic_solver="ols"))
    assert all(r.converged for r in results)
    assert max(r.iterations for r in results) <= 6, [r.iterations for r in results]


def _fitted_state(calib_world, calib_map, calib_path, solver):
    dist = random_distortion(np.random.default_rng(2), 1.0)
    readings, _ = _measurements(calib_world, calib_path, dist, 0.1, seed=3)
    inp = _input(calib_map, calib_path, readings, T_GT)
    t = T_GT + np.array([0.05, -0.08, 0.02])
    config = CalibrationConfig(intrinsic_solver=solver)
    return inp, t, config, _evaluate(inp, t, config)


def test_projected_jacobian_gives_the_ols_cost_gradient(calib_world, calib_map,
                                                         calib_path):
    """For OLS the variable-projection gradient 2 J_K'e is the exact gradient
    of the reduced cost f(t) = min over (gain, bias) of the squared
    residual."""
    inp, t, config, state = _fitted_state(calib_world, calib_map, calib_path, "ols")
    gradient = 2.0 * _projected_jacobian(calib_map, state).T @ state.residuals.reshape(-1)
    h = 1e-5
    fd = np.array([(_evaluate(inp, t + h * e, config).cost
                    - _evaluate(inp, t - h * e, config).cost) / (2.0 * h)
                   for e in np.eye(3)])
    assert np.max(np.abs(gradient - fd)) <= 1e-4 * np.max(np.abs(fd))


def test_projected_jacobian_is_orthogonal_to_the_weighted_design(calib_world, calib_map,
                                                                 calib_path):
    """Each w-RRTLS projected column lies where the fit cannot reach:
    X'W^2 J_K = 0 to rounding, against X'W^2 J of the unprojected one."""
    _, _, _, state = _fitted_state(calib_world, calib_map, calib_path, "wrrtls")
    assert np.ptp(state.weights) > 0  # the map's variance weights the rows
    xw2 = state.design.T * state.weights**2
    projected = xw2 @ _projected_jacobian(calib_map, state).reshape(-1, 9)
    plain = xw2 @ _jacobian(calib_map, state).reshape(-1, 9)
    assert np.max(np.abs(projected)) <= 1e-12 * np.max(np.abs(plain))


def test_too_few_samples_on_the_map_raise_calibration_error(gentle_world, gentle_map):
    """Half of eight samples on the map passes the half-on-map test, but the
    fit needs five: calibrate names the on-map count in a CalibrationError,
    not the inner solver's RegressionError."""
    from magcalib.simulator import field_at_many
    face = gentle_map.grid_hi[0] + gentle_map.overlap
    positions = np.array([[3.0 + 0.5 * i, 4.0, 0.9] for i in range(4)]
                         + [[face - 0.05, 2.0 + i, 0.9] for i in range(4)])
    poses = [Pose(np.eye(3), p, "lidar", "map") for p in positions]
    inp = _input(gentle_map, poses, field_at_many(gentle_world, positions),
                 np.array([0.2, 0.0, 0.0]))
    with pytest.raises(CalibrationError, match="only 4 of 8 samples"):
        calibrate(inp)


def test_failed_inner_fit_at_a_candidate_is_a_rejected_step(calib_world, calib_map,
                                                            calib_path, monkeypatch):
    """A candidate lever arm whose inner solve raises RegressionError is
    rejected and retried with more damping; the run still converges."""
    import magcalib.extrinsic as extrinsic
    calls = []

    def failing_second_solve(prob):
        calls.append(None)
        if len(calls) == 2:  # the first candidate; call 1 is the initial guess
            raise RegressionError("design matrix is rank deficient")
        return solve_wrrtls(prob)

    monkeypatch.setattr(extrinsic, "solve_wrrtls", failing_second_solve)
    dist = random_distortion(np.random.default_rng(4), 1.0)
    readings, _ = _measurements(calib_world, calib_path, dist, 0.1, seed=5)
    result = calibrate(_input(calib_map, calib_path, readings,
                              T_GT + np.array([0.3, -0.2, 0.1])))
    assert len(calls) > 2
    assert result.converged, result.message
    assert np.linalg.norm(result.translation - T_GT) <= 0.05


def test_failed_inner_fit_at_the_initial_guess_raises_calibration_error(
        calib_world, calib_map, calib_path, monkeypatch):
    import magcalib.extrinsic as extrinsic

    def failing_solve(prob):
        raise RegressionError("weighted normal matrix is numerically singular")

    monkeypatch.setattr(extrinsic, "solve_wrrtls", failing_solve)
    readings, _ = _measurements(calib_world, calib_path, sigma=0.1, seed=5)
    with pytest.raises(CalibrationError, match="inner fit failed: weighted normal"):
        calibrate(_input(calib_map, calib_path, readings, T_GT))


def test_calibrate_noise_free_at_optimum_is_instant(gentle_world, gentle_map):
    positions = survey_positions(gentle_world, 0.5, z_levels=(0.9,), margin=1.0)
    poses = [Pose(np.eye(3), p, "lidar", "map") for p in positions[:40]]
    from magcalib.simulator import field_at_many
    readings = field_at_many(gentle_world, positions[:40])
    result = calibrate(_input(gentle_map, poses, readings, np.zeros(3)))
    assert result.converged
    assert result.iterations <= 2
    assert np.sum(result.translation**2) <= 1e-6


def test_calibrate_recovers_from_wrong_basin():
    """The seed-20 table1 trial (random_walk, distortion 2, offset 4) stalls
    at a local minimum 0.9 m from the truth; the plausibility test must catch
    it and the local re-seed must bring it home."""
    from dataclasses import replace
    from magcalib.sweeps import (SweepSpec, _trials, _truth_readings,
                                 build_reference_map)
    spec = SweepSpec(noise_levels=(0.1,), n_distortions=10, n_initial_offsets=5,
                     offset_range=1.0, seed=20)
    t_gt = np.asarray(spec.sensor_offset, float)
    # one noise level, so run_table1_sweep's third cell is the third path
    path_spec = spec.paths[2]
    assert path_spec.kind == "random_walk"
    cell_seed = np.random.SeedSequence(spec.seed).spawn(3)[2]
    _, _, dist, offset, trial_rng = next(
        trial for trial in _trials(cell_seed, spec, 0.0, spec.offset_range)
        if trial[:2] == (2, 4))
    truth = _truth_readings(spec, path_spec)
    b_true = truth.readings()
    readings = dist.apply_many(b_true) + trial_rng.normal(0.0, 0.1, b_true.shape)
    measured = Dataset(truth.sensor_id, truth.frame, truth.timestamps(),
                       truth.rotations(), truth.positions(), readings)
    field_map = build_reference_map(spec)

    result = calibrate(CalibrationInput(field_map, measured, t_gt + offset),
                       replace(spec.config, measurement_noise=0.1))
    assert result.converged, result.message
    assert "re-seeded" in result.message
    assert np.linalg.norm(result.translation - t_gt) <= 0.05
    assert result.final_rms <= 0.25  # other trials of the path end at 0.15-0.20 uT
    costs = [c for _, c in result.trace]
    assert all(c2 <= c1 + 1e-9 for c1, c2 in zip(costs, costs[1:]))


def test_reseed_node_is_the_least_ols_cost_node_on_the_map(calib_world, calib_path):
    """The +-1 m cube around the guess crosses the map's bottom face; the
    re-seed node is the one of least OLS cost, computed here by hand, among
    the nodes that keep every sample on the map."""
    from magcalib.extrinsic import _reseed_node
    positions = survey_positions(calib_world, 0.6, z_levels=(0.75, 1.05, 1.5), margin=1.0)
    field_map = build_map(survey_dataset(calib_world, positions, noise_sigma=0.03, seed=1),
                          GpHyperparams(length_scale=0.8, noise_variance=0.001),
                          block_size=8.0)
    dist = random_distortion(np.random.default_rng(4), 1.0)
    readings, _ = _measurements(calib_world, calib_path, dist, sigma=0.1, seed=2)
    t0 = T_GT - np.array([0.0, 0.0, 1.0])
    inp = _input(field_map, calib_path, readings, t0)
    rotations, translations = inp.data.rotations(), inp.data.positions()
    costs = {}
    for offset in itertools.product(np.arange(-1.0, 1.01, 0.5), repeat=3):
        t = t0 + np.array(offset)
        means, _, inside = field_map.query_many(rotations @ t + translations,
                                                allow_outside=True)
        if inside.all():
            design = np.column_stack([np.einsum("nji,nj->ni", rotations, means),
                                      np.ones(len(means))])
            fit = np.linalg.lstsq(design, readings, rcond=None)[0]
            costs[tuple(t)] = np.sum((design @ fit - readings) ** 2)
    assert 0 < len(costs) < 125  # the map's face cuts the cube

    node = _reseed_node(inp, CalibrationConfig())
    assert tuple(node) == min(costs, key=costs.get)
    assert field_map.contains_many(rotations @ node + translations).all()
    assert np.allclose(node, T_GT)


def test_implausible_fit_reports_nonconvergence(calib_world, calib_map, calib_path):
    # readings shuffled against their poses: no lever arm explains them
    readings, _ = _measurements(calib_world, calib_path, sigma=0.1, seed=0)
    shuffled = readings[np.random.default_rng(0).permutation(len(readings))]
    result = calibrate(_input(calib_map, calib_path, shuffled, T_GT))
    assert not result.converged
    assert "implausible fit" in result.message


def test_map_without_variance_skips_plausibility_test():
    from conftest import lattice_dataset
    from magcalib.magmap import BilinearMap

    def field(p):
        return np.array([30.0 + 2.0 * p[0], 5.0 - p[1] + 0.5 * p[0] * p[1],
                         -38.0 + 1.5 * p[2] + 0.3 * p[1] ** 2])
    xs = np.linspace(0.0, 8.0, 9)
    field_map = BilinearMap(lattice_dataset(field, xs, xs, [0.3, 0.9]))
    poses = [Pose(rot_z(0.3 * i), np.array([1.0 + 0.5 * i, 2.0 + 0.3 * i, 0.6]),
                  "lidar", "map") for i in range(12)]
    readings = np.array([p.rotation.T @ field(p.translation) for p in poses])
    result = calibrate(_input(field_map, poses, readings, np.zeros(3)))
    assert "plausibility test not applied" in result.message


def test_classify_success_thresholds():
    assert classify_success(np.zeros(3), np.zeros(3)) == "small"
    assert classify_success(np.array([0.03, 0.0, 0.0]), np.zeros(3)) == "medium"
    assert classify_success(np.array([0.10, 0.0, 0.0]), np.zeros(3)) == "failure"


def test_cost_trace_monotone_with_damping(calib_world, calib_map, calib_path):
    rng = np.random.default_rng(6)
    dist = random_distortion(rng, 1.0)
    readings, _ = _measurements(calib_world, calib_path, dist, 0.2, seed=9)
    inp = _input(calib_map, calib_path, readings, T_GT + np.array([0.5, 0.4, -0.3]))
    result = calibrate(inp)
    costs = [c for _, c in result.trace]
    assert all(c2 <= c1 + 1e-9 for c1, c2 in zip(costs, costs[1:]))


def test_frame_shift_invariance(calib_world, calib_path):
    shift = np.array([100.0, -50.0, 3.0])
    positions = survey_positions(calib_world, 0.8,
                                 z_levels=(0.15, 0.45, 0.75, 1.05, 1.5),
                                 margin=1.0)
    data = survey_dataset(calib_world, positions, noise_sigma=0.02, seed=3)
    hyper = GpHyperparams(length_scale=0.8, noise_variance=0.001)
    map_a = build_map(data, hyper, block_size=8.0)

    shifted = Dataset("shifted", data.frame, data.timestamps(), data.rotations(),
                      data.positions() + shift, data.readings())
    map_b = build_map(shifted, hyper, block_size=8.0)

    rng = np.random.default_rng(7)
    dist = random_distortion(rng, 1.0)
    readings, _ = _measurements(calib_world, calib_path, dist, 0.05, seed=4)
    t0 = T_GT + np.array([0.3, -0.2, 0.1])

    res_a = calibrate(_input(map_a, calib_path, readings, t0))
    shifted_path = [Pose(p.rotation, p.translation + shift, p.from_frame,
                         p.to_frame) for p in calib_path]
    res_b = calibrate(_input(map_b, shifted_path, readings, t0))
    assert np.linalg.norm(res_a.translation - res_b.translation) <= 1e-6


def test_final_distortion_matches_direct_solve(calib_world, calib_map, calib_path):
    rng = np.random.default_rng(8)
    dist = random_distortion(rng, 1.0)
    readings, _ = _measurements(calib_world, calib_path, dist, 0.1, seed=11)
    config = CalibrationConfig()
    inp = _input(calib_map, calib_path, readings, T_GT + np.array([0.2, 0.2, 0.0]))
    result = calibrate(inp, config)

    rotations = np.array([p.rotation for p in calib_path])
    translations = np.array([p.translation for p in calib_path])
    pos = rotations @ result.translation + translations
    means, variances, _ = calib_map.query_many(pos)
    b_ref = np.einsum("nji,nj->ni", rotations, means)
    weights = weights_from_variance(variances, config.measurement_noise)
    prob = RegressionProblem.from_pairs(b_ref, readings, weights,
                                        config.lambda_value, config.tsvd_rank)
    direct = solve_wrrtls(prob)
    assert np.max(np.abs(direct.gain - result.distortion.gain)) <= 1e-10
    assert np.max(np.abs(direct.bias - result.distortion.bias)) <= 1e-10


def test_calibrate_deterministic(calib_world, calib_map, calib_path):
    rng = np.random.default_rng(9)
    dist = random_distortion(rng, 1.0)
    readings, _ = _measurements(calib_world, calib_path, dist, 0.1, seed=12)
    inp = _input(calib_map, calib_path, readings, T_GT + np.array([0.1, 0.3, 0.0]))
    a = calibrate(inp)
    b = calibrate(inp)
    assert np.array_equal(a.translation, b.translation)
    assert np.array_equal(a.distortion.gain, b.distortion.gain)
    assert a.iterations == b.iterations


def test_out_of_map_abort_policy(calib_map, calib_path):
    readings = np.tile([30.0, 0.0, -40.0], (len(calib_path), 1))
    config = CalibrationConfig(out_of_map_policy="abort")
    # a lever arm large enough to push some samples off the mapped volume
    inp = _input(calib_map, calib_path, readings, np.array([14.0, 0.0, 0.0]))
    with pytest.raises(CalibrationError):
        calibrate(inp, config)


def test_input_needs_five_rows(calib_map, calib_path):
    readings = np.tile([30.0, 0.0, -40.0], (4, 1))
    with pytest.raises(CalibrationError, match="at least 5"):
        _input(calib_map, list(calib_path)[:4], readings, np.zeros(3))


@pytest.mark.parametrize("t0", [[0.1, 0.2], [0.1, np.nan, 0.0]])
def test_input_rejects_bad_initial_translation(calib_map, calib_path, t0):
    readings = np.tile([30.0, 0.0, -40.0], (len(calib_path), 1))
    with pytest.raises(ValueError, match="initial_translation"):
        _input(calib_map, calib_path, readings, t0)


class _NoQueryMap:
    """A field map that fails the test if anything queries it."""

    def query_many(self, *args, **kwargs):
        raise AssertionError("map queried")

    gradient_many = query_many


def test_nan_reading_rejected_before_any_map_query(calib_path):
    readings = np.tile([30.0, 0.0, -40.0], (len(calib_path), 1))
    readings[7, 1] = np.nan
    with pytest.raises(ValueError, match="row 7: reading"):
        calibrate(_input(_NoQueryMap(), calib_path, readings, np.zeros(3)))


@pytest.mark.parametrize("name, value", [
    ("step_tolerance", -1.0), ("step_tolerance", 0.0),
    ("lambda_value", -1e-6), ("measurement_noise", -0.1)])
def test_config_rejects_bad_values(name, value):
    with pytest.raises(ValueError, match=name):
        CalibrationConfig(**{name: value})


@pytest.mark.parametrize("tail", [1e-3, 1e-2, 1e-6])
def test_chi2_upper_quantile_matches_scipy(tail):
    """The plausibility bound's stdlib quantile agrees with scipy's
    ``chdtri`` within 1e-12 relative at every dof from 1 to 10,000."""
    from scipy.special import chdtri
    dofs = np.arange(1, 10_001)
    got = np.array([_chi2_upper_quantile.__wrapped__(int(dof), tail) for dof in dofs])
    want = chdtri(dofs, tail)
    assert np.max(np.abs(got - want) / want) <= 1e-12
