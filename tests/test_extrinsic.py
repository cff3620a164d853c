import numpy as np
import pytest

from magcalib.extrinsic import (
    CalibrationConfig,
    CalibrationError,
    CalibrationInput,
    calibrate,
    classify_success,
    gauss_newton_step,
    jacobian,
    residual,
)
from magcalib.geometry import Pose, rot_z
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


def _input(field_map, path, readings, t0):
    return CalibrationInput(field_map, list(path), readings, t0)


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


def test_calibrate_quick_batch(calib_world, calib_map, calib_path):
    rng = np.random.default_rng(5)
    errors = []
    for _ in range(5):
        dist = random_distortion(rng, 1.0)
        readings, _ = _measurements(calib_world, calib_path, dist, 0.1,
                                    seed=int(rng.integers(1 << 31)))
        direction = rng.normal(size=3)
        offset = 0.8 * direction / np.linalg.norm(direction)
        inp = _input(calib_map, calib_path, readings, T_GT + offset)
        result = calibrate(inp)
        assert result.converged
        errors.append(np.sum((result.translation - T_GT) ** 2))
    assert np.mean(errors) <= 0.01


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
    poses, b_true = _truth_readings(spec, path_spec)
    readings = dist.apply_many(b_true) + trial_rng.normal(0.0, 0.1, b_true.shape)
    field_map = build_reference_map(spec)

    result = calibrate(CalibrationInput(field_map, poses, readings, t_gt + offset),
                       replace(spec.config, measurement_noise=0.1))
    assert result.converged, result.message
    assert "re-seeded" in result.message
    assert np.linalg.norm(result.translation - t_gt) <= 0.05
    assert result.final_rms <= 0.25  # other trials of the path end at 0.15-0.20 uT
    costs = [c for _, c in result.trace]
    assert all(c2 <= c1 + 1e-9 for c1, c2 in zip(costs, costs[1:]))


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

    from magcalib.geometry import Dataset, Fingerprint
    shifted_samples = [
        Fingerprint(fp.timestamp,
                    Pose(fp.pose.rotation, fp.pose.translation + shift,
                         fp.pose.from_frame, fp.pose.to_frame), fp.reading)
        for fp in data.samples]
    map_b = build_map(Dataset("shifted", shifted_samples), hyper, block_size=8.0)

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


def test_input_validation(calib_map, calib_path):
    with pytest.raises(CalibrationError, match="pair"):
        CalibrationInput(calib_map, list(calib_path), np.zeros((3, 3)))
    with pytest.raises(CalibrationError, match="at least 5"):
        CalibrationInput(calib_map, list(calib_path)[:3], np.zeros((3, 3)))
