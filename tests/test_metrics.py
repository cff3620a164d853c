import numpy as np

from magcalib.geometry import rot_z
from magcalib.intrinsic import AffineDistortion, compensate_many
from magcalib.metrics import (
    metric_bias,
    metric_distortion,
    metric_reading_error,
    metric_translation,
    score_result,
    sensor_frame_prediction,
)
from magcalib.simulator import field_at_many, random_distortion


def test_metric_translation_zero_and_345():
    assert metric_translation([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert np.isclose(metric_translation([0.03, 0.04, 0.0], [0.0, 0.0, 0.0]),
                      0.0025, atol=1e-15)


def test_metric_distortion_diagonal_perturbation():
    gain = np.eye(3) * 1.1
    assert metric_distortion(gain, gain) == 0.0
    perturbed = gain + 0.01 * np.eye(3)
    assert np.isclose(metric_distortion(perturbed, gain), 0.01 * np.sqrt(3.0),
                      atol=1e-12)


def test_metric_bias():
    assert metric_bias([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert np.isclose(metric_bias([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]), 1.0)


def _prediction(field_map, positions):
    """Map prediction for a sensor at each position, axes aligned with the map."""
    rotations = np.broadcast_to(np.eye(3), (len(positions), 3, 3))
    return sensor_frame_prediction(field_map, rotations, positions, np.zeros(3))


def test_reading_error_zero_against_own_predictions(calib_map):
    rng = np.random.default_rng(0)
    positions = rng.uniform([4.0, 4.0, 0.5], [14.0, 10.0, 1.0], size=(40, 3))
    means, _, _ = calib_map.query_many(positions)
    mse, std = metric_reading_error(means, _prediction(calib_map, positions))
    assert mse <= 1e-18
    assert np.all(std <= 1e-9)


def test_reading_error_improves_after_compensation(calib_world, calib_map):
    rng = np.random.default_rng(1)
    dist = random_distortion(rng, 1.0)
    positions = rng.uniform([4.0, 4.0, 0.5], [14.0, 10.0, 1.0], size=(60, 3))
    truth = field_at_many(calib_world, positions)
    measured = dist.apply_many(truth) + rng.normal(0.0, 0.1, truth.shape)
    compensated = compensate_many(dist, measured)

    predicted = _prediction(calib_map, positions)
    mse_before, _ = metric_reading_error(measured, predicted)
    mse_after, _ = metric_reading_error(compensated, predicted)
    assert mse_after < mse_before


def test_sensor_frame_prediction_places_and_rotates_the_sensor(calib_map):
    # carrier yawed 90 deg at p: the sensor sits at p + R t, and the map-frame
    # field comes back through R^T
    rot = rot_z(np.pi / 2)
    p, lever_arm = np.array([8.0, 7.0, 0.6]), np.array([0.3, -0.1, 0.2])
    predicted = sensor_frame_prediction(calib_map, rot[None], p[None], lever_arm)
    means, _, _ = calib_map.query_many((rot @ lever_arm + p)[None])
    assert np.allclose(predicted[0], rot.T @ means[0], atol=1e-12)


def test_score_result_bundles_metrics():
    rng = np.random.default_rng(2)
    truth = random_distortion(rng, 1.0)
    est = AffineDistortion(truth.gain + 0.001, truth.bias + 0.01)
    report = score_result(np.array([0.31, -0.1, 0.15]), est,
                          np.array([0.3, -0.1, 0.15]), truth)
    assert report.success == "small"
    assert report.translation_sq_m2 > 0
    d = report.as_dict()
    assert set(d) >= {"translation_sq_m2", "gain_frobenius", "bias_sq_ut2",
                      "success"}
