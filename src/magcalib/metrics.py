"""Accuracy metrics for calibration results.

Units are deliberately explicit in the field names: the translation metric
is a squared Euclidean distance in m^2, the gain metric a Frobenius norm
(unitless), the bias metric a squared Euclidean norm in uT^2, and the
reading metric a mean squared error in uT^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extrinsic import classify_success
from .intrinsic import AffineDistortion


def metric_translation(t_hat, t_gt) -> float:
    """Squared Euclidean distance between lever-arm estimates, m^2."""
    d = np.asarray(t_hat, float) - np.asarray(t_gt, float)
    return float(d @ d)


def metric_distortion(gain_hat, gain_gt) -> float:
    """Frobenius norm of the gain-matrix error, unitless."""
    return float(np.linalg.norm(np.asarray(gain_hat, float) - np.asarray(gain_gt, float)))


def metric_bias(bias_hat, bias_gt) -> float:
    """Squared Euclidean norm of the bias error, uT^2."""
    d = np.asarray(bias_hat, float) - np.asarray(bias_gt, float)
    return float(d @ d)


def sensor_frame_prediction(field_map, rotations, translations, lever_arm) -> np.ndarray:
    """The map's field at each sensor position, in the sensor frame, (N, 3) uT.

    ``rotations`` (N, 3, 3) and ``translations`` (N, 3) are the carrier's
    poses in the map frame and ``lever_arm`` (3,) the sensor's offset in the
    carrier frame, so the sensor sits at ``R t + p``; the map prediction
    there is rotated back by ``R^T``. Positions off the map raise.
    """
    rotations = np.asarray(rotations, float).reshape(-1, 3, 3)
    positions = rotations @ np.asarray(lever_arm, float).reshape(3) \
        + np.asarray(translations, float).reshape(-1, 3)
    means, _, _ = field_map.query_many(positions, allow_outside=False)
    return np.einsum("nji,nj->ni", rotations, means)


def metric_reading_error(readings, predicted):
    """Score sensor-frame readings against a map's prediction of them (see
    :func:`sensor_frame_prediction`). Returns ``(mean squared error uT^2,
    per-axis std uT (3,))``."""
    diff = np.asarray(readings, float).reshape(-1, 3) - predicted
    mse = float(np.mean(np.sum(diff**2, axis=1)))
    return mse, diff.std(axis=0)


@dataclass(frozen=True)
class MetricsReport:
    """One trial's scores; every field is >= 0 except the success label."""

    translation_sq_m2: float
    gain_frobenius: float
    bias_sq_ut2: float
    success: str
    reading_mse_ut2: float | None = None
    reading_std_ut: tuple | None = None

    def as_dict(self) -> dict:
        out = {
            "translation_sq_m2": self.translation_sq_m2,
            "gain_frobenius": self.gain_frobenius,
            "bias_sq_ut2": self.bias_sq_ut2,
            "success": self.success,
        }
        if self.reading_mse_ut2 is not None:
            out["reading_mse_ut2"] = self.reading_mse_ut2
        if self.reading_std_ut is not None:
            out["reading_std_ut"] = list(self.reading_std_ut)
        return out


def score_result(t_hat, dist_hat: AffineDistortion, t_gt,
                 dist_gt: AffineDistortion) -> MetricsReport:
    """Assemble the standard per-trial report against ground truth."""
    return MetricsReport(
        translation_sq_m2=metric_translation(t_hat, t_gt),
        gain_frobenius=metric_distortion(dist_hat.gain, dist_gt.gain),
        bias_sq_ut2=metric_bias(dist_hat.bias, dist_gt.bias),
        success=classify_success(t_hat, t_gt),
    )
