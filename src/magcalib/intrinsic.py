"""Affine magnetometer distortion estimation and compensation.

A distorted sensor reports ``b_meas = gain @ b_true + bias``. Given paired
(true, measured) readings the (gain, bias) pair is recovered by linear
regression; four solvers of increasing robustness are provided:

  * ordinary least squares,
  * total least squares via truncated SVD of the stacked data matrix,
  * its ridge-regularized variant,
  * the weighted ridge-regularized variant, whose closed form is
    ``A = Yb' W^2 Xb (Xb' W^2 Xb + ridge*I)^-1`` on the rank-truncated
    reconstructions Yb, Xb of the observations and the design.

The homogeneous column of the design carries no noise, so after rank
truncation it is re-imposed exactly (the bias estimate would otherwise
absorb reconstruction error).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import as_mat3, as_vec3, check_integer, check_real

VARIANCE_FLOOR = 1e-6  # uT^2, applied before inverting GP variances into weights
DEFAULT_LAMBDA_GRID = np.logspace(-8.0, 2.0, 16)
_MAX_NORMAL_COND = 1e14  # weighted normal matrices above this are treated as singular
_SINGULAR_GAIN_DET = 1e-9  # |det(gain)| at or below this cannot be compensated


class RegressionError(ValueError):
    """Regression input is degenerate or a solve failed."""


@dataclass(frozen=True, eq=False)
class AffineDistortion:
    """The multiplicative/additive corruption of a magnetometer.

    ``gain`` is the 3x3 soft-iron/misalignment composite (unitless) and
    ``bias`` the additive hard-iron offset in uT. ``gain`` must stay
    invertible so readings can be compensated.
    """

    gain: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gain", as_mat3(self.gain, "gain"))
        object.__setattr__(self, "bias", as_vec3(self.bias, "bias"))
        if abs(np.linalg.det(self.gain)) <= _SINGULAR_GAIN_DET:
            raise RegressionError("gain matrix is numerically singular")

    @classmethod
    def identity(cls) -> "AffineDistortion":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, b_true) -> np.ndarray:
        """Distort a true reading: gain @ b + bias."""
        return self.gain @ as_vec3(b_true, "reading") + self.bias

    def apply_many(self, b_true: np.ndarray) -> np.ndarray:
        b = np.asarray(b_true, float).reshape(-1, 3)
        return b @ self.gain.T + self.bias


def compensate(dist: AffineDistortion, b_meas) -> np.ndarray:
    """Undo a distortion: gain^-1 (b_meas - bias)."""
    return compensate_many(dist, as_vec3(b_meas, "reading"))[0]


def compensate_many(dist: AffineDistortion, b_meas: np.ndarray) -> np.ndarray:
    cond = np.linalg.cond(dist.gain)
    if not np.isfinite(cond) or cond > 1e12:
        raise RegressionError(f"gain matrix is near-singular (cond={cond:.3g})")
    b = np.asarray(b_meas, float).reshape(-1, 3)
    return np.linalg.solve(dist.gain, (b - dist.bias).T).T


def weights_from_variance(variances: np.ndarray,
                          measurement_noise: float = 0.0) -> np.ndarray:
    """Per-sample weights from GP predictive variances.

    One scalar per sample: the inverse of the summed per-axis map variance
    plus the calibration data's own measurement noise (3 axes worth). The
    noise term keeps the weight spread honest where the map is very
    confident; the floor guards the noise-free limit.
    """
    var = np.asarray(variances, float)
    total = var.sum(axis=-1) if var.ndim == 2 else var
    total = total + 3.0 * measurement_noise**2
    return 1.0 / np.maximum(total, VARIANCE_FLOOR)


@dataclass(frozen=True, eq=False)
class RegressionProblem:
    """Paired readings arranged for the affine solvers.

    ``design`` rows are [b_true_x, b_true_y, b_true_z, 1]; ``observed`` rows
    are the matching distorted readings. ``weights`` are per-sample scalars
    (already inverse-variance); ``ridge`` the regularization factor (>= 0);
    and ``tsvd_rank`` the rank kept when denoising the stacked data matrix,
    an integer in [1, 7].
    """

    design: np.ndarray
    observed: np.ndarray
    weights: np.ndarray
    ridge: float = 0.0
    tsvd_rank: int = 4

    def __post_init__(self):
        design = np.asarray(self.design, float)
        observed = np.asarray(self.observed, float)
        if design.ndim != 2 or design.shape[1] != 4:
            raise RegressionError(f"design must be (N, 4), got {design.shape}")
        if observed.shape != (design.shape[0], 3):
            raise RegressionError(
                f"observed must be (N, 3) matching design, got {observed.shape}")
        if design.shape[0] < 5:
            raise RegressionError("need at least 5 reading pairs")
        weights = np.asarray(self.weights, float).reshape(-1)
        if weights.shape[0] != design.shape[0]:
            raise RegressionError("weights length must match sample count")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise RegressionError("weights must be finite and > 0")
        if not (np.all(np.isfinite(design)) and np.all(np.isfinite(observed))):
            raise RegressionError("readings must be finite")
        object.__setattr__(self, "ridge", check_real("ridge", self.ridge, error=RegressionError))
        object.__setattr__(self, "tsvd_rank",
                           check_integer("tsvd_rank", self.tsvd_rank, 1, 7, RegressionError))
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_pairs(cls, b_true: np.ndarray, b_meas: np.ndarray,
                   weights: np.ndarray | None = None, ridge: float = 0.0,
                   tsvd_rank: int = 4) -> "RegressionProblem":
        b_true = np.asarray(b_true, float).reshape(-1, 3)
        design = np.hstack([b_true, np.ones((b_true.shape[0], 1))])
        if weights is None:
            weights = np.ones(b_true.shape[0])
        return cls(design, np.asarray(b_meas, float).reshape(-1, 3),
                   weights, ridge, tsvd_rank)

    @property
    def n_samples(self) -> int:
        return self.design.shape[0]

    def with_ridge(self, ridge: float) -> "RegressionProblem":
        return RegressionProblem(self.design, self.observed, self.weights,
                                 ridge, self.tsvd_rank)


def _stacked(prob: RegressionProblem) -> np.ndarray:
    """Observations and design side by side: (N, 7) = [observed | design]."""
    return np.hstack([prob.observed, prob.design])


def tsvd_reconstruct(matrix: np.ndarray, rank: int) -> np.ndarray:
    """Best rank-``rank`` reconstruction of ``matrix`` in the Frobenius norm."""
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    rank = min(rank, s.size)
    return (u[:, :rank] * s[:rank]) @ vt[:rank]


def _truncated_parts(prob: RegressionProblem):
    """Rank-truncated (observed, design) with the exact ones column restored."""
    recon = tsvd_reconstruct(_stacked(prob), prob.tsvd_rank)
    obs_bar = recon[:, :3]
    design_bar = recon[:, 3:].copy()
    design_bar[:, 3] = 1.0  # the homogeneous coordinate carries no noise
    return obs_bar, design_bar


def solve_ols(prob: RegressionProblem) -> AffineDistortion:
    """Ordinary least squares; ignores weights and the ridge factor."""
    coeffs, _, rank, sv = np.linalg.lstsq(prob.design, prob.observed, rcond=None)
    if rank < 4:
        cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
        raise RegressionError(f"design matrix is rank deficient (cond={cond:.3g})")
    a = coeffs.T  # (3, 4)
    return AffineDistortion(a[:, :3], a[:, 3])


def solve_tls(prob: RegressionProblem) -> AffineDistortion:
    """Total least squares via the truncated-SVD nullspace partition.

    Noise in both the design and the observations is absorbed by finding the
    closest low-rank stacked matrix and reading the gain off the trailing
    right-singular subspace. The homogeneous column carries no noise, so it
    is projected out first (both sides are mean-centered, mixed LS-TLS) and
    the bias follows from the means; the centered stack keeps rank
    ``tsvd_rank - 1``.
    """
    if prob.n_samples < 7:
        raise RegressionError("total least squares needs at least 7 samples")
    rank = prob.tsvd_rank
    if rank > 4:
        raise RegressionError(
            "tsvd_rank > 4 leaves fewer than 3 trailing singular directions; "
            "the gain cannot be identified")
    x_mean = prob.design[:, :3].mean(axis=0)
    y_mean = prob.observed.mean(axis=0)
    centered = np.hstack([prob.observed - y_mean, prob.design[:, :3] - x_mean])
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    trailing = vt[max(rank - 1, 1):].T   # (6, >=3)
    top = trailing[:3]                   # observation rows
    bottom = trailing[3:]                # design rows
    if np.linalg.matrix_rank(top, tol=1e-12) < 3:
        raise RegressionError(
            "degenerate trailing singular subspace; TLS solution is not unique")
    mix, _, _, _ = np.linalg.lstsq(top, -np.eye(3), rcond=None)
    gain = (bottom @ mix).T              # (3, 3)
    bias = y_mean - gain @ x_mean
    return AffineDistortion(gain, bias)


def _weighted_parts(prob: RegressionProblem):
    """The weighted rank-truncated design and observations, ``(W Xb, W Yb)``."""
    obs_bar, design_bar = _truncated_parts(prob)
    w = prob.weights[:, None]
    return design_bar * w, obs_bar * w


def solve_wrrtls(prob: RegressionProblem) -> AffineDistortion:
    """Weighted ridge-regularized total least squares (closed form).

    Operating on the rank-truncated reconstructions, solves
    ``min ||W (Xb A^T - Yb)||_F^2 + ridge ||A||_F^2``. With unit weights this
    is the ridge-regularized TLS baseline; with additionally ridge=0 and
    tsvd_rank=7 it reduces to ordinary least squares.
    """
    xw, yw = _weighted_parts(prob)
    normal = xw.T @ xw + prob.ridge * np.eye(4)
    cond = np.linalg.cond(normal)
    if not np.isfinite(cond) or cond > _MAX_NORMAL_COND:
        raise RegressionError(
            f"weighted normal matrix is numerically singular (cond={cond:.3g}); "
            "increase the ridge factor")
    a = np.linalg.solve(normal, xw.T @ yw).T  # (3, 4)
    return AffineDistortion(a[:, :3], a[:, 3])


def solve_rrtls(prob: RegressionProblem) -> AffineDistortion:
    """Ridge-regularized TLS: the weighted solver with uniform weights."""
    uniform = RegressionProblem(prob.design, prob.observed,
                                np.ones(prob.n_samples), prob.ridge, prob.tsvd_rank)
    return solve_wrrtls(uniform)


def _lcurve(prob: RegressionProblem, ridges: np.ndarray):
    """Residual norms rho and solution norms eta of the weighted fit at every
    ridge of the ascending ``ridges``, all from one rank truncation.

    Every ridge's coefficients come from one batched solve of the normal
    equations, so they and eta are those of ``solve_wrrtls``. Each rho comes
    from one thin QR of the weighted design, ``W Xb = QR``: with
    ``B = W Yb``, ``rho^2 = ||R c - Q'B||^2 + ||B - QQ'B||^2``, and the
    second term, the part of B outside the design's column space, does not
    depend on the ridge. No (N, 3) residual is formed per ridge.

    Raises what ``solve_wrrtls`` raises at the first ridge (in order) whose
    normal matrix is singular or whose gain is. Only the smallest ridge's
    normal matrix is tested for singularity.
    """
    xw, yw = _weighted_parts(prob)
    gram = xw.T @ xw
    # The Gram matrix is symmetric positive semi-definite, so the singular
    # values of gram + r I are its eigenvalues plus r, and cond(gram + r I)
    # = (s_max + r) / (s_min + r) does not rise with r: if any ridge's normal
    # matrix is singular, the smallest ridge's is.
    cond = np.linalg.cond(gram + ridges[0] * np.eye(4))
    if not np.isfinite(cond) or cond > _MAX_NORMAL_COND:
        solve_wrrtls(prob.with_ridge(float(ridges[0])))  # raises that ridge's error
    normal = gram + ridges[:, None, None] * np.eye(4)
    # [None]: a stack of matrices for numpy 1.x too, which reads a 2-D b
    # against a 3-D a as a stack of vectors
    coeffs = np.linalg.solve(normal, (xw.T @ yw)[None])  # (K, 4, 3) = [gain | bias]^T
    gains = coeffs[:, :3].transpose(0, 2, 1)
    bad_gain = (~np.isfinite(coeffs).all(axis=(1, 2))
                | (np.abs(np.linalg.det(gains)) <= _SINGULAR_GAIN_DET))
    if bad_gain.any():
        solve_wrrtls(prob.with_ridge(float(ridges[int(np.argmax(bad_gain))])))
    q, r = np.linalg.qr(xw)
    qtb = q.T @ yw
    outside = yw - q @ qtb
    inside = r @ coeffs - qtb
    rho = np.sqrt(np.einsum("kij,kij->k", inside, inside)
                  + np.einsum("ij,ij->", outside, outside))
    eta = np.sqrt(np.einsum("kij,kij->k", coeffs, coeffs))
    return rho, eta


def _smooth(values: np.ndarray, half_width: int) -> np.ndarray:
    if half_width < 1:
        return values
    kernel = np.ones(2 * half_width + 1)
    kernel /= kernel.sum()
    padded = np.concatenate([np.repeat(values[0], half_width), values,
                             np.repeat(values[-1], half_width)])
    return np.convolve(padded, kernel, mode="valid")


def select_lambda(prob: RegressionProblem, grid: np.ndarray | None = None) -> float:
    """Pick the ridge factor at the L-curve corner.

    The corner is the maximum-curvature point of the (log residual norm,
    log solution norm) curve of the weighted problem. The curve is traced on
    a dense internal sweep spanning the requested grid (the handful of grid
    points alone make a noisy curvature estimate) and the corner is snapped
    back to the nearest grid value. A curve with no usable corner falls back
    to the smallest grid value.

    The rank truncation of the stacked data does not depend on the ridge, so
    the whole curve is traced from one truncation: one weighted Gram matrix,
    with every ridge of the sweep solved in one batch, and every residual
    norm from one thin QR of the weighted design. A ridge at which
    ``solve_wrrtls`` would fail makes this fail the same way; as the
    condition number of the normal matrix does not rise with the ridge, one
    condition number, at the smallest ridge of the sweep, decides whether
    any is singular. The grid must
    be non-empty, finite and >= 0, and > 0 where it is swept (3 or more
    values), as the sweep is log-spaced.
    """
    grid = DEFAULT_LAMBDA_GRID if grid is None else np.asarray(grid, float)
    if grid.size == 0:
        raise RegressionError("lambda grid is empty")
    if not np.all(np.isfinite(grid)):
        raise RegressionError(f"lambda grid must be finite, got {grid}")
    if np.any(grid < 0):
        raise RegressionError(f"lambda grid must be >= 0, got {grid}")
    grid = np.sort(grid)
    if grid.size == 1:
        return float(grid[0])
    if grid.size < 3:
        warnings.warn("lambda grid too short for corner detection; using smallest",
                      RuntimeWarning)
        return float(grid[0])
    if grid[0] == 0:
        raise RegressionError(f"lambda grid must be > 0 to sweep it, got {grid}")

    dense = np.logspace(np.log10(grid[0]), np.log10(grid[-1]), 160)
    rho, eta = _lcurve(prob, dense)
    log_rho = _smooth(np.log(np.maximum(rho, 1e-300)), 3)
    log_eta = _smooth(np.log(np.maximum(eta, 1e-300)), 3)
    if np.ptp(log_eta) < np.log(3.0):
        # solution norm never blows up: well conditioned, no regularization needed
        return float(grid[0])
    dx = np.gradient(log_rho)
    dy = np.gradient(log_eta)
    ddx = np.gradient(dx)
    ddy = np.gradient(dy)
    denom = (dx * dx + dy * dy) ** 1.5
    with np.errstate(divide="ignore", invalid="ignore"):
        curvature = (dx * ddy - dy * ddx) / denom
    curvature[~np.isfinite(curvature)] = -np.inf
    interior = curvature[5:-5]
    if interior.size == 0 or np.max(interior) <= 0:
        warnings.warn("L-curve has no corner; using smallest lambda", RuntimeWarning)
        return float(grid[0])
    corner_lam = dense[5 + int(np.argmax(interior))]
    snapped = grid[int(np.argmin(np.abs(np.log10(grid) - np.log10(corner_lam))))]
    return float(snapped)

