"""Block-partitioned Gaussian-process magnetic field map.

The ambient field is modeled as three independent scalar GPs (one per field
axis) sharing a single squared-exponential kernel and one Gram matrix per
spatial block. Each block caches its Cholesky factor so that queries are
cheap; a built map is immutable and safe for concurrent reads.

A multilinear interpolation baseline over lattice fingerprints is provided
for ablation studies; it exposes the same query surface (mean, variance,
gradient) so the calibration loop can consume either model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.spatial.distance import cdist

from .geometry import Dataset, as_vec3

_GRADIENT_CHUNK = 4096


class MapError(RuntimeError):
    """Map construction or query failed."""


class OutOfMapError(MapError):
    """Query position lies outside every block; callers decide skip vs abort."""


@dataclass(frozen=True)
class GpHyperparams:
    """Kernel and mean-function settings for the field map.

    ``length_scale`` [m] and ``signal_variance`` [uT^2] parameterize the
    squared-exponential kernel; ``noise_variance`` [uT^2] is the assumed
    iid observation noise. ``mean_mode`` selects the prior mean: the
    per-block average of the training fields, or zero.
    """

    length_scale: float = 1.0
    signal_variance: float = 25.0
    noise_variance: float = 0.01
    mean_mode: str = "constant_per_block"

    def __post_init__(self):
        if self.length_scale <= 0:
            raise ValueError("length_scale must be > 0")
        if self.signal_variance <= 0:
            raise ValueError("signal_variance must be > 0")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be >= 0")
        if self.mean_mode not in ("constant_per_block", "zero"):
            raise ValueError(f"unknown mean_mode {self.mean_mode!r}")


def _kernel(hyper: GpHyperparams, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared-exponential kernel matrix between point sets a (n,3), b (m,3)."""
    d2 = cdist(a, b, "sqeuclidean")
    return hyper.signal_variance * np.exp(-0.5 * d2 / hyper.length_scale**2)


@dataclass(eq=False)
class MapBlock:
    """One spatial cell with its cached GP factorization."""

    lo: np.ndarray
    hi: np.ndarray
    center: np.ndarray
    train_pos: np.ndarray    # (n, 3) positions, m
    train_field: np.ndarray  # (n, 3) map-frame fields, uT
    mean: np.ndarray         # (3,) prior mean
    chol: np.ndarray         # lower Cholesky factor of K + noise*I
    alpha: np.ndarray        # (n, 3) precomputed (K + noise*I)^-1 (fields - mean)

    @property
    def n_train(self) -> int:
        return self.train_pos.shape[0]


def _fit_block(hyper: GpHyperparams, lo, hi, pos: np.ndarray, fields: np.ndarray) -> MapBlock:
    if hyper.mean_mode == "constant_per_block":
        mean = fields.mean(axis=0)
    else:
        mean = np.zeros(3)
    gram = _kernel(hyper, pos, pos)
    gram[np.diag_indices_from(gram)] += hyper.noise_variance
    try:
        L = cholesky(gram, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise MapError(
            "Gram matrix is singular (duplicated training positions with zero "
            "noise_variance?); set noise_variance > 0"
        ) from exc
    alpha = cho_solve((L, True), fields - mean, check_finite=False)
    return MapBlock(np.asarray(lo, float), np.asarray(hi, float),
                    (np.asarray(lo, float) + np.asarray(hi, float)) / 2.0,
                    pos, fields, mean, L, alpha)


@dataclass(frozen=True)
class FieldQuery:
    """Posterior mean [uT] and per-axis predictive variance [uT^2] at one point."""

    mean: np.ndarray
    variance: np.ndarray


class MagMap:
    """Immutable GP field map over a regular grid of blocks.

    Built via :func:`build_map`. Supports point and batched queries for the
    posterior mean, the predictive variance, and the spatial gradient of the
    mean. Queries outside the (overlap-padded) grid raise
    :class:`OutOfMapError`.
    """

    def __init__(self, hyper: GpHyperparams, block_size: float, overlap: float,
                 grid_lo: np.ndarray, grid_shape: np.ndarray, blocks: dict):
        self.hyper = hyper
        self.block_size = float(block_size)
        self.overlap = float(overlap)
        self.grid_lo = np.asarray(grid_lo, float)
        self.grid_shape = np.asarray(grid_shape, int)
        self.grid_hi = self.grid_lo + self.grid_shape * self.block_size
        self.blocks = blocks  # {(i,j,k): MapBlock}, non-empty cells only
        self._centers = np.array([b.center for b in blocks.values()])
        self._keys = list(blocks.keys())

    # -- geometry ---------------------------------------------------------

    def contains(self, t) -> bool:
        t = np.asarray(t, float)
        lo = self.grid_lo - self.overlap
        hi = self.grid_hi + self.overlap
        return bool(np.all(t >= lo) and np.all(t <= hi))

    def contains_many(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, float).reshape(-1, 3)
        lo = self.grid_lo - self.overlap
        hi = self.grid_hi + self.overlap
        return np.all((ts >= lo) & (ts <= hi), axis=1)

    def _block_for(self, t: np.ndarray) -> MapBlock:
        idx = np.floor((t - self.grid_lo) / self.block_size).astype(int)
        idx = np.clip(idx, 0, self.grid_shape - 1)
        block = self.blocks.get(tuple(idx))
        if block is not None:
            return block
        # cell has no training data: fall back to the nearest populated center
        j = int(np.argmin(((self._centers - t) ** 2).sum(axis=1)))
        return self.blocks[self._keys[j]]

    def _group_by_block(self, ts: np.ndarray):
        groups: dict[int, list] = {}
        blocks: dict[int, MapBlock] = {}
        for i, t in enumerate(ts):
            block = self._block_for(t)
            key = id(block)
            groups.setdefault(key, []).append(i)
            blocks[key] = block
        for key, rows in groups.items():
            yield blocks[key], np.asarray(rows, int)

    # -- queries ----------------------------------------------------------

    def query(self, t) -> FieldQuery:
        t = as_vec3(t, "query position")
        mean, var, _ = self.query_many(t.reshape(1, 3))
        return FieldQuery(mean[0], var[0])

    def query_many(self, ts: np.ndarray, allow_outside: bool = False,
                   with_variance: bool = True):
        """Batched posterior query.

        Returns ``(means (N,3), variances (N,3), inside (N,) bool)``. When
        ``allow_outside`` is false, any outside point raises
        :class:`OutOfMapError`; otherwise outside rows are NaN with
        ``inside`` false. ``with_variance=False`` skips the triangular solve
        that dominates the query and returns ``variances`` as None.
        """
        ts = np.asarray(ts, float).reshape(-1, 3)
        inside = self.contains_many(ts)
        if not allow_outside and not np.all(inside):
            bad = ts[~inside][0]
            raise OutOfMapError(f"position {bad} is outside the mapped volume")
        means = np.full_like(ts, np.nan)
        variances = np.full_like(ts, np.nan) if with_variance else None
        if not np.any(inside):
            return means, variances, inside
        idx_in = np.flatnonzero(inside)
        pts = ts[idx_in]
        for block, rows in self._group_by_block(pts):
            sub = pts[rows]
            kstar = _kernel(self.hyper, block.train_pos, sub)       # (n, m)
            mu = block.mean + kstar.T @ block.alpha                 # (m, 3)
            means[idx_in[rows]] = mu
            if not with_variance:
                continue
            v = solve_triangular(block.chol, kstar, lower=True,
                                 check_finite=False)      # (n, m)
            var = self.hyper.signal_variance - (v * v).sum(axis=0)  # (m,)
            if np.any(var < -1e-8):
                warnings.warn(
                    f"pre-clamp predictive variance reached {var.min():.3e} uT^2; "
                    "Gram matrix is ill-conditioned", RuntimeWarning)
            var = np.clip(var, 0.0, None)
            variances[idx_in[rows]] = var[:, None]
        return means, variances, inside

    def gradient(self, t) -> np.ndarray:
        """Spatial gradient of the posterior mean at ``t``.

        Returns a 3x3 matrix, rows indexing field axes and columns spatial
        axes, computed analytically from the kernel derivative.
        """
        t = as_vec3(t, "query position")
        grads, _ = self.gradient_many(t.reshape(1, 3))
        return grads[0]

    def gradient_many(self, ts: np.ndarray, allow_outside: bool = False):
        """Batched analytic gradients: ``(grads (N,3,3), inside (N,))``."""
        ts = np.asarray(ts, float).reshape(-1, 3)
        inside = self.contains_many(ts)
        if not allow_outside and not np.all(inside):
            bad = ts[~inside][0]
            raise OutOfMapError(f"position {bad} is outside the mapped volume")
        grads = np.full((ts.shape[0], 3, 3), np.nan)
        if not np.any(inside):
            return grads, inside
        inv_ls2 = 1.0 / self.hyper.length_scale**2
        idx_in = np.flatnonzero(inside)
        pts = ts[idx_in]
        for block, rows in self._group_by_block(pts):
            for start in range(0, rows.size, _GRADIENT_CHUNK):
                chunk = rows[start:start + _GRADIENT_CHUNK]
                sub = pts[chunk]
                kstar = _kernel(self.hyper, block.train_pos, sub)       # (n, m)
                diff = block.train_pos[None, :, :] - sub[:, None, :]    # (m, n, 3)
                weighted = kstar.T[:, :, None] * diff * inv_ls2         # (m, n, 3)
                g = np.einsum("na,mns->mas", block.alpha, weighted)     # (m, 3, 3)
                grads[idx_in[chunk]] = g
        return grads, inside

    # -- introspection ------------------------------------------------------

    def n_train(self) -> int:
        return int(sum(b.n_train for b in self.blocks.values()))


def build_map(fingerprints: Dataset, hyper: GpHyperparams | None = None,
              block_size: float = 10.0, overlap: float | None = None) -> MagMap:
    """Fit the block-partitioned GP map from a fingerprint dataset.

    Readings are rotated into the map frame using each fingerprint's pose.
    Every training point is assigned to all blocks whose overlap-inflated
    bounds contain it, so queries near block edges see both sides' data.
    """
    if len(fingerprints) < 1:
        raise MapError("need at least one fingerprint to build a map")
    hyper = hyper or GpHyperparams()
    if overlap is None:
        overlap = 2.0 * hyper.length_scale
    if block_size <= 2.0 * hyper.length_scale:
        warnings.warn(
            f"block_size {block_size} m <= 2*length_scale; blocks will lean "
            "heavily on overlap data", RuntimeWarning)

    positions = fingerprints.positions()
    rotations = fingerprints.rotations()
    readings = fingerprints.readings()
    fields = np.einsum("nij,nj->ni", rotations, readings)  # sensor frame -> map frame

    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    shape = np.maximum(np.ceil((hi - lo) / block_size - 1e-12).astype(int), 1)

    blocks: dict[tuple, MapBlock] = {}
    # micron-scale buffer so block membership is immune to float rounding of
    # shifted coordinates (keeps whole-frame translations exactly equivariant)
    buffer = 1e-6
    for i in range(shape[0]):
        for j in range(shape[1]):
            for k in range(shape[2]):
                cell_lo = lo + np.array([i, j, k]) * block_size
                cell_hi = cell_lo + block_size
                mask = np.all(
                    (positions >= cell_lo - overlap - buffer)
                    & (positions <= cell_hi + overlap + buffer),
                    axis=1)
                if not np.any(mask):
                    continue
                blocks[(i, j, k)] = _fit_block(
                    hyper, cell_lo, cell_hi, positions[mask], fields[mask])
    if not blocks:
        raise MapError("no block received training data")
    return MagMap(hyper, block_size, overlap, lo, shape, blocks)


# ---------------------------------------------------------------------------
# multilinear lattice baseline


class BilinearMap:
    """Multilinear interpolation over fingerprints on a regular lattice.

    Baseline field model for ablations. Provides no predictive variance
    (``variance_at`` returns None, callers fall back to uniform weights);
    gradients come from central finite differences of the interpolant.
    Axes along which the lattice is degenerate (single level) are treated
    as directions of no field change.
    """

    _AXIS_TOL = 1e-6

    def __init__(self, fingerprints: Dataset):
        positions = fingerprints.positions()
        rotations = fingerprints.rotations()
        readings = fingerprints.readings()
        fields = np.einsum("nij,nj->ni", rotations, readings)

        axes = []
        indices = []
        for axis in range(3):
            vals = np.sort(np.unique(np.round(positions[:, axis] / self._AXIS_TOL)))
            vals = vals * self._AXIS_TOL
            axes.append(vals)
            idx = np.searchsorted(vals, positions[:, axis] - 0.5 * self._AXIS_TOL)
            indices.append(np.clip(idx, 0, len(vals) - 1))
        shape = tuple(len(a) for a in axes)
        n_expected = int(np.prod(shape))
        if n_expected != positions.shape[0]:
            raise MapError(
                f"fingerprints do not form a regular lattice: {positions.shape[0]} "
                f"samples but axis levels imply {n_expected}")
        grid = np.full(shape + (3,), np.nan)
        grid[indices[0], indices[1], indices[2]] = fields
        if np.any(np.isnan(grid)):
            raise MapError("fingerprints do not form a regular lattice: missing cells")

        self.active = [axis for axis in range(3) if len(axes[axis]) > 1]
        if not self.active:
            raise MapError("lattice is degenerate along every axis")
        squeeze = tuple(axis for axis in range(3) if len(axes[axis]) == 1)
        self._values = np.squeeze(grid, axis=squeeze) if squeeze else grid
        self._points = [axes[a] for a in self.active]
        self._interp = RegularGridInterpolator(
            self._points, self._values, method="linear", bounds_error=True)
        self.lo = np.array([axes[a][0] for a in self.active])
        self.hi = np.array([axes[a][-1] for a in self.active])

    def contains(self, t) -> bool:
        t = np.asarray(t, float)[list(self.active)]
        return bool(np.all(t >= self.lo - 1e-12) and np.all(t <= self.hi + 1e-12))

    def contains_many(self, ts: np.ndarray) -> np.ndarray:
        sub = np.asarray(ts, float).reshape(-1, 3)[:, self.active]
        return np.all((sub >= self.lo - 1e-12) & (sub <= self.hi + 1e-12), axis=1)

    def _eval(self, sub: np.ndarray) -> np.ndarray:
        clipped = np.clip(sub, self.lo, self.hi)
        return self._interp(clipped)

    def query_many(self, ts: np.ndarray, allow_outside: bool = False,
                   with_variance: bool = True):
        """Batched interpolation: ``(means (N,3), None, inside (N,))``; the
        lattice carries no variance whatever ``with_variance`` asks."""
        ts = np.asarray(ts, float).reshape(-1, 3)
        inside = self.contains_many(ts)
        if not allow_outside and not np.all(inside):
            raise OutOfMapError(f"position {ts[~inside][0]} is outside the lattice")
        means = np.full_like(ts, np.nan)
        if np.any(inside):
            means[inside] = self._eval(ts[inside][:, self.active])
        return means, None, inside

    def query(self, t) -> FieldQuery:
        mean, _, _ = self.query_many(np.asarray(t, float).reshape(1, 3))
        return FieldQuery(mean[0], None)

    def gradient_many(self, ts: np.ndarray, allow_outside: bool = False, h: float = 1e-3):
        ts = np.asarray(ts, float).reshape(-1, 3)
        inside = self.contains_many(ts)
        if not allow_outside and not np.all(inside):
            raise OutOfMapError(f"position {ts[~inside][0]} is outside the lattice")
        grads = np.full((ts.shape[0], 3, 3), np.nan)
        if np.any(inside):
            sub = ts[inside][:, self.active]
            g = np.zeros((sub.shape[0], 3, 3))
            for col, axis in enumerate(self.active):
                step = np.zeros(len(self.active))
                step[col] = h
                hi_pts = np.minimum(sub + step, self.hi)
                lo_pts = np.maximum(sub - step, self.lo)
                denom = hi_pts[:, col] - lo_pts[:, col]
                denom[denom == 0] = np.inf
                g[:, :, axis] = (self._eval(hi_pts) - self._eval(lo_pts)) / denom[:, None]
            grads[inside] = g
        return grads, inside

    def gradient(self, t) -> np.ndarray:
        grads, _ = self.gradient_many(np.asarray(t, float).reshape(1, 3))
        return grads[0]
