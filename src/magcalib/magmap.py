"""Block-partitioned Gaussian-process magnetic field map.

The ambient field is modeled as three independent scalar GPs (one per field
axis) sharing a single squared-exponential kernel and one Gram matrix per
spatial block, factored on the first query that reaches the block, so that
building or loading a map fits nothing. A map cuts its survey into blocks
itself, so a map file stores the survey once. A map is immutable and safe
for concurrent reads; its factor cache fills on first use.

A block whose training positions form a full product grid (every survey
lattice, and every box cut from one) is factored exactly through the
kernel's product over axes, straight into its slot of the map's padded
stacks: three per-axis eigendecompositions replace the O(n^3) Cholesky
factor, and a query's mean, variance and gradient cost O(n) per point, as
in grid-structured GP inference (Saatci 2012; Gilboa, Saatci and Cunningham
2015). Any other block keeps a Cholesky factor, whose triangular solve
makes the variance O(n^2) per point.

Batched queries find each point's block once, through a dense cell ->
block table built once per map: one floor/clip over all points, then one
nearest-populated-centre ``argmin`` for points whose cell holds no training
data; one dispatch serves means, variances and gradients alike. Every
lattice block a query reaches is evaluated by a fixed number of batched
numpy calls, however many blocks there are: the stacks group the points per
block into chunks of a fixed row count and give every GEMM the same shape,
so that a point's result is bit for bit the same whatever else the query
holds (:class:`_LatticeStacks`). Cholesky blocks are evaluated one block at
a time, each seeing its points in input order. On a Cholesky block the
gradient of the mean reuses the kernel columns ``k`` in two GEMMs, ``(k^T
(alpha_a * X_s) - x_s * k^T alpha_a) / l^2``, taken in block-centred
coordinates so that the cancellation scales with the block size and not
with the distance from the world origin.

A multilinear interpolation baseline over lattice fingerprints is provided
for ablation studies; it exposes the same query surface (mean, variance,
gradient) so the calibration loop can consume either model.

Importing this module loads no scipy: lattice blocks and the multilinear
baseline need numpy alone. The first Cholesky block to be factored or
queried loads ``scipy.linalg`` and ``scipy.spatial.distance``, so a process
pays that import only on the path that calls it.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import Dataset, check_choice, check_real


class MapError(RuntimeError):
    """Map construction or query failed."""


class OutOfMapError(MapError):
    """Query position lies outside every block; callers decide skip vs abort."""


@dataclass(frozen=True)
class GpHyperparams:
    """Kernel and mean-function settings for the field map.

    ``length_scale`` [m] and ``signal_variance`` [uT^2] parameterize the
    squared-exponential kernel; ``noise_variance`` [uT^2] is the assumed
    iid observation noise; the first two are > 0, the noise >= 0. ``mean_mode``
    selects the prior mean: the per-block average of the training fields, or zero.
    """

    length_scale: float = 1.0
    signal_variance: float = 25.0
    noise_variance: float = 0.01
    mean_mode: str = "constant_per_block"

    def __post_init__(self):
        for name in ("length_scale", "signal_variance", "noise_variance"):
            value = check_real(name, getattr(self, name), strict=name != "noise_variance")
            object.__setattr__(self, name, value)
        check_choice("mean_mode", self.mean_mode, ("constant_per_block", "zero"))


def _kernel(hyper: GpHyperparams, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared-exponential kernel matrix between point sets a (n,3), b (m,3),
    computed in place in the order of ``s2 * exp(-0.5 * d2 / l**2)``."""
    from scipy.spatial.distance import cdist
    k = cdist(a, b, "sqeuclidean")
    k *= -0.5
    k /= hyper.length_scale**2
    np.exp(k, out=k)
    k *= hyper.signal_variance
    return k


def _inside(field_map, ts, allow_outside: bool, volume: str) -> tuple:
    """``(ts (N, 3), inside (N,))``: the query points as floats and which of
    them ``field_map.contains_many``. Unless ``allow_outside``, the first
    outside point raises :class:`OutOfMapError`, which names ``volume``."""
    ts = np.asarray(ts, float).reshape(-1, 3)
    inside = field_map.contains_many(ts)
    if not allow_outside and not np.all(inside):
        raise OutOfMapError(f"position {ts[~inside][0]} is outside the {volume}")
    return ts, inside


_SINGULAR = ("Gram matrix is singular (duplicated training positions with zero "
             "noise_variance?); set noise_variance > 0")


@dataclass(eq=False)
class MapBlock:
    """One spatial cell: training rows, prior mean, whether they form a
    product grid (:attr:`grid`), and the factor of an off-grid block
    (:attr:`fit`), computed on the first query that reaches it. A failed
    factorization raises :class:`MapError` naming the block and is not
    cached: it raises again."""

    index: tuple             # (i, j, k) cell of the map grid
    hyper: GpHyperparams
    lo: np.ndarray
    hi: np.ndarray
    train_pos: np.ndarray    # (n, 3) positions, m
    train_field: np.ndarray  # (n, 3) map-frame fields, uT
    center: np.ndarray = field(init=False)
    mean: np.ndarray = field(init=False)  # (3,) prior mean

    def __post_init__(self):
        self.center = (self.lo + self.hi) / 2.0
        self.mean = (self.train_field.mean(axis=0)
                     if self.hyper.mean_mode == "constant_per_block" else np.zeros(3))

    @property
    def n_train(self) -> int:
        return self.train_pos.shape[0]

    @cached_property
    def grid(self):
        """:func:`_product_grid` of the training positions, or None."""
        return _product_grid(self.train_pos)

    @cached_property
    def fit(self) -> _CholeskyFit:
        """The :class:`_CholeskyFit` of an off-grid block (:attr:`grid` None); a
        lattice block is factored into its map's :class:`_LatticeStacks`."""
        return _CholeskyFit(self)


def _product_grid(pos: np.ndarray):
    """``(nodes, cell)`` when the rows of ``pos`` (n, 3) are the n distinct
    nodes of a full product grid: each axis's ascending node coordinates
    and each row's flat C-order grid cell. None otherwise."""
    nodes = tuple(np.unique(pos[:, axis]) for axis in range(3))
    shape = tuple(len(c) for c in nodes)
    if np.prod(shape) != len(pos):
        return None
    cell = np.ravel_multi_index([np.searchsorted(c, pos[:, axis])
                                 for axis, c in enumerate(nodes)], shape)
    seen = np.zeros(len(pos), bool)
    seen[cell] = True  # n rows fill all n cells only when no two share one
    return (nodes, cell) if seen.all() else None


def _clip_variance(var: np.ndarray) -> np.ndarray:
    """Variances clipped at 0, warning when one fell below -1e-8 before."""
    if np.any(var < -1e-8):
        warnings.warn(
            f"pre-clamp predictive variance reached {var.min():.3e} uT^2; "
            "Gram matrix is ill-conditioned", RuntimeWarning)
    return np.clip(var, 0.0, None)


class _CholeskyFit:
    """The factor of an off-grid block: the lower Cholesky factor of ``K +
    noise*I`` and ``alpha = (K + noise*I)^-1 (fields - mean)``. It alone
    imports ``scipy.linalg`` (here and in :meth:`query`) and, through
    :func:`_kernel`, ``scipy.spatial.distance``."""

    def __init__(self, block: MapBlock):
        from scipy.linalg import cho_solve, cholesky
        self.hyper, self.mean, self.center = block.hyper, block.mean, block.center
        self.train_pos = block.train_pos
        gram = _kernel(self.hyper, self.train_pos, self.train_pos)
        gram[np.diag_indices_from(gram)] += self.hyper.noise_variance
        try:  # symmetric: its transpose is the Fortran view LAPACK factors in place
            self.chol = cholesky(gram.T, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise MapError(f"map block {block.index}: {_SINGULAR}") from exc
        self.alpha = cho_solve((self.chol, True), block.train_field - self.mean,
                               check_finite=False)  # (n, 3)

    def query(self, sub: np.ndarray) -> tuple:
        """``(means (m, 3), variances (m,) before clipping)``."""
        from scipy.linalg import solve_triangular
        kstar = _kernel(self.hyper, self.train_pos, sub)         # (n, m)
        mu = self.mean + kstar.T @ self.alpha                     # (m, 3)
        v = solve_triangular(self.chol, kstar, lower=True, check_finite=False)  # (n, m)
        return mu, self.hyper.signal_variance - (v * v).sum(axis=0)

    def gradient(self, sub: np.ndarray) -> np.ndarray:
        """Gradients of the mean (m, 3 field axes, 3 spatial axes)."""
        kstar = _kernel(self.hyper, self.train_pos, sub)          # (n, m)
        x_train = self.train_pos - self.center                    # (n, 3)
        weighted = (self.alpha[:, :, None] * x_train[:, None, :]).reshape(-1, 9)
        k_ax = (kstar.T @ weighted).reshape(-1, 3, 3)             # (m, 3, 3)
        k_a = kstar.T @ self.alpha                                # (m, 3)
        x_sub = sub - self.center                                 # (m, 3)
        inv_ls2 = 1.0 / self.hyper.length_scale**2
        return (k_ax - k_a[:, :, None] * x_sub[:, None, :]) * inv_ls2


def _unit_kernel(d: np.ndarray, length_scale: float) -> np.ndarray:
    """Unit-variance SE kernel of coordinate differences ``d`` along one axis,
    computed in place in the order of ``exp(-0.5 * (d / l)**2)``."""
    k = d / length_scale
    k *= k
    k *= -0.5
    return np.exp(k, out=k)


_CHUNK_ROWS = 4        # query rows of every lattice GEMM, whatever the query holds
_CHUNKS_PER_CALL = 64  # chunks per batched call: one call for nearly every path query
                       # (table1: 59 chunks at the 95th percentile), and a bound on the
                       # gathered copies of block factors (2 MB on the 0.7 m map)


def _along(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``out[g, w, j] = sum_b t[g, w, j, b] f[g, w, b]`` for ``t`` (G, W, J * n_b)."""
    return np.einsum("gwjb,gwb->gwj", t.reshape(*f.shape[:2], -1, f.shape[2]), f)


class _LatticeStacks:
    """The lattice blocks of one map: each block whose training positions are
    a full product grid (:attr:`MapBlock.grid`) is factored exactly into its
    slot, and a fixed number of batched numpy calls evaluates points from any
    number of blocks.

    The SE kernel is a product over axes, so in grid order ``K + noise*I =
    Q (s2 Lx (x) Ly (x) Lz + noise*I) Q^T`` with ``Q = Qx (x) Qy (x) Qz``, where
    ``Ka = Qa La Qa^T`` is the unit-variance kernel of one axis's nodes. With
    ``D = 1 / (s2 lx ly lz + noise)`` a slot keeps ``gamma = s2 D Q^T (fields
    - mean)`` and ``s2^2 D``. A query point's kernel column projects to ``Q^T
    k = s2 w`` with ``w = (Qx^T kx) (x) (Qy^T ky) (x) (Qz^T kz)``, so the mean
    is ``w gamma`` and the variance ``s2 - (w*w) (s2^2 D)``, both contracted
    one axis at a time in O(n) per point; the gradient along an axis swaps
    that axis's ``ka`` for its derivative. An eigenvalue of ``K + noise*I``
    at or below n eps of the largest, where a Cholesky factor would break
    down, raises the singular-block error.

    Slot ``o`` belongs to block ordinal ``o``: its per-axis nodes and ``Qa``,
    its prior mean, ``gamma`` as an (n_x, 3 n_z n_y) matrix and ``s2^2 D`` as
    an (n_x, n_z n_y) one, all padded to the map's largest lattice per axis.
    Padded nodes, ``Q``, ``gamma`` and ``s2^2 D`` entries are 0. A padded
    node's kernel value is finite and meets only a zero row of ``Q``, so
    padded lanes add exact zeros. A slot is filled (:attr:`filled`) on the
    first query that reaches its block.

    Points are grouped per block, in input order, into chunks of
    ``_CHUNK_ROWS`` rows; padded rows repeat the chunk's first point and are
    dropped. A chunk's x projections meet its block's ``gamma`` in one GEMM,
    then each row contracts y and z with its own projections. Every GEMM has
    the same shape, and since BLAS results depend on the row count, a
    point's result is bit for bit the same whatever else the query holds.
    Up to ``_CHUNKS_PER_CALL`` chunks go through each batched call, with each
    chunk's slot gathered.
    """

    def __init__(self, blocks: list, hyper: GpHyperparams):
        self.blocks, self.hyper = blocks, hyper
        grids = [block.grid for block in blocks]
        self.is_lattice = np.array([grid is not None for grid in grids])
        counts = [[len(c) for c in grid[0]] for grid in grids if grid is not None]
        self.shape = tuple(np.max(counts, axis=0)) if counts else (1, 1, 1)
        nx, ny, nz = self.shape
        n, width = len(blocks), max(self.shape)
        self.nodes = np.zeros((n, 3, width))
        self.q = np.zeros((n, 3, width, width))
        self.gamma = np.zeros((n, nx, 3 * nz * ny))
        self.s4d = np.zeros((n, nx, nz * ny))
        self.mean = np.array([block.mean for block in blocks])
        self.filled = np.zeros(n, bool)

    def fill(self, slots: np.ndarray) -> None:
        """Factor the blocks of ``slots`` whose slot is empty into their slots;
        a block that fails to factor raises and leaves its slot empty."""
        nx, ny, nz = self.shape
        s2 = self.hyper.signal_variance
        for o in np.unique(slots[~self.filled[slots]]):
            block = self.blocks[o]
            nodes, cell = block.grid
            eigvals, q = zip(*(np.linalg.eigh(_unit_kernel(c[:, None] - c,
                                                           self.hyper.length_scale))
                               for c in nodes))
            lam = s2 * np.einsum("i,j,k->ijk", *eigvals) + self.hyper.noise_variance
            if not lam.min() > lam.size * np.finfo(float).eps * lam.max():
                raise MapError(f"map block {block.index}: {_SINGULAR}")
            resid = np.empty_like(block.train_field)
            resid[cell] = block.train_field - block.mean
            proj = resid.reshape(*lam.shape, 3)  # grid order
            for axis, (c, qa) in enumerate(zip(nodes, q)):  # Q^T resid, one axis at a time
                proj = np.moveaxis(np.tensordot(qa, proj, axes=(0, axis)), 0, axis)
                self.nodes[o, axis, :len(c)] = c
                self.q[o, axis, :len(c), :len(c)] = qa
            bx, by, bz = lam.shape  # stored (x, k, z, y): y varies fastest
            gamma = self.gamma[o].reshape(nx, 3, nz, ny)
            gamma[:bx, :, :bz, :by] = ((s2 / lam)[..., None] * proj).transpose(0, 3, 2, 1)
            self.s4d[o].reshape(nx, nz, ny)[:bx, :bz, :by] = (s2 * s2 / lam).transpose(0, 2, 1)
            self.filled[o] = True

    def _chunks(self, pts: np.ndarray, slots: np.ndarray):
        """Yield ``(rows, valid, sub, slot)`` per batched call: the query rows
        of the real lanes in the order of the (G, W) mask ``valid``, the chunk
        points (G, W, 3) and the chunk slots (G,)."""
        if not len(slots):
            return
        order = np.argsort(slots, kind="stable")
        ordered = slots[order]
        index = np.arange(len(order))
        starts = np.ones(len(order), bool)
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        lane = (index - np.maximum.accumulate(np.where(starts, index, 0))) % _CHUNK_ROWS
        first = lane == 0
        table = np.full((np.count_nonzero(first), _CHUNK_ROWS), -1)
        table[np.cumsum(first) - 1, lane] = order
        chunk_slot = ordered[first]
        for start in range(0, len(table), _CHUNKS_PER_CALL):
            part = table[start:start + _CHUNKS_PER_CALL]
            valid = part >= 0
            yield (part[valid], valid, pts[np.where(valid, part, part[:, :1])],
                   chunk_slot[start:start + _CHUNKS_PER_CALL])

    def _kernel_rows(self, sub: np.ndarray, slot: np.ndarray) -> tuple:
        """``(k, d)`` (G, 3, W, n): per chunk, axis and row, the kernel
        against the padded axis nodes and the differences ``x - c`` behind it."""
        d = sub.transpose(0, 2, 1)[..., None] - self.nodes[slot][:, :, None, :]
        return _unit_kernel(d, self.hyper.length_scale), d

    def _axes(self, p: np.ndarray) -> tuple:
        """Per-axis projections (G, W, n_a) out of the stacked (G, 3, W, n)."""
        return tuple(p[:, axis, :, :n] for axis, n in enumerate(self.shape))

    def query(self, pts: np.ndarray, slots: np.ndarray) -> tuple:
        """``(means (m, 3), variances (m,) before clipping)`` of the points
        ``pts`` (m, 3), each in the block of its slot."""
        means = np.empty((len(pts), 3))
        variances = np.empty(len(pts))
        for rows, valid, sub, slot in self._chunks(pts, slots):
            k, _ = self._kernel_rows(sub, slot)
            px, py, pz = self._axes(k @ self.q[slot])
            mu = self.mean[slot, None] + _along(_along(px @ self.gamma[slot], py), pz)
            means[rows] = mu[valid]
            w2 = _along(_along((px * px) @ self.s4d[slot], py * py), pz * pz)
            variances[rows] = (self.hyper.signal_variance - w2[..., 0])[valid]
        return means, variances

    def gradient(self, pts: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Gradients of the mean (m, 3 field axes, 3 spatial axes); the first
        axis's contraction ``px gamma`` serves both the y and z derivatives."""
        grads = np.empty((len(pts), 3, 3))
        w = _CHUNK_ROWS
        for rows, valid, sub, slot in self._chunks(pts, slots):
            k, d = self._kernel_rows(sub, slot)
            # rows :w project the kernel, rows w: l^2 times its derivative
            p = np.concatenate((k, -k * d), axis=2) @ self.q[slot]
            _, py, pz = self._axes(p[:, :, :w])
            _, dy, dz = self._axes(p[:, :, w:])
            a = p[:, 0, :, :self.shape[0]] @ self.gamma[slot]  # px gamma, then dx gamma
            g = np.stack([_along(_along(a[:, w:], py), pz),
                          _along(_along(a[:, :w], dy), pz),
                          _along(_along(a[:, :w], py), dz)], axis=-1)
            grads[rows] = g[valid] / self.hyper.length_scale**2
        return grads


class MagMap:
    """Immutable GP field map of one survey, over a regular grid of blocks.

    Made from the survey's ``positions`` and map-frame ``fields`` (n, 3),
    the kernel and the block geometry, which is all a map file stores; the
    map cuts the blocks itself (:meth:`_cut`). Rows that are not finite (n,
    3) of equal n >= 1, a ``block_size`` not > 0 or ``overlap`` not >= 0, and
    duplicate positions at zero ``noise_variance`` raise :class:`MapError`.
    Answers batched queries for the posterior mean, the predictive variance,
    and the spatial gradient of the mean; queries outside the
    (overlap-padded) grid raise :class:`OutOfMapError`.
    """

    def __init__(self, positions, fields, hyper: GpHyperparams, block_size: float,
                 overlap: float):
        self.hyper = hyper
        self.block_size = check_real("block_size", block_size, strict=True, error=MapError)
        self.overlap = check_real("overlap", overlap, error=MapError)
        self.positions, self.fields = rows = [np.array(a, float) for a in (positions, fields)]
        n = len(self.positions) if self.positions.ndim else 0
        if n == 0 or [a.shape for a in rows] != [(n, 3)] * 2:
            raise MapError(f"positions and fields need shapes (n, 3), (n, 3) with n >= 1, "
                           f"not {[a.shape for a in rows]}")
        if not all(np.isfinite(a).all() for a in rows):
            raise MapError("positions and fields must be finite")
        self.positions.flags.writeable = self.fields.flags.writeable = False
        if hyper.noise_variance == 0 and len(np.unique(self.positions, axis=0)) < n:
            raise MapError(_SINGULAR)
        self.grid_lo = self.positions.min(axis=0)
        extent = self.positions.max(axis=0) - self.grid_lo
        self.grid_shape = np.maximum(np.ceil(extent / self.block_size - 1e-12).astype(int), 1)
        self.grid_hi = self.grid_lo + self.grid_shape * self.block_size
        self.blocks = self._cut()  # {(i,j,k): MapBlock}, non-empty cells only
        keys = np.array(list(self.blocks), int)
        self._blocks = list(self.blocks.values())
        self._centers = np.array([b.center for b in self._blocks])
        self._cell_block = np.full(self.grid_shape, -1)  # cell -> block ordinal
        self._cell_block[tuple(keys.T)] = np.arange(len(keys))

    def _cut(self) -> dict:
        """One block per grid cell that holds survey rows: every row goes to
        all blocks whose overlap-inflated bounds contain it, so queries near
        block edges see both sides' data. Membership is tested once per axis
        and cell interval; a block's rows are the AND of its three intervals'
        tests, in survey order."""
        # micron-scale buffer so block membership is immune to float rounding of
        # shifted coordinates (keeps whole-frame translations exactly equivariant)
        buffer = 1e-6
        lo, size, pad = self.grid_lo, self.block_size, self.overlap
        inside = []  # per axis: (cells, points), point within the inflated cell interval
        for a in range(3):
            starts = lo[a] + np.arange(self.grid_shape[a])[:, None] * size
            inside.append((self.positions[:, a] >= starts - pad - buffer)
                          & (self.positions[:, a] <= starts + size + pad + buffer))
        blocks = {}
        for i, j, k in np.ndindex(*self.grid_shape):
            mask = inside[0][i] & inside[1][j] & inside[2][k]
            if np.any(mask):
                cell_lo = lo + np.array([i, j, k]) * size
                blocks[(i, j, k)] = MapBlock((i, j, k), self.hyper, cell_lo, cell_lo + size,
                                             self.positions[mask], self.fields[mask])
        return blocks

    # -- geometry ---------------------------------------------------------

    def contains_many(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, float).reshape(-1, 3)
        lo = self.grid_lo - self.overlap
        hi = self.grid_hi + self.overlap
        return np.all((ts >= lo) & (ts <= hi), axis=1)

    def _ordinals(self, ts: np.ndarray) -> np.ndarray:
        """Each point's block ordinal: the clipped cell's block, or for a cell
        with no training data the block with the nearest centre."""
        idx = np.floor((ts - self.grid_lo) / self.block_size).astype(int)
        idx = np.clip(idx, 0, self.grid_shape - 1)
        ordinal = self._cell_block[tuple(idx.T)]
        empty = ordinal < 0
        if np.any(empty):
            d2 = ((self._centers[None, :, :] - ts[empty, None, :]) ** 2).sum(axis=2)
            ordinal[empty] = np.argmin(d2, axis=1)
        return ordinal

    def _group_by_block(self, ordinal: np.ndarray):
        """Yield ``(block, rows)`` per block of the ordinals ``ordinal``;
        ``rows`` ascend, so each block sees its points in input order."""
        if not len(ordinal):
            return
        order = np.argsort(ordinal, kind="stable")
        starts = np.flatnonzero(np.diff(ordinal[order])) + 1
        for rows in np.split(order, starts):
            yield self._blocks[ordinal[rows[0]]], rows

    @cached_property
    def _lattice(self) -> _LatticeStacks:
        """The lattice blocks' stacks, made by the first query."""
        return _LatticeStacks(self._blocks, self.hyper)

    def _evaluate(self, pts: np.ndarray, method: str):
        """Yield ``(rows, result)``: ``method`` (``"query"`` or
        ``"gradient"``) of the lattice stacks over the points ``pts`` in
        lattice blocks, whose slots this fills, then of each other block's
        Cholesky fit over its points. Block ordinals are found once."""
        stacks = self._lattice
        ordinal = self._ordinals(pts)
        lattice = stacks.is_lattice[ordinal]
        rows = np.flatnonzero(lattice)
        stacks.fill(ordinal[rows])
        yield rows, getattr(stacks, method)(pts[rows], ordinal[rows])
        other = np.flatnonzero(~lattice)
        for block, sub in self._group_by_block(ordinal[other]):
            yield other[sub], getattr(block.fit, method)(pts[other[sub]])

    # -- queries ----------------------------------------------------------

    def query_many(self, ts: np.ndarray, allow_outside: bool = False):
        """Batched posterior query.

        Returns ``(means (N,3), variances (N,3), inside (N,) bool)``. When
        ``allow_outside`` is false, any outside point raises
        :class:`OutOfMapError`; otherwise outside rows are NaN with
        ``inside`` false.
        """
        ts, inside = _inside(self, ts, allow_outside, "mapped volume")
        means = np.full_like(ts, np.nan)
        variances = np.full_like(ts, np.nan)
        if not np.any(inside):
            return means, variances, inside
        idx_in = np.flatnonzero(inside)
        for rows, (mu, var) in self._evaluate(ts[idx_in], "query"):
            means[idx_in[rows]] = mu
            variances[idx_in[rows]] = _clip_variance(var)[:, None]
        return means, variances, inside

    def gradient_many(self, ts: np.ndarray):
        """Batched analytic gradients of the posterior mean: ``(grads (N,3,3),
        inside (N,))``, rows of each 3x3 indexing field axes and columns
        spatial axes. Any outside point raises :class:`OutOfMapError`, so
        ``inside`` is all true."""
        ts, inside = _inside(self, ts, False, "mapped volume")
        grads = np.empty((ts.shape[0], 3, 3))
        for rows, g in self._evaluate(ts, "gradient"):
            grads[rows] = g
        return grads, inside

    # -- introspection ------------------------------------------------------

    def n_train(self) -> int:
        return int(sum(b.n_train for b in self.blocks.values()))


def build_map(fingerprints: Dataset, hyper: GpHyperparams | None = None,
              block_size: float = 10.0, overlap: float | None = None) -> MagMap:
    """The :class:`MagMap` of a fingerprint dataset: each reading rotated
    into the map frame by its fingerprint's pose. ``overlap`` defaults to
    two length scales. Nothing is factored here: each block fits on its
    first query. Warns when ``block_size`` is at most two length scales,
    since the blocks then lean heavily on overlap data.
    """
    hyper = hyper or GpHyperparams()
    if overlap is None:
        overlap = 2.0 * hyper.length_scale
    fields = np.einsum("nij,nj->ni", fingerprints.rotations(), fingerprints.readings())
    field_map = MagMap(fingerprints.positions(), fields, hyper, block_size, overlap)
    if field_map.block_size <= 2.0 * hyper.length_scale:
        warnings.warn(
            f"block_size {block_size} m <= 2*length_scale; blocks will lean "
            "heavily on overlap data", RuntimeWarning)
    return field_map


# ---------------------------------------------------------------------------
# multilinear lattice baseline

_FD_STEP = 1e-3  # m, central-difference step of BilinearMap.gradient_many


class BilinearMap:
    """Multilinear interpolation over fingerprints on a full product lattice.

    Baseline field model for ablations. Its axis nodes and each
    fingerprint's cell come from :func:`_product_grid`, so the positions
    must be exactly the distinct nodes of a full product grid; anything
    else, a lattice off by rounding included, raises :class:`MapError`
    naming the lattice. Provides no predictive variance (``query_many``
    returns None variances, and callers fall back to uniform weights);
    gradients come from central finite differences of the interpolant, with
    every shifted point of a query evaluated in one call. Axes along which
    the lattice is degenerate (single level) are treated as directions of no
    field change.
    """

    def __init__(self, fingerprints: Dataset):
        positions = fingerprints.positions()
        fields = np.einsum("nij,nj->ni", fingerprints.rotations(), fingerprints.readings())
        grid = _product_grid(positions)
        if grid is None:
            raise MapError(f"fingerprints do not form a regular lattice: their "
                           f"{len(positions)} positions are not the nodes of a full "
                           "product grid")
        nodes, cell = grid
        self.active = [axis for axis in range(3) if len(nodes[axis]) > 1]
        if not self.active:
            raise MapError("lattice is degenerate along every axis")
        self._nodes = [nodes[axis] for axis in self.active]
        values = np.empty_like(fields)
        values[cell] = fields
        self._values = values.reshape(*(len(c) for c in self._nodes), 3)
        self.lo = np.array([c[0] for c in self._nodes])
        self.hi = np.array([c[-1] for c in self._nodes])

    def contains_many(self, ts: np.ndarray) -> np.ndarray:
        sub = np.asarray(ts, float).reshape(-1, 3)[:, self.active]
        return np.all((sub >= self.lo - 1e-12) & (sub <= self.hi + 1e-12), axis=1)

    def _eval(self, sub: np.ndarray) -> np.ndarray:
        """The interpolant (n, 3) at the active coordinates ``sub`` (n, k),
        clipped into the lattice: the 2^k corners of each point's cell in C
        order, each weighted by its axis factors multiplied left to right and
        added to a running sum from 0, the order of scipy's linear grid
        interpolator, whose values it gives bit for bit."""
        sub = np.clip(sub, self.lo, self.hi)
        cell, frac = [], []
        for c, x in zip(self._nodes, sub.T):
            i = np.clip(np.searchsorted(c, x, side="right") - 1, 0, len(c) - 2)
            cell.append(i)
            frac.append((x - c[i]) / (c[i + 1] - c[i]))
        value = 0.0
        for corner in itertools.product((0, 1), repeat=len(cell)):
            weight = 1.0
            for up, y in zip(corner, frac):
                weight = weight * (y if up else 1 - y)
            term = self._values[tuple(i + up for i, up in zip(cell, corner))] * weight[:, None]
            value = value + term
        return value

    def query_many(self, ts: np.ndarray, allow_outside: bool = False):
        """Batched interpolation: ``(means (N,3), None, inside (N,))``."""
        ts, inside = _inside(self, ts, allow_outside, "lattice")
        means = np.full_like(ts, np.nan)
        if np.any(inside):
            means[inside] = self._eval(ts[inside][:, self.active])
        return means, None, inside

    def gradient_many(self, ts: np.ndarray):
        """Central-difference gradients of the interpolant: ``(grads (N,3,3),
        inside (N,))``. Any outside point raises :class:`OutOfMapError`, so
        ``inside`` is all true."""
        ts, inside = _inside(self, ts, False, "lattice")
        sub = ts[:, self.active]
        n, k = sub.shape
        steps = _FD_STEP * np.eye(k)[:, None]  # (k, 1, k): one shift per active axis
        hi_pts = np.minimum(sub + steps, self.hi)  # (k, n, k)
        lo_pts = np.maximum(sub - steps, self.lo)
        shifted = np.concatenate([hi_pts, lo_pts]).reshape(-1, k)
        hi_vals, lo_vals = self._eval(shifted).reshape(2, k, n, 3)
        axis = np.arange(k)
        denom = hi_pts[axis, :, axis] - lo_pts[axis, :, axis]  # (k, n)
        denom[denom == 0] = np.inf
        grads = np.zeros((n, 3, 3))
        grads[:, :, self.active] = ((hi_vals - lo_vals) / denom[..., None]).transpose(1, 2, 0)
        return grads, inside
