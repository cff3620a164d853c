"""Two-step joint calibration: closed-form intrinsic solve inside an outer
Gauss-Newton iteration over the sensor's lever arm.

Each outer iteration projects the magnetometer to map coordinates using the
current lever-arm estimate, queries the field map (mean and confidence),
rotates the prediction back into the LiDAR frame, refits the affine
distortion in closed form, and then takes a damped Gauss-Newton step on the
lever arm using the analytic map gradient. The step follows the reduced
cost, the squared residual with the distortion refitted at every lever arm:
its Jacobian is the fixed-distortion one (:func:`jacobian`) projected onto
what the inner fit cannot absorb (variable projection, Golub & Pereyra
1973, in Kaufman's 1975 form). Samples that project outside the mapped
volume are skipped (with an abort threshold) or abort the run, depending on
configuration.

The input is one sensor's :class:`~magcalib.geometry.Dataset`: its poses
are the LiDAR poses (lidar -> map) and its readings the raw magnetometer
measurements. The Dataset has validated every row once, so every evaluation
reads its columns as they are stored.

The loop converges on a short accepted step, and it also stops, converged,
as soon as raising the damping could no longer change the answer: when a
rejected step is already shorter than the tolerance, or when the model
predicts a negligible reduction for the first rejected step of an
iteration. It does not climb a ladder of ever more damped steps to a
nanometre-long one.

A local method can settle in a wrong basin and still see its steps shrink,
so a short step alone does not make a result trustworthy. The final
residuals are held to a chi-square test against the measurement noise plus
the map's predictive variance. A fit that fails it is re-seeded once from
the best node of a coarse lattice local to the initial guess, and is
reported as not converged, with the reason, if it stays implausible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .geometry import Dataset, as_vec3, check_choice, check_integer, check_real
from .intrinsic import (
    AffineDistortion,
    RegressionError,
    RegressionProblem,
    select_lambda,
    solve_ols,
    solve_rrtls,
    solve_wrrtls,
    weights_from_variance,
)

_COST_SLACK = 1e-9       # accepted steps may not raise the cost by more than this
_COND_DAMPING = 1e8      # normal-system condition number that triggers damping
_MAX_REJECTS = 25
_PREDICTED_FLOOR = 1e-6  # a first rejected step whose model reduction -(J'e).step is at
                         # most this share of the cost ends the run converged: damping only
                         # lowers that reduction, so no later rung predicts more
_REJECT_DAMPING = 0.1    # after a rejection the damping is at least this times the normal
                         # matrix's least eigenvalue, so that every rung shortens the step
_FLAT_NORMAL = 1e-9      # trace(J'J) below this: no lever-arm signal survives the fit
_PLAUSIBILITY_LEVEL = 0.999  # chi-square quantile the whitened final cost must stay under
_FITTED_PARAMETERS = 15      # 3 lever-arm + 12 affine parameters absorb residual dofs
_RESEED_HALF_WIDTH = 1.0     # m; re-seed lattice spans the +-1 m cube around the guess
_RESEED_STEP = 0.5           # m between re-seed lattice nodes


class CalibrationError(RuntimeError):
    """Calibration could not run (bad input, too many samples off the map, an
    inner fit that failed)."""


class NonConvergenceError(CalibrationError):
    """A damped normal system of the lever-arm step is singular or gives a
    non-finite step; the Levenberg-Marquardt loop rejects that step."""


@dataclass(frozen=True)
class CalibrationConfig:
    """Optimizer knobs; the lever-arm damping is none of them, it is set by
    :func:`_levenberg_marquardt` alone.

    ``lambda_policy`` is ``"fixed"`` (use ``lambda_value``) or ``"l_curve"``
    (re-select the ridge factor every iteration). ``intrinsic_solver`` picks
    the inner closed-form solver: ``wrrtls`` (weighted, default), ``rrtls``
    (unweighted), or ``ols``. ``out_of_map_policy`` is ``skip_sample`` or
    ``abort``. ``max_iterations`` (>= 1) and ``tsvd_rank`` (in [1, 7]) are
    integers, not bools, held as ``int``; ``step_tolerance`` is > 0,
    ``lambda_value`` and ``measurement_noise`` are >= 0, held as floats.
    Neither a sweep report nor a result file records any of them.
    """

    max_iterations: int = 100
    step_tolerance: float = 1e-5
    lambda_policy: str = "fixed"
    lambda_value: float = 1e-6
    tsvd_rank: int = 4
    out_of_map_policy: str = "skip_sample"
    intrinsic_solver: str = "wrrtls"
    measurement_noise: float = 0.1  # uT, folded into the per-sample weights

    def __post_init__(self):
        for name, low, high in (("max_iterations", 1, None), ("tsvd_rank", 1, 7)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), low, high))
        for name in ("step_tolerance", "lambda_value", "measurement_noise"):
            value = check_real(name, getattr(self, name), strict=name == "step_tolerance")
            object.__setattr__(self, name, value)
        for name, choices in (("lambda_policy", ("fixed", "l_curve")),
                              ("out_of_map_policy", ("skip_sample", "abort")),
                              ("intrinsic_solver", ("wrrtls", "rrtls", "ols"))):
            check_choice(name, getattr(self, name), choices)


@dataclass(frozen=True, eq=False)
class CalibrationInput:
    """Everything one sensor's calibration needs.

    ``field_map`` is any object with ``query_many``/``gradient_many`` (the GP
    map or the multilinear baseline); ``data`` the sensor's :class:`Dataset`,
    whose poses are the LiDAR poses (lidar -> map) and whose readings are the
    raw magnetometer measurements in uT; ``initial_translation`` the
    lever-arm starting guess [m], which must have 3 finite components.
    """

    field_map: object
    data: Dataset
    initial_translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "initial_translation",
                           as_vec3(self.initial_translation, "initial_translation"))
        if len(self.data) < 5:
            raise CalibrationError("need at least 5 samples to calibrate")


@dataclass
class CalibrationResult:
    """Output of :func:`calibrate`.

    ``translation`` is the estimated lever arm [m], ``distortion`` the
    estimated affine corruption, ``trace`` the per-iteration list of
    (lever-arm copy, total squared residual). After a re-seed the trace runs
    on from the lattice node, which is only taken when its cost is below
    the stalled fit's, so the trace stays non-increasing; ``iterations``
    counts the accepted steps of both runs. ``skipped_samples`` counts
    off-map samples at the final iterate.

    ``converged`` is true only when the run stopped on a short step or a
    spent model (an accepted step shorter than ``step_tolerance``, a
    rejected one shorter than that, or a first rejected step of an
    iteration whose predicted reduction is negligible; see
    :func:`_levenberg_marquardt`) and the final residuals pass the
    plausibility test (or the map has no variance to test them with).
    ``message`` is empty for a plain converged run; otherwise it names why
    the run stopped, that it was re-seeded, that the fit is implausible
    (with the residual RMS against the expected RMS), or that the test
    could not be applied.
    """

    translation: np.ndarray
    distortion: AffineDistortion
    converged: bool
    iterations: int
    final_rms: float
    trace: list
    skipped_samples: int = 0
    message: str = ""


def classify_success(t_hat, t_gt) -> str:
    """Bucket an extrinsic estimate by distance to truth: within 2 cm is
    ``small``, within 5 cm ``medium``, otherwise ``failure``."""
    dist = float(np.linalg.norm(np.asarray(t_hat, float) - np.asarray(t_gt, float)))
    if dist <= 0.02:
        return "small"
    if dist <= 0.05:
        return "medium"
    return "failure"


# ---------------------------------------------------------------------------
# one evaluation of the two-step model at a fixed lever arm


@dataclass
class _EvalState:
    inside: np.ndarray          # (N,) bool
    rotations: np.ndarray       # (n_in, 3, 3) LiDAR rotations of the inside samples
    positions: np.ndarray       # (n_in, 3) their sensor positions in the map frame
    distortion: AffineDistortion
    residuals: np.ndarray       # (n_in, 3)
    cost: float                 # total squared residual
    variances: np.ndarray | None  # (n_in, 3) map predictive variance, None if unmodelled
    design: np.ndarray | None   # (n_in, 4) [b_ref | 1] the inner fit was given, None
                                # when the distortion was held fixed
    weights: np.ndarray | None  # (n_in,) that fit's row weights, None likewise

    @property
    def mean_cost(self) -> float:
        return self.cost / max(self.residuals.shape[0], 1)


def _evaluate(inp: CalibrationInput, t: np.ndarray, config: CalibrationConfig,
              distortion: AffineDistortion | None = None) -> _EvalState:
    rotations = inp.data.rotations()
    positions = rotations @ t + inp.data.positions()
    n = positions.shape[0]
    means, variances, inside = inp.field_map.query_many(positions, allow_outside=True)
    n_in = int(inside.sum())
    if n_in == 0:
        raise CalibrationError("all samples project outside the mapped volume")
    if config.out_of_map_policy == "abort" and n_in < n:
        raise CalibrationError(f"{n - n_in} samples project outside the map "
                               "(out_of_map_policy=abort)")
    if n_in < 0.5 * n:
        raise CalibrationError(f"more than half the samples ({n - n_in}/{n}) "
                               "project outside the mapped volume")
    rot_in = rotations[inside]
    predicted_ref = np.einsum("nji,nj->ni", rot_in, means[inside])
    measured = inp.data.readings()[inside]
    var_in = None if variances is None else variances[inside]

    design = weights = None
    if distortion is None:
        if n_in < 5:
            raise CalibrationError(f"only {n_in} of {n} samples project inside the "
                                   "mapped volume; the fit needs at least 5")
        if var_in is not None and config.intrinsic_solver == "wrrtls":
            weights = weights_from_variance(var_in, config.measurement_noise)
        solve = {"ols": solve_ols, "rrtls": solve_rrtls,
                 "wrrtls": solve_wrrtls}[config.intrinsic_solver]
        try:
            prob = RegressionProblem.from_pairs(predicted_ref, measured, weights,
                                                config.lambda_value, config.tsvd_rank)
            if config.intrinsic_solver != "ols" and config.lambda_policy == "l_curve":
                prob = prob.with_ridge(select_lambda(prob))
            distortion = solve(prob)
        except RegressionError as exc:
            raise CalibrationError(f"the inner fit failed: {exc}") from exc
        design, weights = prob.design, prob.weights

    residuals = predicted_ref @ distortion.gain.T + distortion.bias - measured
    cost = float(np.sum(residuals**2))
    return _EvalState(inside, rot_in, positions[inside], distortion, residuals,
                      cost, var_in, design, weights)


def residual(inp: CalibrationInput, t, distortion: AffineDistortion) -> np.ndarray:
    """Per-sample residuals (n_in, 3): distorted map prediction minus
    measurement, at lever arm ``t`` with a fixed distortion."""
    return _evaluate(inp, np.asarray(t, float).reshape(3), CalibrationConfig(),
                     distortion).residuals


def _jacobian(field_map, state: _EvalState) -> np.ndarray:
    """Stacked (3*n_in, 3) lever-arm derivative of ``state``'s residuals with
    its distortion held fixed."""
    grads, _ = field_map.gradient_many(state.positions)
    rot = state.rotations
    return (state.distortion.gain @ (rot.transpose(0, 2, 1) @ grads @ rot)).reshape(-1, 3)


def _projected_jacobian(field_map, state: _EvalState) -> np.ndarray:
    """Stacked (3*n_in, 3) Jacobian of the reduced cost at a fitted ``state``
    (Kaufman's variable projection).

    With X the design and W = diag(w) the row weights of ``state``'s inner
    fit, each of the nine per-sample columns of :func:`_jacobian` (one per
    residual axis and lever-arm axis) is taken to its part that the fit
    cannot absorb, ``J - X (X'W^2X)^-1 X'W^2 J``. From one thin QR,
    ``WX = QR``, that is ``J - W^-1 Q Q' W J``. Kaufman drops the second
    term of the exact derivative, the one through the fit's residual e. For
    OLS, e is orthogonal to the design, so that term adds nothing to the
    gradient and ``2 J_K'e`` is the reduced cost's gradient exactly.
    """
    jac = _jacobian(field_map, state).reshape(-1, 9)
    w = state.weights[:, None]
    q, _ = np.linalg.qr(state.design * w)
    return (jac - q @ (q.T @ (jac * w)) / w).reshape(-1, 3)


def jacobian(inp: CalibrationInput, t, distortion: AffineDistortion) -> np.ndarray:
    """Stacked (3*n_in, 3) derivative of the residuals in the lever arm at a
    fixed distortion, the derivative of :func:`residual`.

    Per sample: gain @ R^T @ (map gradient at the projected position) @ R,
    the chain of the rotate-back step with the map-frame projection. The
    optimizer steps on its projection (:func:`_projected_jacobian`), since
    it refits the distortion at every lever arm.
    """
    state = _evaluate(inp, np.asarray(t, float).reshape(3), CalibrationConfig(), distortion)
    return _jacobian(inp.field_map, state)


def _initial_damping(normal: np.ndarray, mu: float) -> tuple:
    """``(mu, base)``: the damping to start from and the least damping of a
    rung after a rejection. ``base`` is 1e-6 of the normal matrix's mean
    eigenvalue, or ``_REJECT_DAMPING`` times its least eigenvalue when that
    is larger. An undamped start (``mu == 0``) is raised to ``base`` when the
    (finite) normal matrix is ill-conditioned; the least eigenvalue is then
    too small to raise ``base``."""
    base = max(np.trace(normal) / 3.0, np.finfo(float).tiny) * 1e-6
    if np.all(np.isfinite(normal)):
        base = max(base, _REJECT_DAMPING * np.linalg.eigvalsh(normal)[0])
        if mu == 0.0 and np.linalg.cond(normal) > _COND_DAMPING:
            mu = base
    return mu, base


def _damped_solve(normal: np.ndarray, gradient: np.ndarray, mu: float) -> np.ndarray:
    """The step solving ``(J'J + mu I) step = -J'e`` from ``normal = J'J``
    and ``gradient = J'e``."""
    try:
        step = np.linalg.solve(normal + mu * np.eye(3), -gradient)
    except np.linalg.LinAlgError:
        raise NonConvergenceError(f"normal system singular at damping {mu:.3g}") from None
    if not np.all(np.isfinite(step)):
        raise NonConvergenceError(f"non-finite step at damping {mu:.3g}")
    return step


def gauss_newton_step(jac: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Solve the 3x3 normal system for one undamped lever-arm increment,
    damped by :func:`_initial_damping` only when ill-conditioned. A singular
    system or a non-finite step raises :class:`NonConvergenceError`; nothing
    here retries."""
    jac = np.asarray(jac, float).reshape(-1, 3)
    e = np.asarray(residuals, float).reshape(-1)
    if jac.shape[0] != e.shape[0]:
        raise ValueError("jacobian and residual sizes disagree")
    normal = jac.T @ jac
    mu, _ = _initial_damping(normal, 0.0)
    return _damped_solve(normal, jac.T @ e, mu)


@dataclass
class _Fit:
    """Where one Levenberg-Marquardt run ended."""

    t: np.ndarray
    state: _EvalState
    trace: list
    iterations: int
    converged: bool
    message: str


def _levenberg_marquardt(inp: CalibrationInput, t: np.ndarray, state: _EvalState,
                         config: CalibrationConfig) -> _Fit:
    """Damped Gauss-Newton on the lever arm from ``t`` (evaluated as ``state``).

    Every step solves the damped normal system of
    :func:`_projected_jacobian`, the reduced cost's Jacobian, and not of the
    fixed-distortion :func:`_jacobian`, whose normal matrix leaves out that
    the distortion is refitted at each lever arm and so converges only
    linearly. This is the one owner of the damping: a failed or cost-raising
    step escalates it, to at least ``base`` of :func:`_initial_damping` and
    then tenfold per rung, and an accepted one decays it. A candidate at
    which the map or the inner fit fails counts as a rejected step.

    The run converges on an accepted step shorter than
    ``config.step_tolerance``, and it stops converged, at the current
    iterate, as soon as the damping ladder cannot change the answer (Moré
    1978; MINPACK's ``xtol`` and ``ftol``):

    * a rejected step shorter than ``step_tolerance``: every later rung is
      shorter still;
    * a first rejected step of an iteration whose model reduction
      ``-(J_K'e) . step`` is at most ``_PREDICTED_FLOOR`` of the cost: more
      damping only lowers it.

    ``J_K'e`` is half the reduced cost's gradient for OLS, so there the
    second test bounds the gain that the reduced cost's Gauss-Newton model
    allows any rung. For rrtls and w-RRTLS it is not, since the rank-4
    truncation is no projection onto the design and the weights follow the
    map variance at ``t``. There the second test, like the step tests,
    stops where the model has no descent left, not the reduced cost, and
    the tolerance it leaves is that gradient gap: at the end points of the
    seed-20 ``table1_dense`` op, a Gauss-Newton model on the
    central-difference gradient of the reduced cost still predicts 5e-5 of
    the cost in the median and 4e-3 at most, with these tests as without.
    """
    trace = [(t.copy(), state.cost)]
    converged = False
    message = ""
    mu = 0.0
    iterations = 0

    for _ in range(config.max_iterations):
        jac = _projected_jacobian(inp.field_map, state)
        normal = jac.T @ jac
        if np.trace(normal) < _FLAT_NORMAL:
            message = "field gradient is degenerate; lever arm is unobservable"
            break
        gradient = jac.T @ state.residuals.reshape(-1)
        mu, base = _initial_damping(normal, mu)

        for reject in range(_MAX_REJECTS):
            step = None
            try:
                step = _damped_solve(normal, gradient, mu)
                cand_state = _evaluate(inp, t + step, config)
            except CalibrationError:  # NonConvergenceError and failed fits included
                pass
            else:
                slack = _COST_SLACK / max(cand_state.residuals.shape[0], 1)
                if cand_state.mean_cost <= state.mean_cost + slack:
                    break
            if step is not None and (
                    np.linalg.norm(step) < config.step_tolerance
                    or reject == 0
                    and -(gradient @ step) <= _PREDICTED_FLOOR * state.cost):
                converged = True  # no rung can change the answer
                break
            mu = max(mu * 10.0, base)  # reject: escalate
        else:
            message = "damping escalation exhausted without a descent step"
            break
        if converged:
            break

        t = t + step
        state = cand_state
        iterations += 1
        trace.append((t.copy(), state.cost))
        mu = 0.0 if mu <= base else mu * 0.1  # accept: decay
        if np.linalg.norm(step) < config.step_tolerance:
            converged = True
            break
    else:
        message = "max_iterations reached"
    return _Fit(t, state, trace, iterations, converged, message)


def _join(*parts: str) -> str:
    return "; ".join(p for p in parts if p)


def _implausibility(state: _EvalState, config: CalibrationConfig) -> str:
    """Why the residuals at ``state`` are too large to be noise plus map
    error, or ``""`` when they are in line with them.

    Each sample's squared residual norm is whitened by the variance the
    model expects of it, the map's summed per-axis predictive variance plus
    three axes of measurement noise, floored as in
    :func:`weights_from_variance`. The sum is a chi-square variable with
    ``3*n_in - 15`` degrees of freedom, held to its ``_PLAUSIBILITY_LEVEL``
    quantile, which :func:`_chi2_upper_quantile` computes with the standard
    library alone (no scipy), once per dof.
    """
    weights = weights_from_variance(state.variances, config.measurement_noise)
    sq = np.sum(state.residuals**2, axis=1)
    statistic = 3.0 * float(sq @ weights)
    dof = max(3 * sq.size - _FITTED_PARAMETERS, 1)
    bound = _chi2_upper_quantile(dof, 1.0 - _PLAUSIBILITY_LEVEL)
    if statistic <= bound:
        return ""
    return (f"implausible fit: residual RMS {np.sqrt(sq.mean()):.3g} uT against "
            f"{np.sqrt(np.mean(1.0 / weights)):.3g} uT expected from noise and map "
            f"variance (chi-square {statistic:.0f} > {bound:.0f}, the "
            f"{_PLAUSIBILITY_LEVEL} quantile at {dof} dof)")


def _log_upper_gamma(a: float, z: float) -> float:
    """``log Q(a, z)``, the log of the regularized upper incomplete gamma
    function, from its continued fraction evaluated by Lentz's method; it
    converges fast for ``z > a + 1``."""
    tiny, eps = 1e-300, np.finfo(float).eps
    b = z + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= eps:
            break
    return a * math.log(z) - z - math.lgamma(a) + math.log(h)


@lru_cache(maxsize=None)
def _chi2_upper_quantile(dof: int, tail: float) -> float:
    """The ``x`` at which a chi-square variable with ``dof`` degrees of
    freedom exceeds ``x`` with probability ``tail`` (scipy's ``chdtri(dof,
    tail)``), for tails well below 1/2, memoized.

    Newton's method on ``log Q(dof/2, x/2) = log(tail)`` from the
    Wilson-Hilferty approximation, stopping after a step below 1e-10 of
    ``x``: the convergence is quadratic, so that step leaves only rounding.
    """
    a = 0.5 * dof
    c = 2.0 / (9.0 * dof)
    x = dof * (1.0 - c + NormalDist().inv_cdf(1.0 - tail) * math.sqrt(c)) ** 3
    for _ in range(100):
        z = 0.5 * x
        log_q = _log_upper_gamma(a, z)
        # d log Q / dx = -(chi-square density at x) / Q
        slope = -0.5 * math.exp((a - 1.0) * math.log(z) - z - math.lgamma(a) - log_q)
        step = (log_q - math.log(tail)) / slope
        x = max(x - step, 0.5 * x)
        if abs(step) <= 1e-10 * x:
            break
    return x


def _reseed_node(inp: CalibrationInput, config: CalibrationConfig):
    """Best node of a coarse lattice around the initial guess, or None.

    Nodes step ``_RESEED_STEP`` through the ``+-_RESEED_HALF_WIDTH`` cube
    centred on ``inp.initial_translation`` and are ranked by the cost of
    :func:`_evaluate` with the OLS solver; nodes that put any sample off the
    map, or whose fit fails, are left out.
    """
    axis = np.arange(-_RESEED_HALF_WIDTH, _RESEED_HALF_WIDTH + 1e-9, _RESEED_STEP)
    nodes = inp.initial_translation + np.stack(
        np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    probe = replace(config, intrinsic_solver="ols", out_of_map_policy="abort")
    best, best_cost = None, np.inf
    for node in nodes:
        try:
            cost = _evaluate(inp, node, probe).cost
        except CalibrationError:
            continue
        if cost < best_cost:
            best, best_cost = node, cost
    return best


def _reseed(inp: CalibrationInput, config: CalibrationConfig, fit: _Fit) -> _Fit:
    """Restart from the best local lattice node if it beats ``fit``'s cost.

    The restart's trace and iterations continue ``fit``'s; since it starts
    below ``fit``'s final mean cost and never climbs, the joined trace stays
    non-increasing. When no node beats ``fit``, ``fit`` is kept and its
    message says so.
    """
    node = _reseed_node(inp, config)
    node_state = None
    if node is not None:
        try:
            node_state = _evaluate(inp, node, config)
        except CalibrationError:
            pass
    if node_state is None or node_state.mean_cost >= fit.state.mean_cost:
        fit.message = _join(fit.message,
                            "no local lattice node beat the implausible fit")
        return fit
    restart = _levenberg_marquardt(inp, node, node_state, config)
    restart.trace = fit.trace + restart.trace
    restart.iterations += fit.iterations
    restart.message = _join(
        restart.message,
        f"re-seeded from local lattice node {np.round(node, 3).tolist()} "
        "after an implausible fit")
    return restart


def calibrate(inp: CalibrationInput, config: CalibrationConfig | None = None) -> CalibrationResult:
    """Run the full two-step optimization from ``inp.initial_translation``.

    Levenberg-Marquardt iterates until an accepted lever-arm increment drops
    below ``config.step_tolerance`` or ``config.max_iterations`` is hit. Its
    steps follow the reduced-cost Jacobian (variable projection, see
    :func:`_projected_jacobian`); the public :func:`jacobian` stays the
    fixed-distortion derivative of :func:`residual`. Steps that would raise
    the cost, or at which the map or the inner fit fails, are rejected and
    retried with escalated damping. The run also converges, at the last
    accepted iterate, on a rejected step shorter than ``step_tolerance`` or
    on a first rejected step whose predicted reduction is at most
    ``_PREDICTED_FLOOR`` of the cost, since more damping cannot change the
    answer then. A flat field (no usable gradient) or exhausted damping
    reports ``converged=False`` rather than raising. Input it cannot
    fit at the initial guess, among it fewer than 5 samples on the map,
    raises :class:`CalibrationError`.

    The end point is then put to a plausibility test: its residuals must be
    no larger than the measurement noise plus the map's predictive variance
    explain (a chi-square test, see :func:`_implausibility`). A fit that
    fails it has likely stalled in a wrong basin. It is re-seeded once from
    the best node of a coarse lattice (0.5 m step, +-1 m cube around the
    initial guess, nodes ranked by :func:`_evaluate`'s OLS cost), and the
    run restarts there if that node's cost is lower. A fit still implausible
    after that reports ``converged=False`` with the reason in ``message``. A
    map without predictive variance skips the test and says so in
    ``message``.
    """
    config = config or CalibrationConfig()
    t = np.array(inp.initial_translation, float)

    state = _evaluate(inp, t, config)
    fit = _levenberg_marquardt(inp, t, state, config)
    converged, message = fit.converged, fit.message
    if fit.state.variances is None:
        message = _join(message, "plausibility test not applied: the map "
                                 "gives no predictive variance")
    elif _implausibility(fit.state, config):
        fit = _reseed(inp, config, fit)
        reason = _implausibility(fit.state, config)
        converged = fit.converged and not reason
        message = _join(fit.message, reason)

    state = fit.state
    n_in = state.residuals.shape[0]
    final_rms = float(np.sqrt(state.cost / max(n_in, 1)))
    skipped = int(state.inside.size - state.inside.sum())
    if skipped:
        warnings.warn(f"{skipped} samples projected outside the map at the final "
                      "iterate", RuntimeWarning)
    return CalibrationResult(
        translation=fit.t,
        distortion=state.distortion,
        converged=converged,
        iterations=fit.iterations,
        final_rms=final_rms,
        trace=fit.trace,
        skipped_samples=skipped,
        message=message,
    )
