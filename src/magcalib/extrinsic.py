"""Two-step joint calibration: closed-form intrinsic solve inside an outer
Gauss-Newton iteration over the sensor's lever arm.

Each outer iteration projects the magnetometer to map coordinates using the
current lever-arm estimate, queries the field map (mean and confidence),
rotates the prediction back into the LiDAR frame, refits the affine
distortion in closed form, and then takes a damped Gauss-Newton step on the
lever arm using the analytic map gradient. Samples that project outside the
mapped volume are skipped (with an abort threshold) or abort the run,
depending on configuration.

A local method can settle in a wrong basin and still see its steps shrink,
so a short step alone does not make a result trustworthy. The final
residuals are held to a chi-square test against the measurement noise plus
the map's predictive variance. A fit that fails it is re-seeded once from
the best node of a coarse lattice local to the initial guess, and is
reported as not converged, with the reason, if it stays implausible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtri

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
_FLAT_NORMAL = 1e-9      # trace(J'J) below this means the field carries no signal
_PLAUSIBILITY_LEVEL = 0.999  # chi-square quantile the whitened final cost must stay under
_FITTED_PARAMETERS = 15      # 3 lever-arm + 12 affine parameters absorb residual dofs
_RESEED_HALF_WIDTH = 1.0     # m; re-seed lattice spans the +-1 m cube around the guess
_RESEED_STEP = 0.5           # m between re-seed lattice nodes
_RESEED_QUERY_POINTS = 2_000  # map points per lattice query, bounds its kernel memory


class CalibrationError(RuntimeError):
    """Calibration could not run (bad input, too many samples off the map)."""


class NonConvergenceError(CalibrationError):
    """The normal system stayed singular even after damping escalation."""


@dataclass(frozen=True)
class CalibrationConfig:
    """Optimizer knobs.

    ``lambda_policy`` is ``"fixed"`` (use ``lambda_value``) or ``"l_curve"``
    (re-select the ridge factor every iteration). ``intrinsic_solver`` picks
    the inner closed-form solver: ``wrrtls`` (weighted, default), ``rrtls``
    (unweighted), or ``ols``. ``out_of_map_policy`` is ``skip_sample`` or
    ``abort``.
    """

    max_iterations: int = 100
    step_tolerance: float = 1e-5
    damping: float = 0.0
    lambda_policy: str = "fixed"
    lambda_value: float = 1e-6
    tsvd_rank: int = 4
    out_of_map_policy: str = "skip_sample"
    intrinsic_solver: str = "wrrtls"
    measurement_noise: float = 0.1  # uT, folded into the per-sample weights

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.lambda_policy not in ("fixed", "l_curve"):
            raise ValueError(f"unknown lambda_policy {self.lambda_policy!r}")
        if self.out_of_map_policy not in ("skip_sample", "abort"):
            raise ValueError(f"unknown out_of_map_policy {self.out_of_map_policy!r}")
        if self.intrinsic_solver not in ("wrrtls", "rrtls", "ols"):
            raise ValueError(f"unknown intrinsic_solver {self.intrinsic_solver!r}")


@dataclass(frozen=True, eq=False)
class CalibrationInput:
    """Everything one sensor's calibration needs.

    ``field_map`` is any object with ``query_many``/``gradient_many`` (the GP
    map or the multilinear baseline); ``lidar_poses`` the per-sample LiDAR
    poses (lidar -> map); ``measurements`` the (N, 3) raw magnetometer
    readings in uT; ``initial_translation`` the lever-arm starting guess [m].
    """

    field_map: object
    lidar_poses: list
    measurements: np.ndarray
    initial_translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        meas = np.asarray(self.measurements, float).reshape(-1, 3)
        object.__setattr__(self, "measurements", meas)
        object.__setattr__(self, "initial_translation",
                           np.asarray(self.initial_translation, float).reshape(3))
        if len(self.lidar_poses) != meas.shape[0]:
            raise CalibrationError("lidar_poses and measurements must pair up")
        if meas.shape[0] < 5:
            raise CalibrationError("need at least 5 samples to calibrate")

    def rotations(self) -> np.ndarray:
        return np.array([p.rotation for p in self.lidar_poses])

    def translations(self) -> np.ndarray:
        return np.array([p.translation for p in self.lidar_poses])


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

    ``converged`` is true only when the last accepted step was shorter than
    ``step_tolerance`` and the final residuals pass the plausibility test
    (or the map has no variance to test them with). ``message`` is empty for
    a plain converged run; otherwise it names why the run stopped, that it
    was re-seeded, that the fit is implausible (with the residual RMS
    against the expected RMS), or that the test could not be applied.
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
    predicted_ref: np.ndarray   # (n_in, 3) lidar-frame map prediction
    weights: np.ndarray         # (n_in,)
    distortion: AffineDistortion
    residuals: np.ndarray       # (n_in, 3)
    cost: float                 # total squared residual
    ridge: float
    variances: np.ndarray | None  # (n_in, 3) map predictive variance, None if unmodelled

    @property
    def mean_cost(self) -> float:
        return self.cost / max(self.residuals.shape[0], 1)


def _query_masked(field_map, positions: np.ndarray, policy: str):
    means, variances, inside = field_map.query_many(positions, allow_outside=True)
    n_in = int(inside.sum())
    if n_in == 0:
        raise CalibrationError("all samples project outside the mapped volume")
    if policy == "abort" and n_in < positions.shape[0]:
        raise CalibrationError(
            f"{positions.shape[0] - n_in} samples project outside the map "
            "(out_of_map_policy=abort)")
    if n_in < 0.5 * positions.shape[0]:
        raise CalibrationError(
            f"more than half the samples ({positions.shape[0] - n_in}/"
            f"{positions.shape[0]}) project outside the mapped volume")
    return means, variances, inside


def _evaluate(inp: CalibrationInput, rotations, translations, t: np.ndarray,
              config: CalibrationConfig,
              distortion: AffineDistortion | None = None) -> _EvalState:
    positions = rotations @ t + translations
    means, variances, inside = _query_masked(inp.field_map, positions,
                                             config.out_of_map_policy)
    rot_in = rotations[inside]
    predicted_ref = np.einsum("nji,nj->ni", rot_in, means[inside])
    measured = inp.measurements[inside]

    if variances is None or config.intrinsic_solver != "wrrtls":
        weights = np.ones(predicted_ref.shape[0])
    else:
        weights = weights_from_variance(variances[inside], config.measurement_noise)

    ridge = config.lambda_value
    if distortion is None:
        prob = RegressionProblem.from_pairs(predicted_ref, measured, weights,
                                            ridge, config.tsvd_rank)
        if config.intrinsic_solver != "ols" and config.lambda_policy == "l_curve":
            ridge = select_lambda(prob)
            prob = prob.with_ridge(ridge)
        solve = {"ols": solve_ols, "rrtls": solve_rrtls,
                 "wrrtls": solve_wrrtls}[config.intrinsic_solver]
        distortion = solve(prob)

    residuals = predicted_ref @ distortion.gain.T + distortion.bias - measured
    cost = float(np.sum(residuals**2))
    return _EvalState(inside, predicted_ref, weights, distortion, residuals,
                      cost, ridge, None if variances is None else variances[inside])


def residual(inp: CalibrationInput, t, distortion: AffineDistortion,
             config: CalibrationConfig | None = None) -> np.ndarray:
    """Per-sample residuals (n_in, 3): distorted map prediction minus
    measurement, at lever arm ``t`` with a fixed distortion."""
    config = config or CalibrationConfig()
    state = _evaluate(inp, inp.rotations(), inp.translations(),
                      np.asarray(t, float).reshape(3), config, distortion)
    return state.residuals


def _jacobian(field_map, rotations, positions, inside, gain) -> np.ndarray:
    """Stacked (3*n_in, 3) lever-arm derivative of the residuals of the
    ``inside`` samples, whose sensor positions are ``positions``."""
    grads, _ = field_map.gradient_many(positions[inside], allow_outside=False)
    rot_in = rotations[inside]
    return np.einsum("ab,nbc,ncd,nde->nae",
                     gain, rot_in.transpose(0, 2, 1), grads, rot_in).reshape(-1, 3)


def jacobian(inp: CalibrationInput, t, distortion: AffineDistortion,
             config: CalibrationConfig | None = None) -> np.ndarray:
    """Stacked (3*n_in, 3) derivative of the residuals in the lever arm.

    Per sample: gain @ R^T @ (map gradient at the projected position) @ R,
    the chain of the rotate-back step with the map-frame projection.
    """
    config = config or CalibrationConfig()
    rotations = inp.rotations()
    positions = rotations @ np.asarray(t, float).reshape(3) + inp.translations()
    _, _, inside = _query_masked(inp.field_map, positions, config.out_of_map_policy)
    return _jacobian(inp.field_map, rotations, positions, inside, distortion.gain)


def _initial_damping(normal: np.ndarray, mu: float) -> tuple:
    """``(mu, base)``: the damping to start from and the floor it escalates
    from. An undamped start (``mu == 0``) is raised to ``base`` when the
    normal matrix is ill-conditioned."""
    base = max(np.trace(normal) / 3.0, np.finfo(float).tiny) * 1e-6
    if mu == 0.0 and np.linalg.cond(normal) > _COND_DAMPING:
        mu = base
    return mu, base


def gauss_newton_step(jac: np.ndarray, residuals: np.ndarray,
                      damping: float = 0.0) -> np.ndarray:
    """Solve the 3x3 normal system for the lever-arm increment.

    Levenberg damping is applied automatically when the normal matrix is
    ill-conditioned, escalating tenfold until solvable; a system that stays
    singular raises :class:`NonConvergenceError`.
    """
    jac = np.asarray(jac, float).reshape(-1, 3)
    e = np.asarray(residuals, float).reshape(-1)
    if jac.shape[0] != e.shape[0]:
        raise ValueError("jacobian and residual sizes disagree")
    normal = jac.T @ jac
    gradient = jac.T @ e
    mu, base = _initial_damping(normal, float(damping))
    for _ in range(60):
        try:
            step = np.linalg.solve(normal + mu * np.eye(3), -gradient)
        except np.linalg.LinAlgError:
            mu = base if mu == 0.0 else mu * 10.0
            continue
        if np.all(np.isfinite(step)):
            return step
        mu = base if mu == 0.0 else mu * 10.0
    raise NonConvergenceError("normal system is singular even after damping escalation")


@dataclass
class _Fit:
    """Where one Levenberg-Marquardt run ended."""

    t: np.ndarray
    state: _EvalState
    trace: list
    iterations: int
    converged: bool
    message: str


def _levenberg_marquardt(inp: CalibrationInput, rotations, translations,
                         t: np.ndarray, state: _EvalState,
                         config: CalibrationConfig) -> _Fit:
    """Damped Gauss-Newton on the lever arm from ``t`` (evaluated as ``state``)."""
    trace = [(t.copy(), state.cost)]
    converged = False
    message = ""
    mu = float(config.damping)
    iterations = 0

    for _ in range(config.max_iterations):
        jac = _jacobian(inp.field_map, rotations, rotations @ t + translations,
                        state.inside, state.distortion.gain)
        normal = jac.T @ jac
        if np.trace(normal) < _FLAT_NORMAL:
            message = "field gradient is degenerate; lever arm is unobservable"
            break
        mu, base = _initial_damping(normal, mu)

        accepted = False
        for _reject in range(_MAX_REJECTS):
            try:
                step = gauss_newton_step(jac, state.residuals, mu)
                cand_state = _evaluate(inp, rotations, translations, t + step, config)
            except CalibrationError:  # NonConvergenceError included
                mu = base if mu == 0.0 else mu * 10.0
                continue
            slack = _COST_SLACK / max(cand_state.residuals.shape[0], 1)
            if cand_state.mean_cost <= state.mean_cost + slack:
                accepted = True
                break
            mu = base if mu == 0.0 else mu * 10.0
        if not accepted:
            message = "damping escalation exhausted without a descent step"
            break

        t = t + step
        state = cand_state
        iterations += 1
        trace.append((t.copy(), state.cost))
        mu = 0.0 if mu <= base else mu * 0.1
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
    quantile.
    """
    weights = weights_from_variance(state.variances, config.measurement_noise)
    sq = np.sum(state.residuals**2, axis=1)
    statistic = 3.0 * float(sq @ weights)
    dof = max(3 * sq.size - _FITTED_PARAMETERS, 1)
    bound = float(chdtri(dof, 1.0 - _PLAUSIBILITY_LEVEL))
    if statistic <= bound:
        return ""
    return (f"implausible fit: residual RMS {np.sqrt(sq.mean()):.3g} uT against "
            f"{np.sqrt(np.mean(1.0 / weights)):.3g} uT expected from noise and map "
            f"variance (chi-square {statistic:.0f} > {bound:.0f}, the "
            f"{_PLAUSIBILITY_LEVEL} quantile at {dof} dof)")


def _reseed_node(inp: CalibrationInput, rotations, translations):
    """Best node of a coarse lattice around the initial guess, or None.

    Nodes step ``_RESEED_STEP`` through the ``+-_RESEED_HALF_WIDTH`` cube
    centred on ``inp.initial_translation`` and are ranked by the OLS cost
    against the map mean alone; nodes that put any sample off the map are
    left out.
    """
    axis = np.arange(-_RESEED_HALF_WIDTH, _RESEED_HALF_WIDTH + 1e-9, _RESEED_STEP)
    nodes = inp.initial_translation + np.stack(
        np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    n = rotations.shape[0]
    per_query = max(1, _RESEED_QUERY_POINTS // n)
    best, best_cost = None, np.inf
    for start in range(0, nodes.shape[0], per_query):
        batch = nodes[start:start + per_query]
        positions = np.einsum("nij,kj->kni", rotations, batch) + translations
        means, _, inside = inp.field_map.query_many(
            positions.reshape(-1, 3), allow_outside=True, with_variance=False)
        means = means.reshape(-1, n, 3)
        for k in np.flatnonzero(inside.reshape(-1, n).all(axis=1)):
            predicted_ref = np.einsum("nji,nj->ni", rotations, means[k])
            try:
                dist = solve_ols(RegressionProblem.from_pairs(predicted_ref,
                                                              inp.measurements))
            except RegressionError:
                continue
            cost = float(np.sum((dist.apply_many(predicted_ref)
                                 - inp.measurements)**2))
            if cost < best_cost:
                best, best_cost = batch[k], cost
    return best


def _reseed(inp: CalibrationInput, rotations, translations,
            config: CalibrationConfig, fit: _Fit) -> _Fit:
    """Restart from the best local lattice node if it beats ``fit``'s cost.

    The restart's trace and iterations continue ``fit``'s; since it starts
    below ``fit``'s final mean cost and never climbs, the joined trace stays
    non-increasing. When no node beats ``fit``, ``fit`` is kept and its
    message says so.
    """
    node = _reseed_node(inp, rotations, translations)
    node_state = None
    if node is not None:
        try:
            node_state = _evaluate(inp, rotations, translations, node, config)
        except (CalibrationError, RegressionError):
            pass
    if node_state is None or node_state.mean_cost >= fit.state.mean_cost:
        fit.message = _join(fit.message,
                            "no local lattice node beat the implausible fit")
        return fit
    restart = _levenberg_marquardt(inp, rotations, translations, node,
                                   node_state, config)
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
    below ``config.step_tolerance`` or ``config.max_iterations`` is hit.
    Steps that would raise the cost are rejected and retried with escalated
    damping, so a heavily damped short step also counts as convergence; a
    flat field (no usable gradient) or exhausted damping reports
    ``converged=False`` rather than raising.

    The end point is then put to a plausibility test: its residuals must be
    no larger than the measurement noise plus the map's predictive variance
    explain (a chi-square test, see :func:`_implausibility`). A fit that
    fails it has likely stalled in a wrong basin. It is re-seeded once from
    the best node of a coarse lattice (0.5 m step, +-1 m cube around the
    initial guess, map mean and OLS only), and the run restarts there if
    that node's cost is lower. A fit still implausible after that reports
    ``converged=False`` with the reason in ``message``. A map without
    predictive variance skips the test and says so in ``message``.
    """
    config = config or CalibrationConfig()
    rotations = inp.rotations()
    translations = inp.translations()
    t = np.array(inp.initial_translation, float)

    state = _evaluate(inp, rotations, translations, t, config)
    fit = _levenberg_marquardt(inp, rotations, translations, t, state, config)
    converged, message = fit.converged, fit.message
    if fit.state.variances is None:
        message = _join(message, "plausibility test not applied: the map "
                                 "gives no predictive variance")
    elif _implausibility(fit.state, config):
        fit = _reseed(inp, rotations, translations, config, fit)
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
