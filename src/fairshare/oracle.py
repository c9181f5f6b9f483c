"""Independent verification machinery for the allocation dynamics.

Everything here computes reference answers by routes that do not share code
with the stepping engine: analytic recurrence bounds, classical RK4 on the
mean-field equations, and a damped fixed-point iteration for fair
allocations. Tests and the CLI verify mode compare engine output against
these oracles. ``validate_config`` checks a configuration against the
stability conditions and ``bounds``' safe step size; the engine calls it
before it runs.

This module imports only ``core`` and ``utility``, never ``dynamics``: the
definitions the engine's diagnostics and the oracles both read (the
fairness index and the filter constants) live in ``core``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (FILTER_INIT_OFFSET, RATIO_GUARD, ConfigError, EngineConfig, TaskSpec,
                   demand_table, fairness_from_utilities, uniform_allocation)
from .utility import ModelBank

__all__ = [
    "BoundSet",
    "FixedPointResult",
    "OdeTrajectory",
    "OracleError",
    "bounds",
    "fair_fixed_point",
    "integrate_full_ode",
    "integrate_limiting_ode",
    "probe_limit_points",
    "safe_epsilon",
    "validate_config",
]


class OracleError(RuntimeError):
    """An oracle computation produced a non-finite or inconsistent state."""


def _domain_error(v: np.ndarray, u: np.ndarray) -> tuple | None:
    """The first state of the batch (v, u), tasks last, that lies outside the
    domain of the mean-field equations, as its index and a message naming
    its first task at fault and the value; or None. The caller names where
    the state was, so that nothing is formatted for a state inside."""
    # Every state inside, in four reductions; a NaN fails them.
    if (np.minimum.reduce(v, None) >= 0.0 and np.maximum.reduce(v, None) <= 1.0
            and np.minimum.reduce(u, None) > 0.0 and np.maximum.reduce(u, None) < math.inf):
        return None
    checks = ((~((v >= 0.0) & (v <= 1.0)), "share outside [0, 1]", v),
              (~(np.isfinite(u) & (u > 0.0)), "utility not finite and > 0", u))
    j = int(np.argmax((checks[0][0] | checks[1][0]).any(axis=-1)))
    bad, what, values = next(c for c in checks if c[0][j].any())
    i = int(np.argmax(bad[j]))
    return j, f"task {i}: {what}: {float(values[j, i])!r}"


def safe_epsilon(lambda_min: float, c_bar: float, n: int, eta_bar: float) -> float:
    """Conservative step-size threshold below which shares stay in [0, 1].

    Two conditions: the drift must point inward near v = 0 and near v = 1.
    The noise contribution enters through a 2*eta_bar^2 inflation factor.
    """
    if n < 1:
        raise ValueError(f"task count must be >= 1, got {n}")
    slack = 1.0 + 2.0 * eta_bar**2
    eps_low = lambda_min / (c_bar * n * n * slack)
    if n == 1:
        # A single task holds the whole resource and its increment vanishes
        # at v = 1, so only the lower boundary constrains the step.
        return eps_low
    ratio = lambda_min * (n - 1) / c_bar
    eps_high = ratio / (n * (1.0 + ratio) * slack)
    return min(eps_low, eps_high)


@dataclass(frozen=True)
class BoundSet:
    """Analytic thresholds for a task set and configuration.

    ``starvation_threshold`` is the share level every task recurrently
    exceeds; ``balance_threshold`` the level every task recurrently drops
    below. ``eps_mu_gamma`` must be below 1 for stable filters.
    """

    starvation_threshold: float
    balance_threshold: float
    safe_epsilon: float
    eps_mu_gamma: float


def bounds(specs: Sequence[TaskSpec], cfg: EngineConfig) -> BoundSet:
    n = len(specs)
    if n == 0:
        raise ValueError("need at least one task")
    lam_min = min(t.weight for t in specs)
    c_bar = max(t.utility.bound_c for t in specs)
    return BoundSet(
        starvation_threshold=lam_min / (n * c_bar),
        balance_threshold=c_bar / (n * lam_min),
        safe_epsilon=safe_epsilon(lam_min, c_bar, n, cfg.eta_bar),
        eps_mu_gamma=cfg.eps_mu_gamma,
    )


def validate_config(cfg: EngineConfig, specs: Sequence[TaskSpec]) -> list[str]:
    """Check a configuration against the stability and noise conditions.

    An empty task set is a ConfigError. Otherwise one ConfigError names
    every failed condition, joined by ``"; "``: the step condition
    ``epsilon * mu * gamma < 1`` (unstable filters otherwise),
    ``eta_bar >= 1`` (inverse-measurement bounds break down) and a
    ``v_init`` whose length is not the task count. If none fails, returns
    the warnings: epsilon above the conservative feasibility threshold of
    the task set, ``bounds(specs, cfg).safe_epsilon``.
    """
    if not specs:
        raise ConfigError("need at least one task")
    errors = []
    if cfg.eps_mu_gamma >= 1.0:
        errors.append(
            "step condition violated: epsilon*mu(epsilon)*gamma = "
            f"{cfg.eps_mu_gamma:.6g} >= 1 (need epsilon*mu < 1/gamma)"
        )
    if cfg.eta_bar >= 1.0:
        errors.append(
            f"eta_bar = {cfg.eta_bar:.6g} >= 1 makes measured utilities "
            "non-invertible (utilities are only guaranteed >= 1)"
        )
    if cfg.v_init is not None and len(cfg.v_init) != len(specs):
        errors.append(f"v_init has {len(cfg.v_init)} entries for {len(specs)} tasks")
    if errors:
        raise ConfigError("; ".join(errors))
    eps_safe = bounds(specs, cfg).safe_epsilon
    if cfg.epsilon > eps_safe:
        return [
            f"epsilon = {cfg.epsilon:.6g} exceeds the conservative "
            f"feasibility threshold {eps_safe:.6g}; shares may leave the "
            "unit box and abort the run"
        ]
    return []


@dataclass
class OdeTrajectory:
    """Sampled mean-field trajectory on the interpolated timescale t = eps*k."""

    times: np.ndarray
    v: np.ndarray
    s: np.ndarray


def _rk4(field, y, dt: float, t_end: float, stop=None, project=None) -> OdeTrajectory:
    """Classical RK4 on ``field`` from the starts ``y`` (a batch on the
    leading axis) up to ``t_end``, sampled at every accepted state.

    ``field(y)`` returns ``(dy/dt, v, u, s)``: the derivative at ``y`` and
    the shares, utilities and levels of its states, tasks last. Each
    accepted state, the start included, is checked on the utilities of its
    k1 stage and recorded. A start leaves the batch at the end, where
    ``stop(k1)`` (one flag per start) first holds, or when its check fails,
    the later starts with it; once the batch is empty, the earliest failed
    start's ``OracleError`` is raised. A start that left holds its last
    state in the later rows. ``project(y, t)`` corrects each new batch in
    place, or raises, before it is accepted.

    The state, the stage states ``y + h * k`` and the final combination
    live in buffers laid out once, and again only when the batch shrinks;
    every call writes into them with a positional ``out``, and the scalars
    are 0-d arrays of the same values, so each element goes through the
    operations of ``y + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4)`` in that order.
    ``field`` is called with the state or the stage buffer, which are new
    arrays only when the batch shrinks, so it may key views of its
    argument on the array's identity.
    """
    if dt <= 0.0 or t_end < 0.0:
        raise ValueError("need dt > 0 and t_end >= 0")
    # (step, start, task) rows for all steps; an early stop returns those filled.
    n_starts, n_steps = y.shape[0], int(round(t_end / dt))
    shape = (n_steps + 1, n_starts, y.shape[-1])
    vs, ss = np.empty(shape), np.empty(shape)
    live, last = np.arange(n_starts), np.empty(n_starts, dtype=int)
    error, step = None, 0
    half, full, sixth, two = (np.array(x) for x in (0.5 * dt, dt, dt / 6.0, 2.0))
    add, multiply = np.add, np.multiply
    y = y.copy()
    stage, hk, acc = (np.empty_like(y) for _ in range(3))
    while live.size:
        k1, v, u, s = field(y)
        rows = slice(None) if live.size == n_starts else live
        vs[step, rows], ss[step, rows], last[rows] = v, s, step
        if (bad := _domain_error(v, u)) is not None:
            j, detail = bad
            error = OracleError(f"t={step * dt:.6g}, {detail}")
            live, y, k1 = live[:j], y[:j], k1[:j]
        if stop is not None and (done := stop(k1)).any():
            live, y, k1 = live[~done], y[~done], k1[~done]
        if step == n_steps or not live.size:
            break
        if stage.shape != y.shape:
            stage, hk, acc = (np.empty_like(y) for _ in range(3))
        k2 = field(add(y, multiply(half, k1, hk), stage))[0]
        k3 = field(add(y, multiply(half, k2, hk), stage))[0]
        k4 = field(add(y, multiply(full, k3, hk), stage))[0]
        multiply(two, k2, acc)
        add(k1, acc, acc)
        add(acc, multiply(two, k3, hk), acc)
        add(acc, k4, acc)
        add(y, multiply(sixth, acc, acc), y)
        step += 1
        if project is not None:
            project(y, step * dt)
    if error is not None:
        raise error
    for i, k in enumerate(last):
        vs[k + 1:step + 1, i], ss[k + 1:step + 1, i] = vs[k, i], ss[k, i]
    return OdeTrajectory(times=np.arange(step + 1) * dt, v=vs[:step + 1], s=ss[:step + 1])


def integrate_full_ode(
    specs: Sequence[TaskSpec],
    cfg: EngineConfig,
    t_end: float = 1.0,
    dt: float = 1e-3,
) -> OdeTrajectory:
    """RK4 on the coupled mean-field system at the step-0 demand.

    It starts from ``cfg`` alone, at the engine's initial snapshot: shares
    ``v_init`` (uniform if unset), levels ``s_init``, and filters at the
    utilities there and at ``FILTER_INIT_OFFSET`` below the levels.
    Fields: shares follow the exact fairness vector, levels follow mu * tanh
    of the filtered difference quotient, filters relax at rate mu * gamma.
    Levels are clamped to [0, 1] after every step, realizing the boundary
    correction. A state with a share outside [0, 1] or a utility that is
    not finite and > 0 raises ``OracleError``.
    """
    n = len(specs)
    shape = (1, n)
    weights = np.array([[t.weight for t in specs]])
    bank = ModelBank([t.utility for t in specs])
    d_vec = demand_table(specs).at(0)
    # The state is one (v, s, u_lp, s_lp) batch, so the bank is replayed on
    # (1, n) rows, like every other operand, and nothing broadcasts but the
    # 0-d scalars.
    utilities = bank.replay(shape)
    d_row = d_vec.reshape(shape).copy()
    mu, mu_gamma, guard = (np.array(x) for x in (cfg.mu, cfg.mu * cfg.gamma, RATIO_GUARD))
    w, absolute_ds = np.empty(shape), np.empty(shape)
    w_sum = np.empty((1, 1))
    w_total = w_sum.reshape(())
    guarded = np.empty(shape, dtype=bool)
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    reduce, absolute, greater_equal, tanh = np.add.reduce, np.absolute, np.greater_equal, np.tanh

    def rows(x: np.ndarray) -> tuple:
        """x with its rows (v, s, u_lp, s_lp), or (phi, level, du, ds), and
        its last two, the filters."""
        return x, *(x[:, i] for i in range(4)), x[:, 2:]

    # _rk4 needs a stage's derivative only until its step ends, so four
    # buffers in turn serve its four field calls a step. It passes its state
    # and its stage buffer, whose rows are made once each; the dict holds
    # each array, so no other array can take its id.
    stages = itertools.cycle([rows(np.empty((1, 4, n))) for _ in range(4)])
    states: dict[int, tuple] = {}

    def field(y: np.ndarray):
        """The vector field at the batch y of one state, and the shares,
        utilities and levels of that state."""
        dy, phi, level, du, ds, filters = next(stages)
        if (known := states.get(id(y))) is None:
            known = states[id(y)] = rows(y)
        _, v, s, u_lp, s_lp, _ = known
        u = utilities(s, v, d_row)
        # fairness_from_utilities(weights, u, v), into phi.
        divide(weights, u, w)
        reduce(w, -1, None, w_sum, True)
        subtract(w, multiply(v, w_total, phi), phi)
        subtract(u, u_lp, du)
        subtract(s, s_lp, ds)
        level.fill(0.0)
        greater_equal(absolute(ds, absolute_ds), guard, guarded)
        divide(du, ds, out=level, where=guarded)
        multiply(mu, tanh(level, level), level)
        multiply(mu_gamma, filters, filters)
        return dy, v, u, s

    def project(y: np.ndarray, t: float) -> None:
        """Clamp the levels of a new state; a non-finite state is an error."""
        levels = y[:, 1]
        np.clip(levels, 0.0, 1.0, out=levels)
        if not np.isfinite(y).all():
            raise OracleError(f"non-finite mean-field state at t={t:.6g}")

    # (v, s, u_lp, s_lp) matching the engine's initial snapshot.
    v0 = uniform_allocation(n) if cfg.v_init is None else np.array(cfg.v_init)
    s0 = np.full(n, float(cfg.s_init))
    init = (v0, s0, bank.eval(s0, v0, d_vec), s0 - FILTER_INIT_OFFSET)
    traj = _rk4(field, np.stack(init)[None], dt, t_end, project=project)
    return OdeTrajectory(times=traj.times, v=traj.v[:, 0], s=traj.s[:, 0])


def integrate_limiting_ode(
    specs: Sequence[TaskSpec],
    v_init: np.ndarray,
    t_end: float = 50.0,
    dt: float = 0.02,
    stop_residual: float | None = None,
) -> OdeTrajectory:
    """RK4 on the slow share dynamics at the step-0 demand, levels at their maximizers.

    The per-task maximizing level is recomputed at every stage evaluation.
    With ``stop_residual`` set, integration stops early once the fairness
    residual falls below it; rows for all ``t_end / dt`` steps are allocated
    up front all the same. ``v_init`` may hold a batch of starts on its
    leading axis, each stopping on its own residual; the rows then run
    (step, start, task). A state with a share outside [0, 1] or a utility
    that is not finite and > 0 raises ``OracleError``.
    """
    weights = np.array([t.weight for t in specs], dtype=float)
    bank = ModelBank([t.utility for t in specs])
    d_vec = demand_table(specs).at(0)

    def field(v: np.ndarray):
        """The vector field at v, and v, its utilities and its maximizing
        levels."""
        s_star = bank.argmax(v, d_vec)
        u = bank.eval(s_star, v, d_vec)
        return fairness_from_utilities(weights, u, v), v, u, s_star

    stop = None if stop_residual is None else (
        lambda k1: np.abs(k1).max(axis=-1) < stop_residual)
    v0 = np.array(v_init, dtype=float)
    traj = _rk4(field, v0.reshape(-1, v0.shape[-1]), dt, t_end, stop=stop)
    return traj if v0.ndim > 1 else OdeTrajectory(
        times=traj.times, v=traj.v[:, 0], s=traj.s[:, 0])


@dataclass
class FixedPointResult:
    """Outcome of the damped fair-allocation iteration."""

    v: np.ndarray
    residual: float
    iterations: int
    converged: bool


def fair_fixed_point(
    specs: Sequence[TaskSpec],
    s: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 10_000,
) -> FixedPointResult:
    """Fair allocation for fixed levels at the step-0 demand, by damped iteration.

    Iterates v <- (v + normalize(weights / utilities(v))) / 2 until the
    sup-norm change drops below ``tol`` and the fairness residual below
    ``10*tol``. ``s`` is a level vector, or by default each task's
    maximizing level at the iterate. Non-convergence is reported
    in the result, not raised; an iterate with a share outside [0, 1] or a
    utility that is not finite and > 0 raises ``OracleError``.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    weights = np.array([t.weight for t in specs], dtype=float)
    bank = ModelBank([t.utility for t in specs])
    d_vec = demand_table(specs).at(0)
    fixed = None if s is None else np.asarray(s, dtype=float)

    def level_fn(v: np.ndarray) -> np.ndarray:
        return bank.argmax(v, d_vec) if fixed is None else fixed

    v = uniform_allocation(len(specs))
    u = bank.eval(level_fn(v), v, d_vec)
    residual = math.inf
    for it in range(1, max_iter + 1):
        w = weights / u
        target = w / w.sum()
        v_new = 0.5 * v + 0.5 * target
        change = float(np.abs(v_new - v).max())
        v = v_new
        u = bank.eval(level_fn(v), v, d_vec)
        if (bad := _domain_error(v[None], u[None])) is not None:
            raise OracleError(f"iteration {it}, {bad[1]}")
        phi = fairness_from_utilities(weights, u, v)
        residual = float(np.abs(phi).max())
        if change < tol and residual <= 10.0 * tol:
            return FixedPointResult(v=v, residual=residual, iterations=it, converged=True)
    return FixedPointResult(v=v, residual=residual, iterations=max_iter, converged=False)


def probe_limit_points(
    specs: Sequence[TaskSpec],
    n_starts: int = 8,
    seed: int = 0,
    t_end: float = 200.0,
    dt: float = 0.02,
) -> list[np.ndarray]:
    """Terminal shares of the slow dynamics at the step-0 demand from random starts.

    The starts run as one batch of ``integrate_limiting_ode``. Endpoints
    are greedily clustered at a sup-norm radius of 1e-3; the returned list
    holds one representative per cluster. More than one cluster means the
    long-run behavior is not captured by a single fair point.
    """
    x = np.random.default_rng(seed).exponential(size=(n_starts, len(specs)))
    traj = integrate_limiting_ode(specs, x / x.sum(axis=-1, keepdims=True),
                                  t_end=t_end, dt=dt, stop_residual=1e-8)
    reps: list[np.ndarray] = []
    for end in traj.v[-1]:
        if not any(np.abs(end - r).max() <= 1e-3 for r in reps):
            reps.append(end)
    return reps
