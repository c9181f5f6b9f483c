"""Independent verification machinery for the allocation dynamics.

Everything here computes reference answers by routes that do not share code
with the stepping engine: analytic recurrence bounds, classical RK4 on the
mean-field equations, and a damped fixed-point iteration for fair
allocations. Tests and the CLI verify mode compare engine output against
these oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import EngineConfig, TaskSpec, uniform_allocation
from .dynamics import FILTER_INIT_OFFSET, RATIO_GUARD, fairness_from_utilities
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
]


class OracleError(RuntimeError):
    """An oracle computation produced a non-finite or inconsistent state."""


def _check_domain(v: np.ndarray, u: np.ndarray, where: str) -> None:
    """Raise ``OracleError`` unless every share lies in [0, 1] and every
    utility is finite and > 0, the domain the mean-field equations assume.

    ``where`` names the time or iteration of the state.
    """
    for bad, what, values in (
        (~((v >= 0.0) & (v <= 1.0)), "share outside [0, 1]", v),
        (~(np.isfinite(u) & (u > 0.0)), "utility not finite and > 0", u),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise OracleError(f"{where}, task {i}: {what}: {float(values[i])!r}")


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

    @property
    def ordered(self) -> bool:
        return self.starvation_threshold <= self.balance_threshold


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


@dataclass
class OdeTrajectory:
    """Sampled mean-field trajectory on the interpolated timescale t = eps*k."""

    times: np.ndarray
    v: np.ndarray
    s: np.ndarray

    def terminal(self) -> np.ndarray:
        return self.v[-1]


def _demand_vector(specs: Sequence[TaskSpec], d) -> np.ndarray:
    if d is None:
        return np.array([t.demand.at(0) for t in specs], dtype=float)
    return np.asarray(d, dtype=float)


def initial_mean_state(
    specs: Sequence[TaskSpec], cfg: EngineConfig, d=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(v, s, u_lp, s_lp) matching the engine's initial snapshot."""
    n = len(specs)
    v0 = (
        np.asarray(cfg.v_init, dtype=float)
        if cfg.v_init is not None
        else uniform_allocation(n)
    )
    s0 = np.full(n, float(cfg.s_init))
    bank = ModelBank([t.utility for t in specs])
    u0 = bank.eval(s0, v0, _demand_vector(specs, d))
    return v0, s0, u0, s0 - FILTER_INIT_OFFSET


def integrate_full_ode(
    specs: Sequence[TaskSpec],
    cfg: EngineConfig,
    init: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
    t_end: float = 1.0,
    dt: float = 1e-3,
    d=None,
) -> OdeTrajectory:
    """RK4 on the coupled mean-field system at fixed demand.

    Fields: shares follow the exact fairness vector, levels follow
    mu * tanh of the filtered difference quotient, filters relax at rate
    mu * gamma. Levels are clamped to [0, 1] after every step, realizing the
    boundary correction. A state with a share outside [0, 1] or a utility
    that is not finite and > 0 raises ``OracleError``.
    """
    if dt <= 0.0 or t_end < 0.0:
        raise ValueError("need dt > 0 and t_end >= 0")
    weights = np.array([t.weight for t in specs], dtype=float)
    bank = ModelBank([t.utility for t in specs])
    d_vec = _demand_vector(specs, d)
    mu = cfg.mu
    gamma = cfg.gamma

    def field(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The vector field at y, and the utilities it was computed from."""
        v, s, u_lp, s_lp = y
        u = bank.eval(s, v, d_vec)
        phi = fairness_from_utilities(weights, u, v)
        du = u - u_lp
        ds = s - s_lp
        mask = np.abs(ds) >= RATIO_GUARD
        ratio = np.divide(du, ds, out=np.zeros_like(du), where=mask)
        return np.stack(
            (phi, mu * np.tanh(ratio), mu * gamma * du, mu * gamma * ds)
        ), u

    y = np.stack(initial_mean_state(specs, cfg, d_vec) if init is None else init)
    n_steps = int(round(t_end / dt))
    times = np.empty(n_steps + 1)
    vs = np.empty((n_steps + 1,) + y[0].shape)
    ss = np.empty_like(vs)
    times[0] = 0.0
    vs[0], ss[0] = y[:2]
    for step in range(1, n_steps + 1):
        # Each accepted state is checked on the utilities of its k1 stage.
        k1, u = field(y)
        _check_domain(y[0], u, f"t={(step - 1) * dt:.6g}")
        k2 = field(y + 0.5 * dt * k1)[0]
        k3 = field(y + 0.5 * dt * k2)[0]
        k4 = field(y + dt * k3)[0]
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[1] = np.clip(y[1], 0.0, 1.0)
        if not np.isfinite(y).all():
            raise OracleError(
                f"non-finite mean-field state at t={step * dt:.6g}"
            )
        times[step] = step * dt
        vs[step], ss[step] = y[:2]
    _check_domain(y[0], bank.eval(y[1], y[0], d_vec), f"t={n_steps * dt:.6g}")
    return OdeTrajectory(times=times, v=vs, s=ss)


def integrate_limiting_ode(
    specs: Sequence[TaskSpec],
    cfg: EngineConfig,
    v_init: np.ndarray,
    d=None,
    t_end: float = 50.0,
    dt: float = 0.02,
    stop_residual: float | None = None,
) -> OdeTrajectory:
    """RK4 on the slow share dynamics with levels held at their maximizers.

    The per-task maximizing level is recomputed at every stage evaluation.
    With ``stop_residual`` set, integration stops early once the fairness
    residual falls below it. A state with a share outside [0, 1] or a
    utility that is not finite and > 0 raises ``OracleError``.
    """
    if dt <= 0.0 or t_end < 0.0:
        raise ValueError("need dt > 0 and t_end >= 0")
    weights = np.array([t.weight for t in specs], dtype=float)
    bank = ModelBank([t.utility for t in specs])
    d_vec = _demand_vector(specs, d)

    def field(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Maximizing levels, their utilities and the vector field at v."""
        s_star = bank.argmax(v, d_vec)
        u = bank.eval(s_star, v, d_vec)
        return s_star, u, fairness_from_utilities(weights, u, v)

    v = np.asarray(v_init, dtype=float).copy()
    n_steps = int(round(t_end / dt))
    times, vs, ss = [], [], []
    for step in range(n_steps + 1):
        # An accepted state is checked and recorded from its k1 stage.
        s_star, u, k1 = field(v)
        _check_domain(v, u, f"t={step * dt:.6g}")
        times.append(step * dt)
        vs.append(v)
        ss.append(s_star)
        if step == n_steps or (
            stop_residual is not None and float(np.abs(k1).max()) < stop_residual
        ):
            break
        k2 = field(v + 0.5 * dt * k1)[2]
        k3 = field(v + 0.5 * dt * k2)[2]
        k4 = field(v + dt * k3)[2]
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return OdeTrajectory(
        times=np.array(times), v=np.array(vs), s=np.array(ss)
    )


@dataclass
class FixedPointResult:
    """Outcome of the damped fair-allocation iteration."""

    v: np.ndarray
    residual: float
    iterations: int
    converged: bool


def fair_fixed_point(
    specs: Sequence[TaskSpec],
    s,
    d=None,
    tol: float = 1e-9,
    max_iter: int = 10_000,
    relaxation: float = 0.5,
) -> FixedPointResult:
    """Fair allocation for fixed levels via damped normalization iteration.

    Iterates v <- (1-w)*v + w*normalize(weights / utilities(v)) until the
    sup-norm change drops below ``tol`` and the fairness residual below
    ``10*tol``. ``s`` may be a level vector or a callable v -> levels (used
    to couple the levels to their maximizers). Non-convergence is reported
    in the result, not raised; an iterate with a share outside [0, 1] or a
    utility that is not finite and > 0 raises ``OracleError``.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    weights = np.array([t.weight for t in specs], dtype=float)
    bank = ModelBank([t.utility for t in specs])
    d_vec = _demand_vector(specs, d)
    level_fn: Callable = s if callable(s) else (lambda _v: np.asarray(s, dtype=float))

    v = uniform_allocation(len(specs))
    residual = math.inf
    for it in range(1, max_iter + 1):
        levels = level_fn(v)
        w = weights / bank.eval(levels, v, d_vec)
        target = w / w.sum()
        v_new = (1.0 - relaxation) * v + relaxation * target
        change = float(np.abs(v_new - v).max())
        v = v_new
        u = bank.eval(level_fn(v), v, d_vec)
        _check_domain(v, u, f"iteration {it}")
        phi = fairness_from_utilities(weights, u, v)
        residual = float(np.abs(phi).max())
        if change < tol and residual <= 10.0 * tol:
            return FixedPointResult(v=v, residual=residual, iterations=it, converged=True)
    return FixedPointResult(v=v, residual=residual, iterations=max_iter, converged=False)


def probe_limit_points(
    specs: Sequence[TaskSpec],
    cfg: EngineConfig,
    d=None,
    n_starts: int = 8,
    seed: int = 0,
    radius: float = 1e-3,
    t_end: float = 200.0,
    dt: float = 0.02,
) -> list[np.ndarray]:
    """Terminal allocations of the slow dynamics from random simplex starts.

    Endpoints are greedily clustered at the given radius; the returned list
    holds one representative per cluster. More than one cluster means the
    long-run behavior is not captured by a single fair point.
    """
    rng = np.random.default_rng(seed)
    n = len(specs)
    reps: list[np.ndarray] = []
    for _ in range(n_starts):
        x = rng.exponential(size=n)
        v0 = x / x.sum()
        traj = integrate_limiting_ode(
            specs, cfg, v0, d=d, t_end=t_end, dt=dt, stop_residual=1e-8
        )
        end = traj.terminal()
        if not any(np.abs(end - r).max() <= radius for r in reps):
            reps.append(end)
    return reps
