"""Measurement-driven update recursions and the stepping engine.

Each step measures every task's utility once (with bounded noise), moves the
shares along the observed fairness index, and nudges each operation level in
the direction indicated by a filtered difference quotient of the same
measurement. Shares move with step ``epsilon``; levels move with the larger
step ``epsilon * mu(epsilon)``, so levels settle quickly relative to shares.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .core import (
    ConfigError,
    EngineConfig,
    FeasibilityBreach,
    MeasurementError,
    NoiseSource,
    StepError,
    TaskSpec,
    demand_table,
    uniform_allocation,
    validate_config,
)
from .utility import ModelBank

__all__ = [
    "Engine",
    "EngineSnapshot",
    "RunLedger",
    "RunTrace",
    "fairness_from_utilities",
    "fairness_measure",
    "run",
]

# Initial gap between a level and its filter; avoids a degenerate zero
# denominator on the very first direction estimate.
FILTER_INIT_OFFSET = 1e-3
# Below this magnitude the level has not moved, so no direction estimate
# exists and the drift term is zeroed (dither keeps exploring).
RATIO_GUARD = 1e-12


def fairness_from_utilities(weights, utilities, v) -> np.ndarray:
    """Fairness index from known utility values.

    Component i is (1 - v_i) * w_i - v_i * sum_{j != i} w_j with
    w = weights / utilities, which simplifies to w_i - v_i * sum(w). Positive
    values flag resource deficiency, negative values a surplus; the vector
    sums to zero whenever v sums to one.
    """
    w = np.asarray(weights, dtype=float) / np.asarray(utilities, dtype=float)
    return w - np.asarray(v, dtype=float) * w.sum()


def fairness_measure(specs: Sequence[TaskSpec], s, v, d) -> np.ndarray:
    """Exact (noise-free) fairness vector for levels s, shares v, demands d."""
    u = ModelBank([t.utility for t in specs]).eval(
        np.asarray(s, dtype=float), np.asarray(v, dtype=float), np.asarray(d, dtype=float)
    )
    return fairness_from_utilities([t.weight for t in specs], u, v)


@dataclass(frozen=True)
class EngineSnapshot:
    """Full engine state after ``step`` updates, plus that step's measurements.

    ``u_meas`` and ``f_obs`` are the measurement and fairness index that
    produced this state; ``phi`` and ``phi_sq_sum`` are noise-free
    diagnostics evaluated at the new state.
    """

    step: int
    v: np.ndarray
    s: np.ndarray
    u_lp: np.ndarray
    s_lp: np.ndarray
    u_meas: np.ndarray
    f_obs: np.ndarray
    phi: np.ndarray
    phi_sq_sum: float


@dataclass
class RunLedger:
    """Extrema of the per-step invariants, tracked online over a whole run.

    The fairness-increment gaps compare each step's index against the
    analytic envelope lam_min/c_bar - v*n <= F <= 1 - v*n*lam_min/c_bar
    using the share the index was evaluated at.
    """

    max_simplex_dev: float = 0.0
    v_min: float = np.inf
    v_max: float = -np.inf
    max_abs_f_sum: float = 0.0
    f_low_gap: float = -np.inf
    f_high_gap: float = -np.inf
    phi_sq_min: float = np.inf
    phi_sq_min_step: int = -1


@dataclass
class RunTrace:
    """Recorded trajectory of one run (thinned by ``stride``), plus ledger.

    ``breach_step`` is the step whose update failed when the run aborted
    (``complete`` is False), else None.
    """

    steps: np.ndarray
    v: np.ndarray
    s: np.ndarray
    u_meas: np.ndarray
    f_obs: np.ndarray
    phi: np.ndarray
    phi_sq: np.ndarray
    ledger: RunLedger
    stride: int
    complete: bool
    breach_step: int | None = None

    def __len__(self) -> int:
        return int(self.steps.shape[0])


class Engine:
    """Simulation engine for one task set and configuration.

    Construction validates the configuration (unstable-filter and noise
    conditions are rejected before any simulation). A single engine instance
    is single-writer: share it across threads only for read-only use.
    """

    def __init__(self, specs: Sequence[TaskSpec], cfg: EngineConfig,
                 noise: NoiseSource | None = None):
        if not specs:
            raise ConfigError("need at least one task")
        self.specs = tuple(specs)
        self.cfg = cfg
        self.n = len(specs)
        report = validate_config(cfg, self.n, specs)
        if not report.ok:
            raise ConfigError("; ".join(report.errors))
        self.weights = np.array([t.weight for t in specs], dtype=float)
        self.bank = ModelBank([t.utility for t in specs])
        self.noise = noise if noise is not None else NoiseSource(
            cfg.seed, cfg.eta_bar, cfg.zeta_bar
        )
        self.lam_min = float(self.weights.min())
        self.c_bar = float(max(t.utility.bound_c for t in specs))
        self._eps_mu = cfg.eps_mu
        self._demand_breaks, self._demand_values = demand_table(specs)

    def demand_at(self, k: int) -> np.ndarray:
        """Demand vector in effect at step k."""
        row = int(np.searchsorted(self._demand_breaks, k, side="right")) - 1
        return self._demand_values[row]

    def initial_snapshot(self) -> EngineSnapshot:
        cfg = self.cfg
        if cfg.v_init is not None:
            if len(cfg.v_init) != self.n:
                raise ConfigError(
                    f"v_init has {len(cfg.v_init)} entries for {self.n} tasks"
                )
            v0 = np.asarray(cfg.v_init, dtype=float)
        else:
            v0 = uniform_allocation(self.n)
        s0 = np.full(self.n, float(cfg.s_init))
        d0 = self.demand_at(0)
        u0 = self.bank.eval(s0, v0, d0)
        f0 = fairness_from_utilities(self.weights, u0, v0)
        return EngineSnapshot(
            step=0, v=v0, s=s0,
            u_lp=u0, s_lp=s0 - FILTER_INIT_OFFSET,
            u_meas=u0, f_obs=f0, phi=f0.copy(),
            phi_sq_sum=float((f0 * f0).sum()),
        )

    def _advance(self, k, v, s, u_lp, s_lp, u_meas, zeta):
        """The update of step ``k`` on measurement ``u_meas``; step and run share it.

        Checks the measurement, moves the shares along the observed fairness
        index, then moves the levels by the filtered difference quotient
        plus dither ``zeta`` (``zeta=None`` freezes the levels). Returns
        ``(f, v, s, u_lp, s_lp)``. Raises MeasurementError for a measurement
        that is not finite and positive, FeasibilityBreach for a share
        leaving [0, 1].
        """
        w = self.weights / u_meas
        total = w.sum()
        # Weights lie in (0, 1], so this holds exactly when every 1/u_meas
        # is finite and positive and their weighted sum does not overflow.
        if not (w.min() > 0.0 and total < np.inf):
            # First task with w outside (0, inf), else the largest w.
            i = int(np.argmin(np.where(w > 0.0, -w, -np.inf)))
            value = float(u_meas[i])
            raise MeasurementError(
                f"utility measurement {value!r} is not finite and positive",
                k, i, value,
            )
        f = w - v * total
        v_new = v + self.cfg.epsilon * f
        if v_new.min() < 0.0 or v_new.max() > 1.0:
            i = int(np.argmax((v_new < 0.0) | (v_new > 1.0)))
            value = float(v_new[i])
            raise FeasibilityBreach(
                f"share {value!r} left [0, 1] (epsilon too large for this task set)",
                k, i, value,
            )
        if zeta is None:
            return f, v_new, s, u_lp, s_lp
        em = self._eps_mu
        du = self.cfg.gamma * (u_meas - u_lp)
        ds = self.cfg.gamma * (s - s_lp)
        mask = np.abs(ds) >= RATIO_GUARD
        ratio = np.divide(du, ds, out=np.zeros_like(du), where=mask)
        s_new = np.clip(s + em * np.tanh(ratio) + em * zeta, 0.0, 1.0)
        return f, v_new, s_new, u_lp + em * du, s_lp + em * ds

    def step(self, snap: EngineSnapshot, freeze_levels: bool = False) -> EngineSnapshot:
        """Advance one step: measure, update shares, update levels, diagnose."""
        k, n = snap.step, self.n
        u_meas = (self.bank.eval(snap.s, snap.v, self.demand_at(k))
                  + self.noise.measurement_block(k, k + 1, n)[0])
        zeta = None if freeze_levels else self.noise.dither_block(k, k + 1, n)[0]
        f, v, s, u_lp, s_lp = self._advance(
            k, snap.v, snap.s, snap.u_lp, snap.s_lp, u_meas, zeta
        )
        u_next = self.bank.eval(s, v, self.demand_at(k + 1))
        phi = fairness_from_utilities(self.weights, u_next, v)
        return EngineSnapshot(
            step=k + 1, v=v, s=s, u_lp=u_lp, s_lp=s_lp,
            u_meas=u_meas, f_obs=f, phi=phi,
            phi_sq_sum=float((phi * phi).sum()),
        )

    def _demand_rows(self, steps: np.ndarray) -> np.ndarray:
        rows = np.searchsorted(self._demand_breaks, steps, side="right") - 1
        return self._demand_values[rows]

    def run(self, stride: int = 1, freeze_levels: bool = False) -> RunTrace:
        """Iterate the horizon, recording every ``stride``-th snapshot.

        Produces exactly the states that iterating :meth:`step` would, and
        fails where it would; only the diagnostics (exact fairness,
        invariant ledger) are evaluated in bulk afterwards. On a
        MeasurementError or FeasibilityBreach the partial trace is attached
        to the raised exception. The ledger always covers every completed
        step, recorded or not.
        """
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        horizon = self.cfg.horizon
        n = self.n
        v_all = np.zeros((horizon, n))
        s_all = np.zeros((horizon, n))
        u_all = np.zeros((horizon, n))
        f_all = np.zeros((horizon, n))

        eta_blk = self.noise.measurement_block(0, horizon, n)
        zeta_rows = repeat(None) if freeze_levels else self.noise.dither_block(0, horizon, n)

        snap0 = self.initial_snapshot()
        v, s = snap0.v, snap0.s
        u_lp, s_lp = snap0.u_lp, snap0.s_lp
        weights = self.weights
        advance = self._advance
        bank_eval = self.bank.eval
        breaks = self._demand_breaks
        d_values = self._demand_values
        zone = 0
        next_break = int(breaks[1]) if len(breaks) > 1 else None
        d_k = d_values[0]

        failure: StepError | None = None
        try:
            for k, eta_k, zeta_k in zip(range(horizon), eta_blk, zeta_rows):
                if next_break is not None and k >= next_break:
                    zone += 1
                    d_k = d_values[zone]
                    next_break = int(breaks[zone + 1]) if zone + 1 < len(breaks) else None
                u_meas = bank_eval(s, v, d_k) + eta_k
                f, v, s, u_lp, s_lp = advance(k, v, s, u_lp, s_lp, u_meas, zeta_k)
                v_all[k] = v
                s_all[k] = s
                u_all[k] = u_meas
                f_all[k] = f
        except StepError as err:
            failure = err
        done = horizon if failure is None else failure.step

        # Bulk diagnostics over the completed prefix.
        v_all, s_all, u_all, f_all = (
            a[:done] for a in (v_all, s_all, u_all, f_all)
        )
        steps_all = np.arange(1, done + 1, dtype=np.int64)
        ledger = RunLedger()
        if done:
            d_rows = self._demand_rows(steps_all)
            u_exact = bank_eval(s_all, v_all, d_rows)
            w_rows = weights / u_exact
            phi_all = w_rows - v_all * w_rows.sum(axis=1, keepdims=True)
            phi_sq_all = (phi_all * phi_all).sum(axis=1)
            v_pre = np.vstack([snap0.v, v_all[:-1]])
            lam_ratio = self.lam_min / self.c_bar
            ledger.max_simplex_dev = float(np.abs(v_all.sum(axis=1) - 1.0).max())
            ledger.v_min = float(v_all.min())
            ledger.v_max = float(v_all.max())
            ledger.max_abs_f_sum = float(np.abs(f_all.sum(axis=1)).max())
            ledger.f_low_gap = float(((lam_ratio - v_pre * n) - f_all).max())
            ledger.f_high_gap = float((f_all - (1.0 - v_pre * n * lam_ratio)).max())
            arg = int(np.argmin(phi_sq_all))
            ledger.phi_sq_min = float(phi_sq_all[arg])
            ledger.phi_sq_min_step = int(steps_all[arg])
        else:
            phi_all = np.zeros((0, n))
            phi_sq_all = np.zeros(0)

        keep = slice(stride - 1, done - (done % stride), stride)
        trace = RunTrace(
            steps=steps_all[keep], v=v_all[keep], s=s_all[keep],
            u_meas=u_all[keep], f_obs=f_all[keep], phi=phi_all[keep],
            phi_sq=phi_sq_all[keep], ledger=ledger, stride=stride,
            complete=failure is None,
            breach_step=None if failure is None else failure.step,
        )
        if failure is not None:
            failure.trace = trace
            raise failure
        return trace


def run(
    specs: Sequence[TaskSpec],
    cfg: EngineConfig,
    stride: int = 1,
    freeze_levels: bool = False,
) -> RunTrace:
    """Simulate ``cfg.horizon`` steps from the initial state."""
    return Engine(specs, cfg).run(stride=stride, freeze_levels=freeze_levels)
