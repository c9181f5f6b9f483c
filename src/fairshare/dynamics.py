"""Measurement-driven update recursions and the stepping engine.

Each step measures every task's utility once (with bounded noise), moves the
shares along the observed fairness index, and nudges each operation level in
the direction indicated by a filtered difference quotient of the same
measurement. Shares move with step ``epsilon``; levels move with the larger
step ``epsilon * mu(epsilon)``, so levels settle quickly relative to shares.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    "recurrence_window",
    "run",
]

# Initial gap between a level and its filter; avoids a degenerate zero
# denominator on the very first direction estimate.
FILTER_INIT_OFFSET = 1e-3
# Below this magnitude the level has not moved, so no direction estimate
# exists and the drift term is zeroed (dither keeps exploring).
RATIO_GUARD = 1e-12
# Steps per chunk of Engine.run: its working arrays span one chunk, so their
# size does not grow with the horizon.
_CHUNK_STEPS = 4096


def recurrence_window(epsilon: float, lam_min: float, c_bar: float) -> int:
    """Window length over which the recurrence properties are checked."""
    return int(math.ceil(5.0 / (epsilon * lam_min / c_bar)))


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
    """Extrema of the per-step invariants, folded online over a whole run.

    The fairness-increment gaps compare each step's index against the
    analytic envelope lam_min/c_bar - v*n <= F <= 1 - v*n*lam_min/c_bar
    using the share the index was evaluated at. ``phi_sq_min`` is the first
    smallest finite ``sum(phi^2)`` and ``phi_sq_min_step`` its step.

    The recurrence windows are fixed before the run: after a burn-in of
    ``horizon // 10`` steps, window ``w`` covers the ``window_steps`` steps
    from ``window_start + w * window_steps``, as many whole windows as the
    horizon holds. Row ``w`` of ``window_v_max``/``window_v_min`` holds each
    task's largest/smallest share over the completed steps of window ``w``.
    """

    max_simplex_dev: float = 0.0
    v_min: float = np.inf
    v_max: float = -np.inf
    max_abs_f_sum: float = 0.0
    f_low_gap: float = -np.inf
    f_high_gap: float = -np.inf
    phi_sq_min: float = np.inf
    phi_sq_min_step: int = -1
    window_start: int = 1
    window_steps: int = 1
    window_v_max: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    window_v_min: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def fold(self, k0: int, v_pre: np.ndarray, v, f, phi_sq, lam_ratio: float) -> None:
        """Fold completed steps ``k0 + 1 ...`` into the extrema.

        ``v``, ``f`` and ``phi_sq`` are the rows of those steps, ``v_pre``
        the shares each step started from.
        """
        n = v.shape[1]
        self.max_simplex_dev = max(
            self.max_simplex_dev, float(np.abs(v.sum(axis=1) - 1.0).max())
        )
        self.v_min = min(self.v_min, float(v.min()))
        self.v_max = max(self.v_max, float(v.max()))
        self.max_abs_f_sum = max(self.max_abs_f_sum, float(np.abs(f.sum(axis=1)).max()))
        self.f_low_gap = max(self.f_low_gap, float(((lam_ratio - v_pre * n) - f).max()))
        self.f_high_gap = max(
            self.f_high_gap, float((f - (1.0 - v_pre * n * lam_ratio)).max())
        )
        finite = np.where(np.isfinite(phi_sq), phi_sq, np.inf)
        arg = int(np.argmin(finite))
        if finite[arg] < self.phi_sq_min:
            self.phi_sq_min = float(finite[arg])
            self.phi_sq_min_step = k0 + arg + 1
        # Rows lo..hi-1 of v fall into windows first..last.
        wl = self.window_steps
        w0 = self.window_start - 1 - k0
        lo = max(0, w0)
        hi = min(len(v), w0 + len(self.window_v_max) * wl)
        if lo < hi:
            first, last = (lo - w0) // wl, (hi - 1 - w0) // wl
            cuts = np.maximum(w0 + wl * np.arange(first, last + 1) - lo, 0)
            rows = v[lo:hi]
            span = slice(first, last + 1)
            np.maximum(self.window_v_max[span],
                       np.maximum.reduceat(rows, cuts, axis=0),
                       out=self.window_v_max[span])
            np.minimum(self.window_v_min[span],
                       np.minimum.reduceat(rows, cuts, axis=0),
                       out=self.window_v_min[span])


@dataclass
class RunTrace:
    """Recorded trajectory of one run (thinned by ``stride``), plus ledger.

    Row ``r`` holds step ``(r + 1) * stride``; the ledger was folded chunk
    by chunk over every completed step, so it does not depend on
    ``stride``. ``breach_step`` is the step whose update failed when the run
    aborted (``complete`` is False), else None.
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

    def demand_at(self, k) -> np.ndarray:
        """Demand vector in effect at step k; one row per step for an array."""
        rows = np.searchsorted(self._demand_breaks, k, side="right") - 1
        return self._demand_values[rows]

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
        # As in run: the kernel raises on every bad measurement itself.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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

    def run(self, stride: int = 1, freeze_levels: bool = False) -> RunTrace:
        """Iterate the horizon chunk by chunk, keeping every ``stride``-th step.

        Produces exactly the states that iterating :meth:`step` would, and
        fails where it would. The horizon is walked in chunks of
        ``_CHUNK_STEPS`` steps; each chunk draws its noise, runs the update
        kernel, evaluates the diagnostics (exact fairness) in bulk, folds
        them into the ledger and copies out only its recorded steps. So
        memory is bounded by the kept records plus one chunk, whatever the
        horizon, and since the noise is counter-keyed the chunking moves no
        bit. The ledger, the recurrence windows included, covers every
        completed step, recorded or not, so ``stride`` thins the trace but
        no verdict. On a MeasurementError or FeasibilityBreach the partial
        trace is attached to the raised exception.
        """
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        horizon, n = self.cfg.horizon, self.n
        kept = horizon // stride
        v_rec, s_rec, u_rec, f_rec, phi_rec = (np.empty((kept, n)) for _ in range(5))
        phi_sq_rec = np.empty(kept)
        # The windows the recurrence verdicts read: whole windows from step
        # max(horizon // 10, 1), the first step not before the burn-in.
        window = recurrence_window(self.cfg.epsilon, self.lam_min, self.c_bar)
        start = max(horizon // 10, 1)
        n_windows = (horizon - start + 1) // window
        ledger = RunLedger(
            window_start=start, window_steps=window,
            window_v_max=np.full((n_windows, n), -np.inf),
            window_v_min=np.full((n_windows, n), np.inf),
        )
        lam_ratio = self.lam_min / self.c_bar
        weights = self.weights
        advance = self._advance
        bank_eval = self.bank.eval
        chunk = _CHUNK_STEPS
        v_buf, s_buf, u_buf, f_buf = (np.empty((chunk, n)) for _ in range(4))

        done = 0
        failure: StepError | None = None
        # Every bad measurement raises from the kernel's own check, and the
        # failing state's diagnostics may read NaN: neither needs a warning.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            snap0 = self.initial_snapshot()
            v, s = snap0.v, snap0.s
            u_lp, s_lp = snap0.u_lp, snap0.s_lp
            for k0 in range(0, horizon, chunk):
                k1 = min(k0 + chunk, horizon)
                # Demand of the measurements at steps k0..k1-1, then of the
                # diagnostics at the states after them, k0+1..k1.
                d_rows = self.demand_at(np.arange(k0, k1 + 1))
                eta = self.noise.measurement_block(k0, k1, n)
                zeta = repeat(None) if freeze_levels else self.noise.dither_block(k0, k1, n)
                v_start = v
                try:
                    for j, k, d_k, eta_k, zeta_k in zip(
                        range(chunk), range(k0, k1), d_rows, eta, zeta
                    ):
                        u_meas = bank_eval(s, v, d_k) + eta_k
                        f, v, s, u_lp, s_lp = advance(k, v, s, u_lp, s_lp, u_meas, zeta_k)
                        v_buf[j] = v
                        s_buf[j] = s
                        u_buf[j] = u_meas
                        f_buf[j] = f
                except StepError as err:
                    failure = err
                done = k1 if failure is None else failure.step
                m = done - k0
                if m:
                    vc, sc = v_buf[:m], s_buf[:m]
                    w_rows = weights / bank_eval(sc, vc, d_rows[1:m + 1])
                    phi = w_rows - vc * w_rows.sum(axis=1, keepdims=True)
                    phi_sq = (phi * phi).sum(axis=1)
                    v_pre = np.vstack([v_start, vc[:-1]])
                    ledger.fold(k0, v_pre, vc, f_buf[:m], phi_sq, lam_ratio)
                    # Local rows whose step k0 + j + 1 is a multiple of stride,
                    # and the records they fill.
                    keep = slice((-k0 - 1) % stride, m, stride)
                    rows = slice(k0 // stride, done // stride)
                    v_rec[rows] = vc[keep]
                    s_rec[rows] = sc[keep]
                    u_rec[rows] = u_buf[keep]
                    f_rec[rows] = f_buf[keep]
                    phi_rec[rows] = phi[keep]
                    phi_sq_rec[rows] = phi_sq[keep]
                if failure is not None:
                    break

        n_rec = done // stride
        trace = RunTrace(
            steps=np.arange(stride, n_rec * stride + 1, stride, dtype=np.int64),
            v=v_rec[:n_rec], s=s_rec[:n_rec], u_meas=u_rec[:n_rec],
            f_obs=f_rec[:n_rec], phi=phi_rec[:n_rec], phi_sq=phi_sq_rec[:n_rec],
            ledger=ledger, stride=stride, complete=failure is None,
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
