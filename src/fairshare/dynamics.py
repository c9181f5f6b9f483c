"""Measurement-driven update recursions and the stepping engine.

Each step measures every task's utility once (with bounded noise), moves the
shares along the observed fairness index, and nudges each operation level in
the direction indicated by a filtered difference quotient of the same
measurement. Shares move with step ``epsilon``; levels move with the larger
step ``epsilon * mu(epsilon)``, so levels settle quickly relative to shares.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    ConfigError,
    DemandTable,
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
    "recurrence_window",
]

# Initial gap between a level and its filter; avoids a degenerate zero
# denominator on the very first direction estimate.
FILTER_INIT_OFFSET = 1e-3
# Below this magnitude the level has not moved, so no direction estimate
# exists and the drift term is zeroed (dither keeps exploring).
RATIO_GUARD = 1e-12
# Steps per chunk of Engine.run_lanes: its working arrays span one chunk, so
# their size does not grow with the horizon.
_CHUNK_STEPS = 4096
# A level this close to the level maximizer counts as near-optimal.
S_OPT_TOL = 0.05


def recurrence_window(epsilon: float, lam_min: float, c_bar: float) -> int:
    """Window length over which the recurrence properties are checked.

    A ConfigError when ``epsilon * lam_min / c_bar`` is so small that the
    window overflows a float.
    """
    rate = epsilon * lam_min / c_bar
    window = 5.0 / rate if rate > 0.0 else math.inf
    if window == math.inf:
        raise ConfigError(
            f"the recurrence window 5 / (epsilon * lam_min / c_bar) overflows at "
            f"epsilon = {epsilon!r}, lam_min = {lam_min!r}, c_bar = {c_bar!r}"
        )
    return int(math.ceil(window))


@contextmanager
def _fits_in_memory(what: str, nbytes: int, horizon: int, stride: int):
    """Turn a failed allocation inside into a ConfigError naming the run's
    size. numpy raises a ValueError for a shape beyond its largest dimension."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise ConfigError(
            f"horizon {horizon} at stride {stride} does not fit in memory: "
            f"the {what} need {nbytes:.4g} bytes"
        ) from exc


def fairness_from_utilities(weights, utilities, v) -> np.ndarray:
    """Fairness index from known utility values.

    Component i is (1 - v_i) * w_i - v_i * sum_{j != i} w_j with
    w = weights / utilities, which simplifies to w_i - v_i * sum(w). Positive
    values flag resource deficiency, negative values a surplus; the vector
    sums to zero whenever v sums to one. The sum runs over the last (task)
    axis, so a batch of rows gives one index per row.
    """
    w = np.asarray(weights, dtype=float) / np.asarray(utilities, dtype=float)
    return w - np.asarray(v, dtype=float) * w.sum(axis=-1, keepdims=True)


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

    The ``opt_steps`` final steps, from ``opt_start`` on, are the
    ``s_optimality`` tail: ``opt_hits`` counts per task those of its
    completed steps whose level lay within ``S_OPT_TOL`` of
    ``ModelBank.argmax`` at that step's share and demand.
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
    opt_start: int = 1
    opt_steps: int = 1
    opt_hits: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def fold(self, k0: int, v_pre: np.ndarray, v, f, phi_sq, lam_ratio: float,
             near_opt) -> None:
        """Fold completed steps ``k0 + 1 ...`` into the extrema and counts.

        ``v``, ``f`` and ``phi_sq`` are the rows of those steps, ``v_pre``
        the shares each step started from, and ``near_opt`` says, for those
        of them from ``opt_start`` on, which levels were near-optimal.
        """
        self.opt_hits += near_opt.sum(axis=0)
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
    conditions are rejected before any simulation). ``demand`` is the task
    set's demand table, read at every step. A single engine instance is
    single-writer: share it across threads only for read-only use.
    """

    def __init__(self, specs: Sequence[TaskSpec], cfg: EngineConfig,
                 noise: NoiseSource | None = None):
        validate_config(cfg, specs)
        self.specs = tuple(specs)
        self.cfg = cfg
        self.n = len(specs)
        self.weights = np.array([t.weight for t in specs], dtype=float)
        self.bank = ModelBank([t.utility for t in specs])
        self.noise = noise if noise is not None else NoiseSource(
            cfg.seed, cfg.eta_bar, cfg.zeta_bar
        )
        self.lam_min = float(self.weights.min())
        self.c_bar = float(max(t.utility.bound_c for t in specs))
        self.demand = demand_table(specs)

    def initial_snapshot(self) -> EngineSnapshot:
        cfg = self.cfg
        v0 = (uniform_allocation(self.n) if cfg.v_init is None
              else np.asarray(cfg.v_init, dtype=float))
        # + 0.0 turns an s_init of -0.0 into 0.0, so no level is ever -0.0
        # (see _advance).
        s0 = np.full(self.n, float(cfg.s_init) + 0.0)
        d0 = self.demand.at(0)
        u0 = self.bank.eval(s0, v0, d0)
        f0 = fairness_from_utilities(self.weights, u0, v0)
        return EngineSnapshot(
            step=0, v=v0, s=s0,
            u_lp=u0, s_lp=s0 - FILTER_INIT_OFFSET,
            u_meas=u0, f_obs=f0, phi=f0.copy(),
            phi_sq_sum=float((f0 * f0).sum()),
        )

    def _advance(self, bank, state, d_rows, eta, zeta, keep, bufs) -> None:
        """The update kernel: walks ``len(eta)`` steps from ``state``.

        ``state`` is ``(v, s, u_lp, s_lp)``, each shaped ``(R, n)``, one row
        per lane; the filters ``u_lp`` and ``s_lp`` are updated in place,
        ``v`` and ``s`` only read. Step ``j`` measures with ``bank.eval`` at
        demand ``d_rows[j]`` plus noise ``eta[j]``, moves the shares along
        the observed fairness index, then the levels by the filtered
        difference quotient plus dither ``zeta[j]``, and writes the
        measurement, the index and the new shares and levels into row ``j``
        of ``bufs = (v_buf, s_buf, u_buf, f_buf)``. A boolean ``keep``
        shaped like the state (or None) freezes the levels where it is True
        by keeping their old ``s`` (a zero level step would not: a huge
        measurement makes the filter step inf, and 0 * inf is NaN); their
        filters move on but are not read while the levels stay.
        Every :meth:`step` and run goes through here, and it checks nothing:
        ``_failures`` finds the first bad step of a whole chunk afterwards.

        Each element goes through the operations of
        ``v + eps * (w - v * sum(w))`` with ``w = weights / u_meas``, and of
        ``clip(s + em * tanh(du / ds) + em * zeta, 0, 1)``, in that order;
        the constants are arrays shaped like the state, since a same-shape
        operand is the cheapest ufunc call. The clip is ``maximum`` then
        ``minimum``, which can differ from ``np.clip`` only on a -0.0
        operand. The pre-clip level cannot be -0.0: a rounded sum is -0.0
        only when both addends are, so ``s`` would have to be -0.0, yet
        every level is either the initial one (never -0.0, see
        :meth:`initial_snapshot`) or a previous step's clip of a level that
        was not -0.0, and ``maximum(x, 0.0)`` is -0.0 only for x = -0.0.
        """
        v, s, u_lp, s_lp = state
        v_buf, s_buf, u_buf, f_buf = bufs
        shape = v.shape
        cfg = self.cfg
        weights = np.broadcast_to(self.weights, shape).copy()
        eps, em = np.full(shape, cfg.epsilon), np.full(shape, cfg.eps_mu)
        gamma = np.full(shape, cfg.gamma)
        guard = np.full(shape, RATIO_GUARD)
        lo, hi = np.zeros(shape), np.ones(shape)
        w, tmp = np.empty(shape), np.empty(shape)
        du, ds = np.empty(shape), np.empty(shape)
        mask = np.empty(shape, dtype=bool)
        # The dither enters the level step as em * zeta: scaled once here.
        zeta = cfg.eps_mu * zeta
        bank_eval = bank.eval
        for j, d_k, eta_k in zip(range(len(eta)), d_rows, eta):
            u, f, v_new, s_new = u_buf[j], f_buf[j], v_buf[j], s_buf[j]
            np.add(bank_eval(s, v, d_k), eta_k, out=u)
            np.divide(weights, u, out=w)
            np.multiply(v, np.add.reduce(w, axis=-1, keepdims=True), out=tmp)
            np.subtract(w, tmp, out=f)
            np.multiply(eps, f, out=tmp)
            np.add(v, tmp, out=v_new)
            np.subtract(u, u_lp, out=du)
            np.multiply(gamma, du, out=du)
            np.subtract(s, s_lp, out=ds)
            np.multiply(gamma, ds, out=ds)
            np.absolute(ds, out=tmp)
            np.greater_equal(tmp, guard, out=mask)
            ratio = np.zeros(shape)
            np.divide(du, ds, out=ratio, where=mask)
            np.tanh(ratio, out=ratio)
            np.multiply(em, ratio, out=ratio)
            np.add(s, ratio, out=ratio)
            np.add(ratio, zeta[j], out=ratio)
            np.maximum(ratio, lo, out=ratio)
            np.minimum(ratio, hi, out=s_new)
            if keep is not None:
                np.copyto(s_new, s, where=keep)
            np.multiply(em, du, out=du)
            np.add(u_lp, du, out=u_lp)
            np.multiply(em, ds, out=ds)
            np.add(s_lp, ds, out=s_lp)
            v, s = v_new, s_new

    def _failures(self, k0: int, u_meas, v_new) -> list[StepError | None]:
        """Per lane, the error of its first bad step among steps ``k0, k0 + 1, ...``.

        ``u_meas`` and ``v_new`` have shape ``(m, R, n)``: per step and
        lane, the measurement and the shares the update made from it. A
        measurement that is not finite and positive is a MeasurementError;
        otherwise a share outside [0, 1] is a FeasibilityBreach. Each names
        the step, the task and the value.
        """
        w = self.weights / u_meas
        # Weights lie in (0, 1], so this holds exactly when every 1/u_meas
        # is finite and positive and their weighted sum does not overflow.
        bad_u = ~((w.min(axis=-1) > 0.0) & (w.sum(axis=-1) < np.inf))
        bad = bad_u | (v_new.min(axis=-1) < 0.0) | (v_new.max(axis=-1) > 1.0)
        errors: list[StepError | None] = [None] * bad.shape[1]
        for r in np.flatnonzero(bad.any(axis=0)):
            j = int(np.argmax(bad[:, r]))
            if bad_u[j, r]:
                # First task with w outside (0, inf), else the largest w.
                i = int(np.argmin(np.where(w[j, r] > 0.0, -w[j, r], -np.inf)))
                value = float(u_meas[j, r, i])
                errors[r] = MeasurementError(
                    f"utility measurement {value!r} is not finite and positive",
                    k0 + j, i, value,
                )
            else:
                row = v_new[j, r]
                i = int(np.argmax((row < 0.0) | (row > 1.0)))
                value = float(row[i])
                errors[r] = FeasibilityBreach(
                    f"share {value!r} left [0, 1] (epsilon too large for this task set)",
                    k0 + j, i, value,
                )
        return errors

    def step(self, snap: EngineSnapshot, freeze_levels: bool = False) -> EngineSnapshot:
        """Advance one step: measure, update shares, update levels, diagnose."""
        k, n = snap.step, self.n
        # One lane: the state and every row carry a lane axis of length 1.
        bufs = [np.empty((1, 1, n)) for _ in range(4)]
        u_lp, s_lp = snap.u_lp[None].copy(), snap.s_lp[None].copy()
        # As in run: the check below raises on every bad measurement.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            d_rows = self.demand.at(np.arange(k, k + 2))[:, None]
            # A frozen step keeps its levels; its filters move on as usual.
            zeta = (np.zeros((1, 1, n)) if freeze_levels
                    else self.noise.dither_block(k, k + 1, n)[:, None])
            keep = np.ones((1, n), dtype=bool) if freeze_levels else None
            self._advance(self.bank, (snap.v[None], snap.s[None], u_lp, s_lp), d_rows,
                          self.noise.measurement_block(k, k + 1, n)[:, None], zeta, keep,
                          bufs)
            (error,) = self._failures(k, bufs[2], bufs[0])
            if error is not None:
                raise error
            v, s, u_meas, f = (b[0, 0] for b in bufs)
            u_next = self.bank.eval(s, v, d_rows[1, 0])
            phi = fairness_from_utilities(self.weights, u_next, v)
        return EngineSnapshot(
            step=k + 1, v=v, s=s, u_lp=u_lp[0], s_lp=s_lp[0],
            u_meas=u_meas, f_obs=f, phi=phi,
            phi_sq_sum=float((phi * phi).sum()),
        )

    def run(self, stride: int = 1, freeze_levels: bool = False) -> RunTrace:
        """Iterate the horizon, keeping every ``stride``-th step.

        The one-lane :meth:`run_lanes` on the engine's own noise source.
        Produces exactly the states that iterating :meth:`step` would, and
        fails where it would: a MeasurementError or FeasibilityBreach is
        raised with the partial trace attached.
        """
        (result,) = self.run_lanes([(self.noise, freeze_levels)], stride)
        if isinstance(result, StepError):
            raise result
        return result

    def run_lanes(
        self, lanes: Sequence[tuple[NoiseSource, bool]], stride: int = 1
    ) -> list[RunTrace | StepError]:
        """Run several ``(noise, freeze_levels)`` lanes through one step loop.

        A lane is a noise stream: a NoiseSource, or any object with its
        ``measurement_block`` and ``dither_block``. Every lane runs the
        engine's task set and configuration, so it needs no check of its
        own. The state carries a leading lane axis, one lane included, so R
        lanes cost one loop's numpy calls. Returns per lane, bit for bit,
        the RunTrace that ``Engine(specs, cfg, noise=noise).run(stride,
        freeze_levels)`` returns, or the StepError it raises with its
        partial ``.trace``; a failed lane stays in the loop, unrecorded,
        and the others go on.

        The horizon is walked in chunks of ``_CHUNK_STEPS`` steps; each
        chunk draws its noise, runs the update kernel, checks the chunk's
        measurements and shares at once (``_failures``, as :meth:`step`
        does), evaluates the diagnostics (exact fairness) and the level
        maximizers of the ``s_optimality`` tail in bulk, folds them into
        each lane's ledger and copies out only its recorded steps. So memory
        is bounded by the kept records plus one chunk, whatever the horizon,
        and since the noise is counter-keyed the chunking moves no bit. The
        ledger covers every completed step, recorded or not, so ``stride``
        thins the trace but no verdict.
        """
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        noises = [noise for noise, _ in lanes]
        if not noises:
            raise ValueError("need at least one lane")
        # Lanes whose levels stay, laid out (R, n) like the state.
        frozen = np.array([[bool(freeze)] * self.n for _, freeze in lanes])
        horizon, n, lanes_n = self.cfg.horizon, self.n, len(noises)
        kept = horizon // stride
        with _fits_in_memory("records", 8 * lanes_n * kept * (5 * n + 1), horizon, stride):
            records = [[np.empty((kept, n)) for _ in range(5)] + [np.empty(kept)]
                       for _ in noises]
        ledgers = [self._ledger(stride) for _ in noises]
        results: list[RunTrace | StepError | None] = [None] * lanes_n
        lam_ratio = self.lam_min / self.c_bar
        # The bank and the demand rows are laid out (R, n), like the state,
        # so that no operand of a step's model evaluation broadcasts.
        bank = self.bank.laid_out(lanes_n)
        demand = DemandTable(self.demand.breaks,
                             np.repeat(self.demand.values[:, None], lanes_n, axis=1))

        # Every bad measurement is caught by _failures, and the steps after
        # a lane's failure, like the failing state's diagnostics, may read
        # NaN: neither needs a warning.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            snap0 = self.initial_snapshot()
            v, s, u_lp, s_lp = (np.tile(x, (lanes_n, 1))
                                for x in (snap0.v, snap0.s, snap0.u_lp, snap0.s_lp))
            chunk = _CHUNK_STEPS
            # The chunk's records, then its measurement noise and dither.
            bufs = [np.empty((chunk, lanes_n, n)) for _ in range(6)]
            for k0 in range(0, horizon, chunk):
                k1 = min(k0 + chunk, horizon)
                m = k1 - k0
                # Demand of the measurements at steps k0..k1-1, then of the
                # diagnostics at the states after them, k0+1..k1.
                d_rows = demand.at(np.arange(k0, k1 + 1))
                v_buf, s_buf, u_buf, f_buf, eta, zeta = (b[:m] for b in bufs)
                for r, nz in enumerate(noises):
                    eta[:, r] = nz.measurement_block(k0, k1, n)
                    zeta[:, r] = 0.0 if frozen[r, 0] else nz.dither_block(k0, k1, n)
                self._advance(bank, (v, s, u_lp, s_lp), d_rows, eta, zeta,
                              frozen if frozen.any() else None, (v_buf, s_buf, u_buf, f_buf))
                v_start = v
                v, s = v_buf[m - 1].copy(), s_buf[m - 1].copy()

                errors = self._failures(k0, u_buf, v_buf)
                # Rows of the s_optimality tail: steps from opt_start on.
                lo = min(max(ledgers[0].opt_start - 1 - k0, 0), m)
                near_opt = np.abs(
                    s_buf[lo:] - bank.argmax(v_buf[lo:], d_rows[1 + lo:])
                ) < S_OPT_TOL
                phi = fairness_from_utilities(
                    self.weights, bank.eval(s_buf, v_buf, d_rows[1:]), v_buf
                )
                phi_sq = (phi * phi).sum(axis=-1)
                for r, error in enumerate(errors):
                    if results[r] is not None:
                        continue
                    done = k1 if error is None else error.step
                    m_r = done - k0
                    if m_r:
                        vc = v_buf[:m_r, r]
                        v_pre = np.vstack([v_start[r], vc[:-1]])
                        ledgers[r].fold(k0, v_pre, vc, f_buf[:m_r, r], phi_sq[:m_r, r],
                                        lam_ratio, near_opt[:max(m_r - lo, 0), r])
                        # Local rows whose step k0 + j + 1 is a multiple of
                        # stride, and the records they fill.
                        picked = slice((-k0 - 1) % stride, m_r, stride)
                        rows = slice(k0 // stride, done // stride)
                        for rec, buf in zip(records[r], (v_buf, s_buf, u_buf, f_buf,
                                                         phi, phi_sq)):
                            rec[rows] = buf[picked, r]
                    if error is not None:
                        error.trace = _trace(records[r], ledgers[r], stride, done, error)
                        results[r] = error
                if None not in results:
                    break

        return [_trace(records[r], ledgers[r], stride, horizon, None) if result is None
                else result for r, result in enumerate(results)]

    def _ledger(self, stride: int) -> RunLedger:
        """An empty ledger with the recurrence windows and the tail of a run;
        ``stride`` names the run if the windows do not fit in memory."""
        horizon = self.cfg.horizon
        # The windows the recurrence verdicts read: whole windows from step
        # max(horizon // 10, 1), the first step not before the burn-in.
        window = recurrence_window(self.cfg.epsilon, self.lam_min, self.c_bar)
        start = max(horizon // 10, 1)
        n_windows = (horizon - start + 1) // window
        # s_optimality reads the final 20% of the steps.
        opt_steps = max(1, int(round(horizon * 0.2)))
        with _fits_in_memory("recurrence windows", 16 * n_windows * self.n,
                             horizon, stride):
            v_max = np.full((n_windows, self.n), -np.inf)
            v_min = np.full((n_windows, self.n), np.inf)
        return RunLedger(
            window_start=start, window_steps=window,
            window_v_max=v_max, window_v_min=v_min,
            opt_start=horizon - opt_steps + 1, opt_steps=opt_steps,
            opt_hits=np.zeros(self.n, dtype=np.int64),
        )


def _trace(records, ledger: RunLedger, stride: int, done: int,
           failure: StepError | None) -> RunTrace:
    """The RunTrace of a lane whose first ``done`` steps completed."""
    n_rec = done // stride
    v, s, u_meas, f_obs, phi, phi_sq = (x[:n_rec] for x in records)
    return RunTrace(
        steps=np.arange(stride, n_rec * stride + 1, stride, dtype=np.int64),
        v=v, s=s, u_meas=u_meas, f_obs=f_obs, phi=phi, phi_sq=phi_sq,
        ledger=ledger, stride=stride, complete=failure is None,
        breach_step=None if failure is None else failure.step,
    )

