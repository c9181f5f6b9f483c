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
from dataclasses import dataclass
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

    window_start: int
    window_steps: int
    window_v_max: np.ndarray
    window_v_min: np.ndarray
    opt_start: int
    opt_steps: int
    opt_hits: np.ndarray
    max_simplex_dev: float = 0.0
    v_min: float = np.inf
    v_max: float = -np.inf
    max_abs_f_sum: float = 0.0
    f_low_gap: float = -np.inf
    f_high_gap: float = -np.inf
    phi_sq_min: float = np.inf
    phi_sq_min_step: int = -1

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
    aborted, else None.
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
    breach_step: int | None = None

    @property
    def complete(self) -> bool:
        """Whether the run walked its whole horizon."""
        return self.breach_step is None

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
        # The one-lane kernels of step, by freeze_levels.
        self._step_kernels = [self._kernel([(self.noise, freeze)]) for freeze in (False, True)]

    def initial_snapshot(self) -> EngineSnapshot:
        cfg = self.cfg
        v0 = (uniform_allocation(self.n) if cfg.v_init is None
              else np.asarray(cfg.v_init, dtype=float))
        # + 0.0 turns an s_init of -0.0 into 0.0, so no level is ever -0.0
        # (see _kernel).
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

    def _kernel(self, lanes):
        """The update kernel of the ``(noise, freeze_levels)`` lanes.

        Lays out, once, what depends only on the lanes: the bank and the
        weights ``(R, n)`` like the state, so that no operand of a step's
        model evaluation broadcasts, the ``keep`` mask, the scratch rows and
        the ufuncs. Returns ``chunk(state, k0, k1, bufs)``, which walks steps
        ``k0`` to ``k1 - 1`` from ``state`` and returns the chunk's
        ``_failures`` and the noise-free fairness index at each new state.
        Every :meth:`step` and run goes through it, and it checks nothing
        itself: ``_failures`` finds the first bad step of a whole chunk
        afterwards.

        ``state`` is ``(v, lp)``: the shares, shaped ``(R, n)`` with one row
        per lane and only read, and the filters ``(u_lp, s_lp)`` stacked in
        one ``(2, R, n)`` array, updated in place. ``bufs`` are ``(pair,
        v_buf, f_buf, eta, zeta)``. ``pair`` is ``(rows + 1, 2, R, n)``:
        ``pair[j, 0]`` is step ``j``'s measurement and ``pair[j, 1]`` the
        level it starts from, so the caller puts the chunk's first level in
        ``pair[0, 1]``, step ``j`` writes its new level into ``pair[j + 1,
        1]``, and ``pair[j]`` is the ``(u, s)`` couple the filters follow.
        Step ``j`` writes its index and shares into row ``j`` of ``f_buf``
        and ``v_buf``; the noise ``eta`` and the dither ``zeta`` are drawn
        per chunk. Step ``j`` measures at demand ``k0 + j`` plus noise,
        moves the shares along the observed fairness index, then the levels
        by the filtered difference quotient plus dither. A frozen lane
        (``keep`` True) keeps its old ``s`` (a zero level step would not: a
        huge measurement makes the filter step inf, and 0 * inf is NaN); its
        filters move on but are not read while the levels stay.

        Each element goes through the operations of
        ``v + eps * (w - v * sum(w))`` with ``w = weights / u_meas``, and of
        ``clip(s + em * tanh(du / ds) + em * zeta, 0, 1)``, in that order;
        stacking the two filters changes no element's operations. The
        scalars are 0-d arrays, as cheap an operand as a same-shape array,
        and ``out`` is positional, which numpy takes faster than the
        keyword; ``maximum`` and ``minimum`` keep the keyword, since a
        positional ``out`` is deprecated for them. The clip is ``maximum``
        then ``minimum``, which can differ from ``np.clip`` only on a -0.0
        operand. The pre-clip level cannot be -0.0: a rounded sum is -0.0
        only when both addends are, so ``s`` would have to be -0.0, yet
        every level is either the initial one (never -0.0, see
        :meth:`initial_snapshot`) or a previous step's clip of a level that
        was not -0.0, and ``maximum(x, 0.0)`` is -0.0 only for x = -0.0.
        """
        cfg, lanes_n, n = self.cfg, len(lanes), self.n
        shape = (lanes_n, n)
        bank = self.bank.laid_out(lanes_n)
        weights = np.broadcast_to(self.weights, shape).copy()
        keep = np.array([[bool(freeze)] * n for _, freeze in lanes])
        keep = keep if keep.any() else None
        eps, em, gamma, guard, lo, hi = (
            np.array(x) for x in (cfg.epsilon, cfg.eps_mu, cfg.gamma, RATIO_GUARD, 0.0, 1.0))
        w, tmp, ratio = (np.empty(shape) for _ in range(3))
        w_sum = np.empty((lanes_n, 1))
        dd = np.empty((2, *shape))
        du, ds = dd
        mask = np.empty(shape, dtype=bool)
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        reduce, absolute, greater_equal, tanh = np.add.reduce, np.absolute, np.greater_equal, np.tanh
        maximum, minimum, copyto = np.maximum, np.minimum, np.copyto

        def chunk(state, k0: int, k1: int, bufs):
            m = k1 - k0
            v, lp = state
            # Demand of the measurements at steps k0..k1-1, then of the
            # diagnostics at the states after them, k0+1..k1.
            d_rows = np.repeat(self.demand.at(np.arange(k0, k1 + 1))[:, None], lanes_n, axis=1)
            pair = bufs[0]
            v_buf, f_buf, eta, zeta = (b[:m] for b in bufs[1:])
            # A frozen lane's dither enters only the level step that keep discards.
            for r, (noise, _) in enumerate(lanes):
                eta[:, r] = noise.measurement_block(k0, k1, n)
                zeta[:, r] = noise.dither_block(k0, k1, n)
            # The dither enters the level step as em * zeta: scaled once here.
            multiply(em, zeta, zeta)
            bank_eval = bank.eval
            for d_k, eta_k, us, u, s, s_new, v_new, f, z in zip(
                    d_rows, eta, pair, pair[:, 0], pair[:, 1], pair[1:, 1], v_buf, f_buf, zeta):
                add(bank_eval(s, v, d_k), eta_k, u)
                divide(weights, u, w)
                multiply(v, reduce(w, -1, None, w_sum, True), tmp)
                subtract(w, tmp, f)
                multiply(eps, f, tmp)
                add(v, tmp, v_new)
                # (u - u_lp, s - s_lp) at once, then each times gamma.
                subtract(us, lp, dd)
                multiply(gamma, dd, dd)
                absolute(ds, tmp)
                greater_equal(tmp, guard, mask)
                ratio.fill(0.0)
                divide(du, ds, out=ratio, where=mask)
                tanh(ratio, ratio)
                multiply(em, ratio, ratio)
                add(s, ratio, ratio)
                add(ratio, z, ratio)
                maximum(ratio, lo, out=ratio)
                minimum(ratio, hi, out=s_new)
                if keep is not None:
                    copyto(s_new, s, where=keep)
                multiply(em, dd, dd)
                add(lp, dd, lp)
                v = v_new
            s_buf, u_buf = pair[1:m + 1, 1], pair[:m, 0]
            phi = fairness_from_utilities(self.weights, bank.eval(s_buf, v_buf, d_rows[1:]), v_buf)
            return self._failures(k0, u_buf, v_buf, s_buf), phi

        return chunk

    def _failures(self, k0: int, u_meas, v_new, s_new) -> list[StepError | None]:
        """Per lane, the error of its first bad step among steps ``k0, k0 + 1, ...``.

        ``u_meas``, ``v_new`` and ``s_new`` have shape ``(m, R, n)``: per
        step and lane, the measurement and the shares and levels the update
        made from it. A measurement that is not finite and positive is a
        MeasurementError; otherwise a share outside [0, 1], and then a NaN
        level, is a FeasibilityBreach. Each names the step, the task and the
        value.
        """
        w = self.weights / u_meas
        # Weights lie in (0, 1], so this holds exactly when every 1/u_meas
        # is finite and positive and their weighted sum does not overflow.
        bad_u = ~((w > 0.0).all(axis=-1) & (w.sum(axis=-1) < np.inf))
        out_v = (v_new < 0.0) | (v_new > 1.0)
        bad_v = out_v.any(axis=-1)
        # The clip keeps every other level in [0, 1]; a NaN one comes from a
        # utility filter that overflowed (inf - inf) after a huge measurement.
        nan_s = np.isnan(s_new)
        bad = bad_u | bad_v | nan_s.any(axis=-1)
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
            elif bad_v[j, r]:
                i = int(np.argmax(out_v[j, r]))
                value = float(v_new[j, r, i])
                errors[r] = FeasibilityBreach(
                    f"share {value!r} left [0, 1] (epsilon too large for this task set)",
                    k0 + j, i, value,
                )
            else:
                i = int(np.argmax(nan_s[j, r]))
                errors[r] = FeasibilityBreach(
                    "level nan left [0, 1] (a utility filter overflowed)",
                    k0 + j, i, float("nan"),
                )
        return errors

    def step(self, snap: EngineSnapshot, freeze_levels: bool = False) -> EngineSnapshot:
        """Advance one step: a one-step chunk of the one-lane kernel of a
        run on the engine's own noise, from ``snap`` and its copied filters.
        The engine laid out that kernel once, so a step lays out nothing.
        The buffers are new on every call, so no later step writes into a
        snapshot returned earlier."""
        pair = np.empty((2, 2, 1, self.n))
        pair[0, 1] = snap.s
        lp = np.stack([snap.u_lp, snap.s_lp])[:, None]
        bufs = (pair, *(np.empty((1, 1, self.n)) for _ in range(4)))
        # As in run: the chunk's check raises on every bad measurement.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            (error,), phi = self._step_kernels[bool(freeze_levels)](
                (snap.v[None], lp), snap.step, snap.step + 1, bufs)
        if error is not None:
            raise error
        v, f, phi = (b[0, 0] for b in (bufs[1], bufs[2], phi))
        return EngineSnapshot(
            step=snap.step + 1, v=v, s=pair[1, 1, 0], u_lp=lp[0, 0], s_lp=lp[1, 0],
            u_meas=pair[0, 0, 0], f_obs=f, phi=phi, phi_sq_sum=float((phi * phi).sum()),
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
        engine's task set and configuration, and a NoiseSource checks its
        own bounds, so a lane needs no other check. The state carries a leading lane axis, one lane included, so R
        lanes cost one loop's numpy calls. Returns per lane, bit for bit,
        the RunTrace that ``Engine(specs, cfg, noise=noise).run(stride,
        freeze_levels)`` returns, or the StepError it raises with its
        partial ``.trace``; a failed lane stays in the loop, its trace
        ending at its failure, and the others go on.

        One :meth:`_kernel`, laid out once per call, walks the horizon in
        chunks of ``_CHUNK_STEPS`` steps (:meth:`step` is one of one step
        on a kernel the engine laid out). After each chunk, the level
        maximizers of the ``s_optimality`` tail are found in bulk, the
        recorded steps of all lanes are copied into the lane-major records,
        and each live lane's completed steps are folded into its ledger. So
        memory is bounded by the kept records plus one chunk, whatever the
        horizon, and since the noise is counter-keyed the chunking moves no
        bit. The ledger covers every completed step, recorded or not, so
        ``stride`` thins the trace but no verdict.
        """
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if not lanes:
            raise ValueError("need at least one lane")
        horizon, n, lanes_n = self.cfg.horizon, self.n, len(lanes)
        kept = horizon // stride
        # Lane-major records: one (kept, R, n) array per field, then phi_sq.
        with _fits_in_memory("records", 8 * lanes_n * kept * (5 * n + 1), horizon, stride):
            records = ([np.empty((kept, lanes_n, n)) for _ in range(5)]
                       + [np.empty((kept, lanes_n))])
        ledgers = [self._ledger(stride) for _ in lanes]
        results: list[RunTrace | StepError | None] = [None] * lanes_n
        lam_ratio = self.lam_min / self.c_bar

        # Every bad measurement is caught by _failures, and the steps after
        # a lane's failure, like the failing state's diagnostics, may read
        # NaN: neither needs a warning.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            snap0 = self.initial_snapshot()
            v = np.tile(snap0.v, (lanes_n, 1))
            lp = np.tile(np.stack([snap0.u_lp, snap0.s_lp])[:, None], (1, lanes_n, 1))
            # The (u, s) pairs of the kernel; pair[0, 1] carries the level
            # that starts each chunk.
            pair = np.empty((_CHUNK_STEPS + 1, 2, lanes_n, n))
            pair[0, 1] = snap0.s
            bufs = (pair, *(np.empty((_CHUNK_STEPS, lanes_n, n)) for _ in range(4)))
            chunk = self._kernel(lanes)
            for k0 in range(0, horizon, _CHUNK_STEPS):
                k1 = min(k0 + _CHUNK_STEPS, horizon)
                m = k1 - k0
                errors, phi = chunk((v, lp), k0, k1, bufs)
                v_buf, f_buf = (b[:m] for b in bufs[1:3])
                s_buf, u_buf = pair[1:m + 1, 1], pair[:m, 0]
                v_start = v
                v = v_buf[m - 1].copy()
                pair[0, 1] = pair[m, 1]
                # Rows of the s_optimality tail: steps from opt_start on.
                lo = min(max(ledgers[0].opt_start - 1 - k0, 0), m)
                near_opt = np.abs(s_buf[lo:] - self.bank.argmax(
                    v_buf[lo:], self.demand.at(np.arange(k0 + 1 + lo, k1 + 1))[:, None]
                )) < S_OPT_TOL
                phi_sq = (phi * phi).sum(axis=-1)
                # Local rows whose step k0 + j + 1 is a multiple of stride,
                # and the records they fill, for every lane at once.
                picked = slice((-k0 - 1) % stride, m, stride)
                for rec, buf in zip(records, (v_buf, s_buf, u_buf, f_buf, phi, phi_sq)):
                    rec[k0 // stride:k1 // stride] = buf[picked]
                for r, error in enumerate(errors):
                    if results[r] is not None:
                        continue
                    done = k1 if error is None else error.step
                    if m_r := done - k0:
                        vc = v_buf[:m_r, r]
                        v_pre = np.vstack([v_start[r], vc[:-1]])
                        ledgers[r].fold(k0, v_pre, vc, f_buf[:m_r, r], phi_sq[:m_r, r],
                                        lam_ratio, near_opt[:max(m_r - lo, 0), r])
                    if error is not None:
                        error.trace = _trace(records, r, ledgers[r], stride, done, True)
                        results[r] = error
                if None not in results:
                    break

        return [_trace(records, r, ledgers[r], stride, horizon, False) if result is None
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


def _trace(records, lane: int, ledger: RunLedger, stride: int, done: int,
           failed: bool) -> RunTrace:
    """The RunTrace of lane ``lane`` of the lane-major ``records`` after its
    first ``done`` steps completed (and the next one failed, if ``failed``):
    views of its first ``done // stride`` rows, which later chunks leave."""
    n_rec = done // stride
    v, s, u_meas, f_obs, phi, phi_sq = (x[:n_rec, lane] for x in records)
    return RunTrace(
        steps=np.arange(stride, n_rec * stride + 1, stride, dtype=np.int64),
        v=v, s=s, u_meas=u_meas, f_obs=f_obs, phi=phi, phi_sq=phi_sq,
        ledger=ledger, stride=stride,
        breach_step=done if failed else None,
    )

