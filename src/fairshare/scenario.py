"""Scenario construction and summary statistics.

Both builders follow the same demand protocol: three time-zones where half
the tasks double their demand in the middle zone and revert afterwards,
which exercises the engine's adaptation to changing requests. Their engine
settings go through ``EngineConfig.from_dict``, as a scenario file's do;
``summarize`` reads its zones and demands from the task set's
``demand_table``, as the engine does, and reads its rows through
``ZoneStats``, which a streamed run feeds chunk by chunk.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ConfigError,
    DemandSchedule,
    EngineConfig,
    TaskSpec,
    _integral,
    demand_table,
)
from .dynamics import S_OPT_TOL, RunLedger, RunTrace, TraceRows, _fits_in_memory
from .oracle import bounds
from .utility import (
    MODEL_TYPES,
    AffineNormalizer,
    HomeEnergyModel,
    ModelBank,
    validate_assumptions,
)

__all__ = [
    "DEFAULT_ZONE_STEPS",
    "ScenarioResult",
    "ZoneStats",
    "ZoneSummary",
    "build_identical_four",
    "build_random",
    "ledger_verdicts",
    "summarize",
]

DEFAULT_ZONE_STEPS = 40_000
# Zones with fewer records carry no statistics.
_MIN_ZONE_RECORDS = 40
# Rows of a zone whose deviation from its tail mean is tested at a time.
_DEV_BLOCK_ROWS = 4096

# Engine parameters of the paper's studies; the builders add horizon and seed.
_PAPER_ENGINE = {
    "epsilon": 5e-4,
    "mu_exponent": 1.0 / 20.0,
    "gamma": 100.0,
    "eta_bar": 1e-3,
    "zeta_bar": 1e-3,
    "s_init": 0.5,
}

# Parameter ranges of random models, drawn in this order; a number is fixed.
_RANDOM_PARAMS = {
    "home_energy": {"a": (0.5, 3.0), "b": (0.2, 1.5), "c": (0.5, 2.0),
                    "kappa": (0.5, 1.5), "h": (0.2, 0.8)},
    "cpu_bandwidth": {"a": (0.5, 2.0), "b": (1.0, 3.0), "h": (0.5, 1.5),
                      "theta": (0.5, 1.5), "v_floor": 0.05},
}


def _paper_config(cfg_overrides: dict | None, seed: int) -> tuple[int, EngineConfig]:
    """``zone_steps`` and the engine config of a three-zone builtin study.

    ``cfg_overrides`` may set any engine field and ``zone_steps`` (default
    ``DEFAULT_ZONE_STEPS``); the horizon spans three zones.
    """
    overrides = dict(cfg_overrides) if cfg_overrides else {}
    zone_steps = _integral("zone_steps", overrides.pop("zone_steps", DEFAULT_ZONE_STEPS))
    if zone_steps < 1:
        raise ConfigError(f"zone_steps must be >= 1, got {zone_steps}")
    return zone_steps, EngineConfig.from_dict({
        **_PAPER_ENGINE, "horizon": 3 * zone_steps, "seed": seed, **overrides,
    })


def _three_zones(d_base: float, zone_steps: int) -> DemandSchedule:
    """Demand ``d_base``, doubled over the middle one of three zones."""
    return DemandSchedule((
        (0, d_base), (zone_steps, 2.0 * d_base), (2 * zone_steps, d_base),
    ))


def build_identical_four(
    cfg_overrides: dict | None = None,
) -> tuple[list[TaskSpec], EngineConfig]:
    """Four identical comfort/energy tasks under the three-zone protocol.

    Tasks 0 and 1 double their demand in the middle zone. All weights are 1,
    so the symmetric allocation 1/4 is the unique fair point in the first
    and last zones.
    """
    zone_steps, cfg = _paper_config(cfg_overrides, seed=7)
    d_base = 0.4
    inner = HomeEnergyModel(a=2.0, b=1.0, c=2.0, kappa=1.0, h=1.0)
    model = AffineNormalizer.fit(
        inner, demand_range=(d_base, 2.0 * d_base), c_target=4.0
    )
    switching = _three_zones(d_base, zone_steps)
    constant = DemandSchedule.constant(d_base)
    specs = [
        TaskSpec(weight=1.0, utility=model, demand=switching if i < 2 else constant)
        for i in range(4)
    ]
    return specs, cfg


def build_random(
    n: int,
    seed: int,
    model_mix: Sequence[str] = ("home_energy",),
    cfg_overrides: dict | None = None,
) -> tuple[list[TaskSpec], EngineConfig]:
    """``n`` randomly parametrized tasks under the three-zone protocol.

    Weights are drawn from [0.2, 1], demands from [0.2, 0.8]; every model is
    normalized into [1, 2) over its own demand span and must pass the
    assumption checks (redrawn up to 100 times, then the build fails).
    ``seed`` seeds both the draws and the engine; a ``seed`` in
    ``cfg_overrides`` replaces it for both.
    """
    if n < 1:
        raise ConfigError(f"need n >= 1, got {n}")
    unknown = set(model_mix) - set(_RANDOM_PARAMS)
    if unknown or not model_mix:
        raise ConfigError(f"unsupported model kind(s): {sorted(unknown)}")
    zone_steps, cfg = _paper_config(cfg_overrides, seed=seed)
    rng = np.random.default_rng(cfg.seed)

    def draw_model(kind: str):
        return MODEL_TYPES[kind](**{
            name: float(rng.uniform(*r)) if isinstance(r, tuple) else r
            for name, r in _RANDOM_PARAMS[kind].items()
        })

    specs = []
    for i in range(n):
        weight = float(rng.uniform(0.2, 1.0))
        d_base = float(rng.uniform(0.2, 0.8))
        if i < n // 2:
            demand = _three_zones(d_base, zone_steps)
        else:
            demand = DemandSchedule.constant(d_base)
        d_lo, d_hi = demand.span()
        kind = str(rng.choice(list(model_mix)))
        model = None
        for _ in range(100):
            try:
                candidate = AffineNormalizer.fit(
                    draw_model(kind), demand_range=(d_lo, d_hi), c_target=2.0
                )
            except ConfigError:
                continue
            if validate_assumptions(candidate, (d_lo, d_hi)) is None:
                model = candidate
                break
        if model is None:
            raise ConfigError(
                f"task {i}: no valid {kind} model after 100 attempts"
            )
        specs.append(TaskSpec(weight=weight, utility=model, demand=demand))
    return specs, cfg


@dataclass
class ZoneSummary:
    """Tail statistics (final 25%) for one demand zone.

    ``complete`` is always true, since only a finished run is summarized;
    it keeps its place in ``summary.json``.
    """

    start: int
    end: int
    complete: bool
    n_records: int
    insufficient: bool
    v_mean: np.ndarray | None = None
    v_std: np.ndarray | None = None
    s_mean: np.ndarray | None = None
    f_abs_mean: np.ndarray | None = None
    phi_sq_mean: float | None = None
    adapt_steps: int | None = None
    s_opt_fraction: float | None = None


@dataclass
class ScenarioResult:
    """Per-zone summaries plus whole-run property verdicts."""

    zones: list[ZoneSummary]
    verdicts: dict[str, dict]


def _window_verdict(crossed: np.ndarray, window: int, threshold: float) -> dict:
    """Recurrence check: each task crosses the threshold in every window.

    ``crossed[w, i]`` says whether task ``i`` crossed it in window ``w``.
    """
    n_windows = len(crossed)
    if n_windows == 0:
        return {"pass": None, "detail": "insufficient horizon for one window",
                "windows": 0}
    failures = int((~crossed.all(axis=1)).sum())
    return {
        "pass": failures == 0,
        "detail": f"{n_windows} window(s) of {window} steps, {failures} failed, "
                  f"threshold {threshold:.6g}",
        "windows": n_windows,
    }


class ZoneStats:
    """Tail statistics of each demand zone, fed a run's kept rows in blocks.

    The zones run from each break of the task set's demand table before the
    horizon to the next, the last to the horizon; a run at ``stride`` keeps
    the steps of each zone that are multiples of ``stride``. :meth:`feed`
    takes rows in step order, in blocks of any size, and a zone's
    ZoneSummary is made as soon as its last kept row is in; a zone that
    keeps none is summarized as soon as the rows pass it. So after every
    row of a complete run, :attr:`zones` holds every zone.

    The statistics read a zone's final 25% of steps (the tail) and
    ``s_optimality``'s fraction its final 20%, which lie inside the tail.
    So only one zone's rows are held: its steps and shares, which the
    deviation from the tail mean needs, and the levels, the fairness index
    and ``phi_sq`` of its tail. Each is a contiguous array, laid out anew
    only for a zone longer than any before. Zones with fewer than 40
    records are marked insufficient and carry no statistics.
    """

    def __init__(self, specs: Sequence[TaskSpec], cfg: EngineConfig, stride: int):
        self.table = demand_table(specs)
        self.bank = ModelBank([t.utility for t in specs])
        self.stride, self.n, self.horizon = stride, len(specs), cfg.horizon
        breaks = [k for k in self.table.breaks.tolist() if k < cfg.horizon] + [cfg.horizon]
        self.bounds = list(zip(breaks[:-1], breaks[1:]))
        self.zones: list[ZoneSummary] = []
        self.held = 0  # Rows of the open zone fed so far.
        self.buffers: tuple[np.ndarray, ...] = ()
        self._close_empty()

    def _counts(self, start: int, end: int) -> tuple[int, int]:
        """Kept rows of zone ``(start, end]``, and of its tail."""
        stride, cut = self.stride, end - (end - start) // 4
        return end // stride - start // stride, end // stride - cut // stride

    def _close_empty(self) -> None:
        """Summarize each zone from the next on that keeps no row."""
        while len(self.zones) < len(self.bounds):
            start, end = self.bounds[len(self.zones)]
            if self._counts(start, end)[0]:
                return
            self.zones.append(ZoneSummary(start=start, end=end, complete=True,
                                          n_records=0, insufficient=True))

    def _views(self, rows: int, tail: int) -> tuple[np.ndarray, ...]:
        """The open zone's steps and shares, ``rows`` long, and its tail's
        levels, fairness index and ``phi_sq``, ``tail`` long."""
        n = self.n
        if not self.buffers or len(self.buffers[0]) < rows or len(self.buffers[2]) < tail:
            with _fits_in_memory("zone statistics", 8 * (rows * (n + 1) + tail * (2 * n + 1)),
                                 self.horizon, self.stride):
                self.buffers = (np.empty(rows, np.int64), np.empty((rows, n)),
                                np.empty((tail, n)), np.empty((tail, n)), np.empty(tail))
        steps, v, s, f_obs, phi_sq = self.buffers
        return steps[:rows], v[:rows], s[:tail], f_obs[:tail], phi_sq[:tail]

    def feed(self, rows: TraceRows) -> None:
        """Take the next kept rows of the run, in step order."""
        i = 0
        while i < len(rows.steps):
            start, end = self.bounds[len(self.zones)]
            count, tail = self._counts(start, end)
            zone = self._views(count, tail)
            # Block rows i..j-1 are the zone's rows r0..r1-1, and those
            # from t0 on are in its tail, which starts at zone row head.
            r0, head = self.held, count - tail
            j = min(len(rows.steps), i + count - r0)
            self.held = r1 = r0 + j - i
            zone[0][r0:r1], zone[1][r0:r1] = rows.steps[i:j], rows.v[i:j]
            t0 = max(r0, head)
            if r1 > t0:
                for buf, x in zip(zone[2:], (rows.s, rows.f_obs, rows.phi_sq)):
                    buf[t0 - head:r1 - head] = x[i + t0 - r0:j]
            i = j
            if r1 == count:
                self.zones.append(self._summary(start, end, *zone))
                self.held = 0
                self._close_empty()

    def _summary(self, start: int, end: int, zsteps, zv, zs, zf, zphi_sq) -> ZoneSummary:
        """The ZoneSummary of zone ``(start, end]`` from its held rows:
        ``zsteps`` and ``zv`` over the zone, the others over its tail."""
        n_rec = len(zsteps)
        if n_rec < _MIN_ZONE_RECORDS:
            return ZoneSummary(start=start, end=end, complete=True,
                               n_records=n_rec, insufficient=True)
        # Row offsets, within the zone, of its final 25% and 20% of steps.
        tail, opt = np.searchsorted(
            zsteps, (end - (end - start) // 4, end - (end - start) // 5), side="right"
        )
        v_tail_mean = zv[tail:].mean(axis=0)

        # The last row whose shares deviate from the tail mean by more than
        # 0.02, or -1; elementwise and a per-row max, so blocks move no bit.
        last_bad = -1
        for b0 in range(0, n_rec, _DEV_BLOCK_ROWS):
            dev_ok = np.abs(zv[b0:b0 + _DEV_BLOCK_ROWS] - v_tail_mean).max(axis=1) <= 0.02
            bad = np.flatnonzero(~dev_ok)
            if bad.size:
                last_bad = b0 + int(bad[-1])
        adapt = (0 if last_bad < 0 else
                 int(zsteps[last_bad + 1] - start) if last_bad + 1 < n_rec else None)

        s_star = self.bank.argmax(zv[opt:], self.table.at(zsteps[opt:]))
        frac = float((np.abs(zs[opt - tail:] - s_star) < S_OPT_TOL).mean(axis=0).min())

        return ZoneSummary(
            start=start, end=end, complete=True, n_records=n_rec,
            insufficient=False,
            v_mean=v_tail_mean,
            v_std=zv[tail:].std(axis=0),
            s_mean=zs.mean(axis=0),
            f_abs_mean=np.abs(zf).mean(axis=0),
            phi_sq_mean=float(zphi_sq.mean()),
            adapt_steps=adapt,
            s_opt_fraction=frac,
        )


def summarize(
    trace: RunTrace, specs: Sequence[TaskSpec], cfg: EngineConfig
) -> ScenarioResult:
    """Tail statistics per zone and property verdicts over the whole run.

    The zone statistics are those of :class:`ZoneStats` fed the trace's
    rows as one block; every verdict reads the ledger
    (:func:`ledger_verdicts`), which the run folded chunk by chunk over
    every step, so the verdicts are decided at any stride, and a stride
    longer than the run leaves every zone insufficient but no verdict
    undecided. Only a finished run whose trace holds its rows is judged:
    an aborted one is a ValueError naming the step that failed, and so is
    a run whose rows went to a consumer (``RunTrace.rows``). ``EngineConfig``
    already demands a horizon of at least one step.
    """
    if not trace.complete:
        raise ValueError(
            f"the run aborted at step {trace.breach_step}; only a complete run "
            "is summarized")
    zones = ZoneStats(specs, cfg, trace.stride)
    zones.feed(trace.rows)
    return ScenarioResult(zones=zones.zones, verdicts=ledger_verdicts(trace.ledger, specs, cfg))


def ledger_verdicts(
    led: RunLedger, specs: Sequence[TaskSpec], cfg: EngineConfig
) -> dict[str, dict]:
    """The property verdicts of a complete run, read from its ledger alone.

    ``starvation`` and ``balance`` test per-window share extrema against the
    thresholds of ``oracle.bounds``, and ``s_optimality`` the near-optimal
    level counts over the final 20% of the steps.
    """
    eta = cfg.eta_bar
    verdicts: dict[str, dict] = {}
    verdicts["feasibility"] = {
        "pass": bool(
            led.max_simplex_dev <= 1e-9 and led.v_min >= 0.0 and led.v_max <= 1.0
        ),
        "detail": f"max |sum(v)-1| = {led.max_simplex_dev:.3e}, "
                  f"v range [{led.v_min:.6g}, {led.v_max:.6g}]",
    }
    verdicts["fairness_zero_sum"] = {
        "pass": bool(led.max_abs_f_sum <= 1e-12),
        "detail": f"max |sum(F)| = {led.max_abs_f_sum:.3e}",
    }
    slack = 2.0 * eta * eta + 1e-12
    verdicts["fairness_increment_bounds"] = {
        "pass": bool(led.f_low_gap <= slack and led.f_high_gap <= slack),
        "detail": f"low gap {led.f_low_gap:.3e}, high gap {led.f_high_gap:.3e}, "
                  f"slack {slack:.3e}",
    }
    window = led.window_steps
    b = bounds(specs, cfg)
    alpha_star, beta = b.starvation_threshold, b.balance_threshold + 0.05
    verdicts["starvation"] = _window_verdict(
        led.window_v_max > alpha_star, window, alpha_star
    )
    if beta >= 1.0:
        verdicts["balance"] = {
            "pass": None,
            "detail": f"vacuous: threshold {beta:.6g} >= 1",
            "windows": 0,
        }
    else:
        verdicts["balance"] = _window_verdict(led.window_v_min < beta, window, beta)
    tol_f = 10.0 * (cfg.epsilon + eta * eta)
    verdicts["fairness_residual"] = {
        "pass": bool(led.phi_sq_min <= tol_f),
        "detail": f"min sum(phi^2) = {led.phi_sq_min:.3e} at step "
                  f"{led.phi_sq_min_step} (tolerance {tol_f:.3e})",
    }
    frac_all = led.opt_hits / led.opt_steps
    verdicts["s_optimality"] = {
        "pass": bool(frac_all.min() > 0.9),
        "detail": f"min per-task near-optimal fraction {frac_all.min():.3f} "
                  "over final 20% of the run",
    }
    return verdicts
