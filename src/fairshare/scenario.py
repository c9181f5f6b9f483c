"""Scenario construction and summary statistics.

Both builders follow the same demand protocol: three time-zones where half
the tasks double their demand in the middle zone and revert afterwards,
which exercises the engine's adaptation to changing requests. Their engine
settings go through ``EngineConfig.from_dict``, as a scenario file's do;
``summarize`` reads its zones and demands from the task set's
``demand_table``, as the engine does.
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
from .dynamics import S_OPT_TOL, RunTrace
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
    "ZoneSummary",
    "build_identical_four",
    "build_random",
    "summarize",
]

DEFAULT_ZONE_STEPS = 40_000

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


def summarize(
    trace: RunTrace, specs: Sequence[TaskSpec], cfg: EngineConfig
) -> ScenarioResult:
    """Tail statistics per zone and property verdicts over the whole run.

    The zones run from each break of the task set's demand table before the
    horizon to the next, the last to the horizon. Their statistics read the
    recorded rows, as slices of the trace (the steps are sorted); every
    verdict reads the ledger, which the run folded chunk by chunk over every
    step, so ``starvation`` and ``balance`` (per-window share extrema, against
    the thresholds of ``oracle.bounds``) and
    ``s_optimality`` (near-optimal level counts over the final 20% of the
    steps) are decided at any stride. Zones with fewer than 40 records are
    marked insufficient and carry no statistics, so a stride longer than the
    run leaves every zone insufficient but no verdict undecided. Only a
    finished run is judged: an aborted one is a ValueError naming the step
    that failed, and ``EngineConfig`` already demands a horizon of at least
    one step.
    """
    if not trace.complete:
        raise ValueError(
            f"the run aborted at step {trace.breach_step}; only a complete run "
            "is summarized")
    steps = trace.steps
    table = demand_table(specs)
    boundaries = [k for k in table.breaks.tolist() if k < cfg.horizon] + [cfg.horizon]
    bank = ModelBank([t.utility for t in specs])

    zone_summaries: list[ZoneSummary] = []
    for z in range(len(boundaries) - 1):
        start, end = boundaries[z], boundaries[z + 1]
        # Rows of steps start+1..end.
        rows = slice(*np.searchsorted(steps, (start, end), side="right"))
        zsteps = steps[rows]
        n_rec = len(zsteps)
        if n_rec < 40:
            zone_summaries.append(ZoneSummary(
                start=start, end=end, complete=True,
                n_records=n_rec, insufficient=True,
            ))
            continue
        zv = trace.v[rows]
        # Row offsets, within the zone, of its final 25% and 20% of steps.
        tail, opt = np.searchsorted(
            zsteps, (end - (end - start) // 4, end - (end - start) // 5), side="right"
        )
        v_tail_mean = zv[tail:].mean(axis=0)

        dev_ok = np.abs(zv - v_tail_mean).max(axis=1) <= 0.02
        bad = np.flatnonzero(~dev_ok)
        adapt = int(zsteps[bad[-1] + 1] - start) if bad.size and bad[-1] + 1 < len(zsteps) \
            else (None if bad.size else 0)

        zs = trace.s[rows]
        s_star = bank.argmax(zv[opt:], table.at(zsteps[opt:]))
        frac = float((np.abs(zs[opt:] - s_star) < S_OPT_TOL).mean(axis=0).min())

        zone_summaries.append(ZoneSummary(
            start=start, end=end, complete=True, n_records=n_rec,
            insufficient=False,
            v_mean=v_tail_mean,
            v_std=zv[tail:].std(axis=0),
            s_mean=zs[tail:].mean(axis=0),
            f_abs_mean=np.abs(trace.f_obs[rows][tail:]).mean(axis=0),
            phi_sq_mean=float(trace.phi_sq[rows][tail:].mean()),
            adapt_steps=adapt,
            s_opt_fraction=frac,
        ))

    led = trace.ledger
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
    return ScenarioResult(zones=zone_summaries, verdicts=verdicts)
