"""Command-line front end: run scenarios, verify properties, validate inputs.

Exit codes: 0 success, 1 configuration or validation error or a bad
utility measurement during a run, 2 feasibility breach during a run.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    ConfigError,
    DemandSchedule,
    EngineConfig,
    FairshareError,
    FeasibilityBreach,
    NoiseSource,
    StepError,
    TaskSpec,
    _finite,
    _integral,
    demand_table,
    validate_config,
)
from .dynamics import Engine, RunTrace
from .oracle import (
    OracleError,
    bounds,
    fair_fixed_point,
    integrate_full_ode,
    probe_limit_points,
)
from .scenario import (
    ScenarioResult,
    build_identical_four,
    build_random,
    summarize,
)
from .utility import (
    MODEL_TYPES,
    AffineNormalizer,
    ModelBank,
    _unwrap,
    validate_assumptions,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BREACH = 2

_BUILTIN_FIG6_SEED = 30
# Outputs `run` can write: trace.csv and summary.json.
_FORMATS = ("csv", "json")
# Rows of trace.csv formatted per np.savetxt call.
_CSV_BLOCK_ROWS = 4096


# ---------------------------------------------------------------------------
# Scenario (de)serialization


def model_to_dict(model) -> dict:
    # Nested affine wrappers fold into one scale and shift.
    inner, scale, shift = _unwrap(model)
    for kind, cls in MODEL_TYPES.items():
        if isinstance(inner, cls):
            doc = {"type": kind, **{p: getattr(inner, p) for p in cls.params}}
            if inner is not model:
                # Only the wrapper's ceiling bounds the utility, so the inner
                # model's own is dropped and a replay gives it the default.
                doc.update(scale=scale, shift=shift)
            doc["bound_c"] = model.bound_c
            return doc
    raise ConfigError(f"cannot serialize model of type {type(inner).__name__}")


def model_from_dict(doc: dict, demand_span: tuple[float, float]):
    doc = dict(doc)
    kind = doc.pop("type", None)
    scale = doc.pop("scale", None)
    shift = doc.pop("shift", None)
    normalize = doc.pop("normalize", None)
    if kind not in MODEL_TYPES:
        raise ConfigError(f"unknown model type: {kind!r}")
    if scale is not None:
        if normalize is not None:
            raise ConfigError(f"normalize cannot be given with scale, got {normalize!r}")
        # A scaled model's 'bound_c' belongs to the wrapper, not the inner model.
        bound_c = doc.pop("bound_c", None)
        if bound_c is None:
            raise ConfigError("a model with 'scale' needs 'bound_c'")
        return AffineNormalizer(
            inner=MODEL_TYPES[kind](**doc), scale=float(_finite("scale", scale)),
            shift=float(_finite("shift", 0.0 if shift is None else shift)),
            bound_c=float(_finite("bound_c", bound_c)),
        )
    if shift is not None:
        raise ConfigError(f"shift needs scale, got {shift!r}")
    inner = MODEL_TYPES[kind](**doc)
    if normalize is None:
        return inner
    opts = {} if normalize is True else normalize
    if not isinstance(opts, dict):
        raise ConfigError(f"normalize must be true or a JSON object, got {normalize!r}")
    if opts.keys() - {"c_target"}:
        raise ConfigError(f"normalize takes only c_target, got {opts!r}")
    return AffineNormalizer.fit(
        inner, demand_range=demand_span,
        c_target=float(_finite("normalize.c_target", opts.get("c_target", 2.0))),
    )


def scenario_to_dict(specs: Sequence[TaskSpec], cfg: EngineConfig) -> dict:
    return {
        "tasks": [
            {
                "weight": t.weight,
                "model": model_to_dict(t.utility),
                "demand_zones": [[int(k), float(d)] for k, d in t.demand.zones],
            }
            for t in specs
        ],
        "engine": dataclasses.asdict(cfg),
    }


def _object(key: str, value) -> dict:
    """``value`` itself if it is a JSON object, else a ConfigError naming ``key``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    return value


def scenario_from_dict(doc: dict) -> tuple[list[TaskSpec], EngineConfig]:
    if "tasks" not in _object("scenario", doc) or "engine" not in doc:
        raise ConfigError("scenario JSON needs 'tasks' and 'engine' sections")
    if not isinstance(doc["tasks"], list):
        raise ConfigError(f"tasks must be a JSON array, got {doc['tasks']!r}")
    if not doc["tasks"]:
        raise ConfigError("tasks must hold at least one task, got []")
    specs = []
    for i, task_doc in enumerate(doc["tasks"]):
        try:
            zones = tuple(
                (_integral("demand zone start", k), float(d))
                for k, d in task_doc["demand_zones"]
            )
            demand = DemandSchedule(zones)
            model = model_from_dict(task_doc["model"], demand.span())
            specs.append(TaskSpec(
                id=i, weight=float(task_doc["weight"]),
                utility=model, demand=demand,
            ))
        except (ConfigError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"tasks[{i}]: {exc}") from exc
    return specs, EngineConfig.from_dict(_object("engine", doc["engine"]))


def _parse_set(items: list[str] | None) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key.startswith("engine."):
            key = key[len("engine."):]
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def resolve_scenario(
    name_or_path: str, overrides: dict
) -> tuple[list[TaskSpec], EngineConfig, dict, dict]:
    """Builtin name, scenario JSON path, or manifest JSON path.

    Returns (specs, cfg, resolved scenario dict, manifest extras); the
    extras are a manifest's keys other than ``scenario``, which
    ``run_options`` reads.
    """
    overrides = dict(overrides)
    extras: dict = {}
    if name_or_path == "paper-fig5":
        specs, cfg = build_identical_four(overrides)
    elif name_or_path == "paper-fig6":
        seed = overrides.pop("seed", _BUILTIN_FIG6_SEED)
        specs, cfg = build_random(30, seed=seed, cfg_overrides=overrides)
    else:
        path = Path(name_or_path)
        if not path.exists():
            raise ConfigError(
                f"scenario {name_or_path!r} is neither a builtin name nor a file"
            )
        try:
            doc = _object(str(path), json.loads(path.read_text()))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if "scenario" in doc:
            extras = {k: v for k, v in doc.items() if k != "scenario"}
            doc = _object("scenario", doc["scenario"])
        if "zone_steps" in overrides:
            raise ConfigError(
                "zone_steps applies only to the builtin scenarios; set "
                "demand_zones and horizon in the scenario file instead"
            )
        doc = {**doc, "engine": {**_object("engine", doc.get("engine", {})), **overrides}}
        specs, cfg = scenario_from_dict(doc)
    return specs, cfg, scenario_to_dict(specs, cfg), extras


def _resolve(args) -> tuple[list[TaskSpec], EngineConfig, dict, dict]:
    """``resolve_scenario`` on a command's scenario, ``--set`` and ``--seed``."""
    overrides = _parse_set(args.set)
    if args.seed is not None:
        overrides["seed"] = args.seed
    return resolve_scenario(args.scenario, overrides)


# ---------------------------------------------------------------------------
# Output helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_trace_csv(path: Path, trace: RunTrace) -> None:
    n = trace.v.shape[1]
    cols = ["step"]
    for name in ("v", "s", "u", "F", "Phi"):
        cols.extend(f"{name}_{i}" for i in range(n))
    cols.append("phi_sq_sum")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        # Row blocks, so that no second copy of the whole trace is made.
        for r0 in range(0, len(trace), _CSV_BLOCK_ROWS):
            rows = slice(r0, r0 + _CSV_BLOCK_ROWS)
            block = np.column_stack([
                trace.steps[rows].astype(float), trace.v[rows], trace.s[rows],
                trace.u_meas[rows], trace.f_obs[rows], trace.phi[rows],
                trace.phi_sq[rows],
            ])
            np.savetxt(fh, block, fmt="%.17g", delimiter=",", newline="\n")


def summary_to_dict(result: ScenarioResult) -> dict:
    return _jsonable({
        "zones": [dataclasses.asdict(z) for z in result.zones],
        "verdicts": result.verdicts,
    })


# ---------------------------------------------------------------------------
# Commands


def run_options(doc: dict) -> tuple[int, list[str]]:
    """``stride`` and the sorted ``formats`` of a run.

    The one reader of a manifest's run options and of the ``--stride`` and
    ``--formats`` flags, which ``cmd_run`` lays over them. An unknown key,
    a stride that is not an integer >= 1 (an integral float such as ``2.0``
    converts) and formats that are not a list of known names are
    ConfigErrors naming the key and the value.
    """
    unknown = sorted(set(doc) - {"stride", "formats"})
    if unknown:
        raise ConfigError(f"unknown manifest key(s): {unknown}")
    stride = _integral("stride", doc.get("stride", 1))
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    formats = doc.get("formats", list(_FORMATS))
    if not isinstance(formats, list) or not all(isinstance(f, str) for f in formats):
        raise ConfigError(f"formats must be a list of names, got {formats!r}")
    unknown = sorted(set(formats) - set(_FORMATS))
    if unknown:
        raise ConfigError(
            f"unknown output format(s) {unknown}; allowed: {', '.join(_FORMATS)}"
        )
    return stride, sorted(set(formats))


def cmd_run(args) -> int:
    specs, cfg, doc, extras = _resolve(args)
    flags = {"stride": args.stride, "formats": args.formats}
    stride, formats = run_options(
        {**extras, **{k: v for k, v in flags.items() if v is not None}}
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"scenario": doc, "stride": stride, "formats": formats}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    engine = Engine(specs, cfg)
    failure: StepError | None = None
    try:
        trace = engine.run(stride=stride)
    except StepError as exc:
        failure = exc
        trace = exc.trace
    if "csv" in formats:
        write_trace_csv(out / "trace.csv", trace)
    if failure is not None:
        breach = isinstance(failure, FeasibilityBreach)
        status = "feasibility_breach" if breach else "measurement_error"
        if "json" in formats:
            (out / "summary.json").write_text(json.dumps(_jsonable({
                "status": status, "step": failure.step, "task": failure.task,
                "value": failure.value, "message": str(failure),
            }), indent=2) + "\n")
        print(f"{status.replace('_', ' ')}: {failure}", file=sys.stderr)
        return EXIT_BREACH if breach else EXIT_CONFIG
    if "json" in formats:
        if cfg.horizon >= 1:
            result = summarize(trace, specs, cfg)
            doc_out = {"status": "ok", **summary_to_dict(result)}
        else:
            doc_out = {"status": "ok", "zones": [], "verdicts": {}}
        (out / "summary.json").write_text(json.dumps(doc_out, indent=2) + "\n")
    print(f"wrote {len(trace)} records to {out}")
    return EXIT_OK


def _static_checks(specs, cfg) -> list[dict]:
    """The ``config`` and ``model_assumptions`` rows, which need no simulation.

    ``validate`` prints them; ``verify`` starts with them.
    """
    try:
        notes, ok = [f"warning: {w}" for w in validate_config(cfg, specs)], True
    except ConfigError as exc:
        notes, ok = [str(exc)], False
    violations = [
        f"task {t.id}: {r.first_violation}" for t in specs
        if not (r := validate_assumptions(t.utility, t.demand.span())).passed
    ]
    return [
        {"name": "config", "pass": ok,
         "detail": "; ".join(notes) or "all conditions hold"},
        {"name": "model_assumptions", "pass": not violations,
         "detail": "; ".join(violations) or f"{len(specs)} task model(s) hold"},
    ]


def _verify_checks(specs, cfg) -> list[dict]:
    checks = _static_checks(specs, cfg)
    if not checks[0]["pass"]:
        return checks[:1]

    def add(name: str, ok: bool | None, detail: str) -> None:
        checks.append({"name": name, "pass": ok, "detail": detail})

    quiet_cfg = dataclasses.replace(cfg, eta_bar=0.0, zeta_bar=1e-4)
    # Three lanes of one run; each feeds the verdicts listed with it, and an
    # aborted lane fails all of them. Every verdict read here comes from the
    # ledger, which does not depend on the stride, so one record per lane
    # is kept.
    lanes = (
        ("", cfg, False, ("feasibility", "fairness_zero_sum",
                          "fairness_increment_bounds", "starvation", "balance")),
        ("frozen-level run: ", cfg, True, ("fairness_residual",)),
        ("noise-free regime: ", quiet_cfg, False, ("s_optimality",)),
    )
    # A run of no step decides no verdict.
    results = [None] * len(lanes) if cfg.horizon < 1 else Engine(specs, cfg).run_lanes(
        [(NoiseSource(c.seed, c.eta_bar, c.zeta_bar), freeze) for _, c, freeze, _ in lanes],
        stride=cfg.horizon,
    )
    for (label, run_cfg, _, names), trace in zip(lanes, results):
        if trace is None:
            for name in names:
                add(name, None, "vacuous: the run completed no step")
            continue
        if isinstance(trace, StepError):
            for name in names:
                add(name, False, f"{label}{type(trace).__name__}: {trace}")
            continue
        verdicts = summarize(trace, specs, run_cfg).verdicts
        for name in names:
            add(name, verdicts[name]["pass"], label + verdicts[name]["detail"])

    d0 = demand_table(specs).at(0)
    add("ode_tracking", *_ode_tracking(specs, cfg, d0))

    bank = ModelBank([t.utility for t in specs])
    try:
        fp = fair_fixed_point(
            specs, lambda v: bank.argmax(v, d0), d=d0, tol=1e-8
        )
        reps = probe_limit_points(specs, cfg, d=d0, n_starts=8, seed=cfg.seed)
    except OracleError as exc:
        add("cross_oracle", False, f"OracleError: {exc}")
        return checks
    gaps = [float(np.abs(r - fp.v).max()) for r in reps]
    add("cross_oracle", bool(fp.converged and reps and max(gaps) <= 1e-3),
        f"{len(reps)} endpoint cluster(s), max gap to fixed point "
        f"{max(gaps):.3g}, residual {fp.residual:.3g}")
    return checks


def _ode_tracking(specs, cfg, d0) -> tuple[bool | None, str]:
    """Noise-free discrete share path against the full mean-field ODE at d0.

    Both start from shares proportional to (1, ..., n), so the path moves
    even where the uniform start is the fixed point; a path that still never
    moves (one task) makes the comparison vacuous.
    """
    t_end = 2.0
    ramp = np.arange(1.0, len(specs) + 1.0)
    track_cfg = dataclasses.replace(
        cfg, eta_bar=0.0, zeta_bar=0.0,
        horizon=min(cfg.horizon, int(math.ceil(t_end / cfg.epsilon))),
        v_init=tuple(ramp / ramp.sum()),
    )
    if track_cfg.horizon < 1:
        return None, "vacuous: the run completed no step"
    try:
        track = Engine(specs, track_cfg).run(stride=1)
    except StepError as exc:
        return False, f"noise-free tracking run: {type(exc).__name__}: {exc}"
    if not (track.v != track_cfg.v_init).any():
        return None, "vacuous: the discrete share path never moves"
    try:
        ode = integrate_full_ode(
            specs, track_cfg, t_end=track_cfg.horizon * cfg.epsilon,
            dt=min(1e-3, cfg.epsilon), d=d0,
        )
    except OracleError as exc:
        return False, f"mean-field ODE: OracleError: {exc}"
    gap = _tracking_gap(track, ode, cfg.epsilon)
    threshold = min(100.0 * cfg.epsilon, 0.05)
    return bool(gap <= threshold), (
        f"sup-norm share gap {gap:.4g} over t in [0, "
        f"{track_cfg.horizon * cfg.epsilon:.3g}] (threshold {threshold:.3g})"
    )


def _tracking_gap(trace: RunTrace, ode, epsilon: float) -> float:
    """Sup-norm gap between the discrete share path and the mean-field path."""
    t_disc = trace.steps * epsilon
    gap = 0.0
    for i in range(trace.v.shape[1]):
        v_ode = np.interp(t_disc, ode.times, ode.v[:, i])
        gap = max(gap, float(np.abs(trace.v[:, i] - v_ode).max()))
    return gap


def _print_checks(checks: list[dict]) -> bool:
    """Print one row per check; True unless some check FAILs."""
    width = max(len(c["name"]) for c in checks)
    for c in checks:
        status = {True: "PASS", False: "FAIL", None: "SKIP"}[c["pass"]]
        print(f"{c['name']:<{width}}  {status}  {c['detail']}")
    return all(c["pass"] is not False for c in checks)


def cmd_verify(args) -> int:
    specs, cfg, _doc, _extras = _resolve(args)
    checks = _verify_checks(specs, cfg)
    all_pass = _print_checks(checks)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "verify.json").write_text(json.dumps(_jsonable({
            "scenario": args.scenario,
            "bounds": dataclasses.asdict(bounds(specs, cfg)),
            "checks": checks, "all_pass": all_pass,
        }), indent=2) + "\n")
    print("verify:", "PASS" if all_pass else "FAIL")
    return EXIT_OK if all_pass else EXIT_CONFIG


def cmd_validate(args) -> int:
    specs, cfg, _doc, _extras = _resolve(args)
    return EXIT_OK if _print_checks(_static_checks(specs, cfg)) else EXIT_CONFIG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairshare",
        description="Measurement-driven fair resource allocation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in (
        ("run", cmd_run, "simulate a scenario and export trace/summary"),
        ("verify", cmd_verify, "run the full property suite on a scenario"),
        ("validate", cmd_validate, "check configuration and models, no simulation"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario",
                       help="builtin name (paper-fig5, paper-fig6), scenario "
                            "JSON path, or manifest.json path")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override an engine field or zone_steps")
        if name != "validate":
            p.add_argument("--out", default="fairshare-out" if name == "run" else None,
                           help="output directory")
        if name == "run":
            p.add_argument("--stride", type=int, default=None,
                           help="record every Nth step (default 1 or the "
                                "manifest value)")
            p.add_argument("--formats", default=None,
                           type=lambda s: s.split(","),
                           help="comma-separated outputs (default csv,json)")
        p.set_defaults(fn=fn)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FairshareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
