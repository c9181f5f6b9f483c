"""Command-line front end: run scenarios, verify properties, validate inputs.

Exit codes: 0 success, 1 configuration or validation error or a bad
utility measurement during a run, 2 feasibility breach during a run.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import pickle
import signal
import sys
import traceback
from pathlib import Path
from typing import Callable, Iterator, Sequence

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
)
from .dynamics import Engine, RunTrace, TraceRows
from .oracle import (
    OracleError,
    bounds,
    fair_fixed_point,
    integrate_full_ode,
    probe_limit_points,
    validate_config,
)
from .scenario import (
    ZoneStats,
    build_identical_four,
    build_random,
    ledger_verdicts,
    summarize,
)
from .utility import (
    MODEL_TYPES,
    AffineNormalizer,
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
# Values of trace.csv formatted at a time, in whole rows, at least one.
# The formatter's transient arrays take about 210 bytes a value, 1.7 MB a
# block for any number of tasks. glibc hands freed memory back to the
# system above thresholds set by what the run freed before: 256 rows of
# fig6's 152 columns (8.3 MB) went back after each block and were faulted
# in again, 934 k page faults over its 120 000 rows, against 20 at this size.
_CSV_BLOCK_VALUES = 8192


# ---------------------------------------------------------------------------
# Scenario (de)serialization


def model_to_dict(model) -> dict:
    # A wrapper is one affine of a raw model: nested wrappers fold when built.
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
    doc = dict(_object("model", doc))
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


def _array(key: str, value) -> list:
    """``value`` itself if it is a JSON array, else a ConfigError naming ``key``."""
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a JSON array, got {value!r}")
    return value


def scenario_from_dict(doc: dict) -> tuple[list[TaskSpec], EngineConfig]:
    if "tasks" not in _object("scenario", doc) or "engine" not in doc:
        raise ConfigError("scenario JSON needs 'tasks' and 'engine' sections")
    if not _array("tasks", doc["tasks"]):
        raise ConfigError("tasks must hold at least one task, got []")
    specs = []
    for i, task_doc in enumerate(doc["tasks"]):
        _object(f"tasks[{i}]", task_doc)
        try:
            demand = DemandSchedule(_array("demand_zones", task_doc["demand_zones"]))
            model = model_from_dict(task_doc["model"], demand.span())
            specs.append(TaskSpec(
                weight=float(_finite("weight", task_doc["weight"])),
                utility=model, demand=demand,
            ))
        except KeyError as exc:
            raise ConfigError(f"tasks[{i}]: missing key {exc}") from exc
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"tasks[{i}]: {exc}") from exc
    return specs, EngineConfig.from_dict(_object("engine", doc["engine"]))


def _parse_set(items: list[str] | None) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
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
    ``run_options`` checks here for every command, and ``cmd_run`` reads.
    """
    overrides = dict(overrides)
    extras: dict = {}
    if name_or_path == "paper-fig5":
        specs, cfg = build_identical_four(overrides)
    elif name_or_path == "paper-fig6":
        specs, cfg = build_random(30, seed=_BUILTIN_FIG6_SEED, cfg_overrides=overrides)
    else:
        path = Path(name_or_path)
        if not path.exists():
            raise ConfigError(
                f"scenario {name_or_path!r} is neither a builtin name nor a file"
            )
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read the scenario file ({exc})") from exc
        try:
            doc = _object(str(path), json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if "scenario" in doc:
            extras = {k: v for k, v in doc.items() if k != "scenario"}
            run_options(extras)
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


# trace.csv spells each value as "%.17g" does, computed for a whole block
# at once. For 1e-29 <= |x| < 1e17 with decimal exponent k, |x| * 10**(16 - k)
# is formed exactly as a double-double: 10**p is _TEN_HI[p] + _TEN_LO[p]
# exactly for p <= 45, and Dekker's product makes |x| * _TEN_HI[p] exact.
# Its rounding to the 17-digit integer n is then exact too, except within
# 1e-9 of a tie. Zeros, non-finite values, values outside that range and
# near-ties are spelled by "%.17g" itself.
_TEN_HI = np.array([float(10**p) for p in range(46)])
_TEN_LO = np.array([float(10**p - int(float(10**p))) for p in range(46)])
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into 26-bit halves
_TEN_HH = _SPLIT * _TEN_HI - (_SPLIT * _TEN_HI - _TEN_HI)
_TEN_HL = _TEN_HI - _TEN_HH
_K_MIN, _K_MAX = -29, 16


def _digits17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decimal exponent ``k`` and 17-digit integer ``n`` of each ``|x|``.

    ``|x|`` rounds to ``n * 10**(k - 16)`` as ``"%.17g"`` rounds it, with
    ``10**16 <= n < 10**17``, wherever the returned mask is true; elsewhere
    ``k`` and ``n`` are placeholders.
    """
    a = np.abs(x)
    fast = (a >= 1e-29) & (a < 1e17)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    np.clip(k, _K_MIN, _K_MAX, out=k)
    p = _K_MAX - k
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    bh, bl = _TEN_HH.take(p), _TEN_HL.take(p)
    p1 = a * _TEN_HI.take(p)
    # |x| * 10**p == p1 + e, up to about 1e-14 in e.
    e = (((ah * bh - p1) + ah * bl + al * bh) + al * bl) + a * _TEN_LO.take(p)
    whole = np.floor(e)
    e -= whole
    n = p1.astype(np.int64) + whole.astype(np.int64)
    # A k that log10 rounded wrongly fails the range test on n.
    fast &= (n >= 10**16) & (np.abs(e - 0.5) > 1e-9)
    n += e > 0.5
    fast &= n < 10**17
    n[~fast] = 10**16
    return k, n, fast


def _cell_words() -> np.ndarray:
    """Cell templates, one per ``(k, last)``, as six uint64 words each.

    A value's cell is 48 bytes: its sign, the ``0.000`` prefix of
    ``-4 <= k <= -1``, 17 (digit, dot) pairs, ``e-XX`` for ``k < -4`` and
    the separator. Digit ``j``'s byte is 0xFF if the digit is written: up
    to ``last``, the last nonzero digit, or to the last integer digit. A
    dot follows the last integer digit if a fraction is written. Zero bytes
    are dropped from the output.
    """
    cells = np.zeros((_K_MAX - _K_MIN + 1, 17, 48), np.uint8)
    last = np.arange(17)
    for k in range(_K_MIN, _K_MAX + 1):
        cell = cells[k - _K_MIN]
        if -4 <= k <= -1:
            ints = 0
            cell[:, 1:2 - k] = list(b"0." + b"0" * (-k - 1))
        else:
            ints = k + 1 if k >= 0 else 1
        cell[:, 8:40:2] = 0xFF * (last[1:] <= np.maximum(ints - 1, last)[:, None])
        if ints >= 1:
            cell[ints <= last, 5 + 2 * ints] = ord(".")
        if k < -4:
            cell[:, 40:44] = list(b"e-%02d" % -k)
        cell[:, 44] = ord(",")
    return np.ascontiguousarray(cells.reshape(-1, 48).view(np.uint64).T)


_CELLS = _cell_words()
# For each group of four digits 0000..9999: its (digit, 0xFF) pairs as one
# word, which an AND lays over a template's pairs; the index of its last
# nonzero digit (-99 for 0000); and, per group of a 17-digit n, the index of
# its first digit.
_QUAD_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
_QUAD_BYTES = np.full((10000, 8), 0xFF, np.uint8)
_QUAD_BYTES[:, 0::2] = _QUAD_DIGITS + ord("0")
_QUADS = _QUAD_BYTES.view(np.uint64).ravel()
_QUAD_LAST = np.where(_QUAD_DIGITS != 0, np.arange(4), -99).max(axis=1)
_QUAD_AT = np.array([[1], [5], [9], [13]])


def _format_rows(block: np.ndarray) -> bytes:
    """The ``"%.17g"`` spelling of each value of a 2-D float block.

    Values are joined by ``,`` and each row ends in ``\\n``.
    """
    rows, cols = block.shape
    x = block.ravel()
    k, n, fast = _digits17(x)
    hi = (n // 10**8).astype(np.uint32)
    lo = (n - hi * np.int64(10**8)).astype(np.uint32)
    lead = hi // 10**8
    hi -= lead * np.uint32(10**8)
    quads = np.empty((4, x.size), np.uint32)
    np.floor_divide(hi, 10**4, out=quads[0])
    np.floor_divide(lo, 10**4, out=quads[2])
    np.subtract(hi, quads[0] * np.uint32(10**4), out=quads[1])
    np.subtract(lo, quads[2] * np.uint32(10**4), out=quads[3])
    quads = quads.astype(np.intp)
    last = np.maximum((_QUAD_LAST.take(quads) + _QUAD_AT).max(axis=0), 0)
    words = _CELLS.take((k - _K_MIN) * 17 + last, axis=1)
    words[1:5] &= _QUADS.take(quads)
    head = words[0].view(np.uint8)
    head[0::8] = np.signbit(x) * np.uint8(ord("-"))
    head[6::8] = lead + ord("0")
    slow = np.flatnonzero(~fast)
    if slow.size:
        spelled = np.array([b"%.17g" % v for v in x[slow].tolist()], "S40")
        words[:5, slow] = spelled.view(np.uint64).reshape(-1, 5).T
        words[5, slow] = _CELLS[5, -_K_MIN * 17]
    words[5].view(np.uint8)[4::8].reshape(rows, cols)[:, -1] = ord("\n")
    return words.T.tobytes().translate(None, b"\0")


def _block_rows(n: int) -> int:
    """Rows of a CSV block of a run of ``n`` tasks: ``_CSV_BLOCK_VALUES``
    values in whole rows, at least one."""
    return max(1, _CSV_BLOCK_VALUES // (5 * n + 2))


def _stacked(rows: TraceRows, size: int) -> Iterator[np.ndarray]:
    """The rows as float64 blocks of up to ``size`` rows each, in the column
    order of ``trace.csv``."""
    steps, *values = rows
    for r0 in range(0, len(steps), size):
        block = slice(r0, r0 + size)
        yield np.column_stack([steps[block].astype(float)] + [x[block] for x in values])


class _CsvWriter:
    """``trace.csv`` of a run of ``n`` tasks into the binary file ``fh``:
    the header now, then rows stacked in its column order as they come,
    formatted ``_CSV_BLOCK_VALUES`` values at a time in whole rows.
    ``write_trace_csv`` stacks a whole trace one block at a time; in a
    streamed run the writer process of ``_CsvProcess`` writes each chunk it
    receives."""

    def __init__(self, fh, n: int):
        cols = ["step"]
        for name in ("v", "s", "u", "F", "Phi"):
            cols.extend(f"{name}_{i}" for i in range(n))
        cols.append("phi_sq_sum")
        fh.write((",".join(cols) + "\n").encode())
        self.fh, self.block = fh, _block_rows(n)

    def write(self, table: np.ndarray) -> None:
        for r0 in range(0, len(table), self.block):
            self.fh.write(_format_rows(table[r0:r0 + self.block]))


class _ChildTraceback(Exception):
    """The traceback, as text, of an exception raised in a forked child:
    the cause of the same exception raised here."""


class _Child:
    """A forked child process that runs ``work(*args)``: the one fork
    discipline of ``run``'s ``trace.csv`` writer and ``verify``'s lane
    worker, which makes both POSIX-only.

    The child closes ``close``, this process's ends of the pipes the two
    share, runs ``work`` and pickles ``(value, None)``, or the Exception
    it raised and its traceback as text, into a report pipe back to this
    process. It leaves only by ``os._exit``, so it flushes nothing it
    inherited: with status 0 once the report is sent, else 1, after
    ``sys.excepthook`` has printed what failed (a KeyboardInterrupt, which
    the terminal sends this process too, is not printed). If the fork
    fails, the report pipe is closed before the error goes on. ``result``
    reaps the child on every exit path.
    """

    def __init__(self, name: str, work: Callable, *args, close: Sequence[int] = ()):
        self.name = name
        reports, report = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(reports)
            os.close(report)
            raise
        if self.pid == 0:
            code = 1
            try:
                for fd in (reports, *close):
                    os.close(fd)
                try:
                    sent = work(*args), None
                except Exception as exc:
                    sent = exc, traceback.format_exc()
                with open(report, "wb") as fh:
                    fh.write(pickle.dumps(sent))
                code = 0
            except Exception:
                sys.excepthook(*sys.exc_info())
                sys.stderr.flush()
            finally:
                os._exit(code)
        os.close(report)
        self.reports = open(reports, "rb")

    def result(self, kill: bool = False):
        """What ``work`` returned, once the child is reaped, or a raise of
        the exception it raised, caused by its ``_ChildTraceback``. A child
        that died without a report is an OSError naming its exit status or
        signal, unless ``kill``: then the child is killed first, and one
        that had not reported gives None. The child is also killed if the
        wait itself is interrupted."""
        try:
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            with self.reports:
                report = self.reports.read()
        except BaseException:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            raise
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        if code == 0:
            value, where = pickle.loads(report)
            if where is not None:
                raise value from _ChildTraceback(where)
            return value
        if kill:
            return None
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise OSError(f"the {self.name} {how}")


class _CsvProcess:
    """``trace.csv`` of a streamed run, formatted by a forked writer process
    while the run computes its next chunk.

    The file is opened here, so an open error is raised at once; then the
    writer is forked, a ``_Child`` running ``_serve``, and this process
    closes its own copy, having written nothing to it. If the fork fails,
    the rows pipe is closed too. ``write`` sends a chunk down a pipe as one
    message: its row count, then its float64 rows stacked one CSV block at
    a time, so this side holds no more than a block. The writer reads a
    whole message before it formats any of it, so a message cut short
    writes nothing and the file ends on a whole row. Leaving the ``with``
    block ends the messages and reaps the writer. If the block ended
    normally, or by the broken pipe of a writer that died, it raises what
    the writer raised, such as the OSError of a full disk, or the OSError
    naming how a writer that sent no report died; any other exception of
    the block wins over the writer's.
    """

    def __init__(self, path: Path, n: int):
        self.block = _block_rows(n)
        rows, self.rows = os.pipe()
        try:
            with open(path, "wb") as fh:
                self.writer = _Child("trace.csv writer", _serve, fh, n, rows,
                                     close=(self.rows,))
        except BaseException:
            os.close(self.rows)
            raise
        finally:
            os.close(rows)

    def __enter__(self) -> "_CsvProcess":
        return self

    def write(self, rows: TraceRows) -> None:
        self._send(len(rows.steps).to_bytes(8, "little"))
        for block in _stacked(rows, self.block):
            self._send(block)

    def _send(self, data) -> None:
        view = memoryview(data).cast("B")
        while view:
            view = view[os.write(self.rows, view):]

    def __exit__(self, exc_type, *_) -> None:
        os.close(self.rows)
        try:
            self.writer.result()
        except Exception:
            if exc_type is None or issubclass(exc_type, BrokenPipeError):
                raise


def _serve(fh, n: int, rows: int) -> None:
    """The writer process of ``_CsvProcess``: ``trace.csv`` into ``fh`` from
    the messages on the pipe ``rows``, until the pipe ends."""
    with fh, open(rows, "rb") as src:
        csv = _CsvWriter(fh, n)
        head = bytearray(8)
        # A fresh table a message: freeing the first one raises glibc's
        # mmap and trim thresholds above the formatter's transients,
        # which were otherwise handed back and faulted in again every
        # block (528 k page faults on fig6 with one table kept, 32 k so).
        while src.readinto(head) == len(head):
            table = np.empty((int.from_bytes(head, "little"), 5 * n + 2))
            if src.readinto(table) < table.nbytes:
                break
            csv.write(table)


def write_trace_csv(path: Path, trace: RunTrace) -> None:
    """``trace.csv`` of a trace that holds its rows, through the writer a
    streamed run uses."""
    rows = trace.rows
    with open(path, "wb") as fh:
        csv = _CsvWriter(fh, trace.v.shape[1])
        for block in _stacked(rows, csv.block):
            csv.write(block)


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
    # The run hands each chunk's kept rows to trace.csv and to the zone
    # statistics as it makes them, so it holds one zone of shares and the
    # tails it summarizes, whatever the horizon. trace.csv is formatted by a
    # writer process while the run computes the next chunk.
    zones = ZoneStats(specs, cfg, stride) if "json" in formats else None
    failure: StepError | None = None
    with (_CsvProcess(out / "trace.csv", engine.n) if "csv" in formats
          else contextlib.nullcontext()) as csv:
        def take(_lane: int, rows: TraceRows) -> None:
            if csv is not None:
                csv.write(rows)
            if zones is not None:
                zones.feed(rows)

        try:
            trace = engine.run(stride=stride, consumer=take)
        except StepError as exc:
            failure = exc
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
    if zones is not None:
        (out / "summary.json").write_text(json.dumps(_jsonable({
            "status": "ok", "zones": [dataclasses.asdict(z) for z in zones.zones],
            "verdicts": ledger_verdicts(trace.ledger, specs, cfg),
        }), indent=2) + "\n")
    print(f"wrote {cfg.horizon // stride} records to {out}")
    return EXIT_OK


def _row(name: str, ok: bool | None, detail: str) -> dict:
    """One row of ``validate`` or ``verify``."""
    return {"name": name, "pass": ok, "detail": detail}


def _static_checks(specs, cfg) -> list[dict]:
    """The ``config`` and ``model_assumptions`` rows, which need no simulation.

    ``validate`` prints them; ``verify`` starts with them.
    """
    try:
        notes, ok = [f"warning: {w}" for w in validate_config(cfg, specs)], True
    except ConfigError as exc:
        notes, ok = [str(exc)], False
    violations = [
        f"task {i}: {v}" for i, t in enumerate(specs)
        if (v := validate_assumptions(t.utility, t.demand.span())) is not None
    ]
    return [
        _row("config", ok, "; ".join(notes) or "all conditions hold"),
        _row("model_assumptions", not violations,
             "; ".join(violations) or f"{len(specs)} task model(s) hold"),
    ]


def _verify_checks(specs, cfg) -> list[dict]:
    """The rows of ``verify``, from two processes that share no state.

    A ``config`` FAIL ends the rows there, before any fork. Otherwise a
    forked worker, a ``_Child``, runs the engine lanes (``_lane_checks``)
    while this process runs the oracles: the tracking run against the full
    mean-field ODE, then the fixed point and the limiting-ODE probe. The
    worker's result is the lanes' rows, or the exception they raised,
    raised here with its class and message, as it was when the lanes ran
    first; for that reason it also wins over an exception this process
    raised after the worker had reported. Any exception here,
    KeyboardInterrupt included, kills and reaps the worker before it goes
    on. A worker that dies without a report is an OSError naming its exit
    status or signal. The rows come in the order of one process: the
    static rows, the lanes', ``ode_tracking`` and ``cross_oracle``.
    """
    checks = _static_checks(specs, cfg)
    if not checks[0]["pass"]:
        return checks[:1]
    worker = _Child("verify worker", _lane_checks, specs, cfg)
    try:
        oracles = [_row("ode_tracking", *_ode_tracking(specs, cfg)),
                   _cross_oracle(specs, cfg)]
    except BaseException:
        worker.result(kill=True)
        raise
    return checks + worker.result() + oracles


def _lane_checks(specs, cfg) -> list[dict]:
    """The rows ``feasibility`` to ``s_optimality``: three lanes of one run,
    each feeding the verdicts listed with it; an aborted lane fails all of
    them. Every verdict read here comes from the ledger, which does not
    depend on the stride, so one record per lane is kept."""
    quiet_cfg = dataclasses.replace(cfg, eta_bar=0.0, zeta_bar=1e-4)
    lanes = (
        ("", cfg, False, ("feasibility", "fairness_zero_sum",
                          "fairness_increment_bounds", "starvation", "balance")),
        ("frozen-level run: ", cfg, True, ("fairness_residual",)),
        ("noise-free regime: ", quiet_cfg, False, ("s_optimality",)),
    )
    results = Engine(specs, cfg).run_lanes(
        [(NoiseSource(c.seed, c.eta_bar, c.zeta_bar), freeze) for _, c, freeze, _ in lanes],
        stride=cfg.horizon,
    )
    rows = []
    for (label, run_cfg, _, names), trace in zip(lanes, results):
        if isinstance(trace, StepError):
            rows += [_row(name, False, f"{label}{type(trace).__name__}: {trace}")
                     for name in names]
            continue
        verdicts = summarize(trace, specs, run_cfg).verdicts
        rows += [_row(name, verdicts[name]["pass"], label + verdicts[name]["detail"])
                 for name in names]
    return rows


def _cross_oracle(specs, cfg) -> dict:
    """The ``cross_oracle`` row: the fixed point against the endpoints of
    the limiting-ODE probe."""
    try:
        fp = fair_fixed_point(specs, tol=1e-8)
        reps = probe_limit_points(specs, n_starts=8, seed=cfg.seed)
    except OracleError as exc:
        return _row("cross_oracle", False, f"OracleError: {exc}")
    gaps = [float(np.abs(r - fp.v).max()) for r in reps]
    return _row("cross_oracle", bool(fp.converged and reps and max(gaps) <= 1e-3),
                f"{len(reps)} endpoint cluster(s), max gap to fixed point "
                f"{max(gaps):.3g}, residual {fp.residual:.3g}")


def _ode_tracking(specs, cfg) -> tuple[bool | None, str]:
    """Noise-free discrete share path against the full mean-field ODE at the
    step-0 demand.

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
    try:
        track = Engine(specs, track_cfg).run(stride=1)
    except StepError as exc:
        return False, f"noise-free tracking run: {type(exc).__name__}: {exc}"
    if not (track.v != track_cfg.v_init).any():
        return None, "vacuous: the discrete share path never moves"
    try:
        ode = integrate_full_ode(
            specs, track_cfg, t_end=track_cfg.horizon * cfg.epsilon,
            dt=min(1e-3, cfg.epsilon),
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
    # An OSError here comes from writing the outputs, such as an --out that
    # names a file; a scenario that cannot be read is already a ConfigError.
    except (FairshareError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
