"""Layer tracing for the benchmark, done from outside the program.

Each public function of ``core``, ``utility``, ``dynamics``, ``oracle``,
``scenario`` and ``cli`` that a workload reaches is replaced, where its
caller looks it up, by a wrapper that records one span (name, start, end,
parent) per call and the counts read off its arguments and result. Methods
are patched on their class (``ModelBank.eval``); functions that ``cli``
imported by name are patched in the ``fairshare.cli`` namespace, and
``integrate_limiting_ode`` in ``fairshare.oracle``, where
``probe_limit_points`` looks it up.

Spans stay in flat arrays in memory while the command runs and are written
out once, when it has ended.
"""
from __future__ import annotations

import functools
import os
import time
from array import array
from collections import Counter

import numpy as np

MB = 1e6


class SpanRecorder:
    """Spans in four parallel arrays; ``parent`` is -1 for a root span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.code = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a ``name`` span per call; ``after(args, result)``
        adds counts when the call returns normally."""
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        codes, parents, starts, ends = self.code, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            codes.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "code": np.frombuffer(self.code, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it on one thread.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        out = {}
        for code, name in enumerate(self.names):
            mask = a["code"] == code
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    def child_calls(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self.names or parent not in self.names:
            return 0
        a = self.arrays()
        mask = (a["code"] == self.names.index(child)) & (a["parent"] >= 0)
        parents = a["code"][a["parent"][mask]]
        return int((parents == self.names.index(parent)).sum())


def _trace_nbytes(trace) -> int:
    return sum(
        getattr(trace, f).nbytes
        for f in ("steps", "v", "s", "u_meas", "f_obs", "phi", "phi_sq")
    )


def install(rec: SpanRecorder) -> None:
    """Patch every traced layer boundary of the imported ``fairshare``."""
    import fairshare.cli as cli
    import fairshare.core as core
    import fairshare.dynamics as dynamics
    import fairshare.oracle as oracle
    import fairshare.utility as utility

    counts = rec.counts

    def patch(owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), after))

    def noise_block(args, block):
        counts["core.noise_bytes"] += block.nbytes

    def engine_run(args, trace):
        engine = args[0]
        counts["dynamics.task_steps"] += engine.cfg.horizon * engine.n
        counts["dynamics.trace_bytes_max"] = max(
            counts["dynamics.trace_bytes_max"], _trace_nbytes(trace)
        )

    def csv_written(args, _result):
        counts["cli.trace_csv_bytes"] += os.path.getsize(args[0])

    def limiting_ode(args, traj):
        counts["oracle.limiting_ode_steps"] += len(traj.times) - 1

    def fixed_point(args, result):
        counts["oracle.fixed_point_iters"] += result.iterations

    patch(core.NoiseSource, "measurement_block", "core.noise_block", noise_block)
    patch(core.NoiseSource, "dither_block", "core.noise_block", noise_block)
    patch(utility.ModelBank, "eval", "utility.eval")
    patch(utility.ModelBank, "argmax", "utility.argmax")
    patch(dynamics.Engine, "__init__", "dynamics.engine_init")
    patch(dynamics.Engine, "run", "dynamics.run", engine_run)
    patch(cli, "build_identical_four", "scenario.build")
    patch(cli, "build_random", "scenario.build")
    patch(cli, "summarize", "scenario.summarize")
    patch(cli, "resolve_scenario", "cli.resolve")
    patch(cli, "write_trace_csv", "cli.write_trace_csv", csv_written)
    patch(cli, "probe_limit_points", "oracle.probe")
    patch(oracle, "integrate_limiting_ode", "oracle.limiting_ode", limiting_ode)
    patch(cli, "integrate_full_ode", "oracle.full_ode")
    patch(cli, "fair_fixed_point", "oracle.fixed_point", fixed_point)
    patch(cli, "main", "cli.main")


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """The per-layer metrics of one traced command, from its spans and counts."""
    tot = rec.totals()
    counts = rec.counts
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def span(name: str) -> dict:
        return tot.get(name, zero)

    run = span("dynamics.run")
    csv = span("cli.write_trace_csv")
    task_steps = counts["dynamics.task_steps"]
    csv_mb = counts["cli.trace_csv_bytes"] / MB
    return {
        "core.noise_block_s": span("core.noise_block")["s"],
        "core.noise_mb": counts["core.noise_bytes"] / MB,
        "utility.eval_calls": span("utility.eval")["calls"],
        "utility.eval_s": span("utility.eval")["s"],
        "utility.argmax_calls": span("utility.argmax")["calls"],
        "utility.argmax_s": span("utility.argmax")["s"],
        "utility.argmax_eval_calls": rec.child_calls("utility.eval", "utility.argmax"),
        "dynamics.engine_init_s": span("dynamics.engine_init")["s"],
        "dynamics.run_calls": run["calls"],
        "dynamics.run_s": run["s"],
        "dynamics.run_self_s": run["self_s"],
        "dynamics.ns_per_task_step": 1e9 * run["s"] / task_steps if task_steps else 0.0,
        "dynamics.trace_mb": counts["dynamics.trace_bytes_max"] / MB,
        "scenario.build_s": span("scenario.build")["s"],
        "scenario.summarize_calls": span("scenario.summarize")["calls"],
        "scenario.summarize_s": span("scenario.summarize")["s"],
        "cli.resolve_s": span("cli.resolve")["s"],
        "cli.write_trace_csv_s": csv["s"],
        "cli.trace_csv_mb": csv_mb,
        "cli.write_mb_per_s": csv_mb / csv["s"] if csv["s"] else 0.0,
        "oracle.probe_s": span("oracle.probe")["s"],
        "oracle.limiting_ode_calls": span("oracle.limiting_ode")["calls"],
        "oracle.limiting_ode_steps": counts["oracle.limiting_ode_steps"],
        "oracle.full_ode_s": span("oracle.full_ode")["s"],
        "oracle.fixed_point_s": span("oracle.fixed_point")["s"],
        "oracle.fixed_point_iters": counts["oracle.fixed_point_iters"],
        "trace.spans": len(rec.start),
    }


class StopAfterRun(Exception):
    """Ends the tracemalloc pass once the first ``Engine.run`` has returned."""

    def __init__(self, peak_bytes: int):
        super().__init__(peak_bytes)
        self.peak_bytes = peak_bytes


def install_alloc() -> None:
    """Run the first ``Engine.run`` call under tracemalloc, then stop the
    command by raising :class:`StopAfterRun` with the peak traced bytes.

    tracemalloc slows every allocation about eightfold, so the pass stops
    there; in every workload the first run is the largest (a full-horizon
    stride-1 or strided run; the later runs of ``verify`` are no longer).
    """
    import tracemalloc

    import fairshare.dynamics as dynamics

    run = dynamics.Engine.run

    @functools.wraps(run)
    def run_measured(self, *args, **kwargs):
        tracemalloc.start()
        try:
            run(self, *args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        raise StopAfterRun(peak)

    dynamics.Engine.run = run_measured
