"""One measurement in a fresh interpreter; started by ``perfbench/run.py``.

Every measurement gets its own process, so peak RSS and import cost are
never inherited from an earlier one. The last stdout line is a JSON object.
``cmd`` and ``trace`` also sample the machine's speed while the command
runs (``SpeedSampler``), so that the parent can scale the wall time to a
reference speed.

Modes:
  setup  time ``import fairshare.cli``, ``resolve_scenario`` and ``Engine(specs, cfg)``
  cmd    time one ``fairshare.cli.main(argv)`` call, untraced
  trace  the same call with a span around every layer boundary (layers.py)
  alloc  the same call with tracemalloc inside the first ``Engine.run``, stopped there
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import layers

# A probe is PROBE_ITERATIONS small numpy operations, run every
# SAMPLE_EVERY_S of the command; it takes REF_PROBE_S on the reference
# machine (a 2-vCPU Intel Xeon VM) at its usual speed.
PROBE_ITERATIONS = 1000
SAMPLE_EVERY_S = 0.25
REF_PROBE_S = 0.002


def _threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


class SpeedSampler:
    """Times a probe from a SIGALRM handler every ``SAMPLE_EVERY_S``.

    The handler runs between bytecodes of the command, in its process and on
    whichever CPU it is on, so the probes sample the speed the command ran
    at. The command's own output is unaffected. The probes cost about 1 % of
    the wall time, and ``main`` subtracts their total from ``wall_s``.
    """

    def __init__(self) -> None:
        import numpy as np

        self._x = np.ones(30)
        self.times: list[float] = []

    def _probe(self, *_) -> None:
        x = self._x
        t0 = time.perf_counter()
        for _ in range(PROBE_ITERATIONS):
            x * 1.0001 + 0.5
        self.times.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def speed(self) -> float | None:
        """Mean speed over the command relative to the reference machine."""
        if not self.times:
            return None
        return sum(REF_PROBE_S / t for t in self.times) / len(self.times)


def _import_cli(root: Path):
    import fairshare
    import fairshare.cli

    src = (root / "src").resolve()
    if not Path(fairshare.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"fairshare imported from {fairshare.__file__}, not {src}")
    return fairshare.cli


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "cmd", "trace", "alloc"))
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--job", required=True, type=json.loads,
                        help='{"scenario", "overrides"} for setup, {"argv"} otherwise')
    parser.add_argument("--spans", help="trace mode: .npz file for the spans")
    args = parser.parse_args()
    sys.path.insert(0, str(args.root / "src"))
    job = args.job
    out: dict = {}

    if args.mode == "setup":
        t0 = time.perf_counter()
        cli = _import_cli(args.root)
        from fairshare.dynamics import Engine

        specs, cfg, _doc, _extras = cli.resolve_scenario(job["scenario"], job["overrides"])
        Engine(specs, cfg)
        out["setup_s"] = time.perf_counter() - t0
    else:
        cli = _import_cli(args.root)
        rec = None
        if args.mode == "trace":
            rec = layers.SpanRecorder()
            layers.install(rec)
        elif args.mode == "alloc":
            layers.install_alloc()
        captured = io.StringIO()
        sampler = SpeedSampler()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), sampler:
                rc = cli.main(job["argv"])
        except layers.StopAfterRun as stop:
            rc = None
            out["run_peak_alloc_mb"] = stop.peak_bytes / layers.MB
        out["wall_s"] = time.perf_counter() - t0 - sum(sampler.times)
        out["probe_s"] = sum(sampler.times)
        out["probes"] = len(sampler.times)
        out["speed"] = sampler.speed
        out["rc"] = rc
        out["stdout_tail"] = captured.getvalue()[-400:]
        if rec is not None:
            out["layers"] = layers.layer_metrics(rec)
            rec.save(args.spans)

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / layers.MB
    out["threads"] = _threads()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
