"""Benchmark of the fairshare CLI: end-to-end metrics, or per-layer metrics.

Run from the root of a fairshare checkout:

    python3 perfbench/run.py --workload fig6-strided --seed 30 --seconds 20 --trace 0
    python3 perfbench/run.py --trace 1          # every workload, builtin seeds

``--trace 0`` measures ``wall_s``, ``setup_s``, ``peak_rss_mb`` and
``output_mb``; ``--trace 1`` makes one untraced and one traced pass of the
command, plus a tracemalloc pass of its first ``Engine.run``, and reports
the per-layer metrics of ``layers.py`` with the tracing overhead. Every
measurement runs in its own fresh interpreter (``child.py``), one at a
time. Outputs are checked after every command; a nonzero exit or a failed
check counts as a failed operation. A human-readable report goes to
stdout; its last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Each result is also appended, with the machine
and code it ran on, to ``.perfbench/results.jsonl``. The exit code is
nonzero only when the benchmark could not produce a result.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
MB = 1e6
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 160
MAX_THREADS = 2
# On a shared 2-vCPU machine the speed of each vCPU swings by up to 2x, for
# seconds at a time and independently of the other; moving the child
# between the CPUs this often makes every sample average both.
MIGRATE_EVERY_S = 0.1
# One thread per child: two cores, one measured command at a time.
CHILD_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

RUN_VERDICTS = (
    "feasibility", "fairness_zero_sum", "fairness_increment_bounds",
    "starvation", "balance", "fairness_residual", "s_optimality",
)
VERIFY_CHECKS = (
    "config", "feasibility", "fairness_zero_sum", "fairness_increment_bounds",
    "starvation", "balance", "fairness_residual", "s_optimality",
    "ode_tracking", "cross_oracle",
)


@dataclass(frozen=True)
class Workload:
    command: str
    scenario: str
    default_seed: int
    args: tuple[str, ...]
    output: str
    # Verdicts or checks that pass at full scale (zone_steps=40000); a SKIP
    # here means a check went vacuous, so it counts as a failure.
    must_decide: tuple[str, ...]
    overrides: tuple[tuple[str, int], ...] = ()

    def argv(self, seed: int, out: Path) -> list[str]:
        sets = [a for k, v in self.overrides for a in ("--set", f"{k}={v}")]
        return [self.command, self.scenario, "--seed", str(seed), *sets,
                *self.args, "--out", str(out)]

    def setup_job(self, seed: int) -> dict:
        return {"scenario": self.scenario,
                "overrides": {**dict(self.overrides), "seed": seed}}


WORKLOADS = {
    # Output-bound: write_trace_csv dominates; summarize is second.
    "fig6-trace": Workload(
        "run", "paper-fig6", 30, ("--stride", "1", "--formats", "csv,json"),
        "trace.csv", RUN_VERDICTS,
    ),
    # Loop-bound: Engine.run is nearly all of it; writes 40 KB.
    "fig6-strided": Workload(
        "run", "paper-fig6", 30, ("--stride", "100", "--formats", "json"),
        "summary.json",
        tuple(v for v in RUN_VERDICTS if v not in ("starvation", "balance")),
    ),
    # Oracle-bound. zone_steps=15000 keeps one 40000-step starvation window
    # (horizon 45000 minus a 10% burn-in); balance is vacuous at full scale.
    "fig5-verify": Workload(
        "verify", "paper-fig5", 7, (), "verify.json",
        tuple(c for c in VERIFY_CHECKS if c != "balance"),
        overrides=(("zone_steps", 15000),),
    ),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed command)."""


def wait_migrating(proc: subprocess.Popen, timeout: float) -> tuple[str, str]:
    """``proc.communicate()``, moving the child to the next CPU every
    ``MIGRATE_EVERY_S``; raises ``TimeoutExpired`` after ``timeout``."""
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.monotonic() + timeout
    for turn in itertools.count(1):
        try:
            return proc.communicate(timeout=MIGRATE_EVERY_S)
        except subprocess.TimeoutExpired:
            if time.monotonic() > deadline:
                raise
            with contextlib.suppress(ProcessLookupError):
                os.sched_setaffinity(proc.pid, {cpus[turn % len(cpus)]})


def spawn(mode: str, job: dict, spans: Path | None = None) -> dict:
    """Run one child measurement and return its JSON result."""
    cmd = [sys.executable, str(HERE / "child.py"), mode,
           "--root", str(ROOT), "--job", json.dumps(job)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    with subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            stdout, stderr = wait_migrating(proc, CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"{mode} child exceeded {CHILD_TIMEOUT_S} s"}
        except BaseException:
            proc.kill()
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"error": f"{mode} child exited {proc.returncode}: {stderr.strip()[-800:]}"}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check(w: Workload, out: Path, res: dict) -> tuple[list[str], str | None, int]:
    """Problems with one command's outputs, the digest of its main output
    and the bytes it wrote."""
    if "error" in res:
        return [res["error"]], None, 0
    problems = []
    if res["rc"] != 0:
        problems.append(f"exit code {res['rc']}: {res['stdout_tail']!r}")
    if res["threads"] > MAX_THREADS:
        problems.append(f"child ran {res['threads']} threads")
    written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
    if not (out / w.output).is_file():
        return problems + [f"{w.output} missing"], None, written
    report = out / ("summary.json" if w.command == "run" else "verify.json")
    if not report.is_file():
        return problems + [f"{report.name} missing"], None, written
    doc = json.loads(report.read_text())
    if w.command == "run":
        if doc.get("status") != "ok":
            problems.append(f"summary status {doc.get('status')!r}")
        decided = {k: v["pass"] for k, v in doc.get("verdicts", {}).items()}
    else:
        if doc.get("all_pass") is not True:
            problems.append("verify all_pass is not true")
        decided = {c["name"]: c["pass"] for c in doc.get("checks", [])}
    problems += [f"{k}: pass false" for k, v in decided.items() if v is False]
    problems += [f"{k}: SKIP, but it passes at full scale"
                 for k in w.must_decide if decided.get(k) is None]
    return problems, sha256(out / w.output), written


class Invocation:
    """Commands of one benchmark run and the checks on their outputs."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w, self.seed, self.work = w, seed, work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: list[dict] = []
        self.digest: str | None = None
        (work / "manifest.json").unlink(missing_ok=True)

    def command(self, mode: str, replay: Path | None = None,
                spans: Path | None = None) -> dict:
        """One measured command; ``replay`` runs a manifest instead of the
        workload's own argv. Its output directory is removed afterwards."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = (["run", str(replay), "--out", str(out)] if replay is not None
                else self.w.argv(self.seed, out))
        res = spawn(mode, {"argv": argv}, spans)
        problems, digest, written = check(self.w, out, res)
        if digest is not None:
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append(f"{self.w.output} digest differs from the first command's")
        if replay is None and self.w.command == "run" and (out / "manifest.json").is_file():
            shutil.copy(out / "manifest.json", self.work / "manifest.json")
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        self.failed += bool(problems)
        label = f"{mode}{' replay' if replay is not None else ''}"
        self.problems += [f"{label}: {p}" for p in problems]
        res["output_mb"] = written / MB
        res["failed"] = bool(problems)
        self.records.append({"mode": label, **{k: v for k, v in res.items()
                                                if k not in ("stdout_tail", "layers")}})
        return res

    def replay(self) -> dict | None:
        """``fairshare run <out>/manifest.json`` must reproduce the output bit for bit."""
        manifest = self.work / "manifest.json"
        if self.w.command != "run" or not manifest.is_file():
            return None
        return self.command("cmd", replay=manifest)


def setup_times(w: Workload, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_SAMPLES):
        res = spawn("setup", w.setup_job(seed))
        if "error" in res:
            raise BenchError(res["error"])
        times.append(res["setup_s"])
    return times


def end_to_end(s: Invocation, seconds: float) -> tuple[dict, list[str]]:
    setup = setup_times(s.w, s.seed)
    samples = []
    t0 = time.monotonic()
    while not samples or time.monotonic() - t0 < seconds:
        samples.append(s.command("cmd"))
    # The replay does the same work as a builtin run, bar building the
    # scenario (about 0.05 s), so it is one more sample.
    replay = s.replay()
    if replay is not None:
        samples.append(replay)
    ok = [r for r in samples if "wall_s" in r and not r["failed"]] or samples
    if not all("wall_s" in r for r in ok):
        raise BenchError("; ".join(s.problems))
    walls = [r["wall_s"] for r in ok]
    speed = statistics.median(r["speed"] for r in ok)
    metrics = {
        "wall_s": {"value": statistics.median(r["wall_s"] * r["speed"] for r in ok),
                   "unit": "s"},
        "setup_s": {"value": statistics.median(setup) * speed, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in ok),
                        "unit": "MB"},
        "output_mb": {"value": statistics.median(r["output_mb"] for r in ok),
                      "unit": "MB"},
    }
    fail_frac = s.failed / s.attempted
    notes = [
        f"wall_s       {metrics['wall_s']['value']:.4f} s   median of {len(walls)} "
        f"main(argv) call(s){', the last a manifest replay' if replay else ''} "
        f"at reference speed; as timed {statistics.median(walls):.4f} s, range "
        f"{min(walls):.4f}-{max(walls):.4f}; too few for a tail percentile",
        f"setup_s      {metrics['setup_s']['value']:.4f} s   median of "
        f"{len(setup)} fresh processes at reference speed; as timed "
        f"{statistics.median(setup):.4f} s, range {min(setup):.4f}-{max(setup):.4f}",
        f"speed        x{speed:.4f}     median machine speed while the commands "
        "ran, relative to the reference",
        f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.2f} MB  ru_maxrss of the "
        "child that ran the command (median)",
        f"output_mb    {metrics['output_mb']['value']:.4f} MB  bytes in the output "
        "directory (median)",
        f"fail_frac    {fail_frac:g}      {s.failed} failed of {s.attempted} "
        "command(s)",
    ]
    return metrics, notes


def traced(s: Invocation) -> tuple[dict, list[str]]:
    plain = s.command("cmd")
    trace = s.command("trace", spans=s.work / f"spans-seed{s.seed}.npz")
    if "layers" not in trace or "wall_s" not in plain:
        raise BenchError("; ".join(s.problems))
    # Not a whole command, so its outputs are not checked.
    alloc = spawn("alloc", {"argv": s.w.argv(s.seed, s.work / "alloc")})
    shutil.rmtree(s.work / "alloc", ignore_errors=True)
    if "run_peak_alloc_mb" not in alloc:
        raise BenchError(alloc.get("error", "tracemalloc pass made no Engine.run call"))
    layer = dict(trace["layers"])
    layer["dynamics.run_peak_alloc_mb"] = alloc["run_peak_alloc_mb"]
    layer["trace.wall_s"] = trace["wall_s"] * trace["speed"]
    layer["trace.untraced_wall_s"] = plain["wall_s"] * plain["speed"]
    layer["trace.overhead_s"] = layer["trace.wall_s"] - layer["trace.untraced_wall_s"]
    layer["trace.overhead_frac"] = layer["trace.overhead_s"] / layer["trace.untraced_wall_s"]
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    notes = [f"{k:<28} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    notes.append(f"fail_frac {s.failed / s.attempted:g} "
                 f"({s.failed} failed of {s.attempted} command(s))")
    return metrics, notes


def layer_unit(name: str) -> str:
    for suffix, unit in (("_calls", "count"), ("_iters", "count"), ("_steps", "count"),
                         ("spans", "count"), ("_per_s", "MB/s"), ("_mb", "MB"),
                         ("ns_per_task_step", "ns"), ("_frac", "1"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(name)


def environment() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit or "unavailable (not a git checkout)",
        "src_sha256": src.hexdigest(),
    }


def bench(name: str, seed: int | None, seconds: float, trace: bool, env: dict) -> dict:
    w = WORKLOADS[name]
    seed = w.default_seed if seed is None else seed
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    s = Invocation(w, seed, work)
    metrics, notes = traced(s) if trace else end_to_end(s, seconds)
    result = {"correct": not s.problems, "attempted": s.attempted,
              "failed": s.failed, "metrics": metrics}
    print(f"== {name}  seed={seed}  trace={int(trace)}  argv: fairshare "
          + " ".join(w.argv(seed, Path('<out>'))))
    print("   " + "\n   ".join(notes))
    for p in s.problems:
        print(f"   FAILED {p}")
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed, "trace": int(trace),
                             "seconds": seconds, "env": env, **result,
                             "problems": s.problems, "commands": s.records}) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the builtin seed, fig5 7, fig6 30)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the end-to-end samples are taken for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "fairshare" / "cli.py").is_file():
        print(f"error: no fairshare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    print("env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: bench(n, args.seed, args.seconds, bool(args.trace), env)
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
