"""SHA-256 of the outputs of four small commands and of the oracles' arrays
on the builtins, with the float64 ``tanh`` loop class of the numpy that made
them.

The commands run in this script's folder, which holds the scenario file
one of them names. The builtins have ``home_energy`` tasks only, so
``mixed_cpu_first.json`` pins the ``cpu_bandwidth`` formula: its task comes
first, as the bank's base group, before two ``home_energy`` tasks.

numpy picks its float64 ``tanh`` loop for the CPU, and the loops differ in
the last bit at some inputs, so the output bytes depend on the loop. A
class is named by the first 12 hex digits of the SHA-256 of ``np.tanh`` on
a fixed grid. Run as a script, this prints two lines: the class, as soon as
numpy is loaded, and then the hashes as JSON, which is one class's entry in
``golden_hashes.json``. ``verify`` prints the oracles' answers to a few
digits, so the oracles' own arrays are hashed too: the full mean-field ODE
of ``verify``'s ``ode_tracking`` row on fig5, the limiting-ODE batch and
the endpoints of ``probe_limit_points`` on fig5 and fig6, and
``fair_fixed_point`` on fig6. Under
``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3"`` an x86
numpy 2.4 runs its baseline loop.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np

# The sizes are the smallest tried whose bytes tell the two x86 classes apart.
COMMANDS = {
    "run paper-fig5 --set zone_steps=2000": ("trace.csv", "summary.json"),
    "run paper-fig6 --set zone_steps=300 --stride 1": ("trace.csv", "summary.json"),
    "verify paper-fig5 --set zone_steps=2000": ("verify.json",),
    "run mixed_cpu_first.json": ("trace.csv", "summary.json"),
}


def tanh_class() -> str:
    grid = np.tanh(np.linspace(-20.0, 20.0, 100_001))
    return hashlib.sha256(grid.tobytes()).hexdigest()[:12]


def _sha(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def oracle_hashes() -> dict[str, dict[str, str]]:
    """The oracles' arrays as ``verify`` computes them on the builtins."""
    from fairshare.cli import resolve_scenario
    from fairshare.oracle import (fair_fixed_point, integrate_full_ode,
                                  integrate_limiting_ode, probe_limit_points)

    hashes = {}
    for name in ("paper-fig5", "paper-fig6"):
        specs, cfg, _, _ = resolve_scenario(name, {})
        n = len(specs)
        if name == "paper-fig5":
            # The configuration of verify's ode_tracking row (cli._ode_tracking).
            ramp = np.arange(1.0, n + 1.0)
            track_cfg = dataclasses.replace(
                cfg, eta_bar=0.0, zeta_bar=0.0,
                horizon=min(cfg.horizon, int(math.ceil(2.0 / cfg.epsilon))),
                v_init=tuple(ramp / ramp.sum()))
            ode = integrate_full_ode(specs, track_cfg, t_end=track_cfg.horizon * cfg.epsilon,
                                     dt=min(1e-3, cfg.epsilon))
            hashes[f"integrate_full_ode {name} ode_tracking"] = {
                "times": _sha(ode.times), "v": _sha(ode.v), "s": _sha(ode.s)}
        # probe_limit_points(specs, n_starts=8, seed=cfg.seed) as verify calls
        # it, and the batch it integrates, from the same starts.
        x = np.random.default_rng(cfg.seed).exponential(size=(8, n))
        batch = integrate_limiting_ode(specs, x / x.sum(axis=-1, keepdims=True),
                                       t_end=200.0, dt=0.02, stop_residual=1e-8)
        hashes[f"integrate_limiting_ode {name} probe batch"] = {
            "times": _sha(batch.times), "v": _sha(batch.v), "s": _sha(batch.s)}
        reps = probe_limit_points(specs, n_starts=8, seed=cfg.seed)
        hashes[f"probe_limit_points {name}"] = {"endpoints": _sha(*reps)}
        if name == "paper-fig6":
            fp = fair_fixed_point(specs, tol=1e-8)
            hashes[f"fair_fixed_point {name}"] = {
                "v": _sha(fp.v),
                "residual, iterations, converged": _sha(
                    np.array([fp.residual]), np.array([fp.iterations, fp.converged]))}
    return hashes


def output_hashes() -> dict[str, dict[str, str]]:
    # Imported here, after the class line is out, so that a package that
    # fails to import fails the golden test instead of skipping it.
    from fairshare.cli import main

    hashes = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(Path(__file__).parent):
        for i, (command, files) in enumerate(COMMANDS.items()):
            out = Path(tmp) / str(i)
            with contextlib.redirect_stdout(io.StringIO()):
                main(command.split() + ["--out", str(out)])
            hashes[command] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                               for name in files}
    return hashes


if __name__ == "__main__":
    print(tanh_class(), flush=True)
    print(json.dumps(output_hashes() | oracle_hashes(), sort_keys=True))
