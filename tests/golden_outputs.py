"""SHA-256 of the outputs of four small commands, with the float64 ``tanh``
loop class of the numpy that made them.

The commands run in this script's folder, which holds the scenario file
one of them names. The builtins have ``home_energy`` tasks only, so
``mixed_cpu_first.json`` pins the ``cpu_bandwidth`` formula: its task comes
first, as the bank's base group, before two ``home_energy`` tasks.

numpy picks its float64 ``tanh`` loop for the CPU, and the loops differ in
the last bit at some inputs, so the output bytes depend on the loop. A
class is named by the first 12 hex digits of the SHA-256 of ``np.tanh`` on
a fixed grid. Run as a script, this prints two lines: the class, as soon as
numpy is loaded, and then the hashes as JSON, which is one class's entry in
``golden_hashes.json``. Under
``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3"`` an x86
numpy 2.4 runs its baseline loop.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
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
    print(json.dumps(output_hashes(), sort_keys=True))
