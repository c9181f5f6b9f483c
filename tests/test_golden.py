"""Output bytes against checked-in SHA-256s, under both float64 ``tanh`` loops.

Each case runs ``golden_outputs.py`` in a child process, once under numpy's
default dispatch and once with the faster loops disabled, so that one x86
machine checks both of the classes in ``golden_hashes.json``. A child whose
``tanh`` class has no entry there, or that cannot start under the variable,
is a SKIP with the reason: nothing was checked. A change that means to move
bytes updates the file from the script's output.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairshare

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_hashes.json").read_text())
DISPATCH = {
    "default": {},
    "baseline": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
}


@pytest.mark.parametrize("dispatch", list(DISPATCH))
def test_outputs_match_the_golden_hashes(dispatch):
    src = str(Path(fairshare.__file__).resolve().parents[1])
    env = dict(os.environ, **DISPATCH[dispatch])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(HERE / "golden_outputs.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    if not lines:
        # The lines after the last traceback frame hold the error message.
        err = proc.stderr.strip().splitlines()
        frames = [i for i, line in enumerate(err) if line.startswith(" ")]
        reason = " ".join(err[frames[-1] + 1 if frames else 0:]) or f"exit {proc.returncode}"
        pytest.skip(f"the {dispatch} child did not start: {reason}")
    assert proc.returncode == 0, proc.stderr
    tanh_class = lines[0]
    if tanh_class not in GOLDEN:
        pytest.skip(f"numpy {np.__version__} under the {dispatch} dispatch runs a float64 "
                    f"tanh loop of class {tanh_class}, which has no golden hashes")
    assert json.loads(lines[1]) == GOLDEN[tanh_class]
