"""Property tests: hostile inputs never escape ``main``.

Every document here is small (two tasks, a horizon of at most a few
hundred steps), so each example runs in milliseconds; sizes are not what
these tests probe. The settings are derandomized, so a run of the suite
draws the same examples every time.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairshare.cli import main
from fairshare.core import EngineConfig

PROPERTY = settings(
    derandomize=True, database=None, deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)

VALID = {
    "tasks": [
        {"weight": 1.0,
         "model": {"type": "home_energy", "a": 2.0, "b": 1.0, "c": 2.0,
                   "kappa": 1.0, "h": 0.5},
         "demand_zones": [[0, 0.4], [40, 0.6]]},
        {"weight": 0.5,
         "model": {"type": "cpu_bandwidth", "a": 1.0, "b": 3.0, "h": 1.0,
                   "theta": 1.0, "normalize": {"c_target": 2.0}},
         "demand_zones": [[0, 0.5]]},
    ],
    "engine": {"epsilon": 5e-4, "horizon": 120, "seed": 1,
               "eta_bar": 1e-3, "zeta_bar": 1e-3},
}

# Values of every JSON type, including the non-finite numbers Python's json
# reads and writes. Integral values stay small, so that no horizon or
# zone_steps makes a run long.
hostile = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300),
    st.floats(allow_nan=True, allow_infinity=True).filter(
        lambda x: not (math.isfinite(x) and x.is_integer() and abs(x) > 300)),
    st.sampled_from([0.5, 2.7, -1.0, 1e300, 5e-324]),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 2), st.floats(-1, 2), st.text(max_size=2)),
             max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)

# Where a hostile value goes: a path into VALID; the last key may be new.
PATHS = [
    (), ("tasks",), ("engine",), ("tasks", 0), ("tasks", 1, "weight"),
    ("tasks", 0, "model"), ("tasks", 0, "demand_zones"),
    ("tasks", 0, "demand_zones", 1), ("tasks", 0, "demand_zones", 1, 0),
    ("tasks", 0, "demand_zones", 1, 1), ("tasks", 1, "model", "normalize"),
    ("tasks", 1, "model", "normalize", "c_target"), ("tasks", 1, "model", "scale"),
    *(("tasks", 0, "model", k) for k in ("type", "a", "b", "c", "kappa", "h", "bound_c")),
    *(("tasks", 1, "model", k) for k in ("a", "theta", "v_floor", "bound_c")),
    *(("engine", f.name) for f in dataclasses.fields(EngineConfig)),
    ("engine", "nonsense"),
]


def replaced(doc, path, value):
    """A copy of ``doc`` with ``value`` at ``path``."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def run_exit_code(doc, name: str = "scenario.json") -> int:
    """``main(["run", <doc as a file>])`` in a scratch directory.

    An exception that escapes ``main`` fails the calling test.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(doc))
        return main(["run", str(path), "--out", str(Path(tmp) / "out")])


@PROPERTY
@given(path=st.sampled_from(PATHS), value=hostile)
def test_malformed_scenario_files_exit_with_a_code(path, value):
    assert run_exit_code(replaced(VALID, path, value)) in (0, 1, 2)


@PROPERTY
@given(key=st.sampled_from(["stride", "formats", "scenario", "extra"]), value=hostile)
def test_malformed_manifests_exit_with_a_code(key, value):
    manifest = {"scenario": VALID, "stride": 7, "formats": ["json"], key: value}
    assert run_exit_code(manifest, "manifest.json") in (0, 1, 2)


@PROPERTY
@given(key=st.sampled_from([f.name for f in dataclasses.fields(EngineConfig)]
                           + ["zone_steps", "engine.seed", "nonsense", ""]),
       raw=st.one_of(hostile.map(json.dumps), st.text(max_size=6)))
def test_malformed_set_values_exit_with_a_code(key, raw):
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["run", "paper-fig5", "--formats", "json", "--set", "zone_steps=40",
                     f"--set={key}={raw}", "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
