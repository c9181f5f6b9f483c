"""Command-line interface: outputs, exit codes, reproducibility."""
from __future__ import annotations

import dataclasses
import errno
import io
import json
import os
import re
import signal
import sys
import time
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare.cli import (
    _ode_tracking,
    main,
    model_from_dict,
    model_to_dict,
    resolve_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_trace_csv,
)
import fairshare.cli as cli
import fairshare.dynamics as dynamics
from fairshare.core import ConfigError, MeasurementError, StepError
from fairshare.dynamics import Engine
from fairshare.scenario import ZoneStats, summarize
from fairshare.utility import (
    AffineNormalizer,
    CpuBandwidthModel,
    HomeEnergyModel,
    ModelBank,
)

FAST = ["--set", "zone_steps=400"]

# Two raw models that go negative at s = 0 (uncertified bounds): the first
# measurement of task 1 is -0.1, so every run aborts at step 0.
BAD_MEASUREMENT = {
    "tasks": [
        {
            "weight": 1.0,
            "model": {"type": "home_energy", "a": 2.0, "b": 1.0,
                      "c": 0.1, "kappa": 0.1, "h": 1.0},
            "demand_zones": [[0, 0.5]],
        }
        for _ in range(2)
    ],
    "engine": {"epsilon": 5e-4, "horizon": 300, "seed": 1, "s_init": 0.0,
               "v_init": [0.9, 0.1]},
}


def run_cli(*argv) -> int:
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


def printed_rows(out: str) -> dict:
    """The (status, detail) of each check row printed by validate or verify."""
    rows = re.findall(r"^(\w+) +(PASS|FAIL|SKIP)  (.*)$", out, flags=re.M)
    return {name: (status, detail) for name, status, detail in rows}


class TestRunCommand:
    def test_builtin_scenario_writes_all_outputs(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("run", "paper-fig5", "--out", str(out), *FAST) == 0
        assert (out / "trace.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "manifest.json").exists()
        summary = read_json(out / "summary.json")
        assert summary["status"] == "ok"
        assert len(summary["zones"]) == 3

    def test_trace_header_and_column_order(self, tmp_path):
        out = tmp_path / "o"
        run_cli("run", "paper-fig5", "--out", str(out), *FAST)
        header = (out / "trace.csv").read_text().splitlines()[0]
        cols = header.split(",")
        assert cols[0] == "step"
        assert cols[1:5] == ["v_0", "v_1", "v_2", "v_3"]
        assert cols[5:9] == ["s_0", "s_1", "s_2", "s_3"]
        assert cols[9:13] == ["u_0", "u_1", "u_2", "u_3"]
        assert cols[13:17] == ["F_0", "F_1", "F_2", "F_3"]
        assert cols[17:21] == ["Phi_0", "Phi_1", "Phi_2", "Phi_3"]
        assert cols[21] == "phi_sq_sum"

    def test_csv_round_trips_exactly(self, tmp_path):
        import fairshare as fs
        from fairshare.scenario import build_identical_four

        out = tmp_path / "o"
        run_cli("run", "paper-fig5", "--out", str(out), *FAST)
        data = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        specs, cfg = build_identical_four({"zone_steps": 400})
        trace = fs.Engine(specs, cfg).run()
        assert np.array_equal(data[:, 0], trace.steps.astype(float))
        assert np.array_equal(data[:, 1:5], trace.v)
        assert np.array_equal(data[:, 9:13], trace.u_meas)
        assert np.array_equal(data[:, 21], trace.phi_sq)

    def test_stride_thins_rows(self, tmp_path):
        out = tmp_path / "o"
        run_cli("run", "paper-fig5", "--out", str(out), "--stride", "100", *FAST)
        n_rows = len((out / "trace.csv").read_text().splitlines()) - 1
        assert n_rows == 1200 // 100

    def test_stride_longer_than_the_run_keeps_every_verdict(self, tmp_path):
        # A 300-step run, which a stride of 1000 leaves without a record.
        summaries = {}
        for stride in ("1", "1000"):
            out = tmp_path / stride
            assert run_cli("run", "paper-fig5", "--out", str(out), "--stride", stride,
                           "--set", "zone_steps=100") == 0
            summaries[stride] = read_json(out / "summary.json")
        thin = summaries["1000"]
        assert len(thin["verdicts"]) == 7
        assert thin["verdicts"] == summaries["1"]["verdicts"]
        assert [(z["insufficient"], z["n_records"]) for z in thin["zones"]] == [(True, 0)] * 3

    @pytest.mark.parametrize("source", ["cli", "manifest"])
    def test_unknown_format_is_rejected_before_any_output(self, tmp_path, capsys, source):
        if source == "cli":
            argv = ["paper-fig5", "--formats", "json,cvs", *FAST]
        else:
            _, _, doc, _ = resolve_scenario("paper-fig5", {"zone_steps": 400})
            path = tmp_path / "manifest.json"
            path.write_text(json.dumps({"scenario": doc, "stride": 1, "formats": ["cvs"]}))
            argv = [str(path)]
        out = tmp_path / "o"
        assert run_cli("run", *argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "['cvs']" in err and "allowed: csv, json" in err
        assert not out.exists()

    def test_manifest_rerun_is_bit_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "paper-fig5", "--out", str(out_a), "--stride", "3", *FAST)
        run_cli("run", str(out_a / "manifest.json"), "--out", str(out_b))
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    def test_unreadable_scenario_is_config_error(self, tmp_path, capsys):
        assert run_cli("run", "no-such-scenario", "--out", str(tmp_path)) == 1
        assert "no-such-scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("command, case", [
        (command, case) for case in ("directory", "not-utf8", "out-is-file")
        for command in ("validate", "verify", "run")
        if (command, case) != ("validate", "out-is-file")
    ])
    def test_io_error_is_one_error_line(self, tmp_path, capsys, command, case):
        scenario, out = tmp_path / "dir", tmp_path / "o"
        scenario.mkdir()
        if case == "not-utf8":
            scenario = tmp_path / "latin1.json"
            scenario.write_bytes('{"tasks": "é"}'.encode("latin-1"))
        elif case == "out-is-file":
            scenario = one_task_file(tmp_path)
            out.write_text("")
        argv = [] if command == "validate" else ["--out", str(out)]
        assert run_cli(command, str(scenario), *argv) == 1
        err = capsys.readouterr().err
        named = out if case == "out-is-file" else scenario
        assert err.startswith("error: ") and err.count("\n") == 1 and str(named) in err

    def test_step_condition_violation_is_config_error(self, tmp_path):
        code = run_cli("run", "paper-fig5", "--out", str(tmp_path / "o"),
                       "--set", "epsilon=0.1", *FAST)
        assert code == 1

    def test_feasibility_breach_exit_code_and_partial_trace(self, tmp_path, capsys):
        scenario = {
            "tasks": [
                {
                    "weight": 1.0,
                    "model": {"type": "home_energy", "a": 2.0, "b": 1.0,
                              "c": 2.0, "kappa": 1.0, "h": 0.5,
                              "normalize": {"c_target": 1.25}},
                    "demand_zones": [[0, 0.4]],
                }
                for _ in range(30)
            ],
            "engine": {
                "epsilon": 0.1, "mu_exponent": 0.05, "gamma": 5.0,
                "eta_bar": 0.001, "zeta_bar": 0.001, "horizon": 200,
                "seed": 3, "s_init": 0.5,
                "v_init": [1.0] + [0.0] * 29,
            },
        }
        path = tmp_path / "breach.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 2
        assert "feasibility breach" in capsys.readouterr().err
        summary = read_json(out / "summary.json")
        assert summary["status"] == "feasibility_breach"
        assert summary["value"] < 0.0 or summary["value"] > 1.0
        assert f"task {summary['task']}" in summary["message"]

    def test_level_gone_nan_is_a_breach_with_a_finite_trace(self, tmp_path, capsys):
        # From step 100 task 0 measures about 1e307, which overflows its
        # utility filter; the filter's next step is inf - inf, and the level
        # turns NaN at step 102.
        tasks = [{"weight": 1.0,
                  "model": {"type": "home_energy", "a": 2.0, "b": 1.0, "c": 2.0,
                            "kappa": 1.0, "h": 0.5, **model},
                  "demand_zones": zones}
                 for model, zones in (
                     ({"scale": 3e307, "shift": 0.0, "bound_c": 3.0}, [[0, 0.4], [100, 0.9]]),
                     ({"normalize": {"c_target": 2.0}}, [[0, 0.4]]))]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"tasks": tasks, "engine": {
            "epsilon": 1e-3, "seed": 1, "eta_bar": 0.0, "zeta_bar": 1e-3, "horizon": 103}}))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 2
        assert "level nan left [0, 1]" in capsys.readouterr().err
        summary = read_json(out / "summary.json")
        assert (summary["status"], summary["step"], summary["task"]) == (
            "feasibility_breach", 102, 0)
        rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        assert rows.shape[0] == 102 and np.isfinite(rows).all()

    def test_measurement_error_writes_partial_trace_and_summary(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(BAD_MEASUREMENT))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 1
        assert "measurement error" in capsys.readouterr().err
        summary = read_json(out / "summary.json")
        assert summary["status"] == "measurement_error"
        assert (summary["step"], summary["task"]) == (0, 1)
        assert summary["value"] == pytest.approx(-0.1)
        assert (out / "trace.csv").read_text().startswith("step,v_0,v_1,")

    def test_builtin_fig6_runs_thirty_tasks(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("run", "paper-fig6", "--out", str(out),
                       "--set", "zone_steps=40", "--stride", "10") == 0
        manifest = read_json(out / "manifest.json")
        assert len(manifest["scenario"]["tasks"]) == 30
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header.count("v_") == 30

    def test_seed_override_changes_trace(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "paper-fig5", "--out", str(out_a), *FAST)
        run_cli("run", "paper-fig5", "--out", str(out_b), "--seed", "123", *FAST)
        assert (out_a / "trace.csv").read_bytes() != (out_b / "trace.csv").read_bytes()


    def test_manifest_replays_cpu_bandwidth_models(self, tmp_path):
        task = {"weight": 0.5, "demand_zones": [[0, 0.5]]}
        scenario = {
            "tasks": [
                {**task, "model": {"type": "cpu_bandwidth", "a": 1.0, "b": 2.0,
                                   "h": 1.0, "theta": 1.0, "v_floor": 0.05,
                                   "normalize": {"c_target": 2.0}}},
                {**task, "model": {"type": "cpu_bandwidth", "a": 0.5, "b": 3.0,
                                   "h": 1.2, "theta": 0.7}},
            ],
            "engine": {"epsilon": 5e-4, "eta_bar": 0.001, "zeta_bar": 0.001,
                       "horizon": 300, "seed": 4},
        }
        path = tmp_path / "cpu.json"
        path.write_text(json.dumps(scenario))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", str(path), "--out", str(out_a)) == 0
        assert run_cli("run", str(out_a / "manifest.json"), "--out", str(out_b)) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


def whole_block_csv(path, trace):
    """trace.csv from one np.savetxt call over all rows; the reference."""
    n = trace.v.shape[1]
    cols = ["step"] + [f"{name}_{i}" for name in ("v", "s", "u", "F", "Phi")
                       for i in range(n)] + ["phi_sq_sum"]
    data = np.column_stack([
        trace.steps.astype(float), trace.v, trace.s, trace.u_meas,
        trace.f_obs, trace.phi, trace.phi_sq,
    ])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        np.savetxt(fh, data, fmt="%.17g", delimiter=",", newline="\n")


class TestTraceCsv:
    # Value budgets for fig5's 22 columns: 7 and 22 give one row a block,
    # 157 gives 7 rows (13 rows then end mid-block, 14 at a block edge) and
    # 4096 puts the whole 60-row run in one block.
    @pytest.mark.parametrize("budget", [7, 22, 157, 4096])
    def test_row_blocks_write_the_bytes_of_one_block(self, tmp_path, monkeypatch, budget):
        monkeypatch.setattr(cli, "_CSV_BLOCK_VALUES", budget)
        specs, cfg, _, _ = resolve_scenario("paper-fig5", {"zone_steps": 20})
        trace = Engine(specs, cfg).run()
        bad_specs, bad_cfg = scenario_from_dict(BAD_MEASUREMENT)
        with pytest.raises(StepError) as info:
            Engine(bad_specs, bad_cfg).run()
        # A whole run, one cut mid-block, one cut at a block edge, the empty
        # partial trace of a run that failed at step 0, and 3 rows of the run
        # with its tasks repeated until one row holds more values than the
        # budget, so that each block is one row.
        reps = budget // 20 + 1
        traces = [trace] + [
            dataclasses.replace(trace, steps=trace.steps[:r], v=trace.v[:r],
                                s=trace.s[:r], u_meas=trace.u_meas[:r],
                                f_obs=trace.f_obs[:r], phi=trace.phi[:r],
                                phi_sq=trace.phi_sq[:r], breach_step=r)
            for r in (13, 14)
        ] + [info.value.trace, dataclasses.replace(
            trace, steps=trace.steps[:3], phi_sq=trace.phi_sq[:3], breach_step=3,
            **{name: np.tile(getattr(trace, name)[:3], reps)
               for name in ("v", "s", "u_meas", "f_obs", "phi")},
        )]
        assert [len(t) for t in traces] == [60, 13, 14, 0, 3]
        assert 5 * traces[-1].v.shape[1] + 2 > budget
        for t in traces:
            write_trace_csv(tmp_path / "blocks.csv", t)
            whole_block_csv(tmp_path / "whole.csv", t)
            blocks = (tmp_path / "blocks.csv").read_bytes()
            assert blocks == (tmp_path / "whole.csv").read_bytes()


def collected_outputs(scenario, overrides, stride):
    """trace.csv and summary.json as a run that holds its trace would write
    them: write_trace_csv of Engine.run, then summarize or the failure."""
    specs, cfg, _, _ = resolve_scenario(scenario, overrides)
    try:
        trace = Engine(specs, cfg).run(stride=stride)
    except StepError as exc:
        status = ("measurement_error" if isinstance(exc, MeasurementError)
                  else "feasibility_breach")
        doc = {"status": status, "step": exc.step, "task": exc.task,
               "value": exc.value, "message": str(exc)}
        return exc.trace, doc
    result = summarize(trace, specs, cfg)
    return trace, {"status": "ok", "zones": [dataclasses.asdict(z) for z in result.zones],
                   "verdicts": result.verdicts}


def overflow_scenario(path):
    """Task 0 measures about 1e307 from step 100 on, which overflows its
    utility filter; its level turns NaN at step 102, mid-chunk."""
    tasks = [{"weight": 1.0,
              "model": {"type": "home_energy", "a": 2.0, "b": 1.0, "c": 2.0,
                        "kappa": 1.0, "h": 0.5, **model},
              "demand_zones": zones}
             for model, zones in (
                 ({"scale": 3e307, "shift": 0.0, "bound_c": 3.0}, [[0, 0.4], [100, 0.9]]),
                 ({"normalize": {"c_target": 2.0}}, [[0, 0.4]]))]
    path.write_text(json.dumps({"tasks": tasks, "engine": {
        "epsilon": 1e-3, "seed": 1, "eta_bar": 0.0, "zeta_bar": 1e-3, "horizon": 103}}))
    return str(path)


class TestStreamedRun:
    """run streams each chunk's rows into trace.csv and the zone statistics,
    and writes the bytes that a run holding its whole trace would."""

    @pytest.mark.parametrize("scenario, overrides, stride, chunk", [
        ("paper-fig5", {"zone_steps": 200}, 1, None),
        ("paper-fig6", {"zone_steps": 300}, 1, None),
        # 42 or 43 records a zone, a stride that divides no zone end.
        ("paper-fig6", {"zone_steps": 300}, 7, None),
        # 38 or 39 records a zone: each is insufficient.
        ("paper-fig6", {"zone_steps": 270}, 7, None),
        # No record at all.
        ("paper-fig5", {"zone_steps": 100}, 1000, None),
        ("mixed_cpu_first.json", {}, 1, None),
        # Zones of 200 steps over chunks of 64: each zone spans several
        # chunks, and the breaks at 200 and 400 fall inside one.
        ("paper-fig5", {"zone_steps": 200}, 1, 64),
        ("paper-fig5", {"zone_steps": 200}, 3, 64),
        ("overflow", {}, 1, None),
        ("overflow", {}, 1, 64),
        ("bad-measurement", {}, 1, None),
    ], ids=["fig5", "fig6", "fig6-stride7", "fig6-short-zones", "no-record", "mixed",
            "chunk64", "chunk64-stride3", "abort-mid-chunk", "abort-chunk64",
            "abort-at-step-0"])
    def test_streamed_outputs_are_the_collected_ones(
        self, tmp_path, monkeypatch, scenario, overrides, stride, chunk
    ):
        if chunk is not None:
            monkeypatch.setattr(dynamics, "_CHUNK_STEPS", chunk)
        if scenario == "mixed_cpu_first.json":
            scenario = str(Path(__file__).parent / scenario)
        elif scenario == "overflow":
            scenario = overflow_scenario(tmp_path / "overflow.json")
        elif scenario == "bad-measurement":
            scenario = str(tmp_path / "bad.json")
            Path(scenario).write_text(json.dumps(BAD_MEASUREMENT))
        argv = [f"--set={k}={v}" for k, v in overrides.items()]
        out = tmp_path / "streamed"
        code = run_cli("run", scenario, "--stride", str(stride), "--out", str(out), *argv)
        trace, doc = collected_outputs(scenario, overrides, stride)
        assert code == {"ok": 0, "measurement_error": 1, "feasibility_breach": 2}[doc["status"]]
        write_trace_csv(tmp_path / "collected.csv", trace)
        assert (out / "trace.csv").read_bytes() == (tmp_path / "collected.csv").read_bytes()
        assert (out / "summary.json").read_text() == (
            json.dumps(cli._jsonable(doc), indent=2) + "\n")
        assert_no_child_left()

    def test_memory_does_not_grow_with_the_horizon(self, tmp_path, monkeypatch):
        # Four tasks, the first switching its demand every 500 steps. Small
        # chunks and CSV blocks keep the parts of the peak that do not
        # depend on the horizon small against the 168 bytes a step that a
        # run holding its records keeps.
        monkeypatch.setattr(dynamics, "_CHUNK_STEPS", 512)
        monkeypatch.setattr(cli, "_CSV_BLOCK_VALUES", 512)
        horizon = 2048
        zones = [[k, 0.4 if k % 1000 else 0.8] for k in range(0, 4 * horizon, 500)]
        task = ONE_TASK["tasks"][0]
        doc = {"tasks": [{**task, "demand_zones": zones}] + [task] * 3,
               "engine": {**ONE_TASK["engine"]}}

        def peak(steps):
            path = tmp_path / f"{steps}.json"
            doc["engine"]["horizon"] = steps
            path.write_text(json.dumps(doc))
            tracemalloc.start()
            try:
                assert run_cli("run", str(path), "--stride", "1",
                               "--out", str(tmp_path / str(steps))) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(horizon), peak(4 * horizon)
        assert long <= 1.5 * short, (short, long)

    def test_a_streamed_trace_is_neither_summarized_nor_written(self, tmp_path):
        specs, cfg, _, _ = resolve_scenario("paper-fig5", {"zone_steps": 20})
        taken = []
        trace = Engine(specs, cfg).run(consumer=lambda lane, rows: taken.append(rows))
        assert sum(len(rows.steps) for rows in taken) == 60
        assert len(trace) == 0 and not trace.held
        message = "the rows of this run went to its consumer; the trace holds none"
        with pytest.raises(ValueError, match=message):
            summarize(trace, specs, cfg)
        with pytest.raises(ValueError, match=message):
            write_trace_csv(tmp_path / "trace.csv", trace)


def assert_no_child_left():
    """Every child process of this one has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def head_csv(tmp_path, trace, rows: int) -> bytes:
    """trace.csv of the first ``rows`` rows of ``trace``."""
    cut = dataclasses.replace(trace, **{name: getattr(trace, name)[:rows] for name in (
        "steps", "v", "s", "u_meas", "f_obs", "phi", "phi_sq")})
    write_trace_csv(tmp_path / "head.csv", cut)
    return (tmp_path / "head.csv").read_bytes()


class TestWriterProcess:
    """run formats trace.csv in a forked writer process; its failures read
    as failures of an in-process writer would, and no exit path leaves a
    process behind."""

    # fig5 over 600 steps in chunks of 64: ten messages to the writer.
    FIG5 = ["run", "paper-fig5", "--set", "zone_steps=200"]

    @pytest.fixture
    def chunks(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_CHUNK_STEPS", 64)

    @pytest.mark.parametrize("at_step", [1, 600], ids=["first-block", "last-block"])
    def test_an_os_error_in_the_writer_is_the_same_error_line(
        self, tmp_path, capsys, monkeypatch, chunks, at_step
    ):
        # On the first block the run still has messages to send, and finds
        # the pipe broken; on the last the writer reports at the end.
        format_rows = cli._format_rows

        def full(block):
            if at_step in block[:, 0]:
                raise OSError(errno.ENOSPC, "No space left on device", "trace.csv")
            return format_rows(block)

        monkeypatch.setattr(cli, "_format_rows", full)
        out = tmp_path / "o"
        assert run_cli(*self.FIG5, "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: [Errno 28] No space left on device: 'trace.csv'\n")
        assert not (out / "summary.json").exists()
        assert_no_child_left()

    def test_an_error_in_the_zone_statistics_keeps_the_whole_messages(
        self, tmp_path, monkeypatch, chunks
    ):
        specs, cfg, _, _ = resolve_scenario("paper-fig5", {"zone_steps": 200})
        expected = head_csv(tmp_path, Engine(specs, cfg).run(), 3 * 64)
        feed, fed = ZoneStats.feed, []

        def failing(self, rows):
            fed.append(len(rows.steps))
            if len(fed) == 3:
                raise RuntimeError("zone statistics failed")
            return feed(self, rows)

        monkeypatch.setattr(ZoneStats, "feed", failing)
        out = tmp_path / "o"
        with pytest.raises(RuntimeError, match="zone statistics failed"):
            run_cli(*self.FIG5, "--out", str(out))
        # The third chunk went to the writer before the zone statistics.
        assert (out / "trace.csv").read_bytes() == expected
        assert_no_child_left()

    def test_an_interrupt_mid_message_writes_nothing_of_it(
        self, tmp_path, monkeypatch, chunks
    ):
        # Blocks of 10 rows: a chunk's message is seven blocks, and the run
        # is interrupted after sending the first block of the third.
        monkeypatch.setattr(cli, "_CSV_BLOCK_VALUES", 220)
        specs, cfg, _, _ = resolve_scenario("paper-fig5", {"zone_steps": 200})
        expected = head_csv(tmp_path, Engine(specs, cfg).run(), 2 * 64)
        stacked, sent = cli._stacked, []

        def interrupted(rows, size):
            sent.append(len(rows.steps))
            blocks = stacked(rows, size)
            if len(sent) == 3:
                yield next(blocks)
                raise KeyboardInterrupt
            yield from blocks

        monkeypatch.setattr(cli, "_stacked", interrupted)
        out = tmp_path / "o"
        with pytest.raises(KeyboardInterrupt):
            run_cli(*self.FIG5, "--out", str(out))
        assert (out / "trace.csv").read_bytes() == expected
        assert_no_child_left()

    def test_the_writer_forks_once_and_echoes_nothing(self, tmp_path, capfd, monkeypatch):
        # Text left in the stdout buffer at the fork, the record count the
        # run prints and the CSV header each appear once: the writer leaves
        # by os._exit and flushes nothing it inherited, and trace.csv was
        # empty when it forked.
        fork, sizes = os.fork, []
        out = tmp_path / "o"

        def watched():
            sizes.append((out / "trace.csv").stat().st_size)
            return fork()

        monkeypatch.setattr(os, "fork", watched)
        with io.TextIOWrapper(open(os.dup(1), "wb")) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            print("unflushed", end="")
            assert run_cli(*self.FIG5, "--out", str(out)) == 0
        assert sizes == [0]
        assert capfd.readouterr().out == f"unflushedwrote 600 records to {out}\n"
        text = (out / "trace.csv").read_text()
        assert text.count("step,") == 1 and text.startswith("step,v_0,")
        assert_no_child_left()

    def test_an_open_error_fails_before_the_fork(self, tmp_path, capsys, monkeypatch):
        def refused():
            raise AssertionError("forked a writer for a file it could not open")

        monkeypatch.setattr(os, "fork", refused)
        out = tmp_path / "o"
        (out / "trace.csv").mkdir(parents=True)
        assert run_cli(*self.FIG5, "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: '{out / 'trace.csv'}'\n")
        assert not (out / "summary.json").exists()

    def test_json_only_runs_fork_no_writer(self, tmp_path, monkeypatch):
        def refused():
            raise AssertionError("a run without csv forked")

        monkeypatch.setattr(os, "fork", refused)
        assert run_cli(*self.FIG5, "--formats", "json", "--out", str(tmp_path)) == 0


class TestVerifyWorker:
    """verify runs its engine lanes in a forked worker while this process
    runs the oracles; its failures read as they did in one process, and no
    exit path leaves a process behind."""

    FIG5 = ["verify", "paper-fig5", "--set", "zone_steps=300"]

    def test_verify_forks_once_and_echoes_nothing(self, tmp_path, capfd, monkeypatch):
        # Text left in the stdout buffer at the fork and the table verify
        # prints each appear once: the worker leaves by os._exit and
        # flushes nothing it inherited.
        fork, forks = os.fork, []

        def watched():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", watched)
        with io.TextIOWrapper(open(os.dup(1), "wb")) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            print("unflushed", end="")
            # 300-step zones are too short for s_optimality to pass.
            assert run_cli(*self.FIG5) == 1
        assert forks == [1]
        out = capfd.readouterr().out
        assert out.startswith("unflushedconfig ") and out.endswith("verify: FAIL\n")
        assert out.count("unflushed") == 1 and out.count("verify:") == 1
        assert list(printed_rows(out.removeprefix("unflushed"))) == [
            "config", "model_assumptions", "feasibility", "fairness_zero_sum",
            "fairness_increment_bounds", "starvation", "balance",
            "fairness_residual", "s_optimality", "ode_tracking", "cross_oracle"]
        assert_no_child_left()

    @pytest.mark.parametrize("argv", [
        ["validate", "paper-fig5"],
        ["verify", "paper-fig5", "--set", "gamma=10000.0"],
    ], ids=["validate", "config-fail"])
    def test_validate_and_a_failing_config_never_fork(self, argv, capsys, monkeypatch):
        def refused():
            raise AssertionError("forked a verify worker")

        monkeypatch.setattr(os, "fork", refused)
        code = run_cli(*argv, *FAST)
        assert printed_rows(capsys.readouterr().out)["config"][0] == (
            "PASS" if code == 0 else "FAIL")

    def test_a_lane_error_is_the_same_error_line(self, tmp_path, capsys):
        argv = [one_task_file(tmp_path, horizon=1e20), "--out", str(tmp_path / "v")]
        assert run_cli("verify", *argv) == 1
        assert capsys.readouterr() == ("", (
            "error: horizon 100000000000000000000 at stride 100000000000000000000 "
            "does not fit in memory: the recurrence windows need 7.2e+16 bytes\n"))
        assert not (tmp_path / "v").exists()
        assert_no_child_left()

    def test_a_lane_exception_is_caused_by_its_traceback_in_the_worker(self, monkeypatch):
        def broken(*args):
            raise IndexError("lane bug")

        monkeypatch.setattr(cli, "summarize", broken)
        with pytest.raises(IndexError, match="lane bug") as info:
            run_cli(*self.FIG5)
        assert isinstance(info.value.__cause__, cli._ChildTraceback)
        assert "in _lane_checks" in str(info.value.__cause__)
        assert_no_child_left()

    def test_a_lane_error_wins_over_a_later_oracle_error(self, tmp_path, capsys, monkeypatch):
        # The oracle half fails only once the worker has sent its error and
        # exited: WNOWAIT waits for that without reaping it.
        def failing(*args, **kwargs):
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
            raise RuntimeError("probe failed")

        monkeypatch.setattr(cli, "probe_limit_points", failing)
        assert run_cli("verify", one_task_file(tmp_path, horizon=1e20)) == 1
        assert "does not fit in memory" in capsys.readouterr().err
        assert_no_child_left()

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_an_oracle_exception_kills_and_reaps_the_worker(self, monkeypatch, exc):
        # The lanes would take a minute; the exception ends verify at once.
        monkeypatch.setattr(cli, "_lane_checks", lambda specs, cfg: time.sleep(60))

        def failing(*args, **kwargs):
            raise exc("probe failed")

        monkeypatch.setattr(cli, "probe_limit_points", failing)
        start = time.monotonic()
        with pytest.raises(exc, match="probe failed"):
            run_cli(*self.FIG5)
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_an_interrupt_while_waiting_kills_and_reaps_the_worker(self, monkeypatch):
        # The interrupt lands while this process waits for the report, or in
        # the oracle half on a slow machine; either way the worker is killed.
        monkeypatch.setattr(cli, "_lane_checks", lambda specs, cfg: time.sleep(60))

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                run_cli(*self.FIG5)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30
        assert_no_child_left()


class TestChild:
    """run's writer and verify's worker are one kind of forked child, and
    each way a child ends reads the same at both."""

    SITES = {"writer": (TestWriterProcess.FIG5, "trace.csv writer"),
             "worker": (TestVerifyWorker.FIG5, "verify worker")}

    @pytest.mark.parametrize("death, line", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
        (lambda: 1 / 0, None),
    ], ids=["exit", "signal", "exception"])
    @pytest.mark.parametrize("site", SITES)
    def test_how_a_child_ends_is_how_the_command_ends(
        self, tmp_path, capsys, monkeypatch, site, death, line
    ):
        # The writer dies at its first block, in the first of ten messages;
        # the worker in place of the lanes.
        monkeypatch.setattr(dynamics, "_CHUNK_STEPS", 64)
        monkeypatch.setattr(cli, "_format_rows", lambda block: death())
        monkeypatch.setattr(cli, "_lane_checks", lambda specs, cfg: death())
        argv, name = self.SITES[site]
        out = tmp_path / "o"
        if line is None:
            with pytest.raises(ZeroDivisionError) as info:
                run_cli(*argv, "--out", str(out))
            # The child's traceback, as text, is the cause.
            assert isinstance(info.value.__cause__, cli._ChildTraceback)
            where = str(info.value.__cause__)
            assert "in <lambda>" in where
            assert where.endswith("ZeroDivisionError: division by zero\n")
        else:
            assert run_cli(*argv, "--out", str(out)) == 1
            assert capsys.readouterr() == ("", f"error: the {name} {line}\n")
        assert not (out / "summary.json").exists() and not (out / "verify.json").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("site", SITES)
    def test_a_failed_fork_is_one_error_line_and_leaves_no_fd(
        self, tmp_path, capsys, monkeypatch, site
    ):
        def refused():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refused)
        argv, _ = self.SITES[site]
        fds = len(os.listdir("/proc/self/fd"))
        assert run_cli(*argv, "--out", str(tmp_path / "o")) == 1
        assert len(os.listdir("/proc/self/fd")) == fds
        assert capsys.readouterr() == (
            "", "error: [Errno 11] Resource temporarily unavailable\n")


def spelled(values) -> bytes:
    """One row of values in "%.17g", the reference the writer must match."""
    return (",".join("%.17g" % x for x in values) + "\n").encode()


def seventeen_digit_ties() -> list[float]:
    """Doubles whose exact decimal value has 18 digits, the last a 5."""
    ties = []
    for e in range(1, 90):
        for m in range(1, 400, 2):
            x = m * 2.0**-e
            digits = "".join(map(str, Decimal(x).as_tuple().digits)).rstrip("0")
            if len(digits) == 18 and digits.endswith("5"):
                ties.append(x)
    return ties


class TestTraceCsvSpelling:
    """The writer's bytes are those of "%.17g" for every double."""

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    def test_any_doubles(self, values):
        x = np.array(values)
        assert cli._format_rows(x[None, :]) == spelled(values)
        assert cli._format_rows(x[:, None]) == b"".join(spelled([v]) for v in values)

    def test_edges_ties_and_integers(self):
        powers = [10.0**e for e in range(-330, 309)]
        bounds = [1e-29, 1e-5, 1e-4, 1e16, 1e17]
        ties = seventeen_digit_ties()
        assert len(ties) > 100
        near = np.array(powers + bounds + ties)
        x = np.concatenate([
            near, np.nextafter(near, -np.inf), np.nextafter(near, np.inf),
            np.arange(120001.0), [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324],
        ])
        x = np.concatenate([x, -x])
        assert cli._format_rows(x[None, :]) == spelled(x.tolist())

    @pytest.mark.parametrize("off", [-1.0, 1.0])
    def test_a_log10_off_by_one_changes_no_byte(self, monkeypatch, off):
        # The range test on the exact n, not log10, decides the exponent.
        x = np.concatenate([10.0 ** np.arange(-29, 17), np.linspace(-3.0, 7.0, 101)])
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + off)
        assert cli._format_rows(x[None, :]) == spelled(x.tolist())

    def test_nonzero_fig6_values_take_the_fast_route(self):
        specs, cfg, _, _ = resolve_scenario("paper-fig6", {"zone_steps": 200})
        trace = Engine(specs, cfg).run()
        x = np.column_stack([
            trace.steps.astype(float), trace.v, trace.s, trace.u_meas,
            trace.f_obs, trace.phi, trace.phi_sq,
        ]).ravel()
        _, _, fast = cli._digits17(x)
        np.testing.assert_array_equal(fast, (x != 0) & np.isfinite(x))


class TestModelSerialization:
    HOME = HomeEnergyModel(a=2.0, b=1.0, c=2.0, kappa=1.0, h=0.5)
    CPU = CpuBandwidthModel(a=0.5, b=3.0, h=1.2, theta=0.7, v_floor=0.02)

    @pytest.mark.parametrize("model", [
        HOME,
        CPU,
        AffineNormalizer.fit(HOME, (0.2, 0.8), c_target=3.0),
        AffineNormalizer.fit(CPU, (0.0, 1.0), c_target=2.0),
    ], ids=["home", "cpu", "home-fit", "cpu-fit"])
    def test_round_trip(self, model):
        doc = json.loads(json.dumps(model_to_dict(model)))
        assert model_from_dict(doc, (0.0, 1.0)) == model

    def test_raw_bound_c_survives_scenario_round_trip(self):
        raw = {"type": "home_energy", "a": 1.0, "b": 0.5, "c": 1.5,
               "kappa": 0.5, "h": 0.5, "bound_c": 50.0}
        doc = {"tasks": [{"weight": 1.0, "model": raw, "demand_zones": [[0, 0.4]]}],
               "engine": {"epsilon": 5e-4, "horizon": 10, "seed": 1}}
        specs, cfg = scenario_from_dict(doc)
        assert specs[0].utility.bound_c == 50.0
        written = json.loads(json.dumps(scenario_to_dict(specs, cfg)))
        assert written["tasks"][0]["model"] == raw
        again, _ = scenario_from_dict(written)
        assert again[0].utility == specs[0].utility

    def test_wrapped_model_keeps_only_the_wrapper_ceiling(self):
        inner = HomeEnergyModel(a=2.0, b=1.0, c=2.0, kappa=1.0, h=0.5, bound_c=50.0)
        model = AffineNormalizer(inner=inner, scale=0.5, shift=1.0, bound_c=4.0)
        doc = json.loads(json.dumps(model_to_dict(model)))
        assert doc["bound_c"] == 4.0
        back = model_from_dict(doc, (0.0, 1.0))
        assert back.bound_c == 4.0
        assert back.inner == self.HOME
        s, v, d = np.meshgrid(*[np.linspace(0.0, 1.0, 5)] * 3)
        np.testing.assert_array_equal(back.eval(s, v, d), model.eval(s, v, d))

    def test_nested_wrappers_fold_into_one(self):
        model = AffineNormalizer(
            inner=AffineNormalizer.fit(self.HOME, (0.2, 0.8)),
            scale=2.0, shift=0.5, bound_c=10.0,
        )
        doc = json.loads(json.dumps(model_to_dict(model)))
        back = model_from_dict(doc, (0.0, 1.0))
        assert back.inner == self.HOME and back.bound_c == 10.0
        # The wrapper folded into one affine of the raw model when it was
        # built, so it evaluates what ModelBank and the replay do, bit for bit.
        assert model.inner == self.HOME
        s, v, d = (x[..., None] for x in np.meshgrid(*[np.linspace(0.0, 1.0, 5)] * 3))
        bank = ModelBank([model]).eval(s, v, d)
        np.testing.assert_array_equal(model.eval(s, v, d), bank)
        np.testing.assert_array_equal(back.eval(s, v, d), bank)

    def test_unknown_type_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown model type"):
            model_from_dict({"type": "nonsense", "a": 1.0}, (0.0, 1.0))


class TestValidateCommand:
    def test_builtin_defaults_are_valid(self, capsys):
        assert run_cli("validate", "paper-fig5", *FAST) == 0
        rows = printed_rows(capsys.readouterr().out)
        assert rows["config"][0] == "PASS"
        assert rows["model_assumptions"] == ("PASS", "4 task model(s) hold")

    def test_invalid_model_parameter_fails(self, tmp_path, capsys):
        scenario = {
            "tasks": [{
                "weight": 1.0,
                "model": {"type": "home_energy", "a": -2.0, "b": 1.0,
                          "c": 2.0, "kappa": 1.0, "h": 0.5},
                "demand_zones": [[0, 0.4]],
            }],
            "engine": {"epsilon": 5e-4, "horizon": 10, "seed": 1},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        assert run_cli("validate", str(path)) == 1

    def test_unstable_filter_condition_reported(self, capsys):
        assert run_cli("validate", "paper-fig5", "--set", "gamma=10000.0",
                       *FAST) == 1
        assert "step condition" in capsys.readouterr().out

    def test_zone_steps_on_scenario_file_is_config_error(self, tmp_path, capsys):
        scenario = {
            "tasks": [{
                "weight": 1.0,
                "model": {"type": "home_energy", "a": 2.0, "b": 1.0,
                          "c": 2.0, "kappa": 1.0, "h": 0.5,
                          "normalize": {"c_target": 2.0}},
                "demand_zones": [[0, 0.4]],
            }],
            "engine": {"epsilon": 5e-4, "horizon": 10, "seed": 1},
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(scenario))
        assert run_cli("validate", str(path)) == 0
        capsys.readouterr()
        assert run_cli("validate", str(path), "--set", "zone_steps=5") == 1
        assert "zone_steps" in capsys.readouterr().err

    def test_scaled_model_without_bound_is_config_error(self, tmp_path, capsys):
        scenario = {
            "tasks": [{
                "weight": 1.0,
                "model": {"type": "home_energy", "a": 2.0, "b": 1.0,
                          "c": 2.0, "kappa": 1.0, "h": 0.5,
                          "scale": 0.5, "shift": 1.0},
                "demand_zones": [[0, 0.4]],
            }],
            "engine": {"epsilon": 5e-4, "horizon": 10, "seed": 1},
        }
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(scenario))
        assert run_cli("validate", str(path)) == 1
        assert "bound_c" in capsys.readouterr().err

    def test_uncertified_bounds_fail_model_check(self, tmp_path, capsys):
        # Raw model without normalization dips below the unit floor.
        scenario = {
            "tasks": [{
                "weight": 1.0,
                "model": {"type": "home_energy", "a": 2.0, "b": 1.0,
                          "c": 0.1, "kappa": 0.1, "h": 1.0},
                "demand_zones": [[0, 0.5]],
            }],
            "engine": {"epsilon": 5e-4, "horizon": 10, "seed": 1},
        }
        path = tmp_path / "raw.json"
        path.write_text(json.dumps(scenario))
        assert run_cli("validate", str(path)) == 1
        status, detail = printed_rows(capsys.readouterr().out)["model_assumptions"]
        assert status == "FAIL"
        assert detail.startswith("task 0: {'check': 'bounds'")

    @pytest.mark.parametrize("case", ["failing-model", "failing-config"])
    def test_validate_prints_the_rows_verify_starts_with(self, case, tmp_path, capsys):
        if case == "failing-model":
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(BAD_MEASUREMENT))
            argv = [str(path)]
            expected = {"config": "PASS", "model_assumptions": "FAIL"}
        else:
            argv = ["paper-fig5", "--set", "gamma=10000.0", *FAST]
            expected = {"config": "FAIL", "model_assumptions": "PASS"}
        assert run_cli("validate", *argv) == 1
        validated = printed_rows(capsys.readouterr().out)
        assert {name: row[0] for name, row in validated.items()} == expected
        assert run_cli("verify", *argv, "--out", str(tmp_path / "v")) == 1
        checks = {c["name"]: c for c in read_json(tmp_path / "v" / "verify.json")["checks"]}
        # A failing config stops verify after its first row.
        shared = [name for name in expected if name in checks]
        assert shared == (["config"] if case == "failing-config" else list(expected))
        for name in shared:
            status = {True: "PASS", False: "FAIL"}[checks[name]["pass"]]
            assert validated[name] == (status, checks[name]["detail"])


ONE_TASK = {
    "tasks": [{
        "weight": 1.0,
        "model": {"type": "home_energy", "a": 2.0, "b": 1.0, "c": 2.0,
                  "kappa": 1.0, "h": 0.5, "normalize": {"c_target": 2.0}},
        "demand_zones": [[0, 0.4]],
    }],
    "engine": {"epsilon": 5e-4, "horizon": 10, "seed": 1},
}


def scaled(doc, **keys):
    """Give task 0 of ``doc`` an explicit scale wrapper in place of its
    normalize, then the model ``keys``."""
    model = doc["tasks"][0]["model"]
    del model["normalize"]
    model.update({"scale": 0.5, "bound_c": 3.0, **keys})


def one_task_file(tmp_path, manifest=False, **engine):
    """ONE_TASK with ``engine`` merged in, as a scenario or a manifest file."""
    doc = {**ONE_TASK, "engine": {**ONE_TASK["engine"], **engine}}
    path = tmp_path / ("manifest.json" if manifest else "one.json")
    path.write_text(json.dumps({"scenario": doc} if manifest else doc))
    return str(path)


class TestEngineSettings:
    """Builtins, scenario files and manifests share one engine-config reader."""

    @pytest.mark.parametrize("source, argv, message", [
        ({"horizon": 1.5}, [], "horizon must be an integer, got 1.5"),
        ({}, ["--set", "seed=2.7"], "seed must be an integer, got 2.7"),
        ("paper-fig6", ["--set", "seed=2.7"], "seed must be an integer, got 2.7"),
        ("paper-fig5", ["--set", "zone_steps=1.5"],
         "zone_steps must be an integer, got 1.5"),
    ], ids=["file-horizon", "file-seed", "fig6-seed", "fig5-zone_steps"])
    def test_non_integer_is_config_error_naming_key_and_value(
        self, tmp_path, capsys, source, argv, message
    ):
        # A dict source is the engine section of a scenario file.
        if isinstance(source, dict):
            source = one_task_file(tmp_path, **source)
        assert run_cli("validate", source, *argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integral_floats_read_as_ints(self, tmp_path):
        _, cfg, doc, _ = resolve_scenario(one_task_file(tmp_path, horizon=1.2e5), {})
        assert cfg.horizon == 120_000 and type(cfg.horizon) is int
        assert doc["engine"]["horizon"] == 120_000
        _, cfg, _, _ = resolve_scenario("paper-fig5", {"horizon": 1e4, "seed": 3.0})
        assert (cfg.horizon, cfg.seed) == (10_000, 3)
        assert type(cfg.horizon) is int and type(cfg.seed) is int
        assert run_cli("validate", "paper-fig5", "--set", "horizon=1e4", *FAST) == 0

    def test_unknown_key_gives_one_message_on_every_path(self, tmp_path, capsys):
        errors = []
        for argv in (
            ["paper-fig5", "--set", "nonsense=1"],
            [one_task_file(tmp_path, nonsense=1)],
            [one_task_file(tmp_path, manifest=True, nonsense=1)],
        ):
            assert run_cli("validate", *argv) == 1
            errors.append(capsys.readouterr().err)
        assert errors == ["error: unknown engine key(s): ['nonsense']\n"] * 3


class TestOutsideValues:
    """Run options, zone starts, document shapes, model wrapper keys and
    non-finite numbers from outside are ConfigErrors that name the key or
    task and the value."""

    @pytest.mark.parametrize("extras, argv, message", [
        ({"stride": "x"}, [], "stride must be an integer, got 'x'"),
        ({"stride": 2.7}, [], "stride must be an integer, got 2.7"),
        ({"stride": 0}, [], "stride must be >= 1, got 0"),
        ({"formats": "json"}, [], "formats must be a list of names, got 'json'"),
        ({"formats": [1]}, [], "formats must be a list of names, got [1]"),
        ({"strides": 2}, [], "unknown manifest key(s): ['strides']"),
        ({"stride": 3}, ["--stride", "0"], "stride must be >= 1, got 0"),
        ({}, ["--formats", "json,cvs"],
         "unknown output format(s) ['cvs']; allowed: csv, json"),
        # A flag does not rescue a bad manifest value.
        ({"stride": "x"}, ["--stride", "2"], "stride must be an integer, got 'x'"),
    ], ids=["stride-str", "stride-float", "stride-zero", "formats-str",
            "formats-int", "unknown-key", "flag-stride", "flag-formats",
            "flag-over-bad-stride"])
    def test_bad_run_option_is_config_error(self, tmp_path, capsys, extras, argv, message):
        path = one_task_file(tmp_path, manifest=True)
        manifest = {**read_json(tmp_path / "manifest.json"), **extras}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "o"
        assert run_cli("run", path, *argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "verify", "validate"])
    def test_bad_manifest_is_rejected_by_every_command(self, command, tmp_path, capsys):
        path = one_task_file(tmp_path, manifest=True)
        manifest = {**read_json(tmp_path / "manifest.json"), "bogus": 1, "stride": 0}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "o"
        argv = [] if command == "validate" else ["--out", str(out)]
        assert run_cli(command, path, *argv) == 1
        assert capsys.readouterr() == ("", "error: unknown manifest key(s): ['bogus']\n")
        assert not out.exists()

    def test_integral_float_stride_reads_as_int(self, tmp_path):
        path = one_task_file(tmp_path, manifest=True)
        manifest = {**read_json(tmp_path / "manifest.json"), "stride": 2.0}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("run", path, "--out", str(tmp_path / "o")) == 0
        assert read_json(tmp_path / "o" / "manifest.json")["stride"] == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["tasks"][0].update(demand_zones=[[0, 0.4], [50.7, 0.5]]),
         "tasks[0]: demand zone start must be an integer, got 50.7"),
        (lambda d: d["tasks"][0]["model"].update(a=float("nan")),
         "tasks[0]: HomeEnergyModel.a must be a finite number, got nan"),
        (lambda d: d["tasks"][0]["model"].update(bound_c=float("inf")),
         "tasks[0]: HomeEnergyModel.bound_c must be a finite number, got inf"),
        (lambda d: d["tasks"][0]["model"].update(normalize={"c_target": float("inf")}),
         "tasks[0]: normalize.c_target must be a finite number, got inf"),
        (lambda d: d["tasks"][0]["model"].update(normalize={"c_target": float("nan")}),
         "tasks[0]: normalize.c_target must be a finite number, got nan"),
        (lambda d: d["tasks"][0]["model"].update(normalize={"c_target": "3"}),
         "tasks[0]: normalize.c_target must be a finite number, got '3'"),
        (lambda d: scaled(d, scale="0.5"),
         "tasks[0]: scale must be a finite number, got '0.5'"),
        (lambda d: scaled(d, scale=True),
         "tasks[0]: scale must be a finite number, got True"),
        (lambda d: scaled(d, shift="0"),
         "tasks[0]: shift must be a finite number, got '0'"),
        (lambda d: scaled(d, bound_c="3"),
         "tasks[0]: bound_c must be a finite number, got '3'"),
        (lambda d: d["tasks"][0].update(weight="0.5"),
         "tasks[0]: weight must be a finite number, got '0.5'"),
        (lambda d: d["tasks"][0].update(weight=True),
         "tasks[0]: weight must be a finite number, got True"),
        (lambda d: d["tasks"][0].update(weight=1.5),
         "tasks[0]: weight must be in (0, 1], got 1.5"),
        (lambda d: d["tasks"][0].update(demand_zones=[[0, "0.4"]]),
         "tasks[0]: demand value must be a finite number, got '0.4'"),
        (lambda d: d["tasks"][0].update(demand_zones=[[0, True]]),
         "tasks[0]: demand value must be a finite number, got True"),
        (lambda d: d["engine"].update(v_init=[float("nan")]),
         "v_init must be a finite number, got nan"),
        (lambda d: d.update(engine=[]), "engine must be a JSON object, got []"),
        (lambda d: d.update(tasks={}), "tasks must be a JSON array, got {}"),
        *((lambda d, value=value: d["tasks"][0]["model"].update(normalize=value),
           f"tasks[0]: normalize must be true or a JSON object, got {value!r}")
          for value in (False, 0, "", [])),
        (lambda d: d["tasks"][0]["model"].update(normalize={"c_tagret": 3.0}),
         "tasks[0]: normalize takes only c_target, got {'c_tagret': 3.0}"),
        (lambda d: d["tasks"][0]["model"].update(scale=0.5, bound_c=3.0),
         "tasks[0]: normalize cannot be given with scale, got {'c_target': 2.0}"),
        (lambda d: d["tasks"][0]["model"].update(shift=0.5),
         "tasks[0]: shift needs scale, got 0.5"),
        (lambda d: d["tasks"][0].pop("weight"), "tasks[0]: missing key 'weight'"),
        (lambda d: d["tasks"][0].update(demand_zones=[[0]]),
         "tasks[0]: demand zone 0 must be a [start, value] pair, got [0]"),
        (lambda d: d.update(tasks=[5]), "tasks[0] must be a JSON object, got 5"),
        (lambda d: d["tasks"][0].update(demand_zones=5),
         "tasks[0]: demand_zones must be a JSON array, got 5"),
        (lambda d: d["tasks"][0].update(model=[1]),
         "tasks[0]: model must be a JSON object, got [1]"),
    ], ids=["zone-start", "nan-param", "inf-bound", "inf-target", "nan-target",
            "str-target", "str-scale", "bool-scale", "str-shift", "str-bound", "str-weight",
            "bool-weight", "range-weight", "str-demand", "bool-demand", "nan-v_init",
            "engine-list", "tasks-object", "normalize-false", "normalize-zero",
            "normalize-empty-str", "normalize-list", "normalize-typo",
            "normalize-and-scale", "shift-alone", "missing-weight", "short-zone",
            "task-int", "zones-int", "model-list"])
    def test_bad_scenario_value_is_config_error(self, tmp_path, capsys, edit, message):
        doc = json.loads(json.dumps(ONE_TASK))
        edit(doc)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)],
                     ["run", str(path), "--out", str(tmp_path / "o")]):
            assert run_cli(*argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["run", "verify", "validate"])
    def test_empty_task_list_is_config_error(self, command, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({**ONE_TASK, "tasks": []}))
        out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
        assert run_cli(command, str(path), *out) == 1
        assert capsys.readouterr().err == "error: tasks must hold at least one task, got []\n"

    def test_top_level_list_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text("[]")
        assert run_cli("validate", str(path)) == 1
        assert capsys.readouterr().err == f"error: {path} must be a JSON object, got []\n"

    @pytest.mark.parametrize("setting, message", [
        ("epsilon=NaN", "epsilon must be a finite number, got nan"),
        ("gamma=Infinity", "gamma must be a finite number, got inf"),
        ("zeta_bar=-Infinity", "zeta_bar must be a finite number, got -inf"),
        ("eta_bar=true", "eta_bar must be a finite number, got True"),
        ("engine.seed=1", "unknown engine key(s): ['engine.seed']"),
        ("epsilon=5e-324", "the recurrence window 5 / (epsilon * lam_min / c_bar) "
                           "overflows at epsilon = 5e-324, lam_min = 1.0, c_bar = 4.0"),
    ])
    def test_bad_set_value_is_config_error(self, tmp_path, capsys, setting, message):
        assert run_cli("run", "paper-fig5", "--set", setting, *FAST,
                       "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_negative_seed_of_the_random_draw_is_config_error(self, tmp_path, capsys):
        assert run_cli("validate", "paper-fig6", "--seed", "-1", *FAST) == 1
        assert capsys.readouterr().err == "error: seed must lie in [0, 2**64), got -1\n"

    @pytest.mark.parametrize("command", ["run", "verify", "validate"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_config_error(self, command, seed, tmp_path, capsys):
        out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
        assert run_cli(command, "paper-fig5", "--seed", str(seed), *FAST, *out) == 1
        assert capsys.readouterr().err == f"error: seed must lie in [0, 2**64), got {seed}\n"

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_zone_start_past_int64_is_config_error(self, command, tmp_path, capsys):
        out = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert run_cli(command, "paper-fig5", "--set", "zone_steps=1e20", *out) == 1
        assert capsys.readouterr().err == (
            "error: demand zone starts must be below 2**63, got 200000000000000000000\n"
        )

    # A run streams its rows, so it holds no records (see TestStreamingRun
    # for a run that does); the ledger's windows and the zone statistics'
    # one zone of rows are what a horizon can make too large. At epsilon
    # 1e-15 the one-task file has a few windows of 1e16 steps.
    @pytest.mark.parametrize("scenario, horizon, stride, engine, what", [
        ("paper-fig5", 3 * 10**17, 1, {}, "recurrence windows need 4.32e+14 bytes"),
        ("file", 10**20, 1, {"epsilon": 1e-15}, "zone statistics need 2.2e+21 bytes"),
        ("file", 10**20, 10**11, {}, "recurrence windows need 7.2e+16 bytes"),
    ])
    def test_horizon_too_large_to_allocate_is_config_error(
        self, scenario, horizon, stride, engine, what, tmp_path, capsys
    ):
        # Each allocation exceeds the address space or numpy's largest
        # dimension, so it fails without touching memory.
        if scenario == "file":
            argv = [one_task_file(tmp_path, horizon=float(horizon), **engine)]
        else:
            argv = [scenario, "--set", f"zone_steps={horizon // 3:.0e}"]
        assert run_cli("run", *argv, "--stride", str(stride),
                       "--out", str(tmp_path / "r")) == 1
        assert capsys.readouterr().err == (
            f"error: horizon {horizon} at stride {stride} does not fit in "
            f"memory: the {what}\n"
        )


class TestVerifyCommand:
    def test_prints_table_and_reports_json(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run_cli("verify", "paper-fig5", "--out", str(out),
                       "--set", "zone_steps=300")
        captured = capsys.readouterr().out
        for name in ("config", "feasibility", "fairness_zero_sum",
                     "starvation", "balance", "fairness_residual",
                     "s_optimality", "ode_tracking", "cross_oracle"):
            assert name in captured
        report = read_json(out / "verify.json")
        assert {c["name"] for c in report["checks"]} >= {"config", "feasibility"}
        assert report["all_pass"] == (code == 0)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["model_assumptions"]["pass"] is True
        assert checks["model_assumptions"]["detail"] == "4 task model(s) hold"

    def test_lanes_give_the_rows_of_separate_runs(self, tmp_path):
        out = tmp_path / "v"
        run_cli("verify", "paper-fig5", "--out", str(out), "--set", "zone_steps=300")
        rows = {c["name"]: c for c in read_json(out / "verify.json")["checks"]}
        specs, cfg, _, _ = resolve_scenario("paper-fig5", {"zone_steps": 300})
        quiet = dataclasses.replace(cfg, eta_bar=0.0, zeta_bar=1e-4)
        expected = {}
        for label, run_cfg, freeze, names in (
            ("", cfg, False, ("feasibility", "fairness_zero_sum",
                              "fairness_increment_bounds", "starvation", "balance")),
            ("frozen-level run: ", cfg, True, ("fairness_residual",)),
            ("noise-free regime: ", quiet, False, ("s_optimality",)),
        ):
            trace = Engine(specs, run_cfg).run(stride=1, freeze_levels=freeze)
            verdicts = summarize(trace, specs, run_cfg).verdicts
            for name in names:
                expected[name] = {"name": name, "pass": verdicts[name]["pass"],
                                  "detail": label + verdicts[name]["detail"]}
        assert {name: rows[name] for name in expected} == expected
        # The rows verify's worker sends back are those computed in process.
        assert cli._lane_checks(specs, cfg) == list(expected.values())

    def test_fig5_ode_tracking_passes_with_moving_shares(self):
        from fairshare.scenario import build_identical_four

        specs, cfg = build_identical_four()
        ok, detail = _ode_tracking(specs, cfg)
        assert ok is True
        assert float(re.search(r"gap (\S+)", detail).group(1)) > 0.0

    def test_measurement_error_fails_checks_and_writes_report(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(BAD_MEASUREMENT))
        out = tmp_path / "v"
        assert run_cli("verify", str(path), "--out", str(out)) == 1
        checks = {c["name"]: c for c in read_json(out / "verify.json")["checks"]}
        for name in ("feasibility", "starvation", "fairness_residual", "s_optimality"):
            assert checks[name]["pass"] is False
            assert "MeasurementError: step 0, task 1" in checks[name]["detail"]

    def test_uncertified_models_fail_assumptions_and_oracles(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(BAD_MEASUREMENT))
        out = tmp_path / "v"
        assert run_cli("verify", str(path), "--out", str(out)) == 1
        checks = {c["name"]: c for c in read_json(out / "verify.json")["checks"]}
        assert checks["model_assumptions"]["pass"] is False
        detail = checks["model_assumptions"]["detail"]
        assert detail.startswith("task 0: {'check': 'bounds'")
        assert "task 1: " in detail
        # Some probe start has a share below 0.075, where the utility at
        # the maximizing level is negative.
        assert checks["cross_oracle"]["pass"] is False
        assert re.search(r"OracleError: t=\S+, task \d: utility not finite",
                         checks["cross_oracle"]["detail"])

    @pytest.mark.parametrize("argv", [
        ["verify", "paper-fig5", "--stride", "10"],
        ["verify", "paper-fig5", "--formats", "bogus"],
        ["validate", "paper-fig5", "--out", "x"],
    ])
    def test_options_of_other_commands_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, *FAST)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify", "validate"])
    def test_zero_horizon_is_config_error(self, command, tmp_path, capsys):
        # A run of no step has nothing to judge, so no command starts one.
        out = tmp_path / "o"
        argv = [] if command == "validate" else ["--out", str(out)]
        assert run_cli(command, "paper-fig5", "--set", "horizon=0", *argv) == 1
        assert capsys.readouterr() == ("", "error: horizon must be >= 1, got 0\n")
        assert not out.exists()

    def test_config_violation_fails_fast(self, capsys):
        assert run_cli("verify", "paper-fig5", "--set", "epsilon=0.1",
                       *FAST) == 1
        out = capsys.readouterr().out
        assert "config" in out and "FAIL" in out

    def test_single_task_balance_is_vacuous_pass(self, tmp_path, capsys):
        scenario = {
            "tasks": [{
                "weight": 1.0,
                "model": {"type": "home_energy", "a": 2.0, "b": 1.0,
                          "c": 2.0, "kappa": 1.0, "h": 0.5,
                          "normalize": {"c_target": 2.0}},
                "demand_zones": [[0, 0.4]],
            }],
            "engine": {"epsilon": 5e-4, "mu_exponent": 0.05, "gamma": 100.0,
                       "eta_bar": 0.001, "zeta_bar": 0.001,
                       "horizon": 3000, "seed": 1},
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(scenario))
        run_cli("verify", str(path))
        out = capsys.readouterr().out
        balance_line = next(l for l in out.splitlines() if l.startswith("balance"))
        assert "SKIP" in balance_line and "vacuous" in balance_line
