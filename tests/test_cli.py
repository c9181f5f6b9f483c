"""Command-line interface: outputs, exit codes, reproducibility."""
from __future__ import annotations

import json
import re

import numpy as np

from fairshare.cli import _ode_tracking, main

FAST = ["--set", "zone_steps=400"]


def run_cli(*argv) -> int:
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


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
        trace = fs.run(specs, cfg)
        assert np.array_equal(data[:, 0], trace.steps.astype(float))
        assert np.array_equal(data[:, 1:5], trace.v)
        assert np.array_equal(data[:, 9:13], trace.u_meas)
        assert np.array_equal(data[:, 21], trace.phi_sq)

    def test_stride_thins_rows(self, tmp_path):
        out = tmp_path / "o"
        run_cli("run", "paper-fig5", "--out", str(out), "--stride", "100", *FAST)
        n_rows = len((out / "trace.csv").read_text().splitlines()) - 1
        assert n_rows == 1200 // 100

    def test_manifest_rerun_is_bit_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "paper-fig5", "--out", str(out_a), "--stride", "3", *FAST)
        run_cli("run", str(out_a / "manifest.json"), "--out", str(out_b))
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    def test_unreadable_scenario_is_config_error(self, tmp_path, capsys):
        assert run_cli("run", "no-such-scenario", "--out", str(tmp_path)) == 1
        assert "no-such-scenario" in capsys.readouterr().err

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


class TestValidateCommand:
    def test_builtin_defaults_are_valid(self, capsys):
        assert run_cli("validate", "paper-fig5", *FAST) == 0
        out = capsys.readouterr().out
        assert "config OK" in out
        assert "model OK" in out

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
        assert "FAILED" in capsys.readouterr().out


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

    def test_fig5_ode_tracking_passes_with_moving_shares(self):
        from fairshare.scenario import build_identical_four

        specs, cfg = build_identical_four()
        d0 = np.array([t.demand.at(0) for t in specs])
        ok, detail = _ode_tracking(specs, cfg, d0)
        assert ok is True
        assert float(re.search(r"gap (\S+)", detail).group(1)) > 0.0

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
