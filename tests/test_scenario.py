"""Scenario builders and summary statistics."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import fairshare as fs
from fairshare.core import demand_table
from fairshare.dynamics import recurrence_window
from fairshare.scenario import (
    ZoneStats,
    build_identical_four,
    build_random,
    summarize,
)
from fairshare.utility import ModelBank, validate_assumptions


class TestBuildIdenticalFour:
    def test_reference_parameters(self):
        specs, cfg = build_identical_four()
        assert len(specs) == 4
        assert all(t.weight == 1.0 for t in specs)
        assert cfg.epsilon == 5e-4
        assert cfg.mu_exponent == pytest.approx(1.0 / 20.0)
        assert cfg.eta_bar == 1e-3 and cfg.zeta_bar == 1e-3

    def test_middle_zone_doubles_demand_for_first_half(self):
        specs, cfg = build_identical_four({"zone_steps": 100})
        for t in specs[:2]:
            assert t.demand.at(150) == 2.0 * t.demand.at(0)
            assert t.demand.at(250) == t.demand.at(0)
        for t in specs[2:]:
            assert t.demand.at(150) == t.demand.at(0)

    def test_models_pass_assumption_checks(self):
        specs, _ = build_identical_four()
        for t in specs:
            assert validate_assumptions(t.utility, t.demand.span()) is None

    def test_overrides_apply_and_unknown_keys_rejected(self):
        _, cfg = build_identical_four({"eta_bar": 0.0, "seed": 99})
        assert cfg.eta_bar == 0.0 and cfg.seed == 99
        with pytest.raises(fs.ConfigError):
            build_identical_four({"nonsense": 1})


class TestBuildRandom:
    def test_same_seed_same_specs(self):
        a, cfg_a = build_random(10, seed=5, cfg_overrides={"zone_steps": 50})
        b, cfg_b = build_random(10, seed=5, cfg_overrides={"zone_steps": 50})
        assert cfg_a == cfg_b
        for ta, tb in zip(a, b):
            assert ta.weight == tb.weight
            assert ta.demand == tb.demand
            assert ta.utility.scale == tb.utility.scale

    def test_every_generated_model_validates(self):
        specs, _ = build_random(30, seed=30, cfg_overrides={"zone_steps": 50})
        assert len(specs) == 30
        for t in specs:
            assert 0.2 <= t.weight <= 1.0
            assert validate_assumptions(t.utility, t.demand.span()) is None

    def test_mixed_models_supported(self):
        specs, _ = build_random(
            8, seed=2, model_mix=("home_energy", "cpu_bandwidth"),
            cfg_overrides={"zone_steps": 50},
        )
        kinds = {type(t.utility.inner).__name__ for t in specs}
        assert "CpuBandwidthModel" in kinds

    @pytest.mark.parametrize("zone_steps", [0, -5])
    def test_nonpositive_zone_steps_is_config_error(self, zone_steps):
        with pytest.raises(fs.ConfigError, match="zone_steps"):
            build_random(4, seed=1, cfg_overrides={"zone_steps": zone_steps})

    def test_zone_protocol_applies_to_first_half(self):
        specs, _ = build_random(6, seed=4, cfg_overrides={"zone_steps": 100})
        for t in specs[:3]:
            assert t.demand.at(150) == pytest.approx(2.0 * t.demand.at(0))
        for t in specs[3:]:
            assert len(t.demand.zones) == 1


@pytest.fixture(scope="module")
def small_run():
    specs, cfg = build_identical_four({"zone_steps": 1500})
    trace = fs.Engine(specs, cfg).run()
    return specs, cfg, trace


class TestSummarize:
    def test_zone_tail_statistics(self, small_run):
        specs, cfg, trace = small_run
        result = summarize(trace, specs, cfg)
        assert len(result.zones) == 3
        z1 = result.zones[0]
        assert not z1.insufficient
        assert np.abs(np.asarray(z1.v_mean) - 0.25).max() <= 0.02
        assert result.zones[2].complete

    def test_verdicts_on_clean_run(self, small_run):
        specs, cfg, trace = small_run
        result = summarize(trace, specs, cfg)
        assert result.verdicts["feasibility"]["pass"] is True
        assert result.verdicts["fairness_zero_sum"]["pass"] is True
        assert result.verdicts["fairness_increment_bounds"]["pass"] is True
        # Too short for a full recurrence window: skipped, not failed.
        assert result.verdicts["starvation"]["pass"] is None

    def test_zone_determinism(self, small_run):
        specs, cfg, _ = small_run
        r1 = summarize(fs.Engine(specs, cfg).run(), specs, cfg)
        r2 = summarize(fs.Engine(specs, cfg).run(), specs, cfg)
        for a, b in zip(r1.zones, r2.zones):
            assert np.array_equal(a.v_mean, b.v_mean)
            assert a.adapt_steps == b.adapt_steps

    def test_adaptation_time_is_finite_after_switch(self, small_run):
        specs, cfg, trace = small_run
        result = summarize(trace, specs, cfg)
        for z in result.zones:
            assert z.adapt_steps is not None
            assert z.adapt_steps < z.end - z.start

    def test_tiny_zone_marked_insufficient(self):
        specs, cfg = build_identical_four({"zone_steps": 10})
        trace = fs.Engine(specs, cfg).run()
        result = summarize(trace, specs, cfg)
        assert all(z.insufficient for z in result.zones)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zones_end_at_the_horizon(self):
        # The second zone of task 0 starts after the horizon of 120 steps.
        model = fs.AffineNormalizer.fit(
            fs.HomeEnergyModel(a=2.0, b=1.0, c=2.0, kappa=1.0, h=1.0),
            demand_range=(0.4, 0.8), c_target=4.0,
        )
        specs = [
            fs.TaskSpec(weight=1.0, utility=model,
                        demand=fs.DemandSchedule(((0, 0.4), (300, 0.8)))),
            fs.TaskSpec(weight=1.0, utility=model,
                        demand=fs.DemandSchedule.constant(0.4)),
        ]
        _, cfg = build_identical_four({"horizon": 120})
        result = summarize(fs.Engine(specs, cfg).run(), specs, cfg)
        assert [(z.start, z.end) for z in result.zones] == [(0, 120)]
        (zone,) = result.zones
        assert zone.n_records == 120 and not zone.insufficient
        for stat in (zone.v_mean, zone.v_std, zone.s_mean, zone.f_abs_mean,
                     zone.phi_sq_mean):
            assert np.isfinite(stat).all()

    def test_zero_horizon_rejected(self):
        # No run of no step exists to be summarized.
        with pytest.raises(fs.ConfigError, match=r"^horizon must be >= 1, got 0$"):
            build_identical_four({"zone_steps": 10, "horizon": 0})


class TestZoneStats:
    """The zone statistics of a run's rows fed in blocks of any size are,
    bit for bit, those of the whole trace as one block."""

    @pytest.mark.parametrize("stride", [1, 7])
    def test_blocks_of_any_size_move_no_bit(self, small_run, stride):
        specs, cfg, trace = small_run
        if stride != 1:
            trace = fs.Engine(specs, cfg).run(stride=stride)
        ref = summarize(trace, specs, cfg).zones
        assert [z.insufficient for z in ref] == [False] * 3
        rows = trace.rows
        for block in (1, 7, 1000, len(trace)):
            zones = ZoneStats(specs, cfg, stride)
            for r0 in range(0, len(trace), block):
                zones.feed(type(rows)(*(x[r0:r0 + block] for x in rows)))
            assert len(zones.zones) == 3
            for got, want in zip(zones.zones, ref):
                for f in dataclasses.fields(want):
                    np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name),
                                                  err_msg=f.name, strict=True)

    def test_a_zone_too_large_to_hold_is_config_error(self, small_run):
        # The first two zones are held and summarized; the third runs from
        # step 3000 to 3e17, and its rows would need 1.74e19 bytes.
        specs, cfg, trace = small_run
        zones = ZoneStats(specs, dataclasses.replace(cfg, horizon=3 * 10**17), 1)
        with pytest.raises(fs.ConfigError, match=(
            r"^horizon 300000000000000000 at stride 1 does not fit in memory: "
            r"the zone statistics need 1\.74e\+19 bytes$"
        )):
            zones.feed(trace.rows)


class TestRecurrenceVerdicts:
    """starvation and balance read the ledger's per-window share extrema."""

    @pytest.fixture(scope="class")
    def short_windows(self):
        # Thirty tasks (balance is not vacuous) with 1958-step windows.
        specs, cfg = build_random(30, seed=30, cfg_overrides={
            "zone_steps": 2000, "epsilon": 0.02, "gamma": 20.0,
        })
        return specs, cfg, fs.Engine(specs, cfg).run()

    @staticmethod
    def recurrence(trace, specs, cfg):
        verdicts = summarize(trace, specs, cfg).verdicts
        return verdicts["starvation"], verdicts["balance"]

    def test_stride_keeps_the_stride_one_verdicts(self, short_windows):
        specs, cfg, trace = short_windows
        full = self.recurrence(trace, specs, cfg)
        assert [v["windows"] for v in full] == [2, 2]
        assert all(v["pass"] is True for v in full)
        for stride in (7, 100):
            assert self.recurrence(fs.Engine(specs, cfg).run(stride=stride), specs, cfg) == full

    def test_one_starved_window_fails(self, short_windows):
        specs, cfg, trace = short_windows
        led = dataclasses.replace(
            trace.ledger, window_v_max=trace.ledger.window_v_max.copy()
        )
        led.window_v_max[1, 3] = 0.0
        starvation, _ = self.recurrence(
            dataclasses.replace(trace, ledger=led), specs, cfg
        )
        assert starvation["pass"] is False
        assert starvation["detail"].startswith("2 window(s) of 1958 steps, 1 failed")

    def test_incomplete_run_rejected(self, short_windows):
        specs, cfg, trace = short_windows
        partial = dataclasses.replace(trace, breach_step=len(trace))
        with pytest.raises(ValueError, match=(
            rf"^the run aborted at step {len(trace)}; only a complete run is summarized$"
        )):
            summarize(partial, specs, cfg)

    @staticmethod
    def s_optimality(trace, specs, cfg):
        return summarize(trace, specs, cfg).verdicts["s_optimality"]

    def test_s_optimality_counts_the_final_fifth_of_the_steps(self, short_windows):
        specs, cfg, trace = short_windows
        led = trace.ledger
        tail = trace.steps >= led.opt_start
        assert tail.sum() == led.opt_steps == round(0.2 * cfg.horizon)
        s_star = ModelBank([t.utility for t in specs]).argmax(
            trace.v[tail], demand_table(specs).at(trace.steps[tail])
        )
        near = np.abs(trace.s[tail] - s_star) < 0.05
        np.testing.assert_array_equal(led.opt_hits, near.sum(axis=0))
        verdict = self.s_optimality(trace, specs, cfg)
        frac = near.mean(axis=0).min()
        assert verdict == {
            "pass": bool(frac > 0.9),
            "detail": f"min per-task near-optimal fraction {frac:.3f} "
                      "over final 20% of the run",
        }

    def test_stride_keeps_the_stride_one_s_optimality(self, short_windows):
        specs, cfg, trace = short_windows
        full = self.s_optimality(trace, specs, cfg)
        for stride in (7, 100):
            assert self.s_optimality(fs.Engine(specs, cfg).run(stride=stride), specs, cfg) == full


class TestHelpers:
    def test_demand_table_merges_schedules(self):
        specs, _ = build_identical_four({"zone_steps": 100})
        assert demand_table(specs).breaks.tolist() == [0, 100, 200]

    def test_demand_table_matches_schedules(self):
        specs, cfg = build_identical_four({"zone_steps": 100})
        table = demand_table(specs)
        # At each break, between breaks, and past the horizon.
        steps = np.array([0, 1, 99, 100, 150, 199, 200, 201, cfg.horizon,
                          cfg.horizon + 1, 10 * cfg.horizon])
        mat = table.at(steps)
        assert mat.shape == (len(steps), len(specs))
        for r, k in enumerate(steps):
            row = table.at(int(k))
            for j, t in enumerate(specs):
                assert mat[r, j] == row[j] == t.demand.at(int(k))

    def test_recurrence_window_formula(self):
        assert recurrence_window(5e-4, 0.2, 2.0) == 100_000
        assert recurrence_window(5e-4, 1.0, 4.0) == 40_000
