"""Scenario builders and summary statistics."""
from __future__ import annotations

import numpy as np
import pytest

import fairshare as fs
from fairshare.scenario import (
    build_identical_four,
    build_random,
    demand_matrix,
    recurrence_window,
    summarize,
    zone_starts,
)
from fairshare.utility import validate_assumptions


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
            assert validate_assumptions(t.utility, t.demand.span()).passed

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
            assert validate_assumptions(t.utility, t.demand.span()).passed

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
    trace = fs.run(specs, cfg)
    return specs, cfg, trace


class TestSummarize:
    def test_zone_tail_statistics(self, small_run):
        specs, cfg, trace = small_run
        result = summarize(trace, zone_starts(specs), specs, cfg)
        assert len(result.zones) == 3
        z1 = result.zones[0]
        assert not z1.insufficient
        assert np.abs(np.asarray(z1.v_mean) - 0.25).max() <= 0.02
        assert result.zones[2].complete

    def test_verdicts_on_clean_run(self, small_run):
        specs, cfg, trace = small_run
        result = summarize(trace, zone_starts(specs), specs, cfg)
        assert result.verdicts["feasibility"]["pass"] is True
        assert result.verdicts["fairness_zero_sum"]["pass"] is True
        assert result.verdicts["fairness_increment_bounds"]["pass"] is True
        # Too short for a full recurrence window: skipped, not failed.
        assert result.verdicts["starvation"]["pass"] is None

    def test_zone_determinism(self, small_run):
        specs, cfg, _ = small_run
        r1 = summarize(fs.run(specs, cfg), zone_starts(specs), specs, cfg)
        r2 = summarize(fs.run(specs, cfg), zone_starts(specs), specs, cfg)
        for a, b in zip(r1.zones, r2.zones):
            assert np.array_equal(a.v_mean, b.v_mean)
            assert a.adapt_steps == b.adapt_steps

    def test_adaptation_time_is_finite_after_switch(self, small_run):
        specs, cfg, trace = small_run
        result = summarize(trace, zone_starts(specs), specs, cfg)
        for z in result.zones:
            assert z.adapt_steps is not None
            assert z.adapt_steps < z.end - z.start

    def test_tiny_zone_marked_insufficient(self):
        specs, cfg = build_identical_four({"zone_steps": 10})
        trace = fs.run(specs, cfg)
        result = summarize(trace, zone_starts(specs), specs, cfg)
        assert all(z.insufficient for z in result.zones)

    def test_empty_trace_rejected(self):
        specs, cfg = build_identical_four({"zone_steps": 10, "horizon": 0})
        trace = fs.run(specs, cfg)
        with pytest.raises(ValueError):
            summarize(trace, zone_starts(specs), specs, cfg)


class TestHelpers:
    def test_zone_starts_merges_schedules(self):
        specs, _ = build_identical_four({"zone_steps": 100})
        assert zone_starts(specs) == [0, 100, 200]

    def test_demand_matrix_matches_schedules(self):
        specs, _ = build_identical_four({"zone_steps": 100})
        steps = np.array([1, 99, 100, 150, 200, 201])
        mat = demand_matrix(specs, steps)
        for j, t in enumerate(specs):
            for r, k in enumerate(steps):
                assert mat[r, j] == t.demand.at(int(k))

    def test_recurrence_window_formula(self):
        assert recurrence_window(5e-4, 0.2, 2.0) == 100_000
        assert recurrence_window(5e-4, 1.0, 4.0) == 40_000
