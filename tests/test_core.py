"""Configuration validation, demand schedules, and the seeded noise source."""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare.core import (
    ConfigError,
    DemandSchedule,
    EngineConfig,
    NoiseSource,
    TaskSpec,
    demand_table,
    uniform_allocation,
)
from fairshare.oracle import validate_config
from fairshare.utility import HomeEnergyModel


def four_tasks() -> list[TaskSpec]:
    model = HomeEnergyModel(a=2.0, b=1.0, c=2.0, kappa=1.0, h=0.5)
    return [TaskSpec(weight=1.0, utility=model, demand=DemandSchedule.constant(0.4))
            for _ in range(4)]


def make_config(**kw) -> EngineConfig:
    base = dict(epsilon=5e-4, mu_exponent=0.05, gamma=100.0, horizon=100, seed=1)
    base.update(kw)
    return EngineConfig(**base)


class TestEngineConfig:
    def test_reference_parameters_satisfy_step_condition(self):
        cfg = make_config()
        assert cfg.eps_mu == pytest.approx(0.0005**0.95)
        assert cfg.eps_mu == pytest.approx(7.3e-4, rel=2e-2)
        assert cfg.eps_mu < 1.0 / cfg.gamma
        assert validate_config(cfg, four_tasks()) == []

    def test_large_epsilon_violates_step_condition(self):
        cfg = make_config(epsilon=0.1)
        assert cfg.eps_mu == pytest.approx(0.1**0.95)
        with pytest.raises(ConfigError, match=r"^step condition violated: "
                           r"epsilon\*mu\(epsilon\)\*gamma = 11\.2202 >= 1 "):
            validate_config(cfg, four_tasks())

    def test_zero_noise_has_no_noise_violations(self):
        assert validate_config(make_config(eta_bar=0.0), four_tasks()) == []

    def test_unit_noise_bound_is_an_error(self):
        with pytest.raises(ConfigError, match=r"^eta_bar = 1 >= 1 makes measured"):
            validate_config(make_config(eta_bar=1.0), four_tasks())

    def test_every_failed_condition_is_named_in_one_error(self):
        cfg = make_config(epsilon=0.1, eta_bar=1.5, v_init=(0.5, 0.5))
        with pytest.raises(ConfigError) as exc_info:
            validate_config(cfg, four_tasks())
        parts = str(exc_info.value).split("; ")
        assert [p.split(" ")[0] for p in parts] == ["step", "eta_bar", "v_init"]
        assert parts[2] == "v_init has 2 entries for 4 tasks"

    def test_oversized_epsilon_warns_against_task_set(self):
        (warning,) = validate_config(make_config(epsilon=0.05, gamma=5.0), four_tasks())
        assert "feasibility threshold" in warning

    @pytest.mark.parametrize("bad", [
        dict(epsilon=0.0),
        dict(epsilon=-1e-3),
        dict(mu_exponent=0.0),
        dict(mu_exponent=1.0),
        dict(gamma=0.0),
        dict(eta_bar=-0.1),
        dict(horizon=-1),
        dict(s_init=1.5),
        dict(v_init=(0.6, 0.6)),
        dict(v_init=(0.5, 0.5 + 1e-6)),
        dict(v_init=(1.2, -0.2)),
        dict(seed=-1),
        dict(seed=2**64),
        dict(zeta_bar=-0.1),
        dict(v_init=0.5),
        dict(v_init="abc"),
        dict(v_init={"a": 1}),
    ])
    def test_constructor_rejects_structural_violations(self, bad):
        # Every error starts with the field it names.
        (name, value), = bad.items()
        if name in ("eta_bar", "zeta_bar"):
            match = f"^{name} must be >= 0, got -0.1$"
        elif name == "v_init" and not isinstance(value, tuple):
            match = f"^v_init must be a list of numbers, got {re.escape(repr(value))}$"
        else:
            match = f"^{name} "
        with pytest.raises(ConfigError, match=match):
            make_config(**bad)

    def test_v_init_on_simplex_accepted(self):
        cfg = make_config(v_init=(0.25, 0.25, 0.25, 0.25))
        assert cfg.v_init == (0.25, 0.25, 0.25, 0.25)

    def test_task_count_must_be_positive(self):
        with pytest.raises(ConfigError, match="^need at least one task$"):
            validate_config(make_config(), [])


class TestDemandSchedule:
    def test_lookup_respects_zone_boundaries(self):
        sched = DemandSchedule(((0, 0.4), (10, 0.8), (20, 0.4)))
        assert sched.at(0) == 0.4
        assert sched.at(9) == 0.4
        assert sched.at(10) == 0.8
        assert sched.at(19) == 0.8
        assert sched.at(20) == 0.4
        assert sched.at(10**9) == 0.4

    def test_first_zone_must_start_at_zero(self):
        with pytest.raises(ConfigError):
            DemandSchedule(((5, 0.4),))

    def test_starts_must_increase(self):
        with pytest.raises(ConfigError):
            DemandSchedule(((0, 0.4), (10, 0.8), (10, 0.4)))

    @pytest.mark.parametrize("start, shown", [(1.5, "1.5"), (True, "True")])
    def test_zone_start_that_is_not_an_integer_is_config_error(self, start, shown):
        with pytest.raises(ConfigError, match=rf"^demand zone start must be an integer, got {shown}$"):
            DemandSchedule(((0, 0.4), (start, 0.8)))

    @pytest.mark.parametrize("zone", [(5,), (5, 0.8, 1.0), 5],
                             ids=["short", "long", "scalar"])
    def test_zone_that_is_not_a_pair_is_config_error(self, zone):
        with pytest.raises(ConfigError, match=re.escape(
            f"demand zone 1 must be a [start, value] pair, got {zone!r}"
        )):
            DemandSchedule(((0, 0.4), zone))

    def test_zones_are_stored_as_int_and_float(self):
        sched = DemandSchedule([[np.int64(0), 1], [2.0, np.float64(0.8)]])
        assert sched.zones == ((0, 1.0), (2, 0.8))
        assert [type(x) for zone in sched.zones for x in zone] == [int, float] * 2

    def test_span_covers_all_zone_values(self):
        sched = DemandSchedule(((0, 0.4), (10, 0.8), (20, 0.4)))
        assert sched.span() == (0.4, 0.8)

    @pytest.mark.parametrize("k, shown", [(-1, -1), (np.array([3, -2, 0, -1]), -2)])
    def test_negative_step_is_value_error_naming_it(self, k, shown):
        sched = DemandSchedule(((0, 0.4), (10, 0.8)))
        model = HomeEnergyModel(a=2.0, b=1.0, c=2.0, kappa=1.0, h=0.5)
        table = demand_table([TaskSpec(weight=1.0, utility=model, demand=sched)])
        message = rf"^step index must be >= 0, got {shown}$"
        with pytest.raises(ValueError, match=message):
            table.at(k)
        with pytest.raises(ValueError, match=message):
            sched.at(shown)
        assert table.at(np.array([0, 9, 10])).tolist() == [[0.4], [0.4], [0.8]]


class TestTaskSpec:
    @pytest.mark.parametrize("weight", [0.0, -0.5, 1.0 + 1e-9])
    def test_weight_outside_unit_interval_rejected(self, weight):
        model = HomeEnergyModel(a=2.0, b=1.0, c=2.0, kappa=1.0, h=0.5)
        with pytest.raises(ConfigError):
            TaskSpec(weight=weight, utility=model,
                     demand=DemandSchedule.constant(0.4))


class TestNoiseSource:
    def test_zero_bound_always_draws_zero(self):
        src = NoiseSource(seed=1, eta_bar=0.0, zeta_bar=0.0)
        assert np.all(src.measurement_block(0, 100, 5) == 0.0)
        assert np.all(src.dither_block(0, 100, 5) == 0.0)

    def test_draws_respect_reference_bound(self):
        src = NoiseSource(seed=9, eta_bar=0.001, zeta_bar=0.001)
        block = src.measurement_block(0, 1000, 8)
        assert np.all(np.abs(block) <= 0.001)
        assert np.all(np.abs(src.dither_block(0, 1000, 8)) <= 0.001)

    def test_replay_same_key_gives_identical_value(self):
        a = NoiseSource(seed=42, eta_bar=0.5)
        b = NoiseSource(seed=42, eta_bar=0.5)
        assert np.array_equal(a.measurement_block(7, 8, 4), b.measurement_block(7, 8, 4))

    @pytest.mark.parametrize("channel", ["measurement_block", "dither_block"])
    def test_single_step_and_chunked_blocks_match_long_block(self, channel):
        draw = getattr(NoiseSource(seed=5, eta_bar=0.2, zeta_bar=0.1), channel)
        block = draw(0, 20, 6)
        for k in (0, 7, 19):
            assert np.array_equal(draw(k, k + 1, 6)[0], block[k])
        chunks = [draw(k0, min(k0 + 7, 20), 6) for k0 in range(0, 20, 7)]
        assert np.array_equal(np.vstack(chunks), block)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_config_error(self, seed):
        # Masked to 64 bits, -1 would draw the stream of 2**64 - 1 and 2**64
        # that of 0.
        with pytest.raises(ConfigError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
            NoiseSource(seed, eta_bar=0.1)

    @pytest.mark.parametrize("bounds, message", [
        (dict(eta_bar=float("nan"), zeta_bar=-0.5), "eta_bar must be a finite number, got nan"),
        (dict(zeta_bar=float("inf")), "zeta_bar must be a finite number, got inf"),
        (dict(eta_bar="0.1"), "eta_bar must be a finite number, got '0.1'"),
        (dict(zeta_bar=True), "zeta_bar must be a finite number, got True"),
        (dict(eta_bar=-0.5), "eta_bar must be >= 0, got -0.5"),
        (dict(zeta_bar=-1e-9), "zeta_bar must be >= 0, got -1e-09"),
        (dict(eta_bar=1.0), "eta_bar must be < 1, got 1.0"),
        (dict(eta_bar=2.5, zeta_bar=0.0), "eta_bar must be < 1, got 2.5"),
    ])
    def test_bad_bound_is_config_error_naming_it(self, bounds, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            NoiseSource(1, **bounds)

    def test_draws_match_python_integer_splitmix_at_the_top_seed(self):
        # The keyed draws wrap uint64 arithmetic without a warning or an
        # errstate; a reference in Python integers, reduced modulo 2**64,
        # gives the same bits.
        def mix(z):
            z = (z + 0x9E3779B97F4A7C15) % 2**64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
            return z ^ (z >> 31)

        seed, k0, n = 2**64 - 1, 2**40, 5
        src = NoiseSource(seed, eta_bar=0.3, zeta_bar=0.7)
        with np.errstate(all="raise"):
            draws = [src.measurement_block(k0, k0 + 100, n), src.dither_block(k0, k0 + 100, n)]
        for channel, (bound, got) in enumerate(zip((0.3, 0.7), draws)):
            want = [[bound * (2.0 * ((mix(mix(mix(mix(seed) ^ i) ^ channel) ^ k) >> 11)
                                     * (1.0 / 2**53)) - 1.0)
                     for i in range(n)] for k in range(k0, k0 + 100)]
            assert got.tolist() == want

    def test_channels_are_distinct_streams(self):
        src = NoiseSource(seed=5, eta_bar=0.2, zeta_bar=0.2)
        assert src.measurement_block(3, 4, 2)[0, 1] != src.dither_block(3, 4, 2)[0, 1]

    def test_empirical_mean_is_near_zero(self):
        eta_bar = 0.001
        src = NoiseSource(seed=11, eta_bar=eta_bar)
        draws = src.measurement_block(0, 250_000, 4)
        assert draws.size == 10**6
        assert abs(draws.mean()) <= 3.0 * eta_bar / 1000.0

    @given(seed=st.integers(min_value=0, max_value=2**63 - 1),
           k=st.integers(min_value=0, max_value=2**31),
           i=st.integers(min_value=0, max_value=10_000))
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    def test_every_draw_inside_bound_and_deterministic(self, seed, k, i):
        src = NoiseSource(seed=seed, eta_bar=0.3, zeta_bar=0.7)
        x = src.measurement_block(k, k + 1, i + 1)[0, i]
        assert abs(x) <= 0.3
        assert abs(src.dither_block(k, k + 1, i + 1)[0, i]) <= 0.7
        replay = NoiseSource(seed=seed, eta_bar=0.3)
        assert x == replay.measurement_block(k, k + 1, i + 1)[0, i]


def test_uniform_allocation_lies_on_simplex():
    v = uniform_allocation(7)
    assert v.shape == (7,)
    assert v.sum() == pytest.approx(1.0, abs=1e-15)
