"""Update recursions and the stepping engine against hand-computed values."""
from __future__ import annotations

import dataclasses
import dis
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairshare as fs
import fairshare.core as core
import fairshare.dynamics as dynamics
import fairshare.oracle as oracle
import fairshare.utility as utility
from fairshare.core import (
    RATIO_GUARD,
    DemandSchedule,
    DemandTable,
    EngineConfig,
    FeasibilityBreach,
    MeasurementError,
    NoiseSource,
    StepError,
    TaskSpec,
    fairness_from_utilities,
)
from fairshare.dynamics import (
    Engine,
    EngineSnapshot,
    RunTrace,
    TraceRows,
)
from fairshare.utility import (
    AffineNormalizer,
    CpuBandwidthModel,
    HomeEnergyModel,
    ModelBank,
    UtilityModel,
)

HOME = HomeEnergyModel(a=2.0, b=1.0, c=2.0, kappa=1.0, h=0.5)


class ConstantModel(UtilityModel):
    """Utility ``value`` at demand below 1 and ``high`` from demand 1 on."""

    bound_c = 2.0
    params = ("value", "high")

    def __init__(self, value: float, high: float | None = None):
        self.value = value
        self.high = value if high is None else high

    @staticmethod
    def formula(s, v, d, value, high):
        return np.where(np.asarray(d) >= 1.0, high, value) + 0.0 * s

    @staticmethod
    def argmax_formula(v, d, value, high):
        return 0.5


class FixedNoise:
    """Noise source drawing the same measurement and dither row every step."""

    def __init__(self, eta, zeta):
        self.eta = np.asarray(eta, dtype=float)
        self.zeta = np.asarray(zeta, dtype=float)

    def measurement_block(self, k0, k1, n):
        return np.tile(self.eta, (k1 - k0, 1))

    def dither_block(self, k0, k1, n):
        return np.tile(self.zeta, (k1 - k0, 1))


def fairness_measure(specs, s, v, d):
    """Exact (noise-free) fairness vector for levels s, shares v, demands d."""
    u = ModelBank([t.utility for t in specs]).eval(
        np.asarray(s, dtype=float), np.asarray(v, dtype=float), np.asarray(d, dtype=float)
    )
    return fairness_from_utilities([t.weight for t in specs], u, v)


def make_specs(n=2, weights=None, demands=None):
    weights = weights or [1.0] * n
    demands = demands or [0.4] * n
    return [
        TaskSpec(weight=weights[i], utility=HOME,
                 demand=DemandSchedule.constant(demands[i]))
        for i in range(n)
    ]


def make_cfg(**kw):
    base = dict(epsilon=5e-4, mu_exponent=0.05, gamma=100.0, horizon=50, seed=3)
    base.update(kw)
    return EngineConfig(**base)


def snapshot(v, s, u_lp, s_lp):
    v, s, u_lp, s_lp = (np.array(x, dtype=float) for x in (v, s, u_lp, s_lp))
    return EngineSnapshot(
        step=0, v=v, s=s, u_lp=u_lp, s_lp=s_lp, u_meas=u_lp.copy(),
        f_obs=np.zeros_like(v), phi=np.zeros_like(v), phi_sq_sum=0.0,
    )


def constant_step(utilities, v, weights=None):
    """One noise-free Engine.step (epsilon 0.1) of tasks with fixed utilities."""
    n = len(utilities)
    weights = weights or [1.0] * n
    specs = [
        TaskSpec(weight=weights[i], utility=ConstantModel(utilities[i]),
                 demand=DemandSchedule.constant(0.4))
        for i in range(n)
    ]
    eng = Engine(specs, make_cfg(epsilon=0.1, gamma=5.0))
    return eng.step(snapshot(v, [0.5] * n, utilities, [0.5] * n))


def update_written_out(eng, k, v, s, u_lp, s_lp, freeze_levels=False):
    """Step k of ``eng`` from (v, s, u_lp, s_lp), as plain numpy expressions:
    the new (v, s), the measurement and fairness index that made them, and
    the new (u_lp, s_lp)."""
    cfg, n = eng.cfg, eng.n
    em = cfg.eps_mu
    u = eng.bank.eval(s, v, eng.demand.at(k)) + eng.noise.measurement_block(k, k + 1, n)[0]
    w = eng.weights / u
    f = w - v * w.sum()
    v = v + cfg.epsilon * f
    if not freeze_levels:
        du, ds = cfg.gamma * (u - u_lp), cfg.gamma * (s - s_lp)
        ratio = np.divide(du, ds, out=np.zeros(n), where=np.abs(ds) >= RATIO_GUARD)
        zeta = eng.noise.dither_block(k, k + 1, n)[0]
        s = np.clip(s + em * np.tanh(ratio) + em * zeta, 0.0, 1.0)
        u_lp, s_lp = u_lp + em * du, s_lp + em * ds
    return v, s, u, f, u_lp, s_lp


# Level differences at and around the ratio guard, and filter differences
# that are not finite: the guarded ratio's edge values.
DS_EDGES = (0.0, -0.0, RATIO_GUARD, -RATIO_GUARD, float(np.nextafter(RATIO_GUARD, 0.0)),
            math.nan, math.inf, -math.inf)
DU_EDGES = (math.inf, -math.inf, math.nan)


def edge_levels(ds):
    """Levels s and filters s_lp whose differences s - s_lp are exactly
    ``ds``: s is 0.0 (-0.0 for a ds of -0.0, since -0.0 - 0.0 is -0.0) and
    s_lp is -ds (0.0 for a zero ds), since 0.0 - (-x) is x."""
    ds = np.array(ds)
    zero = ds == 0.0
    s = np.where(zero & np.signbit(ds), -0.0, 0.0)
    s_lp = np.where(zero, 0.0, -ds)
    # Byte-equal but for a NaN's sign bit, which no check reads.
    nan = np.isnan(ds)
    assert np.array_equal(np.isnan(s - s_lp), nan)
    assert np.where(nan, 0.0, s - s_lp).tobytes() == np.where(nan, 0.0, ds).tobytes()
    return s, s_lp


def level_step(snap, u_meas, zeta, cfg):
    """One Engine.step of a single task holding the whole resource.

    Its fairness index is exactly zero, so only its level and filters move.
    """
    spec = TaskSpec(weight=1.0, utility=ConstantModel(u_meas),
                    demand=DemandSchedule.constant(0.4))
    return Engine([spec], cfg, noise=FixedNoise([0.0], [zeta])).step(snap)


def breach_scenario():
    """Thirty tasks, all resource on task 0, epsilon far above the safe step."""
    model = AffineNormalizer.fit(HOME, (0.4, 0.4), c_target=1.25)
    specs = [
        TaskSpec(weight=1.0, utility=model,
                 demand=DemandSchedule.constant(0.4))
        for _ in range(30)
    ]
    cfg = EngineConfig(
        epsilon=0.1, mu_exponent=0.05, gamma=5.0, eta_bar=1e-3,
        zeta_bar=1e-3, horizon=500, seed=3,
        v_init=tuple([1.0] + [0.0] * 29),
    )
    return specs, cfg


def bad_measurement_scenario(bad):
    """Task 1's utility turns ``bad`` when its demand switches at step 5."""
    specs = [
        TaskSpec(weight=1.0, utility=HOME,
                 demand=DemandSchedule.constant(0.4)),
        TaskSpec(weight=0.8, utility=ConstantModel(1.5, high=bad),
                 demand=DemandSchedule(((0, 0.4), (5, 1.0)))),
    ]
    return specs, make_cfg(horizon=20, eta_bar=0.0, zeta_bar=1e-3)


class TestFairnessMeasure:
    def test_symmetric_point_is_fair(self):
        f = fairness_from_utilities([1.0, 1.0], [2.0, 2.0], [0.5, 0.5])
        assert np.array_equal(f, [0.0, 0.0])

    def test_hand_computed_two_task_case(self):
        # w = (1/1, 1/2); F_1 = 0.75*1 - 0.25*0.5, F_2 = 0.25*0.5 - 0.75*1.
        f = fairness_from_utilities([1.0, 1.0], [1.0, 2.0], [0.25, 0.75])
        assert f == pytest.approx([0.625, -0.625], abs=1e-15)
        assert f.sum() == pytest.approx(0.0, abs=1e-15)

    def test_batch_of_rows_equals_calls_row_by_row(self):
        weights = [1.0, 0.5]
        u = np.array([[1.0, 2.0], [2.0, 1.5]])
        v = np.array([[0.5, 0.5], [0.3, 0.7]])
        f = fairness_from_utilities(weights, u, v)
        for r in range(2):
            assert np.array_equal(f[r], fairness_from_utilities(weights, u[r], v[r]))
        assert np.abs(f.sum(axis=1)).max() <= 1e-12

    def test_exact_measure_of_a_batch_equals_calls_row_by_row(self):
        specs = make_specs(3, weights=[1.0, 0.5, 0.8])
        s = np.array([[0.2, 0.5, 0.9], [0.6, 0.3, 0.4]])
        v = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
        d = np.full((2, 3), 0.4)
        f = fairness_measure(specs, s, v, d)
        for r in range(2):
            assert np.array_equal(f[r], fairness_measure(specs, s[r], v[r], d[r]))

    def test_task_with_no_share_has_positive_deficiency(self):
        specs = make_specs(3)
        f = fairness_measure(specs, [0.5] * 3, [0.0, 0.5, 0.5], [0.4] * 3)
        assert f[0] > 0.0
        u0 = HOME.eval(0.5, 0.0, 0.4)
        assert f[0] == pytest.approx(1.0 / u0, rel=1e-12)

    def test_observed_equals_exact_without_noise(self):
        specs = make_specs(2, demands=[0.4, 0.6])
        s = np.array([0.3, 0.7])
        v = np.array([0.4, 0.6])
        d = np.array([0.4, 0.6])
        eng = Engine(specs, make_cfg(eta_bar=0.0, zeta_bar=0.0))
        out = eng.step(snapshot(v, s, [3.0, 3.0], [0.29, 0.69]))
        assert np.array_equal(out.f_obs, fairness_measure(specs, s, v, d))

    def test_nonpositive_measurement_rejected(self):
        with pytest.raises(MeasurementError) as exc_info:
            constant_step([2.0, -0.1], [0.5, 0.5])
        err = exc_info.value
        assert (err.step, err.task, err.value) == (0, 1, -0.1)
        assert "step 0, task 1" in str(err)

    @given(data=st.data())
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    def test_increment_bounds_hold_for_sane_measurements(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        lam = np.array(data.draw(st.lists(
            st.floats(min_value=0.2, max_value=1.0), min_size=n, max_size=n)))
        c_bar = 2.0
        u = np.array(data.draw(st.lists(
            st.floats(min_value=1.0, max_value=c_bar), min_size=n, max_size=n)))
        raw = np.array(data.draw(st.lists(
            st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n)))
        v = raw / raw.sum()
        f = fairness_from_utilities(lam, u, v)
        lam_ratio = lam.min() / c_bar
        slack = 2e-6 + 1e-12
        assert np.all(f >= lam_ratio - v * n - slack)
        assert np.all(f <= 1.0 - v * n * lam_ratio + slack)
        assert abs(f.sum()) <= 1e-12


class TestSumIdentity:
    @given(data=st.data())
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    def test_index_sum_scales_with_simplex_defect(self, data):
        # sum(F) = (1 - sum(v)) * sum(weights/u): zero exactly on the simplex,
        # restoring toward it otherwise.
        n = data.draw(st.integers(min_value=1, max_value=6))
        lam = np.array(data.draw(st.lists(
            st.floats(min_value=0.1, max_value=1.0), min_size=n, max_size=n)))
        u = np.array(data.draw(st.lists(
            st.floats(min_value=1.0, max_value=4.0), min_size=n, max_size=n)))
        v = np.array(data.draw(st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n)))
        f = fairness_from_utilities(lam, u, v)
        total = (lam / u).sum()
        assert f.sum() == pytest.approx((1.0 - v.sum()) * total, abs=1e-12)


class TestStepResources:
    def test_hand_computed_update(self):
        # Utilities (1, 2) at v = (0.25, 0.75) give F = (0.625, -0.625).
        out = constant_step([1.0, 2.0], [0.25, 0.75])
        assert out.f_obs == pytest.approx([0.625, -0.625], abs=1e-15)
        assert out.v == pytest.approx([0.3125, 0.6875], abs=1e-15)
        assert out.v.sum() == pytest.approx(1.0, abs=1e-15)

    def test_zero_drift_is_fixed_point(self):
        # Shares proportional to weight/utility: F = 0 exactly.
        out = constant_step([1.0, 1.0], [0.3, 0.7], weights=[0.3, 0.7])
        assert np.array_equal(out.f_obs, [0.0, 0.0])
        assert np.array_equal(out.v, [0.3, 0.7])

    def test_identical_tasks_at_uniform_stay_put(self):
        eng = Engine(make_specs(4), make_cfg(eta_bar=0.0, zeta_bar=0.0))
        v = np.full(4, 0.25)
        out = eng.step(snapshot(v, [0.5] * 4, [3.0] * 4, [0.5] * 4))
        assert np.array_equal(out.v, v)

    def test_box_exit_raises_breach(self):
        # w = (1, 20): F_0 = 1 - 0.99 * 21 = -19.79 drives v_0 below 0.
        with pytest.raises(FeasibilityBreach) as exc_info:
            constant_step([1.0, 0.05], [0.99, 0.01])
        err = exc_info.value
        assert (err.step, err.task) == (0, 0)
        assert err.value == pytest.approx(0.99 - 0.1 * 19.79, rel=1e-12)
        # Mirrored: F_0 = 20 - 0.01 * 21 = 19.79 drives v_0 above 1.
        with pytest.raises(FeasibilityBreach) as exc_info:
            constant_step([0.05, 1.0], [0.01, 0.99])
        err = exc_info.value
        assert (err.step, err.task) == (0, 0)
        assert err.value == pytest.approx(0.01 + 0.1 * 19.79, rel=1e-12)


class TestStepOperationLevel:
    def test_equilibrated_filters_leave_only_dither(self):
        cfg = make_cfg()
        out = level_step(snapshot([1.0], [0.5], [3.0], [0.5]), 3.0, 0.5, cfg)
        assert out.s[0] == pytest.approx(0.5 + cfg.eps_mu * 0.5, abs=1e-15)
        assert out.u_lp[0] == 3.0
        assert out.s_lp[0] == 0.5

    def test_hand_computed_drift(self):
        cfg = make_cfg()
        out = level_step(snapshot([1.0], [0.5], [1.0], [0.4]), 1.5, 0.0, cfg)
        # filtered increments: du = 100*0.5 = 50, ds = 100*0.1 = 10.
        expected = 0.5 + cfg.eps_mu * math.tanh(5.0)
        assert out.s[0] == pytest.approx(expected, abs=1e-12)
        assert out.s[0] == pytest.approx(0.50073, abs=1e-5)
        assert out.u_lp[0] == pytest.approx(1.0 + cfg.eps_mu * 50.0, rel=1e-15)
        assert out.s_lp[0] == pytest.approx(0.4 + cfg.eps_mu * 10.0, rel=1e-15)

    def test_projection_clamps_at_upper_boundary(self):
        out = level_step(snapshot([1.0], [1.0], [1.0], [0.9]), 5.0, 1.0, make_cfg())
        assert out.s[0] == 1.0

    def test_guard_zeroes_drift_when_level_never_moved(self):
        out = level_step(snapshot([1.0], [0.5], [1.0], [0.5]), 9.0, 0.0, make_cfg())
        assert out.s[0] == 0.5


class TestEngineStep:
    def test_analytic_fixed_point_is_stationary(self):
        model = AffineNormalizer.fit(HOME, (0.4, 0.4), c_target=2.0)
        specs = [
            TaskSpec(weight=1.0, utility=model,
                     demand=DemandSchedule.constant(0.4))
            for _ in range(4)
        ]
        cfg = make_cfg(eta_bar=0.0, zeta_bar=0.0)
        s_star = float(ModelBank([model]).argmax(0.25, 0.4)[0])
        v0 = np.full(4, 0.25)
        s0 = np.full(4, s_star)
        u0 = np.array([model.eval(s_star, 0.25, 0.4)] * 4)
        snap = EngineSnapshot(
            step=0, v=v0, s=s0, u_lp=u0, s_lp=s0.copy(),
            u_meas=u0, f_obs=np.zeros(4), phi=np.zeros(4), phi_sq_sum=0.0,
        )
        out = Engine(specs, cfg).step(snap)
        assert np.array_equal(out.v, v0)
        assert np.array_equal(out.s, s0)
        assert out.phi_sq_sum == pytest.approx(0.0, abs=1e-28)

    def test_two_task_golden_hand_trace(self):
        # Spreadsheet-style trace of one full noise-free update.
        lam = [1.0, 0.8]
        d = [0.4, 0.6]
        specs = make_specs(2, weights=lam, demands=d)
        cfg = make_cfg(epsilon=0.01, gamma=10.0, eta_bar=0.0, zeta_bar=0.0)
        v = [0.25, 0.75]
        s = [0.5, 0.3]
        u_lp = [4.0, 3.9]
        s_lp = [0.45, 0.31]

        def u_home(s_, v_, d_):
            return 2.0 * (1.0 - (s_ - d_) ** 2) + 1.0 * (v_ - 0.5 * s_) + 2.0

        u1 = u_home(0.5, 0.25, 0.4)      # 2*0.99 + (0.25-0.25) + 2 = 3.98
        u2 = u_home(0.3, 0.75, 0.6)      # 2*0.91 + (0.75-0.15) + 2 = 4.42
        assert u1 == pytest.approx(3.98, abs=1e-15)
        assert u2 == pytest.approx(4.42, abs=1e-15)
        w1, w2 = lam[0] / u1, lam[1] / u2
        total = w1 + w2
        f1, f2 = w1 - 0.25 * total, w2 - 0.75 * total
        v1p, v2p = 0.25 + 0.01 * f1, 0.75 + 0.01 * f2
        em = 0.01 * 0.01 ** (-0.05)
        du1, du2 = 10.0 * (u1 - 4.0), 10.0 * (u2 - 3.9)
        ds1, ds2 = 10.0 * (0.5 - 0.45), 10.0 * (0.3 - 0.31)
        s1p = min(max(0.5 + em * math.tanh(du1 / ds1), 0.0), 1.0)
        s2p = min(max(0.3 + em * math.tanh(du2 / ds2), 0.0), 1.0)
        u1n = u_home(s1p, v1p, 0.4)
        u2n = u_home(s2p, v2p, 0.6)
        w1n, w2n = lam[0] / u1n, lam[1] / u2n
        phi1 = w1n - v1p * (w1n + w2n)
        phi2 = w2n - v2p * (w1n + w2n)

        snap = EngineSnapshot(
            step=0, v=np.array(v), s=np.array(s),
            u_lp=np.array(u_lp), s_lp=np.array(s_lp),
            u_meas=np.array(u_lp), f_obs=np.zeros(2),
            phi=np.zeros(2), phi_sq_sum=0.0,
        )
        out = Engine(specs, cfg).step(snap)
        assert out.step == 1
        assert out.u_meas == pytest.approx([u1, u2], rel=1e-15)
        assert out.f_obs == pytest.approx([f1, f2], rel=1e-12)
        assert out.v == pytest.approx([v1p, v2p], rel=1e-14)
        assert out.s == pytest.approx([s1p, s2p], rel=1e-12)
        assert out.u_lp == pytest.approx([4.0 + em * du1, 3.9 + em * du2], rel=1e-14)
        assert out.s_lp == pytest.approx([0.45 + em * ds1, 0.31 + em * ds2], rel=1e-14)
        assert out.phi == pytest.approx([phi1, phi2], rel=1e-12)
        assert out.phi_sq_sum == pytest.approx(phi1**2 + phi2**2, rel=1e-12)

    def test_identical_inputs_give_identical_snapshots(self):
        specs = make_specs(3)
        cfg = make_cfg(eta_bar=0.01, zeta_bar=0.01)
        eng = Engine(specs, cfg)
        snap = eng.initial_snapshot()
        a = eng.step(snap)
        b = Engine(specs, cfg).step(snap)
        assert np.array_equal(a.v, b.v) and np.array_equal(a.s, b.s)

    def test_later_steps_leave_a_held_snapshot_alone(self):
        # A snapshot's arrays are views of its step's buffers, s and u_meas
        # of one; a buffer reused across steps would overwrite them.
        specs = make_specs(3, demands=[0.2, 0.5, 0.8])
        eng = Engine(specs, make_cfg(eta_bar=0.01, zeta_bar=0.01))
        held = eng.step(eng.initial_snapshot())
        fields = ("v", "s", "u_lp", "s_lp", "u_meas", "f_obs", "phi")
        before = {name: getattr(held, name).copy() for name in fields}
        snap = held
        for freeze_levels in (False, True, False):
            snap = eng.step(snap, freeze_levels)
        assert snap.step == 4 and not np.array_equal(snap.v, held.v)
        for name in fields:
            assert getattr(held, name).tobytes() == before[name].tobytes(), name


class TestGuardedRatio:
    """The guarded level ratio du / ds on its edge values, through a step
    from a hand-built snapshot, against the update written out."""

    def engine(self, n):
        # gamma 1 keeps ds and du exact; no noise or dither.
        return Engine(make_specs(n), make_cfg(gamma=1.0), noise=FixedNoise([0.0] * n, [0.0] * n))

    def snapshot(self, eng, pairs):
        ds, du = np.array(pairs).T
        s, s_lp = edge_levels(ds)
        v = np.full(len(pairs), 1.0 / len(pairs))
        u = eng.bank.eval(s, v, eng.demand.at(0))
        return snapshot(v, s, u - du, s_lp)

    def test_a_finite_ratio_gives_the_update_written_out(self):
        # A ratio the guard zeroes, or du = +-inf over ds = +-RATIO_GUARD,
        # whose tanh is +-1: each task of one step holds one such pair.
        pairs = [(ds, du) for du in DU_EDGES for ds in DS_EDGES
                 if not abs(ds) >= RATIO_GUARD or (math.isinf(du) and math.isfinite(ds))]
        assert len(pairs) == 16
        eng = self.engine(len(pairs))
        snap = self.snapshot(eng, pairs)
        with np.errstate(invalid="ignore"):
            ref = update_written_out(eng, 0, snap.v, snap.s, snap.u_lp, snap.s_lp)
            out = eng.step(snap)
        for name, want in zip(("v", "s", "u_meas", "f_obs", "u_lp", "s_lp"), ref):
            assert getattr(out, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("pair", [(ds, du) for du in DU_EDGES for ds in DS_EDGES
                                      if abs(ds) >= RATIO_GUARD
                                      and (math.isnan(du) or math.isinf(ds))])
    def test_a_nan_ratio_is_a_nan_level_breach(self, pair):
        # du = NaN over a guarded ds, or +-inf over +-inf: the ratio, and so
        # the level, is NaN in the update written out, and the step raises.
        eng = self.engine(2)
        snap = self.snapshot(eng, [pair, (0.5, 0.0)])
        with np.errstate(invalid="ignore"):
            ref = update_written_out(eng, 0, snap.v, snap.s, snap.u_lp, snap.s_lp)
            with pytest.raises(FeasibilityBreach, match="level nan") as exc:
                eng.step(snap)
        assert np.isnan(ref[1][0]) and not np.isnan(ref[1][1])
        assert (exc.value.step, exc.value.task) == (0, 0)


class TestRun:
    def test_horizon_is_at_least_one_step(self):
        with pytest.raises(fs.ConfigError, match=r"^horizon must be >= 1, got 0$"):
            make_cfg(horizon=0)
        trace = Engine(make_specs(2), make_cfg(horizon=1)).run()
        assert trace.steps.tolist() == [1] and trace.complete

    @staticmethod
    def mixed_scenario():
        """Three class groups in ModelBank.eval, one of them a raw and a
        wrapped task, one without a closed-form maximizer; task 0's demand
        switches."""
        models = [
            HOME,
            CpuBandwidthModel(a=0.5, b=2.0, h=1.0, theta=0.5, v_floor=0.25),
            AffineNormalizer.fit(HOME, (0.2, 0.8), c_target=2.0),
            ConstantModel(1.5),
        ]
        demands = [DemandSchedule(((0, 0.3), (30, 0.6))), DemandSchedule.constant(0.5),
                   DemandSchedule.constant(0.7), DemandSchedule.constant(0.4)]
        specs = [TaskSpec(weight=w, utility=m, demand=d)
                 for w, m, d in zip([1.0, 0.7, 0.4, 0.9], models, demands)]
        cfg = make_cfg(epsilon=0.01, gamma=20.0, horizon=80, eta_bar=0.01, zeta_bar=0.01)
        return specs, cfg

    def test_run_matches_iterated_steps_bitwise(self):
        specs, cfg = self.mixed_scenario()
        eng = Engine(specs, cfg)
        for freeze_levels in (False, True):
            snap = eng.initial_snapshot()
            rows = {name: [] for name in ("v", "s", "u_meas", "f_obs", "phi", "phi_sq")}
            for _ in range(cfg.horizon):
                snap = eng.step(snap, freeze_levels)
                for name in rows:
                    rows[name].append(
                        snap.phi_sq_sum if name == "phi_sq" else getattr(snap, name)
                    )
            trace = Engine(specs, cfg).run(freeze_levels=freeze_levels)
            assert (trace.s[-1] != cfg.s_init).any() != freeze_levels
            for name, got in rows.items():
                np.testing.assert_array_equal(getattr(trace, name), np.array(got),
                                              err_msg=f"{name}, frozen {freeze_levels}",
                                              strict=True)

    @pytest.mark.parametrize("freeze_levels", [False, True])
    def test_run_matches_the_update_written_out(self, freeze_levels):
        specs, cfg = self.mixed_scenario()
        eng = Engine(specs, cfg)
        snap = eng.initial_snapshot()
        v, s, u_lp, s_lp = snap.v, snap.s, snap.u_lp, snap.s_lp
        rows = []
        for k in range(cfg.horizon):
            v, s, u, f, u_lp, s_lp = update_written_out(eng, k, v, s, u_lp, s_lp,
                                                        freeze_levels)
            rows.append((v, s, u, f))
        trace = Engine(specs, cfg).run(freeze_levels=freeze_levels)
        for name, got in zip(("v", "s", "u_meas", "f_obs"), zip(*rows)):
            np.testing.assert_array_equal(getattr(trace, name), np.array(got),
                                          err_msg=name, strict=True)

    def test_lanes_of_a_mixed_task_set_are_separate_runs(self):
        specs, cfg = self.mixed_scenario()
        lanes = [(cfg, False), (dataclasses.replace(cfg, seed=8), False), (cfg, True)]
        got = run_lanes(specs, cfg, lanes)
        for g, ref in zip(got, separate_runs(specs, lanes, 1)):
            assert_same_result(g, ref)

    def test_same_seed_reproduces_trace_bitwise(self):
        specs = make_specs(4)
        cfg = make_cfg(horizon=200, eta_bar=1e-3, zeta_bar=1e-3)
        a = Engine(specs, cfg).run()
        b = Engine(specs, cfg).run()
        for name in ("v", "s", "u_meas", "f_obs", "phi", "phi_sq"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seed_changes_trace(self):
        specs = make_specs(4)
        a = Engine(specs, make_cfg(horizon=50, eta_bar=1e-3, seed=1)).run()
        b = Engine(specs, make_cfg(horizon=50, eta_bar=1e-3, seed=2)).run()
        assert not np.array_equal(a.u_meas, b.u_meas)

    def test_invariants_hold_on_noisy_run(self):
        specs = make_specs(5, weights=[1.0, 0.9, 0.8, 0.7, 0.6],
                           demands=[0.3, 0.4, 0.5, 0.6, 0.7])
        cfg = make_cfg(horizon=2000, eta_bar=1e-3, zeta_bar=1e-3)
        trace = Engine(specs, cfg).run()
        led = trace.ledger
        assert led.max_simplex_dev <= 1e-9
        assert led.v_min >= 0.0 and led.v_max <= 1.0
        assert led.max_abs_f_sum <= 1e-12
        assert led.f_low_gap <= 2e-6 + 1e-12
        assert led.f_high_gap <= 2e-6 + 1e-12

    def test_stride_thins_records(self):
        specs = make_specs(2)
        trace = Engine(specs, make_cfg(horizon=1000)).run(stride=100)
        assert len(trace) == 10
        assert list(trace.steps) == [100 * (i + 1) for i in range(10)]

    def test_stride_rows_match_full_trace(self):
        specs = make_specs(2)
        cfg = make_cfg(horizon=100, eta_bar=1e-3)
        full = Engine(specs, cfg).run()
        thin = Engine(specs, cfg).run(stride=10)
        assert np.array_equal(thin.v, full.v[9::10])

    def test_breach_aborts_with_partial_records(self):
        specs, cfg = breach_scenario()
        with pytest.raises(FeasibilityBreach) as exc_info:
            Engine(specs, cfg).run()
        breach = exc_info.value
        assert breach.step is not None
        assert breach.trace is not None and not breach.trace.complete
        assert len(breach.trace) == breach.step

    def test_frozen_levels_keep_level_state(self):
        specs = make_specs(3, demands=[0.2, 0.5, 0.8])
        cfg = make_cfg(horizon=300, eta_bar=1e-3, zeta_bar=1e-3)
        trace = Engine(specs, cfg).run(freeze_levels=True)
        assert np.all(trace.s == cfg.s_init)

    def test_frozen_step_keeps_levels_and_moves_filters(self):
        # A frozen step differs from the unfrozen one only in its levels.
        specs, cfg = self.mixed_scenario()
        eng = Engine(specs, cfg)
        snap = eng.initial_snapshot()
        frozen, moving = eng.step(snap, freeze_levels=True), eng.step(snap)
        np.testing.assert_array_equal(frozen.s, snap.s, strict=True)
        assert (frozen.s_lp != snap.s_lp).all()
        for name in ("v", "u_lp", "s_lp", "u_meas", "f_obs"):
            np.testing.assert_array_equal(getattr(frozen, name), getattr(moving, name),
                                          err_msg=name, strict=True)

    def test_step_condition_rejected_before_simulation(self):
        specs = make_specs(2)
        with pytest.raises(fs.ConfigError):
            Engine(specs, make_cfg(epsilon=0.1, gamma=100.0))

    def test_empty_task_set_rejected_before_simulation(self):
        with pytest.raises(fs.ConfigError, match="need at least one task"):
            Engine([], make_cfg())

    def test_model_class_without_formula_rejected_before_simulation(self):
        class OwnEval(UtilityModel):
            bound_c = 2.0

            def eval(self, s, v, d):
                return 1.5 + 0.0 * np.asarray(s)

        class NoMaximizer(UtilityModel):
            bound_c = 2.0

            @staticmethod
            def formula(s, v, d):
                return 1.5 + 0.0 * np.asarray(s)

        for model, method in ((OwnEval(), "formula"), (NoMaximizer(), "argmax_formula")):
            specs = make_specs(2) + [TaskSpec(weight=1.0, utility=model,
                                              demand=DemandSchedule.constant(0.4))]
            name = type(model).__name__
            with pytest.raises(fs.ConfigError, match=f"^task 2: {name} declares no {method}$"):
                Engine(specs, make_cfg())

    def test_wrong_length_v_init_rejected_before_simulation(self):
        specs = make_specs(2)
        with pytest.raises(fs.ConfigError, match="v_init has 3 entries for 2 tasks"):
            Engine(specs, make_cfg(v_init=(0.2, 0.3, 0.5)))


class TestFilterConvergence:
    def test_filters_contract_geometrically_with_frozen_inputs(self):
        cfg = make_cfg(gamma=40.0)
        ratio = 1.0 - cfg.eps_mu * cfg.gamma
        u_target, s_frozen = 2.5, 0.3
        snap = snapshot([1.0], [s_frozen], [1.0], [0.9])
        for _ in range(50):
            out = level_step(snap, u_target, 0.0, cfg)
            assert (out.u_lp - u_target) == pytest.approx(
                ratio * (snap.u_lp - u_target), rel=1e-12
            )
            assert (out.s_lp - snap.s) == pytest.approx(
                ratio * (snap.s_lp - snap.s), rel=1e-12
            )
            snap = dataclasses.replace(out, step=0, s=snap.s)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf, 1e308, "breach"])
def test_run_and_step_fail_alike(bad):
    if bad == "breach":
        specs, cfg = breach_scenario()
        error, task = FeasibilityBreach, None
    else:
        specs, cfg = bad_measurement_scenario(bad)
        # 1e308 is a valid measurement, but it overflows the utility filter,
        # whose next step is inf - inf: the level turns NaN.
        error, task = (FeasibilityBreach if bad == 1e308 else MeasurementError), 1
    eng = Engine(specs, cfg)
    snap = eng.initial_snapshot()
    with pytest.raises(error) as step_info:
        for _ in range(cfg.horizon):
            snap = eng.step(snap)
    with pytest.raises(error) as run_info:
        eng.run()
    by_step, by_run = step_info.value, run_info.value
    # And as the failing lane of two, beside a frozen one.
    assert_same_result(eng.run_lanes([(eng.noise, True), (eng.noise, False)])[1], by_run)
    if bad == 1e308:
        assert (by_run.step, str(by_run)) == (
            7, "step 7, task 1: level nan left [0, 1] (a utility filter overflowed)")
        assert np.isfinite(by_run.trace.s).all()
    assert by_run.step == by_step.step == snap.step
    assert by_run.task == by_step.task
    assert task is None or by_run.task == task
    np.testing.assert_equal(by_run.value, by_step.value)
    assert not by_run.trace.complete
    assert len(by_run.trace) == by_run.step == by_run.trace.breach_step
    # The failing state's diagnostics may be NaN; the ledger skips them.
    led = by_run.trace.ledger
    if by_run.step:
        assert np.isfinite(led.phi_sq_min)
        assert 1 <= led.phi_sq_min_step <= by_run.step


@pytest.mark.parametrize("switch", [0, 5])
def test_summarize_rejects_an_aborted_run(switch):
    """Only a finished run is judged: a run that aborts, at its first step
    or later, is a ValueError naming the step that failed."""
    specs, cfg = bad_measurement_scenario(math.nan)
    if switch == 0:
        specs[1] = dataclasses.replace(specs[1], demand=DemandSchedule.constant(1.0))
    with pytest.raises(MeasurementError) as info:
        Engine(specs, cfg).run()
    assert info.value.step == switch
    with pytest.raises(ValueError, match=rf"^the run aborted at step {switch}; "):
        fs.summarize(info.value.trace, specs, cfg)


class TestDemandSwitching:
    def test_zone_change_is_read_at_measurement_time(self):
        model = HOME
        demand = DemandSchedule(((0, 0.4), (3, 0.8)))
        specs = [TaskSpec(weight=1.0, utility=model, demand=demand),
                 TaskSpec(weight=1.0, utility=model,
                          demand=DemandSchedule.constant(0.4))]
        cfg = make_cfg(horizon=6, eta_bar=0.0, zeta_bar=0.0)
        trace = Engine(specs, cfg).run()
        eng = Engine(specs, cfg)
        assert np.array_equal(eng.demand.at(2), [0.4, 0.4])
        assert np.array_equal(eng.demand.at(3), [0.8, 0.4])
        # Measurements at steps 0..2 use the old demand; step 3 the new one.
        s2, v2 = trace.s[1], trace.v[1]
        expected = model.eval(s2[0], v2[0], 0.4)
        assert trace.u_meas[2][0] == expected
        s3, v3 = trace.s[2], trace.v[2]
        assert trace.u_meas[3][0] == model.eval(s3[0], v3[0], 0.8)


TRACE_FIELDS = ("steps", "v", "s", "u_meas", "f_obs", "phi", "phi_sq",
                "complete", "breach_step")


def streaming_scenario(horizon=4500):
    """Three fitted tasks whose recurrence window (1000 steps) is short
    enough for four windows, which straddle chunk boundaries."""
    model = AffineNormalizer.fit(HOME, (0.3, 0.7), c_target=2.0)
    demands = [DemandSchedule(((0, 0.3), (1500, 0.6), (3000, 0.3))),
               DemandSchedule.constant(0.5), DemandSchedule.constant(0.7)]
    specs = [TaskSpec(weight=w, utility=model, demand=d)
             for w, d in zip([1.0, 0.7, 0.5], demands)]
    cfg = EngineConfig(epsilon=0.02, mu_exponent=0.05, gamma=20.0,
                       eta_bar=1e-3, zeta_bar=1e-3, horizon=horizon, seed=5)
    return specs, cfg


def chunked_run(monkeypatch, chunk, specs, cfg, **kw):
    monkeypatch.setattr(dynamics, "_CHUNK_STEPS", chunk)
    return Engine(specs, cfg).run(**kw)


def assert_same_trace(a, b):
    for name in TRACE_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert type(x) is type(y), name
        np.testing.assert_array_equal(x, y, err_msg=name, strict=True)
    for f in dataclasses.fields(dynamics.RunLedger):
        np.testing.assert_array_equal(
            getattr(a.ledger, f.name), getattr(b.ledger, f.name),
            err_msg=f.name, strict=True,
        )


DEFAULT_CHUNK = dynamics._CHUNK_STEPS


class TestStreamingRun:
    """Engine.run folds chunk by chunk; no chunk size or stride moves a bit."""

    @pytest.mark.parametrize("freeze_levels", [False, True])
    def test_chunk_size_and_stride_move_no_bit(self, monkeypatch, freeze_levels):
        specs, cfg = streaming_scenario()
        assert cfg.horizon > DEFAULT_CHUNK
        whole = cfg.horizon + 5
        ref = chunked_run(monkeypatch, whole, specs, cfg, freeze_levels=freeze_levels)
        assert ref.ledger.window_v_max.shape == (4, 3)
        for stride in (1, 3, 100):
            one = ref if stride == 1 else chunked_run(
                monkeypatch, whole, specs, cfg, stride=stride, freeze_levels=freeze_levels
            )
            np.testing.assert_array_equal(one.v, ref.v[stride - 1::stride])
            for chunk in (1, 7, DEFAULT_CHUNK):
                assert_same_trace(
                    chunked_run(monkeypatch, chunk, specs, cfg, stride=stride,
                                freeze_levels=freeze_levels),
                    one,
                )

    def test_window_extrema_match_the_stride_one_trace(self, monkeypatch):
        specs, cfg = streaming_scenario()
        trace = chunked_run(monkeypatch, 7, specs, cfg)
        led = trace.ledger
        assert led.window_steps == fs.recurrence_window(cfg.epsilon, 0.5, 2.0) == 1000
        assert led.window_start == cfg.horizon // 10
        first = int(np.searchsorted(trace.steps, cfg.horizon // 10))
        for w in range(len(led.window_v_max)):
            rows = trace.v[first + w * 1000:first + (w + 1) * 1000]
            np.testing.assert_array_equal(led.window_v_max[w], rows.max(axis=0))
            np.testing.assert_array_equal(led.window_v_min[w], rows.min(axis=0))

    @pytest.mark.parametrize("chunk", [7, DEFAULT_CHUNK])
    def test_scalar_extrema_match_the_stride_one_trace(self, monkeypatch, chunk):
        # Each chunking would share an off-by-one in the shares a step
        # starts from, so the reference is the trace, not another chunking.
        specs, cfg = streaming_scenario()
        trace = chunked_run(monkeypatch, chunk, specs, cfg)
        eng = Engine(specs, cfg)
        v, f, phi_sq, n = trace.v, trace.f_obs, trace.phi_sq, len(specs)
        v_pre = np.vstack([eng.initial_snapshot().v, v[:-1]])
        lam_ratio = eng.lam_min / eng.c_bar
        assert np.isfinite(phi_sq).all()
        arg = int(np.argmin(phi_sq))
        expected = {
            "max_simplex_dev": np.abs(v.sum(axis=1) - 1.0).max(),
            "v_min": v.min(),
            "v_max": v.max(),
            "max_abs_f_sum": np.abs(f.sum(axis=1)).max(),
            "f_low_gap": ((lam_ratio - v_pre * n) - f).max(),
            "f_high_gap": (f - (1.0 - v_pre * n * lam_ratio)).max(),
            "phi_sq_min": phi_sq[arg],
            "phi_sq_min_step": trace.steps[arg],
        }
        for name, value in expected.items():
            np.testing.assert_array_equal(getattr(trace.ledger, name), value, err_msg=name)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fail_at", [6, 7, 8, DEFAULT_CHUNK - 1,
                                         DEFAULT_CHUNK, DEFAULT_CHUNK + 1])
    def test_failure_at_a_chunk_edge_is_chunk_free(self, monkeypatch, fail_at):
        # Task 1 measures NaN from step fail_at on.
        specs = [
            TaskSpec(weight=1.0, utility=HOME,
                     demand=DemandSchedule.constant(0.4)),
            TaskSpec(weight=0.8, utility=ConstantModel(1.5, high=math.nan),
                     demand=DemandSchedule(((0, 0.4), (fail_at, 1.0)))),
        ]
        cfg = make_cfg(horizon=fail_at + 10, eta_bar=0.0, zeta_bar=1e-3)
        # With chunk 1 every step is a chunk edge, so the short cases cover it.
        chunks = (1, 7, DEFAULT_CHUNK) if fail_at < 10 else (7, DEFAULT_CHUNK)
        errors = []
        for chunk in (*chunks, cfg.horizon + 1):
            with pytest.raises(MeasurementError) as info:
                chunked_run(monkeypatch, chunk, specs, cfg)
            errors.append(info.value)
        ref = errors[-1]
        assert (ref.step, ref.task) == (fail_at, 1)
        assert len(ref.trace) == fail_at and not ref.trace.complete
        for err in errors[:-1]:
            assert (err.step, err.task) == (ref.step, ref.task)
            np.testing.assert_equal(err.value, ref.value)
            assert_same_trace(err.trace, ref.trace)

    def test_records_too_large_to_hold_is_config_error(self):
        # 3e15 steps of fig5's 4 tasks would need 5.04e17 bytes of records,
        # beyond the address space, so the allocation fails without touching
        # memory. A run that hands its rows to a consumer holds none.
        specs, cfg = fs.build_identical_four({"zone_steps": 10**15})
        with pytest.raises(fs.ConfigError, match=(
            r"^horizon 3000000000000000 at stride 1 does not fit in memory: "
            r"the records need 5.04e\+17 bytes$"
        )):
            Engine(specs, cfg).run()

    def test_memory_is_bounded_by_the_kept_records(self, monkeypatch):
        # A short chunk keeps this quick; the bound holds at any chunk size.
        monkeypatch.setattr(dynamics, "_CHUNK_STEPS", 512)
        specs, cfg = streaming_scenario()

        def traced(horizon):
            eng = Engine(specs, dataclasses.replace(cfg, horizon=horizon))
            tracemalloc.start()
            try:
                trace = eng.run(stride=100)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            kept = sum(getattr(trace, f).nbytes for f in TRACE_FIELDS[:7])
            kept += trace.ledger.window_v_max.nbytes + trace.ledger.window_v_min.nbytes
            return peak, kept

        h = 1024
        peak_1, kept_1 = traced(h)
        peak_8, kept_8 = traced(8 * h)
        # Horizon-sized buffers would add about 13 * 7h * 3 * 8 bytes (2.2 MB).
        assert peak_8 - peak_1 <= (kept_8 - kept_1) + 64_000


class TrapModel(UtilityModel):
    """Utility 1.5, except from demand 1 on, where it is -1 once the level
    has left 0.5, and from demand 2 on, where it is 1e-5 once the share has
    left 0.5."""

    bound_c = 2.0

    @staticmethod
    def formula(s, v, d):
        d = np.asarray(d)
        u = np.where((d >= 1.0) & (s != 0.5), -1.0, 1.5)
        return np.where((d >= 2.0) & (v != 0.5), 1e-5, u)

    @staticmethod
    def argmax_formula(v, d):
        return 0.5


class NanOffHalf(UtilityModel):
    """Utility 1.5, except NaN once the level has left 0.5."""

    bound_c = 2.0

    @staticmethod
    def formula(s, v, d):
        return np.where(np.asarray(s) != 0.5, math.nan, 1.5 + 0.0 * v)

    @staticmethod
    def argmax_formula(v, d):
        return 0.5


def separate_runs(specs, lanes, stride):
    """What one Engine.run per ``(lane_cfg, freeze_levels)`` lane returns or
    raises, each on an engine of its own config."""
    out = []
    for cfg, freeze_levels in lanes:
        try:
            out.append(Engine(specs, cfg).run(stride, freeze_levels))
        except StepError as err:
            out.append(err)
    return out


def run_lanes(specs, cfg, lanes, stride=1):
    """Engine(specs, cfg).run_lanes on the noise streams of the
    ``(lane_cfg, freeze_levels)`` lanes."""
    return Engine(specs, cfg).run_lanes(
        [(NoiseSource(c.seed, c.eta_bar, c.zeta_bar), freeze) for c, freeze in lanes],
        stride,
    )


def assert_same_result(got, ref):
    assert type(got) is type(ref)
    if isinstance(ref, StepError):
        assert (got.step, got.task, str(got)) == (ref.step, ref.task, str(ref))
        np.testing.assert_equal(got.value, ref.value)
        got, ref = got.trace, ref.trace
    assert_same_trace(got, ref)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLanes:
    """Each lane of Engine.run_lanes is, bit for bit, its own Engine.run."""

    @staticmethod
    def mixed_lanes(cfg):
        return [
            (cfg, False),
            (cfg, True),
            (dataclasses.replace(cfg, eta_bar=0.0, zeta_bar=1e-4), False),
            (dataclasses.replace(cfg, seed=11), True),
        ]

    @pytest.mark.parametrize("stride", [1, 3, 100])
    def test_each_lane_is_its_own_run(self, monkeypatch, stride):
        specs, cfg = streaming_scenario()
        lanes = self.mixed_lanes(cfg)
        refs = separate_runs(specs, lanes, stride)
        assert all(isinstance(r, RunTrace) for r in refs)
        for chunk in (1, 7, DEFAULT_CHUNK, cfg.horizon + 5):
            monkeypatch.setattr(dynamics, "_CHUNK_STEPS", chunk)
            for got, ref in zip(run_lanes(specs, cfg, lanes, stride), refs):
                assert_same_result(got, ref)

    def test_wide_task_sets_sum_alike(self, monkeypatch):
        # More than eight tasks, where numpy sums a row pairwise.
        specs, cfg = fs.build_random(12, seed=3, cfg_overrides={"zone_steps": 200})
        lanes = self.mixed_lanes(cfg)
        refs = separate_runs(specs, lanes, 1)
        for chunk in (7, DEFAULT_CHUNK):
            monkeypatch.setattr(dynamics, "_CHUNK_STEPS", chunk)
            for got, ref in zip(run_lanes(specs, cfg, lanes), refs):
                assert_same_result(got, ref)

    def test_a_lane_is_any_noise_stream(self):
        # A lane's noise need not be a NoiseSource: each lane equals the run
        # of an engine given the same noise object.
        specs, cfg = make_specs(3), make_cfg(horizon=40)
        fixed = FixedNoise([1e-3, -2e-3, 0.0], [1e-3, 0.0, -1e-3])
        lanes = [(fixed, False), (fixed, True), (NoiseSource(7, 1e-3, 1e-3), False)]
        got = Engine(specs, cfg).run_lanes(lanes)
        for g, (noise, freeze) in zip(got, lanes):
            assert_same_result(g, Engine(specs, cfg, noise=noise).run(1, freeze))

    def test_frozen_lane_keeps_its_levels_under_a_huge_measurement(self):
        # From step 5 task 1 measures 1e308: valid, but the filter step
        # gamma * (u_meas - u_lp) overflows to inf.
        specs = [
            TaskSpec(weight=1.0, utility=ConstantModel(1.5),
                     demand=DemandSchedule.constant(0.4)),
            TaskSpec(weight=0.8, utility=ConstantModel(1.5, high=1e308),
                     demand=DemandSchedule(((0, 0.4), (5, 1.0)))),
        ]
        cfg = make_cfg(horizon=40, eta_bar=0.0, zeta_bar=1e-3)
        lanes = [(cfg, True), (cfg, False)]
        got = run_lanes(specs, cfg, lanes)
        for g, ref in zip(got, separate_runs(specs, lanes, 1)):
            assert_same_result(g, ref)
        assert got[0].complete
        assert (got[0].s == cfg.s_init).all()

    @staticmethod
    def trapped_lanes(k_meas, k_breach):
        """Four lanes on a TrapModel task: two run the whole horizon, one
        measures -1 at ``k_meas`` and one breaches at ``k_breach``."""
        specs = [
            TaskSpec(weight=1.0, utility=ConstantModel(1.5),
                     demand=DemandSchedule.constant(0.4)),
            TaskSpec(weight=1.0, utility=TrapModel(),
                     demand=DemandSchedule(((0, 0.4), (k_meas, 1.0), (k_breach, 2.0)))),
        ]
        cfg = make_cfg(horizon=30, eta_bar=0.0, zeta_bar=0.0)
        lanes = [
            (cfg, False),  # neither level nor share moves
            (cfg, True),
            (dataclasses.replace(cfg, zeta_bar=1e-3), False),  # the level moves
            (dataclasses.replace(cfg, eta_bar=1e-7), True),    # the share moves
        ]
        return specs, cfg, lanes

    @pytest.mark.parametrize("k_meas, k_breach", [(7, 10), (10, 14), (6, 13)])
    def test_failed_lanes_leave_the_others_running(self, monkeypatch, k_meas, k_breach):
        # With chunks of 7 steps, steps 6 and 13 end a chunk, 7 and 14 start
        # one and 10 lies inside one.
        specs, cfg, lanes = self.trapped_lanes(k_meas, k_breach)
        for stride in (1, 3):
            refs = separate_runs(specs, lanes, stride)
            assert [type(r) for r in refs] == [RunTrace, RunTrace,
                                               MeasurementError, FeasibilityBreach]
            assert (refs[2].step, refs[2].task, refs[2].value) == (k_meas, 1, -1.0)
            assert refs[3].step == k_breach
            for chunk in (7, cfg.horizon + 1):
                monkeypatch.setattr(dynamics, "_CHUNK_STEPS", chunk)
                for got, ref in zip(run_lanes(specs, cfg, lanes, stride), refs):
                    assert_same_result(got, ref)

    @pytest.mark.parametrize("chunk", [7, 31])
    def test_a_consumer_takes_the_rows_each_lane_holds(self, monkeypatch, chunk):
        # Each live lane's rows, chunk by chunk, up to its last good step:
        # the lanes fail at steps 10 and 14, inside the second chunk of 7.
        specs, cfg, lanes = self.trapped_lanes(10, 14)
        monkeypatch.setattr(dynamics, "_CHUNK_STEPS", chunk)
        for stride in (1, 3):
            held = run_lanes(specs, cfg, lanes, stride)
            taken = [[] for _ in lanes]
            streamed = Engine(specs, cfg).run_lanes(
                [(NoiseSource(c.seed, c.eta_bar, c.zeta_bar), freeze) for c, freeze in lanes],
                stride, consumer=lambda lane, rows: taken[lane].append(
                    [x.copy() for x in rows]))
            for got, ref, blocks in zip(streamed, held, taken):
                assert type(got) is type(ref)
                if isinstance(ref, StepError):
                    assert (got.step, got.task) == (ref.step, ref.task)
                    got, ref = got.trace, ref.trace
                assert len(blocks) == math.ceil(len(ref) * stride / chunk)
                for name, *parts in zip(TraceRows._fields, *blocks):
                    np.testing.assert_array_equal(
                        np.concatenate(parts), getattr(ref, name), err_msg=name, strict=True)
                assert (len(got), got.held, got.complete) == (0, False, ref.complete)
                for f in dataclasses.fields(dynamics.RunLedger):
                    np.testing.assert_array_equal(getattr(got.ledger, f.name),
                                                  getattr(ref.ledger, f.name), strict=True)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(chunk=st.integers(3, 9), chunks=st.integers(3, 5),
           seeds=st.tuples(*[st.integers(0, 2**32)] * 3))
    def test_a_lane_gone_non_finite_leaves_the_others_bit_identical(
        self, chunk, chunks, seeds
    ):
        # Lane 0's dither moves its level at step 0, so it measures NaN at
        # step 1; lane 1 is frozen and lane 2 has neither noise nor drift,
        # so both keep the level at 0.5 and run on for chunks - 1 chunks.
        specs = [TaskSpec(weight=w, utility=NanOffHalf(),
                          demand=DemandSchedule.constant(0.4))
                 for w in (1.0, 0.7)]
        cfg = EngineConfig(epsilon=0.1, gamma=5.0, horizon=chunk * chunks,
                           seed=seeds[0], zeta_bar=1.0)
        lanes = [(cfg, False),
                 (dataclasses.replace(cfg, seed=seeds[1], eta_bar=0.1, zeta_bar=0.0), True),
                 (dataclasses.replace(cfg, seed=seeds[2], zeta_bar=0.0), False)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_CHUNK_STEPS", chunk)
            got = run_lanes(specs, cfg, lanes)
        refs = separate_runs(specs, lanes, 1)
        assert (type(refs[0]), refs[0].step) == (MeasurementError, 1)
        assert [len(r) for r in refs[1:]] == [cfg.horizon] * 2
        for g, ref in zip(got, refs):
            assert_same_result(g, ref)


class TestLayout:
    """A run lays out its kernel once, whatever its chunks, a chunk looks up
    its demand once, and a step lays out nothing: the engine laid out its
    step kernels when it was built."""

    @pytest.fixture
    def layouts(self, monkeypatch):
        """The shapes the bank's replays are recorded for."""
        calls = []
        replay = ModelBank.replay

        def counted(bank, shape):
            calls.append(shape)
            return replay(bank, shape)

        monkeypatch.setattr(ModelBank, "replay", counted)
        return calls

    @pytest.mark.parametrize("chunk", [1, 7, DEFAULT_CHUNK])
    def test_a_run_lays_out_once(self, monkeypatch, layouts, chunk):
        specs, cfg = streaming_scenario(horizon=2 * chunk + 1)
        monkeypatch.setattr(dynamics, "_CHUNK_STEPS", chunk)
        eng = Engine(specs, cfg)
        layouts.clear()
        traces = eng.run_lanes([(eng.noise, False), (NoiseSource(7, 1e-3, 1e-3), True)])
        assert [len(t) for t in traces] == [cfg.horizon] * 2
        assert layouts == [(2, eng.n)]

    @pytest.mark.parametrize("chunk", [1, 7, DEFAULT_CHUNK])
    def test_a_chunk_looks_up_its_demand_once(self, monkeypatch, chunk):
        calls = []
        at = DemandTable.at

        def counted(table, k):
            calls.append(k)
            return at(table, k)

        specs, cfg = streaming_scenario(horizon=2 * chunk + 1)
        monkeypatch.setattr(dynamics, "_CHUNK_STEPS", chunk)
        eng = Engine(specs, cfg)
        monkeypatch.setattr(DemandTable, "at", counted)
        traces = eng.run_lanes([(eng.noise, False), (NoiseSource(7, 1e-3, 1e-3), True)])
        assert [len(t) for t in traces] == [cfg.horizon] * 2
        # The initial snapshot's lookup, then one per chunk.
        assert len(calls) == 1 + 3

    def test_steps_lay_out_nothing(self, layouts):
        specs, cfg = streaming_scenario(horizon=100)
        eng = Engine(specs, cfg)
        snap = eng.step(eng.initial_snapshot())
        layouts.clear()
        for k in range(2, 101):
            snap = eng.step(snap, freeze_levels=k % 2 == 0)
        assert snap.step == 100 and layouts == []


class CountedCall:
    """A numpy callable whose calls, and those of its callable attributes
    (``np.add.reduce``), add one to ``counter[0]``."""

    def __init__(self, target, counter):
        self._target, self._counter = target, counter

    def __call__(self, *args, **kwargs):
        self._counter[0] += 1
        return self._target(*args, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        return CountedCall(attr, self._counter) if callable(attr) else attr


class CountingNumpy:
    """numpy with every call of its functions and ufuncs counted; classes,
    such as ``np.errstate`` and the dtypes, and constants pass as they are."""

    def __init__(self):
        self.counter = [0]

    def __getattr__(self, name):
        attr = getattr(np, name)
        if callable(attr) and not isinstance(attr, type):
            return CountedCall(attr, self.counter)
        return attr


class TestCallFloor:
    """The hot loops' numpy calls: a call costs about 0.4 µs, not a cost per
    element, so the count per step is its cost."""

    @pytest.mark.parametrize("freeze_levels, per_step", [(False, 18), (True, 19)])
    def test_numpy_calls_per_step(self, monkeypatch, freeze_levels, per_step):
        # 18, down from 20: the state's rows hold (ratio, f, u, s, v), so one
        # multiply scales (tanh(ratio), f) by (em, eps) and one add moves
        # (s, v). A frozen lane adds the copy that keeps its levels.
        # The kernel binds its ufuncs when it is laid out, so the engine is
        # built on the counting stand-in. The bank's replay, in utility,
        # binds numpy on its own and is counted by the next test. Two
        # one-chunk runs differ only in their steps.
        counting = CountingNumpy()
        monkeypatch.setattr(dynamics, "np", counting)
        specs = make_specs(3, demands=[0.2, 0.5, 0.8])

        def calls(horizon):
            eng = Engine(specs, make_cfg(horizon=horizon, eta_bar=1e-3, zeta_bar=1e-3))
            counting.counter[0] = 0
            trace = eng.run(freeze_levels=freeze_levels)
            assert trace.complete
            return counting.counter[0]

        assert 10 < DEFAULT_CHUNK
        assert calls(10) - calls(4) == 6 * per_step

    def test_the_replay_is_11_numpy_calls_a_step(self, monkeypatch):
        # The kernel calls the bank's replay once a step, and a home_energy
        # bank's replay is a straight line of numpy calls: the formula's 9
        # operations (** 2 is one square), then the scale and the shift.
        counter, replays = [0], []
        replay = ModelBank.replay

        def counted(bank, shape):
            replays.append(replay(bank, shape))
            return CountedCall(replays[-1], counter)

        monkeypatch.setattr(ModelBank, "replay", counted)
        specs = make_specs(3, demands=[0.2, 0.5, 0.8])

        def calls(horizon):
            eng = Engine(specs, make_cfg(horizon=horizon, eta_bar=1e-3, zeta_bar=1e-3))
            counter[0] = 0
            assert eng.run().complete
            return counter[0]

        assert calls(10) - calls(4) == 6
        ops = [i for i in dis.get_instructions(replays[-1]) if i.opname.startswith("CALL")]
        assert len(ops) == 11


    @pytest.fixture
    def model_calls(self, monkeypatch):
        """Counts of the calls of ModelBank.eval and of the functions
        ModelBank.replay returns."""
        counts = {"eval": 0, "replay": 0}
        eval_, replay = ModelBank.eval, ModelBank.replay

        def counted(name, f):
            def call(*args):
                counts[name] += 1
                return f(*args)
            return call

        monkeypatch.setattr(ModelBank, "eval", lambda bank, *a: counted("eval", eval_)(bank, *a))
        monkeypatch.setattr(ModelBank, "replay",
                            lambda bank, shape: counted("replay", replay(bank, shape)))
        return counts

    def test_numpy_calls_per_full_ode_step(self, monkeypatch, model_calls):
        # An RK4 step: four field calls of 12 (the fairness index 4, the
        # differences 2, the guarded ratio 5, the filters 1), the stages 6
        # and the combination 7, the domain check 4 and the projection 2;
        # and the bank's (1, n) replay once a field call. The integration
        # binds its ufuncs when it starts, after the stand-in is in.
        counting = CountingNumpy()
        monkeypatch.setattr(oracle, "np", counting)
        specs, cfg = make_specs(3, demands=[0.2, 0.5, 0.8]), make_cfg()

        def calls(steps):
            counting.counter[0], model_calls["replay"] = 0, 0
            fs.integrate_full_ode(specs, cfg, t_end=steps * 1e-3, dt=1e-3)
            return counting.counter[0], model_calls["replay"]

        (a, replays_a), (b, replays_b) = calls(4), calls(10)
        assert (b - a, replays_b - replays_a) == (6 * 67, 6 * 4)
        assert model_calls["eval"] == 2  # the start's utilities, once a call

    def test_numpy_calls_per_limiting_ode_field_call(self, monkeypatch, model_calls):
        # A field call makes the maximizing levels (ModelBank.argmax: empty,
        # copyto and home_energy's clip; np.broadcast is a class), the
        # utilities there by the bank's replay for the batch's shape, and the
        # fairness index (fairness_from_utilities: three asarray; its
        # arithmetic is operators). numpy is counted in the three modules
        # the field runs.
        fields = []
        rk4 = oracle._rk4
        monkeypatch.setattr(oracle, "_rk4", lambda field, *a, **kw: fields.append(field)
                            or rk4(field, *a, **kw))
        specs = make_specs(3, demands=[0.2, 0.5, 0.8])
        starts = np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]])
        fs.integrate_limiting_ode(specs, starts, t_end=0.0)
        counting = CountingNumpy()
        for module in (oracle, utility, core):
            monkeypatch.setattr(module, "np", counting)
        model_calls.update(eval=0, replay=0)
        fields[0](starts)
        assert (counting.counter[0], model_calls) == (6, {"eval": 0, "replay": 1})


@pytest.mark.parametrize("model", [ConstantModel(1.5, high=1.8), TrapModel(), NanOffHalf()])
def test_a_formula_beyond_ufuncs_replays_as_eval(model):
    # ConstantModel reads its demand with np.asarray, TrapModel and
    # NanOffHalf call np.where: their banks' replays are eval itself.
    bank = ModelBank([model, HOME, model])
    replay = bank.replay((2, 3))
    assert replay == bank.eval
    s, v, d = np.random.default_rng(5).uniform(0.0, 2.0, size=(3, 2, 3))
    assert replay(s, v, d).tobytes() == bank.eval(s, v, d).tobytes()
