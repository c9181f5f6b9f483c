"""Analytic bounds, reference integrators, and the fair fixed-point solver."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fairshare as fs
import fairshare.oracle as oracle
from fairshare.core import (FILTER_INIT_OFFSET, RATIO_GUARD, DemandSchedule, EngineConfig,
                            TaskSpec, demand_table, uniform_allocation)
from fairshare.oracle import (
    OracleError,
    bounds,
    fair_fixed_point,
    integrate_full_ode,
    integrate_limiting_ode,
    probe_limit_points,
    safe_epsilon,
)
from fairshare.scenario import build_identical_four, build_random
from fairshare.utility import (
    AffineNormalizer,
    CpuBandwidthModel,
    HomeEnergyModel,
    ModelBank,
    UtilityModel,
)

from test_dynamics import DS_EDGES, DU_EDGES, edge_levels

HOME = HomeEnergyModel(a=2.0, b=1.0, c=2.0, kappa=1.0, h=0.5)


class BumpModel(UtilityModel):
    """Concave in the level and independent of the share; keeps the level
    subsystem at an exact equilibrium, giving a clean share-only field."""

    params = ("a", "c", "kappa")

    def __init__(self, a: float, c: float, kappa: float = 1.0):
        self.a, self.c, self.kappa = a, c, kappa
        self.bound_c = a * kappa + c + 1e-6

    @staticmethod
    def formula(s, v, d, a, c, kappa):
        return a * (kappa - (s - d) ** 2) + c

    @staticmethod
    def argmax_formula(v, d, a, c, kappa):
        return np.clip(d, 0.0, 1.0)

    def grad_s(self, s, v, d):
        return -2.0 * self.a * (s - d)


def make_cfg(**kw):
    base = dict(epsilon=5e-4, mu_exponent=0.05, gamma=100.0, horizon=100, seed=1)
    base.update(kw)
    return EngineConfig(**base)


def identical_specs(n, bound_c=2.0, d=0.4):
    model = AffineNormalizer.fit(HOME, (d, d), c_target=bound_c)
    return [
        TaskSpec(weight=1.0, utility=model,
                 demand=DemandSchedule.constant(d))
        for _ in range(n)
    ]


def random_specs(n, seed, with_cpu=True):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(n):
        d = float(rng.uniform(0.2, 0.8))
        if with_cpu and rng.random() < 0.4:
            inner = CpuBandwidthModel(
                a=float(rng.uniform(0.5, 2.0)), b=float(rng.uniform(1.0, 3.0)),
                h=float(rng.uniform(0.5, 1.5)), theta=float(rng.uniform(0.5, 1.5)),
                v_floor=0.05,
            )
        else:
            inner = HomeEnergyModel(
                a=float(rng.uniform(0.5, 3.0)), b=float(rng.uniform(0.2, 1.5)),
                c=float(rng.uniform(0.5, 2.0)), kappa=float(rng.uniform(0.5, 1.5)),
                h=float(rng.uniform(0.2, 0.8)),
            )
        model = AffineNormalizer.fit(inner, (d, d), c_target=2.0)
        specs.append(TaskSpec(
            weight=float(rng.uniform(0.2, 1.0)), utility=model,
            demand=DemandSchedule.constant(d),
        ))
    return specs


class TestBounds:
    def test_four_identical_tasks(self):
        b = bounds(identical_specs(4, bound_c=2.0), make_cfg())
        assert b.starvation_threshold == pytest.approx(1.0 / 8.0, abs=1e-15)
        assert b.balance_threshold == pytest.approx(0.5, abs=1e-15)
        assert b.starvation_threshold <= b.balance_threshold

    def test_single_task_is_degenerate(self):
        b = bounds(identical_specs(1, bound_c=2.0), make_cfg())
        assert b.starvation_threshold == pytest.approx(0.5)
        assert b.balance_threshold == pytest.approx(2.0)
        assert b.balance_threshold >= 1.0

    def test_balance_threshold_scales_inversely_with_task_count(self):
        n = 1000
        b = bounds(identical_specs(n, bound_c=2.0), make_cfg())
        assert b.balance_threshold * n == pytest.approx(2.0, abs=1e-9)

    def test_thresholds_bracket_uniform_share(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            specs = random_specs(n, int(rng.integers(0, 10**6)))
            b = bounds(specs, make_cfg())
            assert b.starvation_threshold <= 1.0 / n <= b.balance_threshold

    def test_empty_task_set_rejected(self):
        with pytest.raises(ValueError):
            bounds([], make_cfg())

    def test_safe_epsilon_shrinks_with_task_count(self):
        values = [safe_epsilon(0.2, 2.0, n, 1e-3) for n in (2, 5, 20, 100)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert safe_epsilon(1.0, 2.0, 1, 0.0) == pytest.approx(0.5)


class TestFullOde:
    def test_equilibrium_initialization_is_stationary(self):
        # Levels start at the maximizer of the uniform shares, the fair point.
        specs = identical_specs(4)
        bank = ModelBank([t.utility for t in specs])
        s_star = float(bank.argmax(np.full(4, 0.25), np.full(4, 0.4))[0])
        cfg = make_cfg(eta_bar=0.0, zeta_bar=0.0, s_init=s_star)
        traj = integrate_full_ode(specs, cfg, t_end=1.0, dt=1e-3)
        assert np.abs(traj.v - 0.25).max() == 0.0
        assert np.abs(traj.s - s_star).max() == 0.0

    def test_halving_dt_barely_moves_endpoint(self):
        specs = [
            TaskSpec(weight=w, utility=BumpModel(a, 1.2),
                     demand=DemandSchedule.constant(d))
            for w, a, d in [(1.0, 1.5, 0.3), (0.8, 2.0, 0.5), (0.6, 1.0, 0.6)]
        ]
        cfg = make_cfg(eta_bar=0.0, zeta_bar=0.0,
                       v_init=(0.5, 0.3, 0.2))
        coarse = integrate_full_ode(specs, cfg, t_end=0.25, dt=5e-5)
        fine = integrate_full_ode(specs, cfg, t_end=0.25, dt=2.5e-5)
        assert np.abs(coarse.v[-1] - fine.v[-1]).max() <= 1e-8
        assert np.abs(coarse.s[-1] - fine.s[-1]).max() <= 1e-8

    def test_share_sum_preserved_along_trajectory(self):
        specs = random_specs(5, seed=2, with_cpu=False)
        cfg = make_cfg(v_init=(0.4, 0.25, 0.2, 0.1, 0.05))
        traj = integrate_full_ode(specs, cfg, t_end=2.0, dt=1e-3)
        assert np.abs(traj.v.sum(axis=1) - 1.0).max() <= 1e-12

    def test_discrete_path_tracks_integrator(self):
        specs = [
            TaskSpec(weight=w, utility=BumpModel(a, 1.2),
                     demand=DemandSchedule.constant(d))
            for w, a, d in [(1.0, 1.5, 0.3), (0.8, 2.0, 0.5), (0.6, 1.0, 0.6),
                            (0.9, 1.2, 0.4)]
        ]
        eps = 1e-3
        cfg = make_cfg(epsilon=eps, eta_bar=0.0, zeta_bar=0.0,
                       horizon=int(round(2.0 / eps)),
                       v_init=(0.4, 0.3, 0.2, 0.1))
        trace = fs.Engine(specs, cfg).run()
        traj = integrate_full_ode(specs, cfg, t_end=2.0, dt=1e-3)
        t_disc = trace.steps * eps
        gap = max(
            float(np.abs(trace.v[:, i]
                         - np.interp(t_disc, traj.times, traj.v[:, i])).max())
            for i in range(4)
        )
        assert gap <= 0.05

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            integrate_full_ode(identical_specs(2), make_cfg(), t_end=1.0, dt=0.0)


def written_out_field(specs, cfg):
    """The full mean-field ODE's vector field at the state rows (v, s, u_lp,
    s_lp), as plain numpy expressions."""
    bank = ModelBank([t.utility for t in specs])
    d = demand_table(specs).at(0)
    weights = np.array([t.weight for t in specs])

    def field(y):
        v, s, u_lp, s_lp = y
        w = weights / bank.eval(s, v, d)
        du, ds = bank.eval(s, v, d) - u_lp, s - s_lp
        ratio = np.divide(du, ds, out=np.zeros(len(v)), where=np.abs(ds) >= RATIO_GUARD)
        return np.stack([w - v * w.sum(), cfg.mu * np.tanh(ratio),
                         du * (cfg.mu * cfg.gamma), ds * (cfg.mu * cfg.gamma)])

    return field


def full_ode_written_out(specs, cfg, t_end, dt):
    """integrate_full_ode's shares and levels, as plain numpy expressions."""
    n, field = len(specs), written_out_field(specs, cfg)
    v = uniform_allocation(n) if cfg.v_init is None else np.array(cfg.v_init)
    s = np.full(n, float(cfg.s_init))
    bank = ModelBank([t.utility for t in specs])
    y = np.stack([v, s, bank.eval(s, v, demand_table(specs).at(0)), s - FILTER_INIT_OFFSET])
    rows = [y[:2]]
    for _ in range(int(round(t_end / dt))):
        k1 = field(y)
        k2 = field(y + 0.5 * dt * k1)
        k3 = field(y + 0.5 * dt * k2)
        k4 = field(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[1] = np.clip(y[1], 0.0, 1.0)
        rows.append(y[:2])
    return np.array(rows)


class TestFullOdeBits:
    """integrate_full_ode against the update written out, byte for byte."""

    def test_field_on_the_guarded_ratio_edge_values(self, monkeypatch):
        # One task per (ds, du) pair; _rk4 hands over the field.
        fields = []
        rk4 = oracle._rk4
        monkeypatch.setattr(oracle, "_rk4", lambda field, *a, **kw: fields.append(field)
                            or rk4(field, *a, **kw))
        ds, du = np.array([(ds, du) for du in DU_EDGES for ds in DS_EDGES]).T
        specs, cfg = random_specs(len(ds), seed=4), make_cfg()
        integrate_full_ode(specs, cfg, t_end=0.0)
        s, s_lp = edge_levels(ds)
        v = uniform_allocation(len(ds))
        u = ModelBank([t.utility for t in specs]).eval(s, v, demand_table(specs).at(0))
        y = np.stack([v, s, u - du, s_lp])
        with np.errstate(invalid="ignore"):
            dy, v_out, u_out, s_out = fields[0](y[None].copy())
            ref = written_out_field(specs, cfg)(y)
        assert dy[0].tobytes() == ref.tobytes()
        assert (v_out[0].tobytes(), u_out[0].tobytes(), s_out[0].tobytes()) == (
            v.tobytes(), u.tobytes(), s.tobytes())

    @pytest.mark.parametrize("s_init", [-0.0, 0.0, 0.3, 1.0])
    def test_trajectory_from_each_level_start(self, s_init):
        # -0.0 is kept by np.clip, where np.maximum(-0.0, 0.0) is +0.0.
        specs = random_specs(3, seed=5)
        cfg = make_cfg(s_init=s_init, v_init=(0.5, 0.3, 0.2))
        traj = integrate_full_ode(specs, cfg, t_end=0.05, dt=1e-3)
        ref = full_ode_written_out(specs, cfg, t_end=0.05, dt=1e-3)
        assert traj.v.tobytes() == ref[:, 0].tobytes()
        assert traj.s.tobytes() == ref[:, 1].tobytes()
        assert np.signbit(traj.s[0]).all() == np.signbit(s_init)

    def test_buffers_laid_out_once_carry_nothing_between_calls(self):
        # Full ODEs and probes on two task sets, interleaved in one process.
        fig5, cfg5 = build_identical_four()
        mixed = random_specs(4, seed=2)

        def full(specs):
            traj = integrate_full_ode(specs, cfg5, t_end=0.1)
            return traj.times.tobytes() + traj.v.tobytes() + traj.s.tobytes()

        def probe(specs):
            return b"".join(r.tobytes() for r in probe_limit_points(specs, n_starts=4, t_end=5.0))

        first = [full(fig5), probe(fig5), full(mixed), probe(mixed)]
        again = [full(fig5), probe(mixed), full(mixed), probe(fig5)]
        assert again == [first[0], first[3], first[2], first[1]]


class TestLimitingOde:
    def test_identical_tasks_converge_to_uniform(self):
        specs = identical_specs(5)
        v0 = np.array([0.5, 0.2, 0.15, 0.1, 0.05])
        traj = integrate_limiting_ode(specs, v0, t_end=60.0, dt=0.02, stop_residual=1e-5)
        assert np.abs(traj.v[-1] - 0.2).max() <= 1e-3

    def test_heterogeneous_pair_reaches_zero_residual(self):
        specs = random_specs(2, seed=5)
        traj = integrate_limiting_ode(
            specs, uniform_allocation(2),
            t_end=120.0, dt=0.02, stop_residual=1e-8,
        )
        v_hat = traj.v[-1]
        bank = ModelBank([t.utility for t in specs])
        d = np.array([t.demand.at(0) for t in specs])
        s_star = bank.argmax(v_hat, d)
        phi = fs.fairness_from_utilities([t.weight for t in specs],
                                         bank.eval(s_star, v_hat, d), v_hat)
        assert np.abs(phi).max() <= 1e-6

    def test_fair_start_stays_put(self):
        specs = identical_specs(4)
        traj = integrate_limiting_ode(
            specs, uniform_allocation(4), t_end=5.0, dt=0.05,
        )
        assert np.abs(traj.v - 0.25).max() <= 1e-9


class TestFairFixedPoint:
    def test_identical_tasks_need_one_sweep(self):
        specs = identical_specs(6)
        res = fair_fixed_point(specs, np.full(6, 0.5), tol=1e-10)
        assert res.converged
        assert res.iterations == 1
        assert np.abs(res.v - 1.0 / 6.0).max() <= 1e-12

    def test_share_independent_pair_matches_closed_form(self):
        # With no share term the fair split is w_i / sum(w).
        models = [BumpModel(1.5, 1.2), BumpModel(0.7, 2.0)]
        specs = [
            TaskSpec(weight=w, utility=models[i],
                     demand=DemandSchedule.constant(d))
            for i, (w, d) in enumerate([(0.9, 0.3), (0.5, 0.7)])
        ]
        s = np.array([0.4, 0.6])
        d = np.array([0.3, 0.7])
        u = np.array([models[i].eval(s[i], 0.0, d[i]) for i in range(2)])
        w = np.array([0.9, 0.5]) / u
        expected = w / w.sum()
        res = fair_fixed_point(specs, s, tol=1e-10)
        assert res.converged
        assert np.abs(res.v - expected).max() <= 1e-9

    def test_residual_meets_contract(self):
        for seed in range(5):
            specs = random_specs(5, seed=seed)
            res = fair_fixed_point(specs, np.full(5, 0.5), tol=1e-9)
            assert res.converged
            assert res.residual <= 1e-8

    def test_nonconvergence_is_reported_not_raised(self):
        specs = random_specs(3, seed=1)
        res = fair_fixed_point(specs, np.full(3, 0.5), tol=1e-12, max_iter=2)
        assert not res.converged

    @pytest.mark.parametrize("tol", [math.nan, 0.0])
    def test_tolerance_that_is_not_positive_is_rejected(self, tol):
        with pytest.raises(ValueError, match=r"^tol must be > 0, got "):
            fair_fixed_point(random_specs(3, seed=1), np.full(3, 0.5), tol=tol)

    def test_each_iterate_is_evaluated_once(self, monkeypatch):
        # The iteration evaluates through the bank's (n,) replay, so the
        # calls of the functions replay returns are counted, and eval's.
        calls = []
        eval_, replay = ModelBank.eval, ModelBank.replay

        def counted(f):
            return lambda *a: calls.append(1) or f(*a)

        monkeypatch.setattr(ModelBank, "eval", lambda self, *a: counted(eval_)(self, *a))
        monkeypatch.setattr(ModelBank, "replay", lambda self, shape: counted(replay(self, shape)))
        specs = random_specs(5, seed=3)
        res = fair_fixed_point(specs, np.full(5, 0.5), tol=1e-9)
        assert res.converged and res.iterations > 1
        # The start, then one evaluation per iterate.
        assert len(calls) == res.iterations + 1

    def test_agrees_with_limiting_ode_on_random_instances(self):
        for seed in (11, 12, 13):
            specs = random_specs(5, seed=seed, with_cpu=False)
            traj = integrate_limiting_ode(
                specs, uniform_allocation(5),
                t_end=150.0, dt=0.02, stop_residual=1e-9,
            )
            res = fair_fixed_point(specs, tol=1e-9)
            assert res.converged
            assert np.abs(traj.v[-1] - res.v).max() <= 1e-5


def uncertified_pair():
    """Two raw home_energy tasks whose utility at the maximizing level,
    s* = 0.25, is v - 0.075: negative below a share of 0.075, and v - 1.2
    at s = 1, negative everywhere."""
    model = HomeEnergyModel(a=2.0, b=1.0, c=0.1, kappa=0.1, h=1.0)
    return [TaskSpec(weight=1.0, utility=model,
                     demand=DemandSchedule.constant(0.5)) for _ in range(2)]


class TestDomainErrors:
    def test_limiting_ode_from_nonpositive_utility_raises_at_start(self):
        # This start used to run all 10 000 steps to v = (27.7, -26.7).
        with pytest.raises(OracleError, match=r"t=0, task 1: utility not finite "
                                              r"and > 0: -0\.01"):
            integrate_limiting_ode(uncertified_pair(), np.array([0.94, 0.06]),
                                   t_end=200.0, stop_residual=1e-8)

    def test_limiting_ode_share_leaving_the_box_raises_at_that_time(self):
        # A step of 3 overshoots the fair point (0.5, 0.5) out of [0, 1].
        with pytest.raises(OracleError, match=r"t=3, task 0: share outside \[0, 1\]"):
            integrate_limiting_ode(identical_specs(2), np.array([0.9, 0.1]),
                                   t_end=50.0, dt=3.0)

    def test_full_ode_from_nonpositive_utility_raises(self):
        cfg = make_cfg(s_init=0.0, v_init=(0.9, 0.1))
        with pytest.raises(OracleError, match=r"t=0, task 1: utility not finite"):
            integrate_full_ode(uncertified_pair(), cfg, t_end=1.0)

    def test_fixed_point_with_nonpositive_utility_raises(self):
        with pytest.raises(OracleError, match=r"iteration 1, task 0: utility "
                                              r"not finite and > 0: -0\.7"):
            fair_fixed_point(uncertified_pair(), np.ones(2))

    def test_non_finite_utility_raises(self):
        class NanModel(UtilityModel):
            bound_c = 2.0

            @staticmethod
            def formula(s, v, d):
                return np.where(np.asarray(v) < 0.3, np.nan, 1.5)

            @staticmethod
            def argmax_formula(v, d):
                return 0.5

        specs = [TaskSpec(weight=1.0, utility=NanModel(),
                          demand=DemandSchedule.constant(0.4)) for _ in range(2)]
        with pytest.raises(OracleError, match=r"task 1: utility not finite and > 0: nan"):
            integrate_limiting_ode(specs, np.array([0.8, 0.2]))

    @given(data=st.data())
    @settings(derandomize=True, database=None, deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    def test_full_ode_and_fixed_point_are_finite_or_raise(self, data):
        # Drawn task sets, some of whose utilities leave the domain: each
        # oracle returns finite arrays or raises OracleError, nothing else.
        n = data.draw(st.integers(2, 4))
        specs = [draw_task(data) for _ in range(n)]
        levels = np.array([data.draw(st.floats(0.0, 1.0)) for _ in range(n)])
        cfg = make_cfg(s_init=data.draw(st.floats(0.0, 1.0)))
        oracles = (
            lambda: integrate_full_ode(specs, cfg, t_end=0.1),
            lambda: fair_fixed_point(specs, levels),
            lambda: fair_fixed_point(specs),
        )
        for oracle in oracles:
            try:
                out = oracle()
            except OracleError:
                continue
            arrays = ((out.times, out.v, out.s) if isinstance(out, fs.OdeTrajectory)
                      else (out.v, np.array([out.residual])))
            assert all(np.isfinite(x).all() for x in arrays)


class TestProbeLimitPoints:
    def test_single_cluster_for_identical_tasks(self):
        specs = identical_specs(4)
        reps = probe_limit_points(specs, n_starts=4, seed=0, t_end=80.0)
        assert len(reps) == 1
        assert np.abs(reps[0] - 0.25).max() <= 1e-3

    def test_batched_starts_match_their_own_integrations(self):
        # Each start of the batch ends exactly where its own integration does.
        mixed = random_specs(4, seed=2) + [TaskSpec(
            weight=0.6, utility=BumpModel(0.8, 1.1),
            demand=DemandSchedule.constant(0.5))]
        for specs, cfg in (build_identical_four(), build_random(30, seed=30),
                           (mixed, make_cfg())):
            # The mixed set takes about 600 steps to its stop residual; three
            # starts over a short horizon keep the test fast.
            n_starts, t_end = (3, 0.4) if specs is mixed else (8, 200.0)
            starts = sequential_starts(len(specs), n_starts, cfg.seed)
            batch = integrate_limiting_ode(specs, starts, t_end=t_end, stop_residual=1e-8)
            assert batch.v.shape == (len(batch.times), n_starts, len(specs))
            ends = [integrate_limiting_ode(specs, v0, t_end=t_end, stop_residual=1e-8).v[-1]
                    for v0 in starts]
            assert np.array_equal(batch.v[-1], np.array(ends))
            reps = probe_limit_points(specs, n_starts=n_starts, seed=cfg.seed, t_end=t_end)
            assert_same_points(reps, cluster(ends))

    @pytest.mark.parametrize("failing", [(0.97, 0.99), (0.99, 0.97)])
    def test_lowest_failing_start_raises_its_own_error(self, failing):
        # At dt = 2 a start at share 0.99 leaves [0, 1] at t = 2 and one at
        # 0.97 at t = 18. Whichever of the two comes first in the batch, its
        # own error is raised, as the starts run one by one would raise it.
        specs = identical_specs(2)
        starts = np.array([[0.8, 0.2], [failing[0], 1.0 - failing[0]], [0.5, 0.5],
                           [failing[1], 1.0 - failing[1]]])
        errors = []
        for v0 in starts[[1, 3]]:
            with pytest.raises(OracleError) as exc:
                integrate_limiting_ode(specs, v0, dt=2.0, stop_residual=1e-8)
            errors.append(str(exc.value))
        assert sorted(e.split(",")[0] for e in errors) == ["t=18", "t=2"]
        with pytest.raises(OracleError, match=f"^{re.escape(errors[0])}$"):
            integrate_limiting_ode(specs, starts, dt=2.0, stop_residual=1e-8)

    def test_start_that_stops_early_holds_its_terminal(self):
        specs = identical_specs(2)
        starts = np.array([[0.5, 0.5], [0.9, 0.1]])
        batch = integrate_limiting_ode(specs, starts, stop_residual=1e-8)
        fair = integrate_limiting_ode(specs, starts[0], stop_residual=1e-8)
        far = integrate_limiting_ode(specs, starts[1], stop_residual=1e-8)
        assert len(fair.times) == 1 and len(far.times) > 100
        assert np.array_equal(batch.times, far.times)
        assert np.array_equal(batch.v[:, 0], np.broadcast_to(fair.v[0], far.v.shape))
        assert np.array_equal(batch.s[:, 0], np.broadcast_to(fair.s[0], far.s.shape))
        assert np.array_equal(batch.v[:, 1], far.v) and np.array_equal(batch.s[:, 1], far.s)

    @given(data=st.data())
    @settings(derandomize=True, database=None, deadline=None, max_examples=10,
              suppress_health_check=[HealthCheck.too_slow])
    def test_probe_is_the_per_start_route_or_raises(self, data):
        # Finite representatives equal to those of the starts integrated one
        # by one, or the error the first failing start raises on its own.
        n = data.draw(st.integers(2, 4))
        specs = [draw_task(data) for _ in range(n)]
        seed = data.draw(st.integers(0, 2**64 - 1))
        starts = sequential_starts(n, 3, seed)
        try:
            reps = probe_limit_points(specs, n_starts=3, seed=seed, t_end=3.0)
        except OracleError as exc:
            with pytest.raises(OracleError, match=f"^{re.escape(str(exc))}$"):
                for v0 in starts:
                    integrate_limiting_ode(specs, v0, t_end=3.0, stop_residual=1e-8)
            return
        assert reps and all(np.isfinite(r).all() for r in reps)
        ends = [integrate_limiting_ode(specs, v0, t_end=3.0, stop_residual=1e-8).v[-1]
                for v0 in starts]
        assert_same_points(reps, cluster(ends))


def draw_task(data):
    """A task with a normalized home_energy model, or a raw one whose small
    offset c can take the utility out of the domain, so that some drawn
    task sets fail and some do not."""
    d = data.draw(st.floats(0.2, 0.8))
    normalized = st.builds(
        lambda a, c: AffineNormalizer.fit(
            HomeEnergyModel(a=a, b=1.0, c=c, kappa=1.0, h=0.5), (d, d)),
        st.floats(0.5, 3.0), st.floats(0.5, 2.0))
    raw = st.builds(lambda c, h: HomeEnergyModel(a=2.0, b=1.0, c=c, kappa=0.1, h=h),
                    st.floats(0.01, 0.15), st.floats(0.5, 1.0))
    return TaskSpec(weight=data.draw(st.floats(0.2, 0.8)),
                    utility=data.draw(st.one_of(raw, normalized)),
                    demand=DemandSchedule.constant(d))


def sequential_starts(n, n_starts, seed):
    """The probe's random simplex starts, drawn one start at a time."""
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(n_starts):
        x = rng.exponential(size=n)
        starts.append(x / x.sum())
    return np.array(starts)


def cluster(ends):
    """Greedy sup-norm clustering at radius 1e-3, in start order."""
    reps = []
    for end in ends:
        if not any(np.abs(end - r).max() <= 1e-3 for r in reps):
            reps.append(end)
    return reps


def assert_same_points(got, expected):
    assert len(got) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
