"""Acceptance suite: one test per acceptance criterion, full-scale runs.

Each test prints a single pass/fail line (visible with ``pytest -s``); the
test name and verdict in ``pytest -v`` output mirror the same criterion.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

import fairshare as fs
from fairshare.core import DemandSchedule, EngineConfig, TaskSpec, demand_table
from fairshare.oracle import fair_fixed_point, integrate_full_ode, integrate_limiting_ode
from fairshare.dynamics import recurrence_window
from fairshare.scenario import build_identical_four, build_random
from fairshare.utility import (
    AffineNormalizer,
    CpuBandwidthModel,
    HomeEnergyModel,
    ModelBank,
    UtilityModel,
    validate_assumptions,
)

HOME = HomeEnergyModel(a=2.0, b=1.0, c=2.0, kappa=1.0, h=0.5)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}",
          flush=True)
    assert ok, detail


class ShareFreeModel(UtilityModel):
    """Concave in the level, independent of the share.

    Keeps the level subsystem at an exact equilibrium so the share path is
    a well-posed discretization-versus-integrator comparison.
    """

    def __init__(self, a: float, c: float, kappa: float = 1.0):
        self.a, self.c, self.kappa = a, c, kappa
        self.bound_c = a * kappa + c + 1e-6

    def eval(self, s, v, d):
        return self.a * (self.kappa - (s - d) ** 2) + self.c

    def grad_s(self, s, v, d):
        return -2.0 * self.a * (s - d)


def random_instance(n: int, seed: int):
    """Mixed-model task set with constant demands, certified into [1, 2)."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(n):
        d = float(rng.uniform(0.2, 0.8))
        if rng.random() < 0.4:
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
        specs.append(TaskSpec(
            id=i, weight=float(rng.uniform(0.2, 1.0)),
            utility=AffineNormalizer.fit(inner, (d, d), c_target=2.0),
            demand=DemandSchedule.constant(d),
        ))
    return specs


@pytest.fixture(scope="module")
def fig5():
    specs, cfg = build_identical_four()
    t0 = time.perf_counter()
    trace = fs.Engine(specs, cfg).run()
    elapsed = time.perf_counter() - t0
    return specs, cfg, trace, elapsed


@pytest.fixture(scope="module")
def fig6():
    specs, cfg = build_random(30, seed=30)
    trace = fs.Engine(specs, cfg).run()
    return specs, cfg, trace


@pytest.fixture(scope="module")
def fig5_quiet():
    specs, cfg = build_identical_four({"eta_bar": 0.0, "zeta_bar": 1e-4})
    trace = fs.Engine(specs, cfg).run()
    return specs, cfg, trace


def zone_tail_mean(trace, start: int, end: int) -> np.ndarray:
    tail_from = end - (end - start) // 4
    mask = (trace.steps > tail_from) & (trace.steps <= end)
    return trace.v[mask].mean(axis=0)


def test_criterion_01_identical_task_equilibrium(fig5):
    specs, cfg, trace, elapsed = fig5
    z = cfg.horizon // 3
    v_mean = zone_tail_mean(trace, 0, z)
    mask = (trace.steps > z - z // 4) & (trace.steps <= z)
    f_abs = np.abs(trace.f_obs[mask]).mean(axis=0)
    ok = (
        bool(np.abs(v_mean - 0.25).max() <= 0.02)
        and bool(f_abs.max() < 0.02)
        and elapsed < 10.0
    )
    report(1, ok,
           f"first-zone tail shares {np.round(v_mean, 4)} (target 0.25 +/- "
           f"0.02), tail mean |F| max {f_abs.max():.2e} < 0.02, "
           f"runtime {elapsed:.1f}s < 10s")


def test_criterion_02_demand_adaptation(fig5):
    specs, cfg, trace, _ = fig5
    z = cfg.horizon // 3
    v_e1 = zone_tail_mean(trace, 0, z)
    v_e2 = zone_tail_mean(trace, z, 2 * z)
    v_e3 = zone_tail_mean(trace, 2 * z, 3 * z)
    shift = np.abs(v_e2 - v_e1).max()
    reversion = np.abs(v_e3 - v_e1).max()
    ok = shift > 0.01 and reversion <= 0.02
    report(2, ok,
           f"middle-zone shift {shift:.4f} > 0.01, "
           f"final-zone reversion {reversion:.2e} <= 0.02")


def test_criterion_03_feasibility_and_deliberate_breach(fig5, fig6):
    _, _, trace5, _ = fig5
    _, _, trace6 = fig6
    clean = True
    for trace in (trace5, trace6):
        led = trace.ledger
        clean &= led.max_simplex_dev <= 1e-9
        clean &= led.v_min >= 0.0 and led.v_max <= 1.0

    # Deliberately oversized step on a 30-task set (gamma lowered so the
    # filter condition still holds and the run actually starts).
    model = AffineNormalizer.fit(HOME, (0.4, 0.4), c_target=1.25)
    specs = [TaskSpec(id=i, weight=1.0, utility=model,
                      demand=DemandSchedule.constant(0.4)) for i in range(30)]
    cfg = EngineConfig(
        epsilon=0.1, mu_exponent=0.05, gamma=5.0, eta_bar=1e-3, zeta_bar=1e-3,
        horizon=1000, seed=3, v_init=tuple([1.0] + [0.0] * 29),
    )
    breached = False
    try:
        fs.Engine(specs, cfg).run()
    except fs.FeasibilityBreach as exc:
        breached = exc.step is not None
    ok = clean and breached
    report(3, ok,
           f"both scenario runs stay on the simplex (max dev "
           f"{max(trace5.ledger.max_simplex_dev, trace6.ledger.max_simplex_dev):.1e}"
           f" <= 1e-9), epsilon=0.1 raises FeasibilityBreach: {breached}")


def test_criterion_04_starvation_avoidance(fig6):
    specs, cfg, trace = fig6
    lam_min = min(t.weight for t in specs)
    c_bar = max(t.utility.bound_c for t in specs)
    window = recurrence_window(cfg.epsilon, lam_min, c_bar)
    alpha_star = lam_min / (len(specs) * c_bar)
    burn_in = cfg.horizon // 10
    v = trace.v[burn_in:]
    n_windows = len(v) // window
    failures = sum(
        not bool((v[w * window:(w + 1) * window].max(axis=0) > alpha_star).all())
        for w in range(n_windows)
    )
    ok = n_windows >= 1 and failures == 0
    report(4, ok,
           f"{n_windows} window(s) of {window} steps, {failures} failed to "
           f"exceed the starvation threshold {alpha_star:.5f}")


def test_criterion_05_balance(fig6):
    specs, cfg, trace = fig6
    lam_min = min(t.weight for t in specs)
    c_bar = max(t.utility.bound_c for t in specs)
    window = recurrence_window(cfg.epsilon, lam_min, c_bar)
    beta = min(1.0, c_bar / (len(specs) * lam_min) + 0.05)
    burn_in = cfg.horizon // 10
    v = trace.v[burn_in:]
    n_windows = len(v) // window
    failures = sum(
        not bool((v[w * window:(w + 1) * window].min(axis=0) < beta).all())
        for w in range(n_windows)
    )
    ok = n_windows >= 1 and failures == 0
    report(5, ok,
           f"{n_windows} window(s) of {window} steps, {failures} failed to "
           f"drop below the balance threshold {beta:.4f}")


def test_criterion_06_fairness_recurrence_with_frozen_levels(fig5):
    specs, cfg, _, _ = fig5
    tol = 10.0 * (cfg.epsilon + cfg.eta_bar**2)
    frozen = fs.Engine(specs, cfg).run(freeze_levels=True)
    minima = [("paper-fig5", frozen.ledger.phi_sq_min)]
    for seed in range(5):
        rspecs, rcfg = build_random(5, seed=seed,
                                    cfg_overrides={"zone_steps": 5000})
        rtrace = fs.Engine(rspecs, rcfg).run(freeze_levels=True)
        rtol = 10.0 * (rcfg.epsilon + rcfg.eta_bar**2)
        minima.append((f"random-5[{seed}]", rtrace.ledger.phi_sq_min))
        assert rtrace.ledger.phi_sq_min < rtol
    ok = frozen.ledger.phi_sq_min < tol
    worst = max(m for _, m in minima)
    report(6, ok and worst < tol,
           f"running min of sum(phi^2) reached {worst:.2e} at worst "
           f"(tolerance {tol:.2e}) across fig5 and 5 random instances")


def test_criterion_07_operation_level_optimality(fig5_quiet):
    specs, cfg, trace = fig5_quiet
    bank = ModelBank([t.utility for t in specs])
    tail = int(round(0.2 * len(trace)))
    steps = trace.steps[-tail:]
    d = demand_table(specs).at(steps)
    s_star = bank.argmax(trace.v[-tail:], d, tol=1e-6)
    frac = (np.abs(trace.s[-tail:] - s_star) < 0.05).mean(axis=0)
    ok = bool(frac.min() > 0.9)
    report(7, ok,
           f"per-task near-optimal fraction over final 20%: "
           f"{np.round(frac, 3)} (all > 0.9)")


def test_criterion_08_ode_tracking():
    t0 = time.perf_counter()
    specs = [
        TaskSpec(id=i, weight=w, utility=ShareFreeModel(a, 1.2),
                 demand=DemandSchedule.constant(d))
        for i, (w, a, d) in enumerate(
            [(1.0, 1.5, 0.3), (0.8, 2.0, 0.5), (0.6, 1.0, 0.6), (0.9, 1.2, 0.4)])
    ]
    v0 = (0.4, 0.3, 0.2, 0.1)
    gaps = {}
    for eps in (1e-3, 5e-4, 1e-4):
        cfg = EngineConfig(
            epsilon=eps, mu_exponent=0.05, gamma=100.0, eta_bar=0.0,
            zeta_bar=0.0, horizon=int(round(2.0 / eps)), seed=0, v_init=v0,
        )
        trace = fs.Engine(specs, cfg).run()
        ode = integrate_full_ode(specs, cfg, t_end=2.0, dt=1e-3)
        t_disc = trace.steps * eps
        gaps[eps] = max(
            float(np.abs(trace.v[:, i]
                         - np.interp(t_disc, ode.times, ode.v[:, i])).max())
            for i in range(len(specs))
        )
    elapsed = time.perf_counter() - t0
    monotone = gaps[1e-3] > gaps[5e-4] > gaps[1e-4]
    ok = (gaps[1e-3] <= 0.05 and gaps[1e-4] <= 0.01
          and monotone and elapsed < 30.0)
    report(8, ok,
           f"sup-norm share gaps {gaps[1e-3]:.2e} (eps=1e-3, <= 0.05), "
           f"{gaps[5e-4]:.2e}, {gaps[1e-4]:.2e} (eps=1e-4, <= 0.01), "
           f"monotone decreasing, runtime {elapsed:.1f}s < 30s")


def test_criterion_09_cross_oracle_agreement():
    rng = np.random.default_rng(99)
    cfg = EngineConfig(epsilon=5e-4, mu_exponent=0.05, gamma=100.0,
                       horizon=10, seed=0)
    worst_gap = 0.0
    worst_residual = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 11))
        specs = random_instance(n, seed=int(rng.integers(0, 2**31)))
        bank = ModelBank([t.utility for t in specs])
        d = np.array([t.demand.at(0) for t in specs])
        traj = integrate_limiting_ode(
            specs, cfg, fs.uniform_allocation(n), d=d,
            t_end=300.0, dt=0.02, stop_residual=5e-7,
        )
        v_ode = traj.v[-1]
        res = fair_fixed_point(
            specs, lambda v: bank.argmax(v, d, tol=1e-7), d=d, tol=1e-8,
        )
        assert res.converged
        s_ode = bank.argmax(v_ode, d, tol=1e-7)
        resid_ode = float(np.abs(fs.fairness_from_utilities(
            [t.weight for t in specs], bank.eval(s_ode, v_ode, d), v_ode)).max())
        worst_gap = max(worst_gap, float(np.abs(v_ode - res.v).max()))
        worst_residual = max(worst_residual, resid_ode, res.residual)
    ok = worst_gap <= 1e-3 and worst_residual <= 1e-6
    report(9, ok,
           f"20 random instances (n in 2..10): max oracle gap "
           f"{worst_gap:.2e} <= 1e-3, max residual {worst_residual:.2e} <= 1e-6")


def test_criterion_10_utility_model_calculus():
    models = {
        "home": HOME,
        "cpu": CpuBandwidthModel(a=0.4, b=2.0, h=1.0, theta=0.9, v_floor=0.05),
        "normalized": AffineNormalizer.fit(HOME, (0.2, 0.8), c_target=2.0),
    }
    rng = np.random.default_rng(5)
    worst_rel = 0.0
    all_concave = True
    for name, model in models.items():
        v_lo, v_hi = model.v_range()
        s = rng.uniform(0.01, 0.99, size=1000)
        v = rng.uniform(v_lo, v_hi, size=1000)
        d = rng.uniform(0.2, 0.8, size=1000)
        h = 1e-5
        g = model.grad_s(s, v, d)
        g_fd = (model.eval(s + h, v, d) - model.eval(s - h, v, d)) / (2 * h)
        rel = np.abs(g_fd - g) / (1.0 + np.abs(g))
        worst_rel = max(worst_rel, float(rel.max()))

        grid_s = np.linspace(0.0, 1.0, 33)
        grid_v = np.linspace(v_lo, v_hi, 33)
        grid_d = np.linspace(0.2, 0.8, 33)
        u = model.eval(grid_s[:, None, None], grid_v[None, :, None],
                       grid_d[None, None, :])
        d2 = u[2:] - 2.0 * u[1:-1] + u[:-2]
        all_concave &= bool((d2 <= 0.0).all())
    ok = worst_rel <= 1e-4 and all_concave
    report(10, ok,
           f"gradient agreement worst rel err {worst_rel:.2e} <= 1e-4 over "
           f"1000 points per model; second differences <= 0 on all grids")
