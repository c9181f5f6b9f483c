"""Utility models: evaluation, bound/concavity validation, level maximizer."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare.core import ConfigError
from fairshare.utility import (
    AffineNormalizer,
    CpuBandwidthModel,
    HomeEnergyModel,
    ModelBank,
    UtilityModel,
    validate_assumptions,
)

HOME = HomeEnergyModel(a=2.0, b=1.0, c=2.0, kappa=1.0, h=0.5)
CPU = CpuBandwidthModel(a=1.0, b=2.0, h=1.0, theta=1.0)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def argmax_level(model: UtilityModel, v: float, d: float, tol: float = 1e-6) -> float:
    """Reference level maximizer: scalar golden-section search over [0, 1].

    Valid for models concave in s; ``ModelBank.argmax``, closed form or
    vectorized search, is checked against it.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    a, b = 0.0, 1.0
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = model.eval(x1, v, d)
    f2 = model.eval(x2, v, d)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = model.eval(x2, v, d)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = model.eval(x1, v, d)
    return 0.5 * (a + b)


class Quadratic(UtilityModel):
    """No ``params``: ``ModelBank`` evaluates it in the group of models
    without ``params`` and has to search for its maximizer, clip(peak, 0, 1)."""

    bound_c = 5.0

    def __init__(self, peak: float = 0.25):
        self.peak = peak

    def eval(self, s, v, d):
        return 2.0 - (np.asarray(s) - self.peak) ** 2 + 0.5 * np.asarray(v)


@dataclass(frozen=True)
class Bump(UtilityModel):
    """Declares ``params`` and ``formula`` but no ``argmax_formula``, so
    ``ModelBank`` vectorizes its evaluation and searches for its maximizer."""

    peak: float
    bound_c: float = 5.0
    params = ("peak",)

    @staticmethod
    def formula(s, v, d, peak):
        return 3.0 - (s - peak - 0.2 * d) ** 2 + 0.1 * v


class TestHomeEnergyModel:
    def test_hand_evaluated_point(self):
        # comfort term maxed (s = d), energy term v - h*s = 0.2 - 0.2 = 0.
        assert HOME.eval(0.4, 0.2, 0.4) == pytest.approx(4.0, abs=1e-15)

    def test_eval_is_pure(self):
        assert HOME.eval(0.4, 0.1, 0.4) == HOME.eval(0.4, 0.1, 0.4)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ConfigError):
            HomeEnergyModel(a=-2.0, b=1.0, c=2.0, kappa=1.0, h=0.5)

    def test_concavity_validated_for_any_positive_curvature_weight(self):
        for a in (0.1, 2.0, 17.0):
            model = HomeEnergyModel(a=a, b=1.0, c=5.0, kappa=2.0, h=0.2)
            report = validate_assumptions(model, (0.2, 0.8))
            assert report.concave_ok

    def test_bound_violation_located_on_grid(self):
        # At s=1, v=0, d=0 the value is 2*(0.1-1) - 1 + 0.1 = -2.7 < 1.
        model = HomeEnergyModel(a=2.0, b=1.0, c=0.1, kappa=0.1, h=1.0)
        report = validate_assumptions(model, (0.0, 1.0))
        assert not report.bounds_ok
        assert report.first_violation["check"] == "bounds"
        assert report.first_violation["value"] < 1.0


class TestCpuBandwidthModel:
    def test_deadline_met_gives_maximum(self):
        # response time theta*s/v = 1 equals the deadline h = 1.
        assert CPU.eval(0.5, 0.5, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_share_below_floor_evaluates_at_floor(self):
        assert CPU.eval(0.5, 0.0, 0.0) == CPU.eval(0.5, CPU.v_floor, 0.0)

    def test_gradient_check_passes_above_floor(self):
        model = CpuBandwidthModel(a=0.3, b=2.0, h=1.0, theta=0.8, v_floor=0.05)
        report = validate_assumptions(model, (0.0, 1.0))
        assert report.gradient_ok

    def test_level_maximizer_matches_deadline(self):
        for v in (0.2, 0.5, 0.9):
            assert argmax_level(CPU, v, 0.0, tol=1e-8) == pytest.approx(v, abs=1e-6)


class TestArgmaxLevel:
    def test_interior_optimum_matches_stationarity(self):
        # d/ds = -2a(s-d) - b*h = 0 at s = d - b*h/(2a) = d - 0.125.
        assert argmax_level(HOME, 0.3, 0.6, tol=1e-8) == pytest.approx(0.475, abs=1e-6)

    def test_boundary_optimum_clamps_to_zero(self):
        assert argmax_level(HOME, 0.3, 0.0, tol=1e-8) == pytest.approx(0.0, abs=1e-6)

    def test_beats_refinement_grid(self):
        grid = np.linspace(0.0, 1.0, 2001)
        for v, d in [(0.2, 0.3), (0.8, 0.7), (0.5, 0.05)]:
            s_star = argmax_level(HOME, v, d, tol=1e-6)
            assert HOME.eval(s_star, v, d) >= HOME.eval(grid, v, d).max() - 1e-6

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            argmax_level(HOME, 0.5, 0.5, tol=0.0)


class TestAffineNormalizer:
    def test_fit_lands_in_certified_band(self):
        model = AffineNormalizer.fit(HOME, (0.2, 0.8), c_target=2.0)
        report = validate_assumptions(model, (0.2, 0.8))
        assert report.passed
        grid = model.eval(
            np.linspace(0, 1, 41)[:, None, None],
            np.linspace(0, 1, 41)[None, :, None],
            np.linspace(0.2, 0.8, 41)[None, None, :],
        )
        assert grid.min() >= 1.0 - 1e-9
        assert grid.max() < 2.0

    def test_argmax_is_preserved(self):
        model = AffineNormalizer.fit(HOME, (0.2, 0.8), c_target=3.0)
        for v, d in [(0.3, 0.6), (0.9, 0.4)]:
            assert argmax_level(model, v, d, tol=1e-8) == pytest.approx(
                argmax_level(HOME, v, d, tol=1e-8), abs=1e-6
            )

    def test_constant_model_cannot_be_fit(self):
        class Flat(UtilityModel):
            bound_c = 2.0

            def eval(self, s, v, d):
                return 1.5 + 0.0 * np.asarray(s)

        with pytest.raises(ConfigError):
            AffineNormalizer.fit(Flat(), (0.0, 1.0))

    @pytest.mark.parametrize("c_target", [math.nan, math.inf, "3"])
    def test_fit_names_a_c_target_that_is_not_a_finite_number(self, c_target):
        with pytest.raises(ConfigError, match=r"^c_target must be a finite number, got "):
            AffineNormalizer.fit(HOME, (0.2, 0.8), c_target=c_target)

    def test_custom_concave_bump_fails_u2_when_convex(self):
        class Convex(UtilityModel):
            bound_c = 10.0

            def eval(self, s, v, d):
                return 1.0 + (np.asarray(s) - 0.5) ** 2 + 0.0 * np.asarray(v)

        report = validate_assumptions(Convex(), (0.0, 1.0))
        assert not report.concave_ok
        assert report.first_violation["check"] in ("bounds", "concavity")


class TestGradientAgreement:
    @pytest.mark.parametrize("model", [
        HOME,
        CPU,
        AffineNormalizer.fit(HOME, (0.2, 0.8), c_target=2.0),
    ], ids=["home", "cpu", "normalized"])
    def test_finite_difference_matches_analytic(self, model):
        rng = np.random.default_rng(0)
        v_lo, v_hi = model.v_range()
        s = rng.uniform(0.01, 0.99, size=1000)
        v = rng.uniform(v_lo, v_hi, size=1000)
        d = rng.uniform(0.2, 0.8, size=1000)
        h = 1e-5
        g = model.grad_s(s, v, d)
        g_fd = (model.eval(s + h, v, d) - model.eval(s - h, v, d)) / (2 * h)
        assert np.all(np.abs(g_fd - g) <= 1e-4 * (1.0 + np.abs(g)))


class TestConcavityCertificate:
    @given(s1=unit, s2=unit, t=unit,
           v=unit, d=st.floats(min_value=0.2, max_value=0.8))
    @settings(max_examples=300, deadline=None)
    def test_chord_never_beats_function(self, s1, s2, t, v, d):
        model = AffineNormalizer.fit(HOME, (0.2, 0.8), c_target=2.0)
        mid = t * s1 + (1 - t) * s2
        chord = t * model.eval(s1, v, d) + (1 - t) * model.eval(s2, v, d)
        assert model.eval(mid, v, d) >= chord - 1e-9


class TestModelBank:
    def test_matches_scalar_eval_bitwise(self):
        models = [
            AffineNormalizer.fit(HOME, (0.2, 0.8), c_target=2.0),
            CPU,
            HOME,
            CpuBandwidthModel(a=0.5, b=3.0, h=1.2, theta=0.7, v_floor=0.02),
        ]
        bank = ModelBank(models)
        rng = np.random.default_rng(3)
        s, v, d = rng.uniform(0.05, 0.95, size=(3, 4))
        out = bank.eval(s, v, d)
        for i, m in enumerate(models):
            assert out[i] == m.eval(s[i], v[i], d[i])

    def test_batched_rows_match_single_rows(self):
        models = [AffineNormalizer.fit(HOME, (0.2, 0.8)) for _ in range(3)]
        bank = ModelBank(models)
        rng = np.random.default_rng(4)
        s, v, d = rng.uniform(0.1, 0.9, size=(3, 10, 3))
        batched = bank.eval(s, v, d)
        for r in range(10):
            assert np.array_equal(batched[r], bank.eval(s[r], v[r], d[r]))

    def test_vectorized_argmax_matches_scalar_search(self):
        models = [HOME, CPU, AffineNormalizer.fit(HOME, (0.2, 0.8))]
        bank = ModelBank(models)
        v = np.array([0.3, 0.6, 0.8])
        d = np.array([0.6, 0.0, 0.4])
        got = bank.argmax(v, d, tol=1e-8)
        want = [argmax_level(m, v[i], d[i], tol=1e-8) for i, m in enumerate(models)]
        assert np.allclose(got, want, atol=1e-7)

    def test_generic_models_fall_back_to_loop(self):
        bank = ModelBank([Quadratic(), HOME])
        s, v, d = np.array([0.1, 0.2]), np.array([0.4, 0.5]), np.array([0.3, 0.3])
        out = bank.eval(s, v, d)
        assert out[0] == Quadratic().eval(0.1, 0.4, 0.3)
        assert out[1] == HOME.eval(0.2, 0.5, 0.3)

    def test_argmax_rejects_nonpositive_tolerance(self):
        for models in ([HOME], [Quadratic()]):
            for tol in (0.0, math.nan):
                with pytest.raises(ValueError, match="tol"):
                    ModelBank(models).argmax(0.5, 0.5, tol=tol)

    def test_models_without_params_match_their_own_eval_bitwise(self):
        # Raw and under one wrapper, alone and next to a class group.
        without = [Quadratic(0.3), AffineNormalizer.fit(Quadratic(0.6), (0.0, 1.0)),
                   AffineNormalizer(inner=Quadratic(0.1), scale=0.37, shift=1.3,
                                    bound_c=9.0)]
        rng = np.random.default_rng(6)
        for models in (without, [HOME, *without, CPU]):
            s, v, d = rng.uniform(0.0, 1.0, size=(3, 2, len(models)))
            out = ModelBank(models).eval(s, v, d)
            for i, m in enumerate(models):
                assert np.array_equal(out[:, i], m.eval(s[:, i], v[:, i], d[:, i]))
            scalar = ModelBank(models).eval(0.3, 0.4, 0.5)
            assert [scalar[i] for i in range(len(models))] == [
                m.eval(0.3, 0.4, 0.5) for m in models]


# The reference search resolves a maximizer only to about
# sqrt(ulp(u) / curvature in s): closer in, rounding makes the utility flat.
# These ranges keep that below 1e-6 after any wrapping. In particular a small
# v_floor would let the fit shrink the scale, and so the curvature, by orders
# of magnitude, because theta*s/v_floor spans a wide range.
positive = st.floats(min_value=0.5, max_value=3.0)


@st.composite
def home_models(draw):
    return HomeEnergyModel(a=draw(positive), b=draw(positive), c=draw(positive),
                           kappa=draw(positive), h=draw(positive))


@st.composite
def cpu_models(draw):
    return CpuBandwidthModel(a=draw(positive), b=draw(st.floats(1.5, 3.0)),
                             h=draw(positive), theta=draw(st.floats(0.5, 2.0)),
                             v_floor=draw(st.floats(0.25, 0.6)))


@st.composite
def wrapped(draw, inner):
    """``inner`` raw, fitted into a band, or under two nested wrappers."""
    model = draw(inner)
    depth = draw(st.integers(min_value=0, max_value=2))
    if depth >= 1:
        model = AffineNormalizer.fit(model, (0.0, 1.0),
                                     c_target=draw(st.floats(1.5, 4.0)))
    if depth == 2:
        model = AffineNormalizer(inner=model, scale=draw(st.floats(0.5, 4.0)),
                                 shift=draw(st.floats(-1.0, 1.0)), bound_c=50.0)
    return model


CPU_WIDE = CpuBandwidthModel(a=1.0, b=2.0, h=1.0, theta=1.0, v_floor=0.25)
CPU_DEEP = CpuBandwidthModel(a=1.0, b=2.0, h=2.0, theta=1.0, v_floor=0.25)


class TestClosedFormArgmax:
    """``ModelBank.argmax`` against the reference search ``argmax_level``."""

    @staticmethod
    def assert_matches_reference(models, v, d):
        got = ModelBank(models).argmax(v, d, tol=1e-8)
        v, d = np.broadcast_arrays(v, d)
        assert got.shape == v.shape
        for row in np.ndindex(v.shape[:-1]):
            for i, m in enumerate(models):
                want = argmax_level(m, v[row + (i,)], d[row + (i,)], tol=1e-8)
                assert got[row + (i,)] == pytest.approx(want, abs=1e-6), (row, i, m)

    @given(models=st.lists(
               st.one_of(wrapped(home_models()), wrapped(cpu_models()),
                         st.builds(Quadratic, st.floats(-0.5, 1.5)),
                         st.builds(Bump, st.floats(-0.5, 1.5))),
               min_size=1, max_size=5),
           batch=st.integers(min_value=1, max_value=3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_search(self, models, batch, seed):
        # Shares reach below any v_floor; demands reach both clip edges of
        # home_energy, d - b*h/(2a) < 0 and > 1.
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.0, 1.0, size=(batch, len(models)))
        d = rng.uniform(-0.5, 2.5, size=(batch, len(models)))
        self.assert_matches_reference(models, v, d)

    @pytest.mark.parametrize("model, v, d, want", [
        (HOME, 0.3, 0.6, 0.475),                 # interior: d - b*h/(2a)
        (HOME, 0.3, 0.1, 0.0),                   # d - b*h/(2a) < 0
        (HOME, 0.3, 1.4, 1.0),                   # d - b*h/(2a) > 1
        (CPU_WIDE, 0.4, 0.0, 0.4),               # interior: h*v/theta
        (CPU_WIDE, 0.1, 0.0, 0.25),              # v < v_floor
        (CPU_DEEP, 0.8, 0.0, 1.0),               # h*v/theta > 1
    ], ids=["home-interior", "home-low", "home-high", "cpu-interior",
            "cpu-floor", "cpu-high"])
    def test_clip_edges(self, model, v, d, want):
        # The models are also fitted; a v_floor of at least 0.25 keeps the
        # fitted curvature high enough for the reference search.
        for m in (model, AffineNormalizer.fit(model, (0.0, 1.5))):
            assert ModelBank([m]).argmax(v, d)[0] == pytest.approx(want, abs=1e-15)
            self.assert_matches_reference([m], np.array([v]), np.array([d]))

    def test_mixed_bank_searches_only_lanes_without_closed_form(self):
        models = [HOME, Quadratic(0.3), CPU, Bump(0.6), AffineNormalizer.fit(CPU_WIDE, (0.0, 1.0))]
        bank = ModelBank(models)
        rng = np.random.default_rng(5)
        v = rng.uniform(0.0, 1.0, size=(4, 2, 5))
        d = rng.uniform(0.0, 1.0, size=(4, 2, 5))
        got = bank.argmax(v, d, tol=1e-10)
        # The closed-form lanes are exact, the searched ones within the bracket.
        assert np.array_equal(got[..., 0], np.clip(d[..., 0] - 0.125, 0.0, 1.0))
        assert np.array_equal(got[..., 2], np.clip(np.maximum(v[..., 2], 1e-3), 0.0, 1.0))
        assert np.allclose(got[..., 1], 0.3, atol=1e-9)
        assert np.allclose(got[..., 3], 0.6 + 0.2 * d[..., 3], atol=1e-9)
        self.assert_matches_reference(models, v, d)

    def test_search_never_evaluates_a_closed_form_class(self):
        calls = []

        @dataclass(frozen=True)
        class CountedHome(HomeEnergyModel):
            @staticmethod
            def formula(s, v, d, *params):
                calls.append(np.shape(s))
                return HomeEnergyModel.formula(s, v, d, *params)

        counted = CountedHome(a=2.0, b=1.0, c=2.0, kappa=1.0, h=0.5)
        bank = ModelBank([counted, Quadratic(0.3), Bump(0.6), CPU,
                          AffineNormalizer.fit(counted, (0.2, 0.8))])
        calls.clear()  # the fit evaluates its grid
        got = bank.argmax(np.full(5, 0.4), np.full(5, 0.6))
        assert calls == []
        assert got[0] == got[4] == 0.6 - 0.125  # d - b*h/(2a)
        bank.eval(0.5, 0.4, 0.6)
        assert calls == [(2,)]

    def test_searched_tasks_match_their_own_bank_bitwise(self):
        models = [HOME, Bump(0.6), Quadratic(0.3), CPU, Bump(-0.2),
                  AffineNormalizer.fit(Quadratic(0.8), (0.0, 1.0)),
                  AffineNormalizer.fit(CPU_WIDE, (0.0, 1.0))]
        rng = np.random.default_rng(7)
        v = rng.uniform(0.0, 1.0, size=(3, len(models)))
        d = rng.uniform(0.0, 1.0, size=(3, len(models)))
        for tol in (1e-6, 1e-10):
            got = ModelBank(models).argmax(v, d, tol=tol)
            for i in (1, 2, 4, 5):
                alone = ModelBank([models[i]]).argmax(v[:, i:i + 1], d[:, i:i + 1], tol=tol)
                assert np.array_equal(got[:, i], alone[:, 0])

    def test_search_is_not_flattened_by_a_tiny_wrapper_scale(self):
        # The fit scales this model by about 1e-6, which flattens the wrapped
        # utility near its peak to rounding; the search reads the unwrapped
        # formula, whose maximizer is the same.
        @dataclass(frozen=True)
        class SearchedCpu(CpuBandwidthModel):
            argmax_formula = None

        model = AffineNormalizer.fit(SearchedCpu(a=1.0, b=2.0, h=1.0, theta=1.0), (0.0, 1.0))
        assert model.scale < 1e-6
        for tol in (1e-6, 1e-8):
            got = ModelBank([model, HOME]).argmax(0.4, 0.0, tol=tol)
            assert abs(got[0] - 0.4) <= tol
            assert got[1] == 0.0

    def test_search_reads_the_unwrapped_model_without_params(self):
        # Wrapped at scale 1e-9, the utility is flat to rounding within
        # about 5e-4 of the peak; the inner model is not.
        model = AffineNormalizer(inner=Quadratic(0.3), scale=1e-9, shift=1.0, bound_c=2.0)
        assert abs(ModelBank([model]).argmax(0.5, 0.0)[0] - 0.3) <= 1e-6

    def test_scalar_arguments_broadcast_over_tasks(self):
        bank = ModelBank([HOME, AffineNormalizer.fit(HOME, (0.2, 0.8))])
        out = bank.argmax(0.3, 0.6)
        assert out.shape == (2,)
        assert np.array_equal(out, [0.475, 0.475])


def test_validate_assumptions_requires_three_grid_points():
    with pytest.raises(ValueError):
        validate_assumptions(HOME, (0.2, 0.8), grid_n=2)


class NanModel(UtilityModel):
    """Within bounds, except NaN for levels above one half."""

    bound_c = 2.0

    def eval(self, s, v, d):
        return np.where(np.asarray(s) > 0.5, math.nan, 1.5 + 0.0 * (v + d))


def test_non_finite_utility_fails_the_bounds_check():
    report = validate_assumptions(NanModel(), (0.4, 0.6))
    assert not report.bounds_ok and not report.passed
    assert report.first_violation["check"] == "bounds"
    assert math.isnan(report.first_violation["value"])


class ConvexModel(UtilityModel):
    """Within bounds, but convex in the level: curvature 2 everywhere."""

    bound_c = 2.0

    def eval(self, s, v, d):
        return 1.5 + (s - 0.5) ** 2 + 0.0 * (v + d)


class WrongGradientModel(UtilityModel):
    """Concave and within bounds; ``grad_s`` is off by one everywhere."""

    bound_c = 3.0

    def eval(self, s, v, d):
        return 2.0 - (s - d) ** 2 + 0.0 * v

    def grad_s(self, s, v, d):
        return 1.0 - 2.0 * (s - d)


def test_concavity_violation_located_on_the_interior_levels():
    report = validate_assumptions(ConvexModel(), (0.2, 0.8))
    assert report.bounds_ok and not report.concave_ok
    value = report.first_violation.pop("value")
    # The first interior level of the 33-point grid, at the lowest share
    # and demand.
    assert report.first_violation == {
        "check": "concavity", "s": 1.0 / 32.0, "v": 0.0, "d": 0.2,
    }
    assert value == pytest.approx(2.0, rel=1e-9)


def test_gradient_violation_located_on_the_inner_levels():
    report = validate_assumptions(WrongGradientModel(), (0.2, 0.8))
    assert report.bounds_ok and report.concave_ok
    assert report.gradient_ok is False and not report.passed
    value = report.first_violation.pop("value")
    assert report.first_violation == {
        "check": "gradient", "s": 1.0 / 32.0, "v": 0.0, "d": 0.2,
    }
    assert value == pytest.approx(-1.0, rel=1e-6)
