"""Utility models: evaluation, bound/concavity validation, level maximizer."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare.core import ConfigError
from fairshare.utility import (
    MODEL_TYPES,
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

    Valid for models concave in s; the closed forms of ``ModelBank.argmax``
    are checked against it.
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
    """A plain class, not a dataclass, whose maximizer is clip(peak, 0, 1)."""

    bound_c = 5.0
    params = ("peak",)

    def __init__(self, peak: float = 0.25):
        self.peak = peak

    @staticmethod
    def formula(s, v, d, peak):
        return 2.0 - (np.asarray(s) - peak) ** 2 + 0.5 * np.asarray(v)

    @staticmethod
    def argmax_formula(v, d, peak):
        return np.clip(peak, 0.0, 1.0)


@dataclass(frozen=True)
class Bump(UtilityModel):
    """A dataclass whose maximizer moves with the demand."""

    peak: float
    bound_c: float = 5.0
    params = ("peak",)

    @staticmethod
    def formula(s, v, d, peak):
        return 3.0 - (s - peak - 0.2 * d) ** 2 + 0.1 * v

    @staticmethod
    def argmax_formula(v, d, peak):
        return np.clip(peak + 0.2 * d, 0.0, 1.0)


class NanOffHalf(UtilityModel):
    """Utility 1.5 at the level 0.5 and NaN at any other level."""

    bound_c = 2.0

    @staticmethod
    def formula(s, v, d):
        return np.where(np.asarray(s) != 0.5, math.nan, 1.5 + 0.0 * v)

    @staticmethod
    def argmax_formula(v, d):
        return 0.5


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
            assert validate_assumptions(model, (0.2, 0.8)) is None

    def test_bound_violation_located_on_grid(self):
        # At s=1, v=0, d=0 the value is 2*(0.1-1) - 1 + 0.1 = -2.7 < 1.
        model = HomeEnergyModel(a=2.0, b=1.0, c=0.1, kappa=0.1, h=1.0)
        violation = validate_assumptions(model, (0.0, 1.0))
        assert violation["check"] == "bounds"
        assert violation["value"] < 1.0


class TestCpuBandwidthModel:
    def test_deadline_met_gives_maximum(self):
        # response time theta*s/v = 1 equals the deadline h = 1.
        assert CPU.eval(0.5, 0.5, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_share_below_floor_evaluates_at_floor(self):
        assert CPU.eval(0.5, 0.0, 0.0) == CPU.eval(0.5, CPU.v_floor, 0.0)

    def test_gradient_check_passes_above_floor(self):
        # Fitted, so that the bounds check passes and the gradient check runs.
        model = AffineNormalizer.fit(
            CpuBandwidthModel(a=0.3, b=2.0, h=1.0, theta=0.8, v_floor=0.05), (0.0, 1.0)
        )
        assert validate_assumptions(model, (0.0, 1.0)) is None

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
        assert validate_assumptions(model, (0.2, 0.8)) is None
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

            @staticmethod
            def formula(s, v, d):
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

            @staticmethod
            def formula(s, v, d):
                return 1.0 + (np.asarray(s) - 0.5) ** 2 + 0.0 * np.asarray(v)

        assert validate_assumptions(Convex(), (0.0, 1.0))["check"] == "concavity"


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

    def test_wrapper_of_a_model_without_gradient_has_none(self):
        once = AffineNormalizer.fit(Quadratic(0.3), (0.0, 1.0))
        twice = AffineNormalizer(inner=once, scale=2.0, shift=0.5, bound_c=10.0)
        for model in (once, twice):
            assert model.grad_s is None
            assert validate_assumptions(model, (0.0, 1.0)) is None


class TestConcavityCertificate:
    @given(s1=unit, s2=unit, t=unit,
           v=unit, d=st.floats(min_value=0.2, max_value=0.8))
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
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
        got = bank.argmax(v, d)
        want = [argmax_level(m, v[i], d[i], tol=1e-8) for i, m in enumerate(models)]
        assert np.allclose(got, want, atol=1e-7)

    def test_generic_models_fall_back_to_loop(self):
        # Two classes: eval loops over their groups.
        bank = ModelBank([Quadratic(), HOME])
        s, v, d = np.array([0.1, 0.2]), np.array([0.4, 0.5]), np.array([0.3, 0.3])
        out = bank.eval(s, v, d)
        assert out[0] == Quadratic().eval(0.1, 0.4, 0.3)
        assert out[1] == HOME.eval(0.2, 0.5, 0.3)

    def test_class_without_formula_is_config_error(self):
        # OwnEval declares neither method and is reported for ``formula``.
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
            wrapped = AffineNormalizer(inner=model, scale=1.0, shift=0.0, bound_c=3.0)
            for models, task in (([model], 0), ([HOME, wrapped], 1)):
                name = type(model).__name__
                with pytest.raises(ConfigError,
                                   match=f"^task {task}: {name} declares no {method}$"):
                    ModelBank(models)

    def test_batched_and_scalar_arguments_match_each_models_eval_bitwise(self):
        # Raw and under one wrapper, alone and next to other class groups.
        quadratics = [Quadratic(0.3), AffineNormalizer.fit(Quadratic(0.6), (0.0, 1.0)),
                      AffineNormalizer(inner=Quadratic(0.1), scale=0.37, shift=1.3,
                                       bound_c=9.0)]
        rng = np.random.default_rng(6)
        for models in (quadratics, [HOME, *quadratics, CPU]):
            s, v, d = rng.uniform(0.0, 1.0, size=(3, 2, len(models)))
            out = ModelBank(models).eval(s, v, d)
            for i, m in enumerate(models):
                assert np.array_equal(out[:, i], m.eval(s[:, i], v[:, i], d[:, i]))
            scalar = ModelBank(models).eval(0.3, 0.4, 0.5)
            assert [scalar[i] for i in range(len(models))] == [
                m.eval(0.3, 0.4, 0.5) for m in models]

    def test_each_class_runs_once_on_the_whole_arguments(self, monkeypatch):
        calls = []
        for cls in (HomeEnergyModel, CpuBandwidthModel, Quadratic):
            for method, k in (("formula", 3), ("argmax_formula", 2)):
                def recorded(*args, f=getattr(cls, method), name=cls.__name__,
                             method=method, k=k):
                    calls.append((name, method, [np.shape(x) for x in args[:k]]))
                    return f(*args)

                monkeypatch.setattr(cls, method, staticmethod(recorded))
        bank = ModelBank([HOME, CPU, AffineNormalizer.fit(HOME, (0.2, 0.8)), Quadratic()])
        s, v, d = np.random.default_rng(8).uniform(0.1, 0.9, size=(3, 3, 4))
        for method, k, call in (("formula", 3, lambda: bank.eval(s, v, d)),
                                ("argmax_formula", 2, lambda: bank.argmax(v, d))):
            calls.clear()  # the fit was counted
            call()
            assert sorted(calls) == [
                (name, method, [(3, 4)] * k)
                for name in ("CpuBandwidthModel", "HomeEnergyModel", "Quadratic")]

    def test_values_of_other_classes_do_not_leak(self):
        # NanOffHalf's formula is NaN at every task of HOME and CPU, and at
        # its own task in the rows where its level is not 0.5.
        rng = np.random.default_rng(9)
        s, v, d = rng.uniform(0.6, 0.9, size=(3, 4, 3))
        for models, i in (([NanOffHalf(), HOME, CPU], 0), ([HOME, CPU, NanOffHalf()], 2)):
            s_i = s.copy()
            s_i[:, i] = [0.5, 0.7, 0.5, 0.2]
            bank = ModelBank(models)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = bank.eval(s_i, v, d), bank.argmax(v, d)
            for j, m in enumerate(models):
                alone = ModelBank([m])
                want = (alone.eval(s_i[:, j:j + 1], v[:, j:j + 1], d[:, j:j + 1]),
                        alone.argmax(v[:, j:j + 1], d[:, j:j + 1]))
                for g, w in zip(got, want):
                    assert g[:, j].tobytes() == w[:, 0].tobytes(), (models, j)

    def test_a_later_group_may_read_more_batch_axes_than_the_first(self):
        # CpuBandwidthModel's formula does not read the demand; HOME's does.
        d = np.random.default_rng(10).uniform(0.1, 0.9, size=(3, 2))
        out = ModelBank([CPU, HOME]).eval(0.4, 0.3, d)
        assert out.shape == (3, 2)
        assert np.all(out[:, 0] == CPU.eval(0.4, 0.3, 0.0))
        assert np.array_equal(out[:, 1], HOME.eval(0.4, 0.3, d[:, 1]))

    def test_every_bank_has_the_broadcast_shape_of_its_arguments(self):
        # The cpu_bandwidth formula reads no demand, yet a bank of it alone
        # keeps the demand's batch axis, as a bank with a class that reads
        # it does.
        d = np.random.default_rng(11).uniform(0.1, 0.9, size=(3, 2))
        for models in ([CPU, CPU], [CPU, HOME], [HOME, CPU]):
            out = ModelBank(models).eval(0.4, 0.3, d)
            assert out.shape == (3, 2)
            for i, m in enumerate(models):
                want = np.broadcast_to(m.eval(0.4, 0.3, d[:, i]), (3,))
                assert out[:, i].tobytes() == want.tobytes()
        assert ModelBank([CPU]).eval(0.4, 0.3, 0.5).shape == (1,)


# Two models of each class of MODEL_TYPES, with different parameters.
EXAMPLES = {
    "home_energy": (HOME, HomeEnergyModel(a=1.0, b=0.5, c=1.5, kappa=1.0, h=1.0)),
    "cpu_bandwidth": (CPU, CpuBandwidthModel(a=0.5, b=3.0, h=1.2, theta=0.7, v_floor=0.02)),
}
# Ordinary values and the edges of float64, for each of s, v and d.
EDGES = [0.0, 1.0, -0.0, math.nan, math.inf, -math.inf, 1e308, 0.3, 0.7]


class TestReplay:
    """``ModelBank.replay`` against ``eval``, bit for bit."""

    def test_examples_cover_every_model_type(self):
        assert {name: {type(m) for m in ms} for name, ms in EXAMPLES.items()} == {
            name: {cls} for name, cls in MODEL_TYPES.items()}

    @pytest.mark.parametrize("lanes", [None, 5])
    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("wrapped", [False, True])
    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_replay_equals_eval_bitwise(self, name, wrapped, mixed, lanes):
        def variant(model):
            return (AffineNormalizer(inner=model, scale=0.37, shift=1.3, bound_c=9.0)
                    if wrapped else model)

        # The class under test is the bank's base group, and in a mixed
        # bank every other class follows it.
        first, second = EXAMPLES[name]
        others = [m for other in sorted(EXAMPLES) if other != name for m in EXAMPLES[other]]
        models = [variant(m) for m in (first, *(others if mixed else ()), second)]
        n = len(models)
        # Every (s, v, d) triple of EDGES at some task of some row, in a
        # whole number of 5-row blocks.
        triples = np.array(np.meshgrid(EDGES, EDGES, EDGES)).reshape(3, -1)
        rows = -(-triples.shape[1] // (5 * n)) * 5
        s, v, d = np.resize(triples, (3, rows, n))
        bank = ModelBank(models)
        with np.errstate(all="ignore"):
            if lanes is None:
                replay = bank.replay((n,))
                calls = list(zip(s, v, d))
            else:
                replay = bank.replay((lanes, n))
                calls = [(s[r:r + lanes], v[r:r + lanes], d[r:r + lanes])
                         for r in range(0, rows, lanes)]
            assert replay != bank.eval
            for args in calls:
                got, want = replay(*args), bank.eval(*args)
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_a_replay_is_recorded_once_per_shape(self):
        bank = ModelBank([HOME, CPU, HOME])
        replay = bank.replay((3,))
        assert bank.replay([3]) is replay and bank.replay((2, 3)) is not replay
        args = np.random.default_rng(12).uniform(0.1, 0.9, size=(2, 3, 3))
        # Its buffers hold no state from one call to the next.
        first = replay(*args[0]).copy()
        replay(*args[1])
        assert replay(*args[0]).tobytes() == first.tobytes()

    def test_a_class_outside_model_types_is_recorded_when_it_can_be(self):
        # Bump is all ufuncs and operators; Quadratic converts its arguments
        # with np.asarray, so its bank replays as eval.
        s, v, d = np.random.default_rng(13).uniform(0.1, 0.9, size=(3, 2, 3))
        for models, recorded in (([Bump(0.3), HOME, Bump(0.6)], True),
                                 ([Quadratic(), HOME, CPU], False)):
            bank = ModelBank(models)
            replay = bank.replay((2, 3))
            assert (replay != bank.eval) is recorded
            assert replay(s, v, d).tobytes() == bank.eval(s, v, d).tobytes()


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
        got = ModelBank(models).argmax(v, d)
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
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
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

    def test_mixed_bank_takes_each_class_closed_form(self):
        models = [HOME, Quadratic(0.3), CPU, Bump(0.6), AffineNormalizer.fit(CPU_WIDE, (0.0, 1.0))]
        bank = ModelBank(models)
        rng = np.random.default_rng(5)
        v = rng.uniform(0.0, 1.0, size=(4, 2, 5))
        d = rng.uniform(0.0, 1.0, size=(4, 2, 5))
        got = bank.argmax(v, d)
        assert np.array_equal(got[..., 0], np.clip(d[..., 0] - 0.125, 0.0, 1.0))
        assert np.array_equal(got[..., 1], np.full((4, 2), 0.3))
        assert np.array_equal(got[..., 2], np.clip(np.maximum(v[..., 2], 1e-3), 0.0, 1.0))
        assert np.array_equal(got[..., 3], np.clip(0.6 + 0.2 * d[..., 3], 0.0, 1.0))
        assert np.array_equal(got[..., 4], np.maximum(v[..., 4], 0.25))
        self.assert_matches_reference(models, v, d)

    def test_argmax_never_evaluates_formula(self, monkeypatch):
        calls = []
        for cls in (HomeEnergyModel, CpuBandwidthModel, Quadratic, Bump):
            def counted(s, *args, formula=cls.formula):
                calls.append(np.shape(s))
                return formula(s, *args)

            monkeypatch.setattr(cls, "formula", staticmethod(counted))
        fitted = AffineNormalizer.fit(HOME, (0.2, 0.8))
        for models, groups in (([HOME, fitted], 1),
                               ([HOME, Quadratic(0.3), Bump(0.6), CPU, fitted], 4)):
            bank = ModelBank(models)
            calls.clear()  # the fit and the last eval were counted
            got = bank.argmax(np.full(len(models), 0.4), np.full(len(models), 0.6))
            assert calls == []
            assert got[0] == got[-1] == 0.6 - 0.125  # d - b*h/(2a)
            bank.eval(0.5, 0.4, 0.6)
            assert len(calls) == groups

    def test_group_loop_matches_each_tasks_own_bank_bitwise(self):
        models = [HOME, Bump(0.6), Quadratic(0.3), CPU, Bump(-0.2),
                  AffineNormalizer.fit(Quadratic(0.8), (0.0, 1.0)),
                  AffineNormalizer.fit(CPU_WIDE, (0.0, 1.0))]
        rng = np.random.default_rng(7)
        v = rng.uniform(0.0, 1.0, size=(3, len(models)))
        d = rng.uniform(0.0, 1.0, size=(3, len(models)))
        got = ModelBank(models).argmax(v, d)
        for i, m in enumerate(models):
            alone = ModelBank([m]).argmax(v[:, i:i + 1], d[:, i:i + 1])
            assert np.array_equal(got[:, i], alone[:, 0])

    def test_scalar_arguments_broadcast_over_tasks(self):
        bank = ModelBank([HOME, AffineNormalizer.fit(HOME, (0.2, 0.8))])
        out = bank.argmax(0.3, 0.6)
        assert out.shape == (2,)
        assert np.array_equal(out, [0.475, 0.475])


class NanModel(UtilityModel):
    """Within bounds, except NaN for levels above one half."""

    bound_c = 2.0

    @staticmethod
    def formula(s, v, d):
        return np.where(np.asarray(s) > 0.5, math.nan, 1.5 + 0.0 * (v + d))


def test_non_finite_utility_fails_the_bounds_check():
    violation = validate_assumptions(NanModel(), (0.4, 0.6))
    assert violation["check"] == "bounds"
    assert math.isnan(violation["value"])


class ConvexModel(UtilityModel):
    """Within bounds, but convex in the level: curvature 2 everywhere."""

    bound_c = 2.0

    @staticmethod
    def formula(s, v, d):
        return 1.5 + (s - 0.5) ** 2 + 0.0 * (v + d)


class WrongGradientModel(UtilityModel):
    """Concave and within bounds; ``grad_s`` is off by one everywhere."""

    bound_c = 3.0

    @staticmethod
    def formula(s, v, d):
        return 2.0 - (s - d) ** 2 + 0.0 * v

    def grad_s(self, s, v, d):
        return 1.0 - 2.0 * (s - d)


def test_concavity_violation_located_on_the_interior_levels():
    violation = validate_assumptions(ConvexModel(), (0.2, 0.8))
    value = violation.pop("value")
    # The first interior level of the 33-point grid, at the lowest share
    # and demand.
    assert violation == {
        "check": "concavity", "s": 1.0 / 32.0, "v": 0.0, "d": 0.2,
    }
    assert value == pytest.approx(2.0, rel=1e-9)


def test_gradient_violation_located_on_the_inner_levels():
    # The bounds and concavity checks pass: the gradient check comes last.
    violation = validate_assumptions(WrongGradientModel(), (0.2, 0.8))
    value = violation.pop("value")
    assert violation == {
        "check": "gradient", "s": 1.0 / 32.0, "v": 0.0, "d": 0.2,
    }
    assert value == pytest.approx(-1.0, rel=1e-6)
