"""Pluggable task performance models and their validators.

A model maps (level s, share v, demand d) to a scalar utility. Validated
models are bounded into [1, bound_c) and concave in the level, which is what
the update dynamics and the analytic bounds rely on. ``AffineNormalizer``
rescales any model into that band without moving its level optimum.
``ModelBank`` evaluates a task set's models together, and for the hot
loops replays their formulas as a recorded straight line of ufunc calls.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

from .core import ConfigError, _finite

__all__ = [
    "AffineNormalizer",
    "CpuBandwidthModel",
    "HomeEnergyModel",
    "MODEL_TYPES",
    "ModelBank",
    "UtilityModel",
    "validate_assumptions",
]

# Points per axis of the lattice that fits and checks a model.
_GRID_N = 33


class UtilityModel:
    """Interface for performance models.

    Subclasses provide ``bound_c`` (declared ceiling, > 1) and two static
    methods, pure and numpy-broadcastable, fed by the fields the tuple
    ``params`` (possibly empty) names: ``formula(s, v, d, *params)``, the
    utility, which ``eval`` and ``ModelBank`` read, and
    ``argmax_formula(v, d, *params)``, the level in [0, 1] that maximizes
    ``formula`` at fixed (v, d), which ``ModelBank.argmax`` reads. A bank
    also runs a class's formulas at the other classes' tasks and drops
    those values, so a formula must accept any task's (s, v, d) without
    raising.
    A ``formula`` that only applies ufuncs and arithmetic operators to its
    arguments runs in the step loop as a recorded replay
    (``ModelBank.replay``); one that converts an argument (``np.asarray``),
    calls another numpy function (``np.where``) or branches on a value
    runs as itself there, through ``ModelBank.eval``, a few times slower.
    ``grad_s`` optionally gives the exact gradient for cross-checks;
    ``v_range`` declares the share interval the model is certified on.
    """

    bound_c: float
    params: tuple[str, ...] = ()

    def eval(self, s, v, d):
        return self.formula(s, v, d, *(getattr(self, p) for p in self.params))

    grad_s: Callable | None = None

    def v_range(self) -> tuple[float, float]:
        return (0.0, 1.0)


@dataclass(frozen=True)
class HomeEnergyModel(UtilityModel):
    """Comfort-minus-energy utility: a*(kappa - (s-d)^2) + b*(v - h*s) + c.

    Quadratic comfort peaks where the level meets the demand set-point; the
    energy term rewards staying under the assigned share at linear rate h.
    Curvature in s is -2a everywhere, so concavity holds for any a > 0.
    """

    a: float
    b: float
    c: float
    kappa: float
    h: float
    bound_c: float = field(default=0.0)
    params = ("a", "b", "c", "kappa", "h")

    def __post_init__(self):
        for name in (*self.params, "bound_c"):
            _finite(f"HomeEnergyModel.{name}", getattr(self, name))
        for name in self.params:
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"HomeEnergyModel.{name} must be > 0")
        if self.bound_c == 0.0:
            # Loose default ceiling: sup over the unit box plus margin.
            object.__setattr__(
                self, "bound_c", self.a * self.kappa + self.b + self.c + 1e-6
            )
        if self.bound_c <= 1.0:
            raise ConfigError("bound_c must be > 1")

    @staticmethod
    def formula(s, v, d, a, b, c, kappa, h):
        return a * (kappa - (s - d) ** 2) + b * (v - h * s) + c

    @staticmethod
    def argmax_formula(v, d, a, b, c, kappa, h):
        # Stationary point of the concave quadratic in s, clipped to [0, 1].
        return np.clip(d - b * h / (2.0 * a), 0.0, 1.0)

    def grad_s(self, s, v, d):
        return -2.0 * self.a * (s - d) - self.b * self.h


@dataclass(frozen=True)
class CpuBandwidthModel(UtilityModel):
    """Soft-deadline utility: -a*(h - theta*s/v)^2 + b.

    The response time theta*s/v is compared against the deadline h; utility
    peaks when they match. Shares below ``v_floor`` evaluate at the floor so
    the model stays defined during transients.
    """

    a: float
    b: float
    h: float
    theta: float
    v_floor: float = 1e-3
    bound_c: float = field(default=0.0)
    params = ("a", "b", "h", "theta", "v_floor")

    def __post_init__(self):
        for name in (*self.params, "bound_c"):
            _finite(f"CpuBandwidthModel.{name}", getattr(self, name))
        for name in ("a", "b", "h", "theta"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"CpuBandwidthModel.{name} must be > 0")
        if not (0.0 < self.v_floor <= 1.0):
            raise ConfigError("v_floor must be in (0, 1]")
        if self.bound_c == 0.0:
            object.__setattr__(self, "bound_c", self.b + 1e-6)
        if self.bound_c <= 1.0:
            raise ConfigError("bound_c must be > 1")

    @staticmethod
    def formula(s, v, d, a, b, h, theta, v_floor):
        ve = np.maximum(v, v_floor)
        return -a * (h - theta * s / ve) ** 2 + b

    @staticmethod
    def argmax_formula(v, d, a, b, h, theta, v_floor):
        # The response time theta*s/ve meets the deadline h.
        return np.clip(h * np.maximum(v, v_floor) / theta, 0.0, 1.0)

    def grad_s(self, s, v, d):
        ve = np.maximum(v, self.v_floor)
        return 2.0 * self.a * self.theta / ve * (self.h - self.theta * s / ve)

    def v_range(self) -> tuple[float, float]:
        return (self.v_floor, 1.0)


# Scenario ``type`` name of each built-in model; the manifest reads and
# writes a model as its type plus its ``params``.
MODEL_TYPES = {"home_energy": HomeEnergyModel, "cpu_bandwidth": CpuBandwidthModel}


@dataclass(frozen=True)
class AffineNormalizer(UtilityModel):
    """Affine wrapper scale*inner + shift; preserves concavity and argmax.

    A wrapper given another wrapper folds the two into one affine of the
    raw model, so ``inner`` is never a wrapper: it evaluates the rounding
    ``ModelBank`` evaluates.
    """

    inner: UtilityModel
    scale: float
    shift: float
    bound_c: float

    def __post_init__(self):
        for name in ("scale", "shift", "bound_c"):
            _finite(f"AffineNormalizer.{name}", getattr(self, name))
        if self.scale <= 0.0:
            raise ConfigError("scale must be > 0")
        if self.bound_c <= 1.0:
            raise ConfigError("bound_c must be > 1")
        if isinstance(self.inner, AffineNormalizer):
            # scale*(inner.scale*u + inner.shift) + shift.
            inner, scale = self.inner, self.scale
            object.__setattr__(self, "inner", inner.inner)
            object.__setattr__(self, "scale", scale * inner.scale)
            object.__setattr__(self, "shift", scale * inner.shift + self.shift)
        if self.inner.grad_s is None:
            # A wrapper has a gradient only where the model it wraps does.
            object.__setattr__(self, "grad_s", None)

    @classmethod
    def fit(
        cls,
        inner: UtilityModel,
        demand_range: tuple[float, float],
        c_target: float = 2.0,
    ) -> "AffineNormalizer":
        """Rescale ``inner`` into [1, c_target) over its certified box.

        The extrema on the lattice of ``validate_assumptions`` are mapped
        onto [1, 1 + 0.98*(c_target-1)]; the 2 % margin absorbs between-node
        wiggle of the continuous model.
        """
        if _finite("c_target", c_target) <= 1.0:
            raise ConfigError("c_target must be > 1")
        *_, u = _grid_eval(inner, demand_range)
        lo, hi = float(u.min()), float(u.max())
        if hi - lo < 1e-12:
            raise ConfigError("inner model is constant on the grid; cannot fit")
        scale = (1.0 - 0.02) * (c_target - 1.0) / (hi - lo)
        shift = 1.0 - scale * lo
        return cls(inner=inner, scale=scale, shift=shift, bound_c=c_target)

    def eval(self, s, v, d):
        return self.scale * self.inner.eval(s, v, d) + self.shift

    def grad_s(self, s, v, d):
        return self.scale * self.inner.grad_s(s, v, d)

    def v_range(self) -> tuple[float, float]:
        return self.inner.v_range()


def _grid_eval(model: UtilityModel, demand_range):
    """The (s, v, d) axes of the _GRID_N^3 lattice over the model's certified
    box, and the utility at every lattice point."""
    v_lo, v_hi = model.v_range()
    s = np.linspace(0.0, 1.0, _GRID_N)
    v = np.linspace(v_lo, v_hi, _GRID_N)
    d = np.linspace(demand_range[0], demand_range[1], _GRID_N)
    return s, v, d, model.eval(s[:, None, None], v[None, :, None], d[None, None, :])


def validate_assumptions(
    model: UtilityModel, demand_range: tuple[float, float]
) -> dict | None:
    """Check 1 <= u < bound_c and concavity in s on a _GRID_N^3 lattice.

    A utility that is not finite fails the bounds check. Concavity uses
    centered second differences along s (tolerance +1e-8 on the curvature
    estimate). If the model exposes an analytic gradient, a central finite
    difference is compared against it at every interior lattice point; a
    wrapped model has one when the model it wraps does.
    Returns None if every check passes, else the first flagged point of the
    first failing check, in the order bounds, concavity, gradient: a dict
    of ``check``, ``s``, ``v``, ``d`` and the flagged ``value``.
    """
    s, v, d, u = _grid_eval(model, demand_range)

    def located(mask, check: str, values, s_axis) -> dict:
        """The first point of ``mask``, whose level axis is ``s_axis``."""
        i, j, k = np.argwhere(mask)[0]
        return {"check": check, "s": float(s_axis[i]), "v": float(v[j]),
                "d": float(d[k]), "value": float(values[i, j, k])}

    # Written so that a NaN utility counts as a violation.
    bad = ~((u >= 1.0 - 1e-9) & (u < model.bound_c))
    if bad.any():
        return located(bad, "bounds", u, s)

    ds = s[1] - s[0]
    curvature = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (ds * ds)
    bad = curvature > 1e-8
    if bad.any():
        return located(bad, "concavity", curvature, s[1:-1])

    if model.grad_s is None:
        return None
    h = 1e-5
    s_in = s[(s >= h) & (s <= 1.0 - h)]
    si, vi, di = s_in[:, None, None], v[None, :, None], d[None, None, :]
    g = model.grad_s(si, vi, di)
    g_fd = (model.eval(si + h, vi, di) - model.eval(si - h, vi, di)) / (2.0 * h)
    bad = np.abs(g_fd - g) - 1e-6 * (1.0 + np.abs(g)) > 0.0
    if bad.any():
        return located(bad, "gradient", np.broadcast_to(g_fd - g, bad.shape), s_in)
    return None


def _unwrap(model: UtilityModel) -> tuple[UtilityModel, float, float]:
    """The raw model under ``model`` and the affine applied after it."""
    if isinstance(model, AffineNormalizer):
        return model.inner, model.scale, model.shift
    return model, 1.0, 0.0


def _utility(group, s, v, d):
    """A class group's utilities: its formula, then its wrappers' affine."""
    formula, _, _, params, scale, shift = group
    return scale * formula(s, v, d, *params) + shift


class _Unrecordable(Exception):
    """A formula did something to an argument other than call a ufunc."""


class _Probed(Exception):
    """Carries the ufunc call that ``_Probe`` was asked to make."""


class _Probe(np.ndarray):
    """An array on which a ufunc call raises ``_Probed`` with the call
    instead of running it. numpy picks the ufunc of ``x ** y`` by the
    exponent (``square`` for ``x ** 2``); ``_Traced`` asks a probe which."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        raise _Probed(ufunc, inputs)


class _Traced(NDArrayOperatorsMixin):
    """An argument of a formula being recorded, or a value made from one.

    A ufunc call on it, an arithmetic operator included, is recorded by the
    ``_Recorder``; converting it to an array, passing it to another numpy
    function or testing its truth raises ``_Unrecordable``. ``sample`` is
    an array of its dtype and shape.
    """

    def __init__(self, recorder: "_Recorder", name: str, sample: np.ndarray):
        self.recorder, self.name, self.sample = recorder, name, sample

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs or ufunc.nout != 1:
            raise _Unrecordable(f"{ufunc.__name__}.{method} with {sorted(kwargs)}")
        return self.recorder.call(ufunc, inputs)

    def __pow__(self, other):
        probe = self.sample.view(_Probe)
        try:
            probe ** other
        except _Probed as call:
            ufunc, inputs = call.args
        else:
            raise _Unrecordable(f"** {other!r} without a ufunc")
        return self.recorder.call(ufunc, [self if x is probe else x for x in inputs])

    def __array__(self, *args, **kwargs):
        raise _Unrecordable("a conversion to an array")

    def __array_function__(self, func, types, args, kwargs):
        raise _Unrecordable(f"np.{func.__name__}")

    def __bool__(self):
        raise _Unrecordable("a branch on a value")


class _Recorder:
    """The ufunc calls made on ``_Traced`` values, as the lines of a
    function that makes them again, each into a buffer of its own, and the
    objects those lines name."""

    def __init__(self):
        self.objects: dict[str, object] = {}
        self.lines: list[str] = []

    def bind(self, obj, prefix: str) -> str:
        name = f"{prefix}{len(self.objects)}"
        self.objects[name] = obj
        return name

    def call(self, ufunc, inputs) -> _Traced:
        sample = ufunc(*(x.sample if isinstance(x, _Traced) else x for x in inputs))
        args = [x.name if isinstance(x, _Traced) else self.bind(x, "c") for x in inputs]
        out = self.bind(np.empty_like(sample), "b")
        # numpy deprecates a positional out for these two.
        args.append(f"out={out}" if ufunc in (np.maximum, np.minimum) else out)
        self.lines.append(f"{self.bind(ufunc, 'f')}({', '.join(args)})")
        return _Traced(self, out, sample)

    def copyto(self, out: _Traced, u: _Traced, mask: np.ndarray) -> None:
        self.lines.append(f"{self.bind(np.copyto, 'f')}({out.name}, {u.name}, "
                          f"where={self.bind(mask, 'c')})")

    def function(self, result: _Traced):
        """The recorded calls as a function of (s, v, d) returning ``result``,
        generated as source, as ``dataclasses`` generates its methods: a
        straight line of calls on names bound as its globals, which compiles
        faster than a closure over them and calls as fast."""
        body = "".join(f"    {line}\n" for line in self.lines)
        namespace = dict(self.objects)
        exec(f"def replay(s, v, d):\n{body}    return {result.name}\n", namespace)
        return namespace["replay"]


class ModelBank:
    """Vectorized evaluation of a heterogeneous model list across tasks.

    The tasks of each model class form one group, whose ``formula`` and
    ``argmax_formula`` run on parameter arrays as wide as the task set: at
    its own tasks they hold the tasks' parameters, and at the other classes'
    tasks they repeat its first task's, whose values a boolean task mask
    then drops. So every group runs on the whole arguments, with no gather
    or scatter, and a bank of one class is one call of each formula.
    Formulas read the unwrapped models; the folded scale and shift of their
    wrappers apply after. A class without ``formula``, or without
    ``argmax_formula``, is a ``ConfigError`` naming its first task. Array
    arguments may carry leading batch axes, with tasks indexed along the
    last axis. ``replay`` records the formulas once for arguments of one
    shape and repeats them without the formulas' Python.
    """

    def __init__(self, models: Sequence[UtilityModel]):
        unwrapped = [_unwrap(m) for m in models]
        first: dict[type, int] = {}
        for i, (inner, _, _) in enumerate(unwrapped):
            for method in ("formula", "argmax_formula"):
                if getattr(inner, method, None) is None:
                    raise ConfigError(
                        f"task {i}: {type(inner).__name__} declares no {method}")
            first.setdefault(type(inner), i)
        # One (formula, argmax_formula, task mask, parameter arrays, scale,
        # shift) per group, each array over all n tasks.
        self._groups = []
        for cls, i0 in first.items():
            mask = np.array([type(inner) is cls for inner, _, _ in unwrapped])
            inners, scales, shifts = zip(*(
                u if own else unwrapped[i0] for u, own in zip(unwrapped, mask)))
            self._groups.append((
                cls.formula, cls.argmax_formula, mask,
                tuple(np.array([getattr(m, p) for m in inners]) for p in cls.params),
                np.array(scales), np.array(shifts),
            ))
        self._replays: dict[tuple[int, ...], Callable] = {}

    def eval(self, s, v, d) -> np.ndarray:
        """Utilities for all tasks, in the broadcast shape of s, v, d and the
        task axis."""
        out = None
        for group in self._groups:
            u = _utility(group, s, v, d)
            if out is None:
                # A formula that does not read an argument leaves out its axes.
                shape = np.broadcast(s, v, d, u).shape
                out = u if u.shape == shape else np.broadcast_to(u, shape).copy()
            else:
                np.copyto(out, u, where=group[2])
        return out

    def replay(self, shape: tuple[int, ...]) -> Callable:
        """A function ``f(s, v, d)`` equal to ``eval`` bit for bit for s, v
        and d of shape ``shape``, tasks last, and much cheaper to call.

        Each group's formula, affine and mask are recorded once, on
        parameter arrays laid out to ``shape`` so that no operand
        broadcasts; ``f`` makes the same ufunc calls in the same order, into
        scratch buffers it owns, and returns one of them, which its next
        call overwrites. ``x ** 2`` makes the call numpy makes for it,
        ``square``. If a formula does more than call ufuncs on its
        arguments (see ``UtilityModel``), ``f`` is ``eval`` itself. The bank
        records once per shape and returns the same ``f`` for it after, so
        its callers share those buffers, as an engine's kernels of one lane
        do.
        """
        shape = tuple(shape)
        if shape not in self._replays:
            self._replays[shape] = self._record(shape)
        return self._replays[shape]

    def _record(self, shape: tuple[int, ...]) -> Callable:
        recorder = _Recorder()
        args = [_Traced(recorder, name, np.ones(shape)) for name in "svd"]

        def lay(x):
            return np.broadcast_to(x, shape).copy()

        out = None
        try:
            with np.errstate(all="ignore"):
                for formula, argmax_formula, mask, params, scale, shift in self._groups:
                    group = (formula, argmax_formula, lay(mask), tuple(map(lay, params)),
                             lay(scale), lay(shift))
                    u = _utility(group, *args)
                    if not isinstance(u, _Traced):
                        raise _Unrecordable("a utility that reads no argument")
                    if out is None:
                        out = u
                    else:
                        recorder.copyto(out, u, group[2])
        except (_Unrecordable, TypeError, AttributeError):
            # TypeError and AttributeError: what float(x), x[i] or x.shape
            # raise on a _Traced.
            return self.eval
        return recorder.function(out)

    def argmax(self, v, d) -> np.ndarray:
        """Per-task levels in [0, 1] maximizing the utility at fixed (v, d).

        Each group takes its class's ``argmax_formula`` on its own tasks;
        an affine wrapper keeps the maximizer, since its scale is > 0. The
        result has the broadcast shape of v, d and the task axis.
        """
        scale = self._groups[0][4]  # carries the task axis
        out = np.empty(np.broadcast(v, d, scale).shape)
        for _, argmax_formula, mask, params, _, _ in self._groups:
            np.copyto(out, argmax_formula(v, d, *params), where=mask)
        return out
