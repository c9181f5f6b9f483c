"""Pluggable task performance models and their validators.

A model maps (level s, share v, demand d) to a scalar utility. Validated
models are bounded into [1, bound_c) and concave in the level, which is what
the update dynamics and the analytic bounds rely on. ``AffineNormalizer``
rescales any model into that band without moving its level optimum.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import ConfigError, _finite

__all__ = [
    "AffineNormalizer",
    "AssumptionReport",
    "CpuBandwidthModel",
    "HomeEnergyModel",
    "MODEL_TYPES",
    "ModelBank",
    "UtilityModel",
    "validate_assumptions",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Points per axis of the lattice that fits and checks a model.
_GRID_N = 33


class UtilityModel:
    """Interface for performance models.

    Subclasses provide ``bound_c`` (declared ceiling, > 1) and either a
    static ``formula(s, v, d, *params)`` with the tuple ``params`` naming
    the fields that feed it, or their own ``eval(s, v, d)``; both are pure
    and numpy-broadcastable. ``ModelBank`` vectorizes models that declare
    ``params`` across tasks. A class with ``params`` may also declare a
    static ``argmax_formula(v, d, *params)``, the level in [0, 1] that
    maximizes ``formula`` at fixed (v, d); ``ModelBank.argmax`` uses it
    and falls back to golden-section search for models without one.
    ``grad_s`` optionally gives the exact gradient for cross-checks;
    ``v_range`` declares the share interval the model is certified on.
    """

    bound_c: float
    params: tuple[str, ...] = ()
    argmax_formula: Callable | None = None

    @staticmethod
    def formula(s, v, d, *params):
        raise NotImplementedError

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
    """Affine wrapper scale*inner + shift; preserves concavity and argmax."""

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
        *_, u = _grid_eval(inner, demand_range, _GRID_N)
        lo, hi = float(u.min()), float(u.max())
        if hi - lo < 1e-12:
            raise ConfigError("inner model is constant on the grid; cannot fit")
        scale = (1.0 - 0.02) * (c_target - 1.0) / (hi - lo)
        shift = 1.0 - scale * lo
        return cls(inner=inner, scale=scale, shift=shift, bound_c=c_target)

    def eval(self, s, v, d):
        return self.scale * self.inner.eval(s, v, d) + self.shift

    def grad_s(self, s, v, d):
        if self.inner.grad_s is None:
            raise NotImplementedError("inner model has no analytic gradient")
        return self.scale * self.inner.grad_s(s, v, d)

    def v_range(self) -> tuple[float, float]:
        return self.inner.v_range()


@dataclass
class AssumptionReport:
    """Grid-check outcome for the bound and concavity conditions."""

    bounds_ok: bool
    concave_ok: bool
    gradient_ok: bool | None
    first_violation: dict | None = None

    @property
    def passed(self) -> bool:
        return self.bounds_ok and self.concave_ok and self.gradient_ok is not False


def _grid_eval(model: UtilityModel, demand_range, grid_n: int):
    """The (s, v, d) axes of the grid_n^3 lattice over the model's certified
    box, and the utility at every lattice point."""
    v_lo, v_hi = model.v_range()
    s = np.linspace(0.0, 1.0, grid_n)
    v = np.linspace(v_lo, v_hi, grid_n)
    d = np.linspace(demand_range[0], demand_range[1], grid_n)
    return s, v, d, model.eval(s[:, None, None], v[None, :, None], d[None, None, :])


def validate_assumptions(
    model: UtilityModel,
    demand_range: tuple[float, float],
    grid_n: int = _GRID_N,
) -> AssumptionReport:
    """Check 1 <= u < bound_c and concavity in s on a grid_n^3 lattice.

    A utility that is not finite fails the bounds check. Concavity uses
    centered second differences along s (tolerance +1e-8 on the curvature
    estimate). If the model exposes an analytic gradient, a central finite
    difference is compared against it at every interior lattice point.
    ``first_violation`` is the first flagged point of the first failing
    check, in the order bounds, concavity, gradient.
    """
    if grid_n < 3:
        raise ValueError(f"grid_n must be >= 3, got {grid_n}")
    s, v, d, u = _grid_eval(model, demand_range, grid_n)
    violations = []

    def locate(mask, check: str, values, s_axis) -> None:
        """Note the first point of ``mask``, whose level axis is ``s_axis``."""
        i, j, k = np.argwhere(mask)[0]
        violations.append({"check": check, "s": float(s_axis[i]), "v": float(v[j]),
                           "d": float(d[k]), "value": float(values[i, j, k])})

    # Written so that a NaN utility counts as a violation.
    bad = ~((u >= 1.0 - 1e-9) & (u < model.bound_c))
    bounds_ok = not bool(bad.any())
    if not bounds_ok:
        locate(bad, "bounds", u, s)

    ds = s[1] - s[0]
    curvature = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (ds * ds)
    bad = curvature > 1e-8
    concave_ok = not bool(bad.any())
    if not concave_ok:
        locate(bad, "concavity", curvature, s[1:-1])

    gradient_ok: bool | None = None
    if model.grad_s is not None:
        h = 1e-5
        s_in = s[(s >= h) & (s <= 1.0 - h)]
        si = s_in[:, None, None]
        vi = v[None, :, None]
        di = d[None, None, :]
        try:
            g = model.grad_s(si, vi, di)
        except NotImplementedError:
            g = None
        if g is not None:
            g_fd = (model.eval(si + h, vi, di) - model.eval(si - h, vi, di)) / (2.0 * h)
            err = np.abs(g_fd - g) - 1e-6 * (1.0 + np.abs(g))
            bad = err > 0.0
            gradient_ok = not bool(bad.any())
            if not gradient_ok:
                locate(bad, "gradient", np.broadcast_to(g_fd - g, err.shape), s_in)

    return AssumptionReport(
        bounds_ok=bounds_ok,
        concave_ok=concave_ok,
        gradient_ok=gradient_ok,
        first_violation=violations[0] if violations else None,
    )


def _unwrap(model: UtilityModel) -> tuple[UtilityModel, float, float]:
    """Fold nested affine wrappers into a single (inner, scale, shift)."""
    scale, shift = 1.0, 0.0
    while isinstance(model, AffineNormalizer):
        # (scale, shift) is the transform applied after `model`; composing
        # with model's own affine gives scale*(model.scale*u + model.shift) + shift.
        scale, shift = scale * model.scale, scale * model.shift + shift
        model = model.inner
    return model, scale, shift


def _each_model(models: Sequence[UtilityModel]) -> Callable:
    """A group formula that evaluates ``models[j]`` on column j of its
    arguments, which share one shape."""
    def formula(s, v, d):
        out = np.empty(s.shape)
        for j, model in enumerate(models):
            out[..., j] = model.eval(s[..., j], v[..., j], d[..., j])
        return out

    return formula


def _golden_section(f: Callable, shape: tuple, tol: float) -> np.ndarray:
    """Levels in [0, 1] maximizing each lane of the concave ``f`` on arrays
    of shape ``shape``: golden-section search down to a bracket of width ``tol``."""
    a, b = np.zeros(shape), np.ones(shape)
    width = 1.0
    while width > tol:
        # One of the two points is the last step's in each lane; evaluating
        # both keeps every lane in one call of ``f``.
        x1 = b - _INVPHI * (b - a)
        x2 = a + _INVPHI * (b - a)
        take = f(x1) < f(x2)
        a = np.where(take, x1, a)
        b = np.where(take, b, x2)
        width *= _INVPHI
    return 0.5 * (a + b)


class ModelBank:
    """Vectorized evaluation of a heterogeneous model list across tasks.

    Every task belongs to one group: each class with ``params`` is a group
    whose ``formula`` runs on stacked parameter arrays, and the models
    without ``params`` form one more, whose formula evaluates each model on
    its own column. Formulas read the unwrapped models; the folded scale
    and shift of their wrappers apply after. Array arguments may carry
    leading batch axes, with tasks indexed along the last axis.
    """

    def __init__(self, models: Sequence[UtilityModel]):
        self.n = len(models)
        unwrapped = [_unwrap(m) for m in models]
        groups: dict[type | None, list[int]] = {}
        for i, (inner, _, _) in enumerate(unwrapped):
            groups.setdefault(type(inner) if inner.params else None, []).append(i)
        # One (formula, argmax_formula, task index, parameter arrays, scale,
        # shift) per group.
        self._groups = []
        for cls, idx in groups.items():
            inners, scales, shifts = zip(*(unwrapped[i] for i in idx))
            self._groups.append((
                cls.formula if cls else _each_model(inners),
                cls.argmax_formula if cls else None, np.array(idx),
                tuple(np.array([getattr(m, p) for m in inners]) for p in inners[0].params),
                np.array(scales), np.array(shifts),
            ))
        # A bank of one class evaluates without gathering its columns.
        self._single = self._groups[0] if len(groups) == 1 and None not in groups else None

    def laid_out(self, lanes: int) -> "ModelBank":
        """This bank with each group's parameter, scale and shift arrays
        tiled to ``(lanes, k)`` for its k tasks, so that on ``(lanes, n)``
        arguments no operand of ``eval`` broadcasts; it computes the same
        values."""
        bank = copy.copy(self)
        bank._groups = [
            (formula, argmax_formula, idx, tuple(np.tile(p, (lanes, 1)) for p in params),
             np.tile(scale, (lanes, 1)), np.tile(shift, (lanes, 1)))
            for formula, argmax_formula, idx, params, scale, shift in self._groups
        ]
        bank._single = bank._groups[0] if self._single is not None else None
        return bank

    def eval(self, s, v, d) -> np.ndarray:
        """Utilities for all tasks; s, v, d broadcast with tasks last."""
        s = np.asarray(s, dtype=float)
        v = np.asarray(v, dtype=float)
        d = np.asarray(d, dtype=float)
        if self._single is not None:
            formula, _, _, params, scale, shift = self._single
            return scale * formula(s, v, d, *params) + shift
        shape = np.broadcast_shapes(s.shape, v.shape, d.shape, (self.n,))
        out = np.empty(shape)
        s, v, d = (np.broadcast_to(x, shape) for x in (s, v, d))
        for formula, _, idx, params, scale, shift in self._groups:
            u = formula(s[..., idx], v[..., idx], d[..., idx], *params)
            out[..., idx] = scale * u + shift
        return out

    def argmax(self, v, d, tol: float = 1e-6) -> np.ndarray:
        """Per-task levels in [0, 1] maximizing the utility at fixed (v, d).

        Each group is solved on its own tasks: in closed form if its class
        declares ``argmax_formula`` (an affine wrapper keeps the maximizer,
        since its scale is > 0), else, as are the models without ``params``,
        by a vectorized golden-section search down to a bracket of width
        ``tol``, valid because validated models are concave in s. The search
        reads the group's unwrapped formula: a tiny wrapper scale would
        flatten the peak to rounding. The result has shape
        ``broadcast_shapes(v, d, (n,))``.
        """
        if not tol > 0.0:
            raise ValueError(f"tol must be > 0, got {tol!r}")
        v, d = np.asarray(v, dtype=float), np.asarray(d, dtype=float)
        shape = np.broadcast_shapes(v.shape, d.shape, (self.n,))
        out = np.empty(shape)
        if self._single is not None and self._single[1] is not None:
            _, argmax_formula, _, params, _, _ = self._single
            out[...] = argmax_formula(v, d, *params)
            return out
        v, d = np.broadcast_to(v, shape), np.broadcast_to(d, shape)
        for formula, argmax_formula, idx, params, _, _ in self._groups:
            vi, di = v[..., idx], d[..., idx]
            if argmax_formula is not None:
                out[..., idx] = argmax_formula(vi, di, *params)
            else:
                out[..., idx] = _golden_section(
                    lambda x: formula(x, vi, di, *params), vi.shape, tol)
        return out
