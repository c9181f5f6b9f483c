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
        grid_n: int = 33,
        margin: float = 0.02,
    ) -> "AffineNormalizer":
        """Rescale ``inner`` into [1, c_target) over its certified box.

        The grid extrema are mapped onto [1, 1 + (1-margin)*(c_target-1)];
        the margin absorbs between-node wiggle of the continuous model.
        """
        if c_target <= 1.0:
            raise ConfigError("c_target must be > 1")
        u = _grid_eval(inner, demand_range, grid_n)
        lo, hi = float(u.min()), float(u.max())
        if hi - lo < 1e-12:
            raise ConfigError("inner model is constant on the grid; cannot fit")
        scale = (1.0 - margin) * (c_target - 1.0) / (hi - lo)
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
    v_lo, v_hi = model.v_range()
    s = np.linspace(0.0, 1.0, grid_n)
    v = np.linspace(v_lo, v_hi, grid_n)
    d = np.linspace(demand_range[0], demand_range[1], grid_n)
    return model.eval(s[:, None, None], v[None, :, None], d[None, None, :])


def validate_assumptions(
    model: UtilityModel,
    demand_range: tuple[float, float],
    grid_n: int = 33,
) -> AssumptionReport:
    """Check 1 <= u < bound_c and concavity in s on a grid_n^3 lattice.

    A utility that is not finite fails the bounds check. Concavity uses
    centered second differences along s (tolerance +1e-8 on the curvature
    estimate). If the model exposes an analytic gradient, a central finite
    difference is compared against it at every interior lattice point.
    """
    if grid_n < 3:
        raise ValueError(f"grid_n must be >= 3, got {grid_n}")
    v_lo, v_hi = model.v_range()
    s = np.linspace(0.0, 1.0, grid_n)
    v = np.linspace(v_lo, v_hi, grid_n)
    d = np.linspace(demand_range[0], demand_range[1], grid_n)
    u = model.eval(s[:, None, None], v[None, :, None], d[None, None, :])

    first_violation = None

    def _locate(mask3d, check: str, values) -> dict:
        idx = np.argwhere(mask3d)[0]
        return {
            "check": check,
            "s": float(s[idx[0]]),
            "v": float(v[idx[1]]),
            "d": float(d[idx[2]]),
            "value": float(values[tuple(idx)]),
        }

    # Written so that a NaN utility counts as a violation.
    bad = ~((u >= 1.0 - 1e-9) & (u < model.bound_c))
    bounds_ok = not bool(bad.any())
    if not bounds_ok:
        first_violation = _locate(bad, "bounds", u)

    ds = s[1] - s[0]
    curvature = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (ds * ds)
    bad_curv = curvature > 1e-8
    concave_ok = not bool(bad_curv.any())
    if not concave_ok and first_violation is None:
        pad = np.zeros_like(u, dtype=bool)
        pad[1:-1] = bad_curv
        padded_vals = np.zeros_like(u)
        padded_vals[1:-1] = curvature
        first_violation = _locate(pad, "concavity", padded_vals)

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
            gradient_ok = not bool((err > 0.0).any())
            if not gradient_ok and first_violation is None:
                idx = np.argwhere(err > 0.0)[0]
                first_violation = {
                    "check": "gradient",
                    "s": float(s_in[idx[0]]),
                    "v": float(v[idx[1]]),
                    "d": float(d[idx[2]]),
                    "value": float(np.broadcast_to(g_fd - g, err.shape)[tuple(idx)]),
                }

    return AssumptionReport(
        bounds_ok=bounds_ok,
        concave_ok=concave_ok,
        gradient_ok=gradient_ok,
        first_violation=first_violation,
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


class ModelBank:
    """Vectorized evaluation of a heterogeneous model list across tasks.

    Groups tasks by model class and evaluates each group's ``formula`` on
    stacked parameter arrays, so a whole population evaluates in a handful
    of array expressions; models without ``params`` fall back to a
    per-task loop. Array arguments may carry leading batch axes, with tasks
    indexed along the last axis.
    """

    def __init__(self, models: Sequence[UtilityModel]):
        self.n = len(models)
        self.models = tuple(models)
        unwrapped = [_unwrap(m) for m in models]
        groups: dict[type, list[int]] = {}
        other = []
        for i, (inner, _, _) in enumerate(unwrapped):
            if inner.params:
                groups.setdefault(type(inner), []).append(i)
            else:
                other.append(i)
        # One (formula, argmax_formula, task index, parameter arrays, scale,
        # shift) per class.
        self._groups = []
        search = list(other)
        for cls, idx in groups.items():
            inners, scales, shifts = zip(*(unwrapped[i] for i in idx))
            params = tuple(np.array([getattr(m, p) for m in inners]) for p in cls.params)
            self._groups.append((
                cls.formula, cls.argmax_formula, np.array(idx), params,
                np.array(scales), np.array(shifts),
            ))
            if cls.argmax_formula is None:
                search.extend(idx)
        self._other = tuple(other)
        self._single = self._groups[0] if len(self._groups) == 1 and not other else None
        # Tasks without a closed-form maximizer, left to the search.
        self._search = np.array(sorted(search), dtype=int)

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
        return self._eval_groups(s, v, d, affine=True)

    def _eval_groups(self, s, v, d, affine: bool) -> np.ndarray:
        """Each class group on its columns, then the models without ``params``.

        With ``affine=False`` a group's tasks get their unwrapped ``formula``,
        without the scale and shift of their wrappers.
        """
        shape = np.broadcast_shapes(s.shape, v.shape, d.shape, (self.n,))
        out = np.empty(shape)
        s, v, d = (np.broadcast_to(x, shape) for x in (s, v, d))
        for formula, _, idx, params, scale, shift in self._groups:
            u = formula(s[..., idx], v[..., idx], d[..., idx], *params)
            out[..., idx] = scale * u + shift if affine else u
        for i in self._other:
            out[..., i] = self.models[i].eval(s[..., i], v[..., i], d[..., i])
        return out

    def argmax(self, v, d, tol: float = 1e-6) -> np.ndarray:
        """Per-task levels in [0, 1] maximizing the utility at fixed (v, d).

        Classes that declare ``argmax_formula`` are solved in closed form; an
        affine wrapper keeps the maximizer, since its scale is > 0. The other
        tasks get a vectorized golden-section search down to a bracket of
        width ``tol``, valid because validated models are concave in s. For
        the same reason a class group is searched on its unwrapped
        ``formula``: a tiny wrapper scale would flatten the peak to rounding.
        The result has shape ``broadcast_shapes(v, d, (n,))``.
        """
        if tol <= 0.0:
            raise ValueError("tol must be > 0")
        v = np.asarray(v, dtype=float)
        d = np.asarray(d, dtype=float)
        shape = np.broadcast_shapes(v.shape, d.shape, (self.n,))
        out = np.empty(shape)
        if self._single is not None and self._single[1] is not None:
            _, argmax_formula, _, params, _, _ = self._single
            out[...] = argmax_formula(v, d, *params)
            return out
        v = np.broadcast_to(v, shape)
        d = np.broadcast_to(d, shape)
        for _, argmax_formula, idx, params, _, _ in self._groups:
            if argmax_formula is not None:
                out[..., idx] = argmax_formula(v[..., idx], d[..., idx], *params)
        if not self._search.size:
            return out
        a = np.zeros(shape)
        b = np.ones(shape)
        x1 = b - _INVPHI * (b - a)
        x2 = a + _INVPHI * (b - a)
        f1 = self._eval_groups(x1, v, d, affine=False)
        f2 = self._eval_groups(x2, v, d, affine=False)
        width = 1.0
        while width > tol:
            take = f1 < f2
            a = np.where(take, x1, a)
            b = np.where(take, b, x2)
            x1_new = b - _INVPHI * (b - a)
            x2_new = a + _INVPHI * (b - a)
            # Only one bracket end moved per lane; re-evaluate both lanes
            # anyway, the evaluation is a cheap closed form.
            x1, x2 = x1_new, x2_new
            f1 = self._eval_groups(x1, v, d, affine=False)
            f2 = self._eval_groups(x2, v, d, affine=False)
            width *= _INVPHI
        # The search runs on every lane; only those without a closed form
        # keep its result.
        out[..., self._search] = (0.5 * (a + b))[..., self._search]
        return out
