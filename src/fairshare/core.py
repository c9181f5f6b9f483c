"""Shared domain types: task descriptions, engine configuration, seeded noise.

Everything here is immutable after construction. ``DemandTable`` is the one
step -> demand lookup of a task set, which the engine and the summaries
read; ``EngineConfig.from_dict`` is the one reader of engine settings, for
builtin overrides, scenario files and manifests alike. ``NoiseSource`` is a
pure function of its key, so values can be drawn in any order (or in bulk)
and replayed exactly from the same seed. ``fairness_from_utilities`` and the
filter constants are the definitions the engine's diagnostics and the
oracles share. This module is the first layer: it imports nothing from the
package at run time.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .utility import UtilityModel

__all__ = [
    "ConfigError",
    "DemandSchedule",
    "DemandTable",
    "EngineConfig",
    "FairshareError",
    "FeasibilityBreach",
    "MeasurementError",
    "NoiseSource",
    "StepError",
    "TaskSpec",
    "demand_table",
    "fairness_from_utilities",
    "uniform_allocation",
]


class FairshareError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(FairshareError):
    """Configuration or scenario input is invalid."""


class StepError(FairshareError):
    """An update failed; names the ``step``, the ``task`` and the ``value``.

    The engine aborts instead of repairing the state, so a bad measurement
    or a misconfigured step size is loud rather than silently masked. When
    raised from a run, ``trace`` holds the records of the steps completed
    before the failing one.
    """

    def __init__(self, message: str, step: int, task: int, value: float):
        super().__init__(f"step {step}, task {task}: {message}")
        self.step = step
        self.task = task
        self.value = value
        self.trace = None


class MeasurementError(StepError):
    """A utility measurement was not finite and positive."""


class FeasibilityBreach(StepError):
    """A share update left the unit box; the step size is too large."""


@dataclass(frozen=True)
class DemandSchedule:
    """Piecewise-constant demand indexed by engine step.

    ``zones`` is an ordered sequence of ``(start_step, value)`` pairs, each
    start an integer and each value a finite number, stored as a tuple of
    ``(int, float)``; the first zone must start at step 0 and the last zone
    extends forever.
    """

    zones: tuple[tuple[int, float], ...]

    def __post_init__(self):
        for z, pair in enumerate(self.zones):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(
                    f"demand zone {z} must be a [start, value] pair, got {pair!r}")
        zones = tuple((_integral("demand zone start", k), float(_finite("demand value", d)))
                      for k, d in self.zones)
        object.__setattr__(self, "zones", zones)
        if not zones:
            raise ConfigError("demand schedule needs at least one zone")
        starts = [k for k, _ in zones]
        if starts[0] != 0:
            raise ConfigError("first demand zone must start at step 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigError("demand zone starts must be strictly increasing")
        if starts[-1] >= 2**63:
            # The demand table indexes steps as int64.
            raise ConfigError(f"demand zone starts must be below 2**63, got {starts[-1]}")

    @classmethod
    def constant(cls, value: float) -> "DemandSchedule":
        return cls(((0, value),))

    def at(self, k: int) -> float:
        """Demand value at step ``k`` (defined for every k >= 0)."""
        if k < 0:
            raise ValueError(f"step index must be >= 0, got {k}")
        value = self.zones[0][1]
        for start, zone_value in self.zones:
            if k < start:
                break
            value = zone_value
        return value

    def span(self) -> tuple[float, float]:
        """(min, max) over all zone values; used to size validation grids."""
        vals = [value for _, value in self.zones]
        return min(vals), max(vals)


@dataclass(frozen=True)
class TaskSpec:
    """Immutable description of one task: weight, utility model, demand.
    A task is named by its position in its task set."""

    weight: float
    utility: "UtilityModel"
    demand: DemandSchedule

    def __post_init__(self):
        if not (0.0 < self.weight <= 1.0):
            raise ConfigError(f"weight must be in (0, 1], got {self.weight}")


@dataclass(frozen=True, eq=False)
class DemandTable:
    """Merged demand lookup over all tasks' schedules.

    ``breaks`` are the sorted distinct zone starts; row ``r`` of ``values``
    is the demand vector in effect from ``breaks[r]`` up to the next break.
    """

    breaks: np.ndarray
    values: np.ndarray

    def at(self, k) -> np.ndarray:
        """Demand vector at step ``k``; one row per step for an array of steps.
        A negative step is a ValueError naming it, as in ``DemandSchedule.at``."""
        rows = np.searchsorted(self.breaks, k, side="right") - 1
        if np.any(rows < 0):
            raise ValueError(f"step index must be >= 0, got {np.min(k)}")
        return self.values[rows]


def demand_table(specs: Sequence[TaskSpec]) -> DemandTable:
    """The merged demand lookup of a task set."""
    breaks = sorted({k0 for t in specs for k0, _ in t.demand.zones})
    values = [[t.demand.at(k0) for t in specs] for k0 in breaks]
    return DemandTable(np.array(breaks, dtype=np.int64), np.array(values, dtype=float))


def _integral(key: str, value) -> int:
    """``value`` as an int; a float with no fractional part (``1.2e5``) and a
    numpy integer convert."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _finite(key: str, value):
    """``value`` itself if it is a finite real number, else a ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return value


def _check_seed(seed) -> None:
    """Raise ``ConfigError`` unless ``seed`` is an integer in [0, 2**64),
    the seeds the noise keys and the oracles' random starts take."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if not (0 <= seed < 2**64):
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class EngineConfig:
    """Step sizes, filter gain, noise bounds, horizon and seed for one run.

    ``horizon`` is the number of steps, at least 1: a run that takes no
    step has nothing to judge. The level update uses the effective step
    ``epsilon * mu`` with ``mu = epsilon ** -mu_exponent``, so it dominates
    the share step as epsilon shrinks (any exponent in (0, 1) preserves that
    separation).
    """

    epsilon: float
    mu_exponent: float = 0.05
    gamma: float = 100.0
    eta_bar: float = 0.0
    zeta_bar: float = 0.0
    horizon: int = 10_000
    seed: int = 0
    s_init: float = 0.5
    v_init: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("epsilon", "mu_exponent", "gamma", "eta_bar", "zeta_bar", "s_init"):
            _finite(name, getattr(self, name))
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if not (0.0 < self.mu_exponent < 1.0):
            raise ConfigError(
                f"mu_exponent must lie in (0, 1), got {self.mu_exponent}"
            )
        if self.gamma <= 0.0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        for name in ("eta_bar", "zeta_bar"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not isinstance(self.horizon, int) or isinstance(self.horizon, bool):
            raise ConfigError(f"horizon must be an integer, got {self.horizon!r}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        _check_seed(self.seed)
        if not (0.0 <= self.s_init <= 1.0):
            raise ConfigError(f"s_init must be in [0, 1], got {self.s_init}")
        if self.v_init is not None:
            if not isinstance(self.v_init, (list, tuple)):
                raise ConfigError(f"v_init must be a list of numbers, got {self.v_init!r}")
            object.__setattr__(self, "v_init",
                               tuple(float(_finite("v_init", x)) for x in self.v_init))
            arr = np.asarray(self.v_init, dtype=float)
            if arr.size == 0:
                raise ConfigError("v_init cannot be empty")
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ConfigError("v_init entries must lie in [0, 1]")
            if abs(float(arr.sum()) - 1.0) > 1e-12:
                raise ConfigError(
                    f"v_init must lie on the unit simplex, sum={arr.sum()!r}"
                )

    @classmethod
    def from_dict(cls, doc: dict) -> "EngineConfig":
        """The config an engine section or override dict describes.

        The one reader of builtin overrides, scenario files and manifests:
        an unknown key is a ConfigError naming it, and ``horizon``/``seed``
        must be integers (an integral float such as ``1.2e5`` converts).
        """
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown engine key(s): {sorted(unknown)}")
        doc = {k: _integral(k, v) if k in ("horizon", "seed") else v
               for k, v in doc.items()}
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(f"engine: {exc}") from exc

    @property
    def mu(self) -> float:
        return self.epsilon ** (-self.mu_exponent)

    @property
    def eps_mu(self) -> float:
        """Effective step of the level recursion, epsilon ** (1 - exponent)."""
        return self.epsilon * self.mu

    @property
    def eps_mu_gamma(self) -> float:
        """Filter contraction product; must stay below 1 for stable filters."""
        return self.eps_mu * self.gamma


# Initial gap between a level and its filter; avoids a degenerate zero
# denominator on the very first direction estimate.
FILTER_INIT_OFFSET = 1e-3
# Below this magnitude the level has not moved, so no direction estimate
# exists and the drift term is zeroed (dither keeps exploring).
RATIO_GUARD = 1e-12


def fairness_from_utilities(weights, utilities, v) -> np.ndarray:
    """Fairness index from known utility values.

    Component i is (1 - v_i) * w_i - v_i * sum_{j != i} w_j with
    w = weights / utilities, which simplifies to w_i - v_i * sum(w). Positive
    values flag resource deficiency, negative values a surplus; the vector
    sums to zero whenever v sums to one. The sum runs over the last (task)
    axis, so a batch of rows gives one index per row.
    """
    w = np.asarray(weights, dtype=float) / np.asarray(utilities, dtype=float)
    return w - np.asarray(v, dtype=float) * w.sum(axis=-1, keepdims=True)


def uniform_allocation(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError(f"task count must be >= 1, got {n}")
    return np.full(n, 1.0 / n)


# SplitMix64 finalizer constants (Steele et al. mixing function).
_U64 = np.uint64
_GOLD = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_SH30 = _U64(30)
_SH27 = _U64(27)
_SH31 = _U64(31)
_SH11 = _U64(11)
_INV53 = 1.0 / float(1 << 53)

CHANNEL_MEASUREMENT = 0
CHANNEL_DITHER = 1


def _mix(z):
    # uint64 array arithmetic wraps modulo 2**64 by design, without a warning.
    z = z + _GOLD
    z = (z ^ (z >> _SH30)) * _MIX1
    z = (z ^ (z >> _SH27)) * _MIX2
    return z ^ (z >> _SH31)


def _keyed_unit(seed, task, channel, step):
    """Uniform [0, 1) as a pure function of (seed, task, channel, step).

    The seed is keyed as a one-element array, so every step of ``_mix`` is
    array arithmetic, which wraps without an overflow warning.
    """
    h = _mix(np.array([seed], dtype=_U64))
    h = _mix(h ^ task)
    h = _mix(h ^ channel)
    h = _mix(h ^ step)
    # The top 53 bits convert to float64 exactly.
    return (h >> _SH11) * _INV53


@dataclass(frozen=True)
class NoiseSource:
    """Counter-based noise streams, one per (task, channel), keyed by seed.

    Measurement noise and dither are i.i.d. uniform on [-bound, +bound].
    Identical seeds reproduce bit-identical sequences regardless of the
    order draws are made in: row ``k`` of any block equals
    ``measurement_block(k, k + 1, n)[0]``, however the steps are chunked.
    A bound that is not a finite number >= 0, or an ``eta_bar`` >= 1, is a
    ConfigError naming the field and the value.
    """

    seed: int
    eta_bar: float = 0.0
    zeta_bar: float = 0.0

    def __post_init__(self):
        _check_seed(self.seed)
        for name in ("eta_bar", "zeta_bar"):
            bound = _finite(name, getattr(self, name))
            if bound < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {bound}")
        # As validate_config requires of an engine's own config.
        if self.eta_bar >= 1.0:
            raise ConfigError(f"eta_bar must be < 1, got {self.eta_bar}")

    def _draw_block(self, k0: int, k1: int, n: int, channel: int, bound: float) -> np.ndarray:
        if bound == 0.0:
            return np.zeros((k1 - k0, n))
        steps = np.arange(k0, k1, dtype=np.uint64)[:, None]
        tasks = np.arange(n, dtype=np.uint64)[None, :]
        u = _keyed_unit(self.seed, tasks, _U64(channel), steps)
        return bound * (2.0 * u - 1.0)

    def measurement_block(self, k0: int, k1: int, n: int) -> np.ndarray:
        return self._draw_block(k0, k1, n, CHANNEL_MEASUREMENT, self.eta_bar)

    def dither_block(self, k0: int, k1: int, n: int) -> np.ndarray:
        return self._draw_block(k0, k1, n, CHANNEL_DITHER, self.zeta_bar)
