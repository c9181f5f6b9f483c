"""Measurement-driven fair resource allocation with demand-side level tuning.

A central manager repeatedly redistributes a unit resource among tasks and
tunes each task's operation level, using only noisy utility measurements.
Submodules: ``core`` (types, config, noise), ``utility`` (performance
models), ``dynamics`` (the stepping engine), ``oracle`` (independent
verification), ``scenario`` (builders and summaries), ``cli``.
"""
from .core import (
    ConfigError,
    DemandSchedule,
    EngineConfig,
    FairshareError,
    FeasibilityBreach,
    MeasurementError,
    NoiseSource,
    StepError,
    TaskSpec,
    uniform_allocation,
    validate_config,
)
from .dynamics import (
    Engine,
    EngineSnapshot,
    RunTrace,
    fairness_from_utilities,
    recurrence_window,
)
from .oracle import (
    BoundSet,
    FixedPointResult,
    OdeTrajectory,
    bounds,
    fair_fixed_point,
    integrate_full_ode,
    integrate_limiting_ode,
    probe_limit_points,
    safe_epsilon,
)
from .scenario import (
    ScenarioResult,
    ZoneSummary,
    build_identical_four,
    build_random,
    summarize,
)
from .utility import (
    AffineNormalizer,
    AssumptionReport,
    CpuBandwidthModel,
    HomeEnergyModel,
    ModelBank,
    UtilityModel,
    validate_assumptions,
)

__version__ = "0.1.0"
