"""Measurement-driven fair resource allocation with demand-side level tuning.

A central manager repeatedly redistributes a unit resource among tasks and
tunes each task's operation level, using only noisy utility measurements.
Submodules, in layer order: ``core`` (types, config, noise, the fairness
index), ``utility`` (performance models), ``oracle`` (independent
verification and the config checks), ``dynamics`` (the stepping engine),
``scenario`` (builders and summaries), ``cli``. Each imports only the ones
before it, so the oracles never load the engine they check.
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
    fairness_from_utilities,
    uniform_allocation,
)
from .dynamics import (
    Engine,
    EngineSnapshot,
    RunTrace,
    TraceRows,
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
    validate_config,
)
from .scenario import (
    ScenarioResult,
    ZoneStats,
    ZoneSummary,
    build_identical_four,
    build_random,
    ledger_verdicts,
    summarize,
)
from .utility import (
    AffineNormalizer,
    CpuBandwidthModel,
    HomeEnergyModel,
    ModelBank,
    UtilityModel,
    validate_assumptions,
)

__version__ = "0.1.0"
