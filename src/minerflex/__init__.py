"""Profit-maximizing ancillary-service capacity profiles for mining fleets."""

from .cutting import Optimum
from .deployment import (
    allocate_deployment,
    cost_fixed_k,
    critical_type,
    effective_epsilon,
    realized_cost,
)
from .errors import (
    InfeasibleError,
    InvalidInputError,
    MinerflexError,
    ModelViolationError,
    NumericalError,
    ShortWindowError,
    TraceFormatError,
)
from .fleet import (
    FleetSpec,
    MachineType,
    canonicalize,
    fleet_from_rewards,
    load_fleet_config,
    mining_revenue_rate,
    net_reward,
)
from .online import (
    OgdConfig,
    RegretReport,
    hindsight_optimum,
    run_online,
)
from .oracle import (
    GridMcResult,
    GridSpec,
    StrategyReport,
    compare_strategies,
    grid_mc_optimum,
    lp_deployment_oracle,
)
from .programs import (
    BernoulliEps,
    ConstantEps,
    PriceResponsiveModel,
    ProgramSpec,
    Sampler,
    TruncatedExponential,
    UniformEps,
    fit_lambda,
    price_responsive_eps,
    program_sampler,
)
from .regulation import (
    RegInstance,
    RegJointModel,
    expected_reg_cost,
    expected_reg_gradient,
    sample_joint,
    solve_reg_profile,
)
from .sgd import (
    SgdConfig,
    SgdResult,
    project_feasible,
    sample_subgradient,
    solve,
    step_size,
    suboptimality_bound,
)
from .single_machine import ProgramStats, RiskConfig, best_program, profile_risk, risk_aware_solve
from .traces import (
    SynthesisSpec,
    Traces,
    estimate_stats,
    load_synthesis_spec,
    load_traces,
    per_slot_rewards,
    synthesize_traces,
    write_traces,
)

__version__ = "0.1.0"
