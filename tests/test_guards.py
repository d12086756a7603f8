"""Every scalar precondition refuses NaN, infinities and values out of range the same way.

One table row per (entry point, quantity): the row names the finite values the
quantity accepts, and every other value of ``VALUES`` must raise
``InvalidInputError`` in the one wording of ``config.at_least``.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from minerflex import InvalidInputError
from minerflex.cli import _economics, _parse_risk
from minerflex.config import load_config
from minerflex.cutting import minimize
from minerflex.deployment import cost_fixed_k, effective_epsilon
from minerflex.fleet import MachineType, fleet_from_rewards, mining_revenue_rate
from minerflex.online import OgdConfig
from minerflex.oracle import GridSpec
from minerflex.programs import PriceResponsiveModel, ProgramSpec, TruncatedExponential
from minerflex.regulation import RegInstance, RegJointModel
from minerflex.sgd import SgdConfig, project_feasible, step_size
from minerflex.single_machine import ProgramStats, RiskConfig, best_program, risk_aware_solve
from minerflex.traces import PriceBlock

VALUES = [math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 5e-324]
# what a quantity accepts among the finite values; a float is never a count
NONNEGATIVE, POSITIVE, ANY, AT_LEAST_ONE, COUNT = (
    lambda x: x >= 0.0, lambda x: x > 0.0, lambda x: True, lambda x: x >= 1.0, lambda x: False
)
GUARD_MESSAGE = re.compile(r"must be (finite|an integer|>=? -?\d+), got ")
# any readable JSON file: load_config turns a parser's errors into InvalidInputError, as the command line sees them
CONFIG = Path(__file__).resolve().parent.parent / "configs" / "risk.json"

FLEET = fleet_from_rewards([100.0, 150.0], [30.0, 60.0])
MODEL = RegJointModel(0.5, TruncatedExponential(2.0), TruncatedExponential(3.0))
STATS = [ProgramStats(12.0, 0.12, 0.1056), ProgramStats(30.0, 0.18, 0.0225)]
PROGRAMS = [ProgramSpec("a", 20.0), ProgramSpec("b", 7.0)]


def linear(points):
    """Values and subgradients of c -> -c_0 + 2 c_1 at a (P, 2) block of points."""
    g = np.array([-1.0, 2.0])
    return points @ g, np.tile(g, (len(points), 1))


def parsed(parse):
    return load_config(CONFIG, lambda _: parse())


def risk_config(**fields):
    return {"programs": [{"id": "p", "price": 1.0, "mean_eps": 0.2, "var_eps": 0.01}],
            "reward_rate": 100.0, "cap": 10.0, **fields}


# entry point and quantity -> (call with the value, the finite values it accepts)
ENTRY_POINTS = {
    "MachineType.capacity_mw": (lambda x: MachineType("a", x), NONNEGATIVE),
    "MachineType.energy_intensity": (lambda x: MachineType("a", 10.0, energy_intensity=x), POSITIVE),
    "mining_revenue_rate.coin_price": (lambda x: mining_revenue_rate(x, 110.0), NONNEGATIVE),
    "mining_revenue_rate.energy_intensity": (lambda x: mining_revenue_rate(20000.0, x), POSITIVE),
    "ProgramSpec.price": (lambda x: ProgramSpec("a", x), NONNEGATIVE),
    "TruncatedExponential.lam": (lambda x: TruncatedExponential(x), POSITIVE),
    "PriceResponsiveModel.threshold": (lambda x: PriceResponsiveModel(x), ANY),
    "RegInstance.p_up": (lambda x: RegInstance(FLEET, x, 10.0, MODEL), NONNEGATIVE),
    "RegInstance.p_dn": (lambda x: RegInstance(FLEET, 15.0, x, MODEL), NONNEGATIVE),
    "SgdConfig.iterations": (lambda x: SgdConfig(iterations=x), COUNT),
    "SgdConfig.batch": (lambda x: SgdConfig(10, batch=x), COUNT),
    "step_size.j": (lambda x: step_size(x, 1.0, 1.0), AT_LEAST_ONE),
    "step_size.diameter": (lambda x: step_size(1, x, 1.0), POSITIVE),
    "step_size.grad_bound": (lambda x: step_size(1, 1.0, x), POSITIVE),
    "project_feasible.cap": (lambda x: project_feasible([300.0, 5.0], x), NONNEGATIVE),
    "ProgramStats.price": (lambda x: ProgramStats(x, 0.5, 0.1), NONNEGATIVE),
    "ProgramStats.var_slack": (lambda x: ProgramStats(1.0, 0.5, 0.0, var_slack=x), ANY),
    "RiskConfig.risk_weight": (lambda x: RiskConfig(x), NONNEGATIVE),
    "best_program.r": (lambda x: best_program(STATS, x, 250.0), NONNEGATIVE),
    "best_program.cap": (lambda x: best_program(STATS, 150.0, x), NONNEGATIVE),
    "risk_aware_solve.r": (lambda x: risk_aware_solve(STATS, x, 250.0, RiskConfig(4e-4)), NONNEGATIVE),
    "risk_aware_solve.cap": (lambda x: risk_aware_solve(STATS, 150.0, x, RiskConfig(4e-4)), NONNEGATIVE),
    "OgdConfig.grad_bound": (lambda x: OgdConfig(x, 1.0, 1.0), POSITIVE),
    "OgdConfig.diameter": (lambda x: OgdConfig(1.0, x, 1.0), POSITIVE),
    "OgdConfig.cap": (lambda x: OgdConfig(1.0, 1.0, x), POSITIVE),
    "OgdConfig.learners": (lambda x: OgdConfig(1.0, 1.0, 1.0, learners=x), COUNT),
    "GridSpec.points_per_axis": (lambda x: GridSpec(x, 10), COUNT),
    "GridSpec.mc_samples": (lambda x: GridSpec(11, x), COUNT),
    "minimize.cap": (lambda x: minimize(linear, 2, x), NONNEGATIVE),
    "cli._economics.coin_price": (
        lambda x: parsed(lambda: _economics({"economics": {"coin_price": x, "electricity_price": 50.0}})), NONNEGATIVE
    ),
    "cli._parse_risk.reward_rate": (lambda x: parsed(lambda: _parse_risk(risk_config(reward_rate=x), True)), NONNEGATIVE),
    "cli._parse_risk.cap": (lambda x: parsed(lambda: _parse_risk(risk_config(cap=x), True)), NONNEGATIVE),
    "cli._parse_risk.risk_weight": (lambda x: parsed(lambda: _parse_risk(risk_config(risk_weight=x), True)), NONNEGATIVE),
    "PriceBlock.from_config.sd": (lambda x: parsed(lambda: PriceBlock.from_config({"mean": 1.0, "sd": x}, "rt")), NONNEGATIVE),
}


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_scalar_guard_refuses_what_its_rule_refuses(entry, value):
    call, accepts = ENTRY_POINTS[entry]
    if math.isfinite(value) and accepts(value):
        call(value)
        return
    with pytest.raises(InvalidInputError) as refused:
        call(value)
    # config readers refuse a non-finite number in their own words, "must be a finite number"
    assert GUARD_MESSAGE.search(str(refused.value)) or "must be a finite number" in str(refused.value), refused.value


COUNTS = {
    "SgdConfig.iterations": (lambda n: SgdConfig(iterations=n), 1),
    "SgdConfig.batch": (lambda n: SgdConfig(10, batch=n), 1),
    "OgdConfig.learners": (lambda n: OgdConfig(1.0, 1.0, 1.0, learners=n), 1),
    "GridSpec.points_per_axis": (lambda n: GridSpec(n, 10), 2),
    "GridSpec.mc_samples": (lambda n: GridSpec(11, n), 1),
}


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_counts_are_integers_at_their_bound(entry):
    # a fractional count once passed here and failed later, in a range() or a numpy cast
    call, lo = COUNTS[entry]
    name = entry.split(".")[1]
    call(lo)
    call(np.int64(lo))
    with pytest.raises(InvalidInputError, match=f"^{name} must be an integer, got 1.5$"):
        call(1.5)
    with pytest.raises(InvalidInputError, match=f"^{name} must be >= {lo}, got {lo - 1}$"):
        call(lo - 1)


# vector arguments: deployment.as_vector refuses a non-finite component wherever
# a vector enters (realized_cost's own test is in test_deployment.py)
VECTORS = {
    "cost_fixed_k.profile": lambda x: cost_fixed_k(FLEET, PROGRAMS, [x, 10.0], [0.5, 0.5], 1),
    "cost_fixed_k.sample": lambda x: cost_fixed_k(FLEET, PROGRAMS, [10.0, 10.0], [0.5, x], 2),
    "project_feasible.point": lambda x: project_feasible([x, 5.0], 100.0),
    "effective_epsilon.sample": lambda x: effective_epsilon([0.5, x], ["up", "down"]),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("entry", sorted(VECTORS))
def test_vectors_refuse_non_finite_components(entry, value):
    with pytest.raises(InvalidInputError, match=f"^{entry.split('.')[1]} must be finite, got "):
        VECTORS[entry](value)


def test_a_nan_reward_is_refused_and_an_infinite_one_kept():
    # the fleet once reported a NaN total capacity; an infinite reward is the command line's overflow (exit 3)
    with pytest.raises(InvalidInputError, match="^machine 'm0' has no reward computed, got nan$"):
        fleet_from_rewards([10.0, 20.0], [math.nan, 5.0])
    fleet = fleet_from_rewards([10.0, 20.0], [math.inf, 5.0])
    assert fleet.rewards.tolist() == [5.0, math.inf] and fleet.total_capacity_mw == 30.0
