"""The regulation check of ``verify``: its Gauss-Legendre reference, and the mutants it must catch."""

import inspect
import math
import sys
import types
from decimal import Decimal, localcontext

import numpy as np
import pytest

from minerflex import expected_reg_cost, expected_reg_gradient, regulation, verify
from test_regulation import cost_scale, feasible_points, quadrature_reg_cost, random_instance


def legendre_rule(n, digits=40):
    """(nodes, weights) of the n-node Gauss-Legendre rule, by Newton's method on the recurrence in ``digits`` digits."""
    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = digits
        for i in range(n):
            x = Decimal(math.cos(math.pi * (i + 0.75) / (n + 0.5)))
            for _ in range(50):
                p0, p1 = Decimal(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                slope = n * (x * p1 - p0) / (x * x - 1)
                x -= p1 / slope
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * slope * slope))
    order = sorted(range(n), key=lambda i: nodes[i])
    return [float(nodes[i]) for i in order], [float(weights[i]) for i in order]


def ulps(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


def test_gauss_legendre_constants_are_the_correctly_rounded_rule():
    nodes, weights = legendre_rule(12)
    assert verify.GAUSS_NODES.tolist() == nodes
    assert verify.GAUSS_WEIGHTS.tolist() == weights
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(12)
    assert ulps(verify.GAUSS_NODES, ref_nodes).max() <= 2.0
    # numpy's weights come from its eigenvalue nodes and a renormalized sum:
    # they sit up to 60 ulps from the 40-digit rule, whose rounding is checked above
    assert ulps(verify.GAUSS_WEIGHTS, ref_weights).max() <= 64.0


@pytest.mark.parametrize("lam", [1e-3, 0.5, 3.2, 5.42, 20.0, 33.0])
def test_line_nodes_integrate_the_density_and_the_mean(lam):
    # across a break, and a steep rate cut into several parts
    e, w = verify.line_nodes(lam, 10.0, 100.0, [50.0, 95.0, 200.0])
    assert (e > 0.0).all() and (e < 1.0).all()
    assert math.fsum(w.tolist()) == pytest.approx(1.0, abs=1e-15)
    with localcontext() as ctx:
        ctx.prec = 40
        rate = Decimal(lam)
        mean = float(1 / rate - 1 / (rate.exp() - 1))
    assert math.fsum((w * e).tolist()) == pytest.approx(mean, abs=1e-15)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_reference_matches_scipy_quadrature_any_fleet(k):
    rng = np.random.default_rng(900 + k)
    for _ in range(3):
        inst = random_instance(rng, k)
        cap = inst.fleet.total_capacity_mw
        cum = inst.fleet.cum_capacities.tolist()
        points = feasible_points(rng, cap, 5) + [(0.0, cum[0]), (cum[0], 0.0), (0.0, cap), (cap, 0.0)]
        for c_up, c_dn in points:
            value, _ = verify.reg_quadrature(inst, c_up, c_dn)
            assert value == pytest.approx(quadrature_reg_cost(inst, c_up, c_dn), abs=1e-12 * cost_scale(inst))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_reference_matches_the_closed_form_any_fleet(k):
    # value and gradient at interior points, where no line ends on a break
    rng = np.random.default_rng(950 + k)
    for _ in range(5):
        inst = random_instance(rng, k)
        scale = cost_scale(inst)
        for c_up, c_dn in feasible_points(rng, inst.fleet.total_capacity_mw, 10, margin=1.0):
            value, grad = verify.reg_quadrature(inst, c_up, c_dn)
            assert value == pytest.approx(expected_reg_cost(inst, c_up, c_dn), abs=1e-12 * scale)
            np.testing.assert_allclose(
                grad, expected_reg_gradient(inst, c_up, c_dn), rtol=0.0,
                atol=1e-12 * scale / inst.fleet.total_capacity_mw,
            )


def test_verify_passes_at_a_seed_the_monte_carlo_row_failed():
    # seed 2958003 put the old Monte Carlo comparison 4.05 standard errors off
    full = verify.run_verify(seed=2958003)
    assert len(full) == 12 and all(r.passed for r in full), [r for r in full if not r.passed]
    row = verify.check_regulation_mc()
    assert full[6] == row and verify.run_verify(fast=True, seed=0)[6] == row


def load_mutant(monkeypatch, old, new):
    """``regulation`` with the one occurrence of ``old`` in its source replaced by ``new``, as a new module."""
    source = inspect.getsource(regulation)
    assert source.count(old) == 1, old
    module = types.ModuleType("minerflex.regulation_mutant")
    module.__package__ = "minerflex"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), regulation.__file__, "exec"), module.__dict__)
    return module


MUTANTS = {
    "hinge limit not clipped at e = 0": ("max((x - a) / b, 0.0), 1.0)", "(x - a) / b, 1.0)"),
    "b * m1 sign flipped": ("((a - x) * p0 + b * m1)", "((a - x) * p0 - b * m1)"),
    "up line given the down rate": ("model.up.lam, c_dn, c_up)", "model.down.lam, c_dn, c_up)"),
    "theta and 1 - theta swapped": ("theta = model.theta", "theta = 1.0 - model.theta"),
    "partial-moment mean measured from b": ("p0 * (a + (b - a) *", "p0 * (b - (b - a) *"),
    "down-line limit scaled by 0.999": ("0.0, min((x - a) / b, 1.0))", "0.0, 0.999 * min((x - a) / b, 1.0))"),
    "d/db sums P for M": ("d_b += (r - below) * m1", "d_b += (r - below) * p0"),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_row_fails_on_a_mutated_closed_form(monkeypatch, name):
    mutant = load_mutant(monkeypatch, *MUTANTS[name])
    monkeypatch.setattr(verify, "expected_reg_cost", mutant.expected_reg_cost)
    monkeypatch.setattr(verify, "expected_reg_gradient", mutant.expected_reg_gradient)
    assert not verify.check_regulation_mc().passed


def test_row_fails_when_the_sampler_swaps_the_rates(monkeypatch):
    # the reference goes wrong, not the closed form: the sampler is on its path
    old = "self.up.from_uniform(u[..., 1, :]))\n        out[..., 1] = np.where(down_deployed, self.down."
    new = "self.down.from_uniform(u[..., 1, :]))\n        out[..., 1] = np.where(down_deployed, self.up."
    mutant = load_mutant(monkeypatch, old, new)
    monkeypatch.setattr(regulation.RegJointModel, "from_uniform", mutant.RegJointModel.from_uniform)
    assert not verify.check_regulation_mc().passed
