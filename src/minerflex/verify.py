"""Self-contained oracle-agreement checks runnable from the CLI.

Each check pits an analytic component against an independent reference
(vertex enumeration, Gauss-Legendre quadrature, dense grids) at a reduced
scale; the pytest acceptance suite runs the same comparisons at full scale.
Everything here is numpy-only so the installed package can verify itself
without test dependencies.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .deployment import FleetStack, SlotBatch, flip_down, realized_cost, slot_cost
from .fleet import fleet_from_rewards
from .online import OgdConfig, RegretReport, play_bank, regret_report
from .oracle import feasibility_grid, fixed_dot, lp_deployment_oracle
from .programs import ProgramSpec, TruncatedExponential, fit_lambda, program_sampler
from .regulation import RegInstance, RegJointModel, expected_reg_cost, expected_reg_gradient
from .sgd import SgdConfig, project_feasible, solve as sgd_solve
from .single_machine import ProgramStats, RiskConfig, best_program, risk_aware_solve


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = field(default=0.0, compare=False)  # wall time, set by run_verify

    def __post_init__(self):
        # a check's verdict may be a numpy bool; callers get a Python one
        object.__setattr__(self, "passed", bool(self.passed))


def _drawn_by_shape(rng, count, segment=False):
    """Draw ``count`` random instances; yield one group per (K, N) shape.

    Three calls draw them all: ``rng.integers(1, 5, count)`` the K in [1, 4]
    types, ``rng.integers(1, 4, count)`` the N in [1, 3] programs, and one
    ``rng.random((count, 18))`` block (26 columns with ``segment``) the doubles.
    Instance i reads row i from the left: K capacities in [1, 100), K rewards in
    [0, 200) (sorted, the i-th raised by i * 1e-6 so none tie), N prices in
    [0, 60), N raw rates, N profile entries and their share of the fleet's
    capacity (a ``math.fsum``); with ``segment``, the ends a and b of a segment
    of profiles and their two shares. The rest of the row goes unused. Each
    double is scaled as the ``rng.uniform`` call it stands for would scale it.

    A group stacks every instance of one (K, N) shape, in draw order: (G, K)
    capacities and rewards, then (G, N) prices, raw rates and profiles (and
    a, b); groups come in the order their shapes first appear. The scaling is
    row by row, so each row holds the bits of its instance drawn alone.
    """
    ks, ns = rng.integers(1, 5, count), rng.integers(1, 4, count)
    u = rng.random((count, 26 if segment else 18))
    shapes = 4 * ks + ns
    for i in np.sort(np.unique(shapes, return_index=True)[1]):
        k, n = int(ks[i]), int(ns[i])
        widths = [k, k, n, n, n, 1] + ([n, n, 1, 1] if segment else [])
        rows = u[shapes == shapes[i], : sum(widths)]
        caps, rewards, prices, raw, c, share, *ends = np.split(rows, np.cumsum(widths)[:-1], axis=1)
        caps = _uniform(caps, 1.0, 100.0)
        cap = np.array([math.fsum(row) for row in caps.tolist()])
        drawn = (
            caps,
            np.sort(_uniform(rewards, 0.0, 200.0), axis=1) + np.arange(k) * 1e-6,
            _uniform(prices, 0.0, 60.0),
            _uniform(raw, 0.0, 1.0),
            _scaled(_uniform(c, 0.0, 1.0), share, cap),
        )
        if segment:
            a, b, share_a, share_b = ends
            drawn += _scaled(_uniform(a, 0.0, 1.0), share_a, cap), _scaled(_uniform(b, 0.0, 1.0), share_b, cap)
        yield drawn


def _scaled(v, share, cap):
    """``v *= uniform(0, 1) * cap / max(v.sum(), 1e-12)`` row by row, the uniform from the (G, 1) share's doubles.

    Each row sums left to right, as numpy sums fewer than 8 entries.
    """
    factor = _uniform(share[:, 0], 0.0, 1.0) * cap / np.maximum(np.cumsum(v, axis=1)[:, -1], 1e-12)
    return v * factor[:, None]


def _max_of_affines(caps, rewards, prices, eps, c):
    """Each row's max over its own K affine surrogates prefix_k + r_k d - p.c, d = eps.c.

    The (..., K) fleet rows and the (..., N) rates, prices and profiles broadcast.
    prefix_k = sum_{j<k} r_j cap_j - r_k sum_{j<k} cap_j comes from numpy cumsums
    over the row's types, not from the fleet tables under test.
    """
    prefix = np.zeros_like(rewards)
    below = np.cumsum(caps, axis=-1)[..., :-1]
    prefix[..., 1:] = np.cumsum(rewards * caps, axis=-1)[..., :-1] - rewards[..., 1:] * below
    d, best = fixed_dot(eps, c), None
    # one surrogate at a time, folded into the running max, so no (K, ...) stack is built
    for p, r in zip(np.moveaxis(prefix, -1, 0), np.moveaxis(rewards, -1, 0)):
        term = r * d
        term += p
        best = term if best is None else np.maximum(best, term, out=best)
    best -= fixed_dot(prices, c)
    return best


def _uniform(u, lo, hi):
    # Generator.uniform(lo, hi) maps each double u of the stream to lo + (hi - lo) * u
    return lo + (hi - lo) * u


def check_greedy_deployment(seed=0, instances=200) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    # one slot at a time, as plain floats; the max does not depend on the order
    for group in _drawn_by_shape(rng, instances):
        for caps, rewards, prices, raw, c in zip(*(field.tolist() for field in group)):
            fleet = fleet_from_rewards(caps, rewards)
            programs = [ProgramSpec(id=f"p{i}", price=price) for i, price in enumerate(prices)]
            greedy = realized_cost(fleet, programs, c, raw)
            oracle = lp_deployment_oracle(fleet, programs, c, raw)
            worst = max(worst, abs(greedy - oracle))
    return CheckResult(
        "greedy deployment vs LP vertex oracle",
        worst <= 1e-9,
        f"max |diff| = {worst:.3e} over {instances} instances",
    )


def check_max_of_affines(seed=1, points=2000) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for caps, rewards, prices, raw, c in _drawn_by_shape(rng, points):
        cost = slot_cost(FleetStack(rewards, caps), raw, prices, c)[0]
        best = _max_of_affines(caps, rewards, prices, raw, c)
        worst = max(worst, float(np.abs(cost - best).max()))
    return CheckResult(
        "piecewise cost = max of affine surrogates",
        worst <= 1e-9,
        f"max |diff| = {worst:.3e} over {points} points",
    )


def check_midpoint_convexity(seed=2, segments=2000) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for caps, rewards, prices, raw, _, a, b in _drawn_by_shape(rng, segments, segment=True):
        # each instance's midpoint, a and b in one call
        points = np.stack([0.5 * (a + b), a, b], axis=1)
        mid, at_a, at_b = slot_cost(FleetStack(rewards, caps), raw[:, None], prices[:, None], points)[0].T
        worst = max(worst, float((mid - 0.5 * (at_a + at_b)).max()))
    return CheckResult(
        "midpoint convexity of the slot cost",
        worst <= 1e-9,
        f"max violation = {worst:.3e} over {segments} segments",
    )


def check_projection(seed=3, points=40) -> CheckResult:
    rng = np.random.default_rng(seed)
    cap = 250.0
    columns = np.ascontiguousarray(feasibility_grid(cap, 2, 201).T)
    ok = True
    worst = 0.0
    for _ in range(points):
        x = rng.uniform(-150.0, 450.0, 2)
        p = project_feasible(x, cap)
        ok &= bool(np.all(p >= 0.0) and p.sum() <= cap + 1e-9)
        excess = math.sqrt(fixed_dot(p - x, p - x)) - _grid_distance(columns, x)
        worst = max(worst, float(excess))
    return CheckResult(
        "euclidean projection vs grid QP oracle",
        ok and worst <= 1e-9,
        f"max distance excess = {worst:.3e}",
    )


def _grid_distance(columns, x) -> float:
    """Distance from the point x to the nearest of the points held as the two ``columns``.

    Each point's two squared differences add in order, as :func:`~minerflex.oracle.fixed_dot`
    adds them, and a correctly rounded sqrt is monotone, so it can follow the min.
    """
    d0, d1 = columns[0] - x[0], columns[1] - x[1]
    return math.sqrt((d0 * d0 + d1 * d1).min())


def check_truncexp_mean() -> CheckResult:
    worst = 0.0
    for lam in (1e-6, 1e-4, 1e-3, 0.05, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0):  # 1e-6 takes the small-rate series
        e, w = line_nodes(lam, 0.0, 1.0, ())
        worst = max(worst, abs(TruncatedExponential(lam).mean() - math.fsum((w * e).tolist())))
    return CheckResult(
        "truncated-exponential mean vs Gauss-Legendre quadrature",
        worst <= 1e-9,
        f"max |diff| = {worst:.3e}",
    )


def check_fit_lambda(seed=5, targets=25) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for target in np.append(rng.uniform(0.01, 0.49, targets), [0.18, 0.27]):
        lam = fit_lambda(float(target))
        worst = max(worst, abs(TruncatedExponential(lam).mean() - target))
    return CheckResult(
        "deployment-mean fitting round trip",
        worst <= 1e-9,
        f"max |mean error| = {worst:.3e}",
    )


def _reg_instance(theta, capacities=(150.0, 100.0), rewards=(103.846153846, 131.818181818)):
    fleet = fleet_from_rewards(capacities, rewards)
    model = RegJointModel(
        theta, TruncatedExponential(fit_lambda(0.18)), TruncatedExponential(fit_lambda(0.27))
    )
    return RegInstance(fleet=fleet, p_up=15.0, p_dn=10.0, model=model)


# The 12-node Gauss-Legendre rule on [-1, 1]: its positive nodes with their
# weights, correctly rounded; the rule is symmetric about 0.
_GAUSS_HALF = (
    (0.1252334085114689, 0.24914704581340277),
    (0.3678314989981802, 0.2334925365383548),
    (0.5873179542866175, 0.20316742672306592),
    (0.7699026741943047, 0.16007832854334622),
    (0.9041172563704749, 0.10693932599531843),
    (0.9815606342467192, 0.04717533638651183),
)
GAUSS_NODES = np.array([-x for x, _ in reversed(_GAUSS_HALF)] + [x for x, _ in _GAUSS_HALF])
GAUSS_WEIGHTS = np.array([w for _, w in reversed(_GAUSS_HALF)] + [w for _, w in _GAUSS_HALF])
# Each quadrature part spans at most PIECE_RATE / lam of the rate axis: lam h <= 6.
PIECE_RATE = 6.0


def line_nodes(lam: float, a: float, b: float, breaks) -> tuple[np.ndarray, np.ndarray]:
    """Nodes e in [0, 1] and weights integrating against lam e^(-lam e) / (1 - e^-lam) along d = a + b e.

    [0, 1] is cut at each rate where d crosses one of ``breaks``, each piece
    into equal parts no longer than PIECE_RATE / lam, and every part takes the
    12 Gauss-Legendre nodes, weighted by the truncated-exponential density.
    """
    cuts = sorted({0.0, 1.0, *(t for x in breaks if b and 0.0 < (t := (x - a) / b) < 1.0)})
    e, w = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        edges = np.linspace(lo, hi, math.ceil((hi - lo) * lam / PIECE_RATE) + 1)
        half, mid = np.diff(edges)[:, None] / 2.0, (edges[:-1] + edges[1:])[:, None] / 2.0
        e.append((mid + half * GAUSS_NODES).ravel())
        w.append((half * GAUSS_WEIGHTS).ravel())
    e, w = np.concatenate(e), np.concatenate(w)
    return e, w * lam * np.exp(-lam * e) / -math.expm1(-lam)


def reg_quadrature(inst: RegInstance, c_up: float, c_dn: float) -> tuple[float, np.ndarray]:
    """E[cost] and E[r_k eps_eff] - p of the realized slot cost at (c_up, c_dn), by quadrature.

    The reg-up line d = c_dn + e c_up has probability 1 - theta and the
    reg-down line d = c_dn - e c_dn probability theta; each takes the nodes
    of :func:`line_nodes`. Every node e maps through the truncated-exponential
    CDF to the uniform u that ``inst.model.from_uniform`` turns back into e,
    with the direction row pinned to 1 (reg-up deployed) or 0 (reg-down), so
    the sampler, ``flip_down`` and ``slot_cost`` cost it as a drawn sample.
    """
    model, cum = inst.model, inst.fleet.cum_capacities.tolist()
    lines = ((1.0, 1, 1.0 - model.theta, model.up.lam, c_up), (0.0, 2, model.theta, model.down.lam, -c_dn))
    blocks, weights = [], []
    for direction, row, prob, lam, b in lines:
        e, w = line_nodes(lam, c_dn, b, cum)
        u = np.zeros((model.width, e.size))
        u[0] = direction
        u[row] = np.expm1(-lam * e) / math.expm1(-lam)
        blocks.append(u)
        weights.append(prob * w)
    eff = flip_down(model.from_uniform(np.concatenate(blocks, axis=1)), np.array([False, True]))
    prices = np.array([inst.p_up, inst.p_dn])
    return node_expectation(inst.fleet, eff, np.concatenate(weights), prices, np.array([c_up, c_dn]))


def node_expectation(fleet, eff, w, prices, c) -> tuple[float, np.ndarray]:
    """E[cost] and E[r_k eps_eff] - p at profile ``c``: the slot cost at each row of ``eff``, weighted by ``w``."""
    cost, slope = slot_cost(fleet, eff, prices, c)
    grad = [math.fsum((w * slope * x).tolist()) - p for x, p in zip(eff.T, prices.tolist())]
    return math.fsum((w * cost).tolist()), np.array(grad)


def two_rate_quadrature(fleet, lams, prices, c) -> tuple[float, np.ndarray]:
    """E[cost] and E[r_k eps] - p at profile c of two up programs with truncated-exponential rates ``lams``.

    The outer :func:`line_nodes` over e_b are cut where an end (e_a = 0 or 1) of
    the inner line d = e_b c_b + e_a c_a crosses a cumulative capacity, so the
    inner integral is smooth on each part; each outer node takes the inner
    nodes along its line.
    """
    (lam_a, lam_b), (c_a, c_b) = lams, c.tolist()
    cum = fleet.cum_capacities.tolist()
    outer_e, outer_w = line_nodes(lam_b, 0.0, c_b, cum + [x - c_a for x in cum])
    eff, w = [], []
    for e_b, w_b in zip(outer_e.tolist(), outer_w.tolist()):
        e_a, w_a = line_nodes(lam_a, e_b * c_b, c_a, cum)
        eff.append(np.stack([e_a, np.full(e_a.size, e_b)], axis=1))
        w.append(w_b * w_a)
    return node_expectation(fleet, np.concatenate(eff), np.concatenate(w), prices, c)


def check_regulation_mc() -> CheckResult:
    """The regulation closed form and its gradient against :func:`reg_quadrature`.

    Three thetas and four profiles on a 150 + 100 MW fleet, rates fit to means
    0.18 (lam = 5.42) and 0.27 (lam = 3.20). With S = cap (max r + max p) the
    gate is |closed - reference| <= 1e-12 S for the value and 1e-12 (max r +
    max p) for each gradient entry. The gradient is compared where no line
    ends on a break: at (0, 250) the reg-up line is the point d = cap, where
    the cost has a kink.

    The tolerance is derived, not tuned. On a part of length h the value's
    integrand is g(e) = (alpha + beta e) lam e^(-lam e) / Z, Z = 1 - e^-lam,
    where |alpha + beta e| <= S bounds the cost and |beta| <= max r cap <= S its
    slope in e. Its 2n-th derivative is (lam / Z) e^(-lam e) (lam^(2n) (alpha +
    beta e) - 2n lam^(2n-1) beta), at most S lam^(2n) (lam + 2n) / Z. The
    n-node remainder is at most h^(2n+1) (n!)^4 / ((2n + 1) ((2n)!)^3) times
    that; summed over parts whose lengths add to 1, with lam h <= 5.42, n = 12
    bounds it by 1.1e-19 S. The gradient's integrand r_k eps_eff is affine in e
    on each part too, with both coefficients at most max r, so its remainder
    is below 1.1e-19 (max r + max p). Rounding through the CDF, the sampler and
    the sums measured 2.0e-16 of S and 2.4e-17 of max r + max p: the gate sits
    more than three orders above both, and no input moves it.

    The check draws nothing, so it reads no seed. ``sample_joint``'s (3, size)
    stream layout, which this check does not exercise, is pinned by
    ``tests/test_sgd.py::test_block_draws_match_per_call_draws``.
    """
    worst_value = worst_grad = 0.0
    for theta in (0.3, 0.5, 0.7):
        inst = _reg_instance(theta)
        scale = float(inst.fleet.rewards.max()) + max(inst.p_up, inst.p_dn)
        cap = inst.fleet.total_capacity_mw
        for c_up, c_dn in ((40.0, 40.0), (120.0, 60.0), (30.0, 190.0), (0.0, 250.0)):
            value, grad = reg_quadrature(inst, c_up, c_dn)
            worst_value = max(worst_value, abs(expected_reg_cost(inst, c_up, c_dn) - value) / (cap * scale))
            if c_up > 0.0:  # at (0, 250) the reg-up line is the point d = cap, a kink
                closed = expected_reg_gradient(inst, c_up, c_dn)
                worst_grad = max(worst_grad, float(np.abs(closed - grad).max()) / scale)
    return CheckResult(
        "regulation closed form and gradient vs Gauss-Legendre quadrature",
        worst_value <= 1e-12 and worst_grad <= 1e-12,
        f"max |diff| / scale = {worst_value:.1e} (value) and {worst_grad:.1e} (gradient)",
    )


def check_regulation_continuity() -> CheckResult:
    """No jump in the expected cost where a deployment line enters a new fleet piece.

    The reg-up line d = c_dn + e c_up enters piece q + 1 at e = 0 where c_dn is
    a cumulative capacity, at e = 1 where c_up + c_dn is; the reg-down line
    d = (1 - e) c_dn where c_dn is. Across each such point the cost moves at
    most (max r + max p) |dc| plus rounding, for two and three types.
    """
    worst = 0.0
    for caps, rewards in (((150.0, 100.0), (103.846153846, 131.818181818)),
                          ((150.0, 100.0, 60.0), (103.846153846, 131.818181818, 160.0))):
        inst = _reg_instance(0.5, caps, rewards)
        cap = inst.fleet.total_capacity_mw
        lip = float(inst.fleet.rewards.max()) + max(inst.p_up, inst.p_dn)
        h = 1e-9 * cap
        for x in inst.fleet.cum_capacities[:-1].tolist():
            sides = []
            for share in (0.0, 0.3, 0.9):  # c_dn = x, stepping c_dn
                c_up = share * (cap - x - h)
                sides.append(((c_up, x - h), (c_up, x + h)))
            for share in (0.2, 0.5, 0.8):  # c_up + c_dn = x, stepping c_up
                c_dn = share * x
                sides.append(((x - c_dn - h, c_dn), (x - c_dn + h, c_dn)))
            for below, above in sides:
                jump = abs(expected_reg_cost(inst, *above) - expected_reg_cost(inst, *below))
                worst = max(worst, jump / (lip * 2.0 * h + 1e-12 * lip * cap))
    return CheckResult(
        "regulation cost continuity across regions",
        worst <= 1.0,
        f"max jump / Lipschitz allowance = {worst:.3f}",
    )


def check_single_machine_vertex(seed=7, instances=100) -> CheckResult:
    rng = np.random.default_rng(seed)
    tol_ok = True
    for _ in range(instances):
        n = int(rng.integers(1, 4))
        r = float(rng.uniform(0.0, 200.0))
        cap = float(rng.uniform(10.0, 400.0))
        stats = [
            ProgramStats(
                price=float(rng.uniform(0.0, 60.0)),
                mean_eps=float(rng.uniform(0.0, 1.0)),
                var_eps=0.0,
            )
            for _ in range(n)
        ]
        profile = best_program(stats, r, cap)
        value = float(fixed_dot(profile, [r * s.mean_eps - s.price for s in stats]))
        grid = np.linspace(0.0, cap, 1000)
        grid_best = 0.0
        for s in stats:
            grid_best = min(grid_best, float((grid * (r * s.mean_eps - s.price)).min()))
        res = (cap / 999.0) * max(r, *(s.price for s in stats), 1.0)
        tol_ok &= value <= grid_best + res
    return CheckResult(
        "single-machine vertex rule vs axis grids",
        tol_ok,
        f"{instances} random instances within grid resolution",
    )


def risk_kkt_residual(stats, r: float, cap: float, w: float, c: np.ndarray) -> float:
    """Largest KKT residual of profile ``c`` for the mean-variance QP of :func:`risk_aware_solve`.

    Primal feasibility, complementary slackness of the cap and of each c_i >= 0,
    and dual feasibility, with the cap multiplier read off the active gradients.
    """
    a = np.array([r * s.mean_eps - s.price for s in stats])
    b = np.array([w * r**2 * s.var_eps for s in stats])
    grad = a + 2.0 * b * c
    slack = cap - c.sum()
    mu = 0.0
    if slack <= 1e-7 * cap:
        active = c > 1e-9 * cap
        if active.any():
            mu = max(0.0, float(-grad[active].max()))
    nu = grad + mu
    return max(
        max(0.0, -slack),
        max(0.0, -float(c.min())),
        abs(mu * slack) / max(1.0, cap),
        float(np.max(np.abs(np.minimum(nu, 0.0)))),
        float(np.max(np.abs(c * nu))) / max(1.0, cap),
    )


def check_risk_kkt(seed=8, instances=100) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(1, 5))
        stats = []
        for _ in range(n):
            mean = float(rng.uniform(0.05, 0.95))
            var = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 1.0) * mean * (1.0 - mean))
            stats.append(ProgramStats(price=float(rng.uniform(0.0, 60.0)), mean_eps=mean, var_eps=var))
        r = float(rng.uniform(1.0, 200.0))
        cap = float(rng.uniform(50.0, 400.0))
        w = float(rng.choice([0.0, 1e-5, 1e-4, 1e-3]))
        c = risk_aware_solve(stats, r, cap, RiskConfig(w))
        worst = max(worst, risk_kkt_residual(stats, r, cap, w, c))
    return CheckResult(
        "risk-aware QP KKT residuals",
        worst <= 1e-8,
        f"max residual = {worst:.3e} over {instances} instances",
    )


def check_sgd_convergence(seed=9, fast=False) -> CheckResult:
    """The SGD profile's Frank-Wolfe gap, by :func:`two_rate_quadrature`, within SGD's a-priori bound.

    The expected cost F is convex, so with g its gradient at the SGD profile x,
    F(y) >= F(x) + g.(y - x) for every feasible y and F(x) - F* <= g.x - min_y
    g.y, the Frank-Wolfe gap (Jaggi, ICML 2013): a deterministic upper bound on
    x's suboptimality. The linear minimum sits at a vertex of {c >= 0, sum c <=
    cap}, 0 or cap on one program: min(0, cap min g).
    """
    fleet = fleet_from_rewards([150.0, 100.0], [103.846153846, 131.818181818])
    lams, prices = (fit_lambda(0.18), fit_lambda(0.27)), np.array([24.0, 30.0])
    programs = [ProgramSpec(pid, p, eps_model=TruncatedExponential(lam))
                for pid, p, lam in zip("ab", prices.tolist(), lams)]
    cfg = SgdConfig(iterations=2000 if fast else 5000, batch=10, seed=seed)
    result = sgd_solve(fleet, programs, program_sampler(programs), cfg)
    x = result.profile
    _, g = two_rate_quadrature(fleet, lams, prices, x)
    gap = fixed_dot(g, x) - min(0.0, fleet.total_capacity_mw * float(g.min()))
    return CheckResult(
        "stochastic subgradient Frank-Wolfe gap vs a-priori bound",
        gap <= result.bound,
        f"gap = {gap:.1f} $, bound = {result.bound:.1f} $",
    )


def regret_slots(rng, horizon: int) -> SlotBatch:
    """``horizon`` random slots of :func:`regret_runs`.

    Each slot takes six doubles of the generator's stream, in order: the two
    rewards of a 150 + 100 MW fleet, the prices of two up programs and their
    deployment rates. One ``(horizon, 6)`` block holds them all, scaled as
    ``rng.uniform`` scales them, so every value is what one ``rng.uniform``
    call per slot and quantity would return. The stream is consumed in slot
    order, so one call for ``R * H`` slots draws what R calls for H draw in turn.
    """
    u = rng.random((horizon, 6))
    rewards = np.sort(_uniform(u[:, 0:2], 0.0, 200.0), axis=1) + np.array([0.0, 1e-9])
    flags = np.zeros((horizon, 2), dtype=bool)
    caps = np.tile([150.0, 100.0], (horizon, 1))
    return SlotBatch(rewards, caps, _uniform(u[:, 2:4], 0.0, 60.0), _uniform(u[:, 4:6], 0.0, 1.0), flags, flags)


def regret_runs(rng, runs: int, horizon: int) -> list[tuple[SlotBatch, np.ndarray, np.ndarray, RegretReport]]:
    """``runs`` independent online runs of ``horizon`` random slots, each with one learner.

    Run r is ``regret_slots(rng, horizon)`` drawn r-th and played by its own
    learner; this returns its batch, its (H, 2) played profiles, its (H,) costs
    and its :func:`regret_report` against its own hindsight optimum. All of it
    equals ``run_online(regret_slots(rng, horizon), cfg)`` at ``learners=1``,
    run after run, bit for bit, and leaves the generator in the same state.

    One ``regret_slots`` block draws all the runs, and one
    :func:`~minerflex.online.play_bank` call plays them, run r's rows keyed to
    learner r, with no pooled report over the whole bank.
    """
    drawn = regret_slots(rng, runs * horizon)
    cfg = OgdConfig.from_bounds(2, 250.0, 200.0, 60.0, learners=runs)
    played, costs, _ = play_bank(drawn, cfg, np.repeat(np.arange(runs), horizon))
    bound = cfg.regret_bound(horizon)
    out = []
    for r in range(runs):
        rows = slice(r * horizon, (r + 1) * horizon)
        batch = drawn.take(rows)
        out.append((batch, played[rows], costs[rows], regret_report(batch, costs[rows], bound)))
    return out


def check_online_regret(seed=10, runs=20, horizon=200) -> CheckResult:
    """Every run of :func:`regret_runs` keeps its regret bound, and its comparator is the best fixed profile."""
    ok = True
    worst_frac = 0.0
    for batch, played, _, report in regret_runs(np.random.default_rng(seed), runs, horizon):
        ok &= report.static_regret <= report.bound
        # Static regret may be negative: an adaptive learner can beat every fixed
        # profile. What must hold is that the hindsight profile is the best fixed
        # one, so no played profile held fixed costs less over the horizon. The
        # solver's certified gap must close to the same tolerance.
        c = np.vstack([played, report.hindsight.point])
        slots = (batch.capacities, batch.rewards, batch.quoted_prices, batch.raw_eps)
        totals = _max_of_affines(*(x[:, None] for x in slots), c).sum(axis=0)
        tol = 1e-6 * max(1.0, abs(totals[-1]))
        ok &= bool(totals[-1] <= totals[:-1].min() + tol and report.hindsight.gap <= tol)
        worst_frac = max(worst_frac, report.static_regret / report.bound)
    return CheckResult(
        "online regret within the worst-case bound",
        ok,
        f"max regret/bound = {worst_frac:.3f} over {runs} runs",
    )


def run_verify(fast: bool = False, seed: int = 0) -> list[CheckResult]:
    """Run every oracle-agreement check, timed, by its module-level name; scale down heavy ones when fast."""
    checks = [
        (check_greedy_deployment, seed, 100 if fast else 200),
        (check_max_of_affines, seed + 1, 800 if fast else 2000),
        (check_midpoint_convexity, seed + 2, 800 if fast else 2000),
        (check_projection, seed + 3, 20 if fast else 40),
        (check_truncexp_mean,),
        (check_fit_lambda, seed + 5, 10 if fast else 25),
        (check_regulation_mc,),
        (check_regulation_continuity,),
        (check_single_machine_vertex, seed + 7, 50 if fast else 100),
        (check_risk_kkt, seed + 8, 50 if fast else 100),
        (check_sgd_convergence, seed + 9, fast),
        (check_online_regret, seed + 10, 10 if fast else 20),
    ]
    results = []
    for check, *args in checks:
        start = time.perf_counter()
        results.append(replace(check(*args), seconds=time.perf_counter() - start))
    return results
