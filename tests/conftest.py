"""Shared builders for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

import minerflex
from minerflex import InvalidInputError, ProgramSpec, fleet_from_rewards
from minerflex.deployment import FleetStack, SlotBatch, as_vector, dot, slot_cost, slot_piece
from minerflex.programs import prices_of


def child_env(base=None) -> dict:
    """Environment for a child interpreter that imports the minerflex this process imported.

    ``base`` (default: this process's environment) with that package's import
    root (``src/`` when uninstalled, site-packages when installed) first on
    PYTHONPATH, followed by any inherited entries.
    """
    import_root = str(Path(minerflex.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    path = f"{import_root}{os.pathsep}{inherited}" if inherited else import_root
    return {**(os.environ if base is None else base), "PYTHONPATH": path}


@pytest.fixture
def two_type_fleet():
    """The desk-scale two-type fleet: 150 MW at $94 and 100 MW at $150."""
    return fleet_from_rewards([150.0, 100.0], [94.0, 150.0])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_instance(rng, k_max=4, n_max=3, cap_scale=100.0, shape=None):
    """Random small (fleet, programs, profile, effective eps) quadruple.

    K types and N programs come from one ``rng.integers`` call each, unless
    ``shape`` gives (K, N). With ``shape`` and the default scale, this is the
    scalar draw of one instance's doubles in ``verify._drawn_by_shape``'s
    layout, which draws every K and N first; ``test_verify_draws.py`` holds the
    two to the same stream.
    """
    k, n = shape or (int(rng.integers(1, k_max + 1)), int(rng.integers(1, n_max + 1)))
    caps = rng.uniform(1.0, cap_scale, k)
    rewards = np.sort(rng.uniform(0.0, 200.0, k))
    rewards += np.arange(k) * 1e-6  # keep strictly ascending
    fleet = fleet_from_rewards(caps, rewards)
    programs = [
        ProgramSpec(id=f"p{i}", price=float(rng.uniform(0.0, 60.0))) for i in range(n)
    ]
    raw = rng.uniform(0.0, 1.0, n)
    c = rng.uniform(0.0, 1.0, n)
    c *= rng.uniform(0.0, 1.0) * fleet.total_capacity_mw / max(c.sum(), 1e-12)
    return fleet, programs, c, raw


def fleet_stack_of(fleets):
    """A :class:`FleetStack` of fleets, each padded to the most types with its last reward at zero capacity."""
    k = max(f.n_types for f in fleets)

    def padded(row, fill):
        return row if row.size == k else np.append(row, [fill] * (k - row.size))

    return FleetStack(
        np.array([padded(f.rewards, f.rewards[-1]) for f in fleets]),
        np.array([padded(f.capacities, 0.0) for f in fleets]),
    )


def slot_batch_of(fleets, programs_seq, samples, cap, missing_masks=None):
    """A :class:`SlotBatch` from one canonical fleet, program list and raw rate vector per slot.

    ``cap`` must be the batch's own capacity, slot 0's exact capacity sum;
    ``missing_masks`` holds one boolean mask or None per slot.
    """
    if not len(fleets) == len(programs_seq) == len(samples) > 0:
        raise InvalidInputError("need at least one round and equal-length per-round inputs")
    n, raw = len(programs_seq[0]), [as_vector(sample, "sample") for sample in samples]
    for t, (programs, row) in enumerate(zip(programs_seq, raw)):
        if not len(programs) == row.size == n:
            raise InvalidInputError(f"round {t}: expected {n} programs and deployment rates")
    masks = [None] * len(fleets) if missing_masks is None else missing_masks
    stack = fleet_stack_of(fleets)
    prices = np.array([prices_of(programs) for programs in programs_seq])
    down = np.array([[spec.direction == "down" for spec in programs] for programs in programs_seq])
    missing = np.array([np.zeros(n, dtype=bool) if m is None else m for m in masks], dtype=bool)
    batch = SlotBatch(stack.rewards, stack.capacities, prices, np.array(raw), down, missing)
    if batch.cap != cap:
        raise InvalidInputError(f"fleet capacity {batch.cap} != cap {cap}")
    return batch


def slot_costs(batch, points):
    """(T, P) per-slot costs of a :class:`SlotBatch` at each of a (P, N) block of profiles."""
    return slot_cost(batch, batch.eps[:, None], batch.prices[:, None], np.atleast_2d(points))[0]


def per_point_totals(batch, points):
    """Reference for :meth:`SlotBatch.totals`: the per-point path it replaced.

    The values are :func:`slot_costs` summed over slots; each point's subgradient
    takes its pieces from :func:`slot_piece` of that point's own (T,) deployed
    totals, then sums r_k eps - p over slots.
    """
    grads = []
    for c in np.atleast_2d(points):
        _, k = slot_piece(batch.cum_capacities, dot(batch.eps, c))
        grads.append((batch.rewards[k][:, None] * batch.eps - batch.prices).sum(axis=0))
    return slot_costs(batch, points).sum(axis=0), np.array(grads)
