import json
import math
from datetime import datetime, timezone

import numpy as np
import pytest

from minerflex import (
    ConstantEps,
    InvalidInputError,
    MachineType,
    ModelViolationError,
    PriceResponsiveModel,
    TraceFormatError,
    TruncatedExponential,
    estimate_stats,
    fit_lambda,
    load_synthesis_spec,
    load_traces,
    per_slot_rewards,
    price_responsive_eps,
    synthesize_traces,
    write_traces,
)
from minerflex.deployment import SlotBatch
from minerflex.programs import EPS_KINDS, ProgramSpec, parse_eps_model
from minerflex.regulation import joint_pair
from minerflex.traces import (
    AS_HEADER,
    MARKET_HEADER,
    PriceBlock,
    SynthProgram,
    SynthesisSpec,
    TraceRecord,
    deployment_for,
    programs_for_record,
    slot_batch,
)


UTC = timezone.utc


def make_records(n=5, eps=lambda i: (0.5, None)):
    records = []
    for i in range(n):
        records.append(
            TraceRecord(
                timestamp=datetime(2022, 4, 4, i % 24, tzinfo=UTC),
                rt_price=50.0 + i,
                coin_price=20000.0 - 3.0 * i,
                program_ids=("regup", "presp"),
                as_prices=(15.5 + i, 11.25),
                deployment=eps(i),
            )
        )
    return records


def synth_spec(hours=24, joint=True):
    programs = (
        SynthProgram("presp", "up", PriceBlock((12.0,) * 24, 1.0, 0.0, 100.0), PriceResponsiveModel(60.0)),
        SynthProgram("regup", "up", PriceBlock((15.0,) * 24, 1.0, 0.0, 100.0), TruncatedExponential(fit_lambda(0.18))),
        SynthProgram("regdn", "down", PriceBlock((9.0,) * 24, 1.0, 0.0, 100.0), TruncatedExponential(fit_lambda(0.27))),
    )
    return SynthesisSpec(
        start=datetime(2022, 4, 4, tzinfo=UTC),
        hours=hours,
        coin_price=PriceBlock((20000.0,) * 24, 250.0, 15000.0, 25000.0),
        rt_price=PriceBlock((55.0,) * 24, 10.0, 1.0, 105.0),
        programs=programs,
        joint=joint_pair(programs, 0.5, "regup", "regdn") if joint else None,
    )


def test_registry_models_sample_scalar_and_vector(rng):
    examples = [
        {"kind": "truncexp", "mean": 0.18},
        {"kind": "truncexp", "lambda": 3.0},
        {"kind": "bernoulli", "prob": 0.3},
        {"kind": "constant", "value": 0.4},
        {"kind": "uniform", "lo": 0.1, "hi": 0.6},
    ]
    # price_responsive has no sample: its deployment follows the real-time price
    assert {cfg["kind"] for cfg in examples} | {"price_responsive"} == set(EPS_KINDS)
    for cfg in examples:
        model = parse_eps_model(cfg)
        x = model.sample(rng)
        assert isinstance(x, float) and 0.0 <= x <= 1.0, cfg
        assert np.shape(model.sample(rng, 5)) == (5,), cfg


def test_price_responsive_strict_threshold():
    model = PriceResponsiveModel(60.0)
    assert price_responsive_eps(model, 59.99) == 0.0
    assert price_responsive_eps(model, 60.0) == 0.0
    assert price_responsive_eps(model, 500.0) == 1.0


def test_round_trip_identity(tmp_path):
    records = make_records(6, eps=lambda i: (0.125 * i % 1.0, None if i % 2 else 0.75))
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    write_traces(records, m, a)
    loaded = load_traces(m, a, program_ids=("regup", "presp"))
    assert loaded == records


def test_load_empty_files_with_header(tmp_path):
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    m.write_text(",".join(MARKET_HEADER) + "\n")
    a.write_text(",".join(AS_HEADER) + "\n")
    assert load_traces(m, a) == []


def test_load_single_row(tmp_path):
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    m.write_text("timestamp,rt_price,coin_price\n2022-04-04T01:00:00Z,50.0,20000.0\n")
    a.write_text("timestamp,program_id,price,epsilon\n2022-04-04T01:00:00Z,regup,15.0,0.25\n")
    records = load_traces(m, a)
    assert len(records) == 1
    assert records[0].rt_price == 50.0
    assert records[0].deployment == (0.25,)


def test_load_rejects_out_of_range_epsilon(tmp_path):
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    m.write_text("timestamp,rt_price,coin_price\n2022-04-04T01:00:00Z,50.0,20000.0\n")
    a.write_text("timestamp,program_id,price,epsilon\n2022-04-04T01:00:00Z,regup,15.0,1.2\n")
    with pytest.raises(TraceFormatError) as err:
        load_traces(m, a)
    assert "epsilon" in str(err.value) and ":2" in str(err.value)


def test_load_rejects_nan_and_bad_header(tmp_path):
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    m.write_text("timestamp,rt_price,coin_price\n2022-04-04T01:00:00Z,nan,20000.0\n")
    a.write_text("timestamp,program_id,price,epsilon\n")
    with pytest.raises(TraceFormatError):
        load_traces(m, a)
    m.write_text("time,rt,coin\n")
    with pytest.raises(TraceFormatError):
        load_traces(m, a)


def test_load_names_the_as_file_and_line_of_a_bad_timestamp(tmp_path):
    # the market rows parse cleanly first, so a shared parse cache must not hide the bad as.csv row
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    m.write_text("timestamp,rt_price,coin_price\n2022-04-04T01:00:00Z,50.0,20000.0\n")
    a.write_text(
        "timestamp,program_id,price,epsilon\n"
        "2022-04-04T01:00:00Z,regup,15.0,\n"
        "2022-04-04T01:00:00Q,presp,12.0,\n"
    )
    with pytest.raises(TraceFormatError) as err:
        load_traces(m, a)
    assert (err.value.path, err.value.line) == (a, 3)
    assert "bad timestamp" in str(err.value) and f"{a}:3" in str(err.value)


def test_load_warns_and_sorts_on_disorder(tmp_path):
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    m.write_text(
        "timestamp,rt_price,coin_price\n"
        "2022-04-04T02:00:00Z,51.0,20000.0\n"
        "2022-04-04T01:00:00Z,50.0,20000.0\n"
    )
    a.write_text(
        "timestamp,program_id,price,epsilon\n"
        "2022-04-04T01:00:00Z,regup,15.0,\n"
        "2022-04-04T02:00:00Z,regup,15.0,\n"
    )
    with pytest.warns(UserWarning, match="out of order"):
        records = load_traces(m, a)
    assert [r.timestamp.hour for r in records] == [1, 2]


def test_load_rejects_missing_program_row(tmp_path):
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    m.write_text(
        "timestamp,rt_price,coin_price\n"
        "2022-04-04T01:00:00Z,50.0,20000.0\n"
        "2022-04-04T02:00:00Z,51.0,20000.0\n"
    )
    a.write_text(
        "timestamp,program_id,price,epsilon\n"
        "2022-04-04T01:00:00Z,regup,15.0,\n"
    )
    with pytest.raises(TraceFormatError, match="missing program"):
        load_traces(m, a)


def test_synthesize_deterministic(tmp_path):
    spec = synth_spec()
    a = synthesize_traces(spec, seed=7)
    b = synthesize_traces(spec, seed=7)
    assert a == b
    c = synthesize_traces(spec, seed=8)
    assert a != c
    # file-level determinism
    write_traces(a, tmp_path / "m1.csv", tmp_path / "a1.csv")
    write_traces(b, tmp_path / "m2.csv", tmp_path / "a2.csv")
    assert (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()
    assert (tmp_path / "a1.csv").read_bytes() == (tmp_path / "a2.csv").read_bytes()


def test_synthesize_constant_prices():
    programs = (SynthProgram("p", "up", PriceBlock((10.0,) * 24), ConstantEps(0.5)),)
    spec = SynthesisSpec(
        start=datetime(2022, 1, 1, tzinfo=UTC),
        hours=48,
        coin_price=PriceBlock((20000.0,) * 24),
        rt_price=PriceBlock((55.0,) * 24),
        programs=programs,
    )
    records = synthesize_traces(spec, seed=1)
    assert {r.rt_price for r in records} == {55.0}
    assert {r.as_prices[0] for r in records} == {10.0}
    assert {r.deployment[0] for r in records} == {0.5}


def test_synthesize_regulation_means_match():
    spec = synth_spec(hours=10**5)
    records = synthesize_traces(spec, seed=3)
    eps_up = np.array([r.deployment[1] for r in records])
    eps_dn = np.array([r.deployment[2] for r in records])
    for col, expect in ((eps_up, 0.5 * 0.18), (eps_dn, 0.5 * 0.27)):
        se = col.std(ddof=1) / math.sqrt(col.size)
        assert abs(col.mean() - expect) <= 3.0 * se
    # mutual exclusivity of the pair
    assert np.all((eps_up == 0.0) | (eps_dn == 0.0))


def test_synthesize_price_responsive_consistency():
    spec = synth_spec(hours=2000)
    records = synthesize_traces(spec, seed=11)
    for r in records:
        assert r.deployment[0] == (1.0 if r.rt_price > 60.0 else 0.0)


def test_load_synthesis_spec(tmp_path):
    cfg = {
        "start": "2022-04-04T00:00:00Z",
        "hours": 12,
        "coin_price": {"mean": 20000, "sd": 100, "min": 15000},
        "rt_price": {"hourly_mean": list(range(24)), "sd": 2},
        "programs": [
            {"id": "presp", "direction": "up", "price": {"mean": 12},
             "eps": {"kind": "price_responsive", "threshold": 60}},
            {"id": "regup", "direction": "up", "price": {"mean": 15},
             "eps": {"kind": "truncexp", "mean": 0.18}},
            {"id": "regdn", "direction": "down", "price": {"mean": 9},
             "eps": {"kind": "truncexp", "mean": 0.27}},
        ],
        "joint": {"up": "regup", "down": "regdn", "theta": 0.4},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(cfg))
    spec = load_synthesis_spec(path)
    assert spec.hours == 12
    assert spec.joint[:2] == (1, 2) and spec.joint[2].theta == 0.4
    assert spec.programs[1].eps_model.mean() == pytest.approx(0.18, abs=1e-9)
    records = synthesize_traces(spec, seed=0)
    assert len(records) == 12


def test_estimate_stats_all_zero():
    records = make_records(10, eps=lambda i: (0.0, None))
    stats = estimate_stats(records, 0)
    assert stats.mean_eps == 0.0 and stats.var_eps == 0.0


def test_estimate_stats_alternating():
    records = make_records(1000, eps=lambda i: (float(i % 2), None))
    stats = estimate_stats(records, 0)
    assert stats.mean_eps == pytest.approx(0.5)
    assert stats.var_eps == pytest.approx(0.25 * 1000.0 / 999.0, rel=1e-12)


def test_estimate_stats_truncexp_consistency(rng):
    lam = fit_lambda(0.18)
    dist = TruncatedExponential(lam)
    draws = dist.sample(rng, 20000)
    records = make_records(20000, eps=lambda i: (float(draws[i]), None))
    stats = estimate_stats(records, 0)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(stats.mean_eps - 0.18) <= 3.0 * se


def test_estimate_stats_requires_observations():
    records = make_records(5, eps=lambda i: (None, 0.5))
    with pytest.raises(InvalidInputError):
        estimate_stats(records, 0)
    with pytest.raises(InvalidInputError):
        estimate_stats(records[:1], 1)


def test_per_slot_rewards_worked_example():
    rec = TraceRecord(
        timestamp=datetime(2022, 4, 4, tzinfo=UTC),
        rt_price=50.0,
        coin_price=20000.0,
        program_ids=("p",),
        as_prices=(10.0,),
        deployment=(0.5,),
    )
    config = [
        MachineType("new", 100.0, energy_intensity=110.0),
        MachineType("old", 150.0, energy_intensity=130.0),
    ]
    fleet = per_slot_rewards(rec, config)
    np.testing.assert_allclose(fleet.capacities, [150.0, 100.0])
    np.testing.assert_allclose(
        fleet.rewards, [20000.0 / 130.0 - 50.0, 20000.0 / 110.0 - 50.0]
    )
    assert fleet.rewards[0] == pytest.approx(103.846, abs=1e-3)
    assert fleet.rewards[1] == pytest.approx(131.818, abs=1e-3)


def test_per_slot_rewards_clamp_and_merge():
    rec = TraceRecord(
        timestamp=datetime(2022, 4, 4, tzinfo=UTC),
        rt_price=50.0,
        coin_price=0.0,
        program_ids=("p",),
        as_prices=(10.0,),
        deployment=(0.5,),
    )
    config = [
        MachineType("new", 100.0, energy_intensity=110.0),
        MachineType("old", 150.0, energy_intensity=130.0),
    ]
    with pytest.raises(ModelViolationError):
        per_slot_rewards(rec, config)
    fleet = per_slot_rewards(rec, config, clamp_negative=True)
    assert fleet.n_types == 1
    assert fleet.machines[0].reward == 0.0
    assert fleet.total_capacity_mw == 250.0


# ── Column-built slot tables against the per-record scalar path ─────────


def _edge_records(rng, hours=72):
    """Hourly records from 11:00: clamped afternoons, blank eps cells, three programs."""
    start = datetime(2022, 4, 4, 11, tzinfo=UTC)
    records = []
    for t in range(hours):
        ts = start + t * (datetime(2022, 1, 1, 1) - datetime(2022, 1, 1))
        afternoon = 13 <= ts.hour <= 16
        deployment = tuple(
            None if (t + i) % 5 == 0 else float(rng.choice([0.0, 1.0, rng.uniform()]))
            for i in range(3)
        )
        records.append(
            TraceRecord(
                timestamp=ts,
                rt_price=float(rng.uniform(190.0, 260.0) if afternoon else rng.uniform(20.0, 60.0)),
                coin_price=float(rng.uniform(19000.0, 21000.0)),
                program_ids=("presp", "regup", "regdn"),
                as_prices=tuple(float(x) for x in rng.uniform(5.0, 40.0, 3)),
                deployment=deployment,
            )
        )
    return records


EDGE_FLEETS = {
    "shipped": [MachineType("s19", 100.0, energy_intensity=110.0),
                MachineType("s9", 150.0, energy_intensity=130.0)],
    # equal intensities tie every slot; ids out of order and 0.1 + 0.2 + 0.3
    # make the merged capacity depend on the (reward, id) sum order, and the
    # exact total 1.45 of the three merged types differs from their float sum
    "ties": [MachineType("c", 0.3, energy_intensity=110.0),
             MachineType("b", 0.2, energy_intensity=110.0),
             MachineType("a", 0.1, energy_intensity=110.0),
             MachineType("e", 0.7, energy_intensity=120.0),
             MachineType("d", 0.15, energy_intensity=130.0)],
}
EDGE_PROGRAMS = {
    "given": ["presp", "regup", "regdn"],
    "reversed": ["regdn", "regup", "presp"],
    "subset": ["regdn", "presp"],
}


def _programs(ids):
    return [ProgramSpec(id=i, price=0.0, direction="down" if i == "regdn" else "up") for i in ids]


def _scalar_batch(records, machines, programs, clamp):
    fleets = [per_slot_rewards(r, machines, clamp) for r in records]
    columns = [deployment_for(r, programs) for r in records]
    return SlotBatch(
        fleets,
        [programs_for_record(r, programs) for r in records],
        [eps for eps, _ in columns],
        fleets[0].total_capacity_mw,
        [missing for _, missing in columns],
    )


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_slot_batch_matches_scalar_path_bitwise(rng):
    records = _edge_records(rng)
    checked = 0
    for fleet_name, machines in EDGE_FLEETS.items():
        for config, ids in EDGE_PROGRAMS.items():
            programs = _programs(ids)
            fast = slot_batch(records, machines, programs, clamp_negative=True)
            ref = _scalar_batch(records, machines, programs, clamp=True)
            where = f"{fleet_name}/{config}"
            assert fast.cap == ref.cap, where
            # fleet tables differ in layout (ties stay as zero-capacity types), costs may not
            for name in ("raw_eps", "eps", "prices", "quoted_prices", "missing"):
                assert _same_bits(getattr(fast, name), getattr(ref, name)), f"{where}: {name}"
            cands = rng.dirichlet(np.ones(len(ids) + 1), 16)[:, :-1] * fast.cap
            assert _same_bits(fast.costs_for(cands), ref.costs_for(cands)), where
            for c in cands[:4]:
                assert _same_bits(fast.total_subgradient(c), ref.total_subgradient(c)), where
                for t in range(fast.T):
                    cost, grad = fast.cost_and_subgradient(t, c)
                    ref_cost, ref_grad = ref.cost_and_subgradient(t, c)
                    assert cost == ref_cost and _same_bits(grad, ref_grad), f"{where}: slot {t}"
            checked += 1
    assert checked == 6
    # the fixture does hold clamped ties and blank cells, and slot 0's exact
    # capacity total is not its float sum
    ties = slot_batch(records, EDGE_FLEETS["ties"], _programs(["regdn"]), clamp_negative=True)
    assert (ties.rewards[:, -1] == 0.0).any() and ties.missing.any()
    assert ties.cap == 1.45 != ties.cum_capacities[0, -1]


def test_slot_batch_keeps_the_scalar_errors(rng):
    records = _edge_records(rng, hours=30)
    no_intensity = [*EDGE_FLEETS["shipped"], MachineType("bare", 10.0, reward=5.0)]
    negative_coin = list(records)
    negative_coin[7] = TraceRecord(**{**vars(records[7]), "coin_price": -1.0})
    # a NaN intensity raises nothing on either path, so the coin error must still surface
    nan_intensity = [MachineType("nan", 10.0, energy_intensity=math.nan), *EDGE_FLEETS["shipped"]]
    cases = [
        (records[3:], EDGE_FLEETS["ties"], False),  # afternoon rewards below zero, unclamped
        (negative_coin, EDGE_FLEETS["shipped"], True),
        (records, no_intensity, True),
        (negative_coin, nan_intensity, True),
    ]
    programs = _programs(EDGE_PROGRAMS["given"])
    for recs, machines, clamp in cases:
        with pytest.raises(Exception) as scalar:
            _scalar_batch(recs, machines, programs, clamp)
        with pytest.raises(Exception) as fast:
            slot_batch(recs, machines, programs, clamp)
        assert type(fast.value) is type(scalar.value)
        assert str(fast.value) == str(scalar.value)
    with pytest.raises(InvalidInputError, match="same program ids"):
        slot_batch([records[0], TraceRecord(**{**vars(records[1]), "program_ids": ("a", "b", "c")})],
                   EDGE_FLEETS["shipped"], programs)
