import csv
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from minerflex import ProgramSpec, hindsight_optimum, load_fleet_config, load_traces
import minerflex.cli as cli
from minerflex.cli import main
from minerflex.traces import observed_slots

from conftest import child_env
from test_online import lp_hindsight_value

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def run_cli(*argv, check=True, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "minerflex.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=child_env(),
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


@pytest.fixture(scope="module")
def traces_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    run_cli("synthesize-traces", "--spec", CONFIGS / "synthesis_week.json", "--seed", 17, "--out", out)
    return out


def read_csvs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def test_usage_error_exit_code(tmp_path):
    proc = run_cli("solve-offline", check=False)
    assert proc.returncode == 1
    proc = run_cli("no-such-command", check=False)
    assert proc.returncode == 1

    fleet_programs = ["--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json"]
    traces = ["--traces-market", tmp_path / "market.csv", "--traces-as", tmp_path / "as.csv"]
    usage_errors = [
        # a lone --traces-* flag would otherwise run parametric and ignore it
        ["solve-offline", *fleet_programs, *traces[:2]],
        ["solve-offline", *fleet_programs, *traces[2:]],
        ["solve-risk", "--config", CONFIGS / "risk.json", *traces[2:]],
        ["compare-strategies", *fleet_programs, *traces, "--window-start", "yesterday",
         "--window-end", "2022-04-05T00:00:00Z"],
        ["compare-strategies", *fleet_programs, *traces, "--window-start", "2022-04-05T00:00:00Z"],
    ]
    for argv in usage_errors:
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in [*argv, "--out", tmp_path / "o"]])
        assert exc.value.code == 1, argv
    assert not (tmp_path / "o").exists()


def test_validation_error_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    proc = run_cli(
        "solve-offline", "--fleet", missing, "--programs", missing, "--out", tmp_path / "o",
        check=False,
    )
    assert proc.returncode == 2
    assert "error" in proc.stderr

    # a price-responsive program cannot be sampled without real-time prices
    programs = tmp_path / "programs.json"
    programs.write_text(json.dumps({
        "economics": {"coin_price": 20000, "electricity_price": 50},
        "programs": [{"id": "presp", "price": 12.0, "eps": {"kind": "price_responsive", "threshold": 60}}],
    }))
    proc = run_cli(
        "solve-offline", "--fleet", CONFIGS / "fleet.json", "--programs", programs,
        "--out", tmp_path / "p", check=False,
    )
    assert proc.returncode == 2
    assert "presp" in proc.stderr

    # a non-finite risk weight would reach summary.json as an invalid JSON literal
    for weight in ("nan", "inf"):
        out = tmp_path / f"risk-{weight}"
        proc = run_cli(
            "solve-risk", "--config", CONFIGS / "risk.json", "--risk-weight", weight, "--out", out,
            check=False,
        )
        assert proc.returncode == 2, proc.stderr
        assert "risk_weight" in proc.stderr
        assert not (out / "summary.json").exists()


def test_non_finite_json_output_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # the cost-range checks keep config inputs from reaching a non-finite output, so a
    # patched solver supplies one: summary.json would hold an Infinity literal
    monkeypatch.setattr(cli, "expected_reg_cost", lambda inst, c_up, c_dn: math.inf)
    out = tmp_path / "o"
    rc = main([str(a) for a in ["solve-reg", "--config", CONFIGS / "reg.json", "--out", out]])
    err = capsys.readouterr().err
    assert rc == 3 and "error: summary.json: Out of range float values" in err, err
    assert list(out.iterdir()) == []


# a config field at 1e308, and the other arguments of the command that reads it
PARAMETRIC_OVERFLOWS = {
    "solve-offline": ("programs.json", ("programs", 0, "price"),
                      ["--fleet", CONFIGS / "fleet.json", "--iterations", 100, "--programs"]),
    "solve-reg": ("reg.json", ("p_up",), ["--config"]),
    "solve-risk": ("risk.json", ("programs", 0, "price"), ["--config"]),
}


@pytest.mark.parametrize("command", sorted(PARAMETRIC_OVERFLOWS))
def test_overflowing_parametric_costs_exit_3_before_any_solve(command, tmp_path, capsys):
    # the parametric counterpart of the trace check: one error line, no numpy warning, nothing written
    name, field, args = PARAMETRIC_OVERFLOWS[command]
    config = tmp_path / name
    config.write_text(json.dumps(_edit(json.loads((CONFIGS / name).read_text()), field, 1e308)))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([str(a) for a in [command, *args, config, "--out", out]])
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert rc == 3 and err.startswith("error: costs overflow: 250.0 MW at rewards up to ") and err.count("\n") == 1, err
    assert err.rstrip().endswith("program prices up to 1e+308"), err
    assert list(out.iterdir()) == []


# a truncated-exponential mean, and the other arguments of the command that reads it
TRUNCEXP_MEANS = {
    "solve-offline": ("programs.json", ("programs", 1, "eps", "mean"),
                      ["--fleet", CONFIGS / "fleet.json", "--iterations", 100, "--programs"]),
    "solve-reg": ("reg.json", ("mean_up",), ["--config"]),
}


@pytest.mark.parametrize("command", sorted(TRUNCEXP_MEANS))
def test_small_truncexp_means_fit_or_exit_2_naming_the_file(command, tmp_path, capsys):
    # mean 0.001 needs a rate near 1000, past where expm1 overflows; no rate below 1e9 reaches 1e-320
    name, field, args = TRUNCEXP_MEANS[command]
    for mean, code in ((0.001, 0), (1e-320, 2)):
        config = tmp_path / f"{mean}-{name}"
        config.write_text(json.dumps(_edit(json.loads((CONFIGS / name).read_text()), field, mean)))
        rc = main([str(a) for a in [command, *args, config, "--out", tmp_path / f"o-{mean}"]])
        err = capsys.readouterr().err
        assert rc == code, err
        if code:
            assert err == f"error: {config}: no rate reaches mean 1e-320\n", err


@pytest.mark.parametrize("field, value", [(("programs", 1, "var_eps"), 1e-310), (("risk_weight",), 1e-320)])
def test_solve_risk_tiny_variance_term_gives_the_vertex(field, value, tmp_path, capsys):
    # b = w r^2 var_eps is subnormal, so 1 / 2b overflows: the zero-variance limit puts all on regup
    config = tmp_path / "risk.json"
    config.write_text(json.dumps(_edit(json.loads((CONFIGS / "risk.json").read_text()), field, value)))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([str(a) for a in ["solve-risk", "--config", config, "--out", out]])
    assert rc == 0 and [str(w.message) for w in caught] == [], capsys.readouterr().err
    assert (out / "profile.csv").read_text().splitlines() == ["program_id,capacity_mw", "presp,0.0", "regup,250.0"]


def test_parametric_fleet_without_rewards_names_both_files(tmp_path, capsys):
    # a machine's reward needs the fleet's intensity and the programs' economics: the message names both files
    programs = tmp_path / "programs.json"
    programs.write_text(json.dumps(_edit(json.loads((CONFIGS / "programs.json").read_text()), ("economics",))))
    out = tmp_path / "o"
    rc = main([str(a) for a in ["solve-offline", "--fleet", CONFIGS / "fleet.json", "--programs", programs,
                                "--out", out]])
    err = capsys.readouterr().err
    assert rc == 2 and f"{CONFIGS / 'fleet.json'}, {programs}: machine 's19-class' has no reward" in err, err
    assert list(out.iterdir()) == []


def _as_csv_at_price(traces_dir, tmp_path, price):
    """Copy of the week's as.csv with every program price set to ``price``."""
    with open(traces_dir / "as.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    path = tmp_path / "as.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *([ts, pid, price, eps] for ts, pid, _, eps in rows)])
    return path


OVERFLOW_MESSAGE = "slot costs overflow: 168 slots of 250.0 MW at rewards up to "


def test_compare_strategies_overflowing_prices_exits_3(traces_dir, tmp_path, capsys):
    # every price at 1e308 is a valid trace, but the window's slot costs and mean price overflow
    out = tmp_path / "o"
    argv = ["compare-strategies", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
            "--traces-market", traces_dir / "market.csv", "--traces-as", _as_csv_at_price(traces_dir, tmp_path, "1e308"),
            "--out", out]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would fail the run with its own message
        rc = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert rc == 3 and f"error: {OVERFLOW_MESSAGE}" in err and "program prices up to 1e+308" in err, err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["solve-offline", "simulate-online"])
def test_overflowing_trace_prices_exit_3_before_any_solve(command, traces_dir, tmp_path, capsys):
    # the check runs where the fleet meets the traces: no solve runs on infinite costs, no warning is printed
    out = tmp_path / "o"
    argv = [command, "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
            "--traces-market", traces_dir / "market.csv", "--traces-as", _as_csv_at_price(traces_dir, tmp_path, "1e308"),
            "--out", out]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert rc == 3 and err.startswith(f"error: {OVERFLOW_MESSAGE}") and err.count("\n") == 1, err
    assert list(out.iterdir()) == []


def test_solve_risk_overflowing_trace_prices_exit_3_naming_the_as_file(traces_dir, tmp_path, capsys):
    # the price statistics would overflow: the check runs before them and names the file the prices came from
    as_csv = _as_csv_at_price(traces_dir, tmp_path, "1e308")
    out = tmp_path / "o"
    argv = ["solve-risk", "--config", CONFIGS / "risk.json", "--traces-market", traces_dir / "market.csv",
            "--traces-as", as_csv, "--out", out]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert rc == 3 and err.startswith(f"error: {as_csv}: costs overflow: 250.0 MW at rewards up to ") and err.count("\n") == 1, err
    assert err.rstrip().endswith("program prices up to 1e+308"), err
    assert list(out.iterdir()) == []


def test_trace_prices_that_cannot_overflow_still_solve(traces_dir, tmp_path):
    # 1e300 $/MWh over a 168-slot week of a 250 MW fleet stays far inside the float range
    argv = ["simulate-online", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
            "--traces-market", traces_dir / "market.csv", "--traces-as", _as_csv_at_price(traces_dir, tmp_path, "1e300"),
            "--out", tmp_path / "o"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([str(a) for a in argv]) == 0


def test_unreadable_trace_exit_code(traces_dir, tmp_path, capsys):
    # files the csv reader cannot decode or split must fail like any bad trace: exit 2, file named
    market, as_csv = (traces_dir / name for name in ("market.csv", "as.csv"))
    non_utf8 = tmp_path / "non-utf8-market.csv"
    non_utf8.write_bytes(market.read_bytes().replace(b"\n", b"\xff\n", 5))
    huge_field = tmp_path / "huge-field-as.csv"
    huge_field.write_text(as_csv.read_text() + "2022-04-04T00:00:00Z,regup,1.0," + "9" * 200_000 + "\n")
    directory = tmp_path / "a-directory"
    directory.mkdir()
    cases = {non_utf8: (non_utf8, as_csv), huge_field: (market, huge_field), directory: (directory, as_csv)}
    failures = []
    for bad, (m, a) in cases.items():
        argv = ["simulate-online", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
                "--traces-market", m, "--traces-as", a, "--out", tmp_path / "o"]
        rc = main([str(x) for x in argv])
        err = capsys.readouterr().err
        if rc != 2 or str(bad) not in err:
            failures.append(f"{bad.name}: exit {rc}: {err.strip()}")
    assert not failures, "\n".join(failures)


def test_negative_seed_exit_code(traces_dir, tmp_path, capsys):
    # every command takes --seed; a negative one is a validation error, not a
    # numerical failure deep in numpy or a run recorded under that seed
    fleet_programs = ["--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json"]
    traces = ["--traces-market", traces_dir / "market.csv", "--traces-as", traces_dir / "as.csv"]
    commands = [
        ["synthesize-traces", "--spec", CONFIGS / "synthesis_week.json"],
        ["solve-offline", *fleet_programs],
        ["solve-offline", *fleet_programs, *traces],
        ["solve-reg", "--config", CONFIGS / "reg.json"],
        ["solve-risk", "--config", CONFIGS / "risk.json"],
        ["simulate-online", *fleet_programs, *traces],
        ["compare-strategies", *fleet_programs, *traces],
        ["verify", "--fast"],
    ]
    failures = []
    for i, argv in enumerate(commands):
        out = tmp_path / f"o{i}"
        rc = main([str(a) for a in [*argv, "--seed", "-1", "--out", out]])
        err = capsys.readouterr().err
        if rc != 2 or "seed must be >= 0, got -1" not in err or out.exists():
            failures.append(f"{argv[0]}: exit {rc}: {err.strip()}")
    assert not failures, "\n".join(failures)
    proc = run_cli("solve-reg", "--config", CONFIGS / "reg.json", "--seed", "-3", "--out", tmp_path / "p", check=False)
    assert proc.returncode == 2 and "seed must be >= 0, got -3" in proc.stderr


# Every shipped config, the command that reads it, a required field and a
# numeric field (paths into the decoded JSON) and the message a missing field gives.
MALFORMED_CONFIGS = {
    "fleet": ("fleet.json", ["solve-offline", "--programs", CONFIGS / "programs.json", "--fleet"],
              (1, "capacity_mw"), (0, "capacity_mw"), "machine #1 missing field 'capacity_mw'"),
    "programs": ("programs.json", ["solve-offline", "--fleet", CONFIGS / "fleet.json", "--programs"],
                 ("programs", 0, "id"), ("programs", 0, "price"), "missing field 'id'"),
    "reg": ("reg.json", ["solve-reg", "--config"],
            ("fleet", 1, "capacity_mw"), ("theta",), "machine #1 missing field 'capacity_mw'"),
    "risk": ("risk.json", ["solve-risk", "--config"],
             ("reward_rate",), ("cap",), "missing field 'reward_rate'"),
    "spec": ("synthesis_week.json", ["synthesize-traces", "--spec"],
             ("hours",), ("hours",), "missing field 'hours'"),
}
# Defects only the parser's own checks catch: config name -> defect -> (path, value, message).
HUGE = 10**400  # an integer literal past the largest double
SEMANTIC_DEFECTS = {
    "fleet": {
        "duplicate_machine_id": ((1, "id"), "s19-class", "duplicate machine id 's19-class'"),
        "huge_integer": ((0, "capacity_mw"), HUGE, "too large to convert to float"),
        # float() reads these strings as non-finite numbers; each once ran on to "costs overflow" (exit 3)
        "nan_string": ((0, "capacity_mw"), "nan", "machine #0: capacity_mw must be a finite number, got 'nan'"),
        # float() reads true as 1.0 and "12" as 12.0; each once ran on and exited 0
        "boolean": ((0, "capacity_mw"), True, "machine #0: capacity_mw must be a finite number, got True"),
        "numeric_string": ((0, "capacity_mw"), "100", "machine #0: capacity_mw must be a finite number, got '100'"),
    },
    "programs": {
        "negative_coin_price": (("economics", "coin_price"), -1, "coin_price must be >= 0, got -1.0"),
        "duplicate_program_id": (("programs", 1, "id"), "presp", "duplicate program id 'presp'"),
        # found by the config fuzzer: both exited 2 without naming a file
        "no_eps_model": (("programs", 0, "eps"), None, "program 'presp' has no sampled eps_model"),
        "negative_net_reward": (("economics", "electricity_price"), 500, "has negative net reward"),
        "huge_integer": (("programs", 0, "price"), HUGE, "too large to convert to float"),
        "nan_string": (("programs", 0, "price"), "nan", "program 'presp': price must be a finite number, got 'nan'"),
        "boolean": (("programs", 0, "price"), True, "program 'presp': price must be a finite number, got True"),
        "numeric_string": (("programs", 0, "price"), "12", "program 'presp': price must be a finite number, got '12'"),
    },
    "reg": {
        "negative_coin_price": (("economics", "coin_price"), -1, "coin_price must be >= 0, got -1.0"),
        "duplicate_machine_id": (("fleet", 1, "id"), "s19-class", "duplicate machine id 's19-class'"),
        "huge_integer": (("p_up",), HUGE, "too large to convert to float"),
        "nan_string_p_up": (("p_up",), "nan", "p_up must be a finite number, got 'nan'"),
        # once exit 3 from writing a NaN into summary.json, naming no config
        "nan_string_p_dn": (("p_dn",), "nan", "p_dn must be a finite number, got 'nan'"),
        "boolean": (("theta",), False, "theta must be a finite number, got False"),
        "numeric_string": (("p_up",), "20", "p_up must be a finite number, got '20'"),
    },
    "risk": {
        "negative_risk_weight": (("risk_weight",), -1, "risk_weight must be finite and >= 0, got -1.0"),
        "no_programs": (("programs",), [], "need at least one program"),
        "duplicate_program_id": (("programs", 1, "id"), "presp", "duplicate program id 'presp'"),
        "huge_integer": (("cap",), HUGE, "too large to convert to float"),
        "nan_string_cap": (("cap",), "nan", "cap must be a finite number, got 'nan'"),
        "nan_string_reward_rate": (("reward_rate",), "nan", "reward_rate must be a finite number, got 'nan'"),
        "boolean": (("risk_weight",), True, "risk_weight must be a finite number, got True"),
        "numeric_string": (("cap",), "10", "cap must be a finite number, got '10'"),
    },
    "spec": {
        "duplicate_program_id": (("programs", 1, "id"), "presp", "duplicate program id 'presp'"),
        "zero_hours": (("hours",), 0, "at least one hour"),
        # rejected on parsing, before a timestamp or an array of that many hours is built
        "hours_past_the_bound": (("hours",), 10**15, "at most 876600 hours, got 1000000000000000"),
        "hours_one_past_the_bound": (("hours",), 876601, "at most 876600 hours, got 876601"),
        "hours_past_year_9999": (("start",), "9999-12-31T00:00:00Z",
                                 "168 hours from 9999-12-31 00:00:00+00:00 run past year 9999"),
        "joint_unknown_program": (("joint",), {"theta": 0.5, "up": "regup", "down": "nope"},
                                  "unknown program"),
        "start_past_year_9999_in_utc": (("start",), "9999-12-31T23:00:00-05:00", "out of range"),
        "negative_sd": (("rt_price", "sd"), -1, "sd must be >= 0"),
        "min_above_max": (("coin_price", "min"), 23000, "exceeds max"),
        "huge_integer": (("coin_price", "mean"), HUGE, "too large to convert to float"),
        # each once exited 0; the first two wrote nan cells that load_traces refused, "max" switched clipping off
        "nan_string_sd": (("coin_price", "sd"), "nan", "coin_price: sd must be a finite number, got 'nan'"),
        "nan_string_mean": (("coin_price", "mean"), "nan", "coin_price: mean must be a finite number, got 'nan'"),
        "nan_string_max": (("coin_price", "max"), "nan", "coin_price: max must be a finite number, got 'nan'"),
        "boolean": (("coin_price", "sd"), True, "coin_price: sd must be a finite number, got True"),
        "numeric_string": (("coin_price", "mean"), "20000", "coin_price: mean must be a finite number, got '20000'"),
        # int() once read these as 168 and 1 hours, and exited 0
        "fractional_hours": (("hours",), 168.7, "hours must be a whole number, got 168.7"),
        "boolean_hours": (("hours",), True, "hours must be a finite number, got True"),
    },
}


def _edit(cfg, path, value=None):
    """Copy of ``cfg`` with the field at ``path`` set to ``value`` (deleted when None)."""
    cfg = json.loads(json.dumps(cfg))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return cfg


def test_malformed_config_exit_code(tmp_path, capsys):
    failures = []
    for name, (shipped, argv, required, numeric, missing_msg) in MALFORMED_CONFIGS.items():
        text = (CONFIGS / shipped).read_text()
        cfg = json.loads(text)
        defects = {
            "bad_json": (text[: len(text) // 2], None),
            "wrong_type": (json.dumps(cfg[0] if isinstance(cfg, list) else [cfg]), None),
            "missing_field": (json.dumps(_edit(cfg, required)), missing_msg),
            "non_numeric": (json.dumps(_edit(cfg, numeric, "x")), None),
            "nan_literal": (json.dumps(_edit(cfg, numeric, float("nan"))), "NaN"),
        }
        for defect, (field, value, message) in SEMANTIC_DEFECTS.get(name, {}).items():
            defects[defect] = (json.dumps(_edit(cfg, field, value)), message)
        for defect, (content, message) in defects.items():
            path = tmp_path / f"{name}-{defect}.json"
            path.write_text(content)
            rc = main([str(a) for a in [*argv, path, "--out", tmp_path / "o"]])
            err = capsys.readouterr().err
            if rc != 2 or str(path) not in err or (message and message not in err):
                failures.append(f"{name}/{defect}: exit {rc}: {err.strip()}")
    assert not failures, "\n".join(failures)


def test_synthesis_hours_may_be_a_whole_float(tmp_path):
    """A spec's "hours": 168.0 synthesizes the bytes of 168; SEMANTIC_DEFECTS holds a fractional and a boolean "hours"."""
    cfg = json.loads((CONFIGS / "synthesis_week.json").read_text())
    for name, hours in (("int", 168), ("whole", 168.0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**cfg, "hours": hours}))
        assert main([str(a) for a in ["synthesize-traces", "--spec", path, "--seed", "17", "--out", tmp_path / name]]) == 0
    for table in ("market.csv", "as.csv"):
        assert (tmp_path / "whole" / table).read_bytes() == (tmp_path / "int" / table).read_bytes()


@pytest.mark.parametrize(
    "fleet",
    [
        pytest.param([{"id": "a", "capacity_mw": 100, "energy_intensity_mwh_per_coin": 110},
                      {"id": "b", "capacity_mw": 90, "energy_intensity_mwh_per_coin": 120},
                      {"id": "c", "capacity_mw": 60, "energy_intensity_mwh_per_coin": 130}], id="three_types"),
        pytest.param([{"id": "a", "capacity_mw": 100, "energy_intensity_mwh_per_coin": 120},
                      {"id": "b", "capacity_mw": 150, "energy_intensity_mwh_per_coin": 120}], id="merged_to_one_type"),
    ],
)
def test_reg_config_takes_any_number_of_machine_types(fleet, tmp_path, capsys):
    # the regulation cost takes any number of types: three, or two that canonicalize merges into one
    cfg = json.loads((CONFIGS / "reg.json").read_text())
    path = tmp_path / "reg.json"
    path.write_text(json.dumps({**cfg, "fleet": fleet}))
    rc = main([str(a) for a in ["solve-reg", "--config", path, "--out", tmp_path / "o"]])
    assert rc == 0, capsys.readouterr().err
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert 0.0 <= summary["gap"] <= 1e-9 * abs(summary["expected_cost"])


@pytest.mark.parametrize("name", ["programs", "risk", "spec"])
def test_program_id_with_control_character_exit_code(name, tmp_path, capsys):
    # an id names CSV columns and cells: a bare carriage return would be written unquoted
    shipped, argv, *_ = MALFORMED_CONFIGS[name]
    cfg = json.loads((CONFIGS / shipped).read_text())
    failures = []
    for i, char in enumerate(["\r", "\n", "\t", "\x00", "\x1f", "\x7f"]):
        pid = f"reg{char}up"
        path = tmp_path / f"{name}-{i}.json"
        path.write_text(json.dumps(_edit(cfg, ("programs", 1, "id"), pid)))
        out = tmp_path / f"o{i}"
        rc = main([str(a) for a in [*argv, path, "--out", out]])
        err = capsys.readouterr().err
        if rc != 2 or f"{path}: program id {pid!r} holds a control character" not in err or any(out.iterdir()):
            failures.append(f"{char!r}: exit {rc}: {err.strip()}")
    assert not failures, "\n".join(failures)


def test_config_dir_env_var(tmp_path):
    env_dir = tmp_path / "cfgs"
    env_dir.mkdir()
    (env_dir / "risk.json").write_text((CONFIGS / "risk.json").read_text())
    # minimal env, plus the import path of the minerflex this process imported
    base_env = child_env({"PATH": "/usr/bin:/bin"})

    def solve_risk(out, env):
        # cwd holds no risk.json, so only the config-dir fallback can find it
        return subprocess.run(
            [sys.executable, "-m", "minerflex.cli", "solve-risk", "--config", "risk.json",
             "--out", str(out)],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )

    proc = solve_risk(tmp_path / "o", {**base_env, "MINERFLEX_CONFIG_DIR": str(env_dir)})
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config_paths"]["config"] == str(env_dir / "risk.json")
    assert (tmp_path / "o" / "profile.csv").is_file()

    proc = solve_risk(tmp_path / "no_env", base_env)
    assert proc.returncode == 2, proc.stderr
    assert "risk.json" in proc.stderr


def test_failed_verify_still_writes_its_outputs(tmp_path, monkeypatch, capsys):
    from minerflex import cli
    from minerflex.verify import CheckResult

    results = [CheckResult("holds", True, "ok"), CheckResult("breaks", False, "off by one")]
    monkeypatch.setattr(cli, "run_verify", lambda fast, seed: results)
    out = tmp_path / "o"
    assert main(["verify", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "FAIL  breaks" in captured.out and "1/2 checks passed" in captured.out
    assert "1 verification checks failed" in captured.err
    assert (out / "checks.csv").read_text().splitlines() == [
        "check,status,detail", "holds,PASS,ok", "breaks,FAIL,off by one",
    ]
    assert json.loads((out / "summary.json").read_text()) == {"checks": 2, "failed": 1}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["outputs"] == ["checks.csv", "summary.json"]


def test_every_csv_parses_back_with_quoted_program_ids(tmp_path):
    # program ids holding a comma and a quote, and verify details holding commas, are quoted
    # cells: every row of every CSV has the header's width, and each id comes back whole
    ids = {"presp": 'p,"resp', "regup": 'reg,"up'}

    def renamed(name):
        cfg = json.loads((CONFIGS / name).read_text())
        for program in cfg["programs"]:
            program["id"] = ids[program["id"]]
        (tmp_path / name).write_text(json.dumps(cfg))
        return tmp_path / name

    traces = tmp_path / "traces"
    fleet_programs = ["--fleet", CONFIGS / "fleet.json", "--programs", renamed("programs.json")]
    trace_files = ["--traces-market", traces / "market.csv", "--traces-as", traces / "as.csv"]
    runs = {
        "traces": ["synthesize-traces", "--spec", renamed("synthesis_week.json")],
        "offline": ["solve-offline", *fleet_programs, *trace_files],
        "param": ["solve-offline", *fleet_programs, "--iterations", 200],
        "reg": ["solve-reg", "--config", CONFIGS / "reg.json"],
        "risk": ["solve-risk", "--config", renamed("risk.json")],
        "risk-traces": ["solve-risk", "--config", tmp_path / "risk.json", *trace_files],
        "online": ["simulate-online", *fleet_programs, *trace_files],
        "compare": ["compare-strategies", *fleet_programs, *trace_files, "--iterations", 200],
        "verify": ["verify", "--fast"],
    }
    tables = {}
    for name, argv in runs.items():
        assert main([str(a) for a in [*argv, "--out", tmp_path / name]]) == 0, name
        for path in (tmp_path / name).glob("*.csv"):
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows and {len(row) for row in rows} == {len(header)}, path
            tables[f"{name}/{path.name}"] = header, rows
    assert len(tables) == 11
    assert any("," in detail for _, _, detail in tables["verify/checks.csv"][1])
    columns = [f"c_{pid}" for pid in ids.values()]
    for name in ("offline/profiles.csv", "param/profiles.csv"):
        assert tables[name][0] == ["hour", *columns, "expected_cost", "bound"]
    assert tables["online/rounds.csv"][0] == ["round", "hour", *columns, "cost", "cum_regret", "avg_regret", "bound"]
    assert {row[1] for row in tables["traces/as.csv"][1]} == set(ids.values())
    for name in ("risk/profile.csv", "risk-traces/profile.csv"):
        assert [row[0] for row in tables[name][1]] == list(ids.values())


def test_synthesize_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("synthesize-traces", "--spec", CONFIGS / "synthesis_week.json", "--seed", 3, "--out", out)
    assert read_csvs(a) == read_csvs(b)
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert len(list(a.glob("manifest.json"))) == 1


def test_solve_offline_parametric_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli(
            "solve-offline", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
            "--iterations", 300, "--seed", 9, "--out", out,
        )
    assert read_csvs(a) == read_csvs(b)
    header = (a / "profiles.csv").read_text().splitlines()[0]
    assert header == "hour,c_presp,c_regup,expected_cost,bound"
    assert len((a / "profiles.csv").read_text().splitlines()) == 25


def test_solve_offline_single_iteration(tmp_path):
    run_cli(
        "solve-offline", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
        "--iterations", 1, "--seed", 9, "--out", tmp_path / "o",
    )
    rows = (tmp_path / "o" / "profiles.csv").read_text().splitlines()[1:]
    bound = float(rows[0].split(",")[-1])
    assert bound > 10000.0  # J=1 leaves a large guarantee


def test_solve_reg_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("solve-reg", "--config", CONFIGS / "reg.json", "--out", out)
    assert read_csvs(a) == read_csvs(b)


def test_solve_risk_zero_weight_matches_linear_rule(tmp_path):
    run_cli(
        "solve-risk", "--config", CONFIGS / "risk.json", "--risk-weight", 0, "--out", tmp_path / "o",
    )
    rows = (tmp_path / "o" / "profile.csv").read_text().splitlines()[1:]
    values = {row.split(",")[0]: float(row.split(",")[1]) for row in rows}
    # zero weight reduces to the vertex rule: all capacity on the cheapest program
    assert values["regup"] == 250.0
    assert values["presp"] == 0.0


@pytest.mark.parametrize("field", ["cap", "reward_rate"])
def test_solve_risk_negative_field_exit_code(tmp_path, field):
    # a negative cap once left the risk solve's bracket search doubling forever;
    # a subprocess with a timeout turns a hang into a failure
    config = tmp_path / "risk.json"
    config.write_text(json.dumps(_edit(json.loads((CONFIGS / "risk.json").read_text()), (field,), -1)))
    for weight in ([], ["--risk-weight", 0], ["--risk-weight", 1]):
        proc = run_cli("solve-risk", "--config", config, *weight, "--out", tmp_path / "o", check=False, timeout=60)
        assert proc.returncode == 2, (weight, proc.stderr)
        assert proc.stderr.startswith(f"error: {config}: {field} must be >= 0, got -1.0"), proc.stderr
    assert not (tmp_path / "o" / "profile.csv").exists()


def test_negative_as_price_exit_code(traces_dir, tmp_path, capsys):
    rows = (traces_dir / "as.csv").read_text().splitlines(keepends=True)
    at = next(i for i, row in enumerate(rows) if row.startswith("2022-04-04T03:00:00Z,presp,"))
    rows[at] = "2022-04-04T03:00:00Z,presp,-1.5," + rows[at].rsplit(",", 1)[1]
    (tmp_path / "as.csv").write_text("".join(rows))
    traces = ["--traces-market", traces_dir / "market.csv", "--traces-as", tmp_path / "as.csv"]
    fleet_programs = ["--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json"]
    for command in ("solve-offline", "simulate-online", "compare-strategies"):
        rc = main([str(a) for a in [command, *fleet_programs, *traces, "--out", tmp_path / command]])
        err = capsys.readouterr().err
        assert rc == 2 and "program 'presp': price must be >= 0, got -1.5" in err, (command, err)


def test_simulate_online_outputs(traces_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli(
            "simulate-online", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
            "--traces-market", traces_dir / "market.csv", "--traces-as", traces_dir / "as.csv",
            "--out", out,
        )
    assert read_csvs(a) == read_csvs(b)
    lines = (a / "rounds.csv").read_text().splitlines()
    assert lines[0] == "round,hour,c_presp,c_regup,cost,cum_regret,avg_regret,bound"
    bounds = {line.split(",")[-1] for line in lines[1:]}
    assert len(bounds) == 1  # bound column constant
    regrets = [float(line.split(",")[-3]) for line in lines[1:]]
    assert all(r >= -1e-6 for r in regrets)
    summary = json.loads((a / "summary.json").read_text())
    assert summary["static_regret"] <= summary["bound"]


def test_compare_strategies_outputs(traces_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli(
            "compare-strategies", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
            "--traces-market", traces_dir / "market.csv", "--traces-as", traces_dir / "as.csv",
            "--iterations", 300, "--seed", 4, "--out", out,
        )
    assert read_csvs(a) == read_csvs(b)
    rows = (a / "strategies.csv").read_text().splitlines()[1:]
    profits = {row.split(",")[0]: float(row.split(",")[1]) for row in rows}
    assert profits["none"] == 0.0
    assert profits["optimized"] >= profits["fixed_profile"] - 1e-9
    assert profits["optimized"] >= profits["even_split"] - 1e-9


def test_simulate_online_ten_rounds(traces_dir, tmp_path):
    # tiny run: regret column stays non-negative, bound column is constant
    import csv

    for name in ("market.csv", "as.csv"):
        src = (traces_dir / name).read_text().splitlines()
        keep = 1 + 10 * (1 if name == "market.csv" else 2)
        (tmp_path / name).write_text("\n".join(src[:keep]) + "\n")
    out = tmp_path / "o"
    run_cli(
        "simulate-online", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
        "--traces-market", tmp_path / "market.csv", "--traces-as", tmp_path / "as.csv",
        "--out", out,
    )
    rows = list(csv.DictReader((out / "rounds.csv").open()))
    assert len(rows) == 10
    assert all(float(r["cum_regret"]) >= -1e-6 for r in rows)
    assert len({r["bound"] for r in rows}) == 1


def test_as_rows_outside_the_market_timestamps_are_ignored(traces_dir, tmp_path):
    # the market file sets the slots; ancillary-service rows at other hours join nothing
    (tmp_path / "market.csv").write_bytes((traces_dir / "market.csv").read_bytes())
    extra = "".join(
        f"{ts},{pid},13.5,0.25\n"
        for ts in ("2022-04-03T23:00:00Z", "2030-01-01T00:00:00Z") for pid in ("presp", "regup")
    )
    (tmp_path / "as.csv").write_text((traces_dir / "as.csv").read_text() + extra)
    outputs = {}
    for name, traces in (("given", traces_dir), ("extra", tmp_path)):
        out = tmp_path / name
        argv = ["simulate-online", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
                "--traces-market", traces / "market.csv", "--traces-as", traces / "as.csv", "--out", out]
        assert main([str(a) for a in argv]) == 0, name
        outputs[name] = {**read_csvs(out), "summary.json": (out / "summary.json").read_bytes()}
    assert outputs["extra"] == outputs["given"]


def test_solve_offline_traces_mode(traces_dir, tmp_path):
    run_cli(
        "solve-offline", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
        "--traces-market", traces_dir / "market.csv", "--traces-as", traces_dir / "as.csv",
        "--iterations", 300, "--seed", 4, "--out", tmp_path / "o",
    )
    lines = (tmp_path / "o" / "profiles.csv").read_text().splitlines()
    assert len(lines) == 25
    # each hour's bound is its certified cutting-plane gap, and the summary reports the largest
    rows = [[float(x) for x in line.split(",")[-2:]] for line in lines[1:]]
    bounds = [b for _, b in rows]
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    # the solve stops at a gap of 1e-9 of the hour's total cost, at most 168 slots' worth on a week
    assert all(0.0 <= b <= 1e-9 * max(1.0, 168 * abs(cost)) for cost, b in rows)
    assert summary["bound"] == max(bounds)


def test_solve_offline_empty_hour_holds_pooled_optimum(traces_dir, tmp_path):
    # blank every hour-3 epsilon: no hour-3 slot is fully observed
    lines = (traces_dir / "as.csv").read_text().splitlines()
    holed = [lines[0]] + [line.rsplit(",", 1)[0] + "," if line[11:13] == "03" else line for line in lines[1:]]
    (tmp_path / "as.csv").write_text("\n".join(holed) + "\n")
    traces = ["--traces-market", traces_dir / "market.csv", "--traces-as", tmp_path / "as.csv"]
    argv = ["solve-offline", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
            *traces, "--out", tmp_path / "o"]
    assert main([str(a) for a in argv]) == 0
    rows = [line.split(",") for line in (tmp_path / "o" / "profiles.csv").read_text().splitlines()[1:]]

    programs = [ProgramSpec(id=p["id"], price=p["price"], direction=p["direction"])
                for p in json.loads((CONFIGS / "programs.json").read_text())["programs"]]
    week, batch = observed_slots(
        load_traces(traces_dir / "market.csv", tmp_path / "as.csv"), load_fleet_config(CONFIGS / "fleet.json"),
        programs,
    )
    hours = np.array([ts.hour for ts in week.timestamps])
    assert batch.T == 161 and not (hours == 3).any()
    hour3 = np.array([float(x) for x in rows[3][1:3]])
    star = lp_hindsight_value(batch)
    assert abs(float(batch.totals(hour3[None, :])[0][0]) - star) <= 1e-9 * max(1.0, abs(star))
    assert rows[3][3:] == ["nan", "nan"]
    for h in set(range(24)) - {3}:
        profile, gap = hindsight_optimum(batch.take(np.flatnonzero(hours == h)))
        assert rows[h][:3] + rows[h][4:] == [str(h), *map(repr, [*profile.c.tolist(), gap])], h
        cost = batch.cost_and_subgradient(slice(None), profile.c)[0][hours == h].mean()
        assert float(rows[h][3]) == pytest.approx(cost, rel=1e-12), h


def test_solve_offline_traces_mode_validates_sgd_flags(traces_dir, tmp_path, capsys):
    # the SGD flags serve parametric runs only, but traces mode still checks them
    traces = ["--traces-market", traces_dir / "market.csv", "--traces-as", traces_dir / "as.csv"]
    for flag, message in (("--iterations", "iterations must be >= 1, got 0"), ("--batch", "batch must be >= 1, got 0")):
        argv = ["solve-offline", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
                *traces, flag, 0, "--out", tmp_path / "o"]
        assert main([str(a) for a in argv]) == 2, flag
        assert message in capsys.readouterr().err


def test_solve_offline_with_joint_reg_pair(tmp_path):
    programs = {
        "economics": {"coin_price": 20000, "electricity_price": 50},
        "programs": [
            {"id": "regup", "direction": "up", "price": 16.0,
             "eps": {"kind": "truncexp", "mean": 0.18}},
            {"id": "regdn", "direction": "down", "price": 140.0,
             "eps": {"kind": "truncexp", "mean": 0.27}},
        ],
        "joint": {"up": "regup", "down": "regdn", "theta": 0.5},
    }
    cfg = tmp_path / "programs.json"
    cfg.write_text(json.dumps(programs))
    run_cli(
        "solve-offline", "--fleet", CONFIGS / "fleet.json", "--programs", cfg,
        "--iterations", 600, "--seed", 6, "--out", tmp_path / "o",
    )
    row = (tmp_path / "o" / "profiles.csv").read_text().splitlines()[1].split(",")
    c_up, c_dn = float(row[1]), float(row[2])
    assert c_up + c_dn <= 250.0 + 1e-6
    # a reg-down price above every reward makes down participation dominant
    assert c_dn > 200.0


def test_solve_risk_estimates_stats_from_traces(traces_dir, tmp_path):
    cfg = {
        "reward_rate": 110.0,
        "cap": 250.0,
        "risk_weight": 1e-4,
        "programs": [{"id": "presp"}, {"id": "regup"}],
    }
    path = tmp_path / "risk.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    run_cli(
        "solve-risk", "--config", path,
        "--traces-market", traces_dir / "market.csv", "--traces-as", traces_dir / "as.csv",
        "--out", out,
    )
    summary = json.loads((out / "summary.json").read_text())
    by_id = {s["id"]: s for s in summary["stats"]}
    # estimated deployment means reflect the synthesis spec (0.18 reg-up mean,
    # price-responsive deployment well below one)
    assert 0.10 <= by_id["regup"]["mean_eps"] <= 0.26
    assert 0.0 <= by_id["presp"]["mean_eps"] <= 0.5
    assert by_id["presp"]["var_eps"] > 0.0


def test_manifest_covers_inputs(traces_dir, tmp_path):
    out = tmp_path / "o"
    run_cli(
        "simulate-online", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
        "--traces-market", traces_dir / "market.csv", "--traces-as", traces_dir / "as.csv",
        "--out", out,
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate-online"
    assert set(manifest["outputs"]) == {"rounds.csv", "summary.json"}
    assert len(manifest["input_digests"]) == 4
    for digest in manifest["input_digests"].values():
        assert len(digest) == 64


def test_program_columns_follow_configured_ids(traces_dir, tmp_path):
    # the traces list presp, regup; configs may name them in any order or subset
    cfg = json.loads((CONFIGS / "programs.json").read_text())
    configs = {
        "given": CONFIGS / "programs.json",
        "reversed": tmp_path / "reversed.json",
        "subset": tmp_path / "subset.json",
    }
    configs["reversed"].write_text(json.dumps(dict(cfg, programs=cfg["programs"][::-1])))
    configs["subset"].write_text(json.dumps(dict(cfg, programs=cfg["programs"][1:])))
    traces = ["--traces-market", traces_dir / "market.csv", "--traces-as", traces_dir / "as.csv"]
    for name, programs in configs.items():
        common = ["--fleet", CONFIGS / "fleet.json", "--programs", programs, *traces, "--seed", 4]
        for command in ("compare-strategies", "solve-offline", "simulate-online"):
            extra = [] if command == "simulate-online" else ["--iterations", 300]
            argv = [command, *common, *extra, "--out", tmp_path / name / command]
            assert main([str(a) for a in argv]) == 0, (name, command)

    def profits(name):
        summary = json.loads((tmp_path / name / "compare-strategies" / "summary.json").read_text())
        return summary["mean_profit"]

    def profiles(name):
        lines = (tmp_path / name / "solve-offline" / "profiles.csv").read_text().splitlines()
        header = lines[0].split(",")
        return {col: [float(line.split(",")[i]) for line in lines[1:]] for i, col in enumerate(header)}

    assert profits("reversed") == pytest.approx(profits("given"), rel=1e-9)
    given, rev = profiles("given"), profiles("reversed")
    for col in ("c_presp", "c_regup", "expected_cost"):
        assert rev[col] == pytest.approx(given[col], rel=1e-9, abs=1e-9)
    assert set(profiles("subset")) == {"hour", "c_regup", "expected_cost", "bound"}


def test_quickstart_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    """A small Quickstart writes the same CSV and summary bytes under OpenBLAS's Prescott kernel.

    Prescott has no fused multiply-add, so a BLAS dot there rounds unlike the default
    kernel of an FMA host. ``OPENBLAS_CORETYPE`` acts only where numpy's OpenBLAS is
    built with ``DYNAMIC_ARCH``; elsewhere both children run one kernel and the test
    cannot tell them apart. The two children run at once, each making its calls
    in-process through ``cli.main``.
    """
    fleet_programs = ["--fleet", str(CONFIGS / "fleet.json"), "--programs", str(CONFIGS / "programs.json")]

    def commands(out):
        traces = ["--traces-market", f"{out}/traces/market.csv", "--traces-as", f"{out}/traces/as.csv"]
        return [
            ["synthesize-traces", "--spec", str(CONFIGS / "synthesis_week.json"), "--seed", "17", "--out", f"{out}/traces"],
            ["solve-offline", *fleet_programs, *traces, "--out", f"{out}/offline"],
            ["solve-offline", *fleet_programs, "--iterations", "400", "--seed", "1", "--out", f"{out}/parametric"],
            ["solve-reg", "--config", str(CONFIGS / "reg.json"), "--out", f"{out}/reg"],
            ["solve-risk", "--config", str(CONFIGS / "risk.json"), "--risk-weight", "0.0004", "--out", f"{out}/risk"],
            ["simulate-online", *fleet_programs, *traces, "--out", f"{out}/online"],
            ["compare-strategies", *fleet_programs, *traces, "--iterations", "300", "--seed", "4", "--out", f"{out}/compare"],
            ["verify", "--fast", "--out", f"{out}/verify"],
        ]

    env = {k: v for k, v in child_env().items() if k != "OPENBLAS_CORETYPE"}
    children = {}
    for tag, extra in (("default", {}), ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
        code = f"from minerflex.cli import main\nfor argv in {commands(tmp_path / tag)!r}:\n    assert main(argv) == 0, argv\n"
        children[tag] = subprocess.Popen(
            [sys.executable, "-c", code], env={**env, **extra}, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        )
    outputs = []
    for tag, child in children.items():
        _, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        files = sorted(p for p in (tmp_path / tag).rglob("*") if p.suffix == ".csv" or p.name == "summary.json")
        outputs.append({p.relative_to(tmp_path / tag): p.read_bytes() for p in files})
    default, prescott = outputs
    assert default.keys() == prescott.keys() and len(default) == 18
    assert [str(name) for name in default if default[name] != prescott[name]] == []
