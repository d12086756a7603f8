import ast
import subprocess
import sys
from pathlib import Path

import minerflex

from conftest import child_env


def _modules():
    for path in sorted(Path(minerflex.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text())


def test_no_cross_module_private_imports():
    """No module imports another module's private (underscore) names."""
    offenders = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                offenders += [
                    f"{path.name}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not offenders


def test_only_the_config_boundary_decodes_json():
    """Only ``config.load_config`` decodes JSON, so every bad config fails the same way."""
    offenders = []
    for path, tree in _modules():
        if path.name == "config.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("load", "loads"):
                if isinstance(node.value, ast.Name) and node.value.id == "json":
                    offenders.append(f"{path.name}:{node.lineno}: json.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                offenders += [
                    f"{path.name}:{node.lineno}: from json import {alias.name}"
                    for alias in node.names
                    if alias.name in ("load", "loads")
                ]
    assert not offenders


def _write_mode(node) -> bool:
    """Whether ``node`` is a literal ``open`` mode that writes (``"w"``, ``"a"``, ``"x"``, ``"+"``)."""
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and set(node.value) <= set("rwxabt+") \
        and bool(set(node.value) & set("wax+"))


def _found(node, match, function="<module>"):
    """``(function, line)`` of each node under ``node`` that ``match`` accepts; ``function`` is the def around it."""
    for child in ast.iter_child_nodes(node):
        if match(child):
            yield function, child.lineno
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _found(child, match, inner)


def _writes_a_file(node) -> bool:
    """Whether ``node`` is a call that writes a file: a write-mode ``open``, or ``write_text``."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", getattr(node.func, "attr", None))
    args = [*node.args, *(k.value for k in node.keywords if k.arg == "mode")]
    return name in ("write_text", "write_bytes") or name == "open" and any(map(_write_mode, args))


def _names_csv_reader(node) -> bool:
    """Whether ``node`` is ``csv.reader`` or imports ``reader`` from ``csv``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "reader" and isinstance(node.value, ast.Name) and node.value.id == "csv"
    return isinstance(node, ast.ImportFrom) and node.module == "csv" and any(a.name == "reader" for a in node.names)


def test_only_the_writers_open_files_for_writing():
    """Every CSV goes through ``traces.write_csv``; only ``cli`` writes the JSON outputs and the manifest."""
    allowed = {("traces.py", "write_csv"), ("cli.py", "_write_outputs"), ("cli.py", "main")}
    offenders = [
        f"{path.name}:{line}: in {where}"
        for path, tree in _modules()
        for where, line in _found(tree, _writes_a_file)
        if (path.name, where) not in allowed
    ]
    assert not offenders


def test_only_the_trace_reader_uses_csv_reader():
    """Every CSV is read by ``traces._read_chunks``, which keeps ``csv.reader`` for what it cannot split by hand."""
    offenders = [
        f"{path.name}:{line}: in {where}"
        for path, tree in _modules()
        for where, line in _found(tree, _names_csv_reader)
        if (path.name, where) != ("traces.py", "_read_chunks")
    ]
    assert not offenders


# numpy names whose products may go through BLAS, whose kernel numpy picks at run time
_BLAS_PRODUCTS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}


def _blas_product(node) -> bool:
    """Whether ``node`` is an ``@`` product, a numpy product call such as ``np.dot`` or ``a.dot``, or ``np.linalg.norm``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return True
    if isinstance(node, ast.Attribute):
        return node.attr in _BLAS_PRODUCTS or node.attr == "norm" and getattr(node.value, "attr", None) == "linalg"
    return isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy") and any(
        a.name in _BLAS_PRODUCTS | {"norm"} for a in node.names
    )


def test_no_blas_kernel_decides_a_cost():
    """Every cost-deciding product goes through ``deployment.dot`` (or the oracles' ``oracle.fixed_dot``).

    Those add their products in a fixed order, so no output bit depends on the BLAS
    kernel picked at run time. Two BLAS products are kept, as their product values
    reach no output.
    """
    allowed = {
        # the (B, N) sample-row dot only picks each row's piece; the sums are np.add.reduce
        ("sgd.py", "_subgradient"),
        # the float32 hinge block only picks the argmin, whose value is recosted in float64
        ("oracle.py", "grid_mc_optimum"),
    }
    sites = [(path.name, where, line) for path, tree in _modules() for where, line in _found(tree, _blas_product)]
    assert [site for site in sites if site[:2] not in allowed] == []
    # one product in each allowed function, so no second one hides beside it
    assert sorted(site[:2] for site in sites) == sorted(allowed)


def _searchsorted(node) -> bool:
    """Whether ``node`` names ``searchsorted``: ``np.searchsorted``, ``a.searchsorted`` or an import of it."""
    if isinstance(node, ast.Attribute):
        return node.attr == "searchsorted"
    return isinstance(node, ast.ImportFrom) and any(a.name == "searchsorted" for a in node.names)


def test_slot_piece_is_the_one_piece_lookup():
    """Every cost piece is found by ``deployment.slot_piece`` on ``capped_breaks``, or by SGD's own loop.

    ``sgd._subgradient`` keeps its search on the breaks inline: it runs once per SGD
    iteration, where ``slot_piece``'s clip would add two numpy calls to each.
    """
    allowed = {("deployment.py", "capped_breaks"), ("deployment.py", "slot_piece"), ("sgd.py", "_subgradient")}
    sites = [(path.name, where, line) for path, tree in _modules() for where, line in _found(tree, _searchsorted)]
    assert [site for site in sites if site[:2] not in allowed] == []


def test_verify_takes_no_monte_carlo_estimate():
    """``verify`` integrates and never samples: it names none of the oracle's Monte Carlo tools."""
    monte_carlo = {"grid_mc_optimum", "mc_expected_cost", "draw_effective_samples", "GridSpec"}
    tree = ast.parse((Path(minerflex.__file__).parent / "verify.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    assert names & monte_carlo == set()


def test_online_learner_keys_are_the_callers_decision():
    """``online`` plays the learner keys it is given: it names no ``timestamps`` and reads no ``.hour``.

    The command line keys its bank by hour of day, and ``verify`` by run.
    """
    tree = ast.parse((Path(minerflex.__file__).parent / "online.py").read_text())
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.keyword)):
            names.add(node.arg)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    assert "timestamps" not in names | attrs and "hour" not in attrs


def test_no_unused_imports():
    """Every name a module imports is used in it, unless its line is marked ``# noqa: F401``.

    ``__init__.py`` is left out: its imports are the package's exports.
    """
    offenders = []
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        lines = path.read_text().splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert not offenders


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    env = child_env({"PATH": "/usr/bin:/bin"})
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def test_cli_import_leaves_scipy_unloaded():
    """The runtime dependency is numpy only; scipy may serve the tests, never the package."""
    proc = _fresh_python("import sys, minerflex.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_simulate_online_run_leaves_scipy_unloaded(tmp_path):
    """A solver that imported scipy lazily would pass the import-only test; whole runs must not load it."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    traces = tmp_path / "traces"
    synthesize = ["synthesize-traces", "--spec", str(configs / "synthesis_week.json"), "--seed", "3",
                  "--out", str(traces)]
    simulate = ["simulate-online", "--fleet", str(configs / "fleet.json"),
                "--programs", str(configs / "programs.json"), "--traces-market", str(traces / "market.csv"),
                "--traces-as", str(traces / "as.csv"), "--out", str(tmp_path / "online")]
    solve_reg = ["solve-reg", "--config", str(configs / "reg.json"), "--out", str(tmp_path / "reg")]
    proc = _fresh_python(
        "import sys\n"
        "from minerflex.cli import main\n"
        f"assert main({synthesize!r}) == 0 and main({simulate!r}) == 0 and main({solve_reg!r}) == 0\n"
        "print('scipy' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "online" / "rounds.csv").exists()
    assert (tmp_path / "reg" / "profile.csv").exists()
    assert proc.stdout.strip().splitlines()[-1] == "False"
