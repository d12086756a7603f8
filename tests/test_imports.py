import ast
from pathlib import Path

import minerflex


def test_no_cross_module_private_imports():
    """No module imports another module's private (underscore) names."""
    offenders = []
    for path in sorted(Path(minerflex.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                offenders += [
                    f"{path.name}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not offenders
