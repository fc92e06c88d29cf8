"""Every numeric tolerance lives in ``transopt.tolerances``; the other
modules import it from there and read none from the environment."""

import ast
import pathlib

import transopt

SRC = pathlib.Path(transopt.__file__).parent


def test_tolerances_live_in_one_module():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0 < abs(node.value) < 1e-3):
                found.append((path.name, node.lineno, node.value))
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                found.append((path.name, node.lineno, node.attr))
    assert not found
