"""Package-internal imports only go down the module layers.

The order is errors -> series_core -> {bounds, schemes, spin_model} ->
propagators -> planner -> cli: a module may import only from a strictly
lower layer, so modules of one layer never import each other.  Every
import statement counts, function bodies included.  The package
``__init__`` imports no module at all: the API is the modules themselves
(``from cfqm import planner``), with no second path through aliases.
A ``CFQMScheme`` is built by the parser alone, so every scheme the package
or a script uses has passed the data file checks.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cfqm"

LAYERS = {
    "errors": 0,
    "series_core": 1,
    "bounds": 2,
    "schemes": 2,
    "spin_model": 2,
    "propagators": 3,
    "planner": 4,
    "cli": 5,
}

MODULES = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if path.stem != "__init__")


def _internal_imports(tree: ast.AST) -> set[str]:
    """Names of the cfqm modules a parsed module imports, anywhere in it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from .x import ..., from . import x
                path = node.module.split(".") if node.module else []
            elif (node.module or "").split(".")[0] == "cfqm":
                path = node.module.split(".")[1:]
            else:
                continue
            found.update(path[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cfqm" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_module_has_a_layer():
    assert MODULES == sorted(LAYERS)


@pytest.mark.parametrize("module", MODULES)
def test_imports_go_down(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    upward = sorted(target for target in _internal_imports(tree)
                    if LAYERS.get(target, -1) >= LAYERS[module])
    assert upward == [], f"{module} imports {upward} from its own layer or above"


def test_package_init_imports_no_module():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert _internal_imports(tree) == set()


def test_only_the_parser_builds_schemes():
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "schemes.py"]
    sources += sorted((ROOT / "scripts").glob("*.py"))
    builders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "CFQMScheme":
                    builders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert builders == [], f"CFQMScheme built outside the parser at {builders}"
