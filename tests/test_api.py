"""Every public function of the package has a caller in the package.

A public module-level function that nothing in src/supchar refers to, and
that supchar.__all__ does not export, is API that only the tests use.  The
references are counted on the syntax tree (names read and attribute
accesses), not by text search, and a function's own body does not count.
Importing the CLI must also stay free of the modules that code generation
for dataclasses loads, and each command loads only the layers it runs.
The package exports its names lazily, each from its home module.
"""
import ast
import importlib
import os
import subprocess
import sys
from collections import Counter

import pytest

import supchar

PACKAGE = os.path.dirname(supchar.__file__)

# reference implementations the tests compare the fast paths against
TEST_ORACLES = ("rho", "rho_dual", "r_act", "xi", "value", "is_regular_D")


def _trees():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                yield name, ast.parse(fh.read(), filename=name)


def _references(node) -> Counter:
    """How often each name is read, or accessed as an attribute, under node."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
    return out


def test_every_public_function_has_a_package_caller():
    trees = list(_trees())
    everywhere = sum((_references(tree) for _, tree in trees), Counter())
    unused = []
    for module, tree in trees:
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            if fn.name in supchar.__all__ or fn.name in TEST_ORACLES:
                continue
            if everywhere[fn.name] == _references(fn)[fn.name]:
                unused.append(f"{module[:-3]}.{fn.name}")
    assert not unused, f"public functions with no caller in the package: {unused}"


def test_test_oracles_are_defined():
    defined = {fn.name for _, tree in _trees() for fn in tree.body
               if isinstance(fn, ast.FunctionDef)}
    assert set(TEST_ORACLES) <= defined


def test_import_loads_no_code_generation_modules():
    """Importing the CLI, with no site packages, loads none of the modules
    that dataclass code generation pulls in."""
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    assert _loaded("import supchar.cli", heavy) == []


def _loaded(code: str, names) -> list[str]:
    """Those of the modules names that sys.modules holds after code runs in a
    fresh interpreter with no site packages."""
    code += f"\nimport sys; print(*[m for m in {tuple(names)!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def _run(argv) -> str:
    return f"import io, sys\nfrom supchar import cli\nsys.stdout = io.StringIO()\n" \
           f"assert cli.main({argv!r}) == 0\nsys.stdout = sys.__stdout__"


@pytest.mark.parametrize("code,absent", [
    ("import supchar.cli", ("fractions", "decimal", "json", "csv", "supchar.cyclo",
                            "supchar.superclasses", "supchar.supercharacters",
                            "supchar.triangular")),
    (_run(["orbits", "--n", "3", "--p", "2"]),
     ("fractions", "json", "csv", "supchar.cyclo", "supchar.superclasses",
      "supchar.supercharacters")),
    (_run(["verify", "--n", "3", "--p", "2", "--checks", "all"]), ("fractions", "json", "csv")),
    (_run(["table", "--n", "3", "--p", "2", "--mode", "closed"]), ("fractions", "json")),
    (_run(["algebra", "--spec", os.path.join(PACKAGE, "data", "dual_numbers_q3.json")]),
     ("fractions", "supchar.triangular")),
    ("import supchar.supercharacters", ("supchar.superclasses",)),
], ids=["import", "orbits", "verify", "table", "algebra", "supercharacters"])
def test_commands_load_only_the_layers_they_run(code, absent):
    assert _loaded(code, absent) == []


def test_lazy_exports_are_the_home_module_objects():
    for name in supchar.__all__:
        obj = getattr(supchar, name)
        assert obj.__module__.startswith("supchar."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert set(supchar.__all__) <= set(dir(supchar))
    with pytest.raises(AttributeError, match="no_such_name"):
        supchar.no_such_name


def test_star_import_binds_exactly_all():
    names: dict = {}
    exec("from supchar import *", names)
    assert sorted(k for k in names if k != "__builtins__") == sorted(supchar.__all__)
