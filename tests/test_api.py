"""Every public function of the package has a caller in the package.

A public module-level function that nothing in src/supchar refers to, and
that supchar.__all__ does not export, is API that only the tests use.  The
references are counted on the syntax tree (names read and attribute
accesses), not by text search, and a function's own body does not count.
Importing the CLI must also stay free of the modules that code generation
for dataclasses loads.
"""
import ast
import os
import subprocess
import sys
from collections import Counter

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
    code = f"import sys, supchar.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
