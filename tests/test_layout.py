"""src/ holds what the subcommands run.

Every top-level definition in a chaoslab module should be referenced by
other code in src/ (outside its own definition and the package's
__init__.py); test-only oracles live in tests/conftest.py.  The few
exceptions are listed with the reason each one stays.  The runtime imports
numpy and no scipy module.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chaoslab"

UNREFERENCED = {
    "entropy_convergence": "bench/tracer.py looks it up by name",
    "symmetrized_class_kernel": "bench/tracer.py looks it up by name",
    "simulate_kac": "bench/tracer.py looks it up by name",
    "replica_rng": "bench/tracer.py looks it up by name; src/ builds streams by replica_rngs",
}


def _defined(tree):
    """(name, node) for each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _reads(tree) -> Counter:
    """How often each name is read in the tree, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)))


def unreferenced_definitions() -> set:
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"]
    reads = sum(map(_reads, trees), Counter())
    return {name for tree in trees for name, node in _defined(tree)
            if reads[name] == _reads(node)[name]}


def test_every_definition_is_reached_from_src():
    assert unreferenced_definitions() == set(UNREFERENCED)


def test_every_error_class_is_raised():
    """Each exception class in errors.py is raised in src/, itself or as a base
    of one that is.  unreferenced_definitions counts an `except` clause as a
    read, so it would keep a class that is caught but never raised."""
    bases = {node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
             for node in ast.parse((SRC / "errors.py").read_text()).body
             if isinstance(node, ast.ClassDef)}
    raised = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised += [exc.id] if isinstance(exc, ast.Name) else []
    reached = set()
    while raised:
        name = raised.pop()
        if name in bases and name not in reached:
            reached.add(name)
            raised += bases[name]
    assert set(bases) - reached == set()


def test_runtime_imports_no_scipy():
    """Importing the package and its CLI loads no scipy module: scipy is a
    test dependency only (the `expm` oracle of the exact Kac rows)."""
    code = ("import chaoslab, chaoslab.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_microcanonical_imports_no_fractions(tmp_path):
    """A microcanonical run reads its decimals in integers: it loads
    neither fractions nor decimal, which would add milliseconds to every
    process start."""
    code = ("import sys; from chaoslab.cli import main; "
            "main(['microcanonical', '--H', '0,1,2', '--E', '0.8', '--delta', '0.2', "
            f"'--grid', '20,40,80', '--out', {str(tmp_path)!r}]); "
            "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_exact_runs_load_no_numpy_random(tmp_path):
    """An all-exact theorem-probe run and the counterexample draw no random
    numbers, so neither loads numpy.random, and their outputs cannot depend
    on a seed."""
    runs = [["theorem-probe", "--kernel", "kac:1,1", "--p", "0.5,0.3,0.2",
             "--grid", "6,8,10,12"], ["counterexample"]]
    code = ("import sys; from chaoslab.cli import main; "
            f"print([main(argv + ['--out', {str(tmp_path)!r}]) for argv in {runs!r}], "
            "'numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[0, 0] False"


def test_runs_load_no_argument_parser(tmp_path):
    """The command line is read against OPTIONS and COMMANDS themselves: a
    run of each subcommand loads neither argparse nor the gettext and
    locale modules that building an argparse parser imports."""
    runs = [["diagnose", "--family", "mixture", "--grid", "4,8,16"],
            ["counterexample"],
            ["theorem-probe", "--kernel", "kac:1,1", "--p", "0.5,0.3,0.2", "--grid", "6,8"],
            ["kac", "--p", "0.5,0.5", "--n", "8", "--seed", "1", "--replicas", "2"],
            ["microcanonical", "--H", "0,1,2", "--E", "0.8", "--delta", "0.2",
             "--grid", "20,40,80"]]
    code = ("import sys; from chaoslab.cli import main; "
            f"print([main(argv + ['--out', {str(tmp_path)!r}]) for argv in {runs!r}], "
            "sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[0, 0, 0, 0, 0] []"
