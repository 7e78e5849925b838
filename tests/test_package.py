"""The package's public names and what importing it loads."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import reflectsde

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

# Functions with no caller in src/ that stay on purpose.
UNCALLED = {
    "read_path_csv",     # reads a recorded driver back; see ROADMAP item 7
    "jump_defect",       # the jump defect and the bounds that criterion 8
    "defect_constant",   # checks (and tests/test_flow.py)
    "defect_lipschitz",
    "sample_brownian",   # Brownian drivers: criterion 4 and the unit tests
    "default_boundary_tol",  # the band the projection tests allow
}


def test_all_names_resolve_once_and_star_import_them():
    names = reflectsde.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(reflectsde, name), name
    namespace = {}
    exec("from reflectsde import *", namespace)
    for name in names:
        assert namespace[name] is getattr(reflectsde, name), name


def test_import_does_not_load_the_process_pool():
    """Only a study with --jobs > 1 imports concurrent.futures, and with it
    multiprocessing; importing the package and its command line does not."""
    code = ("import sys\n"
            "import reflectsde, reflectsde.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('concurrent', "
            "'multiprocessing')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_modules_import_only_the_stdlib_numpy_and_yaml():
    """The runtime dependencies are numpy and PyYAML; other installed
    packages (scipy, hypothesis) are for the tests and the bench only."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "yaml", "reflectsde"}
    foreign = []
    for path in sorted((SRC / "reflectsde").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []


def test_every_function_has_a_caller():
    """Every function of the package (dunders aside) is named by some
    ``Name`` or ``Attribute`` in src/, and every method by some
    ``Attribute``, unless the benchmark's tracer wraps it or UNCALLED lists
    it: code that no pipeline calls gets a caller or goes.  ``__all__``
    keeps nothing, and a variable of a method's name does not call it."""
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    kept = UNCALLED | {attr for _, attr, _ in layers.TRACED}
    defined, names, attributes = [], set(), set()
    for path in sorted((SRC / "reflectsde").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((node.name, id(node) in methods,
                                f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    dead = [f"{where} {name}" for name, method, where in defined
            if not (name.startswith("__") and name.endswith("__"))
            and name not in kept and name not in attributes
            and (method or name not in names)]
    assert dead == []
