"""The package's public names and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import reflectsde

SRC = Path(__file__).resolve().parents[1] / "src"


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
