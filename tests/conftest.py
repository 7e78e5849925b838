"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Settings that change which kernels OpenBLAS and numpy run, each acting
# only on a new process: OpenBLAS's non-FMA kernels, and numpy's loops with
# the AVX2 and AVX-512 levels off
GATE_SETTINGS = [
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
]


def _same_digest_under_gate_settings(script: str) -> str:
    """Run ``script`` in this process and, alongside, in one new process
    per ``GATE_SETTINGS`` entry.  The script leaves a string in ``DIGEST``;
    each child must print the one this process computed, which is
    returned."""
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    children = [subprocess.Popen([sys.executable, "-c",
                                  script + "\nprint(DIGEST)\n"],
                                 env=dict(os.environ, PYTHONPATH=path, **extra),
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True)
                for extra in GATE_SETTINGS]
    try:
        namespace = {"__name__": "gate"}
        exec(script, namespace)
        want = namespace["DIGEST"]
        for child, extra in zip(children, GATE_SETTINGS):
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            assert out.strip() == want, extra
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.communicate()
    return want


@pytest.fixture
def same_digest_under_gate_settings():
    """The bytes-across-CPUs check: ``check(script)`` asserts that the
    ``DIGEST`` the script computes does not depend on the OpenBLAS kernel
    or on numpy's SIMD level, and returns it."""
    return _same_digest_under_gate_settings
