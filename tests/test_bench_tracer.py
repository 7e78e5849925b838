"""The benchmark's tracer still finds every binding it wraps.

``bench/layers.py`` replaces each traced function at the binding its
caller uses (``owner.__dict__[attr]``), so renaming or removing one of them
in the package breaks the traced benchmark run with a KeyError.  This test
installs the tracer, checks that every binding was wrapped, removes it, and
checks that every original is back.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    layers = load_layers()
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in layers.TRACED]
    tracer = layers.Tracer()
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.remove()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr
