"""Every library name the benchmark's layer tracer patches still exists.

``perfbench/layertrace.py`` wraps functions in the namespace of the module
that calls them; a ``KeyError`` from ``install`` means one of those names was
moved or deleted, and the traced benchmark run would fail.
"""

import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    tracer = layertrace.Tracer()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in _targets(layertrace)]
    try:
        layertrace.install(tracer)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def _targets(layertrace):
    """(owner, attribute) of every patch ``install`` makes, recorded without wrapping."""
    seen = []

    class Recorder:
        def patch(self, owner, attr, name, **hooks):
            seen.append((owner, attr))

    layertrace.install(Recorder())
    return seen
