"""The traced benchmark's hooks still name existing fejerflow functions.

``suitebench/layers.py`` rebinds functions by name; a renamed or dropped name
makes ``install`` raise, so the traced benchmark run breaks.  This test runs
the same install and restore.
"""

import inspect
from pathlib import Path

from fejerflow import moduli

SUITEBENCH = Path(__file__).resolve().parent.parent / "suitebench"


def test_layers_install_wraps_every_moduli_function(monkeypatch):
    monkeypatch.syspath_prepend(str(SUITEBENCH))
    import layers
    from tracer import Tracer

    functions = {name: vars(moduli)[name] for name in moduli.__all__
                 if inspect.isfunction(vars(moduli)[name])}
    tracer = Tracer()
    layers.install(tracer)
    try:
        patched = {(owner, attr) for owner, attr, _ in tracer.patched_names()}
        for name, original in functions.items():
            assert (moduli, name) in patched, name
            assert vars(moduli)[name].__wrapped__ is original, name
        for name in layers.COUNTERFUNCTIONS:
            assert (moduli, name) in patched, name
    finally:
        tracer.restore()
    assert all(vars(moduli)[name] is fn for name, fn in functions.items())
    assert not tracer.patched_names()
