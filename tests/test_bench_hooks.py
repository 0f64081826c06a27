"""The benchmark's hooks still name existing fejerflow functions, and the
scalar contracts its certificate workload relies on still hold.

``suitebench/layers.py`` rebinds functions by name; a renamed or dropped name
makes ``install`` raise, so the traced benchmark run breaks.  This test runs
the same install and restore.  ``suitebench/catalogue.py`` builds residuals
such as ``lambda t: np.linalg.norm(traj.eval(t))``: dense output at a float
time stays one point, and ``verify_residual_metastability`` calls its residual
once per float time, or those norms would silently reduce over a whole
window.  An array of times is the batched path, one row per time.
"""

import inspect
from pathlib import Path

import numpy as np

from fejerflow import moduli
from fejerflow.counterfunctions import Counterfunction
from fejerflow.exact import ExtendedNatural
from fejerflow.flows import ParameterCurve, integrate_first_order, integrate_second_order
from fejerflow.operators import CocoerciveMap, NonexpansiveMap
from fejerflow.verify import verify_residual_metastability

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


def test_dense_output_and_residual_calls_stay_scalar():
    first = integrate_first_order(NonexpansiveMap.scalar(0.5), ParameterCurve.constant(0.5),
                                  [0.6, 0.8], 6.0, 0.01)
    second = integrate_second_order(CocoerciveMap.identity(), ParameterCurve.constant(2.0),
                                    ParameterCurve.constant(3.0), [1.0, 0.5], [0.0, 0.0],
                                    6.0, 0.01)
    for t in (0.0, 0.37, 2.0):
        assert first.eval(t).shape == (2,)
        assert second.eval(t).shape == (2,)
        assert second.eval_velocity(t).shape == (2,)
    times = np.array([0.0, 0.37, 2.0])
    assert first.eval(times).shape == (3, 2)
    assert second.eval(times).shape == (3, 2)
    assert second.eval_velocity(times).shape == (3, 2)

    calls = []

    def residual(t):
        calls.append(t)
        return 1.0 if t < 3.0 else 0.0

    report = verify_residual_metastability(first, residual, 0.5, Counterfunction.constant(1),
                                           ExtendedNatural(5), grid=0.25)
    assert report.witness == 3
    # windows [n, n + 1] for n = 0..2 fail at their first time n; the witness
    # window [3, 4] calls its five grid times once each, in order
    assert calls == [0.0, 1.0, 2.0, *np.linspace(3, 4, 5).tolist()]
    assert all(type(t) is float for t in calls)
