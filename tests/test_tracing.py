"""The benchmark's ``--trace 1`` mode wraps opoly's public functions by name.

A rename in ``src/opoly`` that the tracer no longer finds breaks the traced
benchmark; this test catches it without running the benchmark.
"""

import importlib
import inspect
import sys
from fractions import Fraction
from pathlib import Path

from opoly import cli, connection, series, structure
from opoly.algebra import RationalFunction

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _functions():
    """Every function that an opoly module, module-level dict or class holds."""
    held = {}
    for name, module in list(sys.modules.items()):
        if name != "opoly" and not name.startswith("opoly."):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, dict):
                owners = [(attr, value)]
            elif isinstance(value, type) and value.__module__ == name:
                owners = [(attr, vars(value))]
            else:
                owners = [(None, {attr: value})]
            for owner, items in owners:
                for key, item in items.items():
                    if inspect.isfunction(item):
                        held[(name, owner, key)] = item
    return held


def test_tracer_wraps_the_traced_names_and_restores_every_original(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    before = _functions()
    descend, generate = series.descend, structure.generate
    ratfunc = {attr: vars(RationalFunction)[attr] for attr in ("__init__", "derivative", "evaluate")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (series, connection):
            assert module.descend is not descend
            assert module.descend.__wrapped__ is descend
        assert structure.generate.__wrapped__ is generate
        for attr, original in ratfunc.items():
            assert vars(RationalFunction)[attr].__wrapped__ is original
        r = RationalFunction([1, 1], [-1, 0, 1])  # (t + 1)/(t^2 - 1) = 1/(t - 1)
        assert r.derivative().evaluate(3) == Fraction(-1, 4)
        assert cli.run(["verify", "--family", "laguerre:alpha=1/2", "--n-max", "3"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.calls["series.descend"] > 0
    assert tracer.calls["structure.generate"] > 0
    for short in ("ratfunc_new", "ratfunc_derivative", "ratfunc_evaluate"):
        assert tracer.calls[f"algebra.{short}"] > 0
    assert {attr: vars(RationalFunction)[attr] for attr in ratfunc} == ratfunc
    after = _functions()
    assert [key for key, fn in before.items() if after.get(key) is not fn] == []
