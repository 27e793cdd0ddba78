"""Every name the benchmark tracer patches must exist in chainscope.

``bench/tracer.py`` imports only the standard library, so it is loaded by
path; a rename or removal in the package would otherwise surface only when
``bench/run.py --trace 1`` fails.
"""

import importlib
import importlib.util
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(mod, attr) for mod, attr, _, _ in _tracer().TARGETS]


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_target_resolves(module, attr):
    owner = importlib.import_module(f"chainscope.{module}")
    if "." in attr:  # a method, patched on its class
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        assert callable(owner.__dict__.get(attr))
    else:
        assert callable(getattr(owner, attr, None))


def test_install_and_uninstall_restore_the_package():
    for module in {m for m, _ in TARGETS}:
        importlib.import_module(f"chainscope.{module}")  # install looks them up
    search = importlib.import_module("chainscope.search")
    tracer = _tracer().Tracer()
    before = search.maximize_M_self
    try:
        tracer.install()
        assert search.maximize_M_self is not before
    finally:
        tracer.uninstall()
    assert search.maximize_M_self is before
