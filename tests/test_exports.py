"""Every name the package promises must exist.

Every name in a module's ``__all__`` must resolve, so a deleted function
cannot stay exported, and so must every target of the benchmark's span
tracer (``benchmarks/spans.py``), so a rename cannot silently break a
traced run.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pitaron_lab

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_every_exported_name_resolves():
    stale = []
    for info in pkgutil.iter_modules(pitaron_lab.__path__):
        module = importlib.import_module(f"pitaron_lab.{info.name}")
        assert hasattr(module, "__all__"), f"pitaron_lab.{info.name} has no __all__"
        stale += [f"pitaron_lab.{info.name}.{name}" for name in module.__all__
                  if not hasattr(module, name)]
    assert not stale, f"exported but undefined: {stale}"


def test_every_traced_target_resolves():
    loader = importlib.util.spec_from_file_location("traced_spans", SPANS)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    stale = []
    for layer, module_name, attr in spans.TARGETS:
        owner = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        if "." in attr:  # the tracer replaces a method on its class, read from the class __dict__
            cls_name, method = attr.split(".")
            found = method in vars(getattr(owner, cls_name, object))
        else:
            found = hasattr(owner, attr)
        if not found:
            stale.append(f"{layer}: {spans.PACKAGE}.{module_name}.{attr}")
    assert spans.TARGETS and not stale, f"traced but undefined: {stale}"
