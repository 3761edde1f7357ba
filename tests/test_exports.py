"""Every name in a module's ``__all__`` must exist, so a deleted function cannot stay exported."""

import importlib
import pkgutil

import pitaron_lab


def test_every_exported_name_resolves():
    stale = []
    for info in pkgutil.iter_modules(pitaron_lab.__path__):
        module = importlib.import_module(f"pitaron_lab.{info.name}")
        assert hasattr(module, "__all__"), f"pitaron_lab.{info.name} has no __all__"
        stale += [f"pitaron_lab.{info.name}.{name}" for name in module.__all__
                  if not hasattr(module, name)]
    assert not stale, f"exported but undefined: {stale}"
