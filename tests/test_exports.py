import importlib
import pkgutil

import pdescent


def test_every_export_resolves():
    # tools that walk the export lists with getattr (the benchmark's span
    # tracer does) crash on a name left behind by a deletion
    modules = [pdescent] + [
        importlib.import_module(f"pdescent.{info.name}")
        for info in pkgutil.iter_modules(pdescent.__path__)
    ]
    assert len(modules) > 1
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == [], mod.__name__
