import importlib.util

import fracgelfand

MODULES = ("constants", "threshold", "fraclap", "gelfand")


def test_public_surface_declared_once():
    # Each public name is declared in exactly one module's __all__; the
    # package re-exports those lists and nothing else.
    modules = [importlib.import_module(f"fracgelfand.{name}") for name in MODULES]
    declared = [name for mod in modules for name in mod.__all__]
    assert len(declared) == len(set(declared))
    assert fracgelfand.__all__ == ["__version__", *declared]
    for mod in modules:
        for name in mod.__all__:
            assert getattr(fracgelfand, name) is getattr(mod, name)
    assert "log_gamma" not in fracgelfand.__all__
    assert not hasattr(fracgelfand, "log_gamma")
    assert importlib.util.find_spec("fracgelfand.specfun") is None
