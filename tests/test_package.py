import ast
import importlib.util
from pathlib import Path

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


def test_gelfand_imports_no_private_fraclap_name():
    # The radial basis (panel rule, e^u masses, origin fold) belongs to
    # fraclap; gelfand reaches it only through public names.
    tree = ast.parse(Path(fracgelfand.gelfand.__file__).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "fraclap"
             for alias in node.names]
    assert "OperatorMatrix" in names
    assert [name for name in names if name.startswith("_")] == []
    assert "sphere_area" not in names
