"""The names the package exports, and what its modules import."""

import ast
import pathlib
import sys
import types

import arclift


def test_all_is_the_imported_api_without_modules():
    exported = arclift.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert not isinstance(getattr(arclift, name), types.ModuleType), name
    public = {
        name for name in dir(arclift)
        if not name.startswith("_") and not isinstance(getattr(arclift, name), types.ModuleType)
    }
    assert set(exported) == public


def test_the_package_imports_only_the_standard_library():
    sources = sorted(pathlib.Path(arclift.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "arclift", f"{path.name}: {name}"
