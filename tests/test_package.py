"""Package hygiene: exported names resolve, and the independent routes stay
independent at the import level."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tqftdims

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(tqftdims.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", ["", *MODULES])
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks `from tqftdims.<module> import *`
    module = importlib.import_module(f"tqftdims.{name}" if name else "tqftdims")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _package_imports(module: str) -> set[str]:
    """Names of the tqftdims modules that a module's source imports."""
    tree = ast.parse((Path(tqftdims.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("tqftdims.")
            }
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif node.module and node.module.startswith("tqftdims"):
                base = node.module.partition(".")[2] or None
            else:
                continue
            # `from . import x` names modules; `from .x import y` names x
            found |= {base.split(".")[0]} if base else {a.name for a in node.names}
    return found


def test_import_scan_finds_the_cli_imports():
    assert _package_imports("cli") >= {"census", "claims", "fusion", "polylab", "cyclotomic"}


@pytest.mark.parametrize("module", ["census", "fusion"])
def test_routes_import_only_cyclotomic(module):
    # the census and the fusion routes check the transfer recursion and
    # polylab, so they must not read either of them (or each other)
    assert _package_imports(module) <= {"cyclotomic"}
