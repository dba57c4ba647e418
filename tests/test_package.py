"""Package hygiene: exported names resolve, the independent routes stay
independent at the import level, and no new cache is unbounded."""

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


# The caches that were unbounded when bounds became required; each one still
# needs a size or a stated reason (ROADMAP item 4).  A new cache declares a
# maxsize, so this set may only shrink.
UNBOUNDED_CACHES = {
    "cyclotomic._check_prime",
    "cyclotomic._inv_h",
    "fusion.alternating_eigenvalue",
    "fusion.alternating_element",
    "fusion.counting_eigenvalue",
    "fusion.counting_element",
    "fusion.even_basis_permutation",
    "fusion.hopf_vandermonde",
    "fusion.qmatrix",
    "fusion.smatrix",
    "polylab._interpolate",
    "polylab.bernoulli",
    "recursion.delta_direct",
    "recursion.delta_split",
    "recursion.dim_table",
}


def _module_caches() -> dict[str, int | None]:
    """maxsize of every functools cache defined at module or class level."""
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"tqftdims.{name}")
        for attr, obj in vars(module).items():
            candidates = [(attr, obj)]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                candidates += [(f"{attr}.{m}", v) for m, v in vars(obj).items()]
            for qual, cand in candidates:
                if hasattr(cand, "cache_parameters") and cand.__module__ == module.__name__:
                    found[f"{name}.{qual}"] = cand.cache_parameters()["maxsize"]
    return found


def _cache_decorators() -> int:
    """Functions decorated with lru_cache or cache anywhere in the sources."""
    count = 0
    for name in MODULES:
        tree = ast.parse((Path(tqftdims.__file__).parent / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    label = getattr(target, "attr", getattr(target, "id", None))
                    count += label in ("lru_cache", "cache")
    return count


def test_no_new_unbounded_cache():
    caches = _module_caches()
    # the walk sees every decorated cache, so none hides inside a function
    assert len(caches) == _cache_decorators()
    assert {name for name, size in caches.items() if size is None} == UNBOUNDED_CACHES
