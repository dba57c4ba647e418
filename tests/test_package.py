"""Package hygiene: exported names resolve, the independent routes stay
independent at the import level, and every cache but one is bounded by the
reuse its callers need."""

import ast
import contextlib
import importlib
import io
import pkgutil
from pathlib import Path

import pytest

import tqftdims
from tqftdims import cli, polylab

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


# Every cache declares a maxsize sized by its callers' measured reuse, except
# bernoulli: its recursion re-reads every smaller index, so a bound below the
# largest index asked for makes it exponential.  This set may only shrink.
UNBOUNDED_CACHES = {"polylab.bernoulli"}


def _module_caches() -> dict:
    """Every functools cache defined at module or class level, by name."""
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"tqftdims.{name}")
        for attr, obj in vars(module).items():
            candidates = [(attr, obj)]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                candidates += [(f"{attr}.{m}", v) for m, v in vars(obj).items()]
            for qual, cand in candidates:
                if hasattr(cand, "cache_parameters") and cand.__module__ == module.__name__:
                    found[f"{name}.{qual}"] = cand
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
    unbounded = {name for name, c in caches.items() if c.cache_parameters()["maxsize"] is None}
    assert unbounded == UNBOUNDED_CACHES


def _cold_misses(run) -> dict[str, int]:
    """Misses of every cache over one run that starts with all caches empty."""
    caches = _module_caches()
    for cache in caches.values():
        cache.cache_clear()
    run()
    return {name: cache.cache_info().misses for name, cache in caches.items()}


# Misses of the default verify with every cache unbounded: a bound that drops
# an entry some caller re-reads shows up as an extra miss.
VERIFY_MISSES = {
    "cli._sine_bases": 0,
    "cyclotomic._check_prime": 18,
    "fusion._eigenvalue_power": 32,
    "fusion._power_ladder": 8,
    "fusion.alternating_eigenvalue": 4,
    "fusion.alternating_element": 4,
    "fusion.counting_eigenvalue": 4,
    "fusion.even_basis_permutation": 4,
    "fusion.smatrix": 4,
    "polylab._interpolate": 6,
    "polylab.bernoulli": 23,
    "recursion._ladder": 18,
    "recursion.dim_table": 32,
}


def test_cache_bounds_hold_verify_reuse():
    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify"]) == 0

    assert _cold_misses(verify) == VERIFY_MISSES


def test_interpolation_cache_holds_both_fits_of_a_genus():
    def leading_terms():
        polylab.interpolate_delta(3)
        polylab.interpolate_total(3)
        polylab.leading_term_report(3)

    assert _cold_misses(leading_terms)["polylab._interpolate"] == 2
