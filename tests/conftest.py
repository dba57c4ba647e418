"""The one place the tests know which package functions are cached.

A test that needs cold caches takes the `cold` fixture; a Hypothesis test,
whose function-scoped fixtures are not reset per example, calls
`clear_caches()` in its body.  No test module names a cache to empty it."""

import importlib
import pkgutil

import pytest

import tqftdims

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(tqftdims.__path__) if info.name != "__main__"
)


def package_caches() -> dict:
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


# Found at import, before any test patches a module: a test that swaps a
# cached name for a wrapper still has the real cache emptied.
CACHES = package_caches()


def clear_caches():
    """Empty every cache in the package."""
    for cache in CACHES.values():
        cache.cache_clear()


@pytest.fixture
def cold():
    """Every cache empty before and after the test; the test may call the
    yielded clear_caches to empty them again mid-body."""
    clear_caches()
    yield clear_caches
    clear_caches()
