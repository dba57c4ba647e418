"""Package hygiene: exported names resolve, the independent routes stay
independent at the import level, the CLI's import loads no module that no
command runs, floats stay out of every count path, the read-only records
behave as their callers need, every cache but one is bounded by the reuse
its callers need, every README example runs, every benchmark op still
runs, and every function in the package is reached by something that runs."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest
from conftest import CACHES, MODULES, package_caches

import tqftdims
from tqftdims import cli, fusion, polylab, recursion
from tqftdims.polylab import BiPoly
from tqftdims.recursion import DimTable


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


# -- import diet: `import tqftdims.cli` loads only what a command runs ----------

SRC = Path(tqftdims.__file__).parent

#: Loaded by no command: dataclasses (with inspect, ast, dis and tokenize,
#: which it imports) and json, which only the json emitters import.
NOT_AT_START_UP = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json"}


def _imported(nodes) -> set[str]:
    """Top-level names of the absolute imports among the AST nodes."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_sources_import_no_dataclasses_and_cli_imports_json_only_to_write_it():
    for path in sorted(SRC.glob("*.py")):
        assert "dataclasses" not in _imported(ast.walk(ast.parse(path.read_text()))), path.name
    tree = ast.parse((SRC / "cli.py").read_text())
    assert "json" not in _imported(tree.body)
    assert "json" in _imported(ast.walk(tree))


def _loaded_by(module: str) -> set[str]:
    """Every module in sys.modules after importing one module in a fresh
    interpreter."""
    code = f"import sys, {module}; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return set(res.stdout.split())


def test_cli_import_loads_none_of_the_start_up_diet():
    loaded = _loaded_by("tqftdims.cli")
    assert "tqftdims.cli" in loaded
    assert loaded & NOT_AT_START_UP == set()


_RECURSION = {"tqftdims", "tqftdims.cyclotomic", "tqftdims.census", "tqftdims.recursion"}

#: The package modules each import loads: the root re-exports nothing, so a
#: route loads only itself and the modules it builds on, and the CLI all.
IMPORT_GRAPH = {
    "tqftdims": {"tqftdims"},
    "tqftdims.fusion": {"tqftdims", "tqftdims.cyclotomic", "tqftdims.fusion"},
    "tqftdims.recursion": _RECURSION,
    "tqftdims.polylab": _RECURSION | {"tqftdims.polylab"},
    "tqftdims.cli": {"tqftdims", *(f"tqftdims.{name}" for name in MODULES)},
}


@pytest.mark.parametrize("module", IMPORT_GRAPH)
def test_an_import_loads_only_the_modules_it_builds_on(module):
    package = {name for name in _loaded_by(module) if name.partition(".")[0] == "tqftdims"}
    assert package == IMPORT_GRAPH[module]


# -- floats: only the `dims` size guard estimates in floating point ------------

#: The math names whose value is an int on int arguments; every other name
#: read from math (sin, log10, pi, inf, ceil, ...) is float-valued.
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}
#: Where floats may appear: the guard's digit bound, its memory estimate and
#: the fitted bytes that estimate reads.
FLOAT_SITES = {"cli._dims_digits", "cli._dims_refusal", "cli.DIMS_BYTES"}


def _float_nodes(tree, aliases: set[str]) -> list:
    """The true divisions, float literals and float-valued math names, with
    `aliases` the names the module binds math to."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(node)
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(node)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr not in INTEGER_MATH
        ):
            found.append(node)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(a.name not in INTEGER_MATH for a in node.names):
                found.append(node)
    return found


def _float_sites(module: str) -> set[str]:
    """The top-level definitions (function, class or assigned name) that
    hold a float node."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "math"}
    sites = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            name = top.name
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            name = ",".join(getattr(t, "id", "?") for t in targets)
        else:
            name = f"line {top.lineno}"
        if _float_nodes(top, aliases):
            sites.add(f"{module}.{name}")
    return sites


def test_floats_stay_in_the_dims_size_guard():
    # Every count is exact; a float may only estimate whether `dims` fits.
    sites = set()
    for name in MODULES:
        sites |= _float_sites(name)
    assert sites == FLOAT_SITES


# -- read-only records -----------------------------------------------------------

#: Each record's fields, in the order its constructor takes them.
RECORD_FIELDS = {
    "FusionElement": ("p", "coords"),
    "FusionMatrix": ("p", "entries"),
    "HopfCertificate": ("p", "valuation", "unit_norm"),
    "DimTable": ("p", "gmax", "totals", "deltas"),
    "ConjectureScan": ("g", "no_positive_even_p_powers", "base_quotient"),
}


def _records() -> list:
    """One of each record, as the program builds it."""
    return [
        fusion.cheb_vector(7, 2),
        fusion.mul_matrix_even(fusion.alternating_element(5)),
        fusion.hopf_certificate(7),
        recursion.dim_table(5, 2),
        polylab.conjecture_scan(2),
    ]


def test_elements_and_matrices_compare_by_identity():
    # every record compares and hashes by identity: no caller compares two
    # whole records, so the tests compare their fields
    for record in _records():
        fields = [getattr(record, name) for name in record.__slots__]
        twin = type(record)(*fields)
        assert record == record and record != twin and len({record, twin}) == 2
        assert [getattr(twin, name) for name in twin.__slots__] == fields


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_constructor_takes_every_field_once(record):
    # one constructor, Record's: positional in __slots__ order or by name
    kind, fields = type(record), RECORD_FIELDS[type(record).__name__]
    values = [getattr(record, name) for name in fields]
    named = dict(zip(fields, values))
    built = kind(**named)
    assert [getattr(built, name) for name in fields] == values
    assert repr(built) == repr(kind(*values)) == repr(record)
    for bad_args, bad_named in (
        (values[:-1], {}),  # a field missing
        (values + [0], {}),  # one value too many
        (values, {"unknown": 0}),  # a field the record does not have
        (values, {fields[0]: values[0]}),  # a field given twice
        ((), {**named, "unknown": 0}),
    ):
        with pytest.raises(TypeError):
            kind(*bad_args, **bad_named)


def test_a_cached_table_cannot_be_changed():
    # dim_table hands this one object to every caller that asks for (5, 3)
    t = recursion.dim_table(5, 3)
    totals = t.totals
    with pytest.raises(AttributeError, match="cannot assign to field 'totals' of DimTable"):
        t.totals = ()
    assert recursion.dim_table(5, 3) is t and t.totals is totals


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_fields_are_read_only_and_shown_by_repr(record):
    fields = RECORD_FIELDS[type(record).__name__]
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{type(record).__name__}({shown})"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


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
    caches = package_caches()
    # the walk sees every decorated cache, so none hides inside a function
    assert len(caches) == _cache_decorators()
    # every cache declares a maxsize sized by its callers' measured reuse
    unbounded = {name for name, c in caches.items() if c.cache_parameters()["maxsize"] is None}
    assert unbounded == set()


def test_only_conftest_clears_a_cache():
    # which functions are cached is known in one place, tests/conftest.py: a
    # test that needs cold caches takes its `cold` fixture or clear_caches()
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(__file__).parent.glob("test_*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "cache_clear"
    ]
    assert sites == []


def _cold_misses(run) -> dict[str, int]:
    """Misses of every cache over one run from the cold fixture's empty caches."""
    run()
    return {name: cache.cache_info().misses for name, cache in CACHES.items()}


# Misses of the default verify with every cache unbounded: a bound that drops
# an entry some caller re-reads shows up as an extra miss.
VERIFY_MISSES = {
    "census._moves": 4,
    "cyclotomic._check_prime": 18,
    "fusion._eigenvalue_power": 32,
    "fusion._power_table": 8,
    "fusion.even_basis_permutation": 4,
    "polylab._interpolate": 6,
    "recursion._ladder": 18,
    "recursion.dim_table": 32,
}


def test_cache_bounds_hold_verify_reuse(cold):
    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify"]) == 0

    assert _cold_misses(verify) == VERIFY_MISSES


def test_interpolation_cache_holds_both_fits_of_a_genus(cold):
    def leading_terms():
        polylab.interpolate_delta(3)
        polylab.interpolate_total(3)
        polylab.leading_term_report(3)

    assert _cold_misses(leading_terms)["polylab._interpolate"] == 2


# -- the integer door ------------------------------------------------------------

#: The parameter names that hold a genus, a genus bound, a half-color, an
#: index, a degree or a run length.
INTEGER_PARAMS = {"g", "gmax", "gmin", "c", "c1", "c2", "n", "k", "i"}
#: How the door's ValueError names each integer parameter but a half-color.
INTEGER_LABELS = {
    "g": "genus",
    "gmax": "gmax",
    "gmin": "gmin",
    "n": "n|index|ladder index|run length|degree",
    "k": "Bernoulli index",
    "i": "degree",
}
#: The parameters of INTEGER_PARAMS that are exponents mod p, which may be
#: any int and pass no door: inverse_run's n, a unit mod p.
#: A run's s and t and galois's j are exponents too, under names outside
#: INTEGER_PARAMS.  inverse_run keeps no door, as it runs once per run shape
#: inside hopf_certificate.
MOD_P_EXPONENTS = {"cyclotomic.inverse_run": {"n"}}

#: One valid call per function behind cyclotomic's integer validators: every
#: public function and method with a parameter in INTEGER_PARAMS that is not
#: an exponent mod p, the DimTable readers bound to dim_table(7, 3), the
#: BiPoly methods bound to interpolate_delta(2), and census._records, the
#: walk behind `census --list`.
#: Each names every parameter, in order, and is made positionally, as callers
#: make it, so that a cache keyed on 3 answers 3.0.  tests/test_recursion.py
#: puts 3.0 and 2.5 in each integer parameter.
DOOR_CALLS = {
    "census.count_parities": {"p": 7, "g": 2, "c": 1},
    "census._records": {"p": 7, "g": 2, "c": 0},
    "census.beta_eta_bruteforce": {"p": 7, "c1": 1, "c2": 2},
    "census.beta_eta_closed": {"p": 7, "c1": 1, "c2": 2},
    "census.state_estimate": {"p": 7, "g": 2},
    "claims.census_matches_recursion": {"p": 7, "gmax": 2},
    "claims.matrix_powers": {"p": 7, "gmax": 2},
    "claims.galois_sums": {"p": 7, "gmax": 2},
    "claims.leading_terms": {"g": 2},
    "claims.residue_route": {"g": 2},
    "cyclotomic.is_prime": {"n": 7},
    "cyclotomic.quantum_int": {"p": 7, "n": 3},
    "cyclotomic.run": {"p": 7, "s": 0, "n": 2, "t": 1},
    "fusion.cheb_vector": {"p": 7, "n": 4},
    "fusion.delta_via_matrix": {"p": 7, "g": 2, "c": 1},
    "fusion.total_via_matrix": {"p": 7, "g": 2, "c": 1},
    "fusion.galois_sum_delta": {"p": 7, "g": 2, "c": 1},
    "fusion.galois_sum_total": {"p": 7, "g": 2, "c": 1},
    "polylab.bernoulli": {"k": 4},
    "polylab.normalized_bernoulli": {"n": 2},
    "polylab.bern_identity_check": {"g": 2},
    "polylab.residue_total_poly": {"g": 2},
    "polylab.interpolate_delta": {"g": 2},
    "polylab.interpolate_total": {"g": 2},
    "polylab.delta_leading_form": {"g": 2},
    "polylab.half_total_top_form": {"g": 3},
    "polylab.leading_term_report": {"g": 2},
    "polylab.conjecture_scan": {"g": 2},
    "polylab.BiPoly.homogeneous_part": {"n": 3},
    "polylab.BiPoly.p_coefficient": {"i": 3},
    "recursion.dim_table": {"p": 7, "gmax": 3},
    "recursion.delta_direct": {"p": 7, "g": 2},
    "recursion.delta_split": {"p": 7, "g": 2},
    "recursion.DimTable.n_even": {"g": 2, "c": 1},
    "recursion.DimTable.n_odd": {"g": 2, "c": 1},
    "recursion.DimTable.total": {"g": 2, "c": 1},
    "recursion.DimTable.delta": {"g": 2, "c": 1},
}


#: The instance each class's methods in DOOR_CALLS are bound to.
DOOR_INSTANCES = {
    "DimTable": lambda: recursion.dim_table(7, 3),
    "BiPoly": lambda: polylab.interpolate_delta(2),
}


def door_function(qual: str):
    """The function DOOR_CALLS names; a method is bound to its class's
    DOOR_INSTANCES entry."""
    module, _, name = qual.partition(".")
    owner, _, method = name.partition(".")
    if method:
        return getattr(DOOR_INSTANCES[owner](), method)
    return getattr(importlib.import_module(f"tqftdims.{module}"), name)


def door_call(fn, args: dict):
    """fn called on the values of args in order, with a generator run to its
    first item."""
    out = fn(*args.values())
    return next(out) if inspect.isgenerator(out) else out


def door_message(param: str, value) -> str:
    """The whole text of the door's ValueError for a float value of param
    in a DOOR_CALLS call, as a regular expression."""
    got = re.escape(repr(value))
    if param in INTEGER_LABELS:
        return rf"^({INTEGER_LABELS[param]}) must be an int, got {got}$"
    return rf"^half-color must lie in 0\.\.2 for p=7, got {got}$"


def cache_counts() -> dict:
    return {name: cache.cache_info() for name, cache in CACHES.items()}


def caches_moved(before: dict, after: dict, qual: str) -> set[str]:
    """The caches whose counts moved between before and after, beyond what a
    refused call to qual costs: a hit on the prime door, which runs first,
    and the one miss lru_cache counts on qual's own cache before its body
    runs.  Neither reads nor stores an entry."""
    moved = set()
    for name, was in before.items():
        now = after[name]
        if name == "cyclotomic._check_prime":
            now = now._replace(hits=was.hits)
        if name == qual:
            now = now._replace(misses=now.misses - 1)
        if now != was:
            moved.add(name)
    return moved


def _integer_functions() -> set[str]:
    """Every public function, and every public method of DimTable and BiPoly,
    with a parameter in INTEGER_PARAMS that is not an exponent mod p, found
    by signature."""
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"tqftdims.{name}")
        members = [
            (attr, obj)
            for attr, obj in vars(module).items()
            if getattr(obj, "__module__", None) == module.__name__
        ]
        for cls in (DimTable, BiPoly):
            if cls.__module__ == module.__name__:
                members += [(f"{cls.__name__}.{attr}", obj) for attr, obj in vars(cls).items()]
        for attr, obj in members:
            qual, fn = f"{name}.{attr}", inspect.unwrap(obj)
            if (
                inspect.isfunction(fn)
                and not attr.rpartition(".")[2].startswith("_")
                and INTEGER_PARAMS
                & (set(inspect.signature(fn).parameters) - MOD_P_EXPONENTS.get(qual, set()))
            ):
                found.add(qual)
    return found


def test_every_integer_parameter_has_a_door_call():
    # a new function that takes a genus, a color or an index is probed too
    found = _integer_functions()
    assert {"polylab.bernoulli", "recursion.DimTable.n_even", "polylab.BiPoly.p_coefficient",
            "cyclotomic.run"} <= found
    assert "cyclotomic.inverse_run" not in found
    assert found - DOOR_CALLS.keys() == set()
    for qual, args in DOOR_CALLS.items():
        fn = door_function(qual)
        assert list(inspect.signature(fn).parameters) == list(args), qual
        door_call(fn, args)


def _load_by_path(path: Path):
    """Execute one file as a module of its own, registered nowhere."""
    spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ROOT = Path(__file__).resolve().parent.parent


def _run_benchmark_ops() -> None:
    """Run every perfbench op at toy sizes and check it against its oracle."""
    workloads = _load_by_path(ROOT / "perfbench" / "workloads.py")
    ops = _load_by_path(ROOT / "perfbench" / "ops.py")
    for name in workloads.WORKLOADS:
        for op in workloads.generate(name, 1, small=True):
            assert ops.observe(op, ops.run(op)) == ops.expect(op), (name, op)


def test_benchmark_ops_run_on_the_program():
    # perfbench calls the program by name; a deletion that breaks one of its
    # ops, at toy sizes, fails here rather than only in the benchmark's suite
    _run_benchmark_ops()
    # perfbench/layers.py reads the table cache's statistics
    assert callable(recursion.dim_table.cache_info)


# -- README examples ------------------------------------------------------------


def _readme_examples() -> list[list[str]]:
    """The arguments of every README line that starts with `tqftdims `."""
    readme = (ROOT / "README.md").read_text()
    return [shlex.split(line)[1:] for line in readme.splitlines() if line.startswith("tqftdims ")]


def _exit_code(argv) -> int:
    """cli.main's exit code for argv, its stdout dropped."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:  # argparse rejected the line
        return exc.code


def test_every_readme_example_runs():
    # an option that is removed or renamed cannot stay documented
    examples = _readme_examples()
    assert examples
    failed = {shlex.join(argv): code for argv in examples if (code := _exit_code(argv))}
    assert failed == {}


# -- reachability: src/ holds only what something runs ----------------------------

#: The scripts, at the arguments tests/test_scripts.py pins their output at.
SCRIPT_RUNS = {
    "conjecture_scan.py": ["--gmax", "5"],
    "dimension_tables.py": ["--primes", "5,7,11", "--gmax", "4", "--c", "0"],
    "leading_terms.py": ["--gmax", "3", "--full"],
}

#: Public API that no command, script or benchmark op runs, but the tests
#: drive: CycNum's and BiPoly's operators and constructors, and the parts of
#: Record that only refuse or describe.  This set may only shrink:
#: test_every_src_function_is_reached holds it to 13 names.
TEST_DRIVEN = {
    "cyclotomic.CycNum._add", "cyclotomic.CycNum.__add__", "cyclotomic.CycNum.__sub__",
    "cyclotomic.CycNum.__neg__", "cyclotomic.CycNum.__mul__", "cyclotomic.CycNum.__bool__",
    "cyclotomic.CycNum.__repr__",
    "polylab.BiPoly.__init__", "polylab.BiPoly.__pow__", "polylab.BiPoly.__repr__",
    "cyclotomic.Record.__setattr__", "cyclotomic.Record.__delattr__", "cyclotomic.Record.__repr__",
}


def _defined_functions(bodies) -> dict:
    """Every def and method in the compiled module bodies, keyed as its code
    object names itself: file, first line and qualified name."""
    found = {}
    stack = list(bodies)
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        # a function's body, not a class's, a lambda's or a comprehension's
        if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
            key = code.co_filename, code.co_firstlineno, code.co_qualname
            found[key] = f"{Path(code.co_filename).stem}.{code.co_qualname}"
    return found


def test_every_src_function_is_reached(cold, monkeypatch):
    # a function that no command, script or benchmark op runs, and that is
    # not public API the tests drive, is dead code.  Every cache starts
    # empty, so a function behind one is called, not read from it.
    bodies = [compile(path.read_text(), str(path), "exec") for path in sorted(SRC.glob("*.py"))]
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        # the module bodies, whose calls ran at import, run again unregistered
        for body in bodies:
            name = f"tqftdims.{Path(body.co_filename).stem}"
            exec(body, {"__name__": name, "__package__": "tqftdims"})
        for argv in [*_readme_examples(), ["verify"]]:
            assert _exit_code(argv) == 0, argv
        for script, args in SCRIPT_RUNS.items():
            monkeypatch.setattr(sys, "argv", [script, *args])
            with contextlib.redirect_stdout(io.StringIO()):
                assert _load_by_path(ROOT / "scripts" / script).main() == 0, script
        _run_benchmark_ops()
    finally:
        sys.setprofile(None)
    reached = {(c.co_filename, c.co_firstlineno, c.co_qualname) for c in codes}
    missed = {name for key, name in _defined_functions(bodies).items() if key not in reached}
    assert missed == TEST_DRIVEN
    assert len(TEST_DRIVEN) <= 13
