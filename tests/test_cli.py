"""CLI contract: output shapes, exit codes, byte determinism."""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from tqftdims import census, claims, cli, cyclotomic, fusion, polylab, recursion
from tqftdims.cli import (
    EXIT_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    HOPF_GUARD_P,
    POLY_GUARD_G,
    main,
)
from tqftdims.cyclotomic import is_prime
from tqftdims.recursion import dim_table


def run_cli(*args, binary=False):
    return subprocess.run(
        [sys.executable, "-m", "tqftdims", *args],
        capture_output=True,
        text=not binary,
    )


def test_dims_csv_golden():
    res = run_cli("dims", "--p", "5", "--gmax", "2", "--format", "csv")
    assert res.returncode == EXIT_OK
    assert res.stdout.splitlines() == [
        "p,g,c,fe,fo,D,delta",
        "5,1,0,2,0,2,2",
        "5,1,1,1,0,1,1",
        "5,2,0,5,0,5,5",
        "5,2,1,4,1,5,3",
    ]


def test_dims_includes_known_rows():
    res = run_cli("dims", "--p", "5", "--gmax", "3", "--format", "csv")
    assert "5,3,0,14,1,15,13" in res.stdout.splitlines()
    res = run_cli("dims", "--p", "7", "--gmax", "2", "--format", "csv")
    assert "7,2,0,14,0,14,14" in res.stdout.splitlines()


def test_dims_json_shape():
    res = run_cli("dims", "--p", "5", "--gmax", "1", "--format", "json")
    rows = json.loads(res.stdout)
    assert rows == [
        {"p": 5, "g": 1, "c": 0, "fe": 2, "fo": 0, "D": 2, "delta": 2},
        {"p": 5, "g": 1, "c": 1, "fe": 1, "fo": 0, "D": 1, "delta": 1},
    ]


def test_dims_json_streams_the_bytes_of_one_dump(capsys):
    # rows are written one at a time, and must read as json.dumps of them all
    assert main(["dims", "--p", "7", "--gmax", "3", "--format", "json"]) == EXIT_OK
    rows = [
        {"p": 7, "g": g, "c": c, "fe": fe, "fo": fo, "D": total, "delta": delta}
        for g, c, fe, fo, total, delta in dim_table(7, 3).rows()
    ]
    assert capsys.readouterr().out == json.dumps(rows) + "\n"


# sha256 of `dims --format csv` stdout, frozen from the program before it had
# a size guard: the largest tables the CLI tests run pass the guard unchanged.
DIMS_UNDER_GUARD = {
    ("--p", "101", "--gmax", "110"):
        "1fb14b5ca3c867affe7c535fad026142843a205afe3e17de71bf69e242ac6a9a",
    ("--p", "11", "--gmax", "400"):
        "d3369749c41453b1d2d946e5de8e97cb7efedf682ed7e29a362ae324e616b5f9",
}


@pytest.mark.parametrize("args,digest", DIMS_UNDER_GUARD.items())
def test_dims_under_the_guard_bytes_frozen(args, digest):
    res = run_cli("dims", *args, "--format", "csv", binary=True)
    assert res.returncode == EXIT_OK
    assert hashlib.sha256(res.stdout).hexdigest() == digest


class _Built(Exception):
    """Raised in place of building a table: the guard let the call through."""


@pytest.fixture
def no_tables(monkeypatch):
    # Neither a refused call nor a broken guard allocates a table.
    def build(*args):
        raise _Built(args)

    monkeypatch.setattr(recursion, "dim_table", build)


@pytest.mark.parametrize(
    "args",
    [
        ("--p", "100000007", "--gmax", "1"),  # cells
        ("--p", "5", "--gmax", "200000"),  # digits
        ("--p", "20011", "--gmax", "100", "--format", "json"),  # digits, as json
        ("--p", "5", "--gmax", "9000"),  # counts past Python's int-to-text limit
    ],
)
def test_dims_size_guard_refuses_before_building(no_tables, capsys, args):
    assert main(["dims", *args]) == EXIT_GUARD
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("refusing dims:") and "--force" in err
    with pytest.raises(_Built):
        main(["dims", *args, "--force"])


def test_dims_force_refuses_counts_past_the_text_limit(capsys):
    # Under a 640-digit limit the estimate refuses p = 5 at gmax 1146, whose
    # counts reach exactly 640 digits; one genus more reaches 641.  --force
    # prints the first table and refuses the second before its first row.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["dims", "--p", "5", "--gmax", "1146"]) == EXIT_GUARD
        capsys.readouterr()
        assert main(["dims", "--p", "5", "--gmax", "1146", "--force"]) == EXIT_OK
        out, _err = capsys.readouterr()
        assert len(out.splitlines()) == 1 + 2 * 1146
        assert main(["dims", "--p", "5", "--gmax", "1147", "--force"]) == EXIT_GUARD
        out, err = capsys.readouterr()
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("refusing dims:") and "640-digit" in err and "--force" not in err


@pytest.mark.parametrize(
    "args",
    [
        ("--p", "5", "--gmax", "6500"),
        ("--p", "4001", "--gmax", "4"),
        ("--p", "1009", "--gmax", "30"),
        # refused at 265 and 520 MiB by a fit from before rows streamed;
        # they peak at 38 and 71 MB
        ("--p", "5", "--gmax", "6500", "--format", "json"),
        ("--p", "20011", "--gmax", "25", "--format", "json"),
    ],
)
def test_dims_size_guard_lets_moderate_tables_through(no_tables, args):
    with pytest.raises(_Built):
        main(["dims", *args])


def test_byte_determinism():
    first = run_cli("dims", "--p", "11", "--gmax", "3", "--format", "json", binary=True)
    second = run_cli("dims", "--p", "11", "--gmax", "3", "--format", "json", binary=True)
    assert first.stdout == second.stdout
    a = run_cli("poly", "--g", "3", "--emit", "delta", binary=True)
    b = run_cli("poly", "--g", "3", "--emit", "delta", binary=True)
    assert a.stdout == b.stdout


def test_census_counts_and_stream():
    res = run_cli("census", "--p", "5", "--g", "2", "--c", "1")
    assert res.returncode == EXIT_OK
    assert res.stdout.strip() == "fe=4 fo=1"
    res = run_cli("census", "--p", "5", "--g", "2", "--c", "1", "--list")
    assert res.stdout.splitlines() == [
        "g;c;ab;e;parity",
        "2;1;0,0,1,0;1;even",
        "2;1;0,1,1,0;1;even",
        "2;1;1,0,0,0;0;even",
        "2;1;1,0,0,1;0;even",
        "2;1;1,0,1,0;1;odd",
    ]
    res = run_cli("census", "--p", "5", "--g", "1", "--c", "0", "--list")
    assert len(res.stdout.splitlines()) == 3  # header + two colorings


@pytest.mark.parametrize(
    "p,g,c,digest,lines",
    [
        (11, 3, 2, "e2387e4bc64c54e3421fd2f7de28c1f7c2d1f7a91b3d3eb94edd5d96f26892c7", 4236),
        (7, 4, 1, "43d2d96c4e855d5c81fad4566782aba47872c867b78ad2624dcd95a9ac78d4fc", 1814),
        (5, 2, 0, "796403b1d0c5bab35aaac7fb7866a8d2bf64faff8540d73e6bf796034d944a48", 6),
    ],
)
def test_census_list_bytes_frozen(p, g, c, digest, lines):
    # sha256 of the --list stdout, frozen from an earlier stream that built
    # one coloring object per record and serialized it; the record stream
    # must keep these bytes
    res = run_cli("census", "--p", str(p), "--g", str(g), "--c", str(c), "--list", binary=True)
    assert res.returncode == EXIT_OK
    assert res.stdout.count(b"\n") == lines
    assert hashlib.sha256(res.stdout).hexdigest() == digest


def test_internal_arithmetic_error_exits_1(monkeypatch, capsys):
    def broken(p, g, c):
        raise ArithmeticError("odd coloring found where the parity convention forbids it")

    monkeypatch.setattr(census, "count_parities", broken)
    assert main(["census", "--p", "5", "--g", "2", "--c", "0"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: odd coloring found where the parity convention forbids it"
    ]
    assert "Traceback" not in captured.err


def test_census_csv_row():
    res = run_cli("census", "--p", "7", "--g", "2", "--c", "0", "--format", "csv")
    assert res.stdout.splitlines() == ["p,g,c,fe,fo,D,delta", "7,2,0,14,0,14,14"]


def test_census_json_row(capsys):
    assert main(["census", "--p", "5", "--g", "2", "--c", "1", "--format", "json"]) == EXIT_OK
    row = {"p": 5, "g": 2, "c": 1, "fe": 4, "fo": 1, "D": 5, "delta": 3}
    assert list(row) == cli.DIM_COLUMNS
    assert capsys.readouterr().out == json.dumps([row]) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_census_list_refuses_a_non_text_format(capsys, fmt):
    # the records stream as text only; the refusal is invalid input, made
    # before the size guard, which the second shape would trip
    for p, g in ((7, 2), (101, 30)):
        argv = ["census", "--p", str(p), "--g", str(g), "--c", "1", "--list", "--format", fmt]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --list streams text records; --format {fmt} formats counts only\n"


def test_census_size_guard():
    res = run_cli("census", "--p", "13", "--g", "5", "--c", "0")
    assert res.returncode == EXIT_GUARD
    assert "refus" in res.stderr.lower()
    # forcing a small-enough case still works
    res = run_cli("census", "--p", "5", "--g", "3", "--c", "0", "--force")
    assert res.returncode == EXIT_OK


@pytest.mark.parametrize("g", [6000, 10**9])
def test_census_refuses_a_large_genus_at_once(capsys, g):
    # the estimate stops at the guard, and the refusal quotes no estimate
    start = time.perf_counter()
    assert main(["census", "--p", "5", "--g", str(g), "--c", "0"]) == EXIT_GUARD
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"refusing census: estimated search states exceed {census.STATE_GUARD}; "
        "pass --force to override\n"
    )


def test_refusal_is_neither_invalid_input_nor_a_failed_check():
    assert not issubclass(cli._Refusal, (ValueError, ArithmeticError))


@pytest.mark.parametrize("listing", [(), ("--list",)])
def test_census_too_deep_to_recurse_is_refused(listing):
    # the walks recurse once per genus, past the interpreter's limit here
    res = run_cli("census", "--p", "5", "--g", "1200", "--c", "0", "--force", *listing)
    assert res.returncode == EXIT_GUARD
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert "refus" in res.stderr
    assert "Traceback" not in res.stderr


def test_poly_text_golden():
    res = run_cli("poly", "--g", "2", "--emit", "delta")
    assert res.returncode == EXIT_OK
    assert res.stdout.strip() == (
        "(1/24)P^3 + (-1/4)C^2P + (1/6)C^3 + (-1/4)CP + (1/4)C^2 + (-1/24)P + (1/12)C"
    )


def test_poly_methods_agree():
    a = run_cli("poly", "--g", "2", "--emit", "D", "--method", "interpolate")
    b = run_cli("poly", "--g", "2", "--emit", "D", "--method", "residue")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == EXIT_OK


def test_poly_json_parses():
    res = run_cli("poly", "--g", "1", "--emit", "delta", "--format", "json")
    obj = json.loads(res.stdout)
    assert obj == {
        "monomials": [
            {"p": 1, "c": 0, "num": 1, "den": 2},
            {"p": 0, "c": 1, "num": -1, "den": 1},
            {"p": 0, "c": 0, "num": -1, "den": 2},
        ]
    }


def test_poly_usage_errors():
    assert run_cli("poly", "--g", "1", "--emit", "D", "--method", "residue").returncode == EXIT_USAGE
    assert run_cli("poly", "--g", "2", "--emit", "delta", "--method", "residue").returncode == EXIT_USAGE
    assert run_cli("poly", "--g", "0", "--emit", "delta").returncode == EXIT_USAGE


@pytest.fixture
def no_polynomials(monkeypatch):
    def refuse(g):
        raise AssertionError("poly ran past its size guard")

    for name in ("interpolate_delta", "interpolate_total", "residue_total_poly"):
        monkeypatch.setattr(polylab, name, refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ("--g", "1000000", "--emit", "D"),
        ("--g", "1000000", "--emit", "delta", "--format", "json"),
        ("--g", "1000000", "--emit", "D", "--method", "residue"),
        ("--g", str(POLY_GUARD_G["interpolate"] + 1), "--emit", "delta"),
        ("--g", str(POLY_GUARD_G["residue"] + 1), "--emit", "D", "--method", "residue"),
    ],
)
def test_poly_size_guard_refuses_before_any_work(no_polynomials, capsys, argv):
    method = "residue" if "residue" in argv else "interpolate"
    start = time.perf_counter()
    assert main(["poly", *argv]) == EXIT_GUARD
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"refusing poly: g={argv[1]} exceeds {POLY_GUARD_G[method]} for --method {method}; "
        "pass --force to override\n"
    )
    # --force lifts the refusal, and the route runs
    with pytest.raises(AssertionError, match="size guard"):
        main(["poly", *argv, "--force"])


def test_poly_guard_leaves_its_bounds_and_bad_input_alone(no_polynomials, capsys):
    # at each bound the route runs; delta by residue is still invalid input
    # (exit 2), however large the genus
    for method, bound in POLY_GUARD_G.items():
        with pytest.raises(AssertionError, match="size guard"):
            main(["poly", "--g", str(bound), "--emit", "D", "--method", method])
    argv = ["poly", "--g", "1000000", "--emit", "delta", "--method", "residue"]
    assert main(argv) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("method", ["interpolate", "residue"])
def test_poly_force_prints_the_same_bytes(method):
    for fmt in ("text", "json"):
        argv = ("poly", "--g", "3", "--emit", "D", "--method", method, "--format", fmt)
        plain, forced = run_cli(*argv, binary=True), run_cli(*argv, "--force", binary=True)
        assert plain.returncode == forced.returncode == EXIT_OK
        assert plain.stdout == forced.stdout and plain.stdout


def test_verify_poly_suite():
    res = run_cli("verify", "--suite", "poly", "--gmax", "2")
    assert res.returncode == EXIT_OK
    lines = res.stdout.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "0 failures" in lines[-1]


def test_verify_suite_choices_are_the_claim_suites(capsys):
    # verify reads its --suite choices from claims.SUITES, in its order
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == EXIT_OK
    assert tuple(claims.SUITES) == ("census", "fusion", "poly", "hopf")
    assert "\n  --suite {all,census,fusion,poly,hopf}\n" in capsys.readouterr().out


def test_verify_gmax_is_capped_by_each_suite():
    # the fusion suite caps its genus at 8 (census at 4, poly at 4), so a
    # huge --gmax is a bounded run
    res = run_cli("verify", "--suite", "fusion", "--p-list", "5", "--gmax", "100000")
    assert res.returncode == EXIT_OK
    capped = [line for line in res.stdout.splitlines() if "g<=" in line]
    assert len(capped) == 2 and all(line.endswith("g<=8)") for line in capped)


def test_verify_census_suite_small():
    res = run_cli("verify", "--suite", "census", "--p-list", "5,7", "--gmax", "2")
    assert res.returncode == EXIT_OK
    assert "FAIL" not in res.stdout


def test_hopf_certificate_output():
    res = run_cli("hopf", "--p", "7")
    assert res.returncode == EXIT_OK
    assert res.stdout.strip() == "p=7 valuation=3 expected=3 unit_norm=1 certified=yes"
    assert run_cli("hopf", "--p", "4").returncode == EXIT_USAGE


@pytest.mark.parametrize("p", (5, 7, 11, 13, 17, 19, 23, 29))
def test_hopf_lines_frozen(capsys, p):
    # the lines the Bareiss certificate printed
    v = {5: 1, 7: 3, 11: 10, 13: 15, 17: 28, 19: 36, 23: 55, 29: 91}[p]
    assert main(["hopf", "--p", str(p)]) == EXIT_OK
    assert capsys.readouterr().out == (
        f"p={p} valuation={v} expected={v} unit_norm=1 certified=yes\n"
    )


def test_hopf_size_guard_refuses_before_arithmetic(monkeypatch, capsys):
    def certify(p):
        raise AssertionError("hopf ran past its size guard")

    monkeypatch.setattr(fusion, "hopf_certificate", certify)
    past = next(n for n in range(HOPF_GUARD_P + 1, 2 * HOPF_GUARD_P) if is_prime(n))
    for p in (past, 1009):
        assert main(["hopf", "--p", str(p)]) == EXIT_GUARD
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"refusing hopf: p={p} exceeds {HOPF_GUARD_P}; pass --force to override\n"
    # the guard runs before the primality test: a composite above it is refused too
    assert main(["hopf", "--p", "1000"]) == EXIT_GUARD
    with pytest.raises(AssertionError, match="size guard"):
        main(["hopf", "--p", "1009", "--force"])


HUGE_P = str(10**30 + 57)


@pytest.fixture
def no_trial_division(monkeypatch):
    def refuse(n):
        raise AssertionError("tested primality before the size guard")

    monkeypatch.setattr(cyclotomic, "is_prime", refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ("hopf", "--p", HUGE_P),
        ("census", "--p", HUGE_P, "--g", "2", "--c", "0"),
        ("dims", "--p", HUGE_P),
        ("dims", "--p", str(10**400 + 1)),  # p itself past the float range
    ],
)
def test_huge_p_refused_before_its_primality_test(no_trial_division, capsys, argv):
    assert main(list(argv)) == EXIT_GUARD
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"refusing {argv[0]}:") and "--force" in err
    # --force lifts the refusal, and the primality test runs
    with pytest.raises(AssertionError, match="primality"):
        main([*argv, "--force"])


def test_invalid_input_next_to_a_huge_p_still_exits_2(no_trial_division, capsys):
    # a bad genus or color is reported before the census guard, as before;
    # below the guards a composite p is still reported by the primality test
    for argv in (
        ("census", "--p", HUGE_P, "--g", "0", "--c", "0"),
        ("census", "--p", HUGE_P, "--g", "2", "--c", "-1"),
        ("hopf", "--p", "4"),
        ("dims", "--p", "1", "--gmax", "1"),
        ("verify", "--p-list", f"{HUGE_P},4"),
    ):
        assert main(list(argv)) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "error: genus must be >= 1, got 0",
        f"error: half-color must lie in 0..{(int(HUGE_P) - 3) // 2} for p={HUGE_P}, got -1",
        "error: p must be a prime >= 5, got 4",
        "error: p must be a prime >= 5, got 1",
        "error: p must be a prime >= 5, got 4",
    ]


@pytest.mark.parametrize("p_list", [HUGE_P, f"5,{HUGE_P}", "1000", "173"])
def test_verify_refuses_a_p_past_the_hopf_bound_before_its_primality_test(
    no_trial_division, capsys, p_list
):
    # verify has no --force: no suite takes a prime that hopf would refuse
    assert main(["verify", "--p-list", p_list]) == EXIT_GUARD
    out, err = capsys.readouterr()
    assert out == ""
    big = p_list.split(",")[-1]
    assert err == f"refusing verify: p={big} exceeds {HOPF_GUARD_P}\n"


def test_verify_huge_p_exits_3_as_a_command():
    res = subprocess.run(
        [sys.executable, "-m", "tqftdims", "verify", "--p-list", HUGE_P],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == EXIT_GUARD
    assert res.stdout == ""
    assert res.stderr == f"refusing verify: p={HUGE_P} exceeds {HOPF_GUARD_P}\n"


def test_dims_gmax_below_one_exits_2_before_the_primality_test(no_trial_division, capsys):
    # gmax is one of the checks that cost nothing, so neither a huge p nor a
    # composite one is trial-divided first
    for p in (HUGE_P, "9"):
        assert main(["dims", "--p", p, "--gmax", "0"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == "error: gmax must be >= 1, got 0\n"


def test_composite_p_below_the_guards_exits_2(capsys):
    for argv in (("hopf", "--p", "15"), ("census", "--p", "15", "--g", "2", "--c", "0")):
        assert main(list(argv)) == EXIT_USAGE
        assert capsys.readouterr().err == "error: p must be a prime >= 5, got 15\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("dims", "--p", "5", "--gmax", str(10**309)),
        ("quadruple", "--gmax", str(10**309)),
        ("quadruple", "--gmin", str(10**309), "--gmax", str(10**309)),
    ],
)
def test_gmax_past_the_float_range_is_refused(no_tables, capsys, argv):
    # the digit bound is a float: past the float range it reads inf, over every limit
    assert main(list(argv)) == EXIT_GUARD
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"refusing {argv[0]}:")


def test_quadruple_table():
    res = run_cli("quadruple", "--format", "csv")
    lines = res.stdout.splitlines()
    assert lines[0] == "g,fe0,fe2,fo2,fo0"
    assert len(lines) == 6
    t = dim_table(5, 8)
    for line in lines[1:]:
        g, fe0, fe2, fo2, fo0 = (int(x) for x in line.split(","))
        assert (fe0, fe2, fo2, fo0) == (
            t.n_even(g, 0),
            t.n_even(g, 1),
            t.n_odd(g, 1),
            t.n_odd(g, 0),
        )


def test_quadruple_refuses_counts_past_the_text_limit(monkeypatch, capsys):
    # At gmax 9000 the p = 5 counts reach about 5000 digits, past Python's
    # default 4300-digit int-to-text limit: refused before any table or row.
    def build(*args):
        raise AssertionError("quadruple built a table it cannot print")

    monkeypatch.setattr(recursion, "dim_table", build)
    for fmt in ("text", "csv", "json"):
        assert main(["quadruple", "--gmin", "1", "--gmax", "9000", "--format", fmt]) == EXIT_GUARD
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("refusing quadruple:") and "digits" in err


def test_invalid_prime_exits_2():
    assert run_cli("dims", "--p", "6", "--gmax", "1").returncode == EXIT_USAGE
    assert run_cli("dims", "--p", "9", "--gmax", "1").returncode == EXIT_USAGE
    assert run_cli("census", "--p", "5", "--g", "0", "--c", "0").returncode == EXIT_USAGE
    assert run_cli("quadruple", "--gmin", "3", "--gmax", "2").returncode == EXIT_USAGE


def test_config_validation_direct(capsys):
    for argv in (
        ["dims", "--p", "6"],
        ["dims", "--p", "7", "--gmax", "0"],
        ["verify", "--suite", "poly", "--gmax", "0"],
        ["census", "--p", "5", "--g", "2", "--c", "-2"],
        ["verify", "--p-list", "5,6"],
        ["verify", "--p-list", "4"],
        ["verify", "--p-list", ""],
        ["verify", "--suite", "hopf", "--p-list", ","],
    ):
        assert main(argv) == EXIT_USAGE, argv
    # every refusal comes before any output, for verify before any claim runs
    assert capsys.readouterr().out == ""
    for argv in (
        ["dims", "--p", "5", "--format", "yaml"],
        ["dims", "--p", "7", "--float-display"],
        ["verify", "--suite", "everything"],
    ):
        with pytest.raises(SystemExit, match=f"^{EXIT_USAGE}$"):
            main(argv)


@pytest.mark.parametrize(
    "args,digest",
    [
        ((), "21f05bde1aecddb85365b2da4aeb3949a7271036f424257f6dee8b55ea2d9931"),
        (
            ("--p-list", "5,7", "--gmax", "2"),
            "6d50b8525ce5f75fecd27f2bc407ff3f9b1a67907a684f669bc00664262fcf8a",
        ),
        (
            ("--suite", "fusion", "--p-list", "61,101,167"),
            "e00f836d2ad36fade97b1644a040d151c8382429e2890dcba33cfe0720e31169",
        ),
    ],
)
def test_verify_bytes_frozen(args, digest):
    res = run_cli("verify", *args, binary=True)
    assert res.returncode == EXIT_OK
    assert hashlib.sha256(res.stdout).hexdigest() == digest


@pytest.mark.parametrize("bump", [(1, 0), (0, 1)], ids=["beta", "eta"])
def test_mutated_kernel_fails_verify(cold, monkeypatch, capsys, bump):
    # the eta bump alone at (1, 2), read as w_1 at p = 7, moves the total
    # kernel u + w and the signed kernel u - w in opposite directions.  Cold
    # caches: a cached ladder would serve the real factors, and a mutated
    # one left behind would poison later tests
    closed = recursion.beta_eta_closed

    def mutated(p, c1, c2):
        beta, eta = closed(p, c1, c2)
        return (beta + bump[0], eta + bump[1]) if (c1, c2) == (1, 2) else (beta, eta)

    monkeypatch.setattr(recursion, "beta_eta_closed", mutated)
    for suite, claim in (
        ("census", "coloring census matches the transfer recursion (p=7, g<=3)"),
        ("fusion", "matrix powers reproduce signed and total counts (p=7, g<=3)"),
    ):
        argv = ["verify", "--suite", suite, "--p-list", "7", "--gmax", "3"]
        assert main(argv) == EXIT_VERIFY
        assert f"FAIL {claim}" in capsys.readouterr().out.splitlines()


def test_closed_pipe_exits_1_without_traceback():
    argv = ["census", "--p", "11", "--g", "4", "--c", "0", "--list"]
    cmd = [sys.executable, "-m", "tqftdims", *argv]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"g;c;ab;e;parity\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == EXIT_VERIFY
    assert err == b""  # in particular no Traceback


def test_main_callable_in_process(capsys):
    assert main(["dims", "--p", "5", "--gmax", "1", "--format", "csv"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "p,g,c,fe,fo,D,delta"
    assert main(["dims", "--p", "6", "--gmax", "1"]) == EXIT_USAGE
