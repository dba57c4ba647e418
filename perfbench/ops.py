"""Benchmark operations: how each op runs, what it yields, what it must yield.

An op is a JSON object ``{"fn": name, "args": [...]}`` (plus ``"probes"`` for
``polylab.interpolate_delta``).  A name ``module.attr`` calls that attribute
of ``tqftdims.module`` as bound at call time, so traced wrappers apply.  Two
names drive the command line in-process: ``cli.verify`` and
``cli.census_list``.

:func:`observe` turns an op's result into a JSON value after the timed pass.
:func:`expect` computes the value it must equal by another route; it runs in
a separate oracle process so the timed process starts with cold caches.
"""

from __future__ import annotations

import contextlib
import importlib
import json

#: sha256 of ``tqftdims verify`` stdout, frozen from the program at the
#: commit that introduced this benchmark, keyed by the arguments after verify.
VERIFY_SHA256 = {
    (): "21f05bde1aecddb85365b2da4aeb3949a7271036f424257f6dee8b55ea2d9931",
    ("--p-list", "5,7", "--gmax", "2"): "6d50b8525ce5f75fecd27f2bc407ff3f9b1a67907a684f669bc00664262fcf8a",
}


def _sha256(text: str) -> str:
    # Imported late: hashlib loads OpenSSL, about 3 MB of resident memory
    # that would otherwise count in a pass's peak_rss_mb.
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def _digest(value) -> str:
    return _sha256(json.dumps(value))


def _attr(path: str):
    mod, attr = path.split(".")
    return getattr(importlib.import_module(f"tqftdims.{mod}"), attr)


class TextSink:
    """Stands in for stdout: keeps the text and a byte count (output is ASCII)."""

    def __init__(self) -> None:
        self.chunks: list[str] = []
        self.nbytes = 0
        self.exit = None

    def write(self, s: str) -> int:
        self.chunks.append(s)
        self.nbytes += len(s)
        return len(s)

    def flush(self) -> None:
        pass


class TallySink:
    """Stands in for stdout: counts bytes, lines and records by parity."""

    def __init__(self) -> None:
        self.nbytes = self.lines = self.even = self.odd = 0
        self.exit = None

    def write(self, s: str) -> int:
        self.nbytes += len(s)
        if s == "\n":
            self.lines += 1
        elif s.endswith(";even"):
            self.even += 1
        elif s.endswith(";odd"):
            self.odd += 1
        return len(s)

    def flush(self) -> None:
        pass


def _run_cli(argv: list[str], sink):
    main = _attr("cli.main")
    with contextlib.redirect_stdout(sink):
        try:
            sink.exit = main(argv)
        except SystemExit as exc:
            sink.exit = exc.code
    return sink


def run(op: dict):
    fn, args = op["fn"], op["args"]
    if fn == "cli.verify":
        return _run_cli(["verify", *args], TextSink())
    if fn == "cli.census_list":
        p, g, c = args
        argv = ["census", "--p", str(p), "--g", str(g), "--c", str(c), "--list"]
        return _run_cli(argv, TallySink())
    if fn == "norm_quantum_int":
        p, n = args
        return _attr("cyclotomic.norm")(_attr("cyclotomic.quantum_int")(p, n))
    return _attr(fn)(*args)


def observe(op: dict, result):
    fn = op["fn"]
    if fn == "cli.verify":
        return {"exit": result.exit, "sha256": _sha256("".join(result.chunks))}
    if fn == "cli.census_list":
        return {"exit": result.exit, "records": result.lines - 1,
                "even": result.even, "odd": result.odd}
    if fn == "census.count_parities":
        return list(result)
    if fn == "fusion.hopf_certificate":
        return {"valuation": result.valuation, "unit_norm_abs": abs(result.unit_norm)}
    if fn == "recursion.dim_table":
        return _digest([list(row[:4]) for row in result.rows()])
    if fn in ("recursion.delta_direct", "recursion.delta_split"):
        return _digest(list(result))
    if fn == "polylab.interpolate_delta":
        return [str(result.eval(p, c)) for p, c in op["probes"]]
    if fn in ("polylab.interpolate_total", "polylab.residue_total_poly"):
        return _digest(result.canonical_str())
    return str(result)


def _matrix_route_rows(p: int, gmax: int) -> list[list[int]]:
    """[g, c, fe, fo] for g <= gmax from powers of the two fusion matrices,
    each applied once per genus to the whole vector."""
    from tqftdims import fusion

    d = (p - 1) // 2
    alt = fusion.mul_matrix_even(fusion.alternating_element(p))
    cnt = fusion.mul_matrix_even(fusion.counting_element(p))
    unit = tuple(1 if j == 0 else 0 for j in range(d))
    va = vc = unit
    rows = []
    for g in range(1, gmax + 1):
        va, vc = alt.apply(va), cnt.apply(vc)
        for c in range(d):
            delta = -va[c] if c % 2 else va[c]
            rows.append([g, c, (vc[c] + delta) // 2, (vc[c] - delta) // 2])
    return rows


def expect(op: dict):
    from tqftdims import polylab, recursion

    fn, args = op["fn"], op["args"]
    if fn == "cli.verify":
        return {"exit": 0, "sha256": VERIFY_SHA256[tuple(args)]}
    if fn == "cli.census_list":
        p, g, c = args
        t = recursion.dim_table(p, g)
        fe, fo = t.n_even(g, c), t.n_odd(g, c)
        return {"exit": 0, "records": fe + fo, "even": fe, "odd": fo}
    if fn == "census.count_parities":
        p, g, c = args
        t = recursion.dim_table(p, g)
        return [t.n_even(g, c), t.n_odd(g, c)]
    if fn == "fusion.hopf_certificate":
        d = (args[0] - 1) // 2
        return {"valuation": d * (d - 1) // 2, "unit_norm_abs": 1}
    if fn in ("fusion.galois_sum_delta", "fusion.delta_via_matrix"):
        p, g, c = args
        return str(recursion.dim_table(p, g).delta(g, c))
    if fn in ("fusion.galois_sum_total", "fusion.total_via_matrix"):
        p, g, c = args
        return str(recursion.dim_table(p, g).total(g, c))
    if fn == "norm_quantum_int":
        # Q(zeta_p) is totally imaginary, so norms are positive: a unit's is 1.
        return "1"
    if fn == "recursion.dim_table":
        return _digest(_matrix_route_rows(*args))
    if fn in ("recursion.delta_direct", "recursion.delta_split"):
        p, g = args
        t = recursion.dim_table(p, g)
        return _digest([t.delta(g, c) for c in range(t.d)])
    if fn == "polylab.interpolate_delta":
        (g,) = args
        return [str(recursion.dim_table(p, g).delta(g, c)) for p, c in op["probes"]]
    if fn == "polylab.interpolate_total":
        return _digest(polylab.residue_total_poly(*args).canonical_str())
    if fn == "polylab.residue_total_poly":
        return _digest(polylab.interpolate_total(*args).canonical_str())
    raise ValueError(f"no oracle for {fn}")
