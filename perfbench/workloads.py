"""Seeded op lists for the four workloads.

A workload draws its inputs from fixed strata.  The seed picks inputs that
do not change the cost of a pass much (trunk colors, genera, probe points,
which of two equal-cost primes goes to which route); inputs whose cost grows
steeply (the Hopf prime, the polylab genus) are fixed per stratum, so the
end-to-end times of two seeds compare like with like.  Costs quoted below
were measured on a 2-core x86-64 box with Python 3.11.

``small=True`` gives the same op kinds at toy sizes, for the benchmark's tests.
"""

from __future__ import annotations

import random

PRIMES = [n for n in range(5, 400) if all(n % f for f in range(2, int(n**0.5) + 1))]


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in PRIMES if lo <= p <= hi]


def verify(rng: random.Random, small: bool) -> list[dict]:
    """The default ``tqftdims verify``: fixed arguments, so the seed is unused."""
    args = ["--p-list", "5,7", "--gmax", "2"] if small else []
    return [{"fn": "cli.verify", "args": args}]


def cyclotomic(rng: random.Random, small: bool) -> list[dict]:
    """Q(zeta_p) arithmetic: Bareiss determinants (division-heavy), Galois
    sums (multiply-heavy) and norms."""
    # hopf_certificate costs 0.7 / 1.2 / 2.5 s at p = 17 / 19 / 23, so p is fixed.
    hopf_primes = (7, 11) if small else (17, 19)
    # Primes within a stratum cost within about 15% of each other.
    galois_strata = ((11, 13),) if small else ((29, 31), (41, 43), (47, 53), (59, 61))
    g_lo, g_hi = (2, 3) if small else (6, 10)
    norm_primes = (7,) if small else (17, 19, 23)

    out = [{"fn": "fusion.hopf_certificate", "args": [p]} for p in hopf_primes]
    for stratum in galois_strata:
        for fn in ("fusion.galois_sum_delta", "fusion.galois_sum_total"):
            p = rng.choice(stratum)
            out.append({"fn": fn, "args": [p, rng.randint(g_lo, g_hi), rng.randrange((p - 1) // 2)]})
    for p in norm_primes:
        out.append({"fn": "norm_quantum_int", "args": [p, rng.randint(2, p - 2)]})
    return out


def tables(rng: random.Random, small: bool) -> list[dict]:
    """Integer and Fraction routes only: recursion tables, the fusion matrix
    route over every trunk color, and polylab interpolation and residues."""
    if small:
        table_cells = [(11, 3), (13, 3), (17, 2)]
        delta_primes, delta_g = _primes(11, 17), (2, 4)
        matrix_pairs, matrix_g = ((11, 13),), (2, 3)
        poly_g = {"interpolate_delta": 2, "interpolate_total": 2, "residue_total_poly": 2}
        probe_primes = _primes(5, 31)
    else:
        # (p, gmax) cells whose dim_table costs 58-69 ms; three are drawn.
        table_cells = [(101, 20), (103, 19), (127, 13), (131, 12), (149, 10)]
        delta_primes, delta_g = _primes(101, 151), (10, 20)
        # Each pair is split between the two matrix routes in a seeded order,
        # so the pass cost does not depend on which route got which prime.
        matrix_pairs, matrix_g = ((41, 43), (59, 61)), (6, 10)
        # interpolate_total costs 0.2 / 0.7 / 1.3 s at g = 6 / 7 / 8, so g is fixed.
        poly_g = {"interpolate_delta": 7, "interpolate_total": 6, "residue_total_poly": 8}
        probe_primes = _primes(5, 199)

    out = [{"fn": "recursion.dim_table", "args": list(cell)} for cell in rng.sample(table_cells, 3)]
    for fn in ("recursion.delta_direct", "recursion.delta_split"):
        out.append({"fn": fn, "args": [rng.choice(delta_primes), rng.randint(*delta_g)]})
    for pair in matrix_pairs:
        for fn, p in zip(("fusion.delta_via_matrix", "fusion.total_via_matrix"), rng.sample(pair, 2)):
            g = rng.randint(*matrix_g)
            out.extend({"fn": fn, "args": [p, g, c]} for c in range((p - 1) // 2))
    probes = []
    for p in rng.sample(probe_primes, 4):
        probes.append([p, rng.randrange((p - 1) // 2)])
    out.append({"fn": "polylab.interpolate_delta", "args": [poly_g["interpolate_delta"]], "probes": probes})
    out.append({"fn": "polylab.interpolate_total", "args": [poly_g["interpolate_total"]]})
    out.append({"fn": "polylab.residue_total_poly", "args": [poly_g["residue_total_poly"]]})
    return out


def census(rng: random.Random, small: bool) -> list[dict]:
    """The coloring walk two ways: bulk counting and streaming records
    through ``tqftdims census --list`` into a counting sink."""
    if small:
        fixed = [("census.count_parities", (7, 3, 0)), ("cli.census_list", (7, 2, 0))]
        pairs = [(1, 1), (2, 2)]
        count_pg, list_pg = (7, 3), (7, 2)
    else:
        # At p = 13 only c = 0 fits a pass: (13, 5) costs 5-10 s at c >= 1.
        fixed = [("census.count_parities", (13, 5, 0)), ("cli.census_list", (13, 4, 0))]
        # (c for count_parities at (11, 5), c for census --list at (11, 4)):
        # each pair costs about 1.2 s, so the seed picks one without moving
        # the pass time.
        pairs = [(0, 1), (3, 0), (4, 4)]
        count_pg, list_pg = (11, 5), (11, 4)
    c_count, c_list = rng.choice(pairs)
    out = [{"fn": fn, "args": list(args)} for fn, args in fixed]
    out.append({"fn": "census.count_parities", "args": [*count_pg, c_count]})
    out.append({"fn": "cli.census_list", "args": [*list_pg, c_list]})
    return out


WORKLOADS = {"verify": verify, "cyclotomic": cyclotomic, "tables": tables, "census": census}


def generate(name: str, seed: int, small: bool = False) -> list[dict]:
    """The op list of one workload for one seed."""
    ops = WORKLOADS[name](random.Random(f"{name}:{seed}"), small)
    keys = [(op["fn"], tuple(op["args"])) for op in ops]
    if len(set(keys)) != len(keys):
        raise ValueError(f"workload {name} repeats an op for seed {seed}")
    return ops
