"""Exact even/odd dimension counts for a family of prime-indexed representations.

Four independent computations of the same numbers live side by side:

* :mod:`tqftdims.census` enumerates admissible small colorings of a lollipop
  tree and classifies each as balanced or unbalanced;
* :mod:`tqftdims.recursion` grows the counts one handle at a time from exact
  two-point closed forms;
* :mod:`tqftdims.fusion` reads the counts off integer matrix powers in a
  truncated fusion ring, and again as Galois sums over Q(zeta_p);
* :mod:`tqftdims.polylab` reconstructs the counts as polynomials in the prime
  and the boundary color, with Bernoulli-number leading-term certificates.

All core arithmetic is exact (integers, fractions, cyclotomic numbers).
Floating point appears only in the CLI's estimate of a count's digits
(`cli._dims_digits`), which the `dims` size guard and `quadruple`'s refusal
of counts too long to print both read.
"""

from .census import count_parities
from .cyclotomic import CycNum
from .fusion import delta_via_matrix, galois_sum_delta, galois_sum_total, total_via_matrix
from .polylab import BiPoly, interpolate_delta, interpolate_total, residue_total_poly
from .recursion import DimTable, dim_table

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "CycNum",
    "DimTable",
    "__version__",
    "count_parities",
    "delta_via_matrix",
    "dim_table",
    "galois_sum_delta",
    "galois_sum_total",
    "interpolate_delta",
    "interpolate_total",
    "residue_total_poly",
    "total_via_matrix",
]
