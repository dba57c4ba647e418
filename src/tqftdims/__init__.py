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

The package root holds only `__version__`: every name is imported from
its module (`from tqftdims import recursion`, then
`recursion.dim_table`), so importing one route loads only that route and
what it builds on.
"""

__version__ = "0.1.0"
