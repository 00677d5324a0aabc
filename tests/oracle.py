"""The small-depth oracle: correlation and residue series read off every
expanded partial product, independent of the walk, the carry automaton and
the residue stream."""

from collections import Counter
from dataclasses import replace

from fibgf.polynomials import ProductSpec, partial_products
from fibgf.stats import CorrSpec, corr_sum


def pure_corr_series(spec: ProductSpec, alpha: CorrSpec, n_max: int) -> list:
    """[v(0), ..., v(n_max)], one ``corr_sum`` per partial product."""
    return [corr_sum(poly, alpha) for poly in partial_products(replace(spec, n=n_max))]


def pure_residue_series(spec: ProductSpec, m: int, n_max: int) -> list[list[int]]:
    """Per n in 0..n_max, how many coefficients of x^0..x^deg of the n-factor
    partial product lie in each class mod m; integer coefficients only."""
    out = []
    for poly in partial_products(replace(spec, n=n_max)):
        classes = Counter(c % m for c in poly.dense_coefficients())
        out.append([classes[a] for a in range(m)])
    return out
