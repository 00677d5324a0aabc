"""Coefficient statistics: correlation power sums and residue counts.

``corr_sum`` computes sum_k prod_j c(k+j)^alpha_j exactly over Z or Z[t];
window cells beyond the degree are exact zeros and annihilate the product.
``corr_series`` gives those sums along a growing product, one value per
factor count, from the difference walk in ``walk``; ``residue_series``
counts residue classes with the carry automaton in ``carry``, and hands a
series whose carries blow up to the numpy stream in ``stream``.  Expanding
the product here stays as the small-depth oracle of all three.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .errors import ResourceLimitError
from .polynomials import CoeffPoly, ProductSpec, partial_products
from .walk import corr_walk_series

_INTEGER_ONLY = "residue counts need integer coefficients; specialize t first"


@dataclass(frozen=True)
class CorrSpec:
    """Window exponents (alpha_0, ..., alpha_{m-1}) of a correlation sum."""

    alpha: tuple[int, ...]

    def __post_init__(self):
        if not self.alpha:
            raise ValueError("alpha must be nonempty")
        if any(a < 0 for a in self.alpha):
            raise ValueError("alpha entries must be nonnegative")
        if not any(self.alpha):
            raise ValueError("alpha must contain a positive entry")

    @property
    def active(self) -> list[int]:
        """Offsets j with alpha_j > 0."""
        return [j for j, a in enumerate(self.alpha) if a > 0]


def _window_product(p: CoeffPoly, k: int, spec: CorrSpec):
    prod = 1
    for j in spec.active:
        c = p.coeff(k + j)
        if not c:
            return 0
        prod = prod * (c ** spec.alpha[j])
    return prod


def corr_sum(p: CoeffPoly, spec: CorrSpec):
    """sum_{k >= 0} prod_j c(k+j)^{alpha_j}, exact over the scalar ring."""
    top = spec.active[-1]
    total = 0
    for k in range(max(0, p.base - top), p.degree - top + 1):
        total = total + _window_product(p, k, spec)
    return total


def corr_series(spec: ProductSpec, alpha: CorrSpec, n_max: int, engine: str = "auto") -> list:
    """[v(0), ..., v(n_max)] where v(n) uses the n-factor partial product.

    ``engine``: "auto" runs the difference walk (ints and Z[t] alike);
    "pure" expands every partial product, the small-depth oracle.
    """
    if engine == "auto":
        return corr_walk_series(spec, alpha.alpha, n_max)
    if engine != "pure":
        raise ValueError(f"unknown engine {engine!r}")
    return [corr_sum(poly, alpha) for poly in partial_products(replace(spec, n=n_max))]


def _residue_classes(p: CoeffPoly, m: int) -> Counter:
    """How many k in [0, deg p] have c(k) in each residue class mod m, in one
    pass over the coefficients; integer coefficients only."""
    values = Counter(p._list)
    classes: Counter = Counter()
    for c, count in values.items():
        classes[c % m] += count
    classes[0] += (p.degree + 1) - values.total()  # the zeros below p.base
    return classes


def residue_series(spec: ProductSpec, m: int, n_max: int, engine: str = "auto") -> list[list[int]]:
    """Per n in 0..n_max, the counts [h(n, a) for a in 0..m-1] for the product.

    ``engine``: "auto" runs the mod-m carry automaton, and "pure" expands
    every partial product, the small-depth oracle.  Both need integer
    coefficients.  The automaton may spend a quarter of the time the numpy
    stream would take on the series (``carry.stream_budget``), or, when the
    stream would not fit the RGF_MAX_MEM_MB cap, on the deepest series it
    fits; both engines store under that cap.  Past its budget or the cap, the
    automaton hands the series to the stream if the stream fits, and else
    raises ResourceLimitError with ``limit_n`` the later of the two engines'
    first failing n, so that ``limit_n - 1`` runs.
    """
    if engine not in ("auto", "pure"):
        raise ValueError(f"unknown engine {engine!r}")
    if m < 2:
        raise ValueError("need m >= 2")
    symbolic_prefactor = spec.prefactor is not None and spec.prefactor.has_symbolic_coeffs()
    if symbolic_prefactor or not all(isinstance(aj, int) for aj in spec.a):
        raise ValueError(_INTEGER_ONLY)
    full = replace(spec, n=n_max)
    if engine == "auto":
        from . import carry, stream

        plan = stream.stream_plan(full, m, n_max)
        budget = carry.stream_budget(sum(plan.lengths[: plan.limit]))
        try:
            return carry.carry_residue_series(full, m, n_max, budget, plan.factors)
        except ResourceLimitError as err:
            if plan.limit is None:
                return stream.residue_series_fast(full, m, n_max, plan)
            limit = max(err.limit_n, plan.limit)
            raise ResourceLimitError(
                f"{err}, and the stream passes the RGF_MAX_MEM_MB cap at n = {plan.limit}",
                limit_n=limit,
            ) from err
    out: list[list[int]] = []
    for poly in partial_products(full):
        classes = _residue_classes(poly, m)
        out.append([classes[a] for a in range(m)])
    return out
