"""Coefficient statistics: correlation power sums and residue counts.

``corr_sum`` computes sum_k prod_j c(k+j)^alpha_j exactly over Z or Z[t]
on an expanded product; window cells beyond the degree are exact zeros.
Each series runs one engine: ``corr_series`` the difference walk in
``walk``, one value per factor count, and ``residue_series`` the carry
automaton in ``carry``, which hands a series whose carries blow up to the
numpy stream in ``stream``.  Which engine a series runs on depends on the
spec, m and n_max alone, never on what the process has imported.  The
tests keep the expanded partial products as the small-depth oracle of all
three.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from . import carry, stream
from .errors import ResourceLimitError
from .polynomials import CoeffPoly, ProductSpec, TPoly
from .walk import corr_walk_series

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


def _window_product(cells: list, k: int, spec: CorrSpec):
    prod = 1
    for j in spec.active:
        c = cells[k + j]
        if not c:
            return 0
        prod = prod * (c ** spec.alpha[j])
    return prod


def corr_sum(p: CoeffPoly, spec: CorrSpec):
    """sum_{k >= 0} prod_j c(k+j)^{alpha_j}, exact over the scalar ring; only
    the k whose first window cell is nonzero are read."""
    first, top = spec.active[0], spec.active[-1]
    cells = p.dense_coefficients()
    ks = range(max(len(cells) - top, 0))
    total = 0
    for k in compress(ks, cells[first : first + len(ks)]):
        total = total + _window_product(cells, k, spec)
    return total


def corr_series(spec: ProductSpec, alpha: CorrSpec, n_max: int) -> list:
    """[v(0), ..., v(n_max)] where v(n) uses the n-factor partial product,
    from the difference walk (ints and Z[t] alike)."""
    return corr_walk_series(spec, alpha.alpha, n_max)


def residue_series(spec: ProductSpec, m: int, n_max: int) -> list[list[int]]:
    """Per n in 0..n_max, the counts [h(n, a) for a in 0..m-1] for the product.

    Needs integer coefficients (a prefactor coefficient that is a nonzero
    TPoly is symbolic).  The mod-m carry automaton may spend a quarter of
    the time the numpy stream would take on the series, numpy's import
    included (``carry.stream_budget``), or, when the stream would not fit the
    RGF_MAX_MEM_MB cap, on the deepest series it fits; both engines charge
    what they hold, returned rows included, to that cap.  Past its budget or
    the cap, the automaton hands the series to the stream if the stream
    fits, and else raises ResourceLimitError with ``limit_n`` the later of
    the two engines' first failing n, so that ``limit_n - 1`` runs.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    symbolic_prefactor = any(isinstance(c, TPoly) and c for c in spec.prefactor_coefficients())
    if symbolic_prefactor or not all(isinstance(aj, int) for aj in spec.a):
        raise ValueError("residue counts need integer coefficients; specialize t first")
    plan = stream.stream_plan(spec, m, n_max)
    budget = carry.stream_budget(sum(plan.lengths[: plan.limit]))
    try:
        return carry.carry_residue_series(spec, m, n_max, budget)
    except ResourceLimitError as err:
        if plan.limit is None:
            return stream.residue_series_fast(spec, m, n_max)
        raise ResourceLimitError(
            f"{err}, and the stream passes the RGF_MAX_MEM_MB cap at n = {plan.limit}",
            limit_n=max(err.limit_n, plan.limit),
        ) from err
