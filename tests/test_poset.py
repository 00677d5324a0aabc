import tracemalloc
from functools import partial
from itertools import combinations
from math import comb
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibgf.poset
from fibgf.config import Meter
from fibgf.errors import InvariantError, ResourceLimitError
from fibgf.polynomials import build_product, fibonacci_product_spec, stern_product_spec
from fibgf.poset import (
    POSET_ELEMENT_BYTES,
    FrontierAutomaton,
    PosetSlice,
    flag_vectors,
    frontier_grow,
    frontier_poset,
    label_sequence_checks,
    sigma_labels,
    upho_check,
)
from fibgf.sequences import fibonacci, prec_compare
from fibgf.triangle import triangle_rows


def test_rank_sizes(poset13):
    assert poset13.rank_sizes()[1:6] == [2, 4, 7, 12, 20]
    for n in range(1, 14):
        assert poset13.rank_sizes()[n] == fibonacci(n + 3) - 1


def test_chain_counts_equal_triangle_entries(poset13):
    counts = poset13.chain_counts()
    assert counts[3][3] == 2
    for n in range(1, 14):
        assert counts[n] == build_product(fibonacci_product_spec(n)).dense_coefficients()


def test_every_element_covered_by_two(poset13):
    # every element below the last built rank has the same child count
    degrees = {len(ch) for n in range(poset13.depth) for ch in poset13.children(n)}
    assert len(degrees) == 1


def test_sigma_invariants(poset13):
    res = sigma_labels(poset13, 13)
    # paper phase convention (zero first on even ranks) is among the survivors
    assert ("zero-first-even", "label-first-odd") in res["conventions_passing"]
    assert sorted(res["sequences"][1]) == [0, 1]
    assert sorted(res["sequences"][2]) == [0, 1, 2, 3]
    for n in range(1, 14):
        assert sorted(res["sequences"][n]) == list(range(fibonacci(n + 3) - 1))


def test_sigma_chain_counts_equal_subset_sum_oracle(poset13):
    res = sigma_labels(poset13, 10)
    counts = poset13.chain_counts()
    for n in range(1, 11):
        # independent oracle: brute-force subset sums of {F_2..F_{n+1}}
        from itertools import combinations as combos

        fibs = [fibonacci(i) for i in range(2, n + 2)]
        table = {}
        for size in range(len(fibs) + 1):
            for sub in combos(fibs, size):
                table[sum(sub)] = table.get(sum(sub), 0) + 1
        for k, sigma in enumerate(res["sequences"][n]):
            assert counts[n][k] == table.get(sigma, 0)


def test_sigma_rank3_element_with_sum_three_has_two_chains(poset13):
    res = sigma_labels(poset13, 3)
    labels = res["sequences"][3]
    counts = poset13.chain_counts()[3]
    k = labels.index(3)
    assert counts[k] == 2  # {3} and {1, 2}


def test_label_sequence_checks(poset13):
    res = sigma_labels(poset13, 12)
    checks = label_sequence_checks(res["sequences"], 12)
    assert checks["status"] == "pass"
    assert checks["subsequence_direction_pairs"]
    assert ("odd", "reversed") in [tuple(t) for t in checks["order_consistent"]]


def test_label_checks_expand_each_label_once(poset13, monkeypatch):
    import fibgf.poset

    sequences = sigma_labels(poset13, 13)["sequences"]
    calls = []
    real = fibgf.poset.zeckendorf
    monkeypatch.setattr(fibgf.poset, "zeckendorf", lambda n: calls.append(n) or real(n))
    checks = label_sequence_checks(sequences, 13)
    assert sorted(calls) == sorted({x for n in range(1, 14) for x in sequences[n]})
    assert [tuple(t) for t in checks["order_consistent"]] == [("odd", "reversed")]


def test_order_matches_prec(poset13):
    res = sigma_labels(poset13, 11)
    for n in range(1, 12):
        seq = res["sequences"][n][::-1]
        for a, b in zip(seq, seq[1:]):
            assert prec_compare(a, b) == -1


def test_flag_vectors(poset13):
    fv = flag_vectors(poset13, (1, 2))
    assert fv == {"alpha_dp": 4, "alpha_product": 4, "beta": -1}
    fv1 = flag_vectors(poset13, (1,))
    assert fv1["alpha_dp"] == 2 and fv1["beta"] == 1
    fv0 = flag_vectors(poset13, ())
    assert fv0 == {"alpha_dp": 1, "alpha_product": 1, "beta": 1}


def test_flag_alpha_product_formula(poset13):
    for size in range(0, 3):
        for S in combinations(range(1, 7), size):
            fv = flag_vectors(poset13, S)
            assert fv["alpha_dp"] == fv["alpha_product"], S


def test_flag_beta_fail_report_carries_flag_vectors(monkeypatch):
    import fibgf.checks

    # the check compares alpha per S and builds flag_vectors only to report a failure
    real = fibgf.checks.flag_alpha_product
    monkeypatch.setattr(fibgf.checks, "flag_alpha_product", lambda poset, S: real(poset, S) + (S == (2, 5)))
    rep = fibgf.checks.run_check("verify", "flag-beta")
    assert rep.status == "fail"
    assert rep.details == {"S": [2, 5], **flag_vectors(frontier_poset(2, 3, 6), (2, 5))}
    assert set(rep.details) == {"S", "alpha_dp", "alpha_product", "beta"}


def test_frontier_examples():
    g23 = frontier_grow(2, 3, 12)
    assert g23["q"] == [fibonacci(n + 3) - 1 for n in range(13)]
    assert g23["r"] == [fibonacci(n + 1) for n in range(1, 13)]
    g22 = frontier_grow(2, 2, 10)
    assert g22["q"] == list(range(1, 12))
    g32 = frontier_grow(3, 2, 10)
    assert g32["q"] == [2 ** (n + 1) - 1 for n in range(11)]
    assert g32["r"] == [2 ** (j - 1) for j in range(1, 11)]


def test_frontier_chain_counts_match_products():
    # the automaton's rows are the Fibonacci products at (2, 3), the Stern ones at (3, 2)
    for (i, b), product_spec, depth in (((2, 3), fibonacci_product_spec, 16), ((3, 2), stern_product_spec, 9)):
        auto = FrontierAutomaton(i, b)
        for n in range(1, depth + 1):
            auto.step()
            assert auto.counts.tolist() == build_product(product_spec(n)).dense_coefficients(), (i, b, n)


def test_frontier_grow_rejects_a_corrupted_row(monkeypatch):
    # every streamed block is checked against the row before it times the
    # rank's factor, on stored ranks and on the never-stored last rank alike
    real_blocks = FrontierAutomaton.blocks

    def corrupt(bad_rank):
        def blocks(self):
            for start, counts, gaps in real_blocks(self):
                if self.rank + 1 == bad_rank and start <= 2 < start + counts.shape[0]:
                    counts[2 - start] += 1
                yield start, counts, gaps

        return blocks

    def drop_last(self):  # a rank 8 that ends a block early
        blocks = list(real_blocks(self))
        yield from blocks[:-1] if self.rank + 1 == 8 else blocks

    for chunk in (1, 2, 3, 7):
        monkeypatch.setattr(fibgf.poset, "FRONTIER_BLOCK", chunk)
        for blocks, bad_rank in ((corrupt(5), 5), (corrupt(8), 8), (drop_last, 8)):
            monkeypatch.setattr(FrontierAutomaton, "blocks", blocks)
            for i, b in ((2, 3), (3, 2), (3, 3)):
                with pytest.raises(InvariantError) as err:
                    frontier_grow(i, b, 8)
                assert err.value.detail == bad_rank, (chunk, bad_rank, i, b)
            frontier_grow(2, 3, bad_rank - 1)  # the ranks before it pass


def test_phi_rgf_reports_the_first_wrong_factor(monkeypatch):
    # the rows equal the products exactly while r_j is the product's exponent
    import fibgf.checks

    real = fibgf.checks.frontier_grow
    for pair, j, want in (
        ((3, 2), 6, {"pair": [3, 2], "n": 6, "rows": "differ from the doubling product"}),
        ((2, 3), 4, {"pair": [2, 3], "n": 4}),
    ):

        def perturbed(i, b, n_max, pair=pair, j=j):
            grown = real(i, b, n_max)
            if (i, b) == pair:
                grown["r"][j - 1] += 1
            return grown

        monkeypatch.setattr(fibgf.checks, "frontier_grow", perturbed)
        rep = fibgf.checks.run_check("verify", "phi-rgf", nmax=10)
        assert (rep.status, rep.details) == ("fail", want), pair


def test_frontier_gap_bounds():
    auto = FrontierAutomaton(i=2, b=3)
    for _ in range(8):
        auto.step()
        assert all(1 <= g <= 2 for g in auto.gaps)
    with pytest.raises(ValueError):
        FrontierAutomaton(i=1, b=3)


def test_pascal_chain_counts_are_binomials():
    # C(66, 33) > 2^63: the rows must be exact Python ints
    auto = FrontierAutomaton(2, 2, object)
    for n in range(1, 71):
        auto.step()
        assert auto.counts.tolist() == [comb(n, k) for k in range(n + 1)], n
    # 2^70 >= 2^63, so frontier_grow checks these rows on the object path too
    assert frontier_grow(2, 2, 70)["q"] == list(range(1, 72))


def test_fixed_width_counts_refuse_to_wrap():
    # int64 would read 7.99e18 at rank 70, where C(70, 35) = 1.12e20: the
    # step to rank 63, the first whose bound 2^63 passes int64, refuses
    auto = FrontierAutomaton(2, 2)
    for _ in range(62):
        auto.step()
    assert auto.counts.max() == comb(62, 31)
    with pytest.raises(OverflowError):
        for _ in range(8):
            auto.step()
    assert auto.rank == 62
    narrow = FrontierAutomaton(3, 2, np.uint8)  # 2^7 = 128 fits, 2^8 does not
    for _ in range(7):
        narrow.step()
    with pytest.raises(OverflowError):
        narrow.step()


def _reference_frontier(i, b, n_max):
    """The per-element frontier automaton: per rank, (parents, child order, gaps)."""
    gaps, size, ranks = [], 1, []
    for rank in range(n_max):
        parents: list[tuple[int, ...]] = []
        order: list[list[int]] = [[] for _ in range(size)]
        new_gaps: list[int] = []
        for u in range(size):
            for s in range(i):
                if s == 0 and u > 0 and gaps[u - 1] == 1:
                    parents[-1] = parents[-1] + (u,)  # shared child closes the 2b-gon
                    order[u].append(len(parents) - 1)
                    continue
                if s == 0 and u > 0:
                    new_gaps.append(gaps[u - 1] - 1)
                elif s > 0:
                    new_gaps.append(b - 1)
                parents.append((u,))
                order[u].append(len(parents) - 1)
        if any(g < 1 or g > b - 1 for g in new_gaps):
            raise InvariantError("gap countdown out of range", detail=rank + 1)
        ranks.append((parents, [tuple(o) for o in order], new_gaps))
        gaps, size = new_gaps, len(parents)
    return ranks


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    i=st.integers(2, 4),
    b=st.integers(2, 5),
    n_max=st.integers(0, 7),
    chunk=st.sampled_from((1, 2, 3, 7, fibgf.poset.FRONTIER_BLOCK)),
    exact=st.booleans(),
)
def test_array_automaton_matches_per_element_reference(i, b, n_max, chunk, exact):
    # blocks of a few old elements put shared children on block boundaries;
    # the counts are exact ints or of the narrowest dtype frontier_grow takes
    dtype = np.dtype(object) if exact else np.min_scalar_type(i * 2**n_max // 2)
    ref = _reference_frontier(i, b, n_max)
    with patch.object(fibgf.poset, "FRONTIER_BLOCK", chunk):
        poset = frontier_poset(i, b, n_max)
        grown = frontier_grow(i, b, n_max)
        auto = FrontierAutomaton(i, b, dtype)
        counts = poset.chain_counts()
        assert grown["q"] == poset.rank_sizes() == [1] + [len(parents) for parents, _, _ in ref]
        assert auto.counts.tolist() == counts[0] == [1]
        for n, (parents, order, gaps) in enumerate(ref, 1):
            assert auto.step() is None
            assert auto.gaps.tolist() == gaps, n
            assert poset.parents[n] == parents, n
            assert [tuple(c) for c in poset.children(n - 1)] == order, n
            assert auto.counts.dtype == dtype and auto.counts.tolist() == counts[n], n


def test_frontier_grow_holds_two_rows():
    # rank 14 of P_{3,3} has 1,605,717 elements and is never stored: its
    # uint16 blocks stream past the check, so only rank 13's row and gaps
    # (1.8 MB), or ranks 12 and 13 during the step before, and one block's
    # temporaries are alive; a stored uint32 rank 14 alone would take 6.4 MB
    tracemalloc.start()
    try:
        frontier_grow(3, 3, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 10**6, peak



@pytest.mark.parametrize("i, b, n_max", [(3, 2, 16), (4, 2, 11), (5, 2, 9), (2, 3, 22)])
def test_frontier_grow_charges_what_is_alive_together(i, b, n_max, monkeypatch):
    # the cap's largest charge covers the traced peak, and does not count
    # what is never alive at once (a charge that summed every block
    # temporary read 2.2-2.3 times the peak at (3, 2, 16) and (4, 2, 11); one
    # that gave every block FRONTIER_BLOCK * i children, though for b = 2 about a third
    # are shared, read 1.7 times it at (4, 2, 11) and (5, 2, 9))
    charges = []

    class Recording(Meter):
        def charge(self, size, n):
            super().charge(size, n)
            charges.append(self.used)

    monkeypatch.setattr(fibgf.poset, "Meter", Recording)
    tracemalloc.start()
    try:
        frontier_grow(i, b, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < max(charges) <= 1.3 * peak, (peak, max(charges))

EDGES = [(4, b, 7) for b in range(2, 6)] + [(2, b, 16) for b in range(2, 6)] + [(3, 2, 16)]


@pytest.mark.parametrize("i, b, n_max", EDGES)
def test_counts_at_the_dtype_edge_match_exact_ints(i, b, n_max):
    # the check's bound i * 2^(n_max - 1) first passes uint8 at (4, b, 7), where
    # the counts' own bound 2^7 still fits it, and uint16 at (2, b, 16) and
    # (3, 2, 16); i = 4 passes uint16 at (4, b, 15), whose last rank has at
    # least 21.5M elements
    dtype = np.min_scalar_type(i * 2**n_max // 2)
    assert dtype.itemsize == 2 * np.min_scalar_type(i * 2 ** (n_max - 1) // 2).itemsize
    narrow, exact = FrontierAutomaton(i, b, dtype), FrontierAutomaton(i, b, object)
    for n in range(1, n_max + 1):
        narrow.step()
        exact.step()
        assert narrow.counts.tolist() == exact.counts.tolist(), n
    grown = frontier_grow(i, b, n_max)
    assert grown["q"][-1] == exact.size


def test_poset_elements_are_charged_by_size():
    # the cap charges POSET_ELEMENT_BYTES per element; the build stays under it
    tracemalloc.start()
    try:
        poset = frontier_poset(2, 3, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elements = sum(poset.rank_sizes())
    assert peak < POSET_ELEMENT_BYTES * elements, (peak, elements)


def test_frontier_cap_names_limiting_rank(monkeypatch):
    monkeypatch.setenv("RGF_MAX_MEM_MB", "1")
    for build in (partial(frontier_grow, 3, 3), partial(frontier_poset, 3, 3), partial(frontier_poset, 2, 3)):
        with pytest.raises(ResourceLimitError) as err:
            build(16)
        limit = err.value.limit_n
        assert limit is not None and 1 <= limit <= 16
        build(limit - 1)  # the ranks before it fit under the cap


def test_negative_depth_is_rejected():
    for build in (frontier_grow, frontier_poset):
        with pytest.raises(ValueError, match="n_max >= 0"):
            build(2, 3, -1)
    assert frontier_poset(2, 3, 0).parents == [[()]]


def _production_rule_poset(n_max):
    """The triangle poset from the production rule read off the marks: each new
    entry covers the entries it is summed from.  Returns (parents, children):
    children[n][j] lists the rank-(n+1) children of element j of rank n in
    planar left-to-right order."""
    parents: list[list[tuple[int, ...]]] = [[()], [(0,), (0,)]]
    children: list[list[tuple[int, ...]]] = [[(0, 1)]]
    marks = "fl"
    for _ in range(1, n_max):
        last = len(marks) - 1
        produced = []  # (the covers of each new entry, their marks), left to right
        if marks[0] == "f":
            produced.append((((0,), (0,)), "ml"))
        for k, mark in enumerate(marks):
            if mark == "m":
                produced.append((((k,), (k,)), "fl"))
            elif mark == "l" and k < last:
                produced.append((((k,), (k, k + 1), (k + 1,)), "fml"))
        if marks[-1] == "l":
            produced.append((((last,), (last,)), "fm"))
        rank_parents = [covers for group, _ in produced for covers in group]
        order: list[list[int]] = [[] for _ in marks]
        for child, covers in enumerate(rank_parents):
            for p in covers:
                order[p].append(child)
        parents.append(rank_parents)
        children.append([tuple(o) for o in order])
        marks = "".join(m for _, m in produced)
    return parents, children


def test_triangle_poset_is_the_production_rule_poset():
    parents, children = _production_rule_poset(18)
    for n in range(0, 19):
        poset = frontier_poset(2, 3, n)
        assert poset.parents == parents[: n + 1], n
        assert [[tuple(c) for c in poset.children(k)] for k in range(n)] == children[:n], n
    counts = PosetSlice(parents=parents).chain_counts()
    for n, row in enumerate(triangle_rows(18, 1), 1):
        assert counts[n] == list(row.entries), n


def test_upho_all_posets(poset13):
    assert upho_check(poset13, depth=4, max_rank=2)["status"] == "pass"
    for i, b in ((2, 2), (2, 3), (3, 2), (3, 3)):
        assert upho_check(frontier_poset(i, b, 6), depth=4, max_rank=2)["status"] == "pass", (i, b)


def test_upho_bottom_is_identity(poset13):
    rep = upho_check(poset13, depth=3, max_rank=0)
    assert rep["status"] == "pass"


def _graded_isomorphic(p1: PosetSlice, p2: PosetSlice) -> bool:
    """Rank-respecting isomorphism test by backtracking with parent keys, the
    oracle of ``upho_check``'s comparison of cover lists."""
    if p1.rank_sizes() != p2.rank_sizes():
        return False
    mapping: list[list[int | None]] = [[0]]

    def extend(rank: int) -> bool:
        if rank > p1.depth:
            return True
        pmap = mapping[rank - 1]
        keys1 = [tuple(sorted(pmap[p] for p in ps)) for ps in p1.parents[rank]]
        keys2 = [tuple(sorted(ps)) for ps in p2.parents[rank]]
        used = [False] * len(keys2)
        assign: list[int | None] = [None] * len(keys1)

        def backtrack(j: int) -> bool:
            if j == len(keys1):
                mapping.append(assign[:])
                if extend(rank + 1):
                    return True
                mapping.pop()
                return False
            for v, k2 in enumerate(keys2):
                if not used[v] and k2 == keys1[j]:
                    used[v] = True
                    assign[j] = v
                    if backtrack(j + 1):
                        return True
                    used[v] = False
                    assign[j] = None
            return False

        return backtrack(0)

    return extend(1)


def _scan_filter(poset: PosetSlice, rank: int, index: int, depth: int) -> PosetSlice:
    """The oracle of ``_extract_filter``: each rank scanned for elements
    covering one kept below."""
    keep: list[dict[int, int]] = [{index: 0}]
    parents: list[list[tuple[int, ...]]] = [[()]]
    for d in range(1, depth + 1):
        cur: dict[int, int] = {}
        rank_parents: list[tuple[int, ...]] = []
        for k, ps in enumerate(poset.parents[rank + d]):
            hit = tuple(keep[d - 1][p] for p in ps if p in keep[d - 1])
            if hit:
                cur[k] = len(rank_parents)
                rank_parents.append(hit)
        keep.append(cur)
        parents.append(rank_parents)
    return PosetSlice(parents=parents)


def _filter(poset: PosetSlice, rank: int, index: int, depth: int) -> PosetSlice:
    children = [poset.children(n) for n in range(rank + depth)]
    return fibgf.poset._extract_filter(poset, children, rank, index, depth)


@st.composite
def poset_slices(draw):
    """Graded posets with one bottom: each element covers a nonempty set of
    the rank below, not necessarily consecutive."""
    parents: list[list[tuple[int, ...]]] = [[()]]
    for _ in range(draw(st.integers(1, 4))):
        size = len(parents[-1])
        cover = st.sets(st.integers(0, size - 1), min_size=1, max_size=size).map(lambda ps: tuple(sorted(ps)))
        parents.append(draw(st.lists(cover, min_size=1, max_size=5)))
    return PosetSlice(parents=parents)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(poset_slices())
def test_filters_match_the_scanning_oracle(poset):
    for rank in range(poset.depth):
        for index in range(len(poset.parents[rank])):
            depth = poset.depth - rank
            assert _filter(poset, rank, index, depth).parents == _scan_filter(poset, rank, index, depth).parents


def test_upho_filters_are_planar_equal_and_isomorphic():
    # upho_check compares cover lists in planar order; on P_ib every filter is planar-equal to the
    # poset, and the isomorphism search agrees on each filter the check reads
    for i, b, n in ((2, 2, 8), (2, 3, 8), (3, 2, 8), (3, 3, 8), (4, 3, 6), (4, 3, 8), (2, 5, 8)):
        depth = n - 3
        assert upho_check(frontier_poset(i, b, n), depth=depth, max_rank=3)["status"] == "pass", (i, b)
    for i, b in ((2, 2), (2, 3), (3, 2), (3, 3)):
        poset = frontier_poset(i, b, 6)
        template = PosetSlice(parents=poset.parents[:5])
        for rank in range(3):
            for index in range(len(poset.parents[rank])):
                assert _graded_isomorphic(_filter(poset, rank, index, 4), template), (i, b)


def test_upho_reports_a_filter_whose_covers_differ():
    # rank 2 has a shared child, but no filter above a rank-1 element has one
    poset = PosetSlice(parents=[[()], [(0,), (0,)], [(0,), (0, 1), (1,)], [(0,), (0,), (1,), (2,), (2,)]])
    rep = upho_check(poset, depth=2, max_rank=1)
    assert rep["status"] == "fail"
    assert rep["failures"] == [{"rank": 1, "index": k, "profile": "covers differ"} for k in (0, 1)]
    template = PosetSlice(parents=poset.parents[:3])
    for k in (0, 1):
        assert not _graded_isomorphic(_filter(poset, 1, k, 2), template)


def test_dot_export(poset13):
    poset = frontier_poset(2, 3, 3)
    dot = poset.to_dot()
    assert dot.startswith("digraph")
    assert '"r0_0" -> "r1_0"' in dot
    assert dot.count("->") == sum(len(ps) for rank in poset.parents for ps in rank)
