"""Graded posets: the planar P_{ib} frontiers, edge labels and flag vectors.

``PosetSlice`` stores one graded poset truncated to finitely many ranks, as
parent-index tuples per element (rank 0 is the bottom element).  The planar
posets P_{ib}, where every element has ``i`` covers and consecutive covers
close a 2b-gon, are grown by a frontier automaton, whose countdowns alone
give every cover.  Indices run in planar left-to-right order within a rank;
that order drives the alternating edge labeling.  The poset the grouped
weight triangle generates is P_{2,3}: ``frontier_poset(2, 3, n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import eq, lt

from .config import PYOBJ_BYTES_PER_COEFF, Meter
from .errors import InvariantError
from .polynomials import fibonacci_product_spec, partial_products, product_block
from .sequences import fibonacci, prec_key, zeckendorf


@dataclass
class PosetSlice:
    """Ranks 0..depth of a graded poset with a single bottom element.

    ``parents[n][k]`` is the tuple of rank-(n-1) indices covered by element k
    of rank n.  Within a rank, index order is planar left-to-right order.
    """

    parents: list[list[tuple[int, ...]]]

    @property
    def depth(self) -> int:
        return len(self.parents) - 1

    def rank_sizes(self) -> list[int]:
        return [len(r) for r in self.parents]

    def chain_counts(self) -> list[list[int]]:
        """Number of saturated chains from the bottom to each element."""
        counts: list[list[int]] = [[1]]
        for n in range(1, len(self.parents)):
            prev = counts[-1]
            counts.append([sum(prev[p] for p in ps) for ps in self.parents[n]])
        return counts

    def children(self, n: int) -> list[list[int]]:
        """Children lists (rank n -> rank n+1 indices), each in index order,
        which is planar left-to-right order."""
        out: list[list[int]] = [[] for _ in self.parents[n]]
        for k, ps in enumerate(self.parents[n + 1]):
            for p in ps:
                out[p].append(k)
        return out

    def to_dot(self) -> str:
        lines = ["digraph poset {", "  rankdir=BT;"]
        for n, rank in enumerate(self.parents):
            for k, ps in enumerate(rank):
                lines.append(f'  "r{n}_{k}";')
                for p in ps:
                    lines.append(f'  "r{n - 1}_{p}" -> "r{n}_{k}";')
        lines.append("}")
        return "\n".join(lines)


# Footprint of one PosetSlice element: its list slot and its parent tuple,
# which an element's one-parent children share (tracemalloc peak per element:
# 39-78 bytes on P_ib with 8k-514k elements, the most on P_{2,3}).
POSET_ELEMENT_BYTES = 90
# What a frontier_grow step holds besides its arrays (frames, array headers,
# numpy's cache of small freed buffers): tracemalloc read up to 12 KB.
FRONTIER_STEP_BYTES = 32 * 1024
# Old elements per block of a frontier step and its row check.
FRONTIER_BLOCK = 1 << 16


# -- sigma edge labels --------------------------------------------------------

PHASE_CONVENTIONS = (
    ("zero-first-even", "label-first-odd"),
    ("zero-first-even", "zero-first-odd"),
    ("label-first-even", "label-first-odd"),
    ("label-first-even", "zero-first-odd"),
)


def _phase_starts_with_zero(convention: tuple[str, str], rank: int) -> bool:
    tag = convention[0] if rank % 2 == 0 else convention[1]
    return tag.startswith("zero")


def _assign_sigma(poset: PosetSlice, n_max: int, convention) -> list[list[int]] | None:
    """sigma per element, or None if chains disagree under this convention."""
    sigma: list[list[int]] = [[0]]
    for n in range(0, n_max):
        label_value = fibonacci(n + 2)
        next_sigma: list[int | None] = [None] * len(poset.parents[n + 1])
        zero_first = _phase_starts_with_zero(convention, n)
        for j, child_pair in enumerate(poset.children(n)):
            labels = (0, label_value) if zero_first else (label_value, 0)
            for child, lab in zip(child_pair, labels):
                value = sigma[n][j] + lab
                if next_sigma[child] is None:
                    next_sigma[child] = value
                elif next_sigma[child] != value:
                    return None
        if any(v is None for v in next_sigma):
            return None
        sigma.append(next_sigma)  # type: ignore[arg-type]
    return sigma


def _rank_holds(labels: list[int], chains: list[int], counts: list[int]) -> bool:
    """Whether a rank's labels are exactly 0..deg of its product and each
    element's chain count is the product's coefficient at its label."""
    return sorted(labels) == list(range(len(counts))) and all(map(eq, chains, map(counts.__getitem__, labels)))


def sigma_labels(poset: PosetSlice, n_max: int) -> dict:
    """Assign and verify the alternating edge labeling up to rank n_max.

    Tries the four phase conventions (which of an element's two child edges
    carries the zero label, per rank parity), keeps those for which all
    chains to an element share one sum, the rank-n labels are exactly
    {0..F_{n+3}-2}, and the chain count of each element equals the number of
    subsets of {F_2..F_{n+1}} with that sum, read off the Fibonacci partial
    products.  Raises InvariantError if no convention survives.
    """
    if n_max > poset.depth:
        raise ValueError("poset not built deep enough")
    chain_counts = poset.chain_counts()
    sigmas = {c: sigma for c in PHASE_CONVENTIONS if (sigma := _assign_sigma(poset, n_max, c)) is not None}
    # the n-factor Fibonacci product counts the subsets of {F_2..F_{n+1}} by their sum
    products = partial_products(fibonacci_product_spec(n_max))
    next(products)
    for n, product in enumerate(products, 1):
        counts = product.dense_coefficients()
        sigmas = {c: sigma for c, sigma in sigmas.items() if _rank_holds(sigma[n], chain_counts[n], counts)}
    if not sigmas:
        raise InvariantError("no edge-label phase convention satisfies the sigma invariants")
    convention, sigma = next(iter(sigmas.items()))
    return {
        "convention": convention,
        "conventions_passing": list(sigmas),
        "sigma": sigma,
        "sequences": {n: list(sigma[n]) for n in range(1, n_max + 1)},
    }


def _is_subsequence(short: list[int], long: list[int]) -> bool:
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


def label_sequence_checks(sequences: dict[int, list[int]], n_max: int) -> dict:
    """Subsequence and order-consistency checks on the per-rank label sequences.

    Reports which reading-direction pair makes S(n) a subsequence of S(n+1)
    for every n < n_max, and which reading direction of S(n) is sorted under
    each Zeckendorf sentinel convention.
    """
    directions = ("forward", "reversed")

    def read(n: int, direction: str) -> list[int]:
        return sequences[n] if direction == "forward" else sequences[n][::-1]

    direction_pairs = [
        (d1, d2)
        for d1 in directions
        for d2 in directions
        if all(_is_subsequence(read(n, d1), read(n + 1, d2)) for n in range(1, n_max))
    ]
    reps = {x: zeckendorf(x) for x in {x for n in range(1, n_max + 1) for x in sequences[n]}}
    keys = {parity: {x: prec_key(rep, parity) for x, rep in reps.items()} for parity in ("even", "odd")}
    order_matches = [
        (parity, d)
        for parity in ("even", "odd")
        for d in directions
        if all(
            all(map(lt, ks, ks[1:]))
            for ks in (list(map(keys[parity].__getitem__, read(n, d))) for n in range(1, n_max + 1))
        )
    ]
    return {
        "subsequence_direction_pairs": direction_pairs,
        "order_consistent": order_matches,
        "status": "pass" if direction_pairs and order_matches else "fail",
    }


# -- flag vectors -------------------------------------------------------------

def _reach_masks(poset: PosetSlice, lo: int, hi: int) -> list[int]:
    """For each element at rank lo, a bitmask of elements >= it at rank hi."""
    masks = [1 << k for k in range(len(poset.parents[hi]))]
    for n in range(hi - 1, lo - 1, -1):
        nxt = [0] * len(poset.parents[n])
        for k, ps in enumerate(poset.parents[n + 1]):
            for p in ps:
                nxt[p] |= masks[k]
        masks = nxt
    return masks


def flag_alpha_dp(poset: PosetSlice, ranks: tuple[int, ...]) -> int:
    """Number of chains hitting exactly the given ranks, by comparability DP."""
    if not ranks:
        return 1
    weights = [1] * len(poset.parents[ranks[0]])
    for lo, hi in zip(ranks, ranks[1:]):
        masks = _reach_masks(poset, lo, hi)
        nxt = [0] * len(poset.parents[hi])
        for u, w in enumerate(weights):
            if not w:
                continue
            m = masks[u]
            while m:
                v = (m & -m).bit_length() - 1
                nxt[v] += w
                m &= m - 1
        weights = nxt
    return sum(weights)


def flag_alpha_product(poset: PosetSlice, ranks: tuple[int, ...]) -> int:
    """q_{r1} q_{r2-r1} ... from the rank sizes (the upho product formula)."""
    sizes = poset.rank_sizes()
    total = 1
    prev = 0
    for r in ranks:
        total *= sizes[r - prev]
        prev = r
    return total


def flag_vectors(poset: PosetSlice, ranks) -> dict:
    """alpha by chain-count DP and by the product formula, and beta.

    beta(S) = sum over subsets T of S of (-1)^{|S - T|} alpha(T), computed
    from the DP alphas.
    """
    S = tuple(sorted(ranks))
    if S and S[-1] > poset.depth:
        raise ValueError("rank set exceeds built depth")
    alpha_dp = flag_alpha_dp(poset, S)
    alpha_prod = flag_alpha_product(poset, S)
    beta = 0
    for size in range(len(S) + 1):
        for T in combinations(S, size):
            term = flag_alpha_dp(poset, T)
            beta += term if (len(S) - size) % 2 == 0 else -term
    return {"alpha_dp": alpha_dp, "alpha_product": alpha_prod, "beta": beta}


# -- planar i-cover frontier automaton ----------------------------------------
# numpy is imported on first use, so that ``import fibgf`` stays numpy-free.

class FrontierAutomaton:
    """Grows the planar poset where every element has ``i`` covers and
    consecutive covers of an element extend to a 2b-gon.

    The state is the frontier, the current top rank, as two arrays:
    ``counts[u]``, the number of saturated chains from the bottom to element
    u, and ``gaps[u - 1]``, the countdown in [1, b-1] between elements u - 1
    and u.  A step gives every element i children, siblings separated by
    countdown b-1; the first child of u >= 1 takes countdown gaps[u-1] - 1
    from its left.  A countdown of 0 means the last child of u - 1 and the
    first child of u are one shared child, which closes the 2b-gon.

    ``blocks`` is the one step kernel: it yields the next rank block by
    block, and ``step`` collects the blocks into the new frontier.

    ``counts`` has the given numpy dtype (int64 by default; ``frontier_grow``
    takes the narrowest that holds i * 2**(n_max - 1), ``object`` past
    uint64).  A child has at most two parents: only a shared child has two,
    and as both the last child of u - 1 and the first of u it cannot also be
    shared with u + 1 (u has i >= 2 children).  So a count at rank n is at
    most twice the largest at rank n - 1, that is at most 2**n, and
    ``blocks`` raises OverflowError before a fixed-width dtype could pass
    that bound.  ``gaps`` has the narrowest signed dtype that holds b (int8
    for b <= 128).
    """

    def __init__(self, i: int, b: int, dtype=None):
        if i < 2 or b < 2:
            raise ValueError("need i >= 2 and b >= 2")
        import numpy as np

        self.i, self.b, self.rank = i, b, 0
        self.counts = np.ones(1, dtype=np.int64 if dtype is None else dtype)
        self.gaps = np.zeros(0, dtype=np.min_scalar_type(-b))

    @property
    def size(self) -> int:
        return self.counts.shape[0]

    def block_sizes(self) -> list[int]:
        """The number of children each block of ``blocks`` yields, one block
        of ``FRONTIER_BLOCK`` old elements at a time: i per old element, less
        one per countdown of 1 after it (its last child is also the next
        element's first, and is yielded with that one).  Their sum is the
        size of the next rank."""
        import numpy as np

        n, chunk = self.size, FRONTIER_BLOCK
        return [
            min(chunk, n - lo) * self.i - int(np.count_nonzero(self.gaps[lo : lo + chunk] == 1))
            for lo in range(0, n, chunk)
        ]

    def blocks(self):
        """Yield the next rank as (start, counts, gaps) blocks in index order,
        one per ``FRONTIER_BLOCK`` old elements: the block's children from new
        index ``start`` on, and the countdown before each (b - 1 before child
        0, which has none).  The last child of a block that is also the first
        child of the next block's first element is held back and opens that
        block, so every yielded count is complete."""
        import numpy as np

        n, i, b, chunk = self.size, self.i, self.b, FRONTIER_BLOCK
        dtype = self.counts.dtype
        if dtype.kind in "iu" and 2 ** (self.rank + 1) > np.iinfo(dtype).max:
            raise OverflowError(f"chain counts at rank {self.rank + 1} may pass {dtype}; pass dtype=object")
        start, held = 0, None  # held: the count so far of a child held back for the next block
        for lo in range(0, n, chunk):
            # the countdown before u's first child; 0 makes it the last child of u - 1
            before = np.full(min(chunk, n - lo), b - 1, dtype=self.gaps.dtype)
            before[int(lo == 0) :] = self.gaps[max(lo - 1, 0) : lo + chunk - 1] - 1
            if before.min() < 0 or before.max() > b - 1:
                raise InvariantError("gap countdown out of range", detail=self.rank + 1)
            counts, gaps = self._children(self.counts[lo : lo + chunk], before, held)
            if lo + chunk < n and self.gaps[lo + chunk - 1] == 1:
                held, counts, gaps = counts[-1], counts[:-1], gaps[:-1]
            yield start, counts, gaps
            start += counts.shape[0]

    def _children(self, block, before, held):
        """The children of a block of old elements in index order, and the
        countdown before each.  A countdown of 0 before the block's first
        element makes its first child the ``held`` one.  Apart from
        ``blocks`` so that the index array is freed before a block is
        yielded."""
        import numpy as np

        i, b = self.i, self.b
        shared = before == 0
        # the index of u's first child, counted from the held child on, is i - shared[u] past u - 1's
        # first: one int64 array, shifted in place to each later sibling and back
        first = np.subtract(i, shared, dtype=np.int64)
        np.cumsum(first, out=first)
        first -= first[0]
        counts = np.zeros(int(first[-1]) + i, block.dtype)
        if shared[0]:
            counts[0] = held
        for _ in range(1, i):
            first += 1
            counts[first] = block
        first -= i - 1
        counts[first] += block  # a shared child adds to a written last child
        gaps = np.full(counts.shape[0], b - 1, before.dtype)
        gaps[first] = np.where(shared, b - 1, before)  # a shared child keeps its left sibling's countdown
        return counts, gaps

    def step(self, blocks=None) -> None:
        """Advance one rank: collect ``blocks`` (by default ``self.blocks()``;
        ``frontier_grow`` passes them through its row check) into arrays
        sized for the new rank."""
        import numpy as np

        size = sum(self.block_sizes())
        counts = np.empty(size, self.counts.dtype)
        gaps = np.empty(size, self.gaps.dtype)  # gaps[k] sits before child k; gaps[0] is unused
        for start, block_counts, block_gaps in self.blocks() if blocks is None else blocks:
            counts[start : start + block_counts.shape[0]] = block_counts
            gaps[start : start + block_gaps.shape[0]] = block_gaps
        self.counts, self.gaps, self.rank = counts, gaps[1:], self.rank + 1


def _check_n_max(n_max: int):
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")


def _checked_blocks(automaton: FrontierAutomaton, r: int):
    """Pass on the automaton's next-rank blocks, each checked against the
    current row times 1 + x^r + ... + x^{(i-1) r} (``product_block``);
    InvariantError with the new rank as detail if a block differs or the
    blocks do not end where that product does."""
    import numpy as np

    prev, n = automaton.counts, automaton.rank + 1
    terms = [(1, s * r) for s in range(1, automaton.i)]
    end = 0
    for start, counts, gaps in automaton.blocks():
        stop = start + counts.shape[0]
        if start != end or not np.array_equal(product_block(prev, terms, start, stop), counts):
            raise InvariantError("chain-count row differs from the product identity", detail=n)
        end = stop
        yield start, counts, gaps  # the product is freed before the yield
    if end != prev.shape[0] + terms[-1][1]:
        raise InvariantError("chain-count row differs from the product identity", detail=n)


def frontier_grow(i: int, b: int, n_max: int) -> dict:
    """Grow P_{ib} to rank n_max; verify its counting identities.

    Returns the rank sizes q and the derived r_n = (q_n - q_{n-1}) / (i - 1).
    No element and no chain-count row outlives its rank: each rank streams
    out of ``FrontierAutomaton.blocks`` and every block is checked against
    the row before it times 1 + x^{r_n} + ... + x^{(i-1) r_n} as it passes,
    so row n equals prod_{j<=n} (1 + x^{r_j} + ... + x^{(i-1) r_j}).  A rank
    is stored only when another step follows, so the last rank is never
    held whole.  The counts take the narrowest dtype that holds
    i * 2**(n_max - 1) (uint16 at (3, 3) and n_max = 14, exact Python ints
    past uint64): a count at rank n is at most 2**n, since a child has at
    most two parents, so a sum of i shifted entries of row n - 1 cannot
    wrap, whatever row n holds.  Raises InvariantError if q_n != i q_{n-1} -
    (i-1) q_{n-b} (q_n = i^n below b; the recurrence makes q rise and i - 1
    divide q_n - q_{n-1}) or if a row breaks the product identity, with
    detail n; ResourceLimitError(limit_n=n) when rank n would pass the
    RGF_MAX_MEM_MB cap, which charges the previous row, the new row unless
    it is the last, their gap arrays, and the block arrays that are alive
    together (each block's at their most, with the block before it, sized
    by ``FrontierAutomaton.block_sizes``); and
    ValueError for a negative n_max.
    """
    import numpy as np

    _check_n_max(n_max)
    dtype = np.min_scalar_type(i * 2**n_max // 2)  # i * 2**(n_max - 1) as an int, also at n_max = 0
    automaton = FrontierAutomaton(i, b, dtype)
    count_bytes = PYOBJ_BYTES_PER_COEFF if dtype == object else dtype.itemsize
    gap_bytes = automaton.gaps.itemsize
    meter = Meter("frontier rows")
    q, r = [1], []
    for n in range(1, n_max + 1):
        sizes = automaton.block_sizes()
        q.append(sum(sizes))
        # per block, the arrays alive together: the countdowns before its old elements and its
        # counts; while it is built, per old element an int64 child index and a mask, then either
        # the fancy-indexed sum's counts or the children's countdowns and np.where's; while it is
        # checked, per child its countdown, the product and the comparison; past the first block,
        # the block before, referenced until this one is yielded.  A block's children are its
        # size in ``sizes`` and the child it may hold back for the next block.
        block = held = 0
        for lo, size in zip(range(0, q[n - 1], FRONTIER_BLOCK), sizes):
            old, kids = min(FRONTIER_BLOCK, q[n - 1] - lo), size + 1
            built = old * 9 + max(old * count_bytes, (kids + old) * gap_bytes)
            checked = kids * (gap_bytes + count_bytes + 1)
            block = max(block, held + old * gap_bytes + kids * count_bytes + max(built, checked))
            held = kids * (count_bytes + gap_bytes)
        kept = q[n - 1] + (q[n] if n < n_max else 0)
        meter.charge(kept * (count_bytes + gap_bytes) + block + FRONTIER_STEP_BYTES - meter.used, n)
        if q[n] != (i**n if n < b else i * q[n - 1] - (i - 1) * q[n - b]):
            raise InvariantError("rank sizes fail the q-recurrence", detail=n)
        r.append((q[n] - q[n - 1]) // (i - 1))
        rows = _checked_blocks(automaton, r[-1])
        if n < n_max:
            automaton.step(rows)
        else:
            for _ in rows:
                pass
    return {"q": q, "r": r}


def frontier_poset(i: int, b: int, n_max: int) -> PosetSlice:
    """P_{ib} on ranks 0..n_max as a PosetSlice, from the frontier automaton.

    Old element u gets i consecutive children; where the countdown before u
    is 1, u's first child is also the last child of u - 1 and covers both.
    P_{2,3} is the triangle poset.  Raises ResourceLimitError(limit_n=n) when
    the elements up to rank n would pass the RGF_MAX_MEM_MB cap, and
    ValueError for a negative n_max.
    """
    _check_n_max(n_max)
    automaton = FrontierAutomaton(i, b)
    parents: list[list[tuple[int, ...]]] = [[()]]
    kept = 1
    meter = Meter("poset elements")
    for n in range(1, n_max + 1):
        meter.charge((kept + automaton.size * i) * POSET_ELEMENT_BYTES - meter.used, n)
        rank: list[tuple[int, ...]] = [(0,)] * i
        for u, gap in enumerate(automaton.gaps.tolist(), 1):
            both = gap == 1
            if both:
                rank[-1] += (u,)
            rank += [(u,)] * (i - both)
        automaton.step()
        parents.append(rank)
        kept += len(rank)
    return PosetSlice(parents=parents)


# -- upho self-similarity ------------------------------------------------------

def _extract_filter(poset: PosetSlice, children: list, rank: int, index: int, depth: int) -> PosetSlice:
    """The subposet of elements >= the given element, truncated to ``depth``
    ranks (``children[n]`` is ``poset.children(n)``): each of its ranks is
    the union of the children of its rank below, in index order."""
    keep: dict[int, int] = {index: 0}
    parents: list[list[tuple[int, ...]]] = [[()]]
    for n in range(rank + 1, rank + depth + 1):
        below = children[n - 1]
        cur: dict[int, int] = {}
        rank_parents: list[tuple[int, ...]] = []
        for k in sorted({c for p in keep for c in below[p]}):
            cur[k] = len(rank_parents)
            rank_parents.append(tuple(keep[p] for p in poset.parents[n][k] if p in keep))
        keep = cur
        parents.append(rank_parents)
    return PosetSlice(parents=parents)


def upho_check(poset: PosetSlice, depth: int, max_rank: int = 2) -> dict:
    """Check dual order ideals look like the whole poset, to the given depth.

    For every element of rank <= max_rank, the filter above it (truncated to
    ``depth`` ranks) must have the same rank profile as the poset itself and
    the same cover lists, in planar order, as its truncation.  Equal cover
    lists are an isomorphism, so a filter that passes is isomorphic to the
    truncation.

    On P_ib (``frontier_poset``) every filter passes.  The filter above u is
    an interval of each rank, since the children of consecutive elements are
    consecutive.  Inside it, siblings get countdown b - 1 and a first child
    gets the countdown between its parent and the parent's left neighbour,
    minus 1; the countdowns at the interval's two ends lead outside it and
    make a shared end child covered by one element of the filter only, as
    the first and last children of a rank are in the poset.  So the
    countdowns inside the interval evolve exactly as the poset's do from its
    bottom, rank by rank, and since a countdown of 0 is exactly a shared
    child, the cover lists are equal.
    """
    if max_rank + depth > poset.depth:
        raise ValueError("poset not built deep enough for this check")
    template = poset.parents[: depth + 1]
    profile = [len(r) for r in template]
    children = [poset.children(n) for n in range(max_rank + depth)]
    failures = []
    for rank in range(0, max_rank + 1):
        for index in range(len(poset.parents[rank])):
            sub = _extract_filter(poset, children, rank, index, depth)
            if sub.rank_sizes() != profile:
                failures.append({"rank": rank, "index": index, "profile": sub.rank_sizes()})
            elif sub.parents != template:
                failures.append({"rank": rank, "index": index, "profile": "covers differ"})
    return {"status": "pass" if not failures else "fail", "depth": depth, "failures": failures}
