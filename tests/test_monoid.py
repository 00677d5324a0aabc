from itertools import accumulate
from itertools import product as iproduct

import pytest

import fibgf.checks
import fibgf.monoid
from fibgf.checks import run_check
from fibgf.errors import InvariantError, ResourceLimitError
from fibgf.monoid import (
    MonoidWord,
    _weights,
    balanced_cut_positions,
    closed_form_census_series,
    free_factorize,
    generator_census_series,
    generator_lemma_failure,
    generators,
    is_generator,
    move_connectivity,
    transfer_series,
    word_classes,
)
from fibgf.polynomials import TPoly, build_product, fibonacci_product_spec, kbonacci_product_spec
from fibgf.stats import CorrSpec, corr_series


ENUMERATION_CAPS = {2: 13, 3: 10}


def enumerate_elements(k: int, r: int, n: int) -> list[MonoidWord]:
    """Oracle: all r-tuples of length-n rows with equal weighted sums, by
    pruned DFS, capped at the lengths in ``ENUMERATION_CAPS``.

    The DFS fills positions from the largest weight (position n - 1) down and
    carries the vector of weight differences against row 0; a branch is cut
    as soon as a difference exceeds the total weight of the positions below.
    """
    limit = ENUMERATION_CAPS.get(r, 8)
    if n > limit:
        raise ResourceLimitError(f"enumeration capped at n = {limit} for r = {r}", limit_n=n)
    w = _weights(k, n)
    below = [0] * (n + 1)
    for i in range(n):
        below[i + 1] = below[i] + w[i]
    columns = [tuple((c >> j) & 1 for j in range(r)) for c in range(1 << r)]
    out: list[MonoidWord] = []
    rows = [[0] * n for _ in range(r)]

    def walk(pos: int, diffs: tuple[int, ...]):
        # positions 0..pos-1 are still free; the pruning leaves diffs all 0 at pos 0
        if pos == 0:
            out.append(MonoidWord(tuple(tuple(row) for row in rows), k))
            return
        pos -= 1
        rest = below[pos]
        wi = w[pos]
        for col in columns:
            nd = tuple(d + (col[0] - col[j + 1]) * wi for j, d in enumerate(diffs))
            if all(abs(d) <= rest for d in nd):
                for j in range(r):
                    rows[j][pos] = col[j]
                walk(pos, nd)

    walk(n, (0,) * (r - 1))
    return out


def reference_count(word):
    """Factorizations into generators, trying a piece (of a generator's length
    1 + jk) that ends at every position, balanced cut or not.  It reads
    ``is_generator`` through the module, so a patch of it applies here too."""
    ways = [1] + [0] * word.length
    for stop in range(1, word.length + 1):
        for start in range(stop - 1, -1, -word.k):
            if not ways[start]:
                continue
            piece = MonoidWord(tuple(row[start:stop] for row in word.rows), word.k)
            if fibgf.monoid.is_generator(piece):
                ways[stop] += ways[start]
    return ways[word.length]


def test_enumeration_counts_match_squared_sums():
    assert [len(enumerate_elements(2, 2, n)) for n in range(6)] == [1, 2, 4, 10, 24, 60]
    assert len(enumerate_elements(2, 2, 0)) == 1
    # the walk's square sums, which freegen takes as the element counts
    for k in (2, 3):
        v2 = corr_series(kbonacci_product_spec(k, 0), CorrSpec((2,)), 9)
        assert [len(enumerate_elements(k, 2, n)) for n in range(10)] == v2, k


def test_enumeration_matches_brute_force():
    cases = [(k, 2, n) for k in (2, 3) for n in range(0, 7)] + [(2, 3, n) for n in range(0, 6)]
    for k, r, n in cases:
        got = sorted(w.rows for w in enumerate_elements(k, r, n))
        w = _weights(k, n)
        brute = [
            rows
            for rows in iproduct(iproduct((0, 1), repeat=n), repeat=r)
            if len({sum(a * b for a, b in zip(row, w)) for row in rows}) == 1
        ]
        assert got == sorted(brute), (k, r, n)


def test_enumeration_triples():
    # r = 3 counts equal the cube sums
    v3 = corr_series(fibonacci_product_spec(0), CorrSpec((3,)), 7)
    assert [len(enumerate_elements(2, 3, n)) for n in range(8)] == v3


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_elements(2, 2, 14)
    with pytest.raises(ResourceLimitError):
        enumerate_elements(2, 3, 11)


def test_shape_example_element():
    els = enumerate_elements(2, 2, 3)
    assert any(w.rows == ((1, 1, 0), (0, 0, 1)) for w in els)


def test_generators_census():
    g = generators(2, 7)
    by_len = {}
    for w in g:
        by_len[w.length] = by_len.get(w.length, 0) + 1
    assert by_len == {1: 2, 3: 2, 5: 4, 7: 8}
    assert {w.rows for w in g if w.length == 3} == {((1, 1, 0), (0, 0, 1)), ((0, 0, 1), (1, 1, 0))}
    assert min(w.length for w in generators(3, 6) if w.length > 1) == 4


def test_generators_all_balanced_and_recognized():
    for k in (2, 3, 4):
        for w in generators(k, 11):
            w.weight()  # raises if rows unbalanced
            assert balanced_cut_positions(w) == [w.length]  # an atom: no proper balanced prefix
    # and every atom of the monoid is a generator
    for k in (2, 3):
        for n in range(1, 10):
            atoms = {w.rows for w in enumerate_elements(k, 2, n) if balanced_cut_positions(w) == [n]}
            assert atoms == {g.rows for g in generators(k, n) if g.length == n}, (k, n)
            assert all(is_generator(MonoidWord(rows, k)) for rows in atoms)
    # the pairs is_generator accepts are exactly the generators the census
    # counts, over every pair of rows of each length
    for k in (2, 3, 4):
        for length in range(1, 9):
            rows = list(iproduct((0, 1), repeat=length))
            accepted = [(top, bottom) for top in rows for bottom in rows if is_generator(MonoidWord((top, bottom), k))]
            census = sorted(g.rows for g in generators(k, length) if g.length == length)
            assert accepted == census, (k, length)
    assert not is_generator(MonoidWord(((1, 1, 0), (0, 0, 1), (1, 1, 0)), 2))
    assert not is_generator(MonoidWord(((), ()), 2))


def _census_by_generator(k: int, max_len: int) -> list:
    """The per-generator sum ``generator_census_series`` replaced, as its
    reference: t^{ones} added once per generator."""
    t = TPoly.t()
    census: list = [0] * (max_len + 1)
    for g in generators(k, max_len):
        census[g.length] = census[g.length] + t**g.ones_count
    return census[1:]


def test_census_by_counts_matches_the_per_generator_sum():
    for k in range(2, 6):
        for max_len in range(17):
            got, want = generator_census_series(k, max_len), _census_by_generator(k, max_len)
            # the same values, and 0 as an int where a length has no generator
            assert got == want and list(map(type, got)) == list(map(type, want)), (k, max_len)


def test_census_matches_closed_form():
    for k in (2, 3, 4):
        assert generator_census_series(k, 13) == closed_form_census_series(k, 13)


def test_generator_lemma_holds_at_every_shift():
    for k in (2, 3, 4):
        assert generator_lemma_failure(k, 14) is None, k
    # the lemma's claims, checked shift by shift: each generator balances and
    # no proper prefix of it does
    for k in (2, 3, 4):
        w = _weights(k, 24)
        for g in generators(k, 10):
            diff = [a - b for a, b in zip(*g.rows)]
            for s in range(12):
                partial = list(accumulate(d * wi for d, wi in zip(diff, w[s:])))
                assert partial[-1] == 0 and all(partial[:-1]), (k, g.rows, s)


def test_factorization_examples():
    assert free_factorize(MonoidWord(((), ()), 2)) == []
    pieces = free_factorize(MonoidWord(((1, 1), (1, 1)), 2))
    assert [p.length for p in pieces] == [1, 1]
    w = MonoidWord(((1, 1, 0), (0, 0, 1)), 2)
    assert free_factorize(w) == [w]
    # balanced, but no triple is a generator
    triple = MonoidWord(((0,), (0,), (0,)), 2)
    assert reference_count(triple) == 0
    with pytest.raises(InvariantError):
        free_factorize(triple)


def test_free_factorize_cuts_at_every_balanced_position(monkeypatch):
    # were every segment a generator, 000/000 would factor as 1+1+1 and as one piece
    monkeypatch.setattr(fibgf.monoid, "is_generator", lambda word: True)
    w = MonoidWord(((0, 0, 0), (0, 0, 0)), 2)
    assert reference_count(w) == 2
    assert [p.rows for p in free_factorize(w)] == [((0,), (0,))] * 3


def test_unique_factorization_small():
    for k in (2, 3):
        for n in range(0, 10):
            for w in enumerate_elements(k, 2, n):
                assert reference_count(w) == 1, (k, n, w.rows)
                pieces = free_factorize(w)
                assert list(accumulate(p.length for p in pieces)) == balanced_cut_positions(w)
                if pieces:
                    acc = pieces[0]
                    for p in pieces[1:]:
                        acc = MonoidWord(tuple(a + b for a, b in zip(acc.rows, p.rows)), k)
                    assert acc.rows == w.rows


def test_freegen_fails_where_the_sequence_count_differs(monkeypatch):
    def off_by_one(k, t, n_max):
        series = transfer_series(k, t, n_max)
        if k == 3:
            series[5] += 1
        return series

    monkeypatch.setattr(fibgf.checks, "transfer_series", off_by_one)
    rep = run_check("verify", "freegen", ks=(2, 3), nmax=6)
    assert rep.status == "fail"
    assert (rep.details["k"], rep.details["n"]) == (3, 5)


def test_freegen_fails_where_the_walk_count_differs(monkeypatch):
    def off_by_one(spec, alpha, n_max):
        series = corr_series(spec, alpha, n_max)
        if spec == kbonacci_product_spec(3, 0):
            series[5] += 1
        return series

    monkeypatch.setattr(fibgf.checks, "corr_series", off_by_one)
    rep = run_check("verify", "freegen", ks=(2, 3), nmax=6)
    assert rep.status == "fail"
    assert rep.details == {"k": 3, "n": 5, "count": 41, "want": 40}


@pytest.mark.parametrize(
    "extra, reason",
    [
        (((1, 1, 0, 0, 0), (0, 0, 1, 0, 0)), "balanced proper prefix"),  # 110/001 then 00/00
        (((1, 0), (0, 1)), "unbalanced"),
        (((1, 1, 0), (0, 0, 1)), "repeated generator"),
    ],
    ids=["prefix", "unbalanced", "repeated"],
)
def test_freegen_fails_on_a_generator_that_breaks_the_lemma(monkeypatch, extra, reason):
    real = fibgf.monoid.generators
    monkeypatch.setattr(fibgf.monoid, "generators", lambda k, max_len: real(k, max_len) + [MonoidWord(extra, k)])
    rep = run_check("verify", "freegen", ks=(2,), nmax=6)
    assert rep.status == "fail"
    assert rep.details == {"k": 2, "generator": [list(row) for row in extra], "reason": reason}


def test_left_cancellation():
    # prefix in the monoid and whole in the monoid imply the suffix is too
    for w in enumerate_elements(2, 2, 8):
        for cut in balanced_cut_positions(w)[:-1]:
            suffix = MonoidWord(tuple(row[cut:] for row in w.rows), 2)
            suffix.weight()  # balanced, raises otherwise


def test_unbalanced_word_rejected():
    w = MonoidWord(((1, 0), (0, 0)), 2)
    with pytest.raises(InvariantError):
        w.weight()
    with pytest.raises(InvariantError):
        free_factorize(w)


def test_transfer_series():
    assert transfer_series(2, 1, 3) == [1, 2, 4, 10]
    assert transfer_series(3, 1, 0) == [1]
    t = TPoly.t()
    assert transfer_series(2, t, 2)[2] == TPoly((1, 0, 2, 0, 1))


def test_word_classes_examples():
    assert word_classes(1) == [1, 1]
    assert word_classes(3) == [1, 1, 1, 1, 1, 1, 2]
    assert 3 in word_classes(5)
    with pytest.raises(ResourceLimitError):
        word_classes(15)


def test_word_class_of_the_display_example():
    # the class {baaaa, abbaa, ababb} at n = 5: BFS the rewrite graph from
    # baaaa and compare with the displayed class
    def encode(word):
        return sum(1 << i for i, ch in enumerate(word) if ch == "b")

    def neighbors(w, n):
        for p in range(n - 2):
            window = (w >> p) & 7
            if window == 0b001:  # b a a
                yield (w ^ (0b001 << p)) | (0b110 << p)
            elif window == 0b110:  # a b b
                yield (w ^ (0b110 << p)) | (0b001 << p)

    n = 5
    seen = {encode("baaaa")}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for v in neighbors(w, n):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    assert seen == {encode(w) for w in ("baaaa", "abbaa", "ababb")}
    assert 3 in word_classes(n)


def _word_classes_by_position(n: int) -> list[int]:
    """The loop ``word_classes`` replaced, as its reference: union-find over
    every word and every window position, rewriting each b a a to a b b."""
    parent = list(range(1 << n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for w in range(1 << n):
        for p in range(n - 2):
            if (w >> p) & 7 == 0b001:
                parent[find(w)] = find((w ^ 0b001 << p) | (0b110 << p))
    sizes: dict[int, int] = {}
    for w in range(1 << n):
        root = find(w)
        sizes[root] = sizes.get(root, 0) + 1
    return sorted(sizes.values())


def test_word_classes_match_the_per_position_loop():
    # every n below the default cap of 14
    for n in range(14):
        assert word_classes(n) == _word_classes_by_position(n), n


def test_word_classes_match_coefficients():
    for n in range(1, 12):
        coeffs = sorted(build_product(fibonacci_product_spec(n)).coefficient_sequence())
        assert word_classes(n) == coeffs


def test_move_connectivity_examples():
    assert len(move_connectivity((0, 0, 1), (1, 1, 0))) == 1
    assert move_connectivity((1, 0, 1), (1, 0, 1)) == []
    assert len(move_connectivity((1, 0, 0, 1), (1, 1, 1, 0))) == 1
    assert len(move_connectivity((0, 0, 1), (1, 1, 0), weight_mode="phi_powers")) == 1
    with pytest.raises(ValueError):
        move_connectivity((1,), (0, 1))


def test_phi_equal_values_are_connected():
    # lemma connectivity via the rewrite oracle on phi-power weights
    import random

    from fibgf.sequences import phi_power_reduce

    rng = random.Random(2)
    buckets = {}
    for _ in range(250):
        bits = tuple(rng.randint(0, 1) for _ in range(8))
        buckets.setdefault(phi_power_reduce(bits), []).append(bits)
    checked = 0
    for value, group in buckets.items():
        for other in group[1:]:
            assert move_connectivity(group[0], other, weight_mode="phi_powers") is not None
            checked += 1
    assert checked > 10
