import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randgroups.words import Word, Presentation, free_reduce, invert, rotate
from randgroups.sampler import DensityParams, sample_presentation, sample_reduced_word, stream
from randgroups.cancellation import (
    symmetrize,
    max_piece_length,
    satisfies_cprime,
    dehn_reduce,
    is_trivial,
    equal_in_group,
    first_moment_piece_bound,
    NotSmallCancellation,
    _dehn_index,
    _dehn_walk,
    _has_piece,
    _prefix_sizes,
    _readings,
)
from randgroups import cancellation
from oracles import (
    max_piece_oracle,
    max_piece_by_bisection,
    all_cyclic_occurrences,
    bfs_trivial_oracle,
    dehn_walk_oracle,
    enumerate_reduced_words,
)


def W(s):
    return Word.from_text(s)


GENUS2 = Presentation(4, [W("abABcdCD")])


def test_symmetrize_commutator_relator():
    p = Presentation(2, [W("abAB")])
    sym = symmetrize(p)
    # explicit enumeration oracle
    expected = set()
    for base in (W("abAB"), invert(W("abAB"))):
        for k in range(4):
            expected.add(rotate(base, k))
    assert set(sym.elements) == expected
    assert len(sym) == 8


def test_symmetrize_rotation_invariant_word():
    # aa has one rotation class and its inverse
    p = Presentation(2, [W("aa")])
    assert set(symmetrize(p).elements) == {W("aa"), W("AA")}


def test_symmetrize_empty():
    p = Presentation(2, [], 0)
    assert len(symmetrize(p)) == 0


def test_max_piece_genus2_is_one():
    rep = max_piece_length(GENUS2)
    assert rep.max_piece_length == 1 == max_piece_oracle(GENUS2)
    assert rep.witnesses


def test_max_piece_duplicate_relators():
    p = Presentation(2, [W("abab"), W("abab")])
    assert max_piece_length(p).max_piece_length == 4


def test_max_piece_single_short_relator():
    p = Presentation(2, [W("ab")])
    assert max_piece_length(p).max_piece_length == 0 == max_piece_oracle(p)


def test_max_piece_proper_power_self_overlap():
    # (ab)^2 overlaps itself at rotation by 2
    p = Presentation(2, [W("abab")])
    assert max_piece_length(p).max_piece_length == max_piece_oracle(p) == 4


def test_satisfies_cprime_examples():
    assert satisfies_cprime(GENUS2, Fraction(1, 6))  # 1 < 8/6
    assert not satisfies_cprime(GENUS2, Fraction(1, 8))  # 1 < 1 fails
    dup = Presentation(2, [W("abab"), W("abab")])
    assert not satisfies_cprime(dup, Fraction(5, 6))


def test_cprime_monotone_in_lambda():
    for lam1, lam2 in [(Fraction(1, 8), Fraction(1, 6)), (Fraction(1, 6), Fraction(1, 2))]:
        if satisfies_cprime(GENUS2, lam1):
            assert satisfies_cprime(GENUS2, lam2)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**9), st.integers(4, 12), st.integers(1, 3))
def test_max_piece_matches_oracle_on_random_presentations(seed, length, n_rel):
    rng = stream(seed)
    relators = []
    while len(relators) < n_rel:
        w = sample_reduced_word(2, length, rng)
        if len(w) < 2 or w[0] != -w[-1]:
            relators.append(w)
    p = Presentation(2, relators, length)
    assert max_piece_length(p).max_piece_length == max_piece_oracle(p)


LAMBDAS = tuple(Fraction(x) for x in ("-1/8", "0", "1/8", "1/6", "1/4", "1/2", "1", "3/2"))


def _oracle_report(p):
    """(max piece, witnesses) by brute force: every maximum-length piece in
    word order with its first two cyclic occurrences."""
    k = max_piece_oracle(p)
    if k == 0:
        return 0, []
    occs = all_cyclic_occurrences(p, k)
    return k, [(Word(w), o[0], o[1]) for w, o in sorted(occs.items()) if len(o) >= 2]


def _assert_matches_oracle(p):
    k, witnesses = _oracle_report(p)
    if p.relators:
        assert k >= cancellation._forced_piece_length(p.rank, 2 * p.n_relators * p.length, p.length)
    rep = max_piece_length(p)
    assert (rep.max_piece_length, [(w, tuple(a), tuple(b)) for w, a, b in rep.witnesses]) == (k, witnesses)
    for lam in LAMBDAS:
        assert satisfies_cprime(p, lam) == (k < lam * p.length), lam


@pytest.mark.parametrize("rank", [2, 3, 4, 26])
@pytest.mark.parametrize("density", [Fraction(0), Fraction(1, 16), Fraction(1, 10)])
def test_pieces_and_gate_match_oracle_on_seeded_presentations(rank, density):
    # 12 grid cells x 17 seeds = 204 presentations, lengths 4..12; rank 26
    # uses all 52 letter codes, and l = 8, 12 make lambda * l integral
    for seed in range(17):
        p = sample_presentation(DensityParams(rank, density, 4 + seed % 9, seed))
        _assert_matches_oracle(p)


FIXED_CASES = (
    Presentation(2, [W("a")]),
    Presentation(2, [W("a"), W("A")]),
    Presentation(2, [W("abab")]),
    Presentation(2, [W("abab"), W("abab")]),
    Presentation(3, [W("abcacb"), W("CBCABA"), W("abcacb")]),
)


def test_pieces_fixed_cases():
    empty = Presentation(2, [], 0)
    assert max_piece_length(empty).max_piece_length == 0
    assert all(satisfies_cprime(empty, lam) for lam in LAMBDAS)
    for p in FIXED_CASES:
        _assert_matches_oracle(p)
    assert max_piece_length(Presentation(2, [W("a")])).witnesses == []
    rep = max_piece_length(Presentation(2, [W("a"), W("A")]))
    assert rep.witnesses == [(W("A"), (0, -1, 0), (1, 1, 0)), (W("a"), (0, 1, 0), (1, -1, 0))]
    rep = max_piece_length(Presentation(2, [W("abab")]))
    assert [(w.text(), a, b) for w, a, b in rep.witnesses] == [
        ("BABA", (0, -1, 0), (0, -1, 2)),
        ("ABAB", (0, -1, 1), (0, -1, 3)),
        ("abab", (0, 1, 0), (0, 1, 2)),
        ("baba", (0, 1, 1), (0, 1, 3)),
    ]


def _planted(n, l, arc, seed):
    """A cyclically reduced word r, a rotation of r and the inverse of
    another, both with letters changed every arc + 1 positions: they share
    pieces of length arc with r (r itself again when arc = l)."""
    rng = stream(seed)
    base = sample_reduced_word(n, l, rng)
    while base[0] == -base[-1]:
        base = sample_reduced_word(n, l, rng)
    letters = (*range(1, n + 1), *range(-1, -n - 1, -1))
    relators = [base]
    for offset, flip in ((0, False), (arc // 2, True)):
        w = list(base)
        for i in range(offset, l + offset, arc + 1) if arc < l else ():
            i %= l
            banned = {w[i], -w[i - 1], -w[(i + 1) % l]}
            w[i] = next(x for x in letters if x not in banned)
        w = rotate(Word(w), int(rng.integers(0, l)))
        relators.append(invert(w) if flip else w)
    return Presentation(n, relators, l)


@pytest.fixture
def label_routes(monkeypatch):
    """Record the route of each outer _labels call by how many pair levels
    sit above its packed labels: 'packed' (base-2n digits), 'pair of
    packed halves' or 'pair of pair halves'."""
    seen, depth = set(), [0]
    labels = cancellation._labels
    names = ("packed", "pair of packed halves", "pair of pair halves")

    def spy_labels(codes, base, k):
        if base**k < cancellation._KEY_LIMIT:
            seen.add(names[min(depth[0], 2)])
        depth[0] += 1
        out = labels(codes, base, k)
        depth[0] -= 1
        return out

    monkeypatch.setattr(cancellation, "_labels", spy_labels)
    return seen


def test_piece_kernel_is_exact_on_every_label_route(label_routes):
    # ranks 2 and 3 pack up to k = 31 and 24 and pair packed halves above;
    # ranks 5 and 26 pack up to 18 and 11, and past 36 and 22 pair halves
    # that are pairs themselves.  The planted pieces put the maximum on
    # both sides of each switch, at odd and even k.
    cases = {
        (2, 13): (4, 7, 13),
        (2, 48): (31, 32, 33, 35, 47, 48),
        (3, 48): (24, 25, 26, 41),
        (5, 48): (18, 19, 36, 37, 40),
        (26, 30): (11, 12, 13, 22, 23, 29, 30),
    }
    for (n, l), arcs in cases.items():
        for arc in arcs:
            p = _planted(n, l, arc, 1000 * n + arc)
            codes = _readings(p)
            for k in range(1, l + 1):
                expected = any(len(o) >= 2 for o in all_cyclic_occurrences(p, k).values())
                assert _has_piece(codes, 2 * n, k) == expected, (p, k)
            _assert_matches_oracle(p)
            assert max_piece_length(p).max_piece_length >= arc
    assert label_routes == {"packed", "pair of packed halves", "pair of pair halves"}


def test_dense_ranks_match_unique_across_slices(monkeypatch):
    rng = np.random.default_rng(0)
    for size in (1, 3, 64, 1 << 20):
        monkeypatch.setattr(cancellation, "_RANK_SLICE", size)
        keys = rng.integers(0, 50, (40, 7)) * 10**15
        distinct, inverse = np.unique(keys, return_inverse=True)
        ranks = keys.copy()
        assert cancellation._dense_ranks(ranks) == len(distinct)
        assert (ranks == inverse.reshape(keys.shape)).all()


def test_piece_keys_are_one_int64_per_gram():
    for p in (_planted(2, 48, 40, 7), _planted(26, 30, 20, 8), sample_presentation(DensityParams(3, Fraction(1, 10), 40, 9))):
        codes = _readings(p)
        for k in range(1, p.length + 1):
            keys = cancellation._labels(codes, 2 * p.rank, k)[0].reshape(-1)
            assert keys.dtype == np.int64
            assert keys.shape == (2 * p.n_relators * p.length,)
            assert keys.min() >= 0


def test_forced_piece_length_counts_reduced_words():
    for n in (2, 3):
        counts = Counter(len(w) for w in enumerate_reduced_words(n, 5))
        for l in range(1, 6):
            for grams in range(1, 1000, 7):
                k = cancellation._forced_piece_length(n, grams, l)
                assert 0 <= k <= l
                assert all(counts[j] < grams for j in range(1, k + 1))
                assert k == l or counts[k + 1] >= grams


def test_gate_is_decided_by_the_pigeonhole_floor(monkeypatch):
    # N = 3^6 = 729 relators of length 30 give 43 740 grams, more than the
    # 4 * 3^8 reduced words of length 9, so pieces of length 9 are forced
    # and C'(1/6), which forbids length 5, fails without a kernel call
    p = sample_presentation(DensityParams(2, Fraction(1, 5), 30, 1))
    assert p.n_relators == 729
    assert cancellation._forced_piece_length(2, 2 * 729 * 30, 30) == 9
    assert _has_piece(_readings(p), 4, 9)
    calls = []
    labels = cancellation._labels
    monkeypatch.setattr(cancellation, "_labels", lambda *args: calls.append(args[2]) or labels(*args))
    assert not satisfies_cprime(p, Fraction(1, 6))
    assert calls == []
    satisfies_cprime(p, Fraction(1, 2))
    assert calls == [15]


# the planted cases of test_piece_kernel_is_exact_on_every_label_route
PLANTED_CASES = {
    (2, 13): (4, 7, 13),
    (2, 48): (31, 32, 33, 35, 47, 48),
    (3, 48): (24, 25, 26, 41),
    (5, 48): (18, 19, 36, 37, 40),
    (26, 30): (11, 12, 13, 22, 23, 29, 30),
}


def test_max_piece_matches_the_bisection_reference():
    """The search from the floor on held labels, and the witnesses from the
    marked grams, give the PieceReport of a bisection from k = 1 with
    fresh labels per probe and a stable argsort of every label."""
    # its 2 * 4 * 6 = 48 grams outnumber the 36 reduced words of length 3,
    # and no word of length 4 repeats: the maximum is the floor
    at_floor = Presentation(2, [W(s) for s in ("Abbbab", "aaabaB", "aBaBBa", "aBAbba")])
    assert cancellation._forced_piece_length(2, 48, 6) == 3 == max_piece_length(at_floor).max_piece_length
    cases = [at_floor, GENUS2, Presentation(2, [], 0), *FIXED_CASES]
    # the grid points of the dense-pieces benchmark workload
    for n, d, l in ((3, Fraction(1, 16), 32), (2, Fraction(1, 10), 50)):
        cases += [sample_presentation(DensityParams(n, d, l, seed)) for seed in range(4)]
    cases += [_planted(n, l, arc, 1000 * n + arc) for (n, l), arcs in PLANTED_CASES.items() for arc in arcs]
    past_packed = 0
    for p in cases:
        rep = max_piece_length(p)
        assert rep == max_piece_by_bisection(p), p
        past_packed += (2 * p.rank) ** rep.max_piece_length >= cancellation._KEY_LIMIT
    assert past_packed >= 5


def test_max_piece_peak_is_at_most_three_label_arrays():
    p = sample_presentation(DensityParams(3, Fraction(1, 16), 64, 1))
    max_piece_length(p)
    tracemalloc.start()
    try:
        max_piece_length(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * 2 * p.n_relators * p.length


def test_dehn_reduce_whole_relator():
    final, trace = dehn_reduce(W("abABcdCD"), GENUS2)
    assert final == Word()
    assert len(trace) == 1


def test_dehn_reduce_partial_relator():
    final, trace = dehn_reduce(W("abABcd"), GENUS2)
    assert final == W("dc")
    assert len(trace) == 1
    assert trace[0].removed == 6


def test_dehn_reduce_irreducible():
    final, trace = dehn_reduce(W("a"), GENUS2)
    assert final == W("a")
    assert trace == []


def test_dehn_requires_small_cancellation():
    bad = Presentation(2, [W("abab"), W("abab")])
    with pytest.raises(NotSmallCancellation):
        dehn_reduce(W("ab"), bad)


def test_dehn_strictly_decreasing_lengths():
    rng = stream(31)
    # seed 306 gives a C'(1/6) one-relator presentation at rank 2, length 16
    p = sample_presentation(DensityParams(2, Fraction(0), 16, 306))
    assert satisfies_cprime(p, Fraction(1, 6))
    r = p.relators[0]
    w = free_reduce(rotate(r, 5).concat(sample_reduced_word(2, 4, rng)))
    cur = w
    final, trace = dehn_reduce(w, p)
    lengths = [len(w)]
    for step in trace:
        v = Word(step.element[step.removed:])
        cur = free_reduce(Word(cur[: step.position]).concat(invert(v)).concat(Word(cur[step.position + step.removed :])))
        lengths.append(len(cur))
    assert cur == final
    assert all(b < a for a, b in zip(lengths, lengths[1:]))
    assert len(trace) <= len(w)


# C'(1/6) presentations (rank, density, length, seed): one relator at rank
# 2 and l = 16, 24 and at rank 3 and l = 7 (aaCAccB), and seven relators
# at rank 4, d = 1/32, l = 32, whose longest piece (5 letters) is just
# under l/6
DEHN_CASES = [(2, 0, 16, 306), (2, 0, 24, 0), (3, 0, 7, 0), (4, Fraction(1, 32), 32, 0)]


def _dehn_case(n, d, l, seed):
    p = sample_presentation(DensityParams(n, Fraction(d), l, seed))
    assert satisfies_cprime(p, Fraction(1, 6))
    return p


def _dehn_words(p, rng, count):
    """Seeded words: products of conjugates g*r*g^-1 of symmetrized elements
    (trivial), each with a random word spliced in, and chains of
    more-than-half prefixes of elements joined by short random words."""
    els = symmetrize(p).elements

    def word(m):
        return sample_reduced_word(p.rank, m, rng) if m else Word()

    def randint(lo, hi):
        return int(rng.integers(lo, hi))

    out = []
    for _ in range(count):
        w = Word()
        for _ in range(randint(1, 12)):
            g = word(randint(0, p.length // 2 + 1))
            w = w.concat(g).concat(els[randint(0, len(els))]).concat(invert(g))
        cut = randint(0, len(w) + 1)
        chain = Word()
        for _ in range(randint(1, 8)):
            el = els[randint(0, len(els))]
            chain = chain.concat(Word(el[: randint(p.length // 2, p.length + 1)])).concat(word(randint(0, 3)))
        out += [w, Word(w[:cut]).concat(word(randint(1, 6))).concat(Word(w[cut:])), chain]
    return [free_reduce(w) for w in out]


@pytest.mark.parametrize("n, d, l, seed", DEHN_CASES)
def test_dehn_reduce_matches_rescanning_oracle(n, d, l, seed):
    """The resuming walk gives the final word and the whole trace of the
    walk that rescans from 0 and free-reduces the whole word each step."""
    p = _dehn_case(n, d, l, seed)
    words = _dehn_words(p, stream(41, n, l), 60)
    trivial = meets = 0
    for w in words:
        final, trace = dehn_reduce(w, p)
        assert (final, trace) == dehn_walk_oracle(w, p)
        trivial += not final
        # whole-relator steps after which the letters on both sides cancel
        for cur, step in _dehn_walk(w, p):
            if step and step.removed == l and 0 < step.position < len(cur) - l:
                meets += cur[step.position - 1] == -cur[step.position + l]
    assert 0 < trivial < len(words)
    assert meets > 0


@pytest.mark.parametrize("n, d, l, seed", DEHN_CASES)
def test_dehn_index_holds_each_element_once_per_prefix_size(n, d, l, seed):
    p = _dehn_case(n, d, l, seed)
    index = _dehn_index(p)
    elements = symmetrize(p).elements
    sizes = _prefix_sizes(l)
    assert list(sizes) == sorted({math.ceil(l / 2), l // 2 + 1})
    # no key collisions: every (element, size) prefix is its own key
    assert len(index) == len(elements) * len(sizes)
    for el in elements:
        for j in sizes:
            assert index[el[:j]] is el


def test_is_trivial_examples():
    assert is_trivial(W("abABcdCD"), GENUS2)
    assert not is_trivial(W("a"), GENUS2)
    # conjugate of a relator is trivial
    w = free_reduce(W("dc").concat(W("abABcdCD")).concat(invert(W("dc"))))
    assert is_trivial(w, GENUS2)


def test_equal_in_group_examples():
    assert equal_in_group(W("abABcd"), W("dc"), GENUS2)
    assert equal_in_group(W("ab"), W("ab"), GENUS2)
    assert not equal_in_group(W("a"), W("b"), GENUS2)


def test_is_trivial_agrees_with_bfs_oracle_small():
    # seed 53 gives a C'(1/6) one-relator presentation at rank 3, length 10.
    # Cap l+4 keeps the insert-move search exhaustible; a Dehn path from a
    # short word never leaves that range.
    p = sample_presentation(DensityParams(3, Fraction(0), 10, 53))
    assert satisfies_cprime(p, Fraction(1, 6))
    for w in enumerate_reduced_words(3, 2):
        verdict = bfs_trivial_oracle(w, p, cap=p.length + 4, max_states=100_000)
        assert verdict is not None
        assert is_trivial(w, p) == verdict


def test_trivial_words_of_length_ell_agree_with_oracle():
    # relator conjugates are trivial; BFS oracle confirms quickly
    p = sample_presentation(DensityParams(3, Fraction(0), 10, 83))
    assert satisfies_cprime(p, Fraction(1, 6))
    r = p.relators[0]
    for k in (0, 3, 7):
        w = rotate(r, k)
        assert is_trivial(w, p)
        assert bfs_trivial_oracle(w, p, cap=3 * p.length, max_states=50_000) is True


def test_first_moment_examples():
    val = first_moment_piece_bound(2, Fraction(0), 160, Fraction(1, 8))
    assert val == pytest.approx(160 * 160 / 3**20, rel=1e-12)
    assert first_moment_piece_bound(2, Fraction(0), 10, Fraction(0)) == pytest.approx(100.0)
    # monotone decreasing in lambda
    vals = [
        first_moment_piece_bound(2, Fraction(0), 60, lam)
        for lam in (Fraction(1, 12), Fraction(1, 8), Fraction(1, 6))
    ]
    assert vals == sorted(vals, reverse=True)
