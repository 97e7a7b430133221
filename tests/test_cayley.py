import tracemalloc
from fractions import Fraction

import pytest

from randgroups.words import Word, Presentation, free_reduce, invert, rotate
from randgroups.sampler import DensityParams, sample_presentation, sample_reduced_word
from randgroups import cayley
from randgroups.cancellation import satisfies_cprime, equal_in_group, max_piece_length
from randgroups.cayley import (
    build_ball,
    all_geodesics,
    pair_reliable,
    decompose_digons,
    verify_digon,
    single_layer,
    digon_side_uniqueness,
    geometry_scan,
    BallBudgetExceeded,
    ReliabilityError,
    Digon,
    _minimizer_scan,
    _path_back,
)
from oracles import (
    brute_all_paths,
    build_ball_oracle,
    build_ball_per_word,
    distance_minimizers,
    geometry_scan_oracle,
    minimizer_scan_oracle,
)


def W(s):
    return Word.from_text(s)


FREE2 = Presentation(2, [], 0)


def padded_codes(words, R):
    """The code rows of a fabricated CayleyBall: each word's letters, then 0s."""
    import numpy as np

    codes = np.zeros((len(words), R), np.int8)
    for v, text in enumerate(words):
        codes[v, : len(text)] = W(text)
    return codes


def test_free_ball_vertex_count():
    ball = build_ball(FREE2, 2)
    assert ball.n_vertices == 17  # 1 + 4 + 12
    ball3 = build_ball(FREE2, 3)
    assert ball3.n_vertices == 1 + 4 + 12 + 36


def test_free_ball_distances_and_words():
    ball = build_ball(FREE2, 3)
    for v in range(ball.n_vertices):
        assert ball.dist[v] == len(ball.words[v])
        assert ball.words[v].is_reduced


def test_small_radius_ball_is_free():
    # one relator of length 10; radius 4 < l/2 sees no relation
    p = sample_presentation(DensityParams(3, Fraction(0), 10, 53))
    free = build_ball(Presentation(3, [], 0), 4)
    ball = build_ball(p, 4)
    assert ball.n_vertices == free.n_vertices


def test_relator_ball_smaller_than_free():
    p = Presentation(4, [W("abABcdCD")])
    free4 = build_ball(Presentation(4, [], 0), 4)
    ball = build_ball(p, 4)
    assert ball.n_vertices < free4.n_vertices


def test_ball_vertices_pairwise_distinct_in_group():
    p = sample_presentation(DensityParams(3, Fraction(0), 10, 53))
    assert satisfies_cprime(p, Fraction(1, 6))
    ball = build_ball(p, 5)
    # spot-check: canonical words at small distance are pairwise unequal
    small = [v for v in range(ball.n_vertices) if ball.dist[v] <= 3]
    for i in small[:40]:
        for j in small[:40]:
            if i < j:
                assert not equal_in_group(ball.words[i], ball.words[j], p)


def test_ball_budget():
    with pytest.raises(BallBudgetExceeded):
        build_ball(FREE2, 6, max_vertices=50)


def test_free_group_unique_geodesics():
    ball = build_ball(FREE2, 4)
    for v in range(ball.n_vertices):
        if ball.dist[v] <= 3:
            paths = all_geodesics(ball, 0, v)
            assert len(paths) == 1
            assert len(paths[0]) == ball.dist[v] + 1


def test_path_back_is_a_geodesic_from_the_bfs_source():
    p = sample_presentation(DensityParams(3, Fraction(0), 10, 53))
    ball = build_ball(p, 5)
    adj = [[int(x) for x in row] for row in ball.adj]
    for a in (0, 7, 100):
        dist = ball.bfs_from(a, max_depth=3)
        targets = [v for v in range(ball.n_vertices) if dist[v] >= 0][:40]
        for v in targets:
            expected = brute_all_paths(adj, [int(d) for d in dist], a, v)
            assert _path_back(ball, dist, v) in expected


def test_geodesics_self_pair():
    ball = build_ball(FREE2, 2)
    assert all_geodesics(ball, 0, 0) == [[0]]


def test_geodesics_match_brute_force_paths():
    p = sample_presentation(DensityParams(3, Fraction(0), 10, 53))
    ball = build_ball(p, 5)
    adj = [[int(x) for x in row] for row in ball.adj]
    checked = 0
    for v in range(ball.n_vertices):
        if 1 <= ball.dist[v] <= 5 and pair_reliable(ball, 0, v, int(ball.dist[v])):
            expected = brute_all_paths(adj, [int(d) for d in ball.bfs_from(0)], 0, v)
            got = all_geodesics(ball, 0, v)
            assert sorted(map(tuple, got)) == sorted(map(tuple, expected))
            checked += 1
            if checked >= 60:
                break
    assert checked >= 30


def test_relator_halves_form_digon():
    # l even: the two halves of the relator are distinct geodesics
    p = sample_presentation(DensityParams(3, Fraction(0), 10, 53))
    assert satisfies_cprime(p, Fraction(1, 8))
    r = p.relators[0]
    ball = build_ball(p, 5)
    half = Word(r[: len(r) // 2])
    v = ball.vertex_of_word(half)
    assert v is not None
    other = invert(Word(r[len(r) // 2 :]))
    assert equal_in_group(half, other, p)
    paths = all_geodesics(ball, 0, v)
    assert len(paths) >= 2
    digons, shared = decompose_digons(ball, paths[0], paths[1])
    assert len(digons) == 1
    d = digons[0]
    assert d.ok, d.violations
    assert len(d.cells) == 1
    assert d.cells[0].word in {r_ for r_ in __import__("randgroups.cancellation", fromlist=["symmetrize"]).symmetrize(p).elements}


def test_identical_geodesics_no_digons():
    ball = build_ball(FREE2, 3)
    v = ball.vertex_of_word(W("ab"))
    paths = all_geodesics(ball, 0, v)
    digons, shared = decompose_digons(ball, paths[0], paths[0])
    assert digons == []
    assert shared == list(range(3))


def test_single_layer_free_group_empty():
    ball = build_ball(FREE2, 3)
    v = ball.vertex_of_word(W("ab"))
    cfg = single_layer(ball, 0, v)
    assert cfg.ok
    assert cfg.digons == []


def test_single_layer_on_relator_halves():
    p = sample_presentation(DensityParams(3, Fraction(0), 10, 53))
    ball = build_ball(p, 5)
    r = p.relators[0]
    v = ball.vertex_of_word(Word(r[:5]))
    cfg = single_layer(ball, 0, v)
    assert cfg.ok, cfg.violations
    assert len(cfg.digons) == 1


def test_minimizers_free_group_tree_median():
    ball = build_ball(FREE2, 3)
    aa = ball.vertex_of_word(W("aa"))
    ab = ball.vertex_of_word(W("ab"))
    a = ball.vertex_of_word(W("a"))
    base = all_geodesics(ball, 0, aa)[0]
    mins = distance_minimizers(ball, base, ab)
    assert mins == [a]


def test_minimizers_point_on_base():
    ball = build_ball(FREE2, 3)
    aa = ball.vertex_of_word(W("aa"))
    a = ball.vertex_of_word(W("a"))
    base = all_geodesics(ball, 0, aa)[0]
    assert distance_minimizers(ball, base, a) == [a]


def test_minimizers_reliability_error():
    ball = build_ball(FREE2, 2)
    aa = ball.vertex_of_word(W("aa"))
    bb = ball.vertex_of_word(W("bb"))
    base = all_geodesics(ball, 0, aa)[0]
    with pytest.raises(ReliabilityError):
        # d(aa, bb) = 4 and both sit at distance 2: sum 8 > 2R = 4
        distance_minimizers(ball, base, bb)


def test_digon_side_uniqueness_trivial_and_long_arcs():
    p = sample_presentation(DensityParams(3, Fraction(0), 10, 53))
    ball = build_ball(p, 5)
    r = p.relators[0]
    v = ball.vertex_of_word(Word(r[:5]))
    paths = all_geodesics(ball, 0, v)
    digons, _ = decompose_digons(ball, paths[0], paths[1])
    rep = digon_side_uniqueness(ball, digons)
    assert rep.ok, rep.violations
    # each half has length l/2 = 5 > l/4
    assert digons[0].cells[0].low_arc == 5


def test_corrupted_digon_detected():
    p = sample_presentation(DensityParams(3, Fraction(0), 10, 53))
    ball = build_ball(p, 5)
    r = p.relators[0]
    v = ball.vertex_of_word(Word(r[:5]))
    paths = all_geodesics(ball, 0, v)
    digons, _ = decompose_digons(ball, paths[0], paths[1])
    good = digons[0]
    # corrupt: pretend the upper side is a different path (shift one vertex)
    bad_up = list(good.up)
    bad_up[2] = (bad_up[2] + 1) % ball.n_vertices
    bad = verify_digon(ball, good.low, bad_up)
    assert not bad.ok
    # a forged second digon with the same low but different up trips uniqueness
    forged = Digon(list(good.low), bad_up, [], [])
    rep = digon_side_uniqueness(ball, [good, forged])
    assert not rep.ok


def test_all_geodesics_reliability_error():
    ball = build_ball(FREE2, 2)
    aa = ball.vertex_of_word(W("aa"))
    ab = ball.vertex_of_word(W("ab"))
    with pytest.raises(ReliabilityError):
        # d(aa, ab) = 2, both at distance 2: sum 6 > 2R = 4
        all_geodesics(ball, aa, ab)


def synthetic_two_cell_digon():
    """A hand-built ball fragment: an l=9 two-cell digon with one divisor.

    Real C'(1/8) balls at desk radius only reach single-cell digons (a
    two-cell digon has sides of length l-1), so the division-pair logic
    gets synthetic coverage here.
    """
    import numpy as np
    from randgroups.cayley import CayleyBall

    r1 = W("ababdABAB")
    r2 = W("cdcdABABD")
    p = Presentation(4, [r1, r2], 9)
    low_letters = [1, 2, 1, 2, 3, 4, 3, 4]
    up_letters = [2, 1, 2, 1, 2, 1, 2, 1]
    # vertices: low 0..8; up interior 9..15; divisor joins 4 and 12
    V = 16
    adj = -np.ones((V, 8), dtype=np.int32)

    def col(g):
        return (abs(g) - 1) * 2 + (0 if g > 0 else 1)

    def add_edge(x, y, g):
        adj[x, col(g)] = y
        adj[y, col(-g)] = x

    low = list(range(9))
    up = [0] + list(range(9, 16)) + [8]
    for i in range(8):
        add_edge(low[i], low[i + 1], low_letters[i])
    for i in range(8):
        add_edge(up[i], up[i + 1], up_letters[i])
    add_edge(4, 12, 4)  # the divisor, letter d
    zeros = np.zeros(V, dtype=np.int32)
    ball = CayleyBall(p, 9, np.zeros((V, 9), np.int8), zeros, zeros, adj)
    return ball, low, up


def test_synthetic_divisor_digon_verifies():
    """The only test of division pairs in verify_digon.

    A digon with a division pair needs l >= 9 (divisors are shorter than
    l/8) and two-cell sides of about l - 1 edges, so radius >= l - 1: at
    rank 3 and l = 9 under C'(1/8) that is a radius-8 ball of about 6*10^5
    vertices.  No real ball that a test or benchmark builds holds one, so
    this hand-built fixture is their only coverage.
    """
    ball, low, up = synthetic_two_cell_digon()
    d = verify_digon(ball, low, up)
    assert d.ok, d.violations
    assert len(d.division_pairs) == 1
    assert d.division_pairs[0] == (4, 4, [4, 12])
    assert len(d.cells) == 2
    assert all(c.low_arc == 4 and c.up_arc == 4 for c in d.cells)
    rep = digon_side_uniqueness(ball, [d])
    assert rep.ok


def test_synthetic_divisor_digon_corruption_detected():
    ball, low, up = synthetic_two_cell_digon()
    # delete the divisor: no chord remains, so the sides would have to
    # close up into a single length-9 cell, which they cannot
    ball.adj[4, 6] = -1
    ball.adj[12, 7] = -1
    d = verify_digon(ball, low, up)
    assert not d.ok


def three_geodesic_ball(ell):
    """A fake ball with three geodesics 0 -> 6 whose two deviation digons
    overlap on base interval [2,4]; merging fires iff 2 >= ell/8."""
    import numpy as np
    from randgroups.cayley import CayleyBall

    relator = Word(tuple([1, 2] * (ell // 2)))
    p = Presentation(4, [relator], ell)
    V = 13
    adj = -np.ones((V, 8), dtype=np.int32)

    def col(g):
        return (abs(g) - 1) * 2 + (0 if g > 0 else 1)

    def add_edge(x, y, g):
        adj[x, col(g)] = y
        adj[y, col(-g)] = x

    base = [0, 1, 2, 3, 4, 5, 6]
    for i in range(6):
        add_edge(base[i], base[i + 1], 1)
    # g1 deviates over [0,4]: 0 -> 7 -> 8 -> 9 -> 4
    add_edge(0, 7, 2)
    add_edge(7, 8, 1)
    add_edge(8, 9, 1)
    add_edge(9, 4, 2)
    # g2 deviates over [2,6]: 2 -> 10 -> 11 -> 12 -> 6
    add_edge(2, 10, 3)
    add_edge(10, 11, 1)
    add_edge(11, 12, 1)
    add_edge(12, 6, 2)
    dist = np.array([0, 1, 2, 3, 4, 5, 6, 1, 2, 3, 3, 4, 5], dtype=np.int32)
    words = ["", "a", "aa", "aaa", "aaaa", "aaaaa", "aaaaaa", "b", "ba", "baa", "aac", "aaca", "aacaa"]
    parent = np.array([0, 0, 1, 2, 3, 4, 5, 0, 7, 8, 2, 10, 11], dtype=np.int32)
    return CayleyBall(p, 6, padded_codes(words, 6), parent, dist, adj)


def test_single_layer_merges_overlapping_digons():
    ball = three_geodesic_ball(16)  # overlap 2 >= 16/8
    cfg = single_layer(ball, 0, 6)
    assert len(cfg.digons) == 1
    assert cfg.digons[0].interval == (0, 6)
    assert len(cfg.digons[0].members) == 2
    # the synthetic cells cannot bear the length-16 relator: flagged
    assert any(not d.ok for d in cfg.digons[0].members)


def test_single_layer_keeps_short_overlap_separate():
    ball = three_geodesic_ball(18)  # overlap 2 < 18/8
    cfg = single_layer(ball, 0, 6)
    assert len(cfg.digons) == 2
    assert [m.interval for m in cfg.digons] == [(0, 4), (2, 6)]
    # consecutive digons may touch; the configuration reports no
    # ordering violations even though the fake cells are invalid
    assert not any("non-consecutive" in v for v in cfg.violations)


def test_single_layer_reports_geodesic_vertices_outside_the_configuration():
    # coverage comes from the base, the cells and the divisor paths: the
    # fabricated cells bear no relator, so both deviations are uncovered
    cfg = single_layer(three_geodesic_ball(16), 0, 6)
    assert [v for v in cfg.violations if "outside" in v] == [
        "geodesic vertices [10, 11, 12] outside the configuration",
        "geodesic vertices [7, 8, 9] outside the configuration",
    ]


def test_abelian_reducer_canonical_on_cosets():
    # the candidate filter is sound only if equal cosets get equal keys:
    # reduce(v) must be invariant under adding lattice vectors
    from hypothesis import given, settings, strategies as st
    import numpy as np
    from randgroups.cayley import _AbelianReducer

    @settings(deadline=None, max_examples=150)
    @given(
        st.integers(0, 10**9),
        st.integers(2, 4),
        st.integers(1, 3),
    )
    def check(seed, rank, n_rel):
        rng = np.random.default_rng(seed)
        relators = []
        length = 6
        while len(relators) < n_rel:
            w = sample_reduced_word(rank, length, rng)
            if w[0] != -w[-1]:
                relators.append(w)
        p = Presentation(rank, relators, length)
        red = _AbelianReducer(p)
        vecs = []
        for r in relators:
            v = [0] * rank
            for x in r:
                v[abs(x) - 1] += 1 if x > 0 else -1
            vecs.append(v)
        base = tuple(int(rng.integers(-5, 6)) for _ in range(rank))
        key = red.reduce(base)
        for _ in range(5):
            coeffs = [int(rng.integers(-3, 4)) for _ in vecs]
            shifted = tuple(
                base[i] + sum(c * v[i] for c, v in zip(coeffs, vecs))
                for i in range(rank)
            )
            assert red.reduce(shifted) == key

    check()


def test_exhaustive_scan_small_sampled_ball():
    # every reliable pair from the identity: geodesics verify, single layer
    # holds, minimizer sets stay small
    p = sample_presentation(DensityParams(3, Fraction(0), 10, 53))
    assert satisfies_cprime(p, Fraction(1, 8))
    ball = build_ball(p, 5)
    digons = []
    for v in range(ball.n_vertices):
        d = int(ball.dist[v])
        if v == 0 or not pair_reliable(ball, 0, v, d):
            continue
        cfg = single_layer(ball, 0, v)
        assert cfg.ok, (v, cfg.violations)
        for m in cfg.digons:
            digons.extend(m.members)
    rep = digon_side_uniqueness(ball, digons)
    assert rep.ok, rep.violations


# -- differential tests against the oracles -------------------------------------


def first_cprime(rank, d, length, lam, seed=0):
    while True:
        p = sample_presentation(DensityParams(rank, Fraction(d), length, seed))
        if satisfies_cprime(p, Fraction(lam)):
            return p
        seed += 1


@pytest.mark.parametrize(
    "p, R, inside",
    [
        (FREE2, 3, True),
        (Presentation(3, [W("abc")]), 2, True),
        (Presentation(4, [W("abcd")]), 2, True),
        (first_cprime(3, 0, 7, Fraction(1, 6)), 3, True),
        (Presentation(3, [W("abc")]), 3, False),
        (Presentation(3, [W("abc")]), 4, False),
    ],
)
def test_build_ball_matches_class_free_oracle(p, R, inside):
    # inside: every word falls in the short window, where relator
    # completion alone certifies; otherwise the class scan and Dehn run too
    if p.relators:
        window = 2 * p.length - 2 * max_piece_length(p).max_piece_length
        assert (2 * R + 1 < window) == inside
    ball = build_ball(p, R)
    words, dist, adj = build_ball_oracle(p, R)
    assert ball.words == words
    assert ball.dist.tolist() == dist
    assert ball.adj.tolist() == adj
    assert ball.index == {w: v for v, w in enumerate(words)}


def word_problem_presentation(l):
    """The word-problem benchmark's presentation of length l: the first
    C'(1/6) rank-2 relator from seed 0 on that is no proper power."""
    s = 0
    while True:
        p = sample_presentation(DensityParams(2, 0, l, s))
        r = p.relators[0]
        if satisfies_cprime(p, Fraction(1, 6)) and all(rotate(r, k) != r for k in range(1, l)):
            return p
        s += 1


@pytest.mark.parametrize(
    "p, R, vertices",
    [
        (word_problem_presentation(16), 8, 13105),               # the torsion query's ball
        (first_cprime(3, 0, 8, Fraction(1, 6)), 5, 4599),        # even l: same-layer identifications
        (first_cprime(3, 0, 10, Fraction(1, 6)), 6, 23327),
        (FREE2, 8, 13121),
        (Presentation(3, [W("abc")]), 4, 511),                   # outside the short window
    ],
)
def test_build_ball_matches_per_word_build(p, R, vertices):
    # the layer arrays and hash lookups against one word at a time with
    # Python words and dicts
    ball = build_ball(p, R)
    words, dist, adj = build_ball_per_word(p, R)
    assert ball.n_vertices == vertices
    assert ball.words == words
    assert ball.dist.tolist() == dist
    assert ball.adj.tolist() == adj
    assert ball.parent.tolist() == [0] + [ball.vertex_of_word(w[:-1]) for w in words[1:]]


def test_build_ball_is_exact_when_hashes_collide(monkeypatch):
    # three bits of hash put most rows of a table in one bucket: every
    # lookup then rests on the letter-by-letter compare
    import numpy as np
    from randgroups import cancellation

    full = cancellation._window_hashes

    def coarse(letters, h, rank):
        return full(letters, h, rank) & np.uint64(7)

    p = first_cprime(3, 0, 8, Fraction(1, 6))
    monkeypatch.setattr(cancellation, "_window_hashes", coarse)
    monkeypatch.setattr(cayley, "_window_hashes", coarse)
    cancellation._relator_halves.cache_clear()
    try:
        ball = build_ball(p, 5)
    finally:
        cancellation._relator_halves.cache_clear()
    words, dist, adj = build_ball_per_word(p, 5)
    assert ball.words == words
    assert ball.dist.tolist() == dist
    assert ball.adj.tolist() == adj


def test_ball_budget_is_checked_before_the_layer_is_made():
    # layer 6 of the free ball would hold 972 more words
    tracemalloc.start()
    try:
        with pytest.raises(BallBudgetExceeded) as exc:
            build_ball(FREE2, 12, max_vertices=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (exc.value.vertices, exc.value.radius_done) == (1000, 5)
    assert peak < 1 << 20


def test_minimizer_scan_matches_oracle(monkeypatch):
    balls = [build_ball(FREE2, 4)]
    balls += [build_ball(first_cprime(3, 0, l, Fraction(1, 6)), 4) for l in (7, 8, 10)]
    two = first_cprime(4, Fraction(1, 25), 9, Fraction(1, 8), seed=500)
    assert two.n_relators == 2
    balls.append(build_ball(two, 4))
    results = []
    for ball in balls:
        checked, violations = _minimizer_scan(ball)
        assert (checked, violations) == minimizer_scan_oracle(ball)
        assert checked > ball.n_vertices
        results.append((checked, violations))
    # blocks of a few sources each: same answer
    monkeypatch.setattr(cayley, "_PAIR_BUDGET", 64)
    assert [_minimizer_scan(ball) for ball in balls] == results


def three_minimizer_ball():
    """A fake radius-3 ball on vertices 1, a, b, aa, c, aaa (0..5) in which
    b and c are adjacent to 1, a and aa, so both see three minimizers on
    the based geodesics of aa and of aaa.  Every pair is reliable."""
    import numpy as np
    from randgroups.cayley import CayleyBall

    V = 6
    adj = -np.ones((V, 6), dtype=np.int32)

    def col(g):
        return (abs(g) - 1) * 2 + (0 if g > 0 else 1)

    def add_edge(x, y, g):
        adj[x, col(g)] = y
        adj[y, col(-g)] = x

    a, b, c = 1, 2, 3
    add_edge(0, 1, a)
    add_edge(1, 3, a)
    add_edge(3, 5, a)
    add_edge(0, 2, b)
    add_edge(2, 1, c)
    add_edge(2, 3, b)
    add_edge(0, 4, c)
    add_edge(4, 1, b)
    add_edge(4, 3, c)
    words = ["", "a", "b", "aa", "c", "aaa"]
    dist = np.array([len(w) for w in words], dtype=np.int32)
    parent = np.array([0, 0, 0, 1, 0, 3], dtype=np.int32)
    return CayleyBall(Presentation(3), 3, padded_codes(words, 3), parent, dist, adj)


def test_minimizer_scan_reports_violations_by_source_then_target():
    ball = three_minimizer_ball()
    assert ball.bfs_from(0).tolist() == ball.dist.tolist()
    expected = [
        "base (0,3), point 2: 3 minimizers",
        "base (0,5), point 2: 3 minimizers",
        "base (0,3), point 4: 3 minimizers",
        "base (0,5), point 4: 3 minimizers",
    ]
    assert _minimizer_scan(ball) == (30, expected)
    assert minimizer_scan_oracle(ball) == (30, expected)
    assert distance_minimizers(ball, [0, 1, 3], 2) == [0, 1, 3]


def geometry_balls():
    """The ball-geometry benchmark's kind of ball (rank 3, R = 4, l = 7, 8,
    10), the l = 8 one at R = 5 (where geodesics go on past the far corner
    of a relator cycle, keeping both routes), a rank-3 l = 10 ball at
    R = 5, a rank-4 two-relator C'(1/8) ball at l = 10 and R = 5, and the
    fabricated three-geodesic ball, whose cells are invalid."""
    balls = [build_ball(first_cprime(3, 0, l, Fraction(1, 6)), 4) for l in (7, 8, 10)]
    balls.append(build_ball(balls[1].presentation, 5))
    balls.append(build_ball(sample_presentation(DensityParams(3, Fraction(0), 10, 53)), 5))
    two = first_cprime(4, Fraction(1, 25), 10, Fraction(1, 8), seed=500)
    assert two.n_relators == 2
    balls.append(build_ball(two, 5))
    balls.append(three_geodesic_ball(16))
    return balls


def test_geodesic_counts_match_all_geodesics():
    for ball in geometry_balls():
        counts = cayley._geodesic_counts(ball)
        assert counts.tolist() == [
            min(len(all_geodesics(ball, 0, v)), 2) for v in range(ball.n_vertices)
        ]


def test_geometry_scan_matches_per_vertex_oracle():
    reports = []
    for ball in geometry_balls():
        rep = geometry_scan(ball)
        assert rep == geometry_scan_oracle(ball)
        assert rep.pairs_checked == ball.n_vertices - 1
        reports.append(rep)
    # the even-length relator balls that close a relator cycle have
    # multi-geodesic pairs (l = 10 at R = 4 is free, and an odd cycle makes
    # no two geodesics of equal length); the fabricated ball's three
    # multi-geodesic vertices 4, 5, 6 report their violations
    assert [rep.multi_geodesic_pairs for rep in reports] == [0, 8, 0, 72, 10, 20, 3]
    assert all(not rep.violations for rep in reports[:-1])
    assert reports[-1].violations
