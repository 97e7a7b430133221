import tracemalloc
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randgroups.words import Word, TemplateWord, Presentation, substitute, free_reduce, rotate
from randgroups.sampler import DensityParams, sample_presentation, sample_reduced_word, stream
from randgroups.cancellation import satisfies_cprime, _dehn_index, _prefix_sizes, _relator_halves
from randgroups.cayley import build_ball
from randgroups.sentences import (
    parse_sentence,
    to_clausal,
    refute_on_ball_group,
    refute_sentence,
    triangularize,
    extend_solution,
    max_occurrences,
    EquationalClause,
    SentenceSyntaxError,
    BudgetExceeded,
    _BLOCK_ROWS,
    _falsified_blocks,
    _holds_half,
    _tuple_blocks,
)

from oracles import dedup_in_group_oracle, enumerate_reduced_words, eval_clause_group, _tuples_in_order


def W(s):
    return Word.from_text(s)


def T(s):
    return TemplateWord.from_text(s)


F2 = Presentation(2)  # the free group of rank 2
SC = sample_presentation(DensityParams(2, Fraction(0), 16, 306))  # C'(1/6) verified below
SC_RANK3 = Presentation(3, [W("aaCAccB")])  # C'(1/6), l = 7


# -- parsing ------------------------------------------------------------------


def test_parse_implication():
    s = parse_sentence("x x = 1 -> x = 1")
    assert len(s.clauses) == 1
    c = s.clauses[0]
    assert len(c.hypotheses) == 1 and len(c.disjuncts) == 1
    assert c.hypotheses[0].word == T("x x")
    assert c.disjuncts[0].word == T("x")
    assert s.variables == ("x",)


def test_parse_single_equation():
    s = parse_sentence("x y ~x ~y = 1")
    c = s.clauses[0]
    assert c.hypotheses == ()
    assert c.disjuncts[0].word == T("x y ~x ~y")
    assert s.variables == ("x", "y")


def test_parse_grouped_clause():
    s = parse_sentence("( v = 1 & u = 1 ) -> ( w = 1 | t = 1 )")
    c = s.clauses[0]
    assert len(c.hypotheses) == 2
    assert len(c.disjuncts) == 2


def test_parse_conjunction_of_clauses():
    s = parse_sentence("x = 1 -> x x = 1 & y y = 1 -> y = 1")
    assert len(s.clauses) == 2


def test_parse_round_trip():
    texts = [
        "x x = 1 -> x = 1",
        "x y ~x ~y = 1",
        "( v = 1 & u = 1 ) -> ( w = 1 | t = 1 )",
        "x != 1 | x x x = 1",
        "x a ~x B = 1 -> x = 1",
    ]
    for t in texts:
        s = parse_sentence(t)
        assert parse_sentence(s.text()) == s


def test_parse_errors():
    for bad in ["x =", "x = 2", "-> x = 1", "x = 1 |", "( x = 1 & y = 1 | z = 1 )", "k = 1"]:
        with pytest.raises(SentenceSyntaxError):
            parse_sentence(bad)


# -- clausal form -------------------------------------------------------------


def test_to_clausal_commutator():
    s = parse_sentence("x y ~x ~y = 1")
    [c] = to_clausal(s)
    assert c.system == ()
    assert c.conclusions == (T("x y ~x ~y"),)


def test_to_clausal_polarity_flip():
    s = parse_sentence("x x = 1 | x != 1")
    [c] = to_clausal(s)
    assert c.system == (T("x"),)
    assert c.conclusions == (T("x x"),)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9))
def test_to_clausal_preserves_truth(seed):
    rng = stream(seed)
    texts = [
        "x x = 1 -> x = 1",
        "x y ~x ~y = 1 | x != 1",
        "( x = 1 & y y = 1 ) -> ( x y = 1 | y != 1 )",
        "x y = 1 -> y x = 1",
    ]
    text = texts[seed % len(texts)]
    s = parse_sentence(text)
    clauses = to_clausal(s)
    for _ in range(25):
        a = {
            v: sample_reduced_word(2, int(rng.integers(1, 5)), rng) if rng.integers(0, 4) else Word()
            for v in s.variables
        }
        direct = all(
            (not all(len(substitute(l.word, a)) == 0 for l in c.hypotheses if l.positive)
             or any(len(substitute(l.word, a)) != 0 for l in c.hypotheses if not l.positive))
            or any(len(substitute(l.word, a)) == 0 for l in c.disjuncts if l.positive)
            or any(len(substitute(l.word, a)) != 0 for l in c.disjuncts if not l.positive)
            for c in s.clauses
        )
        assert direct == all(eval_clause_group(c, a, F2) for c in clauses)


_sentence_tokens = st.sampled_from(
    ["x", "y", "z1", "a", "B", "~", "~x", "=", "!=", "1", "->", "&", "|", "(", ")",
     " ", "k", "x1y", "a2", "-", "!", "0"]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_sentence_tokens, max_size=14).map("".join) | st.text(max_size=30))
def test_parse_sentence_raises_only_value_error(text):
    """Any text either parses or raises a ValueError subclass."""
    try:
        parse_sentence(text)
    except ValueError:
        pass


# -- evaluation ---------------------------------------------------------------


def test_eval_clause_free_examples():
    [c] = to_clausal(parse_sentence("x x = 1 -> x = 1"))
    assert eval_clause_group(c, {"x": W("a")}, F2)       # hypothesis fails
    assert eval_clause_group(c, {"x": Word()}, F2)        # conclusion holds
    [c2] = to_clausal(parse_sentence("x y ~x ~y = 1"))
    assert not eval_clause_group(c2, {"x": W("a"), "y": W("b")}, F2)


def test_refute_on_ball_free_commutator():
    [c] = to_clausal(parse_sentence("x y ~x ~y = 1"))
    w = refute_on_ball_group(c, F2, 1)
    assert w == {"x": W("a"), "y": W("b")}
    assert not eval_clause_group(c, w, F2)


def test_refute_on_ball_free_torsion_none():
    [c] = to_clausal(parse_sentence("x x = 1 -> x = 1"))
    assert refute_on_ball_group(c, F2, 3) is None


def test_refute_monotone_in_L():
    [c] = to_clausal(parse_sentence("x y ~x ~y = 1"))
    w1 = refute_on_ball_group(c, F2, 1)
    w2 = refute_on_ball_group(c, F2, 2)
    assert w1 is not None and w2 is not None
    assert not eval_clause_group(c, w1, F2)
    assert not eval_clause_group(c, w2, F2)


def test_refute_against_double_loop_oracle():
    [c] = to_clausal(parse_sentence("x x x = 1 -> x = 1"))
    # independent double-loop evaluation at L = 2
    found = None
    for x in enumerate_reduced_words(2, 2):
        cube = free_reduce(x.concat(x).concat(x))
        if len(cube) == 0 and len(x) != 0:
            found = x
            break
    assert (refute_on_ball_group(c, F2, 2) is None) == (found is None)


def test_refute_on_ball_of_radius_zero():
    # the universe of L = 0 is the identity alone; a negative L is an error
    [c] = to_clausal(parse_sentence("x y ~x ~y = 1"))
    assert refute_on_ball_group(c, F2, 0) is None
    [nontrivial] = to_clausal(parse_sentence("x = 1"))
    assert refute_on_ball_group(nontrivial, F2, 0) is None
    assert refute_on_ball_group(nontrivial, SC, 1) == {"x": W("a")}
    with pytest.raises(ValueError):
        refute_on_ball_group(c, F2, -1)


def test_budget_exceeded():
    [c] = to_clausal(parse_sentence("x y ~x ~y = 1"))
    with pytest.raises(BudgetExceeded):
        refute_on_ball_group(c, F2, 3, budget=10)
    # the budget counts tuples exactly: 5 words of length <= 1 make 25 pairs
    assert refute_on_ball_group(c, F2, 1, budget=25) is not None
    with pytest.raises(BudgetExceeded):
        refute_on_ball_group(c, F2, 1, budget=24)


def test_budget_checked_before_tuples_are_allocated():
    # 53^3 = 148877 triples over the rank-2 words of length <= 3: over
    # 10 MB if materialised; the budget must fire before any of them exist
    universe = enumerate_reduced_words(2, 3)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as exc:
            next(_tuples_in_order(universe, 3, budget=1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.examined == len(universe) ** 3
    assert peak < 1 << 20


@pytest.mark.parametrize("p", [F2, SC], ids=["free", "relator"])
def test_over_budget_ball_raises_budget_exceeded(p):
    # the ball is built under the tuple budget: at L = 9 it would hold
    # about 4 * 10^4 words, but only about 100 (10^4 pairs) are made
    [c] = to_clausal(parse_sentence("x y ~x ~y = 1"))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as exc:
            refute_on_ball_group(c, p, 9, budget=10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.examined > 10_000
    assert peak < 1 << 20


def _sorted_product(universe, k):
    """Every k-tuple of the universe, sorted by total length, then index."""
    tuples = sorted(
        product(range(len(universe)), repeat=k),
        key=lambda t: (sum(len(universe[i]) for i in t), t),
    )
    return [tuple(universe[i] for i in t) for t in tuples]


def test_tuples_in_order_matches_sorted_product():
    for n, L, ks in ((2, 0, range(4)), (2, 1, range(5)), (2, 2, range(4)), (2, 3, range(3)),
                     (2, 4, range(3)), (3, 1, range(5)), (3, 2, range(4)), (3, 4, range(2))):
        universe = build_ball(Presentation(n), L).words if L else [Word()]
        for k in ks:
            assert list(_tuples_in_order(universe, k, None)) == _sorted_product(universe, k), (n, L, k)
    # lengths of uneven multiplicity: 1, 4, 3, 2 and 1 words of length 0..4
    words = enumerate_reduced_words(3, 4)
    universe = [w for n in range(5) for w in [w for w in words if len(w) == n][: max(1, 5 - n)]]
    for k in range(5):
        assert list(_tuples_in_order(universe, k, None)) == _sorted_product(universe, k), k


def _block_tuples(universe, k):
    """Every tuple of _tuple_blocks over the universe, and its blocks' sizes."""
    blocks = list(_tuple_blocks(np.array([len(w) for w in universe]), k))
    rows = [row for b in blocks for row in b.tolist()]
    return [tuple(universe[i] for i in row) for row in rows], [len(b) for b in blocks]


def test_tuple_blocks_match_sorted_product():
    for n, L, ks in ((2, 0, range(4)), (2, 1, range(5)), (2, 2, range(4)), (2, 3, range(3)),
                     (2, 4, range(3)), (3, 1, range(5)), (3, 2, range(4)), (3, 4, range(2))):
        universe = build_ball(Presentation(n), L).words if L else [Word()]
        for k in ks:
            tuples, sizes = _block_tuples(universe, k)
            assert tuples == _sorted_product(universe, k), (n, L, k)
            assert max(sizes) <= _BLOCK_ROWS
    # 161^2 pairs: the totals 6, 7 and 8 hold more than one block each
    assert len(_block_tuples(build_ball(Presentation(2), 4).words, 2)[1]) > 9
    words = enumerate_reduced_words(3, 4)
    universe = [w for n in range(5) for w in [w for w in words if len(w) == n][: max(1, 5 - n)]]
    for k in range(5):
        assert _block_tuples(universe, k)[0] == _sorted_product(universe, k), k


def test_tuples_are_made_lazily():
    # 161^4 = 6.7 * 10^8 tuples of rank-2 words of length <= 4: the first
    # ones come without the rest being made
    universe = enumerate_reduced_words(2, 4)
    blocks = _tuple_blocks(np.array([len(w) for w in universe]), 4)
    first = [tuple(universe[i] for i in row) for b in islice(blocks, 2) for row in b.tolist()][:6]
    assert first == _sorted_product(universe[:5], 4)[:6]


def _fixed_presentation(l):
    """The word-problem benchmark's presentation of length l: the first
    C'(1/6) rank-2 relator from seed 0 on that is no proper power."""
    s = 0
    while True:
        p = sample_presentation(DensityParams(2, 0, l, s))
        r = p.relators[0]
        if satisfies_cprime(p, Fraction(1, 6)) and all(rotate(r, k) != r for k in range(1, l)):
            return p
        s += 1


def _criterion_10a_presentations(count):
    """The first C'(1/8) rank-2 presentations of length 17 by seed, as
    acceptance criterion 10a draws them."""
    out, seed = [], 0
    while len(out) < count:
        p = sample_presentation(DensityParams(2, Fraction(0), 17, seed))
        if satisfies_cprime(p, Fraction(1, 8)):
            out.append(p)
        seed += 1
    return out


def _half_clause(p):
    """x r y = 1 with r the relator less its last 6 letters, more than
    half of it: every reduced word of the literal holds a relator half."""
    return to_clausal(parse_sentence(f"x {' '.join(Word(p.relators[0][:-6]).text())} y = 1"))[0]


_DIFFERENTIAL_CLAUSES = [
    ("x y ~x ~y = 1", 3),                                   # inverse occurrences
    ("x x = 1 -> x = 1", 3),
    ("x y x ~y ~x ~y = 1 -> x ~y = 1", 3),                  # the benchmark's braid
    ("( x = 1 & y y = 1 ) -> ( x y = 1 | y != 1 )", 3),     # two hypotheses, a disjunction
    ("x != 1 | x x x = 1", 3),                              # a != literal
    ("x a ~x B = 1 -> ( x = 1 | x b = 1 )", 3),             # generator constants
    ("a b ~a ~b = 1", 3),                                   # k = 0, false
    ("b ~b a ~a = 1 | a != 1", 3),                          # k = 0, true
    ("x y z = 1 -> z y x = 1", 1),                          # k = 3
    ("( x y ~x ~y = 1 & y z = 1 ) -> x z ~x ~z = 1", 2),
]


def _check_blocks_against_oracle(c, p, L):
    """Every tuple's block verdict equals eval_clause_group's, the tuples
    come in the oracle's order, and refute_on_ball_group returns the first
    falsifying one.  Returns (tuples, falsified)."""
    vars_ = c.variables()
    if L and vars_:
        ball = build_ball(p, L)
        universe, codes, lengths = ball.words, ball.codes, ball.dist
    else:
        universe, codes, lengths = [Word()], np.zeros((1, 0), np.int8), np.zeros(1, np.int32)
    tuples, verdicts = [], []
    for block, bad in _falsified_blocks(c, p, codes, lengths):
        falsified = np.zeros(len(block), bool)
        falsified[bad] = True
        for row, f in zip(block.tolist(), falsified.tolist()):
            tuples.append(tuple(universe[i] for i in row))
            verdicts.append(f)
    assert tuples == list(_tuples_in_order(universe, len(vars_), None))
    oracle = [not eval_clause_group(c, dict(zip(vars_, t)), p) for t in tuples]
    assert verdicts == oracle, c
    first = next((dict(zip(vars_, t)) for t, f in zip(tuples, oracle) if f), None)
    assert refute_on_ball_group(c, p, L) == first
    return len(tuples), sum(oracle)


def test_block_verdicts_match_per_tuple_oracle():
    presentations = [Presentation(2), Presentation(3), *_criterion_10a_presentations(2),
                     _fixed_presentation(16), _fixed_presentation(24)]
    for p in presentations:
        for text, L in _DIFFERENTIAL_CLAUSES:
            (c,) = to_clausal(parse_sentence(text))
            _check_blocks_against_oracle(c, p, L)


def test_screen_reads_every_window_that_fits():
    # row 0 ends in the first floor(l/2) + 1 letters of the relator; row 1
    # holds the same letters but ends one short, so that window is stale
    p = _fixed_presentation(16)
    h = _prefix_sizes(p.length)[-1]
    keys = _relator_halves(p, h)[0]
    r = p.relators[0]
    g = next(x for x in (1, -1, 2, -2) if x != -r[0] and (x, *r[: h - 1]) not in _dehn_index(p))
    letters = np.array([[g, *r[:h]]] * 2, np.int8)
    n = np.array([h + 1, h])
    assert _holds_half(letters, n, keys, h, p.rank).tolist() == [True, False]
    free_keys = _relator_halves(Presentation(2), 0)[0]
    assert _holds_half(letters, n, free_keys, h, 2).tolist() == [False, False]


def test_relator_half_reaches_is_trivial(monkeypatch):
    # x = the relator's last 3 letters and y the 3 before them make x r y
    # a rotation of the relator: trivial, though the screen finds only a
    # window of a relator half in it, so is_trivial must decide it
    from randgroups import sentences

    calls = []
    real = sentences.is_trivial

    def counted(w, p):
        calls.append(w)
        return real(w, p)

    monkeypatch.setattr(sentences, "is_trivial", counted)
    for p in (_fixed_presentation(16), *_criterion_10a_presentations(1)):
        c = _half_clause(p)
        r = p.relators[0]
        x, y = Word(r[-3:]), Word(r[-6:-3])
        assert {x, y} <= set(build_ball(p, 3).words)
        assert eval_clause_group(c, {"x": x, "y": y}, p)
        n, falsified = _check_blocks_against_oracle(c, p, 3)
        assert 0 < falsified < n
    assert calls


def test_ball_universe_matches_oracles():
    # the refutation universe is the ball's words: in the free group, the
    # reduced words by (length, letters); with a relator, the first word
    # of each group element in that order (14 of 937 words identified)
    for n, top in ((2, 5), (3, 5), (4, 4)):
        for L in range(1, top + 1):
            assert build_ball(Presentation(n), L).words == enumerate_reduced_words(n, L)
    assert satisfies_cprime(SC_RANK3, Fraction(1, 6))
    words = enumerate_reduced_words(3, 4)
    dedup = dedup_in_group_oracle(words, SC_RANK3)
    assert (len(words), len(dedup)) == (937, 923)
    assert build_ball(SC_RANK3, 4).words == dedup


def test_group_refutation_on_sampled_presentation():
    assert satisfies_cprime(SC, Fraction(1, 6))
    [c] = to_clausal(parse_sentence("x y ~x ~y = 1"))
    w = refute_on_ball_group(c, SC, 1)
    assert w is not None
    assert not eval_clause_group(c, w, SC)


def test_group_no_torsion_witness():
    assert satisfies_cprime(SC, Fraction(1, 6))
    [c] = to_clausal(parse_sentence("x x = 1 -> x = 1"))
    assert refute_on_ball_group(c, SC, 3) is None


def test_identity_assignment_satisfies_variable_products():
    [c] = to_clausal(parse_sentence("x y = 1 -> x y x y = 1"))
    a = {"x": Word(), "y": Word()}
    assert eval_clause_group(c, a, SC)


def test_refute_sentence_interface():
    s = parse_sentence("x y ~x ~y = 1")
    hit = refute_sentence(s, F2, 1)
    assert hit is not None
    clause, witness = hit
    assert not eval_clause_group(clause, witness, F2)
    s_true = parse_sentence("x x = 1 -> x = 1")
    assert refute_sentence(s_true, F2, 2) is None
    assert refute_sentence(s_true, SC, 2) is None


# -- triangular systems ---------------------------------------------------------


def test_split_four_letter_equation():
    from randgroups.sentences import split_long_equations

    eqs, variables, defining = split_long_equations([T("x1 x2 x3 x4")])
    assert [tuple(e) for e in eqs] == [
        (("x1", 1), ("x2", 1), ("z1", -1)),
        (("z1", 1), ("x3", 1), ("x4", 1)),
    ]
    assert defining["z1"] == T("x1 x2")


def test_triangularize_prunes_all_single_occurrences():
    # every variable occurs once: the system is always solvable, so the
    # pruning pass eliminates every equation
    T_ = triangularize([T("x1 x2 x3 x4")])
    assert T_.equations == []
    assert len(T_.eliminated) == 2
    lifted = extend_solution(T_, {}, ["x1", "x2", "x3", "x4"])
    assert len(substitute(T("x1 x2 x3 x4"), lifted)) == 0


def test_triangularize_duplicate_unchanged():
    T_ = triangularize([T("x1 x2 x3"), T("x1 x2 x3")])
    assert all(len(eq) <= 3 for eq in T_.equations)
    assert len(T_.equations) == 2


def test_triangularize_prunes_single_occurrence():
    # y occurs once: its equation is removable
    T_ = triangularize([T("x x y"), T("x x x")])
    counts = {}
    for eq in T_.equations:
        for v, _ in eq:
            counts[v] = counts.get(v, 0) + 1
    assert all(c >= 2 for c in counts.values())
    assert len(T_.eliminated) >= 1


def test_max_occurrences_examples():
    T1 = triangularize([T("x y z"), T("x u v")])
    # pruning may remove both equations (y,z,u,v singles); count before prune
    T2 = TriangularSystem_like([T("x x x")])
    assert max_occurrences(T2) == 3


def TriangularSystem_like(eqs):
    from randgroups.sentences import TriangularSystem

    return TriangularSystem(list(eqs), sorted({v for e in eqs for v, _ in e}))


def test_max_occurrences_against_tally():
    from randgroups.sentences import TriangularSystem

    rng = stream(5)
    for _ in range(30):
        eqs = []
        for _ in range(int(rng.integers(1, 5))):
            k = int(rng.integers(1, 4))
            items = tuple(
                (f"x{int(rng.integers(1, 5))}", 1 if rng.integers(0, 2) else -1) for _ in range(k)
            )
            eqs.append(TemplateWord(items))
        T_ = TriangularSystem(eqs, [])
        tally = {}
        for eq in eqs:
            for v, _ in eq:
                tally[v] = tally.get(v, 0) + 1
        assert max_occurrences(T_) == max(tally.values())


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10**9))
def test_triangularize_solution_correspondence(seed):
    rng = stream(seed)
    # random system over x1..x4
    system = []
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, 7))
        items = tuple(
            (f"x{int(rng.integers(1, 5))}", 1 if rng.integers(0, 2) else -1) for _ in range(k)
        )
        from randgroups.words import template_reduce

        eq = template_reduce(TemplateWord(items))
        if eq:
            system.append(eq)
    if not system:
        return
    original_vars = sorted({v for eq in system for v, _ in eq})
    T_ = triangularize(system)
    assert all(len(eq) <= 3 for eq in T_.equations)
    counts = {}
    for eq in T_.equations:
        for v, _ in eq:
            counts[v] = counts.get(v, 0) + 1
    assert all(c >= 2 for c in counts.values())

    for _ in range(10):
        # forward: a solution of the source extends to the output
        a = {v: sample_reduced_word(2, int(rng.integers(1, 4)), rng) for v in original_vars}
        if all(len(substitute(eq, a)) == 0 for eq in system):
            ext = dict(a)
            for z, defn in T_.defining.items():
                ext[z] = substitute(defn, ext)
            assert all(len(substitute(eq, ext)) == 0 for eq in T_.equations)
        # backward: a solution of the output lifts to the source
        b = {v: sample_reduced_word(2, int(rng.integers(1, 4)), rng) for v in T_.variables}
        if all(len(substitute(eq, b)) == 0 for eq in T_.equations):
            lifted = extend_solution(T_, b, original_vars)
            assert all(len(substitute(eq, lifted)) == 0 for eq in system)
