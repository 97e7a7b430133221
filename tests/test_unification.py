from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from randgroups.words import Word, TemplateWord, substitute, free_reduce, invert
from randgroups.sampler import DensityParams, sample_presentation, sample_reduced_word, stream
from randgroups.cancellation import satisfies_cprime, is_trivial
from randgroups.sentences import TriangularSystem, triangularize
from randgroups.unification import (
    Segment,
    Double,
    IntervalLayout,
    Piece,
    build_layout,
    unify_positions,
    UnificationConflict,
    boundary_decoration,
    prune_singletons,
    relator_decoration,
    Decoration,
    PreDecoration,
    AllRemoved,
    SingletonWitness,
    RelatorDecoration,
    build_parametric_system,
    default_shape,
    solution_template,
    free_letter_bound,
    fulfill_probability_bound,
    _SignedUF,
)
from oracles import adjacent_merge_oracle, transitive_closure_unify


def T(s):
    return TemplateWord.from_text(s)


def layout_relations(layout):
    """Expand a layout's doubles into unit relations for the oracle."""
    rels = []
    for d in layout.doubles:
        a0 = layout.segments[d.seg_a].start + d.off_a
        b0 = layout.segments[d.seg_b].start + d.off_b
        for t in range(d.length):
            if d.reversed_:
                rels.append((a0 + t, b0 + d.length - 1 - t, -1))
            else:
                rels.append((a0 + t, b0 + t, 1))
    return rels


def partitions_from_alphabet(alphabet):
    """(labels, signs) per position, matching the oracle's output shape."""
    labels = [None] * alphabet.total
    signs = [0] * alphabet.total
    occ = alphabet.occurrence_map()
    for pos in range(alphabet.total):
        pi, t, s = occ[pos]
        labels[pos] = (pi, t if s > 0 else alphabet.pieces[pi].length - 1 - t)
        signs[pos] = s
    return labels, signs


def same_partition(labels_a, labels_b):
    seen = {}
    for a, b in zip(labels_a, labels_b):
        if a in seen:
            if seen[a] != b:
                return False
        else:
            seen[a] = b
    back = {}
    for b, a in zip(labels_b, labels_a):
        if b in back:
            if back[b] != a:
                return False
        else:
            back[b] = a
    return True


def test_layout_two_occurrences_same_orientation():
    layout = build_layout([T("x x")], {"x": 2})
    assert [s.symbol for s in layout.segments] == ["x", "x"]
    assert len(layout.doubles) == 1
    d = layout.doubles[0]
    assert not d.reversed_ and d.length == 2


def test_layout_inverse_occurrence_reversed():
    layout = build_layout([T("x ~x")], {"x": 2})
    assert layout.doubles[0].reversed_


def test_unify_doubled_variable_merges_to_one_piece():
    layout = build_layout([T("x x")], {"x": 2})
    alphabet = unify_positions(layout)
    # both occurrences of x forced to carry the same two letters; the
    # adjacent pairs merge into one piece of length 2 occurring twice
    assert sorted((p.length, p.multiplicity()) for p in alphabet.pieces) == [(2, 2)]


def test_unify_palindrome_conflict():
    # a unit identified with its own reverse
    seg = Segment("x", 1, 1, 0)
    layout = IntervalLayout([seg], [Double(0, 0, 0, 0, 1, True)])
    with pytest.raises(UnificationConflict):
        unify_positions(layout)


def test_unify_odd_palindrome_conflict_via_chain():
    # x identified with ~x at odd length forces the middle unit onto itself
    layout = IntervalLayout(
        [Segment("x", 1, 3, 0), Segment("x", -1, 3, 3)],
        [Double(0, 0, 1, 0, 3, True), Double(0, 0, 1, 0, 3, False)],
    )
    with pytest.raises(UnificationConflict):
        unify_positions(layout)


def test_unify_chain_transitivity():
    # x = y and y = z through shared doubles: one piece spans all three
    layout = IntervalLayout(
        [Segment("x", 1, 2, 0), Segment("y", 1, 2, 2), Segment("z", 1, 2, 4)],
        [Double(0, 0, 1, 0, 2, False), Double(1, 0, 2, 0, 2, False)],
    )
    alphabet = unify_positions(layout)
    assert sorted((p.length, p.multiplicity()) for p in alphabet.pieces) == [(2, 3)]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9))
def test_unify_matches_transitive_closure_oracle(seed):
    rng = stream(seed)
    n_vars = int(rng.integers(1, 5))
    names = [f"x{i+1}" for i in range(n_vars)]
    lengths = {v: int(rng.integers(1, 5)) for v in names}
    eqs = []
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, 4))
        items = tuple(
            (names[int(rng.integers(0, n_vars))], 1 if rng.integers(0, 2) else -1)
            for _ in range(k)
        )
        eqs.append(TemplateWord(items))
    layout = build_layout(eqs, lengths)
    if layout.total == 0:
        return
    rels = layout_relations(layout)
    try:
        expected_labels, expected_signs = transitive_closure_unify(layout.total, rels)
        conflict = False
    except ValueError:
        conflict = True
    if conflict:
        with pytest.raises(UnificationConflict):
            unify_positions(layout)
        return
    alphabet = unify_positions(layout)
    labels, signs = partitions_from_alphabet(alphabet)
    assert same_partition(labels, expected_labels)
    # signs agree up to a per-component global flip
    flip = {}
    for pos in range(layout.total):
        c = expected_labels[pos]
        rel = signs[pos] * expected_signs[pos]
        if c in flip:
            assert flip[c] == rel
        else:
            flip[c] = rel
    # pieces partition the positions
    assert sum(p.length * p.multiplicity() for p in alphabet.pieces) == layout.total


def test_unify_long_chain_has_no_recursion_limit():
    # one double shifting a 5000-position segment by one chains every
    # position to the next; a recursive find once overflowed the stack here
    n = 5000
    layout = IntervalLayout([Segment("x", 1, n, 0)], [Double(0, 0, 0, 1, n - 1, False)])
    alphabet = unify_positions(layout)
    assert [(p.length, p.occurrences) for p in alphabet.pieces] == [(1, [(i, 1) for i in range(n)])]


def test_signed_union_find_deep_path_is_compressed():
    n = 5000
    uf = _SignedUF(n)
    uf.parent = [min(i + 1, n - 1) for i in range(n)]  # a bare chain 0 -> 1 -> ... -> n-1
    uf.sign = [-1] * (n - 1) + [1]
    assert uf.find(0) == (n - 1, (-1) ** (n - 1))
    assert all(uf.parent[i] == n - 1 for i in range(n))
    assert [uf.find(i)[1] for i in range(n)] == [(-1) ** (n - 1 - i) for i in range(n)]
    uf.union(0, n - 1, -1)  # consistent with the chain's signs: no conflict
    with pytest.raises(UnificationConflict):
        uf.union(0, n - 1, 1)


def test_signed_union_find_joins_by_size():
    uf = _SignedUF(6)
    uf.union(0, 1, 1)
    uf.union(0, 2, -1)
    uf.union(0, 3, 1)  # the singleton 3 hangs under the larger tree
    assert uf.find(3)[0] == uf.find(0)[0] != 3
    assert uf.find(3)[1] == uf.find(0)[1] == -uf.find(2)[1]


def test_boundary_decoration_every_piece_doubled():
    layout = build_layout([T("x x")], {"x": 2})
    alphabet = unify_positions(layout)
    dec = boundary_decoration(alphabet, [(0, 4)])
    assert isinstance(dec, Decoration)
    assert all(m >= 2 for m in dec.multiplicity.values())


def test_boundary_decoration_singleton():
    layout = build_layout([T("x x y")], {"x": 2, "y": 3})
    alphabet = unify_positions(layout)
    dec = boundary_decoration(alphabet, [(0, 7)])
    assert isinstance(dec, PreDecoration)
    assert len(dec.singletons) == 1


def test_boundary_decoration_multiplicity_tally():
    layout = build_layout([T("x y x y")], {"x": 1, "y": 2})
    alphabet = unify_positions(layout)
    dec = boundary_decoration(alphabet, [(0, 6)])
    # independent tally: count each piece's occurrences in the intervals
    tally = {}
    for _, _, pi, _ in dec.intervals:
        tally[pi] = tally.get(pi, 0) + 1
    assert tally == dec.multiplicity


def test_prune_singletons_identity_when_clean():
    layout = build_layout([T("x x")], {"x": 2})
    alphabet = unify_positions(layout)
    dec = boundary_decoration(alphabet, [(0, 4)])
    out, removed = prune_singletons(dec, [((0, 4), 0)])
    assert removed == []
    assert isinstance(out, Decoration)


def test_prune_singletons_removes_component():
    # component 0 boundary: positions of x,x (doubled); component 1: y once
    layout = build_layout([T("x x"), T("y y"), T("u")], {"x": 2, "y": 1, "u": 3})
    alphabet = unify_positions(layout)
    pre = boundary_decoration(alphabet, [(0, 4), (6, 9)])
    assert isinstance(pre, PreDecoration)
    out, removed = prune_singletons(pre, [((0, 4), 0), ((6, 9), 1)])
    assert removed == [1]
    assert isinstance(out, Decoration)
    assert all(m >= 2 for m in out.multiplicity.values())


def test_prune_singletons_all_removed():
    layout = build_layout([T("x y")], {"x": 2, "y": 3})
    alphabet = unify_positions(layout)
    pre = boundary_decoration(alphabet, [(0, 5)])
    assert isinstance(pre, PreDecoration)
    out, removed = prune_singletons(pre, [((0, 5), 0)])
    assert isinstance(out, AllRemoved)
    assert removed == [0]


def test_prune_order_confluence_small():
    # two components each carrying a singleton: any removal order ends AllRemoved
    layout = build_layout([T("x"), T("y")], {"x": 2, "y": 2})
    alphabet = unify_positions(layout)
    pre = boundary_decoration(alphabet, [(0, 2), (2, 4)])
    out, removed = prune_singletons(pre, [((0, 2), 0), ((2, 4), 1)])
    assert isinstance(out, AllRemoved)
    assert set(removed) == {0, 1}


def test_relator_decoration_two_faces_matched():
    # two faces bearing relators 0 and 1; a boundary piece appears on both,
    # and the internal shared edge matches a stretch of each
    out = relator_decoration(
        2,
        6,
        [
            [(0, 0, 1, 3), (1, 0, 1, 3)],   # piece on both relators
            [(0, 3, 1, 3), (1, 3, 1, 3)],   # second piece likewise
        ],
    )
    assert isinstance(out, RelatorDecoration)
    assert all(p.multiplicity() >= 2 for p in out.alphabet.pieces)


def test_relator_decoration_singleton_witness():
    # relator 0 is internally matched; relator 1 is touched only once by
    # anything, so its stretch survives as a once-used piece
    out = relator_decoration(
        2,
        6,
        [
            [(0, 0, 1, 3), (0, 3, 1, 3)],
        ],
    )
    assert isinstance(out, SingletonWitness)
    assert out.relator == 1


def test_relator_decoration_multiplicity_tally():
    out = relator_decoration(
        1,
        6,
        [
            [(0, 0, 1, 3), (0, 3, 1, 3)],
        ],
    )
    assert isinstance(out, RelatorDecoration)
    assert sum(p.length * p.multiplicity() for p in out.alphabet.pieces) == 6


def test_relator_decoration_checks_coordinates_before_unifying():
    # the first matching glues position 0 to its own reverse, the second
    # leaves the relators: the range error is raised, not the conflict
    with pytest.raises(ValueError) as e:
        relator_decoration(1, 2, [], [((0, 0), (0, 0), 1, True), ((0, 1), (5, 0), 1, False)])
    assert type(e.value) is ValueError
    assert str(e.value) == "relator coordinate out of range"
    # a span of length 0 adds nothing and is not checked
    out = relator_decoration(1, 2, [], [((0, 0), (0, 1), 1, False), ((7, 9), (0, 0), 0, False)])
    assert [(p.length, p.occurrences) for p in out.alphabet.pieces] == [(1, [(0, 1), (1, 1)])]


def test_relator_decoration_checks_a_lone_occurrence():
    # a piece's only occurrence, at relator 9 of 1, lies outside the relators
    with pytest.raises(ValueError, match="relator coordinate out of range"):
        relator_decoration(1, 4, [[(9, 9, 1, 2)]])
    # a zero-length lone occurrence adds nothing and is not checked
    out = relator_decoration(1, 4, [[(9, 9, 1, 0)]])
    assert isinstance(out, SingletonWitness)


@pytest.mark.parametrize("sign", [0, 2, -3])
def test_relator_decoration_rejects_a_sign_other_than_one(sign):
    with pytest.raises(ValueError, match="sign"):
        relator_decoration(1, 4, [[(0, 0, 1, 2), (0, 2, sign, 2)]])
    with pytest.raises(ValueError, match="sign"):
        relator_decoration(1, 4, [[(0, 0, sign, 2)]])


# -- the chain merge against the pairwise merge oracle ------------------------


def oracle_alphabet(layout):
    """Unit pieces from the closure oracle, merged by the pairwise oracle;
    raises ValueError on a forced a = a^-1."""
    labels, signs = transitive_closure_unify(layout.total, layout_relations(layout))
    classes = {}
    for pos, (c, s) in enumerate(zip(labels, signs)):
        classes.setdefault(c, []).append((pos, s))  # the first member reads forward
    units = [Piece(1, members) for members in classes.values()]
    return adjacent_merge_oracle(units, layout.total, layout.walls())


def as_pairs(alphabet):
    return [(p.length, p.occurrences) for p in alphabet.pieces]


def criterion_08_layouts(rng, count):
    """build_layout layouts in criterion 08's style (random signs give
    reversed doubles, every occurrence its own segment), some with a
    random extra double that may cross segment walls."""
    out = []
    while len(out) < count:
        n_vars = int(rng.integers(1, 6))
        names = [f"x{i+1}" for i in range(n_vars)]
        lengths = {v: int(rng.integers(0, 8)) for v in names}
        eqs = [
            TemplateWord(tuple(
                (names[int(rng.integers(0, n_vars))], 1 if rng.integers(0, 2) else -1)
                for _ in range(int(rng.integers(1, 4)))
            ))
            for _ in range(int(rng.integers(1, 5)))
        ]
        layout = build_layout(eqs, lengths)
        if layout.total == 0 or layout.total > 200:
            continue
        if rng.integers(0, 3) == 0:
            L = int(rng.integers(1, layout.total + 1))
            a, b = (int(rng.integers(0, layout.total - L + 1)) for _ in range(2))
            layout.doubles.append(Double(0, a, 0, b, L, bool(rng.integers(0, 2))))
        out.append(layout)
    return out


def criterion_09_gluings(rng, count):
    """(n_rel, length, matchings) drawn as criterion 09 draws them."""
    out = []
    for _ in range(count):
        n_rel = int(rng.integers(1, 4))
        length = 2 * int(rng.integers(2, 7))
        half = length // 2
        stretches = [(r, o) for r in range(n_rel) for o in (0, half)]
        order = list(rng.permutation(len(stretches)))
        matchings = []
        for i in range(0, len(stretches) - 1, 2):
            matchings.append((stretches[order[i]], stretches[order[i + 1]], half, bool(rng.integers(0, 2))))
        if len(stretches) % 2:
            matchings.append((stretches[order[-1]], stretches[order[0]], half, bool(rng.integers(0, 2))))
        for _ in range(int(rng.integers(0, 3))):
            L = int(rng.integers(1, half + 1))
            ra, rb = int(rng.integers(0, n_rel)), int(rng.integers(0, n_rel))
            oa = int(rng.integers(0, length - L + 1))
            ob = int(rng.integers(0, length - L + 1))
            matchings.append(((ra, oa), (rb, ob), L, bool(rng.integers(0, 2))))
        out.append((n_rel, length, matchings))
    return out


def test_chain_merge_matches_pairwise_merge_oracle():
    rng = stream(1212)
    compared = merged = 0
    for layout in criterion_08_layouts(rng, 2000):
        try:
            expected = oracle_alphabet(layout)
        except ValueError:
            with pytest.raises(UnificationConflict):
                unify_positions(layout)
            continue
        got = unify_positions(layout)
        assert as_pairs(got) == as_pairs(expected)
        compared += 1
        merged += any(p.length > 1 for p in got.pieces)
    for n_rel, length, matchings in criterion_09_gluings(rng, 500):
        layout = IntervalLayout(
            [Segment("r", 1, length, r * length) for r in range(n_rel)],
            [Double(ri, oi, rj, oj, L, rev) for (ri, oi), (rj, oj), L, rev in matchings],
        )
        try:
            expected = oracle_alphabet(layout)
        except ValueError:
            with pytest.raises(UnificationConflict):
                relator_decoration(n_rel, length, [], matchings)
            continue
        out = relator_decoration(n_rel, length, [], matchings)
        singles = [pi for pi, p in enumerate(expected.pieces) if p.multiplicity() < 2]
        if singles:
            start = expected.pieces[singles[0]].occurrences[0][0]
            assert out == SingletonWitness(singles[0], start // length, start % length)
        else:
            assert as_pairs(out.alphabet) == as_pairs(expected)
        compared += 1
        merged += any(p.length > 1 for p in expected.pieces)
    # most inputs are conflict-free and most of those merge some pieces
    assert compared >= 1500 and merged >= compared // 2


# -- parametric systems -------------------------------------------------------


def tri(eqs):
    return TriangularSystem([TemplateWord(e) for e in eqs], sorted({v for e in eqs for v, _ in e}))


def test_parametric_single_equation_nine_parameters():
    T_ = tri([((f"x1", 1), ("x2", 1), ("x3", 1))])
    lengths = {"x1": 7, "x2": 8, "x3": 9}
    ps = build_parametric_system(T_, lengths=lengths)
    assert len(ps.parameters) == 9
    assert ps.coincidences == []
    # side templates substitute back to the right lengths
    for k, name in enumerate(["x1", "x2", "x3"]):
        total = sum(ps.lengths[s] for s, _ in ps.sides[(0, k)])
        assert total == lengths[name]


def test_parametric_repeat_gives_one_coincidence():
    T_ = tri([(("x", 1), ("x", 1), ("y", 1))])
    ps = build_parametric_system(T_, lengths={"x": 6, "y": 6})
    assert len(ps.coincidences) == 1


def test_parametric_inconsistent_shape_errors():
    from randgroups.unification import SideShape

    T_ = tri([(("x", 1), ("y", 1), ("z", 1))])
    shape = {
        (0, 0): SideShape((1, 1, 1, 1, 1, 1, 1)),
        (0, 1): SideShape((1, 1, 1, 1, 1, 1, 1)),
        (0, 2): SideShape((1, 1, 1, 1, 1, 1, 1)),
    }
    with pytest.raises(ValueError) as e:
        build_parametric_system(T_, shape=shape, lengths={"x": 7, "y": 7, "z": 8})
    assert "0" in str(e.value)


def test_parametric_round_trip_through_group():
    # a solution of Sigma with the c-triple conditions maps to a solution
    # of V in the sampled group via the side templates
    p = sample_presentation(DensityParams(2, Fraction(0), 16, 306))
    assert satisfies_cprime(p, Fraction(1, 6))
    T_ = tri([(("x1", 1), ("x2", 1), ("x3", 1))])
    lengths = {"x1": 4, "x2": 4, "x3": 8}
    ps = build_parametric_system(T_, lengths=lengths)
    rng = stream(9)
    # degenerate but honest solution: h parts of length given by shape must
    # get words of exactly those lengths; choose all-c values concentrated
    # on the triangle sides with h parts as sampled words
    assignment = {}
    for name in ps.variables + ps.parameters:
        L = ps.lengths[name]
        assignment[name] = sample_reduced_word(2, L, rng) if L else Word()
    # force the c-triple conditions in the group: c1 c2 c3 = 1 and the
    # corner conditions; easiest consistent choice: c-bar and c-hat empty,
    # c1, c2 free and c3 = (c1 c2)^-1 -- requires the shape to put all
    # side length in the c parts
    from randgroups.unification import SideShape

    shape = {
        (0, 0): SideShape((0, 0, 0, lengths["x1"], 0, 0, 0)),
        (0, 1): SideShape((0, 0, 0, lengths["x2"], 0, 0, 0)),
        (0, 2): SideShape((0, 0, 0, lengths["x3"], 0, 0, 0)),
    }
    ps = build_parametric_system(T_, shape=shape, lengths=lengths)
    c1 = sample_reduced_word(2, 4, rng)
    c2 = sample_reduced_word(2, 4, rng)
    c3 = free_reduce(invert(c2).concat(invert(c1)))
    if len(c3) != lengths["x3"]:
        c3 = free_reduce(invert(c1.concat(c2)))
    assignment = {name: Word() for name in ps.variables + ps.parameters}
    assignment[f"c1_0"] = c1
    assignment[f"c2_0"] = c2
    assignment[f"c3_0"] = c3
    # c1 c2 c3 = 1 in the free group, hence in the group
    assert is_trivial(c1.concat(c2).concat(c3), p)
    values = {
        name: substitute(solution_template(ps, name), assignment)
        for name in ["x1", "x2", "x3"]
    }
    product = free_reduce(values["x1"].concat(values["x2"]).concat(values["x3"]))
    assert is_trivial(product, p)


def test_default_shape_consistency():
    T_ = tri([(("x", 1), ("y", 1), ("z", 1))])
    lengths = {"x": 9, "y": 10, "z": 11}
    shape = default_shape(T_, lengths)
    ps = build_parametric_system(T_, shape=shape, lengths=lengths)
    layout = ps.to_layout()
    alphabet = unify_positions(layout)
    assert sum(p.length * p.multiplicity() for p in alphabet.pieces) == layout.total


def test_parametric_layout_h_doubles():
    T_ = tri([(("x", 1), ("y", 1), ("z", 1))])
    lengths = {"x": 8, "y": 8, "z": 8}
    ps = build_parametric_system(T_, lengths=lengths)
    layout = ps.to_layout()
    # each h/hb symbol appears exactly twice in the layout
    from collections import Counter

    counts = Counter(s.symbol for s in layout.segments if s.symbol.startswith(("h", "hb")))
    assert all(c == 2 for c in counts.values())


@pytest.mark.parametrize("equation", ["y x x", "x x y"])
def test_parametric_layout_zero_length_repeated_variable(equation):
    T_ = tri([tuple((name, 1) for name in equation.split())])
    ps = build_parametric_system(T_, lengths={"x": 0, "y": 3})
    assert unify_positions(ps.to_layout()).degrees_of_freedom() == 3
    ps = build_parametric_system(T_, lengths={"x": 0, "y": 0})
    assert unify_positions(ps.to_layout()).pieces == []


# -- bounds -------------------------------------------------------------------


def test_free_letter_bound_examples():
    assert free_letter_bound(1, 16) == 8
    assert free_letter_bound(3, 10) == 15


def test_relator_decorations_respect_free_letter_bound():
    out = relator_decoration(
        2,
        6,
        [
            [(0, 0, 1, 3), (1, 0, 1, 3)],
            [(0, 3, 1, 3), (1, 3, 1, 3)],
        ],
    )
    assert isinstance(out, RelatorDecoration)
    assert out.degrees_of_freedom() <= free_letter_bound(2, 6)


def test_fulfill_probability_examples():
    b = fulfill_probability_bound(2, 1, 16, Fraction(1, 4))
    assert b.full_bound == pytest.approx(1 / 81)
    assert b.full_exponent == Fraction(-4)
    b2 = fulfill_probability_bound(2, 2, 16, Fraction(1, 4))
    assert b2.full_exponent == 2 * b.full_exponent
    assert b2.single_exponent == b.single_exponent  # relator-count free
    with pytest.raises(ValueError):
        fulfill_probability_bound(2, 1, 16, Fraction(1, 2))
