import hashlib
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from randgroups.words import Word, Presentation, free_reduce, invert, rotate
from randgroups.sampler import DensityParams, sample_presentation, sample_reduced_word, stream
from randgroups.cancellation import satisfies_cprime, is_trivial, symmetrize, dehn_reduce
from randgroups.diagrams import (
    VanKampenDiagram,
    verify_diagram,
    boundary_word,
    is_reduced,
    filament_decomposition,
    isoperimetric_check,
    diagram_from_dehn_trace,
    NotTrivialError,
    BoundsParams,
    face_bound,
    stirling,
    planar_graph_bound,
    advk_count_bound,
    advk_total_bound,
)
from oracles import set_partition_count


def W(s):
    return Word.from_text(s)


def single_face_diagram(word: Word):
    """A cycle of fresh edges bearing `word`, outer boundary reversed."""
    n = len(word)
    edges = {i + 1: (i, (i + 1) % n, word[i]) for i in range(n)}
    faces = [[i + 1 for i in range(n)]]
    outer = [-(i + 1) for i in reversed(range(n))]
    return VanKampenDiagram(n, edges, faces, outer, 0, [0])


COMM = Presentation(2, [W("abAB")])          # structural fixtures only (not C'(1/6))
GENUS2 = Presentation(4, [W("abABcdCD")])    # C'(1/6), used for Dehn-based tests


def two_squares_shared_edge():
    """Two abAB squares glued along the edge labeled a."""
    edges = {
        1: (0, 1, 1),
        2: (1, 2, 2),
        3: (2, 3, -1),
        4: (3, 0, -2),   # face 1: darts 1,2,3,4 read a b A B
        5: (0, 4, -2),
        6: (4, 5, 1),
        7: (5, 1, 2),    # face 2: darts -1,5,6,7 read A B a b
    }
    faces = [[1, 2, 3, 4], [-1, 5, 6, 7]]
    outer = [-4, -3, -2, -7, -6, -5]
    return VanKampenDiagram(6, edges, faces, outer, 0, [0, 0])


def test_single_face_diagram_valid():
    D = single_face_diagram(W("abAB"))
    rep = verify_diagram(D, COMM)
    assert rep.ok, rep.problems


def test_single_face_relabeled_invalid():
    D = single_face_diagram(W("abAB"))
    t, h, _ = D.edges[2]
    D.edges[2] = (t, h, -1)
    rep = verify_diagram(D, COMM)
    assert not rep.ok
    assert any("not a symmetrized relator" in p for p in rep.problems)


def _square_and_sphere(joined: bool, base: int = 0):
    """An abAB square (vertices 0-3) beside a sphere: a second abAB square
    with a face on each side, on vertices 7, 4, 5, 6, or on 0, 4, 5, 6
    when joined, which pinches vertex 0."""
    first = 0 if joined else 7
    edges = {1: (0, 1, 1), 2: (1, 2, 2), 3: (2, 3, -1), 4: (3, 0, -2),
             5: (first, 4, 1), 6: (4, 5, 2), 7: (5, 6, -1), 8: (6, first, -2)}
    faces = [[1, 2, 3, 4], [5, 6, 7, 8], [-8, -7, -6, -5]]
    return VanKampenDiagram(8 - joined, edges, faces, [-4, -3, -2, -1], base, [0, 0, 0])


def test_verify_reports_disconnected_pinched_and_off_boundary_base():
    disconnected = verify_diagram(_square_and_sphere(False), COMM).problems
    assert "underlying graph is not connected" in disconnected
    assert not any("rotation orbits" in p for p in disconnected)
    pinched = verify_diagram(_square_and_sphere(True), COMM).problems
    assert "vertex 0 has 2 rotation orbits (pinched embedding)" in pinched
    assert "underlying graph is not connected" not in pinched
    off = verify_diagram(_square_and_sphere(True, base=5), COMM).problems
    assert "base vertex not on the outer boundary" in off
    assert verify_diagram(_square_and_sphere(True, base=2), COMM).problems == pinched + [
        "outer boundary does not start at the base vertex"
    ]


def test_single_face_boundary_word():
    D = single_face_diagram(W("abAB"))
    assert boundary_word(D) == invert(W("abAB"))


def test_two_faces_glued_along_edge():
    D = two_squares_shared_edge()
    rep = verify_diagram(D, COMM)
    assert rep.ok, rep.problems
    w = boundary_word(D)
    assert len(w) == 6 and w.is_reduced
    # independent traversal oracle: product of the two face words with the
    # shared edge cancelling, conjugated into position
    r1 = D.cycle_word(D.faces[0])
    r2 = D.cycle_word(D.faces[1])
    # boundary from the base equals B^-1 * (r1 r2-read-from-shared-edge) * B form;
    # at minimum it must die in the abelianization of both relators
    count = [0, 0]
    for x in w:
        count[abs(x) - 1] += 1 if x > 0 else -1
    assert count == [0, 0]


def test_boundary_with_bridge_traverses_twice():
    # a square hanging off a bridge of length 1 from the base
    edges = {
        1: (0, 1, 1),                                # bridge labeled a
        2: (1, 2, 1),
        3: (2, 3, 2),
        4: (3, 4, -1),
        5: (4, 1, -2),                               # face darts 2,3,4,5 = abAB
    }
    face = [2, 3, 4, 5]
    outer = [1, -5, -4, -3, -2, -1]
    D = VanKampenDiagram(5, edges, [face], outer, 0, [0])
    rep = verify_diagram(D, COMM)
    assert rep.ok, rep.problems
    w = boundary_word(D)
    assert w[0] == 1 and w[-1] == -1                 # a ... A, bridge twice
    assert Word(w[1:-1]) in set(symmetrize(COMM).elements)


def mirror_pair_diagram():
    """A face and its mirror glued along one edge: a cancelling pair."""
    edges = {
        1: (0, 1, 1),
        2: (1, 2, 2),
        3: (2, 3, -1),
        4: (3, 0, -2),   # face 1: 1,2,3,4 = abAB
        5: (0, 4, 2),
        6: (4, 5, 1),
        7: (5, 1, -2),   # face 2: -1,5,6,7 = A b a B (mirror)
    }
    faces = [[1, 2, 3, 4], [-1, 5, 6, 7]]
    outer = [-4, -3, -2, -7, -6, -5]
    return VanKampenDiagram(6, edges, faces, outer, 0, [0, 0])


def test_mirror_pair_not_reduced():
    D = mirror_pair_diagram()
    rep = verify_diagram(D, COMM)
    assert rep.ok, rep.problems
    assert not is_reduced(D)


def test_glued_pair_is_reduced():
    assert is_reduced(two_squares_shared_edge())
    assert is_reduced(single_face_diagram(W("abAB")))


def test_filament_decomposition_simple():
    D = single_face_diagram(W("abAB"))
    dec = filament_decomposition(D)
    assert len(dec.components) == 1
    assert dec.bridges == []


def test_filament_decomposition_two_components_one_bridge():
    edges = {
        1: (0, 1, 1), 2: (1, 2, 2), 3: (2, 3, -1), 4: (3, 0, -2),
        5: (0, 4, 2), 6: (4, 5, 2), 7: (5, 6, 2),
        8: (6, 7, 1), 9: (7, 8, 2), 10: (8, 9, -1), 11: (9, 6, -2),
    }
    faces = [[1, 2, 3, 4], [8, 9, 10, 11]]
    outer = [-4, -3, -2, -1, 5, 6, 7, -11, -10, -9, -8, -7, -6, -5]
    D = VanKampenDiagram(10, edges, faces, outer, 0, [0, 0])
    rep = verify_diagram(D, COMM)
    assert rep.ok, rep.problems
    dec = filament_decomposition(D)
    assert len(dec.components) == 2
    assert len(dec.bridges) == 1
    assert dec.bridges[0]["length"] == 3


def test_isoperimetric_single_face_true():
    D = single_face_diagram(W("abAB"))
    assert isoperimetric_check(D, Fraction(1, 20), Fraction(1, 10))


def test_isoperimetric_monotone_in_epsilon():
    D = single_face_diagram(W("abAB"))
    # larger epsilon weakens the test: true stays true as epsilon grows
    for eps in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 2)):
        assert isoperimetric_check(D, Fraction(1, 20), eps)
    # and a failing diagram can only flip to passing, never the reverse
    edges = {
        1: (0, 1, 1), 2: (1, 2, 2), 3: (2, 3, 1), 4: (3, 0, 2), 5: (0, 3, 1),
    }
    D_bad = VanKampenDiagram(4, edges, [[1, 2, 3, 4], [-3, -2, -1, 5]], [-4, -5], 0, [0, 1])
    results = [
        isoperimetric_check(D_bad, Fraction(1, 20), eps)
        for eps in (Fraction(1, 100), Fraction(1, 2), Fraction(9, 10))
    ]
    assert results == sorted(results)


def test_isoperimetric_violation_constructed():
    # two squares glued along a path of three edges -> boundary length 2
    edges = {
        1: (0, 1, 1),
        2: (1, 2, 2),
        3: (2, 3, 1),
        4: (3, 0, 2),   # face 1: 1,2,3,4 reads a b a b
        5: (0, 3, 1),   # face 2 closes over the path with one extra edge
    }
    f1 = [1, 2, 3, 4]
    f2 = [-3, -2, -1, 5]   # from vertex 3: A B A a
    outer = [-4, -5]
    D = VanKampenDiagram(4, edges, [f1, f2], outer, 0, [0, 1])
    assert len(D.outer) == 2
    assert not isoperimetric_check(D, Fraction(1, 20), Fraction(1, 10))


def test_dehn_trace_diagram_single_relator():
    D = diagram_from_dehn_trace(W("abABcdCD"), GENUS2)
    rep = verify_diagram(D, GENUS2)
    assert rep.ok, rep.problems
    assert D.n_faces == 1
    assert boundary_word(D) == W("abABcdCD")


def test_dehn_trace_diagram_partial_relator_word():
    w = free_reduce(W("abABcd").concat(invert(W("dc"))))
    assert w == W("abABcdCD")
    D = diagram_from_dehn_trace(w, GENUS2)
    rep = verify_diagram(D, GENUS2)
    assert rep.ok, rep.problems
    assert boundary_word(D) == w
    assert D.n_faces == 1
    assert len(boundary_word(D)) == 8


def test_dehn_trace_diagram_two_faces():
    r = W("abABcdCD")
    w = free_reduce(r.concat(W("b")).concat(rotate(r, 3)).concat(invert(W("b"))))
    assert is_trivial(w, GENUS2)
    D = diagram_from_dehn_trace(w, GENUS2)
    rep = verify_diagram(D, GENUS2)
    assert rep.ok, rep.problems
    assert boundary_word(D) == w
    assert D.n_faces == 2


def test_dehn_trace_freely_trivial_word():
    D = diagram_from_dehn_trace(W("aA"), GENUS2)
    assert D.n_faces == 0
    assert boundary_word(D) == Word()


def test_dehn_trace_nontrivial_raises():
    with pytest.raises(NotTrivialError):
        diagram_from_dehn_trace(W("ab"), GENUS2)


def test_dehn_trace_pipeline_random_trivial_words():
    p = sample_presentation(DensityParams(2, Fraction(0), 16, 306))
    assert satisfies_cprime(p, Fraction(1, 6))
    r = p.relators[0]
    rng = stream(2024)
    for _ in range(40):
        g = sample_reduced_word(2, int(rng.integers(1, 4)), rng)
        w = free_reduce(g.concat(rotate(r, int(rng.integers(0, 16)))).concat(invert(g)))
        D = diagram_from_dehn_trace(w, p)
        rep = verify_diagram(D, p)
        assert rep.ok, rep.problems
        assert boundary_word(D) == w


def _conjugate_product(p: Presentation, K: int, rng) -> Word:
    """Free reduction of a product of K conjugates g r^(+-1) g^-1, with g a
    random reduced word of length 0..l/2."""
    w = Word()
    for _ in range(K):
        m = int(rng.integers(0, p.length // 2 + 1))
        g = sample_reduced_word(p.rank, m, rng) if m else Word()
        r = p.relators[0] if rng.integers(2) else invert(p.relators[0])
        w = w.concat(g).concat(r).concat(invert(g))
    return free_reduce(w)


# sha256 over to_json() and repr(dehn_reduce(...)) of every word below
DIAGRAM_PIN = "2a7c94efd77246d3d9f75a552a9c8c52e4957a92339210bf1b733fdfd0d428b0"


def test_dehn_trace_diagram_output_is_pinned():
    """Edge ids, vertex numbers, face and boundary darts, numbering and the
    Dehn trace, byte for byte, on products of 20, 80 and 320 conjugates."""
    h = hashlib.sha256()
    # seeds 306 and 0 give the first C'(1/6) rank-2 presentations at l = 16, 24
    for l, seed in ((16, 306), (24, 0)):
        p = sample_presentation(DensityParams(2, Fraction(0), l, seed))
        for K, copies in ((20, 3), (80, 3), (320, int(l == 16))):
            for i in range(copies):
                w = _conjugate_product(p, K, stream(7, l, K, i))
                D = diagram_from_dehn_trace(w, p)
                assert verify_diagram(D, p).ok
                assert boundary_word(D) == w
                h.update(D.to_json().encode())
                h.update(repr(dehn_reduce(w, p)).encode())
    assert h.hexdigest() == DIAGRAM_PIN


def test_diagram_json_round_trip():
    D = single_face_diagram(W("abAB"))
    D2 = VanKampenDiagram.from_json(D.to_json())
    assert verify_diagram(D2, COMM).ok
    assert boundary_word(D2) == boundary_word(D)


def _renumber_edges(text: str, perm) -> str:
    """The same diagram with edge i + 1 renamed perm[i] + 1."""
    data = json.loads(text)
    edges = [None] * len(data["edges"])
    for i, e in enumerate(data["edges"]):
        edges[perm[i]] = e

    def ref(d):
        return (int(perm[abs(d) - 1]) + 1) * (1 if d > 0 else -1)

    data["edges"] = edges
    data["faces"] = [[ref(d) for d in f] for f in data["faces"]]
    data["outer"] = [ref(d) for d in data["outer"]]
    return json.dumps(data)


def test_diagram_json_round_trip_keeps_boundary_under_any_edge_order():
    """Renumbering the edges describes the same diagram; with "outer"
    given, the parsed diagram keeps the boundary word.  (Without it the
    faces do not fix the boundary where it passes a vertex twice.)"""
    p = sample_presentation(DensityParams(2, Fraction(0), 16, 306))
    rng = stream(13)
    checked = 0
    for K in range(2, 8):
        for i in range(10):
            w = _conjugate_product(p, K, stream(13, K, i))
            if not w:
                continue
            D = diagram_from_dehn_trace(w, p)
            perm = rng.permutation(len(D.edges))
            D2 = VanKampenDiagram.from_json(_renumber_edges(D.to_json(), perm))
            assert boundary_word(D2) == w
            assert verify_diagram(D2, p).ok
            checked += 1
    assert checked >= 50


@pytest.mark.parametrize(
    "data, field",
    [
        ({"vertices": 1}, "edges"),
        ([1, 2], "object"),
        ({"vertices": 2, "edges": [{"from": 0, "to": 1}], "faces": [], "base": 0}, "edges[0].label"),
        ({"vertices": 2, "edges": [], "faces": [[1, "a"]], "base": 0}, "faces[0][1]"),
        ({"vertices": True, "edges": [], "faces": [], "base": 0}, "vertices"),
        ({"vertices": 1, "edges": [], "faces": [], "base": 0, "numbering": {}}, "numbering"),
        ({"vertices": 1, "edges": [], "faces": [], "base": 0}, "'outer'"),
        ({"vertices": 1, "edges": [], "faces": [], "base": 0, "outer": [1, None]}, "outer[1]"),
    ],
)
def test_diagram_json_names_the_malformed_field(data, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        VanKampenDiagram.from_json(json.dumps(data))


_THREE_EDGES = [{"from": 0, "to": 1, "label": 1}, {"from": 1, "to": 2, "label": 2}, {"from": 2, "to": 0, "label": -1}]


@pytest.mark.parametrize(
    "faces, outer, field",
    [
        ([[2], []], [5, -6], "'outer[0]'"),   # 5 and -6 name no edge of 3
        ([[2], []], [1, -4], "'outer[1]'"),
        ([[2, 0]], [1], "'faces[0][1]'"),
        ([[1], [3, -9]], [2], "'faces[1][1]'"),
    ],
)
def test_diagram_json_rejects_darts_that_name_no_edge(faces, outer, field):
    """A dart is a signed edge id 1..E: 0 or a larger id names no edge, and
    the parser names the field instead of leaving the fault to a KeyError
    in boundary_word or is_reduced."""
    data = {"vertices": 5, "edges": _THREE_EDGES, "faces": faces, "base": 2, "numbering": [], "outer": outer}
    with pytest.raises(ValueError, match=re.escape(field)):
        VanKampenDiagram.from_json(json.dumps(data))
    data["faces"], data["outer"] = [[1, 2, 3]], [-3, -2, -1]
    D = VanKampenDiagram.from_json(json.dumps(data))
    assert len(boundary_word(D)) == 3


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_darts = st.lists(st.integers(-4, 4), max_size=5)
_edge_json = st.fixed_dictionaries(
    {}, optional={k: st.integers(-1, 4) | _json_values for k in ("from", "to", "label")}
)
_diagram_json = st.fixed_dictionaries(
    {},
    optional={
        "vertices": st.integers(0, 5) | _json_values,
        "edges": st.lists(_edge_json, max_size=5) | _json_values,
        "faces": st.lists(_darts, max_size=3) | _json_values,
        "base": st.integers(0, 5) | _json_values,
        "numbering": _darts | _json_values,
        "outer": _darts | _json_values,
    },
)


@settings(max_examples=400, deadline=None)
@given(_json_values | _diagram_json)
def test_diagram_json_rejects_malformed_input_with_value_error(data):
    """Arbitrary JSON either parses or raises a ValueError subclass."""
    try:
        VanKampenDiagram.from_json(json.dumps(data))
    except ValueError:
        pass


# -- counting ---------------------------------------------------------------


def test_face_bound_examples():
    p = BoundsParams(K=10, r=2, d=Fraction(1, 16), epsilon=Fraction(1, 16))
    assert face_bound(p) == 24  # floor(320/13), not integral
    p2 = BoundsParams(K=1, r=1, d=Fraction(0), epsilon=Fraction(1, 2))
    assert face_bound(p2) == 1  # f < 2 exactly
    with pytest.raises(ValueError):
        face_bound(BoundsParams(K=1, r=1, d=Fraction(1, 2), epsilon=Fraction(1, 16)))


def test_stirling_examples_and_oracle():
    assert stirling(4, 2) == 7
    assert stirling(7, 1) == 1
    assert stirling(7, 7) == 1
    assert stirling(3, 5) == 0
    for f in range(0, 11):
        for n in range(0, f + 1):
            assert stirling(f, n) == set_partition_count(f, n)


def test_stirling_deep_row_has_no_recursion_limit():
    # S(f, 3) = (3^f - 3 * 2^f + 3) / 6; f = 1500 once exceeded the recursion limit
    assert stirling(1500, 3) == (3**1500 - 3 * 2**1500 + 3) // 6


def test_planar_graph_bound():
    assert planar_graph_bound(1) == 1024
    assert planar_graph_bound(2) == 1048576
    vals = [planar_graph_bound(f) for f in range(1, 6)]
    assert vals == sorted(vals) and len(set(vals)) == 5


def test_advk_count_examples():
    p = BoundsParams(K=1, length=1, f=1, q=0, n_rel=1)
    assert advk_count_bound(p) == 2**13
    p2 = BoundsParams(K=1, length=2, f=1, q=1, n_rel=1)
    assert advk_count_bound(p2) == 2**60
    # log cross-check
    p3 = BoundsParams(K=10, length=50, f=6, q=3, n_rel=4)
    exact = advk_count_bound(p3)
    logv = (p3.f + 2 * p3.q) * (
        math.log(p3.K) + 13 * math.log(2) + 7 * math.log(p3.length)
    ) + math.log(stirling(p3.f, p3.n_rel))
    assert math.log(exact) == pytest.approx(logv, rel=1e-9)


def test_advk_total_reverse_order_oracle():
    p = BoundsParams(K=2, r=1, d=Fraction(1, 16), epsilon=Fraction(1, 16), length=7, q=1)
    N = face_bound(p)
    assert N >= 2
    base = p.K * 2**13 * p.length**7
    total_rev = 0
    for f in range(N, 0, -1):
        for n in range(f, 0, -1):
            total_rev += base ** (f + 2 * p.q) * stirling(f, n)
    assert advk_total_bound(p) == total_rev
    single = BoundsParams(K=1, r=1, d=Fraction(0), epsilon=Fraction(1, 2), length=3, q=0)
    assert face_bound(single) == 1
    assert advk_total_bound(single) == 2**13 * 3**7
