"""Van Kampen diagrams as combinatorial maps, plus the exact counting bounds.

A diagram is stored as a rotation-system style map: edges carry a single
signed-generator label; dart +e traverses edge e forward (reading its
label), -e backward (reading the inverse).  Bounded faces and the outer
boundary are explicit dart cycles.  Planarity is certified by genus
computation: the vertex rotation derived from the face cycles must give
one orbit per vertex and V - E + F = 2 counting the outer face.

A trivial word's diagram is read off its Dehn run.  A step that rewrites
A u B to A v^-1 B with r = u v splits off the conjugate A r A^-1, so the
input is freely equal to the product of these conjugates, one per step.
Each conjugate becomes a lollipop at the base vertex: a stem reading A
and a loop reading r, bounding the face.  The bouquet's boundary word is
that product; it is folded to the reduced input in one left-to-right
pass over the boundary darts with a stack, so adjacent darts with
inverse labels cancel leftmost pair first.  A dart followed by its own
reverse is a spur and its edge is dropped.  Otherwise the second dart is
folded onto the reverse of the first: a dart map records it, a
union-find joins its head to the first dart's tail (whose class keeps
its name), and its edge is dropped.  Darts are resolved through the map
as they are read and once at the end for the boundary and the faces;
vertices are renamed through the union-find once, then numbered in
increasing order.

Counting operations (Stirling numbers, the planar-graph bound, the
abstract-diagram count and its total over admissible face counts) are
exact big-integer arithmetic throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .words import Word, Presentation, free_reduce, invert
from .cancellation import _dehn_walk, symmetrize


def _tail(edges, d: int) -> int:
    t, h, _ = edges[abs(d)]
    return t if d > 0 else h


def _head(edges, d: int) -> int:
    t, h, _ = edges[abs(d)]
    return h if d > 0 else t


def _label(edges, d: int) -> int:
    _, _, x = edges[abs(d)]
    return x if d > 0 else -x


def _find(parent: dict, x):
    """Root of x in a union-find forest kept as a dict (absent keys are
    roots), halving the path on the way."""
    while (y := parent.get(x, x)) != x:
        parent[x] = parent.get(y, y)
        x = parent[x]
    return x


@dataclass
class VerifyReport:
    ok: bool
    problems: list[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.ok = False
        self.problems.append(msg)


class VanKampenDiagram:
    """A labeled planar diagram.

    edges: dict edge id (1-based) -> (tail, head, label); darts are signed
    edge ids.  faces: list of dart cycles for the bounded faces.  outer:
    the boundary dart cycle, starting at the base vertex.  numbering:
    one int per face; faces sharing a number are meant to bear the same
    relator.
    """

    def __init__(self, n_vertices, edges, faces, outer, base, numbering=None):
        self.n_vertices = n_vertices
        self.edges = dict(edges)
        self.faces = [list(f) for f in faces]
        self.outer = list(outer)
        self.base = base
        self.numbering = list(numbering) if numbering is not None else list(range(len(faces)))

    # -- dart helpers ------------------------------------------------------

    def tail(self, d: int) -> int:
        return _tail(self.edges, d)

    def head(self, d: int) -> int:
        return _head(self.edges, d)

    def label(self, d: int) -> int:
        return _label(self.edges, d)

    def cycle_word(self, cycle) -> Word:
        return Word(self.label(d) for d in cycle)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        ids = sorted(self.edges)
        pos = {e: i for i, e in enumerate(ids)}

        def ref(d):
            i = pos[abs(d)] + 1
            return i if d > 0 else -i

        return json.dumps(
            {
                "vertices": self.n_vertices,
                "edges": [
                    {"from": self.edges[e][0], "to": self.edges[e][1], "label": self.edges[e][2]}
                    for e in ids
                ],
                "faces": [[ref(d) for d in f] for f in self.faces],
                "base": self.base,
                "numbering": self.numbering,
                "outer": [ref(d) for d in self.outer],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "VanKampenDiagram":
        """Parse to_json() output.  "outer", the boundary cycle from the
        base vertex, is required: where the boundary passes a vertex twice
        the faces do not fix it.  "numbering" is optional (one number per
        face).  Raises ValueError naming the first malformed or missing
        field, or the first dart of "faces" or "outer" that names no edge."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("diagram JSON must be an object")
        vertices = _json_int(data.get("vertices"), "vertices")
        raw_edges = data.get("edges")
        if not isinstance(raw_edges, list) or not all(isinstance(e, dict) for e in raw_edges):
            raise ValueError("diagram JSON field 'edges' must be a list of objects")
        edges = {
            i + 1: tuple(_json_int(e.get(k), f"edges[{i}].{k}") for k in ("from", "to", "label"))
            for i, e in enumerate(raw_edges)
        }
        faces = _json_ints(data.get("faces"), "faces", depth=2)
        base = _json_int(data.get("base"), "base")
        numbering = data.get("numbering")
        if numbering is not None:
            _json_ints(numbering, "numbering")
        outer = _json_ints(data.get("outer"), "outer")
        for i, face in enumerate(faces):
            _json_darts(face, f"faces[{i}]", len(edges))
        _json_darts(outer, "outer", len(edges))
        return cls(vertices, edges, faces, outer, base, numbering)


def _json_int(value, name: str) -> int:
    if type(value) is not int:
        raise ValueError(f"diagram JSON field {name!r} must be an integer")
    return value


def _json_ints(value, name: str, depth: int = 1) -> list:
    """value as a list of integers (depth 1) or of such lists (depth 2)."""
    if not isinstance(value, list):
        raise ValueError(f"diagram JSON field {name!r} must be a list")
    for i, x in enumerate(value):
        if depth > 1:
            _json_ints(x, f"{name}[{i}]", depth - 1)
        else:
            _json_int(x, f"{name}[{i}]")
    return value


def _json_darts(darts: list, name: str, n_edges: int) -> None:
    """Every dart names an edge: 1 <= |d| <= n_edges."""
    for i, d in enumerate(darts):
        if not 0 < abs(d) <= n_edges:
            field = f"{name}[{i}]"
            raise ValueError(f"diagram JSON field {field!r} names no edge: |{d}| is not in 1..{n_edges}")


def verify_diagram(D: VanKampenDiagram, p: Presentation) -> VerifyReport:
    """Planarity, labeling and face-word checks; failures are report entries.

    Darts are checked against D.edges, the rotation orbits consume the
    cycles' successor map and connectivity is a union-find, so at most
    one dart-sized table is held at a time.  A rotation orbit never leaves
    its vertex: the orbits are walked only once every cycle is a closed
    path, and then sigma(d) = phi(-d), the dart after -d on its cycle,
    starts where -d ends, at the tail of d."""
    rep = VerifyReport(True)
    E = len(D.edges)

    # vertex ids and labels well-formed
    for e, (t, h, x) in D.edges.items():
        if not (0 <= t < D.n_vertices and 0 <= h < D.n_vertices):
            rep.fail(f"edge {e} has a vertex out of range")
        if not (isinstance(x, int) and x != 0 and abs(x) <= p.rank):
            rep.fail(f"edge {e} label {x} is not a signed generator within rank {p.rank}")

    # darts partition into faces + outer; phi maps each dart to the next
    # one on its cycle
    phi: dict[int, int] = {}
    cycles = list(D.faces) + [D.outer]
    for ci, cyc in enumerate(cycles):
        for i, d in enumerate(cyc):
            if abs(d) not in D.edges:
                rep.fail(f"cycle {ci} uses unknown dart {d}")
            elif d in phi:
                rep.fail(f"dart {d} appears in two cycles")
            else:
                phi[d] = cyc[(i + 1) % len(cyc)]
    missing = [d for e in D.edges for d in (-e, e) if d not in phi]
    if missing:
        rep.fail(f"darts not on any face or the boundary: {sorted(missing, key=abs)[:6]}")
    if not rep.ok:
        return rep

    # cycles are closed edge paths
    for ci, cyc in enumerate(cycles):
        for i, d in enumerate(cyc):
            nd = cyc[(i + 1) % len(cyc)]
            if D.head(d) != D.tail(nd):
                rep.fail(f"cycle {ci} breaks between darts {d} and {nd}")
    if not rep.ok:
        return rep

    # rotation system: sigma = phi(alpha(.)) must give one orbit per vertex;
    # visiting d pops phi[-d], so d has been visited once -d is not in phi
    orbits_per_vertex = {}
    for d in list(phi):
        if -d not in phi:
            continue
        v = D.tail(d)
        orbits_per_vertex[v] = orbits_per_vertex.get(v, 0) + 1
        cur = d
        while -cur in phi:
            cur = phi.pop(-cur)
    del phi
    for v, k in orbits_per_vertex.items():
        if k != 1:
            rep.fail(f"vertex {v} has {k} rotation orbits (pinched embedding)")

    # connectivity over used vertices
    used_vertices = {v for t, h, _ in D.edges.values() for v in (t, h)}
    if D.n_vertices and not used_vertices:
        used_vertices = {D.base}
    if used_vertices and not _connected(D.edges, used_vertices):
        rep.fail("underlying graph is not connected")
    if len(used_vertices) != D.n_vertices:
        rep.fail("isolated vertices present")

    # genus: V - E + F(total) == 2
    F_total = len(D.faces) + 1
    if D.n_vertices - E + F_total != 2:
        rep.fail(
            f"Euler characteristic {D.n_vertices - E + F_total} != 2; not a planar disk diagram"
        )

    # base lies on the outer boundary
    if D.outer and D.tail(D.outer[0]) != D.base:
        rep.fail("outer boundary does not start at the base vertex")
    if D.outer and all(D.tail(d) != D.base for d in D.outer):
        rep.fail("base vertex not on the outer boundary")

    # face words bear symmetrized relators
    origin = symmetrize(p).origin
    for fi, f in enumerate(D.faces):
        w = D.cycle_word(f)
        if w not in origin:
            rep.fail(f"face {fi} word {w.text()!r} is not a symmetrized relator")

    # consistent numbering: same number -> same relator word up to symmetry
    by_num = {}
    for fi, f in enumerate(D.faces):
        w = D.cycle_word(f)
        if w in origin:
            rel = origin[w][0]
            num = D.numbering[fi]
            if num in by_num and by_num[num] != rel:
                rep.fail(f"faces numbered {num} bear different relators")
            by_num[num] = rel
    return rep


def _connected(edges, vertices: set) -> bool:
    """Whether the edges join the vertices into one component (a
    union-find forest over the edges' endpoints)."""
    parent: dict[int, int] = {}
    for t, h, _ in edges.values():
        parent[_find(parent, t)] = _find(parent, h)
    root = _find(parent, next(iter(vertices)))
    return all(_find(parent, v) == root for v in vertices)


def boundary_word(D: VanKampenDiagram) -> Word:
    """Labels along the outer boundary from the base vertex (unreduced)."""
    return D.cycle_word(D.outer)


def is_reduced(D: VanKampenDiagram) -> bool:
    """False iff some edge is shared by a cancelling face pair."""
    where = {}
    for fi, f in enumerate(D.faces):
        for i, d in enumerate(f):
            where[d] = (fi, i)
    for d, (fi, i) in where.items():
        if -d not in where:
            continue
        fj, j = where[-d]
        f1, f2 = D.faces[fi], D.faces[fj]
        rest1 = [f1[(i + k) % len(f1)] for k in range(1, len(f1))]
        rest2 = [f2[(j + k) % len(f2)] for k in range(1, len(f2))]
        u = D.cycle_word(rest1)
        v = D.cycle_word(rest2)
        if u == invert(v):
            return False
    return True


@dataclass
class FilamentDecomposition:
    components: list[dict]  # {"faces": [...], "vertices": set, "edges": set}
    bridges: list[dict]     # {"edges": [...], "length": int}


def filament_decomposition(D: VanKampenDiagram) -> FilamentDecomposition:
    """Split into maximal non-filamentous subcomplexes and bridge paths."""
    face_edges = {abs(d) for f in D.faces for d in f}
    parent = {}
    for e in face_edges:
        t, h, _ = D.edges[e]
        parent[_find(parent, t)] = _find(parent, h)
    comp_of_face = {}
    for fi, f in enumerate(D.faces):
        comp_of_face[fi] = _find(parent, D.tail(f[0]))
    groups = {}
    for fi, root in comp_of_face.items():
        groups.setdefault(root, []).append(fi)
    components = []
    for root, fis in sorted(groups.items()):
        vs = set()
        es = set()
        for fi in fis:
            for d in D.faces[fi]:
                es.add(abs(d))
                vs.add(D.tail(d))
                vs.add(D.head(d))
        components.append({"faces": sorted(fis), "vertices": vs, "edges": es})

    bridge_edges = [e for e in D.edges if e not in face_edges]
    bparent = {}
    # bridges connect through vertices not interior to components
    comp_vertex = {}
    for ci, comp in enumerate(components):
        for v in comp["vertices"]:
            comp_vertex[v] = ci
    for e in bridge_edges:
        t, h, _ = D.edges[e]
        for v in (t, h):
            if v not in comp_vertex:
                bparent[_find(bparent, ("e", e))] = _find(bparent, ("v", v))
    bgroups = {}
    for e in bridge_edges:
        bgroups.setdefault(_find(bparent, ("e", e)), []).append(e)
    bridges = [
        {"edges": sorted(es), "length": len(es)} for _, es in sorted(bgroups.items())
    ]
    return FilamentDecomposition(components, bridges)


def isoperimetric_check(D: VanKampenDiagram, d, epsilon) -> bool:
    """Whether |boundary| > f * l * (1 - 2d - eps), with l the face length.

    Vacuously true for diagrams without faces.
    """
    f = D.n_faces
    if f == 0:
        return True
    lengths = {len(face) for face in D.faces}
    if len(lengths) != 1:
        raise ValueError("faces of unequal boundary length")
    l = lengths.pop()
    rhs = Fraction(f) * l * (1 - 2 * Fraction(d) - Fraction(epsilon))
    return len(D.outer) > rhs


class NotTrivialError(ValueError):
    pass


def diagram_from_dehn_trace(w: Word, p: Presentation) -> VanKampenDiagram:
    """Fold the Dehn trace of a trivial word into a planar diagram.

    One face per replacement step; the boundary word equals the freely
    reduced input.  Raises NotTrivialError when w is not trivial.
    """
    w0 = free_reduce(Word(w))
    # per step: conjugator prefix A, symmetrized element, relator index
    factors = []
    for cur, step in _dehn_walk(w0, p):
        if step is not None:
            factors.append((cur[: step.position], step.element, step.origin[0]))
    if len(cur) != 0:
        raise NotTrivialError(f"{w0.text()!r} is not trivial in the presentation")
    return _build_cactus_and_fold(factors)


def _add_path(edges, vertices, word) -> list[int]:
    """New edges vertices[i] -> vertices[i+1] labelled word[i]; their ids."""
    ids = range(len(edges) + 1, len(edges) + 1 + len(word))
    edges.update(zip(ids, zip(vertices, vertices[1:], word)))
    return list(ids)


def _build_cactus_and_fold(factors) -> VanKampenDiagram:
    """The bouquet of (prefix, element, relator) lollipops, folded."""
    edges: dict[int, tuple[int, int, int]] = {}
    outer, faces, numbering = [], [], []
    fresh = 1  # next unused vertex; 0 is the base
    for A, el, rel_index in factors:
        stem_vs = [0, *range(fresh, fresh + len(A))]
        fresh += len(A)
        top = stem_vs[-1]
        loop_vs = [top, *range(fresh, fresh + len(el) - 1), top]
        fresh += len(el) - 1
        stem = _add_path(edges, stem_vs, A)
        loop = _add_path(edges, loop_vs, el)
        outer.extend(stem)
        outer.extend(loop)
        outer.extend(-e for e in reversed(stem))
        # the disk side of the loop is the reversed orbit; its word is the
        # inverse reading of the element, still symmetrized
        faces.append([-e for e in reversed(loop)])
        numbering.append(rel_index)

    # fold: cancel adjacent boundary darts with inverse labels, leftmost first
    darts: dict[int, int] = {}  # folded dart -> the dart it now is
    verts: dict[int, int] = {}  # folded vertex -> the vertex it joined
    stack: list[int] = []
    for d in outer:
        d = _find(darts, d)
        top = _find(darts, stack[-1]) if stack else None
        if top is None or _label(edges, d) != -_label(edges, top):
            stack.append(d)
            continue
        stack.pop()
        if d != -top:
            # a fold, not a spur: d becomes the reverse of top
            darts[d], darts[-d] = -top, top
            verts[_find(verts, _head(edges, d))] = _find(verts, _tail(edges, top))
        del edges[abs(d)]

    if not edges:
        return VanKampenDiagram(1, {}, [], [], 0, [])
    outer = [_find(darts, d) for d in stack]
    faces = [[_find(darts, d) for d in f] for f in faces]
    # compact vertex ids: the joined vertices, numbered in order
    used = sorted({_find(verts, v) for t, h, _ in edges.values() for v in (t, h)})
    remap = {v: i for i, v in enumerate(used)}
    for e, (t, h, x) in edges.items():  # in place: no second edge table
        edges[e] = (remap[_find(verts, t)], remap[_find(verts, h)], x)
    base = _tail(edges, outer[0]) if outer else 0
    return VanKampenDiagram(len(used), edges, faces, outer, base, numbering)


# ---------------------------------------------------------------------------
# Exact counting bounds.


@dataclass(frozen=True)
class BoundsParams:
    """Parameters for the face and diagram-count bounds.

    K is the user-supplied length-bound constant (default 10); r bounds
    the occurrences of any variable; q is the number of triangle
    equations; f and n_rel parameterize a single abstract family.
    """

    K: int = 10
    r: int = 1
    d: Fraction = Fraction(0)
    epsilon: Fraction = Fraction(1, 16)
    length: int = 1
    q: int = 0
    f: int = 1
    n_rel: int = 1
    rank: int = 2

    def __post_init__(self):
        object.__setattr__(self, "d", Fraction(self.d))
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))


def face_bound(params: BoundsParams) -> int:
    """Largest integer f with f < K*r/(1-2d-eps), exact rationals."""
    denom = 1 - 2 * params.d - params.epsilon
    if denom <= 0:
        raise ValueError("1 - 2d - epsilon must be positive")
    bound = Fraction(params.K * params.r) / denom
    n = bound.numerator // bound.denominator
    return n - 1 if bound.denominator == 1 else n


@lru_cache(maxsize=None)
def stirling(f: int, n: int) -> int:
    """Stirling number of the second kind S(f, n), by the row recurrence
    S(i, j) = j * S(i-1, j) + S(i-1, j-1) over j <= n."""
    if n < 0 or f < 0:
        raise ValueError("need f, n >= 0")
    if n > f:
        return 0
    row = [1] + [0] * n  # S(0, j)
    for _ in range(f):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, n + 1)]
    return row[n]


def planar_graph_bound(f: int) -> int:
    """2^(10f): bound on planar graphs without degree-2 vertices, f faces."""
    if f < 1:
        raise ValueError("need f >= 1")
    return 2 ** (10 * f)


def advk_count_bound(params: BoundsParams) -> int:
    """(K * 2^13 * l^7)^(f+2q) * S(f, n_rel), exactly."""
    base = params.K * 2**13 * params.length**7
    return base ** (params.f + 2 * params.q) * stirling(params.f, params.n_rel)


def advk_total_bound(params: BoundsParams) -> int:
    """Sum of the family bound over f = 1..face_bound and n = 1..f."""
    N = face_bound(params)
    base = params.K * 2**13 * params.length**7
    total = 0
    for f in range(1, N + 1):
        inner = sum(stirling(f, n) for n in range(1, f + 1))
        total += base ** (f + 2 * params.q) * inner
    return total
