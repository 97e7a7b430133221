"""Van Kampen diagrams as combinatorial maps, plus the exact counting bounds.

A diagram is stored as a rotation-system style map: edges carry a single
signed-generator label; dart +e traverses edge e forward (reading its
label), -e backward (reading the inverse).  Bounded faces and the outer
boundary are explicit dart cycles.  Planarity is certified by genus
computation: the vertex rotation derived from the face cycles must give
one orbit per vertex and V - E + F = 2 counting the outer face.

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
from .cancellation import symmetrize, dehn_reduce


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
        t, h, _ = self.edges[abs(d)]
        return t if d > 0 else h

    def head(self, d: int) -> int:
        t, h, _ = self.edges[abs(d)]
        return h if d > 0 else t

    def label(self, d: int) -> int:
        _, _, x = self.edges[abs(d)]
        return x if d > 0 else -x

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
        data = json.loads(text)
        edges = {
            i + 1: (e["from"], e["to"], e["label"]) for i, e in enumerate(data["edges"])
        }
        faces = data["faces"]
        if "outer" in data:
            outer = data["outer"]
        else:
            outer = _complete_outer(edges, faces, data["base"])
        return cls(data["vertices"], edges, faces, outer, data["base"], data.get("numbering"))


def _complete_outer(edges, faces, base=None):
    """Order the darts not used by bounded faces into a boundary cycle.

    The boundary successor of dart b is a boundary dart out of head(b).
    Where several choices exist (a vertex the boundary visits more than
    once) they are paired in dart-id order, then successor swaps merge
    any stray cycles into one.  Only used for JSON input lacking an
    explicit outer cycle; the result is some valid chaining, judged by
    verify_diagram.
    """
    used = {d for f in faces for d in f}
    all_darts = [s * e for e in edges for s in (1, -1)]
    boundary = [d for d in all_darts if d not in used]
    if not boundary:
        return []

    def head(d):
        t, h, _ = edges[abs(d)]
        return h if d > 0 else t

    def tail(d):
        t, h, _ = edges[abs(d)]
        return t if d > 0 else h

    starts_at = {}
    ends_at = {}
    for b in boundary:
        starts_at.setdefault(tail(b), []).append(b)
        ends_at.setdefault(head(b), []).append(b)
    succ = {}
    for v, ins in ends_at.items():
        outs = starts_at.get(v, [])
        if len(outs) != len(ins):
            raise ValueError("boundary darts do not balance at a vertex")
        for b, s in zip(sorted(ins, key=abs), sorted(outs, key=abs)):
            succ[b] = s

    def cycles_of(succ):
        seen = set()
        out = []
        for b in boundary:
            if b in seen:
                continue
            cyc = [b]
            seen.add(b)
            while succ[cyc[-1]] != b:
                cyc.append(succ[cyc[-1]])
                seen.add(cyc[-1])
            out.append(cyc)
        return out

    cycles = cycles_of(succ)
    guard = 0
    while len(cycles) > 1:
        guard += 1
        if guard > len(boundary):
            raise ValueError("cannot stitch boundary into one cycle")
        # find two cycles sharing a successor vertex and swap there
        merged = False
        for i in range(len(cycles)):
            for j in range(i + 1, len(cycles)):
                vi = {head(b): b for b in cycles[i]}
                match = next((b for b in cycles[j] if head(b) in vi), None)
                if match is not None:
                    a = vi[head(match)]
                    succ[a], succ[match] = succ[match], succ[a]
                    merged = True
                    break
            if merged:
                break
        if not merged:
            raise ValueError("boundary splits into disconnected cycles")
        cycles = cycles_of(succ)
    cycle = cycles[0]
    if base is not None:
        for i, d in enumerate(cycle):
            if tail(d) == base:
                return cycle[i:] + cycle[:i]
    return cycle


def verify_diagram(D: VanKampenDiagram, p: Presentation) -> VerifyReport:
    """Planarity, labeling and face-word checks; failures are report entries."""
    rep = VerifyReport(True)
    E = len(D.edges)
    all_darts = {s * e for e in D.edges for s in (1, -1)}

    # vertex ids and labels well-formed
    for e, (t, h, x) in D.edges.items():
        if not (0 <= t < D.n_vertices and 0 <= h < D.n_vertices):
            rep.fail(f"edge {e} has a vertex out of range")
        if not (isinstance(x, int) and x != 0 and abs(x) <= p.rank):
            rep.fail(f"edge {e} label {x} is not a signed generator within rank {p.rank}")

    # darts partition into faces + outer
    seen: dict[int, int] = {}
    cycles = list(D.faces) + [D.outer]
    for ci, cyc in enumerate(cycles):
        for d in cyc:
            if d not in all_darts:
                rep.fail(f"cycle {ci} uses unknown dart {d}")
            elif d in seen:
                rep.fail(f"dart {d} appears in two cycles")
            else:
                seen[d] = ci
    missing = all_darts - set(seen)
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

    # rotation system: sigma = phi(alpha(.)) must give one orbit per vertex
    phi = {}
    for cyc in cycles:
        for i, d in enumerate(cyc):
            phi[d] = cyc[(i + 1) % len(cyc)]
    sigma = {d: phi[-d] for d in all_darts}
    darts_at = {}
    for d in all_darts:
        darts_at.setdefault(D.tail(d), []).append(d)
    visited = set()
    orbits_per_vertex = {}
    for d in all_darts:
        if d in visited:
            continue
        v = D.tail(d)
        orbits_per_vertex[v] = orbits_per_vertex.get(v, 0) + 1
        cur = d
        while cur not in visited:
            visited.add(cur)
            if D.tail(cur) != v:
                rep.fail(f"rotation orbit of dart {d} leaves vertex {v}")
                break
            cur = sigma[cur]
    for v, k in orbits_per_vertex.items():
        if k != 1:
            rep.fail(f"vertex {v} has {k} rotation orbits (pinched embedding)")

    # connectivity over used vertices
    used_vertices = {D.tail(d) for d in all_darts} | {D.head(d) for d in all_darts}
    if D.n_vertices and not used_vertices:
        used_vertices = {D.base}
    if used_vertices:
        adj = {}
        for e, (t, h, _) in D.edges.items():
            adj.setdefault(t, []).append(h)
            adj.setdefault(h, []).append(t)
        stack = [next(iter(used_vertices))]
        comp = set(stack)
        while stack:
            v = stack.pop()
            for u in adj.get(v, []):
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        if comp != used_vertices:
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
    if D.outer:
        outer_vertices = {D.tail(d) for d in D.outer}
        if D.base not in outer_vertices:
            rep.fail("base vertex not on the outer boundary")

    # face words bear symmetrized relators
    sym = set(symmetrize(p).elements)
    for fi, f in enumerate(D.faces):
        w = D.cycle_word(f)
        if w not in sym:
            rep.fail(f"face {fi} word {w.text()!r} is not a symmetrized relator")

    # consistent numbering: same number -> same relator word up to symmetry
    by_num = {}
    origin = symmetrize(p).origin
    for fi, f in enumerate(D.faces):
        w = D.cycle_word(f)
        if w in origin:
            rel = origin[w][0]
            num = D.numbering[fi]
            if num in by_num and by_num[num] != rel:
                rep.fail(f"faces numbered {num} bear different relators")
            by_num[num] = rel
    return rep


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

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for e in face_edges:
        t, h, _ = D.edges[e]
        union(t, h)
    comp_of_face = {}
    for fi, f in enumerate(D.faces):
        comp_of_face[fi] = find(D.tail(f[0]))
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

    def bfind(x):
        while bparent.setdefault(x, x) != x:
            bparent[x] = bparent[bparent[x]]
            x = bparent[x]
        return x

    # bridges connect through vertices not interior to components
    comp_vertex = {}
    for ci, comp in enumerate(components):
        for v in comp["vertices"]:
            comp_vertex[v] = ci
    for e in bridge_edges:
        t, h, _ = D.edges[e]
        for v in (t, h):
            bparent.setdefault(("e", e), ("e", e))
            if v not in comp_vertex:
                bparent.setdefault(("v", v), ("v", v))
                ra, rb = bfind(("e", e)), bfind(("v", v))
                if ra != rb:
                    bparent[ra] = rb
    bgroups = {}
    for e in bridge_edges:
        bgroups.setdefault(bfind(("e", e)), []).append(e)
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
    final, trace = dehn_reduce(w0, p)
    if len(final) != 0:
        raise NotTrivialError(f"{w0.text()!r} is not trivial in the presentation")

    # conjugator prefix A_t per step, replayed on the reduced words
    factors = []
    cur = w0
    for step in trace:
        A = Word(cur[: step.position])
        factors.append((A, step.element, step.origin[0]))
        v = Word(step.element[step.removed :])
        cur = free_reduce(
            Word(cur[: step.position]).concat(invert(v)).concat(Word(cur[step.position + step.removed :]))
        )

    if not factors:
        # w freely trivial: single-vertex diagram
        return VanKampenDiagram(1, {}, [], [], 0, [])
    return _build_cactus_and_fold(w0, factors)


def _build_cactus_and_fold(w0: Word, factors) -> VanKampenDiagram:
    edges = {}
    next_edge = [1]
    next_vertex = [1]

    def new_edge(t, h, x):
        e = next_edge[0]
        next_edge[0] += 1
        edges[e] = (t, h, x)
        return e

    def new_vertex():
        v = next_vertex[0]
        next_vertex[0] += 1
        return v

    outer = []
    faces = []
    numbering = []
    for A, el, rel_index in factors:
        stem = []
        v = 0
        for x in A:
            u = new_vertex()
            stem.append(new_edge(v, u, x))
            v = u
        top = v
        loop = []
        prev = top
        for i, x in enumerate(el):
            nxt = top if i == len(el) - 1 else new_vertex()
            loop.append(new_edge(prev, nxt, x))
            prev = nxt
        outer.extend(stem)
        outer.extend(loop)
        outer.extend(-e for e in reversed(stem))
        # the disk side of the loop is the reversed orbit; its word is the
        # inverse reading of the element, still symmetrized
        faces.append([-e for e in reversed(loop)])
        numbering.append(rel_index)

    # fold: cancel adjacent boundary darts with inverse labels
    def label(d):
        _, _, x = edges[abs(d)]
        return x if d > 0 else -x

    def tail(d):
        t, h, _ = edges[abs(d)]
        return t if d > 0 else h

    def head(d):
        t, h, _ = edges[abs(d)]
        return h if d > 0 else t

    changed = True
    while changed:
        changed = False
        for i in range(len(outer) - 1):
            d, d2 = outer[i], outer[i + 1]
            if label(d2) != -label(d):
                continue
            changed = True
            if d2 == -d:
                # spur: drop the leaf edge
                del outer[i : i + 2]
                del edges[abs(d)]
            else:
                x, z = tail(d), head(d2)
                # identify edge of d2 with the reverse of edge of d
                sub = {d2: -d, -d2: d}
                del outer[i : i + 2]
                outer[:] = [sub.get(t_, t_) for t_ in outer]
                for f in faces:
                    f[:] = [sub.get(t_, t_) for t_ in f]
                del edges[abs(d2)]
                if z != x:
                    for e, (t, h, lab) in list(edges.items()):
                        edges[e] = (x if t == z else t, x if h == z else h, lab)
            break

    # compact vertex ids
    used = set()
    for e, (t, h, _) in edges.items():
        used.add(t)
        used.add(h)
    if not edges:
        return VanKampenDiagram(1, {}, [], [], 0, [])
    remap = {v: i for i, v in enumerate(sorted(used))}
    edges = {e: (remap[t], remap[h], x) for e, (t, h, x) in edges.items()}
    base = None
    if outer:
        t, h, _ = edges[abs(outer[0])]
        base = t if outer[0] > 0 else h
    else:
        base = 0
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
