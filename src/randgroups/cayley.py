"""Bounded Cayley-graph balls of small cancellation presentations, and the
geodesic structure checks: digon rigidity, single-layer coverage, and
distance-minimizer rigidity.

Ball construction is a breadth-first search in which a freshly generated
word joins an existing vertex only when Dehn's algorithm certifies
equality; candidate vertices are pre-filtered by their class in the
abelianization modulo the relator lattice and by free-group distinctness
(a nontrivial word shorter than the relator length is nontrivial in any
C'(1/6) group, since the smallest diagram boundary is one face).

Geometric claims are asserted only for reliable pairs, under the
containment criterion d(1,u) + d(1,v) + d(u,v) <= 2R: every true
geodesic between u and v then lies inside the ball, so in-ball
enumeration is exact and complete for the group.  geometry_scan runs the
checks over every reliable pair and triple of a ball.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .words import Word, Presentation, free_reduce, invert, cyclic_reduce
from .cancellation import is_trivial, symmetrize, max_piece_length, _require_sixth


class BallBudgetExceeded(RuntimeError):
    def __init__(self, vertices: int, radius_done: int):
        super().__init__(
            f"vertex budget exceeded: {vertices} vertices, layers complete to {radius_done}"
        )
        self.vertices = vertices
        self.radius_done = radius_done


class ReliabilityError(ValueError):
    pass


# -- abelianization classes --------------------------------------------------


def _hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix (small sizes)."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    n = len(rows[0])
    out: list[list[int]] = []
    col = 0
    while col < n and rows:
        pivots = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not pivots:
            col += 1
            continue
        # gcd elimination within the column
        while len(pivots) > 1:
            pivots.sort(key=lambda r: abs(r[col]))
            p = pivots[0]
            for r in pivots[1:]:
                q = r[col] // p[col]
                for i in range(n):
                    r[i] -= q * p[i]
            rest.extend(r for r in pivots if r[col] == 0 and any(r))
            pivots = [r for r in pivots if r[col] != 0]
        p = pivots[0]
        if p[col] < 0:
            p = [-x for x in p]
        out.append(p)
        rows = rest
        col += 1
    # reduce entries above each pivot
    for i in reversed(range(len(out))):
        pc = next(c for c in range(n) if out[i][c] != 0)
        pv = out[i][pc]
        for j in range(i):
            q = out[j][pc] // pv
            if q:
                for c in range(n):
                    out[j][c] -= q * out[i][c]
    return out


class _AbelianReducer:
    """Canonical representatives of Z^n modulo the relator lattice."""

    def __init__(self, p: Presentation):
        vecs = []
        for r in p.relators:
            v = [0] * p.rank
            for x in r:
                v[abs(x) - 1] += 1 if x > 0 else -1
            vecs.append(v)
        self.rank = p.rank
        self.rows = _hnf(vecs)
        self.pivot = [(next(c for c in range(p.rank) if row[c]), row) for row in self.rows]

    def reduce(self, v: tuple[int, ...]) -> tuple[int, ...]:
        v = list(v)
        for c, row in self.pivot:
            q = v[c] // row[c]
            if q:
                for i in range(self.rank):
                    v[i] -= q * row[i]
        return tuple(v)


# -- the ball -----------------------------------------------------------------


def _column(g: int) -> int:
    """Adjacency column of letter g: a, A, b, B, ... -> 0, 1, 2, 3, ..."""
    return (abs(g) - 1) * 2 + (0 if g > 0 else 1)


@dataclass
class CayleyBall:
    presentation: Presentation
    radius: int
    words: list[Word]          # canonical (lexicographically least geodesic) words
    index: dict[Word, int]
    dist: np.ndarray           # graph distance from the identity
    adj: np.ndarray            # V x 2n, adj[v][col] = neighbor or -1 (outside)

    @property
    def n_vertices(self) -> int:
        return len(self.words)

    def column(self, g: int) -> int:
        return _column(g)

    def letter_of_column(self, col: int) -> int:
        g = col // 2 + 1
        return g if col % 2 == 0 else -g

    def neighbor(self, v: int, g: int) -> int:
        return int(self.adj[v, self.column(g)])

    def edge_letter(self, x: int, y: int) -> int | None:
        row = self.adj[x]
        for col in range(row.shape[0]):
            if row[col] == y:
                return self.letter_of_column(col)
        return None

    def vertex_of_word(self, w: Word) -> int | None:
        """Walk the edges from the identity; None if the walk leaves the ball."""
        v = 0
        for g in free_reduce(w):
            v = self.neighbor(v, g)
            if v < 0:
                return None
        return v

    def bfs_from(self, source: int, max_depth: int | None = None) -> np.ndarray:
        """In-ball graph distances from a vertex (-1 where unreached)."""
        dist = np.full(self.n_vertices, -1, dtype=np.int32)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int32)
        depth = 0
        while frontier.size and (max_depth is None or depth < max_depth):
            depth += 1
            nbrs = self.adj[frontier].ravel()
            nbrs = nbrs[nbrs >= 0]
            new = nbrs[dist[nbrs] < 0]
            if new.size == 0:
                break
            dist[new] = depth
            frontier = np.unique(new)
        return dist

    def path_letters(self, path: list[int]) -> Word:
        out = []
        for x, y in zip(path, path[1:]):
            g = self.edge_letter(x, y)
            if g is None:
                raise ValueError(f"no edge between vertices {x} and {y}")
            out.append(g)
        return Word(out)


# letter expansion order: a, A, b, B, ... gives lexicographically least
# geodesic representatives under the same order
def _letter_order(n: int) -> list[int]:
    out = []
    for g in range(1, n + 1):
        out.extend((g, -g))
    return out


def _append_reduce(w: Word, g: int) -> Word:
    if w and w[-1] == -g:
        return Word(w[:-1])
    return Word(w + (g,))


def build_ball(p: Presentation, R: int, max_vertices: int = 200_000) -> CayleyBall:
    """Breadth-first ball of radius R with certified vertex identification.

    Requires a C'(1/6) presentation (Dehn equality is then complete), and
    R >= 1.  Raises BallBudgetExceeded past max_vertices.
    """
    _require_sixth(p)
    if R < 1:
        raise ValueError("radius must be >= 1")
    n = p.rank
    l = p.length
    letters = _letter_order(n)
    reducer = _AbelianReducer(p)
    sym = set(symmetrize(p).elements)
    # Short trivial words are conjugates of relators: a reduced diagram
    # with two faces has boundary longer than 2l - 2*maxpiece (and
    # bridged or larger diagrams longer still), so below that threshold
    # triviality is exactly cyclic reduction into the symmetrized set.
    if p.relators:
        short_window = 2 * l - 2 * max_piece_length(p).max_piece_length
    else:
        short_window = 0

    words: list[Word] = [Word()]
    index: dict[Word, int] = {Word(): 0}
    dist: list[int] = [0]
    vecs: list[tuple[int, ...]] = [reducer.reduce((0,) * n)]
    by_class: dict[tuple[int, ...], list[int]] = {vecs[0]: [0]}
    adj: list[list[int]] = [[-1] * (2 * n)]

    def candidate_vec(u: int, g: int) -> tuple[int, ...]:
        v = list(vecs[u])
        v[abs(g) - 1] += 1 if g > 0 else -1
        return reducer.reduce(tuple(v))

    def certified_equal(w: Word, v: int) -> bool:
        diff = free_reduce(w.concat(invert(words[v])))
        if len(diff) == 0:
            return True
        if len(diff) < l or not p.relators:
            return False
        if len(diff) < short_window:
            core, _ = cyclic_reduce(diff)
            return core in sym
        return is_trivial(diff, p)

    layers: list[list[int]] = [[0]]
    for k in range(R):
        layer = layers[k]
        nxt: list[int] = []
        for u in layer:
            for g in letters:
                c = _column(g)
                if adj[u][c] >= 0:
                    continue
                w = _append_reduce(words[u], g)
                v = index.get(w)
                if v is None:
                    key = candidate_vec(u, g)
                    for cand in by_class.get(key, ()):
                        if abs(dist[cand] - k) <= 1 and certified_equal(w, cand):
                            v = cand
                            break
                    if v is None:
                        if len(words) >= max_vertices:
                            raise BallBudgetExceeded(len(words), k)
                        v = len(words)
                        words.append(w)
                        index[w] = v
                        dist.append(k + 1)
                        vecs.append(key)
                        by_class.setdefault(key, []).append(v)
                        adj.append([-1] * (2 * n))
                        nxt.append(v)
                adj[u][c] = v
                adj[v][_column(-g)] = u
        layers.append(nxt)

    # edges among the outermost layer (no new vertices)
    for u in layers[R]:
        for g in letters:
            c = _column(g)
            if adj[u][c] >= 0:
                continue
            w = _append_reduce(words[u], g)
            v = index.get(w)
            if v is None:
                key = candidate_vec(u, g)
                for cand in by_class.get(key, ()):
                    if dist[cand] >= R - 1 and certified_equal(w, cand):
                        v = cand
                        break
            if v is not None:
                adj[u][c] = v
                adj[v][_column(-g)] = u

    return CayleyBall(
        p,
        R,
        words,
        index,
        np.array(dist, dtype=np.int32),
        np.array(adj, dtype=np.int32),
    )


# -- reliability ---------------------------------------------------------------


def pair_reliable(ball: CayleyBall, u: int, v: int, duv: int | None = None) -> bool:
    """Containment criterion: d(1,u) + d(1,v) + d(u,v) <= 2R.

    Any vertex x on a true geodesic [u,v] satisfies d(1,x) <= (d(1,u) +
    d(1,v) + d(u,v)) / 2, so under this bound every geodesic between u
    and v lies inside the ball and in-ball distances are exact.  (Using
    the in-ball d(u,v) here is sound: it only overestimates.)
    """
    if duv is None:
        duv = int(ball.bfs_from(u)[v])
        if duv < 0:
            return False
    R = ball.radius
    d1u, d1v = int(ball.dist[u]), int(ball.dist[v])
    return d1u + d1v + duv <= 2 * R


def all_geodesics(
    ball: CayleyBall, u: int, v: int, max_count: int = 100_000
) -> list[list[int]]:
    """Every geodesic vertex path from u to v inside the ball.

    The pair must be reliable, so the in-ball enumeration is complete for
    the group.  Paths come out sorted by their letter sequences.
    """
    dist_u = ball.dist if u == 0 else ball.bfs_from(u)
    duv = int(dist_u[v])
    if duv < 0 or not pair_reliable(ball, u, v, duv):
        raise ReliabilityError(f"pair ({u}, {v}) is not reliable at radius {ball.radius}")
    if u == v:
        return [[u]]
    # backward DAG walk from v toward u
    paths: list[list[int]] = []
    stack = [[v]]
    while stack:
        partial = stack.pop()
        x = partial[-1]
        dx = int(dist_u[x])
        if x == u:
            paths.append(list(reversed(partial)))
            if len(paths) > max_count:
                raise RuntimeError("geodesic count exceeds budget")
            continue
        for w in ball.adj[x]:
            if w >= 0 and int(dist_u[w]) == dx - 1:
                stack.append(partial + [int(w)])
    order = {g: i for i, g in enumerate(_letter_order(ball.presentation.rank))}
    paths.sort(key=lambda path: [order[g] for g in ball.path_letters(path)])
    return paths


# -- digons ---------------------------------------------------------------------


@dataclass
class Cell:
    cycle: list[int]           # vertex cycle, length l
    word: Word                 # the symmetrized element read along it
    low_arc: int               # edges of the cycle on the lower side
    up_arc: int


@dataclass
class Digon:
    low: list[int]
    up: list[int]
    division_pairs: list[tuple[int, int, list[int]]]  # (A, B, divisor path)
    cells: list[Cell]
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _path_back(ball: CayleyBall, dist, b: int) -> list[int]:
    """A shortest path to b from the source of the BFS distances dist,
    found backwards from b, each time stepping to the last adjacent
    vertex one step closer."""
    path = [b]
    while dist[path[-1]] > 0:
        x = path[-1]
        path.append(next(int(w) for w in reversed(ball.adj[x]) if w >= 0 and dist[w] == dist[x] - 1))
    return path[::-1]


def verify_digon(ball: CayleyBall, low: list[int], up: list[int]) -> Digon:
    """Check the digon structure: matched division points with short
    divisors, and every cell bearing a symmetrized element."""
    p = ball.presentation
    l = p.length
    sym = set(symmetrize(p).elements)
    out = Digon(list(low), list(up), [], [])
    if low[0] != up[0] or low[-1] != up[-1]:
        out.violations.append("sides do not share endpoints")
        return out
    if len(low) != len(up):
        out.violations.append("sides have different lengths")
        return out
    interior_low = set(low[1:-1])
    interior_up = set(up[1:-1])
    if interior_low & interior_up:
        out.violations.append("sides meet away from the endpoints")
        return out

    divisor_max = (l - 1) // 8  # strict: divisors are shorter than l/8
    pairs: list[tuple[int, int, list[int]]] = []
    if divisor_max >= 1:
        for i in range(1, len(low) - 1):
            dist_a = ball.bfs_from(low[i], max_depth=divisor_max)
            for j in range(1, len(up) - 1):
                if dist_a[up[j]] >= 1:
                    pairs.append((i, j, _path_back(ball, dist_a, up[j])))
    # division pairs must be noncrossing and aligned in order
    pairs.sort()
    js = [j for _, j, _ in pairs]
    if js != sorted(js):
        out.violations.append("division pairs cross")
        return out

    # cells between consecutive chords (endpoints count as trivial chords)
    chords = [(0, 0, [low[0]])] + [(i, j, path) for i, j, path in pairs] + [
        (len(low) - 1, len(up) - 1, [low[-1]])
    ]
    for (i0, j0, d0), (i1, j1, d1) in zip(chords, chords[1:]):
        low_arc = low[i0 : i1 + 1]
        up_arc = up[j0 : j1 + 1]
        cycle = low_arc[:-1] + d1[:-1] + up_arc[::-1][:-1] + d0[::-1][:-1]
        if not cycle or len(cycle) != (i1 - i0) + (j1 - j0) + len(d0) + len(d1) - 2:
            out.violations.append("cell cycle does not close")
            continue
        try:
            word = ball.path_letters(cycle + [cycle[0]])
        except ValueError:
            out.violations.append("cell cycle has a missing edge")
            continue
        if len(word) != l or word not in sym:
            out.violations.append(
                f"cell between low[{i0}:{i1}] and up[{j0}:{j1}] bears "
                f"{word.text()!r}, not a symmetrized relator"
            )
            continue
        out.cells.append(Cell(cycle, word, i1 - i0, j1 - j0))
    out.division_pairs = pairs
    return out


def decompose_digons(ball: CayleyBall, path1: list[int], path2: list[int]):
    """Split the disagreement between two equal-endpoint geodesics into
    maximal digons; shared stretches are returned as index runs."""
    if path1[0] != path2[0] or path1[-1] != path2[-1]:
        raise ValueError("paths must share endpoints")
    if len(path1) != len(path2):
        raise ValueError("paths must have equal length")
    digons: list[Digon] = []
    shared: list[int] = []
    i = 0
    m = len(path1)
    while i < m:
        if path1[i] == path2[i]:
            shared.append(i)
            i += 1
            continue
        start = i - 1
        while i < m and path1[i] != path2[i]:
            i += 1
        end = i  # first agreeing index after the run
        digons.append(verify_digon(ball, path1[start : end + 1], path2[start : end + 1]))
    return digons, shared


@dataclass
class MergedDigon:
    interval: tuple[int, int]   # edge-index range on the base
    members: list[Digon]
    cells: list[Cell]


@dataclass
class SingleLayerConfig:
    base: list[int]
    digons: list[MergedDigon]
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and all(d.ok for m in self.digons for d in m.members)


def single_layer(ball: CayleyBall, u: int, v: int) -> SingleLayerConfig:
    """Base geodesic plus merged digons covering every other geodesic.

    Digons whose lower sides overlap in at least l/8 edges merge; after
    merging, distinct digons overlap in less than l/8 edges and only
    consecutive ones may touch at all.
    """
    p = ball.presentation
    l = p.length
    geos = all_geodesics(ball, u, v)
    base = geos[0]  # lexicographically least by letter sequence
    base_pos = {vert: i for i, vert in enumerate(base)}
    cfg = SingleLayerConfig(base, [])

    raw: list[tuple[tuple[int, int], Digon]] = []
    for other in geos[1:]:
        digons, _ = decompose_digons(ball, base, other)
        for d in digons:
            i0 = base_pos[d.low[0]]
            i1 = base_pos[d.low[-1]]
            raw.append(((i0, i1), d))

    # merge clusters by overlap >= l/8 (transitively)
    parent = list(range(len(raw)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def overlap(a, b):
        return max(0, min(a[1], b[1]) - max(a[0], b[0]))

    for i in range(len(raw)):
        for j in range(i + 1, len(raw)):
            if Fraction(overlap(raw[i][0], raw[j][0])) * 8 >= l:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    clusters: dict[int, list[int]] = {}
    for i in range(len(raw)):
        clusters.setdefault(find(i), []).append(i)

    merged: list[MergedDigon] = []
    for root in sorted(clusters, key=lambda r: min(raw[i][0] for i in clusters[r])):
        members = [raw[i][1] for i in clusters[root]]
        lo = min(raw[i][0][0] for i in clusters[root])
        hi = max(raw[i][0][1] for i in clusters[root])
        # deduplicate cells by their vertex set
        seen = {}
        for d in members:
            for cell in d.cells:
                seen.setdefault(frozenset(cell.cycle), cell)
        # identical lows must have identical ups inside one cluster
        ups_by_low = {}
        for d in members:
            ups_by_low.setdefault(tuple(d.low), set()).add(tuple(d.up))
        for low_key, ups in ups_by_low.items():
            if len(ups) > 1:
                cfg.violations.append(
                    f"two distinct upper sides over one lower side at base interval ({lo},{hi})"
                )
        merged.append(MergedDigon((lo, hi), members, list(seen.values())))

    merged.sort(key=lambda m: m.interval)
    # after merging: pairwise overlap < l/8, only consecutive clusters touch
    for i in range(len(merged)):
        for j in range(i + 1, len(merged)):
            ov = overlap(merged[i].interval, merged[j].interval)
            if Fraction(ov) * 8 >= l:
                cfg.violations.append("merged digons still overlap by at least l/8")
            if j > i + 1 and ov > 0:
                cfg.violations.append("non-consecutive digons intersect")

    # coverage: every geodesic lies in the base plus the digon cells
    covered = set(base)
    for m in merged:
        for cell in m.cells:
            covered.update(cell.cycle)
        for d in m.members:
            for _, _, path in d.division_pairs:
                covered.update(path)
            covered.update(d.up)  # single-cell digons have up inside cells anyway
    for other in geos[1:]:
        stray = [x for x in other if x not in covered]
        if stray:
            cfg.violations.append(f"geodesic vertices {stray} outside the configuration")
    cfg.digons = merged
    return cfg


def distance_minimizers(ball: CayleyBall, base: list[int], c: int) -> list[int]:
    """Vertices of a geodesic minimizing the distance to c.

    Every (vertex, c) pair involved must be reliable; the structure
    results say the answer has at most two elements.
    """
    dist_c = ball.bfs_from(c)
    R = ball.radius
    for x in base:
        dxc = int(dist_c[x])
        if dxc < 0 or int(ball.dist[x]) + int(ball.dist[c]) + dxc > 2 * R:
            raise ReliabilityError(f"pair ({x}, {c}) is not reliable at radius {R}")
    best = min(int(dist_c[x]) for x in base)
    return [x for x in base if int(dist_c[x]) == best]


@dataclass
class UniquenessReport:
    groups: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def digon_side_uniqueness(ball: CayleyBall, digons: list[Digon]) -> UniquenessReport:
    """Each lower side determines the upper side; every cell of every
    digon has both long arcs strictly longer than l/4."""
    l = ball.presentation.length
    by_low: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for d in digons:
        by_low.setdefault(tuple(d.low), set()).add(tuple(d.up))
    rep = UniquenessReport(groups=len(by_low))
    for low, ups in by_low.items():
        if len(ups) != 1:
            rep.violations.append(f"lower side {low} admits {len(ups)} upper sides")
    for d in digons:
        for cell in d.cells:
            if not (Fraction(cell.low_arc) * 4 > l and Fraction(cell.up_arc) * 4 > l):
                rep.violations.append(
                    f"cell arcs ({cell.low_arc}, {cell.up_arc}) not both longer than l/4"
                )
    return rep


# -- exhaustive scans -----------------------------------------------------------


GEOMETRY_CHECKS = ("single-layer", "digons", "minimizers")


def require_known_checks(checks) -> None:
    """Reject check names that geometry_scan does not know."""
    unknown = [c for c in checks if c not in GEOMETRY_CHECKS]
    if unknown:
        raise ValueError(f"unknown geometry checks {unknown}; known: {', '.join(GEOMETRY_CHECKS)}")


@dataclass
class GeometryReport:
    pairs_checked: int = 0
    triples_checked: int = 0
    digon_count: int = 0
    max_divisor_len: int = 0
    violations: list[str] = field(default_factory=list)

    def merge(self, other: "GeometryReport"):
        self.pairs_checked += other.pairs_checked
        self.triples_checked += other.triples_checked
        self.digon_count += other.digon_count
        self.max_divisor_len = max(self.max_divisor_len, other.max_divisor_len)
        self.violations.extend(other.violations)


def geometry_scan(ball: CayleyBall, checks=GEOMETRY_CHECKS) -> GeometryReport:
    """Exhaustive verification over the ball, one pair class per vertex.

    Pairs (u, v) translate to (1, u^-1 v), so scanning every reliable
    pair (identity, w) is exhaustive up to translation; likewise triples
    for the minimizer check.  Raises ValueError on an unknown check name.
    """
    require_known_checks(checks)
    rep = GeometryReport()
    digons = []
    want_layers = "single-layer" in checks or "digons" in checks
    if want_layers:
        for v in range(1, ball.n_vertices):
            rep.pairs_checked += 1
            cfg = single_layer(ball, 0, v)
            rep.violations.extend(f"pair (0,{v}): {msg}" for msg in cfg.violations)
            for m in cfg.digons:
                digons.extend(m.members)
                rep.digon_count += len(m.members)
                for dg in m.members:
                    rep.violations.extend(f"pair (0,{v}): {msg}" for msg in dg.violations)
                    for _, _, path in dg.division_pairs:
                        rep.max_divisor_len = max(rep.max_divisor_len, len(path) - 1)
    if "digons" in checks and digons:
        uniq = digon_side_uniqueness(ball, digons)
        rep.violations.extend(uniq.violations)
    if "minimizers" in checks:
        checked, bad = _minimizer_scan(ball)
        rep.triples_checked += checked
        rep.violations.extend(bad)
    return rep


def _minimizer_scan(ball: CayleyBall):
    """Count argmin points of d(., c) over every based geodesic, for every
    c, skipping triples with an unreliable pair.  Exhaustive up to
    translation."""
    V = ball.n_vertices
    R = ball.radius
    d1 = ball.dist.astype(np.int64)
    # base geodesic of (0, w) = the canonical word path, for reliable w
    base_flat = []
    offsets = []
    targets = []
    for w in range(1, V):
        path = [0]
        v = 0
        for g in ball.words[w]:
            v = ball.neighbor(v, g)
            path.append(v)
        offsets.append(len(base_flat))
        base_flat.extend(path)
        targets.append(w)
    if not targets:
        return 0, []
    base_flat = np.array(base_flat, dtype=np.int64)
    offsets = np.array(offsets, dtype=np.int64)
    sizes = np.diff(np.append(offsets, len(base_flat)))

    violations = []
    checked = 0
    for c in range(V):
        dist_c = ball.bfs_from(c).astype(np.int64)
        vals = dist_c[base_flat]
        reliable = (vals >= 0) & (d1[base_flat] + int(d1[c]) + vals <= 2 * R)
        all_ok = np.logical_and.reduceat(reliable, offsets)
        safe_vals = np.where(reliable, vals, np.iinfo(np.int64).max)
        mins = np.minimum.reduceat(safe_vals, offsets)
        is_min = safe_vals == np.repeat(mins, sizes)
        counts = np.add.reduceat(is_min, offsets)
        checked += int(all_ok.sum())
        bad = np.nonzero(all_ok & (counts > 2))[0]
        for i in bad:
            violations.append(
                f"base (0,{targets[i]}), point {c}: {int(counts[i])} minimizers"
            )
    return checked, violations
