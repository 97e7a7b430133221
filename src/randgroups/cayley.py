"""Bounded Cayley-graph balls of small cancellation presentations, and the
geodesic structure checks: digon rigidity, single-layer coverage, and
distance-minimizer rigidity.

Ball construction is a breadth-first search a layer at a time.  Every
vertex at distance k has a canonical word (the least geodesic in the
letter order a, A, b, B, ...) of exactly k letters, so layer k is an
(n_k, k) int8 array, and the candidates for layer k + 1 are its rows
times every letter that does not cancel their last one, in (u, letter)
order.  A candidate w = words[u]*g joins an existing vertex v only when
w = v is certified, by one of two rules.  Inside the short window
|w| + k + 1 < 2l - 2*maxpiece a nonempty trivial word is a conjugate of
a symmetrized element r (a diagram with two or more faces has a longer
boundary).  Write w = c*x and v = c*y with c their longest common
prefix: w is no vertex word yet, so x and y also end differently, x*y^-1
is the cyclically reduced core of w*v^-1 and must be r itself, and
l/2 <= |x| <= l/2 + 1, since v is no longer than w and x less its last
letter lies on the geodesic words[u].  So the vertex equal to w is
looked up, not searched for: each suffix x of those lengths is looked
up among the prefixes of the symmetrized elements
(cancellation._relator_halves), y is read off r = x*y^-1, and c*y is
looked up among the words of its layer.  Both lookups compare uint64
window hashes (cancellation._window_hashes) in sorted tables and
confirm every hit letter by letter, so a collision costs time, never
exactness.  A hit is equal to w, since w*v^-1 is conjugate to r, and
inside the window a miss proves w new.  When l is even, |y| can equal
|x|, so two candidates of one layer can be equal: the first in
(u, letter) order is kept, and vertices are numbered in that order.  The
candidates of the outermost layer k = R only get edges.

Outside the window the layers are built the same way, and each
candidate whose lookups miss goes, one at a time in (u, letter) order,
to a class scan: each vertex v at distance k-1..k+1 in w's class in the
abelianization modulo the relator lattice, the new vertices of the layer
so far included, is tested with is_trivial(w*v^-1), complete under
C'(1/6).

Geometric claims are asserted only for reliable pairs, under the
containment criterion d(1,u) + d(1,v) + d(u,v) <= 2R: every true
geodesic between u and v then lies inside the ball, so in-ball
enumeration is exact and complete for the group.  geometry_scan runs the
checks over every reliable pair and triple of a ball.  A pair (1, w)
with a single geodesic has no second geodesic to form a digon with and
no geodesic vertex outside its base, so it passes the single-layer check
as it stands: one numpy pass counts the geodesics to every vertex
(_geodesic_counts), and single_layer runs only where there are two or
more.  The minimizer scan finds the reliable pairs with one
breadth-first search from many sources at once, pruned so that it
reaches exactly those pairs (_reliable_pairs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .words import Word, Presentation, _raw, free_reduce, invert
from .cancellation import is_trivial, symmetrize, max_piece_length
from .cancellation import _require_sixth, _prefix_sizes, _relator_halves, _window_hashes
from .diagrams import _find


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
    codes: np.ndarray          # V x R int8: row v starts with the canonical word of v, then 0s
    parent: np.ndarray         # the vertex of the canonical word less its last letter (0 for 0)
    dist: np.ndarray           # graph distance from the identity
    adj: np.ndarray            # V x 2n, adj[v][col] = neighbor or -1 (outside)

    @property
    def n_vertices(self) -> int:
        return len(self.dist)

    @cached_property
    def words(self) -> list[Word]:
        """The canonical (lexicographically least geodesic) words, made on first use."""
        return [_raw(row[:d]) for row, d in zip(self.codes.tolist(), self.dist.tolist())]

    @cached_property
    def index(self) -> dict[Word, int]:
        return {w: v for v, w in enumerate(self.words)}

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
            frontier = _sorted_unique(new)
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


def _hash_matches(keys: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (i, e) with keys[e] == q[i], keys sorted: the places
    where query i may match, still to be compared letter by letter."""
    lo = np.searchsorted(keys, q, "left")
    n = np.searchsorted(keys, q, "right") - lo
    i = np.repeat(np.arange(len(q)), n)
    return i, np.arange(len(i)) - np.repeat(np.cumsum(n) - n - lo, n)


def build_ball(p: Presentation, R: int, max_vertices: int = 200_000) -> CayleyBall:
    """Breadth-first ball of radius R with certified vertex identification,
    a layer at a time (see the module docstring).

    Requires a C'(1/6) presentation (Dehn equality is then complete), and
    R >= 1.  Raises BallBudgetExceeded past max_vertices, before the
    arrays of the layer that would pass it are made.
    """
    _require_sixth(p)
    if R < 1:
        raise ValueError("radius must be >= 1")
    n, l, m = p.rank, p.length, 2 * p.rank
    # Short trivial words are conjugates of relators: a reduced diagram
    # with two faces has boundary longer than 2l - 2*maxpiece (and
    # bridged or larger diagrams longer still), so below that threshold
    # triviality is exactly cyclic reduction into the symmetrized set.
    if p.relators:
        short_window = 2 * l - 2 * max_piece_length(p).max_piece_length
        halves = [(j, *_relator_halves(p, j)) for j in _prefix_sizes(l)]
    else:
        short_window, halves = math.inf, []
    # Abelian classes serve only the certification outside the window.
    if 2 * R + 1 >= short_window:
        reducer = _AbelianReducer(p)
        vecs = [reducer.reduce((0,) * n)]
        by_class = {vecs[0]: [(0, 0, Word())]}  # class -> (vertex, distance, word)
    else:
        by_class = None
    letters = np.array(_letter_order(n), np.int8)  # letters[c] labels adjacency column c

    # layer k: its words, their window hashes sorted and the order that
    # sorts them, its first vertex and the parents of its vertices
    rows = [np.zeros((1, 0), np.int8)]
    keys = [np.zeros(1, np.uint64)]
    orders = [np.zeros(1, np.intp)]
    starts = [0]
    parent = [np.zeros(1, np.int32)]
    adj = np.full((1, m), -1, np.int32)
    V = 1
    for k in range(R + 1):
        first = starts[k]
        u = np.repeat(np.arange(len(rows[k]), dtype=np.int32), m)
        col = np.tile(np.arange(m, dtype=np.int32), len(rows[k]))
        if k:
            keep = letters[col] != -rows[k][u, -1]
            u, col = u[keep], col[keep]
        cand = np.concatenate([rows[k][u], letters[col, None]], axis=1)
        ch = _window_hashes(cand, k + 1, n)[:, 0]
        found = np.full(len(cand), -1, np.int32)  # an equal vertex of layer k + 1 - 2j + l <= k
        same = np.full(len(cand), -1, np.int32)   # an equal candidate (|y| = |x|)
        for j, halves_j, elements in halves:
            if j > k + 1:
                break
            at = k + 1 + l - 2 * j  # the layer of c * y
            if at > R:
                continue
            i, e = _hash_matches(halves_j, _window_hashes(cand[:, k + 1 - j :], j, n)[:, 0])
            ok = (elements[e, :j] == cand[i, k + 1 - j :]).all(axis=1)
            i, e = i[ok], e[ok]
            target = np.concatenate([cand[i, : k + 1 - j], -elements[e, j:][:, ::-1]], axis=1)
            th = _window_hashes(target, at, n)[:, 0]
            if at <= k:
                t, e = _hash_matches(keys[at], th)
                v = orders[at][e]
                ok = (rows[at][v] == target[t]).all(axis=1)
                found[i[t[ok]]] = starts[at] + v[ok]
            else:
                order = np.argsort(ch)
                t, e = _hash_matches(ch[order], th)
                v = order[e]
                ok = (cand[v] == target[t]).all(axis=1)
                same[i[t[ok]]] = v[ok]
        back = np.flatnonzero((same >= 0) & (same < np.arange(len(cand), dtype=np.int32)))
        new = found < 0
        new[back] = False
        if by_class is not None:
            scan = k + 1 + min(k + 1, R) >= short_window
            made = V
            for i in np.flatnonzero(new).tolist():
                vec = list(vecs[first + u[i]])
                g = int(letters[col[i]])
                vec[abs(g) - 1] += 1 if g > 0 else -1
                key = reducer.reduce(tuple(vec))
                w = _raw(cand[i].tolist())
                if scan:
                    hit = next((x for x, d, word in by_class.get(key, ()) if d >= k - 1
                                and is_trivial(w.concat(invert(word)), p)), None)
                    if hit is not None:
                        new[i], found[i] = False, hit
                        continue
                if k < R:
                    vecs.append(key)
                    by_class.setdefault(key, []).append((made, k + 1, w))
                    made += 1
        vid = found
        if k < R:
            count = int(np.count_nonzero(new))
            if V + count > max_vertices:
                raise BallBudgetExceeded(max_vertices, k)
            vid[new] = np.arange(V, V + count)
            # a candidate equal to an earlier one takes its vertex; a chain
            # of them settles one link a pass
            while (vid[back] != vid[same[back]]).any():
                vid[back] = vid[same[back]]
            rows.append(cand[new])
            orders.append(np.argsort(ch[new]))
            keys.append(ch[new][orders[-1]])
            starts.append(V)
            parent.append((first + u[new]).astype(np.int32))
            adj = np.concatenate([adj, np.full((count, m), -1, np.int32)])
            V += count
        ok = vid >= 0
        src = first + u[ok]
        adj[src, col[ok]] = vid[ok]
        adj[vid[ok], col[ok] ^ 1] = src  # columns 2i and 2i + 1 hold inverse letters

    codes = np.zeros((V, R), np.int8)
    for k, r in enumerate(rows):
        codes[starts[k] : starts[k] + len(r), :k] = r
    dist = np.repeat(np.arange(len(rows), dtype=np.int32), [len(r) for r in rows])
    return CayleyBall(p, R, codes, np.concatenate(parent), dist, adj)


# -- reliability ---------------------------------------------------------------


def pair_reliable(ball: CayleyBall, u: int, v: int, duv: int) -> bool:
    """Containment criterion: d(1,u) + d(1,v) + d(u,v) <= 2R, duv being
    the in-ball distance d(u,v).

    Any vertex x on a true geodesic [u,v] satisfies d(1,x) <= (d(1,u) +
    d(1,v) + d(u,v)) / 2, so under this bound every geodesic between u
    and v lies inside the ball and in-ball distances are exact.  (Using
    the in-ball d(u,v) here is sound: it only overestimates.)
    """
    return int(ball.dist[u]) + int(ball.dist[v]) + duv <= 2 * ball.radius


MAX_GEODESICS = 100_000


def all_geodesics(ball: CayleyBall, u: int, v: int) -> list[list[int]]:
    """Every geodesic vertex path from u to v inside the ball.

    The pair must be reliable, so the in-ball enumeration is complete for
    the group.  Paths come out sorted by their letter sequences; more
    than MAX_GEODESICS of them raise RuntimeError.
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
            if len(paths) > MAX_GEODESICS:
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
    origin = symmetrize(p).origin
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
        if len(word) != l or word not in origin:
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
    parent: dict[int, int] = {}

    def overlap(a, b):
        return max(0, min(a[1], b[1]) - max(a[0], b[0]))

    for i in range(len(raw)):
        for j in range(i + 1, len(raw)):
            if 8 * overlap(raw[i][0], raw[j][0]) >= l:
                ri, rj = _find(parent, i), _find(parent, j)
                if ri != rj:
                    parent[ri] = rj

    clusters: dict[int, list[int]] = {}
    for i in range(len(raw)):
        clusters.setdefault(_find(parent, i), []).append(i)

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
            if 8 * ov >= l:
                cfg.violations.append("merged digons still overlap by at least l/8")
            if j > i + 1 and ov > 0:
                cfg.violations.append("non-consecutive digons intersect")

    # coverage: every geodesic lies in the base, the digon cells and the divisor paths
    covered = set(base)
    for m in merged:
        for cell in m.cells:
            covered.update(cell.cycle)
        for d in m.members:
            for _, _, path in d.division_pairs:
                covered.update(path)
    for other in geos[1:]:
        stray = [x for x in other if x not in covered]
        if stray:
            cfg.violations.append(f"geodesic vertices {stray} outside the configuration")
    cfg.digons = merged
    return cfg


@dataclass
class UniquenessReport:
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
    rep = UniquenessReport()
    for low, ups in by_low.items():
        if len(ups) != 1:
            rep.violations.append(f"lower side {low} admits {len(ups)} upper sides")
    for d in digons:
        for cell in d.cells:
            if not (4 * cell.low_arc > l and 4 * cell.up_arc > l):
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
    multi_geodesic_pairs: int = 0   # pairs with two or more geodesics, run through single_layer

    def merge(self, other: "GeometryReport"):
        self.pairs_checked += other.pairs_checked
        self.multi_geodesic_pairs += other.multi_geodesic_pairs
        self.triples_checked += other.triples_checked
        self.digon_count += other.digon_count
        self.max_divisor_len = max(self.max_divisor_len, other.max_divisor_len)
        self.violations.extend(other.violations)


def geometry_scan(ball: CayleyBall, checks=GEOMETRY_CHECKS) -> GeometryReport:
    """Exhaustive verification over the ball, one pair class per vertex.

    Pairs (u, v) translate to (1, u^-1 v), so scanning every reliable
    pair (identity, w) is exhaustive up to translation; likewise triples
    for the minimizer check.  Every pair is checked, but single_layer runs
    only on the pairs with two or more geodesics (in vertex order): a
    pair with one geodesic has no digon, and no geodesic vertex lies
    outside its base, so single_layer would report nothing for it.
    Raises ValueError on an unknown check name.
    """
    require_known_checks(checks)
    rep = GeometryReport()
    digons = []
    want_layers = "single-layer" in checks or "digons" in checks
    if want_layers:
        rep.pairs_checked += ball.n_vertices - 1
        # a count of 0 (a malformed ball) also goes to single_layer, which fails on it
        for v in np.flatnonzero(_geodesic_counts(ball) != 1).tolist():
            rep.multi_geodesic_pairs += 1
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


def _geodesic_counts(ball: CayleyBall) -> np.ndarray:
    """The number of geodesics from the identity to each vertex, saturated
    at 2: len(all_geodesics(ball, 0, v)) capped at 2.

    One numpy pass per layer of ball.dist: a vertex at distance k sums the
    counts of its adjacency entries at distance k - 1.  Capping each term
    at 2 caps the sum exactly, since the terms are nonnegative.
    """
    dist = ball.dist
    counts = np.zeros(ball.n_vertices, dtype=np.int64)
    counts[0] = 1
    for k in range(1, int(dist.max(initial=0)) + 1):
        at = np.flatnonzero(dist == k)
        nbrs = ball.adj[at]
        down = (nbrs >= 0) & (dist[nbrs] == k - 1)
        counts[at] = np.minimum(np.where(down, counts[nbrs], 0).sum(axis=1), 2)
    return counts


# pairs per block of sources in _minimizer_scan: bounds its working memory
_PAIR_BUDGET = 1 << 18


def _minimizer_scan(ball: CayleyBall):
    """Count argmin points of d(., c) over every based geodesic, for every
    c, on the triples whose pairs are all reliable.  Exhaustive up to
    translation.

    The based geodesic of (0, w) is the path of the canonical word of w;
    the pair (c, w) is reliable exactly when every (c, x) with x on that
    path is, since d(1, x) + d(c, x) <= d(1, w) + d(c, w).  So the triples
    checked are the reliable pairs (c, w), w != 1, which _reliable_pairs
    finds with their distances, and the minimizers over a path are folded
    in from those over the path to ball.parent[w].  A source reaches at
    most V pairs, so the first block takes _PAIR_BUDGET // V sources; the
    later ones are sized from the pairs per source of the block before,
    so that a block holds about _PAIR_BUDGET pairs.
    """
    V = ball.n_vertices
    R = ball.radius
    d1 = ball.dist
    parent = ball.parent
    checked = 0
    violations = []
    c0, block = 0, max(1, _PAIR_BUDGET // V)
    while c0 < V:
        keys, dist = _reliable_pairs(ball, np.arange(c0, min(c0 + block, V)))
        s, x = np.divmod(keys, V)
        up = np.searchsorted(keys, s * V + parent[x])
        low = dist.copy()   # least d(c, .) on the path so far
        count = np.ones_like(dist)
        level = d1[x]
        for t in range(1, R + 1):
            at = np.flatnonzero(level == t)
            lo, n, d = low[up[at]], count[up[at]], dist[at]
            low[at] = np.minimum(lo, d)
            count[at] = np.where(lo < d, n, np.where(lo == d, n + 1, 1))
        checked += int(np.count_nonzero(level))
        for i in np.flatnonzero((level > 0) & (count > 2)):
            violations.append(f"base (0,{x[i]}), point {c0 + s[i]}: {count[i]} minimizers")
        c0 += block
        block = max(1, min(4 * block, _PAIR_BUDGET * block // keys.size))
    return checked, violations


def _reliable_pairs(ball: CayleyBall, sources: np.ndarray):
    """Every reliable pair (c, x), c in sources, with its in-ball distance:
    sorted keys (c - sources[0]) * V + x and the distances.

    One breadth-first search from all sources at once that expands y at
    depth j from c only while d(1, y) + j <= 2R - d(1, c).  Every vertex y
    on an in-ball geodesic from c to a reliable x, at j = d(c, y), has
    d(1, y) + j <= d(1, x) + d(c, x) and so passes; a vertex reached past
    its distance from c would have passed there.  So the pairs reached
    are the reliable ones, each at its exact distance.
    """
    V = ball.n_vertices
    d1 = ball.dist
    dtype = np.int32 if sources.size * V < 2**31 else np.int64
    room = 2 * ball.radius - d1[sources]
    front = np.arange(sources.size, dtype=dtype) * V + sources.astype(dtype)
    levels = [front]
    older = front[:0]
    j = 0
    while front.size:
        j += 1
        s, y = np.divmod(front, V)
        z = ball.adj[y]
        s = np.broadcast_to(s[:, None], z.shape)
        keep = z >= 0
        s, z = s[keep], z[keep]
        keep = d1[z] + j <= room[s]
        nxt = _sorted_unique(s[keep] * V + z[keep])
        nxt = nxt[~_member(levels[-1], nxt) & ~_member(older, nxt)]
        older = levels[-1]
        levels.append(nxt)
        front = nxt
    keys = np.concatenate(levels)
    dist = np.repeat(np.arange(len(levels), dtype=np.int32), [a.size for a in levels])
    order = np.argsort(keys)
    return keys[order], dist[order]


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) by a sort and a neighbour compare, which numpy 2.x
    runs many times faster on large integer arrays."""
    a = np.sort(a)
    keep = np.ones(a.shape, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _member(sorted_keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Which entries of q occur in the sorted array sorted_keys."""
    if not sorted_keys.size:
        return np.zeros(q.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, q), sorted_keys.size - 1)
    return sorted_keys[pos] == q
