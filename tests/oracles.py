"""Independent brute-force oracles the library is tested against.

Everything here favors obviousness over speed and deliberately shares no
code paths with the implementations under test.
"""

from __future__ import annotations

from collections import deque
from itertools import product

from randgroups.unification import Piece, PieceAlphabet
from randgroups.words import Word, Presentation, free_reduce, invert


def reduce_one_pass(w: Word) -> Word:
    """Cancel at most one adjacent pair per pass."""
    for i in range(len(w) - 1):
        if w[i] == -w[i + 1]:
            return Word(w[:i] + w[i + 2 :])
    return Word(w)


def free_reduce_oracle(w: Word) -> Word:
    prev, cur = None, Word(w)
    while prev != cur:
        prev, cur = cur, reduce_one_pass(cur)
    return cur


def cyclic_reduce_oracle(w: Word):
    """Try all prefix peelings; returns the cyclically reduced core."""
    cur = free_reduce_oracle(w)
    conj = []
    while len(cur) >= 2 and cur[0] == -cur[-1]:
        conj.append(cur[0])
        cur = Word(cur[1:-1])
    return cur, Word(conj)


def all_cyclic_occurrences(p: Presentation, k: int):
    """Map each length-k word to its cyclic occurrences (relator, dir, start)."""
    occs = {}
    for j, r in enumerate(p.relators):
        for e in (1, -1):
            base = tuple(r) if e == 1 else tuple(invert(r))
            l = len(base)
            for s in range(l):
                window = tuple(base[(s + t) % l] for t in range(k))
                occs.setdefault(window, []).append((j, e, s))
    return occs


def max_piece_oracle(p: Presentation) -> int:
    """Quadratic/brute enumeration of every shared cyclic subword."""
    best = 0
    for k in range(1, p.length + 1):
        if any(len(v) >= 2 for v in all_cyclic_occurrences(p, k).values()):
            best = k
    return best


def enumerate_reduced_words(n: int, max_len: int):
    """All freely reduced words of length <= max_len over rank n, by
    (length, letters) with the letters ordered a, A, b, B, ..."""
    alphabet = [g for i in range(1, n + 1) for g in (i, -i)]
    out = [Word()]
    frontier = [Word()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for a in alphabet:
                if w and w[-1] == -a:
                    continue
                nxt.append(Word(w + (a,)))
        out.extend(nxt)
        frontier = nxt
    return out


def dedup_in_group_oracle(words, p: Presentation) -> list[Word]:
    """The first word of each group element among `words`, in order, by
    is_trivial against every kept word (|words|^2 Dehn calls)."""
    from randgroups.cancellation import is_trivial

    kept: list[Word] = []
    for w in words:
        if not any(is_trivial(w.concat(invert(v)), p) for v in kept):
            kept.append(w)
    return kept


def eval_clause_group(c, assignment: dict[str, Word], p: Presentation) -> bool:
    """The per-tuple oracle of bounded refutation: truth of the clause in
    the group of p under a total assignment, with equality decided by
    Dehn's algorithm (the free group of rank n is Presentation(n))."""
    from randgroups.cancellation import is_trivial
    from randgroups.words import substitute

    hyps = all(is_trivial(substitute(v, assignment), p) for v in c.system)
    if not hyps:
        return True
    return any(is_trivial(substitute(w, assignment), p) for w in c.conclusions)


def _tuples_in_order(universe: list[Word], k: int, budget: int | None):
    """Assignments ordered by total length, then componentwise index, one
    tuple at a time; the order refute_on_ball_group searches in.

    The universe must be sorted by length with every length from 0 to the
    longest present, as a ball's words are.  Over budget, BudgetExceeded
    is raised before any tuple is made.
    """
    from randgroups.sentences import BudgetExceeded

    count = len(universe) ** k
    if budget is not None and count > budget:
        raise BudgetExceeded(count)
    if k == 0:
        yield ()
        return
    by_length: dict[int, list[Word]] = {}
    for w in universe:
        by_length.setdefault(len(w), []).append(w)
    top = len(universe[-1])

    def tuples(j: int, total: int):
        """Tuples of j >= 1 words of total length `total`, in order."""
        if j == 1:
            yield from ((w,) for w in by_length.get(total, ()))
            return
        for n, words in by_length.items():
            if n > total:
                break
            if total - n <= (j - 1) * top:
                for w in words:
                    for t in tuples(j - 1, total - n):
                        yield (w,) + t

    for total in range(k * top + 1):
        yield from tuples(k, total)


def dehn_walk_oracle(w: Word, p: Presentation):
    """Dehn's algorithm the long way: rescan from position 0 for the
    leftmost window of floor(l/2) + 1 letters that starts some symmetrized
    elements, use the candidate that matches longest, free-reduce the whole
    word, and repeat.  Returns (final word, [(position, element, origin,
    removed) per step]), the layout of cancellation.DehnStep."""
    from randgroups.cancellation import symmetrize

    sym = symmetrize(p)
    half = p.length // 2 + 1
    candidates: dict[tuple, list[Word]] = {}
    for el in sym.elements:
        candidates.setdefault(tuple(el[:half]), []).append(el)
    cur, trace = free_reduce(w), []
    while True:
        best = None
        for i in range(len(cur) - half + 1):
            for el in candidates.get(tuple(cur[i : i + half]), []):
                k = half
                while k < min(len(el), len(cur) - i) and el[k] == cur[i + k]:
                    k += 1
                if best is None or k > best[3]:
                    best = (i, el, sym.origin[el], k)
            if best is not None:
                break
        if best is None:
            return cur, trace
        trace.append(best)
        i, el, _, k = best
        cur = free_reduce(Word(cur[:i]).concat(invert(Word(el[k:]))).concat(Word(cur[i + k :])))


def insertion_neighbors(w: Word, elements, cap: int):
    """Reduced words reachable in one insert-a-relator move, length <= cap."""
    seen = set()
    for i in range(len(w) + 1):
        left, right = Word(w[:i]), Word(w[i:])
        for el in elements:
            nw = free_reduce(left.concat(el).concat(right))
            if len(nw) <= cap:
                seen.add(nw)
    return seen


def bfs_trivial_oracle(w: Word, p: Presentation, cap: int, max_states: int = 200_000):
    """BFS over insert-relator/free-reduce moves with a length cap.

    Returns True/False, or None if the state budget is exhausted before
    the search space within the cap is exhausted.
    """
    from randgroups.cancellation import symmetrize

    elements = symmetrize(p).elements
    start = free_reduce(w)
    if len(start) == 0:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        if len(seen) > max_states:
            return None
        cur = queue.popleft()
        for nw in insertion_neighbors(cur, elements, cap):
            if len(nw) == 0:
                return True
            if nw not in seen:
                seen.add(nw)
                queue.append(nw)
    return False


def set_partition_count(f: int, n: int) -> int:
    """Number of partitions of {1..f} into n nonempty blocks, by explicit
    enumeration (restricted growth strings)."""
    if n == 0:
        return 1 if f == 0 else 0
    count = 0

    # restricted growth: element i goes in an existing block or opens one
    def grow(i, used):
        nonlocal count
        if i == f:
            if used == n:
                count += 1
            return
        for b in range(used + 1):
            grow(i + 1, used + (1 if b == used else 0))

    grow(0, 0)
    return count


def transitive_closure_unify(n_positions: int, relations):
    """Brute-force signed closure of position identifications.

    relations: iterable of (i, j, sign) meaning position i equals position
    j (sign +1) or its reverse (sign -1).  Returns (labels, signs) where
    labels[i] is a component id and signs[i] the orientation relative to
    the component representative, or raises ValueError on a forced
    a = a^-1 conflict.
    """
    n = n_positions
    adj = {i: [] for i in range(n)}
    for i, j, s in relations:
        adj[i].append((j, s))
        adj[j].append((i, s))
    labels = [-1] * n
    signs = [0] * n
    comp = 0
    for root in range(n):
        if labels[root] != -1:
            continue
        labels[root] = comp
        signs[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for u, s in adj[v]:
                want = signs[v] * s
                if labels[u] == -1:
                    labels[u] = comp
                    signs[u] = want
                    stack.append(u)
                elif signs[u] != want:
                    raise ValueError("orientation conflict: a = a^-1 forced")
        comp += 1
    return labels, signs


def adjacent_merge_oracle(pieces: list[Piece], total: int, walls: set[int]) -> PieceAlphabet:
    """Merge piece pairs (p, q) that only ever occur as the block p q (or
    its reverse q^-1 p^-1), repeating to a fixpoint.

    Adjacency never crosses a segment wall.  The merge works on the run
    sequence: every occurrence of every piece is one run tiling J.
    """

    def runs_of(pieces):
        runs = []
        for pi, piece in enumerate(pieces):
            for start, sign in piece.occurrences:
                runs.append((start, piece.length, pi, sign))
        runs.sort()
        return runs

    def valid_pair(runs, p, q):
        """All occurrences of p and q pair up as p(+)q(+) or q(-)p(-)."""
        if p == q:
            return False
        by_piece = {}
        for i, (_, _, pi, _) in enumerate(runs):
            by_piece.setdefault(pi, []).append(i)

        def adjacent(i, j):
            s1, l1, _, _ = runs[i]
            s2, _, _, _ = runs[j]
            return s2 == s1 + l1 and s2 not in walls

        for i in by_piece.get(p, []):
            _, _, _, sign = runs[i]
            if sign > 0:
                if i + 1 >= len(runs) or runs[i + 1][2] != q or runs[i + 1][3] <= 0:
                    return False
                if not adjacent(i, i + 1):
                    return False
            else:
                if i - 1 < 0 or runs[i - 1][2] != q or runs[i - 1][3] >= 0:
                    return False
                if not adjacent(i - 1, i):
                    return False
        for j in by_piece.get(q, []):
            _, _, _, sign = runs[j]
            if sign > 0:
                if j - 1 < 0 or runs[j - 1][2] != p or runs[j - 1][3] <= 0:
                    return False
                if not adjacent(j - 1, j):
                    return False
            else:
                if j + 1 >= len(runs) or runs[j + 1][2] != p or runs[j + 1][3] >= 0:
                    return False
                if not adjacent(j, j + 1):
                    return False
        return True

    while True:
        runs = runs_of(pieces)
        merged = None
        seen_pairs = set()
        for i in range(len(runs) - 1):
            s1, l1, p1, g1 = runs[i]
            s2, _, p2, g2 = runs[i + 1]
            if s2 != s1 + l1 or s2 in walls:
                continue
            if g1 > 0 and g2 > 0:
                cand = (p1, p2)
            elif g1 < 0 and g2 < 0:
                cand = (p2, p1)
            else:
                continue
            if cand in seen_pairs:
                continue
            seen_pairs.add(cand)
            if valid_pair(runs, cand[0], cand[1]):
                merged = cand
                break
        if merged is None:
            break
        p, q = merged
        P, Q = pieces[p], pieces[q]
        new_occs = []
        for start, sign in P.occurrences:
            if sign > 0:
                new_occs.append((start, 1))
            else:
                new_occs.append((start - Q.length, -1))
        new_piece = Piece(P.length + Q.length, sorted(new_occs))
        pieces = [x for i, x in enumerate(pieces) if i not in (p, q)] + [new_piece]
        pieces.sort(key=lambda x: x.occurrences[0])
    return PieceAlphabet(pieces, total)


def brute_all_paths(adj, dist, u: int, v: int):
    """All geodesic vertex paths u -> v by exhaustive DFS over edges,
    using only the distance-from-u array for pruning-free verification."""
    target_len = dist[v]
    paths = []

    def walk(path):
        cur = path[-1]
        if cur == v:
            if len(path) - 1 == target_len:
                paths.append(list(path))
            return
        if len(path) - 1 >= target_len:
            return
        for w in adj[cur]:
            if w >= 0 and w not in path:
                path.append(w)
                walk(path)
                path.pop()
    walk([u])
    return paths


def build_ball_oracle(p: Presentation, R: int):
    """Breadth-first Cayley ball with no candidate filter: each new word
    words[u]*g, u at distance k, is tested with is_trivial against every
    vertex at distance k-1..k+1 in turn.  Returns (words, dist, adj) laid
    out as in cayley.CayleyBall."""
    from randgroups.cancellation import is_trivial

    letters = [g for i in range(1, p.rank + 1) for g in (i, -i)]
    column = {g: c for c, g in enumerate(letters)}
    words, dist, adj = [Word()], [0], [[-1] * len(letters)]
    layers = [[0]]
    for k in range(R + 1):
        layers.append([])
        for u in layers[k]:
            for g in letters:
                if adj[u][column[g]] >= 0:
                    continue
                w = free_reduce(words[u].concat(Word([g])))
                near = (layers[k - 1] if k else []) + layers[k] + layers[k + 1]
                v = next((x for x in near if is_trivial(w.concat(invert(words[x])), p)), None)
                if v is None:
                    if k == R:
                        continue
                    v = len(words)
                    words.append(w)
                    dist.append(k + 1)
                    adj.append([-1] * len(letters))
                    layers[k + 1].append(v)
                adj[u][column[g]] = v
                adj[v][column[-g]] = u
    return words, dist, adj


def build_ball_per_word(p: Presentation, R: int):
    """cayley.build_ball one word at a time, with Python words and dicts:
    each new word words[u]*g is looked up by relator completion through
    Dehn's index, and outside the short window a miss goes on to the
    abelian class scan.  It reads Dehn's index and cayley's abelian
    reducer, but none of the layer arrays or hash tables.  Returns
    (words, dist, adj) laid out as in cayley.CayleyBall."""
    import math

    from randgroups.cancellation import (
        _dehn_index,
        _prefix_sizes,
        _require_sixth,
        is_trivial,
        max_piece_length,
    )
    from randgroups.cayley import _AbelianReducer

    _require_sixth(p)
    n, l = p.rank, p.length
    reducer = _AbelianReducer(p)
    starts, sizes = _dehn_index(p), _prefix_sizes(l)
    short_window = 2 * l - 2 * max_piece_length(p).max_piece_length if p.relators else math.inf
    classes = 2 * R + 1 >= short_window
    letters = [g for i in range(1, n + 1) for g in (i, -i)]
    column = {g: c for c, g in enumerate(letters)}
    words, dist, adj = [Word()], [0], [[-1] * len(letters)]
    index = {Word(): 0}
    vecs = [reducer.reduce((0,) * n)]
    by_class = {vecs[0]: [0]}

    def candidate_vec(u, g):
        v = list(vecs[u])
        v[abs(g) - 1] += 1 if g > 0 else -1
        return reducer.reduce(tuple(v))

    def find(w, u, g, k):
        v = index.get(w)
        if v is not None:
            return v
        for j in sizes:
            if j > k + 1:
                break
            r = starts.get(w[k + 1 - j :])
            if r is not None:
                v = index.get(w[: k + 1 - j] + invert(r[j:]))
                if v is not None:
                    return v
        if k + 1 + min(k + 1, R) < short_window:
            return None
        for cand in by_class.get(candidate_vec(u, g), ()):
            if dist[cand] >= k - 1 and is_trivial(w.concat(invert(words[cand])), p):
                return cand
        return None

    layers = [[0]]
    for k in range(R + 1):
        nxt = []
        for u in layers[k]:
            for g in letters:
                if adj[u][column[g]] >= 0:
                    continue
                w = free_reduce(words[u].concat(Word([g])))
                v = find(w, u, g, k)
                if v is None:
                    if k == R:
                        continue
                    v = len(words)
                    words.append(w)
                    index[w] = v
                    dist.append(k + 1)
                    if classes:
                        key = candidate_vec(u, g)
                        vecs.append(key)
                        by_class.setdefault(key, []).append(v)
                    adj.append([-1] * len(letters))
                    nxt.append(v)
                adj[u][column[g]] = v
                adj[v][column[-g]] = u
        layers.append(nxt)
    return words, dist, adj


def distance_minimizers(ball, base: list[int], c: int) -> list[int]:
    """Vertices of a geodesic minimizing the distance to c.

    Every (vertex, c) pair involved must be reliable; the structure
    results say the answer has at most two elements.
    """
    from randgroups.cayley import ReliabilityError

    dist_c = ball.bfs_from(c)
    R = ball.radius
    for x in base:
        dxc = int(dist_c[x])
        if dxc < 0 or int(ball.dist[x]) + int(ball.dist[c]) + dxc > 2 * R:
            raise ReliabilityError(f"pair ({x}, {c}) is not reliable at radius {R}")
    best = min(int(dist_c[x]) for x in base)
    return [x for x in base if int(dist_c[x]) == best]


def minimizer_scan_oracle(ball):
    """cayley._minimizer_scan the long way: a full BFS from every vertex c,
    and for every target w the based geodesic walked along words[w],
    checked when each of its vertices forms a reliable pair with c.
    Returns (triples checked, violations)."""
    import numpy as np

    V = ball.n_vertices
    R = ball.radius
    d1 = ball.dist.astype(np.int64)
    base_flat = []
    offsets = []
    for w in range(1, V):
        path = [0]
        for g in ball.words[w]:
            path.append(ball.neighbor(path[-1], g))
        offsets.append(len(base_flat))
        base_flat.extend(path)
    if not offsets:
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
        counts = np.add.reduceat(safe_vals == np.repeat(mins, sizes), offsets)
        checked += int(all_ok.sum())
        for i in np.nonzero(all_ok & (counts > 2))[0]:
            violations.append(f"base (0,{i + 1}), point {c}: {int(counts[i])} minimizers")
    return checked, violations


def geometry_scan_oracle(ball, checks=("single-layer", "digons", "minimizers")):
    """cayley.geometry_scan with single_layer run on every pair (1, w),
    w != 1, in vertex order, whatever its number of geodesics.  A pair
    counts as multi-geodesic when its configuration has a digon: two
    distinct geodesics with common endpoints differ somewhere, and each
    stretch where they differ is a digon."""
    from randgroups.cayley import (
        GeometryReport,
        _minimizer_scan,
        digon_side_uniqueness,
        single_layer,
    )

    rep = GeometryReport()
    digons = []
    if "single-layer" in checks or "digons" in checks:
        for v in range(1, ball.n_vertices):
            rep.pairs_checked += 1
            cfg = single_layer(ball, 0, v)
            rep.multi_geodesic_pairs += bool(cfg.digons)
            rep.violations.extend(f"pair (0,{v}): {msg}" for msg in cfg.violations)
            for m in cfg.digons:
                digons.extend(m.members)
                rep.digon_count += len(m.members)
                for dg in m.members:
                    rep.violations.extend(f"pair (0,{v}): {msg}" for msg in dg.violations)
                    for _, _, path in dg.division_pairs:
                        rep.max_divisor_len = max(rep.max_divisor_len, len(path) - 1)
    if "digons" in checks and digons:
        rep.violations.extend(digon_side_uniqueness(ball, digons).violations)
    if "minimizers" in checks:
        checked, bad = _minimizer_scan(ball)
        rep.triples_checked += checked
        rep.violations.extend(bad)
    return rep


def max_piece_by_bisection(p: Presentation):
    """cancellation.max_piece_length the long way: k = 1 probed first, then
    a binary search over [1, l] with every probe's labels built from
    scratch, and the witnesses from a stable argsort of all 2N*l labels
    at the maximum.  It reads the kernel (_readings, _labels, _has_piece)
    but not the floor, the held labels or the marking of repeated grams.
    Returns a cancellation.PieceReport."""
    import numpy as np

    from randgroups.cancellation import Occurrence, PieceReport, _has_piece, _labels, _readings

    if not p.relators:
        return PieceReport(0, [])
    codes, base, l, n = _readings(p), 2 * p.rank, p.length, p.rank
    if not _has_piece(codes, base, 1):
        return PieceReport(0, [])
    lo, hi = 1, l  # piece of length lo exists; none of length hi+1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _has_piece(codes, base, mid):
            lo = mid
        else:
            hi = mid - 1
    keys = _labels(codes, base, lo)[0].reshape(-1)
    order = np.argsort(keys, kind="stable")
    keys.sort()  # now keys[i] is the old keys[order[i]]
    same = keys[1:] == keys[:-1]
    firsts = np.flatnonzero(same & ~np.concatenate([[False], same[:-1]]))
    alphabet = [*range(-n, 0), *range(1, n + 1)]

    def occurrence(flat: int) -> Occurrence:
        row, start = divmod(flat, l)
        return Occurrence(row // 2, 1 - 2 * (row % 2), start)

    witnesses = []
    for i in firsts.tolist():
        a, b = int(order[i]), int(order[i + 1])
        row, start = divmod(a, l)
        word = Word(alphabet[c] for c in codes[row, start : start + lo].tolist())
        witnesses.append((word, occurrence(a), occurrence(b)))
    return PieceReport(lo, witnesses)
