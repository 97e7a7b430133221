"""Position unification over interval layouts, decorations, and the
degrees-of-freedom probability bounds.

A layout places occurrence segments on one master interval J and records
doubles: orientation-aware identifications between equal-length position
ranges.  build_layout is the one placement of segments, and
unify_positions the one path from doubles to a piece alphabet: system
layouts, parametric layouts (ParametricSystem.to_layout) and relator
decorations (one segment per relator) all go through both.  Unifying
the unit positions (union-find with a sign on every edge) gives the
connected components of positions that must carry the same letter; one
chain pass then merges every maximal chain of pieces that only ever
occur adjacently into one piece.  Decorations assign pieces to boundary
intervals; every piece of a decoration occurs at least twice, and
pre-decorations record the singletons.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .sentences import TriangularSystem


class UnificationConflict(ValueError):
    """Raised when the identifications force a letter equal to its inverse."""

    def __init__(self):
        super().__init__("a = a^-1 forced; system has no solution")


@dataclass(frozen=True)
class Segment:
    symbol: str
    sign: int
    length: int
    start: int

    @property
    def end(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class Double:
    """Identify length positions of segment a (from off_a) with those of
    segment b (from off_b), reversed-orientation when reversed is set."""

    seg_a: int
    off_a: int
    seg_b: int
    off_b: int
    length: int
    reversed_: bool


@dataclass
class IntervalLayout:
    segments: list[Segment]
    doubles: list[Double]

    @property
    def total(self) -> int:
        return sum(s.length for s in self.segments)

    def walls(self) -> set[int]:
        """Positions that start a segment; adjacency never crosses them."""
        return {s.start for s in self.segments}


def build_layout(equations, lengths: dict[str, int], extra_doubles: Iterable[Double] = ()) -> IntervalLayout:
    """Left-to-right placement of every occurrence, one segment each.

    equations: an iterable of equations, each a sequence of (symbol,
    sign) pairs such as a TemplateWord.  Doubles pair consecutive
    occurrences of each variable; opposite occurrence signs give a
    reversed-orientation double.  Zero-length symbols are omitted; a
    symbol without a length raises ValueError.
    """
    segments: list[Segment] = []
    cursor = 0
    occ_of: dict[str, list[int]] = {}
    for eq in equations:
        for name, sign in eq:
            if name not in lengths:
                raise ValueError(f"no length for symbol {name!r}")
            L = lengths[name]
            if L < 0:
                raise ValueError(f"negative length for {name!r}")
            if L == 0:
                continue
            occ_of.setdefault(name, []).append(len(segments))
            segments.append(Segment(name, sign, L, cursor))
            cursor += L
    doubles: list[Double] = []
    for name, occs in occ_of.items():
        for a, b in zip(occs, occs[1:]):
            sa, sb = segments[a], segments[b]
            if sa.length != sb.length:
                raise ValueError(f"occurrences of {name!r} have different lengths")
            doubles.append(Double(a, 0, b, 0, sa.length, sa.sign != sb.sign))
    doubles.extend(extra_doubles)
    return IntervalLayout(segments, doubles)


# ---------------------------------------------------------------------------
# Signed union-find over unit positions.


class _SignedUF:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.sign = [1] * n  # sign relative to parent
        self.size = [1] * n

    def find(self, x: int) -> tuple[int, int]:
        """(root, sign of x relative to root), compressing the path."""
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        root, s = x, 1
        for y in reversed(path):  # nearest the root first
            s *= self.sign[y]
            self.sign[y] = s
            self.parent[y] = root
        return root, s

    def union(self, x: int, y: int, s: int) -> None:
        """Assert position x equals position y with relative sign s."""
        rx, sx = self.find(x)
        ry, sy = self.find(y)
        if rx == ry:
            if sx * sy != s:
                raise UnificationConflict()
            return
        if self.size[rx] > self.size[ry]:
            rx, ry = ry, rx
        self.parent[rx] = ry
        self.sign[rx] = sx * s * sy
        self.size[ry] += self.size[rx]


@dataclass
class Piece:
    """A maximal unit of forced letter equality.

    occurrences are (start position, sign) pairs covering `length`
    consecutive positions each; together they tile the pieces' positions.
    """

    length: int
    occurrences: list[tuple[int, int]]

    def multiplicity(self) -> int:
        return len(self.occurrences)


@dataclass
class PieceAlphabet:
    pieces: list[Piece]
    total: int

    def occurrence_map(self) -> dict[int, tuple[int, int, int]]:
        """position -> (piece index, offset within occurrence, sign)."""
        out = {}
        for pi, piece in enumerate(self.pieces):
            for start, sign in piece.occurrences:
                for t in range(piece.length):
                    out[start + t] = (pi, t, sign)
        return out

    def degrees_of_freedom(self) -> int:
        """Freely choosable letters: one representative per piece,
        weighted by piece length."""
        return sum(p.length for p in self.pieces)


def unify_positions(layout: IntervalLayout) -> PieceAlphabet:
    """Union-find over unit positions with orientation tracking, then one
    chain pass merging pieces that only ever occur together.

    Raises UnificationConflict when some position is forced equal to its
    own reverse.
    """
    n = layout.total
    uf = _SignedUF(n)
    for d in layout.doubles:
        a0 = layout.segments[d.seg_a].start + d.off_a
        b0 = layout.segments[d.seg_b].start + d.off_b
        for t in range(d.length):
            pa = a0 + t
            if d.reversed_:
                uf.union(pa, b0 + d.length - 1 - t, -1)
            else:
                uf.union(pa, b0 + t, 1)

    comp: dict[int, list[tuple[int, int]]] = {}
    for pos in range(n):
        root, s = uf.find(pos)
        comp.setdefault(root, []).append((pos, s))
    pieces = []
    for members in comp.values():
        # normalize so the first member reads forward
        flip = members[0][1]
        pieces.append(Piece(1, [(pos, s * flip) for pos, s in members]))

    return _adjacent_merge(pieces, n, layout.walls())


def _adjacent_merge(pieces: list[Piece], total: int, walls: set[int]) -> PieceAlphabet:
    """Merge pieces that only ever occur as a block, in one chain pass.

    The runs (one per occurrence) tile J.  Two abutting runs with the same
    sign, not split by a segment wall, read p q: p is the earlier piece
    when the sign is forward, the later one when reversed.  p links to
    q != p when every run of p and every run of q lies in a pair reading
    p q.
    Links form disjoint paths; each maximal path p1 -> ... -> pk becomes
    one piece, whose reversed occurrences start at pk's run.  Merging a
    linked pair keeps every other link, so this equals merging linked
    pairs one at a time to a fixpoint.
    """
    runs = sorted((start, pi, sign) for pi, piece in enumerate(pieces) for start, sign in piece.occurrences)
    reads = Counter()
    for (_, p1, g1), (s2, p2, g2) in zip(runs, runs[1:]):
        if g1 == g2 and p1 != p2 and s2 not in walls:
            reads[(p1, p2) if g1 > 0 else (p2, p1)] += 1
    mult = [piece.multiplicity() for piece in pieces]
    link = {p: q for (p, q), c in reads.items() if c == mult[p] == mult[q]}

    tails = set(link.values())
    merged = []
    for p, head in enumerate(pieces):
        if p in tails:
            continue
        length, q = head.length, p
        while q in link:
            q = link[q]
            length += pieces[q].length
        tail = length - head.length
        occurrences = [(start if sign > 0 else start - tail, sign) for start, sign in head.occurrences]
        merged.append(Piece(length, sorted(occurrences)))
    merged.sort(key=lambda x: x.occurrences[0])
    return PieceAlphabet(merged, total)


# ---------------------------------------------------------------------------
# Decorations.


@dataclass
class Decoration:
    """Boundary intervals labeled by signed pieces, every piece >= twice."""

    intervals: list[tuple[int, int, int, int]]  # (start, length, piece, sign)
    multiplicity: dict[int, int]


@dataclass
class PreDecoration:
    intervals: list[tuple[int, int, int, int]]
    multiplicity: dict[int, int]
    singletons: list[int]


class AllRemoved:
    """Every component was pruned: the putative solution is free."""

    def __repr__(self) -> str:
        return "AllRemoved()"

    def __eq__(self, other) -> bool:
        return isinstance(other, AllRemoved)


def _boundary_intervals(alphabet: PieceAlphabet, ranges) -> list[tuple[int, int, int, int]]:
    """Occurrences of pieces lying inside the given position ranges."""
    out = []
    for lo, hi in ranges:
        for pi, piece in enumerate(alphabet.pieces):
            for start, sign in piece.occurrences:
                if lo <= start and start + piece.length <= hi:
                    out.append((start, piece.length, pi, sign))
    out.sort()
    # check the ranges are tiled exactly
    covered = sum(l for _, l, _, _ in out)
    want = sum(hi - lo for lo, hi in ranges)
    if covered != want:
        raise ValueError("boundary ranges are not tiled by whole piece occurrences")
    return out


def _multiplicity(intervals) -> dict[int, int]:
    """piece -> number of intervals it labels."""
    return dict(Counter(pi for _, _, pi, _ in intervals))


def boundary_decoration(alphabet: PieceAlphabet, boundary_ranges) -> Decoration | PreDecoration:
    """Restrict piece labels to the boundary; a Decoration when every
    boundary piece occurs at least twice there, else a PreDecoration."""
    intervals = _boundary_intervals(alphabet, boundary_ranges)
    mult = _multiplicity(intervals)
    singles = sorted(p for p, m in mult.items() if m < 2)
    if singles:
        return PreDecoration(intervals, mult, singles)
    return Decoration(intervals, mult)


def prune_singletons(pre, component_of_range):
    """Remove components whose boundary carries a once-occurring piece.

    component_of_range: list of ((lo, hi), component id).  Returns
    (Decoration, removed component ids) or AllRemoved when no component
    survives.  PreDecoration intervals must come from those ranges.
    """
    if isinstance(pre, Decoration):
        return pre, []
    ranges = list(component_of_range)
    intervals = list(pre.intervals)

    def comp_of_start(start):
        for (lo, hi), cid in ranges:
            if lo <= start < hi:
                return cid
        raise ValueError("interval outside every component range")

    removed: list[int] = []
    while True:
        singles = sorted(p for p, m in _multiplicity(intervals).items() if m < 2)
        if not singles:
            break
        start = min(s for s, _, pi, _ in intervals if pi == singles[0])
        victim = comp_of_start(start)
        removed.append(victim)
        intervals = [iv for iv in intervals if comp_of_start(iv[0]) != victim]
    all_components = {cid for _, cid in ranges}
    if all_components and all_components <= set(removed):
        return AllRemoved(), removed
    return Decoration(intervals, _multiplicity(intervals)), removed


@dataclass
class SingletonWitness:
    """A piece occupying one position class on the relator interval: it
    appears at the same position of the same relator only."""

    piece: int
    relator: int
    offset: int


@dataclass
class RelatorDecoration:
    alphabet: PieceAlphabet
    n_rel: int
    length: int

    def degrees_of_freedom(self) -> int:
        return self.alphabet.degrees_of_freedom()


def relator_decoration(
    n_rel: int,
    length: int,
    boundary_piece_occurrences,
    internal_matchings=(),
):
    """Unify positions of the relator interval J1 = n_rel * length.

    boundary_piece_occurrences: per piece, its occurrences written in
    relator coordinates: a list of lists of (relator, offset, sign, length),
    sign 1 or -1.  A span of positive length outside the relators raises
    ValueError, as does a bad sign.
    internal_matchings: ((rel_i, off_i), (rel_j, off_j), length, reversed)
    identifications from shared internal edges.

    Returns a RelatorDecoration when every resulting piece occurs at
    least twice, else a SingletonWitness for the first singleton.
    """
    segments = [Segment(f"r{r}", 1, length, r * length) for r in range(n_rel)]
    doubles: list[Double] = []

    def span(rel, off, L):
        """Whether a span adds any position; raises when a position it
        covers lies outside the relators."""
        if L > 0 and not (0 <= rel < n_rel and 0 <= off and off + L <= length):
            raise ValueError("relator coordinate out of range")
        return L > 0

    for occs in boundary_piece_occurrences:
        for rel, off, sign, L in occs:
            if sign not in (1, -1):
                raise ValueError(f"occurrence sign {sign!r} is not 1 or -1")
            if L != occs[0][3]:
                raise ValueError("occurrences of one piece differ in length")
            span(rel, off, L)
        for r1, o1, s1, L in occs[1:]:
            if L > 0:
                r0, o0, s0, _ = occs[0]
                doubles.append(Double(r0, o0, r1, o1, L, s0 != s1))
    for (ri, oi), (rj, oj), L, rev in internal_matchings:
        if span(ri, oi, L) and span(rj, oj, L):
            doubles.append(Double(ri, oi, rj, oj, L, rev))

    alphabet = unify_positions(IntervalLayout(segments, doubles))
    for pi, piece in enumerate(alphabet.pieces):
        if piece.multiplicity() < 2:
            start = piece.occurrences[0][0]
            return SingletonWitness(pi, start // length, start % length)
    return RelatorDecoration(alphabet, n_rel, length)


# ---------------------------------------------------------------------------
# Parametric systems (triangle shape with three digons per triangle).


@dataclass
class SideShape:
    """Lengths of the seven parts h, c-bar, h-bar, c, h-bar', c-hat, h'
    of one triangle side."""

    lengths: tuple[int, int, int, int, int, int, int]

    def total(self) -> int:
        return sum(self.lengths)


@dataclass
class ParametricSystem:
    variables: list[str]                  # the h-family symbols
    parameters: list[str]                 # the c-family symbols
    lengths: dict[str, int]
    sides: dict[tuple[int, int], list[tuple[str, int]]]  # (eq, k) -> seven signed symbols
    coincidences: list[tuple[tuple[int, int], tuple[int, int], bool]]  # slots + same-orientation
    source: TriangularSystem = None

    def side_template(self, j: int, k: int) -> tuple[tuple[str, int], ...]:
        """The seven signed part symbols of one side; symbols live outside
        the sentence grammar, so this is a plain tuple, usable with
        words.substitute."""
        return tuple(self.sides[(j, k)])

    def to_layout(self) -> IntervalLayout:
        """All sides in slot order; doubles from repeated symbols and
        coincidence identifications."""
        slots = sorted(self.sides)
        slot_span: dict[tuple[int, int], tuple[int, int]] = {}
        cursor = 0
        for slot in slots:
            width = sum(self.lengths[name] for name, _ in self.sides[slot])
            slot_span[slot] = (cursor, cursor + width)
            cursor += width
        # a coincidence identifies two whole slot ranges; its offsets count
        # from segment 0, which starts at position 0
        coincidences = []
        for slot_a, slot_b, same in self.coincidences:
            (a_lo, a_hi) = slot_span[slot_a]
            (b_lo, b_hi) = slot_span[slot_b]
            if a_hi - a_lo != b_hi - b_lo:
                raise ValueError(f"coincident slots {slot_a} and {slot_b} differ in length")
            if a_hi > a_lo:
                coincidences.append(Double(0, a_lo, 0, b_lo, a_hi - a_lo, not same))
        return build_layout([self.sides[slot] for slot in slots], self.lengths, coincidences)


def default_shape(T: TriangularSystem, lengths: dict[str, int]) -> dict[tuple[int, int], SideShape]:
    """Three-digons-per-triangle split: unit h-parts when sides allow,
    remaining length spread over the three c-parts."""
    shapes = {}
    for j, eq in enumerate(T.equations):
        if len(eq) != 3:
            raise ValueError(f"equation {j} has {len(eq)} occurrences; need exactly 3")
        side_lengths = [lengths[name] for name, _ in eq]
        h = 1 if min(side_lengths) >= 4 else 0
        for k in range(3):
            rest = side_lengths[k] - 4 * h
            if rest < 0:
                raise ValueError(f"equation {j}: side {k} too short for the shape")
            a = rest // 3
            b = (rest - a) // 2
            c = rest - a - b
            shapes[(j, k)] = SideShape((h, a, h, b, h, c, h))
    return shapes


def build_parametric_system(
    T: TriangularSystem,
    lengths: dict[str, int],
    shape: dict[tuple[int, int], SideShape] | None = None,
) -> ParametricSystem:
    """Parametric equations over the h/c split of each triangle side.

    Nine parameters per triangle; one coincidence equation for each
    repeated occurrence pair of a variable.  The shape fixes all seven
    part lengths of every side and must be consistent where sides share
    an h-symbol.
    """
    if shape is None:
        shape = default_shape(T, lengths)

    variables: list[str] = []
    parameters: list[str] = []
    sym_lengths: dict[str, int] = {}
    sides: dict[tuple[int, int], list[tuple[str, int]]] = {}

    def declare(name, L, bucket):
        if name in sym_lengths:
            if sym_lengths[name] != L:
                raise ValueError(f"inconsistent lengths for {name!r}")
        else:
            sym_lengths[name] = L
            bucket.append(name)

    for j, eq in enumerate(T.equations):
        if len(eq) != 3:
            raise ValueError(f"equation {j} has {len(eq)} occurrences; need exactly 3")
        for k in range(3):
            sh = shape[(j, k)]
            if sh.total() != lengths[eq[k][0]]:
                raise ValueError(
                    f"equation {j}: side {k} shape totals {sh.total()}, variable "
                    f"{eq[k][0]!r} has length {lengths[eq[k][0]]}"
                )
            k2 = (k + 1) % 3
            h_k = f"h{k+1}_{j}"
            hb_k = f"hb{k+1}_{j}"
            h_k2 = f"h{k2+1}_{j}"
            hb_k2 = f"hb{k2+1}_{j}"
            cb = f"cb{k+1}_{j}"
            c = f"c{k+1}_{j}"
            ch = f"ch{k+1}_{j}"
            (l_h, l_cb, l_hb, l_c, l_hb2, l_ch, l_h2) = sh.lengths
            declare(h_k, l_h, variables)
            declare(cb, l_cb, parameters)
            declare(hb_k, l_hb, variables)
            declare(c, l_c, parameters)
            declare(hb_k2, l_hb2, variables)
            declare(ch, l_ch, parameters)
            declare(h_k2, l_h2, variables)
            sides[(j, k)] = [
                (h_k, 1),
                (cb, 1),
                (hb_k, 1),
                (c, 1),
                (hb_k2, -1),
                (ch, 1),
                (h_k2, -1),
            ]

    # coincidence equations for repeated variables; every slot carries the
    # variable's value itself, so the identification is orientation-true
    slots_of: dict[str, list[tuple[int, int]]] = {}
    for j, eq in enumerate(T.equations):
        for k, (name, _) in enumerate(eq):
            slots_of.setdefault(name, []).append((j, k))
    coincidences = []
    for name, slots in slots_of.items():
        for a, b in zip(slots, slots[1:]):
            coincidences.append((a, b, True))

    return ParametricSystem(variables, parameters, sym_lengths, sides, coincidences, T)


def solution_template(ps: ParametricSystem, variable: str):
    """The word over h/c symbols giving the variable's value: the side
    split of the first slot where the variable occurs.  Slots carry the
    variable's value itself, independent of occurrence sign."""
    T = ps.source
    for j, eq in enumerate(T.equations):
        for k, (name, _) in enumerate(eq):
            if name == variable:
                return ps.side_template(j, k)
    raise KeyError(f"variable {variable!r} not in the system")


# ---------------------------------------------------------------------------
# Probability bounds.


def free_letter_bound(n_rel: int, l: int) -> Fraction:
    """Half the total relator length: the ceiling on freely choosable
    letters once a relator decoration exists."""
    if n_rel < 1 or l < 1:
        raise ValueError("need n_rel, l >= 1")
    return Fraction(n_rel * l, 2)


@dataclass(frozen=True)
class FulfillBound:
    full_bound: float          # (2m-1)^(-n_rel * l * (1/2 - d))
    full_exponent: Fraction
    single_bound: float        # (2m-1)^(-l * (1/2 - d)), relator-count free
    single_exponent: Fraction


def fulfill_probability_bound(rank: int, n_rel: int, l: int, d) -> FulfillBound:
    """The labeling probability bounds, with exact rational exponents."""
    d = Fraction(d)
    if d >= Fraction(1, 2):
        raise ValueError("bound is vacuous for d >= 1/2")
    if rank < 2 or n_rel < 1 or l < 1:
        raise ValueError("need rank >= 2, n_rel >= 1, l >= 1")
    base = 2 * rank - 1
    e_full = -Fraction(n_rel) * l * (Fraction(1, 2) - d)
    e_single = -Fraction(l) * (Fraction(1, 2) - d)

    def as_float(e: Fraction) -> float:
        if e.denominator == 1:
            return float(Fraction(base) ** int(e))
        return float(base) ** (e.numerator / e.denominator)

    return FulfillBound(as_float(e_full), e_full, as_float(e_single), e_single)
