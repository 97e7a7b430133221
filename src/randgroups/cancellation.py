"""Piece detection, C'(lambda) verification, and Dehn's algorithm.

The symmetrized set of a presentation is the closure of its relators
under cyclic rotation and inversion.  A piece is a word occurring at two
distinct cyclic occurrences (relator, reading direction, cyclic start);
reading the same stretch of the same relator from a rotated start is the
same occurrence and does not count.  C'(lambda) holds when every piece
is strictly shorter than lambda * length.

Pieces are found by one numpy kernel.  The doubled readings (each
relator and its inverse, written twice) form a (2N, 2l) uint8 array with
the letters -n..-1, 1..n coded 0..2n-1 in order.  Each of the 2N*l cyclic
k-grams gets an exact int64 label that keeps word order: while
(2n)^k < 2^63 the base-2n number of its letter codes, and past that the
pair of labels of its two overlapping ceil(k/2)-grams, densely ranked
first (prefix doubling, Manber & Myers, SIAM J. Comput. 22, 1993).  A
piece of length k exists exactly when two labels are equal, so a probe
is one in-place int64 sort and a neighbour compare, 8 bytes a gram
whatever k is.  Piece lengths are downward closed (a prefix of a piece
is a piece at the same occurrences), so C'(lambda) is one kernel call
at k = ceil(lambda * l), or none when pigeonhole forces a piece of that
length: the grams are reduced words, and more grams than reduced
k-letter words repeat one (_forced_piece_length).

The maximum piece length is a binary search that starts at that floor.
The packed labels at the longest length known to have a piece are held
and extended in place, one Horner pass a letter: a probe extends a copy
of them in one scratch array and sorts it, and a hit extends the held
labels.  Only a maximum at the top of the packed range sends the search
on to pair labels.  The witnesses come from the held labels: their
sorted copy gives the repeated values, the grams carrying them are
marked, and only those few are stable-sorted.  On packed labels at most
two (2N, l) int64 arrays are held, beside the readings and one bool mask.

Dehn's algorithm repeatedly replaces a subword u with |u| > l/2 of some
symmetrized element r = u v by v^-1.  On C'(1/6) presentations this
decides the word problem (Greendlinger).  Dehn's algorithm finds them
through one index from more-than-half prefixes to the unique element each
starts.  The leftmost such subword is replaced, and the scan resumes
floor(l/2) letters left of the first changed letter, not at 0.  The same
prefixes, as sorted uint64 window hashes beside their elements
(_relator_halves, one hash rule in _window_hashes), are the table that
Cayley-ball completion and the refutation screen look words up in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .sampler import relator_count, DensityParams
from .words import Word, Presentation, _raw, free_reduce, invert, rotate


class Occurrence(NamedTuple):
    """A cyclic occurrence: relator index, reading direction, cyclic start."""

    relator: int
    direction: int  # +1 reads the relator, -1 its inverse
    start: int


@dataclass(frozen=True)
class SymmetrizedSet:
    """All distinct rotations of the relators and their inverses."""

    elements: tuple[Word, ...]
    origin: dict  # element -> (relator index, rotation, inverted?)

    def __len__(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=256)
def symmetrize(p: Presentation) -> SymmetrizedSet:
    elements: list[Word] = []
    origin: dict[Word, tuple[int, int, bool]] = {}
    for j, r in enumerate(p.relators):
        for inverted, base in ((False, r), (True, invert(r))):
            for k in range(len(base)):
                w = rotate(base, k)
                if w not in origin:
                    origin[w] = (j, k, inverted)
                    elements.append(w)
    return SymmetrizedSet(tuple(elements), origin)


@dataclass
class PieceReport:
    max_piece_length: int
    witnesses: list[tuple[Word, Occurrence, Occurrence]]


def _readings(p: Presentation) -> np.ndarray:
    """The doubled cyclic readings as a (2N, 2l) uint8 array of letter
    codes: row 2j reads relator j, row 2j+1 its inverse.  The grams of
    length <= l starting in [0, l) of a row are exactly its cyclic
    occurrences, at flat index row * l + start."""
    fwd = np.array(p.relators, dtype=np.int8)
    rows = np.stack([fwd, -fwd[:, ::-1]], axis=1).reshape(-1, p.length)
    codes = (rows + p.rank - (rows > 0)).astype(np.uint8)
    return np.concatenate([codes, codes], axis=1)


_KEY_LIMIT = 2**63
_RANK_SLICE = 1 << 20
_MARK_SLICE = 1 << 12


def _horner(keys: np.ndarray, codes: np.ndarray, base: int, start: int, stop: int) -> None:
    """Extend the packed labels of the cyclic start-grams, in place, to
    those of the stop-grams: one pass a letter, as base-2n digits."""
    l = keys.shape[1]
    for t in range(start, stop):
        keys *= base
        keys += codes[:, t : t + l]


def _labels(codes: np.ndarray, base: int, k: int) -> tuple[np.ndarray, int]:
    """Word-ordered labels of the cyclic k-grams as a fresh (2N, l) int64
    array, flat index row * l + start as in _readings, and a bound m above
    every label.  Equal grams, and only they, get equal labels.  A pair
    ranks its halves first: dense ranks number at most 2N*l, so a pair of
    them fits in int64 while 2N*l < 3 * 10^9."""
    l = codes.shape[1] // 2
    if base**k < _KEY_LIMIT:
        keys = codes[:, :l].astype(np.int64)
        _horner(keys, codes, base, 1, k)
        return keys, base**k
    h = (k + 1) // 2
    keys, _ = _labels(codes, base, h)
    m = _dense_ranks(keys)
    tail = np.roll(keys, h - k, axis=1)  # the h-gram at cyclic start i + k - h
    keys *= m
    keys += tail
    return keys, m * m


def _dense_ranks(keys: np.ndarray) -> int:
    """Replace keys in place by their ranks among the distinct values,
    which keeps their order; returns the number of distinct values.  The
    ranks are written back one slice of the sort order at a time, so
    beside the keys only the order is held whole."""
    flat = keys.reshape(-1)
    order = np.argsort(flat)
    top, prev = -1, None
    for s in range(0, len(order), _RANK_SLICE):
        part = order[s : s + _RANK_SLICE]
        vals = flat[part]
        new = np.empty(len(vals), dtype=bool)
        new[0] = prev is None or vals[0] != prev
        np.not_equal(vals[1:], vals[:-1], out=new[1:])
        prev = vals[-1]
        ranks = np.cumsum(new) + top
        top = int(ranks[-1])
        flat[part] = ranks
    return top + 1


def _sorted_repeats(keys: np.ndarray) -> bool:
    """Sort keys in place; whether two of them are equal."""
    flat = keys.reshape(-1)
    flat.sort()
    return bool((flat[1:] == flat[:-1]).any())


def _has_piece(codes: np.ndarray, base: int, k: int) -> bool:
    """Whether some length-k word has two distinct cyclic occurrences."""
    return _sorted_repeats(_labels(codes, base, k)[0])


def _forced_piece_length(n: int, grams: int, l: int) -> int:
    """The largest k <= l with 2n(2n-1)^(k-1) < grams: a piece of every
    length up to k exists when `grams` = 2N*l cyclic grams are read off
    the cyclically reduced relators of length l at rank n.

    Proof.  For k <= l each cyclic k-gram reads k cyclically consecutive
    letters of a cyclically reduced relator, so it is a reduced word, and
    there are 2n(2n-1)^(k-1) reduced words of length k.  When the 2N*l
    grams, each at its own occurrence, outnumber them, two occurrences
    read the same word: a piece of length k.  The count grows with k, so
    the condition holds at every length up to the floor, as the downward
    closure of pieces also requires."""
    k, words = 0, 2 * n
    while k < l and words < grams:
        k += 1
        words *= 2 * n - 1
    return k


def _gate_length(lam, l: int) -> int:
    """k = ceil(lam * l): C'(lam) holds iff no piece of length k exists."""
    return math.ceil(Fraction(lam) * l)


def max_piece_length(p: Presentation) -> PieceReport:
    """Exact maximum piece length with witnesses, 0 if no piece exists.

    A binary search over k from the pigeonhole floor, first over the
    packed range on held labels (see the module docstring), then, when
    the maximum reaches its top, on pair labels.  The witnesses are the
    pieces of maximum length in word order, each with its first two
    occurrences in (relator, direction, start) reading order.
    """
    if not p.relators:
        return PieceReport(0, [])
    codes, base, l = _readings(p), 2 * p.rank, p.length
    top = 1  # the longest packed length, at most l
    while top < l and base ** (top + 1) < _KEY_LIMIT:
        top += 1
    # the floor passes top only past memory (at rank 2, 4 * 3^31 grams,
    # about 2.5 * 10^15); min keeps the search exact even so
    lo, hi = min(_forced_piece_length(p.rank, codes.size // 2, l), top), top
    keys = _labels(codes, base, max(lo, 1))[0]  # held at lo
    scratch = np.empty_like(keys)
    if lo == 0:
        np.copyto(scratch, keys)
        if not _sorted_repeats(scratch):
            return PieceReport(0, [])
        lo = 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        np.copyto(scratch, keys)
        _horner(scratch, codes, base, lo, mid)
        if _sorted_repeats(scratch):
            _horner(keys, codes, base, lo, mid)
            lo = mid
        else:
            hi = mid - 1
    if lo == top < l:
        keys = scratch = None
        if _has_piece(codes, base, lo + 1):
            lo, hi = lo + 1, l
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if _has_piece(codes, base, mid):
                    lo = mid
                else:
                    hi = mid - 1
        keys = _labels(codes, base, lo)[0]
        scratch = np.empty_like(keys)
    return PieceReport(lo, _witnesses(p, codes, lo, keys, scratch))


def _witnesses(
    p: Presentation, codes: np.ndarray, k: int, keys: np.ndarray, scratch: np.ndarray
) -> list[tuple[Word, Occurrence, Occurrence]]:
    """Every piece of length k with its first two occurrences, from the
    k-gram labels `keys`; `scratch` is a buffer of their shape.

    The labels are sorted into the scratch buffer, and the values that
    repeat are kept; each is a piece of maximum length, so they are few.
    The grams carrying them are marked by a binary search, one slice at a
    time so that its index arrays stay small beside the labels, and
    flatnonzero lists the marked grams in reading order.  A
    stable argsort of their labels groups equal grams in word order and
    keeps each group in reading order.  Packed labels compare as base-2n
    numbers of equal length, that is in word order.  A pair label
    compares its first half-gram first and then its second; when the
    first halves agree, the second halves share the letters where the two
    halves overlap, so they differ first where the grams do.  Dense ranks
    keep the order of what they rank."""
    l, n = p.length, p.rank
    flat, ordered = keys.reshape(-1), scratch.reshape(-1)
    np.copyto(ordered, flat)
    ordered.sort()
    mask = np.empty(len(flat), dtype=bool)
    mask[0] = False
    np.equal(ordered[1:], ordered[:-1], out=mask[1:])
    repeated = ordered[mask]  # sorted, each value once per extra gram
    for s in range(0, len(flat), _MARK_SLICE):
        part = flat[s : s + _MARK_SLICE]
        at = np.searchsorted(repeated, part)
        np.minimum(at, len(repeated) - 1, out=at)
        np.equal(repeated[at], part, out=mask[s : s + len(part)])
    marked = np.flatnonzero(mask)
    labels = flat[marked]
    order = np.argsort(labels, kind="stable")
    labels = labels[order]
    firsts = np.flatnonzero(np.concatenate([[True], labels[1:] != labels[:-1]]))
    alphabet = [*range(-n, 0), *range(1, n + 1)]

    def occurrence(index: int) -> Occurrence:
        row, start = divmod(index, l)
        return Occurrence(row // 2, 1 - 2 * (row % 2), start)

    out = []
    for i in firsts.tolist():
        a, b = int(marked[order[i]]), int(marked[order[i + 1]])
        row, start = divmod(a, l)
        word = Word(alphabet[c] for c in codes[row, start : start + k].tolist())
        out.append((word, occurrence(a), occurrence(b)))
    return out


def satisfies_cprime(p: Presentation, lam) -> bool:
    """True iff every piece is strictly shorter than lam * length, i.e.
    no piece of length k = ceil(lam * length) exists.

    A presentation with no relators satisfies every C'(lambda).  When k is
    at most the pigeonhole floor of _forced_piece_length, a piece of
    length k exists without reading a letter.
    """
    if not p.relators:
        return True
    k = _gate_length(lam, p.length)
    if k < 1:
        return False
    if k > p.length:
        return True
    if k <= _forced_piece_length(p.rank, 2 * p.n_relators * p.length, p.length):
        return False
    return not _has_piece(_readings(p), 2 * p.rank, k)


@lru_cache(maxsize=256)
def _cprime_sixth(p: Presentation) -> bool:
    return satisfies_cprime(p, Fraction(1, 6))


class NotSmallCancellation(ValueError):
    pass


def _require_sixth(p: Presentation) -> None:
    if not _cprime_sixth(p):
        raise NotSmallCancellation("not C'(1/6)")


class DehnStep(NamedTuple):
    position: int          # start of the replaced subword in the current word
    element: Word          # the symmetrized element r = u * v that was used
    origin: tuple          # (relator index, rotation, inverted?) of element
    removed: int           # |u|, the length of the replaced subword


def _prefix_sizes(l: int) -> range:
    """The prefix sizes of _dehn_index: ceil(l/2) and floor(l/2) + 1."""
    return range((l + 1) // 2, l // 2 + 2)


# no caller interleaves more than two presentations, and a run that meets
# each presentation once (a ball sweep) would otherwise keep up to 256
# indexes it never looks up again
@lru_cache(maxsize=16)
def _dehn_index(p: Presentation) -> dict[tuple[int, ...], Word]:
    """Map each prefix of ceil(l/2) or floor(l/2) + 1 letters of a
    symmetrized element to that element.  Under C'(1/6) such a prefix is
    longer than l/6, so it is no piece and starts one element only."""
    sizes = _prefix_sizes(p.length)
    return {el[:j]: el for el in symmetrize(p).elements for j in sizes}


def _window_hashes(letters: np.ndarray, h: int, rank: int) -> np.ndarray:
    """A Horner hash, wrapping in uint64, of each h-letter window of each
    row of an int8 letter array: column i hashes letters[:, i : i + h].
    A letter x counts as x + rank and the base B is 2 * rank + 1, so the
    hash of c * y is hash(c) * B^|y| + hash(y), and two words of one
    length h hash apart while B^h <= 2^64."""
    wins = letters.shape[1] - h + 1
    out = np.zeros((len(letters), max(wins, 0)), np.uint64)
    if wins > 0:
        codes = letters.view(np.uint8) + np.uint8(rank)  # letter + rank, mod 256
        for i in range(h):
            out *= np.uint64(2 * rank + 1)
            out += codes[:, i : i + wins]
    return out


# two prefix sizes for each presentation _dehn_index keeps
@lru_cache(maxsize=32)
def _relator_halves(p: Presentation, j: int) -> tuple[np.ndarray, np.ndarray]:
    """The j-letter prefixes of the symmetrized elements, j one of the
    prefix sizes of _dehn_index, as a lookup table: their window hashes,
    sorted, and the elements as an int8 array in the same order.  A hash
    hit is no match until its letters are compared; a miss proves none.
    (argsort, not np.unique, which imports numpy.ma, about 1 MiB, on its
    first call.)"""
    elements = np.array(symmetrize(p).elements or np.zeros((0, p.length)), np.int8)
    keys = _window_hashes(elements[:, :j], j, p.rank).reshape(-1)
    order = np.argsort(keys)
    return keys[order], elements[order]


def _cancel(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """a and b less the letters that cancel where a ends and b starts;
    for freely reduced a and b no other letters cancel."""
    c, top = 0, min(len(a), len(b))
    while c < top and a[-1 - c] == -b[c]:
        c += 1
    return a[: len(a) - c], b[c:]


def _dehn_walk(w: Word, p: Presentation):
    """Dehn's algorithm on free_reduce(w), one replacement at a time: yields
    (word, step) before each replacement, then (final word, None).

    A cursor i scans windows of floor(l/2) + 1 letters; a hit starts one
    element el, matched on to k letters.  w[:i] * el[k:]^-1 * w[i+k:]
    cancels only where the parts meet.  If m letters of w[:i] survive,
    the windows before m - floor(l/2) are unchanged, so the scan resumes
    there."""
    _require_sixth(p)
    cur = free_reduce(w)
    if p.relators:
        index = _dehn_index(p)
        origin = symmetrize(p).origin
        half = _prefix_sizes(p.length)[-1]
        i = 0
        while i + half <= len(cur):
            el = index.get(cur[i : i + half])
            if el is None:
                i += 1
                continue
            k, top = half, min(len(el), len(cur) - i)
            while k < top and el[k] == cur[i + k]:
                k += 1
            yield cur, DehnStep(i, el, origin[el], k)
            left, mid = _cancel(cur[:i], invert(el[k:]))
            mid, right = _cancel(mid, cur[i + k :])
            if not mid:
                left, right = _cancel(left, right)
            cur = _raw(left + mid + right)
            i = max(0, len(left) - p.length // 2)
    yield cur, None


def dehn_reduce(w: Word, p: Presentation) -> tuple[Word, list[DehnStep]]:
    """Run Dehn's algorithm to a fixpoint; returns the final word and trace.

    Requires C'(1/6).  Each step strictly decreases the length, replacing
    the leftmost more-than-half subword of a symmetrized element (which is
    unique, see _dehn_index), extended as far as it goes.
    """
    trace: list[DehnStep] = []
    for cur, step in _dehn_walk(w, p):
        if step is None:
            return cur, trace
        trace.append(step)


def is_trivial(w: Word, p: Presentation) -> bool:
    """Whether w = 1 in the presented group; complete on C'(1/6) input."""
    final, _ = dehn_reduce(w, p)
    return len(final) == 0


def equal_in_group(u: Word, v: Word, p: Presentation) -> bool:
    return is_trivial(u.concat(invert(v)), p)


def first_moment_piece_bound(n: int, d, l: int, lam) -> float:
    """N^2 * l^2 * (2n-1)^(-ceil(lam*l)) with N the relator count: a
    Markov-style estimate for the expected number of forbidden shared
    subwords, used as a statistical oracle."""
    N = relator_count(DensityParams(n, d, l, 0))
    return float(Fraction(N * N * l * l, (2 * n - 1) ** _gate_length(lam, l)))
