"""Sampling random presentations in the Gromov density model.

A random presentation of density d at length l over rank n has
max(1, floor((2n-1)^(d*l))) relators, each drawn uniformly and
independently (with replacement) from the reduced words of length l.
Draws that are not cyclically reduced are rejected and redrawn, since
relators live on diagram faces as cyclic words; the resampling count is
logged at DEBUG level.

Randomness comes from numpy's counter-based Philox generator.  Streams
are derived with SeedSequence(entropy=seed, spawn_key=path), so disjoint
(cell, trial) paths give independent, reproducible streams.

A word takes one draw below 2n for its first letter and l-1 draws below
2n-1 for the rest.  Each sampling round draws every word it still needs
in one `integers` call over an array of those per-letter bounds,
broadcast once per word.  numpy draws each bounded integer on its own,
by Lemire's method on the generator's next 32-bit output (Lemire, *Fast
random integer generation in an interval*, ACM TOMACS 29, 2019), so one
call over the array reads the stream exactly as the same draws made
word by word would.  A round draws only as many words as are still
missing, and each of them is kept or rejected, so the stream is never
read past the last accepted relator and a caller's rng ends where
word-by-word sampling would leave it.  Draws become letters through a next-letter
table built once per round: after letter g the draw c picks letter c of
the signed alphabet with -g left out.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .words import MAX_RANK, Presentation, Word

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DensityParams:
    rank: int
    density: Fraction
    length: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "density", Fraction(self.density))
        if self.rank < 2:
            raise ValueError("rank must be >= 2")
        if self.rank > MAX_RANK:
            raise ValueError(f"rank must be <= {MAX_RANK}")
        if not (0 <= self.density <= 1):
            raise ValueError("density must lie in [0, 1]")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")


def stream(seed: int, *path: int) -> np.random.Generator:
    """Philox stream for a (seed, path) pair; disjoint paths are independent."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def reduced_word_count(n: int, l: int) -> int:
    """|S_l| = 2n * (2n-1)^(l-1), the number of reduced words of length l."""
    if n < 2 or l < 1:
        raise ValueError("need n >= 2 and l >= 1")
    return 2 * n * (2 * n - 1) ** (l - 1)


def _floor_root(x: int, k: int) -> int:
    """floor(x**(1/k)) for nonnegative integers, by binary search."""
    if x < 0 or k < 1:
        raise ValueError("need x >= 0 and k >= 1")
    if x in (0, 1) or k == 1:
        return x
    hi = 1 << (x.bit_length() // k + 1)
    lo = 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid
    return lo


def relator_count(params: DensityParams) -> int:
    """max(1, floor((2n-1)^(d*l))), in exact integer arithmetic.

    For d*l = p/q the value is floor(((2n-1)^p)^(1/q)), computed with an
    exact integer k-th root, so no floating point is involved even when
    the exponent is not an integer.
    """
    base = 2 * params.rank - 1
    e = params.density * params.length
    p, q = e.numerator, e.denominator
    return max(1, _floor_root(base**p, q))


def _next_letter_table(n: int) -> list[list[int]]:
    """table[prev][c], the letter that draw c gives after letter prev.

    The signed letters are laid out as 1..n, -1..-n.  Row 0 is the start
    state: the first draw c < 2n picks letter c of that layout.  Row prev
    (a signed letter, so a negative prev indexes from the end) is the
    layout without prev's inverse, so the draw c < 2n-1 picks letter
    c + (c >= inv(prev)) of it.
    """
    signed = list(range(1, n + 1)) + list(range(-1, -n - 1, -1))
    table = [signed] * (2 * n + 1)
    for g in signed:
        table[g] = [x for x in signed if x != -g]
    return table


def _draw_words(n: int, l: int, m: int, rng: np.random.Generator) -> list[Word]:
    """m uniform elements of S_l, from one integers call.

    Each word takes one draw below 2n and l-1 draws below 2n-1, in that
    order, which is the order successive words would read them, so the
    stream is read exactly as m single-word draws would read it.
    """
    bounds = np.full(l, 2 * n - 1)
    bounds[0] = 2 * n
    words = rng.integers(0, np.broadcast_to(bounds, (m, l))).tolist()
    table = _next_letter_table(n)
    # each row is replaced by its word as it is mapped, so the draws and
    # the words are not both held whole
    for i, row in enumerate(words):
        prev = 0
        words[i] = Word([prev := table[prev][c] for c in row])
    return words


def sample_reduced_word(n: int, l: int, rng: np.random.Generator) -> Word:
    """A uniform element of S_l: first letter uniform over 2n signed
    generators, each next letter uniform over the 2n-1 that do not cancel."""
    if n < 2 or l < 1:
        raise ValueError("need n >= 2 and l >= 1")
    return _draw_words(n, l, 1, rng)[0]


def sample_presentation(params: DensityParams, rng: np.random.Generator | None = None) -> Presentation:
    """A random presentation for the given density parameters.

    Deterministic in params (including seed); an explicit rng stream may
    be supplied for derived per-trial sampling.  Words that are freely
    but not cyclically reduced are redrawn: each round draws as many
    words as are still missing.
    """
    if rng is None:
        rng = stream(params.seed)
    count = relator_count(params)
    relators: list[Word] = []
    attempts = 0
    while len(relators) < count:
        words = _draw_words(params.rank, params.length, count - len(relators), rng)
        attempts += len(words)
        # the words are reduced, so only their ends can cancel
        relators += [w for w in words if len(w) < 2 or w[0] != -w[-1]]
    if attempts > count:
        log.debug(
            "resampled %d non-cyclically-reduced words (rank=%d length=%d seed=%d)",
            attempts - count, params.rank, params.length, params.seed,
        )
    return Presentation(params.rank, relators, params.length)
