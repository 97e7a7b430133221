"""Reduced words over a free group's signed alphabet, and finite presentations.

A letter is a nonzero signed integer: +i is the i-th generator (1-based),
-i its inverse.  The text form uses lowercase a, b, c, ... for generators
and the corresponding uppercase letters for inverses, so "abAB" is the
commutator of the first two generators.  Words are immutable; every
operation returns a new word.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
MAX_RANK = len(_LETTERS)


def letter_to_char(x: int) -> str:
    if x == 0 or abs(x) > MAX_RANK:
        raise ValueError(f"letter out of range: {x}")
    c = _LETTERS[abs(x) - 1]
    return c if x > 0 else c.upper()


def char_to_letter(c: str) -> int:
    low = c.lower()
    i = _LETTERS.find(low)
    if i < 0:
        raise ValueError(f"not a generator letter: {c!r}")
    return i + 1 if c.islower() else -(i + 1)


class Word(tuple):
    """A word over signed generators, stored as a tuple of nonzero ints.

    Words are not reduced automatically; use free_reduce.  `w * v` is
    concatenate-then-free-reduce, `~w` is the inverse.

    >>> Word.from_text("abAB").text()
    'abAB'
    >>> (Word.from_text("ab") * Word.from_text("BA")).text()
    ''
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()):
        w = super().__new__(cls, letters)
        # two C-level scans; the type scan runs first so that `0 in w`
        # compares only ints (bools included, as isinstance allows)
        if not all(map(isinstance, w, repeat(int))) or 0 in w:
            raise ValueError("letters must be nonzero integers")
        return w

    @classmethod
    def from_text(cls, text: str) -> "Word":
        return cls(char_to_letter(c) for c in text if not c.isspace())

    def text(self) -> str:
        return "".join(letter_to_char(x) for x in self)

    def __str__(self) -> str:
        return self.text() if self else "1"

    def __repr__(self) -> str:
        return f"Word({self.text()!r})"

    @property
    def is_reduced(self) -> bool:
        # no two adjacent letters sum to 0, scanned at C level
        return 0 not in map(operator.add, self, self[1:])

    def __mul__(self, other) -> "Word":
        return free_reduce(tuple.__new__(Word, tuple.__add__(self, other)))

    def __invert__(self) -> "Word":
        return invert(self)

    def concat(self, other: "Word") -> "Word":
        """Raw concatenation without free reduction."""
        return tuple.__new__(Word, tuple.__add__(self, other))

    def max_generator(self) -> int:
        return max(map(abs, self), default=0)


def _raw(letters) -> Word:
    """Unvalidated Word construction for letters known to be valid."""
    return tuple.__new__(Word, letters)


def free_reduce(w: Word) -> Word:
    """The unique freely reduced word equal to w, by stack cancellation."""
    if 0 not in map(operator.add, w, w[1:]):
        return w if isinstance(w, Word) else Word(w)
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return _raw(out)


def invert(w: Word) -> Word:
    return _raw(-x for x in reversed(w))


def is_cyclically_reduced(w: Word) -> bool:
    if not w.is_reduced:
        return False
    return len(w) < 2 or w[0] != -w[-1]


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w = c * u * c^-1 with u cyclically reduced; returns (u, c).

    w must be freely reduced.
    """
    if not w.is_reduced:
        raise ValueError("cyclic_reduce expects a freely reduced word")
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return _raw(w[i:j]), _raw(w[:i])


def rotate(w: Word, k: int) -> Word:
    """Cyclic rotation starting at position k."""
    if not w:
        return w
    k %= len(w)
    return _raw(tuple.__add__(tuple(w[k:]), tuple(w[:k])))


# ---------------------------------------------------------------------------
# Words over variables (templates), used by the sentence layer.

_VAR_INITIALS = "tuvwxyz"
_GEN_INITIALS = "abcdefghij"


def is_variable_symbol(name: str) -> bool:
    return bool(name) and name[0] in _VAR_INITIALS and name[1:].isdigit() or (
        len(name) == 1 and name in _VAR_INITIALS
    )


def is_generator_symbol(name: str) -> bool:
    return len(name) == 1 and name in _GEN_INITIALS


class TemplateWord(tuple):
    """A word over variable symbols and generator constants.

    Items are (symbol, sign) pairs.  Variable symbols start with one of
    t..z with an optional digit suffix; single letters a..j denote the
    corresponding generators.  In text form, ~ inverts the following
    symbol and an uppercase letter is shorthand for the inverse.
    """

    __slots__ = ()

    def __new__(cls, items: Iterable[tuple[str, int]] = ()):
        items = tuple(items)
        for name, sign in items:
            if sign not in (1, -1):
                raise ValueError(f"bad sign {sign} for {name!r}")
            if not (is_variable_symbol(name) or is_generator_symbol(name)):
                raise ValueError(f"bad symbol {name!r}")
        return super().__new__(cls, items)

    @classmethod
    def from_text(cls, text: str) -> "TemplateWord":
        items: list[tuple[str, int]] = []
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            sign = 1
            if c == "~":
                sign = -1
                i += 1
                if i >= n:
                    raise ValueError("dangling ~")
                c = text[i]
            if c.isupper():
                sign = -sign
                c = c.lower()
            if not c.isalpha():
                raise ValueError(f"unexpected character {text[i]!r}")
            i += 1
            digits = ""
            while i < n and text[i].isdigit():
                digits += text[i]
                i += 1
            items.append((c + digits, sign))
        return cls(items)

    def text(self) -> str:
        parts = []
        for name, sign in self:
            parts.append(name if sign > 0 else "~" + name)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"TemplateWord({self.text()!r})"

    @property
    def is_reduced(self) -> bool:
        return all(
            not (self[i][0] == self[i + 1][0] and self[i][1] == -self[i + 1][1])
            for i in range(len(self) - 1)
        )

    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for name, _ in self:
            if is_variable_symbol(name) and name not in seen:
                seen.append(name)
        return tuple(seen)

    def inverse(self) -> "TemplateWord":
        return TemplateWord((name, -sign) for name, sign in reversed(self))


def template_reduce(t: TemplateWord) -> TemplateWord:
    out: list[tuple[str, int]] = []
    for name, sign in t:
        if out and out[-1][0] == name and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((name, sign))
    return TemplateWord(out)


class UnboundVariableError(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"unbound variable {self.name!r}"


def substitute(template: TemplateWord, assignment: Mapping[str, Word]) -> Word:
    """Substitute words for variables and free-reduce the result.

    Generator constants map to themselves; inverse occurrences substitute
    the inverted assigned word.  Raises UnboundVariableError for a
    variable missing from the assignment.
    """
    out: list[int] = []
    for name, sign in template:
        if name in assignment:
            w = assignment[name]
        elif is_generator_symbol(name):
            w = Word((char_to_letter(name),))
        else:
            raise UnboundVariableError(name)
        for x in (w if sign > 0 else invert(w)):
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return _raw(out)


# ---------------------------------------------------------------------------
# Presentations.


def content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, content) for each line of a text file that is not
    blank once its # comment is cut off; the one comment rule of every
    input file."""
    lines = ((n, raw.split("#", 1)[0].strip()) for n, raw in enumerate(text.splitlines(), start=1))
    return [(n, line) for n, line in lines if line]


@dataclass(frozen=True)
class Presentation:
    """A finite presentation with cyclically reduced relators of one length.

    rank >= 2; every relator must be freely and cyclically reduced and,
    when the relator list is nonempty, of length exactly `length`.
    """

    rank: int
    relators: tuple[Word, ...]
    length: int

    def __init__(self, rank: int, relators: Iterable[Word] = (), length: int | None = None):
        # a Word was validated when it was made, and is immutable
        relators = tuple(r if type(r) is Word else Word(r) for r in relators)
        if length is None:
            length = len(relators[0]) if relators else 0
        if rank < 2:
            raise ValueError("rank must be >= 2")
        if rank > MAX_RANK:
            raise ValueError(f"rank must be <= {MAX_RANK}")
        if relators and length < 1:
            raise ValueError("relator length must be >= 1")
        for r in relators:
            if len(r) != length:
                raise ValueError(f"relator {r.text()!r} has length {len(r)}, expected {length}")
            if not r.is_reduced:
                raise ValueError(f"relator {r.text()!r} is not freely reduced")
            if len(r) >= 2 and r[0] == -r[-1]:
                raise ValueError(f"relator {r.text()!r} is not cyclically reduced")
            if r.max_generator() > rank:
                raise ValueError(f"relator {r.text()!r} uses a generator beyond rank {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "relators", relators)
        object.__setattr__(self, "length", length)
        # hashed on every cached lookup (symmetrize, the C'(1/6) gate,
        # the Dehn index), so computed once
        object.__setattr__(self, "_hash", hash((rank, relators, length)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_relators(self) -> int:
        return len(self.relators)

    def to_text(self) -> str:
        lines = [f"rank={self.rank} length={self.length}"]
        lines.extend(r.text() for r in self.relators)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Presentation":
        lines = [line for _, line in content_lines(text)]
        if not lines:
            raise ValueError("empty presentation file")
        header = lines[0]
        try:
            fields = dict(part.split("=", 1) for part in header.split())
            rank = int(fields["rank"])
            length = int(fields["length"])
        except (KeyError, ValueError) as e:
            raise ValueError(f"bad presentation header {header!r}") from e
        relators = [Word.from_text(ln) for ln in lines[1:]]
        return cls(rank, relators, length)

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_text())

    @classmethod
    def load(cls, path) -> "Presentation":
        with open(path) as f:
            return cls.from_text(f.read())
