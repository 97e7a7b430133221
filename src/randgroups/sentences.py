"""Universal sentences: parsing, clausal normalization, triangular systems,
and bounded evaluation in small cancellation groups, the free group
included.

Grammar (one line or many; whitespace is free):

    sentence := clause ("&" clause)*
    clause   := [hyp "->"] disj
    hyp      := lit | "(" lit ("&" lit)* ")"
    disj     := lit ("|" lit)* | "(" lit ("|" lit)* ")"
    lit      := word ("=" | "!=") "1"
    word     := term+
    term     := ["~"] ident
    ident    := variable (t..z, optional digit suffix) | generator (a..j)

All variables are implicitly universally quantified.  An unparenthesized
"&" separates clauses; a multi-literal hypothesis must be parenthesized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .words import (
    Word,
    TemplateWord,
    Presentation,
    template_reduce,
    is_variable_symbol,
    is_generator_symbol,
    substitute,
    free_reduce,
    invert,
    char_to_letter,
)
from .cancellation import is_trivial, _require_sixth, _prefix_sizes, _relator_halves, _window_hashes
from .cayley import BallBudgetExceeded, build_ball


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Literal:
    word: TemplateWord
    positive: bool  # True for "= 1", False for "!= 1"

    def text(self) -> str:
        op = "=" if self.positive else "!="
        return f"{self.word.text()} {op} 1"


@dataclass(frozen=True)
class Clause:
    hypotheses: tuple[Literal, ...]
    disjuncts: tuple[Literal, ...]

    def text(self) -> str:
        disj = " | ".join(l.text() for l in self.disjuncts)
        if len(self.disjuncts) > 1:
            disj = f"( {disj} )"
        if not self.hypotheses:
            return disj
        hyp = " & ".join(l.text() for l in self.hypotheses)
        if len(self.hypotheses) > 1:
            hyp = f"( {hyp} )"
        return f"{hyp} -> {disj}"


@dataclass(frozen=True)
class UniversalSentence:
    variables: tuple[str, ...]
    clauses: tuple[Clause, ...]

    def text(self) -> str:
        return " & ".join(c.text() for c in self.clauses)


@dataclass(frozen=True)
class EquationalClause:
    """forall x: (every v in system = 1) -> (some w in conclusions = 1)."""

    system: tuple[TemplateWord, ...]
    conclusions: tuple[TemplateWord, ...]

    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for w in self.system + self.conclusions:
            for v in w.variables():
                if v not in seen:
                    seen.append(v)
        return tuple(seen)


# ---------------------------------------------------------------------------
# Parser


class SentenceSyntaxError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at offset {pos})")
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("ARROW", "->", i))
            i += 2
        elif text.startswith("!=", i):
            tokens.append(("NEQ", "!=", i))
            i += 2
        elif c in "&|()=~":
            kind = {"&": "AMP", "|": "PIPE", "(": "LP", ")": "RP", "=": "EQ", "~": "TILDE"}[c]
            tokens.append((kind, c, i))
            i += 1
        elif c == "1":
            tokens.append(("ONE", c, i))
            i += 1
        elif c.isalpha():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("IDENT", text[i:j], i))
            i = j
        else:
            raise SentenceSyntaxError(f"unknown token {c!r}", i)
    tokens.append(("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None):
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            raise SentenceSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.k += 1
        return tok

    def parse_word(self) -> TemplateWord:
        items = []
        while True:
            kind, val, pos = self.peek()
            if kind == "TILDE":
                self.take()
                kind2, val2, pos2 = self.take("IDENT")
                items.append(self._symbol(val2, pos2, -1))
            elif kind == "IDENT":
                self.take()
                items.append(self._symbol(val, pos, 1))
            else:
                break
        if not items:
            kind, val, pos = self.peek()
            raise SentenceSyntaxError(f"expected a word, found {val!r}", pos)
        return template_reduce(TemplateWord(items))

    @staticmethod
    def _symbol(name: str, pos: int, sign: int):
        if name[0].isupper():
            sign = -sign
            name = name.lower()
        if not (is_variable_symbol(name) or is_generator_symbol(name)):
            raise SentenceSyntaxError(f"unknown identifier {name!r}", pos)
        return (name, sign)

    def parse_literal(self) -> Literal:
        w = self.parse_word()
        kind, val, pos = self.take()
        if kind == "EQ":
            positive = True
        elif kind == "NEQ":
            positive = False
        else:
            raise SentenceSyntaxError(f"expected = or !=, found {val!r}", pos)
        self.take("ONE")
        return Literal(w, positive)

    def parse_group(self):
        """lit, or a parenthesized group of lits joined by & or | (not mixed).

        Returns (literals, separator) with separator in {"AMP","PIPE",None}.
        """
        if self.peek()[0] != "LP":
            return [self.parse_literal()], None
        self.take("LP")
        lits = [self.parse_literal()]
        sep = None
        while self.peek()[0] in ("AMP", "PIPE"):
            kind, _, pos = self.take()
            if sep is None:
                sep = kind
            elif kind != sep:
                raise SentenceSyntaxError("mixed & and | inside one group", pos)
            lits.append(self.parse_literal())
        self.take("RP")
        return lits, sep

    def parse_clause(self) -> Clause:
        first, sep = self.parse_group()
        if self.peek()[0] == "ARROW":
            if sep == "PIPE":
                raise SentenceSyntaxError("a hypothesis group joins literals with &", self.peek()[2])
            self.take("ARROW")
            disj, dsep = self.parse_group()
            if dsep == "AMP":
                raise SentenceSyntaxError("a conclusion group joins literals with |", self.peek()[2])
            while self.peek()[0] == "PIPE":
                self.take("PIPE")
                disj.append(self.parse_literal())
            return Clause(tuple(first), tuple(disj))
        if sep == "AMP":
            raise SentenceSyntaxError("parenthesized & group must precede ->", self.peek()[2])
        disj = first
        while self.peek()[0] == "PIPE":
            self.take("PIPE")
            disj.append(self.parse_literal())
        return Clause((), tuple(disj))

    def parse_sentence(self) -> UniversalSentence:
        clauses = [self.parse_clause()]
        while self.peek()[0] == "AMP":
            self.take("AMP")
            clauses.append(self.parse_clause())
        self.take("EOF")
        seen: list[str] = []
        for c in clauses:
            for lit in c.hypotheses + c.disjuncts:
                for v in lit.word.variables():
                    if v not in seen:
                        seen.append(v)
        return UniversalSentence(tuple(seen), tuple(clauses))


def parse_sentence(text: str) -> UniversalSentence:
    return _Parser(text).parse_sentence()


# ---------------------------------------------------------------------------
# Clausal normalization


def to_clausal(s: UniversalSentence) -> list[EquationalClause]:
    """One equational clause per conjunct; truth-preserving.

    A clause (H -> D) means the disjunction of not-H and D; negative
    literals move to the hypothesis system, positive ones become the
    conclusion disjunction.
    """
    out = []
    for c in s.clauses:
        system: list[TemplateWord] = []
        conclusions: list[TemplateWord] = []
        for lit in c.hypotheses:
            # hypothesis literal is negated in the disjunction
            if lit.positive:
                system.append(lit.word)
            else:
                conclusions.append(lit.word)
        for lit in c.disjuncts:
            if lit.positive:
                conclusions.append(lit.word)
            else:
                system.append(lit.word)
        out.append(EquationalClause(tuple(system), tuple(conclusions)))
    return out


# ---------------------------------------------------------------------------
# Bounded refutation


class BudgetExceeded(RuntimeError):
    def __init__(self, examined: int):
        super().__init__(f"assignment budget exceeded after {examined} tuples")
        self.examined = examined


# assignment tuples evaluated together: a block's arrays take well under
# a MiB, and a witness among the first tuples costs one small block
_BLOCK_ROWS = 2048


def _inverses(codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The inverse of the word in the first lengths[i] letters of each row
    of codes, padded on the right with 0 as the rows are.  The lengths
    ascend, as in a ball, so the rows of one length are one slice."""
    inv = np.zeros_like(codes)
    ends = np.searchsorted(lengths, np.arange(codes.shape[1] + 1), "right")
    for d in range(1, codes.shape[1] + 1):
        inv[ends[d - 1] : ends[d], :d] = -codes[ends[d - 1] : ends[d], d - 1 :: -1]
    return inv


def _tuple_blocks(lengths: np.ndarray, k: int):
    """Index k-tuples into a universe sorted by word length, ordered by
    total length, then componentwise index, in blocks of at most
    _BLOCK_ROWS rows; only the current block is ever made.

    A block is unranked from its positions in that order.  Among the
    j-tuples of total t (count[j, t] of them), off[j, t, n] have a first
    word shorter than n.  The tuple of rank r has a first word of the
    largest length n with off[j, t, n] <= r, the q // count[j - 1, t - n]-th
    of that length, q = r - off[j, t, n], followed by the (j - 1)-tuple of
    rank q % count[j - 1, t - n] and total t - n."""
    top = int(lengths[-1])
    sizes = np.bincount(lengths, minlength=top + 1)
    start = np.cumsum(sizes) - sizes
    totals = np.arange(k * top + 1)[:, None]
    shorter = totals - np.arange(top + 1)
    count = np.zeros((k + 1, len(totals)), np.int64)
    count[0, 0] = 1
    off = np.zeros((k + 1, len(totals), top + 2), np.int64)
    for j in range(1, k + 1):
        rest = np.where(shorter >= 0, count[j - 1, shorter.clip(0)], 0)
        off[j, :, 1:] = np.cumsum(sizes * rest, axis=1)
        count[j] = off[j, :, -1]
    for t in range(len(totals)):
        for first in range(0, count[k, t], _BLOCK_ROWS):
            r = np.arange(first, min(first + _BLOCK_ROWS, count[k, t]))
            rest = np.full(len(r), t)
            block = np.empty((len(r), k), np.intp)
            for c in range(k):
                j = k - c
                below = off[j, rest]
                n = (below[:, 1:-1] <= r[:, None]).sum(axis=1)
                q = r - np.take_along_axis(below, n[:, None], axis=1)[:, 0]
                tails = count[j - 1, rest - n]
                block[:, c] = start[n] + q // tails
                r = q % tails
                rest -= n
            yield block


def _substitute_rows(t: TemplateWord, rows: np.ndarray, col: dict[str, int],
                     fwd: np.ndarray, inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """substitute(t, a) for the assignment a of each row of universe
    indices: the reduced words left-aligned in an int8 array, and their
    lengths.

    The occurrences' padded words are laid side by side and reduced with
    one stack per row, a column at a time: a letter that inverts its
    row's top letter pops it, any other nonzero letter is pushed.  Each
    row's stack starts with a 0 that no letter cancels."""
    m = len(rows)
    parts = [
        ((fwd if sign > 0 else inv)[rows[:, col[name]]]).T if name in col
        else np.full((1, m), sign * char_to_letter(name), np.int8)
        for name, sign in t
    ]
    columns = np.concatenate(parts) if parts else np.zeros((0, m), np.int8)
    width = len(columns) + 1
    stack = np.zeros((m, width), np.int8)
    flat = stack.reshape(-1)
    base = np.arange(m) * width
    top = base.copy()  # flat index of each row's top letter
    for x in columns:
        pop = (flat[top] == -x) & (x != 0)
        flat[top + 1] = x  # a popped or zero letter lands above the new top
        top += x != 0
        top -= 2 * pop
    return stack[:, 1:], top - base


def _holds_half(letters: np.ndarray, n: np.ndarray, keys: np.ndarray, h: int, rank: int) -> np.ndarray:
    """Whether the first n[i] letters of row i have an h-letter window
    whose hash is among the keys: a window at i fits when i + h <= n."""
    if not len(keys):
        return np.zeros(len(letters), bool)
    hashes = _window_hashes(letters, h, rank)
    hit = keys[np.searchsorted(keys, hashes).clip(max=len(keys) - 1)] == hashes
    hit &= np.arange(hashes.shape[1]) <= (n - h)[:, None]
    return hit.any(axis=1)


def _falsified_blocks(c: EquationalClause, p: Presentation, codes: np.ndarray, lengths: np.ndarray):
    """Each block of _tuple_blocks over the universe, the words in the
    first lengths[i] letters of each row of codes, with the positions of
    its rows (assignments of c.variables() in order) that falsify c in the
    group of p.  A literal is decided on all rows at once, by the screen
    refute_on_ball_group describes; conclusions only on the rows where
    every hypothesis holds."""
    col = {v: j for j, v in enumerate(c.variables())}
    fwd, inv = codes, _inverses(codes, lengths)
    h = _prefix_sizes(p.length)[-1]
    keys = _relator_halves(p, h)[0]

    def trivial(t: TemplateWord, rows: np.ndarray) -> np.ndarray:
        letters, n = _substitute_rows(t, rows, col, fwd, inv)
        out = n == 0
        for i in np.flatnonzero(~out & _holds_half(letters, n, keys, h, p.rank)).tolist():
            out[i] = is_trivial(Word(letters[i, : n[i]].tolist()), p)
        return out

    for block in _tuple_blocks(lengths, len(col)):
        bad = np.arange(len(block))
        for v in c.system:
            bad = bad[trivial(v, block[bad])]
        for w in c.conclusions:
            bad = bad[~trivial(w, block[bad])]
        yield block, bad


def refute_on_ball_group(
    c: EquationalClause,
    p: Presentation,
    L: int,
    budget: int | None = 2_000_000,
) -> dict[str, Word] | None:
    """First assignment of group elements of length <= L falsifying the
    clause, or None, which certifies only ball-truth up to L.

    The universe is the Cayley ball of radius L, one canonical word per
    element in the order build_ball finds them (by length, then
    lexicographically), read from the ball's code rows; the free group of
    rank n is Presentation(n).  Assignments come by total length, then by
    position in the universe, and a Word is made only for the witness.
    The budget caps the number of tuples: the ball is built under it, so
    a universe too large raises BudgetExceeded before any tuple exists.

    Tuples are evaluated a block at a time (_falsified_blocks): each
    literal is substituted and freely reduced on the whole block in numpy.
    Under C'(1/6) a nonempty reduced word is trivial only if it holds
    more than half of a symmetrized relator (Greendlinger; Lyndon &
    Schupp, Ch. V), and Dehn's algorithm decides it.  So an empty word is
    trivial, a word with no window of floor(l/2) + 1 letters from a
    symmetrized relator is nontrivial (Dehn's algorithm leaves it as it
    is), and only the words with such a window go to is_trivial, one at a
    time.  The windows are screened by uint64 Horner hashes in the table
    of relator prefixes that ball completion reads; a collision only
    sends a word to is_trivial, so the verdicts stay exact.  The
    witness is the first falsifying row of the first block that has one,
    which is the first falsifying tuple in order.
    """
    _require_sixth(p)
    vars_ = c.variables()
    k = len(vars_)
    if L < 0:
        raise ValueError(f"ball radius must be >= 0, got {L}")
    if L == 0 or k == 0:
        codes, lengths = np.zeros((1, 0), np.int8), np.zeros(1, np.int32)
    else:
        # at least budget**(1/k) vertices, so the exact tuple count decides
        cap = math.inf if budget is None else int(budget ** (1 / k)) + 1
        try:
            ball = build_ball(p, L, max_vertices=cap)
        except BallBudgetExceeded as e:
            raise BudgetExceeded((e.vertices + 1) ** k) from None
        codes, lengths = ball.codes, ball.dist
    count = len(lengths) ** k
    if budget is not None and count > budget:
        raise BudgetExceeded(count)
    for block, bad in _falsified_blocks(c, p, codes, lengths):
        if len(bad):
            return {v: Word(codes[i, : lengths[i]].tolist()) for v, i in zip(vars_, block[bad[0]].tolist())}
    return None


def refute_sentence(s: UniversalSentence, p: Presentation, L: int,
                    budget: int | None = 2_000_000):
    """First (clause, witness) falsifying a clause of s over the ball of
    radius L in the group of p, or None."""
    for c in to_clausal(s):
        witness = refute_on_ball_group(c, p, L, budget)
        if witness is not None:
            return c, witness
    return None


# ---------------------------------------------------------------------------
# Triangular systems


@dataclass
class TriangularSystem:
    """Equations with <= 3 signed variable occurrences each.

    defining maps each fresh variable to the template it abbreviates (in
    terms of earlier variables); eliminated records (equation, solved
    variable occurrence) pairs removed by the single-occurrence pruning
    pass, in order, so solutions lift back.
    """

    equations: list[TemplateWord]
    variables: list[str]
    defining: dict[str, TemplateWord] = field(default_factory=dict)
    eliminated: list[tuple[TemplateWord, str]] = field(default_factory=list)


def _occurrence_counts(equations) -> dict[str, int]:
    counts: dict[str, int] = {}
    for eq in equations:
        for name, _ in eq:
            counts[name] = counts.get(name, 0) + 1
    return counts


def _fresh_names(existing):
    i = 1
    while True:
        name = f"z{i}"
        if name not in existing:
            existing.add(name)
            yield name
        i += 1


def split_long_equations(system):
    """Replace each equation x1 x2 w = 1 of length > 3 by x1 x2 z^-1 = 1
    and z w = 1 with a fresh z, repeatedly.  Returns (equations,
    variables, defining) without any pruning."""
    equations = [template_reduce(TemplateWord(eq)) for eq in system]
    for eq in equations:
        for name, _ in eq:
            if not is_variable_symbol(name):
                raise ValueError(f"triangularize expects variables only, found {name!r}")
    names = set()
    for eq in equations:
        names.update(v for v, _ in eq)
    variables = sorted(names)
    fresh = _fresh_names(set(names))
    defining: dict[str, TemplateWord] = {}

    out = []
    work = list(equations)
    while work:
        eq = work.pop(0)
        if len(eq) <= 3:
            out.append(eq)
            continue
        z = next(fresh)
        head = TemplateWord(tuple(eq[:2]) + ((z, -1),))
        tail = TemplateWord(((z, 1),) + tuple(eq[2:]))
        defining[z] = TemplateWord(tuple(eq[:2]))
        variables.append(z)
        out.append(head)
        work.insert(0, tail)
    return out, variables, defining


def triangularize(system) -> TriangularSystem:
    """Split long equations with fresh variables, then prune equations
    containing a variable that occurs exactly once in the whole system.

    Every equation of the result has at most three occurrences and every
    surviving variable occurs at least twice.  Eliminated equations stay
    solvable for their single variable, so solutions lift back through
    extend_solution.
    """
    out, variables, defining = split_long_equations(system)

    # prune equations whose some variable occurs exactly once overall
    eliminated: list[tuple[TemplateWord, str]] = []
    pruned = list(out)
    while True:
        counts = _occurrence_counts(pruned)
        victim = None
        for eq in pruned:
            single = next((v for v, _ in eq if counts[v] == 1), None)
            if single is not None:
                victim = (eq, single)
                break
        if victim is None:
            break
        pruned.remove(victim[0])
        eliminated.append(victim)

    used = set()
    for eq in pruned:
        used.update(v for v, _ in eq)
    return TriangularSystem(pruned, [v for v in variables if v in used], defining, eliminated)


def extend_solution(T: TriangularSystem, assignment: dict[str, Word], original_vars) -> dict[str, Word]:
    """Lift an assignment of T's surviving variables back to the source
    system: eliminated equations are solved for their single variable (in
    reverse elimination order), fresh z-variables take their defining
    values, and untouched variables default to the identity."""
    a = dict(assignment)

    # defining values for z's still unset (possible when z got pruned away)
    def ensure(name):
        if name in a:
            return
        if name in T.defining:
            for dep, _ in T.defining[name]:
                ensure(dep)
            a[name] = substitute(T.defining[name], a)
        else:
            a[name] = Word()

    for eq, single in reversed(T.eliminated):
        # eq = X * s^sign * Y with s occurring once; solve for s
        for name, _ in eq:
            if name != single:
                ensure(name)
        i = next(k for k, (name, _) in enumerate(eq) if name == single)
        sign = eq[i][1]
        X = TemplateWord(tuple(eq[:i]))
        Y = TemplateWord(tuple(eq[i + 1 :]))
        # X * s^sign * Y = 1  =>  s^sign = X^-1 Y^-1
        value = free_reduce(invert(substitute(X, a)).concat(invert(substitute(Y, a))))
        a[single] = value if sign == 1 else invert(value)
    for v in original_vars:
        ensure(v)
    return a


def max_occurrences(T: TriangularSystem) -> int:
    counts = _occurrence_counts(T.equations)
    return max(counts.values(), default=0)
