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
)
from .cancellation import is_trivial, _require_sixth
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


def eval_clause_group(c: EquationalClause, assignment: dict[str, Word], p: Presentation) -> bool:
    """Truth of the clause in the group of p under a total assignment,
    with equality decided by Dehn's algorithm (the free group of rank n
    is Presentation(n))."""
    hyps = all(is_trivial(substitute(v, assignment), p) for v in c.system)
    if not hyps:
        return True
    return any(is_trivial(substitute(w, assignment), p) for w in c.conclusions)


# ---------------------------------------------------------------------------
# Bounded refutation


class BudgetExceeded(RuntimeError):
    def __init__(self, examined: int):
        super().__init__(f"assignment budget exceeded after {examined} tuples")
        self.examined = examined


def _tuples_in_order(universe: list[Word], k: int, budget: int | None):
    """Assignments ordered by total length, then componentwise index.

    The universe must be sorted by length with every length from 0 to the
    longest present, as a ball's words are.  Tuples are made one at a
    time, so an early witness ends the search.
    """
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
    lexicographically); the free group of rank n is Presentation(n).
    Assignments come by total length, then by position in the universe.
    The budget caps the number of tuples: the ball is built under it, so
    a universe too large raises BudgetExceeded before any tuple exists.
    """
    _require_sixth(p)
    vars_ = c.variables()
    k = len(vars_)
    if L < 0:
        raise ValueError(f"ball radius must be >= 0, got {L}")
    if L == 0 or k == 0:
        universe = [Word()]
    else:
        # at least budget**(1/k) vertices, so the exact tuple count decides
        cap = math.inf if budget is None else int(budget ** (1 / k)) + 1
        try:
            universe = build_ball(p, L, max_vertices=cap).words
        except BallBudgetExceeded as e:
            raise BudgetExceeded((e.vertices + 1) ** k) from None
    for combo in _tuples_in_order(universe, k, budget):
        a = dict(zip(vars_, combo))
        if not eval_clause_group(c, a, p):
            return a
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
