"""The four benchmark workloads.

Each workload is built from a seed (its set-up: imports plus the fixed
inputs), then hands out rounds of tasks.  A task is one timed call into
the library that completes `items` items.  Every task's raw result is
reduced to a small JSON-able record outside the timed region; records
feed the output checks, the non-vacuity gates and the run digest, and
never contain a time.

Inputs derive from the seed alone: round r of seed s always gets the same
inputs, whichever commit runs it.  Rounds past the pre-built pool are
generated between tasks, outside the timed region, so every timed call
sees fresh inputs and the library's per-presentation caches start cold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import randgroups.cli  # noqa: F401  (the CLI's import cost is part of set-up)
from randgroups import harness
from randgroups.cancellation import Occurrence, dehn_reduce, max_piece_length, satisfies_cprime
from randgroups.cayley import (
    Digon,
    all_geodesics,
    build_ball,
    decompose_digons,
    digon_side_uniqueness,
    verify_digon,
)
from randgroups.diagrams import boundary_word, diagram_from_dehn_trace, verify_diagram
from randgroups.sampler import DensityParams, relator_count, sample_presentation, stream
from randgroups.sentences import parse_sentence, refute_on_ball_group, to_clausal
from randgroups.words import Presentation, Word, free_reduce, invert

# Seeds of different runs draw from disjoint windows of the sampler's seed
# space, so runs on neighbouring seeds share no input.
SEED_STRIDE = 10**6


@dataclass
class Task:
    round: int
    label: str
    items: int
    fn: Callable  # fn(tracer) -> raw result
    key: tuple = ()  # identifies the task's inputs within the round


# -- independent checks (no call into cancellation) ---------------------------


def has_piece(p: Presentation, k: int) -> bool:
    """Some k-gram occurs at two distinct cyclic occurrences (set-based)."""
    if k > p.length:
        return False
    seen = set()
    for base in (tuple(w) for r in p.relators for w in (r, invert(r))):
        doubled = base + base
        for s in range(p.length):
            gram = doubled[s : s + k]
            if gram in seen:
                return True
            seen.add(gram)
    return False


def own_cprime(p: Presentation, lam: Fraction) -> bool:
    """C'(lam) as "no piece of length ceil(lam * l)" (pieces are downward closed)."""
    return not has_piece(p, math.ceil(lam * p.length))


def reads_at(p: Presentation, occ, word) -> bool:
    r = p.relators[occ.relator]
    base = tuple(r) if occ.direction == 1 else tuple(invert(r))
    return (base + base)[occ.start : occ.start + len(word)] == tuple(word)


def is_proper_power(r: Word) -> bool:
    l = len(r)
    return any(l % k == 0 and tuple(r) == tuple(r[:k]) * (l // k) for k in range(1, l))


# -- cprime-trend --------------------------------------------------------------


class CprimeTrend:
    """Criterion 04's C'(1/8) experiment, run as many short experiments."""

    name = "cprime-trend"
    item_unit = "trial"
    LENGTHS = (40, 80, 160)
    LAM = Fraction(1, 8)
    TRIALS = 10
    min_rounds = 40
    trace_rounds = 10

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.csv_path = out_dir / f"{self.name}-{seed}.csv"

    def config(self, r: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(
            kind="cprime", rank=2, density=Fraction(0), length_list=self.LENGTHS,
            seed=self.seed * SEED_STRIDE + r, trials=self.TRIALS, lam=self.LAM,
        )

    def tasks(self, r: int) -> list[Task]:
        cfg = self.config(r)
        trials = len(self.LENGTHS) * self.TRIALS

        def fn(tr):
            with tr.span("harness.run_experiment", trials=trials):
                rows = harness.run_experiment(cfg)
            with tr.span("harness.emit") as counts:
                harness.emit(rows, "csv", self.csv_path)
            text = self.csv_path.read_text()
            counts["bytes"] = len(text)
            return text

        return [Task(r, "3 cells", trials, fn)]

    def record(self, task: Task, csv: str) -> dict:
        return {"round": task.round, "csv": csv}

    def _rows(self, rec: dict):
        lines = rec["csv"].splitlines()
        if lines[0] != harness.CSV_HEADER or len(lines) != 1 + len(self.LENGTHS):
            raise ValueError("unexpected CSV layout")
        for line in lines[1:]:
            ell, n, d, trials, success, fraction, oracle, seed, ms = line.split(",")
            yield int(ell), int(trials), int(success), float(fraction), float(oracle)

    def check(self, rec: dict) -> list[str]:
        cfg = self.config(rec["round"])
        problems = []
        for cell, (ell, trials, success, fraction, oracle) in enumerate(self._rows(rec)):
            if ell != self.LENGTHS[cell] or trials != self.TRIALS:
                problems.append(f"cell {cell}: row for l={ell}, {trials} trials")
                continue
            own = sum(
                own_cprime(sample_presentation(DensityParams(2, 0, ell, cfg.seed),
                                               stream(cfg.seed, cell, t)), self.LAM)
                for t in range(trials)
            )
            if own != success:
                problems.append(f"l={ell}: {success} successes, independent gate gives {own}")
            # criterion 04: failure fraction within the first-moment bound + 3 sigma
            failure = 1 - fraction
            sigma = math.sqrt(max(failure * (1 - failure), 1e-12) / trials)
            if failure > oracle + 3 * sigma:
                problems.append(f"l={ell}: failure {failure} above first-moment bound {oracle}")
        return problems

    def gates(self, records: list[dict]) -> list[str]:
        at40 = [row for rec in records for row in self._rows(rec) if row[0] == 40]
        success = sum(row[2] for row in at40)
        trials = sum(row[1] for row in at40)
        if not 0 < success < trials:
            return [f"l=40 shows one verdict only: {success}/{trials} successes"]
        return []

    def replay(self, rec: dict, tr) -> list[str]:
        """Re-run every trial through the sampler and the C'(1/8) gate under
        spans, in (cell, trial) order, and match the CSV's successes."""
        cfg = self.config(rec["round"])
        problems = []
        for cell, (ell, trials, success, _, _) in enumerate(self._rows(rec)):
            params = DensityParams(cfg.rank, cfg.density, ell, cfg.seed)
            hits = 0
            for t in range(trials):
                with tr.span("sampler.sample_presentation") as counts:
                    p = sample_presentation(params, stream(cfg.seed, cell, t))
                counts["relators"] = p.n_relators
                with tr.span("cancellation.satisfies_cprime") as counts:
                    ok = satisfies_cprime(p, cfg.lam)
                counts["accepted"] = int(ok)
                hits += ok
            if hits != success:
                problems.append(f"l={ell}: replay gives {hits} successes, CSV {success}")
        return problems


# -- dense-pieces --------------------------------------------------------------


class DensePieces:
    """The `check` path at positive density: many relators per call."""

    name = "dense-pieces"
    item_unit = "presentation"
    # A small and a large grid point, the small one twice per round, so
    # that the median falls inside the small point's range and the tail
    # inside the large one's, never between the two.
    GRID = ((3, Fraction(1, 16), 32), (3, Fraction(1, 16), 32), (2, Fraction(1, 10), 50))
    # The median rests on 50 ms calls, which sample the machine's speed at
    # an instant; 20 rounds spread them over about 17 s.
    min_rounds = 20
    trace_rounds = 5

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def params(self, r: int, j: int) -> DensityParams:
        n, d, l = self.GRID[j]
        return DensityParams(n, d, l, self.seed * SEED_STRIDE + r * len(self.GRID) + j)

    def tasks(self, r: int) -> list[Task]:
        out = []
        for j, (n, d, l) in enumerate(self.GRID):
            params = self.params(r, j)

            def fn(tr, params=params):
                with tr.span("sampler.sample_presentation") as counts:
                    p = sample_presentation(params)
                counts["relators"] = p.n_relators
                with tr.span("cancellation.max_piece_length", letters=p.n_relators * p.length):
                    rep = max_piece_length(p)
                return p.n_relators, rep

            out.append(Task(r, f"n={n} d={d} l={l}", 1, fn, (r, j)))
        return out

    def record(self, task: Task, raw) -> dict:
        n_relators, rep = raw
        l = self.GRID[task.key[1]][2]
        return {
            "key": task.key,
            "relators": n_relators,
            "max_piece": rep.max_piece_length,
            "cprime_sixth": rep.max_piece_length < Fraction(l, 6),
            "witnesses": [(w.text(), tuple(a), tuple(b)) for w, a, b in rep.witnesses],
        }

    def check(self, rec: dict) -> list[str]:
        params = self.params(*rec["key"])
        p = sample_presentation(params)
        k = rec["max_piece"]
        problems = []
        if rec["relators"] != relator_count(params) or p.n_relators != relator_count(params):
            problems.append(f"{rec['relators']} relators, expected {relator_count(params)}")
        if k > 0 and not rec["witnesses"]:
            problems.append(f"max piece {k} without a witness")
        for text, a, b in rec["witnesses"]:
            w = Word.from_text(text)
            occ_a, occ_b = Occurrence(*a), Occurrence(*b)
            if len(w) != k or occ_a == occ_b or not (reads_at(p, occ_a, w) and reads_at(p, occ_b, w)):
                problems.append(f"witness {text} does not occur at {a} and {b}")
        if has_piece(p, k + 1):
            problems.append(f"a piece of length {k + 1} exists; max piece reported {k}")
        if rec["cprime_sixth"] != (k < Fraction(p.length, 6)):
            problems.append("C'(1/6) verdict disagrees with the max piece")
        return problems

    def gates(self, records: list[dict]) -> list[str]:
        if not any(rec["max_piece"] > 0 for rec in records):
            return ["no presentation has a piece"]
        return []


# -- ball-geometry -------------------------------------------------------------


def free_ball_size(n: int, R: int) -> int:
    return 1 + 2 * n * ((2 * n - 1) ** R - 1) // (2 * n - 2)


class BallGeometry:
    """The `ball --verify` path: build a certified ball, run all three checks."""

    name = "ball-geometry"
    item_unit = "ball"
    RANK = 3
    RADIUS = 4
    # l <= 2R identifies vertices (l = 8 also has digons); l >= 2R + 2 is a
    # free ball.  The C'(1/6) gate leaves pieces of length <= 1 at all three.
    LENGTHS = (7, 8, 10)
    LAM = Fraction(1, 6)
    min_rounds = 14
    trace_rounds = 4

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.free = free_ball_size(self.RANK, self.RADIUS)
        self.pool = [self.inputs(r) for r in range(self.min_rounds)]

    def inputs(self, r: int) -> list[tuple[int, Presentation]]:
        """First C'(1/6) presentation at or after the round's start seed, per length."""
        out = []
        for l in self.LENGTHS:
            s = self.seed * SEED_STRIDE + 1000 * r
            while True:
                p = sample_presentation(DensityParams(self.RANK, 0, l, s))
                if own_cprime(p, self.LAM):
                    break
                s += 1
            out.append((s, p))
        return out

    def tasks(self, r: int) -> list[Task]:
        out = []
        for s, p in self.pool[r] if r < len(self.pool) else self.inputs(r):

            def fn(tr, p=p):
                with tr.span("cayley.build_ball") as counts:
                    ball = build_ball(p, self.RADIUS)
                counts.update(vertices=ball.n_vertices, identified=self.free - ball.n_vertices)
                with tr.span("cayley.single_layer_scan") as counts:
                    layers = harness.geometry_scan(ball, ("single-layer", "digons"))
                counts.update(pairs=layers.pairs_checked, digons=layers.digon_count)
                with tr.span("cayley.minimizer_scan") as counts:
                    mins = harness.geometry_scan(ball, ("minimizers",))
                counts["triples"] = mins.triples_checked
                layers.merge(mins)
                return ball.n_vertices, layers

            out.append(Task(r, f"l={p.length}", 1, fn, (r, s, p.length)))
        return out

    def record(self, task: Task, raw) -> dict:
        vertices, rep = raw
        return {
            "key": task.key,
            "vertices": vertices,
            "pairs": rep.pairs_checked,
            "triples": rep.triples_checked,
            "digons": rep.digon_count,
            "violations": rep.violations,
        }

    def check(self, rec: dict) -> list[str]:
        problems = [f"violation: {v}" for v in rec["violations"]]
        if rec["pairs"] != rec["vertices"] - 1:
            problems.append(f"{rec['pairs']} pairs checked in a ball of {rec['vertices']} vertices")
        return problems

    def gates(self, records: list[dict]) -> list[str]:
        bad = []
        for rec in records:
            l, V = rec["key"][2], rec["vertices"]
            if l <= 2 * self.RADIUS and V >= self.free:
                bad.append(f"l={l} ball {rec['key']} identifies no vertex")
            if l > 2 * self.RADIUS and V != self.free:
                bad.append(f"l={l} ball {rec['key']} is not free ({V} vertices)")
            if l % 2 == 0 and l <= 2 * self.RADIUS and rec["digons"] < 1:
                bad.append(f"l={l} ball {rec['key']} has no digon")
        if not self.negative_control():
            bad.append("forged digon not flagged")
        return bad

    def negative_control(self) -> bool:
        """Criterion 05's control: a corrupted digon must be flagged."""
        s, p = next((s, p) for s, p in self.pool[0] if p.length % 2 == 0)
        ball = build_ball(p, self.RADIUS)
        goal = ball.vertex_of_word(Word(p.relators[0][: p.length // 2]))
        paths = all_geodesics(ball, 0, goal)
        if len(paths) < 2:
            return False
        digons, _ = decompose_digons(ball, paths[0], paths[1])
        good = digons[0]
        bad_up = list(good.up)
        bad_up[1] = (bad_up[1] + 1) % ball.n_vertices
        bad = verify_digon(ball, good.low, bad_up)
        uniq = digon_side_uniqueness(ball, [good, Digon(list(good.low), bad_up, [], [])])
        return len(bad.violations) + len(uniq.violations) >= 1


# -- word-problem --------------------------------------------------------------


class WordProblem:
    """Dehn's algorithm, van Kampen diagrams and bounded refutation on two
    fixed C'(1/6) presentations; the words vary with the seed."""

    name = "word-problem"
    item_unit = "query"
    LENGTHS = (16, 24)
    CONJUGATES = (20, 80, 320)
    # Trivial words per (l, K), 1 where not listed.  A round sorts into 8
    # cheaper queries, the l = 16, K = 80 words, then 8 dearer ones, so the
    # median is the middle of that group; four per round give it enough
    # samples to be steady.  Controls are made from the first word only.
    COPIES = {(16, 80): 4}
    SENTENCES = (
        ("commutator", "x y ~x ~y = 1", 4, (16, 24)),
        ("braid", "x y x ~y ~x ~y = 1 -> x ~y = 1", 4, (16, 24)),
        ("torsion", "x x = 1 -> x = 1", 8, (16,)),
    )
    min_rounds = 3
    trace_rounds = 2

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.pres = {l: self.fixed_presentation(l) for l in self.LENGTHS}
        self.clauses = {name: to_clausal(parse_sentence(text)) for name, text, _, _ in self.SENTENCES}
        self.pool = [self.words(r) for r in range(self.min_rounds)]

    @staticmethod
    def fixed_presentation(l: int) -> Presentation:
        """First C'(1/6) rank-2 presentation from seed 0 whose relator is no proper power."""
        s = 0
        while True:
            p = sample_presentation(DensityParams(2, 0, l, s))
            if own_cprime(p, Fraction(1, 6)) and not is_proper_power(p.relators[0]):
                return p
            s += 1

    def words(self, r: int) -> dict[tuple[int, int, int], Word]:
        """Per (l, K, copy): a product of K random conjugates of relators^(+-1)."""
        rng = np.random.default_rng([self.seed, r])
        out = {}
        for l, p in self.pres.items():
            for K, i in ((K, i) for K in self.CONJUGATES for i in range(self.COPIES.get((l, K), 1))):
                letters: list[int] = []
                for _ in range(K):
                    u: list[int] = []
                    for _ in range(int(rng.integers(0, l // 2 + 1))):
                        while True:
                            g = int(rng.integers(1, p.rank + 1)) * (1 if rng.integers(2) else -1)
                            if not u or u[-1] != -g:
                                break
                        u.append(g)
                    rel = p.relators[int(rng.integers(p.n_relators))]
                    if rng.integers(2):
                        rel = invert(rel)
                    letters.extend(u)
                    letters.extend(rel)
                    letters.extend(-x for x in reversed(u))
                out[(l, K, i)] = free_reduce(Word(letters))
        return out

    def tasks(self, r: int) -> list[Task]:
        words = self.pool[r] if r < len(self.pool) else self.words(r)
        out = []
        for (l, K, i), w in words.items():
            p = self.pres[l]

            def trivial(tr, w=w, p=p):
                with tr.span("cancellation.dehn_reduce", letters=len(w)) as counts:
                    final, steps = dehn_reduce(w, p)
                counts["steps"] = len(steps)
                with tr.span("diagrams.diagram_from_dehn_trace") as counts:
                    D = diagram_from_dehn_trace(w, p)
                counts["faces"] = D.n_faces
                with tr.span("diagrams.verify_diagram"):
                    rep = verify_diagram(D, p)
                return len(final), len(steps), D, rep, w

            control = free_reduce(w.concat(Word((1,))))

            def nontrivial(tr, w=control, p=p):
                with tr.span("cancellation.dehn_reduce", letters=len(w)) as counts:
                    final, steps = dehn_reduce(w, p)
                counts["steps"] = len(steps)
                return len(final), len(steps)

            out.append(Task(r, f"trivial l={l} K={K}", 1, trivial, (r, "trivial", l, K, i)))
            if i == 0:
                out.append(Task(r, f"control l={l} K={K}", 1, nontrivial, (r, "control", l, K)))
        for name, _, L, lengths in self.SENTENCES:
            for l in lengths:

                def refute(tr, clauses=self.clauses[name], p=self.pres[l], L=L):
                    with tr.span("sentences.refute_on_ball_group") as counts:
                        witness = None
                        for c in clauses:
                            witness = refute_on_ball_group(c, p, L)
                            if witness is not None:
                                break
                    counts["refuted"] = int(witness is not None)
                    return witness

                out.append(Task(r, f"{name} l={l} L={L}", 1, refute, (r, name, l, L)))
        return out

    def record(self, task: Task, raw) -> dict:
        kind = task.key[1]
        rec = {"key": task.key}
        if kind == "trivial":
            final, steps, D, rep, w = raw
            rec.update(final=final, steps=steps, faces=D.n_faces, verified=rep.ok,
                       boundary_ok=boundary_word(D) == w)
        elif kind == "control":
            rec.update(final=raw[0], steps=raw[1])
        else:
            rec["witness"] = None if raw is None else {v: w.text() for v, w in sorted(raw.items())}
        return rec

    def check(self, rec: dict) -> list[str]:
        kind = rec["key"][1]
        if kind == "trivial":
            if rec["final"] != 0 or not rec["verified"] or not rec["boundary_ok"]:
                return [f"trivial word {rec['key']}: final length {rec['final']}, "
                        f"diagram verified {rec['verified']}, boundary ok {rec['boundary_ok']}"]
        elif kind == "control":
            if rec["final"] == 0:
                return [f"control {rec['key']} reduced to the identity"]
        elif kind == "commutator" and rec["witness"] is None:
            return [f"commutator not refuted {rec['key']}"]
        elif kind == "torsion" and rec["witness"] is not None:
            return [f"torsion clause refuted {rec['key']}: {rec['witness']}"]
        return []

    def gates(self, records: list[dict]) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (CprimeTrend, DensePieces, BallGeometry, WordProblem)}
