"""Monte Carlo experiments over sampled presentations, with reproducible
per-trial randomness and deterministic output.

run_experiment is the one driver: a serial loop over (cell, trial) in
which trial t of cell i samples from SeedSequence(master seed,
spawn_key=(i, t)), so a run's output depends on its config alone.
Wall-clock time is recorded only on request (record_time), since a timed
column would break byte-identical reruns.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict
from fractions import Fraction

from .words import Presentation, content_lines
from .sampler import DensityParams, sample_presentation, stream
from .cancellation import satisfies_cprime, first_moment_piece_bound
from .sentences import parse_sentence, refute_sentence, BudgetExceeded
from .cayley import (
    GEOMETRY_CHECKS,
    BallBudgetExceeded,
    build_ball,
    geometry_scan,
    require_known_checks,
)

CSV_HEADER = "ell,n,d,trials,success,fraction,oracle,seed,ms"

EXPERIMENT_KINDS = ("cprime", "sentence", "geometry")


@dataclass
class Budget:
    ball_vertices: int = 200_000
    tuples: int = 2_000_000


@dataclass
class ExperimentConfig:
    kind: str                       # cprime | sentence | geometry
    rank: int = 2
    density: Fraction = Fraction(0)
    length_list: tuple[int, ...] = (16,)
    seed: int = 0
    trials: int = 10
    lam: Fraction = Fraction(1, 8)
    sentence_file: str | None = None
    sentence_text: str | None = None
    ball: int = 3                   # tuple length L (sentence) or radius R (geometry)
    checks: tuple[str, ...] = GEOMETRY_CHECKS
    budget: Budget = field(default_factory=Budget)
    record_time: bool = False

    def __post_init__(self):
        self.density = Fraction(self.density)
        self.lam = Fraction(self.lam)
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(
                f"experiment.kind: bad value {self.kind!r} (known: {', '.join(EXPERIMENT_KINDS)})"
            )
        if self.rank < 2:
            raise ValueError(f"model.rank: bad value {self.rank} (rank must be >= 2)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.length_list:
            raise ValueError("length grid must be nonempty")
        # a geometry ball needs an edge; a sentence ball may be the identity
        least = {"geometry": 1, "sentence": 0}.get(self.kind)
        if least is not None and self.ball < least:
            raise ValueError(f"experiment.ball: bad value {self.ball} ({self.kind} needs ball >= {least})")
        require_known_checks(self.checks)


@dataclass
class ResultRow:
    ell: int
    n: int
    d: Fraction
    trials: int
    success: int
    fraction: float
    oracle: float | None
    seed: int
    ms: int
    skips: int = 0
    failures: int = 0

    def csv_line(self) -> str:
        oracle = "" if self.oracle is None else repr(self.oracle)
        return (
            f"{self.ell},{self.n},{float(self.d)!r},{self.trials},{self.success},"
            f"{self.fraction!r},{oracle},{self.seed},{self.ms}"
        )


def _load_sentence(cfg: ExperimentConfig):
    if cfg.sentence_text is not None:
        return parse_sentence(cfg.sentence_text)
    if cfg.sentence_file is not None:
        with open(cfg.sentence_file) as f:
            return parse_sentence(f.read())
    raise ValueError("sentence experiment needs sentence_text or sentence_file")


def _trial(cfg: ExperimentConfig):
    """The per-kind trial: a sampled presentation -> "success" | "skip" | "failure".

    cprime: success iff the sample is C'(lambda).
    sentence: samples failing C'(1/6) are skips; the rest succeed when
    their ball-refutation verdict matches the free group's, and
    refutation budget exhaustion is a failure.
    geometry: samples failing C'(1/8) and balls over the vertex budget
    are skips; the rest succeed when the ball passes every requested check.
    """
    if cfg.kind == "cprime":
        return lambda p: "success" if satisfies_cprime(p, cfg.lam) else "failure"
    if cfg.kind == "sentence":
        sentence = _load_sentence(cfg)
        free_refuted = refute_sentence(sentence, Presentation(cfg.rank), cfg.ball, cfg.budget.tuples) is not None

        def sentence_trial(p) -> str:
            if not satisfies_cprime(p, Fraction(1, 6)):
                return "skip"
            try:
                hit = refute_sentence(sentence, p, cfg.ball, cfg.budget.tuples)
            except BudgetExceeded:
                return "failure"
            return "success" if (hit is not None) == free_refuted else "failure"

        return sentence_trial
    if cfg.kind == "geometry":

        def geometry_trial(p) -> str:
            if not satisfies_cprime(p, Fraction(1, 8)):
                return "skip"
            try:
                ball = build_ball(p, cfg.ball, max_vertices=cfg.budget.ball_vertices)
            except BallBudgetExceeded:
                return "skip"
            return "failure" if geometry_scan(ball, cfg.checks).violations else "success"

        return geometry_trial
    raise ValueError(f"unknown experiment kind {cfg.kind!r}")


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """One row per relator length: trial outcomes over cfg.trials samples,
    with the first-moment bound as the oracle column of cprime runs."""
    trial = _trial(cfg)
    rows = []
    for cell, length in enumerate(cfg.length_list):
        t0 = time.monotonic()
        params = DensityParams(cfg.rank, cfg.density, length, cfg.seed)
        outcomes = [
            trial(sample_presentation(params, stream(cfg.seed, cell, t)))
            for t in range(cfg.trials)
        ]
        success = outcomes.count("success")
        rows.append(ResultRow(
            ell=length,
            n=cfg.rank,
            d=cfg.density,
            trials=cfg.trials,
            success=success,
            fraction=success / cfg.trials,
            oracle=(first_moment_piece_bound(cfg.rank, cfg.density, length, cfg.lam)
                    if cfg.kind == "cprime" else None),
            seed=cfg.seed,
            ms=int((time.monotonic() - t0) * 1000) if cfg.record_time else 0,
            skips=outcomes.count("skip"),
            failures=outcomes.count("failure"),
        ))
    return rows


# ---------------------------------------------------------------------------
# Serialization.


def emit(table: list[ResultRow], fmt: str, path) -> None:
    """Write the result table as csv (fixed columns) or lossless json."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        lines.extend(row.csv_line() for row in table)
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        records = []
        for row in table:
            rec = asdict(row)
            rec["d"] = str(row.d)
            records.append(rec)
        text = json.dumps(records, indent=1) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as f:
        f.write(text)


def read_json_table(path) -> list[ResultRow]:
    with open(path) as f:
        records = json.load(f)
    rows = []
    for rec in records:
        rec["d"] = Fraction(rec["d"])
        rows.append(ResultRow(**rec))
    return rows


# ---------------------------------------------------------------------------
# Key-value experiment configs.


def _int_list(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(","))


def _check_list(s: str) -> tuple[str, ...]:
    checks = tuple(x.strip() for x in s.split(","))
    require_known_checks(checks)
    return checks


_CONFIG_KEYS = {
    "model.rank": ("rank", int),
    "model.density": ("density", Fraction),
    "model.length_list": ("length_list", _int_list),
    "model.seed": ("seed", int),
    "experiment.kind": ("kind", str),
    "experiment.trials": ("trials", int),
    "experiment.lambda": ("lam", Fraction),
    "experiment.sentence_file": ("sentence_file", str),
    "experiment.sentence": ("sentence_text", str),
    "experiment.ball": ("ball", int),
    "experiment.checks": ("checks", _check_list),
    "experiment.record_time": ("record_time", lambda s: s.lower() in ("1", "true", "yes")),
}

_BUDGET_KEYS = {
    "budget.ball_vertices": ("ball_vertices", int),
    "budget.tuples": ("tuples", int),
}

# the fault named when a converter raises ValueError; _check_list names its own
_NOT_A = {
    int: "not an integer",
    Fraction: "not a fraction",
    _int_list: "not a comma-separated list of integers",
}


def _convert(conv, key: str, val: str, lineno: int):
    try:
        return conv(val)
    except ZeroDivisionError:  # Fraction("1/0")
        fault = "zero denominator"
    except ValueError as e:
        fault = _NOT_A.get(conv, str(e))
    raise ValueError(f"line {lineno}: {key}: bad value {val!r} ({fault})")


def parse_config(text: str) -> ExperimentConfig:
    """key = value lines; # starts a comment."""
    fields = {}
    budget = Budget()
    for lineno, line in content_lines(text):
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in _CONFIG_KEYS:
            name, conv = _CONFIG_KEYS[key]
            fields[name] = _convert(conv, key, val, lineno)
        elif key in _BUDGET_KEYS:
            name, conv = _BUDGET_KEYS[key]
            setattr(budget, name, _convert(conv, key, val, lineno))
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    if "kind" not in fields:
        raise ValueError("config must set experiment.kind")
    return ExperimentConfig(budget=budget, **fields)


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return parse_config(f.read())
