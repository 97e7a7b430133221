"""Monte Carlo experiments over sampled presentations, with reproducible
per-trial randomness and deterministic output.

Per-trial streams derive from SeedSequence(master seed, spawn_key=(cell
index, trial index)), so serial and parallel runs agree byte for byte;
results are aggregated in (cell, trial) order regardless of worker
count.  Wall-clock time is recorded only on request (record_time), since
a timed column would break byte-identical reruns.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from fractions import Fraction

import numpy as np

from .sampler import DensityParams, sample_presentation, stream
from .cancellation import satisfies_cprime, first_moment_piece_bound
from .sentences import parse_sentence, refute_sentence, BudgetExceeded
from .cayley import build_ball, single_layer, digon_side_uniqueness, BallBudgetExceeded

CSV_HEADER = "ell,n,d,trials,success,fraction,oracle,seed,ms"


@dataclass
class Budget:
    ball_vertices: int = 200_000
    tuples: int = 2_000_000
    ms_per_trial: int = 0  # 0 disables; enabling breaks byte determinism


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
    checks: tuple[str, ...] = ("single-layer", "digons", "minimizers")
    budget: Budget = field(default_factory=Budget)
    workers: int = 1
    record_time: bool = False

    def __post_init__(self):
        self.density = Fraction(self.density)
        self.lam = Fraction(self.lam)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.length_list:
            raise ValueError("length grid must be nonempty")


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


def _run_trials(cfg: ExperimentConfig, cell: int, fn):
    """Run fn(trial index) -> outcome over all trials, any worker count,
    returning outcomes in trial order.

    A positive ms_per_trial budget downgrades over-budget trials to
    recorded skips after the fact (never a silent pass); such runs are
    not byte-deterministic, which is why the default disables it.
    """
    if cfg.budget.ms_per_trial > 0:
        inner = fn

        def fn(t: int) -> str:
            t0 = time.monotonic()
            outcome = inner(t)
            if (time.monotonic() - t0) * 1000 > cfg.budget.ms_per_trial:
                return "skip"
            return outcome

    indices = list(range(cfg.trials))
    if cfg.workers <= 1:
        return [fn(t) for t in indices]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(fn, indices))


def _aggregate(cfg, cell, length, outcomes, oracle) -> ResultRow:
    success = sum(1 for o in outcomes if o == "success")
    skips = sum(1 for o in outcomes if o == "skip")
    failures = sum(1 for o in outcomes if o == "failure")
    return ResultRow(
        ell=length,
        n=cfg.rank,
        d=cfg.density,
        trials=cfg.trials,
        success=success,
        fraction=success / cfg.trials,
        oracle=oracle,
        seed=cfg.seed,
        ms=0,
        skips=skips,
        failures=failures,
    )


def run_cprime_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Fraction of sampled presentations satisfying C'(lambda), per cell,
    with the first-moment bound as the oracle column."""
    rows = []
    for cell, length in enumerate(cfg.length_list):
        t0 = time.monotonic()

        def one(t: int) -> str:
            params = DensityParams(cfg.rank, cfg.density, length, cfg.seed)
            p = sample_presentation(params, stream(cfg.seed, cell, t))
            return "success" if satisfies_cprime(p, cfg.lam) else "failure"

        outcomes = _run_trials(cfg, cell, one)
        oracle = first_moment_piece_bound(cfg.rank, cfg.density, length, cfg.lam)
        row = _aggregate(cfg, cell, length, outcomes, oracle)
        if cfg.record_time:
            row.ms = int((time.monotonic() - t0) * 1000)
        rows.append(row)
    return rows


def _load_sentence(cfg: ExperimentConfig):
    if cfg.sentence_text is not None:
        return parse_sentence(cfg.sentence_text)
    if cfg.sentence_file is not None:
        with open(cfg.sentence_file) as f:
            return parse_sentence(f.read())
    raise ValueError("sentence experiment needs sentence_text or sentence_file")


def run_sentence_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Per cell: fraction of sampled C'(1/6) groups whose ball-refutation
    verdict matches the free group's verdict for the same sentence.

    Trials failing C'(1/6) are skipped and counted; refutation budget
    exhaustion is a recorded failure, never fatal.
    """
    sentence = _load_sentence(cfg)
    free_refuted = refute_sentence(sentence, cfg.ball, None, cfg.rank, cfg.budget.tuples) is not None
    rows = []
    for cell, length in enumerate(cfg.length_list):
        t0 = time.monotonic()

        def one(t: int) -> str:
            params = DensityParams(cfg.rank, cfg.density, length, cfg.seed)
            p = sample_presentation(params, stream(cfg.seed, cell, t))
            if not satisfies_cprime(p, Fraction(1, 6)):
                return "skip"
            try:
                hit = refute_sentence(sentence, cfg.ball, p, budget=cfg.budget.tuples)
            except BudgetExceeded:
                return "failure"
            return "success" if (hit is not None) == free_refuted else "failure"

        outcomes = _run_trials(cfg, cell, one)
        row = _aggregate(cfg, cell, length, outcomes, None)
        if cfg.record_time:
            row.ms = int((time.monotonic() - t0) * 1000)
        rows.append(row)
    return rows


@dataclass
class GeometryReport:
    pairs_checked: int = 0
    triples_checked: int = 0
    digon_count: int = 0
    max_divisor_len: int = 0
    violations: list[str] = field(default_factory=list)

    def merge(self, other: "GeometryReport"):
        self.pairs_checked += other.pairs_checked
        self.triples_checked += other.triples_checked
        self.digon_count += other.digon_count
        self.max_divisor_len = max(self.max_divisor_len, other.max_divisor_len)
        self.violations.extend(other.violations)


def geometry_scan(ball, checks=("single-layer", "digons", "minimizers"),
                  minimizer_sources: int | None = None) -> GeometryReport:
    """Exhaustive verification over the ball, one pair class per vertex.

    Pairs (u, v) translate to (1, u^-1 v), so scanning every reliable
    pair (identity, w) is exhaustive up to translation; likewise triples
    for the minimizer check.
    """
    rep = GeometryReport()
    R = ball.radius
    digons = []
    want_layers = "single-layer" in checks or "digons" in checks
    if want_layers:
        for v in range(1, ball.n_vertices):
            d = int(ball.dist[v])
            if 2 * d > 2 * R:
                continue
            rep.pairs_checked += 1
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
        checked, bad = _minimizer_scan(ball, minimizer_sources)
        rep.triples_checked += checked
        rep.violations.extend(bad)
    return rep


def _minimizer_scan(ball, max_sources: int | None = None):
    """Count argmin points of d(., c) over every based geodesic, for every
    c, skipping triples with an unreliable pair.  Exhaustive up to
    translation when max_sources is None."""
    V = ball.n_vertices
    R = ball.radius
    d1 = ball.dist.astype(np.int64)
    # base geodesic of (0, w) = the canonical word path, for reliable w
    base_flat = []
    offsets = []
    targets = []
    for w in range(1, V):
        if 2 * int(d1[w]) > 2 * R:
            continue
        path = [0]
        v = 0
        for g in ball.words[w]:
            v = ball.neighbor(v, g)
            path.append(v)
        offsets.append(len(base_flat))
        base_flat.extend(path)
        targets.append(w)
    if not targets:
        return 0, []
    base_flat = np.array(base_flat, dtype=np.int64)
    offsets = np.array(offsets, dtype=np.int64)
    sizes = np.diff(np.append(offsets, len(base_flat)))

    violations = []
    checked = 0
    sources = range(V) if max_sources is None else range(min(V, max_sources))
    for c in sources:
        dist_c = ball.bfs_from(c).astype(np.int64)
        vals = dist_c[base_flat]
        reliable = (vals >= 0) & (d1[base_flat] + int(d1[c]) + vals <= 2 * R)
        all_ok = np.logical_and.reduceat(reliable, offsets)
        safe_vals = np.where(reliable, vals, np.iinfo(np.int64).max)
        mins = np.minimum.reduceat(safe_vals, offsets)
        is_min = safe_vals == np.repeat(mins, sizes)
        counts = np.add.reduceat(is_min, offsets)
        mask = all_ok
        checked += int(mask.sum())
        bad = np.nonzero(mask & (counts > 2))[0]
        for i in bad:
            violations.append(
                f"base (0,{targets[i]}), point {c}: {int(counts[i])} minimizers"
            )
    return checked, violations


def run_geometry_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Per cell: trials whose C'(1/8)-verified ball passes every requested
    geometric check; non-C'(1/8) samples and budget blowups are skips."""
    rows = []
    for cell, length in enumerate(cfg.length_list):
        t0 = time.monotonic()

        def one(t: int) -> str:
            params = DensityParams(cfg.rank, cfg.density, length, cfg.seed)
            p = sample_presentation(params, stream(cfg.seed, cell, t))
            if not satisfies_cprime(p, Fraction(1, 8)):
                return "skip"
            try:
                ball = build_ball(p, cfg.ball, max_vertices=cfg.budget.ball_vertices)
            except BallBudgetExceeded:
                return "skip"
            rep = geometry_scan(ball, cfg.checks)
            return "success" if not rep.violations else "failure"

        outcomes = _run_trials(cfg, cell, one)
        row = _aggregate(cfg, cell, length, outcomes, None)
        if cfg.record_time:
            row.ms = int((time.monotonic() - t0) * 1000)
        rows.append(row)
    return rows


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    runner = {
        "cprime": run_cprime_experiment,
        "sentence": run_sentence_experiment,
        "geometry": run_geometry_experiment,
    }.get(cfg.kind)
    if runner is None:
        raise ValueError(f"unknown experiment kind {cfg.kind!r}")
    return runner(cfg)


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


_CONFIG_KEYS = {
    "model.rank": ("rank", int),
    "model.density": ("density", Fraction),
    "model.length_list": ("length_list", lambda s: tuple(int(x) for x in s.split(","))),
    "model.seed": ("seed", int),
    "experiment.kind": ("kind", str),
    "experiment.trials": ("trials", int),
    "experiment.lambda": ("lam", Fraction),
    "experiment.sentence_file": ("sentence_file", str),
    "experiment.sentence": ("sentence_text", str),
    "experiment.ball": ("ball", int),
    "experiment.checks": ("checks", lambda s: tuple(x.strip() for x in s.split(","))),
    "experiment.workers": ("workers", int),
    "experiment.record_time": ("record_time", lambda s: s.lower() in ("1", "true", "yes")),
}

_BUDGET_KEYS = {
    "budget.ball_vertices": ("ball_vertices", int),
    "budget.tuples": ("tuples", int),
    "budget.ms_per_trial": ("ms_per_trial", int),
}


def parse_config(text: str) -> ExperimentConfig:
    """key = value lines; # starts a comment."""
    fields = {}
    budget = Budget()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in _CONFIG_KEYS:
            name, conv = _CONFIG_KEYS[key]
            fields[name] = conv(val)
        elif key in _BUDGET_KEYS:
            name, conv = _BUDGET_KEYS[key]
            setattr(budget, name, conv(val))
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    if "kind" not in fields:
        raise ValueError("config must set experiment.kind")
    return ExperimentConfig(budget=budget, **fields)


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return parse_config(f.read())
