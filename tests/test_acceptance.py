"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at pinned seeds; searches for verified
presentations scan deterministic seed ranges.  Where a criterion's
nominal parameters lie outside the regime its claim covers (07b, 10a),
the test derives that regime in closed form, asserts the nominal
parameters' place relative to it, and checks the claim inside it.
"""

import dataclasses
import hashlib
import math
import time
from collections import deque
from fractions import Fraction

import pytest

from randgroups.words import (
    Word,
    TemplateWord,
    Presentation,
    free_reduce,
    invert,
    rotate,
    substitute,
)
from randgroups.sampler import (
    DensityParams,
    sample_presentation,
    sample_reduced_word,
    relator_count,
    stream,
)
from randgroups.cancellation import (
    symmetrize,
    max_piece_length,
    satisfies_cprime,
    is_trivial,
    first_moment_piece_bound,
)
from randgroups.cayley import build_ball, verify_digon, Digon, digon_side_uniqueness, geometry_scan
from randgroups.sentences import (
    parse_sentence,
    to_clausal,
    refute_on_ball_group,
    triangularize,
    extend_solution,
    max_occurrences,
)
from randgroups.diagrams import (
    BoundsParams,
    face_bound,
    stirling,
    planar_graph_bound,
    advk_count_bound,
    advk_total_bound,
    diagram_from_dehn_trace,
    verify_diagram,
    boundary_word,
    is_reduced,
    isoperimetric_check,
    VanKampenDiagram,
)
from randgroups.unification import (
    build_layout,
    unify_positions,
    UnificationConflict,
    boundary_decoration,
    prune_singletons,
    relator_decoration,
    RelatorDecoration,
    Decoration,
    PreDecoration,
    AllRemoved,
    free_letter_bound,
    fulfill_probability_bound,
    Segment,
    Double,
    IntervalLayout,
)
from randgroups.harness import ExperimentConfig, run_experiment, emit

from oracles import (
    max_piece_oracle,
    set_partition_count,
    transitive_closure_unify,
    enumerate_reduced_words,
    eval_clause_group,
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {criterion}: {status}  {detail}")
    return ok


# -- 1. piece detection exactness --------------------------------------------


def test_criterion_01_piece_exactness():
    t0 = time.monotonic()
    rng = stream(101)
    mismatches = 0
    for _ in range(200):
        length = int(rng.integers(4, 13))
        n_rel = int(rng.integers(1, 6))
        relators = []
        while len(relators) < n_rel:
            w = sample_reduced_word(2, length, rng)
            if length < 2 or w[0] != -w[-1]:
                relators.append(w)
        p = Presentation(2, relators, length)
        if max_piece_length(p).max_piece_length != max_piece_oracle(p):
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 60
    assert report(1, ok, f"200 presentations, {mismatches} mismatches, {elapsed:.1f}s")


# -- 2. Dehn completeness vs BFS rewriting oracle ------------------------------


def saturate_trivial_set(p, cap):
    """All trivial reduced words of length <= cap, by insert-move closure
    from the empty word.  Complete for that range on C'(1/6) input: every
    trivial word Dehn-shrinks through reduced words no longer than itself,
    and each step is an insert-relator move."""
    elements = symmetrize(p).elements
    seen = {Word()}
    queue = deque([Word()])
    while queue:
        cur = queue.popleft()
        for i in range(len(cur) + 1):
            left, right = Word(cur[:i]), Word(cur[i:])
            for el in elements:
                nw = free_reduce(left.concat(el).concat(right))
                if len(nw) <= cap and nw not in seen:
                    seen.add(nw)
                    queue.append(nw)
    return seen


@pytest.fixture(scope="module")
def sixth_presentations():
    """50 C'(1/6)-verified one-relator presentations, rank 3, l in [8,12].

    Rank 2 admits none in this range: a length-l relator has l cyclic
    two-letter windows but rank 2 offers only 6 bigram inverse-classes,
    so some bigram repeats and the piece bound l/6 < 2 fails.
    """
    out = []
    lengths = [8, 9, 10, 11, 12]
    seed = 0
    while len(out) < 50:
        length = lengths[len(out) % len(lengths)]
        while True:
            p = sample_presentation(DensityParams(3, Fraction(0), length, seed))
            seed += 1
            if satisfies_cprime(p, Fraction(1, 6)):
                out.append(p)
                break
    return out


def test_criterion_02_dehn_vs_bfs_oracle(sixth_presentations):
    t0 = time.monotonic()
    words6 = enumerate_reduced_words(3, 6)
    disagreements = 0
    teeth = 0
    for p in sixth_presentations:
        cap = p.length + 4
        trivial_set = saturate_trivial_set(p, cap)
        for w in words6:
            if is_trivial(w, p) != (w in trivial_set):
                disagreements += 1
        # the oracle's trivial set must be certified trivial by Dehn too
        for w in trivial_set:
            if not is_trivial(w, p):
                disagreements += 1
            teeth += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 300
    assert report(
        2,
        ok,
        f"50 presentations x {len(words6)} words (cap l+4 within the 3l reach), "
        f"{teeth} trivial words cross-certified, {disagreements} disagreements, {elapsed:.1f}s",
    )


# -- 3. sampler uniformity ------------------------------------------------------


def test_criterion_03_sampler_uniformity():
    from scipy.stats import chisquare

    rng = stream(303)
    counts = {}
    draws = 100_000
    for _ in range(draws):
        w = sample_reduced_word(2, 3, rng)
        counts[w] = counts.get(w, 0) + 1
    assert len(counts) == 36
    stat, pvalue = chisquare(list(counts.values()))
    exact_cases = 0
    for n, num, den, l in [
        (2, 1, 2, 4), (2, 1, 2, 6), (2, 1, 4, 8), (2, 1, 8, 16), (2, 1, 16, 64),
        (2, 0, 1, 10), (2, 1, 1, 3), (2, 3, 4, 8), (2, 1, 3, 9), (2, 2, 3, 9),
        (3, 1, 2, 4), (3, 1, 5, 10), (3, 2, 5, 10), (3, 1, 3, 6), (3, 1, 1, 2),
        (4, 1, 2, 6), (4, 1, 7, 14), (5, 1, 3, 6), (5, 1, 1, 4), (6, 1, 4, 8),
    ]:
        d = Fraction(num, den)
        expected = (2 * n - 1) ** int(d * l)
        if relator_count(DensityParams(n, d, l, 0)) == max(1, expected):
            exact_cases += 1
    ok = pvalue > 1e-3 and exact_cases == 20
    assert report(3, ok, f"chi-square p={pvalue:.4f}, {exact_cases}/20 exact count cases")


# -- 4. C'(1/8) trend -----------------------------------------------------------


# sha256 of the criterion's CSV as first recorded (15/500, 484/500 and
# 500/500 successes): strictly between 0 and 1 at l = 40 and 80, so a
# sampler that ignored the seed or the trial would change it.
CRITERION_04_SHA256 = "dd28658859522f6f2e209dd77b866082feb2239c3457775ee5394c3f9e78ec30"


def test_criterion_04_cprime_trend(tmp_path):
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        kind="cprime", rank=2, density=Fraction(0), length_list=(40, 80, 160),
        seed=2026, trials=500, lam=Fraction(1, 8),
    )
    rows = run_experiment(cfg)
    emit(rows, "csv", tmp_path / "rows.csv")
    digest = hashlib.sha256((tmp_path / "rows.csv").read_bytes()).hexdigest()
    bound_ok = True
    for r in rows:
        failure = 1 - r.fraction
        sigma = math.sqrt(max(failure * (1 - failure), 1e-12) / r.trials)
        if failure > r.oracle + 3 * sigma:
            bound_ok = False
    trend_ok = rows[2].fraction > rows[0].fraction or (
        rows[0].fraction > 0.99 and rows[2].fraction > 0.99
    )
    elapsed = time.monotonic() - t0
    pinned = digest == CRITERION_04_SHA256
    ok = bound_ok and trend_ok and pinned and elapsed < 600
    fr = ", ".join(f"l={r.ell}:{r.fraction:.3f}" for r in rows)
    assert report(4, ok, f"success fractions {fr}; bound ok={bound_ok}; "
                         f"sha256 {digest[:12]} pinned: {pinned}; {elapsed:.1f}s")


# -- 5. geometry suite ----------------------------------------------------------


def find_verified(n, d, lengths, lam, count, start_seed=0):
    out = []
    seed = start_seed
    i = 0
    while len(out) < count:
        length = lengths[i % len(lengths)]
        i += 1
        for _ in range(100_000):
            p = sample_presentation(DensityParams(n, Fraction(d), length, seed))
            seed += 1
            if satisfies_cprime(p, lam):
                out.append(p)
                break
    return out


def test_criterion_05_geometry_suite():
    t0 = time.monotonic()
    ones = find_verified(3, 0, [10, 9, 11, 12], Fraction(1, 8), 14)
    twos = find_verified(4, Fraction(1, 25), [9], Fraction(1, 8), 6, start_seed=500)
    assert all(p.n_relators == 1 for p in ones)
    assert all(p.n_relators == 2 for p in twos)
    total_pairs = total_triples = total_digons = 0
    violations = []
    for p in ones + twos:
        radius = 5 if p.rank == 3 else 4
        ball = build_ball(p, radius)
        rep = geometry_scan(ball, ("single-layer", "digons", "minimizers"))
        total_pairs += rep.pairs_checked
        total_triples += rep.triples_checked
        total_digons += rep.digon_count
        violations.extend(rep.violations)

    # negative control: a corrupted digon fixture must be flagged
    p = ones[0]
    ball = build_ball(p, 5)
    r = p.relators[0]
    goal = ball.vertex_of_word(Word(r[: p.length // 2])) if p.length % 2 == 0 else None
    control = 0
    if goal is not None:
        from randgroups.cayley import all_geodesics, decompose_digons

        paths = all_geodesics(ball, 0, goal)
        if len(paths) >= 2:
            digons, _ = decompose_digons(ball, paths[0], paths[1])
            good = digons[0]
            bad_up = list(good.up)
            bad_up[1] = (bad_up[1] + 1) % ball.n_vertices
            bad = verify_digon(ball, good.low, bad_up)
            forged = Digon(list(good.low), bad_up, [], [])
            uniq = digon_side_uniqueness(ball, [good, forged])
            control = len(bad.violations) + len(uniq.violations)
    elapsed = time.monotonic() - t0
    ok = not violations and total_digons >= 1 and control >= 1 and elapsed < 900
    assert report(
        5,
        ok,
        f"20 balls, {total_pairs} pairs, {total_triples} triples, "
        f"{total_digons} digons, {len(violations)} violations, "
        f"negative control flags={control}, {elapsed:.1f}s",
    )


def test_geometry_suite_past_half_relator():
    """Criterion 05's checks where relator cycles fit in the ball.

    Twelve of criterion 05's balls are free balls (l >= 2R + 1 sees no
    relation).  Here, at rank 3 under C'(1/8), l = 9 and l = 10 run at
    radius ceil(l/2) + 2 = 7.  The gate is non-vacuity: each ball must
    identify vertices (be smaller than the free ball), the even-l ball
    must hold a digon, and no check may report a violation.
    """
    t0 = time.monotonic()
    R = 7
    free = 1 + 6 * (5**R - 1) // 4
    lines = []
    for length in (9, 10):
        assert math.ceil(length / 2) + 2 == R
        (p,) = find_verified(3, 0, [length], Fraction(1, 8), 1)
        ball = build_ball(p, R)
        rep = geometry_scan(ball)
        assert ball.n_vertices < free, f"l={length}: no vertex identified"
        if length % 2 == 0:
            assert rep.digon_count >= 1, f"l={length}: no digon"
        assert not rep.violations, rep.violations[:5]
        assert rep.pairs_checked == ball.n_vertices - 1
        assert rep.triples_checked >= ball.n_vertices
        lines.append(
            f"l={length}: {free - ball.n_vertices} identified, {rep.pairs_checked} pairs, "
            f"{rep.triples_checked} triples, {rep.digon_count} digons"
        )
    print("; ".join(lines), f"{time.monotonic() - t0:.1f}s")


# -- 6. isoperimetric property ---------------------------------------------------


def test_criterion_06_isoperimetric():
    t0 = time.monotonic()
    d_param, eps = Fraction(1, 20), Fraction(1, 10)
    rng = stream(606)
    produced = 0
    holds = 0
    seed = 0
    while produced < 100:
        p = sample_presentation(DensityParams(2, Fraction(0), 80, seed))
        seed += 1
        if not satisfies_cprime(p, Fraction(1, 8)):
            continue
        r = p.relators[0]
        for _ in range(10):
            if produced >= 100:
                break
            g = sample_reduced_word(2, int(rng.integers(1, 4)), rng)
            w = free_reduce(g.concat(rotate(r, int(rng.integers(0, 80)))).concat(invert(g)))
            if int(rng.integers(0, 2)):
                h = sample_reduced_word(2, int(rng.integers(1, 3)), rng)
                w = free_reduce(
                    w.concat(h).concat(rotate(r, int(rng.integers(0, 80)))).concat(invert(h))
                )
            D = diagram_from_dehn_trace(w, p)
            if D.n_faces == 0 or not is_reduced(D):
                continue
            assert verify_diagram(D, p).ok
            produced += 1
            if isoperimetric_check(D, d_param, eps):
                holds += 1
    # synthetic violating fixture
    edges = {
        1: (0, 1, 1), 2: (1, 2, 2), 3: (2, 3, 1), 4: (3, 0, 2), 5: (0, 3, 1),
    }
    D_bad = VanKampenDiagram(4, edges, [[1, 2, 3, 4], [-3, -2, -1, 5]], [-4, -5], 0, [0, 1])
    bad_fails = not isoperimetric_check(D_bad, d_param, eps)
    elapsed = time.monotonic() - t0
    ok = produced == 100 and holds == 100 and bad_fails
    assert report(
        6, ok, f"{holds}/100 reduced diagrams satisfy the inequality; "
        f"violating fixture fails={bad_fails}; {elapsed:.1f}s"
    )


# -- 7. counting exactness -------------------------------------------------------


def test_criterion_07a_counting_exactness():
    for f in range(0, 11):
        for n in range(0, f + 1):
            assert stirling(f, n) == set_partition_count(f, n)
    p = BoundsParams(K=10, r=2, d=Fraction(1, 16), epsilon=Fraction(1, 16))
    assert face_bound(p) == 24
    assert planar_graph_bound(3) == 2**30
    p2 = BoundsParams(K=3, r=2, d=Fraction(1, 16), epsilon=Fraction(1, 16), length=9, q=2)
    # reverse-order re-summation oracle
    N = face_bound(p2)
    base = p2.K * 2**13 * p2.length**7
    rev = 0
    for f in range(N, 0, -1):
        for n in range(f, 0, -1):
            rev += base ** (f + 2 * p2.q) * stirling(f, n)
    assert advk_total_bound(p2) == rev
    # log cross-check within 1e-9 relative
    p3 = BoundsParams(K=10, length=60, f=7, q=3, n_rel=4)
    exact = advk_count_bound(p3)
    logv = (p3.f + 2 * p3.q) * (
        math.log(p3.K) + 13 * math.log(2) + 7 * math.log(p3.length)
    ) + math.log(stirling(p3.f, p3.n_rel))
    rel_err = abs(math.log(exact) - logv) / abs(logv)
    ok = rel_err < 1e-9
    assert report("7a", ok, f"stirling/face/planar/advk oracles exact; log err {rel_err:.2e}")


RATIO_PARAMS = BoundsParams(K=10, r=3, d=Fraction(1, 16), epsilon=Fraction(1, 16), q=3)


def _log10_ratio(length):
    """log10 of advk_total_bound / (2n-1)^(l(1/2-d)) at RATIO_PARAMS."""
    params = dataclasses.replace(RATIO_PARAMS, length=length)
    total = advk_total_bound(params)
    s = str(total)
    lg_total = len(s) - 1 + math.log10(int(s[:15]) / 10 ** (min(len(s), 15) - 1))
    decay = (Fraction(1, 2) - params.d) * math.log10(2 * params.rank - 1)
    return lg_total - float(length * decay)


def _ratio_turn(params):
    """l* = 7(N+2q) / ((1/2-d) ln(2n-1)), N = face_bound(params).

    advk_total_bound is a polynomial in l with positive coefficients and
    top degree 7(N+2q), so its log-derivative is at most 7(N+2q)/l and
    tends to it.  The log-ratio's derivative is that minus
    (1/2-d) ln(2n-1): the ratio turns near l* and strictly decreases
    for every l >= l*.
    """
    degree = 7 * (face_bound(params) + 2 * params.q)
    return degree / (float(Fraction(1, 2) - params.d) * math.log(2 * params.rank - 1))


def test_criterion_07b_ratio_monotone_as_stated():
    """The ratio is unimodal, not monotone, so the union bound needs it
    decreasing past its turn l* (see _ratio_turn), not on {50,100,200}.
    Asserted: (a) the stated grid lies before l*; (b) the ratio strictly
    increases on it; (c) it strictly decreases on the doubling grid
    ceil(l*)*{1,2,4,8,16} and is below 1 at the grid's last point."""
    turn = _ratio_turn(RATIO_PARAMS)
    stated = [_log10_ratio(l) for l in (50, 100, 200)]
    doubling = [math.ceil(turn) * m for m in (1, 2, 4, 8, 16)]
    past = [_log10_ratio(l) for l in doubling]
    before_turn = 200 < turn
    rising = stated[0] < stated[1] < stated[2]
    falling = all(a > b for a, b in zip(past, past[1:])) and past[-1] < 0
    ok = before_turn and rising and falling
    report(
        "7b", ok,
        f"turn l* = {turn:.1f}; log10 ratios rise on (50,100,200) = "
        f"{[round(x, 1) for x in stated]}, fall on {doubling} = {[round(x, 1) for x in past]}",
    )
    assert before_turn, f"l* = {turn:.1f} from face_bound should exceed the stated grid's 200"
    assert rising, f"log10 ratio should rise before l* on (50,100,200): {stated}"
    assert falling, f"log10 ratio should fall past l* and end below 0 on {doubling}: {past}"


def test_criterion_07b_companion_ratio_limit_demonstrated():
    ratios = [_log10_ratio(l) for l in (2000, 4000, 8000)]
    ok = ratios[0] > ratios[1] > ratios[2]
    assert report(
        "7b'", ok,
        f"log10 ratios at (2000,4000,8000) = {[round(x,1) for x in ratios]} decrease to the limit",
    )


# -- 8. unification exactness ----------------------------------------------------


def test_criterion_08_unification_exactness():
    rng = stream(808)
    mismatches = 0
    conflicts_ok = True
    systems = 0
    while systems < 100:
        n_vars = int(rng.integers(1, 6))
        names = [f"x{i+1}" for i in range(n_vars)]
        lengths = {v: int(rng.integers(1, 8)) for v in names}
        eqs = []
        for _ in range(int(rng.integers(1, 5))):
            k = int(rng.integers(1, 4))
            eqs.append(
                TemplateWord(
                    tuple(
                        (names[int(rng.integers(0, n_vars))], 1 if rng.integers(0, 2) else -1)
                        for _ in range(k)
                    )
                )
            )
        layout = build_layout(eqs, lengths)
        if layout.total == 0 or layout.total > 200:
            continue
        systems += 1
        rels = []
        for dd in layout.doubles:
            a0 = layout.segments[dd.seg_a].start + dd.off_a
            b0 = layout.segments[dd.seg_b].start + dd.off_b
            for t in range(dd.length):
                if dd.reversed_:
                    rels.append((a0 + t, b0 + dd.length - 1 - t, -1))
                else:
                    rels.append((a0 + t, b0 + t, 1))
        try:
            labels, signs = transitive_closure_unify(layout.total, rels)
            conflict = False
        except ValueError:
            conflict = True
        if conflict:
            try:
                unify_positions(layout)
                mismatches += 1
            except UnificationConflict:
                pass
            continue
        alphabet = unify_positions(layout)
        occ = alphabet.occurrence_map()
        # exact partition equality, signs up to a per-component global flip
        mine = {}
        for pos in range(layout.total):
            pi, t, s = occ[pos]
            mine[pos] = (pi, t if s > 0 else alphabet.pieces[pi].length - 1 - t, s)
        groups = {}
        for pos in range(layout.total):
            groups.setdefault(labels[pos], []).append(pos)
        for members in groups.values():
            if len({mine[m][:2] for m in members}) != 1:
                mismatches += 1  # oracle class split across my classes
            if len({mine[m][2] * signs[m] for m in members}) != 1:
                mismatches += 1  # inconsistent relative orientation
        if len(groups) != len({mine[pos][:2] for pos in range(layout.total)}):
            mismatches += 1  # my classes coarser than the oracle's

    # orientation conflict fixture: a unit glued to its own reverse
    try:
        unify_positions(
            IntervalLayout([Segment("x", 1, 1, 0)], [Double(0, 0, 0, 0, 1, True)])
        )
        conflicts_ok = False
    except UnificationConflict:
        pass

    # prune order-confluence on fixtures: the terminal status (AllRemoved
    # or not) must be the same under every removal order
    import itertools

    def prune_status_with_order(pre, ranges, order):
        intervals = list(pre.intervals)
        removed = set()

        def comp_of(start):
            for (lo, hi), cid in ranges:
                if lo <= start < hi:
                    return cid
            raise AssertionError("interval outside ranges")

        while True:
            mult = {}
            for s, L, pi, g in intervals:
                mult[pi] = mult.get(pi, 0) + 1
            singles = {p for p, m in mult.items() if m < 2}
            if not singles:
                break
            candidates = {comp_of(s) for s, L, pi, g in intervals if pi in singles}
            victim = next(c for c in order if c in candidates)
            removed.add(victim)
            intervals = [iv for iv in intervals if comp_of(iv[0]) != victim]
        all_components = {cid for _, cid in ranges}
        return all_components <= removed

    confluent = True
    fixtures_run = 0
    fixture = 0
    while fixtures_run < 30:
        fixture += 1
        frng = stream(9000 + fixture)
        names = ["x1", "x2", "x3"]
        lengths = {v: int(frng.integers(1, 4)) for v in names}
        eqs = []
        for _ in range(int(frng.integers(1, 4))):
            k = int(frng.integers(1, 4))
            eqs.append(
                TemplateWord(tuple((names[int(frng.integers(0, 3))], 1) for _ in range(k)))
            )
        layout = build_layout(eqs, lengths)
        if layout.total == 0:
            continue
        alphabet = unify_positions(layout)
        ranges = [((seg.start, seg.end), i % 2) for i, seg in enumerate(layout.segments)]
        try:
            pre = boundary_decoration(alphabet, [rg for rg, _ in ranges])
        except ValueError:
            continue
        fixtures_run += 1
        out, _ = prune_singletons(pre, ranges)
        status = isinstance(out, AllRemoved)
        if isinstance(pre, PreDecoration):
            comp_ids = sorted({cid for _, cid in ranges})
            for order in itertools.permutations(comp_ids):
                if prune_status_with_order(pre, ranges, order) != status:
                    confluent = False
    ok = mismatches == 0 and conflicts_ok and confluent
    assert report(
        8, ok,
        f"100 layouts vs closure oracle ({mismatches} mismatches); conflict fixture "
        f"raised={conflicts_ok}; prune confluent={confluent}",
    )


# -- 9. degrees-of-freedom inequality ---------------------------------------------


def test_criterion_09_degrees_of_freedom():
    rng = stream(909)
    produced = 0
    bound_ok = True
    while produced < 60:
        n_rel = int(rng.integers(1, 4))
        length = 2 * int(rng.integers(2, 7))
        # matchings tiling every relator stretch pairwise (so every piece
        # occurs at least twice), plus optional extra random gluings
        half = length // 2
        matchings = []
        stretches = [(r, o) for r in range(n_rel) for o in (0, half)]
        order = list(rng.permutation(len(stretches)))
        for i in range(0, len(stretches) - 1, 2):
            (ra, oa), (rb, ob) = stretches[order[i]], stretches[order[i + 1]]
            matchings.append(((ra, oa), (rb, ob), half, bool(rng.integers(0, 2))))
        if len(stretches) % 2:
            (ra, oa) = stretches[order[-1]]
            (rb, ob) = stretches[order[0]]
            matchings.append(((ra, oa), (rb, ob), half, bool(rng.integers(0, 2))))
        for _ in range(int(rng.integers(0, 3))):
            L = int(rng.integers(1, half + 1))
            ra, rb = int(rng.integers(0, n_rel)), int(rng.integers(0, n_rel))
            oa = int(rng.integers(0, length - L + 1))
            ob = int(rng.integers(0, length - L + 1))
            matchings.append(((ra, oa), (rb, ob), L, bool(rng.integers(0, 2))))
        try:
            out = relator_decoration(n_rel, length, [], matchings)
        except UnificationConflict:
            continue
        if isinstance(out, RelatorDecoration):
            produced += 1
            if out.degrees_of_freedom() > free_letter_bound(n_rel, length):
                bound_ok = False
    b = fulfill_probability_bound(2, 1, 16, Fraction(1, 4))
    value_ok = abs(b.full_bound - 1 / 81) < 1e-15 and b.full_exponent == Fraction(-4)
    ok = produced >= 20 and bound_ok and value_ok
    assert report(
        9, ok,
        f"{produced} relator decorations respect df <= n*l/2 ({bound_ok}); "
        f"3^-4 = 1/81 reproduced ({value_ok})",
    )


# -- 10. main-theorem dichotomy ----------------------------------------------------


SIGMA_FALSE = "x y ~x ~y = 1"
SIGMA_TRUE = "x x = 1 -> x = 1"


def _dichotomy_run(gate, length):
    """Run the dichotomy over 50 gate-verified trials at n=2, d=0, L=3 and
    relator length `length`, scanning at most 60 000 seeds."""
    clause_false = to_clausal(parse_sentence(SIGMA_FALSE))[0]
    clause_true = to_clausal(parse_sentence(SIGMA_TRUE))[0]
    refuted_false = 0
    refuted_true = 0
    found = 0
    seed = 0
    scanned = 0
    while found < 50 and scanned < 60_000:
        p = sample_presentation(DensityParams(2, Fraction(0), length, seed))
        seed += 1
        scanned += 1
        if not gate(p):
            continue
        found += 1
        if refute_on_ball_group(clause_false, p, 3) is not None:
            refuted_false += 1
        if refute_on_ball_group(clause_true, p, 3) is not None:
            refuted_true += 1
    return found, refuted_false, refuted_true


def _no_proper_power(p):
    r = p.relators[0]
    l = len(r)
    return all(rotate(r, k) != r for k in range(1, l))


def _cprime_admits(n, length, lam):
    """Pigeonhole condition for C'(lam) to be non-empty at rank n, length l.

    A piece must be shorter than lam*l, so no word of length
    k = ceil(lam*l) may occur at two of the 2l cyclic positions of r and
    r^-1.  Those 2l k-grams are reduced words (relators are cyclically
    reduced), of which there are 2n(2n-1)^(k-1): C'(lam) needs
    l <= n(2n-1)^(k-1).
    """
    k = math.ceil(Fraction(lam) * length)
    return length <= n * (2 * n - 1) ** (k - 1)


def test_criterion_10a_dichotomy_as_stated():
    """The stated C'(1/8) gate is empty at (n=2, l=16): 16 > 2*3^1.  It
    runs at the shortest l >= 16 the pigeonhole admits, l = 17
    (17 <= 2*3^2).  17 is prime, so the only proper powers are the
    single-letter powers, whose k-grams all repeat and fail the gate; every
    gated relator then gives a torsion-free one-relator group, so the
    torsion clause must never be refuted, while the commutator must be
    refuted in all 50."""
    lam = Fraction(1, 8)
    empty_at_16 = not _cprime_admits(2, 16, lam)
    length = 16
    while not _cprime_admits(2, length, lam):
        length += 1
    t0 = time.monotonic()
    found, refuted_false, refuted_true = _dichotomy_run(
        lambda p: satisfies_cprime(p, lam), length
    )
    elapsed = time.monotonic() - t0
    ok = empty_at_16 and found == 50 and refuted_false == 50 and refuted_true == 0
    report(
        "10a", ok,
        f"C'(1/8) gate empty at l=16 ({empty_at_16}); at l={length}: {found}/50 trials, "
        f"commutator refuted in {refuted_false}, torsion clause refuted in {refuted_true}; "
        f"{elapsed:.1f}s",
    )
    assert empty_at_16, "the pigeonhole bound should reject C'(1/8) at (n=2, l=16)"
    assert ok, (
        f"C'(1/8) at (n=2, l={length}): {found}/50 trials, commutator refuted in "
        f"{refuted_false} (want 50), torsion clause refuted in {refuted_true} (want 0)"
    )


def test_criterion_10a_companion_dichotomy_attainable_gate():
    t0 = time.monotonic()
    found, refuted_false, refuted_true = _dichotomy_run(
        lambda p: satisfies_cprime(p, Fraction(1, 6)) and _no_proper_power(p), 16
    )
    elapsed = time.monotonic() - t0
    ok = found == 50 and refuted_false == 50 and refuted_true == 0
    assert report(
        "10a'", ok,
        f"C'(1/6) gate: {found}/50 trials, commutator refuted in {refuted_false}, "
        f"torsion clause refuted in {refuted_true}; {elapsed:.1f}s",
    )


def test_criterion_10b_roundtrip_and_equivalence():
    texts = [
        SIGMA_FALSE,
        SIGMA_TRUE,
        "( x = 1 & y y = 1 ) -> ( x y = 1 | y != 1 )",
        "x y = 1 -> y x = 1",
        "x != 1 | x x x = 1",
    ]
    round_ok = all(parse_sentence(parse_sentence(t).text()) == parse_sentence(t) for t in texts)
    rng = stream(1010)
    free = Presentation(2)
    equiv_ok = True
    checks = 0
    for t in texts:
        s = parse_sentence(t)
        clauses = to_clausal(s)
        for _ in range(200):
            a = {
                v: sample_reduced_word(2, int(rng.integers(0, 5)) + 1, rng)
                if rng.integers(0, 4)
                else Word()
                for v in s.variables
            }
            checks += 1
            direct = all(
                (
                    not all(
                        len(substitute(l.word, a)) == 0 for l in c.hypotheses if l.positive
                    )
                    or any(
                        len(substitute(l.word, a)) != 0 for l in c.hypotheses if not l.positive
                    )
                )
                or any(len(substitute(l.word, a)) == 0 for l in c.disjuncts if l.positive)
                or any(len(substitute(l.word, a)) != 0 for l in c.disjuncts if not l.positive)
                for c in s.clauses
            )
            if direct != all(eval_clause_group(c, a, free) for c in clauses):
                equiv_ok = False
    ok = round_ok and equiv_ok and checks == 1000
    assert report(
        "10b", ok, f"round-trips exact; {checks} clausal-equivalence assignments exact"
    )


# -- 11. triangularization correctness ----------------------------------------------


def test_criterion_11_triangularization():
    from randgroups.words import template_reduce

    rng = stream(1111)
    systems_ok = 0
    systems_run = 0
    shape_ok = True
    while systems_run < 100:
        n_vars = int(rng.integers(1, 5))
        names = [f"x{i+1}" for i in range(n_vars)]
        system = []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 8))
            eq = template_reduce(
                TemplateWord(
                    tuple(
                        (names[int(rng.integers(0, n_vars))], 1 if rng.integers(0, 2) else -1)
                        for _ in range(k)
                    )
                )
            )
            if eq:
                system.append(eq)
        if not system:
            continue
        systems_run += 1
        original_vars = sorted({v for eq in system for v, _ in eq})
        T = triangularize(system)
        counts = {}
        for eq in T.equations:
            if len(eq) > 3:
                shape_ok = False
            for v, _ in eq:
                counts[v] = counts.get(v, 0) + 1
        if any(c < 2 for c in counts.values()):
            shape_ok = False
        good = True
        for _ in range(100):
            a = {v: sample_reduced_word(2, int(rng.integers(1, 4)), rng) for v in original_vars}
            if all(len(substitute(eq, a)) == 0 for eq in system):
                ext = dict(a)
                for z in [v for v in T.variables if v.startswith("z")]:
                    if z in T.defining:
                        deps = T.defining[z]
                        ext[z] = substitute(deps, ext)
                if not all(len(substitute(eq, ext)) == 0 for eq in T.equations):
                    good = False
            b = {v: sample_reduced_word(2, int(rng.integers(1, 4)), rng) for v in T.variables}
            if all(len(substitute(eq, b)) == 0 for eq in T.equations):
                lifted = extend_solution(T, b, original_vars)
                if not all(len(substitute(eq, lifted)) == 0 for eq in system):
                    good = False
        if good:
            systems_ok += 1
    ok = systems_ok == 100 and shape_ok
    assert report(
        11, ok, f"{systems_ok}/100 systems: solution correspondence exact; shape ok={shape_ok}"
    )


# -- 12. determinism -----------------------------------------------------------------


# sha256 of the criterion's CSV as first recorded; a change means the
# sampler, the gate, the oracle column or the CSV format changed.
CRITERION_12_SHA256 = "f80b1cb3c937d226282481b2208a12bdf90e42a3e45f62687f3b086dc6c78703"


def test_criterion_12_determinism(tmp_path):
    outputs = []
    for run in ("first", "rerun"):
        cfg = ExperimentConfig(
            kind="cprime", rank=2, density=Fraction(0), length_list=(24, 32),
            seed=1212, trials=20, lam=Fraction(1, 8),
        )
        rows = run_experiment(cfg)
        path = tmp_path / f"{run}.csv"
        emit(rows, "csv", path)
        outputs.append(path.read_bytes())
    digest = hashlib.sha256(outputs[0]).hexdigest()
    ok = len(set(outputs)) == 1 and digest == CRITERION_12_SHA256
    assert report(12, ok, f"byte-identical CSV on re-run, sha256 {digest[:12]} pinned: {ok}")
