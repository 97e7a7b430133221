"""Command line interface.

Subcommands: sample, check, wp, ball, sentence, bounds, unify, mc.
Presentations use the text format of the words module (header line
`rank=<n> length=<l>`, one relator per line, # comments).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .words import Word, Presentation, TemplateWord, content_lines
from .sampler import DensityParams, sample_presentation
from .cancellation import max_piece_length, dehn_reduce
from .cayley import build_ball, geometry_scan, require_known_checks
from .sentences import parse_sentence, to_clausal, refute_on_ball_group
from .diagrams import BoundsParams, face_bound, advk_total_bound
from .unification import (
    build_layout,
    unify_positions,
    boundary_decoration,
    Decoration,
    free_letter_bound,
    fulfill_probability_bound,
)
from . import harness


def _cmd_sample(args) -> int:
    params = DensityParams(args.rank, Fraction(args.density), args.length, args.seed)
    p = sample_presentation(params)
    if args.out:
        p.save(args.out)
    else:
        sys.stdout.write(p.to_text())
    return 0


def _cmd_check(args) -> int:
    p = Presentation.load(args.infile)
    lam = Fraction(args.lam)
    report = max_piece_length(p)
    # satisfies_cprime(p, lam), without searching the pieces a second time
    verdict = not p.relators or report.max_piece_length < lam * p.length
    print(f"max piece length: {report.max_piece_length}")
    print(f"C'({lam}) bound: {lam * p.length}")
    print(f"verdict: {'satisfied' if verdict else 'violated'}")
    for word, occ1, occ2 in report.witnesses[: args.witnesses]:
        print(
            f"witness {word.text()!r}: relator {occ1.relator} dir {occ1.direction} "
            f"pos {occ1.start} / relator {occ2.relator} dir {occ2.direction} pos {occ2.start}"
        )
    return 0


def _cmd_wp(args) -> int:
    p = Presentation.load(args.infile)
    w = Word.from_text(args.word)
    final, trace = dehn_reduce(w, p)
    result = {
        "word": w.text(),
        "trivial": len(final) == 0,
        "final": final.text(),
        "trace": [
            {
                "position": step.position,
                "element": step.element.text(),
                "relator": step.origin[0],
                "rotation": step.origin[1],
                "inverted": step.origin[2],
                "removed": step.removed,
            }
            for step in trace
        ],
    }
    print(json.dumps(result, indent=1))
    return 0


def _cmd_ball(args) -> int:
    checks = tuple(c.strip() for c in args.verify.split(",")) if args.verify else ()
    require_known_checks(checks)
    p = Presentation.load(args.infile)
    ball = build_ball(p, args.radius, max_vertices=args.max_vertices)
    rep = geometry_scan(ball, checks) if checks else None
    out = {
        "vertices": ball.n_vertices,
        "radius": ball.radius,
    }
    if rep is not None:
        out.update(
            {
                "pairs_checked": rep.pairs_checked,
                "multi_geodesic_pairs": rep.multi_geodesic_pairs,
                "triples_checked": rep.triples_checked,
                "violations": rep.violations,
                "digon_count": rep.digon_count,
                "max_divisor_len": rep.max_divisor_len,
            }
        )
    text = json.dumps(out, indent=1)
    if args.report:
        with open(args.report, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_sentence(args) -> int:
    p = Presentation.load(args.infile)
    with open(args.sentence) as f:
        s = parse_sentence(f.read())
    out = {"sentence": s.text(), "ball": args.ball, "clauses": []}
    for c in to_clausal(s):
        free_w = refute_on_ball_group(c, Presentation(p.rank), args.ball)
        group_w = refute_on_ball_group(c, p, args.ball)
        out["clauses"].append(
            {
                "system": [w.text() for w in c.system],
                "conclusions": [w.text() for w in c.conclusions],
                "free_witness": None if free_w is None else {k: v.text() for k, v in free_w.items()},
                "group_witness": None if group_w is None else {k: v.text() for k, v in group_w.items()},
            }
        )
    print(json.dumps(out, indent=1))
    return 0


def _log10_big(n: int) -> float:
    s = str(n)
    return len(s) - 1 + math.log10(int(s[:15]) / 10 ** (min(len(s), 15) - 1))


def _cmd_bounds(args) -> int:
    params = BoundsParams(
        K=args.K,
        r=args.r,
        d=Fraction(args.d),
        epsilon=Fraction(args.eps),
        length=args.length,
        q=args.q,
        rank=args.rank,
    )
    N = face_bound(params)
    total = advk_total_bound(params)
    fb = fulfill_probability_bound(args.rank, 1, args.length, Fraction(args.d))
    e = fb.single_exponent
    log10_ratio = _log10_big(total) + (e.numerator / e.denominator) * math.log10(2 * args.rank - 1)
    print(f"face_bound: {N}")
    print(f"advk_total_bound: {total}")
    print(f"fulfill_probability (single relator form): {fb.single_bound!r}")
    print(f"ratio: 10^{log10_ratio:.3f}")
    return 0


def _parse_lines(path, parse) -> list:
    """parse(line) for each content line of a file; a ValueError names
    the file and the line."""
    with open(path) as f:
        text = f.read()
    out = []
    for lineno, line in content_lines(text):
        try:
            out.append(parse(line))
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}") from e
    return out


def _length_entry(line: str) -> tuple[str, int]:
    try:
        name, val = line.split("=")
        return name.strip(), int(val)
    except ValueError:
        raise ValueError(f"expected '<symbol> = <integer length>', got {line!r}") from None


def _boundary_range(line: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in line.split())
        return lo, hi
    except ValueError:
        raise ValueError(f"expected '<lo> <hi>' as two integers, got {line!r}") from None


def _cmd_unify(args) -> int:
    equations = _parse_lines(args.system, TemplateWord.from_text)
    lengths = dict(_parse_lines(args.lengths, _length_entry))
    layout = build_layout(equations, lengths)
    alphabet = unify_positions(layout)
    boundary = _parse_lines(args.boundary, _boundary_range) if args.boundary else []
    out = {
        "pieces": [
            {"len": p.length, "occurrences": [[s, g] for s, g in p.occurrences]}
            for p in alphabet.pieces
        ],
        "degrees_of_freedom": alphabet.degrees_of_freedom(),
    }
    if boundary:
        dec = boundary_decoration(alphabet, boundary)
        out["decoration_status"] = "decoration" if isinstance(dec, Decoration) else "pre-decoration"
        out["singletons"] = getattr(dec, "singletons", [])
    if args.n_rel and args.ell:
        out["free_letter_bound"] = str(free_letter_bound(args.n_rel, args.ell))
        if args.d is not None:
            fb = fulfill_probability_bound(args.rank, args.n_rel, args.ell, Fraction(args.d))
            out["prop_a_bound"] = fb.full_bound
    print(json.dumps(out, indent=1))
    return 0


def _cmd_mc(args) -> int:
    cfg = harness.load_config(args.config)
    rows = harness.run_experiment(cfg)
    harness.emit(rows, args.format, args.out)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="randgroups", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sample", help="sample a random presentation")
    s.add_argument("--rank", type=int, default=2)
    s.add_argument("--density", default="0")
    s.add_argument("--length", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_sample)

    s = sub.add_parser("check", help="piece statistics and C'(lambda) verdict")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--lambda", dest="lam", default="1/8")
    s.add_argument("--witnesses", type=int, default=4)
    s.set_defaults(fn=_cmd_check)

    s = sub.add_parser("wp", help="word problem via Dehn's algorithm")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--word", required=True)
    s.set_defaults(fn=_cmd_wp)

    s = sub.add_parser("ball", help="build a Cayley ball and verify geometry")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--radius", type=int, required=True)
    s.add_argument("--verify", default="")
    s.add_argument("--report", default=None)
    s.add_argument("--max-vertices", type=int, default=200_000)
    s.set_defaults(fn=_cmd_ball)

    s = sub.add_parser("sentence", help="bounded refutation of a universal sentence")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--sentence", required=True)
    s.add_argument("--ball", type=int, default=2)
    s.set_defaults(fn=_cmd_sentence)

    s = sub.add_parser("bounds", help="face and diagram-count bounds")
    s.add_argument("--K", type=int, default=10)
    s.add_argument("--r", type=int, default=1)
    s.add_argument("--d", default="1/16")
    s.add_argument("--eps", default="1/16")
    s.add_argument("--l", dest="length", type=int, required=True)
    s.add_argument("--q", type=int, default=0)
    s.add_argument("--rank", type=int, default=2)
    s.set_defaults(fn=_cmd_bounds)

    s = sub.add_parser("unify", help="position unification over a system")
    s.add_argument("--system", required=True)
    s.add_argument("--lengths", required=True)
    s.add_argument("--boundary", default=None)
    s.add_argument("--n-rel", type=int, default=None)
    s.add_argument("--ell", type=int, default=None)
    s.add_argument("--d", default=None)
    s.add_argument("--rank", type=int, default=2)
    s.set_defaults(fn=_cmd_unify)

    s = sub.add_parser("mc", help="run a Monte Carlo experiment from a config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(fn=_cmd_mc)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:
        ap.error(str(e))


if __name__ == "__main__":
    sys.exit(main())
