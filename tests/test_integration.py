"""End-to-end fuzz over the whole pipeline at random small parameters."""

from fractions import Fraction

from randgroups.words import Word, Presentation, free_reduce, invert, rotate
from randgroups.sampler import DensityParams, sample_presentation, sample_reduced_word, stream
from randgroups.cancellation import (
    satisfies_cprime,
    max_piece_length,
    is_trivial,
    dehn_reduce,
    equal_in_group,
)
from randgroups.cayley import build_ball, pair_reliable, single_layer, digon_side_uniqueness
from randgroups.diagrams import diagram_from_dehn_trace, verify_diagram, boundary_word, is_reduced
from randgroups.sentences import parse_sentence, to_clausal, refute_on_ball_group
from oracles import max_piece_oracle


def test_pipeline_fuzz():
    rng = stream(424242)
    clause = to_clausal(parse_sentence("x y ~x ~y = 1"))[0]
    verified = 0
    attempts = 0
    while verified < 6 and attempts < 4000:
        attempts += 1
        rank = int(rng.integers(3, 5))
        length = int(rng.integers(8, 13))
        seed = int(rng.integers(0, 2**32))
        p = sample_presentation(DensityParams(rank, Fraction(0), length, seed))
        assert max_piece_length(p).max_piece_length == max_piece_oracle(p)
        if not satisfies_cprime(p, Fraction(1, 6)):
            continue
        verified += 1
        r = p.relators[0]

        # word problem: conjugates of relators are trivial, short words are not
        g = sample_reduced_word(rank, int(rng.integers(1, 4)), rng)
        w = free_reduce(g.concat(rotate(r, int(rng.integers(0, length)))).concat(invert(g)))
        assert is_trivial(w, p)
        final, trace = dehn_reduce(w, p)
        assert final == Word() and len(trace) >= 1
        short = sample_reduced_word(rank, int(rng.integers(1, 5)), rng)
        assert not is_trivial(short, p)

        # diagram round trip
        D = diagram_from_dehn_trace(w, p)
        rep = verify_diagram(D, p)
        assert rep.ok, rep.problems
        assert boundary_word(D) == w
        assert D.n_faces == len(trace)
        is_reduced(D)  # must not crash; single-step diagrams are reduced
        if len(trace) == 1:
            assert is_reduced(D)

        # ball geometry at a modest radius
        ball = build_ball(p, 4)
        for v in range(1, ball.n_vertices):
            if int(ball.dist[v]) <= 2:
                u, vv = ball.words[v], ball.words[v]
                assert equal_in_group(u, vv, p)
        scanned = 0
        for v in range(1, ball.n_vertices):
            d = int(ball.dist[v])
            if pair_reliable(ball, 0, v, d):
                cfg = single_layer(ball, 0, v)
                assert cfg.ok, cfg.violations
                digons = [m for md in cfg.digons for m in md.members]
                if digons:
                    assert digon_side_uniqueness(ball, digons).ok
                scanned += 1
        assert scanned > 0

        # sentence layer agrees with the free group on the commutator clause
        witness = refute_on_ball_group(clause, p, 1)
        assert witness is not None
        free_witness = refute_on_ball_group(clause, Presentation(rank), 1)
        assert free_witness is not None
    assert verified == 6
