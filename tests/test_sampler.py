import hashlib
from fractions import Fraction

import pytest

from randgroups.sampler import (
    DensityParams,
    reduced_word_count,
    relator_count,
    sample_reduced_word,
    sample_presentation,
    stream,
)
from randgroups.words import is_cyclically_reduced, free_reduce
from oracles import enumerate_reduced_words


def test_reduced_word_count_examples():
    assert reduced_word_count(2, 1) == 4
    assert reduced_word_count(2, 3) == 36
    assert reduced_word_count(3, 5) == 6 * 5**4 == 3750


def test_reduced_word_count_matches_enumeration():
    for n in (2, 3):
        for l in (1, 2, 3, 4):
            words = [w for w in enumerate_reduced_words(n, l) if len(w) == l]
            assert len(words) == reduced_word_count(n, l)


def test_relator_count_exact_exponents():
    assert relator_count(DensityParams(2, Fraction(1, 2), 4, 0)) == 9
    assert relator_count(DensityParams(2, Fraction(0), 7, 0)) == 1
    assert relator_count(DensityParams(2, Fraction(1, 16), 64, 0)) == 81


def test_relator_count_non_integer_exponent_is_exact_floor():
    # 3^(5/2) = 15.588..., floor 15
    assert relator_count(DensityParams(2, Fraction(1, 2), 5, 0)) == 15
    # 3^(1/3) = 1.442..., floor 1
    assert relator_count(DensityParams(2, Fraction(1, 3), 1, 0)) == 1
    # 5^(7/4) = 16.718..., floor 16
    assert relator_count(DensityParams(3, Fraction(1, 4), 7, 0)) == 16


def test_sample_reduced_word_shape():
    rng = stream(1234)
    for _ in range(200):
        w = sample_reduced_word(2, 8, rng)
        assert len(w) == 8
        assert free_reduce(w) == w


def test_sample_reduced_word_base_case_uniform():
    rng = stream(7)
    seen = {sample_reduced_word(2, 1, rng)[0] for _ in range(200)}
    assert seen == {1, 2, -1, -2}


def test_sample_presentation_counts_and_determinism():
    params = DensityParams(2, Fraction(1, 16), 32, 99)
    p1 = sample_presentation(params)
    p2 = sample_presentation(params)
    assert p1 == p2
    assert p1.n_relators == 9
    assert all(len(r) == 32 for r in p1.relators)
    assert all(is_cyclically_reduced(r) for r in p1.relators)


def test_sample_presentation_density_zero_one_relator():
    p = sample_presentation(DensityParams(2, Fraction(0), 10, 5))
    assert p.n_relators == 1
    assert len(p.relators[0]) == 10


def test_different_seeds_differ():
    a = sample_presentation(DensityParams(2, Fraction(0), 20, 1))
    b = sample_presentation(DensityParams(2, Fraction(0), 20, 2))
    assert a != b


def test_streams_disjoint_paths_independent():
    a = stream(42, 0, 1)
    b = stream(42, 0, 2)
    assert sample_reduced_word(2, 10, a) != sample_reduced_word(2, 10, b)


def test_params_validation():
    with pytest.raises(ValueError):
        DensityParams(1, Fraction(0), 5, 0)
    with pytest.raises(ValueError):
        DensityParams(2, Fraction(3, 2), 5, 0)
    with pytest.raises(ValueError):
        DensityParams(2, Fraction(0), 0, 0)
    # a rank with no letters is refused before any relator is drawn
    with pytest.raises(ValueError, match="rank must be <= 26"):
        DensityParams(27, Fraction(0), 5, 1)
    assert sample_presentation(DensityParams(26, Fraction(0), 5, 1)).rank == 26


# Sampler output pinned byte for byte.  Every (rank, l, d) cell of the grid
# below with at most SAMPLER_PIN_MAX_RELATORS relators is sampled from its
# default stream and from stream(seed, cell, t) for t = 0, 1; the relator
# digest covers to_text() of each presentation, the next-draw digest the
# value of rng.integers(0, 2**32) right after each explicit-stream call, so
# a sampler that draws more (or less) of the stream than it uses fails it.
SAMPLER_PIN_RANKS = (2, 3, 4, 26)
SAMPLER_PIN_LENGTHS = (1, 2, 9, 32, 50)
SAMPLER_PIN_DENSITIES = (Fraction(0), Fraction(1, 10), Fraction(1, 5))
SAMPLER_PIN_MAX_RELATORS = 300
SAMPLER_PIN_RELATORS = "43520f681117d8255069d58b9664f79c21939767325015ea67c7bc436a084bd2"
SAMPLER_PIN_NEXT_DRAWS = "65fdf8f2482c05167151101ebce98fda57e06739da0da5145b7eb542cbd164e7"
# sha256 over the texts of 200 successive sample_reduced_word draws from
# stream(2024), at ranks 2, 3 and 26 and lengths cycling through 1..40
SAMPLER_PIN_WORDS = "ce63c6aa616f4af5827e9615c8ca61e3cf5b799219bcdf0cdbf7e6026d86c5d5"


def _pinned_cells():
    cells = []
    for rank in SAMPLER_PIN_RANKS:
        for l in SAMPLER_PIN_LENGTHS:
            for d in SAMPLER_PIN_DENSITIES:
                params = DensityParams(rank, d, l, 1000 + len(cells))
                if relator_count(params) <= SAMPLER_PIN_MAX_RELATORS:
                    cells.append(params)
    return cells


def test_sampler_output_is_pinned():
    relators, draws = hashlib.sha256(), hashlib.sha256()
    cells = _pinned_cells()
    assert len(cells) == 46 and max(map(relator_count, cells)) == 243
    for i, params in enumerate(cells):
        default = sample_presentation(params)
        relators.update(default.to_text().encode())
        for rng in (stream(params.seed), stream(params.seed, i, 0), stream(params.seed, i, 1)):
            p = sample_presentation(params, rng)
            relators.update(p.to_text().encode())
            draws.update(b"%d," % rng.integers(0, 2**32))
        assert sample_presentation(params, stream(params.seed)) == default
    assert relators.hexdigest() == SAMPLER_PIN_RELATORS
    assert draws.hexdigest() == SAMPLER_PIN_NEXT_DRAWS


def test_sample_reduced_word_output_is_pinned():
    h = hashlib.sha256()
    rng = stream(2024)
    for i in range(200):
        w = sample_reduced_word((2, 3, 26)[i % 3], 1 + i % 40, rng)
        h.update(w.text().encode() + b"\n")
    assert h.hexdigest() == SAMPLER_PIN_WORDS
