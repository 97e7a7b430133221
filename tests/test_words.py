import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randgroups.words import (
    Word,
    TemplateWord,
    Presentation,
    free_reduce,
    cyclic_reduce,
    invert,
    is_cyclically_reduced,
    substitute,
    UnboundVariableError,
    content_lines,
)
from oracles import free_reduce_oracle, cyclic_reduce_oracle

letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=50).map(Word)


def W(s):
    return Word.from_text(s)


def test_free_reduce_examples():
    assert free_reduce(W("aAb")).text() == "b"
    assert free_reduce(W("abaB")).text() == "abaB"
    assert free_reduce(W("")) == Word()


@given(raw_words)
def test_free_reduce_matches_single_scan_oracle(w):
    assert free_reduce(w) == free_reduce_oracle(w)


@given(raw_words)
def test_free_reduce_idempotent_and_nonincreasing(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert len(r) <= len(w)
    assert r.is_reduced


@given(raw_words)
def test_invert_is_involution_and_commutes_with_reduce(w):
    assert invert(invert(w)) == w
    assert invert(free_reduce(w)) == free_reduce(invert(w))


def test_invert_examples():
    assert invert(W("ab")).text() == "BA"
    assert invert(Word()) == Word()


def test_cyclic_reduce_examples():
    u, c = cyclic_reduce(W("abA"))
    assert (u.text(), c.text()) == ("b", "a")
    u, c = cyclic_reduce(W("ab"))
    assert (u.text(), c.text()) == ("ab", "")


@given(raw_words)
def test_cyclic_reduce_matches_peeling_oracle(w):
    r = free_reduce(w)
    u, c = cyclic_reduce(r)
    uo, co = cyclic_reduce_oracle(w)
    assert u == uo and c == co
    assert is_cyclically_reduced(u)
    # w = c u c^-1 freely
    assert free_reduce(c.concat(u).concat(invert(c))) == r


def test_substitute_examples():
    t = TemplateWord.from_text("x y")
    assert substitute(t, {"x": W("a"), "y": W("A")}) == Word()
    t2 = TemplateWord.from_text("x ~x")
    assert substitute(t2, {"x": W("bab")}) == Word()
    comm = TemplateWord.from_text("x y ~x ~y")
    got = substitute(comm, {"x": W("ab"), "y": W("b")})
    naive = free_reduce(W("ab").concat(W("b")).concat(invert(W("ab"))).concat(invert(W("b"))))
    assert got == naive


def test_substitute_generator_constants():
    t = TemplateWord.from_text("x a ~x")
    assert substitute(t, {"x": W("b")}).text() == "baB"


def test_substitute_unbound_variable_names_it():
    with pytest.raises(UnboundVariableError) as e:
        substitute(TemplateWord.from_text("x y"), {"x": W("a")})
    assert "y" in str(e.value)


@given(
    st.lists(st.sampled_from(["x", "y", "z"]).flatmap(
        lambda v: st.sampled_from([1, -1]).map(lambda s: (v, s))), max_size=12),
    st.lists(st.sampled_from(["x", "y", "z"]).flatmap(
        lambda v: st.sampled_from([1, -1]).map(lambda s: (v, s))), max_size=12),
    st.tuples(raw_words, raw_words, raw_words),
)
def test_substitute_is_a_homomorphism(u_items, v_items, vals):
    u, v = TemplateWord(u_items), TemplateWord(v_items)
    a = {"x": free_reduce(vals[0]), "y": free_reduce(vals[1]), "z": free_reduce(vals[2])}
    uv = TemplateWord(tuple(u) + tuple(v))
    assert substitute(uv, a) == free_reduce(substitute(u, a).concat(substitute(v, a)))


def test_template_round_trip():
    t = TemplateWord.from_text("x1 ~y B a")
    assert TemplateWord.from_text(t.text()) == t
    assert t.variables() == ("x1", "y")


def _accepts_by_generator_expression(letters) -> bool:
    """Word validation as a per-letter generator expression, the reference
    for Word.__new__'s C-level scans."""
    return not any(not isinstance(x, int) or x == 0 for x in letters)


def _max_generator_by_generator_expression(letters) -> int:
    return max((abs(x) for x in letters), default=0)


def _check_word_validation_parity(letters):
    try:
        w = Word(letters)
    except ValueError:
        assert not _accepts_by_generator_expression(letters)
        return
    assert _accepts_by_generator_expression(letters)
    assert w == tuple(letters)
    assert w.max_generator() == _max_generator_by_generator_expression(letters)


@pytest.mark.parametrize("letters", [
    [], [1, -2, 3], [True], [-True, 2], [2**70, -(2**70)], [26, -26],
    [0], [1, 0], [False], [1, False], [1.0], [1, 1.5], [float("nan")], ["a"],
    [None], [np.int64(1)], [np.int64(0)], [1, np.int64(-3)],
])
def test_word_validation_matches_generator_expression(letters):
    _check_word_validation_parity(letters)


def test_word_accepts_true_and_rejects_zero_and_non_ints():
    assert Word([True]) == (1,)
    for bad in (0, False, 1.0, "a", np.int64(1)):
        with pytest.raises(ValueError, match="letters must be nonzero integers"):
            Word([1, bad])


_mixed_letters = st.one_of(
    st.integers(min_value=-30, max_value=30), st.booleans(), st.floats(), st.none(),
    st.text(max_size=2), st.integers(min_value=-30, max_value=30).map(np.int64),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_mixed_letters, max_size=8) | st.lists(letters, max_size=8))
def test_word_validation_parity_on_mixed_letters(letters):
    _check_word_validation_parity(letters)


def test_presentation_rejects_bad_relators():
    with pytest.raises(ValueError):
        Presentation(2, [W("abBA")])  # not freely reduced
    with pytest.raises(ValueError):
        Presentation(2, [W("abA")])  # not cyclically reduced
    with pytest.raises(ValueError):
        Presentation(2, [W("ab"), W("abab")])  # length mismatch
    with pytest.raises(ValueError):
        Presentation(2, [W("ac")])  # generator beyond rank
    with pytest.raises(ValueError):
        Presentation(1, [])


def test_presentation_file_round_trip(tmp_path):
    p = Presentation(3, [W("abcABC")], 6)
    path = tmp_path / "pres.txt"
    p.save(path)
    q = Presentation.load(path)
    assert q == p and hash(q) == hash(p)


def test_presentation_file_comments_and_spaces():
    text = "# a comment\nrank=2 length=4\n# another\nabAB\n"
    p = Presentation.from_text(text)
    assert p.rank == 2 and p.length == 4 and p.relators[0].text() == "abAB"


def test_presentation_file_trailing_comments():
    """# starts a comment anywhere on a line, as in config and unify files."""
    text = "rank=2 length=4  # one relator\nabAB  # commutator\n   # indented note\n"
    p = Presentation.from_text(text)
    assert p == Presentation(2, [Word.from_text("abAB")], 4)


def test_content_lines_numbers_the_lines_it_keeps():
    text = "# head\nx = 2  # two\n\n  y = 3\n#\n"
    assert content_lines(text) == [(2, "x = 2"), (4, "y = 3")]


def test_empty_presentation():
    p = Presentation(2, [], 0)
    assert p.n_relators == 0
    assert Presentation.from_text(p.to_text()) == p


def test_presentation_header_without_equals_sign():
    with pytest.raises(ValueError, match="bad presentation header 'rank 2'"):
        Presentation.from_text("rank 2\nabAB\n")


# presentation files assembled from plausible and broken pieces
_header_tokens = st.sampled_from(
    ["rank=2", "rank=3", "rank=1", "rank=x", "rank", "length=4", "length=0", "length=-1",
     "length=", "=", "==", "rank=2=3", "size=4", "rank=99999999999999999999"]
)
_relator_lines = st.text(alphabet="abcdABCD #=1z\t", max_size=10)
_presentation_texts = st.builds(
    lambda head, rels: "\n".join([" ".join(head)] + rels),
    st.lists(_header_tokens, max_size=4),
    st.lists(_relator_lines, max_size=4),
) | st.text(max_size=40)


@settings(max_examples=400, deadline=None)
@given(_presentation_texts)
def test_presentation_from_text_raises_only_value_error(text):
    """Any text either parses or raises a ValueError subclass."""
    try:
        Presentation.from_text(text)
    except ValueError:
        pass
