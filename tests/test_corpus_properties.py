"""Property tests of the corpus parser: round trips and arbitrary line garbage."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hybridssl.data import load_corpus, write_corpus
from hybridssl.errors import BoundsError, ParseError

from helpers import make_dataset

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def datasets(draw):
    k = draw(st.integers(2, 5))
    m = draw(st.one_of(st.integers(1, 40), st.integers(1, 10 ** 18 - 1)))
    rows = draw(st.lists(st.tuples(
        st.one_of(st.none(), st.integers(0, k - 1)),
        st.sets(st.integers(0, m - 1), max_size=8)), max_size=12))
    return make_dataset([(sorted(ids), label) for label, ids in rows], k, m)


@PROPERTY
@given(data=datasets())
def test_write_then_load_gives_equal_arrays(tmp_path, data):
    path = tmp_path / "corpus.txt"
    write_corpus(data, path)
    loaded = load_corpus(path)
    assert (loaded.num_classes, loaded.num_features) == (data.num_classes, data.num_features)
    assert np.array_equal(loaded.indptr, data.indptr)
    assert np.array_equal(loaded.indices, data.indices)
    assert np.array_equal(loaded.row_labels, data.row_labels)


# Corpus files for K=3, M=50: well-formed lines (blanks, comments, leading
# zeros, whitespace other than ASCII blanks) around at most one bad line.
_SEPARATORS = st.sampled_from([" "] * 6 + ["\t", "  ", "\xa0", "\u2003", "\x0b", "\x1c"])
_DEFECTS = ("label", "bounds", "order", "duplicate", "token")


@st.composite
def document_line(draw, defect=None):
    label = draw(st.sampled_from(["*", "0", "1", "2", "002"]))
    ids = sorted(draw(st.sets(st.integers(0, 49), max_size=8)))
    if defect == "label":
        label = draw(st.sampled_from(["3", "10", "+1", "1_0", "\u0661", "9" * 25]))
    elif defect == "bounds":
        outside = draw(st.sampled_from([50, 51, 10 ** 19, 10 ** 25]))
        ids.insert(draw(st.integers(0, len(ids))), outside)
    elif defect in ("order", "duplicate") and ids:
        at = draw(st.integers(0, len(ids) - 1))
        ids.insert(at, ids[at] + (1 if defect == "order" else 0))
    tokens = [label] + [f"{i}:1" for i in ids]
    if ids:
        tokens[-1] = draw(st.sampled_from(["", "", "", "0", "0" * 20])) + tokens[-1]
    if defect == "token":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.one_of(
            st.sampled_from(["1:2", "1:01", "+1:1", "1_0:1", "\u0661:1", ":1", "*", "x"]),
            st.text(alphabet="0123456789:*+-_", min_size=1, max_size=6)))
    seps = draw(st.lists(_SEPARATORS, min_size=len(tokens), max_size=len(tokens)))
    seps[0] = draw(st.sampled_from(["", "", " ", "\t"]))
    end = draw(st.sampled_from(["", "", " ", "\x0c"]))
    return "".join(sep + tok for sep, tok in zip(seps, tokens)) + end


_PLAIN_LINES = st.one_of(document_line(), document_line(), document_line(),
                         st.sampled_from(["", "   ", "# a comment", "\t# 0 1:1"]))


@st.composite
def corpus_lines(draw, defect):
    lines = draw(st.lists(_PLAIN_LINES, max_size=6))
    if defect is not None:
        lines.insert(draw(st.integers(0, len(lines))), draw(document_line(defect)))
    return lines


def _token_by_token(lines, k, m):
    """The documented grammar read token by token: (indptr, ids, labels), or
    (error type, line, column) of the first bad token."""
    labels, ids, indptr = [], [], [0]
    for lineno, text in enumerate(lines, start=2):
        tokens = [(tok.start() + 1, tok.group()) for tok in re.finditer(r"\S+", text)]
        if not tokens or tokens[0][1].startswith("#"):
            continue
        (col, label), prev = tokens[0], -1
        if label != "*":
            if re.fullmatch("[0-9]+", label) is None:
                return ParseError, lineno, col
            if int(label) >= k:
                return BoundsError, lineno, col
        for col, tok in tokens[1:]:
            match = re.fullmatch("([0-9]+):1", tok)
            if match is None:
                return ParseError, lineno, col
            if int(match[1]) >= m:
                return BoundsError, lineno, col
            if int(match[1]) <= prev:
                return ParseError, lineno, col
            prev = int(match[1])
            ids.append(prev)
        labels.append(-1 if label == "*" else int(label))
        indptr.append(len(ids))
    return indptr, ids, labels


@pytest.mark.parametrize("defect", (None,) + _DEFECTS)
@PROPERTY
@given(data=st.data())
def test_line_garbage_parses_or_names_its_line(tmp_path, defect, data):
    """A Dataset or a ParseError (BoundsError included) with its line, never
    anything else; and the same outcome and location as reading every line
    token by token."""
    lines = data.draw(corpus_lines(defect))
    path = tmp_path / "garbage.txt"
    path.write_text("# hybridssl-corpus v1 K=3 M=50\n" + "\n".join(lines) + "\n",
                    encoding="utf-8", newline="")
    want = _token_by_token(lines, 3, 50)
    try:
        corpus = load_corpus(path)
    except ParseError as exc:
        assert exc.line >= 1
        assert (type(exc), exc.line, exc.column) == want
        return
    assert (corpus.indptr.tolist(), corpus.indices.tolist(), corpus.row_labels.tolist()) == want
