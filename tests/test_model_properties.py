"""Property tests of the model file and of the shared normalization of scores."""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hybridssl.model import DiscriminativeParams, _normalize, load_model, save_model

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# Every finite float64: hypothesis also draws subnormals and the extremes,
# and the examples below pin the values a formatter is most likely to get wrong.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
          1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def models(draw):
    k = draw(st.integers(2, 3))
    m = draw(st.integers(1, 4))
    values = draw(st.lists(_FINITE, min_size=k * (m + 1), max_size=k * (m + 1)))
    return DiscriminativeParams(b=np.array(values[k * m:]),
                                w=np.array(values[:k * m]).reshape(k, m))


def _edge_model():
    edges = np.array(_EDGES)
    return DiscriminativeParams(b=edges[[1, 2]], w=np.stack([-edges, edges]))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@PROPERTY
@given(disc=models())
@example(disc=_edge_model())
def test_model_file_round_trips_every_finite_value(tmp_path, disc):
    path = tmp_path / "model.txt"
    save_model(disc, path)
    disc2 = load_model(path)
    assert _same_bits(disc2.b, disc.b) and _same_bits(disc2.w, disc.w)
    save_model(disc2, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


@PROPERTY
@given(scores=st.integers(2, 6).flatmap(lambda k: st.lists(
    st.lists(st.floats(-1e4, 1e4), min_size=k, max_size=k), min_size=1, max_size=5)))
@example(scores=[[1e4, -1e4], [-1e4, -1e4], [1e4, 1e4 - 1e-9]])
def test_softmax_and_logsumexp_stay_finite_and_normalised(scores):
    scores = np.array(scores)
    lse, probs = _normalize(scores)
    assert np.all(np.isfinite(probs)) and np.all(np.isfinite(lse))
    assert np.all((probs >= 0.0) & (probs <= 1.0))
    assert np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    top = scores.max(axis=1)
    assert np.all((lse >= top) & (lse <= top + np.log(scores.shape[1]) + 1e-9))
    # log softmax agrees with scores - lse wherever the probability is representable
    shown = probs > 1e-300
    assert np.allclose(np.log(probs[shown]), (scores - lse[:, None])[shown],
                       rtol=0.0, atol=1e-9)
