"""Memory guards: the model file is streamed one row at a time into one
array per section, the K x M coupling kernels work in blocks instead of
full-size temporaries, a hybrid fit holds few K x M arrays at once, the
lam = 1 fit keeps a sparse labeled set in compressed rows, and predict
holds one K x M array, w.

The peaks are tracemalloc's traced peaks, which count numpy's buffers
along with Python objects and do not depend on the machine."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from hybridssl import cli, expfam, model
from hybridssl.data import write_corpus
from hybridssl.errors import ParseError
from hybridssl.model import (CouplingConfig, CouplingKind, Dataset, DiscriminativeParams,
                             load_model, save_model)
from hybridssl.trainer import TrainConfig, train


def _traced(fn):
    """(result, peak, retained): fn's result, the traced peak during the call
    and what the call left allocated, both in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, retained


def test_model_file_is_written_and_read_a_row_at_a_time(tmp_path):
    # Holding the whole file's text takes at least the file's size. One row
    # costs a few times its text in Python floats and token strings, which at
    # K = 8 (eight rows of 50,000 values) is 0.4 (save) and 0.8 (load) of
    # the file; the whole-file writer and reader took 2.0 and 3.0.
    rng = np.random.default_rng(4)
    k, m = 8, 50_000
    disc = DiscriminativeParams(b=rng.normal(size=k), w=rng.normal(0.0, 3.0, (k, m)))
    path = tmp_path / "model.txt"
    _, save_peak, _ = _traced(lambda: save_model(disc, path))
    size = path.stat().st_size
    assert save_peak < size
    disc2, load_peak, retained = _traced(lambda: load_model(path))
    assert np.array_equal(disc2.b, disc.b) and np.array_equal(disc2.w, disc.w)
    assert retained >= disc.w.nbytes
    assert load_peak - retained < size


def test_beta_coupling_gradient_peak_stays_below_four_arrays():
    rng = np.random.default_rng(5)
    theta_tilde = rng.normal(0.0, 3.0, (20, 50_000))
    w = rng.normal(0.0, 1.0, (20, 50_000))
    coupling = CouplingConfig(kind=CouplingKind.BETA, gamma=1.0)
    _, peak, _ = _traced(
        lambda: expfam._blockwise(model._coupling_gradient(coupling), theta_tilde, w))
    assert peak < 4 * w.nbytes


def test_tall_model_sections_are_read_without_a_second_copy(tmp_path):
    # K = 2,000 rows of M = 50 values. Rows parsed into one array per
    # section peak 0.13 of a section above what load_model returns; a list
    # of row arrays and then an np.array copy of it took 1.4.
    rng = np.random.default_rng(6)
    k, m = 2000, 50
    disc = DiscriminativeParams(b=rng.normal(size=k), w=rng.normal(0.0, 0.1, (k, m)))
    path = tmp_path / "model.txt"
    save_model(disc, path)
    disc2, peak, retained = _traced(lambda: load_model(path))
    assert np.array_equal(disc2.b, disc.b) and np.array_equal(disc2.w, disc.w)
    assert peak - retained < 0.5 * disc.w.nbytes


def test_a_section_the_file_cannot_fill_is_never_allocated(tmp_path):
    # the header promises a 40 MB w; the file ends after two of its rows,
    # and the error is the truncation's, at the line it happens
    k, m = 1000, 5000
    path = tmp_path / "short.model"
    path.write_text(f"hybridssl-model v2 K={k} M={m}\nb\n" + " ".join(["0.001"] * k)
                    + "\nw\n" + (" ".join(["0"] * m) + "\n") * 2, encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "section 'w' truncated (line 7)"
    assert peak < 8 * k * m / 20


def _compressed_corpus(n_labeled=40):
    """420 documents of 40 features over K = 4, M = 50,000, the first
    n_labeled of them labeled: at 0.08% density X stays in compressed rows."""
    k, m, n, nnz = 4, 50_000, 420, 40
    rng = np.random.default_rng(6)
    indices = np.concatenate([np.sort(rng.choice(m, nnz, replace=False)) for _ in range(n)])
    labels = np.where(np.arange(n) < n_labeled, np.arange(n) % k, -1)
    data = Dataset(np.arange(n + 1) * nnz, indices, labels, k, m)
    assert data._dense_matrix is None
    return data


@pytest.mark.parametrize("kind, arrays", [(CouplingKind.BETA, 3), (CouplingKind.GAUSSIAN, 5)],
                         ids=["beta", "gauss"])
def test_hybrid_fit_holds_few_k_by_m_arrays(kind, arrays):
    # BETA: see test_beta_hybrid_fit_peaks_below_three_k_by_m_arrays.
    # GAUSSIAN: theta_tilde, w and the M-step's expected counts, with the
    # untouched columns' Newton run a block at a time and the L-BFGS
    # vectors over the labeled documents' columns only: 4.11 arrays at
    # gamma = 1 and 4.10 at gamma = 9, in 2 outer iterations and run to
    # convergence alike. The bound may only tighten.
    data = _compressed_corpus()
    coupling = CouplingConfig(kind=kind, gamma=1.0)
    _, peak, _ = _traced(lambda: train(data, coupling, TrainConfig(max_outer_iters=2)))
    assert peak < arrays * 8 * data.num_classes * data.num_features


def test_beta_hybrid_fit_peaks_below_three_k_by_m_arrays():
    # theta_tilde and w, plus the generative step's counts, which it
    # overwrites with the new theta_tilde, once the previous theta_tilde is
    # gone; the SGD epochs and the objective work in blocks. 2.72 arrays at
    # the peak. Keeping the previous theta_tilde through the generative
    # step and a K x nnz cell array through the SGD set-up took 3.35;
    # applying the epoch step and the generative step through full-size
    # temporaries, and a discarded gradient in the objective, took 7.3.
    data = _compressed_corpus()
    coupling = CouplingConfig(kind=CouplingKind.BETA, gamma=1.0)
    _, peak, _ = _traced(lambda: train(data, coupling, TrainConfig(max_outer_iters=2)))
    assert peak < 3 * 8 * data.num_classes * data.num_features

def test_logreg_fit_holds_no_dense_x():
    # The 200 labeled documents restricted to their 7,415 features are a
    # set at 0.5% density, so the lam = 1 fit scores them in compressed
    # rows. Its peak is w and the L-BFGS curvature pairs, 4.14 arrays; a
    # dense copy of that set is 7.4 arrays, and storing it took 11.56.
    data = _compressed_corpus(n_labeled=200)
    _, peak, _ = _traced(lambda: train(data, CouplingConfig.from_lambda(1.0), TrainConfig()))
    assert peak < 5 * 8 * data.num_classes * data.num_features


def test_predict_never_holds_theta_tilde(tmp_path):
    # The model file holds only (b, w). Predict's peak is w, the corpus and
    # the parsing of one model row: the file iterator's line, its
    # splitlines() piece, its bytes and 50,000 token strings, about 6.5
    # times the row's text. That reads 5.30 arrays here, against a bound of
    # 5.71; a reader that also held theta_tilde took 6.30.
    data = _compressed_corpus()
    k, m = data.num_classes, data.num_features
    rng = np.random.default_rng(8)
    disc = DiscriminativeParams(b=rng.normal(size=k), w=rng.normal(0.0, 0.1, (k, m)))
    model_path, corpus_path = tmp_path / "model.txt", tmp_path / "corpus.txt"
    save_model(disc, model_path)
    write_corpus(data, corpus_path)
    row_chars = max(len(line) for line in model_path.read_text(encoding="utf-8").splitlines())
    argv = ["predict", "--model", str(model_path), "--corpus", str(corpus_path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code, peak, _ = _traced(lambda: cli.main(argv))
    assert code == 0
    assert peak < disc.w.nbytes + corpus_path.stat().st_size + 7 * row_chars
