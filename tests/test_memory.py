"""Memory guards: the model file is streamed one row at a time, and the
K x M coupling kernels work in blocks instead of full-size temporaries.

The peaks are tracemalloc's traced peaks, which count numpy's buffers
along with Python objects and do not depend on the machine."""

import tracemalloc

import numpy as np

from hybridssl.model import (CouplingConfig, CouplingKind, DiscriminativeParams,
                             GenerativeParams, load_model, save_model)
from hybridssl.trainer import coupling_gradient_w


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
    # K = 4 (eight rows of 50,000 values) is 0.4 (save) and 0.8 (load) of
    # the file; the whole-file writer and reader took 2.0 and 3.0.
    rng = np.random.default_rng(4)
    k, m = 4, 50_000
    gen = GenerativeParams(pi=np.full(k, 1.0 / k), theta_tilde=rng.normal(0.0, 3.0, (k, m)))
    disc = DiscriminativeParams(b=rng.normal(size=k), w=rng.normal(0.0, 0.1, (k, m)))
    path = tmp_path / "model.txt"
    _, save_peak, _ = _traced(lambda: save_model(gen, disc, path))
    size = path.stat().st_size
    assert save_peak < size
    (gen2, disc2), load_peak, retained = _traced(lambda: load_model(path))
    assert np.array_equal(gen2.theta_tilde, gen.theta_tilde) and np.array_equal(disc2.w, disc.w)
    assert retained >= gen.theta_tilde.nbytes + disc.w.nbytes
    assert load_peak - retained < size


def test_beta_coupling_gradient_peak_stays_below_four_arrays():
    rng = np.random.default_rng(5)
    theta_tilde = rng.normal(0.0, 3.0, (20, 50_000))
    w = rng.normal(0.0, 1.0, (20, 50_000))
    coupling = CouplingConfig(kind=CouplingKind.BETA, gamma=1.0)
    gen = GenerativeParams(pi=np.full(20, 0.05), theta_tilde=theta_tilde)
    disc = DiscriminativeParams(b=np.zeros(20), w=w)
    _, peak, _ = _traced(lambda: coupling_gradient_w(gen, disc, coupling))
    assert peak < 4 * w.nbytes
