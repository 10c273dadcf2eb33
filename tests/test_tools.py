"""Smoke test of the scripts in tools/: each imports against the package as
it stands, tools/output_digest.py's thread-free lines match the pinned
file, and tools/peak_memory.py, which hooks trainer and cli functions by
name, runs every phase it measures."""

import importlib.util
from pathlib import Path

import pytest

from hybridssl.data import generate_synthetic, write_corpus

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _import_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["output_digest", "peak_memory", "storage_crossover"])
def test_tool_imports(name):
    assert callable(_import_tool(name).main)


def test_thread_free_digest_lines_match_the_pinned_file():
    # the protocol splits, the shuffle streams, the prior curves and the
    # fixed model file call no BLAS routine, so their pins hold at any
    # thread count
    with open(TOOLS / "output_digests.txt", encoding="ascii") as fh:
        pinned = dict(line.split() for line in fh if line.strip())
    lines = dict(_import_tool("output_digest").thread_free_lines())
    assert sorted(lines) == ["model-file-bytes", "prior-curves-beta", "prior-curves-normal",
                             "protocol-splits", "shuffle-streams"]
    assert lines == {name: pinned[name] for name in lines}


PREDICT_PHASES = ["-", "load_model", "load_corpus", "scoring"]


@pytest.mark.parametrize("lam, coupling, train_phases", [
    ("0.5", "beta", ["-", "load_corpus", "start", "generative_step", "sgd_epochs",
                     "e_step_scoring", "log_joint", "save_model"]),
    ("0.5", "gauss", ["-", "load_corpus", "start", "m_step", "e_step_scoring", "log_joint",
                      "save_model"]),
    ("1", "beta", ["-", "load_corpus", "train_logreg", "save_model"]),
    ("0", "beta", ["-", "load_corpus", "start", "e_step_scoring", "save_model"]),
], ids=["beta", "gauss", "lam1", "lam0"])
def test_peak_memory_reports_every_phase_that_ran(tmp_path, capsys, lam, coupling,
                                                  train_phases):
    peak_memory = _import_tool("peak_memory")
    corpus = generate_synthetic(4, 300, 30, 0.5, seed=3)
    train_path, test_path = tmp_path / "train.txt", tmp_path / "test.txt"
    write_corpus(corpus, train_path)
    write_corpus(corpus, test_path)
    status = peak_memory.main([str(train_path), str(test_path), "--lambda", lam,
                               "--coupling", coupling, "--max-iters", "2"])
    assert status == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(cmd, phase) for cmd, phase, *_ in lines] == (
        [("train", p) for p in train_phases] + [("predict", p) for p in PREDICT_PHASES])
    for *_, mb, unit_mb, arrays, unit_arrays in lines:
        assert (unit_mb, unit_arrays) == ("MB", "arrays")
        assert float(mb) >= 0.0 and float(arrays) > 0.0
