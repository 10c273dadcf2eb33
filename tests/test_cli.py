"""Command-line interface: subcommand behavior, output formats, and exit
codes, exercised in-process through main(argv)."""

import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

import hybridssl
from hybridssl import cli
from hybridssl.data import load_corpus
from hybridssl.errors import NumericError
from hybridssl.harness import ResultRow
from hybridssl.model import DiscriminativeParams, load_model, lr_scores_matrix, save_model

SYN = "2,10,0.6,30"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_corpus(tmp_path, capsys, name="corpus.txt", recipe=SYN, seed=0):
    path = tmp_path / name
    code, out, err = run(capsys, "synth", "--synthetic", recipe,
                         "--seed", str(seed), "--out", str(path))
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# synth

def test_synth_writes_loadable_corpus(tmp_path, capsys):
    path = tmp_path / "c.txt"
    code, out, err = run(capsys, "synth", "--synthetic", "3,12,0.5,7",
                         "--seed", "4", "--out", str(path))
    assert code == 0
    assert out == ""
    assert "wrote 21 documents" in err
    data = load_corpus(path)
    assert data.num_classes == 3
    assert data.num_features == 12
    assert len(data) == 21


def test_synth_bad_recipe_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "synth", "--synthetic", "3,12",
                         "--out", str(tmp_path / "c.txt"))
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# train

def test_train_writes_model_and_summary(tmp_path, capsys):
    corpus = make_corpus(tmp_path, capsys)
    model_path = tmp_path / "m.model"
    code, out, err = run(capsys, "train", "--corpus", str(corpus),
                         "--lambda", "0.5", "--max-iters", "30",
                         "--out", str(model_path))
    assert code == 0
    assert out == ""  # stdout carries only data; summary goes to stderr
    assert "mode=hybrid" in err
    assert "converged=" in err and "objective=" in err
    disc = load_model(model_path)
    assert disc.num_features == 10


def test_train_is_deterministic(tmp_path, capsys):
    corpus = make_corpus(tmp_path, capsys)
    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    for p in (p1, p2):
        code, _, _ = run(capsys, "train", "--corpus", str(corpus),
                         "--lambda", "0.25", "--max-iters", "20",
                         "--out", str(p))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_train_endpoint_and_gauss_modes(tmp_path, capsys):
    corpus = make_corpus(tmp_path, capsys)
    code, _, err = run(capsys, "train", "--corpus", str(corpus),
                       "--lambda", "0", "--out", str(tmp_path / "g.model"))
    assert code == 0 and "mode=pure_generative" in err
    code, _, err = run(capsys, "train", "--corpus", str(corpus),
                       "--lambda", "1", "--out", str(tmp_path / "d.model"))
    assert code == 0 and "mode=pure_discriminative" in err
    code, _, err = run(capsys, "train", "--corpus", str(corpus),
                       "--coupling", "gauss", "--gamma", "2.0",
                       "--max-iters", "20", "--out", str(tmp_path / "n.model"))
    assert code == 0 and "mode=hybrid" in err


def test_train_argument_errors_exit_2(tmp_path, capsys):
    corpus = make_corpus(tmp_path, capsys)
    out_path = str(tmp_path / "x.model")

    code, _, err = run(capsys, "train", "--corpus", str(corpus),
                       "--lambda", "0.5", "--gamma", "2.0", "--out", out_path)
    assert code == 2 and "mutually exclusive" in err

    code, _, err = run(capsys, "train", "--corpus", str(corpus),
                       "--lambda", "1.5", "--out", out_path)
    assert code == 2 and "lambda" in err

    code, _, err = run(capsys, "train", "--corpus", str(corpus), "--out", out_path)
    assert code == 2 and "coupling strength" in err

    code, _, err = run(capsys, "train", "--corpus", str(corpus), "--coupling", "gauss",
                       "--sigma-c2", "1.0", "--out", out_path)
    assert code == 2 and "--sigma-c2" in err  # --gamma 1.0 replaces it

    code, _, err = run(capsys, "train", "--corpus", str(corpus),
                       "--coupling", "none", "--gamma", "3.0", "--out", out_path)
    assert code == 2 and "argument --coupling: invalid choice: 'none'" in err

    code, _, err = run(capsys, "train", "--corpus", str(corpus),
                       "--synthetic", SYN, "--lambda", "0.5", "--out", out_path)
    assert code == 2 and "exactly one" in err

    code, _, err = run(capsys, "train", "--corpus", str(corpus), "--lambda", "0.5",
                       "--seed", str(2 ** 64), "--out", out_path)
    assert code == 2 and "seed must lie in [0, 2**64)" in err

    code, _, err = run(capsys, "train", "--corpus", str(tmp_path / "missing.txt"),
                       "--lambda", "0.5", "--out", out_path)
    assert code == 2

    bad = tmp_path / "bad.txt"
    bad.write_text("# hybridssl-corpus v1 K=2 M=5\n0 7:1\n")
    code, _, err = run(capsys, "train", "--corpus", str(bad),
                       "--lambda", "0.5", "--out", out_path)
    assert code == 2 and "line 2" in err


def test_train_disc_sigma2_with_an_overflowing_inverse_exits_2(tmp_path, capsys):
    # 1 / 1e-320 overflows to inf; such a prior used to end in exit 3
    corpus = make_corpus(tmp_path, capsys)
    out_path = tmp_path / "x.model"
    for lam in ("0.5", "1"):
        code, _, err = run(capsys, "train", "--corpus", str(corpus), "--lambda", lam,
                           "--disc-sigma2", "1e-320", "--max-iters", "3",
                           "--out", str(out_path))
        assert code == 2 and "disc_prior_sigma2 must be > 0 with a finite inverse" in err
        assert not out_path.exists()
    # a flat prior has inverse 0 and stays accepted
    code, _, err = run(capsys, "train", "--corpus", str(corpus), "--lambda", "1",
                       "--disc-sigma2", "inf", "--max-iters", "3", "--out", str(out_path))
    assert code == 0 and out_path.exists()


def test_train_numeric_error_exits_3(tmp_path, capsys, monkeypatch):
    corpus = make_corpus(tmp_path, capsys)

    def explode(*args, **kwargs):
        raise NumericError("objective became non-finite at outer iteration 1")

    monkeypatch.setattr(cli, "train", explode)
    code, _, err = run(capsys, "train", "--corpus", str(corpus),
                       "--lambda", "0.5", "--out", str(tmp_path / "x.model"))
    assert code == 3
    assert "numeric error:" in err


# ---------------------------------------------------------------------------
# predict

def test_train_predict_round_trip(tmp_path, capsys):
    corpus = make_corpus(tmp_path, capsys)
    model_path = tmp_path / "m.model"
    code, _, _ = run(capsys, "train", "--corpus", str(corpus),
                     "--lambda", "0.5", "--max-iters", "30",
                     "--out", str(model_path))
    assert code == 0
    code, out, err = run(capsys, "predict", "--model", str(model_path),
                         "--corpus", str(corpus))
    assert code == 0

    corpus_data = load_corpus(corpus)
    disc = load_model(model_path)
    scores = lr_scores_matrix(disc, corpus_data)
    want_preds = np.argmax(scores, axis=1)

    lines = out.splitlines()
    assert len(lines) == len(corpus_data)
    correct = 0
    for i, line in enumerate(lines):
        idx, pred, pmax = line.split("\t")
        assert int(idx) == i
        assert int(pred) == want_preds[i]
        assert 0.0 < float(pmax) <= 1.0
        if int(pred) == corpus_data.row_labels[i]:
            correct += 1

    # the stderr accuracy line agrees with a recount from stdout
    n = corpus_data.n_labeled
    assert f"accuracy={correct}/{n}={correct / n:.6f}" in err


def test_predict_uniform_model_probability(tmp_path, capsys):
    corpus = make_corpus(tmp_path, capsys)
    disc = DiscriminativeParams(b=np.zeros(2), w=np.zeros((2, 10)))
    model_path = tmp_path / "uniform.model"
    save_model(disc, model_path)
    code, out, err = run(capsys, "predict", "--model", str(model_path),
                         "--corpus", str(corpus))
    assert code == 0
    for line in out.splitlines():
        assert line.split("\t")[2] == "0.500000"


def test_predict_shape_mismatches_exit_2(tmp_path, capsys):
    corpus = make_corpus(tmp_path, capsys)  # K=2, M=10
    disc = DiscriminativeParams(b=np.zeros(2), w=np.zeros((2, 7)))
    save_model(disc, tmp_path / "narrow.model")
    code, _, err = run(capsys, "predict", "--model", str(tmp_path / "narrow.model"),
                       "--corpus", str(corpus))
    assert code == 2 and "M=" in err

    disc3 = DiscriminativeParams(b=np.zeros(3), w=np.zeros((3, 10)))
    save_model(disc3, tmp_path / "threeclass.model")
    code, _, err = run(capsys, "predict", "--model", str(tmp_path / "threeclass.model"),
                       "--corpus", str(corpus))
    assert code == 2 and "K=" in err

    code, _, err = run(capsys, "predict", "--model", str(tmp_path / "nope.model"),
                       "--corpus", str(corpus))
    assert code == 2


def test_predict_non_finite_prior_model_exits_2(tmp_path, capsys):
    corpus = make_corpus(tmp_path, capsys)
    model_path = tmp_path / "nan.model"
    save_model(DiscriminativeParams(b=np.zeros(2), w=np.zeros((2, 10))), model_path)
    lines = model_path.read_text().splitlines()
    lines[lines.index("b") + 1] = "nan 0"
    model_path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "predict", "--model", str(model_path),
                         "--corpus", str(corpus))
    # "nan" is outside the ASCII decimal grammar of model values
    assert code == 2 and out == ""
    assert "section 'b' has a token that is not an ASCII decimal (line 3)" in err


def test_predict_oversized_model_header_exits_2(tmp_path, capsys):
    corpus = make_corpus(tmp_path, capsys)
    model_path = tmp_path / "huge.model"
    model_path.write_text("hybridssl-model v2 K=2 M=1000000000000\nb\n0.5 0.5\nw\n0 0\n")
    code, out, err = run(capsys, "predict", "--model", str(model_path),
                         "--corpus", str(corpus))
    assert code == 2 and out == ""
    assert "section 'w' row has 2 values, expected 1000000000000 (line 5)" in err


def test_predict_refuses_a_v1_model_file(tmp_path, capsys):
    # v1 files also held pi and theta_tilde; they are refused, not read
    corpus = make_corpus(tmp_path, capsys)
    model_path = tmp_path / "v1.model"
    model_path.write_text("hybridssl-model v1 K=2 M=10\npi\n0.5 0.5\ntheta_tilde\n"
                          + ("0 " * 10 + "\n") * 2 + "b\n0 0\nw\n" + ("0 " * 10 + "\n") * 2)
    code, out, err = run(capsys, "predict", "--model", str(model_path),
                         "--corpus", str(corpus))
    assert code == 2 and out == ""
    assert err.startswith("error: model file is version v1, expected v2") and "(line 1)" in err


# ---------------------------------------------------------------------------
# sweep

def test_sweep_writes_csvs_and_best_lambda_lines(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code, out, err = run(capsys, "sweep", "--synthetic", SYN,
                         "--lambdas", "0,1", "--unlabeled", "0,10",
                         "--labeled-per-class", "5", "--seeds", "2",
                         "--max-iters", "10", "--out", prefix)
    assert code == 0
    results = (tmp_path / "run.results.csv").read_text().splitlines()
    aggregates = (tmp_path / "run.aggregate.csv").read_text().splitlines()
    assert results[0].startswith("lambda,unlabeled,seed,")
    assert len(results) == 1 + 2 * 2 * 2
    assert len(aggregates) == 1 + 2 * 2
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("unlabeled=0 best_lambda=")
    assert lines[1].startswith("unlabeled=10 best_lambda=")


def test_sweep_seed_count_expands_to_range(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code, _, _ = run(capsys, "sweep", "--synthetic", SYN,
                     "--lambdas", "0.5", "--unlabeled", "0",
                     "--labeled-per-class", "5", "--seeds", "3",
                     "--max-iters", "5", "--out", prefix)
    assert code == 0
    rows = (tmp_path / "run.results.csv").read_text().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["1", "2", "3"]


def test_sweep_explicit_seed_list(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code, _, _ = run(capsys, "sweep", "--synthetic", SYN,
                     "--lambdas", "0.5", "--unlabeled", "0",
                     "--labeled-per-class", "5", "--seeds", "7,9",
                     "--max-iters", "5", "--out", prefix)
    assert code == 0
    rows = (tmp_path / "run.results.csv").read_text().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["7", "9"]


def test_sweep_single_lambda_prints_plain_summary(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code, out, _ = run(capsys, "sweep", "--synthetic", SYN,
                       "--lambdas", "0.5", "--unlabeled", "0",
                       "--labeled-per-class", "5", "--seeds", "2",
                       "--max-iters", "5", "--out", prefix)
    assert code == 0
    assert out.splitlines()[0].startswith("unlabeled=0 lambda=0.500000 mean_acc=")


def test_sweep_rerun_is_byte_identical(tmp_path, capsys):
    args = ("sweep", "--synthetic", SYN, "--lambdas", "0,0.5",
            "--unlabeled", "0", "--labeled-per-class", "5", "--seeds", "2",
            "--max-iters", "10")
    code, out1, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
    assert code == 0
    code, out2, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
    assert code == 0
    assert out1 == out2
    assert ((tmp_path / "a.results.csv").read_bytes()
            == (tmp_path / "b.results.csv").read_bytes())
    assert ((tmp_path / "a.aggregate.csv").read_bytes()
            == (tmp_path / "b.aggregate.csv").read_bytes())


def test_sweep_corpus_file_and_jobs(tmp_path, capsys):
    corpus = make_corpus(tmp_path, capsys, recipe="2,10,0.6,40")
    prefix = str(tmp_path / "run")
    code, out, _ = run(capsys, "sweep", "--corpus", str(corpus),
                       "--lambdas", "0,1", "--unlabeled", "0",
                       "--labeled-per-class", "5", "--seeds", "1",
                       "--max-iters", "10", "--jobs", "2", "--out", prefix)
    assert code == 0
    assert out.splitlines()[0].startswith("unlabeled=0 best_lambda=")


def test_sweep_refuses_a_split_that_leaves_no_test_document(tmp_path, capsys):
    # 10 documents per class, all of them labeled by the split
    code, out, err = run(capsys, "sweep", "--synthetic", "2,10,0.5,10",
                         "--labeled-per-class", "10", "--unlabeled", "0",
                         "--lambdas", "0.5,1", "--seeds", "1", "--out", str(tmp_path / "s"))
    assert code == 2 and out == ""
    assert ("error: the split leaves no test document: 0 unlabeled and 10 labeled "
            "per class take every labeled document of the corpus") in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_failed_cells_exit_3(tmp_path, capsys, monkeypatch):
    good = ResultRow(lam=0.0, unlabeled=0, seed=1, accuracy=0.9,
                     gen_accuracy=0.9, outer_iters=2, converged=True, wall_ms=0.0)
    bad = ResultRow(lam=0.5, unlabeled=0, seed=1, accuracy=math.nan,
                    gen_accuracy=math.nan, outer_iters=0, converged=False,
                    wall_ms=0.0, failed=True, error="line search collapsed")
    monkeypatch.setattr(cli, "run_sweep", lambda spec, jobs, measure_time: [good, bad])
    code, out, err = run(capsys, "sweep", "--synthetic", SYN,
                         "--lambdas", "0,0.5", "--unlabeled", "0",
                         "--labeled-per-class", "5", "--seeds", "1",
                         "--out", str(tmp_path / "run"))
    assert code == 3
    assert "cell lambda=0.500000 unlabeled=0 seed=1 failed: line search collapsed" in err
    assert (tmp_path / "run.results.csv").exists()
    # the surviving cell still yields a summary line
    assert out.splitlines()[0] == "unlabeled=0 lambda=0.000000 mean_acc=0.900000"


def test_sweep_duplicate_seeds_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--synthetic", SYN, "--lambdas", "0.5",
                       "--unlabeled", "0", "--labeled-per-class", "5", "--seeds", "1,1",
                       "--out", str(tmp_path / "run"))
    assert code == 2 and "seed list contains duplicates" in err
    assert not (tmp_path / "run.results.csv").exists()


def test_sweep_missing_corpus_source_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--lambdas", "0,1", "--unlabeled", "0",
                       "--out", str(tmp_path / "run"))
    assert code == 2 and "exactly one" in err


# ---------------------------------------------------------------------------
# prior-curves

def test_prior_curves_export(tmp_path, capsys):
    path = tmp_path / "curves.csv"
    code, out, err = run(capsys, "prior-curves", "--grid", "21", "--out", str(path))
    assert code == 0
    assert "wrote 168 curve rows" in err  # 4 gammas x 2 axes x 21 points
    lines = path.read_text().splitlines()
    assert lines[0] == "gamma,axis_space,x,beta_density,normal_density"
    assert len(lines) == 169


def test_prior_curves_non_finite_density_exits_3(tmp_path, capsys):
    # at gamma = 1e200 the log density's terms cancel to values whose exp
    # overflows; the command must not write inf
    path = tmp_path / "c.csv"
    code, _, err = run(capsys, "prior-curves", "--gammas", "1e200", "--out", str(path))
    assert code == 3 and "numeric error: coupling prior density is not finite" in err
    assert not path.exists()


def test_prior_curves_overflowing_normalizer_exits_3(tmp_path, capsys):
    # lgamma(gamma + 2) overflows a float above gamma ~ 2.6e305
    path = tmp_path / "c.csv"
    code, _, err = run(capsys, "prior-curves", "--gammas", "1e306", "--out", str(path))
    assert code == 3
    assert "numeric error: coupling prior normalizer" in err and "gamma=1e+306" in err
    assert not path.exists()


def test_train_at_an_overflowing_gamma_exits_3(tmp_path, capsys):
    path = tmp_path / "m.txt"
    code, _, err = run(capsys, "train", "--synthetic", "2,20,0.5,30", "--gamma", "1e306",
                       "--max-iters", "2", "--out", str(path))
    assert code == 3
    assert "numeric error: coupling prior normalizer" in err and "gamma=1e+306" in err
    assert not path.exists()


def test_train_gauss_step_failure_names_the_coupling_variance(tmp_path, capsys):
    # the M-step writes the coupling in delta = (w - theta_tilde) / sigma_c,
    # where no term scales with gamma, so even sigma_c2 = 1e-306 fits
    path = tmp_path / "m.txt"
    code, _, err = run(capsys, "train", "--synthetic", "2,20,0.5,30", "--coupling", "gauss",
                       "--gamma", "1e306", "--max-iters", "2", "--out", str(path))
    assert code == 0 and "mode=hybrid" in err
    disc = load_model(path)
    assert np.all(np.isfinite(disc.b)) and np.all(np.isfinite(disc.w))


def test_prior_curves_at_an_extreme_center_stay_finite(tmp_path, capsys):
    # theta = logit(1e-300): both Beta shapes stay at least 1, so the
    # matched normal's variance is finite
    path = tmp_path / "c.csv"
    code, _, err = run(capsys, "prior-curves", "--theta-mean", "1e-300", "--grid", "51",
                       "--out", str(path))
    assert code == 0 and "wrote 408 curve rows" in err
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 408
    assert all(math.isfinite(float(v)) for row in rows for v in (row[2], row[3], row[4]))


def test_prior_curves_bad_theta_mean_exits_2(tmp_path, capsys):
    for bad in ("1.5", "nan"):
        code, _, err = run(capsys, "prior-curves", "--theta-mean", bad,
                           "--out", str(tmp_path / "c.csv"))
        assert code == 2 and "logit requires p in (0, 1)" in err


# ---------------------------------------------------------------------------
# parser plumbing

def test_import_does_not_load_scipy():
    """numpy is the only runtime dependency; importing scipy would also add
    about 0.2 s to every CLI start."""
    src = str(Path(hybridssl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = ("import sys, hybridssl, hybridssl.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_no_arguments_exits_2(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def readme_commands():
    """The hybridssl lines of README's Command line block, as argv lists."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("hybridssl ")]


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["synth", "train", "train", "predict",
                                              "sweep", "prior-curves"]
    for argv in commands:
        if argv[0] in ("train", "sweep"):
            argv += ["--max-iters", "5"]
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for cmd in ("train", "predict", "sweep", "synth", "prior-curves"):
        assert cmd in out


def test_every_option_is_documented(capsys):
    # each subcommand help lists all its options with default annotations
    inventory = {
        "train": ["--corpus", "--synthetic", "--seed", "--lambda", "--gamma",
                  "--coupling", "--disc-sigma2", "--max-iters",
                  "--tol", "--out"],
        "predict": ["--model", "--corpus"],
        "sweep": ["--corpus", "--synthetic", "--corpus-seed", "--lambdas",
                  "--unlabeled", "--labeled-per-class", "--seeds", "--coupling",
                  "--disc-sigma2", "--max-iters", "--tol", "--jobs",
                  "--measure-time", "--out"],
        "synth": ["--synthetic", "--seed", "--out"],
        "prior-curves": ["--theta-mean", "--gammas", "--grid", "--out"],
    }
    for cmd, options in inventory.items():
        code, out, _ = run(capsys, cmd, "--help")
        assert code == 0
        for opt in options:
            assert opt in out, (cmd, opt)
        assert "(default:" in out
