"""Print the tracemalloc peak of each phase of `hybridssl train` and
`hybridssl predict`, to show where a change moves their working set.

    PYTHONPATH=src python tools/peak_memory.py TRAIN_CORPUS TEST_CORPUS \
        [--lambda 0.5] [--coupling beta] [--max-iters 3] [--seed 0]

Both commands run through hybridssl.cli.main: train on TRAIN_CORPUS into a
temporary model file, then predict TEST_CORPUS with it. Each line is

    <command> <phase> <peak MB> <peak in K x M float64 arrays>

The command line is that command's whole peak; a phase line is the
highest traced memory while the phase ran, counting what was already
allocated when it began. Train's phases are load_corpus, the BETA
generative step, the GAUSSIAN M-step, the SGD epochs, the E-step scoring
(every nb_scores_matrix call the trainer makes: the initial
responsibilities and, each outer iteration, the scores that the log
joint and the next E-step share), the log joint,
train_logreg (the whole lam = 1 fit) and save_model; predict's are
load_model, load_corpus and scoring (lr_scores_matrix). The moments that
set a command's peak lie inside these phases, so its line matches its
highest phase line. A phase that runs more than once reports its highest
peak. tracemalloc counts numpy's buffers along with Python objects, so
the figures do not depend on the machine; the run is a few times slower
than an untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
import tracemalloc

from hybridssl import cli, trainer

# (module, function, phase) of each measured phase, per command
PHASES = {
    "train": ((cli, "load_corpus", "load_corpus"),
              (trainer, "generative_update_beta", "generative_step"),
              (trainer, "_gauss_m_step", "m_step"),
              (trainer, "_sgd_epochs", "sgd_epochs"),
              (trainer, "nb_scores_matrix", "e_step_scoring"),
              (trainer, "log_joint_blocks", "log_joint"),
              (trainer, "train_logreg", "train_logreg"),
              (cli, "save_model", "save_model")),
    "predict": ((cli, "load_model", "load_model"),
                (cli, "load_corpus", "load_corpus"),
                (cli, "lr_scores_matrix", "scoring")),
}


class PhasePeaks:
    """Traced peaks per phase. Each watched call restarts tracemalloc's
    peak and reads it when the call returns; the peak from before the call
    is folded into the command's running peak first."""

    def __init__(self):
        self.phases = {}
        self.command_peak = 0

    def _fold(self):
        self.command_peak = max(self.command_peak, tracemalloc.get_traced_memory()[1])

    def watch(self, fn, phase):
        def watched(*args, **kwargs):
            self._fold()
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self.phases[phase] = max(self.phases.get(phase, 0), peak)
                self._fold()
        return watched

    def run(self, command, argv):
        """Run cli.main(argv) with command's phases watched; returns its
        exit code."""
        originals = [(module, name, getattr(module, name)) for module, name, _ in PHASES[command]]
        for module, name, phase in PHASES[command]:
            setattr(module, name, self.watch(getattr(module, name), phase))
        tracemalloc.start()
        try:
            return cli.main(argv)
        finally:
            self._fold()
            tracemalloc.stop()
            for module, name, fn in originals:
                setattr(module, name, fn)


def _header_shape(path):
    """(K, M) from a corpus file's header line "# hybridssl-corpus v1 K=.. M=.."."""
    with open(path, encoding="utf-8") as fh:
        fields = dict(part.split("=", 1) for part in fh.readline().split() if "=" in part)
    return int(fields["K"]), int(fields["M"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("train_corpus")
    parser.add_argument("test_corpus")
    parser.add_argument("--lambda", dest="lam", default="0.5")
    parser.add_argument("--coupling", default="beta")
    parser.add_argument("--max-iters", default="3")
    parser.add_argument("--seed", default="0")
    args = parser.parse_args(argv)
    k, m = _header_shape(args.train_corpus)
    array_bytes = 8 * k * m

    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "model.txt")
        commands = (
            ("train", ["train", "--corpus", args.train_corpus, "--lambda", args.lam,
                       "--coupling", args.coupling, "--max-iters", args.max_iters,
                       "--seed", args.seed, "--out", model]),
            ("predict", ["predict", "--model", model, "--corpus", args.test_corpus]))
        for command, command_argv in commands:
            peaks = PhasePeaks()
            # predict's predictions go to standard output
            with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
                status = peaks.run(command, command_argv)
            if status != 0:
                print(f"peak_memory: {command} exited with {status}", file=sys.stderr)
                return status
            lines = [(command, "-", peaks.command_peak)]
            phases = dict.fromkeys(phase for _, _, phase in PHASES[command])
            lines += [(command, phase, peaks.phases[phase])
                      for phase in phases if phase in peaks.phases]
            for name, phase, peak in lines:
                print(f"{name:8s} {phase:16s} {peak / 1e6:7.1f} MB "
                      f"{peak / array_bytes:6.2f} arrays")
    return 0


if __name__ == "__main__":
    sys.exit(main())
