"""Span tracing of the program's layers, from outside the program.

install() replaces every public function of the traced modules, in every
hybridssl module namespace that binds it, with a wrapper that records a
span (name, start, end, depth, self time). Self time is the span's
duration minus the time of the wrapped calls made inside it. Spans stay
in memory; write_spans() dumps them once the run is over.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

TRACED_MODULES = ("rng", "expfam", "data", "model", "trainer", "harness", "cli")
# mix64 runs once per random draw inside shuffle; a span around it would
# cost more than the work it measures.
UNTRACED = frozenset({"rng.mix64"})


class Tracer:
    def __init__(self):
        self.spans = []        # (name, pass, depth, start_ns, end_ns, self_ns)
        self.fits = []         # (pass, outer_iters, converged) per trainer.train call
        self.parsed_nnz = []   # (pass, nnz) per data.load_corpus call
        self.pass_index = 0
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                children = stack.pop()
                if stack:
                    stack[-1] += end - start
                spans.append((name, self.pass_index, len(stack), start, end,
                              end - start - children))
            self._observe(name, result)
            return result

        return traced

    def _observe(self, name, result):
        if name == "trainer.train":
            report = result[2]
            self.fits.append((self.pass_index, report.outer_iters_run, report.converged))
        elif name == "data.load_corpus":
            self.parsed_nnz.append(
                (self.pass_index, sum(len(inst.features) for inst in result)))


def install(tracer):
    """Wrap the traced functions; returns an undo list for uninstall()."""
    import hybridssl
    wrapped = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"hybridssl.{short}"]
        for name, obj in list(vars(module).items()):
            label = f"{short}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and label not in UNTRACED):
                wrapped[id(obj)] = tracer.wrap(label, obj)
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "hybridssl" and not mod_name.startswith("hybridssl."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                undo.append((module, attr, obj))
                setattr(module, attr, wrapped[id(obj)])
    shuffle = hybridssl.rng.SplitMix64.shuffle
    undo.append((hybridssl.rng.SplitMix64, "shuffle", shuffle))
    hybridssl.rng.SplitMix64.shuffle = tracer.wrap("rng.SplitMix64.shuffle", shuffle)
    return undo


def uninstall(undo):
    for owner, attr, obj in reversed(undo):
        setattr(owner, attr, obj)


def _cell_times(spans):
    """Sweep cell durations: each cell starts with its protocol split, so a
    cell runs from one data.sample_split start to the next, and the last
    one to the end of run_sweep."""
    sweeps = [s for s in spans if s[0] == "harness.run_sweep"]
    cells = []
    for _, _, _, sweep_start, sweep_end, _ in sweeps:
        starts = sorted(s[3] for s in spans
                        if s[0] == "data.sample_split" and sweep_start <= s[3] <= sweep_end)
        cells += [b - a for a, b in zip(starts, starts[1:] + [sweep_end])]
    return cells


def pass_layers(tracer, pass_index, extra):
    """Per-layer metrics of one traced pass, in seconds, counts and rates.
    ``extra`` carries what the worker measured itself (model file size,
    documents predicted)."""
    spans = [s for s in tracer.spans if s[1] == pass_index]
    total, own, calls = {}, {}, {}
    for name, _, _, start, end, self_ns in spans:
        total[name] = total.get(name, 0) + end - start
        own[name] = own.get(name, 0) + self_ns
        calls[name] = calls.get(name, 0) + 1

    def sec(name):
        return total.get(name, 0) / 1e9

    def self_sec(*names):
        return sum(own.get(n, 0) for n in names) / 1e9

    fits = [f for f in tracer.fits if f[0] == pass_index]
    nnz = sum(n for p, n in tracer.parsed_nnz if p == pass_index)
    cells = _cell_times(spans)
    predict_s = sec("cli.cmd_predict")
    return {
        "trainer.disc_self_s": self_sec("trainer.train", "trainer.train_logreg"),
        "trainer.outer_iters": sum(f[1] for f in fits),
        "trainer.converged_fits": sum(1 for f in fits if f[2]),
        "trainer.fits": len(fits),
        "rng.shuffle_s": sec("rng.SplitMix64.shuffle"),
        "harness.run_sweep_s": sec("harness.run_sweep"),
        "harness.cell_p50_s": statistics.median(cells) / 1e9 if cells else 0.0,
        "trainer.generative_update_gauss_s": sec("trainer.generative_update_gauss"),
        "trainer.generative_update_beta_s": sec("trainer.generative_update_beta"),
        "data.load_corpus_s": sec("data.load_corpus"),
        "data.parse_nnz_per_s": nnz / sec("data.load_corpus") if nnz else 0.0,
        "model.nb_scores_matrix_s": sec("model.nb_scores_matrix"),
        "model.lr_scores_matrix_s": sec("model.lr_scores_matrix"),
        "model.log_joint_self_s": self_sec("model.log_joint", "model.log_joint_blocks"),
        "expfam.digamma_s": sec("expfam.digamma"),
        "expfam.digamma_calls": calls.get("expfam.digamma", 0),
        "expfam.beta_prior_log_density_s": sec("expfam.beta_prior_log_density"),
        "model.save_model_s": sec("model.save_model"),
        "model.load_model_s": sec("model.load_model"),
        "model.model_file_mb": extra.get("model_file_mb", 0.0),
        "cli.cmd_train_s": sec("cli.cmd_train"),
        "cli.cmd_predict_s": predict_s,
        "cli.predict_docs_per_s": extra.get("predicted_docs", 0) / predict_s if predict_s else 0.0,
        "trainer.train_nb_em_s": sec("trainer.train_nb_em"),
        "data.sample_split_s": sec("data.sample_split"),
        "data.generate_synthetic_s": sec("data.generate_synthetic"),
    }


def write_spans(tracer, path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("name\tpass\tdepth\tstart_ns\tend_ns\tself_ns\n")
        for span in tracer.spans:
            fh.write("\t".join(str(v) for v in span) + "\n")
