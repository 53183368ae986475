"""Spans and counters around tvspec's layers, recorded from outside the program.

``Tracer.install`` replaces the layer functions under the names by which
``tvspec.cli``, ``tvspec.sampler`` and ``tvspec.inference`` call them.
Stage functions (periodogram, grid, chain, summary, basis matrices) get a
span each: name, start, end and the span that called it, kept in memory and
written once at the end. The per-sweep functions (``atom_bins``,
``stick_weights``) are only counted, because a span per call would cost more
than the call. No wrapper changes an argument or a result, except that the
chain gets a ``progress`` callback, which only reads the chain's state.

A memory tracer (``Tracer(memory=True)``) instead wraps only ``summarize``,
with tracemalloc and no spans. Its hook on every allocation slows
``summarize`` down, so its peak is taken in calls of its own and the span
timings never include it.
"""

import json
import time
import tracemalloc

import numpy as np

import tvspec.cli
import tvspec.inference
import tvspec.sampler
from ess import geyer_ess

BLOCKS = ("k1", "k2", "W1", "W2", "V", "tau")
ESS_SERIES = ("log_tau", "k1", "log_post")


class Tracer:
    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []  # dicts: name, start, end, parent (index or None)
        self.counts = {"sampler.atom_bins": 0, "sampler.stick_weights": 0}
        self.progress = []  # (time, iteration, overall acceptance rates)
        self.entries = None
        self.samples = None
        self.summary_cells = None
        self.summarize_peak_bytes = None
        self._open = []
        self._patched = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn):
        """Wrap ``fn`` so that every call records a span called ``name``."""

        def traced(*args, **kwargs):
            record = {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._open[-1] if self._open else None,
            }
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._open.pop()

        return traced

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _build_grid(self, fn):
        def build_grid(*args, **kwargs):
            grid = fn(*args, **kwargs)
            self.entries = len(grid)
            return grid

        return build_grid

    def _run_chain(self, fn):
        def run_chain(*args, **kwargs):
            kwargs["progress"] = self._on_progress
            self.samples = fn(*args, **kwargs)
            return self.samples

        return run_chain

    def _on_progress(self, iteration, log_post, rates):
        self.progress.append((time.perf_counter(), iteration, dict(rates)))

    def _summarize(self, fn):
        def summarize(samples, time_grid, freq_grid, *args, **kwargs):
            self.summary_cells = len(samples) * np.size(time_grid) * np.size(freq_grid)
            return fn(samples, time_grid, freq_grid, *args, **kwargs)

        return summarize

    def _summarize_memory(self, fn):
        def summarize(*args, **kwargs):
            tracemalloc.start()
            try:
                summary = fn(*args, **kwargs)
                self.summarize_peak_bytes = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return summary

        return summarize

    def _patch(self, module, attr, wrapper):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper(original))

    def install(self):
        cli, sampler, inference = tvspec.cli, tvspec.sampler, tvspec.inference
        if self.memory:
            self._patch(cli, "summarize", self._summarize_memory)
            return
        self._patch(cli, "moving_periodograms", lambda f: self.span("periodogram", f))
        self._patch(
            cli, "build_grid", lambda f: self.span("likelihood.build_grid", self._build_grid(f))
        )
        self._patch(cli, "run_chain", lambda f: self.span("sampler.chain", self._run_chain(f)))
        self._patch(
            cli, "summarize", lambda f: self.span("inference.summarize", self._summarize(f))
        )
        self._patch(sampler, "atom_bins", lambda f: self._counted("sampler.atom_bins", f))
        self._patch(sampler, "stick_weights", lambda f: self._counted("sampler.stick_weights", f))
        self._patch(sampler, "basis_matrix", lambda f: self.span("surface.basis_matrix", f))
        self._patch(inference, "basis_matrix", lambda f: self.span("inference.basis_matrix", f))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def _durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_time(self, name) -> float:
        """Total time of spans ``name`` minus the time their child spans cover."""
        ids = {i for i, s in enumerate(self.spans) if s["name"] == name}
        child = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in ids)
        return sum(self._durations(name)) - child

    def layer_metrics(self) -> dict:
        """Per-layer figures of one traced ``estimate`` call, keyed by metric name."""
        if self.memory:
            return {"inference.summarize_peak_mb": self.summarize_peak_bytes / 2**20}
        samples = self.samples
        n_iter, burn_in = samples.sampler.n_iter, samples.sampler.burn_in
        chain_s = sum(self._durations("sampler.chain"))
        chain_start = next(s["start"] for s in self.spans if s["name"] == "sampler.chain")
        marks = np.array([chain_start] + [t for t, _, _ in self.progress])
        ends = np.array([it for _, it, _ in self.progress])
        segments = np.diff(marks)  # one per 1000 sweeps
        sweeps = np.diff(np.concatenate(([0], ends)))
        burn = ends <= burn_in
        evals = self.counts["sampler.atom_bins"] / 2  # two atom_bins calls per surface
        ess = {name: geyer_ess(getattr(samples, name)) for name in ESS_SERIES}
        summarize_s = sum(self._durations("inference.summarize"))
        metrics = {
            "periodogram.s": sum(self._durations("periodogram")),
            "likelihood.build_grid_s": sum(self._durations("likelihood.build_grid")),
            "likelihood.entries": self.entries,
            "likelihood.entry_evals": evals * self.entries,
            "surface.evals": evals,
            "surface.evals_per_sweep": evals / n_iter,
            "surface.basis_matrix_calls": len(self._durations("surface.basis_matrix")),
            "surface.basis_matrix_s": sum(self._durations("surface.basis_matrix")),
            "surface.stick_weights_calls": self.counts["sampler.stick_weights"],
            "sampler.chain_s": chain_s,
            "sampler.burnin_ms_per_sweep": 1e3 * segments[burn].sum() / sweeps[burn].sum(),
            "sampler.post_ms_per_sweep": 1e3 * segments[~burn].sum() / sweeps[~burn].sum(),
            "sampler.segment_ms_p90": float(
                np.percentile(1e3 * segments, 90, method="inverted_cdf")
            ),
            "sampler.min_ess_per_s": min(ess.values()) / chain_s,
            "inference.summarize_s": summarize_s,
            "inference.summarize_cells_per_s": self.summary_cells / summarize_s,
            "inference.basis_matrix_calls": len(self._durations("inference.basis_matrix")),
            "cli.self_s": self.self_time("cli.estimate"),
        }
        final_rates = self.progress[-1][2]
        metrics.update({f"sampler.accept.{b}": final_rates[b] for b in BLOCKS})
        metrics.update({f"sampler.ess.{name}": value for name, value in ess.items()})
        return {k: float(v) for k, v in metrics.items()}
