"""tvspec benchmark: time to a posterior, end to end and layer by layer.

Usage, from the root of a tvspec checkout:

    python3 perfbench/run.py --workload ls1-chain --seed 1 --seconds 50 --trace 0

The seed fixes the simulated input series and the sampler seed. One client
runs a closed loop: each ``tvspec estimate`` call runs in a fresh worker
process (``worker.py``), which imports ``tvspec.cli`` from ``src/`` and calls
``tvspec.cli.main(["estimate", ...])`` in-process. The next call starts when
the previous one has ended and its output has been checked, until
``--seconds`` have passed. Every call's output is checked; a call that fails
or whose output is wrong counts as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` cycles through
untraced, span-traced and memory-traced calls and reports the per-layer
metrics of the traced ones, plus the tracing overhead. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for section in ("end_to_end", "per_layer") for m in SPEC[section]}

SETUP_PROBES = 3  # import-only worker processes per run, after one warm-up
PERIODOGRAM_M = 50  # moving-periodogram window (`estimate --m`) of every workload
# A traced run cycles through these worker modes; None is an untraced call.
TRACE_CYCLE = (None, "spans", "memory")
CALL_TIMEOUT_S = 100  # a call takes about 4 s; a run must end within 180 s
SWEEPS_PER_PROGRESS = 1000  # run_chain calls its progress hook every 1000 sweeps
# An estimate must explain at least half the variance of the true log surface:
# its ASE must stay below half the ASE of the best flat surface.
ASE_SHARE_OF_FLAT = 0.5
SURFACE_HEADER = "u,lambda,mean,median,q05,q95"


@dataclass(frozen=True)
class Workload:
    name: str
    dgp: str  # tvspec.signal model simulated as the input series
    n: int  # series length
    thinning: int  # likelihood thinning
    iters: int
    burn_in: int
    thin: int  # keep every thin-th post-burn-in draw
    time_grid: int
    freq_grid: int

    def __post_init__(self):
        # Burn-in and the retained part must each span whole progress segments.
        post = self.iters - self.burn_in
        if self.burn_in % SWEEPS_PER_PROGRESS or post % SWEEPS_PER_PROGRESS or post <= 0:
            raise ValueError("burn-in and post-burn-in sweeps must be positive multiples of 1000")


# Why each workload: see NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        # Reference config; the sampler is bound by per-call overhead.
        Workload("ls1-chain", "LS1", 1500, 2, iters=5000, burn_in=3000, thin=20,
                 time_grid=201, freq_grid=101),
        # Short chain keeping every draw: summarize and output writing weigh as much as the chain.
        Workload("ls1-dense", "LS1", 1500, 2, iters=4000, burn_in=3000, thin=1,
                 time_grid=201, freq_grid=101),
        # Stationary S2 with 4000 likelihood entries: arithmetic per sweep grows.
        # Not gated in BENCHMARK.json yet; NOTES.md says why.
        Workload("s2-wide", "S2", 4100, 1, iters=3000, burn_in=2000, thin=10,
                 time_grid=41, freq_grid=41),
    )
}


@dataclass
class Run:
    workload: Workload
    seed: int
    setup_s: list
    calls: list  # one dict per estimate call, in the order run

    @property
    def attempted(self) -> int:
        return len(self.calls)

    @property
    def failed(self) -> int:
        return sum(bool(c["problems"]) for c in self.calls)


def require_source():
    """Exit with an error unless the checkout holds the tvspec sources."""
    if not (SRC / "tvspec" / "cli.py").is_file():
        sys.exit(f"error: no tvspec sources at {SRC}; run from the root of a tvspec checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def simulate_input(w: Workload, seed: int, path: Path):
    from tvspec.signal import DgpSpec, InnovationSpec, simulate_dgp

    series = simulate_dgp(DgpSpec(w.dgp, InnovationSpec("gaussian"), w.n), np.random.default_rng(seed))
    np.savetxt(path, series.values, fmt="%.17g", header="x", comments="")


def estimate_argv(w: Workload, seed: int, series: Path, out_dir: Path) -> list:
    return [
        "estimate", "--input", str(series), "--output-dir", str(out_dir), "--seed", str(seed),
        "--m", str(PERIODOGRAM_M), "--thinning", str(w.thinning), "--iters", str(w.iters),
        "--burnin", str(w.burn_in), "--thin", str(w.thin),
        "--time-grid", str(w.time_grid), "--freq-grid", str(w.freq_grid),
    ]  # fmt: skip


def call_worker(result: Path, argv=None, trace=None, spans=None) -> dict:
    """Run worker.py in a fresh process and return its report."""
    spec = {"src": str(SRC), "argv": argv, "trace": trace, "spans": spans and str(spans), "result": str(result)}
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CALL_TIMEOUT_S,
        )  # fmt: skip
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {CALL_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result.is_file():
        return {"error": f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(result.read_text())


def bf01_ceiling() -> float:
    """Largest Savage-Dickey BF01 the default prior allows: 1 / P(k1 = 1)."""
    from tvspec.prior import PriorConfig, prior_prob_k1_equals_1

    return 1.0 / prior_prob_k1_equals_1(PriorConfig())


def surface_ase(w: Workload, mean: np.ndarray):
    """(ASE of the posterior-mean surface, ASE of the best flat surface) against the truth."""
    from tvspec.inference import ase
    from tvspec.signal import true_tv_psd

    nt, nf = w.time_grid, w.freq_grid
    est = mean.reshape(nt, nf)

    def estimate(u, lam):
        return est[np.rint(u * (nt - 1)).astype(int), np.rint(lam * (nf - 1)).astype(int)]

    def truth(u, lam):
        return true_tv_psd(w.dgp, u, lam)

    # ase() scores the grid {t/T} x {j/K}; the surface grid is {i/(nt-1)} x {j/(nf-1)}.
    value = ase(estimate, truth, nt - 1, nf - 1)
    log_truth = np.log(truth(np.arange(1, nt)[:, None] / (nt - 1), np.linspace(0, 1, nf)))
    return value, float(log_truth.var())


def check_output(w: Workload, out_dir: Path):
    """Check one estimate's output files.

    Returns (problems, fingerprint, info); the call is correct when
    ``problems`` is empty. The fingerprint is (sha256 of surface.csv, BF01).
    """
    try:
        raw = (out_dir / "surface.csv").read_bytes()
        metadata = json.loads((out_dir / "metadata.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], None, {}
    lines = raw.decode(errors="replace").splitlines()
    bf01 = metadata.get("bayes_factor_01")
    info = {"csv_bytes": len(raw), "runtime_seconds": metadata.get("runtime_seconds")}
    fingerprint = (hashlib.sha256(raw).hexdigest(), bf01)

    problems = []
    if not isinstance(bf01, (int, float)) or not 0.0 <= bf01 <= bf01_ceiling():
        problems.append(f"BF01 {bf01!r} outside [0, {bf01_ceiling()}]")
    if not isinstance(info["runtime_seconds"], (int, float)) or not info["runtime_seconds"] > 0:
        problems.append(f"bad runtime_seconds {info['runtime_seconds']!r}")
    if not lines or lines[0] != SURFACE_HEADER:
        return problems + ["surface.csv header is not " + SURFACE_HEADER], fingerprint, info
    rows = w.time_grid * w.freq_grid
    if len(lines) - 1 != rows:
        return problems + [f"surface.csv has {len(lines) - 1} rows, not {rows}"], fingerprint, info
    try:
        table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        return problems + [f"surface.csv does not parse: {exc}"], fingerprint, info
    if table.shape != (rows, 6):
        return problems + [f"surface.csv has shape {table.shape}"], fingerprint, info
    u, lam, mean, median, q05, q95 = table.T
    grid_u = np.repeat(np.linspace(0.0, 1.0, w.time_grid), w.freq_grid)
    grid_lam = np.tile(np.linspace(0.0, 1.0, w.freq_grid), w.time_grid)
    if not (np.allclose(u, grid_u, rtol=0, atol=1e-12) and np.allclose(lam, grid_lam, rtol=0, atol=1e-12)):
        problems.append("surface.csv rows are not the requested grid")
    values = table[:, 2:]
    if not np.all(np.isfinite(values) & (values > 0.0)):
        return problems + ["surface values not all finite and > 0"], fingerprint, info
    if np.any(q05 > median) or np.any(median > q95):
        problems.append("quantiles out of order: need q05 <= median <= q95")
    info["ase"], flat = surface_ase(w, mean)
    if not info["ase"] <= ASE_SHARE_OF_FLAT * flat:
        problems.append(f"ASE {info['ase']:.4g} above {ASE_SHARE_OF_FLAT} x flat-surface ASE {flat:.4g}")
    return problems, fingerprint, info


def run_call(w: Workload, seed: int, series: Path, work: Path, index: int, trace) -> dict:
    """One estimate call in a fresh worker, with its output checked.

    ``trace`` is the worker's trace mode: None, "spans" or "memory".
    """
    out_dir = work / f"call{index}"
    spans = None
    if trace:
        spans = WORK / "traces" / f"{w.name}-seed{seed}-call{index}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
    report = call_worker(work / f"call{index}.json", estimate_argv(w, seed, series, out_dir), trace, spans)
    call = {"trace": trace, "problems": [], "fingerprint": None, **report}
    if report.get("error") or report.get("rc") != 0:
        call["problems"].append(f"estimate failed: rc={report.get('rc')} {report.get('error') or ''}")
        return call
    problems, call["fingerprint"], info = check_output(w, out_dir)
    call["problems"] += problems
    call.update(info)
    return call


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> Run:
    """Run the closed loop for ``seconds`` (at least one call of each kind)."""
    work = WORK / f"{w.name}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        series = work / "series.csv"
        simulate_input(w, seed, series)
        call_worker(work / "warmup.json")  # compiles bytecode and fills the file cache
        setup = []
        for i in range(SETUP_PROBES):
            probe = call_worker(work / f"probe{i}.json")
            if "import_s" not in probe:
                raise RuntimeError(f"import probe failed: {probe.get('error')}")
            setup.append(probe["import_s"])
        cycle = TRACE_CYCLE if trace else (None,)
        calls = []
        start = time.perf_counter()
        while len(calls) < len(cycle) or time.perf_counter() - start < seconds:
            mode = cycle[len(calls) % len(cycle)]
            calls.append(run_call(w, seed, series, work, len(calls), mode))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Every call ran the same input and seed, so every output must be identical,
    # traced or not.
    reference = next((c["fingerprint"] for c in calls if c["fingerprint"]), None)
    for c in calls:
        if c["fingerprint"] and c["fingerprint"] != reference:
            c["problems"].append(f"fingerprint {c['fingerprint']} differs from {reference}")
    return Run(w, seed, setup, calls)


def _ok(run: Run, trace) -> list:
    return [c for c in run.calls if c["trace"] == trace and not c["problems"]]


def end_to_end_metrics(run: Run) -> dict:
    """Medians over the run's correct untraced calls; setup_s also over the probes."""
    ok = _ok(run, trace=None)
    samples = {
        "estimate_s": [c["estimate_s"] for c in ok],
        "sweeps_per_s": [run.workload.iters / c["runtime_seconds"] for c in ok],
        "setup_s": run.setup_s + [c["import_s"] for c in run.calls if "import_s" in c],
        "peak_rss_mb": [c["peak_rss_mb"] for c in ok],
    }
    return {
        name: {"value": statistics.median(v), "unit": UNITS[name], "n": len(v)}
        for name, v in samples.items()
        if v
    }


def layer_metrics(run: Run) -> dict:
    """Medians of the per-layer figures over the run's correct traced calls.

    Each figure comes from the calls whose trace mode reports it: the
    tracemalloc peak from memory-traced calls, the rest from span-traced ones.
    """
    spanned, memory = _ok(run, trace="spans"), _ok(run, trace="memory")
    samples = {}
    for c in spanned + memory:
        for name, value in c["layers"].items():
            samples.setdefault(name, []).append(value)
    if spanned:
        samples["cli.surface_csv_bytes"] = [c["csv_bytes"] for c in spanned]
    untraced = [c["estimate_s"] for c in _ok(run, trace=None)]
    if spanned and untraced:
        overhead = statistics.median(c["estimate_s"] for c in spanned) - statistics.median(untraced)
        samples["trace.overhead_s"] = [overhead]
    return {
        name: {"value": statistics.median(v), "unit": UNITS[name], "n": len(v)}
        for name, v in samples.items()
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):  # fmt: skip
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def machine_info() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def report(run: Run, trace: bool) -> dict:
    """Print the run in readable lines; return the final JSON object."""
    print(f"workload {run.workload.name} seed {run.seed}: {run.workload}")
    print(f"machine: {json.dumps(machine_info())}")
    fingerprints = {c["fingerprint"] for c in run.calls if c["fingerprint"]}
    for sha, bf01 in sorted(fingerprints, key=str):
        print(f"fingerprint: surface.csv sha256 {sha} BF01 {bf01!r}")
    ases = [c["ase"] for c in run.calls if "ase" in c]
    if ases:
        print(f"ase (tvspec.ase, posterior mean vs true tv-PSD): median {statistics.median(ases):.6g}")
    for i, c in enumerate(run.calls):
        for problem in c["problems"]:
            print(f"call {i} FAILED: {problem}")
    print(f"fail_frac = {run.failed}/{run.attempted} = {run.failed / run.attempted:.4g}")
    metrics = layer_metrics(run) if trace else end_to_end_metrics(run)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (median of {m['n']})")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    run = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
