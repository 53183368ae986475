"""Command-line front end: simulate, periodogram, estimate, ase.

Exit codes: 0 success, 2 usage error (argparse), 3 data or runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.random

from . import __version__
from .inference import ase, summarize
from .likelihood import build_grid
from .periodogram import WindowConfig, fourier_frequencies, mod_index, moving_periodograms
from .prior import PriorConfig
from .sampler import BLOCK_NAMES, SamplerConfig, run_chain
from .signal import (
    INNOVATION_ALIASES,
    VALID_DGPS,
    DgpSpec,
    InnovationSpec,
    TimeSeries,
    simulate_dgp,
    true_tv_psd,
)
from .surface import BetaBasisConfig

FLOAT_FMT = "%.17g"
WRITE_ROWS = 1024  # rows per block of _write_table
SURFACE_HEADER = "u,lambda,mean,median,q05,q95"  # estimate writes it, ase requires it
# Peak bytes per degree of k_max: PriorConfig's basis check (tracemalloc, numpy 2.4).
# The chain's degree_pmf and log_pmf and summarize's two pmfs take less, and later.
KMAX_BYTES = 105


class DataError(RuntimeError):
    """Input data problem; maps to exit code 3."""


def _write_table(path: Path, table: np.ndarray, header: str):
    """Write a 2-D table as CSV under a one-line header, byte for byte as
    ``np.savetxt(path, table, fmt=FLOAT_FMT, delimiter=",", header=header,
    comments="")`` does; a whole number prints as ``%d`` prints it.  Each
    block of WRITE_ROWS rows is formatted by a single ``%`` over its values,
    not one per row; formatting the whole table at once would hold a Python
    float per value."""
    row = ",".join([FLOAT_FMT] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(table), WRITE_ROWS):
            block = table[lo : lo + WRITE_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _read_series_csv(path: str) -> TimeSeries:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"input file not found: {path}")
    lines = p.read_text().splitlines()
    start = 0
    if lines:
        try:
            float(lines[0].split(",")[0])
        except ValueError:
            start = 1  # header row
    values = []
    for row, line in enumerate(lines[start:], start=start + 1):
        line = line.strip()
        if not line:
            continue
        try:
            v = float(line.split(",")[0])
        except ValueError as exc:
            raise DataError(f"cannot parse value at row {row}: {line!r}") from exc
        if not np.isfinite(v):
            raise DataError(f"non-finite value at row {row}")
        values.append(v)
    if not values:
        raise DataError(f"no samples found in {path}")
    return TimeSeries(np.asarray(values))


def cmd_simulate(args) -> int:
    spec = DgpSpec(model=args.dgp, innovation=InnovationSpec(args.innov), T=args.T)
    series = simulate_dgp(spec, np.random.default_rng(args.seed))
    out = Path(args.output)
    _write_table(out, series.values[:, None], "x")
    print(f"wrote {len(series)} samples to {out} (seed {args.seed})")
    return 0


def cmd_periodogram(args) -> int:
    series = _read_series_csv(args.input)
    pg = moving_periodograms(series, WindowConfig(m=args.m))
    out = Path(args.output)
    t = np.arange(1, pg.T + 1)
    j = mod_index(t, pg.m)
    _write_table(
        out,
        np.column_stack((t, t / pg.T, j, fourier_frequencies(pg.m)[j - 1], pg.ordinates)),
        "t,u,lambda_index,lambda,MI",
    )
    print(f"wrote {pg.T} ordinates to {out}")
    return 0


def _estimate_one(
    series: TimeSeries, args, prior_cfg: PriorConfig, sampler_cfg: SamplerConfig, out_dir: Path
) -> dict:
    # Stage timings for metadata.json: periodogram, grid, chain, summarize
    # and write (surface.csv and draws.npz, not metadata.json itself).
    marks = [time.perf_counter()]
    pg = moving_periodograms(series, WindowConfig(m=args.m))
    marks.append(time.perf_counter())
    grid = build_grid(pg.T, args.m, args.thinning)
    marks.append(time.perf_counter())
    samples = run_chain(pg, grid, prior_cfg, sampler_cfg)
    marks.append(time.perf_counter())
    time_grid = np.linspace(0.0, 1.0, args.time_grid)
    freq_grid = np.linspace(0.0, 1.0, args.freq_grid)
    summary = summarize(samples, time_grid, freq_grid, len(series), args.m)
    marks.append(time.perf_counter())

    out_dir.mkdir(parents=True, exist_ok=True)
    uu, ll = np.meshgrid(time_grid, freq_grid, indexing="ij")
    columns = (uu, ll, summary.mean, summary.median, summary.q05, summary.q95)
    _write_table(
        out_dir / "surface.csv",
        np.column_stack([c.ravel() for c in columns]),
        SURFACE_HEADER,
    )
    if args.save_draws:
        np.savez_compressed(
            out_dir / "draws.npz",
            k1=samples.k1,
            k2=samples.k2,
            log_tau=samples.log_tau,
            V=samples.V,
            W1=samples.W1,
            W2=samples.W2,
            log_post=samples.log_post,
        )
    marks.append(time.perf_counter())

    config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    metadata = {
        "config": {**config, "seed": sampler_cfg.seed, "version": __version__},
        "n_draws": len(samples),
        "bayes_factor_01": summary.bayes_factor_01,
        "k1_pmf": summary.k1_pmf.tolist(),
        "k2_pmf": summary.k2_pmf.tolist(),
        "acceptance": samples.acceptance,
        "acceptance_non_null": samples.acceptance_non_null,
        "acceptance_windows": samples.acceptance_windows,
        "runtime_seconds": samples.runtime_seconds,
        "timings_s": dict(zip(("periodogram", "grid", "chain", "summarize", "write"),
                              np.diff(marks).tolist())),
        "tau_width_final": samples.tau_width_final,
        "log_posterior": {
            "first": float(samples.log_post[0]),
            "last": float(samples.log_post[-1]),
            "min": float(samples.log_post.min()),
            "max": float(samples.log_post.max()),
            "mean": float(samples.log_post.mean()),
        },
    }
    with (out_dir / "metadata.json").open("w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return metadata


def _check_fits(args, workers: int):
    """Reject a run whose large arrays, counted from the arguments alone,
    exceed physical memory: per concurrent chain, the int8 move log, the
    (nf, n_keep) block and (4, nt, nf) statistics of ``summarize``, the
    output table's six columns with the two meshgrid arrays, and the arrays
    of length k_max (KMAX_BYTES per degree)."""
    cells = args.time_grid * args.freq_grid
    n_keep = (args.iters - args.burnin) // args.thin
    floats = args.freq_grid * n_keep + (4 + 6 + 2) * cells
    need = workers * (args.iters * len(BLOCK_NAMES) + 8 * floats + KMAX_BYTES * args.kmax)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise DataError(
            f"the run needs about {need / 2**30:.3g} GiB of arrays, more than the "
            f"{have / 2**30:.3g} GiB of physical memory"
        )


def cmd_estimate(args) -> int:
    # Bad settings fail here, before the input is read or a worker started,
    # and a run too large for memory before PriorConfig builds its k_max tables.
    workers = min(args.chains, os.cpu_count() or 1)
    _check_fits(args, workers)
    prior_cfg = PriorConfig(
        k_max=args.kmax,
        basis=BetaBasisConfig(xi_left=args.xi_l, xi_right=args.xi_r),
        truncation_override=args.truncation_L,
    )
    sampler_cfg = SamplerConfig(
        n_iter=args.iters, burn_in=args.burnin, thin=args.thin, seed=args.seed
    )
    series = _read_series_csv(args.input)
    out_dir = Path(args.output_dir)
    if args.chains == 1:
        meta = _estimate_one(series, args, prior_cfg, sampler_cfg, out_dir)
        print(f"bayes_factor_01={meta['bayes_factor_01']:.6g} -> {out_dir}")
        return 0
    # Spawned seeds give independent streams; each chain's metadata.json
    # records its own, which reruns that chain alone as --seed.
    seeds = [
        int(child.generate_state(1, np.uint64)[0])
        for child in np.random.SeedSequence(args.seed).spawn(args.chains)
    ]
    # Imported here, not with the module: the pool's import takes about
    # 20 ms and 2 MB, which a one-chain run would pay for nothing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(
                _estimate_one,
                series,
                args,
                prior_cfg,
                replace(sampler_cfg, seed=s),
                out_dir / f"chain_{c:02d}",
            )
            for c, s in enumerate(seeds)
        ]
        for c, fut in enumerate(futures):
            meta = fut.result()
            print(f"chain {c}: bayes_factor_01={meta['bayes_factor_01']:.6g}")
    return 0


def cmd_ase(args) -> int:
    path = Path(args.surface)
    if not path.is_file():
        raise DataError(f"surface file not found: {args.surface}")
    with path.open() as fh:
        if fh.readline().rstrip("\n") != SURFACE_HEADER:
            raise DataError(f"surface CSV header must be {SURFACE_HEADER!r}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2), ndmin=2)
    # u-major order; estimate writes u in {0, 1/T, ..., 1}, the score uses {1/T, ..., 1}.
    table = table[np.lexsort((table[:, 1], table[:, 0]))]
    u, lam, mean = table[table[:, 0] != 0.0].T
    nf = np.count_nonzero(u == u[:1])  # rows per time
    T, K = u.size // max(nf, 1), nf - 1
    # Row by row against the grid, so a missing or repeated (u, lambda) pair fails too.
    if not (
        T >= 1 and K >= 1 and u.size == T * nf
        and np.allclose(u, np.repeat(np.arange(1, T + 1) / T, nf), atol=1e-9)
        and np.allclose(lam, np.tile(np.arange(nf) / K, T), atol=1e-9)
    ):
        raise DataError(
            "surface grid mismatch: expected u in {1/T..1} and lambda in {0..1} with step 1/K"
        )
    est = mean.reshape(T, nf)  # the estimate on the very grid ase() scores
    value = ase(lambda uq, lq: est, lambda uq, lq: true_tv_psd(args.dgp, uq, lq), T, K)
    print(FLOAT_FMT % value)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvspec",
        description="Time-varying spectral density estimation for locally stationary series",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a built-in DGP to CSV")
    p_sim.add_argument("--dgp", required=True, choices=VALID_DGPS)
    p_sim.add_argument("--innov", default="a", choices=sorted(INNOVATION_ALIASES))
    p_sim.add_argument("--T", type=_positive_int, default=1500)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--output", default="series.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_pg = sub.add_parser("periodogram", help="moving periodogram ordinates to CSV")
    p_pg.add_argument("--input", required=True)
    p_pg.add_argument("--m", type=_positive_int, required=True)
    p_pg.add_argument("--output", default="periodogram.csv")
    p_pg.set_defaults(func=cmd_periodogram)

    p_est = sub.add_parser("estimate", help="run the full posterior pipeline")
    p_est.add_argument("--input", required=True)
    p_est.add_argument("--m", type=_positive_int, default=50)
    p_est.add_argument("--thinning", type=int, default=2, choices=(1, 2, 3))
    p_est.add_argument("--iters", type=_positive_int, default=110_000)
    p_est.add_argument("--burnin", type=int, default=60_000)
    p_est.add_argument("--thin", type=_positive_int, default=5)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--kmax", type=_positive_int, default=100)
    p_est.add_argument("--xi-l", dest="xi_l", type=float, default=0.1)
    p_est.add_argument("--xi-r", dest="xi_r", type=float, default=0.9)
    p_est.add_argument("--truncation-L", dest="truncation_L", type=_positive_int, default=None)
    p_est.add_argument("--time-grid", dest="time_grid", type=_positive_int, default=201)
    p_est.add_argument("--freq-grid", dest="freq_grid", type=_positive_int, default=101)
    p_est.add_argument("--output-dir", dest="output_dir", default="tvspec-run")
    p_est.add_argument("--save-draws", dest="save_draws", action="store_true")
    p_est.add_argument("--chains", type=_positive_int, default=1)
    p_est.set_defaults(func=cmd_estimate)

    p_ase = sub.add_parser("ase", help="average square error of a surface vs a DGP truth")
    p_ase.add_argument("--surface", required=True)
    p_ase.add_argument("--dgp", required=True, choices=VALID_DGPS)
    p_ase.set_defaults(func=cmd_ase)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        # A bare MemoryError has no text; its type name says what failed.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
