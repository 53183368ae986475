"""Tests for the command-line interface."""

import concurrent.futures
import json
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import tvspec.cli
from tvspec.cli import main
from tvspec.inference import ase
from tvspec.signal import true_tv_psd


def write_series(path, values):
    with open(path, "w") as fh:
        fh.write("x\n")
        for v in values:
            fh.write("%.17g\n" % v)


def run_estimate(tmp_path, series_path, out_name, extra=()):
    out = tmp_path / out_name
    argv = [
        "estimate",
        "--input", str(series_path),
        "--m", "15",
        "--thinning", "1",
        "--iters", "1500",
        "--burnin", "500",
        "--thin", "1",
        "--seed", "5",
        "--time-grid", "21",
        "--freq-grid", "16",
        "--output-dir", str(out),
    ] + list(extra)
    assert main(argv) == 0
    return out


@pytest.fixture
def inline_pool(monkeypatch):
    """Runs --chains work in this process; returns the requested worker counts."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    # cmd_estimate imports the pool from concurrent.futures when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return pools


@pytest.fixture
def work_calls(monkeypatch):
    """Spies on reading the input and computing the periodogram; returns the calls made."""
    calls = []
    for name in ("_read_series_csv", "moving_periodograms"):
        def wrapped(*args, _name=name, _fn=getattr(tvspec.cli, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(tvspec.cli, name, wrapped)
    return calls


@pytest.fixture(scope="module")
def series_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "series.csv"
    assert main(["simulate", "--dgp", "LS3", "--T", "300", "--seed", "42",
                 "--output", str(path)]) == 0
    return path


class TestSimulate:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--dgp", "LS2", "--innov", "c", "--T", "250",
                     "--seed", "200", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x"
        assert len(lines) == 251

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            main(["simulate", "--dgp", "PS1", "--T", "100", "--seed", "9",
                  "--output", str(p)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_dgp_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--dgp", "XX", "--output", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "LS1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_length_below_one_usage_error(self, tmp_path, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--dgp", "LS1", "--T", value, "--output", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_default_seed_is_zero(self, tmp_path, monkeypatch):
        # The environment does not set the seed; only --seed does.
        monkeypatch.setenv("TVSPEC_SEED", "321")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--dgp", "S1", "--T", "80", "--output", str(a)])
        main(["simulate", "--dgp", "S1", "--T", "80", "--seed", "0",
              "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestPeriodogram:
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_m_below_one_usage_error(self, tmp_path, series_file, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["periodogram", "--input", str(series_file), "--m", value,
                  "--output", str(tmp_path / "p.csv")])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_csv_columns(self, tmp_path, series_file):
        out = tmp_path / "pg.csv"
        assert main(["periodogram", "--input", str(series_file), "--m", "10",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,u,lambda_index,lambda,MI"
        assert len(lines) == 1 + 300 - 20

    def test_too_short_exit_3(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        write_series(short, np.zeros(15))
        assert main(["periodogram", "--input", str(short), "--m", "10",
                     "--output", str(tmp_path / "o.csv")]) == 3
        assert "at least" in capsys.readouterr().err


class TestEstimate:
    def test_outputs_and_draw_count(self, tmp_path, series_file):
        out = run_estimate(tmp_path, series_file, "run", extra=["--save-draws"])
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["n_draws"] == 1000
        assert meta["config"]["seed"] == 5
        assert np.isfinite(meta["bayes_factor_01"])
        assert np.isfinite(meta["log_posterior"]["mean"])
        assert set(meta["acceptance"]) == {"overall", "post_burn_in"}
        assert set(meta["acceptance_non_null"]) == {"overall", "post_burn_in"}
        assert set(meta["acceptance_non_null"]["overall"]) == {"k1", "k2"}
        windows = meta["acceptance_windows"]  # 1500 sweeps: one full window, one of 500
        assert set(windows) == {"k1", "k2", "W1", "W2", "V", "tau"}
        assert all(len(rates) == 2 and all(0.0 <= r <= 1.0 for r in rates)
                   for rates in windows.values())
        timings = meta["timings_s"]
        assert set(timings) == {"periodogram", "grid", "chain", "summarize", "write"}
        assert all(t >= 0.0 for t in timings.values())
        assert timings["chain"] >= meta["runtime_seconds"]  # the stage wraps run_chain
        draws = np.load(out / "draws.npz")
        assert draws["k1"].shape == (1000,)
        surface = (out / "surface.csv").read_text().splitlines()
        assert surface[0] == "u,lambda,mean,median,q05,q95"
        assert len(surface) == 1 + 21 * 16

    def test_deterministic_surface(self, tmp_path, series_file):
        a = run_estimate(tmp_path, series_file, "run_a")
        b = run_estimate(tmp_path, series_file, "run_b")
        assert (a / "surface.csv").read_bytes() == (b / "surface.csv").read_bytes()

    def test_missing_input_exit_3(self, tmp_path, capsys):
        assert main(["estimate", "--input", str(tmp_path / "nope.csv"),
                     "--output-dir", str(tmp_path / "o")]) == 3
        assert "not found" in capsys.readouterr().err

    def test_non_finite_input_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x\n1.0\nnan\n2.0\n")
        assert main(["estimate", "--input", str(bad),
                     "--output-dir", str(tmp_path / "o")]) == 3
        assert "row 3" in capsys.readouterr().err

    def test_too_short_exit_3(self, tmp_path):
        short = tmp_path / "short.csv"
        write_series(short, np.arange(40.0))
        assert main(["estimate", "--input", str(short), "--m", "30",
                     "--output-dir", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", ["--chains", "--time-grid", "--freq-grid", "--truncation-L",
                                      "--m", "--iters", "--thin", "--kmax"])
    def test_count_below_one_usage_error(self, tmp_path, series_file, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", str(series_file), flag, value,
                  "--output-dir", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_no_retained_draw_fails_before_chain(self, tmp_path, series_file, monkeypatch):
        def no_chain(*args, **kwargs):
            raise AssertionError("run_chain called")

        monkeypatch.setattr(tvspec.cli, "run_chain", no_chain)
        assert main(["estimate", "--input", str(series_file), "--iters", "1000",
                     "--burnin", "999", "--output-dir", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("chains, text, message", [
        ("1", "Unable to allocate 11.2 GiB", "Unable to allocate 11.2 GiB"),
        ("2", "Unable to allocate 11.2 GiB", "Unable to allocate 11.2 GiB"),
        ("1", "", "MemoryError"),  # a bare MemoryError: its type name
    ])
    def test_memory_error_exit_3(self, tmp_path, series_file, monkeypatch, inline_pool, capsys,
                                 chains, text, message):
        def no_memory(*args, **kwargs):
            raise MemoryError(text)

        monkeypatch.setattr(tvspec.cli, "run_chain", no_memory)
        out = tmp_path / "o"
        assert main(["estimate", "--input", str(series_file), "--m", "15",
                     "--chains", chains, "--output-dir", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("chains", ["1", "2"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--xi-l", "0.95", "xi_left"),
        ("--xi-r", "nan", "xi_right"),
        ("--burnin", "-5", "burn_in"),
        ("--xi-l 0.45 --kmax", "1300", "k_max"),
    ])
    def test_bad_config_fails_before_any_work(self, tmp_path, series_file, work_calls,
                                              inline_pool, capsys, flag, value, message, chains):
        out = tmp_path / "o"
        assert main(["estimate", "--input", str(series_file), "--m", "15", *flag.split(), value,
                     "--chains", chains, "--output-dir", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert work_calls == []
        assert inline_pool == []  # no worker pool either
        assert not out.exists()

    # ids "1" and "2" are the wide grid; a --kmax beyond memory must fail before
    # PriorConfig builds its k_max tables, also against a small physical memory.
    @pytest.mark.parametrize("chains, flags, have", [
        pytest.param(chains, flags, have, id=name + chains)
        for name, flags, have in [
            ("", "--time-grid 1000000 --freq-grid 1000000", None),
            ("kmax-", "--kmax 1000000000000", None),
            ("kmax-64MiB-", "--kmax 1000000", 2**26),
        ]
        for chains in ("1", "2")
    ])
    def test_run_beyond_physical_memory_fails_before_any_work(
            self, tmp_path, series_file, work_calls, inline_pool, capsys, monkeypatch,
            chains, flags, have):
        if have is not None:
            pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": have // 4096}
            monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        out = tmp_path / "o"
        assert main(["estimate", "--input", str(series_file), "--m", "15", *flags.split(),
                     "--chains", chains, "--output-dir", str(out)]) == 3
        assert "GiB of physical memory" in capsys.readouterr().err
        assert work_calls == []
        assert inline_pool == []  # no worker pool either
        assert not out.exists()

    def test_chain_workers_capped_and_seeds_spawned(self, tmp_path, series_file, monkeypatch,
                                                     inline_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "chains"
        assert main(["estimate", "--input", str(series_file), "--m", "15",
                     "--thinning", "1", "--iters", "300", "--burnin", "100",
                     "--seed", "5", "--time-grid", "5", "--freq-grid", "5",
                     "--chains", "3", "--output-dir", str(out)]) == 0
        assert inline_pool == [2]
        spawned = [int(c.generate_state(1, np.uint64)[0])
                   for c in np.random.SeedSequence(5).spawn(3)]
        recorded = [json.loads((out / f"chain_{c:02d}" / "metadata.json").read_text())
                    ["config"]["seed"] for c in range(3)]
        assert recorded == spawned
        assert len(set(recorded)) == 3

    def test_chain_reruns_alone_from_its_recorded_seed(self, tmp_path, series_file, inline_pool):
        argv = ["estimate", "--input", str(series_file), "--m", "15", "--thinning", "1",
                "--iters", "300", "--burnin", "100", "--time-grid", "5", "--freq-grid", "5"]
        multi = tmp_path / "multi"
        assert main(argv + ["--seed", "5", "--chains", "2", "--output-dir", str(multi)]) == 0
        chain = multi / "chain_01"
        meta = json.loads((chain / "metadata.json").read_text())
        alone = tmp_path / "alone"
        assert main(argv + ["--seed", str(meta["config"]["seed"]),
                            "--output-dir", str(alone)]) == 0
        rerun = json.loads((alone / "metadata.json").read_text())
        assert (alone / "surface.csv").read_bytes() == (chain / "surface.csv").read_bytes()
        assert rerun["bayes_factor_01"] == meta["bayes_factor_01"]

    def test_headerless_input_accepted(self, tmp_path):
        raw = tmp_path / "raw.csv"
        rng = np.random.default_rng(1)
        np.savetxt(raw, rng.standard_normal(120))
        out = tmp_path / "run"
        assert main(["estimate", "--input", str(raw), "--m", "10",
                     "--thinning", "1", "--iters", "300", "--burnin", "100",
                     "--thin", "1", "--seed", "1", "--time-grid", "5",
                     "--freq-grid", "5", "--output-dir", str(out)]) == 0


class TestWriteTable:
    # Every table is written with FLOAT_FMT; fmt is the reference format given to
    # savetxt.  Columns 0 and 2 hold whole numbers, as the periodogram's t and
    # lambda_index do, and must come out as %d prints them.
    @pytest.mark.parametrize("fmt", ["%.17g", ("%d", "%.17g", "%d", "%.17g")])
    @pytest.mark.parametrize("rows", [0, 1, 257, tvspec.cli.WRITE_ROWS, 2 * tvspec.cli.WRITE_ROWS + 3])
    def test_bytes_match_savetxt(self, tmp_path, fmt, rows):
        rng = np.random.default_rng(rows)
        table = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-300, 300, (rows, 4))
        table[:, ::2] = rng.integers(-(2**53), 2**53, (rows, 2), endpoint=True)
        whole = [0.0, -1.0, 1.0, -3.0, 2.0**53, -(2.0**53), 2.0**53 - 1, 2.0**31]
        table[:, ::2].flat[: min(2 * rows, len(whole))] = whole[: 2 * rows]
        # -0.0 prints as "-0" under %.17g and "0" under %d: it stays in the float columns.
        edge = [0.0, -0.0, 1e-300, 1e300, -1e-300, -1e300, 0.1, 5e-324, 1.0, 2.0**53]
        table[:, 1::2].flat[: min(2 * rows, len(edge))] = edge[: 2 * rows]
        header = "a,b,c,d"
        np.savetxt(tmp_path / "ref.csv", table, fmt=fmt, delimiter=",", header=header, comments="")
        tvspec.cli._write_table(tmp_path / "out.csv", table, header)
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestAseCommand:
    def _write_surface(self, path, model, T, K, factor=1.0):
        u = np.arange(1, T + 1) / T
        lam = np.arange(0, K + 1) / K
        with open(path, "w") as fh:
            fh.write("u,lambda,mean,median,q05,q95\n")
            for uu in u:
                for ll in lam:
                    v = factor * true_tv_psd(model, uu, ll)
                    fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
                             % (uu, ll, v, v, v, v))

    def test_truth_vs_itself(self, tmp_path, capsys):
        surf = tmp_path / "surf.csv"
        self._write_surface(surf, "LS2", 40, 99)
        assert main(["ase", "--surface", str(surf), "--dgp", "LS2"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.0, abs=1e-20)

    def test_constant_e_ratio(self, tmp_path, capsys):
        surf = tmp_path / "surf.csv"
        self._write_surface(surf, "S2", 30, 99, factor=np.e)
        assert main(["ase", "--surface", str(surf), "--dgp", "S2"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, rel=1e-10)

    def test_estimate_output_scored(self, tmp_path, series_file, capsys):
        out = run_estimate(tmp_path, series_file, "run")
        capsys.readouterr()
        assert main(["ase", "--surface", str(out / "surface.csv"), "--dgp", "LS3"]) == 0
        printed = float(capsys.readouterr().out.strip())
        # surface.csv holds u = i/20 (i = 0..20) by lambda = j/15; ase scores i >= 1.
        table = np.loadtxt(out / "surface.csv", delimiter=",", skiprows=1)
        est = table[:, 2].reshape(21, 16)[1:]

        def estimate(u, lam):
            return est[np.rint(u * 20).astype(int) - 1, np.rint(lam * 15).astype(int)]

        expected = ase(estimate, lambda u, lam: true_tv_psd("LS3", u, lam), 20, 15)
        assert printed == expected

    def test_shuffled_rows_score_the_same(self, tmp_path, series_file, capsys):
        out = run_estimate(tmp_path, series_file, "run")
        lines = (out / "surface.csv").read_text().splitlines(keepends=True)
        body = lines[1:]
        np.random.default_rng(0).shuffle(body)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("".join(lines[:1] + body))
        capsys.readouterr()
        scores = []
        for path in (out / "surface.csv", shuffled):
            assert main(["ase", "--surface", str(path), "--dgp", "LS3"]) == 0
            scores.append(float(capsys.readouterr().out.strip()))
        assert scores[0] == scores[1]

    def test_other_header_exit_3(self, tmp_path, capsys):
        surf = tmp_path / "surf.csv"
        self._write_surface(surf, "S2", 10, 9)
        table = np.loadtxt(surf, delimiter=",", skiprows=1)
        np.savetxt(surf, table[:, [2, 0, 1, 3, 4, 5]], fmt="%.17g", delimiter=",",
                   header="mean,u,lambda,median,q05,q95", comments="")
        assert main(["ase", "--surface", str(surf), "--dgp", "S2"]) == 3
        assert capsys.readouterr().err == (
            "error: surface CSV header must be 'u,lambda,mean,median,q05,q95'\n"
        )

    def test_repeated_pair_exit_3(self, tmp_path, capsys):
        surf = tmp_path / "surf.csv"
        self._write_surface(surf, "S2", 10, 9)
        lines = surf.read_text().splitlines(keepends=True)
        # Row 45 is (u, lambda) = (0.5, 0.444...), on no edge of the grid.
        surf.write_text("".join(lines + [lines[45]]))
        assert main(["ase", "--surface", str(surf), "--dgp", "S2"]) == 3
        assert "surface grid mismatch" in capsys.readouterr().err

    def test_grid_mismatch_exit_3(self, tmp_path, capsys):
        surf = tmp_path / "surf.csv"
        with open(surf, "w") as fh:
            fh.write("u,lambda,mean,median,q05,q95\n")
            fh.write("0.37,0.5,1,1,1,1\n")
            fh.write("0.37,1.0,1,1,1,1\n")
        assert main(["ase", "--surface", str(surf), "--dgp", "S2"]) == 3
        assert "grid mismatch" in capsys.readouterr().err

    def test_nonpositive_surface_exit_3(self, tmp_path, capsys):
        surf = tmp_path / "surf.csv"
        self._write_surface(surf, "S2", 10, 9, factor=0.0)
        assert main(["ase", "--surface", str(surf), "--dgp", "S2"]) == 3
        assert capsys.readouterr().err == (
            "error: estimate surface is not strictly positive on the ASE grid\n"
        )


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


SRC = Path(tvspec.cli.__file__).resolve().parents[1]  # the directory that holds tvspec

# Run in a fresh interpreter, where importing scipy, or any module under it,
# raises ImportError: the runtime must not need it.
WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
"""


def run_python(code, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


class TestImportBoundary:
    """The runtime needs numpy alone, and a one-chain run no process pool."""

    def loaded_after_cli_import(self, tmp_path):
        proc = run_python("import json, sys, tvspec.cli; print(json.dumps(sorted(sys.modules)))",
                          tmp_path)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_cli_import_loads_no_scipy(self, tmp_path):
        assert [m for m in self.loaded_after_cli_import(tmp_path) if m.startswith("scipy")] == []

    def test_cli_import_loads_no_process_pool(self, tmp_path):
        assert "concurrent.futures.process" not in self.loaded_after_cli_import(tmp_path)

    def test_commands_run_without_scipy(self, tmp_path):
        runs = [
            ["simulate", "--dgp", "LS1", "--T", "400"],
            ["estimate", "--input", "series.csv", "--m", "20", "--iters", "2000",
             "--burnin", "1000", "--time-grid", "21", "--freq-grid", "11"],
            ["ase", "--surface", "tvspec-run/surface.csv", "--dgp", "LS1"],
        ]
        proc = run_python(WITHOUT_SCIPY + f"""
import tvspec.cli
for argv in {runs!r}:
    assert tvspec.cli.main(argv) == 0, argv
assert not [m for m in sys.modules if m.startswith("scipy")]
""", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "tvspec-run" / "surface.csv").is_file()
        assert float(proc.stdout.splitlines()[-1]) > 0.0  # the ASE line
