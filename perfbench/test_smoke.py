"""Smoke test of the benchmark: every workload briefly, every metric named, bad output caught.

Run from the root of the checkout: ``python3 -m pytest perfbench/test_smoke.py``.
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from ess import geyer_ess  # noqa: E402

run.require_source()


def brief(w: run.Workload) -> run.Workload:
    """The workload with 1000 sweeps after burn-in; a shorter burn-in fails the ASE check."""
    return dataclasses.replace(w, iters=w.burn_in + 1000, thin=min(w.thin, 10))


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in run.SPEC[section]}


def test_spec_names_known_workloads():
    assert {w["name"] for w in run.SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_reports_every_metric(name, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    result = run.measure(brief(run.WORKLOADS[name]), seed=3, seconds=0, trace=True)
    assert [c["trace"] for c in result.calls] == list(run.TRACE_CYCLE)
    assert result.failed == 0, [c["problems"] for c in result.calls]
    for section, metrics in (
        ("end_to_end", run.end_to_end_metrics(result)),
        ("per_layer", run.layer_metrics(result)),
    ):
        assert {k: m["unit"] for k, m in metrics.items()} == units(section)
        assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert len({c["fingerprint"] for c in result.calls}) == 1  # tracing changes no result


def _drop_last_row(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def _set_field(row, col, value):
    def corrupt(text):
        lines = text.splitlines(keepends=True)
        fields = lines[row].rstrip("\n").split(",")
        fields[col] = value
        lines[row] = ",".join(fields) + "\n"
        return "".join(lines)

    return corrupt


def _swap_quantiles(text):
    lines = text.splitlines(keepends=True)
    f = lines[5].rstrip("\n").split(",")
    f[4], f[5] = f[5], f[4]
    lines[5] = ",".join(f) + "\n"
    return "".join(lines)


CORRUPTIONS = {
    "row missing": _drop_last_row,
    "nan mean": _set_field(1, 2, "nan"),
    "negative q05": _set_field(2, 4, "-1"),
    "quantiles swapped": _swap_quantiles,
    "flat surface": lambda text: "".join(
        [text.splitlines(keepends=True)[0]]
        + [",".join(line.split(",")[:2] + ["1", "1", "1", "1"]) + "\n"
           for line in text.splitlines()[1:]]
    ),  # fmt: skip
    "header only": lambda text: text.splitlines(keepends=True)[0],
}


def test_corrupted_surface_counts_as_failure(monkeypatch):
    w = brief(run.WORKLOADS["ls1-chain"])
    kinds = iter(CORRUPTIONS.values())
    check = run.check_output
    seen = []

    def corrupt_then_check(workload, out_dir):
        problems, _, _ = check(workload, out_dir)
        assert problems == []
        surface = out_dir / "surface.csv"
        good = surface.read_text()
        for corrupt in kinds:
            surface.write_text(corrupt(good))
            seen.append(check(workload, out_dir)[0])
        return check(workload, out_dir)

    monkeypatch.setattr(run, "check_output", corrupt_then_check)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    result = run.measure(w, seed=3, seconds=0, trace=False)
    assert len(seen) == len(CORRUPTIONS) and all(seen), dict(zip(CORRUPTIONS, seen))
    assert result.attempted == 1 and result.failed == 1
    assert "estimate_s" not in run.end_to_end_metrics(result)  # failed calls are not timed


def test_geyer_ess():
    rng = np.random.default_rng(0)
    white = rng.standard_normal(4000)
    assert 3000 < geyer_ess(white) < 5500
    ar = [0.0]
    for z in white[1:]:
        ar.append(0.9 * ar[-1] + z)
    # AR(1) with phi = 0.9 has integrated autocorrelation time (1 + phi) / (1 - phi) = 19.
    assert 4000 / 40 < geyer_ess(ar) < 4000 / 10
    assert geyer_ess([2.0] * 50) == 1.0
