"""Run one ``tvspec estimate`` call in a fresh process and report its cost.

Usage: ``python3 worker.py SPEC_JSON``, where the spec is a JSON object:

- ``src``: directory that holds the ``tvspec`` package to measure;
- ``argv``: arguments for ``tvspec.cli.main``, or null to time the import only;
- ``trace``: null for an untraced call; "spans" to time and count the
  package's layer functions, or "memory" to take the tracemalloc peak of
  ``summarize`` (see ``tracing.py``);
- ``spans``: where a traced call writes its spans;
- ``result``: where the worker writes its JSON report.

The import of ``tvspec.cli`` is timed first, before anything else loads
numpy, so ``import_s`` is the set-up every command-line call pays.
"""

import json
import resource
import sys
import time
import traceback


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import tvspec.cli

    report = {"import_s": time.perf_counter() - t0}
    if not tvspec.cli.__file__.startswith(spec["src"]):
        raise RuntimeError(f"tvspec imported from {tvspec.cli.__file__}, not {spec['src']}")

    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer(memory=spec["trace"] == "memory")
            tracer.install()
        t1 = time.perf_counter()
        rc, error = None, None
        try:
            if tracer is None:
                rc = tvspec.cli.main(spec["argv"])
            else:
                rc = tracer.span("cli.estimate", tvspec.cli.main)(spec["argv"])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
        except Exception:  # a crash is a failed call, not a harness error
            error = traceback.format_exc()
        report["estimate_s"] = time.perf_counter() - t1
        report["rc"] = rc
        report["error"] = error
        if tracer is not None:
            tracer.restore()
            if error is None and rc == 0:
                report["layers"] = tracer.layer_metrics()
            tracer.write_spans(spec["spans"])
    # ru_maxrss is in KiB on Linux.
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
