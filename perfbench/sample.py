"""One benchmark sample: a fresh interpreter that imports qcm and runs passes.

    python3 perfbench/sample.py --workload NAME --seed N [--budget-s S] [--trace]
    python3 perfbench/sample.py --setup-only

Prints one JSON line: the time of ``import qcm`` (setup_s), the time of each
unit of each pass (unit_s), the peak resident memory up to the end of the
passes, and the verified-output tally.  Passes repeat, on the same inputs,
while one more still fits in ``--budget-s`` seconds; there is always one.  The
first pass's outputs are checked against the paper's formulas, and every
later pass must repeat them exactly.  With ``--trace`` it runs one pass with
qcm's public functions wrapped, adds the per-layer metrics, and writes the
spans to ``--spans-out``.  run.py starts every sample; this file is not a
user entry point.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_qcm():
    """Import qcm from this checkout's source tree; returns (module, seconds)."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qcm
    import qcm.cli  # the `qcm` command's module, which the package does not import

    elapsed = time.perf_counter() - start
    if not Path(qcm.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported qcm from {qcm.__file__}, not from {SRC}")
    return qcm, elapsed


def provenance(qcm) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "qcm": getattr(qcm, "__version__", "?"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--budget-s", type=float, default=0.0)
    parser.add_argument("--inject-fault")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    qcm, setup_s = import_qcm()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "provenance": provenance(qcm)}))
        return 0

    import tracer
    import workloads

    params = workloads.inputs(args.workload, args.seed)
    if args.inject_fault:
        params["inject_fault"] = args.inject_fault
    trace = tracer.Tracer(f"{args.workload}/{args.seed}") if args.trace else None
    if trace:
        trace.install()
    try:
        if trace:
            trace.begin()
        results, unit_s, probe_s = workloads.run_pass(qcm, args.workload, params, not trace)
        if trace:
            trace.end()
    finally:
        if trace:
            trace.restore()
    leftover = tracer.installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracing wrappers installed after the pass: {leftover}")

    tally = workloads.verify(args.workload, params, results)
    passes, probes = [unit_s], [probe_s]
    spent = sum(unit_s) + sum(probe_s)
    while not trace and spent * (len(passes) + 1) / len(passes) <= args.budget_s:
        again, unit_s, probe_s = workloads.run_pass(qcm, args.workload, params, True)
        passes.append(unit_s)
        probes.append(probe_s)
        spent += sum(unit_s) + sum(probe_s)
        for i, same in enumerate(workloads.same_outputs(results, again)):
            tally.check(same, f"pass {len(passes)} output {i} differs from pass 1")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    line = {
        "setup_s": setup_s,
        "unit_s": passes,
        "probe_s": probes,
        "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.examples,
        "params": params,
    }
    if trace:
        line["layers"] = trace.layer_metrics(workloads.output_bytes(results))
        line["rk4_by_suite"] = trace.rk4_useful_by_suite()
        line["missing_targets"] = trace.missing
        line["counter_errors"] = trace.counter_errors
        if args.spans_out:
            trace.write_spans(args.spans_out)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
