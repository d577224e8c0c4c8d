"""perfbench: the qcm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--inject-fault unitarity_sign]

Workloads: oracle_check, anticlone_sweep, large_register, decay_scan (see
perfbench/README.md).  One caller drives qcm in a closed loop.  Every sample
is a fresh interpreter (perfbench/sample.py) that imports qcm from this
checkout's src/ and runs passes of the workload, one after another, on the
inputs made from --seed; the next sample starts when the last one has
exited.  BLAS is pinned to one thread in every sample.

--trace 0 measures the end-to-end metrics: setup_s (median time of
``import qcm`` over every fresh interpreter of the run), wall_rel (time of
one pass in units of a fixed reference computation timed beside each of its
calls; see ``metrics``) and peak_rss_mb (median peak resident memory of a
sample).
--trace 1 alternates untraced and traced single passes on the same inputs
and reports the per-layer metrics of the fastest traced pass, with
trace.overhead_s its time minus that of the fastest untraced pass.

Every output is checked against the paper's formulas.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; the exit
code is 0 when every verified output was right, 1 when some were wrong, 2
when the benchmark could not run (then no result line is printed).  A
summary with the provenance block and every sample goes to
.perfbench_out/<workload>.trace<0|1>.json, and the spans of the last traced
pass to .perfbench_out/<workload>.spans.json.gz.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {"setup_s": "s", "wall_rel": "ref", "peak_rss_mb": "MB"}
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: import-only interpreters before each untraced sample, so setup_s is a
#: median of many imports spread over the run
SETUP_PROBES = 3
#: an untraced run splits --seconds of passes over this many samples, and
#: makes at least MIN_SAMPLES even when one pass outlasts its share
SAMPLES = 3
MIN_SAMPLES = 2
#: the run ends, killing a sample still running, this long after it started
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in BLAS_VARIABLES})
    return env


def _sample(arguments: list[str], deadline: float) -> dict:
    """Run perfbench/sample.py in a fresh interpreter; returns its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline passed")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), *arguments],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sample {arguments} did not finish before the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"sample {arguments} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def _l3_bytes() -> int | None:
    try:
        out = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout
        return int(out) or None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcm").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, versions: dict) -> dict:
    largest = max(workloads.LARGE_SIZES)
    return {
        **versions,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "l3_bytes": _l3_bytes(),
        "large_register_propagator_bytes": 16 * (largest + 1) ** 2,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _pass_args(args, budget_s: float, traced: bool) -> list[str]:
    out = ["--workload", args.workload, "--seed", str(args.seed), "--budget-s", repr(budget_s)]
    if args.inject_fault:
        out += ["--inject-fault", args.inject_fault]
    if traced:
        out += ["--trace", "--spans-out", str(OUT / f"{args.workload}.spans.json.gz")]
    return out


def measure(args, deadline: float) -> dict:
    """Run the samples of one run; returns the raw material of the report."""
    warmup = _sample(["--setup-only"], deadline)  # fills file caches; not counted
    start = time.monotonic()
    setups, plain, traced = [], [], []

    def left() -> float:
        return args.seconds - (time.monotonic() - start)

    if args.trace:
        # untraced and traced passes on identical inputs, alternating order;
        # a new pair starts while most of one still fits
        pair_s = 0.0
        while not traced or left() > 0.75 * pair_s:
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            begun = time.monotonic()
            for flag in order:
                result = _sample(_pass_args(args, 0.0, flag), deadline)
                (traced if flag else plain).append(result)
            pair_s = time.monotonic() - begun
    else:
        # a new sample starts while most of a pass still fits
        pass_s = 0.0
        while len(plain) < MIN_SAMPLES or left() > 0.75 * pass_s:
            setups += [_sample(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            budget = max(0.0, min(args.seconds / SAMPLES, left()))
            plain.append(_sample(_pass_args(args, budget, False), deadline))
            pass_s = statistics.median(_pass_times(plain))
    setups += [s["setup_s"] for s in plain + traced]
    return {"versions": warmup["provenance"], "setups": setups, "plain": plain, "traced": traced}


def metrics(args, run: dict) -> dict[str, dict]:
    """The run's metrics: every end-to-end one, or with --trace 1 every layer one.

    wall_rel is the time of one pass in units of the reference computation
    (``workloads.reference_probe``), which is timed before a pass's first
    unit and after each of its units (the qcm commands or library calls the
    pass makes one after another).  Each unit's time is divided by the mean
    of the two probes beside it; wall_rel sums, over the units, the median
    of these ratios over every pass of the run.  On a shared host the same
    call can take twice as long from one second to the next, and the probe
    slows with it, so the ratio holds still where the seconds do not.
    Per-layer metrics all come from the fastest traced pass, so they
    describe one and the same pass.
    """
    plain, traced = run["plain"], run["traced"]
    if args.trace:
        fastest = min(_pass_times(plain))
        best = min(traced, key=lambda s: s["layers"]["trace.wall_s"])["layers"]
        values = {**best, "trace.overhead_s": best["trace.wall_s"] - fastest}
        units = tracer.metric_units()
    else:
        values = {
            "setup_s": statistics.median(run["setups"]),
            "wall_rel": sum(statistics.median(unit) for unit in zip(*_ratios(plain))),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        }
        units = E2E_UNITS
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _passes(samples: list[dict]) -> list[list[float]]:
    """Unit times of every pass of the samples, one list per pass."""
    return [unit_s for s in samples for unit_s in s["unit_s"]]


def _pass_times(samples: list[dict]) -> list[float]:
    return [sum(unit_s) for unit_s in _passes(samples)]


def _ratios(samples: list[dict]) -> list[list[float]]:
    """Per pass, each unit's time over the mean of the two probes beside it."""
    return [
        [2.0 * t / (before + after) for t, before, after in zip(unit_s, probe_s, probe_s[1:])]
        for s in samples
        for unit_s, probe_s in zip(s["unit_s"], s["probe_s"])
    ]


def _describe(statistic: str, values: list[float]) -> str:
    return (
        f"  {statistic} of {len(values)} (min {min(values):.6g}, "
        f"median {statistics.median(values):.6g}, max {max(values):.6g})"
    )


def report(args, run: dict, result: dict, prov: dict) -> list[str]:
    plain, traced = run["plain"], run["traced"]
    lines = [
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(_passes(plain))} untraced passes in {len(plain)} samples, "
        f"{len(traced)} traced passes, "
        f"{len(run['setups'])} fresh interpreters",
        "provenance " + json.dumps(prov, sort_keys=True),
    ]
    samples = {
        "setup_s": ("median", run["setups"]),
        "wall_rel": ("sum of unit medians, whole passes", [sum(r) for r in _ratios(plain)]),
        "peak_rss_mb": ("median", [s["peak_rss_mb"] for s in plain]),
        "trace.wall_s": ("fastest", [s["layers"]["trace.wall_s"] for s in traced]),
    }
    for name, entry in result["metrics"].items():
        extra = _describe(*samples[name]) if name in samples else ""
        value = entry["value"]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"  {name:37s} {shown} {entry['unit']}{extra}")
    if not args.trace:
        probes = [p for s in plain for probe_s in s["probe_s"] for p in probe_s]
        wall = sum(statistics.median(unit) for unit in zip(*_passes(plain)))
        lines.append(
            f"  wall time {wall:.6g} s (sum of unit medians), reference probe "
            f"{1e3 * statistics.median(probes):.4g} ms (median of {len(probes)})"
        )
    rate = result["failed"] / result["attempted"]
    lines.append(
        f"  error_rate {rate:.6g} ({result['failed']} of {result['attempted']} verified outputs failed)"
    )
    for suite, counts in (traced[0]["rk4_by_suite"] if traced else {}).items():
        lines.append(
            f"  rk4 under {suite}: {counts['instance_steps']} instance-steps, "
            f"useful work {counts['work_useful']} of {counts['work_executed']} "
            f"(ratio {counts['useful_ratio']:.4f})"
        )
    if traced and (traced[0]["missing_targets"] or traced[0]["counter_errors"]):
        lines.append(
            f"  tracing gaps: missing {traced[0]['missing_targets']}, "
            f"counter errors {traced[0]['counter_errors']}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: the qcm benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--inject-fault",
        choices=workloads.FAULTS,
        help="corrupt qcm check's closed form, to prove the checks fail (oracle_check only)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.inject_fault and args.workload != "oracle_check":
        parser.error("--inject-fault applies to oracle_check only")
    if not (ROOT / "src" / "qcm" / "__init__.py").is_file():
        print(f"perfbench: no qcm source tree at {ROOT / 'src' / 'qcm'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    try:
        run = measure(args, time.monotonic() + RUN_DEADLINE_S)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    samples = run["plain"] + run["traced"]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics(args, run),
    }
    prov = provenance(args, run["versions"])
    summary = {"provenance": prov, "result": result, "setups": run["setups"], "samples": samples}
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
    for line in report(args, run, result, prov):
        print(line)
    for example in sorted({e for s in samples for e in s["failures"]})[:10]:
        print(f"perfbench: failed output: {example}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
