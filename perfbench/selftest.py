"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a traced pass wraps every import site and restores every
wrapped attribute to its original object, that an untraced pass never builds
a tracer, that the injected `unitarity_sign` fault makes oracle_check report
failed outputs, that the benchmark refuses to run without a qcm source tree,
and that BENCHMARK.json names exactly the metrics the benchmark prints.
Takes about a minute; exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import sample  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

qcm, _ = sample.import_qcm()


def _snapshot() -> dict:
    """Identity of every attribute of qcm's modules and of their classes."""
    state = {}
    for mod in tracer._qcm_modules():
        for name, value in vars(mod).items():
            state[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("qcm"):
                for attr, member in vars(value).items():
                    state[(mod.__name__, name, attr)] = member
    return state


def _wrapped(obj) -> bool:
    return hasattr(obj, "__perfbench_original__")


def check_traced_pass_restores():
    before = _snapshot()
    trace = tracer.Tracer("selftest")
    trace.install()
    try:
        sites = [
            qcm.cli.rk4_propagate_many,
            qcm.propagator.rk4_propagate,
            qcm.propagator.rk4_propagate_many,
            qcm.protocols.reduced_qubit_density,
            qcm.reduced_qubit_density,
            qcm.cli.conditional_amplitudes,
            vars(qcm.model.StateVector)["__post_init__"],
            vars(qcm.model.GeneratorMatrix)["__post_init__"],
        ]
        assert all(_wrapped(site) for site in sites), "an import site was not wrapped"
        assert not trace.missing, f"targets missing: {trace.missing}"
        trace.begin()
        results = [
            workloads.invoke(qcm, ["check", "--trials", "3", "--seed", "5"]),
            workloads.invoke(qcm, ["decoherence", "--m-range", "2:4"]),
            workloads.invoke(qcm, ["scan", "--m", "4", "--r-grid", "0.5:3:6"]),
        ]
        qcm.generate_w_state(4, qcm.W_PLUS)
        qcm.run_anticlone(3, qcm.W_MINUS)
        trace.end()
    finally:
        trace.restore()
    after = _snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed and before.keys() == after.keys(), f"not restored: {changed}"
    assert not tracer.installed_wrappers()
    assert all(r.code == 0 for r in results), [r.error for r in results]
    layers = trace.layer_metrics(workloads.output_bytes(results))
    expected = set(tracer.metric_units()) - {"trace.overhead_s"}
    assert set(layers) == expected, set(layers) ^ expected
    for name in (
        "propagator.rk4.calls",
        "protocols.reduce.calls",
        "protocols.w_state.calls",
        "decoherence.conditional.calls",
        "model.validate.elements",
        "cli.format.bytes",
    ):
        assert layers[name] > 0, f"{name} is {layers[name]}"
    assert trace.counter_errors == 0, trace.counter_errors


class _NoTracer:
    def __init__(self, *args, **kwargs):
        raise AssertionError("an untraced pass built a tracer")


def check_untraced_pass_installs_nothing():
    before = _snapshot()
    real, tracer.Tracer = tracer.Tracer, _NoTracer
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            sample.main(["--workload", "decay_scan", "--seed", "0"])
    finally:
        tracer.Tracer = real
    line = json.loads(out.getvalue().splitlines()[-1])
    assert line["failed"] == 0 and line["attempted"] > 0, line
    after = _snapshot()
    assert all(after.get(key) is value for key, value in before.items())
    assert not tracer.installed_wrappers()


def check_injected_fault_fails():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "oracle_check", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--inject-fault", "unitarity_sign"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1, proc.returncode
    assert not result["correct"] and result["failed"] > 0, result
    print(f"   error_rate under the fault: {result['failed']} of {result['attempted']}")


def check_refuses_without_source_tree():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "decay_scan", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.returncode
    assert '"correct"' not in proc.stdout, proc.stdout


def check_benchmark_json_matches():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()


CHECKS = (
    check_benchmark_json_matches,
    check_traced_pass_restores,
    check_untraced_pass_installs_nothing,
    check_refuses_without_source_tree,
    check_injected_fault_fails,
)


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
