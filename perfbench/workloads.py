"""The four perfbench workloads: seeded inputs, one pass, independent checks.

Every workload is a closed loop with one caller: a pass makes its qcm calls
one after another, through ``qcm.cli.main`` or the exported library
functions, and the next pass starts only after this one has ended.  Each
call of a pass is one *unit*, timed on its own and set against the
reference computation timed beside it, so a run can take each unit's median
over its passes.

The checks compute every reference value here, from the paper's formulas,
and never call qcm's own closed forms, so a wrong closed form cannot vouch
for itself.  Each verified value, and the exit status of each command, is
one attempted output; a wrong value, a nonzero exit or an exception is a
failed one.  Expected outputs that are missing count as failed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import random
import time
from dataclasses import dataclass, field

WORKLOADS = ("oracle_check", "anticlone_sweep", "large_register", "decay_scan")

#: a pass runs CHECK_RUNS `qcm check` commands of CHECK_TRIALS trials each;
#: one check's RK4 work is set by its slowest trial, so a single seed would
#: make the pass time swing with the seed (by 19 % between quartiles at 200
#: trials), and eight seeds average that down to about 7 %
CHECK_RUNS = 8
CHECK_TRIALS = 25
#: acceptance tolerances of the five `qcm check` suites
CHECK_TOLERANCES = {
    "unitarity": 1e-10,
    "closed_vs_expm": 1e-10,
    "group_property": 1e-10,
    "closed_vs_rk4": 1e-8,
    "conditional_vs_rk4": 1e-8,
}
FAULTS = ("unitarity_sign",)

#: `qcm anticlone --m-range 2:300` in 16 chunks of about equal cost (a row
#: costs O(M^2)), so each unit takes a fraction of a second
ANTICLONE_CHUNKS = (
    (2, 119), (120, 150), (151, 172), (173, 189), (190, 204), (205, 216),
    (217, 228), (229, 238), (239, 248), (249, 256), (257, 265), (266, 273),
    (274, 280), (281, 287), (288, 294), (295, 300),
)
LARGE_SIZES = (256, 1024, 2048, 4096)
SCHEMES = ("identical", "w_plus", "w_minus", "w_prime")

DECOHERENCE_RANGE = (2, 2000)
DECAY_PAIRS = 16
MATCHED_PAIRS = 4
#: rates stay far inside the underdamped regime 2*omega > |kappa - Gamma|,
#: whose smallest left side over these schemes is 2*sqrt(2)
MAX_RATE = 0.2
SCAN_SIZES = (4, 16, 64, 256)
SCAN_GRID = (0.1, 20.0, 2000)

FIDELITY_TOL = 1e-12
AMPLITUDE_TOL = 1e-10
PHOTON_TOL = 1e-12
OPTIMUM_TOL = 1e-6


def inputs(workload: str, seed: int) -> dict:
    """Inputs of every pass of a run with ``seed``; a pure function of both."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "oracle_check":
        return {"check_seeds": [seed] + [rng.randrange(2**31) for _ in range(CHECK_RUNS - 1)]}
    if workload in ("anticlone_sweep", "large_register"):
        return {"alpha": rng.uniform(0.0, 2.0 * math.pi)}
    if workload == "decay_scan":
        pairs = []
        for k in range(DECAY_PAIRS):
            gamma = rng.uniform(1e-4, MAX_RATE)
            kappa = gamma if k < MATCHED_PAIRS else rng.uniform(1e-4, MAX_RATE)
            pairs.append((gamma, kappa))
        return {"pairs": pairs}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one pass


@dataclass
class Invocation:
    """One `qcm` command run in-process, with its captured output."""

    argv: list[str]
    code: int | None
    stdout: str
    error: str


def invoke(qcm, argv: list[str]) -> Invocation:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qcm.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags by exiting
        return Invocation(argv, exc.code if isinstance(exc.code, int) else 2, out.getvalue(), err.getvalue())
    except Exception as exc:  # a crash is a failed output, not a benchmark error
        return Invocation(argv, None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return Invocation(argv, code, out.getvalue(), err.getvalue())


def commands(workload: str, params: dict) -> list[list[str]]:
    """The `qcm` argv lists of one pass of a CLI workload."""
    if workload == "oracle_check":
        fault = ["--inject-fault", params["inject_fault"]] if params.get("inject_fault") else []
        return [
            ["check", "--trials", str(CHECK_TRIALS), "--seed", str(seed), *fault]
            for seed in params["check_seeds"]
        ]
    if workload == "anticlone_sweep":
        return [
            ["anticlone", "--m-range", f"{lo}:{hi}", "--alpha", repr(params["alpha"])]
            for lo, hi in ANTICLONE_CHUNKS
        ]
    if workload == "decay_scan":
        lo, hi = DECOHERENCE_RANGE
        argvs = [
            ["decoherence", "--m-range", f"{lo}:{hi}", "--gamma-decay", repr(g), "--kappa", repr(k)]
            for g, k in params["pairs"]
        ]
        start, stop, count = SCAN_GRID
        argvs += [
            ["scan", "--m", str(m), "--r-grid", f"{start}:{stop}:{count}"] for m in SCAN_SIZES
        ]
        return argvs
    raise ValueError(f"{workload!r} is not a CLI workload")


def _w_state(qcm, m: int, tag: str, alpha: float):
    state, report = qcm.generate_w_state(m, qcm.CouplingScheme(tag))
    return state.amplitudes, report.a1, report.a


def _anticlone(qcm, m: int, tag: str, alpha: float):
    clone = qcm.run_anticlone(m, qcm.CouplingScheme(tag), alpha=alpha)
    return clone.fidelities, clone.a1, clone.a


def _units(qcm, workload: str, params: dict) -> list:
    """The calls of one pass, in order, as (call, store) pairs.

    ``store(results, value)`` files a call's output, or the exception it
    raised, into the pass's results.
    """
    if workload != "large_register":
        return [
            (lambda argv=argv: invoke(qcm, argv), lambda results, out: results.append(out))
            for argv in commands(workload, params)
        ]

    def store(key, m, tag):
        def put(results, out):
            if not results or (results[-1]["m"], results[-1]["scheme"]) != (m, tag):
                results.append({"m": m, "scheme": tag})
            if isinstance(out, Exception):  # counted as failed outputs
                results[-1]["error"] = f"{key}: {type(out).__name__}: {out}"
            else:
                results[-1][key] = out
        return put

    units = []
    for m in LARGE_SIZES:
        for tag in SCHEMES:
            for key, call in (("w_state", _w_state), ("anticlone", _anticlone)):
                units.append((functools.partial(call, qcm, m, tag, params["alpha"]), store(key, m, tag)))
    return units


def run_pass(qcm, workload: str, params: dict, probe: bool = False) -> tuple[list, list, list]:
    """Run one pass; returns the outputs for ``verify``, each unit's time and probes.

    With ``probe``, the reference computation is timed before the first
    unit and after each one, so each unit sits between two probes.
    """
    kind = REFERENCE_KIND.get(workload, "compute")
    results, unit_s = [], []
    probe_s = [reference_probe(kind)] if probe else []
    for call, store in _units(qcm, workload, params):
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:
            out = exc
        unit_s.append(time.perf_counter() - start)
        store(results, out)
        if probe:
            probe_s.append(reference_probe(kind))
    return results, unit_s, probe_s


#: the reference computations, one of the same kind of work as each
#: workload's, and never calling qcm, so no change to qcm can change their
#: time.  "compute": REFERENCE_STEPS explicit Euler steps of a batch of
#: REFERENCE_BATCH random 13x13 complex generators, a Python loop of small
#: numpy calls like qcm's own loops.  "memory": filling a freshly allocated
#: array of REFERENCE_ELEMENTS complex numbers (16 MB), like the large
#: propagators that large_register allocates and writes.
REFERENCE_KIND = {"large_register": "memory"}
REFERENCE_STEPS = 1000
REFERENCE_BATCH = 16
REFERENCE_ELEMENTS = 1_000_000


def reference_probe(kind: str = "compute") -> float:
    """Seconds one run of the reference computation takes on this host now."""
    import numpy as np

    if kind == "memory":
        start = time.perf_counter()
        total = np.full(REFERENCE_ELEMENTS, 1.0 + 0.0j).real.sum()
        elapsed = time.perf_counter() - start
        if total != REFERENCE_ELEMENTS:
            raise FloatingPointError("memory reference computation went wrong")
        return elapsed
    rng = np.random.default_rng(0)
    shape = (REFERENCE_BATCH, 13, 13)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    g = (g + np.conj(np.swapaxes(g, 1, 2))) / 2
    psi = np.ones((REFERENCE_BATCH, 13), complex)
    start = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        psi = psi - 1e-3j * np.matmul(g, psi[..., None])[..., 0]
    elapsed = time.perf_counter() - start
    if not np.all(np.isfinite(psi)):
        raise FloatingPointError("reference computation overflowed")
    return elapsed


def same_outputs(first: list, later: list) -> list[bool]:
    """Per output of a pass: whether a later pass gave exactly the same one."""
    import numpy as np

    def same(a, b) -> bool:
        if isinstance(a, Invocation):
            return (a.code, a.stdout) == (b.code, b.stdout)
        if a.keys() != b.keys():
            return False
        return all(
            a[key] == b[key] if isinstance(a[key], (int, str))
            else all(np.array_equal(x, y) for x, y in zip(a[key], b[key]))
            for key in a
        )

    return [same(a, b) for a, b in zip(first, later)]


def output_bytes(results: list) -> int:
    """Bytes the CLI wrote to stdout during the pass."""
    return sum(len(r.stdout.encode()) for r in results if isinstance(r, Invocation))


# ---------------------------------------------------------------------------
# references from the paper's formulas


def ratio(tag: str, m: int) -> float:
    """Coupling ratio r = gamma_1/gamma of a named scheme."""
    return {
        "identical": 1.0,
        "w_plus": math.sqrt(m) + 1.0,
        "w_minus": math.sqrt(m) - 1.0,
        "w_prime": math.sqrt(m - 1.0),
    }[tag]


def trapped(m: int, r: float) -> tuple[float, float]:
    """Branch amplitudes (a1, a) of the trapped state of the star machine."""
    den = m - 1.0 + r * r
    return (m - 1.0 - r * r) / den, -2.0 * r / den


def anticlone_fidelities(tag: str, m: int) -> tuple[float, float]:
    """(target, input-qubit) anti-cloning fidelities at the trapping time."""
    s = math.sqrt(m)
    return {
        "identical": ((1.0 + 2.0 / m) / 2.0, 1.0 / m),
        "w_plus": ((1.0 + 1.0 / s) / 2.0, (1.0 + 1.0 / s) / 2.0),
        "w_minus": ((1.0 + 1.0 / s) / 2.0, (1.0 - 1.0 / s) / 2.0),
        "w_prime": ((1.0 + 1.0 / math.sqrt(m - 1.0)) / 2.0, 0.5),
    }[tag]


def shifted_trapping_time(m: int, r: float, gamma: float, kappa: float) -> float:
    """2*pi/Omega with Omega = sqrt(4*omega^2 - (kappa - Gamma)^2)."""
    omega2 = r * r + (m - 1.0)
    return 2.0 * math.pi / math.sqrt(4.0 * omega2 - (kappa - gamma) ** 2)


# ---------------------------------------------------------------------------
# checks


@dataclass
class Tally:
    """Verified outputs: how many were attempted, which failed."""

    attempted: int = 0
    failed: int = 0
    examples: list[str] = field(default_factory=list)

    def check(self, ok: bool, *what):
        """Count one output; ``what`` describes it and is joined only on failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(" ".join(str(part) for part in what))

    def close(self, got, ref: float, tol: float, *what):
        if abs(got - ref) <= tol:
            self.attempted += 1
        else:
            self.check(False, *what, f"got {got!r}, expected {ref!r} +/- {tol:g}")


def _num(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _table(inv: Invocation, tally: Tally, header: list[str]) -> list[dict]:
    """Exit-status check plus the CSV rows (empty when the header is wrong)."""
    tally.check(inv.code == 0, f"`qcm {' '.join(inv.argv)}` exited {inv.code}: {inv.error.strip()}")
    lines = inv.stdout.splitlines()
    if not lines or lines[0].split(",") != header:
        return []
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _row(rows: list[dict], i: int) -> dict:
    return rows[i] if i < len(rows) else {}


def _verify_check(inv: Invocation, tally: Tally):
    rows = _table(inv, tally, ["suite", "trials", "max_deviation", "tolerance", "passed"])
    by_suite = {row["suite"]: row for row in rows}
    for suite, tol in CHECK_TOLERANCES.items():
        row = by_suite.get(suite, {})
        tally.check(
            row.get("passed") == "true"
            and _num(row.get("trials")) == CHECK_TRIALS
            and _num(row.get("max_deviation")) < tol,
            f"check suite {suite}: {row or 'missing'}",
        )


def _verify_anticlone(inv: Invocation, lo: int, hi: int, tally: Tally):
    columns = {
        "f_iden": ("identical", 0),
        "f_plusminus": ("w_plus", 0),
        "f_sep": ("w_prime", 0),
        "f1_iden": ("identical", 1),
        "f1_plus": ("w_plus", 1),
        "f1_minus": ("w_minus", 1),
        "f1_sep": ("w_prime", 1),
    }
    rows = _table(inv, tally, ["m", *columns])
    for i, m in enumerate(range(lo, hi + 1)):
        row = _row(rows, i)
        ok_m = _num(row.get("m")) == m
        for col, (tag, which) in columns.items():
            got = _num(row.get(col)) if ok_m else math.nan
            tally.close(got, anticlone_fidelities(tag, m)[which], FIDELITY_TOL, "anticlone m =", m, col)


def _verify_decoherence(inv: Invocation, gamma: float, kappa: float, tally: Tally):
    rows = _table(inv, tally, ["m", "scheme", "r", "tau_star_c", "f_r", "p_no_click"])
    lo, hi = DECOHERENCE_RANGE
    expected = [(m, tag) for m in range(lo, hi + 1) for tag in ("w_plus", "w_prime")]
    for i, (m, tag) in enumerate(expected):
        row = _row(rows, i)
        what = ("decoherence Gamma =", gamma, "kappa =", kappa, "m =", m, tag)
        if _num(row.get("m")) != m or row.get("scheme") != tag:
            row = {}
        r_ref = ratio(tag, m)
        r = _num(row.get("r"))
        tau = _num(row.get("tau_star_c"))
        f = _num(row.get("f_r"))
        p = _num(row.get("p_no_click"))
        tally.close(r, r_ref, FIDELITY_TOL * r_ref, *what, "r")
        tau_ref = shifted_trapping_time(m, r_ref, gamma, kappa)
        tally.close(tau, tau_ref, FIDELITY_TOL * tau_ref, *what, "tau_star_c")
        if gamma == kappa:
            # matched rates decay the whole branch as exp(-Gamma*t): no
            # fidelity loss, and P(no click) = exp(-2*Gamma*tau)
            tally.close(f, 1.0, FIDELITY_TOL, *what, "matched-rate fidelity")
            tally.close(p, math.exp(-2.0 * gamma * tau), FIDELITY_TOL, *what, "matched p_no_click")
        else:
            tally.check(0.0 <= f <= 1.0, *what, "fidelity outside [0, 1]:", f)
            tally.check(0.0 <= p <= 1.0, *what, "p_no_click outside [0, 1]:", p)


def _verify_scan(inv: Invocation, m: int, tally: Tally):
    rows = _table(inv, tally, ["kind", "r", "a1", "a", "f_target", "f_input"])
    start, stop, count = SCAN_GRID
    step = (stop - start) / (count - 1)
    root = math.sqrt(m - 1.0)
    optima = {
        "w_symmetry_low": (math.sqrt(m) - 1.0, OPTIMUM_TOL),
        "w_symmetry_high": (math.sqrt(m) + 1.0, OPTIMUM_TOL),
        "separable_transfer": (root, OPTIMUM_TOL),
        # an argmax of a smooth maximum is fixed only to about
        # sqrt(machine epsilon) relative (1.1e-6 absolute at M=256), so its
        # ratio is held to 1e-6 relative and its fidelity to the maximum
        "target_fidelity": (root, OPTIMUM_TOL * root),
    }
    expected = [("grid", start + k * step, 1e-12) for k in range(count)]
    expected += [(kind, ref, tol) for kind, (ref, tol) in optima.items()]
    for i, (kind, r_ref, tol) in enumerate(expected):
        row = _row(rows, i)
        if row.get("kind") != kind:
            row = {}
        what = ("scan m =", m, kind, "row", i)
        r = _num(row.get("r"))
        tally.close(r, r_ref, tol, *what, "r")
        a1_ref, a_ref = trapped(m, r) if r > 0 else (math.nan, math.nan)
        tally.close(_num(row.get("a1")), a1_ref, FIDELITY_TOL, *what, "a1")
        tally.close(_num(row.get("a")), a_ref, FIDELITY_TOL, *what, "a")
        tally.close(_num(row.get("f_target")), (1.0 - a_ref) / 2.0, FIDELITY_TOL, *what, "f_target")
        tally.close(_num(row.get("f_input")), (1.0 - a1_ref) / 2.0, FIDELITY_TOL, *what, "f_input")
        if kind == "target_fidelity":
            best = (1.0 + 1.0 / root) / 2.0
            tally.close(_num(row.get("f_target")), best, FIDELITY_TOL, *what, "maximum")


def _verify_large(entry: dict, alpha: float, tally: Tally):
    m, tag = entry["m"], entry["scheme"]
    what = f"m={m} {tag} alpha={alpha!r}"
    a1_ref, a_ref = trapped(m, ratio(tag, m))
    tally.check("error" not in entry, what, entry.get("error"))
    amps, a1, a = entry.get("w_state", ((), math.nan, math.nan))
    if len(amps) != m + 2:
        amps = [math.nan] * (m + 2)
    tally.close(a1, a1_ref, AMPLITUDE_TOL, "w_state", what, "report a1")
    tally.close(a, a_ref, AMPLITUDE_TOL, "w_state", what, "report a")
    tally.close(amps[0], 0.0, PHOTON_TOL, "w_state", what, "ground amplitude")
    tally.close(amps[1], a1_ref, AMPLITUDE_TOL, "w_state", what, "qubit 1")
    for j in range(2, m + 1):
        tally.close(amps[j], a_ref, AMPLITUDE_TOL, "w_state", what, "qubit", j)
    tally.close(amps[m + 1], 0.0, PHOTON_TOL, "w_state", what, "photon")
    fids, c1, c = entry.get("anticlone", ((), math.nan, math.nan))
    if len(fids) != m:
        fids = [math.nan] * m
    f_target, f_input = anticlone_fidelities(tag, m)
    tally.close(c1, a1_ref, AMPLITUDE_TOL, "anticlone", what, "report a1")
    tally.close(c, a_ref, AMPLITUDE_TOL, "anticlone", what, "report a")
    tally.close(fids[0], f_input, FIDELITY_TOL, "anticlone", what, "input fidelity")
    for j in range(1, m):
        tally.close(fids[j], f_target, FIDELITY_TOL, "anticlone", what, "qubit", j + 1, "fidelity")


def verify(workload: str, params: dict, results: list) -> Tally:
    tally = Tally()
    if workload == "oracle_check":
        for inv in results:
            _verify_check(inv, tally)
    elif workload == "anticlone_sweep":
        for inv, (lo, hi) in zip(results, ANTICLONE_CHUNKS):
            _verify_anticlone(inv, lo, hi, tally)
    elif workload == "decay_scan":
        pairs = params["pairs"]
        for inv, (g, k) in zip(results, pairs):
            _verify_decoherence(inv, g, k, tally)
        for inv, m in zip(results[len(pairs) :], SCAN_SIZES):
            _verify_scan(inv, m, tally)
    else:
        for entry in results:
            _verify_large(entry, params["alpha"], tally)
    return tally
