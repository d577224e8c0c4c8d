"""One input rule for every scalar argument of the public ``qcm`` namespace.

A real scalar passes: a Python or numpy number, or a 0-d array.  NaN, +-inf,
a value below the argument's range, a fractional or bool count, an array
with an axis where a scalar is documented, a complex value and any other
object each raise a ConfigurationError whose message names the argument,
with no warning on the way.  Arguments documented as count columns keep
their 1-D columns but refuse other arrays.  A label, a scheme tag or a
classification, must be one of its str values.

The array fields of the records take one rule too: entries of a numpy int or
float kind, or complex for a complex field, stored as a read-only copy.
Bools, str, bytes, objects, times and ragged sequences fail by field name.

Every other refusal is a ConfigurationError as well, with its own message: a
record's shape, finiteness and norm checks, a state and a config or
generator of different sizes, a qubit index outside 1..M and a zero norm.
"""

import argparse
import importlib
import re
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import qcm
from qcm import (
    ConditionalAmplitudes,
    ConfigurationError,
    CouplingScheme,
    DecoherenceReport,
    GeneratorMatrix,
    PropagatorMatrix,
    ProtocolReport,
    StateVector,
    SystemConfig,
    W_PLUS,
    build_dissipative_hamiltonian,
    build_hamiltonian,
    classify_trapped_state,
    closed_form_propagator,
    conditional_amplitudes,
    decay_robustness_scan,
    decohered_fidelity,
    evolve,
    evolve_oracle_expm,
    fidelity_curve,
    generate_w_state,
    initial_state,
    no_click_probability,
    optimize_coupling_ratio,
    reduced_qubit_density,
    renormalized_trapping_time,
    run_anticlone,
    star_config,
    trapped_amplitudes,
    trapping_time,
)
from qcm.cli import write_table
from qcm.propagator import evolve_oracle_rk4, expm_hermitian, rk4_propagate, rk4_propagate_many

CONFIG = star_config(3, 1.5, gamma_decay=0.01, kappa=0.02)
LOSSLESS = star_config(3, 1.5)
STATE = initial_state(np.pi / 2.0, 0.3, LOSSLESS)


def _not_scalars(good) -> list:
    """Arrays with an axis, a bool, a complex value and an object, around a good value."""
    return [np.array([good]), np.array([good, good]), True, complex(good), object()]


def count(minimum: int) -> list:
    return [np.nan, np.inf, -np.inf, minimum - 1, -1, 2.5, *_not_scalars(3)]


#: count columns that are not 1-D integer or float arrays
BAD_COLUMNS = [
    np.array([[3, 4]]),
    np.array([3, 4], complex),
    np.array([3, 4], object),
    np.array([True, True]),
]


def count_or_column(minimum: int) -> list:
    """``count``'s values without the 1-D columns, which pass, plus the columns
    that do not."""
    return [v for v in count(minimum) if np.ndim(v) == 0] + [np.array(True)] + BAD_COLUMNS


NON_FINITE = [np.nan, np.inf, -np.inf]
FINITE = NON_FINITE + _not_scalars(0.3)
NON_NEGATIVE = NON_FINITE + [-0.5, -1e-300] + _not_scalars(0.5)
POSITIVE = NON_FINITE + [0.0, -1.0] + _not_scalars(1.5)
UNIT = NON_FINITE + [-0.5, 1.5] + _not_scalars(0.5)
ODD = [np.nan, np.inf, 0, 2, -1, 1.5, *_not_scalars(1)]
AMPLITUDE = [np.array([0.5j]), np.array([0.5j, 0.5j]), True, object()]
COUNTS = [[2.5], [True], [np.nan], [1], np.array(3), *BAD_COLUMNS]
INDEX = [np.nan, np.inf, 0, 4, 1.5, True, complex(2), object()]

#: good fields of the two report records
REPORT = dict(
    m=3, scheme="custom", r=1.5, trapping_time=1.0, a1=0.1, a=-0.5, classification="generic"
)
DECAY_REPORT = dict(m=3, r=1.5, tau_star_c=1.0, fidelity=0.9, p_no_click=0.95)

RATE = {"gamma_decay": (NON_NEGATIVE, "gamma_decay"), "kappa": (NON_NEGATIVE, "kappa")}
STAR = {"m": (count(2), "m"), "r": (POSITIVE, "coupling ratio")}
#: a time past about 1e308 / nu overflows the phase nu*t, which libm's sin and cos refuse
TIME = {"t": (NON_NEGATIVE + [1e308], "time")}

#: (qcm name, callable, good keyword arguments, {argument: (bad values, message label)})
SCALAR_ARGUMENTS = [
    ("SystemConfig", SystemConfig, dict(couplings=[1.5, 1.0], gamma_decay=0.01, kappa=0.02), RATE),
    (
        "star_config",
        star_config,
        dict(m=3, r=1.5, gamma_decay=0.01, kappa=0.02),
        STAR | {"m": (count(1), "m")} | RATE,  # one qubit makes a register
    ),
    (
        "initial_state",
        initial_state,
        dict(theta=0.3, alpha=0.4, config=LOSSLESS),
        {"theta": (FINITE, "theta"), "alpha": (FINITE, "alpha")},
    ),
    ("closed_form_propagator", closed_form_propagator, dict(config=CONFIG, t=0.5), TIME),
    ("evolve", evolve, dict(state=STATE, config=CONFIG, t=0.5), TIME),
    (
        "evolve_oracle_expm",
        evolve_oracle_expm,
        dict(generator=build_hamiltonian(LOSSLESS), state=STATE, t=0.5),
        TIME,
    ),
    (
        "trapping_time",
        trapping_time,
        dict(config=CONFIG, m_odd=1),
        {"m_odd": (ODD, "trapping index")},
    ),
    (
        "CouplingScheme",
        CouplingScheme,
        dict(tag="custom", custom_ratio=1.5),
        {"custom_ratio": (POSITIVE, "coupling ratio")},
    ),
    ("CouplingScheme", CouplingScheme.custom, dict(r=1.5), {"r": (POSITIVE, "coupling ratio")}),
    ("CouplingScheme", W_PLUS.ratio, dict(m=3), {"m": (count_or_column(1), "m")}),
    (
        "ProtocolReport",
        ProtocolReport,
        REPORT,
        {
            "m": (count(2), "m"),
            "r": (POSITIVE, "coupling ratio"),
            "trapping_time": (POSITIVE, "trapping_time"),
            "a1": (FINITE, "a1"),
            "a": (FINITE, "a"),
        },
    ),
    ("trapped_amplitudes", trapped_amplitudes, dict(m=3, r=1.5), STAR),
    (
        "classify_trapped_state",
        classify_trapped_state,
        dict(a1=0.1, a=-0.5),
        {"a1": (FINITE, "a1"), "a": (FINITE, "a")},
    ),
    ("generate_w_state", generate_w_state, dict(m=3, scheme=W_PLUS), {"m": (count(2), "m")}),
    (
        "reduced_qubit_density",
        reduced_qubit_density,
        dict(state=STATE, j=2),
        {"j": (INDEX, "qubit index")},
    ),
    ("fidelity_curve", fidelity_curve, dict(m=3, scheme=W_PLUS), {"m": (count_or_column(2), "m")}),
    (
        "run_anticlone",
        run_anticlone,
        dict(m=3, scheme=W_PLUS, alpha=0.3),
        {"m": (count(2), "m"), "alpha": (FINITE, "alpha")},
    ),
    (
        "optimize_coupling_ratio",
        optimize_coupling_ratio,
        dict(m=3, objective="w_symmetry"),
        {"m": (count(2), "m")},
    ),
    (
        "ConditionalAmplitudes",
        ConditionalAmplitudes,
        dict(m=3, b1=0.5 + 0.1j, b=-0.2j, b_photon=0.1),
        {
            "m": (count(2), "m"),
            "b1": (AMPLITUDE, "b1"),
            "b": (AMPLITUDE, "b"),
            "b_photon": (AMPLITUDE, "b_photon"),
        },
    ),
    *(
        (f.__name__, f, dict(m=3, r=1.5, gamma_decay=0.01, kappa=0.02, t=0.5), STAR | RATE | TIME)
        for f in (conditional_amplitudes, no_click_probability)
    ),
    *(
        (
            f.__name__,
            f,
            dict(m=3, r=1.5, gamma_decay=0.01, kappa=0.02, m_odd=1),
            STAR | RATE | {"m_odd": (ODD, "trapping index")},
        )
        for f in (renormalized_trapping_time, decohered_fidelity)
    ),
    (
        "DecoherenceReport",
        DecoherenceReport,
        DECAY_REPORT,
        STAR
        | {
            "tau_star_c": (POSITIVE, "tau_star_c"),
            "fidelity": (UNIT, "fidelity"),
            "p_no_click": (UNIT, "no-click probability"),
        },
    ),
    (
        "decay_robustness_scan",
        decay_robustness_scan,
        dict(m_values=[2, 3], gamma_decay=0.01, kappa=0.02, m_odd=1),
        {"m_values": (COUNTS, "m")} | RATE | {"m_odd": (ODD, "trapping index")},
    ),
]

#: exported names that take no scalar argument: exception types, records of
#: arrays (StateVector's flag and GeneratorMatrix's kind are no numbers),
#: generator builders of a config, and the named schemes (their ``ratio`` is
#: CouplingScheme's)
NO_SCALAR_ARGUMENT = {
    "ConfigurationError",
    "OverdampedRegimeError",
    "GeneratorMatrix",
    "PropagatorMatrix",
    "StateVector",
    "build_hamiltonian",
    "build_dissipative_hamiltonian",
    "IDENTICAL",
    "W_MINUS",
    "W_PLUS",
    "W_PRIME",
}


def public_names(module) -> set[str]:
    return {
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_the_sweep_covers_every_export():
    assert {row[0] for row in SCALAR_ARGUMENTS} | NO_SCALAR_ARGUMENT == public_names(qcm)


#: test-only routines, each still defined (and traced) in its own module
MOVED_OUT = {
    "qcm.propagator": (
        "evolve_oracle_rk4",
        "rk4_propagate",
        "rk4_propagate_many",
        "expm_hermitian",
    ),
    "qcm.protocols": ("copy_fidelity", "equatorial_qubit_density", "transfer_fidelity_formula"),
}


def test_namespace_has_34_names_without_the_test_only_routines():
    names = public_names(qcm)
    assert len(names) == 34
    for module, moved in MOVED_OUT.items():
        for name in moved:
            assert name not in names
            assert callable(getattr(importlib.import_module(module), name))


CASES = [
    pytest.param(call, good, argument, bad, label, id=f"{call.__qualname__}-{argument}-{i}")
    for _, call, good, arguments in SCALAR_ARGUMENTS
    for argument, (bads, label) in arguments.items()
    for i, bad in enumerate(bads)
]


#: (callable, good keyword arguments, argument, bad value, message label) of the
#: arguments that take no scalar: a scheme, and the iterables of the scan
OTHER_CASES = [
    (generate_w_state, dict(m=3, scheme=W_PLUS), "scheme", "w_plus", "scheme"),
    (run_anticlone, dict(m=3, scheme=W_PLUS, alpha=0.3), "scheme", "w_plus", "scheme"),
    (fidelity_curve, dict(m=3, scheme=W_PLUS), "scheme", "w_plus", "scheme"),
    (fidelity_curve, dict(m=np.array([3.0]), scheme=W_PLUS), "scheme", None, "scheme"),
    (decay_robustness_scan, dict(m_values=[2, 3]), "schemes", [W_PLUS, "w_prime"], "scheme"),
    (decay_robustness_scan, dict(m_values=[2, 3]), "schemes", W_PLUS, "schemes"),
    (decay_robustness_scan, dict(m_values=[2, 3]), "m_values", 5, "m_values"),
]

#: labels, each one of a fixed tuple of str: a scheme tag, and a trapped state's classification
OTHER_CASES += [
    (CouplingScheme, dict(tag="w_plus"), "tag", bad, "scheme") for bad in (None, "w_max")
] + [
    (ProtocolReport, REPORT, "scheme", bad, "scheme") for bad in (None, 42, "w_plus2")
] + [
    (ProtocolReport, REPORT, "classification", bad, "classification")
    for bad in (17, None, "W", np.array("generic"))
] + [
    (DecoherenceReport, DECAY_REPORT, "scheme", bad, "scheme") for bad in (None, 42, "custom ")
] + [
    (decohered_fidelity, dict(m=3, r=1.0, gamma_decay=0.001, kappa=0.02), "scheme", 42, "scheme"),
]
CASES += [
    pytest.param(*case, id=f"{case[0].__qualname__}-{case[2]}-{type(case[3]).__name__}")
    for case in OTHER_CASES
]


@pytest.mark.parametrize("call, good, argument, bad, label", CASES)
def test_bad_scalar_fails_by_name(call, good, argument, bad, label):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError) as caught:
            call(**{**good, argument: bad})
    assert re.match(rf"(need )?{re.escape(label)}\b", str(caught.value)), str(caught.value)


@pytest.mark.parametrize(
    "name, call, good, arguments", [pytest.param(*row, id=row[0]) for row in SCALAR_ARGUMENTS]
)
def test_real_scalars_pass(name, call, good, arguments):
    # every good value also passes as a numpy scalar and as a 0-d array
    call(**good)
    for argument in arguments:
        value = good[argument]
        if np.ndim(value) == 0 and not isinstance(value, complex):
            call(**{**good, argument: np.asarray(value)})
            call(**{**good, argument: np.asarray(value)[()]})


#: (record, good keyword arguments, array field, label of its messages, whether complex)
ARRAY_FIELDS = [
    (SystemConfig, dict(couplings=[2, 1]), "couplings", "couplings", False),
    (StateVector, dict(amplitudes=[0, 1, 0]), "amplitudes", "amplitudes", True),
    (GeneratorMatrix, dict(matrix=[[0, 1], [1, 0]], kind="hermitian"), "matrix", "generator", True),
    (PropagatorMatrix, dict(matrix=[[0, 1], [1, 0]]), "matrix", "propagator", True),
    (ProtocolReport, REPORT | dict(fidelities=[1, 0, 1]), "fidelities", "fidelities", False),
]


def _not_numbers(good, complex_field: bool) -> dict:
    """Values of the good value's shape that numpy holds as no numbers of the
    field, and a ragged sequence, by name."""
    array = np.asarray(good)
    bad = {
        "bool": array.astype(bool),
        "str": array.astype(str).tolist(),
        "bytes": array.astype(bytes),
        "object": array.astype(object),
        "timedelta64": array.astype("m8[s]"),
        "ragged": [good[0], good],
        "int_past_uint64": np.full(array.shape, 2**64, object).tolist(),  # numpy holds objects
    }
    if not complex_field:
        bad["complex"] = array + 0j
    return bad


ARRAY_CASES = [
    pytest.param(record, good, argument, bad, label, id=f"{record.__name__}-{argument}-{kind}")
    for record, good, argument, label, complex_field in ARRAY_FIELDS
    for kind, bad in _not_numbers(good[argument], complex_field).items()
] + [
    pytest.param(record, good, argument, None, label, id=f"{record.__name__}-{argument}-None")
    for record, good, argument, label, _ in ARRAY_FIELDS
    if record is not ProtocolReport  # a report without fidelities is a W-state report
]


@pytest.mark.parametrize("record, good, argument, bad, label", ARRAY_CASES)
def test_bad_array_fails_by_name(record, good, argument, bad, label):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError) as caught:
            record(**{**good, argument: bad})
    assert re.match(rf"{re.escape(label)}\b", str(caught.value)), str(caught.value)


@pytest.mark.parametrize(
    "record, good, argument, label, complex_field",
    [pytest.param(*row, id=row[0].__name__) for row in ARRAY_FIELDS],
)
def test_number_arrays_pass_as_a_read_only_copy(record, good, argument, label, complex_field):
    # ints, narrow floats and (for a complex field) complex entries keep their values,
    # and the record keeps them when the caller's array changes
    dtype = complex if complex_field else float
    kinds = [np.int64, np.uint8, np.float32, np.float64] + [np.complex64] * complex_field
    for kind in kinds:
        mine = np.asarray(good[argument]).astype(kind)
        stored = getattr(record(**{**good, argument: mine}), argument)
        assert stored.dtype == dtype and not stored.flags.writeable
        mine.flat[0] = 3
        np.testing.assert_array_equal(stored, np.asarray(good[argument], dtype))


HERMITIAN = build_hamiltonian(LOSSLESS)
#: a stack of two 2x2 generators
PAIR = np.stack([np.eye(2)] * 2)
TWO_QUBITS = initial_state(0.3, 0.4, star_config(2, 1.0))

#: (case id, callable, arguments, message) of the values a record or a routine
#: refuses for their shape, their entries, their norm or an index, though
#: each is of a type it takes
INVARIANT_CASES = [
    *(
        (f"amplitudes-{name}", StateVector, dict(amplitudes=bad), message)
        for name, bad, message in (
            ("two", [1.0, 0.0], "amplitudes must be a vector over >= 3 basis states"),
            ("matrix", np.eye(3), "amplitudes must be a vector over >= 3 basis states"),
            ("nan", [np.nan, 0, 0], "amplitudes must be finite"),
            ("inf", [1, complex(0, np.inf), 0], "amplitudes must be finite"),
            ("norm", [1, 1, 0], "normalized state has |norm^2 - 1| = 1.000e+00"),
            # finite entries whose squares overflow fail the norm bound, with no
            # numpy warning; a non-finite entry still fails as not finite first
            ("overflow", [1e200, 0, 0], "normalized state has |norm^2 - 1| = inf"),
            ("nan-overflow", [1e200, np.nan, 0], "amplitudes must be finite"),
        )
    ),
    (
        "conditional-overflow",
        StateVector,
        dict(amplitudes=[1e200, 0, 0], normalized=False),
        "conditional state has norm^2 = inf > 1",
    ),
    # just past the unit-norm slack, each way
    (
        "normalized-slack",
        StateVector,
        dict(amplitudes=[np.sqrt(1.0 - 3e-12), 0, 0]),
        "normalized state has |norm^2 - 1| = 3.000e-12",
    ),
    (
        "conditional-slack",
        StateVector,
        dict(amplitudes=[np.sqrt(1.0 + 3e-12), 0, 0], normalized=False),
        "conditional state has norm^2 = 1.000000000003000 > 1",
    ),
    *(
        (
            f"{label}-{'x'.join(map(str, shape))}",
            record,
            dict(matrix=np.ones(shape), **kind),
            f"{label} must be square of dimension >= 2, got {shape}",
        )
        for record, label, kind in (
            (GeneratorMatrix, "generator", dict(kind="hermitian")),
            (PropagatorMatrix, "propagator", {}),
        )
        for shape in ((1, 1), (2, 3), (3,))
    ),
    (
        "generator-nan",
        GeneratorMatrix,
        dict(matrix=[[np.nan, 0], [0, 0]], kind="hermitian"),
        "generator must have finite entries",
    ),
    (
        "generator-defect",
        GeneratorMatrix,
        dict(matrix=[[0, 1], [0, 0]], kind="hermitian"),
        "hermitian generator has defect 1.000e+00",
    ),
    *(
        (
            f"generator-{name}",
            GeneratorMatrix,
            dict(matrix=matrix, kind="dissipative"),
            "dissipative generator must have anti-Hermitian part -i*diag with non-negative rates",
        )
        for name, matrix in (("gain", [[0.1j, 1], [1, 0]]), ("off-diagonal", [[0, 1], [0.5, 0]]))
    ),
    (
        "generator-kind",
        GeneratorMatrix,
        dict(matrix=[[0, 1], [1, 0]], kind="unitary"),
        "unknown generator kind 'unitary'",
    ),
    (
        "propagator-inf",
        PropagatorMatrix,
        dict(matrix=[[np.inf, 0], [0, 1]]),
        "propagator has non-finite entries",
    ),
    (
        "expm_hermitian",
        expm_hermitian,
        dict(matrix=np.array([[0, 1], [0, 0]]), t=0.5),
        "hermitian generator has defect 1.000e+00",
    ),
    # the oracle routines name every shape they are given
    *(
        (
            f"expm_hermitian-{name}",
            expm_hermitian,
            dict(matrix=matrix, t=t),
            f"shapes {shapes} do not fit matrices (..., d, d) and times (...)",
        )
        for name, matrix, t, shapes in (
            ("vector", np.ones(2), 0.5, "(2,) and ()"),
            ("not-square", np.ones((2, 3)), 0.5, "(2, 3) and ()"),
            ("times", PAIR, np.ones(3), "(2, 2, 2) and (3,)"),
        )
    ),
    *(
        (
            f"rk4_propagate-{name}",
            rk4_propagate,
            dict(generator=generator, amplitudes=amplitudes, t=t),
            f"shapes {shapes} do not fit generators (..., d, d), amplitudes (..., d) and "
            "times (...)",
        )
        for name, generator, amplitudes, t, shapes in (
            ("not-square", np.ones((2, 3)), np.ones(3), 0.5, "(2, 3), (3,) and ()"),
            ("amplitudes", np.eye(2), np.ones(3), 0.5, "(2, 2), (3,) and ()"),
            ("scalar", np.eye(2), 1.0, 0.5, "(2, 2), () and ()"),
            ("stacks", PAIR, np.ones((3, 2)), 0.5, "(2, 2, 2), (3, 2) and ()"),
            ("times", PAIR, np.ones((2, 2)), np.ones(3), "(2, 2, 2), (2, 2) and (3,)"),
        )
    ),
    *(
        (
            f"rk4_propagate_many-{name}",
            rk4_propagate_many,
            dict(
                generators=[HERMITIAN.matrix, generator],
                amplitude_vectors=[STATE.amplitudes[1:], amplitudes],
                times=[0.5, 0.5],
            ),
            f"instance 1: shapes {shapes} do not fit a generator (d, d) and amplitudes (d,)",
        )
        for name, generator, amplitudes, shapes in (
            ("not-square", np.ones((2, 3)), np.ones(3), "(2, 3) and (3,)"),
            ("amplitudes", np.eye(2), np.ones(3), "(2, 2) and (3,)"),
            ("stack", PAIR, np.ones((2, 2)), "(2, 2, 2) and (2, 2)"),
        )
    ),
    (
        "evolve-size",
        evolve,
        dict(state=TWO_QUBITS, config=CONFIG, t=0.5),
        "state is for M=2 qubits, config for M=3",
    ),
    (
        "evolve_oracle_expm-kind",
        evolve_oracle_expm,
        dict(generator=build_dissipative_hamiltonian(CONFIG), state=STATE, t=0.5),
        "eigendecomposition oracle requires a hermitian generator",
    ),
    *(
        (
            f"{f.__name__}-size",
            f,
            dict(generator=HERMITIAN, state=TWO_QUBITS, t=0.5),
            "state is for M=2 qubits, generator for M=3",
        )
        for f in (evolve_oracle_expm, evolve_oracle_rk4)
    ),
    (
        "rk4_propagate_many-pairs",
        rk4_propagate_many,
        dict(generators=[HERMITIAN.matrix], amplitude_vectors=[], times=[0.5]),
        "generators and amplitude vectors must pair up",
    ),
    (
        "rk4_propagate_many-times",
        rk4_propagate_many,
        dict(
            generators=[HERMITIAN.matrix] * 2,
            amplitude_vectors=[STATE.amplitudes[1:]] * 2,
            times=[0.5],
        ),
        "need one time per generator, got 1 for 2",
    ),
    *(
        (
            f"fidelities-{value}",
            ProtocolReport,
            REPORT | dict(fidelities=[1.0, value, 0.5]),
            f"fidelity of qubit 2 outside [0, 1]: {value}",
        )
        for value in (1.5, -0.5, np.nan, np.inf)
    ),
    (
        "reduced_qubit_density-index",
        reduced_qubit_density,
        dict(state=STATE, j=np.array([1, 4])),
        "qubit index [1 4] is not an integer in 1..3",
    ),
    (
        "reduced_qubit_density-zero",
        reduced_qubit_density,
        dict(state=StateVector(np.zeros(5), normalized=False), j=1),
        "cannot reduce a zero-norm state",
    ),
    # decay this fast leaves no norm at the trapping instant
    (
        "decay_robustness_scan-zero",
        decay_robustness_scan,
        dict(m_values=[2, 3], gamma_decay=5000.0, kappa=5000.0),
        "conditional state has zero norm",
    ),
    (
        "decohered_fidelity-zero",
        decohered_fidelity,
        dict(m=2, r=1.0, gamma_decay=5000.0, kappa=5000.0),
        "conditional state has zero norm",
    ),
    (
        "write_table",
        write_table,
        dict(headers=["m", "r"], columns=[[2, 3]], args=argparse.Namespace(format="csv")),
        "a table needs one column per header, all of one length: got 2 headers and columns "
        "of lengths [2]",
    ),
]


@pytest.mark.parametrize(
    "call, arguments, message", [pytest.param(*row[1:], id=row[0]) for row in INVARIANT_CASES]
)
def test_broken_invariant_fails_with_its_message(call, arguments, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            call(**arguments)


def test_every_refusal_in_qcm_is_a_configuration_error():
    # every refused input is a ConfigurationError; FloatingPointError marks a
    # numerical failure of the RK4 oracle, not a refused input
    for path in Path(qcm.__file__).parent.glob("*.py"):
        raised = set(re.findall(r"raise (\w+)\(", path.read_text()))
        assert raised <= {
            "ConfigurationError",
            "OverdampedRegimeError",  # a ConfigurationError
            "FloatingPointError",
            "CheckFailure",  # a check out of tolerance, exit 1
        }, path.name
