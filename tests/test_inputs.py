"""One input rule for every scalar argument of the public ``qcm`` namespace.

A real scalar passes: a Python or numpy number, or a 0-d array.  NaN, +-inf,
a value below the argument's range, a fractional or bool count, an array
with an axis where a scalar is documented, a complex value and any other
object each raise a ConfigurationError whose message names the argument,
with no warning on the way.  Arguments documented as count columns keep
their 1-D columns but refuse other arrays; the qubit index of
``reduced_qubit_density`` is an index and raises IndexError.  A label, a
scheme tag or a classification, must be one of its str values.

The array fields of the records take one rule too: entries of a numpy int or
float kind, or complex for a complex field, stored as a read-only copy.
Bools, str, bytes, objects, times and ragged sequences fail by field name.
"""

import importlib
import re
import types
import warnings

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
    error = IndexError if argument == "j" else ConfigurationError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as caught:
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
