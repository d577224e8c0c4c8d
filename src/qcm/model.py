"""Domain types and generator construction for the multiqubit-cavity machine.

The machine is M two-level qubits coupled to a single cavity mode through
excitation-conserving (rotating-wave) interactions, with in general unequal
coupling strengths gamma_j.  All rates are expressed in units of a reference
coupling gamma = 1, which fixes the time scale.

Because the excitation number is conserved, the dynamics splits into blocks.
Everything here lives in the zero/one-excitation sector, spanned by M+2 states
in the fixed ordering

    index 0      : all qubits ground, cavity empty        (stationary)
    index 1..M   : qubit j excited, cavity empty
    index M+1    : all qubits ground, one cavity photon

Generator matrices act on indices 1..M+1 only (the one-excitation block);
index 0 is carried in state vectors but never mixed in, so its stationarity
is structural rather than numerical.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np


class ConfigurationError(ValueError):
    """Raised for every input qcm refuses: a scalar or an array outside its
    rule, a record whose shape, entries or norm break its invariants, and a
    qubit index outside 1..M."""


#: how far a normalized state's norm^2 may stray from 1, and a conditional
#: state's norm^2 exceed it, by rounding
UNIT_NORM_SLACK = 1e-12
#: a state whose norm^2 is at most this floor has none to renormalize by
ZERO_NORM_FLOOR = 1e-300


# Scalar input checks shared by every module.  Plain-float comparisons and
# operator.index keep them O(1): the protocol and oracle layers run them on
# every call.  They share one input rule: a scalar argument is a real scalar,
# a Python or numpy int or float or a 0-d array of one.  An array with an
# axis, a bool, a complex value or any other object raises a
# ConfigurationError that names the argument.


def check_scalar(name: str, value, kinds: str = "iuf") -> None:
    """The input rule: ``value`` is a scalar of a numpy dtype kind in ``kinds``,
    real by default ("iufc" admits a complex amplitude too).  An int past the
    float range fails it."""
    if isinstance(value, float) or (isinstance(value, complex) and "c" in kinds):
        return  # Python and numpy float64 and complex128 values, without numpy
    try:
        array = np.asarray(value)
        scalar = array.ndim == 0 and array.dtype.kind in kinds
    except ValueError:  # a ragged sequence
        scalar = False
    if not scalar:
        number = "complex" if "c" in kinds else "real"
        raise ConfigurationError(f"{name} must be a {number} scalar, got {value!r}")


def check_integer(name: str, value, minimum: int) -> int:
    """Return ``value`` as an int >= ``minimum``; floats and bools are rejected."""
    try:
        count = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:  # a float, an array with an axis, a complex value, an object
        count = None
    if count is None:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if count < minimum:
        raise ConfigurationError(f"need {name} >= {minimum}, got {count}")
    return count


def check_count(name: str, value, minimum: int) -> int:
    """Return ``value`` as an int in [``minimum``, 2**53]; floats are rejected.

    Up to 2**53 every integer is an exact float, as the closed forms that
    take sqrt(M) or M - 1.0 need; past it they overflow or lose the count.
    """
    count = check_integer(name, value, minimum)
    if count > 2**53:
        raise ConfigurationError(f"need {name} <= 2**53, got {count}")
    return count


def check_iterable(name: str, values):
    """An iterator over ``values``; a value that is not iterable raises a
    ConfigurationError that names the argument."""
    try:
        return iter(values)
    except TypeError:
        raise ConfigurationError(f"{name} must be iterable, got {values!r}") from None


def check_count_column(name: str, column: np.ndarray, minimum: int) -> np.ndarray:
    """``check_count`` on every entry of a 1-D integer or float array in one
    vectorised pass, an integral float passing; the first entry that fails
    raises its message."""
    if column.ndim != 1 or column.dtype.kind not in "iuf":
        raise ConfigurationError(
            f"{name} must be a 1-D integer or float column, "
            f"got shape {column.shape} of {column.dtype}"
        )
    ok = (column >= minimum) & (column <= 2**53) & (column == np.floor(column))
    if not ok.all():
        value = column[ok.argmin()].item()
        check_count(name, int(value) if float(value).is_integer() else value, minimum)
    return column


def check_positive(name: str, value) -> None:
    """A coupling, a coupling ratio, a step size or omega^2 must be finite and > 0."""
    check_scalar(name, value)
    if not (value > 0.0 and math.isfinite(value)):
        raise ConfigurationError(f"{name} must be finite and > 0, got {value}")


def check_non_negative(name: str, value) -> None:
    """A rate or a time must be finite and >= 0."""
    check_scalar(name, value)
    if not (value >= 0.0 and math.isfinite(value)):
        raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")


def check_finite(name: str, value) -> None:
    """An angle may take any real value, but it must be finite."""
    check_scalar(name, value)
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")


def check_label(name: str, value, labels: tuple) -> None:
    """A label, such as a scheme tag, must be one of the str ``labels``."""
    if not (isinstance(value, str) and value in labels):
        raise ConfigurationError(f"{name} must be one of {labels}, got {value!r}")


def check_odd_index(m_odd) -> int:
    """Return the trapping index m_odd as an int; it must be positive and odd."""
    index = check_count("trapping index", m_odd, 1)
    if index % 2 == 0:
        raise ConfigurationError(f"trapping index must be odd, got {index}")
    return index


def _frozen_array(name: str, values, dtype: type) -> np.ndarray:
    """The input rule for a record's array field: ``values`` as a read-only
    copy of ``dtype``, float or complex.  Its numpy dtype kind must be int or
    float, or complex too for a complex field; a bool, a str, bytes, an
    object, a time or a ragged sequence raises a ConfigurationError that
    names the field."""
    number, kinds = ("complex", "iufc") if dtype is complex else ("real", "iuf")
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged sequence
        raise ConfigurationError(f"{name} must be {number}, got a ragged sequence") from None
    if array.dtype.kind not in kinds:
        raise ConfigurationError(f"{name} must be {number}, got {array.dtype}")
    array = np.array(array, dtype=dtype)
    array.flags.writeable = False
    return array


def replay_flagged(ok: np.ndarray, route) -> None:
    """Call ``route(i)`` on every row i that ``ok`` does not pass, in row order.

    A column pass evaluates a whole table at once and flags each row that
    fails one of its checks; ``route`` replays the row through its one-row
    computation, which raises that row's own error.
    """
    for i in np.flatnonzero(~ok).tolist():
        route(i)


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array in ascending order, as ``np.unique``
    gives them; ``np.unique`` imports ``numpy.ma`` on its first call, which
    costs a fresh ``qcm`` process tens of milliseconds and over a megabyte."""
    ordered = np.sort(values)
    first = np.ones(ordered.size, dtype=bool)  # the first entry of each run of equals
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """Physical definition of the machine.

    Attributes:
        couplings: qubit-cavity coupling strengths (gamma_1, ..., gamma_M),
            all strictly positive, in units of gamma = 1.  Stored as a
            read-only float64 copy of the input, checked once in one
            vectorised pass.
        gamma_decay: qubit dipole decay rate (same units), >= 0.
        kappa: cavity decay rate (same units), >= 0.
        omega: collective Rabi frequency sqrt(sum_j gamma_j^2), derived from
            the couplings when they are checked; neither an argument nor
            assignable.

    Configs compare and hash by identity, since an array has no tuple-like
    equality.
    """

    couplings: np.ndarray
    gamma_decay: float = 0.0
    kappa: float = 0.0
    omega: float = field(init=False, repr=False)

    def __post_init__(self):
        couplings = _frozen_array("couplings", self.couplings, float)
        if couplings.ndim != 1 or couplings.size < 1:
            raise ConfigurationError(
                f"need a 1-D sequence of at least one coupling, got shape {couplings.shape}"
            )
        (omega,) = _check_registers([couplings])
        check_non_negative("gamma_decay", self.gamma_decay)
        check_non_negative("kappa", self.kappa)
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "gamma_decay", float(self.gamma_decay))
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "omega", omega)

    @property
    def m(self) -> int:
        """Number of qubits M."""
        return len(self.couplings)


def _check_registers(registers) -> list[float]:
    """omega of each register, a 1-D float64 coupling array, after ``SystemConfig``'s
    checks; each bit-identical to the register's own config's."""
    couplings = registers[0] if len(registers) == 1 else np.concatenate(registers)
    ok = (couplings > 0.0) & (couplings < math.inf)
    # argmin finds the first coupling that is not finite and > 0, else the first one
    check_positive("coupling", couplings[ok.argmin()])
    # couplings of 1e200 or 1e-200 pass, but their squares leave the float range
    with np.errstate(over="ignore"):
        omega = np.sqrt([np.add.reduce(np.square(g)) for g in registers]).tolist()
    for w in omega:
        check_positive("omega^2 = sum of squared couplings", w * w)
    return omega


def star_config(
    m: int,
    r: float,
    gamma_decay: float = 0.0,
    kappa: float = 0.0,
) -> SystemConfig:
    """Star-coupling configuration: gamma_1 = r, gamma_j = 1 for j > 1.

    The single asymmetric qubit (the input qubit of the protocols) couples
    r times more strongly than the M-1 identical partners.
    """
    m = check_count("m", m, 1)
    check_positive("coupling ratio", r)
    couplings = np.ones(m)
    couplings[0] = r
    return SystemConfig(couplings=couplings, gamma_decay=gamma_decay, kappa=kappa)


def _star_omega_squared(m: int, r: float) -> float:
    """omega^2 = r^2 + M - 1 of the star configuration with M >= 2, in O(1).

    Checks what ``SystemConfig`` would, without building one in O(M).
    """
    m = check_count("m", m, 2)
    check_positive("coupling ratio", r)
    omega2 = r * r + (m - 1.0)
    check_positive("omega^2 = r^2 + M - 1", omega2)
    return omega2


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over the M+2 basis states, in basis order.

    Conditional (no-click) states are sub-normalized; ``normalized=False``
    marks them and relaxes the unit-norm invariant to norm <= 1.  The flag
    is a Python or numpy bool.
    ``norm_squared`` is derived from the amplitudes when they are checked,
    as one pairwise sum of re^2 + im^2 over their float view; it is neither
    an argument nor assignable.  Only a sum that is not finite calls for the
    per-entry finiteness check, so a NaN or an infinite entry fails as not
    finite, and finite entries whose squares overflow fail the norm bound.
    The amplitudes are always a read-only complex128 copy.  States compare
    and hash by identity.
    """

    amplitudes: np.ndarray
    normalized: bool = True
    norm_squared: float = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.normalized, (bool, np.bool_)):
            raise ConfigurationError(f"normalized must be a bool, got {self.normalized!r}")
        amps = _frozen_array("amplitudes", self.amplitudes, complex)
        if amps.ndim != 1 or amps.size < 3:
            raise ConfigurationError("amplitudes must be a vector over >= 3 basis states")
        with np.errstate(over="ignore"):  # finite entries of 1e200 square past the float range
            n2 = float(np.square(amps.view(float)).sum())
        if not math.isfinite(n2) and not np.isfinite(amps.view(float)).all():
            raise ConfigurationError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "norm_squared", n2)
        if self.normalized:
            if abs(n2 - 1.0) > UNIT_NORM_SLACK:
                raise ConfigurationError(f"normalized state has |norm^2 - 1| = {abs(n2 - 1.0):.3e}")
        elif n2 > 1.0 + UNIT_NORM_SLACK:
            raise ConfigurationError(f"conditional state has norm^2 = {n2:.15f} > 1")

    @property
    def m(self) -> int:
        return self.amplitudes.size - 2


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """(M+1)x(M+1) generator on the one-excitation block.

    ``kind`` is "hermitian" for the closed system and "dissipative" for the
    no-click conditional generator, whose anti-Hermitian part is
    -i*diag(Gamma, ..., Gamma, kappa).  Generators compare by identity.
    """

    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        _freeze_matrix(self, "generator", lambda mat: _check_generators(mat, self.kind))

    @property
    def m(self) -> int:
        return self.matrix.shape[0] - 1


def _freeze_matrix(record, name: str, check) -> None:
    """Freeze ``record.matrix`` as a complex copy, square of size >= 2, that passes ``check``."""
    mat = _frozen_array(name, record.matrix, complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
        raise ConfigurationError(f"{name} must be square of dimension >= 2, got {mat.shape}")
    check(mat)
    object.__setattr__(record, "matrix", mat)


def _check_generators(matrix: np.ndarray, kind: str) -> None:
    """``GeneratorMatrix``'s checks on one generator or a stack (..., d, d) array.

    Array methods rather than numpy's functions: ``qcm check`` runs this on
    every same-shape block, where the functions' wrappers cost a third.
    """
    if not np.isfinite(matrix).all():
        raise ConfigurationError("generator must have finite entries")
    difference = matrix - matrix.swapaxes(-1, -2).conj()
    if kind == "hermitian":
        defect = abs(difference).max()
        if defect > 1e-14:
            raise ConfigurationError(f"hermitian generator has defect {defect:.3e}")
    elif kind == "dissipative":
        anti = difference / 2.0
        off_diagonal = ~np.eye(matrix.shape[-1], dtype=bool)
        if np.any(anti[..., off_diagonal]) or np.any(np.diagonal(anti, 0, -2, -1).imag > 0.0):
            raise ConfigurationError(
                "dissipative generator must have anti-Hermitian part "
                "-i*diag with non-negative rates"
            )
    else:
        raise ConfigurationError(f"unknown generator kind {kind!r}")


def _generators(couplings: np.ndarray, rates: np.ndarray | None = None) -> np.ndarray:
    """Unchecked generators of registers (..., M), less i*diag(rates (..., M+1))."""
    m = couplings.shape[-1]
    h = np.zeros(couplings.shape[:-1] + (m + 1, m + 1), dtype=complex)
    h[..., :m, m] = h[..., m, :m] = couplings
    if rates is not None:
        h.reshape(*h.shape[:-2], -1)[..., :: m + 2] -= 1j * rates  # the diagonal
    return h


def build_hamiltonian(config: SystemConfig) -> GeneratorMatrix:
    """Hermitian generator on the one-excitation block.

    The only couplings are qubit <-> photon: H[j, M] = H[M, j] = gamma_j.
    Row/column index k < M corresponds to basis state k+1 (qubit k+1 excited),
    index M to the one-photon state.
    """
    return GeneratorMatrix(matrix=_generators(config.couplings), kind="hermitian")


def build_dissipative_hamiltonian(config: SystemConfig) -> GeneratorMatrix:
    """No-click conditional generator: H - i*diag(Gamma, ..., Gamma, kappa)."""
    rates = np.append(np.full(config.m, config.gamma_decay), config.kappa)
    return GeneratorMatrix(matrix=_generators(config.couplings, rates), kind="dissipative")


def initial_state(theta: float, alpha: float, config: SystemConfig) -> StateVector:
    """Product state with qubit 1 in a coherent superposition.

    Qubit 1 carries amplitude sin(theta/2) on its ground state and
    exp(i*alpha)*cos(theta/2) on its excited state; all other qubits are
    ground and the cavity is empty.  Canonically theta in [0, pi] and
    alpha in [0, 2*pi), though any finite angles are accepted.
    """
    ground, excited = _input_amplitudes(theta, alpha)
    amps = np.zeros(config.m + 2, dtype=complex)
    amps[0], amps[1] = ground, excited
    return StateVector(amplitudes=amps, normalized=True)


def _input_amplitudes(theta: float, alpha: float) -> tuple:
    """(ground, excited) amplitudes of qubit 1 in ``initial_state``, after its
    checks of theta, then alpha; the ground amplitude is real."""
    check_finite("theta", theta)
    check_finite("alpha", alpha)
    return np.sin(theta / 2.0), np.exp(1j * alpha) * np.cos(theta / 2.0)
