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
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Raised when a system configuration violates its invariants."""


# Scalar input checks shared by every module.  Plain-float comparisons and
# operator.index keep them O(1): the decay scans run them several times per
# table row.


def check_count(name: str, value, minimum: int) -> int:
    """Return ``value`` as an int >= ``minimum``; floats are rejected."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ConfigurationError(f"need {name} >= {minimum}, got {count}")
    return count


def check_positive(name: str, value) -> None:
    """A coupling, a coupling ratio, a step size or omega^2 must be finite and > 0."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ConfigurationError(f"{name} must be finite and > 0, got {value}")


def check_non_negative(name: str, value) -> None:
    """A rate or a time must be finite and >= 0."""
    if not (value >= 0.0 and math.isfinite(value)):
        raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")


def check_finite(name: str, value) -> None:
    """An angle may take any real value, but it must be finite."""
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")


def check_odd_index(m_odd) -> int:
    """Return the trapping index m_odd as an int; it must be positive and odd."""
    index = check_count("trapping index", m_odd, 1)
    if index % 2 == 0:
        raise ConfigurationError(f"trapping index must be odd, got {index}")
    return index


@dataclass(frozen=True)
class SystemConfig:
    """Physical definition of the machine.

    Attributes:
        couplings: qubit-cavity coupling strengths (gamma_1, ..., gamma_M),
            all strictly positive, in units of gamma = 1.
        gamma_decay: qubit dipole decay rate (same units), >= 0.
        kappa: cavity decay rate (same units), >= 0.
    """

    couplings: tuple[float, ...]
    gamma_decay: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        couplings = tuple(float(g) for g in self.couplings)
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "gamma_decay", float(self.gamma_decay))
        object.__setattr__(self, "kappa", float(self.kappa))
        if len(couplings) < 1:
            raise ConfigurationError("need at least one qubit")
        for g in couplings:
            check_positive("coupling", g)
        # couplings of 1e200 or 1e-200 pass, but their squares leave the float range
        check_positive("omega^2 = sum of squared couplings", sum(g * g for g in couplings))
        check_non_negative("gamma_decay", self.gamma_decay)
        check_non_negative("kappa", self.kappa)

    @property
    def m(self) -> int:
        """Number of qubits M."""
        return len(self.couplings)


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
    return SystemConfig(
        couplings=(float(r),) + (1.0,) * (m - 1),
        gamma_decay=gamma_decay,
        kappa=kappa,
    )


def _star_omega_squared(m: int, r: float) -> float:
    """omega^2 = r^2 + M - 1 of the star configuration with M >= 2, in O(1).

    Checks what ``SystemConfig`` would, without building one in O(M).
    """
    m = check_count("m", m, 2)
    check_positive("coupling ratio", r)
    omega2 = r * r + (m - 1.0)
    check_positive("omega^2 = r^2 + M - 1", omega2)
    return omega2


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the M+2 basis states, in basis order.

    Conditional (no-click) states are sub-normalized; ``normalized=False``
    marks them and relaxes the unit-norm invariant to norm <= 1.
    """

    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 3:
            raise ValueError("amplitudes must be a vector over >= 3 basis states")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        n2 = self.norm_squared
        if self.normalized:
            if abs(n2 - 1.0) > 1e-12:
                raise ValueError(f"normalized state has |norm^2 - 1| = {abs(n2 - 1.0):.3e}")
        elif n2 > 1.0 + 1e-12:
            raise ValueError(f"conditional state has norm^2 = {n2:.15f} > 1")

    @property
    def m(self) -> int:
        return self.amplitudes.size - 2

    @property
    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass(frozen=True)
class GeneratorMatrix:
    """(M+1)x(M+1) generator on the one-excitation block.

    ``kind`` is "hermitian" for the closed system and "dissipative" for the
    no-click conditional generator, whose anti-Hermitian part is
    -i*diag(Gamma, ..., Gamma, kappa).
    """

    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
            raise ValueError(f"generator must be square of dimension >= 2, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("generator must have finite entries")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        if self.kind == "hermitian":
            defect = np.max(np.abs(mat - mat.conj().T))
            if defect > 1e-14:
                raise ValueError(f"hermitian generator has defect {defect:.3e}")
        elif self.kind == "dissipative":
            anti = (mat - mat.conj().T) / 2.0
            off = anti - np.diag(np.diag(anti))
            if np.max(np.abs(off)) > 0.0 or np.max(np.diag(anti).imag) > 0.0:
                raise ValueError(
                    "dissipative generator must have anti-Hermitian part "
                    "-i*diag with non-negative rates"
                )
        else:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.dim - 1


def collective_rabi(config: SystemConfig) -> float:
    """Collective Rabi frequency omega = sqrt(sum_j gamma_j^2)."""
    return float(np.sqrt(np.sum(np.square(config.couplings))))


def build_hamiltonian(config: SystemConfig) -> GeneratorMatrix:
    """Hermitian generator on the one-excitation block.

    The only couplings are qubit <-> photon: H[j, M+1] = H[M+1, j] = gamma_j.
    Row/column index k < M corresponds to basis state k+1 (qubit k+1 excited),
    index M to the one-photon state.
    """
    m = config.m
    h = np.zeros((m + 1, m + 1), dtype=complex)
    h[:m, m] = config.couplings
    h[m, :m] = config.couplings
    return GeneratorMatrix(matrix=h, kind="hermitian")


def build_dissipative_hamiltonian(config: SystemConfig) -> GeneratorMatrix:
    """No-click conditional generator: H - i*diag(Gamma, ..., Gamma, kappa)."""
    m = config.m
    rates = np.full(m + 1, config.gamma_decay)
    rates[m] = config.kappa
    mat = build_hamiltonian(config).matrix - 1j * np.diag(rates)
    return GeneratorMatrix(matrix=mat, kind="dissipative")


def initial_state(theta: float, alpha: float, config: SystemConfig) -> StateVector:
    """Product state with qubit 1 in a coherent superposition.

    Qubit 1 carries amplitude sin(theta/2) on its ground state and
    exp(i*alpha)*cos(theta/2) on its excited state; all other qubits are
    ground and the cavity is empty.  Canonically theta in [0, pi] and
    alpha in [0, 2*pi), though any finite angles are accepted.
    """
    check_finite("theta", theta)
    check_finite("alpha", alpha)
    amps = np.zeros(config.m + 2, dtype=complex)
    amps[0] = np.sin(theta / 2.0)
    amps[1] = np.exp(1j * alpha) * np.cos(theta / 2.0)
    return StateVector(amplitudes=amps, normalized=True)
