"""Time evolution on the one-excitation block.

Three independent routes to the same propagation are kept side by side:

* ``closed_form_propagator`` -- the analytic no-click matrix for any
  couplings and rates (unitary without decay), built from one scalar
  kernel that ``qcm.decoherence`` also projects onto the star couplings;
* ``evolve_oracle_expm`` -- exp(-iHt) through a Hermitian eigendecomposition;
* ``evolve_oracle_rk4`` -- fixed-step classical Runge-Kutta integration of
  the Schrodinger equation, valid also for the dissipative generator.  For
  a constant generator n RK4 steps of size h are exactly T(h)^n, with T the
  degree-4 Taylor polynomial of exp(-iGh), and that power is what is
  evaluated; it still shares nothing with the closed form.

The oracles exist to cross-validate every closed form in this package; the
expected agreement is 1e-10 (eigendecomposition) and 1e-8 (RK4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ConfigurationError,
    GeneratorMatrix,
    StateVector,
    SystemConfig,
    check_non_negative,
    check_odd_index,
    check_positive,
    collective_rabi,
)


@dataclass(frozen=True)
class PropagatorMatrix:
    """(M+1)x(M+1) propagator over the one-excitation block at time ``time``.

    Row/column k < M corresponds to basis state k+1 (qubit k+1 excited),
    row/column M to the one-photon state; time is in units of 1/gamma.
    """

    matrix: np.ndarray
    time: float

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
            raise ValueError(f"propagator must be square of dimension >= 2, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("propagator has non-finite entries")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "time", float(self.time))


class OverdampedRegimeError(ConfigurationError):
    """Raised for a trapping time when 2*omega <= |kappa - Gamma|: the photon
    amplitude then never returns to zero.  Amplitudes work in every regime."""


def _trap_time(omega2: float, gamma_decay: float, kappa: float, m_odd) -> float:
    """The m_odd'th trapping instant 2*m_odd*pi/sqrt(4*omega^2 - (kappa - Gamma)^2)."""
    m_odd = check_odd_index(m_odd)
    check_non_negative("gamma_decay", gamma_decay)
    check_non_negative("kappa", kappa)
    detuning = kappa - gamma_decay
    disc = 4.0 * omega2 - detuning * detuning
    if disc <= 0.0:
        raise OverdampedRegimeError(
            f"overdamped: 2*omega = {2.0 * math.sqrt(omega2):.6g} <= "
            f"|kappa - gamma_decay| = {abs(detuning):.6g}; no trapping instant exists"
        )
    return 2.0 * m_odd * math.pi / math.sqrt(disc)


def _no_click_kernel(omega2: float, gamma_decay: float, kappa: float, t: float) -> tuple:
    """(dark, qubit, edge, photon) of the no-click propagator at time t.

    Qubit vectors orthogonal to the couplings only decay, as dark =
    exp(-Gamma*t); the bright mode g/omega and the photon form a 2x2 problem
    of frequency nu, nu^2 = omega^2 - d^2 with d = (kappa - Gamma)/2.  With
    E = exp(-(Gamma + kappa)*t/2), C = cos(nu*t), S = sin(nu*t)/nu (1 and t
    at critical damping, cosh and sinh past it) and C - 1 = -2*sin^2(nu*t/2):

        qubit = E*((C - 1) + d*S - expm1(d*t))/omega^2,  edge = -i*E*S,
        photon = E*(C - d*S)
    """
    check_non_negative("gamma_decay", gamma_decay)
    check_non_negative("kappa", kappa)
    check_non_negative("time", t)
    d = (kappa - gamma_decay) / 2.0
    nu2 = omega2 - d * d
    dark = math.exp(-gamma_decay * t)
    joint = decay = math.exp(-(gamma_decay + kappa) / 2.0 * t)
    if nu2 > 0.0:
        nu = math.sqrt(nu2)
        c, sinc = math.cos(nu * t), math.sin(nu * t) / nu
        c_minus_1 = -2.0 * math.sin(nu * t / 2.0) ** 2
    elif nu2 == 0.0:
        c, sinc, c_minus_1 = 1.0, t, 0.0
    else:
        # cosh and sinh carry exp(mu*t), moved into decay lest they overflow;
        # mu - (Gamma + kappa)/2 = -min(Gamma, kappa) - omega^2/(|d| + mu) cannot cancel
        mu = math.sqrt(-nu2) if nu2 > -math.inf else abs(d)  # d*d overflowed: omega << |d|
        decay = math.exp(-(min(gamma_decay, kappa) + omega2 / (abs(d) + mu)) * t)
        c = (1.0 + math.exp(-2.0 * mu * t)) / 2.0
        sinc = -math.expm1(-2.0 * mu * t) / (2.0 * mu)
        c_minus_1 = math.expm1(-mu * t) ** 2 / 2.0
    # E*expm1(d*t) = dark - E, in the form that cannot overflow
    shift = joint * math.expm1(d * t) if d <= 0.0 else -dark * math.expm1(-d * t)
    qubit = (decay * (c_minus_1 + d * sinc) - shift) / omega2
    return dark, qubit, -1j * (decay * sinc), decay * (c - d * sinc)


def closed_form_propagator(config: SystemConfig, t: float) -> PropagatorMatrix:
    """Analytic propagator U(t) = exp(-iGt) on the one-excitation block.

    G = H - i*Gamma on each qubit - i*kappa on the photon is the no-click
    generator (Hermitian without decay); with the ``_no_click_kernel`` scalars

        U[j, k]   = dark*delta_jk + qubit*gamma_j*gamma_k     (qubit block)
        U[j, M]   = U[M, j] = edge*gamma_j
        U[M, M]   = photon

    Without decay qubit = -2*sin^2(omega*t/2)/omega^2; any sign asymmetry
    in the symmetric qubit block would break unitarity.
    """
    m = config.m
    g = np.asarray(config.couplings, dtype=float)
    omega2 = collective_rabi(config) ** 2
    dark, qubit, edge, photon = _no_click_kernel(omega2, config.gamma_decay, config.kappa, t)
    u = np.zeros((m + 1, m + 1), dtype=complex)
    u[:m, :m] = qubit * np.outer(g, g)
    u.reshape(-1)[: m * (m + 2) : m + 2] += dark  # the first M diagonal entries
    u[:m, m] = u[m, :m] = edge * g
    u[m, m] = photon
    return PropagatorMatrix(matrix=u, time=t)


def evolve(state: StateVector, config: SystemConfig, t: float) -> StateVector:
    """Propagate a state through the closed form in O(M), for any input.

    The ``_no_click_kernel`` scalars act on the qubit amplitudes x and the
    photon amplitude p directly, with s = g.x: x <- dark*x + qubit*g*s +
    edge*g*p and p <- edge*s + photon*p, which is U applied without
    building it.  The index-0 (zero-excitation) amplitude is spliced through
    unchanged; under decay the no-click result is flagged as not normalized.
    """
    if state.m != config.m:
        raise ValueError(f"state is for M={state.m} qubits, config for M={config.m}")
    g = np.asarray(config.couplings, dtype=float)
    omega2 = collective_rabi(config) ** 2
    dark, qubit, edge, photon = _no_click_kernel(omega2, config.gamma_decay, config.kappa, t)
    amps = np.array(state.amplitudes)
    x, p = amps[1:-1], amps[-1]
    s = g @ x
    # qubit*(g*s) keeps the product order of U[j, k] = qubit*(g_j*g_k), so the
    # excited-input column is bit-identical to closed_form_propagator's
    amps[1:-1] = dark * x + qubit * (g * s) + edge * (g * p)
    amps[-1] = edge * s + photon * p
    lossless = not (config.gamma_decay or config.kappa)
    return StateVector(amplitudes=amps, normalized=state.normalized and lossless)


def expm_hermitian(matrix: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*matrix*t) for Hermitian ``matrix`` via eigendecomposition."""
    check_non_negative("time", t)
    eigvals, vecs = np.linalg.eigh(matrix)
    return (vecs * np.exp(-1j * eigvals * t)) @ vecs.conj().T


def evolve_oracle_expm(generator: GeneratorMatrix, state: StateVector, t: float) -> StateVector:
    """Propagate through the eigendecomposition exponential (Hermitian only).

    Independent of the closed form: no trigonometric identity is shared.
    """
    if generator.kind != "hermitian":
        raise ValueError("eigendecomposition oracle requires a hermitian generator")
    if state.m != generator.m:
        raise ValueError(f"state is for M={state.m} qubits, generator for M={generator.m}")
    u = expm_hermitian(generator.matrix, t)
    amps = np.array(state.amplitudes)
    amps[1:] = u @ amps[1:]
    return StateVector(amplitudes=amps, normalized=state.normalized)


def rk4_propagate(
    generator: np.ndarray,
    amplitudes: np.ndarray,
    t,
    dt: float = 1e-4,
) -> np.ndarray:
    """Integrate d(psi)/dt = -i*G*psi with fixed-step classical RK4.

    Batch-friendly: ``generator`` may carry leading axes (..., d, d) with
    matching ``amplitudes`` (..., d) and per-instance times (...,).  Each
    instance takes n = ceil(t/dt) steps of size h = t/n <= dt, hitting its
    endpoint exactly; an instance with n = 0 returns its input unchanged.
    No renormalization is applied, so conditional norms decay naturally.

    For a constant generator one RK4 step is exactly psi <- T(h) psi with
    the degree-4 Taylor polynomial T = 1 + A + A^2/2 + A^3/6 + A^4/24 of
    A = -i*h*G, so n steps are T^n.  That power is taken by binary
    exponentiation with per-instance exponents: about log2(max n) batched
    squarings instead of 4*max(n) matrix-vector products.  Only the RK4
    polynomial enters, never an eigendecomposition or the exponential, so
    the oracle stays independent of the closed forms.
    """
    check_positive("dt", dt)
    g = np.asarray(generator, dtype=complex)
    psi = np.array(amplitudes, dtype=complex)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or not np.all(np.isfinite(t_arr)):
        raise ConfigurationError("times must be finite and >= 0")
    n_steps = np.ceil(np.round(t_arr / dt, 9)).astype(np.int64)
    h = t_arr / np.maximum(n_steps, 1)

    # overflow of an unstable run is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        a = -1j * h[..., None, None] * g
        eye = np.eye(g.shape[-1])
        step = eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)
        # step holds T^(2^bit); instances whose n has that bit set take it
        for bit in range(int(np.max(n_steps, initial=0)).bit_length()):
            if bit:
                step = step @ step
            take = ((n_steps >> bit) & 1).astype(bool)[..., None]
            psi = np.where(take, np.matmul(step, psi[..., None])[..., 0], psi)
    if not np.all(np.isfinite(psi)):
        raise FloatingPointError("RK4 produced non-finite amplitudes; reduce dt")
    return psi


def rk4_propagate_many(
    generators: list[np.ndarray],
    amplitude_vectors: list[np.ndarray],
    times: np.ndarray,
    dt: float = 1e-4,
) -> list[np.ndarray]:
    """RK4-integrate independent instances of mixed dimension in one batch.

    Instances are zero-padded to the largest dimension so one batched
    step-matrix power serves all (the padding stays exactly zero), then
    sliced back.  Results are identical to per-instance ``rk4_propagate``
    calls up to floating-point summation order.
    """
    if len(generators) != len(amplitude_vectors):
        raise ValueError("generators and amplitude vectors must pair up")
    if len(generators) == 0:
        return []
    dims = [g.shape[0] for g in generators]
    d_max = max(dims)
    g = np.zeros((len(generators), d_max, d_max), dtype=complex)
    psi = np.zeros((len(generators), d_max), dtype=complex)
    for i, (gen, vec) in enumerate(zip(generators, amplitude_vectors)):
        g[i, : dims[i], : dims[i]] = gen
        psi[i, : dims[i]] = vec
    out = rk4_propagate(g, psi, np.asarray(times, dtype=float), dt)
    return [out[i, : dims[i]] for i in range(len(generators))]


def evolve_oracle_rk4(
    generator: GeneratorMatrix,
    state: StateVector,
    t: float,
    dt: float = 1e-4,
) -> StateVector:
    """Propagate by RK4 integration with steps of at most ``dt``.

    Works for either generator kind.  Under the dissipative generator the
    output is a sub-normalized conditional state and is flagged as such.
    """
    if state.m != generator.m:
        raise ValueError(f"state is for M={state.m} qubits, generator for M={generator.m}")
    amps = np.array(state.amplitudes)
    amps[1:] = rk4_propagate(generator.matrix, amps[1:], float(t), dt)
    # a coarse step drifts the norm below 1 even for a hermitian generator,
    # so the flag follows the measured norm rather than the generator kind
    norm2 = float(np.sum(np.abs(amps) ** 2))
    normalized = (
        state.normalized and generator.kind == "hermitian" and abs(norm2 - 1.0) <= 1e-12
    )
    return StateVector(amplitudes=amps, normalized=normalized)


def trapping_time(config: SystemConfig, m_odd: int = 1) -> float:
    """Earliest (or m_odd'th) vacuum trapping instant, m_odd*pi/omega without decay.

    At these times the photon amplitude of any initially photon-free state
    vanishes and the cavity factorizes from the qubits; only odd multiples
    trap (even ones return the full initial state instead).  Rates shift it.
    """
    return _trap_time(collective_rabi(config) ** 2, config.gamma_decay, config.kappa, m_odd)
