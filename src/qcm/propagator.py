"""Time evolution on the one-excitation block.

Three independent routes to the same propagation are kept side by side:

* ``closed_form_propagator`` -- the analytic matrix, entrywise trigonometric
  in the collective Rabi frequency;
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


def closed_form_propagator(config: SystemConfig, t: float) -> PropagatorMatrix:
    """Analytic propagator U(t) = exp(-iHt) on the one-excitation block.

    With omega the collective Rabi frequency and
    beta = sin^2(omega*t/2) / omega^2:

        U[j, k]   = delta_jk - 2*gamma_j*gamma_k*beta     (qubit block)
        U[j, M]   = U[M, j] = -i*gamma_j*sin(omega*t)/omega
        U[M, M]   = cos(omega*t)

    The qubit block is uniformly -2*gamma_j*gamma_k*beta off the diagonal;
    any sign asymmetry there would break unitarity (H is a real symmetric
    star matrix, so U is symmetric).  The evolution is lossless, so a
    config with decay rates is rejected: under decay use the conditional
    closed forms in ``qcm.decoherence``.
    """
    if config.gamma_decay or config.kappa:
        raise ConfigurationError(
            "closed_form_propagator is lossless but the config has decay rates; "
            "use the conditional closed forms in qcm.decoherence"
        )
    check_non_negative("time", t)
    m = config.m
    g = np.asarray(config.couplings, dtype=float)
    omega = collective_rabi(config)
    beta = np.sin(omega * t / 2.0) ** 2 / omega**2
    u = np.zeros((m + 1, m + 1), dtype=complex)
    u[:m, :m] = np.eye(m) - 2.0 * beta * np.outer(g, g)
    edge = -1j * g * np.sin(omega * t) / omega
    u[:m, m] = edge
    u[m, :m] = edge
    u[m, m] = np.cos(omega * t)
    return PropagatorMatrix(matrix=u, time=t)


def evolve(state: StateVector, config: SystemConfig, t: float) -> StateVector:
    """Propagate a state with the closed-form propagator.

    The index-0 (zero-excitation) amplitude is spliced through unchanged;
    the normalized flag is preserved.
    """
    if state.m != config.m:
        raise ValueError(f"state is for M={state.m} qubits, config for M={config.m}")
    u = closed_form_propagator(config, t).matrix
    amps = np.array(state.amplitudes)
    amps[1:] = u @ amps[1:]
    return StateVector(amplitudes=amps, normalized=state.normalized)


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
    """Earliest (or m_odd'th) vacuum trapping instant, m_odd*pi/omega.

    At these times the photon amplitude of any initially photon-free state
    vanishes and the cavity factorizes from the qubits; only odd multiples
    trap (even ones return the full initial state instead).
    """
    return check_odd_index(m_odd) * np.pi / collective_rabi(config)
