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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import (
    ConfigurationError,
    GeneratorMatrix,
    StateVector,
    SystemConfig,
    _check_generators,
    _freeze_matrix,
    check_non_negative,
    check_odd_index,
    check_positive,
)


@dataclass(frozen=True, eq=False)
class PropagatorMatrix:
    """(M+1)x(M+1) propagator over the one-excitation block.

    Row/column k < M corresponds to basis state k+1 (qubit k+1 excited),
    row/column M to the one-photon state.  Propagators compare by identity.
    """

    matrix: np.ndarray

    def __post_init__(self):
        _freeze_matrix(self, "propagator", _check_propagators)


def _check_propagators(u: np.ndarray) -> None:
    """``PropagatorMatrix``'s check on one propagator or each of a stack."""
    if not np.all(np.isfinite(u)):
        raise ValueError("propagator has non-finite entries")


class OverdampedRegimeError(ConfigurationError):
    """Raised for a trapping time when 2*omega <= |kappa - Gamma|: the photon
    amplitude then never returns to zero.  Amplitudes work in every regime."""


def _per_entry(routine):
    """``routine`` applied to each entry of a 1-D float64 column.

    numpy's own exp, expm1, cos and sin may round an entry differently from
    the libm call a Python float makes; mapping the ``math`` routine keeps
    every entry bit-identical to the float result.  The map reads the
    column's buffer through a memoryview, which yields the same floats as a
    ``tolist()`` copy without building one.
    """
    return lambda column: np.fromiter(map(routine, memoryview(column)), float, column.size)


_Libm = namedtuple("_Libm", "exp expm1 cos sin sqrt")

#: the kernel's libm routines on Python floats; a square is the product x * x,
#: correctly rounded as every IEEE operation, so it needs no routine
_FLOAT_LIBM = _Libm(math.exp, math.expm1, math.cos, math.sin, math.sqrt)

#: the same routines on float64 columns: IEEE arithmetic and the correctly
#: rounded sqrt run in numpy, every other libm call entry by entry.  The
#: kernel maps one only where its value is unknown and read: no exp of a
#: zero rate, no expm1 at equal rates, no photon cos where it is dropped
_COLUMN_LIBM = _Libm(*map(_per_entry, _FLOAT_LIBM[:4]), np.sqrt)


def _libm(x) -> _Libm:
    """The kernel's routines for x: ``_COLUMN_LIBM`` on a float64 column, else
    ``_FLOAT_LIBM`` (also on a numpy scalar or a 0-d array, which ``math``
    takes).  A closed form that takes either chooses once per call."""
    return _COLUMN_LIBM if isinstance(x, np.ndarray) and x.ndim else _FLOAT_LIBM


def _trap_time(omega2, gamma_decay: float, kappa: float, m_odd):
    """The m_odd'th trapping instant 2*m_odd*pi/sqrt(4*omega^2 - (kappa - Gamma)^2).

    The discriminant must be finite: past about omega^2 = 4.5e307 it
    overflows to inf (or to inf - inf = NaN), where the time would come back
    0 or NaN.  omega2 may be a float64 column; a row whose discriminant is
    not finite and > 0 then comes back NaN instead of raising, so that the
    caller can check its rows in order.
    """
    m_odd = check_odd_index(m_odd)
    check_non_negative("gamma_decay", gamma_decay)
    check_non_negative("kappa", kappa)
    libm = _libm(omega2)
    detuning = kappa - gamma_decay
    disc = 4.0 * omega2 - detuning * detuning
    if libm is _COLUMN_LIBM:
        disc = np.where((disc > 0.0) & (disc < math.inf), disc, math.nan)
    elif not 0.0 < disc < math.inf:
        if disc <= 0.0:
            raise OverdampedRegimeError(
                f"overdamped: 2*omega = {2.0 * math.sqrt(omega2):.6g} <= "
                f"|kappa - gamma_decay| = {abs(detuning):.6g}; no trapping instant exists"
            )
        raise ConfigurationError(
            f"trapping time must be finite, but 4*omega^2 - (kappa - gamma_decay)^2 "
            f"is {disc} for omega^2 = {omega2:.6g}, gamma_decay = {gamma_decay:.6g}, "
            f"kappa = {kappa:.6g}"
        )
    return 2.0 * m_odd * math.pi / libm.sqrt(disc)


def _no_click_kernel(omega2, gamma_decay: float, kappa: float, t) -> tuple:
    """(dark, qubit, edge, photon) of the no-click propagator at time t.

    Qubit vectors orthogonal to the couplings only decay, as dark =
    exp(-Gamma*t); the bright mode g/omega and the photon form a 2x2 problem
    of frequency nu, nu^2 = omega^2 - d^2 with d = (kappa - Gamma)/2.  With
    E = exp(-(Gamma + kappa)*t/2), C = cos(nu*t), S = sin(nu*t)/nu (1 and t
    at critical damping, cosh and sinh past it) and C - 1 = -2*sin^2(nu*t/2):

        qubit = E*((C - 1) + d*S - expm1(d*t))/omega^2,  edge = -i*E*S,
        photon = E*(C - d*S)

    t is one time, checked here; columns of times go through ``_kernel_terms``.
    """
    check_non_negative("gamma_decay", gamma_decay)
    check_non_negative("kappa", kappa)
    check_non_negative("time", t)
    try:
        dark, qubit, damped_sinc, photon = _kernel_terms(omega2, gamma_decay, kappa, t)
    except ValueError:  # libm's sin and cos refuse the phase nu*t once it overflows
        raise ConfigurationError(f"time {t} is too large: the phase nu*t overflows") from None
    return dark, qubit, -1j * damped_sinc, photon


def _kernel_terms(omega2, gamma_decay: float, kappa: float, t, photon: bool = True) -> tuple:
    """(dark, qubit, E*S, photon) of ``_no_click_kernel``, unchecked.

    omega2 and t may also be float64 columns whose rows the caller has
    checked to be underdamped (4*nu^2 is their trapping discriminant, so
    every row with a trapping instant is); each entry is then bit-identical
    to the float result.  Without ``photon`` the photon term is None, and
    its cos(nu*t) is never taken.  A zero rate takes no exp and equal rates
    (d = 0) no expm1: exp(-0.0*t) is 1.0 + 0.0*t and expm1(0.0*t) is 0.0*t,
    bit for bit, for every t (0, subnormal, inf and NaN included), on floats
    and on columns.  So a lossless column maps only the two sines, and the
    cos with ``photon``.
    """
    exp, expm1, cos, sin, sqrt = libm = _libm(t)
    d = (kappa - gamma_decay) / 2.0
    nu2 = omega2 - d * d
    dark = exp(-gamma_decay * t) if gamma_decay else 1.0 + 0.0 * t
    joint = decay = exp(-(gamma_decay + kappa) / 2.0 * t) if gamma_decay or kappa else dark
    if libm is _COLUMN_LIBM or nu2 > 0.0:
        nu = sqrt(nu2)
        sinc, half = sin(nu * t) / nu, sin(nu * t / 2.0)
        c = cos(nu * t) if photon else None
        c_minus_1 = -2.0 * (half * half)
    elif nu2 == 0.0:
        c, sinc, c_minus_1 = 1.0, t, 0.0
    else:
        # cosh and sinh carry exp(mu*t), moved into decay lest they overflow;
        # mu - (Gamma + kappa)/2 = -min(Gamma, kappa) - omega^2/(|d| + mu) cannot cancel
        mu = math.sqrt(-nu2) if nu2 > -math.inf else abs(d)  # d*d overflowed: omega << |d|
        decay = math.exp(-(min(gamma_decay, kappa) + omega2 / (abs(d) + mu)) * t)
        gap = math.expm1(-mu * t)
        c, sinc = (1.0 + math.exp(-2.0 * mu * t)) / 2.0, -math.expm1(-2.0 * mu * t) / (2.0 * mu)
        c_minus_1 = gap * gap / 2.0
    # E*expm1(d*t) = dark - E, in the form that cannot overflow; equal rates
    # have d = 0, where expm1(d*t) is d*t
    if d > 0.0:
        shift = -dark * expm1(-d * t)
    else:
        shift = joint * (expm1(d * t) if d else d * t)
    qubit = (decay * (c_minus_1 + d * sinc) - shift) / omega2
    return dark, qubit, decay * sinc, decay * (c - d * sinc) if photon else None


def _star_column(r, dark, qubit, edge) -> tuple:
    """(b1, b, photon): the propagator's first column for gamma_1 = r, gamma_j>1 = 1.

    From the kernel scalars: b = r*qubit on each of the M-1 partners, b1 =
    dark + r*b on the input qubit (its own free decay on top of the shared
    partner response) and photon = r*edge; floats or float64 columns.
    """
    b = r * qubit
    return dark + r * b, b, r * edge


def _branch_norm_squared(m, b1, b, photon):
    """|b1|^2 + (M-1)*|b|^2 + |photon|^2, the squared norm of ``_star_column``,
    from the magnitudes, as floats or float64 columns."""
    return b1 * b1 + (m - 1) * (b * b) + photon * photon


def _star_columns(m, r, gamma_decay: float, kappa: float, m_odd) -> tuple:
    """(omega^2, tau, (b1, b, r*E*S)) of the star registers (m[i], r[i]).

    m and r are columns of counts and ratios; omega^2 = r^2 + M - 1 as
    ``_star_omega_squared`` forms it, tau is the m_odd'th trapping instant
    (NaN where none exists) and (b1, b, r*E*S) the excited input's
    propagator column there (``_star_column``; the photon amplitude is
    -i*r*E*S).  The photon's own term is dropped, so its cos is never
    mapped: a lossless call maps only the two sines of ``_kernel_terms``.
    Rows are unchecked, and the caller runs this under ``np.errstate``: a
    row that fails its checks may overflow on the way.
    """
    omega2 = r * r + (m - 1.0)
    tau = _trap_time(omega2, gamma_decay, kappa, m_odd)
    dark, qubit, damped_sinc, _ = _kernel_terms(omega2, gamma_decay, kappa, tau, photon=False)
    return omega2, tau, _star_column(r, dark, qubit, damped_sinc)


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
    kernel = _no_click_kernel(config.omega * config.omega, config.gamma_decay, config.kappa, t)
    return PropagatorMatrix(matrix=_propagators(config.couplings, *kernel))


def _propagators(g: np.ndarray, dark, qubit, edge, photon) -> np.ndarray:
    """Unchecked U for couplings g (M,), or a stack (..., M) with kernel scalars (...,)."""
    m = g.shape[-1]
    u = np.zeros(g.shape[:-1] + (m + 1, m + 1), dtype=complex)
    u[..., :m, :m] = np.asarray(qubit)[..., None, None] * (g[..., :, None] * g[..., None, :])
    # the first M diagonal entries
    u.reshape(*u.shape[:-2], -1)[..., : m * (m + 2) : m + 2] += np.asarray(dark)[..., None]
    u[..., :m, m] = u[..., m, :m] = np.asarray(edge)[..., None] * g
    u[..., m, m] = photon
    return u


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
    g = config.couplings
    dark, qubit, edge, photon = _no_click_kernel(
        config.omega * config.omega, config.gamma_decay, config.kappa, t
    )
    amps = np.array(state.amplitudes)
    x, p = amps[1:-1], amps[-1]
    s = g @ x
    # x <- dark*x + qubit*(g*s) + edge*(g*p), in place through one buffer:
    # only the factors of a product swap places, so each entry keeps the bits
    # of that sum.  qubit*(g*s) keeps the product order of U[j, k] =
    # qubit*(g_j*g_k), so the excited-input column is bit-identical to
    # closed_form_propagator's
    x *= dark
    term = np.multiply(g, s)
    term *= qubit
    x += term
    np.multiply(g, p, out=term)
    term *= edge
    x += term
    amps[-1] = edge * s + photon * p
    lossless = not (config.gamma_decay or config.kappa)
    return StateVector(amplitudes=amps, normalized=state.normalized and lossless)


def expm_hermitian(matrix: np.ndarray, t) -> np.ndarray:
    """exp(-i*matrix*t) for Hermitian ``matrix`` (or a stack, t (...,)) via eigh.

    ``matrix`` is checked as ``GeneratorMatrix`` checks a Hermitian generator,
    since eigh reads only one triangle of whatever it is given.
    """
    matrix = np.asarray(matrix)
    _check_generators(matrix, "hermitian")
    t = np.asarray(t, dtype=float)
    for time in t.reshape(-1).tolist():
        check_non_negative("time", time)
    eigvals, vecs = np.linalg.eigh(matrix)
    with np.errstate(over="ignore"):
        overflowed = np.isinf(eigvals * t[..., None]).any(axis=-1)
    if overflowed.any():
        time = np.broadcast_to(t, overflowed.shape)[overflowed][0]
        raise ConfigurationError(f"time {time} is too large: the phase eigenvalue*t overflows")
    phases = np.exp(-1j * eigvals * t[..., None])[..., None, :]
    return (vecs * phases) @ np.swapaxes(vecs.conj(), -1, -2)


def evolve_oracle_expm(generator: GeneratorMatrix, state: StateVector, t: float) -> StateVector:
    """Propagate through the eigendecomposition exponential (Hermitian only).

    Independent of the closed form: no trigonometric identity is shared.
    """
    if generator.kind != "hermitian":
        raise ValueError("eigendecomposition oracle requires a hermitian generator")
    if state.m != generator.m:
        raise ValueError(f"state is for M={state.m} qubits, generator for M={generator.m}")
    check_non_negative("time", t)
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
    with np.errstate(over="ignore"):
        ratio = t_arr / dt
    if np.any(ratio > 2**53):  # past it the int64 step count is not exact, or overflows
        raise ConfigurationError(
            f"t / dt must be at most 2**53 steps, got t = {t_arr.max()} and dt = {dt}"
        )
    n_steps = np.ceil(np.round(ratio, 9)).astype(np.int64)
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
    times = np.asarray(times, dtype=float)
    if times.shape != (len(generators),):
        raise ValueError(f"need one time per generator, got {times.size} for {len(generators)}")
    if len(generators) == 0:
        return []
    dims = [g.shape[0] for g in generators]
    d_max = max(dims)
    g = np.zeros((len(generators), d_max, d_max), dtype=complex)
    psi = np.zeros((len(generators), d_max), dtype=complex)
    for i, (gen, vec) in enumerate(zip(generators, amplitude_vectors)):
        g[i, : dims[i], : dims[i]] = gen
        psi[i, : dims[i]] = vec
    out = rk4_propagate(g, psi, times, dt)
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
    return _trap_time(config.omega * config.omega, config.gamma_decay, config.kappa, m_odd)
