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
    UNIT_NORM_SLACK,
    ConfigurationError,
    GeneratorMatrix,
    StateVector,
    SystemConfig,
    _check_generators,
    _freeze_matrix,
    _number_array,
    check_non_negative,
    check_odd_index,
    check_positive,
    check_scalar,
    sorted_distinct,
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
        raise ConfigurationError("propagator has non-finite entries")


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


#: the shortest column that ``_per_distinct`` sorts: below about 110 entries
#: the sort costs more than the libm calls it saves, even at three keys
#: (x86-64, glibc 2.36, numpy 2.4)
DISTINCT_MIN_ENTRIES = 128


def _per_distinct(routine):
    """``routine`` applied once per distinct bit pattern of a 1-D float64 column.

    The column's int64 view is sorted into its distinct keys, ``_per_entry``
    maps those, and ``np.searchsorted`` gathers the results back; a column
    shorter than ``DISTINCT_MIN_ENTRIES`` is mapped entry by entry.  The
    same libm call on the same float gives the same bits, so every entry is
    the one ``_per_entry`` gives: +-0.0 and NaN payloads are distinct keys,
    and an entry the routine refuses (sin of +-inf) raises the same error.
    """
    per_entry = _per_entry(routine)

    def mapped(column):
        if column.size < DISTINCT_MIN_ENTRIES:
            return per_entry(column)
        bits = column.view(np.int64)
        keys = sorted_distinct(bits)
        return per_entry(keys.view(float))[np.searchsorted(keys, bits)]

    return mapped


_Libm = namedtuple("_Libm", "exp expm1 cos sin sqrt")

#: the kernel's libm routines on Python floats; a square is the product x * x,
#: correctly rounded as every IEEE operation, so it needs no routine
_FLOAT_LIBM = _Libm(math.exp, math.expm1, math.cos, math.sin, math.sqrt)

#: the same routines on float64 columns: IEEE arithmetic and the correctly
#: rounded sqrt run in numpy, every other libm call entry by entry, and sin
#: once per distinct phase: at a trapping instant nu*tau is m_odd*pi (half
#: of it for the half-angle sine) up to rounding, so a star column of any
#: length holds at most three of each.  The kernel maps a routine only where
#: its value is unknown and read: no exp of a zero rate, one exp for equal
#: rates and no expm1 there, no photon cos where it is dropped
_COLUMN_LIBM = _Libm(*map(_per_entry, _FLOAT_LIBM[:3]), _per_distinct(math.sin), np.sqrt)


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
    and on columns.  Equal rates take one exp: -(Gamma + kappa)/2, and
    -(Gamma/2 + kappa/2) where the sum overflows, is exactly -Gamma, so E
    is dark to the bit.
    So a lossless column maps only the two sines (once per distinct phase),
    and the cos with ``photon``.
    """
    exp, expm1, cos, sin, sqrt = libm = _libm(t)
    d = (kappa - gamma_decay) / 2.0
    nu2 = omega2 - d * d
    dark = exp(-gamma_decay * t) if gamma_decay else 1.0 + 0.0 * t
    # E's rate (Gamma + kappa)/2, halved first where the sum overflows, lest
    # E = exp(-inf*t) be NaN at t = 0; equal rates give exactly Gamma either way
    total = gamma_decay + kappa
    rate = total / 2.0 if total < math.inf else gamma_decay / 2.0 + kappa / 2.0
    joint = decay = dark if gamma_decay == kappa else exp(-rate * t)
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
    mapped, and each of the two sines of ``_kernel_terms`` maps at most
    three distinct phases once there are ``DISTINCT_MIN_ENTRIES`` rows.  A
    lossless call maps nothing else.  Rows are unchecked, and the caller
    runs this under ``np.errstate``: a row that fails its checks may
    overflow on the way.
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
        raise ConfigurationError(f"state is for M={state.m} qubits, config for M={config.m}")
    g = config.couplings
    dark, qubit, edge, photon = _no_click_kernel(
        config.omega * config.omega, config.gamma_decay, config.kappa, t
    )
    x, p = state.amplitudes[1:-1], state.amplitudes[-1]
    s = g @ x
    amps = np.empty_like(state.amplitudes)
    amps[0] = state.amplitudes[0]
    # x <- dark*x + qubit*(g*s) + edge*(g*p), in place through the output
    # buffer that dark*x is written into: only the factors of a product swap
    # places, so each entry keeps the bits of that sum.  qubit*(g*s) keeps the
    # product order of U[j, k] = qubit*(g_j*g_k), so the excited-input column
    # is bit-identical to closed_form_propagator's
    x = np.multiply(x, dark, out=amps[1:-1])
    term = np.multiply(g, s)
    term *= qubit
    x += term
    np.multiply(g, p, out=term)
    term *= edge
    x += term
    amps[-1] = edge * s + photon * p
    lossless = not (config.gamma_decay or config.kappa)
    return StateVector(amplitudes=amps, normalized=state.normalized and lossless)


def _stack_shapes_fit(square: tuple, times: tuple, *vectors: tuple) -> bool:
    """Whether ``square`` is (..., d, d), each of ``vectors`` is (..., d), and
    the leading axes of all of them broadcast with ``times``."""
    d = square[-1:]
    if len(square) < 2 or square[-2:-1] != d or any(v[-1:] != d for v in vectors):
        return False
    lead = {square[:-2], times, *(v[:-1] for v in vectors)}
    if len(lead) > 1:  # qcm check passes equal shapes, which need no broadcast
        try:
            np.broadcast_shapes(*lead)
        except ValueError:
            return False
    return True


def expm_hermitian(matrix: np.ndarray, t) -> np.ndarray:
    """exp(-i*matrix*t) for Hermitian ``matrix`` (or a stack, t (...,)) via eigh.

    ``matrix`` is checked as ``GeneratorMatrix`` checks a Hermitian generator,
    since eigh reads only one triangle of whatever it is given; the times
    follow ``_real_times``.
    """
    matrix = _number_array("matrix", matrix, complex)
    t = _real_times(t)
    if not _stack_shapes_fit(matrix.shape, t.shape):
        raise ConfigurationError(
            f"shapes {matrix.shape} and {t.shape} do not fit matrices (..., d, d) and times (...)"
        )
    _check_generators(matrix, "hermitian")
    eigvals, vecs = np.linalg.eigh(matrix)
    with np.errstate(over="ignore"):
        phases = eigvals * t[..., None]
    if np.isinf(phases).any():
        overflowed = np.isinf(phases).any(axis=-1)
        time = np.broadcast_to(t, overflowed.shape)[overflowed][0]
        raise ConfigurationError(f"time {time} is too large: the phase eigenvalue*t overflows")
    return (vecs * np.exp(-1j * phases)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def evolve_oracle_expm(generator: GeneratorMatrix, state: StateVector, t: float) -> StateVector:
    """Propagate through the eigendecomposition exponential (Hermitian only).

    Independent of the closed form: no trigonometric identity is shared.
    """
    if generator.kind != "hermitian":
        raise ConfigurationError("eigendecomposition oracle requires a hermitian generator")
    if state.m != generator.m:
        raise ConfigurationError(f"state is for M={state.m} qubits, generator for M={generator.m}")
    check_scalar("time", t)
    u = expm_hermitian(generator.matrix, t)
    amps = np.array(state.amplitudes)
    amps[1:] = u @ amps[1:]
    return StateVector(amplitudes=amps, normalized=state.normalized)


def _real_times(t) -> np.ndarray:
    """The oracles' time rule: t as a float64 array whose entries are real, not
    bools, finite and >= 0, tested in one vectorised pass; the first time that
    fails raises ``check_non_negative``'s ConfigurationError."""
    t = np.asarray(_number_array("time", t, float), dtype=float)
    ok = (t >= 0.0) & (t < math.inf)  # NaN fails both
    if not ok.all():
        check_non_negative("time", t.reshape(-1)[ok.argmin()].item())
    return t


def _step_counts(t: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(h, n) of each time t of ``_real_times``: n = ceil(t/dt) RK4 steps (t/dt
    rounded to 9 decimals first) of size h = t/n <= dt, hitting t exactly;
    n = 0 at t = 0."""
    with np.errstate(over="ignore"):
        ratio = t / dt
    if np.any(ratio > 2**53):  # past it the int64 step count is not exact, or overflows
        raise ConfigurationError(
            f"t / dt must be at most 2**53 steps, got t = {t.max()} and dt = {dt}"
        )
    n = np.ceil(np.round(ratio, 9)).astype(np.int64)
    return t / np.maximum(n, 1), n


def _rk4_power(g: np.ndarray, psi: np.ndarray, h: np.ndarray, n: np.ndarray) -> np.ndarray:
    """T(h)^n psi, row by row, for generators g (..., d, d) and amplitudes psi
    (..., d): row i of a matrix takes the step size h[..., i] and the step
    count n[..., i] (h and n (..., d), or (..., 1) for one per matrix).

    A = -i*h*G scales each row by its own h, and the step matrix T and its
    squarings T^(2^bit) are products of A, so a matrix that holds several
    instances as diagonal blocks keeps them apart: every entry off the
    blocks is a sum of terms with a zero factor, and stays exactly zero.
    Rows whose n has a bit set take that bit's power.
    """
    # overflow of an unstable run is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        a = -1j * h[..., None] * g
        eye = np.eye(g.shape[-1])
        # numpy divides a complex x by c + 0j as x * (1/c) (Smith's algorithm):
        # the product gives the same values without the complex division
        step = eye + a @ (eye + a @ (eye + a @ (eye + a * 0.25) * (1.0 / 3.0)) * 0.5)
        # the take mask of every bit in one shift; step holds T^(2^bit)
        takes = ((n[..., None] >> np.arange(int(n.max(initial=0)).bit_length())) & 1).astype(bool)
        for bit in range(takes.shape[-1]):
            if bit:
                step = step @ step
            psi = np.where(takes[..., bit], np.matmul(step, psi[..., None])[..., 0], psi)
    if not np.isfinite(psi).all():
        raise FloatingPointError("RK4 produced non-finite amplitudes; reduce dt")
    return psi


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
    Generators and amplitudes follow the array rule and must be finite, and
    the times ``_real_times``; a run that overflows from finite input raises
    FloatingPointError.

    For a constant generator one RK4 step is exactly psi <- T(h) psi with
    the degree-4 Taylor polynomial T = 1 + A + A^2/2 + A^3/6 + A^4/24 of
    A = -i*h*G, so n steps are T^n.  That power is taken by binary
    exponentiation with per-instance exponents: about log2(max n) batched
    squarings instead of 4*max(n) matrix-vector products.  Only the RK4
    polynomial enters, never an eigendecomposition or the exponential, so
    the oracle stays independent of the closed forms.
    """
    check_positive("dt", dt)
    g = np.asarray(_number_array("generator", generator, complex), dtype=complex)
    psi = np.array(_number_array("amplitudes", amplitudes, complex), dtype=complex)
    t = _real_times(t)
    if not _stack_shapes_fit(g.shape, t.shape, psi.shape):
        raise ConfigurationError(
            f"shapes {g.shape}, {psi.shape} and {t.shape} do not fit generators "
            "(..., d, d), amplitudes (..., d) and times (...)"
        )
    h, n = _step_counts(t, dt)
    _check_rk4_input(g, psi)
    return _rk4_power(g, psi, h[..., None], n[..., None])


def _check_rk4_input(g: np.ndarray, psi: np.ndarray) -> None:
    """The RK4 oracle's generators and amplitudes must be finite: a NaN would
    end as a FloatingPointError blamed on dt, and in a packed batch it would
    spread to the instance's bin-mates (0*NaN is NaN)."""
    if not np.isfinite(g).all():
        raise ConfigurationError("generator must have finite entries")
    if not np.isfinite(psi).all():
        raise ConfigurationError("amplitudes must be finite")


def _first_fit_decreasing(dims: list[int], width: int) -> list[tuple[int, int]]:
    """(bin, offset) of each instance of dimension dims[i] in bins of ``width``
    rows: largest first, each at the end of the first bin with room, or at
    offset 0 of a new bin.  Bins only fill, so among equal dimensions the
    search resumes where the last one stopped."""
    rooms, places = [], [(0, 0)] * len(dims)
    first, last = 0, None
    for i in sorted(range(len(dims)), key=dims.__getitem__, reverse=True):
        d = dims[i]
        if d != last:
            first, last = 0, d
        while first < len(rooms) and rooms[first] < d:
            first += 1
        if first == len(rooms):
            rooms.append(width)
        places[i] = (first, width - rooms[first])
        rooms[first] -= d
    return places


def rk4_propagate_many(
    generators: list[np.ndarray],
    amplitude_vectors: list[np.ndarray],
    times: np.ndarray,
    dt: float = 1e-4,
) -> list[np.ndarray]:
    """RK4-integrate independent instances of mixed dimension in one batch.

    Each instance is one slice of rows of a d_max x d_max bin, packed
    first-fit decreasing (``_first_fit_decreasing``), so that several small
    instances share one bin: its generator is the slice's diagonal block,
    and its amplitudes, step size and step count fill the slice's rows.  One
    step-matrix power serves every bin (``_rk4_power``), and each output is
    its instance's slice of the powered bins.  Instances never mix: the
    entries off the blocks stay exactly zero.  An instance that opens a bin
    holds the same values at the same positions as in a zero-padded
    ``rk4_propagate`` stack, so it gets the same bits; one at an offset may
    differ in the last bits.  A step matrix that overflows spreads NaN
    through its bin (inf*0 is NaN), so a bin-mate that takes a later power
    raises FloatingPointError with it.
    """
    count = len(generators)
    if count != len(amplitude_vectors):
        raise ConfigurationError("generators and amplitude vectors must pair up")
    times = _real_times(times)
    if times.shape != (count,):
        raise ConfigurationError(f"need one time per generator, got {times.size} for {count}")
    if count == 0:
        return []
    gens, vecs = [], []
    for i, (gen, vec) in enumerate(zip(generators, amplitude_vectors)):
        gen = _number_array(f"instance {i}: generator", gen, complex)
        vec = _number_array(f"instance {i}: amplitudes", vec, complex)
        if vec.ndim != 1 or gen.shape != vec.shape * 2:
            raise ConfigurationError(
                f"instance {i}: shapes {gen.shape} and {vec.shape} do not fit a generator (d, d) "
                "and amplitudes (d,)"
            )
        gens.append(gen)
        vecs.append(vec)
    check_positive("dt", dt)
    h, n = _step_counts(times, dt)
    dims = [vec.size for vec in vecs]
    width = max(dims)
    places = _first_fit_decreasing(dims, width)
    bins = 1 + max(k for k, _ in places)
    g, psi = np.zeros((bins, width, width), dtype=complex), np.zeros((bins, width), dtype=complex)
    h_rows, n_rows = np.zeros((bins, width)), np.zeros((bins, width), dtype=np.int64)
    blocks = [(k, slice(offset, offset + d)) for (k, offset), d in zip(places, dims)]
    for (k, rows), gen, vec, size, steps in zip(blocks, gens, vecs, h.tolist(), n.tolist()):
        g[k, rows, rows], psi[k, rows], h_rows[k, rows], n_rows[k, rows] = gen, vec, size, steps
    _check_rk4_input(g, psi)
    out = _rk4_power(g, psi, h_rows, n_rows)
    return [out[k, rows] for k, rows in blocks]


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
        raise ConfigurationError(f"state is for M={state.m} qubits, generator for M={generator.m}")
    check_scalar("time", t)
    amps = np.array(state.amplitudes)
    amps[1:] = rk4_propagate(generator.matrix, amps[1:], t, dt)
    # a coarse step drifts the norm below 1 even for a hermitian generator,
    # so the flag follows the measured norm rather than the generator kind
    norm2 = float(np.sum(np.abs(amps) ** 2))
    unitary = state.normalized and generator.kind == "hermitian"
    return StateVector(amplitudes=amps, normalized=unitary and abs(norm2 - 1.0) <= UNIT_NORM_SLACK)


def trapping_time(config: SystemConfig, m_odd: int = 1) -> float:
    """Earliest (or m_odd'th) vacuum trapping instant, m_odd*pi/omega without decay.

    At these times the photon amplitude of any initially photon-free state
    vanishes and the cavity factorizes from the qubits; only odd multiples
    trap (even ones return the full initial state instead).  Rates shift it.
    """
    return _trap_time(config.omega * config.omega, config.gamma_decay, config.kappa, m_odd)
