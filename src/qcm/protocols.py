"""Machine protocols built on the trapped evolution.

Both protocols prepare qubit 1 against M-1 ground-state partners in the
star configuration gamma_1 = r, gamma_j>1 = 1, evolve to the first vacuum
trapping time, and read the multiqubit register off while the cavity sits
back in vacuum:

* starting from the excited input (one-step W-state generation), the
  trapped branch amplitudes are a1 on qubit 1 and a common a on each
  partner, with a1^2 + (M-1)*a^2 = 1;
* starting from an equatorial superposition (phase-covariant anti-cloning),
  each qubit's reduced state copies the orthogonal complement of the input
  with a fidelity set by the amplitude it received.

Both cost O(M): ``evolve`` applies the closed form's rank-two structure to
the input without building the (M+1)^2 propagator, and one vectorised
``reduced_qubit_density`` call reduces every qubit, so the large registers
where the paper places its robustness claims are reachable (one
``generate_w_state`` and ``run_anticlone`` pair at M = 10^5 takes about
10 ms).  ``qcm wstate`` and the pipeline check of ``qcm anticlone`` run
the same arithmetic batched, in ``w_state_columns`` and
``anticlone_fidelities``, in O(1) per register: the M-1 partners couple
alike, so a star register holds only three distinct amplitudes.
``generate_w_state`` and ``run_anticlone``, the one-register routes, are
the references they are tested against.

The special coupling ratios have closed forms: |a1| = |a| at
r = sqrt(M) +/- 1, and a1 = 0 (full transfer out of the input qubit, which
also maximizes the target fidelity) at r = sqrt(M-1).
``optimize_coupling_ratio`` maps each objective to its closed form, and
``qcm scan`` prints its special rows through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ConfigurationError,
    StateVector,
    _frozen_array,
    _input_amplitudes,
    _star_omega_squared,
    check_count,
    check_count_column,
    check_finite,
    check_label,
    check_positive,
    initial_state,
    star_config,
)
from .propagator import _COLUMN_LIBM, _branch_norm_squared, _libm, _star_columns, _trap_time
from .propagator import evolve, trapping_time

SCHEME_TAGS = ("identical", "w_plus", "w_minus", "w_prime", "custom")

#: amplitudes closer in magnitude than this are treated as equal when
#: classifying trapped states (oracle noise floor)
CLASSIFY_TOL = 1e-10
#: the classifications of a trapped state, in the order they are tested
TRAPPED_KINDS = ("separable_W", "symmetric_W", "antisymmetric_W", "generic")


def _checked_counts(m, minimum: int):
    """m for a closed form in M: a count, or a column of counts checked in
    one pass, each at least ``minimum``."""
    check = check_count_column if _libm(m) is _COLUMN_LIBM else check_count
    return check("m", m, minimum)


@dataclass(frozen=True)
class CouplingScheme:
    """Named coupling-ratio choices r = gamma_1 / gamma.

    The named schemes resolve against the qubit count: w_plus and w_minus
    to sqrt(M) +/- 1 (symmetric/antisymmetric W states over all M qubits),
    w_prime to sqrt(M-1) (full transfer to a W state of the M-1 partners),
    identical to 1.  ``custom`` pins an explicit ratio.
    """

    tag: str
    custom_ratio: float | None = None

    def __post_init__(self):
        check_label("scheme", self.tag, SCHEME_TAGS)
        if self.tag == "custom":
            if self.custom_ratio is None:
                raise ConfigurationError("custom scheme needs a coupling ratio")
            check_positive("coupling ratio", self.custom_ratio)
            object.__setattr__(self, "custom_ratio", float(self.custom_ratio))
        elif self.custom_ratio is not None:
            raise ConfigurationError(f"scheme {self.tag!r} does not take an explicit ratio")

    @classmethod
    def custom(cls, r: float) -> "CouplingScheme":
        return cls(tag="custom", custom_ratio=r)

    def ratio(self, m):
        """Resolve the coupling ratio for M qubits.

        w_minus and w_prime need M >= 2, where their ratios are positive.
        ``m`` may also be a float64 column of counts, checked in one pass; a
        ratio that depends on M then comes back as a column whose entries
        are bit-identical to the one-count ratios, as numpy's sqrt and
        libm's are both correctly rounded.
        """
        return self._ratio(_checked_counts(m, 2 if self.tag in ("w_minus", "w_prime") else 1))

    def _ratio(self, m):
        """``ratio`` at checked counts, with the kernel's sqrt for their type
        (``math.sqrt`` on a count, numpy's on a column)."""
        sqrt = _libm(m).sqrt
        if self.tag == "identical":
            return 1.0
        if self.tag == "w_plus":
            return sqrt(m) + 1.0
        if self.tag == "w_minus":
            return sqrt(m) - 1.0
        if self.tag == "w_prime":
            return sqrt(m - 1.0)
        return self.custom_ratio


def check_scheme(scheme) -> CouplingScheme:
    """``scheme``, which must be a CouplingScheme; anything else raises a
    ConfigurationError that names the argument."""
    if not isinstance(scheme, CouplingScheme):
        raise ConfigurationError(f"scheme must be a CouplingScheme, got {scheme!r}")
    return scheme


IDENTICAL = CouplingScheme("identical")
W_PLUS = CouplingScheme("w_plus")
W_MINUS = CouplingScheme("w_minus")
W_PRIME = CouplingScheme("w_prime")


def _scheme_rows(counts: np.ndarray, schemes) -> tuple[np.ndarray, np.ndarray]:
    """(m, r) columns of the rows (M, scheme): M from ``counts``, an int64
    column of checked counts, then each scheme in the order given."""
    m, r = counts.astype(float), np.empty((counts.size, len(schemes)))
    for j, scheme in enumerate(schemes):
        r[:, j] = scheme._ratio(m)
    return np.repeat(counts, len(schemes)), r.reshape(-1)


@dataclass(frozen=True, eq=False)
class ProtocolReport:
    """Row type of the protocol scan tables.

    ``a1`` and ``a`` are the trapped branch amplitudes on the input qubit
    and on each partner; ``fidelities`` holds the M per-qubit copy
    fidelities of an anti-cloning run, as a read-only 1-D float64 array
    checked in one vectorised pass, and is None for W-state generation
    (which has no reference phase to copy against).  Reports compare and hash by identity.
    """

    m: int
    scheme: str
    r: float
    trapping_time: float
    a1: float
    a: float
    classification: str
    fidelities: np.ndarray | None = None

    def __post_init__(self):
        check_count("m", self.m, 2)
        check_label("scheme", self.scheme, SCHEME_TAGS)
        check_positive("coupling ratio", self.r)
        check_positive("trapping_time", self.trapping_time)
        check_finite("a1", self.a1)
        check_finite("a", self.a)
        check_label("classification", self.classification, TRAPPED_KINDS)
        if self.fidelities is not None:
            fidelities = _frozen_array("fidelities", self.fidelities, float)
            if fidelities.shape != (self.m,):
                raise ConfigurationError(
                    f"fidelities must be a 1-D array of m = {self.m} entries, "
                    f"got shape {fidelities.shape}"
                )
            object.__setattr__(self, "fidelities", fidelities)
            ok = _in_unit_interval(fidelities)
            first = ok.argmin()  # the first value outside [0, 1], else the first one
            if not ok[first]:
                raise ValueError(
                    f"fidelity of qubit {first + 1} outside [0, 1]: {fidelities[first]}"
                )


def _in_unit_interval(x):
    """Whether x (a float, or each entry of an array) lies in [0, 1], to 1e-12."""
    return (x >= -1e-12) & (x <= 1.0 + 1e-12)


def trapped_amplitudes(m: int, r: float) -> tuple[float, float]:
    """Branch amplitudes of the trapped state for the star configuration.

        a1 = (M - 1 - r^2) / (M - 1 + r^2),   a = -2r / (M - 1 + r^2)

    satisfying a1^2 + (M-1)*a^2 = 1; needs at least one partner qubit.
    """
    return _trapped_amplitudes(m, r, _star_omega_squared(m, r))


def _trapped_amplitudes(m, r, omega2) -> tuple:
    """``trapped_amplitudes`` at omega2 = M - 1 + r^2, unchecked; floats or columns."""
    return (m - 1.0 - r * r) / omega2, -2.0 * r / omega2


def classify_trapped_state(a1: float, a: float) -> str:
    """Classify trapped branch amplitudes by their sign/magnitude pattern.

    separable_W: the input qubit is empty; symmetric_W / antisymmetric_W:
    all M amplitudes share a magnitude, with qubit 1 carrying the same or
    the opposite sign; anything else is generic.
    """
    check_finite("a1", a1)
    check_finite("a", a)
    return TRAPPED_KINDS[[*_kind_tests(a1, a), True].index(True)]


def _kind_tests(a1, a) -> list:
    """The tests of the first three ``TRAPPED_KINDS``, in order, on floats or columns."""
    return [abs(a1) < CLASSIFY_TOL, abs(a1 - a) < CLASSIFY_TOL, abs(a1 + a) < CLASSIFY_TOL]


def _trapped_step(m: int, scheme: CouplingScheme, theta: float, alpha: float) -> tuple:
    """The machine's one step, shared by both protocols.

    Evolves ``initial_state(theta, alpha)`` of the star register of M qubits
    under ``scheme`` to its first trapping instant.  Returns the report's
    leading fields (m, scheme tag, r, trapping time) and the evolved state.
    """
    m = check_count("m", m, 2)
    r = check_scheme(scheme).ratio(m)
    config = star_config(m, r)
    tau = trapping_time(config)
    return (m, scheme.tag, r, tau), evolve(initial_state(theta, alpha, config), config, tau)


def _report(head: tuple, a1: complex, a: complex, fidelities=None) -> ProtocolReport:
    """The report of a step's ``head``, with the real parts of the trapped
    amplitudes a1 and a and their classification."""
    a1, a = float(a1.real), float(a.real)
    return ProtocolReport(*head, a1, a, classify_trapped_state(a1, a), fidelities)


def generate_w_state(m: int, scheme: CouplingScheme) -> tuple[StateVector, ProtocolReport]:
    """Evolve the excited input qubit to the first trapping time.

    Returns the full evolved state (photon amplitude below 1e-12 at the
    trapping instant) and a report with the measured branch amplitudes and
    their classification.
    """
    head, state = _trapped_step(m, scheme, 0.0, 0.0)
    return state, _report(head, state.amplitudes[1], state.amplitudes[2])


def _star_step(m: np.ndarray, r: np.ndarray, ground, excited) -> tuple:
    """``_trapped_step`` for many star registers, in O(1) each.

    Row i is the register of m[i] >= 2 qubits (an integer column of checked
    counts) with coupling ratio r[i], and qubit 1 starts with the ground
    and excited amplitudes of ``initial_state``.  Returns omega^2, the
    trapped amplitudes (x1, x, photon) on qubit 1, on each partner and on
    the cavity, their squared norm n2, and ``ok``: False on a row whose
    ratio is not > 0 or whose norm is not 1 to 1e-12.  A NaN fails every
    comparison, so ``ok`` also rejects a row with no trapping instant or
    with amplitudes that are not finite.  The M-1 partners couple alike, so
    the propagator's first column (``_star_columns``) holds every amplitude.
    The caller runs this under ``np.errstate``: a row that fails its checks
    may overflow on the way.
    """
    omega2, _, column = _star_columns(m, r, 0.0, 0.0, 1)
    x1, x, photon = (excited * b for b in column)
    n2 = abs(ground) * abs(ground) + _branch_norm_squared(m, abs(x1), abs(x), abs(photon))
    return omega2, (x1, x, photon), n2, (r > 0.0) & (abs(n2 - 1.0) <= 1e-12)


def w_state_columns(m: np.ndarray, r: np.ndarray, m_odd: int = 1) -> tuple:
    """``generate_w_state``'s (a1, a, classification) for many star registers.

    Row i is the register of m[i] >= 2 qubits (an integer column of checked
    counts) with coupling ratio r[i].  Returns the columns (tau_star, a1, a,
    classification, ok): tau_star is the m_odd'th trapping instant,
    bit-identical to ``renormalized_trapping_time`` without decay, and a1
    and a come from ``_star_step`` on the excited input, in real arithmetic:
    the input's amplitudes are 0 and 1, and the propagator's first column
    is real without decay.  omega^2 is r^2 + M - 1 here, so they agree with
    ``generate_w_state`` to about 4e-16, not bit for bit.  ``ok`` is False
    on a row that fails a check of ``generate_w_state`` (the ratio, the
    time, finite amplitudes of unit norm); that route raises the check's
    error on it.
    """
    with np.errstate(all="ignore"):
        omega2, (a1, a, _), _, ok = _star_step(m, r, 0.0, 1.0)
        tau_star = _trap_time(omega2, 0.0, 0.0, m_odd)
        kinds = np.select(_kind_tests(a1, a), TRAPPED_KINDS[:3], TRAPPED_KINDS[3])
    return tau_star, a1, a, kinds, ok


def reduced_qubit_density(state: StateVector, j: int | np.ndarray) -> np.ndarray:
    """Reduced 2x2 density matrix of qubit j, tracing out the rest.

    Within the zero/one-excitation sector the only basis state with qubit j
    excited is the one-excitation state of that qubit, and its coherence
    survives the trace only against the global ground state; the partial
    trace therefore closes over three amplitudes.  Conditional states are
    renormalized so the result is a unit-trace density matrix.

    ``j`` may also be an integer index array; the result then has shape
    (..., 2, 2), one density per index, for one O(M) pass over the state.
    """
    m = state.m
    index = np.asarray(j)
    integers = index.dtype.kind in "iu"
    if not (integers and index.min(initial=1) >= 1 and index.max(initial=m) <= m):
        raise IndexError(f"qubit index {j} is not an integer in 1..{m}")
    c = state.amplitudes
    if state.norm_squared <= 1e-300:
        raise ValueError("cannot reduce a zero-norm state")
    return _qubit_densities(c[0], c[index], state.norm_squared)


def _qubit_densities(ground, qubits, norm_squared) -> np.ndarray:
    """(..., 2, 2) reduced densities of the qubits with amplitudes ``qubits``.

    ``ground`` (the zero-excitation amplitude) and ``norm_squared`` may be
    scalars or columns broadcasting against ``qubits``, one state per row.
    The four entries are filled as contiguous planes, and the result is a
    (..., 2, 2) view of them.  Each real and imaginary part is then
    multiplied by 1/norm_squared.  numpy divides a complex number by a real
    n as by n + 0j, which multiplies both parts by 1/n, so the product has
    the bits of that division (but for the sign of a zero part) at a
    fraction of its cost.
    """
    excited = np.abs(qubits) ** 2
    rho = np.empty((2, 2) + excited.shape, dtype=complex)
    rho[0, 0] = norm_squared - excited
    rho[0, 1] = coherence = ground * np.conj(qubits)
    np.conjugate(coherence, out=rho[1, 0, ...])
    rho[1, 1] = excited
    parts = rho.view(float).reshape(rho.shape + (2,))  # (real, imaginary) of each entry
    parts *= (1.0 / np.asarray(norm_squared))[..., None]
    return rho.transpose(*range(2, rho.ndim), 0, 1)


def _complement_fidelities(rho: np.ndarray, alpha: float) -> np.ndarray:
    """Fidelity of each density in ``rho`` (..., 2, 2) with the orthogonal
    complement of the equatorial input, the equatorial state of phase alpha - pi.

    With that state (1, -exp(i*alpha))/sqrt(2) the fidelity is
    (rho00 + rho11)/2 - Re(exp(i*alpha)*rho01), which is evaluated as it
    stands; exp(i*(alpha - pi)) is written -exp(i*alpha), since alpha - pi
    would round pi away at large |alpha|.
    """
    coherence = np.exp(1j * alpha) * rho[..., 0, 1]
    return 0.5 * (rho[..., 0, 0].real + rho[..., 1, 1].real) - coherence.real


def equatorial_qubit_density(u_j1: float, alpha: float) -> np.ndarray:
    """Closed-form reduced state of qubit j for the equatorial protocol.

    For the half/half superposition input with phase alpha, a real transfer
    amplitude u_j1 onto qubit j gives

        rho_j = 1/2 * [[2 - u_j1^2,          u_j1*exp(-i*alpha)],
                       [u_j1*exp(i*alpha),   u_j1^2           ]]

    Used as the independent cross-check of ``reduced_qubit_density``.
    """
    _check_transfer_amplitude(u_j1)
    check_finite("alpha", alpha)
    phase = np.exp(1j * alpha)
    return 0.5 * np.array(
        [
            [2.0 - u_j1 * u_j1, u_j1 * np.conj(phase)],
            [u_j1 * phase, u_j1 * u_j1],
        ],
        dtype=complex,
    )


def transfer_fidelity_formula(u_j1: float, alpha: float, mu: float) -> float:
    """Copy fidelity onto a target equatorial state with phase mu.

    F = (1 + u_j1 * cos(alpha - mu)) / 2, given the real transfer amplitude
    u_j1 from the input qubit.
    """
    _check_transfer_amplitude(u_j1)
    check_finite("alpha", alpha)
    check_finite("mu", mu)
    return 0.5 * (1.0 + u_j1 * np.cos(alpha - mu))


def _check_transfer_amplitude(u_j1: float) -> None:
    """A transfer amplitude is a column entry of a propagator: finite, |u_j1| <= 1."""
    check_finite("u_j1", u_j1)
    if abs(u_j1) > 1.0 + 1e-12:
        raise ConfigurationError(f"need |u_j1| <= 1, got {u_j1}")


def copy_fidelity(config, j: int, t: float, alpha: float, mu: float) -> float:
    """Full-pipeline copy fidelity of qubit j at time t.

    Prepares the equatorial input with phase alpha, evolves, reduces qubit j
    and projects onto the equatorial state with phase mu.  Agrees with
    ``transfer_fidelity_formula`` evaluated at U_j1(t) to 1e-12.
    """
    check_finite("mu", mu)
    state = evolve(initial_state(np.pi / 2.0, alpha, config), config, t)
    rho = reduced_qubit_density(state, j)
    target = np.array([1.0, np.exp(1j * mu)]) / np.sqrt(2.0)
    return float(np.real(target.conj() @ rho @ target))


def fidelity_curve(m, scheme: CouplingScheme) -> tuple:
    """Analytic anti-cloning fidelities (targets, input qubit) at trapping.

    Both fidelities are taken against the orthogonal complement of the
    equatorial input.  Per scheme:

        identical : ((1 + 2/M)/2,            1/M)
        w_plus    : ((1 + 1/sqrt(M))/2,      (1 + 1/sqrt(M))/2)
        w_minus   : ((1 + 1/sqrt(M))/2,      (1 - 1/sqrt(M))/2)
        w_prime   : ((1 + 1/sqrt(M-1))/2,    1/2)

    so w_plus over M qubits and w_prime over M+1 qubits give the same
    target fidelity.  w_prime at M = 2 is the degenerate single-output
    case (perfect equatorial complementing, F = 1); M >= 3 gives genuine
    one-to-many anti-cloning over the M-1 partners.

    For a named scheme ``m`` may also be a float64 column of counts,
    checked in one pass; each entry is then bit-identical to the one-count
    value, as in ``CouplingScheme.ratio``.
    """
    check_scheme(scheme)
    m = _checked_counts(m, 2)
    if scheme.tag != "custom":
        return _named_fidelities(m, scheme.tag)
    if isinstance(m, np.ndarray):
        raise ConfigurationError("a count column needs a named scheme, not the custom scheme")
    a1, a = trapped_amplitudes(m, scheme.ratio(m))
    return 0.5 * (1.0 - a), 0.5 * (1.0 - a1)


def _named_fidelities(m, tag: str) -> tuple:
    """``fidelity_curve`` of the named scheme ``tag`` at checked counts, with
    the kernel's sqrt for their type, as ``CouplingScheme._ratio``."""
    sqrt = _libm(m).sqrt
    if tag == "identical":
        return 0.5 * (1.0 + 2.0 / m), 1.0 / m
    if tag == "w_plus":
        f = 0.5 * (1.0 + 1.0 / sqrt(m))
        return f, f
    if tag == "w_minus":
        return 0.5 * (1.0 + 1.0 / sqrt(m)), 0.5 * (1.0 - 1.0 / sqrt(m))
    return 0.5 * (1.0 + 1.0 / sqrt(m - 1.0)), 0.5


def run_anticlone(m: int, scheme: CouplingScheme, alpha: float = 0.0) -> ProtocolReport:
    """Full anti-cloning pipeline at the first trapping time.

    Evolves the equatorial input with phase alpha, reduces every qubit, and
    scores each against the orthogonal complement (phase alpha - pi).  The
    report's fidelities match ``fidelity_curve`` to 1e-12.
    """
    head, state = _trapped_step(m, scheme, np.pi / 2.0, alpha)
    rho = reduced_qubit_density(state, np.arange(1, state.m + 1))
    # branch amplitudes with the input superposition factors stripped off
    rescale = np.sqrt(2.0) * np.exp(-1j * alpha)
    a1, a = state.amplitudes[1] * rescale, state.amplitudes[2] * rescale
    return _report(head, a1, a, _complement_fidelities(rho, alpha))


def anticlone_fidelities(m: np.ndarray, r: np.ndarray, alpha: float = 0.0) -> tuple:
    """``run_anticlone``'s (partner, input qubit) fidelities for many star registers.

    Row i is the register of m[i] >= 2 qubits (an integer column of checked
    counts) with coupling ratio r[i].  Returns the (rows, 2) float64
    fidelities of its partners and of qubit 1, in ``fidelity_curve``'s
    order, and the ``ok`` column.  The M-1 partners share one amplitude
    and one fidelity, and ``_star_step`` gives each row's three distinct
    amplitudes in O(1).  omega^2 is r^2 + M - 1 here and the
    products are ordered otherwise than in ``evolve``, so entries agree
    with ``run_anticlone`` to about 1e-16, not bit for bit.

    Qubit 1 starts from ``initial_state``'s two amplitudes, taken without
    building a register, and alpha is checked once, up front.  ``ok`` is
    False, and the fidelities NaN, on a row that fails any other check
    ``run_anticlone`` makes (the ratio, the time, finite amplitudes of unit
    norm, fidelities in [0, 1]); ``run_anticlone`` raises that check's error
    on it.
    """
    ground, excited = _input_amplitudes(np.pi / 2.0, alpha)
    with np.errstate(all="ignore"):
        _, (x1, x, _), n2, ok = _star_step(m, r, ground, excited)
        rho = _qubit_densities(ground, np.stack([x, x1], axis=-1), n2[:, None])
        fidelities = _complement_fidelities(rho, alpha)
        ok &= _in_unit_interval(fidelities).all(axis=-1)
    fidelities[~ok] = np.nan
    return fidelities, ok


OPTIMIZER_OBJECTIVES = ("w_symmetry", "target_fidelity", "separable_transfer")


def optimize_coupling_ratio(m: int, objective: str):
    """The special coupling ratio of an objective for M qubits, in closed form:
    w_symmetry, |a1| = |a|, at both ``W_MINUS`` and ``W_PLUS``; separable_transfer,
    a1 = 0, and target_fidelity, where -a = 2r/(M - 1 + r^2) peaks, at ``W_PRIME``.
    """
    m = check_count("m", m, 2)
    if objective not in OPTIMIZER_OBJECTIVES:
        raise ConfigurationError(f"unknown objective {objective!r}, expected one of {OPTIMIZER_OBJECTIVES}")
    if objective == "w_symmetry":
        return W_MINUS.ratio(m), W_PLUS.ratio(m)
    return W_PRIME.ratio(m)
