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
where the paper places its robustness claims are reachable (M = 10^5 in
about a tenth of a second).

A scan/optimizer utility recovers the special coupling ratios numerically:
|a1| = |a| at r = sqrt(M) +/- 1, and a1 = 0 (full transfer out of the input
qubit, which also maximizes the target fidelity) at r = sqrt(M-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ConfigurationError,
    StateVector,
    _star_omega_squared,
    check_count,
    check_positive,
    initial_state,
    star_config,
)
from .propagator import evolve, trapping_time

SCHEME_TAGS = ("identical", "w_plus", "w_minus", "w_prime", "custom")

#: amplitudes closer in magnitude than this are treated as equal when
#: classifying trapped states (oracle noise floor)
CLASSIFY_TOL = 1e-10


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
        if self.tag not in SCHEME_TAGS:
            raise ConfigurationError(
                f"unknown scheme {self.tag!r}, expected one of {SCHEME_TAGS}"
            )
        if self.tag == "custom":
            if self.custom_ratio is None:
                raise ConfigurationError("custom scheme needs a coupling ratio")
            check_positive("coupling ratio", self.custom_ratio)
        elif self.custom_ratio is not None:
            raise ConfigurationError(f"scheme {self.tag!r} does not take an explicit ratio")

    @classmethod
    def custom(cls, r: float) -> "CouplingScheme":
        return cls(tag="custom", custom_ratio=float(r))

    @classmethod
    def from_string(cls, text: str) -> "CouplingScheme":
        return cls(tag=text.strip())

    def ratio(self, m: int) -> float:
        """Resolve the coupling ratio for M qubits.

        w_minus and w_prime need M >= 2, where their ratios are positive.
        """
        m = check_count("m", m, 2 if self.tag in ("w_minus", "w_prime") else 1)
        if self.tag == "identical":
            return 1.0
        if self.tag == "w_plus":
            return float(np.sqrt(m) + 1.0)
        if self.tag == "w_minus":
            return float(np.sqrt(m) - 1.0)
        if self.tag == "w_prime":
            return float(np.sqrt(m - 1.0))
        return float(self.custom_ratio)


IDENTICAL = CouplingScheme("identical")
W_PLUS = CouplingScheme("w_plus")
W_MINUS = CouplingScheme("w_minus")
W_PRIME = CouplingScheme("w_prime")


@dataclass(frozen=True)
class ProtocolReport:
    """Row type of the protocol scan tables.

    ``a1`` and ``a`` are the trapped branch amplitudes on the input qubit
    and on each partner; ``fidelities`` holds the per-qubit copy fidelities
    of an anti-cloning run and is None for W-state generation (which has no
    reference phase to copy against).
    """

    m: int
    scheme: str
    r: float
    trapping_time: float
    a1: float
    a: float
    classification: str
    fidelities: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.fidelities is not None and any(
            not (-1e-12 <= f <= 1.0 + 1e-12) for f in self.fidelities
        ):
            raise ValueError(f"fidelities outside [0, 1]: {self.fidelities}")


def trapped_amplitudes(m: int, r: float) -> tuple[float, float]:
    """Branch amplitudes of the trapped state for the star configuration.

        a1 = (M - 1 - r^2) / (M - 1 + r^2),   a = -2r / (M - 1 + r^2)

    satisfying a1^2 + (M-1)*a^2 = 1; needs at least one partner qubit.
    """
    denom = _star_omega_squared(m, r)
    return (m - 1.0 - r * r) / denom, -2.0 * r / denom


def classify_trapped_state(a1: float, a: float, tol: float = CLASSIFY_TOL) -> str:
    """Classify trapped branch amplitudes by their sign/magnitude pattern.

    separable_W: the input qubit is empty; symmetric_W / antisymmetric_W:
    all M amplitudes share a magnitude, with qubit 1 carrying the same or
    the opposite sign; anything else is generic.
    """
    if abs(a1) < tol:
        return "separable_W"
    if abs(a1 - a) < tol:
        return "symmetric_W"
    if abs(a1 + a) < tol:
        return "antisymmetric_W"
    return "generic"


def generate_w_state(m: int, scheme: CouplingScheme) -> tuple[StateVector, ProtocolReport]:
    """Evolve the excited input qubit to the first trapping time.

    Returns the full evolved state (photon amplitude below 1e-12 at the
    trapping instant) and a report with the measured branch amplitudes and
    their classification.
    """
    m = check_count("m", m, 2)
    r = scheme.ratio(m)
    config = star_config(m, r)
    tau = trapping_time(config)
    state = evolve(initial_state(0.0, 0.0, config), config, tau)
    a1 = float(state.amplitudes[1].real)
    a = float(state.amplitudes[2].real)
    report = ProtocolReport(
        m=m,
        scheme=scheme.tag,
        r=r,
        trapping_time=tau,
        a1=a1,
        a=a,
        classification=classify_trapped_state(a1, a),
    )
    return state, report


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
    if index.dtype.kind not in "iu" or not np.all((index >= 1) & (index <= m)):
        raise IndexError(f"qubit index {j} is not an integer in 1..{m}")
    c = state.amplitudes
    n2 = state.norm_squared
    if n2 <= 1e-300:
        raise ValueError("cannot reduce a zero-norm state")
    excited = np.abs(c[index]) ** 2
    coherence = c[0] * np.conj(c[index])
    rho = np.stack([n2 - excited, coherence, np.conj(coherence), excited], axis=-1)
    return rho.reshape(index.shape + (2, 2)) / n2


def equatorial_qubit_density(u_j1: float, alpha: float) -> np.ndarray:
    """Closed-form reduced state of qubit j for the equatorial protocol.

    For the half/half superposition input with phase alpha, a real transfer
    amplitude u_j1 onto qubit j gives

        rho_j = 1/2 * [[2 - u_j1^2,          u_j1*exp(-i*alpha)],
                       [u_j1*exp(i*alpha),   u_j1^2           ]]

    Used as the independent cross-check of ``reduced_qubit_density``.
    """
    phase = np.exp(1j * alpha)
    return 0.5 * np.array(
        [
            [2.0 - u_j1**2, u_j1 * np.conj(phase)],
            [u_j1 * phase, u_j1**2],
        ],
        dtype=complex,
    )


def transfer_fidelity_formula(u_j1: float, alpha: float, mu: float) -> float:
    """Copy fidelity onto a target equatorial state with phase mu.

    F = (1 + u_j1 * cos(alpha - mu)) / 2, given the real transfer amplitude
    u_j1 from the input qubit.
    """
    return 0.5 * (1.0 + u_j1 * np.cos(alpha - mu))


def copy_fidelity(config, j: int, t: float, alpha: float, mu: float) -> float:
    """Full-pipeline copy fidelity of qubit j at time t.

    Prepares the equatorial input with phase alpha, evolves, reduces qubit j
    and projects onto the equatorial state with phase mu.  Agrees with
    ``transfer_fidelity_formula`` evaluated at U_j1(t) to 1e-12.
    """
    state = evolve(initial_state(np.pi / 2.0, alpha, config), config, t)
    rho = reduced_qubit_density(state, j)
    target = np.array([1.0, np.exp(1j * mu)]) / np.sqrt(2.0)
    return float(np.real(target.conj() @ rho @ target))


def fidelity_curve(m: int, scheme: CouplingScheme) -> tuple[float, float]:
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
    """
    m = check_count("m", m, 2)
    if scheme.tag == "identical":
        return 0.5 * (1.0 + 2.0 / m), 1.0 / m
    if scheme.tag == "w_plus":
        f = 0.5 * (1.0 + 1.0 / np.sqrt(m))
        return f, f
    if scheme.tag == "w_minus":
        return 0.5 * (1.0 + 1.0 / np.sqrt(m)), 0.5 * (1.0 - 1.0 / np.sqrt(m))
    if scheme.tag == "w_prime":
        return 0.5 * (1.0 + 1.0 / np.sqrt(m - 1.0)), 0.5
    a1, a = trapped_amplitudes(m, scheme.ratio(m))
    return 0.5 * (1.0 - a), 0.5 * (1.0 - a1)


def run_anticlone(m: int, scheme: CouplingScheme, alpha: float = 0.0) -> ProtocolReport:
    """Full anti-cloning pipeline at the first trapping time.

    Evolves the equatorial input with phase alpha, reduces every qubit, and
    scores each against the orthogonal complement (phase alpha - pi).  The
    report's fidelities match ``fidelity_curve`` to 1e-12.
    """
    m = check_count("m", m, 2)
    r = scheme.ratio(m)
    config = star_config(m, r)
    tau = trapping_time(config)
    state = evolve(initial_state(np.pi / 2.0, alpha, config), config, tau)
    mu = alpha - np.pi
    target = np.array([1.0, np.exp(1j * mu)]) / np.sqrt(2.0)
    rho = reduced_qubit_density(state, np.arange(1, m + 1))
    fidelities = tuple((target.conj() @ rho @ target).real.tolist())
    # branch amplitudes with the input superposition factors stripped off
    rescale = np.sqrt(2.0) * np.exp(-1j * alpha)
    a1 = float((state.amplitudes[1] * rescale).real)
    a = float((state.amplitudes[2] * rescale).real)
    return ProtocolReport(
        m=m,
        scheme=scheme.tag,
        r=r,
        trapping_time=tau,
        a1=a1,
        a=a,
        classification=classify_trapped_state(a1, a),
        fidelities=fidelities,
    )


OPTIMIZER_OBJECTIVES = ("w_symmetry", "target_fidelity", "separable_transfer")


def _golden_section_argmin(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Golden-section minimizer of a unimodal function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimize_coupling_ratio(m: int, objective: str):
    """Numerically locate the special coupling ratios for M qubits.

    Scans r over (0, 4*sqrt(M)] on a log grid, then refines each candidate
    by golden section to an interval below 1e-8.  Objectives:

        w_symmetry         : |a1| = |a|; returns both branches (low, high)
        target_fidelity    : argmax of the target-qubit fidelity
        separable_transfer : a1 = 0

    The roots recover sqrt(M) -/+ 1 and sqrt(M-1) to better than 1e-6.
    ``target_fidelity`` recovers sqrt(M-1) to 1e-6 *relative* only: near a
    smooth maximum the fidelity moves by O(dr^2), so in floating point its
    argmax is fixed to about sqrt(eps) relative (1.1e-6 absolute at M=256).
    """
    m = check_count("m", m, 2)
    if objective not in OPTIMIZER_OBJECTIVES:
        raise ConfigurationError(f"unknown objective {objective!r}, expected one of {OPTIMIZER_OBJECTIVES}")
    grid = np.geomspace(1e-3, 4.0 * np.sqrt(m), 512)

    if objective == "target_fidelity":
        values = np.array([fidelity_curve(m, CouplingScheme.custom(r))[0] for r in grid])
        i = int(np.argmax(values))
        i = min(max(i, 1), len(grid) - 2)
        return _golden_section_argmin(
            lambda r: -fidelity_curve(m, CouplingScheme.custom(r))[0],
            grid[i - 1],
            grid[i + 1],
        )

    if objective == "w_symmetry":

        def f(r):
            a1, a = trapped_amplitudes(m, r)
            return abs(a1) - abs(a)

    else:  # separable_transfer

        def f(r):
            return trapped_amplitudes(m, r)[0]

    values = np.array([f(r) for r in grid])
    roots = []
    for i in range(len(grid) - 1):
        if values[i] == 0.0:
            roots.append(float(grid[i]))
        elif values[i] * values[i + 1] < 0.0:
            roots.append(
                _golden_section_argmin(lambda r: abs(f(r)), grid[i], grid[i + 1])
            )
    if values[-1] == 0.0:
        roots.append(float(grid[-1]))

    if objective == "w_symmetry":
        if len(roots) != 2:
            raise ValueError(f"expected two symmetry ratios for m={m}, found {roots}")
        return tuple(sorted(roots))
    if len(roots) != 1:
        raise ValueError(f"expected one transfer ratio for m={m}, found {roots}")
    return roots[0]
