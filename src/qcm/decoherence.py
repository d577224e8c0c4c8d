"""No-click conditional dynamics of the star configuration under decay.

With the photon channel continuously monitored, the trajectory conditioned
on detecting nothing evolves under the dissipative generator (Hermitian
coupling minus i*Gamma on each qubit and minus i*kappa on the photon) and
its norm decays; the squared norm is the no-click probability P(0, t).

The star configuration's amplitudes are the first column of the no-click
kernel in ``qcm.propagator``: O(1) at any M, in every damping regime.  When
2*omega > |kappa - Gamma| the photon amplitude still vanishes exactly at the
shifted trapping time 2*pi/Omega, Omega = sqrt(4*omega^2 - (kappa - Gamma)^2),
so the trapping mechanism survives decay for any number of qubits; the
fidelity against the decay-free trapped state quantifies what the register
loses while waiting.

``decay_robustness_scan`` builds the decay-robustness table (the output of
``qcm decoherence``) as float64 columns in one pass: the counts, the rates
and m_odd are checked once, and every row goes through the same kernel
formulas as one float would.  The kernel's routines follow the input: on a
column numpy does the IEEE arithmetic and the correctly rounded sqrt, and
exp, expm1 and sin go through ``math``, since numpy's versions may round
differently.  A table maps exp and expm1 entry by entry, at most two exps
and one expm1, and each of its two sines once per distinct phase: at the
trapping instant nu*tau is m_odd*pi up to rounding, so a sine maps at most
three values for a whole table of 128 rows or more.  It takes no cos, as
it reads no photon term, no exp of a zero rate, one exp for equal rates
(whose two exponents are the same float) and no expm1 there: those values
are known to the bit.  A square is the IEEE product x * x, the same bits
on a float and on a column.  Every entry is therefore bit-identical to the
scalar route, and ``decohered_fidelity`` is the one-row case.  The table's
fidelity is taken against the trapped amplitudes a1 and a of
``qcm.protocols``, from the same expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, StateVector, _star_omega_squared, check_count
from .model import check_count_column, check_iterable, check_positive, check_scalar, replay_flagged
from .model import UNIT_NORM_SLACK, ZERO_NORM_FLOOR, check_label, sorted_distinct
from .propagator import (  # noqa: F401 OverdampedRegimeError is re-exported
    OverdampedRegimeError,
    _branch_norm_squared,
    _no_click_kernel,
    _star_column,
    _star_columns,
    _trap_time,
)
from .protocols import W_PLUS, W_PRIME, _scheme_rows, _trapped_amplitudes
from .protocols import SCHEME_TAGS, check_scheme

#: the decay-robustness table's default rates Gamma and kappa, in coupling units, and schemes
DEFAULT_GAMMA_DECAY, DEFAULT_KAPPA = 0.001, 0.02
DEFAULT_SCHEMES = (W_PLUS, W_PRIME)


@dataclass(frozen=True)
class ConditionalAmplitudes:
    """Closed-form no-click amplitudes of the star configuration at time t.

    ``b1`` sits on the input qubit, ``b`` on each of the M-1 partners and
    ``b_photon`` on the cavity.  Their squared norm may exceed 1 by at most
    ``UNIT_NORM_SLACK`` (1e-12), as a conditional ``StateVector``'s.
    """

    m: int
    b1: complex
    b: complex
    b_photon: complex

    def __post_init__(self):
        check_count("m", self.m, 2)
        for name in ("b1", "b", "b_photon"):
            check_scalar(name, getattr(self, name), "iufc")
        if not self.branch_norm_squared <= 1.0 + UNIT_NORM_SLACK:
            raise ConfigurationError(
                f"conditional amplitudes need norm^2 <= 1, got {self.branch_norm_squared:.15f}"
            )

    @property
    def branch_norm_squared(self) -> float:
        """Squared norm of the conditional one-excitation branch."""
        return float(_branch_norm_squared(self.m, abs(self.b1), abs(self.b), abs(self.b_photon)))

    def to_state_vector(self) -> StateVector:
        """Unnormalized conditional state over the M+2 basis states."""
        amps = np.zeros(self.m + 2, dtype=complex)
        amps[1] = self.b1
        amps[2 : self.m + 1] = self.b
        amps[self.m + 1] = self.b_photon
        return StateVector(amplitudes=amps, normalized=False)


def conditional_amplitudes(
    m: int, r: float, gamma_decay: float, kappa: float, t: float
) -> ConditionalAmplitudes:
    """No-click amplitudes at time t, starting from the excited input qubit.

    The propagator's first column for gamma_1 = r (``_star_column``).
    """
    dark, qubit, edge, _ = _no_click_kernel(_star_omega_squared(m, r), gamma_decay, kappa, t)
    b1, b, b_photon = _star_column(r, dark, qubit, edge)
    return ConditionalAmplitudes(m=m, b1=complex(b1), b=complex(b), b_photon=complex(b_photon))


def renormalized_trapping_time(
    m: int, r: float, gamma_decay: float, kappa: float, m_odd: int = 1
) -> float:
    """Trapping instant shifted by decay: 2*m_odd*pi/Omega (m_odd odd).

    Reduces to m_odd*pi/omega when the two rates are equal; the photon
    amplitude vanishes exactly there regardless of M.
    """
    return _trap_time(_star_omega_squared(m, r), gamma_decay, kappa, m_odd)


def no_click_probability(m: int, r: float, gamma_decay: float, kappa: float, t: float) -> float:
    """Probability of detecting no photon in (0, t) for the excited-input branch.

    Squared norm of the unnormalized conditional state, clamped to 1 against
    rounding (without decay the norm may round up past 1).  The equatorial
    protocol's no-click probability follows by linearity as
    1/2 + branch/2, since the zero-excitation component does not decay.
    """
    return min(conditional_amplitudes(m, r, gamma_decay, kappa, t).branch_norm_squared, 1.0)


@dataclass(frozen=True)
class DecoherenceReport:
    """One row of the decay-robustness tables; ``fidelity`` and
    ``p_no_click`` lie in [0, 1], with no slack: qcm clamps both to 1."""

    m: int
    r: float
    tau_star_c: float
    fidelity: float
    p_no_click: float
    scheme: str = "custom"

    def __post_init__(self):
        check_count("m", self.m, 2)
        check_positive("coupling ratio", self.r)
        check_positive("tau_star_c", self.tau_star_c)
        check_label("scheme", self.scheme, SCHEME_TAGS)
        for name, value in (("fidelity", self.fidelity), ("no-click probability", self.p_no_click)):
            check_scalar(name, value)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} outside [0, 1]: {value}")


@dataclass(frozen=True, eq=False)
class DecoherenceTable:
    """The decay-robustness table as read-only columns, one entry per row.

    ``m`` is an int64 column, ``scheme`` a tuple of tags, and ``r``,
    ``tau_star_c``, ``fidelity`` and ``p_no_click`` are float64 columns.
    Indexing or iterating yields each row as a ``DecoherenceReport``; the
    CLI formats the columns directly.  Tables compare by identity.
    """

    m: np.ndarray
    scheme: tuple[str, ...]
    r: np.ndarray
    tau_star_c: np.ndarray
    fidelity: np.ndarray
    p_no_click: np.ndarray

    def __len__(self) -> int:
        return len(self.scheme)

    def __getitem__(self, i: int) -> DecoherenceReport:
        return DecoherenceReport(
            m=int(self.m[i]),
            r=float(self.r[i]),
            tau_star_c=float(self.tau_star_c[i]),
            fidelity=float(self.fidelity[i]),
            p_no_click=float(self.p_no_click[i]),
            scheme=self.scheme[i],
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _decay_columns(m: np.ndarray, r: np.ndarray, gamma_decay: float, kappa: float, m_odd):
    """(tau*_c, fidelity, p_no_click, ok) columns of the rows (m[i], r[i]).

    ``m`` holds checked qubit counts and ``r`` positive ratios, as float64
    columns of one length.  Each entry is bit-identical to the row's scalar
    closed form (``renormalized_trapping_time``, ``conditional_amplitudes``
    and ``no_click_probability``).  The rates and m_odd are checked once;
    ``ok`` is False on a row that fails a check the scalar route makes on
    every row, and ``_raise_for_row`` raises that check's error on it.
    """
    if m.size:
        _star_omega_squared(int(m[0]), float(r[0]))  # checked before the rates, as row by row
    with np.errstate(all="ignore"):
        omega2, tau, (b1, b, photon) = _star_columns(m, r, gamma_decay, kappa, m_odd)
        # conditional_amplitudes' column, with |b_photon| = |r*E*S|
        p = _branch_norm_squared(m, abs(b1), abs(b), abs(photon))
        a1, a = _trapped_amplitudes(m, r, omega2)
        fidelity = np.minimum(abs(a1 * b1 + (m - 1.0) * a * b) / np.sqrt(p), 1.0)
    # a row with no trapping instant has p = NaN, which fails every comparison
    ok = (p > ZERO_NORM_FLOOR) & (fidelity >= 0.0) & (fidelity <= 1.0)
    # without decay the norm may round past 1: the probability, as the fidelity, is clamped
    return tau, fidelity, np.minimum(p, 1.0), ok


def _decay_table(m, scheme, r, gamma_decay, kappa, m_odd) -> DecoherenceTable:
    """The table of the rows (m[i], scheme[i], r[i]), m an int64 column of
    checked counts.  ``_decay_columns`` evaluates it in one pass, and each
    row that pass flags is replayed, in row order, through ``_raise_for_row``."""
    tau, fidelity, p, ok = _decay_columns(m.astype(float), r, gamma_decay, kappa, m_odd)
    replay_flagged(ok, lambda i: _raise_for_row(
        int(m[i]), float(r[i]), gamma_decay, kappa, m_odd, float(fidelity[i]), float(p[i])
    ))
    for column in (m, r, tau, fidelity, p):
        column.flags.writeable = False
    return DecoherenceTable(m, scheme, r, tau_star_c=tau, fidelity=fidelity, p_no_click=p)


def _raise_for_row(m, r, gamma_decay, kappa, m_odd, fidelity, p):
    """Raise the error the scalar route finds first on one table row, if any.

    The order is the route's: omega^2, m_odd and the rates, overdamping, a
    time that is not finite, a zero norm, then the [0, 1] range of the
    fidelity found by the table.
    """
    tau_c = renormalized_trapping_time(m, r, gamma_decay, kappa, m_odd)
    conditional_amplitudes(m, r, gamma_decay, kappa, tau_c)
    if p <= ZERO_NORM_FLOOR:
        raise ConfigurationError("conditional state has zero norm")
    DecoherenceReport(m=m, r=r, tau_star_c=tau_c, fidelity=fidelity, p_no_click=p)


def decohered_fidelity(
    m: int,
    r: float,
    gamma_decay: float,
    kappa: float,
    m_odd: int = 1,
    scheme: str = "custom",
) -> DecoherenceReport:
    """Fidelity of the no-click state at the shifted trapping time.

    Normalizes the conditional state at tau*_c and overlaps it with the
    decay-free trapped state (taken at its own trapping time tau*); also
    reports the no-click probability accumulated up to tau*_c.  For equal
    rates the conditional state is proportional to the decay-free one and
    the fidelity is exactly 1.  This is the one-row case of the table of
    ``decay_robustness_scan``.
    """
    m = check_count("m", m, 2)
    check_positive("coupling ratio", r)
    r = np.array([r], dtype=float)
    return _decay_table(np.array([m]), (scheme,), r, gamma_decay, kappa, m_odd)[0]


def decay_robustness_scan(
    m_values,
    gamma_decay: float = DEFAULT_GAMMA_DECAY,
    kappa: float = DEFAULT_KAPPA,
    m_odd: int = 1,
    schemes=DEFAULT_SCHEMES,
) -> DecoherenceTable:
    """Decay-robustness table over qubit counts and coupling schemes.

    Rows run over the distinct M ascending and, for each M, over the
    schemes by tag: the shifted trapping time, the fidelity against the
    decay-free trapped state, and the no-click probability.  The rates and
    schemes default to DEFAULT_GAMMA_DECAY, DEFAULT_KAPPA and
    DEFAULT_SCHEMES.  The counts are checked once, in the order given (an
    integer or float column in one pass, as ``fidelity_curve`` checks it),
    and the table is built as float64 columns in one pass (``_decay_columns``).
    """
    if isinstance(m_values, np.ndarray):
        counts = check_count_column("m", m_values, 2)
    else:
        counts = [check_count("m", m, 2) for m in check_iterable("m_values", m_values)]
    counts = sorted_distinct(np.asarray(counts, dtype=np.int64))
    schemes = map(check_scheme, check_iterable("schemes", schemes))
    schemes = sorted(schemes, key=lambda scheme: scheme.tag)
    m, r = _scheme_rows(counts, schemes)
    tags = tuple(scheme.tag for scheme in schemes) * counts.size
    return _decay_table(m, tags, r, gamma_decay, kappa, m_odd)
