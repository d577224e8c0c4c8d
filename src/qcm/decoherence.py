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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import StateVector, _star_omega_squared, check_count
from .propagator import OverdampedRegimeError, _no_click_kernel, _trap_time  # noqa: F401 re-export
from .protocols import W_PLUS, W_PRIME, trapped_amplitudes


@dataclass(frozen=True)
class ConditionalAmplitudes:
    """Closed-form no-click amplitudes of the star configuration at time t.

    ``b1`` sits on the input qubit, ``b`` on each of the M-1 partners and
    ``b_photon`` on the cavity.
    """

    m: int
    r: float
    gamma_decay: float
    kappa: float
    t: float
    b1: complex
    b: complex
    b_photon: complex

    @property
    def branch_norm_squared(self) -> float:
        """Squared norm of the conditional one-excitation branch."""
        return float(
            abs(self.b1) ** 2 + (self.m - 1) * abs(self.b) ** 2 + abs(self.b_photon) ** 2
        )

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

    The propagator's first column for gamma_1 = r, from the kernel scalars:
    b = r*qubit, b1 = dark + r*b (the input qubit's own free decay on top of
    the shared partner response) and b_photon = r*edge.
    """
    dark, qubit, edge, _ = _no_click_kernel(_star_omega_squared(m, r), gamma_decay, kappa, t)
    b = r * qubit
    return ConditionalAmplitudes(
        m=m,
        r=float(r),
        gamma_decay=float(gamma_decay),
        kappa=float(kappa),
        t=float(t),
        b1=complex(dark + r * b),
        b=complex(b),
        b_photon=complex(r * edge),
    )


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

    Squared norm of the unnormalized conditional state.  The equatorial
    protocol's no-click probability follows by linearity as
    1/2 + branch/2, since the zero-excitation component does not decay.
    """
    return conditional_amplitudes(m, r, gamma_decay, kappa, t).branch_norm_squared


@dataclass(frozen=True)
class DecoherenceReport:
    """One row of the decay-robustness tables."""

    m: int
    r: float
    gamma_decay: float
    kappa: float
    tau_star_c: float
    fidelity: float
    p_no_click: float
    scheme: str = "custom"

    def __post_init__(self):
        if not -1e-12 <= self.fidelity <= 1.0 + 1e-12:
            raise ValueError(f"fidelity outside [0, 1]: {self.fidelity}")
        if not -1e-12 <= self.p_no_click <= 1.0 + 1e-12:
            raise ValueError(f"no-click probability outside [0, 1]: {self.p_no_click}")


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
    the fidelity is exactly 1.
    """
    tau_c = renormalized_trapping_time(m, r, gamma_decay, kappa, m_odd)
    amps = conditional_amplitudes(m, r, gamma_decay, kappa, tau_c)
    p = amps.branch_norm_squared
    if p <= 1e-300:
        raise ValueError("conditional state has zero norm")
    a1, a = trapped_amplitudes(m, r)
    overlap = a1 * amps.b1 + (m - 1) * a * amps.b
    fidelity = float(abs(overlap) / np.sqrt(p))
    return DecoherenceReport(
        m=m,
        r=float(r),
        gamma_decay=float(gamma_decay),
        kappa=float(kappa),
        tau_star_c=tau_c,
        fidelity=min(fidelity, 1.0),
        p_no_click=p,
        scheme=scheme,
    )


def decay_robustness_scan(
    m_values,
    gamma_decay: float = 0.001,
    kappa: float = 0.02,
) -> list[DecoherenceReport]:
    """Decay-robustness table over qubit counts, both protocol schemes.

    For each M (ascending) emits one row per scheme in (w_plus, w_prime):
    the shifted trapping time, the fidelity against the decay-free trapped
    state, and the no-click probability.  Default rates are kappa = 0.02
    and Gamma = 0.001 in coupling units.
    """
    reports = []
    for m in sorted({check_count("m", m, 2) for m in m_values}):
        for scheme in (W_PLUS, W_PRIME):
            reports.append(
                decohered_fidelity(
                    m,
                    scheme.ratio(m),
                    gamma_decay,
                    kappa,
                    scheme=scheme.tag,
                )
            )
    return reports
