"""No-click conditional dynamics under qubit and cavity decay.

With the photon channel continuously monitored, the trajectory conditioned
on detecting nothing evolves under the dissipative generator (Hermitian
coupling minus i*Gamma on each qubit and minus i*kappa on the photon) and
its norm decays; the squared norm is the no-click probability P(0, t).

For the star configuration the conditional amplitudes have a closed form in
the decay-shifted frequency Omega = sqrt(4*omega^2 - (kappa - Gamma)^2),
valid in the underdamped regime 2*omega > |kappa - Gamma|.  The photon
amplitude still vanishes exactly at the shifted trapping time 2*pi/Omega,
so the trapping mechanism survives decay for any number of qubits; the
fidelity against the decay-free trapped state quantifies what the register
loses while waiting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ConfigurationError,
    StateVector,
    check_count,
    check_non_negative,
    check_odd_index,
    check_positive,
)
from .protocols import W_PLUS, W_PRIME, trapped_amplitudes


class OverdampedRegimeError(ConfigurationError):
    """Raised when 2*omega <= |kappa - Gamma|: the closed forms assume the
    underdamped regime.  The RK4 oracle remains available there."""


def _shifted_frequency(m: int, r: float, gamma_decay: float, kappa: float) -> tuple[float, float]:
    """(omega, Omega) for the star configuration.

    Every closed form here enters through this function, so it is where the
    star parameters are checked; raises when overdamped.
    """
    check_count("m", m, 2)
    check_positive("coupling ratio", r)
    check_non_negative("gamma_decay", gamma_decay)
    check_non_negative("kappa", kappa)
    omega2 = r * r + (m - 1.0)
    detuning = kappa - gamma_decay
    disc = 4.0 * omega2 - detuning * detuning
    if disc <= 0.0:
        raise OverdampedRegimeError(
            f"overdamped: 2*omega = {2.0 * np.sqrt(omega2):.6g} <= "
            f"|kappa - gamma_decay| = {abs(detuning):.6g}"
        )
    return float(np.sqrt(omega2)), float(np.sqrt(disc))


@dataclass(frozen=True)
class ConditionalAmplitudes:
    """Closed-form no-click amplitudes of the star configuration at time t.

    ``b1`` sits on the input qubit, ``b`` on each of the M-1 partners and
    ``b_photon`` on the cavity; ``alpha_coupling`` is gamma_1*gamma/omega^2
    (named to keep it distinct from the input-phase angle alpha) and
    ``omega_damped`` the decay-shifted frequency Omega.
    """

    m: int
    r: float
    gamma_decay: float
    kappa: float
    t: float
    b1: complex
    b: complex
    b_photon: complex
    alpha_coupling: float
    omega_damped: float

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

    With alpha_c = gamma_1*gamma/omega^2, u = sin(Omega*t/2) and
    v = cos(Omega*t/2):

        b(t)        = alpha_c * exp(-Gamma*t)
                      * (-1 + exp((Gamma-kappa)*t/2) * (v + (kappa-Gamma)*u/Omega))
        b1(t)       = exp(-Gamma*t) + r*b(t)
        b_photon(t) = -2i*omega*sqrt(r*alpha_c) * exp(-(Gamma+kappa)*t/2) * u/Omega

    The input qubit keeps its own free-decay term exp(-Gamma*t) on top of
    the shared partner response r*b(t); this form agrees with the RK4
    integration of the dissipative generator to 1e-8 and reduces to the
    first propagator column when both rates vanish.
    """
    check_non_negative("time", t)
    omega, big_omega = _shifted_frequency(m, r, gamma_decay, kappa)
    alpha_c = r / omega**2
    u = np.sin(big_omega * t / 2.0)
    v = np.cos(big_omega * t / 2.0)
    b = (
        alpha_c
        * np.exp(-gamma_decay * t)
        * (-1.0 + np.exp((gamma_decay - kappa) * t / 2.0) * (v + (kappa - gamma_decay) * u / big_omega))
    )
    b1 = np.exp(-gamma_decay * t) + r * b
    b_photon = (
        -2j
        * omega
        * np.sqrt(r * alpha_c)
        * np.exp(-(gamma_decay + kappa) * t / 2.0)
        * u
        / big_omega
    )
    return ConditionalAmplitudes(
        m=m,
        r=float(r),
        gamma_decay=float(gamma_decay),
        kappa=float(kappa),
        t=float(t),
        b1=complex(b1),
        b=complex(b),
        b_photon=complex(b_photon),
        alpha_coupling=float(alpha_c),
        omega_damped=big_omega,
    )


def renormalized_trapping_time(
    m: int, r: float, gamma_decay: float, kappa: float, m_odd: int = 1
) -> float:
    """Trapping instant shifted by decay: 2*m_odd*pi/Omega (m_odd odd).

    Reduces to m_odd*pi/omega when the two rates are equal; the photon
    amplitude vanishes exactly there regardless of M.
    """
    m_odd = check_odd_index(m_odd)
    _, big_omega = _shifted_frequency(m, r, gamma_decay, kappa)
    return 2.0 * m_odd * np.pi / big_omega


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
