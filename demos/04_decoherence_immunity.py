"""No-click conditional dynamics: the trapping mechanism survives decay.

Monitor the photon channel while qubits decay at Gamma and the cavity at
kappa.  Conditioned on seeing no click, the state evolves under a
non-Hermitian generator, its squared norm giving the survival probability
P(0, t).  Two punchlines:

* The photon amplitude still vanishes *exactly*, at a slightly shifted
  trapping time 2*pi/Omega with Omega = sqrt(4 omega^2 - (kappa-Gamma)^2):
  the catalyst resets even while decaying.
* For Gamma = kappa the two decay channels combine into a global
  exp(-Gamma t) factor and the renormalized state is exactly the ideal
  one -- unit fidelity at any decay strength.

Larger registers finish faster, so robustness *improves* with qubit count.
"""


from qcm import (
    W_PLUS,
    W_PRIME,
    conditional_amplitudes,
    decohered_fidelity,
    decay_robustness_scan,
    no_click_probability,
    renormalized_trapping_time,
)

GAMMA, KAPPA = 0.001, 0.02  # in units of the partner coupling

m, r = 2, W_PLUS.ratio(2)
tau_c = renormalized_trapping_time(m, r, GAMMA, KAPPA)
print(f"two qubits, r = sqrt(2)+1, Gamma = {GAMMA}, kappa = {KAPPA}")
print(f"shifted trapping time tau*_c = {tau_c:.8f}")
amps = conditional_amplitudes(m, r, GAMMA, KAPPA, tau_c)
print(f"photon amplitude there      = {abs(amps.b_photon):.2e}   (exact null)")
print(f"survival probability        = {no_click_probability(m, r, GAMMA, KAPPA, tau_c):.6f}")
print()

print("matched rates are harmless: fidelity of the conditional state = 1")
for g in (0.001, 0.01, 0.1):
    report = decohered_fidelity(4, 3.0, g, g)
    print(
        f"  Gamma = kappa = {g:5.3f}:  F_r = {report.fidelity:.15f}, "
        f"P(0, tau*_c) = {report.p_no_click:.6f} = exp(-2g tau*_c)"
    )
print()

print("robustness grows with the number of qubits (Gamma != kappa):")
print("  M    F_r (w_plus)      F_r (w_prime)     P (w_plus)  P (w_prime)")
table = decay_robustness_scan(range(2, 13), gamma_decay=GAMMA, kappa=KAPPA)
# one row per (M, scheme), the schemes in tag order: w_plus, then w_prime
fidelity = table.fidelity.reshape(-1, 2)
survival = table.p_no_click.reshape(-1, 2)
for m, (f_plus, f_prime), (p_plus, p_prime) in zip(table.m[::2], fidelity, survival):
    print(f"  {m:2d}   {f_plus:.12f}    {f_prime:.12f}    {p_plus:.6f}    {p_prime:.6f}")
print()
print("every column rises with M, and never drops below 0.97 survival")
