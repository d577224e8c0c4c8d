"""One-step W-state generation by choosing the coupling ratio.

Start with qubit 1 excited and everyone else in the ground state.  At the
trapping time the excitation is shared: qubit 1 keeps a1 and each of the
M-1 partners receives a common amplitude a.  Tuning r = gamma_1/gamma
selects the final symmetry:

    r = sqrt(M) + 1  ->  symmetric W state over all M qubits
    r = sqrt(M) - 1  ->  antisymmetric W state (qubit 1 flips sign)
    r = sqrt(M - 1)  ->  qubit 1 empties out; W state of the M-1 partners

Identical couplings only work at M = 4, where sqrt(M) - 1 happens to be 1.
"""

import numpy as np

from qcm import (
    W_MINUS,
    W_PLUS,
    W_PRIME,
    generate_w_state,
    optimize_coupling_ratio,
    trapped_amplitudes,
)

print("M=4, the special case where identical couplings give a W state")
for scheme in (W_PLUS, W_MINUS):
    state, report = generate_w_state(4, scheme)
    print(
        f"  {scheme.tag:8s} r={report.r:.4f}  amplitudes="
        f"{np.round(state.amplitudes[1:5].real, 6)}  -> {report.classification}"
    )
print()

print("M=3 with r = sqrt(2): the excitation abandons qubit 1 entirely")
state, report = generate_w_state(3, W_PRIME)
print(f"  qubit amplitudes = {np.round(state.amplitudes[1:4].real, 6)}")
print(f"  classification   = {report.classification}")
print(f"  photon amplitude = {abs(state.amplitudes[-1]):.2e}")
print()

print("equal sharing |amplitude| = 1/sqrt(M) across qubit counts (w_plus):")
print("  M    r = sqrt(M)+1   max | |amp| - 1/sqrt(M) |")
for m in (2, 4, 8, 16):
    state, report = generate_w_state(m, W_PLUS)
    defect = np.max(np.abs(np.abs(state.amplitudes[1 : m + 1]) - 1.0 / np.sqrt(m)))
    print(f"  {m:2d}   {report.r:12.6f}   {defect:.2e}")
print()

print("the special ratios in closed form, and the trapped amplitudes there (M = 9):")
low, high = optimize_coupling_ratio(9, "w_symmetry")
transfer = optimize_coupling_ratio(9, "separable_transfer")
for label, r in (("sqrt(9) - 1", low), ("sqrt(9) + 1", high), ("sqrt(8)    ", transfer)):
    a1, a = trapped_amplitudes(9, r)
    print(f"  r = {label} = {r:.8f}   a1 = {a1:+.8f}   a = {a:+.8f}")
print("  |a1| = |a| on both symmetry branches; a1 = 0 at full transfer")
