"""Tour of the single-excitation dynamics and the vacuum trapping instant.

One cavity mode exchanges a single excitation with M qubits at the
collective Rabi frequency omega = sqrt(sum of squared couplings).  At
t = pi/omega the photon amplitude returns to zero for *any* couplings, the
cavity factorizes from the register, and the machine is ready for reuse --
this trapping instant is the working point of every protocol here.
"""

import numpy as np

from qcm import (
    SystemConfig,
    build_hamiltonian,
    closed_form_propagator,
    evolve,
    evolve_oracle_expm,
    initial_state,
    trapping_time,
)

config = SystemConfig(couplings=(2.0, 1.0, 1.0))
omega = config.omega
tau = trapping_time(config)

print("three qubits, couplings", config.couplings.tolist())
print(f"collective Rabi frequency omega = {omega:.6f}  (sqrt(6))")
print(f"first trapping time tau* = pi/omega = {tau:.6f}")
print()

# excitation starts on qubit 1; follow the photon amplitude over one period
state = initial_state(0.0, 0.0, config)
print("t/tau*   |photon amplitude|   norm")
for frac in np.linspace(0.0, 2.0, 9):
    out = evolve(state, config, frac * tau)
    print(f"{frac:5.2f}    {abs(out.amplitudes[-1]):18.12f}   {out.norm_squared:.12f}")
print()

# the cavity is exactly empty at tau*: the register keeps everything
trapped = evolve(state, config, tau)
print("state at tau* (real parts):", np.round(trapped.amplitudes.real, 6))
print("qubit populations:", np.round(np.abs(trapped.amplitudes[1:4]) ** 2, 6))
print()

# sanity: the closed form agrees with an eigendecomposition exponential
u_closed = closed_form_propagator(config, 1.234).matrix
oracle = evolve_oracle_expm(build_hamiltonian(config), state, 1.234)
closed = evolve(state, config, 1.234)
print(
    "closed form vs eigendecomposition oracle:",
    f"{np.max(np.abs(closed.amplitudes - oracle.amplitudes)):.2e}",
)
