"""Shared helpers: random system sampling and the brute-force trace oracle."""

import string

import numpy as np

from qcm.model import StateVector, SystemConfig


def random_system(rng, m_low=1, m_high=16, coupling_low=0.25, coupling_high=2.0):
    """Random SystemConfig with M drawn from [m_low, m_high]."""
    m = int(rng.integers(m_low, m_high + 1))
    return SystemConfig(rng.uniform(coupling_low, coupling_high, size=m))


def random_block_state(rng, m):
    """Normalized random state over the M+2 basis states (all components)."""
    raw = rng.normal(size=m + 2) + 1j * rng.normal(size=m + 2)
    return StateVector(amplitudes=raw / np.linalg.norm(raw), normalized=True)


def embed_full_hilbert(state: StateVector) -> np.ndarray:
    """Embed a sector state into the full (2^M qubits) x (2 photon) space.

    Qubit j maps to tensor factor j-1 (qubit 1 first), the photon to the
    last factor; bit order within an index is factor order.
    """
    m = state.m
    full = np.zeros(2 ** (m + 1), dtype=complex)

    def index(bits, photon):
        i = 0
        for b in bits:
            i = 2 * i + b
        return 2 * i + photon

    full[index([0] * m, 0)] = state.amplitudes[0]
    for j in range(1, m + 1):
        bits = [0] * m
        bits[j - 1] = 1
        full[index(bits, 0)] = state.amplitudes[j]
    full[index([0] * m, 1)] = state.amplitudes[m + 1]
    return full


def brute_force_reduced_density(state: StateVector, j: int) -> np.ndarray:
    """Partial trace over everything but qubit j, done in the full space.

    Completely independent of the sector shortcut: builds the full density
    matrix and contracts every other tensor factor with einsum.
    """
    m = state.m
    full = embed_full_hilbert(state)
    norm2 = float(np.vdot(full, full).real)
    rho = np.outer(full, full.conj()) / norm2
    rho = rho.reshape([2] * (2 * (m + 1)))
    keep = j - 1
    shared = iter(string.ascii_lowercase[2:] + string.ascii_uppercase)
    row, col = [], []
    for axis in range(m + 1):
        if axis == keep:
            row.append("a")
            col.append("b")
        else:
            letter = next(shared)
            row.append(letter)
            col.append(letter)
    return np.einsum("".join(row) + "".join(col) + "->ab", rho)
