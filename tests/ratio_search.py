"""Numerical search for the special coupling ratios: the test oracle of
``optimize_coupling_ratio``'s closed forms.

The search knows only ``trapped_amplitudes`` and ``fidelity_curve`` at an
explicit ratio, never the closed-form ratios themselves, so finding them
confirms that they are the optima.
"""

import math

import numpy as np

from qcm.protocols import CouplingScheme, fidelity_curve, trapped_amplitudes


def _golden_section_argmin(f, lo: float, hi: float) -> float:
    """Golden-section argmin of a unimodal function on [lo, hi], to 1e-8 or adjacent floats."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b, width = lo, hi, math.inf
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while width > b - a > 1e-8:
        width = b - a
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def search_coupling_ratio(m: int, objective: str):
    """Numerically locate the special coupling ratio of ``objective`` for M qubits.

    Scans r over (0, 4*sqrt(M)] on a 512-point log grid, then refines each
    candidate by golden section to 1e-8.  Objectives, as in
    ``optimize_coupling_ratio``:

        w_symmetry         : |a1| = |a|; returns both branches (low, high)
        target_fidelity    : argmax of the target-qubit fidelity
        separable_transfer : a1 = 0

    The roots recover sqrt(M) -/+ 1 and sqrt(M-1) to better than 1e-6.
    ``target_fidelity`` recovers sqrt(M-1) to 1e-6 *relative* only, up to M
    of about 10^7: near a smooth maximum the fidelity moves by O(dr^2), so
    its argmax is fixed to about sqrt(eps * sqrt(M)) relative.
    """
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
    if objective == "w_symmetry":
        # past M ~ 7500 both roots can share one grid interval; |a1| - |a|
        # dips below 0 only between them, so its minimum splits them
        i = min(max(int(np.argmin(values)), 1), len(grid) - 2)
        dip = _golden_section_argmin(f, grid[i - 1], grid[i + 1])
        k = int(np.searchsorted(grid, dip))
        grid, values = np.insert(grid, k, dip), np.insert(values, k, f(dip))
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
