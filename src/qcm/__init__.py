"""Multiqubit-cavity machine on the zero/one-excitation sector.

One cavity mode couples M qubits with individually tunable strengths; the
exactly solvable single-excitation dynamics turns the cavity into a
reusable catalyst that can entangle the register into W states or copy the
orthogonal complement of an equatorial qubit onto many targets, in one
evolution step.  Closed forms, independent numerical oracles, and no-click
conditional dynamics under decay all live here.
"""

from .model import (
    ConfigurationError,
    GeneratorMatrix,
    StateVector,
    SystemConfig,
    build_dissipative_hamiltonian,
    build_hamiltonian,
    initial_state,
    star_config,
)
from .propagator import (
    PropagatorMatrix,
    closed_form_propagator,
    evolve,
    evolve_oracle_expm,
    trapping_time,
)
from .protocols import (
    CouplingScheme,
    IDENTICAL,
    ProtocolReport,
    W_MINUS,
    W_PLUS,
    W_PRIME,
    classify_trapped_state,
    fidelity_curve,
    generate_w_state,
    optimize_coupling_ratio,
    reduced_qubit_density,
    run_anticlone,
    trapped_amplitudes,
)
from .decoherence import (
    ConditionalAmplitudes,
    DecoherenceReport,
    OverdampedRegimeError,
    conditional_amplitudes,
    decohered_fidelity,
    decay_robustness_scan,
    no_click_probability,
    renormalized_trapping_time,
)

__version__ = "0.1.0"
