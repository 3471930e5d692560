"""Algorithmic cooling of spin-1/2 pairs through long-lived singlet order.

Three fidelity layers simulate the same pumping protocol:

* `singletcool.protocol` -- ideal instantaneous population algebra with
  closed-form build-up and steady state;
* `singletcool.kinetics` -- finite-time relaxation with a rate matrix
  calibrated to measured (T1, TS), reset-delay sweeps and decay fitting;
* `singletcool.coherent` -- pulse-level unitary dynamics of the shaped
  adiabatic conversion pulse and composite pulses.

`singletcool.cli` exposes the command-line front end (``singletcool``).
"""

from .core import (
    GAMMA_13C,
    N_SO,
    N_ZO,
    OrderKind,
    OrderObservable,
    PopulationVector,
    SINGLET_ORDER,
    SpinSystemParams,
    ZEEMAN_ORDER,
    epsilon,
    measure_order,
    thermal_populations,
    unitary_max_order,
)
from .kinetics import (
    FitResult,
    KineticProtocolResult,
    RateMatrix,
    TauSweep,
    calibrate_rates,
    decay_curve,
    finite_reset,
    fit_monoexponential,
    run_kinetic,
    sweep_tau,
    zeeman_enhancement_ratio,
)
from .protocol import (
    Permutation,
    TransferMatrix,
    closed_form_so,
    cycle_matrix,
    enhance_zeeman,
    ideal_reset,
    ideal_signal,
    ideal_steady_state,
    permutation_matrix,
    run_ideal,
    signal_from_singlet_order,
)

__version__ = "0.1.0"

__all__ = [
    "GAMMA_13C",
    "N_SO",
    "N_ZO",
    "OrderKind",
    "OrderObservable",
    "PopulationVector",
    "SINGLET_ORDER",
    "SpinSystemParams",
    "ZEEMAN_ORDER",
    "epsilon",
    "measure_order",
    "thermal_populations",
    "unitary_max_order",
    "Permutation",
    "TransferMatrix",
    "closed_form_so",
    "cycle_matrix",
    "enhance_zeeman",
    "ideal_reset",
    "ideal_signal",
    "ideal_steady_state",
    "permutation_matrix",
    "run_ideal",
    "signal_from_singlet_order",
    "FitResult",
    "KineticProtocolResult",
    "RateMatrix",
    "TauSweep",
    "calibrate_rates",
    "decay_curve",
    "finite_reset",
    "fit_monoexponential",
    "run_kinetic",
    "sweep_tau",
    "zeeman_enhancement_ratio",
    "__version__",
]
