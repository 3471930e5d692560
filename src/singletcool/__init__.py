"""Algorithmic cooling of spin-1/2 pairs through long-lived singlet order.

Three fidelity layers simulate the same pumping protocol:

* `singletcool.protocol` -- ideal instantaneous population algebra with
  closed-form build-up and steady state;
* `singletcool.kinetics` -- finite-time relaxation with a rate matrix
  calibrated to measured (T1, TS), reset-delay sweeps and decay fitting;
* `singletcool.coherent` -- pulse-level unitary dynamics of the shaped
  adiabatic conversion pulse and composite pulses.

`singletcool.cli` exposes the command-line front end (``singletcool``).

Every public name is listed once, in ``_EXPORTS`` with its module, and is read from
that module when accessed (PEP 562).  `kinetics` is imported on first access to one of
its names, as are ``SINGLET_ORDER`` and ``ZEEMAN_ORDER``, which build arrays.  numpy is
imported where an array is built, not with a module: ``import singletcool`` and
``import singletcool.kinetics`` import none, and neither does a pump of either
population engine over one reset interval, nor a sweep, decay curve or fit of up to
16 points.
"""

import importlib

from . import core, protocol

__version__ = "0.1.0"

#: Each public name and the module that defines it.
_EXPORTS = {
    "GAMMA_13C": "core",
    "N_SO": "core",
    "N_ZO": "core",
    "OrderKind": "core",
    "OrderObservable": "core",
    "PopulationVector": "core",
    "SINGLET_ORDER": "core",
    "SpinSystemParams": "core",
    "ZEEMAN_ORDER": "core",
    "epsilon": "core",
    "measure_order": "core",
    "thermal_populations": "core",
    "unitary_max_order": "core",
    "Permutation": "protocol",
    "TransferMatrix": "protocol",
    "closed_form_so": "protocol",
    "cycle_matrix": "protocol",
    "enhance_zeeman": "protocol",
    "ideal_reset": "protocol",
    "ideal_signal": "protocol",
    "ideal_steady_state": "protocol",
    "permutation_matrix": "protocol",
    "run_ideal": "protocol",
    "signal_from_singlet_order": "protocol",
    "FitResult": "kinetics",
    "KineticProtocolResult": "kinetics",
    "RateMatrix": "kinetics",
    "TauSweep": "kinetics",
    "calibrate_rates": "kinetics",
    "decay_curve": "kinetics",
    "finite_reset": "kinetics",
    "fit_monoexponential": "kinetics",
    "run_kinetic": "kinetics",
    "sweep_tau": "kinetics",
    "zeeman_enhancement_ratio": "kinetics",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """A public name, or `kinetics` itself, read from its module, which is imported on
    first access."""
    if name == "kinetics":
        return importlib.import_module(".kinetics", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    """The module's names and every public one, imported yet or not."""
    return sorted({*globals(), *_EXPORTS})
