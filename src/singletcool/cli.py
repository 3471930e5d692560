"""Command line: protocol runs, parameter sweeps and CSV emission.

Every command writes deterministic CSV (first line a column header,
comment lines start with '#', floats at full double precision) to the
path given by --out, or stdout.  Exit codes: 0 success, 1 invalid
config, 2 computation/fit failure, 3 I/O failure.  An error goes to stderr
as one line, followed by the run's warnings as ``warning: ...`` lines.

Configuration is read from flags, or from a plain-text file of
``key = value`` lines given with --config ('#' comments allowed); flags
override file values.  Default values regenerate the reference scenario
of the bundled 13C2 spin pair.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import coherent, kinetics, protocol
from .core import (
    GAMMA_13C,
    SINGLET_ORDER,
    ZEEMAN_ORDER,
    PopulationVector,
    SpinSystemParams,
    epsilon,
    measure_order,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPUTE = 2
EXIT_IO = 3

SIGNAL_NOTE = "# signal of 1.0 = thermal-equilibrium signal of a 90-degree pulse"


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """Merged run configuration (defaults < config file < flags)."""

    mode: str = "kinetic"
    n_p: int = 6
    tau: float = 28.0
    tau_ev: float = 0.0
    tau_prime: float = 18.0
    j: float = 54.141
    delta_ppm: float = 0.057
    b0: float = 16.45
    gamma: float = GAMMA_13C
    temperature: float = 298.0
    t1: float = 7.36
    ts: float = 214.0
    n_steps: int = 20000
    out: Optional[str] = None
    tau_grid: Optional[tuple[float, ...]] = None
    tau_ev_grid: Optional[tuple[float, ...]] = None

    def validate(self) -> None:
        if self.mode not in ("ideal", "kinetic", "coherent-check"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.n_p < 0:
            raise ConfigError("np must be >= 0")
        for name in ("tau", "tau_ev", "tau_prime"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
        if self.n_steps < 1:
            raise ConfigError("n-steps must be >= 1")
        for name in ("tau_grid", "tau_ev_grid"):
            grid = getattr(self, name)
            if grid is not None and not all(math.isfinite(x) for x in grid):
                raise ConfigError(f"{name.replace('_', '-')} entries must be finite")
            if grid is not None and len(grid) > 1 and not all(
                b > a for a, b in zip(grid, grid[1:])
            ):
                raise ConfigError(f"{name.replace('_', '-')} must be strictly increasing")
        try:
            self.spin_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def spin_params(self) -> SpinSystemParams:
        return SpinSystemParams(
            j_coupling=self.j,
            delta_shift=self.delta_ppm,
            b0=self.b0,
            gamma=self.gamma,
            temperature=self.temperature,
            t1=self.t1,
            ts=self.ts,
        )


_FLOAT_KEYS = {"tau", "tau_ev", "tau_prime", "j", "delta_ppm", "b0", "gamma",
               "temperature", "t1", "ts"}
_INT_KEYS = {"n_p", "n_steps"}
_GRID_KEYS = {"tau_grid", "tau_ev_grid"}
_STR_KEYS = {"mode", "out"}
_FILE_KEY_ALIASES = {"np": "n_p"}


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad grid value {text!r}: {exc}") from None


def read_config_file(path: str) -> dict:
    """Parse 'key = value' lines; '#' starts a comment."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, _, val = line.partition("=")
                key = key.strip().replace("-", "_")
                key = _FILE_KEY_ALIASES.get(key, key)
                val = val.strip()
                if key in _FLOAT_KEYS:
                    values[key] = float(val)
                elif key in _INT_KEYS:
                    values[key] = int(val)
                elif key in _GRID_KEYS:
                    values[key] = _parse_grid(val)
                elif key in _STR_KEYS:
                    values[key] = val
                else:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="key = value config file")
    common.add_argument("--mode", type=str, default=None,
                        help="engine: ideal | kinetic | coherent-check")
    common.add_argument("--np", dest="n_p", type=int, default=None,
                        help="number of permutations")
    common.add_argument("--tau", type=float, default=None, help="reset interval, s")
    common.add_argument("--tau-ev", dest="tau_ev", type=float, default=None,
                        help="post-pump evolution interval, s")
    common.add_argument("--tau-prime", dest="tau_prime", type=float, default=None,
                        help="final reset of the magnetization protocol, s")
    common.add_argument("--j", type=float, default=None, help="scalar coupling, Hz")
    common.add_argument("--delta-ppm", dest="delta_ppm", type=float, default=None,
                        help="chemical-shift difference, ppm")
    common.add_argument("--b0", type=float, default=None, help="static field, T")
    common.add_argument("--gamma", type=float, default=None,
                        help="magnetogyric ratio, rad/s/T")
    common.add_argument("--temperature", type=float, default=None, help="temperature, K")
    common.add_argument("--t1", type=float, default=None, help="Zeeman relaxation time, s")
    common.add_argument("--ts", type=float, default=None, help="singlet decay time, s")
    common.add_argument("--n-steps", dest="n_steps", type=int, default=None,
                        help="shaped-pulse integration steps")
    common.add_argument("--out", type=str, default=None, help="output CSV path (default stdout)")
    common.add_argument("--tau-grid", dest="tau_grid", type=str, default=None,
                        help="comma-separated reset durations, s")
    common.add_argument("--tau-ev-grid", dest="tau_ev_grid", type=str, default=None,
                        help="comma-separated evolution delays, s")

    parser = _Parser(prog="singletcool",
                     description="algorithmic cooling of a spin-1/2 pair via singlet order")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("pump", "singlet-order build-up versus permutation count"),
        ("sweep-tau", "signal versus triplet-reset duration"),
        ("decay", "signal versus post-pump evolution delay, with exponential fit"),
        ("enhance", "Zeeman-order enhancement from pumped singlet order"),
        ("coherent-check", "pulse-level diagnostics: spectrum, fidelities, robustness"),
    ):
        sub.add_parser(name, parents=[common], help=desc)
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config is not None:
        for key, value in read_config_file(args.config).items():
            setattr(config, key, value)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            if f.name in _GRID_KEYS and isinstance(value, str):
                value = _parse_grid(value)
            setattr(config, f.name, value)
    config.validate()
    return config


def _fmt(x) -> str:
    return repr(float(x))


def _population_params(config: RunConfig) -> tuple[SpinSystemParams, float]:
    """Spin parameters and eps for the population engines, which need 0 < |eps| < 1."""
    params = config.spin_params()
    with warnings.catch_warnings():
        # an eps out of range is a config error, not a high-temperature warning
        warnings.simplefilter("ignore")
        eps = epsilon(params)
    if not 0.0 < abs(eps) < 1.0:
        raise ConfigError(f"eps = {eps!r} must satisfy 0 < |eps| < 1 (gamma, b0, temperature)")
    return params, epsilon(params)


def cmd_pump(config: RunConfig) -> tuple[list[str], int]:
    """One row per permutation count from 0 to np."""
    if config.mode not in ("ideal", "kinetic"):
        raise ConfigError("pump requires mode ideal or kinetic")
    params, eps = _population_params(config)
    lines = []
    if config.mode == "ideal":
        lines.append("n_p,so,signal,closed_form_so")
        lines.append(SIGNAL_NOTE)
        # the pump for k permutations is a prefix of the pump for n_p
        deltas = protocol._pump(config.n_p, protocol.RESET0, eps * protocol.THERMAL_DEVIATION)
        for k, delta in enumerate(deltas):
            so = measure_order(PopulationVector(0.25 + delta), SINGLET_ORDER)
            sig = protocol.signal_from_singlet_order(so, eps)
            cf = protocol.closed_form_so(k, eps)
            lines.append(f"{k},{_fmt(so)},{_fmt(sig)},{_fmt(cf)}")
    else:
        lines.append("n_p,so,signal")
        lines.append(SIGNAL_NOTE)
        # the pump for k permutations is a prefix of the pump for n_p
        res = kinetics.run_kinetic(config.n_p, config.tau, config.tau_ev, params)
        for k, so_k in res.so_trace:
            sig = kinetics._detected_signal(so_k, eps, config.tau_ev, params.ts)
            so = sig * eps * np.sqrt(3.0) / 4.0  # detected SO behind the signal
            lines.append(f"{k},{_fmt(so)},{_fmt(sig)}")
    return lines, EXIT_OK


def cmd_sweep_tau(config: RunConfig) -> tuple[list[str], int]:
    if config.tau_grid is None:
        raise ConfigError("sweep-tau requires --tau-grid")
    if config.mode != "kinetic":
        raise ConfigError("sweep-tau runs on the kinetic engine (mode kinetic)")
    params, _ = _population_params(config)
    sweep = kinetics.sweep_tau(config.n_p, config.tau_grid, params)
    lines = ["tau,signal", SIGNAL_NOTE]
    lines += [f"{_fmt(tau)},{_fmt(sig)}" for tau, sig in sweep.points]
    lines.append(f"# optimum: tau_star = {_fmt(sweep.tau_star)}, "
                 f"signal_star = {_fmt(sweep.signal_star)}")
    return lines, EXIT_OK


def cmd_decay(config: RunConfig) -> tuple[list[str], int]:
    if config.tau_ev_grid is None:
        raise ConfigError("decay requires --tau-ev-grid")
    if len(config.tau_ev_grid) < 3:
        raise ConfigError("decay needs at least 3 grid points for the exponential fit")
    if config.mode != "kinetic":
        raise ConfigError("decay runs on the kinetic engine (mode kinetic)")
    params, _ = _population_params(config)
    curve = kinetics.decay_curve(config.n_p, config.tau, config.tau_ev_grid, params)
    fit = kinetics.fit_monoexponential(curve)
    lines = ["tau_ev,signal", SIGNAL_NOTE]
    lines += [f"{_fmt(tev)},{_fmt(sig)}" for tev, sig in curve]
    if fit.ok:
        rel = abs(fit.time_constant - config.ts) / config.ts
        lines.append(
            f"# fit: amplitude = {_fmt(fit.amplitude)}, "
            f"time_constant = {_fmt(fit.time_constant)}, "
            f"relative_deviation_from_ts = {_fmt(rel)}, status = ok"
        )
        return lines, EXIT_OK
    lines.append(f"# fit: status = failed ({fit.message})")
    return lines, EXIT_COMPUTE


def cmd_enhance(config: RunConfig) -> tuple[list[str], int]:
    if config.n_p % 2:
        raise ConfigError("enhance is defined for even permutation counts")
    if config.mode not in ("ideal", "kinetic"):
        raise ConfigError("enhance requires mode ideal or kinetic")
    params, eps = _population_params(config)
    zo_eq = eps / (2.0 * np.sqrt(2.0))
    if config.mode == "ideal":
        pumped = protocol.run_ideal(config.n_p, eps)
        enhanced = protocol.enhance_zeeman(pumped, eps)
        ratio = measure_order(enhanced, ZEEMAN_ORDER) / zo_eq
    else:
        ratio = kinetics.zeeman_enhancement_ratio(
            config.n_p, config.tau, config.tau_prime, params
        )
    lines = [
        "zo_ratio,spin_temperature_ratio",
        f"{_fmt(ratio)},{_fmt(1.0 / ratio)}",
    ]
    return lines, EXIT_OK


def cmd_coherent_check(config: RunConfig) -> tuple[list[str], int]:
    params = config.spin_params()
    lines = ["section,x,y"]
    spectrum = coherent.ab_spectrum(params)
    for freq, intensity in spectrum:
        lines.append(f"ab_line,{_fmt(freq)},{_fmt(intensity)}")
    freqs = sorted(freq for freq, _ in spectrum)
    lines.append(f"inner_splitting_hz,,{_fmt(freqs[2] - freqs[1])}")
    for kind in (protocol.Permutation.PI124, protocol.Permutation.PI142):
        _, fidelity = coherent.simulate_permutation(kind, params, n_steps=config.n_steps)
        lines.append(f"fidelity_{kind.value},,{_fmt(fidelity)}")
    for scale in np.linspace(0.7, 1.3, 13):
        overlap = coherent.magnetization_overlap(
            coherent.composite_pulse_propagator(+1, float(scale)), +1
        )
        lines.append(f"composite_overlap,{_fmt(scale)},{_fmt(overlap)}")
    return lines, EXIT_OK


_COMMANDS = {
    "pump": cmd_pump,
    "sweep-tau": cmd_sweep_tau,
    "decay": cmd_decay,
    "enhance": cmd_enhance,
    "coherent-check": cmd_coherent_check,
}


def _write(lines: list[str], out: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    # warnings are reported after the outcome, so that the stderr of a
    # failed run begins with its error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _run(argv)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


def _run(argv: Optional[Sequence[str]]) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = build_config(args)
        lines, code = _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:  # the engines' domain and self-checks
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    try:
        _write(lines, config.out)
    except OSError as exc:
        print(f"i/o error writing {config.out!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
