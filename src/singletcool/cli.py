"""Command line: protocol runs, parameter sweeps and CSV emission.

Every command writes deterministic CSV (first line a column header,
comment lines start with '#', floats at full double precision) to the
path given by --out, or stdout.  Exit codes: 0 success, 1 invalid
config, 2 computation/fit failure (a run too large to allocate included),
3 I/O failure.  An error goes to stderr as one line, followed by the run's
warnings as ``warning: ...`` lines.

Configuration is read from flags, or from a plain-text file of
``key = value`` lines given with --config ('#' comments allowed); flags
override file values.  Every flag is a config key, spelt in full with
underscores or dashes (``np`` or ``n_p``, ``tau-ev`` or ``tau_ev``); ``--key -v``
reads as ``--key=-v`` for a negative number in any float spelling.  Default
values regenerate the reference scenario of the bundled 13C2 spin pair.

In pump and enhance, --mode picks the library's population engine, ideal or
kinetic, and each command reads its rows off one checked pump of that engine.
The engines `kinetics` and `coherent` are imported on demand, and numpy with a
long grid or a pulse: pump and enhance run on Python floats in both modes, and so
do sweep-tau and decay on grids of up to 16 points, failures included; none of
them imports numpy.  A longer sweep-tau grid is pumped as one numpy stack, a
longer decay curve is fitted on numpy arrays, and coherent-check loads numpy.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from collections import namedtuple
from typing import Optional, Sequence

from . import protocol
from .core import SpinSystemParams, epsilon

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPUTE = 2
EXIT_IO = 3

SIGNAL_NOTE = "# signal of 1.0 = thermal-equilibrium signal of a 90-degree pulse"


class ConfigError(Exception):
    pass


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        # not a ValueError, so argparse passes it through from a flag's type=
        raise ConfigError(f"bad grid value {text!r}: {exc}") from None


#: The spin keys' defaults: the reference system of `SpinSystemParams`.
_SPIN = SpinSystemParams._field_defaults

#: Each run key once, as name: (default, text parser, help).  A key is read from its flag
#: (`_flag`) and from its config-file key by its parser.
_KEYS = {
    "mode": ("kinetic", str, "engine: ideal | kinetic"),
    "n_p": (6, int, "number of permutations"),
    "tau": (28.0, float, "reset interval, s"),
    "tau_ev": (0.0, float, "post-pump evolution interval, s"),
    "tau_prime": (18.0, float, "final reset of the magnetization protocol, s"),
    "j": (_SPIN["j_coupling"], float, "scalar coupling, Hz"),
    "delta_ppm": (_SPIN["delta_shift"], float, "chemical-shift difference, ppm"),
    "b0": (_SPIN["b0"], float, "static field, T"),
    "gamma": (_SPIN["gamma"], float, "magnetogyric ratio, rad/s/T"),
    "temperature": (_SPIN["temperature"], float, "temperature, K"),
    "t1": (_SPIN["t1"], float, "Zeeman relaxation time, s"),
    "ts": (_SPIN["ts"], float, "singlet decay time, s"),
    # coherent.DEFAULT_PULSE_STEPS, a literal as coherent is imported on demand
    "n_steps": (20000, int, "shaped-pulse integration steps"),
    "out": (None, str, "output CSV path (default stdout)"),
    "tau_grid": (None, _parse_grid, "comma-separated reset durations, s"),
    "tau_ev_grid": (None, _parse_grid, "comma-separated evolution delays, s"),
}


class RunConfig(namedtuple("RunConfig", _KEYS, defaults=[key[0] for key in _KEYS.values()])):
    """Merged run configuration (defaults < config file < flags): one field per row of
    `_KEYS`, with that row's default."""

    __slots__ = ()

    def validate(self) -> None:
        if self.mode not in ("ideal", "kinetic"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.n_p < 0:
            raise ConfigError("np must be >= 0")
        for name in ("tau", "tau_ev", "tau_prime"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
        if self.n_steps < 1:
            raise ConfigError("n-steps must be >= 1")
        try:
            for name in ("tau_grid", "tau_ev_grid"):
                grid = getattr(self, name)
                if grid is None:
                    continue
                flag = name.replace("_", "-")
                # the engines accept +inf, which no CLI grid may hold
                if not all(math.isfinite(x) for x in grid):
                    raise ConfigError(f"{flag} entries must be finite")
                from . import kinetics
                kinetics.check_grid(grid, flag)
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


def _flag(name: str) -> str:
    """The flag of a run key: dashes for underscores, and ``--np`` for ``n_p``."""
    return "--np" if name == "n_p" else "--" + name.replace("_", "-")


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
                name = "n_p" if key == "np" else key
                if name not in _KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[name] = _KEYS[name][1](val.strip())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise ConfigError(message)

    def _parse_optional(self, arg_string):
        # a negative number in any float spelling ("-2.7e7", "-inf") is a value,
        # so that "--key -v" reads as "--key=-v"; argparse alone knows only -1 and -.5
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _build_parser() -> _Parser:
    parser = _Parser(prog="singletcool", allow_abbrev=False,
                     description="algorithmic cooling of a spin-1/2 pair via singlet order")
    parser.add_argument("command", choices=_COMMANDS,
                        help="; ".join(f"{name}: {desc}" for name, (_, desc) in _COMMANDS.items()))
    parser.add_argument("--config", help="key = value config file")
    for name, (_, parse, text) in _KEYS.items():
        parser.add_argument(_flag(name), dest=name, type=parse, help=text)
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    """The run keys of the config file, then the flags given, over the defaults."""
    values = read_config_file(args.config) if args.config is not None else {}
    values.update((name, value) for name, value in vars(args).items()
                  if name in _KEYS and value is not None)
    config = RunConfig(**values)
    config.validate()
    return config


def _fmt(x) -> str:
    return repr(float(x))


def _population_params(config: RunConfig) -> SpinSystemParams:
    """The spin parameters of a population engine, which needs 0 < |eps| < 1 and no |eps|
    below `protocol.MIN_EPS`; the engine built from them warns of the regime."""
    params = config.spin_params()
    with warnings.catch_warnings():
        # an eps out of range is a config error, not a high-temperature warning
        warnings.simplefilter("ignore")
        eps = epsilon(params)
    if not 0.0 < abs(eps) < 1.0:
        raise ConfigError(f"eps = {eps!r} must satisfy 0 < |eps| < 1 (gamma, b0, temperature)")
    if abs(eps) < protocol.MIN_EPS:
        raise ConfigError(f"|eps| = {abs(eps)!r} is below 2**-1018 (gamma, b0, temperature)")
    return params


def _engine(config: RunConfig) -> protocol.PopulationEngine:
    """The population engine of --mode, with its eps."""
    params = _population_params(config)
    if config.mode == "ideal":
        return protocol.ideal_engine(epsilon(params))
    from . import kinetics
    return kinetics.kinetic_engine(params)


def cmd_pump(config: RunConfig) -> tuple[list[str], Optional[str]]:
    """One row per permutation count from 0 to np."""
    engine = _engine(config)
    eps, ideal = engine.eps, config.mode == "ideal"
    lines = ["n_p,so,signal" + (",closed_form_so" if ideal else ""), SIGNAL_NOTE]
    # the pump for k permutations is a prefix of the pump for n_p
    for k, delta in enumerate(engine.pump(config.n_p, config.tau)):
        sig = engine.signal(delta, config.tau_ev)
        so = sig * eps * math.sqrt(3.0) / 4.0  # detected SO behind the signal
        closed = f",{_fmt(protocol.closed_form_so(k, eps))}" if ideal else ""
        lines.append(f"{k},{_fmt(so)},{_fmt(sig)}{closed}")
    return lines, None


def cmd_sweep_tau(config: RunConfig) -> tuple[list[str], Optional[str]]:
    if config.tau_grid is None:
        raise ConfigError("sweep-tau requires --tau-grid")
    if config.mode != "kinetic":
        raise ConfigError("sweep-tau runs on the kinetic engine (mode kinetic)")
    params = _population_params(config)
    from . import kinetics
    sweep = kinetics.sweep_tau(config.n_p, config.tau_grid, params)
    lines = ["tau,signal", SIGNAL_NOTE]
    lines += [f"{_fmt(tau)},{_fmt(sig)}" for tau, sig in sweep.points]
    lines.append(f"# optimum: tau_star = {_fmt(sweep.tau_star)}, "
                 f"signal_star = {_fmt(sweep.signal_star)}")
    return lines, None


def cmd_decay(config: RunConfig) -> tuple[list[str], Optional[str]]:
    if config.tau_ev_grid is None:
        raise ConfigError("decay requires --tau-ev-grid")
    if len(config.tau_ev_grid) < 3:
        raise ConfigError("decay needs at least 3 grid points for the exponential fit")
    if config.mode != "kinetic":
        raise ConfigError("decay runs on the kinetic engine (mode kinetic)")
    params = _population_params(config)
    from . import kinetics
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
        return lines, None
    lines.append(f"# fit: status = failed ({fit.message})")
    return lines, f"exponential fit failed ({fit.message})"


def cmd_enhance(config: RunConfig) -> tuple[list[str], Optional[str]]:
    if config.n_p % 2:
        raise ConfigError("enhance is defined for even permutation counts")
    engine = _engine(config)
    ratio = engine.zeeman_ratio(engine.pump(config.n_p, config.tau)[-1], config.tau_prime)
    return ["zo_ratio,spin_temperature_ratio", f"{_fmt(ratio)},{_fmt(1.0 / ratio)}"], None


#: Largest step error of a reported fidelity that passes without a warning.
FIDELITY_STEP_TOL = 1e-5


def _fidelity_step_error(
    kind: protocol.Permutation, params: SpinSystemParams, n_steps: int, fidelity: float
) -> float:
    """Richardson estimate of the midpoint-rule error of ``fidelity``.

    The rule is second order, so a run at m ~ n/2 steps (2 for n = 1) gives
    |F(n) - F(m)| / |(n/m)^2 - 1|, which is |F(n) - F(n/2)| / 3 for even n.
    """
    from . import coherent
    m = 2 if n_steps == 1 else math.ceil(n_steps / 2)
    _, other = coherent.simulate_permutation(kind, params, n_steps=m)
    return abs(fidelity - other) / abs((n_steps / m) ** 2 - 1.0)


def cmd_coherent_check(config: RunConfig) -> tuple[list[str], Optional[str]]:
    import numpy as np

    from . import coherent  # imported on demand: no other command needs it
    params = config.spin_params()
    lines = ["section,x,y"]
    spectrum = coherent.ab_spectrum(params)
    for freq, intensity in spectrum:
        lines.append(f"ab_line,{_fmt(freq)},{_fmt(intensity)}")
    freqs = sorted(freq for freq, _ in spectrum)
    lines.append(f"inner_splitting_hz,,{_fmt(freqs[2] - freqs[1])}")
    step_error = 0.0
    for kind in (protocol.Permutation.PI124, protocol.Permutation.PI142):
        _, fidelity = coherent.simulate_permutation(kind, params, n_steps=config.n_steps)
        lines.append(f"fidelity_{kind.value},,{_fmt(fidelity)}")
        step_error = max(step_error, _fidelity_step_error(kind, params, config.n_steps, fidelity))
    if step_error > FIDELITY_STEP_TOL:
        warnings.warn(
            f"fidelity step error estimate {step_error:.1e} exceeds {FIDELITY_STEP_TOL:.0e} "
            f"at n-steps = {config.n_steps}; use a larger --n-steps"
        )
    for scale in np.linspace(0.7, 1.3, 13):
        overlap = coherent.magnetization_overlap(
            coherent.composite_pulse_propagator(+1, float(scale)), +1
        )
        lines.append(f"composite_overlap,{_fmt(scale)},{_fmt(overlap)}")
    return lines, None


#: Each command and its help.  A command returns its CSV lines and the message of a failure
#: whose rows are still written, or None.
_COMMANDS = {
    "pump": (cmd_pump, "singlet-order build-up versus permutation count"),
    "sweep-tau": (cmd_sweep_tau, "signal versus triplet-reset duration"),
    "decay": (cmd_decay, "signal versus post-pump evolution delay, with exponential fit"),
    "enhance": (cmd_enhance, "Zeeman-order enhancement from pumped singlet order"),
    "coherent-check": (cmd_coherent_check,
                       "pulse-level diagnostics: spectrum, fidelities, robustness"),
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
        lines, error = _COMMANDS[args.command][0](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, MemoryError) as exc:  # domain, self-checks, an unallocatable pump
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    try:
        _write(lines, config.out)
    except OSError as exc:
        print(f"i/o error writing {config.out!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    if error is not None:  # a failure whose rows are still written, as decay's failed fit
        print(f"computation failed: {error}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
