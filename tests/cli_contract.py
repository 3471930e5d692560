"""The command-line contract as one table, run in process or as processes.

Each `Case` is a command line, its exit code, one regular expression per
stderr line (each must match its whole line, so there are exactly as many
lines as patterns) and a check of the stdout lines; a case without a check
must print nothing to stdout.  Two runners run the table:

- `run_in_process` calls `singletcool.cli.main` with stdout and stderr
  captured; tests/test_cli.py runs every case this way;
- `run_as_process` starts ``python -m singletcool.cli`` once per case:

      python3 tests/cli_contract.py   # every case as a process; exit 1 on any miss

singletcool must be importable (installed, or on PYTHONPATH).  The rows that
read a line by position are the ones a new output layout has to keep: the
headers perfbench/workloads.py expects, the `enhance` row at lines[1], and the
`sweep-tau` optimum and the `decay` fit summary at lines[-1].
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from typing import Callable, NamedTuple, Optional


class Result(NamedTuple):
    code: int
    out: str
    err: str


Run = Callable[[str], Result]
#: A check of the stdout lines; ``run`` runs another command line the same way.
Check = Callable[[list[str], Run], bool]


class Case(NamedTuple):
    argv: str  # split on whitespace
    code: int
    stderr: tuple[str, ...] = ()
    stdout: Optional[Check] = None


def run_in_process(argv: str) -> Result:
    from singletcool.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    return Result(code, out.getvalue(), err.getvalue())


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on the singletcool package this one imports."""
    env = dict(os.environ)
    spec = importlib.util.find_spec("singletcool")
    if spec is not None:
        src = os.path.dirname(os.path.abspath(spec.submodule_search_locations[0]))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def run_as_process(argv: str) -> Result:
    proc = run_python("-m", "singletcool.cli", *argv.split())
    return Result(proc.returncode, proc.stdout, proc.stderr)


def misses(case: Case, run: Run) -> list[str]:
    """How the outcome of ``case`` under ``run`` departs from the case; empty if it holds."""
    got = run(case.argv)
    found = []
    if got.code != case.code:
        found.append(f"exit code {got.code}, expected {case.code}")
    err = got.err.splitlines()
    if len(err) != len(case.stderr) or not all(map(re.fullmatch, case.stderr, err)):
        found.append(f"stderr {err}, expected lines matching {list(case.stderr)}")
    lines = got.out.splitlines()
    try:
        ok = case.stdout(lines, run) if case.stdout else lines == []
    except (LookupError, ValueError):  # a missing line or cell, or an unparsable one
        ok = False
    if not ok:
        found.append(f"stdout fails its check: {lines[:3]} ... {lines[-2:]}")
    return found


# --- stdout checks -----------------------------------------------------------


def _rows(lines: list[str], header: str, count: int, last: str = ".*") -> list[list[float]]:
    """The data rows below ``header`` as floats; ValueError unless there are ``count``
    of them and the last line matches ``last``."""
    data = [[float(x) for x in ln.split(",")] for ln in lines[1:] if not ln.startswith("#")]
    if lines[0] != header or len(data) != count or not re.fullmatch(last, lines[-1]):
        raise ValueError(f"not {count} rows under {header!r} ending in {last!r}")
    return data


def table(header: str, count: int, last: str = ".*") -> Check:
    return lambda lines, run: bool(_rows(lines, header, count, last))


def optimum(tau: str) -> str:
    """The `sweep-tau` summary line (perfbench reads it) at grid point ``tau``."""
    return rf"# optimum: tau_star = {re.escape(tau)}, signal_star = \S+"


def fitted(count: int) -> Check:
    """A `decay` curve of ``count`` rows whose fit summary recovers TS = 214 s within 2 %."""
    fit = (r"# fit: amplitude = \S+, time_constant = (\S+), "
           r"relative_deviation_from_ts = \S+, status = ok")

    def check(lines, run):
        _rows(lines, "tau_ev,signal", count, fit)
        return abs(float(re.fullmatch(fit, lines[-1])[1]) - 214.0) <= 0.02 * 214.0

    return check


def enhanced(ratio: float, rel: float) -> Check:
    """The `enhance` table: one row, at lines[1], of the ZO ratio and the spin
    temperature ratio, within ``rel`` of ``ratio`` and 1/``ratio``."""

    def check(lines, run):
        ((zo, temp),) = _rows(lines, "zo_ratio,spin_temperature_ratio", 1)
        return (len(lines) == 2 and abs(zo - ratio) <= rel * ratio
                and abs(temp - 1 / ratio) <= rel / ratio)

    return check


def same_as(argv: str) -> Check:
    """The stdout of ``argv``, which exits 0 with nothing on stderr."""

    def check(lines, run):
        other = run(argv)
        return other.code == 0 and other.err == "" and other.out.splitlines() == lines

    return check


_REPORT = ["ab_line"] * 4 + ["inner_splitting_hz", "fidelity_pi124", "fidelity_pi142"] \
    + ["composite_overlap"] * 13


def report(fidelity_ok: Callable[[float], bool]) -> Check:
    """The `coherent-check` report of the reference system: its sections in order, an AB
    inner splitting of 0.92 Hz, a composite pulse exact at amplitude scale 1, and two
    fidelities that pass ``fidelity_ok``."""

    def check(lines, run):
        cells = {}
        for ln in lines[1:]:
            section, x, y = ln.split(",")
            cells[section, x] = float(y)
        return (lines[0] == "section,x,y"
                and [ln.split(",")[0] for ln in lines[1:]] == _REPORT
                and abs(cells["inner_splitting_hz", ""] - 0.92) <= 5e-3
                and abs(cells["composite_overlap", "1.0"] - 1.0) <= 1e-6
                and all(fidelity_ok(cells[f"fidelity_{k}", ""]) for k in ("pi124", "pi142")))

    return check


def _ideal_build_up(lines, run):
    # the signal alternates in sign and grows in magnitude; each SO cell is its closed form
    rows = _rows(lines, "n_p,so,signal,closed_form_so", 13)
    sig = [row[2] for row in rows]
    return (sig[0] == 0.0
            and all(abs(a) < abs(b) for a, b in zip(sig, sig[1:]))
            and all((s > 0) == (k % 2 == 0) for k, s in enumerate(sig) if k)
            and all(abs(so - cf) <= 1e-15 for _, so, _, cf in rows))


def _kinetic_plateau(lines, run):
    # row 0 pumps nothing; six permutations reach the plateau
    mag = [abs(row[2]) for row in _rows(lines, "n_p,so,signal", 13)]
    first = next(ln for ln in lines[1:] if not ln.startswith("#"))
    return first == "0,0.0,0.0" and mag[6] > 0.85 and abs(mag[12] - mag[6]) < 0.005 * mag[12]


def _reset_optimum(lines, run):
    sig = [s for _, s in _rows(lines, "tau,signal", 7, optimum("28.0"))]
    return sig[0] < sig[3] > sig[6]  # tau = 0.1 s and 240 s fall below 28 s


# --- stderr lines --------------------------------------------------------------


def config_error(message: str) -> str:
    return re.escape(f"config error: {message}")


def failure(message: str) -> str:
    return re.escape(f"computation failed: {message}")


def high_temperature(eps: str) -> str:
    return re.escape(f"warning: eps = {eps} is outside the high-temperature regime; "
                     "first-order population algebra may be inaccurate")


def step_error(estimate: str, n_steps: int) -> str:
    """``estimate`` is a regex for the step error estimate in %.1e."""
    return (rf"warning: fidelity step error estimate {estimate} exceeds 1e-05 "
            rf"at n-steps = {n_steps}; use a larger --n-steps")


EPS_DOMAIN = "must satisfy 0 < |eps| < 1 (gamma, b0, temperature)"
EPS_RANGE = r"config error: eps = \S+ " + re.escape(EPS_DOMAIN)
EPS_FLOOR = r"config error: \|eps\| = \S+ is below 2\*\*-1018 \(gamma, b0, temperature\)"
NO_MEMORY = r"computation failed: Unable to allocate .*"
HUGE_NP = "--np 10000000000000000"  # 1e16 rows of 32 bytes exceed any address space
FINITE_OVERFLOW = failure("step norm of a finite Hamiltonian overflows (theta = inf)")
NOMINAL_FIDELITY = 0.7081651662

CASES = [
    # successful runs, each with the header perfbench/workloads.py expects
    Case("pump --mode ideal --np 2", 0, (), table("n_p,so,signal,closed_form_so", 3)),
    Case("pump --mode kinetic --np 2", 0, (), table("n_p,so,signal", 3)),
    Case("pump --mode ideal --np 12", 0, (), _ideal_build_up),
    Case("pump --mode kinetic --np 12 --tau 28", 0, (), _kinetic_plateau),
    # walks to the exact 2-cycle and fills the remaining rows
    Case("pump --mode kinetic --np 200 --tau 20", 0, (), table("n_p,so,signal", 201)),
    # TS/T1 ~ 1.4e11: the closed-form rates calibrate any 0 < T1 < TS
    Case("pump --ts 1e12", 0, (), table("n_p,so,signal", 7)),
    Case("sweep-tau --np 4 --tau-grid 1,10,100", 0, (), table("tau,signal", 3, optimum("10.0"))),
    # n_p = 0 on a stack of maps: state 0 alone, one row per grid point
    Case("sweep-tau --np 0 --tau-grid 1,10,100", 0, (), table("tau,signal", 3, optimum("1.0"))),
    Case("sweep-tau --np 6 --tau-grid 0.1,1,10,28,60,120,240", 0, (), _reset_optimum),
    Case("decay --np 4 --tau 20 --tau-ev-grid 0,50,100,200", 0, (), fitted(4)),
    Case("decay --np 6 --tau 28 --tau-ev-grid " + ",".join(str(40 * k) for k in range(16)),
         0, (), fitted(16)),
    # n_p = 0 pumps nothing: a constant curve fails its fit, on stdout, stderr and in the
    # exit code
    Case("decay --np 0 --tau-ev-grid 0,50,100", 2,
         (failure("exponential fit failed (constant data)"),),
         table("tau_ev,signal", 3, re.escape("# fit: status = failed (constant data)"))),
    Case("enhance --mode ideal --np 2", 0, (), enhanced(25 / 18, 1e-15)),
    Case("enhance --mode kinetic --np 2", 0, (), enhanced(1.2503684885290405, 1e-9)),
    Case("enhance --mode ideal --np 40", 0, (), enhanced(1.5, 1e-15)),
    # the paper's protocol: 6 permutations, tau = 28 s, tau' = 18 s
    Case("enhance --mode kinetic --np 6 --tau 28 --tau-prime 18", 0, (),
         enhanced(1.350098140870527, 1e-9)),
    # a negative value in exponent notation may follow its flag after a space
    Case("enhance --gamma=-2.7126e7", 0, (), enhanced(1.350098140870527, 1e-9)),
    Case("enhance --gamma -2.7126e7", 0, (), same_as("enhance --gamma=-2.7126e7")),
    # the nominal fidelities at the default 20000 steps, end to end through the step kernel
    Case("coherent-check", 0, (),
         report(lambda f: abs(f - NOMINAL_FIDELITY) <= 1e-9 * NOMINAL_FIDELITY)),
    Case("coherent-check --n-steps 600", 0, (), report(lambda f: 0.5 < f <= 1.0)),
    # too few steps: a warning that names the step error, with the rows and exit code kept
    Case("coherent-check --n-steps 300", 0, (step_error(r"1\.4e-05", 300),),
         report(lambda f: 0.5 < f <= 1.0)),
    # an estimate above 0.1: the converged fidelity is 0.708
    Case("coherent-check --n-steps 1", 0,
         (step_error(r"(?:(?:1\.[1-9]|[2-9]\.\d)e-01|\d\.\de\+\d\d)", 1),),
         report(lambda f: f < 0.1)),
    # coherent-check needs no polarization
    Case("coherent-check --gamma 0 --n-steps 200", 0, (step_error(r"1\.1e-05", 200),),
         lambda lines, run: lines[0] == "section,x,y"),

    # config errors: exit 1, one stderr line, nothing on stdout
    *(Case(f"{command} --mode coherent-check", 1, (config_error("unknown mode 'coherent-check'"),))
      for command in ("pump", "sweep-tau", "decay", "enhance", "coherent-check")),
    Case("pump --frequency 3", 1, (config_error("unrecognized arguments: --frequency 3"),)),
    # flags are not abbreviated, as config-file keys are not
    Case("enhance --temp 300", 1, (config_error("unrecognized arguments: --temp 300"),)),
    Case("sweep-tau --np 6", 1, (config_error("sweep-tau requires --tau-grid"),)),
    Case("sweep-tau --np 6 --tau-grid 10,5,1", 1,
         (config_error("tau-grid must be strictly increasing"),)),
    Case("decay --np 6 --tau-ev-grid 10.0", 1,
         (config_error("decay needs at least 3 grid points for the exponential fit"),)),
    Case("enhance --mode ideal --np 5", 1,
         (config_error("enhance is defined for even permutation counts"),)),
    *(Case(f"pump --tau {value}", 1, (config_error("tau must be finite and >= 0"),))
      for value in ("-3", "-inf", "-3e0", "-.5E+1")),
    *(Case(argv, 1, (config_error(message),)) for argv, message in [
        ("enhance --tau nan", "tau must be finite and >= 0"),
        ("enhance --tau-prime nan", "tau_prime must be finite and >= 0"),
        ("pump --j nan", "j_coupling must be finite, got nan"),
        ("pump --temperature nan", "temperature must be finite, got nan"),
        ("pump --gamma inf", "gamma must be finite, got inf"),
        ("pump --ts inf", "ts must be finite, got inf"),
        ("pump --b0 nan", "b0 must be finite, got nan"),
        ("pump --tau-ev inf", "tau_ev must be finite and >= 0"),
        ("coherent-check --n-steps 0", "n-steps must be >= 1"),
        ("sweep-tau --tau-grid nan", "tau-grid entries must be finite"),
        # grids out of the engines' domain
        ("sweep-tau --tau-grid=-1,2", "tau-grid entries must be >= 0"),
        ("decay --tau-ev-grid=-5,0,10", "tau-ev-grid entries must be >= 0"),
        ("sweep-tau --tau-grid=,", "tau-grid must be nonempty"),
    ]),
    # the population engines need 0 < |eps| < 1; the config error comes with no warning
    *(Case(argv, 1, (config_error(f"eps = 0.0 {EPS_DOMAIN}"),)) for argv in (
        "pump --gamma 0", "enhance --gamma 0", "sweep-tau --gamma 0 --tau-grid 1,10",
        "decay --gamma 0 --tau-ev-grid 0,50,100",
    )),
    Case("pump --mode ideal --temperature 1e-25", 1, (EPS_RANGE,)),
    Case("pump --temperature 1e-25", 1, (EPS_RANGE,)),
    # k_B*T underflows to 0, so eps is infinite
    Case("enhance --temperature 1e-308", 1, (config_error(f"eps = inf {EPS_DOMAIN}"),)),
    # eps ~ 1e-323: its deviations would be subnormal, and the run wrong or infinite
    *(Case(argv, 1, (EPS_FLOOR,)) for argv in (
        "enhance --gamma 6.7e-14 --temperature 1e300",
        "enhance --gamma 6.7e-13 --temperature 1e300",
        "pump --mode ideal --np 2 --gamma 6.7e-13 --temperature 1e300",
        "sweep-tau --tau-grid 1,10 --gamma -6.7e-13 --temperature 1e300",
    )),

    # computation failures: exit 2, one stderr line, then the run's warnings
    # eps ~ 0.7 and 0.995 pass the eps check, but the first-order pumps leave the simplex
    *(Case(argv, 2, (failure(f"negative population {population} beyond tolerance"),
                     high_temperature(eps)))
      for argv, population, eps in [
          ("pump --mode ideal --temperature 0.012 --np 30", "-4.403e-03", "0.705"),
          ("enhance --mode ideal --temperature 0.012 --np 30", "-4.403e-03", "0.705"),
          ("pump --mode ideal --temperature 0.0085", "-1.092e-01", "0.995"),
          ("pump --mode kinetic --temperature 0.0085", "-8.746e-02", "0.995"),
          ("sweep-tau --tau-grid 1,28 --temperature 0.0085", "-8.746e-02", "0.995"),
          ("enhance --mode kinetic --temperature 0.0085", "-8.746e-02", "0.995"),
          # tau = 100 s: the last pumped state is on the simplex, but rows 3 and 5 are not
          ("pump --mode kinetic --temperature 0.0085 --tau 100", "-6.144e-02", "0.995"),
          ("enhance --mode kinetic --temperature 0.0085 --tau 100 --np 6", "-6.144e-02", "0.995"),
      ]),
    *(Case(f"{argv} {HUGE_NP}", 2, (NO_MEMORY,)) for argv in (
        "pump", "pump --mode ideal", "enhance", "sweep-tau --tau-grid 1,2,3",
        "decay --tau-ev-grid 0,50,100",
    )),
    # a relaxation rate 1/t1 that overflows is named before any pump
    *(Case(f"pump --t1 {t1} --ts {ts}", 2,
           (failure(f"relaxation rate 1/t1 = inf: t1 = {t1} is too small"),))
      for t1, ts in (("1e-320", "1"), ("5e-324", "1e-323"))),
    # ... and followed by the regime warning of its eps
    Case("enhance --t1 1e-320 --ts 1 --temperature 0.5", 2,
         (failure("relaxation rate 1/t1 = inf: t1 = 1e-320 is too small"),
          high_temperature("0.0169"))),
    # an infinite spin frequency is named before any step
    Case("coherent-check --j 1e308 --n-steps 10", 2,
         (failure("non-finite frequency 2*pi*J = inf rad/s"),)),
    # finite frequencies whose step norm overflows float64, with no numpy warning
    Case("coherent-check --j 1e200 --n-steps 10", 2, (FINITE_OVERFLOW,)),
    Case("coherent-check --b0 1e250 --n-steps 10", 2, (FINITE_OVERFLOW,)),
]


if __name__ == "__main__":
    if importlib.util.find_spec("singletcool") is None:
        sys.exit("singletcool is not importable: install it, or set PYTHONPATH=src")
    total = 0
    for case in CASES:
        for miss in misses(case, run_as_process):
            print(f"{case.argv}: {miss}")
            total += 1
    print(f"{len(CASES)} cases as processes, {total} misses")
    sys.exit(1 if total else 0)
