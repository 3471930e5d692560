"""The three benchmark workloads: inputs drawn from a seed, one op, its oracle.

Every workload is a closed loop with one client.  Op i of a run takes
its inputs from a random stream seeded by (seed, i // BLOCK, i % BLOCK).
Size parameters are stratified inside each block of BLOCK ops (one value
per stratum, in seed-shuffled order), so that every run covers the same
spread of sizes while no two seeds share inputs; this keeps medians
steady across seeds without fixing the data.

Each workload offers:

* ``spec(i)``: the inputs of op i (drawn outside the timed region);
* ``run(spec, call)``: the op itself, the only timed code;
* ``check(spec, out)``: a list of (layer, message) oracle misses;
* ``perturb(out)``: a copy of an output with one value knocked off by
  more than every tolerance, used by the oracle self-check.

``call(name, fn, *args)`` is how an op calls into the package: untraced
it is a plain call, traced it records a span.
"""

from __future__ import annotations

import contextlib
import io
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
import model

#: Fidelity of the bundled pulse sequence at its nominal 0.36 s duration and
#: 20000 steps, the engine regression value the test suite pins (rel 1e-5).
NOMINAL_FIDELITY = 0.7081651662
NOMINAL_STEPS = 20000
#: Carrier offset (Hz) of the bundled shape for each permutation.
NOMINAL_OFFSET = {"pi124": -35.0, "pi142": 35.0}


def _rel_miss(got, want, rel: float, floor: float = 0.0) -> float:
    """Largest |got - want| beyond rel*max(|want|, floor); 0 when within."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    excess = np.abs(got - want) - rel * np.maximum(np.abs(want), floor)
    return float(max(excess.max(initial=0.0), 0.0)) if np.all(np.isfinite(got)) else math.inf


class Draw:
    """Seeded draws for op i, with sizes stratified across its block."""

    def __init__(self, seed: int, i: int, block: int, stratified: tuple[str, ...]):
        b, pos = divmod(i, block)
        block_rng = np.random.default_rng([seed, b])
        self._stratum = {name: int(block_rng.permutation(block)[pos]) for name in stratified}
        self._block = block
        self.rng = np.random.default_rng([seed, b, pos])
        self.block_index = b

    def uniform(self, lo: float, hi: float) -> float:
        return float(self.rng.uniform(lo, hi))

    def log_uniform(self, lo: float, hi: float) -> float:
        return float(math.exp(self.rng.uniform(math.log(lo), math.log(hi))))

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return int(self.rng.integers(lo, hi + 1))

    def slot(self, name: str) -> int:
        """This op's stratum of `name`: each of 0..block-1 once per block."""
        return self._stratum[name]

    def strat(self, name: str, lo: float, hi: float) -> float:
        """Uniform inside this op's stratum of [lo, hi]."""
        u = (self._stratum[name] + self.rng.random()) / self._block
        return lo + u * (hi - lo)


def jittered_grid(draw: Draw, lo: float, hi: float, n: int, log: bool) -> list[float]:
    """n strictly increasing points spanning [lo, hi], each moved inside its cell."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    cell = (b - a) / n
    pts = a + cell * (np.arange(n) + draw.rng.uniform(0.0, 1.0, n))
    return [float(x) for x in (np.exp(pts) if log else pts)]


def draw_system(draw: Draw) -> dict:
    """A spin system inside the validated domain (0 < T1 < TS, eps << 0.01)."""
    t1 = draw.log_uniform(2.0, 20.0)
    return dict(
        t1=t1,
        ts=t1 * draw.log_uniform(8.0, 60.0),
        j=draw.uniform(20.0, 200.0),
        b0=draw.uniform(5.0, 23.5),
    )


class _Base:
    BLOCK = 8
    STRATIFIED: tuple[str, ...] = ()
    in_process = True

    def __init__(self, seed: int, src: Path, pkg):
        self.seed = seed
        self.src = src
        self.pkg = pkg

    def draw(self, i: int) -> Draw:
        return Draw(self.seed, i, self.BLOCK, self.STRATIFIED)

    def check_run(self, specs, outs) -> list[tuple[str, str]]:
        """Checks that relate ops of one run to each other; none by default."""
        return []


# --- cli-session -----------------------------------------------------------

CLI_KINDS = ("pump-ideal", "pump-kinetic", "sweep-tau", "decay", "enhance-ideal", "enhance-kinetic")
CLI_HEADERS = {
    "pump-ideal": "n_p,so,signal,closed_form_so",
    "pump-kinetic": "n_p,so,signal",
    "sweep-tau": "tau,signal",
    "decay": "tau_ev,signal",
    "enhance-ideal": "zo_ratio,spin_temperature_ratio",
    "enhance-kinetic": "zo_ratio,spin_temperature_ratio",
}
#: Relative tolerance on the fitted TS, the one tests/test_cli.py uses.
DECAY_TS_REL = 2e-2


@dataclass
class CliSpec:
    kind: str
    argv: list
    system: dict
    n_p: int
    tau: float = 0.0
    tau_prime: float = 0.0
    grid: list = field(default_factory=list)


@dataclass
class CliOut:
    code: int
    text: str


class CliSession(_Base):
    """One fresh `python -m singletcool.cli` process per op."""

    BLOCK = len(CLI_KINDS)
    STRATIFIED = ("kind",)
    in_process = False

    def __init__(self, seed, src, pkg, env=None, traced=False):
        super().__init__(seed, src, pkg)
        self.env = env
        self.traced = traced

    def spec(self, i: int) -> CliSpec:
        d = self.draw(i)
        kind = CLI_KINDS[d.slot("kind")]
        sysd = draw_system(d)
        t1, ts = sysd["t1"], sysd["ts"]
        common = ["--j", repr(sysd["j"]), "--b0", repr(sysd["b0"]),
                  "--t1", repr(t1), "--ts", repr(ts)]
        tau = d.uniform(1.5, 5.0) * t1
        if kind == "pump-ideal":
            n = d.integer(6, 40)
            argv = ["pump", "--mode", "ideal", "--np", str(n)]
            return CliSpec(kind, argv + common, sysd, n)
        if kind == "pump-kinetic":
            n = d.integer(6, 200)
            argv = ["pump", "--mode", "kinetic", "--np", str(n), "--tau", repr(tau)]
            return CliSpec(kind, argv + common, sysd, n, tau)
        if kind == "sweep-tau":
            n = d.integer(4, 10)
            grid = jittered_grid(d, t1 / 20.0, 30.0 * t1, 8, log=True)
            argv = ["sweep-tau", "--np", str(n), "--tau-grid", ",".join(map(repr, grid))]
            return CliSpec(kind, argv + common, sysd, n, grid=grid)
        if kind == "decay":
            n = d.integer(4, 12)
            grid = [0.0] + jittered_grid(d, 0.0, d.uniform(1.0, 3.0) * ts, d.integer(5, 15),
                                         log=False)[1:]
            argv = ["decay", "--np", str(n), "--tau", repr(tau),
                    "--tau-ev-grid", ",".join(map(repr, grid))]
            return CliSpec(kind, argv + common, sysd, n, tau, grid=grid)
        n = 2 * d.integer(1, 20)
        if kind == "enhance-ideal":
            return CliSpec(kind, ["enhance", "--mode", "ideal", "--np", str(n)] + common, sysd, n)
        tp = d.uniform(1.0, 4.0) * t1
        argv = ["enhance", "--mode", "kinetic", "--np", str(n), "--tau", repr(tau),
                "--tau-prime", repr(tp)]
        return CliSpec(kind, argv + common, sysd, n, tau, tp)

    def run(self, spec: CliSpec, call) -> CliOut:
        if self.traced:
            # spans cannot cross a process boundary: the traced run calls
            # cli.main in process, with stdout captured
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = call("cli.main", self.pkg.cli.main, spec.argv)
            return CliOut(code, buf.getvalue())
        proc = hostspeed.run_child(
            [sys.executable, "-m", "singletcool.cli", *spec.argv], env=self.env,
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
        )
        return CliOut(proc.returncode, proc.stdout)

    def check(self, spec: CliSpec, out: CliOut) -> list[tuple[str, str]]:
        miss = []
        if out.code != 0:
            return [("cli", f"{spec.kind}: exit code {out.code}")]
        lines = out.text.splitlines()
        if not lines or lines[0] != CLI_HEADERS[spec.kind]:
            return [("cli", f"{spec.kind}: header {lines[:1]!r}")]
        try:
            rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]
                             if not ln.startswith("#")], dtype=float)
        except ValueError as exc:
            return [("cli", f"{spec.kind}: unparsable row ({exc})")]
        sysd = spec.system
        t1, ts = sysd["t1"], sysd["ts"]
        expect_rows = {"pump-ideal": spec.n_p + 1, "pump-kinetic": spec.n_p + 1,
                       "sweep-tau": len(spec.grid), "decay": len(spec.grid)}.get(spec.kind, 1)
        if rows.shape[0] != expect_rows:
            return [("cli", f"{spec.kind}: {rows.shape[0]} rows, expected {expect_rows}")]

        def cmp(layer, what, got, want, rel=1e-9, floor=1e-3):
            excess = _rel_miss(got, want, rel, floor)
            if excess:
                miss.append((layer, f"{spec.kind}: {what} off by {excess:.3e}"))

        ks = np.arange(spec.n_p + 1)
        if spec.kind == "pump-ideal":
            # the so column equals closed_form_so to the test suite's 1e-15
            gap = float(np.max(np.abs(rows[:, 1] - rows[:, 3])))
            if not gap <= 1e-15:
                miss.append(("protocol", f"pump-ideal: so differs from closed_form_so by {gap:.3e}"))
            # the ideal engine carries populations as 0.25 + delta, so its
            # normalised signal has an absolute round-off of ~ulp(0.25)/eps
            ideal = [model.signal(model.ideal_pump(int(k))[0]) for k in ks]
            cmp("protocol", "signal", rows[:, 2], ideal, floor=0.1)
        elif spec.kind == "pump-kinetic":
            a, b = model.decay_factors(spec.tau, t1, ts)
            _, trace = model.pump(spec.n_p, a, b)
            cmp("kinetics", "signal", rows[:, 2], math.sqrt(2.0 / 3.0) * trace / model.ZO_EQ)
        elif spec.kind == "sweep-tau":
            cmp("kinetics", "signal", rows[:, 1], model.kinetic_signal(spec.n_p, spec.grid, 0.0, t1, ts))
            optimum = [ln for ln in lines if ln.startswith("# optimum:")]
            if not optimum:
                miss.append(("cli", "sweep-tau: no optimum line"))
        elif spec.kind == "decay":
            cmp("kinetics", "signal", rows[:, 1],
                model.kinetic_signal(spec.n_p, spec.tau, spec.grid, t1, ts))
            fit = [ln for ln in lines if ln.startswith("# fit:")]
            if not fit or "status = ok" not in fit[0]:
                miss.append(("kinetics", f"decay: fit not ok ({fit[:1]!r})"))
            else:
                t_fit = float(fit[0].split("time_constant = ")[1].split(",")[0])
                if abs(t_fit - ts) > DECAY_TS_REL * ts:
                    miss.append(("kinetics", f"decay: fitted TS {t_fit} vs {ts}"))
        else:
            want = (model.ideal_zo_ratio(spec.n_p) if spec.kind == "enhance-ideal"
                    else model.kinetic_zo_ratio(spec.n_p, spec.tau, spec.tau_prime, t1, ts))
            cmp("kinetics", "zo_ratio", rows[0, 0], want)
            cmp("cli", "spin_temperature_ratio", rows[0, 1], 1.0 / want)
        return miss

    def perturb(self, out: CliOut) -> CliOut:
        lines = out.text.splitlines()
        for k, ln in enumerate(lines[1:], start=1):
            if not ln.startswith("#"):
                cells = ln.split(",")
                cells[-1] = repr(float(cells[-1]) * (1.0 + 1e-4) + 1e-3)
                lines[k] = ",".join(cells)
                break
        return CliOut(out.code, "\n".join(lines) + "\n")


# --- kinetic-scan ----------------------------------------------------------


@dataclass
class ScanSpec:
    system: dict
    sweep_np: int
    sweep_grid: list
    decay_np: int
    tau: float
    decay_grid: list
    pump_np: int
    tau_ev: float
    tau_prime: float
    zeeman_np: int
    ideal_np: int


class KineticScan(_Base):
    """A full in-process analysis of one seed-drawn spin system."""

    STRATIFIED = ("sweep_points", "decay_points", "pump_np")

    def spec(self, i: int) -> ScanSpec:
        d = self.draw(i)
        sysd = draw_system(d)
        t1, ts = sysd["t1"], sysd["ts"]
        n_sweep = int(d.strat("sweep_points", 160, 320))
        n_decay = int(d.strat("decay_points", 160, 320))
        decay_grid = [0.0] + jittered_grid(d, 0.0, d.uniform(1.0, 3.0) * ts, n_decay, log=False)[1:]
        return ScanSpec(
            system=sysd,
            sweep_np=d.integer(4, 8),
            sweep_grid=jittered_grid(d, t1 / 50.0, 20.0 * t1, n_sweep, log=True),
            decay_np=d.integer(4, 8),
            tau=d.uniform(1.5, 5.0) * t1,
            decay_grid=decay_grid,
            pump_np=int(d.strat("pump_np", 100, 300)),
            tau_ev=d.uniform(0.0, 0.5) * ts,
            tau_prime=d.uniform(1.0, 4.0) * t1,
            zeeman_np=2 * d.integer(1, 10),
            ideal_np=d.integer(1, 60),
        )

    def params(self, spec: ScanSpec):
        s = spec.system
        return self.pkg.SpinSystemParams(j_coupling=s["j"], b0=s["b0"], t1=s["t1"], ts=s["ts"])

    def run(self, spec: ScanSpec, call) -> dict:
        kin, pro, core = self.pkg.kinetics, self.pkg.protocol, self.pkg.core
        params = self.params(spec)
        sweep = call("kinetics.sweep_tau", kin.sweep_tau, spec.sweep_np, spec.sweep_grid, params)
        curve = call("kinetics.decay_curve", kin.decay_curve, spec.decay_np, spec.tau,
                     spec.decay_grid, params)
        fit = call("kinetics.fit_monoexponential", kin.fit_monoexponential, curve)
        pump = call("kinetics.run_kinetic", kin.run_kinetic, spec.pump_np, spec.tau, spec.tau_ev,
                    params, enhance=True, tau_prime=spec.tau_prime)
        ratio = call("kinetics.zeeman_enhancement_ratio", kin.zeeman_enhancement_ratio,
                     spec.zeeman_np, spec.tau, spec.tau_prime, params)
        eps = core.epsilon(params)
        ideal = call("protocol.run_ideal", pro.run_ideal, spec.ideal_np, eps)
        return dict(
            eps=eps,
            sweep=[s for _, s in sweep.points],
            tau_star=sweep.tau_star,
            decay=[s for _, s in curve],
            fit=(fit.ok, fit.amplitude, fit.time_constant),
            pump_signal=pump.signal,
            pump_trace=[so for _, so in pump.so_trace],
            pump_zo=pump.zo_final,
            ratio=ratio,
            ideal_so=core.measure_order(ideal, core.SINGLET_ORDER),
            closed_form=pro.closed_form_so(spec.ideal_np, eps),
        )

    def check(self, spec: ScanSpec, out: dict) -> list[tuple[str, str]]:
        miss = []
        t1, ts = spec.system["t1"], spec.system["ts"]
        eps = out["eps"]

        def cmp(layer, what, got, want, rel=1e-9, floor=1e-3):
            excess = _rel_miss(got, want, rel, floor)
            if excess:
                miss.append((layer, f"{what} off by {excess:.3e}"))

        def bounded(layer, what, values, limit):
            worst = float(np.max(np.abs(values)))
            if not worst <= limit + 1e-12:
                miss.append((layer, f"{what} magnitude {worst!r} exceeds {limit}"))

        sweep = model.kinetic_signal(spec.sweep_np, spec.sweep_grid, 0.0, t1, ts)
        cmp("kinetics", "sweep_tau signal", out["sweep"], sweep)
        if out["tau_star"] != spec.sweep_grid[int(np.argmax(np.abs(out["sweep"])))]:
            miss.append(("kinetics", "sweep_tau optimum is not the grid maximum"))
        bounded("kinetics", "sweep_tau signal", out["sweep"], 1.0)

        decay = model.kinetic_signal(spec.decay_np, spec.tau, spec.decay_grid, t1, ts)
        cmp("kinetics", "decay_curve signal", out["decay"], decay)
        ok, amp, tc = out["fit"]
        if not ok:
            miss.append(("kinetics", "fit_monoexponential failed on an exact exponential"))
        else:
            # the pumped singlet order decays as exactly one exponential in TS
            cmp("kinetics", "fitted TS", tc, ts, rel=1e-6)
            cmp("kinetics", "fitted amplitude", amp, decay[0], rel=1e-6)

        a, b = model.decay_factors(spec.tau, t1, ts)
        delta, trace = model.pump(spec.pump_np, a, b)
        cmp("kinetics", "run_kinetic SO trace", np.asarray(out["pump_trace"]) / eps, trace)
        ev = model.relax(delta, *model.decay_factors(spec.tau_ev, t1, ts))
        cmp("kinetics", "run_kinetic signal", out["pump_signal"], model.signal(ev))
        zo_ratio = out["pump_zo"] / eps / model.ZO_EQ
        zo = model.enhanced_zo_ratio(delta, *model.decay_factors(spec.tau_prime, t1, ts))
        cmp("kinetics", "run_kinetic zo_final", zo_ratio, zo)
        bounded("kinetics", "run_kinetic signal", out["pump_signal"], 1.0)
        bounded("kinetics", "run_kinetic ZO ratio", zo_ratio, 1.5)

        want = model.kinetic_zo_ratio(spec.zeeman_np, spec.tau, spec.tau_prime, t1, ts)
        cmp("kinetics", "zeeman_enhancement_ratio", out["ratio"], want)
        bounded("kinetics", "zeeman_enhancement_ratio", out["ratio"], 1.5)

        # run_ideal reproduces closed_form_so to the test suite's 1e-15 at
        # eps ~ 3.3e-5, i.e. 3e-11 of eps
        gap = abs(out["ideal_so"] - out["closed_form"])
        if not gap <= 3e-11 * abs(eps):
            miss.append(("protocol", f"run_ideal SO differs from closed_form_so by {gap:.3e}"))
        cmp("protocol", "closed_form_so", out["closed_form"] / eps, model.closed_form_so(spec.ideal_np))
        return miss

    def perturb(self, out: dict) -> dict:
        sweep = list(out["sweep"])
        sweep[len(sweep) // 2] *= 1.0 + 1e-6
        return dict(out, sweep=sweep)


# --- pulse-sim -------------------------------------------------------------


@dataclass
class PulseSpec:
    kind: str
    n_steps: int
    shape: object  # a PulseShape, or None for the bundled nominal shape
    scan_sign: int
    scan_scales: list
    spectrum: dict
    block: int


class PulseSim(_Base):
    """One simulate_permutation call plus a composite scan and an AB spectrum."""

    BLOCK = 6  # two nominal ops and four perturbed shapes
    STRATIFIED = ("slot",)

    def __init__(self, seed, src, pkg):
        super().__init__(seed, src, pkg)
        self.coefficients = model.bundled_coefficients(self.src)
        self.gamma = pkg.SpinSystemParams().gamma
        self._nominal = {}

    def spec(self, i: int) -> PulseSpec:
        d = self.draw(i)
        slot = d.slot("slot")
        spectrum = dict(j=d.uniform(20.0, 200.0), delta_ppm=d.uniform(0.01, 0.3),
                        b0=d.uniform(5.0, 23.5), gamma=self.gamma)
        lo, hi = d.uniform(0.6, 0.8), d.uniform(1.2, 1.4)
        scan = dict(scan_sign=1 if d.rng.random() < 0.5 else -1,
                    scan_scales=[float(x) for x in np.linspace(lo, hi, 13)],
                    spectrum=spectrum, block=d.block_index)
        if slot < 2:
            return PulseSpec(kind=("pi124", "pi142")[slot], n_steps=NOMINAL_STEPS, shape=None, **scan)
        kind = "pi124" if d.rng.random() < 0.5 else "pi142"
        coh = self.pkg.coherent
        shape = coh.PulseShape(
            max_amplitude=2.0 * math.pi * 181.0 * d.uniform(0.9, 1.1),
            duration=0.36 * d.uniform(0.9, 1.1),
            coefficients=self.coefficients,
            offset_hz=NOMINAL_OFFSET[kind] + d.uniform(-5.0, 5.0),
        )
        # two perturbed shapes at the nominal 20000 steps, one in [3000, 7000)
        # and one in [7000, 14000).  A third of the ops are shorter than the
        # nominal ones and a third longer (a fresh shape pays for its cold
        # profile_peak), so the median op is a nominal one whatever the
        # draws and wherever the run stops inside a block.
        n_steps = {2: NOMINAL_STEPS, 3: NOMINAL_STEPS,
                   4: d.integer(3000, 6999), 5: d.integer(7000, 13999)}[slot]
        return PulseSpec(kind=kind, n_steps=n_steps, shape=shape, **scan)

    def run(self, spec: PulseSpec, call) -> dict:
        coh, pkg = self.pkg.coherent, self.pkg
        kind = pkg.protocol.Permutation(spec.kind)
        transfer, fidelity = call("coherent.simulate_permutation", coh.simulate_permutation,
                                  kind, pkg.SpinSystemParams(), shape=spec.shape,
                                  n_steps=spec.n_steps)
        overlaps = call("coherent.composite", composite_scan, coh, spec.scan_sign, spec.scan_scales)
        s = spec.spectrum
        lines = call("coherent.ab_spectrum", coh.ab_spectrum,
                     pkg.SpinSystemParams(j_coupling=s["j"], delta_shift=s["delta_ppm"], b0=s["b0"],
                                          gamma=s["gamma"]))
        return dict(transfer=np.array(transfer.m), fidelity=fidelity, overlaps=overlaps,
                    lines=lines)

    def reference(self, spec: PulseSpec):
        if spec.shape is None:
            key = spec.kind
            if key not in self._nominal:
                self._nominal[key] = self._model(spec.kind, self.coefficients, 2 * math.pi * 181.0,
                                                 0.36, NOMINAL_OFFSET[key], spec.n_steps)
            return self._nominal[key]
        sh = spec.shape
        return self._model(spec.kind, sh.coefficients, sh.max_amplitude, sh.duration,
                           sh.offset_hz, spec.n_steps)

    def _model(self, kind, coeffs, amp, duration, offset, n_steps):
        p = self.pkg.SpinSystemParams()
        shift = model.shift_hz(p.delta_shift, p.b0, p.gamma)
        return model.pulse_transfer(kind, coeffs, amp, duration, offset, 0.0, n_steps,
                                    p.j_coupling, shift)

    def check(self, spec: PulseSpec, out: dict) -> list[tuple[str, str]]:
        miss = []
        t = out["transfer"]
        defect = max(np.max(np.abs(t.sum(axis=0) - 1.0)), np.max(np.abs(t.sum(axis=1) - 1.0)))
        if not defect <= 1e-9:
            miss.append(("coherent", f"transfer matrix not doubly stochastic ({defect:.3e})"))
        want_t, want_f = self.reference(spec)
        excess = _rel_miss(t, want_t, 0.0, 0.0)
        if excess > 1e-9:
            miss.append(("coherent", f"transfer matrix off the reference by {excess:.3e}"))
        if _rel_miss(out["fidelity"], want_f, 1e-9):
            miss.append(("coherent", f"fidelity {out['fidelity']!r} vs reference {want_f!r}"))
        if spec.shape is None and _rel_miss(out["fidelity"], NOMINAL_FIDELITY, 1e-5):
            miss.append(("coherent", f"nominal fidelity {out['fidelity']!r} vs {NOMINAL_FIDELITY}"))
        want_o = [model.composite_overlap(spec.scan_sign, x) for x in spec.scan_scales]
        if _rel_miss(out["overlaps"], want_o, 0.0, 0.0) > 1e-9:
            miss.append(("coherent", "composite overlap off the rotation model"))
        s = spec.spectrum
        want_l = model.ab_lines(s["j"], model.shift_hz(s["delta_ppm"], s["b0"], s["gamma"]))
        if _rel_miss(out["lines"], want_l, 1e-9, 1e-3):
            miss.append(("coherent", "AB spectrum off the closed-form quartet"))
        return miss

    def check_run(self, specs, outs) -> list[tuple[str, str]]:
        """The nominal mirror sequences (pi124, pi142) of a block agree to 1e-9."""
        nominal = {}
        for spec, out in zip(specs, outs):
            if spec.shape is None:
                nominal.setdefault(spec.block, []).append(out["fidelity"])
        return [("coherent", f"mirror sequences differ: {f!r}")
                for f in nominal.values() if _rel_miss(f, [f[0]] * len(f), 1e-9)]

    def perturb(self, out: dict) -> dict:
        return dict(out, fidelity=out["fidelity"] * (1.0 + 1e-4))


def composite_scan(coh, sign: int, scales) -> list[float]:
    return [coh.magnetization_overlap(coh.composite_pulse_propagator(sign, x), sign)
            for x in scales]


WORKLOADS = {"cli-session": CliSession, "kinetic-scan": KineticScan, "pulse-sim": PulseSim}
