"""One benchmark process: set up, run one workload for a fixed time, report.

Started by run.py in a fresh interpreter with the package's `src/` on
PYTHONPATH.  It prints ``ready`` once `singletcool` and `singletcool.cli`
are imported and the first block of inputs is drawn (run.py times set-up
up to that line), then runs ops in a closed loop until the time is up and
prints one JSON line with the raw results.  Outputs are checked against
the oracle after the timed loop, so checking costs no op time.

Traced runs (``--trace 1``) run every op twice, once traced and once
not, alternating which goes first, so the tracing overhead is measured
on identical inputs.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import singletcool
import singletcool.cli
from singletcool import coherent, core, kinetics, protocol

import hostspeed
import workloads

#: Package functions wrapped in spans during traced ops.  Wrapping the
#: module attribute catches the package's own calls between layers too
#: (sweep_tau -> run_kinetic, cli -> engines).
TRACED = {
    "protocol.run_ideal": (protocol, "run_ideal"),
    "kinetics.sweep_tau": (kinetics, "sweep_tau"),
    "kinetics.decay_curve": (kinetics, "decay_curve"),
    "kinetics.run_kinetic": (kinetics, "run_kinetic"),
    "kinetics.zeeman_enhancement_ratio": (kinetics, "zeeman_enhancement_ratio"),
    "kinetics.fit_monoexponential": (kinetics, "fit_monoexponential"),
    "coherent.simulate_permutation": (coherent, "simulate_permutation"),
    "coherent.ab_spectrum": (coherent, "ab_spectrum"),
}
#: Probes of the pulse layer are taken on at most this many distinct shapes.
PROBE_SHAPES = 8
PROBE_STEPS = 2000


def _size(name: str, args, kwargs, result):
    """Work count of one call: grid points, permutations or pulse steps."""
    if name in ("kinetics.sweep_tau", "kinetics.decay_curve"):
        return len(args[1] if name == "kinetics.sweep_tau" else args[2])
    if name == "kinetics.run_kinetic":
        return int(args[0])
    if name == "coherent.simulate_permutation":
        return int(kwargs.get("n_steps", coherent.DEFAULT_PULSE_STEPS))
    if name == "kinetics.fit_monoexponential":
        return int(bool(result.ok))
    if name == "cli.main":
        return args[0][0]
    return None


class Tracer:
    """In-memory spans: (name, start, end, parent index, op id, size, ok)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1
        self._saved = {}

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        result, ok = None, False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            size = _size(name, args, kwargs, result) if ok else None
            if name == "cli.main" and ok and result != 0:
                ok = False
            self.spans[idx] = (name, start, end, parent, self.op, size, ok)

    def install(self):
        for name, (mod, attr) in TRACED.items():
            fn = getattr(mod, attr)
            self._saved[name] = fn
            setattr(mod, attr, self._wrapper(name, fn))

    def uninstall(self):
        for name, (mod, attr) in TRACED.items():
            setattr(mod, attr, self._saved.pop(name))

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def plain_call(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def provenance() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return dict(
        python=sys.version.split()[0],
        numpy=np.__version__,
        scipy=__import__("scipy").__version__,
        singletcool=singletcool.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}",
        blas_threads=blas_threads(),
    )


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def make_workload(name: str, seed: int, src: Path, traced: bool):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliSession:
        return cls(seed, src, singletcool, env=dict(os.environ), traced=traced)
    return cls(seed, src, singletcool)


def timed(wl, spec, call):
    t0 = time.perf_counter()
    try:
        out = wl.run(spec, call)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def peak_rss_kb(in_process: bool) -> int:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss


def in_process_probe(wl, tracer) -> bool:
    """Whether ops are rescaled by the in-process probe (traced runs report no op times)."""
    return wl.in_process or tracer is not None


def measure(wl, seconds: float, tracer: Tracer | None, spool):
    """Closed loop until `seconds` have passed, and at least one op.

    Returns records (op index, traced, latency, error, host-speed probe
    after the op), the elapsed time and the probe before the first op; a
    traced run records each op twice.  Outputs are pickled to
    `spool` rather than kept, so the process's memory does not grow with
    the number of ops; inputs are regenerated from the op index.
    """
    # ops that start processes are rescaled by a probe that starts one
    probe = hostspeed.probe if in_process_probe(wl, tracer) else hostspeed.spawn_probe
    # one untimed op and probe first, so lazy imports and caches are settled
    timed(wl, wl.spec(10**6), plain_call)
    probe()
    first_probe = probe()
    records = []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        spec = wl.spec(i)
        if tracer is None:
            order = (False,)
        else:
            tracer.op = i
            order = (False, True) if i % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                tracer.install()
            try:
                latency, out, err = timed(wl, spec, tracer.call if traced else plain_call)
            finally:
                if traced:
                    tracer.uninstall()
            pickle.dump(out, spool)
            records.append((i, traced, latency, err, probe()))
        i += 1
    return records, time.perf_counter() - start, first_probe


def check(wl, records, spool):
    """Oracle misses per record and across records, and the self-check verdict."""
    misses, ok = [], []
    for i, _, _, err, _ in records:
        out = pickle.load(spool)
        if err:
            misses.append([("op", err)])
            continue
        spec = wl.spec(i)
        misses.append(wl.check(spec, out))
        ok.append((spec, out))
    run_misses = wl.check_run([s for s, _ in ok], [o for _, o in ok])
    # self-check: an output knocked off by more than every tolerance must be caught
    self_check = bool(ok) and bool(wl.check(ok[0][0], wl.perturb(ok[0][1])))
    return misses, run_misses, self_check


def probe_pulse(wl, records):
    """Split the simulate_permutation span: cold profile_peak and per-step propagate."""
    cold, per_step, seen = [], [], set()
    for i, *_ in records:
        spec = wl.spec(i)
        key = spec.kind if spec.shape is None else i
        if key in seen or len(seen) >= PROBE_SHAPES:
            continue
        seen.add(key)
        base = spec.shape or coherent.PulseShape.default(
            offset_hz=coherent.CARRIER_OFFSETS[protocol.Permutation(spec.kind)])
        fresh = coherent.PulseShape(base.max_amplitude, base.duration, base.coefficients,
                                    base.offset_hz, base.phase)
        t0 = time.perf_counter()
        fresh.profile_peak
        cold.append(time.perf_counter() - t0)
        ops = coherent.spin_operators()
        h0 = coherent.free_hamiltonian(core.SpinSystemParams(), offset_hz=-fresh.offset_hz)
        rf = ops.i1x + ops.i2x
        n = min(spec.n_steps, PROBE_STEPS)
        t0 = time.perf_counter()
        coherent.propagate(lambda t: h0 + coherent.apsoc_waveform(fresh, t) * rf,
                           (0.0, fresh.duration), n)
        per_step.append((time.perf_counter() - t0) / n)
    return cold, per_step


def layer_metrics(tracer: Tracer, records, misses, probes) -> dict:
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span[0], []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def busy(name):
        return math.fsum(s[2] - s[1] for s in spans(name))

    def p50(name, pred=lambda s: True):
        d = [s[2] - s[1] for s in spans(name) if pred(s)]
        return statistics.median(d) if d else 0.0

    def work(name):
        return sum(s[5] or 0 for s in spans(name))

    def per(total, count):
        return total / count if count else 0.0

    m = {}
    for cmd in ("pump", "sweep-tau", "decay", "enhance"):
        m[f"cli.main.{cmd}.p50_s"] = p50("cli.main", lambda s, c=cmd: s[5] == c)
    m["cli.main.calls"] = len(spans("cli.main"))
    for name in ("protocol.run_ideal", "kinetics.run_kinetic", "coherent.simulate_permutation"):
        m[f"{name}.calls"] = len(spans(name))
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.p50_s"] = p50(name)
    for name in ("kinetics.sweep_tau", "kinetics.decay_curve"):
        m[f"{name}.calls"] = len(spans(name))
        m[f"{name}.points"] = work(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.s_per_point"] = per(busy(name), work(name))
    m["kinetics.run_kinetic.permutations"] = work("kinetics.run_kinetic")
    m["kinetics.zeeman_enhancement_ratio.calls"] = len(spans("kinetics.zeeman_enhancement_ratio"))
    m["kinetics.zeeman_enhancement_ratio.busy_s"] = busy("kinetics.zeeman_enhancement_ratio")
    fits = spans("kinetics.fit_monoexponential")
    m["kinetics.fit_monoexponential.calls"] = len(fits)
    m["kinetics.fit_monoexponential.busy_s"] = busy("kinetics.fit_monoexponential")
    m["kinetics.fit_monoexponential.ok_ratio"] = per(work("kinetics.fit_monoexponential"), len(fits))
    m["coherent.simulate_permutation.steps"] = work("coherent.simulate_permutation")
    m["coherent.simulate_permutation.s_per_step"] = per(
        busy("coherent.simulate_permutation"), work("coherent.simulate_permutation"))
    cold, per_step = probes
    m["coherent.profile_peak.cold_s"] = statistics.median(cold) if cold else 0.0
    m["coherent.propagate.s_per_step"] = statistics.median(per_step) if per_step else 0.0
    m["coherent.composite.busy_s"] = busy("coherent.composite")
    m["coherent.ab_spectrum.busy_s"] = busy("coherent.ab_spectrum")

    # a layer fails when one of its spans raises (or cli.main exits non-zero)
    # or when the oracle misses one of its outputs
    failed = {"cli": 0, "protocol": 0, "kinetics": 0, "coherent": 0}
    for span in tracer.spans:
        if not span[6]:
            failed[span[0].split(".")[0]] += 1
    for found in misses:
        for layer in {layer for layer, _ in found if layer in failed}:
            failed[layer] += 1
    for layer in ("cli", "kinetics", "coherent"):
        m[f"{layer}.failed"] = failed[layer]

    latency = {(r[0], r[1]): r[2] for r, found in zip(records, misses) if not found}
    pairs = [(t, latency[i, False]) for (i, traced), t in latency.items()
             if traced and (i, False) in latency]
    if pairs:
        overhead = statistics.median(t - u for t, u in pairs)
        m["trace.overhead_s"] = overhead
        m["trace.overhead_share"] = overhead / statistics.median(u for _, u in pairs)
    else:
        m["trace.overhead_s"] = m["trace.overhead_share"] = 0.0
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", type=Path, default=None)
    ap.add_argument("--spool", type=Path, help="scratch file for op outputs")
    args = ap.parse_args()

    src = Path(singletcool.__file__).resolve().parent.parent
    tracer = Tracer() if args.trace else None
    wl = make_workload(args.workload, args.seed, src, traced=bool(args.trace))
    for i in range(wl.BLOCK):
        wl.spec(i)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    try:
        with open(args.spool, "wb") as fh:
            records, elapsed, first_probe = measure(wl, args.seconds, tracer, fh)
        rss_kb = peak_rss_kb(wl.in_process)
        with open(args.spool, "rb") as fh:
            misses, run_misses, self_check = check(wl, records, fh)
    finally:
        args.spool.unlink(missing_ok=True)
    failed = sum(1 for found in misses if found) + len(run_misses)
    result = dict(
        attempted=len(records),
        failed=min(failed, len(records)),
        elapsed_s=elapsed,
        latencies_s=[r[2] for r in records if not r[1]],
        probes_s=[first_probe] + [r[4] for r in records if not r[1]],
        in_process_probe=in_process_probe(wl, tracer),
        peak_rss_kb=rss_kb,
        self_check=self_check,
        misses=([m for found in misses for m in found] + run_misses)[:20],
        provenance=provenance(),
    )
    if tracer:
        probes = probe_pulse(wl, records) if args.workload == "pulse-sim" else ([], [])
        result["layers"] = layer_metrics(tracer, records, misses, probes)
        if args.spans_out:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans_out, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(
                        ("name", "start", "end", "parent", "op", "size", "ok"), span))) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
