"""Benchmark of the singletcool package: one workload, one seed, one run.

    python3 perfbench/run.py --workload kinetic-scan --seed 1 --seconds 10 --trace 0

Run from the root of a source tree (the package is not installed: every
child process gets ``PYTHONPATH=src``).  Workloads:

* ``cli-session``  -- one fresh ``python -m singletcool.cli`` process per op;
* ``kinetic-scan`` -- an in-process analysis of one spin system per op;
* ``pulse-sim``    -- one in-process pulse-sequence simulation per op.

Times are rescaled to a reference host speed (``hostspeed.py``): the
worker runs a probe of fixed work before the first op and after every op,
and each op's time is multiplied by the probe's reference time over the
mean of the probes on either side of it.  Set-up times are rescaled the
same way, by a process-start probe run before and after each set-up.  The
full report keeps the unscaled samples.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics (spans around every call into the package, the import
breakdown of ``python -X importtime``) and the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  A full report (provenance included) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("cli-session", "kinetic-scan", "pulse-sim")
#: Set-up is timed this many times per run; the median is reported.
SETUPS = 5
IMPORT_RUNS = 3
#: A run must end within 180 s whatever happens.
DEADLINE_S = 170.0
#: Samples that must lie beyond the reported tail latency.
TAIL_BEYOND = 10
IMPORT_LAYERS = {
    "deps.numpy.import_cum_s": lambda n: n == "numpy" or n.startswith("numpy."),
    "deps.scipy.import_cum_s": lambda n: n == "scipy" or n.startswith("scipy."),
    **{f"{m}.import_cum_s": (lambda n, m=m: n == f"singletcool.{m}")
       for m in ("core", "protocol", "kinetics", "coherent", "cli")},
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def worker_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def spawn_until_ready(cmd, deadline, log: Path):
    """Start a worker; return (process, seconds until it printed 'ready').

    The worker's standard error goes to `log`, so a chatty worker cannot
    block on a full pipe.
    """
    t0 = time.perf_counter()
    with open(log, "w") as err:
        # a session of its own, so a stuck worker is killed with its children
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                env=child_env(), cwd=ROOT, start_new_session=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline, log)
        raise BenchError(f"worker did not get ready:\n{log.read_text()[-2000:]}")
    return proc, ready


def finish(proc, deadline, log: Path) -> str:
    try:
        out, _ = proc.communicate(timeout=remaining(deadline))
    except (subprocess.TimeoutExpired, BenchError):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{log.read_text()[-2000:]}")
    return out


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import seconds per layer from ``python -X importtime`` output.

    Lines come in post-order with two spaces of indent per nesting level.
    A group (e.g. every ``scipy.*`` module) is charged the cumulative time
    of its outermost lines only, so nested imports are not counted twice.
    """
    stack = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2]
        name = raw.strip()
        level = (len(raw) - len(raw.lstrip()) - 1) // 2
        node = {"name": name, "level": level, "cum": int(parts[1]) * 1e-6, "children": []}
        while stack and stack[-1]["level"] > level:
            node["children"].insert(0, stack.pop())
        stack.append(node)

    def outermost(nodes, match):
        return sum(n["cum"] if match(n["name"]) else outermost(n["children"], match)
                   for n in nodes)

    return {metric: outermost(stack, match) for metric, match in IMPORT_LAYERS.items()}


def import_breakdown(deadline) -> dict[str, float]:
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import singletcool.cli"],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in IMPORT_LAYERS}


def source_facts() -> dict:
    files = sorted(p for p in (SRC / "singletcool").rglob("*") if p.is_file()
                   and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    lines = 0
    for p in files:
        data = p.read_bytes()
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + data)
        if p.suffix == ".py":
            lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "src_py_lines": lines}


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    lat = sorted(latencies)
    n = len(lat)
    # never below the median, however few samples a run has
    k = max(n - TAIL_BEYOND - 1, n // 2)
    return lat[k], 100.0 * (k + 1) / n


def host_scale(probes: list[float], in_process: bool) -> list[float]:
    """Per-op factors that rescale op times to the reference host speed.

    probes[k] and probes[k + 1] are the probes run just before and just
    after op k: hostspeed.probe for in-process ops, else spawn_probe.
    """
    ref = hostspeed.PROBE_REF_S if in_process else hostspeed.SPAWN_REF_S
    return [2.0 * ref / (a + b) for a, b in zip(probes, probes[1:])]


def unit_of(name: str) -> str:
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_s") or ".s_per_" in name:
        return "s"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "singletcool" / "cli.py").is_file():
        raise BenchError(f"no package source under {SRC}: run from a singletcool source tree")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    log = stem.with_suffix(".stderr")
    # set-up k is rescaled by the spawn probes just before and after it;
    # the last, that of the measuring worker, by the one before it
    setups, probes = [], [hostspeed.spawn_probe()]
    for _ in range(SETUPS - 1):
        proc, ready = spawn_until_ready(worker_cmd(args, "--setup-only"), deadline, log)
        finish(proc, deadline, log)
        setups.append(ready)
        probes.append(hostspeed.spawn_probe())
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    extra = ["--spool", str(stem.with_suffix(".spool"))]
    if args.trace:
        extra += ["--spans-out", str(spans)]
    proc, ready = spawn_until_ready(worker_cmd(args, *extra), deadline, log)
    setups.append(ready)
    raw = json.loads(finish(proc, deadline, log).strip().splitlines()[-1])
    setup_scale = host_scale(probes + probes[-1:], in_process=False)

    raw_lat = raw["latencies_s"]
    scale = host_scale(raw["probes_s"], raw["in_process_probe"])
    lat = [t * f for t, f in zip(raw_lat, scale)]
    tail_s, tail_pct = tail(lat)
    e2e = {
        "ops_per_s": (len(lat) / math.fsum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(t * f for t, f in zip(setups, setup_scale)), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }
    failed_ratio = raw["failed"] / raw["attempted"] if raw["attempted"] else 1.0
    if args.trace:
        layers = {**import_breakdown(deadline), **raw["layers"]}
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), **source_facts(), **raw["provenance"],
        "attempted": raw["attempted"], "failed": raw["failed"], "failed_ratio": failed_ratio,
        "oracle_self_check": raw["self_check"], "misses": raw["misses"],
        "tail_percentile": tail_pct, "latency_samples": len(lat),
        "setup_samples_s": setups, "setup_probes_s": probes,
        "host_scale": statistics.median(scale), "elapsed_s": raw["elapsed_s"],
        "latencies_s": raw_lat, "probes_s": raw["probes_s"],
        "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(
        json.dumps(report, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for key in ("git_commit", "src_sha256", "src_py_lines", "nproc", "python", "numpy",
                "scipy", "blas", "blas_threads"):
        print(f"#   {key}: {report[key]}")
    print(f"#   attempted={raw['attempted']} failed={raw['failed']} "
          f"failed_ratio={failed_ratio:.4g} oracle_self_check={raw['self_check']}")
    if not args.trace:
        print(f"#   latency samples={len(lat)}, tail = p{tail_pct:.1f}; "
              f"times rescaled to the reference host speed by a median factor of "
              f"{statistics.median(scale):.3f} (unscaled p50 {statistics.median(raw_lat):.6g} s)")
    for miss in raw["misses"]:
        print(f"#   miss: {miss}")
    for name, m in metrics.items():
        print(f"{name:46s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": raw["failed"] == 0 and raw["self_check"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(2)
