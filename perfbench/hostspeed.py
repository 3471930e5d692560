"""Probes of the host's speed, to rescale op times to a reference host.

The benchmark host is a share of a busy machine: the same op, in the same
process, takes anywhere from 0.75x to 1.25x its usual time as the load
of other tenants changes over seconds to minutes.  A probe times a fixed
piece of work that uses no package code; dividing a measured time by the
probe times taken next to it cancels a change of host speed, while a
change of the package's speed shows in full.

* `probe()` is in-process work, for ops that run in the worker.  It mixes
  what those ops do, so that contention for the caches, the memory bus and
  the core slows it as it slows them: small LAPACK calls and array churn,
  interpreted loops, JSON, regular expressions and sorting, and passes
  over a 2 MB array.
* `spawn_probe()` starts a fresh interpreter that imports numpy, for what
  starts processes: `cli-session` ops and every set-up.  Start-up is file
  mapping, unmarshalling and module execution, which the in-process probe
  does not track.

The times below are the probes' medians on the reference host, 2 vCPUs of
an Intel Xeon at 2.1 GHz; times are reported at that host's speed.
"""

from __future__ import annotations

import json
import math
import re
import signal
import subprocess
import sys
import time

import numpy as np

PROBE_REF_S = 0.016
SPAWN_REF_S = 0.13
#: What `spawn_probe` runs; isolated mode, so no environment variable counts.
SPAWN_CMD = (sys.executable, "-I", "-c", "import numpy")
#: Seconds after which a timed child process is killed.
CHILD_TIMEOUT_S = 60

_RNG = np.random.default_rng(20191230)
_A = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_H = _A + _A.conj().T
_M = _RNG.standard_normal((4, 4))
_V = _RNG.standard_normal(64)
_X = _RNG.standard_normal(1 << 18)
_DOC = {"rows": [{"id": i, "name": f"item{i}", "vals": [i * 0.5, i * 1.5, -i]} for i in range(60)]}
_TEXT = " ".join(f"tau={i * 0.37:.3f},signal={math.sin(i):.6f};" for i in range(200))
_PAT = re.compile(r"tau=([0-9.]+),signal=(-?[0-9.]+)")


def probe() -> float:
    """Seconds taken by fixed in-process work."""
    t0 = time.perf_counter()
    u = np.eye(4, dtype=complex)
    acc = 0.0
    for k in range(120):
        w, v = np.linalg.eigh(_H * (1.0 + 1e-3 * k))
        u = (v * np.exp(-1j * w * 1e-3)) @ v.conj().T @ u
        for j in range(40):
            acc = acc * 0.5 + math.sin(j * 0.1 + k)
    for k in range(3):
        acc += len(json.loads(json.dumps(_DOC))["rows"])
        acc += sum(float(b) for _, b in _PAT.findall(_TEXT)) * 1e-6
        acc += sorted([(math.cos(i * k), i) for i in range(300)])[0][1]
        for j in range(15):
            w = np.linalg.eig(_M + j * 1e-3)[0]
            x = np.linalg.solve(_M + np.eye(4) * (j + 1), _V[:4])
            e = np.exp(np.kron(_M, np.eye(2)) * 1e-3).sum()
            f = np.abs(np.fft.rfft(_V * (j + 1))).max()
            t = np.tile(_V[:4].reshape(4, 1), (1, 4)) @ _M
            acc += float(np.real(w).sum() + x.sum() + e + f + t.trace()) * 1e-6
    for _ in range(4):
        acc += float(np.cumsum(_X)[-1]) * 1e-6
    elapsed = time.perf_counter() - t0
    if not (math.isfinite(acc) and np.all(np.isfinite(u))):
        raise RuntimeError("host-speed probe produced a non-finite value")
    return elapsed


class ChildTimeout(Exception):
    """A timed child process ran past its time limit and was killed."""


def _expire(signum, frame):
    raise ChildTimeout(f"child process ran longer than {CHILD_TIMEOUT_S} s")


def run_child(cmd, **kwargs) -> subprocess.CompletedProcess:
    """`subprocess.run` with a time limit that does not poll.

    Given a timeout, `subprocess` polls the child at intervals of up to
    50 ms, which would put 50 ms steps into the measured times.  Here the
    wait blocks, and an interval timer interrupts it: the exception it
    raises makes `subprocess.run` kill the child.  Main thread only.
    """
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    try:
        return subprocess.run(cmd, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def spawn_probe() -> float:
    """Seconds from starting `SPAWN_CMD` until it has exited."""
    t0 = time.perf_counter()
    run_child(SPAWN_CMD, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
              stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0
