"""Print the median fresh-process wall time of each CLI command, and whether it imports numpy.

Each command runs `RUNS` times as ``python -m singletcool.cli`` with ``src`` on PYTHONPATH;
one more run under ``-X importtime`` tells whether numpy was imported.  Run from the
repository root:

    python3 tools/cli_startup.py
"""

import os
import statistics
import subprocess
import sys
import time

#: Fresh processes timed per command.
RUNS = 11

COMMANDS = ["pump --mode ideal --np 40", "pump --mode kinetic --np 40",
            "sweep-tau --tau-grid 1,10,28,100", "decay --tau-ev-grid 0,50,100,200",
            "enhance --mode ideal --np 6", "enhance --mode kinetic --np 6",
            "coherent-check --n-steps 600"]


def run(argv: str, *flags: str) -> tuple[float, str]:
    """Wall time and stderr of one fresh process of ``argv``, which must exit 0."""
    path = os.pathsep.join(filter(None, ["src", os.getenv("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-m", "singletcool.cli", *argv.split()],
                          env=env, capture_output=True, text=True, check=True)
    return time.perf_counter() - start, proc.stderr


def main() -> int:
    print(f"{'command':<36}{'median s':>10}  numpy")
    for argv in COMMANDS:
        median = statistics.median(run(argv)[0] for _ in range(RUNS))
        imports = run(argv, "-X", "importtime")[1].splitlines()
        numpy = any(line.split("|")[-1].strip() == "numpy" for line in imports)
        print(f"{argv:<36}{median:>10.3f}  {'yes' if numpy else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
