"""Start-up time and memory of the package, in fresh interpreters.

Runs four commands, each in 7 fresh interpreters one after another, in
the environment of ``tests/golden/regenerate.child_env``: this checkout's
``src`` first on ``PYTHONPATH``, one BLAS thread and the default qubit
cap, whatever the shell holds:

    python -c "import qmaxcut"
    python -m qmaxcut solve --gen 12,20 --depth 2 --shots 64
    python -m qmaxcut solve --gen 18,40 --depth 2 --shots 64 --budget 20
    python -m qmaxcut solve --gen 20,60 --depth 2 --budget 10 --restarts 2 \
        --shots 4096 --no-warm

The interpreter and numpy set the first two peaks; the third adds the
n=18 run's sampling workspace.  The fourth has the shape of one
operation of the benchmark's ``qaoa-n20`` workload, whose peak its
``peak_rss_mib`` reads.  It prints, per command, the median wall time
of the whole process, the median of its peak resident set size
(``ru_maxrss`` of that child alone, from ``os.wait4``) and, beside it,
the bytes that ``qmaxcut.graph.peak_bytes`` models for the run, the
package's one byte model; nothing is gated on them.  One more run of
each under ``-X importtime`` names which of ``numpy.random``,
``numpy.ma`` and ``scipy`` it loaded.  The first line names the
machine.  Needs numpy, for the model; Linux or macOS; run from
anywhere: ``python3 tools/footprint.py``.
"""

import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests" / "golden"), str(ROOT / "src")]
from regenerate import child_env  # noqa: E402
from qmaxcut.graph import peak_bytes  # noqa: E402

RUNS = 7


def solve(gen: str, *flags: str) -> tuple[str, tuple[list[str], int]]:
    """``(name, (args, modelled bytes))`` of ``solve --gen gen --depth 2``
    with ``flags``, which hold ``--shots``."""
    cli = ["solve", "--gen", gen, "--depth", "2", *flags]
    n, m = map(int, gen.split(","))
    shots = int(flags[flags.index("--shots") + 1])
    return " ".join(cli), (["-m", "qmaxcut", *cli], peak_bytes("run", n, m, shots))


COMMANDS = dict([
    ("import qmaxcut", (["-c", "import qmaxcut"], None)),
    solve("12,20", "--shots", "64"),
    solve("18,40", "--shots", "64", "--budget", "20"),
    solve("20,60", "--budget", "10", "--restarts", "2", "--shots", "4096", "--no-warm"),
])
WATCHED = ("numpy.random", "numpy.ma", "scipy")
# ru_maxrss is in KiB on Linux and in bytes on macOS.
_RSS_UNIT = 1 if sys.platform == "darwin" else 1024


def measure(args: list[str]) -> tuple[float, float]:
    """``(wall seconds, peak RSS in MiB)`` of one fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=child_env(), cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    # Reaped here, so tell Popen, which would otherwise wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"footprint: {' '.join(args)} exited {proc.returncode}")
    return wall, usage.ru_maxrss * _RSS_UNIT / 2**20


def loaded(args: list[str]) -> list[str]:
    """Which of ``WATCHED`` one run of ``args`` imports."""
    err = subprocess.run([sys.executable, "-X", "importtime", *args], env=child_env(), cwd=ROOT,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                         check=True).stderr
    names = {line.rpartition("|")[2].strip() for line in err.splitlines()}
    return [w for w in WATCHED if any(n == w or n.startswith(w + ".") for n in names)]


def main() -> None:
    print(f"footprint: medians of {RUNS} fresh interpreters; {platform.machine()},"
          f" nproc {os.cpu_count()}, Python {platform.python_version()},"
          f" numpy {metadata.version('numpy')}")
    width = max(map(len, COMMANDS)) + 2
    print(f"{'command':<{width}}{'wall_s':>8}{'peak_rss_mib':>14}{'model_mib':>11}  loaded")
    for name, (args, model) in COMMANDS.items():
        walls, peaks = zip(*(measure(args) for _ in range(RUNS)))
        mods = ", ".join(loaded(args)) or "none of " + ", ".join(WATCHED)
        modelled = "-" if model is None else f"{model / 2**20:.1f}"
        print(f"{name:<{width}}{statistics.median(walls):>8.3f}"
              f"{statistics.median(peaks):>14.1f}{modelled:>11}  {mods}")


if __name__ == "__main__":
    main()
