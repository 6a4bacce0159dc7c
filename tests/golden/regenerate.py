"""Golden run outputs: what ``qmaxcut bench`` and ``qmaxcut solve`` print.

Each file beside this script is one command's stdout with its timings
taken out by :func:`mask_timings`.  Each command runs in a child
``python -m qmaxcut`` started by :func:`run_child`: one BLAS thread and
the default qubit cap.  ``tests/test_golden.py`` runs the commands again
and compares the bytes.  The tests start every child process and mask
every timing through these two functions.

A change that moves a run output on purpose writes the files again and
commits the diff::

    python tests/golden/regenerate.py
"""

import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

RUNS = {
    **{f"bench_seed{seed}.csv": ("bench", "--seed", str(seed)) for seed in (0, 1, 2)},
    "bench_seed0_shots64.csv": ("bench", "--seed", "0", "--shots", "64"),
    **{f"solve_{n}_{m}.txt": ("solve", "--gen", f"{n},{m}", "--algo", "all", "--depth", "1,2,3")
       for n, m in ((9, 14), (12, 20), (16, 30))},
}

_RUNTIME_COLUMN = 5  # of cli.CSV_HEADER
_TIMING = re.compile(r"^(\w+_s)=.*$", re.MULTILINE)


# Each thread-count variable of the BLAS and OpenMP runtimes numpy may load,
# pinned to one thread: the outputs depend on the thread count.
ONE_THREAD = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def child_env(extra: dict | None = None) -> dict:
    """The environment of a child ``python`` that runs this checkout's
    ``qmaxcut`` in any directory: this process's less ``QMAXCUT_QUBIT_CAP``,
    with :data:`ONE_THREAD`, ``src/`` first on ``PYTHONPATH`` (the inherited
    entries made absolute) and then ``extra``."""
    env = {k: v for k, v in os.environ.items() if k != "QMAXCUT_QUBIT_CAP"}
    inherited = env.get("PYTHONPATH")
    entries = [str(Path(e).resolve()) for e in inherited.split(os.pathsep)] if inherited else []
    env.update(ONE_THREAD, PYTHONPATH=os.pathsep.join([str(SRC), *entries]))
    env.update(extra or {})
    return env


def run_child(*argv: str, cwd=None, env_extra: dict | None = None,
              check: bool = False) -> subprocess.CompletedProcess:
    """``python ARGV`` in a fresh interpreter with :func:`child_env`'s
    environment (``env_extra`` added), in ``cwd``; its output as text."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=cwd,
                          env=child_env(env_extra), check=check)


def mask_timings(name: str, text: str) -> str:
    """``text``, an output named ``name``, without its timings: a ``.csv``
    (a ``bench`` CSV) loses its ``runtime_s`` column, a ``.dat`` plot file
    its second (runtime) column, and anything else reads ``*`` for every
    ``*_s=`` value of ``solve``'s ``key=value`` lines."""
    if name.endswith(".csv"):
        rows = (line.split(",") for line in text.splitlines())
        return "".join(",".join(r[:_RUNTIME_COLUMN] + r[_RUNTIME_COLUMN + 1:]) + "\n" for r in rows)
    if name.endswith(".dat"):
        return "".join(line.split()[0] + "\n" for line in text.splitlines())
    return _TIMING.sub(r"\1=*", text)


def output(name: str) -> str:
    """The masked stdout of the command that writes ``name``."""
    return mask_timings(name, run_child("-m", "qmaxcut", *RUNS[name], check=True).stdout)


if __name__ == "__main__":
    for name in RUNS:
        (HERE / name).write_text(output(name))
        print(f"wrote {HERE / name}")
