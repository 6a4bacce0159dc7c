"""Golden run outputs: what ``qmaxcut bench`` and ``qmaxcut solve`` print.

Each file beside this script is one command's stdout with its timings
taken out: a ``bench`` CSV loses its ``runtime_s`` column, and every
``*_s=`` value in ``solve``'s ``key=value`` lines reads ``*``.  Each
command runs in a child ``python -m qmaxcut`` whose environment is
:func:`child_env`'s: one BLAS thread and the default qubit cap.
``tests/test_golden.py`` runs the commands again and compares the bytes.

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


def output(name: str) -> str:
    """The masked stdout of the command that writes ``name``."""
    args = RUNS[name]
    stdout = subprocess.run([sys.executable, "-m", "qmaxcut", *args], env=child_env(),
                            capture_output=True, text=True, check=True).stdout
    if args[0] == "bench":
        rows = (line.split(",") for line in stdout.splitlines())
        return "".join(",".join(r[:_RUNTIME_COLUMN] + r[_RUNTIME_COLUMN + 1:]) + "\n" for r in rows)
    return _TIMING.sub(r"\1=*", stdout)


if __name__ == "__main__":
    for name in RUNS:
        (HERE / name).write_text(output(name))
        print(f"wrote {HERE / name}")
