#!/usr/bin/env python3
"""qmaxcut benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 bench/run.py --workload qaoa-n16 --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload with nothing wrapped and reports the
end-to-end metrics.  ``--trace 1`` runs half the passes untraced
and then replays the same inputs with every traced function wrapped
(see ``tracing.py``), and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every end-to-end metric by name and unit, plus provenance.  A fuller
record, and in traced runs the spans, go under ``.bench_out/``.

A run is ``passes`` repetitions of the workload's fixed operation list,
each on fresh seeded inputs; the pass count follows from ``--seconds``
and the workload's nominal pass time, so the amount of work is the same
on every commit.  ``wall_s`` is the median over passes of the summed
operation times; the oracle and the output checks are never timed, and
the oracle runs in a child process, so its memory is in no metric.
``wall_rel`` and ``op_rel_p50`` are the same figures, each
divided by the median duration of the workload's reference kernel, run
between operations (``reference.py``); the result line carries these, because
raw seconds drift too much on a shared host to hold a bound.
``setup_raw_s`` is the median over fresh interpreter processes of the
time from process start to the first operation being ready (imports,
graph generation, argv preparation).  Each of those processes then times
the reference kernel, and ``setup_s`` is the median of set-up time over
kernel time, times the kernel's nominal duration: set-up seconds at a
fixed machine speed, so drift between runs does not read as a change.

The program runs single-threaded (BLAS/OpenMP pools set to one thread)
and with no ``QMAXCUT_*`` variables, so the default qubit cap applies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
# Each setup probe times the numpy reference kernel for SETUP_REF_S;
# setup_s scales set-up time to a kernel duration of SETUP_NOMINAL_S,
# about what it takes on a 2-vCPU Intel Xeon host.
SETUP_KERNEL, SETUP_REF_S, SETUP_NOMINAL_S = "numpy", 0.2, 0.01
REF_FIRST_S, REF_MIN_S, REF_SHARE = 0.1, 0.02, 0.05  # reference-kernel sampling
PROBE_TIMEOUT_S = 60
ORACLE_TIMEOUT_S = 120
_AMPLITUDE_BYTES = 16

# End-to-end metrics in the result line, all defined on every workload.
# Times are corrected by the reference kernel: raw seconds drift too much
# on a shared host to hold a bound (see reference.py); they are printed
# above.  ``unrefined_ratio`` is the solver's cut before single-flip
# refinement, which would otherwise mask a worse optimizer or simulator.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_rel", "ref"),
    ("op_rel_p50", "ref"),
    ("peak_rss_mib", "MiB"),
    ("approx_ratio", "ratio"),
    ("unrefined_ratio", "ratio"),
)


def _load():
    """Import the program from this checkout's ``src`` and the benchmark modules."""
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import qmaxcut

    if Path(qmaxcut.__file__).resolve().parent != SRC / "qmaxcut":
        raise ImportError(f"qmaxcut imported from {qmaxcut.__file__}, not {SRC}")
    import workloads

    return workloads


def _setup(name: str, seed: int, seconds: float, trace: int):
    """Everything before the first operation; also what a setup probe runs."""
    workloads = _load()
    wl = workloads.WORKLOADS[name]
    run_dir = OUT / f"{name}-seed{seed}-trace{trace}"
    passes = wl.passes(seconds)
    inputs = [wl.make_inputs(seed, p, run_dir / "timed") for p in range(passes)]
    return wl, run_dir, inputs


def _probe_setup(args) -> tuple[float, float]:
    """Start a fresh interpreter that only sets up, and time it until ready.

    Returns those seconds and the median duration of the reference
    kernel, which the probe times right after its set-up.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--setup-probe"]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
    ready, ref = map(float, proc.stdout.split()[-2:])
    return ready - start, ref


def _optima(wl, inputs) -> list[list[int]]:
    """Oracle optimum of every operation, from a child process (see oracle.py)."""
    graphs = [wl.graph(x) for pass_inputs in inputs for x in pass_inputs]
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "oracle.py")],
                          input=json.dumps(graphs), capture_output=True, text=True,
                          timeout=ORACLE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"oracle failed ({proc.returncode}): {proc.stderr.strip()}")
    optima = iter(json.loads(proc.stdout))
    return [[next(optima) for _ in pass_inputs] for pass_inputs in inputs]


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
        sizes[f"l{level}_bytes"] = int(text.rstrip("KM")) * scale
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _provenance(wl, seed: int, passes: int) -> dict:
    import numpy
    import scipy

    caches = _cache_sizes()
    state = (1 << wl.n) * _AMPLITUDE_BYTES
    prov = {
        "workload": wl.name,
        "seed": seed,
        "passes": passes,
        "ops_per_pass": wl.ops_per_pass,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "threads": "1 (OMP/OpenBLAS/MKL)",
        "state_bytes": state,
    }
    for level in ("l2", "l3"):
        if f"{level}_bytes" in caches:
            prov[f"state_over_{level}"] = state / caches[f"{level}_bytes"]
    llc = caches.get("l3_bytes", caches.get("l2_bytes"))
    if llc:
        prov["bandwidth_label"] = (
            "measured-scale" if state >= 4 * llc
            else "computed (state below 4x last-level cache; bytes from array sizes)"
        )
    return prov


def _run_pass(wl, pass_inputs, pass_optima, tracer=None):
    """Run one pass.

    Returns seconds per op, durations of the workload's reference kernel
    run between ops (about 5% of the pass), and an OpResult per op.
    """
    from reference import reference_times
    from workloads import OpResult

    times, refs, results = [], reference_times(wl.reference_kind, REF_FIRST_S), []
    clock = time.perf_counter
    for i, (x, opt) in enumerate(zip(pass_inputs, pass_optima)):
        if tracer is not None:
            tracer.op = i
        output, res = None, None
        t0 = clock()
        try:
            output = wl.run(x)
        except Exception:
            res = OpResult(problems=["exception:\n" + traceback.format_exc()])
        times.append(clock() - t0)
        refs += reference_times(wl.reference_kind, max(REF_MIN_S, REF_SHARE * times[-1]))
        if res is None:
            try:
                res = wl.check(x, output, opt)
            except Exception:
                res = OpResult(problems=["check raised:\n" + traceback.format_exc()])
        results.append(res)
    return times, refs, results


def _fmt(value, unit) -> str:
    return "n/a" if value is None else f"{value:.6g} {unit}"


def _end_to_end(wl, setup_samples, pass_times, pass_refs, pass_results) -> tuple[dict, list[str]]:
    """The nine end-to-end metrics of the issue (``None`` where one does not
    apply), with ``setup_s`` drift-corrected and the raw figure in
    ``setup_raw_s``, plus ``unrefined_ratio`` and the drift-corrected
    ``wall_rel`` and ``op_rel_p50``."""
    from tracing import tail

    all_times = [t for times in pass_times for t in times]
    ref = statistics.median(r for refs in pass_refs for r in refs)
    all_results = [r for results in pass_results for r in results]
    walls = [sum(times) for times in pass_times]
    evals = [sum(r.n_evaluations for r in results) for results in pass_results]
    cut_ratios = [x for r in all_results for x in r.cut_ratios]
    unrefined = [x for r in all_results for x in r.unrefined_ratios]
    exp_ratios = [x for r in all_results for x in r.expectation_ratios]
    failed = sum(bool(r.problems) for r in all_results)
    op_tail = tail(all_times)
    values = {
        "setup_s": SETUP_NOMINAL_S * statistics.median(raw / ref for raw, ref in setup_samples),
        "setup_raw_s": statistics.median(raw for raw, _ in setup_samples),
        "wall_s": statistics.median(walls),
        "op_s_p50": statistics.median(all_times),
        "op_s_tail": op_tail[0] if op_tail else None,
        "evals_per_s": (statistics.median(e / w for e, w in zip(evals, walls))
                        if any(evals) else None),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "approx_ratio": statistics.fmean(cut_ratios) if cut_ratios else None,
        "unrefined_ratio": statistics.fmean(unrefined) if unrefined else None,
        "expectation_ratio": statistics.fmean(exp_ratios) if exp_ratios else None,
        "failed_frac": failed / len(all_results),
        "wall_rel": statistics.median(walls) / ref,
        "op_rel_p50": statistics.median(all_times) / ref,
    }
    units = {"setup_s": "s", "setup_raw_s": "s", "wall_s": "s", "op_s_p50": "s",
             "op_s_tail": "s", "evals_per_s": "1/s", "peak_rss_mib": "MiB",
             "approx_ratio": "ratio", "unrefined_ratio": "ratio", "expectation_ratio": "ratio",
             "failed_frac": "ratio", "wall_rel": "ref", "op_rel_p50": "ref"}
    notes = {
        "setup_s": (f"setup_raw_s at a {SETUP_KERNEL} reference-kernel time of "
                    f"{SETUP_NOMINAL_S * 1e3:.4g} ms"),
        "setup_raw_s": f"median of {len(setup_samples)} fresh processes",
        "wall_s": f"median of {len(walls)} passes of {wl.ops_per_pass} ops",
        "op_s_p50": f"{len(all_times)} ops",
        "op_s_tail": (f"p{op_tail[1]:.4g} of {op_tail[2]} ops" if op_tail
                      else f"needs >= 11 ops, have {len(all_times)}"),
        "failed_frac": f"{failed}/{len(all_results)}",
        "wall_rel": f"wall_s over the {wl.reference_kind} reference kernel's median "
                    f"{ref * 1e3:.4g} ms (see reference.py)",
        "op_rel_p50": "op_s_p50 in the same units",
    }
    lines = [f"{name:<18} {_fmt(v, units[name]):<22} {notes.get(name, '')}".rstrip()
             for name, v in values.items()]
    return {k: (v, units[k]) for k, v in values.items()}, lines


def _report(correct, attempted, failed, metrics, human_lines, record, run_dir):
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    for line in human_lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _problems_text(pass_results, label) -> list[str]:
    return [f"{label} pass {p} op {i}: {problem}"
            for p, results in enumerate(pass_results)
            for i, r in enumerate(results) for problem in r.problems]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Before numpy loads; setup probes inherit the same environment.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("QMAXCUT_")]:
        del os.environ[var]
    if not (SRC / "qmaxcut" / "__init__.py").is_file():
        print(f"bench: no qmaxcut sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup(args.workload, args.seed, args.seconds, args.trace)
        ready = time.monotonic()
        from reference import reference_times, warm_up

        warm_up()
        print(ready, statistics.median(reference_times(SETUP_KERNEL, SETUP_REF_S)))
        return 0

    setup_samples = [_probe_setup(args) for _ in range(SETUP_PROBES)]
    wl, run_dir, inputs = _setup(args.workload, args.seed, args.seconds, args.trace)
    from reference import warm_up

    warm_up()  # before the operations, so the kernels cannot set peak_rss_mib
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    passes = len(inputs)
    timed_passes = passes if args.trace == 0 else max(1, passes // 2)
    optima = _optima(wl, inputs[:timed_passes])

    pass_times, pass_refs, pass_results = [], [], []
    for p in range(timed_passes):
        times, refs, results = _run_pass(wl, inputs[p], optima[p])
        pass_times.append(times)
        pass_refs.append(refs)
        pass_results.append(results)
    e2e, e2e_lines = _end_to_end(wl, setup_samples, pass_times, pass_refs, pass_results)

    prov = _provenance(wl, args.seed, passes)
    problems = _problems_text(pass_results, "timed")
    attempted = sum(len(r) for r in pass_results)
    failed = sum(bool(x.problems) for r in pass_results for x in r)
    header = [f"# qmaxcut bench workload={wl.name} seed={args.seed} trace={args.trace} "
              f"passes={timed_passes} ops/pass={wl.ops_per_pass}",
              "# provenance " + json.dumps(prov, sort_keys=True)]
    record = {"provenance": prov, "end_to_end": e2e, "op_seconds": pass_times}

    if args.trace == 0:
        correct = failed == 0
        _report(correct, attempted, failed, {k: e2e[k] for k, _ in END_TO_END},
                header + e2e_lines + problems, record | {"problems": problems}, run_dir)
        shutil.rmtree(run_dir / "timed", ignore_errors=True)
        return 0

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_times, traced_refs, traced_results = [], [], []
        for p in range(timed_passes):
            tracer.op = -1
            pass_inputs = wl.make_inputs(args.seed, p, run_dir / "traced")
            times, refs, results = _run_pass(wl, pass_inputs, optima[p], tracer)
            traced_times.append(times)
            traced_refs.append(refs)
            traced_results.append(results)
    finally:
        tracer.uninstall()

    for timed, traced in zip(pass_results, traced_results):
        for a, b in zip(timed, traced):
            if not b.problems and a.fingerprint != b.fingerprint:
                b.problems.append("output differs from the timed run of the same inputs")
    problems += _problems_text(traced_results, "traced")
    attempted += sum(len(r) for r in traced_results)
    failed += sum(bool(x.problems) for r in traced_results for x in r)

    # Compared in reference units, so machine drift between the two
    # phases does not read as tracing cost.
    def rel_wall(times, refs):
        return (statistics.median(sum(t) for t in times)
                / statistics.median(r for rs in refs for r in rs))

    untraced_wall = rel_wall(pass_times, pass_refs)
    traced_wall = rel_wall(traced_times, traced_refs)
    layers = tracing.layer_metrics(
        tracer,
        # Only the CLI writes files, all of them under its --out directory.
        bytes_written=sum(f.stat().st_size for f in (run_dir / "traced").rglob("*")
                          if f.is_file()),
        overhead_frac=(traced_wall - untraced_wall) / untraced_wall,
    )
    # A function the rebinding missed shows up as a call count that
    # disagrees with what the operations themselves report.
    expected = wl.expected_calls([x for r in traced_results for x in r], tracer)
    self_check = [f"self-check: {name} = {layers[name]}, expected {want}"
                  for name, want in expected.items() if layers[name] != want]
    problems += self_check
    correct = failed == 0 and not self_check

    units = dict(tracing.PER_LAYER)
    layer_lines = [f"{name:<48} {layers[name]:.6g} {units[name]}" for name in units]
    with open(run_dir / "spans.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    record |= {"per_layer": layers, "problems": problems, "traced_op_seconds": traced_times}
    _report(correct, attempted, failed, {k: (layers[k], units[k]) for k in units},
            header + e2e_lines + layer_lines + problems, record, run_dir)
    shutil.rmtree(run_dir / "timed", ignore_errors=True)
    shutil.rmtree(run_dir / "traced", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
