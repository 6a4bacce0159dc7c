"""Release acceptance gate.

Ten numbered criteria, one test each, covering exactness of the solvers,
simulator unitarity, optimizer quality floors, warm-start monotonicity,
runtime scaling, benchmark reproducibility, and pipeline accounting.  Every
test prints a single ``criterion NN ... PASS/FAIL`` line (visible in verbose
runs and in captured output) and pins its numeric tolerances inline.

Criterion 8 checks the runtime ordering greedy < depth-2 QAOA < brute force
at n=16 in the hybrid cost model, :func:`qmaxcut.pipeline.hybrid_cost`.  On
measured wall time it asserts only greedy < QAOA.  Simulated QAOA is not
timed against brute force: one dense-statevector evaluation at depth >= 2
costs about as much as one exhaustive sweep (at n=16 on a 2-vCPU Xeon,
~1 ms at p=2 on the flip-symmetric half in the optimizer's reused workspace,
~4 ms on the full register, against ~2.5 ms for the cut table whose argmax
is the whole brute force), so any useful budget of evaluations puts it far
above.  Depth-1 evaluations use a closed form (~0.03 ms), but the ladder's
depth-2 half still simulates.  The measured n=16 times of all three solvers
are printed on every run next to the modelled counts.
"""

import statistics
import time

import numpy as np

from golden.regenerate import mask_timings, run_child
from harness import EDGE
from qmaxcut import (
    QaoaConfig,
    QaoaParams,
    PipelineConfig,
    brute_force_maxcut,
    cut_value,
    generate_random_graph,
    greedy_maxcut,
    labels_from_index,
    run_pipeline,
    run_qaoa,
)
from qmaxcut.pipeline import hybrid_cost
from qmaxcut.qaoa import evaluate_params, optimize_params
from qmaxcut.simulator import (
    FlipSymmetricWorkspace,
    StateVector,
    apply_cost_layer,
    apply_qaoa_circuit,
    expectation_cut,
)


def _verdict(num, label, failures, extra=""):
    ok = not failures
    line = f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" — {extra}"
    if failures:
        shown = "; ".join(str(f) for f in failures[:5])
        line += f" — {shown}"
    print(line)
    assert ok, line


def test_criterion_01_exact_solver_and_expectation_identity():
    """Brute force equals a bit-mask re-enumeration; expectation_cut, and a
    flip-symmetric workspace's expectation of a circuit, equal the
    probability-weighted cut sum within 1e-9; 200 graphs, under 60 s."""
    failures = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    angles = np.random.default_rng(43)  # apart from rng, so the graphs stay the same
    for i in range(200):
        n = 2 + i % 9
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        g = generate_random_graph(n, m, 1000 + i)

        best = 0
        for mask in range(1 << g.n):
            crossings = 0
            for u, v in g.edges:
                crossings += (mask >> u ^ mask >> v) & 1
            if crossings > best:
                best = crossings
        got = brute_force_maxcut(g).assignment.cut_value
        if got != best:
            failures.append(f"graph {i}: brute {got} != oracle {best}")

        raw = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        raw /= np.linalg.norm(raw)
        sv = StateVector(n_qubits=n, amplitudes=raw)
        probs = np.abs(raw) ** 2
        want = sum(
            float(p) * cut_value(g, labels_from_index(n, b))
            for b, p in enumerate(probs)
        )
        if abs(expectation_cut(sv, g) - want) > 1e-9:
            failures.append(f"graph {i}: expectation off by >1e-9")

        # The product path: the flip-symmetric workspace's expectation
        # against the cut weighted by its own probabilities, copied because
        # the next preparation reuses their buffer.
        params = QaoaParams(
            gammas=tuple(angles.uniform(-6.3, 6.3, 1 + i % 3)),
            betas=tuple(angles.uniform(-6.3, 6.3, 1 + i % 3)),
        )
        ws = FlipSymmetricWorkspace(g)
        probs = ws.probabilities(params).copy()
        want = sum(
            float(p) * cut_value(g, labels_from_index(n, b))
            for b, p in enumerate(probs)
        )
        if abs(ws.expectation(params) - want) > 1e-9:
            failures.append(f"graph {i}: workspace expectation off by >1e-9")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, limit 60s")
    _verdict(1, "exact solver + expectation identity", failures, f"{elapsed:.1f}s")


def test_criterion_02_circuit_is_norm_preserving_and_cost_layer_diagonal():
    """500 (graph, params) pairs with n <= 12, p <= 3: norm, and the sum of a
    flip-symmetric workspace's probabilities, within 1e-10 of one, and a
    cost layer moves no basis probability by more than 1e-12."""
    failures = []
    rng = np.random.default_rng(7)
    for i in range(500):
        n = 1 + i % 12
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        g = generate_random_graph(n, m, 2000 + i)
        p = 1 + i % 3
        params = QaoaParams(
            gammas=tuple(rng.uniform(-6.3, 6.3, p)),
            betas=tuple(rng.uniform(-6.3, 6.3, p)),
        )
        sv = apply_qaoa_circuit(g, params)
        if abs(sv.norm() - 1.0) > 1e-10:
            failures.append(f"pair {i}: norm drift {abs(sv.norm() - 1.0):.2e}")
        total = float(FlipSymmetricWorkspace(g).probabilities(params).sum())
        if abs(total - 1.0) > 1e-10:
            failures.append(f"pair {i}: workspace probabilities sum to {total!r}")
        before = sv.probabilities()
        apply_cost_layer(sv, g, float(rng.uniform(-6.3, 6.3)))
        drift = float(np.max(np.abs(sv.probabilities() - before))) if n else 0.0
        if drift > 1e-12:
            failures.append(f"pair {i}: probability drift {drift:.2e}")
    _verdict(2, "norm preservation + diagonal cost layer", failures)


def test_criterion_03_single_edge_depth_one_near_optimal():
    """One edge, p=1, budget 500: expectation >= 0.99 and the returned cut is
    1, corroborated by a 100x100 closed-form grid over (gamma, beta) whose
    argmax the simulator, the full register and a workspace all reproduce."""
    failures = []
    t0 = time.perf_counter()
    result = run_qaoa(EDGE, QaoaConfig(p=1, budget=500, restarts=3, seed=0))

    gammas = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
    betas = np.linspace(0.0, np.pi, 100, endpoint=False)
    closed_form = 0.5 * (1.0 + np.sin(4 * betas)[None, :] * np.sin(gammas)[:, None])
    grid_max = float(closed_form.max())
    gi, bi = np.unravel_index(closed_form.argmax(), closed_form.shape)
    probe = QaoaParams(gammas=(float(gammas[gi]),), betas=(float(betas[bi]),))
    simulated = evaluate_params(EDGE, probe)
    statevector = expectation_cut(apply_qaoa_circuit(EDGE, probe), EDGE)
    workspace = FlipSymmetricWorkspace(EDGE).expectation(probe)

    if abs(simulated - grid_max) > 1e-9:
        failures.append(f"simulator {simulated} != closed form {grid_max} at grid argmax")
    if abs(statevector - grid_max) > 1e-9:
        failures.append(f"statevector {statevector} != closed form {grid_max} at grid argmax")
    if abs(workspace - grid_max) > 1e-9:
        failures.append(f"workspace {workspace} != closed form {grid_max} at grid argmax")
    if grid_max < 0.99:
        failures.append(f"grid oracle max {grid_max:.5f} below 0.99")
    if result.best_expectation < 0.99:
        failures.append(f"best_expectation {result.best_expectation:.5f} < 0.99")
    if result.best_expectation < grid_max - 1e-6:
        failures.append(
            f"optimizer {result.best_expectation:.6f} below grid oracle {grid_max:.6f}"
        )
    if result.best_cut.cut_value != 1:
        failures.append(f"best cut {result.best_cut.cut_value} != 1")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.1f}s, limit 5s")
    _verdict(3, "single-edge depth-1 optimum", failures,
             f"expectation {result.best_expectation:.6f}, grid {grid_max:.6f}")


def test_criterion_04_optimizer_never_below_uniform_baseline():
    """optimize_params returns a value >= m/2 - 1e-9 on 50 random graphs (the
    all-zero start keeps the uniform state reachable)."""
    failures = []
    for i in range(50):
        n = 3 + i % 6
        m = min(2 * n, n * (n - 1) // 2)
        g = generate_random_graph(n, m, 3000 + i)
        _, value, _ = optimize_params(g, QaoaConfig(p=1, budget=30, restarts=3, seed=i))
        if value < g.m / 2 - 1e-9:
            failures.append(f"graph {i}: {value} < {g.m / 2}")
    _verdict(4, "optimizer >= m/2 floor", failures)


def test_criterion_05_warm_start_monotone_in_depth():
    """Chaining warm starts p=1 -> 2 -> 3 never lowers best_expectation
    (tolerance 1e-9) on 20 seeded graphs with n in {6, 8, 10}."""
    failures = []
    for i in range(20):
        n = (6, 8, 10)[i % 3]
        m = min(2 * n, n * (n - 1) // 2)
        g = generate_random_graph(n, m, 500 + i)
        prev = None
        values = []
        for p in (1, 2, 3):
            r = run_qaoa(
                g,
                QaoaConfig(p=p, budget=45, restarts=3, seed=500 + i, warm_start=True),
                warm_params=prev,
            )
            values.append(r.best_expectation)
            prev = r.best_params
        if not (values[0] <= values[1] + 1e-9 and values[1] <= values[2] + 1e-9):
            failures.append(f"graph {i} (n={n}): {values}")
    _verdict(5, "warm-start depth monotonicity", failures)


def test_criterion_06_sandwiched_between_greedy_and_optimum():
    """On 20 seeded graphs (n <= 12): greedy <= QAOA(p=2, exact expectation,
    budget 2000) <= optimum, with the optimum attained on at least 70%;
    whole sweep under 10 minutes."""
    failures = []
    t0 = time.perf_counter()
    attained = 0
    for i in range(20):
        n = (6, 8, 10, 12)[i % 4]
        m = min(int(1.8 * n), n * (n - 1) // 2)
        g = generate_random_graph(n, m, 900 + i)
        optimum = brute_force_maxcut(g).assignment.cut_value
        greedy = greedy_maxcut(g).assignment.cut_value
        qaoa = run_qaoa(
            g, QaoaConfig(p=2, budget=2000, restarts=3, shots=0, seed=900 + i)
        ).best_cut.cut_value
        if not greedy <= qaoa <= optimum:
            failures.append(f"graph {i}: greedy {greedy}, qaoa {qaoa}, opt {optimum}")
        attained += qaoa == optimum
    if attained < 14:
        failures.append(f"optimum attained on {attained}/20 < 70%")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        failures.append(f"took {elapsed:.0f}s, limit 600s")
    _verdict(6, "greedy <= qaoa <= optimum", failures,
             f"attained {attained}/20, {elapsed:.0f}s")


def test_criterion_07_greedy_keeps_half_the_edges():
    """Greedy cut >= ceil(m/2) on 1000 random graphs with n <= 16."""
    failures = []
    rng = np.random.default_rng(11)
    for i in range(1000):
        n = 2 + i % 15
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        g = generate_random_graph(n, m, 4000 + i)
        got = greedy_maxcut(g).assignment.cut_value
        if got < (g.m + 1) // 2:
            failures.append(f"graph {i}: {got} < ceil({g.m}/2)")
    _verdict(7, "greedy >= ceil(m/2)", failures)


def test_criterion_08_runtime_ordering_across_algorithms():
    """Ordinal runtime shape: brute force slows >= 16x from n=8 to n=16,
    greedy stays under 10 ms everywhere, and depth-2 QAOA at n=16 lands
    between greedy and brute force.

    The QAOA clause is checked in the hybrid cost model,
    :func:`qmaxcut.pipeline.hybrid_cost`, at n=16, m=30, for the
    evaluations of a real run with ``QaoaConfig(p=2, budget=150,
    restarts=3, seed=0)``.

    On measured wall time only greedy < QAOA is asserted.  Simulated QAOA is
    not compared with brute force: on a dense exact statevector one
    evaluation at depth >= 2 costs Theta(2^n * m), about one exhaustive
    sweep even on the flip-symmetric half of the register (measured at
    n=16 on a 2-vCPU Xeon: ~1 ms at p=2 per evaluation in the optimizer's
    reused workspace, ~4 ms on the full register, against ~2.5 ms for
    the cut table whose argmax is the whole brute force), so no useful
    budget of evaluations puts it below brute force.
    Depth-1 evaluations, half of this run's ladder, use the closed form.
    The measured n=16 times of all three solvers are printed with the
    modelled counts on every run.
    """
    failures = []
    schedule = ((4, 5), (6, 9), (8, 12), (10, 15), (12, 20), (14, 25), (16, 30))

    def brute_median(n, m):
        g = generate_random_graph(n, m, 0)
        return statistics.median(brute_force_maxcut(g).elapsed for _ in range(3))

    brute8 = brute_median(8, 12)
    brute16 = brute_median(16, 30)
    if brute16 < 16 * brute8:
        failures.append(f"brute n=16 {brute16:.4f}s < 16x n=8 {brute8:.6f}s")

    greedy_median = {}
    for n, m in schedule:
        g = generate_random_graph(n, m, 0)
        greedy_median[n] = statistics.median(greedy_maxcut(g).elapsed for _ in range(3))
    greedy_worst = max(greedy_median.values())
    if greedy_worst >= 0.010:
        failures.append(f"greedy worst {greedy_worst * 1e3:.3f}ms >= 10ms")

    g16 = generate_random_graph(16, 30, 0)
    p = 2
    report = run_pipeline(
        g16, PipelineConfig(qaoa=QaoaConfig(p=p, budget=150, restarts=3, seed=0))
    )
    qaoa16 = report.qaoa_result.elapsed
    cost = hybrid_cost(g16, p, report.qaoa_result.n_evaluations, 0.0)
    greedy_ops, qaoa_ops, brute_ops = cost["greedy"], cost["qaoa"], cost["brute force"]
    if not greedy_ops < qaoa_ops < brute_ops:
        failures.append(
            f"modelled ordering violated: greedy {greedy_ops}, "
            f"qaoa(p={p}) {qaoa_ops}, brute {brute_ops} at n=16"
        )
    if not greedy_worst < qaoa16:
        failures.append(
            f"measured greedy worst {greedy_worst:.6f}s >= qaoa(p={p}) {qaoa16:.3f}s"
        )
    _verdict(
        8,
        "runtime ordering",
        failures,
        f"brute ratio {brute16 / brute8:.0f}x, greedy {greedy_worst * 1e3:.3f}ms; "
        f"n=16 measured greedy {greedy_median[16]:.6f}s, qaoa(p={p}) {qaoa16:.3f}s, "
        f"brute {brute16 * 1e3:.3f}ms; modelled ops greedy {greedy_ops}, "
        f"qaoa(p={p}) {qaoa_ops} ({cost['jobs']} jobs x {cost['gates per job']}), "
        f"brute {brute_ops}",
    )


def test_criterion_09_benchmark_rerun_reproducible(tmp_path):
    """Two full default benchmark runs with identical flags produce byte-
    identical CSV and plot data apart from measured runtime fields."""
    failures = []

    def run_bench(directory):
        directory.mkdir()
        out = directory / "bench.csv"
        res = run_child("-m", "qmaxcut", "bench", "--seed", "0", "--out", str(out))
        if res.returncode != 0:
            failures.append(f"bench exited {res.returncode}: {res.stderr[:200]}")
        return {path.name: mask_timings(path.name, path.read_text())
                for path in sorted(directory.iterdir())}

    first = run_bench(tmp_path / "a")
    second = run_bench(tmp_path / "b")
    if set(first) != set(second):
        failures.append(f"artifact sets differ: {sorted(first)} vs {sorted(second)}")
    else:
        for name in first:
            if first[name] != second[name]:
                failures.append(f"{name} differs outside runtime fields")
    _verdict(9, "benchmark rerun reproducibility", failures, f"{len(first)} artifacts")


def test_criterion_10_pipeline_accounting_and_refinement():
    """simulated_comm_overhead equals offload_count * latency exactly, and
    postprocessing never lowers the cut, across 100 seeded pipeline runs."""
    failures = []
    for i in range(100):
        n = 4 + i % 6
        m = min(2 * n, n * (n - 1) // 2)
        g = generate_random_graph(n, m, 7000 + i)
        latency = 0.001 * (i % 7)
        cfg = PipelineConfig(
            qaoa=QaoaConfig(p=1, budget=20, restarts=3, seed=i),
            offload_latency=latency,
        )
        report = run_pipeline(g, cfg)
        if report.simulated_comm_overhead != report.offload_count * latency:
            failures.append(f"run {i}: overhead not an exact product")
        if report.final_cut.cut_value < report.qaoa_result.best_cut.cut_value:
            failures.append(
                f"run {i}: refinement lost weight "
                f"({report.final_cut.cut_value} < {report.qaoa_result.best_cut.cut_value})"
            )
    _verdict(10, "pipeline accounting + refinement", failures)
