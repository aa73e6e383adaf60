#!/usr/bin/env python3
"""qsteer benchmark: closed-loop workloads, end-to-end metrics, layer trace.

Run from the root of a qsteer source checkout:

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --self-test

--trace 0 measures the end-to-end metrics for --seconds seconds. --trace 1 runs
a fixed amount of work twice, untraced then traced, and reports per-layer
calls, counts and self times plus the tracing overhead; its spans are written
to perfbench/out/. The last line of standard output is one JSON object with
keys correct, attempted, failed and metrics. Seed 104729 is held out: it was
not run while the benchmark was built, so it can confirm a claimed gain. See
perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS/OpenMP thread caps, set before numpy loads; the workloads are single
# process and their matrices are 2x2 to 16x16, where BLAS threads only add cost
THREAD_CAP = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREAD_CAP

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("montecarlo", "analyze-full", "sphere-scan", "appendix")
SETUP_PROBES = 3
WARMUP_REP = 2**31  # repetition index of the untimed warm-up input, never reached by a run

LAYER_METRICS = [  # (name, unit), the per_layer list of BENCHMARK.json
    ("randgen.random_state.calls", "count"), ("randgen.random_state.self_s", "s"),
    ("pauli.pauli_tensor.calls", "count"), ("pauli.pauli_tensor.self_s", "s"),
    ("steering.trace_norm.calls", "count"), ("steering.trace_norm.self_s", "s"),
    ("steering.h_pair.calls", "count"), ("steering.h_pair.self_s", "s"),
    ("steering.steering_report.calls", "count"), ("steering.steering_report.self_s", "s"),
    ("states.partial_trace.calls", "count"), ("states.partial_trace.self_s", "s"),
    ("states.purity_deficit.calls", "count"), ("states.purity_deficit.self_s", "s"),
    ("states.permute_qubits.calls", "count"), ("states.permute_qubits.self_s", "s"),
    ("states.validate_state.calls", "count"), ("states.validate_state.self_s", "s"),
    ("states.state_from_payload.calls", "count"), ("states.state_from_payload.self_s", "s"),
    ("monogamy.schmidt_f_batch.calls", "count"), ("monogamy.schmidt_f_batch.points", "count"),
    ("monogamy.schmidt_f_batch.self_s", "s"), ("monogamy.schmidt_f_batch.points_per_call", "count"),
    ("monogamy.verify_monogamy.self_s", "s"), ("monogamy.verify_monogamy.samples", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"),
]
# layers only the appendix workload runs; it is not in BENCHMARK.json
OPTIMISATION_METRICS = [
    ("monogamy.minimize_f.self_s", "s"), ("monogamy.minimize_f.starts", "count"),
    ("monogamy.minimize_f.converged", "count"), ("monogamy.minimize_f.dropped", "count"),
    ("monogamy.minimize_f.points", "count"), ("monogamy.minimize_f.converged_frac", "ratio"),
    ("monogamy.f_pipeline.calls", "count"), ("monogamy.f_pipeline.self_s", "s"),
]


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="show that each workload's check counts a perturbed reference as a failure")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is None and not args.self_test:
        p.error("--workload is required")
    return args


def _import_program():
    """Import qsteer from this checkout's src/, never from an installed copy."""
    if not (SRC / "qsteer" / "__init__.py").is_file():
        sys.exit(f"error: no qsteer sources under {SRC}; run from a qsteer checkout")
    sys.path.insert(0, str(SRC))
    import qsteer

    if Path(qsteer.__file__).resolve().parent != SRC / "qsteer":
        sys.exit(f"error: imported qsteer from {qsteer.__file__}, not from {SRC}")


def _header(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "qsteer").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _setup_seconds(args) -> list[float]:
    """Wall time from spawning a fresh interpreter to its inputs being ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                                 "--workload", args.workload, "--seed", str(args.seed)],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            sys.exit("error: set-up probe failed")
    return times


class Loop:
    """Closed loop over passes of a workload's unit kinds, checking every output."""

    def __init__(self, work):
        self.work = work
        self.durations: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.best = [math.inf] * work.units  # fastest repetition of each unit kind
        self.unit_items = [0] * work.units

    def run(self, seconds: float | None = None, passes: int | None = None, tracer=None) -> None:
        """Run until `seconds` have elapsed (at least one operation) or `passes` are done."""
        start = time.perf_counter()
        r = 0
        while passes is None or r < passes:
            for u in range(self.work.units):
                if seconds is not None and self.attempted and time.perf_counter() - start >= seconds:
                    return
                self._one(u, r, tracer)
            r += 1

    def _one(self, u: int, r: int, tracer) -> None:
        inp = self.work.make_input(u, r)
        if tracer is not None:
            tracer.op = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            n, out = self.work.op(inp)
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            print(f"# operation ({u}, {r}) raised {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += 1
            return
        dt = time.perf_counter() - t0
        self.durations.append(dt)
        self.items += n
        self.best[u] = min(self.best[u], dt)
        self.unit_items[u] = n
        try:
            ok = self.work.check(u, inp, out)
        except Exception as exc:  # a malformed output is a failed operation
            print(f"# check of ({u}, {r}) raised {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        self.failed += not ok

    def best_rate(self) -> float:
        """Items per second with every unit kind at its fastest repetition."""
        done = [u for u, b in enumerate(self.best) if b < math.inf]
        if not done:  # every operation raised
            return 0.0
        return sum(self.unit_items[u] for u in done) / sum(self.best[u] for u in done)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> dict:
    import workloads

    header = _header(args)
    print("# header " + json.dumps(header))
    setup = _setup_seconds(args)
    work = workloads.WORKLOADS[args.workload](args.seed)
    work.op(work.make_input(0, WARMUP_REP))  # untimed, so lazy set-up is not timed

    if args.trace == 0:
        loop = Loop(work)
        loop.run(seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed = loop.attempted, loop.failed
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "items_per_s": _metric(loop.best_rate(), "1/s"),
        }
        print(f"# {work.name}: {attempted} operations, {loop.items} {work.item}s, "
              f"{sum(loop.durations):.3f} s timed; setup probes {[round(t, 4) for t in setup]}")
        summary = [("setup_s", metrics["setup_s"]["value"], "s"),
                 ("peak_rss_mb", peak_rss_mb, "MB"),
                 ("error_rate", failed / attempted, "ratio")]
        for name, value, unit in summary + work.summary_metrics(loop.durations, loop.items):
            print(f"# metric {name} {value:.6g} {unit}")
    else:
        import spans

        untraced = Loop(work)
        untraced.run(passes=work.trace_passes)
        traced = Loop(work)
        with spans.Tracer() as tracer:
            traced.run(passes=work.trace_passes, tracer=tracer)
        untraced_s, traced_s = sum(untraced.durations), sum(traced.durations)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        names = LAYER_METRICS + (OPTIMISATION_METRICS if work.name == "appendix" else [])
        metrics = _layer_metrics(names, tracer, traced_s, untraced_s)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, header)
        print(f"# {work.name}: {traced.attempted} operations untraced in {untraced_s:.3f} s, "
              f"traced in {traced_s:.3f} s; {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_metrics(names, tracer, traced_s: float, untraced_s: float) -> dict:
    values = {name: 0 for name, _ in names}
    for name, entry in tracer.layer_totals().items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
    values.update(tracer.counts)
    batch = "monogamy.schmidt_f_batch"
    if values[f"{batch}.calls"]:
        values[f"{batch}.points_per_call"] = values[f"{batch}.points"] / values[f"{batch}.calls"]
    mini = "monogamy.minimize_f"
    if values.get(f"{mini}.starts"):
        values[f"{mini}.converged_frac"] = values[f"{mini}.converged"] / values[f"{mini}.starts"]
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return {name: _metric(values[name], unit) for name, unit in names}


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    results, failed, attempted, metrics = [], 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}:\n{proc.stderr}")
        res = json.loads(lines[-1])
        failed += res["failed"]
        attempted += res["attempted"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
        results.append((name, [ln[len("# metric "):] for ln in lines if ln.startswith("# metric ")]))
    for name, metric_lines in results:
        print(f"# {name}")
        for line in metric_lines:
            print(f"#   {line}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def self_test(args) -> int:
    """Each check passes on real outputs and fails when its reference is perturbed."""
    import workloads
    from qsteer import cli

    ok = True
    for name in WORKLOAD_NAMES:
        work = workloads.WORKLOADS[name](args.seed)
        clean = perturbed = 0
        if name == "appendix":
            # the reference here is the fixture table inside the program
            saved = cli.APPENDIX_FIXTURES
            cli.APPENDIX_FIXTURES = [(p, f + 10 * tol, tol) for p, f, tol in saved]
            try:
                inp = work.make_input(0, 0)
                perturbed = int(not work.check(0, inp, work.op(inp)[1]))
            finally:
                cli.APPENDIX_FIXTURES = saved
            ran = 1
        else:
            for u in range(work.units):
                inp = work.make_input(u, 0)
                out = work.op(inp)[1]
                clean += not work.check(u, inp, out)
                perturbed += not work.check(u, inp, out, perturb=2e-10)
            ran = work.units
        good = clean == 0 and perturbed == ran
        ok &= good
        print(f"# self-test {name}: clean failures {clean}/{ran}, perturbed failures {perturbed}/{ran} "
              f"-> {'ok' if good else 'NOT DETECTED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    if args.setup_only:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    if args.self_test:
        return self_test(args)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
