#!/usr/bin/env python3
"""gfourier benchmark: run one workload for a fixed time and check every output.

    python3 bench/run.py --workload kernels|norms|structure|cli --seed N --seconds S --trace 0|1

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
STARTUP_REPEATS = 3  # this interpreter's own start-up and two fresh ones
# BLAS threads are pinned before numpy loads, here and in the fresh interpreters
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the pinning)
from oracles import CheckFailed, KnownFault  # noqa: E402


def tail_percentile(per_round: int) -> int:
    """Highest whole percentile with at least ten tasks of every round beyond it."""
    return math.floor(100 * (per_round - 10) / per_round)


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


# Times are CPU times of this process.  Every task runs on one thread (BLAS is
# pinned to one), so on an idle core that is its wall time; on a shared host it
# leaves out the time spent waiting for a core, which belongs to the other
# tenants, not the program.
#
# The machine's speed changes with its other tenants' load, by up to 1.8x in
# CPU time within minutes.  A fixed probe of the benchmark's own, timed next to
# every task, tells how fast the machine runs at that moment, and every time is
# rescaled to the speed at which the probe takes PROBE_REFERENCE_S.
PROBE_REFERENCE_S = 1.0e-4  # the probe's median on an idle core of the 2-core machine
PROBE_EVERY_S = 0.02  # CPU seconds of tasks between two probe blocks
PROBE_REPEATS = 5
_PROBE_MATRIX = np.linspace(0.0, 1.0, 64).reshape(8, 8) / 8


def _probe() -> float:
    """A fixed piece of interpreter and small-matrix work, like the program's own."""
    acc = 0.0
    for i in range(1500):
        acc += i * 0.5
    a = _PROBE_MATRIX
    for _ in range(20):
        a = a @ _PROBE_MATRIX
    return acc + a[0, 0]


def probe_block() -> float:
    """Median CPU seconds of a few probes run now."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.process_time()
        _probe()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def at_reference(seconds: float, probe_s: float) -> float:
    """CPU seconds measured while the probe took probe_s, at the reference speed."""
    return seconds * PROBE_REFERENCE_S / probe_s


class Runner:
    """Closed loop, one caller: a task starts only after the previous returned."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rounds: list[list[float]] = []  # CPU seconds of every task, round by round
        self.probes: list[list[float]] = []  # probe time around every task, round by round
        self.latencies: list[tuple[str, float]] = []
        self.unexpected: list[str] = []
        self.known: set[str] = set()

    def run(self, tasks, record: bool = True) -> float:
        """Run one pass over the tasks; return the CPU seconds spent inside
        calls, at the reference speed.  A probe block runs before the first
        task, after every PROBE_EVERY_S of task time and after the last task;
        a task's probe time is the mean of the blocks on either side of it."""
        lat, blocks, block_before = [], [probe_block()], []
        since = 0.0
        for task in tasks:
            if since >= PROBE_EVERY_S:
                blocks.append(probe_block())
                since = 0.0
            block_before.append(len(blocks) - 1)
            lat.append(self._call(task))
            since += lat[-1]
        blocks.append(probe_block())
        probes = [(blocks[i] + blocks[i + 1]) / 2 for i in block_before]
        if record:
            self.rounds.append(lat)
            self.probes.append(probes)
        return sum(at_reference(t, p) for t, p in zip(lat, probes))

    def _call(self, task) -> float:
        self.attempted += 1
        t0 = time.process_time()
        try:
            out = task.call()
        except Exception as err:  # a task that raises is a failed task
            self.failed += 1
            self.unexpected.append(f"{task.kind} on {task.group}: raised {err!r}")
            return time.process_time() - t0
        dt = time.process_time() - t0
        self.latencies.append((task.kind, dt))
        try:
            task.check(out)
        except KnownFault as err:
            self.failed += 1
            self.known.add(f"{task.kind} on {task.group}: {err}")
        except CheckFailed as err:
            self.failed += 1
            self.unexpected.append(f"{task.kind} on {task.group}: {err}")
        return dt

    def typical_round(self) -> list[float]:
        """Each task's latency at the reference speed, as the median over the
        rounds of the run.  Every round repeats the same tasks on inputs of the
        same difficulty."""
        scaled = [[at_reference(t, p) for t, p in zip(lat, probes)]
                  for lat, probes in zip(self.rounds, self.probes)]
        return [statistics.median(column) for column in zip(*scaled)]


def warm(tasks, group: str) -> None:
    for task in tasks:
        if task.group == group:
            try:
                task.call()
            except Exception:  # the timed phase records the failure
                pass


def fresh_interpreters(env: dict, code: str, repeats: int) -> list[float]:
    """Run `code` in fresh interpreters, one after another; each prints a time in seconds."""
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True)
        samples.append(float(done.stdout))
    return samples


def fresh_import_ms(env: dict) -> float:
    code = "import time; t = time.perf_counter(); import gfourier.cli; print(time.perf_counter() - t)"
    return statistics.median(fresh_interpreters(env, code, IMPORT_REPEATS)) * 1e3


def fresh_startup_s(env: dict) -> list[float]:
    """CPU seconds from interpreter start to the end of the imports this script
    makes, in fresh interpreters, at the reference speed."""
    bench = str(ROOT / "bench")
    code = (f"import sys, time; sys.path.insert(0, {bench!r}); import run, gfourier, workloads, tracing; "
            "print(time.process_time())")
    samples = []
    for _ in range(STARTUP_REPEATS - 1):
        before = probe_block()
        (cpu,) = fresh_interpreters(env, code, 1)
        samples.append(at_reference(cpu, (before + probe_block()) / 2))
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("kernels", "norms", "structure", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "gfourier"
    if not (package / "__init__.py").is_file():
        print(f"error: no gfourier sources under {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gfourier

    if Path(gfourier.__file__).resolve().parent != package.resolve():
        print(f"error: imported gfourier from {gfourier.__file__}, not {package}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    import_s = time.process_time()  # interpreter start-up and the imports
    _probe()  # the first call pays for loading numpy's matrix product
    import_s = at_reference(import_s, probe_block())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    OUT.mkdir(parents=True, exist_ok=True)

    wl = workloads.make(args.workload, ROOT)
    samples = []
    for _ in range(SETUP_REPEATS):
        before = probe_block()
        t0 = time.process_time()
        state = wl.setup(args.seed)
        tasks = wl.round(state, 0)
        warm(tasks, wl.warm_group)
        samples.append(at_reference(time.process_time() - t0, (before + probe_block()) / 2))
    startup = [import_s, *fresh_startup_s(env)]
    setup_s = statistics.median(startup) + statistics.median(samples)
    per_round = len(tasks)

    runner = Runner()
    tracer = Tracer() if args.trace else None
    untraced_busy = traced_busy = 0.0
    rounds = 0
    start = time.perf_counter()
    try:
        while True:
            untraced_busy += runner.run(tasks)
            if tracer:
                tracer.install()
                try:
                    traced_busy += runner.run(tasks, record=False)
                finally:
                    tracer.uninstall()
            rounds += 1
            if time.perf_counter() - start >= args.seconds and rounds >= getattr(wl, "min_rounds", 1):
                break
            tasks = wl.round(state, rounds)
        if hasattr(wl, "finish"):
            try:
                wl.finish(state)
            except CheckFailed as err:
                runner.unexpected.append(f"{wl.name}: {err}")
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup(state)

    typical = runner.typical_round()
    busy = sum(dt for _, dt in runner.latencies)
    pct = tail_percentile(per_round)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics(rounds).items()}
        metrics["cli.import_ms"] = {"value": fresh_import_ms(env), "unit": "ms"}
        overhead = 100 * (traced_busy / untraced_busy - 1) if untraced_busy else 0.0
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "tasks_per_s": {"value": len(typical) / sum(typical), "unit": "1/s"},
            "task_p50_ms": {"value": statistics.median(typical) * 1e3, "unit": "ms"},
            "task_tail_ms": {"value": nearest_rank(sorted(typical), pct) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }

    by_kind: dict[str, list[float]] = defaultdict(list)
    for kind, dt in runner.latencies:
        by_kind[kind].append(dt)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {rounds}  "
          f"tasks/round {per_round}  tail p{pct}  BLAS threads {BLAS_THREADS}")
    probe_ms = statistics.median(p for round_probes in runner.probes for p in round_probes) * 1e3
    unscaled = [statistics.median(column) for column in zip(*runner.rounds)]
    print(f"probe median {probe_ms:.4f} ms, reference {PROBE_REFERENCE_S * 1e3:.4f} ms; "
          f"unscaled CPU time of the typical round: {len(unscaled) / sum(unscaled):.4g} tasks/s")
    print(f"{'task kind':28} {'count':>6} {'share':>7} {'p50 ms':>10}")
    for kind, dts in by_kind.items():
        print(f"{kind:28} {len(dts):6d} {100 * sum(dts) / busy:6.1f}% {statistics.median(dts) * 1e3:10.3f}")
    for msg in sorted(runner.known):
        print(f"known fault: {msg}")
    for msg in runner.unexpected[:10]:
        print(f"FAILED: {msg}", file=sys.stderr)

    result = {"correct": not runner.unexpected, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, rounds=rounds,
                  tasks_per_round=per_round, tail_percentile=pct, setup_samples_s=samples, startup_s=startup,
                  round_cpu_s=runner.rounds, round_probe_s=runner.probes, probe_reference_s=PROBE_REFERENCE_S,
                  kinds={k: {"count": len(v), "busy_s": sum(v)} for k, v in by_kind.items()})
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
