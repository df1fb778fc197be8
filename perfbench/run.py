"""perdec benchmark: three seeded, closed-loop workloads, one client each.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7   # every workload

Seed 1 is the default seed and seed 7 the held-out seed.

Workloads (see workloads.py):
  search     search_counterexample(n=4, max_size=6, trials=1), the
             acceptance gate's dominant configuration: thousands of tiny
             star scans, no relation search, no compat scan.
  construct  decompose_two on N = 10..40 and decompose_three on N = 10..24:
             few large star scans, compat scans, relation search, transfer
             solvers; the oracle runs only in the untimed cross-check.
  certify    in-process `perdec` CLI calls on instance files (oracle,
             lattice-decompose, bounded-transfer, star-check), each
             certificate replayed with --verify as its own op.

A run builds round(rate * seconds) tasks from the seed (so the same seed
and length give the same inputs on any machine), warms up on the first
task of each kind, runs every task once with timing, then checks every
output outside the timed interval.  --trace 0 reports the end-to-end
metrics; --trace 1 runs the tasks once untraced and once traced (so it
takes about twice as long) and reports per-layer metrics from the traced
pass, plus the tracing overhead.  The last stdout line is one JSON object:
correct, attempted, failed and metrics.  Records, spans and working files
go to perfbench/out/; compare.py compares records.

End-to-end latencies are normalized to a reference host speed (see
hostspeed.py); the records keep the raw figures as well.  Per-layer times
are raw.  Setup time is the import of perdec.cli in fresh interpreters,
the median of SETUP_REPEATS imports, each normalized by the import of a
fixed set of standard-library modules in the next fresh interpreter.

A run fails (correct = false) when any op raises, exits 2, returns a wrong
verdict or fails its --verify replay, or when its result digest or work
counters differ from an earlier run of the same seed and length on the
same code (the same perdec sources and benchmark files, uncommitted edits
included).

peak_rss_mb is read right after the measured pass, before the untimed
checks; it includes the task inputs and the outputs of the warm-up and
measured passes, which the harness holds until the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from hostspeed import HostSpeed, calibrate  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
SETUP_REPEATS = 15

# Setup time is normalized by a probe of the same kind of work: importing
# a fixed set of standard-library modules that perdec does not use, in its
# own fresh interpreter, right after each timed perdec import.  The spin
# probe of hostspeed.py tracks op latency but not import time, which moves
# less with the host's speed.
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import {}; "
                  "print(time.perf_counter() - t)")
PROBE_MODULES = ("unittest, http.client, pydoc, xml.dom.minidom, logging, "
                 "tarfile")
# probe import time on the reference host state (2-core shared VM, Python
# 3.11); only the scale of the normalized setup time depends on it
REFERENCE_IMPORT_S = 0.06


def percentile(values: List[float], q: int) -> float:
    """q-th percentile (inclusive method) of at least two values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(repeats: int) -> Tuple[List[float], List[float]]:
    """Seconds to import perdec.cli in fresh interpreters, raw and
    host-normalized, after one untimed round that leaves the bytecode
    caches warm."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    def import_seconds(modules: str) -> float:
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET.format(modules)], env=env,
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        return float(done.stdout)

    raw, normalized = [], []
    for i in range(repeats + 1):
        seconds = import_seconds("perdec.cli")
        probe = import_seconds(PROBE_MODULES)
        if i:
            raw.append(seconds)
            normalized.append(seconds * REFERENCE_IMPORT_S / probe)
    return raw, normalized


def code_digest() -> str:
    """sha256 of the perdec sources and the benchmark's own files, as they
    are on disk, so that runs of different code are never compared."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "perdec"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("__pycache__", "out")
                                 and not d.startswith("."))
            for filename in sorted(filenames):
                if filename.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def host_info() -> Dict[str, Any]:
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


# ---------------------------------------------------------------------------
# running the tasks


class Pass:
    """Timings and outputs of one pass over the task list.

    A timing is (start, seconds).  `speed` holds the probe samples taken
    before each op.  Every certificate is replayed right after the op that
    produced it, so the replay timings span the pass; they count as ops
    only in workloads whose ops are CLI calls.
    """

    def __init__(self, replay_is_op: bool) -> None:
        self.replay_is_op = replay_is_op
        self.speed = HostSpeed()
        self.produce: List[Tuple[Tuple[float, float], Any, Optional[str]]] = []
        self.replays: Dict[int, Tuple[Tuple[float, float], int, str]] = {}

    def timings(self, kind: str) -> List[Tuple[float, float]]:
        produce = [timing for timing, _, _ in self.produce]
        replays = [timing for timing, _, _ in self.replays.values()]
        if kind == "op":
            return produce + replays if self.replay_is_op else produce
        return produce if kind == "produce" else replays

    def raw(self, kind: str = "op") -> List[float]:
        return [seconds for _, seconds in self.timings(kind)]

    def normalized(self, kind: str = "op") -> List[float]:
        return [seconds * self.speed.scale_at(start)
                for start, seconds in self.timings(kind)]


def timed(speed: HostSpeed, call, tracer=None, op: int = 0):
    """Run one op: ((start, seconds), result, error)."""
    speed.sample()
    if tracer is not None:
        tracer.op = op
    result = error = None
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # an op that raises is a failed op
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    return (start, elapsed), result, error


def replay(speed: HostSpeed, argv: List[str], tracer=None, op: int = 0):
    """Time one `perdec ... --verify` replay: (timing, code, stdout)."""
    from workloads import run_cli

    timing, output, error = timed(speed, lambda: run_cli(argv), tracer, op)
    code, text = output if error is None else (2, error)
    return timing, code, text


def run_pass(workload, tasks, tracer=None) -> Pass:
    result = Pass(workload.replay_is_op)
    op = 0
    for index, task in enumerate(tasks):
        timing, output, error = timed(result.speed, task.produce, tracer, op)
        op += 1
        result.produce.append((timing, output, error))
        argv = None if error is not None else task.replay(output)
        if argv is None:
            continue
        if workload.replay_is_op:
            result.replays[index] = replay(result.speed, argv, tracer, op)
            op += 1
        else:
            result.replays[index] = replay(result.speed, argv)
    result.speed.sample()
    return result


def _replay_error(code: int, text: str) -> Optional[str]:
    try:
        doc = json.loads(text)
    except ValueError:
        doc = {}
    if code != 0 or doc != {"result": "verified", "agrees": True}:
        return f"--verify exit {code}: {text.strip()}"
    return None


def check_pass(tasks, measured: Pass) -> Tuple[Dict[int, str], str]:
    """Check every output outside the timed interval.

    Returns (failure per task index, digest of all result documents).
    """
    failures: Dict[int, str] = {}
    digest = hashlib.sha256()
    for index, (task, (_, output, error)) in enumerate(
            zip(tasks, measured.produce)):
        if error is not None:
            failures[index] = error
            continue
        digest.update(task.document(output).encode())
        problem = task.check(output)
        if index in measured.replays:
            _, code, text = measured.replays[index]
            digest.update(f"{code}\n{text}".encode())
            problem = problem or _replay_error(code, text)
        if problem:
            failures[index] = problem
    return failures, digest.hexdigest()


def changed_outputs(tasks, first: Pass, second: Pass,
                    indices) -> Dict[int, str]:
    """Tasks whose two runs on the same input gave different results."""
    out = {}
    for i, j in indices:
        a, b = first.produce[i], second.produce[j]
        if a[2] is None and b[2] is None and \
                tasks[j].document(a[1]) != tasks[j].document(b[1]):
            out[j] = "output changed between two runs of the same input"
    return out


# ---------------------------------------------------------------------------
# determinism across runs


def check_reproduced(key: str, digest: str,
                     counters: Optional[Dict[str, int]]) -> List[str]:
    """Compare with the stored digest and counters of the same seed and
    length, then store this run's."""
    path = os.path.join(OUT, "determinism", key + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    stored: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    problems = []
    if stored.get("digest", digest) != digest:
        problems.append(f"result digest differs from an earlier run of "
                        f"{key}: {stored['digest']} vs {digest}")
    if counters is not None:
        if stored.get("counters", counters) != counters:
            diff = {k: (stored["counters"].get(k), v)
                    for k, v in counters.items()
                    if stored["counters"].get(k) != v}
            problems.append(f"work counters differ from an earlier run of "
                            f"{key}: {diff}")
        stored["counters"] = counters
    stored["digest"] = digest
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
    return problems


# ---------------------------------------------------------------------------
# one workload


def per_layer_units() -> Dict[str, Tuple[str, str]]:
    """Per-layer metric name -> (unit, better)."""
    from tracing import GROUPS, LAYERS

    out: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
    for group in ("kernels.star_scan", "kernels.compat_scan"):
        out[f"{group}.calls"] = ("count", "lower")
        out[f"{group}.self_s"] = ("s", "lower")
        out[f"{group}.cells"] = ("count", "lower")
    out["kernels.star_scan.hit_ratio"] = ("ratio", "higher")
    out["kernels.route.pure"] = ("count", "lower")
    out["kernels.route.compiled"] = ("count", "higher")
    out["kernels.route.int64_fallback"] = ("count", "lower")
    for group in GROUPS:
        out.setdefault(f"{group}.self_s", ("s", "lower"))
    out["orbits.find_relation.calls"] = ("count", "lower")
    out["orbits.find_relation.grid_cells"] = ("count", "lower")
    out["orbits.find_relation.found_ratio"] = ("ratio", "higher")
    out["oracle.elim.calls"] = ("count", "lower")
    out["oracle.elim.cells"] = ("count", "lower")
    out["oracle.dual.max_bits"] = ("bit", "lower")
    out["serialize.bytes_in"] = ("B", "lower")
    out["serialize.bytes_out"] = ("B", "lower")
    out["bench.unattributed_s"] = ("s", "lower")
    out["bench.trace_overhead"] = ("ratio", "lower")
    return out


def end_to_end(measured: Pass, setup: List[float], peak_rss_kb: int,
               normalize: bool) -> Dict[str, Tuple[float, str, int]]:
    """name -> (value, unit, sample count) from one measured pass."""
    pick = measured.normalized if normalize else measured.raw
    ops, produce, verify = pick("op"), pick("produce"), pick("verify")
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (len(ops) / sum(ops), "1/s", len(ops)),
        "op_p50_ms": (1e3 * statistics.median(ops), "ms", len(ops)),
        "op_p90_ms": (1e3 * percentile(ops, 90), "ms", len(ops)),
        "produce_p50_ms": (1e3 * statistics.median(produce), "ms",
                           len(produce)),
        "verify_p50_ms": (1e3 * statistics.median(verify) if verify else 0.0,
                          "ms", len(verify)),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB", 1),
    }


def traced_metrics(tracer, traced: Pass, measured: Pass, record: dict
                   ) -> Tuple[Dict[str, Tuple[float, str, int]],
                              Dict[str, int]]:
    """Per-layer metrics and work counters of the traced pass; adds the
    kernel routes and the largest self-time layer to the record."""
    from tracing import COMPUTED, layer_metrics

    layer = layer_metrics(tracer)
    layer["bench.unattributed_s"] = sum(traced.raw()) - tracer.root_time()
    layer["bench.trace_overhead"] = (sum(traced.normalized())
                                     / sum(measured.normalized()) - 1)
    ops = len(traced.timings("op"))
    metrics = {k: (layer[k], unit, ops)
               for k, (unit, _) in per_layer_units().items()}
    counters = {k: v for k, v in layer.items()
                if isinstance(v, int) and not k.endswith("self_s")}
    record["computed_from_arguments"] = list(COMPUTED)
    record["kernel"]["routes"] = {
        r: layer[f"kernels.route.{r}"]
        for r in ("pure", "compiled", "int64_fallback")}
    self_times = {k[:-len(".self_s")]: v for k, v in layer.items()
                  if k.endswith(".self_s") and k.count(".") == 1}
    record["largest_self_time_layer"] = max(self_times, key=self_times.get)
    return metrics, counters


def print_report(record: dict, metrics: dict, failed: int) -> None:
    """The human-readable table, then the result line."""
    ops = record["ops"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"tasks {record['tasks']}  ops {ops}  "
          f"kernel {record['kernel']['implementation']}")
    for key, (value, unit, n) in metrics.items():
        print(f"  {key:34s} {value:14.6g} {unit:6s} n={n}")
    print(f"  {'fail_ratio':34s} {record['fail_ratio']:14.6g} {'':6s} "
          f"({failed}/{ops})")
    print(f"  {'verifiable_share':34s} {record['verifiable_share']:14.6g}")
    if "largest_self_time_layer" in record:
        print(f"  largest self-time layer: "
              f"{record['largest_self_time_layer']}")
    probe = record["host_probe_s"]
    print(f"  host probe {probe['before'] * 1e3:.3f} ms before, "
          f"{probe['after'] * 1e3:.3f} ms after")
    for line in record["failures"][:20]:
        print(f"  FAIL {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    if not os.path.isdir(os.path.join(SRC, "perdec")):
        print(f"perdec sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    probe_before = calibrate()
    setup_raw, setup = ([], []) if trace else measure_setup(SETUP_REPEATS)

    import perdec.cli  # noqa: F401  (the whole library, as a user loads it)
    from perdec import kernels
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    count = max(1, round(workload.tasks_per_second * seconds))
    workdir = os.path.join(OUT, f"work-{name}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tasks = workload.build(random.Random(f"{name}:{seed}"), count, workdir)

    # warm-up: the first task of each kind, untimed (star._partitions is
    # an lru_cache); its outputs must match the same tasks' timed outputs
    first_of_kind: Dict[str, int] = {}
    for i, task in enumerate(tasks):
        first_of_kind.setdefault(task.label, i)
    warm_indices = list(first_of_kind.values())
    warm = run_pass(workload, [tasks[i] for i in warm_indices])
    measured = run_pass(workload, tasks)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = changed_outputs(tasks, warm, measured, enumerate(warm_indices))
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, tasks, tracer)
        finally:
            tracer.uninstall()
        failures.update(changed_outputs(
            tasks, measured, traced, ((i, i) for i in range(len(tasks)))))
    problems, digest = check_pass(tasks, measured)
    code = code_digest()
    failures.update(problems)

    ops = len(measured.timings("op"))
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "tasks": len(tasks), "ops": ops,
        "host": host_info(), "code_sha256": code,
        "kernel": {"implementation": kernels.implementation_name(),
                   "routes": None},
        "digest": digest,
        "verifiable_share": len(measured.replays) / len(tasks),
    }
    counters = None
    if trace:
        metrics, counters = traced_metrics(tracer, traced, measured, record)
        tracer.write_spans(os.path.join(OUT, f"{name}.spans.tsv"))
    else:
        metrics = end_to_end(measured, setup, peak_rss_kb, normalize=True)
        raw = end_to_end(measured, setup_raw, peak_rss_kb, normalize=False)
        record["raw_metrics"] = {k: v for k, (v, _, _) in raw.items()}
        p90 = percentile(measured.normalized(), 90)
        record["op_p90_samples_beyond"] = sum(
            1 for v in measured.normalized() if v > p90)
    run_problems = check_reproduced(
        f"{name}-seed{seed}-tasks{len(tasks)}-code{code[:16]}", digest,
        counters)
    if not measured.replays:
        run_problems.append("no result carried a certificate to replay")
    failed = len(failures) + (1 if run_problems and not failures else 0)
    record["host_probe_s"] = {"before": probe_before, "after": calibrate()}
    record["failures"] = ([f"task {i}: {m}" for i, m in sorted(
        failures.items())] + run_problems)
    record["fail_ratio"] = failed / ops
    record["metrics"] = {k: {"value": v, "unit": u, "samples": n}
                         for k, (v, u, n) in metrics.items()}
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print_report(record, metrics, failed)
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own fresh process; one combined summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("search", "construct", "certify"):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("search", "construct", "certify", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, default=20,
                        help="run length; sets the task count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
