"""Host-wall benchmark of the MithriLog reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20
    python3 perfbench/run.py --workload stream --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1

One workload runs in this process with ``workers=1``; ``all`` runs each
workload in a fresh child process of its own, one after another. The
workload is set up cold here and in ``SETUP_CHILDREN`` fresh child
processes (``setup_s`` is the median), then runs, with tracing off,
``--seconds`` times the workload's ``ops_per_s`` operations
(``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``), and
every answer is checked against the grep oracle. End-to-end metrics
are printed in host units one per line as ``metric <name> = <value>
<unit>``, followed by a ``record`` line with the provenance, and, last,
one JSON object with the metrics ``BENCHMARK.json`` declares, with
host times scaled by the host speed factor (see ``stats.HostSpeed``):
its ``end_to_end`` metrics with ``--trace 0``, or, with ``--trace 1``,
its ``per_layer`` metrics from a traced repeat of the same operations
on a fresh set-up. Records and spans are also written under
``.perfbench/``.

Exit status: 0 when every check passed, 1 on a correctness failure,
2 on bad arguments, 3 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: more cold set-ups timed, each in a fresh process: a second set-up in
#: one process would find the program's process-wide memos filled
SETUP_CHILDREN = 2
WORKLOAD_NAMES = ("stream", "explore", "service")

#: end-to-end metrics printed by name: (name, unit, workloads it applies to)
PRINTED = (
    ("setup_s", "s", WORKLOAD_NAMES),
    ("peak_rss_mb", "MB", WORKLOAD_NAMES),
    ("program_rss_mb", "MB", WORKLOAD_NAMES),
    ("error_rate", "fraction", WORKLOAD_NAMES),
    ("ingest_mb_per_s", "MB/s", ("stream",)),
    ("flush_p50_ms", "ms", ("stream",)),
    ("flush_p95_ms", "ms", ("stream",)),
    ("stored_bytes_per_input_byte", "ratio", ("stream",)),
    ("query_p50_ms", "ms", ("explore",)),
    ("query_p95_ms", "ms", ("explore",)),
    ("topk_p50_ms", "ms", ("explore",)),
    ("topk_p95_ms", "ms", ("explore",)),
    ("service_host_qps", "req/s", ("service",)),
    ("sim_goodput_qps", "q/s", ("service",)),
    ("sim_p99_ms", "ms", ("service",)),
    ("sim_capacity_qps", "q/s", ("service",)),
    # what the service's latency and throughput in BENCHMARK.json measure
    ("pass_p50_ms", "ms", ("service",)),
    ("pass_p95_ms", "ms", ("service",)),
    ("host_goodput_qps", "req/s", ("service",)),
)


def _declared() -> dict:
    with (ROOT / "BENCHMARK.json").open() as spec:
        return json.load(spec)


def _print_metrics(name: str, values: dict) -> None:
    for metric, unit, applies in PRINTED:
        if name not in applies:
            continue
        line = f"metric {metric} = {values[metric]:.6g} {unit}"
        stem = metric.rsplit("_p", 1)[0]
        if metric.endswith(("_p50_ms", "_p95_ms")) and f"{stem}_n" in values:
            tail = values[f"{stem}_tail_q"] if metric.endswith("95_ms") else 50
            line += f" (p{tail:g} of n={values[f'{stem}_n']})"
        print(line)


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def _cold_setup(workload):
    """Set ``workload`` up, timed; returns the state, the seconds and the
    host speed factor sampled before and after."""
    from perfbench.stats import HostSpeed

    speed = HostSpeed()
    gc.collect()
    speed.sample()
    start = time.perf_counter()
    state = workload.setup()
    seconds = time.perf_counter() - start
    speed.sample()
    return state, seconds, speed.factor


def setup_child(name: str, seed: str, ops: str) -> None:
    """Print the seconds and factor of one cold set-up; run in a fresh
    process."""
    from perfbench.workloads import WORKLOADS

    print(*_cold_setup(WORKLOADS[name](int(seed), int(ops)))[1:])


def _child_setups(name: str, seed: int, ops: int) -> list[tuple]:
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]; "
        "from perfbench.run import setup_child; setup_child(*sys.argv[1:])"
    )
    times = []
    for _ in range(SETUP_CHILDREN):
        child = subprocess.run(
            [sys.executable, "-c", code, name, str(seed), str(ops)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=120,
            check=True,
        )
        seconds, factor = child.stdout.split()[-2:]
        times.append((float(seconds), float(factor)))
    return times


def _traced_repeat(workload, spans_path: Path):
    """Per-layer metrics from a traced repeat of the same operations.

    The overhead baseline repeats the same operations untraced on a
    fresh set-up first, so that it finds process-wide memos as warm as
    the traced repeat after it does. Returns the metrics and both
    repeats.
    """
    from perfbench.layers import LAYERS, PROBES, layer_metrics
    from perfbench.trace import LayerTracer

    state = workload.setup()
    gc.collect()
    baseline = workload.run(state)
    state = workload.setup()
    gc.collect()
    with LayerTracer(PROBES) as tracer:
        origin = time.perf_counter()
        traced = workload.run(state, tracer=tracer)
    metrics = layer_metrics(tracer, traced, baseline)
    parts = sum(metrics[f"{layer}.self_ms"] for layer in LAYERS)
    print(
        f"trace wall {metrics['trace.wall_ms']:.1f} ms = layer self "
        f"{parts:.1f} ms + unattributed "
        f"{metrics['trace.unattributed_ms']:.1f} ms; overhead "
        f"x{metrics['trace.overhead_ratio']:.3f}"
    )
    tracer.write(spans_path, origin)
    return metrics, (baseline, traced)


def run_one(args, declared: dict) -> int:
    from perfbench.stats import (
        latency_summary, peak_rss_mb, provenance, rss_mb,
    )
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    ops = max(1, round(args.seconds * cls.ops_per_s))
    setup_times = _child_setups(args.workload, args.seed, ops)
    workload = cls(args.seed, ops)  # the inputs
    workload.prepare()  # the oracle
    gc.collect()
    inputs_rss_mb = rss_mb()
    state, *setup = _cold_setup(workload)
    setup_times.append(tuple(setup))
    setup_s = statistics.median(s for s, _ in setup_times)
    gc.collect()
    run = workload.run(state)
    peak_mb = peak_rss_mb()
    values = workload.report(state, run)
    failures = list(run.failures)
    values.update(
        setup_s=setup_s,
        peak_rss_mb=peak_mb,
        program_rss_mb=peak_mb - inputs_rss_mb,
        error_rate=(len(failures) + values.get("lost", 0)) / run.attempted,
        host_speed_factor=run.speed.factor,
    )
    # what BENCHMARK.json declares, the same names on every workload, in
    # host units and at the reference host speed
    raw = {
        "setup_s": setup_s,
        "program_rss_mb": values["program_rss_mb"],
        "latency_p95_ms": values["latency_p95_ms"],
        "throughput_per_s": run.work / run.wall_s,
    }
    factor = run.speed.factor
    # each operation's time over the factor sampled just before it: the
    # host's speed changes within a run
    scaled = latency_summary(
        "op", [t / f for t, f in zip(run.op_s, run.op_factor)]
    )
    normalized = dict(
        raw,
        setup_s=statistics.median(s / f for s, f in setup_times),
        latency_p95_ms=scaled["op_p95_ms"],
        throughput_per_s=raw["throughput_per_s"] * factor,
    )
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} ops={run.attempted} "
          f"wall={run.wall_s:.3f}s host_speed_factor={factor:.3f}")
    _print_metrics(args.workload, values)
    record = {
        "provenance": provenance(
            ROOT, args.seed, args.workload, workload.params
        ),
        "seconds": args.seconds,
        "ops": ops,
        "setup_times_s_factor": setup_times,
        "attempted": run.attempted,
        "end_to_end": values,
        "declared_raw": raw,
        "declared": normalized,
        "op_ms": [round(t * 1e3, 4) for t in run.op_s],
        "op_factor": [round(f, 4) for f in run.op_factor],
    }
    out_dir = ROOT / ".perfbench"
    name = f"{args.workload}-seed{args.seed}"
    attempted = run.attempted
    if args.trace:
        metrics, repeats = _traced_repeat(
            workload, out_dir / f"{name}.spans.jsonl"
        )
        for repeat in repeats:
            failures += repeat.failures
            attempted += repeat.attempted
        record["per_layer"] = metrics
        wanted = declared["per_layer"]
        name += "-trace"
    else:
        metrics = normalized
        wanted = declared["end_to_end"]
    record["failures"] = failures[:20]
    print("record " + json.dumps(record, default=str))
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    for failure in failures[:20]:
        print(f"FAIL: {failure}", file=sys.stderr)
    _emit(
        not failures,
        attempted,
        len(failures),
        {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    )
    return 1 if failures else 0


def run_all(args) -> int:
    """Each workload in a fresh child process, then one combined line."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900,
        )
        print(child.stdout, end="")
        status = max(status, child.returncode)
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    _emit(**combined)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run seconds x the workload's ops_per_s "
                        "operations (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        declared = _declared()
        sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
        import repro  # the program under test

        if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"repro loaded from {repro.__file__}")
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 3
    if args.seconds is None:
        args.seconds = declared["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args, declared)


if __name__ == "__main__":
    raise SystemExit(main())
