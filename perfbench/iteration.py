"""One benchmark iteration, run in a fresh process.

``run.py`` starts this file once per iteration so that no iteration
inherits another's heap: the program's cyclic-GC cost depends on how
many objects are alive, and a warm process carrying an earlier DUT's
objects would measure that history rather than this iteration.

    python3 perfbench/iteration.py <task.json>

The task names the workload, the pickled inputs ``run.py`` wrote, the
iteration index and whether to trace.  An untraced iteration first times
set-ups (:func:`setup_samples`), then runs the workload on a DUT of its
own.
The result is written as JSON to the task's ``out`` path; a traced
iteration also writes its spans.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import pickle
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent

#: Set-up samples per untraced iteration and CPU.  One sample is the
#: mean over a block of set-ups that lasts at least ``SETUP_BLOCK_S``: a
#: sharded run's per-worker set-up takes ~0.1 ms, and single timings
#: that short flip between modes.  A single-daemon set-up takes longer
#: than that, so there a block is one set-up.
SETUP_ROUNDS = 3
SETUP_BLOCK_S = 0.02


def setup_samples(workload) -> List[float]:
    """Time set-ups on each CPU of the affinity mask in turn.

    On a shared host one CPU can run markedly slower than another for
    seconds at a time, and a process tends to stay on the CPU it
    started on.  Pinning each sample to the CPUs in turn keeps the
    median from depending on where the scheduler put this process.
    The mask is restored before the workload runs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    started = perf_counter()
    workload.setup()
    block = max(1, math.ceil(SETUP_BLOCK_S / (perf_counter() - started)))
    samples: List[float] = []
    try:
        for _ in range(SETUP_ROUNDS):
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                started = perf_counter()
                for _ in range(block):
                    workload.setup()
                samples.append((perf_counter() - started) / block)
    finally:
        os.sched_setaffinity(0, cpus)
    return samples


def execute(workload, index: int, trace: bool, spans_path: Optional[str] = None) -> Dict:
    """Run iteration ``index``; return its JSON-able result."""
    import tracing

    # Every iteration starts from the same collector state (everything
    # alive so far survived a full collection); the collector stays on.
    # The timed set-ups come first, and their DUTs are collected before
    # the workload builds its own.
    gc.collect()
    setups = [] if trace else setup_samples(workload)
    gc.collect()
    if trace:
        tracer = tracing.Tracer()
        with tracing.traced(tracer, workload.layers, workload.host):
            it = workload.run(tracer, index)
        layers = layer_row(workload, it, tracer, index)
        if spans_path:
            tracer.write(spans_path)
    else:
        it = workload.run(None, index)
        layers = None
    result = dataclasses.asdict(it)
    del result["layer"], result["shard_reports"]
    result.update(
        index=index,
        traced=trace,
        routes_per_s=it.routes_per_s,
        cpu_us_per_route=it.cpu_us_per_route,
        setups=setups,
        layers=layers,
    )
    return result


def layer_row(workload, it, tracer, index: int) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration (all but
    ``trace.overhead_ratio``, which needs the untraced iterations)."""
    from tracing import LAYER_OF, SETUP, WINDOW, run_id

    totals = tracer.totals()
    window = totals.get(run_id(index, WINDOW), {})
    setup = totals.get(run_id(index, SETUP), {})

    def layer(name: str, key: str) -> float:
        return sum(row[key] for span, row in window.items() if LAYER_OF[span] == name)

    def span(name: str, key: str, source=window) -> float:
        return source.get(name, {}).get(key, 0)

    reports = it.shard_reports or []
    replay = [r["replay_seconds"] for r in reports]
    slowest = max((r["build_seconds"] + r["replay_seconds"] for r in reports), default=0.0)
    if reports:
        hits = sum(r["attr_pool"]["hits"] for r in reports)
        misses = sum(r["attr_pool"]["misses"] for r in reports)
    else:
        hits, misses = it.layer.get("pool_hits", 0), it.layer.get("pool_misses", 0)
    pauses = [p for p in tracer.gc_pauses if p[0] == run_id(index, WINDOW)]
    updates = it.layer.get("export_updates", 0)
    return {
        "mrt.decode_s": layer("mrt", "self_s"),
        "mrt.routes": it.layer.get("mrt_routes", 0),
        "scale.shard.build_s": max((r["build_seconds"] for r in reports), default=0.0),
        "scale.shard.replay_s": max(replay, default=0.0),
        "scale.shard.replay_skew": max(replay) / min(replay) if replay else 0.0,
        "scale.shard.overhead_s": (
            span("scale.shard.init", "self_s") + span("scale.shard.run", "total_s") - slowest
            if reports
            else 0.0
        ),
        "scale.batch.batches": sum(r["batches"] for r in reports),
        "scale.batch.attr_pool_hits": hits if reports else 0,
        "scale.batch.attr_pool_misses": misses if reports else 0,
        "bgp.decode_calls": layer("bgp.decode", "top_calls"),
        "bgp.decode_s": layer("bgp.decode", "self_s"),
        "bgp.encode_calls": layer("bgp.encode", "top_calls"),
        "bgp.encode_s": layer("bgp.encode", "self_s"),
        "bgp.encode_bytes": it.layer.get("sent_bytes", 0),
        "bgp.decision_calls": layer("bgp.decision", "calls"),
        "bgp.decision_s": layer("bgp.decision", "self_s"),
        "bgp.rib_ops": layer("bgp.rib", "calls"),
        "bgp.rib_s": layer("bgp.rib", "self_s"),
        "core.vmm.runs": layer("core.vmm", "calls"),
        "core.vmm.run_s": layer("core.vmm", "self_s"),
        "core.vmm.fallbacks": it.layer.get("fallbacks", 0)
        + sum(r["fallbacks"] for r in reports),
        "core.vmm.instructions": it.layer.get("instructions", 0),
        "core.api.helper_calls": layer("core.api", "calls"),
        "core.api.helper_s": layer("core.api", "self_s"),
        "core.api.set_attr_s": span("core.api.set_attr", "self_s"),
        "core.api.get_attr_s": span("core.api.get_attr", "self_s"),
        "xc.compile_s": span("xc.compile", "total_s", setup),
        "ebpf.verify_s": span("ebpf.verify", "total_s", setup),
        "ebpf.translate_s": span("ebpf.translate", "total_s", setup),
        "frr.receive_s": span("frr.receive_raw", "total_s"),
        "frr.self_s": layer("frr", "self_s"),
        "frr.attr_pool.hit_ratio": (
            hits / (hits + misses) if workload.host == "frr" and hits + misses else 0.0
        ),
        "bird.receive_s": span("bird.receive_raw", "total_s"),
        "bird.self_s": layer("bird", "self_s"),
        "export.updates": updates,
        "export.prefixes_per_update": (
            it.layer.get("export_prefixes", 0) / updates if updates else 0.0
        ),
        "export.bytes": it.layer.get("export_bytes", 0),
        "python.gc.gen2_collections": sum(1 for p in pauses if p[1] == 2),
        "python.gc.pause_s": sum(p[2] for p in pauses),
        "trace.spans": sum(row["calls"] for row in window.values()),
        "unattributed_s": it.window_s - sum(row["self_s"] for row in window.values()),
    }


def main(task_path: str) -> int:
    task = json.loads(Path(task_path).read_text())
    root = HERE.parent
    for path in (str(root / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    with open(task["inputs"], "rb") as handle:
        inputs = pickle.load(handle)  # written by run.py for this run
    workload = workloads.make(task["workload"], inputs, task["workdir"])
    result = execute(workload, task["index"], task["trace"], task.get("spans"))
    Path(task["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
