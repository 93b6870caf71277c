"""The repository benchmark: three convergence workloads of the xBGP hosts.

Run from the repository root::

    python3 perfbench/run.py --workload rr-load --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics (see perfbench/METRICS.md for every definition and the
layer -> metric -> workload map).  Each run repeats whole iterations
(fresh process, fresh DUT, full input; see ``iteration.py``) until
``--seconds`` have passed, and reports rates over all of its timed
windows and medians of the rest.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (environment
stamp, every sample, the noise estimate, the checks) is written under
``.perfbench_out/``, and the traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("rr-load", "full-table-mrt", "ov-churn")

END_TO_END = {
    "setup_s": "s",
    "routes_per_s": "routes/s",
    "cpu_us_per_route": "us",
    "peak_rss_mb": "MB",
}

#: Printed and recorded by untraced runs, but not in BENCHMARK.json: their
#: run-to-run spread on a shared host reaches 0.25, the widest bound a
#: BENCHMARK.json metric may have (see METRICS.md).
REPORTED = {"update_latency_p50_ms": "ms", "update_latency_p99_ms": "ms"}

PER_LAYER = {
    "mrt.decode_s": "s",
    "mrt.routes": "count",
    "scale.shard.build_s": "s",
    "scale.shard.replay_s": "s",
    "scale.shard.replay_skew": "ratio",
    "scale.shard.overhead_s": "s",
    "scale.batch.batches": "count",
    "scale.batch.attr_pool_hits": "count",
    "scale.batch.attr_pool_misses": "count",
    "bgp.decode_calls": "count",
    "bgp.decode_s": "s",
    "bgp.encode_calls": "count",
    "bgp.encode_s": "s",
    "bgp.encode_bytes": "bytes",
    "bgp.decision_calls": "count",
    "bgp.decision_s": "s",
    "bgp.rib_ops": "count",
    "bgp.rib_s": "s",
    "core.vmm.runs": "count",
    "core.vmm.run_s": "s",
    "core.vmm.fallbacks": "count",
    "core.vmm.instructions": "count",
    "core.api.helper_calls": "count",
    "core.api.helper_s": "s",
    "core.api.set_attr_s": "s",
    "core.api.get_attr_s": "s",
    "xc.compile_s": "s",
    "ebpf.verify_s": "s",
    "ebpf.translate_s": "s",
    "frr.receive_s": "s",
    "frr.self_s": "s",
    "frr.attr_pool.hit_ratio": "ratio",
    "bird.receive_s": "s",
    "bird.self_s": "s",
    "export.updates": "count",
    "export.prefixes_per_update": "ratio",
    "export.bytes": "bytes",
    "python.gc.gen2_collections": "count",
    "python.gc.pause_s": "s",
    "trace.spans": "count",
    "unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150


def _import_program() -> None:
    """Put the checkout's ``src`` and this directory on the path."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source under {ROOT / 'src'}; "
            "run from a full checkout of the repository"
        )
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- measurement -------------------------------------------------------------


class Runner:
    """Runs iterations of one workload, each in a fresh ``iteration.py``
    process, over inputs written once."""

    def __init__(self, workload: str, seed: int, stem: str) -> None:
        import inputs

        self.workload = workload
        self.stem = stem
        self.workdir = OUT / f"{stem}-work-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.inputs_path = self.workdir / "inputs.pickle"
        with open(self.inputs_path, "wb") as handle:
            pickle.dump(inputs.build(workload, seed), handle, pickle.HIGHEST_PROTOCOL)

    def child(self, index: int, trace: bool = False) -> Dict:
        """Run ``iteration.py`` for iteration ``index``."""
        out = self.workdir / f"result-{index}.json"
        task = {
            "workload": self.workload,
            "inputs": str(self.inputs_path),
            "workdir": str(self.workdir),
            "index": index,
            "trace": trace,
            "out": str(out),
            "spans": str(OUT / f"{self.stem}-iter{index}-spans.csv.gz") if trace else None,
        }
        task_path = self.workdir / f"task-{index}.json"
        task_path.write_text(json.dumps(task))
        done = subprocess.run(
            [sys.executable, str(HERE / "iteration.py"), str(task_path)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"iteration {index} failed:\n{done.stderr}")
        return json.loads(out.read_text())

    def measure(self, seconds: float, trace: bool):
        """Iterations until ``seconds`` have passed.

        Returns (untraced results, traced results).  With ``trace`` the
        iterations alternate untraced and traced, at least one of each.
        The last iteration may end up to half an iteration before or
        after the deadline.
        """
        plain, traced, took = [], [], []
        deadline = perf_counter() + seconds
        index = 0
        while True:
            began = perf_counter()
            result = self.child(index, trace and index % 2 == 1)
            took.append(perf_counter() - began)
            (traced if result["traced"] else plain).append(result)
            index += 1
            # Start another iteration only if it would end nearer the
            # deadline than stopping now, so a run lasts ``seconds``
            # give or take half an iteration.
            ends = perf_counter() + statistics.median(took) / 2
            if ends >= deadline and (traced or not trace):
                return plain, traced

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def setup_samples(plain: List[Dict]) -> List[float]:
    return [x for it in plain for x in it["setups"]]


def end_to_end(plain: List[Dict]) -> Dict[str, float]:
    latencies = sorted(x for it in plain for x in it["latencies_ms"])
    if len(latencies) >= 100:
        p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
    else:
        p99 = latencies[-1]
    return {
        "setup_s": statistics.median(setup_samples(plain)),
        "routes_per_s": sum(it["delivered"] for it in plain)
        / sum(it["window_s"] for it in plain),
        "update_latency_p50_ms": statistics.median(latencies),
        "update_latency_p99_ms": p99,
        "cpu_us_per_route": sum(it["cpu_s"] for it in plain)
        / sum(it["operations"] for it in plain)
        * 1e6,
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in plain),
    }


def per_layer(plain: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    """Medians over the traced iterations; the overhead ratio is each
    traced window over the median untraced window."""
    untraced = statistics.median(it["window_s"] for it in plain)
    rows = [
        dict(it["layers"], **{"trace.overhead_ratio": it["window_s"] / untraced})
        for it in traced
    ]
    return {name: statistics.median(row[name] for row in rows) for name in PER_LAYER}


# -- environment stamp -------------------------------------------------------


def git_sha() -> Optional[str]:
    """HEAD's commit from ``.git`` files in the checkout, if there are any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 over the program's source files (paths and contents)."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> Dict[str, object]:
    from workloads import nproc

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def spread(samples: Sequence[float]) -> Optional[float]:
    """Noise estimate: interquartile range over the median (range over
    the median below four samples)."""
    if len(samples) < 2 or not statistics.median(samples):
        return None
    if len(samples) >= 4:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        return (q3 - q1) / statistics.median(samples)
    return (max(samples) - min(samples)) / statistics.median(samples)


def run(workload: str, seed: int, seconds: float, trace: bool, stem: str):
    """One benchmark run; returns (result line, full record)."""
    OUT.mkdir(exist_ok=True)
    runner = Runner(workload, seed, stem)
    try:
        plain, traced = runner.measure(seconds, trace)
    finally:
        runner.close()
    done = plain + traced
    attempted = sum(it["attempted"] for it in done)
    failed = sum(it["failed"] for it in done)
    correct = failed == 0 and all(all(it["checks"].values()) for it in done)
    if trace:
        metrics, units = per_layer(plain, traced), PER_LAYER
    else:
        metrics, units = end_to_end(plain), END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    samples = {
        "setup_s": setup_samples(plain),
        "routes_per_s": [it["routes_per_s"] for it in plain],
        "window_s": [it["window_s"] for it in plain],
        "cpu_us_per_route": [it["cpu_us_per_route"] for it in plain],
        "peak_rss_mb": [it["peak_rss_mb"] for it in plain],
    }
    record = {
        "schema": "perfbench/1",
        "result": result,
        "reported": {} if trace else {name: metrics[name] for name in REPORTED},
        "error_rate": failed / attempted,
        "iterations": {"untraced": len(plain), "traced": len(traced)},
        "latency_samples": sum(len(it["latencies_ms"]) for it in plain),
        "samples": samples,
        "noise": {name: spread(values) for name, values in samples.items()},
        "checks": {name: all(it["checks"][name] for it in done) for name in done[0]["checks"]},
        "errors": [e for it in done for e in it["errors"]][:3],
        "traced_layers": [it["layers"] for it in traced],
    }
    return result, record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), stem)
    record["environment"] = environment(args)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    env = record["environment"]
    print(
        f"# {args.workload} seed={args.seed} nproc={env['nproc']} "
        f"python={env['python']} {env['platform']} git={env['git_sha']}"
    )
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in record["reported"].items():
        print(f"{name:32s} {value:>16.6g} {REPORTED[name]}")
    print(f"{'error_rate':32s} {record['error_rate']:>16.6g} ratio")
    for name, ok in record["checks"].items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
