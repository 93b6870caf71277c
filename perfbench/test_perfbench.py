"""Self-tests of the benchmark: seeded inputs, checks that bite, and
planted delays that must show in the predicted layer and end-to-end
metric and nowhere else.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

run._import_program()

import inputs  # noqa: E402
import iteration  # noqa: E402
import workloads  # noqa: E402
from repro.frr import daemon as frr_daemon  # noqa: E402
from repro.frr import xbgp_glue  # noqa: E402
from repro.workload import mrt_io  # noqa: E402

SEED = 11


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    first = inputs.build(workload, SEED, scale=0.02).digest()
    assert inputs.build(workload, SEED, scale=0.02).digest() == first
    assert inputs.build(workload, SEED + 1, scale=0.02).digest() != first


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def make(name, scale, tmp_path):
    return workloads.make(name, inputs.build(name, SEED, scale), str(tmp_path))


def measure(name, scale, tmp_path):
    """End-to-end and per-layer metrics of one untraced and one traced
    iteration, run in this process (``run.py`` runs each in a child
    executing the same :func:`iteration.execute`)."""
    workload = make(name, scale, tmp_path)
    plain = [iteration.execute(workload, 0, trace=False)]
    traced = [iteration.execute(workload, 1, trace=True)]
    return run.end_to_end(plain), run.per_layer(plain, traced), plain + traced


def test_every_workload_passes_its_checks_and_layers_add_up(tmp_path):
    for name in run.WORKLOADS:
        e2e, layers, done = measure(name, 0.03, tmp_path)
        assert all(all(it["checks"].values()) for it in done), name
        assert sum(it["failed"] for it in done) == 0, name
        assert all(value > 0 for value in e2e.values()), (name, e2e)
        assert layers["trace.overhead_ratio"] > 0
        window = max(it["window_s"] for it in done)
        assert abs(layers["unattributed_s"]) < 0.25 * window, (name, layers)


def test_a_dropped_export_is_counted_as_failed(tmp_path, monkeypatch):
    send = frr_daemon.FrrDaemon._send_route
    dropped = []

    def drop_every_tenth(self, neighbor, route):
        dropped.append(route.prefix)
        if len(dropped) % 10:
            send(self, neighbor, route)

    monkeypatch.setattr(frr_daemon.FrrDaemon, "_send_route", drop_every_tenth)
    result = make("rr-load", 0.02, tmp_path).run(None, 0)
    assert result.failed > 0
    assert not all(result.checks.values())


def _delay_each_item(fn, seconds, calls):
    def delayed(*args, **kwargs):
        for item in fn(*args, **kwargs):
            calls.append(1)
            time.sleep(seconds)
            yield item

    return delayed


def _delay_each_call(fn, seconds, calls):
    def delayed(*args, **kwargs):
        calls.append(1)
        time.sleep(seconds)
        return fn(*args, **kwargs)

    return delayed


def test_planted_mrt_delay_moves_full_table_and_not_rr_load(tmp_path, monkeypatch):
    base_e2e, base_layers, _ = measure("full-table-mrt", 0.03, tmp_path)
    rr_base, _, _ = measure("rr-load", 0.03, tmp_path)

    calls = []
    monkeypatch.setattr(
        mrt_io,
        "iter_routes_from_mrt",
        _delay_each_item(mrt_io.iter_routes_from_mrt, 300e-6, calls),
    )
    e2e, layers, _ = measure("full-table-mrt", 0.03, tmp_path)
    routes = base_layers["mrt.routes"]
    assert layers["mrt.decode_s"] > base_layers["mrt.decode_s"] + 0.5 * routes * 300e-6
    assert e2e["routes_per_s"] < 0.8 * base_e2e["routes_per_s"]

    calls.clear()
    rr_e2e, rr_layers, _ = measure("rr-load", 0.03, tmp_path)
    assert calls == []  # rr-load never reaches the delayed layer
    assert rr_layers["mrt.decode_s"] == 0 and rr_layers["mrt.routes"] == 0
    assert 0.5 < rr_e2e["routes_per_s"] / rr_base["routes_per_s"] < 2.0


def test_planted_set_attr_delay_moves_rr_load_and_not_full_table(tmp_path, monkeypatch):
    base_e2e, base_layers, _ = measure("rr-load", 0.03, tmp_path)
    ft_base, _, _ = measure("full-table-mrt", 0.03, tmp_path)

    calls = []
    monkeypatch.setattr(
        xbgp_glue.FrrHost,
        "set_attr",
        _delay_each_call(xbgp_glue.FrrHost.set_attr, 200e-6, calls),
    )
    e2e, layers, _ = measure("rr-load", 0.03, tmp_path)
    assert calls
    assert layers["core.api.set_attr_s"] > base_layers["core.api.set_attr_s"] + 0.5 * (
        len(calls) / 2 * 200e-6
    )
    assert e2e["routes_per_s"] < 0.8 * base_e2e["routes_per_s"]

    # full-table-mrt runs no extension.  Its workers are forked, so
    # whether they call the delayed function shows only in its metrics.
    ft_e2e, _, _ = measure("full-table-mrt", 0.03, tmp_path)
    assert 0.5 < ft_e2e["routes_per_s"] / ft_base["routes_per_s"] < 2.0


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rr-load", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not Path(tmp_path / ".perfbench_out").exists()
