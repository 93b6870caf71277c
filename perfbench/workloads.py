"""The three benchmark workloads, driven through the program's public API.

Each workload builds its DUT with library defaults (default VM tier,
telemetry on, the interpreter's GC untouched), hands it wire bytes or an
MRT file in a closed loop with one UPDATE outstanding per upstream peer,
and checks the outcome against a model computed from the same seed.
"""

from __future__ import annotations

import os
import resource
import struct
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bgp.prefix import Prefix, parse_ipv4
from repro.bird.daemon import BirdDaemon
from repro.core.insertion_points import InsertionPoint
from repro.frr.daemon import FrrDaemon
from repro.plugins import origin_validation, route_reflector
from repro.scale import shard
from repro.workload import mrt_io

import inputs as inp
from tracing import PRELOAD, SETUP, WINDOW, Tracer, run_id

ORIGINATOR_ID = 9
CLUSTER_LIST = 10


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb(workers: bool = False) -> float:
    """Peak RSS so far of this process or, with ``workers``, of its
    largest reaped worker when that is larger.  Read at the end of the
    timed window, so the checks that follow do not count."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return max(own, children) / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- downstream collector ----------------------------------------------------


class Collector:
    """The benchmark's downstream peer: stamps and keeps every message.

    Receiving is an append, so the DUT pays nothing for its downstream;
    parsing happens after the timed window with :func:`parse_updates`,
    a decoder written here rather than taken from ``repro.bgp``.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.messages: List[bytes] = []

    def receive(self, data: bytes) -> None:
        self.times.append(perf_counter())
        self.messages.append(data)


class Sink:
    """An upstream peer's receive side: counts what the DUT sends it."""

    def __init__(self) -> None:
        self.bytes = 0

    def receive(self, data: bytes) -> None:
        self.bytes += len(data)


PrefixKey = Tuple[int, int]


def _prefixes(blob: bytes) -> List[PrefixKey]:
    out = []
    offset = 0
    while offset < len(blob):
        length = blob[offset]
        size = (length + 7) // 8
        network = int.from_bytes(blob[offset + 1 : offset + 1 + size].ljust(4, b"\0"), "big")
        out.append((network, length))
        offset += 1 + size
    return out


def parse_updates(stream: bytes):
    """Yield ``(withdrawn, attributes, nlri)`` for each UPDATE in ``stream``."""
    offset = 0
    while offset < len(stream):
        total, kind = struct.unpack_from("!HB", stream, offset + 16)
        if kind == 2:
            body = stream[offset + 19 : offset + total]
            (withdrawn_len,) = struct.unpack_from("!H", body)
            withdrawn = _prefixes(body[2 : 2 + withdrawn_len])
            (attrs_len,) = struct.unpack_from("!H", body, 2 + withdrawn_len)
            attrs_start = 4 + withdrawn_len
            blob = body[attrs_start : attrs_start + attrs_len]
            attributes: Dict[int, bytes] = {}
            i = 0
            while i < len(blob):
                flags, code = blob[i], blob[i + 1]
                if flags & 0x10:
                    (length,) = struct.unpack_from("!H", blob, i + 2)
                    head = 4
                else:
                    length, head = blob[i + 2], 3
                attributes[code] = blob[i + head : i + head + length]
                i += head + length
            yield withdrawn, attributes, _prefixes(body[attrs_start + attrs_len :])
        offset += total


def downstream_state(messages: Sequence[bytes]) -> Dict[PrefixKey, Dict[int, bytes]]:
    """Prefix -> attributes of its last advertisement, withdrawals applied."""
    state: Dict[PrefixKey, Dict[int, bytes]] = {}
    for withdrawn, attributes, nlri in parse_updates(b"".join(messages)):
        for key in withdrawn:
            state.pop(key, None)
        for key in nlri:
            state[key] = attributes
    return state


def key_of(prefix: Prefix) -> PrefixKey:
    return (prefix.network, prefix.length)


# -- per-iteration result ----------------------------------------------------


@dataclass
class Iteration:
    window_s: float
    #: Prefix operations handed to the DUT in the window.
    operations: int
    #: Prefix operations carried by UPDATEs that did not fail.
    delivered: int
    cpu_s: float
    peak_rss_mb: float
    latencies_ms: List[float]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    errors: List[str] = field(default_factory=list)
    #: Counters read from the program and the collector for the
    #: per-layer metrics (window deltas).
    layer: Dict[str, float] = field(default_factory=dict)
    shard_reports: Optional[List[Dict[str, object]]] = None

    @property
    def routes_per_s(self) -> float:
        return self.delivered / self.window_s

    @property
    def cpu_us_per_route(self) -> float:
        return self.cpu_s / self.operations * 1e6


def _instructions(dut) -> int:
    telemetry = dut.vmm.telemetry
    if telemetry is None:
        return 0
    family = telemetry.registry.to_json().get("xbgp_extension_instructions", {})
    return int(sum(row["value"] for row in family.get("series", [])))


def _replay(
    dut,
    peers: Sequence[str],
    feed: Sequence[bytes],
    collector: Collector,
    failed: Set[int],
    errors: List[str],
) -> Tuple[float, float, List[float]]:
    """Closed loop: hand each UPDATE over once the previous one is done.

    Returns (first hand-off, last export received, per-UPDATE latency).
    An UPDATE's latency ends at the last export it caused, or when the
    DUT returns if it caused none.
    """
    receive = dut.receive_raw
    times = collector.times
    first = len(times)
    latencies = []
    done = start = perf_counter()
    for index, payload in enumerate(feed):
        seen = len(times)
        handed = perf_counter()
        try:
            receive(peers[index], payload)
        except Exception:  # counted as a failed UPDATE, reported
            failed.add(index)
            errors.append(traceback.format_exc())
        done = perf_counter()
        latencies.append(((times[-1] if len(times) > seen else done) - handed) * 1e3)
    return start, times[-1] if len(times) > first else done, latencies


class RrLoad:
    """PyFRR route reflector running the RR extension (paper §3.2):
    one iBGP client transfers its table to an empty DUT, which reflects
    it to a second client."""

    name = "rr-load"
    host = "frr"
    layers = "dut"

    def __init__(self, inputs: inp.RrInputs) -> None:
        self.inputs = inputs

    def setup(self, tracer: Optional[Tracer] = None):
        collector, sink = Collector(), Sink()
        deliver = _collect(collector, tracer)
        dut = FrrDaemon(asn=inp.DUT_ASN, router_id=inp.DUT, route_reflector="extension")
        dut.attach_manifest(route_reflector.build_manifest())
        dut.add_neighbor(inp.UPSTREAM_A, inp.DUT_ASN, sink.receive, rr_client=True)
        dut.add_neighbor(inp.DOWNSTREAM, inp.DUT_ASN, deliver, rr_client=True)
        dut.session_up(inp.UPSTREAM_A)
        dut.session_up(inp.DOWNSTREAM)
        return dut, collector, sink

    def run(self, tracer: Optional[Tracer], iteration: int) -> Iteration:
        phase = _Phases(tracer, iteration)
        phase(SETUP)
        dut, collector, sink = self.setup(tracer)

        feed = self.inputs.feed
        failed: Set[int] = set()
        errors: List[str] = []
        first_message = len(collector.messages)
        sink.bytes = 0
        before = _program_counters(dut)
        phase(WINDOW)
        cpu = cpu_seconds()
        start, end, latencies = _replay(
            dut, [inp.UPSTREAM_A] * len(feed), feed, collector, failed, errors
        )
        cpu = cpu_seconds() - cpu
        rss = peak_rss_mb()
        phase(None)

        state = downstream_state(collector.messages)
        cluster_id = parse_ipv4(inp.DUT).to_bytes(4, "big")
        misreflected = {
            index
            for index, prefixes in enumerate(self.inputs.nlri)
            for prefix in prefixes
            if not _reflected(state.get(key_of(prefix)), cluster_id)
        }
        checks = {
            "downstream holds exactly the table": len(state) == self.inputs.routes,
            "no VMM fallbacks": dut.vmm.fallbacks == 0,
        }
        return _finish(
            self.inputs.nlri, failed | misreflected, errors, checks,
            ("every prefix reflected with ORIGINATOR_ID and our CLUSTER_LIST", not misreflected),
            start, end, cpu, rss, latencies,
            layer=_layer_counters(dut, before, collector, first_message, sink),
        )


class OvChurn:
    """PyBIRD running the origin-validation extension (paper §3.4) with
    two eBGP upstreams: a preloaded table from A, then a timed churn of
    small UPDATEs (B's alternatives, A's implicit replaces, A's
    withdrawals)."""

    name = "ov-churn"
    host = "bird"
    layers = "dut"

    def __init__(self, inputs: inp.OvInputs) -> None:
        self.inputs = inputs

    def setup(self, tracer: Optional[Tracer] = None):
        collector, sink = Collector(), Sink()
        deliver = _collect(collector, tracer)
        dut = BirdDaemon(asn=inp.DUT_ASN, router_id=inp.DUT)
        dut.attach_manifest(origin_validation.build_manifest(self.inputs.roas))
        dut.add_neighbor(inp.UPSTREAM_A, inp.ASN_A, sink.receive)
        dut.add_neighbor(inp.UPSTREAM_B, inp.ASN_B, sink.receive)
        dut.add_neighbor(inp.DOWNSTREAM, inp.ASN_DOWNSTREAM, deliver)
        for peer in (inp.UPSTREAM_A, inp.UPSTREAM_B, inp.DOWNSTREAM):
            dut.session_up(peer)
        return dut, collector, sink

    def run(self, tracer: Optional[Tracer], iteration: int) -> Iteration:
        phase = _Phases(tracer, iteration)
        phase(SETUP)
        dut, collector, sink = self.setup(tracer)

        failed: Set[int] = set()
        errors: List[str] = []
        phase(PRELOAD)
        for payload in self.inputs.preload:
            dut.receive_raw(inp.UPSTREAM_A, payload)

        first_message = len(collector.messages)
        sink.bytes = 0
        before = _program_counters(dut)
        phase(WINDOW)
        cpu = cpu_seconds()
        start, end, latencies = _replay(
            dut, self.inputs.churn_peer, self.inputs.churn, collector, failed, errors
        )
        cpu = cpu_seconds() - cpu
        rss = peak_rss_mb()
        phase(None)

        preloaded = downstream_state(self.inputs.preload)
        preload_ok = len(downstream_state(collector.messages[:first_message])) == len(preloaded)
        held = set(downstream_state(collector.messages))
        expected = {key_of(prefix) for prefix in self.inputs.expected_prefixes}
        wrong = held ^ expected
        for index, prefixes in enumerate(self.inputs.churn_prefixes):
            if any(key_of(prefix) in wrong for prefix in prefixes):
                failed.add(index)
        chain = dut.vmm._chains[InsertionPoint.BGP_INBOUND_FILTER]
        counters = origin_validation.read_validity_counters(chain[0].state)
        checks = {
            "preload reached the downstream": preload_ok,
            "validity counters equal the RFC 6811 model": counters
            == self.inputs.expected_validity,
            "no VMM fallbacks": dut.vmm.fallbacks == 0,
        }
        return _finish(
            self.inputs.churn_prefixes, failed, errors, checks,
            ("downstream prefix set equals the churn model", not wrong),
            start, end, cpu, rss, latencies,
            layer=_layer_counters(dut, before, collector, first_message, sink),
        )


class FullTableMrt:
    """PyFRR without extensions, from an MRT file to the merged result of
    a sharded, batched replay over the program's own worker pool."""

    name = "full-table-mrt"
    host = "frr"
    layers = "scale"

    def __init__(self, inputs: inp.MrtInputs, path: str) -> None:
        self.inputs = inputs
        self.path = path
        if not os.path.exists(path):
            with open(path, "wb") as handle:
                handle.write(inputs.data)
        self.shards = nproc()
        self.config = shard.ShardedReplay("frr", [], shards=self.shards, batch=64).config

    def setup(self, tracer: Optional[Tracer] = None):
        """The DUT construction and neighbor wiring each worker does."""
        return shard.build_scale_daemon(self.config)

    def run(self, tracer: Optional[Tracer], iteration: int) -> Iteration:
        phase = _Phases(tracer, iteration)
        phase(WINDOW)
        cpu = cpu_seconds()
        start = perf_counter()
        with open(self.path, "rb") as handle:
            replay = shard.ShardedReplay(
                "frr", mrt_io.iter_routes_from_mrt(handle), shards=self.shards, batch=64
            )
        result = replay.run()
        end = perf_counter()
        cpu = cpu_seconds() - cpu
        rss = peak_rss_mb(workers=True)
        phase(None)

        expected = {str(prefix) for prefix in self.inputs.prefixes}
        missing = expected - result.prefixes
        fallbacks = sum(report["fallbacks"] for report in result.per_shard)
        routes = self.inputs.routes
        checks = {
            "merged prefix_count equals the MRT route count": result.prefix_count == routes,
            "merged Loc-RIB count equals the MRT route count": len(result.snapshot) == routes,
            "merged prefixes equal the MRT prefixes": result.prefixes == expected,
            "no VMM fallbacks": fallbacks == 0,
        }
        failed = 0 if all(checks.values()) else (len(missing) or routes)
        return Iteration(
            window_s=end - start,
            operations=routes,
            delivered=routes - failed,
            cpu_s=cpu,
            peak_rss_mb=rss,
            latencies_ms=[(end - start) * 1e3],
            attempted=routes,
            failed=failed,
            checks=checks,
            shard_reports=result.per_shard,
            layer={"mrt_routes": len(replay.routes)},
        )


# -- helpers shared by the single-daemon workloads ---------------------------


class _Phases:
    """Stamp the tracer's run id with the iteration's current phase."""

    def __init__(self, tracer: Optional[Tracer], iteration: int) -> None:
        self.tracer = tracer
        self.iteration = iteration

    def __call__(self, phase: Optional[int]) -> None:
        if self.tracer is not None:
            self.tracer.run_id = -1 if phase is None else run_id(self.iteration, phase)


def _collect(collector: Collector, tracer: Optional[Tracer]):
    if tracer is None:
        return collector.receive
    return tracer.wrap("export.collect", collector.receive)


def _reflected(attributes: Optional[Dict[int, bytes]], cluster_id: bytes) -> bool:
    """Advertised with ORIGINATOR_ID and a CLUSTER_LIST holding ``cluster_id``."""
    if attributes is None or ORIGINATOR_ID not in attributes:
        return False
    clusters = attributes.get(CLUSTER_LIST, b"")
    return any(clusters[i : i + 4] == cluster_id for i in range(0, len(clusters), 4))


def _program_counters(dut) -> Dict[str, float]:
    pool = getattr(dut, "attr_pool", None)
    return {
        "fallbacks": dut.vmm.fallbacks,
        "instructions": _instructions(dut),
        "pool_hits": pool.hits if pool is not None else 0,
        "pool_misses": pool.misses if pool is not None else 0,
    }


def _layer_counters(dut, before, collector: Collector, first: int, sink: Sink) -> Dict[str, float]:
    after = _program_counters(dut)
    window = collector.messages[first:]
    updates = list(parse_updates(b"".join(window)))
    prefixes = sum(len(w) + len(n) for w, _, n in updates)
    out = {name: after[name] - before[name] for name in after}
    out["export_updates"] = len(updates)
    out["export_prefixes"] = prefixes
    out["export_bytes"] = sum(len(m) for m in window)
    out["sent_bytes"] = out["export_bytes"] + sink.bytes
    return out


def _finish(
    carried: Sequence[Sequence[Prefix]],
    failed: Set[int],
    errors: List[str],
    checks: Dict[str, bool],
    outcome: Tuple[str, bool],
    start: float,
    end: float,
    cpu: float,
    rss: float,
    latencies: List[float],
    layer: Dict[str, float],
) -> Iteration:
    """Assemble the iteration's result.

    ``failed`` holds the UPDATEs that raised or carried a prefix that
    ended in the wrong state; ``outcome`` names that per-prefix check.
    ``checks`` are global: when one fails (counters, fallbacks, table
    size), no UPDATE of the window counts as good.
    """
    operations = sum(len(prefixes) for prefixes in carried)
    if not all(checks.values()):
        failed = set(range(len(carried)))
    delivered = operations - sum(len(carried[index]) for index in failed)
    name, ok = outcome
    checks[name] = ok
    checks["no UPDATE raised"] = not errors
    return Iteration(
        window_s=end - start,
        operations=operations,
        delivered=delivered,
        cpu_s=cpu,
        peak_rss_mb=rss,
        latencies_ms=latencies,
        attempted=len(carried),
        failed=len(failed),
        checks=checks,
        errors=errors[:3],
        layer=layer,
    )


def make(name: str, inputs, workdir: str):
    """The workload ``name`` over ``inputs`` (from :func:`inputs.build`)."""
    if name == "rr-load":
        return RrLoad(inputs)
    if name == "ov-churn":
        return OvChurn(inputs)
    if name == "full-table-mrt":
        return FullTableMrt(inputs, os.path.join(workdir, "table.mrt"))
    raise ValueError(f"unknown workload {name!r}")
