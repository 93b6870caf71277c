"""Span tracing from the benchmark's own files.

The traced run wraps public functions of each layer (module attributes
and class methods) for the duration of one iteration, then restores
them.  A span is ``(name, start, end, parent, run id)``; spans are kept
in flat arrays in memory and written out when the benchmark ends.  A
layer's self time is its spans' durations minus what their direct child
spans cover; ``unattributed_s`` is the window's wall time minus the sum
of every layer's self time.

The run id encodes the iteration and its phase (setup, preload or the
timed window): ``run_id = iteration * 4 + phase``.  The spans of one
UPDATE share the host ``receive_raw`` span as their root.
"""

from __future__ import annotations

import gc
import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

SETUP, PRELOAD, WINDOW = 0, 1, 2

#: Span name -> layer.  The per-layer metrics aggregate by layer.
LAYER_OF = {
    "mrt.next": "mrt",
    "scale.shard.init": "scale.shard",
    "scale.shard.run": "scale.shard",
    "bgp.decode_message": "bgp.decode",
    "bgp.decode_attributes": "bgp.decode",
    "bgp.encode_header": "bgp.encode",
    "bgp.UpdateMessage.encode": "bgp.encode",
    "bgp.PathAttribute.encode": "bgp.encode",
    "bgp.best_route": "bgp.decision",
    "bgp.rib": "bgp.rib",
    "core.vmm.run": "core.vmm",
    "core.api.helper": "core.api",
    "core.api.set_attr": "core.api",
    "core.api.get_attr": "core.api",
    "xc.compile": "xc",
    "ebpf.verify": "ebpf.verify",
    "ebpf.translate": "ebpf.translate",
    "frr.receive_raw": "frr",
    "frr.native": "frr",
    "bird.receive_raw": "bird",
    "bird.native": "bird",
    "export.collect": "export",
}


def run_id(iteration: int, phase: int) -> int:
    return iteration * 4 + phase


class Tracer:
    """In-memory span recorder plus the GC pause log."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self._stack = [-1]
        #: Stamped on every span and GC pause; the caller sets it.
        self.run_id = 0
        self.gc_pauses: List[Tuple[int, int, float]] = []  # (run id, generation, s)
        self._gc_started = 0.0

    def name_id(self, name: str) -> int:
        if name not in LAYER_OF:
            raise KeyError(f"span {name!r} has no layer")
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def call(self, nid: int, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``self.names[nid]``."""
        starts = self.start
        ends = self.end
        stack = self._stack
        sid = len(starts)
        self.name.append(nid)
        self.parent.append(stack[-1])
        self.run.append(self.run_id)
        ends.append(0.0)
        stack.append(sid)
        starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[sid] = perf_counter()
            stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call."""
        nid = self.name_id(name)
        call = self.call

        def traced(*args, **kwargs):
            return call(nid, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def wrap_iterator(self, name: str, fn: Callable) -> Callable:
        """``fn`` returning an iterator: one span per ``next()``."""
        step = self.wrap(name, next)

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = step(iterator)
                except StopIteration:
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- garbage collector ---------------------------------------------

    def _gc_callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_pauses.append(
                (self.run_id, info["generation"], perf_counter() - self._gc_started)
            )

    @contextmanager
    def gc_watch(self) -> Iterator[None]:
        gc.callbacks.append(self._gc_callback)
        try:
            yield
        finally:
            gc.callbacks.remove(self._gc_callback)

    # -- analysis ------------------------------------------------------

    def totals(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """Per run id, per span name: calls, calls not nested in the same
        layer (``top_calls``), total seconds and self seconds."""
        count = len(self.start)
        starts, ends, parents, span_name = self.start, self.end, self.parent, self.name
        covered = array("d", bytes(8 * count))
        for i in range(count):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        layer = [LAYER_OF[name] for name in self.names]
        totals: Dict[int, Dict[str, Dict[str, float]]] = {}
        for i in range(count):
            duration = ends[i] - starts[i]
            row = totals.setdefault(self.run[i], {}).setdefault(
                self.names[span_name[i]],
                {"calls": 0, "top_calls": 0, "total_s": 0.0, "self_s": 0.0},
            )
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[i]
            p = parents[i]
            if p < 0 or layer[span_name[p]] != layer[span_name[i]]:
                row["top_calls"] += 1
        return totals

    def write(self, path: str) -> None:
        """Write every span as gzip'd CSV: name,start,end,parent,run_id."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("name,start,end,parent,run_id\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{names[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                    f"{self.parent[i]},{self.run[i]}\n"
                )


class Patches:
    """Attribute replacements undone by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attribute: str, value: object) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, value = self._saved.pop()
            setattr(owner, attribute, value)


def install(tracer: Tracer, patches: Patches, layers: str, host: str) -> None:
    """Wrap the public functions of the layers a workload exercises.

    ``layers="scale"`` wraps only what runs in the benchmark process of
    a sharded replay (MRT decode, the shard driver): the workers are
    forked from it, and spans recorded there would never come back.
    ``layers="dut"`` wraps every layer of a single in-process daemon.
    """
    from repro.scale import shard
    from repro.workload import mrt_io

    patches.set(
        mrt_io, "iter_routes_from_mrt",
        tracer.wrap_iterator("mrt.next", mrt_io.iter_routes_from_mrt),
    )
    replay = shard.ShardedReplay
    patches.set(replay, "__init__", tracer.wrap("scale.shard.init", replay.__init__))
    patches.set(replay, "run", tracer.wrap("scale.shard.run", replay.run))
    if layers == "scale":
        return

    from repro.bgp import attributes, messages, rib
    from repro.bird import daemon as bird_daemon
    from repro.core import manifest, vmm
    from repro.ebpf import vm
    from repro.frr import daemon as frr_daemon

    for name in ("decode_message", "decode_attributes"):
        patches.set(messages, name, tracer.wrap(f"bgp.{name}", getattr(messages, name)))
    encode_header = tracer.wrap("bgp.encode_header", messages.encode_header)
    patches.set(messages, "encode_header", encode_header)
    patches.set(frr_daemon, "encode_header", encode_header)
    for cls in (messages.UpdateMessage, attributes.PathAttribute):
        patches.set(cls, "encode", tracer.wrap(f"bgp.{cls.__name__}.encode", cls.encode))
    for module in (frr_daemon, bird_daemon):
        patches.set(module, "best_route", tracer.wrap("bgp.best_route", module.best_route))
    for cls, methods in (
        (rib.AdjRibIn, ("update", "withdraw")),
        (rib.LocRib, ("install", "remove")),
        (rib.AdjRibOut, ("advertise", "withdraw")),
    ):
        for method in methods:
            patches.set(cls, method, tracer.wrap("bgp.rib", cls.__dict__[method]))

    host_nid = tracer.name_id(f"{host}.native")
    run_nid = tracer.name_id("core.vmm.run")
    vmm_run = vmm.VirtualMachineManager.run
    call = tracer.call

    def run(self, ctx, default_fn):
        # The host's native default runs inside the VMM call (when
        # nothing is attached or the code calls next()); it is host
        # work, so it gets its own span in the host layer.
        return call(run_nid, vmm_run, self, ctx, lambda: call(host_nid, default_fn))

    patches.set(vmm.VirtualMachineManager, "run", run)

    build_helper_table = vmm.build_helper_table

    def traced_helper_table():
        table = build_helper_table()
        for helper in map(table.get, list(table.ids())):
            name = helper.name if helper.name in ("set_attr", "get_attr") else "helper"
            helper.fn = tracer.wrap(f"core.api.{name}", helper.fn)
        return table

    patches.set(vmm, "build_helper_table", traced_helper_table)
    patches.set(manifest, "compile_source", tracer.wrap("xc.compile", manifest.compile_source))
    patches.set(vmm, "verify", tracer.wrap("ebpf.verify", vmm.verify))
    patches.set(
        vm.VirtualMachine, "prepare", tracer.wrap("ebpf.translate", vm.VirtualMachine.prepare)
    )
    for cls in (frr_daemon.FrrDaemon, bird_daemon.BirdDaemon):
        patches.set(
            cls, "receive_raw",
            tracer.wrap(f"{cls.implementation}.receive_raw", cls.receive_raw),
        )


@contextmanager
def traced(tracer: Tracer, layers: str, host: str) -> Iterator[None]:
    """Tracing on for the ``with`` block, every patch undone after."""
    patches = Patches()
    try:
        install(tracer, patches, layers, host)
        with tracer.gc_watch():
            yield
    finally:
        patches.restore()
