"""Seeded input generation for the three benchmark workloads.

Every input is derived from the ``--seed`` argument through the
program's own generators (``RibGenerator``, ``build_updates``,
``repro.mrt.write_table``), so the device under test only ever sees
wire bytes and files.  The same seed gives byte-identical inputs; the
churn stream, the ROA set and the expected outcome model are computed
here, before anything is handed to the DUT.
"""

from __future__ import annotations

import hashlib
import io
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.bgp.constants import RouteOriginValidity
from repro.bgp.messages import UpdateMessage
from repro.bgp.prefix import Prefix, parse_ipv4
from repro.bgp.roa import Roa, make_roas_for_prefixes
from repro.mrt import MrtPeer, RibEntry, write_table
from repro.workload.rib_gen import RibGenerator, RouteSpec, build_updates, origins_of

#: Addresses and AS numbers of the benchmark topology.  The DUT is AS
#: 65001; rr-load runs iBGP inside it, ov-churn has two eBGP upstreams.
DUT = "10.0.0.1"
UPSTREAM_A = "10.0.1.2"
UPSTREAM_B = "10.0.3.2"
DOWNSTREAM = "10.0.2.2"
DUT_ASN = 65001
ASN_A = 65100
ASN_B = 65300
ASN_DOWNSTREAM = 65200
MRT_PEER = "10.0.0.9"

#: Default sizes, chosen so each run measures several iterations within
#: its time budget (see perfbench/METRICS.md); tests pass a ``scale``.
RR_ROUTES = 20_000
MRT_ROUTES = 100_000
OV_TABLE = 8_000
OV_CHURN_UPDATES = 3_000
#: Prefixes per churn UPDATE.  Fixed, so that the latency tail is not a
#: mix of UPDATE sizes: at this size ~2 % of the UPDATEs hold a gen-1
#: GC pause, and the p99 falls inside that group (as on rr-load) rather
#: than on its edge, where it jumped by 30 % from seed to seed.
CHURN_PREFIXES = 8


def _sub_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(round(count * scale)))


# -- rr-load ---------------------------------------------------------------


@dataclass
class RrInputs:
    """One iBGP client's full table transfer, as encoded UPDATEs."""

    feed: List[bytes]
    #: Prefixes each UPDATE carries, parallel to ``feed``.
    nlri: List[Tuple[Prefix, ...]]

    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.feed)).hexdigest()

    @property
    def routes(self) -> int:
        return sum(len(prefixes) for prefixes in self.nlri)


def rr_inputs(seed: int, scale: float = 1.0) -> RrInputs:
    routes = RibGenerator(
        n_routes=_scaled(RR_ROUTES, scale, 50), seed=_sub_seed(seed, "rr")
    ).generate()
    updates = build_updates(routes, next_hop=parse_ipv4(UPSTREAM_A), session="ibgp")
    return RrInputs([u.encode() for u in updates], [tuple(u.nlri) for u in updates])


# -- full-table-mrt --------------------------------------------------------


@dataclass
class MrtInputs:
    """A TABLE_DUMP_V2 image of a generated table."""

    data: bytes
    prefixes: Tuple[Prefix, ...]

    def digest(self) -> str:
        return hashlib.sha256(self.data).hexdigest()

    @property
    def routes(self) -> int:
        return len(self.prefixes)


def mrt_inputs(seed: int, scale: float = 1.0) -> MrtInputs:
    routes = RibGenerator(
        n_routes=_scaled(MRT_ROUTES, scale, 200), seed=_sub_seed(seed, "mrt")
    ).generate()
    peer = parse_ipv4(MRT_PEER)
    updates = build_updates(routes, next_hop=peer, session="ebgp", sender_asn=ASN_A)
    entries = [
        RibEntry(prefix, 0, 0, update.attributes)
        for update in updates
        for prefix in update.nlri
    ]
    buffer = io.BytesIO()
    write_table(buffer, [MrtPeer(peer, peer, ASN_A)], entries)
    return MrtInputs(buffer.getvalue(), tuple(entry.prefix for entry in entries))


# -- ov-churn --------------------------------------------------------------


@dataclass
class OvInputs:
    """Preload table from A, a churn stream from A and B, the ROA set,
    and the outcome the stream must produce."""

    roas: List[Roa]
    preload: List[bytes]
    churn: List[bytes]
    #: Sending peer of each churn UPDATE, parallel to ``churn``.
    churn_peer: List[str]
    #: Prefixes each churn UPDATE carries (NLRI and withdrawn).
    churn_prefixes: List[Tuple[Prefix, ...]]
    #: Prefixes the downstream must hold after preload + churn.
    expected_prefixes: frozenset
    #: RFC 6811 outcome count over every eBGP import, computed by
    #: :class:`Rfc6811` — independent of the program's stores.
    expected_validity: Dict[str, int]

    def digest(self) -> str:
        h = hashlib.sha256()
        for roa in self.roas:
            h.update(f"{roa.prefix} {roa.asn} {roa.max_length};".encode())
        for blob in self.preload + self.churn:
            h.update(blob)
        h.update(",".join(self.churn_peer).encode())
        return h.hexdigest()


class Rfc6811:
    """RFC 6811 §2 route origin validation over a ROA list.

    Written here, not borrowed from ``repro.bgp.roa``, so the ov-churn
    counter check compares the extension against an independent model.
    """

    def __init__(self, roas: Sequence[Roa]) -> None:
        self._by_block: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for roa in roas:
            key = (roa.prefix.network, roa.prefix.length)
            self._by_block.setdefault(key, []).append((roa.asn, roa.max_length))

    def validity(self, prefix: Prefix, origin_asn: int) -> str:
        covered = False
        for length in range(prefix.length, -1, -1):
            mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
            for asn, max_length in self._by_block.get((prefix.network & mask, length), ()):
                covered = True
                if asn == origin_asn and asn != 0 and prefix.length <= max_length:
                    return RouteOriginValidity.VALID.name
        return (
            RouteOriginValidity.INVALID.name
            if covered
            else RouteOriginValidity.NOT_FOUND.name
        )


def _encode_one(specs: List[RouteSpec], next_hop: str, sender_asn: int) -> bytes:
    (update,) = build_updates(
        specs,
        next_hop=parse_ipv4(next_hop),
        session="ebgp",
        sender_asn=sender_asn,
        max_prefixes_per_update=len(specs),
    )
    return update.encode()


def ov_inputs(seed: int, scale: float = 1.0) -> OvInputs:
    """Build the ov-churn workload.

    The churn mixes three kinds of UPDATE, each carrying
    ``CHURN_PREFIXES`` prefixes: B announces an alternative path
    (sometimes shorter than A's, so sometimes best), A re-announces with
    a changed AS_PATH/MED (an implicit replace), and A withdraws
    prefixes it holds.
    """
    table_seed = _sub_seed(seed, "ov-table")
    table = RibGenerator(n_routes=_scaled(OV_TABLE, scale, 100), seed=table_seed).generate()
    roas = make_roas_for_prefixes(
        origins_of(table), valid_fraction=0.75, seed=_sub_seed(seed, "ov-roa")
    )
    rov = Rfc6811(roas)
    validity = {name: 0 for name in ("VALID", "NOT_FOUND", "INVALID")}

    preload_updates = build_updates(
        table, next_hop=parse_ipv4(UPSTREAM_A), session="ebgp", sender_asn=ASN_A
    )
    preload = [update.encode() for update in preload_updates]
    for spec in table:
        validity[rov.validity(spec.prefix, spec.origin_asn)] += 1

    rng = random.Random(_sub_seed(seed, "ov-churn"))
    by_prefix = {spec.prefix: spec for spec in table}
    prefixes = [spec.prefix for spec in table]
    held_by_a = set(prefixes)
    held_by_b: set = set()
    transit = list(range(3, 603))

    churn: List[bytes] = []
    churn_peer: List[str] = []
    churn_prefixes: List[Tuple[Prefix, ...]] = []
    # The shares of each kind, the origin changes, MEDs and transit hops
    # below are synthetic: picked to exercise each code path, not taken
    # from a measurement of real BGP churn.
    while len(churn) < _scaled(OV_CHURN_UPDATES, scale, 40):
        kind = rng.random()
        if kind < 0.25 and len(held_by_a) > 2 * CHURN_PREFIXES:
            # A withdraws prefixes it currently announces.
            chosen: List[Prefix] = []
            while len(chosen) < CHURN_PREFIXES:
                prefix = rng.choice(prefixes)
                if prefix in held_by_a and prefix not in chosen:
                    chosen.append(prefix)
            held_by_a.difference_update(chosen)
            churn.append(UpdateMessage(withdrawn=chosen).encode())
            churn_peer.append(UPSTREAM_A)
            churn_prefixes.append(tuple(chosen))
            continue
        chosen = rng.sample(prefixes, CHURN_PREFIXES)
        origin = by_prefix[chosen[0]].origin_asn
        if rng.random() < 0.15:
            origin = rng.choice(transit)  # a different origin: often INVALID
        path = tuple(rng.sample(transit, rng.randint(0, 4))) + (origin,)
        med = rng.randrange(0, 1000) if rng.random() < 0.6 else None
        communities = tuple(
            sorted((origin << 16) | rng.randrange(1000) for _ in range(rng.randint(0, 2)))
        )
        code = rng.choice((0, 2))
        specs = [RouteSpec(prefix, path, code, med, communities) for prefix in chosen]
        if kind < 0.60:
            churn.append(_encode_one(specs, UPSTREAM_B, ASN_B))
            churn_peer.append(UPSTREAM_B)
            held_by_b.update(chosen)
        else:
            churn.append(_encode_one(specs, UPSTREAM_A, ASN_A))
            churn_peer.append(UPSTREAM_A)
            held_by_a.update(chosen)
        churn_prefixes.append(tuple(chosen))
        for prefix in chosen:
            validity[rov.validity(prefix, origin)] += 1

    return OvInputs(
        roas=roas,
        preload=preload,
        churn=churn,
        churn_peer=churn_peer,
        churn_prefixes=churn_prefixes,
        expected_prefixes=frozenset(held_by_a | held_by_b),
        expected_validity=validity,
    )


def build(workload: str, seed: int, scale: float = 1.0):
    """The inputs of ``workload`` for ``seed``."""
    if workload == "rr-load":
        return rr_inputs(seed, scale)
    if workload == "full-table-mrt":
        return mrt_inputs(seed, scale)
    if workload == "ov-churn":
        return ov_inputs(seed, scale)
    raise ValueError(f"unknown workload {workload!r}")

