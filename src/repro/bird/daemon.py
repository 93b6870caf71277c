"""PyBIRD: a BIRD-flavoured BGP daemon.

Distinctive internals (mirroring what the paper leaned on in BIRD):

* attributes live in flexible, wire-shaped :class:`EattrList`s;
* validated ROAs sit in a **hash table** (:class:`HashRoaTable`) — one
  probe per candidate length;
* route objects parse attribute bytes lazily.

The RFC 4271 pipeline itself is :class:`repro.host.HostDaemon`, shared
with PyFRR; this module supplies only the eattr-shaped representation
hooks.  The daemon is transport agnostic: a harness registers a
``send_fn`` per neighbor and feeds received bytes to
:meth:`receive_raw`; both the discrete-event simulator and the asyncio
transport drive it this way.
"""

from __future__ import annotations

import struct

from ..bgp.attributes import (
    PathAttribute,
    make_as_path,
    make_cluster_list,
    make_next_hop,
    make_originator_id,
)
from ..bgp.constants import AttrTypeCode
from ..bgp.decision import best_route  # noqa: F401 - perfbench tracer patch point
from ..bgp.peer import Neighbor
from ..bgp.roa import HashRoaTable
from ..host.daemon import HostDaemon
from .eattrs import EattrList
from .rib import BirdRoute
from .xbgp_glue import BirdHost

__all__ = ["BirdDaemon"]


class BirdDaemon(HostDaemon):
    """One PyBIRD router instance."""

    implementation = "bird"
    route_class = BirdRoute
    glue_class = BirdHost
    #: BIRD-style: validated ROAs in a hash table.
    roa_table_class = HashRoaTable

    #: Own class attribute, not only inherited: perfbench's tracer wraps
    #: ``BirdDaemon.__dict__["receive_raw"]`` to time this host's receive path.
    receive_raw = HostDaemon.receive_raw

    # -- representation hooks ---------------------------------------------

    #: Attribute values stay the raw wire bytes.  At BGP_RECEIVE_MESSAGE
    #: extensions see (and rewrite in place) the UPDATE's shared list.
    _decode_attrs = staticmethod(EattrList.from_wire)

    def _stamp_reflection(self, route: BirdRoute) -> BirdRoute:
        eattrs = route.eattrs.copy()
        if AttrTypeCode.ORIGINATOR_ID not in eattrs:
            originator = route.source.peer_router_id if route.source else self.router_id
            attr = make_originator_id(originator)
            eattrs.ea_set(attr.type_code, attr.flags, attr.value)
        attr = make_cluster_list((self.cluster_id,) + route.cluster_list())
        eattrs.ea_set(attr.type_code, attr.flags, attr.value)
        return route.with_eattrs(eattrs)

    def _export_mechanics_attrs(
        self, route: BirdRoute, neighbor: Neighbor, source_ebgp: bool
    ) -> EattrList:
        eattrs = route.eattrs.copy()
        if neighbor.is_ebgp():
            path = route.as_path().prepend(self.asn)
            attr = make_as_path(path)
            eattrs.ea_set(attr.type_code, attr.flags, attr.value)
            next_hop = make_next_hop(self.local_address)
            eattrs.ea_set(next_hop.type_code, next_hop.flags, next_hop.value)
            eattrs.ea_unset(AttrTypeCode.LOCAL_PREF)
            eattrs.ea_unset(AttrTypeCode.MULTI_EXIT_DISC)
        else:
            if AttrTypeCode.LOCAL_PREF not in eattrs:
                local_pref = PathAttribute(0x40, AttrTypeCode.LOCAL_PREF, struct.pack("!I", 100))
                eattrs.ea_set(local_pref.type_code, local_pref.flags, local_pref.value)
            if self.nexthop_self and source_ebgp:
                next_hop = make_next_hop(self.local_address)
                eattrs.ea_set(next_hop.type_code, next_hop.flags, next_hop.value)
        return eattrs

    def _with_export_attrs(self, route: BirdRoute, eattrs: EattrList) -> BirdRoute:
        # Eattr lists are mutable: a cached rewrite is never handed out
        # itself, each route gets a copy.
        return route.with_eattrs(eattrs.copy())
