"""The topology against its object-form oracle, on generated configs.

``tests/oracle/topology.py`` keeps the generator as one object graph per
/24.  :class:`~repro.simnet.topology.Topology` must agree with it on every
column, every ``prefixes[i]`` view, the hitlist and every ground-truth
query, over seeds × configs that include the extremes: interior chains long
enough (15–17 hops) that the alternate last hop's octet 240 lands on the
chain, every stub flavour at probability 1, near-full host density and
256-prefix stub blocks.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle.topology import OracleTopology
from repro.simnet.config import TopologyConfig
from repro.simnet.hitlist import hitlist_addresses
from repro.simnet.topology import Topology

#: Knob values that push one behaviour to always (or nearly always).
_EXTREMES = {
    "alt_last_hop_probability": 1.0,
    "default_route_loop_probability": 1.0,
    "ttl_reset_middlebox_probability": 1.0,
    "host_unreachable_probability": 1.0,
    "route_flap_probability": 1.0,
    "stub_active_probability": 1.0,
    "ping_only_prefix_probability": 1.0,
    "host_density": 0.95,
    "load_balancer_probability": 0.6,
    "dark_interior_probability": 1.0,
    "stub_block_sizes": ((256, 1),),
}

#: Interior depths: the default, one that reaches octet 240 only with
#: +1 jitter, and one that always reaches it.
_INTERNAL_HOPS = (TopologyConfig().internal_hops, ((14, 1),), ((16, 1),))

#: Octets worth probing in any /24: network, gateway, the halves' edges,
#: the alternate last hop, the chain's end of the space, broadcast.
_OCTETS = st.one_of(st.sampled_from([0, 1, 2, 127, 128, 238, 239, 240,
                                     241, 248, 249, 250, 253, 254, 255]),
                    st.integers(0, 255))


@st.composite
def _cases(draw):
    knobs = {name: _EXTREMES[name]
             for name in draw(st.sets(st.sampled_from(sorted(_EXTREMES)),
                                      max_size=5))}
    config = TopologyConfig(
        num_prefixes=draw(st.one_of(st.integers(1, 48),
                                    st.integers(257, 300))),
        seed=draw(st.integers(0, 2**32 - 1)),
        internal_hops=draw(st.sampled_from(_INTERNAL_HOPS)), **knobs)
    sample = draw(st.lists(st.integers(0, config.num_prefixes - 1),
                           min_size=1, max_size=10, unique=True))
    octets = draw(st.lists(_OCTETS, min_size=1, max_size=4))
    flows = draw(st.tuples(st.integers(0, 65535), st.integers(0, 65535)))
    epoch = 2 * draw(st.integers(0, 3))
    return config, sample, octets, flows, epoch


def _pinned(test):
    for case in _PINNED:
        test = example(case=case)(test)
    return test


def _hop(hop):
    return hop.kind, hop.iface, hop.residual_ttl, hop.dest_depth


def _view(record):
    return (record.stub_id, tuple(record.internal_ifaces),
            frozenset(record.active_hosts), frozenset(record.ping_hosts),
            dict(record.special_hosts), bool(record.flap),
            record.hitlist_host, record.alt_last_hop)


#: The extremes generation may not combine by itself: a full 256-prefix
#: block whose every /24 has a 240 collision, and the two stub flavours
#: that hide or cut the interior.
_PINNED = (
    (TopologyConfig(num_prefixes=300, seed=11, internal_hops=((16, 1),),
                    stub_block_sizes=((256, 1),),
                    alt_last_hop_probability=1.0,
                    default_route_loop_probability=1.0,
                    route_flap_probability=1.0, host_density=0.95),
     [0, 1, 255, 256, 299], [1, 200, 240], (0, 4242), 0),
    (TopologyConfig(num_prefixes=40, seed=5,
                    ttl_reset_middlebox_probability=1.0,
                    route_flap_probability=1.0, stub_active_probability=1.0),
     [0, 7, 39], [1, 100, 250], (3, 65535), 2),
    (TopologyConfig(num_prefixes=40, seed=6, internal_hops=((14, 1),),
                    host_unreachable_probability=1.0,
                    ping_only_prefix_probability=1.0,
                    load_balancer_probability=0.6),
     [0, 20, 39], [128, 240, 241], (1, 2), 4),
)


class TestColumnsMatchTheObjectForm:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=_cases())
    @_pinned
    def test_every_query_agrees(self, case):
        config, sample, octets, flows, epoch = case
        topo, oracle = Topology(config), OracleTopology(config)

        # Per-interface columns, stubs, diamonds.
        assert list(topo.iface_addrs) == oracle.iface_addrs
        assert list(topo.iface_depth) == oracle.iface_depth
        assert topo.udp_resp == oracle.udp_resp
        assert topo.tcp_resp == oracle.tcp_resp
        assert topo.dest_resp == oracle.dest_resp
        assert topo.stubs == oracle.stubs
        assert topo.lb_groups == oracle.lb_groups

        # Addresses are unique but for the one collision the layout has:
        # a chain of 15+ hops reaches octet 240, which the alternate last
        # hop then also holds (and wins, as a special host).
        collisions = Counter(
            (topo.base_prefix + offset) << 8 | 240
            for offset, record in enumerate(oracle.prefixes)
            if len(record.internal_ifaces) >= 15
            and record.alt_last_hop >= 0)
        repeated = {addr: count - 1 for addr, count
                    in Counter(topo.iface_addrs).items() if count > 1}
        assert repeated == dict(collisions)

        # iface_of derives what addr_to_iface stored, the collision's
        # winner included: every interface address, every address of the
        # sampled /24s, and both ends of the infrastructure range.
        infra_end = 1 + max(addr for addr in oracle.iface_addrs
                            if oracle.prefix_offset(addr) < 0)
        probes = set(oracle.iface_addrs) | {topo.vantage_addr, infra_end}
        for offset in sample:
            probes.update(range((topo.base_prefix + offset) << 8,
                                (topo.base_prefix + offset + 1) << 8))
        for addr in probes:
            assert topo.iface_of(addr) == oracle.addr_to_iface.get(addr), \
                addr

        # Every per-/24 view, and the hitlist.
        assert len(topo.prefixes) == len(oracle.prefixes)
        for offset, record in enumerate(oracle.prefixes):
            assert _view(topo.prefixes[offset]) == _view(record), offset
        assert hitlist_addresses(topo) == oracle.hitlist_addresses()

        # Set-wide ground truth.
        for udp in (True, False):
            for alternates in (True, False):
                assert topo.reachable_interfaces(
                    include_lb_alternates=alternates, udp=udp) == \
                    oracle.reachable_interfaces(
                        include_lb_alternates=alternates, udp=udp)
        assert topo.reachable_interfaces(max_ttl=12) == \
            oracle.reachable_interfaces(max_ttl=12)

        # Per-destination ground truth over sampled /24s and octets, one
        # destination on each side of the scanned space included.
        dsts = [(topo.base_prefix - 1) << 8 | 9,
                (topo.base_prefix + topo.num_prefixes) << 8 | 9]
        for offset in sample:
            record = oracle.prefixes[offset]
            chosen = set(octets) | {
                record.hitlist_host, min(record.active_hosts, default=2),
                255 - len(record.internal_ifaces), 240}
            dsts.extend((topo.base_prefix + offset) << 8 | octet
                        for octet in sorted(chosen))
        for dst in dsts:
            for now in (epoch, epoch + 1):
                assert topo.destination_distance(dst, epoch=now) == \
                    oracle.destination_distance(dst, epoch=now)
                for flow in flows:
                    assert topo.true_route(dst, flow=flow, epoch=now) == \
                        oracle.true_route(dst, flow=flow, epoch=now)
                    for ttl in range(0, 34):
                        assert _hop(topo.hop_at(dst, ttl, flow, now)) == \
                            _hop(oracle.hop_at(dst, ttl, flow, now)), \
                            (dst, ttl, flow, now)
