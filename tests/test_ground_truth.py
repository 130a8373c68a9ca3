"""Every scanner's reported hops lie on the simulator's true routes.

The simulator knows the ground truth, so a scan can be checked, not only
pinned: each reported ``(prefix, ttl, responder)`` must be
``Topology.true_route(dst, flow, epoch)[ttl - 1]`` for the target's flow
(the checksum-derived source port every tool keeps per destination) and
some route epoch the scan spanned.  Loss drops answers but never moves
one, so the check holds under faults too.  Over the IPv6 address plan the
same check runs on v6 addresses.
"""

import pytest

from repro.api import Engine, ScanRequest
from repro.core import FlashRoute, FlashRouteConfig
from repro.core.scanner import scanner_names
from repro.net.checksum import flow_source_port
from repro.simnet import SimulatedNetwork, Topology, TopologyConfig
from repro.simnet.faults import FaultModel

PREFIXES = 256
SEED = 3
LOSSES = [0.0, 0.05]


def off_route(topology, result):
    """The reported hops that no true route of the scan's epochs holds."""
    epochs = range(int(result.duration
                       / topology.config.flap_epoch_seconds) + 1)
    wrong = []
    for prefix, hops in result.routes.items():
        dst = result.targets[prefix]
        flow = flow_source_port(dst, 0)
        routes = [topology.true_route(dst, flow, epoch) for epoch in epochs]
        for ttl, responder in hops.items():
            if all(route[ttl - 1] != responder for route in routes):
                wrong.append((prefix, ttl, responder))
    return wrong


@pytest.fixture(scope="module")
def engine():
    return Engine(TopologyConfig(num_prefixes=PREFIXES, seed=SEED))


@pytest.fixture(scope="module")
def topo6():
    return Topology(TopologyConfig(num_prefixes=PREFIXES, seed=SEED,
                                   address_bits=128))


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("tool", scanner_names())
def test_every_hop_is_on_the_true_route(engine, tool, loss):
    request = ScanRequest(tool=tool, prefixes=PREFIXES, seed=SEED,
                          loss=loss, fault_seed=7)
    result = engine.open_session(request).run()
    assert result.routes
    assert off_route(engine.topology, result) == []


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("config", [
    FlashRouteConfig.flashroute_16_v6(),
    FlashRouteConfig.yarrp32_udp_simulation(granularity=64,
                                            probing_rate=1000.0)],
    ids=["flashroute-16-v6", "yarrp-32-udp-sim-v6"])
def test_every_ipv6_hop_is_on_the_true_route(topo6, config, loss):
    network = SimulatedNetwork(topo6, faults=FaultModel(
        probe_loss=loss, response_loss=loss, seed=7))
    result = FlashRoute(config).scan(network)
    assert result.routes
    assert off_route(topo6, result) == []
