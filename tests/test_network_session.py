"""Per-session network views (``SimulatedNetwork.open_session``).

The service daemon holds one warm network and runs many concurrent trace
sessions over it, each on its own virtual clock.  These tests pin the
session contract: interleaving two sessions' probes produces, for each
session, byte-identical responses to running the sessions back to back —
and demonstrate why a bare shared network cannot promise that (shared
one-second rate-limiter bins).
"""

import pytest

from repro.simnet.config import TopologyConfig
from repro.simnet.faults import FaultModel
from repro.simnet.network import SimulatedNetwork
from repro.simnet.topology import Topology


def _topology(**overrides):
    return Topology(TopologyConfig(num_prefixes=64, seed=20201027,
                                   **overrides))


def _probe_script(topology, salt):
    """A deterministic per-session probe schedule: every prefix's .1
    address, TTLs 1..8, paced 2 ms apart on the session's own clock."""
    probes = []
    now = 0.0
    for index, prefix in enumerate(topology.scanned_prefixes()):
        dst = (prefix << 8) | 1
        for ttl in range(1, 9):
            probes.append((dst, ttl, now, 30000 + ((index + salt) % 256)))
            now += 0.002
    return probes


def _transcript_entry(response):
    if response is None:
        return None
    return (response.kind.value, response.responder,
            response.arrival_time, response.quoted_residual_ttl)


def _run_script(session, probes):
    return [_transcript_entry(session.send_probe(dst, ttl, now, port))
            for dst, ttl, now, port in probes]


def _run_interleaved(session_a, probes_a, session_b, probes_b):
    """Alternate probes between two sessions, preserving each session's
    own schedule, and return the two per-session transcripts."""
    out_a, out_b = [], []
    iter_a, iter_b = iter(probes_a), iter(probes_b)
    while True:
        stepped = False
        for source, session, out in ((iter_a, session_a, out_a),
                                     (iter_b, session_b, out_b)):
            probe = next(source, None)
            if probe is not None:
                dst, ttl, now, port = probe
                out.append(_transcript_entry(
                    session.send_probe(dst, ttl, now, port)))
                stepped = True
        if not stepped:
            return out_a, out_b


class TestSessionIsolation:
    def test_interleaved_sessions_match_sequential(self):
        topology = _topology()
        warm = SimulatedNetwork(topology)
        probes_a = _probe_script(topology, salt=0)
        probes_b = _probe_script(topology, salt=7)

        sequential_a = _run_script(warm.open_session(), probes_a)
        sequential_b = _run_script(warm.open_session(), probes_b)

        inter_a, inter_b = _run_interleaved(
            warm.open_session(), probes_a, warm.open_session(), probes_b)
        assert inter_a == sequential_a
        assert inter_b == sequential_b

    def test_interleaved_sessions_match_under_faults(self):
        topology = _topology()
        warm = SimulatedNetwork(topology)
        faults = FaultModel(probe_loss=0.1, response_loss=0.1, seed=13)
        probes_a = _probe_script(topology, salt=0)
        probes_b = _probe_script(topology, salt=3)

        sequential_a = _run_script(warm.open_session(faults=faults),
                                   probes_a)
        sequential_b = _run_script(warm.open_session(faults=faults),
                                   probes_b)
        inter_a, inter_b = _run_interleaved(
            warm.open_session(faults=faults), probes_a,
            warm.open_session(faults=faults), probes_b)
        assert inter_a == sequential_a
        assert inter_b == sequential_b

    def test_shared_bare_network_is_perturbed(self):
        """The bug the session view fixes: two scans sharing one network
        fill each other's one-second rate-limiter bins."""
        topology = _topology()
        probes = _probe_script(topology, salt=0)

        reference = _run_script(
            SimulatedNetwork(topology, rate_limit=1), probes)
        shared = SimulatedNetwork(topology, rate_limit=1)
        # Same schedule replayed twice through ONE network: the second
        # pass re-probes the same interfaces in the same virtual seconds,
        # so the shared bins drop responses a fresh scan would get.
        first = _run_script(shared, probes)
        second = _run_script(shared, probes)
        assert first == reference
        assert second != reference

        # Sessions over a warm core do not interact.
        warm = SimulatedNetwork(topology)
        first = _run_script(warm.open_session(rate_limit=1), probes)
        second = _run_script(warm.open_session(rate_limit=1), probes)
        assert first == second

    def test_session_counters_and_faults_are_private(self):
        topology = _topology()
        warm = SimulatedNetwork(topology)
        faults = FaultModel(probe_loss=0.2, response_loss=0.2, seed=5)
        session_a = warm.open_session(faults=faults)
        session_b = warm.open_session()
        _run_script(session_a, _probe_script(topology, salt=0))
        assert warm.probes_sent == 0
        assert session_b.probes_sent == 0
        assert session_a.probes_sent > 0
        stats = session_a.stats()
        assert stats["faults"] is not None
        assert session_b.stats()["faults"] is None
        assert warm.stats()["faults"] is None

    def test_session_shares_warm_route_cache(self):
        topology = _topology()
        warm = SimulatedNetwork(topology)
        session_a = warm.open_session()
        assert session_a.route_cache is warm.route_cache
        probes = _probe_script(topology, salt=0)
        _run_script(session_a, probes)
        misses_after_first = warm.route_cache.stats()["misses"]
        assert misses_after_first > 0
        # A second session over the same warm core reuses the tables the
        # first one built: no new misses, only hits.
        _run_script(warm.open_session(), probes)
        assert warm.route_cache.stats()["misses"] == misses_after_first
        assert warm.route_cache.stats()["hits"] > 0

    def test_batched_sends_are_session_private_too(self):
        topology = _topology()
        warm = SimulatedNetwork(topology)
        prefix = next(iter(topology.scanned_prefixes()))
        dst = (prefix << 8) | 1
        batch = [(dst, ttl, 0.001 * ttl, 30000, 0, 8)
                 for ttl in range(1, 9)]
        session_a = warm.open_session()
        session_b = warm.open_session()
        alone = [_transcript_entry(r)
                 for r in warm.open_session().send_probes(list(batch))]
        replies_a = [_transcript_entry(r)
                     for r in session_a.send_probes(list(batch))]
        replies_b = [_transcript_entry(r)
                     for r in session_b.send_probes(list(batch))]
        assert replies_a == alone
        assert replies_b == alone
        assert warm.probes_sent == 0

    def test_dead_session_limiter_is_reused_empty(self):
        """A session's limiter bins span the whole topology; the next
        session takes a dead one's instead of allocating its own, and it
        answers exactly as a fresh network does."""
        topology = _topology()
        warm = SimulatedNetwork(topology)
        probes = _probe_script(topology, salt=0)
        dying = warm.open_session(rate_limit=1)
        _run_script(dying, probes)
        limiter = dying.rate_limiter
        assert limiter.dropped > 0
        del dying
        reused = warm.open_session(rate_limit=1)
        assert reused.rate_limiter is limiter
        assert reused.stats()["ratelimit"]["dropped"] == 0
        # Same probes, same virtual seconds: no bin of the dead session
        # may count against the new one.
        assert _run_script(reused, probes) == _run_script(
            SimulatedNetwork(topology, rate_limit=1), probes)
        # A live session's limiter is never handed out.
        assert warm.open_session().rate_limiter is not limiter
        del reused
        assert warm.open_session().rate_limiter.limit == \
            topology.config.icmp_rate_limit


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
