"""The scan result's hop table against the dict of dicts it replaced.

A :class:`~repro.core.results.HopTable` holds every hop as a row in
arrival order; ``tests/oracle/results.py`` keeps the per-prefix
``{ttl: responder}`` store.  Fed the same hop stream, every reader (the
serializers, the route views, pickling, checkpoint round trips and the
shard merge) must say what the dicts say.  The memory guards hold the
table to its per-hop size.
"""

import gc
import io
import pickle
import tracemalloc

from hypothesis import given, settings, strategies as st

from oracle import output as per_hop
from oracle.results import DictResult
from repro.api import Engine, ScanRequest
from repro.core.output import (format_route, result_from_dict,
                               result_to_dict, write_hops_csv, write_json)
from repro.core.results import HopTable, ScanResult
from repro.core.sharding import merge_results
from repro.net.addr import AddressError
from repro.simnet import TopologyConfig


@st.composite
def _streams(draw):
    """(rows, destination distances, targets): few prefixes and TTLs, so
    (prefix, TTL) pairs repeat with other responders; on a wide stream
    prefixes and responders run past 32 bits, as IPv6 ones do."""
    wide = draw(st.booleans())
    prefixes = draw(st.lists(st.integers(0, 2**64 - 1 if wide else 2**24 - 1),
                             min_size=1, max_size=5, unique=True))
    responders = draw(st.lists(
        st.integers(0, 2**128 - 1 if wide else 2**32 - 1),
        min_size=1, max_size=6))
    ttls = st.one_of(st.integers(1, 6), st.integers(0, 255))
    rows = draw(st.lists(st.tuples(st.sampled_from(prefixes), ttls,
                                   st.sampled_from(responders)),
                         max_size=40))
    distances = draw(st.dictionaries(st.sampled_from(prefixes),
                                     st.integers(1, 40), max_size=3))
    targets = {prefix: prefix << 8 | 1 for prefix in prefixes
               if prefix < 2**24 and draw(st.booleans())}
    return rows, distances, targets


def _result(rows, distances, targets) -> ScanResult:
    result = ScanResult(tool="generated", num_targets=len(targets))
    result.targets = dict(targets)
    result.dest_distance = dict(distances)
    for prefix, ttl, responder in rows:
        result.add_hop(prefix, ttl, responder)
    return result


def _outcome(read, *args):
    """What ``read(*args)`` returns, or the type of what it raises (the
    writers refuse addresses past 32 bits)."""
    try:
        return read(*args)
    except AddressError:
        return AddressError


def _text(write, result) -> object:
    stream = io.StringIO()
    outcome = _outcome(write, result, stream)
    return outcome if outcome is AddressError else stream.getvalue()


class TestAgainstTheDictStore:
    @settings(max_examples=300, deadline=None)
    @given(_streams())
    def test_every_reader_equals_the_dicts(self, stream):
        rows, distances, targets = stream
        table = _result(rows, distances, targets)
        dicts = DictResult(_result([], distances, targets))
        for row in rows:
            dicts.add_hop(*row)

        assert table.routes == dicts.routes
        assert table.interfaces() == dicts.interfaces()
        assert table.route_holes() == dicts.route_holes()
        prefixes = {prefix for prefix, _, _ in rows} | set(distances) | {7}
        assert table.route_lengths() == {
            prefix: dicts.route_length(prefix) for prefix in prefixes
            if dicts.route_length(prefix) is not None}
        for prefix in prefixes:
            assert table.route(prefix) == dicts.route(prefix)
            assert table.route_length(prefix) == dicts.route_length(prefix)
            assert _outcome(format_route, table, prefix) \
                == _outcome(per_hop.format_route, dicts, prefix)

        document = _outcome(result_to_dict, table)
        assert document == _outcome(per_hop.result_to_dict, dicts)
        for write in (write_json, write_hops_csv):
            assert _text(write, table) \
                == _text(getattr(per_hop, write.__name__), dicts)
        if document is not AddressError:
            rebuilt = result_from_dict(document)
            assert rebuilt == table
            assert rebuilt.routes == dicts.routes

        copy = pickle.loads(pickle.dumps(table))
        assert copy == table and copy.routes == dicts.routes

        # Slices own disjoint prefixes; the merge concatenates them.
        slices = [_result([row for row in rows if row[0] % 3 == part],
                          {}, {}) for part in range(3)]
        merged = merge_results(slices)
        assert merged.routes == dicts.routes
        assert merged.interfaces() == dicts.interfaces()

    def test_later_rows_win_and_order_does_not_count(self):
        first = _result([(5, 3, 10), (6, 3, 11), (5, 3, 12), (5, 4, 10)],
                        {}, {})
        second = _result([(5, 4, 10), (6, 3, 11), (5, 3, 12)], {}, {})
        assert first == second
        assert first.routes == {5: {3: 12, 4: 10}, 6: {3: 11}}
        assert first.interfaces() == {10, 11, 12}
        second.add_hop(5, 4, 13)
        assert first != second
        assert second.interfaces() == {11, 12, 13}

    def test_empty(self):
        result = ScanResult(tool="empty")
        assert result.routes == {} and result.interfaces() == set()
        assert result.route_holes() == 0 and result.route_lengths() == {}
        assert result_from_dict(result_to_dict(result)) == result


def _yarrp_1024():
    """A finished yarrp-32 scan of 1,024 prefixes and its engine (which
    holds the responder ints every table row shares)."""
    engine = Engine(TopologyConfig(num_prefixes=1024, seed=3))
    session = engine.open_session(
        ScanRequest(tool="yarrp-32", prefixes=1024, seed=3))
    gc.collect()
    tracemalloc.start()
    return engine, session.run()


class TestMemory:
    def test_hop_store_bytes_per_hop(self):
        """What the result's hop store frees once the scan is done: 17.5 B
        per hop here, where the per-prefix dicts it replaced freed 47.4 B."""
        engine, result = _yarrp_1024()
        try:
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            hops = len(result.hops)
            result.hops = HopTable()
            gc.collect()
            store = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert hops > 10_000
        assert store <= 20 * hops, (store / hops, hops)
        assert engine is not None

    def test_interfaces_allocates_per_interface_not_per_hop(self):
        """``interfaces()`` holds one TTL bit set per prefix beside the set
        it returns: 138 B per interface at its peak here (the dicts' own
        pass: 87 B).  Resolving rows through a tuple, an int or a dict slot
        per hop peaked at 445 to 1,036 B per interface."""
        engine, result = _yarrp_1024()
        try:
            gc.collect()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            found = result.interfaces()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(result.hops) > 3 * len(found)
        assert peak <= 200 * len(found), (peak / len(found), len(found))
        assert engine is not None
