"""The repro.api facade: requests, engine/sessions, CLI equivalence.

The headline pin: the one-shot ``scan`` CLI rewired through
``Engine.open_session()`` must produce output **byte-identical** to the
pre-facade CLI for the same seed.  The golden sha256 fingerprints below
were captured from the direct-construction CLI immediately before the
refactor; these tests re-run the same invocations through the facade
and compare.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import io
import json
import typing

import pytest
from hypothesis import example, given, strategies as st

from repro import api
from repro.cli import _build_parser, main
from repro.core.config import FlashRouteConfig, PreprobeMode
from repro.core.scanner import create_scanner, scanner_names
from repro.core.sharding import ShardPlan
from repro.net.packets import IPv4Header, ProbeHeader
from repro.net.pcap import read_pcap
from repro.simnet import Topology, TopologyConfig
from repro.simnet.capture import CapturingNetwork

# Captured from the pre-refactor CLI (direct Topology/SimulatedNetwork/
# FlashRoute construction), not regenerated since.
GOLDEN_A_JSON = \
    "4b558c41438fe1df0fc1de893a80de4644aa0b657cf0bedd246d1e9f61707188"
GOLDEN_A_EVENTS = \
    "437ee2cbf6dbe2e4b5d5e91b147115750e05aedd28ee06ce72289af8c256d781"
GOLDEN_A_METRICS = \
    "144a4146e92cbdee2716854f146845eb4d67716d3d92e7941d6cd9fe380128af"
GOLDEN_A_SUMMARY = "FlashRoute-16: interfaces=269 probes=1,004 time=16:47.00"
GOLDEN_B_JSON = \
    "e0f35117d39528a7ea1162784e69ed91c373dc98c1393bef1e63743b53813bb5"
GOLDEN_B_STDOUT = \
    "2a931c7e7c8e94e69a8ac265f474d02d5efa6a70fef9cdaa5f6af4d123950ba9"


#: (tool, faulted) -> (--output, --events, deterministic --metrics-out)
#: digests at ``--prefixes 96 --seed 20201027``; the faulted column adds
#: ``--loss 0.05 --fault-seed 7 --retries 1``.  Captured at the commit
#: before the engines moved onto ``core.runtime.ScanRuntime``.  The
#: traceroute rows digest the output JSON minus ``response_kinds`` and
#: the snapshot minus ``scan.responses.kind.*``: that engine never
#: filled the field before the runtime's shared accounting.
GOLDEN_BASELINES = {
    ("yarrp-32", False): (
        "50d845f2c65bb0f9fbbe8ec7a5b44914e854f27f6c3e623e72d03f359596200b",
        "20f4f8324ee0de19177f471ee220e15c87ab51b6e5784d0a4db412b951268f5b",
        "254500420f749f39464feebf417342eb5e483adbbce5593a10c25b27e5225aba"),
    ("yarrp-32", True): (
        "b1123569d9c9ee7d1b11e204ef50954dc8666975abd788d428e22b54093433b1",
        "77b8ffaa528bd6dffd85c53bacd1303467312510d8453a61b3817bb0f2079098",
        "6cc5e60be0996bc76b1b0b518e910e722face43db931ffd9b1dab54c224f0ded"),
    ("yarrp-16", False): (
        "7d8607e34cfbb75f993bc257aed983730ac489b4e7a0ce023fc49338ae544819",
        "3f8e3838c8f5d5ee4018ee490485ae45101d50ea2ae5f39bdd73c5750a61b4d5",
        "28cafcb763b5ef3b4006fb2b2fd448f6713114947c65113da34e470880fb89d7"),
    ("yarrp-16", True): (
        "d8d55c2555afaac4f03bc408756217f35ac1149b1c0700bc0e2ee45dbcd9f68a",
        "12ed6d6c4d33a4605397a2d27271d42b25a43a50213dbe17ded20d8ff40d2f64",
        "a5a7437c2c6202590a6c4f700e2e5746eeec85f05779cbba6510fdb4683dbe5a"),
    ("scamper-16", False): (
        "4439cb242a92273c0383f37b79904599b0eaa64bf163f0e516f3d6910a092be8",
        "5e8abb776081328ff1ed89303ad16800a04860920443b73b5d8052fd0b95ba5a",
        "a6dd3dfdd9b8425f0620bf0920c5add5402f89ffaaf6c020388c978bb594feac"),
    ("scamper-16", True): (
        "29466d7f0789af813c398422cc7aeebadc16cf27d822c133def9f09f509baf58",
        "155ef76f8361189b49ddd9a9383fa127c1f6b53aa5a94095d0c140810b3abee3",
        "022bb3c09729a50975720518920c77afcf71bc492b616752c8ce74b27a3bca6e"),
    ("traceroute", False): (
        "a6cb9136335fff720999beaa3e50db0177683d8562e038569b330dcc04e92af2",
        "41e626b3f02c4e86d97d0142b574e22e4b792195c7311b26f298596ef08af2a8",
        "ce3c80c4ad2abb11c53835aa7007da47fdc08762516fc1747ce7cc5c87c2ba62"),
    ("traceroute", True): (
        "ffbaf8e116e899da9ef6607e52fdbfdc0f660d764782e204e092bd4c131a64b3",
        "bb699cfcaf44f28546f3533ff32622dd979c7430120c02c81803b7e1dcb09f2f",
        "5a4fb5d55b1f6f0c8b051072b01fdcbebb5367915c1b6409f50524587f916747"),
}

#: case -> (--output, --events, deterministic --metrics-out) digests of
#: ``scan --shards 2 --prefixes 1024 --seed 3`` plus the case's flags:
#: hitlist preprobe, folded (random) preprobe, and a faulted scan with a
#: retry budget.  Captured before slice set-up was made O(slice targets).
#: Re-pinned once since: the events and metrics digests moved when slices
#: stopped predicting distances for blocks outside their ring (fewer
#: ``preprobe_predict`` lines, ``scan.preprobe.predicted``/``unresolved``
#: now summing to the targets); the result digests never moved.
SHARDED_CASES = {
    "hitlist": ["--tool", "flashroute-16"],
    "folded": ["--tool", "flashroute-32", "--preprobe", "random"],
    "faulted": ["--tool", "flashroute-16", "--loss", "0.02",
                "--fault-seed", "7", "--retries", "1"],
}
GOLDEN_SHARDED = {
    "hitlist": (
        "148d6d0fde97968d32f72faf03c0283f484c10b3853f7df8e6f5de076c7e9e09",
        "5c07b2e89aaab9c92b2f637c642331d273f6263e3d1bd27d79422cb5ff4a3178",
        "30d441ec67b339816ab963d732c5dfb91236093394ed38e6b9be3675a44cf83b"),
    "folded": (
        "34d057430b6c03596cdc03455f0f298d12fc7c46dc115814adad6c52abd8dcc1",
        "bb2e1eb595354e682e82506cf9470c0d21f891bc441af4a18167428262def509",
        "04d07bfe343b3993da4f01a08de01efc324ebb3c4a3c0883fb37d00ca4392db6"),
    "faulted": (
        "4ded6b669caa880e6f8726e39b517d8da26a1546db3bea0da5910cd8dc745cb6",
        "8630728b65cd79e949732d0c3b9f76da0e46e6366bc76c74338e1ce4d41c51ed",
        "fb2a6cf8fa2715203c6249d3267aaa4fb394fcae237fb61cd80499b189899502"),
}


#: (tool, faulted) -> sha256 of ``scan --output x.csv`` at ``--prefixes
#: 96 --seed 20201027``; the faulted column adds ``--loss 0.05
#: --fault-seed 7``.  Captured while ``write_hops_csv`` still formatted
#: every hop's address anew.
GOLDEN_CSV = {
    ("flashroute-16", False):
        "80338f73420097445f43be8c3b0570c9525e002dd85e00ad48b3171bf34b8278",
    ("flashroute-16", True):
        "3f990de175a99a1b7591edd5a29adda39408182f5c5f6e1611e0a361f5736629",
    ("yarrp-32", False):
        "5cba7c93b4bfaf71e10469c88343f0797356823f836b662b110e89679db8c044",
    ("yarrp-32", True):
        "f41c687ec4cf91a0e5a6c9326e5d49a5f35933074e5befd6eacbd34028360998",
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _canonical_sha(document) -> str:
    return hashlib.sha256(json.dumps(
        document, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class TestGoldenEquivalence:
    """Post-refactor CLI output is byte-identical to the pre-facade CLI."""

    def test_scan_outputs_match_pre_refactor_cli(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        events = tmp_path / "a_events.jsonl"
        metrics = tmp_path / "a_metrics.json"
        assert main(["scan", "--tool", "flashroute-16", "--prefixes", "96",
                     "--seed", "20201027", "--output", str(out),
                     "--events", str(events),
                     "--metrics-out", str(metrics)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == GOLDEN_A_SUMMARY
        assert _sha(out) == GOLDEN_A_JSON
        assert _sha(events) == GOLDEN_A_EVENTS
        from repro.obs.metrics import deterministic_snapshot, load_snapshot

        snap = deterministic_snapshot(load_snapshot(str(metrics)))
        assert _canonical_sha(snap) == GOLDEN_A_METRICS

    def test_faulted_json_scan_matches_pre_refactor_cli(self, tmp_path,
                                                        capsys):
        out = tmp_path / "b.json"
        assert main(["scan", "--tool", "yarrp-32-udp-sim", "--prefixes",
                     "64", "--seed", "11", "--loss", "0.05", "--fault-seed",
                     "7", "--retries", "1", "--json",
                     "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert _sha(out) == GOLDEN_B_JSON
        assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_B_STDOUT

    @pytest.mark.parametrize("tool,faulted", sorted(GOLDEN_BASELINES))
    def test_baseline_engines_match_pre_runtime_cli(self, tmp_path, capsys,
                                                    tool, faulted):
        from repro.obs.metrics import deterministic_snapshot, load_snapshot

        out = tmp_path / "out.json"
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.json"
        argv = ["scan", "--tool", tool, "--prefixes", "96", "--seed",
                "20201027", "--output", str(out), "--events", str(events),
                "--metrics-out", str(metrics)]
        if faulted:
            argv += ["--loss", "0.05", "--fault-seed", "7", "--retries", "1"]
        assert main(argv) == 0
        snapshot = load_snapshot(str(metrics))
        if tool == "traceroute":
            document = json.loads(out.read_text())
            del document["response_kinds"]
            output_sha = _canonical_sha(document)
            snapshot = deterministic_snapshot(
                snapshot, exclude_prefixes=("scan.responses.kind.",))
        else:
            output_sha = _sha(out)
            snapshot = deterministic_snapshot(snapshot)
        assert (output_sha, _sha(events), _canonical_sha(snapshot)) \
            == GOLDEN_BASELINES[tool, faulted]

    @pytest.mark.parametrize("tool,faulted", sorted(GOLDEN_CSV))
    def test_csv_output_is_pinned(self, tmp_path, capsys, tool, faulted):
        out = tmp_path / "out.csv"
        argv = ["scan", "--tool", tool, "--prefixes", "96", "--seed",
                "20201027", "--output", str(out)]
        if faulted:
            argv += ["--loss", "0.05", "--fault-seed", "7"]
        assert main(argv) == 0
        assert _sha(out) == GOLDEN_CSV[tool, faulted]

    @pytest.mark.parametrize("case", sorted(SHARDED_CASES))
    def test_sharded_scan_outputs_are_pinned(self, tmp_path, capsys, case):
        from repro.obs.metrics import deterministic_snapshot, load_snapshot

        out = tmp_path / "out.json"
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(["scan", "--shards", "2", "--prefixes", "1024",
                     "--seed", "3", "--output", str(out),
                     "--events", str(events), "--metrics-out", str(metrics)]
                    + SHARDED_CASES[case]) == 0
        snapshot = deterministic_snapshot(load_snapshot(str(metrics)))
        assert (_sha(out), _sha(events), _canonical_sha(snapshot)) \
            == GOLDEN_SHARDED[case]

    def test_yarrp_interrupt_resume_matches_uninterrupted(self, tmp_path,
                                                          capsys):
        scan = ["scan", "--tool", "yarrp-32", "--prefixes", "96", "--seed",
                "20201027"]
        reference = tmp_path / "ref.json"
        resumed = tmp_path / "resumed.json"
        checkpoint = tmp_path / "scan.ckpt"
        assert main(scan + ["--output", str(reference)]) == 0
        assert main(scan + ["--checkpoint", str(checkpoint),
                            "--interrupt-after-round", "3"]) == 130
        assert main(["scan", "--resume", str(checkpoint),
                     "--output", str(resumed)]) == 0
        assert resumed.read_bytes() == reference.read_bytes()


class TestScanRequest:
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"),
                                      float("-inf"), 0.0])
    def test_rejects_a_rate_that_is_not_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="rate must be a positive "
                                             "finite number"):
            api.ScanRequest(rate=rate)
        with pytest.raises(ValueError, match="probing_rate must be a "
                                             "positive finite number"):
            FlashRouteConfig(probing_rate=rate)

    def test_round_trips_through_dict(self):
        request = api.ScanRequest(tool="yarrp-16", prefixes=128, seed=7,
                                  split_ttl=12, gap_limit=3,
                                  preprobe="none", rate=250.0, loss=0.1,
                                  blackout=0.05, fault_seed=3, retries=2,
                                  adaptive_rate=True, shards=4,
                                  shard_index=1, shard_slices=32)
        payload = request.to_dict()
        assert json.loads(json.dumps(payload)) == payload  # JSON-able
        assert api.ScanRequest.from_dict(payload) == request
        assert api.ScanRequest.from_dict(payload, complete=True) == request

    def test_defaults_round_trip(self):
        request = api.ScanRequest()
        assert api.ScanRequest.from_dict(request.to_dict(),
                                         complete=True) == request

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scan request field"):
            api.ScanRequest.from_dict({"tool": "flashroute-16",
                                       "granularity": 24})

    def test_complete_rejects_missing_fields(self):
        payload = api.ScanRequest().to_dict()
        del payload["fault_seed"]
        api.ScanRequest.from_dict(payload)  # partial is fine by default
        with pytest.raises(ValueError, match="missing field"):
            api.ScanRequest.from_dict(payload, complete=True)

    def test_int_is_a_valid_float_but_bool_is_not_an_int(self):
        payload = dict(api.ScanRequest().to_dict(), loss=0, rate=500)
        request = api.ScanRequest.from_dict(payload, complete=True)
        assert (request.loss, request.rate) == (0, 500)
        for field, value in (("prefixes", True), ("loss", False),
                             ("adaptive_rate", 1)):
            with pytest.raises(ValueError, match=repr(field)):
                api.ScanRequest.from_dict({field: value})

    @given(data=st.data())
    def test_wrong_typed_value_names_its_field(self, data):
        """One field, one value of a type its declaration does not
        admit: always a ValueError naming the field, never the
        TypeError ``__post_init__`` would die with."""
        hints = typing.get_type_hints(api.ScanRequest)
        spec = data.draw(st.sampled_from(
            dataclasses.fields(api.ScanRequest)))
        kinds = typing.get_args(hints[spec.name]) or (hints[spec.name],)
        wrong = {
            str: st.text(),
            bool: st.booleans(),
            int: st.integers(),
            float: st.floats(),
            type(None): st.none(),
            list: st.lists(st.integers(), max_size=2),
            dict: st.dictionaries(st.text(max_size=2), st.none(),
                                  max_size=1),
        }
        for kind in kinds:
            del wrong[kind]
        if float in kinds:
            del wrong[int]  # JSON's one number type
        value = data.draw(st.one_of(*wrong.values()))
        payload = dict(api.ScanRequest().to_dict(), **{spec.name: value})
        with pytest.raises(ValueError, match=repr(spec.name)):
            api.ScanRequest.from_dict(payload, complete=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            api.ScanRequest(prefixes=0)
        with pytest.raises(ValueError):
            api.ScanRequest(loss=1.0)
        with pytest.raises(ValueError):
            api.ScanRequest(rate=-1.0)
        with pytest.raises(ValueError):
            api.ScanRequest(retries=-1)

    @pytest.mark.parametrize("fields", [
        dict(shard_index=3),                 # no shards to index into
        dict(shards=4, shard_index=9),
        dict(shards=0),
        dict(shards=17),                     # > the 16 default slices
        dict(shard_slices=0),
        dict(tool="no-such-tool"),
    ])
    def test_shard_shape_and_tool_validation(self, fields):
        """The cross-field checks hold for every caller, not just the
        CLI: a malformed shard shape used to run a full unsharded scan
        (or fail deep in the pool) when it came through the API."""
        with pytest.raises(ValueError):
            api.ScanRequest(prefixes=64, **fields)

    def test_sharded_scan_refuses_caller_telemetry(self):
        from repro.obs import Telemetry

        with pytest.raises(ValueError, match="collect_"):
            api.scan(api.ScanRequest(prefixes=64, shards=2),
                     telemetry=Telemetry())

    def test_shard_plan_from_request_matches_hand_built(self):
        request = api.ScanRequest(tool="yarrp-32", prefixes=64, seed=5,
                                  loss=0.02, fault_seed=9, shards=2,
                                  shard_slices=8, retries=1)
        plan = ShardPlan.from_request(request, collect_metrics=True,
                                      events_format="jsonl")
        assert plan == ShardPlan(request, collect_metrics=True,
                                 events_format="jsonl")
        assert plan.request is request


#: Above every drawn int: no drawn shard count or index trips a
#: cross-field rule.
_ROOMY = 2 ** 42


@st.composite
def _field_values(draw):
    """One ``ScanRequest`` field and a value of its type, in or out of
    the field's domain."""
    name = draw(st.sampled_from(
        [spec.name for spec in dataclasses.fields(api.ScanRequest)]))
    hint = typing.get_type_hints(api.ScanRequest)[name]
    kind = (typing.get_args(hint) or (hint,))[0]
    if kind is bool:
        return name, draw(st.booleans())
    if kind is int:
        return name, draw(st.integers(-3, 40) | st.integers(-2**41, 2**41))
    if kind is float:
        return name, draw(st.floats(-0.5, 1.5) | st.floats())
    return name, draw(st.sampled_from(
        sorted(set(scanner_names()) | {mode.value for mode in PreprobeMode}
               | {"bogus", ""})))


@functools.cache
def _small_engine():
    return api.Engine(topology=Topology(TopologyConfig(num_prefixes=16)))


def _accepts(build) -> bool:
    try:
        build()
    except (ValueError, SystemExit):
        return False
    return True


class TestOneDeclarationPerField:
    """The ``scan`` flags, the checkpoint reader and the API constructor
    are three front doors to one declaration: none admits a value
    another refuses, and whatever they admit every tool can run."""

    @given(pair=_field_values())
    @example(pair=("gap_limit", 0))
    @example(pair=("preprobe", "bogus"))
    @example(pair=("split_ttl", 0))
    def test_front_doors_agree_and_every_tool_opens(self, pair):
        name, value = pair
        flag = "--" + name.replace("_", "-")
        if isinstance(value, bool):
            argv = [flag if value else f"--no-{flag[2:]}"]
        else:
            argv = [f"{flag}={value}"]
        context = {"shard_index": {"shards": _ROOMY, "shard_slices": _ROOMY},
                   "shards": {"shard_slices": _ROOMY}}.get(name, {})
        fields = dict(context, **{name: value})

        parsed = _accepts(lambda: _build_parser().parse_args(["scan"] + argv))
        built = _accepts(lambda: api.ScanRequest(**fields))
        read = _accepts(lambda: api.ScanRequest.from_dict(fields))
        assert parsed == built == read, (name, value, parsed, built, read)
        if built:
            request = api.ScanRequest(**fields)
            assert api.ScanRequest.from_dict(fields) == request
            for tool in scanner_names():
                _small_engine().open_session(
                    dataclasses.replace(request, tool=tool))

    def test_every_field_has_exactly_one_scan_flag(self):
        subparsers = next(action for action in _build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        actions = subparsers.choices["scan"]._actions
        for spec in dataclasses.fields(api.ScanRequest):
            flags = [action for action in actions if action.dest == spec.name]
            assert len(flags) == 1, spec.name
            assert "--" + spec.name.replace("_", "-") \
                in flags[0].option_strings


class TestTraceRequest:
    def test_parse_dotted_and_int(self):
        a = api.TraceRequest.parse({"destination": "20.0.0.7", "flow": 3})
        b = api.TraceRequest.parse({"destination": (20 << 24) + 7,
                                    "flow": 3})
        assert a == b
        assert a.key == ((20 << 24) + 7, 3)
        built = api.TraceRequest((20 << 24) + 7, flow=3)
        assert (a, hash(a)) == (built, hash(built))

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="needs a 'destination'"):
            api.TraceRequest.parse({"flow": 1})
        with pytest.raises(ValueError, match="not an IPv4 address"):
            api.TraceRequest.parse({"destination": "999.1.2.3"})
        with pytest.raises(ValueError, match="unknown trace request"):
            api.TraceRequest.parse({"destination": "20.0.0.7", "ttl": 4})
        with pytest.raises(ValueError, match="must be an integer"):
            api.TraceRequest.parse({"destination": "20.0.0.7",
                                    "flow": "three"})
        with pytest.raises(ValueError, match="JSON object"):
            api.TraceRequest.parse(["20.0.0.7"])

    def test_field_validation(self):
        with pytest.raises(ValueError):
            api.TraceRequest(destination=-1)
        with pytest.raises(ValueError):
            api.TraceRequest(destination=1, flow=70000)
        with pytest.raises(ValueError):
            api.TraceRequest(destination=1, max_ttl=0)


def _engine(prefixes=64, seed=20201027):
    return api.Engine.from_request(api.ScanRequest(prefixes=prefixes,
                                                   seed=seed))


class TestEngineSessions:
    def test_scan_session_matches_registry_path(self):
        request = api.ScanRequest(tool="flashroute-16", prefixes=64)
        via_api = api.scan(request)
        from repro.simnet import SimulatedNetwork, Topology

        network = SimulatedNetwork(Topology(request.topology_config()),
                                   faults=request.fault_model())
        via_registry = create_scanner(request).scan(network)
        assert via_api.fingerprint() == via_registry.fingerprint()
        assert via_api.probes_sent == via_registry.probes_sent

    def test_scan_overrides_build_request(self):
        result = api.scan(tool="yarrp-16", prefixes=64, seed=3)
        again = api.scan(api.ScanRequest(tool="yarrp-16", prefixes=64,
                                         seed=3))
        assert result.fingerprint() == again.fingerprint()

    def test_sharded_scan_dispatch_invariant_in_worker_count(self):
        # A request with shards set routes through the sharded executor;
        # the merged result must not depend on the worker count (PR 6's
        # contract — the slice decomposition, not the shard count, is
        # what defines the output).
        request = api.ScanRequest(tool="flashroute-16", prefixes=64,
                                  shard_slices=4)
        one = api.scan(dataclasses.replace(request, shards=1))
        two = api.scan(dataclasses.replace(request, shards=2))
        assert two.fingerprint() == one.fingerprint()

    def test_trace_session_streams_manifold_hops(self):
        engine = _engine()
        request = api.TraceRequest.parse({"destination": "20.0.0.7",
                                          "flow": 2})
        session = engine.open_session(request)
        hops = list(session.stream())
        assert hops, "expected at least one hop"
        for hop in hops:
            assert set(hop) == {"ip", "ttl", "hop_probecount", "path",
                                "source", "destination", "rtt_ms"}
            assert hop["destination"] == "20.0.0.7"
            assert hop["path"] == 2
        ttls = [hop["ttl"] for hop in hops]
        assert ttls == sorted(ttls)
        result = session.result()
        assert result["hop_count"] == len(hops)
        assert result["hops"] == hops
        assert result["probes"] >= len(hops)

    @pytest.mark.parametrize("flow", [0, 32101, 32102, 65535])
    def test_every_probe_of_a_trace_packs(self, flow):
        """``flow`` ranges over 16 bits and offsets the source port from
        33434: past 32,101 the sum left the port space and the probe had
        no wire form (``PacketError: UDP src_port out of range``)."""
        engine = _engine()
        request = api.TraceRequest(destination=(20 << 24) + 7, flow=flow)
        session = engine.open_session(request)
        capture = io.BytesIO()
        session.network = CapturingNetwork(session.network, capture)
        result = session.run()
        assert result == engine.open_session(request).run()
        capture.seek(0)
        probes = [ProbeHeader.unpack(record.data)
                  for record in read_pcap(capture)
                  if IPv4Header.unpack(record.data).dst
                  == request.destination]
        assert len(probes) == result["probes"] > 0
        # Below the wrap the port is what it always was.
        expected = 33434 + flow if flow <= 32101 else probes[0].src_port
        assert {probe.src_port for probe in probes} == {expected}

    def test_trace_is_deterministic_per_engine(self):
        request = api.TraceRequest.parse({"destination": "20.0.0.9"})
        first = _engine().open_session(request).run()
        second = _engine().open_session(request).run()
        assert first == second

    def test_trace_outside_space_rejected(self):
        engine = _engine(prefixes=64)
        with pytest.raises(ValueError, match="outside the simulated"):
            engine.open_session(api.TraceRequest.parse(
                {"destination": "99.0.0.1"}))

    def test_open_session_type_checked(self):
        with pytest.raises(TypeError):
            _engine().open_session({"destination": "20.0.0.1"})

    def test_sessions_share_warm_route_cache(self):
        engine = _engine()
        request = api.ScanRequest(tool="flashroute-16", prefixes=64)
        first = engine.open_session(request)
        assert first.network.route_cache is engine.network.route_cache
        second = engine.open_session(request)
        assert second.network.route_cache is first.network.route_cache


@pytest.mark.filterwarnings("error::DeprecationWarning")
class TestDeprecation:
    """The PR 7 direct-construction ``DeprecationWarning`` is gone: with
    deprecations escalated to errors, every construction path builds
    and scans."""

    def test_sanctioned_paths_do_not_warn(self):
        from repro.baselines.scamper import Scamper
        from repro.baselines.traceroute import TracerouteScanner
        from repro.baselines.yarrp import Yarrp
        from repro.core.prober import FlashRoute

        for build in (FlashRoute, Yarrp, Scamper, TracerouteScanner):
            build()
        create_scanner(api.ScanRequest())
        api.scan(tool="traceroute", prefixes=4)

    def test_discovery_mode_is_sanctioned(self):
        from repro.core.discovery import run_discovery_optimized
        from repro.simnet import SimulatedNetwork, Topology, TopologyConfig

        network = SimulatedNetwork(Topology(TopologyConfig(num_prefixes=8)))
        run_discovery_optimized(network, extra_scans=1)
