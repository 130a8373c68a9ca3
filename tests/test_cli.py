"""Command-line interface."""

import json

import pytest

from repro.cli import _build_parser, main


class TestScanCommand:
    def test_default_scan(self, capsys):
        assert main(["scan", "--prefixes", "128", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "FlashRoute-16" in out
        assert "interfaces=" in out

    def test_json_output(self, capsys):
        assert main(["scan", "--prefixes", "128", "--seed", "3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "FlashRoute-16"
        assert payload["probes"] > 0
        assert "scan_time_text" in payload

    @pytest.mark.parametrize("tool", ["flashroute-32", "yarrp-32",
                                      "scamper-16", "yarrp-32-udp-sim"])
    def test_other_tools(self, capsys, tool):
        assert main(["scan", "--tool", tool, "--prefixes", "128",
                     "--seed", "3"]) == 0
        assert "interfaces=" in capsys.readouterr().out

    def test_every_registered_tool_scans(self, capsys):
        """The --tool choices come from the registry; each one must run."""
        from repro.core.scanner import scanner_names
        for tool in scanner_names():
            assert main(["scan", "--tool", tool, "--prefixes", "64",
                         "--seed", "3"]) == 0
            assert "interfaces=" in capsys.readouterr().out

    def test_overrides(self, capsys):
        assert main(["scan", "--prefixes", "128", "--seed", "3",
                     "--split-ttl", "8", "--gap-limit", "2",
                     "--preprobe", "none", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["probes"] > 0

    def test_rejects_unknown_tool(self):
        with pytest.raises(SystemExit):
            main(["scan", "--tool", "nmap"])

    def test_loss_scan(self, capsys):
        assert main(["scan", "--prefixes", "128", "--seed", "3",
                     "--loss", "0.05", "--fault-seed", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["probes"] > 0
        assert "holes" in payload
        assert "duplicate_responses" in payload


class TestScanValidation:
    @pytest.mark.parametrize("argv", [
        ["scan", "--prefixes", "0"],
        ["scan", "--prefixes", "-5"],
        ["scan", "--rate", "-100"],
        ["scan", "--rate", "0"],
        ["scan", "--gap-limit", "0"],
        ["scan", "--gap-limit", "-1"],
        ["scan", "--loss", "1.5"],
        ["scan", "--loss", "-0.1"],
        ["scan", "--blackout", "2"],
    ])
    def test_rejects_invalid_numbers(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2  # argparse usage error
        assert "error" in capsys.readouterr().err


    @pytest.mark.parametrize("argv", [
        ["--split-ttl", "0"],
        ["--split-ttl", "40"],
        ["--tool", "scamper-16", "--split-ttl", "40"],
    ])
    def test_rejects_a_split_ttl_outside_1_to_32(self, capsys, argv):
        """Refused by the parser, naming the flag: it used to pass the
        parser and die in the engine config with a traceback, exit 1."""
        with pytest.raises(SystemExit) as exc_info:
            main(["scan", "--prefixes", "64"] + argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "--split-ttl" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_scan_rejects_a_non_finite_rate(self, capsys, value):
        """``--rate nan`` used to die inside ``encode_probe`` and
        ``--rate inf`` to run a scan with a zero send gap: NaN and +inf
        pass a bare ``value <= 0`` test."""
        with pytest.raises(SystemExit) as exc_info:
            main(["scan", "--prefixes", "32", f"--rate={value}"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "finite number" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [
        ("scan", "--progress"), ("serve", "--slow-ms"),
        ("serve", "--default-deadline-ms"), ("serve", "--drain-seconds"),
        ("top", "--interval"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_every_float_flag_rejects_non_finite_values(self, capsys,
                                                        command, flag, value):
        # Parsed only: an accepted value would start the daemon.
        with pytest.raises(SystemExit) as exc_info:
            _build_parser().parse_args([command, f"{flag}={value}"])
        assert exc_info.value.code == 2
        assert "finite number" in capsys.readouterr().err


class TestExperimentCommand:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "fig8" in out

    def test_run_table1(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PREFIXES", "128")
        monkeypatch.setenv("REPRO_BENCH_SEED", "3")
        assert main(["experiment", "table1"]) == 0
        assert "Redundancy" in capsys.readouterr().out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestScanOutputs:
    def test_output_json(self, tmp_path, capsys):
        path = tmp_path / "scan.json"
        assert main(["scan", "--prefixes", "128", "--seed", "3",
                     "--output", str(path)]) == 0
        from repro.core.output import load_json
        result = load_json(str(path))
        assert result.probes_sent > 0

    def test_output_csv(self, tmp_path, capsys):
        path = tmp_path / "scan.csv"
        assert main(["scan", "--prefixes", "128", "--seed", "3",
                     "--output", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("prefix,target,ttl,interface,is_destination")
        assert text.count("\n") > 10

    def test_output_rejects_unknown_extension(self, tmp_path, capsys):
        """Refused by the parser, on the unsharded and the sharded path,
        before the scan runs and before any telemetry file is written
        (it used to die with exit 1 after both)."""
        metrics = tmp_path / "metrics.json"
        for extra in ([], ["--shards", "2"]):
            with pytest.raises(SystemExit) as exc_info:
                main(["scan", "--prefixes", "128", "--seed", "3",
                      "--output", str(tmp_path / "scan.xml"),
                      "--metrics-out", str(metrics)] + extra)
            assert exc_info.value.code == 2
            assert "must end in .json or .csv" in capsys.readouterr().err
            assert not metrics.exists()

    def test_pcap_capture(self, tmp_path, capsys):
        path = tmp_path / "scan.pcap"
        assert main(["scan", "--prefixes", "128", "--seed", "3",
                     "--pcap", str(path)]) == 0
        from repro.net.pcap import load_pcap
        records = load_pcap(str(path))
        assert len(records) > 100

    def test_holes_experiment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PREFIXES", "128")
        monkeypatch.setenv("REPRO_BENCH_SEED", "3")
        assert main(["experiment", "holes"]) == 0
        assert "route completeness" in capsys.readouterr().out

    def test_loss_sweep_experiment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PREFIXES", "64")
        monkeypatch.setenv("REPRO_BENCH_SEED", "3")
        assert main(["experiment", "loss-sweep"]) == 0
        out = capsys.readouterr().out
        assert "Loss sweep" in out
        assert "Gap limit" in out


class TestTelemetryFlags:
    def test_metrics_out_and_trace(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        assert main(["scan", "--prefixes", "128", "--seed", "3",
                     "--metrics-out", str(metrics),
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"metrics: {metrics}" in out
        assert f"trace: {trace}" in out
        from repro.obs import load_snapshot, read_trace, validate_trace
        snapshot = load_snapshot(str(metrics))
        assert snapshot["counters"]["scan.probes.total"] > 0
        assert snapshot["counters"]["simnet.probes_sent"] > 0
        assert "written_unix" in snapshot["wall"]
        events = read_trace(str(trace))
        validate_trace(events)
        assert any(e.get("span") == "round" for e in events)

    def test_same_seed_metrics_byte_identical(self, tmp_path, capsys):
        import json as _json
        from repro.obs import deterministic_snapshot, load_snapshot

        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["scan", "--prefixes", "128", "--seed", "3",
                         "--metrics-out", str(path)]) == 0
            capsys.readouterr()
        views = [_json.dumps(deterministic_snapshot(load_snapshot(str(p))),
                             sort_keys=True)
                 for p in paths]
        assert views[0] == views[1]

    def test_progress_goes_to_stderr(self, capsys):
        assert main(["scan", "--prefixes", "128", "--seed", "3",
                     "--progress", "5"]) == 0
        captured = capsys.readouterr()
        assert "[progress] t=" in captured.err
        assert "[progress]" not in captured.out

    def test_progress_rejects_zero_interval(self, capsys):
        with pytest.raises(SystemExit):
            main(["scan", "--prefixes", "128", "--progress", "0"])

    def test_loss_run_prints_cache_and_fault_counters(self, capsys):
        assert main(["scan", "--prefixes", "128", "--seed", "3",
                     "--loss", "0.05", "--fault-seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "cache: hits=" in out
        assert "faults: probes_lost=" in out

    def test_loss_json_includes_simnet_columns(self, capsys):
        assert main(["scan", "--prefixes", "128", "--seed", "3",
                     "--loss", "0.05", "--fault-seed", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "cache_hits" in payload
        assert "probes_lost" in payload

    def test_plain_json_has_no_simnet_columns(self, capsys):
        """Without fault flags the JSON row keeps its pre-telemetry shape."""
        assert main(["scan", "--prefixes", "128", "--seed", "3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "cache_hits" not in payload
        assert "probes_lost" not in payload


class TestMetricsReportCommand:
    def _write(self, tmp_path, name, seed):
        path = tmp_path / name
        assert main(["scan", "--prefixes", "128", "--seed", str(seed),
                     "--metrics-out", str(path)]) == 0
        return str(path)

    def test_summary(self, tmp_path, capsys):
        path = self._write(tmp_path, "m.json", 3)
        capsys.readouterr()
        assert main(["metrics-report", path]) == 0
        out = capsys.readouterr().out
        assert "snapshot summary" in out
        assert "scan.probes.total" in out

    def test_diff(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", 3)
        b = self._write(tmp_path, "b.json", 4)
        capsys.readouterr()
        assert main(["metrics-report", a, b, "--changed-only"]) == 0
        out = capsys.readouterr().out
        assert "snapshot diff" in out
        assert "Delta" in out


class TestEventsFlags:
    def test_events_jsonl(self, tmp_path, capsys):
        log = tmp_path / "ev.jsonl"
        assert main(["scan", "--prefixes", "128", "--seed", "3",
                     "--events", str(log)]) == 0
        assert f"events: {log}" in capsys.readouterr().out
        from repro.obs import read_events, validate_events
        events = read_events(str(log))
        validate_events(events)
        assert any(e.get("ev") == "probe_sent" for e in events)

    def test_events_binary(self, tmp_path, capsys):
        log = tmp_path / "ev.bin"
        assert main(["scan", "--prefixes", "128", "--seed", "3",
                     "--events", str(log)]) == 0
        capsys.readouterr()
        from repro.obs.events import BINARY_MAGIC
        assert log.read_bytes().startswith(BINARY_MAGIC)

    @pytest.mark.parametrize("argv", [
        ["scan", "--prefixes", "128", "--events-sample", "1.5"],
        ["scan", "--prefixes", "128", "--events-sample", "-0.1"],
        ["scan", "--prefixes", "128", "--events-ring", "0"],
    ])
    def test_rejects_invalid_event_knobs(self, capsys, argv):
        with pytest.raises(SystemExit):
            main(argv)
        assert "error" in capsys.readouterr().err


class TestComposedOutputs:
    def test_pcap_trace_metrics_events_compose(self, tmp_path, capsys):
        """One scan may emit pcap+trace+metrics+events without changing
        the ScanResult — including simnet cache counters under --loss."""
        base = ["scan", "--prefixes", "128", "--seed", "3",
                "--loss", "0.05", "--fault-seed", "7", "--json"]
        assert main(base) == 0
        bare = json.loads(capsys.readouterr().out)

        pcap = tmp_path / "s.pcap"
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        events = tmp_path / "e.jsonl"
        assert main(base + ["--pcap", str(pcap), "--trace", str(trace),
                            "--metrics-out", str(metrics),
                            "--events", str(events)]) == 0
        full = json.loads(capsys.readouterr().out)

        assert full == bare
        for path in (pcap, trace, metrics, events):
            assert path.stat().st_size > 0


class TestScanDiffCommand:
    def _events(self, tmp_path, name, extra=()):
        path = tmp_path / name
        assert main(["scan", "--prefixes", "128", "--seed", "3",
                     "--events", str(path), *extra]) == 0
        return str(path)

    def test_clean_vs_clean(self, tmp_path, capsys):
        a = self._events(tmp_path, "a.jsonl")
        b = self._events(tmp_path, "b.jsonl")
        capsys.readouterr()
        assert main(["scan-diff", a, b]) == 0
        assert "no divergences" in capsys.readouterr().out

    def test_clean_vs_lossy_attributes_causes(self, tmp_path, capsys):
        a = self._events(tmp_path, "a.jsonl")
        b = self._events(tmp_path, "b.jsonl",
                         ["--loss", "0.02", "--fault-seed", "11"])
        capsys.readouterr()
        assert main(["scan-diff", a, b, "--loss", "0.02",
                     "--fault-seed", "11", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows
        assert all(r["cause"] != "unattributed" for r in rows)

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.jsonl"
        junk.write_text("not an event log\n")
        good = self._events(tmp_path, "a.jsonl")
        capsys.readouterr()
        assert main(["scan-diff", str(junk), good]) == 2
        assert "scan-diff:" in capsys.readouterr().err

    def test_metrics_report_malformed_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text("{\"not\": \"a snapshot\"}")
        assert main(["metrics-report", str(junk)]) == 2
        assert "metrics-report:" in capsys.readouterr().err


class TestShardFlagValidation:
    @pytest.mark.parametrize("argv", [
        ["scan", "--prefixes", "128", "--shards", "0"],
        ["scan", "--prefixes", "128", "--shards", "-2"],
        ["scan", "--prefixes", "128", "--shards", "two"],
        ["scan", "--prefixes", "128", "--shard-slices", "0"],
        ["scan", "--prefixes", "128", "--shards", "2",
         "--shard-index", "-1"],
    ])
    def test_rejects_invalid_numbers(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_shard_index_requires_shards(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["scan", "--prefixes", "128", "--shard-index", "0"])
        assert exc_info.value.code == 2
        assert "--shard-index requires --shards" in \
            capsys.readouterr().err

    def test_shard_index_must_be_below_shards(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["scan", "--prefixes", "128", "--shards", "2",
                  "--shard-index", "2"])
        assert exc_info.value.code == 2
        assert "--shard-index must be < --shards" in \
            capsys.readouterr().err

    def test_shards_capped_by_slices(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["scan", "--prefixes", "128", "--shards", "8",
                  "--shard-slices", "4"])
        assert exc_info.value.code == 2
        assert "--shard-slices" in capsys.readouterr().err

    def test_trace_composes_with_shards(self, tmp_path, capsys):
        """PR 9 lifted the old refusal: --trace under --shards writes a
        merged, validate_trace-clean multi-root forest."""
        from repro.obs.trace import read_trace, validate_trace
        trace = tmp_path / "trace.jsonl"
        assert main(["scan", "--prefixes", "96", "--seed", "3",
                     "--shards", "2", "--trace", str(trace)]) == 0
        assert "merged span forest" in capsys.readouterr().out
        validate_trace(read_trace(str(trace)))

    def test_pcap_composes_with_shards(self, tmp_path, capsys):
        """PR 9 lifted the old refusal: --pcap under --shards writes one
        suffixed capture per slice plus a merge note."""
        assert main(["scan", "--prefixes", "96", "--seed", "3",
                     "--shards", "2", "--pcap",
                     str(tmp_path / "out.pcap")]) == 0
        out = capsys.readouterr().out
        assert "16 per-slice captures" in out
        assert "merge externally" in out
        captures = sorted(tmp_path.glob("out.slice*.pcap"))
        assert len(captures) == 16
        assert all(path.stat().st_size > 0 for path in captures)


class TestShardedScanCLI:
    def _scan(self, tmp_path, tag, extra):
        out = tmp_path / f"{tag}.json"
        events = tmp_path / f"{tag}.jsonl"
        metrics = tmp_path / f"{tag}-metrics.json"
        assert main(["scan", "--prefixes", "96", "--seed", "3",
                     "--loss", "0.02", "--fault-seed", "7",
                     "--output", str(out), "--events", str(events),
                     "--metrics-out", str(metrics), *extra]) == 0
        return out, events, metrics

    def test_merged_files_match_single_worker_bytes(self, tmp_path,
                                                    capsys):
        from repro.obs.metrics import deterministic_snapshot, \
            load_snapshot
        single = self._scan(tmp_path, "single", ["--shards", "1"])
        capsys.readouterr()
        sharded = self._scan(tmp_path, "sharded", ["--shards", "4"])
        assert "shards: 4 workers, 16 slices" in capsys.readouterr().out
        assert sharded[0].read_bytes() == single[0].read_bytes()
        assert sharded[1].read_bytes() == single[1].read_bytes()
        assert deterministic_snapshot(load_snapshot(str(sharded[2]))) \
            == deterministic_snapshot(load_snapshot(str(single[2])))

    def test_interrupt_and_resume_finish_byte_identically(self, tmp_path,
                                                          capsys):
        full = self._scan(tmp_path, "full", ["--shards", "2"])
        capsys.readouterr()
        ckpt = tmp_path / "scan.ckpt"
        argv = ["scan", "--prefixes", "96", "--seed", "3",
                "--loss", "0.02", "--fault-seed", "7",
                "--output", str(tmp_path / "part.json"),
                "--events", str(tmp_path / "part.jsonl"),
                "--metrics-out", str(tmp_path / "part-metrics.json"),
                "--shards", "2", "--checkpoint", str(ckpt)]
        assert main(argv + ["--interrupt-after-round", "5"]) == 130
        assert "interrupted: checkpoint written" in \
            capsys.readouterr().err
        # Resume replays the scan-shaping flags (including --shards) from
        # the checkpoint; only the output destinations are re-specified.
        assert main(["scan", "--resume", str(ckpt),
                     "--output", str(tmp_path / "part.json"),
                     "--events", str(tmp_path / "part.jsonl"),
                     "--metrics-out",
                     str(tmp_path / "part-metrics.json")]) == 0
        out = capsys.readouterr().out
        assert "(5 resumed)" in out
        assert (tmp_path / "part.json").read_bytes() == \
            full[0].read_bytes()
        assert (tmp_path / "part.jsonl").read_bytes() == \
            full[1].read_bytes()

    def test_shard_index_runs_one_worker_standalone(self, capsys):
        assert main(["scan", "--prefixes", "96", "--seed", "3",
                     "--shards", "2", "--shard-index", "1"]) == 0
        assert "shards: worker 1 of 2, 16 slices" in \
            capsys.readouterr().out

    def test_sharded_progress_honors_interval(self, capsys):
        """--progress SECONDS throttles the sharded view (it used to
        print once per completed slice regardless of the interval)."""
        assert main(["scan", "--prefixes", "96", "--seed", "3",
                     "--shards", "1", "--progress", "10000"]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("[shard-progress]")]
        # First activity renders once, the huge interval suppresses the
        # rest, and finish() always emits the final done line.
        assert len(lines) == 2, lines
        assert lines[-1].startswith("[shard-progress] done slices=16/16")
        assert "agg_pps=" in lines[-1]

    def test_sharded_trace_deterministic_across_worker_counts(
            self, tmp_path, capsys):
        from repro.obs.trace import deterministic_trace, read_trace
        t1 = tmp_path / "t1.jsonl"
        t4 = tmp_path / "t4.jsonl"
        assert main(["scan", "--prefixes", "96", "--seed", "3",
                     "--shards", "1", "--trace", str(t1)]) == 0
        assert main(["scan", "--prefixes", "96", "--seed", "3",
                     "--shards", "4", "--trace", str(t4)]) == 0
        assert deterministic_trace(read_trace(str(t1))) == \
            deterministic_trace(read_trace(str(t4)))
