"""Metrics-file summaries and diffs (repro.obs.report + the CLI/tools
wrappers)."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    diff_rows,
    flatten_snapshot,
    metrics_report,
    render_diff,
    render_summary,
)


def write_metrics(path, values, histogram=None):
    reg = MetricsRegistry()
    for name, value in values.items():
        reg.inc(name, value)
    if histogram:
        for value in histogram:
            reg.observe("h.sizes", value)
    reg.save(str(path))
    return str(path)


class TestFlatten:
    def test_counters_gauges_and_histograms(self):
        reg = MetricsRegistry()
        reg.inc("c", 3)
        reg.set_gauge("g", 1.5)
        reg.observe("h", 10)
        reg.observe("h", 20)
        flat = flatten_snapshot(reg.snapshot())
        assert flat == {"c": 3, "g": 1.5, "h.count": 2, "h.sum": 30}


class TestDiffRows:
    def test_union_and_deltas(self):
        left = MetricsRegistry()
        left.inc("shared", 10)
        left.inc("only_a", 1)
        right = MetricsRegistry()
        right.inc("shared", 13)
        right.inc("only_b", 2)
        rows = {name: (a, b, delta) for name, a, b, delta
                in diff_rows(left.snapshot(), right.snapshot())}
        assert rows["shared"] == (10, 13, 3)
        assert rows["only_a"] == (1, None, None)
        assert rows["only_b"] == (None, 2, None)


class TestRendering:
    def test_summary_table(self, tmp_path):
        path = write_metrics(tmp_path / "m.json", {"scan.probes.total": 1234})
        text = metrics_report(path)
        assert "snapshot summary" in text
        assert "scan.probes.total" in text
        assert "1,234" in text

    def test_diff_table(self, tmp_path):
        a = write_metrics(tmp_path / "a.json",
                          {"scan.probes.total": 100, "scan.rounds": 9})
        b = write_metrics(tmp_path / "b.json",
                          {"scan.probes.total": 80, "scan.rounds": 9})
        text = metrics_report(a, b)
        assert "snapshot diff" in text
        assert "-20" in text  # the probes delta, negative

    def test_changed_only_hides_equal_rows(self, tmp_path):
        a = write_metrics(tmp_path / "a.json",
                          {"same": 5, "moved": 1})
        b = write_metrics(tmp_path / "b.json",
                          {"same": 5, "moved": 4})
        text = metrics_report(a, b, changed_only=True)
        assert "moved" in text
        assert "same" not in text

    def test_histograms_diff_via_count_and_sum(self, tmp_path):
        a = write_metrics(tmp_path / "a.json", {}, histogram=[1, 2])
        b = write_metrics(tmp_path / "b.json", {}, histogram=[1, 2, 50])
        text = metrics_report(a, b, changed_only=True)
        assert "h.sizes.count" in text
        assert "h.sizes.sum" in text

    def test_render_functions_accept_snapshots(self):
        reg = MetricsRegistry()
        reg.inc("x", 1)
        snap = reg.snapshot()
        assert "x" in render_summary(snap)
        assert "Delta" in render_diff(snap, snap)


class TestToolsScript:
    def test_main(self, tmp_path, capsys):
        import importlib

        module = importlib.import_module("tools.metrics_report")
        path = write_metrics(tmp_path / "m.json", {"scan.rounds": 3})
        assert module.main([path]) == 0
        out = capsys.readouterr().out
        assert "scan.rounds" in out

    def test_calibrate_main(self, capsys):
        import importlib

        importlib.import_module("tools.calibrate").main(["64"])
        out = capsys.readouterr().out
        assert "FR16/Yarrp32 probes" in out
        assert "hitlist-preprobe measured" in out

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            metrics_report(str(tmp_path / "nope.json"))
