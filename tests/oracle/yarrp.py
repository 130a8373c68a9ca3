"""Yarrp's bulk phase as a per-step loop: deliver before every step.

:class:`OracleYarrpRun` runs the whole (destination x TTL) permutation one
step at a time, for every configuration: drain everything that has
arrived, send each waiting fill probe on its own with a drain after it,
judge neighborhood protection for the step's TTL at the current time, and
send the step's one probe; every 64 steps is a boundary.  That is the
schedule fill mode and protection ran on before Yarrp's bulk loop sent
them in bursts.  The generated tests compare the two scans' results,
per-probe send logs and event streams, and resume each one from the
other's checkpoints.
"""

from __future__ import annotations

from repro.baselines.yarrp import (_RATE_WINDOW_SECONDS, Yarrp, _YarrpRun)
from repro.core.permutation import MultiplicativeCycle
from repro.core.runtime import BURST_PROBES, checkpointed_result


class OracleYarrpRun(_YarrpRun):
    """A Yarrp scan whose bulk phase drains before every step."""

    def _scan(self) -> None:
        config = self.config
        cycle = MultiplicativeCycle(len(self.offsets) * config.bulk_ttl,
                                    config.seed ^ 0x59A44)
        self._run_bulk_per_step(cycle)
        self._run_retry_passes()
        self.rt.result.skipped_probes = self.skipped_by_protection

    def _protected(self, ttl: int) -> bool:
        config = self.config
        if ttl > config.neighborhood_radius:
            return False
        last_new = self.last_new_iface_at.get(ttl, 0.0)
        return (self.rt.clock.now - last_new) > config.neighborhood_timeout

    def _flush_fills(self, drain_between: bool) -> None:
        while self.fill_backlog:
            self._probe([self.fill_backlog.pop()], "fill")
            if drain_between:
                self.rt.drain()

    def _run_bulk_per_step(self, cycle: MultiplicativeCycle) -> None:
        config = self.config
        rt = self.rt
        rt.span_begin("phase", "bulk")
        processed = 0
        for step, value in cycle.iter_steps(self._steps_done):
            rt.drain()
            self._flush_fills(drain_between=True)
            index, ttl_index = divmod(value, config.bulk_ttl)
            ttl = ttl_index + 1
            if self._protected(ttl):
                self.skipped_by_protection += 1
            else:
                self._probe([(self.targets[self.base_prefix
                                           + self.offsets[index]], ttl)])
                rt.report_progress()
            self._steps_done = step + 1
            processed += 1
            if processed % BURST_PROBES == 0:
                rt.boundary(window=_RATE_WINDOW_SECONDS)
        # Let the tail of fill chains complete.
        rt.settle()
        while self.fill_backlog:
            self._flush_fills(drain_between=False)
            rt.settle()
        rt.span_end("phase", "bulk", probes=rt.result.probes_sent,
                    skipped=self.skipped_by_protection)


class OracleYarrp(Yarrp):
    """:class:`~repro.baselines.yarrp.Yarrp` on :class:`OracleYarrpRun`."""

    def scan(self, network, targets=None, tool_name=None):
        return OracleYarrpRun(self.config, network, targets, tool_name,
                              telemetry=self.telemetry).execute()

    def resume(self, network, state):
        partial = checkpointed_result(state, "yarrp")
        run = OracleYarrpRun(self.config, network, dict(partial.targets),
                             partial.tool, telemetry=self.telemetry)
        run.restore_state(state)
        return run.execute()
