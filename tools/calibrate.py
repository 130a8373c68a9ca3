#!/usr/bin/env python
"""Calibration harness: runs all tools on one topology and prints the
shape metrics the paper reports, next to the paper's values.

Usage: python tools/calibrate.py [num_prefixes] [seed]
"""
import pathlib
import sys
import time

if __package__ in (None, ""):  # allow "python tools/calibrate.py"
    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.baselines import Scamper, ScamperConfig, Yarrp, YarrpConfig  # noqa: E402
from repro.core import FlashRoute, FlashRouteConfig, random_targets  # noqa: E402
from repro.obs.telemetry import Telemetry  # noqa: E402
from repro.simnet import SimulatedNetwork, Topology, TopologyConfig  # noqa: E402


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    num_prefixes = int(argv[0]) if len(argv) > 0 else 2048
    seed = int(argv[1]) if len(argv) > 1 else 20201027
    topo = Topology(TopologyConfig(num_prefixes=num_prefixes, seed=seed))
    targets = random_targets(topo, seed=1)
    rows = {}

    def run(label, fn):
        t0 = time.time()
        res = fn()
        rows[label] = res
        print(f'{label:14s} ifaces={res.interface_count():6d} '
              f'probes={res.probes_sent:8d} vtime={res.duration:8.1f}s '
              f'wall={time.time()-t0:5.1f}s')
        return res

    run('FR-16', lambda: FlashRoute(FlashRouteConfig.flashroute_16()).scan(
        SimulatedNetwork(topo), targets=targets))
    run('FR-32', lambda: FlashRoute(FlashRouteConfig.flashroute_32()).scan(
        SimulatedNetwork(topo), targets=targets))
    run('Yarrp-16', lambda: Yarrp(YarrpConfig.yarrp_16()).scan(
        SimulatedNetwork(topo), targets=targets))
    run('Yarrp-32', lambda: Yarrp(YarrpConfig.yarrp_32()).scan(
        SimulatedNetwork(topo), targets=targets))
    run('Scamper-16', lambda: Scamper(ScamperConfig.scamper_16()).scan(
        SimulatedNetwork(topo), targets=targets))
    run('sim', lambda: FlashRoute(
        FlashRouteConfig.yarrp32_udp_simulation()).scan(
        SimulatedNetwork(topo), targets=targets, tool_name='sim'))

    fr16, fr32, y16, y32, sc, sim = (rows[k] for k in
                                     ['FR-16', 'FR-32', 'Yarrp-16',
                                      'Yarrp-32', 'Scamper-16', 'sim'])
    print()
    checks = [
        ('FR16/Yarrp32 probes', fr16.probes_sent / y32.probes_sent, 0.275),
        ('FR32/FR16 probes', fr32.probes_sent / fr16.probes_sent, 1.63),
        ('FR16/Yarrp32 time', fr16.duration / y32.duration, 0.287),
        ('Yarrp16/Yarrp32 ifaces', y16.interface_count() / y32.interface_count(), 0.49),
        ('Scamper/FR16 probes', sc.probes_sent / fr16.probes_sent, 1.347),
        ('Scamper/FR16 ifaces', sc.interface_count() / fr16.interface_count(), 1.008),
        ('FR16/sim ifaces', fr16.interface_count() / sim.interface_count(), 0.980),
        ('FR32/sim ifaces', fr32.interface_count() / sim.interface_count(), 0.974),
        ('Yarrp32tcp/sim ifaces', y32.interface_count() / sim.interface_count(), 0.966),
    ]
    for name, got, want in checks:
        print(f'  {name:26s} {got:6.3f}  (paper {want:.3f})')

    for mode, want_m, want_p in (('hitlist', 0.100, 0.282),
                                 ('random', 0.040, 0.190)):
        telemetry = Telemetry()
        FlashRoute(FlashRouteConfig(split_ttl=16, preprobe=mode),
                   telemetry=telemetry).scan(SimulatedNetwork(topo),
                                             targets=targets)
        counter = telemetry.registry.counter
        measured = counter('scan.preprobe.measured') / num_prefixes
        predicted = counter('scan.preprobe.predicted') / num_prefixes
        print(f'  {mode}-preprobe measured     {measured:6.3f}  (paper {want_m:.3f})')
        print(f'  {mode}-preprobe predicted    {predicted:6.3f}  (paper {want_p:.3f})')

    depth_of = {}
    for _pfx, hops in sim.routes.items():
        for ttl, addr in hops.items():
            known = depth_of.get(addr)
            if known is None or ttl < known:
                depth_of[addr] = ttl
    deep = sum(1 for d in depth_of.values() if d > 16)
    print(f'  unique ifaces deeper than 16   {deep/len(depth_of):6.3f}  '
          f'(needed ~0.45 for Yarrp-16 shape)')


if __name__ == '__main__':
    main()
