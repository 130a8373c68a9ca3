"""FlashRoute core: the paper's primary contribution.

Probe encoding, on-the-fly permutations, destination control blocks, the
preprobing distance measurement, the round-based backward/forward prober,
and the discovery-optimized mode.
"""

from .config import FlashRouteConfig, PreprobeMode
from .dcb import DCBArray, DCBView, PAPER_BYTES_PER_DCB, initial_order, projected_scan_memory
from .discovery import DiscoveryOptimizedResult, run_discovery_optimized
from .output import (
    format_route,
    format_scan_report,
    hops_csv_text,
    load_json,
    read_json,
    result_from_dict,
    result_to_dict,
    save_json,
    write_hops_csv,
    write_json,
)
from .encoding import (
    DecodedProbe,
    EncodingError,
    ProbeMarking,
    decode_response,
    destination_intact,
    encode_probe,
    rtt_ms,
    yarrp_elapsed_from_seq,
    yarrp_tcp_seq,
)
from .permutation import FeistelPermutation, MultiplicativeCycle, PermutationError
from .preprobe import PreprobeOutcome, clamp_distance, predict_distances
from .prober import FlashRoute
from .results import ScanResult, format_scan_time, union_interfaces
from .scanner import (
    Scanner,
    create_scanner,
    register_scanner,
    scanner_names,
    unregister_scanner,
)
from .targets import hitlist_targets, random_targets, targets_from_file

__all__ = [
    "FlashRouteConfig",
    "PreprobeMode",
    "DCBArray",
    "DCBView",
    "PAPER_BYTES_PER_DCB",
    "initial_order",
    "projected_scan_memory",
    "DiscoveryOptimizedResult",
    "run_discovery_optimized",
    "format_route",
    "format_scan_report",
    "hops_csv_text",
    "load_json",
    "read_json",
    "result_from_dict",
    "result_to_dict",
    "save_json",
    "write_hops_csv",
    "write_json",
    "DecodedProbe",
    "EncodingError",
    "ProbeMarking",
    "decode_response",
    "destination_intact",
    "encode_probe",
    "rtt_ms",
    "yarrp_elapsed_from_seq",
    "yarrp_tcp_seq",
    "FeistelPermutation",
    "MultiplicativeCycle",
    "PermutationError",
    "PreprobeOutcome",
    "clamp_distance",
    "predict_distances",
    "FlashRoute",
    "ScanResult",
    "format_scan_time",
    "union_interfaces",
    "Scanner",
    "create_scanner",
    "register_scanner",
    "scanner_names",
    "unregister_scanner",
    "hitlist_targets",
    "random_targets",
    "targets_from_file",
]
