//! Served-system benchmark for the protected provenance graph: four
//! workloads driven over loopback sockets against an in-process server
//! (and replica), with output checks and a traced per-layer split. See
//! the package README for what each workload measures and why.

pub mod conn;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use workloads::Workload;

/// The workloads `BENCHMARK.json` gates. `ingest` runs the same way but
/// is not gated: its figures follow the host's fsync latency, which
/// varied several-fold within minutes on a 2-vCPU KVM guest.
pub const GATED: [Workload; 3] = [Workload::HotRead, Workload::ScanRead, Workload::Churn];

/// The end-to-end metrics every workload reports (`--trace 0`). The
/// median latency is printed but not gated: see the README.
pub const END_TO_END: [&str; 4] = ["setup_s", "ops_per_s", "op_p99_us", "rss_mb"];

/// The per-layer metrics every gated workload reports (`--trace 1`).
/// hot-read and scan-read make no writes: their `wal.*` and `replica.*`
/// figures come from the layer replay of a churn-style write stream.
pub const PER_LAYER: [&str; 20] = [
    "server.query_service_p50_us",
    "server.query_service_p99_us",
    "server.edge_p50_us",
    "server.bytes_out_per_op",
    "service.epoch_rebuild_ms",
    "service.query_sealed_us",
    "store.materialize_ms",
    "snapshot.csr_ms",
    "account.protect_surrogate_ms",
    "account.protect_hide_ms",
    "account.protect_naive_ms",
    "lineage.rows_per_query",
    "lineage.rows_us",
    "wire.decode_us",
    "wire.encode_us",
    "wire.response_bytes",
    "codec.seal_us",
    "wal.append_us",
    "wal.bytes_per_write",
    "replica.apply_us",
];
