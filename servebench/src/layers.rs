//! Per-layer metrics of the traced run. Two sources:
//!
//! * counters the program already exports — the server's `/metrics`
//!   exposition (request latency histograms, bytes, sheds, hangups) and
//!   the service's frame-cache and account-cache counters — read before
//!   and after the timed phase;
//! * a replay of the run's own generated inputs through each layer's
//!   public functions, with spans recorded around every call
//!   ([`Tracer`]).

use std::path::Path;
use std::sync::Arc;

use plus_store::codec::{encode_frame, seal_frame, WalRecord};
use plus_store::service::lineage_rows;
use plus_store::wire::{
    decode_request, encode_request, encode_response, Request, Response, WriteOp,
};
use plus_store::{
    AccountService, EdgeRecord, NodeRecord, QueryResponse, RecordId, SnapshotIndex, Store,
};
use server::Server;
use surrogate_core::credential::Consumer;

use crate::inputs::{ReadStream, STRATEGIES};
use crate::report::Outcome;
use crate::stats::{dir_bytes, exported_counter, ExportedHistogram};
use crate::trace::Tracer;
use crate::workloads::{consumer, RunConfig};

/// The exported counters at one instant.
#[derive(Debug, Clone)]
pub struct ServerSnapshot {
    exposition: String,
    frame_hits: u64,
    frame_misses: u64,
    cached_frames: usize,
    cached_accounts: usize,
    overload_drops: u64,
    hangups: u64,
}

impl ServerSnapshot {
    /// Reads the server's exposition and the service's cache counters.
    pub fn take(server: &Server, service: &AccountService) -> ServerSnapshot {
        let (frame_hits, frame_misses) = service.frame_cache_stats();
        let stats = server.stats();
        ServerSnapshot {
            exposition: server.metrics().render_prometheus(service, None),
            frame_hits,
            frame_misses,
            cached_frames: service.cached_frames(),
            cached_accounts: service.cached_accounts(),
            overload_drops: stats.overload_drops,
            hangups: stats.hangups,
        }
    }

    fn histogram(&self, request_type: &str) -> ExportedHistogram {
        ExportedHistogram::parse(&self.exposition, request_type)
    }

    fn bytes_written(&self) -> f64 {
        exported_counter(&self.exposition, "spgraph_bytes_written_total")
    }
}

/// Server-edge metrics for the workload's timed operation
/// (`request_type` is `query` or `write`): service time from the
/// exported histogram (interpolated inside its bucket), the edge residual
/// against the client's median, bytes out per operation, sheds and
/// hangups.
pub fn server_layer(
    outcome: &mut Outcome,
    before: &ServerSnapshot,
    after: &ServerSnapshot,
    request_type: &str,
    client_p50_us: f64,
    ops: u64,
) {
    let histogram = after
        .histogram(request_type)
        .minus(&before.histogram(request_type));
    let p50 = histogram.quantile_us(0.5);
    let p99 = histogram.quantile_us(0.99);
    let n = histogram.count;
    outcome.metric(
        &format!("server.{request_type}_service_p50_us"),
        p50,
        "us",
        n,
    );
    outcome.metric(
        &format!("server.{request_type}_service_p99_us"),
        p99,
        "us",
        n,
    );
    outcome.metric("server.edge_p50_us", client_p50_us - p50, "us", n);
    outcome.metric(
        "server.bytes_out_per_op",
        (after.bytes_written() - before.bytes_written()) / ops.max(1) as f64,
        "bytes",
        ops,
    );
    outcome.metric(
        "server.overload_drops",
        (after.overload_drops - before.overload_drops) as f64,
        "count",
        ops,
    );
    outcome.metric(
        "server.hangups",
        (after.hangups - before.hangups) as f64,
        "count",
        ops,
    );
}

/// The write service time of a mixed workload (churn's writer).
pub fn write_service(outcome: &mut Outcome, before: &ServerSnapshot, after: &ServerSnapshot) {
    let histogram = after.histogram("write").minus(&before.histogram("write"));
    outcome.metric(
        "server.write_service_p50_us",
        histogram.quantile_us(0.5),
        "us",
        histogram.count,
    );
}

/// Frame-cache and account-cache metrics over the timed phase.
pub fn service_layer(
    outcome: &mut Outcome,
    before: &ServerSnapshot,
    after: &ServerSnapshot,
    elapsed_s: f64,
) {
    let hits = after.frame_hits - before.frame_hits;
    let misses = after.frame_misses - before.frame_misses;
    let base = hits + misses;
    outcome.metric(
        "service.frame_hit_rate",
        hits as f64 / base.max(1) as f64,
        "fraction",
        base,
    );
    outcome.metric(
        "service.frame_misses_per_s",
        misses as f64 / elapsed_s,
        "1/s",
        misses,
    );
    outcome.metric(
        "service.cached_frames",
        after.cached_frames as f64,
        "count",
        1,
    );
    outcome.metric(
        "service.cached_accounts",
        after.cached_accounts as f64,
        "count",
        1,
    );
}

fn strategy_metric(strategy: plus_store::Strategy) -> &'static str {
    match strategy {
        plus_store::Strategy::Surrogate => "protect_surrogate_ms",
        plus_store::Strategy::HideEdges => "protect_hide_ms",
        _ => "protect_naive_ms",
    }
}

/// Replays one epoch's rebuild on the workload's base graph: materialize,
/// CSR build, the service's snapshot, and every account the workload's
/// consumers (named by their claims) use.
pub fn replay_setup(
    outcome: &mut Outcome,
    tracer: &mut Tracer,
    base: Store,
    consumers: &[&[&str]],
) {
    let store = Arc::new(base);
    let materialized = tracer.span("store.materialize", 0, None, || store.materialize());
    outcome.metric("store.materialize_ms", tracer.last_ms(), "ms", 1);
    let index = tracer.span("snapshot.csr", 0, None, || {
        SnapshotIndex::build(&materialized)
    });
    std::hint::black_box(index);
    outcome.metric("snapshot.csr_ms", tracer.last_ms(), "ms", 1);
    let service = AccountService::new(store);
    let snapshot = tracer.span("service.snapshot", 0, None, || service.snapshot());
    let mut rebuild_ms = tracer.last_ms();
    outcome.metric("service.snapshot_ms", rebuild_ms, "ms", 1);
    let mut rebuilds = 0u64;
    for (c, claims) in consumers.iter().enumerate() {
        let frontier = consumer(&service, claims).frontier(&snapshot.lattice);
        for strategy in STRATEGIES {
            let account = tracer.span("account.protect", c as u64, None, || {
                service.protect_at(&snapshot, &frontier, &strategy)
            });
            if let Err(e) = account {
                outcome.fail(format!("replayed protection failed: {e}"));
            }
            let ms = tracer.last_ms();
            rebuild_ms += ms;
            rebuilds += 1;
            let name = if c == 0 {
                format!("account.{}", strategy_metric(strategy))
            } else {
                format!(
                    "account.{}.{}",
                    claims.join("+").to_lowercase(),
                    strategy_metric(strategy)
                )
            };
            outcome.metric(&name, ms, "ms", 1);
        }
    }
    outcome.metric("service.epoch_rebuild_ms", rebuild_ms, "ms", 1);
    outcome.metric("service.rebuilds", rebuilds as f64, "accounts/epoch", 1);
}

/// Totals of a query replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueryCounts {
    /// Queries replayed.
    pub queries: u64,
    /// Lineage rows produced.
    pub rows: u64,
    /// Response payload bytes.
    pub bytes: u64,
}

/// Replays the first `limit` requests of `stream` through the served
/// query path's stages: request decode, account lookup, lineage
/// traversal, response encode and frame seal — each its own span under
/// one `query` span. The service's own cached entry point
/// (`query_sealed`) is timed alongside as a separate span.
pub fn replay_queries(
    tracer: &mut Tracer,
    service: &AccountService,
    consumer: &Consumer,
    stream: &ReadStream,
    limit: usize,
    counts: &mut QueryCounts,
) -> Result<(), String> {
    for (op, &index) in stream.order.iter().take(limit).enumerate() {
        let op = counts.queries + op as u64;
        let root = tracer.open("query", op, None);
        let decoded = tracer.span("wire.decode", op, Some(root), || {
            decode_request(stream.frames.payload(index as usize))
        });
        let request = match decoded {
            Ok(Request::Query(request)) => request,
            other => return Err(format!("replayed request decoded as {other:?}")),
        };
        let account = tracer
            .span("service.account", op, Some(root), || {
                service.get_account(consumer, &request.strategy)
            })
            .map_err(|e| format!("replayed account: {e}"))?;
        let rows = tracer.span("lineage.rows", op, Some(root), || {
            lineage_rows(&account, request.root, request.direction, request.max_depth)
        });
        counts.rows += rows.len() as u64;
        let response = Response::Query(QueryResponse {
            epoch: service.epoch(),
            root: request.root,
            rows,
            shard_epochs: Vec::new(),
        });
        let payload = tracer
            .span("wire.encode", op, Some(root), || encode_response(&response))
            .map_err(|e| format!("replayed encode: {e}"))?;
        counts.bytes += payload.len() as u64;
        let frame = tracer.span("codec.seal", op, Some(root), || seal_frame(&payload));
        std::hint::black_box(frame);
        tracer.close(root);
        tracer
            .span("service.query_sealed", op, None, || {
                service.query_sealed(consumer, &request)
            })
            .map_err(|e| format!("replayed query_sealed: {e}"))?;
    }
    counts.queries += limit.min(stream.order.len()) as u64;
    Ok(())
}

/// Per-layer query metrics from a replay, and the reconciliation line:
/// each layer's self time per query next to the server's service time
/// and the edge residual.
pub fn query_layers(outcome: &mut Outcome, tracer: &Tracer, counts: QueryCounts) {
    let layers = tracer.layers();
    let n = counts.queries;
    let self_us = |name: &str| layers.get(name).map_or(f64::NAN, |l| l.self_us());
    let decode = self_us("wire.decode");
    let account = self_us("service.account");
    let rows = self_us("lineage.rows");
    let encode = self_us("wire.encode");
    let seal = self_us("codec.seal");
    outcome.metric("wire.decode_us", decode, "us", n);
    outcome.metric("service.account_us", account, "us", n);
    outcome.metric("lineage.rows_us", rows, "us", n);
    outcome.metric(
        "lineage.rows_per_query",
        counts.rows as f64 / n.max(1) as f64,
        "rows",
        n,
    );
    outcome.metric("wire.encode_us", encode, "us", n);
    outcome.metric(
        "wire.response_bytes",
        counts.bytes as f64 / n.max(1) as f64,
        "bytes",
        n,
    );
    outcome.metric("codec.seal_us", seal, "us", n);
    outcome.metric(
        "service.query_sealed_us",
        self_us("service.query_sealed"),
        "us",
        n,
    );
    let covered = decode + account + rows + encode + seal;
    let service_p50 = outcome
        .value("server.query_service_p50_us")
        .unwrap_or(f64::NAN);
    let edge = outcome.value("server.edge_p50_us").unwrap_or(f64::NAN);
    outcome.notes.push(format!(
        "reconcile (us per query): wire.decode {decode:.3} + service.account {account:.3} + \
         lineage.rows {rows:.3} + wire.encode {encode:.3} + codec.seal {seal:.3} = {covered:.3} \
         uncached; service.query_sealed (as served, cache included) {:.3}; \
         server.query_service_p50_us {service_p50:.3}; server.edge_p50_us {edge:.3}",
        self_us("service.query_sealed")
    ));
}

/// The WAL record a write appends (`created_at` is the store's clock).
fn wal_record(op: &WriteOp, clock: u64) -> WalRecord {
    match op {
        WriteOp::AppendNode {
            label,
            kind,
            features,
            lowest,
        } => WalRecord::AppendNode(NodeRecord {
            label: label.clone(),
            kind: *kind,
            features: features.clone(),
            lowest: *lowest,
            created_at: clock,
        }),
        WriteOp::AppendEdge { from, to, kind } => WalRecord::AppendEdge(EdgeRecord {
            from: *from,
            to: *to,
            kind: *kind,
        }),
        WriteOp::ApplyPolicy(statement) => WalRecord::ApplyPolicy(statement.clone()),
    }
}

/// Replays acknowledged writes, in order, into a fresh durable copy of
/// the base graph under `dir` (default durability: fsync on every
/// frame): request decode, WAL frame encode+seal, and the store's append
/// (log, fsync, apply); then the replica's apply of the same log record
/// on a second durable copy (`Store::apply_replicated`: log, fsync,
/// apply). An edge that follows a node append targets the id the replay
/// assigned that node. Returns the bytes the primary's log grew by.
pub fn replay_writes(
    tracer: &mut Tracer,
    base: &Store,
    ops: &[WriteOp],
    dir: &Path,
) -> Result<u64, String> {
    let durable = |name: &str| {
        let dir = dir.join(name);
        base.save_durable(&dir)
            .map_err(|e| format!("replay seed: {e}"))?;
        Store::open(&dir).map_err(|e| format!("replay open: {e}"))
    };
    let store = durable("primary")?;
    let follower = durable("follower")?;
    let term = store.replication_term();
    let start_bytes = dir_bytes(&dir.join("primary"));
    let mut last_node: Option<RecordId> = None;
    for (k, op) in ops.iter().enumerate() {
        let k = k as u64;
        let mut op = op.clone();
        if let (WriteOp::AppendEdge { to, .. }, Some(id)) = (&mut op, last_node) {
            *to = id;
        }
        let payload = encode_request(&Request::Write { op: op.clone() })
            .map_err(|e| format!("replay encode: {e}"))?;
        let root = tracer.open("write", k, None);
        let decoded = tracer.span("wire.decode_write", k, Some(root), || {
            decode_request(&payload)
        });
        if !matches!(decoded, Ok(Request::Write { .. })) {
            return Err(format!("replayed write decoded as {decoded:?}"));
        }
        let record = wal_record(&op, store.clock());
        let frame = tracer.span("codec.wal_seal", k, Some(root), || encode_frame(&record));
        std::hint::black_box(frame);
        let applied = tracer.span("wal.append", k, Some(root), || match op {
            WriteOp::AppendNode {
                label,
                kind,
                features,
                lowest,
            } => store
                .try_append_node(label, kind, features, lowest)
                .map(Some),
            WriteOp::AppendEdge { from, to, kind } => {
                store.append_edge(from, to, kind).map(|_| None)
            }
            WriteOp::ApplyPolicy(statement) => store.apply_policy(statement).map(|_| None),
        });
        tracer.close(root);
        last_node = applied.map_err(|e| format!("replayed write {k}: {e}"))?;
        tracer
            .span("replica.apply", k, None, || {
                follower.apply_replicated(record, term)
            })
            .map_err(|e| format!("replica replay of write {k}: {e}"))?;
    }
    if follower.to_bytes() != store.to_bytes() {
        return Err("replayed replica differs from the replayed primary".to_string());
    }
    Ok(dir_bytes(&dir.join("primary")).saturating_sub(start_bytes))
}

/// Per-layer write metrics from a replay of `writes` writes whose log
/// grew by `grown` bytes.
pub fn write_layers(outcome: &mut Outcome, tracer: &Tracer, grown: u64, writes: usize) {
    let layers = tracer.layers();
    let n = writes as u64;
    let self_us = |name: &str| layers.get(name).map_or(f64::NAN, |l| l.self_us());
    outcome.metric(
        "wire.write_decode_us",
        self_us("wire.decode_write"),
        "us",
        n,
    );
    outcome.metric("wal.seal_us", self_us("codec.wal_seal"), "us", n);
    outcome.metric("wal.append_us", self_us("wal.append"), "us", n);
    outcome.metric("replica.apply_us", self_us("replica.apply"), "us", n);
    outcome.metric(
        "wal.bytes_per_write",
        grown as f64 / n.max(1) as f64,
        "bytes",
        n,
    );
}

/// Writes the run's spans next to its scratch directory.
pub fn write_trace(config: &RunConfig, tracer: &Tracer, outcome: &mut Outcome) {
    let dir = config.work_dir.parent().unwrap_or(Path::new("."));
    let path = dir.join(format!(
        "trace-{}-{}.jsonl",
        config.workload.name(),
        config.seed
    ));
    match tracer.write_jsonl(&path) {
        Ok(()) => outcome
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => outcome.notes.push(format!("spans not written: {e}")),
    }
}
