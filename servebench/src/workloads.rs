//! The four workloads. Each builds its deployment from seeded inputs,
//! drives it over loopback sockets for the run length, checks the
//! answers, and reports its metrics. With tracing on, the same inputs are
//! also replayed through each layer's public functions (see
//! [`crate::layers`]).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use plus_store::{AccountService, Store};
use server::{Replica, Server, ServerConfig};
use surrogate_core::credential::Consumer;

use crate::conn::{query_epoch, written, Conn};
use crate::inputs::{self, IngestStream, PlannedWrite, ReadStream, Rng, Shape, STRATEGIES};
use crate::layers;
use crate::report::Outcome;
use crate::stats::{dir_bytes, median, peak_rss_mib, quantile, WindowSummary, Windows};

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf-skewed repeats of a small request set: every answer is a
    /// sealed-frame cache hit.
    HotRead,
    /// Uniform requests over a key space 3.7x the frame cache: most
    /// answers are traversed, encoded and sealed.
    ScanRead,
    /// Open-loop reads while acknowledged writes land at 2/s on a
    /// primary that a replica follows.
    Churn,
    /// Two closed-loop writers on a durable primary with a replica.
    Ingest,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::HotRead,
        Workload::ScanRead,
        Workload::Churn,
        Workload::Ingest,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot-read",
            Workload::ScanRead => "scan-read",
            Workload::Churn => "churn",
            Workload::Ingest => "ingest",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Size::full`] is the benchmark; [`Size::tiny`] runs the
/// same code paths in well under a second for the self-tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Graph of hot-read and scan-read.
    pub read_graph: Shape,
    /// Graph of churn, and the base graph the ingest writers append to.
    pub write_graph: Shape,
    /// Fixed requests per hot-read connection.
    pub hot_requests: usize,
    /// Set-ups per end-to-end hot-read or scan-read run; `setup_s` is
    /// their median.
    pub read_setups: usize,
    /// Set-ups per end-to-end churn or ingest run (cheaper, noisier).
    pub write_setups: usize,
    /// Churn writes per second (open loop).
    pub churn_write_rate: f64,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Size {
        Size {
            read_graph: Shape {
                stages: 50,
                width: 50,
            },
            write_graph: Shape {
                stages: 30,
                width: 30,
            },
            hot_requests: 4096,
            read_setups: 5,
            write_setups: 41,
            churn_write_rate: 2.0,
        }
    }

    /// Self-test sizes.
    pub fn tiny() -> Size {
        let tiny = Shape {
            stages: 4,
            width: 4,
        };
        Size {
            read_graph: tiny,
            write_graph: tiny,
            hot_requests: 64,
            read_setups: 2,
            write_setups: 2,
            churn_write_rate: 40.0,
        }
    }
}

/// Churn reads per second (open loop).
const CHURN_READ_RATE: f64 = 2000.0;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which traffic mix.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// How long the timed phase lasts.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Scratch directory for durable stores; emptied and removed at the
    /// end of the run.
    pub work_dir: PathBuf,
}

/// Node records of a workflow graph of `shape`.
pub fn node_count(shape: Shape) -> usize {
    shape.width + 2 * shape.stages * shape.width
}

/// The two read consumers: claimed name and predicate claims.
const READERS: [(&str, &[&str]); 2] = [("public", &[]), ("restricted", &["Restricted"])];

/// The consumer a server resolves for a Hello claiming `claims`.
pub(crate) fn consumer(service: &AccountService, claims: &[&str]) -> Consumer {
    let lattice = service.snapshot().lattice.clone();
    let granted: Vec<_> = claims
        .iter()
        .map(|c| {
            lattice
                .by_name(c)
                .expect("workflow lattice names the claim")
        })
        .collect();
    if granted.is_empty() {
        Consumer::public(&lattice)
    } else {
        Consumer::new("restricted", &lattice, &granted)
    }
}

/// A running deployment: the primary's store and service behind a
/// loopback server, optionally a replica, and the load connections.
struct Deployment {
    store: Arc<Store>,
    service: Arc<AccountService>,
    server: Server,
    replica: Option<Replica>,
    dir: Option<PathBuf>,
    conns: Vec<Conn>,
}

impl Deployment {
    /// Hangs up the load connections, then stops the replica and the
    /// server.
    fn stop(self) {
        drop(self.conns);
        if let Some(replica) = self.replica {
            replica.shutdown();
        }
        self.server.shutdown();
    }
}

fn bind(service: &Arc<AccountService>, config: &ServerConfig) -> Result<Server, String> {
    Server::bind(service.clone(), "127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))
}

fn connect(server: &Server, consumer: &str, claims: &[&str]) -> Result<Conn, String> {
    Conn::connect(server.local_addr(), consumer, claims).map_err(|e| format!("connect: {e}"))
}

/// A durable primary store seeded with `base`'s state in `dir`, with
/// the default durability (fsync on every frame).
fn durable_copy(base: &Store, dir: &Path) -> Result<Arc<Store>, String> {
    base.save_durable(dir)
        .map_err(|e| format!("seed {dir:?}: {e}"))?;
    Store::open(dir)
        .map(Arc::new)
        .map_err(|e| format!("open {dir:?}: {e}"))
}

/// hot-read / scan-read set-up: graph, in-memory primary, server,
/// every account warmed, hot frames warmed, both consumers connected.
fn setup_read(
    config: &RunConfig,
    graph_seed: u64,
    hot: Option<&[ReadStream]>,
) -> Result<Deployment, String> {
    let store = Arc::new(inputs::base_store(config.size.read_graph, graph_seed));
    let service = Arc::new(AccountService::new(store.clone()));
    let server = bind(&service, &ServerConfig::default())?;
    for (i, (_, claims)) in READERS.iter().enumerate() {
        let consumer = consumer(&service, claims);
        for strategy in STRATEGIES {
            service
                .get_account(&consumer, &strategy)
                .map_err(|e| format!("warm account: {e}"))?;
        }
        if let Some(streams) = hot {
            for request in &streams[i].requests {
                service
                    .query_sealed(&consumer, request)
                    .map_err(|e| format!("warm frame: {e}"))?;
            }
        }
    }
    let conns = READERS
        .iter()
        .map(|(name, claims)| connect(&server, name, claims))
        .collect::<Result<_, _>>()?;
    Ok(Deployment {
        store,
        service,
        server,
        replica: None,
        dir: None,
        conns,
    })
}

/// churn set-up: durable primary with remote writes and replication, a
/// cold-started replica, Public accounts and hot frames warmed, writer
/// and reader connected.
fn setup_churn(
    config: &RunConfig,
    graph_seed: u64,
    stream: &ReadStream,
    dir: &Path,
) -> Result<Deployment, String> {
    let base = inputs::base_store(config.size.write_graph, graph_seed);
    let store = durable_copy(&base, &dir.join("primary"))?;
    drop(base);
    let service = Arc::new(AccountService::new(store.clone()));
    let server = bind(
        &service,
        &ServerConfig {
            allow_remote_write: true,
            allow_replication: true,
            ..ServerConfig::default()
        },
    )?;
    let replica = Replica::start(server.local_addr().to_string(), dir.join("replica"))
        .map_err(|e| format!("replica: {e}"))?;
    let public = consumer(&service, &[]);
    for strategy in STRATEGIES {
        service
            .get_account(&public, &strategy)
            .map_err(|e| format!("warm account: {e}"))?;
    }
    for request in &stream.requests {
        service
            .query_sealed(&public, request)
            .map_err(|e| format!("warm frame: {e}"))?;
    }
    let conns = vec![
        connect(&server, "writer", &[])?,
        connect(&server, "public", &[])?,
    ];
    Ok(Deployment {
        store,
        service,
        server,
        replica: Some(replica),
        dir: Some(dir.join("primary")),
        conns,
    })
}

/// ingest set-up: durable primary with remote writes and replication,
/// a cold-started replica, two writers connected.
fn setup_ingest(config: &RunConfig, graph_seed: u64, dir: &Path) -> Result<Deployment, String> {
    let base = inputs::base_store(config.size.write_graph, graph_seed);
    let store = durable_copy(&base, &dir.join("primary"))?;
    drop(base);
    let service = Arc::new(AccountService::new(store.clone()));
    let server = bind(
        &service,
        &ServerConfig {
            allow_remote_write: true,
            allow_replication: true,
            ..ServerConfig::default()
        },
    )?;
    let replica = Replica::start(server.local_addr().to_string(), dir.join("replica"))
        .map_err(|e| format!("replica: {e}"))?;
    let conns = vec![
        connect(&server, "writer-0", &[])?,
        connect(&server, "writer-1", &[])?,
    ];
    Ok(Deployment {
        store,
        service,
        server,
        replica: Some(replica),
        dir: Some(dir.join("primary")),
        conns,
    })
}

/// Runs set-up `repeats` times, stopping each deployment (untimed)
/// before the next is built, so one is resident at a time. Returns each
/// set-up's duration and the last deployment, the one that serves.
fn repeated_setup(
    repeats: usize,
    mut setup: impl FnMut(usize) -> Result<Deployment, String>,
) -> Result<(Vec<f64>, Deployment), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last: Option<Deployment> = None;
    for k in 0..repeats.max(1) {
        if let Some(previous) = last.take() {
            previous.stop();
        }
        let t = Instant::now();
        last = Some(setup(k)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((times, last.expect("at least one set-up")))
}

/// One closed-loop read connection's results.
#[derive(Default)]
struct ReadLoop {
    windows: Option<Windows>,
    completed: u64,
    failed: u64,
    errors: Vec<String>,
    /// `(request index, served payload)` of sampled answers.
    samples: Vec<(u32, Vec<u8>)>,
    elapsed_s: f64,
}

/// Every `SAMPLE_STRIDE`-th answer is kept for the byte-equality check,
/// up to `SAMPLE_BYTES` per connection.
const SAMPLE_STRIDE: usize = 97;
const SAMPLE_BYTES: usize = 8 << 20;

fn closed_reads(conn: &mut Conn, stream: &ReadStream, barrier: &Barrier, seconds: f64) -> ReadLoop {
    let mut out = ReadLoop::default();
    let mut sampled_bytes = 0;
    barrier.wait();
    let start = Instant::now();
    let mut windows = Windows::new(start, WINDOW_S, window_count(seconds));
    let end = start + Duration::from_secs_f64(seconds);
    let mut now = start;
    let mut i = 0usize;
    while now < end {
        let index = stream.order[i % stream.order.len()];
        match conn.round_trip(stream.frames.get(index as usize)) {
            Ok(payload) => {
                if i.is_multiple_of(SAMPLE_STRIDE) && sampled_bytes < SAMPLE_BYTES {
                    sampled_bytes += payload.len();
                    out.samples.push((index, payload.to_vec()));
                }
                let done = Instant::now();
                windows.record(done, (done - now).as_nanos() as f64 / 1e3);
                out.completed += 1;
                now = done;
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("read: {e}"));
                break;
            }
        }
        i += 1;
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.windows = Some(windows);
    out
}

/// Byte-compares sampled served answers with the same requests answered
/// in-process by an independent reference service. Returns the number of
/// answers checked and the mismatches.
pub fn check_frames(
    reference: &AccountService,
    consumer: &Consumer,
    stream: &ReadStream,
    samples: &[(u32, Vec<u8>)],
) -> (u64, Vec<String>) {
    let mut errors = Vec::new();
    for (index, served) in samples {
        let request = &stream.requests[*index as usize];
        match reference.query_sealed(consumer, request) {
            Ok(expected) if expected[8..] == served[..] => {}
            Ok(_) => errors.push(format!(
                "served answer to {request:?} differs from reference"
            )),
            Err(e) => errors.push(format!("reference refused {request:?}: {e}")),
        }
    }
    (samples.len() as u64, errors)
}

/// Reopens the durable store in `dir` and checks it recovers exactly the
/// acknowledged clock and the primary's final state.
pub fn check_recovery(dir: &Path, acked_clock: u64, expected: &[u8]) -> Result<(), String> {
    let reopened = Store::open(dir).map_err(|e| format!("reopen {dir:?}: {e}"))?;
    if reopened.clock() != acked_clock {
        return Err(format!(
            "reopened primary recovered clock {} but {acked_clock} was acknowledged",
            reopened.clock()
        ));
    }
    if reopened.to_bytes() != expected {
        return Err("reopened primary differs from the state it acknowledged".to_string());
    }
    Ok(())
}

/// Waits up to 10 s for `replica` to reach `primary`'s clock, then
/// checks that the two stores are byte-equal. (`Replica::wait_caught_up`
/// judges lag against the primary epoch the replica last heard of, which
/// can predate the final writes.)
fn check_replica(replica: &Replica, primary: &Store) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.epoch() < primary.clock() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    if replica.epoch() < primary.clock() {
        Err(format!(
            "replica at epoch {} did not reach the primary's clock {} within 10 s",
            replica.epoch(),
            primary.clock()
        ))
    } else if replica.store().to_bytes() != primary.to_bytes() {
        Err("replica state differs from the primary's".to_string())
    } else {
        Ok(())
    }
}

/// Checks one connection's sequence of observed epochs: never backward,
/// and each at least the acknowledged clock known before the read was
/// sent. `reads` holds `(epoch, acknowledged clock at send)`.
pub fn check_epochs(reads: &[(u64, u64)]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut last = 0;
    for (i, &(epoch, floor)) in reads.iter().enumerate() {
        if epoch < last {
            errors.push(format!(
                "read {i}: epoch went backward from {last} to {epoch}"
            ));
        }
        if epoch < floor {
            errors.push(format!(
                "read {i}: epoch {epoch} is older than the write acknowledged at clock {floor}"
            ));
        }
        last = last.max(epoch);
    }
    errors
}

/// Width of the windows a timed phase is split into.
const WINDOW_S: f64 = 0.5;

/// Whole windows in a phase of `seconds` (at least one).
fn window_count(seconds: f64) -> usize {
    ((seconds / WINDOW_S).floor() as usize).max(1)
}

/// The 0.99 quantile of `samples`, or NaN when fewer than the 1,000
/// samples a p99 needs (churn's writes at 2/s).
fn p99(samples: &mut [f64]) -> f64 {
    if samples.len() >= 1000 {
        quantile(samples, 0.99)
    } else {
        f64::NAN
    }
}

/// Records the timed operation's rate and latency, as the uniform
/// `ops_per_s` / `op_p50_us` / `op_p99_us` and under the operation's own
/// names (`prefix` is `read` or `write`).
fn op_metrics(outcome: &mut Outcome, summary: WindowSummary, prefix: &str, unit: &'static str) {
    let n = summary.samples;
    outcome.metric("ops_per_s", summary.per_s, "1/s", n);
    outcome.metric("op_p50_us", summary.p50, "us", n);
    outcome.metric("op_p99_us", summary.p99, "us", n);
    outcome.metric(&format!("{prefix}_per_s"), summary.per_s, unit, n);
    outcome.metric(&format!("{prefix}_p50_us"), summary.p50, "us", n);
    outcome.metric(&format!("{prefix}_p99_us"), summary.p99, "us", n);
}

/// Records the process's peak resident set as `rss_mb`. Each workload
/// reads it right after its timed phase, before building anything the
/// output checks or the traced replay need.
fn record_rss(outcome: &mut Outcome) {
    outcome.metric("rss_mb", peak_rss_mib(), "MiB", 1);
}

/// Runs one workload.
pub fn run(config: &RunConfig) -> Outcome {
    let _ = std::fs::remove_dir_all(&config.work_dir);
    let mut outcome = Outcome::default();
    outcome.notes.push(format!(
        "workload {} seed {} seconds {} trace {}",
        config.workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace)
    ));
    let result = match config.workload {
        Workload::HotRead => run_read(config, true, &mut outcome),
        Workload::ScanRead => run_read(config, false, &mut outcome),
        Workload::Churn => run_churn(config, &mut outcome),
        Workload::Ingest => run_ingest(config, &mut outcome),
    };
    if let Err(e) = result {
        outcome.attempted = outcome.attempted.max(1);
        outcome.fail(e);
    }
    let _ = std::fs::remove_dir_all(&config.work_dir);
    if outcome.value("rss_mb").is_none() {
        record_rss(&mut outcome);
    }
    let attempted = outcome.attempted.max(1) as f64;
    outcome.metric(
        "error_frac",
        outcome.failed as f64 / attempted,
        "fraction",
        outcome.attempted,
    );
    outcome
}

/// Writes the traced hot-read and scan-read runs replay through the wal
/// and replica layers: as many as churn acknowledges in 30 s.
const READ_WRITE_REPLAY: usize = 60;

fn run_read(config: &RunConfig, hot: bool, outcome: &mut Outcome) -> Result<(), String> {
    let size = config.size;
    let nodes = node_count(size.read_graph);
    let graph_seed = config.seed;
    // Long enough that no scan-read connection wraps around within a
    // run. Hot-read connections may wrap; every answer there is a cache
    // hit either way.
    let order_len = 1 << 21;
    let streams: Vec<ReadStream> = (0..READERS.len())
        .map(|i| {
            let mut rng = Rng::new(config.seed, 10 + i as u64);
            if hot {
                inputs::hot_stream(&mut rng, nodes, size.hot_requests, order_len)
            } else {
                inputs::scan_stream(&mut rng, nodes, order_len)
            }
        })
        .collect();
    let warm = hot.then_some(streams.as_slice());
    let setups = if config.trace { 1 } else { size.read_setups };
    let (setup_times, mut deployment) =
        repeated_setup(setups, |_| setup_read(config, graph_seed, warm))?;
    outcome.metric(
        "setup_s",
        median(setup_times.clone()),
        "s",
        setup_times.len() as u64,
    );
    if deployment.store.node_count() != nodes {
        return Err(format!(
            "graph has {} nodes, expected {nodes}",
            deployment.store.node_count()
        ));
    }

    let before = layers::ServerSnapshot::take(&deployment.server, &deployment.service);
    let barrier = Barrier::new(READERS.len());
    let loops: Vec<ReadLoop> = std::thread::scope(|s| {
        let handles: Vec<_> = deployment
            .conns
            .iter_mut()
            .zip(&streams)
            .map(|(conn, stream)| {
                let barrier = &barrier;
                s.spawn(move || closed_reads(conn, stream, barrier, config.seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let after = layers::ServerSnapshot::take(&deployment.server, &deployment.service);
    record_rss(outcome);

    // The reference is built after the peak resident set is read, so
    // that figure covers the served deployment alone.
    let reference_store = Arc::new(inputs::base_store(size.read_graph, graph_seed));
    let reference = AccountService::new(reference_store.clone());
    let mut completed = 0;
    let mut elapsed: f64 = 0.0;
    for (i, lp) in loops.iter().enumerate() {
        outcome.attempted += lp.completed + lp.failed;
        outcome.failed += lp.failed;
        outcome.failures.extend(lp.errors.iter().take(5).cloned());
        completed += lp.completed;
        elapsed = elapsed.max(lp.elapsed_s);
        let (_, claims) = READERS[i];
        let reference_consumer = consumer(&reference, claims);
        let (checked, errors) =
            check_frames(&reference, &reference_consumer, &streams[i], &lp.samples);
        outcome.notes.push(format!(
            "check: {checked} sampled {} answers byte-compared with an independent in-process service",
            READERS[i].0
        ));
        for e in errors {
            outcome.fail(e);
        }
    }
    if deployment.store.to_bytes() != reference_store.to_bytes() {
        outcome.fail("reference store differs from the served store");
    }
    let summary = Windows::merged(loops.iter().filter_map(|lp| lp.windows.as_ref()))
        .expect("two load threads")
        .summary();
    op_metrics(outcome, summary, "read", "queries/s");
    let p50 = summary.p50;

    if config.trace {
        layers::server_layer(outcome, &before, &after, "query", p50, completed);
        layers::service_layer(outcome, &before, &after, elapsed);
        let mut tracer = crate::trace::Tracer::default();
        let claims: Vec<&[&str]> = READERS.iter().map(|(_, claims)| *claims).collect();
        let base = inputs::base_store(size.read_graph, graph_seed);
        layers::replay_setup(outcome, &mut tracer, base, &claims);
        let per_stream = 2_000;
        let mut counts = layers::QueryCounts::default();
        for (stream, (_, claims)) in streams.iter().zip(READERS) {
            let consumer = consumer(&deployment.service, claims);
            layers::replay_queries(
                &mut tracer,
                &deployment.service,
                &consumer,
                stream,
                per_stream,
                &mut counts,
            )?;
        }
        layers::query_layers(outcome, &tracer, counts);
        // The served run makes no writes. So that the wal and replica
        // layers have figures here too, a churn-style write stream on
        // this graph is replayed through them (layer replay only).
        let (public, restricted) = inputs::workflow_predicates();
        let ops: Vec<_> = inputs::churn_writes(
            &mut Rng::new(config.seed, 21),
            nodes,
            public,
            restricted,
            READ_WRITE_REPLAY,
        )
        .into_iter()
        .take(READ_WRITE_REPLAY)
        .map(|w| w.op)
        .collect();
        let base = inputs::base_store(size.read_graph, graph_seed);
        let grown =
            layers::replay_writes(&mut tracer, &base, &ops, &config.work_dir.join("replay"))?;
        layers::write_layers(outcome, &tracer, grown, ops.len());
        layers::write_trace(config, &tracer, outcome);
    }
    deployment.stop();
    Ok(())
}

/// Sleeps until `due`, finishing with a short spin so the generator is
/// not late by the timer's slack.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(120);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The churn writer's results.
#[derive(Default)]
struct WriteLoop {
    latencies_us: Vec<f64>,
    late_us: Vec<f64>,
    /// From each acknowledgement until the replica's epoch reached the
    /// write's clock.
    fresh_us: Vec<f64>,
    /// Most writes the replica was behind when a write was acknowledged.
    lag_max: u64,
    sent: u64,
    failed: u64,
    errors: Vec<String>,
    last_clock: u64,
}

/// Polls `replica` every 100 µs until it has applied every `pending`
/// `(clock, acknowledged at)` write or `deadline` passes, moving each
/// applied write's time since its acknowledgement into `fresh_us`.
fn await_replica(
    replica: &Replica,
    pending: &mut Vec<(u64, Instant)>,
    fresh_us: &mut Vec<f64>,
    deadline: Instant,
) {
    while !pending.is_empty() {
        let epoch = replica.epoch();
        let now = Instant::now();
        pending.retain(|&(clock, acked_at)| {
            let applied = clock <= epoch;
            if applied {
                fresh_us.push((now - acked_at).as_nanos() as f64 / 1e3);
            }
            !applied
        });
        if now >= deadline {
            return;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// The churn reader's results.
#[derive(Default)]
struct OpenReads {
    windows: Option<Windows>,
    completed: u64,
    late_us: Vec<f64>,
    /// `(epoch answered, acknowledged clock when sent)` per read.
    epochs: Vec<(u64, u64)>,
    sent: u64,
    failed: u64,
    errors: Vec<String>,
    offered: u64,
    /// From the first due time to the last answer, seconds.
    elapsed_s: f64,
}

/// Sends the planned writes on schedule and follows each acknowledged
/// one to the replica while waiting for the next to be due.
fn churn_writer(
    conn: &mut Conn,
    writes: &[PlannedWrite],
    replica: &Replica,
    acked: &AtomicU64,
    start: Instant,
    seconds: f64,
    rate: f64,
) -> WriteLoop {
    let mut out = WriteLoop::default();
    let end = start + Duration::from_secs_f64(seconds);
    let mut pending = Vec::new();
    for (k, write) in writes.iter().enumerate() {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        if due >= end {
            break;
        }
        wait_until(due);
        out.late_us.push(due.elapsed().as_nanos() as f64 / 1e3);
        out.sent += 1;
        let ack = conn
            .round_trip(&write.frame)
            .map_err(|e| format!("write {k}: {e}"))
            .and_then(written);
        match ack {
            Ok((clock, id)) if id == write.expect_id && clock > out.last_clock => {
                let acked_at = Instant::now();
                out.latencies_us
                    .push((acked_at - due).as_nanos() as f64 / 1e3);
                out.last_clock = clock;
                acked.store(clock, Ordering::Release);
                out.lag_max = out.lag_max.max(clock.saturating_sub(replica.epoch()));
                pending.push((clock, acked_at));
                let next_due = start + Duration::from_secs_f64((k + 1) as f64 / rate);
                await_replica(replica, &mut pending, &mut out.fresh_us, next_due);
            }
            Ok((clock, id)) => {
                out.failed += 1;
                out.errors.push(format!(
                    "write {k}: acknowledged clock {clock} id {id:?}, expected id {:?} after clock {}",
                    write.expect_id, out.last_clock
                ));
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
                break;
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    await_replica(replica, &mut pending, &mut out.fresh_us, deadline);
    if !pending.is_empty() {
        out.failed += pending.len() as u64;
        out.errors.push(format!(
            "{} acknowledged writes never reached the replica",
            pending.len()
        ));
    }
    out
}

fn churn_reader(
    conn: &mut Conn,
    stream: &ReadStream,
    acked: &AtomicU64,
    start: Instant,
    seconds: f64,
    rate: f64,
) -> OpenReads {
    let mut out = OpenReads::default();
    let end = start + Duration::from_secs_f64(seconds);
    let capacity = (seconds * rate) as usize + 1;
    let mut windows = Windows::new(start, WINDOW_S, window_count(seconds));
    out.late_us.reserve(capacity);
    out.epochs.reserve(capacity);
    for j in 0usize.. {
        let due = start + Duration::from_secs_f64(j as f64 / rate);
        if due >= end {
            break;
        }
        out.offered += 1;
        wait_until(due);
        let floor = acked.load(Ordering::Acquire);
        out.late_us.push(due.elapsed().as_nanos() as f64 / 1e3);
        out.sent += 1;
        let index = stream.order[j % stream.order.len()] as usize;
        match conn.round_trip(stream.frames.get(index)) {
            Ok(payload) => {
                let latency = due.elapsed().as_nanos() as f64 / 1e3;
                match query_epoch(payload) {
                    Ok(epoch) => {
                        windows.record(due, latency);
                        out.completed += 1;
                        out.epochs.push((epoch, floor));
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.errors.push(e);
                    }
                }
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("read: {e}"));
                break;
            }
        }
    }
    out.windows = Some(windows);
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

fn run_churn(config: &RunConfig, outcome: &mut Outcome) -> Result<(), String> {
    let size = config.size;
    let nodes = node_count(size.write_graph);
    let mut rng = Rng::new(config.seed, 20);
    let stream = inputs::hot_stream(&mut rng, nodes, size.hot_requests, 1 << 18);
    let (public, restricted) = inputs::workflow_predicates();
    let write_count = (config.seconds * size.churn_write_rate).ceil() as usize + 1;
    let writes = inputs::churn_writes(
        &mut Rng::new(config.seed, 21),
        nodes,
        public,
        restricted,
        write_count,
    );
    let setups = if config.trace { 1 } else { size.write_setups };
    let (setup_times, mut deployment) = repeated_setup(setups, |k| {
        setup_churn(
            config,
            config.seed,
            &stream,
            &config.work_dir.join(format!("churn-{k}")),
        )
    })?;
    outcome.metric(
        "setup_s",
        median(setup_times.clone()),
        "s",
        setup_times.len() as u64,
    );
    if deployment.store.node_count() != nodes {
        return Err(format!(
            "graph has {} nodes, expected {nodes}",
            deployment.store.node_count()
        ));
    }
    let clock0 = deployment.store.clock();
    let replica = deployment.replica.as_ref().expect("churn has a replica");
    let epoch0 = replica.epoch();

    let before = layers::ServerSnapshot::take(&deployment.server, &deployment.service);
    let acked = AtomicU64::new(clock0);
    let (writer_conn, reader_conn) = match deployment.conns.as_mut_slice() {
        [w, r] => (w, r),
        _ => unreachable!("churn connects a writer and a reader"),
    };
    let start = Instant::now() + Duration::from_millis(5);
    let (w, r) = std::thread::scope(|s| {
        let acked = &acked;
        let writes = &writes;
        let stream = &stream;
        let wh = s.spawn(move || {
            churn_writer(
                writer_conn,
                writes,
                replica,
                acked,
                start,
                config.seconds,
                size.churn_write_rate,
            )
        });
        let rh = s.spawn(move || {
            churn_reader(
                reader_conn,
                stream,
                acked,
                start,
                config.seconds,
                CHURN_READ_RATE,
            )
        });
        (
            wh.join().expect("writer panicked"),
            rh.join().expect("reader panicked"),
        )
    });
    let elapsed = start.elapsed().as_secs_f64();
    let after = layers::ServerSnapshot::take(&deployment.server, &deployment.service);
    let replica_epoch_end = replica.epoch();
    record_rss(outcome);

    outcome.attempted += w.sent + r.sent;
    for e in w.errors.iter().chain(&r.errors).take(10) {
        outcome.failures.push(e.clone());
    }
    outcome.failed += w.failed + r.failed;
    let epoch_errors = check_epochs(&r.epochs);
    outcome.notes.push(format!(
        "check: {} reads checked for monotone epochs and read-after-acknowledged-write",
        r.epochs.len()
    ));
    for e in epoch_errors {
        outcome.fail(e);
    }
    if deployment.store.clock() != w.last_clock {
        outcome.fail(format!(
            "primary clock {} differs from the last acknowledged clock {}",
            deployment.store.clock(),
            w.last_clock
        ));
    }
    outcome.attempted += 1;
    match check_replica(replica, &deployment.store) {
        Ok(()) => outcome
            .notes
            .push("check: replica equals primary".to_string()),
        Err(e) => outcome.fail(e),
    }

    let mut summary = r.windows.as_ref().expect("reader ran").summary();
    let reads = r.completed;
    // Open loop: every window offers the same count, so the rate is the
    // achieved one over the whole phase (it falls when a backlog grows).
    summary.per_s = reads as f64 / r.elapsed_s;
    op_metrics(outcome, summary, "read", "queries/s");
    let p50 = summary.p50;
    let acked_writes = w.latencies_us.len() as u64;
    let mut write_lat = w.latencies_us;
    outcome.metric(
        "write_per_s",
        acked_writes as f64 / config.seconds,
        "writes/s",
        acked_writes,
    );
    outcome.metric(
        "write_p50_us",
        quantile(&mut write_lat, 0.5),
        "us",
        acked_writes,
    );
    outcome.metric("write_p99_us", p99(&mut write_lat), "us", acked_writes);
    let mut fresh = w.fresh_us;
    let fresh_n = fresh.len() as u64;
    outcome.metric("fresh_p50_us", quantile(&mut fresh, 0.5), "us", fresh_n);
    outcome.metric("fresh_p99_us", p99(&mut fresh), "us", fresh_n);
    let dir = deployment.dir.clone().expect("churn is durable");
    outcome.metric(
        "disk_bytes_per_write",
        dir_bytes(&dir) as f64 / acked_writes.max(1) as f64,
        "bytes",
        acked_writes,
    );

    if config.trace {
        let mut late = r.late_us;
        let offered = r.offered as f64 / config.seconds;
        // Lateness counts both the generator's own timing and waiting
        // behind an unanswered read on the one connection (a stall): its
        // median is the generator's punctuality, its p99 the stall.
        outcome.metric(
            "loadgen.late_p50_us",
            quantile(&mut late, 0.5),
            "us",
            r.sent,
        );
        outcome.metric(
            "loadgen.late_p99_us",
            quantile(&mut late, 0.99),
            "us",
            r.sent,
        );
        outcome.metric("loadgen.offered_per_s", offered, "1/s", r.offered);
        outcome.metric(
            "loadgen.achieved_per_s",
            reads as f64 / elapsed,
            "1/s",
            reads,
        );
        layers::server_layer(outcome, &before, &after, "query", p50, reads);
        layers::write_service(outcome, &before, &after);
        layers::service_layer(outcome, &before, &after, elapsed);
        outcome.metric("replica.lag_max", w.lag_max as f64, "writes", acked_writes);
        outcome.metric(
            "replica.apply_per_s",
            (replica_epoch_end - epoch0) as f64 / elapsed,
            "writes/s",
            replica_epoch_end - epoch0,
        );
        let mut tracer = crate::trace::Tracer::default();
        let base = inputs::base_store(size.write_graph, config.seed);
        layers::replay_setup(outcome, &mut tracer, base, &[&[]]);
        let public_consumer = consumer(&deployment.service, &[]);
        let mut counts = layers::QueryCounts::default();
        layers::replay_queries(
            &mut tracer,
            &deployment.service,
            &public_consumer,
            &stream,
            2_000,
            &mut counts,
        )?;
        layers::query_layers(outcome, &tracer, counts);
        let ops: Vec<_> = writes
            .iter()
            .take(acked_writes as usize)
            .map(|w| w.op.clone())
            .collect();
        let base = inputs::base_store(size.write_graph, config.seed);
        let grown =
            layers::replay_writes(&mut tracer, &base, &ops, &config.work_dir.join("replay"))?;
        layers::write_layers(outcome, &tracer, grown, ops.len());
        layers::write_trace(config, &tracer, outcome);
    }
    deployment.stop();
    Ok(())
}

/// One ingest writer's results.
#[derive(Default)]
struct IngestLoop {
    windows: Option<Windows>,
    acked: u64,
    fresh_us: Vec<f64>,
    sent: u64,
    failed: u64,
    errors: Vec<String>,
    max_clock: u64,
    lag_max: u64,
    ops: Vec<plus_store::WriteOp>,
}

/// Every `FRESH_STRIDE`-th acknowledged write is followed to the replica.
const FRESH_STRIDE: u64 = 4;

/// The replica's epoch is read after every `POLL_EVERY`-th node+edge
/// pair: reading it takes the replica store's lock, which its apply
/// thread holds through each fsync.
const POLL_EVERY: usize = 4;

fn ingest_writer(
    conn: &mut Conn,
    stream: &IngestStream,
    replica: &Replica,
    barrier: &Barrier,
    seconds: f64,
    keep_ops: usize,
) -> IngestLoop {
    let mut out = IngestLoop::default();
    // Acknowledged writes whose arrival at the replica is still awaited:
    // (clock, acknowledged at).
    let mut pending: Vec<(u64, Instant)> = Vec::new();
    barrier.wait();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    out.windows = Some(Windows::new(start, WINDOW_S, window_count(seconds)));
    let mut i = 0usize;
    let ack = |out: &mut IngestLoop,
               pending: &mut Vec<(u64, Instant)>,
               sent_at: Instant,
               result: Result<(u64, Option<plus_store::RecordId>), String>|
     -> Option<Option<plus_store::RecordId>> {
        match result {
            Ok((clock, id)) => {
                let now = Instant::now();
                if let Some(windows) = &mut out.windows {
                    windows.record(now, (now - sent_at).as_nanos() as f64 / 1e3);
                }
                out.acked += 1;
                out.max_clock = out.max_clock.max(clock);
                if out.sent.is_multiple_of(FRESH_STRIDE) {
                    pending.push((clock, now));
                }
                Some(id)
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
                None
            }
        }
    };
    let poll = |out: &mut IngestLoop, pending: &mut Vec<(u64, Instant)>| {
        if pending.is_empty() {
            return;
        }
        let epoch = replica.epoch();
        let now = Instant::now();
        out.lag_max = out.lag_max.max(out.max_clock.saturating_sub(epoch));
        pending.retain(|&(clock, acked_at)| {
            if clock <= epoch {
                out.fresh_us.push((now - acked_at).as_nanos() as f64 / 1e3);
                false
            } else {
                true
            }
        });
    };
    while Instant::now() < end {
        let k = i % stream.nodes.len();
        let sent_at = Instant::now();
        out.sent += 1;
        let result = conn
            .round_trip(stream.nodes.get(k))
            .map_err(|e| format!("append node: {e}"))
            .and_then(written);
        let Some(id) = ack(&mut out, &mut pending, sent_at, result) else {
            break;
        };
        let Some(id) = id else {
            out.failed += 1;
            out.errors
                .push("node append acknowledged without an id".to_string());
            break;
        };
        let (edge_op, frame) = inputs::ingest_edge(stream.edge_from[k], id);
        let sent_at = Instant::now();
        out.sent += 1;
        let result = conn
            .round_trip(&frame)
            .map_err(|e| format!("append edge: {e}"))
            .and_then(written);
        if ack(&mut out, &mut pending, sent_at, result).is_none() {
            break;
        }
        if out.ops.len() < keep_ops {
            out.ops.push(stream.node_ops[k].clone());
            out.ops.push(edge_op);
        }
        if i.is_multiple_of(POLL_EVERY) {
            poll(&mut out, &mut pending);
        }
        i += 1;
    }
    // Follow the last sampled writes to the replica (bounded wait).
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pending.is_empty() && Instant::now() < deadline {
        poll(&mut out, &mut pending);
        std::hint::spin_loop();
    }
    if !pending.is_empty() {
        out.failed += pending.len() as u64;
        out.errors.push(format!(
            "{} acknowledged writes never reached the replica",
            pending.len()
        ));
    }
    out
}

fn run_ingest(config: &RunConfig, outcome: &mut Outcome) -> Result<(), String> {
    let size = config.size;
    let nodes = node_count(size.write_graph);
    let (public, _) = inputs::workflow_predicates();
    let streams: Vec<IngestStream> = (0..2)
        .map(|w| {
            inputs::ingest_stream(
                &mut Rng::new(config.seed, 30 + w),
                w as usize,
                nodes,
                public,
                1 << 14,
            )
        })
        .collect();
    let setups = if config.trace { 1 } else { size.write_setups };
    let (setup_times, mut deployment) = repeated_setup(setups, |k| {
        setup_ingest(
            config,
            config.seed,
            &config.work_dir.join(format!("ingest-{k}")),
        )
    })?;
    outcome.metric(
        "setup_s",
        median(setup_times.clone()),
        "s",
        setup_times.len() as u64,
    );
    let epoch0 = deployment
        .replica
        .as_ref()
        .expect("ingest has a replica")
        .epoch();

    let before = layers::ServerSnapshot::take(&deployment.server, &deployment.service);
    let barrier = Barrier::new(2);
    let replica = deployment.replica.as_ref().expect("ingest has a replica");
    let keep_ops = if config.trace { 2_000 } else { 0 };
    let start = Instant::now();
    let loops: Vec<IngestLoop> = std::thread::scope(|s| {
        let handles: Vec<_> = deployment
            .conns
            .iter_mut()
            .zip(&streams)
            .map(|(conn, stream)| {
                let barrier = &barrier;
                s.spawn(move || {
                    ingest_writer(conn, stream, replica, barrier, config.seconds, keep_ops)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let after = layers::ServerSnapshot::take(&deployment.server, &deployment.service);
    let replica_epoch_end = replica.epoch();
    record_rss(outcome);

    let mut acked = 0;
    let mut fresh = Vec::new();
    let mut max_clock = 0;
    let mut lag_max = 0;
    for lp in &loops {
        outcome.attempted += lp.sent;
        outcome.failed += lp.failed;
        outcome.failures.extend(lp.errors.iter().take(5).cloned());
        acked += lp.acked;
        fresh.extend_from_slice(&lp.fresh_us);
        max_clock = max_clock.max(lp.max_clock);
        lag_max = lag_max.max(lp.lag_max);
    }
    let summary = Windows::merged(loops.iter().filter_map(|lp| lp.windows.as_ref()))
        .expect("two writers ran")
        .summary();
    op_metrics(outcome, summary, "write", "writes/s");
    let p50 = summary.p50;
    let fresh_n = fresh.len() as u64;
    outcome.metric("fresh_p50_us", quantile(&mut fresh, 0.5), "us", fresh_n);
    outcome.metric("fresh_p99_us", quantile(&mut fresh, 0.99), "us", fresh_n);
    if config.trace {
        layers::server_layer(outcome, &before, &after, "write", p50, acked);
        outcome.metric("replica.lag_max", lag_max as f64, "writes", fresh_n);
        outcome.metric(
            "replica.apply_per_s",
            (replica_epoch_end - epoch0) as f64 / elapsed,
            "writes/s",
            replica_epoch_end - epoch0,
        );
    }

    // Output checks: the replica converges to the primary byte for byte,
    // and the primary's directory recovers exactly the acknowledged clock.
    let primary_bytes = deployment.store.to_bytes();
    outcome.attempted += 1;
    if let Err(e) = check_replica(replica, &deployment.store) {
        outcome.fail(e);
    }
    if deployment.store.clock() != max_clock {
        outcome.fail(format!(
            "primary clock {} differs from the highest acknowledged clock {max_clock}",
            deployment.store.clock()
        ));
    }
    let dir = deployment.dir.clone().expect("ingest is durable");
    outcome.metric(
        "disk_bytes_per_write",
        dir_bytes(&dir) as f64 / acked.max(1) as f64,
        "bytes",
        acked,
    );
    deployment.stop();
    match check_recovery(&dir, max_clock, &primary_bytes) {
        Ok(()) => outcome.notes.push(format!(
            "check: replica equals primary; reopened primary recovers clock {max_clock}"
        )),
        Err(e) => outcome.fail(e),
    }

    if config.trace {
        let mut tracer = crate::trace::Tracer::default();
        let base = inputs::base_store(size.write_graph, config.seed);
        layers::replay_setup(outcome, &mut tracer, base, &[&[]]);
        let ops: Vec<_> = loops.iter().flat_map(|lp| lp.ops.iter().cloned()).collect();
        let base = inputs::base_store(size.write_graph, config.seed);
        let grown =
            layers::replay_writes(&mut tracer, &base, &ops, &config.work_dir.join("replay"))?;
        layers::write_layers(outcome, &tracer, grown, ops.len());
        layers::write_trace(config, &tracer, outcome);
    }
    Ok(())
}
