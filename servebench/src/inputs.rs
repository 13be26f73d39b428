//! Seeded input generation. Everything a workload sends — graphs,
//! request frames, request orders and write streams — is built here from
//! the workload seed before the clock starts, so the generator's RNG is
//! never timed and the program under test sees only these inputs.

use plus_store::wire::{encode_request, Request, WriteOp};
use plus_store::{
    codec::seal_frame, Direction, EdgeKind, NodeKind, PolicyStatement, QueryRequest, RecordId,
    Store, Strategy,
};
use surrogate_bench::experiments::fig10::{build_store, Fig10Config};
use surrogate_core::feature::Features;
use surrogate_core::marking::Marking;
use surrogate_core::privilege::PrivilegeId;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s = 1) ranks over `0..n`, by inverse-CDF lookup.
pub fn zipf_sequence(rng: &mut Rng, n: usize, len: usize) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for rank in 1..=n {
        total += 1.0 / rank as f64;
        cdf.push(total);
    }
    (0..len)
        .map(|_| {
            let u = rng.unit() * total;
            cdf.partition_point(|&c| c < u).min(n - 1) as u32
        })
        .collect()
}

/// Uniform indices over `0..n`.
pub fn uniform_sequence(rng: &mut Rng, n: usize, len: usize) -> Vec<u32> {
    (0..len).map(|_| rng.below(n) as u32).collect()
}

/// A workflow graph's size: `stages` process layers of `width`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Process layers.
    pub stages: usize,
    /// Artifacts per layer.
    pub width: usize,
}

/// The graph every workload starts from: a `graphgen` workflow with 15%
/// sensitive nodes, imported with its protection policy.
pub fn base_store(shape: Shape, seed: u64) -> Store {
    build_store(Fig10Config {
        stages: shape.stages,
        width: shape.width,
        sensitive_fraction: 0.15,
        iterations: 1,
        seed,
        simulated_db_roundtrip_us: None,
    })
}

/// The workflow lattice's `(Public, Restricted)` predicates, as the
/// store numbers them.
pub fn workflow_predicates() -> (PrivilegeId, PrivilegeId) {
    let store = base_store(
        Shape {
            stages: 1,
            width: 1,
        },
        0,
    );
    let id = |name| store.predicate(name).expect("workflow lattice declares it");
    (id("Public"), id("Restricted"))
}

/// Pre-sealed request frames (`len | crc32 | payload`, exactly the bytes
/// a client writes), stored flat.
#[derive(Debug, Default, Clone)]
pub struct FrameTable {
    bytes: Vec<u8>,
    offsets: Vec<usize>,
}

impl FrameTable {
    /// Seals and appends one request.
    pub fn push(&mut self, request: &Request) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        let payload = encode_request(request).expect("generated requests are encodable");
        self.bytes.extend_from_slice(&seal_frame(&payload));
        self.offsets.push(self.bytes.len());
    }

    /// The sealed frame at `i`.
    pub fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The payload (frame minus its 8-byte header) at `i`.
    pub fn payload(&self, i: usize) -> &[u8] {
        &self.get(i)[8..]
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the table holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The three built-in strategies, in paper order.
pub const STRATEGIES: [Strategy; 3] = [
    Strategy::Surrogate,
    Strategy::HideEdges,
    Strategy::HideNodes,
];

/// One connection's read load: the distinct requests it may send and the
/// order it sends them in (cycled when a run outlasts it).
#[derive(Debug, Clone)]
pub struct ReadStream {
    /// The request behind each frame, for replay and checking.
    pub requests: Vec<QueryRequest>,
    /// The same requests, sealed.
    pub frames: FrameTable,
    /// Indices into `frames`, in send order.
    pub order: Vec<u32>,
}

fn query_frames(requests: &[QueryRequest]) -> FrameTable {
    let mut frames = FrameTable::default();
    for request in requests {
        frames.push(&Request::Query(request.clone()));
    }
    frames
}

/// Hot reads: `fixed` requests drawn once over roots, both directions,
/// depth {1, 4} and all strategies, then sent in Zipf-skewed order.
pub fn hot_stream(rng: &mut Rng, nodes: usize, fixed: usize, len: usize) -> ReadStream {
    let requests: Vec<QueryRequest> = (0..fixed)
        .map(|_| {
            let root = RecordId(rng.below(nodes) as u32);
            let direction = if rng.below(2) == 0 {
                Direction::Backward
            } else {
                Direction::Forward
            };
            let depth = [1, 4][rng.below(2)];
            QueryRequest::new(root, direction, depth, STRATEGIES[rng.below(3)])
        })
        .collect();
    let frames = query_frames(&requests);
    let order = zipf_sequence(rng, fixed, len);
    ReadStream {
        requests,
        frames,
        order,
    }
}

/// Scan reads: every root × 2 directions × 3 strategies × depth
/// {1, 4, 16, unbounded}, sent in uniform random order.
pub fn scan_stream(rng: &mut Rng, nodes: usize, len: usize) -> ReadStream {
    let mut requests = Vec::with_capacity(nodes * 24);
    for root in 0..nodes {
        for direction in [Direction::Backward, Direction::Forward] {
            for strategy in STRATEGIES {
                for depth in [1, 4, 16, u32::MAX] {
                    requests.push(QueryRequest::new(
                        RecordId(root as u32),
                        direction,
                        depth,
                        strategy,
                    ));
                }
            }
        }
    }
    let frames = query_frames(&requests);
    let order = uniform_sequence(rng, requests.len(), len);
    ReadStream {
        requests,
        frames,
        order,
    }
}

/// One write of a pre-generated stream.
#[derive(Debug, Clone)]
pub struct PlannedWrite {
    /// The operation.
    pub op: WriteOp,
    /// Its sealed request frame.
    pub frame: Vec<u8>,
    /// The id the server must assign (node appends on an unsharded
    /// primary get the next dense id).
    pub expect_id: Option<RecordId>,
}

fn sealed_write(op: &WriteOp) -> Vec<u8> {
    let payload =
        encode_request(&Request::Write { op: op.clone() }).expect("generated writes are encodable");
    seal_frame(&payload)
}

/// The churn writer's stream, in cycles of 20 writes: a Restricted node
/// with its edge, the policy that surrogate-marks it for Public and
/// registers its surrogate (the 1-in-10 `ApplyPolicy` writes), then
/// eight Public nodes each with an edge from existing lineage.
pub fn churn_writes(
    rng: &mut Rng,
    base_nodes: usize,
    public: PrivilegeId,
    restricted: PrivilegeId,
    count: usize,
) -> Vec<PlannedWrite> {
    let mut out = Vec::with_capacity(count + 20);
    let mut next_id = base_nodes as u32;
    let push = |out: &mut Vec<PlannedWrite>, op: WriteOp, expect_id: Option<RecordId>| {
        out.push(PlannedWrite {
            frame: sealed_write(&op),
            op,
            expect_id,
        })
    };
    let mut cycle = 0u64;
    while out.len() < count {
        for slot in 0..9 {
            let id = RecordId(next_id);
            next_id += 1;
            let sensitive = slot == 0;
            push(
                &mut out,
                WriteOp::AppendNode {
                    label: format!("churn-{cycle}-{slot}"),
                    kind: NodeKind::Data,
                    features: Features::new().with("cycle", cycle as i64),
                    lowest: if sensitive { restricted } else { public },
                },
                Some(id),
            );
            let from = RecordId(rng.below(id.0 as usize) as u32);
            push(
                &mut out,
                WriteOp::AppendEdge {
                    from,
                    to: id,
                    kind: EdgeKind::InputTo,
                },
                None,
            );
            if sensitive {
                push(
                    &mut out,
                    WriteOp::ApplyPolicy(PolicyStatement::MarkNode {
                        node: id,
                        predicate: Some(public),
                        marking: Marking::Surrogate,
                    }),
                    None,
                );
                push(
                    &mut out,
                    WriteOp::ApplyPolicy(PolicyStatement::AddSurrogate {
                        node: id,
                        label: "redacted data".to_string(),
                        features: Features::new(),
                        lowest: public,
                        info_score: 0.1,
                    }),
                    None,
                );
            }
        }
        cycle += 1;
    }
    out.truncate(count);
    out
}

/// One ingest writer's pre-generated stream: node appends, each followed
/// by an edge from a base node. The edge's target is the id the server
/// assigns the node, so only its source is fixed here.
#[derive(Debug, Clone)]
pub struct IngestStream {
    /// Sealed `AppendNode` frames.
    pub nodes: FrameTable,
    /// The node appends themselves, for replay.
    pub node_ops: Vec<WriteOp>,
    /// Source of the edge that follows node `i`.
    pub edge_from: Vec<RecordId>,
}

/// `count` node appends for writer `writer`, edges drawn from the first
/// `base_nodes` records.
pub fn ingest_stream(
    rng: &mut Rng,
    writer: usize,
    base_nodes: usize,
    public: PrivilegeId,
    count: usize,
) -> IngestStream {
    let mut nodes = FrameTable::default();
    let mut node_ops = Vec::with_capacity(count);
    let mut edge_from = Vec::with_capacity(count);
    for i in 0..count {
        let op = WriteOp::AppendNode {
            label: format!("ingest-{writer}-{i}"),
            kind: NodeKind::Data,
            features: Features::new().with("seq", i as i64),
            lowest: public,
        };
        nodes.push(&Request::Write { op: op.clone() });
        node_ops.push(op);
        edge_from.push(RecordId(rng.below(base_nodes) as u32));
    }
    IngestStream {
        nodes,
        node_ops,
        edge_from,
    }
}

/// The sealed `AppendEdge` frame from `from` to the freshly assigned `to`.
pub fn ingest_edge(from: RecordId, to: RecordId) -> (WriteOp, Vec<u8>) {
    let op = WriteOp::AppendEdge {
        from,
        to,
        kind: EdgeKind::InputTo,
    };
    let frame = sealed_write(&op);
    (op, frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = hot_stream(&mut Rng::new(7, 1), 100, 64, 1000);
        let b = hot_stream(&mut Rng::new(7, 1), 100, 64, 1000);
        assert_eq!(a.order, b.order);
        assert_eq!(a.requests, b.requests);
        let c = hot_stream(&mut Rng::new(8, 1), 100, 64, 1000);
        assert_ne!(a.order, c.order);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let seq = zipf_sequence(&mut Rng::new(1, 0), 4096, 100_000);
        let top = seq.iter().filter(|&&r| r < 16).count();
        assert!(top > 30_000, "top-16 share {top}");
        assert!(seq.iter().all(|&r| r < 4096));
    }
}
