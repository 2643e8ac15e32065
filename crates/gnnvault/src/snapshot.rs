//! Sealed vault snapshots: a deterministic byte serialization of a
//! trained, deployed [`Vault`](crate::Vault).
//!
//! A snapshot captures everything a replica needs to answer queries
//! bit-identically to the source vault — backbone weights (and the
//! public substitute graph), rectifier weights, the tap-set wiring, the
//! vault's part of the private real graph, and the deployment's enclave
//! configuration (EPC budget, cost model, over-budget policy) — but
//! *not* the public feature corpus, which lives in the untrusted world
//! and is supplied at serving time.
//!
//! The payload is sealed with [`tee::Sealed`] under a key derived from
//! the deployment's [`SealKey`](tee::SealKey) (purpose
//! `"vault-snapshot"`), mirroring SGX sealing-for-migration: the bytes
//! can sit on untrusted storage or cross to another worker, and only a
//! holder of the deployment key can rehydrate them
//! ([`Vault::restore`](crate::Vault::restore)). Encoding is
//! deterministic — same vault, same bytes — and restoration preserves
//! the source vault's epoch, so replicas of one snapshot share a cache
//! identity: `(epoch, node)` keys mean the same answer on every
//! replica.
//!
//! There is one layout. Every vault holds partition `part` of `parts`
//! of the private graph: the nodes it owns, their closure (owned nodes
//! plus the halo the rectifier's receptive field reaches), and the
//! graph induced on the closure. A full deployment is partition 0 of 1
//! — it owns every node and its closure is the whole graph — so full
//! and partition replicas go through the same encoder and decoder, and
//! a 1-way partitioning of a vault seals exactly the bytes of
//! [`Vault::snapshot`](crate::Vault::snapshot). Little-endian, like
//! [`tee::codec`]:
//!
//! ```text
//! magic u64 ("GV_SNAP5") | precision u8 (0 f32, 1 int8)
//! epoch u64 | num_nodes u64 | part u64 | parts u64
//! epc_budget u64 | cost{transition,per_byte,page_swap,slowdown} u64×4
//! policy u8
//! backbone: tag u8 (0 GCN, 1 MLP)
//!   GCN: substitute kind (tag u8 + payload) | substitute graph | network
//!   MLP: network
//! rectifier: kind u8 | conv u8 | backbone_dims | channels | taps
//!   | per-layer params (count u64, matrices)
//! owned: id runs | closure: id runs
//! local graph: num_edges u64 | (u,v) u64 pairs in closure-local ids
//! degree deltas
//! ```
//!
//! where `num_nodes` is the global node count, `network` is `input_dim
//! u64 | layers u64 | per layer (in u64, out u64, weight matrix, bias
//! matrix)`, a matrix is `rows u64 | cols u64 | f32-LE data`, a list is
//! `len u64 | u64 items`, and a graph is `num_nodes u64 | num_edges u64
//! | (u,v) u64 pairs`.
//!
//! The graph-state tail stores only what the decoder cannot derive —
//! the delta idea of Bille et al.'s D²FA compression:
//!
//! - **Id runs.** An ascending id list is written as `count varint`
//!   then `(gap varint, len varint)` per run of consecutive ids, `gap`
//!   counted from the end of the previous run (`varint` is unsigned
//!   LEB128). A full vault's owned set and closure are one run each, as
//!   is a block partition's owned set.
//! - **Local graph.** Its node count is the closure's length.
//! - **Degree deltas.** Normalization needs each closure node's
//!   *full-graph* degree, which equals its local-graph degree except on
//!   the closure's rim. Only the rim is written: `count varint` then
//!   `(index gap varint, full − local varint)` per differing node, in
//!   ascending local-id order. A full vault writes none.
//!
//! At int8 precision ([`Precision::Int8`](crate::Precision)) every
//! projection weight is written in its quantized form — `out_dim u64 |
//! in_dim u64 | i8 codes | f32 per-channel scales` — while biases,
//! attention vectors, and graphs stay f32/exact. Codes and scales are
//! stored *verbatim* (never re-derived on restore), so replicas of an
//! int8 snapshot serve bit-identically to their source and re-snapshot
//! to identical bytes; the f32 network halves are rebuilt from the
//! dequantized weights.
//!
//! Decoding treats the payload as untrusted bytes: every failure is a
//! [`VaultError::Snapshot`], never a panic. Widths, list lengths and
//! edge counts are checked against the bytes and matrices that follow
//! them before anything is allocated from them. Id runs describe many
//! nodes in a few bytes, so node counts are instead cross-checked
//! against every field that implies them: the substitute graph, the
//! owned set of a 1-part layout, the runs and the edge endpoints.

use crate::backbone::QuantizedBackboneNet;
use crate::vault::{IdRuns, QuantizedModel, VaultPartition};
use crate::{Backbone, Rectifier, RectifierKind, SubstituteKind, VaultError};
use graph::Graph;
use linalg::{DenseMatrix, QuantizedMatrix};
use nn::{
    ConvKind, GcnNetwork, MlpNetwork, QuantizedConvLayer, QuantizedDenseLayer, QuantizedGatLayer,
    QuantizedGcnLayer, QuantizedGcnNetwork, QuantizedMlpNetwork, QuantizedSageLayer,
};
use tee::{CostModel, OverBudgetPolicy, Sealed};

/// Format marker at offset 0 of every snapshot payload.
const MAGIC: u64 = 0x4756_5F53_4E41_5035; // "GV_SNAP5"

/// Which partition a sealed snapshot carries — clear routing metadata
/// on a [`VaultSnapshot`], mirrored (and cross-checked) inside the
/// sealed payload. A full snapshot carries partition 0 of 1. Ownership
/// is a pure function of the node id, so exposing `part`/`parts`
/// reveals nothing about the private edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotPartition {
    part: usize,
    parts: usize,
}

impl SnapshotPartition {
    pub(crate) fn new(part: usize, parts: usize) -> Self {
        Self { part, parts }
    }

    /// This snapshot's partition index.
    pub fn part(&self) -> usize {
        self.part
    }

    /// Total number of partitions in the deployment (1 for a full
    /// snapshot).
    pub fn parts(&self) -> usize {
        self.parts
    }
}

/// A sealed, deployable image of a trained vault.
///
/// Produced by [`Vault::snapshot`](crate::Vault::snapshot); consumed by
/// [`Vault::restore`](crate::Vault::restore). The epoch, corpus size
/// and partition stamp are exposed in the clear (they are serving-layer
/// routing metadata, not secrets — the untrusted world already knows
/// them); everything else, including the private real graph and
/// rectifier weights, lives only inside the sealed payload.
///
/// # Examples
///
/// See [`Vault::snapshot`](crate::Vault::snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct VaultSnapshot {
    epoch: u64,
    num_nodes: usize,
    partition: SnapshotPartition,
    sealed: Sealed,
}

impl VaultSnapshot {
    /// Deployment epoch of the source vault. Restored replicas keep it,
    /// so caches keyed `(epoch, node)` stay coherent across replicas of
    /// the same snapshot and miss across different models.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes in the snapshotted deployment's real graph (and
    /// therefore the row count the serving corpus must have). For a
    /// per-partition snapshot this is still the *global* node count —
    /// the corpus is shared across partitions.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Which partition this snapshot carries: partition 0 of 1 for a
    /// full (replica) snapshot.
    pub fn partition(&self) -> SnapshotPartition {
        self.partition
    }

    /// Size of the sealed payload in bytes.
    pub fn sealed_nbytes(&self) -> usize {
        self.sealed.len()
    }

    /// Wraps an already-sealed payload (crate-internal; use
    /// [`Vault::snapshot`](crate::Vault::snapshot)).
    pub(crate) fn from_parts(
        epoch: u64,
        num_nodes: usize,
        partition: SnapshotPartition,
        sealed: Sealed,
    ) -> Self {
        Self {
            epoch,
            num_nodes,
            partition,
            sealed,
        }
    }

    /// The sealed payload (crate-internal; `Vault::restore` unseals it).
    pub(crate) fn sealed(&self) -> &Sealed {
        &self.sealed
    }
}

/// Everything [`Vault::restore`](crate::Vault::restore) needs to rebuild
/// a deployment from a decoded payload.
pub(crate) struct DecodedVault {
    pub epoch: u64,
    pub epc_budget: usize,
    pub cost: CostModel,
    pub policy: OverBudgetPolicy,
    pub backbone: Backbone,
    pub rectifier: Rectifier,
    /// `Some` for an int8 payload: the verbatim-restored quantized
    /// weights. The f32 `backbone`/`rectifier` then hold dequantized
    /// weights and exist for wiring, shapes, and precision switches.
    pub quantized: Option<QuantizedModel>,
    /// The graph induced on the closure, in closure-local ids.
    pub real_graph: Graph,
    pub partition: VaultPartition,
}

/// Shorthand for decode failures.
fn bad(reason: impl Into<String>) -> VaultError {
    VaultError::Snapshot {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------
// Byte writer / reader
// ---------------------------------------------------------------------

/// Append-only little-endian payload writer.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Self { buf: Vec::new() }
    }

    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Unsigned LEB128: seven bits per byte, high bit set on all but
    /// the last.
    fn put_varint(&mut self, mut v: usize) {
        while v >= 0x80 {
            self.put_u8(v as u8 | 0x80);
            v >>= 7;
        }
        self.put_u8(v as u8);
    }

    fn put_usizes(&mut self, vs: &[usize]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_usize(v);
        }
    }

    fn put_id_runs(&mut self, ids: &IdRuns) {
        self.put_varint(ids.runs().len());
        let mut next = 0;
        for run in ids.runs() {
            self.put_varint(run.start - next);
            self.put_varint(run.len());
            next = run.end;
        }
    }

    fn put_degree_deltas(&mut self, deltas: &[(usize, usize)]) {
        self.put_varint(deltas.len());
        let mut next = 0;
        for &(i, delta) in deltas {
            self.put_varint(i - next);
            self.put_varint(delta);
            next = i + 1;
        }
    }

    fn put_matrix(&mut self, m: &DenseMatrix) {
        self.put_usize(m.rows());
        self.put_usize(m.cols());
        for &v in m.as_slice() {
            self.put_f32(v);
        }
    }

    fn put_qmatrix(&mut self, q: &QuantizedMatrix) {
        self.put_usize(q.out_dim());
        self.put_usize(q.in_dim());
        for &c in q.data() {
            self.put_u8(c as u8);
        }
        for &s in q.scales() {
            self.put_f32(s);
        }
    }

    fn put_edges(&mut self, g: &Graph) {
        self.put_usize(g.num_edges());
        for &(u, v) in g.edges() {
            self.put_usize(u);
            self.put_usize(v);
        }
    }

    fn put_graph(&mut self, g: &Graph) {
        self.put_usize(g.num_nodes());
        self.put_edges(g);
    }
}

/// Bounds-checked little-endian payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], VaultError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| bad("payload truncated"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn finish(&self) -> Result<(), VaultError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }

    fn get_u8(&mut self) -> Result<u8, VaultError> {
        Ok(self.take(1)?[0])
    }

    fn get_u64(&mut self) -> Result<u64, VaultError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn get_usize(&mut self) -> Result<usize, VaultError> {
        usize::try_from(self.get_u64()?).map_err(|_| bad("length overflows usize"))
    }

    fn get_f32(&mut self) -> Result<f32, VaultError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn get_f64(&mut self) -> Result<f64, VaultError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn get_varint(&mut self) -> Result<usize, VaultError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8()?;
            let bits = u64::from(byte & 0x7f);
            if bits << shift >> shift != bits {
                return Err(bad("varint overflows u64"));
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return usize::try_from(value).map_err(|_| bad("varint overflows usize"));
            }
        }
        Err(bad("varint longer than ten bytes"))
    }

    fn get_usizes(&mut self) -> Result<Vec<usize>, VaultError> {
        let len = self.get_usize()?;
        // Cheap sanity bound: each element needs 8 payload bytes.
        if len > self.buf.len() / 8 + 1 {
            return Err(bad(format!("implausible list length {len}")));
        }
        (0..len).map(|_| self.get_usize()).collect()
    }

    /// Reads an id set whose runs must stay below `bound`.
    fn get_id_runs(&mut self, bound: usize, what: &str) -> Result<IdRuns, VaultError> {
        let count = self.get_varint()?;
        let mut ids = IdRuns::default();
        let mut next = 0usize;
        for _ in 0..count {
            let gap = self.get_varint()?;
            let len = self.get_varint()?;
            let end = next
                .checked_add(gap)
                .and_then(|start| start.checked_add(len))
                .filter(|&end| end <= bound)
                .ok_or_else(|| bad(format!("{what} runs past node {bound}")))?;
            ids.push(end - len..end);
            next = end;
        }
        Ok(ids)
    }

    /// Reads the degree deltas of a `closure_len`-node closure whose
    /// local graph has `num_edges` edges, in a `num_nodes`-node graph.
    fn get_degree_deltas(
        &mut self,
        closure_len: usize,
        num_edges: usize,
        num_nodes: usize,
    ) -> Result<Vec<(usize, usize)>, VaultError> {
        let count = self.get_varint()?;
        let mut deltas = Vec::new();
        let mut next = 0usize;
        for _ in 0..count {
            let i = next
                .checked_add(self.get_varint()?)
                .filter(|&i| i < closure_len)
                .ok_or_else(|| bad("degree delta indexes past the closure"))?;
            // A full-graph degree is below the node count, and a local
            // degree (at most the edge count) plus the delta must fit.
            let delta = self.get_varint()?;
            if delta >= num_nodes || delta.checked_add(num_edges).is_none() {
                return Err(bad(format!("degree delta {delta} out of range")));
            }
            deltas.push((i, delta));
            next = i + 1;
        }
        Ok(deltas)
    }

    /// Rejects a matrix dimension no payload this long can back. Each
    /// dimension is bounded on its own: a zero-width matrix holds no
    /// values, yet code that walks its rows still pays for them.
    fn check_dim(&self, dim: usize) -> Result<usize, VaultError> {
        if dim > self.buf.len() / 4 + 1 {
            return Err(bad(format!("implausible matrix dimension {dim}")));
        }
        Ok(dim)
    }

    fn get_matrix(&mut self) -> Result<DenseMatrix, VaultError> {
        let rows = self.get_usize().and_then(|d| self.check_dim(d))?;
        let cols = self.get_usize().and_then(|d| self.check_dim(d))?;
        let n = rows
            .checked_mul(cols)
            .filter(|&n| n <= self.buf.len() / 4 + 1)
            .ok_or_else(|| bad("implausible matrix dimensions"))?;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.get_f32()?);
        }
        DenseMatrix::from_vec(rows, cols, data).map_err(|e| bad(e.to_string()))
    }

    fn get_qmatrix(&mut self) -> Result<QuantizedMatrix, VaultError> {
        let out_dim = self.get_usize().and_then(|d| self.check_dim(d))?;
        let in_dim = self.get_usize().and_then(|d| self.check_dim(d))?;
        let n = out_dim
            .checked_mul(in_dim)
            .filter(|&n| n <= self.buf.len())
            .ok_or_else(|| bad("implausible quantized matrix dimensions"))?;
        let data: Vec<i8> = self.take(n)?.iter().map(|&b| b as i8).collect();
        let mut scales = Vec::with_capacity(out_dim);
        for _ in 0..out_dim {
            scales.push(self.get_f32()?);
        }
        QuantizedMatrix::from_parts(out_dim, in_dim, data, scales).map_err(|e| bad(e.to_string()))
    }

    /// Reads an edge list over `num_nodes` nodes (endpoints are checked
    /// by [`Graph::from_edges`], which allocates per edge, not per node).
    fn get_edges(&mut self, num_nodes: usize) -> Result<Graph, VaultError> {
        let num_edges = self.get_usize()?;
        if num_edges > self.buf.len() / 16 + 1 {
            return Err(bad(format!("implausible edge count {num_edges}")));
        }
        let mut pairs = Vec::with_capacity(num_edges);
        for _ in 0..num_edges {
            pairs.push((self.get_usize()?, self.get_usize()?));
        }
        Graph::from_edges(num_nodes, &pairs).map_err(|e| bad(e.to_string()))
    }

    fn get_graph(&mut self) -> Result<Graph, VaultError> {
        let num_nodes = self.get_usize()?;
        self.get_edges(num_nodes)
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Encodes one partition of a deployment — for a full vault, its
/// 0-of-1 partition — into the deterministic snapshot payload
/// (pre-sealing). `local_graph` is the graph induced on the partition's
/// closure. With `quantized`, projection weights are written as stored
/// codes + scales.
#[allow(clippy::too_many_arguments)] // flat encoder signature mirrors the payload layout
pub(crate) fn encode(
    epoch: u64,
    epc_budget: usize,
    cost: &CostModel,
    policy: OverBudgetPolicy,
    backbone: &Backbone,
    rectifier: &Rectifier,
    quantized: Option<&QuantizedModel>,
    partition: &VaultPartition,
    local_graph: &Graph,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(MAGIC);
    w.put_u8(u8::from(quantized.is_some()));
    w.put_u64(epoch);
    w.put_usize(partition.num_global_nodes);
    w.put_usize(partition.part);
    w.put_usize(partition.parts);
    encode_config(&mut w, epc_budget, cost, policy);
    encode_backbone(&mut w, backbone, quantized.map(|q| &q.backbone));
    encode_rectifier(&mut w, rectifier, quantized.map(|q| q.rectifier.as_slice()));
    w.put_id_runs(&partition.owned);
    w.put_id_runs(&partition.closure);
    w.put_edges(local_graph);
    w.put_degree_deltas(&partition.degree_deltas);
    w.buf
}

fn encode_config(w: &mut Writer, epc_budget: usize, cost: &CostModel, policy: OverBudgetPolicy) {
    w.put_usize(epc_budget);
    w.put_u64(cost.transition_ns);
    w.put_u64(cost.per_byte_ns);
    w.put_u64(cost.page_swap_ns);
    w.put_u64(cost.compute_slowdown_pct as u64);
    w.put_u8(match policy {
        OverBudgetPolicy::Swap => 0,
        OverBudgetPolicy::Fail => 1,
    });
}

fn encode_backbone(w: &mut Writer, backbone: &Backbone, quantized: Option<&QuantizedBackboneNet>) {
    // Each layer as (in, out, weight, bias); the two networks share the
    // layout after their tag.
    let (input_dim, layers): (usize, Vec<_>) = match backbone {
        Backbone::Gcn {
            network,
            substitute_graph,
            kind,
            ..
        } => {
            w.put_u8(0);
            encode_substitute_kind(w, kind);
            w.put_graph(substitute_graph);
            let layers = network.layers().iter();
            let layers = layers.map(|l| (l.in_dim(), l.out_dim(), l.weight(), l.bias()));
            (network.input_dim(), layers.collect())
        }
        Backbone::Mlp { network } => {
            w.put_u8(1);
            let layers = network.layers().iter();
            let layers = layers.map(|l| (l.in_dim(), l.out_dim(), l.weight(), l.bias()));
            (network.input_dim(), layers.collect())
        }
    };
    let qweights: Option<Vec<&QuantizedMatrix>> = quantized.map(|q| match q {
        QuantizedBackboneNet::Gcn(q) => q.layers().iter().map(|l| l.weight()).collect(),
        QuantizedBackboneNet::Mlp(q) => q.layers().iter().map(|l| l.weight()).collect(),
    });
    w.put_usize(input_dim);
    w.put_usize(layers.len());
    for (i, (in_dim, out_dim, weight, bias)) in layers.into_iter().enumerate() {
        w.put_usize(in_dim);
        w.put_usize(out_dim);
        match &qweights {
            Some(qs) => w.put_qmatrix(qs[i]),
            None => w.put_matrix(&weight.value),
        }
        w.put_matrix(&bias.value);
    }
}

fn encode_rectifier(
    w: &mut Writer,
    rectifier: &Rectifier,
    quantized: Option<&[QuantizedConvLayer]>,
) {
    w.put_u8(match rectifier.kind() {
        RectifierKind::Parallel => 0,
        RectifierKind::Cascaded => 1,
        RectifierKind::Series => 2,
    });
    w.put_u8(match rectifier.layers()[0].kind() {
        ConvKind::Gcn => 0,
        ConvKind::Sage => 1,
        ConvKind::Gat => 2,
    });
    w.put_usizes(rectifier.backbone_dims());
    w.put_usizes(&rectifier.channel_dims());
    w.put_usizes(&rectifier.tap_indices());
    for (i, layer) in rectifier.layers().iter().enumerate() {
        let params = layer.params();
        w.put_usize(params.len());
        match quantized {
            // Param 0 is the projection weight for every conv kind;
            // the rest (bias, attention vectors) stay f32.
            Some(qs) => {
                w.put_qmatrix(qs[i].weight());
                for p in &params[1..] {
                    w.put_matrix(&p.value);
                }
            }
            None => {
                for p in params {
                    w.put_matrix(&p.value);
                }
            }
        }
    }
}

fn encode_substitute_kind(w: &mut Writer, kind: &SubstituteKind) {
    match *kind {
        SubstituteKind::Dnn => w.put_u8(0),
        SubstituteKind::Knn { k } => {
            w.put_u8(1);
            w.put_usize(k);
        }
        SubstituteKind::CosineThreshold { tau } => {
            w.put_u8(2);
            w.put_f32(tau);
        }
        SubstituteKind::CosineBudget => w.put_u8(3),
        SubstituteKind::Random { ratio } => {
            w.put_u8(4);
            w.put_f64(ratio);
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Decodes a snapshot payload back into deployment parts, validating
/// every shape against the reconstructed architecture and every id
/// against the node count. Every failure is a [`VaultError::Snapshot`],
/// including one a network, layer or graph constructor reports.
pub(crate) fn decode(payload: &[u8]) -> Result<DecodedVault, VaultError> {
    decode_payload(payload).map_err(|e| match e {
        VaultError::Snapshot { .. } => e,
        other => bad(other.to_string()),
    })
}

fn decode_payload(payload: &[u8]) -> Result<DecodedVault, VaultError> {
    let mut r = Reader::new(payload);
    if r.get_u64()? != MAGIC {
        return Err(bad("bad magic: not a vault snapshot"));
    }
    let int8 = match r.get_u8()? {
        0 => false,
        1 => true,
        t => return Err(bad(format!("unknown precision tag {t}"))),
    };
    let epoch = r.get_u64()?;
    let num_nodes = r.get_usize()?;
    let part = r.get_usize()?;
    let parts = r.get_usize()?;
    if part >= parts {
        return Err(bad(format!("partition index {part} out of {parts}")));
    }
    let (epc_budget, cost, policy) = decode_config(&mut r)?;
    let (backbone, qnet) = decode_backbone(&mut r, num_nodes, int8)?;
    let (rectifier, qlayers) = decode_rectifier(&mut r, &backbone, int8)?;
    let owned = r.get_id_runs(num_nodes, "owned list")?;
    if parts == 1 && owned.len() != num_nodes {
        return Err(bad("a one-part layout must own every node"));
    }
    let closure = r.get_id_runs(num_nodes, "closure list")?;
    if !owned.ids().all(|id| closure.position(id).is_some()) {
        return Err(bad("owned node missing from the partition closure"));
    }
    let real_graph = r.get_edges(closure.len())?;
    let degree_deltas = r.get_degree_deltas(closure.len(), real_graph.num_edges(), num_nodes)?;
    r.finish()?;

    let quantized = match (qnet, qlayers) {
        (Some(backbone), Some(rectifier)) => Some(QuantizedModel {
            backbone,
            rectifier,
        }),
        _ => None,
    };
    Ok(DecodedVault {
        epoch,
        epc_budget,
        cost,
        policy,
        backbone,
        rectifier,
        quantized,
        real_graph,
        partition: VaultPartition {
            part,
            parts,
            num_global_nodes: num_nodes,
            owned,
            closure,
            degree_deltas,
        },
    })
}

fn decode_config(r: &mut Reader<'_>) -> Result<(usize, CostModel, OverBudgetPolicy), VaultError> {
    let epc_budget = r.get_usize()?;
    let cost = CostModel {
        transition_ns: r.get_u64()?,
        per_byte_ns: r.get_u64()?,
        page_swap_ns: r.get_u64()?,
        compute_slowdown_pct: u32::try_from(r.get_u64()?)
            .map_err(|_| bad("compute slowdown overflows u32"))?,
    };
    let policy = match r.get_u8()? {
        0 => OverBudgetPolicy::Swap,
        1 => OverBudgetPolicy::Fail,
        t => return Err(bad(format!("unknown over-budget policy tag {t}"))),
    };
    Ok((epc_budget, cost, policy))
}

/// Decodes the backbone; a GCN backbone's substitute graph must span
/// the deployment's `num_nodes` corpus rows.
fn decode_backbone(
    r: &mut Reader<'_>,
    num_nodes: usize,
    int8: bool,
) -> Result<(Backbone, Option<QuantizedBackboneNet>), VaultError> {
    Ok(match r.get_u8()? {
        0 => {
            let kind = decode_substitute_kind(r)?;
            let substitute_graph = r.get_graph()?;
            if substitute_graph.num_nodes() != num_nodes {
                return Err(bad(format!(
                    "substitute graph spans {} nodes for a {num_nodes}-node deployment",
                    substitute_graph.num_nodes()
                )));
            }
            let (input_dim, channels, weights, qweights) = decode_network_params(r, int8)?;
            let mut network = GcnNetwork::new(input_dim, &channels, 0)?;
            for (layer, (weight, bias)) in network.layers_mut().iter_mut().zip(weights) {
                restore_value(layer.weight_mut(), weight, "backbone weight")?;
                restore_value(layer.bias_mut(), bias, "backbone bias")?;
            }
            let qnet = match qweights {
                Some(qs) => {
                    let qlayers = qs
                        .into_iter()
                        .zip(network.layers())
                        .map(|(qw, layer)| {
                            QuantizedGcnLayer::from_parts(qw, layer.bias().value.clone())
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    Some(QuantizedBackboneNet::Gcn(QuantizedGcnNetwork::from_layers(
                        input_dim, qlayers,
                    )?))
                }
                None => None,
            };
            let substitute_adj = graph::normalization::gcn_normalize(&substitute_graph);
            (
                Backbone::Gcn {
                    network,
                    substitute_graph,
                    substitute_adj,
                    kind,
                },
                qnet,
            )
        }
        1 => {
            let (input_dim, channels, weights, qweights) = decode_network_params(r, int8)?;
            let mut network = MlpNetwork::new(input_dim, &channels, 0)?;
            for (layer, (weight, bias)) in network.layers_mut().iter_mut().zip(weights) {
                restore_value(layer.weight_mut(), weight, "backbone weight")?;
                restore_value(layer.bias_mut(), bias, "backbone bias")?;
            }
            let qnet = match qweights {
                Some(qs) => {
                    let qlayers = qs
                        .into_iter()
                        .zip(network.layers())
                        .map(|(qw, layer)| {
                            QuantizedDenseLayer::from_parts(qw, layer.bias().value.clone())
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    Some(QuantizedBackboneNet::Mlp(QuantizedMlpNetwork::from_layers(
                        input_dim, qlayers,
                    )?))
                }
                None => None,
            };
            (Backbone::Mlp { network }, qnet)
        }
        t => return Err(bad(format!("unknown backbone tag {t}"))),
    })
}

/// One rectifier layer's decoded parameters: the values in
/// `ConvLayer::params` order and, at int8, the stored weight codes
/// (whose dequantized form is `values[0]`).
type LayerParams = (Option<QuantizedMatrix>, Vec<DenseMatrix>);

fn decode_rectifier(
    r: &mut Reader<'_>,
    backbone: &Backbone,
    int8: bool,
) -> Result<(Rectifier, Option<Vec<QuantizedConvLayer>>), VaultError> {
    let kind = match r.get_u8()? {
        0 => RectifierKind::Parallel,
        1 => RectifierKind::Cascaded,
        2 => RectifierKind::Series,
        t => return Err(bad(format!("unknown rectifier kind tag {t}"))),
    };
    let conv = match r.get_u8()? {
        0 => ConvKind::Gcn,
        1 => ConvKind::Sage,
        2 => ConvKind::Gat,
        t => return Err(bad(format!("unknown convolution tag {t}"))),
    };
    let backbone_dims = r.get_usizes()?;
    if backbone_dims != backbone.channel_dims() {
        return Err(bad(
            "rectifier wiring disagrees with the decoded backbone's layer widths",
        ));
    }
    let channels = r.get_usizes()?;
    let taps = r.get_usizes()?;
    if channels.is_empty() || channels.contains(&0) {
        return Err(bad("rectifier layer widths must be positive"));
    }
    // Read every layer's parameters before the architecture allocates
    // from the declared widths, and trust each width only as far as the
    // weight read for its layer backs it.
    let mut layers: Vec<LayerParams> = Vec::new();
    for (i, &out_dim) in channels.iter().enumerate() {
        let count = r.get_usize()?;
        if count == 0 {
            return Err(bad("rectifier layer carries no parameters"));
        }
        let qweight = if int8 { Some(r.get_qmatrix()?) } else { None };
        let mut values = vec![match &qweight {
            Some(qw) => qw.dequantize(),
            None => r.get_matrix()?,
        }];
        while values.len() < count {
            values.push(r.get_matrix()?);
        }
        let in_dim = Rectifier::input_dim(kind, &channels, &backbone_dims, i);
        if in_dim
            .checked_mul(out_dim)
            .is_none_or(|n| n > values[0].len())
        {
            return Err(bad(format!(
                "rectifier layer {i} declares {in_dim}×{out_dim} but its weight holds {} values",
                values[0].len()
            )));
        }
        layers.push((qweight, values));
    }
    let mut rectifier = Rectifier::new_with_conv(kind, conv, &channels, &backbone_dims, 0)?;
    if rectifier.tap_indices() != taps {
        return Err(bad(
            "encoded tap-set disagrees with the reconstructed wiring",
        ));
    }
    let mut qlayers = int8.then(Vec::new);
    for (layer, (qweight, values)) in rectifier.layers_mut().iter_mut().zip(layers) {
        let mut params = layer.params_mut();
        if values.len() != params.len() {
            return Err(bad(format!(
                "rectifier layer has {} parameters, payload carries {}",
                params.len(),
                values.len()
            )));
        }
        if let (Some(qs), Some(qw)) = (&mut qlayers, qweight) {
            qs.push(quantized_conv(conv, qw, &values[1..])?);
        }
        for (p, value) in params.iter_mut().zip(values) {
            restore_value(p, value, "rectifier parameter")?;
        }
    }
    Ok((rectifier, qlayers))
}

/// Pairs a layer's stored weight codes with its f32 parameters after
/// the weight (bias, and for GAT the attention vectors first).
fn quantized_conv(
    conv: ConvKind,
    qw: QuantizedMatrix,
    rest: &[DenseMatrix],
) -> Result<QuantizedConvLayer, VaultError> {
    Ok(match (conv, rest) {
        (ConvKind::Gcn, [bias]) => {
            QuantizedConvLayer::Gcn(QuantizedGcnLayer::from_parts(qw, bias.clone())?)
        }
        (ConvKind::Sage, [bias]) => {
            QuantizedConvLayer::Sage(QuantizedSageLayer::from_parts(qw, bias.clone())?)
        }
        (ConvKind::Gat, [attn_src, attn_dst, bias]) => QuantizedConvLayer::Gat(
            QuantizedGatLayer::from_parts(qw, attn_src.clone(), attn_dst.clone(), bias.clone())?,
        ),
        _ => return Err(bad("rectifier layer parameters do not fit its convolution")),
    })
}

fn decode_substitute_kind(r: &mut Reader<'_>) -> Result<SubstituteKind, VaultError> {
    Ok(match r.get_u8()? {
        0 => SubstituteKind::Dnn,
        1 => SubstituteKind::Knn { k: r.get_usize()? },
        2 => SubstituteKind::CosineThreshold { tau: r.get_f32()? },
        3 => SubstituteKind::CosineBudget,
        4 => SubstituteKind::Random {
            ratio: r.get_f64()?,
        },
        t => return Err(bad(format!("unknown substitute kind tag {t}"))),
    })
}

/// Decodes one network's `input_dim`, per-layer output widths, and
/// per-layer `(weight, bias)` value matrices. For an int8 payload the
/// weight slot holds a quantized matrix: the returned f32 weight is its
/// dequantized form and the verbatim codes come back in the fourth
/// element. Every declared width is checked against the matrices read
/// for it, so the caller can allocate the network from them.
#[allow(clippy::type_complexity)]
fn decode_network_params(
    r: &mut Reader<'_>,
    int8: bool,
) -> Result<
    (
        usize,
        Vec<usize>,
        Vec<(DenseMatrix, DenseMatrix)>,
        Option<Vec<QuantizedMatrix>>,
    ),
    VaultError,
> {
    let input_dim = r.get_usize()?;
    let num_layers = r.get_usize()?;
    if num_layers > r.buf.len() / 8 + 1 {
        return Err(bad(format!("implausible layer count {num_layers}")));
    }
    let mut channels = Vec::with_capacity(num_layers);
    let mut weights = Vec::with_capacity(num_layers);
    let mut qweights = int8.then(Vec::new);
    let mut prev = input_dim;
    for _ in 0..num_layers {
        let in_dim = r.get_usize()?;
        let out_dim = r.get_usize()?;
        if in_dim != prev {
            return Err(bad(format!(
                "layer input width {in_dim} does not chain from previous width {prev}"
            )));
        }
        let weight = match &mut qweights {
            Some(qs) => {
                let qw = r.get_qmatrix()?;
                let weight = qw.dequantize();
                qs.push(qw);
                weight
            }
            None => r.get_matrix()?,
        };
        let bias = r.get_matrix()?;
        if weight.shape() != (in_dim, out_dim) || bias.shape() != (1, out_dim) {
            return Err(bad(format!(
                "layer declares {in_dim}×{out_dim} but carries a {:?} weight and a {:?} bias",
                weight.shape(),
                bias.shape()
            )));
        }
        channels.push(out_dim);
        weights.push((weight, bias));
        prev = out_dim;
    }
    Ok((input_dim, channels, weights, qweights))
}

/// Overwrites a freshly initialized parameter's value with a decoded
/// matrix, rejecting shape mismatches (gradient and optimizer moments
/// stay zeroed — they are training state, not deployment state).
fn restore_value(param: &mut nn::Param, value: DenseMatrix, what: &str) -> Result<(), VaultError> {
    if param.value.shape() != value.shape() {
        return Err(bad(format!(
            "{what} shape {:?} does not match architecture shape {:?}",
            value.shape(),
            param.value.shape()
        )));
    }
    param.value = value;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vault;
    use nn::TrainConfig;
    use proptest::prelude::*;
    use tee::{SealKey, TeeError};

    /// Deterministic pseudo-random feature matrix.
    fn features(n: usize, dim: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        DenseMatrix::from_fn(n, dim, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f32 / 500.0 - 1.0
        })
    }

    /// Deterministic pseudo-random graph over `n` nodes: every pair is
    /// an edge when its hash clears `density` per mille.
    fn random_graph(n: usize, density: u64, seed: u64) -> Graph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                let mut h = seed ^ ((u as u64) << 32) ^ v as u64;
                h ^= h << 13;
                h ^= h >> 7;
                h ^= h << 17;
                if h % 1000 < density {
                    edges.push((u, v));
                }
            }
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    /// Trains and deploys a small vault for round-trip testing.
    fn trained_vault(
        n: usize,
        kind: RectifierKind,
        conv: ConvKind,
        substitute: SubstituteKind,
        graph: &Graph,
        seed: u64,
        key: SealKey,
    ) -> (Vault, DenseMatrix) {
        let x = features(n, 3, seed);
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let train: Vec<usize> = (0..n).collect();
        let cfg = TrainConfig {
            epochs: 4,
            lr: 0.05,
            weight_decay: 0.0,
            dropout: 0.0,
            seed,
        };
        let backbone = crate::Backbone::train(
            &x,
            &labels,
            &train,
            substitute,
            &[4, 2],
            graph.num_edges(),
            &cfg,
            seed,
        )
        .unwrap();
        let mut rectifier =
            Rectifier::new_with_conv(kind, conv, &[4, 2], &backbone.channel_dims(), seed).unwrap();
        let real_adj = graph::normalization::gcn_normalize(graph);
        let embs = backbone.embeddings(&x).unwrap();
        rectifier
            .fit(&real_adj, &embs, &labels, &train, &cfg)
            .unwrap();
        let vault = Vault::deploy(
            backbone,
            rectifier,
            graph,
            tee::SGX_EPC_BYTES,
            tee::CostModel::default(),
            tee::OverBudgetPolicy::Fail,
            key,
        )
        .unwrap();
        (vault, x)
    }

    /// Round-trips a vault through snapshot/restore and asserts
    /// bit-identical labels and transition counts on both the
    /// full-graph and the batched inference paths.
    fn assert_roundtrip(mut vault: Vault, x: &DenseMatrix, key: SealKey) {
        let snapshot = vault.snapshot();
        assert_eq!(snapshot.epoch(), vault.epoch());
        assert_eq!(snapshot.num_nodes(), vault.num_nodes());
        assert!(snapshot.sealed_nbytes() > 0);
        // Encoding is deterministic: same vault, same sealed payload.
        assert_eq!(vault.snapshot(), snapshot);

        let mut restored = Vault::restore(&snapshot, key).unwrap();
        assert_eq!(restored.epoch(), vault.epoch(), "epoch is preserved");
        assert_eq!(restored.rectifier_kind(), vault.rectifier_kind());
        assert_eq!(
            restored.rectifier_param_count(),
            vault.rectifier_param_count()
        );

        let (labels, report) = vault.infer(x).unwrap();
        let (restored_labels, restored_report) = restored.infer(x).unwrap();
        assert_eq!(restored_labels, labels, "labels must be bit-identical");
        assert_eq!(
            restored_report.transitions, report.transitions,
            "transition counts must match"
        );
        assert_eq!(restored_report.transferred_bytes, report.transferred_bytes);

        let nodes: Vec<usize> = (0..x.rows()).collect();
        if !nodes.is_empty() {
            let mut s0 = vault.open_session();
            let mut s1 = restored.open_session();
            let (batch_a, rep_a) = vault.infer_batch(&mut s0, x, &nodes).unwrap();
            let (batch_b, rep_b) = restored.infer_batch(&mut s1, x, &nodes).unwrap();
            assert_eq!(batch_a, batch_b, "batched labels must be bit-identical");
            assert_eq!(rep_a.transitions, rep_b.transitions);
        }

        // Wrong key: sealing rejects, nothing leaks.
        assert!(matches!(
            Vault::restore(&snapshot, SealKey(key.0 ^ 1)),
            Err(VaultError::Tee(TeeError::SealTampered))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn snapshot_roundtrip_is_bit_identical(
            n in 2usize..8,
            kind_idx in 0usize..3,
            density in 100u64..900,
            seed in 0u64..1000,
        ) {
            let kind = RectifierKind::ALL[kind_idx];
            let graph = random_graph(n, density, seed);
            let key = SealKey(seed as u128 + 11);
            let (vault, x) = trained_vault(
                n, kind, ConvKind::Gcn, SubstituteKind::Knn { k: 1 }, &graph, seed, key,
            );
            assert_roundtrip(vault, &x, key);
        }
    }

    #[test]
    fn snapshot_roundtrip_edge_cases() {
        // Single-node graph with no edges (MLP backbone: a 1-node KNN
        // graph has no neighbours to connect).
        let single = Graph::from_edges(1, &[]).unwrap();
        let key = SealKey(5);
        let (vault, x) = trained_vault(
            1,
            RectifierKind::Series,
            ConvKind::Gcn,
            SubstituteKind::Dnn,
            &single,
            3,
            key,
        );
        assert_roundtrip(vault, &x, key);

        // Edge-free ("empty") graph with several nodes, empty random
        // substitute — exercises zero-edge encode/decode on both the
        // substitute and the real graph.
        let empty = Graph::from_edges(4, &[]).unwrap();
        let (vault, x) = trained_vault(
            4,
            RectifierKind::Cascaded,
            ConvKind::Gcn,
            SubstituteKind::Random { ratio: 0.0 },
            &empty,
            4,
            key,
        );
        assert_roundtrip(vault, &x, key);
    }

    #[test]
    fn snapshot_roundtrips_sage_and_gat_rectifiers() {
        for conv in [ConvKind::Sage, ConvKind::Gat] {
            let graph = random_graph(6, 500, 7);
            let key = SealKey(21);
            let (vault, x) = trained_vault(
                6,
                RectifierKind::Series,
                conv,
                SubstituteKind::Knn { k: 2 },
                &graph,
                9,
                key,
            );
            assert_roundtrip(vault, &x, key);
        }
    }

    #[test]
    fn corrupted_payload_and_garbage_are_rejected() {
        let graph = random_graph(5, 600, 1);
        let key = SealKey(77);
        let (vault, _) = trained_vault(
            5,
            RectifierKind::Parallel,
            ConvKind::Gcn,
            SubstituteKind::Knn { k: 1 },
            &graph,
            2,
            key,
        );
        let snapshot = vault.snapshot();

        // Metadata that disagrees with the sealed payload is caught.
        let forged = VaultSnapshot::from_parts(
            snapshot.epoch() + 1,
            snapshot.num_nodes(),
            snapshot.partition(),
            snapshot.sealed().clone(),
        );
        assert!(matches!(
            Vault::restore(&forged, key),
            Err(VaultError::Snapshot { .. })
        ));

        // A sealed blob that is not a snapshot payload fails to decode
        // (bad magic), not panic.
        let garbage = VaultSnapshot::from_parts(
            snapshot.epoch(),
            snapshot.num_nodes(),
            snapshot.partition(),
            Sealed::seal(key.derive("vault-snapshot"), &[1, 2, 3, 4, 5, 6, 7, 8, 9]),
        );
        assert!(matches!(
            Vault::restore(&garbage, key),
            Err(VaultError::Snapshot { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn partition_snapshot_roundtrip_answers_owned_nodes_bit_identically(
            n in 4usize..10,
            kind_idx in 0usize..3,
            density in 100u64..700,
            seed in 0u64..1000,
            nparts in 2usize..5,
        ) {
            use graph::partition::PartitionSpec;
            let kind = RectifierKind::ALL[kind_idx];
            let graph = random_graph(n, density, seed);
            let key = SealKey(seed as u128 + 29);
            let (mut vault, x) = trained_vault(
                n, kind, ConvKind::Gcn, SubstituteKind::Knn { k: 1 }, &graph, seed, key,
            );
            let (full_labels, _) = vault.infer(&x).unwrap();
            let spec = PartitionSpec::block(n, nparts).unwrap();
            let snaps = vault.partition_snapshots(&spec).unwrap();
            prop_assert_eq!(snaps.len(), nparts);
            for (part, snap) in snaps.iter().enumerate() {
                prop_assert_eq!(snap.epoch(), vault.epoch());
                prop_assert_eq!(snap.num_nodes(), n, "partition snapshots report the global count");
                let stamp = snap.partition();
                prop_assert_eq!(stamp.part(), part);
                prop_assert_eq!(stamp.parts(), nparts);

                let mut partial = Vault::restore(snap, key).unwrap();
                prop_assert_eq!(partial.epoch(), vault.epoch());
                prop_assert_eq!(partial.num_nodes(), n);
                prop_assert_eq!(partial.partition_info(), (part, nparts));
                // A partition replica re-seals its own image byte for byte.
                prop_assert_eq!(&partial.snapshot(), snap);
                let owned: Vec<usize> = partial.owned_nodes().to_vec();
                prop_assert!(owned.iter().all(|&o| spec.owner_of(o) == part));

                // Owned nodes answer bit-identically to the full vault,
                // through both the batched and the per-node path.
                if !owned.is_empty() {
                    let mut session = partial.open_session();
                    let (labels, _) = partial.infer_batch(&mut session, &x, &owned).unwrap();
                    for (label, &o) in labels.iter().zip(&owned) {
                        prop_assert_eq!(*label, full_labels[o]);
                    }
                    let (single, _) = partial.infer_node(&x, owned[0]).unwrap();
                    prop_assert_eq!(single, full_labels[owned[0]]);
                }

                // Non-owned nodes fail with the typed routing error on
                // both paths — never a silently wrong label.
                if let Some(alien) = (0..n).find(|&m| spec.owner_of(m) != part) {
                    let mut session = partial.open_session();
                    prop_assert!(matches!(
                        partial.infer_batch(&mut session, &x, &[alien]),
                        Err(VaultError::NotOwned { node, part: p, parts })
                            if node == alien && p == part && parts == nparts
                    ));
                    prop_assert!(matches!(
                        partial.infer_node(&x, alien),
                        Err(VaultError::NotOwned { .. })
                    ));
                }

                // Full-graph inference is refused outright on a partial
                // vault (no partition holds every node).
                prop_assert!(matches!(
                    partial.infer(&x),
                    Err(VaultError::InvalidConfig { .. })
                ));

                // Wrong key: sealing rejects, nothing leaks.
                prop_assert!(matches!(
                    Vault::restore(snap, SealKey(key.0 ^ 5)),
                    Err(VaultError::Tee(TeeError::SealTampered))
                ));
            }
        }
    }

    #[test]
    fn partition_snapshot_rejects_forged_stamps() {
        use graph::partition::PartitionSpec;
        let graph = random_graph(6, 500, 11);
        let key = SealKey(13);
        let (vault, _) = trained_vault(
            6,
            RectifierKind::Series,
            ConvKind::Gcn,
            SubstituteKind::Knn { k: 1 },
            &graph,
            6,
            key,
        );
        let spec = PartitionSpec::block(6, 2).unwrap();
        let snap = vault.partition_snapshots(&spec).unwrap().swap_remove(0);
        let stamp = snap.partition();

        // Clear-metadata stamp disagreeing with the sealed payload is
        // caught: wrong part index, wrong epoch, and a stamp claiming
        // the payload is a full snapshot (or vice versa).
        let forged_part = VaultSnapshot::from_parts(
            snap.epoch(),
            snap.num_nodes(),
            SnapshotPartition::new(1, stamp.parts()),
            snap.sealed().clone(),
        );
        assert!(matches!(
            Vault::restore(&forged_part, key),
            Err(VaultError::Snapshot { .. })
        ));
        let forged_epoch = VaultSnapshot::from_parts(
            snap.epoch() + 1,
            snap.num_nodes(),
            SnapshotPartition::new(stamp.part(), stamp.parts()),
            snap.sealed().clone(),
        );
        assert!(matches!(
            Vault::restore(&forged_epoch, key),
            Err(VaultError::Snapshot { .. })
        ));
        let as_full = VaultSnapshot::from_parts(
            snap.epoch(),
            snap.num_nodes(),
            SnapshotPartition::new(0, 1),
            snap.sealed().clone(),
        );
        assert!(matches!(
            Vault::restore(&as_full, key),
            Err(VaultError::Snapshot { .. })
        ));
        let full = vault.snapshot();
        let full_as_partition = VaultSnapshot::from_parts(
            full.epoch(),
            full.num_nodes(),
            SnapshotPartition::new(0, 2),
            full.sealed().clone(),
        );
        assert!(matches!(
            Vault::restore(&full_as_partition, key),
            Err(VaultError::Snapshot { .. })
        ));
    }

    #[test]
    fn int8_partition_snapshots_answer_owned_nodes_bit_identically() {
        use graph::partition::PartitionSpec;
        for conv in [ConvKind::Gcn, ConvKind::Sage, ConvKind::Gat] {
            let graph = random_graph(8, 500, 17);
            let key = SealKey(23);
            let (mut vault, x) = trained_vault(
                8,
                RectifierKind::Series,
                conv,
                SubstituteKind::Knn { k: 2 },
                &graph,
                5,
                key,
            );
            let spec = PartitionSpec::block(8, 2).unwrap();
            let f32_snaps = vault.partition_snapshots(&spec).unwrap();
            vault.set_precision(crate::Precision::Int8).unwrap();
            let (labels, _) = vault.infer(&x).unwrap();
            for (snap, f32_snap) in vault
                .partition_snapshots(&spec)
                .unwrap()
                .iter()
                .zip(&f32_snaps)
            {
                assert!(
                    snap.sealed_nbytes() < f32_snap.sealed_nbytes(),
                    "{conv:?}: an int8 partition seals less than its f32 form"
                );
                let mut partial = Vault::restore(snap, key).unwrap();
                assert_eq!(partial.precision(), crate::Precision::Int8);
                let owned = partial.owned_nodes().to_vec();
                if owned.is_empty() {
                    continue;
                }
                let mut session = partial.open_session();
                let (plabels, _) = partial.infer_batch(&mut session, &x, &owned).unwrap();
                for (label, &o) in plabels.iter().zip(&owned) {
                    assert_eq!(*label, labels[o], "{conv:?}: partition disagrees on {o}");
                }
                let (single, _) = partial.infer_node(&x, owned[0]).unwrap();
                assert_eq!(single, labels[owned[0]], "{conv:?}");
                // The partition re-seals its own image byte-identically.
                assert_eq!(&partial.snapshot(), snap, "{conv:?}");
            }
        }
    }

    #[test]
    fn partition_snapshots_beat_full_replicas_on_sparse_graphs() {
        use graph::partition::PartitionSpec;
        // A 96-node ring: block partitions have small halos (the L-hop
        // closure of a contiguous arc grows by 2L nodes, not to the
        // whole graph), so each shard seals a fraction of the edges.
        let n = 96;
        let ring: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let graph = Graph::from_edges(n, &ring).unwrap();
        let key = SealKey(31);
        let (mut vault, x) = trained_vault(
            n,
            RectifierKind::Series,
            ConvKind::Gcn,
            SubstituteKind::Knn { k: 1 },
            &graph,
            8,
            key,
        );
        let (full_labels, _) = vault.infer(&x).unwrap();
        let full = vault.snapshot();
        let spec = PartitionSpec::block(n, 4).unwrap();
        for (part, snap) in vault.partition_snapshots(&spec).unwrap().iter().enumerate() {
            assert!(
                snap.sealed_nbytes() < full.sealed_nbytes(),
                "partition {part} seals {} bytes, full replica {}",
                snap.sealed_nbytes(),
                full.sealed_nbytes()
            );
            // The partial vault's own recovery handle restores the same
            // partial deployment (the serving runtime's crash path).
            let partial = Vault::restore(snap, key).unwrap();
            let mut recovered = partial.recovery_handle().restore().unwrap();
            assert_eq!(recovered.partition_info(), (part, 4));
            let owned = partial.owned_nodes().to_vec();
            let mut session = recovered.open_session();
            let (labels, _) = recovered.infer_batch(&mut session, &x, &owned).unwrap();
            for (label, &o) in labels.iter().zip(&owned) {
                assert_eq!(*label, full_labels[o]);
            }
        }
    }

    #[test]
    fn a_full_vault_is_partition_zero_of_one() {
        use graph::partition::PartitionSpec;
        for (conv, substitute) in [
            (ConvKind::Gcn, SubstituteKind::Knn { k: 1 }),
            (ConvKind::Gat, SubstituteKind::Dnn),
        ] {
            let graph = random_graph(7, 400, 5);
            let key = SealKey(19);
            let (mut vault, x) =
                trained_vault(7, RectifierKind::Parallel, conv, substitute, &graph, 3, key);
            let one_way = PartitionSpec::block(7, 1).unwrap();
            for precision in crate::Precision::ALL {
                vault.set_precision(precision).unwrap();
                let full = vault.snapshot();
                assert_eq!(
                    vault.partition_snapshots(&one_way).unwrap()[0],
                    full,
                    "{conv:?} {precision:?}: a 1-way partitioning seals the full snapshot's bytes"
                );
                assert_eq!(full.partition(), SnapshotPartition::new(0, 1));
                let mut restored = Vault::restore(&full, key).unwrap();
                assert_eq!(restored.partition_info(), (0, 1));
                assert_eq!(restored.owned_nodes(), &[0, 1, 2, 3, 4, 5, 6]);
                assert_eq!(restored.infer(&x).unwrap().0, vault.infer(&x).unwrap().0);
            }
        }
    }

    /// Unsealed payloads of every layout: f32 and int8, full vault and
    /// both halves of a 2-way partitioning, over a GCN backbone with a
    /// GAT rectifier and an MLP backbone with a SAGE rectifier.
    fn valid_payloads() -> &'static [Vec<u8>] {
        use graph::partition::PartitionSpec;
        static PAYLOADS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
        PAYLOADS.get_or_init(|| {
            let key = SealKey(43);
            let graph = random_graph(6, 500, 23);
            let spec = PartitionSpec::block(6, 2).unwrap();
            let mut out = Vec::new();
            for (kind, conv, substitute) in [
                (
                    RectifierKind::Cascaded,
                    ConvKind::Gat,
                    SubstituteKind::Knn { k: 1 },
                ),
                (RectifierKind::Series, ConvKind::Sage, SubstituteKind::Dnn),
            ] {
                let (mut vault, _) = trained_vault(6, kind, conv, substitute, &graph, 8, key);
                for precision in crate::Precision::ALL {
                    vault.set_precision(precision).unwrap();
                    let snaps = std::iter::once(vault.snapshot())
                        .chain(vault.partition_snapshots(&spec).unwrap());
                    for snap in snaps {
                        let payload = snap.sealed().unseal(key.derive("vault-snapshot"));
                        out.push(payload.unwrap().to_vec());
                    }
                }
            }
            out
        })
    }

    /// Decodes untrusted bytes: a payload either decodes or fails with
    /// a typed snapshot error. A panic fails the calling test.
    fn decodes(bytes: &[u8]) -> bool {
        match decode(bytes) {
            Ok(_) => true,
            Err(VaultError::Snapshot { .. }) => false,
            Err(e) => panic!("decode failed with a non-snapshot error: {e:?}"),
        }
    }

    #[test]
    fn decode_fails_typed_on_every_prefix_flip_and_inflated_field() {
        for payload in valid_payloads() {
            assert!(decodes(payload));
            for len in 0..payload.len() {
                assert!(!decodes(&payload[..len]), "a {len}-byte prefix decoded");
            }
            for i in 0..payload.len() {
                for mask in [0x01, 0x80, 0xFF] {
                    let mut flipped = payload.clone();
                    flipped[i] ^= mask;
                    decodes(&flipped);
                }
                // A u64 length or width field blown up in place, and a
                // varint one spliced in.
                for big in [1u64 << 33, 1 << 62, u64::MAX] {
                    if i + 8 <= payload.len() {
                        let mut inflated = payload.clone();
                        inflated[i..i + 8].copy_from_slice(&big.to_le_bytes());
                        decodes(&inflated);
                    }
                }
                let mut spliced = payload.clone();
                spliced.splice(i..i, [0x80, 0x80, 0x80, 0x80, 0x20]);
                decodes(&spliced);
            }
        }
    }

    proptest! {
        #[test]
        fn decode_fails_typed_on_random_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
            which in any::<usize>(),
            cut in any::<usize>(),
        ) {
            decodes(&bytes);
            // Random bytes after a valid prefix get past the magic.
            let payloads = valid_payloads();
            let payload = &payloads[which % payloads.len()];
            let mut tail = payload[..cut % payload.len()].to_vec();
            tail.extend_from_slice(&bytes);
            decodes(&tail);
        }
    }
}
