use crate::backbone::QuantizedBackboneNet;
use crate::{snapshot, Backbone, Rectifier, VaultError, VaultSnapshot};
use graph::partition::PartitionSpec;
use graph::{normalization, Graph};
use linalg::DenseMatrix;
use nn::QuantizedConvLayer;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tee::{
    codec, AllocationId, ClassLabel, CostModel, EnclaveSession, EnclaveSim, Meter,
    OverBudgetPolicy, Phase, SealKey, Sealed, SessionId,
};

/// Process-wide deployment counter behind [`Vault::epoch`]: every
/// deployment in this process gets a distinct epoch, so in-memory
/// caches keyed by epoch can never mix answers from two deployments.
/// The counter restarts with the process — a cache that outlives the
/// process (disk, remote) must add its own boot-unique component.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Per-inference report: the Fig. 6 measurables.
///
/// Time fields mix two clocks, and say which: measured wall-clock time
/// of the Rust kernels, and time simulated by the enclave's
/// [`tee::CostModel`] for what the simulator cannot measure (ECALLs,
/// marshalling, the in-enclave slowdown, EPC paging).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceReport {
    /// Backbone forward in the untrusted world: wall-clock only. Zero
    /// when the batch was answered from enclave-resident taps.
    pub backbone_ns: u64,
    /// World crossings: `CostModel` time only — one transition per
    /// ECALL plus per-byte marshalling of the shipped taps.
    pub transfer_ns: u64,
    /// Enclave side (closure, restricted operands, rectifier, argmax):
    /// wall-clock plus the `CostModel` slowdown surcharge on it, plus
    /// `CostModel` page-swap time for allocations past the EPC budget.
    pub rectifier_ns: u64,
    /// Tap bytes moved across the boundary by this call.
    pub transferred_bytes: usize,
    /// ECALL count for this call.
    pub transitions: u64,
    /// Peak enclave memory over the deployment lifetime so far.
    pub peak_enclave_bytes: usize,
}

impl InferenceReport {
    /// Total inference time (all phases).
    pub fn total_ns(&self) -> u64 {
        self.backbone_ns + self.transfer_ns + self.rectifier_ns
    }
}

/// Numeric precision of a vault's serving path
/// ([`Vault::set_precision`]).
///
/// `Int8` swaps every projection GEMM (backbone and rectifier) for a
/// per-output-channel int8 weight kernel with i32 accumulation and an
/// f32 dequantizing epilogue; aggregation, attention, softmax, bias,
/// and ReLU stay f32 and run the identical code. Training always
/// happens at `F32` — int8 is a serving-time transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Precision {
    /// Full-precision f32 weights (the precision models train at).
    #[default]
    F32,
    /// Per-channel int8 projection weights, f32 everything else.
    Int8,
}

impl Precision {
    /// Both precisions, for test and bench matrices.
    pub const ALL: [Precision; 2] = [Precision::F32, Precision::Int8];

    /// Stable lowercase name (`"f32"` / `"int8"`) for reports and
    /// bench ids.
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

/// The int8 mirror of a deployment's weights: built once by
/// [`Vault::set_precision`] (or decoded from an int8 snapshot) and
/// stored, so repeated inference and re-snapshotting reuse one
/// deterministic quantization instead of re-deriving scales — which
/// keeps replicas of an int8 snapshot bit-identical to their source.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuantizedModel {
    /// Quantized backbone network (runs against the f32 backbone's
    /// substitute adjacency).
    pub(crate) backbone: QuantizedBackboneNet,
    /// Quantized rectifier stack, aligned 1:1 with the f32 layers.
    pub(crate) rectifier: Vec<QuantizedConvLayer>,
}

impl QuantizedModel {
    /// Heap bytes of the quantized rectifier parameters — the resident
    /// enclave footprint that replaces the f32 parameter allocation.
    pub(crate) fn rectifier_nbytes(&self) -> usize {
        self.rectifier.iter().map(QuantizedConvLayer::nbytes).sum()
    }
}

/// A deployed GNNVault instance (§IV-E): the public backbone plus
/// substitute graph in the untrusted world, and the rectifier plus the
/// real graph (COO + precomputed degrees) sealed inside a simulated SGX
/// enclave.
///
/// Every query runs one split pipeline: backbone in the normal world,
/// tap embeddings marshalled one-way into the enclave, rectifier inside
/// over the queried nodes' L-hop closure in the real graph (found
/// *inside the enclave* — the private neighbourhood never leaves), and
/// *label-only* output ([`ClassLabel`]) — logits never leave.
/// [`Vault::infer_batch`] is that pipeline for a batch of node queries
/// through a reusable [`EnclaveSession`]; [`Vault::infer`] (every node)
/// and [`Vault::infer_node`] (the threat model's "query the GNN model
/// with any chosen node") are thin wrappers over it. The `serve` crate
/// builds its admission queue, caching, and scheduling on top.
///
/// A serving corpus bound with [`Vault::bind_features`] makes the taps
/// *epoch-resident*: the first batch over it ships the full tap set
/// once and the enclave keeps it; later batches run no backbone, ship
/// no taps, and cost one ECALL.
///
/// # Examples
///
/// See [`crate::pipeline`] for end-to-end construction; the integration
/// tests in `tests/` exercise `Vault` directly.
#[derive(Debug)]
pub struct Vault {
    backbone: Backbone,
    epoch: u64,
    next_session: u64,
    epc_budget: usize,
    policy: OverBudgetPolicy,
    /// Which part of the private graph this vault holds: `real_graph`
    /// is the graph induced on its closure, and queries are answerable
    /// only for owned nodes. A full deployment is partition 0 of 1.
    partition: VaultPartition,
    // --- enclave-private state (never exposed by any accessor) ---
    rectifier: Rectifier,
    /// `Some` when serving int8: the quantized weight mirror.
    quantized: Option<QuantizedModel>,
    /// Ledger entry for the resident rectifier parameters, retained so
    /// [`Vault::set_precision`] can re-account it at the new size.
    rectifier_params_alloc: AllocationId,
    real_graph: Graph,
    real_adj: linalg::CsrMatrix,
    enclave: EnclaveSim,
    sealed_artifacts: Vec<(String, Sealed)>,
    seal_key: SealKey,
    /// The serving corpus bound by [`Vault::bind_features`]. Public
    /// data; holding the `Arc` keeps it immutable and its address
    /// unique, which is what makes pointer identity a sound cache key.
    corpus: Option<Arc<DenseMatrix>>,
    /// Taps made resident for `corpus` by its first batch.
    resident: Option<ResidentTaps>,
}

/// Tap embeddings kept inside the enclave for the bound corpus, in the
/// backbone's slot layout: tap slots hold their decoded rows (only the
/// closure's rows on a partition replica), other slots — which no
/// wiring rule reads — are zero-row placeholders.
#[derive(Debug)]
struct ResidentTaps {
    slots: Vec<DenseMatrix>,
    alloc: AllocationId,
}

/// Ownership maps of a vault: partition `part` of `parts`. A full
/// deployment is partition 0 of 1, owning every node, with the whole
/// graph as its closure. `part`/`parts` are public routing metadata;
/// the closure (whose halo reveals cross-partition adjacency) stays
/// enclave-private like the rest of the graph state.
///
/// Id sets are kept as runs and degrees only where they differ from
/// the local graph's, so a full vault stores nothing per node. (A
/// restored vault's long-lived per-node buffers land among the serving
/// thread's freed scratch and keep the allocator from handing that
/// memory back to the OS.)
#[derive(Debug, Clone)]
pub(crate) struct VaultPartition {
    pub(crate) part: usize,
    pub(crate) parts: usize,
    pub(crate) num_global_nodes: usize,
    /// Global ids owned by this partition.
    pub(crate) owned: IdRuns,
    /// Global ids of the closure (`owned ∪ halo`); an id's position in
    /// the set is its local id in `real_graph`.
    pub(crate) closure: IdRuns,
    /// `(local id, full-graph degree − local degree)` wherever the two
    /// differ (the closure's rim), by ascending local id. The full-graph
    /// degrees make local normalization bit-identical to the full graph.
    pub(crate) degree_deltas: Vec<(usize, usize)>,
}

impl VaultPartition {
    /// Partition 0 of 1 over an `n`-node graph: every node owned, the
    /// whole graph its closure.
    fn whole(n: usize) -> Self {
        let mut all = IdRuns::default();
        all.push(0..n);
        Self {
            part: 0,
            parts: 1,
            num_global_nodes: n,
            owned: all.clone(),
            closure: all,
            degree_deltas: Vec::new(),
        }
    }

    /// The maps of one extracted partition of a `num_global_nodes`-node
    /// graph.
    fn of(gp: &graph::partition::GraphPartition, num_global_nodes: usize) -> Self {
        let degree_deltas = gp
            .graph()
            .degrees()
            .into_iter()
            .zip(gp.original_degrees())
            .enumerate()
            .filter(|&(_, (local, &full))| local != full)
            .map(|(i, (local, &full))| (i, full - local))
            .collect();
        Self {
            part: gp.part(),
            parts: gp.num_parts(),
            num_global_nodes,
            owned: IdRuns::from_ids(gp.owned()),
            closure: IdRuns::from_ids(gp.local_ids()),
            degree_deltas,
        }
    }

    /// Full-graph degree of every closure node, given the graph induced
    /// on the closure.
    fn degrees(&self, local_graph: &Graph) -> Vec<usize> {
        let mut degrees = local_graph.degrees();
        for &(i, delta) in &self.degree_deltas {
            degrees[i] += delta;
        }
        degrees
    }
}

/// An ascending set of node ids stored as runs of consecutive ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct IdRuns {
    runs: Vec<Range<usize>>,
    /// `offsets[i]`: how many ids precede run `i`.
    offsets: Vec<usize>,
    len: usize,
}

impl IdRuns {
    /// The set of a strictly ascending id list.
    pub(crate) fn from_ids(ids: &[usize]) -> Self {
        let mut set = Self::default();
        for &id in ids {
            set.push(id..id + 1);
        }
        set
    }

    /// Adds `run`, which must lie above every id already in the set; a
    /// run adjoining the last one extends it.
    pub(crate) fn push(&mut self, run: Range<usize>) {
        match self.runs.last_mut() {
            _ if run.is_empty() => return,
            Some(last) if last.end == run.start => last.end = run.end,
            _ => {
                self.offsets.push(self.len);
                self.runs.push(run.clone());
            }
        }
        self.len += run.len();
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The maximal runs, ascending.
    pub(crate) fn runs(&self) -> &[Range<usize>] {
        &self.runs
    }

    /// The ids, ascending.
    pub(crate) fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().flat_map(Clone::clone)
    }

    /// `id`'s position in the set, if present.
    pub(crate) fn position(&self, id: usize) -> Option<usize> {
        let i = self.runs.partition_point(|r| r.end <= id);
        let run = self.runs.get(i)?;
        run.contains(&id).then(|| self.offsets[i] + id - run.start)
    }
}

impl Vault {
    /// Deploys a trained backbone/rectifier pair.
    ///
    /// The rectifier parameters and the real graph are sealed (at-rest
    /// protection) and accounted inside the enclave: parameters, the
    /// COO edge list, the precomputed degree vector, and the normalized
    /// adjacency the enclave keeps resident.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::Tee`] when the enclave rejects the resident
    /// set (only under [`OverBudgetPolicy::Fail`]).
    pub fn deploy(
        backbone: Backbone,
        rectifier: Rectifier,
        real_graph: &Graph,
        epc_budget: usize,
        cost: CostModel,
        policy: OverBudgetPolicy,
        seal_key: SealKey,
    ) -> Result<Vault, VaultError> {
        let epoch = NEXT_EPOCH.fetch_add(1, Ordering::Relaxed);
        let partition = VaultPartition::whole(real_graph.num_nodes());
        Self::deploy_with_epoch(
            backbone, rectifier, real_graph, epc_budget, cost, policy, seal_key, epoch, partition,
            None,
        )
    }

    /// Deployment body shared by [`Vault::deploy`] (fresh epoch) and
    /// [`Vault::restore`] (the snapshot's epoch, so replicas of one
    /// snapshot share a cache identity). `real_graph` is the graph
    /// induced on `partition`'s closure and normalization uses the
    /// recorded full-graph degrees — on a partition replica the
    /// resident set (COO, degree vector, CSR) shrinks to the closure
    /// size, which is the memory win of partitioned sharding.
    #[allow(clippy::too_many_arguments)]
    fn deploy_with_epoch(
        backbone: Backbone,
        rectifier: Rectifier,
        real_graph: &Graph,
        epc_budget: usize,
        cost: CostModel,
        policy: OverBudgetPolicy,
        seal_key: SealKey,
        epoch: u64,
        partition: VaultPartition,
        quantized: Option<QuantizedModel>,
    ) -> Result<Vault, VaultError> {
        let mut enclave = EnclaveSim::new(epc_budget, cost, policy);

        // Resident enclave set, mirroring §IV-E's storage plan. An int8
        // deployment keeps the quantized parameters resident instead of
        // the f32 form.
        let rectifier_params_alloc = match &quantized {
            Some(q) => enclave.alloc("rectifier parameters (int8)", q.rectifier_nbytes())?,
            None => enclave.alloc("rectifier parameters", rectifier.nbytes())?,
        };
        enclave.alloc("real graph (COO)", real_graph.coo_nbytes())?;
        enclave.alloc(
            "degree vector",
            real_graph.num_nodes() * std::mem::size_of::<u32>(),
        )?;
        let real_adj =
            normalization::gcn_normalize_with_degrees(real_graph, &partition.degrees(real_graph));
        enclave.alloc("normalized adjacency (CSR)", real_adj.nbytes())?;

        // Seal deployment artifacts (simulated SGX sealing).
        let mut sealed_artifacts = Vec::new();
        let mut weight_bytes = Vec::new();
        for dim in rectifier.channel_dims() {
            weight_bytes.extend_from_slice(&dim.to_le_bytes());
        }
        sealed_artifacts.push((
            "rectifier-shape".to_owned(),
            Sealed::seal(seal_key.derive("rectifier-shape"), &weight_bytes),
        ));
        let mut edge_bytes = Vec::with_capacity(real_graph.num_edges() * 8);
        for &(u, v) in real_graph.edges() {
            edge_bytes.extend_from_slice(&(u as u32).to_le_bytes());
            edge_bytes.extend_from_slice(&(v as u32).to_le_bytes());
        }
        sealed_artifacts.push((
            "real-graph-coo".to_owned(),
            Sealed::seal(seal_key.derive("real-graph-coo"), &edge_bytes),
        ));

        Ok(Vault {
            backbone,
            epoch,
            next_session: 0,
            epc_budget,
            policy,
            partition,
            rectifier,
            quantized,
            rectifier_params_alloc,
            real_graph: real_graph.clone(),
            real_adj,
            enclave,
            sealed_artifacts,
            seal_key,
            corpus: None,
            resident: None,
        })
    }

    /// Serializes this deployment into a sealed [`VaultSnapshot`]: the
    /// backbone (weights plus substitute graph), the rectifier weights
    /// and tap-set, the private real graph, and the enclave
    /// configuration, sealed under this deployment's seal key (purpose
    /// `"vault-snapshot"`). A partition replica seals its own part of
    /// the graph, so its recovery handle restores the same partial
    /// vault.
    ///
    /// Encoding is deterministic — snapshotting the same vault twice
    /// yields identical bytes — and [`Vault::restore`] rebuilds a
    /// replica whose inference labels and per-call transition counts
    /// are bit-identical to this vault's, under the *same epoch*, so
    /// serving caches keyed `(epoch, node)` remain valid across
    /// replicas. The feature corpus is not captured: it is public,
    /// untrusted-world data supplied at serving time.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// # fn demo(vault: gnnvault::Vault, key: tee::SealKey) -> Result<(), gnnvault::VaultError> {
    /// let snapshot = vault.snapshot();
    /// // ... ship the snapshot to another worker ...
    /// let mut replica = gnnvault::Vault::restore(&snapshot, key)?;
    /// assert_eq!(replica.epoch(), snapshot.epoch());
    /// # Ok(())
    /// # }
    /// ```
    pub fn snapshot(&self) -> VaultSnapshot {
        self.seal(&self.partition, &self.real_graph)
    }

    /// Seals every partition of `spec` in one pass (the full-graph
    /// adjacency scan runs once, not once per partition). Element `i`
    /// is partition `i`'s snapshot: the shared backbone and rectifier
    /// weights plus only that partition's private graph state — its
    /// owned nodes, their halo closure at the rectifier's
    /// receptive-field depth, the closure's full-graph degrees, and the
    /// induced local COO. Restoring one builds a *partial* vault that
    /// answers exactly its owned nodes, bit-identically to this vault.
    ///
    /// A partition's sealed payload is strictly smaller than a full
    /// snapshot whenever its closure misses part of the graph, which is
    /// the point: N partitioned shards hold ~1/N of the private state
    /// each instead of N copies. A 1-way spec yields exactly
    /// [`Vault::snapshot`]'s bytes.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::InvalidConfig`] when called on a vault
    /// that is itself one of several partitions, and
    /// [`VaultError::Graph`] when `spec` does not match this
    /// deployment's node count.
    pub fn partition_snapshots(
        &self,
        spec: &PartitionSpec,
    ) -> Result<Vec<VaultSnapshot>, VaultError> {
        if self.partition.parts > 1 {
            return Err(VaultError::InvalidConfig {
                reason: "cannot re-partition a partition replica; partition the full vault".into(),
            });
        }
        let parts =
            graph::partition::partition(&self.real_graph, spec, self.rectifier.num_layers())?;
        Ok(parts
            .iter()
            .map(|gp| self.seal(&VaultPartition::of(gp, self.num_nodes()), gp.graph()))
            .collect())
    }

    /// Restores one partial vault per partition of `spec` — the
    /// partitioned analogue of [`Vault::spawn_replicas`]. Each result
    /// shares this vault's epoch and answers only its owned nodes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Vault::partition_snapshots`], plus
    /// [`Vault::restore`] failures on the rebuild.
    pub fn spawn_partitions(&self, spec: &PartitionSpec) -> Result<Vec<Vault>, VaultError> {
        self.partition_snapshots(spec)?
            .iter()
            .map(|s| Self::restore(s, self.seal_key))
            .collect()
    }

    /// Encodes and seals `partition` of this deployment, whose closure
    /// induces `local_graph`, under this vault's deployment key.
    fn seal(&self, partition: &VaultPartition, local_graph: &Graph) -> VaultSnapshot {
        let payload = snapshot::encode(
            self.epoch,
            self.epc_budget,
            self.enclave.cost_model(),
            self.policy,
            &self.backbone,
            &self.rectifier,
            self.quantized.as_ref(),
            partition,
            local_graph,
        );
        let sealed = Sealed::seal(self.seal_key.derive("vault-snapshot"), &payload);
        VaultSnapshot::from_parts(
            self.epoch,
            partition.num_global_nodes,
            crate::SnapshotPartition::new(partition.part, partition.parts),
            sealed,
        )
    }

    /// Rehydrates a replica from a sealed snapshot.
    ///
    /// `seal_key` must be the deployment key the snapshotted vault was
    /// deployed (and therefore sealed) under — the SGX analogue of the
    /// platform sealing key an enclave re-derives after migration. The
    /// replica keeps the snapshot's epoch and is deployed with the
    /// snapshot's recorded EPC budget, cost model, and over-budget
    /// policy; its inference answers are bit-identical to the source
    /// vault's.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::Tee`] ([`tee::TeeError::SealTampered`])
    /// for a wrong key or corrupted payload, [`VaultError::Snapshot`]
    /// for a payload that unseals but does not decode, and the usual
    /// deployment failures (e.g. an EPC budget the resident set no
    /// longer fits) from the rebuild.
    pub fn restore(snapshot: &VaultSnapshot, seal_key: SealKey) -> Result<Vault, VaultError> {
        let payload = snapshot
            .sealed()
            .unseal(seal_key.derive("vault-snapshot"))?;
        let decoded = snapshot::decode(&payload)?;
        // The clear metadata must agree with the sealed payload: a
        // partition image relabeled as another partition (or as a full
        // replica) is a forgery, not a routing mistake.
        let p = &decoded.partition;
        if decoded.epoch != snapshot.epoch()
            || p.num_global_nodes != snapshot.num_nodes()
            || crate::SnapshotPartition::new(p.part, p.parts) != snapshot.partition()
        {
            return Err(VaultError::Snapshot {
                reason: "snapshot metadata disagrees with its sealed payload".into(),
            });
        }
        Self::deploy_with_epoch(
            decoded.backbone,
            decoded.rectifier,
            &decoded.real_graph,
            decoded.epc_budget,
            decoded.cost,
            decoded.policy,
            seal_key,
            decoded.epoch,
            decoded.partition,
            decoded.quantized,
        )
    }

    /// Spawns an independent replica of this deployment by round-
    /// tripping through [`Vault::snapshot`] / [`Vault::restore`] with
    /// this vault's own seal key — the path a sharded serving runtime
    /// uses to fan one trained vault out across worker shards. The
    /// replica shares this vault's epoch (same model, same answers) but
    /// owns its own enclave, meter, and session-id space.
    ///
    /// # Errors
    ///
    /// Propagates [`Vault::restore`] failures; with a self-produced
    /// snapshot these only occur when the deployment cannot be rebuilt
    /// (e.g. the EPC budget race-changed — impossible here — or an
    /// internal encoding bug).
    pub fn spawn_replica(&self) -> Result<Vault, VaultError> {
        Self::restore(&self.snapshot(), self.seal_key)
    }

    /// Spawns `count` independent replicas from a *single* snapshot —
    /// the encode/seal pass runs once, not once per replica, so fanning
    /// a large model out across many shards costs one serialization
    /// plus `count` restores.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Vault::spawn_replica`].
    pub fn spawn_replicas(&self, count: usize) -> Result<Vec<Vault>, VaultError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let snapshot = self.snapshot();
        (0..count)
            .map(|_| Self::restore(&snapshot, self.seal_key))
            .collect()
    }

    /// Bundles a sealed snapshot of this vault's *current* model with
    /// the deployment key into a [`RecoveryHandle`], the unit a
    /// supervisor retains per worker so a crashed replica can be
    /// restored without reaching back to the original vault (which may
    /// live on another thread — or not exist any more).
    pub fn recovery_handle(&self) -> RecoveryHandle {
        RecoveryHandle::new(self.snapshot(), self.seal_key)
    }

    /// Deployment epoch of this vault: unique within the current
    /// process, minted fresh at every [`Vault::deploy`]. Serving layers
    /// key *in-memory* result caches by `(epoch, node)` so entries from
    /// a superseded deployment can never be served by a newer one.
    /// Epochs restart with the process, so a cache persisted beyond the
    /// process lifetime additionally needs a boot-unique key component.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes in the deployed (real) graph; valid query ids
    /// for [`Vault::infer_node`] / [`Vault::infer_batch`] are
    /// `0..num_nodes`. Not a secret: the untrusted world already knows
    /// it from the feature matrix it runs the backbone on. A partition
    /// replica still reports the *global* count — its corpus and query
    /// id space are shared with every other partition — even though it
    /// only answers its owned subset.
    pub fn num_nodes(&self) -> usize {
        self.partition.num_global_nodes
    }

    /// `(part, parts)`: which partition of the deployment this vault
    /// holds. A full vault is `(0, 1)`. Public routing metadata.
    pub fn partition_info(&self) -> (usize, usize) {
        (self.partition.part, self.partition.parts)
    }

    /// The global node ids this vault answers, ascending: every node on
    /// a full vault. Ownership is a pure function of the node id — not
    /// derived from private edges — so exposing the list leaks nothing
    /// about the private graph.
    pub fn owned_nodes(&self) -> Vec<usize> {
        self.partition.owned.ids().collect()
    }

    /// Bytes currently allocated inside the enclave (resident set plus
    /// any live transients). Serving tests use it to prove failed
    /// batches roll their transient allocations back.
    pub fn enclave_in_use_bytes(&self) -> usize {
        self.enclave.current_usage()
    }

    /// Opens a new enclave session for batched inference
    /// ([`Vault::infer_batch`]): a long-lived ingress channel a serving
    /// worker reuses across batches. Session ids are unique per vault.
    pub fn open_session(&mut self) -> EnclaveSession {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        EnclaveSession::new(id)
    }

    /// Binds the public serving corpus. O(1): nothing runs until the
    /// first [`Vault::infer_batch`] whose `features` *is* this
    /// allocation (pointer identity), which ships the full tap set once
    /// and leaves it resident in the enclave for every later batch of
    /// this deployment. Rebinding drops resident taps; so do
    /// [`Vault::set_precision`] switches. Snapshots and replicas never
    /// carry a binding, so an install, rollback or restore starts cold.
    ///
    /// Features that were never bound keep the per-call path: backbone
    /// and full tap transfer on every call.
    pub fn bind_features(&mut self, features: Arc<DenseMatrix>) {
        self.evict_resident_taps();
        self.corpus = Some(features);
    }

    /// Frees the resident taps, if any, from the enclave ledger.
    fn evict_resident_taps(&mut self) {
        if let Some(resident) = self.resident.take() {
            // The id is live: it was charged by this ledger and is
            // freed exactly once, here.
            let _ = self.enclave.free(resident.alloc);
        }
    }

    /// Switches the serving precision. Idempotent.
    ///
    /// Moving to [`Precision::Int8`] quantizes every projection weight
    /// (per-output-channel symmetric int8, see
    /// [`linalg::QuantizedMatrix`]) and re-accounts the resident
    /// rectifier parameters in the enclave ledger at the quantized
    /// size; moving back to [`Precision::F32`] drops the mirror and
    /// restores the f32 accounting. The f32 weights are always
    /// retained, so the switch is lossless in both directions:
    /// quantization is a deterministic function of the f32 weights, and
    /// `quantize(dequantize(q)) == q` makes re-quantization a fixed
    /// point.
    ///
    /// A switch drops the resident taps of a bound corpus: the int8
    /// backbone computes different taps, so the next batch over the
    /// corpus ships them afresh.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::Tee`] when the re-accounting is rejected
    /// under [`OverBudgetPolicy::Fail`] — the new allocation is charged
    /// before the old one is released, so a rejected switch leaves the
    /// ledger (and the vault) exactly as it found them.
    pub fn set_precision(&mut self, precision: Precision) -> Result<(), VaultError> {
        match precision {
            Precision::Int8 => {
                if self.quantized.is_some() {
                    return Ok(());
                }
                let model = QuantizedModel {
                    backbone: self.backbone.quantize_network(),
                    rectifier: self.rectifier.quantize_layers(),
                };
                let id = self
                    .enclave
                    .alloc("rectifier parameters (int8)", model.rectifier_nbytes())?;
                self.enclave.free(self.rectifier_params_alloc)?;
                self.rectifier_params_alloc = id;
                self.quantized = Some(model);
                self.evict_resident_taps();
            }
            Precision::F32 => {
                if self.quantized.is_none() {
                    return Ok(());
                }
                let id = self
                    .enclave
                    .alloc("rectifier parameters", self.rectifier.nbytes())?;
                self.enclave.free(self.rectifier_params_alloc)?;
                self.rectifier_params_alloc = id;
                self.quantized = None;
                self.evict_resident_taps();
            }
        }
        Ok(())
    }

    /// The precision this vault currently serves at.
    pub fn precision(&self) -> Precision {
        if self.quantized.is_some() {
            Precision::Int8
        } else {
            Precision::F32
        }
    }

    /// Backbone forward at the serving precision.
    fn backbone_embeddings(&self, features: &DenseMatrix) -> Result<Vec<DenseMatrix>, VaultError> {
        match &self.quantized {
            Some(q) => self.backbone.embeddings_quantized(&q.backbone, features),
            None => self.backbone.embeddings(features),
        }
    }

    /// Total enclave transitions (ECALLs) charged over the vault's
    /// lifetime — the counter behind each report's per-call
    /// [`InferenceReport::transitions`] delta. Serving tests use it to
    /// prove cache hits never re-enter the enclave.
    pub fn enclave_transitions(&self) -> u64 {
        self.enclave.transitions()
    }

    /// The public backbone (the attacker-visible half).
    pub fn backbone(&self) -> &Backbone {
        &self.backbone
    }

    /// The rectifier's communication scheme.
    pub fn rectifier_kind(&self) -> crate::RectifierKind {
        self.rectifier.kind()
    }

    /// Parameter count inside the enclave (`θrec`).
    pub fn rectifier_param_count(&self) -> usize {
        self.rectifier.param_count()
    }

    /// Peak enclave memory so far (Fig. 6 bottom).
    pub fn peak_enclave_bytes(&self) -> usize {
        self.enclave.peak_usage()
    }

    /// Labels of the sealed at-rest artifacts.
    pub fn sealed_artifact_labels(&self) -> Vec<&str> {
        self.sealed_artifacts
            .iter()
            .map(|(l, _)| l.as_str())
            .collect()
    }

    /// Shared meter handle (accumulates across inferences).
    pub fn meter(&self) -> Meter {
        self.enclave.meter()
    }

    /// Runs inference for every node and returns per-node class labels
    /// plus the timing report — [`Vault::infer_batch`] over all nodes
    /// through a one-shot session, so the closure is the whole graph.
    ///
    /// Step by step (Fig. 6's decomposition):
    /// 1. backbone forward in the untrusted world (wall-clock metered),
    /// 2. tap embeddings encoded and sent over the one-way channel
    ///    (simulated marshalling cost),
    /// 3. rectifier forward inside the enclave (wall-clock metered,
    ///    transient activations accounted against the EPC),
    /// 4. argmax inside the enclave; only [`ClassLabel`]s exit.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::InvalidConfig`] on a partition replica
    /// that does not own every node; otherwise the same failures as
    /// [`Vault::infer_batch`].
    pub fn infer(
        &mut self,
        features: &DenseMatrix,
    ) -> Result<(Vec<ClassLabel>, InferenceReport), VaultError> {
        let p = &self.partition;
        if p.owned.len() != p.num_global_nodes {
            return Err(VaultError::InvalidConfig {
                reason: format!(
                    "partition replica {}/{} answers only its owned nodes; \
                     use infer_batch or infer_node",
                    p.part, p.parts
                ),
            });
        }
        let nodes: Vec<usize> = (0..self.num_nodes()).collect();
        let mut session = self.open_session();
        self.infer_batch(&mut session, features, &nodes)
    }

    /// Answers a single-node query (the threat model's query interface)
    /// — [`Vault::infer_batch`] on one node through a one-shot session.
    /// Enclave compute and transient memory shrink to the node's L-hop
    /// neighbourhood.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Vault::infer_batch`].
    pub fn infer_node(
        &mut self,
        features: &DenseMatrix,
        node: usize,
    ) -> Result<(ClassLabel, InferenceReport), VaultError> {
        let mut session = self.open_session();
        let (labels, report) = self.infer_batch(&mut session, features, &[node])?;
        Ok((labels[0], report))
    }

    /// Runs one batched inference for `nodes` through an open enclave
    /// session: one enclave transition set per *batch* instead of one
    /// per queried node, and enclave work bounded by the batch's
    /// receptive field instead of the graph.
    ///
    /// 1. **Taps in.** Over a corpus bound with [`Vault::bind_features`]
    ///    whose taps are already resident, nothing runs outside and one
    ///    payload-free ECALL enters the enclave. Otherwise the backbone
    ///    runs over the whole corpus (on the shared `linalg` pool) and
    ///    the *full* tap set crosses through the session's channel —
    ///    the bytes never depend on the queried nodes. Over the bound
    ///    corpus the enclave then keeps the decoded taps (a partition
    ///    replica only its closure rows), charged to the EPC ledger.
    /// 2. **Closure.** Inside the enclave, a multi-source BFS of
    ///    L = rectifier-depth hops over the resident normalized
    ///    adjacency finds every node the answers depend on, in
    ///    ascending id order. The adjacency's rows are sliced to it
    ///    ([`linalg::CsrMatrix::principal_submatrix`]) — their values
    ///    already carry full-graph degrees — and the tap rows selected.
    /// 3. **Rectifier** over the closure, with transient activations
    ///    EPC-accounted at closure size and freed even when the forward
    ///    fails, so a failed batch cannot degrade a serving enclave.
    /// 4. **Label-only egress** for exactly the queried nodes.
    ///
    /// Labels are bit-identical to reading the queried rows of
    /// [`Vault::infer`]: a node at distance `d < L` from the batch keeps
    /// its whole adjacency row, so its layer-`L - d` activation is
    /// exact, and ascending local ids keep every row's accumulation
    /// order. Batching and residency change cost, never answers.
    ///
    /// Enclave wall time and transient EPC follow the private closure
    /// size — a timing/paging signal the ingress byte rule does not
    /// cover (see ARCHITECTURE.md).
    ///
    /// The report's [`InferenceReport::transitions`] is the per-batch
    /// delta, so `transitions / nodes.len()` is the per-node ECALL cost
    /// a serving layer is trying to drive down.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::InvalidConfig`] on an empty batch, an
    /// out-of-range node id, or a corpus whose row count is not the
    /// deployment's node count; [`VaultError::NotOwned`] for a node a
    /// partition replica does not own; [`VaultError::Tee`] when the
    /// resident taps or the closure's activations do not fit the EPC
    /// under [`OverBudgetPolicy::Fail`] (the failed batch's transients
    /// are rolled back); and backbone/rectifier failures.
    ///
    /// # Examples
    ///
    /// ```
    /// use gnnvault::{Backbone, Rectifier, RectifierKind, SubstituteKind, Vault};
    /// use linalg::DenseMatrix;
    /// use nn::TrainConfig;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let x = DenseMatrix::from_rows(&[
    ///     &[1.0, 0.0], &[0.9, 0.1], &[0.0, 1.0], &[0.1, 0.9],
    /// ])?;
    /// let labels = vec![0, 0, 1, 1];
    /// let real = graph::Graph::from_edges(4, &[(0, 1), (2, 3)])?;
    /// let cfg = TrainConfig { epochs: 15, dropout: 0.0, ..Default::default() };
    /// let backbone = Backbone::train(
    ///     &x, &labels, &[0, 1, 2, 3], SubstituteKind::Knn { k: 1 },
    ///     &[4, 2], real.num_edges(), &cfg, 1,
    /// )?;
    /// let mut rectifier = Rectifier::new(
    ///     RectifierKind::Series, &[4, 2], &backbone.channel_dims(), 2,
    /// )?;
    /// let real_adj = graph::normalization::gcn_normalize(&real);
    /// let embs = backbone.embeddings(&x)?;
    /// rectifier.fit(&real_adj, &embs, &labels, &[0, 1, 2, 3], &cfg)?;
    /// let mut vault = Vault::deploy(
    ///     backbone, rectifier, &real, tee::SGX_EPC_BYTES,
    ///     tee::CostModel::default(), tee::OverBudgetPolicy::Fail, tee::SealKey(1),
    /// )?;
    ///
    /// // One session, reused across batches; one transition set per batch.
    /// let mut session = vault.open_session();
    /// let (batch_labels, report) = vault.infer_batch(&mut session, &x, &[0, 3, 0])?;
    /// assert_eq!(batch_labels.len(), 3);
    /// assert_eq!(batch_labels[0], batch_labels[2], "same node, same label");
    /// assert!(report.transitions >= 1);
    ///
    /// // A bound corpus ships its taps once; later batches ship none.
    /// let corpus = std::sync::Arc::new(x);
    /// vault.bind_features(std::sync::Arc::clone(&corpus));
    /// let (_, first) = vault.infer_batch(&mut session, &corpus, &[1])?;
    /// let (again, later) = vault.infer_batch(&mut session, &corpus, &[0, 3, 0])?;
    /// assert_eq!(first.transferred_bytes, report.transferred_bytes);
    /// assert_eq!((later.transferred_bytes, later.transitions), (0, 1));
    /// assert_eq!(again, batch_labels);
    /// # Ok(())
    /// # }
    /// ```
    pub fn infer_batch(
        &mut self,
        session: &mut EnclaveSession,
        features: &DenseMatrix,
        nodes: &[usize],
    ) -> Result<(Vec<ClassLabel>, InferenceReport), VaultError> {
        let sources = self.query_rows(features, nodes)?;
        let meter = self.enclave.meter();
        meter.reset();
        let transitions_before = self.enclave.transitions();
        session.begin_batch();

        // 1. Taps in: resident, or shipped whole by this batch.
        let bound = self
            .corpus
            .as_deref()
            .is_some_and(|corpus| std::ptr::eq(corpus, features));
        let mut epoch_scratch = None;
        let shipped = if bound && self.resident.is_some() {
            session.call(&mut self.enclave)?;
            None
        } else {
            let (slots, backbone_outputs) = self.ship_taps(session, features)?;
            if bound {
                let bytes = slots.iter().map(DenseMatrix::nbytes).sum();
                let alloc = self.enclave.alloc("resident taps", bytes)?;
                self.resident = Some(ResidentTaps { slots, alloc });
                // A per-call batch frees its backbone outputs here, and
                // the next call reuses that memory. The first batch of
                // an epoch is a one-off: its outputs are held until the
                // batch is answered, so they are freed together with the
                // closure activations as one block — large enough for
                // the allocator to hand back to the OS instead of
                // keeping it resident on the serving thread all epoch.
                epoch_scratch = Some(backbone_outputs);
                None
            } else {
                Some(slots)
            }
        };
        let transferred_bytes = session.batch_bytes();
        let slots = match (&shipped, &self.resident) {
            (Some(slots), _) | (None, Some(ResidentTaps { slots, .. })) => slots,
            (None, None) => unreachable!("taps were shipped or are resident"),
        };

        // 2. The batch's L-hop closure and its restricted operands.
        let hops = self.rectifier.num_layers();
        let real_adj = &self.real_adj;
        let (closure, sliced, inputs) = self.enclave.run(|| -> Result<_, VaultError> {
            let closure = graph::closure::hop_closure(real_adj, &sources, hops);
            let whole = closure.len() == real_adj.rows();
            let sliced = if whole {
                None
            } else {
                Some(real_adj.principal_submatrix(&closure)?)
            };
            let inputs = slots
                .iter()
                .map(|slot| {
                    if whole || slot.rows() == 0 {
                        Ok(slot.clone())
                    } else {
                        slot.select_rows(&closure)
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((closure, sliced, inputs))
        })?;
        drop(shipped);
        let adj = sliced.as_ref().unwrap_or(&self.real_adj);

        // 3-4. Rectifier over the closure; argmax for the query rows.
        let transient =
            Self::alloc_transient_activations(&mut self.enclave, &self.rectifier, closure.len())?;
        let result = {
            let rectifier = &self.rectifier;
            let quantized = self.quantized.as_ref();
            self.enclave.run(|| -> Result<Vec<ClassLabel>, VaultError> {
                let forward = match quantized {
                    Some(q) => rectifier.forward_quantized(&q.rectifier, adj, &inputs)?,
                    None => rectifier.forward(adj, &inputs)?,
                };
                let rows: Vec<usize> = sources
                    .iter()
                    .map(|s| {
                        closure
                            .binary_search(s)
                            .expect("a source is in its closure")
                    })
                    .collect();
                let logits = forward.logits().select_rows(&rows)?;
                Ok(linalg::ops::argmax_rows(&logits)
                    .into_iter()
                    .map(ClassLabel)
                    .collect())
            })
        };
        for id in transient {
            self.enclave.free(id)?;
        }
        let labels = result?;
        drop(epoch_scratch);

        let breakdown = meter.breakdown();
        let get = |phase: Phase| breakdown.get(&phase).copied().unwrap_or_default();
        let report = InferenceReport {
            backbone_ns: get(Phase::Backbone).total_ns(),
            transfer_ns: get(Phase::Transfer).total_ns(),
            rectifier_ns: get(Phase::Enclave).total_ns() + get(Phase::PageSwap).total_ns(),
            transferred_bytes,
            transitions: self.enclave.transitions() - transitions_before,
            peak_enclave_bytes: self.enclave.peak_usage(),
        };
        Ok((labels, report))
    }

    /// Validates a query and translates its nodes into rows of the
    /// resident adjacency (closure-local ids).
    fn query_rows(
        &self,
        features: &DenseMatrix,
        nodes: &[usize],
    ) -> Result<Vec<usize>, VaultError> {
        if nodes.is_empty() {
            return Err(VaultError::InvalidConfig {
                reason: "empty batch: at least one query node is required".into(),
            });
        }
        if features.rows() != self.num_nodes() {
            return Err(VaultError::InvalidConfig {
                reason: format!(
                    "corpus has {} feature rows for {} deployed graph nodes",
                    features.rows(),
                    self.num_nodes()
                ),
            });
        }
        if let Some(&bad) = nodes.iter().find(|&&n| n >= self.num_nodes()) {
            return Err(VaultError::InvalidConfig {
                reason: format!(
                    "query node {bad} out of range for {} nodes",
                    self.num_nodes()
                ),
            });
        }
        // A partition replica answers only its owned nodes; anything
        // else is a routing error the caller must surface, not a silent
        // wrong answer.
        let p = &self.partition;
        nodes
            .iter()
            .map(|&node| {
                p.owned
                    .position(node)
                    .and(p.closure.position(node))
                    .ok_or(VaultError::NotOwned {
                        node,
                        part: p.part,
                        parts: p.parts,
                    })
            })
            .collect()
    }

    /// Runs the backbone over `features`, ships the full tap set through
    /// `session`, and decodes it on the enclave side into the backbone's
    /// slot layout (non-tap slots are zero-row placeholders), keeping
    /// only the closure's rows — halo membership is derived from the
    /// private edges, so the selection happens inside. A closure that
    /// lists every node keeps the decoded taps as they are. Returns the decoded slots and the backbone
    /// outputs, whose release the caller times.
    fn ship_taps(
        &mut self,
        session: &mut EnclaveSession,
        features: &DenseMatrix,
    ) -> Result<(Vec<DenseMatrix>, Vec<DenseMatrix>), VaultError> {
        let meter = self.enclave.meter();
        let embeddings = meter.time(Phase::Backbone, || self.backbone_embeddings(features))?;
        let taps = self.rectifier.tap_indices();
        for &t in &taps {
            session.send(&mut self.enclave, codec::encode_dense(&embeddings[t]))?;
        }
        let mut slots: Vec<DenseMatrix> = embeddings
            .iter()
            .map(|e| DenseMatrix::zeros(0, e.cols()))
            .collect();
        // A closure of every node keeps the decoded taps as they are.
        let p = &self.partition;
        let closure_rows: Option<Vec<usize>> =
            (p.closure.len() != p.num_global_nodes).then(|| p.closure.ids().collect());
        for (&t, payload) in taps.iter().zip(session.drain()) {
            let decoded = codec::decode_dense(&payload)?;
            slots[t] = match &closure_rows {
                Some(rows) => decoded.select_rows(rows)?,
                None => decoded,
            };
        }
        Ok((slots, embeddings))
    }

    /// Accounts the rectifier's transient per-layer activation buffers
    /// for an `n`-row forward against the EPC, returning the allocation
    /// ids to free once logits have been produced. On a mid-sequence
    /// rejection the already-made allocations are rolled back, so a
    /// failed inference leaves the enclave ledger exactly as it found
    /// it.
    fn alloc_transient_activations(
        enclave: &mut EnclaveSim,
        rectifier: &Rectifier,
        n: usize,
    ) -> Result<Vec<AllocationId>, VaultError> {
        let mut transient = Vec::new();
        for (in_dim, out_dim) in rectifier
            .input_dims()
            .into_iter()
            .zip(rectifier.channel_dims())
        {
            match enclave.alloc(
                "layer activation",
                n * (in_dim + out_dim) * std::mem::size_of::<f32>(),
            ) {
                Ok(id) => transient.push(id),
                Err(e) => {
                    // Fresh ids: free cannot fail here.
                    for id in transient {
                        let _ = enclave.free(id);
                    }
                    return Err(e.into());
                }
            }
        }
        Ok(transient)
    }
}

/// A self-contained recipe for rebuilding one vault replica: a sealed
/// [`VaultSnapshot`] plus the deployment [`SealKey`] it was sealed
/// under.
///
/// This is the retention unit of a supervised serving runtime: each
/// worker keeps the handle of the model it is currently serving, so a
/// crashed replica can be restored in place ([`RecoveryHandle::restore`])
/// and a failed hot-swap can roll back to the previously installed
/// epoch — without reaching back to the original vault, which may be
/// owned by another thread or already gone. The snapshot is shared
/// behind an [`Arc`], so cloning a handle (e.g. keeping the previous
/// epoch for rollback) does not copy the sealed payload.
///
/// The seal key inside is deployment-secret material; `Debug` redacts
/// it.
#[derive(Clone)]
pub struct RecoveryHandle {
    snapshot: Arc<VaultSnapshot>,
    seal_key: SealKey,
}

impl RecoveryHandle {
    /// Wraps a snapshot and the key it was sealed under.
    pub fn new(snapshot: VaultSnapshot, seal_key: SealKey) -> Self {
        Self::from_shared(Arc::new(snapshot), seal_key)
    }

    /// Like [`RecoveryHandle::new`], but reuses an already-shared
    /// snapshot (no payload copy).
    pub fn from_shared(snapshot: Arc<VaultSnapshot>, seal_key: SealKey) -> Self {
        Self { snapshot, seal_key }
    }

    /// The epoch this handle restores to.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Number of nodes in the snapshotted deployment.
    pub fn num_nodes(&self) -> usize {
        self.snapshot.num_nodes()
    }

    /// Rebuilds a fresh replica from the retained snapshot — the
    /// supervisor's restart path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Vault::restore`].
    pub fn restore(&self) -> Result<Vault, VaultError> {
        Vault::restore(&self.snapshot, self.seal_key)
    }
}

impl std::fmt::Debug for RecoveryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryHandle")
            .field("epoch", &self.snapshot.epoch())
            .field("num_nodes", &self.snapshot.num_nodes())
            .field("seal_key", &"<redacted>")
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RectifierKind, SubstituteKind};
    use nn::TrainConfig;

    fn toy_vault(kind: RectifierKind) -> (Vault, DenseMatrix, Vec<usize>) {
        toy_vault_with_budget(kind, tee::SGX_EPC_BYTES)
    }

    fn toy_vault_with_budget(
        kind: RectifierKind,
        epc_budget: usize,
    ) -> (Vault, DenseMatrix, Vec<usize>) {
        let x = DenseMatrix::from_rows(&[
            &[1.0, 0.0],
            &[0.9, 0.1],
            &[1.0, 0.2],
            &[0.0, 1.0],
            &[0.1, 0.9],
            &[0.2, 1.0],
        ])
        .unwrap();
        let labels = vec![0, 0, 0, 1, 1, 1];
        let train = vec![0, 1, 3, 4];
        let real = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let cfg = TrainConfig {
            epochs: 60,
            lr: 0.05,
            weight_decay: 0.0,
            dropout: 0.0,
            seed: 0,
        };
        let backbone = Backbone::train(
            &x,
            &labels,
            &train,
            SubstituteKind::Knn { k: 2 },
            &[8, 4, 2],
            real.num_edges(),
            &cfg,
            1,
        )
        .unwrap();
        let mut rectifier = Rectifier::new(kind, &[8, 4, 2], &backbone.channel_dims(), 2).unwrap();
        let real_adj = graph::normalization::gcn_normalize(&real);
        let embs = backbone.embeddings(&x).unwrap();
        rectifier
            .fit(&real_adj, &embs, &labels, &train, &cfg)
            .unwrap();
        let vault = Vault::deploy(
            backbone,
            rectifier,
            &real,
            epc_budget,
            CostModel::default(),
            OverBudgetPolicy::Fail,
            SealKey(7),
        )
        .unwrap();
        (vault, x, labels)
    }

    #[test]
    fn infer_returns_labels_and_report() {
        for kind in RectifierKind::ALL {
            let (mut vault, x, labels) = toy_vault(kind);
            let (preds, report) = vault.infer(&x).unwrap();
            assert_eq!(preds.len(), 6, "{kind:?}");
            let acc = preds.iter().zip(&labels).filter(|(p, &l)| p.0 == l).count() as f32 / 6.0;
            assert!(acc >= 0.5, "{kind:?} acc {acc}");
            assert!(report.transferred_bytes > 0);
            assert!(report.transfer_ns > 0);
            assert!(report.peak_enclave_bytes > 0);
            assert_eq!(
                report.transitions,
                vault.rectifier.tap_indices().len() as u64
            );
        }
    }

    #[test]
    fn series_transfers_fewest_bytes() {
        let (mut parallel, x, _) = toy_vault(RectifierKind::Parallel);
        let (mut cascaded, _, _) = toy_vault(RectifierKind::Cascaded);
        let (mut series, _, _) = toy_vault(RectifierKind::Series);
        let (_, rp) = parallel.infer(&x).unwrap();
        let (_, rc) = cascaded.infer(&x).unwrap();
        let (_, rs) = series.infer(&x).unwrap();
        assert!(rs.transferred_bytes < rp.transferred_bytes);
        assert!(rs.transferred_bytes < rc.transferred_bytes);
    }

    #[test]
    fn deploy_seals_artifacts_and_accounts_memory() {
        let (vault, _, _) = toy_vault(RectifierKind::Series);
        let labels = vault.sealed_artifact_labels();
        assert!(labels.contains(&"rectifier-shape"));
        assert!(labels.contains(&"real-graph-coo"));
        assert!(vault.peak_enclave_bytes() > 0);
        assert!(vault.rectifier_param_count() > 0);
    }

    #[test]
    fn infer_node_matches_full_graph_inference() {
        for kind in RectifierKind::ALL {
            let (mut vault, x, _) = toy_vault(kind);
            let (full_labels, _) = vault.infer(&x).unwrap();
            #[allow(clippy::needless_range_loop)] // node is also the query argument
            for node in 0..x.rows() {
                let (label, report) = vault.infer_node(&x, node).unwrap();
                assert_eq!(
                    label, full_labels[node],
                    "{kind:?}: node {node} ego-query disagrees with full inference"
                );
                assert!(report.transferred_bytes > 0);
            }
        }
    }

    #[test]
    fn infer_batch_matches_per_node_infer() {
        for kind in RectifierKind::ALL {
            let (mut vault, x, _) = toy_vault(kind);
            let (full, _) = vault.infer(&x).unwrap();
            let mut session = vault.open_session();
            let nodes: Vec<usize> = (0..x.rows()).collect();
            let (batched, report) = vault.infer_batch(&mut session, &x, &nodes).unwrap();
            assert_eq!(batched, full, "{kind:?}: batch must equal full inference");
            assert_eq!(
                report.transitions,
                vault.rectifier.tap_indices().len() as u64,
                "{kind:?}: one transition per tap per batch"
            );
            // Duplicate and subset queries read the same logits.
            let (dup, _) = vault.infer_batch(&mut session, &x, &[2, 2, 5]).unwrap();
            assert_eq!(dup, vec![full[2], full[2], full[5]], "{kind:?}");
            assert_eq!(session.batches_served(), 2);
        }
    }

    #[test]
    fn batch_amortizes_transitions_over_per_node_queries() {
        let (mut vault, x, _) = toy_vault(RectifierKind::Cascaded);
        let mut per_node_total = 0;
        for node in 0..x.rows() {
            let (_, r) = vault.infer_node(&x, node).unwrap();
            per_node_total += r.transitions;
        }
        let mut session = vault.open_session();
        let nodes: Vec<usize> = (0..x.rows()).collect();
        let (_, batch) = vault.infer_batch(&mut session, &x, &nodes).unwrap();
        assert!(
            batch.transitions < per_node_total,
            "batch {} vs per-node {}",
            batch.transitions,
            per_node_total
        );
        // Per-call delta semantics: a second batch on the same session
        // charges the same amount again, not a cumulative total.
        let (_, second) = vault.infer_batch(&mut session, &x, &nodes).unwrap();
        assert_eq!(second.transitions, batch.transitions);
        assert_eq!(
            vault.enclave_transitions(),
            per_node_total + 2 * batch.transitions
        );
    }

    #[test]
    fn infer_batch_rejects_empty_and_out_of_range() {
        let (mut vault, x, _) = toy_vault(RectifierKind::Series);
        let mut session = vault.open_session();
        assert!(matches!(
            vault.infer_batch(&mut session, &x, &[]),
            Err(VaultError::InvalidConfig { .. })
        ));
        assert!(matches!(
            vault.infer_batch(&mut session, &x, &[0, 99]),
            Err(VaultError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn failed_inference_rolls_back_transient_allocations() {
        // Measure the resident set, then redeploy with just enough
        // headroom for the first transient activation but not the
        // second — the mid-sequence rejection path.
        let (probe, x, _) = toy_vault(RectifierKind::Series);
        let resident = probe.enclave_in_use_bytes();
        let dims: Vec<(usize, usize)> = probe
            .rectifier
            .input_dims()
            .into_iter()
            .zip(probe.rectifier.channel_dims())
            .collect();
        let first_transient = x.rows() * (dims[0].0 + dims[0].1) * std::mem::size_of::<f32>();
        drop(probe);

        let (mut tight, x, _) =
            toy_vault_with_budget(RectifierKind::Series, resident + first_transient + 16);
        let before = tight.enclave_in_use_bytes();
        assert_eq!(before, resident, "deployments are deterministic");

        let mut session = tight.open_session();
        for _ in 0..3 {
            assert!(matches!(
                tight.infer_batch(&mut session, &x, &[0]),
                Err(VaultError::Tee(tee::TeeError::EpcExhausted { .. }))
            ));
            assert_eq!(
                tight.enclave_in_use_bytes(),
                before,
                "failed batches must not leak enclave memory"
            );
        }
        assert!(tight.infer(&x).is_err());
        assert_eq!(tight.enclave_in_use_bytes(), before);
    }

    /// Activation bytes a `rows`-row rectifier forward charges.
    fn transient_bytes(vault: &Vault, rows: usize) -> usize {
        vault
            .rectifier
            .input_dims()
            .into_iter()
            .zip(vault.rectifier.channel_dims())
            .map(|(i, o)| rows * (i + o) * std::mem::size_of::<f32>())
            .sum()
    }

    #[test]
    fn an_over_budget_closure_fails_typed_and_leaves_the_ledger_unchanged() {
        // Budget the bound vault for resident taps plus one triangle's
        // closure (3 rows), not both triangles' (6 rows).
        let (mut probe, x, _) = toy_vault(RectifierKind::Series);
        let corpus = Arc::new(x);
        probe.bind_features(Arc::clone(&corpus));
        let mut session = probe.open_session();
        probe.infer_batch(&mut session, &corpus, &[0]).unwrap();
        let budget = probe.enclave_in_use_bytes() + transient_bytes(&probe, 3);
        let (full, _) = probe.infer(&corpus).unwrap();
        drop(probe);

        let (mut tight, _, _) = toy_vault_with_budget(RectifierKind::Series, budget);
        tight.bind_features(Arc::clone(&corpus));
        let mut session = tight.open_session();
        let (labels, _) = tight.infer_batch(&mut session, &corpus, &[1]).unwrap();
        assert_eq!(labels, vec![full[1]]);
        let before = tight.enclave_in_use_bytes();
        for _ in 0..2 {
            assert!(matches!(
                tight.infer_batch(&mut session, &corpus, &[0, 3]),
                Err(VaultError::Tee(tee::TeeError::EpcExhausted { .. }))
            ));
            assert_eq!(tight.enclave_in_use_bytes(), before, "no fallback, no leak");
        }
        let (labels, report) = tight.infer_batch(&mut session, &corpus, &[5, 4]).unwrap();
        assert_eq!(labels, vec![full[5], full[4]]);
        assert_eq!(report.transferred_bytes, 0, "the taps stayed resident");
    }

    #[test]
    fn a_bound_corpus_ships_the_full_tap_set_once_per_binding() {
        for kind in RectifierKind::ALL {
            let (mut vault, x, _) = toy_vault(kind);
            let taps = vault.rectifier.tap_indices().len() as u64;
            let (full, unbound) = vault.infer(&x).unwrap();
            let mut session = vault.open_session();
            // Unbound features pay the per-call path, bytes constant.
            for nodes in [&[0][..], &[1, 4], &[5, 5, 2]] {
                let (_, r) = vault.infer_batch(&mut session, &x, nodes).unwrap();
                assert_eq!(r.transferred_bytes, unbound.transferred_bytes, "{kind:?}");
                assert_eq!(r.transitions, taps, "{kind:?}");
            }
            let resident = vault.enclave_in_use_bytes();
            // Every binding starts cold. Its first batch ships exactly
            // the full tap set, whatever the nodes; later batches run
            // no backbone, ship nothing, and charge one ECALL.
            for first in [&[0][..], &[3, 4, 5], &[2, 2]] {
                let corpus = Arc::new(x.clone());
                vault.bind_features(Arc::clone(&corpus));
                assert_eq!(vault.enclave_in_use_bytes(), resident, "{kind:?}");
                let (labels, r) = vault.infer_batch(&mut session, &corpus, first).unwrap();
                assert_eq!(r.transferred_bytes, unbound.transferred_bytes, "{kind:?}");
                assert_eq!(r.transitions, taps, "{kind:?}");
                assert!(r.backbone_ns > 0, "{kind:?}");
                assert!(vault.enclave_in_use_bytes() > resident, "taps are charged");
                let want: Vec<ClassLabel> = first.iter().map(|&n| full[n]).collect();
                assert_eq!(labels, want, "{kind:?}");
                for nodes in [&[0][..], &[1, 4], &[5, 5, 2]] {
                    let (labels, r) = vault.infer_batch(&mut session, &corpus, nodes).unwrap();
                    assert_eq!(
                        (r.transferred_bytes, r.transitions, r.backbone_ns),
                        (0, 1, 0),
                        "{kind:?}"
                    );
                    let want: Vec<ClassLabel> = nodes.iter().map(|&n| full[n]).collect();
                    assert_eq!(labels, want, "{kind:?}");
                }
                let (all, r) = vault.infer(&corpus).unwrap();
                assert_eq!((all, r.transferred_bytes), (full.clone(), 0), "{kind:?}");
                // An equal copy is not the bound corpus.
                let (_, r) = vault.infer_batch(&mut session, &x, &[0]).unwrap();
                assert_eq!(r.transferred_bytes, unbound.transferred_bytes, "{kind:?}");
            }
        }
    }

    #[test]
    fn a_precision_switch_drops_resident_taps() {
        for kind in RectifierKind::ALL {
            let (mut vault, x, _) = toy_vault(kind);
            let (f32_labels, _) = vault.infer(&x).unwrap();
            let (mut fresh, _, _) = toy_vault(kind);
            fresh.set_precision(Precision::Int8).unwrap();
            let (int8_labels, _) = fresh.infer(&x).unwrap();

            let corpus = Arc::new(x);
            vault.bind_features(Arc::clone(&corpus));
            let mut session = vault.open_session();
            let nodes: Vec<usize> = (0..corpus.rows()).collect();
            vault.infer_batch(&mut session, &corpus, &nodes).unwrap();
            vault.infer_batch(&mut session, &corpus, &[1]).unwrap();
            for (precision, want) in [
                (Precision::Int8, &int8_labels),
                (Precision::F32, &f32_labels),
            ] {
                vault.set_precision(precision).unwrap();
                let (labels, r) = vault.infer_batch(&mut session, &corpus, &nodes).unwrap();
                assert!(
                    r.transferred_bytes > 0 && r.backbone_ns > 0,
                    "{kind:?}: {precision:?} taps must be shipped afresh"
                );
                assert_eq!(&labels, want, "{kind:?} {precision:?}");
                let (labels, r) = vault.infer_batch(&mut session, &corpus, &nodes).unwrap();
                assert_eq!(r.transferred_bytes, 0, "{kind:?}");
                assert_eq!(&labels, want, "{kind:?} {precision:?}");
            }
        }
    }

    #[test]
    fn a_corpus_of_the_wrong_height_is_rejected() {
        let (mut vault, x, _) = toy_vault(RectifierKind::Series);
        let short = x.select_rows(&[0, 1, 2]).unwrap();
        let mut session = vault.open_session();
        assert!(matches!(
            vault.infer_batch(&mut session, &short, &[0]),
            Err(VaultError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn spawn_replicas_shares_one_snapshot_and_answers_identically() {
        let (mut vault, x, _) = toy_vault(RectifierKind::Series);
        let (labels, _) = vault.infer(&x).unwrap();
        let replicas = vault.spawn_replicas(2).unwrap();
        assert_eq!(replicas.len(), 2);
        for mut replica in replicas {
            assert_eq!(replica.epoch(), vault.epoch(), "same model, same epoch");
            let (replica_labels, _) = replica.infer(&x).unwrap();
            assert_eq!(replica_labels, labels);
        }
        assert!(vault.spawn_replicas(0).unwrap().is_empty());
    }

    #[test]
    fn recovery_handle_restores_a_bit_identical_replica() {
        let (mut vault, x, _) = toy_vault(RectifierKind::Series);
        let (labels, _) = vault.infer(&x).unwrap();
        let handle = vault.recovery_handle();
        assert_eq!(handle.epoch(), vault.epoch());
        assert_eq!(handle.num_nodes(), vault.num_nodes());
        // Cloning shares the sealed payload; both handles restore.
        let retained = handle.clone();
        for h in [handle, retained] {
            let mut revived = h.restore().unwrap();
            assert_eq!(revived.epoch(), vault.epoch());
            let (revived_labels, _) = revived.infer(&x).unwrap();
            assert_eq!(revived_labels, labels);
        }
        let debug = format!("{:?}", vault.recovery_handle());
        assert!(debug.contains("<redacted>"), "seal key must not leak");
        assert!(!debug.contains("SealKey(7"), "seal key must not leak");
    }

    #[test]
    fn epochs_and_session_ids_are_unique() {
        let (mut v1, _, _) = toy_vault(RectifierKind::Series);
        let (v2, _, _) = toy_vault(RectifierKind::Series);
        assert_ne!(v1.epoch(), v2.epoch());
        assert!(v1.epoch() > 0 && v2.epoch() > 0);
        let s0 = v1.open_session();
        let s1 = v1.open_session();
        assert_ne!(s0.id(), s1.id());
    }

    #[test]
    fn infer_node_rejects_out_of_range() {
        let (mut vault, x, _) = toy_vault(RectifierKind::Series);
        assert!(matches!(
            vault.infer_node(&x, 999),
            Err(VaultError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn tiny_epc_budget_rejects_deployment() {
        let x = DenseMatrix::from_rows(&[&[1.0], &[0.0]]).unwrap();
        let labels = vec![0usize, 1];
        let real = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let cfg = TrainConfig {
            epochs: 2,
            ..Default::default()
        };
        let backbone = Backbone::train(
            &x,
            &labels,
            &[0, 1],
            SubstituteKind::Knn { k: 1 },
            &[4, 2],
            1,
            &cfg,
            0,
        )
        .unwrap();
        let rectifier =
            Rectifier::new(RectifierKind::Series, &[4, 2], &backbone.channel_dims(), 0).unwrap();
        let result = Vault::deploy(
            backbone,
            rectifier,
            &real,
            16, // absurdly small EPC
            CostModel::free(),
            OverBudgetPolicy::Fail,
            SealKey(0),
        );
        assert!(matches!(
            result,
            Err(VaultError::Tee(tee::TeeError::EpcExhausted { .. }))
        ));
    }

    #[test]
    fn set_precision_switches_paths_and_accounting_reversibly() {
        for kind in RectifierKind::ALL {
            let (mut vault, x, _) = toy_vault(kind);
            assert_eq!(vault.precision(), Precision::F32);
            let (f32_labels, _) = vault.infer(&x).unwrap();
            let f32_resident = vault.enclave_in_use_bytes();

            vault.set_precision(Precision::Int8).unwrap();
            assert_eq!(vault.precision(), Precision::Int8);
            assert!(
                vault.enclave_in_use_bytes() < f32_resident,
                "{kind:?}: int8 parameters must shrink the resident set"
            );
            // Idempotent: a second switch is a no-op.
            vault.set_precision(Precision::Int8).unwrap();
            let resident_int8 = vault.enclave_in_use_bytes();
            vault.set_precision(Precision::Int8).unwrap();
            assert_eq!(vault.enclave_in_use_bytes(), resident_int8);

            let (int8_labels, _) = vault.infer(&x).unwrap();
            assert_eq!(
                int8_labels, f32_labels,
                "{kind:?}: int8 labels disagree with f32"
            );

            // Every query path dispatches the quantized model.
            let (node0, _) = vault.infer_node(&x, 0).unwrap();
            assert_eq!(node0, int8_labels[0], "{kind:?}");
            let mut session = vault.open_session();
            let nodes: Vec<usize> = (0..x.rows()).collect();
            let (batched, _) = vault.infer_batch(&mut session, &x, &nodes).unwrap();
            assert_eq!(batched, int8_labels, "{kind:?}");

            // Switching back restores the exact f32 path and ledger.
            vault.set_precision(Precision::F32).unwrap();
            assert_eq!(vault.precision(), Precision::F32);
            assert_eq!(vault.enclave_in_use_bytes(), f32_resident, "{kind:?}");
            let (back, _) = vault.infer(&x).unwrap();
            assert_eq!(back, f32_labels, "{kind:?}");
        }
    }

    #[test]
    fn int8_snapshot_restores_bit_identical_and_seals_smaller() {
        for kind in RectifierKind::ALL {
            let (mut vault, x, _) = toy_vault(kind);
            let f32_snapshot = vault.snapshot();
            vault.set_precision(Precision::Int8).unwrap();
            let snapshot = vault.snapshot();
            assert!(
                snapshot.sealed_nbytes() < f32_snapshot.sealed_nbytes(),
                "{kind:?}: int8 snapshot seals {} bytes, f32 {}",
                snapshot.sealed_nbytes(),
                f32_snapshot.sealed_nbytes()
            );
            let (labels, _) = vault.infer(&x).unwrap();

            let mut replica = Vault::restore(&snapshot, SealKey(7)).unwrap();
            assert_eq!(replica.precision(), Precision::Int8);
            assert_eq!(replica.epoch(), vault.epoch());
            let (replica_labels, _) = replica.infer(&x).unwrap();
            assert_eq!(
                replica_labels, labels,
                "{kind:?}: int8 replica must answer bit-identically"
            );
            // Re-snapshot reads the stored codes, so the replica seals
            // the identical bytes — replicas of replicas stay coherent.
            assert_eq!(replica.snapshot(), snapshot, "{kind:?}");
            // The recovery path preserves the precision too.
            let mut revived = replica.recovery_handle().restore().unwrap();
            assert_eq!(revived.precision(), Precision::Int8);
            let (revived_labels, _) = revived.infer(&x).unwrap();
            assert_eq!(revived_labels, labels, "{kind:?}");
        }
    }
}
