//! Per-layer replay for the traced run: spans around calls into each
//! module's public functions, on the workload's own graph and model.

use crate::gen::SplitMix64;
use crate::trace::Recorder;
use crate::workload::Fixture;
use crate::{median, Metric};
use gnnvault::pipeline::DEPLOY_SEAL_KEY;
use gnnvault::Vault;
use graph::partition::PartitionSpec;
use rand::SeedableRng;
use std::time::Instant;
use tee::codec;

/// Output width of the backbone's first layer (M1) and of the GEMM and
/// SpMM shapes measured here.
const WIDTH: usize = 128;
const KIB: f64 = 1024.0;
const MIB: f64 = 1024.0 * 1024.0;

/// Runs `f` `reps` times under spans called `name`.
fn timed<R>(rec: &mut Recorder, name: &'static str, reps: usize, mut f: impl FnMut() -> R) -> R {
    let mut last = None;
    for seq in 0..reps {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        rec.record(name, seq as u64, 0, start, Instant::now());
        last = Some(out);
    }
    last.expect("at least one repetition")
}

/// Replays the layers of model 0 `reps` times each and returns the
/// per-layer metrics. Fails when the replay disagrees with the vault's
/// reference labels, or when the bytes shipped into the enclave depend
/// on which nodes a batch asks for.
pub fn replay(
    fx: &Fixture,
    reps: usize,
    seed: u64,
    rec: &mut Recorder,
) -> Result<Vec<Metric>, String> {
    let data = &fx.data;
    let model = &fx.models[0];
    let n = data.num_nodes();
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut out = Vec::new();
    let med = |rec: &Recorder, name: &str| median(&rec.durations_ms(name));

    // gnnvault: snapshot restore and the partition re-cut.
    let vault = timed(rec, "snapshot.restore", reps, || {
        Vault::restore(&model.snapshot, DEPLOY_SEAL_KEY)
    })
    .map_err(|e| err(&e))?;
    let spec = PartitionSpec::block(n, 2).map_err(|e| err(&e))?;
    timed(rec, "snapshot.partition", reps, || {
        vault.spawn_partitions(&spec)
    })
    .map_err(|e| err(&e))?;
    out.push(Metric::new(
        "snapshot.restore_ms",
        med(rec, "snapshot.restore"),
        "ms",
    ));
    out.push(Metric::new(
        "snapshot.partition_ms",
        med(rec, "snapshot.partition"),
        "ms",
    ));
    out.push(Metric::new(
        "snapshot.sealed_kb",
        model.snapshot.sealed_nbytes() as f64 / KIB,
        "KiB",
    ));

    // graph: normalization and the edge-cut partitioner.
    let halo = model.rectifier.num_layers();
    timed(rec, "graph.normalize", reps, || {
        graph::normalization::gcn_normalize(&data.graph)
    });
    timed(rec, "graph.partition", reps, || {
        graph::partition::partition(&data.graph, &spec, halo)
    })
    .map_err(|e| err(&e))?;
    out.push(Metric::new(
        "graph.normalize_ms",
        med(rec, "graph.normalize"),
        "ms",
    ));
    out.push(Metric::new(
        "graph.partition_ms",
        med(rec, "graph.partition"),
        "ms",
    ));

    // The split pipeline, stage by stage: backbone, tap codec,
    // rectifier, argmax, under one parent whose self time is what no
    // child accounts for.
    let backbone = vault.backbone();
    let adjacency = model.rectifier.preferred_adjacency(&data.graph);
    let taps = model.rectifier.tap_indices();
    let substitute = backbone
        .substitute_graph()
        .ok_or("the workload's backbone has no substitute graph")?;
    let sub_adj = graph::normalization::gcn_normalize(substitute);
    for seq in 0..reps as u64 {
        let parent = rec.reserve();
        let start = Instant::now();
        let mut embeddings = backbone.embeddings(&data.features).map_err(|e| err(&e))?;
        let t1 = Instant::now();
        rec.record("vault.backbone", seq, parent, start, t1);
        for &t in &taps {
            let payload = codec::encode_dense(&embeddings[t]);
            embeddings[t] = codec::decode_dense(&payload).map_err(|e| err(&e))?;
        }
        let t2 = Instant::now();
        rec.record("tee.codec", seq, parent, t1, t2);
        let forward = model
            .rectifier
            .forward(&adjacency, &embeddings)
            .map_err(|e| err(&e))?;
        let t3 = Instant::now();
        rec.record("vault.rectifier", seq, parent, t2, t3);
        let labels = linalg::ops::argmax_rows(forward.logits());
        let t4 = Instant::now();
        rec.record("vault.argmax", seq, parent, t3, t4);
        let agrees = labels.iter().zip(&model.reference).all(|(&l, r)| l == r.0);
        // Freeing the stage outputs is part of the replay but of no
        // child span: it shows up as unattributed self time.
        drop((embeddings, forward, labels));
        rec.record_as(parent, "vault.replay", seq, start, Instant::now());
        if !agrees {
            return Err("the layer replay disagrees with the vault's own labels".into());
        }
    }
    out.push(Metric::new(
        "vault.backbone_ms",
        med(rec, "vault.backbone"),
        "ms",
    ));
    out.push(Metric::new("tee.codec_ms", med(rec, "tee.codec"), "ms"));
    out.push(Metric::new(
        "vault.rectifier_ms",
        med(rec, "vault.rectifier"),
        "ms",
    ));
    out.push(Metric::new(
        "vault.argmax_ms",
        med(rec, "vault.argmax"),
        "ms",
    ));
    out.push(Metric::new(
        "vault.unattributed_ms",
        median(&rec.self_times_ms("vault.replay")),
        "ms",
    ));

    // Whole batches through the vault's own entry point, on 1 and on 64
    // seeded nodes. The tap set shipped must not depend on the nodes.
    let mut vault = vault;
    let mut session = vault.open_session();
    let mut rng = SplitMix64::new(seed ^ 0x5EED);
    let mut bytes = Vec::new();
    let (mut modeled_transfer, mut modeled_enclave) = (Vec::new(), Vec::new());
    let mut last = None;
    for (name, size) in [("vault.batch", 1), ("vault.batch64", 64)] {
        for seq in 0..reps as u64 {
            let nodes: Vec<usize> = rng.permutation(n)[..size].to_vec();
            let start = Instant::now();
            let (labels, report) = vault
                .infer_batch(&mut session, &data.features, &nodes)
                .map_err(|e| err(&e))?;
            rec.record(name, seq, 0, start, Instant::now());
            if nodes
                .iter()
                .zip(&labels)
                .any(|(&node, &l)| model.reference[node] != l)
            {
                return Err(format!(
                    "{name}: a label differs from the vault's reference"
                ));
            }
            // The meter is reset at the start of every batch, so it now
            // holds this batch's breakdown; simulated time is kept apart
            // from wall time.
            let phases = vault.meter().breakdown();
            let simulated = |p| {
                phases
                    .get(&p)
                    .map_or(0, |t: &tee::TimeBreakdown| t.simulated_ns) as f64
                    / 1e6
            };
            modeled_transfer.push(simulated(tee::Phase::Transfer));
            modeled_enclave.push(simulated(tee::Phase::Enclave) + simulated(tee::Phase::PageSwap));
            bytes.push(report.transferred_bytes);
            last = Some(report);
        }
    }
    if bytes.iter().any(|&b| b != bytes[0]) {
        return Err(format!(
            "bytes shipped into the enclave depend on the batch: {bytes:?}"
        ));
    }
    let report = last.expect("at least one batch");
    out.push(Metric::new("vault.batch_ms", med(rec, "vault.batch"), "ms"));
    out.push(Metric::new(
        "vault.batch64_ms",
        med(rec, "vault.batch64"),
        "ms",
    ));
    out.push(Metric::new(
        "vault.transfer_kb",
        report.transferred_bytes as f64 / KIB,
        "KiB",
    ));
    out.push(Metric::new(
        "vault.transitions",
        report.transitions as f64,
        "count",
    ));
    out.push(Metric::new(
        "vault.epc_peak_kb",
        report.peak_enclave_bytes as f64 / KIB,
        "KiB",
    ));
    out.push(Metric::new(
        "vault.transfer_modeled_ms",
        median(&modeled_transfer),
        "ms",
    ));
    out.push(Metric::new(
        "vault.enclave_modeled_ms",
        median(&modeled_enclave),
        "ms",
    ));

    // nn and linalg at the backbone's first-layer shape on the public
    // substitute graph: one GCN layer, then its two kernels alone.
    let f = data.features.cols();
    let layer = nn::GcnLayer::new(f, WIDTH, &mut rand::rngs::StdRng::seed_from_u64(seed));
    timed(rec, "nn.gcn_layer", reps, || {
        layer.forward(&sub_adj, &data.features)
    })
    .map_err(|e| err(&e))?;
    let projected = timed(rec, "linalg.gemm", reps, || {
        linalg::matmul(&data.features, &layer.weight().value)
    })
    .map_err(|e| err(&e))?;
    timed(rec, "linalg.spmm", reps, || sub_adj.spmm(&projected)).map_err(|e| err(&e))?;
    out.push(Metric::new(
        "nn.gcn_layer_ms",
        med(rec, "nn.gcn_layer"),
        "ms",
    ));
    // Operation counts and bytes moved are computed from the shapes:
    // each operand read once and the result written once.
    let (nf, k) = ((n * f) as f64, WIDTH as f64);
    out.push(Metric::new("linalg.gemm_ms", med(rec, "linalg.gemm"), "ms"));
    out.push(Metric::new(
        "linalg.gemm_mflop",
        2.0 * nf * k / 1e6,
        "Mflop",
    ));
    out.push(Metric::new(
        "linalg.gemm_mib",
        4.0 * (nf + f as f64 * k + n as f64 * k) / MIB,
        "MiB",
    ));
    let nnz = sub_adj.nnz() as f64;
    out.push(Metric::new("linalg.spmm_ms", med(rec, "linalg.spmm"), "ms"));
    out.push(Metric::new(
        "linalg.spmm_mflop",
        2.0 * nnz * k / 1e6,
        "Mflop",
    ));
    out.push(Metric::new(
        "linalg.spmm_mib",
        (nnz * 12.0 + (n as f64 + 1.0) * 8.0 + 2.0 * 4.0 * n as f64 * k) / MIB,
        "MiB",
    ));
    Ok(out)
}
