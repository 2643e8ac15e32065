//! Criterion benchmarks of end-to-end GNNVault inference — the code
//! paths behind Fig. 6's per-design totals — on a small fixed dataset so
//! `cargo bench` stays fast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::{DatasetSpec, SyntheticPlanetoid};
use gnnvault::{pipeline, Backbone, ModelConfig, Rectifier, RectifierKind, SubstituteKind, Vault};
use linalg::DenseMatrix;
use std::sync::Arc;

fn build_vault(kind: RectifierKind) -> (Vault, DenseMatrix) {
    let data = SyntheticPlanetoid::new(DatasetSpec::CORA)
        .scale(0.05)
        .seed(9)
        .generate()
        .expect("dataset");
    let trained = pipeline::train(
        &data,
        &pipeline::PipelineConfig {
            model: ModelConfig::custom("bench", &[32, 16, 7], &[16, 8, 7]),
            substitute: SubstituteKind::Knn { k: 2 },
            rectifier: kind,
            epochs: 30,
            train_original: false,
            ..Default::default()
        },
    )
    .expect("training");
    let features = data.features.clone();
    (pipeline::deploy(trained, &data).expect("deploy"), features)
}

fn bench_vault_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("vault_inference_cora_small");
    for kind in RectifierKind::ALL {
        let (mut vault, features) = build_vault(kind);
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |bencher, _| bencher.iter(|| vault.infer(&features).expect("inference")),
        );
    }
    group.finish();
}

/// A deployed vault over a random graph with Cora's node and edge
/// counts times `scale` (so Cora's mean degree), 32 random features and
/// the M1 widths, bound to its corpus. The synthetic Planetoid generator
/// only scales down, so this graph stands in for Cora ×4 as well; a
/// random substitute graph and a few epochs keep set-up cheap — the
/// weights do not change what a batch costs.
fn closure_vault(scale: f64) -> (Vault, Arc<DenseMatrix>) {
    let spec = DatasetSpec::CORA;
    let n = (spec.num_nodes as f64 * scale).round() as usize;
    // SplitMix64: a seeded stream without a dependency.
    let mut state = 23u64;
    let mut draw = move |bound: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    let mut edges = Vec::new();
    while edges.len() < (spec.undirected_edges() as f64 * scale).round() as usize {
        let (u, v) = (draw(n), draw(n));
        if u != v {
            edges.push((u, v));
        }
    }
    let real = graph::Graph::from_edges(n, &edges).expect("graph");
    let x = DenseMatrix::from_fn(n, 32, |_, _| draw(1000) as f32 / 1000.0);
    let labels: Vec<usize> = (0..n).map(|_| draw(spec.num_classes)).collect();
    let train: Vec<usize> = (0..n).step_by(4).collect();
    let model = ModelConfig::m1(spec.num_classes);
    let cfg = nn::TrainConfig {
        epochs: 3,
        ..Default::default()
    };
    let backbone = Backbone::train(
        &x,
        &labels,
        &train,
        SubstituteKind::Random { ratio: 1.0 },
        &model.backbone_channels,
        real.num_edges(),
        &cfg,
        1,
    )
    .expect("backbone");
    let rectifier = Rectifier::new(
        RectifierKind::Series,
        &model.rectifier_channels,
        &backbone.channel_dims(),
        2,
    )
    .expect("rectifier");
    let mut vault = Vault::deploy(
        backbone,
        rectifier,
        &real,
        tee::SGX_EPC_BYTES,
        tee::CostModel::default(),
        tee::OverBudgetPolicy::Swap,
        tee::SealKey(4),
    )
    .expect("deploy");
    let corpus = Arc::new(x);
    vault.bind_features(Arc::clone(&corpus));
    (vault, corpus)
}

fn bench_vault_closure(c: &mut Criterion) {
    // Steady-state batches over a bound corpus: taps are resident, so a
    // batch costs its L-hop closure, not the graph. One-node rows should
    // stay flat from Cora ×0.2 to ×4; 64-node rows grow with the share of
    // the graph 64 closures cover.
    let mut group = c.benchmark_group("vault_closure");
    for scale in [0.2, 1.0, 4.0] {
        let (mut vault, corpus) = closure_vault(scale);
        let n = vault.num_nodes();
        let mut session = vault.open_session();
        vault
            .infer_batch(&mut session, &corpus, &[0])
            .expect("the first batch makes the taps resident");
        for size in [1usize, 64] {
            let mut next = 0usize;
            group.bench_function(BenchmarkId::new(format!("n{n}"), size), |bencher| {
                bencher.iter(|| {
                    let nodes: Vec<usize> = (0..size).map(|i| (next + i * 7919) % n).collect();
                    next = (next + 1) % n;
                    vault
                        .infer_batch(&mut session, &corpus, &nodes)
                        .expect("batch")
                })
            });
        }
    }
    group.finish();
}

fn bench_rectifier_training_epoch(c: &mut Criterion) {
    use graph::normalization;
    use nn::TrainConfig;

    let data = SyntheticPlanetoid::new(DatasetSpec::CORA)
        .scale(0.05)
        .seed(9)
        .generate()
        .expect("dataset");
    let trained = pipeline::train(
        &data,
        &pipeline::PipelineConfig {
            model: ModelConfig::custom("bench", &[32, 16, 7], &[16, 8, 7]),
            substitute: SubstituteKind::Knn { k: 2 },
            rectifier: RectifierKind::Parallel,
            epochs: 5,
            train_original: false,
            ..Default::default()
        },
    )
    .expect("training");
    let real_adj = normalization::gcn_normalize(&data.graph);
    let embeddings = trained
        .backbone
        .embeddings(&data.features)
        .expect("embeddings");
    let one_epoch = TrainConfig {
        epochs: 1,
        lr: 0.01,
        weight_decay: 5e-4,
        dropout: 0.0,
        seed: 0,
    };
    c.bench_function("rectifier_train_epoch", |bencher| {
        bencher.iter_batched(
            || trained.rectifier.clone(),
            |mut rect| {
                rect.fit(
                    &real_adj,
                    &embeddings,
                    &data.labels,
                    &data.train_mask,
                    &one_epoch,
                )
                .expect("epoch")
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_vault_inference,
    bench_vault_closure,
    bench_rectifier_training_epoch
);
criterion_main!(benches);
