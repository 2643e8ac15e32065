//! Query-bounded inference answers exactly what full-graph inference
//! answers.
//!
//! A batch is rectified over its L-hop closure in the real graph only,
//! from taps shipped per call (unbound features) or kept resident in
//! the enclave (a bound corpus). This property test draws random
//! graphs with a hub, random models, and batches with duplicates, the
//! hub plus its neighbours, and every node, and checks every label
//! against full-graph [`Vault::infer`] on full vaults and on partition
//! replicas, for every rectifier wiring × convolution × precision.
//! Rectifiers stay untrained, so their random weights put many nodes
//! near a decision boundary where a wrong closure shows.

use gnnvault::{Backbone, Precision, Rectifier, RectifierKind, SubstituteKind, Vault};
use graph::partition::PartitionSpec;
use graph::Graph;
use linalg::DenseMatrix;
use nn::{ConvKind, TrainConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tee::{ClassLabel, CostModel, OverBudgetPolicy, SealKey};

const CLASSES: usize = 4;
const CHANNELS: [usize; 3] = [8, 6, CLASSES];

/// A sparse random graph plus one hub wired to about a third of the
/// nodes.
fn random_graph(n: usize, rng: &mut StdRng) -> Graph {
    let hub = rng.gen_range(0..n);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(2.0 / n as f64) {
                edges.push((u, v));
            }
        }
        if u != hub && rng.gen_bool(0.35) {
            edges.push((hub, u));
        }
    }
    Graph::from_edges(n, &edges).unwrap()
}

/// Batches: duplicates, the highest-degree hub with its neighbours,
/// every node.
fn batches(graph: &Graph, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let n = graph.num_nodes();
    let degrees = graph.degrees();
    let hub = (0..n).max_by_key(|&v| degrees[v]).unwrap();
    let mut hub_batch = graph.neighbors(hub);
    hub_batch.insert(0, hub);
    let mut out = vec![hub_batch, (0..n).collect()];
    for size in [1, 3, 7] {
        let mut batch: Vec<usize> = (0..size).map(|_| rng.gen_range(0..n)).collect();
        batch.push(batch[0]);
        out.push(batch);
    }
    out
}

fn deploy(
    graph: &Graph,
    backbone: &Backbone,
    kind: RectifierKind,
    conv: ConvKind,
    seed: u64,
) -> Vault {
    let rectifier =
        Rectifier::new_with_conv(kind, conv, &CHANNELS, &backbone.channel_dims(), seed).unwrap();
    Vault::deploy(
        backbone.clone(),
        rectifier,
        graph,
        tee::SGX_EPC_BYTES,
        CostModel::free(),
        OverBudgetPolicy::Fail,
        SealKey(5),
    )
    .unwrap()
}

/// Runs `batch` through `vault` and checks it against `full`.
fn check(
    vault: &mut Vault,
    features: &DenseMatrix,
    batch: &[usize],
    full: &[ClassLabel],
    what: &str,
) {
    let mut session = vault.open_session();
    let (labels, _) = vault.infer_batch(&mut session, features, batch).unwrap();
    let want: Vec<ClassLabel> = batch.iter().map(|&n| full[n]).collect();
    prop_assert_eq!(labels, want, "{} batch {:?}", what, batch);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn closure_batches_match_full_graph_inference(
        n in 12usize..36,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(n, &mut rng);
        let x = DenseMatrix::from_fn(n, 5, |_, _| rng.gen_range(-1.0f32..1.0));
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..CLASSES)).collect();
        let cfg = TrainConfig { epochs: 3, dropout: 0.0, ..TrainConfig::default() };
        let train: Vec<usize> = (0..n).collect();
        let backbone = Backbone::train(
            &x, &labels, &train, SubstituteKind::Knn { k: 2 }, &CHANNELS,
            graph.num_edges(), &cfg, seed,
        ).unwrap();
        let batches = batches(&graph, &mut rng);
        let corpus = Arc::new(x.clone());
        let specs = [
            PartitionSpec::block(n, 3).unwrap(),
            PartitionSpec::hash(n, 2, seed).unwrap(),
        ];

        for kind in RectifierKind::ALL {
            for conv in [ConvKind::Gcn, ConvKind::Sage, ConvKind::Gat] {
                for precision in Precision::ALL {
                    let what = format!("{kind:?}/{conv:?}/{precision:?}");
                    let mut vault = deploy(&graph, &backbone, kind, conv, seed);
                    vault.set_precision(precision).unwrap();
                    let (full, _) = vault.infer(&x).unwrap();
                    for batch in &batches {
                        check(&mut vault, &x, batch, &full, &format!("{what} unbound"));
                    }
                    vault.bind_features(Arc::clone(&corpus));
                    for batch in &batches {
                        check(&mut vault, &corpus, batch, &full, &format!("{what} bound"));
                    }
                    for spec in &specs {
                        for mut part in vault.spawn_partitions(spec).unwrap() {
                            let owned = part.owned_nodes().to_vec();
                            part.bind_features(Arc::clone(&corpus));
                            for batch in &batches {
                                let local: Vec<usize> = batch
                                    .iter()
                                    .copied()
                                    .filter(|v| owned.binary_search(v).is_ok())
                                    .collect();
                                if local.is_empty() {
                                    continue;
                                }
                                let tag = format!("{what} partition {:?}", part.partition_info());
                                check(&mut part, &x, &local, &full, &format!("{tag} unbound"));
                                check(&mut part, &corpus, &local, &full, &format!("{tag} bound"));
                            }
                        }
                    }
                }
            }
        }
    }
}
