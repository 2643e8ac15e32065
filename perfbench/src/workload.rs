//! The three workloads and the fixture each one serves.
//!
//! The graph, the features and the trained models are fixed: only the
//! request streams come from `--seed`, so runs with different seeds
//! measure the same program on different traffic.

use crate::gen::{CyclicScan, SplitMix64, Zipf};
use datasets::{CitationDataset, DatasetSpec, SyntheticPlanetoid};
use gnnvault::pipeline::{self, PipelineConfig};
use gnnvault::{ModelConfig, Rectifier, RectifierKind, SubstituteKind, Vault, VaultSnapshot};
use serve::{ServeConfig, Topology};
use std::time::{Duration, Instant};
use tee::ClassLabel;

/// Seed of the synthetic graph and of the first model's training run.
const FIXTURE_SEED: u64 = 11;

/// Which nodes the requests ask for.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Single-node requests with Zipf(s) popularity.
    Zipf { s: f64 },
    /// Requests of `1..=max_nodes` nodes from a cyclic scan.
    Scan { max_nodes: usize },
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: DatasetSpec,
    pub scale: f64,
    pub epochs: usize,
    /// Models trained on the same graph (see [`Workload::train`]); the
    /// swaps alternate between them.
    pub models: usize,
    pub traffic: Traffic,
    /// Open-loop arrival rate, requests per second.
    pub open_rate: f64,
    pub config: ServeConfig,
    /// Fields of `config` this workload sets away from the default.
    pub config_fields: &'static str,
    /// Deploy period while reads run; `None` runs a deploy drill on the
    /// idle engine after the read phases instead.
    pub swap_every: Option<Duration>,
    /// Shares of `--seconds` given to the open-loop and closed-loop phases.
    pub open_share: f64,
    pub closed_share: f64,
    /// Rounds between two timed trainings: the fixture's training and
    /// one after the last round are always timed.
    pub train_every: usize,
    /// Engine starts timed for `setup_s` in each round.
    pub setups: usize,
}

/// Requests in flight during the closed-loop phase.
pub const CLOSED_WINDOW: usize = 64;
/// Rounds a run is cut into. Each round starts its own engine and runs
/// a slice of every phase, so every metric samples the whole run and a
/// machine stall of a few seconds spoils a minority of its samples.
pub const ROUNDS: usize = 8;
/// Deploys per round in the idle-engine drill of the workloads without
/// live swaps.
pub const DRILL_DEPLOYS: usize = 40;
/// Attributed clients the requests rotate through.
pub const CLIENTS: u64 = 4;

pub fn by_name(name: &str) -> Option<Workload> {
    let cora =
        |name, traffic, open_rate, config, config_fields, swap_every: Option<Duration>| Workload {
            name,
            dataset: DatasetSpec::CORA,
            scale: 0.2,
            epochs: 60,
            models: if swap_every.is_some() { 2 } else { 1 },
            traffic,
            open_rate,
            config,
            config_fields,
            swap_every,
            open_share: 0.6,
            closed_share: 0.3,
            train_every: 2,
            setups: 2,
        };
    match name {
        "hot_zipf" => Some(cora(
            "hot_zipf",
            Traffic::Zipf { s: 1.1 },
            500.0,
            ServeConfig::default(),
            "none (ServeConfig::default())",
            None,
        )),
        "cold_scan" => Some(Workload {
            name: "cold_scan",
            dataset: DatasetSpec::PUBMED,
            scale: 0.3,
            epochs: 20,
            models: 1,
            traffic: Traffic::Scan { max_nodes: 8 },
            open_rate: 5.0,
            config: ServeConfig::default(),
            config_fields: "none (ServeConfig::default())",
            swap_every: None,
            open_share: 0.8,
            closed_share: 0.1,
            train_every: 4,
            setups: 1,
        }),
        "swap_mixed" => Some(cora(
            "swap_mixed",
            Traffic::Zipf { s: 1.1 },
            300.0,
            ServeConfig {
                shards: 2,
                topology: Topology::Partitioned,
                ..ServeConfig::default()
            },
            "shards=2 topology=Partitioned",
            Some(Duration::from_millis(150)),
        )),
        _ => None,
    }
}

pub const NAMES: [&str; 3] = ["hot_zipf", "cold_scan", "swap_mixed"];

/// One trained model: its sealed snapshot, the labels the vault itself
/// gives every node, and the trained rectifier for the layer replay.
pub struct Model {
    pub snapshot: VaultSnapshot,
    pub reference: Vec<ClassLabel>,
    pub rectifier: Rectifier,
}

pub struct Fixture {
    pub data: CitationDataset,
    pub models: Vec<Model>,
    /// Wall time of `pipeline::train` + `pipeline::deploy`, per model.
    pub train_s: f64,
}

impl Workload {
    pub fn pipeline_config(&self, classes: usize, model: usize) -> PipelineConfig {
        PipelineConfig {
            model: ModelConfig::m1(classes),
            substitute: SubstituteKind::Knn { k: 2 },
            rectifier: RectifierKind::Series,
            epochs: self.epochs,
            train_original: false,
            seed: FIXTURE_SEED + model as u64,
            ..Default::default()
        }
    }

    pub fn dataset(&self) -> CitationDataset {
        SyntheticPlanetoid::new(self.dataset)
            .scale(self.scale)
            .seed(FIXTURE_SEED)
            .generate()
            .expect("the fixed synthetic dataset generates")
    }

    /// Trains and deploys every model, takes the reference labels from
    /// each vault's own full-graph inference, and seals its snapshot.
    pub fn fixture(&self) -> Result<Fixture, String> {
        let data = self.dataset();
        let mut models = Vec::new();
        let mut train_s = 0.0;
        for m in 0..self.models {
            let start = Instant::now();
            let (mut vault, rectifier) = self.train(&data, m)?;
            train_s += start.elapsed().as_secs_f64() / self.models as f64;
            let (reference, _) = vault.infer(&data.features).map_err(|e| e.to_string())?;
            models.push(Model {
                snapshot: vault.snapshot(),
                reference,
                rectifier,
            });
        }
        Ok(Fixture {
            data,
            models,
            train_s,
        })
    }

    /// `pipeline::train` + `pipeline::deploy` of model `m`; also returns
    /// the trained rectifier, which the vault keeps sealed.
    ///
    /// Model `m > 0` is trained with another seed and with every class
    /// label rotated by `m`. Models trained on the true labels of this
    /// easy graph agree on about 99% of nodes, where a stale answer
    /// would pass for a fresh one; rotated models disagree almost
    /// everywhere, so the swap workload's stale-label check has power.
    fn train(&self, data: &CitationDataset, m: usize) -> Result<(Vault, Rectifier), String> {
        let config = self.pipeline_config(data.num_classes, m);
        let mut rotated;
        let data = if m == 0 {
            data
        } else {
            rotated = data.clone();
            for label in &mut rotated.labels {
                *label = (*label + m) % data.num_classes;
            }
            &rotated
        };
        let trained = pipeline::train(data, &config).map_err(|e| e.to_string())?;
        let rectifier = trained.rectifier.clone();
        let vault = pipeline::deploy(trained, data).map_err(|e| e.to_string())?;
        Ok((vault, rectifier))
    }

    /// Wall time of training and deploying every model again, per
    /// model. Training is deterministic, so the models are the same.
    pub fn time_training(&self, data: &CitationDataset) -> Result<f64, String> {
        let start = Instant::now();
        for m in 0..self.models {
            self.train(data, m)?;
        }
        Ok(start.elapsed().as_secs_f64() / self.models as f64)
    }

    /// The seeded request stream: node lists in send order.
    pub fn stream(&self, num_nodes: usize, rng: &mut SplitMix64) -> RequestStream {
        match self.traffic {
            Traffic::Zipf { s } => RequestStream::Zipf(Zipf::new(num_nodes, s, rng)),
            Traffic::Scan { max_nodes } => {
                RequestStream::Scan(CyclicScan::new(num_nodes, max_nodes, rng))
            }
        }
    }
}

pub enum RequestStream {
    Zipf(Zipf),
    Scan(CyclicScan),
}

impl RequestStream {
    pub fn next(&mut self, rng: &mut SplitMix64) -> Vec<usize> {
        match self {
            RequestStream::Zipf(zipf) => vec![zipf.sample(rng)],
            RequestStream::Scan(scan) => scan.request(rng),
        }
    }

    /// Warm-up requests: every node once (in 64-node requests) for Zipf
    /// traffic, so the timed phases find every node cached; the next
    /// stretch of a scan, whose timed phases continue the same cycle.
    pub fn warmup(&mut self, num_nodes: usize, rng: &mut SplitMix64) -> Vec<Vec<usize>> {
        match self {
            RequestStream::Zipf(_) => rng
                .permutation(num_nodes)
                .chunks(64)
                .map(<[usize]>::to_vec)
                .collect(),
            RequestStream::Scan(_) => (0..8).map(|_| self.next(rng)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_scan_cycle_outlasts_the_default_result_cache() {
        let cold = by_name("cold_scan").expect("cold_scan is defined");
        let nodes = cold.dataset().num_nodes();
        let mut rng = SplitMix64::new(1);
        let RequestStream::Scan(scan) = cold.stream(nodes, &mut rng) else {
            panic!("cold_scan scans");
        };
        assert_eq!(scan.cycle_len(), nodes);
        assert!(scan.cycle_len() > cold.config.cache_capacity);
        assert_eq!(
            cold.config.cache_capacity,
            ServeConfig::default().cache_capacity
        );
    }

    #[test]
    fn every_named_workload_is_defined() {
        for name in NAMES {
            assert_eq!(by_name(name).map(|w| w.name), Some(name));
        }
        assert!(by_name("nope").is_none());
    }
}
