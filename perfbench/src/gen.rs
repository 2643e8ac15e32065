//! Deterministic request generators. Every stream is a pure function of
//! the `--seed` argument, so two runs with one seed send the engine the
//! same node ids on the same schedule.

/// SplitMix64 (Steele, Lea and Flood): the benchmark's only source of
/// randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; the modulo bias is below 2^-40 for the
    /// graph sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, self.below(i + 1));
        }
        perm
    }
}

/// Zipf(s) popularity over a seeded permutation of the node ids: rank
/// `r` has weight `1 / (r + 1)^s` and maps to node `perm[r]`, so which
/// nodes are hot depends on the seed but the skew does not.
#[derive(Debug, Clone)]
pub struct Zipf {
    perm: Vec<usize>,
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(num_nodes: usize, s: f64, rng: &mut SplitMix64) -> Self {
        let perm = rng.permutation(num_nodes);
        let mut cdf = Vec::with_capacity(num_nodes);
        let mut total = 0.0;
        for rank in 0..num_nodes {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { perm, cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.perm[rank]
    }
}

/// An endless scan over a seeded permutation of the node ids, cut into
/// requests of `1..=max_nodes` consecutive nodes. A node recurs only
/// after every other node has been asked for once.
#[derive(Debug, Clone)]
pub struct CyclicScan {
    perm: Vec<usize>,
    next: usize,
    max_nodes: usize,
}

impl CyclicScan {
    pub fn new(num_nodes: usize, max_nodes: usize, rng: &mut SplitMix64) -> Self {
        Self {
            perm: rng.permutation(num_nodes),
            next: 0,
            max_nodes,
        }
    }

    /// Nodes between two requests for the same node.
    #[cfg(test)]
    pub fn cycle_len(&self) -> usize {
        self.perm.len()
    }

    pub fn request(&mut self, rng: &mut SplitMix64) -> Vec<usize> {
        let len = 1 + rng.below(self.max_nodes);
        (0..len)
            .map(|_| {
                let node = self.perm[self.next];
                self.next = (self.next + 1) % self.perm.len();
                node
            })
            .collect()
    }
}

/// Send offsets, in seconds from the phase start, of a Poisson process
/// with `rate` arrivals per second, up to `horizon` seconds.
pub fn poisson_schedule(rate: f64, horizon: f64, rng: &mut SplitMix64) -> Vec<f64> {
    let mut at = 0.0;
    let mut out = Vec::with_capacity((rate * horizon * 1.1) as usize + 16);
    loop {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        at += -(1.0 - rng.next_f64()).ln() / rate;
        if at >= horizon {
            return out;
        }
        out.push(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_streams() {
        let streams = |seed| {
            let mut rng = SplitMix64::new(seed);
            let zipf = Zipf::new(542, 1.1, &mut rng);
            let hot: Vec<usize> = (0..1000).map(|_| zipf.sample(&mut rng)).collect();
            let mut scan = CyclicScan::new(5915, 8, &mut rng);
            let cold: Vec<Vec<usize>> = (0..200).map(|_| scan.request(&mut rng)).collect();
            let times = poisson_schedule(500.0, 2.0, &mut rng);
            (hot, cold, times)
        };
        assert_eq!(streams(7), streams(7));
        assert_ne!(streams(7), streams(8));
    }

    #[test]
    fn a_scan_asks_for_every_node_once_per_cycle() {
        let mut rng = SplitMix64::new(1);
        let mut scan = CyclicScan::new(5915, 8, &mut rng);
        let first: Vec<usize> = std::iter::repeat_with(|| scan.request(&mut rng))
            .flatten()
            .take(2 * 5915)
            .collect();
        let mut seen = first[..5915].to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..5915).collect::<Vec<_>>());
        assert_eq!(first[..5915], first[5915..]);
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks() {
        let mut rng = SplitMix64::new(3);
        let zipf = Zipf::new(542, 1.1, &mut rng);
        let hottest = zipf.perm[0];
        let hits = (0..10_000)
            .filter(|_| zipf.sample(&mut rng) == hottest)
            .count();
        // Rank 0 carries 1 / H(542, 1.1) of the mass, about 19%.
        assert!((1_700..2_100).contains(&hits), "{hits}");
    }

    #[test]
    fn poisson_rate_is_respected() {
        let mut rng = SplitMix64::new(5);
        let n = poisson_schedule(500.0, 20.0, &mut rng).len();
        assert!((9_600..10_400).contains(&n), "{n}");
    }
}
