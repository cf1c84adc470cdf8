//! Experiment drivers: replay update streams through an algorithm in
//! `k`-update batches, aggregate amortized costs, and fit growth exponents
//! across input sizes.

use crate::algorithm::DynamicGraphAlgorithm;
use dmpc_graph::Update;
use dmpc_mpc::{loglog_slope, AggregateMetrics, BatchMetrics};

/// Replays `updates` in batches of `k` through the algorithm's
/// [`DynamicGraphAlgorithm::apply_batch`], merging the per-batch costs into
/// one amortizable total.
pub fn run_stream_batched<A: DynamicGraphAlgorithm + ?Sized>(
    alg: &mut A,
    updates: &[Update],
    k: usize,
) -> BatchMetrics {
    let mut total = BatchMetrics::default();
    for batch in updates.chunks(k.max(1)) {
        total.merge(&alg.apply_batch(batch));
    }
    total
}

/// One measured point of a scaling sweep.
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Input size `N = n + m_max`.
    pub input_size: usize,
    /// Aggregated metrics at this size.
    pub agg: AggregateMetrics,
}

/// A scaling sweep over input sizes, with log-log slope fits against `N` for
/// the three Table-1 quantities.
#[derive(Clone, Debug, Default)]
pub struct ScalingSweep {
    /// The measured points, in increasing `N`.
    pub points: Vec<ScalingPoint>,
}

impl ScalingSweep {
    /// Adds a measured point.
    pub fn push(&mut self, input_size: usize, agg: AggregateMetrics) {
        self.points.push(ScalingPoint { input_size, agg });
    }

    fn slope_of<F: Fn(&AggregateMetrics) -> f64>(&self, f: F) -> f64 {
        let pts: Vec<(f64, f64)> = self
            .points
            .iter()
            .map(|p| (p.input_size as f64, f(&p.agg).max(1.0)))
            .collect();
        loglog_slope(&pts)
    }

    /// Growth exponent of worst-case rounds per update vs `N`
    /// (≈ 0 means O(1) rounds — the paper's headline).
    pub fn rounds_slope(&self) -> f64 {
        self.slope_of(|a| a.max_rounds as f64)
    }

    /// Growth exponent of worst-case active machines vs `N`.
    pub fn machines_slope(&self) -> f64 {
        self.slope_of(|a| a.max_active_machines as f64)
    }

    /// Growth exponent of worst-case communication per round vs `N`
    /// (≈ 0.5 corresponds to the paper's `O(sqrt N)` rows).
    pub fn words_slope(&self) -> f64 {
        self.slope_of(|a| a.max_words_per_round as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpc_graph::Edge;
    use dmpc_mpc::UpdateMetrics;

    struct Counter;
    impl crate::QueryableAlgorithm for Counter {}
    impl DynamicGraphAlgorithm for Counter {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn insert(&mut self, _e: Edge) -> UpdateMetrics {
            UpdateMetrics {
                rounds: 2,
                max_active_machines: 3,
                max_words_per_round: 10,
                ..Default::default()
            }
        }
        fn delete(&mut self, _e: Edge) -> UpdateMetrics {
            UpdateMetrics {
                rounds: 4,
                ..Default::default()
            }
        }
    }

    #[test]
    fn batched_run_chunks_and_merges() {
        let e = Edge::new(0, 1);
        let f = Edge::new(1, 2);
        let ups = vec![
            Update::Insert(e),
            Update::Insert(f),
            Update::Delete(e),
            Update::Delete(f),
            Update::Insert(e),
        ];
        let b = run_stream_batched(&mut Counter, &ups, 2);
        assert_eq!(b.updates, 5);
        // 3 inserts x 2 rounds + 2 deletes x 4 rounds, looped default.
        assert_eq!(b.rounds, 14);
        assert!((b.amortized_rounds() - 2.8).abs() < 1e-9);
    }

    #[test]
    fn sweep_slopes() {
        let mut sweep = ScalingSweep::default();
        for k in 6..12 {
            let n = 1usize << k;
            let mut agg = AggregateMetrics::default();
            let m = UpdateMetrics {
                rounds: 5,                                       // flat
                max_active_machines: (n as f64).sqrt() as usize, // sqrt growth
                max_words_per_round: n,                          // linear growth
                ..Default::default()
            };
            agg.absorb(&m);
            sweep.push(n, agg);
        }
        assert!(sweep.rounds_slope().abs() < 0.05);
        assert!((sweep.machines_slope() - 0.5).abs() < 0.05);
        assert!((sweep.words_slope() - 1.0).abs() < 0.05);
    }
}
