//! The paper's Section 7 black-box reduction (Lemma 7.1): any sequential
//! dynamic algorithm with update time `u(N)` yields a DMPC algorithm with
//! `O(u(N))` rounds per update, O(1) active machines per round and O(1)
//! communication per round.
//!
//! The simulation dedicates one machine `M_MRA` to run the sequential
//! algorithm and treats the remaining machines as paged memory: every
//! memory probe is one request/reply round-trip between `M_MRA` and the
//! machine holding the page. The wrappers here run the (probe-counted)
//! sequential structures from `dmpc-seqdyn` and translate probe counts into
//! the metered quantities: `rounds = 2 * probes`, `active machines <= 2`,
//! `communication per round = O(1)` words. The amortized/worst-case and
//! deterministic/randomized character of the inner algorithm carries over
//! unchanged, exactly as the lemma states.
//!
//! # Example
//!
//! ```
//! use dmpc_core::DynamicGraphAlgorithm;
//! use dmpc_graph::Edge;
//! use dmpc_reduction::ReducedConnectivity;
//!
//! let mut alg = ReducedConnectivity::new(8);
//! let m = alg.insert(Edge::new(0, 1));
//! assert_eq!(m.max_active_machines, 2); // M_MRA plus one memory machine
//! assert!(m.rounds >= 2); // two rounds (one round-trip) per memory probe
//! assert!(alg.connected(0, 1));
//! ```

use dmpc_core::DynamicGraphAlgorithm;
use dmpc_graph::{Edge, Update, Weight, WeightedUpdate};
use dmpc_mpc::UpdateMetrics;
use dmpc_seqdyn::{HdtConnectivity, NsMatching, ProbeCounted, SeqDynMst};

/// Words exchanged per memory probe (request + reply headers).
const WORDS_PER_PROBE: usize = 4;

/// Converts a probe count into the reduction's DMPC metrics.
///
/// Every probe is one request round followed by one reply round between
/// `M_MRA` and the memory machine, each one message carrying half of
/// `WORDS_PER_PROBE`, so `rounds = 2 * probes` and the totals are the
/// per-round cost times the rounds. A zero-probe operation touched no
/// memory machine and reports an all-zero update.
pub fn metrics_from_probes(probes: u64) -> UpdateMetrics {
    let rounds = (2 * probes) as usize;
    let words_per_round = WORDS_PER_PROBE / 2;
    UpdateMetrics {
        rounds,
        max_active_machines: if probes > 0 { 2 } else { 0 },
        machines_touched: if probes > 0 { 2 } else { 0 },
        max_words_per_round: if probes > 0 { words_per_round } else { 0 },
        total_words: rounds * words_per_round,
        total_messages: rounds,
        ..Default::default()
    }
}

/// Reduction row "Connected comps": sequential HDT under the simulation.
pub struct ReducedConnectivity {
    inner: HdtConnectivity,
}

impl ReducedConnectivity {
    /// Creates the reduced algorithm on `n` vertices.
    pub fn new(n: usize) -> Self {
        ReducedConnectivity {
            inner: HdtConnectivity::new(n),
        }
    }

    /// Connectivity query. Its probes are dropped rather than left to be
    /// charged to the next update.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        let joined = self.inner.connected(a, b);
        self.inner.take_probes();
        joined
    }
}

impl DynamicGraphAlgorithm for ReducedConnectivity {
    type Update = Update;

    fn name(&self) -> &'static str {
        "reduction-hdt-connectivity"
    }

    fn apply(&mut self, u: Update) -> UpdateMetrics {
        match u {
            Update::Insert(e) => self.inner.insert(e),
            Update::Delete(e) => self.inner.delete(e),
        }
        metrics_from_probes(self.inner.take_probes())
    }
}

/// Reduction row "Maximal matching": sequential Neiman–Solomon matching.
pub struct ReducedMatching {
    inner: NsMatching,
}

impl ReducedMatching {
    /// Creates the reduced algorithm.
    pub fn new(n: usize, m_max: usize) -> Self {
        ReducedMatching {
            inner: NsMatching::new(n, m_max),
        }
    }

    /// The maintained matching.
    pub fn matching(&self) -> dmpc_graph::matching::Matching {
        self.inner.matching()
    }
}

impl DynamicGraphAlgorithm for ReducedMatching {
    type Update = Update;

    fn name(&self) -> &'static str {
        "reduction-ns-matching"
    }

    fn apply(&mut self, u: Update) -> UpdateMetrics {
        match u {
            Update::Insert(e) => self.inner.insert(e),
            Update::Delete(e) => self.inner.delete(e),
        }
        metrics_from_probes(self.inner.take_probes())
    }
}

/// Reduction row "MST": sequential exact dynamic MSF.
pub struct ReducedMst {
    inner: SeqDynMst,
}

impl ReducedMst {
    /// Creates the reduced algorithm on `n` vertices.
    pub fn new(n: usize) -> Self {
        ReducedMst {
            inner: SeqDynMst::new(n),
        }
    }

    /// Weight of the maintained forest.
    pub fn forest_weight(&self) -> Weight {
        self.inner.forest_weight()
    }

    /// Processes a weighted edge insertion.
    pub fn insert(&mut self, e: Edge, w: Weight) -> UpdateMetrics {
        self.apply(WeightedUpdate::Insert(e, w))
    }

    /// Processes an edge deletion.
    pub fn delete(&mut self, e: Edge) -> UpdateMetrics {
        self.apply(WeightedUpdate::Delete(e))
    }
}

impl DynamicGraphAlgorithm for ReducedMst {
    type Update = WeightedUpdate;

    fn name(&self) -> &'static str {
        "reduction-dynamic-mst"
    }

    fn apply(&mut self, u: WeightedUpdate) -> UpdateMetrics {
        match u {
            WeightedUpdate::Insert(e, w) => self.inner.insert(e, w),
            WeightedUpdate::Delete(e) => self.inner.delete(e),
        }
        metrics_from_probes(self.inner.take_probes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpc_graph::streams::{self, Update};

    #[test]
    fn reduction_metrics_shape() {
        let m = metrics_from_probes(10);
        assert_eq!(m.rounds, 20);
        assert_eq!(m.max_active_machines, 2);
        assert_eq!(m.machines_touched, 2);
        assert_eq!(m.max_words_per_round, WORDS_PER_PROBE / 2);
    }

    /// Regression: every round carries one message of the same size, so the
    /// totals are the per-round cost times the rounds — and a zero-probe
    /// operation must not fabricate rounds.
    #[test]
    fn reduction_per_round_consistent_with_totals() {
        for probes in [0u64, 1, 7, 32] {
            let m = metrics_from_probes(probes);
            assert_eq!(m.rounds, 2 * probes as usize, "probes={probes}");
            assert_eq!(m.total_messages, m.rounds, "probes={probes}");
            assert_eq!(
                m.total_words,
                m.rounds * m.max_words_per_round,
                "probes={probes}"
            );
        }
        let zero = metrics_from_probes(0);
        assert_eq!(zero.rounds, 0);
        assert_eq!(zero.max_active_machines, 0);
        assert_eq!(zero.total_words, 0);
        assert_eq!(zero.machines_touched, 0);
    }

    #[test]
    fn reduced_connectivity_rounds_grow_with_updates_not_machines() {
        let n = 64;
        let mut alg = ReducedConnectivity::new(n);
        let ups = streams::tree_churn_stream(n, 80, 3);
        let mut worst_machines = 0;
        for &u in &ups {
            let m = match u {
                Update::Insert(e) => alg.insert(e),
                Update::Delete(e) => alg.delete(e),
            };
            worst_machines = worst_machines.max(m.max_active_machines);
            assert!(m.rounds >= 1);
        }
        // The reduction's signature: O(1) machines regardless of rounds.
        assert_eq!(worst_machines, 2);
    }

    #[test]
    fn reduced_matching_is_maximal() {
        let n = 40;
        let mut alg = ReducedMatching::new(n, 300);
        let ups = streams::churn_stream(n, 80, 200, 0.5, 2);
        let mut g = dmpc_graph::DynamicGraph::new(n);
        for &u in &ups {
            match u {
                Update::Insert(e) => {
                    g.insert(e).unwrap();
                    alg.insert(e);
                }
                Update::Delete(e) => {
                    g.delete(e).unwrap();
                    alg.delete(e);
                }
            }
        }
        let m = alg.matching();
        assert!(dmpc_graph::matching::is_maximal_matching(&g, &m));
    }
}
