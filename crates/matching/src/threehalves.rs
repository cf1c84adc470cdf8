//! Section 4: fully-dynamic 3/2-approximate matching.
//!
//! Builds on the Section 3 machinery with free-neighbor counters on the
//! stats machines and elimination of every augmenting path of length <= 3
//! after each update (which certifies the 3/2 approximation by
//! Hopcroft–Karp, the paper's Lemma 4.1). Starts from the empty graph, as
//! the paper assumes. Costs: O(1) rounds, O(n / sqrt N) active machines
//! (the counter commit touches that many stats machines in the worst case),
//! O(sqrt N) communication per round — Table 1 row 2.

use crate::maximal::DmpcMaximalMatching;
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm};
use dmpc_graph::matching::Matching;
use dmpc_graph::{DynamicGraph, Query, QueryAnswer, Update};
use dmpc_mpc::{ExecOptions, QueryMetrics, UpdateMetrics};

/// Fully-dynamic 3/2-approximate maximum matching.
pub struct DmpcThreeHalves {
    inner: DmpcMaximalMatching,
}

impl DmpcThreeHalves {
    /// Creates an empty instance.
    pub fn new(params: DmpcParams) -> Self {
        DmpcThreeHalves {
            inner: DmpcMaximalMatching::with_mode_exec(params, true, ExecOptions::default()),
        }
    }

    /// Extracts the maintained matching.
    pub fn matching(&self) -> Matching {
        self.inner.matching()
    }

    /// Deep structural audit, including counter exactness and the
    /// no-short-augmenting-path certificate.
    pub fn audit(&self, g: &DynamicGraph) -> Result<(), String> {
        self.inner.audit(g)?;
        let m = self.matching();
        if dmpc_graph::matching::has_short_augmenting_path(g, &m, 3) {
            return Err("a length-<=3 augmenting path survived the update".into());
        }
        Ok(())
    }
}

impl DynamicGraphAlgorithm for DmpcThreeHalves {
    type Update = Update;

    fn name(&self) -> &'static str {
        "dmpc-3/2-matching"
    }

    fn apply(&mut self, u: Update) -> UpdateMetrics {
        self.inner.apply(u)
    }

    /// The 3/2 algorithm shares the Section 3 machine layout, so its query
    /// plane is the inner one: `IsMatched` answered at the stats machines,
    /// `MatchingSize` from the coordinator's matched-pair counter.
    fn answer_queries(&mut self, queries: &[Query]) -> (Vec<QueryAnswer>, QueryMetrics) {
        self.inner.answer_queries(queries)
    }
}
