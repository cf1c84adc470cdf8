//! The interface implemented by every DMPC dynamic algorithm in this
//! workspace.
//!
//! The unit of work is a *batch* of `k` edge updates; a single update is the
//! `k = 1` special case. Every algorithm gets batching for free through the
//! looped [`DynamicGraphAlgorithm::apply_batch`] default; algorithms with a
//! genuinely batched machine program (shared preprocessing fan-out, shared
//! coordinator rounds) override it and report a lower amortized cost.
//!
//! Weight is data: the MST algorithms implement the same trait with
//! [`DynamicGraphAlgorithm::Update`] set to `dmpc_graph::WeightedUpdate`.

use dmpc_graph::{Edge, Query, QueryAnswer, Update};
use dmpc_mpc::{BatchMetrics, QueryMetrics, UpdateMetrics};

/// The reference batch execution: apply the updates one by one, in order,
/// summing their costs. This is both the default `apply_batch` and the
/// baseline the genuinely batched overrides are compared against (the
/// `batched_*_amortizes_rounds` tests of both algorithm crates).
pub fn apply_batch_looped<A: DynamicGraphAlgorithm + ?Sized>(
    alg: &mut A,
    updates: &[A::Update],
) -> BatchMetrics {
    let mut b = BatchMetrics::default();
    for &u in updates {
        b.absorb_update(&alg.apply(u));
    }
    b
}

/// The reference query-wave execution: answer the queries one by one, in
/// order, summing their costs — the looped baseline the genuinely batched
/// `answer_queries` overrides are compared against (the query-plane tests
/// of both algorithm crates).
pub fn answer_queries_looped<A: DynamicGraphAlgorithm + ?Sized>(
    alg: &mut A,
    queries: &[Query],
) -> (Vec<QueryAnswer>, QueryMetrics) {
    let mut answers = Vec::with_capacity(queries.len());
    let mut total = QueryMetrics::default();
    for &q in queries {
        let (a, m) = alg.answer_query(q);
        answers.push(a);
        total.merge(&m);
    }
    (answers, total)
}

/// A fully-dynamic distributed graph algorithm: processes edge updates —
/// singly or in batches — answers read-only queries, and reports the DMPC
/// cost of each unit of work.
///
/// Queries MUST NOT modify the maintained structure: interleaving query
/// waves anywhere in an update stream must not change any later answer or
/// update outcome (pinned by the query-plane property tests).
pub trait DynamicGraphAlgorithm {
    /// What one update carries: `dmpc_graph::Update` for the unweighted
    /// algorithms, `dmpc_graph::WeightedUpdate` for the MST ones.
    type Update: Copy;

    /// Short name used in reports.
    fn name(&self) -> &'static str;

    /// Processes one edge insertion or deletion, returning its metered cost.
    fn apply(&mut self, u: Self::Update) -> UpdateMetrics;

    /// `apply(Update::Insert(e))`; MST has an inherent `insert(e, w)` instead.
    fn insert(&mut self, e: Edge) -> UpdateMetrics
    where
        Self: Sized + DynamicGraphAlgorithm<Update = Update>,
    {
        self.apply(Update::Insert(e))
    }

    /// `apply(Update::Delete(e))`, for the unweighted algorithms.
    fn delete(&mut self, e: Edge) -> UpdateMetrics
    where
        Self: Sized + DynamicGraphAlgorithm<Update = Update>,
    {
        self.apply(Update::Delete(e))
    }

    /// Applies an ordered batch of updates as one unit of work and returns
    /// its combined, amortizable cost. The default loops [`Self::apply`], so
    /// every algorithm supports batches; overrides must preserve sequential
    /// batch semantics (see `dmpc_graph::streams::coalesce` for the
    /// intra-batch cancellation rules) while sharing rounds across the batch.
    fn apply_batch(&mut self, updates: &[Self::Update]) -> BatchMetrics {
        apply_batch_looped(self, updates)
    }

    /// Answers one query, returning the answer and the metered cost: a
    /// wave of one through [`Self::answer_queries`].
    fn answer_query(&mut self, q: Query) -> (QueryAnswer, QueryMetrics) {
        let (mut answers, m) = self.answer_queries(&[q]);
        (answers.pop().expect("one answer per query"), m)
    }

    /// Answers an ordered batch of queries as one unit of work and returns
    /// the answers (index-aligned with `queries`) plus the combined,
    /// amortizable cost. The default supports nothing; algorithms with a
    /// query plane (one fan-out wave answering all `q` queries in O(1)
    /// rounds) override it, sharing rounds across the wave while answering
    /// exactly what [`answer_queries_looped`] does.
    fn answer_queries(&mut self, queries: &[Query]) -> (Vec<QueryAnswer>, QueryMetrics) {
        let mut unanswered = QueryMetrics::one_unanswered();
        unanswered.queries = queries.len();
        (vec![QueryAnswer::Unsupported; queries.len()], unanswered)
    }

    /// Current total resident memory across the algorithm's machines, in
    /// words — a peak-RSS proxy the wall-clock benchmarks sample between
    /// batches. The default (0) opts out.
    fn resident_words(&self) -> usize {
        0
    }

    /// The largest batch of updates the algorithm's machine program admits
    /// as one unit of work under the send-cap budget (`None`: no
    /// driver-imposed bound). The service front-end caps its admission
    /// windows at this budget so a closed window never outruns what one
    /// chunked [`Self::apply_batch`] round trip can carry.
    fn admission_budget(&self) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy {
        inserts: usize,
        deletes: usize,
    }

    impl DynamicGraphAlgorithm for Dummy {
        type Update = Update;
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn apply(&mut self, u: Update) -> UpdateMetrics {
            match u {
                Update::Insert(_) => self.inserts += 1,
                Update::Delete(_) => self.deletes += 1,
            }
            UpdateMetrics::default()
        }
    }

    #[test]
    fn apply_dispatches() {
        let mut d = Dummy {
            inserts: 0,
            deletes: 0,
        };
        let e = Edge::new(0, 1);
        d.apply(Update::Insert(e));
        d.apply(Update::Delete(e));
        d.apply(Update::Insert(e));
        assert_eq!((d.inserts, d.deletes), (2, 1));
        assert_eq!(d.name(), "dummy");
    }

    #[test]
    fn default_query_plane_answers_unsupported() {
        let mut d = Dummy {
            inserts: 0,
            deletes: 0,
        };
        let (a, m) = d.answer_query(Query::MatchingSize);
        assert_eq!(a, QueryAnswer::Unsupported);
        assert_eq!(m.queries, 1);
        assert_eq!(m.rounds, 0);
        let (answers, wave) = d.answer_queries(&[Query::Connected(0, 1), Query::ComponentOf(2)]);
        assert_eq!(answers, vec![QueryAnswer::Unsupported; 2]);
        assert_eq!(wave.queries, 2);
        assert!(wave.clean());
        // The query plane never mutates the algorithm.
        assert_eq!((d.inserts, d.deletes), (0, 0));
    }

    #[test]
    fn default_apply_batch_loops_in_order() {
        let mut d = Dummy {
            inserts: 0,
            deletes: 0,
        };
        let e = Edge::new(0, 1);
        let b = d.apply_batch(&[Update::Insert(e), Update::Delete(e), Update::Insert(e)]);
        assert_eq!((d.inserts, d.deletes), (2, 1));
        assert_eq!(b.updates, 3);
        assert!(b.clean());
    }

    #[test]
    fn default_admission_budget_is_unbounded() {
        let d = Dummy {
            inserts: 0,
            deletes: 0,
        };
        assert_eq!(d.admission_budget(), None);
    }
}
