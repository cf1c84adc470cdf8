//! The interface implemented by every DMPC dynamic algorithm in this
//! workspace.
//!
//! The unit of work is a *batch* of `k` edge updates; a single update is the
//! `k = 1` special case. Every algorithm gets batching for free through the
//! looped [`DynamicGraphAlgorithm::apply_batch`] default; algorithms with a
//! genuinely batched machine program (shared preprocessing fan-out, shared
//! coordinator rounds) override it and report a lower amortized cost.

use dmpc_graph::{Edge, Query, QueryAnswer, Update, Weight, WeightedUpdate};
use dmpc_mpc::{BatchMetrics, QueryMetrics, UpdateMetrics};

/// The reference batch execution: apply the updates one by one, in order,
/// summing their costs. This is both the default `apply_batch` and the
/// baseline the genuinely batched overrides are compared against (the
/// `batched_*_amortizes_rounds` tests of both algorithm crates).
pub fn apply_batch_looped<A: DynamicGraphAlgorithm + ?Sized>(
    alg: &mut A,
    updates: &[Update],
) -> BatchMetrics {
    let mut b = BatchMetrics::default();
    for &u in updates {
        b.absorb_update(&alg.apply(u));
    }
    b
}

/// The reference query-wave execution: answer the queries one by one, in
/// order, summing their costs. This is both the default `answer_queries`
/// and the looped baseline the genuinely batched overrides are compared
/// against (the query-plane tests of both algorithm crates).
pub fn answer_queries_looped<A: QueryableAlgorithm + ?Sized>(
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

/// The query plane: read-only access to the maintained structure, metered
/// like updates but amortized over queries. Both algorithm traits extend
/// this, so every algorithm keeps compiling via the defaults — answering
/// [`QueryAnswer::Unsupported`] per query and looping singles for waves.
/// Algorithms with a genuinely batched machine program (one fan-out wave
/// answering all `q` queries in O(1) rounds) override [`Self::answer_queries`].
///
/// Queries MUST NOT modify the maintained structure: interleaving query
/// waves anywhere in an update stream must not change any later answer or
/// update outcome (pinned by the query-plane property tests).
pub trait QueryableAlgorithm {
    /// Answers one query, returning the answer and the metered cost.
    /// The default supports nothing.
    fn answer_query(&mut self, q: Query) -> (QueryAnswer, QueryMetrics) {
        let _ = q;
        (QueryAnswer::Unsupported, QueryMetrics::one_unanswered())
    }

    /// Answers an ordered batch of queries as one unit of work and returns
    /// the answers (index-aligned with `queries`) plus the combined,
    /// amortizable cost. The default loops [`Self::answer_query`]; overrides
    /// must return bit-identical answers while sharing rounds across the
    /// wave.
    fn answer_queries(&mut self, queries: &[Query]) -> (Vec<QueryAnswer>, QueryMetrics) {
        answer_queries_looped(self, queries)
    }
}

/// Looped batch execution for weighted algorithms.
pub fn apply_weighted_batch_looped<A: WeightedDynamicGraphAlgorithm + ?Sized>(
    alg: &mut A,
    updates: &[WeightedUpdate],
) -> BatchMetrics {
    let mut b = BatchMetrics::default();
    for &u in updates {
        b.absorb_update(&alg.apply(u));
    }
    b
}

/// A fully-dynamic distributed graph algorithm: processes edge updates —
/// singly or in batches — and reports the DMPC cost of each unit of work.
/// The [`QueryableAlgorithm`] supertrait adds the read side; its defaults
/// answer nothing, so algorithms without a query program just write
/// `impl QueryableAlgorithm for X {}`.
pub trait DynamicGraphAlgorithm: QueryableAlgorithm {
    /// Short name used in reports.
    fn name(&self) -> &'static str;

    /// Processes an edge insertion, returning the update's metered cost.
    fn insert(&mut self, e: Edge) -> UpdateMetrics;

    /// Processes an edge deletion, returning the update's metered cost.
    fn delete(&mut self, e: Edge) -> UpdateMetrics;

    /// Applies any unweighted update.
    fn apply(&mut self, u: Update) -> UpdateMetrics {
        match u {
            Update::Insert(e) => self.insert(e),
            Update::Delete(e) => self.delete(e),
        }
    }

    /// Applies an ordered batch of updates as one unit of work and returns
    /// its combined, amortizable cost. The default loops [`Self::apply`], so
    /// every algorithm supports batches; overrides must preserve sequential
    /// batch semantics (see `dmpc_graph::streams::coalesce` for the
    /// intra-batch cancellation rules) while sharing rounds across the batch.
    fn apply_batch(&mut self, updates: &[Update]) -> BatchMetrics {
        apply_batch_looped(self, updates)
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

/// A fully-dynamic distributed algorithm on weighted graphs (the MST
/// algorithms). Queries arrive through the same [`QueryableAlgorithm`]
/// supertrait as the unweighted interface.
pub trait WeightedDynamicGraphAlgorithm: QueryableAlgorithm {
    /// Short name used in reports.
    fn name(&self) -> &'static str;

    /// Processes a weighted edge insertion.
    fn insert(&mut self, e: Edge, w: Weight) -> UpdateMetrics;

    /// Processes an edge deletion.
    fn delete(&mut self, e: Edge) -> UpdateMetrics;

    /// Applies any weighted update.
    fn apply(&mut self, u: WeightedUpdate) -> UpdateMetrics {
        match u {
            WeightedUpdate::Insert(e, w) => self.insert(e, w),
            WeightedUpdate::Delete(e) => self.delete(e),
        }
    }

    /// Applies an ordered batch of weighted updates as one unit of work.
    /// Defaults to looping [`Self::apply`]; see
    /// [`DynamicGraphAlgorithm::apply_batch`] for the override contract.
    fn apply_batch(&mut self, updates: &[WeightedUpdate]) -> BatchMetrics {
        apply_weighted_batch_looped(self, updates)
    }

    /// Largest admissible batch under the send-cap budget; see
    /// [`DynamicGraphAlgorithm::admission_budget`].
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

    impl QueryableAlgorithm for Dummy {}
    impl DynamicGraphAlgorithm for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn insert(&mut self, _e: Edge) -> UpdateMetrics {
            self.inserts += 1;
            UpdateMetrics::default()
        }
        fn delete(&mut self, _e: Edge) -> UpdateMetrics {
            self.deletes += 1;
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
