//! Property tests for the matching query plane (PR 5): batched
//! `answer_queries` is bit-identical to looped single queries and to the
//! maintained matching (itself audited against the `DynamicGraph` ground
//! truth), with query waves interleaved between update batches — and the
//! waves never touch the update path's state.

use dmpc_core::{DmpcParams, DynamicGraphAlgorithm};
use dmpc_graph::{DynamicGraph, Edge, Query, QueryAnswer, Update, V};
use dmpc_matching::{DmpcMaximalMatching, DmpcThreeHalves};
use proptest::prelude::*;

fn valid_stream(n: usize, ops: Vec<(u32, u32, bool)>) -> Vec<Update> {
    let mut g = DynamicGraph::new(n);
    let mut stream = Vec::new();
    for (a, b, ins) in ops {
        if a == b {
            continue;
        }
        let e = Edge::new(a, b);
        if ins && !g.has_edge(e) {
            g.insert(e).unwrap();
            stream.push(Update::Insert(e));
        } else if !ins && g.has_edge(e) {
            g.delete(e).unwrap();
            stream.push(Update::Delete(e));
        }
    }
    stream
}

fn pool_from(n: u32, seeds: &[(u32, u8)]) -> Vec<Query> {
    seeds
        .iter()
        .map(|&(v, kind)| match kind % 4 {
            0 => Query::MatchingSize,
            _ => Query::IsMatched(v % n),
        })
        .collect()
}

fn check_against_matching(
    m: &dmpc_graph::matching::Matching,
    pool: &[Query],
    answers: &[QueryAnswer],
) -> Result<(), TestCaseError> {
    for (&q, &a) in pool.iter().zip(answers) {
        match (q, a) {
            (Query::IsMatched(v), QueryAnswer::Bool(b)) => {
                prop_assert_eq!(b, m.is_matched(v), "IsMatched({})", v);
            }
            (Query::MatchingSize, QueryAnswer::Count(c)) => {
                prop_assert_eq!(c, m.size(), "MatchingSize");
            }
            other => prop_assert!(false, "unexpected answer shape {:?}", other),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Section 3 matching: update batches interleaved with query waves;
    /// batched == looped == the extracted matching, the extracted matching
    /// is audited against the ground-truth graph, and the waves leave the
    /// update path untouched.
    #[test]
    fn matching_queries_interleave_with_batches(
        ops in proptest::collection::vec((0u32..20, 0u32..20, any::<bool>()), 1..100),
        qseeds in proptest::collection::vec((0u32..20, 0u8..4), 4..40),
        k in 1usize..16
    ) {
        let n = 20usize;
        let params = DmpcParams::new(n, 120);
        let mut alg = DmpcMaximalMatching::new(params);
        let mut g = DynamicGraph::new(n);
        let stream = valid_stream(n, ops);
        let pool = pool_from(n as u32, &qseeds);
        for batch in stream.chunks(k) {
            for &u in batch {
                match u {
                    Update::Insert(e) => g.insert(e).unwrap(),
                    Update::Delete(e) => g.delete(e).unwrap(),
                }
            }
            let bm = alg.apply_batch(batch);
            prop_assert!(bm.clean(), "batch violations: {}", bm.violations);

            let (batched, qm) = alg.answer_queries(&pool);
            prop_assert!(qm.clean(), "query violations: {}", qm.violations);
            prop_assert_eq!(qm.queries, pool.len());
            // Matching waves resolve in one round each and send no
            // machine-to-machine words (stats-local answers).
            prop_assert_eq!(qm.total_words, 0);
            let (looped, looped_qm) = dmpc_core::answer_queries_looped(&mut alg, &pool);
            prop_assert_eq!(&batched, &looped, "batched != looped");
            prop_assert!(qm.rounds <= looped_qm.rounds);
            let m = alg.matching();
            check_against_matching(&m, &pool, &batched)?;
            // The maintained matching itself is ground-truth-audited, so
            // the answers chain back to the DynamicGraph reference.
            alg.audit(&g).map_err(TestCaseError::fail)?;
        }
    }

    /// 3/2 mode delegates to the same query plane; single updates
    /// interleaved with waves, answers always match the extraction and the
    /// audit (incl. the no-short-augmenting-path certificate) still holds.
    #[test]
    fn threehalves_queries_interleave_with_updates(
        ops in proptest::collection::vec((0u32..16, 0u32..16, any::<bool>()), 1..70),
        qseeds in proptest::collection::vec((0u32..16, 0u8..4), 4..24),
        stride in 1usize..10
    ) {
        let n = 16usize;
        let params = DmpcParams::new(n, 100);
        let mut alg = DmpcThreeHalves::new(params);
        let mut g = DynamicGraph::new(n);
        let stream = valid_stream(n, ops);
        let pool = pool_from(n as u32, &qseeds);
        for (i, &u) in stream.iter().enumerate() {
            match u {
                Update::Insert(e) => g.insert(e).unwrap(),
                Update::Delete(e) => g.delete(e).unwrap(),
            }
            let m = alg.apply(u);
            prop_assert!(m.clean(), "violations: {:?}", m.violations);
            if i % stride != 0 {
                continue;
            }
            let (batched, qm) = alg.answer_queries(&pool);
            prop_assert!(qm.clean(), "query violations: {}", qm.violations);
            let (looped, _) = dmpc_core::answer_queries_looped(&mut alg, &pool);
            prop_assert_eq!(&batched, &looped, "batched != looped");
            check_against_matching(&alg.matching(), &pool, &batched)?;
            alg.audit(&g).map_err(TestCaseError::fail)?;
        }
    }
}

/// Wave-size sweep at the canonical size: a 256-query pool against the
/// n = 256 matching after the seed-42 churn stream, answered in waves of q.
/// Answers do not depend on q, a q = 256 wave costs at most 3 amortized
/// rounds per query and strictly fewer than the q = 1 loop, and no wave
/// violates the model.
#[test]
fn wave_size_sweep_amortizes_rounds_at_n256() {
    let n = 256usize;
    let mut alg = DmpcMaximalMatching::new(DmpcParams::new(n, 3 * n));
    let ups = dmpc_graph::streams::churn_stream(n, 2 * n, 512, 0.5, 42);
    for batch in ups.chunks(64) {
        assert!(alg.apply_batch(batch).clean());
    }
    let seeds: Vec<(u32, u8)> = (0..256u32).map(|i| (7 * i + 3, i as u8)).collect();
    let pool = pool_from(n as u32, &seeds);
    let sweep = [1, 16, 256].map(|q| {
        let mut answers = Vec::new();
        let mut total = dmpc_mpc::QueryMetrics::default();
        for wave in pool.chunks(q) {
            let (a, m) = alg.answer_queries(wave);
            answers.extend(a);
            total.merge(&m);
        }
        assert!(total.clean(), "q={q}: {} violations", total.violations);
        assert_eq!(total.queries, pool.len());
        (answers, total.amortized_rounds())
    });
    let [(looped_answers, looped), (mid_answers, _), (batched_answers, batched)] = sweep;
    assert_eq!(looped_answers, mid_answers, "answers differ at q=16");
    assert_eq!(looped_answers, batched_answers, "answers differ at q=256");
    check_against_matching(&alg.matching(), &pool, &batched_answers).unwrap();
    assert!(batched <= 3.0, "q=256 costs {batched} rounds/query");
    assert!(batched < looped, "batched {batched} vs looped {looped}");
}

/// Bulk preprocessing presets the coordinator's matched-pair counter, so
/// `MatchingSize` is exact immediately after `bulk_load` (regression: the
/// counter starts at the preprocessed matching's size, not zero).
#[test]
fn matching_size_exact_after_bulk_load() {
    let n = 32usize;
    let params = DmpcParams::new(n, 3 * n);
    let mut alg = DmpcMaximalMatching::new(params);
    let edges: Vec<Edge> = (0..n as V - 1).map(|v| Edge::new(v, v + 1)).collect();
    alg.bulk_load(&edges);
    let size = alg.matching().size();
    assert!(size > 0);
    let (answers, qm) = alg.answer_queries(&[Query::MatchingSize, Query::IsMatched(0)]);
    assert!(qm.clean());
    assert_eq!(answers[0], QueryAnswer::Count(size));
    assert_eq!(answers[1], QueryAnswer::Bool(alg.matching().is_matched(0)));
}
