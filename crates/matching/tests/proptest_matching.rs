//! Property tests: arbitrary valid update sequences through the Section 3
//! and Section 4 matchings, with full audits every step — plus batch-vs-
//! sequential equivalence of `apply_batch`.

use dmpc_core::{DmpcParams, DynamicGraphAlgorithm};
use dmpc_graph::{DynamicGraph, Edge, Update};
use dmpc_matching::{DmpcMaximalMatching, DmpcThreeHalves};
use proptest::prelude::*;

fn apply_ops<A: DynamicGraphAlgorithm<Update = Update>>(
    n: usize,
    m_max: usize,
    alg: &mut A,
    ops: &[(u32, u32, bool)],
    mut audit: impl FnMut(&A, &DynamicGraph) -> Result<(), String>,
) -> Result<(), TestCaseError> {
    let mut g = DynamicGraph::new(n);
    for &(a, b, ins) in ops {
        if a == b {
            continue;
        }
        let e = Edge::new(a, b);
        // The model fixes the live-edge capacity m_max up front.
        let m = if ins && !g.has_edge(e) && g.m() < m_max {
            g.insert(e).unwrap();
            alg.insert(e)
        } else if !ins && g.has_edge(e) {
            g.delete(e).unwrap();
            alg.delete(e)
        } else {
            continue;
        };
        prop_assert!(m.clean(), "violations: {:?}", m.violations);
        prop_assert!(m.rounds <= 64, "rounds {}", m.rounds);
        audit(alg, &g).map_err(TestCaseError::fail)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn maximal_matching_invariants(
        ops in proptest::collection::vec((0u32..16, 0u32..16, any::<bool>()), 1..100)
    ) {
        let n = 16usize;
        // Small m_max keeps tau tiny so heavy transitions actually happen.
        let params = DmpcParams::new(n, 40);
        let mut alg = DmpcMaximalMatching::new(params);
        apply_ops(n, 40, &mut alg, &ops, |alg, g| alg.audit(g))?;
    }

    #[test]
    fn three_halves_invariants(
        ops in proptest::collection::vec((0u32..14, 0u32..14, any::<bool>()), 1..90)
    ) {
        let n = 14usize;
        let params = DmpcParams::new(n, 36);
        let mut alg = DmpcThreeHalves::new(params);
        apply_ops(n, 36, &mut alg, &ops, |alg, g| alg.audit(g))?;
    }

    /// Batched execution preserves every Section 3 invariant: after each
    /// batch, the full structural audit (validity, maximality, record
    /// exactness vs the ground-truth graph) passes and the batch is model-
    /// clean. Batches routinely contain an insert and a delete of the same
    /// edge (ops are validity-filtered against the evolving graph, so
    /// in-batch cancellation arises naturally).
    #[test]
    fn batched_maximal_matching_invariants(
        ops in proptest::collection::vec((0u32..16, 0u32..16, any::<bool>()), 1..110),
        k in 1usize..20
    ) {
        let n = 16usize;
        let m_max = 40;
        let params = DmpcParams::new(n, m_max);
        let mut alg = DmpcMaximalMatching::new(params);
        let mut g = DynamicGraph::new(n);
        let mut stream: Vec<Update> = Vec::new();
        for (a, b, ins) in ops {
            if a == b { continue; }
            let e = Edge::new(a, b);
            if ins && !g.has_edge(e) && g.m() < m_max {
                g.insert(e).unwrap();
                stream.push(Update::Insert(e));
            } else if !ins && g.has_edge(e) {
                g.delete(e).unwrap();
                stream.push(Update::Delete(e));
            }
        }
        let mut truth = DynamicGraph::new(n);
        for batch in stream.chunks(k) {
            for &u in batch {
                match u {
                    Update::Insert(e) => truth.insert(e).unwrap(),
                    Update::Delete(e) => truth.delete(e).unwrap(),
                }
            }
            let bm = alg.apply_batch(batch);
            prop_assert!(bm.clean(), "batch violations: {}", bm.violations);
            alg.audit(&truth).map_err(TestCaseError::fail)?;
        }
    }
}
