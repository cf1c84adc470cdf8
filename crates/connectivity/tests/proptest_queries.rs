//! Property tests for the query plane (PR 5): batched `answer_queries` is
//! bit-identical to looped single queries AND to the `DynamicGraph` ground
//! truth, for plain connectivity and MST mode, with query waves interleaved
//! between update batches (reads must be invisible to later writes).

use dmpc_connectivity::{DmpcConnectivity, DmpcMst};
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm};
use dmpc_graph::{DynamicGraph, Edge, Query, QueryAnswer, Update, Weight, V};
use proptest::prelude::*;

/// Turns raw proptest ops into a valid update stream.
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

/// Deterministic query pool derived from the raw query seeds.
fn pool_from(n: u32, seeds: &[(u32, u32, u8)]) -> Vec<Query> {
    seeds
        .iter()
        .map(|&(a, b, kind)| {
            let (a, b) = (a % n, b % n);
            match kind % 3 {
                0 => Query::Connected(a, b),
                1 => Query::ComponentOf(a),
                _ => Query::PathMax(a, b),
            }
        })
        .collect()
}

/// Ground-truth check of one answer against the reference graph (and, for
/// path-max, against a BFS over the maintained forest).
fn check_answer(
    g: &DynamicGraph,
    tree: &[(Edge, Weight)],
    q: Query,
    a: QueryAnswer,
) -> Result<(), TestCaseError> {
    let labels = g.components();
    match (q, a) {
        (Query::Connected(u, v), QueryAnswer::Bool(conn)) => {
            prop_assert_eq!(conn, labels[u as usize] == labels[v as usize], "{:?}", q);
        }
        (Query::ComponentOf(_), QueryAnswer::Component(_)) => {
            // Label values are representation-specific; cross-query
            // consistency is asserted by the caller via partition equality.
        }
        (Query::PathMax(u, v), QueryAnswer::PathMax(best)) => {
            prop_assert_eq!(best, path_max_reference(g.n(), tree, u, v), "{:?}", q);
        }
        other => prop_assert!(false, "unexpected answer shape {:?}", other),
    }
    Ok(())
}

/// BFS path max over the maintained forest, with the machines' tie-break.
fn path_max_reference(n: usize, tree: &[(Edge, Weight)], u: V, v: V) -> Option<(Edge, Weight)> {
    if u == v {
        return None;
    }
    let mut adj: Vec<Vec<(V, Edge, Weight)>> = vec![Vec::new(); n];
    for &(e, w) in tree {
        adj[e.u as usize].push((e.v, e, w));
        adj[e.v as usize].push((e.u, e, w));
    }
    let mut prev: Vec<Option<(V, Edge, Weight)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([u]);
    seen[u as usize] = true;
    while let Some(x) = queue.pop_front() {
        for &(y, e, w) in &adj[x as usize] {
            if !seen[y as usize] {
                seen[y as usize] = true;
                prev[y as usize] = Some((x, e, w));
                queue.push_back(y);
            }
        }
    }
    if !seen[v as usize] {
        return None;
    }
    let mut best: Option<(Weight, Edge)> = None;
    let mut x = v;
    while x != u {
        let (p, e, w) = prev[x as usize].unwrap();
        let better = match best {
            None => true,
            Some((bw, be)) => w > bw || (w == bw && e < be),
        };
        if better {
            best = Some((w, e));
        }
        x = p;
    }
    best.map(|(w, e)| (e, w))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Plain connectivity: update batches interleaved with query waves.
    /// After every batch, batched answers == looped answers == ground
    /// truth, with zero violations, and the waves leave no trace (the next
    /// batch's audit still holds).
    #[test]
    fn queries_interleave_with_update_batches(
        ops in proptest::collection::vec((0u32..24, 0u32..24, any::<bool>()), 1..120),
        qseeds in proptest::collection::vec((0u32..24, 0u32..24, 0u8..3), 4..40),
        k in 1usize..20
    ) {
        let n = 24usize;
        let params = DmpcParams::new(n, 140);
        let mut alg = DmpcConnectivity::new(params);
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

            let tree: Vec<(Edge, Weight)> = alg.driver().tree_edges();
            let (batched, qm) = alg.answer_queries(&pool);
            prop_assert!(qm.clean(), "query violations: {}", qm.violations);
            prop_assert_eq!(qm.queries, pool.len());
            let (looped, _) = dmpc_core::answer_queries_looped(&mut alg, &pool);
            prop_assert_eq!(&batched, &looped, "batched != looped");
            for (&q, &a) in pool.iter().zip(&batched) {
                check_answer(&g, &tree, q, a)?;
            }
            // ComponentOf answers are mutually consistent with the ground
            // truth partition: equal labels iff connected.
            let comp_qs: Vec<(V, V)> = pool.iter().zip(&batched).filter_map(|(&q, &a)| {
                match (q, a) {
                    (Query::ComponentOf(v), QueryAnswer::Component(c)) => Some((v, c)),
                    _ => None,
                }
            }).collect();
            let labels = g.components();
            for &(v1, c1) in &comp_qs {
                for &(v2, c2) in &comp_qs {
                    prop_assert_eq!(
                        c1 == c2,
                        labels[v1 as usize] == labels[v2 as usize],
                        "ComponentOf({}) / ComponentOf({})", v1, v2
                    );
                }
            }
            // Reads left no trace: the structural audits still pass.
            alg.driver().audit().map_err(TestCaseError::fail)?;
            alg.driver().audit_directory().map_err(TestCaseError::fail)?;
        }
    }

    /// MST mode: the same interleaving over weighted streams, including
    /// path-max queries checked against a BFS over the maintained forest.
    #[test]
    fn mst_queries_interleave_with_updates(
        ops in proptest::collection::vec((0u32..18, 0u32..18, any::<bool>()), 1..90),
        qseeds in proptest::collection::vec((0u32..18, 0u32..18, 0u8..3), 4..30),
        stride in 1usize..12
    ) {
        let n = 18usize;
        let params = DmpcParams::new(n, 110);
        let mut alg = DmpcMst::new(params, 0.1);
        let mut g = DynamicGraph::new(n);
        let stream = valid_stream(n, ops);
        let wstream = dmpc_graph::streams::with_weights(&stream, 30, 5);
        let pool = pool_from(n as u32, &qseeds);
        for (i, &u) in wstream.iter().enumerate() {
            match Update::from(u) {
                Update::Insert(e) => g.insert(e).unwrap(),
                Update::Delete(e) => g.delete(e).unwrap(),
            }
            let m = alg.apply(u);
            prop_assert!(m.clean(), "violations: {:?}", m.violations);
            if i % stride != 0 {
                continue;
            }
            let tree: Vec<(Edge, Weight)> = alg.driver().tree_edges();
            let (batched, qm) = alg.answer_queries(&pool);
            prop_assert!(qm.clean(), "query violations: {}", qm.violations);
            let (looped, _) = dmpc_core::answer_queries_looped(&mut alg, &pool);
            prop_assert_eq!(&batched, &looped, "batched != looped");
            for (&q, &a) in pool.iter().zip(&batched) {
                check_answer(&g, &tree, q, a)?;
            }
            alg.driver().audit().map_err(TestCaseError::fail)?;
        }
    }
}
