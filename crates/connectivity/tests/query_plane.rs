//! The query plane (PR 5): batched waves answer in O(1) rounds, send O(q)
//! words through the same metered outbox as updates, never mutate state,
//! and agree bit-identically with looped single queries and ground truth.

use dmpc_connectivity::{DmpcConnectivity, DmpcMst};
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm};
use dmpc_graph::streams;
use dmpc_graph::{DynamicGraph, Edge, Query, QueryAnswer, Update, Weight, V};
use dmpc_mpc::{ExecOptions, QueryMetrics};

fn build(n: usize, steps: usize, seed: u64) -> (DmpcConnectivity, DynamicGraph) {
    let params = DmpcParams::new(n, 3 * n);
    let mut alg = DmpcConnectivity::new(params);
    let ups = streams::churn_stream(n, 2 * n, steps, 0.5, seed);
    let mut g = DynamicGraph::new(n);
    for &u in &ups {
        match u {
            Update::Insert(e) => g.insert(e).unwrap(),
            Update::Delete(e) => g.delete(e).unwrap(),
        }
        let m = alg.apply(u);
        assert!(m.clean());
    }
    (alg, g)
}

fn conn_pool(n: usize, count: u32) -> Vec<Query> {
    // A deterministic mix covering both kinds and both verdicts.
    (0..count)
        .map(|i| {
            let a = (7 * i + 3) % n as V;
            let b = (11 * i + 5) % n as V;
            if i % 3 == 0 || a == b {
                Query::ComponentOf(a)
            } else {
                Query::Connected(a, b)
            }
        })
        .collect()
}

#[test]
fn batched_answers_match_looped_and_ground_truth() {
    let n = 48;
    let (mut alg, g) = build(n, 160, 7);
    let pool = conn_pool(n, 64);
    let labels = g.components();
    let (batched, qm) = alg.answer_queries(&pool);
    assert!(qm.clean());
    assert_eq!(qm.queries, pool.len());
    for (q, a) in pool.iter().zip(&batched) {
        let (looped, single) = alg.answer_query(*q);
        assert_eq!(*a, looped, "batched vs looped diverged on {q:?}");
        assert!(single.clean());
        match (*q, *a) {
            (Query::Connected(u, v), QueryAnswer::Bool(conn)) => {
                assert_eq!(conn, labels[u as usize] == labels[v as usize], "{q:?}");
            }
            (Query::ComponentOf(u), QueryAnswer::Component(c)) => {
                // Component ids equal the driver's own extraction.
                assert_eq!(c, alg.driver().comp_of(u), "{q:?}");
            }
            other => panic!("unexpected answer shape {other:?}"),
        }
    }
    // Waves share rounds: the whole batch costs O(1) rounds, the loop pays
    // per query.
    let (_, looped_qm) = dmpc_core::answer_queries_looped(&mut alg, &pool);
    assert!(qm.amortized_rounds() < looped_qm.amortized_rounds());
    assert!(looped_qm.amortized_rounds() >= 1.0);
}

/// Wave-size sweep at the canonical size: a 256-query pool against the
/// n = 256 structure, answered in waves of q. Answers do not depend on q,
/// a q = 256 wave costs at most 3 amortized rounds per query and strictly
/// fewer than the q = 1 loop, and no wave violates the model.
#[test]
fn wave_size_sweep_amortizes_rounds_at_n256() {
    let n = 256;
    let (mut alg, _) = build(n, 512, 42);
    let pool = conn_pool(n, 256);
    let sweep = [1, 16, 256].map(|q| {
        let mut answers = Vec::new();
        let mut total = QueryMetrics::default();
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
    assert!(batched <= 3.0, "q=256 costs {batched} rounds/query");
    assert!(batched < looped, "batched {batched} vs looped {looped}");
}

/// The satellite fix test: query-wave sends flow through the same
/// `Outbox::queued_words` counter as the update path, so the per-pair flow
/// map accounts for every queried word and a q-query batch totals O(q)
/// words — nothing on the read path bypasses the metering.
#[test]
fn query_wave_words_flow_through_the_metered_outbox() {
    let n = 64;
    let params = DmpcParams::new(n, 3 * n);
    // Flow tracking is on by default in the driver config.
    let mut alg = DmpcConnectivity::with_exec(params, ExecOptions::default());
    let ups = streams::churn_stream(n, 2 * n, 100, 0.5, 11);
    for &u in &ups {
        alg.apply(u);
    }
    let q = 32usize; // one wave: q <= sqrt N, so no driver chunking
    let pool: Vec<Query> = (0..q as u32)
        .map(|i| Query::Connected(i % n as V, (i * 5 + 1) % n as V))
        .collect();
    let (answers, m) = alg.driver_mut().query_wave(&pool);
    assert_eq!(answers.len(), q);
    assert!(m.clean());
    // The wave is not silently unmetered, and each Connected query costs at
    // most two 4-word joins (self-rendezvous joins are local and free):
    // O(q) words total.
    assert!(m.total_words > 0, "query traffic must be metered");
    assert!(
        m.total_words <= 8 * q,
        "O(q) bound violated: {} words for {q} queries",
        m.total_words
    );
    // The flow map accounts for exactly the metered words, and no machine
    // ever messages itself on the query path.
    let flow_sum: u64 = m.flows.values().sum();
    assert_eq!(flow_sum as usize, m.total_words);
    assert!(!m.flows.is_empty());
    for &(src, dst) in m.flows.keys() {
        assert_ne!(src, dst, "self-flow on the query path");
    }
    // Rounds: the whole Connected wave resolves in two rounds.
    assert!(m.rounds <= 2, "wave took {} rounds", m.rounds);
}

#[test]
fn query_waves_never_mutate_state() {
    let n = 40;
    let (mut alg, g) = build(n, 120, 3);
    let before: Vec<_> = alg.component_labels();
    alg.driver().audit().unwrap();
    alg.driver().audit_directory().unwrap();
    let pool = conn_pool(n, 64);
    for _ in 0..3 {
        let (_, qm) = alg.answer_queries(&pool);
        assert!(qm.clean());
    }
    // State: labels, audits, and the ground truth all still hold.
    assert_eq!(before, alg.component_labels());
    alg.driver().audit().unwrap();
    alg.driver().audit_directory().unwrap();
    // Updates after query waves behave normally.
    let mut g = g;
    let e = Edge::new(0, (n / 2) as V);
    if !g.has_edge(e) {
        g.insert(e).unwrap();
        let m = alg.insert(e);
        assert!(m.clean());
        assert!(alg.connected(e.u, e.v));
    }
}

#[test]
fn degenerate_and_unsupported_queries_answer_locally() {
    let (mut alg, _) = build(24, 60, 5);
    let (answers, qm) = alg.answer_queries(&[
        Query::Connected(3, 3),
        Query::PathMax(7, 7),
        Query::MatchingSize,
        Query::IsMatched(1),
    ]);
    assert_eq!(
        answers,
        vec![
            QueryAnswer::Bool(true),
            QueryAnswer::PathMax(None),
            QueryAnswer::Unsupported,
            QueryAnswer::Unsupported,
        ]
    );
    // All four resolve without any machine involvement.
    assert_eq!(qm.rounds, 0);
    assert_eq!(qm.total_words, 0);
    assert!(qm.clean());
}

/// Ground-truth path max over the maintained forest: BFS the tree path and
/// fold with the same (weight desc, edge asc) tie-break as the machines.
fn path_max_reference(n: usize, tree: &[(Edge, Weight)], u: V, v: V) -> Option<(Edge, Weight)> {
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
    if u == v || !seen[v as usize] {
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

#[test]
fn mst_path_max_queries_match_the_maintained_forest() {
    let n = 40usize;
    let params = DmpcParams::new(n, 3 * n);
    let mut alg = DmpcMst::new(params, 0.1);
    let ups = streams::churn_stream(n, 2 * n, 140, 0.5, 13);
    let wups = streams::with_weights(&ups, 50, 13);
    for &u in &wups {
        use dmpc_core::DynamicGraphAlgorithm;
        let m = alg.apply(u);
        assert!(m.clean());
    }
    let tree = alg.driver().tree_edges();
    let pool: Vec<Query> = (0..n as V)
        .flat_map(|a| [Query::PathMax(a, (a + 7) % n as V), Query::PathMax(a, a)])
        .collect();
    let (batched, qm) = alg.answer_queries(&pool);
    assert!(qm.clean());
    for (q, a) in pool.iter().zip(&batched) {
        let Query::PathMax(u, v) = *q else {
            unreachable!()
        };
        let (looped, _) = alg.answer_query(*q);
        assert_eq!(*a, looped);
        assert_eq!(
            *a,
            QueryAnswer::PathMax(path_max_reference(n, &tree, u, v)),
            "PathMax({u},{v})"
        );
    }
}
