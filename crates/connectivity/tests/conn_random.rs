//! Randomized end-to-end verification of the distributed connectivity and
//! MST algorithms against ground-truth recomputation, with full structural
//! audits after every update.

use dmpc_connectivity::{DmpcConnectivity, DmpcMst};
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm};
use dmpc_graph::mst::msf_weight;
use dmpc_graph::streams::{self, Update, WeightedUpdate};
use dmpc_graph::{DynamicGraph, Edge, Weight};

fn partitions_equal(a: &[u32], b: &[u32]) -> bool {
    let norm = |labels: &[u32]| {
        let mut map = std::collections::HashMap::new();
        labels
            .iter()
            .map(|&l| {
                let next = map.len() as u32;
                *map.entry(l).or_insert(next)
            })
            .collect::<Vec<u32>>()
    };
    norm(a) == norm(b)
}

#[test]
fn connectivity_random_churn_verified() {
    let n = 40;
    let params = DmpcParams::new(n, 200);
    for seed in 0..3 {
        let mut alg = DmpcConnectivity::new(params);
        let mut g = DynamicGraph::new(n);
        let ups = streams::churn_stream(n, 60, 160, 0.5, seed);
        for (step, &u) in ups.iter().enumerate() {
            let m = match u {
                Update::Insert(e) => {
                    g.insert(e).unwrap();
                    alg.insert(e)
                }
                Update::Delete(e) => {
                    g.delete(e).unwrap();
                    alg.delete(e)
                }
            };
            assert!(
                m.clean(),
                "seed {seed} step {step} ({u:?}): violations {:?}",
                m.violations
            );
            assert!(
                m.rounds <= 10,
                "seed {seed} step {step}: {} rounds",
                m.rounds
            );
            alg.driver()
                .audit()
                .unwrap_or_else(|e| panic!("seed {seed} step {step} ({u:?}): audit failed: {e}"));
            assert!(
                partitions_equal(&alg.component_labels(), &g.components()),
                "seed {seed} step {step} ({u:?}): components diverged"
            );
        }
    }
}

#[test]
fn connectivity_tree_churn_worst_case() {
    // Every deletion removes a tree edge and forces a replacement search.
    let n = 32;
    let params = DmpcParams::new(n, 64);
    let mut alg = DmpcConnectivity::new(params);
    let mut g = DynamicGraph::new(n);
    let ups = streams::tree_churn_stream(n, 80, 7);
    for (step, &u) in ups.iter().enumerate() {
        let m = match u {
            Update::Insert(e) => {
                g.insert(e).unwrap();
                alg.insert(e)
            }
            Update::Delete(e) => {
                g.delete(e).unwrap();
                alg.delete(e)
            }
        };
        assert!(m.clean(), "step {step}: {:?}", m.violations);
        alg.driver().audit().unwrap();
        assert!(partitions_equal(&alg.component_labels(), &g.components()));
    }
}

#[test]
fn connectivity_bulk_load_then_updates() {
    let n = 30;
    let params = DmpcParams::new(n, 120);
    let edges = dmpc_graph::generators::random_tree_plus(n, 30, 11);
    let mut alg = DmpcConnectivity::new(params);
    alg.bulk_load(&edges);
    alg.driver().audit().unwrap();
    let mut g = DynamicGraph::from_edges(n, &edges);
    assert!(partitions_equal(&alg.component_labels(), &g.components()));
    // Delete every edge in a scrambled order, checking throughout.
    let mut order = edges.clone();
    order.sort_by_key(|e| (e.u as usize * 7 + e.v as usize * 13) % 31);
    for (step, &e) in order.iter().enumerate() {
        g.delete(e).unwrap();
        let m = alg.delete(e);
        assert!(m.clean(), "step {step}: {:?}", m.violations);
        alg.driver().audit().unwrap();
        assert!(
            partitions_equal(&alg.component_labels(), &g.components()),
            "step {step} deleting {e}"
        );
    }
    assert_eq!(alg.driver().tree_edges().len(), 0);
}

#[test]
fn batched_cancellation_same_edge_insert_delete() {
    // A batch containing an insert and a delete of the same edge nets out;
    // a delete-then-reinsert nets to presence. Checked against ground truth.
    let n = 12;
    let params = DmpcParams::new(n, 60);
    let mut alg = DmpcConnectivity::new(params);
    let mut g = DynamicGraph::new(n);
    let (e, f, h) = (Edge::new(0, 1), Edge::new(1, 2), Edge::new(3, 4));
    // Pre-state: f present.
    g.insert(f).unwrap();
    alg.insert(f);
    let batch = [
        Update::Insert(e), // cancelled below
        Update::Delete(f), // reinserted below: net no-op
        Update::Insert(h), // survives
        Update::Delete(e),
        Update::Insert(f),
    ];
    for &u in &batch {
        match u {
            Update::Insert(x) => g.insert(x).unwrap(),
            Update::Delete(x) => g.delete(x).unwrap(),
        }
    }
    let bm = alg.apply_batch(&batch);
    assert!(bm.clean(), "{} violations", bm.violations);
    assert_eq!(bm.updates, 5);
    alg.driver().audit().unwrap();
    assert!(partitions_equal(&alg.component_labels(), &g.components()));
    assert!(alg.connected(1, 2)); // f still present
    assert!(alg.connected(3, 4)); // h inserted
    assert!(!alg.connected(0, 1) || g.components()[0] == g.components()[1]);
}

#[test]
fn batched_connectivity_amortizes_rounds() {
    // The batched machine program must beat the looped default on amortized
    // rounds per update at moderate batch sizes.
    let n = 64;
    let params = DmpcParams::new(n, 3 * n);
    let ups = streams::churn_stream(n, 2 * n, 192, 0.5, 99);
    let mut batched = DmpcConnectivity::new(params);
    let mut looped = DmpcConnectivity::new(params);
    let mut bm = dmpc_mpc::BatchMetrics::default();
    let mut lm = dmpc_mpc::BatchMetrics::default();
    for batch in ups.chunks(64) {
        bm.merge(&batched.apply_batch(batch));
        lm.merge(&dmpc_core::apply_batch_looped(&mut looped, batch));
    }
    assert!(bm.clean(), "batched violations: {}", bm.violations);
    batched.driver().audit().unwrap();
    assert!(
        bm.amortized_rounds() * 1.5 < lm.amortized_rounds(),
        "expected >=1.5x round amortization: batched {:.2} vs looped {:.2}",
        bm.amortized_rounds(),
        lm.amortized_rounds()
    );
}

#[test]
fn mst_matches_kruskal_throughout() {
    let n = 28;
    let params = DmpcParams::new(n, 160);
    for seed in 0..3 {
        let mut alg = DmpcMst::new(params, 0.1);
        let mut live: Vec<(Edge, Weight)> = Vec::new();
        let ups = streams::with_weights(&streams::churn_stream(n, 50, 120, 0.5, seed), 100, seed);
        for (step, &u) in ups.iter().enumerate() {
            let m = match u {
                WeightedUpdate::Insert(e, w) => {
                    live.push((e, w));
                    alg.insert(e, w)
                }
                WeightedUpdate::Delete(e) => {
                    live.retain(|&(x, _)| x != e);
                    alg.delete(e)
                }
            };
            assert!(m.clean(), "seed {seed} step {step}: {:?}", m.violations);
            alg.driver().audit().unwrap_or_else(|err| {
                panic!("seed {seed} step {step} ({u:?}): audit failed: {err}")
            });
            // No preprocessing happened, so the maintained forest must be an
            // exact MSF of the live graph.
            let expect = msf_weight(n, &live);
            let got = alg.forest_weight();
            assert_eq!(
                got, expect,
                "seed {seed} step {step} ({u:?}): forest weight {got} != kruskal {expect}"
            );
        }
    }
}

#[test]
fn mst_bulk_load_respects_epsilon() {
    let n = 40;
    let params = DmpcParams::new(n, 200);
    let eps = 0.25;
    let edges: Vec<(Edge, Weight)> = dmpc_graph::generators::random_tree_plus(n, 60, 3)
        .into_iter()
        .map(|e| (e, dmpc_graph::streams::edge_weight(e, 500, 5)))
        .collect();
    let mut alg = DmpcMst::new(params, eps);
    alg.bulk_load(&edges);
    alg.driver().audit().unwrap();
    let exact = msf_weight(n, &edges);
    // The maintained forest's true weight: sum the *bucketed* weights the
    // algorithm stores; it must be within (1+eps) of the exact optimum.
    let approx = alg.forest_weight();
    assert!(
        approx <= exact,
        "bucketing rounds down: {approx} vs {exact}"
    );
    assert!(
        exact as f64 <= approx as f64 * (1.0 + eps) * 1.001 + 1.0,
        "{approx} vs {exact}"
    );
}

#[test]
fn table1_shape_rounds_constant_communication_sqrt() {
    // The headline Table 1 row: rounds flat, communication ~sqrt(N).
    let mut rounds_at_size = Vec::new();
    let mut words_at_size = Vec::new();
    for k in [5usize, 6, 7] {
        let n = 1 << k;
        let m_max = 2 * n;
        let params = DmpcParams::new(n, m_max);
        let mut alg = DmpcConnectivity::new(params);
        let ups = streams::tree_churn_stream(n, 40, 13);
        let mut worst_rounds = 0;
        let mut worst_words = 0;
        for &u in &ups {
            let m = match u {
                Update::Insert(e) => alg.insert(e),
                Update::Delete(e) => alg.delete(e),
            };
            worst_rounds = worst_rounds.max(m.rounds);
            worst_words = worst_words.max(m.max_words_per_round);
        }
        rounds_at_size.push(worst_rounds);
        words_at_size.push(worst_words);
    }
    // Rounds do not grow with N.
    assert!(rounds_at_size.windows(2).all(|w| w[1] <= w[0] + 1));
    assert!(*rounds_at_size.last().unwrap() <= 10);
    // Communication grows with N (the broadcasts touch O(sqrt N) machines).
    assert!(words_at_size.last().unwrap() > words_at_size.first().unwrap());
}

/// Tour indexes reach `4n - 4` and the shard stores them in 32-bit columns,
/// so the driver refuses `n > 2^30` up front instead of letting an index
/// wrap in release builds. The panic fires before any machine (or any O(n)
/// allocation) exists.
#[test]
#[should_panic(expected = "exceeds the 1073741824-vertex limit: tour indexes")]
fn vertex_count_beyond_32_bit_tour_indexes_is_refused() {
    let n = (1usize << 30) + 1;
    DmpcConnectivity::new(DmpcParams::new(n, 3 * n));
}

/// Resident memory of a loaded instance stays within 25% of a plain
/// container model of the shards alone (4 core words per vertex, 1 per tour
/// index, 4 per adjacency entry): the arenas spend 2.5 words per entry,
/// and the slack between compactions is bounded by the `live/8 + 16`
/// threshold plus relocation headroom — with room left for every
/// machine's non-shard state.
#[test]
fn resident_within_slack_of_container_model() {
    let n = 256;
    let mut alg = DmpcConnectivity::new(DmpcParams::new(n, 3 * n));
    for &u in &streams::churn_stream(n, 2 * n, 512, 0.5, 42) {
        assert!(alg.apply(u).clean());
    }
    let model: usize = alg
        .driver()
        .machines()
        .flat_map(|m| m.vertices())
        .map(|(_, st)| 4 + st.idx.len() + 4 * st.adj.len())
        .sum();
    let resident = alg.resident_words();
    assert!(
        resident <= model + model / 4,
        "resident {resident} words exceeds the container model's {model} by more than 25%"
    );
}
