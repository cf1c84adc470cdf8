//! Randomized end-to-end verification of the Section 3 maximal matching and
//! the Section 4 3/2-approximate matching, with deep audits after every
//! update (maximality, record exactness, alive/suspended invariants,
//! annotation coherence, counters, no short augmenting paths).

use dmpc_core::{DmpcParams, DynamicGraphAlgorithm};
use dmpc_graph::maxmatch::maximum_matching_size;
use dmpc_graph::streams::{self, Update};
use dmpc_graph::{DynamicGraph, Edge};
use dmpc_matching::{DmpcMaximalMatching, DmpcThreeHalves};

fn drive<A: DynamicGraphAlgorithm<Update = Update>>(
    n: usize,
    alg: &mut A,
    ups: &[Update],
    mut audit: impl FnMut(&DynamicGraph, usize),
) -> usize {
    let mut g = DynamicGraph::new(n);
    let mut max_rounds = 0;
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
            "step {step} ({u:?}): violations {:?}",
            m.violations
        );
        max_rounds = max_rounds.max(m.rounds);
        audit(&g, step);
    }
    max_rounds
}

#[test]
fn maximal_random_churn_verified() {
    let n = 40;
    for seed in 0..3 {
        let params = DmpcParams::new(n, 300);
        let mut alg = DmpcMaximalMatching::new(params);
        let ups = streams::churn_stream(n, 80, 240, 0.5, seed);
        let rounds = drive(n, &mut alg, &ups, |_, _| {});
        assert!(
            rounds <= 24,
            "rounds per update must be constant, got {rounds}"
        );
    }
}

#[test]
fn maximal_audit_every_step() {
    let n = 36;
    let params = DmpcParams::new(n, 260);
    let mut alg = DmpcMaximalMatching::new(params);
    let mut g = DynamicGraph::new(n);
    let ups = streams::churn_stream(n, 70, 200, 0.5, 11);
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
        alg.audit(&g)
            .unwrap_or_else(|err| panic!("step {step} ({u:?}): {err}"));
    }
}

#[test]
fn maximal_star_graph_heavy_stress() {
    // A star drives the center far beyond tau, exercising MakeHeavy, the
    // suspended stack, refills and MakeLight on the way back down.
    let n = 60;
    let params = DmpcParams::new(n, 64);
    let tau = params.heavy_threshold();
    assert!(n - 1 > tau + 4, "star center must go heavy");
    let mut alg = DmpcMaximalMatching::new(params);
    let mut g = DynamicGraph::new(n);
    let edges: Vec<Edge> = (1..n as u32).map(|v| Edge::new(0, v)).collect();
    for (i, &e) in edges.iter().enumerate() {
        g.insert(e).unwrap();
        let m = alg.insert(e);
        assert!(m.clean(), "insert {i}: {:?}", m.violations);
        alg.audit(&g)
            .unwrap_or_else(|err| panic!("insert {i}: {err}"));
    }
    // Delete in an interleaved order, including the matched edge.
    let mut order = edges.clone();
    order.reverse();
    for (i, &e) in order.iter().enumerate() {
        g.delete(e).unwrap();
        let m = alg.delete(e);
        assert!(m.clean(), "delete {i}: {:?}", m.violations);
        alg.audit(&g)
            .unwrap_or_else(|err| panic!("delete {i}: {err}"));
    }
    assert_eq!(alg.matching().size(), 0);
}

#[test]
fn maximal_bulk_load_then_churn() {
    let n = 32;
    let params = DmpcParams::new(n, 200);
    let edges = dmpc_graph::generators::gnm(n, 90, 5);
    let mut alg = DmpcMaximalMatching::new(params);
    alg.bulk_load(&edges);
    let mut g = DynamicGraph::from_edges(n, &edges);
    alg.audit(&g).unwrap();
    // Delete everything, auditing as we go.
    for (i, &e) in edges.iter().enumerate() {
        g.delete(e).unwrap();
        let m = alg.delete(e);
        assert!(m.clean(), "delete {i}: {:?}", m.violations);
        alg.audit(&g)
            .unwrap_or_else(|err| panic!("delete {i}: {err}"));
    }
}

#[test]
fn three_halves_random_churn_verified() {
    // (n, m_max, build-up edges, churn steps, seed). The n >= 64 streams
    // are the bench bins' own first cells: each once left a stale rotation
    // (its matched pair re-matched since the scan that chose it) to corrupt
    // the free-neighbour counters some two hundred updates in.
    let small = (0..3).map(|seed| (30, 220, 60, 160, seed));
    let bins = [
        (64, 192, 128, 120, 1),
        (64, 192, 128, 120, 9),
        (128, 384, 256, 120, 42),
    ];
    for (n, m_max, build, steps, seed) in small.chain(bins) {
        let params = DmpcParams::new(n, m_max);
        let mut alg = DmpcThreeHalves::new(params);
        let mut g = DynamicGraph::new(n);
        let ups = streams::churn_stream(n, build, steps, 0.5, seed);
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
                "n {n} seed {seed} step {step}: {:?}",
                m.violations
            );
            alg.audit(&g)
                .unwrap_or_else(|err| panic!("n {n} seed {seed} step {step} ({u:?}): {err}"));
        }
        // Empirical approximation factor: 3/2 of the maximum matching.
        let max = maximum_matching_size(&g);
        let got = alg.matching().size();
        assert!(3 * got >= 2 * max, "|M|={got} vs maximum {max}");
    }
}

#[test]
fn three_halves_star_heavy_stress() {
    let n = 50;
    let params = DmpcParams::new(n, 56);
    let mut alg = DmpcThreeHalves::new(params);
    let mut g = DynamicGraph::new(n);
    // Star plus a few rim edges so augmenting paths exist.
    let mut edges: Vec<Edge> = (1..n as u32).map(|v| Edge::new(0, v)).collect();
    edges.push(Edge::new(1, 2));
    edges.push(Edge::new(3, 4));
    edges.push(Edge::new(5, 6));
    for (i, &e) in edges.iter().enumerate() {
        g.insert(e).unwrap();
        let m = alg.insert(e);
        assert!(m.clean(), "insert {i}: {:?}", m.violations);
        alg.audit(&g)
            .unwrap_or_else(|err| panic!("insert {i}: {err}"));
    }
    for (i, &e) in edges.clone().iter().rev().enumerate() {
        g.delete(e).unwrap();
        let m = alg.delete(e);
        assert!(m.clean(), "delete {i}: {:?}", m.violations);
        alg.audit(&g)
            .unwrap_or_else(|err| panic!("delete {i}: {err}"));
    }
}

/// Golden model costs and final matching of the Section 4 algorithm at
/// n=128, one update per run: a seeded churn stream, then a star that
/// drives vertex 0 heavy, then the deletion of vertex 0's churn edges and
/// of the star in insertion order (alive edges first, so suspended edges
/// refill them, and vertex 0 goes free while heavy), back to light. The
/// stream reaches every §4 wait — the insert check, the augmentation
/// search and its counters, both both-sides-free scans (a rotation among
/// them), heavy scans with suspended edges, steals and the counter commit —
/// which no §3-only golden does; a change to how the coordinator waits
/// must move none of these numbers.
///
/// Words restated, all else unchanged, when a history suffix began to
/// travel as one base seq and 3 words per entry instead of 4 per entry
/// (one update per run, so no batch yield moves). They were 86,768.
#[test]
fn three_halves_golden_costs_n128() {
    let n = 128;
    let params = DmpcParams::new(n, 3 * n);
    let mut ups = streams::churn_stream(n, 2 * n, 384, 0.55, 32);
    let g = streams::replay(n, &ups);
    let star: Vec<Edge> = (1..=64)
        .map(|v| Edge::new(0, v))
        .filter(|&e| !g.has_edge(e))
        .collect();
    assert!(g.degree(0) + star.len() > params.heavy_threshold() + 8);
    ups.extend(star.iter().map(|&e| Update::Insert(e)));
    ups.extend(g.neighbors(0).map(|v| Update::Delete(Edge::new(0, v))));
    ups.extend(star.iter().map(|&e| Update::Delete(e)));
    let mut alg = DmpcThreeHalves::new(params);
    let (mut rounds, mut words, mut messages, mut active) = (0, 0, 0, 0);
    for (step, &u) in ups.iter().enumerate() {
        let m = alg.apply(u);
        assert!(m.clean(), "step {step}: {:?}", m.violations);
        rounds += m.rounds;
        words += m.total_words;
        messages += m.total_messages;
        active = active.max(m.max_active_machines);
    }
    let g = streams::replay(n, &ups);
    alg.audit(&g).unwrap();
    let mut h = dmpc_mpc::chaos::Fnv1a::new();
    for e in alg.matching().edges() {
        h.write(&e.u.to_le_bytes());
        h.write(&e.v.to_le_bytes());
    }
    assert_eq!(
        (rounds, words, messages, active, h.finish()),
        (5841, 77830, 11320, 7, 11137940058448441959)
    );
}

#[test]
fn rounds_stay_constant_across_sizes() {
    // The Table 1 headline for rows 1-2: rounds per update do not grow
    // with N.
    let mut worst = Vec::new();
    for k in [5usize, 6, 7] {
        let n = 1 << k;
        let params = DmpcParams::new(n, 4 * n);
        let mut alg = DmpcMaximalMatching::new(params);
        let ups = streams::churn_stream(n, 2 * n, 60, 0.5, 9);
        let mut g = DynamicGraph::new(n);
        let mut max_rounds = 0;
        for &u in &ups {
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
            assert!(m.clean(), "{:?}", m.violations);
            max_rounds = max_rounds.max(m.rounds);
        }
        worst.push(max_rounds);
    }
    assert!(
        worst.iter().all(|&r| r <= 24),
        "rounds must be O(1): {worst:?}"
    );
}

#[test]
fn batched_matching_cancellation_same_edge() {
    // A batch with insert+delete of the same edge nets out; the final
    // structure must audit clean against the ground truth.
    let n = 10;
    let params = DmpcParams::new(n, 30);
    let mut alg = DmpcMaximalMatching::new(params);
    let mut g = DynamicGraph::new(n);
    let (e, f) = (Edge::new(0, 1), Edge::new(2, 3));
    let batch = [
        Update::Insert(e),
        Update::Insert(f),
        Update::Delete(e), // cancels the first insert
    ];
    for &u in &batch {
        match u {
            Update::Insert(x) => g.insert(x).unwrap(),
            Update::Delete(x) => g.delete(x).unwrap(),
        }
    }
    let bm = alg.apply_batch(&batch);
    assert!(bm.clean(), "{} violations", bm.violations);
    assert_eq!(bm.updates, 3);
    alg.audit(&g).unwrap();
    let m = alg.matching();
    assert!(m.is_matched(2) && m.is_matched(3));
    assert!(!m.is_matched(0) && !m.is_matched(1));
}

#[test]
fn batched_matching_amortizes_rounds() {
    // The shared prefetch + back-to-back drain must beat the looped default
    // on amortized rounds per update.
    let n = 64;
    let params = DmpcParams::new(n, 3 * n);
    let ups = streams::churn_stream(n, 2 * n, 192, 0.5, 17);
    let mut batched = DmpcMaximalMatching::new(params);
    let mut looped = DmpcMaximalMatching::new(params);
    let mut bm = dmpc_mpc::BatchMetrics::default();
    let mut lm = dmpc_mpc::BatchMetrics::default();
    for batch in ups.chunks(64) {
        bm.merge(&batched.apply_batch(batch));
        lm.merge(&dmpc_core::apply_batch_looped(&mut looped, batch));
    }
    assert!(bm.clean(), "batched violations: {}", bm.violations);
    let g = streams::replay(n, &ups);
    batched.audit(&g).unwrap();
    assert!(
        bm.amortized_rounds() * 1.5 < lm.amortized_rounds(),
        "expected >=1.5x round amortization: batched {:.2} vs looped {:.2}",
        bm.amortized_rounds(),
        lm.amortized_rounds()
    );
}
