//! Component-owner multicast: an update steps only machines that own a
//! vertex of the components it touches, the owner directory stays exact,
//! and no machine messages itself.
//!
//! Until PR 24 every stream here also ran under an all-machine broadcast
//! of the same protocol and the two were compared update by update. That
//! routing is gone; its last run (commit 9e4e563, states asserted equal to
//! multicast's after every update) is frozen in `tests/golden_digests.rs`
//! beside multicast's digests, rounds and words, and the broadcast numbers
//! quoted below are from that run. What the comparison showed per update —
//! multicast never steps a machine broadcast did not need — is asserted
//! here against the ground truth instead: the pre-update owner footprint.

use dmpc_connectivity::algorithm::ConnDriver;
use dmpc_connectivity::{DmpcConnectivity, DmpcMst};
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm};
use dmpc_eulertour::indexed::CompId;
use dmpc_graph::streams::{self, Update};
use dmpc_graph::{DynamicGraph, Edge, V};
use dmpc_mpc::{ExecOptions, UpdateMetrics};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Applies `u` and checks what routing owes every update: no model
/// violation, and every machine stepped owns a vertex of one of the edge's
/// two pre-update components.
fn apply_in_footprint(alg: &mut DmpcConnectivity, u: Update) -> UpdateMetrics {
    let footprint = alg.driver().owner_footprint(u.edge());
    let m = alg.apply(u);
    assert_in_footprint(alg.driver(), &m, &footprint, &format!("{u:?}"));
    m
}

fn assert_in_footprint(d: &ConnDriver, m: &UpdateMetrics, footprint: &[u32], what: &str) {
    assert!(m.clean(), "{what}: {:?}", m.violations);
    assert!(
        d.touched().iter().all(|t| footprint.contains(t)),
        "{what}: stepped {:?}, owner footprint {footprint:?}",
        d.touched()
    );
    assert!(m.max_active_machines <= m.machines_touched);
    assert!(m.machines_touched <= footprint.len());
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sixteen streams the broadcast differential replayed (their
    /// digests and totals are `MULTICAST_PROPTEST` in the golden file):
    /// after every update the footprint bound, the structure audit, the
    /// directory audit and the reference graph's partition all hold.
    #[test]
    fn multicast_equals_broadcast(
        ops in proptest::collection::vec((0u32..24, 0u32..24, any::<bool>()), 1..120)
    ) {
        let n = 24usize;
        let mut alg = DmpcConnectivity::new(DmpcParams::new(n, 140));
        let mut truth = DynamicGraph::new(n);
        for u in valid_stream(n, ops) {
            apply_in_footprint(&mut alg, u);
            match u {
                Update::Insert(e) => truth.insert(e),
                Update::Delete(e) => truth.delete(e),
            }
            .unwrap();
            alg.driver().audit().map_err(TestCaseError::fail)?;
            alg.driver().audit_directory().map_err(TestCaseError::fail)?;
            // Same partition as BFS: every vertex joins its reference
            // representative, and there are no fewer components than that.
            let reps = truth.components();
            for (v, &rep) in reps.iter().enumerate() {
                prop_assert!(alg.connected(v as V, rep), "{:?}: {} and {} split", u, v, rep);
            }
            let distinct = |ids: Vec<u32>| ids.into_iter().collect::<BTreeSet<u32>>().len();
            prop_assert_eq!(distinct(alg.component_labels()), distinct(reps), "{:?}", u);
        }
    }

    /// Directory invariant under churn *and* batched execution: after every
    /// update and every batch, each component's owner set is exactly the
    /// machines owning >= 1 live vertex of it.
    #[test]
    fn directory_invariant_on_churn_and_batches(
        ops in proptest::collection::vec((0u32..20, 0u32..20, any::<bool>()), 1..140),
        k in 1usize..24
    ) {
        let n = 20usize;
        let params = DmpcParams::new(n, 140);
        let mut single = DmpcConnectivity::new(params);
        let mut batched = DmpcConnectivity::new(params);
        let stream = valid_stream(n, ops);
        for &u in &stream {
            let m = single.apply(u);
            prop_assert!(m.clean());
            single.driver().audit_directory().map_err(TestCaseError::fail)?;
        }
        for batch in stream.chunks(k) {
            let bm = batched.apply_batch(batch);
            prop_assert!(bm.clean(), "batch violations: {}", bm.violations);
            batched.driver().audit_directory().map_err(TestCaseError::fail)?;
            batched.driver().audit().map_err(TestCaseError::fail)?;
        }
        // Batched execution may pick a different (equally valid) spanning
        // forest than one-by-one execution; only the partition must agree.
        let norm = |labels: Vec<CompId>| {
            let mut map = std::collections::HashMap::new();
            labels
                .into_iter()
                .map(|l| {
                    let next = map.len() as u32;
                    *map.entry(l).or_insert(next)
                })
                .collect::<Vec<u32>>()
        };
        prop_assert_eq!(
            norm(single.component_labels()),
            norm(batched.component_labels())
        );
    }
}

/// MST mode (path-max queries, swap cuts) stays inside the owner footprint
/// too; its digests, rounds and words on these three streams are
/// `MST_CHURN` in the golden file, its footprint totals `MULTICAST_MST`,
/// and both routings ended on these forest weights.
#[test]
fn mst_multicast_equals_broadcast() {
    let n = 32;
    let params = DmpcParams::new(n, 160);
    for (seed, forest_weight) in [(0, 771), (1, 984), (2, 1086)] {
        let mut alg = DmpcMst::new(params, 0.1);
        let ups = streams::with_weights(&streams::churn_stream(n, 50, 120, 0.5, seed), 100, seed);
        for (step, &u) in ups.iter().enumerate() {
            let footprint = alg.driver().owner_footprint(u.edge());
            let m = alg.apply(u);
            let what = format!("seed {seed} step {step} ({u:?})");
            assert_in_footprint(alg.driver(), &m, &footprint, &what);
            alg.driver().audit().unwrap();
            alg.driver().audit_directory().unwrap();
        }
        assert_eq!(alg.forest_weight(), forest_weight, "seed {seed}");
    }
}

/// Directory bootstrap: bulk loading installs exact owner sets.
#[test]
fn bulk_load_installs_directory() {
    let n = 40;
    let params = DmpcParams::new(n, 200);
    let edges = dmpc_graph::generators::random_tree_plus(n, 40, 5);
    let mut alg = DmpcConnectivity::new(params);
    alg.bulk_load(&edges);
    alg.driver().audit().unwrap();
    alg.driver().audit_directory().unwrap();
    // And the directory stays exact while the loaded graph is torn down.
    for &e in &edges {
        let m = alg.delete(e);
        assert!(m.clean(), "{:?}", m.violations);
        alg.driver().audit_directory().unwrap();
    }
}

/// No machine ever messages itself: self-addressed protocol steps execute
/// locally (local work is free in the MPC model), so the metered flow map
/// must contain no (m, m) pair — in connectivity and in MST mode.
#[test]
fn no_machine_messages_itself() {
    let n = 40;
    let params = DmpcParams::new(n, 200);
    let check = |m: &UpdateMetrics, what: &str| {
        for (&(src, dst), &words) in &m.flows {
            assert_ne!(
                src, dst,
                "{what}: machine {src} sent itself {words} words of metered traffic"
            );
        }
        assert!(!m.flows.is_empty() || m.total_words == 0);
    };
    let mut cc = DmpcConnectivity::new(params);
    for &u in &streams::churn_stream(n, 60, 160, 0.5, 11) {
        check(&cc.apply(u), "connectivity");
    }
    let mut mst = DmpcMst::new(params, 0.1);
    let wups = streams::with_weights(&streams::churn_stream(n, 50, 120, 0.5, 7), 100, 7);
    for &u in &wups {
        check(&mst.apply(u), "mst");
    }
}

/// The acceptance run: on the canonical churn stream (n = 256, P = 16)
/// every update stays inside its owner footprint, and the machine
/// footprint drops from broadcast's to the affected components' owner-set
/// size (the bit-identical half is `MULTICAST_CANONICAL_P16`).
#[test]
fn canonical_stream_bit_identical_and_active_drop() {
    /// Machines broadcast stepped over this stream: all 16 on each of the
    /// 387 structural updates, 7,429 in total.
    const SUM_BC: usize = 7429;
    let n = 256;
    let p = 16;
    let params = DmpcParams::new(n, 3 * n);
    let mut alg = DmpcConnectivity::with_cluster(params, ExecOptions::default(), p);
    assert_eq!(alg.driver().n_machines(), p);
    let ups = streams::churn_stream(n, 2 * n, 512, 0.5, 42);
    let mut sum_touched = 0usize;
    let mut structural_improved = 0usize;
    let mut structural_total = 0usize;
    for (step, &u) in ups.iter().enumerate() {
        let structural = alg.driver().is_structural(u);
        let m = apply_in_footprint(&mut alg, u);
        sum_touched += m.machines_touched;
        if structural {
            structural_total += 1;
            structural_improved += (m.machines_touched < p) as usize;
        }
        if step % 64 == 0 {
            alg.driver().audit_directory().unwrap();
        }
    }
    alg.driver().audit().unwrap();
    alg.driver().audit_directory().unwrap();
    assert!(
        structural_total > 0,
        "stream exercised no structural updates"
    );
    assert!(
        structural_improved > 0,
        "no structural update stepped fewer than all {p} machines ({structural_total} structural)"
    );
    assert!(
        sum_touched < SUM_BC,
        "multicast total machine footprint {sum_touched} must beat broadcast's {SUM_BC}"
    );
}

/// On cluster-local workloads, multicast restores the Table-1 bound: the
/// whole update footprint stays within the owner set, machine count P be
/// damned — where broadcast activated P - 1 = 31 machines in a round and
/// stepped all 32 on each of the 250 structural updates.
#[test]
fn clustered_churn_active_bounded_by_owner_sets() {
    let n = 128;
    let params = DmpcParams::new(n, 3 * n);
    let mut alg = DmpcConnectivity::with_cluster(params, ExecOptions::default(), 32);
    for &u in &streams::clustered_churn_stream(n, 8, 12, 200, 0.5, 9) {
        let m = apply_in_footprint(&mut alg, u);
        // Clusters span n/8 = 16 vertices = 4 machine blocks: the whole
        // update must fit in a handful of machines.
        assert!(
            m.machines_touched <= 5,
            "{u:?} touched {} machines on a 4-machine cluster",
            m.machines_touched
        );
    }
    alg.driver().audit().unwrap();
    alg.driver().audit_directory().unwrap();

    // The P sweep at fixed n = 256: the structural footprint follows the
    // owner sets (1, 2 and 8 machines), where broadcast's followed P (4, 16
    // and 64 on every one of the 615 structural updates).
    let n = 256;
    let ups = streams::clustered_churn_stream(n, 8, n / 16, 512, 0.5, 42);
    for (p, footprint) in [(4, 1), (16, 2), (64, 8)] {
        let cell = p_sweep_cell(n, p, &ups);
        assert_eq!(cell.structural, 615);
        assert_eq!(cell.max_owner_union, footprint, "P={p}");
        assert_eq!(
            cell.max_touched_structural, footprint,
            "P={p}: worst structural update against the worst owner union"
        );
        assert!(
            cell.sum_touched_structural < cell.structural * p,
            "P={p}: multicast touched as many machines as broadcast on structural updates"
        );
    }
}

/// Footprint totals over a stream at a forced machine count.
#[derive(Default)]
struct PSweepCell {
    structural: usize,
    max_touched_structural: usize,
    sum_touched_structural: usize,
    /// Worst pre-update owner footprint seen on a structural update.
    max_owner_union: usize,
}

/// Runs `ups` at `p` machines, asserting per update that nothing violates
/// the model and that it stays inside the pre-update owner footprint of the
/// edge's two components.
fn p_sweep_cell(n: usize, p: usize, ups: &[Update]) -> PSweepCell {
    // Forcing P below the model's O(sqrt N) machine count means each machine
    // holds Theta(N / P) words: provision for it, so the sweep measures
    // active machines instead of memory violations.
    let base = DmpcParams::new(n, 3 * n);
    let params = base.with_multiplier(32 * base.storage_machines().div_ceil(p).max(1));
    let mut alg = DmpcConnectivity::with_cluster(params, ExecOptions::default(), p);
    let mut cell = PSweepCell::default();
    for &u in ups {
        let structural = alg.driver().is_structural(u);
        let footprint = alg.driver().owner_footprint(u.edge());
        let m = alg.apply(u);
        assert_in_footprint(alg.driver(), &m, &footprint, &format!("P={p} {u:?}"));
        if structural {
            cell.structural += 1;
            cell.max_touched_structural = cell.max_touched_structural.max(m.machines_touched);
            cell.sum_touched_structural += m.machines_touched;
            cell.max_owner_union = cell.max_owner_union.max(footprint.len());
        }
    }
    alg.driver().audit().expect("structural audit");
    alg.driver().audit_directory().expect("directory audit");
    cell
}

/// Single edge insert between two machines: the multicast path keeps the
/// whole flow inside the two owners (plus nobody else), in any cluster size.
#[test]
fn singleton_link_touches_only_the_two_owners() {
    for p in [4usize, 16, 64] {
        let n = 256;
        let params = DmpcParams::new(n, 3 * n);
        let mut alg = DmpcConnectivity::with_cluster(params, ExecOptions::default(), p);
        let block = n.div_ceil(alg.driver().n_machines());
        // Pick endpoints on two different machines.
        let e = Edge::new(0, block as V);
        let m = alg.insert(e);
        assert!(m.clean());
        assert_eq!(
            m.machines_touched, 2,
            "P={p}: a two-owner link touched {} machines",
            m.machines_touched
        );
        assert!(alg.connected(0, block as V));
    }
}

/// The exact cost of one MST insert that swaps, at P = 11 (block 3). The
/// tree is the path 0 - 3 - 9 - 6 - 7, rooted at 0 and spread over machines
/// 0 to 3, whose heaviest edge (6, 9) has its child endpoint 6 on machine 2
/// and its parent 9 on machine 3: inserting (0, 7) at weight 1 demotes
/// (6, 9), and since the swap starts at the owner of `d.u` = 6, the cut
/// travels to the parent's owner first (`NeedParentCut`). The linked edge
/// reroots the detached side {6, 7} at 7.
#[test]
fn one_mst_swap_costs_exactly() {
    let params = DmpcParams::new(32, 160);
    let mut alg = DmpcMst::new(params, 0.1);
    assert_eq!(alg.driver().n_machines(), 11);
    for (u, v, w) in [(6, 7, 2), (6, 9, 9), (3, 9, 5), (0, 3, 5)] {
        assert!(alg.insert(Edge::new(u, v), w).clean());
    }
    assert_eq!(alg.forest_weight(), 21);
    let m = alg.insert(Edge::new(0, 7), 1);
    assert!(m.clean(), "{:?}", m.violations);
    alg.driver().audit().unwrap();
    alg.driver().audit_directory().unwrap();
    let tree: Vec<Edge> = alg.driver().tree_edges().iter().map(|&(e, _)| e).collect();
    let want = [(0, 3), (0, 7), (3, 9), (6, 7)].map(|(u, v)| Edge::new(u, v));
    assert_eq!(tree, want);
    assert_eq!(alg.forest_weight(), 13);
    // The insert's `InsQuery` 0 -> 2 (8 words), where 7's owner fetches
    // the owner set from the root's (2 + 6) and multicasts the 7-word
    // path-max query to machines 0, 1 and 3, which reply (3 each);
    // `NeedParentCut` 2 -> 3 (9, the 4 span words and the 4 owners); the
    // 15-word swap from 3 to 0, 1 and 2, and its directory stores 3 -> 0
    // (the merged set, 6) and 3 -> 2 (the absorbed id's drop, 2).
    assert_eq!(
        (
            m.rounds,
            m.total_messages,
            m.total_words,
            m.machines_touched
        ),
        (8, 15, 116, 4)
    );
    let mut flows: Vec<((u32, u32), u64)> = m.flows.into_iter().collect();
    flows.sort_unstable();
    let want = [
        ((0, 2), 17),
        ((1, 2), 3),
        ((2, 0), 9),
        ((2, 1), 7),
        ((2, 3), 24),
        ((3, 0), 21),
        ((3, 1), 15),
        ((3, 2), 20),
    ];
    assert_eq!(flows, want);
}

/// The tree 0 - 3 - 9 - 6, rooted at 0 and spread over machines 0 to 3 at
/// P = 11 (block 3), loaded edge by edge, then `extra` on top.
fn spread_path(extra: &[(V, V)]) -> DmpcConnectivity {
    let params = DmpcParams::new(32, 160);
    let mut alg = DmpcConnectivity::new(params);
    assert_eq!(alg.driver().n_machines(), 11);
    for &(u, v) in [(0, 3), (3, 9), (9, 6)].iter().chain(extra) {
        assert!(alg.insert(Edge::new(u, v)).clean());
    }
    alg
}

/// An update's exact cost: (rounds, messages, words, machines touched)
/// and its per-pair flows, sorted.
type Cost = ((usize, usize, usize, usize), Vec<((u32, u32), u64)>);

/// `m`'s exact cost.
fn cost_of(m: UpdateMetrics) -> Cost {
    assert!(m.clean(), "{:?}", m.violations);
    let totals = (
        m.rounds,
        m.total_messages,
        m.total_words,
        m.machines_touched,
    );
    let mut flows: Vec<((u32, u32), u64)> = m.flows.into_iter().collect();
    flows.sort_unstable();
    (totals, flows)
}

/// The exact cost of a searching cut that finds a replacement. The path
/// `spread_path` loads is rooted at 6 (each link keeps its `x`'s id, and
/// (6, 9) links at 6), over machines 2, 3, 1 and 0 in path order; (0, 6)
/// is non-tree. Deleting (6, 9) cuts at 6's owner, machine 2, which holds
/// the component's directory entry itself: it multicasts the 16-word
/// Apply to machines 0, 1 and 3, which report (5 each). The best crossing
/// edge is (0, 6): the rendezvous hands its link to 0's owner (3 words and
/// the 4 owners), which sends the `InsQuery` back with the set (8 + 4).
/// Machine 2 multicasts the link's Apply to 0, 1 and 3 and stores the
/// merged set at the root owner of the kept id 9, machine 3 (2 + 4); the
/// absorbed id 6 is its own to drop.
#[test]
fn one_searching_cut_that_relinks_costs_exactly() {
    let mut alg = spread_path(&[(0, 6)]);
    let m = alg.delete(Edge::new(6, 9));
    alg.driver().audit().unwrap();
    alg.driver().audit_directory().unwrap();
    assert!(alg.connected(0, 9) && alg.connected(6, 9));
    let (totals, flows) = cost_of(m);
    assert_eq!(totals, (6, 12, 136, 4));
    let want = [
        ((0, 2), 17),
        ((1, 2), 5),
        ((2, 0), 39),
        ((2, 1), 32),
        ((2, 3), 38),
        ((3, 2), 5),
    ];
    assert_eq!(flows, want);
}

/// The exact cost of a searching cut that finds no replacement, on the
/// same path without a non-tree edge. Deleting (3, 9) starts at 3's owner,
/// machine 1; 3 is the child, so the cut travels to the parent 9's owner,
/// machine 3 (`NeedParentCut`, 9 words). Machine 3 fetches the owner set
/// from the root 6's owner, machine 2 (2 + 4), multicasts the Apply to
/// machines 0, 1 and 2, which report (5 each), and, with no candidate,
/// stores the two refined sets of two owners each (4 words each): the
/// parent side's at machine 2, the child side's (id 3) at machine 1.
#[test]
fn one_searching_cut_that_splits_costs_exactly() {
    let mut alg = spread_path(&[]);
    let m = alg.delete(Edge::new(3, 9));
    alg.driver().audit().unwrap();
    alg.driver().audit_directory().unwrap();
    assert!(!alg.connected(3, 9));
    let (totals, flows) = cost_of(m);
    assert_eq!(totals, (7, 11, 88, 4));
    let want = [
        ((0, 3), 5),
        ((1, 3), 14),
        ((2, 3), 11),
        ((3, 0), 16),
        ((3, 1), 20),
        ((3, 2), 22),
    ];
    assert_eq!(flows, want);
}

/// The exact cost of one link that reroots a multi-vertex absorbed side,
/// at P = 11 (block 3). The path 6 - 9 - 12, rooted at 6, lies on machines
/// 2, 3 and 4; the edge (0, 3), rooted at 0, on machines 0 and 1.
/// Inserting (0, 12) starts at 0's owner, machine 0, which sends the
/// `InsQuery` to 12's owner, machine 4 (8 words). Machine 4 fetches the
/// two owner sets from the root owners, machines 0 and 2 (2 words each),
/// which reply with the two sets (2 + 2 and 2 + 3). The absorbed side is
/// rerooted at 12, so the link's 16-word Apply goes to machines 0 to 3;
/// machine 4 then stores the merged set of five owners at machine 0 (2 +
/// 5) and drops the absorbed id 6 at machine 2 (2).
#[test]
fn one_rerooting_link_costs_exactly() {
    let params = DmpcParams::new(32, 160);
    let mut alg = DmpcConnectivity::new(params);
    assert_eq!(alg.driver().n_machines(), 11);
    for (u, v) in [(6, 9), (9, 12), (0, 3)] {
        assert!(alg.insert(Edge::new(u, v)).clean());
    }
    let m = alg.insert(Edge::new(0, 12));
    alg.driver().audit().unwrap();
    alg.driver().audit_directory().unwrap();
    assert!(alg.connected(3, 6));
    let (totals, flows) = cost_of(m);
    assert_eq!(totals, (5, 11, 94, 5));
    let want = [
        ((0, 4), 12),
        ((2, 4), 5),
        ((4, 0), 25),
        ((4, 1), 16),
        ((4, 2), 20),
        ((4, 3), 16),
    ];
    assert_eq!(flows, want);
}
