//! Component-owner multicast: differential tests against the legacy
//! broadcast routing, the owner-directory invariant, and the no-self-message
//! metering guarantee.
//!
//! The two routings run the identical protocol; broadcast merely
//! over-addresses the structural multicasts. So machine states, directory
//! shards and query answers must be **bit-identical**, while the multicast
//! path's active-machine metrics must never exceed broadcast's and must drop
//! to the affected components' owner-set size on structural updates.

use dmpc_connectivity::algorithm::ConnDriver;
use dmpc_connectivity::machine::VertexState;
use dmpc_connectivity::{DmpcConnectivity, DmpcMst, Routing};
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm};
use dmpc_eulertour::indexed::CompId;
use dmpc_graph::streams::{self, Update, WeightedUpdate};
use dmpc_graph::{DynamicGraph, Edge, V};
use dmpc_mpc::{ExecOptions, MachineId, UpdateMetrics};
use proptest::prelude::*;

/// Full sharded state: every machine's vertex states plus directory shard.
type Snapshot = Vec<(Vec<(V, VertexState)>, Vec<(CompId, Vec<MachineId>)>)>;

fn snapshot(d: &ConnDriver) -> Snapshot {
    d.machines()
        .map(|m| {
            (
                m.vertices(),
                m.directory().iter().map(|(&c, o)| (c, o.clone())).collect(),
            )
        })
        .collect()
}

fn apply(alg: &mut DmpcConnectivity, u: Update) -> UpdateMetrics {
    match u {
        Update::Insert(e) => alg.insert(e),
        Update::Delete(e) => alg.delete(e),
    }
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

    /// Multicast and broadcast routing are bit-identical in states, owner
    /// directory, and query answers after every update; multicast never
    /// activates more machines than broadcast.
    #[test]
    fn multicast_equals_broadcast(
        ops in proptest::collection::vec((0u32..24, 0u32..24, any::<bool>()), 1..120)
    ) {
        let n = 24usize;
        let params = DmpcParams::new(n, 140);
        let mut mc = DmpcConnectivity::with_routing(params, ExecOptions::default(), Routing::Multicast);
        let mut bc = DmpcConnectivity::with_routing(params, ExecOptions::default(), Routing::Broadcast);
        for u in valid_stream(n, ops) {
            let mm = apply(&mut mc, u);
            let mb = apply(&mut bc, u);
            prop_assert!(mm.clean(), "multicast violations: {:?}", mm.violations);
            prop_assert!(mb.clean(), "broadcast violations: {:?}", mb.violations);
            // A flow whose whole audience is local quiesces earlier under
            // multicast; it can never need *more* rounds than broadcast.
            prop_assert!(mm.rounds <= mb.rounds);
            prop_assert!(
                mm.max_active_machines <= mb.max_active_machines,
                "multicast activated more machines ({} > {}) on {:?}",
                mm.max_active_machines, mb.max_active_machines, u
            );
            prop_assert!(mm.machines_touched <= mb.machines_touched);
            prop_assert_eq!(mc.component_labels(), bc.component_labels());
            prop_assert_eq!(snapshot(mc.driver()), snapshot(bc.driver()), "state diverged after {:?}", u);
            mc.driver().audit().map_err(TestCaseError::fail)?;
            mc.driver().audit_directory().map_err(TestCaseError::fail)?;
            bc.driver().audit_directory().map_err(TestCaseError::fail)?;
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
            let m = apply(&mut single, u);
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

/// MST mode (path-max queries, swap cuts) is also routing-independent.
#[test]
fn mst_multicast_equals_broadcast() {
    let n = 32;
    let params = DmpcParams::new(n, 160);
    for seed in 0..3 {
        let mut mc = DmpcMst::with_routing(params, 0.1, Routing::Multicast);
        let mut bc = DmpcMst::with_routing(params, 0.1, Routing::Broadcast);
        let ups = streams::with_weights(&streams::churn_stream(n, 50, 120, 0.5, seed), 100, seed);
        for (step, &u) in ups.iter().enumerate() {
            let (mm, mb) = match u {
                WeightedUpdate::Insert(e, w) => (mc.insert(e, w), bc.insert(e, w)),
                WeightedUpdate::Delete(e) => (mc.delete(e), bc.delete(e)),
            };
            assert!(mm.clean(), "seed {seed} step {step}: {:?}", mm.violations);
            assert!(mb.clean(), "seed {seed} step {step}: {:?}", mb.violations);
            assert!(mm.max_active_machines <= mb.max_active_machines);
            assert_eq!(
                snapshot(mc.driver()),
                snapshot(bc.driver()),
                "seed {seed} step {step} ({u:?}): states diverged"
            );
            assert_eq!(mc.forest_weight(), bc.forest_weight());
            mc.driver().audit().unwrap();
            mc.driver().audit_directory().unwrap();
        }
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
/// must contain no (m, m) pair — in either routing, and in MST mode.
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
    for routing in [Routing::Multicast, Routing::Broadcast] {
        let mut cc = DmpcConnectivity::with_routing(params, ExecOptions::default(), routing);
        for &u in &streams::churn_stream(n, 60, 160, 0.5, 11) {
            check(&apply(&mut cc, u), "connectivity");
        }
    }
    let mut mst = DmpcMst::new(params, 0.1);
    let wups = streams::with_weights(&streams::churn_stream(n, 50, 120, 0.5, 7), 100, 7);
    for &u in &wups {
        let m = match u {
            WeightedUpdate::Insert(e, w) => mst.insert(e, w),
            WeightedUpdate::Delete(e) => mst.delete(e),
        };
        check(&m, "mst");
    }
}

/// The acceptance run: on the canonical churn stream (n = 256, P = 16),
/// multicast yields bit-identical query answers and states to broadcast,
/// while its active-machine footprint on structural updates drops from P to
/// the affected components' owner-set size.
#[test]
fn canonical_stream_bit_identical_and_active_drop() {
    let n = 256;
    let p = 16;
    let params = DmpcParams::new(n, 3 * n);
    let exec = ExecOptions::default();
    let mut mc = DmpcConnectivity::with_cluster(params, exec, Routing::Multicast, p);
    let mut bc = DmpcConnectivity::with_cluster(params, exec, Routing::Broadcast, p);
    assert_eq!(mc.driver().n_machines(), p);
    let ups = streams::churn_stream(n, 2 * n, 512, 0.5, 42);
    let (mut sum_mc, mut sum_bc) = (0usize, 0usize);
    let mut structural_improved = 0usize;
    let mut structural_total = 0usize;
    for (step, &u) in ups.iter().enumerate() {
        let structural = mc.driver().is_structural(u);
        // Pre-update owner footprint: the machines owning either endpoint's
        // component. Every machine the update touches must come from there.
        let e = u.edge();
        let union = mc.driver().owner_footprint(e);
        let mm = apply(&mut mc, u);
        let mb = apply(&mut bc, u);
        assert!(mm.clean() && mb.clean(), "step {step}");
        assert_eq!(
            mc.component_labels(),
            bc.component_labels(),
            "step {step} ({u:?}): query answers diverged"
        );
        assert!(
            mm.machines_touched <= union.len(),
            "step {step} ({u:?}): multicast touched {} machines but the affected \
             owner footprint is only {}",
            mm.machines_touched,
            union.len()
        );
        assert!(mm.max_active_machines <= mb.max_active_machines);
        sum_mc += mm.machines_touched;
        sum_bc += mb.machines_touched;
        if structural {
            structural_total += 1;
            if mm.machines_touched < mb.machines_touched {
                structural_improved += 1;
            }
        }
        if step % 64 == 0 {
            assert_eq!(snapshot(mc.driver()), snapshot(bc.driver()), "step {step}");
            mc.driver().audit_directory().unwrap();
        }
    }
    assert_eq!(snapshot(mc.driver()), snapshot(bc.driver()));
    assert!(
        structural_total > 0,
        "stream exercised no structural updates"
    );
    assert!(
        structural_improved > 0,
        "no structural update improved on broadcast ({structural_total} structural)"
    );
    assert!(
        sum_mc < sum_bc,
        "multicast total machine footprint {sum_mc} must beat broadcast {sum_bc}"
    );
}

/// On cluster-local workloads, multicast restores the Table-1 bound: the
/// whole update footprint stays within the owner set, machine count P be
/// damned — while broadcast activates ~P on every structural update.
#[test]
fn clustered_churn_active_bounded_by_owner_sets() {
    let n = 128;
    let p = 32;
    let params = DmpcParams::new(n, 3 * n);
    let exec = ExecOptions::default();
    let mut mc = DmpcConnectivity::with_cluster(params, exec, Routing::Multicast, p);
    let mut bc = DmpcConnectivity::with_cluster(params, exec, Routing::Broadcast, p);
    let p = mc.driver().n_machines();
    let ups = streams::clustered_churn_stream(n, 8, 12, 200, 0.5, 9);
    let mut bc_saw_full_fanout = false;
    for &u in &ups {
        let structural = mc.driver().is_structural(u);
        let mm = apply(&mut mc, u);
        let mb = apply(&mut bc, u);
        // Clusters span n/8 = 16 vertices = 4 machine blocks: the whole
        // update must fit in a handful of machines under multicast.
        assert!(
            mm.machines_touched <= 5,
            "{u:?} touched {} machines on a 4-machine cluster",
            mm.machines_touched
        );
        if structural {
            bc_saw_full_fanout |= mb.max_active_machines >= p - 1;
        }
        assert_eq!(mc.component_labels(), bc.component_labels());
    }
    assert!(
        bc_saw_full_fanout,
        "broadcast never hit full fan-out; the comparison is vacuous"
    );
    mc.driver().audit().unwrap();
    mc.driver().audit_directory().unwrap();

    // The P sweep at fixed n = 256: the structural footprint follows the
    // owner sets under multicast and P under broadcast.
    let n = 256;
    let ups = streams::clustered_churn_stream(n, 8, n / 16, 512, 0.5, 42);
    for p in [4, 16, 64] {
        let mc = p_sweep_cell(n, p, Routing::Multicast, &ups);
        let bc = p_sweep_cell(n, p, Routing::Broadcast, &ups);
        assert!(mc.structural > 0 && mc.structural == bc.structural);
        assert!(
            mc.max_touched_structural <= mc.max_owner_union + 1,
            "P={p}: worst structural update touched {} machines, worst owner union {}",
            mc.max_touched_structural,
            mc.max_owner_union
        );
        assert!(
            mc.sum_touched_structural <= bc.sum_touched_structural,
            "P={p}: multicast touched more machines than broadcast on structural updates"
        );
        assert!(mc.sum_touched <= bc.sum_touched, "P={p}");
    }
}

/// One routing's footprint totals over a stream at a forced machine count.
#[derive(Default)]
struct PSweepCell {
    structural: usize,
    max_touched_structural: usize,
    sum_touched_structural: usize,
    sum_touched: usize,
    /// Worst pre-update owner footprint seen on a structural update.
    max_owner_union: usize,
}

/// Runs `ups` at `p` machines, asserting per update that nothing violates
/// the model and that multicast stays inside the pre-update owner
/// footprint of the edge's two components.
fn p_sweep_cell(n: usize, p: usize, routing: Routing, ups: &[Update]) -> PSweepCell {
    // Forcing P below the model's O(sqrt N) machine count means each machine
    // holds Theta(N / P) words; forcing it above means broadcast sends
    // 16-word Applies to P-1 machines in one round. Provision for both, so
    // the sweep measures active machines instead of capacity violations.
    let base = DmpcParams::new(n, 3 * n);
    let mem_mult = 32 * base.storage_machines().div_ceil(p).max(1);
    let fanout_mult = (16 * p).div_ceil(base.sqrt_n()) + 1;
    let params = base.with_multiplier(mem_mult.max(fanout_mult));
    let mut alg = DmpcConnectivity::with_cluster(params, ExecOptions::default(), routing, p);
    let mut cell = PSweepCell::default();
    for &u in ups {
        let structural = alg.driver().is_structural(u);
        let union = alg.driver().owner_footprint(u.edge()).len();
        let m = apply(&mut alg, u);
        assert!(m.clean(), "P={p} {routing:?} {u:?}: {:?}", m.violations);
        if routing == Routing::Multicast {
            assert!(
                m.machines_touched <= union,
                "P={p} {u:?}: touched {} machines, owner footprint {union}",
                m.machines_touched
            );
        }
        if structural {
            cell.structural += 1;
            cell.max_touched_structural = cell.max_touched_structural.max(m.machines_touched);
            cell.sum_touched_structural += m.machines_touched;
            cell.max_owner_union = cell.max_owner_union.max(union);
        }
        cell.sum_touched += m.machines_touched;
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
        let mut alg =
            DmpcConnectivity::with_cluster(params, ExecOptions::default(), Routing::Multicast, p);
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
