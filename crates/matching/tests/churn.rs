//! Machine churn for the Section 3 maximal matching: fail-stop kills with
//! checkpoint + suffix-replay revives, the protected coordinator, and chaos
//! runs that must land bit-identical to failure-free runs and match ground
//! truth.

use dmpc_core::{DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm};
use dmpc_graph::streams;
use dmpc_graph::{DynamicGraph, Op, Update};
use dmpc_matching::DmpcMaximalMatching;
use dmpc_mpc::{ChaosCaps, ChaosKind, ChaosPlan};
use dmpc_service::{CloseReason, ServiceAlgorithm, ServiceLoop, ServiceReport, UnweightedService};
use proptest::prelude::*;

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

/// The coordinator is the paper's one reliable machine: never killable.
/// Every other machine (stats, storage, overflow) is fair game.
#[test]
fn coordinator_is_protected() {
    let params = DmpcParams::new(32, 128);
    let alg = DmpcMaximalMatching::new(params);
    assert!(!alg.killable(0), "coordinator must be protected");
    for m in 1..alg.n_shards() as u32 {
        assert!(alg.killable(m), "machine {m} should be killable");
    }
}

/// Kill one machine of each role, revive it from a full-log replica, and
/// compare against an untouched twin: digests equal, audits hold.
#[test]
fn kill_revive_each_role_bit_identical() {
    let n = 32;
    let params = DmpcParams::new(n, 160);
    let ups = streams::churn_stream(n, 60, 120, 0.5, 5);
    let (pre, post) = ups.split_at(ups.len() / 2);

    let make = || DmpcMaximalMatching::new(params);
    let layout_last = make().n_shards() as u32 - 1;
    // One stats machine, one from the far end (overflow/storage side).
    for victim in [1u32, layout_last] {
        let mut alg = make();
        let mut twin = make();
        let mut g = DynamicGraph::new(n);
        for &u in pre {
            match u {
                Update::Insert(e) => {
                    g.insert(e).unwrap();
                    alg.insert(e);
                    twin.insert(e);
                }
                Update::Delete(e) => {
                    g.delete(e).unwrap();
                    alg.delete(e);
                    twin.delete(e);
                }
            }
        }
        alg.kill(victim);
        assert!(!alg.is_alive(victim));

        // Full-log replay on an off-cluster replica (no checkpoint taken).
        let mut replica = make();
        for &u in pre {
            match u {
                Update::Insert(e) => {
                    replica.insert(e);
                }
                Update::Delete(e) => {
                    replica.delete(e);
                }
            }
        }
        let um = alg.revive(victim, &replica.snapshot_machine(victim));
        assert!(um.clean(), "revive violations: {:?}", um.violations);
        assert!(um.total_words > 0, "handoff must be metered");
        assert!(alg.is_alive(victim));

        assert_eq!(
            alg.state_digest(),
            twin.state_digest(),
            "victim {victim} not restored bit-identically"
        );
        alg.audit(&g).unwrap();

        // The revived cluster keeps maintaining a maximal matching.
        for &u in post {
            match u {
                Update::Insert(e) => {
                    g.insert(e).unwrap();
                    alg.insert(e);
                    twin.insert(e);
                }
                Update::Delete(e) => {
                    g.delete(e).unwrap();
                    alg.delete(e);
                    twin.delete(e);
                }
            }
        }
        assert_eq!(alg.state_digest(), twin.state_digest());
        alg.audit(&g).unwrap();
    }
}

/// Chaos run through the service loop: the generated plan (kills/revives
/// only — matching has no shard migration; the coordinator is protected)
/// lands bit-identical to the failure-free run, and the matching audits
/// against ground truth.
#[test]
fn chaos_stream_recovers_bit_identical() {
    let n = 32;
    let params = DmpcParams::new(n, 160);
    let batches = streams::chaos_churn_batches(n, 4, 5, 120, 10, 11);
    let make = || DmpcMaximalMatching::new(params);
    let service = || UnweightedService::new(make());
    let p = make().n_shards();
    let caps = ChaosCaps {
        kill_revive: true,
        split_merge: false,
        protect: 1, // machine 0 is the coordinator
    };
    let plan = ChaosPlan::generate(11, batches.len(), p, 8, caps);
    assert!(plan
        .events
        .iter()
        .all(|e| !matches!(e.kind, ChaosKind::Kill(0))));

    let chaos = churn(service, &batches, &plan, 3);
    let plain = churn(service, &batches, &ChaosPlan::new(0), 0);
    assert_eq!(chaos.final_digest, plain.final_digest);
    assert_eq!(chaos.recovery.violations, 0);
    assert_eq!(chaos.writes.violations, 0);
    assert!(chaos.applied.iter().any(|e| e.kind.starts_with("kill")));
    // Batches arriving during an outage are deferred, so a replay suffix
    // can legitimately be empty; but kills and revives must pair up.
    let kills = chaos
        .applied
        .iter()
        .filter(|e| e.kind.starts_with("kill"))
        .count();
    let revives = chaos
        .applied
        .iter()
        .filter(|e| e.kind.starts_with("revive"))
        .count();
    assert_eq!(kills, revives);

    // Ground truth audit on a fresh failure-free instance.
    let mut alg = make();
    let flat: Vec<Update> = batches.iter().flatten().copied().collect();
    let g = streams::replay(n, &flat);
    for b in &batches {
        alg.apply_batch(b);
    }
    alg.audit(&g).unwrap();
    assert_eq!(alg.state_digest(), chaos.final_digest);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary seeds: chaos == plain, violation-free, audits hold.
    #[test]
    fn prop_chaos_matching_bit_identical(seed in 0u64..500, events in 2usize..8) {
        let n = 24;
        let params = DmpcParams::new(n, 120);
        let batches = streams::chaos_churn_batches(n, 3, 4, 60, 8, seed);
        let make = || DmpcMaximalMatching::new(params);
        let service = || UnweightedService::new(make());
        let p = make().n_shards();
        let caps = ChaosCaps { kill_revive: true, split_merge: false, protect: 1 };
        let plan = ChaosPlan::generate(seed, batches.len(), p, events, caps);
        let chaos = churn(service, &batches, &plan, 3);
        let plain = churn(service, &batches, &ChaosPlan::new(0), 0);
        prop_assert_eq!(chaos.final_digest, plain.final_digest);
        prop_assert_eq!(chaos.recovery.violations, 0);
        prop_assert_eq!(chaos.writes.violations, 0);

        let mut alg = make();
        let flat: Vec<Update> = batches.iter().flatten().copied().collect();
        let g = streams::replay(n, &flat);
        for b in &batches { alg.apply_batch(b); }
        alg.audit(&g).map_err(TestCaseError::fail)?;
    }
}
