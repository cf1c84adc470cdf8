//! Mid-flight fault tolerance: epoch-fenced batches that abort and retry
//! when a machine dies *inside* a quiescence run, degraded-mode reads
//! during outages, and deferral-drain accounting.
//!
//! The tentpole claim under test: a kill firing at **any** round of a
//! structural batch recovers bit-identically — the chaos run's final digest
//! equals the failure-free run's digest and the `DynamicGraph` ground
//! truth. Word-level conservation (sent == delivered + lost) is asserted at
//! the simulator layer (`dmpc-mpc`); here the loop-level retry/backoff/
//! recovery trajectory is checked.

use dmpc_connectivity::{DmpcConnectivity, DmpcMst};
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm};
use dmpc_graph::{streams, Op, Query, QueryAnswer, Update};
use dmpc_mpc::{ChaosKind, ChaosPlan, ExecOptions};
use dmpc_service::{
    CloseReason, ServiceAlgorithm, ServiceLoop, ServiceReport, UnweightedService,
    WeightedEdgeService,
};
use proptest::prelude::*;

fn conn_with(n: usize, p: usize) -> DmpcConnectivity {
    let params = DmpcParams::new(n, 4 * n);
    DmpcConnectivity::with_cluster(params, ExecOptions::default(), p)
}

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

/// Drives `windows` through the service loop under `plan`, checkpointing
/// after every `every` windows (0: never).
fn drive<A, F>(make: F, windows: Vec<Vec<Op>>, plan: &ChaosPlan, every: usize) -> ServiceReport
where
    A: ServiceAlgorithm + ElasticAlgorithm,
    F: Fn() -> A,
{
    let mut a = make();
    let mut lp = ServiceLoop::new(&mut a, &make, plan);
    for (i, ops) in windows.into_iter().enumerate() {
        lp.window(ops, CloseReason::Size, 0, 0);
        if every > 0 && (i + 1) % every == 0 {
            lp.checkpoint();
        }
    }
    lp.finish()
}

fn write_windows(batches: &[Vec<Update>]) -> Vec<Vec<Op>> {
    let ops = |b: &Vec<Update>| b.iter().map(|&u| Op::Write(u)).collect();
    batches.iter().map(ops).collect()
}

/// [`drive`] over `batches` as write-only windows.
fn churn<A, F>(make: F, batches: &[Vec<Update>], plan: &ChaosPlan, every: usize) -> ServiceReport
where
    A: ServiceAlgorithm + ElasticAlgorithm,
    F: Fn() -> A,
{
    drive(make, write_windows(batches), plan, every)
}

// ----- the round sweep ------------------------------------------------------

/// Kill machine 2 at every round offset of one structural batch. Offsets
/// inside the run abort the epoch and retry; offsets past quiescence are
/// fenced and never fire. Either way the final state is bit-identical to
/// the failure-free run and the ground-truth graph.
#[test]
fn kill_at_every_round_recovers_bit_identical() {
    let n = 48;
    let p = 6;
    let batches = streams::chaos_churn_batches(n, 6, 4, 120, 10, 21);
    let make = || conn_with(n, p);
    let service = || UnweightedService::new(make());
    let plain = churn(service, &batches, &ChaosPlan::new(0), 0);
    let target = batches.len() / 2;
    let mut fired = 0usize;
    for r in 1..=10u32 {
        let plan =
            ChaosPlan::new(100 + r as u64).with_event_in_round(target, r, ChaosKind::Kill(2));
        let chaos = churn(service, &batches, &plan, 3);
        assert_eq!(
            chaos.final_digest, plain.final_digest,
            "kill at round {r} diverged from the failure-free run"
        );
        assert_eq!(chaos.windows.len(), batches.len());
        assert_eq!(chaos.writes.violations, 0);
        // Only clean executions are merged into the workload; aborted
        // epochs carry their losses in the mid-flight trajectory.
        assert_eq!(chaos.writes.lost_words, 0);
        assert_eq!(chaos.writes.lost_messages, 0);
        assert_eq!(chaos.aborts.len(), chaos.retries);
        if chaos.retries > 0 {
            fired += 1;
            let rec = &chaos.aborts[0];
            assert_eq!(rec.at_window, target);
            assert_eq!(rec.kill_round, r);
            assert_eq!(rec.victims, vec![2]);
            assert_eq!(rec.attempt, 1, "one clean retry must suffice");
            assert!(
                rec.aborted.rounds >= r as usize,
                "the epoch ran to round {r}"
            );
            assert!(rec.recovery_words() > 0, "the rebuild handoff is metered");
            assert_eq!(
                rec.latency_rounds(),
                (rec.aborted.rounds - (r as usize - 1))
                    + rec.backoff_rounds
                    + rec.recovery_rounds(),
                "latency decomposes into abort remainder + backoff + rebuild"
            );
        }
    }
    assert!(
        fired >= 2,
        "the sweep should abort at several live rounds (fired={fired})"
    );

    // Ground truth: the failure-free digest is the digest of an instance
    // driven directly, and its components match the replayed graph.
    let mut alg = make();
    for b in &batches {
        alg.apply_batch(b);
    }
    let flat: Vec<Update> = batches.iter().flatten().copied().collect();
    let g = streams::replay(n, &flat);
    assert!(partitions_equal(&alg.component_labels(), &g.components()));
    assert_eq!(alg.state_digest(), plain.final_digest);
}

/// The MST driver recovers from mid-round kills through the same
/// epoch-fenced path (weighted apply, per-update runs).
#[test]
fn mst_mid_round_kill_recovers_bit_identical() {
    let n = 32;
    let batches = streams::chaos_churn_batches(n, 4, 4, 60, 8, 5);
    let params = DmpcParams::new(n, 3 * n);
    let service = || WeightedEdgeService::new(DmpcMst::new(params, 0.1), 64, 77);
    let plain = churn(service, &batches, &ChaosPlan::new(0), 0);
    let mut fired = 0usize;
    for r in [1u32, 2, 4] {
        let plan = ChaosPlan::new(9).with_event_in_round(1, r, ChaosKind::Kill(1));
        let chaos = churn(service, &batches, &plan, 3);
        assert_eq!(
            chaos.final_digest, plain.final_digest,
            "MST kill at round {r} diverged"
        );
        assert_eq!(chaos.writes.lost_words, 0);
        fired += chaos.retries;
    }
    assert!(fired >= 1, "at least the round-1 kill must fire");
}

// ----- degraded-mode service ------------------------------------------------

/// While a victim is down, the query plane stays up: reads whose owner set
/// intersects the dead machine come back `Degraded`, reads wholly on live
/// machines stay exact, and path queries degrade conservatively. ("Writes
/// pause, reads degrade.") The outage is a boundary one — machine 2 dies
/// at the frontier before batch `target`, a read window is served by the
/// partial cluster, and the next boundary revives it.
#[test]
fn reads_degrade_during_midflight_rebuild() {
    let n = 40;
    let p = 5; // machine 2 owns vertices 16..24
    let batches = streams::chaos_churn_batches(n, 5, 4, 100, 8, 31);
    let target = 2.min(batches.len() - 1);
    let plan = ChaosPlan::new(3)
        .with_event(target, ChaosKind::Kill(2))
        .with_event(target + 1, ChaosKind::Revive(2));
    let service = || UnweightedService::new(conn_with(n, p));
    let reads = [
        Query::Connected(17, 1), // one endpoint owned by the victim
        Query::ComponentOf(18),  // owned by the victim
        Query::Connected(1, 2),  // both owners alive: exact
        Query::PathMax(1, 2),    // conservative during any outage
    ];
    let mut windows = write_windows(&batches);
    windows.insert(target, reads.iter().map(|&q| Op::Read(q)).collect());
    let chaos = drive(service, windows, &plan, 8);
    let plain = churn(service, &batches, &ChaosPlan::new(0), 0);
    assert_eq!(chaos.final_digest, plain.final_digest);
    assert_eq!(chaos.violations(), 0);
    assert_eq!(chaos.applied.len(), 2, "the kill and the revive both fire");
    assert_eq!(chaos.answers.len(), reads.len());
    assert_eq!(
        chaos.answers.iter().filter(|a| a.is_degraded()).count(),
        3,
        "two owner-dead reads + the conservative path query degrade"
    );
    assert_eq!(chaos.reads.queries, reads.len());
}

/// Direct unit check of the degraded wave against a boundary-killed
/// machine: exact answers match a healthy twin, degraded answers are
/// exactly the dead-owner set, and recovery restores exactness.
#[test]
fn degraded_answers_match_owner_liveness() {
    let n = 40;
    let p = 5;
    let mut alg = conn_with(n, p);
    let mut twin = conn_with(n, p);
    let ups = streams::clustered_churn_stream(n, 8, 5, 60, 0.6, 9);
    alg.apply_batch(&ups);
    twin.apply_batch(&ups);
    let snap = alg.driver().snapshot_machine(2);
    alg.driver_mut().kill_machine(2);

    let queries = [
        Query::Connected(17, 23), // both owned by the dead machine
        Query::Connected(0, 39),  // owners 0 and 4: alive, exact
        Query::ComponentOf(20),   // dead owner
        Query::ComponentOf(5),    // alive owner
        Query::PathMax(0, 5),     // conservative: degraded during outage
    ];
    let (answers, _) = alg.answer_queries(&queries);
    let (expect, _) = twin.answer_queries(&queries);
    assert_eq!(answers[0], QueryAnswer::Degraded);
    assert_eq!(answers[1], expect[1]);
    assert_eq!(answers[2], QueryAnswer::Degraded);
    assert_eq!(answers[3], expect[3]);
    assert_eq!(answers[4], QueryAnswer::Degraded);

    // Recovery restores exact service.
    let um = alg.driver_mut().revive_machine(2, &snap);
    assert!(um.clean());
    let (healed, _) = alg.answer_queries(&queries);
    assert_eq!(healed, expect);
}

// ----- deferral-drain accounting --------------------------------------------

/// Every deferred batch leaves a drain record: the mid-stream drain lands at
/// the health-restoring revive, the final drain at the end of the stream,
/// each with its deferral latency.
#[test]
fn deferral_drain_records_latency() {
    let n = 40;
    let p = 5;
    let batches = streams::chaos_churn_batches(n, 5, 4, 80, 8, 17);
    assert!(batches.len() >= 5);
    let make = || conn_with(n, p);
    let service = || UnweightedService::new(make());
    let plain = churn(service, &batches, &ChaosPlan::new(0), 0);

    // Boundary kill before batch 1, revive before batch 3: batches 1 and 2
    // are deferred and drained at the revive boundary.
    let plan = ChaosPlan::new(1)
        .with_event(1, ChaosKind::Kill(3))
        .with_event(3, ChaosKind::Revive(3));
    let chaos = churn(service, &batches, &plan, 2);
    let drained: Vec<_> = chaos
        .drained
        .iter()
        .map(|d| (d.window, d.drained_at, d.latency_windows))
        .collect();
    assert_eq!(drained, vec![(1, 3, 2), (2, 3, 1)]);
    assert_eq!(chaos.windows.len(), batches.len());
    assert_eq!(chaos.final_digest, plain.final_digest);

    // A kill never revived by the plan: the straggler revive and the final
    // drain both land at the end of the stream, and the drained batches
    // extend the replay suffix.
    let last = batches.len();
    let plan_tail = ChaosPlan::new(2).with_event(last - 2, ChaosKind::Kill(3));
    let chaos_tail = churn(service, &batches, &plan_tail, 2);
    let drained_tail: Vec<_> = chaos_tail
        .drained
        .iter()
        .map(|d| (d.window, d.drained_at, d.latency_windows))
        .collect();
    assert_eq!(drained_tail, vec![(last - 2, last, 2), (last - 1, last, 1)]);
    assert_eq!(chaos_tail.windows.len(), batches.len());
    assert_eq!(chaos_tail.final_digest, plain.final_digest);
}

// ----- property tests -------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary seeds, victims, batch targets and round offsets: the
    /// mid-flight kill always recovers bit-identically, and clean workload
    /// accounting carries zero lost words.
    #[test]
    fn prop_mid_kill_any_round(
        seed in 0u64..500,
        r in 1u32..14,
        victim in 0u32..5,
        target_frac in 0usize..4,
    ) {
        let n = 40;
        let p = 5;
        let batches = streams::chaos_churn_batches(n, 5, 4, 80, 8, seed);
        let target = (batches.len() * target_frac / 4).min(batches.len() - 1);
        let plan = ChaosPlan::new(seed).with_event_in_round(target, r, ChaosKind::Kill(victim));
        let service = || UnweightedService::new(conn_with(n, p));
        let chaos = churn(service, &batches, &plan, 3);
        let plain = churn(service, &batches, &ChaosPlan::new(0), 0);
        prop_assert_eq!(chaos.final_digest, plain.final_digest);
        prop_assert_eq!(chaos.writes.violations, 0);
        prop_assert_eq!(chaos.writes.lost_words, 0);
        prop_assert_eq!(chaos.writes.lost_messages, 0);
        prop_assert_eq!(chaos.aborts.len(), chaos.retries);
        for rec in &chaos.aborts {
            prop_assert_eq!(rec.at_window, target);
            prop_assert_eq!(rec.kill_round, r);
            prop_assert!(rec.recovery_words() > 0);
        }
    }
}
