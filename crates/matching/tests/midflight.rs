//! Mid-flight kills for the matching cluster: the coordinator is protected,
//! but any stats/storage/overflow machine may die inside a round. The
//! epoch-fenced service loop aborts the batch, rolls every survivor (including
//! the coordinator, whose v2 snapshot is lossless) back to the pre-batch
//! frontier, rebuilds the victim from the last checkpoint plus the replayed
//! suffix, and re-executes — bit-identical to the failure-free run.

use dmpc_core::{DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm};
use dmpc_graph::{streams, DynamicGraph, Op, Query, QueryAnswer, Update};
use dmpc_matching::DmpcMaximalMatching;
use dmpc_mpc::{ChaosKind, ChaosPlan};
use dmpc_service::{CloseReason, ServiceLoop, ServiceReport, UnweightedService};

type Service = UnweightedService<DmpcMaximalMatching>;

/// Drives `windows` through the service loop under `plan`, checkpointing
/// after every `every` windows (0: never).
fn drive(
    make: impl Fn() -> Service,
    windows: Vec<Vec<Op>>,
    plan: &ChaosPlan,
    every: usize,
) -> ServiceReport {
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

/// Round sweep over two victims (a stats machine and the far-end machine):
/// every offset recovers bit-identically and audits against ground truth.
#[test]
fn mid_round_kill_recovers_bit_identical() {
    let n = 32;
    let params = DmpcParams::new(n, 160);
    let batches = streams::chaos_churn_batches(n, 4, 4, 80, 8, 13);
    let make = || DmpcMaximalMatching::new(params);
    let service = || UnweightedService::new(make());
    let plain = drive(service, write_windows(&batches), &ChaosPlan::new(0), 0);
    let last = make().n_shards() as u32 - 1;
    let mut fired = 0usize;
    for r in 1..=6u32 {
        for victim in [1u32, last] {
            let plan = ChaosPlan::new(5).with_event_in_round(1, r, ChaosKind::Kill(victim));
            let chaos = drive(service, write_windows(&batches), &plan, 3);
            assert_eq!(
                chaos.final_digest, plain.final_digest,
                "kill {victim} at round {r} diverged"
            );
            assert_eq!(chaos.writes.violations, 0);
            assert_eq!(chaos.writes.lost_words, 0);
            assert_eq!(chaos.aborts.len(), chaos.retries);
            for rec in &chaos.aborts {
                assert_eq!(rec.victims, vec![victim]);
                assert_eq!(rec.attempt, 1, "one clean retry must suffice");
            }
            fired += chaos.retries;
        }
    }
    assert!(
        fired >= 2,
        "the sweep should abort live rounds (fired={fired})"
    );

    // Ground truth: a directly-driven instance matches the failure-free
    // digest and audits against the replayed graph.
    let mut alg = make();
    let mut g = DynamicGraph::new(n);
    for b in &batches {
        for &u in b {
            match u {
                Update::Insert(e) => {
                    g.insert(e).unwrap();
                }
                Update::Delete(e) => {
                    g.delete(e).unwrap();
                }
            }
        }
        alg.apply_batch(b);
    }
    assert_eq!(alg.state_digest(), plain.final_digest);
    alg.audit(&g).unwrap();
}

/// The coordinator's v2 snapshot is lossless: snapshot → restore on a twin
/// reproduces the digest, and the restored instance keeps answering and
/// updating identically.
#[test]
fn coordinator_snapshot_roundtrips() {
    let n = 32;
    let params = DmpcParams::new(n, 160);
    let ups = streams::churn_stream(n, 90, 180, 0.5, 5);
    let (pre, post) = ups.split_at(2 * ups.len() / 3);
    let mut alg = DmpcMaximalMatching::new(params);
    let mut twin = DmpcMaximalMatching::new(params);
    for &u in pre {
        match u {
            Update::Insert(e) => {
                alg.insert(e);
                twin.insert(e);
            }
            Update::Delete(e) => {
                alg.delete(e);
                twin.delete(e);
            }
        }
    }
    // Roll every machine of the twin back onto itself from its own
    // snapshot: a lossy codec would diverge here.
    for m in 0..twin.n_shards() as u32 {
        let snap = twin.snapshot_machine(m);
        twin.restore_machine(m, &snap);
    }
    assert_eq!(alg.state_digest(), twin.state_digest());
    // Both keep evolving identically after the round-trip.
    for &u in post {
        match u {
            Update::Insert(e) => {
                alg.insert(e);
                twin.insert(e);
            }
            Update::Delete(e) => {
                alg.delete(e);
                twin.delete(e);
            }
        }
    }
    assert_eq!(alg.state_digest(), twin.state_digest());
}

/// Degraded reads during an outage: `IsMatched` for a vertex whose stats
/// owner died comes back `Degraded`; `MatchingSize` stays exact (the
/// coordinator is the reliable machine and answers from its local counter).
/// The outage is a boundary one — machine 1 dies at the frontier before
/// batch 1, a read window is served by the partial cluster, and the next
/// boundary revives it.
#[test]
fn matching_size_stays_exact_while_stats_owner_is_down() {
    let n = 32;
    let params = DmpcParams::new(n, 160);
    let batches = streams::chaos_churn_batches(n, 4, 4, 80, 8, 29);
    let service = || UnweightedService::new(DmpcMaximalMatching::new(params));
    // Machine 1 is the first stats machine: it owns vertex 0's record.
    let plan = ChaosPlan::new(7)
        .with_event(1, ChaosKind::Kill(1))
        .with_event(2, ChaosKind::Revive(1));
    let reads = [Query::IsMatched(0), Query::MatchingSize];
    let mut windows = write_windows(&batches);
    windows.insert(1, reads.iter().map(|&q| Op::Read(q)).collect());
    let chaos = drive(service, windows, &plan, 3);
    let plain = drive(service, write_windows(&batches), &ChaosPlan::new(0), 0);
    assert_eq!(chaos.final_digest, plain.final_digest);
    assert_eq!(chaos.applied.len(), 2, "the kill and the revive both fire");
    assert_eq!(chaos.answers.len(), reads.len());
    assert_eq!(
        chaos.answers.iter().filter(|a| a.is_degraded()).count(),
        1,
        "IsMatched degrades; MatchingSize stays exact at the coordinator"
    );
}

/// Direct unit check of the degraded wave shape.
#[test]
fn degraded_wave_answers_locally() {
    let n = 32;
    let params = DmpcParams::new(n, 160);
    let mut alg = DmpcMaximalMatching::new(params);
    let ups = streams::churn_stream(n, 40, 80, 0.5, 3);
    for &u in &ups {
        match u {
            Update::Insert(e) => {
                alg.insert(e);
            }
            Update::Delete(e) => {
                alg.delete(e);
            }
        }
    }
    let size_before = match alg.answer_queries(&[Query::MatchingSize]).0[0] {
        QueryAnswer::Count(c) => c,
        other => panic!("unexpected {other:?}"),
    };
    alg.kill(1);
    let (answers, _) = alg.answer_queries(&[Query::IsMatched(0), Query::MatchingSize]);
    assert_eq!(answers[0], QueryAnswer::Degraded);
    assert_eq!(answers[1], QueryAnswer::Count(size_before));
}
