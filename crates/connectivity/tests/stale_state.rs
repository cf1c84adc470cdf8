//! The executor drops the transient protocol state of a cut-short run
//! (`Machine::abandon_run`) on the machines that run stepped, and the driver
//! drains query answers from those machines only, not from all `P`. That
//! rests on a superset argument: transient state is written nowhere but
//! inside `on_messages`, so a machine outside the touched set cannot hold
//! any. These tests check the argument instead of assuming it:
//!
//! * an aborted run (round-limit guard, mid-flight kill), and a later run
//!   whose messages die at the dead machine's door, leave no transient
//!   state behind, and the calls that follow an abort are
//!   indistinguishable — digest, answers, every metric — from the same calls
//!   on an instance that never aborted;
//! * after every *clean* run of a churn/chaos stream (batches, per-op
//!   updates, query waves, migrations, kill/revive) every machine, inside
//!   the touched set or out of it, reports empty transient state.

use dmpc_connectivity::algorithm::ConnDriver;
use dmpc_connectivity::{DmpcConnectivity, DmpcMst};
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm};
use dmpc_graph::{streams, Query, Update, WeightedUpdate, V};
use dmpc_mpc::{ChaosKind, ExecOptions, MachineId};

fn conn_with(n: usize, p: usize) -> DmpcConnectivity {
    let params = DmpcParams::new(n, 4 * n);
    DmpcConnectivity::with_cluster(params, ExecOptions::default(), p)
}

/// Machines holding transient state right now.
fn dirty(driver: &ConnDriver) -> Vec<MachineId> {
    driver
        .machines()
        .enumerate()
        .filter(|(_, m)| !m.transient_is_empty())
        .map(|(i, _)| i as MachineId)
        .collect()
}

/// The superset argument: whatever is dirty was stepped by the last run.
fn assert_dirty_within_touched(driver: &ConnDriver, what: &str) {
    let touched = driver.touched();
    for m in dirty(driver) {
        assert!(
            touched.contains(&m),
            "{what}: machine {m} holds transient state but the run never stepped it \
             (touched = {touched:?})"
        );
    }
}

fn assert_all_clean(driver: &ConnDriver, what: &str) {
    assert_eq!(dirty(driver), Vec::<MachineId>::new(), "{what}");
}

/// A fixed read mix over `n` vertices: connected pairs, component probes,
/// one degenerate pair.
fn reads(n: usize, salt: usize) -> Vec<Query> {
    let v = |i: usize| ((i * 7 + salt) % n) as V;
    (0..12)
        .map(|i| match i % 3 {
            0 => Query::Connected(v(i), v(i + 5)),
            1 => Query::ComponentOf(v(i)),
            _ => Query::Connected(v(i), v(i)),
        })
        .collect()
}

/// Runs the continuation both instances must agree on — a query wave
/// *first* (nothing in a wave resets batch state machine-side, so only the
/// executor's abort hook can have cleaned up), then a batch, then another
/// wave — asserting equality of everything observable after each call.
fn assert_same_continuation(
    alg: &mut DmpcConnectivity,
    twin: &mut DmpcConnectivity,
    n: usize,
    batch: &[Update],
) {
    for step in 0..3 {
        if step == 1 {
            let (a, b) = (alg.apply_batch(batch), twin.apply_batch(batch));
            assert!(b.clean(), "twin batch: {:?}", b.violations);
            assert_eq!(a, b, "batch metrics diverged after the abort");
        } else {
            let qs = reads(n, step);
            let (a, b) = (alg.answer_queries(&qs), twin.answer_queries(&qs));
            assert_eq!(b.1.violations, 0);
            assert_eq!(
                a, b,
                "wave {step}: answers/metrics diverged after the abort"
            );
        }
        assert_all_clean(
            alg.driver(),
            "a clean call after the abort must leave nothing behind",
        );
        assert_eq!(alg.state_digest(), twin.state_digest(), "step {step}");
    }
    alg.driver().audit().unwrap();
    alg.driver().audit_directory().unwrap();
}

/// (a) A batch cut short by the round-limit guard after its first round:
/// the controller has opened the batch and fanned out classification, no
/// owner has acted yet. The executor drops the open batch from machine 0
/// as the run stops; the next call is a query wave.
#[test]
fn round_limit_abort_then_clean_calls_match_a_never_aborted_instance() {
    let n = 96;
    let p = 8;
    let batches = streams::chaos_churn_batches(n, 6, 5, 160, 12, 7);
    let (prefix, rest) = batches.split_at(batches.len() / 2);
    let mut alg = conn_with(n, p);
    let mut twin = conn_with(n, p);
    for b in prefix {
        assert!(alg.apply_batch(b).clean());
        assert!(twin.apply_batch(b).clean());
    }
    let before = alg.state_digest();

    let limit = alg.driver().round_limit();
    alg.driver_mut().set_round_limit(1);
    let aborted = alg.apply_batch(&rest[0]);
    alg.driver_mut().set_round_limit(limit);
    // One chunk, so one run: its only violation is the guard's.
    assert_eq!(aborted.violations, 1, "the round-limit guard must fire");
    assert_eq!(aborted.rounds, 1);
    // The abort hook already dropped the controller's open batch; the
    // logical state is untouched.
    assert_eq!(alg.driver().touched(), [0], "only the controller stepped");
    assert_all_clean(alg.driver(), "the abort hook drops the open batch");
    assert_dirty_within_touched(alg.driver(), "round-limit abort");
    assert_eq!(alg.state_digest(), before);

    assert_same_continuation(&mut alg, &mut twin, n, &rest[0]);
    for b in &rest[1..] {
        assert_eq!(alg.apply_batch(b), twin.apply_batch(b));
    }
    assert_eq!(alg.state_digest(), twin.state_digest());
}

/// (b) A write window aborted by a mid-flight kill, recovered the way the
/// chaos harnesses do it (survivors roll back to the pre-window frontier,
/// the victim is rebuilt through the metered handoff), then continued.
#[test]
fn midflight_kill_abort_then_clean_calls_match_a_never_aborted_instance() {
    let n = 96;
    let p = 8;
    let batches = streams::chaos_churn_batches(n, 6, 5, 160, 12, 19);
    let (prefix, rest) = batches.split_at(batches.len() / 2);
    let (mut fired, mut lossy, mut left_dirty) = (0, 0, 0);
    let cases = (0..p as MachineId).flat_map(|victim| (2..=4u32).map(move |r| (victim, r)));
    for (victim, kill_round) in cases {
        let mut alg = conn_with(n, p);
        let mut twin = conn_with(n, p);
        for b in prefix {
            assert!(alg.apply_batch(b).clean());
            assert!(twin.apply_batch(b).clean());
        }
        let frontier: Vec<String> = (0..p as MachineId)
            .map(|m| alg.snapshot_machine(m))
            .collect();

        alg.arm_in_round(kill_round, ChaosKind::Kill(victim));
        let aborted = alg.apply_batch(&rest[0]);
        if alg.is_alive(victim) {
            // The window quiesced before the kill's round: fenced, clean.
            assert!(aborted.clean());
            assert_eq!(aborted, twin.apply_batch(&rest[0]));
            continue;
        }
        fired += 1;
        // A kill can fire without costing the window a message (nothing
        // was addressed to the victim afterwards); the rollback is the same.
        lossy += usize::from(!aborted.clean());
        left_dirty += usize::from(!dirty(alg.driver()).is_empty());
        assert_dirty_within_touched(alg.driver(), "mid-flight abort");

        alg.kill(victim);
        for m in (0..p as MachineId).filter(|&m| m != victim) {
            alg.restore_machine(m, &frontier[m as usize]);
        }
        let rebuilt = alg.revive(victim, &frontier[victim as usize]);
        assert!(rebuilt.clean(), "handoff: {:?}", rebuilt.violations);
        assert_all_clean(alg.driver(), "after rollback + revive");
        assert_eq!(alg.state_digest(), twin.state_digest());

        assert_same_continuation(&mut alg, &mut twin, n, &rest[0]);
    }
    // Non-vacuous: kills fired and some cost the window messages; the abort
    // hook left no transient state on any machine, survivors included.
    assert!(
        fired >= 8 && lossy >= 4 && left_dirty == 0,
        "fired={fired}, lossy={lossy}, left_dirty={left_dirty}"
    );
}

/// (b, MST) Test (b) on the MST driver's per-update runs. Deleting a forest
/// edge searches for a replacement: the cut's audience reports to a
/// rendezvous, so a kill between the multicast and the reports leaves the
/// rendezvous short of reports. The run is cut short and rolled back, and
/// the calls after it match an instance that never aborted.
#[test]
fn mst_midflight_kill_abort_then_clean_calls_match_a_never_aborted_instance() {
    let n = 96;
    let params = DmpcParams::new(n, 4 * n);
    let ups = streams::clustered_churn_stream(n, 4, 5, 120, 0.6, 31);
    let mut alg = DmpcMst::new(params, 0.1);
    for wu in streams::with_weights(&ups, 64, 7) {
        assert!(alg.apply(wu).clean());
    }
    let p = alg.n_shards() as MachineId;
    let frontier: Vec<String> = (0..p).map(|m| alg.snapshot_machine(m)).collect();
    let restore = |alg: &mut DmpcMst, skip: Option<MachineId>| {
        for m in (0..p).filter(|&m| Some(m) != skip) {
            alg.restore_machine(m, &frontier[m as usize]);
        }
    };
    let mut twin = DmpcMst::new(params, 0.1);
    let (mut fired, mut lossy) = (0, 0);
    let tree = alg.driver().tree_edges();
    for &(e, _) in tree.iter().step_by(tree.len() / 4).take(4) {
        let del = WeightedUpdate::Delete(e);
        for victim in 0..p {
            for kill_round in 2..=5u32 {
                restore(&mut alg, None);
                restore(&mut twin, None);
                alg.arm_in_round(kill_round, ChaosKind::Kill(victim));
                let aborted = alg.apply(del);
                if alg.is_alive(victim) {
                    assert!(aborted.clean());
                    continue;
                }
                fired += 1;
                lossy += usize::from(!aborted.clean());
                assert_dirty_within_touched(alg.driver(), "mid-flight abort");

                alg.kill(victim);
                restore(&mut alg, Some(victim));
                let rebuilt = alg.revive(victim, &frontier[victim as usize]);
                assert!(rebuilt.clean(), "handoff: {:?}", rebuilt.violations);
                assert_all_clean(alg.driver(), "after rollback + revive");
                assert_eq!(alg.state_digest(), twin.state_digest(), "{e}");

                assert_eq!(alg.apply(del), twin.apply(del), "{e} after the abort");
                let qs = [Query::PathMax(e.u, e.v), Query::Connected(e.u, e.v)];
                assert_eq!(alg.answer_queries(&qs), twin.answer_queries(&qs));
                assert_all_clean(alg.driver(), "a clean call after the abort");
                assert_eq!(alg.state_digest(), twin.state_digest(), "{e}");
            }
        }
    }
    alg.driver().audit().unwrap();
    // Non-vacuous: most kills fire, and some cost the run its reports.
    assert!(fired >= 64 && lossy >= 16, "fired={fired}, lossy={lossy}");
}

/// (c) A write window longer than one batch chunk, with a mid-flight kill
/// in its first chunk's run: the later chunks run with the victim dead, so
/// their messages to it die at its door. Those runs are cut short too, and
/// no survivor is left holding their transient state.
#[test]
fn chunks_after_a_midflight_kill_leave_no_transient_state() {
    let n = 96;
    let p = 8;
    let batches = streams::chaos_churn_batches(n, 6, 5, 160, 12, 19);
    let (prefix, rest) = batches.split_at(batches.len() / 2);
    let window = rest[..4].concat();
    let mut fired = 0;
    for victim in 0..p as MachineId {
        for kill_round in 2..=4u32 {
            let mut alg = conn_with(n, p);
            for b in prefix {
                assert!(alg.apply_batch(b).clean());
            }
            alg.arm_in_round(kill_round, ChaosKind::Kill(victim));
            alg.apply_batch(&window);
            if alg.is_alive(victim) {
                continue;
            }
            fired += 1;
            assert_all_clean(alg.driver(), "chunks run against a dead machine");
        }
    }
    assert!(fired >= 8, "fired={fired}");
}

/// After every run of a churn stream with the whole chaos repertoire —
/// batches, per-op updates, query waves, split/merge migrations, boundary
/// kill with degraded reads, revive — no machine, stepped or not, holds
/// transient state: clean runs leave none at all.
#[test]
fn transient_state_never_outlives_a_run_nor_leaves_the_touched_set() {
    let n = 80;
    let p = 8;
    for seed in [3u64, 11, 29] {
        let batches = streams::chaos_churn_batches(n, 6, 5, 200, 10, seed);
        let mut alg = conn_with(n, p);
        // Every run here is clean, so "nothing dirty outside the touched
        // set" is checked in its strongest form: nothing dirty anywhere.
        let check = |alg: &DmpcConnectivity, what: &str| assert_all_clean(alg.driver(), what);
        for (i, b) in batches.iter().enumerate() {
            if i % 4 == 3 {
                // Per-op path.
                for &u in b {
                    let m = match u {
                        Update::Insert(e) => alg.insert(e),
                        Update::Delete(e) => alg.delete(e),
                    };
                    assert!(m.clean());
                    check(&alg, "per-op update");
                }
            } else {
                assert!(alg.apply_batch(b).clean());
                check(&alg, "batch");
            }
            let (_, qm) = alg.answer_queries(&reads(n, i));
            assert_eq!(qm.violations, 0);
            check(&alg, "query wave");

            let m = (i % p) as MachineId;
            match i % 5 {
                1 => {
                    if let Some(um) = alg.split(m) {
                        assert!(um.clean());
                        check(&alg, "split");
                    }
                }
                2 => {
                    if let Some(um) = alg.merge(m) {
                        assert!(um.clean());
                        check(&alg, "merge");
                    }
                }
                4 => {
                    let snap = alg.snapshot_machine(m);
                    alg.kill(m);
                    let (_, qm) = alg.answer_queries(&reads(n, i + 1));
                    assert_eq!(qm.violations, 0, "degraded waves route around the outage");
                    check(&alg, "degraded wave");
                    assert!(alg.revive(m, &snap).clean());
                    check(&alg, "revive");
                }
                _ => {}
            }
        }
        alg.driver().audit().unwrap();
        alg.driver().audit_directory().unwrap();
    }
}

/// The same invariant on the MST driver (per-update runs, `PathMax` waves,
/// the path-max rendezvous parked under the solo lane).
#[test]
fn mst_transient_state_stays_within_the_touched_set() {
    let n = 48;
    let mut alg = DmpcMst::new(DmpcParams::new(n, 4 * n), 0.1);
    let ups = streams::clustered_churn_stream(n, 4, 5, 120, 0.6, 13);
    for (i, wu) in streams::with_weights(&ups, 64, 5).into_iter().enumerate() {
        let m = match wu {
            WeightedUpdate::Insert(e, w) => alg.insert(e, w),
            WeightedUpdate::Delete(e) => alg.delete(e),
        };
        assert!(m.clean());
        if i % 8 == 0 {
            let v = |j: usize| ((i + 5 * j) % n) as V;
            let qs = [Query::PathMax(v(0), v(1)), Query::Connected(v(2), v(3))];
            assert_eq!(alg.answer_queries(&qs).1.violations, 0);
        }
        let touched = alg.driver().touched();
        for (mid, machine) in alg.driver().machines().enumerate() {
            assert!(
                machine.transient_is_empty(),
                "update {i}: machine {mid} dirty (touched = {touched:?})"
            );
        }
    }
}
