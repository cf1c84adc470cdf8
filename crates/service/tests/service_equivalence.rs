//! Online == offline: the service loop over any seeded arrival trace must
//! produce state digests, query answers, and audits bit-identical to an
//! offline replay of the same coalesced windows — for connectivity, MST,
//! and matching, and with mid-flight kills armed. A boundary outage or a
//! migration keeps the digest half of that (and the audits), pinned last.
//!
//! This is the PR 3/4/9 digest-differential pattern pointed at the service
//! plane: the clock and the admission policy may only decide *where*
//! windows close, never what a closed window computes.

use dmpc_connectivity::{DmpcConnectivity, DmpcMst};
use dmpc_core::{DmpcParams, ElasticAlgorithm};
use dmpc_graph::arrivals::{arrival_trace, Arrival, ArrivalProcess};
use dmpc_graph::streams::{self, QueryMix, TargetDist};
use dmpc_graph::{Op, QueryAnswer, Update};
use dmpc_matching::DmpcMaximalMatching;
use dmpc_mpc::{ChaosKind, ChaosPlan};
use dmpc_service::{
    replay_windows, run_service_chaos, BackpressurePolicy, ServiceAlgorithm, ServiceConfig,
    ServiceLoop, ServiceReport, UnweightedService, WeightedEdgeService, WindowPolicy,
};
use proptest::prelude::*;

/// The three arrival shapes, picked by the proptest case.
fn process_for(pick: u64) -> ArrivalProcess {
    match pick % 3 {
        0 => ArrivalProcess::Steady { ops_per_tick: 2.0 },
        1 => ArrivalProcess::Bursty {
            base: 0.5,
            burst: 6.0,
            period: 12,
            burst_len: 3,
        },
        _ => ArrivalProcess::Diurnal {
            low: 0.5,
            high: 5.0,
            period: 24,
        },
    }
}

/// Equivalence runs use a buffer big enough that nothing sheds: the claim
/// covers every op of the trace.
fn cfg(max_ops: usize, deadline: u64) -> ServiceConfig {
    ServiceConfig {
        window: WindowPolicy::windowed(max_ops, deadline),
        buffer_cap: 4096,
        backpressure: BackpressurePolicy::Shed,
    }
}

/// The failure-free service run: the empty plan.
fn run_service<A: ServiceAlgorithm + ElasticAlgorithm>(
    make: impl Fn() -> A,
    trace: &[Arrival],
    cfg: &ServiceConfig,
) -> ServiceReport {
    run_service_chaos(make, trace, cfg, &ChaosPlan::new(0))
}

fn writes_of(ops: &[Op]) -> Vec<Update> {
    ops.iter()
        .filter_map(|o| match o {
            Op::Write(u) => Some(*u),
            Op::Read(_) => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Connectivity: digests, answers, and per-plane metrics all match the
    /// offline replay; the replayed state passes the deep audits.
    #[test]
    fn connectivity_online_equals_offline(seed in 0u64..1u64 << 48, pick in 0u64..3) {
        let n = 40;
        let params = DmpcParams::new(n, 4 * n);
        let ops = streams::mixed_stream(
            n, 120, 40, TargetDist::Uniform, QueryMix::Connectivity, seed,
        );
        let trace = arrival_trace(&ops, process_for(pick), seed);
        let make = || UnweightedService::new(DmpcConnectivity::new(params));
        let rep = run_service(make, &trace, &cfg(8, 3));
        prop_assert_eq!(rep.violations(), 0);
        prop_assert_eq!(rep.arrived, ops.len());
        prop_assert_eq!(rep.admitted, ops.len(), "nothing may shed in equivalence runs");
        let mut fresh = make();
        let off = replay_windows(&mut fresh, &rep.windows);
        prop_assert_eq!(off.final_digest, rep.final_digest, "online digest != offline replay");
        prop_assert_eq!(&off.answers, &rep.answers, "answers diverged");
        prop_assert_eq!(off.writes.updates, rep.writes.updates);
        prop_assert_eq!(off.writes.rounds, rep.writes.rounds);
        prop_assert_eq!(off.reads.rounds, rep.reads.rounds);
        fresh.inner.driver().audit().map_err(TestCaseError::fail)?;
        fresh.inner.driver().audit_directory().map_err(TestCaseError::fail)?;
    }

    /// MST through the weighted adapter: derived edge weights are a pure
    /// function of the edge, so online and offline see identical weighted
    /// updates and the replayed forest passes the invariant audit.
    #[test]
    fn mst_online_equals_offline(seed in 0u64..1u64 << 48, pick in 0u64..3) {
        let n = 32;
        let params = DmpcParams::new(n, 4 * n);
        let ops = streams::mixed_stream(n, 100, 40, TargetDist::Uniform, QueryMix::Mst, seed);
        let trace = arrival_trace(&ops, process_for(pick), seed);
        let make = || WeightedEdgeService::new(DmpcMst::new(params, 0.1), 64, 7);
        let rep = run_service(make, &trace, &cfg(6, 4));
        prop_assert_eq!(rep.violations(), 0);
        let mut fresh = make();
        let off = replay_windows(&mut fresh, &rep.windows);
        prop_assert_eq!(off.final_digest, rep.final_digest, "MST online digest != offline");
        prop_assert_eq!(&off.answers, &rep.answers);
        prop_assert_eq!(off.writes.rounds, rep.writes.rounds);
        fresh.inner.driver().audit().map_err(TestCaseError::fail)?;
    }

    /// Matching: the replayed state audits clean against the ground-truth
    /// graph of the admitted writes.
    #[test]
    fn matching_online_equals_offline(seed in 0u64..1u64 << 48, pick in 0u64..3) {
        let n = 32;
        let params = DmpcParams::new(n, 4 * n);
        let ops = streams::mixed_stream(
            n, 100, 40, TargetDist::Uniform, QueryMix::Matching, seed,
        );
        let trace = arrival_trace(&ops, process_for(pick), seed);
        let make = || UnweightedService::new(DmpcMaximalMatching::new(params));
        let rep = run_service(make, &trace, &cfg(8, 3));
        prop_assert_eq!(rep.violations(), 0);
        let mut fresh = make();
        let off = replay_windows(&mut fresh, &rep.windows);
        prop_assert_eq!(off.final_digest, rep.final_digest, "matching online digest != offline");
        prop_assert_eq!(&off.answers, &rep.answers);
        let g = streams::replay(n, &writes_of(&ops));
        fresh.inner.audit(&g).map_err(TestCaseError::fail)?;
    }

    /// Chaos-armed service: a mid-flight kill inside a window's write epoch
    /// aborts and retries; digests/answers equal the failure-free run and
    /// the offline replay, and aborted rounds never leak into workload
    /// metrics (only into latency).
    #[test]
    fn chaos_armed_connectivity_matches_failure_free(
        seed in 0u64..200u64, r in 1u32..6, target in 0usize..4,
    ) {
        let n = 48;
        let params = DmpcParams::new(n, 4 * n);
        let ops = streams::mixed_stream(
            n, 96, 30, TargetDist::Uniform, QueryMix::Connectivity, seed,
        );
        let trace = arrival_trace(&ops, ArrivalProcess::Steady { ops_per_tick: 3.0 }, seed);
        let make = || UnweightedService::new(DmpcConnectivity::new(params));
        let c = cfg(8, 3);
        let plain = run_service(make, &trace, &c);
        let plan = ChaosPlan::new(seed).with_event_in_round(target, r, ChaosKind::Kill(1));
        let chaos = run_service_chaos(make, &trace, &c, &plan);
        prop_assert_eq!(chaos.final_digest, plain.final_digest,
            "chaos service diverged (window {}, round {})", target, r);
        prop_assert_eq!(&chaos.answers, &plain.answers);
        prop_assert_eq!(chaos.violations(), 0);
        prop_assert_eq!(chaos.writes.rounds, plain.writes.rounds,
            "aborted epochs must not leak into workload metrics");
        prop_assert!(chaos.retries == 0 || chaos.aborted_rounds > 0);
        let mut fresh = make();
        let off = replay_windows(&mut fresh, &chaos.windows);
        prop_assert_eq!(off.final_digest, chaos.final_digest);
    }

    /// Same chaos claim for the coordinator-protected matching driver.
    #[test]
    fn chaos_armed_matching_matches_failure_free(
        seed in 0u64..200u64, r in 1u32..5, target in 0usize..3,
    ) {
        let n = 32;
        let params = DmpcParams::new(n, 4 * n);
        let ops = streams::mixed_stream(
            n, 80, 30, TargetDist::Uniform, QueryMix::Matching, seed,
        );
        let trace = arrival_trace(&ops, ArrivalProcess::Steady { ops_per_tick: 4.0 }, seed);
        let make = || UnweightedService::new(DmpcMaximalMatching::new(params));
        let c = cfg(6, 3);
        let plain = run_service(make, &trace, &c);
        let plan = ChaosPlan::new(seed).with_event_in_round(target, r, ChaosKind::Kill(2));
        let chaos = run_service_chaos(make, &trace, &c, &plan);
        prop_assert_eq!(chaos.final_digest, plain.final_digest,
            "matching chaos diverged (window {}, round {})", target, r);
        prop_assert_eq!(&chaos.answers, &plain.answers);
        prop_assert_eq!(chaos.violations(), 0);
        let g = streams::replay(n, &writes_of(&ops));
        let mut fresh = make();
        let off = replay_windows(&mut fresh, &chaos.windows);
        prop_assert_eq!(off.final_digest, chaos.final_digest);
        fresh.inner.audit(&g).map_err(TestCaseError::fail)?;
    }
}

/// The full chaos vocabulary, online: a boundary kill, windows with reads
/// and writes served by the partial cluster, the revive that drains the
/// parked writes, then one split and one merge. The digest equals the
/// failure-free run's, admission accounting closes, nothing violates the
/// model, and the instance that lived through it — the same windows fed to
/// the loop by hand, same digest — passes both deep audits.
#[test]
fn boundary_outage_and_migrations_keep_the_service_bit_identical() {
    let n = 48;
    let params = DmpcParams::new(n, 4 * n);
    let ops = streams::mixed_stream(n, 160, 40, TargetDist::Uniform, QueryMix::Connectivity, 42);
    let trace = arrival_trace(&ops, ArrivalProcess::Steady { ops_per_tick: 3.0 }, 42);
    let make = || UnweightedService::new(DmpcConnectivity::new(params));
    let c = cfg(8, 3);
    let plan = ChaosPlan::new(42)
        .with_event(2, ChaosKind::Kill(1))
        .with_event(5, ChaosKind::Revive(1))
        .with_event(7, ChaosKind::Split(2))
        .with_event(9, ChaosKind::Merge(3));
    let plain = run_service(make, &trace, &c);
    let chaos = run_service_chaos(make, &trace, &c, &plan);
    assert!(
        chaos.windows.len() > 9,
        "every event must land inside the run"
    );
    assert!(
        chaos.windows[2..5]
            .iter()
            .any(|w| w.ops.iter().any(Op::is_read))
            && !chaos.drained.is_empty(),
        "the outage must see reads and park writes"
    );
    let applied: Vec<&str> = chaos.applied.iter().map(|e| e.kind.as_str()).collect();
    assert_eq!(applied, ["kill 1", "revive 1", "split 2", "merge 3"]);
    assert_eq!(chaos.skipped, 0);
    assert_eq!(chaos.final_digest, plain.final_digest);
    assert_eq!(chaos.arrived, ops.len());
    assert_eq!(chaos.arrived, chaos.admitted + chaos.shed.len());
    assert_eq!(chaos.answers.len(), plain.answers.len());
    assert_eq!(chaos.violations(), 0);

    let mut survivor = make();
    let mut lp = ServiceLoop::new(&mut survivor, make, &plan);
    for w in &chaos.windows {
        lp.window(w.ops.clone(), w.reason, w.opened_tick, w.closed_tick);
    }
    let by_hand = lp.finish();
    assert_eq!(by_hand.final_digest, chaos.final_digest);
    assert_eq!(by_hand.answers, chaos.answers);
    survivor.inner.driver().audit().unwrap();
    survivor.inner.driver().audit_directory().unwrap();
}

/// Deterministic end-to-end shape check: one seed, every policy knob — the
/// windowed run beats per-op admission on amortized rounds/op while both
/// replay to identical digests, its p99 latency in simulated rounds stays
/// at its pinned value, and the amortization holds for both unweighted
/// services across arrival rate x read share x target distribution.
#[test]
fn windowed_amortization_beats_per_op_at_equal_state() {
    let n = 64;
    let params = DmpcParams::new(n, 4 * n);
    let ops = streams::mixed_stream(n, 160, 50, TargetDist::Uniform, QueryMix::Connectivity, 42);
    let trace = arrival_trace(&ops, ArrivalProcess::Steady { ops_per_tick: 4.0 }, 42);
    let make = || UnweightedService::new(DmpcConnectivity::new(params));
    let per_op_cfg = ServiceConfig {
        window: WindowPolicy::per_op(),
        ..cfg(16, 4)
    };
    let windowed = run_service(make, &trace, &cfg(16, 4));
    let per_op = run_service(make, &trace, &per_op_cfg);
    assert_eq!(windowed.final_digest, per_op.final_digest);
    assert_eq!(windowed.answers, per_op.answers);
    assert!(
        windowed.amortized_rounds_per_op() < per_op.amortized_rounds_per_op(),
        "windowed admission must amortize rounds: {} vs {}",
        windowed.amortized_rounds_per_op(),
        per_op.amortized_rounds_per_op()
    );
    // Rounds are simulated under a seeded trace, so this ceiling is the
    // same on every host: what coalescing costs the slowest op may not grow.
    let (w99, r99) = (
        windowed.write_latency.rounds.p99(),
        windowed.read_latency.rounds.p99(),
    );
    assert!(w99 > 0.0 && r99 > 0.0);
    assert!(
        w99.max(r99) <= 111.0,
        "p99 latency {w99} (writes) / {r99} (reads) rounds over the 111-round ceiling"
    );

    for mix in [QueryMix::Connectivity, QueryMix::Matching] {
        for pct in [95, 50, 5] {
            for dist in [TargetDist::Uniform, TargetDist::Clustered { clusters: 8 }] {
                let ops = streams::mixed_stream(n, 192, pct, dist, mix, 42);
                for rate in [0.5, 2.0, 8.0] {
                    let trace =
                        arrival_trace(&ops, ArrivalProcess::Steady { ops_per_tick: rate }, 42);
                    let [windowed, per_op] = [&cfg(32, 8), &per_op_cfg].map(|c| match mix {
                        QueryMix::Matching => run_service(
                            || UnweightedService::new(DmpcMaximalMatching::new(params)),
                            &trace,
                            c,
                        ),
                        _ => run_service(make, &trace, c),
                    });
                    let cell = format!("{mix:?} reads={pct}% {dist:?} rate={rate}");
                    assert_eq!(windowed.violations() + per_op.violations(), 0, "{cell}");
                    assert_eq!(windowed.admitted, ops.len(), "{cell}");
                    assert!(
                        !windowed.answers.contains(&QueryAnswer::Unsupported),
                        "{cell}"
                    );
                    assert!(
                        windowed.amortized_rounds_per_op() < per_op.amortized_rounds_per_op(),
                        "{cell}: windowed {} vs per-op {}",
                        windowed.amortized_rounds_per_op(),
                        per_op.amortized_rounds_per_op()
                    );
                }
            }
        }
    }
}
