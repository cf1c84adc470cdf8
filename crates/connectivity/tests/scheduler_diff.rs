//! Schedule differential: the conflict-group schedule against the
//! serialized controller — one protocol, two phase-2 schedules,
//! bit-identical everything.
//!
//! Both schedulers run the identical per-item structural flow; the conflict
//! scheduler merely overlaps flows whose pre-batch components are disjoint.
//! So final states, state digests, query answers and audits must be *equal*
//! on every workload — mixed read/write streams, adversarial same-component
//! conflict batches, and chaos runs with a kill landing mid-round inside a
//! multi-lane batch (the PR 8 epoch fence aborts and retries either
//! schedule bit-identically). Round counts are where they may — and on
//! shallow conflict graphs must — differ: the depth sweep and the canonical
//! clustered service cell below pin by how much.

use dmpc_connectivity::{ConflictStats, DmpcConnectivity};
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm};
use dmpc_graph::streams::{self, chunk_stream, QueryMix, TargetDist, Update};
use dmpc_graph::{Op, Query};
use dmpc_mpc::{ChaosKind, ChaosPlan, ExecOptions};
use dmpc_service::{CloseReason, ServiceAlgorithm, ServiceLoop, ServiceReport, UnweightedService};
use proptest::prelude::*;

/// The serialized comparator: the same program under a lane cap of one, so
/// a batch's conflict groups run one after another.
fn serialized(mut alg: DmpcConnectivity) -> DmpcConnectivity {
    alg.driver_mut().serialize_lanes();
    alg
}

fn pair(n: usize, m_max: usize) -> (DmpcConnectivity, DmpcConnectivity) {
    let params = DmpcParams::new(n, m_max);
    (
        DmpcConnectivity::new(params),
        serialized(DmpcConnectivity::new(params)),
    )
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batched churn streams: both schedulers report the same conflict
    /// partition, zero violations, and identical digests at every batch
    /// boundary; the final components match the `DynamicGraph` replay.
    #[test]
    fn conflict_equals_serialized_on_churn_batches(seed in 0u64..1u64 << 48) {
        let n = 48;
        let (mut con, mut ser) = pair(n, 4 * n);
        let ups = streams::churn_stream(n, 80, 160, 0.55, seed);
        let batches = chunk_stream(&ups, 8);
        for (i, batch) in batches.iter().enumerate() {
            let bc = con.apply_batch(batch);
            let bs = ser.apply_batch(batch);
            prop_assert_eq!(bc.violations, 0, "conflict violations at batch {}", i);
            prop_assert_eq!(bs.violations, 0, "serialized violations at batch {}", i);
            // The partition is computed under both schedulers and must agree.
            prop_assert_eq!(bc.conflict_groups, bs.conflict_groups);
            prop_assert_eq!(bc.conflict_depth, bs.conflict_depth);
            // Overlap never hurts: the conflict schedule takes no more
            // rounds than full serialization.
            prop_assert!(bc.rounds <= bs.rounds,
                "conflict {} rounds > serialized {} at batch {}", bc.rounds, bs.rounds, i);
            prop_assert_eq!(con.state_digest(), ser.state_digest(),
                "digest diverged at batch {}", i);
        }
        prop_assert!(partitions_equal(&con.component_labels(), &ser.component_labels()));
        let g = streams::replay(n, &ups);
        prop_assert!(partitions_equal(&con.component_labels(), &g.components()));
        con.driver().audit().map_err(TestCaseError::fail)?;
        ser.driver().audit().map_err(TestCaseError::fail)?;
        con.driver().audit_directory().map_err(TestCaseError::fail)?;
    }

    /// Mixed read/write streams: interleaving query waves between batches
    /// yields identical answers under both schedulers.
    #[test]
    fn conflict_equals_serialized_on_mixed_streams(seed in 0u64..1u64 << 48) {
        let n = 40;
        let (mut con, mut ser) = pair(n, 4 * n);
        let ops = streams::mixed_stream(
            n, 160, 50, TargetDist::Uniform, QueryMix::Connectivity, seed,
        );
        let mut writes: Vec<Update> = Vec::new();
        let mut reads: Vec<Query> = Vec::new();
        let flush = |con: &mut DmpcConnectivity,
                         ser: &mut DmpcConnectivity,
                         writes: &mut Vec<Update>,
                         reads: &mut Vec<Query>|
         -> Result<(), TestCaseError> {
            if !writes.is_empty() {
                con.apply_batch(writes);
                ser.apply_batch(writes);
                writes.clear();
            }
            if !reads.is_empty() {
                let (ac, _) = con.answer_queries(reads);
                let (as_, _) = ser.answer_queries(reads);
                prop_assert_eq!(ac, as_, "answers diverged");
                reads.clear();
            }
            Ok(())
        };
        for op in &ops {
            match op {
                Op::Write(u) => {
                    if !reads.is_empty() {
                        flush(&mut con, &mut ser, &mut writes, &mut reads)?;
                    }
                    writes.push(*u);
                }
                Op::Read(q) => {
                    if !writes.is_empty() {
                        flush(&mut con, &mut ser, &mut writes, &mut reads)?;
                    }
                    reads.push(*q);
                }
            }
        }
        flush(&mut con, &mut ser, &mut writes, &mut reads)?;
        prop_assert_eq!(con.state_digest(), ser.state_digest());
    }

    /// Adversarial all-conflict batches: every structural item of a batch
    /// lands in the same component, so the partition is one group of full
    /// depth and the conflict scheduler degenerates to the serialized
    /// schedule — same rounds, same digests.
    #[test]
    fn same_component_batches_serialize_identically(seed in 0u64..1u64 << 48) {
        let n = 32;
        let (mut con, mut ser) = pair(n, 4 * n);
        // One growing path: batch i links vertices 4i..4i+4 onto the
        // component of vertex 0 — every link touches the same component
        // chain, so each batch is a single conflict group.
        let mut batches: Vec<Vec<Update>> = Vec::new();
        for i in 0..7u32 {
            let base = 4 * i;
            batches.push(
                (0..4)
                    .map(|j| Update::Insert(dmpc_graph::Edge::new(base + j, base + j + 1)))
                    .collect(),
            );
        }
        // Seed only shuffles which batch gets a deletion replayed.
        let del = (seed % 7) as usize;
        for (i, batch) in batches.iter().enumerate() {
            let bc = con.apply_batch(batch);
            let bs = ser.apply_batch(batch);
            prop_assert_eq!(bc.conflict_groups, 1, "batch {} should be one group", i);
            prop_assert_eq!(bc.conflict_depth, 4);
            prop_assert_eq!(bc.max_lanes, 1, "a single group never overlaps");
            prop_assert_eq!(bc.rounds, bs.rounds,
                "one lane must cost the same as the serialized schedule");
            prop_assert_eq!(con.state_digest(), ser.state_digest());
        }
        // A tree delete in the middle of the path is also a single group.
        let e = dmpc_graph::Edge::new(4 * del as u32, 4 * del as u32 + 1);
        let bc = con.apply_batch(&[Update::Delete(e)]);
        let bs = ser.apply_batch(&[Update::Delete(e)]);
        prop_assert_eq!(bc.conflict_groups, 1);
        prop_assert_eq!(bc.rounds, bs.rounds);
        prop_assert_eq!(con.state_digest(), ser.state_digest());
        con.driver().audit().map_err(TestCaseError::fail)?;
    }

    /// Chaos interleave: a kill firing mid-round inside a multi-lane batch
    /// aborts the epoch and retries; the recovered digest equals the
    /// failure-free run under *both* schedulers.
    #[test]
    fn mid_flight_kill_in_multi_lane_batch_recovers(seed in 0u64..200u64, r in 1u32..8) {
        let n = 64;
        // Disjoint fresh paths per batch: guaranteed multi-lane phase 2.
        let batches = streams::conflict_batches(n, 4, 2, 3, seed);
        let target = 1usize; // kill inside the second batch
        let mk = |serialize: bool| move || {
            let alg = DmpcConnectivity::new(DmpcParams::new(n, 4 * n));
            UnweightedService::new(if serialize { serialized(alg) } else { alg })
        };
        let plan = ChaosPlan::new(seed).with_event_in_round(target, r, ChaosKind::Kill(1));
        let plain_c = churn(mk(false), &batches, &ChaosPlan::new(0), 0);
        let plain_s = churn(mk(true), &batches, &ChaosPlan::new(0), 0);
        prop_assert_eq!(&plain_c.final_digest, &plain_s.final_digest);
        let chaos_c = churn(mk(false), &batches, &plan, 3);
        let chaos_s = churn(mk(true), &batches, &plan, 3);
        prop_assert_eq!(&chaos_c.final_digest, &plain_c.final_digest,
            "conflict-scheduled chaos diverged (kill round {})", r);
        prop_assert_eq!(&chaos_s.final_digest, &plain_s.final_digest,
            "serialized chaos diverged (kill round {})", r);
        prop_assert_eq!(chaos_c.writes.violations, 0);
        prop_assert_eq!(chaos_c.writes.lost_words, 0);
        prop_assert_eq!(chaos_s.writes.violations, 0);
    }
}

/// Deterministic shape check on the known-depth generator driven end to
/// end: the controller's reported partition matches the generator's
/// construction, multiple lanes actually overlap, and the conflict
/// schedule beats full serialization on a shallow conflict graph.
#[test]
fn conflict_batches_overlap_and_win() {
    let n = 128;
    let (mut con, mut ser) = pair(n, 4 * n);
    let (groups, depth) = (6, 1);
    for batch in streams::conflict_batches(n, groups, depth, 3, 11) {
        let bc = con.apply_batch(&batch);
        let bs = ser.apply_batch(&batch);
        assert_eq!(bc.conflict_groups, groups);
        assert_eq!(bc.conflict_depth, depth);
        assert!(
            bc.max_lanes >= 2,
            "disjoint groups must overlap (max_lanes = {})",
            bc.max_lanes
        );
        assert_eq!(bs.max_lanes, 1, "serialized runs one lane");
        assert_eq!(
            bs.conflict_groups, groups,
            "stats are scheduler-independent"
        );
        assert!(
            bc.rounds < bs.rounds,
            "overlapping {groups} disjoint groups must beat serialization \
             ({} vs {} rounds)",
            bc.rounds,
            bs.rounds
        );
        assert_eq!(bc.violations, 0);
        assert_eq!(bs.violations, 0);
        assert_eq!(con.state_digest(), ser.state_digest());
    }
    con.driver().audit().unwrap();
    ser.driver().audit().unwrap();
}

/// Two lanes parked at one machine in one round. Two three-vertex paths
/// span machines 0, 1 and 2 (block 32), rooted at machine 0, and the batch
/// cuts the lower edge of each, whose parent endpoint (32, 33) lives on
/// machine 1. Both searching cuts rendezvous there, and their `Report`s
/// (from machines 0 and 2) arrive in the same round. Only the first path
/// has a replacement (the non-tree edge 0-64), so a report folded into the
/// wrong lane would re-link the wrong path or refine the wrong directory
/// entry. Each lane must finalize on its own reports, exactly as when the
/// lanes run one at a time.
#[test]
fn two_lanes_rendezvous_at_one_machine_in_one_round() {
    let n = 128;
    let e = dmpc_graph::Edge::new;
    let queries = [
        Query::Connected(0, 64),
        Query::Connected(1, 65),
        Query::Connected(1, 33),
        Query::ComponentOf(64),
        Query::ComponentOf(65),
        Query::PathMax(0, 64),
        Query::PathMax(33, 65),
    ];
    let [con, ser] = [false, true].map(|serialize| {
        let mut alg =
            DmpcConnectivity::with_cluster(DmpcParams::new(n, 4 * n), ExecOptions::default(), 4);
        if serialize {
            alg = serialized(alg);
        }
        for edge in [e(0, 32), e(32, 64), e(0, 64), e(1, 33), e(33, 65)] {
            assert!(alg.insert(edge).clean());
        }
        let bm = alg.apply_batch(&[Update::Delete(e(32, 64)), Update::Delete(e(33, 65))]);
        assert_eq!(bm.violations, 0, "serialized: {serialize}");
        assert_eq!(bm.conflict_groups, 2);
        alg.driver().audit().unwrap();
        alg.driver().audit_directory().unwrap();
        let (answers, _) = alg.answer_queries(&queries);
        (bm.max_lanes, bm.rounds, alg.state_digest(), answers)
    });
    assert_eq!(con.0, 2, "both lanes in flight at once");
    assert_eq!(ser.0, 1);
    assert!(
        con.1 < ser.1,
        "the lanes overlap ({} vs {} rounds)",
        con.1,
        ser.1
    );
    assert_eq!(con.2, ser.2, "digests diverged");
    assert_eq!(con.3, ser.3, "answers diverged");
    // The first path re-linked through 0-64; the second stayed split.
    use dmpc_graph::QueryAnswer::{Bool, Component, PathMax};
    assert_eq!(
        con.3,
        [
            Bool(true),
            Bool(false),
            Bool(true),
            Component(0),
            Component(65),
            PathMax(Some((e(0, 64), 1))),
            PathMax(None),
        ]
    );
}

/// Depth sweep at a fixed 16 structural ops per batch: the partitioner
/// reports the generator's depth, the two schedules end in one state, and
/// the conflict schedule's rounds grow with the conflict depth — the
/// serialization floor — not with the op count.
#[test]
fn conflict_rounds_track_depth_at_fixed_op_count() {
    let n = 128;
    let mut conflict_rounds = Vec::new();
    for (groups, depth) in [(16, 1), (4, 4), (1, 16)] {
        let (mut con, mut ser) = pair(n, 3 * n);
        let (mut rounds_con, mut rounds_ser) = (0, 0);
        for batch in streams::conflict_batches(n, groups, depth, 4, 42) {
            let bc = con.apply_batch(&batch);
            let bs = ser.apply_batch(&batch);
            assert_eq!(batch.len(), 16);
            assert_eq!(bc.violations + bs.violations, 0, "d={depth}");
            assert_eq!(bc.conflict_depth, depth);
            assert_eq!(bs.conflict_depth, depth);
            rounds_con += bc.rounds;
            rounds_ser += bs.rounds;
        }
        assert_eq!(con.state_digest(), ser.state_digest(), "d={depth}");
        // Disjoint groups overlap; a single group is the serialized schedule.
        if groups > 1 {
            assert!(rounds_con < rounds_ser, "d={depth}");
        } else {
            assert_eq!(rounds_con, rounds_ser, "d={depth}");
        }
        conflict_rounds.push(rounds_con);
    }
    assert!(
        conflict_rounds.windows(2).all(|w| w[0] < w[1]),
        "conflict rounds must increase with depth: {conflict_rounds:?}"
    );
}

/// The canonical mixed service cell (n = 256 on 16 machines, 512 ops at
/// 50/50 with 16-cluster targets, reads answered between write windows of
/// 64): identical digests and answers, and overlapping the community-local
/// conflict groups cuts total batch rounds at least 2x.
#[test]
fn canonical_clustered_mixed_cell_halves_batch_rounds() {
    let n = 256;
    let ops = streams::mixed_stream(
        n,
        512,
        50,
        TargetDist::Clustered { clusters: 16 },
        QueryMix::Connectivity,
        42,
    );
    let [con, ser] = [false, true].map(|serialize| {
        let mut alg =
            DmpcConnectivity::with_cluster(DmpcParams::new(n, 3 * n), ExecOptions::default(), 16);
        if serialize {
            alg = serialized(alg);
        }
        let (mut rounds, mut violations) = (0, 0);
        let mut answers = Vec::new();
        let mut writes: Vec<Update> = Vec::new();
        let mut reads: Vec<Query> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Write(u) => writes.push(*u),
                Op::Read(q) => reads.push(*q),
            }
            if writes.len() == 64 || i + 1 == ops.len() {
                let bm = alg.apply_batch(&writes);
                let (a, qm) = alg.answer_queries(&reads);
                rounds += bm.rounds;
                violations += bm.violations + qm.violations;
                answers.extend(a);
                writes.clear();
                reads.clear();
            }
        }
        assert_eq!(violations, 0, "serialized: {serialize}");
        (alg.state_digest(), answers, rounds)
    });
    let ((digest_con, answers_con, rounds_con), (digest_ser, answers_ser, rounds_ser)) = (con, ser);
    assert_eq!(digest_con, digest_ser, "schedulers diverged");
    assert_eq!(
        answers_con, answers_ser,
        "answers diverged between schedulers"
    );
    assert!(
        2 * rounds_con <= rounds_ser,
        "conflict must cut batch rounds >= 2x ({rounds_con} vs {rounds_ser})"
    );
}

/// The controller publishes its partition stats through the driver exactly
/// once per batch run; an unbatched update publishes none.
#[test]
fn conflict_stats_surface_in_metrics() {
    let n = 64;
    let params = DmpcParams::new(n, 4 * n);
    let mut alg = DmpcConnectivity::new(params);
    let batch: Vec<Update> = (0..4)
        .map(|i| Update::Insert(dmpc_graph::Edge::new(2 * i, 2 * i + 1)))
        .collect();
    let bm = alg.apply_batch(&batch);
    assert_eq!(bm.conflict_groups, 4);
    assert_eq!(bm.conflict_depth, 1);
    assert!(bm.max_lanes >= 2);
    // Single-update runs bypass the batch plane: no stats.
    let um = alg.insert(dmpc_graph::Edge::new(40, 41));
    assert!(um.clean());
    let bm2 = alg.apply_batch(&[Update::Insert(dmpc_graph::Edge::new(50, 51))]);
    assert_eq!(bm2.conflict_groups, 1);
    assert_eq!(bm2.conflict_depth, 1);
    assert_eq!(bm2.max_lanes, 1);
    // The exported stats type is plain data.
    let st = ConflictStats {
        groups: 2,
        depth: 1,
        max_lanes: 2,
    };
    assert_eq!(st, st.clone());
}
