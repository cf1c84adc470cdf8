//! `state_digest` streams lines into the hasher in an order computed from
//! integer keys; it must equal the digest built the long way — every
//! machine's snapshot text, the `vert`/`adj` lines text-sorted and joined.
//!
//! The golden digests stop at n = 256 (three-digit ids). The sizes here
//! straddle every decimal length up to five digits, where a numeric order
//! and a text order of the ids disagree the most.

use dmpc_connectivity::{DmpcConnectivity, DmpcMst};
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm};
use dmpc_graph::{streams, WeightedUpdate};
use dmpc_mpc::chaos::fnv1a;
use dmpc_mpc::{ExecOptions, MachineId};

/// The digest as it was defined before it was streamed: snapshot every
/// machine, keep the `vert`/`adj` lines, sort them as text, join with
/// newlines, hash.
fn reference_digest<A: ElasticAlgorithm>(alg: &A) -> u64 {
    let snaps = alg.checkpoint();
    let mut lines: Vec<&str> = snaps
        .iter()
        .flat_map(|s| s.lines())
        .filter(|l| l.starts_with("vert ") || l.starts_with("adj "))
        .collect();
    lines.sort_unstable();
    fnv1a(lines.join("\n").as_bytes())
}

fn assert_streamed_equals_reference<A: ElasticAlgorithm>(alg: &A, what: &str) {
    assert_eq!(alg.state_digest(), reference_digest(alg), "{what}");
}

#[test]
fn churn_at_every_decimal_length() {
    for n in [9, 10, 11, 99, 100, 101, 1000, 1001, 12_345] {
        let mut alg = DmpcConnectivity::new(DmpcParams::new(n, 4 * n));
        assert_streamed_equals_reference(&alg, &format!("n = {n}, no edges"));
        let ups = streams::churn_stream(n, (2 * n).min(3000), 300, 0.55, n as u64);
        for batch in ups.chunks(64) {
            assert!(alg.apply_batch(batch).clean());
        }
        assert_streamed_equals_reference(&alg, &format!("n = {n}, after churn"));
    }
}

#[test]
fn weighted_lines_at_three_and_four_digits() {
    for n in [99, 1001] {
        let mut alg = DmpcMst::new(DmpcParams::new(n, 4 * n), 0.1);
        let ups = streams::churn_stream(n, 2 * n, 200, 0.5, 3);
        for u in streams::with_weights(&ups, 100_000, 3) {
            let m = match u {
                WeightedUpdate::Insert(e, w) => alg.insert(e, w),
                WeightedUpdate::Delete(e) => alg.delete(e),
            };
            assert!(m.clean());
        }
        assert_streamed_equals_reference(&alg, &format!("mst n = {n}"));
    }
}

#[test]
fn across_split_merge_and_kill_revive() {
    let (n, p) = (1001, 8);
    let make =
        || DmpcConnectivity::with_cluster(DmpcParams::new(n, 4 * n), ExecOptions::default(), p);
    let ups = streams::clustered_churn_stream(n, 8, 40, 400, 0.6, 17);
    let mut alg = make();
    alg.apply_batch(&ups);
    let before = alg.state_digest();
    assert_streamed_equals_reference(&alg, "before any migration");

    // Vertices change machine (and slot): the digest must not notice.
    for m in [0u32, 3] {
        alg.driver_mut().split_shard(m).expect("splittable");
        assert_streamed_equals_reference(&alg, "after a split");
    }
    alg.driver_mut().merge_shard(0).expect("mergeable");
    assert_streamed_equals_reference(&alg, "after a merge");
    assert_eq!(alg.state_digest(), before, "placement moved the digest");

    // A wiped machine contributes no lines, on either path.
    let snap = alg.snapshot_machine(5);
    alg.driver_mut().kill_machine(5);
    assert_ne!(alg.state_digest(), before);
    assert_streamed_equals_reference(&alg, "with a machine down");
    assert!(alg.driver_mut().revive_machine(5, &snap).clean());
    assert_streamed_equals_reference(&alg, "after the revive");
    assert_eq!(alg.state_digest(), before);
}

#[test]
fn an_empty_cluster_digests_to_the_offset_basis() {
    let mut alg = DmpcConnectivity::new(DmpcParams::new(100, 400));
    for m in 0..alg.n_shards() as MachineId {
        alg.driver_mut().kill_machine(m);
    }
    assert_eq!(alg.state_digest(), fnv1a(b""));
    assert_eq!(alg.state_digest(), 0xcbf2_9ce4_8422_2325);
    assert_streamed_equals_reference(&alg, "no machine holds a vertex");
}
