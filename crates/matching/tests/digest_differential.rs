//! `state_digest` renders every machine's snapshot straight into a hasher;
//! it must equal the fold of the hashes of the snapshot *texts*, which is
//! how the digest was defined while it still rendered them. And those texts
//! are lossless: a checkpoint restored into a fresh instance is the same
//! instance.

use dmpc_core::{DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm};
use dmpc_graph::{streams, Edge, Query, Update};
use dmpc_matching::DmpcMaximalMatching;
use dmpc_mpc::chaos::fnv1a;
use proptest::prelude::*;

/// Folds machine snapshot texts, in machine order, into one digest.
fn digest_snapshots(snaps: &[String]) -> u64 {
    snaps
        .iter()
        .fold(0, |h: u64, s| h.rotate_left(1) ^ fnv1a(s.as_bytes()))
}

fn assert_streamed_equals_reference(alg: &DmpcMaximalMatching, what: &str) {
    assert_eq!(
        alg.state_digest(),
        digest_snapshots(&alg.checkpoint()),
        "{what}"
    );
}

#[test]
fn churn_at_every_decimal_length() {
    for n in [9, 10, 11, 99, 100, 101, 1000, 1001, 12_345] {
        let mut alg = DmpcMaximalMatching::new(DmpcParams::new(n, 3 * n));
        assert_streamed_equals_reference(&alg, &format!("n = {n}, no edges"));
        let ups = streams::churn_stream(n, (2 * n).min(3000), 300, 0.55, n as u64);
        for batch in ups.chunks(64) {
            assert!(alg.apply_batch(batch).clean());
        }
        assert_streamed_equals_reference(&alg, &format!("n = {n}, after churn"));
    }
}

/// A star drives vertex 0 heavy, so the overflow role and the coordinator's
/// overflow tables hold lines; then one machine of each role is killed and
/// revived from a replica.
#[test]
fn heavy_vertex_and_kill_revive() {
    let n = 256;
    let params = DmpcParams::new(n, 3 * n);
    let mut ups = streams::churn_stream(n, 2 * n, 512, 0.55, 12);
    let g = streams::replay(n, &ups);
    ups.extend(
        (1..=80)
            .map(|v| Edge::new(0, v))
            .filter(|&e| !g.has_edge(e))
            .map(Update::Insert),
    );
    let make = || {
        let mut alg = DmpcMaximalMatching::new(params);
        for batch in ups.chunks(64) {
            assert!(alg.apply_batch(batch).clean());
        }
        alg
    };
    let mut alg = make();
    let before = alg.state_digest();
    assert!(alg.checkpoint().concat().contains("\noedge "));
    assert_streamed_equals_reference(&alg, "with a heavy vertex");

    let replica = make();
    let last = alg.n_shards() as u32 - 1;
    for victim in [1, last / 2, last] {
        alg.kill(victim);
        assert_streamed_equals_reference(&alg, "with a machine down");
        assert!(alg
            .revive(victim, &replica.snapshot_machine(victim))
            .clean());
        assert_streamed_equals_reference(&alg, "after the revive");
        assert_eq!(alg.state_digest(), before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A checkpoint restored into a *fresh* instance is the instance it was
    /// taken from: per-machine snapshot bytes and digest agree, and the two
    /// stay bit-equal — digest, metrics, answers — over the rest of the
    /// stream. This is what lets a recovery replica start from a checkpoint
    /// instead of replaying the whole log.
    #[test]
    fn checkpoint_restores_into_a_fresh_instance(
        seed in 0u64..1u64 << 32, cut in 1usize..8, k in 1usize..24,
    ) {
        let n = 48;
        let params = DmpcParams::new(n, 4 * n);
        let ups = streams::churn_stream(n, 2 * n, 240, 0.55, seed);
        let (pre, post) = ups.split_at(ups.len() * cut / 8);
        let mut alg = DmpcMaximalMatching::new(params);
        for batch in pre.chunks(k) {
            prop_assert!(alg.apply_batch(batch).clean());
        }
        let ckpt = alg.checkpoint();
        let mut twin = DmpcMaximalMatching::new(params);
        twin.restore(&ckpt);
        prop_assert_eq!(&twin.checkpoint(), &ckpt);
        prop_assert_eq!(twin.state_digest(), alg.state_digest());
        let reads: Vec<Query> = (0..n as u32)
            .map(Query::IsMatched)
            .chain([Query::MatchingSize])
            .collect();
        for batch in post.chunks(k) {
            prop_assert_eq!(twin.apply_batch(batch), alg.apply_batch(batch));
            prop_assert_eq!(twin.state_digest(), alg.state_digest());
            prop_assert_eq!(twin.answer_queries(&reads), alg.answer_queries(&reads));
        }
    }
}
