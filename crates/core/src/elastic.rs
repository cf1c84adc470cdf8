//! The chaos-plane surface: what a driver exposes so machines can be
//! killed, revived and their shards migrated.
//!
//! This module is the trait alone. The loop that fires chaos events against
//! it and the checkpoint + replay engine that recovers from them live in
//! `dmpc-service` (`ServiceLoop`, `recovery::RebuildEngine`): machines fail
//! by *fail-stop*, a victim is rebuilt on an off-cluster replica from
//! [`ElasticAlgorithm::checkpoint`] snapshots plus the replayed write
//! suffix, and its shard is shipped back through [`ElasticAlgorithm::revive`]
//! in metered, capacity-budgeted chunks. Shard migrations go through
//! [`ElasticAlgorithm::split`] / [`ElasticAlgorithm::merge`].

use dmpc_mpc::chaos::ChaosKind;
use dmpc_mpc::{MachineId, UpdateMetrics};

/// The chaos-plane surface of a distributed dynamic algorithm: per-machine
/// snapshot/restore plus metered kill/revive/split/merge transitions.
///
/// Implementations must keep [`ElasticAlgorithm::state_digest`] a pure
/// function of the logical machine states, so a chaos run and a
/// failure-free run over the same stream can be compared bit-for-bit.
pub trait ElasticAlgorithm {
    /// Number of machines in the cluster.
    fn n_shards(&self) -> usize;

    /// True if machine `m` may be killed (coordinator-based algorithms
    /// exempt their distinguished reliable machine, as the paper assumes).
    fn killable(&self, m: MachineId) -> bool;

    /// True if machine `m` currently accepts messages.
    fn is_alive(&self, m: MachineId) -> bool;

    /// The executor's quiescence cap — the legal range of mid-flight round
    /// offsets is `1..=round_limit()` (see [`dmpc_mpc::ChaosPlan::validate`]).
    fn round_limit(&self) -> usize;

    /// Arms a mid-flight chaos event on the underlying cluster: `kind`
    /// fires at the start of round `at_round` of the *next* quiescence run
    /// (see `dmpc_mpc::Cluster::arm_in_round`). Events that never fire are
    /// fenced to their epoch and discarded.
    fn arm_in_round(&mut self, at_round: u32, kind: ChaosKind);

    /// Machine-local state restore from a [`ElasticAlgorithm::snapshot_machine`]
    /// snapshot, *without* metered traffic — the abort path of an
    /// epoch-fenced batch, where a surviving machine rolls its own state
    /// back to the pre-batch frontier (a local operation in a real
    /// deployment: the frontier snapshot is resident on the machine).
    fn restore_machine(&mut self, m: MachineId, snap: &str);

    /// Always true: every algorithm restores from its own checkpoints.
    fn supports_restore(&self) -> bool {
        true
    }

    /// Plain-text snapshot of machine `m`'s program state.
    fn snapshot_machine(&self, m: MachineId) -> String;

    /// Full-cluster checkpoint: one snapshot per machine.
    fn checkpoint(&self) -> Vec<String> {
        (0..self.n_shards() as MachineId)
            .map(|m| self.snapshot_machine(m))
            .collect()
    }

    /// Restores every machine from a full-cluster checkpoint.
    fn restore(&mut self, snaps: &[String]) {
        for (m, snap) in snaps.iter().enumerate() {
            self.restore_machine(m as MachineId, snap);
        }
    }

    /// Fail-stops machine `m`: wipes its state and drops its messages.
    fn kill(&mut self, m: MachineId);

    /// Revives machine `m` from `snap` (its recovered plain-text state):
    /// the snapshot is staged at a live peer and shipped through the
    /// metered message plane. Returns the handoff's metrics.
    fn revive(&mut self, m: MachineId, snap: &str) -> UpdateMetrics;

    /// Splits machine `m`'s shard, migrating half its range to a
    /// neighbour. `None` when unsupported or invalid (range too small).
    fn split(&mut self, m: MachineId) -> Option<UpdateMetrics> {
        let _ = m;
        None
    }

    /// Merges machine `m`'s shard into a neighbour, emptying `m`'s range.
    /// `None` when unsupported or invalid (already empty).
    fn merge(&mut self, m: MachineId) -> Option<UpdateMetrics> {
        let _ = m;
        None
    }

    /// Digest of the full logical state, a function of the snapshot lines
    /// only. What is hashed is the algorithm's choice: connectivity and MST
    /// hash the cluster's `vert`/`adj` lines text-sorted and joined (so the
    /// digest is independent of which machine holds a vertex, and skips
    /// the per-machine header and directory lines); matching hashes each
    /// machine's whole snapshot text and folds the hashes in machine order.
    fn state_digest(&self) -> u64;
}
