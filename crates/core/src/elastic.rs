//! Elasticity and recovery: the trait surface drivers expose to the chaos
//! plane, and the harness that interleaves chaos events with a workload
//! stream.
//!
//! # The recovery model
//!
//! Machines fail by *fail-stop*: a killed machine loses its state and
//! silently drops inbound messages (the simulator records each drop as a
//! `DeadMachine` violation, so a correct harness shows zero). Recovery is
//! checkpoint + replay:
//!
//! 1. A [`RebuildEngine`] keeps a **checkpoint** — per-machine plain-text
//!    snapshots taken at full-cluster health, if any was taken yet — plus
//!    the **op suffix**: the write runs completed since.
//! 2. To revive machine `m`, the engine rebuilds its state on an
//!    off-cluster *replica*: a fresh instance restored from the checkpoint
//!    (or left at the factory state when there is none) with the suffix
//!    replayed. Determinism makes the replica's shard `m` bit-identical to
//!    what the dead machine should hold, because the live cluster processed
//!    exactly the same ops before the kill and none since (batches arriving
//!    during an outage are deferred).
//! 3. The replica's shard-`m` snapshot is staged at a live peer and shipped
//!    to the revived machine through the metered message plane in
//!    capacity-budgeted chunks, so recovery cost appears in the same
//!    rounds/words/machines-touched units as updates.
//!
//! A kill firing *inside* a run goes through the same rebuild, wrapped in
//! the engine's fenced epoch ([`RebuildEngine::run_epoch`]) — the one
//! abort-and-retry loop behind both [`run_chaos_stream`] and the service
//! loop. Split/merge shard migrations go through
//! [`ElasticAlgorithm::split`] / [`ElasticAlgorithm::merge`]; the harness
//! checkpoints right after each migration so replay suffixes never straddle
//! a repartition.

use crate::algorithm::DynamicGraphAlgorithm;
use dmpc_graph::{Query, Update};
use dmpc_mpc::chaos::{ChaosKind, ChaosPlan};
use dmpc_mpc::{BatchMetrics, MachineId, QueryMetrics, RecoveryMetrics, UpdateMetrics};

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
    /// offsets is `1..=round_limit()` (see [`ChaosPlan::validate`]).
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

/// One applied chaos event with its metered cost (the bench trajectory).
#[derive(Clone, Debug)]
pub struct AppliedEvent {
    /// Batch index the event fired before.
    pub at_batch: usize,
    /// Human-readable event, e.g. `"kill 3"`.
    pub kind: String,
    /// Rounds of metered recovery/migration traffic (0 for kills).
    pub rounds: usize,
    /// Words of metered recovery/migration traffic.
    pub words: usize,
    /// Distinct machines the recovery run touched.
    pub machines_touched: usize,
    /// Logical updates replayed on the off-cluster replica.
    pub replay_updates: usize,
}

/// One epoch abort + recovery caused by a mid-flight kill: an
/// [`EpochAbort`] as [`ChurnReport`] carries it, with the harness's outage
/// reads and its end-to-end latency.
#[derive(Clone, Debug)]
pub struct MidFlightRecovery {
    /// Batch whose epoch was aborted.
    pub at_batch: usize,
    /// Round offset (1-based) at which the first kill fired.
    pub kill_round: u32,
    /// Machines that died mid-flight.
    pub victims: Vec<MachineId>,
    /// Which retry attempt this abort was (1-based; 1 = the first
    /// execution of the batch was the one aborted).
    pub attempt: usize,
    /// Rounds the aborted epoch burned before the harness gave up on it.
    pub aborted_rounds: usize,
    /// Machine-to-machine words quarantined as `LostInFlight`.
    pub lost_words: usize,
    /// Machine-to-machine messages quarantined as `LostInFlight`.
    pub lost_messages: usize,
    /// Simulated backoff before the retry (exponential in the attempt).
    pub backoff_rounds: usize,
    /// Metered rounds of the victim rebuild (checkpoint+replay handoff).
    pub recovery_rounds: usize,
    /// Metered words of the victim rebuild.
    pub recovery_words: usize,
    /// Logical updates replayed on the off-cluster replica.
    pub replay_updates: usize,
    /// Degraded-mode reads answered while the victim rebuilt.
    pub reads_answered: usize,
    /// How many of those reads came back [`dmpc_graph::QueryAnswer::Degraded`].
    pub degraded_answers: usize,
    /// End-to-end recovery latency in rounds: from the kill firing to the
    /// cluster standing at the restored frontier, ready to re-execute
    /// (aborted remainder + backoff + metered rebuild).
    pub latency_rounds: usize,
}

/// One deferred batch drained after full health returned — the
/// deferral-accounting record (no deferral is invisible in the report).
#[derive(Clone, Copy, Debug)]
pub struct DrainRecord {
    /// The deferred batch's index in the stream.
    pub batch: usize,
    /// Stream position at which it was actually applied (`batches.len()`
    /// for the final drain after the stream ended).
    pub drained_at: usize,
    /// Deferral latency in batches (`drained_at - batch`).
    pub latency_batches: usize,
}

/// Re-executions a fenced epoch may spend before the engine gives up
/// (panics). Each retry runs clean — the armed events fired in the first
/// attempt — so one normally suffices; the budget guards against
/// pathological plans.
pub const RETRY_BUDGET: usize = 3;

/// Base of the simulated exponential backoff charged per aborted attempt
/// (`base << attempt` rounds). Recorded as latency, not executed.
pub const BACKOFF_BASE_ROUNDS: usize = 1;

/// One aborted attempt of a fenced epoch ([`RebuildEngine::run_epoch`]).
#[derive(Clone, Debug)]
pub struct EpochAbort {
    /// Machines that died inside the attempt.
    pub victims: Vec<MachineId>,
    /// Which attempt this was (1-based; 1 = the first execution).
    pub attempt: usize,
    /// The aborted attempt's metrics — latency, never workload.
    pub aborted: BatchMetrics,
    /// Per victim, in `victims` order: the metered revive handoff and the
    /// replica's off-cluster replay.
    pub rebuilds: Vec<(UpdateMetrics, BatchMetrics)>,
    /// Simulated backoff before the retry.
    pub backoff_rounds: usize,
}

/// The one owner of what a rebuild needs: the factory, the last
/// full-cluster checkpoint, and the write runs completed since. `B` is how
/// the caller holds a logged run (owned or borrowed).
pub struct RebuildEngine<F, B> {
    make: F,
    /// `None` until the first [`RebuildEngine::checkpoint`]: a replica then
    /// starts from the factory state and replays everything logged.
    checkpoint: Option<Vec<String>>,
    /// Write runs completed since the checkpoint (or since the start), in
    /// order — the replay suffix of the next rebuild. The caller pushes
    /// every completed run, and may drop the log once no kill can read it.
    pub log: Vec<B>,
}

impl<A, F, B> RebuildEngine<F, B>
where
    A: ElasticAlgorithm,
    F: Fn() -> A,
    B: AsRef<[Update]>,
{
    /// An engine with no checkpoint and an empty log; `make` builds a fresh
    /// instance for each replica and must be deterministic.
    pub fn new(make: F) -> Self {
        RebuildEngine {
            make,
            checkpoint: None,
            log: Vec::new(),
        }
    }

    /// Checkpoints `a` (at full-cluster health) and restarts the log there.
    pub fn checkpoint(&mut self, a: &A) {
        self.checkpoint = Some(a.checkpoint());
        self.log.clear();
    }

    /// Rebuilds dead machine `m`'s state on an off-cluster replica
    /// (checkpoint if any, else factory state, + logged suffix; determinism
    /// makes shard `m` exactly what the dead machine should hold) and ships
    /// it back via the metered revive handoff. Returns the handoff's and
    /// the replay's metrics.
    fn rebuild(
        &self,
        a: &mut A,
        mut apply: impl FnMut(&mut A, &[Update]) -> BatchMetrics,
        m: MachineId,
    ) -> (UpdateMetrics, BatchMetrics) {
        let mut replica = (self.make)();
        if let Some(checkpoint) = &self.checkpoint {
            replica.restore(checkpoint);
        }
        let mut replay = BatchMetrics::default();
        for run in &self.log {
            replay.merge(&apply(&mut replica, run.as_ref()));
        }
        let snap = replica.snapshot_machine(m);
        (a.revive(m, &snap), replay)
    }

    /// Applies `run` under an epoch fence. `armed` are the mid-flight events
    /// (round offset, kind) to fire inside it; kills must target killable,
    /// live machines. With none armed this is one `apply` and nothing else.
    ///
    /// Otherwise the pre-run frontier is snapshotted and the events armed
    /// for the first attempt only (they fire, or are fenced to that epoch,
    /// so every retry runs clean). An attempt that loses a machine or a
    /// message is aborted: the victims' state is wiped, survivors roll back
    /// to the frontier locally (unmetered: the frontier snapshot is
    /// machine-resident), `during_outage` runs against the partial cluster,
    /// and each victim is rebuilt — the log excludes this run, so replicas
    /// stand exactly at the frontier. Determinism makes the retry
    /// bit-identical to a never-failed run.
    ///
    /// Returns the clean attempt's metrics and one record per abort; the
    /// caller logs the run. Panics once [`RETRY_BUDGET`] is exhausted.
    pub fn run_epoch(
        &self,
        a: &mut A,
        mut apply: impl FnMut(&mut A, &[Update]) -> BatchMetrics,
        run: &[Update],
        armed: &[(u32, ChaosKind)],
        mut during_outage: impl FnMut(&mut A),
    ) -> (BatchMetrics, Vec<EpochAbort>) {
        if armed.is_empty() {
            return (apply(a, run), Vec::new());
        }
        let frontier = a.checkpoint();
        for &(at_round, kind) in armed {
            a.arm_in_round(at_round, kind);
        }
        let mut aborts = Vec::new();
        loop {
            let bm = apply(a, run);
            let victims: Vec<MachineId> = (0..a.n_shards() as MachineId)
                .filter(|&m| !a.is_alive(m))
                .collect();
            if victims.is_empty() && bm.lost_words == 0 && bm.lost_messages == 0 {
                return (bm, aborts);
            }
            assert!(
                aborts.len() < RETRY_BUDGET,
                "fenced epoch exhausted its retry budget ({RETRY_BUDGET})"
            );
            for &m in &victims {
                a.kill(m);
            }
            for (m, snap) in frontier.iter().enumerate() {
                if a.is_alive(m as MachineId) {
                    a.restore_machine(m as MachineId, snap);
                }
            }
            during_outage(a);
            let rebuilds = victims
                .iter()
                .map(|&m| self.rebuild(a, &mut apply, m))
                .collect();
            aborts.push(EpochAbort {
                victims,
                attempt: aborts.len() + 1,
                aborted: bm,
                rebuilds,
                backoff_rounds: BACKOFF_BASE_ROUNDS << aborts.len(),
            });
        }
    }
}

/// Outcome of a chaos run: workload cost, recovery cost, the per-event
/// trajectory, and the final state digest for bit-identical comparisons.
#[derive(Clone, Debug, Default)]
pub struct ChurnReport {
    /// Batches applied (every batch in the stream, deferred or not).
    pub batches: usize,
    /// Logical updates applied.
    pub updates: usize,
    /// Events applied, in order, with costs.
    pub applied: Vec<AppliedEvent>,
    /// Events skipped as invalid (e.g. split of a 1-vertex shard, revive of
    /// an alive machine, mid-flight events targeting a deferred batch).
    pub skipped: usize,
    /// Recovery-cost totals.
    pub recovery: RecoveryMetrics,
    /// Workload-cost totals (the batches themselves; aborted epochs are
    /// *not* merged here — their cost lives in [`ChurnReport::mid_flight`]
    /// and [`ChurnReport::aborted_rounds`]).
    pub workload: BatchMetrics,
    /// Batch re-executions forced by mid-flight kills.
    pub retries: usize,
    /// Total rounds burned in aborted epochs.
    pub aborted_rounds: usize,
    /// Per-abort retry/backoff/recovery trajectory.
    pub mid_flight: Vec<MidFlightRecovery>,
    /// Every deferred batch with its drain position and latency.
    pub drained: Vec<DrainRecord>,
    /// Reads answered while some machine was down.
    pub reads_answered: usize,
    /// How many outage reads came back [`dmpc_graph::QueryAnswer::Degraded`].
    pub degraded_answers: usize,
    /// Metered cost of the outage read waves.
    pub outage_reads: QueryMetrics,
    /// Digest of the final cluster state.
    pub final_digest: u64,
}

impl ChurnReport {
    /// One applied event with its metered cost (none for a kill).
    fn event(&mut self, at_batch: usize, kind: String, um: &UpdateMetrics, replay_updates: usize) {
        self.applied.push(AppliedEvent {
            at_batch,
            kind,
            rounds: um.rounds,
            words: um.total_words,
            machines_touched: um.machines_touched,
            replay_updates,
        });
        self.recovery.absorb_event(um);
    }

    /// One rebuilt machine: the revive row plus the replica's replay.
    fn revived(&mut self, at_batch: usize, m: MachineId, rebuild: &(UpdateMetrics, BatchMetrics)) {
        let (handoff, replay) = rebuild;
        self.event(at_batch, format!("revive {m}"), handoff, replay.updates);
        self.recovery.absorb_replay(replay);
    }

    /// One deferred batch applied at stream position `at`.
    fn drained(&mut self, batch: usize, at: usize, bm: &BatchMetrics) {
        self.workload.merge(bm);
        self.batches += 1;
        self.drained.push(DrainRecord {
            batch,
            drained_at: at,
            latency_batches: at - batch,
        });
    }

    /// One read wave against a partial cluster: writes pause, reads degrade.
    /// Returns (answered, degraded).
    fn outage_wave<A: DynamicGraphAlgorithm>(
        &mut self,
        a: &mut A,
        reads: &[Query],
    ) -> (usize, usize) {
        if reads.is_empty() {
            return (0, 0);
        }
        let (answers, qm) = a.answer_queries(reads);
        let degraded = answers.iter().filter(|an| an.is_degraded()).count();
        self.reads_answered += answers.len();
        self.degraded_answers += degraded;
        self.outage_reads.merge(&qm);
        (answers.len(), degraded)
    }
}

/// Drives `batches` through an algorithm while applying `plan`'s chaos
/// events, recovering every failure through one [`RebuildEngine`]. An empty
/// plan with `checkpoint_every = 0` is the failure-free baseline: every
/// batch applied in order, no snapshot taken.
///
/// `make` builds a fresh instance (used for the recovery replicas — it must
/// be deterministic); `apply` applies one batch (the indirection lets
/// weighted algorithms map `Update`s to weighted updates). A full-cluster
/// checkpoint is taken every `checkpoint_every` applied batches (0 = only
/// after migrations; recovery then replays from the last one or the start).
///
/// **Boundary events** fire between batches. Batches arriving while any
/// machine is dead are deferred and drained right after the revive that
/// restores full health; every machine still dead after the last batch is
/// revived, so the final state covers the whole stream. **Events carrying
/// a round offset** fire inside their batch, which runs as a fenced epoch
/// ([`RebuildEngine::run_epoch`]). `outage_reads` are issued while any
/// machine is down — during mid-flight rebuilds and boundary deferral
/// windows; answers touching a dead owner come back
/// [`dmpc_graph::QueryAnswer::Degraded`], the rest stay exact.
///
/// Panics if `plan` fails [`ChaosPlan::validate`] or a retry budget is
/// exhausted.
pub fn run_chaos_stream<A, F, App>(
    make: F,
    mut apply: App,
    batches: &[Vec<Update>],
    plan: &ChaosPlan,
    checkpoint_every: usize,
    outage_reads: &[Query],
) -> ChurnReport
where
    A: ElasticAlgorithm + DynamicGraphAlgorithm,
    F: Fn() -> A,
    App: FnMut(&mut A, &[Update]) -> BatchMetrics,
{
    let mut a = make();
    let n_shards = a.n_shards();
    let n_killable = (0..n_shards as MachineId)
        .filter(|&m| a.killable(m))
        .count();
    if let Err(msg) = plan.validate(n_shards, n_killable, a.round_limit()) {
        panic!("invalid chaos plan: {msg}");
    }
    let mut engine: RebuildEngine<F, &[Update]> = RebuildEngine::new(make);
    let mut deferred: Vec<usize> = Vec::new();
    let mut dead: Vec<MachineId> = Vec::new();
    let mut report = ChurnReport::default();

    for bi in 0..=batches.len() {
        // Mid-flight events fire *inside* this batch's run; boundary events
        // fire here, before it.
        let mut mid: Vec<(u32, ChaosKind)> = Vec::new();
        for ev in plan.events_at(bi) {
            if let Some(r) = ev.at_round {
                mid.push((r, ev.kind));
                continue;
            }
            match ev.kind {
                ChaosKind::Kill(m) => {
                    if a.killable(m) && a.is_alive(m) {
                        a.kill(m);
                        dead.push(m);
                        report.event(bi, format!("kill {m}"), &UpdateMetrics::default(), 0);
                    } else {
                        report.skipped += 1;
                    }
                }
                ChaosKind::Revive(m) => {
                    if let Some(pos) = dead.iter().position(|&d| d == m) {
                        dead.remove(pos);
                        report.revived(bi, m, &engine.rebuild(&mut a, &mut apply, m));
                        if dead.is_empty() {
                            // Full health restored: drain the deferred
                            // backlog (it extends the replay suffix), one
                            // drain record per batch so no deferral is
                            // invisible in the report.
                            for di in deferred.drain(..) {
                                report.drained(di, bi, &apply(&mut a, &batches[di]));
                                engine.log.push(&batches[di]);
                            }
                        }
                    } else {
                        report.skipped += 1;
                    }
                }
                ChaosKind::Split(m) | ChaosKind::Merge(m) => {
                    let is_split = matches!(ev.kind, ChaosKind::Split(_));
                    // Reshapes only fire at full health: a migration must
                    // not race a dead neighbour.
                    let um = if dead.is_empty() && a.killable(m) {
                        if is_split {
                            a.split(m)
                        } else {
                            a.merge(m)
                        }
                    } else {
                        None
                    };
                    match um {
                        Some(um) => {
                            let name = if is_split { "split" } else { "merge" };
                            report.event(bi, format!("{name} {m}"), &um, 0);
                            // Checkpoint immediately: replay suffixes must
                            // never straddle a repartition.
                            engine.checkpoint(&a);
                        }
                        None => report.skipped += 1,
                    }
                }
            }
        }
        if bi == batches.len() {
            break;
        }
        if !dead.is_empty() {
            // Writes pause: the batch is deferred until full health. Reads
            // degrade: the query plane stays up over the partial cluster.
            deferred.push(bi);
            report.skipped += mid.len();
            report.outage_wave(&mut a, outage_reads);
            continue;
        }
        let kill_round = mid
            .iter()
            .filter_map(|&(r, k)| matches!(k, ChaosKind::Kill(_)).then_some(r))
            .min()
            .unwrap_or(0);
        let planned = mid.len();
        mid.retain(|&(_, kind)| match kind {
            ChaosKind::Kill(m) => a.killable(m) && a.is_alive(m),
            _ => true,
        });
        report.skipped += planned - mid.len();
        // Reads degrade while the victims rebuild: one wave per abort.
        let mut waves: Vec<(usize, usize)> = Vec::new();
        let (bm, aborts) = engine.run_epoch(&mut a, &mut apply, &batches[bi], &mid, |a| {
            waves.push(report.outage_wave(a, outage_reads))
        });
        for (abort, (reads_answered, degraded_answers)) in aborts.into_iter().zip(waves) {
            // The aborted attempt's metrics are *not* merged into the
            // workload — its cost is recorded in the mid-flight trajectory.
            report.retries += 1;
            report.aborted_rounds += abort.aborted.rounds;
            let (mut recovery_rounds, mut recovery_words, mut replay_updates) = (0, 0, 0);
            for (&m, rebuild) in abort.victims.iter().zip(&abort.rebuilds) {
                report.revived(bi, m, rebuild);
                recovery_rounds += rebuild.0.rounds;
                recovery_words += rebuild.0.total_words;
                replay_updates += rebuild.1.updates;
            }
            report.mid_flight.push(MidFlightRecovery {
                at_batch: bi,
                kill_round,
                victims: abort.victims,
                attempt: abort.attempt,
                aborted_rounds: abort.aborted.rounds,
                lost_words: abort.aborted.lost_words,
                lost_messages: abort.aborted.lost_messages,
                backoff_rounds: abort.backoff_rounds,
                recovery_rounds,
                recovery_words,
                replay_updates,
                reads_answered,
                degraded_answers,
                latency_rounds: abort
                    .aborted
                    .rounds
                    .saturating_sub(kill_round.saturating_sub(1) as usize)
                    + abort.backoff_rounds
                    + recovery_rounds,
            });
        }
        report.workload.merge(&bm);
        report.batches += 1;
        engine.log.push(&batches[bi]);
        if checkpoint_every > 0 && engine.log.len() >= checkpoint_every {
            engine.checkpoint(&a);
        }
    }
    // A well-formed plan revives everything; recover stragglers anyway so
    // the final state always covers the whole stream.
    while let Some(m) = dead.pop() {
        report.revived(batches.len(), m, &engine.rebuild(&mut a, &mut apply, m));
    }
    for di in deferred.drain(..) {
        report.drained(di, batches.len(), &apply(&mut a, &batches[di]));
    }
    report.updates = report.workload.updates;
    report.final_digest = a.state_digest();
    report
}

/// Convenience apply-closure for unweighted [`DynamicGraphAlgorithm`]s.
pub fn apply_unweighted<A: DynamicGraphAlgorithm<Update = Update>>(
    a: &mut A,
    batch: &[Update],
) -> BatchMetrics {
    a.apply_batch(batch)
}
