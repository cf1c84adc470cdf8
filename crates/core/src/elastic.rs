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
//! 1. The harness keeps a **checkpoint** — per-machine plain-text snapshots
//!    taken every `checkpoint_every` batches (only at full-cluster health) —
//!    plus the **op suffix**: the logical batches applied since.
//! 2. To revive machine `m`, the harness rebuilds its state on an
//!    off-cluster *replica*: a fresh instance restored from the checkpoint
//!    with the suffix replayed (algorithms without snapshot support replay
//!    the full log instead). Determinism makes the replica's shard `m`
//!    bit-identical to what the dead machine should hold, because the live
//!    cluster processed exactly the same ops before the kill and none since
//!    (batches arriving during an outage are deferred).
//! 3. The replica's shard-`m` snapshot is staged at a live peer and shipped
//!    to the revived machine through the metered message plane in
//!    capacity-budgeted chunks, so recovery cost appears in the same
//!    rounds/words/machines-touched units as updates.
//!
//! Split/merge shard migrations go through [`ElasticAlgorithm::split`] /
//! [`ElasticAlgorithm::merge`]; the harness checkpoints right after each
//! migration so replay suffixes never straddle a repartition.

use crate::algorithm::DynamicGraphAlgorithm;
use dmpc_graph::{Query, QueryAnswer, Update};
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

    /// True when full-cluster checkpoints and per-machine restores are
    /// supported. When false the harness recovers by full-log replay and
    /// never calls [`ElasticAlgorithm::checkpoint`] /
    /// [`ElasticAlgorithm::restore`].
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
    fn restore(&mut self, snaps: &[String]);

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

/// One epoch abort + recovery caused by a mid-flight kill: the full retry
/// trajectory the tentpole asks [`ChurnReport`] to carry.
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
    /// How many of those reads came back [`QueryAnswer::Degraded`].
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

/// Tuning for [`run_chaos_stream_with`].
#[derive(Clone, Copy, Debug)]
pub struct ChaosOptions<'a> {
    /// Take a full-cluster checkpoint every this many applied batches
    /// (0 disables periodic checkpoints; recovery then replays from the
    /// last migration checkpoint or the start).
    pub checkpoint_every: usize,
    /// How many times a mid-flight-aborted batch may be re-executed before
    /// the harness gives up (panics). Each retry runs clean — the armed
    /// events fired in the first attempt — so one retry normally suffices;
    /// the budget guards against pathological plans.
    pub retry_budget: usize,
    /// Base of the simulated exponential backoff recorded per retry
    /// (`base << attempt` rounds). Recorded as latency, not executed.
    pub backoff_base_rounds: usize,
    /// Reads issued against the cluster while any machine is down — during
    /// mid-flight rebuilds and boundary deferral windows. Answers touching
    /// a dead owner come back [`QueryAnswer::Degraded`]; the rest stay
    /// exact ("writes pause, reads degrade").
    pub outage_reads: &'a [Query],
}

impl Default for ChaosOptions<'static> {
    fn default() -> Self {
        ChaosOptions {
            checkpoint_every: 8,
            retry_budget: 3,
            backoff_base_rounds: 2,
            outage_reads: &[],
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
    /// How many outage reads came back [`QueryAnswer::Degraded`].
    pub degraded_answers: usize,
    /// Metered cost of the outage read waves.
    pub outage_reads: QueryMetrics,
    /// Digest of the final cluster state.
    pub final_digest: u64,
}

/// Drives `batches` through an algorithm while applying `plan`'s chaos
/// events between batches, recovering every failure via checkpoint+replay
/// (or full-log replay when snapshots are unsupported).
///
/// `make` builds a fresh instance (used for the recovery replicas — it must
/// be deterministic); `apply` applies one batch (the indirection lets
/// weighted algorithms map `Update`s to weighted updates). Batches arriving
/// while any machine is dead are deferred and drained right after the
/// revive that restores full health; every machine still dead after the
/// last batch is revived, so the final state covers the whole stream.
pub fn run_chaos_stream<A, F, App>(
    make: F,
    apply: App,
    batches: &[Vec<Update>],
    plan: &ChaosPlan,
    checkpoint_every: usize,
) -> ChurnReport
where
    A: ElasticAlgorithm,
    F: Fn() -> A,
    App: FnMut(&mut A, &[Update]) -> BatchMetrics,
{
    run_chaos_stream_with(
        make,
        apply,
        |_: &mut A, _: &[Query]| (Vec::new(), QueryMetrics::default()),
        batches,
        plan,
        ChaosOptions {
            checkpoint_every,
            ..Default::default()
        },
    )
}

/// The full mid-flight harness behind [`run_chaos_stream`]: boundary events
/// as before, plus **epoch-fenced abort-and-retry** for events carrying a
/// round offset and **degraded-mode reads** during outages.
///
/// For a batch with armed mid-flight events the harness takes a pre-batch
/// *frontier snapshot* (the PR 6 checkpoint codec — taken only when this
/// batch is actually targeted, so the plain path stays snapshot-free). If a
/// kill fires inside the run, the epoch is aborted: the victim's state is
/// wiped and rebuilt from checkpoint+replay exactly as at a boundary (the
/// replay suffix excludes the aborted batch, so the replica stands at the
/// frontier), the survivors roll back to the frontier locally, degraded
/// reads are served while the victim rebuilds, and the batch re-executes
/// clean. Determinism makes the retry bit-identical to a never-failed run:
/// every machine re-enters the batch at the same frontier state with the
/// same injections.
///
/// `answer` drives a read-only query wave (used for `opts.outage_reads`);
/// it must not mutate logical state. Panics if `plan` fails
/// [`ChaosPlan::validate`] or the retry budget is exhausted.
pub fn run_chaos_stream_with<A, F, App, Ans>(
    make: F,
    mut apply: App,
    mut answer: Ans,
    batches: &[Vec<Update>],
    plan: &ChaosPlan,
    opts: ChaosOptions<'_>,
) -> ChurnReport
where
    A: ElasticAlgorithm,
    F: Fn() -> A,
    App: FnMut(&mut A, &[Update]) -> BatchMetrics,
    Ans: FnMut(&mut A, &[Query]) -> (Vec<QueryAnswer>, QueryMetrics),
{
    let mut a = make();
    let n_shards = a.n_shards();
    let n_killable = (0..n_shards as MachineId)
        .filter(|&m| a.killable(m))
        .count();
    if let Err(msg) = plan.validate(n_shards, n_killable, a.round_limit()) {
        panic!("invalid chaos plan: {msg}");
    }
    let checkpoint_every = opts.checkpoint_every;
    let restorable = a.supports_restore();
    let mut ckpt: Vec<String> = if restorable {
        a.checkpoint()
    } else {
        Vec::new()
    };
    // Batch indexes applied since the checkpoint (or since the start, for
    // full-log replay) — the replay suffix of the next recovery.
    let mut suffix: Vec<usize> = Vec::new();
    let mut deferred: Vec<usize> = Vec::new();
    let mut dead: Vec<MachineId> = Vec::new();
    let mut report = ChurnReport::default();

    // Rebuilds the dead machine's state on an off-cluster replica
    // (checkpoint + suffix replay; determinism => shard m is exactly what
    // the dead machine should hold), then ships it back via the metered
    // revive handoff.
    #[allow(clippy::too_many_arguments)]
    fn revive_one<A, F, App>(
        make: &F,
        apply: &mut App,
        batches: &[Vec<Update>],
        restorable: bool,
        a: &mut A,
        m: MachineId,
        at_batch: usize,
        ckpt: &[String],
        suffix: &[usize],
        report: &mut ChurnReport,
    ) where
        A: ElasticAlgorithm,
        F: Fn() -> A,
        App: FnMut(&mut A, &[Update]) -> BatchMetrics,
    {
        let mut replica = make();
        if restorable {
            replica.restore(ckpt);
        }
        let mut replay = BatchMetrics::default();
        for &bi in suffix {
            replay.merge(&apply(&mut replica, &batches[bi]));
        }
        let snap = replica.snapshot_machine(m);
        let um = a.revive(m, &snap);
        report.applied.push(AppliedEvent {
            at_batch,
            kind: format!("revive {m}"),
            rounds: um.rounds,
            words: um.total_words,
            machines_touched: um.machines_touched,
            replay_updates: replay.updates,
        });
        report.recovery.absorb_event(&um);
        report.recovery.absorb_replay(&replay);
    }

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
                        report.applied.push(AppliedEvent {
                            at_batch: bi,
                            kind: format!("kill {m}"),
                            rounds: 0,
                            words: 0,
                            machines_touched: 0,
                            replay_updates: 0,
                        });
                        report.recovery.events += 1;
                    } else {
                        report.skipped += 1;
                    }
                }
                ChaosKind::Revive(m) => {
                    if let Some(pos) = dead.iter().position(|&d| d == m) {
                        dead.remove(pos);
                        revive_one(
                            &make,
                            &mut apply,
                            batches,
                            restorable,
                            &mut a,
                            m,
                            bi,
                            &ckpt,
                            &suffix,
                            &mut report,
                        );
                        if dead.is_empty() {
                            // Full health restored: drain the deferred
                            // backlog (it extends the replay suffix), one
                            // drain record per batch so no deferral is
                            // invisible in the report.
                            for di in deferred.drain(..) {
                                report.workload.merge(&apply(&mut a, &batches[di]));
                                report.batches += 1;
                                suffix.push(di);
                                report.drained.push(DrainRecord {
                                    batch: di,
                                    drained_at: bi,
                                    latency_batches: bi - di,
                                });
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
                            report.applied.push(AppliedEvent {
                                at_batch: bi,
                                kind: format!("{} {m}", if is_split { "split" } else { "merge" }),
                                rounds: um.rounds,
                                words: um.total_words,
                                machines_touched: um.machines_touched,
                                replay_updates: 0,
                            });
                            report.recovery.absorb_event(&um);
                            // Checkpoint immediately: replay suffixes must
                            // never straddle a repartition.
                            if restorable {
                                ckpt = a.checkpoint();
                                suffix.clear();
                            }
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
            if !opts.outage_reads.is_empty() {
                let (answers, qm) = answer(&mut a, opts.outage_reads);
                report.reads_answered += answers.len();
                report.degraded_answers += answers.iter().filter(|an| an.is_degraded()).count();
                report.outage_reads.merge(&qm);
            }
            continue;
        }
        if mid.is_empty() {
            // Plain path: no frontier snapshot, no arming — zero chaos-plane
            // overhead when the batch is not targeted.
            report.workload.merge(&apply(&mut a, &batches[bi]));
            report.batches += 1;
            suffix.push(bi);
            if restorable && checkpoint_every > 0 && suffix.len() >= checkpoint_every {
                ckpt = a.checkpoint();
                suffix.clear();
            }
            continue;
        }
        // Epoch-fenced path: snapshot the pre-batch frontier, arm the events,
        // and re-execute on abort until the batch lands clean.
        let frontier = a.checkpoint();
        let kill_round = mid
            .iter()
            .filter_map(|&(r, k)| matches!(k, ChaosKind::Kill(_)).then_some(r))
            .min()
            .unwrap_or(0);
        let mut attempt = 0usize;
        loop {
            if attempt == 0 {
                // Arm only the first execution: the events fired (and were
                // fenced to that epoch), so every retry runs clean.
                for &(r, kind) in &mid {
                    match kind {
                        ChaosKind::Kill(m) if !(a.killable(m) && a.is_alive(m)) => {
                            report.skipped += 1;
                        }
                        _ => a.arm_in_round(r, kind),
                    }
                }
            }
            let bm = apply(&mut a, &batches[bi]);
            let victims: Vec<MachineId> = (0..n_shards as MachineId)
                .filter(|&m| !a.is_alive(m))
                .collect();
            if victims.is_empty() && bm.lost_words == 0 && bm.lost_messages == 0 {
                report.workload.merge(&bm);
                report.batches += 1;
                suffix.push(bi);
                if restorable && checkpoint_every > 0 && suffix.len() >= checkpoint_every {
                    ckpt = a.checkpoint();
                    suffix.clear();
                }
                break;
            }
            // Abort the epoch. The aborted attempt's metrics are *not*
            // merged into the workload — its cost is recorded in the
            // mid-flight trajectory instead.
            assert!(
                attempt < opts.retry_budget,
                "mid-flight retry budget ({}) exhausted at batch {bi}",
                opts.retry_budget
            );
            report.retries += 1;
            report.aborted_rounds += bm.rounds;
            for &m in &victims {
                a.kill(m);
            }
            // Survivors roll back to the frontier locally (unmetered: the
            // frontier snapshot is machine-resident).
            for m in 0..n_shards as MachineId {
                if a.is_alive(m) {
                    a.restore_machine(m, &frontier[m as usize]);
                }
            }
            // Reads degrade while the victims rebuild.
            let (reads_answered, degraded_answers) = if opts.outage_reads.is_empty() {
                (0, 0)
            } else {
                let (answers, qm) = answer(&mut a, opts.outage_reads);
                let d = answers.iter().filter(|an| an.is_degraded()).count();
                report.reads_answered += answers.len();
                report.degraded_answers += d;
                report.outage_reads.merge(&qm);
                (answers.len(), d)
            };
            // Rebuild each victim via checkpoint + suffix replay. The suffix
            // excludes the aborted batch, so the replica stands exactly at
            // the frontier the survivors rolled back to.
            let rec0 = (
                report.recovery.rounds,
                report.recovery.total_words,
                report.recovery.replay_updates,
            );
            for &m in &victims {
                revive_one(
                    &make,
                    &mut apply,
                    batches,
                    restorable,
                    &mut a,
                    m,
                    bi,
                    &ckpt,
                    &suffix,
                    &mut report,
                );
            }
            let recovery_rounds = report.recovery.rounds - rec0.0;
            let recovery_words = report.recovery.total_words - rec0.1;
            let replay_updates = report.recovery.replay_updates - rec0.2;
            let backoff_rounds = opts.backoff_base_rounds << attempt.min(16);
            report.mid_flight.push(MidFlightRecovery {
                at_batch: bi,
                kill_round,
                victims,
                attempt: attempt + 1,
                aborted_rounds: bm.rounds,
                lost_words: bm.lost_words,
                lost_messages: bm.lost_messages,
                backoff_rounds,
                recovery_rounds,
                recovery_words,
                replay_updates,
                reads_answered,
                degraded_answers,
                latency_rounds: bm
                    .rounds
                    .saturating_sub(kill_round.saturating_sub(1) as usize)
                    + backoff_rounds
                    + recovery_rounds,
            });
            attempt += 1;
        }
    }
    // A well-formed plan revives everything; recover stragglers anyway so
    // the final state always covers the whole stream.
    while let Some(m) = dead.pop() {
        revive_one(
            &make,
            &mut apply,
            batches,
            restorable,
            &mut a,
            m,
            batches.len(),
            &ckpt,
            &suffix,
            &mut report,
        );
    }
    for di in deferred.drain(..) {
        report.workload.merge(&apply(&mut a, &batches[di]));
        report.batches += 1;
        suffix.push(di);
        report.drained.push(DrainRecord {
            batch: di,
            drained_at: batches.len(),
            latency_batches: batches.len() - di,
        });
    }
    report.updates = report.workload.updates;
    report.final_digest = a.state_digest();
    report
}

/// The failure-free counterpart of [`run_chaos_stream`]: applies every
/// batch in order and digests the final state (the bit-identical baseline).
pub fn run_plain_stream<A, F, App>(make: F, mut apply: App, batches: &[Vec<Update>]) -> ChurnReport
where
    A: ElasticAlgorithm,
    F: Fn() -> A,
    App: FnMut(&mut A, &[Update]) -> BatchMetrics,
{
    let mut a = make();
    let mut report = ChurnReport::default();
    for b in batches {
        report.workload.merge(&apply(&mut a, b));
        report.batches += 1;
    }
    report.updates = report.workload.updates;
    report.final_digest = a.state_digest();
    report
}

/// Convenience apply-closure for unweighted [`DynamicGraphAlgorithm`]s.
pub fn apply_unweighted<A: DynamicGraphAlgorithm>(a: &mut A, batch: &[Update]) -> BatchMetrics {
    a.apply_batch(batch)
}
