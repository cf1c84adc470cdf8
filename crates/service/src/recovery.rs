//! Checkpoint + replay recovery: the rebuild engine behind the window
//! executor ([`crate::ServiceLoop`]), its only caller.
//!
//! # The recovery model
//!
//! Machines fail by *fail-stop*: a killed machine loses its state and
//! silently drops inbound messages (the simulator records each drop as a
//! `DeadMachine` violation, so a correct loop shows zero). Recovery is
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
//!    exactly the same write runs before the kill and none since (write runs
//!    arriving during an outage are parked).
//! 3. The replica's shard-`m` snapshot is staged at a live peer and shipped
//!    to the revived machine through the metered message plane in
//!    capacity-budgeted chunks, so recovery cost appears in the same
//!    rounds/words/machines-touched units as updates.
//!
//! A kill firing *inside* a run goes through the same rebuild, wrapped in
//! the engine's fenced epoch ([`RebuildEngine::run_epoch`]) — the one
//! abort-and-retry loop.

use crate::service::ServiceAlgorithm;
use dmpc_core::ElasticAlgorithm;
use dmpc_graph::Update;
use dmpc_mpc::{BatchMetrics, ChaosKind, MachineId, UpdateMetrics};

/// Re-executions a fenced epoch may spend before the engine gives up
/// (panics). Each retry runs clean — the armed events fired in the first
/// attempt — so one normally suffices; the budget guards against
/// pathological plans.
pub const RETRY_BUDGET: usize = 3;

/// Base of the simulated exponential backoff charged per aborted attempt
/// (`base << attempt` rounds). Recorded as latency, not executed.
pub const BACKOFF_BASE_ROUNDS: usize = 1;

/// One aborted attempt of a fenced epoch ([`RebuildEngine::run_epoch`]) and
/// the recovery that followed it.
#[derive(Clone, Debug)]
pub struct EpochAbort {
    /// Window whose write run was aborted.
    pub at_window: usize,
    /// Round offset (1-based) at which the first armed kill fired.
    pub kill_round: u32,
    /// Machines that died inside the attempt.
    pub victims: Vec<MachineId>,
    /// Which attempt this was (1-based; 1 = the first execution).
    pub attempt: usize,
    /// The aborted attempt's metrics, with the words and messages it lost
    /// in flight — latency, never workload.
    pub aborted: BatchMetrics,
    /// Per victim, in `victims` order: the metered revive handoff and the
    /// replica's off-cluster replay.
    pub rebuilds: Vec<(UpdateMetrics, BatchMetrics)>,
    /// Simulated backoff before the retry (exponential in the attempt).
    pub backoff_rounds: usize,
}

impl EpochAbort {
    /// Metered rounds of the victim rebuilds (checkpoint + replay handoffs).
    pub fn recovery_rounds(&self) -> usize {
        self.rebuilds.iter().map(|(h, _)| h.rounds).sum()
    }

    /// Metered words of the victim rebuilds.
    pub fn recovery_words(&self) -> usize {
        self.rebuilds.iter().map(|(h, _)| h.total_words).sum()
    }

    /// End-to-end recovery latency in rounds: from the kill firing to the
    /// cluster standing at the restored frontier, ready to re-execute
    /// (aborted remainder + backoff + metered rebuild).
    pub fn latency_rounds(&self) -> usize {
        let before_kill = self.kill_round.saturating_sub(1) as usize;
        self.aborted.rounds.saturating_sub(before_kill)
            + self.backoff_rounds
            + self.recovery_rounds()
    }
}

/// The one owner of what a rebuild needs: the factory, the last
/// full-cluster checkpoint, and the write runs completed since.
pub struct RebuildEngine<F> {
    make: F,
    /// `None` until the first [`RebuildEngine::checkpoint`]: a replica then
    /// starts from the factory state and replays everything logged.
    checkpoint: Option<Vec<String>>,
    /// Write runs completed since the checkpoint (or since the start), in
    /// order — the replay suffix of the next rebuild. The caller pushes
    /// every completed run, and may drop the log once no kill can read it.
    pub log: Vec<Vec<Update>>,
}

impl<A, F> RebuildEngine<F>
where
    A: ServiceAlgorithm + ElasticAlgorithm,
    F: Fn() -> A,
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
    pub fn rebuild(&self, a: &mut A, m: MachineId) -> (UpdateMetrics, BatchMetrics) {
        let mut replica = (self.make)();
        if let Some(checkpoint) = &self.checkpoint {
            replica.restore(checkpoint);
        }
        let mut replay = BatchMetrics::default();
        for run in &self.log {
            replay.merge(&replica.apply_window(run));
        }
        let snap = replica.snapshot_machine(m);
        (a.revive(m, &snap), replay)
    }

    /// Applies `run`, a write run of window `at_window`, under an epoch
    /// fence. `armed` are the mid-flight events (round offset, kind) to fire
    /// inside it; kills must target killable, live machines. With none armed
    /// this is one `apply_window` and nothing else.
    ///
    /// Otherwise the pre-run frontier is snapshotted and the events armed
    /// for the first attempt only (they fire, or are fenced to that epoch,
    /// so every retry runs clean). An attempt that loses a machine or a
    /// message is aborted: the victims' state is wiped, survivors roll back
    /// to the frontier locally (unmetered: the frontier snapshot is
    /// machine-resident), and each victim is rebuilt — the log excludes this
    /// run, so replicas stand exactly at the frontier. Determinism makes the
    /// retry bit-identical to a never-failed run.
    ///
    /// Returns the clean attempt's metrics and one record per abort; the
    /// caller logs the run. Panics once [`RETRY_BUDGET`] is exhausted.
    pub fn run_epoch(
        &self,
        a: &mut A,
        at_window: usize,
        run: &[Update],
        armed: &[(u32, ChaosKind)],
    ) -> (BatchMetrics, Vec<EpochAbort>) {
        let frontier = (!armed.is_empty()).then(|| a.checkpoint());
        for &(at_round, kind) in armed {
            a.arm_in_round(at_round, kind);
        }
        let kill_round = armed
            .iter()
            .filter_map(|&(r, k)| matches!(k, ChaosKind::Kill(_)).then_some(r))
            .min()
            .unwrap_or(0);
        let mut aborts = Vec::new();
        loop {
            let bm = a.apply_window(run);
            let Some(frontier) = &frontier else {
                return (bm, aborts);
            };
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
            let rebuilds = victims.iter().map(|&m| self.rebuild(a, m)).collect();
            aborts.push(EpochAbort {
                at_window,
                kill_round,
                victims,
                attempt: aborts.len() + 1,
                aborted: bm,
                rebuilds,
                backoff_rounds: BACKOFF_BASE_ROUNDS << aborts.len(),
            });
        }
    }
}
