//! The synchronous round executor.
//!
//! A [`Cluster`] owns the machines and the in-flight messages. Driving an
//! update means injecting external envelopes and running rounds until no
//! messages remain in flight; the executor meters every round.
//!
//! # Hot-path design
//!
//! Routing a round is a single stable sort of the pending envelope buffer
//! into `(to, from, injection order)` order — linear-time counting sorts,
//! or an in-place insertion sort when the round carries a handful of
//! messages, so a sparse round costs nothing per machine — after which
//! every active machine's inbox is one contiguous slice — no per-round
//! hash maps, no per-receiver vectors, no per-group comparison sort. All
//! scratch (the pending/delivered double buffer, the counting-sort
//! histogram and scatter target, the group index, per-worker inbox/outbox
//! buffers) is owned by the cluster and reused across rounds, updates and
//! batches, so a steady-state round performs **zero heap allocation** for
//! routing (verified by an allocation-counting test). See
//! `docs/ARCHITECTURE.md` ("Executor internals") for the full lifecycle
//! and the determinism argument.

use crate::chaos::ChaosKind;
use crate::machine::{Envelope, Machine, Payload as _};
use crate::metrics::{BatchMetrics, UpdateMetrics, Violation};
use crate::parallel::{worker_task, Group, StepEnv, WorkerScratch};
use crate::pool::WorkerPool;
use crate::MachineId;

/// Which machine-stepping backend drives a round. Both are bit-identical in
/// observable behaviour (machine states and metrics); they differ only in
/// wall-clock cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Step every active machine on the calling thread.
    #[default]
    Serial,
    /// Persistent worker pool: threads are created once per cluster and
    /// reused across all rounds, updates and batches.
    WorkerPool,
}

/// Rounds a quiescence run may take before the executor stops it with a
/// [`Violation::RoundLimit`] (the quiescence failure guard). Every protocol
/// here quiesces in far fewer; the legal in-round chaos offsets are
/// `1..=ROUND_LIMIT`.
pub const ROUND_LIMIT: usize = 10_000;

/// Executor tuning knobs, orthogonal to the DMPC model parameters. Drivers
/// accept these so benches can select a backend or trim metering overhead
/// without touching the algorithm's model configuration. The default is the
/// fully metered serial profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOptions {
    /// The stepping backend.
    pub backend: Backend,
    /// Worker count for the pool backend (0 = available parallelism).
    pub threads: usize,
    /// Record per-`(src,dst)` flows (the Section 8 entropy metric). Costs a
    /// hash-map update per delivered message, so timing-focused runs switch
    /// it off via [`ExecOptions::lean`].
    pub track_flows: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            backend: Backend::Serial,
            threads: 0,
            track_flows: true,
        }
    }
}

impl ExecOptions {
    /// Serial stepping with flow tracking off. The fastest profile for long
    /// bench streams that never look at entropy.
    pub fn lean() -> Self {
        ExecOptions {
            track_flows: false,
            ..Default::default()
        }
    }
}

/// Cluster configuration: the DMPC model parameters plus the executor
/// profile that runs them.
#[derive(Clone, Debug, Default)]
pub struct ClusterConfig {
    /// Machine memory / per-round send & receive cap `S`, in words.
    /// `None` disables capacity metering entirely (an explicitly unlimited
    /// cluster — no cap arithmetic happens, so nothing can wrap).
    pub capacity_words: Option<usize>,
    /// Backend and metering detail (bit-identical model counts across
    /// every choice).
    pub exec: ExecOptions,
}

impl ClusterConfig {
    /// A config enforcing machine capacity `s` words.
    pub fn with_capacity(s: usize) -> Self {
        ClusterConfig {
            capacity_words: Some(s),
            ..Default::default()
        }
    }

    /// This config under the executor profile `exec`.
    pub fn with_exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }
}

/// A set of machines plus in-flight messages and the executor's reusable
/// scratch state (see the module docs for the buffer lifecycle).
pub struct Cluster<M: Machine> {
    machines: Vec<M>,
    cfg: ClusterConfig,
    /// The quiescence cap: [`ROUND_LIMIT`] outside tests.
    round_limit: usize,
    /// Messages queued for delivery at the start of the next round.
    pending: Vec<Envelope<M::Msg>>,
    /// Double buffer: swapped with `pending` each round, then sorted so
    /// every inbox is a contiguous run.
    delivered: Vec<Envelope<M::Msg>>,
    /// Counting-sort scatter target (swapped with `delivered`).
    sort_aux: Vec<Envelope<M::Msg>>,
    /// Counting-sort histogram / offset table.
    counts: Vec<usize>,
    /// Active machines this round, each with its run in `delivered`.
    groups: Vec<Group>,
    /// Per-machine epoch stamps for the distinct-machines-touched counter:
    /// `touch_stamp[m] == update_epoch` iff machine `m` was already counted
    /// for the current update. Epoch bumping makes the buffer reusable
    /// across updates without clearing (zero-alloc steady state).
    touch_stamp: Vec<u64>,
    /// Current update's epoch (bumped by every `run_update`).
    update_epoch: u64,
    /// Ids of the machines stamped in the current epoch, in first-step
    /// order: `touched.len()` is the run's `machines_touched`. Allocated
    /// once at machine-count capacity, cleared (never shrunk) per run.
    touched: Vec<MachineId>,
    /// Liveness flags for the chaos plane (`true` = accepting messages).
    alive: Vec<bool>,
    /// Count of dead machines — the steady-state fast path is one integer
    /// compare per round, so an idle chaos plane stays allocation-free.
    dead_count: usize,
    /// In-round chaos events armed for the *next* quiescence run, as
    /// `(round, kind)` pairs; fired at the start of the matching round and
    /// cleared when the run ends (epoch fencing — armed events never leak
    /// into a later epoch). Empty in steady state: the idle check is one
    /// `is_empty` branch per round.
    armed: Vec<(u32, ChaosKind)>,
    /// Per-machine epoch stamps marking *mid-flight* kills:
    /// `lost_stamp[m] == update_epoch` iff machine `m` was killed inside
    /// the current run, so messages dropped at its door are quarantined as
    /// [`Violation::LostInFlight`] (exactly accounted) rather than flagged
    /// as [`Violation::DeadMachine`] protocol bugs.
    lost_stamp: Vec<u64>,
    /// Per-worker reusable buffers (index 0 doubles as the serial lane).
    workers: Vec<WorkerScratch<M::Msg>>,
    /// Persistent threads (only for [`Backend::WorkerPool`]).
    pool: Option<WorkerPool>,
    /// Resolved worker count (1 for the serial backend).
    threads: usize,
}

impl<M: Machine> Cluster<M> {
    /// Creates a cluster over the given machine programs. For
    /// [`Backend::WorkerPool`] the worker threads are spawned here, once,
    /// and reused for every subsequent round.
    pub fn new(machines: Vec<M>, cfg: ClusterConfig) -> Self {
        let threads = match cfg.exec.backend {
            Backend::Serial => 1,
            Backend::WorkerPool => {
                if cfg.exec.threads == 0 {
                    std::thread::available_parallelism()
                        .map(|p| p.get())
                        .unwrap_or(1)
                } else {
                    cfg.exec.threads
                }
            }
        };
        let pool = (threads > 1).then(|| WorkerPool::new(threads));
        let mut workers = Vec::new();
        workers.resize_with(threads.max(1), WorkerScratch::default);
        let touch_stamp = vec![0; machines.len()];
        let touched = Vec::with_capacity(machines.len());
        let lost_stamp = vec![0; machines.len()];
        let alive = vec![true; machines.len()];
        Cluster {
            machines,
            cfg,
            round_limit: ROUND_LIMIT,
            pending: Vec::new(),
            delivered: Vec::new(),
            sort_aux: Vec::new(),
            counts: Vec::new(),
            groups: Vec::new(),
            touch_stamp,
            update_epoch: 0,
            touched,
            alive,
            dead_count: 0,
            armed: Vec::new(),
            lost_stamp,
            workers,
            pool,
            threads,
        }
    }

    /// Number of machines.
    pub fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// The configured capacity `S` (`None` = unlimited).
    pub fn capacity_words(&self) -> Option<usize> {
        self.cfg.capacity_words
    }

    /// Immutable access to a machine's state (for result extraction — *not*
    /// part of the model; algorithms must not use this to cheat rounds).
    pub fn machine(&self, id: MachineId) -> &M {
        &self.machines[id as usize]
    }

    /// Mutable access for out-of-band initialization (bulk loading during
    /// preprocessing; metered separately by callers).
    pub fn machine_mut(&mut self, id: MachineId) -> &mut M {
        &mut self.machines[id as usize]
    }

    /// Iterate over all machines.
    pub fn machines(&self) -> impl Iterator<Item = &M> {
        self.machines.iter()
    }

    /// The distinct machines stepped by the most recent quiescence run, in
    /// first-step order (`touched().len()` equals that run's
    /// `machines_touched`). A machine program only runs inside a round, so
    /// between runs these are the only machines whose state can differ from
    /// what it was before the run — drivers sweep this set, not `0..P`.
    pub fn touched(&self) -> &[MachineId] {
        &self.touched
    }

    /// Calls `f` on every machine of [`Cluster::touched`], mutably.
    pub fn for_each_touched_mut(&mut self, mut f: impl FnMut(&mut M)) {
        for &m in &self.touched {
            f(&mut self.machines[m as usize]);
        }
    }

    /// Fail-stop machine `m` (chaos plane): until [`Cluster::revive`], every
    /// message addressed to it is dropped and recorded as
    /// [`Violation::DeadMachine`]. The machine's program state is untouched
    /// here — drivers wipe and later restore it.
    pub fn kill(&mut self, m: MachineId) {
        if std::mem::replace(&mut self.alive[m as usize], false) {
            self.dead_count += 1;
        }
    }

    /// Marks machine `m` as accepting messages again. Must precede the
    /// recovery handoff that rebuilds its state.
    pub fn revive(&mut self, m: MachineId) {
        if !std::mem::replace(&mut self.alive[m as usize], true) {
            self.dead_count -= 1;
        }
    }

    /// True if machine `m` currently accepts messages.
    pub fn is_alive(&self, m: MachineId) -> bool {
        self.alive[m as usize]
    }

    /// True when no machine is killed.
    pub fn all_alive(&self) -> bool {
        self.dead_count == 0
    }

    /// The current update epoch: bumped at the start of every quiescence
    /// run, so each [`Cluster::run_update`]/[`Cluster::run_batch`] call is
    /// fenced by a distinct epoch. Harnesses stamp frontier snapshots and
    /// abort records with this value.
    pub fn epoch(&self) -> u64 {
        self.update_epoch
    }

    /// The quiescence cap (the legal range of in-round chaos offsets is
    /// `1..=round_limit()`).
    pub fn round_limit(&self) -> usize {
        self.round_limit
    }

    /// Test hook: overrides the quiescence cap ([`ROUND_LIMIT`]), so a test
    /// can stop a run at a chosen round.
    #[doc(hidden)]
    pub fn set_round_limit(&mut self, limit: usize) {
        self.round_limit = limit;
    }

    /// Arms a mid-flight chaos event: `kind` fires at the *start* of round
    /// `at_round` (1-based) of the next quiescence run. A killed machine is
    /// fail-stopped before it processes that round's inbox — its previous
    /// round's sends still deliver, and everything addressed to it from
    /// `at_round` on is quarantined as [`Violation::LostInFlight`] with
    /// exact word counts. Armed events that never fire (the run quiesces
    /// first) are discarded when the run ends: arming is per-epoch, never
    /// carried across runs.
    ///
    /// Only kills and revives can fire mid-round; reshapes need a
    /// quiescent cluster (validated up front by
    /// [`crate::ChaosPlan::validate`], enforced here for hand-armed
    /// events).
    pub fn arm_in_round(&mut self, at_round: u32, kind: ChaosKind) {
        assert!(
            matches!(kind, ChaosKind::Kill(_) | ChaosKind::Revive(_)),
            "only Kill/Revive can fire mid-round, got {kind:?}"
        );
        self.armed.push((at_round, kind));
    }

    /// Queues an external message (the arriving update) for delivery in the
    /// first round of the next `run_update` call.
    pub fn inject(&mut self, to: MachineId, msg: M::Msg) {
        self.pending.push(Envelope {
            from: Envelope::<M::Msg>::EXTERNAL,
            to,
            msg,
        });
    }

    /// Runs rounds until quiescence (no messages in flight) and returns the
    /// update's metrics. A run cut short — stopped at the round limit, or a
    /// machine killed or a message dropped at a dead machine's door inside
    /// it — ends with [`Machine::abandon_run`] on every machine it stepped.
    pub fn run_update(&mut self) -> UpdateMetrics {
        let mut metrics = UpdateMetrics::default();
        let mut round: u32 = 0;
        let mut cut_short = false;
        self.update_epoch += 1;
        self.touched.clear();
        while !self.pending.is_empty() {
            if metrics.rounds >= self.round_limit {
                metrics.violations.push(Violation::RoundLimit {
                    limit: self.round_limit,
                });
                self.pending.clear();
                cut_short = true;
                break;
            }
            round += 1;
            cut_short |= self.step_round(round, &mut metrics);
            metrics.rounds += 1;
        }
        // Epoch fence: armed mid-flight events are scoped to this run.
        // Events that never fired (the run quiesced before their round)
        // are discarded, not deferred — a later epoch starts clean.
        if !self.armed.is_empty() {
            self.armed.clear();
        }
        // Machine state changes only inside a round, so what a cut-short
        // run strands sits on the machines it stepped, and nowhere else.
        if cut_short {
            self.for_each_touched_mut(M::abandon_run);
        }
        metrics
    }

    /// Queues many external messages at once; they are all delivered in the
    /// first round of the next run (the batch seeds round 0 together).
    pub fn inject_batch<I>(&mut self, injections: I)
    where
        I: IntoIterator<Item = (MachineId, M::Msg)>,
    {
        for (to, msg) in injections {
            self.inject(to, msg);
        }
    }

    /// Batch entry point: seeds every injection in round 0, drives the whole
    /// batch to quiescence as *one* metered run, and reports the combined
    /// cost amortized over `updates` logical updates — rounds, machines and
    /// communication under the combined load, capacity violations included.
    pub fn run_batch<I>(&mut self, injections: I, updates: usize) -> BatchMetrics
    where
        I: IntoIterator<Item = (MachineId, M::Msg)>,
    {
        self.inject_batch(injections);
        let m = self.run_update();
        BatchMetrics::from_run(updates, &m)
    }

    /// Sum of every machine's resident memory, in words — the wall-clock
    /// benchmarks' peak-RSS proxy (sampled between runs, not metered).
    pub fn resident_words(&self) -> usize {
        self.machines.iter().map(|m| m.memory_words()).sum()
    }

    /// Executes one synchronous round: sorts pending messages into
    /// contiguous per-receiver runs, steps each receiver once, collects the
    /// new outboxes — all on reused scratch buffers — and folds the round's
    /// cost into `update`. Returns true when the round killed a machine or
    /// dropped a message at a dead machine's door, which cuts the run short.
    fn step_round(&mut self, round: u32, update: &mut UpdateMetrics) -> bool {
        let mut lost = false;
        // `delivered` was left empty (with capacity) by the previous round;
        // after the swap it holds this round's messages and `pending` is the
        // empty buffer that will collect the next round's.
        std::mem::swap(&mut self.pending, &mut self.delivered);
        // Fire armed mid-flight chaos events scheduled for this round. A
        // kill lands *before* the inbox drop below, so the victim never
        // processes this round — fail-stop semantics: its previous round's
        // sends deliver, its queued inbox quarantines.
        if !self.armed.is_empty() {
            let mut i = 0;
            while i < self.armed.len() {
                if self.armed[i].0 == round {
                    let (_, kind) = self.armed.swap_remove(i);
                    match kind {
                        ChaosKind::Kill(m) => {
                            self.kill(m);
                            self.lost_stamp[m as usize] = self.update_epoch;
                            lost = true;
                        }
                        ChaosKind::Revive(m) => self.revive(m),
                        _ => unreachable!("arm_in_round rejects reshapes"),
                    }
                } else {
                    i += 1;
                }
            }
        }
        // Messages to killed machines are dropped before routing, one
        // recorded violation each: `LostInFlight` (with exact word counts)
        // when the machine died mid-flight this epoch, `DeadMachine` (a
        // protocol bug) when it was already dead at the epoch's start.
        // `mem::take` sidesteps the closure's borrow of `delivered` without
        // allocating (the buffers go back after).
        if self.dead_count > 0 {
            let epoch = self.update_epoch;
            let before = self.delivered.len();
            let alive = std::mem::take(&mut self.alive);
            let lost_stamp = std::mem::take(&mut self.lost_stamp);
            self.delivered.retain(|e| {
                let ok = alive[e.to as usize];
                if !ok {
                    if lost_stamp[e.to as usize] == epoch {
                        let external = e.from == Envelope::<M::Msg>::EXTERNAL;
                        let words = e.msg.size_words();
                        if !external {
                            update.lost_words += words;
                            update.lost_messages += 1;
                        }
                        update.violations.push(Violation::LostInFlight {
                            machine: e.to,
                            round,
                            words,
                            external,
                        });
                    } else {
                        update.violations.push(Violation::DeadMachine {
                            machine: e.to,
                            round,
                        });
                    }
                }
                ok
            });
            self.alive = alive;
            self.lost_stamp = lost_stamp;
            lost |= self.delivered.len() < before;
        }
        self.sort_delivered();

        // Walk the (to, from)-sorted runs: build the group index and meter
        // receive volumes in one pass.
        let (mut words, mut messages) = (0usize, 0usize);
        self.groups.clear();
        let cap = self.cfg.capacity_words;
        let mut i = 0usize;
        while i < self.delivered.len() {
            let to = self.delivered[i].to;
            let start = i;
            let mut recv = 0usize;
            while i < self.delivered.len() && self.delivered[i].to == to {
                let env = &self.delivered[i];
                // External injections are not machine-to-machine traffic.
                if env.from != Envelope::<M::Msg>::EXTERNAL {
                    let w = env.msg.size_words();
                    words += w;
                    messages += 1;
                    recv += w;
                    if self.cfg.exec.track_flows {
                        *update.flows.entry((env.from, to)).or_default() += w as u64;
                    }
                }
                i += 1;
            }
            if let Some(cap) = cap {
                if recv > cap {
                    update.violations.push(Violation::RecvCap {
                        machine: to,
                        words: recv,
                        cap,
                        round,
                    });
                }
            }
            if self.touch_stamp[to as usize] != self.update_epoch {
                self.touch_stamp[to as usize] = self.update_epoch;
                self.touched.push(to);
                update.machines_touched += 1;
            }
            self.groups.push(Group {
                machine: to,
                start,
                len: i - start,
            });
        }
        update.max_active_machines = update.max_active_machines.max(self.groups.len());
        update.max_words_per_round = update.max_words_per_round.max(words);
        update.total_words += words;
        update.total_messages += messages;

        // Step the active machines over contiguous group chunks.
        let used = self.threads.min(self.groups.len()).max(1);
        let env = StepEnv {
            machines: self.machines.as_mut_ptr(),
            n_machines: self.machines.len(),
            workers: self.workers.as_mut_ptr(),
            delivered: self.delivered.as_ptr(),
            groups: &self.groups,
            chunk: self.groups.len().div_ceil(used),
            round,
        };
        // Release ownership of the delivered envelopes: each group slot is
        // moved out exactly once by the worker that owns the group (see
        // `worker_task`'s safety contract). A mid-step panic leaks the
        // not-yet-read remainder, which is safe.
        unsafe { self.delivered.set_len(0) };
        if used == 1 {
            // Fast lane for serial stepping (also covers 1-thread pools).
            unsafe { worker_task(&env, 0) };
        } else {
            let pool = self.pool.as_mut().expect("pool exists when threads > 1");
            pool.execute(used, &|t| unsafe { worker_task(&env, t) });
        }

        // Merge per-worker outputs in worker order (= ascending machine
        // order), meter send volumes, and queue the next round.
        for t in 0..used {
            let w = &mut self.workers[t];
            for &(machine, sent) in &w.sent {
                update.total_words_sent += sent;
                if let Some(cap) = cap {
                    if sent > cap {
                        update.violations.push(Violation::SendCap {
                            machine,
                            words: sent,
                            cap,
                            round,
                        });
                    }
                }
            }
            self.pending.append(&mut w.out);
        }

        // Memory accounting for the machines that acted this round.
        if let Some(cap) = cap {
            for g in &self.groups {
                let words = self.machines[g.machine as usize].memory_words();
                if words > cap {
                    update.violations.push(Violation::Memory {
                        machine: g.machine,
                        words,
                        cap,
                        round,
                    });
                }
            }
        }
        lost
    }

    /// Sorts `delivered` into `(to, from, injection order)` order — the
    /// documented inbox order — allocation-free in steady state, by one of
    /// two stable paths chosen from the round's message count alone:
    ///
    /// * **Sparse round** (at most [`SPARSE_ROUND_MAX`] messages): an
    ///   in-place insertion sort on `(to, from)`, O(messages²) with no term
    ///   in the machine count. [`Envelope::EXTERNAL`] is `MachineId::MAX`,
    ///   so external injections already sort after every machine sender.
    /// * **Dense round**: stable counting sorts on reused scratch,
    ///   O(messages + machines). By construction `delivered` is almost
    ///   always already `from`-sorted (outputs are merged in ascending
    ///   machine order, injections are all external), so the `from` pass is
    ///   skipped after an O(n) check and a round costs a single scatter
    ///   pass by `to`.
    ///
    /// Stability is what makes either correct: ties on `(to, from)` must
    /// keep injection order, which an unstable comparison sort on
    /// `(to, from)` would not.
    fn sort_delivered(&mut self) {
        if self.delivered.len() <= SPARSE_ROUND_MAX {
            insertion_sort_by_route(&mut self.delivered);
            return;
        }
        let n = self.machines.len();
        let from_bucket = |e: &Envelope<M::Msg>| {
            if e.from == Envelope::<M::Msg>::EXTERNAL {
                n
            } else {
                e.from as usize
            }
        };
        let from_sorted = self
            .delivered
            .windows(2)
            .all(|w| from_bucket(&w[0]) <= from_bucket(&w[1]));
        if !from_sorted {
            counting_sort_by(
                &mut self.delivered,
                &mut self.sort_aux,
                &mut self.counts,
                n + 1,
                from_bucket,
            );
            std::mem::swap(&mut self.delivered, &mut self.sort_aux);
        }
        counting_sort_by(
            &mut self.delivered,
            &mut self.sort_aux,
            &mut self.counts,
            n,
            |e| e.to as usize,
        );
        std::mem::swap(&mut self.delivered, &mut self.sort_aux);
    }
}

/// Largest round, in messages, that [`Cluster::sort_delivered`] orders in
/// place. The counting sort pays for its histogram whatever the round
/// carries — the benchmark's `mpc.round_floor_ns` probe, one token in a
/// 512-machine ring, spent ~190 ns of every round there — while the
/// insertion sort pays per message and per inversion. Timed on 144-byte
/// envelopes (connectivity's) with random receivers, the insertion sort is
/// ahead up to 16 messages at every machine count tried (130 vs 360 ns at
/// 12 messages and 230 vs 410 ns at 16 on 512 machines; 210 vs 220 ns at 16
/// on 8 machines) and behind from 20 on small clusters, so 16 never loses.
const SPARSE_ROUND_MAX: usize = 16;

/// Stable in-place insertion sort by `(to, from)`: finds each element's
/// slot by comparing keys only, then moves it there with one rotation.
fn insertion_sort_by_route<Msg>(v: &mut [Envelope<Msg>]) {
    for i in 1..v.len() {
        let key = (v[i].to, v[i].from);
        let mut j = i;
        while j > 0 && (v[j - 1].to, v[j - 1].from) > key {
            j -= 1;
        }
        if j < i {
            v[j..=i].rotate_right(1);
        }
    }
}

/// Stable counting sort: moves every element of `src` into `dst` ordered by
/// `key` (which must return values `< n_buckets`), preserving input order
/// within a bucket. `counts` is the reused histogram/offset scratch; `dst`
/// is cleared and refilled without shrinking its capacity.
fn counting_sort_by<Msg>(
    src: &mut Vec<Envelope<Msg>>,
    dst: &mut Vec<Envelope<Msg>>,
    counts: &mut Vec<usize>,
    n_buckets: usize,
    key: impl Fn(&Envelope<Msg>) -> usize,
) {
    let len = src.len();
    counts.clear();
    counts.resize(n_buckets, 0);
    for e in src.iter() {
        counts[key(e)] += 1;
    }
    // Histogram -> bucket start offsets.
    let mut acc = 0usize;
    for c in counts.iter_mut() {
        let bucket = *c;
        *c = acc;
        acc += bucket;
    }
    dst.clear();
    dst.reserve(len);
    // SAFETY: counting-sort offsets form a permutation of 0..len, so every
    // element of `src` is moved into a unique slot of `dst` exactly once.
    // `src.set_len(0)` happens before the moves so nothing can double-drop;
    // `key` is pure field access on already-counted elements and in-bounds
    // by the histogram pass, so the loop cannot unwind mid-way.
    unsafe {
        src.set_len(0);
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        for i in 0..len {
            let e = std::ptr::read(sp.add(i));
            let b = key(&e);
            let slot = counts[b];
            counts[b] += 1;
            std::ptr::write(dp.add(slot), e);
        }
        dst.set_len(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Outbox, RoundCtx};

    /// Injects a single message and drives it to quiescence.
    fn run_single_update<M: Machine>(
        cluster: &mut Cluster<M>,
        to: MachineId,
        msg: M::Msg,
    ) -> UpdateMetrics {
        cluster.inject(to, msg);
        cluster.run_update()
    }

    impl<M: Machine> Cluster<M> {
        /// Number of armed mid-flight events not yet fired this run.
        fn armed_len(&self) -> usize {
            self.armed.len()
        }
    }

    /// Relays a countdown token to the next machine until it hits zero,
    /// counting the runs it was told to abandon.
    struct Relay {
        id: MachineId,
        seen: u64,
        abandoned: u32,
    }

    impl Machine for Relay {
        type Msg = u64;

        fn on_messages(
            &mut self,
            ctx: &RoundCtx,
            inbox: &mut Vec<Envelope<u64>>,
            out: &mut Outbox<u64>,
        ) {
            for env in inbox.drain(..) {
                self.seen += 1;
                if env.msg > 0 {
                    let next = (self.id + 1) % ctx.n_machines as MachineId;
                    out.send(next, env.msg - 1);
                }
            }
        }

        fn memory_words(&self) -> usize {
            2
        }

        fn abandon_run(&mut self) {
            self.abandoned += 1;
        }
    }

    fn relay_cluster(n: usize, cfg: ClusterConfig) -> Cluster<Relay> {
        let machines = (0..n as MachineId)
            .map(|id| Relay {
                id,
                seen: 0,
                abandoned: 0,
            })
            .collect();
        Cluster::new(machines, cfg)
    }

    #[test]
    fn token_ring_rounds_counted() {
        let mut c = relay_cluster(4, ClusterConfig::default());
        let m = run_single_update(&mut c, 0, 5);
        // Round 1 delivers the injection, rounds 2..6 relay 4,3,2,1,0.
        assert_eq!(m.rounds, 6);
        assert_eq!(m.max_active_machines, 1);
        // The token visits 0,1,2,3,0,1: four distinct machines in total.
        assert_eq!(m.machines_touched, 4);
        // Injection itself is free; five relayed messages of one word each.
        assert_eq!(m.total_words, 5);
        assert!(m.clean());
    }

    #[test]
    fn batch_injection_shares_rounds() {
        // Two tokens run in the same quiescence run: rounds are the max of
        // the two chains, not the sum, and the cost is amortized over k=2.
        let mut c = relay_cluster(4, ClusterConfig::default());
        let b = c.run_batch([(0, 5u64), (1, 3u64)], 2);
        assert_eq!(b.updates, 2);
        assert_eq!(b.rounds, 6); // max(6, 4), not 6 + 4
        assert_eq!(b.total_words, 8); // 5 + 3 relayed words
        assert!((b.amortized_rounds() - 3.0).abs() < 1e-9);
        assert!(b.clean());

        // The looped equivalent pays the rounds serially.
        let mut c2 = relay_cluster(4, ClusterConfig::default());
        let mut looped = BatchMetrics::default();
        looped.absorb_update(&run_single_update(&mut c2, 0, 5));
        looped.absorb_update(&run_single_update(&mut c2, 1, 3));
        assert_eq!(looped.rounds, 10);
        assert!(looped.amortized_rounds() > b.amortized_rounds());
    }

    #[test]
    fn dead_machines_drop_messages_with_violations() {
        let mut c = relay_cluster(4, ClusterConfig::default());
        c.kill(2);
        assert!(!c.is_alive(2) && !c.all_alive());
        // The token dies at machine 2's door: 0 -> 1 -> (2 dropped); the
        // dropping round still runs (and meters empty).
        let m = run_single_update(&mut c, 0, 5);
        assert_eq!(m.rounds, 3);
        assert_eq!(
            m.violations,
            vec![Violation::DeadMachine {
                machine: 2,
                round: 3
            }]
        );
        assert_eq!(c.machine(2).seen, 0);
        // Revived, the same token crosses the whole ring again.
        c.revive(2);
        assert!(c.all_alive());
        let m = run_single_update(&mut c, 0, 5);
        assert!(m.clean());
        assert_eq!(m.rounds, 6);
        assert!(c.machine(2).seen > 0);
    }

    #[test]
    fn mid_round_kill_quarantines_with_exact_accounting() {
        use crate::chaos::ChaosKind;
        let mut c = relay_cluster(4, ClusterConfig::default());
        // Token 0 -> 1 -> 2 -> ...: machine 2 dies at the start of round 3,
        // exactly when 1's relay to it is queued for delivery.
        c.arm_in_round(3, ChaosKind::Kill(2));
        let m = run_single_update(&mut c, 0, 5);
        assert_eq!(m.rounds, 3);
        assert_eq!(
            m.violations,
            vec![Violation::LostInFlight {
                machine: 2,
                round: 3,
                words: 1,
                external: false,
            }]
        );
        // Flow conservation: sent == delivered + lost, word for word.
        // Sends: 0->1 (round 1), 1->2 (round 2). Delivered m2m: 0->1 only.
        assert_eq!(m.total_words_sent, 2);
        assert_eq!(m.total_words, 1);
        assert_eq!(m.lost_words, 1);
        assert_eq!(m.lost_messages, 1);
        assert_eq!(m.total_words_sent, m.total_words + m.lost_words);
        // The victim never processed a round after its death.
        assert_eq!(c.machine(2).seen, 0);
        assert!(!c.is_alive(2));
    }

    #[test]
    fn late_sends_to_mid_round_victim_stay_lost_not_dead() {
        use crate::chaos::ChaosKind;
        // Broadcast ring: every machine relays to the next, so the victim
        // keeps being addressed for several rounds after its death — all of
        // it must quarantine as LostInFlight (accounted), never DeadMachine.
        let mut c = relay_cluster(3, ClusterConfig::default());
        c.arm_in_round(2, ChaosKind::Kill(1));
        let m = run_single_update(&mut c, 0, 7);
        assert!(m.violations.iter().all(|v| matches!(
            v,
            Violation::LostInFlight {
                external: false,
                ..
            }
        )));
        assert!(!m.violations.is_empty());
        assert_eq!(m.total_words_sent, m.total_words + m.lost_words);
    }

    #[test]
    fn lost_external_injection_is_flagged_and_excluded_from_flow() {
        use crate::chaos::ChaosKind;
        let mut c = relay_cluster(3, ClusterConfig::default());
        c.arm_in_round(1, ChaosKind::Kill(0));
        let m = run_single_update(&mut c, 0, 4);
        assert_eq!(m.rounds, 1);
        assert_eq!(
            m.violations,
            vec![Violation::LostInFlight {
                machine: 0,
                round: 1,
                words: 1,
                external: true,
            }]
        );
        // External injections are free in the model: nothing sent, nothing
        // lost from the machine-to-machine flow map.
        assert_eq!(m.total_words_sent, 0);
        assert_eq!(m.lost_words, 0);
        assert_eq!(m.lost_messages, 0);
    }

    #[test]
    fn mid_round_revive_restores_delivery_within_the_run() {
        use crate::chaos::ChaosKind;
        let mut c = relay_cluster(4, ClusterConfig::default());
        // Machine 2 blinks: dead for rounds 1-2, back at round 3 — before
        // any message is addressed to it, so the run stays clean.
        c.arm_in_round(1, ChaosKind::Kill(2));
        c.arm_in_round(3, ChaosKind::Revive(2));
        let m = run_single_update(&mut c, 0, 5);
        assert!(m.clean());
        assert_eq!(m.rounds, 6);
        assert!(c.all_alive());
        assert!(c.machine(2).seen > 0);
    }

    #[test]
    fn unfired_armed_events_are_fenced_to_their_epoch() {
        use crate::chaos::ChaosKind;
        let mut c = relay_cluster(4, ClusterConfig::default());
        let fenced_epoch = c.epoch() + 1;
        // Armed far past quiescence: the run ends before it fires, and the
        // fence drops it — the next epoch must run clean and fully alive.
        c.arm_in_round(500, ChaosKind::Kill(1));
        assert_eq!(c.armed_len(), 1);
        let m = run_single_update(&mut c, 0, 5);
        assert!(m.clean());
        assert_eq!(c.epoch(), fenced_epoch);
        assert_eq!(c.armed_len(), 0);
        assert!(c.all_alive());
        let m2 = run_single_update(&mut c, 0, 5);
        assert!(m2.clean());
        assert!(c.all_alive());
    }

    #[test]
    fn epoch_and_round_limit_accessors() {
        let mut c = relay_cluster(2, ClusterConfig::default());
        assert_eq!(c.round_limit(), 10_000);
        let e0 = c.epoch();
        c.run_update(); // quiescent runs still open (and fence) an epoch
        run_single_update(&mut c, 0, 1);
        assert_eq!(c.epoch(), e0 + 2);
    }

    #[test]
    fn quiescent_cluster_runs_zero_rounds() {
        let mut c = relay_cluster(3, ClusterConfig::default());
        let m = c.run_update();
        assert_eq!(m.rounds, 0);
        assert!(m.clean());
    }

    #[test]
    fn round_limit_violation_recorded() {
        struct Forever;
        impl Machine for Forever {
            type Msg = u64;
            fn on_messages(
                &mut self,
                ctx: &RoundCtx,
                inbox: &mut Vec<Envelope<u64>>,
                out: &mut Outbox<u64>,
            ) {
                inbox.clear();
                out.send(ctx.self_id, 1);
            }
        }
        let mut c = Cluster::new(vec![Forever], ClusterConfig::default());
        c.set_round_limit(10);
        let m = run_single_update(&mut c, 0, 1);
        assert!(matches!(
            m.violations[0],
            Violation::RoundLimit { limit: 10 }
        ));
    }

    #[test]
    fn send_cap_violation_recorded() {
        struct Blaster;
        impl Machine for Blaster {
            type Msg = Vec<u64>;
            fn on_messages(
                &mut self,
                _c: &RoundCtx,
                inbox: &mut Vec<Envelope<Vec<u64>>>,
                out: &mut Outbox<Vec<u64>>,
            ) {
                if inbox[0].from == Envelope::<Vec<u64>>::EXTERNAL {
                    out.send(1, vec![0; 100]);
                }
            }
        }
        let mut c = Cluster::new(vec![Blaster, Blaster], ClusterConfig::with_capacity(10));
        let m = run_single_update(&mut c, 0, vec![1]);
        assert!(m.violations.iter().any(|v| matches!(
            v,
            Violation::SendCap {
                machine: 0,
                words: 100,
                ..
            }
        )));
        assert!(m.violations.iter().any(|v| matches!(
            v,
            Violation::RecvCap {
                machine: 1,
                words: 100,
                ..
            }
        )));
    }

    #[test]
    fn flows_tracked_when_enabled() {
        let mut c = relay_cluster(3, ClusterConfig::default());
        let m = run_single_update(&mut c, 0, 3);
        // 0->1, 1->2, 2->0 one word each.
        assert_eq!(m.flows.len(), 3);
        assert!((m.flow_entropy_bits() - (3f64).log2()).abs() < 1e-9);
    }

    #[test]
    fn broadcast_activates_all_machines() {
        struct Hub;
        impl Machine for Hub {
            type Msg = u64;
            fn on_messages(
                &mut self,
                ctx: &RoundCtx,
                inbox: &mut Vec<Envelope<u64>>,
                out: &mut Outbox<u64>,
            ) {
                for env in inbox.drain(..) {
                    if env.from == Envelope::<u64>::EXTERNAL {
                        out.broadcast(ctx.n_machines, 0);
                    }
                }
            }
        }
        let mut c = Cluster::new((0..8).map(|_| Hub).collect(), ClusterConfig::default());
        let m = run_single_update(&mut c, 0, 9);
        assert_eq!(m.rounds, 2);
        assert_eq!(m.max_active_machines, 7); // round 2: everyone but the hub
        assert_eq!(m.machines_touched, 8); // hub in round 1, the rest in round 2
        assert_eq!(m.total_words, 7);
    }

    #[test]
    fn machines_touched_resets_between_updates() {
        // Two successive updates each touch their own distinct set; the
        // epoch-stamped scratch must not leak counts across updates.
        let mut c = relay_cluster(6, ClusterConfig::default());
        let a = run_single_update(&mut c, 0, 2); // visits 0,1,2
        let b = run_single_update(&mut c, 0, 1); // visits 0,1 again
        assert_eq!(a.machines_touched, 3);
        assert_eq!(b.machines_touched, 2);
        assert!(a.machines_touched <= a.rounds * a.max_active_machines.max(1));
    }

    /// The metering bit is metering only: with flows off the run costs the
    /// same in the model and leaves the same states.
    #[test]
    fn track_flows_off_keeps_aggregates_identical() {
        let run = |exec: ExecOptions| {
            let mut c = relay_cluster(4, ClusterConfig::default().with_exec(exec));
            let m = run_single_update(&mut c, 0, 9);
            let seen: Vec<u64> = c.machines().map(|m| m.seen).collect();
            (m, seen)
        };
        let (on, on_seen) = run(ExecOptions::default());
        let (off, off_seen) = run(ExecOptions::lean());
        assert_eq!(on.flows.values().sum::<u64>(), on.total_words as u64);
        assert!(off.flows.is_empty());
        assert_eq!(on.rounds, off.rounds);
        assert_eq!(on.total_words, off.total_words);
        assert_eq!(on.total_messages, off.total_messages);
        assert_eq!(on.max_words_per_round, off.max_words_per_round);
        assert_eq!(on.max_active_machines, off.max_active_machines);
        assert_eq!(on.machines_touched, off.machines_touched);
        assert_eq!(on.violations, off.violations);
        assert_eq!(on_seen, off_seen);
    }

    /// `abandon_run` fires once on exactly the machines a cut-short run
    /// stepped — after a round-limit stop, an in-round kill (whether or not
    /// it cost a message) and a drop at a dead machine's door — and never
    /// after a run that completed, capacity violations or not.
    #[test]
    fn abandon_run_fires_on_the_touched_set_of_a_cut_short_run_only() {
        use crate::chaos::ChaosKind;
        // Per-machine hook counts since the last call, zeroed.
        fn take(c: &mut Cluster<Relay>) -> Vec<u32> {
            (0..c.n_machines() as MachineId)
                .map(|m| std::mem::take(&mut c.machine_mut(m).abandoned))
                .collect()
        }
        let mut c = relay_cluster(6, ClusterConfig::with_capacity(0));
        // Completed runs: a token round the ring, a batch, a quiescent run;
        // every delivery breaks the zero capacity.
        assert!(!run_single_update(&mut c, 0, 9).clean());
        c.run_batch([(0, 3), (2, 4)], 2);
        c.run_update();
        assert_eq!(take(&mut c), [0; 6]);

        // Round limit: rounds 1..=3 step machines 0, 1, 2.
        c.set_round_limit(3);
        let m = run_single_update(&mut c, 0, 9);
        assert!(m.violations.contains(&Violation::RoundLimit { limit: 3 }));
        assert_eq!(c.touched(), [0, 1, 2]);
        assert_eq!(take(&mut c), [1, 1, 1, 0, 0, 0]);
        c.set_round_limit(ROUND_LIMIT);

        // In-round kill that quarantines the token at machine 2's door.
        c.arm_in_round(3, ChaosKind::Kill(2));
        assert_eq!(run_single_update(&mut c, 0, 9).lost_messages, 1);
        assert_eq!(c.touched(), [0, 1]);
        assert_eq!(take(&mut c), [1, 1, 0, 0, 0, 0]);
        c.revive(2);

        // In-round kill of a machine the run never addresses.
        c.arm_in_round(2, ChaosKind::Kill(5));
        assert_eq!(run_single_update(&mut c, 0, 2).lost_messages, 0);
        assert_eq!(c.touched(), [0, 1, 2]);
        assert_eq!(take(&mut c), [1, 1, 1, 0, 0, 0]);

        // A later run messaging the machine still dead: dropped at the door.
        run_single_update(&mut c, 3, 4);
        assert_eq!(c.touched(), [3, 4]);
        assert_eq!(take(&mut c), [0, 0, 0, 1, 1, 0]);

        // Revived, the same run completes and nothing fires.
        c.revive(5);
        run_single_update(&mut c, 3, 4);
        assert_eq!(take(&mut c), [0; 6]);
    }

    /// `with_exec` stores the profile it is given, whole — for the three
    /// shapes the benchmark builds.
    #[test]
    fn with_exec_is_a_field_store() {
        let pool = ExecOptions {
            backend: Backend::WorkerPool,
            threads: 2,
            ..ExecOptions::lean()
        };
        for exec in [ExecOptions::default(), ExecOptions::lean(), pool] {
            assert_eq!(ClusterConfig::default().with_exec(exec).exec, exec);
        }
    }

    #[test]
    fn worker_pool_backend_matches_serial() {
        let pool_cfg = ClusterConfig::default().with_exec(ExecOptions {
            backend: Backend::WorkerPool,
            threads: 3,
            ..Default::default()
        });
        let mut serial = relay_cluster(6, ClusterConfig::default());
        let mut pooled = relay_cluster(6, pool_cfg);
        for hops in [7u64, 3, 11, 0, 5] {
            let a = run_single_update(&mut serial, (hops % 6) as MachineId, hops);
            let b = run_single_update(&mut pooled, (hops % 6) as MachineId, hops);
            assert_eq!(a, b);
        }
        let a: Vec<u64> = serial.machines().map(|m| m.seen).collect();
        let b: Vec<u64> = pooled.machines().map(|m| m.seen).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn both_sort_paths_agree_with_a_stable_reference_sort() {
        // Straight at the sorter, because `inject` cannot build a round
        // that mixes external and machine senders or arrives out of `from`
        // order: sizes around the sparse/dense bound, few receivers (many
        // `(to, from)` ties), payload = arrival index so stability shows.
        let ext = Envelope::<u64>::EXTERNAL;
        let mut state = 7u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let b = SPARSE_ROUND_MAX;
        for len in [0, 1, 2, b - 1, b, b + 1, 3 * b] {
            for senders in ["machines", "mixed", "external"] {
                let round: Vec<Envelope<u64>> = (0..len as u64)
                    .map(|i| Envelope {
                        from: match senders {
                            "external" => ext,
                            "mixed" if next(2) == 0 => ext,
                            _ => next(5) as MachineId,
                        },
                        to: next(3) as MachineId,
                        msg: i,
                    })
                    .collect();
                let mut expect = round.clone();
                expect.sort_by_key(|e| (e.to, e.from)); // std's stable sort
                let mut c = relay_cluster(5, ClusterConfig::default());
                c.delivered = round;
                c.sort_delivered();
                assert_eq!(c.delivered, expect, "len={len} senders={senders}");
            }
        }
    }

    #[test]
    fn inbox_is_to_from_sorted_with_external_last() {
        // Machine 2 fans out to 0 in the same round as an external
        // injection to 0; machine 0 must see machine senders ascending,
        // then the external message.
        struct Log {
            id: MachineId,
            log: Vec<MachineId>,
        }
        impl Machine for Log {
            type Msg = u64;
            fn on_messages(
                &mut self,
                _ctx: &RoundCtx,
                inbox: &mut Vec<Envelope<u64>>,
                out: &mut Outbox<u64>,
            ) {
                for env in inbox.drain(..) {
                    self.log.push(env.from);
                    if env.msg == 1 {
                        // Round 1: everyone messages machine 0.
                        out.send(0, 0);
                        if self.id == 3 {
                            out.send(0, 0); // second message from the same sender
                        }
                    }
                }
            }
        }
        let mut c = Cluster::new(
            (0..4)
                .map(|id| Log {
                    id,
                    log: Vec::new(),
                })
                .collect(),
            ClusterConfig::default(),
        );
        for m in 0..4 {
            c.inject(m, 1);
        }
        c.run_update();
        c.inject(0, 9); // quiesced; next run starts fresh
        c.run_update();
        let ext = Envelope::<u64>::EXTERNAL;
        // Round 1: external injection. Round 2: senders 0..3 ascending with
        // 3's two messages adjacent. Then the second update's injection.
        assert_eq!(c.machine(0).log, vec![ext, 0, 1, 2, 3, 3, ext]);
    }
}
