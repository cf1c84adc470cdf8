//! The service loop: one window executor ([`ServiceLoop`]) with two fronts
//! over it — clocked ingestion and windowed admission
//! ([`run_service_chaos`]) and replay of a recorded window log
//! ([`replay_windows`]).
//!
//! # Determinism contract
//!
//! The simulated clock decides *where* windows close, never *how* a closed
//! window executes: a window runs as the maximal same-kind runs of its ops
//! (write bursts through `apply_batch`, read bursts through
//! `answer_queries`), and both fronts feed the same executor. So an online
//! run's digests, answers, and audits are bit-identical to
//! [`replay_windows`] over its [`WindowRecord`] log — and this holds with
//! mid-flight kills armed, because a failed write epoch aborts and retries
//! until it completes cleanly ([`RebuildEngine::run_epoch`]: survivors roll
//! back to the pre-run frontier, victims rebuild from an off-cluster
//! replica). A boundary outage keeps the digest half of that contract and
//! gives up the answer half: while a machine is down write runs park and
//! reads are served by the partial cluster, so those answers are stale or
//! `Degraded` rather than replay-equal (see [`ServiceLoop`]).

use crate::buffer::{AdmissionBuffer, BackpressurePolicy, Offer, ShedRecord};
use crate::recovery::{EpochAbort, RebuildEngine};
use crate::window::{CloseReason, WindowPolicy, WindowRecord};
use dmpc_core::{DynamicGraphAlgorithm, ElasticAlgorithm};
use dmpc_graph::arrivals::Arrival;
use dmpc_graph::streams::with_weights;
use dmpc_graph::{Op, Query, QueryAnswer, Update, Weight, WeightedUpdate};
use dmpc_mpc::{
    BatchMetrics, ChaosKind, ChaosPlan, LatencyStats, MachineId, QueryMetrics, RecoveryMetrics,
    SimClock, UpdateMetrics,
};
use std::time::Instant;

/// The uniform surface the service loop drives: apply a window of writes,
/// answer a wave of reads, expose the admission budget. Unweighted
/// algorithms join through [`UnweightedService`], weighted ones (MST)
/// through [`WeightedEdgeService`], so one loop serves both interfaces.
pub trait ServiceAlgorithm {
    /// Short name used in reports.
    fn service_name(&self) -> &'static str;

    /// Applies one window of writes as a single unit of work.
    fn apply_window(&mut self, updates: &[Update]) -> BatchMetrics;

    /// Answers one wave of reads, answers index-aligned with `queries`.
    fn answer_window(&mut self, queries: &[Query]) -> (Vec<QueryAnswer>, QueryMetrics);

    /// Largest admissible window under the send-cap budget (see
    /// `DynamicGraphAlgorithm::admission_budget`).
    fn admission_budget(&self) -> Option<usize>;
}

/// Adapter: any unweighted dynamic algorithm serves as-is.
#[derive(Debug)]
pub struct UnweightedService<A> {
    /// The wrapped algorithm.
    pub inner: A,
}

impl<A> UnweightedService<A> {
    /// Wraps `inner` for service.
    pub fn new(inner: A) -> Self {
        UnweightedService { inner }
    }
}

impl<A: DynamicGraphAlgorithm<Update = Update>> ServiceAlgorithm for UnweightedService<A> {
    fn service_name(&self) -> &'static str {
        self.inner.name()
    }

    fn apply_window(&mut self, updates: &[Update]) -> BatchMetrics {
        self.inner.apply_batch(updates)
    }

    fn answer_window(&mut self, queries: &[Query]) -> (Vec<QueryAnswer>, QueryMetrics) {
        self.inner.answer_queries(queries)
    }

    fn admission_budget(&self) -> Option<usize> {
        self.inner.admission_budget()
    }
}

/// Adapter: a weighted algorithm (MST) serves an unweighted op stream by
/// deriving each inserted edge's weight from the edge itself
/// (`streams::edge_weight` under a fixed seed), so the online run and any
/// offline replay of the same windows see identical weighted updates.
#[derive(Debug)]
pub struct WeightedEdgeService<A> {
    /// The wrapped weighted algorithm.
    pub inner: A,
    max_w: Weight,
    weight_seed: u64,
}

impl<A> WeightedEdgeService<A> {
    /// Wraps `inner`; insert weights are drawn in `1..=max_w` keyed by
    /// `(edge, weight_seed)`.
    pub fn new(inner: A, max_w: Weight, weight_seed: u64) -> Self {
        WeightedEdgeService {
            inner,
            max_w,
            weight_seed,
        }
    }
}

impl<A: DynamicGraphAlgorithm<Update = WeightedUpdate>> ServiceAlgorithm
    for WeightedEdgeService<A>
{
    fn service_name(&self) -> &'static str {
        self.inner.name()
    }

    fn apply_window(&mut self, updates: &[Update]) -> BatchMetrics {
        let weighted = with_weights(updates, self.max_w, self.weight_seed);
        self.inner.apply_batch(&weighted)
    }

    fn answer_window(&mut self, queries: &[Query]) -> (Vec<QueryAnswer>, QueryMetrics) {
        self.inner.answer_queries(queries)
    }

    fn admission_budget(&self) -> Option<usize> {
        self.inner.admission_budget()
    }
}

macro_rules! elastic_via_inner {
    ($ty:ident) => {
        impl<A: ElasticAlgorithm> ElasticAlgorithm for $ty<A> {
            fn n_shards(&self) -> usize {
                self.inner.n_shards()
            }
            fn killable(&self, m: MachineId) -> bool {
                self.inner.killable(m)
            }
            fn is_alive(&self, m: MachineId) -> bool {
                self.inner.is_alive(m)
            }
            fn round_limit(&self) -> usize {
                self.inner.round_limit()
            }
            fn arm_in_round(&mut self, at_round: u32, kind: ChaosKind) {
                self.inner.arm_in_round(at_round, kind)
            }
            fn restore_machine(&mut self, m: MachineId, snap: &str) {
                self.inner.restore_machine(m, snap)
            }
            fn supports_restore(&self) -> bool {
                self.inner.supports_restore()
            }
            fn snapshot_machine(&self, m: MachineId) -> String {
                self.inner.snapshot_machine(m)
            }
            fn restore(&mut self, snaps: &[String]) {
                self.inner.restore(snaps)
            }
            fn kill(&mut self, m: MachineId) {
                self.inner.kill(m)
            }
            fn revive(&mut self, m: MachineId, snap: &str) -> UpdateMetrics {
                self.inner.revive(m, snap)
            }
            fn split(&mut self, m: MachineId) -> Option<UpdateMetrics> {
                self.inner.split(m)
            }
            fn merge(&mut self, m: MachineId) -> Option<UpdateMetrics> {
                self.inner.merge(m)
            }
            fn state_digest(&self) -> u64 {
                self.inner.state_digest()
            }
        }
    };
}

elastic_via_inner!(UnweightedService);
elastic_via_inner!(WeightedEdgeService);

/// Configuration of one service run.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// When windows close.
    pub window: WindowPolicy,
    /// Admission-buffer capacity in ops (>= 1).
    pub buffer_cap: usize,
    /// What happens when the buffer fills.
    pub backpressure: BackpressurePolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            window: WindowPolicy::windowed(32, 8),
            buffer_cap: 256,
            backpressure: BackpressurePolicy::Shed,
        }
    }
}

/// Latency histograms for one op kind, in the three metered units.
#[derive(Clone, Debug, Default)]
pub struct LatencyBreakdown {
    /// Simulator rounds elapsed between enqueue and window completion
    /// (includes aborted-epoch, backoff, and recovery rounds under chaos).
    pub rounds: LatencyStats,
    /// Clock ticks between arrival and window close (queueing delay).
    pub ticks: LatencyStats,
    /// Wall-clock seconds of execution between enqueue and completion.
    pub secs: LatencyStats,
}

/// One applied chaos event with its metered cost.
#[derive(Clone, Debug)]
pub struct AppliedEvent {
    /// Window index the event fired before (or inside, for the revive that
    /// follows a mid-flight kill).
    pub at_window: usize,
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

/// One parked write run drained after full health returned — the
/// deferral-accounting record (no deferral is invisible in the report).
#[derive(Clone, Copy, Debug)]
pub struct DrainRecord {
    /// The window the write run arrived in.
    pub window: usize,
    /// Window index before which it was actually applied (the number of
    /// windows executed, for the final drain in [`ServiceLoop::finish`]).
    pub drained_at: usize,
    /// Deferral latency in windows (`drained_at - window`).
    pub latency_windows: usize,
}

/// Everything one run of the loop produced: admission accounting, the
/// window log, workload metrics, answers, per-op latency histograms and the
/// chaos trajectory.
#[derive(Clone, Debug, Default)]
pub struct ServiceReport {
    /// Ops that reached the service.
    pub arrived: usize,
    /// Ops admitted through a window (`arrived == admitted + shed.len()`).
    pub admitted: usize,
    /// Ops shed under backpressure, with arrival ticks — never silent.
    pub shed: Vec<ShedRecord>,
    /// Every closed window, in execution order (the offline-replay input).
    pub windows: Vec<WindowRecord>,
    /// Combined write-plane metrics (completed epochs only: an aborted
    /// attempt's cost lives in [`ServiceReport::aborts`]).
    pub writes: BatchMetrics,
    /// Combined read-plane metrics.
    pub reads: QueryMetrics,
    /// Answers to admitted reads, in admitted order.
    pub answers: Vec<QueryAnswer>,
    /// Write-op latency histograms.
    pub write_latency: LatencyBreakdown,
    /// Read-op latency histograms.
    pub read_latency: LatencyBreakdown,
    /// Peak ops in the bounded buffer.
    pub peak_buffered: usize,
    /// Peak ops parked in the blocked-ingress queue.
    pub peak_parked: usize,
    /// Ticks the run spanned.
    pub ticks: u64,
    /// Wall-clock seconds spent executing windows.
    pub wall_secs: f64,
    /// Chaos: events applied, in order, with costs.
    pub applied: Vec<AppliedEvent>,
    /// Chaos: events that lapsed — invalid at their boundary (split of a
    /// 1-vertex shard, revive of a live machine, kill of an unkillable one,
    /// a reshape during an outage) or mid-flight with no write run to fire
    /// in (a read-only window, or every write run parked).
    pub skipped: usize,
    /// Chaos: aborted write epochs retried.
    pub retries: usize,
    /// Chaos: rounds burned in aborted epochs (latency, not workload).
    pub aborted_rounds: usize,
    /// Chaos: one record per aborted epoch.
    pub aborts: Vec<EpochAbort>,
    /// Chaos: every parked write run with its drain position and latency.
    pub drained: Vec<DrainRecord>,
    /// Chaos: metered recovery traffic (revive handoffs, shard migrations,
    /// replica replay).
    pub recovery: RecoveryMetrics,
    /// State digest after the last window.
    pub final_digest: u64,
}

impl ServiceReport {
    /// Model violations across both planes and recovery (0 on a clean run:
    /// aborted chaos epochs are discarded, not merged).
    pub fn violations(&self) -> usize {
        self.writes.violations + self.reads.violations + self.recovery.violations
    }

    /// Completed workload rounds (writes + reads) per admitted op — the
    /// amortization the windowed policy buys over per-op admission.
    pub fn amortized_rounds_per_op(&self) -> f64 {
        if self.admitted == 0 {
            return 0.0;
        }
        (self.writes.rounds + self.reads.rounds) as f64 / self.admitted as f64
    }
}

/// One buffered op with its latency basis.
struct Pending {
    tick: u64,
    op: Op,
    rounds0: usize,
    secs0: f64,
}

/// A window's ops split into maximal same-kind runs, in admitted order.
enum OpRun {
    Writes(Vec<Update>),
    Reads(Vec<Query>),
}

fn split_runs(ops: &[Op]) -> Vec<OpRun> {
    let mut runs: Vec<OpRun> = Vec::new();
    for op in ops {
        match (op, runs.last_mut()) {
            (Op::Write(u), Some(OpRun::Writes(v))) => v.push(*u),
            (Op::Write(u), _) => runs.push(OpRun::Writes(vec![*u])),
            (Op::Read(q), Some(OpRun::Reads(v))) => v.push(*q),
            (Op::Read(q), _) => runs.push(OpRun::Reads(vec![*q])),
        }
    }
    runs
}

/// The admission front-end over [`ServiceLoop`]: arrivals queue in a bounded
/// buffer under `cfg`'s backpressure policy, windows close on size or
/// deadline (capped at the algorithm's admission budget), and every op's
/// latency is metered from enqueue to window completion. `make` builds the
/// instance and every recovery replica; `plan` is keyed by window index (see
/// [`ServiceLoop`]; the empty plan is the failure-free run). Aborted rounds
/// count toward a window's ops' *latency* but never toward workload metrics,
/// so SLOs are measured through failures while digests stay bit-identical
/// to the failure-free run.
pub fn run_service_chaos<A, F>(
    make: F,
    arrivals: &[Arrival],
    cfg: &ServiceConfig,
    plan: &ChaosPlan,
) -> ServiceReport
where
    A: ServiceAlgorithm + ElasticAlgorithm,
    F: Fn() -> A,
{
    assert!(
        arrivals.windows(2).all(|w| w[0].tick <= w[1].tick),
        "arrival ticks must be monotone (use arrivals::arrival_trace)"
    );
    let mut a = make();
    let window_cap = cfg
        .window
        .max_ops
        .min(a.admission_budget().unwrap_or(usize::MAX))
        .max(1);
    let mut lp = ServiceLoop::new(&mut a, &make, plan);
    let mut buf: AdmissionBuffer<Pending> = AdmissionBuffer::new(cfg.buffer_cap, cfg.backpressure);
    let mut clock = SimClock::new();
    let mut next = 0usize;
    loop {
        let t = clock.now();
        // 1. Enqueue this tick's arrivals under backpressure.
        while next < arrivals.len() && arrivals[next].tick == t {
            let op = arrivals[next].op;
            next += 1;
            lp.rep.arrived += 1;
            let p = Pending {
                tick: t,
                op,
                rounds0: lp.cum_rounds,
                secs0: lp.rep.wall_secs,
            };
            match buf.offer(p) {
                Offer::Admitted | Offer::Blocked => {}
                Offer::Shed(p) => lp.rep.shed.push(ShedRecord { tick: t, op: p.op }),
            }
        }
        lp.rep.peak_buffered = lp.rep.peak_buffered.max(buf.len());
        lp.rep.peak_parked = lp.rep.peak_parked.max(buf.parked_len());
        // 2. Size rule first — it wins when size and deadline fire on the
        // same tick, keeping close reasons deterministic.
        while buf.len() >= window_cap {
            let pend = buf.drain_front(window_cap);
            lp.admit(pend, CloseReason::Size, t);
            buf.refill();
        }
        // 3. Deadline rule. Never fires on an empty buffer: an idle tick
        // is a no-op — no window record, no metrics row.
        if buf
            .front()
            .is_some_and(|p| t - p.tick >= cfg.window.deadline_ticks)
        {
            let len = buf.len();
            let pend = buf.drain_front(len);
            lp.admit(pend, CloseReason::Deadline, t);
            buf.refill();
        }
        // 4. Advance: stop once the trace is consumed and drained; jump
        // idle stretches in one step.
        if next >= arrivals.len() && buf.fully_drained() {
            break;
        }
        if buf.fully_drained() {
            clock.advance(arrivals[next].tick - t);
        } else {
            clock.tick();
        }
    }
    lp.rep.ticks = clock.now();
    lp.finish()
}

/// Offline replay of a recorded window log on `alg`, a fresh instance: the
/// loop under the empty plan, so each window re-executes as the identical
/// maximal same-kind runs and digests, answers, and metrics match a
/// failure-free (or mid-flight-kills-only) online run bit-for-bit. The log
/// is read in place; the report's own `windows` stays empty.
pub fn replay_windows<A: ServiceAlgorithm + ElasticAlgorithm>(
    alg: &mut A,
    windows: &[WindowRecord],
) -> ServiceReport {
    let plan = ChaosPlan::new(0);
    let never = || -> A { unreachable!("the empty plan rebuilds nothing") };
    let mut lp = ServiceLoop::new(alg, never, &plan);
    for w in windows {
        lp.execute(&w.ops);
    }
    lp.finish()
}

/// The window executor — the one loop that turns windows of ops into
/// `apply_window`/`answer_window` calls, with `plan`'s chaos events fired on
/// the way and every failure recovered through one [`RebuildEngine`].
///
/// Feed it one window at a time ([`ServiceLoop::window`]), optionally
/// [`ServiceLoop::checkpoint`] between windows, and [`ServiceLoop::finish`]
/// for the report. A window runs as the maximal same-kind runs of its ops:
/// write runs through `apply_window`, read runs through `answer_window`.
///
/// `plan` is keyed by **window index** (`at_batch` = the index of the
/// targeted window in execution order):
///
/// * **Boundary events** fire before the window, in plan order. A kill
///   fail-stops a live, killable machine; a revive rebuilds a dead one from
///   an off-cluster replica; a split or merge migrates a shard (at full
///   health only) and checkpoints right after, so a replay suffix never
///   straddles a repartition. Anything else lapses into
///   [`ServiceReport::skipped`].
/// * **While any machine is down** write runs park instead of executing
///   ("writes pause") and drain, in order and each with a [`DrainRecord`],
///   at the revive that restores full health. Read runs are answered by the
///   partial cluster ("reads degrade"): a read whose owners include a dead
///   machine comes back [`QueryAnswer::Degraded`], and the rest do not see
///   the parked writes. So answers served during a boundary outage are
///   **not** replay-equal — only digests are.
/// * **Events carrying a round offset** arm on the window's *first* write
///   run, which executes as a fenced epoch
///   ([`RebuildEngine::run_epoch`]): an attempt that loses a machine is
///   aborted, survivors roll back, victims rebuild, and the run retries.
///   They lapse when the window executes no write run.
///
/// [`ServiceLoop::finish`] fires the events at the index one past the last
/// window, revives every machine still dead and drains the backlog, so the
/// final state always covers every window fed.
pub struct ServiceLoop<'a, A, F> {
    a: &'a mut A,
    /// Rebuilds victims from the factory, the last checkpoint and the write
    /// runs completed since. The log is kept only while something can still
    /// read it (see [`ServiceLoop::execute`]): on a failure-free run it
    /// would be a second copy of the whole workload.
    engine: RebuildEngine<F>,
    plan: &'a ChaosPlan,
    rep: ServiceReport,
    /// Machines killed at a boundary and not yet revived.
    dead: Vec<MachineId>,
    /// Write runs parked during the outage, with their window index.
    parked: Vec<(usize, Vec<Update>)>,
    /// Windows executed so far: the index of the next one.
    index: usize,
    /// Rounds elapsed so far, recovery included: the per-op latency clock.
    cum_rounds: usize,
}

impl<'a, A, F> ServiceLoop<'a, A, F>
where
    A: ServiceAlgorithm + ElasticAlgorithm,
    F: Fn() -> A,
{
    /// A loop over `a` (a fresh instance). `make` builds the recovery
    /// replicas and must deterministically reproduce `a`'s initial state.
    /// Panics if `plan` fails [`ChaosPlan::validate`] against `a`'s cluster.
    pub fn new(a: &'a mut A, make: F, plan: &'a ChaosPlan) -> Self {
        let killable = (0..a.n_shards() as MachineId)
            .filter(|&m| a.killable(m))
            .count();
        if let Err(msg) = plan.validate(a.n_shards(), killable, a.round_limit()) {
            panic!("invalid chaos plan: {msg}");
        }
        ServiceLoop {
            a,
            engine: RebuildEngine::new(make),
            plan,
            rep: ServiceReport::default(),
            dead: Vec::new(),
            parked: Vec::new(),
            index: 0,
            cum_rounds: 0,
        }
    }

    /// Executes `ops` (never empty) as the next window and records it.
    pub fn window(
        &mut self,
        ops: Vec<Op>,
        reason: CloseReason,
        opened_tick: u64,
        closed_tick: u64,
    ) {
        let index = self.index;
        self.execute(&ops);
        self.rep.windows.push(WindowRecord {
            index,
            opened_tick,
            closed_tick,
            reason,
            ops,
        });
    }

    /// Takes a full-cluster checkpoint and restarts the replay log there; a
    /// no-op while any machine is down (a checkpoint holds every machine's
    /// state or it is not one). The loop itself checkpoints only after a
    /// shard migration.
    pub fn checkpoint(&mut self) {
        if self.dead.is_empty() {
            self.engine.checkpoint(self.a);
        }
    }

    /// Ends the run: fires the events keyed one past the last window,
    /// revives the stragglers, drains the backlog and digests the state.
    pub fn finish(mut self) -> ServiceReport {
        let at = self.index;
        self.rep.skipped += self.boundary(at).len();
        while let Some(m) = self.dead.pop() {
            self.revive(at, m);
        }
        self.drain(at);
        self.rep.final_digest = self.a.state_digest();
        self.rep
    }

    /// Closes one admission window: executes it and meters its ops'
    /// end-to-end latency.
    fn admit(&mut self, pend: Vec<Pending>, reason: CloseReason, now: u64) {
        debug_assert!(!pend.is_empty(), "windows never close empty");
        let ops = pend.iter().map(|p| p.op).collect();
        self.window(ops, reason, pend[0].tick, now);
        for p in &pend {
            let lat = match p.op {
                Op::Write(_) => &mut self.rep.write_latency,
                Op::Read(_) => &mut self.rep.read_latency,
            };
            lat.rounds.record((self.cum_rounds - p.rounds0) as f64);
            lat.ticks.record((now - p.tick) as f64);
            lat.secs.record(self.rep.wall_secs - p.secs0);
        }
        self.rep.admitted += pend.len();
    }

    /// The executor proper: window `self.index`'s boundary events, then its
    /// runs in admitted order.
    fn execute(&mut self, ops: &[Op]) {
        let started = Instant::now();
        let at = self.index;
        // One epoch fence per window: the mid-flight events arm on its
        // first executed write run, and lapse if there is none.
        let mut mid = self.boundary(at);
        for run in split_runs(ops) {
            match run {
                OpRun::Writes(updates) if !self.dead.is_empty() => self.parked.push((at, updates)),
                OpRun::Writes(updates) => {
                    let armed = std::mem::take(&mut mid);
                    self.write_run(at, updates, &armed);
                }
                OpRun::Reads(queries) => {
                    let (answers, qm) = self.a.answer_window(&queries);
                    self.cum_rounds += qm.rounds;
                    self.rep.answers.extend(answers);
                    self.rep.reads.merge(&qm);
                }
            }
        }
        self.rep.skipped += mid.len();
        // The log outlives the window only while a rebuild can still read
        // it: a machine is down, or the plan holds an event in a later
        // window.
        let plan = self.plan;
        if self.dead.is_empty() && !plan.events.iter().any(|e| e.at_batch > at) {
            self.engine.log.clear();
        }
        self.index += 1;
        self.rep.wall_secs += started.elapsed().as_secs_f64();
    }

    /// Fires the boundary events keyed at window `at`, in plan order, and
    /// returns its mid-flight ones that can arm (a kill needs a killable
    /// victim).
    fn boundary(&mut self, at: usize) -> Vec<(u32, ChaosKind)> {
        let plan = self.plan;
        let mut mid = Vec::new();
        for ev in plan.events_at(at) {
            if let Some(r) = ev.at_round {
                match ev.kind {
                    ChaosKind::Kill(m) if !self.a.killable(m) => self.rep.skipped += 1,
                    kind => mid.push((r, kind)),
                }
                continue;
            }
            let fired = match ev.kind {
                ChaosKind::Kill(m) => {
                    let ok = self.a.killable(m) && self.a.is_alive(m);
                    if ok {
                        self.a.kill(m);
                        self.dead.push(m);
                        let free = UpdateMetrics::default();
                        self.event(at, format!("kill {m}"), &free, &BatchMetrics::default());
                    }
                    ok
                }
                ChaosKind::Revive(m) => match self.dead.iter().position(|&d| d == m) {
                    Some(pos) => {
                        self.dead.remove(pos);
                        self.revive(at, m);
                        if self.dead.is_empty() {
                            self.drain(at);
                        }
                        true
                    }
                    None => false,
                },
                ChaosKind::Split(m) | ChaosKind::Merge(m) => {
                    let is_split = matches!(ev.kind, ChaosKind::Split(_));
                    // Reshapes only fire at full health: a migration must
                    // not race a dead neighbour.
                    let um = match self.dead.is_empty() && self.a.killable(m) {
                        true if is_split => self.a.split(m),
                        true => self.a.merge(m),
                        false => None,
                    };
                    if let Some(um) = &um {
                        let name = if is_split { "split" } else { "merge" };
                        self.event(at, format!("{name} {m}"), um, &BatchMetrics::default());
                        // Checkpoint immediately: replay suffixes must
                        // never straddle a repartition.
                        self.engine.checkpoint(self.a);
                    }
                    um.is_some()
                }
            };
            if !fired {
                self.rep.skipped += 1;
            }
        }
        mid
    }

    /// Runs one write run of window `at` under the epoch fence and logs it.
    /// The rounds it cost end to end — the completed epoch plus, under
    /// chaos, every aborted attempt, backoff pause, and recovery handoff —
    /// are latency; workload metrics merge the clean epoch only.
    fn write_run(&mut self, at: usize, run: Vec<Update>, armed: &[(u32, ChaosKind)]) {
        let (bm, aborts) = self.engine.run_epoch(self.a, at, &run, armed);
        self.cum_rounds += bm.rounds;
        self.rep.writes.merge(&bm);
        for abort in aborts {
            self.rep.retries += 1;
            self.rep.aborted_rounds += abort.aborted.rounds;
            self.cum_rounds += abort.aborted.rounds + abort.backoff_rounds;
            for (&m, (handoff, replay)) in abort.victims.iter().zip(&abort.rebuilds) {
                self.event(at, format!("revive {m}"), handoff, replay);
            }
            self.rep.aborts.push(abort);
        }
        self.engine.log.push(run);
    }

    /// Applies the parked write runs, in order, before window `at`: full
    /// health is back. They extend the replay suffix like any other run.
    fn drain(&mut self, at: usize) {
        for (window, run) in std::mem::take(&mut self.parked) {
            self.write_run(at, run, &[]);
            self.rep.drained.push(DrainRecord {
                window,
                drained_at: at,
                latency_windows: at - window,
            });
        }
    }

    /// Rebuilds dead machine `m` before window `at`.
    fn revive(&mut self, at: usize, m: MachineId) {
        let (handoff, replay) = self.engine.rebuild(self.a, m);
        self.event(at, format!("revive {m}"), &handoff, &replay);
    }

    /// One applied event with its metered cost (none for a kill) and, behind
    /// a revive, the replica's replay.
    fn event(&mut self, at_window: usize, kind: String, um: &UpdateMetrics, replay: &BatchMetrics) {
        self.cum_rounds += um.rounds;
        self.rep.applied.push(AppliedEvent {
            at_window,
            kind,
            rounds: um.rounds,
            words: um.total_words,
            machines_touched: um.machines_touched,
            replay_updates: replay.updates,
        });
        self.rep.recovery.absorb_event(um);
        self.rep.recovery.absorb_replay(replay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpc_graph::Edge;

    /// A deterministic in-memory stub on three machines, machine 0 the
    /// unkillable one: a write run costs 3 rounds, a read wave 2; the digest
    /// folds the applied update log, which is also every machine's snapshot.
    struct StubAlg {
        log: Vec<Update>,
        budget: Option<usize>,
        dead: Vec<MachineId>,
    }

    impl StubAlg {
        fn maker(budget: Option<usize>) -> impl Fn() -> StubAlg {
            move || StubAlg {
                log: Vec::new(),
                budget,
                dead: Vec::new(),
            }
        }
    }

    impl ServiceAlgorithm for StubAlg {
        fn service_name(&self) -> &'static str {
            "stub"
        }
        fn apply_window(&mut self, updates: &[Update]) -> BatchMetrics {
            assert!(
                self.dead.is_empty(),
                "a write run executed during an outage"
            );
            self.log.extend_from_slice(updates);
            BatchMetrics {
                updates: updates.len(),
                rounds: 3,
                ..BatchMetrics::default()
            }
        }
        fn answer_window(&mut self, queries: &[Query]) -> (Vec<QueryAnswer>, QueryMetrics) {
            let answers = vec![QueryAnswer::Bool(true); queries.len()];
            let qm = QueryMetrics {
                queries: queries.len(),
                rounds: 2,
                ..QueryMetrics::default()
            };
            (answers, qm)
        }
        fn admission_budget(&self) -> Option<usize> {
            self.budget
        }
    }

    impl ElasticAlgorithm for StubAlg {
        fn n_shards(&self) -> usize {
            3
        }
        fn killable(&self, m: MachineId) -> bool {
            m != 0
        }
        fn is_alive(&self, m: MachineId) -> bool {
            !self.dead.contains(&m)
        }
        fn round_limit(&self) -> usize {
            64
        }
        /// A stub run has no rounds for an armed event to fire in: fenced
        /// to its epoch and discarded.
        fn arm_in_round(&mut self, _at_round: u32, _kind: ChaosKind) {}
        fn restore_machine(&mut self, _m: MachineId, _snap: &str) {}
        fn snapshot_machine(&self, _m: MachineId) -> String {
            format!("{:?}", self.log)
        }
        fn kill(&mut self, m: MachineId) {
            self.dead.push(m);
        }
        /// Writes park during an outage, so a replica that replayed the
        /// whole log stands exactly where the live instance does.
        fn revive(&mut self, m: MachineId, snap: &str) -> UpdateMetrics {
            assert_eq!(snap, self.snapshot_machine(m), "the replica lost writes");
            self.dead.retain(|&d| d != m);
            UpdateMetrics::default()
        }
        fn state_digest(&self) -> u64 {
            dmpc_mpc::chaos::fnv1a(self.snapshot_machine(0).as_bytes())
        }
    }

    fn write_at(tick: u64, a: u32, b: u32) -> Arrival {
        Arrival {
            tick,
            op: Op::Write(Update::Insert(Edge::new(a, b))),
        }
    }

    fn read_at(tick: u64, a: u32, b: u32) -> Arrival {
        Arrival {
            tick,
            op: Op::Read(Query::Connected(a, b)),
        }
    }

    /// The failure-free service run: the empty plan.
    fn serve(
        make: impl Fn() -> StubAlg,
        arrivals: &[Arrival],
        cfg: &ServiceConfig,
    ) -> ServiceReport {
        run_service_chaos(make, arrivals, cfg, &ChaosPlan::new(0))
    }

    fn cfg(window: WindowPolicy, buffer_cap: usize, bp: BackpressurePolicy) -> ServiceConfig {
        ServiceConfig {
            window,
            buffer_cap,
            backpressure: bp,
        }
    }

    #[test]
    fn deadline_never_fires_on_an_empty_buffer() {
        // Two lonely ops separated by a long idle stretch: the idle ticks
        // between their windows must produce no window records at all.
        let arrivals = [write_at(0, 0, 1), write_at(50, 1, 2)];
        let c = cfg(WindowPolicy::windowed(8, 2), 16, BackpressurePolicy::Shed);
        let rep = serve(StubAlg::maker(None), &arrivals, &c);
        assert_eq!(rep.windows.len(), 2, "idle ticks must not emit windows");
        assert!(rep.windows.iter().all(|w| !w.ops.is_empty()));
        assert_eq!(rep.windows[0].closed_tick, 2);
        assert_eq!(rep.windows[0].reason, CloseReason::Deadline);
        assert_eq!(rep.windows[1].closed_tick, 52);
        assert_eq!(rep.admitted, 2);
        assert_eq!(rep.shed.len(), 0);
    }

    #[test]
    fn size_beats_deadline_on_the_same_tick() {
        // One op per tick; at tick 3 the fourth op fills the window at the
        // exact moment the oldest op's 3-tick deadline expires. The size
        // rule is checked first, so the close reason is Size.
        let arrivals = [
            write_at(0, 0, 1),
            write_at(1, 1, 2),
            write_at(2, 2, 3),
            write_at(3, 3, 4),
        ];
        let c = cfg(WindowPolicy::windowed(4, 3), 16, BackpressurePolicy::Shed);
        let rep = serve(StubAlg::maker(None), &arrivals, &c);
        assert_eq!(rep.windows.len(), 1);
        assert_eq!(rep.windows[0].reason, CloseReason::Size);
        assert_eq!(rep.windows[0].ops.len(), 4);
        assert_eq!(rep.windows[0].closed_tick, 3);
    }

    #[test]
    fn shed_backpressure_records_every_drop() {
        // Five simultaneous arrivals into a 2-op buffer: two admitted,
        // three shed — each with a record, never silently.
        let arrivals: Vec<Arrival> = (0..5).map(|i| write_at(0, i, i + 1)).collect();
        let c = cfg(WindowPolicy::windowed(2, 4), 2, BackpressurePolicy::Shed);
        let rep = serve(StubAlg::maker(None), &arrivals, &c);
        assert_eq!(rep.arrived, 5);
        assert_eq!(rep.admitted, 2);
        assert_eq!(rep.shed.len(), 3);
        assert_eq!(rep.arrived, rep.admitted + rep.shed.len());
        assert!(rep.shed.iter().all(|s| s.tick == 0));
    }

    #[test]
    fn block_backpressure_parks_and_loses_nothing() {
        let arrivals: Vec<Arrival> = (0..5).map(|i| write_at(0, i, i + 1)).collect();
        let c = cfg(WindowPolicy::windowed(2, 4), 2, BackpressurePolicy::Block);
        let rep = serve(StubAlg::maker(None), &arrivals, &c);
        assert_eq!(rep.arrived, 5);
        assert_eq!(rep.admitted, 5, "blocked ops must all be admitted");
        assert_eq!(rep.shed.len(), 0);
        assert_eq!(rep.peak_parked, 3);
        let total_ops: usize = rep.windows.iter().map(|w| w.ops.len()).sum();
        assert_eq!(total_ops, 5);
    }

    #[test]
    fn per_op_policy_closes_one_op_windows() {
        let arrivals = [write_at(0, 0, 1), read_at(0, 0, 1), write_at(2, 1, 2)];
        let c = cfg(WindowPolicy::per_op(), 16, BackpressurePolicy::Shed);
        let rep = serve(StubAlg::maker(None), &arrivals, &c);
        assert_eq!(rep.windows.len(), 3);
        assert!(rep.windows.iter().all(|w| w.ops.len() == 1));
        assert!(rep.windows.iter().all(|w| w.reason == CloseReason::Size));
        assert_eq!(rep.answers, vec![QueryAnswer::Bool(true)]);
    }

    #[test]
    fn admission_budget_caps_the_window() {
        let arrivals: Vec<Arrival> = (0..6).map(|i| write_at(0, i, i + 1)).collect();
        let c = cfg(WindowPolicy::windowed(100, 4), 16, BackpressurePolicy::Shed);
        let rep = serve(StubAlg::maker(Some(2)), &arrivals, &c);
        assert!(rep.windows.iter().all(|w| w.ops.len() <= 2));
        assert_eq!(rep.admitted, 6);
    }

    #[test]
    fn latency_counts_queueing_ticks_and_rounds() {
        // Two writes arrive at t0; deadline 3 closes them at t3 as one
        // 3-round window: both ops waited 3 ticks and 3 rounds.
        let arrivals = [write_at(0, 0, 1), write_at(0, 1, 2)];
        let c = cfg(WindowPolicy::windowed(8, 3), 16, BackpressurePolicy::Shed);
        let rep = serve(StubAlg::maker(None), &arrivals, &c);
        assert_eq!(rep.write_latency.ticks.count(), 2);
        assert_eq!(rep.write_latency.ticks.p50(), 3.0);
        assert_eq!(rep.write_latency.rounds.p99(), 3.0);
        assert_eq!(rep.read_latency.rounds.count(), 0);
        assert_eq!(rep.violations(), 0);
    }

    #[test]
    fn offline_replay_matches_online_run() {
        let arrivals: Vec<Arrival> = (0..20)
            .map(|i| {
                if i % 3 == 2 {
                    read_at(i as u64 / 2, i % 7, i % 7 + 1)
                } else {
                    write_at(i as u64 / 2, i % 7, i % 7 + 1)
                }
            })
            .collect();
        let c = cfg(WindowPolicy::windowed(4, 2), 32, BackpressurePolicy::Shed);
        let rep = serve(StubAlg::maker(None), &arrivals, &c);
        let mut fresh = StubAlg::maker(None)();
        let off = replay_windows(&mut fresh, &rep.windows);
        assert_eq!(off.final_digest, rep.final_digest);
        assert_eq!(off.answers, rep.answers);
        assert_eq!(off.writes.rounds, rep.writes.rounds);
        assert_eq!(off.reads.rounds, rep.reads.rounds);
    }

    #[test]
    fn write_log_lives_only_while_a_later_kill_can_replay_it() {
        let make = StubAlg::maker(None);
        let window = |i: u32| vec![write_at(0, i, i + 1).op];
        // No plan (every failure-free run): the log never outlives a window.
        let none = ChaosPlan::new(0);
        let mut a = make();
        let mut plain = ServiceLoop::new(&mut a, &make, &none);
        for i in 0..4 {
            plain.window(window(i), CloseReason::Size, 0, 0);
            assert!(plain.engine.log.is_empty());
        }
        let plain = plain.finish();
        // Last kill at window 2: its replica replays the runs of windows 0
        // and 1; once window 2 completes nothing can ask again.
        let plan = ChaosPlan::new(0).with_event_in_round(2, 1, ChaosKind::Kill(1));
        let mut a = make();
        let mut armed = ServiceLoop::new(&mut a, &make, &plan);
        for i in 0..2 {
            armed.window(window(i), CloseReason::Size, 0, 0);
            assert_eq!(armed.engine.log.len(), i as usize + 1);
        }
        for i in 2..4 {
            armed.window(window(i), CloseReason::Size, 0, 0);
            assert!(armed.engine.log.is_empty(), "log not dropped");
        }
        let armed = armed.finish();
        // A boundary kill nothing revives: no event lies in a later window,
        // but the end-of-stream rebuild still reads the log (the stub's
        // `revive` checks the replica against the live instance).
        let plan = ChaosPlan::new(0).with_event(2, ChaosKind::Kill(1));
        let mut a = make();
        let mut tail = ServiceLoop::new(&mut a, &make, &plan);
        for i in 0..4 {
            tail.window(window(i), CloseReason::Size, 0, 0);
            assert_eq!(tail.engine.log.len(), 2.min(i as usize + 1));
        }
        let tail = tail.finish();
        assert_eq!(tail.drained.len(), 2);
        // The log is bookkeeping only: all three loops served the same run.
        for rep in [&armed, &tail] {
            assert_eq!(rep.final_digest, plain.final_digest);
            assert_eq!(rep.writes.rounds, plain.writes.rounds);
        }
    }

    #[test]
    fn lapsed_chaos_events_are_counted_as_skipped() {
        let make = StubAlg::maker(None);
        let plan = ChaosPlan::new(0)
            // Window 0 is read-only: no write run to fire in.
            .with_event_in_round(0, 1, ChaosKind::Kill(1))
            // Machine 0 is not killable, mid-flight ...
            .with_event_in_round(1, 1, ChaosKind::Kill(0))
            // Window 2's write run parks behind the boundary kill.
            .with_event(2, ChaosKind::Kill(1))
            .with_event_in_round(2, 1, ChaosKind::Kill(2))
            .with_event(3, ChaosKind::Revive(1))
            // ... or at a boundary (here the one `finish` fires).
            .with_event(4, ChaosKind::Kill(0));
        let windows = [
            vec![read_at(0, 0, 1).op],
            vec![write_at(0, 0, 1).op],
            vec![write_at(0, 1, 2).op],
            vec![write_at(0, 2, 3).op],
        ];
        let run = |plan: &ChaosPlan| {
            let mut a = make();
            let mut lp = ServiceLoop::new(&mut a, &make, plan);
            for ops in &windows {
                lp.window(ops.clone(), CloseReason::Size, 0, 0);
            }
            lp.finish()
        };
        let rep = run(&plan);
        assert_eq!(rep.skipped, 4);
        assert_eq!(rep.retries, 0);
        let applied: Vec<&str> = rep.applied.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(applied, ["kill 1", "revive 1"]);
        let drained: Vec<_> = rep
            .drained
            .iter()
            .map(|d| (d.window, d.drained_at, d.latency_windows))
            .collect();
        assert_eq!(drained, [(2, 3, 1)]);
        assert_eq!(rep.final_digest, run(&ChaosPlan::new(0)).final_digest);
    }
}
