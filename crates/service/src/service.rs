//! The service loop: clocked ingestion → windowed admission → metered
//! execution, with offline-replay equivalence and chaos tolerance.
//!
//! # Determinism contract
//!
//! The simulated clock decides *where* windows close, never *how* a closed
//! window executes: a window runs as the maximal same-kind runs of its ops
//! (write bursts through `apply_batch`, read bursts through
//! `answer_queries`), exactly like an offline replay of the same window
//! sequence. So the online run's digests, answers, and audits are
//! bit-identical to [`replay_windows`] over its [`WindowRecord`] log — and
//! this holds with a chaos plan armed, because a failed window epoch aborts
//! and retries until it completes cleanly
//! ([`dmpc_core::RebuildEngine::run_epoch`]: survivors roll back to the
//! pre-window frontier, victims rebuild from an off-cluster replica).

use crate::buffer::{AdmissionBuffer, BackpressurePolicy, Offer, ShedRecord};
use crate::window::{CloseReason, WindowPolicy, WindowRecord};
use dmpc_core::{DynamicGraphAlgorithm, ElasticAlgorithm, RebuildEngine};
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

/// Everything one service run produced: admission accounting, the window
/// log, workload metrics, answers, and per-op latency histograms.
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
    /// Combined write-plane metrics (completed epochs only).
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
    /// Chaos: aborted window epochs retried.
    pub retries: usize,
    /// Chaos: rounds burned in aborted epochs (latency, not workload).
    pub aborted_rounds: usize,
    /// Chaos: metered recovery traffic (revive handoffs + replica replay).
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

/// What an offline replay of a window log produced, for equivalence checks
/// against the online [`ServiceReport`].
#[derive(Clone, Debug, Default)]
pub struct OfflineReplay {
    /// Combined write-plane metrics.
    pub writes: BatchMetrics,
    /// Combined read-plane metrics.
    pub reads: QueryMetrics,
    /// Answers in admitted order.
    pub answers: Vec<QueryAnswer>,
    /// State digest after the last window.
    pub final_digest: u64,
}

/// One buffered op with its latency basis.
struct Pending {
    tick: u64,
    op: Op,
    rounds0: usize,
    secs0: f64,
}

/// A window's ops split into maximal same-kind runs, in admitted order —
/// the execution shape shared by the online loop and the offline replay.
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

/// Runs the full service loop without faults. `make` builds the (fresh)
/// algorithm instance; the report's window log and final digest feed the
/// offline-equivalence check ([`replay_windows`]).
pub fn run_service<A, F>(make: F, arrivals: &[Arrival], cfg: &ServiceConfig) -> ServiceReport
where
    A: ServiceAlgorithm + ElasticAlgorithm,
    F: Fn() -> A,
{
    run_service_chaos(make, arrivals, cfg, &ChaosPlan::new(0))
}

/// Runs the service loop with a chaos plan armed. Plan events must be
/// *mid-flight kills*, keyed by **window index** (`at_batch` = the index
/// of the targeted window in execution order); they arm before the
/// targeted window's first write run, which then executes as a fenced
/// epoch of the shared [`RebuildEngine`]: an attempt that loses a machine
/// is aborted, victims rebuild from an off-cluster replica replay of the
/// completed write log, and the run retries. Aborted rounds count toward
/// the window's ops' *latency* but never toward workload metrics, so SLOs
/// are measured through failures while digests stay bit-identical to the
/// failure-free run.
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
    for ev in &plan.events {
        assert!(
            ev.mid_flight() && matches!(ev.kind, ChaosKind::Kill(_)),
            "service chaos arms mid-flight kills only (window-indexed)"
        );
    }
    let a = make();
    let killable = (0..a.n_shards() as MachineId)
        .filter(|&m| a.killable(m))
        .count();
    plan.validate(a.n_shards(), killable, a.round_limit())
        .expect("invalid chaos plan");
    let window_cap = cfg
        .window
        .max_ops
        .min(a.admission_budget().unwrap_or(usize::MAX))
        .max(1);
    let mut lp = ServiceLoop::new(a, &make, plan);
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
                secs0: lp.cum_secs,
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
            lp.execute_window(pend, CloseReason::Size, t);
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
            lp.execute_window(pend, CloseReason::Deadline, t);
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
    lp.rep.wall_secs = lp.cum_secs;
    lp.rep.final_digest = lp.a.state_digest();
    lp.rep
}

/// Offline replay of a service run's coalesced windows on a fresh
/// instance: each window re-executes as the identical maximal same-kind
/// runs, so digests, answers, and metrics must match the online run
/// bit-for-bit.
pub fn replay_windows<A: ServiceAlgorithm + ElasticAlgorithm>(
    alg: &mut A,
    windows: &[WindowRecord],
) -> OfflineReplay {
    let mut out = OfflineReplay::default();
    for w in windows {
        for run in split_runs(&w.ops) {
            match run {
                OpRun::Writes(updates) => out.writes.merge(&alg.apply_window(&updates)),
                OpRun::Reads(queries) => {
                    let (answers, qm) = alg.answer_window(&queries);
                    out.answers.extend(answers);
                    out.reads.merge(&qm);
                }
            }
        }
    }
    out.final_digest = alg.state_digest();
    out
}

/// Mutable state threaded through window executions.
struct ServiceLoop<'p, A, F> {
    a: A,
    /// Rebuilds victims from the factory and the completed write runs. The
    /// log is kept only while the plan holds an event in a later window:
    /// past the last one no kill can fire, the log would never be read, and
    /// on a failure-free run it would be a second copy of the whole workload.
    engine: RebuildEngine<&'p F, Vec<Update>>,
    plan: &'p ChaosPlan,
    rep: ServiceReport,
    cum_rounds: usize,
    cum_secs: f64,
    window_index: usize,
}

impl<'p, A, F> ServiceLoop<'p, A, F>
where
    A: ServiceAlgorithm + ElasticAlgorithm,
    F: Fn() -> A,
{
    fn new(a: A, make: &'p F, plan: &'p ChaosPlan) -> Self {
        ServiceLoop {
            a,
            engine: RebuildEngine::new(make),
            plan,
            rep: ServiceReport::default(),
            cum_rounds: 0,
            cum_secs: 0.0,
            window_index: 0,
        }
    }

    /// Executes one closed window and meters its ops' end-to-end latency.
    fn execute_window(&mut self, pend: Vec<Pending>, reason: CloseReason, now: u64) {
        debug_assert!(!pend.is_empty(), "windows never close empty");
        let ops: Vec<Op> = pend.iter().map(|p| p.op).collect();
        let opened_tick = pend[0].tick;
        let started = Instant::now();
        let mut rounds = 0usize;
        // Chaos arms on the window's *first* write run only: one epoch
        // fence per window, and a pure read window lets the events lapse.
        let mut first_write = true;
        for run in split_runs(&ops) {
            match run {
                OpRun::Writes(updates) => {
                    rounds += self.run_write_epoch(updates, first_write);
                    first_write = false;
                }
                OpRun::Reads(queries) => {
                    let (answers, qm) = self.a.answer_window(&queries);
                    rounds += qm.rounds;
                    self.rep.answers.extend(answers);
                    self.rep.reads.merge(&qm);
                }
            }
        }
        self.cum_rounds += rounds;
        self.cum_secs += started.elapsed().as_secs_f64();
        for p in &pend {
            let lat = match p.op {
                Op::Write(_) => &mut self.rep.write_latency,
                Op::Read(_) => &mut self.rep.read_latency,
            };
            lat.rounds.record((self.cum_rounds - p.rounds0) as f64);
            lat.ticks.record((now - p.tick) as f64);
            lat.secs.record(self.cum_secs - p.secs0);
        }
        self.rep.admitted += pend.len();
        self.rep.windows.push(WindowRecord {
            index: self.window_index,
            opened_tick,
            closed_tick: now,
            reason,
            ops,
        });
        self.window_index += 1;
    }

    /// Runs one write run under the epoch fence. Returns the rounds the
    /// run cost end to end — the completed epoch plus, under chaos, every
    /// aborted attempt, backoff pause, and recovery handoff (those extra
    /// rounds are latency only; workload metrics merge the clean epoch).
    fn run_write_epoch(&mut self, updates: Vec<Update>, arm_allowed: bool) -> usize {
        let armed: Vec<(u32, ChaosKind)> = if arm_allowed {
            self.plan
                .events_at(self.window_index)
                .filter_map(|e| match e.kind {
                    ChaosKind::Kill(m) if self.a.killable(m) && self.a.is_alive(m) => {
                        Some((e.at_round?, e.kind))
                    }
                    _ => None,
                })
                .collect()
        } else {
            Vec::new()
        };
        let (bm, aborts) =
            self.engine
                .run_epoch(&mut self.a, A::apply_window, &updates, &armed, |_| {});
        let mut rounds = bm.rounds;
        self.rep.writes.merge(&bm);
        for abort in &aborts {
            self.rep.retries += 1;
            self.rep.aborted_rounds += abort.aborted.rounds;
            rounds += abort.aborted.rounds + abort.backoff_rounds;
            for (handoff, replay) in &abort.rebuilds {
                rounds += handoff.rounds;
                self.rep.recovery.absorb_event(handoff);
                self.rep.recovery.absorb_replay(replay);
            }
        }
        let plan = self.plan;
        if plan.events.iter().any(|e| e.at_batch > self.window_index) {
            self.engine.log.push(updates);
        } else {
            self.engine.log = Vec::new();
        }
        rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpc_graph::Edge;

    /// A deterministic in-memory stub: a write run costs 3 rounds, a read
    /// wave 2; the digest folds the applied update log.
    struct StubAlg {
        log: Vec<Update>,
        budget: Option<usize>,
    }

    impl StubAlg {
        fn maker(budget: Option<usize>) -> impl Fn() -> StubAlg {
            move || StubAlg {
                log: Vec::new(),
                budget,
            }
        }
    }

    impl ServiceAlgorithm for StubAlg {
        fn service_name(&self) -> &'static str {
            "stub"
        }
        fn apply_window(&mut self, updates: &[Update]) -> BatchMetrics {
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
            1
        }
        fn killable(&self, _m: MachineId) -> bool {
            false
        }
        fn is_alive(&self, _m: MachineId) -> bool {
            true
        }
        fn round_limit(&self) -> usize {
            64
        }
        fn arm_in_round(&mut self, _at_round: u32, _kind: ChaosKind) {
            unreachable!("stub is never chaos-armed")
        }
        fn restore_machine(&mut self, _m: MachineId, _snap: &str) {}
        fn snapshot_machine(&self, _m: MachineId) -> String {
            format!("{:?}", self.log)
        }
        fn kill(&mut self, _m: MachineId) {
            unreachable!("stub machines are not killable")
        }
        fn revive(&mut self, _m: MachineId, _snap: &str) -> UpdateMetrics {
            unreachable!("stub machines are not killable")
        }
        fn state_digest(&self) -> u64 {
            self.log.iter().fold(0xcbf2_9ce4_8422_2325, |h, u| {
                let word = match *u {
                    Update::Insert(e) => 1u64 << 40 | (e.u as u64) << 20 | e.v as u64,
                    Update::Delete(e) => 2u64 << 40 | (e.u as u64) << 20 | e.v as u64,
                };
                (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
            })
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
        let rep = run_service(StubAlg::maker(None), &arrivals, &c);
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
        let rep = run_service(StubAlg::maker(None), &arrivals, &c);
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
        let rep = run_service(StubAlg::maker(None), &arrivals, &c);
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
        let rep = run_service(StubAlg::maker(None), &arrivals, &c);
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
        let rep = run_service(StubAlg::maker(None), &arrivals, &c);
        assert_eq!(rep.windows.len(), 3);
        assert!(rep.windows.iter().all(|w| w.ops.len() == 1));
        assert!(rep.windows.iter().all(|w| w.reason == CloseReason::Size));
        assert_eq!(rep.answers, vec![QueryAnswer::Bool(true)]);
    }

    #[test]
    fn admission_budget_caps_the_window() {
        let arrivals: Vec<Arrival> = (0..6).map(|i| write_at(0, i, i + 1)).collect();
        let c = cfg(WindowPolicy::windowed(100, 4), 16, BackpressurePolicy::Shed);
        let rep = run_service(StubAlg::maker(Some(2)), &arrivals, &c);
        assert!(rep.windows.iter().all(|w| w.ops.len() <= 2));
        assert_eq!(rep.admitted, 6);
    }

    #[test]
    fn latency_counts_queueing_ticks_and_rounds() {
        // Two writes arrive at t0; deadline 3 closes them at t3 as one
        // 3-round window: both ops waited 3 ticks and 3 rounds.
        let arrivals = [write_at(0, 0, 1), write_at(0, 1, 2)];
        let c = cfg(WindowPolicy::windowed(8, 3), 16, BackpressurePolicy::Shed);
        let rep = run_service(StubAlg::maker(None), &arrivals, &c);
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
        let rep = run_service(StubAlg::maker(None), &arrivals, &c);
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
        let window = |i: u32| {
            vec![Pending {
                tick: 0,
                op: write_at(0, i, i + 1).op,
                rounds0: 0,
                secs0: 0.0,
            }]
        };
        // No plan (every `run_service` call): nothing is ever logged.
        let none = ChaosPlan::new(0);
        let mut plain = ServiceLoop::new(make(), &make, &none);
        for i in 0..4 {
            plain.execute_window(window(i), CloseReason::Size, 0);
            assert!(plain.engine.log.is_empty());
        }
        // Last kill at window 2: its replica replays the runs of windows 0
        // and 1; once window 2's run completes nothing can ask again.
        let plan = ChaosPlan::new(0).with_event_in_round(2, 1, ChaosKind::Kill(0));
        let mut armed = ServiceLoop::new(make(), &make, &plan);
        for i in 0..2 {
            armed.execute_window(window(i), CloseReason::Size, 0);
            assert_eq!(armed.engine.log.len(), i as usize + 1);
        }
        for i in 2..4 {
            armed.execute_window(window(i), CloseReason::Size, 0);
            assert_eq!(armed.engine.log.capacity(), 0, "log not dropped");
        }
        // The log is bookkeeping only: both loops served the same run.
        assert_eq!(armed.a.state_digest(), plain.a.state_digest());
        assert_eq!(armed.rep.writes.rounds, plain.rep.writes.rounds);
    }

    #[test]
    #[should_panic(expected = "mid-flight kills only")]
    fn boundary_chaos_events_are_rejected() {
        let plan = ChaosPlan::new(1).with_event(0, ChaosKind::Kill(0));
        let arrivals = [write_at(0, 0, 1)];
        let c = ServiceConfig::default();
        run_service_chaos(StubAlg::maker(None), &arrivals, &c, &plan);
    }
}
