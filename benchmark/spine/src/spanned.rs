//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! `Spanned<A>` delegates `ServiceAlgorithm` and `ElasticAlgorithm`
//! unchanged and records one in-memory span around every call the service
//! loop makes into the algorithm, on the primary and on chaos replicas,
//! all under one `service.run` root span. The service loop is sequential,
//! so every span is a direct child of the root and a layer's self time is
//! its span minus the children.

use crate::json::Json;
use dmpc_core::ElasticAlgorithm;
use dmpc_graph::{Query, QueryAnswer, Update};
use dmpc_mpc::{BatchMetrics, ChaosKind, MachineId, QueryMetrics, UpdateMetrics};
use dmpc_service::{ServiceAlgorithm, WindowRecord};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

pub const ROOT: &str = "service.run";
pub const APPLY: &str = "batch.apply_window";
pub const ANSWER: &str = "query.answer_window";
pub const DIGEST: &str = "core.state_digest";
pub const KILL: &str = "core.kill";
pub const REPLICA_BUILD: &str = "core.replica_build";

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span (`None` for the root).
    pub parent: Option<usize>,
    pub replica: bool,
    /// The window's same-kind run this span served: its own for a plane
    /// call on the primary, the run about to execute for everything else.
    pub run: usize,
    /// A write attempt that lost a machine and was rolled back.
    pub aborted: bool,
    /// Model counts of a plane call (zero elsewhere).
    pub ops: usize,
    pub rounds: usize,
    pub words: usize,
    pub msgs: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Same-kind runs the primary has completed or is retrying.
    next_run: usize,
}

pub type Tape = Rc<RefCell<Recorder>>;

pub fn new_tape() -> Tape {
    Rc::new(RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        next_run: 0,
    }))
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, replica: bool) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: (!self.spans.is_empty()).then_some(0),
            replica,
            run: self.next_run,
            aborted: false,
            ops: 0,
            rounds: 0,
            words: 0,
            msgs: 0,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now();
    }
}

/// Times `f` as one span on `tape`. The first span opened is the root.
pub fn span<T>(tape: &Tape, name: &'static str, replica: bool, f: impl FnOnce() -> T) -> T {
    let idx = tape.borrow_mut().open(name, replica);
    let out = f();
    tape.borrow_mut().close(idx);
    out
}

pub struct Spanned<A> {
    inner: A,
    tape: Tape,
    replica: bool,
}

impl<A> Spanned<A> {
    pub fn new(inner: A, tape: &Tape, replica: bool) -> Self {
        Spanned {
            inner,
            tape: Rc::clone(tape),
            replica,
        }
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce(&A) -> T) -> T {
        span(&self.tape, name, self.replica, || f(&self.inner))
    }

    fn span_mut<T>(&mut self, name: &'static str, f: impl FnOnce(&mut A) -> T) -> T {
        let inner = &mut self.inner;
        span(&self.tape, name, self.replica, || f(inner))
    }

    /// Records a plane call's model counts on the span just closed and, on
    /// the primary, moves on to the next same-kind run.
    fn close_plane(&mut self, ops: usize, rounds: usize, words: usize, msgs: usize) {
        let mut tape = self.tape.borrow_mut();
        let last = tape.spans.last_mut().expect("plane span just closed");
        (last.ops, last.rounds, last.words, last.msgs) = (ops, rounds, words, msgs);
        if !self.replica {
            tape.next_run += 1;
        }
    }
}

impl<A: ServiceAlgorithm> ServiceAlgorithm for Spanned<A> {
    fn service_name(&self) -> &'static str {
        self.inner.service_name()
    }

    fn apply_window(&mut self, updates: &[Update]) -> BatchMetrics {
        let bm = self.span_mut(APPLY, |a| a.apply_window(updates));
        self.close_plane(bm.updates, bm.rounds, bm.total_words, bm.total_messages);
        bm
    }

    fn answer_window(&mut self, queries: &[Query]) -> (Vec<QueryAnswer>, QueryMetrics) {
        let (answers, qm) = self.span_mut(ANSWER, |a| a.answer_window(queries));
        self.close_plane(qm.queries, qm.rounds, qm.total_words, qm.total_messages);
        (answers, qm)
    }

    fn admission_budget(&self) -> Option<usize> {
        self.inner.admission_budget()
    }
}

impl<A: ElasticAlgorithm> ElasticAlgorithm for Spanned<A> {
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
        self.span_mut("core.restore_machine", |a| a.restore_machine(m, snap))
    }
    fn supports_restore(&self) -> bool {
        self.inner.supports_restore()
    }
    fn snapshot_machine(&self, m: MachineId) -> String {
        self.span("core.snapshot_machine", |a| a.snapshot_machine(m))
    }
    fn checkpoint(&self) -> Vec<String> {
        self.span("core.checkpoint", |a| a.checkpoint())
    }
    fn restore(&mut self, snaps: &[String]) {
        self.inner.restore(snaps)
    }
    fn kill(&mut self, m: MachineId) {
        {
            // The service kills right after the write attempt that lost a
            // machine: that attempt is the last plane span, and the run it
            // served is about to be retried.
            let mut tape = self.tape.borrow_mut();
            let attempt = tape
                .spans
                .iter_mut()
                .rev()
                .find(|s| s.name == APPLY && !s.replica)
                .expect("a kill follows a write attempt");
            if !attempt.aborted {
                attempt.aborted = true;
                tape.next_run -= 1;
            }
        }
        self.span_mut(KILL, |a| a.kill(m))
    }
    fn revive(&mut self, m: MachineId, snap: &str) -> UpdateMetrics {
        self.span_mut("core.revive", |a| a.revive(m, snap))
    }
    fn split(&mut self, m: MachineId) -> Option<UpdateMetrics> {
        self.inner.split(m)
    }
    fn merge(&mut self, m: MachineId) -> Option<UpdateMetrics> {
        self.inner.merge(m)
    }
    fn state_digest(&self) -> u64 {
        self.span(DIGEST, |a| a.state_digest())
    }
}

/// The window each same-kind run belongs to, in run order.
pub fn run_windows(windows: &[WindowRecord]) -> Vec<usize> {
    let mut out = Vec::new();
    for w in windows {
        let runs = 1 + w
            .ops
            .windows(2)
            .filter(|p| p[0].is_read() != p[1].is_read())
            .count();
        out.extend(std::iter::repeat_n(w.index, runs));
    }
    out
}

/// Chrome trace-event JSON (open in chrome://tracing or ui.perfetto.dev):
/// the primary on thread 1, chaos replicas on thread 2.
pub fn chrome_trace(spans: &[Span], run_window: &[usize]) -> Json {
    let events = spans.iter().map(|s| {
        let mut args = vec![("replica".to_string(), Json::Bool(s.replica))];
        if let Some(p) = s.parent {
            args.push(("parent".into(), Json::str(spans[p].name)));
        }
        if let Some(&w) = run_window.get(s.run).filter(|_| s.parent.is_some()) {
            args.push(("window".into(), Json::Int(w as u64)));
        }
        if s.name == APPLY || s.name == ANSWER {
            args.push(("aborted".into(), Json::Bool(s.aborted)));
            args.push(("ops".into(), Json::Int(s.ops as u64)));
            args.push(("rounds".into(), Json::Int(s.rounds as u64)));
            args.push(("words".into(), Json::Int(s.words as u64)));
            args.push(("msgs".into(), Json::Int(s.msgs as u64)));
        }
        Json::obj([
            ("name", Json::str(s.name)),
            ("cat", Json::str(s.name.split('.').next().unwrap_or(""))),
            ("ph", Json::str("X")),
            ("ts", Json::Num(s.start_ns as f64 / 1e3)),
            ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(if s.replica { 2 } else { 1 })),
            ("args", Json::Obj(args)),
        ])
    });
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events.collect())),
    ])
}
