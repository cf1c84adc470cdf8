//! One repetition of one workload, in a process of its own: untraced for
//! the end-to-end metrics, or traced, verified against an offline replay
//! and probed for the per-layer metrics.

use crate::json::Json;
use crate::probes;
use crate::spanned::{self, new_tape, span, Span, Spanned};
use crate::spec::{generate, Inputs, Spec, Subject};
use crate::verify::{check_report, Verdict};
use dmpc_graph::QueryAnswer;
use dmpc_mpc::{BatchMetrics, LatencyStats, QueryMetrics, RecoveryMetrics};
use dmpc_service::{replay_windows, run_service_chaos, CloseReason, ServiceReport};
use std::cell::RefCell;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

pub fn metric(name: &str, unit: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
    }
}

/// Median; the mean of the middle two for an even count.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, as the service's own histograms define it.
pub fn percentile(samples: impl IntoIterator<Item = f64>, p: f64) -> f64 {
    let mut stats = LatencyStats::new();
    samples.into_iter().for_each(|s| stats.record(s));
    stats.percentile(p)
}

/// Peak resident set of this process so far, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn ratio(a: usize, b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Hands out `first` once, then whatever `rebuild` makes: the pre-built
/// instance reaches the service without its set-up inside the timed call,
/// and a chaos replica still gets the real factory.
pub fn take_once<S>(first: S, rebuild: impl Fn() -> S) -> impl Fn() -> S {
    let slot = RefCell::new(Some(first));
    move || slot.borrow_mut().take().unwrap_or_else(&rebuild)
}

/// Everything about a run that must repeat exactly for one seed.
#[derive(Debug, PartialEq)]
pub struct Counts {
    arrived: usize,
    admitted: usize,
    shed: usize,
    windows: usize,
    ticks: u64,
    writes: BatchMetrics,
    reads: QueryMetrics,
    answers: usize,
    retries: usize,
    aborted_rounds: usize,
    recovery: RecoveryMetrics,
    peak_buffered: usize,
    peak_parked: usize,
    digest: u64,
}

impl Counts {
    pub fn of(rep: &ServiceReport) -> Counts {
        Counts {
            arrived: rep.arrived,
            admitted: rep.admitted,
            shed: rep.shed.len(),
            windows: rep.windows.len(),
            ticks: rep.ticks,
            writes: rep.writes.clone(),
            reads: rep.reads.clone(),
            answers: rep.answers.len(),
            retries: rep.retries,
            aborted_rounds: rep.aborted_rounds,
            recovery: rep.recovery.clone(),
            peak_buffered: rep.peak_buffered,
            peak_parked: rep.peak_parked,
            digest: rep.final_digest,
        }
    }
}

/// One repetition: inputs and instance made fresh from the seed (timed as
/// set-up), then the whole trace through the service boundary, closed
/// loop, one client (timed as the run).
pub struct Rep {
    pub inputs: Inputs,
    pub bulk_load_s: f64,
    pub setup_s: f64,
    pub wall_s: f64,
    pub report: ServiceReport,
    /// Spans of a traced repetition, the root first (empty when untraced).
    pub spans: Vec<Span>,
}

pub fn repetition<A: Subject>(spec: &Spec, seed: u64, traced: bool) -> Rep {
    let started = Instant::now();
    let inputs = generate(spec, seed);
    let loading = Instant::now();
    let build = || A::build(spec, seed, &inputs.preload);
    let first = build();
    let bulk_load_s = loading.elapsed().as_secs_f64();
    let setup_s = started.elapsed().as_secs_f64();

    let cfg = spec.service_config();
    let budget = first.admission_budget().unwrap_or(usize::MAX);
    let plan = spec.chaos_plan(seed, cfg.window.max_ops.min(budget));
    let tape = new_tape();
    let started = Instant::now();
    let report = if traced {
        let make = take_once(Spanned::new(first, &tape, false), || {
            let replica = span(&tape, spanned::REPLICA_BUILD, true, build);
            Spanned::new(replica, &tape, true)
        });
        span(&tape, spanned::ROOT, false, || {
            run_service_chaos(make, &inputs.trace, &cfg, &plan)
        })
    } else {
        run_service_chaos(take_once(first, build), &inputs.trace, &cfg, &plan)
    };
    let wall_s = started.elapsed().as_secs_f64();
    let spans = std::mem::take(&mut tape.borrow_mut().spans);
    Rep {
        inputs,
        bulk_load_s,
        setup_s,
        wall_s,
        report,
        spans,
    }
}

/// The end-to-end metrics of one repetition, as BENCHMARK.json lists them.
fn end_to_end(rep: &Rep, peak_rss_mb: f64) -> Vec<Metric> {
    let r = &rep.report;
    let mut secs = r.write_latency.secs.clone();
    secs.merge(&r.read_latency.secs);
    let mut rounds = r.write_latency.rounds.clone();
    rounds.merge(&r.read_latency.rounds);
    let model_rounds = r.writes.rounds + r.reads.rounds;
    let model_words = r.writes.total_words + r.reads.total_words;
    vec![
        metric("ops_per_s", "1/s", r.admitted as f64 / rep.wall_s),
        metric("p50_ms", "ms", secs.p50() * 1e3),
        metric("p99_ms", "ms", secs.p99() * 1e3),
        metric("p99_rounds", "rounds", rounds.p99()),
        metric(
            "rounds_per_op",
            "rounds/op",
            ratio(model_rounds, r.admitted),
        ),
        metric("words_per_op", "words/op", ratio(model_words, r.admitted)),
        metric("setup_s", "s", rep.setup_s),
        metric("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

/// What one child process reports to the process that spawned it: one
/// tab-separated line per metric, count, or failed check.
#[derive(Debug, Default)]
pub struct Record {
    pub metrics: Vec<Metric>,
    /// `Counts` of the run, printed: must be the same in every repetition.
    pub counts: String,
    pub arrived: usize,
    pub verdict: Verdict,
}

impl Record {
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out += &format!("m\t{}\t{}\t{}\n", m.name, m.unit, m.value);
        }
        out += &format!("c\t{}\n", self.counts);
        let v = &self.verdict;
        out += &format!("n\t{}\t{}\t{}\n", self.arrived, v.failed_ops, v.sampled);
        for why in &v.fatal {
            out += &format!("f\t{}\n", why.replace(['\t', '\n'], " "));
        }
        out
    }

    /// `None` for output that is not a whole record (a child that died).
    pub fn parse(text: &str) -> Option<Record> {
        let mut rec = Record::default();
        let mut complete = false;
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields[..] {
                ["m", name, unit, value] => rec.metrics.push(Metric {
                    name: name.to_string(),
                    unit: unit.to_string(),
                    value: value.parse().ok()?,
                }),
                ["c", counts] => rec.counts = counts.to_string(),
                ["n", arrived, failed, sampled] => {
                    rec.arrived = arrived.parse().ok()?;
                    rec.verdict.failed_ops = failed.parse().ok()?;
                    rec.verdict.sampled = sampled.parse().ok()?;
                    complete = true;
                }
                ["f", why] => rec.verdict.fatal.push(why.to_string()),
                _ => return None,
            }
        }
        complete.then_some(rec)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The measured wall-clock of a child, by which its parent budgets.
pub const WALL: &str = "wall_s";

/// One untraced repetition in this process, checked: the end-to-end values.
pub fn untraced_repetition<A: Subject>(spec: &Spec, seed: u64) -> Record {
    let rep = repetition::<A>(spec, seed, false);
    let peak_rss_mb = peak_rss_mb();
    let mut verdict = Verdict::default();
    check_report(&mut verdict, &rep.report, spec.n, &rep.inputs.preload, seed);
    let mut metrics = end_to_end(&rep, peak_rss_mb);
    metrics.push(metric(WALL, "s", rep.wall_s));
    Record {
        metrics,
        counts: format!("{:?}", Counts::of(&rep.report)),
        arrived: rep.report.arrived,
        verdict,
    }
}

/// One traced repetition in this process, checked against an offline
/// replay: the per-layer metrics and the Chrome trace. An untraced
/// repetition runs first, in the same process and so at the same speed,
/// to give the tracing overhead and to show that tracing changes nothing.
pub fn traced_repetition<A: Subject>(spec: &Spec, seed: u64) -> (Record, Json) {
    let (untraced_wall_s, untraced_counts) = {
        let rep = repetition::<A>(spec, seed, false);
        (rep.wall_s, Counts::of(&rep.report))
    };
    let rep = repetition::<A>(spec, seed, true);
    let mut verdict = Verdict::default();
    if Counts::of(&rep.report) != untraced_counts {
        verdict
            .fatal
            .push("the traced run's counts differ from the untraced run's".into());
    }
    let verifying = Instant::now();
    let truth = check_report(&mut verdict, &rep.report, spec.n, &rep.inputs.preload, seed);
    let fresh = replay_and_audit::<A>(spec, seed, &rep, &truth, &mut verdict);
    let verify_s = verifying.elapsed().as_secs_f64();
    let run_window = spanned::run_windows(&rep.report.windows);
    let mut metrics = layer_metrics(spec, &rep, &run_window, fresh, &mut verdict);
    let run_s = rep.spans[0].secs();
    metrics.extend([
        metric("graph.gen_s", "s", rep.inputs.gen_s),
        metric("graph.trace_s", "s", rep.inputs.trace_s),
        metric("graph.bulk_load_s", "s", rep.bulk_load_s),
        metric("graph.verify_s", "s", verify_s),
        metric(
            "graph.preload_edges",
            "count",
            rep.inputs.preload.len() as f64,
        ),
        metric("trace.spans", "count", rep.spans.len() as f64),
        metric("trace.run_s", "s", run_s),
        metric(
            "trace.overhead_share",
            "share",
            run_s / untraced_wall_s - 1.0,
        ),
        metric(WALL, "s", untraced_wall_s + rep.wall_s),
    ]);
    let record = Record {
        metrics,
        counts: format!("{:?}", untraced_counts),
        arrived: 2 * rep.report.arrived,
        verdict,
    };
    (record, spanned::chrome_trace(&rep.spans, &run_window))
}

/// The traced run's verification beyond its answers: its digest and
/// answers equal an untimed offline replay of its windows on a fresh
/// instance, and that instance passes its audit against the ground truth.
fn replay_and_audit<A: Subject>(
    spec: &Spec,
    seed: u64,
    traced: &Rep,
    truth: &dmpc_graph::DynamicGraph,
    verdict: &mut Verdict,
) -> A {
    let rep = &traced.report;
    let mut fresh = A::build(spec, seed, &traced.inputs.preload);
    let offline = replay_windows(&mut fresh, &rep.windows);
    verdict.digests_match(
        "online digest vs offline replay",
        rep.final_digest,
        offline.final_digest,
    );
    if offline.answers != rep.answers {
        verdict
            .fatal
            .push("online answers differ from the offline replay".into());
    }
    verdict.require(
        "audit against the ground-truth graph",
        fresh.audit(truth, seed),
    );
    fresh
}

/// Calls, busy seconds, per-call durations and model counts of one
/// plane's spans on the primary. Aborted write attempts are busy time but
/// not workload, as in the service's own report.
struct Plane {
    calls: usize,
    busy_s: f64,
    ops: usize,
    rounds: usize,
    msgs: usize,
    call_us: LatencyStats,
}

fn plane(spans: &[Span], name: &str) -> Plane {
    let mut p = Plane {
        calls: 0,
        busy_s: 0.0,
        ops: 0,
        rounds: 0,
        msgs: 0,
        call_us: LatencyStats::new(),
    };
    for s in spans.iter().filter(|s| s.name == name && !s.replica) {
        p.calls += 1;
        p.busy_s += s.secs();
        p.call_us.record(s.secs() * 1e6);
        if !s.aborted {
            p.ops += s.ops;
            p.rounds += s.rounds;
            p.msgs += s.msgs;
        }
    }
    p
}

/// Every layer's metrics from the traced run's spans and service report,
/// the probes, and `fresh` (the instance the offline replay left behind).
fn layer_metrics<A: Subject>(
    spec: &Spec,
    traced: &Rep,
    run_window: &[usize],
    mut fresh: A,
    verdict: &mut Verdict,
) -> Vec<Metric> {
    let rep = &traced.report;

    // Attribution: every span but the root is a direct child of the root.
    let run_s = traced.spans[0].secs();
    let children = &traced.spans[1..];
    let batch = plane(children, spanned::APPLY);
    let query = plane(children, spanned::ANSWER);
    let total = |keep: &dyn Fn(&Span) -> bool| -> f64 {
        children.iter().filter(|s| keep(s)).map(Span::secs).sum()
    };
    let digest_s = total(&|s| s.name == spanned::DIGEST);
    // Everything a kill causes beyond the lost attempt itself: frontier
    // checkpoints, kills, rollbacks, replica builds and replays, revives.
    let recovery_s = total(&|s| {
        s.replica || !matches!(s.name, spanned::APPLY | spanned::ANSWER | spanned::DIGEST)
    });
    let self_s = run_s - total(&|_| true);
    let mut window_s = vec![0.0f64; rep.windows.len()];
    for s in children {
        if let Some(&w) = run_window.get(s.run) {
            window_s[w] += s.secs();
        }
    }
    let window_ms = |p: f64| percentile(window_s.iter().map(|s| s * 1e3), p);
    let closes = |why: CloseReason| rep.windows.iter().filter(|w| w.reason == why).count();
    if batch.rounds != rep.writes.rounds
        || query.rounds != rep.reads.rounds
        || batch.msgs != rep.writes.total_messages
        || query.msgs != rep.reads.total_messages
    {
        verdict
            .fatal
            .push("span counts differ from the service report".into());
    }
    let closed = (self_s + batch.busy_s + query.busy_s + recovery_s + digest_s) / run_s;
    if self_s < 0.0 || (closed - 1.0).abs() > 1e-6 {
        verdict
            .fatal
            .push(format!("attribution does not close: {closed}"));
    }

    let mpc = probes::mpc(fresh.n_shards());
    let rounds = batch.rounds + query.rounds;
    let msgs = batch.msgs + query.msgs;
    let barrier_ns = if spec.pool {
        mpc.pool_barrier_us * 1e3
    } else {
        0.0
    };
    let executor_ns =
        rounds as f64 * (mpc.round_floor_ns + barrier_ns) + msgs as f64 * mpc.route_ns_per_msg;
    let est_share = executor_ns * 1e-9 / (batch.busy_s + query.busy_s);

    let timing = Instant::now();
    let snaps = fresh.checkpoint();
    let checkpoint_s = timing.elapsed().as_secs_f64();
    let restore_s = if fresh.supports_restore() {
        let timing = Instant::now();
        fresh.restore(&snaps);
        timing.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let checkpoint_bytes: usize = snaps.iter().map(String::len).sum();
    let unanswered = rep
        .answers
        .iter()
        .filter(|a| matches!(a, QueryAnswer::Unsupported | QueryAnswer::Degraded))
        .count();
    let kills = children.iter().filter(|s| s.name == spanned::KILL).count();
    let per = |busy_s: f64, scale: f64, count: usize| busy_s * scale / count.max(1) as f64;
    let (w, r) = (&rep.writes, &rep.reads);
    let m = metric;
    vec![
        m("service.self_s", "s", self_s),
        m("service.self_share", "share", self_s / run_s),
        m("service.windows", "count", rep.windows.len() as f64),
        m(
            "service.ops_per_window",
            "ops",
            ratio(rep.admitted, rep.windows.len()),
        ),
        m(
            "service.size_closes",
            "count",
            closes(CloseReason::Size) as f64,
        ),
        m(
            "service.deadline_closes",
            "count",
            closes(CloseReason::Deadline) as f64,
        ),
        m(
            "service.runs_per_window",
            "runs",
            ratio(run_window.len(), rep.windows.len()),
        ),
        m("service.window_p50_ms", "ms", window_ms(50.0)),
        m("service.window_p99_ms", "ms", window_ms(99.0)),
        m("service.peak_buffered", "ops", rep.peak_buffered as f64),
        m("service.peak_parked", "ops", rep.peak_parked as f64),
        m("service.shed", "count", rep.shed.len() as f64),
        m("service.retries", "count", rep.retries as f64),
        m(
            "service.aborted_rounds",
            "rounds",
            rep.aborted_rounds as f64,
        ),
        m("service.buffer_ns_per_op", "ns", probes::buffer_ns_per_op()),
        m(
            "service.histogram_ns_per_sample",
            "ns",
            probes::histogram_ns_per_sample(rep.admitted),
        ),
        m("batch.calls", "count", batch.calls as f64),
        m("batch.busy_s", "s", batch.busy_s),
        m("batch.share", "share", batch.busy_s / run_s),
        m("batch.ops_per_call", "ops", ratio(batch.ops, batch.calls)),
        m("batch.call_p50_us", "us", batch.call_us.p50()),
        m("batch.call_p99_us", "us", batch.call_us.p99()),
        m("batch.rounds_per_op", "rounds/op", w.amortized_rounds()),
        m("batch.words_per_op", "words/op", w.amortized_words()),
        m("batch.msgs_per_op", "msgs/op", w.amortized_messages()),
        m("batch.us_per_round", "us", per(batch.busy_s, 1e6, w.rounds)),
        m(
            "batch.ns_per_word",
            "ns",
            per(batch.busy_s, 1e9, w.total_words),
        ),
        m(
            "batch.max_active_machines",
            "machines",
            w.max_active_machines as f64,
        ),
        m(
            "batch.machines_touched",
            "machines",
            w.machines_touched as f64,
        ),
        m(
            "batch.max_words_per_round",
            "words",
            w.max_words_per_round as f64,
        ),
        m("batch.conflict_depth", "ops", w.conflict_depth as f64),
        m("batch.max_lanes", "lanes", w.max_lanes as f64),
        m("batch.violations", "count", w.violations as f64),
        m("query.calls", "count", query.calls as f64),
        m("query.busy_s", "s", query.busy_s),
        m("query.share", "share", query.busy_s / run_s),
        m("query.ops_per_call", "ops", ratio(query.ops, query.calls)),
        m("query.call_p50_us", "us", query.call_us.p50()),
        m("query.call_p99_us", "us", query.call_us.p99()),
        m("query.rounds_per_op", "rounds/op", r.amortized_rounds()),
        m("query.words_per_op", "words/op", r.amortized_words()),
        m("query.msgs_per_op", "msgs/op", r.amortized_messages()),
        m("query.us_per_round", "us", per(query.busy_s, 1e6, r.rounds)),
        m(
            "query.max_active_machines",
            "machines",
            r.max_active_machines as f64,
        ),
        m("query.unanswered", "count", unanswered as f64),
        m("mpc.round_floor_ns", "ns", mpc.round_floor_ns),
        m("mpc.route_ns_per_msg", "ns", mpc.route_ns_per_msg),
        m("mpc.pool_round_us", "us", mpc.pool_round_us),
        m("mpc.pool_route_ns_per_msg", "ns", mpc.pool_route_ns_per_msg),
        m("mpc.pool_barrier_us", "us", mpc.pool_barrier_us),
        m("mpc.rounds", "rounds", rounds as f64),
        m("mpc.msgs", "msgs", msgs as f64),
        m("mpc.est_share", "share", est_share),
        m("mpc.program_est_share", "share", 1.0 - est_share),
        m("core.checkpoint_s", "s", checkpoint_s),
        m("core.checkpoint_bytes", "bytes", checkpoint_bytes as f64),
        m("core.restore_s", "s", restore_s),
        m("core.digest_s", "s", digest_s),
        m("core.digest_share", "share", digest_s / run_s),
        m(
            "core.resident_words",
            "words",
            fresh.resident_words() as f64,
        ),
        m("core.kills", "count", kills as f64),
        m("core.recovery_rounds", "rounds", rep.recovery.rounds as f64),
        m(
            "core.recovery_words",
            "words",
            rep.recovery.total_words as f64,
        ),
        m(
            "core.replayed_updates",
            "count",
            rep.recovery.replay_updates as f64,
        ),
        m("core.recovery_s", "s", recovery_s),
        m("core.recovery_share", "share", recovery_s / run_s),
    ]
}
