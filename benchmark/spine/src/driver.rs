//! One workload: a child process per repetition, and the medians over
//! them.
//!
//! A process's address-space layout and hash seeds shift its speed by
//! several percent for as long as it lives, so repetitions inside one
//! process share that shift and their median does not average it out.
//! Repetitions in processes of their own do.

use crate::bench::{median, metric, Metric, Record, WALL};
use crate::json::Json;
use crate::spec::Spec;
use crate::verify::Verdict;
use std::process::{Command, Stdio};

/// Repetitions: at least this many, then more until `--seconds` of
/// measured service time. A traced repetition costs several untraced ones
/// (a second run, the offline replay, the audits, the probes), so a traced
/// run takes fewer and measures for half the time.
const MIN_REPS: usize = 5;
const MIN_TRACED_REPS: usize = 2;
const MAX_REPS: usize = 40;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

pub struct Outcome {
    pub verdict: Verdict,
    pub attempted: usize,
    pub metrics: Vec<Metric>,
    /// Per-repetition raw values and the run's circumstances.
    pub detail: Json,
}

/// Runs one repetition in a child process and waits for it to end.
fn spawn_repetition(spec: &Spec, args: &Args, traced: bool) -> Option<Record> {
    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe);
    child
        .args(["--rep", spec.name, "--seed", &args.seed.to_string()])
        .stderr(Stdio::inherit());
    if traced {
        child.arg("--traced");
    }
    if args.smoke {
        child.arg("--smoke");
    }
    let out = child.output().expect("start a repetition");
    Record::parse(&String::from_utf8_lossy(&out.stdout)).filter(|_| out.status.success())
}

pub fn workload(spec: &Spec, args: &Args) -> Outcome {
    let mut verdict = Verdict::default();
    let (min_reps, budget_s) = match (args.smoke, args.trace) {
        (true, _) => (1, 0.0),
        (false, false) => (MIN_REPS, args.seconds),
        (false, true) => (MIN_TRACED_REPS, args.seconds / 2.0),
    };
    let mut reps: Vec<Record> = Vec::new();
    let mut measured_s = 0.0;
    while reps.len() < min_reps || (measured_s < budget_s && reps.len() < MAX_REPS) {
        let Some(rep) = spawn_repetition(spec, args, args.trace) else {
            verdict.fatal.push("a repetition died".into());
            break;
        };
        measured_s += rep.value(WALL).unwrap_or(f64::INFINITY);
        reps.push(rep);
    }
    let mut attempted = 0;
    for (i, rep) in reps.iter().enumerate() {
        attempted += rep.arrived;
        verdict.failed_ops += rep.verdict.failed_ops;
        verdict.sampled += rep.verdict.sampled;
        verdict.fatal.extend(rep.verdict.fatal.iter().cloned());
        if rep.counts != reps[0].counts {
            verdict.fatal.push(format!(
                "repetition {i} disagrees with the first: {} vs {}",
                rep.counts, reps[0].counts
            ));
        }
    }
    // Every metric is the median over the repetitions that reported it.
    let column = |name: &str| -> Vec<f64> { reps.iter().filter_map(|r| r.value(name)).collect() };
    let reported = reps.first().map_or(&[][..], |r| &r.metrics[..]);
    let metrics: Vec<Metric> = reported
        .iter()
        .filter(|m| m.name != WALL)
        .map(|m| metric(&m.name, &m.unit, median(&column(&m.name))))
        .collect();
    let raw = metrics
        .iter()
        .map(|m| (m.name.clone(), Json::nums(&column(&m.name))));
    let detail = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Int(args.seed)),
        ("smoke", Json::Bool(args.smoke)),
        ("n", Json::Int(spec.n as u64)),
        ("ops_per_repetition", Json::Int(spec.ops as u64)),
        ("exec_profile", Json::str(spec.profile())),
        ("repetitions", Json::Int(reps.len() as u64)),
        ("sampled_answers", Json::Int(verdict.sampled as u64)),
        ("raw", Json::obj(raw)),
        ("metrics", metrics_json(&metrics)),
        (
            "failures",
            Json::Arr(verdict.fatal.iter().map(Json::str).collect()),
        ),
    ]);
    Outcome {
        verdict,
        attempted: attempted.max(1),
        metrics,
        detail,
    }
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let fields = [("value", Json::Num(m.value)), ("unit", Json::str(&m.unit))];
        (m.name.clone(), Json::obj(fields))
    }))
}
