//! Tests of the benchmark's own machinery, at smoke size.

use crate::bench::{
    median, percentile, repetition, take_once, traced_repetition, untraced_repetition, Counts,
    Record, WALL,
};
use crate::spanned::{self, run_windows};
use crate::spec::{generate, Alg, Spec, Subject, WORKLOADS};
use dmpc_connectivity::{DmpcConnectivity, DmpcMst};
use dmpc_graph::{Edge, Op, Query, Update};
use dmpc_matching::DmpcMaximalMatching;
use dmpc_service::{
    run_service_chaos, CloseReason, UnweightedService, WeightedEdgeService, WindowRecord,
};
use std::cell::Cell;

type Conn = UnweightedService<DmpcConnectivity>;
type Mst = WeightedEdgeService<DmpcMst>;
type Matching = UnweightedService<DmpcMaximalMatching>;

const SEED: u64 = 11;

fn smoke(name: &str) -> Spec {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .expect("a workload of that name")
        .smoke()
}

#[test]
fn percentiles_are_nearest_rank_and_medians_split_even_counts() {
    let hundred = || (1..=100).map(f64::from);
    assert_eq!(percentile(hundred(), 99.0), 99.0);
    assert_eq!(percentile(hundred(), 50.0), 50.0);
    assert_eq!(percentile(hundred(), 100.0), 100.0);
    // Nearest rank never interpolates: p50 of four samples is the second.
    assert_eq!(percentile([4.0, 1.0, 3.0, 2.0], 50.0), 2.0);
    assert_eq!(percentile([7.0], 99.0), 7.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn take_once_hands_out_the_first_then_rebuilds() {
    let rebuilt = Cell::new(0);
    let make = take_once(String::from("first"), || {
        rebuilt.set(rebuilt.get() + 1);
        String::from("rebuilt")
    });
    assert_eq!(make(), "first");
    assert_eq!(rebuilt.get(), 0);
    assert_eq!(make(), "rebuilt");
    assert_eq!(make(), "rebuilt");
    assert_eq!(rebuilt.get(), 2);
}

#[test]
fn the_factory_rebuilds_one_replica_per_kill() {
    let spec = smoke("conn-chaos");
    let inputs = generate(&spec, SEED);
    let builds = Cell::new(0);
    let build = || {
        builds.set(builds.get() + 1);
        Conn::build(&spec, SEED, &inputs.preload)
    };
    let cfg = spec.service_config();
    let plan = spec.chaos_plan(SEED, cfg.window.max_ops);
    let make = take_once(build(), build);
    let rep = run_service_chaos(make, &inputs.trace, &cfg, &plan);
    assert_eq!(rep.retries, spec.kills, "every planned kill fires");
    assert_eq!(builds.get(), 1 + spec.kills, "one replica per victim");
    assert_eq!(rep.violations(), 0);
}

/// Digest, answers and every model count are the same behind `Spanned`.
fn spanned_is_transparent<A: Subject>(spec: &Spec) {
    let plain = repetition::<A>(spec, SEED, false);
    let traced = repetition::<A>(spec, SEED, true);
    assert_eq!(Counts::of(&plain.report), Counts::of(&traced.report));
    assert_eq!(plain.report.answers, traced.report.answers);
    assert_eq!(plain.report.windows, traced.report.windows);
    assert!(plain.spans.is_empty());
    assert_eq!(traced.spans[0].name, spanned::ROOT);
    assert!(traced.spans[1..].iter().all(|s| s.parent == Some(0)));
    let kills = traced
        .spans
        .iter()
        .filter(|s| s.name == spanned::KILL)
        .count();
    assert_eq!(kills, spec.kills);
    assert_eq!(traced.report.retries, spec.kills);
}

#[test]
fn spanned_is_transparent_without_a_kill() {
    spanned_is_transparent::<Conn>(&smoke("conn-mixed"));
    spanned_is_transparent::<Mst>(&smoke("mst-mixed"));
    spanned_is_transparent::<Matching>(&smoke("match-write"));
}

#[test]
fn spanned_is_transparent_with_kills() {
    spanned_is_transparent::<Conn>(&smoke("conn-chaos"));
}

#[test]
fn counts_repeat_exactly_for_one_seed() {
    fn twice<A: Subject>(spec: &Spec) {
        let a = repetition::<A>(spec, SEED, false);
        let b = repetition::<A>(spec, SEED, false);
        assert_eq!(
            Counts::of(&a.report),
            Counts::of(&b.report),
            "{}",
            spec.name
        );
        let other = repetition::<A>(spec, SEED + 1, false);
        assert_ne!(Counts::of(&a.report), Counts::of(&other.report));
    }
    twice::<Conn>(&smoke("conn-read95"));
    twice::<Conn>(&smoke("conn-mixed-pool"));
    twice::<Mst>(&smoke("mst-mixed"));
    twice::<Matching>(&smoke("match-write"));
}

/// One traced repetition of a workload, all its checks passing.
fn traced_record(spec: &Spec) -> Record {
    let (record, _trace) = match spec.alg {
        Alg::Conn => traced_repetition::<Conn>(spec, SEED),
        Alg::Mst => traced_repetition::<Mst>(spec, SEED),
        Alg::Matching => traced_repetition::<Matching>(spec, SEED),
    };
    assert!(record.verdict.ok(), "{}: {:?}", spec.name, record.verdict);
    assert!(record.verdict.sampled > 0 || spec.alg == Alg::Matching);
    record
}

#[test]
fn every_workload_passes_its_checks_and_its_attribution_closes() {
    for spec in WORKLOADS.map(Spec::smoke) {
        let record = traced_record(&spec);
        let share = |name: &str| record.value(name).expect(name);
        let closed = share("service.self_share")
            + share("batch.share")
            + share("query.share")
            + share("core.recovery_share")
            + share("core.digest_share");
        assert!((closed - 1.0).abs() < 1e-6, "{}: {closed}", spec.name);
        assert!(share("service.self_share") >= 0.0);
        assert_eq!(share("core.kills"), spec.kills as f64);
        assert_eq!(share("batch.violations"), 0.0);

        let parsed = Record::parse(&record.to_lines()).expect("a whole record");
        assert_eq!(parsed.counts, record.counts);
        assert_eq!(parsed.arrived, record.arrived);
        assert_eq!(parsed.metrics.len(), record.metrics.len());
        assert_eq!(parsed.value("mpc.rounds"), record.value("mpc.rounds"));
    }
    assert!(
        Record::parse("m\tops_per_s\t1/s\t3.5\n").is_none(),
        "cut short"
    );
}

#[test]
fn benchmark_json_names_what_the_binary_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let named = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
    // The pool cell is recorded by run.sh but not gated (README: it needs
    // two free vCPUs, which the reference host does not always have).
    for spec in &WORKLOADS {
        assert_eq!(named(spec.name), !spec.pool, "{}", spec.name);
    }
    // Every metric either kind of repetition reports, bar the budgeting one.
    let spec = smoke("conn-chaos");
    let emitted: Vec<String> = [
        untraced_repetition::<Conn>(&spec, SEED),
        traced_record(&spec),
    ]
    .iter()
    .flat_map(|record| &record.metrics)
    .map(|m| m.name.clone())
    .filter(|name| name != WALL)
    .collect();
    for name in &emitted {
        assert!(named(name), "metric {name} is not in BENCHMARK.json");
    }
    assert_eq!(text.matches("\"better\"").count(), emitted.len());
}

#[test]
fn run_windows_counts_maximal_same_kind_runs() {
    let write = Op::Write(Update::Insert(Edge::new(0, 1)));
    let read = Op::Read(Query::ComponentOf(0));
    let window = |index, ops| WindowRecord {
        index,
        opened_tick: 0,
        closed_tick: 0,
        reason: CloseReason::Size,
        ops,
    };
    let windows = [
        window(0, vec![write, write, read, write]),
        window(1, vec![read]),
        window(2, vec![read, read, write]),
    ];
    assert_eq!(run_windows(&windows), vec![0, 0, 0, 1, 2, 2]);
}
