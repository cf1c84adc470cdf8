//! Wall-clock throughput of the simulator itself: updates/sec and
//! rounds/sec for the connectivity and maximal-matching churn streams.
//!
//! **Why this exists.** The paper's cost model (Italiano–Lattanzi–Mirrokni–
//! Parotsidis, SPAA 2019, arXiv:1905.09175) charges rounds, machines and
//! communication — it never charges the simulator's own constant factors.
//! But batch-dynamic throughput lives or dies on those constants (Durfee
//! et al., arXiv:1908.01956), so this bin times the executor hot path in
//! real seconds: the same churn stream, serial and parallel, looped (k=1)
//! and batched (k=64), with the peak resident-memory proxy sampled between
//! batches. The result is the repo's wall-clock perf trajectory; PR 3 is
//! its first point (`BENCH_PR3.json`, which also records the pre-overhaul
//! executor's numbers it was compared against at the time).
//!
//! Usage: `throughput [n] [updates] [json-path]` (defaults: 256, 1024,
//! `BENCH_PR3.json`; CI smokes it with tiny sizes and checks the JSON
//! parses).

use dmpc_bench::{canonical_params, canonical_workload, time_stream_batched, TimedRun};
use dmpc_connectivity::DmpcConnectivity;
use dmpc_core::DynamicGraphAlgorithm;
use dmpc_graph::Update;
use dmpc_matching::DmpcMaximalMatching;
use dmpc_mpc::ExecOptions;

/// Fixed worker count: keeps parallel numbers comparable across hosts.
const THREADS: usize = 4;
/// The canonical configuration (`BENCH_PR3.json`).
const CANON_N: usize = 256;
const CANON_UPDATES: usize = 1024;
const SEED: u64 = 42;
/// Repetitions per configuration; the fastest run is reported (standard
/// practice for wall-clock microbenchmarks — the minimum is the least
/// noise-contaminated estimate of the true cost).
const REPS: usize = 3;

struct Measured {
    alg: &'static str,
    backend: &'static str,
    k: usize,
    run: TimedRun,
}

fn exec_for(backend: &str) -> ExecOptions {
    match backend {
        "serial" => ExecOptions::default(),
        // Aggregates-only profile (`record_per_round` and flows off).
        "serial-lean" => ExecOptions::lean(),
        "parallel" => ExecOptions::pool(THREADS),
        other => panic!("unknown backend {other}"),
    }
}

fn make_alg(alg: &str, n: usize, exec: ExecOptions) -> Box<dyn DynamicGraphAlgorithm> {
    let params = canonical_params(n);
    match alg {
        "connectivity" => Box::new(DmpcConnectivity::with_exec(params, exec)),
        "matching" => Box::new(DmpcMaximalMatching::with_exec(params, exec)),
        other => panic!("unknown algorithm {other}"),
    }
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".into()
    }
}

fn config_json(m: &Measured) -> String {
    format!(
        concat!(
            "    {{\"alg\": \"{}\", \"backend\": \"{}\", \"k\": {},\n",
            "     \"current\": {{\"updates_per_sec\": {}, \"rounds_per_sec\": {}, \"secs\": {}, ",
            "\"rounds\": {}, \"total_words\": {}, \"peak_resident_words\": {}, ",
            "\"violations\": {}}}}}"
        ),
        m.alg,
        m.backend,
        m.k,
        json_f64(m.run.updates_per_sec()),
        json_f64(m.run.rounds_per_sec()),
        json_f64(m.run.secs),
        m.run.batch.rounds,
        m.run.batch.total_words,
        m.run.peak_resident_words,
        m.run.batch.violations,
    )
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(CANON_N);
    let updates: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(CANON_UPDATES);
    let json_path = std::env::args()
        .nth(3)
        .unwrap_or_else(|| "BENCH_PR3.json".into());
    let host_cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(0);
    let (_, ups): (_, Vec<Update>) = canonical_workload(n, updates, SEED);

    println!(
        "Executor throughput: n = {n}, {} churn updates, {} worker threads\n",
        ups.len(),
        THREADS
    );
    println!(
        "{:<13} | {:>8} | {:>4} | {:>11} | {:>11} | {:>9} | {:>10}",
        "algorithm", "backend", "k", "updates/s", "rounds/s", "secs", "peak words"
    );

    let mut measured: Vec<Measured> = Vec::new();
    for alg in ["connectivity", "matching"] {
        for backend in ["serial", "serial-lean", "parallel"] {
            for k in [1usize, 64] {
                let run = (0..REPS)
                    .map(|_| {
                        let mut a = make_alg(alg, n, exec_for(backend));
                        time_stream_batched(a.as_mut(), &ups, k)
                    })
                    .min_by(|a, b| a.secs.total_cmp(&b.secs))
                    .expect("at least one rep");
                println!(
                    "{alg:<13} | {backend:>8} | {k:>4} | {:>11.1} | {:>11.1} | {:>9.3} | {:>10}",
                    run.updates_per_sec(),
                    run.rounds_per_sec(),
                    run.secs,
                    run.peak_resident_words,
                );
                measured.push(Measured {
                    alg,
                    backend,
                    k,
                    run,
                });
            }
        }
    }

    let configs: Vec<String> = measured.iter().map(config_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"throughput\",\n",
            "  \"pr\": 3,\n",
            "  \"n\": {},\n",
            "  \"updates\": {},\n",
            "  \"seed\": {},\n",
            "  \"threads\": {},\n",
            "  \"host_cores\": {},\n",
            "  \"configs\": [\n{}\n  ]\n",
            "}}\n"
        ),
        n,
        updates,
        SEED,
        THREADS,
        host_cores,
        configs.join(",\n")
    );
    std::fs::write(&json_path, &json).expect("write throughput JSON");
    println!("\nwrote {json_path}");
}
