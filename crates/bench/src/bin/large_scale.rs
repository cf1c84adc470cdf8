//! Million-vertex scaling trajectory (PR 7): writes `BENCH_PR7.json`.
//!
//! **What it measures.** n = 2^10 … 2^20 with `P = Θ(N/S)` machines (2048
//! at n = 2^20), over the clustered churn workload (256-vertex component
//! grain — see `trajectory_workload` for why owner-set locality is what
//! makes a one-host simulation of the model feasible at millions of
//! vertices). Each cell reports wall-clock updates/sec, the peak
//! resident-words proxy (which must grow ~linearly in the input), and the
//! model-violation count (which must be zero).
//!
//! Usage: `large_scale [json-path] [exp...]` — defaults: `BENCH_PR7.json`,
//! exps `10 12 14 16 18 20` (`n = 2^exp`). Connectivity runs at every n;
//! matching joins at n >= 2^14 (its coordinator protocol dominates below).
//! The bin asserts zero violations in every cell itself; CI smoke-runs the
//! n = 2^10 cell and gates nothing on the JSON (resident words are pinned
//! by `tests/golden_digests.rs`, wall-clock belongs to `benchmark/`).

use dmpc_bench::{time_stream_batched, trajectory_workload, TimedRun};
use dmpc_connectivity::DmpcConnectivity;
use dmpc_core::DynamicGraphAlgorithm;
use dmpc_graph::Update;
use dmpc_matching::DmpcMaximalMatching;
use dmpc_mpc::ExecOptions;

const SEED: u64 = 42;
/// Batched-replay chunk for the trajectory cells (the PR 5 batch plane).
const K: usize = 64;
/// Matching joins the trajectory here.
const MATCHING_MIN_EXP: u32 = 14;

/// Churn tail per trajectory cell: enough steps for a stable rate at small
/// n, capped so the 2^20 cell (whose 2n-insert build-up already dominates)
/// stays minutes, not hours.
fn churn_steps(n: usize) -> usize {
    (n / 4).clamp(1024, 1 << 18)
}

struct Cell {
    alg: &'static str,
    n: usize,
    p: usize,
    stream_len: usize,
    run: TimedRun,
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".into()
    }
}

fn timed_json(r: &TimedRun) -> String {
    format!(
        concat!(
            "{{\"updates_per_sec\": {}, \"secs\": {}, \"rounds\": {}, ",
            "\"total_words\": {}, \"peak_resident_words\": {}, \"violations\": {}}}"
        ),
        json_f64(r.updates_per_sec()),
        json_f64(r.secs),
        r.batch.rounds,
        r.batch.total_words,
        r.peak_resident_words,
        r.batch.violations,
    )
}

fn main() {
    let json_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR7.json".into());
    let exps: Vec<u32> = {
        let given: Vec<u32> = std::env::args()
            .skip(2)
            .map(|s| s.parse().expect("exp arguments must be integers"))
            .collect();
        if given.is_empty() {
            vec![10, 12, 14, 16, 18, 20]
        } else {
            given
        }
    };
    let host_cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(0);

    println!("Large-n trajectory: clustered churn, lean serial executor, k = {K}\n");
    println!(
        "{:<13} | {:>8} | {:>5} | {:>8} | {:>11} | {:>9} | {:>12} | {:>5}",
        "algorithm", "n", "P", "stream", "updates/s", "secs", "peak words", "viol"
    );
    let mut cells: Vec<Cell> = Vec::new();
    for &e in &exps {
        let n = 1usize << e;
        let (params, ups) = trajectory_workload(n, churn_steps(n), SEED);
        let mut algs: Vec<(
            &'static str,
            Box<dyn DynamicGraphAlgorithm<Update = Update>>,
        )> = vec![(
            "connectivity",
            Box::new(DmpcConnectivity::with_exec(params, ExecOptions::lean())),
        )];
        if e >= MATCHING_MIN_EXP {
            algs.push((
                "matching",
                Box::new(DmpcMaximalMatching::with_exec(params, ExecOptions::lean())),
            ));
        }
        for (alg, mut a) in algs {
            let run = time_stream_batched(a.as_mut(), &ups, K);
            assert_eq!(
                run.batch.violations, 0,
                "{alg} at n=2^{e}: model violations"
            );
            println!(
                "{alg:<13} | {n:>8} | {:>5} | {:>8} | {:>11.1} | {:>9.3} | {:>12} | {:>5}",
                params.storage_machines(),
                ups.len(),
                run.updates_per_sec(),
                run.secs,
                run.peak_resident_words,
                run.batch.violations,
            );
            cells.push(Cell {
                alg,
                n,
                p: params.storage_machines(),
                stream_len: ups.len(),
                run,
            });
        }
    }

    let cell_json: Vec<String> = cells
        .iter()
        .map(|c| {
            let input = c.n + 3 * c.n;
            format!(
                concat!(
                    "    {{\"alg\": \"{}\", \"n\": {}, \"p\": {}, \"stream_len\": {},\n",
                    "     \"current\": {},\n",
                    "     \"words_per_input\": {}}}"
                ),
                c.alg,
                c.n,
                c.p,
                c.stream_len,
                timed_json(&c.run),
                json_f64(c.run.peak_resident_words as f64 / input as f64),
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"large_scale\",\n",
            "  \"pr\": 7,\n",
            "  \"seed\": {},\n",
            "  \"k\": {},\n",
            "  \"host_cores\": {},\n",
            "  \"cells\": [\n{}\n  ]\n",
            "}}\n"
        ),
        SEED,
        K,
        host_cores,
        cell_json.join(",\n"),
    );
    std::fs::write(&json_path, &json).expect("write large-scale JSON");
    println!("\nwrote {json_path}");
}
