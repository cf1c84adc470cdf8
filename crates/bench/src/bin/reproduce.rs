//! Reproduces the paper's measurements (experiments E1–E11) as plain-text
//! tables, through the row table and audited runner `tests/paper_table1.rs`
//! asserts on.
//!
//! Usage: `reproduce [section...]` with sections `table1 [n] [steps]`,
//! `scaling`, `static`, `entropy`, `memory`, `large [exp...]`; a section's
//! numbers follow its name, and no argument prints all six.

use dmpc_bench::report::{render_sweep, render_table};
use dmpc_bench::{
    dynamic_vs_static, memory_ablation, sweep, time_stream_batched, trajectory_workload, ROWS,
};
use dmpc_connectivity::DmpcConnectivity;
use dmpc_core::DynamicGraphAlgorithm;
use dmpc_graph::Update;
use dmpc_matching::DmpcMaximalMatching;
use dmpc_mpc::ExecOptions;

/// E1–E6: Table 1 at one size, paper claim beside measured worst case.
fn table1(n: usize, steps: usize) {
    println!(
        "Empirical Table 1: n = {n}, m_max = {}, {steps} churn updates\n",
        3 * n
    );
    let title = "Table 1 (worst case per update; 'meter' rows run on the simulator)";
    let measured = ROWS.iter().map(|row| (row, row.measure((n, steps, 42))));
    println!("{}", render_table(title, &measured.collect::<Vec<_>>()));
    println!("'meter': counted by the cluster's meter. 'model': the row's cost formula");
    println!("(4 rounds per update in §6, 2 per probe in §7); no cluster runs it, so 'viol' is 0.");
    println!("'viol' counts model violations (must be 0); 'batch rnds/up' and 'query rnds/q'");
    println!("are amortized rounds under k=16 batches and q=16 waves ('-': no such program).\n");
}

/// E7–E8: the *shape* of every row — fitted growth exponents vs N.
fn scaling() {
    for (i, row) in ROWS.iter().enumerate() {
        let name = format!("{} (Table 1 row {})", row.name, i + 1);
        let sw = sweep(row, &[64, 128, 256, 512], 120, 1);
        println!("{}", render_sweep(&name, &sw));
    }
    println!("Expected: rounds ~0 for rows 1-5; words ~0.5 for the sqrt(N) rows, ~0 below.\n");
}

/// E9: dynamic maintenance vs static recomputation after every update.
fn dynamic_vs_static_table() {
    println!("dynamic vs static recompute (per update, worst case)\n");
    println!(
        "{:>6} | {:>14} | {:>14} | {:>16} | {:>16}",
        "n", "dyn rounds", "static rounds", "dyn words/upd", "static words/upd"
    );
    for (title, matching) in [("connectivity", false), ("maximal matching", true)] {
        println!("--- {title} ---");
        for n in [64, 128, 256] {
            let (agg, fixed) = dynamic_vs_static(matching, n);
            println!(
                "{n:>6} | {:>14} | {:>14} | {:>16} | {:>16}",
                agg.max_rounds, fixed.rounds, agg.max_words_per_round, fixed.total_words
            );
        }
    }
    println!("\nStatic recomputation pays rounds growing with n and words ~ the whole graph.\n");
}

/// E10: the Section 8 communication-entropy metric.
fn entropy() {
    let n = 128;
    let bits = |row: usize| ROWS[row].measure((n, 150, 9)).agg.mean_entropy_bits;
    println!("mean per-update communication entropy (bits), n = {n}:");
    println!("  maximal matching (coordinator-centric): {:.3}", bits(0));
    println!("  connectivity (broadcast to all owners): {:.3}", bits(3));
    println!("\nSection 8: a coordinator concentrates communication, a broadcast spreads it.\n");
}

/// E11 (the Section 3 remark): communication follows the machine count, not
/// the per-machine memory.
fn memory() {
    let n = 256;
    println!(
        "memory ablation, maximal matching, n = {n}, m_max = {}:",
        3 * n
    );
    println!(
        "{:>12} | {:>10} | {:>12} | {:>14} | {:>5}",
        "S multiplier", "machines", "max words", "mean words", "viol"
    );
    for mult in [8, 16, 32, 64, 128] {
        let (machines, agg) = memory_ablation(n, mult);
        println!(
            "{mult:>12} | {machines:>10} | {:>12} | {:>14.1} | {:>5}",
            agg.max_words_per_round, agg.mean_words_per_round, agg.violations
        );
    }
    println!("\nWords are flat in S at a fixed machine count (set by N: see `scaling`), so an");
    println!("S below them (multiplier 8: 256 < 359) breaks the send cap instead.\n");
}

/// The large-n trajectory: n = 2^exp with `P = Θ(N/S)` machines (2048 at
/// n = 2^20) over clustered churn at a 256-vertex component grain (see
/// `trajectory_workload` for why owner-set locality is what makes a
/// one-host simulation of the model feasible at millions of vertices),
/// replayed through `apply_batch` at k = 64 on the lean serial executor.
/// Each cell prints wall-clock updates/sec, the peak resident-words proxy
/// (which must grow ~linearly in the input) and the model-violation count,
/// which is asserted zero. Connectivity runs at every n; matching joins at
/// n >= 2^14 (its coordinator protocol dominates below). The full sweep is
/// `large 10 12 14 16 18 20`, minutes at the top end.
fn large(exps: &[usize]) {
    const K: usize = 64;
    println!("Large-n trajectory: clustered churn, lean serial executor, k = {K}\n");
    println!(
        "{:<13} | {:>8} | {:>5} | {:>8} | {:>11} | {:>9} | {:>12} | {:>5}",
        "algorithm", "n", "P", "stream", "updates/s", "secs", "peak words", "viol"
    );
    for &e in if exps.is_empty() { &[10][..] } else { exps } {
        let n = 1usize << e;
        // Enough churn for a stable rate at small n, capped so the 2^20
        // cell (whose 2n-insert build-up already dominates) stays minutes.
        let (params, ups) = trajectory_workload(n, (n / 4).clamp(1024, 1 << 18), 42);
        let mut algs: Vec<(&str, Box<dyn DynamicGraphAlgorithm<Update = Update>>)> = vec![(
            "connectivity",
            Box::new(DmpcConnectivity::with_exec(params, ExecOptions::lean())),
        )];
        if e >= 14 {
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
        }
    }
    println!();
}

/// A section's name and its printer, which takes the section's numbers.
type Section<'a> = (&'a str, &'a dyn Fn(&[usize]));

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A section's numbers: the numeric arguments right after its name.
    let numbers = |name: &str| -> Vec<usize> {
        let after = args.iter().skip_while(|a| *a != name).skip(1);
        after.map_while(|a| a.parse().ok()).collect()
    };
    let sections: [Section; 6] = [
        ("table1", &|at| {
            table1(*at.first().unwrap_or(&256), *at.get(1).unwrap_or(&300))
        }),
        ("scaling", &|_| scaling()),
        ("static", &|_| dynamic_vs_static_table()),
        ("entropy", &|_| entropy()),
        ("memory", &|_| memory()),
        ("large", &large),
    ];
    let named = |a: &String| sections.iter().any(|(name, _)| name == a);
    if let Some(bad) = args
        .iter()
        .find(|a| !named(a) && a.parse::<usize>().is_err())
    {
        eprintln!("unknown section `{bad}` (see the header of reproduce.rs)");
        std::process::exit(2);
    }
    for (name, print) in sections {
        if !args.iter().any(named) || args.iter().any(|a| a == name) {
            print(&numbers(name));
        }
    }
}
