//! Reproduces the paper's measurements (experiments E1–E11) as plain-text
//! tables, through the row table and audited runner `tests/paper_table1.rs`
//! asserts on.
//!
//! Usage: `reproduce [section...]` with sections `table1 [n] [steps]`,
//! `scaling`, `static`, `entropy`, `memory`; no argument prints all five.

use dmpc_bench::report::{render_sweep, render_table};
use dmpc_bench::{dynamic_vs_static, memory_ablation, sweep, ROWS};

/// E1–E6: Table 1 at one size, paper claim beside measured worst case.
fn table1(n: usize, steps: usize) {
    println!(
        "Empirical Table 1: n = {n}, m_max = {}, {steps} churn updates\n",
        3 * n
    );
    let title = "Table 1 (worst case per update; measured on the simulator)";
    let measured = ROWS.iter().map(|row| (row, row.measure((n, steps, 42))));
    println!("{}", render_table(title, &measured.collect::<Vec<_>>()));
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
    println!("S below them (multiplier 8: 256 < 359) breaks the send cap instead.");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let numbers: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let number = |at: usize, default| numbers.get(at).copied().unwrap_or(default);
    let sections: [(&str, &dyn Fn()); 5] = [
        ("table1", &|| table1(number(0, 256), number(1, 300))),
        ("scaling", &scaling),
        ("static", &dynamic_vs_static_table),
        ("entropy", &entropy),
        ("memory", &memory),
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
            print();
        }
    }
}
