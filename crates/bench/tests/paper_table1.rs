//! The paper's Table 1 and experiments E9–E11 as assertions, through the
//! same row table, runner and sweep the `reproduce` bin prints. Every
//! measurement here is audited against `DynamicGraph` ground truth by the
//! runner itself (after every update for n <= 128, on the final state
//! above), so a number asserted below was never read off a corrupted state.

use dmpc_bench::experiment::slopes;
use dmpc_bench::{dynamic_vs_static, memory_ablation, sweep, ROWS};

const SEED: u64 = 42;
const STEPS: usize = 300;
/// n = 2^6 … 2^10, i.e. N = n + 3n in [256, 4096].
const SIZES: [usize; 5] = [64, 128, 256, 512, 1024];

/// Fitted exponents are asserted as *upper* bounds: 0.1 where the paper
/// says O(1), 0.65 where it says O(sqrt N) (or O(n / sqrt N)). A row that
/// misses its bound is a finding to record, not a band to widen. The
/// closest today is §3 maximal matching's words per round: N^0.60 on this
/// sweep, but N^0.68 on the `scaling` section's shorter one (seed 1, 120
/// steps, N <= 2048) — see README, section → module map.
fn allowed(exponent: f64) -> f64 {
    if exponent == 0.0 {
        0.1
    } else {
        exponent + 0.15
    }
}

#[test]
fn table1_rows_meet_the_paper_bounds() {
    for row in &ROWS {
        let points = sweep(row, &SIZES, STEPS, SEED);
        for (input, agg) in &points {
            assert_eq!(
                agg.violations, 0,
                "{} violated the model at N = {input}",
                row.name
            );
            assert!(agg.updates > STEPS, "{} at N = {input}", row.name);
        }
        let columns = ["rounds", "active machines", "words per round"];
        for (col, fitted) in slopes(&points).into_iter().enumerate() {
            // Reduction rows claim no power of N for rounds: nothing to fit.
            let (claim, Some(exponent)) = row.claimed[col] else {
                continue;
            };
            assert!(
                fitted <= allowed(exponent),
                "{}: {} grow as N^{fitted:.3}, claimed {claim}",
                row.name,
                columns[col]
            );
        }
    }
}

/// The batch column (Nowicki–Onak, arXiv:2002.07800): for the two rows with
/// a batched program, amortised rounds per update at k = 16 fall below the
/// per-update mean.
#[test]
fn batched_rows_amortize_rounds() {
    for row in [&ROWS[0], &ROWS[3]] {
        let m = row.measure((256, STEPS, SEED));
        let batch = m.batch.expect("a batched program");
        assert_eq!(batch.violations, 0, "{}", row.name);
        assert_eq!(batch.updates, m.agg.updates, "a chunk went missing");
        assert!(
            batch.amortized_rounds() < m.agg.mean_rounds,
            "{}: k=16 costs {:.2} rounds/update, k=1 {:.2}",
            row.name,
            batch.amortized_rounds(),
            m.agg.mean_rounds
        );
    }
}

/// E9: dynamic rounds per update stay flat in n and below one static
/// recomputation, whose words cover the whole graph; label propagation's
/// rounds grow with n.
#[test]
fn dynamic_beats_static_recomputation() {
    for matching in [false, true] {
        let runs = [64, 128, 256].map(|n| dynamic_vs_static(matching, n));
        for (dynamic, fixed) in &runs {
            assert_eq!(
                dynamic.max_rounds, runs[0].0.max_rounds,
                "dynamic rounds not flat"
            );
            assert!(fixed.rounds > dynamic.max_rounds);
            assert!(fixed.total_words > 2 * dynamic.max_words_per_round);
        }
        assert!(runs[2].1.total_words > 2 * runs[0].1.total_words);
        if !matching {
            assert!(runs.windows(2).all(|w| w[0].1.rounds < w[1].1.rounds));
        }
    }
}

/// E10 (Section 8): the broadcast algorithm spreads its communication over
/// machine pairs, the coordinator algorithm concentrates it.
#[test]
fn broadcast_entropy_exceeds_coordinator_entropy() {
    let bits = |row: usize| ROWS[row].measure((128, 150, 9)).agg.mean_entropy_bits;
    let (matching, connectivity) = (bits(0), bits(3));
    assert!(
        connectivity > matching,
        "{connectivity:.3} vs {matching:.3} bits"
    );
}

/// E11 (the Section 3 remark): at a fixed machine count, communication is
/// flat in the per-machine memory S — so shrinking S below the words a
/// round needs (S = 256 < 359 at multiplier 8) breaks the send cap instead
/// of shrinking the words.
#[test]
fn words_are_flat_in_the_memory_multiplier() {
    let mults = [8, 16, 32, 64, 128];
    let runs = mults.map(|mult| memory_ablation(256, mult));
    for (mult, (machines, agg)) in mults.iter().zip(&runs) {
        assert_eq!(agg.violations == 0, *mult >= 16, "multiplier {mult}");
        assert_eq!(*machines, runs[0].0);
        assert_eq!(agg.max_words_per_round, runs[0].1.max_words_per_round);
        assert_eq!(agg.mean_words_per_round, runs[0].1.mean_words_per_round);
    }
}

/// FINDING (ROADMAP item 3): in the giant-component regime (1+eps)-MST
/// breaks the send cap — one `SendCap` at n = 2048 (update 3947: machine 59
/// sends 2,942 words > S = 2,912 in round 7), another at n = 4096; n = 256,
/// 1024 and 8192 are clean. The fix changes rounds, so it waits for item 3.
#[test]
#[ignore = "ROADMAP item 14"]
fn mst_respects_the_send_cap_at_n_2048() {
    assert_eq!(ROWS[4].measure((2048, STEPS, SEED)).agg.violations, 0);
}
