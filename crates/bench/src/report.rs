//! Plain-text rendering of the Table-1 comparison and the scaling sweeps.

use crate::experiment::slopes;
use crate::{Measured, Row};
use dmpc_mpc::{AggregateMetrics, BatchMetrics, QueryMetrics};

/// Renders rows as an aligned plain-text table comparing paper claims with
/// measured worst cases, plus amortized rounds per update under batched
/// execution and per query under batched waves (`-` where the algorithm
/// has no such program).
pub fn render_table(title: &str, rows: &[(&Row, Measured)]) -> String {
    let header = "problem                    | claimed rounds |    rounds | claimed machines |   machines |     claimed comm | comm (words) | meter |  viol | batch rnds/up | query rnds/q\n";
    let rule = "-".repeat(header.len() - 1) + "\n";
    let mut out = format!("{title}\n{rule}{header}{rule}");
    let amortized = |x: Option<f64>| x.map_or("-".into(), |x| format!("{x:.2}"));
    for (row, r) in rows {
        out += &format!(
            "{:<26} | {:>14} | {:>9} | {:>16} | {:>10} | {:>16} | {:>12} | {:>5} | {:>5} | {:>13} | {:>12}\n",
            row.name,
            row.claimed[0].0,
            r.agg.max_rounds,
            row.claimed[1].0,
            r.agg.max_active_machines,
            row.claimed[2].0,
            r.agg.max_words_per_round,
            if row.metered { "meter" } else { "model" },
            r.agg.violations,
            amortized(r.batch.as_ref().map(BatchMetrics::amortized_rounds)),
            amortized(r.query.as_ref().map(QueryMetrics::amortized_rounds)),
        );
    }
    out
}

/// Renders a scaling sweep as `N, rounds, machines, words` rows plus fitted
/// slopes.
pub fn render_sweep(name: &str, sweep: &[(usize, AggregateMetrics)]) -> String {
    let mut out = format!(
        "scaling of {name} (worst case per update)\n{:>10} | {:>7} | {:>9} | {:>12}\n",
        "N", "rounds", "machines", "words/round"
    );
    for (n, agg) in sweep {
        out += &format!(
            "{n:>10} | {:>7} | {:>9} | {:>12}\n",
            agg.max_rounds, agg.max_active_machines, agg.max_words_per_round
        );
    }
    let [rounds, machines, words] = slopes(sweep);
    out + &format!(
        "fitted exponents vs N: rounds {rounds:+.3}, machines {machines:+.3}, words {words:+.3}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpc_mpc::UpdateMetrics;

    /// A row named `name` whose batch and query columns, if any, spent
    /// `rounds` rounds on 4 updates and 8 queries.
    fn row(name: &'static str, rounds: Option<usize>) -> (Row, Measured) {
        let claimed = [
            ("O(1)", Some(0.0)),
            ("O(1)", Some(0.0)),
            ("O(sqrt N)", Some(0.5)),
        ];
        let run = |_| unreachable!("rendered, never run");
        let mut agg = AggregateMetrics::default();
        let (updates, queries, rest) = (4, 8, UpdateMetrics::default());
        agg.absorb(&UpdateMetrics { rounds: 3, ..rest });
        let batch = rounds.map(|rounds| BatchMetrics {
            updates,
            rounds,
            ..Default::default()
        });
        let query = rounds.map(|rounds| QueryMetrics {
            queries,
            rounds,
            ..Default::default()
        });
        let metered = true;
        let row = Row {
            name,
            claimed,
            metered,
            run,
        };
        (row, Measured { agg, batch, query })
    }

    #[test]
    fn renders_rows() {
        let (row, measured) = row("maximal matching", None);
        let s = render_table("Table 1", &[(&row, measured)]);
        assert!(s.contains("maximal matching"));
        assert!(s.contains("O(sqrt N)"));
        assert!(s.contains(" 3 "));
    }

    #[test]
    fn renders_batch_column_when_present() {
        let (with, without) = (row("batched", Some(10)), row("unbatched", None));
        let s = render_table("Table 1", &[(&with.0, with.1), (&without.0, without.1)]);
        // Amortized rounds per update and per query.
        assert!(s.contains("2.50") && s.contains("1.25"));
        // Rows without a measurement render a dash.
        assert!(s
            .lines()
            .any(|l| l.starts_with("unbatched") && l.ends_with('-')));
    }

    #[test]
    fn renders_sweep() {
        let s = render_sweep("connectivity", &[(1024, row("", None).1.agg)]);
        assert!(s.contains("1024"));
        assert!(s.contains("fitted exponents"));
    }
}
