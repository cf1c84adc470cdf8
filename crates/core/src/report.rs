//! Plain-text table rendering for the bench binaries, plus a serde-free
//! plain-text serialization of [`BatchMetrics`] (no external deps).

use dmpc_mpc::{AggregateMetrics, BatchMetrics, QueryMetrics};

/// One row of a Table-1-style report.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Algorithm / problem name.
    pub name: String,
    /// Paper-claimed bounds (rounds, machines, communication), free text.
    pub claimed: (String, String, String),
    /// Measured aggregate.
    pub agg: AggregateMetrics,
    /// Optional batched-execution measurement on the same stream; rendered
    /// as an amortized-cost column when present.
    pub batch: Option<BatchMetrics>,
    /// Optional batched query-wave measurement against the final structure;
    /// rendered as an amortized rounds-per-query column when present.
    pub query: Option<QueryMetrics>,
}

/// Renders rows as an aligned plain-text table comparing paper claims with
/// measured worst cases. Rows carrying a [`TableRow::batch`] measurement get
/// an extra amortized rounds-per-update column; rows carrying a
/// [`TableRow::query`] measurement get an amortized rounds-per-query column.
pub fn render_table(title: &str, rows: &[TableRow]) -> String {
    let with_batch = rows.iter().any(|r| r.batch.is_some());
    let with_query = rows.iter().any(|r| r.query.is_some());
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let mut header = format!(
        "{:<26} | {:>14} | {:>9} | {:>16} | {:>10} | {:>16} | {:>12} | {:>5}",
        "problem",
        "claimed rounds",
        "rounds",
        "claimed machines",
        "machines",
        "claimed comm",
        "comm (words)",
        "viol"
    );
    if with_batch {
        header.push_str(&format!(" | {:>13}", "batch rnds/up"));
    }
    if with_query {
        header.push_str(&format!(" | {:>12}", "query rnds/q"));
    }
    header.push('\n');
    let width = header.len();
    out.push_str(&"-".repeat(width.saturating_sub(1)));
    out.push('\n');
    out.push_str(&header);
    out.push_str(&"-".repeat(width.saturating_sub(1)));
    out.push('\n');
    for r in rows {
        let mut line = format!(
            "{:<26} | {:>14} | {:>9} | {:>16} | {:>10} | {:>16} | {:>12} | {:>5}",
            r.name,
            r.claimed.0,
            r.agg.max_rounds,
            r.claimed.1,
            r.agg.max_active_machines,
            r.claimed.2,
            r.agg.max_words_per_round,
            r.agg.violations,
        );
        if with_batch {
            match &r.batch {
                Some(b) => line.push_str(&format!(" | {:>13.2}", b.amortized_rounds())),
                None => line.push_str(&format!(" | {:>13}", "-")),
            }
        }
        if with_query {
            match &r.query {
                Some(q) => line.push_str(&format!(" | {:>12.2}", q.amortized_rounds())),
                None => line.push_str(&format!(" | {:>12}", "-")),
            }
        }
        line.push('\n');
        out.push_str(&line);
    }
    out
}

/// Serializes a [`BatchMetrics`] as one stable `key=value` line, e.g.
/// `updates=64 rounds=12 max_active=9 max_words=210 total_words=900
/// total_msgs=188 violations=0`. Serde-free by design: reports embed it
/// verbatim.
pub fn batch_to_plain(b: &BatchMetrics) -> String {
    format!(
        "updates={} rounds={} max_active={} machines_touched={} max_words={} total_words={} total_msgs={} lost_words={} lost_msgs={} violations={} conflict_groups={} conflict_depth={} max_lanes={}",
        b.updates,
        b.rounds,
        b.max_active_machines,
        b.machines_touched,
        b.max_words_per_round,
        b.total_words,
        b.total_messages,
        b.lost_words,
        b.lost_messages,
        b.violations,
        b.conflict_groups,
        b.conflict_depth,
        b.max_lanes
    )
}

/// Serializes a [`QueryMetrics`] as one stable `key=value` line (the
/// query-plane sibling of [`batch_to_plain`]).
pub fn query_to_plain(q: &QueryMetrics) -> String {
    format!(
        "queries={} rounds={} max_active={} machines_touched={} max_words={} total_words={} total_msgs={} violations={}",
        q.queries,
        q.rounds,
        q.max_active_machines,
        q.machines_touched,
        q.max_words_per_round,
        q.total_words,
        q.total_messages,
        q.violations
    )
}

/// Renders a scaling sweep as `N, rounds, machines, words` rows plus fitted
/// slopes.
pub fn render_sweep(name: &str, sweep: &crate::experiment::ScalingSweep) -> String {
    let mut out = String::new();
    out.push_str(&format!("scaling of {name} (worst case per update)\n"));
    out.push_str(&format!(
        "{:>10} | {:>7} | {:>9} | {:>12}\n",
        "N", "rounds", "machines", "words/round"
    ));
    for p in &sweep.points {
        out.push_str(&format!(
            "{:>10} | {:>7} | {:>9} | {:>12}\n",
            p.input_size, p.agg.max_rounds, p.agg.max_active_machines, p.agg.max_words_per_round
        ));
    }
    out.push_str(&format!(
        "fitted exponents vs N: rounds {:+.3}, machines {:+.3}, words {:+.3}\n",
        sweep.rounds_slope(),
        sweep.machines_slope(),
        sweep.words_slope()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rows() {
        let mut agg = AggregateMetrics::default();
        let m = dmpc_mpc::UpdateMetrics {
            rounds: 3,
            max_active_machines: 2,
            max_words_per_round: 40,
            ..Default::default()
        };
        agg.absorb(&m);
        let rows = vec![TableRow {
            name: "maximal matching".into(),
            claimed: ("O(1)".into(), "O(1)".into(), "O(sqrt N)".into()),
            agg,
            batch: None,
            query: None,
        }];
        let s = render_table("Table 1", &rows);
        assert!(s.contains("maximal matching"));
        assert!(s.contains("O(sqrt N)"));
        assert!(s.contains(" 3 "));
        assert!(!s.contains("batch rnds/up"));
        assert!(!s.contains("query rnds/q"));
    }

    #[test]
    fn renders_batch_column_when_present() {
        let mut agg = AggregateMetrics::default();
        agg.absorb(&dmpc_mpc::UpdateMetrics::default());
        let b = BatchMetrics {
            updates: 4,
            rounds: 10,
            ..Default::default()
        };
        let rows = vec![
            TableRow {
                name: "batched".into(),
                claimed: ("O(1)".into(), "O(1)".into(), "O(sqrt N)".into()),
                agg: agg.clone(),
                batch: Some(b),
                query: Some(QueryMetrics {
                    queries: 8,
                    rounds: 4,
                    ..Default::default()
                }),
            },
            TableRow {
                name: "unbatched".into(),
                claimed: ("O(1)".into(), "O(1)".into(), "O(sqrt N)".into()),
                agg,
                batch: None,
                query: None,
            },
        ];
        let s = render_table("Table 1", &rows);
        assert!(s.contains("batch rnds/up"));
        assert!(s.contains("2.50"));
        // The query column renders amortized rounds per query.
        assert!(s.contains("query rnds/q"));
        assert!(s.contains("0.50"));
        // Rows without a batch measurement render a dash.
        assert!(s
            .lines()
            .any(|l| l.starts_with("unbatched") && l.ends_with('-')));
    }

    #[test]
    fn renders_sweep() {
        let mut sweep = crate::experiment::ScalingSweep::default();
        let mut agg = AggregateMetrics::default();
        agg.absorb(&dmpc_mpc::UpdateMetrics::default());
        sweep.push(1024, agg);
        let s = render_sweep("connectivity", &sweep);
        assert!(s.contains("1024"));
        assert!(s.contains("fitted exponents"));
    }
}
