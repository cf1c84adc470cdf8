//! Growth-exponent fits across input sizes.

use dmpc_mpc::{loglog_slope, AggregateMetrics};

/// Log-log growth exponents against `N` of a sweep's worst-case rounds per
/// update, active machines and words per round — Table 1's three columns
/// (≈ 0 is O(1), ≈ 0.5 is O(sqrt N)).
pub fn slopes(points: &[(usize, AggregateMetrics)]) -> [f64; 3] {
    let fit = |f: fn(&AggregateMetrics) -> usize| {
        let of = |(n, agg): &(usize, AggregateMetrics)| (*n as f64, f(agg).max(1) as f64);
        loglog_slope(&points.iter().map(of).collect::<Vec<_>>())
    };
    [
        fit(|a| a.max_rounds),
        fit(|a| a.max_active_machines),
        fit(|a| a.max_words_per_round),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpc_mpc::UpdateMetrics;

    #[test]
    fn sweep_slopes() {
        let point = |k: u32| {
            let n = 1usize << k;
            let mut agg = AggregateMetrics::default();
            agg.absorb(&UpdateMetrics {
                rounds: 5,                                       // flat
                max_active_machines: (n as f64).sqrt() as usize, // sqrt growth
                max_words_per_round: n,                          // linear growth
                ..Default::default()
            });
            (n, agg)
        };
        let [rounds, machines, words] = slopes(&(6..12).map(point).collect::<Vec<_>>());
        assert!(rounds.abs() < 0.05);
        assert!((machines - 0.5).abs() < 0.05);
        assert!((words - 1.0).abs() < 0.05);
    }
}
