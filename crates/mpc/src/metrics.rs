//! Metering: the three DMPC complexity quantities plus capacity violations
//! and the communication-entropy metric from the paper's Section 8.

use crate::MachineId;
use std::collections::HashMap;

/// A violation of the model's capacity constraints. The simulator records
/// violations instead of aborting so experiments can report them; the test
/// suite asserts that well-formed algorithms produce none.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A machine sent more than `S` words in one round.
    SendCap {
        /// Offending machine.
        machine: MachineId,
        /// Words actually sent.
        words: usize,
        /// The cap `S`.
        cap: usize,
        /// Round within the update.
        round: u32,
    },
    /// A machine received more than `S` words in one round.
    RecvCap {
        /// Offending machine.
        machine: MachineId,
        /// Words actually received.
        words: usize,
        /// The cap `S`.
        cap: usize,
        /// Round within the update.
        round: u32,
    },
    /// A machine's resident memory exceeded `S` words after a round.
    Memory {
        /// Offending machine.
        machine: MachineId,
        /// Resident words.
        words: usize,
        /// The cap `S`.
        cap: usize,
        /// Round within the update.
        round: u32,
    },
    /// An update did not quiesce within the round limit.
    RoundLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// A message was addressed to a killed machine and dropped (chaos
    /// plane; see [`crate::cluster::Cluster::kill`]). One violation per
    /// dropped message — correct recovery protocols never message the dead.
    DeadMachine {
        /// The dead addressee.
        machine: MachineId,
        /// Round within the update.
        round: u32,
    },
    /// A message was in flight (sent, or queued in the victim's inbox) when
    /// a *mid-round* kill fired, and was quarantined. Unlike
    /// [`Violation::DeadMachine`] — which marks protocol bugs (messaging a
    /// machine known to be dead) — `LostInFlight` is the expected,
    /// exactly-accounted cost of an in-round failure: the flow-map
    /// conservation law `sent == delivered + lost` holds word-for-word over
    /// every machine-to-machine message (external injections are flagged
    /// and excluded, since injections are free in the model).
    LostInFlight {
        /// The machine that died with the message addressed to it.
        machine: MachineId,
        /// Round within the update at which the message was quarantined.
        round: u32,
        /// Exact payload size of the lost message, in words.
        words: usize,
        /// True if the lost message was an external injection (not counted
        /// in machine-to-machine flow conservation).
        external: bool,
    },
}

/// Measurements for one update (= one injected operation driven to
/// quiescence).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UpdateMetrics {
    /// Number of synchronous rounds the update needed.
    pub rounds: usize,
    /// Maximum over rounds of active machines (machines stepped in a round
    /// = machines receiving messages, the paper's "active" machines).
    pub max_active_machines: usize,
    /// Distinct machines active in *any* round of the update — the paper's
    /// "machines used per update". `max_active_machines` bounds one round;
    /// this counts the whole footprint (a 3-round update touching disjoint
    /// pairs has `max_active_machines = 2` but `machines_touched = 6`).
    pub machines_touched: usize,
    /// Maximum over rounds of words communicated (the paper's
    /// "communication per round").
    pub max_words_per_round: usize,
    /// Total words over all rounds.
    pub total_words: usize,
    /// Total messages over all rounds.
    pub total_messages: usize,
    /// Total machine-to-machine words *sent* over all rounds. Equal to
    /// `total_words` minus delivered external-injection words when no
    /// mid-round kill fired; under in-round chaos the conservation law is
    /// `total_words_sent == delivered machine words + lost machine words`
    /// (see [`Violation::LostInFlight`]).
    pub total_words_sent: usize,
    /// Words quarantined by mid-round kills (machine-to-machine only).
    pub lost_words: usize,
    /// Messages quarantined by mid-round kills (machine-to-machine only).
    pub lost_messages: usize,
    /// Capacity violations observed.
    pub violations: Vec<Violation>,
    /// Pairwise flows (src, dst) -> words, if flow tracking is enabled.
    pub flows: HashMap<(MachineId, MachineId), u64>,
}

impl UpdateMetrics {
    /// Shannon entropy (bits) of the normalized pairwise-flow distribution —
    /// the metric proposed in the paper's Section 8. Returns 0 for empty
    /// flows. Higher = communication spread more uniformly across machine
    /// pairs; coordinator-centric algorithms score low.
    pub fn flow_entropy_bits(&self) -> f64 {
        entropy_bits(self.flows.values().copied())
    }

    /// True if the update respected every model constraint.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Shannon entropy in bits of an unnormalized weight distribution.
pub fn entropy_bits<I: IntoIterator<Item = u64>>(weights: I) -> f64 {
    let ws: Vec<u64> = weights.into_iter().filter(|&w| w > 0).collect();
    let total: u64 = ws.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    -ws.iter()
        .map(|&w| {
            let p = w as f64 / total;
            p * p.log2()
        })
        .sum::<f64>()
}

/// Cost of a *batch* of `k` edge updates driven as one unit of work: totals
/// over every round the batch needed, plus the per-update amortized views
/// the batch-dynamic literature reports (Nowicki–Onak, arXiv:2002.07800).
///
/// A batch may be executed as one quiescence run ([`crate::Cluster::run_batch`]),
/// as several chunked runs, or as `k` looped single-update runs — the
/// accounting is identical, so looped and genuinely-batched execution are
/// directly comparable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchMetrics {
    /// Updates the batch logically contains (the amortization denominator).
    /// Updates cancelled inside the batch still count: the caller asked for
    /// them, so they are free work the batch absorbed.
    pub updates: usize,
    /// Total synchronous rounds across the batch's runs.
    pub rounds: usize,
    /// Maximum over rounds of active machines (under the combined load).
    pub max_active_machines: usize,
    /// Maximum over the batch's runs of distinct machines touched per run
    /// (chunked execution cannot reconstruct the distinct set across runs,
    /// so the per-run maximum is the honest aggregate).
    pub machines_touched: usize,
    /// Maximum over rounds of words communicated (under the combined load).
    pub max_words_per_round: usize,
    /// Total words over all rounds.
    pub total_words: usize,
    /// Total messages over all rounds.
    pub total_messages: usize,
    /// Words quarantined by mid-round kills across the batch's runs.
    pub lost_words: usize,
    /// Messages quarantined by mid-round kills across the batch's runs.
    pub lost_messages: usize,
    /// Capacity violations observed under the combined load.
    pub violations: usize,
    /// Conflict groups the batch's structural phases partitioned into,
    /// summed over the batch's runs (0 when no structural phase ran, or for
    /// drivers that predate the conflict scheduler).
    pub conflict_groups: usize,
    /// Largest conflict group (structural items that must serialize) across
    /// the batch's runs — the round floor of the conflict scheduler.
    pub conflict_depth: usize,
    /// Maximum structural protocol lanes concurrently in flight across the
    /// batch's runs (bounded by the controller's lane cap).
    pub max_lanes: usize,
}

impl BatchMetrics {
    /// Wraps one quiescence run that processed `updates` logical updates.
    pub fn from_run(updates: usize, m: &UpdateMetrics) -> Self {
        let mut b = BatchMetrics {
            updates,
            ..Default::default()
        };
        b.absorb_run(m);
        b
    }

    /// Folds one quiescence run's metrics into the batch totals without
    /// changing the update count (used for chunked execution; adjust
    /// [`BatchMetrics::updates`] separately).
    pub fn absorb_run(&mut self, m: &UpdateMetrics) {
        self.rounds += m.rounds;
        self.max_active_machines = self.max_active_machines.max(m.max_active_machines);
        self.machines_touched = self.machines_touched.max(m.machines_touched);
        self.max_words_per_round = self.max_words_per_round.max(m.max_words_per_round);
        self.total_words += m.total_words;
        self.total_messages += m.total_messages;
        self.lost_words += m.lost_words;
        self.lost_messages += m.lost_messages;
        self.violations += m.violations.len();
    }

    /// Folds one single-update run into the totals *and* counts it as one
    /// logical update (the looped-execution accounting).
    pub fn absorb_update(&mut self, m: &UpdateMetrics) {
        self.updates += 1;
        self.absorb_run(m);
    }

    /// Merges another batch (e.g. successive chunks of a longer stream).
    pub fn merge(&mut self, other: &BatchMetrics) {
        self.updates += other.updates;
        self.rounds += other.rounds;
        self.max_active_machines = self.max_active_machines.max(other.max_active_machines);
        self.machines_touched = self.machines_touched.max(other.machines_touched);
        self.max_words_per_round = self.max_words_per_round.max(other.max_words_per_round);
        self.total_words += other.total_words;
        self.total_messages += other.total_messages;
        self.lost_words += other.lost_words;
        self.lost_messages += other.lost_messages;
        self.violations += other.violations;
        self.conflict_groups += other.conflict_groups;
        self.conflict_depth = self.conflict_depth.max(other.conflict_depth);
        self.max_lanes = self.max_lanes.max(other.max_lanes);
    }

    /// Amortized rounds per update (0 for an empty batch).
    pub fn amortized_rounds(&self) -> f64 {
        ratio(self.rounds, self.updates)
    }

    /// Amortized communication (words) per update.
    pub fn amortized_words(&self) -> f64 {
        ratio(self.total_words, self.updates)
    }

    /// Amortized messages per update.
    pub fn amortized_messages(&self) -> f64 {
        ratio(self.total_messages, self.updates)
    }

    /// True if the batch respected every model constraint.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }
}

/// Cost of a *batch* of `q` read-only queries driven as one unit of work —
/// the query-plane counterpart of [`BatchMetrics`]. A query wave may run as
/// one quiescence run, as several chunked runs (the drivers chunk waves so
/// fan-in respects the machine capacity `S`), or as `q` looped single-query
/// runs; the accounting is identical, so looped and batched execution are
/// directly comparable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryMetrics {
    /// Queries answered (the amortization denominator).
    pub queries: usize,
    /// Total synchronous rounds across the wave's runs.
    pub rounds: usize,
    /// Maximum over rounds of active machines (under the combined load).
    pub max_active_machines: usize,
    /// Maximum over the wave's runs of distinct machines touched per run.
    pub machines_touched: usize,
    /// Maximum over rounds of words communicated.
    pub max_words_per_round: usize,
    /// Total words over all rounds. External query injections are free (like
    /// update injections); this counts the machine-to-machine join traffic.
    pub total_words: usize,
    /// Total messages over all rounds.
    pub total_messages: usize,
    /// Capacity violations observed under the combined load.
    pub violations: usize,
}

impl QueryMetrics {
    /// Wraps one quiescence run that answered `queries` queries.
    pub fn from_run(queries: usize, m: &UpdateMetrics) -> Self {
        let mut q = QueryMetrics {
            queries,
            ..Default::default()
        };
        q.absorb_run(m);
        q
    }

    /// A single query the algorithm does not support: counted, zero cost.
    pub fn one_unanswered() -> Self {
        QueryMetrics {
            queries: 1,
            ..Default::default()
        }
    }

    /// Folds one quiescence run's metrics into the totals without changing
    /// the query count (chunked execution; adjust [`QueryMetrics::queries`]
    /// separately).
    pub fn absorb_run(&mut self, m: &UpdateMetrics) {
        self.rounds += m.rounds;
        self.max_active_machines = self.max_active_machines.max(m.max_active_machines);
        self.machines_touched = self.machines_touched.max(m.machines_touched);
        self.max_words_per_round = self.max_words_per_round.max(m.max_words_per_round);
        self.total_words += m.total_words;
        self.total_messages += m.total_messages;
        self.violations += m.violations.len();
    }

    /// Merges another wave (successive chunks, or a whole looped baseline).
    pub fn merge(&mut self, other: &QueryMetrics) {
        self.queries += other.queries;
        self.rounds += other.rounds;
        self.max_active_machines = self.max_active_machines.max(other.max_active_machines);
        self.machines_touched = self.machines_touched.max(other.machines_touched);
        self.max_words_per_round = self.max_words_per_round.max(other.max_words_per_round);
        self.total_words += other.total_words;
        self.total_messages += other.total_messages;
        self.violations += other.violations;
    }

    /// Amortized rounds per query (0 for an empty wave).
    pub fn amortized_rounds(&self) -> f64 {
        ratio(self.rounds, self.queries)
    }

    /// Amortized communication (words) per query.
    pub fn amortized_words(&self) -> f64 {
        ratio(self.total_words, self.queries)
    }

    /// Amortized messages per query.
    pub fn amortized_messages(&self) -> f64 {
        ratio(self.total_messages, self.queries)
    }

    /// True if the wave respected every model constraint.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }
}

/// Cost of the chaos plane's recovery work — the Table-1-style accounting
/// for machine churn. Separate from [`BatchMetrics`] so harnesses can report
/// workload cost and recovery cost side by side: recovery rounds/words are
/// real model traffic (handoffs flow through the metered `Outbox`), while
/// `replay_*` counts the off-cluster replica replay that rebuilds a killed
/// machine's state before the metered handoff ships it back in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryMetrics {
    /// Chaos events applied (kills are free; revives/splits/merges meter).
    pub events: usize,
    /// Total synchronous rounds across all recovery/migration runs.
    pub rounds: usize,
    /// Maximum over recovery runs of distinct machines touched per run.
    pub machines_touched: usize,
    /// Maximum over rounds of words communicated during recovery.
    pub max_words_per_round: usize,
    /// Total words over all recovery/migration rounds.
    pub total_words: usize,
    /// Total messages over all recovery/migration rounds.
    pub total_messages: usize,
    /// Logical updates replayed onto recovery replicas (the suffix since the
    /// last checkpoint, or the whole log when none was taken).
    pub replay_updates: usize,
    /// Rounds the replica replays consumed (off-cluster work).
    pub replay_rounds: usize,
    /// Capacity violations observed during recovery traffic.
    pub violations: usize,
}

impl RecoveryMetrics {
    /// Folds one metered recovery/migration run (a revive handoff or a
    /// shard migration) into the totals and counts it as one event.
    pub fn absorb_event(&mut self, m: &UpdateMetrics) {
        self.events += 1;
        self.rounds += m.rounds;
        self.machines_touched = self.machines_touched.max(m.machines_touched);
        self.max_words_per_round = self.max_words_per_round.max(m.max_words_per_round);
        self.total_words += m.total_words;
        self.total_messages += m.total_messages;
        self.violations += m.violations.len();
    }

    /// Folds a replica's replay cost (off-cluster state reconstruction).
    pub fn absorb_replay(&mut self, b: &BatchMetrics) {
        self.replay_updates += b.updates;
        self.replay_rounds += b.rounds;
        self.violations += b.violations;
    }

    /// Merges another recovery tally.
    pub fn merge(&mut self, other: &RecoveryMetrics) {
        self.events += other.events;
        self.rounds += other.rounds;
        self.machines_touched = self.machines_touched.max(other.machines_touched);
        self.max_words_per_round = self.max_words_per_round.max(other.max_words_per_round);
        self.total_words += other.total_words;
        self.total_messages += other.total_messages;
        self.replay_updates += other.replay_updates;
        self.replay_rounds += other.replay_rounds;
        self.violations += other.violations;
    }

    /// True if every recovery run respected every model constraint.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Worst-case (max) and total aggregates across a sequence of updates — the
/// exact row format of the paper's Table 1.
#[derive(Clone, Debug, Default)]
pub struct AggregateMetrics {
    /// Updates aggregated.
    pub updates: usize,
    /// Worst-case rounds per update.
    pub max_rounds: usize,
    /// Mean rounds per update.
    pub mean_rounds: f64,
    /// Worst-case active machines in any round.
    pub max_active_machines: usize,
    /// Mean over updates of max-active-machines.
    pub mean_active_machines: f64,
    /// Worst-case distinct machines touched by one update.
    pub max_machines_touched: usize,
    /// Mean over updates of distinct machines touched.
    pub mean_machines_touched: f64,
    /// Worst-case words per round.
    pub max_words_per_round: usize,
    /// Mean over updates of max-words-per-round.
    pub mean_words_per_round: f64,
    /// Total violations across updates.
    pub violations: usize,
    /// Mean flow entropy in bits (only meaningful with flow tracking on).
    pub mean_entropy_bits: f64,
}

impl AggregateMetrics {
    /// Folds one update's metrics into the aggregate.
    pub fn absorb(&mut self, u: &UpdateMetrics) {
        let k = self.updates as f64;
        self.updates += 1;
        let k1 = self.updates as f64;
        self.max_rounds = self.max_rounds.max(u.rounds);
        self.mean_rounds = (self.mean_rounds * k + u.rounds as f64) / k1;
        self.max_active_machines = self.max_active_machines.max(u.max_active_machines);
        self.mean_active_machines =
            (self.mean_active_machines * k + u.max_active_machines as f64) / k1;
        self.max_machines_touched = self.max_machines_touched.max(u.machines_touched);
        self.mean_machines_touched =
            (self.mean_machines_touched * k + u.machines_touched as f64) / k1;
        self.max_words_per_round = self.max_words_per_round.max(u.max_words_per_round);
        self.mean_words_per_round =
            (self.mean_words_per_round * k + u.max_words_per_round as f64) / k1;
        self.violations += u.violations.len();
        self.mean_entropy_bits = (self.mean_entropy_bits * k + u.flow_entropy_bits()) / k1;
    }
}

/// Least-squares slope of `log2(y)` against `log2(x)` — used to fit the
/// growth exponent of communication/machines against `N` in the scaling
/// experiments (`y ~ x^slope`).
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.log2(), y.log2()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_uniform_vs_concentrated() {
        let uniform = entropy_bits([10, 10, 10, 10]);
        assert!((uniform - 2.0).abs() < 1e-9);
        let concentrated = entropy_bits([40, 0, 0, 0]);
        assert_eq!(concentrated, 0.0);
        let skewed = entropy_bits([30, 5, 3, 2]);
        assert!(skewed > 0.0 && skewed < uniform);
    }

    #[test]
    fn aggregate_absorbs_worst_cases() {
        let mut agg = AggregateMetrics::default();
        let u1 = UpdateMetrics {
            rounds: 3,
            max_active_machines: 5,
            max_words_per_round: 100,
            ..Default::default()
        };
        let u2 = UpdateMetrics {
            rounds: 7,
            max_active_machines: 2,
            max_words_per_round: 50,
            ..Default::default()
        };
        agg.absorb(&u1);
        agg.absorb(&u2);
        assert_eq!(agg.updates, 2);
        assert_eq!(agg.max_rounds, 7);
        assert_eq!(agg.max_active_machines, 5);
        assert_eq!(agg.max_words_per_round, 100);
        assert!((agg.mean_rounds - 5.0).abs() < 1e-9);
    }

    #[test]
    fn slope_fits_power_laws() {
        let sqrt_pts: Vec<(f64, f64)> = (4..12)
            .map(|i| {
                let x = (1u64 << i) as f64;
                (x, x.sqrt() * 3.0)
            })
            .collect();
        assert!((loglog_slope(&sqrt_pts) - 0.5).abs() < 1e-9);
        let flat: Vec<(f64, f64)> = (4..12).map(|i| ((1u64 << i) as f64, 5.0)).collect();
        assert!(loglog_slope(&flat).abs() < 1e-9);
        let linear: Vec<(f64, f64)> = (4..12)
            .map(|i| ((1u64 << i) as f64, (1u64 << i) as f64))
            .collect();
        assert!((loglog_slope(&linear) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn batch_metrics_absorb_and_merge() {
        let u1 = UpdateMetrics {
            rounds: 3,
            max_active_machines: 5,
            max_words_per_round: 100,
            total_words: 150,
            total_messages: 9,
            ..Default::default()
        };
        let u2 = UpdateMetrics {
            rounds: 7,
            max_active_machines: 2,
            max_words_per_round: 60,
            total_words: 80,
            total_messages: 4,
            violations: vec![Violation::RoundLimit { limit: 8 }],
            ..Default::default()
        };
        let mut b = BatchMetrics::from_run(4, &u1);
        b.absorb_run(&u2);
        assert_eq!(b.updates, 4);
        assert_eq!(b.rounds, 10);
        assert_eq!(b.max_active_machines, 5);
        assert_eq!(b.max_words_per_round, 100);
        assert_eq!(b.total_words, 230);
        assert_eq!(b.violations, 1);
        assert!(!b.clean());
        assert!((b.amortized_rounds() - 2.5).abs() < 1e-9);
        assert!((b.amortized_words() - 57.5).abs() < 1e-9);

        let mut looped = BatchMetrics::default();
        looped.absorb_update(&u1);
        looped.absorb_update(&u2);
        assert_eq!(looped.updates, 2);
        assert_eq!(looped.rounds, 10);

        let mut merged = b.clone();
        merged.merge(&looped);
        assert_eq!(merged.updates, 6);
        assert_eq!(merged.rounds, 20);
        assert_eq!(merged.total_messages, 26);
    }

    #[test]
    fn query_metrics_absorb_and_merge() {
        let u1 = UpdateMetrics {
            rounds: 2,
            max_active_machines: 4,
            max_words_per_round: 30,
            total_words: 40,
            total_messages: 10,
            ..Default::default()
        };
        let u2 = UpdateMetrics {
            rounds: 2,
            max_active_machines: 6,
            total_words: 60,
            total_messages: 15,
            violations: vec![Violation::RoundLimit { limit: 8 }],
            ..Default::default()
        };
        let mut w = QueryMetrics::from_run(16, &u1);
        w.absorb_run(&u2);
        assert_eq!(w.queries, 16);
        assert_eq!(w.rounds, 4);
        assert_eq!(w.max_active_machines, 6);
        assert_eq!(w.total_words, 100);
        assert!((w.amortized_rounds() - 0.25).abs() < 1e-9);
        assert!((w.amortized_words() - 6.25).abs() < 1e-9);
        assert!(!w.clean());

        let mut looped = QueryMetrics::default();
        looped.merge(&QueryMetrics::from_run(1, &u1));
        looped.merge(&QueryMetrics::one_unanswered());
        assert_eq!(looped.queries, 2);
        assert_eq!(looped.rounds, 2);
        assert!((looped.amortized_rounds() - 1.0).abs() < 1e-9);
        assert!(looped.clean());
        assert_eq!(QueryMetrics::default().amortized_rounds(), 0.0);
    }

    #[test]
    fn batch_metrics_empty_is_zero() {
        let b = BatchMetrics::default();
        assert_eq!(b.amortized_rounds(), 0.0);
        assert_eq!(b.amortized_messages(), 0.0);
        assert!(b.clean());
    }

    #[test]
    fn update_metrics_entropy_from_flows() {
        let mut u = UpdateMetrics::default();
        u.flows.insert((0, 1), 10);
        u.flows.insert((0, 2), 10);
        assert!((u.flow_entropy_bits() - 1.0).abs() < 1e-9);
        assert!(u.clean());
        u.violations.push(Violation::RoundLimit { limit: 8 });
        assert!(!u.clean());
    }
}
