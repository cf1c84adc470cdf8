//! Output checks, all outside every timed region.

use dmpc_graph::{DynamicGraph, Edge, Op, Query, QueryAnswer, Update};
use dmpc_service::{ServiceReport, WindowRecord};

/// One in this many `Connected` answers is checked by BFS.
const SAMPLE_ONE_IN: u64 = 16;

/// What the checks found. `failed_ops` counts single ops that failed (shed,
/// unanswered or wrongly answered); a `fatal` finding (digest, audit,
/// model violation, repetitions that disagree) fails the whole run.
#[derive(Debug, Default)]
pub struct Verdict {
    pub failed_ops: usize,
    pub sampled: usize,
    pub fatal: Vec<String>,
}

impl Verdict {
    pub fn ok(&self) -> bool {
        self.failed_ops == 0 && self.fatal.is_empty()
    }

    /// Every attempted op counts as failed once a fatal check fails.
    pub fn failed_of(&self, attempted: usize) -> usize {
        if self.fatal.is_empty() {
            self.failed_ops.min(attempted)
        } else {
            attempted
        }
    }

    pub fn require(&mut self, what: &str, result: Result<(), String>) {
        if let Err(why) = result {
            self.fatal.push(format!("{what}: {why}"));
        }
    }

    pub fn digests_match(&mut self, what: &str, online: u64, reference: u64) {
        let same = if online == reference {
            Ok(())
        } else {
            Err(format!("{online:#x} != {reference:#x}"))
        };
        self.require(what, same);
    }
}

/// splitmix64: decides which answers are sampled, from the seed alone.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Walks the recorded windows over the reference graph: counts shed,
/// unanswered and degraded ops, checks a seeded sample of `Connected`
/// answers by BFS at the moment they were served, checks the accounting
/// and the model, and returns the ground-truth final graph.
pub fn check_report(
    verdict: &mut Verdict,
    rep: &ServiceReport,
    n: usize,
    preload: &[Edge],
    seed: u64,
) -> DynamicGraph {
    verdict.failed_ops += rep.shed.len();
    if rep.arrived != rep.admitted + rep.shed.len() {
        verdict.fatal.push("arrived != admitted + shed".to_string());
    }
    if rep.violations() != 0 {
        verdict
            .fatal
            .push(format!("{} model violations", rep.violations()));
    }
    check_answers(verdict, &rep.windows, &rep.answers, n, preload, seed)
}

fn check_answers(
    verdict: &mut Verdict,
    windows: &[WindowRecord],
    answers: &[QueryAnswer],
    n: usize,
    preload: &[Edge],
    seed: u64,
) -> DynamicGraph {
    let mut truth = DynamicGraph::from_edges(n, preload);
    let mut next_answer = answers.iter().enumerate();
    for op in windows.iter().flat_map(|w| &w.ops) {
        match *op {
            Op::Write(Update::Insert(e)) => truth.insert(e).expect("valid stream"),
            Op::Write(Update::Delete(e)) => truth.delete(e).expect("valid stream"),
            Op::Read(q) => {
                let Some((i, &answer)) = next_answer.next() else {
                    verdict.fatal.push("fewer answers than reads".to_string());
                    return truth;
                };
                let wrong = match (q, answer) {
                    (_, QueryAnswer::Unsupported | QueryAnswer::Degraded) => true,
                    (Query::Connected(a, b), QueryAnswer::Bool(got))
                        if mix(seed ^ i as u64).is_multiple_of(SAMPLE_ONE_IN) =>
                    {
                        verdict.sampled += 1;
                        got != truth.connected(a, b)
                    }
                    _ => false,
                };
                verdict.failed_ops += usize::from(wrong);
            }
        }
    }
    if next_answer.next().is_some() {
        verdict.fatal.push("more answers than reads".to_string());
    }
    truth
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpc_service::CloseReason;

    fn window(ops: Vec<Op>) -> Vec<WindowRecord> {
        vec![WindowRecord {
            index: 0,
            opened_tick: 0,
            closed_tick: 0,
            reason: CloseReason::Size,
            ops,
        }]
    }

    #[test]
    fn corrupted_answer_and_mismatched_digest_both_count_as_failed() {
        // Path 0-1-2 plus isolated 3; every read is sampled-or-not by the
        // seed, so ask often enough that some are.
        let preload = [Edge::new(0, 1), Edge::new(1, 2)];
        let ops: Vec<Op> = (0..64)
            .map(|i| Op::Read(Query::Connected(0, if i % 2 == 0 { 2 } else { 3 })))
            .collect();
        let right: Vec<QueryAnswer> = (0..64).map(|i| QueryAnswer::Bool(i % 2 == 0)).collect();

        let mut clean = Verdict::default();
        check_answers(&mut clean, &window(ops.clone()), &right, 4, &preload, 7);
        assert!(clean.ok() && clean.sampled > 0, "{clean:?}");

        let wrong: Vec<QueryAnswer> = right
            .iter()
            .map(|a| match a {
                QueryAnswer::Bool(b) => QueryAnswer::Bool(!b),
                other => *other,
            })
            .collect();
        let mut corrupted = Verdict::default();
        check_answers(&mut corrupted, &window(ops.clone()), &wrong, 4, &preload, 7);
        assert_eq!(corrupted.failed_ops, corrupted.sampled);
        assert!(!corrupted.ok());
        assert_eq!(corrupted.failed_of(64), corrupted.sampled);

        let mut unanswered = Verdict::default();
        let degraded = vec![QueryAnswer::Degraded; 64];
        check_answers(&mut unanswered, &window(ops), &degraded, 4, &preload, 7);
        assert_eq!(unanswered.failed_ops, 64);

        let mut digest = Verdict::default();
        digest.digests_match("online vs replay", 1, 2);
        assert!(!digest.ok());
        assert_eq!(digest.failed_of(64), 64, "a fatal check fails every op");
        digest.digests_match("online vs replay", 3, 3);
        assert_eq!(digest.fatal.len(), 1);
    }
}
