//! Stats machines: exact per-vertex records.

use super::msg::{MatchMsg, StatRec};
use dmpc_graph::V;
use dmpc_mpc::text::{self, put_field, Fields, Sink};
use std::collections::BTreeMap;

/// A stats machine owning a contiguous block of vertex records. Records are
/// exact at all times: the coordinator pushes every change as part of the
/// update that causes it — which is what lets [`MatchMsg::QIsMatched`]
/// queries be answered here in one round, bypassing the coordinator.
#[derive(Debug, Default)]
pub struct StatsMachine {
    recs: BTreeMap<V, StatRec>,
    /// Query answers stashed for driver-side extraction after the wave.
    answers: Vec<(u32, bool)>,
    /// Inbound recovery-snapshot chunks accumulated so far.
    snap_buf: Vec<u64>,
}

impl StatsMachine {
    /// Creates the machine owning vertices `lo..hi`.
    pub fn new(lo: V, hi: V) -> Self {
        StatsMachine {
            recs: (lo..hi).map(|v| (v, StatRec::new())).collect(),
            answers: Vec::new(),
            snap_buf: Vec::new(),
        }
    }

    /// Fail-stop wipe (chaos plane): drops all program state.
    pub fn wipe(&mut self) {
        self.recs.clear();
        self.answers.clear();
        self.snap_buf = Vec::new();
    }

    /// Renders the record table (deterministic: key order).
    pub fn write_text<S: Sink>(&self, s: &mut S) {
        s.put(b"stats v1\n");
        for (&v, r) in &self.recs {
            s.put(b"rec");
            put_field(s, v as u64);
            put_field(s, r.degree as u64);
            put_field(s, r.mate as u64);
            put_field(s, r.heavy as u64);
            put_field(s, r.free_nbrs as u64);
            s.put(b"\n");
        }
    }

    /// Plain-text snapshot ([`StatsMachine::write_text`] as a `String`).
    pub fn snapshot_text(&self) -> String {
        text::render(|s| self.write_text(s))
    }

    /// Full state restore from [`StatsMachine::snapshot_text`] output.
    pub fn restore_text(&mut self, text: &str) {
        self.wipe();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("stats v1"), "snapshot header");
        for line in lines {
            let mut f = Fields::new(line);
            assert_eq!(f.word(), Some(&b"rec"[..]));
            let v: V = f.dec();
            self.recs.insert(
                v,
                StatRec {
                    degree: f.dec(),
                    mate: f.dec(),
                    heavy: f.flag(),
                    free_nbrs: f.dec(),
                },
            );
        }
    }

    /// Drains the query answers stashed here (driver-side result extraction
    /// after a wave quiesces — not part of the model).
    pub fn take_answers(&mut self) -> Vec<(u32, bool)> {
        std::mem::take(&mut self.answers)
    }

    /// Read access for audits/extraction.
    pub fn record(&self, v: V) -> Option<&StatRec> {
        self.recs.get(&v)
    }

    /// Direct load for bulk preprocessing.
    pub fn load(&mut self, v: V, rec: StatRec) {
        self.recs.insert(v, rec);
    }

    /// Handles one request, possibly producing a reply for the coordinator.
    pub fn handle(&mut self, msg: MatchMsg) -> Option<MatchMsg> {
        match msg {
            MatchMsg::StatQuery(vs) => Some(MatchMsg::StatReply(
                vs.iter().map(|&v| (v, self.recs[&v])).collect(),
            )),
            MatchMsg::StatSet(rs) => {
                for (v, r) in rs {
                    self.recs.insert(v, r);
                }
                None
            }
            MatchMsg::CounterDelta(vs, delta) => {
                for v in vs {
                    let r = self.recs.get_mut(&v).expect("vertex not owned");
                    let nv = r.free_nbrs as i64 + delta as i64;
                    debug_assert!(nv >= 0, "counter of {v} went negative");
                    r.free_nbrs = nv.max(0) as u32;
                }
                None
            }
            MatchMsg::CounterQuery(vs) => Some(MatchMsg::CounterReply(
                vs.iter().map(|&v| (v, self.recs[&v].free_nbrs)).collect(),
            )),
            MatchMsg::QIsMatched { qid, v } => {
                self.answers.push((qid, self.recs[&v].matched()));
                None
            }
            MatchMsg::SnapChunk { words, last } => {
                self.snap_buf.extend_from_slice(&words);
                if last {
                    let buf = std::mem::take(&mut self.snap_buf);
                    self.restore_text(&dmpc_mpc::unpack_text(&buf));
                }
                Some(MatchMsg::SnapAck)
            }
            other => panic!("stats machine got unexpected message {other:?}"),
        }
    }

    /// Memory footprint in words.
    pub fn memory_words(&self) -> usize {
        1 + 4 * self.recs.len() + 2 * self.answers.len() + self.snap_buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_set_roundtrip() {
        let mut m = StatsMachine::new(0, 10);
        let mut r = StatRec::new();
        r.degree = 3;
        r.mate = 7;
        m.handle(MatchMsg::StatSet(vec![(2, r)]));
        let reply = m.handle(MatchMsg::StatQuery(vec![2, 3])).unwrap();
        match reply {
            MatchMsg::StatReply(rs) => {
                assert_eq!(rs[0].0, 2);
                assert_eq!(rs[0].1.degree, 3);
                assert!(rs[0].1.matched());
                assert!(!rs[1].1.matched());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn is_matched_queries_stash_locally() {
        let mut m = StatsMachine::new(0, 10);
        let mut r = StatRec::new();
        r.mate = 7;
        m.handle(MatchMsg::StatSet(vec![(2, r)]));
        assert!(m.handle(MatchMsg::QIsMatched { qid: 0, v: 2 }).is_none());
        assert!(m.handle(MatchMsg::QIsMatched { qid: 1, v: 3 }).is_none());
        assert_eq!(m.take_answers(), vec![(0, true), (1, false)]);
        // Drained: a second take is empty.
        assert!(m.take_answers().is_empty());
    }

    #[test]
    fn counters() {
        let mut m = StatsMachine::new(0, 5);
        m.handle(MatchMsg::CounterDelta(vec![1, 2], 2));
        m.handle(MatchMsg::CounterDelta(vec![1], -1));
        match m.handle(MatchMsg::CounterQuery(vec![1, 2])).unwrap() {
            MatchMsg::CounterReply(rs) => {
                assert_eq!(rs, vec![(1, 1), (2, 2)]);
            }
            _ => panic!(),
        }
    }
}
