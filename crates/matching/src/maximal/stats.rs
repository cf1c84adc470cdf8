//! Stats machines: exact per-vertex records.

use super::msg::{MatchMsg, StatRec};
use dmpc_graph::V;
use dmpc_mpc::text::{self, put_field, Fields, Sink};

/// A stats machine owning a contiguous block of vertex records. Records are
/// exact at all times: the coordinator pushes every change as part of the
/// update that causes it — which is what lets [`MatchMsg::QIsMatched`]
/// queries be answered here in one round, bypassing the coordinator.
#[derive(Debug)]
pub struct StatsMachine {
    /// The owned block is `lo..hi`; vertex `v`'s record is `recs[v - lo]`.
    lo: V,
    hi: V,
    recs: Vec<StatRec>,
    /// Query answers stashed for driver-side extraction after the wave.
    answers: Vec<(u32, bool)>,
    /// Inbound recovery-snapshot chunks accumulated so far.
    snap_buf: Vec<u64>,
}

impl StatsMachine {
    /// Creates the machine owning vertices `lo..hi`.
    pub fn new(lo: V, hi: V) -> Self {
        StatsMachine {
            lo,
            hi,
            recs: vec![StatRec::new(); (hi - lo) as usize],
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

    /// The record slot of `v`; panics if `v` is not owned here.
    fn slot(&self, v: V) -> usize {
        assert!(
            (self.lo..self.hi).contains(&v),
            "vertex {v} is not owned by the stats machine of {}..{}",
            self.lo,
            self.hi
        );
        (v - self.lo) as usize
    }

    /// Renders the record table (deterministic: vertex order).
    pub fn write_text<S: Sink>(&self, s: &mut S) {
        s.put(b"stats v1\n");
        for (v, r) in (self.lo..).zip(&self.recs) {
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
    /// Records must come in vertex order from `lo` without gaps, so another
    /// machine's snapshot is refused rather than installed under foreign
    /// keys.
    pub fn restore_text(&mut self, text: &str) {
        self.wipe();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("stats v1"), "snapshot header");
        for line in lines {
            let mut f = Fields::new(line);
            assert_eq!(f.word(), Some(&b"rec"[..]));
            let v: V = f.dec();
            let want = self.lo as usize + self.recs.len();
            assert!(
                v as usize == want && v < self.hi,
                "snapshot record for vertex {v} restored on the stats machine of {}..{}",
                self.lo,
                self.hi
            );
            self.recs.push(StatRec {
                degree: f.dec(),
                mate: f.dec(),
                heavy: f.flag(),
                free_nbrs: f.dec(),
            });
        }
    }

    /// Drains the query answers stashed here (driver-side result extraction
    /// after a wave quiesces — not part of the model).
    pub fn take_answers(&mut self) -> Vec<(u32, bool)> {
        std::mem::take(&mut self.answers)
    }

    /// Read access for audits/extraction.
    pub fn record(&self, v: V) -> Option<&StatRec> {
        self.recs.get(v.checked_sub(self.lo)? as usize)
    }

    /// Direct load for bulk preprocessing.
    pub fn load(&mut self, v: V, rec: StatRec) {
        let i = self.slot(v);
        self.recs[i] = rec;
    }

    /// Handles one request, possibly producing a reply for the coordinator.
    pub fn handle(&mut self, msg: MatchMsg) -> Option<MatchMsg> {
        match msg {
            MatchMsg::StatQuery(vs) => Some(MatchMsg::StatReply(
                vs.iter().map(|&v| (v, self.recs[self.slot(v)])).collect(),
            )),
            MatchMsg::StatSet(rs) => {
                for (v, r) in rs {
                    let i = self.slot(v);
                    self.recs[i] = r;
                }
                None
            }
            MatchMsg::CounterDelta(vs, delta) => {
                for v in vs {
                    let i = self.slot(v);
                    let r = &mut self.recs[i];
                    let nv = r.free_nbrs as i64 + delta as i64;
                    debug_assert!(nv >= 0, "counter of {v} went negative");
                    r.free_nbrs = nv.max(0) as u32;
                }
                None
            }
            MatchMsg::CounterQuery(vs) => Some(MatchMsg::CounterReply(
                vs.iter()
                    .map(|&v| (v, self.recs[self.slot(v)].free_nbrs))
                    .collect(),
            )),
            MatchMsg::QIsMatched { qid, v } => {
                self.answers.push((qid, self.recs[self.slot(v)].matched()));
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

    /// Two neighbouring machines with distinct records in every slot.
    fn neighbours() -> (StatsMachine, StatsMachine) {
        let (mut a, mut b) = (StatsMachine::new(0, 10), StatsMachine::new(10, 20));
        for v in 0..20 {
            let mut r = StatRec::new();
            r.degree = v + 1;
            r.mate = v ^ 1;
            r.heavy = v % 3 == 0;
            r.free_nbrs = v / 2;
            let m = if v < 10 { &mut a } else { &mut b };
            m.handle(MatchMsg::StatSet(vec![(v, r)]));
        }
        (a, b)
    }

    #[test]
    fn own_snapshot_round_trips_after_wipe() {
        let (_, mut m) = neighbours();
        let snap = m.snapshot_text();
        m.wipe();
        assert!(m.record(10).is_none());
        m.restore_text(&snap);
        assert_eq!(m.snapshot_text(), snap);
        assert_eq!(m.record(13).unwrap().degree, 14);
        assert!(m.record(9).is_none() && m.record(20).is_none());
    }

    #[test]
    #[should_panic(
        expected = "snapshot record for vertex 0 restored on the stats machine of 10..20"
    )]
    fn restore_refuses_a_neighbours_snapshot() {
        let (a, mut b) = neighbours();
        b.restore_text(&a.snapshot_text());
    }
}
