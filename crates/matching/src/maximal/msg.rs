//! Messages, per-vertex records, annotations, and the update-history.

use dmpc_graph::{Edge, Update, V};
use dmpc_mpc::{HandoffMsg, Payload};

/// Sentinel for "no mate".
pub const NO_MATE: V = V::MAX;

/// Exact per-vertex record kept on stats machines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatRec {
    /// Current degree.
    pub degree: u32,
    /// Current mate (`NO_MATE` if free).
    pub mate: V,
    /// Heavy flag (degree > tau).
    pub heavy: bool,
    /// Number of free neighbors (maintained in 3/2 mode only).
    pub free_nbrs: u32,
}

impl StatRec {
    /// A fresh isolated vertex.
    pub fn new() -> Self {
        StatRec {
            degree: 0,
            mate: NO_MATE,
            heavy: false,
            free_nbrs: 0,
        }
    }

    /// True if currently matched.
    pub fn matched(&self) -> bool {
        self.mate != NO_MATE
    }
}

impl Default for StatRec {
    fn default() -> Self {
        Self::new()
    }
}

/// Adjacency annotation stored with each edge copy: the *neighbor's*
/// matching status. Stale by at most one refresh cycle; repaired by
/// replaying the history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ann {
    /// Whether the neighbor is matched.
    pub matched: bool,
    /// The neighbor's mate (valid iff `matched`).
    pub mate: V,
    /// Whether that mate is light (valid iff `matched`); this is what the
    /// heavy-vertex steal scans for.
    pub mate_light: bool,
}

impl Ann {
    /// Annotation for a free neighbor.
    pub fn free() -> Self {
        Ann {
            matched: false,
            mate: NO_MATE,
            mate_light: false,
        }
    }
}

/// One update-history entry. Its sequence number is not stored with it: it is
/// the entry's place in the coordinator's buffer, or in a [`HistSlice`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistEntry {
    /// `(a,b)` joined the matching; flags say whether each endpoint is light
    /// *after* the change (used to repair `mate_light` annotations).
    MatchAdd(Edge, bool, bool),
    /// `(a,b)` left the matching.
    MatchDel(Edge),
    /// `v` became heavy.
    Heavy(V),
    /// `v` became light.
    Light(V),
}

/// A history suffix as it travels in [`MatchMsg::Store`]: one base sequence
/// number, then the entries, the seq of `entries[i]` being `base + i` (the
/// coordinator only ever ships a contiguous suffix of its buffer). `Default`
/// is the empty suffix.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSlice {
    base: u64,
    entries: Box<[HistEntry]>,
}

impl HistSlice {
    /// The suffix whose first entry has seq `base`.
    pub fn new(base: u64, entries: impl Into<Box<[HistEntry]>>) -> Self {
        HistSlice {
            base,
            entries: entries.into(),
        }
    }

    /// The entries, in seq order.
    pub fn entries(&self) -> &[HistEntry] {
        &self.entries
    }

    /// Whether the suffix carries no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The seqs of the entries, in order.
    pub fn seqs(&self) -> std::ops::Range<u64> {
        self.base..self.base + self.entries.len() as u64
    }

    /// Words on the wire: none for the empty suffix, else the base seq and
    /// 3 per entry (an entry's seq is implied, as in the coordinator's
    /// buffer).
    pub fn words(&self) -> usize {
        match self.entries.len() {
            0 => 0,
            h => 1 + 3 * h,
        }
    }

    /// The entries a machine synced up to `last_seen` has not replayed. The
    /// seen part is a prefix, cut at a fixed offset from the base; a base
    /// beyond `last_seen + 1` would mean the machine missed history.
    pub fn fresh(&self, last_seen: u64) -> &[HistEntry] {
        debug_assert!(
            self.base <= last_seen + 1,
            "history gap: suffix starts at seq {} after seq {last_seen}",
            self.base
        );
        let seen = (last_seen + 1).saturating_sub(self.base) as usize;
        &self.entries[seen.min(self.entries.len())..]
    }

    /// The seq of the last entry, where a replay of a non-empty suffix
    /// leaves the machine synced.
    pub fn last_seq(&self) -> u64 {
        debug_assert!(!self.entries.is_empty(), "the empty suffix has no last seq");
        self.base + self.entries.len() as u64 - 1
    }
}

/// The matching protocol, one variant per sub-protocol: injected work for
/// the coordinator (`Update`, `Batch`, its own `BatchResume`), the query
/// plane (`Query`), the coordinator's exchange with the stats machines
/// (`Stats`), and its exchange with the storage and overflow machines. Every
/// request to one of those but [`MatchMsg::ReleaseOverflow`] is one
/// [`MatchMsg::Store`], which carries the history suffix the target has not
/// yet seen (no other variant carries history), and every reply is one
/// [`MatchMsg::StoreReply`].
#[derive(Clone, Debug)]
pub enum MatchMsg {
    /// Injected edge update.
    Update(Update),
    /// Injected batch: the coordinator prefetches every endpoint's record
    /// in one shared wave, then drains the updates back-to-back against the
    /// warm cache (Section 3 mode only).
    Batch(Vec<Update>),
    /// Coordinator self-message: continue draining the batch queue next
    /// round (sent when this round's outbound volume nears the send cap).
    BatchResume,
    /// The query plane (never touches the update path).
    Query(MatchQuery),
    /// Coordinator <-> stats.
    Stats(StatMsg),
    /// A request to a storage or overflow machine behind the history suffix
    /// it has not seen: the target replays `hist` once, then serves `req`.
    Store {
        /// History suffix for repair: one base seq, then the entries.
        hist: HistSlice,
        /// The request.
        req: StoreReq,
    },
    /// A storage or overflow machine's answer to a [`MatchMsg::Store`].
    StoreReply {
        /// Echo of the vertex the request named.
        at: V,
        /// The answer.
        ans: StoreAns,
    },
    /// Release the overflow assignment of `v` (carries no history).
    ReleaseOverflow {
        /// The vertex whose stack is freed.
        v: V,
    },
    /// The snapshot handoff of a revive (see `dmpc_mpc::handoff`): the
    /// coordinator ships, the revived machine receives.
    Handoff(HandoffMsg),
}

/// A query of the query plane, answered where the state is exact, with no
/// history sync, no repair and no coordinator round-trip.
#[derive(Clone, Copy, Debug)]
pub enum MatchQuery {
    /// Injected at `v`'s stats machine: stash whether `v` is matched.
    IsMatched {
        /// Query id within the wave.
        qid: u32,
        /// The queried vertex.
        v: V,
    },
    /// Injected at the coordinator: stash the matching size from its
    /// locally maintained matched-pair counter.
    MatchingSize {
        /// Query id within the wave.
        qid: u32,
    },
}

/// The coordinator's exchange with a stats machine.
#[derive(Clone, Debug)]
pub enum StatMsg {
    /// Ask for the records of the listed vertices.
    Query(Vec<V>),
    /// The asked records.
    Reply(Vec<(V, StatRec)>),
    /// Overwrite records: (vertex, new record).
    Set(Vec<(V, StatRec)>),
    /// Add `delta` to the free-neighbor counters of the listed vertices.
    CounterDelta(Vec<V>, i32),
    /// Ask for free-neighbor counters.
    CounterQuery(Vec<V>),
    /// The asked counters.
    CounterReply(Vec<(V, u32)>),
}

/// What a storage or overflow machine answers, in a
/// [`MatchMsg::StoreReply`] that echoes the vertex the request named.
#[derive(Clone, Debug)]
pub enum StoreAns {
    /// To [`StoreReq::DelEdge`]: whether the edge copy was removed.
    Del {
        /// Found and removed here.
        found: bool,
        /// True when the reporting store is the alive set (storage
        /// machine); false for the suspended stack (overflow machine).
        alive: bool,
    },
    /// To [`StoreReq::ScanFree`]: a free neighbor, if any.
    ScanFree(Option<V>),
    /// To [`StoreReq::ScanAdj`]: the (neighbor, annotation) list.
    ScanAdj(Vec<(V, Ann)>),
    /// To [`StoreReq::ScanHeavy`].
    ScanHeavy {
        /// A free alive neighbor, if any.
        free: Option<V>,
        /// A matched alive neighbor with a light mate: `(w, mate(w))`.
        steal: Option<(V, V)>,
    },
    /// To [`StoreReq::MakeHeavy`]: the evicted surplus entries.
    MovedOut(Vec<(V, Ann)>),
    /// To [`StoreReq::FetchSuspended`]: the popped entry (None if the stack
    /// is empty).
    Fetch(Option<(V, Ann)>),
}

/// A request to a storage or overflow machine, carried by [`MatchMsg::Store`]
/// behind the history suffix the target repairs with first.
#[derive(Clone, Debug)]
pub enum StoreReq {
    /// Periodic round-robin refresh: nothing beyond the repair.
    Refresh,
    /// Add an edge copy at `at` pointing to `nbr`.
    AddEdge {
        /// Owning vertex.
        at: V,
        /// Neighbor.
        nbr: V,
        /// Fresh annotation for `nbr`.
        ann: Ann,
    },
    /// Remove the copy at `at` pointing to `nbr`; reply [`StoreAns::Del`].
    DelEdge {
        /// Owning vertex.
        at: V,
        /// Neighbor.
        nbr: V,
    },
    /// Scan the list of `z` for a free neighbor outside `exclude`.
    ScanFree {
        /// The scanned vertex.
        z: V,
        /// Neighbors to skip (O(1) entries).
        exclude: Vec<V>,
    },
    /// Return the whole adjacency list of `z` (O(tau) words; light vertices
    /// and alive sets only).
    ScanAdj {
        /// The vertex.
        z: V,
    },
    /// Scan heavy `z`'s alive set for a free neighbor and a steal candidate.
    ScanHeavy {
        /// The heavy vertex.
        z: V,
    },
    /// Flip `v` to heavy; keep `tau` alive edges (the mate edge among them)
    /// and return the surplus as [`StoreAns::MovedOut`].
    MakeHeavy {
        /// The transitioning vertex.
        v: V,
        /// Its mate if any (kept alive).
        mate: Option<V>,
    },
    /// Flip `v` back to light (its suspended stack is empty by invariant).
    MakeLight {
        /// The transitioning vertex.
        v: V,
    },
    /// Append suspended edges of `v` at its overflow machine.
    AddSuspended {
        /// The heavy vertex.
        v: V,
        /// Entries to store.
        entries: Vec<(V, Ann)>,
    },
    /// Pop one suspended edge of `v` (refill); reply [`StoreAns::Fetch`].
    FetchSuspended {
        /// The heavy vertex.
        v: V,
    },
    /// Put one edge into the alive set of heavy `v` (refill).
    AddAlive {
        /// The heavy vertex.
        at: V,
        /// The refilled entry.
        entry: (V, Ann),
    },
}

impl StoreReq {
    /// Words of the request; [`MatchMsg::Store`] adds [`HistSlice::words`]:
    /// one base seq and 3 per history entry, none without history.
    pub fn size_words(&self) -> usize {
        match self {
            StoreReq::Refresh => 1,
            StoreReq::AddEdge { .. } | StoreReq::AddAlive { .. } => 6,
            StoreReq::DelEdge { .. } | StoreReq::MakeHeavy { .. } => 3,
            StoreReq::ScanFree { exclude, .. } => 2 + exclude.len(),
            StoreReq::ScanAdj { .. } | StoreReq::ScanHeavy { .. } => 2,
            StoreReq::MakeLight { .. } | StoreReq::FetchSuspended { .. } => 2,
            StoreReq::AddSuspended { entries, .. } => 1 + 4 * entries.len(),
        }
    }
}

impl Payload for MatchMsg {
    fn size_words(&self) -> usize {
        match self {
            MatchMsg::Update(_) => 2,
            MatchMsg::Batch(ups) => 1 + 2 * ups.len(),
            MatchMsg::BatchResume => 1,
            MatchMsg::Query(MatchQuery::IsMatched { .. }) => 3,
            MatchMsg::Query(MatchQuery::MatchingSize { .. }) => 2,
            MatchMsg::Stats(StatMsg::Query(vs) | StatMsg::CounterQuery(vs)) => 1 + vs.len(),
            MatchMsg::Stats(StatMsg::Reply(rs) | StatMsg::Set(rs)) => 1 + 4 * rs.len(),
            MatchMsg::Stats(StatMsg::CounterDelta(vs, _)) => 2 + vs.len(),
            MatchMsg::Stats(StatMsg::CounterReply(rs)) => 1 + 2 * rs.len(),
            MatchMsg::Store { hist, req } => hist.words() + req.size_words(),
            MatchMsg::StoreReply { ans, .. } => match ans {
                StoreAns::Del { .. } => 3,
                StoreAns::ScanFree(_) => 2,
                StoreAns::ScanAdj(es) | StoreAns::MovedOut(es) => 1 + 4 * es.len(),
                StoreAns::ScanHeavy { .. } => 4,
                StoreAns::Fetch(_) => 5,
            },
            MatchMsg::ReleaseOverflow { .. } => 2,
            MatchMsg::Handoff(h) => h.size_words(),
        }
    }
}

/// A storage or overflow machine's answer about `at`, as it travels.
impl From<(V, StoreAns)> for MatchMsg {
    fn from((at, ans): (V, StoreAns)) -> Self {
        MatchMsg::StoreReply { at, ans }
    }
}

/// Replays one history entry over one adjacency entry, repairing its
/// annotation. This is the whole repair kernel used by storage and
/// overflow machines.
pub fn repair_entry(entry: &HistEntry, nbr: V, ann: &mut Ann) {
    match *entry {
        HistEntry::MatchAdd(e, ul, vl) => {
            if nbr == e.u {
                *ann = Ann {
                    matched: true,
                    mate: e.v,
                    mate_light: vl,
                };
            } else if nbr == e.v {
                *ann = Ann {
                    matched: true,
                    mate: e.u,
                    mate_light: ul,
                };
            }
        }
        HistEntry::MatchDel(e) => {
            if nbr == e.u || nbr == e.v {
                *ann = Ann::free();
            }
        }
        HistEntry::Heavy(c) => {
            if ann.matched && ann.mate == c {
                ann.mate_light = false;
            }
        }
        HistEntry::Light(c) => {
            if ann.matched && ann.mate == c {
                ann.mate_light = true;
            }
        }
    }
}

/// One message's history repair, applied to a machine's entries in a
/// single pass: the not-yet-seen part of the shipped slice
/// ([`HistSlice::fresh`]), plus the set of vertices it names.
///
/// [`repair_entry`] can only change an entry whose neighbor or current
/// annotation mate the slice names (`MatchAdd`/`MatchDel` match on the
/// neighbor, `Heavy`/`Light` on the mate, and the mate itself only changes
/// through a `MatchAdd`/`MatchDel` on the neighbor), so every other entry is
/// skipped without replaying anything.
///
/// Membership is exact, because a false "yes" costs a replay of the whole
/// slice: an open-addressing table at most a quarter full, built in time
/// linear in the slice.
pub(super) struct Repair<'a> {
    fresh: &'a [HistEntry],
    /// [`NO_MATE`] marks an empty slot (it is never a vertex).
    slots: Vec<V>,
    shift: u32,
}

impl<'a> Repair<'a> {
    /// The repair of the `fresh` entries, or `None` if there are none.
    pub(super) fn new(fresh: &'a [HistEntry]) -> Option<Self> {
        if fresh.is_empty() {
            return None;
        }
        let len = (8 * fresh.len()).next_power_of_two().max(64);
        let mut r = Repair {
            fresh,
            slots: vec![NO_MATE; len],
            shift: 32 - len.trailing_zeros(),
        };
        for &entry in fresh {
            match entry {
                HistEntry::MatchAdd(e, _, _) | HistEntry::MatchDel(e) => {
                    r.name(e.u);
                    r.name(e.v);
                }
                HistEntry::Heavy(c) | HistEntry::Light(c) => r.name(c),
            }
        }
        Some(r)
    }

    /// The slot holding `v`, or the empty slot where its probe ends.
    #[inline]
    fn probe(&self, v: V) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (v.wrapping_mul(0x9E37_79B1) >> self.shift) as usize;
        while self.slots[i] != NO_MATE && self.slots[i] != v {
            i = (i + 1) & mask;
        }
        i
    }

    fn name(&mut self, v: V) {
        let i = self.probe(v);
        self.slots[i] = v;
    }

    /// Whether the slice names `v`; [`NO_MATE`] is never named.
    #[inline]
    fn names(&self, v: V) -> bool {
        self.slots[self.probe(v)] != NO_MATE
    }

    /// Whether the slice can change an entry pointing at `nbr` whose
    /// annotation names `mate`.
    #[inline]
    pub(super) fn may_change(&self, nbr: V, mate: V) -> bool {
        self.names(nbr) || self.names(mate)
    }

    /// Replays the slice over one adjacency entry.
    #[inline]
    pub(super) fn replay(&self, nbr: V, ann: &mut Ann) {
        for entry in self.fresh {
            repair_entry(entry, nbr, ann);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_kernel() {
        let mut ann = Ann::free();
        repair_entry(
            &HistEntry::MatchAdd(Edge::new(3, 5), true, false),
            3,
            &mut ann,
        );
        assert!(ann.matched);
        assert_eq!(ann.mate, 5);
        assert!(!ann.mate_light); // 5 is heavy
        repair_entry(&HistEntry::Light(5), 3, &mut ann);
        assert!(ann.mate_light);
        repair_entry(&HistEntry::MatchDel(Edge::new(3, 5)), 3, &mut ann);
        assert!(!ann.matched);
        // Entries about other vertices leave the annotation alone.
        let before = ann;
        repair_entry(
            &HistEntry::MatchAdd(Edge::new(7, 9), true, true),
            3,
            &mut ann,
        );
        assert_eq!(ann, before);
    }

    #[test]
    fn message_sizes_scale_with_payload() {
        let hist = HistSlice::new(1, vec![HistEntry::MatchDel(Edge::new(0, 1)); 10]);
        let req = StoreReq::Refresh;
        assert_eq!(MatchMsg::Store { hist, req }.size_words(), 32);
        assert!(MatchMsg::Update(Update::Insert(Edge::new(0, 1))).size_words() <= 2);
    }

    /// Every store-bound request costs its own words plus, behind history,
    /// one base seq and 3 per entry, checked at h = 0, 1, 2, 3 and 64
    /// (`ReleaseOverflow` carries none). With one seq per entry it was 4 per
    /// entry: 0, 4, 8, 12 and 256.
    #[test]
    fn store_requests_are_exact_words() {
        let (ann, entry) = (Ann::free(), (7, Ann::free()));
        let (mate, exclude, entries) = (Some(2), vec![2, 3], vec![entry; 2]);
        let cases = [
            (StoreReq::Refresh, 1),
            (StoreReq::AddEdge { at: 1, nbr: 2, ann }, 6),
            (StoreReq::AddAlive { at: 1, entry }, 6),
            (StoreReq::DelEdge { at: 1, nbr: 2 }, 3),
            (StoreReq::MakeHeavy { v: 1, mate }, 3),
            (StoreReq::ScanFree { z: 1, exclude }, 4),
            (StoreReq::ScanAdj { z: 1 }, 2),
            (StoreReq::ScanHeavy { z: 1 }, 2),
            (StoreReq::MakeLight { v: 1 }, 2),
            (StoreReq::FetchSuspended { v: 1 }, 2),
            (StoreReq::AddSuspended { v: 1, entries }, 9),
        ];
        for (h, hist_words) in [(0, 0), (1, 4), (2, 7), (3, 10), (64, 193)] {
            for (req, words) in cases.clone() {
                let hist = HistSlice::new(1, vec![HistEntry::Heavy(2); h]);
                let msg = MatchMsg::Store { hist, req };
                assert_eq!(msg.size_words(), words + hist_words, "{msg:?}");
            }
        }
        assert_eq!(MatchMsg::ReleaseOverflow { v: 1 }.size_words(), 2);
    }

    /// A machine synced up to `last_seen` replays what follows it: all of a
    /// suffix that starts right after, a tail of one it saw in part, none of
    /// one it saw whole.
    #[test]
    fn fresh_cuts_the_seen_prefix() {
        let entries: Vec<HistEntry> = (0..4).map(HistEntry::Heavy).collect();
        let hist = HistSlice::new(5, entries.clone());
        assert_eq!((hist.seqs(), hist.last_seq()), (5..9, 8));
        assert_eq!(hist.fresh(4), &entries[..]);
        assert_eq!(hist.fresh(6), &entries[2..]);
        assert!(hist.fresh(8).is_empty() && hist.fresh(20).is_empty());
        assert!(HistSlice::default().fresh(0).is_empty());
        assert_eq!(HistSlice::default().words(), 0);
    }

    /// A suffix that starts past `last_seen + 1` skips history the machine
    /// never saw.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "history gap")]
    fn fresh_refuses_a_gap() {
        HistSlice::new(6, [HistEntry::Light(1)]).fresh(4);
    }

    /// Every other message's charge, exact: updates and queries, the stats
    /// protocol at k = 0 and k = 2 vertices, and the store replies.
    #[test]
    fn every_other_message_is_exact_words() {
        let (e, rec, entry) = (Edge::new(0, 1), StatRec::new(), (7, Ann::free()));
        let reply = |ans| MatchMsg::StoreReply { at: 1, ans };
        let mut cases = vec![
            (MatchMsg::Update(Update::Insert(e)), 2),
            (MatchMsg::Update(Update::Delete(e)), 2),
            (MatchMsg::Batch(vec![]), 1),
            (MatchMsg::Batch(vec![Update::Insert(e); 3]), 7),
            (MatchMsg::BatchResume, 1),
            (MatchMsg::Query(MatchQuery::IsMatched { qid: 0, v: 1 }), 3),
            (MatchMsg::Query(MatchQuery::MatchingSize { qid: 0 }), 2),
            (
                reply(StoreAns::Del {
                    found: true,
                    alive: false,
                }),
                3,
            ),
            (reply(StoreAns::ScanFree(Some(2))), 2),
            (
                reply(StoreAns::ScanHeavy {
                    free: None,
                    steal: Some((2, 3)),
                }),
                4,
            ),
            (reply(StoreAns::Fetch(None)), 5),
            (reply(StoreAns::Fetch(Some(entry))), 5),
        ];
        for k in [0, 2] {
            let (vs, recs) = (vec![1; k], vec![(1, rec); k]);
            cases.extend([
                (MatchMsg::Stats(StatMsg::Query(vs.clone())), 1 + k),
                (MatchMsg::Stats(StatMsg::Reply(recs.clone())), 1 + 4 * k),
                (MatchMsg::Stats(StatMsg::Set(recs)), 1 + 4 * k),
                (
                    MatchMsg::Stats(StatMsg::CounterDelta(vs.clone(), -1)),
                    2 + k,
                ),
                (MatchMsg::Stats(StatMsg::CounterQuery(vs)), 1 + k),
                (
                    MatchMsg::Stats(StatMsg::CounterReply(vec![(1, 2); k])),
                    1 + 2 * k,
                ),
                (reply(StoreAns::ScanAdj(vec![entry; k])), 1 + 4 * k),
                (reply(StoreAns::MovedOut(vec![entry; k])), 1 + 4 * k),
            ]);
        }
        for (msg, words) in cases {
            assert_eq!(msg.size_words(), words, "{msg:?}");
        }
        assert!(std::mem::size_of::<MatchMsg>() <= 56);
    }
}
