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

/// One update-history entry (sequence number assigned by the coordinator).
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

/// A numbered history suffix shipped with coordinator messages.
pub type HistSlice = Vec<(u64, HistEntry)>;

/// Requests/replies of the matching protocol. Every storage/overflow-bound
/// message carries the history suffix the target has not yet seen.
#[derive(Clone, Debug)]
pub enum MatchMsg {
    /// Injected edge insertion.
    Insert(Edge),
    /// Injected edge deletion.
    Delete(Edge),
    /// Injected batch: the coordinator prefetches every endpoint's record
    /// in one shared wave, then drains the updates back-to-back against the
    /// warm cache (Section 3 mode only).
    Batch(Vec<Update>),
    /// Coordinator self-message: continue draining the batch queue next
    /// round (sent when this round's outbound volume nears the send cap).
    BatchResume,

    // --- query plane (never touches the update path) ---
    /// Injected at `v`'s stats machine: stash whether `v` is matched.
    /// Stats records are exact at all times, so the answer needs no history
    /// sync, no repair, and no coordinator round-trip.
    QIsMatched {
        /// Query id within the wave.
        qid: u32,
        /// The queried vertex.
        v: V,
    },
    /// Injected at the coordinator: stash the matching size from its
    /// locally maintained matched-pair counter.
    QMatchingSize {
        /// Query id within the wave.
        qid: u32,
    },

    // --- coordinator <-> stats ---
    /// Ask for the records of up to two vertices.
    StatQuery(Vec<V>),
    /// Stats reply.
    StatReply(Vec<(V, StatRec)>),
    /// Overwrite fields: (vertex, new record).
    StatSet(Vec<(V, StatRec)>),
    /// Add `delta` to the free-neighbor counters of the listed vertices.
    CounterDelta(Vec<V>, i32),
    /// Ask for free-neighbor counters.
    CounterQuery(Vec<V>),
    /// Counter reply.
    CounterReply(Vec<(V, u32)>),

    // --- coordinator <-> storage/overflow ---
    /// Periodic round-robin refresh: just replay the history.
    Refresh(HistSlice),
    /// Add an edge copy at `at` pointing to `nbr`.
    AddEdge {
        /// Owning vertex.
        at: V,
        /// Neighbor.
        nbr: V,
        /// Fresh annotation for `nbr`.
        ann: Ann,
        /// History suffix for repair.
        hist: HistSlice,
    },
    /// Remove the edge copy at `at` pointing to `nbr`; reply [`MatchMsg::DelReply`].
    DelEdge {
        /// Owning vertex.
        at: V,
        /// Neighbor.
        nbr: V,
        /// History suffix.
        hist: HistSlice,
    },
    /// Whether the probe found (and removed) the edge copy.
    DelReply {
        /// Echo of the owning vertex.
        at: V,
        /// Found and removed here.
        found: bool,
        /// True when the reporting store is the alive set (storage
        /// machine); false for the suspended stack (overflow machine).
        alive: bool,
    },
    /// Scan the list of `z` for a free neighbor outside `exclude`.
    ScanFree {
        /// The scanned vertex.
        z: V,
        /// Neighbors to skip (O(1) entries).
        exclude: Vec<V>,
        /// History suffix.
        hist: HistSlice,
    },
    /// Reply to [`MatchMsg::ScanFree`].
    ScanFreeReply {
        /// Echo.
        z: V,
        /// A free neighbor, if any.
        q: Option<V>,
    },
    /// Return the whole adjacency list of `z` (O(tau) words; light vertices
    /// and alive sets only).
    ScanAdj {
        /// The vertex.
        z: V,
        /// History suffix.
        hist: HistSlice,
    },
    /// Reply to [`MatchMsg::ScanAdj`].
    ScanAdjReply {
        /// Echo.
        z: V,
        /// The (neighbor, annotation) list.
        entries: Vec<(V, Ann)>,
    },
    /// Scan heavy `z`'s alive set for a free neighbor and a steal candidate.
    ScanHeavy {
        /// The heavy vertex.
        z: V,
        /// History suffix.
        hist: HistSlice,
    },
    /// Reply to [`MatchMsg::ScanHeavy`].
    ScanHeavyReply {
        /// Echo.
        z: V,
        /// A free alive neighbor, if any.
        free: Option<V>,
        /// A matched alive neighbor with a light mate: `(w, mate(w))`.
        steal: Option<(V, V)>,
    },
    /// Flip `v` to heavy; keep `tau` alive edges (the mate edge among them)
    /// and return the surplus via [`MatchMsg::MovedOut`].
    MakeHeavy {
        /// The transitioning vertex.
        v: V,
        /// Its mate if any (kept alive).
        mate: Option<V>,
        /// History suffix.
        hist: HistSlice,
    },
    /// Surplus edges evicted by [`MatchMsg::MakeHeavy`].
    MovedOut {
        /// The heavy vertex.
        v: V,
        /// Evicted entries.
        entries: Vec<(V, Ann)>,
    },
    /// Flip `v` back to light (its suspended stack is empty by invariant).
    MakeLight {
        /// The transitioning vertex.
        v: V,
        /// History suffix.
        hist: HistSlice,
    },
    /// Append suspended edges of `v` at its overflow machine.
    AddSuspended {
        /// The heavy vertex.
        v: V,
        /// Entries to store.
        entries: Vec<(V, Ann)>,
        /// History suffix.
        hist: HistSlice,
    },
    /// Pop one suspended edge of `v` (alive-set refill); reply
    /// [`MatchMsg::FetchReply`].
    FetchSuspended {
        /// The heavy vertex.
        v: V,
        /// History suffix.
        hist: HistSlice,
    },
    /// Reply to [`MatchMsg::FetchSuspended`].
    FetchReply {
        /// Echo.
        v: V,
        /// The popped entry (None if the stack is empty).
        entry: Option<(V, Ann)>,
    },
    /// Put one edge into the alive set of heavy `v` (refill).
    AddAlive {
        /// The heavy vertex.
        at: V,
        /// The refilled entry.
        entry: (V, Ann),
        /// History suffix.
        hist: HistSlice,
    },
    /// Release the overflow assignment of `v`.
    ReleaseOverflow {
        /// The vertex whose stack is freed.
        v: V,
    },

    /// The snapshot handoff of a revive (see `dmpc_mpc::handoff`): the
    /// coordinator ships, the revived machine receives.
    Handoff(HandoffMsg),
}

impl Payload for MatchMsg {
    fn size_words(&self) -> usize {
        let hist_words = |h: &HistSlice| 4 * h.len();
        match self {
            MatchMsg::Insert(_) | MatchMsg::Delete(_) => 2,
            MatchMsg::Batch(ups) => 1 + 2 * ups.len(),
            MatchMsg::BatchResume => 1,
            MatchMsg::QIsMatched { .. } => 3,
            MatchMsg::QMatchingSize { .. } => 2,
            MatchMsg::StatQuery(vs) => 1 + vs.len(),
            MatchMsg::StatReply(rs) => 1 + 4 * rs.len(),
            MatchMsg::StatSet(rs) => 1 + 4 * rs.len(),
            MatchMsg::CounterDelta(vs, _) => 2 + vs.len(),
            MatchMsg::CounterQuery(vs) => 1 + vs.len(),
            MatchMsg::CounterReply(rs) => 1 + 2 * rs.len(),
            MatchMsg::Refresh(h) => 1 + hist_words(h),
            MatchMsg::AddEdge { hist, .. } => 6 + hist_words(hist),
            MatchMsg::DelEdge { hist, .. } => 3 + hist_words(hist),
            MatchMsg::DelReply { .. } => 3,
            MatchMsg::ScanFree { exclude, hist, .. } => 2 + exclude.len() + hist_words(hist),
            MatchMsg::ScanFreeReply { .. } => 2,
            MatchMsg::ScanAdj { hist, .. } => 2 + hist_words(hist),
            MatchMsg::ScanAdjReply { entries, .. } => 1 + 4 * entries.len(),
            MatchMsg::ScanHeavy { hist, .. } => 2 + hist_words(hist),
            MatchMsg::ScanHeavyReply { .. } => 4,
            MatchMsg::MakeHeavy { hist, .. } => 3 + hist_words(hist),
            MatchMsg::MovedOut { entries, .. } => 1 + 4 * entries.len(),
            MatchMsg::MakeLight { hist, .. } => 2 + hist_words(hist),
            MatchMsg::AddSuspended { entries, hist, .. } => {
                1 + 4 * entries.len() + hist_words(hist)
            }
            MatchMsg::FetchSuspended { hist, .. } => 2 + hist_words(hist),
            MatchMsg::FetchReply { .. } => 5,
            MatchMsg::AddAlive { hist, .. } => 6 + hist_words(hist),
            MatchMsg::ReleaseOverflow { .. } => 2,
            MatchMsg::Handoff(h) => h.size_words(),
        }
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

/// The part of `hist` a machine synced up to `last_seen` has not replayed.
/// Slices are seq-ascending (the coordinator ships a contiguous suffix of its
/// buffer), so the seen part is a prefix.
pub(super) fn fresh_suffix(hist: &[(u64, HistEntry)], last_seen: u64) -> &[(u64, HistEntry)] {
    &hist[hist.partition_point(|&(seq, _)| seq <= last_seen)..]
}

/// One message's history repair, applied to a machine's entries in a
/// single pass: the not-yet-seen part of the shipped slice, plus the set of
/// vertices it names.
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
    fresh: &'a [(u64, HistEntry)],
    /// [`NO_MATE`] marks an empty slot (it is never a vertex).
    slots: Vec<V>,
    shift: u32,
}

impl<'a> Repair<'a> {
    /// The repair `hist` asks of a machine synced up to `last_seen`, or
    /// `None` if the machine has seen all of it.
    pub(super) fn new(hist: &'a [(u64, HistEntry)], last_seen: u64) -> Option<Self> {
        let fresh = fresh_suffix(hist, last_seen);
        if fresh.is_empty() {
            return None;
        }
        let len = (8 * fresh.len()).next_power_of_two().max(64);
        let mut r = Repair {
            fresh,
            slots: vec![NO_MATE; len],
            shift: 32 - len.trailing_zeros(),
        };
        for &(_, entry) in fresh {
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

    /// The sync point this repair brings the machine to.
    pub(super) fn last_seq(&self) -> u64 {
        self.fresh[self.fresh.len() - 1].0
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
        for (_, entry) in self.fresh {
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
        let h: HistSlice = vec![(1, HistEntry::MatchDel(Edge::new(0, 1))); 10];
        assert_eq!(MatchMsg::Refresh(h.clone()).size_words(), 41);
        assert!(MatchMsg::Insert(Edge::new(0, 1)).size_words() <= 2);
    }
}
