//! Per-machine vertex-shard storage.
//!
//! [`ConnMachine`](crate::machine::ConnMachine) keeps its owned vertex block
//! in a [`Shard`]: flat structure-of-arrays slices keyed by dense local slot
//! ids (the `pvector` + property-array idiom), with per-vertex tour-index
//! lists and adjacency entries stored as segments of two shared arenas.
//! Deletes punch free holes (segment `len < cap`, or whole segments
//! abandoned on relocation); arenas compact when holes outgrow live data, so
//! the resident footprint stays linear in the shard.
//!
//! A structural op is applied by two in-place kernels (one per op kind,
//! [`Shard::apply_struct`]); what an op does to one vertex is defined, as
//! pure functions over its core fields and one adjacency entry, in the
//! `oracle` test module, which the kernels are differentially tested
//! against. Every fold over entries (replacement candidates, path maxima)
//! uses an explicit total-order tie-break, so results never depend on arena
//! order. Snapshot emission sorts by vertex and far endpoint, so
//! `snapshot_text` (and therefore every `state_digest`) is a function of the
//! logical state only — relocations, compactions and migrations never move
//! it (`tests/golden_digests.rs` pins the digests).
//!
//! The global-id ↔ slot interner is direct-mapped: a shard owns a
//! contiguous vertex range, so `slot = v - base` with an absence sentinel.
//! Migrations shift the range; the interner rebases (rare, O(block) work)
//! rather than paying a hash per access on the hot path.

use crate::messages::{CutMode, StructBroadcast, VertexInfo};
use dmpc_eulertour::indexed::{map_reroot, CompId, TourOp};
use dmpc_eulertour::TourIx;
use dmpc_graph::{Edge, Weight, V};
use dmpc_mpc::text::{put_field, Fields, Sink};
use std::collections::BTreeMap;

/// An adjacency entry at one endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// Spanning-tree edge; `lo`/`hi` are its two tour indexes on this side.
    /// This endpoint is the child iff `lo` is even (arrival parity).
    Tree {
        /// Lower tour index on this side.
        lo: TourIx,
        /// Higher tour index on this side.
        hi: TourIx,
    },
    /// Non-tree edge; `cached` is some current tour index of the far
    /// endpoint (0 iff the far endpoint is a singleton) and `far_comp` is
    /// the far endpoint's component id. Between a cut and its replacement
    /// link, a non-tree edge can *cross* the two sides, so all cached-index
    /// maps are keyed by `far_comp`, not the owner's component.
    NonTree {
        /// Cached far-endpoint tour index.
        cached: TourIx,
        /// Far endpoint's component id.
        far_comp: CompId,
    },
}

/// Per-owned-vertex state: the materialized view the shard assembles for
/// audits, bulk loads, the snapshot codec and result extraction, never on
/// the update path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexState {
    /// Component id (= current root vertex of its tree).
    pub comp: CompId,
    /// Component size in vertices.
    pub size: u64,
    /// Sorted tour indexes of this vertex.
    pub idx: Vec<TourIx>,
    /// neighbor -> (kind, weight).
    pub adj: BTreeMap<V, (EntryKind, Weight)>,
}

/// What a structural-op sweep learned while applying to the local shard.
#[derive(Debug, Default)]
pub(crate) struct ApplyOutcome {
    /// Local best replacement candidate (searching cuts only).
    pub best: Option<(Edge, Weight)>,
    /// This machine still owns >= 1 vertex of the cut's surviving side.
    pub owns_parent: bool,
    /// This machine owns >= 1 vertex of the cut's detached side.
    pub owns_child: bool,
}

// ----- the arenas -------------------------------------------------------

/// One segment of an arena: a vertex's entries live in
/// `arena[start..start+len]`, with `cap - len` free words of headroom
/// before the segment must relocate to the arena tail (leaving a hole).
#[derive(Clone, Copy, Debug, Default)]
struct Seg {
    start: u32,
    len: u32,
    cap: u32,
}

/// Absence sentinel in the `comp` property array (component ids are vertex
/// ids, which stay far below `u32::MAX`).
const COMP_NONE: CompId = CompId::MAX;
/// Tag bit packed into the adjacency `far` array: set = tree entry.
const TREE_BIT: u32 = 1 << 31;
/// Largest vertex count a shard can address: every vertex id (owned or far
/// endpoint) must stay below [`TREE_BIT`].
pub(crate) const MAX_VERTICES: usize = TREE_BIT as usize;
/// Headroom granted when an adjacency segment relocates.
const ADJ_HEADROOM: u32 = 2;
/// Headroom granted when a tour segment relocates (links grow a vertex's
/// index list by up to 2).
const TOUR_HEADROOM: u32 = 4;

/// A machine's owned vertex shard: property arrays indexed by
/// `slot = v - base`, plus two arenas (tour indexes, adjacency entries)
/// addressed by per-slot segments.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    /// Direct-mapped interner base: global vertex `v` lives in slot
    /// `v - base`.
    base: V,
    /// Component id per slot; [`COMP_NONE`] marks an absent slot.
    comp: Vec<CompId>,
    /// Component size per slot (component sizes are at most `n`, which
    /// fits `u32` since vertex ids do).
    size: Vec<u32>,
    /// Tour-index segment per slot (into `tour`).
    tpos: Vec<Seg>,
    /// Tour-index arena.
    tour: Vec<TourIx>,
    /// Live words in `tour` (sum of segment lens; the rest are holes).
    tour_live: usize,
    /// Adjacency segment per slot (into the four entry arrays).
    apos: Vec<Seg>,
    /// Far endpoint | [`TREE_BIT`], per entry.
    afar: Vec<u32>,
    /// Edge weight, per entry.
    aw: Vec<Weight>,
    /// `lo` (tree) or `cached` (non-tree), per entry.
    aa: Vec<u64>,
    /// `hi` (tree) or `far_comp` (non-tree), per entry.
    ab: Vec<u64>,
    /// Live entries in the adjacency arena.
    adj_live: usize,
    /// Soft resident budget in words (0 = unlimited): a mutation that
    /// leaves the shard above it forces a full arena compaction, so slack
    /// never turns a shard that *would* fit compactly into a capacity
    /// violation.
    soft_cap: usize,
    /// Reusable copy-out buffer for the tour kernel.
    scratch: Vec<TourIx>,
}

#[inline]
fn decode_kind(tagged: u32, a: u64, b: u64) -> EntryKind {
    if tagged & TREE_BIT != 0 {
        EntryKind::Tree { lo: a, hi: b }
    } else {
        EntryKind::NonTree {
            cached: a,
            far_comp: b as CompId,
        }
    }
}

#[inline]
fn encode_kind(kind: &EntryKind) -> (bool, u64, u64) {
    match *kind {
        EntryKind::Tree { lo, hi } => (true, lo, hi),
        EntryKind::NonTree { cached, far_comp } => (false, cached, far_comp as u64),
    }
}

impl Shard {
    #[inline]
    fn slot_of(&self, v: V) -> Option<usize> {
        let i = v.checked_sub(self.base)? as usize;
        (i < self.comp.len() && self.comp[i] != COMP_NONE).then_some(i)
    }

    #[inline]
    fn slot(&self, v: V) -> usize {
        self.slot_of(v).expect("vertex not owned by this machine")
    }

    /// Grows the slot range to cover `v` (installs an absent slot).
    fn ensure_slot(&mut self, v: V) -> usize {
        debug_assert!(v < TREE_BIT, "vertex id collides with the tree tag bit");
        if self.comp.is_empty() {
            self.base = v;
        }
        if v < self.base {
            let k = (self.base - v) as usize;
            self.comp.splice(0..0, std::iter::repeat_n(COMP_NONE, k));
            self.size.splice(0..0, std::iter::repeat_n(0u32, k));
            self.tpos
                .splice(0..0, std::iter::repeat_n(Seg::default(), k));
            self.apos
                .splice(0..0, std::iter::repeat_n(Seg::default(), k));
            self.base = v;
        }
        let i = (v - self.base) as usize;
        while self.comp.len() <= i {
            self.comp.push(COMP_NONE);
            self.size.push(0);
            self.tpos.push(Seg::default());
            self.apos.push(Seg::default());
        }
        i
    }

    /// Drops absent slots at both ends of the range (after migrations move
    /// a prefix/suffix away) so the resident footprint tracks the shard.
    fn trim_slots(&mut self) {
        let last = match self.comp.iter().rposition(|&c| c != COMP_NONE) {
            Some(p) => p,
            None => {
                self.base = 0;
                self.comp.clear();
                self.size.clear();
                self.tpos.clear();
                self.apos.clear();
                return;
            }
        };
        self.comp.truncate(last + 1);
        self.size.truncate(last + 1);
        self.tpos.truncate(last + 1);
        self.apos.truncate(last + 1);
        let first = self.comp.iter().position(|&c| c != COMP_NONE).unwrap();
        if first > 0 {
            self.comp.drain(..first);
            self.size.drain(..first);
            self.tpos.drain(..first);
            self.apos.drain(..first);
            self.base += first as V;
        }
    }

    #[inline]
    fn tour_slice(&self, slot: usize) -> &[TourIx] {
        let s = self.tpos[slot];
        &self.tour[s.start as usize..(s.start + s.len) as usize]
    }

    /// Overwrites a slot's tour segment, relocating to the arena tail (with
    /// headroom) when it outgrows its capacity. The caller owes a
    /// [`Self::maybe_compact_tour`] once it is done storing.
    fn tour_write(&mut self, slot: usize, vals: &[TourIx], headroom: u32) {
        let s = self.tpos[slot];
        self.tour_live = self.tour_live - s.len as usize + vals.len();
        if vals.len() as u32 <= s.cap {
            self.tour[s.start as usize..s.start as usize + vals.len()].copy_from_slice(vals);
            self.tpos[slot].len = vals.len() as u32;
        } else {
            let start = self.tour.len() as u32;
            let cap = vals.len() as u32 + headroom;
            self.tour.extend_from_slice(vals);
            self.tour.resize(self.tour.len() + headroom as usize, 0);
            self.tpos[slot] = Seg {
                start,
                len: vals.len() as u32,
                cap,
            };
        }
    }

    fn maybe_compact_tour(&mut self) {
        // Slack is a fraction of the live size (amortized O(1) per op), kept
        // small in absolute terms too: resident memory is metered against
        // the machine capacity S, so holes are not free.
        if self.tour.len() <= self.tour_live + self.tour_live / 8 + 16 {
            return;
        }
        self.compact_tour();
    }

    fn compact_tour(&mut self) {
        let mut tour = Vec::with_capacity(self.tour_live);
        for s in self.tpos.iter_mut() {
            let start = tour.len() as u32;
            tour.extend_from_slice(&self.tour[s.start as usize..(s.start + s.len) as usize]);
            *s = Seg {
                start,
                len: s.len,
                cap: s.len,
            };
        }
        self.tour = tour;
    }

    #[inline]
    fn adj_find(&self, slot: usize, far: V) -> Option<usize> {
        let s = self.apos[slot];
        (s.start as usize..(s.start + s.len) as usize).find(|&i| self.afar[i] & !TREE_BIT == far)
    }

    /// Appends one entry to a slot's adjacency segment, relocating (with
    /// headroom) on overflow.
    fn adj_push(&mut self, slot: usize, far: V, kind: &EntryKind, w: Weight, headroom: u32) {
        let (tree, a, b) = encode_kind(kind);
        let tagged = far | if tree { TREE_BIT } else { 0 };
        let s = self.apos[slot];
        if s.len < s.cap {
            let i = (s.start + s.len) as usize;
            self.afar[i] = tagged;
            self.aw[i] = w;
            self.aa[i] = a;
            self.ab[i] = b;
            self.apos[slot].len += 1;
        } else if (s.start + s.cap) as usize == self.afar.len() {
            // The segment ends at the arena tail: grow in place, no hole.
            // This is the common case during snapshot restores, where a
            // vertex's entries stream in back-to-back.
            self.afar.push(tagged);
            self.aw.push(w);
            self.aa.push(a);
            self.ab.push(b);
            self.apos[slot].len += 1;
            self.apos[slot].cap += 1;
        } else {
            let start = self.afar.len() as u32;
            let cap = s.len + 1 + headroom;
            for k in s.start as usize..(s.start + s.len) as usize {
                let (f, ww, va, vb) = (self.afar[k], self.aw[k], self.aa[k], self.ab[k]);
                self.afar.push(f);
                self.aw.push(ww);
                self.aa.push(va);
                self.ab.push(vb);
            }
            self.afar.push(tagged);
            self.aw.push(w);
            self.aa.push(a);
            self.ab.push(b);
            let pad = (cap - s.len - 1) as usize;
            self.afar.resize(self.afar.len() + pad, 0);
            self.aw.resize(self.aw.len() + pad, 0);
            self.aa.resize(self.aa.len() + pad, 0);
            self.ab.resize(self.ab.len() + pad, 0);
            self.apos[slot] = Seg {
                start,
                len: s.len + 1,
                cap,
            };
            self.maybe_compact_adj();
        }
        self.adj_live += 1;
    }

    /// Writes a whole (empty) adjacency segment at once with an exact cap —
    /// bulk loading, where per-entry pushes would leave relocation holes.
    fn adj_store(&mut self, slot: usize, entries: &BTreeMap<V, (EntryKind, Weight)>) {
        let s = self.apos[slot];
        debug_assert_eq!(s.len, 0, "adj_store over a non-empty segment");
        let n = entries.len() as u32;
        let base = if n <= s.cap {
            self.apos[slot].len = n;
            s.start as usize
        } else {
            let start = self.afar.len();
            self.afar.resize(start + n as usize, 0);
            self.aw.resize(start + n as usize, 0);
            self.aa.resize(start + n as usize, 0);
            self.ab.resize(start + n as usize, 0);
            self.apos[slot] = Seg {
                start: start as u32,
                len: n,
                cap: n,
            };
            start
        };
        for (j, (&far, (kind, w))) in entries.iter().enumerate() {
            let (tree, a, b) = encode_kind(kind);
            let i = base + j;
            self.afar[i] = far | if tree { TREE_BIT } else { 0 };
            self.aw[i] = *w;
            self.aa[i] = a;
            self.ab[i] = b;
        }
        self.adj_live += n as usize;
        self.maybe_compact_adj();
    }

    fn maybe_compact_adj(&mut self) {
        if self.afar.len() <= self.adj_live + self.adj_live / 8 + 16 {
            return;
        }
        self.compact_adj();
    }

    /// Resident footprint in 64-bit words: the exact backing stores — every
    /// property array, both arenas *including their free holes and segment
    /// headroom* (that memory is resident), and the segment tables,
    /// converted from bytes at 8 bytes/word. Transient scratch buffers are
    /// excluded (they are executor-style reusable workspace, not shard
    /// state).
    pub fn memory_words(&self) -> usize {
        let slot_bytes = self.comp.len() * 4    // comp: u32
            + self.size.len() * 4               // size: u32
            + self.tpos.len() * 12              // Seg: 3 x u32
            + self.apos.len() * 12;
        let tour_bytes = self.tour.len() * 8;
        let adj_bytes = self.afar.len() * 4     // far|tag: u32
            + self.aw.len() * 8                 // weight: u64
            + self.aa.len() * 8
            + self.ab.len() * 8;
        (slot_bytes + tour_bytes + adj_bytes).div_ceil(8)
    }

    /// Compacts both arenas if the shard sits above its soft budget while
    /// holding any slack. Steady-state mutations never pay this; it only
    /// fires when a shard is near the machine capacity `S`, where the
    /// metered footprint must match the compact one.
    fn enforce_soft_cap(&mut self) {
        if self.soft_cap == 0 {
            return;
        }
        if self.tour.len() == self.tour_live && self.afar.len() == self.adj_live {
            return;
        }
        if self.memory_words() <= self.soft_cap {
            return;
        }
        self.compact_tour();
        self.compact_adj();
    }

    fn compact_adj(&mut self) {
        let mut afar = Vec::with_capacity(self.adj_live);
        let mut aw = Vec::with_capacity(self.adj_live);
        let mut aa = Vec::with_capacity(self.adj_live);
        let mut ab = Vec::with_capacity(self.adj_live);
        for s in self.apos.iter_mut() {
            let start = afar.len() as u32;
            for i in s.start as usize..(s.start + s.len) as usize {
                afar.push(self.afar[i]);
                aw.push(self.aw[i]);
                aa.push(self.aa[i]);
                ab.push(self.ab[i]);
            }
            *s = Seg {
                start,
                len: s.len,
                cap: s.len,
            };
        }
        self.afar = afar;
        self.aw = aw;
        self.aa = aa;
        self.ab = ab;
    }

    /// Removes a slot entirely (migration), freeing its segments as holes.
    fn remove_slot(&mut self, slot: usize) {
        self.comp[slot] = COMP_NONE;
        self.size[slot] = 0;
        self.tour_live -= self.tpos[slot].len as usize;
        self.adj_live -= self.apos[slot].len as usize;
        self.tpos[slot] = Seg::default();
        self.apos[slot] = Seg::default();
    }

    fn materialize(&self, slot: usize) -> VertexState {
        let s = self.apos[slot];
        VertexState {
            comp: self.comp[slot],
            size: self.size[slot] as u64,
            idx: self.tour_slice(slot).to_vec(),
            adj: (s.start as usize..(s.start + s.len) as usize)
                .map(|i| {
                    (
                        self.afar[i] & !TREE_BIT,
                        (
                            decode_kind(self.afar[i], self.aa[i], self.ab[i]),
                            self.aw[i],
                        ),
                    )
                })
                .collect(),
        }
    }

    /// Drops the (at most two) occurrences of `d0`/`d1` from a slot's tour
    /// segment in place; the freed tail words stay segment headroom.
    fn tour_drop(&mut self, slot: usize, d0: TourIx, d1: TourIx) {
        let s = self.tpos[slot];
        let t = &mut self.tour[s.start as usize..(s.start + s.len) as usize];
        let mut kept = 0;
        for j in 0..t.len() {
            let i = t[j];
            if i != d0 && i != d1 {
                t[kept] = i;
                kept += 1;
            }
        }
        self.tour_live -= t.len() - kept;
        self.tpos[slot].len = kept as u32;
    }

    /// The structural sweep: applies the broadcast's reroot + main op to
    /// every owned vertex's core (component id, size, tour indexes) and to
    /// every adjacency entry's annotations, in place in the arenas.
    ///
    /// In place is exact because every index map is monotone on one
    /// vertex's sorted list — a cut leaves a vertex wholly inside or wholly
    /// outside `(fy, ly)`, a link adds one constant or shifts the tail above
    /// `fx`, and a reroot is a rotation (map, then sort the slice where it
    /// lies). Only the op's two endpoints change length. The `oracle` test
    /// module holds the per-vertex definition these kernels are checked
    /// against.
    fn apply_sweep(&mut self, b: &StructBroadcast) -> ApplyOutcome {
        let outcome = match b.main {
            TourOp::Link { .. } => {
                self.sweep_link(b);
                ApplyOutcome::default()
            }
            TourOp::Cut { .. } => self.sweep_cut(b),
            TourOp::Reroot { .. } => unreachable!("reroot is never a main op"),
        };
        self.maybe_compact_tour();
        outcome
    }

    /// Link kernel: members of `a` shift their indexes above `fx` by
    /// `elen_b + 4`; members of the absorbed `b` are rerooted (when the
    /// broadcast says so) and shifted by `fx + 2`; `x` and `y` gain the new
    /// edge's two appearances each. Non-tree entries follow the same maps,
    /// keyed by their `far_comp`, whoever holds them.
    fn sweep_link(&mut self, b: &StructBroadcast) {
        let TourOp::Link {
            a,
            b: bc,
            x,
            y,
            fx,
            elen_b,
        } = b.main
        else {
            unreachable!("dispatched on a link")
        };
        let (shift_a, shift_b) = (elen_b + 4, fx + 2);
        let rot = match b.reroot {
            Some(TourOp::Reroot {
                comp, elen, l_y, ..
            }) => {
                assert_eq!(comp, bc, "a link reroots the component it absorbs");
                Some((elen, l_y))
            }
            _ => None,
        };
        let map_a = |i: TourIx| if i > fx { i + shift_a } else { i };
        let map_b = |i: TourIx| rot.map_or(i, |(elen, l_y)| map_reroot(i, elen, l_y)) + shift_b;
        let mut scratch = std::mem::take(&mut self.scratch);
        for slot in 0..self.comp.len() {
            let c = self.comp[slot];
            if c == COMP_NONE {
                continue;
            }
            let from_b = c == bc;
            let member = from_b || c == a;
            if member {
                self.comp[slot] = a;
                self.size[slot] = b.merged_size as u32;
                let v = self.base + slot as V;
                let ts = self.tpos[slot];
                let t = &mut self.tour[ts.start as usize..(ts.start + ts.len) as usize];
                let grown = if from_b {
                    t.iter_mut().for_each(|i| *i = map_b(*i));
                    (v == y).then_some([fx + 2, fx + elen_b + 3])
                } else {
                    t.iter_mut().for_each(|i| *i = map_a(*i));
                    (v == x).then_some([fx + 1, fx + elen_b + 4])
                };
                if let Some(new) = grown {
                    scratch.clear();
                    scratch.extend_from_slice(t);
                    scratch.extend_from_slice(&new);
                    scratch.sort_unstable();
                    self.tour_write(slot, &scratch, TOUR_HEADROOM);
                } else if from_b && rot.is_some() {
                    t.sort_unstable();
                }
            }
            let s = self.apos[slot];
            let seg = s.start as usize..(s.start + s.len) as usize;
            let (far, aa, ab) = (
                &self.afar[seg.clone()],
                &mut self.aa[seg.clone()],
                &mut self.ab[seg],
            );
            for ((&tagged, ea), eb) in far.iter().zip(aa).zip(ab) {
                if tagged & TREE_BIT != 0 {
                    // Tree entries live in their owner's index space.
                    if from_b {
                        let (p, q) = (map_b(*ea), map_b(*eb));
                        (*ea, *eb) = (p.min(q), p.max(q));
                    } else if member {
                        (*ea, *eb) = (map_a(*ea), map_a(*eb));
                    }
                } else if *eb as CompId == bc {
                    // cached == 0: the far endpoint was a singleton, i.e.
                    // the link's y, whose first new index is 0 + shift_b.
                    *ea = map_b(*ea);
                    *eb = a as u64;
                } else if *eb as CompId == a {
                    // cached == 0: the far endpoint was the singleton x,
                    // whose first new index is fx + 1 (fx = 0).
                    *ea = if *ea == 0 { fx + 1 } else { map_a(*ea) };
                }
            }
        }
        self.scratch = scratch;
    }

    /// Cut kernel: members of `comp` strictly inside `(fy, ly)` detach into
    /// `new_comp` (indexes `- fy`), the rest close the gap (indexes above
    /// `ly` drop by the span); `x` and `y` lose the cut edge's appearances.
    /// Non-tree entries into `comp` are re-classified by the far side, and a
    /// searching cut folds the crossing ones into the replacement candidate.
    fn sweep_cut(&mut self, b: &StructBroadcast) -> ApplyOutcome {
        let TourOp::Cut {
            comp,
            x,
            y,
            fy,
            ly,
            new_comp,
        } = b.main
        else {
            unreachable!("dispatched on a cut")
        };
        let span = (ly - fy + 1) + 2;
        let k_sub = (ly - fy).div_ceil(4) as u32;
        // Some live index of y after the cut (0: it became a singleton).
        let y_cached = if ly == fy + 1 { 0 } else { 1 };
        let x_after = b.x_after;
        let searching = b.rendezvous.is_some();
        let map = |i: TourIx| {
            if i > fy && i < ly {
                i - fy
            } else if i > ly {
                i - span
            } else {
                i
            }
        };
        let mut best: Option<(Weight, Edge)> = None;
        let mut outcome = ApplyOutcome::default();
        for slot in 0..self.comp.len() {
            let c = self.comp[slot];
            if c == COMP_NONE {
                continue;
            }
            let v = self.base + slot as V;
            let member = c == comp;
            let mut detached = false;
            if member {
                if v == x {
                    self.tour_drop(slot, fy - 1, ly + 1);
                } else if v == y {
                    self.tour_drop(slot, fy, ly);
                }
                let ts = self.tpos[slot];
                let t = &mut self.tour[ts.start as usize..(ts.start + ts.len) as usize];
                // A vertex with no indexes left is a singleton; the child
                // endpoint forms the new component by itself.
                detached = t.first().map_or(v == y, |&i| i > fy && i < ly);
                if detached {
                    t.iter_mut().for_each(|i| *i -= fy);
                    self.comp[slot] = new_comp;
                    self.size[slot] = k_sub;
                    outcome.owns_child = true;
                } else {
                    t.iter_mut().filter(|i| **i > ly).for_each(|i| *i -= span);
                    self.size[slot] -= k_sub;
                    outcome.owns_parent = true;
                }
            } else if c == new_comp {
                outcome.owns_child = true;
            }
            // The cut edge's own entries are rewritten by the
            // materialization step, not here.
            let skip = if v == x {
                y
            } else if v == y {
                x
            } else {
                V::MAX
            };
            let s = self.apos[slot];
            let seg = s.start as usize..(s.start + s.len) as usize;
            let (far, aa, ab) = (
                &self.afar[seg.clone()],
                &mut self.aa[seg.clone()],
                &mut self.ab[seg.clone()],
            );
            for (k, ((&tagged, ea), eb)) in far.iter().zip(aa).zip(ab).enumerate() {
                let far = tagged & !TREE_BIT;
                if far == skip {
                    continue;
                }
                if tagged & TREE_BIT != 0 {
                    // A surviving tree edge lies on one side.
                    if member {
                        (*ea, *eb) = (map(*ea), map(*eb));
                    }
                    continue;
                }
                if *eb as CompId != comp {
                    continue;
                }
                // Classify the far side, repairing the dying indexes of the
                // cut edge's endpoints.
                let far_detached = if far == y {
                    *ea = y_cached;
                    true
                } else if far == x {
                    *ea = x_after;
                    false
                } else {
                    let inside = *ea > fy && *ea < ly;
                    *ea = map(*ea);
                    inside
                };
                if far_detached {
                    *eb = new_comp as u64;
                }
                if searching && member && far_detached != detached {
                    // Crossing edge: replacement candidate.
                    let cand = (self.aw[seg.start + k], Edge::new(v, far));
                    if best.is_none_or(|cur| cand < cur) {
                        best = Some(cand);
                    }
                }
            }
        }
        outcome.best = best.map(|(w, e)| (e, w));
        outcome
    }
}

// ----- the shard API ----------------------------------------------------

impl Shard {
    /// A fresh shard of singleton vertices `lo..hi`.
    pub fn new_range(lo: V, hi: V) -> Self {
        let n = (hi - lo) as usize;
        Shard {
            base: lo,
            comp: (lo..hi).collect(),
            size: vec![1; n],
            tpos: vec![Seg::default(); n],
            apos: vec![Seg::default(); n],
            ..Default::default()
        }
    }

    /// Drops all vertex state (the soft budget is retained).
    pub fn clear(&mut self) {
        *self = Shard {
            soft_cap: self.soft_cap,
            ..Shard::default()
        }
    }

    /// Sets the soft resident budget in words: mutations that leave the
    /// shard above it force a full arena compaction.
    pub fn set_soft_cap(&mut self, words: usize) {
        self.soft_cap = words;
    }

    pub fn contains(&self, v: V) -> bool {
        self.slot_of(v).is_some()
    }

    pub fn comp_of(&self, v: V) -> CompId {
        self.comp[self.slot(v)]
    }

    pub fn size_of(&self, v: V) -> u64 {
        self.size[self.slot(v)] as u64
    }

    pub fn f_of(&self, v: V) -> TourIx {
        self.idx_of(v).first().copied().unwrap_or(0)
    }

    /// The vertex's tour-index list (the cut flow derives the surviving
    /// parent index from it).
    pub fn idx_of(&self, v: V) -> &[TourIx] {
        self.tour_slice(self.slot(v))
    }

    /// O(1)-word wire summary of one vertex.
    pub fn info(&self, v: V) -> VertexInfo {
        let slot = self.slot(v);
        let t = self.tour_slice(slot);
        VertexInfo {
            v,
            comp: self.comp[slot],
            size: self.size[slot] as u64,
            f: t.first().copied().unwrap_or(0),
            l: t.last().copied().unwrap_or(0),
        }
    }

    /// One adjacency entry, if present (panics when `v` is not owned).
    pub fn adj_get(&self, v: V, far: V) -> Option<(EntryKind, Weight)> {
        self.adj_find(self.slot(v), far).map(|i| {
            (
                decode_kind(self.afar[i], self.aa[i], self.ab[i]),
                self.aw[i],
            )
        })
    }

    /// Inserts or overwrites one adjacency entry.
    pub fn adj_set(&mut self, v: V, far: V, kind: EntryKind, w: Weight) {
        let slot = self.slot(v);
        match self.adj_find(slot, far) {
            Some(i) => {
                let (tree, a, b) = encode_kind(&kind);
                self.afar[i] = far | if tree { TREE_BIT } else { 0 };
                self.aw[i] = w;
                self.aa[i] = a;
                self.ab[i] = b;
            }
            None => self.adj_push(slot, far, &kind, w, ADJ_HEADROOM),
        }
        self.enforce_soft_cap();
    }

    /// Removes one adjacency entry (no-op when absent).
    pub fn adj_remove(&mut self, v: V, far: V) {
        let slot = self.slot(v);
        if let Some(i) = self.adj_find(slot, far) {
            let sg = self.apos[slot];
            let last = (sg.start + sg.len - 1) as usize;
            self.afar[i] = self.afar[last];
            self.aw[i] = self.aw[last];
            self.aa[i] = self.aa[last];
            self.ab[i] = self.ab[last];
            self.apos[slot].len -= 1;
            self.adj_live -= 1;
            self.maybe_compact_adj();
        }
        self.enforce_soft_cap();
    }

    /// Applies a structural op to all owned state; returns the local
    /// replacement candidate and split-side membership (cuts): the sweep
    /// over every slot, then the cut/link entry materialization at owned
    /// endpoints.
    pub fn apply_struct(&mut self, b: &StructBroadcast) -> ApplyOutcome {
        let outcome = self.apply_sweep(b);
        self.materialize_edge(b);
        outcome
    }

    /// Materializes the new/updated edge entries at owned endpoints.
    fn materialize_edge(&mut self, b: &StructBroadcast) {
        match b.main {
            TourOp::Link {
                x, y, fx, elen_b, ..
            } => {
                if self.contains(x) {
                    self.adj_set(
                        x,
                        y,
                        EntryKind::Tree {
                            lo: fx + 1,
                            hi: fx + elen_b + 4,
                        },
                        b.weight,
                    );
                }
                if self.contains(y) {
                    self.adj_set(
                        y,
                        x,
                        EntryKind::Tree {
                            lo: fx + 2,
                            hi: fx + elen_b + 3,
                        },
                        b.weight,
                    );
                }
            }
            TourOp::Cut {
                comp,
                x,
                y,
                fy,
                ly,
                new_comp,
            } => match b.cut_mode {
                CutMode::Remove => {
                    if self.contains(x) {
                        self.adj_remove(x, y);
                    }
                    if self.contains(y) {
                        self.adj_remove(y, x);
                    }
                }
                CutMode::Demote => {
                    // The edge stays in the graph as a (crossing, until the
                    // follow-up link) non-tree edge.
                    let child_singleton = ly == fy + 1;
                    if self.contains(x) {
                        let (_, w) = self
                            .adj_get(x, y)
                            .expect("demoted edge has a tree entry at its owner");
                        self.adj_set(
                            x,
                            y,
                            EntryKind::NonTree {
                                cached: if child_singleton { 0 } else { 1 },
                                far_comp: new_comp,
                            },
                            w,
                        );
                    }
                    if self.contains(y) {
                        let (_, w) = self
                            .adj_get(y, x)
                            .expect("demoted edge has a tree entry at its owner");
                        self.adj_set(
                            y,
                            x,
                            EntryKind::NonTree {
                                cached: b.x_after,
                                far_comp: comp,
                            },
                            w,
                        );
                    }
                }
            },
            TourOp::Reroot { .. } => unreachable!("reroot is never a main op"),
        }
        self.enforce_soft_cap();
    }

    /// The max-weight locally-owned tree edge on the path between the two
    /// spans (ties broken toward the smaller edge for determinism; the fold
    /// is a strict total order, so iteration order cannot matter).
    ///
    /// Each tree edge is processed once, at its child endpoint, whose
    /// subtree span `[f(v), l(v)]` is the first and last word of its tour
    /// segment: the edge is on the x..y path iff that span contains exactly
    /// one endpoint. Only then are the vertex's entries walked for its one
    /// child-side tree entry (even `lo`, arrival parity), whose `(lo, hi)`
    /// equals the span (`ConnDriver::audit` checks both).
    pub fn path_max(
        &self,
        comp: CompId,
        fx: TourIx,
        lx: TourIx,
        fy: TourIx,
        ly: TourIx,
    ) -> Option<(Edge, Weight)> {
        let mut best: Option<(Weight, Edge)> = None;
        for slot in 0..self.comp.len() {
            if self.comp[slot] != comp {
                continue;
            }
            let t = self.tour_slice(slot);
            let (Some(&f), Some(&l)) = (t.first(), t.last()) else {
                continue;
            };
            let contains_x = f <= fx && lx <= l;
            let contains_y = f <= fy && ly <= l;
            if contains_x == contains_y {
                continue;
            }
            let sg = self.apos[slot];
            let child_side = (sg.start as usize..(sg.start + sg.len) as usize)
                .find(|&i| self.afar[i] & TREE_BIT != 0 && self.aa[i].is_multiple_of(2));
            // Only a root has no parent edge (and its span holds both
            // endpoints, so it is never a hit).
            let Some(i) = child_side else { continue };
            debug_assert_eq!((self.aa[i], self.ab[i]), (f, l), "child span is not f/l");
            let v = self.base + slot as V;
            let (w, e) = (self.aw[i], Edge::new(v, self.afar[i] & !TREE_BIT));
            let better = match best {
                None => true,
                Some((bw, be)) => w > bw || (w == bw && e < be),
            };
            if better {
                best = Some((w, e));
            }
        }
        best.map(|(w, e)| (e, w))
    }

    /// True iff any owned vertex belongs to `comp` (migration directory
    /// repair).
    pub fn any_in_comp(&self, comp: CompId) -> bool {
        self.comp.contains(&comp)
    }

    /// Number of owned vertices.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.comp.iter().filter(|&&c| c != COMP_NONE).count()
    }

    /// Materialized state of one vertex (audits/result extraction — not the
    /// update path).
    pub fn vertex(&self, v: V) -> Option<VertexState> {
        self.slot_of(v).map(|slot| self.materialize(slot))
    }

    /// All owned vertices, materialized in id order.
    pub fn vertices(&self) -> Vec<(V, VertexState)> {
        self.slots()
            .map(|(slot, v)| (v, self.materialize(slot)))
            .collect()
    }

    /// Installs (or replaces) `v`'s component id, size and tour indexes,
    /// leaving it with no adjacency entries; returns its slot.
    fn load_core(&mut self, v: V, comp: CompId, size: u64, idx: &[TourIx]) -> usize {
        let slot = self.ensure_slot(v);
        if self.comp[slot] != COMP_NONE {
            // Replacing: free the old segments' live words first.
            self.tour_live -= self.tpos[slot].len as usize;
            self.adj_live -= self.apos[slot].len as usize;
            self.tpos[slot].len = 0;
            self.apos[slot].len = 0;
        }
        self.comp[slot] = comp;
        self.size[slot] = size as u32;
        self.tour_write(slot, idx, 0);
        self.maybe_compact_tour();
        slot
    }

    /// Direct state injection (bulk loading).
    pub fn load_vertex(&mut self, v: V, st: VertexState) {
        let slot = self.load_core(v, st.comp, st.size, &st.idx);
        self.adj_store(slot, &st.adj);
        self.enforce_soft_cap();
    }

    /// Serializes every owned vertex as `vert`/`adj` snapshot lines, sorted
    /// by vertex then far endpoint (arena order never reaches the text).
    pub fn write_all<S: Sink>(&self, s: &mut S) {
        let mut order = Vec::new();
        for (slot, _) in self.slots() {
            self.write_slot(s, slot, &mut order);
        }
    }

    /// Extracts vertices `lo..hi` as snapshot text, removing them from the
    /// shard (shard migration).
    pub fn extract_range(&mut self, lo: V, hi: V) -> String {
        let text = dmpc_mpc::text::render(|text| {
            let mut order = Vec::new();
            for v in lo..hi {
                if let Some(slot) = self.slot_of(v) {
                    self.write_slot(text, slot, &mut order);
                    self.remove_slot(slot);
                }
            }
        });
        // Migrations are rare and already pay O(shard) for the extraction,
        // so compact exactly: the remaining shard must not keep charging
        // for the moved segments' holes.
        self.trim_slots();
        self.compact_tour();
        self.compact_adj();
        text
    }

    /// Parses one `vert`/`adj` snapshot line (an `adj` line requires its
    /// `vert` line to have been parsed first).
    pub fn parse_line(&mut self, line: &str) {
        let mut f = Fields::new(line);
        match f.word().expect("non-empty snapshot line") {
            b"vert" => {
                let (v, comp, size): (V, CompId, u64) = (f.dec(), f.dec(), f.dec());
                let mut idx = std::mem::take(&mut self.scratch);
                idx.clear();
                while let Some(i) = f.next_dec() {
                    idx.push(i);
                }
                self.load_core(v, comp, size, &idx);
                self.scratch = idx;
                // The arena upkeep `load_vertex` does after storing no
                // entries, so the metered footprint matches it exactly.
                self.maybe_compact_adj();
                self.enforce_soft_cap();
            }
            b"adj" => {
                let (v, u): (V, V) = (f.dec(), f.dec());
                let kind = match f.word().expect("adj line ends before its kind") {
                    b"t" => EntryKind::Tree {
                        lo: f.dec(),
                        hi: f.dec(),
                    },
                    b"n" => EntryKind::NonTree {
                        cached: f.dec(),
                        far_comp: f.dec(),
                    },
                    k => panic!("unknown adj kind {:?}", String::from_utf8_lossy(k)),
                };
                let w: Weight = f.dec();
                assert!(self.contains(v), "adj line before its vert line");
                self.adj_set(v, u, kind, w);
            }
            k => panic!("unknown snapshot line {:?}", String::from_utf8_lossy(k)),
        }
    }

    /// The occupied slots with their vertex ids, in id order.
    pub fn slots(&self) -> impl Iterator<Item = (usize, V)> + '_ {
        (0..self.comp.len())
            .filter(|&slot| self.comp[slot] != COMP_NONE)
            .map(|slot| (slot, self.base + slot as V))
    }

    /// Fills `order` with `(key(far), arena index)` of one slot's entries,
    /// ascending: far endpoints are unique within a slot, so any injective
    /// key gives a total order that arena placement cannot move.
    pub fn entry_order(&self, slot: usize, key: impl Fn(V) -> u64, order: &mut Vec<(u64, u32)>) {
        let s = self.apos[slot];
        order.clear();
        order.extend(
            (s.start..s.start + s.len).map(|i| (key(self.afar[i as usize] & !TREE_BIT), i)),
        );
        order.sort_unstable();
    }

    /// Emits one slot's `vert` line.
    pub fn write_vert_line<S: Sink>(&self, s: &mut S, slot: usize) {
        s.put(b"vert");
        put_field(s, (self.base + slot as V) as u64);
        put_field(s, self.comp[slot] as u64);
        put_field(s, self.size[slot] as u64);
        for &i in self.tour_slice(slot) {
            put_field(s, i);
        }
        s.put(b"\n");
    }

    /// Emits the `adj` line of the entry at arena index `i` of `slot`.
    pub fn write_adj_line<S: Sink>(&self, s: &mut S, slot: usize, i: usize) {
        let tagged = self.afar[i];
        s.put(b"adj");
        put_field(s, (self.base + slot as V) as u64);
        put_field(s, (tagged & !TREE_BIT) as u64);
        s.put(if tagged & TREE_BIT != 0 { b" t" } else { b" n" });
        put_field(s, self.aa[i]);
        put_field(s, self.ab[i]);
        put_field(s, self.aw[i]);
        s.put(b"\n");
    }

    /// Emits one slot's `vert` line, then its `adj` lines by far endpoint.
    fn write_slot<S: Sink>(&self, s: &mut S, slot: usize, order: &mut Vec<(u64, u32)>) {
        self.write_vert_line(s, slot);
        self.entry_order(slot, |far| far as u64, order);
        for &(_, i) in order.iter() {
            self.write_adj_line(s, slot, i as usize);
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_state(
        comp: CompId,
        size: u64,
        idx: &[TourIx],
        adj: &[(V, EntryKind, Weight)],
    ) -> VertexState {
        VertexState {
            comp,
            size,
            idx: idx.to_vec(),
            adj: adj.iter().map(|&(u, k, w)| (u, (k, w))).collect(),
        }
    }

    fn tree(lo: TourIx, hi: TourIx) -> EntryKind {
        EntryKind::Tree { lo, hi }
    }

    fn non_tree(cached: TourIx, far_comp: CompId) -> EntryKind {
        EntryKind::NonTree { cached, far_comp }
    }

    /// A 3-vertex path (0-1-2, plus a non-tree 0-2), as hand-built
    /// materialized states.
    fn demo_states() -> [(V, VertexState); 3] {
        [
            (
                0,
                demo_state(0, 3, &[1, 8], &[(1, tree(1, 8), 5), (2, non_tree(3, 0), 9)]),
            ),
            (
                1,
                demo_state(
                    0,
                    3,
                    &[2, 3, 6, 7],
                    &[(0, tree(2, 7), 5), (2, tree(3, 6), 4)],
                ),
            ),
            (
                2,
                demo_state(0, 3, &[4, 5], &[(1, tree(4, 5), 4), (0, non_tree(1, 0), 9)]),
            ),
        ]
    }

    /// [`demo_states`] bulk-loaded into a shard.
    fn loaded() -> Shard {
        let mut sh = Shard::new_range(0, 3);
        for (v, st) in demo_states() {
            sh.load_vertex(v, st);
        }
        sh
    }

    fn text_of(sh: &Shard) -> String {
        dmpc_mpc::text::render(|s| sh.write_all(s))
    }

    /// The snapshot text of [`demo_states`]: vertices ascending, each
    /// vertex's entries by far endpoint ascending.
    const DEMO_TEXT: &str = "\
        vert 0 0 3 1 8\n\
        adj 0 1 t 1 8 5\n\
        adj 0 2 n 3 0 9\n\
        vert 1 0 3 2 3 6 7\n\
        adj 1 0 t 2 7 5\n\
        adj 1 2 t 3 6 4\n\
        vert 2 0 3 4 5\n\
        adj 2 0 n 1 0 9\n\
        adj 2 1 t 4 5 4\n";

    #[test]
    fn accessors_and_snapshot_match_the_loaded_states() {
        let sh = loaded();
        for (v, st) in demo_states() {
            assert_eq!(sh.comp_of(v), st.comp);
            assert_eq!(sh.size_of(v), st.size);
            assert_eq!(sh.f_of(v), st.idx[0]);
            assert_eq!(sh.idx_of(v), st.idx);
            assert_eq!(
                sh.info(v),
                VertexInfo {
                    v,
                    comp: st.comp,
                    size: st.size,
                    f: st.idx[0],
                    l: *st.idx.last().unwrap(),
                }
            );
            for far in 0..3 {
                assert_eq!(
                    sh.adj_get(v, far),
                    st.adj.get(&far).copied(),
                    "adj {v} {far}"
                );
            }
            assert_eq!(sh.vertex(v), Some(st));
        }
        assert_eq!(sh.vertices(), demo_states());
        assert_eq!(text_of(&sh), DEMO_TEXT);
        // Both tree edges lie on the 0..2 path; the heavier one wins.
        assert_eq!(sh.path_max(0, 1, 8, 4, 5), Some((Edge::new(0, 1), 5)));
    }

    #[test]
    fn soa_mutation_round_trips_through_snapshot() {
        let mut sh = loaded();
        sh.adj_set(0, 1, tree(1, 10), 7); // overwrite
        sh.adj_remove(2, 0);
        sh.adj_set(1, 2, non_tree(4, 0), 6); // kind change
        let text = text_of(&sh);
        assert_eq!(
            text,
            "vert 0 0 3 1 8\n\
             adj 0 1 t 1 10 7\n\
             adj 0 2 n 3 0 9\n\
             vert 1 0 3 2 3 6 7\n\
             adj 1 0 t 2 7 5\n\
             adj 1 2 n 4 0 6\n\
             vert 2 0 3 4 5\n\
             adj 2 1 t 4 5 4\n"
        );
        // Restore the text into a fresh shard.
        let mut back = Shard::new_range(0, 0);
        for line in text.lines() {
            back.parse_line(line);
        }
        assert_eq!(text_of(&back), text);
    }

    #[test]
    fn extract_range_emits_the_moved_text_and_trims() {
        let mut sh = loaded();
        let moved = sh.extract_range(0, 2);
        let kept = DEMO_TEXT.find("vert 2").unwrap();
        assert_eq!(moved, DEMO_TEXT[..kept], "extracted migration payload");
        assert_eq!(sh.len(), 1);
        assert!(!sh.contains(0) && !sh.contains(1) && sh.contains(2));
        assert_eq!(text_of(&sh), DEMO_TEXT[kept..]);
        // The trimmed shard must not keep charging for the moved slots.
        let words_after = sh.memory_words();
        assert!(
            words_after < 20,
            "trimmed shard footprint too large: {words_after}"
        );
    }

    /// The resident accounting matches a hand-computed figure for a known
    /// shard within 10%.
    ///
    /// Hand computation for the [`loaded`] shard (bulk loads use zero
    /// headroom, so caps == lens and the arenas are hole-free):
    ///
    /// * slot arrays, 3 slots: comp 3x4 + size 3x4 + tpos 3x12 + apos 3x12
    ///   = 96 bytes
    /// * tour arena: 2 + 4 + 2 = 8 indexes x 8 bytes = 64 bytes
    /// * adjacency arena: 6 entries x (4 + 8 + 8 + 8) = 168 bytes
    ///
    /// total = 328 bytes = ceil(328 / 8) = 41 words.
    #[test]
    fn soa_resident_words_within_10pct_of_hand_count() {
        let hand = 41.0_f64;
        let got = loaded().memory_words() as f64;
        assert!(
            (got - hand).abs() <= hand * 0.10,
            "resident {got} vs hand-computed {hand}"
        );
        // For this exactly-sized shard the two should in fact be equal.
        assert_eq!(got as usize, 41);
    }

    #[test]
    fn soa_arena_compaction_bounds_holes() {
        let mut s = Shard::new_range(0, 64);
        // Repeatedly grow and clear adjacency on every vertex; the arena
        // must stay within 2x live + slack despite all the relocations.
        for round in 0..6u64 {
            for v in 0..64u32 {
                for far in 0..8u32 {
                    s.adj_set(v, 100 + far, non_tree(round, 7), round);
                }
            }
            for v in 0..64u32 {
                for far in 0..4u32 {
                    s.adj_remove(v, 100 + far);
                }
            }
        }
        assert_eq!(s.adj_live, 64 * 4);
        assert!(
            s.afar.len() <= 2 * s.adj_live + 64,
            "adjacency arena not compacted: {} live {}",
            s.afar.len(),
            s.adj_live
        );
    }
}
