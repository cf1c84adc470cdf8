//! Per-machine vertex-shard storage.
//!
//! [`ConnMachine`](crate::machine::ConnMachine) keeps its owned vertex block
//! in a [`Shard`]: flat structure-of-arrays slices keyed by dense local slot
//! ids (the `pvector` + property-array idiom), with per-vertex adjacency
//! entries stored as segments of one shared arena. Deletes punch free holes
//! (segment `len < cap`, or whole segments abandoned on relocation); the
//! arena compacts when holes outgrow live data, so the resident footprint
//! stays linear in the shard.
//!
//! Every adjacency segment stores its tree entries first: an entry is a tree
//! entry exactly when it lies in its segment's prefix of `tree` entries, so
//! no entry carries a kind tag and the sweep runs one loop over the tree
//! prefix and one over the non-tree suffix without testing a kind per entry.
//! Each mutation keeps the split with at most two entry moves (see
//! [`Shard::adj_set`] and [`Shard::adj_remove`]); bulk stores write the tree
//! entries first, relocation and compaction copy segments in order. The
//! tree prefix *is* the vertex's tour (each entry names the vertex's two
//! appearances for its edge) and starts with the parent edge. Annotations
//! are `u32` columns (indexes stay below `4n`, see [`MAX_VERTICES`]),
//! widened to [`TourIx`] at the shard boundary and narrowed by `ix32`.
//!
//! A structural op (a link, a cut, an MST swap's demote and link) is one
//! `Relabel`, the arithmetic map the paper's §5 makes of it: a side rule,
//! then per side an id, a size rule and one piecewise `Shift` of indexes.
//! One sweep applies it in place ([`Shard::apply`]); the `oracle` test
//! module defines what an op does to one vertex, which the sweep is
//! differentially tested against. Every fold over entries (replacement
//! candidates, path maxima) uses an explicit total-order tie-break, so
//! results never depend on arena order. Snapshot emission sorts by vertex
//! and far endpoint, so `snapshot_text` (and therefore every
//! `state_digest`) is a function of the logical state only —
//! relocations, compactions and migrations never move it
//! (`tests/golden_digests.rs` pins the digests).
//!
//! The global-id ↔ slot interner is direct-mapped: a shard owns a
//! contiguous vertex range, so `slot = v - base` with an absence sentinel.
//! Migrations shift the range; the interner rebases (rare, O(block) work)
//! rather than paying a hash per access on the hot path.

use crate::messages::{PathSpans, Struct, VertexInfo};
use dmpc_eulertour::indexed::{CompId, Cut, Link};
use dmpc_eulertour::TourIx;
use dmpc_graph::{Edge, Weight, V};
use dmpc_mpc::text::{put_field, Fields, Sink};
use std::cell::{RefCell, RefMut};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

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

// ----- the arena --------------------------------------------------------

/// One adjacency segment: a vertex's entries are `start..start+len` of the
/// entry columns (tree entries first: `tree` of them), with `cap - len` of
/// headroom before it relocates to the arena tail, leaving a hole.
#[derive(Clone, Copy, Debug, Default)]
struct AdjSeg {
    start: u32,
    len: u32,
    cap: u32,
    tree: u32,
}

impl AdjSeg {
    #[inline]
    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// Arena index of the first non-tree entry (= one past the prefix).
    #[inline]
    fn mid(self) -> usize {
        (self.start + self.tree) as usize
    }

    /// The tree prefix and the non-tree suffix.
    #[inline]
    fn parts(self) -> (Range<usize>, Range<usize>) {
        let r = self.range();
        (r.start..self.mid(), self.mid()..r.end)
    }
}

/// Absence sentinel in the `comp` property array (component ids are vertex
/// ids, which stay far below `u32::MAX`).
const COMP_NONE: CompId = CompId::MAX;
/// Largest vertex count a shard can address: a component of `k` vertices
/// has tour indexes `1..=4(k-1)`, so `n <= 2^30` keeps every index (and
/// every vertex id) inside the `u32` annotation columns.
pub(crate) const MAX_VERTICES: usize = 1 << 30;
/// Headroom granted when an adjacency segment relocates.
const ADJ_HEADROOM: u32 = 2;

/// Narrows a tour index to its `u32` column: the one `TourIx` → `u32`
/// conversion, in range whenever `n <= MAX_VERTICES` (which `ConnDriver`
/// checks before any machine exists).
#[inline]
fn ix32(i: TourIx) -> u32 {
    debug_assert!(
        i <= u32::MAX as TourIx,
        "tour index {i} exceeds the 32-bit columns"
    );
    i as u32
}

/// A piecewise shift of tour indexes, the form of each side's map under
/// every structural op: `i + base`, plus `step[k]` for each breakpoint
/// `at[k] < i`, in wrapping `u32` arithmetic (a step may be negative; every
/// result is a live index, so no true value wraps).
#[derive(Clone, Copy, Debug)]
struct Shift {
    base: u32,
    at: [u32; 2],
    step: [u32; 2],
}

impl Shift {
    /// A breakpoint no index passes.
    const NEVER: u32 = u32::MAX;

    /// `i + base`, plus `step` past `at`.
    fn past(base: u32, at: u32, step: u32) -> Shift {
        Shift {
            base,
            at: [at, Shift::NEVER],
            step: [step, 0],
        }
    }

    #[inline]
    fn apply(self, i: u32) -> u32 {
        let mut j = i.wrapping_add(self.base);
        for k in 0..2 {
            if i > self.at[k] {
                j = j.wrapping_add(self.step[k]);
            }
        }
        j
    }

    /// This one-breakpoint map after a cut's map of its detached side,
    /// whose indexes lie strictly inside `(fy, ly)` and drop by `fy`.
    fn after_child_cut(self, fy: u32) -> Shift {
        let at = match self.at[0] {
            Shift::NEVER => Shift::NEVER,
            t => t + fy,
        };
        Shift::past(self.base.wrapping_sub(fy), at, self.step[0])
    }

    /// This one-breakpoint map after a cut's map of its surviving side,
    /// whose indexes lie below `fy - 1` and stay, or above `ly + 1` and drop
    /// by the span (to `fy - 1` and up): a breakpoint at `t` stays put below
    /// `fy - 1` and moves up by the span otherwise.
    fn after_parent_cut(self, fy: u32, ly: u32) -> Shift {
        let span = (ly - fy + 1) + 2;
        let at = match self.at[0] {
            Shift::NEVER => Shift::NEVER,
            t if t < fy - 1 => t,
            t => t + span,
        };
        Shift {
            base: self.base,
            at: [ly, at],
            step: [span.wrapping_neg(), self.step[0]],
        }
    }
}

/// What a relabel does to a member's component size.
#[derive(Clone, Copy, Debug)]
enum Size {
    /// The side's size: a link's merged one, a cut's detached one.
    Set(u32),
    /// Less `k`: a cut's surviving side; a swap's sides keep theirs (`0`).
    Sub(u32),
}

/// A structural op as the arithmetic map the paper's §5 makes of it, which
/// [`Shard::sweep`] applies to every owned vertex and entry: a side rule,
/// then what each side becomes. Side 0 is a link's `a` or a cut's surviving
/// side, side 1 a link's absorbed `b` or a cut's detached side.
///
/// The side rule: a vertex of component `ids[0]` or `ids[1]` is on side 1
/// iff it is of `ids[1]`, or is `ends[1].0`, or is not `ends[0].0` and its
/// indexes lie strictly inside `(fy, ly)`. A link sides by id alone (its
/// `a` and `b`, no ends, an empty span); a cut or a swap of `comp` by the
/// span (`ids` is `comp` and none), with its `x` on side 0 and its `y` on
/// side 1.
#[derive(Clone, Copy, Debug)]
struct Relabel {
    ids: [CompId; 2],
    fy: u32,
    ly: u32,
    /// The cut's `x` and `y` (`V::MAX`, no vertex, for none), each with the
    /// index an entry into it takes: the cut drops the cut edge's indexes,
    /// which the entry may cache.
    ends: [(V, u32); 2],
    /// Each side's component id afterwards.
    comp: [CompId; 2],
    /// Each side's members' new size.
    size: [Size; 2],
    /// Each side's map of its tour indexes.
    shift: [Shift; 2],
    /// What a cached 0 (a singleton far endpoint, in no tour) becomes on
    /// each side: a link's `x` at `fx + 1`, its `y` at `fx + 2`.
    zero: [u32; 2],
    /// Which sides were rerooted: their members' parent edges move.
    rerooted: [bool; 2],
    /// Fold the crossing non-tree entries into a replacement candidate (a
    /// searching cut).
    searching: bool,
}

impl Relabel {
    /// A link, a cut, or an MST swap: its demote, then the link that
    /// rejoins the two sides.
    fn of(s: &Struct) -> Relabel {
        match *s {
            Struct::Link {
                link,
                reroot_l_y,
                merged_size,
                ..
            } => Relabel::link(link, reroot_l_y, Size::Set(merged_size as u32)),
            Struct::Cut { cut, x_after, .. } => Relabel::cut(cut, x_after, None, true),
            Struct::Swap {
                cut,
                x_after,
                link,
                reroot_l_y,
                ..
            } => {
                // Every member takes the link's id and keeps its size.
                let mut r = Relabel::link(link, reroot_l_y, Size::Sub(0));
                // The link keeps the side holding its `x`: the detached one
                // iff it takes the child's id.
                if link.a == cut.new_comp {
                    r.shift.reverse();
                    r.zero.reverse();
                    r.rerooted.reverse();
                }
                Relabel::cut(cut, x_after, Some(r), false)
            }
        }
    }

    /// A link of `a` and `b` into `a`, every member's size set by `size`:
    /// `a` opens a gap of `elen_b + 4` after `fx`; `b` moves in after
    /// `fx + 1`, first rerooted at `l_y` when given. The reroot is
    /// `map_reroot`'s rotation of `1..=elen_b`: the indexes from `l_y` on
    /// come first.
    fn link(link: Link, reroot_l_y: Option<TourIx>, size: Size) -> Relabel {
        let Link {
            a, b, fx, elen_b, ..
        } = link;
        let (fx, elen_b) = (ix32(fx), ix32(elen_b));
        let shift_b = match reroot_l_y.map(ix32) {
            Some(l_y) => Shift::past(elen_b - l_y + fx + 3, l_y - 1, elen_b.wrapping_neg()),
            None => Shift::past(fx + 2, Shift::NEVER, 0),
        };
        Relabel {
            ids: [a, b],
            fy: 0,
            ly: 0,
            ends: [(V::MAX, 0); 2],
            comp: [a; 2],
            size: [size; 2],
            shift: [Shift::past(0, fx, elen_b + 4), shift_b],
            zero: [fx + 1, fx + 2],
            rerooted: [false, reroot_l_y.is_some()],
            searching: false,
        }
    }

    /// `cut`, then `then`, a relabel of its two sides in post-cut indexes:
    /// by default the identity, with the cut's ids and sizes.
    fn cut(cut: Cut, x_after: TourIx, then: Option<Relabel>, searching: bool) -> Relabel {
        let Cut {
            comp,
            x,
            y,
            fy,
            ly,
            new_comp,
        } = cut;
        let (fy, ly) = (ix32(fy), ix32(ly));
        let k = (ly - fy).div_ceil(4);
        let mut r = then.unwrap_or(Relabel {
            ids: [comp, COMP_NONE],
            fy,
            ly,
            ends: [(V::MAX, 0); 2],
            comp: [comp, new_comp],
            size: [Size::Sub(k), Size::Set(k)],
            shift: [Shift::past(0, Shift::NEVER, 0); 2],
            zero: [0; 2],
            rerooted: [false; 2],
            searching: false,
        });
        // The endpoints' repaired indexes are post-cut ones (y's 1, or 0
        // once a singleton), so only `then` maps them.
        let at = |s: usize, i: u32| match i {
            0 => r.zero[s],
            i => r.shift[s].apply(i),
        };
        r.ends = [
            (x, at(0, ix32(x_after))),
            (y, at(1, u32::from(ly != fy + 1))),
        ];
        (r.ids, r.fy, r.ly, r.searching) = ([comp, COMP_NONE], fy, ly, searching);
        r.shift = [
            r.shift[0].after_parent_cut(fy, ly),
            r.shift[1].after_child_cut(fy),
        ];
        r
    }
}

/// A machine's owned vertex shard: property arrays indexed by
/// `slot = v - base`, plus the adjacency arena addressed by per-slot
/// segments.
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
    /// Adjacency segment per slot (into the four entry columns), tree
    /// entries first, the parent edge first of those.
    apos: Vec<AdjSeg>,
    /// Far endpoint, per entry.
    afar: Vec<V>,
    /// Edge weight, per entry.
    aw: Vec<Weight>,
    /// `lo` (tree) or `cached` (non-tree), per entry, narrowed to `u32`.
    aa: Vec<u32>,
    /// `hi` (tree) or `far_comp` (non-tree), per entry.
    ab: Vec<u32>,
    /// Live entries in the adjacency arena.
    adj_live: usize,
    /// Soft resident budget in words (0 = unlimited): a mutation that
    /// leaves the shard above it forces a full arena compaction, so slack
    /// never turns a shard that *would* fit compactly into a capacity
    /// violation.
    soft_cap: usize,
    /// Reused buffer for index lists derived from a tree prefix.
    idx_buf: RefCell<Vec<u32>>,
    /// The vertex of the last parsed `vert` line, until it is checked.
    vert_line: Option<V>,
    /// The index list the last parsed `vert` line printed.
    vert_idx: Vec<TourIx>,
}

#[inline]
fn decode_kind(tree: bool, a: u32, b: u32) -> EntryKind {
    if tree {
        EntryKind::Tree {
            lo: a.into(),
            hi: b.into(),
        }
    } else {
        EntryKind::NonTree {
            cached: a.into(),
            far_comp: b,
        }
    }
}

#[inline]
fn encode_kind(kind: &EntryKind) -> (bool, u32, u32) {
    match *kind {
        EntryKind::Tree { lo, hi } => (true, ix32(lo), ix32(hi)),
        EntryKind::NonTree { cached, far_comp } => (false, ix32(cached), far_comp),
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
        debug_assert!(
            (v as usize) < MAX_VERTICES,
            "vertex id beyond the shard limit"
        );
        if self.comp.is_empty() {
            self.base = v;
        }
        if v < self.base {
            let k = (self.base - v) as usize;
            self.comp.splice(0..0, std::iter::repeat_n(COMP_NONE, k));
            self.size.splice(0..0, std::iter::repeat_n(0u32, k));
            self.apos
                .splice(0..0, std::iter::repeat_n(AdjSeg::default(), k));
            self.base = v;
        }
        let i = (v - self.base) as usize;
        while self.comp.len() <= i {
            self.comp.push(COMP_NONE);
            self.size.push(0);
            self.apos.push(AdjSeg::default());
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
                self.apos.clear();
                return;
            }
        };
        self.comp.truncate(last + 1);
        self.size.truncate(last + 1);
        self.apos.truncate(last + 1);
        let first = self.comp.iter().position(|&c| c != COMP_NONE).unwrap();
        if first > 0 {
            self.comp.drain(..first);
            self.size.drain(..first);
            self.apos.drain(..first);
            self.base += first as V;
        }
    }

    /// A slot's tour indexes, ascending: its tree prefix's pairs, sorted.
    fn indexes(&self, slot: usize) -> RefMut<'_, Vec<u32>> {
        let mut idx = self.idx_buf.borrow_mut();
        let (tree, _) = self.apos[slot].parts();
        idx.clear();
        for (&lo, &hi) in self.aa[tree.clone()].iter().zip(&self.ab[tree]) {
            idx.extend([lo, hi]);
        }
        idx.sort_unstable();
        idx
    }

    /// [`Self::indexes`] as an owned list at the shard boundary's width.
    fn index_list(&self, slot: usize) -> Vec<TourIx> {
        self.indexes(slot).iter().map(|&i| i.into()).collect()
    }

    /// Arena index of `slot`'s parent edge: its first tree entry, if even.
    #[inline]
    fn parent_edge(&self, slot: usize) -> Option<usize> {
        let s = self.apos[slot];
        let i = s.start as usize;
        (s.tree > 0 && self.aa[i].is_multiple_of(2)).then_some(i)
    }

    /// A slot's span `(f, l)`: its parent edge, else (a root) its tree
    /// prefix's least `lo` and greatest `hi`; `(0, 0)` for a singleton.
    fn span(&self, slot: usize) -> (u32, u32) {
        if let Some(i) = self.parent_edge(slot) {
            return (self.aa[i], self.ab[i]);
        }
        let (tree, _) = self.apos[slot].parts();
        (tree.map(|i| (self.aa[i], self.ab[i])))
            .reduce(|(f, l), (lo, hi)| (f.min(lo), l.max(hi)))
            .unwrap_or((0, 0))
    }

    /// Moves `slot`'s parent edge (its even-`lo` tree entry) to the front.
    fn lift_parent_edge(&mut self, slot: usize) {
        let (tree, _) = self.apos[slot].parts();
        if let Some(i) = tree.clone().find(|&i| self.aa[i].is_multiple_of(2)) {
            self.adj_swap(tree.start, i);
        }
    }

    #[inline]
    fn adj_find(&self, slot: usize, far: V) -> Option<usize> {
        let r = self.apos[slot].range();
        let k = self.afar[r.clone()].iter().position(|&f| f == far)?;
        Some(r.start + k)
    }

    /// Whether arena index `i` of `slot`'s segment lies in its tree prefix.
    #[inline]
    fn is_tree(&self, slot: usize, i: usize) -> bool {
        i < self.apos[slot].mid()
    }

    /// The entry at arena index `i` of `slot`'s segment.
    fn entry(&self, slot: usize, i: usize) -> (EntryKind, Weight) {
        let kind = decode_kind(self.is_tree(slot, i), self.aa[i], self.ab[i]);
        (kind, self.aw[i])
    }

    /// Writes one entry's four columns at arena index `i`.
    #[inline]
    fn adj_put(&mut self, i: usize, far: V, w: Weight, a: u32, b: u32) {
        self.afar[i] = far;
        self.aw[i] = w;
        self.aa[i] = a;
        self.ab[i] = b;
    }

    /// Copies the entry at arena index `from` over the one at `to`.
    #[inline]
    fn adj_move(&mut self, from: usize, to: usize) {
        self.afar[to] = self.afar[from];
        self.aw[to] = self.aw[from];
        self.aa[to] = self.aa[from];
        self.ab[to] = self.ab[from];
    }

    /// Swaps the entries at arena indexes `i` and `j`.
    #[inline]
    fn adj_swap(&mut self, i: usize, j: usize) {
        self.afar.swap(i, j);
        self.aw.swap(i, j);
        self.aa.swap(i, j);
        self.ab.swap(i, j);
    }

    /// Appends `k` zeroed entries to the adjacency arena.
    fn adj_extend(&mut self, k: usize) {
        let len = self.afar.len() + k;
        self.afar.resize(len, 0);
        self.aw.resize(len, 0);
        self.aa.resize(len, 0);
        self.ab.resize(len, 0);
    }

    /// Makes room for one more entry in a slot's segment: in place while it
    /// has headroom, by growing when it ends at the arena tail (no hole; the
    /// common case during snapshot restores, where a vertex's entries
    /// stream in back-to-back), otherwise by relocating it in order to the
    /// tail with `headroom` spare words. Returns whether it relocated.
    fn adj_reserve(&mut self, slot: usize, headroom: u32) -> bool {
        let s = self.apos[slot];
        if s.len < s.cap {
            return false;
        }
        if (s.start + s.cap) as usize == self.afar.len() {
            self.adj_extend(1);
            self.apos[slot].cap += 1;
            return false;
        }
        let start = self.afar.len();
        let cap = s.len + 1 + headroom;
        self.adj_extend(cap as usize);
        for (k, from) in s.range().enumerate() {
            self.adj_move(from, start + k);
        }
        self.apos[slot] = AdjSeg {
            start: start as u32,
            cap,
            ..s
        };
        true
    }

    /// Adds one entry to a slot's segment, relocating (with headroom) on
    /// overflow. A tree entry takes the first non-tree entry's place, which
    /// moves to the end.
    fn adj_push(&mut self, slot: usize, far: V, kind: &EntryKind, w: Weight, headroom: u32) {
        let relocated = self.adj_reserve(slot, headroom);
        let (tree, a, b) = encode_kind(kind);
        let s = self.apos[slot];
        let end = s.range().end;
        let i = if tree {
            self.adj_move(s.mid(), end);
            self.apos[slot].tree += 1;
            s.mid()
        } else {
            end
        };
        self.adj_put(i, far, w, a, b);
        self.apos[slot].len += 1;
        if tree {
            self.lift_parent_edge(slot);
        }
        if relocated {
            self.maybe_compact_adj();
        }
        self.adj_live += 1;
    }

    /// Writes a whole (empty) adjacency segment at once with an exact cap,
    /// tree entries first — bulk loading, where per-entry pushes would
    /// leave relocation holes.
    fn adj_store(&mut self, slot: usize, entries: &BTreeMap<V, (EntryKind, Weight)>) {
        let s = self.apos[slot];
        debug_assert_eq!(s.len, 0, "adj_store over a non-empty segment");
        let n = entries.len() as u32;
        let tree = (entries.values())
            .filter(|(kind, _)| matches!(kind, EntryKind::Tree { .. }))
            .count() as u32;
        let start = if n <= s.cap {
            s.start
        } else {
            let start = self.afar.len() as u32;
            self.adj_extend(n as usize);
            start
        };
        self.apos[slot] = AdjSeg {
            start,
            len: n,
            cap: s.cap.max(n),
            tree,
        };
        let (mut t, mut nt) = (start as usize, (start + tree) as usize);
        for (&far, (kind, w)) in entries {
            let (is_tree, a, b) = encode_kind(kind);
            let next = if is_tree { &mut t } else { &mut nt };
            self.adj_put(*next, far, *w, a, b);
            *next += 1;
        }
        self.lift_parent_edge(slot);
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
    /// property array, the arena *including its free holes and segment
    /// headroom* (that memory is resident), and the segment table,
    /// converted from bytes at 8 bytes/word. Transient scratch buffers are
    /// excluded (they are executor-style reusable workspace, not shard
    /// state).
    pub fn memory_words(&self) -> usize {
        let slot_bytes = self.comp.len() * 4    // comp: u32
            + self.size.len() * 4               // size: u32
            + self.apos.len() * 16; // AdjSeg: 4 x u32
        let adj_bytes = self.afar.len() * 4     // far: u32
            + self.aw.len() * 8                 // weight: u64
            + self.aa.len() * 4
            + self.ab.len() * 4;
        (slot_bytes + adj_bytes).div_ceil(8)
    }

    /// Compacts the arena if the shard sits above its soft budget while
    /// holding any slack. Steady-state mutations never pay this; it only
    /// fires when a shard is near the machine capacity `S`, where the
    /// metered footprint must match the compact one.
    fn enforce_soft_cap(&mut self) {
        if self.soft_cap == 0 || self.afar.len() == self.adj_live {
            return;
        }
        if self.memory_words() <= self.soft_cap {
            return;
        }
        self.compact_adj();
    }

    fn compact_adj(&mut self) {
        let mut afar = Vec::with_capacity(self.adj_live);
        let mut aw = Vec::with_capacity(self.adj_live);
        let mut aa = Vec::with_capacity(self.adj_live);
        let mut ab = Vec::with_capacity(self.adj_live);
        for s in self.apos.iter_mut() {
            let start = afar.len() as u32;
            let r = s.range();
            afar.extend_from_slice(&self.afar[r.clone()]);
            aw.extend_from_slice(&self.aw[r.clone()]);
            aa.extend_from_slice(&self.aa[r.clone()]);
            ab.extend_from_slice(&self.ab[r]);
            *s = AdjSeg {
                start,
                cap: s.len,
                ..*s
            };
        }
        self.afar = afar;
        self.aw = aw;
        self.aa = aa;
        self.ab = ab;
    }

    /// Removes a slot entirely (migration), freeing its segment as a hole.
    fn remove_slot(&mut self, slot: usize) {
        self.comp[slot] = COMP_NONE;
        self.size[slot] = 0;
        self.adj_live -= self.apos[slot].len as usize;
        self.apos[slot] = AdjSeg::default();
    }

    fn materialize(&self, slot: usize) -> VertexState {
        VertexState {
            comp: self.comp[slot],
            size: self.size[slot] as u64,
            idx: self.index_list(slot),
            adj: (self.apos[slot].range())
                .map(|i| (self.afar[i], self.entry(slot, i)))
                .collect(),
        }
    }

    /// The structural sweep: applies `r` to every owned vertex's core
    /// (component id, size) and tree prefix, which is its tour, and to every
    /// non-tree entry into a side, whoever holds it, in place in the arena.
    /// The `oracle` test module holds the per-vertex definition the sweep is
    /// checked against. Kept out of line: inlined into its one caller,
    /// [`Shard::apply`], it cost the swap-heavy `mst-mixed` workload 3–10%
    /// of its throughput.
    #[inline(never)]
    fn sweep(&mut self, r: &Relabel) -> ApplyOutcome {
        // Each side's values as locals, selected by side, not indexed by it:
        // an indexed load waits on the side test (see docs/ARCHITECTURE.md).
        let ([a, b], [(x, x_at), (y, y_at)], (fy, ly)) = (r.ids, r.ends, (r.fy, r.ly));
        let ([c0, c1], [m0, m1], [z0, z1]) = (r.comp, r.shift, r.zero);
        for slot in 0..self.comp.len() {
            let c = self.comp[slot];
            if c == COMP_NONE {
                continue;
            }
            let v = self.base + slot as V;
            let (tree, rest) = self.apos[slot].parts();
            // But for a cut's x and y, a member's entries lie on one side
            // (a link's span is empty: it reads no entry to tell).
            let inside = |i: usize| self.aa[i] > fy && self.aa[i] < ly;
            if c == a || c == b {
                let one = c == b
                    || v == y
                    || (v != x && fy < ly && tree.clone().next().is_some_and(inside));
                let s = usize::from(one);
                self.comp[slot] = r.comp[s];
                self.size[slot] = match r.size[s] {
                    Size::Set(k) => k,
                    Size::Sub(k) => self.size[slot] - k,
                };
                // A cut maps its edge's own entries too; the
                // materialization step right after rewrites or removes them.
                let (aa, ab) = (&mut self.aa[tree.clone()], &mut self.ab[tree]);
                let m = r.shift[s];
                for (ea, eb) in aa.iter_mut().zip(ab) {
                    let (p, q) = (m.apply(*ea), m.apply(*eb));
                    (*ea, *eb) = (p.min(q), p.max(q));
                }
                if r.rerooted[s] {
                    self.lift_parent_edge(slot);
                }
            }
            let fars = &self.afar[rest.clone()];
            let (aa, ab) = (&mut self.aa[rest.clone()], &mut self.ab[rest]);
            // The same rule for the far endpoint, fused with its side's map.
            for ((&far, ea), eb) in fars.iter().zip(aa).zip(ab) {
                let (e, i) = (*eb, *ea);
                if e != a && e != b {
                    continue;
                }
                (*ea, *eb) = if far == y {
                    (y_at, c1)
                } else if far == x {
                    (x_at, c0)
                } else if e == b || (i > fy && i < ly) {
                    (if i == 0 { z1 } else { m1.apply(i) }, c1)
                } else {
                    (if i == 0 { z0 } else { m0.apply(i) }, c0)
                };
            }
        }
        // Only a cut leaves two components. It reports which it owns and,
        // searching, the lightest entry that now crosses them (a replacement
        // candidate), in a pass of its own: folded into the one above, it
        // slowed the swap's sweep.
        let mut out = ApplyOutcome::default();
        let mut best: Option<(Weight, Edge)> = None;
        for slot in (0..self.comp.len()).filter(|_| c0 != c1) {
            let one = self.comp[slot] == c1;
            if !one && self.comp[slot] != c0 {
                continue;
            }
            out.owns_child |= one;
            out.owns_parent |= !one;
            let (_, rest) = self.apos[slot].parts();
            let other = if one { c0 } else { c1 };
            for i in rest.filter(|&i| r.searching && self.ab[i] == other) {
                let cand = (self.aw[i], Edge::new(self.base + slot as V, self.afar[i]));
                if best.is_none_or(|cur| cand < cur) {
                    best = Some(cand);
                }
            }
        }
        out.best = best.map(|(w, e)| (e, w));
        out
    }

    /// Layout audit: every segment lies inside the arena and within its
    /// capacity, the live-entry total balances, absent slots hold nothing,
    /// and no child-side tree entry (even `lo`) sits anywhere but first in
    /// its prefix, where [`Self::span`] and [`Self::path_max`] read it.
    /// (`ConnDriver::audit` checks that a prefix holds exactly its vertex's
    /// tree edges: the indexes they name must partition each tour.)
    pub fn check_layout(&self) -> Result<(), String> {
        let entries = self.afar.len();
        if [self.aw.len(), self.aa.len(), self.ab.len()] != [entries; 3] {
            return Err(format!(
                "adjacency columns disagree on length: far {entries}, w {}, a {}, b {}",
                self.aw.len(),
                self.aa.len(),
                self.ab.len()
            ));
        }
        let n = self.comp.len();
        if [self.size.len(), self.apos.len()] != [n; 2] {
            return Err(format!("property arrays disagree on the slot count {n}"));
        }
        let adj_live: usize = self.apos.iter().map(|s| s.len as usize).sum();
        if adj_live != self.adj_live {
            return Err(format!(
                "live total {} entries, segments hold {adj_live}",
                self.adj_live
            ));
        }
        for slot in 0..n {
            let v = self.base + slot as V;
            let s = self.apos[slot];
            if s.tree > s.len || s.len > s.cap || s.start as usize + s.cap as usize > entries {
                return Err(format!(
                    "vertex {v}: adjacency segment {s:?} outside the {entries}-entry arena"
                ));
            }
            if self.comp[slot] == COMP_NONE {
                if s.len != 0 {
                    return Err(format!("absent slot {slot} holds {s:?}"));
                }
                continue;
            }
            let (tree, _) = s.parts();
            if let Some(i) = tree.skip(1).find(|&i| self.aa[i].is_multiple_of(2)) {
                let far = self.afar[i];
                return Err(format!(
                    "vertex {v}: child-side entry to {far} is not first in its prefix"
                ));
            }
        }
        Ok(())
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
            apos: vec![AdjSeg::default(); n],
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
        self.span(self.slot(v)).0.into()
    }

    /// The vertex's tour-index list, ascending (the cut flow derives the
    /// surviving parent index from it).
    pub fn idx_of(&self, v: V) -> impl Iterator<Item = TourIx> {
        self.index_list(self.slot(v)).into_iter()
    }

    /// O(1)-word wire summary of one vertex.
    pub fn info(&self, v: V) -> VertexInfo {
        let slot = self.slot(v);
        let (f, l) = self.span(slot);
        VertexInfo {
            v,
            comp: self.comp[slot],
            size: self.size[slot] as u64,
            f: f.into(),
            l: l.into(),
        }
    }

    /// One adjacency entry, if present (panics when `v` is not owned).
    pub fn adj_get(&self, v: V, far: V) -> Option<(EntryKind, Weight)> {
        let slot = self.slot(v);
        self.adj_find(slot, far).map(|i| self.entry(slot, i))
    }

    /// Inserts or overwrites one adjacency entry. A kind flip costs one
    /// move: a tree entry turning non-tree trades places with the last tree
    /// entry and the prefix shrinks over it; a non-tree entry turning tree
    /// trades places with the first non-tree entry and the prefix grows
    /// over it.
    pub fn adj_set(&mut self, v: V, far: V, kind: EntryKind, w: Weight) {
        let slot = self.slot(v);
        match self.adj_find(slot, far) {
            Some(i) => {
                let (tree, a, b) = encode_kind(&kind);
                let mid = self.apos[slot].mid();
                let i = match (i < mid, tree) {
                    (true, false) => {
                        self.adj_move(mid - 1, i);
                        self.apos[slot].tree -= 1;
                        mid - 1
                    }
                    (false, true) => {
                        self.adj_move(mid, i);
                        self.apos[slot].tree += 1;
                        mid
                    }
                    _ => i,
                };
                self.adj_put(i, far, w, a, b);
                if tree {
                    self.lift_parent_edge(slot);
                }
            }
            None => self.adj_push(slot, far, &kind, w, ADJ_HEADROOM),
        }
        self.enforce_soft_cap();
    }

    /// Removes one adjacency entry (no-op when absent). A non-tree entry's
    /// place is taken by the segment's last entry; a tree entry's by the
    /// last tree entry, whose place the last entry takes.
    pub fn adj_remove(&mut self, v: V, far: V) {
        let slot = self.slot(v);
        if let Some(i) = self.adj_find(slot, far) {
            let s = self.apos[slot];
            let last = s.range().end - 1;
            if i < s.mid() {
                self.adj_move(s.mid() - 1, i);
                self.adj_move(last, s.mid() - 1);
                self.apos[slot].tree -= 1;
            } else {
                self.adj_move(last, i);
            }
            self.apos[slot].len -= 1;
            self.adj_live -= 1;
            self.maybe_compact_adj();
        }
        self.enforce_soft_cap();
    }

    /// Applies a structural change to all owned state; returns the local
    /// replacement candidate and split-side membership (cuts). An MST
    /// swap's demoted edge first turns non-tree at its owned endpoints; then
    /// the sweep maps every slot and entry, and the edge materialization
    /// puts a link's entries in or takes a cut's out.
    pub fn apply(&mut self, s: &Struct) -> ApplyOutcome {
        let r = Relabel::of(s);
        if let Struct::Swap { cut, .. } = *s {
            // The sweep writes the final index and component.
            self.demote(cut.x, cut.y, [(0, cut.comp); 2]);
        }
        let outcome = self.sweep(&r);
        self.materialize_edge(s);
        outcome
    }

    /// Turns tree edge `(x, y)`'s entries at its owned endpoints into
    /// non-tree entries, `x`'s with the `(cached, far_comp)` of `at[0]`,
    /// `y`'s with `at[1]`.
    fn demote(&mut self, x: V, y: V, at: [(TourIx, CompId); 2]) {
        for ((v, far), (cached, far_comp)) in [(x, y), (y, x)].into_iter().zip(at) {
            if self.contains(v) {
                let (_, w) = self
                    .adj_get(v, far)
                    .expect("demoted edge has a tree entry at its owner");
                self.adj_set(v, far, EntryKind::NonTree { cached, far_comp }, w);
            }
        }
    }

    /// Materializes a link's (or a swap's re-link's) tree entries, or
    /// removes a cut's, at owned endpoints.
    fn materialize_edge(&mut self, s: &Struct) {
        match *s {
            Struct::Link { link, weight, .. } | Struct::Swap { link, weight, .. } => {
                let Link {
                    x, y, fx, elen_b, ..
                } = link;
                for (v, far, lo, hi) in [
                    (x, y, fx + 1, fx + elen_b + 4),
                    (y, x, fx + 2, fx + elen_b + 3),
                ] {
                    if self.contains(v) {
                        self.adj_set(v, far, EntryKind::Tree { lo, hi }, weight);
                    }
                }
            }
            Struct::Cut {
                cut: Cut { x, y, .. },
                ..
            } => {
                for (v, far) in [(x, y), (y, x)] {
                    if self.contains(v) {
                        self.adj_remove(v, far);
                    }
                }
            }
        }
        self.enforce_soft_cap();
    }

    /// The max-weight locally-owned tree edge on the path between the two
    /// spans (ties broken toward the smaller edge for determinism; the fold
    /// is a strict total order, so iteration order cannot matter).
    ///
    /// Each tree edge is processed once, at its child endpoint, as the
    /// first entry of that endpoint's tree prefix (the parent edge: even
    /// `lo`, arrival parity), whose `(lo, hi)` is the subtree span
    /// `[f(v), l(v)]`: the edge is on the x..y path iff that span contains
    /// exactly one endpoint. One entry is read per member.
    pub fn path_max(&self, path: &PathSpans) -> Option<(Edge, Weight)> {
        let [fx, lx, fy, ly] = [path.fx, path.lx, path.fy, path.ly].map(ix32);
        let mut best: Option<(Weight, Edge)> = None;
        for slot in 0..self.comp.len() {
            if self.comp[slot] != path.comp {
                continue;
            }
            // Only a root (or a singleton) has no parent edge; its span
            // holds both endpoints, so it is never a hit.
            let Some(i) = self.parent_edge(slot) else {
                continue;
            };
            let (f, l) = (self.aa[i], self.ab[i]);
            let contains_x = f <= fx && lx <= l;
            let contains_y = f <= fy && ly <= l;
            if contains_x == contains_y {
                continue;
            }
            let v = self.base + slot as V;
            let (w, e) = (self.aw[i], Edge::new(v, self.afar[i]));
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

    /// The components of the owned vertices in `lo..hi` (migration
    /// directory repair).
    pub fn comps_in(&self, lo: V, hi: V) -> BTreeSet<CompId> {
        (lo..hi)
            .filter_map(|v| self.slot_of(v).map(|slot| self.comp[slot]))
            .collect()
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

    /// Installs (or replaces) `v`'s component id and size, leaving it with
    /// no adjacency entries; returns its slot.
    fn load_core(&mut self, v: V, comp: CompId, size: u64) -> usize {
        let slot = self.ensure_slot(v);
        if self.comp[slot] != COMP_NONE {
            // Replacing: free the old segment's live entries first.
            self.adj_live -= self.apos[slot].len as usize;
            self.apos[slot].len = 0;
            self.apos[slot].tree = 0;
        }
        self.comp[slot] = comp;
        self.size[slot] = size as u32;
        slot
    }

    /// Panics, naming the vertex, unless `idx` is the list `v`'s tree
    /// entries name (the shard keeps no list of its own to load it into).
    fn check_indexes(&self, v: V, idx: &[TourIx], source: &str) {
        let derived = self.indexes(self.slot(v));
        let same = derived
            .iter()
            .map(|&d| TourIx::from(d))
            .eq(idx.iter().copied());
        assert!(
            same,
            "{source} of vertex {v} lists tour indexes {idx:?}, its tree entries name {:?}",
            *derived
        );
    }

    /// Direct state injection (bulk loading).
    pub fn load_vertex(&mut self, v: V, st: VertexState) {
        let slot = self.load_core(v, st.comp, st.size);
        self.adj_store(slot, &st.adj);
        self.check_indexes(v, &st.idx, "loaded state");
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
        self.compact_adj();
        text
    }

    /// Parses one `vert`/`adj` snapshot line (an `adj` line requires its
    /// `vert` line to have been parsed first). Tour indexes and annotations
    /// are read at their column width, so one beyond `u32` is refused by
    /// the typed field check rather than truncated. A `vert` line's indexes
    /// are checked against the entries after it (see [`Self::end_lines`]).
    pub fn parse_line(&mut self, line: &str) {
        let mut f = Fields::new(line);
        match f.word().expect("non-empty snapshot line") {
            b"vert" => {
                self.end_lines();
                let (v, comp, size): (V, CompId, u64) = (f.dec(), f.dec(), f.dec());
                self.vert_idx.clear();
                while let Some(i) = f.next_dec::<u32>() {
                    self.vert_idx.push(i.into());
                }
                self.vert_line = Some(v);
                self.load_core(v, comp, size);
                // The arena upkeep `load_vertex` does after storing no
                // entries, so the metered footprint matches it exactly.
                self.maybe_compact_adj();
                self.enforce_soft_cap();
            }
            b"adj" => {
                let (v, u): (V, V) = (f.dec(), f.dec());
                let kind = match f.word().expect("adj line ends before its kind") {
                    b"t" => EntryKind::Tree {
                        lo: f.dec::<u32>().into(),
                        hi: f.dec::<u32>().into(),
                    },
                    b"n" => EntryKind::NonTree {
                        cached: f.dec::<u32>().into(),
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

    /// Ends a run of [`Self::parse_line`] calls by checking its last `vert`
    /// line (each earlier one is checked when the next begins).
    pub fn end_lines(&mut self) {
        if let Some(v) = self.vert_line.take() {
            self.check_indexes(v, &self.vert_idx, "snapshot `vert` line");
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
        order.clear();
        order.extend((self.apos[slot].range()).map(|i| (key(self.afar[i]), i as u32)));
        order.sort_unstable();
    }

    /// Emits one slot's `vert` line.
    pub fn write_vert_line<S: Sink>(&self, s: &mut S, slot: usize) {
        s.put(b"vert");
        put_field(s, (self.base + slot as V) as u64);
        put_field(s, self.comp[slot] as u64);
        put_field(s, self.size[slot] as u64);
        for &i in self.indexes(slot).iter() {
            put_field(s, i.into());
        }
        s.put(b"\n");
    }

    /// Emits the `adj` line of the entry at arena index `i` of `slot`.
    pub fn write_adj_line<S: Sink>(&self, s: &mut S, slot: usize, i: usize) {
        s.put(b"adj");
        put_field(s, (self.base + slot as V) as u64);
        put_field(s, self.afar[i] as u64);
        s.put(if self.is_tree(slot, i) { b" t" } else { b" n" });
        put_field(s, self.aa[i].into());
        put_field(s, self.ab[i].into());
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
        assert_eq!(sh.check_layout(), Ok(()));
        for (v, st) in demo_states() {
            assert_eq!(sh.comp_of(v), st.comp);
            assert_eq!(sh.size_of(v), st.size);
            assert_eq!(sh.f_of(v), st.idx[0]);
            assert_eq!(sh.idx_of(v).collect::<Vec<_>>(), st.idx);
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
        let path = PathSpans {
            comp: 0,
            fx: 1,
            lx: 8,
            fy: 4,
            ly: 5,
        };
        assert_eq!(sh.path_max(&path), Some((Edge::new(0, 1), 5)));
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
            "vert 0 0 3 1 10\n\
             adj 0 1 t 1 10 7\n\
             adj 0 2 n 3 0 9\n\
             vert 1 0 3 2 7\n\
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
        back.end_lines();
        assert_eq!(text_of(&back), text);
    }

    fn restore_demo(from: &str, to: &str) {
        let mut sh = Shard::default();
        for line in DEMO_TEXT.replacen(from, to, 1).lines() {
            sh.parse_line(line);
        }
        sh.end_lines();
    }

    /// A `vert` line that disagrees with its entries is caught at the next
    /// `vert` line...
    #[test]
    #[should_panic(expected = "snapshot `vert` line of vertex 1 lists tour indexes [2, 3, 6, 9]")]
    fn restore_refuses_a_tampered_vert_line() {
        restore_demo("vert 1 0 3 2 3 6 7", "vert 1 0 3 2 3 6 9");
    }

    /// ...or, for the last vertex, when the lines end.
    #[test]
    #[should_panic(expected = "snapshot `vert` line of vertex 2 lists tour indexes [4, 6]")]
    fn restore_refuses_a_tampered_last_vert_line() {
        restore_demo("vert 2 0 3 4 5", "vert 2 0 3 4 6");
    }

    #[test]
    #[should_panic(expected = "loaded state of vertex 2 lists tour indexes [4, 7]")]
    fn load_vertex_refuses_indexes_its_entries_do_not_name() {
        let [_, _, (v, mut st)] = demo_states();
        st.idx = vec![4, 7];
        Shard::default().load_vertex(v, st);
    }

    /// A tour index beyond the 32-bit columns is refused by the typed field
    /// check, not truncated.
    #[test]
    #[should_panic(expected = "snapshot field 4294967296 out of range")]
    fn snapshot_index_beyond_32_bits_is_refused() {
        let mut sh = Shard::default();
        sh.parse_line("vert 0 0 2 1 4294967296");
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
        assert_eq!(sh.check_layout(), Ok(()));
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
    /// headroom, so caps == lens and the arena is hole-free):
    ///
    /// * slot arrays, 3 slots: comp 3x4 + size 3x4 + apos (with its tree
    ///   count) 3x16 = 72 bytes
    /// * adjacency arena: 6 entries x (far 4 + weight 8 + 4 + 4) = 120 bytes
    ///   (the 8 tour indexes are the 4 tree entries' `lo`/`hi` words)
    ///
    /// total = 192 bytes = 192 / 8 = 24 words.
    #[test]
    fn soa_resident_words_within_10pct_of_hand_count() {
        let hand = 24.0_f64;
        let got = loaded().memory_words() as f64;
        assert!(
            (got - hand).abs() <= hand * 0.10,
            "resident {got} vs hand-computed {hand}"
        );
        // For this exactly-sized shard the two should in fact be equal.
        assert_eq!(got as usize, 24);
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

    // ----- tree-prefix upkeep, one O(1) path at a time -------------------

    /// A shard mutated entry by entry beside the entries it should hold.
    /// After every step its materialized entries must equal those — an
    /// entry's kind is decoded from its place in the segment, so an entry
    /// on the wrong side of the tree prefix shows — and it must pass
    /// `check_layout`, so a parent edge that is not first shows too.
    struct Mirror {
        sh: Shard,
        want: BTreeMap<V, BTreeMap<V, (EntryKind, Weight)>>,
    }

    impl Mirror {
        /// Vertices 0..4: vertex 1 holds a mixed segment (three tree, three
        /// non-tree entries), vertex 2 only non-tree entries, vertex 3 only
        /// tree entries. Annotations are arbitrary: only placement is
        /// under test.
        fn new() -> Self {
            let states = [
                (0, vec![], vec![(9, non_tree(1, 9), 1)]),
                (
                    1,
                    vec![1, 2, 4, 5, 7, 8],
                    vec![
                        (10, tree(1, 2), 1),
                        (11, non_tree(3, 11), 2),
                        (12, tree(4, 5), 3),
                        (13, non_tree(6, 13), 4),
                        (14, tree(7, 8), 5),
                        (15, non_tree(9, 15), 6),
                    ],
                ),
                (
                    2,
                    vec![],
                    vec![(20, non_tree(1, 20), 1), (21, non_tree(2, 21), 2)],
                ),
                (
                    3,
                    vec![1, 2, 3, 4],
                    vec![(30, tree(1, 2), 1), (31, tree(3, 4), 2)],
                ),
            ];
            let mut m = Mirror {
                sh: Shard::default(),
                want: BTreeMap::new(),
            };
            for (v, idx, adj) in states {
                let st = demo_state(0, 4, &idx, &adj);
                m.want.insert(v, st.adj.clone());
                m.sh.load_vertex(v, st);
            }
            m.check("bulk load");
            m
        }

        fn set(&mut self, v: V, far: V, kind: EntryKind, w: Weight) {
            self.sh.adj_set(v, far, kind, w);
            self.want.get_mut(&v).unwrap().insert(far, (kind, w));
            self.check(&format!("set {v}->{far} {kind:?}"));
        }

        fn remove(&mut self, v: V, far: V) {
            self.sh.adj_remove(v, far);
            self.want.get_mut(&v).unwrap().remove(&far);
            self.check(&format!("remove {v}->{far}"));
        }

        /// The far endpoint of the first entry of `v`'s tree prefix.
        fn first_tree(&self, v: V) -> Option<V> {
            let s = self.sh.apos[self.sh.slot(v)];
            (s.tree > 0).then(|| self.sh.afar[s.start as usize])
        }

        fn check(&self, ctx: &str) {
            for (v, st) in self.sh.vertices() {
                assert_eq!(st.adj, self.want[&v], "after {ctx}: vertex {v}");
            }
            assert_eq!(self.sh.check_layout(), Ok(()), "after {ctx}");
        }
    }

    #[test]
    fn check_layout_names_a_misplaced_parent_edge() {
        let Mirror { mut sh, .. } = Mirror::new();
        // Vertex 1's prefix is (12, 10, 14): plant its parent edge last.
        let start = sh.apos[1].start as usize;
        sh.adj_swap(start, start + 2);
        let want = "vertex 1: child-side entry to 12 is not first in its prefix";
        assert_eq!(sh.check_layout(), Err(want.to_string()));
    }

    #[test]
    fn kind_flips_through_adj_set_keep_the_tree_prefix() {
        let mut m = Mirror::new();
        // Tree -> non-tree: first (the parent edge), last, and the one left
        // of the prefix.
        m.set(1, 12, non_tree(40, 12), 3);
        assert!(matches!(m.first_tree(1), Some(10 | 14)));
        m.set(1, 10, non_tree(41, 10), 1);
        m.set(1, 14, non_tree(42, 14), 5);
        assert_eq!(m.sh.apos[1].tree, 0);
        // Non-tree -> tree (parent side), until the segment is all tree.
        for far in 10..16 {
            m.set(1, far, tree(2 * far as TourIx + 1, 50), far as Weight);
        }
        assert_eq!(m.sh.apos[1].tree, 6);
        // A parent-side entry overwritten into the parent edge goes first.
        m.set(1, 13, tree(26, 50), 13);
        assert_eq!(m.first_tree(1), Some(13));
        // A flip in a segment with no entry of the other kind.
        m.set(2, 21, tree(5, 6), 2);
        m.set(3, 30, non_tree(5, 30), 1);
        // Same-kind overwrites stay where they are.
        m.set(3, 31, tree(8, 9), 7);
        m.set(2, 20, non_tree(8, 20), 7);
    }

    #[test]
    fn adj_remove_keeps_the_tree_prefix() {
        let mut m = Mirror::new();
        // Tree entries from a mixed segment: first (the parent edge), then
        // last.
        m.remove(1, 12);
        assert!(matches!(m.first_tree(1), Some(10 | 14)));
        m.remove(1, 10);
        // A non-tree entry from a mixed segment.
        m.remove(1, 13);
        // The last tree entry, then the non-tree entries left.
        m.remove(1, 14);
        assert_eq!(m.sh.apos[1].tree, 0);
        m.remove(1, 15);
        m.remove(1, 11);
        // From segments of one kind.
        m.remove(3, 30);
        m.remove(2, 21);
        // Absent: a no-op.
        m.remove(2, 99);
    }

    #[test]
    fn pushes_relocate_or_grow_at_the_tail_and_keep_the_tree_prefix() {
        let mut m = Mirror::new();
        // Vertex 3's segment ends at the arena tail: it grows in place.
        let (before, arena) = (m.sh.apos[3], m.sh.afar.len());
        m.set(3, 32, non_tree(9, 32), 3);
        m.set(3, 33, tree(12, 13), 4); // a parent edge behind two parent-side entries
        assert_eq!(m.first_tree(3), Some(33));
        assert_eq!(m.sh.apos[3].start, before.start, "tail segment moved");
        assert_eq!(m.sh.afar.len(), arena + 2, "tail growth left a hole");
        // Vertex 1's is full and not at the tail: a tree push relocates it
        // (the first non-tree entry moves to the new end)...
        let before = m.sh.apos[1];
        m.set(1, 16, tree(21, 22), 7);
        let after = m.sh.apos[1];
        assert_ne!(after.start, before.start, "full segment did not relocate");
        assert_eq!((after.len, after.cap), (7, 7 + ADJ_HEADROOM));
        // ...and the headroom takes both kinds without moving again.
        m.set(1, 17, non_tree(22, 17), 8);
        m.set(1, 18, tree(23, 24), 9);
        assert_eq!(m.sh.apos[1].start, after.start);
        // A vertex with no segment at all.
        m.set(0, 8, tree(1, 2), 2);
    }

    #[test]
    fn compaction_keeps_the_tree_prefix() {
        let mut m = Mirror::new();
        m.set(1, 16, tree(21, 22), 7); // relocates: leaves a hole
        m.set(0, 8, tree(1, 2), 2); // relocates: leaves a hole
        assert!(m.sh.afar.len() > m.sh.adj_live);
        m.sh.compact_adj();
        assert_eq!(m.sh.afar.len(), m.sh.adj_live, "compaction left holes");
        m.check("compact_adj");
        // Mutations after compaction (every cap is tight now).
        m.set(2, 22, tree(3, 4), 3);
        m.remove(1, 12);
        m.set(1, 11, tree(30, 31), 2); // promoted into the parent edge
        assert_eq!(m.first_tree(1), Some(11));
    }

    /// The map algebra the sweep rests on, for every tour of up to 64
    /// indexes: a link's `Shift`s are the link (its reroot `map_reroot`),
    /// and a link map after a cut, as `after_child_cut` or
    /// `after_parent_cut` makes it, is the cut's map of that side and then
    /// the link map, for every link map of that side, the identity included.
    #[test]
    fn shifts_are_the_tour_maps_they_compose() {
        // The maps of a link of a side `a` at `fx` and a side `b` of
        // `elen_b` indexes, `b` first rerooted at `l_y` when given.
        let link = |fx: u32, elen_b: u32, l_y: Option<u32>| {
            let op = Link {
                a: 0,
                b: 1,
                x: 0,
                y: 1,
                fx: fx.into(),
                elen_b: elen_b.into(),
            };
            Relabel::link(op, l_y.map(TourIx::from), Size::Sub(0)).shift
        };
        // In a tour of `len` indexes (a multiple of 4): the splice points,
        // 0 (at the root) or some `f(x)` (even); a non-root's `l(y)` (odd).
        let fxs = |len: u32| std::iter::once(0).chain((2..len).step_by(2));
        let lys = |len: u32| (3..len).step_by(2);
        for elen in (0..=64).step_by(4) {
            for (fx, other) in fxs(elen).flat_map(|fx| (0..=64).step_by(4).map(move |o| (fx, o))) {
                let a = link(fx, other, None)[0];
                for i in 1..=elen {
                    let want = if i > fx { i + other + 4 } else { i };
                    assert_eq!(a.apply(i), want, "side a of {elen}: {fx} {other} {i}");
                }
            }
            let reroots = lys(elen).map(Some).chain([None]);
            for (fx, l_y) in reroots.flat_map(|l_y| fxs(64).map(move |fx| (fx, l_y))) {
                let b = link(fx, elen, l_y)[1];
                for i in 1..=elen {
                    let rerooted = l_y.map_or(i, |l_y| {
                        let i =
                            dmpc_eulertour::indexed::map_reroot(i.into(), elen.into(), l_y.into());
                        i as u32
                    });
                    assert_eq!(
                        b.apply(i),
                        rerooted + fx + 2,
                        "side b of {elen}: {fx} {l_y:?} {i}"
                    );
                }
            }
        }
        // Every link map of a side of `len` indexes whose other side has
        // `other`: as `a` at each `fx`, as `b` at each `fx` and reroot.
        let maps = |len: u32, other: u32| {
            let mut maps = vec![Shift::past(0, Shift::NEVER, 0)];
            maps.extend(fxs(len).map(|fx| link(fx, other, None)[0]));
            for fx in fxs(other) {
                let reroots = lys(len).map(Some).chain([None]);
                maps.extend(reroots.map(|l_y| link(fx, len, l_y)[1]));
            }
            maps
        };
        let mut checked = 0u64;
        for elen in (4..=64).step_by(4) {
            // `y`'s subtree spans `fy..=ly`: `fy` even, `ly - fy + 3` a
            // multiple of 4, `x` at `fy - 1` and `ly + 1`.
            let cuts = (2..elen).step_by(2).flat_map(|fy| {
                let lys = (fy + 1..elen).step_by(4);
                lys.map(move |ly| (fy, ly))
            });
            for (fy, ly) in cuts {
                let span = ly - fy + 3;
                let (child, parent) = (ly - fy - 1, elen - span);
                for m in maps(child, parent) {
                    let composed = m.after_child_cut(fy);
                    for i in fy + 1..ly {
                        assert_eq!(composed.apply(i), m.apply(i - fy), "{elen} {fy} {ly} {m:?}");
                        checked += 1;
                    }
                }
                for m in maps(parent, child) {
                    let composed = m.after_parent_cut(fy, ly);
                    for i in (1..fy - 1).chain(ly + 2..=elen) {
                        let cut = if i > ly { i - span } else { i };
                        assert_eq!(composed.apply(i), m.apply(cut), "{elen} {fy} {ly} {m:?}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1_000_000, "only {checked} composed indexes");
    }
}
