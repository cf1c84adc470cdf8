//! Storage machines (adjacency lists with repairable annotations) and the
//! overflow pool (suspended-edge stacks of heavy vertices).
//!
//! Like the connectivity crate's vertex shards, a storage machine keeps its
//! owned block behind a layout knob ([`dmpc_mpc::Layout`]): the map layout
//! is the clarity-first original (`BTreeMap` of per-vertex entry `Vec`s,
//! kept for differential testing), the SoA layout stores every vertex's
//! entries as a segment of one shared arena split into parallel property
//! arrays. Entry order is *semantic* here (the alive set is positional:
//! the mate edge is moved to the front, `MakeHeavy` splits at `tau`, scans
//! take the first hit), so all SoA mutations preserve segment order —
//! removals shift the tail down instead of swapping.

use super::msg::{Ann, HistEntry, HistSlice, MatchMsg, Repair};
use dmpc_graph::V;
use dmpc_mpc::Layout;
use std::collections::BTreeMap;

/// Per-owned-vertex storage: the full adjacency of a light vertex, or the
/// alive set of a heavy one.
#[derive(Clone, Debug, Default)]
pub struct StoreVertex {
    /// Heavy flag (mirrors the stats record, repaired with the state).
    pub heavy: bool,
    /// (neighbor, annotation) entries.
    pub entries: Vec<(V, Ann)>,
}

/// A segment of the entry arena: `start..start+len` live, `cap` reserved.
#[derive(Clone, Copy, Debug, Default)]
struct Seg {
    start: u32,
    len: u32,
    cap: u32,
}

/// Slot state: no vertex in this slot.
const SLOT_ABSENT: u8 = 0;
/// Slot state: light vertex.
const SLOT_LIGHT: u8 = 1;
/// Slot state: heavy vertex.
const SLOT_HEAVY: u8 = 2;

/// Headroom granted when an entry segment relocates.
const ENTRY_HEADROOM: u32 = 2;

/// Annotation flag bit: `matched`.
const F_MATCHED: u8 = 1;
/// Annotation flag bit: `mate_light`.
const F_MATE_LIGHT: u8 = 2;

#[inline]
fn pack_ann(ann: Ann) -> (V, u8) {
    let mut f = 0;
    if ann.matched {
        f |= F_MATCHED;
    }
    if ann.mate_light {
        f |= F_MATE_LIGHT;
    }
    (ann.mate, f)
}

#[inline]
fn unpack_ann(mate: V, f: u8) -> Ann {
    Ann {
        matched: f & F_MATCHED != 0,
        mate,
        mate_light: f & F_MATE_LIGHT != 0,
    }
}

/// The compact layout: per-slot state byte + arena segment, entries as
/// three parallel arrays (neighbor, mate, flag byte).
#[derive(Debug, Default)]
struct SoaStore {
    /// Direct-mapped interner base: vertex `v` lives in slot `v - base`.
    base: V,
    /// [`SLOT_ABSENT`] / [`SLOT_LIGHT`] / [`SLOT_HEAVY`] per slot.
    state: Vec<u8>,
    /// Entry segment per slot.
    pos: Vec<Seg>,
    /// Neighbor per entry.
    nbr: Vec<V>,
    /// Annotation mate per entry.
    mate: Vec<V>,
    /// Annotation flags per entry.
    flags: Vec<u8>,
    /// Live entries in the arena (the rest are holes).
    live: usize,
}

impl SoaStore {
    fn new_range(lo: V, hi: V) -> Self {
        SoaStore {
            base: lo,
            state: vec![SLOT_LIGHT; (hi - lo) as usize],
            pos: vec![Seg::default(); (hi - lo) as usize],
            ..Default::default()
        }
    }

    #[inline]
    fn slot_of(&self, v: V) -> Option<usize> {
        let i = v.checked_sub(self.base)? as usize;
        (i < self.state.len() && self.state[i] != SLOT_ABSENT).then_some(i)
    }

    #[inline]
    fn slot(&self, v: V) -> usize {
        self.slot_of(v).expect("vertex not owned")
    }

    /// Grows the slot range to cover `v` (installs an absent slot).
    fn ensure_slot(&mut self, v: V) -> usize {
        if self.state.is_empty() {
            self.base = v;
        }
        if v < self.base {
            let k = (self.base - v) as usize;
            self.state.splice(0..0, std::iter::repeat_n(SLOT_ABSENT, k));
            self.pos
                .splice(0..0, std::iter::repeat_n(Seg::default(), k));
            self.base = v;
        }
        let i = (v - self.base) as usize;
        while self.state.len() <= i {
            self.state.push(SLOT_ABSENT);
            self.pos.push(Seg::default());
        }
        i
    }

    #[inline]
    fn range(&self, slot: usize) -> std::ops::Range<usize> {
        let s = self.pos[slot];
        s.start as usize..(s.start + s.len) as usize
    }

    /// Appends one entry to a slot's segment, relocating (with headroom) on
    /// overflow; order-preserving.
    fn push(&mut self, slot: usize, n: V, ann: Ann) {
        let (m, f) = pack_ann(ann);
        let s = self.pos[slot];
        if s.len < s.cap {
            let i = (s.start + s.len) as usize;
            self.nbr[i] = n;
            self.mate[i] = m;
            self.flags[i] = f;
            self.pos[slot].len += 1;
        } else if (s.start + s.cap) as usize == self.nbr.len() {
            // The segment ends at the arena tail: grow in place, no hole.
            self.nbr.push(n);
            self.mate.push(m);
            self.flags.push(f);
            self.pos[slot].len += 1;
            self.pos[slot].cap += 1;
        } else {
            let start = self.nbr.len() as u32;
            let cap = s.len + 1 + ENTRY_HEADROOM;
            for i in self.range(slot) {
                let (xn, xm, xf) = (self.nbr[i], self.mate[i], self.flags[i]);
                self.nbr.push(xn);
                self.mate.push(xm);
                self.flags.push(xf);
            }
            self.nbr.push(n);
            self.mate.push(m);
            self.flags.push(f);
            let pad = (cap - s.len - 1) as usize;
            self.nbr.resize(self.nbr.len() + pad, 0);
            self.mate.resize(self.mate.len() + pad, 0);
            self.flags.resize(self.flags.len() + pad, 0);
            self.pos[slot] = Seg {
                start,
                len: s.len + 1,
                cap,
            };
        }
        self.live += 1;
        self.maybe_compact();
    }

    /// Removes the entry with neighbor `n`, shifting the tail down (order
    /// is semantic). Returns whether it was found.
    fn remove(&mut self, slot: usize, n: V) -> bool {
        let r = self.range(slot);
        let Some(i) = r.clone().find(|&i| self.nbr[i] == n) else {
            return false;
        };
        for j in i..r.end - 1 {
            self.nbr[j] = self.nbr[j + 1];
            self.mate[j] = self.mate[j + 1];
            self.flags[j] = self.flags[j + 1];
        }
        self.pos[slot].len -= 1;
        self.live -= 1;
        self.maybe_compact();
        true
    }

    fn maybe_compact(&mut self) {
        if self.nbr.len() <= self.live + self.live / 8 + 16 {
            return;
        }
        let mut nbr = Vec::with_capacity(self.live);
        let mut mate = Vec::with_capacity(self.live);
        let mut flags = Vec::with_capacity(self.live);
        for s in self.pos.iter_mut() {
            let start = nbr.len() as u32;
            for i in s.start as usize..(s.start + s.len) as usize {
                nbr.push(self.nbr[i]);
                mate.push(self.mate[i]);
                flags.push(self.flags[i]);
            }
            *s = Seg {
                start,
                len: s.len,
                cap: s.len,
            };
        }
        self.nbr = nbr;
        self.mate = mate;
        self.flags = flags;
    }

    fn materialize(&self, slot: usize) -> StoreVertex {
        StoreVertex {
            heavy: self.state[slot] == SLOT_HEAVY,
            entries: self
                .range(slot)
                .map(|i| (self.nbr[i], unpack_ann(self.mate[i], self.flags[i])))
                .collect(),
        }
    }
}

/// A machine's owned vertex block, in one of the two storage layouts.
#[derive(Debug)]
enum Store {
    /// Per-vertex map containers (legacy, differential testing).
    Map(BTreeMap<V, StoreVertex>),
    /// Arena-backed structure-of-arrays (default).
    Soa(SoaStore),
}

impl Store {
    fn new_range(layout: Layout, lo: V, hi: V) -> Self {
        match layout {
            Layout::Map => Store::Map((lo..hi).map(|v| (v, StoreVertex::default())).collect()),
            Layout::Soa => Store::Soa(SoaStore::new_range(lo, hi)),
        }
    }

    fn clear(&mut self) {
        match self {
            Store::Map(m) => m.clear(),
            Store::Soa(s) => *s = SoaStore::default(),
        }
    }

    /// Installs vertex `v` with no entries (snapshot restore).
    fn insert_vertex(&mut self, v: V, heavy: bool) {
        match self {
            Store::Map(m) => {
                m.insert(
                    v,
                    StoreVertex {
                        heavy,
                        entries: Vec::new(),
                    },
                );
            }
            Store::Soa(s) => {
                let slot = s.ensure_slot(v);
                s.live -= s.pos[slot].len as usize;
                s.pos[slot].len = 0;
                s.state[slot] = if heavy { SLOT_HEAVY } else { SLOT_LIGHT };
            }
        }
    }

    /// Appends one entry at `at` (order-preserving).
    fn push_entry(&mut self, at: V, n: V, ann: Ann) {
        match self {
            Store::Map(m) => m
                .get_mut(&at)
                .expect("vertex not owned")
                .entries
                .push((n, ann)),
            Store::Soa(s) => {
                let slot = s.slot(at);
                s.push(slot, n, ann);
            }
        }
    }

    /// Removes the entry `at -> n`; returns whether it was present.
    fn remove_entry(&mut self, at: V, n: V) -> bool {
        match self {
            Store::Map(m) => {
                let sv = m.get_mut(&at).expect("vertex not owned");
                let before = sv.entries.len();
                sv.entries.retain(|&(x, _)| x != n);
                sv.entries.len() < before
            }
            Store::Soa(s) => {
                let slot = s.slot(at);
                s.remove(slot, n)
            }
        }
    }

    fn has_entry(&self, at: V, n: V) -> bool {
        match self {
            Store::Map(m) => m
                .get(&at)
                .is_some_and(|sv| sv.entries.iter().any(|&(x, _)| x == n)),
            Store::Soa(s) => {
                let slot = s.slot(at);
                s.range(slot).any(|i| s.nbr[i] == n)
            }
        }
    }

    fn heavy(&self, v: V) -> bool {
        match self {
            Store::Map(m) => m.get(&v).expect("vertex not owned").heavy,
            Store::Soa(s) => s.state[s.slot(v)] == SLOT_HEAVY,
        }
    }

    /// Sets the heavy flag, ignoring non-owned vertices (history repair
    /// addresses every owner of the changed vertex's *neighbors* too).
    fn set_heavy_if_present(&mut self, v: V, heavy: bool) {
        match self {
            Store::Map(m) => {
                if let Some(sv) = m.get_mut(&v) {
                    sv.heavy = heavy;
                }
            }
            Store::Soa(s) => {
                if let Some(slot) = s.slot_of(v) {
                    s.state[slot] = if heavy { SLOT_HEAVY } else { SLOT_LIGHT };
                }
            }
        }
    }

    /// First entry at `z` that is free and not excluded.
    fn scan_free(&self, z: V, exclude: &[V]) -> Option<V> {
        match self {
            Store::Map(m) => m[&z]
                .entries
                .iter()
                .find(|&&(n, ann)| !ann.matched && !exclude.contains(&n))
                .map(|&(n, _)| n),
            Store::Soa(s) => {
                let slot = s.slot(z);
                s.range(slot)
                    .find(|&i| s.flags[i] & F_MATCHED == 0 && !exclude.contains(&s.nbr[i]))
                    .map(|i| s.nbr[i])
            }
        }
    }

    /// Heavy-scan at `z`: first free entry, and first steal candidate
    /// (matched to a light mate).
    fn scan_heavy(&self, z: V) -> (Option<V>, Option<(V, V)>) {
        match self {
            Store::Map(m) => {
                let sv = &m[&z];
                let free = sv
                    .entries
                    .iter()
                    .find(|&&(_, ann)| !ann.matched)
                    .map(|&(n, _)| n);
                let steal = sv
                    .entries
                    .iter()
                    .find(|&&(_, ann)| ann.matched && ann.mate_light)
                    .map(|&(n, ann)| (n, ann.mate));
                (free, steal)
            }
            Store::Soa(s) => {
                let slot = s.slot(z);
                let free = s
                    .range(slot)
                    .find(|&i| s.flags[i] & F_MATCHED == 0)
                    .map(|i| s.nbr[i]);
                let steal = s
                    .range(slot)
                    .find(|&i| s.flags[i] & (F_MATCHED | F_MATE_LIGHT) == F_MATCHED | F_MATE_LIGHT)
                    .map(|i| (s.nbr[i], s.mate[i]));
                (free, steal)
            }
        }
    }

    /// All entries at `z`, in stored order.
    fn entries_of(&self, z: V) -> Vec<(V, Ann)> {
        match self {
            Store::Map(m) => m[&z].entries.clone(),
            Store::Soa(s) => {
                let slot = s.slot(z);
                s.range(slot)
                    .map(|i| (s.nbr[i], unpack_ann(s.mate[i], s.flags[i])))
                    .collect()
            }
        }
    }

    /// Marks `v` heavy, moves the mate edge to the front of the alive set,
    /// and splits off everything past `keep` (the suspended entries).
    fn make_heavy(&mut self, v: V, mate: Option<V>, keep: usize) -> Vec<(V, Ann)> {
        match self {
            Store::Map(m) => {
                let sv = m.get_mut(&v).expect("vertex not owned");
                sv.heavy = true;
                if let Some(mv) = mate {
                    if let Some(pos) = sv.entries.iter().position(|&(x, _)| x == mv) {
                        sv.entries.swap(0, pos);
                    }
                }
                if sv.entries.len() > keep {
                    sv.entries.split_off(keep)
                } else {
                    Vec::new()
                }
            }
            Store::Soa(s) => {
                let slot = s.slot(v);
                s.state[slot] = SLOT_HEAVY;
                let r = s.range(slot);
                if let Some(mv) = mate {
                    if let Some(pos) = r.clone().find(|&i| s.nbr[i] == mv) {
                        s.nbr.swap(r.start, pos);
                        s.mate.swap(r.start, pos);
                        s.flags.swap(r.start, pos);
                    }
                }
                if r.len() > keep {
                    let moved: Vec<(V, Ann)> = (r.start + keep..r.end)
                        .map(|i| (s.nbr[i], unpack_ann(s.mate[i], s.flags[i])))
                        .collect();
                    s.pos[slot].len = keep as u32;
                    s.live -= moved.len();
                    s.maybe_compact();
                    moved
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// History repair of the annotations: one pass over the entries,
    /// replaying the slice through the kernel for those it can change
    /// (entry order is immaterial — repairs are per-entry independent).
    fn repair_anns(&mut self, repair: &Repair) {
        match self {
            Store::Map(m) => {
                for sv in m.values_mut() {
                    repair_entries(&mut sv.entries, repair);
                }
            }
            Store::Soa(s) => {
                for sg in &s.pos {
                    for i in sg.start as usize..(sg.start + sg.len) as usize {
                        if repair.may_change(s.nbr[i], s.mate[i]) {
                            let mut ann = unpack_ann(s.mate[i], s.flags[i]);
                            repair.replay(s.nbr[i], &mut ann);
                            (s.mate[i], s.flags[i]) = pack_ann(ann);
                        }
                    }
                }
            }
        }
    }

    /// Materialized state of one vertex (audits; not the update path).
    fn vertex(&self, v: V) -> Option<StoreVertex> {
        match self {
            Store::Map(m) => m.get(&v).cloned(),
            Store::Soa(s) => s.slot_of(v).map(|slot| s.materialize(slot)),
        }
    }

    /// All owned vertices in id order (snapshots).
    fn vertices(&self) -> Vec<(V, StoreVertex)> {
        match self {
            Store::Map(m) => m.iter().map(|(&v, sv)| (v, sv.clone())).collect(),
            Store::Soa(s) => (0..s.state.len())
                .filter(|&slot| s.state[slot] != SLOT_ABSENT)
                .map(|slot| (s.base + slot as V, s.materialize(slot)))
                .collect(),
        }
    }

    /// Direct state injection (bulk loading).
    fn load(&mut self, v: V, sv: StoreVertex) {
        match self {
            Store::Map(m) => {
                m.insert(v, sv);
            }
            Store::Soa(_) => {
                self.insert_vertex(v, sv.heavy);
                for (n, ann) in sv.entries {
                    self.push_entry(v, n, ann);
                }
            }
        }
    }

    /// Exact resident footprint in words, counting the backing stores as
    /// allocated. Map: 2 header + 4 per entry per vertex. SoA: 13 bytes per
    /// slot (state byte + segment) plus 9 bytes per arena entry capacity
    /// (neighbor + mate + flag byte), rounded up to whole words.
    fn memory_words(&self) -> usize {
        match self {
            Store::Map(m) => m.values().map(|sv| 2 + 4 * sv.entries.len()).sum(),
            Store::Soa(s) => (s.state.len() + s.pos.len() * 12 + s.nbr.len() * 9).div_ceil(8),
        }
    }
}

/// A storage machine owning a contiguous vertex block.
#[derive(Debug)]
pub struct StorageMachine {
    verts: Store,
    last_seen: u64,
    tau: usize,
    /// Inbound recovery-snapshot chunks accumulated so far.
    snap_buf: Vec<u64>,
}

impl StorageMachine {
    /// Creates the machine owning vertices `lo..hi`, with heavy threshold
    /// `tau` (the alive-set capacity), in the default layout.
    pub fn new(lo: V, hi: V, tau: usize) -> Self {
        Self::with_layout(lo, hi, tau, Layout::default())
    }

    /// Creates the machine with an explicit state layout.
    pub fn with_layout(lo: V, hi: V, tau: usize, layout: Layout) -> Self {
        StorageMachine {
            verts: Store::new_range(layout, lo, hi),
            last_seen: 0,
            tau,
            snap_buf: Vec::new(),
        }
    }

    /// Fail-stop wipe (chaos plane): drops program state; `tau` is
    /// construction-time configuration and survives (as does the layout).
    pub fn wipe(&mut self) {
        self.verts.clear();
        self.last_seen = 0;
        self.snap_buf = Vec::new();
    }

    /// Plain-text snapshot: sync point, then per-vertex heavy flag and
    /// entries in stored (scan) order. Deterministic and bit-identical
    /// across layouts: vertices emit in id order and entries positionally.
    pub fn snapshot_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("storage v1\n");
        writeln!(s, "seen {}", self.last_seen).unwrap();
        for (v, sv) in self.verts.vertices() {
            writeln!(s, "svert {v} {}", sv.heavy as u8).unwrap();
            for &(nbr, ann) in &sv.entries {
                writeln!(
                    s,
                    "sedge {v} {nbr} {} {} {}",
                    ann.matched as u8, ann.mate, ann.mate_light as u8
                )
                .unwrap();
            }
        }
        s
    }

    /// Full state restore from [`StorageMachine::snapshot_text`] output.
    pub fn restore_text(&mut self, text: &str) {
        self.wipe();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("storage v1"), "snapshot header");
        for line in lines {
            let mut it = line.split_ascii_whitespace();
            match it.next().expect("non-empty snapshot line") {
                "seen" => self.last_seen = it.next().unwrap().parse().unwrap(),
                "svert" => {
                    let v: V = it.next().unwrap().parse().unwrap();
                    let heavy = it.next().unwrap() == "1";
                    self.verts.insert_vertex(v, heavy);
                }
                "sedge" => {
                    let v: V = it.next().unwrap().parse().unwrap();
                    let (nbr, ann) = parse_entry(&mut it);
                    self.verts.push_entry(v, nbr, ann);
                }
                k => panic!("unknown snapshot line {k:?}"),
            }
        }
    }

    /// Read access for audits (materialized; not the update path).
    pub fn vertex(&self, v: V) -> Option<StoreVertex> {
        self.verts.vertex(v)
    }

    /// Direct load for bulk preprocessing.
    pub fn load(&mut self, v: V, sv: StoreVertex) {
        self.verts.load(v, sv);
    }

    /// Sets the history synchronization point (bulk preprocessing).
    pub fn set_last_seen(&mut self, seq: u64) {
        self.last_seen = seq;
    }

    /// The history sequence number this machine has replayed up to.
    pub fn last_seen(&self) -> u64 {
        self.last_seen
    }

    fn repair(&mut self, hist: &HistSlice) {
        let Some(repair) = Repair::new(hist, self.last_seen) else {
            return;
        };
        self.verts.repair_anns(&repair);
        for &(_, entry) in repair.fresh() {
            match entry {
                HistEntry::Heavy(c) => self.verts.set_heavy_if_present(c, true),
                HistEntry::Light(c) => self.verts.set_heavy_if_present(c, false),
                _ => {}
            }
        }
        self.last_seen = repair.last_seq();
    }

    /// Handles one request; may produce a reply for the coordinator.
    pub fn handle(&mut self, msg: MatchMsg) -> Option<MatchMsg> {
        match msg {
            MatchMsg::Refresh(hist) => {
                self.repair(&hist);
                None
            }
            MatchMsg::AddEdge { at, nbr, ann, hist } => {
                self.repair(&hist);
                debug_assert!(!self.verts.has_entry(at, nbr));
                self.verts.push_entry(at, nbr, ann);
                None
            }
            MatchMsg::DelEdge { at, nbr, hist } => {
                self.repair(&hist);
                let found = self.verts.remove_entry(at, nbr);
                Some(MatchMsg::DelReply {
                    at,
                    found,
                    alive: true,
                })
            }
            MatchMsg::ScanFree { z, exclude, hist } => {
                self.repair(&hist);
                let q = self.verts.scan_free(z, &exclude);
                Some(MatchMsg::ScanFreeReply { z, q })
            }
            MatchMsg::ScanAdj { z, hist } => {
                self.repair(&hist);
                Some(MatchMsg::ScanAdjReply {
                    z,
                    entries: self.verts.entries_of(z),
                })
            }
            MatchMsg::ScanHeavy { z, hist } => {
                self.repair(&hist);
                debug_assert!(self.verts.heavy(z));
                let (free, steal) = self.verts.scan_heavy(z);
                Some(MatchMsg::ScanHeavyReply { z, free, steal })
            }
            MatchMsg::MakeHeavy { v, mate, hist } => {
                self.repair(&hist);
                let entries = self.verts.make_heavy(v, mate, self.tau);
                Some(MatchMsg::MovedOut { v, entries })
            }
            MatchMsg::AddAlive { at, entry, hist } => {
                self.repair(&hist);
                self.verts.push_entry(at, entry.0, entry.1);
                None
            }
            MatchMsg::MakeLight { v, hist } => {
                self.repair(&hist);
                self.verts.set_heavy_if_present(v, false);
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
            other => panic!("storage machine got unexpected message {other:?}"),
        }
    }

    /// Memory footprint in words.
    pub fn memory_words(&self) -> usize {
        2 + self.verts.memory_words() + self.snap_buf.len()
    }
}

/// One repair pass over a plain entry list (map-layout vertices, suspended
/// stacks).
fn repair_entries(entries: &mut [(V, Ann)], repair: &Repair) {
    for (nbr, ann) in entries {
        if repair.may_change(*nbr, ann.mate) {
            repair.replay(*nbr, ann);
        }
    }
}

/// Parses the tail of an `sedge`/`oedge` snapshot line:
/// `nbr matched mate mate_light`.
fn parse_entry<'a, I: Iterator<Item = &'a str>>(it: &mut I) -> (V, Ann) {
    let nbr: V = it.next().unwrap().parse().unwrap();
    let ann = Ann {
        matched: it.next().unwrap() == "1",
        mate: it.next().unwrap().parse().unwrap(),
        mate_light: it.next().unwrap() == "1",
    };
    (nbr, ann)
}

/// An overflow machine: the suspended-edge stack of (at most) one heavy
/// vertex at a time.
#[derive(Debug, Default)]
pub struct OverflowMachine {
    assigned: Option<V>,
    edges: Vec<(V, Ann)>,
    last_seen: u64,
    /// Inbound recovery-snapshot chunks accumulated so far.
    snap_buf: Vec<u64>,
}

impl OverflowMachine {
    /// The vertex whose stack this machine holds.
    pub fn assigned(&self) -> Option<V> {
        self.assigned
    }

    /// Number of suspended edges held.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Read access for audits.
    pub fn edges(&self) -> &[(V, Ann)] {
        &self.edges
    }

    /// Direct load for bulk preprocessing.
    pub fn load(&mut self, v: V, edges: Vec<(V, Ann)>, last_seen: u64) {
        self.assigned = Some(v);
        self.edges = edges;
        self.last_seen = last_seen;
    }

    /// Fail-stop wipe (chaos plane): drops all program state.
    pub fn wipe(&mut self) {
        self.assigned = None;
        self.edges = Vec::new();
        self.last_seen = 0;
        self.snap_buf = Vec::new();
    }

    /// Plain-text snapshot: sync point, assignment, and the suspended
    /// stack in positional order.
    pub fn snapshot_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("overflow v1\n");
        writeln!(s, "seen {}", self.last_seen).unwrap();
        if let Some(v) = self.assigned {
            writeln!(s, "assigned {v}").unwrap();
        }
        for &(nbr, ann) in &self.edges {
            writeln!(
                s,
                "oedge {nbr} {} {} {}",
                ann.matched as u8, ann.mate, ann.mate_light as u8
            )
            .unwrap();
        }
        s
    }

    /// Full state restore from [`OverflowMachine::snapshot_text`] output.
    pub fn restore_text(&mut self, text: &str) {
        self.wipe();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("overflow v1"), "snapshot header");
        for line in lines {
            let mut it = line.split_ascii_whitespace();
            match it.next().expect("non-empty snapshot line") {
                "seen" => self.last_seen = it.next().unwrap().parse().unwrap(),
                "assigned" => self.assigned = Some(it.next().unwrap().parse().unwrap()),
                "oedge" => self.edges.push(parse_entry(&mut it)),
                k => panic!("unknown snapshot line {k:?}"),
            }
        }
    }

    fn repair(&mut self, hist: &HistSlice) {
        let Some(repair) = Repair::new(hist, self.last_seen) else {
            return;
        };
        repair_entries(&mut self.edges, &repair);
        self.last_seen = repair.last_seq();
    }

    /// Handles one request; may produce a reply.
    pub fn handle(&mut self, msg: MatchMsg) -> Option<MatchMsg> {
        match msg {
            MatchMsg::Refresh(hist) => {
                self.repair(&hist);
                None
            }
            MatchMsg::AddSuspended { v, entries, hist } => {
                self.repair(&hist);
                if self.assigned.is_none() {
                    self.assigned = Some(v);
                }
                debug_assert_eq!(self.assigned, Some(v));
                self.edges.extend(entries);
                None
            }
            MatchMsg::DelEdge { at, nbr, hist } => {
                self.repair(&hist);
                debug_assert_eq!(self.assigned, Some(at));
                let before = self.edges.len();
                self.edges.retain(|&(x, _)| x != nbr);
                Some(MatchMsg::DelReply {
                    at,
                    found: self.edges.len() < before,
                    alive: false,
                })
            }
            MatchMsg::ScanFree { z, exclude, hist } => {
                self.repair(&hist);
                debug_assert_eq!(self.assigned, Some(z));
                let q = self
                    .edges
                    .iter()
                    .find(|&&(nbr, ann)| !ann.matched && !exclude.contains(&nbr))
                    .map(|&(nbr, _)| nbr);
                Some(MatchMsg::ScanFreeReply { z, q })
            }
            MatchMsg::FetchSuspended { v, hist } => {
                self.repair(&hist);
                debug_assert_eq!(self.assigned, Some(v));
                Some(MatchMsg::FetchReply {
                    v,
                    entry: self.edges.pop(),
                })
            }
            MatchMsg::ScanAdj { z, hist } => {
                self.repair(&hist);
                Some(MatchMsg::ScanAdjReply {
                    z,
                    entries: self.edges.clone(),
                })
            }
            MatchMsg::ReleaseOverflow { v } => {
                debug_assert_eq!(self.assigned, Some(v));
                debug_assert!(self.edges.is_empty());
                self.assigned = None;
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
            other => panic!("overflow machine got unexpected message {other:?}"),
        }
    }

    /// Memory footprint in words.
    pub fn memory_words(&self) -> usize {
        3 + 4 * self.edges.len() + self.snap_buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpc_graph::Edge;

    #[test]
    fn add_del_scan() {
        let mut m = StorageMachine::new(0, 4, 8);
        m.handle(MatchMsg::AddEdge {
            at: 1,
            nbr: 9,
            ann: Ann::free(),
            hist: vec![],
        });
        m.handle(MatchMsg::AddEdge {
            at: 1,
            nbr: 8,
            ann: Ann {
                matched: true,
                mate: 3,
                mate_light: true,
            },
            hist: vec![],
        });
        match m
            .handle(MatchMsg::ScanFree {
                z: 1,
                exclude: vec![],
                hist: vec![],
            })
            .unwrap()
        {
            MatchMsg::ScanFreeReply { q, .. } => assert_eq!(q, Some(9)),
            _ => panic!(),
        }
        match m
            .handle(MatchMsg::ScanFree {
                z: 1,
                exclude: vec![9],
                hist: vec![],
            })
            .unwrap()
        {
            MatchMsg::ScanFreeReply { q, .. } => assert_eq!(q, None),
            _ => panic!(),
        }
        match m
            .handle(MatchMsg::DelEdge {
                at: 1,
                nbr: 9,
                hist: vec![],
            })
            .unwrap()
        {
            MatchMsg::DelReply { found, alive, .. } => {
                assert!(found);
                assert!(alive);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn history_repair_applies_once() {
        let mut m = StorageMachine::new(0, 2, 8);
        m.handle(MatchMsg::AddEdge {
            at: 0,
            nbr: 5,
            ann: Ann::free(),
            hist: vec![],
        });
        let h1 = vec![(1, HistEntry::MatchAdd(Edge::new(5, 6), true, true))];
        m.handle(MatchMsg::Refresh(h1.clone()));
        assert!(m.vertex(0).unwrap().entries[0].1.matched);
        // Replaying the same suffix is a no-op (idempotent by seq).
        let h2 = vec![
            (1, HistEntry::MatchAdd(Edge::new(5, 6), true, true)),
            (2, HistEntry::MatchDel(Edge::new(5, 6))),
        ];
        m.handle(MatchMsg::Refresh(h2));
        assert!(!m.vertex(0).unwrap().entries[0].1.matched);
        assert_eq!(m.last_seen(), 2);
    }

    #[test]
    fn overflow_stack() {
        let mut o = OverflowMachine::default();
        o.handle(MatchMsg::AddSuspended {
            v: 3,
            entries: vec![(7, Ann::free()), (8, Ann::free())],
            hist: vec![],
        });
        assert_eq!(o.assigned(), Some(3));
        assert_eq!(o.len(), 2);
        match o
            .handle(MatchMsg::FetchSuspended { v: 3, hist: vec![] })
            .unwrap()
        {
            MatchMsg::FetchReply { entry, .. } => assert_eq!(entry.unwrap().0, 8),
            _ => panic!(),
        }
        match o
            .handle(MatchMsg::DelEdge {
                at: 3,
                nbr: 7,
                hist: vec![],
            })
            .unwrap()
        {
            MatchMsg::DelReply { found, alive, .. } => {
                assert!(found);
                assert!(!alive);
            }
            _ => panic!(),
        }
        assert!(o.is_empty());
        o.handle(MatchMsg::ReleaseOverflow { v: 3 });
        assert_eq!(o.assigned(), None);
    }

    /// The two layouts agree on every storage operation and snapshot.
    #[test]
    fn layouts_agree_on_storage_protocol() {
        let mk = |l: Layout| {
            let mut m = StorageMachine::with_layout(0, 4, 2, l);
            for (at, nbr) in [(0, 5), (0, 6), (1, 5), (2, 7), (0, 7)] {
                m.handle(MatchMsg::AddEdge {
                    at,
                    nbr,
                    ann: Ann::free(),
                    hist: vec![],
                });
            }
            m
        };
        let mut a = mk(Layout::Map);
        let mut b = mk(Layout::Soa);
        assert_eq!(a.snapshot_text(), b.snapshot_text());

        // MakeHeavy splits positionally; moved-out entries must match.
        for m in [&mut a, &mut b] {
            let hist = vec![(1, HistEntry::MatchAdd(Edge::new(6, 0), true, true))];
            m.handle(MatchMsg::Refresh(hist));
        }
        let ra = a.handle(MatchMsg::MakeHeavy {
            v: 0,
            mate: Some(6),
            hist: vec![],
        });
        let rb = b.handle(MatchMsg::MakeHeavy {
            v: 0,
            mate: Some(6),
            hist: vec![],
        });
        match (ra.unwrap(), rb.unwrap()) {
            (MatchMsg::MovedOut { entries: ea, .. }, MatchMsg::MovedOut { entries: eb, .. }) => {
                assert_eq!(ea, eb);
                assert_eq!(ea.len(), 1);
            }
            _ => panic!(),
        }
        assert_eq!(a.snapshot_text(), b.snapshot_text());

        // Order-preserving delete in the middle of a segment.
        for m in [&mut a, &mut b] {
            m.handle(MatchMsg::DelEdge {
                at: 0,
                nbr: 6,
                hist: vec![],
            });
        }
        assert_eq!(a.snapshot_text(), b.snapshot_text());

        // Round-trip through the snapshot codec.
        let text = b.snapshot_text();
        let mut c = StorageMachine::with_layout(0, 4, 2, Layout::Soa);
        c.restore_text(&text);
        assert_eq!(c.snapshot_text(), text);
    }
}
