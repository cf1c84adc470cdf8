//! The component-owner directory.
//!
//! Structural ops (links, tree cuts) and replacement-edge searches only
//! concern machines owning at least one vertex of the affected components,
//! so the paper's Table 1 charges them O(sqrt N) *active* machines — not
//! all P. To address them, the cluster maintains a **component-owner
//! directory**: for every component, the machine owning its *root vertex*
//! (derivable locally, because a component id is its root vertex id) holds
//! the sorted set of machines owning >= 1 of its vertices. Components whose
//! owner set is a single machine store nothing — the implicit fallback
//! `{owner_of(comp)}` is exact, because a component confined to one machine
//! is confined to its root's owner. `Directory` is one machine's shard.
//!
//! Every flow that needs a set gets it one way, `ConnMachine::resolve`: a
//! set the flow already carries wins; otherwise each component's set is
//! answered locally (singletons and self-rooted components) or fetched with
//! one O(1)-round [`DirMsg::Fetch`] round-trip to its root owner. The
//! flow's continuation (a link, a cut, or an MST path-max query) runs at
//! once, or parks under its lane until the last [`DirMsg::Reply`].
//!
//! Maintenance mirrors the structural flow that is already running:
//!
//! * **Links** merge: the initiator resolves both sides' sets, multicasts
//!   the O(1)-word [`ConnMsg::Apply`] to the union, and installs the union at
//!   the merged root owner ([`DirMsg::Store`]) while dropping the absorbed
//!   id (a `Store` of the empty set).
//! * **Deleting cuts** refine: every owner's [`ConnMsg::Report`] to the
//!   rendezvous carries which sides of the tour-interval split it still
//!   owns, so when no replacement exists the rendezvous installs the two
//!   refined sets. When a replacement *is* found, the re-link restores the
//!   pre-cut component exactly, so the rendezvous hands the old set to the
//!   link flow instead (its [`ConnMsg::Insert`] carries it) and no
//!   refinement round is needed.
//! * **MST swaps** (demote + re-link, one [`Struct::Swap`]) leave the
//!   owner set unchanged, so the set resolved once for the path-max query
//!   rides along the whole swap ([`ConnMsg::StartSwap`] /
//!   [`ConnMsg::NeedParentCut`]), and the swap stores it as a link does.
//!   A deleting cut and a swap enter through the same tree-cut step, which
//!   hands a [`CutReq`] to the parent endpoint's owner.
//!
//! Owner sets are O(sqrt N) words but only ever travel point-to-point; the
//! multicast payloads stay O(1) words, keeping per-update communication at
//! O(sqrt N) total.
//!
//! [`ConnMsg::Apply`]: crate::messages::ConnMsg::Apply
//! [`ConnMsg::Report`]: crate::messages::ConnMsg::Report
//! [`ConnMsg::Insert`]: crate::messages::ConnMsg::Insert
//! [`ConnMsg::StartSwap`]: crate::messages::ConnMsg::StartSwap
//! [`Struct::Swap`]: crate::messages::Struct::Swap
//! [`ConnMsg::NeedParentCut`]: crate::messages::ConnMsg::NeedParentCut
//! [`CutReq`]: crate::messages::CutReq

use dmpc_eulertour::indexed::CompId;
use dmpc_mpc::text::{put_field, Fields, Sink};
use dmpc_mpc::MachineId;
use std::collections::BTreeMap;

/// Owner-directory messages, carried as
/// [`crate::messages::ConnMsg::Dir`]. Every one travels to or from the
/// root owner of `comp`.
#[derive(Clone, Debug)]
pub enum DirMsg {
    /// any machine -> root owner: request the component's owner set; the
    /// root owner answers with [`DirMsg::Reply`].
    Fetch {
        /// Component whose owner set is requested.
        comp: CompId,
        /// Batch lane of the fetching flow, echoed in the reply so the
        /// requester resumes the right lane's pending continuation.
        lane: Option<u32>,
    },
    /// root owner -> requester: the component's owner set.
    Reply {
        /// The component.
        comp: CompId,
        /// Machines owning >= 1 vertex of it (sorted, deduplicated).
        owners: Vec<MachineId>,
        /// Batch lane of the fetching flow (echoed from the fetch).
        lane: Option<u32>,
    },
    /// any machine -> root owner: install the component's owner set. A set
    /// of fewer than two owners erases the entry, so the empty set drops
    /// the id of a component a link absorbed.
    Store {
        /// The component.
        comp: CompId,
        /// Its new owner set.
        owners: Vec<MachineId>,
    },
    /// migration source -> remote root owner: incrementally repair the
    /// stored owner set after a shard migration (the component itself was
    /// untouched, only ownership of some members moved).
    Patch {
        /// The component whose owner set changed.
        comp: CompId,
        /// Machine that now owns >= 1 of its vertices.
        add: MachineId,
        /// Machine that no longer owns any (the source, when drained).
        remove: Option<MachineId>,
    },
}

impl DirMsg {
    /// Words of the message (the charge of its `ConnMsg::Dir`).
    pub fn size_words(&self) -> usize {
        match self {
            DirMsg::Fetch { .. } => 2,
            DirMsg::Reply { owners, .. } | DirMsg::Store { owners, .. } => 2 + owners.len(),
            DirMsg::Patch { .. } => 4,
        }
    }
}

/// One machine's directory shard: the owner sets of the components rooted
/// in its block, stored only when they name two or more machines.
#[derive(Debug, Default)]
pub(crate) struct Directory {
    sets: BTreeMap<CompId, Vec<MachineId>>,
}

impl Directory {
    /// `comp`'s owner set at its root owner `me`: the stored set, or the
    /// implicit `{me}`.
    pub(crate) fn owners<'a>(&'a self, comp: CompId, me: &'a MachineId) -> &'a [MachineId] {
        self.sets
            .get(&comp)
            .map_or(std::slice::from_ref(me), Vec::as_slice)
    }

    /// Installs `comp`'s owner set, erasing the entry when the set names
    /// fewer than two machines.
    pub(crate) fn store(&mut self, comp: CompId, owners: Vec<MachineId>) {
        if owners.len() >= 2 {
            self.sets.insert(comp, owners);
        } else {
            self.sets.remove(&comp);
        }
    }

    /// Takes `comp`'s entry at its root owner `me` (the stored set or
    /// `{me}`) and returns it with `remove` dropped and `add` added, sorted
    /// and deduplicated: a migration's edit. The result is empty when fewer
    /// than two owners remain, so it ships as a 2-word [`DirMsg::Store`].
    pub(crate) fn patched(
        &mut self,
        comp: CompId,
        me: MachineId,
        add: MachineId,
        remove: Option<MachineId>,
    ) -> Vec<MachineId> {
        let mut set = self.sets.remove(&comp).unwrap_or_else(|| vec![me]);
        set.retain(|&m| Some(m) != remove);
        set.push(add);
        set.sort_unstable();
        set.dedup();
        if set.len() < 2 {
            set.clear();
        }
        set
    }

    /// The stored entries in component order (audits; not part of the
    /// model).
    pub(crate) fn entries(&self) -> impl Iterator<Item = (CompId, &[MachineId])> {
        self.sets.iter().map(|(&comp, set)| (comp, set.as_slice()))
    }

    /// Writes one `dir` snapshot line per stored entry.
    pub(crate) fn write_lines<S: Sink>(&self, s: &mut S) {
        for (&comp, owners) in &self.sets {
            s.put(b"dir");
            put_field(s, comp as u64);
            for &m in owners {
                put_field(s, m as u64);
            }
            s.put(b"\n");
        }
    }

    /// Stores the entry of one `dir` snapshot line, read past its keyword.
    pub(crate) fn parse_line(&mut self, f: &mut Fields) {
        let comp: CompId = f.dec();
        self.store(comp, std::iter::from_fn(|| f.next_dec()).collect());
    }

    /// Words of the stored entries: the component id, the set's length and
    /// its members.
    pub(crate) fn memory_words(&self) -> usize {
        self.sets.values().map(|owners| 2 + owners.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The root owner holding the shard, and a migration destination below
    /// it, so a patched set is only in order if it was sorted.
    const ME: MachineId = 3;
    const TO: MachineId = 1;

    #[test]
    fn an_absent_component_answers_its_root_owner() {
        let dir = Directory::default();
        assert_eq!(dir.owners(9, &ME), [ME]);
        assert_eq!(dir.memory_words(), 0);
    }

    #[test]
    fn a_store_of_fewer_than_two_owners_erases_the_entry() {
        for owners in [vec![], vec![TO]] {
            let mut dir = Directory::default();
            dir.store(9, vec![TO, ME]);
            assert_eq!(dir.owners(9, &ME), [TO, ME]);
            assert_eq!(dir.memory_words(), 4);
            dir.store(9, owners);
            assert_eq!(dir.entries().count(), 0);
            assert_eq!(dir.owners(9, &ME), [ME]);
        }
    }

    #[test]
    fn patching_the_implicit_set_adds_the_destination() {
        let mut dir = Directory::default();
        let set = dir.patched(9, ME, TO, None);
        assert_eq!(set, [TO, ME]);
        dir.store(9, set);
        assert_eq!(dir.owners(9, &ME), [TO, ME]);
        // Adding a member already present leaves one copy of it.
        assert_eq!(dir.patched(9, ME, ME, None), [TO, ME]);
    }

    #[test]
    fn moving_the_only_owner_leaves_no_entry() {
        let mut dir = Directory::default();
        let owners = dir.patched(9, ME, TO, Some(ME));
        assert!(owners.is_empty());
        let store = DirMsg::Store {
            comp: 9,
            owners: owners.clone(),
        };
        assert_eq!(store.size_words(), 2);
        dir.store(9, owners);
        assert_eq!(dir.entries().count(), 0);
        // A stored set loses the drained source and gains the destination,
        // and the patch takes the entry with it.
        dir.store(9, vec![ME, 5]);
        assert_eq!(dir.patched(9, ME, TO, Some(ME)), [TO, 5]);
        assert_eq!(dir.entries().count(), 0);
    }
}
