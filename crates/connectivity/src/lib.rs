//! DMPC fully-dynamic connectivity and (1+eps)-approximate MST (paper
//! Section 5), plus the static MPC connectivity baseline they are compared
//! against.
//!
//! The dynamic algorithms run as *distributed machine programs* on the
//! `dmpc-mpc` simulator:
//!
//! * Vertices are partitioned across `O(sqrt N)` owner machines; each owned
//!   vertex stores its component id, component size, Euler-tour index list,
//!   and adjacency entries (tree entries carry their two tour indexes, the
//!   paper's per-edge index annotation; non-tree entries carry a cached tour
//!   index of the far endpoint used for O(1) side classification under cuts).
//! * Every structural change is one O(1)-word [`messages::Struct`] — a typed
//!   [`Link`](dmpc_eulertour::indexed::Link) or
//!   [`Cut`](dmpc_eulertour::indexed::Cut), or an MST swap's fused pair —
//!   **multicast to the affected components' owner machines** (the
//!   component-owner directory; see `directory`), which each recipient applies
//!   locally — O(1) rounds, O(sqrt N) active machines, O(sqrt N) total
//!   communication per update, exactly the paper's Table 1 rows 4 and 5.
//! * Tree-edge deletions trigger the paper's one-round replacement search:
//!   every owner reports at most one candidate crossing edge (plus its
//!   post-split side membership, which refines the directory) to a
//!   rendezvous machine named in the multicast, which reconnects (choosing
//!   the minimum-weight candidate in MST mode).
//!
//! Component ids equal the current *root vertex* of each tree, so machines
//! allocate fresh ids after splits without coordination (the detached side's
//! new root is the cut edge's child endpoint).
//!
//! # Example
//!
//! ```
//! use dmpc_connectivity::DmpcConnectivity;
//! use dmpc_core::{DmpcParams, DynamicGraphAlgorithm};
//! use dmpc_graph::Edge;
//!
//! let mut cc = DmpcConnectivity::new(DmpcParams::new(16, 64));
//! let m = cc.insert(Edge::new(0, 1));
//! assert!(m.clean() && m.rounds <= 4);
//! assert!(cc.connected(0, 1));
//! cc.delete(Edge::new(0, 1));
//! assert!(!cc.connected(0, 1));
//! ```

pub mod algorithm;
pub mod batch;
pub mod directory;
pub mod machine;
pub mod messages;
pub mod preprocess;
pub mod query;
mod shard;
pub mod static_cc;

pub use algorithm::{DmpcConnectivity, DmpcMst};
pub use batch::ConflictStats;
pub use static_cc::StaticCc;
