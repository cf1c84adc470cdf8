//! # dmpc — Dynamic Algorithms for the Massively Parallel Computation Model
//!
//! A from-scratch Rust reproduction of *"Dynamic Algorithms for the
//! Massively Parallel Computation Model"* (Italiano, Lattanzi, Mirrokni,
//! Parotsidis — SPAA 2019, arXiv:1905.09175): the DMPC model, an
//! instrumented MPC cluster simulator, and every algorithm the paper
//! presents, verified and measured.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`mpc`] — the instrumented cluster simulator (machines, synchronous
//!   rounds, memory/communication metering, the Section 8 entropy metric).
//! * [`graph`] — graph substrate: dynamic graphs, update streams,
//!   generators, union-find, blossom maximum matching, Kruskal.
//! * [`eulertour`] — the paper's indexed Euler-tour arithmetic (Section 5,
//!   Figures 1–2) and sequential Euler-tour trees.
//! * [`core`] — DMPC model parameters, algorithm traits, experiment
//!   drivers, reporting.
//! * [`connectivity`] — dynamic connectivity + (1+eps)-MST (Section 5) and
//!   a static connectivity baseline.
//! * [`matching`] — maximal matching (Section 3), 3/2-approximation
//!   (Section 4), (2+eps)-approximation (Section 6), static baseline.
//! * [`seqdyn`] / [`reduction`] — sequential dynamic algorithms and the
//!   Section 7 black-box reduction.
//! * [`service`] — the continuous-service front-end: clocked arrivals,
//!   windowed admission with backpressure, and per-op latency SLOs.
//!
//! ## Quickstart
//!
//! ```
//! use dmpc::core::{DmpcParams, DynamicGraphAlgorithm};
//! use dmpc::connectivity::DmpcConnectivity;
//! use dmpc::graph::Edge;
//!
//! let params = DmpcParams::new(16, 64);
//! let mut cc = DmpcConnectivity::new(params);
//! let m = cc.insert(Edge::new(0, 1));
//! assert!(m.clean() && m.rounds <= 4);
//! assert!(cc.connected(0, 1));
//! cc.delete(Edge::new(0, 1));
//! assert!(!cc.connected(0, 1));
//! ```

pub use dmpc_connectivity as connectivity;
pub use dmpc_core as core;
pub use dmpc_eulertour as eulertour;
pub use dmpc_graph as graph;
pub use dmpc_matching as matching;
pub use dmpc_mpc as mpc;
pub use dmpc_reduction as reduction;
pub use dmpc_seqdyn as seqdyn;
pub use dmpc_service as service;
