//! An instrumented simulator of the Massively Parallel Computation (MPC)
//! model, specialized for the *dynamic* MPC (DMPC) model of the paper
//! "Dynamic Algorithms for the Massively Parallel Computation Model"
//! (SPAA 2019).
//!
//! The simulator provides:
//!
//! * [`machine::Machine`] — the per-machine program abstraction. Machines hold
//!   `O(S)` words of local state and exchange messages in synchronous rounds.
//! * [`cluster::Cluster`] — the round executor. An *update* injects external
//!   messages and runs rounds to quiescence, producing an
//!   [`metrics::UpdateMetrics`] with exactly the three quantities the paper's
//!   Table 1 reports: **rounds**, **active machines per round**, and
//!   **communication per round** — plus capacity-violation tracking and the
//!   communication-entropy metric proposed in the paper's Section 8.
//!   [`Cluster::run_batch`] seeds a whole batch of external envelopes in
//!   round 0 and meters the combined quiescence run as one
//!   [`metrics::BatchMetrics`] with per-update amortized costs.
//! * Two stepping backends — serial ([`cluster::Backend::Serial`], the
//!   reference) and a persistent worker pool ([`pool::WorkerPool`],
//!   selected via [`cluster::Backend::WorkerPool`]) whose threads live as
//!   long as the cluster. The pool is bit-identical to the serial backend
//!   (verified by property tests), so large simulations use all host cores
//!   without changing observable behaviour.
//! * [`text`] — the snapshot line codec the machine programs share: one
//!   line renderer over a byte sink (a `Vec<u8>` for snapshot text, the
//!   FNV-1a hasher for state digests) and its byte-level reader.
//!
//! The round executor's hot path is allocation-free in steady state: one
//! stable sort (counting, or in-place insertion for sparse rounds) groups
//! each round's messages into contiguous per-receiver inbox slices, every
//! run records the machines it stepped ([`Cluster::touched`]) so drivers
//! sweep those and not all `P`, and every scratch buffer is owned by the
//! [`Cluster`] and reused across rounds (see `docs/ARCHITECTURE.md`,
//! "Executor internals").
//!
//! Units: memory and message sizes are counted in 64-bit **words**, the
//! natural unit for the model's `O(sqrt(N))`-word machine memories.
//!
//! # Example
//!
//! A four-machine ring that forwards a token until its hop budget runs out.
//! One update runs rounds to quiescence and is metered exactly:
//!
//! ```
//! use dmpc_mpc::{Cluster, ClusterConfig, Envelope, Machine, Outbox, Payload, RoundCtx};
//!
//! #[derive(Clone, Debug)]
//! struct Token(u64);
//! impl Payload for Token {
//!     fn size_words(&self) -> usize {
//!         1
//!     }
//! }
//!
//! struct Hop;
//! impl Machine for Hop {
//!     type Msg = Token;
//!     fn on_messages(&mut self, ctx: &RoundCtx, inbox: &mut Vec<Envelope<Token>>, out: &mut Outbox<Token>) {
//!         for env in inbox.drain(..) {
//!             if env.msg.0 > 0 {
//!                 out.send((ctx.self_id + 1) % ctx.n_machines as u32, Token(env.msg.0 - 1));
//!             }
//!         }
//!     }
//! }
//!
//! let mut cluster = Cluster::new((0..4).map(|_| Hop).collect(), ClusterConfig::default());
//! cluster.inject(0, Token(5));
//! let metrics = cluster.run_update();
//! assert!(metrics.clean());
//! assert_eq!(metrics.rounds, 6); // 5 hops + the final quiescent round
//! assert_eq!(metrics.total_messages, 5);
//! ```

pub mod chaos;
pub mod clock;
pub mod cluster;
pub mod handoff;
pub mod machine;
pub mod metrics;
pub mod parallel;
pub mod pool;
pub mod text;

pub use chaos::{ChaosCaps, ChaosEvent, ChaosKind, ChaosPlan};
pub use clock::{LatencyStats, SimClock};
pub use cluster::{Backend, Cluster, ClusterConfig, ExecOptions};
pub use handoff::{Handoff, HandoffMsg};
pub use machine::{Envelope, Machine, Outbox, Payload, RoundCtx};
pub use metrics::{
    entropy_bits, loglog_slope, AggregateMetrics, BatchMetrics, QueryMetrics, RecoveryMetrics,
    UpdateMetrics, Violation,
};
pub use pool::WorkerPool;

/// Identifier of a simulated machine (dense `0..mu`).
pub type MachineId = u32;

/// Conventional id of the coordinator machine used by the paper's
/// coordinator-based algorithms (Sections 3 and 4).
pub const COORDINATOR: MachineId = 0;
