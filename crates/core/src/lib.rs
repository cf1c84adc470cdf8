//! The DMPC model layer: model parameters, the dynamic-algorithm interface,
//! and the chaos-plane surface.
//!
//! The paper defines the **DMPC** model (Section 2): machines with
//! `O(sqrt(N))`-word memories, where `N = n + m` is the input size; a
//! dynamic algorithm processes each edge insertion/deletion in synchronous
//! rounds, and its complexity is the triple
//! *(rounds per update, active machines per round, communication per round)*.
//! This crate turns those definitions into code:
//!
//! * [`DmpcParams`] — derives `S`, the machine count, and related quantities
//!   from `n` and the edge capacity, exactly as the paper's algorithms assume.
//! * [`DynamicGraphAlgorithm`] — the one interface every distributed
//!   algorithm here implements; weight is its associated `Update` type
//!   (`WeightedUpdate` for MST), queries, `resident_words` and
//!   `admission_budget` are default methods. The unit of work is a batch of
//!   `k` updates (`apply_batch`, defaulting to a loop over `apply`: `k = 1`).
//! * [`elastic`] — the chaos-plane surface ([`ElasticAlgorithm`]):
//!   per-machine snapshot/restore and metered kill/revive/split/merge.
//!
//! Nothing here drives an algorithm. The one loop that turns a stream into
//! `apply_batch`/`answer_queries` calls, fires chaos events and recovers
//! from them is `dmpc-service`'s `ServiceLoop`.
//!
//! # Example
//!
//! ```
//! use dmpc_core::DmpcParams;
//!
//! // n = 256 vertices, capacity for m_max = 768 edges: N = n + m_max.
//! let p = DmpcParams::new(256, 768);
//! assert_eq!(p.input_size(), 1024);
//! assert_eq!(p.sqrt_n(), 32); // machine memory S = O(sqrt N) words
//! assert!(p.storage_machines() >= 1);
//! ```

pub mod algorithm;
pub mod elastic;
pub mod model;

pub use algorithm::{answer_queries_looped, apply_batch_looped, DynamicGraphAlgorithm};
pub use elastic::ElasticAlgorithm;
pub use model::DmpcParams;
