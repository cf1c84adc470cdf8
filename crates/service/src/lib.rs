//! The continuous-service front-end of the DMPC reproduction.
//!
//! Every bench and harness before this crate replayed its workload offline
//! in one shot. This crate closes the loop on the paper's north-star shape —
//! a dynamic service "serving heavy traffic from millions of users" — by
//! putting an *online* admission path in front of the same algorithms:
//!
//! * A deterministic simulated clock (`dmpc_mpc::SimClock`) drives op
//!   arrivals from the seeded arrival processes of `dmpc_graph::arrivals`.
//! * Arrivals queue in a bounded [`AdmissionBuffer`]; when it fills, the
//!   service applies explicit backpressure ([`BackpressurePolicy`]) —
//!   shed-with-record or block — never silent loss.
//! * Buffered ops coalesce into batch/wave windows that close on **size or
//!   deadline** ([`WindowPolicy`]); closed windows execute through the
//!   existing batch plane and query waves, capped at the algorithm's
//!   `admission_budget` so a window never outruns the send-cap budget.
//! * Per-op latency is metered end to end — enqueue → admit → complete —
//!   in rounds, ticks, and wall-clock seconds, aggregated per op kind into
//!   [`ServiceReport`] histograms with exact p50/p90/p99.
//!
//! There is one loop. [`ServiceLoop`] executes windows of ops — fed one at a
//! time, with a `ChaosPlan`'s kill/revive/split/merge events fired between
//! and inside them and every failure recovered through the one
//! [`RebuildEngine`] ([`recovery`]: checkpoint + replay, fenced epochs).
//! [`run_service_chaos`] is the admission path above in front of it,
//! [`replay_windows`] a recorded window log in front of it, and a test that
//! wants a hand-built plan over hand-built windows drives it directly.
//!
//! The clock only decides *where* windows close, never *how* a closed
//! window executes, so an online run is bit-identical (digests, answers,
//! audits) to an offline [`replay_windows`] of the same coalesced windows —
//! including through mid-flight failures, because chaos epochs abort and
//! retry to a clean run (see [`ServiceLoop`]).

pub mod buffer;
pub mod recovery;
pub mod service;
pub mod window;

pub use buffer::{AdmissionBuffer, BackpressurePolicy, Offer, ShedRecord};
pub use recovery::{EpochAbort, RebuildEngine};
pub use service::{
    replay_windows, run_service_chaos, AppliedEvent, DrainRecord, ServiceAlgorithm, ServiceConfig,
    ServiceLoop, ServiceReport, UnweightedService, WeightedEdgeService,
};
pub use window::{CloseReason, WindowPolicy, WindowRecord};
