//! Clocked arrival processes: pin an ordered operation stream to simulated
//! clock ticks, turning the offline workloads of [`crate::streams`] into
//! *online* traces for the continuous-service front-end.
//!
//! An arrival trace assigns each op of an existing stream a tick at which it
//! reaches the service. Ticks are monotone non-decreasing and the op order
//! is preserved, so the write subsequence stays valid-by-construction
//! exactly as the source generator built it — the process only shapes
//! *when* ops show up, never *which* ops or in what order. Like every
//! generator in [`crate::streams`], randomness flows through
//! [`crate::streams::stream_rng`] under a dedicated salt
//! ([`SALT_ARRIVALS`]), so one user seed reproduces the whole trace and
//! arrival jitter stays decorrelated from the op stream itself.

use crate::queries::Op;
use crate::streams::stream_rng;
use rand::Rng;

/// Salt of [`arrival_trace`] (see [`crate::streams::stream_rng`]).
pub const SALT_ARRIVALS: u64 = 0x00a7_71fa_57a7_71fa;

/// One op pinned to its arrival tick.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Simulated-clock tick at which the op reaches the service.
    pub tick: u64,
    /// The operation.
    pub op: Op,
}

/// The shape of the expected arrival rate over time, in ops per tick.
/// Every variant's long-run rate is strictly positive, so a trace always
/// terminates (validated by [`arrival_trace`] before generation starts).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Constant expected rate — the baseline service-load shape.
    Steady {
        /// Expected ops per tick (> 0).
        ops_per_tick: f64,
    },
    /// A low base rate punctuated by periodic bursts — the traffic shape of
    /// one account fanning out.
    Bursty {
        /// Expected ops per tick outside bursts (>= 0).
        base: f64,
        /// Expected ops per tick inside bursts (> 0).
        burst: f64,
        /// Ticks between burst starts (>= 1).
        period: u64,
        /// Ticks each burst lasts (1..=period).
        burst_len: u64,
    },
    /// A diurnal ramp: the rate climbs linearly from `low` to `high` over
    /// the first half of each period and back down over the second —
    /// day/night load for a service "serving heavy traffic from millions
    /// of users".
    Diurnal {
        /// Off-peak expected ops per tick (>= 0).
        low: f64,
        /// Peak expected ops per tick (> 0, >= `low`).
        high: f64,
        /// Full ramp-up-and-down period in ticks (>= 2).
        period: u64,
    },
}

impl ArrivalProcess {
    /// The expected arrival rate at tick `t` (ops per tick).
    pub fn rate_at(&self, t: u64) -> f64 {
        match *self {
            ArrivalProcess::Steady { ops_per_tick } => ops_per_tick,
            ArrivalProcess::Bursty {
                base,
                burst,
                period,
                burst_len,
            } => {
                if t % period < burst_len {
                    burst
                } else {
                    base
                }
            }
            ArrivalProcess::Diurnal { low, high, period } => {
                let phase = t % period;
                let half = period / 2;
                // Triangle wave: 0 at phase 0, 1 at the half period, back
                // to 0 at the period end.
                let frac = if phase <= half {
                    phase as f64 / half.max(1) as f64
                } else {
                    (period - phase) as f64 / (period - half).max(1) as f64
                };
                low + (high - low) * frac
            }
        }
    }

    /// Panics (with the offending parameter) unless the process has a
    /// strictly positive long-run rate — the termination precondition of
    /// [`arrival_trace`].
    fn validate(&self) {
        match *self {
            ArrivalProcess::Steady { ops_per_tick } => {
                assert!(ops_per_tick > 0.0, "steady ops_per_tick must be > 0");
            }
            ArrivalProcess::Bursty {
                base,
                burst,
                period,
                burst_len,
            } => {
                assert!(base >= 0.0, "bursty base rate must be >= 0");
                assert!(burst > 0.0, "bursty burst rate must be > 0");
                assert!(period >= 1, "bursty period must be >= 1");
                assert!(
                    (1..=period).contains(&burst_len),
                    "bursty burst_len must be in 1..=period"
                );
            }
            ArrivalProcess::Diurnal { low, high, period } => {
                assert!(low >= 0.0, "diurnal low rate must be >= 0");
                assert!(
                    high > 0.0 && high >= low,
                    "diurnal high must be > 0, >= low"
                );
                assert!(period >= 2, "diurnal period must be >= 2");
            }
        }
    }
}

/// Assigns monotone non-decreasing arrival ticks to `ops`, preserving their
/// order (a credit accumulator releases the next ops whenever the expected
/// arrivals-so-far crosses an integer). Per-tick rates carry a seeded
/// ±25% multiplicative jitter so tick boundaries decorrelate from the
/// deterministic rate shape while the mean rate is preserved. Panics when
/// `process` has no positive long-run rate (the trace would never finish).
pub fn arrival_trace(ops: &[Op], process: ArrivalProcess, seed: u64) -> Vec<Arrival> {
    process.validate();
    let mut rng = stream_rng(seed, SALT_ARRIVALS);
    let mut out = Vec::with_capacity(ops.len());
    let mut acc = 0.0f64;
    let mut t = 0u64;
    let mut i = 0usize;
    while i < ops.len() {
        // Jitter in [0.75, 1.25], mean 1.
        let jitter = 0.75 + rng.gen_range(0..501u32) as f64 / 1000.0;
        acc += process.rate_at(t) * jitter;
        while acc >= 1.0 && i < ops.len() {
            out.push(Arrival {
                tick: t,
                op: ops[i],
            });
            acc -= 1.0;
            i += 1;
        }
        t += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::{self, QueryMix, TargetDist};

    fn ops(n_ops: usize, seed: u64) -> Vec<Op> {
        streams::mixed_stream(
            64,
            n_ops,
            50,
            TargetDist::Uniform,
            QueryMix::Connectivity,
            seed,
        )
    }

    #[test]
    fn trace_preserves_order_and_is_monotone() {
        let src = ops(300, 7);
        for process in [
            ArrivalProcess::Steady { ops_per_tick: 1.5 },
            ArrivalProcess::Bursty {
                base: 0.0,
                burst: 8.0,
                period: 16,
                burst_len: 2,
            },
            ArrivalProcess::Diurnal {
                low: 0.25,
                high: 4.0,
                period: 32,
            },
        ] {
            let trace = arrival_trace(&src, process, 42);
            assert_eq!(trace.len(), src.len(), "{process:?} dropped ops");
            let replayed: Vec<Op> = trace.iter().map(|a| a.op).collect();
            assert_eq!(replayed, src, "{process:?} reordered ops");
            assert!(
                trace.windows(2).all(|w| w[0].tick <= w[1].tick),
                "{process:?} ticks not monotone"
            );
        }
    }

    #[test]
    fn trace_is_seed_deterministic() {
        let src = ops(200, 3);
        let p = ArrivalProcess::Steady { ops_per_tick: 2.0 };
        assert_eq!(arrival_trace(&src, p, 42), arrival_trace(&src, p, 42));
        let a = arrival_trace(&src, p, 42);
        let b = arrival_trace(&src, p, 43);
        assert_ne!(
            a.iter().map(|x| x.tick).collect::<Vec<_>>(),
            b.iter().map(|x| x.tick).collect::<Vec<_>>(),
            "seed did not move the jitter"
        );
    }

    #[test]
    fn steady_rate_is_roughly_honored() {
        let src = ops(400, 11);
        let trace = arrival_trace(&src, ArrivalProcess::Steady { ops_per_tick: 4.0 }, 42);
        let span = trace.last().unwrap().tick + 1;
        let rate = trace.len() as f64 / span as f64;
        assert!(
            (rate - 4.0).abs() < 1.0,
            "steady rate {rate} far from requested 4.0"
        );
    }

    #[test]
    fn bursty_traces_have_idle_gaps() {
        let src = ops(200, 5);
        let trace = arrival_trace(
            &src,
            ArrivalProcess::Bursty {
                base: 0.0,
                burst: 16.0,
                period: 32,
                burst_len: 2,
            },
            42,
        );
        // With a zero base rate, arrivals cluster inside bursts: some
        // consecutive arrivals must be separated by a long idle gap.
        let max_gap = trace
            .windows(2)
            .map(|w| w[1].tick - w[0].tick)
            .max()
            .unwrap();
        assert!(max_gap >= 16, "no idle gap between bursts (max {max_gap})");
    }

    #[test]
    fn diurnal_peak_outpaces_trough() {
        let src = ops(600, 9);
        let period = 64u64;
        let trace = arrival_trace(
            &src,
            ArrivalProcess::Diurnal {
                low: 0.25,
                high: 8.0,
                period,
            },
            42,
        );
        // Count arrivals near the peak (middle quarter of each period)
        // vs the trough (first/last eighth).
        let (mut peak, mut trough) = (0usize, 0usize);
        for a in &trace {
            let phase = a.tick % period;
            if (period * 3 / 8..period * 5 / 8).contains(&phase) {
                peak += 1;
            } else if phase < period / 8 || phase >= period * 7 / 8 {
                trough += 1;
            }
        }
        assert!(
            peak > 2 * trough.max(1),
            "diurnal ramp flat: peak {peak} vs trough {trough}"
        );
    }

    #[test]
    #[should_panic(expected = "ops_per_tick must be > 0")]
    fn zero_rate_is_rejected() {
        arrival_trace(
            &ops(10, 1),
            ArrivalProcess::Steady { ops_per_tick: 0.0 },
            42,
        );
    }
}
