//! `vroom-sim` — the deterministic discrete-event simulation kernel
//! underpinning the Vroom reproduction.
//!
//! Everything in the workspace that models time — the cellular link, the
//! mobile browser's CPU, server think time — runs on this kernel. Design
//! rules, borrowed from smoltcp's sans-IO philosophy:
//!
//! * **Explicit clocks.** No wall-clock reads anywhere; state machines are
//!   polled with a [`SimTime`].
//! * **Determinism.** Integer-nanosecond time, a stable FIFO tie-break for
//!   simultaneous events, and a seeded in-crate PRNG ([`Rng`]) make every run
//!   bit-for-bit reproducible.
//! * **Single thread.** Parallelism across *experiments* (not within a
//!   simulation) is how the benchmark harness scales.

#![forbid(unsafe_code)]

pub mod queue;
pub mod rng;
pub mod time;

pub use queue::{EventId, EventQueue};
pub use rng::Rng;
pub use time::{SimDuration, SimTime};
