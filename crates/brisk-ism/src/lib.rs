//! # brisk-ism — the instrumentation system manager
//!
//! The ISM is the central component of BRISK (§3.5, Fig. 1): it receives
//! instrumentation data batches from the external sensors, merges them into
//! one time-ordered stream, repairs causally-inconsistent timestamps, runs
//! the clock-synchronization master, and hands the result to consumers.
//!
//! Pipeline, matching Fig. 1 left to right:
//!
//! ```text
//! batch queues → CRE switch/hash → on-line sorting (ts-ordered heap)
//!             → outputs: memory buffer | PICL trace file | consumer sinks
//! ```
//!
//! * [`sorter::OnlineSorter`] — the adaptive time-frame merge (§3.6): each
//!   record is delayed `T` after its (synchronized) creation time; `T`
//!   grows when an out-of-order extraction is observed and decays
//!   exponentially afterwards.
//! * [`cre::CreMatcher`] — causally-related-event handling: `X_REASON` /
//!   `X_CONSEQ` matching via a hash table, timestamp override for tachyons,
//!   and the request for an extra synchronization round.
//! * [`output`] — the output stage: [`output::MemoryBuffer`] (the default
//!   output mode — consumers read the same binary structure the sensors
//!   wrote), [`output::PiclFileSink`], and arbitrary [`output::EventSink`]s
//!   (the visual-object path lives in `brisk-consumers`).
//! * [`core::IsmCore`] — the transport-free composition of the above;
//!   driven by the threaded [`server::IsmServer`] in real deployments and
//!   directly by `brisk-sim` in deterministic experiments.
//! * [`pump`] / [`server::IsmServer`] — the networked manager: a small
//!   poll-based reactor pool drives every EXS connection (decodes each
//!   batch once, runs poll exchanges with accurate send/receive
//!   timestamps) and one manager thread owns the core. Connection count
//!   is decoupled from thread count: a thousand idle sensors cost a
//!   handful of reactor threads, not a thousand pump threads.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod core;
pub mod cre;
pub mod merge;
pub mod output;
pub mod pump;
mod reactor;
pub mod relay;
pub mod server;
pub mod sorter;

pub use crate::core::{IsmCore, IsmCoreStats};
pub use cre::{CreMatcher, CreStats};
pub use merge::{MergeOutput, MergePlane, MergeStats};
pub use output::{EventSink, MemoryBuffer, MemoryBufferReader, PiclFileSink};
pub use pump::{ProtocolGuard, QuarantineLog, QuarantineSample};
pub use relay::{RelayConfig, RelayStats, UpstreamExporter};
pub use server::{IsmHandle, IsmReport, IsmServer};
pub use sorter::{OnlineSorter, OverloadPolicy, SorterStats};
