//! CAN-FD network simulation with ISO 15765-2 transport.
//!
//! The paper's prototype (§V-C) runs the session protocols between two
//! S32K144 ECUs over CAN-FD (0.5 Mbit/s nominal phase, 2 Mbit/s data
//! phase) with a CAN-TP (ISO 15765-2) layer for fragmentation — Fig. 6
//! shows the stack. This crate is that substrate:
//!
//! * [`canfd`] — CAN-FD frames, DLC mapping and a bit-level frame-time
//!   model with dual bit rates,
//! * [`isotp`] — ISO 15765-2 segmentation (SF/FF/CF/FC), reassembly and
//!   transfer-time accounting,
//! * [`app`] — the application/session header of the paper's Fig. 6
//!   (communication code, session communication id, op code),
//! * [`sharedbus`] — the one bus model: sessions' frames arbitrate
//!   (lowest id wins) on one medium processed incrementally under a
//!   [`fault::FaultPlan`], with the ISO-TP delivery formula, typed-message
//!   reconstruction and a pinned frame-schedule log,
//! * [`transport`] — the `ecq_proto` [`transport::CanLink`] transport:
//!   one pair on a one-slot bus under an inert plan, with per-link
//!   latency from the `ecq_devices` cost tables, for callers that drive
//!   a pair message by message (the `perfbench` replay); the fleet
//!   sweep engine instead gives every event loop one [`SharedBus`],
//! * [`fault`] — the seeded, schedule-stable fault-injection plan
//!   (frame drop/corrupt/duplicate/reorder/delay, message replay,
//!   babble storms, clock skew).
//!
//! The headline check reproduced by the tests and the Fig. 7 bench: a
//! full handshake message (≤ 245 B) crosses the bus in ~1 ms — "the
//! CAN-FD transfer time over the physical link was negligible (<1 ms)".

#![warn(missing_docs)]

pub mod app;
pub mod canfd;
pub mod fault;
pub mod isotp;
pub mod sharedbus;
pub mod transport;

pub use fault::{BabbleSpec, FaultAction, FaultPlan, FaultSpec, TargetedFault};
pub use sharedbus::{DeliveryDue, FaultCounters, FrameRecord, SharedBus};
pub use transport::CanLink;

/// Simulation time in nanoseconds.
pub type SimNanos = u64;

/// Converts nanoseconds to milliseconds (reporting convenience).
pub fn ns_to_ms(ns: SimNanos) -> f64 {
    ns as f64 / 1.0e6
}

/// Converts a float millisecond duration to nanoseconds.
pub fn ms_to_ns(ms: f64) -> SimNanos {
    (ms * 1.0e6).round() as SimNanos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions_roundtrip() {
        assert_eq!(ns_to_ms(1_500_000), 1.5);
        assert_eq!(ms_to_ns(1.5), 1_500_000);
        assert_eq!(ms_to_ns(ns_to_ms(123_456_789)), 123_456_789);
    }
}
