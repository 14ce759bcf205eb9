//! Virtual time.
//!
//! Fleet runs must be reproducible bit-for-bit from a seed, so nothing
//! in this crate reads wall-clock time. Instead every lifecycle step
//! happens at a timestamp on a virtual microsecond timeline, with
//! durations from the `ecq_devices` cost models.

/// Virtual time in microseconds since the start of the run.
pub type VirtualTime = u64;

/// Converts a cost-model duration in milliseconds to virtual time.
pub fn micros_from_ms(ms: f64) -> VirtualTime {
    (ms * 1_000.0).round() as VirtualTime
}
