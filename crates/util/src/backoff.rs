//! Capped exponential backoff with equal jitter — the one retry-delay
//! formula the whole workspace speaks.
//!
//! Three subsystems retry with the same schedule shape: the campaign
//! engine (transient run failures), the shard supervisor (crashed shard
//! children), and the submit client (daemon backpressure). Each used to
//! carry its own copy of the math, and the copies drifted: the submit
//! client's lost the exponent clamp, the non-negative guard, and the
//! zero-base early return, so extreme `retry`/`multiplier` values could
//! feed a negative or NaN duration into `Duration::from_secs_f64` — which
//! panics. The math now lives here; callers keep only their own jitter
//! *seed derivation* (each keys the stream differently, and those streams
//! are pinned by determinism tests and report digests).
//!
//! The schedule: `base * multiplier^(retry-1)`, capped, then drawn
//! uniformly from `[d/2, d)` — *equal jitter* — using a [`Rng`] stream
//! seeded by the caller. Deterministic in `(seed, retry)` by
//! construction.

use crate::Rng;
use std::time::Duration;

/// The delay before retry number `retry` (1-based): capped exponential
/// with equal jitter, deterministic in `seed`.
///
/// Total guards, in evaluation order, so no input can panic
/// [`Duration::from_secs_f64`]:
///
/// - zero `base` returns [`Duration::ZERO`] immediately (backoff
///   disabled);
/// - the exponent is clamped to `i32::MAX` before the `u32 → i32` cast
///   (an unclamped cast wraps huge retry counts to *negative* exponents);
/// - `f64::min` against the cap absorbs `+inf` overflow and NaN (Rust's
///   `min` returns the other operand when one side is NaN);
/// - `.max(0.0)` absorbs negative products (e.g. a negative multiplier at
///   an odd exponent).
///
/// The jittered result is strictly below `cap` whenever `cap > 0`.
pub fn equal_jitter_backoff(
    base: Duration,
    multiplier: f64,
    cap: Duration,
    retry: u32,
    seed: u64,
) -> Duration {
    if base.is_zero() {
        return Duration::ZERO;
    }
    let exponent = retry.saturating_sub(1).min(i32::MAX as u32) as i32;
    let raw = base.as_secs_f64() * multiplier.powi(exponent);
    let capped = raw.min(cap.as_secs_f64()).max(0.0);
    let mut rng = Rng::new(seed);
    Duration::from_secs_f64(capped * 0.5 * (1.0 + rng.unit()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xBAC0FF;

    #[test]
    fn schedule_is_deterministic_and_equal_jittered() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        for retry in 1..=8u32 {
            let a = equal_jitter_backoff(base, 2.0, cap, retry, SEED ^ u64::from(retry));
            let b = equal_jitter_backoff(base, 2.0, cap, retry, SEED ^ u64::from(retry));
            assert_eq!(a, b, "same seed, same delay");
            let capped = (0.05 * 2.0f64.powi(retry as i32 - 1)).min(2.0);
            let secs = a.as_secs_f64();
            assert!(
                secs >= capped * 0.5 && secs < capped,
                "retry {retry}: {secs}s outside equal-jitter window of {capped}s"
            );
        }
    }

    #[test]
    fn zero_base_disables_backoff() {
        assert_eq!(
            equal_jitter_backoff(Duration::ZERO, 2.0, Duration::from_secs(1), 7, SEED),
            Duration::ZERO
        );
    }

    #[test]
    fn extreme_inputs_never_panic_and_stay_below_cap() {
        let base = Duration::from_millis(25);
        let cap = Duration::from_secs(1);
        // Huge retry counts must clamp the exponent, not wrap it negative.
        for retry in [0, 1, u32::MAX - 1, u32::MAX] {
            for multiplier in [0.0, 0.5, 1.0, 2.0, 1e300, -2.0, f64::NAN, f64::INFINITY] {
                let d = equal_jitter_backoff(base, multiplier, cap, retry, SEED);
                assert!(d <= cap, "retry {retry} x{multiplier}: {d:?} above cap");
            }
        }
    }
}
