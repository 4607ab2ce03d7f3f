//! Rate control (R3, R10).
//!
//! The Orchestrator streams the hitlist to the Workers at a configured
//! rate. In virtual time this is a deterministic schedule.

/// The deterministic hitlist schedule: target `i` is dispatched at
/// `i * 1000 / rate` milliseconds.
///
/// A zero rate admits no schedule — every window is unreachable
/// (`u64::MAX`).
/// [`MeasurementSpec::builder`](crate::spec::MeasurementSpec::builder)
/// rejects zero rates up front
/// ([`MeasurementError::InvalidRate`](crate::error::MeasurementError::InvalidRate));
/// this function used to paper over them by clamping 0 → 1 probe/s, which
/// silently turned a misconfigured census into one running 10 000× slower
/// than intended.
pub fn window_start_ms(index: usize, rate_per_s: u32) -> u64 {
    (index as u64)
        .saturating_mul(1000)
        .checked_div(u64::from(rate_per_s))
        .unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spacing_matches_rate() {
        assert_eq!(window_start_ms(0, 1000), 0);
        assert_eq!(window_start_ms(1000, 1000), 1000);
        assert_eq!(window_start_ms(1, 10_000), 0);
        assert_eq!(window_start_ms(10, 10_000), 1);
    }

    /// Regression: a zero rate used to be silently clamped to 1 probe/s
    /// (`window_start_ms(5, 0)` returned 5000, as if the caller had asked
    /// for a 1/s census). The spec builder now rejects zero rates; the raw
    /// schedule reports every window as unreachable instead of inventing a
    /// rate.
    #[test]
    fn zero_rate_is_unreachable_not_clamped() {
        assert_eq!(window_start_ms(0, 0), u64::MAX);
        assert_eq!(window_start_ms(5, 0), u64::MAX);
    }
}
