//! Rate control (R3, R10).
//!
//! The Orchestrator streams the hitlist to the Workers at a configured
//! rate. In virtual time this is a deterministic schedule; the
//! [`TokenBucket`] additionally provides the classic real-time limiter the
//! production tool would use, so both pieces are exercised.

/// A token bucket: `rate` tokens per second, burst capacity `burst`.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_ms: f64,
    burst: f64,
    tokens: f64,
    last_ms: u64,
}

impl TokenBucket {
    /// Create a bucket with the given rate (tokens/second) and burst size.
    pub fn new(rate_per_s: u32, burst: u32) -> Self {
        TokenBucket {
            rate_per_ms: f64::from(rate_per_s) / 1000.0,
            burst: f64::from(burst.max(1)),
            tokens: f64::from(burst.max(1)),
            last_ms: 0,
        }
    }

    /// Try to take one token at time `now_ms`; returns whether it was
    /// granted.
    pub fn try_take(&mut self, now_ms: u64) -> bool {
        self.refill(now_ms);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// The earliest time at or after `now_ms` when a token will be
    /// available.
    pub fn next_available_ms(&mut self, now_ms: u64) -> u64 {
        self.refill(now_ms);
        if self.tokens >= 1.0 {
            now_ms
        } else {
            let deficit = 1.0 - self.tokens;
            now_ms + (deficit / self.rate_per_ms).ceil() as u64
        }
    }

    fn refill(&mut self, now_ms: u64) {
        if now_ms > self.last_ms {
            let dt = (now_ms - self.last_ms) as f64;
            self.tokens = (self.tokens + dt * self.rate_per_ms).min(self.burst);
            self.last_ms = now_ms;
        }
    }
}

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

    #[test]
    fn bucket_enforces_rate() {
        let mut b = TokenBucket::new(1000, 1); // 1 token per ms
        assert!(b.try_take(0));
        assert!(!b.try_take(0), "burst of 1 exhausted");
        assert!(b.try_take(1));
        assert!(b.try_take(2));
        assert!(!b.try_take(2));
    }

    #[test]
    fn bucket_burst_allows_bursts() {
        let mut b = TokenBucket::new(10, 5);
        for _ in 0..5 {
            assert!(b.try_take(0));
        }
        assert!(!b.try_take(0));
    }

    #[test]
    fn next_available_is_exact() {
        let mut b = TokenBucket::new(100, 1); // 0.1 token/ms
        assert!(b.try_take(0));
        let t = b.next_available_ms(0);
        assert_eq!(t, 10);
        assert!(b.try_take(t));
    }

    #[test]
    fn tokens_cap_at_burst() {
        let mut b = TokenBucket::new(1000, 2);
        assert!(b.try_take(0));
        // A long idle period must not accumulate more than `burst`.
        b.refill(1_000_000);
        assert!(b.try_take(1_000_000));
        assert!(b.try_take(1_000_000));
        assert!(!b.try_take(1_000_000));
    }
}
