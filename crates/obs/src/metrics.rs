//! Order-independent metric primitives: counters and fixed-bucket
//! histograms.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// A monotonic counter safe to share across worker threads. The final
/// value is the sum of all increments, which no thread interleaving can
/// change — the property that keeps concurrent telemetry deterministic.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        // laces-lint: allow(atomic-ordering) — counter increments commute; the final sum read after the thread-scope join is independent of interleaving
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // laces-lint: allow(atomic-ordering) — reports snapshot counters after the thread scope joins, which orders all prior increments before this load
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed, caller-chosen bucket upper bounds. Bucket `i`
/// counts observations `<= bounds[i]`; one implicit overflow bucket counts
/// the rest. The snapshot depends only on the multiset of observed values.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

/// Default RTT buckets in milliseconds (the paper's latency scale: LAN to
/// intercontinental plus a DNS-processing tail).
pub const RTT_BUCKETS_MS: [u64; 10] = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000];

impl Histogram {
    /// A histogram with the given ascending bucket upper bounds.
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascend");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let i = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[i] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Add every observation of `other`, which must have the same bounds.
    /// Merging commutes, so per-shard histograms combine into the same
    /// snapshot in any order.
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds, other.bounds, "merged histograms share bounds");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Freeze into the serializable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
        }
    }
}

/// Serialized histogram state: `counts[i]` observations were `<=
/// bounds[i]`, `counts[bounds.len()]` exceeded every bound.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts (one longer than `bounds`: the overflow bucket).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (mean = `sum / count`).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn counter_is_order_independent_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [1, 10, 11, 100, 101, 5000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 2]);
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1 + 10 + 11 + 100 + 101 + 5000);
        assert!((s.mean() - s.sum as f64 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_snapshot_is_order_independent() {
        let values = [3u64, 77, 9, 200, 41, 5];
        let mut a = Histogram::new(&RTT_BUCKETS_MS);
        let mut b = Histogram::new(&RTT_BUCKETS_MS);
        for v in values {
            a.observe(v);
        }
        for v in values.iter().rev() {
            b.observe(*v);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn merged_histograms_equal_one_over_the_union() {
        let (left, right) = ([3u64, 77, 9], [200u64, 41, 5, 5000]);
        let mut whole = Histogram::new(&RTT_BUCKETS_MS);
        let mut a = Histogram::new(&RTT_BUCKETS_MS);
        let mut b = Histogram::new(&RTT_BUCKETS_MS);
        for v in left {
            whole.observe(v);
            a.observe(v);
        }
        for v in right {
            whole.observe(v);
            b.observe(v);
        }
        let mut ba = b.clone();
        ba.merge(&a);
        a.merge(&b);
        assert_eq!(a.snapshot(), whole.snapshot());
        assert_eq!(ba.snapshot(), whole.snapshot());
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        assert_eq!(Histogram::new(&[1]).snapshot().mean(), 0.0);
    }
}
