//! Latency statistics.

use std::cell::{Cell, RefCell};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::SimDuration;

/// A latency histogram that records exact samples and reports percentiles.
///
/// Samples are stored as raw nanosecond values; percentile queries sort
/// lazily. This favours fidelity over memory, which is appropriate for the
/// bounded experiment sizes in this reproduction (≤ a few million samples).
///
/// The sorted state is cached behind interior mutability so percentile
/// queries — and [`fmt::Display`], which prints p50/p99 — work through
/// `&self` without cloning the sample vector. The first percentile query
/// after new samples arrive sorts in place; subsequent queries are O(1).
///
/// # Serialization
///
/// The serialized form (which flows through `Debug` in this workspace's
/// offline serde stand-in) is *canonical*: always the sorted sample vector,
/// never the transient insertion order or the internal sort-cache flag.
/// Identical sample multisets therefore always serialize to identical
/// bytes, regardless of recording order or whether a percentile was queried
/// first — the property the golden-fixture byte diffs in CI rely on.
///
/// # Example
///
/// ```rust
/// use twob_sim::{Histogram, SimDuration};
///
/// let mut h = Histogram::new();
/// for us in [1u64, 2, 3, 4, 100] {
///     h.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(h.percentile(0.5), SimDuration::from_micros(3));
/// assert_eq!(h.max(), SimDuration::from_micros(100));
/// ```
#[derive(Default, Clone, Serialize, Deserialize)]
pub struct Histogram {
    samples: RefCell<Vec<u64>>,
    sorted: Cell<bool>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, sample: SimDuration) {
        self.samples.get_mut().push(sample.as_nanos());
        self.sorted.set(false);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.borrow().len()
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.borrow().is_empty()
    }

    fn ensure_sorted(&self) {
        if !self.sorted.get() {
            self.samples.borrow_mut().sort_unstable();
            self.sorted.set(true);
        }
    }

    /// Returns the `q`-quantile (`0.0 ..= 1.0`) using nearest-rank, or zero
    /// for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0 ..= 1.0`.
    pub fn percentile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        self.ensure_sorted();
        let samples = self.samples.borrow();
        if samples.is_empty() {
            return SimDuration::ZERO;
        }
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
        SimDuration::from_nanos(samples[rank])
    }

    /// Returns the `q`-quantile (`0.0 ..= 1.0`) with linear interpolation
    /// between the two closest ranks (the "R-7" estimator), in nanoseconds.
    ///
    /// Unlike [`Histogram::percentile`], which snaps to an observed sample
    /// (nearest-rank, what the golden fixtures pin), this estimator answers
    /// tail questions — p99/p999 against an SLO target — smoothly even when
    /// the sample count is small relative to `1 / (1 - q)`. The result is a
    /// pure function of the sorted sample multiset, so it is byte-stable
    /// across recording orders and query histories.
    ///
    /// Returns `0.0` for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0 ..= 1.0`.
    pub fn interpolated(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        self.ensure_sorted();
        let samples = self.samples.borrow();
        if samples.is_empty() {
            return 0.0;
        }
        if samples.len() == 1 {
            return samples[0] as f64;
        }
        let h = q * (samples.len() - 1) as f64;
        let lo = h.floor() as usize;
        let hi = (lo + 1).min(samples.len() - 1);
        let frac = h - lo as f64;
        samples[lo] as f64 + frac * (samples[hi] as f64 - samples[lo] as f64)
    }

    /// Interpolated 99th percentile in nanoseconds.
    pub fn p99(&self) -> f64 {
        self.interpolated(0.99)
    }

    /// Interpolated 99.9th percentile in nanoseconds — the SLO-tracking
    /// tail quantile.
    pub fn p999(&self) -> f64 {
        self.interpolated(0.999)
    }

    /// Arithmetic mean, or zero for an empty histogram.
    pub fn mean(&self) -> SimDuration {
        let samples = self.samples.borrow();
        if samples.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = samples.iter().map(|&s| u128::from(s)).sum();
        SimDuration::from_nanos((sum / samples.len() as u128) as u64)
    }

    /// Smallest sample, or zero when empty.
    pub fn min(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples.borrow().iter().copied().min().unwrap_or(0))
    }

    /// Largest sample, or zero when empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples.borrow().iter().copied().max().unwrap_or(0))
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples
            .get_mut()
            .extend_from_slice(&other.samples.borrow());
        self.sorted.set(false);
    }

    /// Rebuilds a histogram from raw nanosecond samples (any order), the
    /// inverse of [`Histogram::sorted_nanos`] for serialization round-trips.
    pub fn from_nanos_samples(samples: Vec<u64>) -> Histogram {
        Histogram {
            samples: RefCell::new(samples),
            sorted: Cell::new(false),
        }
    }

    /// The canonical (sorted ascending) sample vector, in nanoseconds.
    pub fn sorted_nanos(&self) -> Vec<u64> {
        self.ensure_sorted();
        self.samples.borrow().clone()
    }
}

/// Canonical serialized form: the sorted sample vector only. The derived
/// impl exposed the transient insertion order and the sort-cache flag, so
/// identical data serialized to different bytes depending on whether a
/// percentile had been queried first.
impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.ensure_sorted();
        f.debug_struct("Histogram")
            .field("samples", &*self.samples.borrow())
            .finish()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} max={}",
            self.len(),
            self.mean(),
            self.percentile(0.50),
            self.percentile(0.99),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let mut h = Histogram::new();
        for ns in 1..=100u64 {
            h.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(h.percentile(0.01), SimDuration::from_nanos(1));
        assert_eq!(h.percentile(0.50), SimDuration::from_nanos(50));
        assert_eq!(h.percentile(0.99), SimDuration::from_nanos(99));
        assert_eq!(h.percentile(1.0), SimDuration::from_nanos(100));
    }

    #[test]
    fn histogram_display_is_clone_free_and_caches_sort() {
        let mut h = Histogram::new();
        for ns in [5u64, 1, 3, 2, 4] {
            h.record(SimDuration::from_nanos(ns));
        }
        // Display works through a shared reference (no clone, no &mut).
        let shared: &Histogram = &h;
        let text = format!("{shared}");
        assert!(text.starts_with("n=5 "), "unexpected display: {text}");
        // The sort is cached: a later percentile query through &self agrees.
        assert_eq!(shared.percentile(0.5), SimDuration::from_nanos(3));
        // Recording again invalidates the cache.
        h.record(SimDuration::from_nanos(0));
        assert_eq!(h.percentile(0.0), SimDuration::ZERO);
        assert_eq!(h.percentile(1.0), SimDuration::from_nanos(5));
    }

    #[test]
    fn histogram_interpolated_quantiles() {
        let mut h = Histogram::new();
        for ns in 1..=100u64 {
            h.record(SimDuration::from_nanos(ns));
        }
        // R-7: h = q * (n - 1); midpoints interpolate between neighbours.
        assert_eq!(h.interpolated(0.0), 1.0);
        assert_eq!(h.interpolated(0.5), 50.5);
        assert_eq!(h.interpolated(1.0), 100.0);
        assert!((h.p99() - 99.01).abs() < 1e-9);
        let mut k = Histogram::new();
        for ns in 1..=1000u64 {
            k.record(SimDuration::from_nanos(ns));
        }
        assert!((k.p999() - 999.001).abs() < 1e-9);
    }

    #[test]
    fn histogram_interpolated_edge_cases() {
        let empty = Histogram::new();
        assert_eq!(empty.interpolated(0.5), 0.0);
        assert_eq!(empty.p999(), 0.0);
        let mut one = Histogram::new();
        one.record(SimDuration::from_nanos(42));
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(one.interpolated(q), 42.0);
        }
        let mut two = Histogram::new();
        two.record(SimDuration::from_nanos(10));
        two.record(SimDuration::from_nanos(20));
        assert_eq!(two.interpolated(0.5), 15.0);
        assert_eq!(two.interpolated(0.25), 12.5);
    }

    /// Interpolated quantiles are a pure function of the sample multiset:
    /// bitwise-identical across recording orders and query histories.
    #[test]
    fn histogram_interpolated_is_byte_stable() {
        let mut a = Histogram::new();
        for ns in [7u64, 3, 9, 1, 5, 8, 2, 6, 4] {
            a.record(SimDuration::from_nanos(ns));
        }
        let mut b = Histogram::new();
        for ns in 1..=9u64 {
            b.record(SimDuration::from_nanos(ns));
        }
        // Query one of the two first so their lazy-sort histories differ.
        let _ = a.percentile(0.5);
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.interpolated(q).to_bits(), b.interpolated(q).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn histogram_interpolated_rejects_bad_quantile() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(1));
        let _ = h.interpolated(-0.1);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn histogram_merge_combines_samples() {
        let mut a = Histogram::new();
        a.record(SimDuration::from_nanos(1));
        let mut b = Histogram::new();
        b.record(SimDuration::from_nanos(3));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.mean(), SimDuration::from_nanos(2));
    }

    /// Regression: the serialized form used to depend on whether a
    /// percentile/Display query had sorted the sample vector before
    /// serialization. The canonical form is insertion-order- and
    /// query-history-independent.
    #[test]
    fn histogram_serialization_is_byte_stable() {
        let mut by_insertion = Histogram::new();
        for ns in [5u64, 1, 3, 2, 4] {
            by_insertion.record(SimDuration::from_nanos(ns));
        }
        let mut queried_first = Histogram::new();
        for ns in [4u64, 2, 5, 1, 3] {
            queried_first.record(SimDuration::from_nanos(ns));
        }
        // Force the lazy sort on one of the two before serializing.
        let _ = queried_first.percentile(0.5);
        let a = serde_json::to_string(&by_insertion).unwrap();
        let b = serde_json::to_string(&queried_first).unwrap();
        assert_eq!(a, b, "identical data must serialize identically");
        // Serializing never perturbs later serializations either.
        assert_eq!(a, serde_json::to_string(&by_insertion).unwrap());
        assert_eq!(a, r#"{"samples":[1,2,3,4,5]}"#);
    }

    /// Round-trip through the canonical sample vector reproduces both the
    /// serialized bytes and every statistic.
    #[test]
    fn histogram_round_trips_through_canonical_form() {
        let mut h = Histogram::new();
        for ns in [99u64, 7, 7, 1_000_000, 0] {
            h.record(SimDuration::from_nanos(ns));
        }
        let restored = Histogram::from_nanos_samples(h.sorted_nanos());
        assert_eq!(
            serde_json::to_string(&h).unwrap(),
            serde_json::to_string(&restored).unwrap()
        );
        assert_eq!(h.len(), restored.len());
        assert_eq!(h.mean(), restored.mean());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), restored.percentile(q));
        }
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn histogram_rejects_bad_quantile() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(1));
        let _ = h.percentile(1.5);
    }
}
