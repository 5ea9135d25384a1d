//! A small, heap-free metrics registry for the simulator: counters,
//! gauges, and power-of-two histograms, split into two planes:
//!
//! * **Model-domain** ([`ModelMetrics`]) — words routed, spill words,
//!   readiness waits, region sizes. Derived purely from the simulated
//!   cost model, so they are bit-deterministic: identical at every host
//!   pool width.
//! * **Host-time** ([`HostMetrics`]) — route vs compute vs spill
//!   wall-clock. Informational only; never gated, never part of
//!   [`ExecutionTrace`](crate::ExecutionTrace) equality.
//!
//! Every instrument is a plain inline value (no interior mutability, no
//! heap), updated by the cluster's bookkeeping step — cheap enough to be
//! always on, and trivially allocation-free for the counting-allocator
//! pins.

/// A monotone event/quantity counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Adds `v` to the counter.
    #[inline]
    pub fn add(&mut self, v: u64) {
        self.0 += v;
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// A floating-point gauge (used for accumulated host seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauge(f64);

impl Gauge {
    /// Adds `v` to the gauge.
    #[inline]
    pub fn add(&mut self, v: f64) {
        self.0 += v;
    }

    /// Sets the gauge.
    pub fn set(&mut self, v: f64) {
        self.0 = v;
    }

    /// Current value.
    pub fn get(self) -> f64 {
        self.0
    }
}

/// Number of histogram buckets: bucket `i < 16` counts values whose
/// bit-length is `i` (i.e. `v == 0` → bucket 0, else `floor(log2 v)+1`),
/// and the last bucket absorbs everything `>= 2^15`.
pub const HISTOGRAM_BUCKETS: usize = 17;

/// A power-of-two-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Histogram {
    /// Bucket index for a sample.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The bucket counts (see [`HISTOGRAM_BUCKETS`]).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

/// Deterministic model-domain metrics: pure functions of the simulated
/// execution, identical across pool widths.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelMetrics {
    /// Total words moved across the network (all machines, all rounds).
    pub words_routed: Counter,
    /// Total words written to spill files.
    pub spill_words: Counter,
    /// Number of (machine, round) pairs that would idle at a barrier
    /// (`stall > 0`) — the waits a dependency-pipelined host could
    /// overlap.
    pub readiness_waits: Counter,
    /// Total barrier idle cost, in model units (the sum behind
    /// `CriticalPath::barrier_stall`).
    pub stall_words: Counter,
    /// Distribution of per-machine inbox region sizes (words), one
    /// sample per machine per round.
    pub region_words: Histogram,
}

/// Informational host-time metrics (seconds). Never deterministic,
/// never gated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostMetrics {
    /// Wall-clock spent routing (layout + placement).
    pub route_s: Gauge,
    /// Wall-clock spent in machine compute bodies.
    pub compute_s: Gauge,
    /// Wall-clock spent on spill-file I/O.
    pub spill_s: Gauge,
}

/// One round's host wall-clock, split by phase (seconds). Informational:
/// host- and thread-count-dependent, never part of trace equality.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostPhase {
    /// Wall-clock of the round's compute sweep (under fault recovery,
    /// plus the checkpoint and straggler delays that precede it).
    pub compute_s: f64,
    /// Wall-clock of the route: layout + placement.
    pub route_s: f64,
    /// Wall-clock of spill-file I/O performed during the round.
    pub spill_s: f64,
}

/// The cluster's metrics registry: one [`ModelMetrics`] plane and one
/// [`HostMetrics`] plane, updated once per round by the bookkeeping
/// step. Obtain it via `Cluster::metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricsRegistry {
    /// The deterministic plane.
    pub model: ModelMetrics,
    /// The informational plane.
    pub host: HostMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_accumulate() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::default();
        g.add(0.25);
        g.add(0.5);
        assert!((g.get() - 0.75).abs() < 1e-12);
        g.set(2.0);
        assert!((g.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(1 << 10); // bucket 11
        h.record(1 << 40); // clamped to the last bucket
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 6 + (1 << 10) + (1 << 40));
        let b = h.buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[1], 1);
        assert_eq!(b[2], 2);
        assert_eq!(b[11], 1);
        assert_eq!(b[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        h.record(2);
        h.record(4);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn registry_defaults_to_zero() {
        let r = MetricsRegistry::default();
        assert_eq!(r.model.words_routed.get(), 0);
        assert_eq!(r.model.region_words.count(), 0);
        assert_eq!(r.host.route_s.get(), 0.0);
    }
}
