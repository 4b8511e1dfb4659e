//! Thread-safe metric primitives and the registry holding them.
//!
//! Metrics are keyed by `&'static str` names, dot-namespaced by
//! convention (`warts.traces`, `probe.sent`). Handles are `Arc`s so a
//! hot loop can increment without re-hitting the registry lock; the
//! atomics themselves are lock-free.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, retained LSPs).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a zeroed gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of fixed buckets in a [`Histogram`]: values `0..=14` count
/// exactly, everything larger lands in the overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A small-integer histogram (label-stack depths, hop counts).
///
/// Values `v < 15` are counted in bucket `v`; larger values share the
/// final overflow bucket. That fixed shape keeps observation lock-free.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&self, value: usize) {
        let idx = value.min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Per-bucket counts; index 15 is the `>= 15` overflow bucket.
    pub fn snapshot(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.snapshot().iter().sum()
    }
}

/// A named collection of metrics.
///
/// `counter`/`gauge`/`histogram` get-or-create: asking twice for the
/// same name returns handles to the same underlying atomic.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter registry poisoned");
        Arc::clone(map.entry(name).or_default())
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge registry poisoned");
        Arc::clone(map.entry(name).or_default())
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry poisoned");
        Arc::clone(map.entry(name).or_default())
    }

    /// Current counter values, sorted by name.
    pub fn counter_values(&self) -> BTreeMap<String, u64> {
        let map = self.counters.lock().expect("counter registry poisoned");
        map.iter().map(|(k, v)| (k.to_string(), v.get())).collect()
    }

    /// Current gauge values, sorted by name.
    pub fn gauge_values(&self) -> BTreeMap<String, i64> {
        let map = self.gauges.lock().expect("gauge registry poisoned");
        map.iter().map(|(k, v)| (k.to_string(), v.get())).collect()
    }

    /// Current histogram buckets, sorted by name.
    pub fn histogram_values(&self) -> BTreeMap<String, Vec<u64>> {
        let map = self.histograms.lock().expect("histogram registry poisoned");
        map.iter().map(|(k, v)| (k.to_string(), v.snapshot().to_vec())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_get_or_create() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert_eq!(reg.counter_values().get("x"), Some(&3));
    }

    #[test]
    fn gauges_go_both_ways() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(3);
        h.observe(3);
        h.observe(99);
        let snap = h.snapshot();
        assert_eq!(snap[0], 1);
        assert_eq!(snap[3], 2);
        assert_eq!(snap[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let reg = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("hot");
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("hot").get(), 80_000);
    }
}
