//! `TrialFleet` — parallel fan-out of independent seeded trials.
//!
//! Every Monte Carlo experiment in this repro has the same shape: run
//! hundreds of independent trials of a [`crate::SimBuilder`]-built engine,
//! each with its own derived seed, and aggregate per-trial observations into
//! summary statistics. [`TrialFleet`] is that shape as a first-class layer:
//!
//! * **Seeding** — trial `i` always runs with
//!   [`derive_seed`]`(base_seed, i)`, so a fleet's per-trial seeds are a
//!   pure function of `(base_seed, trials)` and never depend on which
//!   thread executed which trial. No two trials of a fleet can share an RNG
//!   stream (see [`derive_seed`] for the injectivity argument).
//! * **Parallelism** — trials fan out over the vendored rayon's worker
//!   threads ([`rayon::current_num_threads`], overridable via the
//!   `RAYON_NUM_THREADS` environment variable). Each trial closure runs on
//!   exactly one worker; non-`Send` per-trial state (e.g. the `Rc`-based
//!   [`crate::DiscoveredProtocol`]) is simply constructed *inside* the
//!   closure.
//! * **Determinism** — aggregation is independent of thread count and chunk
//!   schedule. [`TrialFleet::run`] preserves trial order exactly.
//!   [`TrialFleet::run_stats`] folds observations into per-chunk
//!   [`FleetStats`] accumulators over a **fixed** chunk size (a property of
//!   the fleet, *not* of the thread count) and merges the chunk accumulators
//!   sequentially in ascending chunk order — so even the floating-point
//!   round-off pattern is bit-identical whether the fleet ran on 1, 2, or
//!   64 threads. CI pins this with a byte-for-byte diff of aggregated CSV
//!   output across forced thread counts.
//!
//! # Predicate granularity under concurrent trials
//!
//! Parallelism here is *across* trials; each trial's engine still runs
//! sequentially with its own RNG stream, so per-trial measurements (and
//! their predicate-granularity caveats — multi-batch epochs quantize
//! observed stabilization times regardless of threading) are exactly what a
//! lone [`crate::SimBuilder`] run would produce.

use rayon::prelude::*;
use serde::Serialize;

use crate::rng::derive_seed;

/// Default number of trials aggregated into one [`FleetStats`] accumulator
/// before merging. A fleet property, deliberately *not* derived from the
/// thread count: fixed chunking is what makes [`TrialFleet::run_stats`]
/// bit-identical across thread counts.
pub const DEFAULT_STATS_CHUNK: usize = 32;

/// Default capacity of the [`KsReservoir`] sorted-sample reservoir.
pub const DEFAULT_RESERVOIR_CAP: usize = 4096;

/// Streaming mean/variance accumulator (Welford's algorithm) with an exact
/// pairwise merge (Chan et al.), plus min/max.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for RunningStats {
    fn default() -> Self {
        Self::new()
    }
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    ///
    /// `a.merge(b)` equals pushing all of `b`'s observations after `a`'s up
    /// to floating-point round-off; merging is associative in the same
    /// approximate sense. The fleet always merges in ascending chunk order,
    /// which pins one specific round-off pattern.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator; 0 for fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// A merge-able sorted-sample reservoir for KS-style distribution checks.
///
/// Below its capacity the reservoir is exact: it holds the full sorted
/// sample. Above capacity it compresses deterministically to `cap` evenly
/// spaced order statistics of the sorted sample — a function of the merged
/// sample alone, so the result is independent of how observations were
/// chunked across threads as long as merges happen in a fixed order (which
/// [`TrialFleet::run_stats`] guarantees).
#[derive(Debug, Clone, Serialize)]
pub struct KsReservoir {
    cap: usize,
    values: Vec<f64>,
}

impl KsReservoir {
    /// An empty reservoir holding at most `cap` order statistics.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "reservoir capacity must be positive");
        KsReservoir {
            cap,
            values: Vec::new(),
        }
    }

    /// Records one observation (kept exact until a merge compresses).
    pub fn push(&mut self, value: f64) {
        let at = self.values.partition_point(|v| *v <= value);
        self.values.insert(at, value);
    }

    /// Merges another reservoir, then compresses to capacity if needed.
    pub fn merge(&mut self, other: &KsReservoir) {
        let mut merged = Vec::with_capacity(self.values.len() + other.values.len());
        let (mut i, mut j) = (0, 0);
        while i < self.values.len() && j < other.values.len() {
            if self.values[i] <= other.values[j] {
                merged.push(self.values[i]);
                i += 1;
            } else {
                merged.push(other.values[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.values[i..]);
        merged.extend_from_slice(&other.values[j..]);
        if merged.len() > self.cap {
            // Evenly spaced order statistics of the sorted merged sample:
            // index k of cap maps to position k·(len−1)/(cap−1), endpoints
            // included, so min and max always survive compression.
            let len = merged.len();
            merged = (0..self.cap)
                .map(|k| merged[k * (len - 1) / (self.cap - 1)])
                .collect();
        }
        self.values = merged;
    }

    /// The retained sorted sample (exact if never compressed).
    pub fn samples(&self) -> &[f64] {
        &self.values
    }

    /// Whether the reservoir still holds the complete sample.
    pub fn is_exact(&self) -> bool {
        self.values.len() <= self.cap
    }
}

/// Merge-able aggregate over a fleet's per-trial observations.
///
/// Tracks how many trials ran, how many produced an observation
/// (`successes` — e.g. trials that stabilized within budget), streaming
/// moments of the observed values, and a sorted-sample reservoir for
/// distribution-shape checks.
#[derive(Debug, Clone, Serialize)]
pub struct FleetStats {
    /// Trials aggregated (with or without an observation).
    pub trials: u64,
    /// Trials that produced an observation.
    pub successes: u64,
    /// Streaming moments of the observed values.
    pub value: RunningStats,
    /// Sorted-sample reservoir of the observed values.
    pub reservoir: KsReservoir,
}

impl Default for FleetStats {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetStats {
    /// An empty aggregate with the default reservoir capacity.
    pub fn new() -> Self {
        Self::with_reservoir_cap(DEFAULT_RESERVOIR_CAP)
    }

    /// An empty aggregate with an explicit reservoir capacity.
    pub fn with_reservoir_cap(cap: usize) -> Self {
        FleetStats {
            trials: 0,
            successes: 0,
            value: RunningStats::new(),
            reservoir: KsReservoir::new(cap),
        }
    }

    /// Records one trial's observation (`None` = the trial ran but produced
    /// no value, e.g. did not stabilize within budget).
    pub fn record(&mut self, observation: Option<f64>) {
        self.trials += 1;
        if let Some(value) = observation {
            self.successes += 1;
            self.value.push(value);
            self.reservoir.push(value);
        }
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &FleetStats) {
        self.trials += other.trials;
        self.successes += other.successes;
        self.value.merge(&other.value);
        self.reservoir.merge(&other.reservoir);
    }

    /// Fraction of trials that produced an observation (0 when empty).
    pub fn success_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// The retained sorted observation sample.
    pub fn samples(&self) -> &[f64] {
        self.reservoir.samples()
    }
}

/// A fleet of independent seeded trials fanned out across worker threads.
///
/// See the [module docs](self) for the seeding and determinism guarantees.
///
/// # Examples
///
/// ```
/// use ppsim::fleet::TrialFleet;
/// use ppsim::rng::derive_seed;
///
/// let fleet = TrialFleet::new(100, 0xBA5E);
/// // Trial seeds are a pure function of (base_seed, index):
/// assert_eq!(fleet.trial_seed(7), derive_seed(0xBA5E, 7));
/// // run() preserves trial order regardless of scheduling:
/// let seeds = fleet.run(|seed| seed);
/// assert_eq!(seeds[7], fleet.trial_seed(7));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TrialFleet {
    trials: usize,
    base_seed: u64,
    stats_chunk: usize,
}

impl TrialFleet {
    /// A fleet of `trials` trials derived from `base_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    pub fn new(trials: usize, base_seed: u64) -> Self {
        assert!(trials > 0, "a fleet needs at least one trial");
        TrialFleet {
            trials,
            base_seed,
            stats_chunk: DEFAULT_STATS_CHUNK,
        }
    }

    /// Overrides the fixed aggregation chunk size used by
    /// [`run_stats`](Self::run_stats). Changing it changes the (still
    /// deterministic) floating-point round-off pattern, so treat it as part
    /// of a result's identity.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn stats_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "stats chunk must be positive");
        self.stats_chunk = chunk;
        self
    }

    /// Number of trials.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The base seed.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The seed trial `index` runs with: [`derive_seed`]`(base_seed, index)`.
    pub fn trial_seed(&self, index: usize) -> u64 {
        derive_seed(self.base_seed, index as u64)
    }

    /// Runs every trial across the worker threads, returning the per-trial
    /// results **in trial order**.
    ///
    /// The closure receives the trial's derived seed and must be pure up to
    /// its own RNG: results must not depend on execution order (the
    /// trial-index audit in the equivalence suites exists to catch
    /// violations).
    pub fn run<R, F>(&self, trial: F) -> Vec<R>
    where
        R: Send,
        F: Fn(u64) -> R + Sync,
    {
        self.run_indexed(|_, seed| trial(seed))
    }

    /// Like [`run`](Self::run), but the closure also receives the trial
    /// index (useful for per-trial labels in assertion messages).
    pub fn run_indexed<R, F>(&self, trial: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, u64) -> R + Sync,
    {
        (0..self.trials)
            .into_par_iter()
            .map(|index| trial(index, self.trial_seed(index)))
            .collect()
    }

    /// Runs every trial and aggregates observations into a single
    /// [`FleetStats`], bit-identical across thread counts.
    ///
    /// Trials are grouped into fixed-size chunks (see
    /// [`stats_chunk`](Self::stats_chunk)); each chunk folds its
    /// observations locally in trial order, and the chunk aggregates are
    /// merged sequentially in ascending chunk order. Both the grouping and
    /// the merge order are independent of the thread count, so the result —
    /// including floating-point round-off — is too.
    pub fn run_stats<F>(&self, observe: F) -> FleetStats
    where
        F: Fn(u64) -> Option<f64> + Sync,
    {
        let chunk = self.stats_chunk;
        let ranges: Vec<(usize, usize)> = (0..self.trials.div_ceil(chunk))
            .map(|c| (c * chunk, ((c + 1) * chunk).min(self.trials)))
            .collect();
        let per_chunk: Vec<FleetStats> = ranges
            .into_par_iter()
            .map(|(start, end)| {
                let mut acc = FleetStats::new();
                for index in start..end {
                    acc.record(observe(self.trial_seed(index)));
                }
                acc
            })
            .collect();
        // Sequential in-order merge: the only place compression/round-off
        // happens, and it sees the chunks in the same order every run.
        let mut total = FleetStats::new();
        for acc in &per_chunk {
            total.merge(acc);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_stats(fleet: &TrialFleet, observe: impl Fn(u64) -> Option<f64>) -> FleetStats {
        let mut acc = FleetStats::new();
        for i in 0..fleet.trials() {
            acc.record(observe(fleet.trial_seed(i)));
        }
        acc
    }

    fn synthetic(seed: u64) -> Option<f64> {
        // A deterministic pseudo-observation with some failures mixed in.
        if seed % 7 == 0 {
            None
        } else {
            Some((seed % 1000) as f64 + (seed % 13) as f64 / 13.0)
        }
    }

    #[test]
    fn run_preserves_trial_order_and_seeds() {
        let fleet = TrialFleet::new(250, 0xF1EE7);
        let out = fleet.run_indexed(|index, seed| (index, seed));
        for (i, (index, seed)) in out.iter().enumerate() {
            assert_eq!(*index, i);
            assert_eq!(*seed, derive_seed(0xF1EE7, i as u64));
        }
    }

    #[test]
    fn fleet_trial_seeds_are_all_distinct() {
        let fleet = TrialFleet::new(10_000, 0xBA7C_4ED0);
        let mut seeds: Vec<u64> = (0..fleet.trials()).map(|i| fleet.trial_seed(i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 10_000, "two trials would share an RNG stream");
    }

    #[test]
    fn running_stats_matches_naive_formulas() {
        let values = [3.5, -1.0, 0.0, 7.25, 2.125, 9.0];
        let mut acc = RunningStats::new();
        for v in values {
            acc.push(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var =
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
        assert!((acc.mean() - mean).abs() < 1e-12);
        assert!((acc.sample_variance() - var).abs() < 1e-12);
        assert_eq!(acc.min(), -1.0);
        assert_eq!(acc.max(), 9.0);
        assert_eq!(acc.count(), 6);
    }

    #[test]
    fn running_stats_merge_equals_single_pass() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 50.0).collect();
        let mut whole = RunningStats::new();
        for v in &values {
            whole.push(*v);
        }
        for split in [1, 13, 50, 99] {
            let (left, right) = values.split_at(split);
            let mut a = RunningStats::new();
            let mut b = RunningStats::new();
            left.iter().for_each(|v| a.push(*v));
            right.iter().for_each(|v| b.push(*v));
            a.merge(&b);
            assert_eq!(a.count(), whole.count());
            assert!((a.mean() - whole.mean()).abs() < 1e-9);
            assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-9);
            assert_eq!(a.min(), whole.min());
            assert_eq!(a.max(), whole.max());
        }
    }

    #[test]
    fn merging_empty_stats_is_identity() {
        let mut acc = RunningStats::new();
        acc.push(4.0);
        let before = acc;
        acc.merge(&RunningStats::new());
        assert_eq!(acc.count(), before.count());
        assert_eq!(acc.mean(), before.mean());
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 4.0);
    }

    #[test]
    fn reservoir_is_exact_below_cap_and_keeps_extremes_above() {
        let mut r = KsReservoir::new(8);
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            r.push(v);
        }
        assert!(r.is_exact());
        assert_eq!(r.samples(), &[1.0, 2.0, 3.0, 4.0, 5.0]);

        let mut big = KsReservoir::new(8);
        for v in 0..100 {
            big.push(v as f64);
        }
        let mut other = KsReservoir::new(8);
        other.push(-7.0);
        other.push(200.0);
        big.merge(&other);
        assert_eq!(big.samples().len(), 8);
        assert_eq!(big.samples()[0], -7.0, "min must survive compression");
        assert_eq!(big.samples()[7], 200.0, "max must survive compression");
        assert!(big.samples().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn run_stats_equals_sequential_aggregation_bitwise() {
        let fleet = TrialFleet::new(333, 0x5EED);
        let parallel = fleet.run_stats(synthetic);
        // run_stats with chunking equals the same chunked fold done by hand,
        // and the fixed chunk size makes repeated runs bit-identical.
        let again = fleet.run_stats(synthetic);
        assert_eq!(parallel.trials, again.trials);
        assert_eq!(parallel.successes, again.successes);
        assert_eq!(
            parallel.value.mean().to_bits(),
            again.value.mean().to_bits()
        );
        assert_eq!(
            parallel.value.sample_variance().to_bits(),
            again.value.sample_variance().to_bits()
        );
        assert_eq!(parallel.samples(), again.samples());

        // And it agrees with a plain sequential single-pass fold up to
        // round-off (the chunked merge reassociates float additions).
        let sequential = seq_stats(&fleet, synthetic);
        assert_eq!(parallel.trials, sequential.trials);
        assert_eq!(parallel.successes, sequential.successes);
        assert!((parallel.value.mean() - sequential.value.mean()).abs() < 1e-9);
        assert!(
            (parallel.value.sample_variance() - sequential.value.sample_variance()).abs() < 1e-6
        );
        assert_eq!(parallel.value.min(), sequential.value.min());
        assert_eq!(parallel.value.max(), sequential.value.max());
    }

    #[test]
    fn run_stats_is_bitwise_identical_across_forced_thread_counts() {
        let fleet = TrialFleet::new(200, 0xD00D);
        let reference = fleet.run_stats(synthetic);
        for threads in [1usize, 2, 4, 9] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let run = pool.install(|| fleet.run_stats(synthetic));
            assert_eq!(run.trials, reference.trials, "{threads} threads");
            assert_eq!(run.successes, reference.successes, "{threads} threads");
            assert_eq!(
                run.value.mean().to_bits(),
                reference.value.mean().to_bits(),
                "{threads} threads"
            );
            assert_eq!(
                run.value.sample_variance().to_bits(),
                reference.value.sample_variance().to_bits(),
                "{threads} threads"
            );
            assert_eq!(run.samples(), reference.samples(), "{threads} threads");
        }
    }

    #[test]
    fn fleet_stats_counts_failures() {
        let mut acc = FleetStats::new();
        acc.record(Some(1.0));
        acc.record(None);
        acc.record(Some(3.0));
        assert_eq!(acc.trials, 3);
        assert_eq!(acc.successes, 2);
        assert!((acc.success_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(acc.samples(), &[1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn empty_fleet_rejected() {
        let _ = TrialFleet::new(0, 1);
    }
}
