//! What a workload run reports, and how it is printed.

use std::collections::BTreeMap;

use ppsim::{Fnv64, TelemetryReport};

/// The end-to-end metrics of every workload, in output order, with units.
/// `BENCHMARK.json` lists the same names (a test keeps the two in step).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("interactions_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics of the traced run, in output order, with units. A
/// workload that bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("ssle_core.interact.ns", "ns"),
    ("ssle_core.interact.calls", "count"),
    ("ssle_core.verify.ns", "ns"),
    ("ssle_core.verify.calls", "count"),
    ("ssle_core.ranking.ns", "ns"),
    ("ssle_core.ranking.calls", "count"),
    ("ssle_core.reset.ns", "ns"),
    ("ssle_core.reset.calls", "count"),
    ("ssle_core.pair_support.ns", "ns"),
    ("ssle_core.pair_support.calls", "count"),
    ("ssle_core.pair_support.calls_per_interaction", "ratio"),
    ("ssle_core.output.ns", "ns"),
    ("ssle_core.output.calls", "count"),
    ("ssle_core.output.share", "ratio"),
    ("ppsim.simulation.self_ns_per_interaction", "ns"),
    ("ppsim.indexer.interned_states", "count"),
    ("ppsim.indexer.states_per_interaction", "ratio"),
    ("ppsim.indexer.memo_hit_ratio", "ratio"),
    ("ppsim.indexer.cached_supports", "count"),
    ("ppsim.batched.ns_per_interaction", "ns"),
    ("ppsim.batched.fenwick_updates", "count"),
    ("ppsim.batched.silent_skipped_ratio", "ratio"),
    ("ppsim.multibatch.ns_per_interaction", "ns"),
    ("ppsim.multibatch.epochs", "count"),
    ("ppsim.multibatch.epoch_len_per_sqrt_n", "ratio"),
    ("ppsim.multibatch.blind_ratio", "ratio"),
    ("ppsim.engine.auto_ns_per_interaction", "ns"),
    ("ppsim.engine.handoffs", "count"),
    ("ppsim.fleet.busy_fraction", "ratio"),
    ("ppsim.fleet.threads", "count"),
    ("ppsim.telemetry.overhead", "ratio"),
    ("ssle_client.submit_ms", "ms"),
    ("ssle_client.poll_ms", "ms"),
    ("ssle_client.polls_per_job", "ratio"),
    ("ssle_client.result_ms", "ms"),
    ("ssle_client.miss_p50_ms", "ms"),
    ("ssle_client.hit_p50_ms", "ms"),
    ("ssle_server.cache_hit_ratio", "ratio"),
    ("ssle_server.jobs_completed", "count"),
    ("analysis.service.run_job_ms", "ms"),
    ("analysis.service.overhead_ms", "ms"),
    ("bench.traced_job_s", "s"),
    ("bench.untraced_job_s", "s"),
    ("bench.fingerprint_match", "bool"),
];

/// The deterministic fingerprint of a run: counts and digests that are pure
/// functions of the seed and the code.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Fields both the untimed and the traced pass produce.
    pub fields: Vec<(&'static str, u64)>,
    /// Fields only the traced pass has, because they come from
    /// `ppsim::Telemetry` counters (tracing is off in the untraced pass).
    pub traced_only: Vec<(&'static str, u64)>,
}

impl Fingerprint {
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| {
                if k.ends_with("digest") {
                    format!("{k}={}", ppsim::digest::hex16(*v))
                } else {
                    format!("{k}={v}")
                }
            })
            .collect();
        parts.extend(self.traced_only.iter().map(|(k, v)| format!("{k}={v}")));
        parts.join(" ")
    }
}

/// FNV digest of a sequence of words, in order.
pub fn digest_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut digest = Fnv64::new();
    for word in words {
        digest.write_u64(word);
    }
    digest.finish()
}

/// Adds `report` (if any) into `total`, in trial order.
pub fn merge_into(total: &mut Option<TelemetryReport>, report: Option<&TelemetryReport>) {
    if let Some(report) = report {
        match total {
            Some(total) => total.merge(report),
            None => *total = Some(report.clone()),
        }
    }
}

/// One fleet round, or for `service` the whole closed loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    pub units: u64,
    pub interactions: u64,
    pub wall_s: f64,
}

/// Everything one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work attempted (trials, epidemic runs, service jobs).
    pub attempted: u64,
    /// Units that failed: no stabilization, wrong output, incomplete
    /// epidemic, or a service job that failed or returned other bytes.
    pub failed: u64,
    /// Wall time of each unit, in milliseconds, in completion order.
    pub job_ms: Vec<f64>,
    /// The same times split into the parts of a run whose tail is taken part
    /// by part (`service`); empty when the tail is taken over all jobs.
    pub tail_parts: Vec<Vec<f64>>,
    /// Simulated interactions the units carried.
    pub interactions: u64,
    /// The measured loop, round by round.
    pub rounds: Vec<Round>,
    /// Set-up times in seconds (see `setup_s`).
    pub setup_samples: Vec<f64>,
    /// Time inside the jobs, in milliseconds, spent in code that the
    /// untraced and traced passes run differently (`elect-count`'s
    /// predicate); left out of `ppsim.telemetry.overhead`.
    pub excluded_ms: f64,
    pub fingerprint: Fingerprint,
    /// Metrics only this workload has, printed on the report lines.
    pub extras: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced pass only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Units completed per second over the measured loop.
    pub fn units_per_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.units).sum::<u64>() as f64 / self.wall_s()
    }

    /// Simulated interactions per second over the measured loop.
    pub fn interactions_per_s(&self) -> f64 {
        let interactions: u64 = self.rounds.iter().map(|r| r.interactions).sum();
        interactions as f64 / self.wall_s()
    }

    /// Wall time of the measured loop.
    pub fn wall_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall_s).sum()
    }

    /// `job_tail_ms`: the tail of all jobs, or, for a run split into parts,
    /// the median of the parts' tails. Returns the value, the percentile, the
    /// samples it was taken over (for parts, the medians over the parts) and
    /// the number of parts (1 for all jobs).
    pub fn job_tail(&self) -> (f64, f64, usize, usize) {
        if self.tail_parts.is_empty() {
            let (ms, pct, samples) = tail(&self.job_ms);
            return (ms, pct, samples, 1);
        }
        let tails: Vec<(f64, f64, usize)> = self.tail_parts.iter().map(|p| tail(p)).collect();
        let middle =
            |f: fn(&(f64, f64, usize)) -> f64| median(&tails.iter().map(f).collect::<Vec<f64>>());
        (
            middle(|t| t.0),
            middle(|t| t.1),
            middle(|t| t.2 as f64) as usize,
            tails.len(),
        )
    }

    /// Summed job time in seconds, less `excluded_ms`: what the tracing
    /// overhead compares between the passes.
    pub fn compared_job_s(&self) -> f64 {
        (self.job_ms.iter().sum::<f64>() - self.excluded_ms) / 1e3
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it: returns the
/// value, the percentile, and the sample count. With fewer than 11 samples
/// no percentile qualifies and the maximum is reported as percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let n = values.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n < 11 {
        return (sorted[n - 1], 100.0, n);
    }
    let index = n - 11;
    (sorted[index], 100.0 * (index + 1) as f64 / n as f64, n)
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric with its value and unit.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&values);
        assert_eq!((value, pct, n), (90.0, 90.0, 100));
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100.0, 2));
    }

    #[test]
    fn tail_of_parts_is_the_median_of_their_tails() {
        let part = |base: f64| (0..22).map(|i| base + f64::from(i)).collect::<Vec<f64>>();
        let outcome = Outcome {
            tail_parts: vec![part(0.0), part(100.0), part(1000.0)],
            ..Outcome::default()
        };
        // Each part's tail is its 12th value of 22 (p54.55): 11, 111, 1011.
        assert_eq!(outcome.job_tail(), (111.0, 100.0 * 12.0 / 22.0, 22, 3));
        let whole = Outcome {
            job_ms: part(0.0),
            ..Outcome::default()
        };
        assert_eq!(whole.job_tail(), (11.0, 100.0 * 12.0 / 22.0, 22, 1));
    }

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// The metric names here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap_or_default().to_string())
                .collect()
        };
        let names = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(section("end_to_end"), names(&END_TO_END));
        assert_eq!(section("per_layer"), names(&PER_LAYER));
    }
}
