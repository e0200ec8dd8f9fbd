//! The reproduction's benchmark: one command, four seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <elect-agent|elect-count|epidemic|service> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! runs the same work twice, untraced and traced, and reports the per-layer
//! metrics, the tracing overhead, and whether the two passes produced the
//! same deterministic fingerprint. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `perfbench/README.md` describes the workloads and every metric.

mod elect;
mod epidemic;
mod report;
mod service;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use ppsim::TrialFleet;

use report::{median, result_json, tail, Outcome, END_TO_END, PER_LAYER};
use trace::Trace;

/// Problem sizes: `Full` is the benchmark, `Tiny` the smoke test's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The generated inputs of one run: everything derives from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// The requested run length. Each workload turns it into a fixed amount
    /// of work (see `Plan::units`), so a run's sample mix never depends on
    /// the host's speed.
    pub seconds: f64,
    pub size: Size,
}

impl Plan {
    /// Units of work (fleet rounds, service groups) for `seconds` at
    /// `per_s` units per second, and at least `min`.
    pub fn units(&self, per_s: f64, min: usize) -> usize {
        ((self.seconds * per_s).round() as usize).max(min)
    }
}

/// Fleet rounds: each round's results in trial order, its size and fleet wall
/// time, and set-up samples.
pub struct Rounds<R> {
    pub results: Vec<R>,
    pub walls: Vec<(usize, f64)>,
    pub setup_samples: Vec<f64>,
}

/// Runs `count` fleet rounds. Round `i` comes from `round(i)`; `trial` gets
/// an item, its seed and its global trial index. Before each round, outside
/// the fleet's wall time, `setup` is sampled for `SETUP_ROUND_BUDGET_S`:
/// spreading the samples over the whole run makes their median see the same
/// host as the throughput does.
pub fn run_rounds<T: Sync, R: Send>(
    count: usize,
    setup: impl Fn() -> f64,
    round: impl Fn(usize) -> (TrialFleet, Vec<T>),
    trial: impl Fn(&T, u64, u64) -> R + Sync,
) -> Rounds<R> {
    let mut rounds = Rounds {
        results: Vec::new(),
        walls: Vec::new(),
        setup_samples: Vec::new(),
    };
    for index in 0..count {
        rounds
            .setup_samples
            .extend(sample_setup(&setup, SETUP_ROUND_BUDGET_S));
        let (fleet, items) = round(index);
        let offset = rounds.results.len() as u64;
        let fleet_start = Instant::now();
        let done = fleet.run_indexed(|i, seed| trial(&items[i], seed, offset + i as u64));
        rounds
            .walls
            .push((done.len(), fleet_start.elapsed().as_secs_f64()));
        rounds.results.extend(done);
    }
    rounds
}

/// Times `setup` at least `SETUP_MIN_REPS` times, then again until
/// `budget_s` has passed or `SETUP_MAX_REPS` samples exist.
pub fn sample_setup(setup: impl Fn() -> f64, budget_s: f64) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_MIN_REPS
        || (samples.len() < SETUP_MAX_REPS && started.elapsed().as_secs_f64() < budget_s)
    {
        samples.push(setup());
    }
    samples
}

/// Worker and client threads: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Set-up sampling: at least `SETUP_MIN_REPS` samples per window, at most
/// `SETUP_MAX_REPS`. Fleet workloads sample a short window before every
/// round, `service` before each part of its closed loop.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 200;
pub const SETUP_ROUND_BUDGET_S: f64 = 0.02;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ElectAgent,
    ElectCount,
    Epidemic,
    Service,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ElectAgent,
        Workload::ElectCount,
        Workload::Epidemic,
        Workload::Service,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ElectAgent => "elect-agent",
            Workload::ElectCount => "elect-count",
            Workload::Epidemic => "epidemic",
            Workload::Service => "service",
        }
    }

    fn run(self, plan: &Plan, trace: Option<&mut Trace>) -> Outcome {
        match self {
            Workload::ElectAgent => elect::run_agent(plan, trace),
            Workload::ElectCount => elect::run_count(plan, trace),
            Workload::Epidemic => epidemic::run(plan, trace),
            Workload::Service => service::run(plan, trace),
        }
    }

    /// The workload's own name for `jobs_per_s`, where it has one.
    fn throughput_alias(self) -> Option<&'static str> {
        match self {
            Workload::ElectAgent | Workload::ElectCount => Some("trials_per_s"),
            Workload::Epidemic => Some("runs_per_s"),
            Workload::Service => None,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn peak_rss_mib() -> f64 {
    ppsim::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Prints the human-readable report of an untraced pass and returns the
/// end-to-end metrics.
fn end_to_end(
    workload: Workload,
    setup_s: f64,
    out: &Outcome,
) -> Vec<(&'static str, f64, &'static str)> {
    let jobs_per_s = out.units_per_s();
    let (tail_ms, tail_pct, samples, parts) = out.job_tail();
    let values = [
        setup_s,
        jobs_per_s,
        out.interactions_per_s(),
        median(&out.job_ms),
        tail_ms,
        peak_rss_mib(),
    ];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    println!("fingerprint {}", out.fingerprint.render());
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    if let Some(alias) = workload.throughput_alias() {
        println!("{alias} = {jobs_per_s} 1/s");
    }
    for (name, value, unit) in &out.extras {
        println!("{name} = {value} {unit}");
    }
    if parts == 1 {
        println!("job_tail_ms is p{tail_pct:.2} of {samples} samples");
    } else {
        let (all_ms, all_pct, all_samples) = tail(&out.job_ms);
        println!(
            "job_tail_ms is the median over {parts} parts of each part's \
             p{tail_pct:.2} of {samples} samples; over all jobs, \
             p{all_pct:.2} of {all_samples} samples is {all_ms} ms"
        );
    }
    println!(
        "failed_ratio = {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    metrics
}

/// Writes the traced pass's spans beside the checkout's build output.
fn write_trace(trace: &Trace, seed: u64) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-seed{seed}.jsonl", trace.workload));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace.to_jsonl())) {
        Ok(()) => println!("spans: {} written to {}", trace.spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <elect-agent|elect-count|epidemic|service> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds as f64,
        size: Size::Full,
    };
    println!(
        "workload {} seed {} seconds {} threads {} nproc {}",
        workload.name(),
        plan.seed,
        plan.seconds,
        rayon::current_num_threads(),
        nproc()
    );
    let plain = workload.run(&plan, None);
    let setup_s = median(&plain.setup_samples);
    let (correct, attempted, failed, metrics) = if args.trace {
        let mut trace = Trace::new(workload.name());
        let mut traced = workload.run(&plan, Some(&mut trace));
        let matched = plain.fingerprint.fields == traced.fingerprint.fields;
        println!("untraced fingerprint {}", plain.fingerprint.render());
        println!("traced   fingerprint {}", traced.fingerprint.render());
        // Both passes run the same jobs. Their summed job times are compared
        // with the time spent in code the passes run differently left out.
        let (traced_s, plain_s) = (traced.compared_job_s(), plain.compared_job_s());
        let layers = &mut traced.layers;
        layers.insert("ppsim.telemetry.overhead", traced_s / plain_s - 1.0);
        layers.insert("bench.traced_job_s", traced_s);
        layers.insert("bench.untraced_job_s", plain_s);
        layers.insert("bench.fingerprint_match", f64::from(u8::from(matched)));
        let metrics: Vec<_> = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        for (name, value, unit) in &metrics {
            println!("{name} = {value} {unit}");
        }
        write_trace(&trace, plan.seed);
        let correct = plain.failed == 0 && traced.failed == 0 && matched;
        (correct, traced.attempted, traced.failed, metrics)
    } else {
        let metrics = end_to_end(workload, setup_s, &plain);
        (plain.failed == 0, plain.attempted, plain.failed, metrics)
    };
    println!("{}", result_json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny-size smoke of every workload: set-up, an untraced and a traced
    /// pass, no failures, and fingerprints that agree between the passes.
    #[test]
    fn every_workload_runs_at_tiny_size() {
        for workload in Workload::ALL {
            let plan = Plan {
                seed: 7,
                seconds: 0.0,
                size: Size::Tiny,
            };
            let plain = workload.run(&plan, None);
            assert!(median(&plain.setup_samples) > 0.0, "{}", workload.name());
            let mut trace = Trace::new(workload.name());
            let traced = workload.run(&plan, Some(&mut trace));
            let name = workload.name();
            assert!(plain.attempted > 0, "{name}");
            assert_eq!(plain.failed, 0, "{name}");
            assert_eq!(traced.failed, 0, "{name}");
            assert!(plain.interactions > 0, "{name}");
            assert_eq!(
                plain.fingerprint.fields, traced.fingerprint.fields,
                "{name}"
            );
            assert!(!trace.spans.is_empty(), "{name}");
            assert!(
                traced
                    .layers
                    .keys()
                    .all(|k| PER_LAYER.iter().any(|(n, _)| n == k)),
                "{name}"
            );
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let parsed = args("--workload epidemic --seed 3 --seconds 5 --trace 1").unwrap();
        assert_eq!(parsed.workload, Workload::Epidemic);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (3, 5, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload service --trace 2").is_err());
    }
}
