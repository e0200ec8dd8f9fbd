//! The `epidemic` workload: `OneWayEpidemic` to full infection under the
//! count engines alone (no protocol cost, no interner).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ppsim::epidemic::{OneWayEpidemic, INFORMED};
use ppsim::rng::derive_seed;
use ppsim::telemetry::{Counter, SpanKind};
use ppsim::{CountConfiguration, EngineKind, SimBuilder, Telemetry, TelemetryReport, TrialFleet};

use crate::report::{digest_words, median, merge_into, Fingerprint, Outcome, Round};
use crate::trace::{close_root, ns_since, SpanLog, Trace};
use crate::{run_rounds, Plan, Rounds, Size};

/// Rounds per requested second: a round takes about 5 s on a 2-vCPU host.
/// The count is fixed so that every run holds the same mix of legs, and the
/// job percentiles fall on the same leg's runs whatever the host's speed.
const ROUNDS_PER_S: f64 = 0.3;

/// The legs of one round: engine tier and population, each twice. The
/// fleet's two threads take them in order, so one ends up with Auto,
/// multi-batch, batched and the other with multi-batch, batched, Auto:
/// equal work, and a round ends with both threads busy.
fn legs(size: Size) -> Vec<(EngineKind, usize)> {
    let (large, small) = match size {
        Size::Full => (100_000_000, 10_000_000),
        Size::Tiny => (10_000, 1_000),
    };
    let round = [
        (EngineKind::Auto, large),
        (EngineKind::MultiBatch, large),
        (EngineKind::Batched, small),
    ];
    round.iter().chain(&round).copied().collect()
}

/// The report-line name of a leg's median run time.
fn leg_p50_name(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Auto => "auto_p50_ms",
        EngineKind::MultiBatch => "multibatch_p50_ms",
        EngineKind::Batched => "batched_p50_ms",
        EngineKind::PerStep => "per_step_p50_ms",
    }
}

fn all_informed(c: &CountConfiguration) -> bool {
    c.count(INFORMED) == c.population()
}

/// A generous completion budget: `50 · n ln n` interactions, about 25 times
/// the expected completion time.
fn budget(n: usize) -> u64 {
    let nf = n as f64;
    (50.0 * nf * nf.ln().max(1.0)).ceil() as u64
}

#[derive(Debug, Default)]
struct RunOut {
    completed_at: Option<u64>,
    ok: bool,
    ms: f64,
    handoffs: u64,
    /// Auto leg only: the `run_until` span, for ns per interaction.
    auto_ns: u64,
    telemetry: Option<TelemetryReport>,
    log: SpanLog,
}

fn builder(
    kind: EngineKind,
    n: usize,
    seed: u64,
    telemetry: &Telemetry,
) -> SimBuilder<OneWayEpidemic> {
    SimBuilder::new(OneWayEpidemic::new(n, 1))
        .kind(kind)
        .seed(seed)
        .telemetry(telemetry.clone())
}

/// Set-up of the first round: the fleet and every leg's engine, built one
/// after another as in `elect::agent_setup`.
pub fn setup(plan: &Plan) -> f64 {
    let started = Instant::now();
    let legs = legs(plan.size);
    let fleet = TrialFleet::new(legs.len(), round_seed(plan, 0));
    for (i, &(kind, n)) in legs.iter().enumerate() {
        let b = builder(kind, n, fleet.trial_seed(i), &Telemetry::disabled());
        if kind == EngineKind::Auto {
            black_box(b.build_adaptive());
        } else {
            black_box(b.build());
        }
    }
    started.elapsed().as_secs_f64()
}

fn round_seed(plan: &Plan, round: usize) -> u64 {
    derive_seed(plan.seed ^ 0xE91D, round as u64)
}

fn run_leg(kind: EngineKind, n: usize, seed: u64, trial: u64, origin: Option<Instant>) -> RunOut {
    let started = Instant::now();
    let telemetry = if origin.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let b = builder(kind, n, seed, &telemetry);
    let mut out = RunOut::default();
    let trial_start = origin.map(ns_since);
    let run_start;
    let (outcome, informed) = if kind == EngineKind::Auto {
        let mut sim = b.build_adaptive();
        run_start = origin.map(ns_since);
        let outcome = sim.run_until(all_informed, budget(n));
        out.handoffs = sim.handoffs();
        (outcome, all_informed(sim.counts()))
    } else {
        let mut sim = b.build();
        run_start = origin.map(ns_since);
        let outcome = sim.run_until(&mut all_informed, budget(n));
        (outcome, all_informed(sim.counts()))
    };
    out.completed_at = outcome.satisfied.then_some(outcome.interactions);
    out.ok = outcome.satisfied && informed;
    if let (Some(origin), Some(trial_start), Some(run_start)) = (origin, trial_start, run_start) {
        let run_end = ns_since(origin);
        let root = out.log.push("trial", None, trial, trial_start, run_end);
        out.log
            .push("run_until", Some(root), trial, run_start, run_end);
        if kind == EngineKind::Auto {
            out.auto_ns = run_end - run_start;
        }
        out.telemetry = telemetry.report();
    }
    out.ms = started.elapsed().as_secs_f64() * 1e3;
    out
}

/// Engine-layer metrics from merged telemetry: batched and multi-batch ns
/// per interaction (their own run spans over their own interaction
/// counters), plus the counters an engine change should move.
pub fn engine_layers(layers: &mut BTreeMap<&'static str, f64>, report: &TelemetryReport) {
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let batched = report.counter(Counter::BatchedInteractions);
    layers.insert(
        "ppsim.batched.ns_per_interaction",
        ratio(report.span_stats(SpanKind::BatchedRun).total_ns, batched),
    );
    layers.insert(
        "ppsim.batched.fenwick_updates",
        report.counter(Counter::BatchedFenwickUpdates) as f64,
    );
    layers.insert(
        "ppsim.batched.silent_skipped_ratio",
        ratio(report.counter(Counter::BatchedSilentSkipped), batched),
    );
    let multibatch = report.counter(Counter::MultiBatchInteractions);
    layers.insert(
        "ppsim.multibatch.ns_per_interaction",
        ratio(
            report.span_stats(SpanKind::MultiBatchRun).total_ns,
            multibatch,
        ),
    );
    layers.insert(
        "ppsim.multibatch.epochs",
        report.counter(Counter::MultiBatchEpochs) as f64,
    );
    layers.insert(
        "ppsim.multibatch.blind_ratio",
        ratio(
            report.counter(Counter::MultiBatchBlindInteractions),
            multibatch,
        ),
    );
}

pub fn run(plan: &Plan, mut trace: Option<&mut Trace>) -> Outcome {
    let origin = trace.as_ref().map(|t| t.origin);
    let legs = legs(plan.size);
    let root = trace.as_deref_mut().map(|t| t.open_root("run"));
    let Rounds {
        results: runs,
        walls: round_walls,
        setup_samples,
    } = run_rounds(
        plan.units(ROUNDS_PER_S, 1),
        || setup(plan),
        |round| {
            (
                TrialFleet::new(legs.len(), round_seed(plan, round)),
                legs.clone(),
            )
        },
        |&(kind, n), seed, trial| (kind, n, run_leg(kind, n, seed, trial, origin)),
    );
    close_root(&mut trace, root);
    let fleet_wall: f64 = round_walls.iter().map(|&(_, wall)| wall).sum();
    let rounds = runs
        .chunks(legs.len())
        .zip(&round_walls)
        .map(|(round, &(units, wall_s))| Round {
            units: units as u64,
            interactions: round
                .iter()
                .map(|(_, _, r)| r.completed_at.unwrap_or(0))
                .sum(),
            wall_s,
        })
        .collect();
    let mut outcome = Outcome {
        rounds,
        setup_samples,
        ..Outcome::default()
    };
    let mut telemetry = None;
    let (mut handoffs, mut auto_ns, mut auto_interactions) = (0, 0, 0);
    let (mut trial_busy_ns, mut epoch_len_per_sqrt_n, mut multibatch_runs) = (0u64, 0.0, 0u32);
    let mut completions = Vec::with_capacity(runs.len());
    let mut leg_ms: Vec<(EngineKind, Vec<f64>)> = Vec::new();
    for (kind, n, run) in runs {
        match leg_ms.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, times)) => times.push(run.ms),
            None => leg_ms.push((kind, vec![run.ms])),
        }
        outcome.attempted += 1;
        outcome.failed += u64::from(!run.ok);
        outcome.job_ms.push(run.ms);
        outcome.interactions += run.completed_at.unwrap_or(0);
        completions.push(run.completed_at.unwrap_or(u64::MAX));
        handoffs += run.handoffs;
        if run.auto_ns > 0 {
            auto_ns += run.auto_ns;
            auto_interactions += run.completed_at.unwrap_or(0);
        }
        if let Some(report) = &run.telemetry {
            let epochs = report.counter(Counter::MultiBatchEpochs);
            if epochs > 0 {
                let mean_len =
                    report.counter(Counter::MultiBatchInteractions) as f64 / epochs as f64;
                epoch_len_per_sqrt_n += mean_len / (n as f64).sqrt();
                multibatch_runs += 1;
            }
        }
        merge_into(&mut telemetry, run.telemetry.as_ref());
        if let (Some(trace), Some(root)) = (trace.as_deref_mut(), root) {
            trial_busy_ns += run.log.spans.first().map_or(0, |s| s.busy_ns);
            trace.absorb(root, run.log);
        }
    }
    outcome.fingerprint = Fingerprint {
        fields: vec![
            ("runs", outcome.attempted),
            ("interactions", outcome.interactions),
            ("completion_digest", digest_words(completions)),
            ("handoffs", handoffs),
        ],
        traced_only: telemetry
            .iter()
            .map(|r: &TelemetryReport| ("epochs", r.counter(Counter::MultiBatchEpochs)))
            .collect(),
    };
    // Each leg's median run time: the job percentiles mix the three legs.
    outcome.extras = leg_ms
        .iter()
        .map(|(kind, times)| (leg_p50_name(*kind), median(times), "ms"))
        .collect();
    if trace.is_some() {
        let layers = &mut outcome.layers;
        if let Some(report) = &telemetry {
            engine_layers(layers, report);
        }
        layers.insert(
            "ppsim.multibatch.epoch_len_per_sqrt_n",
            epoch_len_per_sqrt_n / f64::from(multibatch_runs.max(1)),
        );
        layers.insert(
            "ppsim.engine.auto_ns_per_interaction",
            auto_ns as f64 / auto_interactions.max(1) as f64,
        );
        layers.insert("ppsim.engine.handoffs", handoffs as f64);
        let threads = rayon::current_num_threads() as f64;
        layers.insert("ppsim.fleet.threads", threads);
        layers.insert(
            "ppsim.fleet.busy_fraction",
            trial_busy_ns as f64 / 1e9 / (fleet_wall * threads),
        );
    }
    outcome
}
