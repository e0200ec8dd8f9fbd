//! The two `ElectLeader_r` workloads: `elect-agent` (per-agent
//! `ppsim::Simulation` from every catalog start) and `elect-count` (the E11
//! path: `DiscoveredProtocol<ElectLeader>` under `SimBuilder` Auto).

use std::hint::black_box;
use std::time::Instant;

use ppsim::rng::{derive_seed, uniform_below};
use ppsim::simulation::StabilizationOptions;
use ppsim::telemetry::Counter;
use ppsim::{
    AdaptiveSimulation, Configuration, CountConfiguration, DiscoveredProtocol, EnumerableProtocol,
    Protocol, SimBuilder, SimRng, Simulation, SupportEnumerable, Telemetry, TelemetryReport,
    TrialFleet,
};
use ssle_core::{output, AgentState, ElectLeader, Scenario};

use crate::report::{digest_words, merge_into, Fingerprint, Outcome, Round};
use crate::trace::{close_root, ns_since, Probe, SpanLog, Timed, Trace};
use crate::{run_rounds, Plan, Rounds, Size};

/// What one stabilization trial returns to the fleet.
#[derive(Debug, Default)]
struct TrialOut {
    stabilized_at: Option<u64>,
    interactions: u64,
    ok: bool,
    ms: f64,
    interned: u64,
    cached_supports: u64,
    handoffs: u64,
    /// `elect-count` predicate time.
    predicate_ns: u64,
    probe: Probe,
    telemetry: Option<TelemetryReport>,
    log: SpanLog,
}

/// Rounds per requested second: about one round a second on a 2-vCPU host.
const AGENT_ROUNDS_PER_S: f64 = 0.9;
const COUNT_ROUNDS_PER_S: f64 = 0.85;

/// `(n, r)` of `elect-agent`.
fn agent_cell(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (96, 24),
        Size::Tiny => (16, 4),
    }
}

/// The `(n, r)` of each `elect-count` trial in one round, longest first so
/// the fleet's dynamic chunking balances the two worker threads.
fn count_round(size: Size) -> Vec<(usize, usize)> {
    match size {
        Size::Full => vec![(64, 16), (64, 16), (32, 4), (32, 4), (32, 4), (32, 4)],
        Size::Tiny => vec![(12, 3), (12, 3)],
    }
}

/// The catalog starts of one `elect-agent` round, in an order shuffled by
/// the workload seed and the round.
fn agent_round(plan: &Plan, round: usize) -> Vec<Scenario> {
    let (n, _) = agent_cell(plan.size);
    let mut scenarios = Scenario::catalog(n);
    let mut rng = SimRng::seed_from_u64(derive_seed(plan.seed ^ 0x5CE0, round as u64));
    for i in (1..scenarios.len()).rev() {
        let j = uniform_below(&mut rng, i as u64 + 1) as usize;
        scenarios.swap(i, j);
    }
    scenarios
}

fn round_seed(plan: &Plan, tag: u64, round: usize) -> u64 {
    derive_seed(plan.seed ^ tag, round as u64)
}

/// The start configuration and engine of one `elect-agent` trial.
fn agent_start(
    n: usize,
    r: usize,
    scenario: Scenario,
    seed: u64,
) -> (ElectLeader, Configuration<AgentState>) {
    let protocol = ElectLeader::with_n_r(n, r).expect("benchmark parameters are valid");
    let mut rng = SimRng::seed_from_u64(derive_seed(seed, 0xA0));
    let config = scenario.generate(&protocol, &mut rng);
    (protocol, config)
}

/// Set-up of the first `elect-agent` round: the fleet, and each trial's
/// protocol, start configuration and engine, built one after another.
/// (Dispatching the round to the fleet's threads is left out: waking a
/// second vCPU costs tens of microseconds that vary with the host's load.)
pub fn agent_setup(plan: &Plan) -> f64 {
    let (n, r) = agent_cell(plan.size);
    let started = Instant::now();
    let scenarios = agent_round(plan, 0);
    let fleet = TrialFleet::new(scenarios.len(), round_seed(plan, 0xA6E7, 0));
    for (i, &scenario) in scenarios.iter().enumerate() {
        let seed = fleet.trial_seed(i);
        let (protocol, config) = agent_start(n, r, scenario, seed);
        black_box(Simulation::new(protocol, config, derive_seed(seed, 0xB0)));
    }
    started.elapsed().as_secs_f64()
}

/// Runs one per-agent trial to stabilization and checks its final output.
fn measure_agent<P: Protocol<State = AgentState>>(
    sim: &mut Simulation<P>,
    opts: StabilizationOptions,
    pred: impl FnMut(&Configuration<AgentState>) -> bool,
    out: &mut TrialOut,
) {
    let result = sim.measure_stabilization(pred, opts);
    let config = sim.configuration();
    out.stabilized_at = result.stabilized_at;
    out.interactions = result.interactions;
    out.ok = result.stabilized()
        && output::is_correct_output(config)
        && output::has_unique_leader(config);
}

fn agent_trial(
    cell: (usize, usize),
    scenario: Scenario,
    seed: u64,
    trial: u64,
    origin: Option<Instant>,
) -> TrialOut {
    let started = Instant::now();
    let (n, r) = cell;
    let (protocol, config) = agent_start(n, r, scenario, seed);
    let opts = StabilizationOptions::new(n, protocol.params().suggested_budget());
    let sim_seed = derive_seed(seed, 0xB0);
    let mut out = TrialOut::default();
    match origin {
        None => {
            let mut sim = Simulation::new(protocol, config, sim_seed);
            measure_agent(&mut sim, opts, output::is_correct_output, &mut out);
        }
        Some(origin) => {
            let trial_start = ns_since(origin);
            let timed = Timed::new(protocol, origin);
            let probe = timed.probe();
            let mut sim = Simulation::new(timed, config, sim_seed);
            let measure_start = ns_since(origin);
            measure_agent(
                &mut sim,
                opts,
                |c| {
                    let start = ns_since(origin);
                    let verdict = output::is_correct_output(c);
                    let end = ns_since(origin);
                    probe.borrow_mut().predicate.record(start, end);
                    verdict
                },
                &mut out,
            );
            let measure_end = ns_since(origin);
            out.probe = *probe.borrow();
            out.log.trial(
                trial,
                trial_start,
                measure_start,
                measure_end,
                &out.probe,
                origin,
            );
        }
    }
    out.ms = started.elapsed().as_secs_f64() * 1e3;
    out
}

/// Count-space correctness read through `DiscoveredProtocol::peek`, for any
/// wrapped protocol: every occupied state a single verifier, the committed
/// ranks a permutation of `[n]`. Same rule as
/// `output::is_correct_output_counts`, which only accepts the unwrapped type.
fn counts_correct<Q>(protocol: &DiscoveredProtocol<Q>, counts: &CountConfiguration) -> bool
where
    Q: SupportEnumerable<State = AgentState>,
{
    let n = counts.population() as usize;
    let mut seen = vec![false; n + 1];
    for (index, count) in counts.occupied() {
        match protocol.peek(index, AgentState::verified_rank) {
            Some(rank)
                if count == 1 && rank >= 1 && (rank as usize) <= n && !seen[rank as usize] =>
            {
                seen[rank as usize] = true;
            }
            _ => return false,
        }
    }
    true
}

/// Agents holding rank 1.
fn leaders<Q>(protocol: &DiscoveredProtocol<Q>, counts: &CountConfiguration) -> u64
where
    Q: SupportEnumerable<State = AgentState>,
{
    counts
        .occupied()
        .filter(|&(index, _)| protocol.peek(index, AgentState::verified_rank) == Some(1))
        .map(|(_, count)| count)
        .sum()
}

/// Builds one `elect-count` engine (the set-up the trial times too).
fn count_engine<Q>(
    protocol: Q,
    seed: u64,
    telemetry: &Telemetry,
) -> (
    DiscoveredProtocol<Q>,
    AdaptiveSimulation<DiscoveredProtocol<Q>>,
)
where
    Q: SupportEnumerable<State = AgentState> + ppsim::CleanInit + 'static,
{
    let discovered = DiscoveredProtocol::new(protocol);
    discovered.set_telemetry(telemetry.clone());
    let handle = discovered.clone();
    let sim = SimBuilder::new(discovered)
        .seed(seed)
        .telemetry(telemetry.clone())
        .build_adaptive();
    (handle, sim)
}

/// Set-up of the first `elect-count` round: the fleet, and each trial's
/// protocol, discovered adapter and Auto engine (which interns the clean
/// state), built one after another as in `agent_setup`.
pub fn count_setup(plan: &Plan) -> f64 {
    let started = Instant::now();
    let cells = count_round(plan.size);
    let fleet = TrialFleet::new(cells.len(), round_seed(plan, 0xC0C0, 0));
    for (i, &(n, r)) in cells.iter().enumerate() {
        let protocol = ElectLeader::with_n_r(n, r).expect("benchmark parameters are valid");
        black_box(count_engine(
            protocol,
            fleet.trial_seed(i),
            &Telemetry::disabled(),
        ));
    }
    started.elapsed().as_secs_f64()
}

/// Runs one count-space trial to stabilization under `pred` and checks its
/// final configuration with `check` plus a unique rank-1 agent.
fn measure_count<Q>(
    handle: &DiscoveredProtocol<Q>,
    sim: &mut AdaptiveSimulation<DiscoveredProtocol<Q>>,
    opts: StabilizationOptions,
    pred: impl FnMut(&CountConfiguration) -> bool,
    check: impl Fn(&CountConfiguration) -> bool,
    out: &mut TrialOut,
) where
    Q: SupportEnumerable<State = AgentState>,
{
    let result = sim.measure_stabilization(pred, opts);
    let counts = sim.counts();
    out.stabilized_at = result.stabilized_at;
    out.interactions = result.interactions;
    out.ok = result.stabilized() && check(counts) && leaders(handle, counts) == 1;
    out.interned = handle.num_states() as u64;
    out.cached_supports = handle.cached_supports() as u64;
    out.handoffs = sim.handoffs();
}

fn count_trial(cell: (usize, usize), seed: u64, trial: u64, origin: Option<Instant>) -> TrialOut {
    let started = Instant::now();
    let (n, r) = cell;
    let protocol = ElectLeader::with_n_r(n, r).expect("benchmark parameters are valid");
    let opts = StabilizationOptions::new(n, protocol.params().suggested_budget());
    let mut out = TrialOut::default();
    match origin {
        None => {
            let (handle, mut sim) = count_engine(protocol, seed, &Telemetry::disabled());
            let correct = |c: &CountConfiguration| output::is_correct_output_counts(&handle, c);
            // Timed so that `ppsim.telemetry.overhead` can leave it out: the
            // traced pass runs a different predicate.
            let mut predicate_ns = 0;
            let timed = |c: &CountConfiguration| {
                let start = Instant::now();
                let verdict = correct(c);
                predicate_ns += ns_since(start);
                verdict
            };
            measure_count(&handle, &mut sim, opts, timed, correct, &mut out);
            out.predicate_ns = predicate_ns;
        }
        Some(origin) => {
            let trial_start = ns_since(origin);
            let telemetry = Telemetry::enabled();
            let timed = Timed::new(protocol, origin);
            let probe = timed.probe();
            let (handle, mut sim) = count_engine(timed, seed, &telemetry);
            let measure_start = ns_since(origin);
            let pred = |c: &CountConfiguration| {
                let start = ns_since(origin);
                let verdict = counts_correct(&handle, c);
                let end = ns_since(origin);
                probe.borrow_mut().predicate.record(start, end);
                verdict
            };
            let check = |c: &CountConfiguration| counts_correct(&handle, c);
            measure_count(&handle, &mut sim, opts, pred, check, &mut out);
            let measure_end = ns_since(origin);
            out.telemetry = telemetry.report();
            out.probe = *probe.borrow();
            out.predicate_ns = out.probe.predicate.busy_ns;
            out.log.trial(
                trial,
                trial_start,
                measure_start,
                measure_end,
                &out.probe,
                origin,
            );
        }
    }
    out.ms = started.elapsed().as_secs_f64() * 1e3;
    out
}

/// Folds the trials of all rounds into an outcome (trial order).
fn fold(
    trials: Vec<TrialOut>,
    round_walls: &[(usize, f64)],
    mut trace: Option<(&mut Trace, usize)>,
) -> Outcome {
    let mut outcome = Outcome {
        rounds: rounds_of(&trials, round_walls),
        ..Outcome::default()
    };
    let mut probe = Probe::default();
    let mut telemetry = None;
    let (mut interned, mut supports, mut handoffs, mut predicate_ns) = (0, 0, 0, 0);
    let mut stabilized = Vec::with_capacity(trials.len());
    let mut trial_busy_ns = 0u64;
    for trial in trials {
        outcome.attempted += 1;
        outcome.failed += u64::from(!trial.ok);
        outcome.job_ms.push(trial.ms);
        outcome.interactions += trial.interactions;
        stabilized.push(trial.stabilized_at.unwrap_or(u64::MAX));
        interned += trial.interned;
        supports += trial.cached_supports;
        handoffs += trial.handoffs;
        predicate_ns += trial.predicate_ns;
        probe.add(&trial.probe);
        merge_into(&mut telemetry, trial.telemetry.as_ref());
        if let Some((trace, root)) = trace.as_mut() {
            trial_busy_ns += trial.log.spans.first().map_or(0, |s| s.busy_ns);
            trace.absorb(*root, trial.log);
        }
    }
    outcome.fingerprint = Fingerprint {
        fields: vec![
            ("trials", outcome.attempted),
            ("interactions", outcome.interactions),
            ("stabilized_at_digest", digest_words(stabilized)),
            ("interned_states", interned),
            ("handoffs", handoffs),
        ],
        traced_only: telemetry
            .iter()
            .map(|r: &TelemetryReport| ("epochs", r.counter(Counter::MultiBatchEpochs)))
            .collect(),
    };
    outcome.excluded_ms = predicate_ns as f64 / 1e6;
    if trace.is_some() {
        layer_metrics(&mut outcome, &probe, telemetry.as_ref(), supports, handoffs);
        let threads = rayon::current_num_threads() as f64;
        let fleet_wall_s: f64 = round_walls.iter().map(|&(_, wall)| wall).sum();
        outcome.layers.insert("ppsim.fleet.threads", threads);
        outcome.layers.insert(
            "ppsim.fleet.busy_fraction",
            trial_busy_ns as f64 / 1e9 / (fleet_wall_s * threads),
        );
    }
    outcome
}

/// The `ssle_core` and engine layer metrics of a traced pass.
fn layer_metrics(
    outcome: &mut Outcome,
    probe: &Probe,
    telemetry: Option<&TelemetryReport>,
    supports: u64,
    handoffs: u64,
) {
    let interactions = outcome.interactions.max(1) as f64;
    let layers = &mut outcome.layers;
    let interact = probe.interact_total();
    layers.insert("ssle_core.interact.ns", interact.mean_ns());
    layers.insert("ssle_core.interact.calls", interact.calls as f64);
    for (ns, calls, stats) in [
        (
            "ssle_core.reset.ns",
            "ssle_core.reset.calls",
            &probe.interact[0],
        ),
        (
            "ssle_core.ranking.ns",
            "ssle_core.ranking.calls",
            &probe.interact[1],
        ),
        (
            "ssle_core.verify.ns",
            "ssle_core.verify.calls",
            &probe.interact[2],
        ),
    ] {
        layers.insert(ns, stats.mean_ns());
        layers.insert(calls, stats.calls as f64);
    }
    layers.insert("ssle_core.pair_support.ns", probe.pair_support.mean_ns());
    layers.insert(
        "ssle_core.pair_support.calls",
        probe.pair_support.calls as f64,
    );
    layers.insert(
        "ssle_core.pair_support.calls_per_interaction",
        probe.pair_support.calls as f64 / interactions,
    );
    layers.insert("ssle_core.output.ns", probe.predicate.mean_ns());
    layers.insert("ssle_core.output.calls", probe.predicate.calls as f64);
    layers.insert("ppsim.engine.handoffs", handoffs as f64);
    let Some(report) = telemetry else {
        return;
    };
    crate::epidemic::engine_layers(layers, report);
    let interned = report.counter(Counter::IndexerInternedStates);
    let hits = report.counter(Counter::IndexerMemoHits);
    let misses = report.counter(Counter::IndexerMemoMisses);
    layers.insert("ppsim.indexer.interned_states", interned as f64);
    layers.insert(
        "ppsim.indexer.states_per_interaction",
        interned as f64 / interactions,
    );
    layers.insert(
        "ppsim.indexer.memo_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.insert("ppsim.indexer.cached_supports", supports as f64);
}

/// Per-round units, interactions and fleet wall time.
fn rounds_of(trials: &[TrialOut], round_walls: &[(usize, f64)]) -> Vec<Round> {
    let mut rest = trials;
    round_walls
        .iter()
        .map(|&(size, wall_s)| {
            let (round, tail) = rest.split_at(size);
            rest = tail;
            Round {
                units: size as u64,
                interactions: round.iter().map(|t| t.interactions).sum(),
                wall_s,
            }
        })
        .collect()
}

pub fn run_agent(plan: &Plan, mut trace: Option<&mut Trace>) -> Outcome {
    let cell = agent_cell(plan.size);
    let origin = trace.as_ref().map(|t| t.origin);
    let root = trace.as_deref_mut().map(|t| t.open_root("run"));
    let rounds = run_rounds(
        plan.units(AGENT_ROUNDS_PER_S, 1),
        || agent_setup(plan),
        |round| {
            let scenarios = agent_round(plan, round);
            (
                TrialFleet::new(scenarios.len(), round_seed(plan, 0xA6E7, round)),
                scenarios,
            )
        },
        |scenario, seed, trial| agent_trial(cell, *scenario, seed, trial, origin),
    );
    close_root(&mut trace, root);
    finish(rounds, trace.zip(root))
}

pub fn run_count(plan: &Plan, mut trace: Option<&mut Trace>) -> Outcome {
    let origin = trace.as_ref().map(|t| t.origin);
    let root = trace.as_deref_mut().map(|t| t.open_root("run"));
    let rounds = run_rounds(
        plan.units(COUNT_ROUNDS_PER_S, 1),
        || count_setup(plan),
        |round| {
            let cells = count_round(plan.size);
            (
                TrialFleet::new(cells.len(), round_seed(plan, 0xC0C0, round)),
                cells,
            )
        },
        |cell, seed, trial| count_trial(*cell, seed, trial, origin),
    );
    close_root(&mut trace, root);
    finish(rounds, trace.zip(root))
}

fn finish(rounds: Rounds<TrialOut>, trace: Option<(&mut Trace, usize)>) -> Outcome {
    let Rounds {
        results: trials,
        walls,
        setup_samples,
    } = rounds;
    let Some((trace, root)) = trace else {
        return Outcome {
            setup_samples,
            ..fold(trials, &walls, None)
        };
    };
    let mut outcome = Outcome {
        setup_samples,
        ..fold(trials, &walls, Some((&mut *trace, root)))
    };
    let measured = trace.total("measure_stabilization").busy_ns as f64;
    let output_ns = trace.total("ssle_core.output").busy_ns as f64;
    let children: f64 = [
        "ssle_core.reset",
        "ssle_core.ranking",
        "ssle_core.verify",
        "ssle_core.pair_support",
        "ssle_core.output",
    ]
    .iter()
    .map(|name| trace.total(name).busy_ns as f64)
    .sum();
    let layers = &mut outcome.layers;
    layers.insert("ssle_core.output.share", output_ns / measured.max(1.0));
    // Self time of the measured loop: `measure_stabilization` time spent
    // outside the protocol and the predicate. It belongs to the per-agent
    // run loop, or under the indexer to the Auto engine.
    let key = if layers.contains_key("ppsim.indexer.interned_states") {
        "ppsim.engine.auto_ns_per_interaction"
    } else {
        "ppsim.simulation.self_ns_per_interaction"
    };
    layers.insert(
        key,
        (measured - children) / outcome.interactions.max(1) as f64,
    );
    outcome
}
