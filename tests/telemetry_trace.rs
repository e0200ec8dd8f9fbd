//! Integration tests for `ppsim::telemetry`: the disabled handle must be
//! free and invisible (bit-identical trajectories, pinned snapshots
//! unmoved), the deterministic event stream must be byte-identical across
//! thread counts, and an adaptive run's trace must record every handoff at
//! exactly the absolute interaction indices engine introspection reports.

use ppsim::epidemic::OneWayEpidemic;
use ppsim::simulation::StabilizationOptions;
use ppsim::telemetry::{Counter, TraceEvent};
use ppsim::{
    AdaptiveConfig, EngineKind, SimBuilder, SimulationEngine, Telemetry, TelemetryReport,
    TrialFleet,
};

/// The forced-switching policy the handoff-boundary regression in
/// `integration_batched.rs` pins — reused verbatim so the traced run below
/// is the *same* run, with telemetry watching.
fn switchy() -> AdaptiveConfig {
    AdaptiveConfig {
        low_activity: 0.05,
        high_activity: 0.10,
        check_interval: 256,
    }
}

/// A disabled handle records nothing — and is the builder default.
#[test]
fn disabled_telemetry_reports_nothing() {
    let telemetry = Telemetry::disabled();
    let mut sim = SimBuilder::new(OneWayEpidemic::new(256, 1))
        .kind(EngineKind::Batched)
        .seed(42)
        .telemetry(telemetry.clone())
        .build();
    sim.run(10_000);
    assert!(telemetry.report().is_none(), "disabled handle accumulated");
    // The builder default is the same disabled handle.
    let mut sim = SimBuilder::new(OneWayEpidemic::new(256, 1))
        .kind(EngineKind::Batched)
        .seed(42)
        .build();
    sim.run(10_000);
}

/// Telemetry never draws randomness or branches control flow: the same seed
/// produces the same trajectory with and without an enabled handle, for
/// every engine tier.
#[test]
fn enabled_telemetry_leaves_trajectories_untouched() {
    for kind in [
        EngineKind::PerStep,
        EngineKind::Batched,
        EngineKind::MultiBatch,
        EngineKind::Auto,
    ] {
        let run = |telemetry: Telemetry| {
            let mut sim = SimBuilder::new(OneWayEpidemic::new(256, 1))
                .kind(kind)
                .seed(9)
                .adaptive_config(switchy())
                .telemetry(telemetry)
                .build();
            let out = sim.run_until(&mut |c| c.count(1) == c.population(), u64::MAX);
            assert!(out.satisfied, "{kind:?}");
            (out.interactions, sim.counts().clone())
        };
        let bare = run(Telemetry::disabled());
        let watched = run(Telemetry::enabled());
        assert_eq!(bare, watched, "{kind:?}: telemetry perturbed the run");
    }
}

/// Runs the snapshot epidemic (n = 256, seed 42) to completion under a
/// fixed tier with telemetry on: the run's interactions and its report.
fn watched_snapshot(kind: EngineKind) -> (u64, TelemetryReport) {
    let telemetry = Telemetry::enabled();
    let mut sim = SimBuilder::new(OneWayEpidemic::new(256, 1))
        .kind(kind)
        .seed(42)
        .telemetry(telemetry.clone())
        .build();
    let out = sim.run_until(&mut |c| c.count(1) == c.population(), u64::MAX);
    assert!(out.satisfied);
    let report = telemetry.report().expect("enabled handle has a report");
    (out.interactions, report)
}

/// The pinned trajectory snapshots (the same constants
/// `integration_batched.rs` guards) must hold with telemetry enabled — and
/// the counters must agree with them.
#[test]
fn pinned_snapshots_hold_with_telemetry_enabled() {
    let (interactions, report) = watched_snapshot(EngineKind::Batched);
    assert_eq!(interactions, 3_143, "batched snapshot moved");
    assert_eq!(report.counter(Counter::BatchedInteractions), 3_143);
    // Exactly n − 1 interactions inform a new agent.
    assert_eq!(report.counter(Counter::BatchedActiveInteractions), 255);
    assert!(report.counter(Counter::BatchedFenwickUpdates) > 0);
    // The one-way epidemic has a single non-silent pair: every pick forced.
    assert_eq!(report.counter(Counter::BatchedForcedPicks), 255);

    let (interactions, report) = watched_snapshot(EngineKind::MultiBatch);
    assert_eq!(interactions, 3_065, "multibatch snapshot moved");
    assert_eq!(report.counter(Counter::MultiBatchInteractions), 3_065);
    assert_eq!(report.counter(Counter::MultiBatchEpochs), 284);
    assert_eq!(report.collision_length().count, 284);
    let groups = report.counter(Counter::MultiBatchGroupsSilent)
        + report.counter(Counter::MultiBatchGroupsDeterministic)
        + report.counter(Counter::MultiBatchGroupsMultinomial)
        + report.counter(Counter::MultiBatchGroupsBlind);
    assert!(groups > 0, "no group resolutions recorded");
}

/// Per-agent interaction metrics exist exactly where the granularity
/// contract says they can: on the per-step engine, when telemetry is on.
#[test]
fn per_step_engine_maintains_interaction_metrics_when_watched() {
    let per_step = |telemetry: &Telemetry| {
        SimBuilder::new(OneWayEpidemic::new(64, 1))
            .kind(EngineKind::PerStep)
            .seed(3)
            .telemetry(telemetry.clone())
            .build()
    };
    let telemetry = Telemetry::enabled();
    let executed = per_step(&telemetry).run(5_000);
    let report = telemetry.report().unwrap();
    assert_eq!(report.counter(Counter::PerStepInteractions), executed);
    let balance = report.balance().expect("balance summary flushed");
    assert_eq!(balance.n, 64);
    assert_eq!(balance.total, executed, "every interaction recorded");
    assert!(balance.min <= balance.max);
    // The count tiers keep no per-agent load.
    for kind in [EngineKind::Batched, EngineKind::MultiBatch] {
        let (_, report) = watched_snapshot(kind);
        assert!(report.balance().is_none(), "{kind:?}");
    }
    // Unwatched engines record nothing.
    let bare = Telemetry::disabled();
    per_step(&bare).run(100);
    assert!(bare.report().is_none());
}

/// One trial of the fleet-aggregated trace: a small adaptive epidemic with
/// forced handoffs, returning its per-trial report.
fn traced_trial(seed: u64) -> TelemetryReport {
    let telemetry = Telemetry::enabled();
    let mut sim = SimBuilder::new(OneWayEpidemic::new(256, 1))
        .seed(seed)
        .adaptive_config(switchy())
        .telemetry(telemetry.clone())
        .build();
    let out = sim.run_until(&mut |c| c.count(1) == c.population(), u64::MAX);
    assert!(out.satisfied);
    telemetry.report().expect("enabled handle has a report")
}

/// The deterministic stream is byte-identical across forced 1/2/4-thread
/// pools: per-trial reports come back in trial order, merge in that order,
/// and carry no wall-clock fields.
#[test]
fn deterministic_stream_is_byte_identical_across_thread_counts() {
    let fleet = TrialFleet::new(12, 0x7E1E_3141);
    let merged_jsonl = |reports: Vec<TelemetryReport>| {
        let mut merged = TelemetryReport::default();
        for report in &reports {
            merged.merge(report);
        }
        merged.deterministic_jsonl()
    };
    let reference = merged_jsonl(fleet.run(traced_trial));
    assert!(reference.contains("\"event\":\"handoff\""));
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let stream = merged_jsonl(pool.install(|| fleet.run(traced_trial)));
        assert_eq!(stream, reference, "{threads}-thread stream diverged");
    }
}

/// The traced twin of `auto_handoff_preserves_absolute_interaction_indices`
/// (same seed, same policy, same misaligned slices): the trace must record
/// every handoff, each at an absolute index that matches what engine
/// introspection reported at every slice boundary.
#[test]
fn auto_trace_records_handoffs_at_introspected_indices() {
    const N: usize = 512;
    let telemetry = Telemetry::enabled();
    let mut sim = SimBuilder::new(OneWayEpidemic::new(N, 1))
        .seed(7)
        .adaptive_config(switchy())
        .telemetry(telemetry.clone())
        .build_adaptive();
    // Introspection samples: (absolute interactions, handoffs) per slice.
    let mut samples = Vec::new();
    let mut total = 0u64;
    for chunk in [100u64, 333, 500, 777, 1_000, 123] {
        sim.run(chunk);
        total += chunk;
        assert_eq!(sim.interactions(), total, "absolute index drifted");
        samples.push((total, sim.handoffs()));
    }
    assert!(sim.handoffs() >= 1, "the warm-up must cross the threshold");
    let opts = StabilizationOptions::new(N, u64::MAX / 2).confirm_window(5_000);
    let res = sim.measure_stabilization(|c| c.count(1) == c.population(), opts);
    assert!(res.stabilized());
    assert_eq!(sim.current_kind(), EngineKind::Batched);

    let report = telemetry.report().expect("enabled handle has a report");
    let events = report.events();
    // First event: the initial engine selection (a sparse epidemic starts
    // batched, below the high-activity threshold).
    let TraceEvent::EngineSelected {
        kind,
        active_fraction,
    } = &events[0]
    else {
        panic!("first event must be engine_selected, got {:?}", events[0]);
    };
    assert_eq!(*kind, "batched");
    assert!(*active_fraction < switchy().high_activity);

    let handoffs: Vec<(u64, u64, &str, &str)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Handoff {
                seq,
                index,
                from,
                to,
                ..
            } => Some((*seq, *index, *from, *to)),
            _ => None,
        })
        .collect();
    // Every handoff traced, none invented.
    assert_eq!(handoffs.len() as u64, sim.handoffs());
    assert_eq!(report.counter(Counter::AdaptiveHandoffs), sim.handoffs());
    let mut expected_from = "batched";
    for (position, &(seq, index, from, to)) in handoffs.iter().enumerate() {
        assert_eq!(seq, position as u64 + 1, "handoff seq out of order");
        assert_eq!(from, expected_from, "handoff direction broke the chain");
        assert_ne!(from, to);
        expected_from = to;
        // Activity checks — hence handoffs — land only on check-interval
        // boundaries, and indices are absolute.
        assert_eq!(index % switchy().check_interval, 0, "index off-boundary");
        assert!(index <= sim.interactions());
        if position > 0 {
            assert!(index > handoffs[position - 1].1, "indices not increasing");
        }
    }
    // The last handoff left the engine where introspection says it is.
    assert_eq!(handoffs.last().unwrap().3, sim.current_kind().label());
    // The trace indices agree with introspection at every slice boundary: a
    // handoff fires strictly after the boundary it was measured at, so the
    // handoffs introspection had seen by a boundary are exactly the traced
    // ones with a strictly smaller index.
    for &(boundary, seen) in &samples {
        let traced = handoffs
            .iter()
            .filter(|&&(_, i, _, _)| i < boundary)
            .count();
        assert_eq!(
            traced as u64, seen,
            "trace disagrees with introspection at interaction {boundary}"
        );
    }
}
