//! E11 — `ElectLeader_r` stabilization-time curves under the count-based
//! engines via the dynamic state indexer.
//!
//! The batched engine could not previously touch the paper's own protocol:
//! `ElectLeader_r` has no hand-written state bijection, and its reachable
//! state space is far too large for the `|Q|²` pair enumeration the engine
//! used to perform. `ppsim::DiscoveredProtocol` removes both obstacles by
//! interning states lazily, so this experiment produces the ROADMAP's
//! *stabilization-time curves* for the main protocol along two axes:
//!
//! * a sweep over `n` at the fast-regime ratio `r = max(1, n/4)`, run under
//!   the batched engine, the multi-batch collision sampler
//!   ([`ppsim::EngineKind::MultiBatch`]), and — up to
//!   [`Scale::discovered_per_step_n_cap`] — the per-step engine, with
//!   least-squares log–log slope fits against the predicted shape
//!   `Θ(n²/r · log n) = Θ(n log n)`;
//! * a sweep over `r ∈ {1, ⌈ln n⌉, ⌈√n⌉, n/4}` at every `n`
//!   ([`Scale::discovered_r_values`]), run under the multi-batch engine
//!   (whose high-activity advantage is largest exactly in the slow `r = 1`
//!   cells), charting the space–time trade-off *surface* with one log–log
//!   slope fit per `r` rule (the predicted exponent falls from ≈ 2 at
//!   constant `r` toward ≈ 1 as `r` grows with `n`).
//!
//! Every fast-regime cell at or below the per-step cap is *cross-validated*:
//! the same instances run under the per-step engine, and the table reports
//! the relative mean difference and the two-sample Kolmogorov–Smirnov
//! distance between the engines' stabilization-time samples — for the
//! batched *and* the multi-batch engine (the same statistics
//! `tests/integration_batched.rs` enforces with tolerances).

use crate::runner::{run_trials, TrialOutcome};
use crate::scale::{EngineKind, Scale};
use crate::table::{fmt_f64, Table};
use ppsim::rng::derive_seed;
use ppsim::simulation::StabilizationOptions;
use ppsim::stats::{ks_distance, log_log_slope};
use ppsim::{DiscoveredProtocol, SimBuilder};
use ssle_core::{output, ElectLeader};
use std::time::Instant;

/// The trade-off parameter used by the fast-regime `n` sweep: the ratio
/// `n/4`, clamped into the theorem range `1 ≤ r ≤ n/2`.
pub fn sweep_r(n: usize) -> usize {
    (n / 4).max(1)
}

/// A named `r` rule of the trade-off surface: the rule's label and its
/// value as a function of `n`.
type RRule = (&'static str, fn(usize) -> usize);

/// The named `r` rules of the trade-off surface, in ascending-`r` order.
/// Values are clamped into the theorem range like
/// [`Scale::discovered_r_values`] (which is exactly these rules, deduped).
const R_RULES: [RRule; 4] = [
    ("r = 1", |_| 1),
    ("r = ceil(ln n)", |n| (n as f64).ln().ceil() as usize),
    ("r = ceil(sqrt n)", |n| (n as f64).sqrt().ceil() as usize),
    ("r = n/4", |n| n / 4),
];

/// One `ElectLeader_r` stabilization trial under the chosen engine. Every
/// engine — the per-step tier included — runs through the dynamic state
/// indexer and the unified [`ppsim::SimBuilder`] surface, so this function
/// is one code path with no per-engine dispatch (the per-step tier maintains
/// its count mirror over lazily interned states and evaluates the same
/// count-space predicate as the count engines).
pub fn ssle_engine_trial(engine: EngineKind, n: usize, r: usize, seed: u64) -> TrialOutcome {
    let protocol = ElectLeader::with_n_r(n, r).expect("sweep parameters are valid");
    let budget = protocol.params().suggested_budget();
    let opts = StabilizationOptions::new(n, budget);
    let discovered = DiscoveredProtocol::new(protocol);
    let handle = discovered.clone();
    let mut sim = SimBuilder::new(discovered).kind(engine).seed(seed).build();
    let result =
        sim.measure_stabilization(&mut |c| output::is_correct_output_counts(&handle, c), opts);
    TrialOutcome {
        stabilized: result.stabilized(),
        stabilized_at: result.stabilized_at,
        total_interactions: result.interactions,
        n,
    }
}

/// The stabilization interaction counts of the successful trials.
fn stabilization_samples(outcomes: &[TrialOutcome]) -> Vec<f64> {
    outcomes
        .iter()
        .filter_map(|o| o.stabilized_at)
        .map(|t| t as f64)
        .collect()
}

/// Sample mean via the shared [`ppsim::Summary`] statistics, so the table
/// and the cross-engine equivalence tests compute the statistic one way.
fn mean(samples: &[f64]) -> f64 {
    ppsim::Summary::of(samples).mean
}

/// Formats the cross-validation note comparing one count engine's samples
/// against the per-step engine's at one sweep point.
fn cross_validation_note(label: &str, n: usize, engine: &[f64], per_step: &[f64]) -> String {
    let (m_e, m_ps) = (mean(engine), mean(per_step));
    let rel_diff = (m_e - m_ps).abs() / m_ps;
    let ks = ks_distance(engine, per_step);
    // Two-sample KS 1% critical value. At 1 or above the sample is too small
    // for the KS test to reject at this level at all — even complete ECDF
    // separation (distance 1, routine for a handful of samples with disjoint
    // ranges) stays below it — so no verdict either way is printed.
    let (a, b) = (engine.len() as f64, per_step.len() as f64);
    let critical = 1.63 * ((a + b) / (a * b)).sqrt();
    let verdict = if critical >= 1.0 {
        "insufficient sample"
    } else if rel_diff < 0.12 && ks < critical {
        "engines agree"
    } else {
        "ENGINES DISAGREE"
    };
    format!(
        "n = {n}, {label} vs per-step: {verdict} — relative mean difference {:.1}%, \
         KS distance {ks:.3} (1% critical ≈ {critical:.2} at this sample size; \
         tests/integration_batched.rs enforces the same statistics at larger samples)",
        100.0 * rel_diff,
    )
}

/// E11 — stabilization-time curves for `ElectLeader_r` under the dynamically
/// indexed count-based engines, with log–log slope fits, an `r` trade-off
/// surface, and per-step cross-validation.
pub fn e11_discovered_curves(scale: Scale) -> Table {
    let mut table = Table::new(
        "E11 — ElectLeader_r stabilization curves: count-based engines via dynamic state indexing",
        &[
            "n",
            "r",
            "engine",
            "trials",
            "stabilized",
            "mean stabilization interactions",
            "mean parallel time",
            "cell wall ms",
        ],
    );
    let trials = scale.trials();
    // (engine label at r = n/4) -> (n, mean) points for the engine slopes;
    // (r rule) -> (n, mean) points for the surface slopes.
    let mut engine_points: Vec<(EngineKind, Vec<(f64, f64)>)> = vec![
        (EngineKind::Batched, Vec::new()),
        (EngineKind::MultiBatch, Vec::new()),
        (EngineKind::PerStep, Vec::new()),
    ];
    let mut rule_points: Vec<(&str, Vec<(f64, f64)>)> = R_RULES
        .iter()
        .map(|&(name, _)| (name, Vec::new()))
        .collect();
    let mut overlap_notes: Vec<String> = Vec::new();
    for &n in &scale.discovered_n_values() {
        let fast_r = sweep_r(n);
        // The full r grid up to the surface cap, the fast regime alone above.
        let r_grid = if n <= scale.discovered_surface_n_cap() {
            scale.discovered_r_values(n)
        } else {
            vec![fast_r]
        };
        for r in r_grid {
            let base_seed = derive_seed(scale.base_seed() ^ 0xE11, (n * 131 + r) as u64);
            // The multi-batch engine charts the whole surface (pre-
            // stabilization ElectLeader_r is its high-activity home turf —
            // about 3× faster than batched here, which matters most in the
            // long r = 1 cells); the batched and per-step engines join at
            // the fast-regime ratio, where the three-way cross-validation
            // happens.
            let mut engines = vec![EngineKind::MultiBatch];
            if r == fast_r {
                engines.push(EngineKind::Batched);
                if n <= scale.discovered_per_step_n_cap() {
                    engines.push(EngineKind::PerStep);
                }
            }
            let mut samples_by_engine: Vec<(EngineKind, Vec<f64>)> = Vec::new();
            for engine in engines {
                let started = Instant::now();
                let outcomes = run_trials(trials, base_seed, |seed| {
                    ssle_engine_trial(engine, n, r, seed)
                });
                let elapsed = started.elapsed();
                let samples = stabilization_samples(&outcomes);
                let (mean_interactions, mean_parallel) = if samples.is_empty() {
                    ("—".to_string(), "—".to_string())
                } else {
                    let m = mean(&samples);
                    (fmt_f64(m), fmt_f64(m / n as f64))
                };
                table.push_row([
                    n.to_string(),
                    r.to_string(),
                    engine.label().to_string(),
                    trials.to_string(),
                    samples.len().to_string(),
                    mean_interactions,
                    mean_parallel,
                    fmt_f64(elapsed.as_secs_f64() * 1_000.0),
                ]);
                if !samples.is_empty() {
                    let point = (n as f64, mean(&samples));
                    if r == fast_r {
                        engine_points
                            .iter_mut()
                            .find(|(e, _)| *e == engine)
                            .expect("all engines tracked")
                            .1
                            .push(point);
                    }
                    if engine == EngineKind::MultiBatch {
                        for (rule, points) in rule_points.iter_mut() {
                            let rule_fn = R_RULES
                                .iter()
                                .find(|&&(name, _)| name == *rule)
                                .expect("rule exists")
                                .1;
                            if rule_fn(n).clamp(1, (n / 2).max(1)) == r {
                                points.push(point);
                            }
                        }
                    }
                }
                samples_by_engine.push((engine, samples));
            }
            if let Some((_, per_step)) = samples_by_engine
                .iter()
                .find(|(e, s)| *e == EngineKind::PerStep && !s.is_empty())
            {
                for (engine, samples) in &samples_by_engine {
                    if *engine != EngineKind::PerStep && !samples.is_empty() {
                        overlap_notes.push(cross_validation_note(
                            engine.label(),
                            n,
                            samples,
                            per_step,
                        ));
                    }
                }
            }
        }
    }
    for (engine, points) in &engine_points {
        if points.len() >= 2 {
            table.push_note(format!(
                "{} log–log slope of mean stabilization interactions vs n at r = n/4: {:.2} \
                 (predicted Θ(n²/r · log n) = Θ(n log n), i.e. slope ≈ 1 plus a log factor)",
                engine.label(),
                log_log_slope(points)
            ));
        }
    }
    for (rule, points) in &rule_points {
        if points.len() >= 2 {
            table.push_note(format!(
                "trade-off surface, {rule}: multibatch log–log slope {:.2} \
                 (predicted exponent falls from ≈ 2 at constant r toward ≈ 1 as r grows with n)",
                log_log_slope(points)
            ));
        }
    }
    table.push_note(format!(
        "The r trade-off surface sweeps the full grid up to n = {} at this scale; larger n run \
         the fast-regime ratio r = n/4 only (the r = 1 cells cost Θ(n² log n) interactions with \
         a large constant).",
        scale.discovered_surface_n_cap()
    ));
    table.notes.extend(overlap_notes);
    table.push_note(
        "Both count-based engines reach ElectLeader_r through ppsim::DiscoveredProtocol — state \
         indices are assigned lazily as states are first reached (with per-pair transition-\
         support memoization), no up-front |Q|² enumeration; the states-discovered count per run \
         is a vanishing corner of the nominal state space."
            .to_string(),
    );
    table.push_note(
        "Wall-clock: before stabilization nearly every ElectLeader_r interaction is \
         state-changing, so the batched engine cannot skip silent runs at these sizes and pays \
         sparse-pair-index maintenance per transition. The multi-batch engine instead pays per \
         Θ(√n)-interaction epoch and resolves the deterministic tick/meeting groups in bulk \
         (randomized ranking draws still take the blind per-interaction path), which makes it \
         roughly 3× faster than batched on these cells — compare the paired 'cell wall ms' \
         entries at r = n/4."
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three trials a side cannot reject at 1% (critical ≈ 1.33), so even
    /// disjoint samples — KS distance 1 — get no "agree" verdict.
    #[test]
    fn cross_validation_note_withholds_the_verdict_on_tiny_samples() {
        let note = cross_validation_note("batched", 12, &[10.0, 11.0, 12.0], &[20.0, 21.0, 22.0]);
        assert!(note.contains("insufficient sample"), "{note}");
        assert!(note.contains("KS distance 1.000"), "{note}");
        assert!(!note.contains("engines agree"), "{note}");
        // Enough samples to reject: the same separation is a disagreement.
        let (low, high): (Vec<f64>, Vec<f64>) =
            (0..24).map(|i| (i as f64, 100.0 + i as f64)).unzip();
        let note = cross_validation_note("batched", 12, &low, &high);
        assert!(note.contains("ENGINES DISAGREE"), "{note}");
    }

    #[test]
    fn batched_trial_stabilizes_a_tiny_instance() {
        let outcome = ssle_engine_trial(EngineKind::Batched, 12, sweep_r(12), 7);
        assert!(outcome.stabilized, "tiny clean instance must stabilize");
        assert!(outcome.parallel_time().unwrap() > 0.0);
    }

    #[test]
    fn multibatch_trial_stabilizes_a_tiny_instance() {
        let outcome = ssle_engine_trial(EngineKind::MultiBatch, 12, sweep_r(12), 7);
        assert!(outcome.stabilized, "tiny clean instance must stabilize");
        assert!(outcome.parallel_time().unwrap() > 0.0);
    }

    #[test]
    fn e11_reports_every_engine_and_the_slope_fits() {
        let table = e11_discovered_curves(Scale::Tiny);
        let count = |label: &str| table.rows.iter().filter(|r| r[2] == label).count();
        let ns = Scale::Tiny.discovered_n_values();
        // One multibatch row per (n, r) cell — the full grid up to the
        // surface cap, the fast regime alone above it — and one batched row
        // per n.
        let multibatch_cells: usize = ns
            .iter()
            .map(|&n| {
                if n <= Scale::Tiny.discovered_surface_n_cap() {
                    Scale::Tiny.discovered_r_values(n).len()
                } else {
                    1
                }
            })
            .sum();
        assert_eq!(count("multibatch"), multibatch_cells);
        assert_eq!(count("batched"), ns.len());
        assert!(count("per-step") >= 1, "cross-validation rows must exist");
        assert!(
            table.notes.iter().any(|n| n.contains("log–log slope")),
            "slope fit note missing: {:?}",
            table.notes
        );
        assert!(
            table
                .notes
                .iter()
                .any(|n| n.contains("trade-off surface, r = 1")),
            "surface slope notes missing: {:?}",
            table.notes
        );
        assert!(
            table
                .notes
                .iter()
                .any(|n| n.contains("multibatch vs per-step") && n.contains("KS distance")),
            "multibatch cross-validation note missing: {:?}",
            table.notes
        );
        assert!(
            table
                .notes
                .iter()
                .any(|n| n.contains("batched vs per-step") && n.contains("KS distance")),
            "batched cross-validation note missing: {:?}",
            table.notes
        );
    }
}
