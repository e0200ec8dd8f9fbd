//! The experiments of `EXPERIMENTS.md` (E1–E11).
//!
//! Every experiment is a function from a [`Scale`] to a [`Table`], listed
//! once, with its id and description, in [`REGISTRY`]. The sub-modules group
//! the experiments by theme:
//!
//! * [`tradeoff`] — E1 (time axis of Theorem 1.1) and E2 (space axis),
//! * [`reset`] — E3 (correctness after a full reset, Lemma 6.2) and E7 (soft
//!   reset safety, Section 3.2),
//! * [`recovery`] — E4 (recovery hierarchy, Lemma 6.3) and E5
//!   (collision-detection latency, Lemma E.1),
//! * [`comparison`] — E6 (`ElectLeader_r` versus the baseline protocols),
//! * [`substrate`] — E8 (epidemic constant and load balancing) and E9
//!   (synthetic-coin quality, Appendix B),
//! * [`scaling`] — E10 (epidemic throughput of every engine tier at large
//!   `n`, from a sparse and a dense start, enumerated and discovered),
//! * [`discovered`] — E11 (`ElectLeader_r` stabilization curves under the
//!   batched engine via dynamic state indexing),
//! * [`fleet`] — F1 (trial-fleet throughput: trials/sec at 1 vs N worker
//!   threads, with an inline bit-identity check on the aggregates),
//! * [`profiling`] — P1 (engine instrumentation profile: ns/interaction by
//!   engine mode and the measured multi-batch epoch constant, read from the
//!   `ppsim::telemetry` probes; also builds the `--trace` reference export).

pub mod comparison;
pub mod discovered;
pub mod fleet;
pub mod profiling;
pub mod recovery;
pub mod reset;
pub mod scaling;
pub mod substrate;
pub mod tradeoff;

use crate::runner::TrialOutcome;
use crate::scale::Scale;
use crate::service::{service_sweep, JobSpec, SWEEP_EXPERIMENT};
use crate::table::Table;
use ppsim::rng::derive_seed;
use ppsim::simulation::StabilizationOptions;
use ppsim::{Configuration, SimRng, Simulation};
use ssle_core::{output, ElectLeader, Scenario};

/// One entry of the experiment [`REGISTRY`]: the id the driver and the
/// service accept, a one-line description for the driver's usage text, and
/// the runner.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The selection id (`"e1"`, `"fleet"`, `"sweep"`, …).
    pub id: &'static str,
    /// What the table measures, in one line.
    pub description: &'static str,
    /// Builds the table at a scale.
    pub run: fn(Scale) -> Table,
}

/// Every experiment the driver and the service can run, in `all` order
/// (E1…E11, F1, P1), followed by the service's deterministic epidemic
/// `sweep`, which is reachable by id but not part of `all`.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "e1",
        description: "stabilization time vs r (Theorem 1.1, time axis)",
        run: tradeoff::e1_tradeoff_time,
    },
    Experiment {
        id: "e2",
        description: "state-space size vs r (Theorem 1.1, space axis)",
        run: tradeoff::e2_state_space,
    },
    Experiment {
        id: "e3",
        description: "stabilization after a full reset (Lemma 6.2)",
        run: reset::e3_post_reset,
    },
    Experiment {
        id: "e4",
        description: "recovery from adversarial starts (Lemma 6.3)",
        run: recovery::e4_recovery,
    },
    Experiment {
        id: "e5",
        description: "collision-detection latency (Lemma E.1)",
        run: recovery::e5_collision_latency,
    },
    Experiment {
        id: "e6",
        description: "ElectLeader_r vs baselines",
        run: comparison::e6_versus_baselines,
    },
    Experiment {
        id: "e7",
        description: "soft-reset safety (Section 3.2)",
        run: reset::e7_soft_reset,
    },
    Experiment {
        id: "e8",
        description: "epidemic & load-balancing substrate (Lemmas A.2, E.6)",
        run: substrate::e8_substrate,
    },
    Experiment {
        id: "e9",
        description: "synthetic-coin quality (Appendix B)",
        run: substrate::e9_coin,
    },
    Experiment {
        id: "e10",
        description: "engine scale sweep: epidemic throughput of every engine tier at large n",
        run: scaling::e10_engine_scale,
    },
    Experiment {
        id: "e11",
        description: "ElectLeader_r stabilization curves + r trade-off surface \
                      (dynamic indexing)",
        run: discovered::e11_discovered_curves,
    },
    Experiment {
        id: "fleet",
        description: "F1 trial-fleet throughput: trials/sec at 1 vs N worker threads",
        run: fleet::f1_fleet_throughput,
    },
    Experiment {
        id: "p1",
        description: "engine instrumentation profile: ns/interaction by mode (telemetry spans)",
        run: profiling::p1_engine_profile,
    },
    Experiment {
        id: SWEEP_EXPERIMENT,
        description: "deterministic epidemic sweep (timing-free; the service's native workload)",
        run: |scale| service_sweep(&JobSpec::new(SWEEP_EXPERIMENT, scale)),
    },
];

/// The experiments `all` runs: every [`REGISTRY`] entry but the `sweep`, in
/// order.
pub fn all() -> impl Iterator<Item = &'static Experiment> {
    REGISTRY.iter().filter(|e| e.id != SWEEP_EXPERIMENT)
}

/// The [`REGISTRY`] entry named `id`, if any.
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// Runs the experiment named `id` at `scale`, or `None` for an unknown id.
pub fn by_id(id: &str, scale: Scale) -> Option<Table> {
    find(id).map(|e| (e.run)(scale))
}

/// Whether `id` names a [`REGISTRY`] experiment, without running anything —
/// the cheap existence check job-spec validation needs.
pub fn by_id_exists(id: &str) -> bool {
    find(id).is_some()
}

/// Runs one `ElectLeader_r` trial: build the instance, generate the
/// scenario's initial configuration, and measure the stabilization time of
/// the correct-output predicate.
pub fn ssle_trial(n: usize, r: usize, scenario: Scenario, seed: u64) -> TrialOutcome {
    let protocol = ElectLeader::with_n_r(n, r).expect("experiment parameters are valid");
    let budget = protocol.params().suggested_budget();
    let mut scenario_rng = SimRng::seed_from_u64(derive_seed(seed, 0xA0));
    let config = scenario.generate(&protocol, &mut scenario_rng);
    let mut sim = Simulation::new(protocol, config, derive_seed(seed, 0xB0));
    let result = sim.measure_stabilization(
        output::is_correct_output,
        StabilizationOptions::new(n, budget),
    );
    TrialOutcome {
        stabilized: result.stabilized(),
        stabilized_at: result.stabilized_at,
        total_interactions: result.interactions,
        n,
    }
}

/// Runs one trial of an arbitrary protocol from its clean configuration,
/// measuring the stabilization time of `pred`.
pub fn clean_start_trial<P, F>(protocol: P, budget: u64, seed: u64, pred: F) -> TrialOutcome
where
    P: ppsim::Protocol + ppsim::CleanInit,
    F: FnMut(&Configuration<P::State>) -> bool,
{
    let n = protocol.population_size();
    let config = Configuration::clean(&protocol);
    let mut sim = Simulation::new(protocol, config, seed);
    let result = sim.measure_stabilization(pred, StabilizationOptions::new(n, budget));
    TrialOutcome {
        stabilized: result.stabilized(),
        stabilized_at: result.stabilized_at,
        total_interactions: result.interactions,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssle_trial_stabilizes_a_tiny_clean_instance() {
        let outcome = ssle_trial(16, 8, Scenario::Clean, 1);
        assert!(outcome.stabilized, "tiny clean instance must stabilize");
        assert!(outcome.parallel_time().unwrap() > 0.0);
    }

    #[test]
    fn by_id_rejects_unknown_ids() {
        assert!(by_id("e42", Scale::Tiny).is_none());
    }

    #[test]
    fn registry_ids_are_unique_and_accepted_by_the_service() {
        for (i, entry) in REGISTRY.iter().enumerate() {
            assert!(
                REGISTRY[..i].iter().all(|e| e.id != entry.id),
                "duplicate id {}",
                entry.id
            );
            assert!(by_id_exists(entry.id), "{}", entry.id);
            assert_eq!(JobSpec::new(entry.id, Scale::Tiny).validate(), Ok(()));
        }
        assert!(!by_id_exists("e42"));
        assert!(JobSpec::new("e42", Scale::Tiny).validate().is_err());
    }

    #[test]
    fn all_runs_e1_to_e11_then_fleet_and_p1_without_the_sweep() {
        let ids: Vec<&str> = all().map(|e| e.id).collect();
        assert_eq!(
            ids,
            ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "fleet", "p1"]
        );
        assert!(find(SWEEP_EXPERIMENT).is_some());
    }
}
