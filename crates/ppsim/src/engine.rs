//! The unified engine API: one trait over every simulation engine, the one
//! builder that constructs them, and the adaptive auto-switching engine.
//!
//! * [`SimulationEngine`] — the shared run surface as an object-safe trait,
//!   with predicates over [`CountConfiguration`] (the representation every
//!   engine can serve) and an explicit
//!   [`SimulationEngine::predicate_granularity`] so callers can see *when*
//!   their predicate is actually observed,
//! * [`EngineKind`] — the tier selector: [`EngineKind::PerStep`],
//!   [`EngineKind::Batched`], [`EngineKind::MultiBatch`] and
//!   [`EngineKind::Auto`],
//! * [`SimBuilder`] — protocol + init + seed + kind → engine, and the only
//!   way to construct one: [`SimBuilder::try_build`] validates the inputs
//!   once, for every tier,
//! * [`AdaptiveSimulation`] — the `Auto` tier as a concrete type (from
//!   [`SimBuilder::build_adaptive`]), for handoff introspection: it runs the
//!   multi-batch engine while the measured active-interaction fraction is
//!   high and hands the count vector to the batched engine (and back) at a
//!   hysteresis threshold, preserving exact budget accounting and absolute
//!   interaction indices across the handoff.
//!
//! The per-step tier wraps a [`Simulation`] in an incrementally maintained
//! count mirror (two `encode` calls per interaction), so per-step runs serve
//! the same count predicates as the count tiers at O(1) per check. Every
//! tier differs from the others only in how it takes one step; the `run`,
//! `run_until` and `measure_stabilization` loops of [`crate::simulation`]
//! drive all four, and the bare [`Simulation`] too.
//!
//! # Predicate granularity
//!
//! The engines observe stop/stabilization predicates at different points,
//! and this is the **one** place the contract is written down:
//!
//! * [`EngineKind::PerStep`] evaluates predicates after every interaction
//!   ([`PredicateGranularity::Interaction`]).
//! * [`EngineKind::Batched`] evaluates predicates after every state-changing
//!   interaction — exact, because silent interactions cannot change the
//!   configuration ([`PredicateGranularity::Interaction`]).
//! * [`EngineKind::MultiBatch`] evaluates predicates at epoch commits — the
//!   interactions inside an epoch have no defined intermediate order — so
//!   hitting times carry `O(√n)` observation granularity
//!   ([`PredicateGranularity::EpochCommit`]).
//! * [`EngineKind::Auto`] reports the granularity of whichever engine is
//!   currently active.
//!
//! # Quick example
//!
//! ```
//! use ppsim::engine::{EngineKind, SimBuilder, SimulationEngine};
//! use ppsim::epidemic::{OneWayEpidemic, INFORMED};
//!
//! // One entry point for every engine tier: pick a kind — or let `Auto`
//! // switch between the count engines as activity rises and falls.
//! let mut sim = SimBuilder::new(OneWayEpidemic::new(10_000, 1))
//!     .seed(7)
//!     .kind(EngineKind::Auto)
//!     .build();
//! let out = sim.run_until(&mut |c| c.count(INFORMED) == c.population(), u64::MAX);
//! assert!(out.satisfied);
//! assert_eq!(sim.counts().count(INFORMED), 10_000);
//! ```

use crate::batched::BatchSimulation;
use crate::configuration::Configuration;
use crate::convergence::StabilizationResult;
use crate::count_config::{validate_engine_inputs, validate_population, CountConfiguration};
use crate::enumerable::EnumerableProtocol;
use crate::error::SimError;
use crate::multibatch::MultiBatchSimulation;
use crate::protocol::CleanInit;
use crate::rng::derive_seed;
use crate::simulation::{self, RunOutcome, Simulation, StabilizationOptions, Stepper};
use crate::telemetry::{BalanceSummary, Counter, SpanKind, Telemetry};
use serde::Serialize;

/// The simulation engine a run executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EngineKind {
    /// The per-agent engine: a [`Simulation`] plus a count mirror. Pays for
    /// every interaction, works for any enumerable protocol, exact per-agent
    /// trajectories.
    PerStep,
    /// The batched count-based engine ([`crate::batched`]): skips silent
    /// runs geometrically, pays per state-changing interaction.
    Batched,
    /// The multi-batch collision sampler ([`crate::multibatch`]): resolves
    /// `Θ(√n)`-interaction epochs per statistical draw, pays per epoch
    /// regardless of how many interactions change state.
    MultiBatch,
    /// The adaptive engine ([`AdaptiveSimulation`]): multi-batch while the
    /// measured active-interaction fraction is high, batched once silence
    /// dominates, switching at a hysteresis threshold.
    Auto,
}

impl EngineKind {
    /// The engine's name as used in experiment-table rows and CLI arguments.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::PerStep => "per-step",
            EngineKind::Batched => "batched",
            EngineKind::MultiBatch => "multibatch",
            EngineKind::Auto => "auto",
        }
    }

    /// Parses an engine kind from its [`EngineKind::label`] token.
    pub fn parse(token: &str) -> Option<EngineKind> {
        match token {
            "per-step" => Some(EngineKind::PerStep),
            "batched" => Some(EngineKind::Batched),
            "multibatch" => Some(EngineKind::MultiBatch),
            "auto" => Some(EngineKind::Auto),
            _ => None,
        }
    }
}

/// When an engine actually observes stop/stabilization predicates — see the
/// [module docs](self) for the per-engine table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum PredicateGranularity {
    /// Observed after every interaction that can change the configuration:
    /// hitting times are exact at interaction resolution.
    Interaction,
    /// Observed at epoch commits with the given expected epoch length
    /// (`≈ 0.63·√n` interactions): hitting times overshoot by one epoch.
    EpochCommit {
        /// Expected epoch length in interactions.
        expected_interactions: u64,
    },
}

/// The shared surface of every simulation engine.
///
/// Predicates are functions of the [`CountConfiguration`] — the one
/// representation all engines can serve (the per-step engine maintains an
/// exact count mirror). They are taken as `&mut dyn FnMut` so the trait
/// stays object-safe and a [`SimBuilder`]-built
/// `Box<dyn SimulationEngine<P>>` exposes the full surface; pass a closure
/// as `&mut |c| ...`.
///
/// Interaction-index conventions are shared across all implementations:
/// [`RunOutcome::interactions`] and [`StabilizationResult::interactions`]
/// are *relative* (executed by that call), while
/// [`StabilizationResult::stabilized_at`] and
/// [`SimulationEngine::interactions`] are *absolute* (counted from the
/// engine's construction — and preserved across [`AdaptiveSimulation`]
/// handoffs).
pub trait SimulationEngine<P: EnumerableProtocol> {
    /// The protocol being simulated.
    fn protocol(&self) -> &P;

    /// The current configuration, as state counts.
    fn counts(&self) -> &CountConfiguration;

    /// Materializes the current configuration per agent. Count engines order
    /// agents by state index (agents are anonymous); the per-step engine
    /// preserves true agent identities.
    fn to_configuration(&self) -> Configuration<P::State>;

    /// Number of interactions executed since construction (absolute).
    fn interactions(&self) -> u64;

    /// Parallel time elapsed so far (interactions divided by `n`).
    fn parallel_time(&self) -> f64 {
        self.interactions() as f64 / self.counts().population() as f64
    }

    /// When this engine observes predicates — epoch-level vs
    /// interaction-level; see the [module docs](self).
    ///
    /// The granularity is also the engine's *observability* contract:
    /// anything finer than it simply does not exist in the engine's state.
    /// In particular, per-agent interaction load is available only from the
    /// per-step engine (enable telemetry through [`SimBuilder::telemetry`]
    /// and read [`crate::TelemetryReport::balance`]) — the count engines
    /// treat agents as anonymous multiplicities, so a batched or
    /// epoch-commit granularity implies there is no per-agent interaction
    /// load to report, at any price.
    fn predicate_granularity(&self) -> PredicateGranularity;

    /// Executes up to `budget` interactions unconditionally and returns the
    /// number executed (always `budget`: the builder only ever runs the
    /// uniform scheduler, which never runs out).
    fn run(&mut self, budget: u64) -> u64;

    /// Runs until `pred` holds or `budget` interactions have been executed
    /// by this call, observing `pred` at this engine's
    /// [`SimulationEngine::predicate_granularity`].
    fn run_until(
        &mut self,
        pred: &mut dyn FnMut(&CountConfiguration) -> bool,
        budget: u64,
    ) -> RunOutcome;

    /// Measures the stabilization time of `pred`:
    /// [`StabilizationResult::stabilized_at`] is the absolute interaction
    /// index from which the predicate held until the end of the run, with
    /// the run stopping early once it has held for `opts.confirm_window`
    /// consecutive interactions.
    fn measure_stabilization(
        &mut self,
        pred: &mut dyn FnMut(&CountConfiguration) -> bool,
        opts: StabilizationOptions,
    ) -> StabilizationResult;
}

/// The expected multi-batch epoch length at population size `n`
/// (`≈ 0.63·√n` by the birthday bound), as advertised through
/// [`PredicateGranularity::EpochCommit`].
pub(crate) fn expected_epoch_length(n: u64) -> u64 {
    ((0.6321 * (n as f64).sqrt()).ceil() as u64).max(1)
}

/// The fraction of ordered agent pairs that are currently *non-silent*,
/// recomputed from the counts in `O(#occupied states²)` silence queries.
///
/// This is the activity measure [`AdaptiveSimulation`] uses while the
/// multi-batch engine is active (the batched engine answers the same
/// question exactly in O(1) from its pair weights).
fn measured_active_fraction<P: EnumerableProtocol>(
    protocol: &P,
    counts: &CountConfiguration,
) -> f64 {
    let n = counts.population();
    let occupied: Vec<(usize, u64)> = counts.occupied().collect();
    // u128 accumulation: a single product c_u · c_v overflows u64 once both
    // counts pass 2³², and the total reaches n(n−1). The denominator is an
    // f64 product for the same reason.
    let mut weight = 0u128;
    for &(u, cu) in &occupied {
        for &(v, cv) in &occupied {
            if !protocol.is_silent(u, v) {
                weight += if u == v {
                    u128::from(cu) * u128::from(cu - 1)
                } else {
                    u128::from(cu) * u128::from(cv)
                };
            }
        }
    }
    weight as f64 / (n as f64 * (n - 1) as f64)
}

/// The per-step tier: a [`Simulation`] behind the count-predicate surface.
///
/// Maintains an **exact count mirror** of the configuration: after every
/// interaction the two touched agents' states are re-encoded (two
/// [`EnumerableProtocol::encode`] calls) and the four affected counters
/// updated, so count predicates cost O(occupied states) per evaluation
/// instead of an O(n) rebuild. The underlying simulation consumes randomness
/// exactly as a bare [`Simulation`] with the same seed — trajectories are
/// identical, the mirror is pure bookkeeping. Predicates are evaluated after
/// every interaction.
#[derive(Debug)]
pub(crate) struct PerStepEngine<P: EnumerableProtocol> {
    sim: Simulation<P>,
    counts: CountConfiguration,
    /// `encoded[a]` is the state index agent `a` currently holds — the
    /// per-agent half of the mirror, needed to know which counter an agent
    /// leaves when its state changes.
    encoded: Vec<usize>,
    /// Observability handle; disabled by default, in which case every probe
    /// is an early-out on a `None` and trajectories are untouched.
    telemetry: Telemetry,
}

impl<P: EnumerableProtocol> PerStepEngine<P> {
    /// Builds the engine from inputs [`SimBuilder::try_build`] validated:
    /// `counts` is the count view of `config`.
    fn from_parts(
        protocol: P,
        config: Configuration<P::State>,
        counts: CountConfiguration,
        seed: u64,
        telemetry: Telemetry,
    ) -> Self {
        let encoded = config.iter().map(|s| protocol.encode(s)).collect();
        PerStepEngine {
            sim: Simulation::new(protocol, config, seed),
            counts,
            encoded,
            telemetry,
        }
    }

    /// Pushes the simulation's per-agent load summary into the telemetry
    /// report (a no-op unless telemetry is enabled).
    fn flush_balance(&self) {
        if self.telemetry.is_enabled() {
            let metrics = self.sim.metrics();
            self.telemetry.record_balance(BalanceSummary {
                n: self.encoded.len() as u64,
                total: metrics.total(),
                min: metrics.min(),
                max: metrics.max(),
                max_imbalance: metrics.max_imbalance(),
            });
        }
    }
}

/// One interaction per step, then the count-mirror update.
impl<P: EnumerableProtocol> Stepper for PerStepEngine<P> {
    type View = CountConfiguration;

    fn view(&self) -> &CountConfiguration {
        &self.counts
    }

    fn total_interactions(&self) -> u64 {
        self.sim.interactions()
    }

    fn population(&self) -> usize {
        self.encoded.len()
    }

    fn advance(&mut self, _cap: u64) -> (u64, bool) {
        let Some(pair) = self.sim.step() else {
            return (0, true);
        };
        self.telemetry.count(Counter::PerStepInteractions, 1);
        let (i, j) = (pair.initiator.index(), pair.responder.index());
        let (new_u, new_v) = {
            let protocol = self.sim.protocol();
            let config = self.sim.configuration();
            (
                protocol.encode(config.state(pair.initiator)),
                protocol.encode(config.state(pair.responder)),
            )
        };
        let (old_u, old_v) = (self.encoded[i], self.encoded[j]);
        if (new_u, new_v) != (old_u, old_v) {
            self.counts
                .ensure_num_states(self.sim.protocol().num_states());
            self.counts.apply_transition((old_u, old_v), (new_u, new_v));
            self.encoded[i] = new_u;
            self.encoded[j] = new_v;
        }
        (1, false)
    }

    fn span(&self) -> Option<(&Telemetry, SpanKind)> {
        Some((&self.telemetry, SpanKind::PerStepRun))
    }
}

impl<P: EnumerableProtocol> SimulationEngine<P> for PerStepEngine<P> {
    fn protocol(&self) -> &P {
        self.sim.protocol()
    }

    fn counts(&self) -> &CountConfiguration {
        &self.counts
    }

    fn to_configuration(&self) -> Configuration<P::State> {
        Configuration::from_states(self.sim.configuration().as_slice().to_vec())
    }

    fn interactions(&self) -> u64 {
        self.sim.interactions()
    }

    fn predicate_granularity(&self) -> PredicateGranularity {
        PredicateGranularity::Interaction
    }

    fn run(&mut self, budget: u64) -> u64 {
        let done = simulation::run(self, budget);
        self.flush_balance();
        done
    }

    fn run_until(
        &mut self,
        pred: &mut dyn FnMut(&CountConfiguration) -> bool,
        budget: u64,
    ) -> RunOutcome {
        let out = simulation::run_until(self, pred, budget);
        self.flush_balance();
        out
    }

    fn measure_stabilization(
        &mut self,
        pred: &mut dyn FnMut(&CountConfiguration) -> bool,
        opts: StabilizationOptions,
    ) -> StabilizationResult {
        let result = simulation::measure_stabilization(self, pred, opts);
        self.flush_balance();
        result
    }
}

/// Switching policy of the [`AdaptiveSimulation`].
///
/// The policy is a hysteresis band on the *active-interaction fraction* —
/// the probability that a uniformly random ordered pair changes state. The
/// batched engine's cost per interaction is proportional to that fraction
/// (it pays only for state changes), while the multi-batch engine's is a
/// constant `≈ 1/(0.63·√n)` epoch share — so high activity favors
/// multi-batch and silence favors batched. Decisions depend only on
/// simulation state (never on wall-clock time), so adaptive runs stay
/// deterministic under a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AdaptiveConfig {
    /// Hand off multi-batch → batched when the active fraction drops below
    /// this.
    pub low_activity: f64,
    /// Hand off batched → multi-batch when the active fraction rises above
    /// this. Must be strictly greater than
    /// [`AdaptiveConfig::low_activity`] (the gap is the hysteresis band
    /// that prevents thrashing).
    pub high_activity: f64,
    /// Interactions between activity measurements (each measurement costs
    /// O(#occupied states²) silence queries in multi-batch mode, O(1) in
    /// batched mode). `0` resolves to `max(n, 1024)` at construction.
    pub check_interval: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            low_activity: 0.02,
            high_activity: 0.08,
            check_interval: 0,
        }
    }
}

impl AdaptiveConfig {
    /// Resolves the auto values against a population size and validates the
    /// band.
    fn try_resolved(self, n: u64) -> Result<Self, SimError> {
        if self.low_activity >= self.high_activity {
            return Err(SimError::InvalidParameters {
                reason: "hysteresis band requires low_activity < high_activity".into(),
            });
        }
        Ok(AdaptiveConfig {
            check_interval: if self.check_interval == 0 {
                n.max(1024)
            } else {
                self.check_interval
            },
            ..self
        })
    }
}

/// The currently active engine of an [`AdaptiveSimulation`].
#[derive(Debug)]
enum ActiveEngine<P: EnumerableProtocol> {
    // Boxed so the enum stays pointer-sized regardless of how wide the
    // engines' inline state (u128 Fenwick bookkeeping and friends) grows.
    Batched(Box<BatchSimulation<P>>),
    MultiBatch(Box<MultiBatchSimulation<P>>),
    /// Transient state during a handoff only; observable states are always
    /// one of the two engines.
    Swapping,
}

/// The `Auto` engine tier: multi-batch while activity is high, batched once
/// silence dominates.
///
/// The engine measures the active-interaction fraction every
/// [`AdaptiveConfig::check_interval`] interactions and hands the count
/// vector between the multi-batch and batched engines at the configured
/// hysteresis thresholds. Handoffs are **exact**: both engines truncate
/// their batches at arbitrary interaction budgets without biasing the
/// schedule (geometric silent runs are memoryless, epoch prefixes are
/// exchangeable), so the stitched run has exactly the uniform-scheduler
/// distribution, and [`SimulationEngine::interactions`] /
/// [`StabilizationResult::stabilized_at`] stay absolute across handoffs.
///
/// The per-handoff cost is one `O(#occupied states²)` pair-index rebuild
/// (when entering batched mode); the hysteresis band keeps handoffs rare.
/// Each retired engine's RNG is dropped and the successor's is seeded as
/// `derive_seed(seed, #handoffs)`, so a fixed seed still reproduces the run
/// bit-for-bit.
///
/// Built by [`SimBuilder::build_adaptive`] (this concrete type) or
/// [`SimBuilder::build`] with [`EngineKind::Auto`] (boxed). It supports
/// exactly the populations its two inner count engines accept, and inherits
/// their `O(#occupied states + √n)` memory bound.
#[derive(Debug)]
pub struct AdaptiveSimulation<P: EnumerableProtocol> {
    inner: ActiveEngine<P>,
    /// Master seed; engine `k` (0-based by handoff count) runs under
    /// `derive_seed(seed, k)`.
    seed: u64,
    handoffs: u64,
    /// Interactions executed by retired engines — added to the active
    /// engine's counter to keep absolute indices.
    base_interactions: u64,
    config: AdaptiveConfig,
    /// Interactions until the next activity measurement.
    until_check: u64,
    /// Observability handle; cloned into every inner engine so per-mode
    /// counters and spans attribute themselves, and the handoff event
    /// stream records each swap at its absolute interaction index.
    telemetry: Telemetry,
}

impl<P: EnumerableProtocol> AdaptiveSimulation<P> {
    /// Builds the tier from inputs [`SimBuilder::try_build`] validated, with
    /// `config` resolved. The initial engine is chosen by measuring the
    /// initial activity against [`AdaptiveConfig::high_activity`]; an enabled
    /// telemetry handle records that choice as an `engine_selected` event.
    fn from_parts(
        protocol: P,
        counts: CountConfiguration,
        seed: u64,
        config: AdaptiveConfig,
        telemetry: Telemetry,
    ) -> Self {
        let fraction = measured_active_fraction(&protocol, &counts);
        let engine_seed = derive_seed(seed, 0);
        let inner = if fraction > config.high_activity {
            ActiveEngine::MultiBatch(Box::new(MultiBatchSimulation::from_parts(
                protocol,
                counts,
                engine_seed,
                telemetry.clone(),
            )))
        } else {
            ActiveEngine::Batched(Box::new(BatchSimulation::from_parts(
                protocol,
                counts,
                engine_seed,
                telemetry.clone(),
            )))
        };
        let sim = AdaptiveSimulation {
            inner,
            seed,
            handoffs: 0,
            base_interactions: 0,
            until_check: config.check_interval,
            config,
            telemetry,
        };
        if sim.telemetry.is_enabled() {
            sim.telemetry
                .record_engine_selected(sim.current_kind().label(), sim.active_fraction());
        }
        sim
    }

    /// The active engine, behind the engine surface.
    fn active(&self) -> &dyn SimulationEngine<P> {
        match &self.inner {
            ActiveEngine::Batched(sim) => sim.as_ref(),
            ActiveEngine::MultiBatch(sim) => sim.as_ref(),
            ActiveEngine::Swapping => unreachable!("engine mid-handoff"),
        }
    }

    /// The engine currently executing interactions
    /// ([`EngineKind::Batched`] or [`EngineKind::MultiBatch`]).
    pub fn current_kind(&self) -> EngineKind {
        match &self.inner {
            ActiveEngine::Batched(_) => EngineKind::Batched,
            ActiveEngine::MultiBatch(_) => EngineKind::MultiBatch,
            ActiveEngine::Swapping => unreachable!("engine mid-handoff"),
        }
    }

    /// Number of engine handoffs so far.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// The current active-interaction fraction — exact in batched mode,
    /// recomputed from the counts in multi-batch mode.
    pub fn active_fraction(&self) -> f64 {
        match &self.inner {
            ActiveEngine::Batched(sim) => sim.active_fraction(),
            ActiveEngine::MultiBatch(sim) => measured_active_fraction(sim.protocol(), sim.counts()),
            ActiveEngine::Swapping => unreachable!("engine mid-handoff"),
        }
    }

    /// The switching policy in effect (with auto values resolved).
    pub fn adaptive_config(&self) -> AdaptiveConfig {
        self.config
    }

    /// The current configuration, as state counts.
    pub fn counts(&self) -> &CountConfiguration {
        self.active().counts()
    }

    /// [`SimulationEngine::run_until`] taking the predicate by value. The
    /// predicate is observed at the *active* engine's granularity (exact per
    /// state change in batched mode, per epoch commit in multi-batch mode).
    pub fn run_until<F>(&mut self, pred: F, budget: u64) -> RunOutcome
    where
        F: FnMut(&CountConfiguration) -> bool,
    {
        simulation::run_until(self, pred, budget)
    }

    /// [`SimulationEngine::measure_stabilization`] taking the predicate by
    /// value. Both the pre-stabilization phase and the confirmation window
    /// run under whichever engine the activity measurements favor — e.g. the
    /// long silent confirmation window of a stabilized protocol is consumed
    /// by the batched engine's geometric skipping even if the
    /// pre-stabilization phase ran multi-batch.
    pub fn measure_stabilization<F>(
        &mut self,
        pred: F,
        opts: StabilizationOptions,
    ) -> StabilizationResult
    where
        F: FnMut(&CountConfiguration) -> bool,
    {
        simulation::measure_stabilization(self, pred, opts)
    }

    /// Hands the protocol and count vector to the other engine.
    fn swap(&mut self) {
        // The fraction that motivated this swap, re-measured here only when
        // someone is listening (the measurement is observability, never
        // control flow — `maybe_switch` decided already).
        let fraction = if self.telemetry.is_enabled() {
            self.active_fraction()
        } else {
            0.0
        };
        self.base_interactions += self.active().interactions();
        let retired = std::mem::replace(&mut self.inner, ActiveEngine::Swapping);
        self.handoffs += 1;
        let next_seed = derive_seed(self.seed, self.handoffs);
        let telemetry = self.telemetry.clone();
        let (from, to);
        self.inner = match retired {
            ActiveEngine::Batched(sim) => {
                let (protocol, counts) = sim.into_parts();
                (from, to) = (EngineKind::Batched, EngineKind::MultiBatch);
                ActiveEngine::MultiBatch(Box::new(MultiBatchSimulation::from_parts(
                    protocol, counts, next_seed, telemetry,
                )))
            }
            ActiveEngine::MultiBatch(sim) => {
                let (protocol, counts) = sim.into_parts();
                (from, to) = (EngineKind::MultiBatch, EngineKind::Batched);
                ActiveEngine::Batched(Box::new(BatchSimulation::from_parts(
                    protocol, counts, next_seed, telemetry,
                )))
            }
            ActiveEngine::Swapping => unreachable!("engine mid-handoff"),
        };
        self.telemetry.count(Counter::AdaptiveHandoffs, 1);
        self.telemetry.record_handoff(
            self.handoffs,
            self.base_interactions,
            from.label(),
            to.label(),
            fraction,
        );
    }

    /// Measures activity and switches engines if it crossed the band.
    fn maybe_switch(&mut self) {
        self.telemetry.count(Counter::AdaptiveActivityChecks, 1);
        let fraction = self.active_fraction();
        let should_swap = match &self.inner {
            ActiveEngine::Batched(_) => fraction > self.config.high_activity,
            ActiveEngine::MultiBatch(_) => fraction < self.config.low_activity,
            ActiveEngine::Swapping => unreachable!("engine mid-handoff"),
        };
        if should_swap {
            self.swap();
        }
    }

    /// Runs the activity check if its interval elapsed and returns the next
    /// chunk size toward `remaining`.
    fn next_chunk(&mut self, remaining: u64) -> u64 {
        if self.until_check == 0 {
            self.maybe_switch();
            self.until_check = self.config.check_interval;
        }
        remaining.min(self.until_check)
    }
}

impl<P: EnumerableProtocol> Stepper for AdaptiveSimulation<P> {
    type View = CountConfiguration;

    fn view(&self) -> &CountConfiguration {
        self.active().counts()
    }

    fn total_interactions(&self) -> u64 {
        SimulationEngine::interactions(self)
    }

    fn population(&self) -> usize {
        self.active().counts().population() as usize
    }

    /// The activity check, when its interval elapsed, then one step of the
    /// active engine. Never reports a stall: the next check may hand off, so
    /// a stalled inner engine only consumes its chunk as silence.
    fn advance(&mut self, cap: u64) -> (u64, bool) {
        let chunk = self.next_chunk(cap);
        let executed = match &mut self.inner {
            ActiveEngine::Batched(sim) => sim.advance(chunk).0,
            ActiveEngine::MultiBatch(sim) => sim.advance(chunk).0,
            ActiveEngine::Swapping => unreachable!("engine mid-handoff"),
        };
        self.until_check -= executed;
        (executed, false)
    }

    fn span(&self) -> Option<(&Telemetry, SpanKind)> {
        match &self.inner {
            ActiveEngine::Batched(sim) => sim.span(),
            ActiveEngine::MultiBatch(sim) => sim.span(),
            ActiveEngine::Swapping => unreachable!("engine mid-handoff"),
        }
    }
}

impl<P: EnumerableProtocol> SimulationEngine<P> for AdaptiveSimulation<P> {
    fn protocol(&self) -> &P {
        self.active().protocol()
    }

    fn counts(&self) -> &CountConfiguration {
        self.active().counts()
    }

    fn to_configuration(&self) -> Configuration<P::State> {
        self.active().to_configuration()
    }

    /// Absolute across handoffs (retired engines' interactions included).
    fn interactions(&self) -> u64 {
        self.base_interactions + self.active().interactions()
    }

    fn predicate_granularity(&self) -> PredicateGranularity {
        self.active().predicate_granularity()
    }

    fn run(&mut self, budget: u64) -> u64 {
        simulation::run(self, budget)
    }

    fn run_until(
        &mut self,
        pred: &mut dyn FnMut(&CountConfiguration) -> bool,
        budget: u64,
    ) -> RunOutcome {
        simulation::run_until(self, pred, budget)
    }

    fn measure_stabilization(
        &mut self,
        pred: &mut dyn FnMut(&CountConfiguration) -> bool,
        opts: StabilizationOptions,
    ) -> StabilizationResult {
        simulation::measure_stabilization(self, pred, opts)
    }
}

/// How a [`SimBuilder`] initializes the population.
#[derive(Debug)]
enum BuilderInit<S> {
    Clean,
    PerAgent(Configuration<S>),
    Counts(CountConfiguration),
}

/// Builder inputs that passed every check of [`SimBuilder::try_build`].
struct Validated<P: EnumerableProtocol> {
    protocol: P,
    seed: u64,
    kind: EngineKind,
    counts: CountConfiguration,
    /// The per-agent start, kept for [`EngineKind::PerStep`] only.
    agents: Option<Configuration<P::State>>,
    /// Resolved against `n` under [`EngineKind::Auto`], unused otherwise.
    adaptive: AdaptiveConfig,
    telemetry: Telemetry,
}

/// The one way to construct an engine: protocol + init + seed + kind →
/// [`SimulationEngine`].
///
/// Defaults: clean initial configuration, seed 0, [`EngineKind::Auto`]. The
/// tiers, by [`EngineKind`]:
///
/// | kind | engine | pays per |
/// |---|---|---|
/// | [`EngineKind::PerStep`] | the per-agent [`Simulation`] plus a count mirror | interaction |
/// | [`EngineKind::Batched`] | silent runs skipped geometrically ([`crate::batched`]) | state-changing interaction |
/// | [`EngineKind::MultiBatch`] | `Θ(√n)`-interaction epochs per draw ([`crate::multibatch`]) | epoch |
/// | [`EngineKind::Auto`] | [`AdaptiveSimulation`]: multi-batch while activity is high, batched once silence dominates | the cheaper of the two |
///
/// [`SimBuilder::try_build`] validates the inputs and returns a typed
/// [`SimError`]; [`SimBuilder::build`] and [`SimBuilder::build_adaptive`]
/// panic on the same errors.
///
/// ```
/// use ppsim::engine::{EngineKind, SimBuilder, SimulationEngine};
/// use ppsim::epidemic::{OneWayEpidemic, INFORMED};
///
/// let mut sim = SimBuilder::new(OneWayEpidemic::new(512, 1))
///     .kind(EngineKind::Batched)
///     .seed(42)
///     .build();
/// let out = sim.run_until(&mut |c| c.count(INFORMED) == c.population(), u64::MAX);
/// assert!(out.satisfied);
/// ```
#[derive(Debug)]
pub struct SimBuilder<P: EnumerableProtocol> {
    protocol: P,
    seed: u64,
    kind: EngineKind,
    init: BuilderInit<P::State>,
    adaptive: AdaptiveConfig,
    telemetry: Telemetry,
}

impl<P: EnumerableProtocol + 'static> SimBuilder<P> {
    /// Starts a builder for `protocol` with the default clean init, seed 0
    /// and [`EngineKind::Auto`].
    pub fn new(protocol: P) -> Self {
        SimBuilder {
            protocol,
            seed: 0,
            kind: EngineKind::Auto,
            init: BuilderInit::Clean,
            adaptive: AdaptiveConfig::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the engine tier.
    pub fn kind(mut self, kind: EngineKind) -> Self {
        self.kind = kind;
        self
    }

    /// Initializes from an explicit per-agent configuration instead of the
    /// protocol's clean initial configuration.
    pub fn config(mut self, config: Configuration<P::State>) -> Self {
        self.init = BuilderInit::PerAgent(config);
        self
    }

    /// Initializes from an explicit count configuration (materialized into
    /// per-agent form, ordered by state index, if the per-step engine is
    /// selected).
    pub fn counts(mut self, counts: CountConfiguration) -> Self {
        self.init = BuilderInit::Counts(counts);
        self
    }

    /// Sets the [`EngineKind::Auto`] switching policy (ignored by the fixed
    /// tiers).
    pub fn adaptive_config(mut self, config: AdaptiveConfig) -> Self {
        self.adaptive = config;
        self
    }

    /// Attaches a [`Telemetry`] handle to the engine being built.
    ///
    /// Keep a clone: after the run, [`Telemetry::report`] on your copy holds
    /// the counters, histograms, spans, and the deterministic event stream.
    /// The default (a disabled handle) records nothing and costs nothing —
    /// trajectories and RNG streams are bit-identical either way.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Builds the selected engine behind the [`SimulationEngine`] trait.
    ///
    /// This is the one place that validates builder inputs, and the only
    /// place in the workspace that dispatches over [`EngineKind`];
    /// everything downstream works through the trait.
    ///
    /// # Supported populations
    ///
    /// `2 ≤ n ≤ 2⁶²` ([`crate::count_config::MAX_POPULATION`]) for every
    /// tier. The count tiers keep pair weights exact in `u128` and need
    /// `O(#occupied states + √n)` memory at any `n` (a clean init never
    /// materializes agents); the per-step tier is `O(n)` in memory and time,
    /// practical up to `n ≈ 10⁶`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameters`] if an explicit count configuration
    /// does not track the protocol's state space, the initial
    /// configuration's population does not match
    /// [`crate::Protocol::population_size`], `n < 2`, or (under
    /// [`EngineKind::Auto`]) the [`AdaptiveConfig`] hysteresis band is
    /// inverted; [`SimError::UnsupportedPopulation`] past the engine bound.
    pub fn try_build(self) -> Result<Box<dyn SimulationEngine<P>>, SimError>
    where
        P: CleanInit,
    {
        let v = self.validate()?;
        Ok(match v.kind {
            EngineKind::PerStep => {
                let agents = v
                    .agents
                    .unwrap_or_else(|| v.counts.to_configuration(&v.protocol));
                Box::new(PerStepEngine::from_parts(
                    v.protocol,
                    agents,
                    v.counts,
                    v.seed,
                    v.telemetry,
                ))
            }
            EngineKind::Batched => Box::new(BatchSimulation::from_parts(
                v.protocol,
                v.counts,
                v.seed,
                v.telemetry,
            )),
            EngineKind::MultiBatch => Box::new(MultiBatchSimulation::from_parts(
                v.protocol,
                v.counts,
                v.seed,
                v.telemetry,
            )),
            EngineKind::Auto => Box::new(AdaptiveSimulation::from_parts(
                v.protocol,
                v.counts,
                v.seed,
                v.adaptive,
                v.telemetry,
            )),
        })
    }

    /// [`SimBuilder::try_build`], panicking on its errors.
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`] message on any input `try_build`
    /// rejects.
    pub fn build(self) -> Box<dyn SimulationEngine<P>>
    where
        P: CleanInit,
    {
        // lint:allow(panic): documented panicking wrapper; message pinned by should_panic test
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the [`EngineKind::Auto`] engine as its concrete type (for
    /// callers that want handoff introspection — the boxed
    /// [`SimBuilder::build`] surface does not expose it). The selected
    /// [`SimBuilder::kind`] is ignored.
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`] message on any input
    /// [`SimBuilder::try_build`] rejects under [`EngineKind::Auto`].
    pub fn build_adaptive(self) -> AdaptiveSimulation<P>
    where
        P: CleanInit,
    {
        let v = self
            .kind(EngineKind::Auto)
            .validate()
            // lint:allow(panic): documented panicking wrapper; message pinned by should_panic test
            .unwrap_or_else(|e| panic!("{e}"));
        AdaptiveSimulation::from_parts(v.protocol, v.counts, v.seed, v.adaptive, v.telemetry)
    }

    /// Checks the inputs and resolves the init to counts (plus, for the
    /// per-step tier, agents).
    fn validate(self) -> Result<Validated<P>, SimError>
    where
        P: CleanInit,
    {
        let SimBuilder {
            protocol,
            seed,
            kind,
            init,
            adaptive,
            telemetry,
        } = self;
        // Population bounds first, so a rejected `n` builds nothing.
        validate_population(protocol.population_size() as u64)?;
        let per_step = kind == EngineKind::PerStep;
        let (counts, agents) = match init {
            // The count tiers never materialize a clean start's agents; the
            // per-step tier gets them in the protocol's own agent order.
            BuilderInit::Clean => (
                CountConfiguration::from_clean_init(&protocol),
                per_step.then(|| Configuration::clean(&protocol)),
            ),
            BuilderInit::PerAgent(config) => (
                CountConfiguration::from_configuration(&protocol, &config),
                per_step.then_some(config),
            ),
            BuilderInit::Counts(counts) => (counts, None),
        };
        validate_engine_inputs(&protocol, &counts)?;
        let adaptive = if kind == EngineKind::Auto {
            adaptive.try_resolved(counts.population())?
        } else {
            adaptive
        };
        Ok(Validated {
            protocol,
            seed,
            kind,
            counts,
            agents,
            adaptive,
            telemetry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_config::MAX_POPULATION;
    use crate::epidemic::{OneWayEpidemic, TwoWayEpidemic, INFORMED};
    use crate::protocol::Protocol;

    const ALL_KINDS: [EngineKind; 4] = [
        EngineKind::PerStep,
        EngineKind::Batched,
        EngineKind::MultiBatch,
        EngineKind::Auto,
    ];

    fn per_step<P: EnumerableProtocol + CleanInit + 'static>(
        protocol: P,
        seed: u64,
    ) -> SimBuilder<P> {
        SimBuilder::new(protocol)
            .kind(EngineKind::PerStep)
            .seed(seed)
    }

    fn informed_everywhere(c: &CountConfiguration) -> bool {
        c.count(INFORMED) == c.population()
    }

    #[test]
    fn engine_kind_labels_and_parse_round_trip() {
        let kinds = [
            EngineKind::PerStep,
            EngineKind::Batched,
            EngineKind::MultiBatch,
            EngineKind::Auto,
        ];
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        for (kind, label) in kinds.iter().zip(&labels) {
            assert_eq!(EngineKind::parse(label), Some(*kind));
        }
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len(), "labels must be distinct");
        assert_eq!(EngineKind::parse("sequential"), None);
    }

    #[test]
    fn every_kind_completes_the_epidemic_through_the_trait() {
        for kind in ALL_KINDS {
            let mut sim = SimBuilder::new(OneWayEpidemic::new(256, 1))
                .kind(kind)
                .seed(9)
                .build();
            let out = sim.run_until(&mut informed_everywhere, u64::MAX);
            assert!(out.satisfied, "{kind:?}");
            assert_eq!(sim.counts().count(INFORMED), 256, "{kind:?}");
            assert_eq!(sim.interactions(), out.interactions, "{kind:?}");
            assert!(sim.parallel_time() > 0.0, "{kind:?}");
            assert_eq!(sim.to_configuration().len(), 256, "{kind:?}");
            assert_eq!(sim.protocol().population_size(), 256, "{kind:?}");
        }
    }

    #[test]
    fn per_step_engine_mirrors_the_bare_simulation_exactly() {
        // Same seed, same trajectory: the count mirror is pure bookkeeping.
        let protocol = OneWayEpidemic::new(128, 1);
        let config = Configuration::clean(&protocol);
        let mut bare = Simulation::new(protocol, config, 11);
        let bare_out = bare.run_until(|c| c.iter().all(|s| *s), u64::MAX);

        let mut mirrored = per_step(OneWayEpidemic::new(128, 1), 11).build();
        let out = mirrored.run_until(&mut informed_everywhere, u64::MAX);
        assert_eq!(out.interactions, bare_out.interactions);
        assert_eq!(mirrored.counts().count(INFORMED), 128);
    }

    #[test]
    fn per_step_mirror_stays_consistent_with_a_rebuild() {
        let mut sim = per_step(TwoWayEpidemic::new(64, 3), 5).build();
        for _ in 0..20 {
            sim.run(50);
            let rebuilt =
                CountConfiguration::from_configuration(sim.protocol(), &sim.to_configuration());
            assert_eq!(sim.counts(), &rebuilt, "mirror drifted");
        }
    }

    #[test]
    fn granularities_match_the_documented_table() {
        let batched = SimBuilder::new(OneWayEpidemic::new(64, 1))
            .kind(EngineKind::Batched)
            .build();
        assert_eq!(
            batched.predicate_granularity(),
            PredicateGranularity::Interaction
        );
        let per_step = SimBuilder::new(OneWayEpidemic::new(64, 1))
            .kind(EngineKind::PerStep)
            .build();
        assert_eq!(
            per_step.predicate_granularity(),
            PredicateGranularity::Interaction
        );
        let multibatch = SimBuilder::new(OneWayEpidemic::new(10_000, 1))
            .kind(EngineKind::MultiBatch)
            .build();
        match multibatch.predicate_granularity() {
            PredicateGranularity::EpochCommit {
                expected_interactions,
            } => {
                // ≈ 0.63·√10000 ≈ 63.
                assert!((60..=70).contains(&expected_interactions));
            }
            g => panic!("unexpected granularity {g:?}"),
        }
    }

    /// A forced-switching config: thresholds inside the epidemic's activity
    /// range and a tight check interval, so a sparse epidemic hands off
    /// batched → multi-batch → batched within one run.
    fn switchy() -> AdaptiveConfig {
        AdaptiveConfig {
            low_activity: 0.05,
            high_activity: 0.10,
            check_interval: 64,
        }
    }

    #[test]
    fn adaptive_engine_hands_off_in_both_directions() {
        let mut sim = SimBuilder::new(OneWayEpidemic::new(256, 1))
            .config(Configuration::clean(&OneWayEpidemic::new(256, 1)))
            .seed(7)
            .adaptive_config(switchy())
            .build_adaptive();
        assert_eq!(sim.current_kind(), EngineKind::Batched, "sparse start");
        let out = sim.run_until(informed_everywhere, u64::MAX);
        assert!(out.satisfied);
        assert_eq!(sim.counts().count(INFORMED), 256);
        assert!(
            sim.handoffs() >= 2,
            "expected batched → multibatch → batched, got {} handoffs",
            sim.handoffs()
        );
        assert_eq!(
            sim.current_kind(),
            EngineKind::Batched,
            "the near-complete epidemic is silent again"
        );
        assert_eq!(sim.interactions(), out.interactions);
    }

    /// Satellite regression: an adaptive run that hands off
    /// batched → multibatch → batched must construct the multi-batch
    /// survival table exactly once — later multibatch entries hit the
    /// thread-local cache instead of rebuilding the `O(√n)` table.
    #[test]
    fn adaptive_handoffs_reuse_the_survival_table() {
        // The gauge lives in the telemetry layer (always on, telemetry
        // handle or not).
        use crate::telemetry::survival_table_builds;
        // A population no other test on this thread uses (libtest runs each
        // test on its own thread, so the counter starts fresh anyway).
        let n = 633;
        let before = survival_table_builds();
        let mut sim = SimBuilder::new(OneWayEpidemic::new(n, 1))
            .seed(7)
            .adaptive_config(switchy())
            .build_adaptive();
        let out = sim.run_until(|c| c.count(INFORMED) == c.population(), u64::MAX);
        assert!(out.satisfied);
        assert!(
            sim.handoffs() >= 2,
            "run must actually hand off (got {})",
            sim.handoffs()
        );
        assert_eq!(
            survival_table_builds() - before,
            1,
            "multibatch handoffs rebuilt the survival table"
        );
        // Force one more batched → multibatch handoff: a pure cache hit.
        assert_eq!(sim.current_kind(), EngineKind::Batched);
        let after_run = survival_table_builds();
        sim.swap();
        assert_eq!(sim.current_kind(), EngineKind::MultiBatch);
        assert_eq!(
            survival_table_builds(),
            after_run,
            "re-entering multibatch rebuilt the survival table"
        );
    }

    /// The build error for `builder`, which must be rejected.
    fn rejection<P: EnumerableProtocol + CleanInit + 'static>(builder: SimBuilder<P>) -> SimError {
        match builder.try_build() {
            Ok(_) => panic!("invalid input accepted"),
            Err(e) => e,
        }
    }

    fn assert_invalid(err: SimError, reason: &str) {
        assert!(
            matches!(&err, SimError::InvalidParameters { reason: r } if r.contains(reason)),
            "expected InvalidParameters containing {reason:?}, got {err:?}"
        );
    }

    /// The error table of the one validating constructor: every tier
    /// rejects the same inputs with the same typed error.
    #[test]
    fn try_build_rejects_each_invalid_input_with_its_error() {
        let eight = || SimBuilder::new(OneWayEpidemic::new(8, 1));
        for kind in ALL_KINDS {
            let counts = |c: Vec<u64>| {
                eight()
                    .kind(kind)
                    .counts(CountConfiguration::from_counts(c))
            };
            assert_invalid(rejection(counts(vec![4, 3, 1])), "state space");
            assert_invalid(rejection(counts(vec![3, 1])), "must match");
            let short = Configuration::from_states(vec![true; 5]);
            assert_invalid(rejection(eight().kind(kind).config(short)), "must match");
            assert_invalid(
                rejection(SimBuilder::new(OneWayEpidemic::new(1, 1)).kind(kind)),
                "at least two agents",
            );
            let over = MAX_POPULATION / 2 + 1;
            let giant = SimBuilder::new(OneWayEpidemic::new((2 * over) as usize, over as usize))
                .kind(kind)
                .counts(CountConfiguration::from_counts(vec![over, over]));
            assert_eq!(
                rejection(giant),
                SimError::UnsupportedPopulation {
                    population: 2 * over,
                    limit: MAX_POPULATION,
                },
                "{kind:?}"
            );
            // The hysteresis band is Auto's alone; the fixed tiers ignore it.
            let inverted = eight().kind(kind).adaptive_config(AdaptiveConfig {
                low_activity: 0.5,
                high_activity: 0.1,
                check_interval: 0,
            });
            if kind == EngineKind::Auto {
                assert_invalid(rejection(inverted), "low_activity < high_activity");
            } else {
                assert!(inverted.try_build().is_ok(), "{kind:?}");
            }
        }
    }

    #[test]
    fn adaptive_try_with_config_surfaces_typed_errors() {
        let mismatched = SimBuilder::new(OneWayEpidemic::new(8, 1))
            .kind(EngineKind::Auto)
            .counts(CountConfiguration::from_counts(vec![3, 1]));
        let err = rejection(mismatched);
        assert!(err.to_string().contains("must match"), "{err}");

        let bad_band = AdaptiveConfig {
            low_activity: 0.5,
            high_activity: 0.1,
            check_interval: 0,
        };
        let inverted = SimBuilder::new(OneWayEpidemic::new(8, 1))
            .kind(EngineKind::Auto)
            .counts(CountConfiguration::from_counts(vec![7, 1]))
            .adaptive_config(bad_band);
        let err = rejection(inverted);
        assert!(
            err.to_string().contains("low_activity < high_activity"),
            "{err}"
        );
    }

    #[test]
    fn adaptive_initial_engine_follows_initial_activity() {
        // Half informed: the two-way epidemic's mixed pairs put the active
        // fraction near 1/2, over any default-ish high threshold.
        let sim = SimBuilder::new(TwoWayEpidemic::new(128, 64))
            .seed(3)
            .build_adaptive();
        assert_eq!(sim.current_kind(), EngineKind::MultiBatch);
        assert!(sim.active_fraction() > 0.4);
        // One source: activity ≈ 2/n, silence dominates.
        let sim = SimBuilder::new(TwoWayEpidemic::new(128, 1))
            .seed(3)
            .build_adaptive();
        assert_eq!(sim.current_kind(), EngineKind::Batched);
    }

    #[test]
    fn adaptive_budget_accounting_is_exact_across_handoffs() {
        let mut sim = SimBuilder::new(OneWayEpidemic::new(256, 1))
            .seed(21)
            .adaptive_config(switchy())
            .build_adaptive();
        let mut total = 0u64;
        // Odd chunk sizes deliberately misaligned with the check interval.
        for chunk in [1u64, 37, 250, 999, 1, 4_321] {
            sim.run(chunk);
            total += chunk;
            assert_eq!(sim.interactions(), total, "absolute index drifted");
        }
        assert_eq!(sim.counts().counts().iter().sum::<u64>(), 256);
    }

    #[test]
    fn adaptive_fixed_seed_is_deterministic() {
        let run = |seed: u64| {
            let mut sim = SimBuilder::new(OneWayEpidemic::new(256, 1))
                .seed(seed)
                .adaptive_config(switchy())
                .build_adaptive();
            let out = sim.run_until(informed_everywhere, u64::MAX);
            (out.interactions, sim.handoffs(), sim.counts().clone())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0, "different seeds must diverge");
    }

    #[test]
    fn adaptive_stabilization_indices_stay_absolute_across_handoffs() {
        let warm_up = 2_000u64;
        let mut sim = SimBuilder::new(OneWayEpidemic::new(256, 1))
            .seed(9)
            .adaptive_config(switchy())
            .build_adaptive();
        sim.run(warm_up);
        assert!(sim.handoffs() >= 1, "warm-up must cross the high threshold");
        let opts = StabilizationOptions::new(256, u64::MAX / 2).confirm_window(5_000);
        let res = sim.measure_stabilization(informed_everywhere, opts);
        assert!(res.stabilized());
        let t = res.stabilized_at.unwrap();
        // The epidemic needs ≥ n - 1 informing interactions and the sparse
        // warm-up cannot have finished it, so the absolute index lies past
        // the warm-up and within this call's executed range.
        assert!(t > warm_up, "stabilized_at {t} must include the offset");
        assert!(t <= warm_up + res.interactions);
        assert_eq!(sim.interactions(), warm_up + res.interactions);
    }

    #[test]
    fn adaptive_stall_short_circuits_the_confirm_window_in_batched_mode() {
        // All informed from the start: predicate holds, nothing can change.
        // The adaptive engine must detect the stall through its batched
        // inner engine instead of grinding epochs.
        let mut sim = SimBuilder::new(TwoWayEpidemic::new(32, 32))
            .seed(1)
            .build_adaptive();
        assert_eq!(sim.current_kind(), EngineKind::Batched);
        let opts = StabilizationOptions::new(32, u64::MAX / 2).confirm_window(1_000);
        let res = sim.measure_stabilization(informed_everywhere, opts);
        assert!(res.stabilized());
        assert_eq!(res.stabilized_at, Some(0));
        assert!(res.interactions <= 1_000);
    }

    #[test]
    fn adaptive_run_until_budget_exhaustion_reports_unsatisfied() {
        let mut sim = SimBuilder::new(OneWayEpidemic::new(64, 1))
            .seed(5)
            .build_adaptive();
        let out = sim.run_until(informed_everywhere, 10);
        assert!(!out.satisfied);
        assert_eq!(out.interactions, 10);
    }

    #[test]
    fn measured_activity_agrees_with_the_batched_engines_exact_answer() {
        let protocol = TwoWayEpidemic::new(100, 30);
        let counts =
            CountConfiguration::from_configuration(&protocol, &Configuration::clean(&protocol));
        let measured = measured_active_fraction(&protocol, &counts);
        let sim = BatchSimulation::from_parts(protocol, counts, 0, Telemetry::disabled());
        assert!((measured - sim.active_fraction()).abs() < 1e-12);
        // 30 informed × 70 uninformed mixed ordered pairs, both orders.
        assert!((measured - (2.0 * 30.0 * 70.0) / (100.0 * 99.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "low_activity < high_activity")]
    fn inverted_hysteresis_band_is_rejected() {
        let config = AdaptiveConfig {
            low_activity: 0.5,
            high_activity: 0.1,
            check_interval: 0,
        };
        let _ = SimBuilder::new(OneWayEpidemic::new(8, 1))
            .adaptive_config(config)
            .build_adaptive();
    }

    #[test]
    fn builder_counts_init_feeds_every_kind() {
        for kind in ALL_KINDS {
            let counts = CountConfiguration::from_counts(vec![30, 2]);
            let mut sim = SimBuilder::new(TwoWayEpidemic::new(32, 1))
                .counts(counts)
                .kind(kind)
                .seed(3)
                .build();
            assert_eq!(sim.counts().count(INFORMED), 2, "{kind:?}");
            let out = sim.run_until(&mut informed_everywhere, u64::MAX);
            assert!(out.satisfied, "{kind:?}");
        }
    }
}
