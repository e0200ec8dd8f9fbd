//! The simulation run loop.
//!
//! [`Simulation`] owns a protocol instance, a configuration, a scheduler and a
//! seeded RNG, and executes interactions one at a time. It offers three
//! levels of control:
//!
//! * [`Simulation::step`] — execute a single interaction (used by unit tests
//!   and by callers that need custom observation logic),
//! * [`Simulation::run_until`] — run until a configuration predicate holds or
//!   a budget is exhausted,
//! * [`Simulation::measure_stabilization`] — measure the *stabilization time*
//!   of an output predicate: the first interaction after which the predicate
//!   held continuously until the end of a confirmation window.
//!
//! The loops behind the last two (and behind [`Simulation::run`]) are
//! written once, over a crate-private step trait, and drive every
//! [`crate::EngineKind`] tier as well: an engine only says how it takes one
//! step.

use crate::configuration::Configuration;
use crate::convergence::{StabilizationDetector, StabilizationResult};
use crate::metrics::InteractionMetrics;
use crate::protocol::{InteractionCtx, Protocol};
use crate::rng::SimRng;
use crate::scheduler::{OrderedPair, Scheduler, UniformScheduler};
use crate::telemetry::{SpanGuard, SpanKind, Telemetry};
use serde::Serialize;

/// Outcome of [`Simulation::run_until`] (and of every engine's
/// [`crate::SimulationEngine::run_until`], which shares the convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RunOutcome {
    /// Number of interactions executed **by this call** — a relative count,
    /// in contrast to the absolute
    /// [`crate::StabilizationResult::stabilized_at`] index. Add the
    /// simulation's interaction count from before the call to obtain
    /// absolute indices.
    pub interactions: u64,
    /// Whether the stop predicate was satisfied (as opposed to the budget
    /// running out or the scheduler being exhausted).
    pub satisfied: bool,
}

/// Options for [`Simulation::measure_stabilization`] (and every engine's
/// [`crate::SimulationEngine::measure_stabilization`]). The predicate is
/// observed after every step of the engine — see
/// [`crate::engine::PredicateGranularity`] for what a step is per tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilizationOptions {
    /// Maximum number of interactions to execute.
    pub budget: u64,
    /// Stop early once the predicate has held continuously for this many
    /// interactions.
    pub confirm_window: u64,
}

impl StabilizationOptions {
    /// Sensible defaults for a population of size `n`: a budget of
    /// `budget` interactions and a confirmation window of `20·n·ln n`
    /// interactions.
    pub fn new(n: usize, budget: u64) -> Self {
        let nf = n as f64;
        StabilizationOptions {
            budget,
            confirm_window: (20.0 * nf * nf.ln().max(1.0)).ceil() as u64,
        }
    }

    /// Sets the confirmation window.
    pub fn confirm_window(mut self, window: u64) -> Self {
        self.confirm_window = window;
        self
    }
}

/// One step of an engine — the only part of the run surface an engine
/// implements itself. [`run`], [`run_until`] and [`measure_stabilization`]
/// are written once over it, for the per-agent [`Simulation`] (predicates
/// observe its [`Configuration`]) and for every [`crate::EngineKind`] tier
/// (predicates observe a [`crate::CountConfiguration`]).
pub(crate) trait Stepper {
    /// What predicates observe.
    type View;

    /// The current configuration, as predicates observe it.
    fn view(&self) -> &Self::View;

    /// Interactions executed since construction (absolute).
    fn total_interactions(&self) -> u64;

    /// The population size.
    fn population(&self) -> usize;

    /// Advances by at most `cap > 0` interactions and returns `(executed,
    /// stalled)`. `stalled` means the view can never change again: a count
    /// tier consumed the whole `cap` as silence, or a scripted scheduler ran
    /// out (`executed` is then 0).
    fn advance(&mut self, cap: u64) -> (u64, bool);

    /// The telemetry handle, and the span kind the current mode's wall time
    /// is recorded under; `None` records no span.
    fn span(&self) -> Option<(&Telemetry, SpanKind)> {
        None
    }
}

/// A wall-clock span over one run call that follows the engine's mode: an
/// Auto handoff closes it and opens one under the new mode's kind.
struct ModeSpan(Option<(SpanKind, SpanGuard)>);

impl ModeSpan {
    fn open(engine: &impl Stepper) -> Self {
        ModeSpan(
            engine
                .span()
                .map(|(telemetry, kind)| (kind, telemetry.span(kind))),
        )
    }

    fn follow(&mut self, engine: &impl Stepper) {
        let kind = engine.span().map(|(_, kind)| kind);
        if kind != self.0.as_ref().map(|(kind, _)| *kind) {
            *self = ModeSpan::open(engine);
        }
    }
}

/// Executes up to `budget` interactions unconditionally and returns the
/// number executed: `budget` unless a scripted scheduler ran out (a stalled
/// count tier consumes the rest of the budget as silence).
pub(crate) fn run(engine: &mut impl Stepper, budget: u64) -> u64 {
    let mut span = ModeSpan::open(engine);
    let mut done = 0;
    while done < budget {
        let (executed, stalled) = engine.advance(budget - done);
        done += executed;
        span.follow(engine);
        if stalled {
            break;
        }
    }
    done
}

/// Runs until `pred` holds or `budget` interactions have been executed by
/// this call. `pred` is observed after every step, which is exact for the
/// per-agent engines and the batched tier (silence cannot change the
/// configuration) and epoch-granular for the multi-batch tier. A stall
/// ends the run: the predicate is false and stays so.
pub(crate) fn run_until<E: Stepper>(
    engine: &mut E,
    mut pred: impl FnMut(&E::View) -> bool,
    budget: u64,
) -> RunOutcome {
    let mut span = ModeSpan::open(engine);
    let mut done = 0;
    let satisfied = loop {
        if pred(engine.view()) {
            break true;
        }
        if done >= budget {
            break false;
        }
        let (executed, stalled) = engine.advance(budget - done);
        done += executed;
        span.follow(engine);
        if stalled {
            break false;
        }
    };
    RunOutcome {
        interactions: done,
        satisfied,
    }
}

/// Measures the stabilization time of `pred`; see
/// [`Simulation::measure_stabilization`] for the index conventions.
///
/// `pred` is observed after every step. Once it holds, steps are capped at
/// the rest of the confirmation window, so the run stops exactly when the
/// window is reached and a long silent confirmation costs one truncated
/// count-tier step — truncation is exact in every tier. A stall ends the
/// run: the current value holds forever.
pub(crate) fn measure_stabilization<E: Stepper>(
    engine: &mut E,
    mut pred: impl FnMut(&E::View) -> bool,
    opts: StabilizationOptions,
) -> StabilizationResult {
    let mut span = ModeSpan::open(engine);
    // Observations use absolute interaction indices so a measurement on a
    // warm-started engine reports stabilization relative to its full
    // history, not this call.
    let start = engine.total_interactions();
    let mut detector = StabilizationDetector::new();
    detector.observe(start, pred(engine.view()));
    let mut executed = 0u64;
    while executed < opts.budget {
        let mut cap = opts.budget - executed;
        if detector.satisfied_now() {
            let held = detector.consecutive(start + executed);
            if held >= opts.confirm_window {
                break;
            }
            cap = cap.min(opts.confirm_window - held);
        }
        let (stepped, stalled) = engine.advance(cap);
        executed += stepped;
        span.follow(engine);
        detector.observe(start + executed, pred(engine.view()));
        if stalled {
            break;
        }
    }
    StabilizationResult {
        interactions: executed,
        stabilized_at: detector.stabilized_at(),
        n: engine.population(),
    }
}

/// A single population-protocol execution.
#[derive(Debug)]
pub struct Simulation<P: Protocol, S: Scheduler = UniformScheduler> {
    protocol: P,
    config: Configuration<P::State>,
    scheduler: S,
    rng: SimRng,
    metrics: InteractionMetrics,
    interactions: u64,
}

impl<P: Protocol> Simulation<P, UniformScheduler> {
    /// Creates a simulation under the uniformly random scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration size does not match
    /// [`Protocol::population_size`].
    pub fn new(protocol: P, config: Configuration<P::State>, seed: u64) -> Self {
        Self::with_scheduler(protocol, config, UniformScheduler::new(), seed)
    }
}

impl<P: Protocol, S: Scheduler> Simulation<P, S> {
    /// Creates a simulation with an explicit scheduler (e.g.
    /// [`crate::scheduler::ScriptedScheduler`] for reachability tests).
    ///
    /// # Panics
    ///
    /// Panics if the configuration size does not match
    /// [`Protocol::population_size`].
    pub fn with_scheduler(
        protocol: P,
        config: Configuration<P::State>,
        scheduler: S,
        seed: u64,
    ) -> Self {
        assert_eq!(
            protocol.population_size(),
            config.len(),
            "configuration size must match the protocol's population size"
        );
        let n = config.len();
        Simulation {
            protocol,
            config,
            scheduler,
            rng: SimRng::seed_from_u64(seed),
            metrics: InteractionMetrics::new(n),
            interactions: 0,
        }
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The current configuration.
    pub fn configuration(&self) -> &Configuration<P::State> {
        &self.config
    }

    /// Mutable access to the current configuration (used by failure-injection
    /// experiments that corrupt agent state mid-run).
    pub fn configuration_mut(&mut self) -> &mut Configuration<P::State> {
        &mut self.config
    }

    /// Number of interactions executed so far.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Parallel time elapsed so far (interactions divided by `n`).
    pub fn parallel_time(&self) -> f64 {
        self.interactions as f64 / self.config.len() as f64
    }

    /// Per-agent interaction metrics.
    pub fn metrics(&self) -> &InteractionMetrics {
        &self.metrics
    }

    /// Executes a single interaction. Returns the pair that interacted, or
    /// `None` if the scheduler is exhausted.
    pub fn step(&mut self) -> Option<OrderedPair> {
        let n = self.config.len();
        let pair = self.scheduler.next_pair(n, &mut self.rng)?;
        let interaction = self.interactions;
        let protocol = &self.protocol;
        let rng = &mut self.rng;
        self.config
            .with_pair_mut(pair.initiator, pair.responder, |u, v| {
                let mut ctx = InteractionCtx::new(rng, interaction);
                protocol.interact(u, v, &mut ctx);
            });
        self.metrics.record(pair.initiator, pair.responder);
        self.interactions += 1;
        Some(pair)
    }

    /// Executes up to `budget` interactions unconditionally. Returns the
    /// number actually executed (less than `budget` only if the scheduler ran
    /// out of scripted interactions).
    pub fn run(&mut self, budget: u64) -> u64 {
        run(self, budget)
    }

    /// Runs until `pred` holds for the current configuration or `budget`
    /// interactions have been executed by this call.
    pub fn run_until<F>(&mut self, pred: F, budget: u64) -> RunOutcome
    where
        F: FnMut(&Configuration<P::State>) -> bool,
    {
        run_until(self, pred, budget)
    }

    /// Measures the stabilization time of the output predicate `pred`.
    ///
    /// Runs for at most `opts.budget` interactions, evaluating `pred` after
    /// every interaction, and stops once the predicate has held continuously
    /// for `opts.confirm_window` interactions. The returned
    /// [`StabilizationResult::stabilized_at`] is the *absolute* interaction
    /// index (counted from the construction of the simulation, so including
    /// any interactions executed before this call) from which the predicate
    /// held until the end of the run;
    /// [`StabilizationResult::interactions`] is the number executed by this
    /// call alone.
    pub fn measure_stabilization<F>(
        &mut self,
        pred: F,
        opts: StabilizationOptions,
    ) -> StabilizationResult
    where
        F: FnMut(&Configuration<P::State>) -> bool,
    {
        measure_stabilization(self, pred, opts)
    }
}

/// One interaction per step; stalls only when a scripted scheduler runs out.
impl<P: Protocol, S: Scheduler> Stepper for Simulation<P, S> {
    type View = Configuration<P::State>;

    fn view(&self) -> &Configuration<P::State> {
        &self.config
    }

    fn total_interactions(&self) -> u64 {
        self.interactions
    }

    fn population(&self) -> usize {
        self.config.len()
    }

    fn advance(&mut self, _cap: u64) -> (u64, bool) {
        match self.step() {
            Some(_) => (1, false),
            None => (0, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{AgentId, CleanInit};
    use crate::scheduler::ScriptedScheduler;

    /// One-way epidemic: informed initiators inform responders.
    struct Epidemic(usize);
    impl Protocol for Epidemic {
        type State = bool;
        fn population_size(&self) -> usize {
            self.0
        }
        fn interact(&self, u: &mut bool, v: &mut bool, _ctx: &mut InteractionCtx<'_>) {
            if *u || *v {
                *u = true;
                *v = true;
            }
        }
    }
    impl CleanInit for Epidemic {
        fn clean_state(&self, agent: AgentId) -> bool {
            agent.index() == 0
        }
    }

    #[test]
    fn epidemic_reaches_everyone() {
        let p = Epidemic(64);
        let c = Configuration::clean(&p);
        let mut sim = Simulation::new(p, c, 11);
        let out = sim.run_until(|c| c.all(|s| *s), 1_000_000);
        assert!(out.satisfied);
        assert!(out.interactions > 0);
        assert_eq!(sim.metrics().total(), sim.interactions());
    }

    #[test]
    fn scripted_scheduler_applies_exact_sequence() {
        let p = Epidemic(4);
        let c = Configuration::clean(&p);
        let sched = ScriptedScheduler::from_indices([(0, 1), (1, 2), (2, 3)]);
        let mut sim = Simulation::with_scheduler(p, c, sched, 0);
        assert_eq!(sim.run(100), 3);
        assert!(sim.configuration().all(|s| *s));
        assert!(sim.step().is_none());
    }

    #[test]
    fn run_until_budget_exhaustion_reports_unsatisfied() {
        let p = Epidemic(8);
        // Nobody informed: predicate can never hold.
        let c = Configuration::uniform(8, false);
        let mut sim = Simulation::new(p, c, 5);
        let out = sim.run_until(|c| c.any(|s| *s), 200);
        assert!(!out.satisfied);
        assert_eq!(out.interactions, 200);
    }

    #[test]
    fn measure_stabilization_finds_epidemic_completion() {
        let p = Epidemic(32);
        let c = Configuration::clean(&p);
        let mut sim = Simulation::new(p, c, 3);
        let opts = StabilizationOptions::new(32, 200_000).confirm_window(2_000);
        let res = sim.measure_stabilization(|c| c.all(|s| *s), opts);
        assert!(res.stabilized());
        let t = res.stabilized_at.unwrap();
        assert!(t > 0 && t < 200_000);
        assert!(res.parallel_time().unwrap() > 0.0);
    }

    #[test]
    fn measure_stabilization_reports_absolute_interaction_indices() {
        let warm_up = 10u64;
        // A fresh measurement and one taken after a warm-up run of the same
        // seed: the warm-started one must report its stabilization index
        // relative to the simulation's full history.
        let p = Epidemic(64);
        let c = Configuration::clean(&p);
        let mut sim = Simulation::new(p, c, 9);
        assert_eq!(sim.run(warm_up), warm_up);
        let opts = StabilizationOptions::new(64, 500_000).confirm_window(2_000);
        let res = sim.measure_stabilization(|c| c.all(|s| *s), opts);
        assert!(res.stabilized());
        let t = res.stabilized_at.unwrap();
        // The epidemic cannot have finished within the warm-up (it needs at
        // least n - 1 informing interactions), so the absolute index lies
        // strictly past it — and within this call's executed range.
        assert!(t > warm_up, "stabilized_at {t} must include the offset");
        assert!(t <= warm_up + res.interactions);
        assert_eq!(sim.interactions(), warm_up + res.interactions);
    }

    #[test]
    fn measure_stabilization_reports_failure_when_budget_too_small() {
        let p = Epidemic(32);
        let c = Configuration::uniform(32, false);
        let mut sim = Simulation::new(p, c, 3);
        let opts = StabilizationOptions::new(32, 1_000);
        let res = sim.measure_stabilization(|c| c.all(|s| *s), opts);
        assert!(!res.stabilized());
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_configuration_size_panics() {
        let p = Epidemic(8);
        let c = Configuration::uniform(4, false);
        let _ = Simulation::new(p, c, 0);
    }

    #[test]
    fn configuration_mut_allows_mid_run_corruption() {
        let p = Epidemic(8);
        let c = Configuration::clean(&p);
        let mut sim = Simulation::new(p, c, 1);
        sim.run(50);
        for s in sim.configuration_mut().iter_mut() {
            *s = false;
        }
        assert!(sim.configuration().all(|s| !*s));
    }
}
