//! # ppsim — a population-protocol simulation substrate
//!
//! This crate implements the computational model of Angluin, Aspnes, Diamadi,
//! Fischer, and Peralta (*Computation in networks of passively mobile
//! finite-state sensors*, Distributed Computing 2006) that the reproduced paper
//! builds on: a population of `n` anonymous agents, each holding a state from a
//! protocol-defined state space, interacting in uniformly random ordered pairs
//! under a fixed transition function.
//!
//! It provides everything needed to *evaluate* population protocols:
//!
//! * [`Protocol`] — the transition-function abstraction (plus [`CleanInit`],
//!   [`LeaderOutput`] and [`RankingOutput`] for initialization and output
//!   extraction),
//! * [`Configuration`] — a population state vector with predicate helpers,
//! * [`scheduler`] — the uniformly random scheduler and a scripted scheduler
//!   for reachability-style unit tests,
//! * [`Simulation`] — the per-agent engine, with stop conditions and
//!   stabilization detection ([`convergence`]); its run loops
//!   ([`simulation`]) drive every engine tier as well,
//! * [`engine`] — the unified engine API: the [`SimulationEngine`] trait
//!   over every tier and [`SimBuilder`], the one way to construct an engine
//!   ([`SimBuilder::try_build`]). The tiers, by [`EngineKind`]:
//!   * [`EngineKind::PerStep`] — the per-agent [`Simulation`] behind a count
//!     mirror, exact per-agent trajectories,
//!   * [`EngineKind::Batched`] — the batched count-based engine
//!     ([`batched`]) for protocols with an enumerable state space
//!     ([`EnumerableProtocol`], [`CountConfiguration`]): silent interaction
//!     runs are sampled geometrically instead of executed, making `n ≥ 10⁶`
//!     populations cheap,
//!   * [`EngineKind::MultiBatch`] — the multi-batch collision sampler
//!     ([`multibatch`]): whole `Θ(√n)`-sized batches of interactions are
//!     resolved per epoch with hypergeometric/multinomial draws over the
//!     count vector (plus an exact collision correction), the tier of choice
//!     when most interactions are state-changing and silence-skipping cannot
//!     help,
//!   * [`EngineKind::Auto`] — [`AdaptiveSimulation`], which runs multi-batch
//!     while activity is high and hands off to the batched engine (and back)
//!     at a hysteresis threshold,
//! * [`indexer`] — dynamic state indexing ([`DiscoveredProtocol`],
//!   [`SupportEnumerable`]): runs the count tiers on protocols whose state
//!   space is too large to enumerate, assigning indices lazily as
//!   states are first reached,
//! * [`fleet`] — [`TrialFleet`]: parallel fan-out of independent seeded
//!   trials over [`SimBuilder`]-built engines across worker threads, with
//!   merge-able streaming statistics ([`FleetStats`]) whose results are
//!   bit-identical regardless of thread count,
//! * [`telemetry`] — engine-internal tracing: a zero-cost-when-disabled
//!   [`Telemetry`] handle threaded through [`SimBuilder`] into every tier,
//!   recording counters, histograms and span timings split into a
//!   deterministic stream (byte-identical across thread counts) and a
//!   timing stream (wall clock, observability only),
//! * [`digest`] — stable FNV-1a content digests ([`Fnv64`]): the hash behind
//!   the fleet-determinism sample digest and the experiment service's
//!   content-addressed result cache (`cache/<hex16>.json`),
//! * [`adversary`] — combinators for arbitrary (adversarial) initial
//!   configurations, as required for *self-stabilization* experiments,
//! * [`epidemic`] — one-way/two-way epidemic protocols and measurement helpers
//!   (the paper's Lemma A.2 workhorse),
//! * [`coin`] — the synthetic-coin derandomization of the paper's Appendix B,
//! * [`stats`] — summaries, histograms and log–log slope fits used to check
//!   asymptotic shapes.
//!
//! # Quick example
//!
//! ```
//! use ppsim::{Protocol, CleanInit, Configuration, Simulation, InteractionCtx, AgentId};
//!
//! /// A two-state "rumour spreading" (one-way epidemic) protocol.
//! struct Rumour {
//!     n: usize,
//! }
//!
//! impl Protocol for Rumour {
//!     type State = bool;
//!     fn population_size(&self) -> usize {
//!         self.n
//!     }
//!     fn interact(&self, u: &mut bool, v: &mut bool, _ctx: &mut InteractionCtx<'_>) {
//!         if *u {
//!             *v = true;
//!         }
//!     }
//! }
//!
//! impl CleanInit for Rumour {
//!     fn clean_state(&self, agent: AgentId) -> bool {
//!         agent.index() == 0
//!     }
//! }
//!
//! let protocol = Rumour { n: 50 };
//! let config = Configuration::clean(&protocol);
//! let mut sim = Simulation::new(protocol, config, 7);
//! let outcome = sim.run_until(|c| c.iter().all(|s| *s), 1_000_000);
//! assert!(outcome.satisfied);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod batched;
pub mod coin;
pub mod configuration;
pub mod convergence;
pub mod count_config;
pub mod digest;
pub mod engine;
pub mod enumerable;
pub mod epidemic;
pub mod error;
pub mod fleet;
pub mod indexer;
pub mod mem;
pub mod metrics;
pub mod multibatch;
pub mod protocol;
pub mod rng;
pub mod scheduler;
pub mod simulation;
pub mod stats;
pub mod telemetry;

pub use adversary::AdversarialInit;
pub use coin::SyntheticCoin;
pub use configuration::Configuration;
pub use convergence::{StabilizationDetector, StabilizationResult};
pub use count_config::{CountConfiguration, MAX_POPULATION};
pub use digest::{fnv1a_64, Fnv64};
pub use engine::{
    AdaptiveConfig, AdaptiveSimulation, EngineKind, PredicateGranularity, SimBuilder,
    SimulationEngine,
};
pub use enumerable::EnumerableProtocol;
pub use error::SimError;
pub use fleet::{FleetStats, KsReservoir, RunningStats, TrialFleet};
pub use indexer::{DiscoveredProtocol, SupportEnumerable};
pub use mem::{peak_rss_bytes, reset_peak_rss};
pub use metrics::InteractionMetrics;
pub use protocol::{AgentId, CleanInit, InteractionCtx, LeaderOutput, Protocol, RankingOutput};
pub use rng::SimRng;
pub use scheduler::{OrderedPair, Scheduler, ScriptedScheduler, UniformScheduler};
pub use simulation::{RunOutcome, Simulation};
pub use stats::Summary;
pub use telemetry::{Telemetry, TelemetryReport};

/// Converts a number of interactions into *parallel time* (interactions divided
/// by the population size), the time measure used throughout the paper.
///
/// # Examples
///
/// ```
/// assert_eq!(ppsim::parallel_time(1_000, 100), 10.0);
/// ```
pub fn parallel_time(interactions: u64, n: usize) -> f64 {
    interactions as f64 / n as f64
}
