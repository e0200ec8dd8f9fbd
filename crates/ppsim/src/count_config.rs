//! Count-based population configurations.
//!
//! A population of anonymous agents is fully described by *how many* agents
//! occupy each state — the multiset view `c : Q → ℕ` with `Σ c(q) = n` — and
//! for protocols with an enumerable state space this is the representation
//! the count tiers ([`crate::batched`], [`crate::multibatch`]) run on:
//! updating a transition touches four counters instead of two `Vec` slots,
//! and the memory footprint is `O(|Q|)` instead of `O(n)`, so populations of
//! 10⁶–10⁸ agents cost the same as tiny ones.
//!
//! [`CountConfiguration`] converts losslessly (up to agent order, which the
//! model deems meaningless) to and from the per-agent [`Configuration`].

use crate::configuration::Configuration;
use crate::enumerable::EnumerableProtocol;
use crate::error::SimError;
use crate::protocol::CleanInit;
use rand::distributions::{Binomial, Distribution};
use rand::RngCore;
use serde::Serialize;
use std::fmt;

/// The largest population the count engines accept: `2⁶²` agents.
///
/// Pair weights (`c_u · c_v` and the `n(n−1)` ordered-pair total) are kept
/// exact by widening through `u128`, which would tolerate any `u64`
/// population; the bound is set one comfortable notch below so every derived
/// quantity stays well-behaved too — `2n` and interaction budgets of the
/// form `c · n · ln n` remain representable in `u64`, and the f64
/// conversions used for activity fractions and geometric/survival sampling
/// keep at least 10 bits of headroom. Populations beyond the bound are
/// rejected with [`crate::SimError::UnsupportedPopulation`].
pub const MAX_POPULATION: u64 = 1 << 62;

/// A configuration stored as per-state agent counts.
#[derive(Clone, PartialEq, Eq, Serialize)]
pub struct CountConfiguration {
    counts: Vec<u64>,
    population: u64,
}

impl CountConfiguration {
    /// Creates a count configuration from explicit per-state counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty or all zero: the population model requires
    /// `n ≥ 1`.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        let population = counts.iter().sum();
        assert!(population > 0, "a population must have at least one agent");
        CountConfiguration { counts, population }
    }

    /// Builds the count view of a per-agent configuration under the
    /// protocol's state enumeration.
    ///
    /// Encoding happens *before* the count vector is sized, so this also
    /// works for dynamically indexed protocols
    /// ([`crate::indexer::DiscoveredProtocol`]) whose `num_states` grows as
    /// the configuration's states are interned.
    ///
    /// # Panics
    ///
    /// Panics if any state encodes outside `0..num_states()` (evaluated after
    /// all states have been encoded).
    pub fn from_configuration<P: EnumerableProtocol>(
        protocol: &P,
        config: &Configuration<P::State>,
    ) -> Self {
        let mut counts = Vec::new();
        for state in config.iter() {
            let index = protocol.encode(state);
            if index >= counts.len() {
                counts.resize(index + 1, 0u64);
            }
            counts[index] += 1;
        }
        let q = protocol.num_states();
        assert!(
            counts.len() <= q,
            "a state encodes to {}, outside 0..{q}",
            counts.len() - 1
        );
        counts.resize(q, 0);
        CountConfiguration {
            counts,
            population: config.len() as u64,
        }
    }

    /// Builds the count view of the protocol's **clean** initial
    /// configuration directly, without materializing the `O(n)` per-agent
    /// state vector that [`Configuration::clean`] +
    /// [`CountConfiguration::from_configuration`] would allocate.
    ///
    /// Agents are visited in index order and their clean states encoded one
    /// at a time, so for dynamically indexed protocols
    /// ([`crate::indexer::DiscoveredProtocol`]) the interning order — and
    /// therefore every downstream trajectory — is identical to the
    /// per-agent path. Peak memory is `O(#occupied states)`, which is what
    /// lets the count engines construct at `n = 10⁸⁺` without an `O(n)`
    /// allocation spike.
    ///
    /// # Panics
    ///
    /// Panics if the population is empty or any state encodes outside
    /// `0..num_states()` (evaluated after all states have been encoded).
    pub fn from_clean_init<P: EnumerableProtocol + CleanInit>(protocol: &P) -> Self {
        let n = protocol.population_size();
        assert!(n > 0, "a population must have at least one agent");
        let mut counts = Vec::new();
        let mut total = 0u64;
        // Runs arrive in agent order (the `clean_runs` contract), so states
        // are encoded — and, for discovered protocols, *interned* — in the
        // same order as the per-agent path, keeping state indices and
        // trajectories bit-identical while doing one encode per run instead
        // of one per agent.
        for (state, count) in protocol.clean_runs() {
            let index = protocol.encode(&state);
            if index >= counts.len() {
                counts.resize(index + 1, 0u64);
            }
            counts[index] += count;
            total += count;
        }
        assert_eq!(
            total, n as u64,
            "clean_runs counts must sum to the population size"
        );
        let q = protocol.num_states();
        assert!(
            counts.len() <= q,
            "a state encodes to {}, outside 0..{q}",
            counts.len() - 1
        );
        counts.resize(q, 0);
        CountConfiguration {
            counts,
            population: n as u64,
        }
    }

    /// Materializes a per-agent configuration, with agents ordered by
    /// ascending state index.
    ///
    /// Agents are anonymous, so any ordering represents the same
    /// configuration; the ascending order makes the conversion deterministic.
    pub fn to_configuration<P: EnumerableProtocol>(&self, protocol: &P) -> Configuration<P::State> {
        let mut states = Vec::with_capacity(self.population as usize);
        for (index, &count) in self.counts.iter().enumerate() {
            for _ in 0..count {
                states.push(protocol.decode(index));
            }
        }
        Configuration::from_states(states)
    }

    /// Samples a configuration of `population` agents with every agent's
    /// state independently uniform over `0..num_states` (a multinomial
    /// sample, drawn state-by-state as sequential binomials).
    ///
    /// This is the count-space analogue of an adversarially random per-agent
    /// initialization. With the vendored geometric-jump [`Binomial`] the
    /// expected cost is `O(population + num_states)` — linear rather than
    /// population-independent, but allocation-free and done once per run.
    ///
    /// # Panics
    ///
    /// Panics if `population` or `num_states` is zero.
    pub fn multinomial_uniform(num_states: usize, population: u64, rng: &mut dyn RngCore) -> Self {
        assert!(population > 0, "a population must have at least one agent");
        assert!(num_states > 0, "need at least one state");
        let mut counts = vec![0u64; num_states];
        let mut remaining = population;
        for (index, slot) in counts.iter_mut().enumerate() {
            let states_left = (num_states - index) as f64;
            if index + 1 == num_states {
                *slot = remaining;
            } else {
                let draw = Binomial::new(remaining, 1.0 / states_left)
                    // lint:allow(panic): states_left >= 1 here, so 1/states_left is in (0, 1]
                    .expect("probability is in (0, 1]")
                    .sample(rng);
                *slot = draw;
                remaining -= draw;
            }
        }
        CountConfiguration { counts, population }
    }

    /// The population size `n`.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// The number of states the configuration tracks (`|Q|`).
    pub fn num_states(&self) -> usize {
        self.counts.len()
    }

    /// The number of agents currently in state `index`.
    pub fn count(&self, index: usize) -> u64 {
        self.counts[index]
    }

    /// Grows the tracked state space to `num_states`; new states start empty.
    ///
    /// Used by the batched engine when a dynamically indexed protocol
    /// ([`crate::indexer::DiscoveredProtocol`]) discovers new states mid-run.
    /// Shrinking is not supported — a smaller `num_states` is a no-op.
    pub fn ensure_num_states(&mut self, num_states: usize) {
        if num_states > self.counts.len() {
            self.counts.resize(num_states, 0);
        }
    }

    /// The per-state counts as a slice, indexed by state index.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Iterates over the occupied states as `(state index, count)` pairs,
    /// skipping empty states.
    pub fn occupied(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Counts the agents whose *decoded* state satisfies the predicate.
    ///
    /// The predicate is evaluated once per occupied state, not per agent.
    pub fn count_where<P, F>(&self, protocol: &P, mut pred: F) -> u64
    where
        P: EnumerableProtocol,
        F: FnMut(&P::State) -> bool,
    {
        self.occupied()
            .filter(|&(index, _)| pred(&protocol.decode(index)))
            .map(|(_, count)| count)
            .sum()
    }

    /// Whether every agent's decoded state satisfies the predicate.
    pub fn all<P, F>(&self, protocol: &P, mut pred: F) -> bool
    where
        P: EnumerableProtocol,
        F: FnMut(&P::State) -> bool,
    {
        self.occupied()
            .all(|(index, _)| pred(&protocol.decode(index)))
    }

    /// Whether some agent's decoded state satisfies the predicate.
    pub fn any<P, F>(&self, protocol: &P, mut pred: F) -> bool
    where
        P: EnumerableProtocol,
        F: FnMut(&P::State) -> bool,
    {
        self.occupied()
            .any(|(index, _)| pred(&protocol.decode(index)))
    }

    /// Applies one ordered-pair transition in count space: the interacting
    /// agents leave states `from` and enter states `to`.
    ///
    /// # Panics
    ///
    /// Panics if the `from` states are not actually occupied by two distinct
    /// agents (for `from.0 == from.1` that means a count of at least two).
    pub fn apply_transition(&mut self, from: (usize, usize), to: (usize, usize)) {
        if from.0 == from.1 {
            assert!(
                self.counts[from.0] >= 2,
                "transition needs two agents in state {}",
                from.0
            );
        } else {
            assert!(self.counts[from.0] >= 1, "state {} is empty", from.0);
            assert!(self.counts[from.1] >= 1, "state {} is empty", from.1);
        }
        self.counts[from.0] -= 1;
        self.counts[from.1] -= 1;
        self.counts[to.0] += 1;
        self.counts[to.1] += 1;
    }

    /// Commits a whole batch of transitions at once: `removals` agents leave
    /// their states and `additions` agents enter theirs. The two multisets
    /// must have equal totals (the population is conserved); entries may
    /// repeat a state, and their order is irrelevant.
    ///
    /// Used by the multi-batch engine ([`crate::multibatch`]),
    /// which resolves all interactions of an epoch on the *pre-epoch* counts
    /// and only then applies the net effect — removals are the batch's drawn
    /// agents, additions their transition outcomes.
    ///
    /// # Panics
    ///
    /// Panics if a removal exceeds a state's count or the totals differ.
    pub fn apply_batch(&mut self, removals: &[(usize, u64)], additions: &[(usize, u64)]) {
        let mut removed = 0u64;
        for &(state, count) in removals {
            assert!(
                self.counts[state] >= count,
                "batch removes {count} agents from state {state} holding {}",
                self.counts[state]
            );
            self.counts[state] -= count;
            removed += count;
        }
        let mut added = 0u64;
        for &(state, count) in additions {
            self.counts[state] += count;
            added += count;
        }
        assert_eq!(
            removed, added,
            "batch must conserve the population (removed {removed}, added {added})"
        );
    }
}

/// Validates that `counts` is a usable initial configuration for an engine
/// over `protocol` — checked once by `SimBuilder::try_build`, so all tiers
/// accept and reject inputs identically.
///
/// The error `reason` strings are stable: `SimBuilder::build` surfaces them
/// verbatim in panics, and downstream tests match on their substrings.
pub(crate) fn validate_engine_inputs<P: EnumerableProtocol>(
    protocol: &P,
    counts: &CountConfiguration,
) -> Result<(), SimError> {
    if counts.num_states() != protocol.num_states() {
        return Err(SimError::InvalidParameters {
            reason: format!(
                "count configuration must track the protocol's state space \
                 ({} states given, {} expected)",
                counts.num_states(),
                protocol.num_states()
            ),
        });
    }
    if counts.population() != protocol.population_size() as u64 {
        return Err(SimError::InvalidParameters {
            reason: format!(
                "configuration size must match the protocol's population size \
                 ({} agents given, {} expected)",
                counts.population(),
                protocol.population_size()
            ),
        });
    }
    validate_population(counts.population())
}

/// Validates a population size against the bounds every engine shares: the
/// uniform scheduler needs two agents, and exact count arithmetic stops at
/// [`MAX_POPULATION`].
pub(crate) fn validate_population(n: u64) -> Result<(), SimError> {
    if n < 2 {
        return Err(SimError::InvalidParameters {
            reason: "the uniform scheduler requires at least two agents".into(),
        });
    }
    if n > MAX_POPULATION {
        return Err(SimError::UnsupportedPopulation {
            population: n,
            limit: MAX_POPULATION,
        });
    }
    Ok(())
}

impl fmt::Debug for CountConfiguration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CountConfiguration")
            .field("n", &self.population)
            .field("counts", &self.counts)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{AgentId, CleanInit, InteractionCtx, Protocol};
    use crate::SimRng;

    /// `k`-state protocol whose state is its own index.
    struct ModK {
        n: usize,
        k: usize,
    }

    impl Protocol for ModK {
        type State = usize;
        fn population_size(&self) -> usize {
            self.n
        }
        fn interact(&self, _u: &mut usize, _v: &mut usize, _ctx: &mut InteractionCtx<'_>) {}
    }

    impl CleanInit for ModK {
        fn clean_state(&self, agent: AgentId) -> usize {
            agent.index() % self.k
        }
    }

    impl EnumerableProtocol for ModK {
        fn num_states(&self) -> usize {
            self.k
        }
        fn encode(&self, state: &usize) -> usize {
            *state
        }
        fn decode(&self, index: usize) -> usize {
            index
        }
    }

    #[test]
    fn round_trip_preserves_the_multiset() {
        let p = ModK { n: 10, k: 3 };
        let config = Configuration::clean(&p);
        let counts = CountConfiguration::from_configuration(&p, &config);
        assert_eq!(counts.counts(), &[4, 3, 3]);
        assert_eq!(counts.population(), 10);
        let back = counts.to_configuration(&p);
        let again = CountConfiguration::from_configuration(&p, &back);
        assert_eq!(counts, again);
    }

    /// The flat clean→counts path must agree exactly with the historical
    /// per-agent materialization (same counts, same interning order for
    /// dynamic indexers — pinned separately in `indexer`).
    #[test]
    fn from_clean_init_matches_the_per_agent_path() {
        let p = ModK { n: 10, k: 3 };
        let via_config = CountConfiguration::from_configuration(&p, &Configuration::clean(&p));
        let flat = CountConfiguration::from_clean_init(&p);
        assert_eq!(flat, via_config);
        assert_eq!(flat.counts(), &[4, 3, 3]);
        assert_eq!(flat.population(), 10);
    }

    /// One check per rejection path, pinning the stable reason substrings
    /// engine constructor tests match on.
    #[test]
    fn validate_engine_inputs_covers_each_failure() {
        let p = ModK { n: 10, k: 3 };
        let good = CountConfiguration::from_clean_init(&p);
        assert!(validate_engine_inputs(&p, &good).is_ok());

        let wrong_q = CountConfiguration::from_counts(vec![10]);
        let err = validate_engine_inputs(&p, &wrong_q).unwrap_err();
        assert!(err.to_string().contains("state space"), "{err}");

        let wrong_n = CountConfiguration::from_counts(vec![4, 3, 2]);
        let err = validate_engine_inputs(&p, &wrong_n).unwrap_err();
        assert!(err.to_string().contains("must match"), "{err}");

        let lonely = ModK { n: 1, k: 3 };
        let one = CountConfiguration::from_counts(vec![1, 0, 0]);
        let err = validate_engine_inputs(&lonely, &one).unwrap_err();
        assert!(err.to_string().contains("at least two agents"), "{err}");

        let giant = ModK {
            n: (MAX_POPULATION as usize) + 2,
            k: 3,
        };
        let over = CountConfiguration::from_counts(vec![MAX_POPULATION + 2, 0, 0]);
        assert_eq!(
            validate_engine_inputs(&giant, &over),
            Err(SimError::UnsupportedPopulation {
                population: MAX_POPULATION + 2,
                limit: MAX_POPULATION,
            })
        );
    }

    #[test]
    fn predicates_weight_by_count() {
        let counts = CountConfiguration::from_counts(vec![4, 0, 6]);
        let p = ModK { n: 10, k: 3 };
        assert_eq!(counts.count_where(&p, |s| *s == 2), 6);
        assert_eq!(counts.count_where(&p, |s| *s == 1), 0);
        assert!(counts.all(&p, |s| *s != 1), "empty states are skipped");
        assert!(counts.any(&p, |s| *s == 0));
        assert!(!counts.any(&p, |s| *s == 1));
    }

    #[test]
    fn apply_transition_moves_two_agents() {
        let mut counts = CountConfiguration::from_counts(vec![5, 5, 0]);
        counts.apply_transition((0, 1), (2, 2));
        assert_eq!(counts.counts(), &[4, 4, 2]);
        assert_eq!(counts.population(), 10);
        counts.apply_transition((2, 2), (0, 1));
        assert_eq!(counts.counts(), &[5, 5, 0]);
    }

    #[test]
    fn apply_batch_commits_delayed_updates() {
        let mut counts = CountConfiguration::from_counts(vec![6, 4, 0]);
        counts.apply_batch(&[(0, 3), (1, 2)], &[(2, 4), (0, 1)]);
        assert_eq!(counts.counts(), &[4, 2, 4]);
        assert_eq!(counts.population(), 10);
        // Empty batches are fine.
        counts.apply_batch(&[], &[]);
        assert_eq!(counts.counts(), &[4, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "batch removes")]
    fn apply_batch_rejects_overdraining_a_state() {
        let mut counts = CountConfiguration::from_counts(vec![2, 8]);
        counts.apply_batch(&[(0, 3)], &[(1, 3)]);
    }

    #[test]
    #[should_panic(expected = "conserve the population")]
    fn apply_batch_rejects_population_changes() {
        let mut counts = CountConfiguration::from_counts(vec![5, 5]);
        counts.apply_batch(&[(0, 2)], &[(1, 3)]);
    }

    #[test]
    #[should_panic(expected = "needs two agents")]
    fn self_pair_requires_two_occupants() {
        let mut counts = CountConfiguration::from_counts(vec![1, 9]);
        counts.apply_transition((0, 0), (1, 1));
    }

    #[test]
    #[should_panic(expected = "at least one agent")]
    fn empty_population_rejected() {
        let _ = CountConfiguration::from_counts(vec![0, 0]);
    }

    #[test]
    fn ensure_num_states_grows_with_empty_states() {
        let mut counts = CountConfiguration::from_counts(vec![4, 6]);
        counts.ensure_num_states(5);
        assert_eq!(counts.counts(), &[4, 6, 0, 0, 0]);
        assert_eq!(counts.population(), 10);
        counts.ensure_num_states(2);
        assert_eq!(counts.num_states(), 5, "shrinking is a no-op");
    }

    #[test]
    fn multinomial_conserves_population() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..20 {
            let counts = CountConfiguration::multinomial_uniform(5, 1000, &mut rng);
            assert_eq!(counts.population(), 1000);
            assert_eq!(counts.counts().iter().sum::<u64>(), 1000);
            assert_eq!(counts.num_states(), 5);
        }
    }

    #[test]
    fn multinomial_is_roughly_uniform() {
        let mut rng = SimRng::seed_from_u64(11);
        let counts = CountConfiguration::multinomial_uniform(4, 40_000, &mut rng);
        for (index, &c) in counts.counts().iter().enumerate() {
            assert!(
                (c as f64 - 10_000.0).abs() < 1_000.0,
                "state {index} count {c} far from uniform"
            );
        }
    }
}
