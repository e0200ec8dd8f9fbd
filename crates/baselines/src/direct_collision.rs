//! Ranking with *direct* collision detection: the natural baseline the paper
//! argues against in Section 3.1.
//!
//! Agents hold a presumed rank in `[n]`. The only proof of a collision is the
//! simplest one — two agents of the same rank meeting — in which case the
//! responder resamples its rank uniformly at random. Detecting a collision
//! this way typically takes `Ω(n)` time *per duplicated rank*, which is
//! exactly the bottleneck the paper's message-based `DetectCollision_r`
//! removes; experiment E6 exhibits the resulting gap.

use ppsim::{
    AgentId, CleanInit, EnumerableProtocol, InteractionCtx, LeaderOutput, Protocol, RankingOutput,
};

/// The direct-collision ranking protocol for a population of size `n`.
#[derive(Debug, Clone, Copy)]
pub struct DirectCollisionSsle {
    n: usize,
}

impl DirectCollisionSsle {
    /// Creates the protocol for a population of `n ≥ 2` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "the protocol needs at least two agents");
        DirectCollisionSsle { n }
    }
}

impl Protocol for DirectCollisionSsle {
    /// The presumed rank, in `1..=n`.
    type State = u32;

    fn population_size(&self) -> usize {
        self.n
    }

    fn interact(&self, u: &mut u32, v: &mut u32, ctx: &mut InteractionCtx<'_>) {
        if u == v {
            // Direct collision observed: the responder resamples its rank.
            *v = 1 + ctx.sample_below(self.n as u64) as u32;
        }
    }
}

impl CleanInit for DirectCollisionSsle {
    /// Worst-case start: every agent claims rank 1.
    fn clean_state(&self, _agent: AgentId) -> u32 {
        1
    }

    fn clean_runs(&self) -> Box<dyn Iterator<Item = (u32, u64)> + '_> {
        // Uniform clean start: a single run for the whole population.
        Box::new(std::iter::once((1, self.population_size() as u64)))
    }
}

/// State index `r - 1` for rank `r`: the state space is exactly the rank
/// space `[n]`, and the only non-silent ordered pairs are the diagonal ones
/// (two agents claiming the same rank) — which is why batching pays off:
/// once ranks are nearly distinct, almost every interaction is a skippable
/// no-op.
impl EnumerableProtocol for DirectCollisionSsle {
    fn num_states(&self) -> usize {
        self.n
    }
    fn encode(&self, state: &u32) -> usize {
        let rank = *state as usize;
        assert!(
            (1..=self.n).contains(&rank),
            "rank {rank} outside 1..={}",
            self.n
        );
        rank - 1
    }
    fn decode(&self, index: usize) -> u32 {
        (index + 1) as u32
    }
    fn is_silent(&self, initiator: usize, responder: usize) -> bool {
        // Distinct ranks never change; equal ranks resample the responder
        // (randomized, so the pair is non-silent even though the resample
        // may occasionally restore the same rank).
        initiator != responder
    }
}

impl LeaderOutput for DirectCollisionSsle {
    fn is_leader(&self, state: &u32) -> bool {
        *state == 1
    }
}

impl RankingOutput for DirectCollisionSsle {
    fn rank(&self, state: &u32) -> Option<usize> {
        Some(*state as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::{Configuration, Simulation};

    fn is_permutation(states: &[u32], n: usize) -> bool {
        let mut seen = vec![false; n + 1];
        states.iter().all(|&s| {
            (1..=n as u32).contains(&s) && !std::mem::replace(&mut seen[s as usize], true)
        })
    }

    #[test]
    fn collision_resamples_only_the_responder() {
        let p = DirectCollisionSsle::new(8);
        let mut rng = ppsim::SimRng::seed_from_u64(1);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        let (mut a, mut b) = (3u32, 3u32);
        p.interact(&mut a, &mut b, &mut ctx);
        assert_eq!(a, 3);
        assert!((1..=8).contains(&b));
        let (mut a, mut b) = (3u32, 5u32);
        p.interact(&mut a, &mut b, &mut ctx);
        assert_eq!((a, b), (3, 5), "distinct ranks are left alone");
    }

    #[test]
    fn stabilizes_to_a_permutation() {
        let n = 16;
        let p = DirectCollisionSsle::new(n);
        let config = Configuration::clean(&p);
        let mut sim = Simulation::new(p, config, 5);
        let out = sim.run_until(|c| is_permutation(c.as_slice(), n), 50_000_000);
        assert!(out.satisfied);
        let p = DirectCollisionSsle::new(n);
        assert!(p.is_correct_ranking(sim.configuration().as_slice()));
        assert_eq!(p.leader_count(sim.configuration().as_slice()), 1);
    }

    #[test]
    fn stabilizes_from_adversarial_start() {
        let n = 12;
        let p = DirectCollisionSsle::new(n);
        let config = Configuration::from_states(vec![4u32; n]);
        let mut sim = Simulation::new(p, config, 8);
        let out = sim.run_until(|c| is_permutation(c.as_slice(), n), 50_000_000);
        assert!(out.satisfied);
    }

    #[test]
    fn batched_engine_stabilizes_to_a_permutation() {
        let n = 16;
        let telemetry = ppsim::Telemetry::enabled();
        let mut sim = ppsim::SimBuilder::new(DirectCollisionSsle::new(n))
            .kind(ppsim::EngineKind::Batched)
            .seed(5)
            .telemetry(telemetry.clone())
            .build();
        // A permutation in count space: every rank held by exactly one agent.
        let out = sim.run_until(&mut |c| c.counts().iter().all(|&c| c == 1), 50_000_000);
        assert!(out.satisfied);
        let p = DirectCollisionSsle::new(n);
        assert!(p.is_correct_ranking(sim.to_configuration().as_slice()));
        // From the all-rank-1 start, reaching a permutation needs at least
        // n - 1 resamples but far fewer interactions than the per-step count.
        let active = telemetry
            .report()
            .expect("enabled handle")
            .counter(ppsim::telemetry::Counter::BatchedActiveInteractions);
        assert!(active >= (n as u64) - 1);
        assert!(active < out.interactions);
    }

    #[test]
    fn enumeration_round_trips_ranks() {
        let p = DirectCollisionSsle::new(8);
        for index in 0..p.num_states() {
            assert_eq!(p.encode(&p.decode(index)), index);
        }
        assert!(p.is_silent(0, 3) && !p.is_silent(3, 3));
    }

    #[test]
    fn permutations_are_absorbing() {
        let p = DirectCollisionSsle::new(4);
        let mut rng = ppsim::SimRng::seed_from_u64(2);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        let (mut a, mut b) = (1u32, 4u32);
        p.interact(&mut a, &mut b, &mut ctx);
        assert_eq!((a, b), (1, 4));
    }
}
