//! A loosely-stabilizing leader election in the style of Sudo, Nakamura,
//! Yamauchi, Ooshita, Kakugawa, and Masuzawa (TCS 2012), the relaxation
//! discussed in the paper's related-work section.
//!
//! Every agent carries a leader bit and a timeout counter. Leaders keep their
//! counter at the maximum; followers propagate (roughly) the largest counter
//! they have seen, decremented on every interaction. When a follower's
//! counter reaches zero it concludes that no leader exists and promotes
//! itself; when two leaders meet, the responder demotes itself. From *any*
//! configuration a unique leader therefore re-emerges within `O(n log n)`
//! interactions in practice — but unlike a truly self-stabilizing protocol
//! the single-leader configuration is only held for a finite (exponentially
//! long in the counter range, but bounded) time.

use ppsim::{AgentId, CleanInit, EnumerableProtocol, InteractionCtx, LeaderOutput, Protocol};
use serde::{Deserialize, Serialize};

/// Per-agent state of the loosely-stabilizing protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LooseState {
    /// Whether the agent currently acts as leader.
    pub leader: bool,
    /// Timeout counter in `0..=timer_max`.
    pub timer: u32,
}

/// The loosely-stabilizing leader election protocol.
#[derive(Debug, Clone, Copy)]
pub struct LooselyStabilizingLe {
    n: usize,
    timer_max: u32,
}

impl LooselyStabilizingLe {
    /// Creates the protocol with the default timeout `⌈8 · n · ln n⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "the protocol needs at least two agents");
        let nf = n as f64;
        LooselyStabilizingLe {
            n,
            timer_max: (8.0 * nf * nf.ln().max(1.0)).ceil() as u32,
        }
    }

    /// Creates the protocol with an explicit timeout bound (larger values
    /// trade longer holding times for slower recovery from leaderless
    /// configurations).
    pub fn with_timer_max(n: usize, timer_max: u32) -> Self {
        assert!(n >= 2, "the protocol needs at least two agents");
        assert!(timer_max >= 1, "the timeout must be positive");
        LooselyStabilizingLe { n, timer_max }
    }

    /// The timeout bound in use.
    pub fn timer_max(&self) -> u32 {
        self.timer_max
    }

    /// The deterministic transition, shared by [`Protocol::interact`] and
    /// the silence check of [`EnumerableProtocol`].
    fn step(&self, u: &mut LooseState, v: &mut LooseState) {
        // Two leaders: the responder abdicates.
        if u.leader && v.leader {
            v.leader = false;
        }
        // Leaders refresh the timeout; followers propagate the maximum seen,
        // decremented by one.
        let observed = u.timer.max(v.timer);
        for state in [&mut *u, &mut *v] {
            if state.leader {
                state.timer = self.timer_max;
            } else {
                state.timer = observed.saturating_sub(1);
                if state.timer == 0 {
                    // Timeout: no leader heard from for a long time.
                    state.leader = true;
                    state.timer = self.timer_max;
                }
            }
        }
    }
}

impl Protocol for LooselyStabilizingLe {
    type State = LooseState;

    fn population_size(&self) -> usize {
        self.n
    }

    fn interact(&self, u: &mut LooseState, v: &mut LooseState, _ctx: &mut InteractionCtx<'_>) {
        self.step(u, v);
    }
}

/// States enumerate as `leader · (timer_max + 1) + timer`, giving
/// `|Q| = 2 · (timer_max + 1)`. The transition is deterministic, so silence
/// is decided exactly by running it on the decoded pair.
///
/// Note: the default `timer_max` of [`LooselyStabilizingLe::new`] is
/// `Θ(n log n)`, which makes `|Q|²` construction of a batched engine costly
/// for large `n`; batched runs should use
/// [`LooselyStabilizingLe::with_timer_max`] with a moderate bound.
impl EnumerableProtocol for LooselyStabilizingLe {
    fn num_states(&self) -> usize {
        2 * (self.timer_max as usize + 1)
    }
    fn encode(&self, state: &LooseState) -> usize {
        assert!(
            state.timer <= self.timer_max,
            "timer {} exceeds the bound {}",
            state.timer,
            self.timer_max
        );
        usize::from(state.leader) * (self.timer_max as usize + 1) + state.timer as usize
    }
    fn decode(&self, index: usize) -> LooseState {
        let span = self.timer_max as usize + 1;
        LooseState {
            leader: index / span == 1,
            timer: (index % span) as u32,
        }
    }
    fn is_silent(&self, initiator: usize, responder: usize) -> bool {
        let mut u = self.decode(initiator);
        let mut v = self.decode(responder);
        let before = (u, v);
        self.step(&mut u, &mut v);
        (u, v) == before
    }
}

impl CleanInit for LooselyStabilizingLe {
    /// Clean start: no leaders, timers at zero (the first interaction
    /// promotes someone immediately).
    fn clean_state(&self, _agent: AgentId) -> LooseState {
        LooseState {
            leader: false,
            timer: 0,
        }
    }

    fn clean_runs(&self) -> Box<dyn Iterator<Item = (LooseState, u64)> + '_> {
        // Uniform clean start: a single run for the whole population.
        Box::new(std::iter::once((
            LooseState {
                leader: false,
                timer: 0,
            },
            self.population_size() as u64,
        )))
    }
}

impl LeaderOutput for LooselyStabilizingLe {
    fn is_leader(&self, state: &LooseState) -> bool {
        state.leader
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::{Configuration, Simulation};

    fn unique_leader(c: &Configuration<LooseState>) -> bool {
        c.count_where(|s| s.leader) == 1
    }

    #[test]
    fn recovers_a_unique_leader_from_leaderless_start() {
        let n = 64;
        let p = LooselyStabilizingLe::new(n);
        let config = Configuration::clean(&p);
        let mut sim = Simulation::new(p, config, 2);
        let out = sim.run_until(unique_leader, 5_000_000);
        assert!(out.satisfied);
    }

    #[test]
    fn recovers_from_an_all_leader_start() {
        let n = 48;
        let p = LooselyStabilizingLe::new(n);
        let config = Configuration::uniform(
            n,
            LooseState {
                leader: true,
                timer: 0,
            },
        );
        let mut sim = Simulation::new(p, config, 3);
        let out = sim.run_until(unique_leader, 5_000_000);
        assert!(out.satisfied);
    }

    #[test]
    fn holds_the_leader_for_a_long_time_once_unique() {
        let n = 32;
        let p = LooselyStabilizingLe::new(n);
        let timer_max = p.timer_max();
        let config = Configuration::clean(&p);
        let mut sim = Simulation::new(p, config, 5);
        assert!(sim.run_until(unique_leader, 5_000_000).satisfied);
        // Run for another timer_max * n / 4 interactions: the holding time is
        // far longer than the recovery time, so the leader must persist.
        let budget = u64::from(timer_max) * n as u64 / 4;
        sim.run(budget);
        assert!(unique_leader(sim.configuration()));
    }

    #[test]
    fn two_leaders_meeting_demotes_the_responder() {
        let p = LooselyStabilizingLe::new(8);
        let mut rng = ppsim::SimRng::seed_from_u64(0);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        let mut a = LooseState {
            leader: true,
            timer: 5,
        };
        let mut b = LooseState {
            leader: true,
            timer: 5,
        };
        p.interact(&mut a, &mut b, &mut ctx);
        assert!(a.leader && !b.leader);
        assert_eq!(a.timer, p.timer_max());
    }

    #[test]
    fn enumeration_round_trips_states() {
        let p = LooselyStabilizingLe::with_timer_max(8, 5);
        assert_eq!(p.num_states(), 12);
        for index in 0..p.num_states() {
            assert_eq!(p.encode(&p.decode(index)), index);
        }
    }

    #[test]
    fn silence_matches_the_transition() {
        let p = LooselyStabilizingLe::with_timer_max(4, 6);
        // A leader at full timer meeting a follower one tick behind changes
        // nothing; a follower pair at zero both promote.
        let leader_full = p.encode(&LooseState {
            leader: true,
            timer: 6,
        });
        let follower_behind = p.encode(&LooseState {
            leader: false,
            timer: 5,
        });
        let follower_zero = p.encode(&LooseState {
            leader: false,
            timer: 0,
        });
        assert!(p.is_silent(leader_full, follower_behind));
        assert!(!p.is_silent(follower_zero, follower_zero));
    }

    #[test]
    fn batched_engine_recovers_a_unique_leader() {
        let n = 64;
        let p = LooselyStabilizingLe::with_timer_max(n, 200);
        let mut sim = ppsim::SimBuilder::new(p)
            .kind(ppsim::EngineKind::Batched)
            .seed(2)
            .build();
        let out = sim.run_until(
            &mut |c| {
                let p = LooselyStabilizingLe::with_timer_max(64, 200);
                c.count_where(&p, |s| s.leader) == 1
            },
            5_000_000,
        );
        assert!(out.satisfied);
    }

    #[test]
    #[should_panic(expected = "timeout must be positive")]
    fn zero_timer_rejected() {
        let _ = LooselyStabilizingLe::with_timer_max(8, 0);
    }
}
