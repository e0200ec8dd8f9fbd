//! Stabilization detection.
//!
//! A self-stabilizing protocol *stabilizes* once the population enters a
//! configuration from which the output predicate remains true forever. In a
//! finite simulation we approximate this operationally: the stabilization
//! time is the first interaction after which the predicate held continuously
//! until the end of a confirmation window (and, in the experiment harness,
//! until the end of the run).

use serde::Serialize;

/// Tracks the first time a predicate became true and stayed true.
#[derive(Debug, Clone, Default)]
pub struct StabilizationDetector {
    first_satisfied: Option<u64>,
    satisfied_now: bool,
}

impl StabilizationDetector {
    /// Creates a fresh detector.
    pub fn new() -> Self {
        StabilizationDetector::default()
    }

    /// Feeds one observation: whether the predicate holds after interaction
    /// number `interaction`.
    pub fn observe(&mut self, interaction: u64, satisfied: bool) {
        if satisfied {
            if self.first_satisfied.is_none() {
                self.first_satisfied = Some(interaction);
            }
        } else {
            self.first_satisfied = None;
        }
        self.satisfied_now = satisfied;
    }

    /// The first interaction index from which the predicate has held
    /// continuously up to the latest observation, if it currently holds.
    pub fn stabilized_at(&self) -> Option<u64> {
        if self.satisfied_now {
            self.first_satisfied
        } else {
            None
        }
    }

    /// Whether the predicate held at the latest observation.
    pub fn satisfied_now(&self) -> bool {
        self.satisfied_now
    }

    /// Number of consecutive interactions (ending at `now`) for which the
    /// predicate has held.
    pub fn consecutive(&self, now: u64) -> u64 {
        match (self.satisfied_now, self.first_satisfied) {
            (true, Some(first)) => now.saturating_sub(first),
            _ => 0,
        }
    }
}

/// The result of a stabilization measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StabilizationResult {
    /// Interactions executed **by the measuring call** (a relative count,
    /// like [`crate::RunOutcome::interactions`]).
    pub interactions: u64,
    /// The **absolute** interaction index — counted from the construction of
    /// the simulation, including interactions executed before the measuring
    /// call — at which the output predicate became true and stayed true
    /// until the end of the run, if it did. Every engine
    /// ([`crate::Simulation`] and each [`crate::EngineKind`] tier) follows
    /// this convention, so warm-started measurements are comparable across
    /// them.
    pub stabilized_at: Option<u64>,
    /// Population size, for converting to parallel time.
    pub n: usize,
}

impl StabilizationResult {
    /// Whether the run stabilized within its budget.
    pub fn stabilized(&self) -> bool {
        self.stabilized_at.is_some()
    }

    /// Stabilization time in parallel time units (interactions / n), if the
    /// run stabilized.
    pub fn parallel_time(&self) -> Option<f64> {
        self.stabilized_at.map(|t| t as f64 / self.n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_resets_on_violation() {
        let mut d = StabilizationDetector::new();
        d.observe(1, true);
        d.observe(2, true);
        assert_eq!(d.stabilized_at(), Some(1));
        assert_eq!(d.consecutive(2), 1);
        d.observe(3, false);
        assert_eq!(d.stabilized_at(), None);
        assert!(!d.satisfied_now());
        d.observe(4, true);
        assert_eq!(d.stabilized_at(), Some(4));
    }

    #[test]
    fn result_parallel_time() {
        let r = StabilizationResult {
            interactions: 1000,
            stabilized_at: Some(500),
            n: 100,
        };
        assert!(r.stabilized());
        assert_eq!(r.parallel_time(), Some(5.0));
        let r = StabilizationResult {
            interactions: 1000,
            stabilized_at: None,
            n: 100,
        };
        assert!(!r.stabilized());
        assert_eq!(r.parallel_time(), None);
    }
}
