//! Branch behavior models: how a static branch decides its direction.
//!
//! Each static conditional branch in a synthetic program carries a
//! [`BranchBehavior`]. The interpreter keeps one [`BehaviorState`] per
//! static branch and asks it for the next direction at every dynamic
//! instance. The models cover the behaviour classes branch-prediction
//! papers care about:
//!
//! * loop back-edges ([`BranchBehavior::LoopExit`]) — taken `trips − 1`
//!   times, then not taken, repeating;
//! * highly biased and unbiased data-dependent branches
//!   ([`BranchBehavior::Bernoulli`]);
//! * short periodic patterns ([`BranchBehavior::Pattern`]) — perfectly
//!   predictable with enough local history;
//! * globally correlated branches ([`BranchBehavior::Correlated`]) whose
//!   outcome follows the previous dynamic branch's outcome.

use crate::WorkloadError;
use bwsa_trace::Direction;
use rand::rngs::SmallRng;
use rand::Rng;

/// Direction model of one static conditional branch.
#[derive(Debug, Clone, PartialEq)]
pub enum BranchBehavior {
    /// Taken independently with probability `taken_prob`.
    Bernoulli {
        /// Probability in `[0, 1]` of resolving taken.
        taken_prob: f64,
    },
    /// A loop back-edge: taken `trips − 1` consecutive times, then not
    /// taken once, then the cycle repeats.
    LoopExit {
        /// Loop trip count; must be at least 1.
        trips: u32,
    },
    /// A fixed periodic direction sequence (`true` = taken).
    Pattern {
        /// The repeating outcome sequence; must be non-empty.
        bits: Vec<bool>,
    },
    /// Follows the globally most recent branch outcome with probability
    /// `agree_prob`, otherwise opposes it — a crude model of
    /// inter-branch correlation.
    Correlated {
        /// Probability in `[0, 1]` of agreeing with the previous outcome.
        agree_prob: f64,
    },
}

impl BranchBehavior {
    /// Validates the model's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidBehavior`] when a probability is
    /// outside `[0, 1]`, a trip count is zero, or a pattern is empty.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let bad = |reason: String| Err(WorkloadError::InvalidBehavior { reason });
        match self {
            BranchBehavior::Bernoulli { taken_prob } => {
                if !(0.0..=1.0).contains(taken_prob) {
                    return bad(format!("taken_prob {taken_prob} outside [0,1]"));
                }
            }
            BranchBehavior::LoopExit { trips } => {
                if *trips == 0 {
                    return bad("loop trip count must be >= 1".into());
                }
            }
            BranchBehavior::Pattern { bits } => {
                if bits.is_empty() {
                    return bad("pattern must be non-empty".into());
                }
            }
            BranchBehavior::Correlated { agree_prob } => {
                if !(0.0..=1.0).contains(agree_prob) {
                    return bad(format!("agree_prob {agree_prob} outside [0,1]"));
                }
            }
        }
        Ok(())
    }

    /// The long-run expected taken rate of this behavior, used by workload
    /// generators to reason about bias classes without simulating.
    ///
    /// For [`BranchBehavior::Correlated`] this is 0.5 by symmetry.
    pub fn expected_taken_rate(&self) -> f64 {
        match self {
            BranchBehavior::Bernoulli { taken_prob } => *taken_prob,
            BranchBehavior::LoopExit { trips } => (*trips as f64 - 1.0) / *trips as f64,
            BranchBehavior::Pattern { bits } => {
                bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64
            }
            BranchBehavior::Correlated { .. } => 0.5,
        }
    }

    /// Creates the initial per-branch runtime state for this model.
    pub fn initial_state(&self) -> BehaviorState {
        match self {
            BranchBehavior::Bernoulli { .. } => BehaviorState::Stateless,
            BranchBehavior::LoopExit { .. } => BehaviorState::LoopIteration(0),
            BranchBehavior::Pattern { .. } => BehaviorState::PatternPosition(0),
            BranchBehavior::Correlated { .. } => BehaviorState::Stateless,
        }
    }
}

/// Mutable per-branch runtime state paired with a [`BranchBehavior`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BehaviorState {
    /// The model needs no per-branch state.
    Stateless,
    /// Current iteration within the loop (for [`BranchBehavior::LoopExit`]).
    LoopIteration(u32),
    /// Current index into the pattern (for [`BranchBehavior::Pattern`]).
    PatternPosition(usize),
}

/// Shared dynamic context threaded through direction decisions.
#[derive(Debug, Clone, Copy)]
pub struct DecisionContext {
    /// Direction of the most recent dynamic branch (any static branch).
    pub last_outcome: Direction,
}

impl Default for DecisionContext {
    fn default() -> Self {
        DecisionContext {
            last_outcome: Direction::NotTaken,
        }
    }
}

/// Resolves the next direction for a branch, advancing its state.
///
/// # Example
///
/// ```
/// use bwsa_workload::behavior::{decide, BranchBehavior, DecisionContext};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let behavior = BranchBehavior::LoopExit { trips: 3 };
/// let mut state = behavior.initial_state();
/// let mut rng = SmallRng::seed_from_u64(1);
/// let ctx = DecisionContext::default();
/// let seq: Vec<bool> = (0..6)
///     .map(|_| decide(&behavior, &mut state, &mut rng, &ctx).is_taken())
///     .collect();
/// assert_eq!(seq, [true, true, false, true, true, false]);
/// ```
pub fn decide(
    behavior: &BranchBehavior,
    state: &mut BehaviorState,
    rng: &mut SmallRng,
    ctx: &DecisionContext,
) -> Direction {
    match (behavior, state) {
        (BranchBehavior::Bernoulli { taken_prob }, _) => {
            Direction::from_taken(rng.gen_bool(clamp_prob(*taken_prob)))
        }
        (BranchBehavior::LoopExit { trips }, BehaviorState::LoopIteration(i)) => {
            *i += 1;
            if *i >= *trips {
                *i = 0;
                Direction::NotTaken
            } else {
                Direction::Taken
            }
        }
        (BranchBehavior::Pattern { bits }, BehaviorState::PatternPosition(p)) => {
            let d = Direction::from_taken(bits[*p]);
            *p = (*p + 1) % bits.len();
            d
        }
        (BranchBehavior::Correlated { agree_prob }, _) => {
            if rng.gen_bool(clamp_prob(*agree_prob)) {
                ctx.last_outcome
            } else {
                ctx.last_outcome.flipped()
            }
        }
        (behavior, state) => unreachable!("state {state:?} does not match behavior {behavior:?}"),
    }
}

fn clamp_prob(p: f64) -> f64 {
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn run(behavior: &BranchBehavior, n: usize, seed: u64) -> Vec<bool> {
        let mut state = behavior.initial_state();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ctx = DecisionContext::default();
        (0..n)
            .map(|_| {
                let d = decide(behavior, &mut state, &mut rng, &ctx);
                ctx.last_outcome = d;
                d.is_taken()
            })
            .collect()
    }

    #[test]
    fn loop_exit_cycles() {
        let seq = run(&BranchBehavior::LoopExit { trips: 4 }, 8, 0);
        assert_eq!(seq, [true, true, true, false, true, true, true, false]);
    }

    #[test]
    fn loop_exit_with_one_trip_never_takes() {
        let seq = run(&BranchBehavior::LoopExit { trips: 1 }, 4, 0);
        assert_eq!(seq, [false, false, false, false]);
    }

    #[test]
    fn pattern_repeats() {
        let seq = run(
            &BranchBehavior::Pattern {
                bits: vec![true, false, false],
            },
            6,
            0,
        );
        assert_eq!(seq, [true, false, false, true, false, false]);
    }

    #[test]
    fn bernoulli_extremes_are_deterministic() {
        assert!(run(&BranchBehavior::Bernoulli { taken_prob: 1.0 }, 50, 1)
            .iter()
            .all(|&t| t));
        assert!(run(&BranchBehavior::Bernoulli { taken_prob: 0.0 }, 50, 1)
            .iter()
            .all(|&t| !t));
    }

    #[test]
    fn bernoulli_rate_approximates_probability() {
        let seq = run(&BranchBehavior::Bernoulli { taken_prob: 0.7 }, 10_000, 42);
        let rate = seq.iter().filter(|&&t| t).count() as f64 / seq.len() as f64;
        assert!((rate - 0.7).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn correlated_with_full_agreement_copies_history() {
        // With agree_prob 1.0 every outcome equals the previous outcome,
        // which starts as NotTaken and therefore stays NotTaken.
        let seq = run(&BranchBehavior::Correlated { agree_prob: 1.0 }, 10, 3);
        assert!(seq.iter().all(|&t| !t));
    }

    #[test]
    fn expected_rates() {
        assert_eq!(
            BranchBehavior::Bernoulli { taken_prob: 0.3 }.expected_taken_rate(),
            0.3
        );
        assert_eq!(
            BranchBehavior::LoopExit { trips: 4 }.expected_taken_rate(),
            0.75
        );
        assert_eq!(
            BranchBehavior::Pattern {
                bits: vec![true, true, false, false]
            }
            .expected_taken_rate(),
            0.5
        );
        assert_eq!(
            BranchBehavior::Correlated { agree_prob: 0.9 }.expected_taken_rate(),
            0.5
        );
    }

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(BranchBehavior::Bernoulli { taken_prob: 1.5 }
            .validate()
            .is_err());
        assert!(BranchBehavior::LoopExit { trips: 0 }.validate().is_err());
        assert!(BranchBehavior::Pattern { bits: vec![] }.validate().is_err());
        assert!(BranchBehavior::Correlated { agree_prob: -0.1 }
            .validate()
            .is_err());
        assert!(BranchBehavior::LoopExit { trips: 2 }.validate().is_ok());
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let b = BranchBehavior::Bernoulli { taken_prob: 0.5 };
        assert_eq!(run(&b, 100, 7), run(&b, 100, 7));
        assert_ne!(run(&b, 100, 7), run(&b, 100, 8));
    }
}
