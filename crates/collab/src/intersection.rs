//! Competing collaborative systems at an intersection (§VII-A).
//!
//! *"Assuming these systems will 'honestly' collaborate is overly
//! simplistic... an optimization battle could arise among different
//! agents or software providers."* The model: a four-way intersection
//! with one protocol slot per round. Cooperative agents follow the
//! agreed priority order; a self-interested agent defects (goes out of
//! turn) with probability equal to its self-interest parameter. Two
//! simultaneous movers conflict — both must back off — and mutual
//! over-politeness can deadlock.

use autosec_sim::SimRng;

/// One agent approaching the intersection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agent {
    /// Probability of going out of turn per round (0 = fully
    /// cooperative, 1 = maximally self-interested).
    pub self_interest: f64,
    /// Probability of *hesitating* on its own turn (models overly
    /// defensive tuning; creates the deadlock the paper mentions).
    pub hesitation: f64,
}

impl Agent {
    /// A cooperative agent.
    pub fn cooperative() -> Self {
        Self {
            self_interest: 0.0,
            hesitation: 0.05,
        }
    }

    /// A selfish agent with the given defection probability.
    pub fn selfish(p: f64) -> Self {
        Self {
            self_interest: p.clamp(0.0, 1.0),
            hesitation: 0.05,
        }
    }
}

/// Result of an intersection simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntersectionReport {
    /// Vehicles that crossed per round (throughput).
    pub throughput: f64,
    /// Fraction of rounds with a conflict (two movers).
    pub conflict_rate: f64,
    /// Fraction of rounds where nobody moved (deadlock rounds).
    pub deadlock_rate: f64,
    /// Crossings by the most selfish agent minus the average of the
    /// others (what defection buys you individually).
    pub selfish_advantage: f64,
}

/// Outcome of a single protocol round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundOutcome {
    /// Exactly one agent moved: a crossing by that agent index.
    Crossed(usize),
    /// Two or more movers: everyone slams the brakes; slot wasted.
    Conflict,
    /// Nobody moved.
    Deadlock,
}

/// Plays round number `round` (its position fixes whose turn it is:
/// `round % 4`).
///
/// Rounds are independent given their number, so a sweep can run them
/// on any RNG streams (e.g. one [`SimRng::fork_idx`] stream per round
/// in a parallel run) and fold the outcomes into an
/// [`IntersectionAccumulator`].
///
/// # Panics
///
/// Panics unless exactly four agents are given.
pub fn round_outcome(agents: &[Agent], round: usize, rng: &mut SimRng) -> RoundOutcome {
    assert_eq!(agents.len(), 4, "four-way intersection needs four agents");
    let turn = round % 4;
    // Who attempts to move this round?
    let mut movers = Vec::new();
    for (i, agent) in agents.iter().enumerate() {
        let attempts = if i == turn {
            !rng.chance(agent.hesitation)
        } else {
            rng.chance(agent.self_interest)
        };
        if attempts {
            movers.push(i);
        }
    }
    match movers.len() {
        0 => RoundOutcome::Deadlock,
        1 => RoundOutcome::Crossed(movers[0]),
        _ => RoundOutcome::Conflict,
    }
}

/// Tally of round outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntersectionAccumulator {
    crossings: [usize; 4],
    conflicts: usize,
    deadlocks: usize,
    rounds: usize,
}

impl IntersectionAccumulator {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one round outcome in.
    pub fn add(&mut self, outcome: RoundOutcome) {
        match outcome {
            RoundOutcome::Crossed(i) => self.crossings[i] += 1,
            RoundOutcome::Conflict => self.conflicts += 1,
            RoundOutcome::Deadlock => self.deadlocks += 1,
        }
        self.rounds += 1;
    }

    /// Finalizes into a report for the given agent set.
    ///
    /// # Panics
    ///
    /// Panics if no round was folded in or the agent count is not four.
    pub fn report(&self, agents: &[Agent]) -> IntersectionReport {
        assert_eq!(agents.len(), 4, "four-way intersection needs four agents");
        assert!(self.rounds > 0, "need at least one round");
        let total: usize = self.crossings.iter().sum();
        let max_selfish = agents
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.self_interest
                    .partial_cmp(&b.1.self_interest)
                    .expect("no NaN")
            })
            .map(|(i, _)| i)
            .expect("nonempty");
        let others: f64 = self
            .crossings
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != max_selfish)
            .map(|(_, &c)| c as f64)
            .sum::<f64>()
            / 3.0;

        IntersectionReport {
            throughput: total as f64 / self.rounds as f64,
            conflict_rate: self.conflicts as f64 / self.rounds as f64,
            deadlock_rate: self.deadlocks as f64 / self.rounds as f64,
            selfish_advantage: self.crossings[max_selfish] as f64 - others,
        }
    }
}

/// Simulates `rounds` protocol rounds with an endless queue behind each
/// of the four approaches.
///
/// # Panics
///
/// Panics unless exactly four agents are given.
pub fn simulate(agents: &[Agent], rounds: usize, rng: &mut SimRng) -> IntersectionReport {
    let mut acc = IntersectionAccumulator::new();
    for round in 0..rounds {
        acc.add(round_outcome(agents, round, rng));
    }
    acc.report(agents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cooperative_agents_flow_smoothly() {
        let agents = [Agent::cooperative(); 4];
        let mut rng = SimRng::seed(1);
        let r = simulate(&agents, 4000, &mut rng);
        assert!(r.throughput > 0.9, "{}", r.throughput);
        assert!(r.conflict_rate < 0.02);
        assert!(r.deadlock_rate < 0.06);
    }

    #[test]
    fn one_selfish_agent_gains_individually() {
        let mut agents = [Agent::cooperative(); 4];
        agents[2] = Agent::selfish(0.3);
        let mut rng = SimRng::seed(2);
        let r = simulate(&agents, 4000, &mut rng);
        assert!(r.selfish_advantage > 100.0, "{}", r.selfish_advantage);
    }

    #[test]
    fn universal_selfishness_collapses_throughput() {
        let coop = simulate(&[Agent::cooperative(); 4], 4000, &mut SimRng::seed(3));
        let selfish = simulate(&[Agent::selfish(0.5); 4], 4000, &mut SimRng::seed(3));
        assert!(
            selfish.throughput < coop.throughput * 0.8,
            "coop {} vs selfish {}",
            coop.throughput,
            selfish.throughput
        );
        assert!(selfish.conflict_rate > 0.3);
    }

    #[test]
    fn hesitant_agents_deadlock() {
        let timid = Agent {
            self_interest: 0.0,
            hesitation: 0.8,
        };
        let r = simulate(&[timid; 4], 4000, &mut SimRng::seed(4));
        assert!(r.deadlock_rate > 0.5, "{}", r.deadlock_rate);
    }

    #[test]
    #[should_panic(expected = "four-way")]
    fn wrong_agent_count_panics() {
        let _ = simulate(&[Agent::cooperative(); 3], 10, &mut SimRng::seed(5));
    }
}
