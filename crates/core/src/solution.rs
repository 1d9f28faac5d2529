//! Common solution and error types shared by the solvers.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::assoc::{Association, LoadLedger};
use crate::ids::UserId;
use crate::instance::Instance;
use crate::load::Load;

/// Which objective a solution optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Maximize the number of satisfied users.
    Mnu,
    /// Minimize the maximum AP load (serving everyone).
    Bla,
    /// Minimize the total AP load (serving everyone).
    Mla,
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::Mnu => write!(f, "MNU"),
            Objective::Bla => write!(f, "BLA"),
            Objective::Mla => write!(f, "MLA"),
        }
    }
}

/// The outcome of a solver run, with the realized (Definition 1) load
/// metrics of the produced association.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// The objective that was optimized.
    pub objective: Objective,
    /// Who associates where (unsatisfied users are `None`).
    pub association: Association,
    /// Users receiving service.
    pub satisfied: usize,
    /// Realized total multicast load over all APs.
    pub total_load: Load,
    /// Realized maximum AP multicast load.
    pub max_load: Load,
    /// The covering-model objective value, when the solver went through a
    /// reduction (total model cost for MLA, max group cost for BLA, spent
    /// model budget for MNU). The realized metrics can be *smaller*: if two
    /// sets for the same (AP, session) are chosen, the AP really transmits
    /// once, at the lower rate.
    pub model_cost: Option<Load>,
}

impl Solution {
    /// Evaluates `association` under `objective` against `inst`.
    pub fn evaluate(
        objective: Objective,
        association: Association,
        inst: &Instance,
        model_cost: Option<Load>,
    ) -> Solution {
        let loads = association.loads(inst);
        Solution {
            objective,
            satisfied: association.satisfied_count(),
            total_load: loads.iter().copied().sum(),
            max_load: loads.into_iter().max().unwrap_or(Load::ZERO),
            association,
            model_cost,
        }
    }

    /// The solution a solver's ledger already holds: its association and
    /// the loads it kept live, with no re-evaluation.
    pub fn from_ledger(
        objective: Objective,
        ledger: LoadLedger<'_>,
        model_cost: Option<Load>,
    ) -> Solution {
        let (total_load, max_load) = (ledger.total_load(), ledger.max_load());
        let association = ledger.into_association();
        Solution {
            objective,
            satisfied: association.satisfied_count(),
            total_load,
            max_load,
            association,
            model_cost,
        }
    }
}

/// Errors from the centralized solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// Some users cannot hear any AP; the full-coverage objectives
    /// (BLA, MLA) are infeasible.
    Uncoverable {
        /// The users no AP can reach.
        users: Vec<UserId>,
    },
    /// No candidate budget grid entry produced a full cover (BLA).
    NoFeasibleBudget,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Uncoverable { users } => {
                write!(f, "{} user(s) cannot hear any AP", users.len())
            }
            SolveError::NoFeasibleBudget => {
                write!(f, "no candidate budget yielded a complete cover")
            }
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::figure1_instance;
    use crate::ids::ApId;
    use crate::rate::Kbps;

    #[test]
    fn objective_display() {
        assert_eq!(Objective::Mnu.to_string(), "MNU");
        assert_eq!(Objective::Bla.to_string(), "BLA");
        assert_eq!(Objective::Mla.to_string(), "MLA");
    }

    #[test]
    fn evaluate_computes_realized_metrics() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let assoc = Association::from_vec(vec![
            Some(ApId(0)),
            Some(ApId(0)),
            Some(ApId(0)),
            Some(ApId(1)),
            Some(ApId(1)),
        ]);
        let sol = Solution::evaluate(Objective::Bla, assoc, &inst, None);
        assert_eq!(sol.satisfied, 5);
        assert_eq!(sol.max_load, Load::from_ratio(1, 2));
        assert_eq!(
            sol.total_load,
            Load::from_ratio(1, 2) + Load::from_ratio(1, 3)
        );
        assert_eq!(sol.model_cost, None);
    }

    #[test]
    fn from_ledger_matches_evaluate() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        for (u, a) in [(0, 0), (1, 0), (2, 1), (4, 1)] {
            ledger.join(UserId(u), ApId(a));
        }
        let assoc = ledger.association().clone();
        let cost = Some(Load::from_ratio(1, 7));
        assert_eq!(
            Solution::from_ledger(Objective::Mla, ledger, cost),
            Solution::evaluate(Objective::Mla, assoc, &inst, cost)
        );
    }

    #[test]
    fn from_fresh_ledger_is_empty() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let sol = Solution::from_ledger(Objective::Mnu, LoadLedger::fresh(&inst), None);
        assert_eq!(sol.satisfied, 0);
        assert_eq!(sol.total_load, Load::ZERO);
        assert_eq!(sol.max_load, Load::ZERO);
        assert_eq!(sol.association, Association::empty(inst.n_users()));
    }
}
