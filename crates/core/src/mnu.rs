//! Centralized **MNU** — Maximize the Number of Users (paper §4.1).
//!
//! MNU reduces to Maximum Coverage with Group Budgets (Theorem 1); the
//! solver is the greedy of Fig. 3 plus the `H₁`/`H₂` partition, an
//! 8-approximation (Theorem 2). NP-hardness follows from Subset Sum
//! (Theorem 7).

use mcast_covering::greedy_mcg;

use crate::assoc::LoadLedger;
use crate::instance::Instance;
use crate::reduction::Reduction;
use crate::solution::{Objective, Solution};

/// Configuration for [`solve_mnu_with`].
#[derive(Debug, Clone, Default)]
pub struct MnuConfig {
    /// After the approximation algorithm, greedily admit still-unsatisfied
    /// users onto APs with *realized* load slack (the realized load of an
    /// association is at most the covering-model cost, so slack may remain).
    /// This is an extension beyond the paper — off by default, benched as
    /// an ablation.
    pub augment: bool,
}

/// Solves MNU with the paper's plain algorithm. See [`solve_mnu_with`].
///
/// # Example
///
/// ```
/// use mcast_core::{examples_paper, solve_mnu, Kbps};
///
/// let inst = examples_paper::figure1_instance(Kbps::from_mbps(3));
/// let sol = solve_mnu(&inst);
/// assert_eq!(sol.satisfied, 3); // the paper's walk-through outcome
/// ```
pub fn solve_mnu(inst: &Instance) -> Solution {
    solve_mnu_with(inst, &MnuConfig::default())
}

/// Solves MNU: associates as many users as possible without any AP
/// exceeding its multicast load budget. Users that cannot be admitted stay
/// unsatisfied (`None` in the association) — unlike BLA/MLA this never
/// fails on uncoverable users.
pub fn solve_mnu_with(inst: &Instance, config: &MnuConfig) -> Solution {
    let red = Reduction::build(inst);
    let sol = greedy_mcg(red.system(), red.budgets());
    let feasible = sol.feasible();
    let model_cost = *feasible.total_cost();
    let assoc = red.to_association(feasible);

    if config.augment {
        // Admit leftover users wherever realized slack allows, most
        // constrained (fewest candidate APs) first.
        let mut leftovers: Vec<_> = inst.users().filter(|&u| assoc.ap_of(u).is_none()).collect();
        leftovers.sort_by_key(|&u| inst.candidate_aps(u).len());
        let mut ledger = LoadLedger::new(inst, assoc);
        for u in leftovers {
            let best = inst
                .candidate_aps(u)
                .iter()
                .filter_map(|&(a, _)| {
                    let load = ledger.load_if_joined(u, a)?;
                    (load <= inst.budget(a)).then_some((load, a))
                })
                .min();
            if let Some((_, a)) = best {
                ledger.join(u, a);
            }
        }
        debug_assert!(ledger.association().is_feasible(inst));
        return Solution::from_ledger(Objective::Mnu, ledger, Some(model_cost));
    }

    debug_assert!(assoc.is_feasible(inst));
    Solution::evaluate(Objective::Mnu, assoc, inst, Some(model_cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::{a, figure1_instance, u};
    use crate::instance::InstanceBuilder;
    use crate::load::Load;
    use crate::rate::Kbps;

    /// Paper §4.1 "Example – Centralized MNU": H₁ = {S4} wins — u2, u4, u5
    /// on a1, 3 users served (vs 2 for SSA).
    #[test]
    fn figure1_walkthrough() {
        let inst = figure1_instance(Kbps::from_mbps(3));
        let sol = solve_mnu(&inst);
        assert_eq!(sol.satisfied, 3);
        assert_eq!(sol.association.ap_of(u(2)), Some(a(1)));
        assert_eq!(sol.association.ap_of(u(4)), Some(a(1)));
        assert_eq!(sol.association.ap_of(u(5)), Some(a(1)));
        assert_eq!(sol.association.ap_of(u(1)), None);
        assert_eq!(sol.association.ap_of(u(3)), None);
        assert_eq!(sol.max_load, Load::from_ratio(3, 4));
        assert!(sol.association.is_feasible(&inst));
    }

    /// The augmentation pass picks up users the covering model left out:
    /// here u3 still fits on a2 (load 3/5 ≤ 1) after the plain algorithm.
    #[test]
    fn augmentation_admits_leftovers() {
        let inst = figure1_instance(Kbps::from_mbps(3));
        let sol = solve_mnu_with(&inst, &MnuConfig { augment: true });
        assert!(sol.satisfied >= 4, "augmented MNU should serve u3 too");
        assert!(sol.association.is_feasible(&inst));
    }

    /// With zero budgets nothing can be admitted.
    #[test]
    fn zero_budget_serves_nobody() {
        let mut b = InstanceBuilder::new();
        b.supported_rates([Kbps::from_mbps(6)]);
        let s = b.add_session(Kbps::from_mbps(1));
        let ap = b.add_ap(Load::ZERO);
        let user = b.add_user(s);
        b.link(ap, user, Kbps::from_mbps(6)).unwrap();
        let inst = b.build().unwrap();
        let sol = solve_mnu(&inst);
        assert_eq!(sol.satisfied, 0);
        assert_eq!(sol.total_load, Load::ZERO);
    }

    /// Uncoverable users are simply unsatisfied, not an error.
    #[test]
    fn uncoverable_users_stay_unsatisfied() {
        let mut b = InstanceBuilder::new();
        b.supported_rates([Kbps::from_mbps(6)]);
        let s = b.add_session(Kbps::from_mbps(1));
        let ap = b.add_ap(Load::ONE);
        let near = b.add_user(s);
        let _far = b.add_user(s);
        b.link(ap, near, Kbps::from_mbps(6)).unwrap();
        let inst = b.build().unwrap();
        let sol = solve_mnu(&inst);
        assert_eq!(sol.satisfied, 1);
    }

    /// The subset-sum gadget of Theorem 7: one AP with budget T, sessions
    /// with loads g_i, g_i users each. A perfect subset exists — the greedy
    /// may or may not find it, but never exceeds the budget.
    #[test]
    fn subset_sum_gadget_feasibility() {
        // G = {2, 3, 5}, T = 5 (e.g. {2,3} or {5}).
        let g = [2u32, 3, 5];
        let t = 5u32;
        let mut b = InstanceBuilder::new();
        // Unit link rate 1 Mbps; session s_i streams at g_i Mbps so a unit
        // -rate transmission costs g_i... scaled: budget T/10, loads g_i/10.
        b.supported_rates([Kbps::from_mbps(10)]);
        let ap = b.add_ap(Load::from_ratio(u64::from(t), 10));
        for &gi in &g {
            let s = b.add_session(Kbps::from_mbps(gi));
            for _ in 0..gi {
                let u = b.add_user(s);
                b.link(ap, u, Kbps::from_mbps(10)).unwrap();
            }
        }
        let inst = b.build().unwrap();
        let sol = solve_mnu(&inst);
        assert!(sol.association.is_feasible(&inst));
        // Optimal serves exactly T = 5 users; 8-approx guarantees >= 1.
        assert!(sol.satisfied >= 1 && sol.satisfied <= 5);
    }
}
