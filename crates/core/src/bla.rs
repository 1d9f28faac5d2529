//! Centralized **BLA** — Balance the Load among APs (paper §5.1).
//!
//! BLA reduces to Set Cover with Group Budgets (Theorem 3) and is solved by
//! guessing the optimal per-AP budget `B*` and iterating the MCG greedy
//! (Fig. 6), a `log₈⁄₇(n) + 1` approximation (Theorem 4). NP-hardness
//! follows from Minimum Makespan Scheduling (Theorem 8).

use mcast_covering::{solve_scg, SetId};

use crate::instance::Instance;
use crate::load::Load;
use crate::reduction::Reduction;
use crate::solution::{Objective, Solution, SolveError};

/// Configuration for [`solve_bla_with`].
#[derive(Debug, Clone)]
pub struct BlaConfig {
    /// Number of geometrically spaced candidate budgets from `L/2` up to
    /// `max(1, c_max)`, where `L` is the certified lower bound described on
    /// [`solve_bla_with`] (paper: "try several (a constant number) values
    /// of `B*` between `c_max` and 1").
    pub grid_points: usize,
}

impl Default for BlaConfig {
    fn default() -> Self {
        BlaConfig { grid_points: 16 }
    }
}

/// Solves BLA with the default candidate grid. See [`solve_bla_with`].
///
/// # Errors
///
/// [`SolveError::Uncoverable`] if some user is out of range of every AP.
///
/// # Example
///
/// ```
/// use mcast_core::{examples_paper, solve_bla, Kbps, Load};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = examples_paper::figure1_instance(Kbps::from_mbps(1));
/// let sol = solve_bla(&inst)?;
/// assert!(sol.max_load <= Load::from_ratio(7, 12));
/// # Ok(())
/// # }
/// ```
pub fn solve_bla(inst: &Instance) -> Result<Solution, SolveError> {
    solve_bla_with(inst, &BlaConfig::default())
}

/// Solves BLA: associates every user so that the *maximum* per-AP multicast
/// load is (approximately) minimized.
///
/// The candidate `B*` grid contains:
/// * the distinct set costs of the reduction (the natural breakpoints),
/// * `grid_points` geometrically spaced values from `L/2` up to
///   `max(1, c_max)` (quantized to 1/10000), where `L = max over users of
///   the cheapest set covering them` — a certified lower bound on the
///   optimum, so the grid brackets it (the paper says "between c_max and
///   1"; extending the low end below `c_max` only adds candidates and
///   never worsens the best-of-grid result),
/// * and the sum of all set costs as an always-feasible fallback (so a
///   coverable instance never fails, even if its optimum exceeds load 1).
///
/// # Errors
///
/// [`SolveError::Uncoverable`] if some user is out of range of every AP;
/// [`SolveError::NoFeasibleBudget`] cannot occur for coverable instances
/// thanks to the fallback candidate, but is still mapped defensively.
pub fn solve_bla_with(inst: &Instance, config: &BlaConfig) -> Result<Solution, SolveError> {
    let red = Reduction::build(inst);
    let system = red.system();
    if inst.n_users() == 0 {
        return Ok(Solution::evaluate(
            Objective::Bla,
            crate::assoc::Association::empty(0),
            inst,
            Some(Load::ZERO),
        ));
    }
    if !system.all_coverable() {
        return Err(SolveError::Uncoverable {
            users: red.uncoverable_users(),
        });
    }

    let candidates = budget_grid(system, config.grid_points);
    let scg = solve_scg(system, &candidates).map_err(|e| match e {
        mcast_covering::ScgError::NoFeasibleBudget => SolveError::NoFeasibleBudget,
        mcast_covering::ScgError::Uncoverable { elements } => SolveError::Uncoverable {
            users: elements
                .into_iter()
                .map(|e| crate::ids::UserId(e.0))
                .collect(),
        },
        mcast_covering::ScgError::NoCandidates => SolveError::NoFeasibleBudget,
    })?;

    let model_cost = *scg.max_group_cost();
    let assoc = red.to_association(scg.cover());
    Ok(Solution::evaluate(
        Objective::Bla,
        assoc,
        inst,
        Some(model_cost),
    ))
}

/// Builds the candidate `B*` list described on [`solve_bla_with`].
fn budget_grid(system: &mcast_covering::SetSystem<Load>, grid_points: usize) -> Vec<Load> {
    let c_max = *system.max_set_cost().expect("non-empty system");
    let mut candidates: Vec<Load> = system.sets().iter().map(|s| *s.cost()).collect();

    // Lower bound on the optimum: every user must be covered by some set,
    // and its cheapest option lands in some group.
    let low = (0..system.n_elements() as u32)
        .filter_map(|e| {
            system
                .covering_sets(mcast_covering::ElementId(e))
                .iter()
                .map(|&sid| *system.set(sid).cost())
                .min()
        })
        .max()
        .unwrap_or(c_max);

    let hi = c_max.max(Load::ONE);
    if grid_points >= 2 && low < hi {
        // Geometric spacing concentrates candidates near the low end,
        // where the optimum usually lives (quantized to 1/10000 — the
        // knob needs coverage, not exactness).
        let lo_f = (low.as_f64() * 0.5).max(1e-4);
        let hi_f = hi.as_f64();
        let ratio = (hi_f / lo_f).powf(1.0 / (grid_points as f64 - 1.0));
        let mut v = lo_f;
        for _ in 0..grid_points {
            let q = (v * 10_000.0).round().max(1.0) as i128;
            candidates.push(Load::new(q, 10_000));
            v *= ratio;
        }
    }
    candidates.push(hi);

    // Always-feasible fallback: the total cost of all sets.
    let all: Vec<SetId> = (0..system.n_sets()).map(|i| SetId(i as u32)).collect();
    candidates.push(mcast_covering::total_cost(system, &all));

    candidates.sort_unstable();
    candidates.dedup();
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::{a, figure1_instance};
    use crate::instance::InstanceBuilder;
    use crate::rate::Kbps;

    /// Paper §5.1 "Example – Centralized BLA": with B* = 1/2 the greedy
    /// selects S4 then S2 — all users on a1 — so the *model* max group cost
    /// is 7/12; the optimum is 1/2. The grid may find either, but never
    /// worse than 7/12 and never better than 1/2.
    #[test]
    fn figure1_walkthrough_bounds() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let sol = solve_bla(&inst).unwrap();
        assert_eq!(sol.satisfied, 5);
        assert!(sol.max_load <= Load::from_ratio(7, 12));
        assert!(sol.max_load >= Load::from_ratio(1, 2));
        assert!(sol.association.is_feasible(&inst));
    }

    /// The model cost bounds the realized max load.
    #[test]
    fn realized_max_never_exceeds_model() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let sol = solve_bla(&inst).unwrap();
        assert!(sol.max_load <= sol.model_cost.unwrap());
    }

    /// An instance whose optimum max load exceeds 1 still solves thanks to
    /// the fallback candidate (BLA has no hard budget).
    #[test]
    fn works_when_optimum_exceeds_load_one() {
        let mut b = InstanceBuilder::new();
        b.supported_rates([Kbps::from_mbps(6)]);
        let a0 = b.add_ap(Load::ONE);
        // Seven 1 Mbps sessions, each with one user, all on one AP:
        // unavoidable load 7/6 > 1.
        for _ in 0..7 {
            let s = b.add_session(Kbps::from_mbps(1));
            let u = b.add_user(s);
            b.link(a0, u, Kbps::from_mbps(6)).unwrap();
        }
        let inst = b.build().unwrap();
        let sol = solve_bla(&inst).unwrap();
        assert_eq!(sol.satisfied, 7);
        assert_eq!(sol.max_load, Load::from_ratio(7, 6));
    }

    #[test]
    fn uncoverable_user_is_an_error() {
        let mut b = InstanceBuilder::new();
        let s = b.add_session(Kbps::from_mbps(1));
        b.add_ap(Load::ONE);
        b.add_user(s);
        let inst = b.build().unwrap();
        assert!(matches!(
            solve_bla(&inst).unwrap_err(),
            SolveError::Uncoverable { .. }
        ));
    }

    /// `solve_scg` skips the grid candidates that replay the previous
    /// run; the try-every-candidate oracle must agree on every output.
    #[test]
    fn window_skip_matches_reference_scg_on_generated_wlans() {
        use crate::generated::{cross, paper_density, paper_instance};
        let mut instances = Vec::new();
        for seed in 1..=3 {
            instances.push(paper_density(seed, 40));
            instances.push(paper_instance(seed, |cfg| {
                // Figure 12's shape: 30 APs on a 600 m square.
                cfg.n_aps = 30;
                cfg.n_users = 60;
                cfg.width_m = 600.0;
                cfg.height_m = 600.0;
            }));
            instances.push(paper_instance(seed, |cfg| {
                cfg.n_aps = 40;
                cfg.n_users = 80;
                let kbps = [500, 1000, 1500, 3000, 4000].map(Kbps);
                cfg.session_rates = Some(cross(&kbps.to_vec()));
            }));
            instances.push(paper_instance(seed, |cfg| {
                cfg.n_aps = 40;
                cfg.n_users = 80;
                cfg.rate_policy = cross(&crate::rate::RatePolicy::BasicOnly);
            }));
        }
        for inst in &instances {
            let red = Reduction::build(inst);
            let system = red.system();
            let candidates = budget_grid(system, 16);
            let fast = solve_scg(system, &candidates).unwrap();
            let slow = mcast_covering::reference::solve_scg(system, &candidates).unwrap();
            assert_eq!(fast.cover(), slow.cover());
            assert_eq!(fast.max_group_cost(), slow.max_group_cost());
            assert_eq!(fast.budget_used(), slow.budget_used());
            assert_eq!(fast.iterations(), slow.iterations());
        }
    }

    /// Two identical APs, two users each requesting distinct sessions:
    /// balancing puts one session per AP.
    #[test]
    fn balances_across_equal_aps() {
        let mut b = InstanceBuilder::new();
        b.supported_rates([Kbps::from_mbps(6)]);
        let s1 = b.add_session(Kbps::from_mbps(3));
        let s2 = b.add_session(Kbps::from_mbps(3));
        let a1 = b.add_ap(Load::ONE);
        let a2 = b.add_ap(Load::ONE);
        let u1 = b.add_user(s1);
        let u2 = b.add_user(s2);
        for &u in &[u1, u2] {
            b.link(a1, u, Kbps::from_mbps(6)).unwrap();
            b.link(a2, u, Kbps::from_mbps(6)).unwrap();
        }
        let inst = b.build().unwrap();
        let sol = solve_bla(&inst).unwrap();
        assert_eq!(sol.max_load, Load::from_ratio(1, 2));
        let loads = sol.association.loads(&inst);
        assert_eq!(loads[a(1).index()], Load::from_ratio(1, 2));
        assert_eq!(loads[a(2).index()], Load::from_ratio(1, 2));
    }
}
