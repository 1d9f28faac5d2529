//! Greedy **Maximum Coverage with Group Budgets** — paper Fig. 3, after
//! Chekuri & Kumar (APPROX 2004), cost version with no overall budget.
//!
//! The selection loop is a lazy greedy (see [`crate::celf`]): stale
//! marginal gains live in a max-heap and only the popped top is
//! re-evaluated. Because the naive scan's tie-break consults the *current*
//! group costs, a fresh top entry alone does not determine the pick — all
//! entries tying on effectiveness are drained, re-evaluated, and the
//! winner chosen by `(group cost, group, set id)` ascending, which is
//! exactly the order the reference scan's "strictly smaller group cost
//! replaces, first scanned wins" rule induces. The selected sequence is
//! bit-for-bit identical to [`crate::reference::greedy_mcg_opts`].

use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::celf::GainEntry;
use crate::cost::Cost;
use crate::set_cover::Cover;
use crate::system::{ElementId, SetId, SetSystem};
use crate::window::BudgetWindow;

/// Outcome of [`greedy_mcg`].
///
/// `all` is the raw greedy selection `H` (which may overrun group budgets by
/// the final set each group accepted); [`McgSolution::feasible`] is the
/// better-covering of the partition `H₁`/`H₂`, each of which respects every
/// group budget — this is the 8-approximate solution of Theorem 2.
#[derive(Debug, Clone)]
pub struct McgSolution<C> {
    all: Vec<SetId>,
    all_newly_covered: Vec<Vec<ElementId>>,
    violating: Vec<bool>,
    feasible: Cover<C>,
    /// The budgets whose comparisons this run reproduces (meaningful when
    /// every group has the same budget); `None` when the run recorded none.
    window: Option<BudgetWindow<C>>,
}

impl<C: Cost> McgSolution<C> {
    /// The raw greedy selection `H`, in pick order. Used by the SCG wrapper
    /// (BLA), which re-budgets every iteration.
    pub fn all(&self) -> &[SetId] {
        &self.all
    }

    /// For the `i`-th set of [`all`](McgSolution::all), the elements it
    /// newly covered when picked.
    pub fn all_newly_covered(&self) -> &[Vec<ElementId>] {
        &self.all_newly_covered
    }

    /// For the `i`-th set of [`all`](McgSolution::all), whether adding it
    /// pushed its group's accumulated cost strictly over the budget
    /// (the `H₂` membership test).
    pub fn violating(&self) -> &[bool] {
        &self.violating
    }

    /// The budget-feasible half (`H₁` or `H₂`, whichever covers more),
    /// with assignments recomputed within the half.
    pub fn feasible(&self) -> &Cover<C> {
        &self.feasible
    }

    /// Total elements covered by the raw selection `H`.
    pub fn all_covered_count(&self) -> usize {
        self.all_newly_covered.iter().map(Vec::len).sum()
    }

    /// With uniform budgets `B`: every `B'` in the window makes this run's
    /// budget comparisons come out the same, so a run at `B'` is this run.
    pub(crate) fn window(&self) -> Option<&BudgetWindow<C>> {
        self.window.as_ref()
    }

    pub(crate) fn new(
        all: Vec<SetId>,
        all_newly_covered: Vec<Vec<ElementId>>,
        violating: Vec<bool>,
        feasible: Cover<C>,
        window: Option<BudgetWindow<C>>,
    ) -> McgSolution<C> {
        McgSolution {
            all,
            all_newly_covered,
            violating,
            feasible,
            window,
        }
    }
}

/// Runs the MCG greedy with every element initially uncovered, skipping
/// sets whose individual cost exceeds their group's budget.
///
/// `budgets[g]` is the budget of group `g` (`budgets.len()` must equal
/// `system.n_groups()`). The skip enforces the paper's assumption that "the
/// cost of any single set in any group is not more than the budget" — such
/// sets are unusable by any feasible MNU solution anyway, and dropping them
/// is what makes the `H₁`/`H₂` halves feasible (Theorem 2).
///
/// # Panics
///
/// Panics if `budgets.len() != system.n_groups()`.
pub fn greedy_mcg<C: Cost>(system: &SetSystem<C>, budgets: &[C]) -> McgSolution<C> {
    greedy_mcg_opts(system, budgets, &vec![false; system.n_elements()], true)
}

/// Like [`greedy_mcg`], but elements flagged in `initially_covered` count
/// as already covered (they contribute nothing and are never assigned) —
/// the residual-instance form used by the SCG iteration.
///
/// `skip_unaffordable` selects the rule for sets costing more than their
/// group's budget: `true` drops them (MNU semantics, required for the
/// feasibility of the returned halves); `false` admits them as the
/// budget-crossing pick, exactly as Fig. 3's line 5 condition
/// (`c(H ∩ G_i) < B_i`) allows — the right semantics for SCG/BLA, where
/// `B*` is a spreading knob rather than a hard budget.
///
/// # Panics
///
/// Panics if `budgets.len() != system.n_groups()` or
/// `initially_covered.len() != system.n_elements()`.
pub fn greedy_mcg_opts<C: Cost>(
    system: &SetSystem<C>,
    budgets: &[C],
    initially_covered: &[bool],
    skip_unaffordable: bool,
) -> McgSolution<C> {
    assert_eq!(
        budgets.len(),
        system.n_groups(),
        "one budget per group required"
    );
    assert_eq!(initially_covered.len(), system.n_elements());

    let n = system.n_elements();
    let mut covered = initially_covered.to_vec();
    let mut n_uncovered = covered.iter().filter(|&&c| !c).count();
    // Residual |S ∩ X'| per set. With nothing initially covered (the plain
    // `greedy_mcg` entry) that is just the set size — skip the O(total
    // membership) per-element scan.
    let mut residual: Vec<u64> = if n_uncovered == n {
        system
            .sets()
            .iter()
            .map(|s| s.members().len() as u64)
            .collect()
    } else {
        system
            .sets()
            .iter()
            .map(|s| {
                s.members()
                    .iter()
                    .filter(|e| !covered[e.0 as usize])
                    .count() as u64
            })
            .collect()
    };
    let mut group_cost: Vec<C> = vec![C::zero(); system.n_groups()];
    let mut all: Vec<SetId> = Vec::new();
    let mut all_news: Vec<Vec<ElementId>> = Vec::new();
    let mut violating: Vec<bool> = Vec::new();
    // Every comparison against a budget goes through `window`, which
    // records the budgets that would take the same branch.
    let mut window = BudgetWindow::unbounded();

    // Lazy-greedy heap over every potentially usable set. Unaffordable
    // sets (under the skip rule) are excluded up front — budgets never
    // change, so the naive scan would skip them on every pick anyway.
    // Zero-gain sets are excluded too; gains only shrink.
    let mut heap: BinaryHeap<GainEntry<C>> = system
        .sets()
        .iter()
        .enumerate()
        .filter(|&(i, set)| {
            residual[i] > 0
                && !(skip_unaffordable && window.gt(set.cost(), &budgets[set.group().0 as usize]))
        })
        .map(|(i, set)| GainEntry {
            gain: residual[i],
            cost: set.cost().clone(),
            tie: (set.group().0, i as u32),
        })
        .collect();
    // The current effectiveness-tie class, kept *outside* the heap across
    // picks. Invariant at each pick: every heap entry's stored (stale,
    // upper-bound) effectiveness is strictly below the class's, so any
    // class member that re-validates (gain unchanged, group within budget)
    // is still a true maximum and the next winner comes from the class with
    // no heap traffic at all. Draining the often-large tie class back and
    // forth through the heap was the dominant cost of this loop.
    let mut tied: Vec<GainEntry<C>> = Vec::new();

    while n_uncovered > 0 {
        // Re-validate the carried class against the previous pick: discard
        // members whose group is now exhausted or whose gain hit zero, and
        // demote members whose gain shrank back into the heap (their fresh
        // effectiveness is strictly below the class's, and it is exact, so
        // the stale-upper-bound heap invariant holds).
        let mut i = 0;
        while i < tied.len() {
            let g = tied[i].group_index();
            let fresh = residual[tied[i].set_index()];
            if window.ge(&group_cost[g], &budgets[g]) || fresh == 0 {
                tied.swap_remove(i); // never usable again
            } else if fresh < tied[i].gain {
                let mut e = tied.swap_remove(i);
                e.gain = fresh;
                heap.push(e);
            } else {
                i += 1;
            }
        }

        if tied.is_empty() {
            // Line 4–10 of Fig. 3: each group whose budget is not exhausted
            // proposes its most cost-effective set; we additionally require
            // the proposal to cover at least one new element (a zero-gain
            // set can never improve coverage, only burn budget). Lazily:
            // re-evaluate the top until it is current — it is then the true
            // maximum. `peek_mut` refreshes stale gains in place (sift-down
            // on drop), halving the heap traffic of a pop + push.
            let lead = loop {
                let Some(mut top) = heap.peek_mut() else {
                    break None;
                };
                let g = top.group_index();
                if window.ge(&group_cost[g], &budgets[g]) {
                    PeekMut::pop(top); // group exhausted for good (costs only grow)
                    continue;
                }
                let fresh = residual[top.set_index()];
                if fresh == 0 {
                    PeekMut::pop(top); // gains only shrink: never usable again
                    continue;
                }
                if fresh < top.gain {
                    top.gain = fresh; // drop re-sifts the refreshed entry
                    continue;
                }
                break Some(PeekMut::pop(top));
            };
            let Some(lead) = lead else { break };

            // The naive scan breaks effectiveness ties by the *current*
            // group cost (prefer the less-loaded group, then scan order).
            // Drain every entry whose stale gain still ties the lead — a
            // stale tie's fresh effectiveness is strictly lower, so only
            // up-to-date entries compete.
            tied.push(lead);
            loop {
                let Some(mut top) = heap.peek_mut() else {
                    break;
                };
                if top.cmp_effectiveness(&tied[0]) != std::cmp::Ordering::Equal {
                    break;
                }
                let g = top.group_index();
                if window.ge(&group_cost[g], &budgets[g]) {
                    PeekMut::pop(top);
                    continue;
                }
                let fresh = residual[top.set_index()];
                if fresh == 0 {
                    PeekMut::pop(top);
                    continue;
                }
                if fresh < top.gain {
                    // Strictly worse once refreshed, so it leaves the tie;
                    // the drop sifts it down and the loop re-examines the
                    // new top.
                    top.gain = fresh;
                    continue;
                }
                tied.push(PeekMut::pop(top));
            }
        }

        // Pick the (group cost, group, id)-minimal class member — exactly
        // the winner the reference scan's "strictly smaller group cost
        // replaces, first scanned wins" rule induces. The rest of the class
        // stays in `tied` for the next pick.
        let wi = tied
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (&group_cost[a.group_index()], a.tie).cmp(&(&group_cost[b.group_index()], b.tie))
            })
            .map(|(i, _)| i)
            .expect("tied contains at least the lead");
        let winner = tied.swap_remove(wi);

        let sid = SetId(winner.tie.1);
        let set = system.set(sid);
        let g = set.group().0 as usize;
        let news: Vec<ElementId> = set
            .members()
            .iter()
            .copied()
            .filter(|e| !covered[e.0 as usize])
            .collect();
        for &e in &news {
            covered[e.0 as usize] = true;
            n_uncovered -= 1;
            for &other in system.covering_sets(e) {
                residual[other.0 as usize] -= 1;
            }
        }
        group_cost[g] = group_cost[g].add(set.cost());
        violating.push(window.gt(&group_cost[g], &budgets[g]));
        all.push(sid);
        all_news.push(news);
    }

    // Partition H into H₁ (additions that stayed within budget) and H₂
    // (additions that crossed it; at most one per group, each individually
    // within budget), then keep the half covering more *new* elements.
    let feasible = better_half(system, n, initially_covered, &all, &violating);

    McgSolution::new(all, all_news, violating, feasible, Some(window))
}

pub(crate) fn better_half<C: Cost>(
    system: &SetSystem<C>,
    n: usize,
    initially_covered: &[bool],
    all: &[SetId],
    violating: &[bool],
) -> Cover<C> {
    let half = |want_violating: bool| -> Vec<SetId> {
        all.iter()
            .zip(violating)
            .filter(|(_, &v)| v == want_violating)
            .map(|(&s, _)| s)
            .collect()
    };
    let build = |ids: &[SetId]| -> Cover<C> {
        let mut covered = initially_covered.to_vec();
        let mut picks = Vec::new();
        for &sid in ids {
            let news: Vec<ElementId> = system
                .set(sid)
                .members()
                .iter()
                .copied()
                .filter(|e| !covered[e.0 as usize])
                .collect();
            for &e in &news {
                covered[e.0 as usize] = true;
            }
            picks.push((sid, news, system.set(sid).cost().clone()));
        }
        Cover::from_picks(n, picks)
    };
    let h1 = build(&half(false));
    let h2 = build(&half(true));
    // `Cover::covered_count` counts assignments, which here include only the
    // elements this half newly covers (initially covered ones are unassigned).
    if h2.covered_count() > h1.covered_count() {
        h2
    } else {
        h1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SetSystemBuilder;
    use crate::verify::{check_budgets, group_costs};

    /// The paper's Fig. 2 MCG instance (MNU reduction of Fig. 1 with both
    /// sessions at 3 Mbps). Costs ×12: cost = 12 * (3 / rate).
    ///
    /// Ground set: u1..u5 = 0..4. Budgets: 12 per AP (load 1).
    fn figure2() -> (SetSystem<u64>, Vec<u64>) {
        let mut b = SetSystemBuilder::<u64>::new(5);
        b.push_set([2], 12 * 3 / 4, 0).unwrap(); // S1: a1,s1@4 {u3} cost 9
        b.push_set([0, 2], 12 * 3 / 3, 0).unwrap(); // S2: a1,s1@3 {u1,u3} cost 12
        b.push_set([1], 12 * 3 / 6, 0).unwrap(); // S3: a1,s2@6 {u2} cost 6
        b.push_set([1, 3, 4], 12 * 3 / 4, 0).unwrap(); // S4: a1,s2@4 {u2,u4,u5} cost 9
        b.push_set([2], 12 * 3 / 5, 1).unwrap(); // S5: a2,s1@5 {u3} cost 36/5 -> not integral!
        b.push_set([3], 12 * 3 / 5, 1).unwrap(); // S6
        b.push_set([3, 4], 12 * 3 / 3, 1).unwrap(); // S7: a2,s2@3 {u4,u5} cost 12
        (b.build().unwrap(), vec![12, 12])
    }

    #[test]
    fn paper_figure2_mnu_example() {
        // NOTE: 12*3/5 = 7 by integer division (36/5 = 7.2); the slight
        // rounding does not change any greedy comparison in this instance.
        let (system, budgets) = figure2();
        let sol = greedy_mcg(&system, &budgets);
        // Paper walk-through: S4 first (eff 3/(3/4) = 4), then S2
        // (eff 2/1 = 2, a1 still under budget), then stop; H = {S4, S2},
        // H exceeds a1's budget (9 + 12 = 21 > 12), H1 = {S4}, H2 = {S2};
        // H1 covers 3 > 2, so the feasible half is {S4}: u2,u4,u5 on a1.
        assert_eq!(sol.all(), &[SetId(3), SetId(1)]);
        assert_eq!(sol.violating(), &[false, true]);
        let feasible = sol.feasible();
        assert_eq!(feasible.chosen(), &[SetId(3)]);
        assert_eq!(feasible.covered_count(), 3);
        assert!(check_budgets(&system, feasible.chosen(), &budgets));
    }

    #[test]
    fn respects_per_group_budget_in_feasible_half() {
        let mut b = SetSystemBuilder::<u64>::new(6);
        b.push_set([0, 1], 5, 0).unwrap();
        b.push_set([2, 3], 5, 0).unwrap();
        b.push_set([4, 5], 5, 0).unwrap();
        let system = b.build().unwrap();
        let sol = greedy_mcg(&system, &[7]);
        // Greedy adds two sets (second crosses 7); halves are {first} and
        // {second}; tie at 2 covered each -> H1 wins.
        assert_eq!(sol.all().len(), 2);
        assert_eq!(sol.feasible().chosen().len(), 1);
        let gc = group_costs(&system, sol.feasible().chosen());
        assert!(gc[0] <= 7);
    }

    #[test]
    fn ignores_sets_costlier_than_budget() {
        let mut b = SetSystemBuilder::<u64>::new(2);
        b.push_set([0, 1], 10, 0).unwrap(); // unaffordable
        b.push_set([0], 2, 0).unwrap();
        let system = b.build().unwrap();
        let sol = greedy_mcg(&system, &[5]);
        assert_eq!(sol.all(), &[SetId(1)]);
        assert_eq!(sol.feasible().covered_count(), 1);
    }

    #[test]
    fn zero_gain_sets_never_picked() {
        let mut b = SetSystemBuilder::<u64>::new(2);
        b.push_set([0, 1], 2, 0).unwrap();
        b.push_set([0], 1, 1).unwrap(); // nothing new after S0
        let system = b.build().unwrap();
        let sol = greedy_mcg(&system, &[10, 10]);
        assert_eq!(sol.all(), &[SetId(0)]);
    }

    #[test]
    fn initially_covered_elements_are_skipped() {
        let mut b = SetSystemBuilder::<u64>::new(3);
        b.push_set([0, 1], 2, 0).unwrap();
        b.push_set([2], 1, 0).unwrap();
        let system = b.build().unwrap();
        let sol = greedy_mcg_opts(&system, &[10], &[true, true, false], true);
        // Only element 2 is worth anything now.
        assert_eq!(sol.all(), &[SetId(1)]);
        assert_eq!(sol.feasible().covered_count(), 1);
        assert_eq!(sol.feasible().assignment()[0], None);
        assert_eq!(sol.feasible().assignment()[2], Some(SetId(1)));
    }

    #[test]
    fn stops_when_every_group_budget_exhausted() {
        let mut b = SetSystemBuilder::<u64>::new(4);
        b.push_set([0], 3, 0).unwrap();
        b.push_set([1], 3, 0).unwrap();
        b.push_set([2], 3, 0).unwrap();
        b.push_set([3], 3, 0).unwrap();
        let system = b.build().unwrap();
        let sol = greedy_mcg(&system, &[4]);
        // First pick: cost 3 < 4 budget. Second pick crosses (6 > 4).
        // Then the group is exhausted: 2 picks total.
        assert_eq!(sol.all().len(), 2);
        assert_eq!(sol.violating(), &[false, true]);
        assert_eq!(sol.feasible().covered_count(), 1);
    }
}
