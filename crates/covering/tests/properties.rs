//! Property-based tests for the covering solvers.

use proptest::collection::vec;
use proptest::prelude::*;

use mcast_covering::{
    check_budgets, check_cover, greedy_mcg, greedy_mcg_opts, greedy_set_cover, group_costs,
    reference, solve_scg, total_cost, SetId, SetSystem, SetSystemBuilder,
};

/// Strategy: a random set system over `n` elements where every element is
/// guaranteed coverable (each element gets one singleton set in group 0,
/// plus random extra sets).
fn coverable_system() -> impl Strategy<Value = SetSystem<u64>> {
    (2usize..12, 0usize..14).prop_flat_map(|(n, extra)| {
        let singleton_costs = vec(1u64..20, n);
        let extras = vec((vec(0u32..(n as u32), 1..=n), 1u64..20, 0u32..4), extra);
        (singleton_costs, extras).prop_map(move |(costs, extras)| {
            let mut b = SetSystemBuilder::<u64>::new(n);
            for (e, c) in costs.into_iter().enumerate() {
                b.push_set([e as u32], c, 0).unwrap();
            }
            for (members, cost, group) in extras {
                b.push_set(members, cost, group).unwrap();
            }
            b.build().unwrap()
        })
    })
}

/// Brute-force optimal set cover cost for tiny systems (≤ 14 sets).
fn optimal_cover_cost(system: &SetSystem<u64>) -> Option<u64> {
    let m = system.n_sets();
    if m > 20 {
        return None;
    }
    let mut best: Option<u64> = None;
    for mask in 0u32..(1 << m) {
        let sets: Vec<SetId> = (0..m)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| SetId(i as u32))
            .collect();
        if check_cover(system, &sets) {
            let c = total_cost(system, &sets);
            best = Some(best.map_or(c, |b: u64| b.min(c)));
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn greedy_cover_covers_everything(system in coverable_system()) {
        let cover = greedy_set_cover(&system).unwrap();
        prop_assert!(cover.covers_all());
        prop_assert!(check_cover(&system, cover.chosen()));
        // Reported total equals recomputed total.
        prop_assert_eq!(*cover.total_cost(), total_cost(&system, cover.chosen()));
    }

    #[test]
    fn greedy_cover_assignment_is_consistent(system in coverable_system()) {
        let cover = greedy_set_cover(&system).unwrap();
        for (e, assigned) in cover.assignment().iter().enumerate() {
            let sid = assigned.expect("full cover assigns every element");
            prop_assert!(system.set(sid).members().iter().any(|m| m.0 as usize == e));
        }
        // Chosen sets are distinct and each newly covers at least one element.
        let mut seen = std::collections::HashSet::new();
        for (sid, news) in cover.chosen().iter().zip(cover.newly_covered()) {
            prop_assert!(seen.insert(*sid));
            prop_assert!(!news.is_empty());
        }
    }

    #[test]
    fn greedy_cover_within_harmonic_factor(system in coverable_system()) {
        // ln(n) + 1 guarantee; we check the (weaker) harmonic-number bound
        // H(n) * OPT which the greedy provably satisfies.
        if system.n_sets() <= 18 {
            let cover = greedy_set_cover(&system).unwrap();
            let opt = optimal_cover_cost(&system).unwrap();
            let n = system.n_elements() as f64;
            let h = (1..=system.n_elements()).map(|k| 1.0 / k as f64).sum::<f64>();
            let _ = n;
            prop_assert!(
                (*cover.total_cost() as f64) <= h * (opt as f64) + 1e-9,
                "greedy {} vs H(n)*opt {}",
                cover.total_cost(),
                h * opt as f64
            );
        }
    }

    #[test]
    fn mcg_feasible_half_respects_budgets(
        system in coverable_system(),
        budget in 1u64..40,
    ) {
        let budgets = vec![budget; system.n_groups()];
        let sol = greedy_mcg(&system, &budgets);
        prop_assert!(check_budgets(&system, sol.feasible().chosen(), &budgets));
        // Picks are distinct.
        let mut seen = std::collections::HashSet::new();
        for s in sol.all() {
            prop_assert!(seen.insert(*s));
        }
        // The feasible half is a sub-multiset of the raw selection.
        for s in sol.feasible().chosen() {
            prop_assert!(sol.all().contains(s));
        }
        // Covered counts agree with the union of the halves' picks.
        prop_assert_eq!(
            sol.all_covered_count(),
            sol.all_newly_covered().iter().map(Vec::len).sum::<usize>()
        );
    }

    #[test]
    fn mcg_halves_cover_at_least_half_of_h(
        system in coverable_system(),
        budget in 1u64..40,
    ) {
        let budgets = vec![budget; system.n_groups()];
        let sol = greedy_mcg(&system, &budgets);
        // max(|H1|, |H2|) >= |H| / 2 — the partition argument of Theorem 2.
        prop_assert!(2 * sol.feasible().covered_count() >= sol.all_covered_count());
    }

    #[test]
    fn scg_covers_all_and_reports_true_max(system in coverable_system()) {
        // Candidate grid: all distinct set costs plus the total cost —
        // the largest always succeeds because every element has a
        // singleton set.
        let mut candidates: Vec<u64> = system.sets().iter().map(|s| *s.cost()).collect();
        let all: Vec<SetId> = (0..system.n_sets()).map(|i| SetId(i as u32)).collect();
        candidates.push(total_cost(&system, &all));
        candidates.sort_unstable();
        candidates.dedup();
        let sol = solve_scg(&system, &candidates).unwrap();
        prop_assert!(sol.cover().covers_all());
        let gc = group_costs(&system, sol.cover().chosen());
        prop_assert_eq!(gc.into_iter().max().unwrap(), *sol.max_group_cost());
        prop_assert!(candidates.contains(sol.budget_used()));
    }

    // ---- Lazy-greedy vs full-rescan reference equivalence ----
    //
    // The fast solvers (CELF heap + carried tie class, see
    // `crates/covering/src/celf.rs`) must select the *identical* set
    // sequence as the verbatim pre-optimization scans kept in
    // `mcast_covering::reference` — not just equally good covers. These
    // properties pin that bit-for-bit claim on random systems, where
    // effectiveness ties and budget-exhaustion edge cases are common.

    #[test]
    fn lazy_set_cover_selects_identical_sequence(system in coverable_system()) {
        let fast = greedy_set_cover(&system).unwrap();
        let slow = reference::greedy_set_cover(&system).unwrap();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn lazy_mcg_selects_identical_sequence(
        system in coverable_system(),
        budget in 1u64..40,
    ) {
        let budgets = vec![budget; system.n_groups()];
        let fast = greedy_mcg(&system, &budgets);
        let slow = reference::greedy_mcg(&system, &budgets);
        prop_assert_eq!(fast.all(), slow.all());
        prop_assert_eq!(fast.violating(), slow.violating());
        prop_assert_eq!(fast.all_newly_covered(), slow.all_newly_covered());
        prop_assert_eq!(fast.feasible(), slow.feasible());
    }

    #[test]
    fn lazy_mcg_opts_matches_reference_on_residual_instances(
        system in coverable_system(),
        budget in 1u64..40,
        mask in 0u64..u64::MAX,
        skip in proptest::bool::ANY,
    ) {
        // The SCG iteration calls the opts form with partial coverage and
        // `skip_unaffordable = false`; exercise both rules.
        let covered: Vec<bool> = (0..system.n_elements())
            .map(|e| mask >> (e % 64) & 1 == 1)
            .collect();
        let budgets = vec![budget; system.n_groups()];
        let fast = greedy_mcg_opts(&system, &budgets, &covered, skip);
        let slow = reference::greedy_mcg_opts(&system, &budgets, &covered, skip);
        prop_assert_eq!(fast.all(), slow.all());
        prop_assert_eq!(fast.violating(), slow.violating());
        prop_assert_eq!(fast.all_newly_covered(), slow.all_newly_covered());
        prop_assert_eq!(fast.feasible(), slow.feasible());
    }

    #[test]
    fn lazy_scg_selects_identical_solution(system in coverable_system()) {
        let mut candidates: Vec<u64> = system.sets().iter().map(|s| *s.cost()).collect();
        let all: Vec<SetId> = (0..system.n_sets()).map(|i| SetId(i as u32)).collect();
        candidates.push(total_cost(&system, &all));
        candidates.sort_unstable();
        candidates.dedup();
        let fast = solve_scg(&system, &candidates).unwrap();
        let slow = reference::solve_scg(&system, &candidates).unwrap();
        prop_assert_eq!(fast.cover(), slow.cover());
        prop_assert_eq!(fast.max_group_cost(), slow.max_group_cost());
        prop_assert_eq!(fast.budget_used(), slow.budget_used());
    }

    #[test]
    fn scg_window_skip_matches_reference_on_dense_candidates(
        system in coverable_system(),
        picks in vec((0usize..10_000, 0u8..6, 0u64..3), 1..40),
    ) {
        // Dense, unsorted candidates with duplicates: set costs, sums of
        // two or three set costs (the group costs a run compares against),
        // values just above those, budgets at and just above zero (an
        // empty group's cost), and the all-sets total — the budgets where
        // comparisons flip, and the ones between.
        let costs: Vec<u64> = system.sets().iter().map(|s| *s.cost()).collect();
        let all: Vec<SetId> = (0..system.n_sets()).map(|i| SetId(i as u32)).collect();
        let total = total_cost(&system, &all);
        let m = costs.len();
        let sum = |i: usize| {
            costs[i % m] + costs[(i / m) % m] + costs[(i / m / m) % m] * (i as u64 % 2)
        };
        let candidates: Vec<u64> = picks
            .iter()
            .map(|&(i, kind, d)| match kind {
                0 => costs[i % m],
                1 => sum(i),
                2 => costs[i % m] + d,
                3 => sum(i) + d,
                4 => d,
                _ => total,
            })
            .collect();
        let fast = solve_scg(&system, &candidates);
        let slow = reference::solve_scg(&system, &candidates);
        match (fast, slow) {
            (Ok(fast), Ok(slow)) => {
                prop_assert_eq!(fast.cover(), slow.cover());
                prop_assert_eq!(fast.max_group_cost(), slow.max_group_cost());
                prop_assert_eq!(fast.budget_used(), slow.budget_used());
                prop_assert_eq!(fast.iterations(), slow.iterations());
            }
            (fast, slow) => prop_assert_eq!(fast.err(), slow.err()),
        }
    }

    #[test]
    fn scg_no_worse_than_single_budget_run(system in coverable_system()) {
        // Adding more candidates can only improve (or keep) the objective.
        let all: Vec<SetId> = (0..system.n_sets()).map(|i| SetId(i as u32)).collect();
        let big = total_cost(&system, &all);
        let coarse = solve_scg(&system, &[big]).unwrap();
        let mut candidates: Vec<u64> = system.sets().iter().map(|s| *s.cost()).collect();
        candidates.push(big);
        candidates.sort_unstable();
        candidates.dedup();
        let fine = solve_scg(&system, &candidates).unwrap();
        prop_assert!(fine.max_group_cost() <= coarse.max_group_cost());
    }
}
