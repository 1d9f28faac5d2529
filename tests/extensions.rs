//! Property-based integration tests for the extension modules: the
//! primal–dual MLA variant, revenue models, dual association, per-AP
//! power control, channel assignment, and mobility.

use proptest::prelude::*;

use mcast_channels::{assign_channels, ColoringStrategy, EffectiveLoads, InterferenceGraph};
use mcast_core::revenue::{concave_unicast, jain_fairness, pay_per_view, per_byte_unicast};
use mcast_core::{
    solve_mla, solve_mla_with, solve_ssa, DualAssociation, Load, MlaAlgorithm, Objective,
};
use mcast_exact::{optimal_mla, SearchLimits};
use mcast_topology::{instance_with_power, Scenario, ScenarioConfig};

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (2usize..12, 4usize..25, 1usize..4, 0u64..1000).prop_map(
        |(n_aps, n_users, n_sessions, seed)| {
            ScenarioConfig {
                n_aps,
                n_users,
                n_sessions,
                width_m: 500.0,
                height_m: 500.0,
                ..ScenarioConfig::paper_default()
            }
            .with_seed(seed)
            .generate()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The primal–dual cover is within f × OPT (its theoretical factor),
    /// serves everyone, and its dual bound really lower-bounds OPT.
    #[test]
    fn primal_dual_within_f_of_optimal(scenario in scenario_strategy()) {
        let inst = &scenario.instance;
        let pd = solve_mla_with(inst, MlaAlgorithm::PrimalDual).unwrap();
        prop_assert_eq!(pd.satisfied, inst.n_users());
        let exact = optimal_mla(inst, SearchLimits::default()).unwrap();
        prop_assert!(exact.proved_optimal);
        let opt = exact.solution.total_load;
        // f = max over users of |covering sets| in the reduction.
        let red = mcast_core::reduction::Reduction::build(inst);
        let f = (0..inst.n_users() as u32)
            .map(|e| red.system().covering_sets(mcast_covering::ElementId(e)).len())
            .max()
            .unwrap_or(1);
        prop_assert!(
            pd.model_cost.unwrap().as_f64() <= f as f64 * opt.as_f64() + 1e-9,
            "primal-dual {} vs f({f}) x opt {}",
            pd.model_cost.unwrap(),
            opt
        );
    }

    /// Revenue identities: per-byte revenue is exactly n_aps − total load
    /// when nothing is overloaded; Jain is in (0, 1]; pay-per-view scales
    /// linearly in the rate.
    #[test]
    fn revenue_identities(scenario in scenario_strategy()) {
        let inst = &scenario.instance;
        let sol = solve_mla(inst).unwrap();
        let assoc = &sol.association;
        if sol.max_load <= Load::ONE {
            let expect = inst.n_aps() as f64 - sol.total_load.as_f64();
            prop_assert!((per_byte_unicast(assoc, inst) - expect).abs() < 1e-9);
        }
        let j = jain_fairness(assoc, inst);
        prop_assert!(j > 0.0 && j <= 1.0 + 1e-12);
        let r1 = pay_per_view(assoc, 1.0);
        let r3 = pay_per_view(assoc, 3.0);
        prop_assert!((r3 - 3.0 * r1).abs() < 1e-12);
        // Concave revenue is bounded by the per-AP count (each term <= 1).
        prop_assert!(concave_unicast(assoc, inst) <= inst.n_aps() as f64 + 1e-12);
    }

    /// Dual association: airtime decomposes into multicast + unicast
    /// parts; headroom is monotone in the unicast demand.
    #[test]
    fn dual_association_invariants(scenario in scenario_strategy()) {
        let inst = &scenario.instance;
        let mcast = solve_mla(inst).unwrap().association;
        let dual = DualAssociation::with_ssa_unicast(inst, mcast.clone());
        // Every covered user has a unicast AP.
        for u in inst.users() {
            prop_assert_eq!(dual.unicast.ap_of(u).is_some(), inst.user_coverable(u));
        }
        // Zero demand: airtime == multicast load.
        prop_assert_eq!(dual.airtimes(inst, Load::ZERO), mcast.loads(inst));
        for a in inst.aps() {
            prop_assert_eq!(dual.ap_airtime(a, inst, Load::ZERO), mcast.loads(inst)[a.index()]);
        }
        // Headroom shrinks as demand grows.
        let h1 = dual.unicast_headroom(inst, Load::from_ratio(1, 100));
        let h2 = dual.unicast_headroom(inst, Load::from_ratio(1, 10));
        prop_assert!(h2 <= h1);
    }

    /// Power scaling: level 1.0 reproduces the base instance; any uniform
    /// level keeps instance validity and never decreases link rates when
    /// the level is >= 1.
    #[test]
    fn power_scaling_monotone(scenario in scenario_strategy(), boost in 1.0f64..2.0) {
        let n = scenario.ap_positions.len();
        let base = instance_with_power(&scenario, &vec![1.0; n]);
        let boosted = instance_with_power(&scenario, &vec![boost; n]);
        for a in base.aps() {
            for u in base.users() {
                if let Some(r) = base.link_rate(a, u) {
                    let rb = boosted.link_rate(a, u);
                    prop_assert!(rb.is_some());
                    prop_assert!(rb.unwrap() >= r);
                }
            }
        }
    }

    /// Channel/effective-load invariants: effective >= own per AP, and the
    /// overhead is zero exactly when no conflicting pair carries load.
    #[test]
    fn effective_load_invariants(scenario in scenario_strategy(), channels in 1u16..13) {
        let inst = &scenario.instance;
        let graph = InterferenceGraph::from_positions(&scenario.ap_positions, 400.0);
        let assignment = assign_channels(&graph, channels, ColoringStrategy::Dsatur);
        let assoc = solve_ssa(inst, Objective::Mla).association;
        let eff = EffectiveLoads::compute(inst, &assoc, &graph, &assignment);
        let loads = assoc.loads(inst);
        for a in inst.aps() {
            prop_assert!(eff.effective(a) >= eff.own(a));
            prop_assert_eq!(eff.own(a), loads[a.index()]);
        }
        let loaded_conflict = assignment.conflicts().iter().any(|&(a, b)| {
            !loads[a.index()].is_zero() || !loads[b.index()].is_zero()
        });
        prop_assert_eq!(!eff.interference_overhead().is_zero(), loaded_conflict);
    }

    /// Mobility chains: repeated perturbation keeps sessions, coverage,
    /// and the carried association's structural validity.
    #[test]
    fn mobility_chain_preserves_invariants(
        scenario in scenario_strategy(),
        fraction in 0.0f64..0.6,
    ) {
        let mut current = scenario;
        let assoc0 = solve_mla(&current.instance).unwrap().association;
        let mut assoc = assoc0;
        for step in 0..3u64 {
            let next = current.perturb(step, fraction, 80.0);
            for u in next.instance.users() {
                prop_assert_eq!(
                    next.instance.user_session(u),
                    current.instance.user_session(u)
                );
                prop_assert!(next.instance.user_coverable(u));
            }
            assoc = assoc.restricted_to(&next.instance);
            // Budgets can be exceeded transiently after a move; only
            // structural validity is guaranteed here.
            let structurally_ok = match assoc.validate(&next.instance) {
                Ok(()) => true,
                Err(mcast_core::AssocError::OverBudget { .. }) => true,
                Err(_) => false,
            };
            prop_assert!(structurally_ok);
            current = next;
        }
    }
}
