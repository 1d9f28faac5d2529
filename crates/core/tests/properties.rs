//! Property-based tests for the core model and algorithms.

use proptest::collection::vec;
use proptest::prelude::*;

use mcast_core::{
    local_decision_reference, local_decision_with, run_distributed, run_distributed_reference,
    solve_bla, solve_mla, solve_mnu, solve_ssa, ApId, Association, DecisionOrder,
    DistributedConfig, ExecutionMode, Instance, InstanceBuilder, Kbps, Load, LoadLedger, Objective,
    Policy, ReferenceLedger, UserId,
};

const RATES: [u32; 4] = [6, 12, 24, 54];

/// A random instance where AP 0 reaches every user (coverable by
/// construction); other links appear at random.
fn coverable_instance() -> impl Strategy<Value = Instance> {
    (1usize..5, 1usize..12, 1usize..4).prop_flat_map(|(n_aps, n_users, n_sessions)| {
        let user_sessions = vec(0u32..(n_sessions as u32), n_users);
        // For each (ap, user): Option<rate index>, with ap0 always linked.
        let links = vec(proptest::option::of(0usize..RATES.len()), n_aps * n_users);
        let base_rates = vec(0usize..RATES.len(), n_users);
        (
            Just(n_aps),
            Just(n_sessions),
            user_sessions,
            links,
            base_rates,
        )
            .prop_map(|(n_aps, n_sessions, sessions, links, base_rates)| {
                let mut b = InstanceBuilder::new();
                b.supported_rates(RATES.iter().map(|&m| Kbps::from_mbps(m)));
                let session_ids: Vec<_> = (0..n_sessions)
                    .map(|_| b.add_session(Kbps::from_mbps(1)))
                    .collect();
                let ap_ids: Vec<_> = (0..n_aps).map(|_| b.add_ap(Load::permille(900))).collect();
                let user_ids: Vec<_> = sessions
                    .iter()
                    .map(|&s| b.add_user(session_ids[s as usize]))
                    .collect();
                for (u, &ridx) in base_rates.iter().enumerate() {
                    b.link(ap_ids[0], user_ids[u], Kbps::from_mbps(RATES[ridx]))
                        .unwrap();
                }
                for a in 1..n_aps {
                    for u in 0..user_ids.len() {
                        if let Some(ridx) = links[a * user_ids.len() + u] {
                            b.link(ap_ids[a], user_ids[u], Kbps::from_mbps(RATES[ridx]))
                                .unwrap();
                        }
                    }
                }
                b.build().unwrap()
            })
    })
}

fn load_strategy() -> impl Strategy<Value = Load> {
    (-200i128..200, 1i128..60).prop_map(|(n, d)| Load::new(n, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // ---- Load arithmetic laws ----

    #[test]
    fn load_add_commutative_associative(a in load_strategy(), b in load_strategy(), c in load_strategy()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a + Load::ZERO, a);
    }

    #[test]
    fn load_sub_inverts_add(a in load_strategy(), b in load_strategy()) {
        prop_assert_eq!(a + b - b, a);
        prop_assert_eq!(a - a, Load::ZERO);
    }

    #[test]
    fn load_order_matches_f64(a in load_strategy(), b in load_strategy()) {
        // Exact ordering must agree with float ordering away from ties.
        if (a.as_f64() - b.as_f64()).abs() > 1e-9 {
            prop_assert_eq!(a < b, a.as_f64() < b.as_f64());
        }
        prop_assert!(a <= a);
    }

    #[test]
    fn load_order_compatible_with_add(a in load_strategy(), b in load_strategy(), c in load_strategy()) {
        if a <= b {
            prop_assert!(a + c <= b + c);
        }
    }

    // ---- Solver invariants on random instances ----

    #[test]
    fn mla_serves_everyone_and_realized_within_model(inst in coverable_instance()) {
        let sol = solve_mla(&inst).unwrap();
        prop_assert_eq!(sol.satisfied, inst.n_users());
        prop_assert!(sol.total_load <= sol.model_cost.unwrap());
        for u in inst.users() {
            let a = sol.association.ap_of(u).unwrap();
            prop_assert!(inst.link_rate(a, u).is_some());
        }
    }

    #[test]
    fn bla_serves_everyone_realized_within_model(inst in coverable_instance()) {
        let sol = solve_bla(&inst).unwrap();
        prop_assert_eq!(sol.satisfied, inst.n_users());
        prop_assert!(sol.max_load <= sol.model_cost.unwrap());
        // Total can never beat the MLA greedy by definition of objectives?
        // No such guarantee — but max_load <= total_load always.
        prop_assert!(sol.max_load <= sol.total_load);
    }

    #[test]
    fn mnu_is_budget_feasible(inst in coverable_instance()) {
        let sol = solve_mnu(&inst);
        prop_assert!(sol.association.is_feasible(&inst));
        // Stats agree with a from-scratch evaluation.
        prop_assert_eq!(sol.total_load, sol.association.total_load(&inst));
        prop_assert_eq!(sol.max_load, sol.association.max_load(&inst));
        prop_assert_eq!(sol.satisfied, sol.association.satisfied_count());
    }

    #[test]
    fn ssa_is_budget_feasible_and_deterministic(inst in coverable_instance()) {
        let s1 = solve_ssa(&inst, Objective::Mnu);
        let s2 = solve_ssa(&inst, Objective::Mnu);
        prop_assert!(s1.association.is_feasible(&inst));
        prop_assert_eq!(s1.association, s2.association);
    }

    // ---- Distributed invariants ----

    #[test]
    fn serial_distributed_converges_and_is_feasible(inst in coverable_instance()) {
        for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
            let out = run_distributed(
                &inst,
                &DistributedConfig { policy, ..DistributedConfig::default() },
                Association::empty(inst.n_users()),
            );
            prop_assert!(out.converged, "serial mode must converge (Lemmas 1-2)");
            prop_assert!(!out.cycle_detected);
            prop_assert!(out.association.is_feasible(&inst));
        }
    }

    #[test]
    fn serial_runs_are_deterministic(inst in coverable_instance()) {
        let run = || run_distributed(
            &inst,
            &DistributedConfig::default(),
            Association::empty(inst.n_users()),
        );
        prop_assert_eq!(run().association, run().association);
    }

    #[test]
    fn simultaneous_terminates_via_convergence_or_cycle(inst in coverable_instance()) {
        let out = run_distributed(
            &inst,
            &DistributedConfig {
                mode: ExecutionMode::Simultaneous,
                max_rounds: 60,
                ..DistributedConfig::default()
            },
            Association::empty(inst.n_users()),
        );
        // Either it settles, or a cycle is flagged, or the round cap hits;
        // all are reported coherently.
        if out.converged {
            prop_assert!(!out.cycle_detected);
        }
        prop_assert!(out.rounds <= 60);
    }

    // ---- Ledger vs batch equivalence under random operations ----

    #[test]
    fn ledger_equals_batch_after_random_ops(
        inst in coverable_instance(),
        ops in vec((0u32..12, 0u32..5), 0..40),
    ) {
        let mut ledger = LoadLedger::new(&inst, Association::empty(inst.n_users()));
        for (u_raw, a_raw) in ops {
            let u = UserId(u_raw % inst.n_users() as u32);
            let a = ApId(a_raw % inst.n_aps() as u32);
            if inst.link_rate(a, u).is_some() {
                ledger.reassociate(u, a);
            } else if ledger.ap_of(u).is_some() {
                ledger.leave(u);
            }
        }
        let assoc = ledger.association().clone();
        for a in inst.aps() {
            prop_assert_eq!(ledger.ap_load(a), mcast_core::reference::ap_load_scan(&assoc, a, &inst));
        }
        prop_assert_eq!(ledger.total_load(), assoc.total_load(&inst));
        prop_assert_eq!(ledger.max_load(), assoc.max_load(&inst));
    }

    // ---- Fast paths vs pre-optimization reference oracles ----

    /// The count-array `LoadLedger` tracks the `BTreeMap` reference ledger
    /// through arbitrary join/leave/move sequences — every observable
    /// (loads, hypotheticals, per-session tx rates) at every step.
    #[test]
    fn fast_ledger_matches_reference_on_random_moves(
        inst in coverable_instance(),
        ops in vec((0u32..12, 0u32..5), 0..40),
    ) {
        let mut fast = LoadLedger::new(&inst, Association::empty(inst.n_users()));
        let mut reference = ReferenceLedger::fresh(&inst);
        for (u_raw, a_raw) in ops {
            let u = UserId(u_raw % inst.n_users() as u32);
            let a = ApId(a_raw % inst.n_aps() as u32);
            if inst.link_rate(a, u).is_some() {
                fast.reassociate(u, a);
                reference.reassociate(u, a);
            } else if fast.ap_of(u).is_some() {
                fast.leave(u);
                reference.leave(u);
            }
            for b in inst.aps() {
                prop_assert_eq!(fast.ap_load(b), reference.ap_load(b));
                for s in inst.sessions() {
                    prop_assert_eq!(fast.ap_session_rate(b, s), reference.ap_session_rate(b, s));
                }
            }
            for v in inst.users() {
                prop_assert_eq!(fast.ap_of(v), reference.ap_of(v));
                prop_assert_eq!(fast.load_if_left(v), reference.load_if_left(v));
                for &(b, _) in inst.candidate_aps(v) {
                    prop_assert_eq!(fast.load_if_joined(v, b), reference.load_if_joined(v, b));
                }
            }
        }
        prop_assert_eq!(fast.association(), reference.association());
    }

    /// The delta-evaluated decision rule equals the naive
    /// sort-per-candidate oracle on random states — both policies, with
    /// and without budgets, across hysteresis levels (exercising the
    /// lexicographic, signal, and id tie-breaks).
    #[test]
    fn delta_decision_matches_reference(
        inst in coverable_instance(),
        ops in vec((0u32..12, 0u32..5), 0..30),
        hyst_kind in 0u8..3,
        budget_raw in 0u8..2,
    ) {
        let mut ledger = LoadLedger::new(&inst, Association::empty(inst.n_users()));
        for (u_raw, a_raw) in ops {
            let u = UserId(u_raw % inst.n_users() as u32);
            let a = ApId(a_raw % inst.n_aps() as u32);
            if inst.link_rate(a, u).is_some() {
                ledger.reassociate(u, a);
            } else if ledger.ap_of(u).is_some() {
                ledger.leave(u);
            }
        }
        let reference = ReferenceLedger::new(&inst, ledger.association().clone());
        let hysteresis = match hyst_kind {
            0 => Load::ZERO,
            1 => Load::from_ratio(1, 100),
            _ => Load::from_ratio(1, 6),
        };
        let respect_budget = budget_raw == 1;
        for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
            for u in inst.users() {
                let fast = local_decision_with(&ledger, u, policy, respect_budget, hysteresis);
                let refd =
                    local_decision_reference(&reference, u, policy, respect_budget, hysteresis);
                prop_assert_eq!(fast, refd, "policy {:?} user {}", policy, u);
            }
        }
    }

    /// The worklist convergence loop reproduces the full-sweep reference
    /// run outcome-for-outcome: association, rounds, moves, convergence
    /// and cycle flags — both modes, both policies, shuffled orders.
    #[test]
    fn fast_run_matches_reference_run(
        inst in coverable_instance(),
        seed in 0u64..4,
    ) {
        for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
            for mode in [ExecutionMode::Serial, ExecutionMode::Simultaneous] {
                let config = DistributedConfig {
                    policy,
                    mode,
                    max_rounds: 40,
                    order: if seed == 0 {
                        DecisionOrder::ById
                    } else {
                        DecisionOrder::Shuffled(seed)
                    },
                    ..DistributedConfig::default()
                };
                let fast = run_distributed(&inst, &config, Association::empty(inst.n_users()));
                let reference =
                    run_distributed_reference(&inst, &config, Association::empty(inst.n_users()));
                prop_assert_eq!(&fast.association, &reference.association);
                prop_assert_eq!(fast.rounds, reference.rounds);
                prop_assert_eq!(fast.moves, reference.moves);
                prop_assert_eq!(fast.converged, reference.converged);
                prop_assert_eq!(fast.cycle_detected, reference.cycle_detected);
            }
        }
    }

    #[test]
    fn association_sentinel_serde_roundtrips(
        by_user in vec(proptest::option::of(0u32..10_000), 0..200),
    ) {
        // The compact representation (one u32 per user, `u32::MAX` =
        // unassociated) must survive the JSON wire exactly, including
        // the `None` sentinel.
        let assoc = Association::from_vec(
            by_user.iter().map(|a| a.map(ApId)).collect(),
        );
        let json = serde_json::to_string(&assoc).expect("association serializes");
        let back: Association = serde_json::from_str(&json).expect("association parses");
        prop_assert_eq!(&back, &assoc);
        prop_assert_eq!(
            back.to_vec(),
            by_user.iter().map(|a| a.map(ApId)).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            assoc.satisfied_count(),
            by_user.iter().filter(|a| a.is_some()).count()
        );
    }

    #[test]
    fn ledger_hypotheticals_match_reality(inst in coverable_instance()) {
        let mut ledger = LoadLedger::new(&inst, Association::empty(inst.n_users()));
        for u in inst.users() {
            let a = ApId(0); // always linked by construction
            let predicted = ledger.load_if_joined(u, a).unwrap();
            ledger.join(u, a);
            prop_assert_eq!(ledger.ap_load(a), predicted);
        }
        for u in inst.users() {
            let predicted = ledger.load_if_left(u).unwrap();
            ledger.leave(u);
            prop_assert_eq!(ledger.ap_load(ApId(0)), predicted);
        }
    }
}
