//! Property-based equivalence suite for the partitioned parallel engine:
//! for random coverable instances, every worker count `W ∈ {1, 2, 4, 8}`,
//! both execution modes, both policies, several hysteresis levels and
//! decision orders, `run_partitioned` must reproduce
//! `run_distributed` exactly — outcome, association, final ledger state,
//! and the full decision sequence.
//!
//! The case count honors `PROPTEST_CASES` (CI's `partition-smoke` job
//! runs a reduced count) and defaults to 32 — each case runs
//! 2 policies × 2 modes × 4 worker counts = 16 engine comparisons.

use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;

use mcast_core::{
    run_distributed_traced, run_partitioned, ApId, Association, ChaosPlan, DecisionOrder,
    DistributedConfig, ExecutionMode, Instance, InstanceBuilder, Kbps, Load, LoadLedger, Partition,
    Policy, Start, SuperviseOptions,
};

const RATES: [u32; 4] = [6, 12, 24, 54];

/// A random instance where AP 0 reaches every user (coverable by
/// construction); other links appear at random. Same shape as the
/// `properties.rs` strategy.
fn coverable_instance() -> impl Strategy<Value = Instance> {
    (1usize..5, 1usize..12, 1usize..4).prop_flat_map(|(n_aps, n_users, n_sessions)| {
        let user_sessions = vec(0u32..(n_sessions as u32), n_users);
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

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The headline equivalence: identical `DistributedOutcome`
    /// (association, rounds, moves, flags), identical final ledger, and
    /// identical decision trace for every worker count, mode, policy,
    /// hysteresis level and decision order — from empty, all-on-AP0 and
    /// partially associated (even users on AP 0) starts. Every run must
    /// also finish without recovery: a caught worker failure, such as
    /// ghost-replica drift found by the debug-build auditor, fails the
    /// property.
    #[test]
    fn partitioned_matches_single_thread(
        inst in coverable_instance(),
        seed in 0u64..3,
        hyst_kind in 0u8..3,
        budget_raw in 0u8..2,
        start_kind in 0u8..3,
    ) {
        let hysteresis = match hyst_kind {
            0 => Load::ZERO,
            1 => Load::from_ratio(1, 20),
            _ => Load::from_ratio(1, 6),
        };
        // AP 0 reaches everyone by construction.
        let initial = match start_kind {
            0 => Association::empty(inst.n_users()),
            1 => Association::from_vec(vec![Some(ApId(0)); inst.n_users()]),
            _ => Association::from_vec(
                (0..inst.n_users())
                    .map(|i| (i % 2 == 0).then_some(ApId(0)))
                    .collect(),
            ),
        };
        for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
            for mode in [ExecutionMode::Serial, ExecutionMode::Simultaneous] {
                let config = DistributedConfig {
                    policy,
                    mode,
                    max_rounds: 40,
                    respect_budget: budget_raw == 1,
                    hysteresis,
                    order: if seed == 0 {
                        DecisionOrder::ById
                    } else {
                        DecisionOrder::Shuffled(seed)
                    },
                };
                let (single, strace) =
                    run_distributed_traced(&inst, &config, initial.clone());
                let single_ledger = LoadLedger::new(&inst, single.association.clone());
                let opts = SuperviseOptions {
                    trace: true,
                    ..SuperviseOptions::default()
                };
                for w in [1usize, 2, 4, 8] {
                    let part = Partition::contiguous(&inst, w).unwrap();
                    let out = run_partitioned(
                        &inst,
                        &config,
                        &part,
                        Start::Fresh(initial.clone()),
                        &opts,
                    )
                    .unwrap();
                    let ctx = format!("{policy:?}/{mode:?} W={w}");
                    prop_assert!(out.recovery.clean(), "recovery {:?}: {}", out.recovery, ctx);
                    let (par, ptrace) = (out.outcome, out.trace);
                    prop_assert_eq!(
                        &par.association,
                        &single.association,
                        "association: {}", ctx
                    );
                    prop_assert_eq!(par.rounds, single.rounds, "rounds: {}", ctx);
                    prop_assert_eq!(par.moves, single.moves, "moves: {}", ctx);
                    prop_assert_eq!(par.converged, single.converged, "converged: {}", ctx);
                    prop_assert_eq!(
                        par.cycle_detected,
                        single.cycle_detected,
                        "cycle: {}", ctx
                    );
                    prop_assert_eq!(&ptrace, &strace, "decision trace: {}", ctx);
                    // Final ledger state (per-AP loads and tx rates) is a
                    // pure function of the association — pin it anyway.
                    let par_ledger = LoadLedger::new(&inst, par.association.clone());
                    for a in inst.aps() {
                        prop_assert_eq!(par_ledger.ap_load(a), single_ledger.ap_load(a));
                        for s in inst.sessions() {
                            prop_assert_eq!(
                                par_ledger.ap_session_rate(a, s),
                                single_ledger.ap_session_rate(a, s)
                            );
                        }
                    }
                }
            }
        }
    }

    /// Boundary classification sanity on random instances: every
    /// other-tile candidate AP of any user is classified boundary, and a
    /// one-tile partition has no boundary at all.
    #[test]
    fn boundary_classification_is_sound(inst in coverable_instance()) {
        for w in [1usize, 2, 4] {
            let part = Partition::contiguous(&inst, w).unwrap();
            for u in inst.users() {
                for &(a, _) in inst.candidate_aps(u) {
                    if part.ap_tile(a) != part.user_tile(u) {
                        prop_assert!(
                            part.is_boundary_ap(a),
                            "cross-tile candidate {} of {} not boundary", a, u
                        );
                    }
                    if part.is_boundary_ap(a) {
                        prop_assert!(part.is_boundary_user(u));
                    }
                }
            }
        }
        let single = Partition::contiguous(&inst, 1).unwrap();
        prop_assert_eq!(single.boundary_ap_count(), 0);
        prop_assert_eq!(single.boundary_user_count(), 0);
    }

    /// Repeated partitioned runs are deterministic (no schedule leakage)
    /// and need no recovery.
    #[test]
    fn partitioned_runs_are_deterministic(inst in coverable_instance()) {
        let config = DistributedConfig {
            mode: ExecutionMode::Serial,
            ..DistributedConfig::default()
        };
        let part = Partition::contiguous(&inst, 4).unwrap();
        let run = || run_partitioned(
            &inst,
            &config,
            &part,
            Start::Fresh(Association::empty(inst.n_users())),
            &SuperviseOptions::default(),
        )
        .unwrap();
        let (a, b) = (run(), run());
        prop_assert!(a.recovery.clean() && b.recovery.clean());
        prop_assert_eq!(a.outcome.association, b.outcome.association);
        prop_assert_eq!(a.outcome.moves, b.outcome.moves);
    }

    /// Chaos equivalence: a supervised run under a seeded fault plan
    /// (worker panics, dropped/delayed/duplicated halo replies) recovers
    /// to the exact fault-free outcome and decision trace — for both
    /// modes, both policies, W ∈ {2, 4}.
    #[test]
    fn chaos_recovers_to_the_fault_free_run(
        inst in coverable_instance(),
        chaos_seed in 0u64..u64::MAX,
    ) {
        for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
            for mode in [ExecutionMode::Serial, ExecutionMode::Simultaneous] {
                let config = DistributedConfig {
                    policy,
                    mode,
                    max_rounds: 30,
                    ..DistributedConfig::default()
                };
                let initial = Association::empty(inst.n_users());
                let (single, strace) =
                    run_distributed_traced(&inst, &config, initial.clone());
                for w in [2usize, 4] {
                    let part = Partition::contiguous(&inst, w).unwrap();
                    // Seed faults only into rounds the run actually
                    // executes, so every plan injects something.
                    let chaos =
                        ChaosPlan::seeded(chaos_seed, w, single.rounds.max(1) as u32);
                    // Every seeded plan drops a reply; a short deadline
                    // keeps each drop from waiting out the 250 ms default.
                    let opts = SuperviseOptions {
                        deadline: Some(Duration::from_millis(10)),
                        trace: true,
                        chaos: Some(&chaos),
                        ..SuperviseOptions::default()
                    };
                    let out = run_partitioned(
                        &inst,
                        &config,
                        &part,
                        Start::Fresh(initial.clone()),
                        &opts,
                    )
                    .unwrap();
                    let ctx = format!("{policy:?}/{mode:?} W={w} seed={chaos_seed}");
                    prop_assert_eq!(
                        &out.outcome.association,
                        &single.association,
                        "association: {}", ctx
                    );
                    prop_assert_eq!(out.outcome.moves, single.moves, "moves: {}", ctx);
                    prop_assert_eq!(&out.trace, &strace, "trace: {}", ctx);
                    prop_assert!(
                        !out.recovery.clean(),
                        "seeded chaos must inject at least one fault: {}", ctx
                    );
                }
            }
        }
    }
}
