//! Acceptance pin for the partitioned engine on *generated* reference
//! scenarios (the paper's default geometry, scaled down): with spatial
//! tile partitions of 1–8 tiles,
//!
//! * `Serial` mode reproduces the single-threaded decision sequence
//!   byte-identically (same `MoveRec`s in the same order) and the same
//!   final association, and
//! * `Simultaneous` mode reproduces the outcome and trace as well,
//!
//! and no run needs recovery (a caught worker failure, such as
//! ghost-replica drift, fails the test).
//!
//! The unit/property suites in `mcast-core` cover random hand-built
//! instances; this test covers the geometric partitions actually used by
//! the bench harness.

use mcast_core::{
    run_distributed_traced, run_partitioned, Association, DecisionOrder, DistributedConfig,
    DistributedOutcome, ExecutionMode, Load, Policy, Start, SuperviseOptions,
};
use mcast_topology::{tile_partition, ScenarioConfig};

fn outcomes_match(par: &DistributedOutcome, single: &DistributedOutcome, ctx: &str) {
    assert_eq!(
        &par.association, &single.association,
        "association diverged: {ctx}"
    );
    assert_eq!(par.rounds, single.rounds, "rounds diverged: {ctx}");
    assert_eq!(par.moves, single.moves, "moves diverged: {ctx}");
    assert_eq!(par.converged, single.converged, "converged diverged: {ctx}");
    assert_eq!(
        par.cycle_detected, single.cycle_detected,
        "cycle flag diverged: {ctx}"
    );
}

#[test]
fn reference_scenarios_byte_identical() {
    for (n_aps, n_users, seed) in [(30usize, 80usize, 0u64), (60, 150, 3)] {
        let scenario = ScenarioConfig {
            n_aps,
            n_users,
            ..ScenarioConfig::paper_default()
        }
        .with_seed(seed)
        .generate();
        let inst = &scenario.instance;
        for mode in [ExecutionMode::Serial, ExecutionMode::Simultaneous] {
            for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
                for order in [DecisionOrder::ById, DecisionOrder::Shuffled(seed + 1)] {
                    let config = DistributedConfig {
                        policy,
                        mode,
                        order,
                        max_rounds: 60,
                        hysteresis: Load::ZERO,
                        ..DistributedConfig::default()
                    };
                    let (single, strace) =
                        run_distributed_traced(inst, &config, Association::empty(inst.n_users()));
                    let opts = SuperviseOptions {
                        trace: true,
                        ..SuperviseOptions::default()
                    };
                    for w in [1usize, 2, 4, 8] {
                        let part = tile_partition(&scenario, w);
                        let par = run_partitioned(
                            inst,
                            &config,
                            &part,
                            Start::Fresh(Association::empty(inst.n_users())),
                            &opts,
                        )
                        .unwrap();
                        let ctx = format!(
                            "{n_aps} APs / {n_users} users seed {seed}, {mode:?}/{policy:?}/{order:?}, W={w}"
                        );
                        assert!(par.recovery.clean(), "recovery {:?}: {ctx}", par.recovery);
                        outcomes_match(&par.outcome, &single, &ctx);
                        assert_eq!(par.trace, strace, "decision sequence diverged: {ctx}");
                    }
                }
            }
        }
    }
}
