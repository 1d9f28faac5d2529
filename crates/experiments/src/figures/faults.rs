//! **faults** — recovery behaviour under the fault-injection subsystem.
//!
//! The paper's evaluation assumes a static, failure-free WLAN. This
//! experiment measures what its distributed protocols do when that
//! assumption breaks: a *coordinated outage* takes down the most-loaded
//! APs mid-run (down for a fixed window, then back), and each policy ×
//! wake-schedule combination must re-home the displaced users and settle
//! again.
//!
//! Reported per run, as JSON (written to `<out>/faults.json` and echoed
//! to stdout):
//!
//! - **time-to-reconvergence** per fault epoch — how long association
//!   churn continues after the failure (and after the recovery);
//! - **transient coverage loss** — user-microseconds of lost service
//!   until the displaced users are re-homed;
//! - **wasted retries** — lock denials, denied association requests and
//!   abandoned exchanges caused by the fault;
//! - **per-AP load overshoot** — the peak max load the survivors carried,
//!   against the analytic optimum (BLA's balanced max load) for the
//!   intact network.

use mcast_core::{solve_bla, Policy};
use mcast_faults::{ApOutage, FaultPlan, RecoverySummary};
use mcast_sim::{SimConfig, Simulator, WakeSchedule};
use mcast_topology::ScenarioConfig;
use serde::{Deserialize, Serialize};

use crate::par::parallel_map;
use crate::runner::{Runner, TrialError, TrialKey};
use crate::Options;

/// Shape of the scenario and outage, echoed into the JSON so a result is
/// self-describing.
#[derive(Debug, Serialize)]
struct Setup {
    n_aps: usize,
    n_users: usize,
    n_sessions: usize,
    seeds: u64,
    aps_down: usize,
    down_cycle: u64,
    up_cycle: u64,
    max_cycles: usize,
}

/// One (seed, schedule, policy) run. Deserializable so a seed's rows can
/// replay from the journal on `--resume`.
#[derive(Debug, Serialize, Deserialize)]
struct RunRow {
    seed: u64,
    schedule: String,
    policy: String,
    converged: bool,
    cycles: usize,
    /// Instants (µs) at which fault epochs hit: the outage, the recovery.
    fault_epochs_us: Vec<u64>,
    /// Time-to-reconvergence per epoch, µs (`null` = never settled).
    reconvergence_us: Vec<Option<u64>>,
    /// p50/p95/max over those times — the same [`RecoverySummary`] the
    /// controller reports in epochs, so the two runtimes compare
    /// directly.
    reconvergence_summary: RecoverySummary,
    /// Transient coverage loss per epoch, user-microseconds.
    coverage_loss_user_us: Vec<u64>,
    wasted_retries: u64,
    abandoned_exchanges: u64,
    assoc_denied: u64,
    frames_lost: u64,
    total_messages: u64,
    final_satisfied: usize,
    /// Peak per-AP load the ledger ever held during the run.
    peak_max_load: f64,
    /// BLA's analytic balanced max load for the intact network.
    optimal_max_load: f64,
    /// `peak_max_load / optimal_max_load` — the transient overshoot the
    /// outage forced onto the surviving APs.
    overshoot_vs_optimum: f64,
}

#[derive(Debug, Serialize)]
struct FaultsReport {
    setup: Setup,
    runs: Vec<RunRow>,
}

fn schedule_name(s: WakeSchedule) -> &'static str {
    match s {
        WakeSchedule::Staggered => "Staggered",
        WakeSchedule::Synchronized => "Synchronized",
        WakeSchedule::SynchronizedLocked => "SynchronizedLocked",
    }
}

fn policy_name(p: Policy) -> &'static str {
    match p {
        Policy::MinTotalLoad => "MinTotalLoad",
        Policy::MinMaxVector => "MinMaxVector",
    }
}

/// Runs the coordinated-outage experiment and returns the JSON document.
pub fn run(opts: &Options, runner: &Runner) -> String {
    let (n_aps, n_users, n_sessions, seeds) = if opts.quick {
        (10, 40, 3, 2)
    } else {
        (20, 80, 4, opts.seeds.min(10))
    };
    let aps_down = 3usize.min(n_aps / 3).max(1);
    let (down_cycle, up_cycle) = (20u64, 45u64);
    let max_cycles = 150;

    // Seeds are independent; fan them out and flatten in seed order so the
    // JSON rows keep the serial (seed, schedule, policy) order.
    let seed_list: Vec<u64> = (0..seeds).collect();
    let per_seed: Vec<Result<Vec<RunRow>, TrialError>> = parallel_map(&seed_list, |&seed| {
        let key = TrialKey::new("faults", 1.0, seed, "outage");
        runner.trial(&key, || {
            let mut runs = Vec::new();
            let scenario = ScenarioConfig {
                n_aps,
                n_users,
                n_sessions,
                ..ScenarioConfig::paper_default()
            }
            .with_seed(seed)
            .generate();
            let inst = &scenario.instance;

            // The analytic optimum for the intact network, and — via its
            // association — the most-loaded APs, which the outage targets
            // (worst case: the users hardest to re-home all move at once).
            let opt = solve_bla(inst).map_err(|e| TrialError::failed(format!("solve_bla: {e}")))?;
            let mut by_load: Vec<_> = opt
                .association
                .loads(inst)
                .into_iter()
                .zip(inst.aps())
                .collect();
            by_load.sort();
            let victims: Vec<_> = by_load
                .iter()
                .rev()
                .take(aps_down)
                .map(|&(_, a)| a)
                .collect();

            for schedule in [WakeSchedule::Staggered, WakeSchedule::SynchronizedLocked] {
                for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
                    let cfg = SimConfig {
                        policy,
                        schedule,
                        max_cycles,
                        quiet_cycles: 6,
                        ..SimConfig::default()
                    };
                    let plan = FaultPlan {
                        ap_outages: victims
                            .iter()
                            .map(|&a| ApOutage {
                                ap: a,
                                down_at_us: down_cycle * cfg.period.0,
                                up_at_us: Some(up_cycle * cfg.period.0),
                            })
                            .collect(),
                        ..FaultPlan::none()
                    };
                    let report = Simulator::new(
                        inst,
                        SimConfig {
                            faults: plan,
                            ..cfg
                        },
                    )
                    .run();
                    let opt_max = opt.max_load.as_f64();
                    let peak = report.peak_max_load.as_f64();
                    runs.push(RunRow {
                        seed,
                        schedule: schedule_name(schedule).to_string(),
                        policy: policy_name(policy).to_string(),
                        converged: report.converged,
                        cycles: report.cycles,
                        fault_epochs_us: report.fault_epochs.iter().map(|t| t.0).collect(),
                        reconvergence_us: report
                            .reconvergence_times()
                            .iter()
                            .map(|r| r.map(|t| t.0))
                            .collect(),
                        reconvergence_summary: report.reconvergence_summary(),
                        coverage_loss_user_us: report.coverage_loss_user_us(),
                        wasted_retries: report.wasted_retries(),
                        abandoned_exchanges: report.abandoned_exchanges,
                        assoc_denied: report.assoc_denied,
                        frames_lost: report.frames_lost,
                        total_messages: report.total_messages(),
                        final_satisfied: report.association.satisfied_count(),
                        peak_max_load: peak,
                        optimal_max_load: opt_max,
                        overshoot_vs_optimum: if opt_max > 0.0 { peak / opt_max } else { 0.0 },
                    });
                }
            }
            Ok(runs)
        })
    });
    if per_seed.iter().all(|r| r.is_err()) {
        runner.note_hole("faults", 1.0, "outage");
    }
    let runs: Vec<RunRow> = per_seed
        .into_iter()
        .filter_map(Result::ok)
        .flatten()
        .collect();

    let report = FaultsReport {
        setup: Setup {
            n_aps,
            n_users,
            n_sessions,
            seeds,
            aps_down,
            down_cycle,
            up_cycle,
            max_cycles,
        },
        runs,
    };
    serde_json::to_string_pretty(&report).expect("report is finite")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_emits_wellformed_json() {
        let opts = Options {
            quick: true,
            seeds: 1,
            ..Options::default()
        };
        let json = run(&opts, &crate::runner::Runner::ephemeral());
        let v: serde_json::Value = serde_json::parse_value(&json).expect("valid JSON");
        let runs = v
            .get("runs")
            .and_then(|r| match r {
                serde_json::Value::Array(a) => Some(a),
                _ => None,
            })
            .expect("runs array");
        // 2 quick-mode seeds × 2 schedules × 2 policies.
        assert_eq!(runs.len(), 8);
        for row in runs {
            assert!(row.get("reconvergence_us").is_some());
            assert!(row.get("reconvergence_summary").is_some());
            assert!(row.get("coverage_loss_user_us").is_some());
            let sched = row.get("schedule").unwrap();
            assert!(matches!(sched, serde_json::Value::Str(s)
                if s == "Staggered" || s == "SynchronizedLocked"));
        }
    }
}
