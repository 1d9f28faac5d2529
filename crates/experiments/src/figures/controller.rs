//! **controller** — the online resilient controller under a coordinated
//! outage, swept across the graceful-degradation ladder's policies.
//!
//! The paper's centralized algorithms solve one static instance. This
//! experiment runs them *online*: a large WLAN suffers a coordinated
//! outage (the most-loaded APs go down mid-run, then come back) plus
//! background mobility churn, and the epoch-driven controller
//! (`mcast-controller`) must keep the association legal and covered.
//! Each seed runs the identical scenario × fault plan under all three
//! ladder policies:
//!
//! - **full** — re-solve from scratch every dirty epoch (the paper's
//!   algorithm, applied naively online);
//! - **repair** — full solve at epoch 0, then incremental repair of only
//!   the orphaned/arrived users against the live [`LoadLedger`] —
//!   expected to cause strictly less disruption at equal final coverage;
//! - **ssa-only** — the strongest-signal fallback, the ladder's floor.
//!
//! Reported per run, as JSON (written to `<out>/controller.json` and
//! echoed to stdout): the full per-epoch `ControllerReport` (solve path,
//! work, handoffs, shed/readmitted, auditor verdicts) plus a per-seed
//! *headline* comparing repair vs full on the disruption score
//! (handoffs + coverage-loss user·epochs) and final coverage.
//!
//! [`LoadLedger`]: mcast_core::LoadLedger

use mcast_controller::{ControllerConfig, ControllerReport, LadderPolicy};
use mcast_core::{solve_mnu, Objective};
use mcast_faults::{ApOutage, ChurnModel, FaultPlan};
use mcast_topology::{Scenario, ScenarioConfig};
use serde::{Deserialize, Serialize};

use crate::par::parallel_map;
use crate::runner::{Runner, TrialError, TrialKey};
use crate::Options;

/// Shape of the scenario, outage and epoch clock, echoed into the JSON
/// so a result is self-describing.
#[derive(Debug, Serialize)]
struct Setup {
    n_aps: usize,
    n_users: usize,
    n_sessions: usize,
    seeds: u64,
    objective: String,
    aps_down: usize,
    down_epoch: u64,
    up_epoch: u64,
    n_epochs: u64,
    epoch_us: u64,
    jump_prob: f64,
    link_keep_prob: f64,
}

/// One (seed, policy) controller run. Deserializable so a finished
/// policy's row replays from the journal on `--resume`.
#[derive(Debug, Serialize, Deserialize)]
struct PolicyRow {
    seed: u64,
    policy: String,
    report: ControllerReport,
}

/// The per-seed repair-vs-full verdict the experiment exists to measure.
#[derive(Debug, Serialize)]
struct Headline {
    seed: u64,
    disruption_full: u64,
    disruption_repair: u64,
    disruption_ssa_only: Option<u64>,
    /// True iff repair caused strictly less disruption than full
    /// re-solving while ending at the same coverage.
    repair_beats_full: bool,
    final_satisfied_full: usize,
    final_satisfied_repair: usize,
    equal_final_coverage: bool,
}

#[derive(Debug, Serialize)]
struct ControllerJson {
    setup: Setup,
    runs: Vec<PolicyRow>,
    headline: Vec<Headline>,
}

/// Runs the policy sweep and returns the JSON document.
pub fn run(opts: &Options, runner: &Runner) -> String {
    // Full mode is the headline scale: a 2000-AP campus with a
    // 100-AP coordinated outage. Quick mode shrinks everything but
    // keeps the same shape (outage + recovery + churn) and turns the
    // from-scratch ledger oracle on every epoch.
    let (n_aps, n_users, n_sessions, seeds, aps_down, jump_prob) = if opts.quick {
        (12, 48, 3, 2, 3, 0.25)
    } else {
        (2000, 6000, 8, opts.seeds.min(2), 100, 0.02)
    };
    let (n_epochs, down_epoch, up_epoch) = if opts.quick { (16, 3, 9) } else { (30, 6, 18) };
    let epoch_us = 100_000u64;
    let link_keep_prob = 0.6;
    let objective = Objective::Mnu;

    let seed_list: Vec<u64> = (0..seeds).collect();
    let per_seed: Vec<Vec<Result<PolicyRow, TrialError>>> = parallel_map(&seed_list, |&seed| {
        let keys: Vec<TrialKey> = LadderPolicy::ALL
            .iter()
            .map(|p| TrialKey::new("controller", 1.0, seed, p.name()))
            .collect();
        // Generate the (large) scenario once per seed, shared by the
        // three policy trials — skipped entirely when every policy
        // already has a journaled row.
        let generate = || {
            ScenarioConfig {
                n_aps,
                n_users,
                n_sessions,
                ..ScenarioConfig::paper_default()
            }
            .with_seed(seed)
            .generate()
        };
        let scenario = if runner.all_cached(&keys) {
            None
        } else {
            Some(generate())
        };
        // The outage targets the most-loaded APs of the intact solution
        // (worst case: the users hardest to re-home all orphan at once).
        let plan = scenario.as_ref().map(|sc| {
            build_plan(
                sc,
                seed,
                aps_down,
                down_epoch,
                up_epoch,
                epoch_us,
                jump_prob,
                link_keep_prob,
            )
        });

        keys.iter()
            .zip(LadderPolicy::ALL)
            .map(|(key, policy)| {
                runner.trial(key, || {
                    // A journaled row that was later rejected (schema
                    // drift) replays as a fresh trial: regenerate.
                    let owned;
                    let (sc, plan) = match (&scenario, &plan) {
                        (Some(sc), Some(plan)) => (sc, plan.clone()),
                        _ => {
                            owned = generate();
                            let plan = build_plan(
                                &owned,
                                seed,
                                aps_down,
                                down_epoch,
                                up_epoch,
                                epoch_us,
                                jump_prob,
                                link_keep_prob,
                            );
                            (&owned, plan)
                        }
                    };
                    let cfg = ControllerConfig {
                        objective,
                        policy,
                        epoch_us,
                        n_epochs,
                        work_budget: 0,
                        audit_oracle: opts.quick,
                    };
                    let outcome = mcast_controller::run(&sc.instance, &plan, &cfg)
                        .map_err(TrialError::failed)?;
                    Ok(PolicyRow {
                        seed,
                        policy: policy.name().to_string(),
                        report: outcome.report,
                    })
                })
            })
            .collect()
    });
    let flat: Vec<Result<PolicyRow, TrialError>> = per_seed.into_iter().flatten().collect();
    if flat.iter().all(|r| r.is_err()) {
        runner.note_hole("controller", 1.0, "all-policies");
    }
    let runs: Vec<PolicyRow> = flat.into_iter().filter_map(Result::ok).collect();

    let headline = seed_list
        .iter()
        .filter_map(|&seed| {
            let by = |name: &str| {
                runs.iter()
                    .find(|r| r.seed == seed && r.policy == name)
                    .map(|r| &r.report)
            };
            let (full, repair) = (by("full")?, by("repair")?);
            Some(Headline {
                seed,
                disruption_full: full.disruption,
                disruption_repair: repair.disruption,
                disruption_ssa_only: by("ssa-only").map(|r| r.disruption),
                repair_beats_full: repair.disruption < full.disruption
                    && repair.final_satisfied == full.final_satisfied,
                final_satisfied_full: full.final_satisfied,
                final_satisfied_repair: repair.final_satisfied,
                equal_final_coverage: repair.final_satisfied == full.final_satisfied,
            })
        })
        .collect();

    let json = ControllerJson {
        setup: Setup {
            n_aps,
            n_users,
            n_sessions,
            seeds,
            objective: format!("{objective:?}"),
            aps_down,
            down_epoch,
            up_epoch,
            n_epochs,
            epoch_us,
            jump_prob,
            link_keep_prob,
        },
        runs,
        headline,
    };
    serde_json::to_string_pretty(&json).expect("report is finite")
}

/// The shared fault plan of one seed: the `aps_down` most-loaded APs of
/// the intact MNU solution go down together at `down_epoch` and return
/// at `up_epoch`, over background mobility churn. Shared with
/// `crate::serve`, which replays the same chaos through the
/// event-driven service.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_plan(
    scenario: &Scenario,
    seed: u64,
    aps_down: usize,
    down_epoch: u64,
    up_epoch: u64,
    epoch_us: u64,
    jump_prob: f64,
    link_keep_prob: f64,
) -> FaultPlan {
    let inst = &scenario.instance;
    let sol = solve_mnu(inst);
    let mut by_load: Vec<_> = sol
        .association
        .loads(inst)
        .into_iter()
        .zip(inst.aps())
        .collect();
    by_load.sort();
    FaultPlan {
        seed,
        ap_outages: by_load
            .iter()
            .rev()
            .take(aps_down)
            .map(|&(_, a)| ApOutage {
                ap: a,
                down_at_us: down_epoch * epoch_us,
                up_at_us: Some(up_epoch * epoch_us),
            })
            .collect(),
        churn: ChurnModel {
            jump_prob,
            link_keep_prob,
            ..ChurnModel::none()
        },
        ..FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_emits_wellformed_json_with_zero_violations() {
        let opts = Options {
            quick: true,
            seeds: 2,
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
        // 2 quick-mode seeds × 3 ladder policies.
        assert_eq!(runs.len(), 6);
        for row in runs {
            let report = row.get("report").expect("report");
            assert!(matches!(
                report.get("invariant_violations"),
                Some(serde_json::Value::Int(0))
            ));
            // Every epoch's solve path is recorded.
            let epochs = report
                .get("epochs")
                .and_then(|e| match e {
                    serde_json::Value::Array(a) => Some(a),
                    _ => None,
                })
                .expect("epochs array");
            assert_eq!(epochs.len(), 16);
            assert!(epochs.iter().all(|e| e.get("path").is_some()));
        }
        let headline = v
            .get("headline")
            .and_then(|h| match h {
                serde_json::Value::Array(a) => Some(a),
                _ => None,
            })
            .expect("headline array");
        assert_eq!(headline.len(), 2, "one verdict per seed");
        for h in headline {
            assert!(h.get("disruption_full").is_some());
            assert!(h.get("disruption_repair").is_some());
            assert!(h.get("repair_beats_full").is_some());
        }
    }
}
