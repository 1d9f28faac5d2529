//! `join_storm`: the event-driven `serve` loop over many short epochs.
//! Joins are spread over the first three quarters of the horizon, a block
//! of APs goes down at a quarter and recovers at half of it, and users
//! jump (0.2), depart (0.1) and keep each link on a jump with 0.6, each
//! after their own join. The
//! MNU repair policy answers each epoch; a `JsonlPublisher` writes the log
//! with an fsync per epoch, and `replay_stream` reads it back (recovery).
//!
//! This is an open loop in simulated time: the event timeline is fixed by
//! the seed and drained unpaced. The unit of service is one epoch, timed
//! from sync return to sync return; an epoch slower than the 100 ms epoch
//! length counts as failed.

use std::path::{Path, PathBuf};

use mcast_controller::{
    ControllerConfig, ControllerOutcome, LadderPolicy, ReplayOutcome, ServiceStats,
};
use mcast_core::{ApId, Objective, UserId};
use mcast_events::{EventKind, TimeQueue};
use mcast_faults::{ApOutage, ChurnModel, FaultPlan};
use mcast_topology::{Scenario, ScenarioConfig};

use super::{paper_density_side_m, sub_seed, Size, Summary, Workload};
use crate::api::{self, WatchedLog, MIB};
use crate::trace::Tracer;

/// The workload.
pub struct JoinStorm;

/// Epoch length, µs: also the latency limit of one epoch.
const EPOCH_US: u64 = 100_000;

/// The shape of one run.
struct Shape {
    n_aps: usize,
    n_users: usize,
    n_epochs: u64,
    aps_down: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            n_aps: 600,
            n_users: 24_000,
            n_epochs: 1_000,
            aps_down: 30,
        },
        Size::Tiny => Shape {
            n_aps: 40,
            n_users: 600,
            n_epochs: 40,
            aps_down: 4,
        },
    }
}

/// The deployment, the lowered event queue and where the log goes.
pub struct Setup {
    scenario: Scenario,
    cfg: ControllerConfig,
    plan: FaultPlan,
    queue: TimeQueue<EventKind>,
    log: PathBuf,
}

/// The service's input queue: the plan lowered by `lower_plan`, with the
/// joins spread over the first three quarters of the horizon.
fn build_queue(
    t: &Tracer,
    scenario: &Scenario,
    plan: &FaultPlan,
    cfg: &ControllerConfig,
) -> Result<TimeQueue<EventKind>, String> {
    let queue = api::lower_plan(t, &scenario.instance, plan, cfg)?;
    Ok(stagger_joins(
        queue,
        scenario.instance.n_users(),
        cfg.n_epochs * 3 / 4,
        cfg.n_epochs * EPOCH_US,
    ))
}

/// What the service produced.
pub struct Output {
    /// The live outcome.
    pub live: ControllerOutcome,
    /// The service's own counters.
    pub stats: ServiceStats,
    /// Wall time of each epoch, ms.
    pub epoch_ms: Vec<f64>,
    /// Time spent waiting for the log's fsync calls, s.
    pub disk_wait_s: f64,
}

/// `n` distinct APs of `n_aps`, drawn from `seed` (partial Fisher–Yates).
fn pick_aps(seed: u64, n_aps: usize, n: usize) -> Vec<ApId> {
    let mut ids: Vec<u32> = (0..n_aps as u32).collect();
    for i in 0..n.min(n_aps) {
        let j = i + (sub_seed(seed, i as u64) % (n_aps - i) as u64) as usize;
        ids.swap(i, j);
    }
    ids.truncate(n);
    ids.into_iter().map(ApId).collect()
}

/// Moves user `i`'s join from `t = 0` (where `lower_plan` puts every
/// user) to the start of epoch `i · join_epochs / n_users`, and maps the
/// user's departure and jumps from `[0, horizon)` onto `[join, horizon)`,
/// in the same order. The engine ignores a departure or jump of a user
/// who has not joined yet, so without the second step the churn that
/// fell before a user's join would be lost.
fn stagger_joins(
    mut queue: TimeQueue<EventKind>,
    n_users: usize,
    join_epochs: u64,
    horizon_us: u64,
) -> TimeQueue<EventKind> {
    let join_us = |u: UserId| u.index() as u64 * join_epochs / n_users as u64 * EPOCH_US;
    let after_join = |u: UserId, at_us: u64| {
        let join = join_us(u);
        join + (u128::from(at_us) * u128::from(horizon_us - join) / u128::from(horizon_us)) as u64
    };
    let mut out = TimeQueue::new();
    while let Some(timed) = queue.pop() {
        let at_us = match timed.item {
            EventKind::UserJoin { user } => join_us(user),
            EventKind::UserLeave { user } | EventKind::LinkReroll { user, .. } => {
                after_join(user, timed.at_us)
            }
            _ => timed.at_us,
        };
        out.push(at_us, timed.item);
    }
    out
}

impl Workload for JoinStorm {
    type Setup = Setup;
    type Output = Output;
    type Staged = ();
    type Recovered = Result<ReplayOutcome, String>;

    fn setup(&self, seed: u64, size: Size, dir: &Path, t: &Tracer) -> Result<Setup, String> {
        let sh = shape(size);
        let side = paper_density_side_m(sh.n_aps);
        let scenario = api::generate(
            t,
            &ScenarioConfig {
                n_aps: sh.n_aps,
                n_users: sh.n_users,
                n_sessions: 8,
                width_m: side,
                height_m: side,
                ..ScenarioConfig::paper_default()
            }
            .with_seed(seed),
        );
        let cfg = ControllerConfig {
            objective: Objective::Mnu,
            policy: LadderPolicy::Repair,
            epoch_us: EPOCH_US,
            n_epochs: sh.n_epochs,
            work_budget: 0,
            audit_oracle: false,
        };
        let plan = FaultPlan {
            seed,
            ap_outages: pick_aps(seed, sh.n_aps, sh.aps_down)
                .into_iter()
                .map(|ap| ApOutage {
                    ap,
                    down_at_us: sh.n_epochs / 4 * EPOCH_US,
                    up_at_us: Some(sh.n_epochs / 2 * EPOCH_US),
                })
                .collect(),
            churn: ChurnModel {
                jump_prob: 0.2,
                departure_prob: 0.1,
                link_keep_prob: 0.6,
                ..ChurnModel::none()
            },
            ..FaultPlan::none()
        };
        let queue = build_queue(t, &scenario, &plan, &cfg)?;
        Ok(Setup {
            scenario,
            cfg,
            plan,
            queue,
            log: dir.join("events.jsonl"),
        })
    }

    fn reset(&self, s: &mut Setup, t: &Tracer) -> Result<(), String> {
        s.queue = build_queue(t, &s.scenario, &s.plan, &s.cfg)?;
        Ok(())
    }

    fn measure(&self, s: &mut Setup, t: &Tracer) -> Result<Output, String> {
        let inst = &s.scenario.instance;
        let mut log = WatchedLog::create(t, &s.log)?;
        let (live, stats) = api::serve(
            t,
            inst,
            &mut s.queue,
            &s.cfg,
            s.plan.link_keep_prob(),
            &mut log,
        )?;
        t.count("events.published", stats.events_published as f64);
        t.count("events.log_mb", log.bytes() as f64 / MIB);
        Ok(Output {
            live,
            stats,
            epoch_ms: log.epoch_ms(),
            disk_wait_s: log.disk_wait_s(),
        })
    }

    fn stage(&self, _s: &Setup, _o: &Output) {}

    fn recover(&self, s: &Setup, _staged: (), t: &Tracer) -> Result<ReplayOutcome, String> {
        let bytes = std::fs::read(&s.log)
            .map_err(|e| format!("cannot read back {}: {e}", s.log.display()))?;
        api::replay(t, &s.scenario.instance, &bytes)
    }

    fn check(
        &self,
        s: &Setup,
        o: &Output,
        r: &Result<ReplayOutcome, String>,
    ) -> Result<(), String> {
        let n_users = s.scenario.instance.n_users() as u64;
        let replayed = r.as_ref().map_err(|e| format!("replay: {e}"))?;
        if !replayed.complete || replayed.dropped_bytes != 0 {
            return Err(format!(
                "replay: the log is incomplete ({} bytes dropped: {:?})",
                replayed.dropped_bytes, replayed.tail_reason
            ));
        }
        let json = |o: &ControllerOutcome| {
            serde_json::to_string(&o.report).map_err(|e| format!("serialize report: {e}"))
        };
        if json(&o.live)? != json(&replayed.outcome)?
            || o.live.association != replayed.outcome.association
        {
            return Err(
                "replay: the replayed report or association differs from the live one".to_string(),
            );
        }
        if o.live.report.invariant_violations != 0 {
            return Err(format!(
                "serve: {} invariant violations",
                o.live.report.invariant_violations
            ));
        }
        if o.stats.joins != n_users || o.epoch_ms.len() as u64 != s.cfg.n_epochs {
            return Err(format!(
                "serve: {} of {n_users} joins ingested over {} of {} epochs",
                o.stats.joins,
                o.epoch_ms.len(),
                s.cfg.n_epochs
            ));
        }
        Ok(())
    }

    fn summarize(&self, s: &Setup, o: &Output, _r: &Result<ReplayOutcome, String>) -> Summary {
        let inst = &s.scenario.instance;
        let loads = api::checked_loads(inst, &o.live.association).unwrap_or_default();
        let limit_ms = EPOCH_US as f64 / 1e3;
        Summary {
            failed: o.epoch_ms.iter().filter(|&&ms| ms > limit_ms).count() as u64,
            epoch_ms: o.epoch_ms.clone(),
            served_frac: o.live.report.final_satisfied as f64 / inst.n_users() as f64,
            max_load: loads.iter().map(|l| l.as_f64()).fold(0.0, f64::max),
            total_load: loads.iter().map(|l| l.as_f64()).sum(),
            digest: api::digest([&o.live.association]),
            disk_wait_s: o.disk_wait_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_log_passes_and_a_truncated_log_fails() {
        let dir = std::env::temp_dir().join(format!("perfbench-join-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let t = Tracer::new(false, 0);
        let mut s = JoinStorm.setup(9, Size::Tiny, &dir, &t).unwrap();
        let o = JoinStorm.measure(&mut s, &t).unwrap();
        let r = JoinStorm.recover(&s, (), &t);
        JoinStorm.check(&s, &o, &r).unwrap();
        assert_eq!(o.stats.joins, 600);
        // One fsync per epoch plus the closing one, all inside the
        // measured phase, which `wall_s` then leaves out.
        assert!(o.disk_wait_s > 0.0);
        let summary = JoinStorm.summarize(&s, &o, &r);
        assert_eq!(summary.disk_wait_s, o.disk_wait_s);

        let bytes = std::fs::read(&s.log).unwrap();
        std::fs::write(&s.log, &bytes[..bytes.len() - 1]).unwrap();
        let r = JoinStorm.recover(&s, (), &t);
        let err = JoinStorm.check(&s, &o, &r);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(err.is_err());
    }

    #[test]
    fn joins_spread_over_three_quarters_of_the_horizon() {
        let t = Tracer::new(false, 0);
        let dir = std::env::temp_dir();
        let mut s = JoinStorm.setup(2, Size::Tiny, &dir, &t).unwrap();
        let mut last_join = 0;
        let mut downs = 0;
        while let Some(e) = s.queue.pop() {
            match e.item {
                EventKind::UserJoin { .. } => last_join = last_join.max(e.at_us),
                EventKind::ApDown { .. } => downs += 1,
                _ => {}
            }
        }
        assert_eq!(last_join, 29 * EPOCH_US);
        assert_eq!(downs, 4);
    }

    #[test]
    fn every_churn_event_follows_its_users_join() {
        let t = Tracer::new(false, 0);
        let mut s = JoinStorm
            .setup(4, Size::Tiny, &std::env::temp_dir(), &t)
            .unwrap();
        let inst = &s.scenario.instance;
        let is_churn = |e: &EventKind| {
            matches!(
                e,
                EventKind::UserLeave { .. } | EventKind::LinkReroll { .. }
            )
        };
        let mut lowered = api::lower_plan(&t, inst, &s.plan, &s.cfg).unwrap();
        let mut planned = 0;
        while let Some(e) = lowered.pop() {
            planned += usize::from(is_churn(&e.item));
        }
        let mut joined_at = vec![None; inst.n_users()];
        let mut churn = 0;
        while let Some(e) = s.queue.pop() {
            match e.item {
                EventKind::UserJoin { user } => joined_at[user.index()] = Some(e.at_us),
                EventKind::UserLeave { user } | EventKind::LinkReroll { user, .. } => {
                    let join = joined_at[user.index()].expect("churn before the user's join");
                    assert!(e.at_us > join, "{user} churns at its join time");
                    churn += 1;
                }
                _ => {}
            }
        }
        assert!(churn > 0);
        assert_eq!(churn, planned);
    }
}
