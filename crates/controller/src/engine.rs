//! The shared epoch engine: state mutation primitives and the
//! per-epoch ladder execution both runtimes drive.
//!
//! The lock-step runtime (`runtime::run`, consuming a compiled
//! [`FaultTimeline`](mcast_faults::FaultTimeline)) and the event-driven
//! service (`service::serve`, draining a
//! [`TimeQueue`](mcast_events::TimeQueue)) differ only in *where their
//! events come from*. Everything else — how an AP failure is applied,
//! how the degradation ladder picks a rung, how disruption metrics are
//! recorded and audited — lives here exactly once, so the two runtimes
//! cannot drift apart.

use std::time::Instant;

use mcast_core::{
    repair_user, solve_bla, solve_mla, solve_mnu, strongest_allowed_ap, ApId, Association,
    Instance, InstanceBuilder, LoadLedger, Objective, SolveError, UserId,
};

use crate::audit::{audit_epoch, CoverageRule};
use crate::ladder::{LadderPolicy, SolvePath, WorkMeter};
use crate::report::{assemble_report, ReportParts};
use crate::runtime::{ControllerConfig, ControllerOutcome};
use crate::state::{NetworkState, UserBits};

/// What one epoch of ladder execution produced, beyond its
/// [`EpochRecord`](crate::EpochRecord): the association diff (for the
/// event log) and the raw violation messages (for `Violation` events).
#[derive(Debug)]
pub(crate) struct EpochOutcome {
    /// The rung that ran.
    pub path: SolvePath,
    /// Every user whose AP changed this epoch, in user-id order, with
    /// their new AP (`None` = lost service).
    pub changes: Vec<(UserId, Option<ApId>)>,
    /// Invariant violations the auditor found, unformatted.
    pub violations: Vec<String>,
}

/// The mutable heart of a controller run.
///
/// An epoch costs what its events cost plus one full audit: every
/// association change the engine makes records its user once per epoch
/// (`touched`), so the epoch's diff walks only those users, and the
/// admission sweep draws its targets from a maintained list of the
/// present, unassociated users instead of filtering the population.
pub(crate) struct EpochEngine<'a> {
    inst: &'a Instance,
    cfg: ControllerConfig,
    /// Per-link survival probability for jump re-rolls.
    keep: f64,
    state: NetworkState,
    ledger: LoadLedger<'a>,
    shed: Vec<bool>,
    deferred: Vec<bool>,
    /// True while an epoch left something unfinished (degraded rung or
    /// deferred users): the next epoch re-runs the ladder even without
    /// new events.
    pending_work: bool,
    rule: CoverageRule,
    records: Vec<crate::report::EpochRecord>,
    violations_sample: Vec<String>,
    /// Users whose AP changed since the last epoch closed.
    touched: UserBits,
    /// Each touched user's AP when the epoch began (stale for the rest).
    /// The same size as the association snapshot it replaced, and
    /// likewise allocated once.
    epoch_start: Vec<Option<ApId>>,
    /// The admission list: every present, unassociated user once, plus
    /// users who departed since the last sweep. `listed` holds the same
    /// set. It grows with use rather than by a population-sized buffer
    /// up front: on `metro_cold` such a buffer stayed resident after the
    /// run and lifted the peak RSS.
    unplaced: Vec<UserId>,
    listed: UserBits,
    /// Users with an AP, kept up to date as epochs close.
    satisfied: usize,
    check_oracle: bool,
    /// The last sweep's targets and the full-population filter's, for
    /// the oracle tests.
    #[cfg(test)]
    last_targets: Option<(Vec<UserId>, Vec<UserId>)>,
}

impl<'a> EpochEngine<'a> {
    /// A fresh engine over `inst`. The caller picks the initial
    /// population: [`NetworkState::new`] (everyone present — the
    /// lock-step runtime) or [`NetworkState::absent`] (everyone joins
    /// through the queue — the service).
    pub fn new(
        inst: &'a Instance,
        cfg: &ControllerConfig,
        keep: f64,
        state: NetworkState,
    ) -> EpochEngine<'a> {
        let n_users = inst.n_users();
        let mut engine = EpochEngine {
            inst,
            cfg: *cfg,
            keep,
            state,
            ledger: LoadLedger::fresh(inst),
            shed: vec![false; n_users],
            deferred: vec![false; n_users],
            pending_work: false,
            rule: CoverageRule::Exact,
            records: Vec::with_capacity(cfg.n_epochs as usize),
            violations_sample: Vec::new(),
            touched: UserBits::new(n_users),
            epoch_start: vec![None; n_users],
            unplaced: Vec::new(),
            listed: UserBits::new(n_users),
            satisfied: 0,
            check_oracle: cfg.audit_oracle || cfg!(debug_assertions),
            #[cfg(test)]
            last_targets: None,
        };
        engine.relist_unplaced();
        engine
    }

    // ---- event ingestion primitives ---------------------------------
    // One method per event kind; both runtimes funnel through these, so
    // a fault means exactly the same thing regardless of the transport.

    /// The AP recovers with empty state.
    pub fn ap_up(&mut self, a: ApId) {
        self.state.set_up(a);
    }

    /// The AP crashes; its users are evicted exactly once.
    pub fn ap_down(&mut self, a: ApId) {
        if self.state.set_down(a) {
            for u in self.ledger.evict_ap(a) {
                self.touch(u, Some(a));
                self.list_unplaced(u);
            }
        }
    }

    /// The user joins; the next ladder sweep will try to place them.
    pub fn user_join(&mut self, u: UserId) {
        if self.state.join(u) {
            self.list_unplaced(u);
        }
    }

    /// The user leaves; their load (and shed status) goes with them.
    pub fn user_leave(&mut self, u: UserId) {
        if self.state.depart(u) {
            if let Some(a) = self.ledger.ap_of(u) {
                self.touch(u, Some(a));
                self.ledger.leave(u);
            }
            self.shed[u.index()] = false;
        }
    }

    /// The user jumps: candidate links re-roll from `seed`, and an
    /// association over a lost link is dropped.
    pub fn link_reroll(&mut self, u: UserId, seed: u64) {
        if self.state.is_present(u) {
            self.state.roll_jump(self.inst, u, seed, self.keep);
            if let Some(cur) = self.ledger.ap_of(u) {
                if !self.state.link_ok(u, cur) {
                    self.touch(u, Some(cur));
                    self.ledger.leave(u);
                    self.list_unplaced(u);
                }
            }
        }
    }

    /// Records that `u`'s AP changes this epoch, away from `before`.
    /// Only the first call per epoch counts: later ones find the user
    /// already recorded with its AP at epoch start.
    fn touch(&mut self, u: UserId, before: Option<ApId>) {
        if self.touched.insert(u.index()) {
            self.epoch_start[u.index()] = before;
        }
    }

    /// Puts the (present, unassociated) user `u` on the admission list.
    fn list_unplaced(&mut self, u: UserId) {
        if self.listed.insert(u.index()) {
            self.unplaced.push(u);
        }
    }

    /// Rebuilds the admission list from the whole population: at
    /// construction and after a full solve replaced every association.
    fn relist_unplaced(&mut self) {
        self.unplaced.clear();
        self.listed.clear();
        for u in self.inst.users() {
            if self.state.is_present(u) && self.ledger.ap_of(u).is_none() {
                self.list_unplaced(u);
            }
        }
    }

    /// Runs the ladder for one epoch (after its events were ingested),
    /// records metrics, and audits. `events`/`joins` are the counts the
    /// caller ingested since the previous epoch. When `latencies` is
    /// given, the admission sweep appends one wall-clock decision time
    /// (µs) per examined user — instrumentation only, never part of the
    /// deterministic report.
    pub fn run_epoch(
        &mut self,
        epoch: u64,
        events: u64,
        joins: u64,
        mut latencies: Option<&mut Vec<f64>>,
    ) -> EpochOutcome {
        let inst = self.inst;
        let cfg = self.cfg;

        // ---- choose and execute a ladder rung -----------------------
        let mut meter = WorkMeter::new(cfg.work_budget);
        let mut path = SolvePath::Idle;
        let mut degraded = false;
        let (mut rehomed, mut newly_shed, mut readmitted, mut deferred_now) =
            (0u64, 0u64, 0u64, 0u64);
        if self.records.last().is_some_and(|r| r.deferred > 0) {
            self.deferred.fill(false);
        }

        if epoch == 0 || events + joins > 0 || self.pending_work {
            path = match cfg.policy {
                LadderPolicy::SsaOnly => SolvePath::Ssa,
                LadderPolicy::Full => SolvePath::Full,
                LadderPolicy::Repair if epoch == 0 => SolvePath::Full,
                LadderPolicy::Repair => SolvePath::Repair,
            };

            if path == SolvePath::Full {
                let solved = meter.try_charge(full_cost(inst, &self.state))
                    && match full_resolve(inst, &self.state, cfg.objective) {
                        Ok(assoc) => {
                            let before =
                                std::mem::replace(&mut self.ledger, LoadLedger::new(inst, assoc));
                            for u in inst.users() {
                                self.touch(u, before.ap_of(u));
                                if self.shed[u.index()] && self.ledger.ap_of(u).is_some() {
                                    self.shed[u.index()] = false;
                                    readmitted += 1;
                                }
                            }
                            self.relist_unplaced();
                            true
                        }
                        Err(_) => false,
                    };
                if !solved {
                    path = SolvePath::Repair;
                    degraded = true;
                }
            }

            // The admission sweep: the Repair rung proper, the leftover
            // pass after a Full solve, and (starting directly on the SSA
            // rung) the SsaOnly placement sweep. Its targets are the
            // unplaced users with an allowed candidate, most-constrained
            // first, ties in id order — the same order as MNU's augment
            // pass, so an unfaulted Full epoch matches the one-shot
            // solver exactly.
            let mut on_ssa_rung = path == SolvePath::Ssa;
            let enforce_budget = cfg.objective == Objective::Mnu;
            let mut list = std::mem::take(&mut self.unplaced);
            list.sort_unstable();
            // One pass drops departed users and moves the targets to the
            // front, keeping their id order; the other members follow.
            let (mut n_targets, mut kept) = (0, 0);
            for i in 0..list.len() {
                let u = list[i];
                debug_assert!(self.ledger.ap_of(u).is_none(), "listed user {u} has an AP");
                if !self.state.is_present(u) {
                    self.listed.remove(u.index());
                    continue;
                }
                list[kept] = u;
                if inst
                    .candidate_aps(u)
                    .iter()
                    .any(|&(a, _)| self.state.allowed(u, a))
                {
                    list.swap(n_targets, kept);
                    n_targets += 1;
                }
                kept += 1;
            }
            list.truncate(kept);
            list[..n_targets].sort_by_key(|&u| inst.candidate_aps(u).len());
            #[cfg(test)]
            {
                self.last_targets = Some((
                    list[..n_targets].to_vec(),
                    oracle_targets(inst, &self.state, &self.ledger),
                ));
            }

            for &u in &list[..n_targets] {
                let decision_started = latencies.as_ref().map(|_| Instant::now());
                let was_shed = self.shed[u.index()];
                let placed;
                if !on_ssa_rung && meter.try_charge(inst.candidate_aps(u).len() as u64) {
                    placed = repair_user(&mut self.ledger, u, cfg.objective, enforce_budget, |a| {
                        self.state.allowed(u, a)
                    });
                } else {
                    if !on_ssa_rung {
                        // Fell off the repair rung mid-sweep.
                        on_ssa_rung = true;
                        degraded = true;
                    }
                    if !meter.try_charge(1) {
                        // Cannot even probe the strongest AP: defer to
                        // the next epoch, exempt from the coverage audit.
                        self.deferred[u.index()] = true;
                        deferred_now += 1;
                        degraded = true;
                        continue;
                    }
                    placed = strongest_allowed_ap(inst, u, |a| self.state.allowed(u, a))
                        .filter(|&a| {
                            !enforce_budget
                                || self
                                    .ledger
                                    .load_if_joined(u, a)
                                    .is_some_and(|l| l <= inst.budget(a))
                        })
                        .inspect(|&a| self.ledger.join(u, a));
                }
                match placed {
                    Some(_) => {
                        self.touch(u, None);
                        rehomed += 1;
                        if was_shed {
                            self.shed[u.index()] = false;
                            readmitted += 1;
                        }
                    }
                    None => {
                        if !was_shed {
                            self.shed[u.index()] = true;
                            newly_shed += 1;
                        }
                    }
                }
                if let (Some(sink), Some(t0)) = (latencies.as_deref_mut(), decision_started) {
                    sink.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }

            // Hand the unplaced back to the list.
            list.retain(|&u| {
                let unplaced = self.ledger.ap_of(u).is_none();
                if !unplaced {
                    self.listed.remove(u.index());
                }
                unplaced
            });
            self.unplaced = list;

            self.rule = if on_ssa_rung {
                CoverageRule::StrongestOnly
            } else {
                CoverageRule::Exact
            };
            self.pending_work = degraded || deferred_now > 0;
        }

        // ---- disruption metrics -------------------------------------
        let (changes, handoffs) = self.close_diff();

        // ---- audit --------------------------------------------------
        let mut violations = audit_epoch(
            &self.ledger,
            &self.state,
            cfg.objective,
            self.rule,
            &self.deferred,
            self.check_oracle,
        );
        if self.check_oracle {
            self.check_bookkeeping(&mut violations);
        }
        debug_assert!(violations.is_empty(), "epoch {epoch}: {violations:?}");
        for v in &violations {
            if self.violations_sample.len() < 8 {
                self.violations_sample.push(format!("epoch {epoch}: {v}"));
            }
        }

        self.records.push(crate::report::EpochRecord {
            epoch,
            events,
            joins,
            path,
            degraded,
            rule: self.rule.name().to_string(),
            work: meter.spent(),
            handoffs,
            rehomed,
            shed: newly_shed,
            readmitted,
            deferred: deferred_now,
            satisfied: self.satisfied,
            changed: !changes.is_empty(),
            violations: violations.len() as u64,
        });

        EpochOutcome {
            path,
            changes,
            violations,
        }
    }

    /// The epoch's association diff over the touched users, in user-id
    /// order, and its handoff count; updates `satisfied` and resets the
    /// touched set for the next epoch.
    fn close_diff(&mut self) -> (Vec<(UserId, Option<ApId>)>, u64) {
        let (epoch_start, ledger) = (&self.epoch_start, &self.ledger);
        let mut changes: Vec<(UserId, Option<ApId>)> = Vec::new();
        let mut handoffs = 0u64;
        let mut satisfied = self.satisfied;
        let mut diff = |u: UserId| {
            let (before, after) = (epoch_start[u.index()], ledger.ap_of(u));
            if before != after {
                changes.push((u, after));
                match (before, after) {
                    (Some(_), Some(_)) => handoffs += 1,
                    (None, Some(_)) => satisfied += 1,
                    (Some(_), None) => satisfied -= 1,
                    (None, None) => {}
                }
            }
        };
        self.touched.for_each(|i| diff(UserId(i as u32)));
        self.touched.clear();
        self.satisfied = satisfied;
        (changes, handoffs)
    }

    /// The oracle for the engine's own running state: reports the
    /// `satisfied` count or the admission list disagreeing with a
    /// from-scratch look at the population.
    #[cold]
    fn check_bookkeeping(&self, violations: &mut Vec<String>) {
        let recount = self.ledger.association().satisfied_count();
        if self.satisfied != recount {
            violations.push(format!(
                "running satisfied count {} drifted from the recount {recount}",
                self.satisfied
            ));
        }
        if !self.unplaced_is_exact() {
            violations.push("the admission list is not the present, unassociated set".into());
        }
    }

    /// True if the admission list holds exactly the present, unassociated
    /// users, each once, and `listed` agrees with it.
    fn unplaced_is_exact(&self) -> bool {
        let mut seen = UserBits::new(self.inst.n_users());
        self.unplaced.iter().all(|u| seen.insert(u.index()))
            && seen == self.listed
            && self.inst.users().all(|u| {
                seen.get(u.index()) == (self.state.is_present(u) && self.ledger.ap_of(u).is_none())
            })
    }

    /// The record of the most recently run epoch.
    pub fn last_record(&self) -> Option<&crate::report::EpochRecord> {
        self.records.last()
    }

    /// Closes the run: disruption windows, reconvergence, and the final
    /// report.
    pub fn finalize(self) -> ControllerOutcome {
        let report = assemble_report(ReportParts {
            objective: self.cfg.objective.to_string(),
            policy: self.cfg.policy.name().to_string(),
            epoch_us: self.cfg.epoch_us,
            records: self.records,
            violations_sample: self.violations_sample,
            final_max_load: self.ledger.max_load().as_f64(),
            final_total_load: self.ledger.total_load().as_f64(),
        });
        ControllerOutcome {
            report,
            association: self.ledger.into_association(),
        }
    }
}

/// The work-unit estimate of a full re-solve: every present user's
/// candidate list crossed with the rate grid, plus per-AP setup. Charged
/// up front — a full solve cannot be abandoned halfway.
pub(crate) fn full_cost(inst: &Instance, state: &NetworkState) -> u64 {
    let rates = inst.supported_rates().len().max(1) as u64;
    let mut cost = inst.n_aps() as u64;
    for u in inst.users() {
        if state.is_present(u) {
            cost += inst.candidate_aps(u).len() as u64 * rates;
        }
    }
    cost
}

/// Runs the configured one-shot solver over the effective instance (up
/// APs, present users, surviving links) and maps the result back to
/// original user ids. On a pristine network this is exactly the one-shot
/// solver on the original instance.
pub(crate) fn full_resolve(
    inst: &Instance,
    state: &NetworkState,
    objective: Objective,
) -> Result<Association, SolveError> {
    let solve = |i: &Instance| -> Result<Association, SolveError> {
        Ok(match objective {
            Objective::Mnu => solve_mnu(i),
            Objective::Bla => solve_bla(i)?,
            Objective::Mla => solve_mla(i)?,
        }
        .association)
    };
    if state.pristine() {
        return solve(inst);
    }
    let Some((sub, sub_to_orig)) = effective_instance(inst, state) else {
        return Ok(Association::empty(inst.n_users()));
    };
    let sub_assoc = solve(&sub)?;
    let mut assoc = Association::empty(inst.n_users());
    for (i, &orig) in sub_to_orig.iter().enumerate() {
        assoc.set(orig, sub_assoc.ap_of(UserId(i as u32)));
    }
    Ok(assoc)
}

/// Builds the solver's view of the faulted network: same sessions, same
/// APs (stable [`ApId`]s and budgets — a down AP simply has no links),
/// and only present users with at least one allowed link, re-indexed
/// densely. Returns the sub-instance and the sub→original user id map,
/// or `None` if no user is currently servable.
fn effective_instance(inst: &Instance, state: &NetworkState) -> Option<(Instance, Vec<UserId>)> {
    let mut b = InstanceBuilder::new();
    b.supported_rates(inst.supported_rates().iter().copied());
    b.rate_policy(inst.rate_policy());
    for s in inst.sessions() {
        b.add_session(inst.session_rate(s));
    }
    for a in inst.aps() {
        b.add_ap(inst.budget(a));
    }
    let mut sub_to_orig: Vec<UserId> = Vec::new();
    for u in inst.users() {
        if !state.is_present(u) {
            continue;
        }
        let links: Vec<ApId> = inst
            .candidate_aps(u)
            .iter()
            .filter(|&&(a, _)| state.allowed(u, a))
            .map(|&(a, _)| a)
            .collect();
        if links.is_empty() {
            continue;
        }
        let su = b.add_user(inst.user_session(u));
        sub_to_orig.push(u);
        for a in links {
            let rate = inst.link_rate(a, u).expect("candidate implies link");
            let signal = inst.signal(a, u).expect("candidate implies link");
            b.link_with_signal(a, su, rate, signal)
                .expect("copying a valid link cannot fail");
        }
    }
    if sub_to_orig.is_empty() {
        return None;
    }
    let sub = b
        .build()
        .expect("a sub-instance of a valid instance is valid");
    Some((sub, sub_to_orig))
}

/// The association diff as a full snapshot comparison: every user whose
/// AP in `ledger` differs from `before`, in user-id order.
#[cfg(test)]
fn snapshot_diff(before: &Association, ledger: &LoadLedger<'_>) -> Vec<(UserId, Option<ApId>)> {
    ledger
        .instance()
        .users()
        .filter_map(|u| {
            let after = ledger.ap_of(u);
            (before.ap_of(u) != after).then_some((u, after))
        })
        .collect()
}

/// The admission sweep's targets filtered from the whole population:
/// present, unassociated users with an allowed candidate, in id order,
/// then stably by candidate count.
#[cfg(test)]
fn oracle_targets(inst: &Instance, state: &NetworkState, ledger: &LoadLedger<'_>) -> Vec<UserId> {
    let mut targets: Vec<UserId> = inst
        .users()
        .filter(|&u| {
            state.is_present(u)
                && ledger.ap_of(u).is_none()
                && inst
                    .candidate_aps(u)
                    .iter()
                    .any(|&(a, _)| state.allowed(u, a))
        })
        .collect();
    targets.sort_by_key(|&u| inst.candidate_aps(u).len());
    targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_core::{Kbps, Load};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// A random small network: a few sessions and APs, users with zero
    /// to three candidate APs at random rates, and budgets tight enough
    /// that MNU sheds some users. Over 64 users, so an epoch that touches
    /// only a few sorts their ids instead of walking the bitmap.
    fn small_instance(seed: u64) -> Instance {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut b = InstanceBuilder::new();
        let sessions: Vec<_> = (0..4)
            .map(|_| b.add_session(Kbps(rng.gen_range(1_000..4_000))))
            .collect();
        let aps: Vec<_> = (0..12)
            .map(|_| b.add_ap(Load::from_ratio(rng.gen_range(2..8), 10)))
            .collect();
        let rates = [6_000, 12_000, 24_000, 54_000];
        for _ in 0..200 {
            let user = b.add_user(sessions[rng.gen_range(0..sessions.len())]);
            for _ in 0..rng.gen_range(0..4) {
                let ap = aps[rng.gen_range(0..aps.len())];
                b.link(ap, user, Kbps(rates[rng.gen_range(0..rates.len())]))
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    /// One input event: `(kind, index, seed)`, kinds 0–1 join, 2 leave,
    /// 3 AP down, 4 AP up, 5–6 reroll.
    type Op = (u8, u32, u64);

    /// Drives one engine through `epochs` and checks every epoch's diff
    /// and sweep order against the full-population oracles.
    fn drive(
        inst: &Instance,
        cfg: &ControllerConfig,
        keep: f64,
        start_present: bool,
        epochs: &[Vec<Op>],
    ) -> Result<(), TestCaseError> {
        let (n_aps, n_users) = (inst.n_aps(), inst.n_users());
        let state = if start_present {
            NetworkState::new(n_aps, n_users)
        } else {
            NetworkState::absent(n_aps, n_users)
        };
        let mut engine = EpochEngine::new(inst, cfg, keep, state);
        for (epoch, ops) in epochs.iter().enumerate() {
            let before = engine.ledger.association().clone();
            let (mut events, mut joins) = (0u64, 0u64);
            for &(kind, index, seed) in ops {
                let (u, a) = (UserId(index % n_users as u32), ApId(index % n_aps as u32));
                match kind {
                    0 | 1 => {
                        engine.user_join(u);
                        joins += 1;
                        continue;
                    }
                    2 => engine.user_leave(u),
                    3 => engine.ap_down(a),
                    4 => engine.ap_up(a),
                    _ => engine.link_reroll(u, seed),
                }
                events += 1;
            }
            let out = engine.run_epoch(epoch as u64, events, joins, None);
            prop_assert_eq!(
                &out.changes,
                &snapshot_diff(&before, &engine.ledger),
                "epoch {} diff",
                epoch
            );
            if let Some((got, want)) = engine.last_targets.take() {
                prop_assert_eq!(got, want, "epoch {} targets", epoch);
            }
            prop_assert!(engine.unplaced_is_exact(), "epoch {}", epoch);
            prop_assert_eq!(
                engine.satisfied,
                engine.ledger.association().satisfied_count()
            );
            prop_assert!(out.violations.is_empty(), "{:?}", out.violations);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn incremental_bookkeeping_matches_the_full_sweeps(
            seed in 0u64..1_000_000,
            keep_idx in 0usize..3,
            bla in proptest::bool::ANY,
            start_present in proptest::bool::ANY,
            epochs in proptest::collection::vec(
                proptest::collection::vec((0u8..7, 0u32..1_000, 0u64..1_000_000), 0..10),
                1..14,
            ),
        ) {
            let inst = small_instance(seed);
            let keep = [0.0, 0.6, 1.0][keep_idx];
            let objective = if bla { Objective::Bla } else { Objective::Mnu };
            for policy in [LadderPolicy::Repair, LadderPolicy::Full, LadderPolicy::SsaOnly] {
                for work_budget in [0, 12] {
                    let cfg = ControllerConfig {
                        objective,
                        policy,
                        n_epochs: epochs.len() as u64,
                        work_budget,
                        audit_oracle: true,
                        ..ControllerConfig::default()
                    };
                    drive(&inst, &cfg, keep, start_present, &epochs)?;
                }
            }
        }
    }
}
