//! `metro_cold`: cold start of a metro controller at the paper's AP
//! density. Generate the deployment (setup), then SSA, one
//! most-constrained-first MNU admission pass, `Solution::evaluate` of the
//! admitted association and one SSA-only controller epoch (measured).
//!
//! The unit of service is the cold start, one per iteration; its "epoch"
//! sample is the controller epoch's wall time.

use std::path::Path;
use std::time::Instant;

use mcast_controller::{ControllerConfig, ControllerOutcome, LadderPolicy};
use mcast_core::{Association, Load, Objective, Solution};
use mcast_topology::{Scenario, ScenarioConfig};

use super::{paper_density_side_m, Size, Summary, Workload};
use crate::api;
use crate::trace::Tracer;

/// The workload.
pub struct MetroCold;

/// The generated deployment.
pub struct Setup {
    scenario: Scenario,
}

/// What the cold start produced.
pub struct Output {
    /// SSA baseline.
    pub ssa: Solution,
    /// The MNU admission pass, evaluated.
    pub admitted: Solution,
    /// The SSA-only controller epoch.
    pub epoch: ControllerOutcome,
    /// Its wall time, ms.
    pub epoch_ms: f64,
}

fn shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (600, 60_000),
        Size::Tiny => (40, 800),
    }
}

fn epoch_config() -> ControllerConfig {
    ControllerConfig {
        objective: Objective::Mnu,
        policy: LadderPolicy::SsaOnly,
        epoch_us: 100_000,
        n_epochs: 1,
        work_budget: 0,
        audit_oracle: false,
    }
}

impl Workload for MetroCold {
    type Setup = Setup;
    type Output = Output;
    type Staged = Result<Association, String>;
    type Recovered = Result<Vec<Load>, String>;

    fn setup(&self, seed: u64, size: Size, _dir: &Path, t: &Tracer) -> Result<Setup, String> {
        let (n_aps, n_users) = shape(size);
        let side = paper_density_side_m(n_aps);
        let cfg = ScenarioConfig {
            n_aps,
            n_users,
            width_m: side,
            height_m: side,
            ..ScenarioConfig::paper_default()
        }
        .with_seed(seed);
        Ok(Setup {
            scenario: api::generate(t, &cfg),
        })
    }

    fn measure(&self, s: &mut Setup, t: &Tracer) -> Result<Output, String> {
        let inst = &s.scenario.instance;
        let ssa = api::solve_ssa(t, inst);
        let assoc = api::admit_mnu(t, inst);
        let admitted = api::evaluate(t, Objective::Mnu, assoc, inst);
        let t0 = Instant::now();
        let epoch = api::controller_run(t, inst, &epoch_config())?;
        let epoch_ms = t0.elapsed().as_secs_f64() * 1e3;
        Ok(Output {
            ssa,
            admitted,
            epoch,
            epoch_ms,
        })
    }

    fn stage(&self, s: &Setup, o: &Output) -> Result<Association, String> {
        let assoc = &o.admitted.association;
        api::heard_only(&s.scenario.instance, assoc)?;
        Ok(assoc.clone())
    }

    fn recover(
        &self,
        s: &Setup,
        staged: Result<Association, String>,
        _t: &Tracer,
    ) -> Result<Vec<Load>, String> {
        staged.map(|assoc| api::ledger_loads(&s.scenario.instance, assoc))
    }

    fn check(
        &self,
        s: &Setup,
        o: &Output,
        loads: &Result<Vec<Load>, String>,
    ) -> Result<(), String> {
        let inst = &s.scenario.instance;
        let loads = loads.as_ref().map_err(|e| format!("admission: {e}"))?;
        let n = inst.n_users();
        // The admitted association: heard APs only, every AP within
        // budget, and `evaluate` agrees with the independently rebuilt
        // ledger.
        api::within_budget(inst, loads).map_err(|e| format!("admission: {e}"))?;
        let a = &o.admitted;
        let total: Load = loads.iter().copied().sum();
        let max = loads.iter().copied().max().unwrap_or(Load::ZERO);
        if a.satisfied != a.association.satisfied_count()
            || a.total_load != total
            || a.max_load != max
        {
            return Err(format!(
                "admission: evaluate reports {} served / total {:.4} / max {:.4}, the ledger \
                 {} / {:.4} / {:.4}",
                a.satisfied,
                a.total_load.as_f64(),
                a.max_load.as_f64(),
                a.association.satisfied_count(),
                total.as_f64(),
                max.as_f64()
            ));
        }
        if a.satisfied == 0 || a.satisfied > n {
            return Err(format!("admission served {} of {n} users", a.satisfied));
        }
        // SSA and the controller epoch: heard APs only, someone served.
        api::within_budget(inst, &api::checked_loads(inst, &o.ssa.association)?)
            .map_err(|e| format!("ssa: {e}"))?;
        if o.ssa.satisfied == 0 {
            return Err("ssa served nobody".to_string());
        }
        api::checked_loads(inst, &o.epoch.association).map_err(|e| format!("epoch: {e}"))?;
        let r = &o.epoch.report;
        if r.invariant_violations != 0 || r.final_satisfied == 0 {
            return Err(format!(
                "epoch: {} invariant violations, {} served",
                r.invariant_violations, r.final_satisfied
            ));
        }
        Ok(())
    }

    fn summarize(&self, s: &Setup, o: &Output, _loads: &Result<Vec<Load>, String>) -> Summary {
        let n = s.scenario.instance.n_users() as f64;
        Summary {
            epoch_ms: vec![o.epoch_ms],
            failed: 0,
            served_frac: o.admitted.satisfied as f64 / n,
            max_load: o.admitted.max_load.as_f64(),
            total_load: o.admitted.total_load.as_f64(),
            digest: api::digest([
                &o.ssa.association,
                &o.admitted.association,
                &o.epoch.association,
            ]),
            disk_wait_s: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_core::{ApId, UserId};

    fn recover(s: &Setup, o: &Output) -> Result<Vec<Load>, String> {
        MetroCold.recover(s, MetroCold.stage(s, o), &Tracer::new(false, 0))
    }

    fn tiny() -> (Setup, Output, Result<Vec<Load>, String>) {
        let t = Tracer::new(false, 0);
        let mut s = MetroCold.setup(3, Size::Tiny, Path::new("."), &t).unwrap();
        let o = MetroCold.measure(&mut s, &t).unwrap();
        let r = recover(&s, &o);
        (s, o, r)
    }

    #[test]
    fn honest_output_passes() {
        let (s, o, r) = tiny();
        MetroCold.check(&s, &o, &r).unwrap();
    }

    #[test]
    fn flipped_admission_entry_trips_the_check() {
        let (s, mut o, _) = tiny();
        let inst = &s.scenario.instance;
        // Drop one admitted user: evaluate's count no longer matches.
        let u = (0..inst.n_users() as u32)
            .map(UserId)
            .find(|&u| o.admitted.association.ap_of(u).is_some())
            .unwrap();
        let mut dropped = o.admitted.association.clone();
        dropped.set(u, None);
        let honest = std::mem::replace(&mut o.admitted.association, dropped);
        let r = recover(&s, &o);
        assert!(MetroCold.check(&s, &o, &r).is_err());
        // Move one user to an AP it cannot hear.
        o.admitted.association = honest;
        let far = inst
            .aps()
            .find(|&a| !inst.candidate_aps(u).iter().any(|&(c, _)| c == a))
            .unwrap_or(ApId(0));
        o.admitted.association.set(u, Some(far));
        let r = recover(&s, &o);
        assert!(MetroCold.check(&s, &o, &r).is_err());
    }
}
