//! `paper_sweep`: the paper's §7 batch (Figures 9–11). 200 APs over
//! 1.2 km², 5 sessions, budget 0.9, a user sweep of 50–400. Each instance
//! runs SSA, MNU-C, BLA-C and MLA-C, plus serial `run_distributed` under
//! both policies (the -D variants).
//!
//! The unit of service is one instance through all six algorithms.

use std::path::Path;
use std::time::Instant;

use mcast_core::{
    Association, DistributedConfig, DistributedOutcome, ExecutionMode, Load, Policy, Solution,
};
use mcast_topology::{Scenario, ScenarioConfig};

use super::{sub_seed, Size, Summary, Workload};
use crate::api;
use crate::trace::Tracer;

/// The workload.
pub struct PaperSweep;

/// The generated instances.
pub struct Setup {
    scenarios: Vec<Scenario>,
}

/// One instance's answers.
pub struct Answers {
    /// SSA baseline.
    pub ssa: Solution,
    /// MNU-C.
    pub mnu: Solution,
    /// BLA-C.
    pub bla: Solution,
    /// MLA-C.
    pub mla: Solution,
    /// MLA-D (`Policy::MinTotalLoad`).
    pub d_total: DistributedOutcome,
    /// BLA-D (`Policy::MinMaxVector`).
    pub d_max: DistributedOutcome,
    /// Wall time of the six solves, ms.
    pub ms: f64,
}

/// One instance's six associations, checked and copied for the ledger.
pub type Staged = [Result<Association, String>; 6];

/// Per-AP loads of the six associations, rebuilt by a ledger.
pub type Loads = [Result<Vec<Load>, String>; 6];

impl Answers {
    /// The six associations, in the order SSA, MNU-C, BLA-C, MLA-C,
    /// MLA-D, BLA-D.
    fn associations(&self) -> [&Association; 6] {
        [
            &self.ssa.association,
            &self.mnu.association,
            &self.bla.association,
            &self.mla.association,
            &self.d_total.association,
            &self.d_max.association,
        ]
    }
}

/// Users per instance, swept; instances per sweep point.
fn shape(size: Size) -> (Vec<usize>, usize) {
    match size {
        Size::Full => ((1..=8).map(|k| 50 * k).collect(), 4),
        Size::Tiny => (vec![30, 60], 1),
    }
}

fn d_config(policy: Policy) -> DistributedConfig {
    DistributedConfig {
        policy,
        mode: ExecutionMode::Serial,
        ..DistributedConfig::default()
    }
}

impl Workload for PaperSweep {
    type Setup = Setup;
    type Output = Vec<Answers>;
    type Staged = Vec<Staged>;
    type Recovered = Vec<Loads>;

    fn setup(&self, seed: u64, size: Size, _dir: &Path, t: &Tracer) -> Result<Setup, String> {
        let (users, per_point) = shape(size);
        let mut scenarios = Vec::new();
        for (i, &n_users) in users.iter().enumerate() {
            for j in 0..per_point {
                let k = (i * per_point + j) as u64;
                let cfg = ScenarioConfig {
                    n_users,
                    ..ScenarioConfig::paper_default()
                }
                .with_seed(sub_seed(seed, k));
                scenarios.push(api::generate(t, &cfg));
            }
        }
        Ok(Setup { scenarios })
    }

    fn measure(&self, s: &mut Setup, t: &Tracer) -> Result<Vec<Answers>, String> {
        let mut out = Vec::with_capacity(s.scenarios.len());
        for sc in &s.scenarios {
            let inst = &sc.instance;
            let t0 = Instant::now();
            let ssa = api::solve_ssa(t, inst);
            let mnu = api::solve_mnu(t, inst);
            let bla = api::solve_bla(t, inst).map_err(|e| format!("BLA-C: {e}"))?;
            let mla = api::solve_mla(t, inst).map_err(|e| format!("MLA-C: {e}"))?;
            let d_total = api::run_distributed(t, inst, &d_config(Policy::MinTotalLoad));
            let d_max = api::run_distributed(t, inst, &d_config(Policy::MinMaxVector));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            t.count("core.rounds", (d_total.rounds + d_max.rounds) as f64);
            t.count("core.moves", (d_total.moves + d_max.moves) as f64);
            out.push(Answers {
                ssa,
                mnu,
                bla,
                mla,
                d_total,
                d_max,
                ms,
            });
        }
        Ok(out)
    }

    fn stage(&self, s: &Setup, o: &Vec<Answers>) -> Vec<Staged> {
        s.scenarios
            .iter()
            .zip(o)
            .map(|(sc, a)| {
                a.associations()
                    .map(|assoc| api::heard_only(&sc.instance, assoc).map(|()| assoc.clone()))
            })
            .collect()
    }

    fn recover(&self, s: &Setup, staged: Vec<Staged>, _t: &Tracer) -> Vec<Loads> {
        s.scenarios
            .iter()
            .zip(staged)
            .map(|(sc, assocs)| {
                assocs.map(|assoc| assoc.map(|a| api::ledger_loads(&sc.instance, a)))
            })
            .collect()
    }

    fn check(&self, s: &Setup, o: &Vec<Answers>, r: &Vec<Loads>) -> Result<(), String> {
        if o.len() != s.scenarios.len() || r.len() != s.scenarios.len() {
            return Err("an instance has no answer".to_string());
        }
        for (i, ((sc, a), loads)) in s.scenarios.iter().zip(o).zip(r).enumerate() {
            let inst = &sc.instance;
            let n = inst.n_users();
            let at = |e: String| format!("instance {i} ({n} users): {e}");
            let [ssa, mnu, bla, mla, d_total, d_max] = loads;
            for (name, loads) in [("SSA", ssa), ("MNU-C", mnu)] {
                let loads = loads.as_ref().map_err(|e| at(format!("{name}: {e}")))?;
                api::within_budget(inst, loads).map_err(|e| at(format!("{name}: {e}")))?;
            }
            for (name, sol, loads) in [("BLA-C", &a.bla, bla), ("MLA-C", &a.mla, mla)] {
                let loads = loads.as_ref().map_err(|e| at(format!("{name}: {e}")))?;
                let served = sol.association.satisfied_count();
                if served != n {
                    return Err(at(format!("{name} serves {served} users, not all")));
                }
                let max = loads.iter().copied().max().unwrap_or(Load::ZERO);
                let total: Load = loads.iter().copied().sum();
                if sol.max_load != max || sol.total_load != total {
                    return Err(at(format!(
                        "{name} reports max {:.4} / total {:.4}, the ledger {:.4} / {:.4}",
                        sol.max_load.as_f64(),
                        sol.total_load.as_f64(),
                        max.as_f64(),
                        total.as_f64()
                    )));
                }
            }
            for (name, loads) in [("MLA-D", d_total), ("BLA-D", d_max)] {
                loads.as_ref().map_err(|e| at(format!("{name}: {e}")))?;
            }
        }
        Ok(())
    }

    fn summarize(&self, _s: &Setup, o: &Vec<Answers>, _r: &Vec<Loads>) -> Summary {
        let k = o.len().max(1) as f64;
        let mean = |f: &dyn Fn(&Answers) -> f64| o.iter().map(f).sum::<f64>() / k;
        Summary {
            epoch_ms: o.iter().map(|a| a.ms).collect(),
            failed: 0,
            served_frac: mean(&|a| a.mnu.satisfied as f64 / a.mnu.association.len() as f64),
            max_load: mean(&|a| a.bla.max_load.as_f64()),
            total_load: mean(&|a| a.mla.total_load.as_f64()),
            digest: api::digest(o.iter().flat_map(Answers::associations)),
            disk_wait_s: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_core::UserId;

    #[test]
    fn honest_output_passes_and_a_flipped_entry_fails() {
        let t = Tracer::new(false, 0);
        let mut s = PaperSweep.setup(5, Size::Tiny, Path::new("."), &t).unwrap();
        let mut o = PaperSweep.measure(&mut s, &t).unwrap();
        let recover = |o: &Vec<Answers>| PaperSweep.recover(&s, PaperSweep.stage(&s, o), &t);
        let r = recover(&o);
        PaperSweep.check(&s, &o, &r).unwrap();

        // BLA-C leaves one user unserved.
        o[0].bla.association.set(UserId(0), None);
        let r = recover(&o);
        assert!(PaperSweep.check(&s, &o, &r).is_err());
    }
}
