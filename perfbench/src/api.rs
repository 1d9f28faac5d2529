//! The benchmark's only contact with the program: one thin function per
//! public API it calls, each wrapped in a span named after the layer.
//!
//! Workloads and checks call these and nothing else from the workspace
//! crates, so a change to an entry point (for example merging the
//! distributed runners) changes one call site here and leaves every
//! workload and metric definition as it is.

use std::path::Path;
use std::time::{Duration, Instant};

use mcast_controller::{ControllerConfig, ControllerOutcome, ReplayOutcome, ServiceStats};
use mcast_core::{
    repair_user, ApId, Association, DistributedConfig, DistributedOutcome, Instance, Load,
    LoadLedger, Objective, Solution, SolveError, UserId,
};
use mcast_events::journal::JournalError;
use mcast_events::{Event, EventKind, EventPublisher, JsonlPublisher, SinkPressure, TimeQueue};
use mcast_faults::FaultPlan;
use mcast_topology::{Scenario, ScenarioConfig};

use crate::trace::Tracer;

/// `ScenarioConfig::generate_streaming`: the topology layer.
pub fn generate(t: &Tracer, cfg: &ScenarioConfig) -> Scenario {
    let scenario = t.span("topology.generate", || cfg.generate_streaming());
    t.count("topology.links", scenario.instance.n_links() as f64);
    t.count(
        "core.instance_mb",
        scenario.instance.resident_bytes_estimate() as f64 / MIB,
    );
    scenario
}

/// `mcast_controller::lower_plan`: validates and compiles the fault plan
/// (the faults layer) into the service's event queue.
pub fn lower_plan(
    t: &Tracer,
    inst: &Instance,
    plan: &FaultPlan,
    cfg: &ControllerConfig,
) -> Result<TimeQueue<EventKind>, String> {
    t.span("faults.lower", || {
        mcast_controller::lower_plan(inst, plan, cfg)
    })
}

/// `solve_ssa`: the strongest-signal baseline.
pub fn solve_ssa(t: &Tracer, inst: &Instance) -> Solution {
    t.span("core.solve_ssa", || {
        mcast_core::solve_ssa(inst, Objective::Mnu)
    })
}

/// One budget-enforcing MNU admission pass: most-constrained users first
/// (fewest candidate APs, ties by id), each placed by `repair_user` on one
/// incremental `LoadLedger`.
pub fn admit_mnu(t: &Tracer, inst: &Instance) -> Association {
    let (assoc, calls) = t.span("core.admission", || {
        let mut order: Vec<UserId> = inst
            .users()
            .filter(|&u| !inst.candidate_aps(u).is_empty())
            .collect();
        order.sort_by_key(|&u| (inst.candidate_aps(u).len(), u.index()));
        let mut ledger = LoadLedger::fresh(inst);
        for &u in &order {
            repair_user(&mut ledger, u, Objective::Mnu, true, |_| true);
        }
        (ledger.into_association(), order.len())
    });
    t.count("core.admission_calls", calls as f64);
    t.count("core.admitted", assoc.satisfied_count() as f64);
    assoc
}

/// `Solution::evaluate`: the realized load metrics of an association.
pub fn evaluate(t: &Tracer, objective: Objective, assoc: Association, inst: &Instance) -> Solution {
    t.span("core.evaluate", || {
        Solution::evaluate(objective, assoc, inst, None)
    })
}

/// `mcast_controller::run`: the lock-step controller, fault-free.
pub fn controller_run(
    t: &Tracer,
    inst: &Instance,
    cfg: &ControllerConfig,
) -> Result<ControllerOutcome, String> {
    t.span("controller.epoch_run", || {
        mcast_controller::run(inst, &FaultPlan::none(), cfg)
    })
}

/// `solve_mnu`: MNU-C.
pub fn solve_mnu(t: &Tracer, inst: &Instance) -> Solution {
    t.span("core.solve_mnu", || mcast_core::solve_mnu(inst))
}

/// `solve_bla`: BLA-C.
pub fn solve_bla(t: &Tracer, inst: &Instance) -> Result<Solution, SolveError> {
    t.span("core.solve_bla", || mcast_core::solve_bla(inst))
}

/// `solve_mla`: MLA-C.
pub fn solve_mla(t: &Tracer, inst: &Instance) -> Result<Solution, SolveError> {
    t.span("core.solve_mla", || mcast_core::solve_mla(inst))
}

/// `run_distributed` from an empty association: the -D variants.
pub fn run_distributed(t: &Tracer, inst: &Instance, cfg: &DistributedConfig) -> DistributedOutcome {
    t.span("core.distributed", || {
        mcast_core::run_distributed(inst, cfg, Association::empty(inst.n_users()))
    })
}

/// `mcast_controller::serve`: the event-driven service loop.
pub fn serve(
    t: &Tracer,
    inst: &Instance,
    queue: &mut TimeQueue<EventKind>,
    cfg: &ControllerConfig,
    keep: f64,
    publisher: &mut dyn EventPublisher,
) -> Result<(ControllerOutcome, ServiceStats), String> {
    t.span("controller.serve", || {
        mcast_controller::serve(inst, queue, cfg, keep, publisher)
    })
}

/// `mcast_controller::replay_stream` of raw log bytes.
pub fn replay(t: &Tracer, inst: &Instance, bytes: &[u8]) -> Result<ReplayOutcome, String> {
    t.span("events.replay", || {
        mcast_controller::replay_stream(inst, bytes)
    })
}

/// Every assigned AP is one the user hears, which `LoadLedger::new`
/// would otherwise panic on.
pub fn heard_only(inst: &Instance, assoc: &Association) -> Result<(), String> {
    if assoc.len() != inst.n_users() {
        return Err(format!(
            "association covers {} users, instance has {}",
            assoc.len(),
            inst.n_users()
        ));
    }
    for (u, ap) in assoc.iter().enumerate() {
        if let Some(a) = ap {
            let u = UserId(u as u32);
            if !inst.candidate_aps(u).iter().any(|&(c, _)| c == a) {
                return Err(format!(
                    "user {u} is associated to {a}, which it cannot hear"
                ));
            }
        }
    }
    Ok(())
}

/// `LoadLedger::new`: per-AP loads of an association that passed
/// [`heard_only`], rebuilt from scratch.
pub fn ledger_loads(inst: &Instance, assoc: Association) -> Vec<Load> {
    let ledger = LoadLedger::new(inst, assoc);
    inst.aps().map(|a| ledger.ap_load(a)).collect()
}

/// [`heard_only`], then [`ledger_loads`] of a copy: for the checks.
pub fn checked_loads(inst: &Instance, assoc: &Association) -> Result<Vec<Load>, String> {
    heard_only(inst, assoc)?;
    Ok(ledger_loads(inst, assoc.clone()))
}

/// Every AP load within its budget.
pub fn within_budget(inst: &Instance, loads: &[Load]) -> Result<(), String> {
    match inst.aps().find(|&a| loads[a.index()] > inst.budget(a)) {
        Some(a) => Err(format!(
            "{a} carries load {:.4} over its budget {:.4}",
            loads[a.index()].as_f64(),
            inst.budget(a).as_f64()
        )),
        None => Ok(()),
    }
}

/// CRC-32 of associations, 4 bytes per user (`u32::MAX` for none): the
/// digest every iteration of a run must reproduce.
pub fn digest<'a>(assocs: impl IntoIterator<Item = &'a Association>) -> u32 {
    let mut bytes = Vec::new();
    for assoc in assocs {
        for a in assoc.iter() {
            let idx = a.map_or(u32::MAX, |ap: ApId| ap.index() as u32);
            bytes.extend_from_slice(&idx.to_le_bytes());
        }
    }
    mcast_events::journal::crc32(&bytes)
}

/// Bytes per MiB.
pub const MIB: f64 = (1u64 << 20) as f64;

/// The service's event sink: a `JsonlPublisher` that fsyncs at every
/// epoch close, wrapped so that the benchmark sees the stream as it is
/// written. It stamps each sync return (the epoch boundaries behind the
/// epoch latency metrics), sums the controller's own counters from the
/// `SolveCompleted`/`EpochClosed` events, and, when tracing, records one
/// span per publish and sync call.
pub struct WatchedLog<'t> {
    inner: JsonlPublisher,
    t: &'t Tracer,
    started: Instant,
    /// When each epoch's sync was called and when it returned.
    syncs: Vec<(Instant, Instant)>,
    /// Time spent in the sink's fsync calls, the closing one included.
    disk_wait: Duration,
}

impl<'t> WatchedLog<'t> {
    /// Creates (truncating) the log at `path`.
    pub fn create(t: &'t Tracer, path: &Path) -> Result<WatchedLog<'t>, String> {
        let inner = JsonlPublisher::create(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        Ok(WatchedLog {
            inner,
            t,
            started: Instant::now(),
            syncs: Vec::new(),
            disk_wait: Duration::ZERO,
        })
    }

    /// Service time of each epoch in ms: from the previous epoch's sync
    /// return (the stream header for the first) to this epoch's sync call.
    /// It covers ingest, the ladder and decision publishing; the fsync
    /// itself is left out (see `README.md`).
    pub fn epoch_ms(&self) -> Vec<f64> {
        let mut prev = self.started;
        self.syncs
            .iter()
            .map(|&(called, returned)| {
                let ms = (called - prev).as_secs_f64() * 1e3;
                prev = returned;
                ms
            })
            .collect()
    }

    /// Time spent waiting for the sink's fsync calls, s.
    pub fn disk_wait_s(&self) -> f64 {
        self.disk_wait.as_secs_f64()
    }

    /// Bytes written to the log.
    pub fn bytes(&self) -> u64 {
        self.inner.bytes_logged().unwrap_or(0)
    }
}

impl EventPublisher for WatchedLog<'_> {
    fn publish(&mut self, event: &Event) -> Result<(), JournalError> {
        match &event.kind {
            EventKind::ServiceStarted { .. } => self.started = Instant::now(),
            EventKind::SolveCompleted {
                work,
                rehomed,
                shed,
                deferred,
                ..
            } => {
                self.t.count("controller.work_units", *work as f64);
                self.t.count("controller.rehomed", *rehomed as f64);
                self.t.count("controller.shed", *shed as f64);
                self.t.count("controller.deferred", *deferred as f64);
            }
            EventKind::EpochClosed { events, joins, .. } => {
                self.t.count("controller.joins", *joins as f64);
                self.t.count("controller.fault_events", *events as f64);
            }
            _ => {}
        }
        let inner = &mut self.inner;
        self.t.span("events.publish", || inner.publish(event))
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        let called = Instant::now();
        let inner = &mut self.inner;
        let out = self.t.span("events.sync", || inner.sync());
        let returned = Instant::now();
        self.syncs.push((called, returned));
        self.disk_wait += returned - called;
        out
    }

    fn close(&mut self) -> Result<(), JournalError> {
        let called = Instant::now();
        let inner = &mut self.inner;
        let out = self.t.span("events.sync", || inner.close());
        self.disk_wait += called.elapsed();
        out
    }

    fn bytes_logged(&self) -> Option<u64> {
        self.inner.bytes_logged()
    }

    fn pressure(&self) -> SinkPressure {
        self.inner.pressure()
    }

    fn repair(&mut self) -> Result<(), JournalError> {
        self.inner.repair()
    }
}
