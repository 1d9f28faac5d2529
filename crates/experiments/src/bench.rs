//! `repro bench` — the tracked performance trajectory.
//!
//! Times each fast path against the reference implementation it replaced,
//! on pinned workloads, and writes the results as JSON so the speedups are
//! recorded across PRs instead of living in commit messages:
//!
//! * `BENCH_greedy.json` — lazy-greedy (CELF) vs full-rescan greedy for
//!   MCG, `CostSC` and SCG (the `crates/covering` fast paths), and SCG on
//!   the WLAN reduction BLA solves, where the fast path also skips the
//!   candidate budgets that replay the run before them;
//! * `BENCH_topology.json` — spatial-grid vs all-pairs scenario
//!   generation (the `crates/topology` fast path);
//! * `BENCH_distributed.json` — the incremental-ledger + delta-decision +
//!   dirty-worklist distributed engine vs the recomputing full-sweep
//!   reference (`crates/core/src/reference.rs`), over both policies and
//!   execution modes plus one large-scale scenario, the partitioned
//!   parallel engine's worker-scaling curve (1/2/4/8 workers) against the
//!   single-threaded engine on the same large workload, and the
//!   fault-tolerance recovery costs (checkpoint overhead at K ∈ {10, 50}
//!   and restore-from-checkpoint latency vs recompute-from-scratch);
//! * `BENCH_controller.json` — sustained admission throughput of the
//!   event-driven controller service on a staggered-join workload
//!   (joins/sec, p50/p95/p99 per-decision latency), with the run's
//!   event stream folded back through replay as the equivalence check,
//!   plus the median epoch time of the same service under churn (an AP
//!   outage block, jumps and departures).
//!
//! `--suite greedy|topology|distributed|controller` runs and rewrites
//! one of these reports alone; `--suite scale` writes
//! `BENCH_scale.json`.
//!
//! Every comparison also asserts the two implementations produce
//! identical outputs — a bench run doubles as an equivalence check on
//! real workloads. `--quick` shrinks the workloads (CI smoke) but keeps
//! the JSON keys identical, so consumers can rely on the schema.

use std::collections::BTreeMap;
use std::time::Instant;

use mcast_core::reduction::Reduction;
use mcast_core::{
    run_distributed, run_distributed_reference, run_partitioned, Association, DistributedConfig,
    DistributedOutcome, ExecutionMode, Policy, Start, SuperviseOptions,
};
use mcast_covering::{greedy_mcg, greedy_set_cover, reference, solve_scg, SetSystemBuilder};
use mcast_events::{load_checkpoints, PartitionCheckpointSink};
use mcast_topology::{tile_partition, Placement, ScenarioConfig};
use serde::Serialize;

use crate::Options;

/// One fast-vs-reference comparison.
#[derive(Debug, Serialize)]
pub struct BenchEntry {
    /// Human description of the pinned workload.
    pub workload: String,
    /// Reference (pre-optimization) wall-clock, milliseconds (best of 3
    /// in the greedy suite, one run elsewhere).
    pub reference_ms: f64,
    /// Fast-path wall-clock, milliseconds (best of 3).
    pub fast_ms: f64,
    /// `reference_ms / fast_ms`.
    pub speedup: f64,
    /// Whether the two implementations produced identical outputs.
    pub outputs_identical: bool,
    /// Process peak resident set size (bytes) observed when this entry
    /// finished — the high-water mark so far, not a per-entry delta.
    /// `None` where the platform does not expose it (non-Linux).
    pub peak_rss_bytes: Option<u64>,
}

impl BenchEntry {
    fn new(workload: String, reference_ms: f64, fast_ms: f64, outputs_identical: bool) -> Self {
        BenchEntry {
            workload,
            reference_ms,
            fast_ms,
            speedup: reference_ms / fast_ms,
            outputs_identical,
            peak_rss_bytes: peak_rss_bytes(),
        }
    }
}

/// Peak resident set size of this process in bytes, from `VmHWM` in
/// `/proc/self/status`. Returns `None` on platforms without procfs —
/// consumers (CI asserts, report diffs) must treat the field as
/// optional rather than a guaranteed measurement.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

/// One report file: a named set of [`BenchEntry`]s.
#[derive(Debug, Serialize)]
pub struct BenchReport {
    /// Report schema tag.
    pub schema: String,
    /// True when the workloads were shrunk by `--quick`.
    pub quick: bool,
    /// Hardware threads available on the bench host. Worker-scaling
    /// entries (`partitioned_w*`) cannot speed up beyond this; on a
    /// single-core host the scaling curve honestly records the barrier
    /// and ghost-merge overhead instead of a speedup.
    pub host_threads: usize,
    /// Entries by stable key (same keys in quick and full mode).
    pub benches: BTreeMap<String, BenchEntry>,
}

/// Hardware threads on this host, for [`BenchReport::host_threads`].
fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

fn time_best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let (mut best_ms, mut out) = time_once(&mut f);
    for _ in 1..reps {
        let (ms, o) = time_once(&mut f);
        if ms < best_ms {
            best_ms = ms;
            out = o;
        }
    }
    (best_ms, out)
}

/// The covering-layer report: lazy-greedy vs full-rescan greedy.
pub fn greedy_report(opts: &Options) -> BenchReport {
    let (n_aps, n_users) = if opts.quick { (40, 150) } else { (200, 1000) };
    let scenario = ScenarioConfig {
        n_aps,
        n_users,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(0)
    .generate();
    let red = Reduction::build(&scenario.instance);
    let system = red.system();
    let budgets = red.budgets();

    let mut benches = BTreeMap::new();

    // Both sides are timed best of 3, so neither pays a cold first run the
    // other does not.
    let (ref_ms, ref_sol) = time_best_of(3, || reference::greedy_mcg(system, budgets));
    let (fast_ms, fast_sol) = time_best_of(3, || greedy_mcg(system, budgets));
    benches.insert(
        "mcg".to_string(),
        BenchEntry::new(
            format!("MCG greedy, paper-density WLAN, {n_aps} APs / {n_users} users"),
            ref_ms,
            fast_ms,
            ref_sol.all() == fast_sol.all() && ref_sol.feasible() == fast_sol.feasible(),
        ),
    );

    let (ref_ms, ref_cover) = time_best_of(3, || greedy_set_cover_ref(system));
    let (fast_ms, fast_cover) = time_best_of(3, || greedy_set_cover(system).expect("coverable"));
    benches.insert(
        "costsc".to_string(),
        BenchEntry::new(
            format!("CostSC greedy, paper-density WLAN, {n_aps} APs / {n_users} users"),
            ref_ms,
            fast_ms,
            ref_cover == fast_cover,
        ),
    );

    // SCG multiplies the MCG cost by (candidates × iterations × 2 rules),
    // so it runs on a synthetic mid-size system rather than the full WLAN.
    let n = if opts.quick { 120 } else { 400 };
    let system = synthetic_system(n, 20);
    let candidates: Vec<u64> = vec![10, 20, 40, 80, 160, 1000];
    let (ref_ms, ref_scg) = time_best_of(3, || reference::solve_scg(&system, &candidates).unwrap());
    let (fast_ms, fast_scg) = time_best_of(3, || solve_scg(&system, &candidates).unwrap());
    benches.insert(
        "scg".to_string(),
        BenchEntry::new(
            format!("SCG over 6 candidate budgets, synthetic system, {n} elements"),
            ref_ms,
            fast_ms,
            ref_scg.cover() == fast_scg.cover()
                && ref_scg.max_group_cost() == fast_scg.max_group_cost(),
        ),
    );

    // SCG on the WLAN reduction Centralized BLA solves, with the distinct
    // set costs plus the all-sets total as candidate budgets: the workload
    // where neighbouring candidates replay each other and the fast path
    // skips them.
    let (n_aps, n_users) = if opts.quick { (40, 80) } else { (200, 400) };
    let scenario = ScenarioConfig {
        n_aps,
        n_users,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(0)
    .generate();
    let red = Reduction::build(&scenario.instance);
    let system = red.system();
    let mut candidates: Vec<mcast_core::Load> = system.sets().iter().map(|s| *s.cost()).collect();
    let all: Vec<mcast_covering::SetId> = (0..system.n_sets())
        .map(|i| mcast_covering::SetId(i as u32))
        .collect();
    candidates.push(mcast_covering::total_cost(system, &all));
    candidates.sort_unstable();
    candidates.dedup();
    let (ref_ms, ref_scg) = time_best_of(3, || reference::solve_scg(system, &candidates).unwrap());
    let (fast_ms, fast_scg) = time_best_of(3, || solve_scg(system, &candidates).unwrap());
    benches.insert(
        "scg_wlan".to_string(),
        BenchEntry::new(
            format!(
                "SCG over {} candidate budgets, paper-density WLAN, {n_aps} APs / {n_users} users",
                candidates.len()
            ),
            ref_ms,
            fast_ms,
            ref_scg.cover() == fast_scg.cover()
                && ref_scg.max_group_cost() == fast_scg.max_group_cost()
                && ref_scg.budget_used() == fast_scg.budget_used(),
        ),
    );

    BenchReport {
        schema: "mcast-bench-greedy/v2".to_string(),
        quick: opts.quick,
        host_threads: host_threads(),
        benches,
    }
}

/// The topology-layer report: spatial-grid vs all-pairs generation.
pub fn topology_report(opts: &Options) -> BenchReport {
    // 500 APs in hotspot clusters over a 14 km square — a metro-scale
    // deployment where most of the area is out of coverage. Under
    // `require_coverage`, user placement is rejection-sampled, which is
    // exactly where the all-pairs reference pays O(APs) per draw and the
    // grid pays O(1): the workload exercises the quadratic-rejection fix,
    // not just the link-building loop. Quick mode shrinks to the default
    // uniform layout.
    let cfg = if opts.quick {
        ScenarioConfig {
            n_aps: 120,
            n_users: 300,
            ..ScenarioConfig::paper_default()
        }
    } else {
        ScenarioConfig {
            n_aps: 500,
            n_users: 2000,
            width_m: 14000.0,
            height_m: 14000.0,
            ap_placement: Placement::Clustered {
                clusters: 25,
                sigma_m: 80.0,
            },
            ..ScenarioConfig::paper_default()
        }
    }
    .with_seed(0);

    let mut benches = BTreeMap::new();
    let (ref_ms, ref_sc) = time_once(|| cfg.generate_reference());
    let (fast_ms, fast_sc) = time_best_of(3, || cfg.generate());
    let identical = ref_sc.user_positions == fast_sc.user_positions
        && serde_json::to_string(&ref_sc.instance).ok()
            == serde_json::to_string(&fast_sc.instance).ok();
    benches.insert(
        "scenario_gen".to_string(),
        BenchEntry::new(
            format!(
                "scenario generation, {} APs / {} users, {:.0} m square, {} AP placement",
                cfg.n_aps,
                cfg.n_users,
                cfg.width_m,
                match cfg.ap_placement {
                    Placement::Uniform => "uniform",
                    Placement::Clustered { .. } => "25-cluster hotspot",
                    Placement::Grid { .. } => "grid",
                }
            ),
            ref_ms,
            fast_ms,
            identical,
        ),
    );

    BenchReport {
        schema: "mcast-bench-topology/v2".to_string(),
        quick: opts.quick,
        host_threads: host_threads(),
        benches,
    }
}

/// The distributed-engine report: incremental ledger + delta decision +
/// dirty worklist vs the recomputing full-sweep reference.
pub fn distributed_report(opts: &Options) -> BenchReport {
    let mut benches = BTreeMap::new();

    let (n_aps, n_users) = if opts.quick { (40, 150) } else { (200, 1000) };
    let scenario = ScenarioConfig {
        n_aps,
        n_users,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(0)
    .generate();
    let inst = &scenario.instance;
    let cases = [
        (
            "serial_min_total",
            Policy::MinTotalLoad,
            ExecutionMode::Serial,
        ),
        (
            "serial_min_max",
            Policy::MinMaxVector,
            ExecutionMode::Serial,
        ),
        (
            "simultaneous_min_total",
            Policy::MinTotalLoad,
            ExecutionMode::Simultaneous,
        ),
        (
            "simultaneous_min_max",
            Policy::MinMaxVector,
            ExecutionMode::Simultaneous,
        ),
    ];
    for (key, policy, mode) in cases {
        let config = DistributedConfig {
            policy,
            mode,
            max_rounds: 60,
            ..DistributedConfig::default()
        };
        let (ref_ms, ref_out) =
            time_once(|| run_distributed_reference(inst, &config, Association::empty(n_users)));
        let (fast_ms, fast_out) = time_best_of(3, || {
            run_distributed(inst, &config, Association::empty(n_users))
        });
        benches.insert(
            key.to_string(),
            BenchEntry::new(
                format!(
                    "distributed {policy:?} / {mode:?}, paper-density WLAN, {n_aps} APs / {n_users} users"
                ),
                ref_ms,
                fast_ms,
                outcomes_equal(&ref_out, &fast_out),
            ),
        );
    }

    // Large-scale workload at the same AP density as the paper layout
    // (~6000 m² per AP, so per-user neighborhoods stay realistic). The
    // round cap keeps the O(rounds · n · k² log k) reference inside bench
    // time; it applies to both sides, so the identity check still bites.
    let (n_aps, n_users, side_m) = if opts.quick {
        (120, 2_000, 848.0)
    } else {
        (2_000, 100_000, 3_463.0)
    };
    let scenario = ScenarioConfig {
        n_aps,
        n_users,
        width_m: side_m,
        height_m: side_m,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(0)
    .generate();
    let inst = &scenario.instance;
    let config = DistributedConfig {
        policy: Policy::MinMaxVector,
        mode: ExecutionMode::Serial,
        max_rounds: 3,
        ..DistributedConfig::default()
    };
    let (ref_ms, ref_out) =
        time_once(|| run_distributed_reference(inst, &config, Association::empty(n_users)));
    let (fast_ms, fast_out) = time_best_of(3, || {
        run_distributed(inst, &config, Association::empty(n_users))
    });
    benches.insert(
        "large_serial_min_max".to_string(),
        BenchEntry::new(
            format!(
                "distributed MinMaxVector / Serial, {n_aps} APs / {n_users} users, {side_m:.0} m square, 3 rounds"
            ),
            ref_ms,
            fast_ms,
            outcomes_equal(&ref_out, &fast_out),
        ),
    );

    // Worker-scaling curve of the partitioned engine on the same large
    // workload, Simultaneous mode (round-parallel decisions). Here the
    // "reference" is the single-threaded fast engine, so `speedup` is the
    // parallel scaling factor at each worker count — every entry must
    // still be outputs-identical (the engine is deterministic by
    // construction, see DESIGN.md §12) and recovery-free, so a caught
    // worker failure cannot pass unnoticed. On a host with fewer cores than
    // workers (`host_threads` above), factors below 1.0 are the honest
    // cost of the round barriers and halo merges, not a regression.
    let config = DistributedConfig {
        policy: Policy::MinMaxVector,
        mode: ExecutionMode::Simultaneous,
        max_rounds: 3,
        ..DistributedConfig::default()
    };
    let (single_ms, single_out) = time_best_of(3, || {
        run_distributed(inst, &config, Association::empty(n_users))
    });
    for w in [1usize, 2, 4, 8] {
        let part = tile_partition(&scenario, w);
        let (par_ms, par_out) = time_best_of(3, || {
            run_partitioned(
                inst,
                &config,
                &part,
                Start::Fresh(Association::empty(n_users)),
                &SuperviseOptions::default(),
            )
            .expect("empty association is always in range")
        });
        benches.insert(
            format!("partitioned_w{w}"),
            BenchEntry::new(
                format!(
                    "partitioned MinMaxVector / Simultaneous, {w} workers ({} boundary of {n_aps} APs), {n_users} users, 3 rounds",
                    part.boundary_ap_count()
                ),
                single_ms,
                par_ms,
                outcomes_equal(&single_out, &par_out.outcome) && par_out.recovery.clean(),
            ),
        );
    }

    // Fault-tolerance recovery costs on the same large workload, through
    // the supervised partitioned runtime. The checkpoint-overhead entries
    // invert the usual roles: `reference` is the *uncheckpointed*
    // supervised run and `fast` is the checkpointed one, so `speedup` is
    // the (slight) slowdown checkpointing costs — the acceptance bar is
    // that at K = 50 it stays within 5% of round time. `recovery_restore`
    // races restore-from-a-mid-run-checkpoint against recomputing from
    // scratch; both must land on the identical outcome.
    let config = DistributedConfig {
        policy: Policy::MinMaxVector,
        mode: ExecutionMode::Simultaneous,
        max_rounds: 12,
        ..DistributedConfig::default()
    };
    let part = tile_partition(&scenario, 4);
    let scratch = std::env::temp_dir().join(format!("mcast_bench_recovery_{}", std::process::id()));
    let _ = std::fs::create_dir_all(&scratch);
    let plain_opts = SuperviseOptions {
        audit: false,
        ..SuperviseOptions::default()
    };
    let supervised = |sup: &SuperviseOptions| {
        run_partitioned(
            inst,
            &config,
            &part,
            Start::Fresh(Association::empty(n_users)),
            sup,
        )
        .expect("empty association is always in range")
    };
    let (plain_ms, plain_out) = time_best_of(3, || supervised(&plain_opts));
    for k in [10usize, 50] {
        let path = scratch.join(format!("k{k}.ckpt"));
        let (ck_ms, ck_out) = time_best_of(3, || {
            let sink = PartitionCheckpointSink::create(&path).expect("scratch dir is writable");
            supervised(&SuperviseOptions {
                checkpoint_every: Some(k),
                sink: Some(&sink),
                audit: false,
                ..SuperviseOptions::default()
            })
        });
        benches.insert(
            format!("recovery_ckpt_k{k}"),
            BenchEntry::new(
                format!(
                    "checkpoint overhead at K={k}: supervised partitioned MinMaxVector / \
                     Simultaneous, 4 workers, {n_aps} APs / {n_users} users, 12 rounds; \
                     reference is the uncheckpointed supervised run, so speedup < 1 is \
                     the checkpointing cost"
                ),
                plain_ms,
                ck_ms,
                outcomes_equal(&plain_out.outcome, &ck_out.outcome),
            ),
        );
    }
    // Restore latency: checkpoint every round, resume from the middle
    // snapshot, and race that against recomputing the run from scratch.
    let restore_path = scratch.join("restore.ckpt");
    {
        let sink = PartitionCheckpointSink::create(&restore_path).expect("scratch dir is writable");
        supervised(&SuperviseOptions {
            checkpoint_every: Some(1),
            sink: Some(&sink),
            audit: false,
            ..SuperviseOptions::default()
        });
    }
    let cps = load_checkpoints(&restore_path).expect("checkpoint file is readable");
    let mid = cps
        .get(cps.len() / 2)
        .expect("a multi-round run writes at least one checkpoint");
    let (restore_ms, restored) = time_best_of(3, || {
        run_partitioned(inst, &config, &part, Start::Resume(mid), &plain_opts)
            .expect("a checkpoint written by this run restores")
    });
    benches.insert(
        "recovery_restore".to_string(),
        BenchEntry::new(
            format!(
                "restore latency: resume from the round-{} checkpoint vs recompute from \
                 scratch, supervised partitioned MinMaxVector / Simultaneous, 4 workers, \
                 {n_aps} APs / {n_users} users, 12 rounds",
                mid.round
            ),
            plain_ms,
            restore_ms,
            outcomes_equal(&plain_out.outcome, &restored.outcome),
        ),
    );
    let _ = std::fs::remove_dir_all(&scratch);

    BenchReport {
        schema: "mcast-bench-distributed/v4".to_string(),
        quick: opts.quick,
        host_threads: host_threads(),
        benches,
    }
}

/// Nearest-rank latency quantiles of the service's admission sweeps.
#[derive(Debug, Serialize)]
pub struct LatencyQuantiles {
    /// Median per-decision latency, µs.
    pub p50_us: f64,
    /// 95th-percentile per-decision latency, µs.
    pub p95_us: f64,
    /// 99th-percentile per-decision latency, µs.
    pub p99_us: f64,
    /// Worst per-decision latency, µs.
    pub max_us: f64,
}

/// The controller-service throughput report (`BENCH_controller.json`).
///
/// Unlike the fast-vs-reference reports there is no "before" to race:
/// the service is a new subsystem. The equivalence check is replay —
/// the published event stream must fold back into the byte-identical
/// report and final association.
#[derive(Debug, Serialize)]
pub struct ControllerBenchReport {
    /// Report schema tag.
    pub schema: String,
    /// True when the workload was shrunk by `--quick`.
    pub quick: bool,
    /// Human description of the pinned workload.
    pub workload: String,
    /// Join events admitted across the run.
    pub joins: u64,
    /// Epochs executed.
    pub epochs: u64,
    /// Events published to the stream (header and trailer included).
    pub events_published: u64,
    /// Wall-clock seconds spent in epochs that admitted joins.
    pub admission_wall_s: f64,
    /// Sustained admission throughput, joins per admission-wall second.
    pub joins_per_sec: f64,
    /// Per-user decision latency in the admission sweeps.
    pub decision_latency: LatencyQuantiles,
    /// Whether folding the event stream back reproduced the live report
    /// byte for byte (and the same final association).
    pub replay_identical: bool,
    /// The same service serving churn instead of a join storm.
    pub churned: ChurnedServeBench,
    /// Hardware threads available on the bench host.
    pub host_threads: usize,
    /// Process peak resident set size (bytes) after the run; `None`
    /// where the platform does not expose it (non-Linux).
    pub peak_rss_bytes: Option<u64>,
}

/// The churned-serve section of `BENCH_controller.json`: the service's
/// epoch time when every epoch carries faults rather than joins.
#[derive(Debug, Serialize)]
pub struct ChurnedServeBench {
    /// Human description of the pinned workload.
    pub workload: String,
    /// Epochs executed.
    pub epochs: u64,
    /// Fault events ingested (AP down/up, departures, jumps).
    pub fault_events: u64,
    /// Median wall-clock time of one epoch, sync to sync, ms.
    pub epoch_p50_ms: f64,
    /// Whether folding the event stream back reproduced the live report
    /// byte for byte (and the same final association).
    pub replay_identical: bool,
}

/// Collects the stream in memory and stamps the wall clock at every
/// durability sync — the service syncs once per closed epoch.
struct EpochClock {
    events: mcast_events::MemoryPublisher,
    syncs: Vec<Instant>,
}

impl mcast_events::EventPublisher for EpochClock {
    fn publish(
        &mut self,
        event: &mcast_events::Event,
    ) -> Result<(), mcast_events::journal::JournalError> {
        self.events.publish(event)
    }

    fn sync(&mut self) -> Result<(), mcast_events::journal::JournalError> {
        self.syncs.push(Instant::now());
        Ok(())
    }
}

/// True if folding `events` back reproduces `live` exactly.
fn replays_identically(
    inst: &mcast_core::Instance,
    live: &mcast_controller::ControllerOutcome,
    events: &[mcast_events::Event],
) -> Result<bool, String> {
    let replayed = mcast_controller::fold_events(inst, events)?;
    Ok(
        serde_json::to_string(&live.report).ok() == serde_json::to_string(&replayed.report).ok()
            && live.association == replayed.association,
    )
}

/// The controller-service report: sustained admission throughput on the
/// 2000-AP staggered-join workload (10% of users at `t = 0`, the rest
/// spread uniformly over the remaining epochs), MNU objective under the
/// repair policy, published to an in-memory event stream and verified
/// by replay.
///
/// # Errors
///
/// A service or replay failure (both correctness bugs on this
/// fault-free workload).
pub fn controller_report(opts: &Options) -> Result<ControllerBenchReport, String> {
    use mcast_controller::{serve, ControllerConfig, LadderPolicy};
    use mcast_core::Objective;
    use mcast_events::{EventKind, MemoryPublisher, TimeQueue};

    // Same AP density as the large distributed workload (~6000 m² per
    // AP), so per-user candidate neighborhoods stay realistic at scale.
    let (n_aps, n_users, side_m, n_epochs) = if opts.quick {
        (120, 2_000, 848.0, 10u64)
    } else {
        (2_000, 40_000, 3_463.0, 20u64)
    };
    let scenario = ScenarioConfig {
        n_aps,
        n_users,
        n_sessions: 8,
        width_m: side_m,
        height_m: side_m,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(0)
    .generate();
    let inst = &scenario.instance;
    let cfg = ControllerConfig {
        objective: Objective::Mnu,
        policy: LadderPolicy::Repair,
        epoch_us: 100_000,
        n_epochs,
        work_budget: 0,
        audit_oracle: false,
    };

    // Staggered joins: a 10% cohort at t = 0, the rest round-robined
    // across epochs 1..n_epochs — every epoch is an admission batch.
    let mut queue = TimeQueue::new();
    let initial = n_users / 10;
    for u in inst.users().take(initial) {
        queue.push(0, EventKind::UserJoin { user: u });
    }
    for (i, u) in inst.users().skip(initial).enumerate() {
        let epoch = 1 + (i as u64 % (n_epochs - 1));
        queue.push(epoch * cfg.epoch_us, EventKind::UserJoin { user: u });
    }

    let mut publisher = MemoryPublisher::default();
    let (live, stats) = serve(inst, &mut queue, &cfg, 1.0, &mut publisher)?;
    let replay_identical = replays_identically(inst, &live, &publisher.events)?;
    // Free this run before the churned one: the peak RSS is then either
    // run's, not their sum.
    drop((live, publisher));

    let lat = stats.decision_latency_us;
    Ok(ControllerBenchReport {
        schema: "mcast-bench-controller/v3".to_string(),
        quick: opts.quick,
        workload: format!(
            "event-driven service, staggered joins, {n_aps} APs / {n_users} users, \
             {n_epochs} epochs, MNU repair policy"
        ),
        joins: stats.joins,
        epochs: n_epochs,
        events_published: stats.events_published,
        admission_wall_s: stats.admission_wall_s,
        joins_per_sec: stats.joins_per_sec,
        decision_latency: LatencyQuantiles {
            p50_us: lat.p50,
            p95_us: lat.p95,
            p99_us: lat.p99,
            max_us: lat.max,
        },
        replay_identical,
        churned: churned_serve_bench(inst, &cfg, opts.quick)?,
        host_threads: host_threads(),
        peak_rss_bytes: peak_rss_bytes(),
    })
}

/// The churned-serve section: the same deployment with everyone joined
/// at `t = 0`, the first twentieth of the APs down from a quarter to
/// half of the horizon, and users jumping (0.2), departing (0.1) and
/// keeping each link on a jump with probability 0.6.
fn churned_serve_bench(
    inst: &mcast_core::Instance,
    cfg: &mcast_controller::ControllerConfig,
    quick: bool,
) -> Result<ChurnedServeBench, String> {
    use mcast_controller::{lower_plan, serve, ControllerConfig};
    use mcast_core::ApId;
    use mcast_faults::{ApOutage, ChurnModel, FaultPlan};

    let n_epochs = if quick { 20 } else { 200 };
    let cfg = ControllerConfig { n_epochs, ..*cfg };
    let n_down = (inst.n_aps() / 20).max(1);
    let plan = FaultPlan {
        seed: 0,
        ap_outages: (0..n_down as u32)
            .map(|a| ApOutage {
                ap: ApId(a),
                down_at_us: n_epochs / 4 * cfg.epoch_us,
                up_at_us: Some(n_epochs / 2 * cfg.epoch_us),
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
    let mut queue = lower_plan(inst, &plan, &cfg)?;
    let mut clock = EpochClock {
        events: mcast_events::MemoryPublisher::default(),
        syncs: Vec::with_capacity(n_epochs as usize),
    };
    let started = Instant::now();
    let (live, stats) = serve(inst, &mut queue, &cfg, plan.link_keep_prob(), &mut clock)?;
    let mut epoch_ms: Vec<f64> = std::iter::once(started)
        .chain(clock.syncs.iter().copied())
        .zip(clock.syncs.iter())
        .map(|(from, to)| (*to - from).as_secs_f64() * 1e3)
        .collect();
    epoch_ms.sort_by(f64::total_cmp);
    Ok(ChurnedServeBench {
        workload: format!(
            "{} APs / {} users joined at t = 0, {n_down} APs down over \
             epochs {}..{}, jump 0.2 / depart 0.1 / keep 0.6, MNU repair policy",
            inst.n_aps(),
            inst.n_users(),
            n_epochs / 4,
            n_epochs / 2
        ),
        epochs: n_epochs,
        fault_events: stats.fault_events,
        epoch_p50_ms: epoch_ms[(epoch_ms.len() - 1) / 2],
        replay_identical: replays_identically(inst, &live, &clock.events.events)?,
    })
}

/// The memory-lean scale report (`BENCH_scale.json`): one end-to-end
/// pass at million-user scale, timed stage by stage.
///
/// Unlike the fast-vs-reference reports there is no reference to race —
/// a dense `O(APs × users)` run would not fit in memory at this size,
/// which is the point. The report instead records absolute stage times,
/// the CSR instance footprint, and the process peak RSS, plus a CRC-32
/// digest of the produced associations so CI can assert the whole
/// pipeline is deterministic across runs.
#[derive(Debug, Serialize)]
pub struct ScaleBenchReport {
    /// Report schema tag.
    pub schema: String,
    /// True when the workload was shrunk by `--quick`.
    pub quick: bool,
    /// Hardware threads available on the bench host.
    pub host_threads: usize,
    /// Human description of the pinned workload.
    pub workload: String,
    /// APs in the generated deployment.
    pub n_aps: usize,
    /// Users in the generated deployment.
    pub n_users: usize,
    /// Multicast sessions.
    pub n_sessions: usize,
    /// (AP, user) links in the instance — the quantity the CSR layout
    /// is sized by, instead of `APs × users`.
    pub n_links: usize,
    /// [`mcast_core::Instance::resident_bytes_estimate`] of the
    /// generated instance.
    pub instance_bytes_est: u64,
    /// Streaming scenario generation wall-clock, milliseconds.
    pub generate_ms: f64,
    /// SSA baseline solve wall-clock, milliseconds.
    pub ssa_ms: f64,
    /// Users the SSA baseline satisfies.
    pub ssa_satisfied: u64,
    /// Wall-clock of one budget-enforcing MNU greedy admission pass
    /// (most-constrained-first [`mcast_core::repair_user`] over a fresh
    /// ledger), milliseconds.
    pub greedy_ms: f64,
    /// Users the MNU greedy pass admits within budget.
    pub greedy_satisfied: u64,
    /// Wall-clock of one controller epoch (SSA-only ladder, fault-free
    /// plan) over the full instance, milliseconds.
    pub controller_epoch_ms: f64,
    /// Users associated after the controller epoch.
    pub controller_satisfied: u64,
    /// CRC-32 over the greedy and controller associations (4 bytes per
    /// user each, little-endian AP index, `0xFFFF_FFFF` for none) — the
    /// determinism digest CI compares across two runs.
    pub association_crc32: u32,
    /// Process peak resident set size (bytes) after the run; `None`
    /// where the platform does not expose it (non-Linux).
    pub peak_rss_bytes: Option<u64>,
}

/// The scale report on the pinned workload: 20 000 APs / 2 000 000
/// users at the paper's AP density (~6000 m² per AP) in full mode,
/// 500 APs / 50 000 users in `--quick` mode.
pub fn scale_report(opts: &Options) -> ScaleBenchReport {
    // Side length keeps ~6000 m² per AP: sqrt(n_aps × 6000).
    let (n_aps, n_users, side_m) = if opts.quick {
        (500, 50_000, 1_732.05)
    } else {
        (20_000, 2_000_000, 10_954.45)
    };
    scale_report_sized(n_aps, n_users, side_m, opts.quick)
}

/// [`scale_report`] at an explicit size (unit tests shrink further).
fn scale_report_sized(n_aps: usize, n_users: usize, side_m: f64, quick: bool) -> ScaleBenchReport {
    use mcast_controller::{ControllerConfig, LadderPolicy};
    use mcast_core::{repair_user, solve_ssa, LoadLedger, Objective, UserId};
    use mcast_faults::FaultPlan;

    let cfg = ScenarioConfig {
        n_aps,
        n_users,
        width_m: side_m,
        height_m: side_m,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(0);
    let n_sessions = cfg.n_sessions;

    // Stage 1: streaming generation — users flow straight into the CSR
    // builder; no dense per-user Vec<Vec<…>> rows ever exist.
    let (generate_ms, scenario) = time_once(|| cfg.generate_streaming());
    let inst = &scenario.instance;

    // Stage 2: the SSA baseline (strongest signal, no budgets).
    let (ssa_ms, ssa) = time_once(|| solve_ssa(inst, Objective::Mnu));

    // Stage 3: one budget-enforcing MNU greedy admission pass —
    // most-constrained users (fewest candidate APs) first, each placed
    // by `repair_user` on a fresh incremental ledger.
    let (greedy_ms, greedy_assoc) = time_once(|| {
        let mut order: Vec<UserId> = inst
            .users()
            .filter(|&u| !inst.candidate_aps(u).is_empty())
            .collect();
        order.sort_by_key(|&u| (inst.candidate_aps(u).len(), u.index()));
        let mut ledger = LoadLedger::fresh(inst);
        for &u in &order {
            repair_user(&mut ledger, u, Objective::Mnu, true, |_| true);
        }
        let assoc: Vec<Option<mcast_core::ApId>> = inst.users().map(|u| ledger.ap_of(u)).collect();
        assoc
    });
    let greedy_satisfied = greedy_assoc.iter().filter(|a| a.is_some()).count() as u64;

    // Stage 4: one controller epoch over the full instance, SSA-only
    // ladder, fault-free plan — the epoch cost a live controller pays
    // to (re)build state at this scale.
    let ctl = ControllerConfig {
        objective: Objective::Mnu,
        policy: LadderPolicy::SsaOnly,
        epoch_us: 100_000,
        n_epochs: 1,
        work_budget: 0,
        audit_oracle: false,
    };
    let (controller_epoch_ms, outcome) = time_once(|| {
        mcast_controller::run(inst, &FaultPlan::none(), &ctl).expect("fault-free epoch runs")
    });
    let controller_satisfied = outcome.association.satisfied_count() as u64;

    // Determinism digest: both associations, 4 bytes per user.
    let mut digest = Vec::with_capacity(8 * inst.n_users());
    for a in greedy_assoc
        .iter()
        .copied()
        .chain(outcome.association.iter())
    {
        let idx = a.map_or(u32::MAX, |ap| ap.index() as u32);
        digest.extend_from_slice(&idx.to_le_bytes());
    }

    ScaleBenchReport {
        schema: "mcast-bench-scale/v1".to_string(),
        quick,
        host_threads: host_threads(),
        workload: format!(
            "end-to-end scale pass, {n_aps} APs / {n_users} users / {n_sessions} sessions, \
             {side_m:.0} m square (~6000 m² per AP): streaming generation, SSA baseline, \
             one MNU greedy admission pass, one SSA-only controller epoch"
        ),
        n_aps,
        n_users,
        n_sessions,
        n_links: inst.n_links(),
        instance_bytes_est: inst.resident_bytes_estimate() as u64,
        generate_ms,
        ssa_ms,
        ssa_satisfied: ssa.satisfied as u64,
        greedy_ms,
        greedy_satisfied,
        controller_epoch_ms,
        controller_satisfied,
        association_crc32: mcast_events::journal::crc32(&digest),
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Full outcome equality: the association and every counter/flag.
fn outcomes_equal(a: &DistributedOutcome, b: &DistributedOutcome) -> bool {
    a.association == b.association
        && a.rounds == b.rounds
        && a.moves == b.moves
        && a.converged == b.converged
        && a.cycle_detected == b.cycle_detected
}

/// Every name `repro bench --suite` accepts.
pub const SUITES: [&str; 6] = [
    "default",
    "scale",
    "greedy",
    "topology",
    "distributed",
    "controller",
];

/// [`SUITES`] as error messages list them: "`default`, … or `controller`".
pub fn suite_names() -> String {
    let quoted: Vec<String> = SUITES.iter().map(|s| format!("`{s}`")).collect();
    let (last, rest) = quoted.split_last().expect("SUITES is not empty");
    format!("{} or {last}", rest.join(", "))
}

/// Runs the selected suite. The default suite writes
/// `BENCH_greedy.json` / `BENCH_topology.json` /
/// `BENCH_distributed.json` / `BENCH_controller.json` into the current
/// directory; `--suite greedy|topology|distributed|controller` writes
/// that one report, and `--suite scale` writes `BENCH_scale.json`.
/// Returns a printable summary.
///
/// # Errors
///
/// Returns an error string when a report file cannot be written, an
/// equivalence check failed, or the suite name is unknown.
pub fn run(opts: &Options) -> Result<String, String> {
    let suites: &[&str] = match opts.bench_suite.as_deref() {
        None | Some("default") => &SUITES[2..],
        Some("scale") => return run_scale(opts),
        Some(name) => match SUITES.iter().position(|&s| s == name) {
            Some(i) => &SUITES[i..=i],
            None => {
                return Err(format!(
                    "unknown bench suite '{name}' (expected {})",
                    suite_names()
                ))
            }
        },
    };
    let mut out = String::new();
    let mut all_identical = true;
    for &suite in suites {
        all_identical &= match suite {
            "greedy" => write_bench_report("BENCH_greedy.json", &greedy_report(opts), &mut out)?,
            "topology" => {
                write_bench_report("BENCH_topology.json", &topology_report(opts), &mut out)?
            }
            "distributed" => write_bench_report(
                "BENCH_distributed.json",
                &distributed_report(opts),
                &mut out,
            )?,
            _ => write_controller_report(opts, &mut out)?,
        };
    }
    if all_identical {
        Ok(out)
    } else {
        Err(format!(
            "fast path diverged from reference:\n{out}\nThis is a correctness bug — see crates/covering/src/reference.rs"
        ))
    }
}

/// Serializes `report` to `path` atomically.
fn write_json(path: &str, report: &impl Serialize) -> Result<(), String> {
    let json =
        serde_json::to_string_pretty(report).map_err(|e| format!("serialize {path}: {e}"))?;
    crate::journal::atomic_write(std::path::Path::new(path), json.as_bytes())
        .map_err(|e| format!("write {path}: {e}"))
}

/// The scale suite: writes `BENCH_scale.json`.
fn run_scale(opts: &Options) -> Result<String, String> {
    let path = "BENCH_scale.json";
    let report = scale_report(opts);
    write_json(path, &report)?;
    let rss = report.peak_rss_bytes.map_or("n/a".to_string(), |b| {
        format!("{:.0} MiB", b as f64 / (1 << 20) as f64)
    });
    Ok(format!(
        "{path}:\n  {} APs / {} users / {} links (~{:.1} MiB instance)\n  \
         generate {:>9.1} ms\n  ssa      {:>9.1} ms  ({} satisfied)\n  \
         greedy   {:>9.1} ms  ({} satisfied)\n  epoch    {:>9.1} ms  ({} satisfied)\n  \
         peak RSS {rss}, association crc32 {:08x}\n",
        report.n_aps,
        report.n_users,
        report.n_links,
        report.instance_bytes_est as f64 / (1 << 20) as f64,
        report.generate_ms,
        report.ssa_ms,
        report.ssa_satisfied,
        report.greedy_ms,
        report.greedy_satisfied,
        report.controller_epoch_ms,
        report.controller_satisfied,
        report.association_crc32,
    ))
}

/// Writes one fast-vs-reference report and appends its summary to
/// `out`. Returns whether every fast path matched its reference.
fn write_bench_report(path: &str, report: &BenchReport, out: &mut String) -> Result<bool, String> {
    write_json(path, report)?;
    out.push_str(&format!("{path}:\n"));
    for (key, b) in &report.benches {
        out.push_str(&format!(
            "  {key:<14} {:>9.1} ms -> {:>8.1} ms  ({:>5.1}x, outputs {})\n",
            b.reference_ms,
            b.fast_ms,
            b.speedup,
            if b.outputs_identical {
                "identical"
            } else {
                "DIFFER"
            }
        ));
    }
    Ok(report.benches.values().all(|b| b.outputs_identical))
}

/// Writes `BENCH_controller.json` and appends its summary to `out`.
/// Returns whether both event streams replayed identically.
fn write_controller_report(opts: &Options, out: &mut String) -> Result<bool, String> {
    let path = "BENCH_controller.json";
    let report = controller_report(opts)?;
    write_json(path, &report)?;
    let replay = |identical: bool| if identical { "identical" } else { "DIFFERS" };
    out.push_str(&format!(
        "{path}:\n  {:<14} {:>9.0} joins/s  (p50 {:.1} µs, p95 {:.1} µs, \
         p99 {:.1} µs, replay {})\n  {:<14} {:>9.2} ms/epoch p50  (replay {})\n",
        "serve",
        report.joins_per_sec,
        report.decision_latency.p50_us,
        report.decision_latency.p95_us,
        report.decision_latency.p99_us,
        replay(report.replay_identical),
        "serve_churned",
        report.churned.epoch_p50_ms,
        replay(report.churned.replay_identical),
    ));
    Ok(report.replay_identical && report.churned.replay_identical)
}

fn greedy_set_cover_ref(
    system: &mcast_covering::SetSystem<mcast_core::Load>,
) -> mcast_covering::Cover<mcast_core::Load> {
    reference::greedy_set_cover(system).expect("coverable")
}

/// Deterministic synthetic system, mirroring `benches/covering.rs`.
fn synthetic_system(n: usize, g: u32) -> mcast_covering::SetSystem<u64> {
    let mut b = SetSystemBuilder::<u64>::new(n);
    for e in 0..n {
        b.push_set([e as u32], 3 + (e as u64 % 5), (e as u32) % g)
            .unwrap();
    }
    for i in 0..n {
        let members: Vec<u32> = (0..n as u32)
            .filter(|&e| (e as usize * 7 + i * 13).is_multiple_of(5))
            .collect();
        if !members.is_empty() {
            b.push_set(members, 2 + (i as u64 % 7), (i as u32) % g)
                .unwrap();
        }
    }
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_reports_have_stable_keys() {
        let opts = Options {
            quick: true,
            ..Options::default()
        };
        let g = greedy_report(&opts);
        assert!(["mcg", "costsc", "scg", "scg_wlan"]
            .iter()
            .all(|k| g.benches.contains_key(*k)));
        assert!(g.benches.values().all(|b| b.outputs_identical));
        let t = topology_report(&opts);
        assert!(t.benches.contains_key("scenario_gen"));
        assert!(t.benches.values().all(|b| b.outputs_identical));
        let d = distributed_report(&opts);
        assert_eq!(d.schema, "mcast-bench-distributed/v4");
        assert!(d.host_threads >= 1);
        assert!([
            "serial_min_total",
            "serial_min_max",
            "simultaneous_min_total",
            "simultaneous_min_max",
            "large_serial_min_max",
            "partitioned_w1",
            "partitioned_w2",
            "partitioned_w4",
            "partitioned_w8",
            "recovery_ckpt_k10",
            "recovery_ckpt_k50",
            "recovery_restore",
        ]
        .iter()
        .all(|k| d.benches.contains_key(*k)));
        assert!(d.benches.values().all(|b| b.outputs_identical));
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss.expect("procfs present") > 0);
        }
    }

    #[test]
    fn scale_report_is_deterministic_and_well_formed() {
        // Unit-test size: the real quick/full sizes run via `repro bench
        // --suite scale` (debug-build tests would crawl at 50k users).
        let a = scale_report_sized(60, 600, 600.0, true);
        let b = scale_report_sized(60, 600, 600.0, true);
        assert_eq!(a.schema, "mcast-bench-scale/v1");
        assert_eq!(a.n_links, b.n_links);
        assert_eq!(a.ssa_satisfied, b.ssa_satisfied);
        assert_eq!(a.greedy_satisfied, b.greedy_satisfied);
        assert_eq!(a.controller_satisfied, b.controller_satisfied);
        assert_eq!(
            a.association_crc32, b.association_crc32,
            "the scale pipeline must be deterministic"
        );
        assert!(a.n_links > 0);
        assert!(a.instance_bytes_est > 0);
        assert!(a.greedy_satisfied > 0, "greedy admits someone");
        assert!(
            a.controller_satisfied > 0,
            "controller epoch associates someone"
        );
        assert!(a.greedy_satisfied <= a.n_users as u64 && a.ssa_satisfied <= a.n_users as u64);
    }

    #[test]
    fn quick_controller_bench_admits_everyone_and_replays() {
        let opts = Options {
            quick: true,
            ..Options::default()
        };
        let c = controller_report(&opts).expect("service runs");
        assert_eq!(c.schema, "mcast-bench-controller/v3");
        assert_eq!(c.joins, 2_000, "every staggered join is admitted");
        assert!(c.replay_identical, "event stream must fold back exactly");
        assert!(c.host_threads >= 1);
        assert_eq!(c.churned.epochs, 20);
        assert!(c.churned.fault_events > 0, "the churned run carries faults");
        assert!(c.churned.epoch_p50_ms > 0.0);
        assert!(c.churned.replay_identical, "churned stream must fold back");
        assert!(c.joins_per_sec > 0.0);
        assert!(c.decision_latency.p50_us <= c.decision_latency.p99_us);
        assert!(c.decision_latency.p99_us <= c.decision_latency.max_us);
    }
}
