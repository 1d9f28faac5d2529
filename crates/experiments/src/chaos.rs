//! `repro chaos` — fault-injected partitioned runs proving exact
//! recovery.
//!
//! The command runs the supervised partitioned engine
//! ([`mcast_core::run_partitioned`]) on a pinned scenario
//! under a seeded [`ChaosPlan`] — worker panics, dropped/duplicated/
//! delayed halo replies, torn checkpoint writes — while writing recovery
//! snapshots to `<out>/chaos_<mode>.ckpt` (crc32-framed, the journal
//! format). It then proves the robustness contract end to end: the
//! recovered outcome **and the full decision trace** must be
//! byte-identical to the fault-free single-threaded oracle
//! ([`mcast_core::run_distributed_traced`]); any divergence is a hard
//! error.
//!
//! `--resume` is the crash-recovery path: it loads the latest whole
//! checkpoint frame (torn tails truncated), resumes the run from it
//! ([`mcast_core::Start::Resume`]), and holds the
//! resumed run to the *same* identity bar. `<out>/chaos.json` contains
//! only deterministic fields, so a killed-and-resumed run diffs clean
//! against an uninterrupted one.

use std::collections::BTreeMap;
use std::time::Duration;

use mcast_core::{
    run_distributed_traced, run_partitioned, Association, ChaosPlan, DistributedConfig,
    ExecutionMode, Policy, Start, SuperviseOptions,
};
use mcast_events::{load_latest_checkpoint, PartitionCheckpointSink};
use mcast_topology::{tile_partition, ScenarioConfig};
use serde::Serialize;

use crate::cli::CliError;
use crate::journal::atomic_write;
use crate::Options;

/// Schema tag of `chaos.json`.
pub const CHAOS_SCHEMA: &str = "mcast-chaos/v1";

/// Default checkpoint cadence (rounds) when `--checkpoint-every` is not
/// given: every round, so a kill at any point loses at most one round.
const DEFAULT_CHECKPOINT_EVERY: usize = 1;

/// One supervised case of the chaos run, as serialized into
/// `chaos.json`. Every field is a pure function of the scenario, the
/// config, and the chaos seed — never of wall-clock, kill timing, or
/// whether the run was resumed — so the file is diffable across
/// interrupted and uninterrupted runs.
#[derive(Debug, Serialize)]
struct CaseJson {
    /// Execution mode of the case.
    mode: String,
    /// Rounds the engine ran.
    rounds: usize,
    /// Total accepted moves.
    moves: usize,
    /// Whether the run converged inside the round cap.
    converged: bool,
    /// Whether a decision cycle was detected.
    cycle_detected: bool,
    /// Users satisfied by the final association.
    satisfied: usize,
    /// Length of the decision trace.
    trace_moves: usize,
    /// The recovered run matched the fault-free oracle byte for byte
    /// (association, counters, and full decision trace).
    outputs_identical: bool,
}

#[derive(Debug, Serialize)]
struct ChaosJson {
    schema: String,
    quick: bool,
    chaos_seed: u64,
    n_aps: usize,
    n_users: usize,
    n_sessions: usize,
    workers: usize,
    max_rounds: usize,
    checkpoint_every: usize,
    cases: BTreeMap<String, CaseJson>,
}

/// The pinned chaos workload. Quick mode is smoke-scale and exercises
/// both execution modes; the full shape is sized so the supervised run
/// takes long enough for CI's kill -9 to land mid-run, and sticks to
/// Simultaneous (the mode with per-tile quarantine recovery).
struct ChaosShape {
    n_aps: usize,
    n_users: usize,
    n_sessions: usize,
    side_m: f64,
    workers: usize,
    max_rounds: usize,
    modes: &'static [(&'static str, ExecutionMode)],
}

fn pinned_shape(quick: bool) -> ChaosShape {
    if quick {
        ChaosShape {
            n_aps: 24,
            n_users: 96,
            n_sessions: 3,
            side_m: 380.0,
            workers: 4,
            max_rounds: 30,
            modes: &[
                ("serial", ExecutionMode::Serial),
                ("simultaneous", ExecutionMode::Simultaneous),
            ],
        }
    } else {
        // Paper AP density (~6000 m² per AP), like the bench workloads.
        ChaosShape {
            n_aps: 600,
            n_users: 24_000,
            n_sessions: 5,
            side_m: 1_897.0,
            workers: 8,
            max_rounds: 10,
            modes: &[("simultaneous", ExecutionMode::Simultaneous)],
        }
    }
}

/// Runs `repro chaos`: the fault-injected supervised engine on the
/// pinned scenario, checkpointing to `<out>/chaos_<mode>.ckpt` and
/// writing the deterministic `<out>/chaos.json`. With `--resume`, the
/// run restarts from the latest whole checkpoint frame instead of from
/// scratch.
///
/// # Errors
///
/// I/O failures and checkpoint corruption the framing cannot recover
/// from surface as [`CliError::IoDecode`]; a recovered run that is
/// **not** byte-identical to the fault-free oracle — the point of the
/// command — is [`CliError::Divergence`].
pub fn run_chaos(opts: &Options) -> Result<String, CliError> {
    let io_err = |m: String| CliError::IoDecode(m);
    let shape = pinned_shape(opts.quick);
    let seed = opts.chaos_seed.unwrap_or(0);
    let checkpoint_every = opts.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY);
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| io_err(format!("cannot create {}: {e}", opts.out_dir.display())))?;

    let scenario = ScenarioConfig {
        n_aps: shape.n_aps,
        n_users: shape.n_users,
        n_sessions: shape.n_sessions,
        width_m: shape.side_m,
        height_m: shape.side_m,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(0)
    .generate();
    let inst = &scenario.instance;
    let part = tile_partition(&scenario, shape.workers);

    let mut cases = BTreeMap::new();
    let mut summary = String::new();
    for &(key, mode) in shape.modes {
        let config = DistributedConfig {
            policy: Policy::MinMaxVector,
            mode,
            max_rounds: shape.max_rounds,
            ..DistributedConfig::default()
        };
        let initial = Association::empty(inst.n_users());

        // The fault-free oracle: the single-threaded engine's outcome
        // and decision trace ARE the specification of the recovered run.
        let (oracle, oracle_trace) = run_distributed_traced(inst, &config, initial.clone());

        // Faults land only in rounds the run executes, so every seed
        // injects something.
        let plan = ChaosPlan::seeded(seed, shape.workers, oracle.rounds.max(1) as u32);

        let ckpt_path = opts.out_dir.join(format!("chaos_{key}.ckpt"));
        let (sink, restored) = if opts.resume {
            let restored = load_latest_checkpoint(&ckpt_path).map_err(|e| io_err(e.to_string()))?;
            let sink = PartitionCheckpointSink::open_append(&ckpt_path)
                .map_err(|e| io_err(e.to_string()))?;
            (sink, restored)
        } else {
            let sink =
                PartitionCheckpointSink::create(&ckpt_path).map_err(|e| io_err(e.to_string()))?;
            (sink, None)
        };
        let sup_opts = SuperviseOptions {
            deadline: Some(Duration::from_millis(500)),
            checkpoint_every: Some(checkpoint_every),
            trace: true,
            audit: opts.quick,
            chaos: Some(&plan),
            sink: Some(&sink),
            ..SuperviseOptions::default()
        };
        let resumed_from = restored.as_ref().map(|cp| cp.round);
        let start = restored
            .as_ref()
            .map_or(Start::Fresh(initial), Start::Resume);
        let out = run_partitioned(inst, &config, &part, start, &sup_opts)
            .map_err(|e| io_err(format!("supervised run ({key}): {e}")))?;

        let identical = out.outcome.association == oracle.association
            && out.outcome.rounds == oracle.rounds
            && out.outcome.moves == oracle.moves
            && out.outcome.converged == oracle.converged
            && out.outcome.cycle_detected == oracle.cycle_detected
            && out.trace == oracle_trace;
        if !identical {
            return Err(CliError::Divergence(format!(
                "chaos run ({key}) diverged from the fault-free oracle: \
                 rounds {}/{}, moves {}/{}, trace {}/{} — recovery is not exact",
                out.outcome.rounds,
                oracle.rounds,
                out.outcome.moves,
                oracle.moves,
                out.trace.len(),
                oracle_trace.len(),
            )));
        }

        let r = &out.recovery;
        summary.push_str(&format!(
            "chaos [{key}]: {} rounds, {} moves, {} injected ops -> \
             {} failures, {} retries, quarantined {:?}, degraded at {:?}\n\
             checkpoints: {} written to {} ({} errors){}\n\
             verified: outcome and decision trace byte-identical to the fault-free run\n",
            out.outcome.rounds,
            out.outcome.moves,
            plan.ops().len(),
            r.failures.len(),
            r.retries,
            r.quarantined,
            r.degraded_at_round,
            r.checkpoints_written,
            ckpt_path.display(),
            r.checkpoint_errors,
            match resumed_from {
                Some(round) => format!("; resumed from the round-{round} checkpoint"),
                None => String::new(),
            },
        ));
        cases.insert(
            key.to_string(),
            CaseJson {
                mode: format!("{mode:?}"),
                rounds: out.outcome.rounds,
                moves: out.outcome.moves,
                converged: out.outcome.converged,
                cycle_detected: out.outcome.cycle_detected,
                satisfied: out.outcome.association.satisfied_count(),
                trace_moves: out.trace.len(),
                outputs_identical: identical,
            },
        );
    }

    let doc = ChaosJson {
        schema: CHAOS_SCHEMA.to_string(),
        quick: opts.quick,
        chaos_seed: seed,
        n_aps: shape.n_aps,
        n_users: shape.n_users,
        n_sessions: shape.n_sessions,
        workers: shape.workers,
        max_rounds: shape.max_rounds,
        checkpoint_every,
        cases,
    };
    let json =
        serde_json::to_string_pretty(&doc).map_err(|e| io_err(format!("serialize chaos: {e}")))?;
    let json_path = opts.out_dir.join("chaos.json");
    atomic_write(&json_path, json.as_bytes())
        .map_err(|e| io_err(format!("write {}: {e}", json_path.display())))?;
    summary.push_str(&format!("wrote {}\n", json_path.display()));
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mcast_chaos_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn quick_chaos_recovers_identically_and_resumes() {
        let opts = Options {
            quick: true,
            out_dir: out_dir("quick"),
            chaos_seed: Some(7),
            ..Options::default()
        };
        let summary = run_chaos(&opts).expect("chaos run succeeds");
        assert!(summary.contains("byte-identical"), "{summary}");
        let fresh = std::fs::read_to_string(opts.out_dir.join("chaos.json")).unwrap();
        let v: serde_json::Value = serde_json::parse_value(&fresh).unwrap();
        let Some(serde_json::Value::Object(cases)) = v.get("cases") else {
            panic!("chaos.json has no cases object");
        };
        assert_eq!(cases.len(), 2, "quick mode runs both execution modes");
        for (key, case) in cases {
            assert!(
                matches!(
                    case.get("outputs_identical"),
                    Some(serde_json::Value::Bool(true))
                ),
                "case {key} not identical"
            );
        }

        // The recovery path: resume from the latest on-disk checkpoint.
        // The re-derived chaos.json must be byte-identical to the
        // uninterrupted run's.
        let resumed_opts = Options {
            resume: true,
            ..opts.clone()
        };
        let summary = run_chaos(&resumed_opts).expect("resumed chaos run succeeds");
        assert!(summary.contains("resumed from the round-"), "{summary}");
        let resumed = std::fs::read_to_string(opts.out_dir.join("chaos.json")).unwrap();
        assert_eq!(fresh, resumed, "resume must be outcome-neutral");
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn truncated_checkpoint_file_still_resumes_identically() {
        let opts = Options {
            quick: true,
            out_dir: out_dir("torn"),
            chaos_seed: Some(3),
            ..Options::default()
        };
        run_chaos(&opts).expect("chaos run succeeds");
        let fresh = std::fs::read_to_string(opts.out_dir.join("chaos.json")).unwrap();
        // Tear both checkpoint files mid-byte, as a kill -9 would.
        for key in ["serial", "simultaneous"] {
            let p = opts.out_dir.join(format!("chaos_{key}.ckpt"));
            let bytes = std::fs::read(&p).unwrap();
            std::fs::write(&p, &bytes[..bytes.len() * 2 / 3]).unwrap();
        }
        let resumed_opts = Options {
            resume: true,
            ..opts.clone()
        };
        run_chaos(&resumed_opts).expect("resume over a torn file succeeds");
        let resumed = std::fs::read_to_string(opts.out_dir.join("chaos.json")).unwrap();
        assert_eq!(fresh, resumed, "torn-tail resume must be outcome-neutral");
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }
}
