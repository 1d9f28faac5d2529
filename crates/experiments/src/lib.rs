//! Evaluation harness regenerating every table and figure of the paper's
//! §7 (Performance Evaluation).
//!
//! Each `figures::*` module reproduces one figure: it sweeps the paper's
//! parameter, runs the algorithms over `--seeds` random scenarios per
//! point (the paper uses 40), and reports avg/min/max series exactly like
//! the paper's plots. The `repro` binary drives them:
//!
//! ```text
//! cargo run -p mcast-experiments --release -- all --seeds 40
//! cargo run -p mcast-experiments --release -- fig9 --quick
//! ```
//!
//! Results print as aligned tables and are also written as CSV under
//! `results/`. `EXPERIMENTS.md` records paper-vs-measured per figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algos;
pub mod bench;
pub mod chaos;
pub mod cli;
pub mod figures;
pub mod journal;
pub mod par;
pub mod plot;
pub mod report;
pub mod runner;
pub mod serve;
pub mod stats;

/// Harness-wide options parsed from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Random scenarios per sweep point (paper: 40).
    pub seeds: u64,
    /// Output directory for CSV files.
    pub out_dir: std::path::PathBuf,
    /// Node budget for the exact (Figure 12) solvers.
    pub max_nodes: u64,
    /// Quick mode: fewer seeds and sweep points (for smoke tests).
    pub quick: bool,
    /// Resume from the journal of a previous (interrupted) run.
    pub resume: bool,
    /// Total attempts per trial (1 = no retries).
    pub retries: u32,
    /// Soft per-trial deadline in seconds (0 disables the watchdog).
    pub deadline_s: u64,
    /// Worker threads for parallel sweeps and the partitioned bench
    /// drivers (`--threads N`); 0 means auto (available parallelism,
    /// capped — see [`par::workers`]).
    pub threads: usize,
    /// Seed of the injected-fault plan for `repro chaos`
    /// (`--chaos SEED`); `None` runs the command's default seed.
    pub chaos_seed: Option<u64>,
    /// Snapshot cadence in completed rounds/epochs for checkpointed
    /// commands (`--checkpoint-every K`); `None` uses the command's
    /// default.
    pub checkpoint_every: Option<usize>,
    /// Bench suite for `repro bench` (`--suite NAME`): `None`/`default`
    /// runs the four fast-vs-reference reports, `greedy`, `topology`,
    /// `distributed` or `controller` runs one of them, and `scale` runs
    /// the million-user end-to-end pass ([`bench::scale_report`]).
    pub bench_suite: Option<String>,
    /// Seed of the injected IO-fault plan for `repro serve`
    /// (`--io-chaos SEED`); `None` runs with a clean sink.
    pub io_chaos: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seeds: 40,
            out_dir: std::path::PathBuf::from("results"),
            max_nodes: 2_000_000,
            quick: false,
            resume: false,
            retries: 2,
            deadline_s: 300,
            threads: 0,
            chaos_seed: None,
            checkpoint_every: None,
            bench_suite: None,
            io_chaos: None,
        }
    }
}
