//! The workloads and the code that times a repetition of any of them.
//!
//! A repetition runs `setup` once, building the inputs from the seed
//! (timed as `setup_s`), then one or more iterations on those inputs. An
//! iteration runs `measure`, the work a user waits for (timed as
//! `wall_s`); `recover`, which rebuilds serving state from what `measure`
//! produced (timed as `recover_s`); and `check`, which proves the outputs
//! correct and is not timed. `stage`, between the two timed phases and
//! not timed, hands `recover` its input, so that `recover_s` times the
//! program's recovery path and not the benchmark's copying and checking.
//! After each iteration, untimed by the workload's own clock, the run
//! times the host-speed reference (`crate::reference`).

use std::path::Path;
use std::time::{Duration, Instant};

use crate::metrics::percentile;
use crate::trace::Tracer;

pub mod join_storm;
pub mod metro_cold;
pub mod paper_sweep;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["metro_cold", "paper_sweep", "join_storm"];

/// How large the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured shape.
    Full,
    /// A few hundred users: for the self-tests, which alone build it.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// What one repetition measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Input generation and preparation, s.
    pub setup_s: f64,
    /// The measured phase of each iteration, s.
    pub wall_s: Vec<f64>,
    /// The recovery phase of each iteration, s.
    pub recover_s: Vec<f64>,
    /// Median wall time of a unit of service (see each workload) in each
    /// iteration, ms.
    pub epoch_p50_ms: Vec<f64>,
    /// 99th-percentile wall time of a unit of service in each iteration,
    /// ms.
    pub epoch_p99_ms: Vec<f64>,
    /// The host-speed reference kernel's times after the iterations, s.
    pub ref_s: Vec<f64>,
    /// Units of service attempted.
    pub attempted: u64,
    /// Units of service that missed their limit.
    pub failed: u64,
    /// Users served at the end, as a share of all users.
    pub served_frac: f64,
    /// Maximum AP load of the workload's headline association.
    pub max_load: f64,
    /// Total AP load of the workload's headline association.
    pub total_load: f64,
    /// CRC-32 of every association an iteration produced.
    pub digest: u32,
    /// `Err` with the reason when an output check failed.
    pub check: Result<(), String>,
}

impl Default for Rep {
    fn default() -> Rep {
        Rep {
            setup_s: 0.0,
            wall_s: Vec::new(),
            recover_s: Vec::new(),
            epoch_p50_ms: Vec::new(),
            epoch_p99_ms: Vec::new(),
            ref_s: Vec::new(),
            attempted: 0,
            failed: 0,
            served_frac: 0.0,
            max_load: 0.0,
            total_load: 0.0,
            digest: 0,
            check: Ok(()),
        }
    }
}

/// The summary of one iteration's outputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Wall time of each unit of service, ms.
    pub epoch_ms: Vec<f64>,
    /// Units of service that missed their limit.
    pub failed: u64,
    /// Users served at the end, as a share of all users.
    pub served_frac: f64,
    /// Maximum AP load.
    pub max_load: f64,
    /// Total AP load.
    pub total_load: f64,
    /// CRC-32 of every association produced.
    pub digest: u32,
    /// Time the measured phase spent waiting for fsync, s, which `wall_s`
    /// leaves out: on a shared disk it measures the neighbours (see
    /// `README.md`).
    pub disk_wait_s: f64,
}

impl Summary {
    /// The deterministic part, which every iteration must reproduce.
    fn outputs(&self) -> (u32, f64, f64, f64) {
        (
            self.digest,
            self.served_frac,
            self.max_load,
            self.total_load,
        )
    }
}

/// One workload, split into the phases a repetition times.
pub trait Workload {
    /// Inputs built from the seed.
    type Setup;
    /// What the measured phase produced.
    type Output;
    /// What the recovery phase starts from.
    type Staged;
    /// What the recovery phase rebuilt.
    type Recovered;

    /// Builds the inputs. `dir` is a private scratch directory.
    fn setup(&self, seed: u64, size: Size, dir: &Path, t: &Tracer) -> Result<Self::Setup, String>;
    /// Restores inputs an earlier iteration consumed (not timed).
    fn reset(&self, _s: &mut Self::Setup, _t: &Tracer) -> Result<(), String> {
        Ok(())
    }
    /// The measured work.
    fn measure(&self, s: &mut Self::Setup, t: &Tracer) -> Result<Self::Output, String>;
    /// Takes from the output what `recover` consumes (not timed). A wrong
    /// output may fail here; `Staged` then carries the error on.
    fn stage(&self, s: &Self::Setup, o: &Self::Output) -> Self::Staged;
    /// Rebuilds serving state. A wrong output may fail to rebuild;
    /// `Recovered` then carries the error to `check`.
    fn recover(&self, s: &Self::Setup, staged: Self::Staged, t: &Tracer) -> Self::Recovered;
    /// Proves the outputs correct.
    fn check(&self, s: &Self::Setup, o: &Self::Output, r: &Self::Recovered) -> Result<(), String>;
    /// Headline numbers and digest of the outputs.
    fn summarize(&self, s: &Self::Setup, o: &Self::Output, r: &Self::Recovered) -> Summary;
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Runs one repetition of `w`: setup, then iterations until the next one
/// would end past `budget` (at least one), each followed by
/// `reference::RUNS_PER_ITERATION` probes of the host speed. Every iteration is checked, and every later iteration
/// must reproduce the first one's outputs. `Err` means the program failed
/// to run (a solver or IO error); a wrong answer, or a probe that could
/// not run, comes back in [`Rep::check`].
pub fn run_rep<W: Workload>(
    w: &W,
    seed: u64,
    size: Size,
    dir: &Path,
    budget: Duration,
    t: &Tracer,
    probe: Probe,
) -> Result<Rep, String> {
    let (setup_s, setup) = timed(|| w.setup(seed, size, dir, t));
    let mut setup = setup?;
    let mut rep = Rep {
        setup_s,
        ..Rep::default()
    };
    let started = Instant::now();
    let mut first: Option<Summary> = None;
    loop {
        if first.is_some() {
            w.reset(&mut setup, t)?;
        }
        let (wall_s, output) = timed(|| w.measure(&mut setup, t));
        let output = output?;
        let staged = w.stage(&setup, &output);
        let (recover_s, recovered) = timed(|| w.recover(&setup, staged, t));
        let mut check = w.check(&setup, &output, &recovered);
        let s = w.summarize(&setup, &output, &recovered);
        if let (Ok(()), Some(f)) = (&check, &first) {
            if f.outputs() != s.outputs() {
                check = Err("an iteration produced other outputs than the first".to_string());
            }
        }
        for _ in 0..crate::reference::RUNS_PER_ITERATION {
            match probe() {
                Ok(ref_s) => rep.ref_s.push(ref_s),
                Err(e) => check = check.and(Err(e)),
            }
        }
        let units = s.epoch_ms.len() as u64;
        rep.attempted += units;
        rep.failed += if check.is_ok() { s.failed } else { units };
        rep.wall_s.push(wall_s - s.disk_wait_s);
        rep.recover_s.push(recover_s);
        rep.epoch_p50_ms.push(percentile(&s.epoch_ms, 50.0));
        rep.epoch_p99_ms.push(percentile(&s.epoch_ms, 99.0));
        if rep.check.is_ok() {
            rep.check = check;
        }
        let first = first.get_or_insert(s);
        let per_iteration = started.elapsed() / rep.wall_s.len() as u32;
        if started.elapsed() + per_iteration > budget {
            rep.served_frac = first.served_frac;
            rep.max_load = first.max_load;
            rep.total_load = first.total_load;
            rep.digest = first.digest;
            return Ok(rep);
        }
    }
}

/// Times the host-speed reference once, s.
pub type Probe = fn() -> Result<f64, String>;

/// Runs one repetition of the workload called `name`.
pub fn run_named(
    name: &str,
    seed: u64,
    size: Size,
    dir: &Path,
    budget: Duration,
    t: &Tracer,
    probe: Probe,
) -> Result<Rep, String> {
    match name {
        "metro_cold" => run_rep(&metro_cold::MetroCold, seed, size, dir, budget, t, probe),
        "paper_sweep" => run_rep(&paper_sweep::PaperSweep, seed, size, dir, budget, t, probe),
        "join_storm" => run_rep(&join_storm::JoinStorm, seed, size, dir, budget, t, probe),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// Side of a square holding `n_aps` APs at the paper's density
/// (1.2 km² for 200 APs, about 6000 m² per AP).
pub fn paper_density_side_m(n_aps: usize) -> f64 {
    (n_aps as f64 * 6000.0).sqrt()
}

/// A 64-bit seed for sub-input `k` of the run seeded `seed` (splitmix64).
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
