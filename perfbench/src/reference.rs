//! The host-speed reference: a fixed kernel, independent of the program,
//! timed after every iteration so that a run's timings can be put on one
//! host-speed scale.
//!
//! On the shared 2-vCPU host this benchmark was built on, the speed of the
//! memory system drifts by 20–40% over seconds to minutes, in step on both
//! vCPUs, while the process keeps its CPU (process CPU time tracks wall
//! time within 1%, with no steal). The drift moved a run's mean iteration
//! time by more than the 0.25 bound across ten seeds. This kernel, a sort
//! and random reads over a few MiB, slows with the drift as the workloads
//! do: over eight 15 s runs per workload at different times, the spread of
//! the mean iteration time across runs was 0.197 on `paper_sweep` and
//! 0.086 on `metro_cold`, and of its ratio to the kernel's mean time 0.012
//! and 0.069. A pure-ALU loop, by contrast, did not follow the drift
//! (0.165 and 0.092).
//!
//! A run multiplies every time it reports by `NOMINAL_S` over the
//! trimmed mean of its kernel times ([`speed_factor`]), and reports that
//! mean as `host.ref_ms`, so the raw time is the printed one times
//! `host.ref_ms / 40`. The kernel is this file's code alone: a change to
//! the program moves its timings and not the kernel's. A change that left
//! a thread of the program running beside the kernel would slow the kernel
//! and flatter the program, so the kernel refuses to run unless the
//! process has one thread.

use std::time::Instant;

/// The kernel's time at the reference host speed, s: about its median on
/// the host this benchmark was built on, so that the reported times read
/// close to that host's seconds.
pub const NOMINAL_S: f64 = 0.040;

/// Kernel runs after each iteration. One run's time varies by about 15%
/// from the next, so a single run per iteration left the trimmed mean of a
/// run's 12–30 kernel times some 4% off, a good part of the spread that
/// remained.
pub const RUNS_PER_ITERATION: usize = 3;

/// Keys the kernel sorts.
const KEYS: usize = 1 << 20;
/// Entries of the table the kernel reads at random (8 MiB of `u64`).
const TABLE: usize = 1 << 20;
/// Random reads the kernel makes.
const READS: u64 = 1 << 21;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Sorts `KEYS` pseudo-random keys, then makes `READS` random reads over
/// a `TABLE`-entry table. Both buffers are allocated afresh on each run,
/// as the workloads allocate theirs.
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u32> = (0..KEYS).map(|_| xorshift(&mut x) as u32).collect();
    keys.sort_unstable();
    let table: Vec<u64> = (0..TABLE as u64).collect();
    let mut acc = 0u64;
    for i in 0..READS {
        let at = xorshift(&mut x) as usize & (TABLE - 1);
        acc = acc.wrapping_add(table[at] ^ i);
    }
    acc.wrapping_add(u64::from(keys[KEYS / 2]))
}

/// Threads of this process, from `/proc/self/status`.
fn threads() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "no Threads in /proc/self/status".to_string())
}

/// `Err` unless `n`, the process's thread count, is 1.
fn alone(n: usize) -> Result<(), String> {
    match n {
        1 => Ok(()),
        n => Err(format!(
            "{n} threads alive after an iteration; the host-speed reference needs the \
             program's calls to have ended"
        )),
    }
}

/// Times one run of the kernel, s.
pub fn kernel_s() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(kernel());
    t0.elapsed().as_secs_f64()
}

/// Times one run of the kernel, s, in a process that has one thread:
/// `Err` when another is alive, which would make the kernel measure it.
pub fn time() -> Result<f64, String> {
    alone(threads()?)?;
    Ok(kernel_s())
}

/// The factor that puts times taken beside kernel runs of mean `ref_s` on
/// the reference host speed; 1 without a kernel time.
pub fn speed_factor(ref_s: f64) -> f64 {
    if ref_s > 0.0 {
        NOMINAL_S / ref_s
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_timed() {
        assert_eq!(kernel(), kernel());
        assert!(kernel_s() > 0.0);
        assert!(threads().unwrap() >= 1);
    }

    #[test]
    fn a_second_thread_stops_the_kernel() {
        assert!(alone(1).is_ok());
        assert!(alone(2).is_err());
    }

    #[test]
    fn a_slower_host_scales_times_down() {
        assert_eq!(speed_factor(NOMINAL_S), 1.0);
        assert_eq!(speed_factor(2.0 * NOMINAL_S), 0.5);
        assert_eq!(speed_factor(0.0), 1.0);
    }
}
