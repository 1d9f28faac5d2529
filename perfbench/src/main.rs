//! `perfbench`: the end-to-end benchmark of the wlan-mcast workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in [`MIN_REPS`] repetitions, each building its inputs
//! from the seed and then iterating on them for a share of `--seconds`,
//! and prints as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones (timings are trimmed means over the iterations);
//! with `--trace 1` they are the per-layer ones, medians from traced
//! single-iteration repetitions alternating with untraced ones (which
//! measure the tracing overhead) until `--seconds` have passed.
//! A line `context {...}` before it records the host, build and seed.
//! Every time it prints is put on one host-speed scale by a reference
//! kernel timed after each iteration (`src/reference.rs`).
//! Exits 1, after printing the result, when an output check fails.
//!
//! Each invocation runs one workload, and the peak RSS of each repetition
//! is read after resetting `VmHWM` through `/proc/self/clear_refs`, so
//! `peak_rss_mb` is the workload's own. Scratch files go to `.perfbench/` in the working
//! directory; the trace of a traced run stays in `.perfbench/trace/`. See
//! `README.md` beside this package for what each workload and metric is
//! for.

mod api;
mod metrics;
mod reference;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{median, trimmed_mean, LayerView, END_TO_END, PER_LAYER};
use trace::{SpanTotals, Tracer};
use workloads::{Probe, Rep, Size, NAMES};

/// Repetitions an untraced run makes; a traced run makes at least this
/// many of each kind.
const MIN_REPS: usize = 3;
/// No repetition starts once a run has taken this long, so that the run
/// ends well inside three minutes.
const LAST_START: Duration = Duration::from_secs(120);

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        if !["workload", "seed", "seconds", "trace"].contains(&key) {
            return Err(format!("unknown flag '{flag}'"));
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key, value);
    }
    let take = |k: &str| flags.get(k).copied();
    let num = |k: &str, default: Option<u64>| -> Result<u64, String> {
        match take(k) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{k}: '{v}' is not a whole number")),
            None => default.ok_or_else(|| format!("--{k} is required")),
        }
    };
    let workload = take("workload")
        .ok_or("--workload is required")?
        .to_string();
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {})",
            NAMES.join(", ")
        ));
    }
    let trace = match take("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace: expected 0 or 1, got '{v}'")),
    };
    Ok(Args {
        workload,
        seed: num("seed", None)?,
        seconds: num("seconds", Some(10))?,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Resets this process's `VmHWM` to its current RSS, so that the next
/// [`peak_rss_mb`] is the peak of what runs in between.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// One repetition, its peak RSS and the layer view its tracer recorded.
#[derive(Debug, Clone, Default, PartialEq)]
struct Sample {
    rep: Rep,
    peak_rss_mb: f64,
    traced: bool,
    layers: LayerView,
}

/// Runs repetition `id` of `workload` in this process, iterating until
/// `budget` would be passed (at least once).
#[allow(clippy::too_many_arguments)]
fn run_rep(
    workload: &str,
    seed: u64,
    size: Size,
    id: u64,
    traced: bool,
    budget: Duration,
    dir: &Path,
    probe: Probe,
) -> Result<(Sample, Tracer), String> {
    let t = Tracer::new(traced, id);
    reset_peak_rss()?;
    let rep = workloads::run_named(workload, seed, size, dir, budget, &t, probe)?;
    let peak_rss_mb = peak_rss_mb()?;
    let layers = LayerView {
        spans: t
            .totals()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        counters: t
            .counters()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    };
    Ok((
        Sample {
            rep,
            peak_rss_mb,
            traced,
            layers,
        },
        t,
    ))
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let root = PathBuf::from(".perfbench");
    let dir = ScratchDir(root.join(format!("run-{}", std::process::id())));
    let trace_dir = root.join("trace");
    std::fs::create_dir_all(&dir.0)
        .and_then(|()| std::fs::create_dir_all(&trace_dir))
        .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    let base = format!("{}-seed{}", args.workload, args.seed);

    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    // An untraced run splits its time over MIN_REPS repetitions, each
    // iterating on its inputs; a traced run makes one iteration per
    // repetition, so traced and untraced iterations compare like for like.
    let rep_budget = if args.trace {
        Duration::ZERO
    } else {
        budget / MIN_REPS as u32
    };
    let mut samples: Vec<Sample> = Vec::new();
    loop {
        let i = samples.len() as u64;
        // Traced runs alternate traced and untraced repetitions.
        let traced = args.trace && i.is_multiple_of(2);
        let (s, t) = run_rep(
            &args.workload,
            args.seed,
            Size::Full,
            i,
            traced,
            rep_budget,
            &dir.0,
            reference::time,
        )?;
        if traced && i == 0 {
            let path = trace_dir.join(format!("{base}.spans.csv"));
            std::fs::write(&path, t.spans_csv())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        eprintln!(
            "perfbench: {} rep {i}{}: setup {:.3} s, {} iterations, median wall {:.3} s, \
             recover {:.3} s, peak {:.1} MiB, reference {:.1} ms (all unscaled)",
            args.workload,
            if traced { " (traced)" } else { "" },
            s.rep.setup_s,
            s.rep.wall_s.len(),
            median(&s.rep.wall_s),
            median(&s.rep.recover_s),
            s.peak_rss_mb,
            median(&s.rep.ref_s) * 1e3
        );
        samples.push(s);
        let (n_traced, n_plain) = (
            samples.iter().filter(|s| s.traced).count(),
            samples.iter().filter(|s| !s.traced).count(),
        );
        let done = if args.trace {
            n_plain >= MIN_REPS && n_traced >= MIN_REPS && started.elapsed() >= budget
        } else {
            n_plain == MIN_REPS
        };
        if done || started.elapsed() >= LAST_START {
            break;
        }
    }
    let verdict = verify(&samples);
    let attempted: u64 = samples.iter().map(|s| s.rep.attempted).sum();
    let failed: u64 = samples.iter().map(|s| s.rep.failed).sum();
    let metrics = if args.trace {
        per_layer(&samples)
    } else {
        end_to_end(&samples)
    };

    // Every workload runs its calls on one thread (`workers`); the host's
    // parallelism is recorded beside it.
    let context = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"repetitions\": {}, \"available_parallelism\": {}, \"workers\": 1, \
         \"profile\": \"{}\", \"commit\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        samples.len(),
        nproc(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_commit()
    );
    let result = result_json(verdict.is_ok(), attempted, failed, &metrics);
    if args.trace {
        write_trace_summary(
            &trace_dir.join(format!("{base}.json")),
            &context,
            &samples,
            &result,
        )?;
    }
    if let Err(e) = &verdict {
        eprintln!("perfbench: output check failed: {e}");
    }
    println!("context {context}");
    println!("{result}");
    Ok(if verdict.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every repetition passed its checks and reproduced the first one's
/// outputs exactly.
fn verify(reps: &[Sample]) -> Result<(), String> {
    for (i, c) in reps.iter().enumerate() {
        c.rep
            .check
            .clone()
            .map_err(|e| format!("repetition {i}: {e}"))?;
    }
    let first = &reps[0].rep;
    let key = |r: &Rep| (r.digest, r.served_frac, r.max_load, r.total_load);
    match reps.iter().position(|c| key(&c.rep) != key(first)) {
        Some(i) => Err(format!(
            "repetition {i} produced other outputs than repetition 0 on the same inputs"
        )),
        None => Ok(()),
    }
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

/// Trimmed mean of the reference kernel's times over all repetitions, s.
fn reference_s(reps: &[Sample]) -> f64 {
    trimmed_mean(
        &reps
            .iter()
            .flat_map(|c| c.rep.ref_s.iter().copied())
            .collect::<Vec<_>>(),
    )
}

/// Times (units `s` and `ms`) scaled to the reference host speed, except
/// `host.ref_ms`, the kernel's own time on this host; other values as
/// they are.
fn on_reference_speed(metrics: Metrics, reps: &[Sample]) -> Metrics {
    let factor = reference::speed_factor(reference_s(reps));
    metrics
        .into_iter()
        .map(|(name, unit, v)| match unit {
            "s" | "ms" if name != "host.ref_ms" => (name, unit, v * factor),
            _ => (name, unit, v),
        })
        .collect()
}

fn end_to_end(reps: &[Sample]) -> Metrics {
    let of = |f: &dyn Fn(&Sample) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let pooled = |f: &dyn Fn(&Rep) -> &[f64]| -> Vec<f64> {
        reps.iter()
            .flat_map(|c| f(&c.rep).iter().copied())
            .collect()
    };
    let first = &reps[0].rep;
    let raw = END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "setup_s" => of(&|c| c.rep.setup_s),
                "wall_s" => trimmed_mean(&pooled(&|r| &r.wall_s)),
                "peak_rss_mb" => of(&|c| c.peak_rss_mb),
                "epoch_p50_ms" => trimmed_mean(&pooled(&|r| &r.epoch_p50_ms)),
                "recover_s" => trimmed_mean(&pooled(&|r| &r.recover_s)),
                "served_frac" => first.served_frac,
                "total_load" => first.total_load,
                other => unreachable!("unhandled end-to-end metric {other}"),
            };
            (m.name, m.unit, v)
        })
        .collect();
    on_reference_speed(raw, reps)
}

fn per_layer(reps: &[Sample]) -> Metrics {
    let traced: Vec<&Sample> = reps.iter().filter(|c| c.traced).collect();
    // Trimmed mean of a per-iteration figure over the traced (`on`) or the
    // untraced repetitions.
    let iterations = |on: bool, f: &dyn Fn(&Rep) -> &[f64]| {
        trimmed_mean(
            &reps
                .iter()
                .filter(|c| c.traced == on)
                .flat_map(|c| f(&c.rep).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let raw = PER_LAYER
        .iter()
        .map(|m| {
            let v = match m.name {
                // From the untraced repetitions: the per-call spans of a traced
                // `join_storm` would lengthen the epochs.
                "epoch_p99_ms" => iterations(false, &|r| &r.epoch_p99_ms),
                "host.nproc" => nproc() as f64,
                "host.ref_ms" => reference_s(reps) * 1e3,
                "trace.overhead_frac" => {
                    iterations(true, &|r| &r.wall_s) / iterations(false, &|r| &r.wall_s) - 1.0
                }
                "core.max_load" => reps[0].rep.max_load,
                name => median(
                    &traced
                        .iter()
                        .map(|c| c.layers.value(name))
                        .collect::<Vec<_>>(),
                ),
            };
            (m.name, m.unit, v)
        })
        .collect();
    on_reference_speed(raw, reps)
}

/// The final line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The traced run's record: context, the result line, and each
/// span name's median count, total and self time over the traced
/// repetitions. The raw spans of the first traced repetition sit beside
/// it in `<workload>-seed<n>.spans.csv`.
fn write_trace_summary(
    path: &Path,
    context: &str,
    reps: &[Sample],
    result: &str,
) -> Result<(), String> {
    let traced: Vec<&Sample> = reps.iter().filter(|c| c.traced).collect();
    let mut names: Vec<&String> = traced.iter().flat_map(|c| c.layers.spans.keys()).collect();
    names.sort();
    names.dedup();
    let med = |f: &dyn Fn(&SpanTotals) -> f64, name: &str| {
        median(
            &traced
                .iter()
                .map(|c| c.layers.spans.get(name).map_or(0.0, f))
                .collect::<Vec<_>>(),
        )
    };
    let spans: Vec<String> = names
        .iter()
        .map(|n| {
            format!(
                "    \"{n}\": {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                med(&|s| s.count as f64, n),
                num(med(&|s| s.total_s, n)),
                num(med(&|s| s.self_s, n))
            )
        })
        .collect();
    let doc = format!(
        "{{\n  \"context\": {context},\n  \"result\": {result},\n  \"spans\": {{\n{}\n  }}\n}}\n",
        spans.join(",\n")
    );
    std::fs::write(path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One single-iteration repetition of `workload` at tiny size.
    fn tiny(workload: &str, traced: bool) -> Sample {
        let dir = std::env::temp_dir().join(format!(
            "perfbench-main-{}-{workload}-{traced}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        // The test harness runs threads of its own, so the kernel runs
        // without the one-thread guard.
        let probe: Probe = || Ok(reference::kernel_s());
        let (s, _) = run_rep(
            workload,
            1,
            Size::Tiny,
            0,
            traced,
            Duration::ZERO,
            &dir,
            probe,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        s
    }

    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::parse_value(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn names_of(v: &serde_json::Value, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        let serde_json::Value::Object(map) = v else {
            panic!("BENCHMARK.json is not an object")
        };
        let (_, list) = map.iter().find(|(k, _)| k.as_str() == key).unwrap();
        let serde_json::Value::Array(items) = list else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|item| {
                let serde_json::Value::Object(fs) = item else {
                    panic!("{key} entry is not an object")
                };
                fields
                    .iter()
                    .map(|f| match fs.iter().find(|(k, _)| k.as_str() == *f) {
                        Some((_, serde_json::Value::Str(s))) => s.clone(),
                        other => panic!("{key}.{f}: {other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        let doc = benchmark_json();
        let fields = ["name", "unit", "better"];
        let declared = |key| names_of(&doc, key, &fields);
        let ours = |specs: &[metrics::Spec]| -> Vec<Vec<String>> {
            specs
                .iter()
                .map(|s| vec![s.name.into(), s.unit.into(), s.better.into()])
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = names_of(&doc, "workloads", &["name"])
            .into_iter()
            .map(|mut v| v.remove(0))
            .collect();
        assert_eq!(workloads, NAMES);
    }

    #[test]
    fn tiny_runs_emit_every_named_metric_with_its_unit() {
        for name in NAMES {
            let plain = tiny(name, false);
            let traced = tiny(name, true);
            assert!(
                plain.rep.check.is_ok() && traced.rep.check.is_ok(),
                "{name}"
            );

            let reps = [plain.clone(), traced.clone()];
            verify(&reps).unwrap();
            let line = result_json(true, 2, 0, &end_to_end(&[plain]));
            for m in END_TO_END {
                let needle = format!("\"{}\": {{\"value\": ", m.name);
                let at = line
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{name}: {}", m.name));
                let rest = &line[at + needle.len()..];
                let (value, unit) = rest.split_once(", \"unit\": \"").unwrap();
                assert!(
                    unit.starts_with(&format!("{}\"", m.unit)),
                    "{name}: {}",
                    m.name
                );
                let value: f64 = value.parse().unwrap();
                assert!(value > 0.0, "{name}: {} is {value}", m.name);
            }
            let layers = per_layer(&reps);
            let got: Vec<(&str, &str)> = layers.iter().map(|(n, u, _)| (*n, *u)).collect();
            let want: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, want, "{name}");
            assert!(layers.iter().all(|(_, _, v)| v.is_finite()), "{name}");
            let generate = layers.iter().find(|(n, _, _)| *n == "topology.generate_s");
            assert!(generate.unwrap().2 > 0.0, "{name}: traced run has no spans");
        }
    }

    #[test]
    fn repetitions_that_disagree_fail_verification() {
        let a = Sample::default();
        let mut b = a.clone();
        b.rep.digest = 1;
        assert!(verify(&[a.clone(), a.clone()]).is_ok());
        assert!(verify(&[a, b]).is_err());
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload join_storm --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload join_storm")).is_err());
        assert!(parse_args(&argv("--workload join_storm --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload join_storm --seed x")).is_err());
        assert!(parse_args(&argv("--workload join_storm --seed 1 --size tiny")).is_err());
    }
}
