//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <command> [--seeds N] [--out DIR] [--max-nodes N] [--quick] [--threads N]
//!
//! commands:
//!   table1      Table 1 (rate vs distance threshold) + staircase check
//!   fig9        Figure 9 a/b/c — total load (MLA-C, MLA-D, SSA)
//!   fig10       Figure 10 a/b/c — max load (BLA-C, BLA-D, SSA)
//!   fig11       Figure 11 — satisfied users vs budget (MNU-C, MNU-D, SSA)
//!   fig12       Figure 12 a/b/c — greedy vs certified optimum
//!   ablations   rate-policy / power / MNU-augment / model-vs-realized
//!   channels    §8 interference modeling: channel budget sweep
//!   mobility    quasi-static user movement: churn & repaired-load drift
//!   faults      fault injection: recovery after a coordinated AP outage
//!   controller  online controller: repair ladder vs full re-solve under faults
//!   serve       event-driven controller service; streams <out>/events.jsonl
//!               (--io-chaos SEED: seeded IO faults against the sink; the
//!               run must still lose zero decisions)
//!   replay      fold <out>/events.jsonl back into a report (no solvers)
//!   chaos       fault-injected partitioned run; proves recovery is exact
//!   revenue     the §3.2 revenue models across algorithms
//!   bench       time fast paths vs reference, write BENCH_*.json
//!               (--suite scale: million-user end-to-end pass -> BENCH_scale.json;
//!                --suite greedy|topology|distributed|controller: that report alone)
//!   gen/solve   write a scenario JSON / run one algorithm on it
//!   compare     diff two results/ CSV directories (regression check)
//!   validate    simulator vs analytic cross-checks
//!   all         everything above
//! ```

use std::process::ExitCode;
use std::time::Duration;

use mcast_events::RetryPolicy;
use mcast_experiments::cli::CliError;
use mcast_experiments::figures::{
    ablations, channels, controller, faults, fig10, fig11, fig12, fig9, mobility, revenue, table1,
    validate,
};
use mcast_experiments::report::{render_table, write_csv};
use mcast_experiments::runner::{Runner, TRIAL_RETRY};
use mcast_experiments::stats::Figure;
use mcast_experiments::Options;

/// Prints a classified error and maps it to its distinct exit code
/// (usage 2, validation 3, IO/decode 4, divergence 5) so scripts can
/// branch on *why* the run failed. Exit 1 stays reserved for
/// `compare`'s flagged-regressions outcome.
fn fail(e: CliError) -> ExitCode {
    eprintln!("{e}");
    ExitCode::from(e.exit_code() as u8)
}

/// Boundary shim for subsystems still reporting plain-string errors:
/// everything they surface is an IO/runtime failure, never bad usage.
fn fail_io(e: String) -> ExitCode {
    fail(CliError::IoDecode(e))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprintln!("usage: repro <table1|fig9|fig10|fig11|fig12|ablations|channels|mobility|faults|controller|serve|replay|chaos|revenue|bench|validate|all|gen|solve|compare> [--seeds N] [--out DIR] [--max-nodes N] [--quick] [--plot] [--resume] [--retries N] [--deadline SECS] [--threads N] [--chaos SEED] [--checkpoint-every K] [--suite NAME] [--io-chaos SEED]");
        return ExitCode::from(2);
    };
    let mut opts = Options::default();
    let mut plot = false;
    let mut threads: Option<usize> = None;
    let mut i = 1;
    // `gen` and `solve` own their argument grammar (positional paths).
    let generic_flags = !matches!(command.as_str(), "gen" | "solve" | "compare");
    while generic_flags && i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                opts.seeds = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_flag("--seeds"));
            }
            "--out" => {
                i += 1;
                opts.out_dir = args
                    .get(i)
                    .map(std::path::PathBuf::from)
                    .unwrap_or_else(|| bad_flag("--out"));
            }
            "--max-nodes" => {
                i += 1;
                opts.max_nodes = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_flag("--max-nodes"));
            }
            "--quick" => opts.quick = true,
            "--plot" => plot = true,
            "--resume" => opts.resume = true,
            "--retries" => {
                i += 1;
                opts.retries = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_flag("--retries"));
            }
            "--deadline" => {
                i += 1;
                opts.deadline_s = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_flag("--deadline"));
            }
            "--threads" => {
                i += 1;
                threads = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| bad_flag("--threads")),
                );
            }
            "--chaos" => {
                i += 1;
                opts.chaos_seed = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| bad_flag("--chaos")),
                );
            }
            "--checkpoint-every" => {
                i += 1;
                opts.checkpoint_every = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| bad_flag("--checkpoint-every")),
                );
            }
            "--suite" => {
                i += 1;
                opts.bench_suite =
                    Some(args.get(i).cloned().unwrap_or_else(|| bad_flag("--suite")));
            }
            "--io-chaos" => {
                i += 1;
                opts.io_chaos = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| bad_flag("--io-chaos")),
                );
            }
            other => {
                eprintln!("unknown flag: {other}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    // Apply the quick cap only after every flag is parsed, so the cap wins
    // regardless of flag order (`--quick --seeds 100` used to get 100).
    if opts.quick {
        opts.seeds = opts.seeds.min(5);
    }
    // A flag the command would silently ignore is a typo, not a no-op.
    if generic_flags {
        if let Err(e) = mcast_experiments::cli::validate_flags(&command, plot, opts.resume) {
            return fail(e.into());
        }
        if let Err(e) = mcast_experiments::cli::validate_threads(&command, threads) {
            return fail(e.into());
        }
        if let Err(e) = mcast_experiments::cli::validate_recovery_flags(
            &command,
            opts.chaos_seed.is_some(),
            opts.checkpoint_every,
        ) {
            return fail(e.into());
        }
        if let Err(e) =
            mcast_experiments::cli::validate_suite(&command, opts.bench_suite.as_deref())
        {
            return fail(e.into());
        }
        if let Err(e) = mcast_experiments::cli::validate_io_chaos(
            &command,
            opts.io_chaos,
            opts.checkpoint_every,
        ) {
            return fail(e.into());
        }
        if let Some(n) = threads {
            opts.threads = n;
            mcast_experiments::par::set_workers(n);
        }
    }

    // Sweep commands run under an orchestrator with a journal in
    // `<out>/.runstate/`; one-shot commands don't need one.
    let sweeping = matches!(
        command.as_str(),
        "fig9"
            | "fig10"
            | "fig11"
            | "fig12"
            | "ablations"
            | "channels"
            | "mobility"
            | "faults"
            | "controller"
            | "revenue"
            | "all"
    );
    let runner = if sweeping {
        let journal_path = opts.out_dir.join(".runstate").join("journal.jsonl");
        let policy = RetryPolicy {
            max_attempts: opts.retries.max(1),
            ..TRIAL_RETRY
        };
        let deadline = Duration::from_secs(opts.deadline_s);
        match Runner::with_journal(&journal_path, opts.resume, policy, deadline) {
            Ok(r) => r,
            Err(e) => {
                // An unusable journal degrades durability, not the run:
                // compute everything, just without checkpoint/resume.
                eprintln!(
                    "warning: no journal at {} ({e}); running without checkpoints",
                    journal_path.display()
                );
                Runner::ephemeral()
            }
        }
    } else {
        Runner::ephemeral()
    };

    let run_figs = |figs: Vec<Figure>, opts: &Options| {
        for fig in figs {
            print!("{}", render_table(&fig));
            if plot {
                println!("{}", mcast_experiments::plot::render_ascii(&fig, 64, 16));
            }
            if let Err(e) = write_csv(&fig, &opts.out_dir) {
                eprintln!("warning: failed to write CSV for {}: {e}", fig.id);
            }
        }
    };

    match command.as_str() {
        "table1" => print!("{}", table1::run()),
        "fig9" => run_figs(fig9::run(&opts, &runner), &opts),
        "fig10" => run_figs(fig10::run(&opts, &runner), &opts),
        "fig11" => run_figs(fig11::run(&opts, &runner), &opts),
        "fig12" => run_figs(fig12::run(&opts, &runner), &opts),
        "ablations" => run_figs(ablations::run(&opts, &runner), &opts),
        "channels" => run_figs(channels::run(&opts, &runner), &opts),
        "mobility" => run_figs(mobility::run(&opts, &runner), &opts),
        "faults" => {
            let json = faults::run(&opts, &runner);
            write_faults_json(&json, &opts);
            println!("{json}");
        }
        "controller" => {
            let json = controller::run(&opts, &runner);
            write_json_result("controller.json", &json, &opts);
            println!("{json}");
        }
        "serve" => match mcast_experiments::serve::run_serve(&opts) {
            Ok(summary) => print!("{summary}"),
            Err(e) => return fail(e),
        },
        "replay" => match mcast_experiments::serve::run_replay(&opts) {
            Ok(summary) => print!("{summary}"),
            Err(e) => return fail(e),
        },
        "chaos" => match mcast_experiments::chaos::run_chaos(&opts) {
            Ok(summary) => print!("{summary}"),
            Err(e) => return fail(e),
        },
        "revenue" => run_figs(revenue::run(&opts, &runner), &opts),
        "bench" => match mcast_experiments::bench::run(&opts) {
            Ok(summary) => print!("{summary}"),
            Err(e) => return fail_io(e),
        },
        "gen" => {
            // repro gen <out.json|out.mcb> [--seed N] [--aps N] [--users N]
            //                              [--sessions N] [--budget PERMILLE]
            //                              [--legacy-dense]
            let mut gen_opts = mcast_experiments::cli::GenOptions::default();
            let mut out = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--seed" => {
                        i += 1;
                        gen_opts.seed = parse_num(&args, i);
                    }
                    "--aps" => {
                        i += 1;
                        gen_opts.aps = parse_num(&args, i) as usize;
                    }
                    "--users" => {
                        i += 1;
                        gen_opts.users = parse_num(&args, i) as usize;
                    }
                    "--sessions" => {
                        i += 1;
                        gen_opts.sessions = parse_num(&args, i) as usize;
                    }
                    "--budget" => {
                        i += 1;
                        gen_opts.budget_permille = parse_num(&args, i) as u32;
                    }
                    "--legacy-dense" => gen_opts.legacy_dense = true,
                    other if out.is_none() => out = Some(std::path::PathBuf::from(other)),
                    other => {
                        eprintln!("unknown flag: {other}");
                        return ExitCode::from(2);
                    }
                }
                i += 1;
            }
            let Some(out) = out else {
                eprintln!("usage: repro gen <out.json|out.mcb> [--seed N] [--aps N] [--users N] [--sessions N] [--budget PERMILLE] [--legacy-dense]");
                return ExitCode::from(2);
            };
            if let Err(e) = mcast_experiments::cli::generate_to_file(&gen_opts, &out) {
                return fail(e);
            }
            return ExitCode::SUCCESS;
        }
        "compare" => {
            // repro compare <dirA> <dirB> [--tol FRACTION]
            let mut dirs: Vec<std::path::PathBuf> = Vec::new();
            let mut tol = 0.05f64;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--tol" => {
                        i += 1;
                        tol = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(0.05);
                    }
                    other => dirs.push(std::path::PathBuf::from(other)),
                }
                i += 1;
            }
            if dirs.len() != 2 {
                eprintln!("usage: repro compare <dirA> <dirB> [--tol FRACTION]");
                return ExitCode::from(2);
            }
            match mcast_experiments::cli::compare_results(&dirs[0], &dirs[1], tol) {
                // Exit 1 means "compared fine, regressions flagged" —
                // deliberately distinct from every CliError code.
                Ok(0) => return ExitCode::SUCCESS,
                Ok(_) => return ExitCode::FAILURE,
                Err(e) => return fail_io(e),
            }
        }
        "solve" => {
            // repro solve <scenario.json> --algo NAME [--assoc-out FILE]
            let mut file = None;
            let mut algo = None;
            let mut assoc_out = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--algo" => {
                        i += 1;
                        algo = args.get(i).cloned();
                    }
                    "--assoc-out" => {
                        i += 1;
                        assoc_out = args.get(i).map(std::path::PathBuf::from);
                    }
                    other if file.is_none() => file = Some(std::path::PathBuf::from(other)),
                    other => {
                        eprintln!("unknown flag: {other}");
                        return ExitCode::from(2);
                    }
                }
                i += 1;
            }
            let (Some(file), Some(algo)) = (file, algo) else {
                eprintln!("usage: repro solve <scenario.json> --algo <ssa|mla|mla-pd|mla-d|bla|bla-d|mnu|mnu-d|opt-mla|opt-bla|opt-mnu> [--assoc-out FILE]");
                return ExitCode::from(2);
            };
            if let Err(e) = mcast_experiments::cli::solve_file(&file, &algo, assoc_out.as_deref()) {
                return fail(e);
            }
            return ExitCode::SUCCESS;
        }
        "validate" => print!("{}", validate::run(&opts)),
        "all" => {
            print!("{}", table1::run());
            run_figs(fig9::run(&opts, &runner), &opts);
            run_figs(fig10::run(&opts, &runner), &opts);
            run_figs(fig11::run(&opts, &runner), &opts);
            run_figs(fig12::run(&opts, &runner), &opts);
            run_figs(ablations::run(&opts, &runner), &opts);
            run_figs(channels::run(&opts, &runner), &opts);
            run_figs(mobility::run(&opts, &runner), &opts);
            {
                let json = faults::run(&opts, &runner);
                write_faults_json(&json, &opts);
                println!("{json}");
            }
            {
                let json = controller::run(&opts, &runner);
                write_json_result("controller.json", &json, &opts);
                println!("{json}");
            }
            run_figs(revenue::run(&opts, &runner), &opts);
            print!("{}", validate::run(&opts));
        }
        other => {
            eprintln!("unknown command: {other}");
            return ExitCode::from(2);
        }
    }
    if sweeping {
        write_run_report(&runner, &opts);
    }
    ExitCode::SUCCESS
}

/// Prints the run accounting to stderr and persists it under
/// `.runstate/` (runtime state — never part of the results diff).
fn write_run_report(runner: &Runner, opts: &Options) {
    let report = runner.report();
    let rendered = report.render();
    if !rendered.is_empty() {
        eprint!("{rendered}");
    }
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            let path = opts.out_dir.join(".runstate").join("report.json");
            if let Err(e) = mcast_experiments::journal::atomic_write(&path, json.as_bytes()) {
                eprintln!("warning: failed to write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: failed to serialize run report: {e}"),
    }
}

fn write_faults_json(json: &str, opts: &Options) {
    write_json_result("faults.json", json, opts);
}

fn write_json_result(name: &str, json: &str, opts: &Options) {
    let path = opts.out_dir.join(name);
    if let Err(e) = mcast_experiments::journal::atomic_write(&path, json.as_bytes()) {
        eprintln!("warning: failed to write {}: {e}", path.display());
    }
}

fn parse_num(args: &[String], i: usize) -> u64 {
    args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("expected a number after {}", args[i.saturating_sub(1)]);
        std::process::exit(2)
    })
}

fn bad_flag(flag: &str) -> ! {
    eprintln!("{flag} requires a value");
    std::process::exit(2)
}
