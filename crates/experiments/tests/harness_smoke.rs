//! Smoke tests of the evaluation harness itself: every figure module
//! produces well-formed series with tiny options, tables render, CSV
//! writes, and the ASCII plotter accepts every figure.

use mcast_experiments::figures::{
    ablations, channels, fig10, fig11, fig12, fig9, mobility, revenue, table1,
};
use mcast_experiments::plot::render_ascii;
use mcast_experiments::report::{render_table, write_csv};
use mcast_experiments::runner::Runner;
use mcast_experiments::stats::Figure;
use mcast_experiments::Options;
use std::path::Path;

/// Smoke-test options writing under a directory of the test's own, so
/// tests running in parallel never share output files.
fn tiny(test: &str) -> Options {
    Options {
        seeds: 1,
        quick: true,
        max_nodes: 200_000,
        out_dir: std::env::temp_dir().join(format!("mcast_smoke_{test}_{}", std::process::id())),
        ..Options::default()
    }
}

fn well_formed(figs: &[Figure], out_dir: &Path) {
    assert!(!figs.is_empty());
    for fig in figs {
        assert!(!fig.id.is_empty());
        assert!(!fig.series.is_empty(), "{} has no series", fig.id);
        let n_points = fig.series[0].points.len();
        assert!(n_points > 0, "{} series empty", fig.id);
        for s in &fig.series {
            assert_eq!(s.points.len(), n_points, "{} ragged series", fig.id);
            for (x, sum) in &s.points {
                assert!(x.is_finite());
                assert!(sum.mean.is_finite());
                assert!(sum.min <= sum.mean + 1e-12 && sum.mean <= sum.max + 1e-12);
                // Some modules aggregate over epochs or fixed seed floors,
                // so the sample count is at least the seed count.
                assert!(sum.n >= 1, "{} empty sample", fig.id);
            }
        }
        // Table, CSV and plot must all accept the figure.
        let table = render_table(fig);
        assert!(table.contains(&fig.id));
        write_csv(fig, out_dir).expect("csv writes");
        let plot = render_ascii(fig, 48, 12);
        assert!(plot.contains(&fig.id));
    }
}

#[test]
fn fig9_smoke() {
    let opts = tiny("fig9");
    well_formed(&fig9::run(&opts, &Runner::ephemeral()), &opts.out_dir);
}

#[test]
fn fig10_smoke() {
    let opts = tiny("fig10");
    well_formed(&fig10::run(&opts, &Runner::ephemeral()), &opts.out_dir);
}

#[test]
fn fig11_smoke() {
    let opts = tiny("fig11");
    well_formed(&fig11::run(&opts, &Runner::ephemeral()), &opts.out_dir);
}

#[test]
fn fig12_smoke() {
    let opts = tiny("fig12");
    well_formed(&fig12::run(&opts, &Runner::ephemeral()), &opts.out_dir);
}

#[test]
fn ablations_smoke() {
    let opts = tiny("ablations");
    well_formed(&ablations::run(&opts, &Runner::ephemeral()), &opts.out_dir);
}

#[test]
fn channels_smoke() {
    let opts = tiny("channels");
    well_formed(&channels::run(&opts, &Runner::ephemeral()), &opts.out_dir);
}

#[test]
fn mobility_smoke() {
    let opts = tiny("mobility");
    well_formed(&mobility::run(&opts, &Runner::ephemeral()), &opts.out_dir);
}

#[test]
fn revenue_smoke() {
    let opts = tiny("revenue");
    well_formed(&revenue::run(&opts, &Runner::ephemeral()), &opts.out_dir);
}

#[test]
fn table1_smoke() {
    let out = table1::run();
    assert!(out.contains("54"));
    assert!(out.contains("validated"));
}

#[test]
fn fig9_quick_points_are_subset_of_full() {
    let quick = fig9::run(&tiny("fig9_quick"), &Runner::ephemeral());
    let quick_xs: Vec<f64> = quick[0].series[0].points.iter().map(|p| p.0).collect();
    assert_eq!(quick_xs, vec![50.0, 250.0, 400.0]);
}
