//! The named metrics, and how a run's repetitions fold into them.
//!
//! `END_TO_END` and `PER_LAYER` are the lists `BENCHMARK.json` declares;
//! a self-test keeps the two in step.

use std::collections::BTreeMap;

use crate::trace::SpanTotals;

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better }
}

/// What a user of the system sees, reported by every untraced run.
pub const END_TO_END: [Spec; 7] = [
    spec("setup_s", "s", "lower"),
    spec("wall_s", "s", "lower"),
    spec("peak_rss_mb", "MiB", "lower"),
    spec("epoch_p50_ms", "ms", "lower"),
    spec("recover_s", "s", "lower"),
    spec("served_frac", "ratio", "higher"),
    spec("total_load", "load", "lower"),
];

/// One layer each, reported by every traced run (0 where the workload
/// leaves the layer idle), plus `epoch_p99_ms`: an end-to-end figure kept
/// here, without a bound, because it is too unsteady on a shared host to
/// hold one (see `README.md`).
pub const PER_LAYER: [Spec; 34] = [
    spec("epoch_p99_ms", "ms", "lower"),
    spec("topology.generate_s", "s", "lower"),
    spec("topology.links", "count", "lower"),
    spec("core.instance_mb", "MiB", "lower"),
    spec("faults.lower_s", "s", "lower"),
    spec("core.solve_ssa_s", "s", "lower"),
    spec("core.evaluate_s", "s", "lower"),
    spec("core.admission_s", "s", "lower"),
    spec("core.admission_calls", "count", "lower"),
    spec("core.admitted", "count", "higher"),
    spec("controller.epoch_run_s", "s", "lower"),
    spec("core.solve_mnu_s", "s", "lower"),
    spec("core.solve_bla_s", "s", "lower"),
    spec("core.solve_mla_s", "s", "lower"),
    spec("core.distributed_s", "s", "lower"),
    spec("core.rounds", "count", "lower"),
    spec("core.moves", "count", "lower"),
    spec("controller.serve_s", "s", "lower"),
    spec("controller.engine_s", "s", "lower"),
    spec("controller.joins", "count", "higher"),
    spec("controller.fault_events", "count", "lower"),
    spec("controller.rehomed", "count", "lower"),
    spec("controller.shed", "count", "lower"),
    spec("controller.deferred", "count", "lower"),
    spec("controller.work_units", "count", "lower"),
    spec("events.publish_s", "s", "lower"),
    spec("events.sync_s", "s", "lower"),
    spec("events.published", "count", "lower"),
    spec("events.log_mb", "MiB", "lower"),
    spec("events.replay_s", "s", "lower"),
    spec("host.nproc", "count", "higher"),
    spec("host.ref_ms", "ms", "lower"),
    spec("core.max_load", "load", "lower"),
    spec("trace.overhead_frac", "ratio", "lower"),
];

/// Median; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the values left after dropping the lowest and the highest
/// tenth; 0 for no values.
///
/// The run-level figure for per-iteration timings. On the shared host this
/// benchmark was built on, machine speed switches between regimes about a
/// third apart, each lasting from ten seconds to minutes, so one run's
/// iteration times are often bimodal. A median then snaps to whichever
/// regime held the larger part of the run, while a mean weighs the two by
/// time: over sliding 30 s windows of one 240 s trace, the spread was 0.094
/// for the median and 0.066 for this mean, and over ten `join_storm` runs
/// 0.156 and 0.125 (plain mean). The trim keeps one stalled iteration from
/// moving the figure.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Nearest-rank percentile `p` (0–100); 0 for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// One traced repetition's layer view: span totals and counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerView {
    /// Span totals by span name.
    pub spans: BTreeMap<String, SpanTotals>,
    /// Counters by name.
    pub counters: BTreeMap<String, f64>,
}

impl LayerView {
    /// The value of the per-layer metric `name` in this repetition.
    /// Times are span totals (`x_s` from span `x`); the controller's
    /// engine time is the self time of the serve span, i.e. serve minus
    /// the publisher calls inside it.
    pub fn value(&self, name: &str) -> f64 {
        match name {
            "controller.engine_s" => self.spans.get("controller.serve").map_or(0.0, |s| s.self_s),
            _ => match name
                .strip_suffix("_s")
                .and_then(|span| self.spans.get(span))
            {
                Some(s) => s.total_s,
                None => self.counters.get(name).copied().unwrap_or(0.0),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        assert_eq!(trimmed_mean(&[]), 0.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), 3.0);
        let mut v = vec![1.0; 8];
        v.extend([0.0, 100.0]);
        assert_eq!(trimmed_mean(&v), 1.0);
    }

    #[test]
    fn engine_time_is_serve_self_time() {
        let mut view = LayerView::default();
        view.spans.insert(
            "controller.serve".into(),
            SpanTotals {
                count: 1,
                total_s: 2.0,
                self_s: 1.5,
            },
        );
        view.counters.insert("core.rounds".into(), 7.0);
        assert_eq!(view.value("controller.engine_s"), 1.5);
        assert_eq!(view.value("controller.serve_s"), 2.0);
        assert_eq!(view.value("core.rounds"), 7.0);
        assert_eq!(view.value("core.solve_bla_s"), 0.0);
    }
}
