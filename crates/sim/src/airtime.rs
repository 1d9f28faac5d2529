//! Airtime measurement: replay the multicast packet schedule of an
//! association and measure each AP's busy fraction.
//!
//! This closes the loop on Definition 1: the *analytic* load
//! (`Σ stream_rate / tx_rate`) must equal the *measured* airtime fraction
//! when each served session emits `stream_rate × interval` bits every
//! interval at its transmission rate. The equality is exercised by tests
//! and by the `table1`/validation experiment.

use mcast_core::{Association, Instance, Load};

use crate::event::Time;

/// Per-AP airtime measurement over a window.
#[derive(Debug, Clone, PartialEq)]
pub struct AirtimeReport {
    /// Measured busy fraction per AP (indexable by `ApId::index`).
    pub measured: Vec<f64>,
    /// The analytic Definition-1 loads for comparison.
    pub analytic: Vec<Load>,
    /// The measurement window used.
    pub window: Time,
}

impl AirtimeReport {
    /// The largest |measured − analytic| over all APs.
    pub fn max_abs_error(&self) -> f64 {
        self.measured
            .iter()
            .zip(&self.analytic)
            .map(|(m, a)| (m - a.as_f64()).abs())
            .fold(0.0, f64::max)
    }
}

/// Replays `interval`-spaced multicast packets for every (AP, session) the
/// association serves over `window`, accumulating per-AP busy time.
///
/// # Panics
///
/// Panics if `interval` is zero or does not divide `window`.
pub fn measure_airtime(
    inst: &Instance,
    assoc: &Association,
    window: Time,
    interval: Time,
) -> AirtimeReport {
    assert!(interval.0 > 0, "interval must be positive");
    assert_eq!(window.0 % interval.0, 0, "interval must divide window");
    let packets = window.0 / interval.0;

    let rates = assoc.session_rates(inst);
    let mut busy_us = vec![0.0f64; inst.n_aps()];
    for a in inst.aps() {
        for s in inst.sessions() {
            if let Some(tx) = rates.rate(a, s) {
                // Bits accumulated per interval at the stream rate, then
                // drained at the transmission rate.
                let stream_kbps = f64::from(inst.session_rate(s).0);
                let bits_per_packet = stream_kbps * interval.0 as f64 / 1000.0;
                let per_packet_us = bits_per_packet / (f64::from(tx.0) / 1000.0);
                busy_us[a.index()] += per_packet_us * packets as f64;
            }
        }
    }

    let measured = busy_us.iter().map(|b| b / window.0 as f64).collect();
    let analytic = rates.loads();
    AirtimeReport {
        measured,
        analytic,
        window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_core::examples_paper::figure1_instance;
    use mcast_core::{ApId, Kbps};

    #[test]
    fn measured_airtime_equals_definition1() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let assoc = Association::from_vec(vec![
            Some(ApId(0)),
            Some(ApId(0)),
            Some(ApId(0)),
            Some(ApId(1)),
            Some(ApId(1)),
        ]);
        let report = measure_airtime(&inst, &assoc, Time::from_secs(10), Time::from_millis(100));
        assert!(
            report.max_abs_error() < 1e-9,
            "err {}",
            report.max_abs_error()
        );
        assert!((report.measured[0] - 0.5).abs() < 1e-9);
        assert!((report.measured[1] - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_association_measures_zero() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let assoc = Association::empty(5);
        let report = measure_airtime(&inst, &assoc, Time::from_secs(1), Time::from_millis(50));
        assert!(report.measured.iter().all(|&m| m == 0.0));
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn indivisible_window_panics() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let assoc = Association::empty(5);
        measure_airtime(&inst, &assoc, Time(1000), Time(300));
    }
}
