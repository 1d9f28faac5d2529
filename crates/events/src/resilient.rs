//! The service publisher's degrade ladder: retry → spill → drop.
//!
//! [`ResilientPublisher`] wraps a primary [`EventPublisher`] and
//! guarantees that `publish` never returns an error and never blocks
//! the decision path indefinitely. It climbs down a three-rung ladder:
//!
//! 1. **Primary + retry** — a failed append is retried a bounded number
//!    of times with capped backoff; between attempts the sink is
//!    [`repaired`](EventPublisher::repair) so a torn half-record never
//!    precedes the retry.
//! 2. **Spill** — when retries are exhausted (e.g. the disk stays
//!    full), the publisher opens a spill sink from its factory and
//!    sends the *same* event — and all subsequent ones — there, so the
//!    sequence stays contiguous: the primary log's valid prefix plus
//!    the spill replays as one gapless stream.
//! 3. **Drop with counter** — only when the spill sink also fails is an
//!    event dropped, and every drop is counted; the degraded report
//!    makes the gap explicit, never silent.
//!
//! Sync failures are likewise counted rather than propagated (durability
//! degrades; decisions continue). [`EventPublisher::pressure`] reports
//! [`SinkPressure::Degraded`] once the ladder has left the primary
//! rung, which is what lets `serve` shed admission load deterministically.

use std::time::Duration;

use crate::event::Event;
use crate::journal::JournalError;
use crate::publish::{EventPublisher, SinkPressure};

/// Bounded retry with capped exponential backoff, shared by the
/// resilient publisher (per append) and the experiment trial runner (per
/// trial).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds (doubles per
    /// retry).
    pub backoff_ms_base: u64,
    /// Ceiling on any single backoff, in milliseconds.
    pub backoff_ms_cap: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_ms_base: 1,
            backoff_ms_cap: 8,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry `retry_index + 1`: the base doubled
    /// `retry_index` times, capped; saturates rather than overflowing.
    pub fn backoff(&self, retry_index: u32) -> Duration {
        let ms = self
            .backoff_ms_base
            .saturating_mul(1u64 << retry_index.min(16))
            .min(self.backoff_ms_cap);
        Duration::from_millis(ms)
    }
}

/// Which rung of the ladder the publisher is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeRung {
    /// Appending to the primary sink.
    Primary,
    /// Appending to the spill sink.
    Spill,
    /// Dropping events (with a counter).
    Drop,
}

impl DegradeRung {
    /// Stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DegradeRung::Primary => "primary",
            DegradeRung::Spill => "spill",
            DegradeRung::Drop => "drop",
        }
    }
}

/// What the ladder did, for the deterministic degraded report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradeReport {
    /// Retried append attempts (beyond each first try).
    pub retries: u64,
    /// Tail repairs run between attempts.
    pub repairs: u64,
    /// Events diverted to the spill sink.
    pub spilled: u64,
    /// Events dropped outright. Every drop is visible here — the
    /// stream never has a silent gap.
    pub dropped: u64,
    /// Sync (durability) failures swallowed.
    pub sync_failures: u64,
    /// Sequence number of the first spilled event, when any was.
    pub first_spilled_seq: Option<u64>,
}

/// The retry/spill/drop ladder over a primary [`EventPublisher`].
pub struct ResilientPublisher<'a> {
    primary: Box<dyn EventPublisher + 'a>,
    spill_factory: Box<dyn FnMut() -> Result<Box<dyn EventPublisher + 'a>, JournalError> + 'a>,
    spill: Option<Box<dyn EventPublisher + 'a>>,
    rung: DegradeRung,
    policy: RetryPolicy,
    report: DegradeReport,
}

impl std::fmt::Debug for ResilientPublisher<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientPublisher")
            .field("rung", &self.rung)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

impl<'a> ResilientPublisher<'a> {
    /// Wraps `primary`; `spill_factory` is called (once) if the ladder
    /// ever needs the spill rung.
    pub fn new(
        primary: Box<dyn EventPublisher + 'a>,
        spill_factory: impl FnMut() -> Result<Box<dyn EventPublisher + 'a>, JournalError> + 'a,
        policy: RetryPolicy,
    ) -> ResilientPublisher<'a> {
        ResilientPublisher {
            primary,
            spill_factory: Box::new(spill_factory),
            spill: None,
            rung: DegradeRung::Primary,
            policy,
            report: DegradeReport::default(),
        }
    }

    /// Current rung.
    pub fn rung(&self) -> DegradeRung {
        self.rung
    }

    /// What the ladder has done so far.
    pub fn report(&self) -> DegradeReport {
        self.report
    }

    /// Bounded-retry append to the primary. `Ok` when one attempt
    /// lands; `Err` when every attempt (with inter-attempt repair)
    /// failed.
    fn try_primary(&mut self, event: &Event) -> Result<(), JournalError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.report.retries += 1;
                if self.primary.repair().is_ok() {
                    self.report.repairs += 1;
                }
                std::thread::sleep(self.policy.backoff(attempt - 1));
            }
            match self.primary.publish(event) {
                Ok(()) => return Ok(()),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Sends `event` to the spill sink, opening it on first use; drops
    /// (with counter) when the spill rung itself fails.
    fn spill_or_drop(&mut self, event: &Event) {
        if self.spill.is_none() {
            match (self.spill_factory)() {
                Ok(sink) => self.spill = Some(sink),
                Err(_) => {
                    self.rung = DegradeRung::Drop;
                    self.report.dropped += 1;
                    return;
                }
            }
        }
        let sink = self.spill.as_mut().expect("spill sink just ensured");
        match sink.publish(event) {
            Ok(()) => {
                self.rung = DegradeRung::Spill;
                self.report.spilled += 1;
                if self.report.first_spilled_seq.is_none() {
                    self.report.first_spilled_seq = Some(event.seq);
                }
            }
            Err(_) => {
                self.rung = DegradeRung::Drop;
                self.report.dropped += 1;
            }
        }
    }
}

impl EventPublisher for ResilientPublisher<'_> {
    /// Never returns an error: the ladder absorbs every sink failure
    /// into a retry, a spill, or a counted drop.
    fn publish(&mut self, event: &Event) -> Result<(), JournalError> {
        match self.rung {
            DegradeRung::Primary => {
                if self.try_primary(event).is_err() {
                    // Leave the primary file as a clean committed
                    // prefix before abandoning it.
                    let _ = self.primary.repair();
                    let _ = self.primary.sync();
                    self.spill_or_drop(event);
                }
            }
            DegradeRung::Spill | DegradeRung::Drop => self.spill_or_drop(event),
        }
        Ok(())
    }

    /// Durability failures are counted, not propagated — a missed fsync
    /// degrades crash-durability but must not halt decisions.
    fn sync(&mut self) -> Result<(), JournalError> {
        let target = match self.rung {
            DegradeRung::Primary => &mut self.primary,
            DegradeRung::Spill | DegradeRung::Drop => match self.spill.as_mut() {
                Some(s) => s,
                None => return Ok(()),
            },
        };
        if target.sync().is_err() {
            self.report.sync_failures += 1;
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), JournalError> {
        if self.primary.close().is_err() {
            self.report.sync_failures += 1;
        }
        if let Some(s) = self.spill.as_mut() {
            if s.close().is_err() {
                self.report.sync_failures += 1;
            }
        }
        Ok(())
    }

    /// The primary's byte position while on the primary rung; `None`
    /// once degraded (a spilled stream cannot back byte-offset
    /// checkpoints).
    fn bytes_logged(&self) -> Option<u64> {
        match self.rung {
            DegradeRung::Primary => self.primary.bytes_logged(),
            DegradeRung::Spill | DegradeRung::Drop => None,
        }
    }

    fn pressure(&self) -> SinkPressure {
        match self.rung {
            DegradeRung::Primary => SinkPressure::Ok,
            DegradeRung::Spill | DegradeRung::Drop => SinkPressure::Degraded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::faultio::{FaultSink, IoFaultPlan, WriteFault};
    use crate::publish::{JsonlPublisher, MemoryPublisher};
    use crate::replay::{replay_stream_bytes, replay_stream_bytes_from};
    use mcast_core::UserId;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn ev(seq: u64) -> Event {
        Event {
            at_us: seq * 10,
            seq,
            kind: EventKind::UserJoin {
                user: UserId(seq as u32),
            },
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mcast_resilient_{name}_{}", std::process::id()))
    }

    /// The backoff doubles from the base up to the cap, and saturates
    /// where a plain multiply would overflow.
    #[test]
    fn backoff_doubles_caps_and_saturates() {
        let p = RetryPolicy {
            max_attempts: 2,
            backoff_ms_base: 10,
            backoff_ms_cap: 200,
        };
        let ms: Vec<u128> = (0..6).map(|k| p.backoff(k).as_millis()).collect();
        assert_eq!(ms, [10, 20, 40, 80, 160, 200]);
        assert_eq!(p.backoff(u32::MAX), Duration::from_millis(200));
        let huge = RetryPolicy {
            backoff_ms_base: u64::MAX / 2,
            backoff_ms_cap: u64::MAX,
            ..p
        };
        assert_eq!(huge.backoff(40), Duration::from_millis(u64::MAX));
    }

    #[test]
    fn transient_faults_recover_on_primary_via_repair_and_retry() {
        let path = tmp("transient.jsonl");
        let plan = Arc::new(IoFaultPlan::scripted(
            vec![(1, WriteFault::Short), (3, WriteFault::Interrupted)],
            Vec::new(),
            Vec::new(),
            None,
        ));
        let primary = JsonlPublisher::create_with_faults(&path, Some(plan)).unwrap();
        let mut p = ResilientPublisher::new(
            Box::new(primary),
            || Ok(Box::new(MemoryPublisher::new()) as Box<dyn EventPublisher>),
            RetryPolicy::default(),
        );
        for s in 0..5 {
            p.publish(&ev(s)).unwrap();
        }
        p.close().unwrap();
        assert_eq!(p.rung(), DegradeRung::Primary);
        let r = p.report();
        assert_eq!(r.retries, 2);
        assert_eq!(r.spilled, 0);
        assert_eq!(r.dropped, 0);
        drop(p);
        let replay = replay_stream_bytes(&std::fs::read(&path).unwrap());
        assert_eq!(replay.events.len(), 5);
        assert_eq!(replay.dropped_bytes, 0, "torn bytes must be repaired away");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn sticky_disk_full_spills_with_contiguous_sequence() {
        let primary_path = tmp("sticky_primary.jsonl");
        let spill_path = tmp("sticky_spill.jsonl");
        // Writes 0 and 1 land; from op 2 on the disk stays full. With 3
        // attempts per event, every later event exhausts its retries.
        let plan = Arc::new(IoFaultPlan::scripted(
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Some(2),
        ));
        let primary = JsonlPublisher::create_with_faults(&primary_path, Some(plan)).unwrap();
        let spill_path_cl = spill_path.clone();
        let mut p = ResilientPublisher::new(
            Box::new(primary),
            move || Ok(Box::new(JsonlPublisher::create(&spill_path_cl)?) as Box<dyn EventPublisher>),
            RetryPolicy::default(),
        );
        for s in 0..6 {
            p.publish(&ev(s)).unwrap();
        }
        p.close().unwrap();
        assert_eq!(p.rung(), DegradeRung::Spill);
        assert_eq!(p.pressure(), SinkPressure::Degraded);
        assert_eq!(p.bytes_logged(), None);
        let r = p.report();
        assert_eq!(r.spilled, 4);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.first_spilled_seq, Some(2));
        drop(p);
        let head = replay_stream_bytes(&std::fs::read(&primary_path).unwrap());
        assert_eq!(head.events.len(), 2);
        assert_eq!(head.dropped_bytes, 0);
        let tail = replay_stream_bytes_from(
            &std::fs::read(&spill_path).unwrap(),
            head.events.len() as u64,
        );
        assert_eq!(tail.events.len(), 4);
        let seqs: Vec<u64> = head
            .events
            .iter()
            .chain(tail.events.iter())
            .map(|e| e.seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5], "no gap across the spill");
        let _ = std::fs::remove_file(primary_path);
        let _ = std::fs::remove_file(spill_path);
    }

    #[test]
    fn failing_spill_drops_with_counter_never_errors() {
        let plan = Arc::new(IoFaultPlan::scripted(
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Some(0),
        ));
        let primary = FaultSink::new(MemoryPublisher::new(), plan);
        let mut p = ResilientPublisher::new(
            Box::new(primary),
            || {
                Err(JournalError::Serialize(
                    "spill unavailable in this test".to_string(),
                ))
            },
            RetryPolicy::default(),
        );
        for s in 0..4 {
            assert!(p.publish(&ev(s)).is_ok(), "publish must never error");
        }
        p.sync().unwrap();
        assert_eq!(p.rung(), DegradeRung::Drop);
        let r = p.report();
        assert_eq!(r.dropped, 4);
        assert_eq!(r.spilled, 0);
    }

    #[test]
    fn quiet_plan_is_byte_identical_to_a_plain_publisher() {
        let faulted = tmp("quiet_faulted.jsonl");
        let plain = tmp("quiet_plain.jsonl");
        let primary =
            JsonlPublisher::create_with_faults(&faulted, Some(Arc::new(IoFaultPlan::quiet())))
                .unwrap();
        let mut p = ResilientPublisher::new(
            Box::new(primary),
            || Ok(Box::new(MemoryPublisher::new()) as Box<dyn EventPublisher>),
            RetryPolicy::default(),
        );
        let mut q = JsonlPublisher::create(&plain).unwrap();
        for s in 0..8 {
            p.publish(&ev(s)).unwrap();
            q.publish(&ev(s)).unwrap();
        }
        p.close().unwrap();
        q.close().unwrap();
        assert_eq!(p.report(), DegradeReport::default());
        assert_eq!(p.bytes_logged(), q.bytes_logged());
        drop((p, q));
        assert_eq!(
            std::fs::read(&faulted).unwrap(),
            std::fs::read(&plain).unwrap()
        );
        let _ = std::fs::remove_file(faulted);
        let _ = std::fs::remove_file(plain);
    }
}
