//! Crash-safe append-only persistence: a checksummed JSONL journal
//! (write-ahead log) plus the atomic-write discipline every final
//! artifact goes through.
//!
//! Grown in PR 3 inside the experiments harness for sweep checkpoints;
//! it now lives here so the event-log subsystem and the harness share
//! one framing, one recovery rule, and one set of tests.
//!
//! ## Framing
//!
//! One record per line:
//!
//! ```text
//! <crc32-hex8> <payload-json>\n
//! ```
//!
//! The checksum is CRC-32 (IEEE) over the payload bytes. On replay, the
//! first line that is incomplete (no trailing newline), fails its
//! checksum, or does not parse marks the end of the valid prefix:
//! everything before it is recovered, everything from it on is discarded
//! and the file is truncated back to the valid prefix so new appends
//! never interleave with garbage.
//!
//! Two payload conventions ride on that framing:
//!
//! * **keyed records** (`{"key": ..., "value": ...}`) — the experiment
//!   runner's trial checkpoints ([`Journal::append`] / [`replay_bytes`]);
//! * **raw records** (any JSON document per line) — the controller's
//!   event stream ([`Journal::append_raw`] / [`replay_raw_bytes`]), where
//!   the caller owns the payload schema and the durability boundary
//!   ([`Journal::sync`] is called at epoch close, not per event).
//!
//! ## Atomic writes
//!
//! [`atomic_write`] writes into a same-directory temp file, fsyncs it,
//! and renames it over the destination, so readers (and crashed runs)
//! only ever observe either the old complete file or the new complete
//! file — never a partial one.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use serde::Value;

use crate::faultio::{IoFaultPlan, WriteFault};
use crate::harden::MAX_RECORD_BYTES;

/// The reflected CRC-32 (IEEE) of every byte value, built at compile
/// time: entry `i` is eight bitwise steps of the register `i`.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected) of `bytes`, one table lookup per
/// byte. The event log checksums every line once on publish and once on
/// replay, so at tens of thousands of events per run the byte-at-a-time
/// table is worth its 1 KiB.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Why a journal (or atomic write) operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// An I/O failure on the journal file or its directory.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error, rendered.
        message: String,
    },
    /// A record could not be serialized (e.g. a non-finite float), or a
    /// raw payload broke the one-record-per-line framing.
    Serialize(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, message } => {
                write!(f, "journal I/O error on {}: {message}", path.display())
            }
            JournalError::Serialize(m) => write!(f, "journal serialize error: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(path: &Path, e: &std::io::Error) -> JournalError {
    JournalError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// What a keyed-record journal replay recovered.
#[derive(Debug, Default)]
pub struct Replay {
    /// Valid records, in append order: `(key payload, value payload)`.
    pub records: Vec<(Value, Value)>,
    /// Bytes of valid prefix (the file is truncated to this length).
    pub valid_len: u64,
    /// Bytes dropped past the valid prefix (crash-truncated or corrupt
    /// tail). Zero on a clean journal.
    pub dropped_bytes: u64,
    /// Why the tail was dropped, when it was.
    pub tail_reason: Option<String>,
}

/// What a raw-record journal replay recovered.
#[derive(Debug, Default)]
pub struct RawReplay {
    /// Valid payload documents, in append order.
    pub payloads: Vec<Value>,
    /// Bytes of valid prefix.
    pub valid_len: u64,
    /// Bytes dropped past the valid prefix. Zero on a clean journal.
    pub dropped_bytes: u64,
    /// Why the tail was dropped, when it was.
    pub tail_reason: Option<String>,
}

/// The file plus the byte length of its fully-committed line prefix,
/// guarded together: `good_len` is what [`Journal::repair_tail`]
/// truncates back to after a torn (injected or real) append.
#[derive(Debug)]
struct JournalInner {
    file: File,
    good_len: u64,
}

/// The append-only journal. Appends are serialized through an internal
/// mutex.
#[derive(Debug)]
pub struct Journal {
    inner: Mutex<JournalInner>,
    path: PathBuf,
    faults: Option<Arc<IoFaultPlan>>,
}

impl Journal {
    /// Creates (or truncates) the journal at `path` for a fresh run.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file or its parents cannot be made.
    pub fn create(path: &Path) -> Result<Journal, JournalError> {
        Journal::create_with_faults(path, None)
    }

    /// [`Journal::create`] with a scripted IO-fault plan consulted on
    /// every write and sync — the injection seam the resilience tests
    /// and `--io-chaos` runs use. `None` behaves exactly like
    /// [`Journal::create`].
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file or its parents cannot be made.
    pub fn create_with_faults(
        path: &Path,
        faults: Option<Arc<IoFaultPlan>>,
    ) -> Result<Journal, JournalError> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        }
        let file = File::create(path).map_err(|e| io_err(path, &e))?;
        Ok(Journal {
            inner: Mutex::new(JournalInner { file, good_len: 0 }),
            path: path.to_path_buf(),
            faults,
        })
    }

    /// Opens the journal at `path` for a resumed run: replays the valid
    /// keyed-record prefix, truncates any crash-damaged tail, and
    /// positions the journal for appending. A missing file resumes to an
    /// empty journal.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file cannot be read or reopened.
    pub fn resume(path: &Path) -> Result<(Journal, Replay), JournalError> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        }
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(path, &e)),
        };
        let replay = replay_bytes(&bytes);
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        file.set_len(replay.valid_len)
            .map_err(|e| io_err(path, &e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err(path, &e))?;
        Ok((
            Journal {
                inner: Mutex::new(JournalInner {
                    file,
                    good_len: replay.valid_len,
                }),
                path: path.to_path_buf(),
                faults: None,
            },
            replay,
        ))
    }

    /// Appends one `(key, value)` record, durably: the record is written
    /// as a single checksummed line, flushed, and fsynced.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on serialization or I/O failure. The caller may
    /// keep running without durability (degraded completion).
    pub fn append(&self, key: &Value, value: &Value) -> Result<(), JournalError> {
        let payload = serde_json::to_string(&Value::Object(vec![
            ("key".to_string(), key.clone()),
            ("value".to_string(), value.clone()),
        ]))
        .map_err(|e| JournalError::Serialize(e.to_string()))?;
        self.append_line(&payload)?;
        self.sync()
    }

    /// Appends one raw JSON payload as a checksummed line **without
    /// fsyncing**. The caller picks the durability boundary by calling
    /// [`Journal::sync`] — the event log syncs once per epoch, not per
    /// event, so a crash loses at most the epoch in flight (the crc32
    /// framing recovers the valid prefix either way).
    ///
    /// # Errors
    ///
    /// [`JournalError::Serialize`] if `payload` contains a newline (it
    /// would break the one-record-per-line framing); [`JournalError::Io`]
    /// on write failure.
    pub fn append_raw(&self, payload: &str) -> Result<(), JournalError> {
        if payload.contains('\n') {
            return Err(JournalError::Serialize(
                "raw payload contains a newline".to_string(),
            ));
        }
        self.append_line(payload)
    }

    fn append_line(&self, payload: &str) -> Result<(), JournalError> {
        let line = format!("{:08x} {payload}\n", crc32(payload.as_bytes()));
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(plan) = &self.faults {
            if let Some(fault) = plan.next_write_fate() {
                if fault == WriteFault::Short {
                    // The torn prefix really lands on disk: recovery has
                    // something real to truncate.
                    let _ = inner.file.write_all(&line.as_bytes()[..line.len() / 2]);
                }
                return Err(IoFaultPlan::write_error(fault, &self.path));
            }
        }
        inner
            .file
            .write_all(line.as_bytes())
            .map_err(|e| io_err(&self.path, &e))?;
        inner.good_len += line.len() as u64;
        Ok(())
    }

    /// Flushes and fsyncs everything appended so far.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on flush/fsync failure.
    pub fn sync(&self) -> Result<(), JournalError> {
        if let Some(plan) = &self.faults {
            if plan.next_sync_fails() {
                return Err(JournalError::Io {
                    path: self.path.clone(),
                    message: "injected fsync failure".to_string(),
                });
            }
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .file
            .flush()
            .and_then(|()| inner.file.sync_data())
            .map_err(|e| io_err(&self.path, &e))
    }

    /// Truncates the file back to the last fully-committed line and
    /// repositions for appending — the repair step a resilient writer
    /// runs between a failed (possibly torn) append and its retry, so
    /// the retry never lands after garbage.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the truncate/seek itself fails.
    pub fn repair_tail(&self) -> Result<(), JournalError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let good = inner.good_len;
        inner
            .file
            .set_len(good)
            .and_then(|_| inner.file.seek(SeekFrom::End(0)))
            .map(|_| ())
            .map_err(|e| io_err(&self.path, &e))
    }

    /// Bytes of fully-committed (whole-line) prefix written so far.
    pub fn committed_len(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .good_len
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Parses journal bytes into the valid keyed-record prefix. Stops at the
/// first incomplete, corrupt, or unparseable line — a crash can only
/// damage the tail, so everything past the first bad line is untrusted.
pub fn replay_bytes(bytes: &[u8]) -> Replay {
    let mut replay = Replay::default();
    let raw = replay_raw_inner(bytes);
    replay.tail_reason = raw.tail_reason;
    let mut offset = 0u64;
    for (i, doc) in raw.payloads.iter().enumerate() {
        let (key, value) = match (doc.get("key"), doc.get("value")) {
            (Some(k), Some(v)) => (k.clone(), v.clone()),
            (None, _) => {
                replay.tail_reason = Some("record missing `key`".to_string());
                break;
            }
            (_, None) => {
                replay.tail_reason = Some("record missing `value`".to_string());
                break;
            }
        };
        replay.records.push((key, value));
        offset = raw.line_ends[i];
    }
    replay.valid_len = offset;
    replay.dropped_bytes = bytes.len() as u64 - offset;
    replay
}

/// Like [`RawReplay`] but also tracking where each valid line ends, so
/// keyed replay can truncate mid-prefix when a key/value envelope is
/// missing.
struct RawReplayInner {
    payloads: Vec<Value>,
    line_ends: Vec<u64>,
    tail_reason: Option<String>,
}

fn replay_raw_inner(bytes: &[u8]) -> RawReplayInner {
    let mut payloads = Vec::new();
    let mut line_ends = Vec::new();
    let mut tail_reason = None;
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        // Bound the line scan: a (corrupt) record longer than the cap
        // ends the prefix before the JSON parser is asked to allocate
        // for it.
        let cap = MAX_RECORD_BYTES as usize;
        let scan = &rest[..rest.len().min(cap + 1)];
        let Some(nl) = scan.iter().position(|&b| b == b'\n') else {
            tail_reason = Some(if rest.len() > cap {
                format!("record at byte {offset} exceeds the {MAX_RECORD_BYTES}-byte cap")
            } else {
                format!("incomplete final record (no newline) at byte {offset}")
            });
            break;
        };
        match parse_line(&rest[..nl]) {
            Ok(doc) => {
                offset += nl + 1;
                payloads.push(doc);
                line_ends.push(offset as u64);
            }
            Err(reason) => {
                tail_reason = Some(format!("{reason} (at byte {offset})"));
                break;
            }
        }
    }
    RawReplayInner {
        payloads,
        line_ends,
        tail_reason,
    }
}

/// Parses journal bytes into the valid raw-payload prefix: each line's
/// checksum must hold and its payload must be well-formed JSON. The
/// first bad line ends the prefix.
pub fn replay_raw_bytes(bytes: &[u8]) -> RawReplay {
    let inner = replay_raw_inner(bytes);
    let valid_len = inner.line_ends.last().copied().unwrap_or(0);
    RawReplay {
        payloads: inner.payloads,
        valid_len,
        dropped_bytes: bytes.len() as u64 - valid_len,
        tail_reason: inner.tail_reason,
    }
}

fn parse_line(line: &[u8]) -> Result<Value, String> {
    if line.len() < 10 || line[8] != b' ' {
        return Err("malformed record framing".to_string());
    }
    let crc_hex = std::str::from_utf8(&line[..8]).map_err(|_| "non-UTF-8 checksum".to_string())?;
    let expected = u32::from_str_radix(crc_hex, 16).map_err(|_| "bad checksum hex".to_string())?;
    let payload = &line[9..];
    let actual = crc32(payload);
    if actual != expected {
        return Err(format!(
            "checksum mismatch ({actual:08x} != {expected:08x})"
        ));
    }
    let payload = std::str::from_utf8(payload).map_err(|_| "non-UTF-8 payload".to_string())?;
    serde_json::parse_value(payload).map_err(|e| format!("bad payload JSON: {e}"))
}

/// Writes `contents` to `path` atomically: same-directory temp file,
/// fsync, rename over the destination, best-effort directory fsync. A
/// crash mid-write leaves the previous file intact.
///
/// # Errors
///
/// Propagates I/O errors (the temp file is cleaned up on failure).
pub fn atomic_write(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    atomic_write_with(path, contents, None)
}

/// [`atomic_write`] with a scripted IO-fault plan consulted at each of
/// its three fallible steps (temp-file write, temp-file fsync, rename).
/// Every injected failure upholds the atomicity contract: the
/// destination keeps its previous contents and no temp file survives.
///
/// # Errors
///
/// Propagates real or injected I/O errors (the temp file is cleaned up
/// on failure either way).
pub fn atomic_write_with(
    path: &Path,
    contents: &[u8],
    faults: Option<&IoFaultPlan>,
) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    fs::create_dir_all(&dir)?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artifact");
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    let result = (|| {
        let mut f = File::create(&tmp)?;
        if let Some(fault) = faults.and_then(IoFaultPlan::next_write_fate) {
            if fault == WriteFault::Short {
                // Leave a genuinely torn temp file for the cleanup path
                // to erase — the destination is never touched.
                let _ = f.write_all(&contents[..contents.len() / 2]);
            }
            return Err(fault.to_io_error());
        }
        f.write_all(contents)?;
        if faults.is_some_and(IoFaultPlan::next_sync_fails) {
            return Err(std::io::Error::other("injected fsync failure"));
        }
        f.sync_all()?;
        drop(f);
        if faults.is_some_and(IoFaultPlan::next_rename_fails) {
            return Err(std::io::Error::other("injected rename failure"));
        }
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    } else if let Ok(d) = File::open(&dir) {
        // Make the rename itself durable where the platform allows it.
        let _ = d.sync_all();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mcast_journal_{name}_{}", std::process::id()))
    }

    fn k(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    /// The bitwise CRC-32 the table is built from: the oracle the
    /// table-driven [`crc32`] must match on every input.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        #[test]
        fn crc32_table_matches_the_bitwise_oracle(
            bytes in proptest::collection::vec(0u8..=255, 0..600),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }

    #[test]
    fn append_then_replay_roundtrips() {
        let path = tmp("roundtrip.jsonl");
        let j = Journal::create(&path).unwrap();
        j.append(&k("a"), &Value::Int(1)).unwrap();
        j.append(&k("b"), &Value::Float(2.5)).unwrap();
        drop(j);
        let (_, replay) = Journal::resume(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.dropped_bytes, 0);
        assert_eq!(replay.records[0], (k("a"), Value::Int(1)));
        assert_eq!(replay.records[1], (k("b"), Value::Float(2.5)));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn truncated_tail_is_dropped_and_file_repaired() {
        let path = tmp("truncate.jsonl");
        let j = Journal::create(&path).unwrap();
        j.append(&k("a"), &Value::Int(1)).unwrap();
        j.append(&k("b"), &Value::Int(2)).unwrap();
        drop(j);
        let full = fs::read(&path).unwrap();
        // Cut the second record mid-line.
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (j2, replay) = Journal::resume(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.dropped_bytes > 0);
        assert!(replay.tail_reason.is_some());
        // The file was truncated back to the valid prefix; a new append
        // lands cleanly after record one.
        j2.append(&k("c"), &Value::Int(3)).unwrap();
        drop(j2);
        let (_, replay2) = Journal::resume(&path).unwrap();
        assert_eq!(replay2.records.len(), 2);
        assert_eq!(replay2.records[1].0, k("c"));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn corrupt_byte_fails_checksum() {
        let path = tmp("corrupt.jsonl");
        let j = Journal::create(&path).unwrap();
        j.append(&k("a"), &Value::Int(7)).unwrap();
        drop(j);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        let replay = replay_bytes(&bytes);
        assert_eq!(replay.records.len(), 0);
        assert!(replay.tail_reason.unwrap().contains("checksum"));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn resume_missing_file_is_empty() {
        let path = tmp("missing.jsonl");
        let _ = fs::remove_file(&path);
        let (_, replay) = Journal::resume(&path).unwrap();
        assert!(replay.records.is_empty());
        let _ = fs::remove_file(path);
    }

    #[test]
    fn raw_appends_replay_in_order_and_survive_torn_tails() {
        let path = tmp("raw.jsonl");
        let j = Journal::create(&path).unwrap();
        j.append_raw("{\"n\":1}").unwrap();
        j.append_raw("{\"n\":2}").unwrap();
        j.sync().unwrap();
        j.append_raw("{\"n\":3}").unwrap();
        j.sync().unwrap();
        drop(j);
        let bytes = fs::read(&path).unwrap();
        let replay = replay_raw_bytes(&bytes);
        assert_eq!(replay.payloads.len(), 3);
        assert_eq!(replay.dropped_bytes, 0);
        assert_eq!(replay.payloads[2].get("n"), Some(&Value::Int(3)));
        // A torn tail recovers the two complete records.
        let torn = replay_raw_bytes(&bytes[..bytes.len() - 4]);
        assert_eq!(torn.payloads.len(), 2);
        assert!(torn.dropped_bytes > 0);
        assert!(torn.tail_reason.is_some());
        assert_eq!(&bytes[..torn.valid_len as usize], {
            let clean = replay_raw_bytes(&bytes[..torn.valid_len as usize]);
            assert_eq!(clean.payloads.len(), 2);
            &bytes[..torn.valid_len as usize]
        });
        let _ = fs::remove_file(path);
    }

    #[test]
    fn raw_append_rejects_embedded_newline() {
        let path = tmp("rawnl.jsonl");
        let j = Journal::create(&path).unwrap();
        assert!(matches!(
            j.append_raw("{\"a\":\n1}"),
            Err(JournalError::Serialize(_))
        ));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn keyed_replay_truncates_at_missing_envelope() {
        // A raw (non-keyed) record in a keyed journal ends the prefix.
        let path = tmp("envelope.jsonl");
        let j = Journal::create(&path).unwrap();
        j.append(&k("a"), &Value::Int(1)).unwrap();
        j.append_raw("{\"n\":1}").unwrap();
        j.sync().unwrap();
        drop(j);
        let replay = replay_bytes(&fs::read(&path).unwrap());
        assert_eq!(replay.records.len(), 1);
        assert!(replay.tail_reason.unwrap().contains("key"));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = tmp("atomic_dir");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("out.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind");
        let _ = fs::remove_dir_all(dir);
    }
}
