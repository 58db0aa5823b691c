//! # `cut-store` — filesystem durability for the cut-query engine
//!
//! The [`cut_engine::GraphStore`] implementation: one directory holds, per
//! graph, a **write-ahead log** of applied `(request, response)` pairs and
//! an optional **snapshot** of wholesale graph state (the serialized
//! [`cut_engine::GraphExport`] trace). Together they make every graph
//! recoverable after a crash — and evictable while the process lives: a
//! cold graph **spills** to a snapshot and faults back in on first touch.
//!
//! ## WAL record format
//!
//! One record per line, framed so that torn tails are *detected and
//! truncated*, never misparsed:
//!
//! ```text
//! <seq:016x> <len:08x> <sum:016x> <payload>\n
//! ```
//!
//! `seq` is a per-graph sequence number starting at 1 and incrementing by
//! one per record; `len` is the payload's byte length (the payload is read
//! *by length*, so it may contain anything); `sum` is FNV-1a over the
//! string `"{seq:016x} {len:08x} {payload}"`. The payload is the request's
//! [`cut_engine::Request::to_trace_line`] form, a TAB, and the response's
//! [`cut_engine::Response::to_trace_line`] form — the lossless trace codec
//! doubles as the on-disk codec (trace lines never contain a raw TAB:
//! names and messages are percent-encoded). A decoder accepts exactly the
//! records that were completely written: any truncation point and any
//! single-byte corruption yields a strict valid prefix (see
//! [`decode_records`], and `tests/wal_codec.rs` for the property tests).
//!
//! ## Snapshots, compaction, spill
//!
//! A snapshot file carries one frame — `snap <wal_seq:016x> <len:08x>
//! <sum:016x>\n` followed by `len` payload bytes — where `wal_seq` is the
//! **watermark**: the last WAL record folded into the snapshot. Snapshots
//! are written to a `.tmp` sibling and atomically renamed, so a crash
//! mid-snapshot leaves an orphan tmp (deleted at the next [`Store::open`])
//! and the previous snapshot intact. After the rename the WAL is
//! compacted down to its **last record only** (also via tmp + rename):
//! recovery needs nothing at or below the watermark, but the last record
//! must survive so a restarting client can disambiguate "was my un-acked
//! request applied?" ([`Store::durable_count`] / [`Store::last_record`]).
//!
//! A **spill** writes the same snapshot frame (counted separately) when
//! the engine evicts a cold graph under
//! [`cut_engine::EngineConfig::resident_cap`].
//!
//! A graph asks for a periodic snapshot once *both* of these sit past its
//! watermark: at least [`StoreOptions::snapshot_every`] WAL records (the
//! record floor), and at least as many WAL bytes as its last snapshot or
//! spill frame took (the growth ratio Redis uses to trigger AOF
//! rewrites). A snapshot rewrites the whole graph, so the byte rule makes
//! every logged byte cost about one byte of snapshot rewrite on average,
//! however large the graph grows, and bounds recovery's replay at about
//! one snapshot's worth of WAL beyond the record floor.
//!
//! ## Recovery
//!
//! [`Store::open`] scans the directory once: orphan tmps are deleted,
//! torn WAL tails truncated, and a WAL whose last record is a `drop`
//! tombstone is garbage-collected with its snapshot (the crash hit
//! between the tombstone append and the file deletions). Graph state is
//! then faulted in lazily: [`cut_engine::GraphStore::load`] returns the
//! snapshot plus the WAL records past its watermark, and the engine
//! replays the requests through normal execution — reproducing epochs,
//! cache contents, and LRU recency exactly.
//!
//! ```
//! use cut_engine::{GraphSpec, GraphStore, Request, Response};
//! use cut_store::{Store, StoreOptions};
//!
//! let dir = std::env::temp_dir().join(format!("cut_store_doc_{}", std::process::id()));
//! let store = Store::open(&dir, StoreOptions::default()).unwrap();
//! let request = Request::Create { name: "ring".into(), spec: GraphSpec::Cycle { n: 8 } };
//! let response = Response::Created { name: "ring".into(), n: 8, m: 8 };
//! store.log("ring", &request, &response);
//! assert_eq!(store.durable_count("ring"), 1);
//! drop(store);
//!
//! // A new process (here: a new Store) sees the record.
//! let store = Store::open(&dir, StoreOptions::default()).unwrap();
//! assert!(store.contains("ring"));
//! let (seq, req, _resp) = store.last_record("ring").unwrap();
//! assert_eq!((seq, req), (1, request.to_trace_line()));
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cut_engine::{GraphStore, RecoveredGraph, Request, Response};
use cut_graph::hash::Fnv1a;

/// Bytes in a WAL record header: `<seq:016x> <len:08x> <sum:016x> `.
const WAL_HEADER: usize = 16 + 1 + 8 + 1 + 16 + 1;
/// Bytes in a snapshot header: `snap <seq:016x> <len:08x> <sum:016x>\n`.
const SNAP_HEADER: usize = 5 + 16 + 1 + 8 + 1 + 16 + 1;

/// The checksum a record or snapshot frame carries: FNV-1a over the
/// canonical header fields and the payload, so a change to *any* byte of
/// the frame (sequence, length, checksum itself, or payload) invalidates
/// it. The hash is fed the header and then the payload as one stream — the
/// bytes of `"{seq:016x} {len:08x} {payload}"` without copying the payload
/// into a formatted string first.
fn frame_sum(seq: u64, payload: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(format!("{seq:016x} {len:08x} ", len = payload.len()).as_bytes());
    h.write(payload.as_bytes());
    h.finish()
}

/// Encode one WAL record: `<seq:016x> <len:08x> <sum:016x> <payload>\n`.
///
/// The inverse of one [`decode_records`] step. Public so the codec
/// property tests (and any external tooling reading a store directory)
/// share the exact production framing.
pub fn encode_record(seq: u64, payload: &str) -> String {
    format!(
        "{seq:016x} {len:08x} {sum:016x} {payload}\n",
        len = payload.len(),
        sum = frame_sum(seq, payload)
    )
}

/// Decode one record at the front of `bytes`: `(seq, payload, bytes
/// consumed)`, or `None` if no complete, canonical, checksum-valid record
/// starts there.
fn decode_one(bytes: &[u8]) -> Option<(u64, String, usize)> {
    if bytes.len() < WAL_HEADER {
        return None;
    }
    let header = std::str::from_utf8(&bytes[..WAL_HEADER]).ok()?;
    let seq = u64::from_str_radix(header.get(0..16)?, 16).ok()?;
    let len = usize::from_str_radix(header.get(17..25)?, 16).ok()?;
    let sum = u64::from_str_radix(header.get(26..42)?, 16).ok()?;
    // Canonical-form check: re-encoding the parsed fields must reproduce
    // the raw header bytes exactly. Without it, `from_str_radix`'s
    // tolerance (uppercase hex, a `+` sign eating a leading zero) would
    // let some single-byte corruptions parse back to the same values —
    // and then pass the checksum.
    let canonical = format!("{seq:016x} {len:08x} {sum:016x} ");
    if canonical.as_bytes() != &bytes[..WAL_HEADER] {
        return None;
    }
    let total = WAL_HEADER + len + 1;
    if bytes.len() < total {
        return None;
    }
    let payload = std::str::from_utf8(&bytes[WAL_HEADER..WAL_HEADER + len]).ok()?;
    if bytes[WAL_HEADER + len] != b'\n' {
        return None;
    }
    if frame_sum(seq, payload) != sum {
        return None;
    }
    Some((seq, payload.to_string(), total))
}

/// Decode the valid prefix of a WAL: `(records, bytes consumed)`.
///
/// Stops at the first incomplete, corrupt, or out-of-sequence record
/// (each record's `seq` must be its predecessor's plus one; the first may
/// start anywhere — compaction leaves a WAL whose sole record carries the
/// snapshot watermark). `consumed` is the byte offset of the valid
/// prefix's end: [`Store::open`] truncates torn files to exactly there.
pub fn decode_records(bytes: &[u8]) -> (Vec<(u64, String)>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut expect: Option<u64> = None;
    while let Some((seq, payload, used)) = decode_one(&bytes[pos..]) {
        if expect.is_some_and(|e| seq != e) {
            break;
        }
        expect = Some(seq + 1);
        records.push((seq, payload));
        pos += used;
    }
    (records, pos)
}

/// The header line of a snapshot file; the `state` payload follows it.
fn snapshot_header(watermark: u64, state: &str) -> String {
    format!(
        "snap {watermark:016x} {len:08x} {sum:016x}\n",
        len = state.len(),
        sum = frame_sum(watermark, state)
    )
}

/// Decode a snapshot file: `(watermark, state)`, or `None` when the file
/// is not one complete, canonical, checksum-valid frame.
fn decode_snapshot(bytes: &[u8]) -> Option<(u64, String)> {
    if bytes.len() < SNAP_HEADER {
        return None;
    }
    let header = std::str::from_utf8(&bytes[..SNAP_HEADER]).ok()?;
    let body = header.strip_prefix("snap ")?;
    let watermark = u64::from_str_radix(body.get(0..16)?, 16).ok()?;
    let len = usize::from_str_radix(body.get(17..25)?, 16).ok()?;
    let sum = u64::from_str_radix(body.get(26..42)?, 16).ok()?;
    let canonical = format!("snap {watermark:016x} {len:08x} {sum:016x}\n");
    if canonical.as_bytes() != &bytes[..SNAP_HEADER] {
        return None;
    }
    if bytes.len() != SNAP_HEADER + len {
        return None;
    }
    let state = std::str::from_utf8(&bytes[SNAP_HEADER..]).ok()?;
    if frame_sum(watermark, state) != sum {
        return None;
    }
    Some((watermark, state.to_string()))
}

/// Split a WAL payload back into `(request line, response line)`.
///
/// The separator TAB is unambiguous: trace lines percent-encode raw tabs
/// inside names and error messages.
fn split_payload(payload: &str) -> (&str, &str) {
    let mut parts = payload.splitn(2, '\t');
    let request = parts.next().unwrap_or("");
    let response = parts.next().unwrap_or("");
    (request, response)
}

/// Hex-encode a graph name for use as a filename stem (graph names are
/// arbitrary UTF-8; filenames must not be).
fn hex_name(name: &str) -> String {
    name.bytes().map(|b| format!("{b:02x}")).collect()
}

/// Decode a filename stem back to the graph name.
fn unhex_name(stem: &str) -> Option<String> {
    if !stem.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::with_capacity(stem.len() / 2);
    for i in (0..stem.len()).step_by(2) {
        bytes.push(u8::from_str_radix(stem.get(i..i + 2)?, 16).ok()?);
    }
    String::from_utf8(bytes).ok()
}

/// Knobs for [`Store::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// The record floor of the snapshot cadence: a graph asks for a
    /// fresh snapshot ([`cut_engine::GraphStore::wants_snapshot`]) once at
    /// least this many WAL records *and* at least its last snapshot
    /// frame's size in WAL bytes sit past its watermark (see the
    /// [module docs](self)). `0` disables periodic snapshots (spill still
    /// writes them).
    pub snapshot_every: u64,
    /// `fsync` file data after every append and snapshot. A SIGKILL (or
    /// panic) never loses flushed writes — the OS page cache survives the
    /// process — so this is a *power-loss* policy knob, off by default.
    pub fsync: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self { snapshot_every: 64, fsync: false }
    }
}

/// What [`Store::open`]'s directory scan found and repaired, exported as
/// the `store_recovered_*` and `store_recovery_*` metric families.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Graphs with durable state after the scan.
    pub graphs: u64,
    /// Valid WAL records across all graphs.
    pub wal_records: u64,
    /// WAL files whose tail was torn (partially written record) and
    /// truncated back to the last complete record.
    pub torn_tails: u64,
    /// Graphs garbage-collected because their WAL ended in a `drop`
    /// tombstone (the crash hit between the tombstone and the deletes).
    pub tombstones_gcd: u64,
    /// Orphan `.tmp` files (interrupted snapshot or compaction) deleted.
    pub orphan_tmps: u64,
}

/// A point-in-time copy of the store's operation counters, exported as
/// the remaining `store_*` metric families.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// WAL records appended (tombstones included).
    pub wal_appends: u64,
    /// Periodic snapshots written (compaction-triggered).
    pub snapshots: u64,
    /// WAL compactions performed (one per snapshot or spill).
    pub compactions: u64,
    /// Cold graphs spilled to disk.
    pub spills: u64,
    /// Graphs faulted back in (successful [`GraphStore::load`] calls).
    pub fault_ins: u64,
    /// WAL records handed to the engine for replay across all fault-ins.
    pub replayed: u64,
}

#[derive(Default)]
struct Counters {
    wal_appends: AtomicU64,
    snapshots: AtomicU64,
    compactions: AtomicU64,
    spills: AtomicU64,
    fault_ins: AtomicU64,
    replayed: AtomicU64,
}

/// Per-graph bookkeeping: where the WAL's sequence stands, what the
/// snapshot covers, and the open append handle.
struct GraphFile {
    /// Sequence number the next append gets (last durable = this - 1).
    next_seq: u64,
    /// WAL seq the current snapshot covers (0 = no snapshot).
    watermark: u64,
    /// Bytes of the WAL records past the watermark: what recovery would
    /// replay, and what must outgrow `snap_bytes` before the next
    /// snapshot.
    wal_bytes: u64,
    /// Byte length of the last snapshot frame, periodic or spill (0 = no
    /// snapshot).
    snap_bytes: u64,
    /// Open append handle; `None` until the first append (and after a
    /// compaction rename invalidates the old handle).
    file: Option<File>,
    /// The most recent record, kept for compaction (the rewritten WAL
    /// holds exactly this record) and [`Store::last_record`].
    last: Option<(u64, String)>,
}

impl GraphFile {
    /// The entry of a graph with nothing durable yet.
    fn empty() -> Self {
        Self { next_seq: 1, watermark: 0, wal_bytes: 0, snap_bytes: 0, file: None, last: None }
    }
}

/// Crash injection for the recovery test harness: on the `after`-th event
/// matching `point` (`append`, `snapshot`, or `spill`), write only *half*
/// of the frame's bytes, flush, and abort the process — simulating a
/// crash mid-write at that exact point. Configured by the
/// `CUT_STORE_CRASH_POINT` / `CUT_STORE_CRASH_AFTER` environment
/// variables, read once at [`Store::open`].
struct CrashInjector {
    point: String,
    after: u64,
    hits: AtomicU64,
}

/// The filesystem-backed [`GraphStore`]: per-graph WAL + snapshot files
/// under one directory. See the [module docs](self) for formats and the
/// recovery protocol.
///
/// Thread-safe behind one internal lock: every shard of a sharded engine
/// holds the same `Store` through an `Arc` and calls it under its own
/// shard lock, so appends from different shards take this lock in turn.
pub struct Store {
    dir: PathBuf,
    opts: StoreOptions,
    inner: Mutex<BTreeMap<String, GraphFile>>,
    counters: Counters,
    recovery: RecoveryReport,
    crash: Option<CrashInjector>,
}

impl Store {
    /// Open (creating if needed) a store directory and run the recovery
    /// scan: delete orphan tmps, truncate torn WAL tails, garbage-collect
    /// tombstoned graphs, and register every graph with durable state.
    ///
    /// # Errors
    /// Propagates filesystem errors (directory creation, scan, repair
    /// I/O). A syntactically invalid file is repaired or ignored, never
    /// an error.
    pub fn open(dir: impl AsRef<Path>, opts: StoreOptions) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut recovery = RecoveryReport::default();
        let mut names: Vec<String> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let Some(fname) = path.file_name().and_then(|f| f.to_str()) else { continue };
            if fname.ends_with(".tmp") {
                fs::remove_file(&path)?;
                recovery.orphan_tmps += 1;
                continue;
            }
            if let Some(stem) = fname.strip_prefix('g').and_then(|f| f.strip_suffix(".wal")) {
                if let Some(name) = unhex_name(stem) {
                    names.push(name);
                }
            } else if let Some(stem) = fname.strip_prefix('g').and_then(|f| f.strip_suffix(".snap"))
            {
                if let Some(name) = unhex_name(stem) {
                    names.push(name);
                }
            }
        }
        names.sort_unstable();
        names.dedup();

        let mut map = BTreeMap::new();
        for name in names {
            let wal_path = wal_path(&dir, &name);
            let snap_path = snap_path(&dir, &name);
            let wal_bytes = match fs::read(&wal_path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(e),
            };
            let (records, consumed) = decode_records(&wal_bytes);
            if consumed < wal_bytes.len() {
                // Torn tail: truncate back to the last complete record.
                let f = OpenOptions::new().write(true).open(&wal_path)?;
                f.set_len(consumed as u64)?;
                recovery.torn_tails += 1;
            }
            // An invalid snapshot counts as none: watermark 0, size 0.
            let (watermark, snap_bytes) = match fs::read(&snap_path) {
                Ok(bytes) => {
                    decode_snapshot(&bytes).map_or((0, 0), |(w, _)| (w, bytes.len() as u64))
                }
                Err(_) => (0, 0),
            };
            let tombstoned = records.last().is_some_and(|(_, payload)| {
                let (request, _) = split_payload(payload);
                matches!(Request::from_trace_line(request), Ok(Request::Drop { .. }))
            });
            if tombstoned {
                let _ = fs::remove_file(&snap_path);
                let _ = fs::remove_file(&wal_path);
                recovery.tombstones_gcd += 1;
                continue;
            }
            let last_seq = records.last().map(|(seq, _)| *seq).unwrap_or(0);
            if last_seq == 0 && watermark == 0 {
                // Nothing durable (e.g. a WAL torn before its first
                // record completed): forget the graph entirely.
                let _ = fs::remove_file(&wal_path);
                let _ = fs::remove_file(&snap_path);
                continue;
            }
            recovery.graphs += 1;
            recovery.wal_records += records.len() as u64;
            let wal_bytes = records
                .iter()
                .filter(|(seq, _)| *seq > watermark)
                .map(|(_, payload)| (WAL_HEADER + payload.len() + 1) as u64)
                .sum();
            map.insert(
                name,
                GraphFile {
                    next_seq: last_seq.max(watermark) + 1,
                    watermark,
                    wal_bytes,
                    snap_bytes,
                    file: None,
                    last: records.last().cloned(),
                },
            );
        }

        let crash = match (
            std::env::var("CUT_STORE_CRASH_POINT"),
            std::env::var("CUT_STORE_CRASH_AFTER"),
        ) {
            (Ok(point), Ok(after)) => after.parse().ok().map(|after| CrashInjector {
                point,
                after,
                hits: AtomicU64::new(0),
            }),
            _ => None,
        };
        Ok(Self {
            dir,
            opts,
            inner: Mutex::new(map),
            counters: Counters::default(),
            recovery,
            crash,
        })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What the opening scan found and repaired.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.recovery
    }

    /// Current operation counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            wal_appends: self.counters.wal_appends.load(Ordering::Relaxed),
            snapshots: self.counters.snapshots.load(Ordering::Relaxed),
            compactions: self.counters.compactions.load(Ordering::Relaxed),
            spills: self.counters.spills.load(Ordering::Relaxed),
            fault_ins: self.counters.fault_ins.load(Ordering::Relaxed),
            replayed: self.counters.replayed.load(Ordering::Relaxed),
        }
    }

    /// The last durable sequence number for `name` (0 when the store
    /// holds nothing for it). After a crash, a client that knows how many
    /// of its requests were acknowledged can compare: `durable ==
    /// acked + 1` means the in-flight request *was* applied and its
    /// response is in [`Store::last_record`]; `durable == acked` means it
    /// must be re-sent.
    pub fn durable_count(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("store lock poisoned");
        inner.get(name).map(|g| g.next_seq - 1).unwrap_or(0)
    }

    /// The most recent WAL record for `name`: `(seq, request line,
    /// response line)`. Compaction deliberately preserves this record so
    /// the answer to a crash-interrupted request is never lost.
    pub fn last_record(&self, name: &str) -> Option<(u64, String, String)> {
        let inner = self.inner.lock().expect("store lock poisoned");
        inner.get(name).and_then(|g| g.last.as_ref()).map(|(seq, payload)| {
            let (request, response) = split_payload(payload);
            (*seq, request.to_string(), response.to_string())
        })
    }

    /// Every valid WAL record for `name`, in sequence order (tests and
    /// tooling; recovery itself goes through [`GraphStore::load`]).
    pub fn read_wal(&self, name: &str) -> Vec<(u64, String, String)> {
        let bytes = fs::read(wal_path(&self.dir, name)).unwrap_or_default();
        let (records, _) = decode_records(&bytes);
        records
            .into_iter()
            .map(|(seq, payload)| {
                let (request, response) = split_payload(&payload);
                (seq, request.to_string(), response.to_string())
            })
            .collect()
    }

    /// Crash-injection hook: when this event is the configured one, write
    /// a *partial* frame (the first half of the bytes of `frame`'s parts,
    /// taken in order), flush, and abort the process.
    fn maybe_crash(&self, point: &str, file: &mut File, frame: &[&[u8]]) {
        let Some(inj) = &self.crash else { return };
        if inj.point != point {
            return;
        }
        if inj.hits.fetch_add(1, Ordering::SeqCst) + 1 == inj.after {
            let mut half = frame.iter().map(|part| part.len()).sum::<usize>() / 2;
            for part in frame {
                let n = half.min(part.len());
                let _ = file.write_all(&part[..n]);
                half -= n;
            }
            let _ = file.flush();
            let _ = file.sync_all();
            std::process::abort();
        }
    }

    /// Append one framed record to `name`'s WAL, creating the file (and
    /// the bookkeeping entry) on first use. Flushes before returning —
    /// the log-then-ack contract — and fsyncs under
    /// [`StoreOptions::fsync`].
    fn append(&self, name: &str, payload: String) {
        let mut inner = self.inner.lock().expect("store lock poisoned");
        let entry = inner.entry(name.to_string()).or_insert_with(GraphFile::empty);
        let seq = entry.next_seq;
        let record = encode_record(seq, &payload);
        if entry.file.is_none() {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(wal_path(&self.dir, name))
                .expect("open WAL for append");
            entry.file = Some(file);
        }
        let file = entry.file.as_mut().expect("WAL handle just ensured");
        self.maybe_crash("append", file, &[record.as_bytes()]);
        file.write_all(record.as_bytes()).expect("WAL append");
        file.flush().expect("WAL flush");
        if self.opts.fsync {
            file.sync_all().expect("WAL fsync");
        }
        entry.next_seq = seq + 1;
        entry.wal_bytes += record.len() as u64;
        entry.last = Some((seq, payload));
        self.counters.wal_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Write `state` as `name`'s snapshot (tmp + atomic rename), then
    /// compact the WAL down to its last record (tmp + atomic rename). The
    /// watermark is the last appended seq. `point` is the crash-injection
    /// label (`snapshot` or `spill`).
    fn write_snapshot(&self, name: &str, state: &str, point: &str) {
        let mut inner = self.inner.lock().expect("store lock poisoned");
        let entry = inner.entry(name.to_string()).or_insert_with(GraphFile::empty);
        let watermark = entry.next_seq - 1;
        let header = snapshot_header(watermark, state);
        let snap = snap_path(&self.dir, name);
        let tmp = snap.with_extension("snap.tmp");
        {
            // Header and state go out as two writes: the state is the
            // whole graph, too big to copy into one frame buffer first.
            let mut f = File::create(&tmp).expect("create snapshot tmp");
            self.maybe_crash(point, &mut f, &[header.as_bytes(), state.as_bytes()]);
            f.write_all(header.as_bytes()).expect("write snapshot tmp");
            f.write_all(state.as_bytes()).expect("write snapshot tmp");
            f.flush().expect("flush snapshot tmp");
            if self.opts.fsync {
                f.sync_all().expect("fsync snapshot tmp");
            }
        }
        fs::rename(&tmp, &snap).expect("publish snapshot");
        entry.watermark = watermark;
        entry.snap_bytes = (header.len() + state.len()) as u64;
        entry.wal_bytes = 0;
        // Compact: the new WAL holds exactly the last record. A crash
        // between the two renames is benign — the old records all sit at
        // or below the watermark, which load() skips.
        if let Some((seq, payload)) = &entry.last {
            let wal = wal_path(&self.dir, name);
            let wal_tmp = wal.with_extension("wal.tmp");
            let record = encode_record(*seq, payload);
            {
                let mut f = File::create(&wal_tmp).expect("create WAL tmp");
                f.write_all(record.as_bytes()).expect("write WAL tmp");
                f.flush().expect("flush WAL tmp");
                if self.opts.fsync {
                    f.sync_all().expect("fsync WAL tmp");
                }
            }
            fs::rename(&wal_tmp, &wal).expect("publish compacted WAL");
            // The old append handle points at the renamed-over inode.
            entry.file = None;
            self.counters.compactions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn wal_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("g{}.wal", hex_name(name)))
}

fn snap_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("g{}.snap", hex_name(name)))
}

impl GraphStore for Store {
    fn log(&self, name: &str, request: &Request, response: &Response) {
        let payload = format!("{}\t{}", request.to_trace_line(), response.to_trace_line());
        self.append(name, payload);
    }

    fn contains(&self, name: &str) -> bool {
        self.inner.lock().expect("store lock poisoned").contains_key(name)
    }

    fn names(&self) -> Vec<String> {
        self.inner.lock().expect("store lock poisoned").keys().cloned().collect()
    }

    fn wants_snapshot(&self, name: &str) -> bool {
        let every = self.opts.snapshot_every;
        if every == 0 {
            return false;
        }
        let inner = self.inner.lock().expect("store lock poisoned");
        inner
            .get(name)
            .is_some_and(|g| g.next_seq > g.watermark + every && g.wal_bytes >= g.snap_bytes)
    }

    fn snapshot(&self, name: &str, state: &str) {
        self.write_snapshot(name, state, "snapshot");
        self.counters.snapshots.fetch_add(1, Ordering::Relaxed);
    }

    fn spill(&self, name: &str, state: &str) {
        self.write_snapshot(name, state, "spill");
        self.counters.spills.fetch_add(1, Ordering::Relaxed);
    }

    fn load(&self, name: &str) -> Option<RecoveredGraph> {
        let inner = self.inner.lock().expect("store lock poisoned");
        if !inner.contains_key(name) {
            return None;
        }
        let snapshot = fs::read(snap_path(&self.dir, name)).ok().and_then(|b| decode_snapshot(&b));
        let watermark = snapshot.as_ref().map(|(w, _)| *w).unwrap_or(0);
        let wal_bytes = fs::read(wal_path(&self.dir, name)).unwrap_or_default();
        let (records, _) = decode_records(&wal_bytes);
        let wal: Vec<String> = records
            .into_iter()
            .filter(|(seq, _)| *seq > watermark)
            .map(|(_, payload)| split_payload(&payload).0.to_string())
            .collect();
        self.counters.fault_ins.fetch_add(1, Ordering::Relaxed);
        self.counters.replayed.fetch_add(wal.len() as u64, Ordering::Relaxed);
        Some(RecoveredGraph { snapshot: snapshot.map(|(_, state)| state), wal })
    }

    fn telemetry(&self) -> Vec<(String, u64)> {
        // Exported under the `store_` prefix by `stats metrics` (exactly
        // one shard exports the shared store per merged snapshot). The
        // recovery families are frozen at open(); the counter families
        // advance as the store runs.
        let r = self.recovery_report();
        let c = self.counters();
        vec![
            ("recovered_graphs".to_string(), r.graphs),
            ("recovered_wal_records".to_string(), r.wal_records),
            ("recovery_torn_tails".to_string(), r.torn_tails),
            ("recovery_tombstones_gcd".to_string(), r.tombstones_gcd),
            ("recovery_orphan_tmps".to_string(), r.orphan_tmps),
            ("wal_appends".to_string(), c.wal_appends),
            ("snapshots".to_string(), c.snapshots),
            ("compactions".to_string(), c.compactions),
            ("spills".to_string(), c.spills),
            ("fault_ins".to_string(), c.fault_ins),
            ("replayed".to_string(), c.replayed),
        ]
    }

    fn drop_graph(&self, name: &str, request: &Request, response: &Response) {
        // Tombstone first (flushed by append), then delete. A crash
        // between the steps leaves a WAL ending in the tombstone, which
        // the next open() garbage-collects.
        let payload = format!("{}\t{}", request.to_trace_line(), response.to_trace_line());
        self.append(name, payload);
        let mut inner = self.inner.lock().expect("store lock poisoned");
        let _ = fs::remove_file(snap_path(&self.dir, name));
        let _ = fs::remove_file(wal_path(&self.dir, name));
        inner.remove(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cut_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn frame_sum_hashes_the_formatted_frame() {
        // The on-disk checksum: FNV-1a over "{seq:016x} {len:08x} {payload}".
        for (seq, payload) in [(0, ""), (42, "insert g 0 1 7\tok"), (u64::MAX, "é\tx")] {
            let whole = format!("{seq:016x} {len:08x} {payload}", len = payload.len());
            assert_eq!(frame_sum(seq, payload), cut_graph::hash::fnv1a(whole.as_bytes()));
        }
    }

    #[test]
    fn record_codec_round_trips() {
        let payload = "insert g000 0 1 7\tmutated g000 3 12 13";
        let encoded = encode_record(42, payload);
        let (records, consumed) = decode_records(encoded.as_bytes());
        assert_eq!(consumed, encoded.len());
        assert_eq!(records, vec![(42, payload.to_string())]);
    }

    #[test]
    fn decode_stops_at_seq_gap() {
        let mut log = encode_record(1, "a\tb");
        log.push_str(&encode_record(3, "c\td")); // gap: 2 missing
        let (records, consumed) = decode_records(log.as_bytes());
        assert_eq!(records.len(), 1);
        assert_eq!(consumed, encode_record(1, "a\tb").len());
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let req = Request::Create { name: "g".into(), spec: cut_engine::GraphSpec::Cycle { n: 4 } };
        let resp = Response::Created { name: "g".into(), n: 4, m: 4 };
        store.log("g", &req, &resp);
        store.log("g", &req, &resp);
        drop(store);
        // Tear the tail: append half of a third record.
        let path = wal_path(&dir, "g");
        let torn = encode_record(3, "x\ty");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&torn.as_bytes()[..torn.len() / 2]).unwrap();
        drop(f);
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.recovery_report().torn_tails, 1);
        assert_eq!(store.durable_count("g"), 2);
        // The file itself was repaired: a re-open sees no tear.
        drop(store);
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.recovery_report().torn_tails, 0);
        assert_eq!(store.durable_count("g"), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tombstoned_graph_is_garbage_collected() {
        let dir = temp_dir("tomb");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let req = Request::Create { name: "g".into(), spec: cut_engine::GraphSpec::Cycle { n: 4 } };
        let resp = Response::Created { name: "g".into(), n: 4, m: 4 };
        store.log("g", &req, &resp);
        // Simulate a crash between tombstone append and file deletion:
        // append the tombstone by hand.
        let drop_req = Request::Drop { name: "g".into() };
        let drop_resp = Response::Dropped { name: "g".into() };
        store.log("g", &drop_req, &drop_resp);
        drop(store);
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.recovery_report().tombstones_gcd, 1);
        assert!(!store.contains("g"));
        assert!(!wal_path(&dir, "g").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_and_preserves_last_record() {
        let dir = temp_dir("compact");
        let store = Store::open(&dir, StoreOptions { snapshot_every: 2, fsync: false }).unwrap();
        let req = Request::Create { name: "g".into(), spec: cut_engine::GraphSpec::Cycle { n: 4 } };
        let resp = Response::Created { name: "g".into(), n: 4, m: 4 };
        store.log("g", &req, &resp);
        assert!(!store.wants_snapshot("g"));
        store.log("g", &req, &resp);
        assert!(store.wants_snapshot("g"));
        store.snapshot("g", "graph %- 0 0\nedges 0\ncache 0\nend\n");
        assert!(!store.wants_snapshot("g"));
        // WAL compacted to the last record; nothing to replay past the
        // watermark; the last response is still readable.
        assert_eq!(store.read_wal("g").len(), 1);
        let recovered = store.load("g").unwrap();
        assert!(recovered.snapshot.is_some());
        assert!(recovered.wal.is_empty());
        let (seq, request, _) = store.last_record("g").unwrap();
        assert_eq!(seq, 2);
        assert_eq!(request, req.to_trace_line());
        // Appends continue past the compaction at the right seq.
        store.log("g", &req, &resp);
        assert_eq!(store.durable_count("g"), 3);
        assert_eq!(store.load("g").unwrap().wal.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Bytes one record with a `len`-byte payload takes in the WAL.
    fn record_bytes(len: usize) -> u64 {
        encode_record(1, &"x".repeat(len)).len() as u64
    }

    #[test]
    fn snapshot_waits_for_the_record_floor_and_the_last_snapshots_bytes() {
        let dir = temp_dir("cadence");
        let store = Store::open(&dir, StoreOptions { snapshot_every: 4, fsync: false }).unwrap();
        store.append("g", "x".repeat(10));
        store.snapshot("g", &"s".repeat(1000));
        let snap = (SNAP_HEADER + 1000) as u64;
        assert_eq!(fs::metadata(snap_path(&dir, "g")).unwrap().len(), snap);
        // Small records: the floor passes long before the bytes do.
        let small = 200;
        let needed = snap.div_ceil(record_bytes(small));
        assert!(needed > 4);
        for appended in 0..needed {
            assert!(!store.wants_snapshot("g"), "{appended} records in: too few bytes");
            store.append("g", "x".repeat(small));
        }
        assert!(store.wants_snapshot("g"), "both the floor and the bytes are reached");
        // Big records: the bytes pass long before the floor does.
        store.snapshot("g", &"s".repeat(1000));
        for appended in 0..4 {
            assert!(!store.wants_snapshot("g"), "{appended} records in: below the floor");
            store.append("g", "x".repeat(2000));
        }
        assert!(store.wants_snapshot("g"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_spill_resets_the_cadence_like_a_snapshot() {
        let dir = temp_dir("spill_cadence");
        let store = Store::open(&dir, StoreOptions { snapshot_every: 2, fsync: false }).unwrap();
        for _ in 0..3 {
            store.append("g", "x".repeat(100));
        }
        assert!(store.wants_snapshot("g"), "no snapshot yet: the floor alone decides");
        store.spill("g", &"s".repeat(500));
        assert!(!store.wants_snapshot("g"), "a spill folds the WAL behind its watermark");
        let needed = ((SNAP_HEADER + 500) as u64).div_ceil(record_bytes(100));
        for _ in 0..needed - 1 {
            store.append("g", "x".repeat(100));
        }
        assert!(!store.wants_snapshot("g"), "past the floor, one record short of the spill");
        store.append("g", "x".repeat(100));
        assert!(store.wants_snapshot("g"));
        assert_eq!(store.counters().snapshots, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_seeds_the_cadence_from_the_directory() {
        let dir = temp_dir("reopen_cadence");
        let opts = StoreOptions { snapshot_every: 2, fsync: false };
        let store = Store::open(&dir, opts).unwrap();
        store.append("g", "x".repeat(10));
        store.snapshot("g", &"s".repeat(1000));
        let snap = (SNAP_HEADER + 1000) as u64;
        // Two records, together one byte short of the snapshot.
        store.append("g", "x".repeat(500));
        let rest = snap - 1 - record_bytes(500) - record_bytes(0);
        store.append("g", "x".repeat(rest as usize));
        assert!(!store.wants_snapshot("g"));
        drop(store);
        // Neither at once (the snapshot's size is seeded) nor never (the
        // tail's bytes are seeded): one more record of any size tips it.
        let store = Store::open(&dir, opts).unwrap();
        assert!(!store.wants_snapshot("g"), "the reopened store must know the snapshot's size");
        store.append("g", String::new());
        assert!(store.wants_snapshot("g"), "the reopened store must count the WAL tail");
        drop(store);
        // A WAL with no snapshot behind it: the floor alone decides.
        let store = Store::open(&dir, opts).unwrap();
        store.append("h", "x".repeat(10));
        drop(store);
        let store = Store::open(&dir, opts).unwrap();
        assert!(!store.wants_snapshot("h"));
        store.append("h", "x".repeat(10));
        assert!(store.wants_snapshot("h"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_every_zero_never_snapshots() {
        let dir = temp_dir("never");
        let store = Store::open(&dir, StoreOptions { snapshot_every: 0, fsync: false }).unwrap();
        for _ in 0..100 {
            store.append("g", "x".repeat(1000));
            assert!(!store.wants_snapshot("g"));
        }
        store.spill("g", "s");
        for _ in 0..100 {
            store.append("g", "x".repeat(1000));
            assert!(!store.wants_snapshot("g"));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_tmps_are_deleted_on_open() {
        let dir = temp_dir("orphan");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("g61.snap.tmp"), b"partial").unwrap();
        fs::write(dir.join("g61.wal.tmp"), b"partial").unwrap();
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.recovery_report().orphan_tmps, 2);
        assert!(!dir.join("g61.snap.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
