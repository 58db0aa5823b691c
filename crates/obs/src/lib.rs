//! `cut_obs` — deterministic telemetry substrate for the cut engine.
//!
//! The engine's determinism contract (response streams byte-identical at
//! every shard count) forbids telemetry that feeds measurements back into
//! behaviour. This crate therefore separates the two concerns that usually
//! get tangled:
//!
//! - **What happened** (counters, histogram bucket occupancy, span
//!   attribution) is recorded shard-locally with plain `&mut` mutation —
//!   no locks, no atomics on the hot path — and combined only at
//!   introspection time through explicit [`Registry::merge`] /
//!   [`SlowLog::merge`], mirroring how `EngineStats` has always merged.
//! - **When it happened** flows through a pluggable [`Clock`].
//!   [`MonotonicClock`] reads real time in production; [`TestClock`] hands
//!   out consecutive integers so span arithmetic (queue wait + serve time
//!   == wall time) is exact and assertable under test.
//!
//! Snapshots cross thread and wire boundaries as single-line strings
//! ([`Registry::to_wire`] / [`SlowLog::to_wire`]): the same codec backs the
//! `stats\tmetrics` broadcast merge in `cut_engine` and the `cut/1` network
//! protocol, so there is exactly one serialised form to keep honest.
//! Human-facing expositions are derived views: [`Registry::render_text`]
//! (Prometheus text format) and [`Registry::render_json`] (`cut-metrics/1`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Version tag leading every serialised registry snapshot.
pub const METRICS_WIRE_VERSION: &str = "cut-metrics/1";
/// Version tag leading every serialised slow-log snapshot.
pub const SLOWLOG_WIRE_VERSION: &str = "cut-slowlog/1";

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// Source of span timestamps, in nanoseconds from an arbitrary origin.
///
/// Only differences of readings are ever interpreted, so the origin is
/// private to each clock instance. Implementations must be monotone
/// non-decreasing per instance; they need not be steady across instances.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Current reading in nanoseconds since this clock's origin.
    fn now(&self) -> u64;
}

/// Production clock: wall-independent monotonic time via [`Instant`].
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    pub fn new() -> Self {
        MonotonicClock { origin: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Deterministic counting clock for tests: every reading is the previous
/// reading plus one, starting from zero. Two readings are never equal, and
/// the k-th reading taken process-wide through one instance is exactly k.
#[derive(Debug, Default)]
pub struct TestClock {
    ticks: AtomicU64,
}

impl TestClock {
    pub fn new() -> Self {
        TestClock { ticks: AtomicU64::new(0) }
    }
}

impl Clock for TestClock {
    fn now(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Number of buckets in every histogram: bucket 0 holds the value 0 and
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)`, so the full `u64`
/// range is covered with no configuration and `merge` is plain addition.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Fixed-bucket log2-scale histogram of `u64` samples (typically
/// nanoseconds). Identical bucket layout everywhere makes `merge`
/// associative and commutative by construction, which the broadcast
/// merge in the engine relies on.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max)
            .finish()
    }
}

/// Index of the bucket holding `value`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram { counts: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one sample. No allocation, no branching beyond the bucket
    /// index computation.
    pub fn observe(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Raw bucket occupancy.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Fold `other` into `self`: bucket-wise addition plus count/sum/extrema.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }

    /// The interval histogram between `self` (a later cumulative snapshot)
    /// and an `earlier` snapshot of the same series: bucket-wise
    /// subtraction plus count/sum. An interval's true extrema are not
    /// recoverable from two cumulative snapshots, so `min`/`max` are
    /// re-derived from the occupied bucket bounds — exact to within one
    /// bucket width, the same promise `quantile` makes.
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (i, (later, old)) in self.counts.iter().zip(earlier.counts.iter()).enumerate() {
            let d = later.saturating_sub(*old);
            out.counts[i] = d;
            if d > 0 {
                out.min = out.min.min(bucket_lower(i));
                out.max = out.max.max(bucket_upper(i).min(self.max));
            }
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// Approximate quantile `q` in `[0.0, 1.0]`: the midpoint of the first
    /// bucket whose cumulative count reaches `ceil(q * count)`, clamped to
    /// the observed extrema. Exact to within one bucket width (a factor of
    /// two), which is all a log-scale layout can promise; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let lo = bucket_lower(i);
                let hi = bucket_upper(i);
                let mid = lo + (hi - lo) / 2;
                return mid.clamp(self.min(), self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Shard-local metrics registry: named counters, gauges, and histograms.
///
/// Ownership model mirrors `EngineStats`: each worker owns one registry
/// outright and mutates it through `&mut self`; cross-shard views exist
/// only as merged snapshots taken at a barrier. There is deliberately no
/// interior mutability anywhere in this type.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Add `by` to the named counter, creating it at zero first.
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Set the named gauge to `value` (last write wins; merge sums).
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Record `value` into the named histogram, creating it empty first.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::new();
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold `other` into `self`. Counters and gauges add (a gauge merged
    /// across shards reads as the fleet total, e.g. resident graphs);
    /// histograms merge bucket-wise. Associative and commutative, so the
    /// broadcast merge may combine shard partials in any grouping.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            self.inc(k, *v);
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            *slot += *v;
        }
        for (k, h) in &other.histograms {
            if let Some(mine) = self.histograms.get_mut(k) {
                mine.merge(h);
            } else {
                self.histograms.insert(k.clone(), h.clone());
            }
        }
    }

    // -- expositions --------------------------------------------------------

    /// Prometheus text exposition (text/plain version 0.0.4 shape):
    /// counters and gauges as single samples, histograms as cumulative
    /// `_bucket{le="..."}` series plus `_sum` and `_count`. Empty buckets
    /// are elided except the mandatory `+Inf` bound.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, hist) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, &c) in hist.buckets().iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", bucket_upper(i));
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count());
            let _ = writeln!(out, "{name}_sum {}", hist.sum());
            let _ = writeln!(out, "{name}_count {}", hist.count());
        }
        out
    }

    /// `cut-metrics/1` JSON exposition. Histogram buckets appear as
    /// `[lower, upper, count]` triples for occupied buckets only, so the
    /// document is exact (no cumulative reconstruction needed) and compact.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"format\": \"cut-metrics/1\",\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {value}", json_escape(name));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {value}", json_escape(name));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, hist)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                json_escape(name),
                hist.count(),
                hist.sum(),
                hist.min(),
                hist.max()
            );
            let mut first = true;
            for (b, &c) in hist.buckets().iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(out, "[{}, {}, {c}]", bucket_lower(b), bucket_upper(b));
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    // -- wire codec ---------------------------------------------------------

    /// Single-line canonical form, suitable for embedding in a `cut/1`
    /// response token after percent-encoding. Layout:
    ///
    /// ```text
    /// cut-metrics/1 c <n> (<name> <val>)* g <n> (<name> <val>)*
    ///               h <n> (<name> <count> <sum> <min> <max> <k> (<idx>:<cnt>)*)*
    /// ```
    ///
    /// Names are percent-escaped; histogram buckets are sparse (occupied
    /// only). `from_wire` accepts exactly this shape.
    pub fn to_wire(&self) -> String {
        let mut out = String::from(METRICS_WIRE_VERSION);
        let _ = write!(out, " c {}", self.counters.len());
        for (name, value) in &self.counters {
            let _ = write!(out, " {} {value}", escape(name));
        }
        let _ = write!(out, " g {}", self.gauges.len());
        for (name, value) in &self.gauges {
            let _ = write!(out, " {} {value}", escape(name));
        }
        let _ = write!(out, " h {}", self.histograms.len());
        for (name, hist) in &self.histograms {
            let occupied: Vec<(usize, u64)> = hist
                .buckets()
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i, c))
                .collect();
            let _ = write!(
                out,
                " {} {} {} {} {} {}",
                escape(name),
                hist.count(),
                hist.sum(),
                hist.min(),
                hist.max,
                occupied.len()
            );
            for (i, c) in occupied {
                let _ = write!(out, " {i}:{c}");
            }
        }
        out
    }

    /// Parse a [`Registry::to_wire`] line. Strict: any malformed token is
    /// an error, so a corrupted snapshot can never merge silently.
    pub fn from_wire(line: &str) -> Result<Registry, String> {
        let mut t = line.split_whitespace();
        let version = t.next().ok_or("empty metrics snapshot")?;
        if version != METRICS_WIRE_VERSION {
            return Err(format!("unknown metrics version '{version}'"));
        }
        expect_tag(&mut t, "c")?;
        let n: usize = parse_next(&mut t, "counter count")?;
        let mut reg = Registry::new();
        for _ in 0..n {
            let name = unescape(next(&mut t, "counter name")?)?;
            let value: u64 = parse_next(&mut t, "counter value")?;
            reg.counters.insert(name, value);
        }
        expect_tag(&mut t, "g")?;
        let n: usize = parse_next(&mut t, "gauge count")?;
        for _ in 0..n {
            let name = unescape(next(&mut t, "gauge name")?)?;
            let value: u64 = parse_next(&mut t, "gauge value")?;
            reg.gauges.insert(name, value);
        }
        expect_tag(&mut t, "h")?;
        let n: usize = parse_next(&mut t, "histogram count")?;
        for _ in 0..n {
            let name = unescape(next(&mut t, "histogram name")?)?;
            let count: u64 = parse_next(&mut t, "histogram sample count")?;
            let sum: u64 = parse_next(&mut t, "histogram sum")?;
            let min: u64 = parse_next(&mut t, "histogram min")?;
            let max: u64 = parse_next(&mut t, "histogram max")?;
            let k: usize = parse_next(&mut t, "histogram bucket count")?;
            let mut hist = Histogram::new();
            let mut total = 0u64;
            for _ in 0..k {
                let pair = next(&mut t, "histogram bucket")?;
                let (idx, cnt) =
                    pair.split_once(':').ok_or_else(|| format!("malformed bucket '{pair}'"))?;
                let idx: usize = idx.parse().map_err(|e| format!("bucket index '{idx}': {e}"))?;
                if idx >= HISTOGRAM_BUCKETS {
                    return Err(format!("bucket index {idx} out of range"));
                }
                let cnt: u64 = cnt.parse().map_err(|e| format!("bucket count '{cnt}': {e}"))?;
                hist.counts[idx] = cnt;
                total += cnt;
            }
            if total != count {
                return Err(format!("histogram '{name}' bucket total {total} != count {count}"));
            }
            hist.count = count;
            hist.sum = sum;
            hist.min = if count == 0 { u64::MAX } else { min };
            hist.max = max;
            reg.histograms.insert(name, hist);
        }
        if let Some(extra) = t.next() {
            return Err(format!("trailing token '{extra}' in metrics snapshot"));
        }
        Ok(reg)
    }
}

// ---------------------------------------------------------------------------
// Spans and the slow-query log
// ---------------------------------------------------------------------------

/// Annotation bits attached to a [`Span`].
///
/// Slow-log wire snapshots carry these bits, so a bit keeps its position
/// for good: bits 0 and 1 belonged to retired flags and stay unassigned.
pub mod span_flags {
    /// Serving this request faulted the graph in from the store.
    pub const FAULT_IN: u32 = 1 << 2;
    /// Serving this request spilled some graph to the store.
    pub const SPILL: u32 = 1 << 3;

    /// Render set bits as a stable `+`-joined list (empty string if none).
    pub fn render(flags: u32) -> String {
        let mut parts = Vec::new();
        if flags & FAULT_IN != 0 {
            parts.push("fault-in");
        }
        if flags & SPILL != 0 {
            parts.push("spill");
        }
        parts.join("+")
    }
}

/// Lifecycle record for one request: enqueue → dequeue (queue wait) →
/// serve end, with serve time attributed to index builds and store
/// appends (the remainder is compute). All stamps come from one
/// [`Clock`] instance, so differences are meaningful.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Request kind (`"query"`, `"mutate"`, ...).
    pub kind: String,
    /// Graph name, or `"*"` for broadcasts.
    pub target: String,
    /// Shard that served the request.
    pub shard: u64,
    /// Clock reading when the request entered a shard queue.
    pub enqueue: u64,
    /// Clock reading when a worker picked it up; serve starts here.
    pub dequeue: u64,
    /// Clock reading when the response was produced.
    pub end: u64,
    /// Serve-time share spent (re)building CSR indexes.
    pub index_nanos: u64,
    /// Serve-time share spent appending to / snapshotting the store.
    pub store_nanos: u64,
    /// [`span_flags`] annotations.
    pub flags: u32,
}

impl Span {
    /// Time spent queued: dequeue − enqueue.
    pub fn queue_nanos(&self) -> u64 {
        self.dequeue.saturating_sub(self.enqueue)
    }

    /// Time spent serving: end − dequeue.
    pub fn serve_nanos(&self) -> u64 {
        self.end.saturating_sub(self.dequeue)
    }

    /// End-to-end span: end − enqueue. Equals queue + serve exactly,
    /// because serve starts at the dequeue stamp.
    pub fn wall_nanos(&self) -> u64 {
        self.end.saturating_sub(self.enqueue)
    }

    /// Serve time not attributed to index builds or store appends.
    pub fn compute_nanos(&self) -> u64 {
        self.serve_nanos().saturating_sub(self.index_nanos).saturating_sub(self.store_nanos)
    }
}

/// Fixed-capacity log of the worst-N spans seen by one shard, ordered by
/// serve time (descending), ties broken by enqueue stamp then target so
/// merged dumps are deterministic for a fixed set of spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowLog {
    cap: usize,
    entries: Vec<Span>,
}

fn slower(a: &Span, b: &Span) -> std::cmp::Ordering {
    b.serve_nanos()
        .cmp(&a.serve_nanos())
        .then(a.enqueue.cmp(&b.enqueue))
        .then(a.target.cmp(&b.target))
        .then(a.shard.cmp(&b.shard))
}

impl SlowLog {
    pub fn new(cap: usize) -> Self {
        SlowLog { cap, entries: Vec::with_capacity(cap.min(64)) }
    }

    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Admit `span` if it ranks among the worst `cap` seen so far.
    pub fn record(&mut self, span: Span) {
        if self.cap == 0 {
            return;
        }
        if self.entries.len() == self.cap {
            if let Some(last) = self.entries.last() {
                if slower(&span, last) != std::cmp::Ordering::Less {
                    return;
                }
            }
            self.entries.pop();
        }
        let at = self.entries.partition_point(|e| slower(e, &span) == std::cmp::Ordering::Less);
        self.entries.insert(at, span);
    }

    /// Worst spans, slowest first.
    pub fn entries(&self) -> &[Span] {
        &self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fold `other`'s entries in, keeping the merged worst-N under the
    /// larger of the two capacities.
    pub fn merge(&mut self, other: &SlowLog) {
        self.cap = self.cap.max(other.cap);
        for span in &other.entries {
            self.record(span.clone());
        }
    }

    /// Human-readable dump, one line per span, slowest first.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.entries.iter().enumerate() {
            let flags = span_flags::render(s.flags);
            let _ = writeln!(
                out,
                "#{i} {} {} shard={} queue={}ns serve={}ns (index={}ns store={}ns compute={}ns){}{}",
                s.kind,
                s.target,
                s.shard,
                s.queue_nanos(),
                s.serve_nanos(),
                s.index_nanos,
                s.store_nanos,
                s.compute_nanos(),
                if flags.is_empty() { "" } else { " " },
                flags
            );
        }
        out
    }

    /// Single-line canonical form:
    ///
    /// ```text
    /// cut-slowlog/1 <cap> <n> (<kind> <target> <shard> <enqueue> <dequeue>
    ///               <end> <index> <store> <flags>)*
    /// ```
    pub fn to_wire(&self) -> String {
        let mut out = String::from(SLOWLOG_WIRE_VERSION);
        let _ = write!(out, " {} {}", self.cap, self.entries.len());
        for s in &self.entries {
            let _ = write!(
                out,
                " {} {} {} {} {} {} {} {} {}",
                escape(&s.kind),
                escape(&s.target),
                s.shard,
                s.enqueue,
                s.dequeue,
                s.end,
                s.index_nanos,
                s.store_nanos,
                s.flags
            );
        }
        out
    }

    /// Parse a [`SlowLog::to_wire`] line.
    pub fn from_wire(line: &str) -> Result<SlowLog, String> {
        let mut t = line.split_whitespace();
        let version = t.next().ok_or("empty slowlog snapshot")?;
        if version != SLOWLOG_WIRE_VERSION {
            return Err(format!("unknown slowlog version '{version}'"));
        }
        let cap: usize = parse_next(&mut t, "slowlog cap")?;
        let n: usize = parse_next(&mut t, "slowlog entry count")?;
        let mut log = SlowLog::new(cap);
        for _ in 0..n {
            let span = Span {
                kind: unescape(next(&mut t, "span kind")?)?,
                target: unescape(next(&mut t, "span target")?)?,
                shard: parse_next(&mut t, "span shard")?,
                enqueue: parse_next(&mut t, "span enqueue")?,
                dequeue: parse_next(&mut t, "span dequeue")?,
                end: parse_next(&mut t, "span end")?,
                index_nanos: parse_next(&mut t, "span index nanos")?,
                store_nanos: parse_next(&mut t, "span store nanos")?,
                flags: parse_next(&mut t, "span flags")?,
            };
            log.record(span);
        }
        if let Some(extra) = t.next() {
            return Err(format!("trailing token '{extra}' in slowlog snapshot"));
        }
        Ok(log)
    }
}

// ---------------------------------------------------------------------------
// Token helpers (same percent scheme as the cut/1 name codec)
// ---------------------------------------------------------------------------

/// Percent-escape a string into a single whitespace-free token. Empty
/// strings become `%-` so token counts stay fixed.
pub fn escape(s: &str) -> String {
    if s.is_empty() {
        return "%-".to_string();
    }
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'%' => out.push_str("%25"),
            b' ' => out.push_str("%20"),
            b'\t' => out.push_str("%09"),
            b'\n' => out.push_str("%0a"),
            b'\r' => out.push_str("%0d"),
            _ => out.push(b as char),
        }
    }
    out
}

/// Inverse of [`escape`].
pub fn unescape(token: &str) -> Result<String, String> {
    if token == "%-" {
        return Ok(String::new());
    }
    let bytes = token.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if i + 3 > bytes.len() {
                return Err(format!("truncated escape in '{token}'"));
            }
            let hex = std::str::from_utf8(&bytes[i + 1..i + 3])
                .map_err(|_| format!("bad escape in '{token}'"))?;
            let v = u8::from_str_radix(hex, 16)
                .map_err(|_| format!("bad escape '%{hex}' in '{token}'"))?;
            out.push(v);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("invalid utf-8 in '{token}'"))
}

fn next<'a>(t: &mut std::str::SplitWhitespace<'a>, what: &str) -> Result<&'a str, String> {
    t.next().ok_or_else(|| format!("missing {what}"))
}

fn parse_next<T: std::str::FromStr>(
    t: &mut std::str::SplitWhitespace<'_>,
    what: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let tok = next(t, what)?;
    tok.parse().map_err(|e| format!("{what} '{tok}': {e}"))
}

fn expect_tag(t: &mut std::str::SplitWhitespace<'_>, tag: &str) -> Result<(), String> {
    let tok = next(t, tag)?;
    if tok != tag {
        return Err(format!("expected section '{tag}', got '{tok}'"));
    }
    Ok(())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_layout_covers_u64_without_gaps() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i, "lower bound of {i}");
            assert_eq!(bucket_index(bucket_upper(i)), i, "upper bound of {i}");
        }
        // Adjacent buckets tile the line: upper(i) + 1 == lower(i+1).
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_upper(i) + 1, bucket_lower(i + 1));
        }
    }

    #[test]
    fn histogram_observe_and_quantile_track_extrema() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [0u64, 1, 1, 7, 100, 100_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 100_109);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100_000);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(1.0) <= 100_000);
        assert!(h.quantile(0.5) >= 1);
    }

    #[test]
    fn histogram_diff_recovers_the_interval() {
        let mut earlier = Histogram::new();
        for v in [1u64, 8, 8, 300] {
            earlier.observe(v);
        }
        let mut later = earlier.clone();
        for v in [2u64, 9, 5_000] {
            later.observe(v);
        }
        let d = later.diff(&earlier);
        assert_eq!(d.count(), 3);
        assert_eq!(d.sum(), 2 + 9 + 5_000);
        // Interval extrema are bucket-bound approximations: min from the
        // lowest occupied bucket, max clamped by the later snapshot's max.
        assert!(d.min() <= 2, "min {} should bound the interval low end", d.min());
        assert!(d.max() >= 5_000 && d.max() <= later.max());
        // Bucket-wise: diffing against itself is empty; against new() is identity.
        assert!(later.diff(&later).is_empty());
        assert_eq!(later.diff(&Histogram::new()).buckets(), later.buckets());
    }

    #[test]
    fn registry_wire_round_trips_exactly() {
        let mut r = Registry::new();
        r.inc("requests_total", 41);
        r.inc("engine queries", 7); // space in name exercises escaping
        r.set_gauge("graphs_resident", 3);
        r.observe("queue_wait_nanos", 0);
        r.observe("queue_wait_nanos", 1023);
        r.observe("serve_nanos", u64::MAX);
        let wire = r.to_wire();
        assert!(!wire.contains('\n'));
        let back = Registry::from_wire(&wire).expect("round trip");
        assert_eq!(back, r);
    }

    #[test]
    fn registry_from_wire_rejects_corruption() {
        let mut r = Registry::new();
        r.inc("a", 1);
        r.observe("h", 9);
        let wire = r.to_wire();
        // Every truncation of whole tokens must fail, never mis-parse.
        let tokens: Vec<&str> = wire.split(' ').collect();
        for k in 0..tokens.len() {
            let partial = tokens[..k].join(" ");
            assert!(
                Registry::from_wire(&partial).is_err(),
                "truncation to {k} tokens parsed: '{partial}'"
            );
        }
        assert!(Registry::from_wire(&format!("{wire} junk")).is_err());
        // Bucket total mismatching the sample count is rejected.
        let forged = wire.replace(" 1 1 4:1", " 2 1 4:1");
        if forged != wire {
            assert!(Registry::from_wire(&forged).is_err());
        }
    }

    #[test]
    fn registry_merge_adds_counters_gauges_and_buckets() {
        let mut a = Registry::new();
        a.inc("x", 1);
        a.set_gauge("g", 2);
        a.observe("h", 5);
        let mut b = Registry::new();
        b.inc("x", 2);
        b.inc("y", 3);
        b.set_gauge("g", 4);
        b.observe("h", 500);
        b.observe("h2", 1);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 3);
        assert_eq!(a.gauge("g"), 6);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("h").unwrap().max(), 500);
        assert_eq!(a.histogram("h2").unwrap().count(), 1);
    }

    #[test]
    fn render_text_lists_every_family_with_types() {
        let mut r = Registry::new();
        r.inc("requests_total", 2);
        r.set_gauge("graphs_resident", 1);
        r.observe("serve_nanos", 10);
        let text = r.render_text();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total 2"));
        assert!(text.contains("# TYPE graphs_resident gauge"));
        assert!(text.contains("# TYPE serve_nanos histogram"));
        assert!(text.contains("serve_nanos_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("serve_nanos_sum 10"));
        assert!(text.contains("serve_nanos_count 1"));
    }

    /// Reconstruct per-bucket counts from the cumulative `_bucket{le=...}`
    /// lines of the Prometheus exposition and check they match the
    /// histogram exactly (the satellite-3 "render_text round-trips bucket
    /// counts" requirement, deterministic half; the proptest below covers
    /// arbitrary samples).
    fn text_buckets_match(hist: &Histogram, name: &str, text: &str) {
        let mut cumulative_prev = 0u64;
        let mut reconstructed = [0u64; HISTOGRAM_BUCKETS];
        for line in text.lines() {
            let Some(rest) = line.strip_prefix(&format!("{name}_bucket{{le=\"")) else {
                continue;
            };
            let (le, count) = rest.split_once("\"} ").expect("bucket line shape");
            if le == "+Inf" {
                continue;
            }
            let le: u64 = le.parse().expect("le bound");
            let cum: u64 = count.parse().expect("cumulative count");
            reconstructed[bucket_index(le)] = cum - cumulative_prev;
            cumulative_prev = cum;
        }
        assert_eq!(&reconstructed, hist.buckets(), "bucket counts for {name}");
    }

    #[test]
    fn render_text_round_trips_bucket_counts() {
        let mut r = Registry::new();
        for v in [0u64, 1, 2, 3, 1024, 1024, u64::MAX] {
            r.observe("lat", v);
        }
        text_buckets_match(r.histogram("lat").unwrap(), "lat", &r.render_text());
    }

    #[test]
    fn slowlog_keeps_worst_n_sorted() {
        let mut log = SlowLog::new(3);
        for (i, serve) in [5u64, 50, 1, 500, 20, 7].iter().enumerate() {
            log.record(Span {
                kind: "query".into(),
                target: format!("g{i}"),
                shard: 0,
                enqueue: i as u64,
                dequeue: i as u64,
                end: i as u64 + serve,
                index_nanos: 0,
                store_nanos: 0,
                flags: 0,
            });
        }
        let serves: Vec<u64> = log.entries().iter().map(|s| s.serve_nanos()).collect();
        assert_eq!(serves, vec![500, 50, 20]);
    }

    #[test]
    fn slowlog_merge_and_wire_round_trip() {
        let mk = |shard: u64, serve: u64, target: &str| Span {
            kind: "query".into(),
            target: target.into(),
            shard,
            enqueue: 10,
            dequeue: 12,
            end: 12 + serve,
            index_nanos: 1,
            store_nanos: 2,
            flags: span_flags::FAULT_IN | span_flags::SPILL,
        };
        let mut a = SlowLog::new(2);
        a.record(mk(0, 100, "a"));
        a.record(mk(0, 10, "b"));
        let mut b = SlowLog::new(2);
        b.record(mk(1, 50, "c"));
        b.record(mk(1, 200, "d"));
        let wire_b = b.to_wire();
        let back = SlowLog::from_wire(&wire_b).expect("slowlog round trip");
        assert_eq!(back, b);
        a.merge(&back);
        let targets: Vec<&str> = a.entries().iter().map(|s| s.target.as_str()).collect();
        assert_eq!(targets, vec!["d", "a"]);
        assert!(a.render_text().contains("fault-in+spill"));
    }

    #[test]
    fn span_accounting_is_exact_under_test_clock() {
        let clock = Arc::new(TestClock::new());
        let enqueue = clock.now();
        let dequeue = clock.now();
        let end = clock.now();
        let span = Span {
            kind: "query".into(),
            target: "g".into(),
            shard: 0,
            enqueue,
            dequeue,
            end,
            index_nanos: 0,
            store_nanos: 0,
            flags: 0,
        };
        assert_eq!(span.queue_nanos() + span.serve_nanos(), span.wall_nanos());
        assert_eq!(span.queue_nanos(), 1);
        assert_eq!(span.serve_nanos(), 1);
    }

    #[test]
    fn test_clock_counts_and_monotonic_clock_advances() {
        let t = TestClock::new();
        assert_eq!(t.now(), 0);
        assert_eq!(t.now(), 1);
        let m = MonotonicClock::new();
        let a = m.now();
        let b = m.now();
        assert!(b >= a);
    }

    #[test]
    fn escape_round_trips_awkward_strings() {
        for s in ["", "plain", "has space", "pct%sign", "tab\there", "nl\nhere"] {
            let tok = escape(s);
            assert!(!tok.chars().any(char::is_whitespace), "token '{tok}'");
            assert_eq!(unescape(&tok).unwrap(), s);
        }
    }

    // -- proptests (satellite 3) -------------------------------------------

    fn hist_from(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.observe(v);
        }
        h
    }

    /// Expand a `(seed, len)` pair into deterministic samples via
    /// splitmix64; the vendored proptest subset has no `collection::vec`
    /// strategy, so vectors are derived from scalar draws. Mixing in a
    /// power law keeps small values (dense low buckets) common while
    /// still reaching the top buckets.
    fn sample_vec(seed: u64, len: usize) -> Vec<u64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                z >> (z % 64)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn histogram_merge_is_commutative(
            (xseed, xlen, yseed, ylen) in (
                proptest::any::<u64>(), 0usize..40,
                proptest::any::<u64>(), 0usize..40,
            )
        ) {
            let (xs, ys) = (sample_vec(xseed, xlen), sample_vec(yseed, ylen));
            let (a, b) = (hist_from(&xs), hist_from(&ys));
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            proptest::prop_assert_eq!(ab, ba);
        }

        #[test]
        fn histogram_merge_is_associative(
            (xseed, yseed, zseed, lens) in (
                proptest::any::<u64>(),
                proptest::any::<u64>(),
                proptest::any::<u64>(),
                proptest::any::<u64>(),
            )
        ) {
            let (xs, ys, zs) = (
                sample_vec(xseed, (lens % 30) as usize),
                sample_vec(yseed, ((lens >> 8) % 30) as usize),
                sample_vec(zseed, ((lens >> 16) % 30) as usize),
            );
            let (a, b, c) = (hist_from(&xs), hist_from(&ys), hist_from(&zs));
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            proptest::prop_assert_eq!(left, right);
        }

        #[test]
        fn histogram_merge_equals_concatenation(
            (xseed, xlen, yseed, ylen) in (
                proptest::any::<u64>(), 0usize..40,
                proptest::any::<u64>(), 0usize..40,
            )
        ) {
            let (xs, ys) = (sample_vec(xseed, xlen), sample_vec(yseed, ylen));
            let mut merged = hist_from(&xs);
            merged.merge(&hist_from(&ys));
            let mut both = xs.clone();
            both.extend_from_slice(&ys);
            proptest::prop_assert_eq!(merged, hist_from(&both));
        }

        #[test]
        fn render_text_round_trips_bucket_counts_for_any_samples(
            (seed, len) in (proptest::any::<u64>(), 1usize..60)
        ) {
            let xs = sample_vec(seed, len);
            let mut r = Registry::new();
            for &v in &xs {
                r.observe("lat", v);
            }
            let text = r.render_text();
            text_buckets_match(r.histogram("lat").unwrap(), "lat", &text);
            // And the wire codec is exact for the same registry.
            let back = Registry::from_wire(&r.to_wire()).unwrap();
            proptest::prop_assert_eq!(back, r);
        }

        #[test]
        fn registry_merge_matches_pooled_observation(
            (xseed, xlen, yseed, ylen) in (
                proptest::any::<u64>(), 0usize..30,
                proptest::any::<u64>(), 0usize..30,
            )
        ) {
            let (xs, ys) = (sample_vec(xseed, xlen), sample_vec(yseed, ylen));
            let mut a = Registry::new();
            for &v in &xs {
                a.observe("h", v);
                a.inc("n", 1);
            }
            let mut b = Registry::new();
            for &v in &ys {
                b.observe("h", v);
                b.inc("n", 1);
            }
            let mut merged = a.clone();
            merged.merge(&b);
            let mut pooled = Registry::new();
            for &v in xs.iter().chain(ys.iter()) {
                pooled.observe("h", v);
                pooled.inc("n", 1);
            }
            proptest::prop_assert_eq!(merged, pooled);
        }
    }
}
