//! The flight recorder: lock-free per-worker event rings + forensic dumps.
//!
//! While enabled ([`set_enabled`]), every execution seam journals compact
//! events — span open/close, cache hit/miss, fault fired, task retry,
//! deadline arm/expiry, VM dispatch-class census — into a bounded ring
//! buffer owned by the recording thread. When something goes wrong (a
//! panic, a flow timeout, VM budget exhaustion, or an injected fault), the
//! failure site calls [`mark_trigger`] and the harness dumps the last-N
//! events of every worker as a **self-contained forensic bundle**: one JSON
//! document holding the trigger list, the span table (the full causal
//! tree), each worker's surviving events, and an embedded Perfetto timeline
//! built with [`crate::perfetto::TraceBuilder`].
//!
//! ## Concurrency design
//!
//! Each ring is written by exactly one thread (thread-local registration)
//! and read only by the dumping thread. Every slot is a fixed block of
//! `AtomicU64` words guarded by a per-slot seqlock version: the writer
//! bumps the version odd, stores the words, bumps it even; a reader
//! re-checks the version after copying and discards torn slots. All
//! accesses are atomic, so the protocol is data-race-free without any
//! mutex on the hot path — a record is ~16 relaxed stores. Events are
//! fixed-size: labels are truncated into a 56-byte inline buffer.
//!
//! Because rings are bounded, old events are evicted; the causal *chain*
//! must survive eviction for forensics to be useful. Span opens are
//! therefore additionally appended to a capped global **span table**
//! (spans are node-granular and rare compared to cache/estimate events),
//! so a bundle can always walk from the flow root span down to the failing
//! node even when the root's ring event is long gone.
//!
//! ## Determinism
//!
//! Span ids are structural ([`crate::span`]); sequence numbers are
//! per-worker ring head counters. Under the sequential engine two runs of
//! the same flow produce byte-identical bundles once wall-clock fields are
//! zeroed — a tier-1 test holds this honest.

use crate::json::write_str;
use crate::perfetto::{ArgValue, TraceBuilder};
use crate::span::SpanCtx;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Events retained per worker ring.
pub const RING_CAPACITY: usize = 256;
/// Inline label bytes per event (longer labels are truncated).
pub const LABEL_CAPACITY: usize = 56;
const LABEL_WORDS: usize = LABEL_CAPACITY / 8;
/// Slot words: seq, wall_ns, trace, span, parent, meta, a, b, c + label.
const SLOT_WORDS: usize = 9 + LABEL_WORDS;
/// Span-table entries retained per run (node-granular, so generous).
pub const SPAN_TABLE_CAPACITY: usize = 8192;
/// Trigger reasons retained per run.
pub const TRIGGER_CAPACITY: usize = 64;
/// The `format` field of every bundle this module writes.
pub const BUNDLE_FORMAT: &str = "psa-forensic-bundle";

const K_SPAN_OPEN: u64 = 1;
const K_SPAN_CLOSE: u64 = 2;
const K_CACHE_HIT: u64 = 3;
const K_CACHE_MISS: u64 = 4;
const K_FAULT_FIRED: u64 = 5;
const K_TASK_RETRY: u64 = 6;
const K_DEADLINE_ARM: u64 = 7;
const K_DEADLINE_EXPIRED: u64 = 8;
const K_VM_CENSUS: u64 = 9;
const K_BUDGET_EXHAUSTED: u64 = 10;
const K_ESTIMATE: u64 = 11;

static RECORDER_ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped by [`reset`]; thread-local rings re-register when stale.
static EPOCH: AtomicU64 = AtomicU64::new(1);

/// Turn the flight recorder on or off (off by default; independent of the
/// metrics gate). Seams cost one relaxed atomic load while off.
pub fn set_enabled(on: bool) {
    if on {
        epoch_instant(); // anchor the wall clock before the first event
    }
    RECORDER_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the recorder currently journals anything.
#[inline]
pub fn enabled() -> bool {
    RECORDER_ENABLED.load(Ordering::Relaxed)
}

/// A decoded flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Per-worker monotone sequence number (ring head at record time).
    pub seq: u64,
    /// Nanoseconds since the recorder's process-local epoch.
    pub wall_ns: u64,
    /// The ambient span the event occurred under, if any.
    pub span: Option<SpanCtx>,
    pub kind: EventKind,
}

/// What happened. Labels longer than [`LABEL_CAPACITY`] bytes arrive
/// truncated (at a char boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    SpanOpen {
        label: String,
    },
    SpanClose,
    CacheHit {
        domain: String,
    },
    CacheMiss {
        domain: String,
    },
    FaultFired {
        seam: String,
        site: String,
    },
    TaskRetry {
        task: String,
        attempt: u64,
    },
    DeadlineArm {
        scope: String,
        deadline_ms: u64,
    },
    DeadlineExpired {
        scope: String,
    },
    VmCensus {
        dispatches: u64,
        specialized: u64,
        calls: u64,
    },
    BudgetExhausted {
        detail: String,
    },
    Estimate {
        site: String,
    },
}

impl EventKind {
    /// The stable `kind` string used in bundle JSON.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SpanOpen { .. } => "span_open",
            EventKind::SpanClose => "span_close",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::FaultFired { .. } => "fault_fired",
            EventKind::TaskRetry { .. } => "task_retry",
            EventKind::DeadlineArm { .. } => "deadline_arm",
            EventKind::DeadlineExpired { .. } => "deadline_expired",
            EventKind::VmCensus { .. } => "vm_census",
            EventKind::BudgetExhausted { .. } => "budget_exhausted",
            EventKind::Estimate { .. } => "estimate",
        }
    }
}

struct Slot {
    version: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            words: [0u64; SLOT_WORDS].map(AtomicU64::new),
        }
    }
}

struct WorkerRing {
    worker: usize,
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl WorkerRing {
    fn new(worker: usize) -> WorkerRing {
        WorkerRing {
            worker,
            head: AtomicU64::new(0),
            slots: (0..RING_CAPACITY).map(|_| Slot::new()).collect(),
        }
    }

    /// Single-writer append. Seqlock protocol: version goes odd, words are
    /// stored, version goes even (2·seq+2), head advances.
    /// (The argument list mirrors the slot's word layout on purpose.)
    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        wall_ns: u64,
        span: Option<SpanCtx>,
        kind: u64,
        a: u64,
        b: u64,
        c: u64,
        label: &str,
    ) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head % RING_CAPACITY as u64) as usize];
        slot.version.store(2 * head + 1, Ordering::Relaxed);
        fence(Ordering::Release);

        let (trace, span_id, parent) = match span {
            Some(s) => (s.trace_id, s.span_id, s.parent_id),
            None => (0, 0, 0),
        };
        let mut n = label.len().min(LABEL_CAPACITY);
        while n > 0 && !label.is_char_boundary(n) {
            n -= 1;
        }
        let bytes = &label.as_bytes()[..n];
        let meta = kind | ((span.is_some() as u64) << 8) | ((n as u64) << 16);
        let fixed = [head, wall_ns, trace, span_id, parent, meta, a, b, c];
        for (i, v) in fixed.iter().enumerate() {
            self_store(&slot.words[i], *v);
        }
        for w in 0..LABEL_WORDS {
            let mut word = [0u8; 8];
            let lo = w * 8;
            if lo < n {
                let hi = (lo + 8).min(n);
                word[..hi - lo].copy_from_slice(&bytes[lo..hi]);
            }
            self_store(&slot.words[9 + w], u64::from_le_bytes(word));
        }

        fence(Ordering::Release);
        slot.version.store(2 * head + 2, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Seqlock read of slot `idx`; `None` for never-written or torn slots.
    fn read_slot(&self, idx: usize) -> Option<Event> {
        let slot = &self.slots[idx];
        for _ in 0..8 {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 {
                return None;
            }
            if v1 % 2 == 1 {
                continue;
            }
            let mut w = [0u64; SLOT_WORDS];
            for (i, word) in w.iter_mut().enumerate() {
                *word = slot.words[i].load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Relaxed) != v1 {
                continue;
            }
            return decode(&w);
        }
        None
    }
}

#[inline]
fn self_store(word: &AtomicU64, v: u64) {
    word.store(v, Ordering::Relaxed);
}

fn decode(w: &[u64; SLOT_WORDS]) -> Option<Event> {
    let meta = w[5];
    let tag = meta & 0xff;
    let has_span = (meta >> 8) & 1 == 1;
    let n = (((meta >> 16) & 0xff) as usize).min(LABEL_CAPACITY);
    let mut bytes = [0u8; LABEL_CAPACITY];
    for i in 0..LABEL_WORDS {
        bytes[i * 8..(i + 1) * 8].copy_from_slice(&w[9 + i].to_le_bytes());
    }
    let label = String::from_utf8_lossy(&bytes[..n]).into_owned();
    let (a, b, c) = (w[6], w[7], w[8]);
    let kind = match tag {
        K_SPAN_OPEN => EventKind::SpanOpen { label },
        K_SPAN_CLOSE => EventKind::SpanClose,
        K_CACHE_HIT => EventKind::CacheHit { domain: label },
        K_CACHE_MISS => EventKind::CacheMiss { domain: label },
        K_FAULT_FIRED => match label.split_once(':') {
            Some((seam, site)) => EventKind::FaultFired {
                seam: seam.to_string(),
                site: site.to_string(),
            },
            None => EventKind::FaultFired {
                seam: String::new(),
                site: label,
            },
        },
        K_TASK_RETRY => EventKind::TaskRetry {
            task: label,
            attempt: a,
        },
        K_DEADLINE_ARM => EventKind::DeadlineArm {
            scope: label,
            deadline_ms: a,
        },
        K_DEADLINE_EXPIRED => EventKind::DeadlineExpired { scope: label },
        K_VM_CENSUS => EventKind::VmCensus {
            dispatches: a,
            specialized: b,
            calls: c,
        },
        K_BUDGET_EXHAUSTED => EventKind::BudgetExhausted { detail: label },
        K_ESTIMATE => EventKind::Estimate { site: label },
        _ => return None,
    };
    Some(Event {
        seq: w[0],
        wall_ns: w[1],
        span: has_span.then_some(SpanCtx {
            trace_id: w[2],
            span_id: w[3],
            parent_id: w[4],
        }),
        kind,
    })
}

/// One span-table entry: the full causal tree survives ring eviction here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanInfo {
    pub ctx: SpanCtx,
    pub label: String,
    /// Worker that opened the span.
    pub worker: usize,
}

struct SpanTable {
    records: Vec<SpanInfo>,
    dropped: u64,
}

struct Registry {
    rings: Mutex<Vec<Arc<WorkerRing>>>,
    spans: Mutex<SpanTable>,
    triggers: Mutex<Vec<String>>,
    dump_path: Mutex<Option<PathBuf>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        rings: Mutex::new(Vec::new()),
        spans: Mutex::new(SpanTable {
            records: Vec::new(),
            dropped: 0,
        }),
        triggers: Mutex::new(Vec::new()),
        dump_path: Mutex::new(None),
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn epoch_instant() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

fn wall_ns() -> u64 {
    epoch_instant().elapsed().as_nanos() as u64
}

thread_local! {
    static LOCAL_RING: RefCell<Option<(u64, Arc<WorkerRing>)>> = const { RefCell::new(None) };
}

fn with_ring(f: impl FnOnce(&WorkerRing)) {
    LOCAL_RING.with(|cell| {
        let mut cell = cell.borrow_mut();
        let epoch = EPOCH.load(Ordering::Relaxed);
        let stale = match &*cell {
            Some((e, _)) => *e != epoch,
            None => true,
        };
        if stale {
            let mut rings = lock(&registry().rings);
            let ring = Arc::new(WorkerRing::new(rings.len()));
            rings.push(Arc::clone(&ring));
            *cell = Some((epoch, ring));
        }
        if let Some((_, ring)) = &*cell {
            f(ring);
        }
    });
}

/// Clear all rings, the span table and the trigger list, and invalidate
/// every thread's cached ring (they re-register on next record). The dump
/// path survives — it is harness configuration, not run state.
pub fn reset() {
    EPOCH.fetch_add(1, Ordering::Relaxed);
    let reg = registry();
    lock(&reg.rings).clear();
    let mut spans = lock(&reg.spans);
    spans.records.clear();
    spans.dropped = 0;
    drop(spans);
    lock(&reg.triggers).clear();
}

/// Where [`flush_dump`] writes the bundle (`None` disables dumping).
pub fn set_dump_path(path: Option<PathBuf>) {
    *lock(&registry().dump_path) = path;
}

pub fn dump_path() -> Option<PathBuf> {
    lock(&registry().dump_path).clone()
}

/// Note why a forensic dump is warranted (panic, timeout, fault, budget
/// exhaustion). Bounded; a no-op while the recorder is disabled.
pub fn mark_trigger(reason: &str) {
    if !enabled() {
        return;
    }
    let mut triggers = lock(&registry().triggers);
    if triggers.len() < TRIGGER_CAPACITY {
        triggers.push(reason.to_string());
    }
}

pub fn record_span_open(span: SpanCtx, label: &str) {
    if !enabled() {
        return;
    }
    let ts = wall_ns();
    with_ring(|ring| {
        ring.push(ts, Some(span), K_SPAN_OPEN, 0, 0, 0, label);
        let mut spans = lock(&registry().spans);
        if spans.records.len() < SPAN_TABLE_CAPACITY {
            spans.records.push(SpanInfo {
                ctx: span,
                label: label.to_string(),
                worker: ring.worker,
            });
        } else {
            spans.dropped += 1;
        }
    });
}

pub fn record_span_close(span: SpanCtx) {
    if !enabled() {
        return;
    }
    let ts = wall_ns();
    with_ring(|ring| ring.push(ts, Some(span), K_SPAN_CLOSE, 0, 0, 0, ""));
}

/// Journal a cache lookup under the ambient span.
pub fn record_cache(domain: &str, hit: bool) {
    if !enabled() {
        return;
    }
    let ts = wall_ns();
    let span = crate::span::current();
    let kind = if hit { K_CACHE_HIT } else { K_CACHE_MISS };
    with_ring(|ring| ring.push(ts, span, kind, 0, 0, 0, domain));
}

/// Journal a fired fault **and** mark it as a dump trigger.
pub fn record_fault(seam: &str, site: &str) {
    if !enabled() {
        return;
    }
    let ts = wall_ns();
    let span = crate::span::current();
    let label = format!("{seam}:{site}");
    with_ring(|ring| ring.push(ts, span, K_FAULT_FIRED, 0, 0, 0, &label));
    mark_trigger(&format!("fault:{label}"));
}

pub fn record_retry(task: &str, attempt: u64) {
    if !enabled() {
        return;
    }
    let ts = wall_ns();
    let span = crate::span::current();
    with_ring(|ring| ring.push(ts, span, K_TASK_RETRY, attempt, 0, 0, task));
}

pub fn record_deadline_arm(scope: &str, deadline_ms: u64) {
    if !enabled() {
        return;
    }
    let ts = wall_ns();
    let span = crate::span::current();
    with_ring(|ring| ring.push(ts, span, K_DEADLINE_ARM, deadline_ms, 0, 0, scope));
}

/// Journal a deadline expiry **and** mark it as a dump trigger.
pub fn record_deadline_expired(scope: &str) {
    if !enabled() {
        return;
    }
    let ts = wall_ns();
    let span = crate::span::current();
    with_ring(|ring| ring.push(ts, span, K_DEADLINE_EXPIRED, 0, 0, 0, scope));
    mark_trigger(&format!("deadline:{scope}"));
}

/// Journal a VM run's dispatch-class census (deltas for one `run_main`).
pub fn record_vm_census(dispatches: u64, specialized: u64, calls: u64) {
    if !enabled() {
        return;
    }
    let ts = wall_ns();
    let span = crate::span::current();
    with_ring(|ring| ring.push(ts, span, K_VM_CENSUS, dispatches, specialized, calls, ""));
}

/// Journal budget exhaustion **and** mark it as a dump trigger.
pub fn record_budget_exhausted(detail: &str) {
    if !enabled() {
        return;
    }
    let ts = wall_ns();
    let span = crate::span::current();
    with_ring(|ring| ring.push(ts, span, K_BUDGET_EXHAUSTED, 0, 0, 0, detail));
    mark_trigger(&format!("budget:{detail}"));
}

/// Journal a platform-model estimate call under the ambient span.
pub fn record_estimate(site: &str) {
    if !enabled() {
        return;
    }
    let ts = wall_ns();
    let span = crate::span::current();
    with_ring(|ring| ring.push(ts, span, K_ESTIMATE, 0, 0, 0, site));
}

/// The surviving events of one worker's ring, in sequence order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerDump {
    pub worker: usize,
    /// Events recorded but no longer in the ring (evicted or torn).
    pub dropped: u64,
    pub events: Vec<Event>,
}

/// Everything a forensic bundle is rendered from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    pub triggers: Vec<String>,
    pub spans: Vec<SpanInfo>,
    pub dropped_spans: u64,
    pub workers: Vec<WorkerDump>,
}

impl Snapshot {
    /// The sub-snapshot attributable to one causal trace: span-table
    /// entries whose `trace_id` matches, ring events attributed to a span
    /// of that trace, and the trigger list kept whole (trigger strings
    /// carry no trace id — post-mortems want them regardless). Workers
    /// left with no matching events are dropped. A multi-tenant service
    /// flushes one *job's* forensic bundle with this — a job's root span
    /// id is its trace id.
    pub fn for_trace(&self, trace_id: u64) -> Snapshot {
        Snapshot {
            triggers: self.triggers.clone(),
            spans: self
                .spans
                .iter()
                .filter(|s| s.ctx.trace_id == trace_id)
                .cloned()
                .collect(),
            dropped_spans: self.dropped_spans,
            workers: self
                .workers
                .iter()
                .filter_map(|w| {
                    let events: Vec<Event> = w
                        .events
                        .iter()
                        .filter(|e| e.span.map(|s| s.trace_id) == Some(trace_id))
                        .cloned()
                        .collect();
                    (!events.is_empty()).then_some(WorkerDump {
                        worker: w.worker,
                        dropped: w.dropped,
                        events,
                    })
                })
                .collect(),
        }
    }
}

/// Copy out the current recorder state (rings, span table, triggers).
/// Safe to call while writers are live; torn slots are dropped.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let rings: Vec<Arc<WorkerRing>> = lock(&reg.rings).clone();
    let mut workers: Vec<WorkerDump> = rings
        .iter()
        .map(|ring| {
            let head = ring.head.load(Ordering::Acquire);
            let mut events: Vec<Event> = (0..RING_CAPACITY)
                .filter_map(|i| ring.read_slot(i))
                .filter(|e| e.seq < head)
                .collect();
            events.sort_by_key(|e| e.seq);
            WorkerDump {
                worker: ring.worker,
                dropped: head.saturating_sub(events.len() as u64),
                events,
            }
        })
        .collect();
    workers.sort_by_key(|w| w.worker);
    let spans = lock(&reg.spans);
    Snapshot {
        triggers: lock(&reg.triggers).clone(),
        spans: spans.records.clone(),
        dropped_spans: spans.dropped,
        workers,
    }
}

/// Render a snapshot as a self-contained forensic bundle: triggers, span
/// table, per-worker events, and an embedded Perfetto timeline. Pure —
/// the proptests and the determinism test feed it synthetic snapshots.
pub fn render_bundle(s: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\"format\":\"");
    out.push_str(BUNDLE_FORMAT);
    out.push_str("\",\"version\":1");
    let _ = write!(out, ",\"ring_capacity\":{RING_CAPACITY}");
    out.push_str(",\"triggers\":[");
    for (i, t) in s.triggers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(&mut out, t);
    }
    out.push(']');
    let _ = write!(out, ",\"dropped_spans\":{}", s.dropped_spans);
    out.push_str(",\"spans\":[");
    for (i, sp) in s.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\",\"label\":",
            sp.ctx.trace_id, sp.ctx.span_id, sp.ctx.parent_id
        );
        write_str(&mut out, &sp.label);
        let _ = write!(out, ",\"worker\":{}}}", sp.worker);
    }
    out.push_str("],\"workers\":[");
    for (i, w) in s.workers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"worker\":{},\"dropped\":{},\"events\":[",
            w.worker, w.dropped
        );
        for (j, e) in w.events.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_event(&mut out, e);
        }
        out.push_str("]}");
    }
    out.push_str("],\"perfetto\":");
    out.push_str(&perfetto_timeline(s).to_json());
    out.push('}');
    out
}

fn write_event(out: &mut String, e: &Event) {
    let _ = write!(
        out,
        "{{\"seq\":{},\"wall_ns\":{},\"kind\":\"{}\"",
        e.seq,
        e.wall_ns,
        e.kind.name()
    );
    let field = |out: &mut String, key: &str, value: &str| {
        let _ = write!(out, ",\"{key}\":");
        write_str(out, value);
    };
    match &e.kind {
        EventKind::SpanOpen { label } => field(out, "label", label),
        EventKind::SpanClose => {}
        EventKind::CacheHit { domain } | EventKind::CacheMiss { domain } => {
            field(out, "domain", domain)
        }
        EventKind::FaultFired { seam, site } => {
            field(out, "seam", seam);
            field(out, "site", site);
        }
        EventKind::TaskRetry { task, attempt } => {
            field(out, "task", task);
            let _ = write!(out, ",\"attempt\":{attempt}");
        }
        EventKind::DeadlineArm { scope, deadline_ms } => {
            field(out, "scope", scope);
            let _ = write!(out, ",\"deadline_ms\":{deadline_ms}");
        }
        EventKind::DeadlineExpired { scope } => field(out, "scope", scope),
        EventKind::VmCensus {
            dispatches,
            specialized,
            calls,
        } => {
            let _ = write!(
                out,
                ",\"dispatches\":{dispatches},\"specialized\":{specialized},\"calls\":{calls}"
            );
        }
        EventKind::BudgetExhausted { detail } => field(out, "detail", detail),
        EventKind::Estimate { site } => field(out, "site", site),
    }
    if let Some(sp) = e.span {
        let _ = write!(
            out,
            ",\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\"",
            sp.trace_id, sp.span_id, sp.parent_id
        );
    }
    out.push('}');
}

/// Build the embedded Perfetto timeline: pid 1 = the flight recorder, one
/// track per worker. Span opens/closes become `B`/`E` pairs; everything
/// else an instant. Ring eviction can orphan closes (skipped at depth 0)
/// or opens (closed at the final timestamp) — the B/E invariants hold
/// regardless, as the workspace proptests verify.
fn perfetto_timeline(s: &Snapshot) -> TraceBuilder {
    let mut tb = TraceBuilder::new();
    tb.process_name(1, "flight-recorder");
    for w in &s.workers {
        let tid = w.worker as u32;
        tb.thread_name(1, tid, &format!("worker {}", w.worker));
        let mut depth = 0usize;
        let mut last_ts = 0u64;
        for e in &w.events {
            let ts = e.wall_ns.max(last_ts);
            last_ts = ts;
            match &e.kind {
                EventKind::SpanOpen { label } => {
                    let mut args: Vec<(String, ArgValue)> = Vec::new();
                    if let Some(sp) = e.span {
                        args.push((
                            "span".to_string(),
                            ArgValue::Str(format!("{:016x}", sp.span_id)),
                        ));
                        args.push((
                            "parent".to_string(),
                            ArgValue::Str(format!("{:016x}", sp.parent_id)),
                        ));
                    }
                    tb.begin(1, tid, ts, label, args);
                    depth += 1;
                }
                EventKind::SpanClose => {
                    if depth > 0 {
                        tb.end(1, tid, ts);
                        depth -= 1;
                    }
                }
                other => {
                    let name = match other {
                        EventKind::CacheHit { domain } => format!("cache-hit {domain}"),
                        EventKind::CacheMiss { domain } => format!("cache-miss {domain}"),
                        EventKind::FaultFired { seam, site } => format!("fault {seam}:{site}"),
                        EventKind::TaskRetry { task, attempt } => {
                            format!("retry {task} #{attempt}")
                        }
                        EventKind::DeadlineArm { scope, deadline_ms } => {
                            format!("deadline-arm {scope} {deadline_ms}ms")
                        }
                        EventKind::DeadlineExpired { scope } => {
                            format!("deadline-expired {scope}")
                        }
                        EventKind::VmCensus { .. } => "vm-census".to_string(),
                        EventKind::BudgetExhausted { detail } => format!("budget {detail}"),
                        EventKind::Estimate { site } => format!("estimate {site}"),
                        EventKind::SpanOpen { .. } | EventKind::SpanClose => unreachable!(),
                    };
                    tb.instant(1, tid, ts, &name, Vec::new());
                }
            }
        }
        while depth > 0 {
            tb.end(1, tid, last_ts);
            depth -= 1;
        }
    }
    tb
}

/// Write the current bundle to the configured dump path, if any. Returns
/// the path written. Called from both the success path (artefact writing)
/// and the failure path (`run_or_exit`), so a crashed flow still leaves
/// its forensics behind.
pub fn flush_dump() -> std::io::Result<Option<PathBuf>> {
    let Some(path) = dump_path() else {
        return Ok(None);
    };
    std::fs::write(&path, render_bundle(&snapshot()))?;
    Ok(Some(path))
}

/// Serialises tests that flip the global recorder gate (in-crate only;
/// cross-crate tests run in separate processes).
#[cfg(test)]
pub(crate) fn test_gate() -> &'static Mutex<()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn guarded() -> MutexGuard<'static, ()> {
        test_gate().lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn events_round_trip_through_the_ring() {
        let _g = guarded();
        set_enabled(true);
        reset();
        let root = SpanCtx::root("test", 1);
        record_span_open(root, "flow");
        record_cache("interp/profile", false);
        record_cache("interp/profile", true);
        record_fault("estimate", "fpga-hls/Stratix 10");
        record_retry("Tune Parameters", 2);
        record_deadline_arm("task", 250);
        record_vm_census(100, 60, 3);
        record_budget_exhausted("vm cycle budget 1000");
        record_estimate("gpu-estimate/GeForce RTX 2080 Ti");
        record_span_close(root);
        set_enabled(false);

        let snap = snapshot();
        assert_eq!(snap.workers.len(), 1);
        let events = &snap.workers[0].events;
        assert_eq!(events.len(), 10);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        assert_eq!(
            events[0].kind,
            EventKind::SpanOpen {
                label: "flow".to_string()
            }
        );
        assert_eq!(events[0].span, Some(root));
        assert_eq!(
            events[3].kind,
            EventKind::FaultFired {
                seam: "estimate".to_string(),
                site: "fpga-hls/Stratix 10".to_string()
            }
        );
        assert_eq!(
            events[6].kind,
            EventKind::VmCensus {
                dispatches: 100,
                specialized: 60,
                calls: 3
            }
        );
        assert_eq!(
            snap.triggers,
            vec![
                "fault:estimate:fpga-hls/Stratix 10".to_string(),
                "budget:vm cycle budget 1000".to_string()
            ]
        );
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].label, "flow");
    }

    #[test]
    fn ring_evicts_oldest_but_span_table_survives() {
        let _g = guarded();
        set_enabled(true);
        reset();
        let root = SpanCtx::root("wrap", 0);
        record_span_open(root, "root");
        for i in 0..(RING_CAPACITY as u64 + 50) {
            record_cache(if i % 2 == 0 { "a" } else { "b" }, i % 3 == 0);
        }
        set_enabled(false);

        let snap = snapshot();
        let w = &snap.workers[0];
        assert_eq!(w.events.len(), RING_CAPACITY);
        assert_eq!(w.dropped, 51); // span_open + 50 evicted cache events
        let first = w.events.first().unwrap().seq;
        let last = w.events.last().unwrap().seq;
        assert_eq!(last - first + 1, RING_CAPACITY as u64);
        // The root span fell out of the ring but not out of the span table.
        assert!(w.events.iter().all(|e| e.kind.name() != "span_open"));
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].ctx, root);
    }

    #[test]
    fn for_trace_filters_spans_and_events_by_trace_id() {
        let _g = guarded();
        set_enabled(true);
        reset();
        let job_a = SpanCtx::root("psa-serve/tenant-a/job-1", 7);
        let job_b = SpanCtx::root("psa-serve/tenant-b/job-2", 7);
        assert_ne!(job_a.trace_id, job_b.trace_id);
        record_span_open(job_a, "job-a");
        record_cache("interp/profile", false);
        record_span_close(job_a);
        record_span_open(job_b, "job-b");
        record_cache("interp/profile", true);
        record_span_close(job_b);
        mark_trigger("panic:task `x`: boom");
        set_enabled(false);

        let snap = snapshot();
        let only_a = snap.for_trace(job_a.trace_id);
        assert_eq!(only_a.spans.len(), 1);
        assert_eq!(only_a.spans[0].ctx, job_a);
        // Every surviving event belongs to job A's trace.
        for w in &only_a.workers {
            assert!(!w.events.is_empty());
            assert!(w
                .events
                .iter()
                .all(|e| e.span.map(|s| s.trace_id) == Some(job_a.trace_id)));
        }
        // Triggers survive the filter (they carry no trace id).
        assert_eq!(only_a.triggers, snap.triggers);
        // A trace nobody recorded yields an empty — but renderable — bundle.
        let none = snap.for_trace(0xdead_beef);
        assert!(none.spans.is_empty() && none.workers.is_empty());
        assert!(render_bundle(&none).contains(BUNDLE_FORMAT));
    }

    #[test]
    fn long_labels_truncate_at_char_boundary() {
        let _g = guarded();
        set_enabled(true);
        reset();
        let long = format!("{}é", "x".repeat(LABEL_CAPACITY - 1));
        record_cache(&long, true);
        set_enabled(false);
        let snap = snapshot();
        match &snap.workers[0].events[0].kind {
            EventKind::CacheHit { domain } => {
                assert_eq!(domain, &"x".repeat(LABEL_CAPACITY - 1));
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn bundle_renders_valid_self_contained_json() {
        let _g = guarded();
        set_enabled(true);
        reset();
        let root = SpanCtx::root("bundle", 3);
        {
            let _s = crate::span::enter(root, "flow \"quoted\"");
            record_cache("interp/profile", false);
            record_fault("task", "flow/Tune Parameters");
        }
        set_enabled(false);

        let bundle = render_bundle(&snapshot());
        let parsed = json::parse(&bundle).expect("bundle parses");
        assert_eq!(
            parsed.get("format").and_then(|v| v.as_str()),
            Some(BUNDLE_FORMAT)
        );
        let spans = parsed.get("spans").and_then(|v| v.as_array()).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("span").and_then(|v| v.as_str()),
            Some(format!("{:016x}", root.span_id).as_str())
        );
        let workers = parsed.get("workers").and_then(|v| v.as_array()).unwrap();
        let events = workers[0].get("events").and_then(|v| v.as_array()).unwrap();
        assert_eq!(events.len(), 4); // open, miss, fault, close
                                     // Cache miss inherited the ambient span.
        assert_eq!(
            events[1].get("span").and_then(|v| v.as_str()),
            Some(format!("{:016x}", root.span_id).as_str())
        );
        let triggers = parsed.get("triggers").and_then(|v| v.as_array()).unwrap();
        assert_eq!(triggers.len(), 1);
        // Embedded Perfetto timeline is itself a loadable trace document.
        let perfetto = parsed.get("perfetto").expect("perfetto key");
        let trace_events = perfetto
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap();
        let b = trace_events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("B"));
        let e = trace_events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("E"));
        assert_eq!(b.count(), e.count(), "balanced B/E");
    }

    #[test]
    fn disabled_recorder_journals_nothing() {
        let _g = guarded();
        set_enabled(false);
        reset();
        record_cache("ghost", true);
        mark_trigger("ghost");
        let snap = snapshot();
        assert!(snap.workers.is_empty());
        assert!(snap.triggers.is_empty());
    }
}
