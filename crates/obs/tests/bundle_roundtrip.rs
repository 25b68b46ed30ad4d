//! Property tests for the forensic-bundle renderer and the Perfetto
//! timeline: for *arbitrary* snapshots — span trees of any shape, span
//! times out of order or never closed, event streams with unbalanced
//! opens/closes, labels full of JSON-hostile characters — `render_bundle`
//! must emit a document that parses with the in-crate parser, round-trips
//! every span id, label and time, keeps per-worker sequence numbers
//! strictly increasing, and embeds a timeline with exactly one `B`/`E`
//! pair per span-table entry, balanced with non-decreasing timestamps on
//! every track. These are the invariants the CI recorder leg checks with
//! jq on real dumps; here they are pinned for the whole input space.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use psa_obs::json::{self, Json};
use psa_obs::recorder::{Event, EventKind, Snapshot, SpanInfo, WorkerDump, RING_CAPACITY};
use psa_obs::SpanCtx;
use std::collections::HashMap;

/// Labels that stress the JSON string writer.
fn label_strategy() -> BoxedStrategy<String> {
    prop_oneof![
        (0usize..5).prop_map(|i| format!("plain-{i}")),
        Just("with \"quotes\" and \\backslash\\".to_string()),
        Just("line\nbreak\ttab".to_string()),
        Just("unicod\u{e9} \u{21d2} \u{3bb}".to_string()),
        Just(String::new()),
    ]
    .boxed()
}

fn kind_strategy() -> BoxedStrategy<EventKind> {
    prop_oneof![
        label_strategy().prop_map(|label| EventKind::SpanOpen { label }),
        Just(EventKind::SpanClose),
        label_strategy().prop_map(|domain| EventKind::CacheHit { domain }),
        label_strategy().prop_map(|domain| EventKind::CacheMiss { domain }),
        (label_strategy(), label_strategy())
            .prop_map(|(seam, site)| EventKind::FaultFired { seam, site }),
        (label_strategy(), 0u64..100)
            .prop_map(|(task, attempt)| EventKind::TaskRetry { task, attempt }),
        (label_strategy(), 0u64..100_000)
            .prop_map(|(scope, deadline_ms)| EventKind::DeadlineArm { scope, deadline_ms }),
        label_strategy().prop_map(|scope| EventKind::DeadlineExpired { scope }),
        (0u64..1_000_000, 0u64..1_000_000, 0u64..10_000).prop_map(
            |(dispatches, specialized, calls)| {
                EventKind::VmCensus {
                    dispatches,
                    specialized,
                    calls,
                }
            }
        ),
        label_strategy().prop_map(|detail| EventKind::BudgetExhausted { detail }),
        label_strategy().prop_map(|site| EventKind::Estimate { site }),
    ]
    .boxed()
}

/// A span table forming a well-linked tree: entry 0 is the root, every
/// later entry is a structural child of an earlier one. This mirrors what
/// the live recorder produces (parents are opened before children). Open
/// and close times are arbitrary — out of order, closing before they open,
/// or never closing — so the timeline's clamps are exercised too.
fn span_table_strategy() -> BoxedStrategy<Vec<SpanInfo>> {
    (
        0usize..7,
        0u64..1_000,
        pvec(label_strategy(), 6..7),
        pvec(0usize..6, 6..7),
        pvec(0u64..1_000_000_000, 7..8),
        pvec(0u64..1_000_000_000, 7..8),
        pvec(any::<bool>(), 7..8),
    )
        .prop_map(
            |(extra, seed, labels, parent_picks, opens, closes, closed)| {
                let root = SpanCtx::root("prop-flow", seed);
                let mut ctxs = vec![(root, "prop-flow".to_string(), 0)];
                for i in 0..extra {
                    let parent = ctxs[parent_picks[i] % ctxs.len()].0;
                    ctxs.push((parent.child(&labels[i], i as u64), labels[i].clone(), i % 2));
                }
                ctxs.into_iter()
                    .enumerate()
                    .map(|(i, (ctx, label, worker))| SpanInfo {
                        ctx,
                        label,
                        worker,
                        open_ns: opens[i],
                        close_ns: closed[i].then_some(closes[i]),
                    })
                    .collect()
            },
        )
        .boxed()
}

fn worker_strategy(worker: usize) -> BoxedStrategy<WorkerDump> {
    (
        pvec(kind_strategy(), 10..11),
        pvec(1u64..5, 10..11),
        pvec(0u64..1_000_000_000, 10..11),
        0usize..11,
        0u64..50,
    )
        .prop_map(move |(kinds, gaps, walls, n, dropped)| {
            let mut seq = dropped; // the live recorder's residue starts past the evictions
            let events = kinds
                .into_iter()
                .take(n)
                .zip(gaps)
                .zip(walls)
                .map(|((kind, gap), wall_ns)| {
                    let e = Event {
                        seq,
                        wall_ns,
                        span: None,
                        kind,
                    };
                    seq += gap; // strictly increasing, gaps model torn slots
                    e
                })
                .collect();
            WorkerDump {
                worker,
                dropped,
                events,
            }
        })
        .boxed()
}

fn snapshot_strategy() -> BoxedStrategy<Snapshot> {
    (
        pvec(label_strategy(), 3..4),
        0usize..4,
        span_table_strategy(),
        0u64..10,
        worker_strategy(0),
        worker_strategy(1),
        worker_strategy(2),
        0usize..4,
    )
        .prop_map(|(triggers, nt, spans, dropped_spans, w0, w1, w2, nw)| {
            let mut triggers = triggers;
            triggers.truncate(nt);
            let mut workers = vec![w0, w1, w2];
            workers.truncate(nw);
            // Events attach to a table span, no span, or a span of a trace
            // the table never saw; so the residue holds closes (and
            // instants) of spans whose ring open was evicted.
            for e in workers.iter_mut().flat_map(|w| &mut w.events) {
                e.span = match e.seq as usize % (spans.len() + 2) {
                    0 => None,
                    1 => Some(SpanCtx::root("foreign", 9)),
                    i => Some(spans[i - 2].ctx),
                };
            }
            Snapshot {
                triggers,
                spans,
                dropped_spans,
                workers,
            }
        })
        .boxed()
}

/// A single worker's span table as the live recorder fills it: a stack
/// of opens and closes on a clock that never runs backwards, with spans
/// still open at the end.
fn nested_table_strategy() -> BoxedStrategy<Vec<SpanInfo>> {
    (pvec(any::<bool>(), 0..24), pvec(0u64..1_000, 24..25))
        .prop_map(|(ops, gaps)| {
            let root = SpanCtx::root("nested", 0);
            let mut table: Vec<SpanInfo> = Vec::new();
            let mut stack: Vec<usize> = Vec::new();
            let mut clock = 0;
            for (i, (open, gap)) in ops.into_iter().zip(gaps).enumerate() {
                clock += gap;
                match stack.last() {
                    Some(&top) if !open => {
                        table[top].close_ns = Some(clock);
                        stack.pop();
                    }
                    _ => {
                        let ctx = match stack.last() {
                            Some(&top) => table[top].ctx.child("node", i as u64),
                            None => root.child("flow", i as u64),
                        };
                        stack.push(table.len());
                        table.push(SpanInfo {
                            ctx,
                            label: format!("span-{i}"),
                            worker: 0,
                            open_ns: clock,
                            close_ns: None,
                        });
                    }
                }
            }
            table
        })
        .boxed()
}

/// Walk a timeline's events track by track: timestamps never decrease,
/// every `E` closes an open `B`, and every track ends balanced. Returns
/// each span's `(span id, begin ts, end ts)` in µs, in closing order.
fn check_tracks(events: &[Json]) -> Vec<(u64, f64, f64)> {
    let mut open: HashMap<(u64, u64), Vec<(u64, f64)>> = HashMap::new();
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut pairs = Vec::new();
    for e in events {
        let ph = e.get("ph").expect("ph").as_str().expect("string");
        if ph == "M" {
            continue;
        }
        let pid = e.get("pid").expect("pid").as_u64().expect("u64");
        let tid = e.get("tid").expect("tid").as_u64().expect("u64");
        let ts = e.get("ts").expect("ts").as_f64().expect("f64");
        let track = (pid, tid);
        let prev = last_ts.entry(track).or_insert(f64::NEG_INFINITY);
        prop_assert!(ts >= *prev, "timestamps regress on {track:?}");
        *prev = ts;
        let stack = open.entry(track).or_default();
        match ph {
            "B" => stack.push((hex_u64(e.get("args").expect("args"), "span"), ts)),
            "E" => {
                let (span, began) = stack.pop().expect("E closes an open B");
                pairs.push((span, began, ts));
            }
            "i" => {}
            other => prop_assert!(false, "unexpected phase {other:?}"),
        }
    }
    for (track, stack) in &open {
        prop_assert!(stack.is_empty(), "track {track:?} left spans open");
    }
    pairs
}

fn timeline_events(snapshot: &Snapshot) -> Vec<Json> {
    let text = psa_obs::recorder::timeline(snapshot).to_json();
    let doc = json::parse(&text).expect("timeline parses");
    doc.get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array")
        .to_vec()
}

fn hex_u64(v: &Json, key: &str) -> u64 {
    u64::from_str_radix(v.get(key).and_then(Json::as_str).expect(key), 16).expect("hex id")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bundle_parses_and_round_trips(snapshot in snapshot_strategy()) {
        let text = psa_obs::recorder::render_bundle(&snapshot);
        let doc = json::parse(&text).expect("bundle parses with the in-crate parser");

        prop_assert_eq!(
            doc.get("format").and_then(Json::as_str),
            Some("psa-forensic-bundle")
        );
        prop_assert_eq!(doc.get("version").and_then(Json::as_u64), Some(1));
        prop_assert_eq!(
            doc.get("ring_capacity").and_then(Json::as_u64),
            Some(RING_CAPACITY as u64)
        );

        // Triggers round-trip verbatim.
        let triggers: Vec<&str> = doc
            .get("triggers").expect("triggers").as_array().expect("array")
            .iter().map(|t| t.as_str().expect("string")).collect();
        prop_assert_eq!(triggers, snapshot.triggers.iter().map(String::as_str).collect::<Vec<_>>());

        // Span table round-trips ids and labels; every parent is either the
        // zero sentinel or itself present in the table (the CI jq check).
        let spans = doc.get("spans").expect("spans").as_array().expect("array");
        prop_assert_eq!(spans.len(), snapshot.spans.len());
        let ids: Vec<u64> = spans.iter().map(|s| hex_u64(s, "span")).collect();
        for (rendered, original) in spans.iter().zip(&snapshot.spans) {
            prop_assert_eq!(hex_u64(rendered, "trace"), original.ctx.trace_id);
            prop_assert_eq!(hex_u64(rendered, "span"), original.ctx.span_id);
            prop_assert_eq!(hex_u64(rendered, "parent"), original.ctx.parent_id);
            prop_assert_eq!(
                rendered.get("label").and_then(Json::as_str),
                Some(original.label.as_str())
            );
            prop_assert_eq!(
                rendered.get("open_ns").and_then(Json::as_u64),
                Some(original.open_ns)
            );
            prop_assert_eq!(
                rendered.get("close_ns").and_then(Json::as_u64),
                original.close_ns
            );
            let parent = hex_u64(rendered, "parent");
            prop_assert!(
                parent == 0 || ids.contains(&parent),
                "span parent {parent:016x} missing from the table"
            );
        }

        // Per-worker events: sequence numbers strictly increase and every
        // event's kind tag and string payloads survive the round trip.
        let workers = doc.get("workers").expect("workers").as_array().expect("array");
        prop_assert_eq!(workers.len(), snapshot.workers.len());
        for (rendered, original) in workers.iter().zip(&snapshot.workers) {
            prop_assert_eq!(
                rendered.get("dropped").and_then(Json::as_u64),
                Some(original.dropped)
            );
            let events = rendered.get("events").expect("events").as_array().expect("array");
            prop_assert_eq!(events.len(), original.events.len());
            let mut last_seq = None;
            for (ev, orig) in events.iter().zip(&original.events) {
                let seq = ev.get("seq").and_then(Json::as_u64).expect("seq");
                prop_assert_eq!(seq, orig.seq);
                if let Some(prev) = last_seq {
                    prop_assert!(seq > prev, "seq {seq} after {prev}");
                }
                last_seq = Some(seq);
                prop_assert_eq!(
                    ev.get("kind").and_then(Json::as_str),
                    Some(orig.kind.name())
                );
                let field = |key: &str| ev.get(key).and_then(Json::as_str);
                match &orig.kind {
                    EventKind::SpanOpen { label } => {
                        prop_assert_eq!(field("label"), Some(label.as_str()))
                    }
                    EventKind::CacheHit { domain } | EventKind::CacheMiss { domain } => {
                        prop_assert_eq!(field("domain"), Some(domain.as_str()))
                    }
                    EventKind::FaultFired { seam, site } => {
                        prop_assert_eq!(field("seam"), Some(seam.as_str()));
                        prop_assert_eq!(field("site"), Some(site.as_str()));
                    }
                    EventKind::TaskRetry { task, attempt } => {
                        prop_assert_eq!(field("task"), Some(task.as_str()));
                        prop_assert_eq!(ev.get("attempt").and_then(Json::as_u64), Some(*attempt));
                    }
                    EventKind::VmCensus { dispatches, .. } => prop_assert_eq!(
                        ev.get("dispatches").and_then(Json::as_u64),
                        Some(*dispatches)
                    ),
                    _ => {}
                }
                if let Some(sp) = orig.span {
                    prop_assert_eq!(hex_u64(ev, "span"), sp.span_id);
                }
            }
        }
    }

    #[test]
    fn embedded_timeline_pairs_every_span_on_balanced_monotone_tracks(
        snapshot in snapshot_strategy()
    ) {
        let text = psa_obs::recorder::render_bundle(&snapshot);
        let doc = json::parse(&text).expect("bundle parses");
        let events = doc
            .get("perfetto").expect("embedded perfetto document")
            .get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
        prop_assert_eq!(events, timeline_events(&snapshot).as_slice());

        // Exactly one B/E pair per span-table entry — however the ring
        // residue opens and closes spans (ring open/close events are not
        // rendered; the table is the timing source).
        let mut paired: Vec<u64> = check_tracks(events).iter().map(|p| p.0).collect();
        let mut table: Vec<u64> = snapshot.spans.iter().map(|s| s.ctx.span_id).collect();
        paired.sort_unstable();
        table.sort_unstable();
        prop_assert_eq!(paired, table);

        // Every ring event but span open/close is an instant, and the one
        // causal trace is a process named by its root span.
        let phase = |ph: &str| events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph)).count();
        let instants = snapshot
            .workers
            .iter()
            .flat_map(|w| &w.events)
            .filter(|e| !matches!(e.kind, EventKind::SpanOpen { .. } | EventKind::SpanClose))
            .count();
        prop_assert_eq!(phase("i"), instants);
        let processes: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        prop_assert!(
            processes == ["prop-flow"] || processes == ["prop-flow", "unattributed"],
            "{processes:?}"
        );
    }

    #[test]
    fn nested_spans_render_at_their_recorded_times(table in nested_table_strategy()) {
        let snapshot = Snapshot {
            triggers: Vec::new(),
            spans: table,
            dropped_spans: 0,
            workers: Vec::new(),
        };
        let end = snapshot
            .spans
            .iter()
            .flat_map(|s| [s.open_ns, s.close_ns.unwrap_or(0)])
            .max()
            .unwrap_or(0);
        let pairs = check_tracks(&timeline_events(&snapshot));
        prop_assert_eq!(pairs.len(), snapshot.spans.len());
        // Exact: a table the live recorder fills needs no clamping, and a
        // span still open ends at the snapshot's last timestamp.
        for (span, began, ended) in pairs {
            let entry = snapshot.spans.iter().find(|s| s.ctx.span_id == span).expect("span in table");
            prop_assert_eq!(began, entry.open_ns as f64 / 1e3);
            prop_assert_eq!(ended, entry.close_ns.unwrap_or(end) as f64 / 1e3);
        }
    }
}
