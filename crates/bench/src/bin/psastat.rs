//! `psastat` — offline viewer for the observability artefacts.
//!
//! Three modes, selected by the arguments:
//!
//! * `psastat <bundle.json>` — pretty-print a flight-recorder forensic
//!   bundle (`--recorder-dump=`) as a causal span tree: triggers first,
//!   then every span from the bundle's span table nested under its parent
//!   with its duration (or `open` if it never closed), and the ring events
//!   that carry its span id attached;
//! * `psastat <metrics.prom>` — render a Prometheus text snapshot
//!   (`--metrics-out=`): counters and gauges verbatim, histograms with
//!   count/sum and p50/p95/p99 estimated from the log₂ buckets;
//! * `psastat diff <old.json> <new.json>` — compare two `BENCH_*.json`
//!   files leaf by numeric leaf and print a regression report.
//!
//! Everything is parsed with the in-workspace `psa_obs::json` parser — no
//! external dependencies, same as the emitters.

use psa_obs::json::{self, Json};
use psa_obs::registry::quantile_from_bucket_counts;
use psa_obs::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [mode, old, new] if mode == "diff" => diff_bench(old, new),
        [path] => render_file(path),
        _ => {
            eprintln!("usage: psastat <bundle.json | metrics.prom>");
            eprintln!("       psastat diff <old BENCH.json> <new BENCH.json>");
            exit(2);
        }
    }
}

/// Write the rendered report to stdout. A broken pipe (`psastat ... |
/// head`) is a reader choosing to stop, not an error.
fn emit(buf: String) {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_all(buf.as_bytes())
        .and_then(|()| stdout.flush())
    {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("psastat: write failed: {e}");
        exit(1);
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("psastat: cannot read `{path}`: {e}");
        exit(1);
    })
}

fn render_file(path: &str) {
    let text = read(path);
    if text.trim_start().starts_with('{') {
        let doc = json::parse(&text).unwrap_or_else(|e| {
            eprintln!("psastat: `{path}` is not valid JSON: {e}");
            exit(1);
        });
        if doc.get("format").and_then(Json::as_str) == Some("psa-forensic-bundle") {
            render_bundle(path, &doc);
        } else {
            render_numeric_leaves(path, &doc);
        }
    } else {
        render_prometheus_snapshot(path, &text);
    }
}

// ---------------------------------------------------------------------------
// Forensic bundle → causal tree
// ---------------------------------------------------------------------------

struct SpanNode<'a> {
    label: &'a str,
    worker: u64,
    /// `close_ns − open_ns`; `None` while the span was still open.
    duration_ns: Option<u64>,
    children: Vec<usize>,
    events: Vec<String>,
}

fn render_bundle(path: &str, doc: &Json) {
    emit(bundle_report(path, doc));
}

fn bundle_report(path: &str, doc: &Json) -> String {
    let spans = doc.get("spans").and_then(Json::as_array).unwrap_or(&[]);
    let workers = doc.get("workers").and_then(Json::as_array).unwrap_or(&[]);
    let triggers = doc.get("triggers").and_then(Json::as_array).unwrap_or(&[]);
    let dropped_spans = doc.get("dropped_spans").and_then(Json::as_u64).unwrap_or(0);

    // Index the span table by span id. Document order is open order, so a
    // parent precedes its children and children render in the order they
    // opened. A flow that ran twice (a warm re-run) repeats its structural
    // ids: each span joins the latest earlier entry of its parent's id.
    let mut nodes: Vec<SpanNode> = Vec::with_capacity(spans.len());
    let mut by_id: BTreeMap<&str, usize> = BTreeMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (idx, s) in spans.iter().enumerate() {
        nodes.push(SpanNode {
            label: s.get("label").and_then(Json::as_str).unwrap_or("?"),
            worker: s.get("worker").and_then(Json::as_u64).unwrap_or(0),
            duration_ns: s.get("close_ns").and_then(Json::as_u64).map(|close| {
                close.saturating_sub(s.get("open_ns").and_then(Json::as_u64).unwrap_or(0))
            }),
            children: Vec::new(),
            events: Vec::new(),
        });
        let parent = s.get("parent").and_then(Json::as_str).unwrap_or("?");
        match by_id.get(parent) {
            Some(&p) if parent != "0000000000000000" => nodes[p].children.push(idx),
            _ => roots.push(idx),
        }
        by_id.insert(s.get("span").and_then(Json::as_str).unwrap_or("?"), idx);
    }

    // Attach ring events to their spans; structural open/close events are
    // implied by the tree and orphans (span evicted from the table) are
    // listed per worker at the end.
    let mut orphans: Vec<(u64, String)> = Vec::new();
    let mut total_events = 0usize;
    for w in workers {
        let wid = w.get("worker").and_then(Json::as_u64).unwrap_or(0);
        for ev in w.get("events").and_then(Json::as_array).unwrap_or(&[]) {
            total_events += 1;
            let kind = ev.get("kind").and_then(Json::as_str).unwrap_or("?");
            if kind == "span_open" || kind == "span_close" {
                continue;
            }
            let line = describe_event(ev, kind);
            match ev
                .get("span")
                .and_then(Json::as_str)
                .and_then(|id| by_id.get(id))
            {
                Some(&idx) => nodes[idx].events.push(line),
                None => orphans.push((wid, line)),
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "forensic bundle `{path}`: {} span(s), {} ring event(s), {} trigger(s)",
        nodes.len(),
        total_events,
        triggers.len()
    );
    if dropped_spans > 0 {
        let _ = writeln!(
            out,
            "  ({dropped_spans} span(s) evicted from the span table)"
        );
    }
    if !triggers.is_empty() {
        let _ = writeln!(out, "\ntriggers:");
        for t in triggers {
            let _ = writeln!(out, "  ! {}", t.as_str().unwrap_or("?"));
        }
    }
    // psa-serve bundles root every job at a `psa-serve/{tenant}/{id}`
    // span. Surface those as a job index and render their trees first,
    // so a drained service bundle reads as "one causal tree per job".
    let (job_roots, other_roots): (Vec<usize>, Vec<usize>) = roots
        .iter()
        .copied()
        .partition(|&r| nodes[r].label.starts_with("psa-serve/"));
    if !job_roots.is_empty() {
        let _ = writeln!(out, "\nservice jobs:");
        for &r in &job_roots {
            let (sub_spans, sub_events) = subtree_size(&nodes, r);
            let mut parts = nodes[r].label.splitn(3, '/');
            let _ = parts.next();
            let tenant = parts.next().unwrap_or("?");
            let id = parts.next().unwrap_or("?");
            let _ = writeln!(
                out,
                "  {tenant}/{id}: {sub_spans} span(s), {sub_events} event(s)"
            );
        }
    }
    let _ = writeln!(out, "\ncausal tree:");
    for &r in job_roots.iter().chain(&other_roots) {
        print_span(&mut out, &nodes, r, 1);
    }
    if !orphans.is_empty() {
        let _ = writeln!(out, "\nevents outside the span table:");
        for (wid, line) in &orphans {
            let _ = writeln!(out, "  [worker {wid}] {line}");
        }
    }
    out
}

/// Spans and attached events in the subtree rooted at `idx` (inclusive).
fn subtree_size(nodes: &[SpanNode], idx: usize) -> (usize, usize) {
    let mut spans = 1;
    let mut events = nodes[idx].events.len();
    for &c in &nodes[idx].children {
        let (s, e) = subtree_size(nodes, c);
        spans += s;
        events += e;
    }
    (spans, events)
}

fn print_span(out: &mut String, nodes: &[SpanNode], idx: usize, depth: usize) {
    let n = &nodes[idx];
    let indent = "  ".repeat(depth);
    let duration = match n.duration_ns {
        Some(ns) if ns < 1_000 => format!("{ns} ns"),
        Some(ns) if ns < 1_000_000 => format!("{:.1} µs", ns as f64 / 1e3),
        Some(ns) => format!("{:.3} ms", ns as f64 / 1e6),
        None => "open".to_string(),
    };
    let _ = writeln!(out, "{indent}{} (worker {}, {duration})", n.label, n.worker);
    for ev in &n.events {
        let _ = writeln!(out, "{indent}  · {ev}");
    }
    for &c in &n.children {
        print_span(out, nodes, c, depth + 1);
    }
}

/// One compact line per ring event, keyed by the bundle's `kind` tag.
fn describe_event(ev: &Json, kind: &str) -> String {
    let s = |k: &str| ev.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    let u = |k: &str| ev.get(k).and_then(Json::as_u64).unwrap_or(0);
    let seq = u("seq");
    let body = match kind {
        "cache_hit" => format!("cache hit {}", s("domain")),
        "cache_miss" => format!("cache miss {}", s("domain")),
        "fault_fired" => format!("FAULT {}:{}", s("seam"), s("site")),
        "task_retry" => format!("retry {} (attempt {})", s("task"), u("attempt")),
        "deadline_arm" => format!("deadline armed {} ({} ms)", s("scope"), u("deadline_ms")),
        "deadline_expired" => format!("DEADLINE EXPIRED {}", s("scope")),
        "vm_census" => format!(
            "vm census: {} dispatches ({} specialised), {} calls",
            u("dispatches"),
            u("specialized"),
            u("calls")
        ),
        "budget_exhausted" => format!("BUDGET EXHAUSTED {}", s("detail")),
        "estimate" => format!("estimate {}", s("site")),
        other => other.to_string(),
    };
    format!("{body}  [seq {seq}]")
}

// ---------------------------------------------------------------------------
// Prometheus text snapshot → counters, gauges, histogram quantiles
// ---------------------------------------------------------------------------

fn render_prometheus_snapshot(path: &str, text: &str) {
    // `# TYPE <name> <kind>` headers classify every series.
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    // Histogram `_bucket` series keyed by (base name + labels sans `le`):
    // cumulative count per upper bound.
    let mut hist_buckets: BTreeMap<String, BTreeMap<u64, u64>> = BTreeMap::new();
    let mut hist_sums: BTreeMap<String, f64> = BTreeMap::new();
    let mut hist_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut scalars: Vec<(String, String, f64)> = Vec::new();

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((name, kind)) = rest.split_once(' ') {
                types.insert(name.to_string(), kind.trim().to_string());
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let (name, labels) = split_series(series);
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(&name);
        if types.get(base).map(String::as_str) == Some("histogram") {
            let key = series_key(base, &labels, true);
            if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.as_str())
                    .unwrap_or("+Inf");
                let bound = if le == "+Inf" {
                    u64::MAX
                } else {
                    le.parse().unwrap_or(u64::MAX)
                };
                let cumulative = value.parse().unwrap_or(0);
                hist_buckets
                    .entry(key)
                    .or_default()
                    .insert(bound, cumulative);
            } else if name.ends_with("_sum") {
                hist_sums.insert(key, value.parse().unwrap_or(0.0));
            } else if name.ends_with("_count") {
                hist_counts.insert(key, value.parse().unwrap_or(0));
            }
        } else {
            let kind = types.get(&name).cloned().unwrap_or_else(|| "?".into());
            scalars.push((
                series_key(&name, &labels, false),
                kind,
                parse_prom_value(value),
            ));
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "metrics snapshot `{path}`:");
    for (series, kind, value) in &scalars {
        let _ = writeln!(out, "  {kind:<9} {series} = {value}");
    }
    for (key, by_bound) in &hist_buckets {
        // Rebuild the per-bucket log₂ counts from the cumulative `le`
        // bounds (each bound is 2^i − 1, the inclusive top of bucket i).
        let mut counts = vec![0u64; psa_obs::registry::HISTOGRAM_BUCKETS];
        let mut prev = 0u64;
        for (&bound, &cumulative) in by_bound {
            let c = cumulative.saturating_sub(prev);
            prev = cumulative;
            let i = (0..counts.len())
                .find(|&i| Histogram::bucket_bound(i) == bound)
                .unwrap_or(counts.len() - 1);
            counts[i] += c;
        }
        let count = hist_counts.get(key).copied().unwrap_or(prev);
        let sum = hist_sums.get(key).copied().unwrap_or(0.0);
        let q = |p: f64| {
            quantile_from_bucket_counts(&counts, p)
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "-".into())
        };
        let _ = writeln!(
            out,
            "  histogram {key}: count={count} sum={sum} p50={} p95={} p99={}",
            q(0.50),
            q(0.95),
            q(0.99)
        );
    }
    emit(out);
}

/// Split `name{k="v",...}` into the metric name and its label pairs.
fn split_series(series: &str) -> (String, Vec<(String, String)>) {
    let Some(brace) = series.find('{') else {
        return (series.to_string(), Vec::new());
    };
    let name = series[..brace].to_string();
    let body = series[brace + 1..].strip_suffix('}').unwrap_or("");
    let mut labels = Vec::new();
    let mut rest = body;
    while let Some(eq) = rest.find("=\"") {
        let key = rest[..eq].trim_start_matches(',').to_string();
        rest = &rest[eq + 2..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut consumed = rest.len();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    if let Some((_, esc)) = chars.next() {
                        value.push(match esc {
                            'n' => '\n',
                            other => other,
                        });
                    }
                }
                '"' => {
                    consumed = i + 1;
                    break;
                }
                c => value.push(c),
            }
        }
        labels.push((key, value));
        rest = &rest[consumed..];
    }
    (name, labels)
}

/// Canonical display key for a series: name plus its labels, with `le`
/// stripped for histogram grouping.
fn series_key(name: &str, labels: &[(String, String)], drop_le: bool) -> String {
    let kept: Vec<String> = labels
        .iter()
        .filter(|(k, _)| !(drop_le && k == "le"))
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect();
    if kept.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{}}}", kept.join(","))
    }
}

fn parse_prom_value(v: &str) -> f64 {
    match v {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse().unwrap_or(f64::NAN),
    }
}

// ---------------------------------------------------------------------------
// BENCH_*.json diff → regression report
// ---------------------------------------------------------------------------

fn diff_bench(old_path: &str, new_path: &str) {
    let old = parse_json_file(old_path);
    let new = parse_json_file(new_path);
    let mut old_leaves = BTreeMap::new();
    let mut new_leaves = BTreeMap::new();
    flatten("", &old, &mut old_leaves);
    flatten("", &new, &mut new_leaves);

    let mut out = String::new();
    let _ = writeln!(out, "diff {old_path} -> {new_path}:");
    let mut regressions = 0usize;
    for (path, &a) in &old_leaves {
        match new_leaves.get(path) {
            None => {
                let _ = writeln!(out, "  - {path} (removed; was {a})");
            }
            Some(&b) if a == b => {}
            Some(&b) => {
                let delta = b - a;
                let pct = if a != 0.0 {
                    format!("{:+.2}%", delta / a * 100.0)
                } else {
                    "n/a".into()
                };
                if delta > 0.0 {
                    regressions += 1;
                }
                let _ = writeln!(out, "  {path}: {a} -> {b}  ({delta:+}, {pct})");
            }
        }
    }
    for (path, b) in &new_leaves {
        if !old_leaves.contains_key(path) {
            let _ = writeln!(out, "  + {path} = {b}");
        }
    }
    let unchanged = old_leaves
        .iter()
        .filter(|(p, a)| new_leaves.get(*p) == Some(a))
        .count();
    let _ = writeln!(
        out,
        "  ({unchanged} leaf value(s) unchanged, {regressions} increased)"
    );
    emit(out);
}

/// A JSON file that is not a forensic bundle (e.g. a `BENCH_*.json`
/// record): print its numeric leaves as a flat snapshot.
fn render_numeric_leaves(path: &str, doc: &Json) {
    let mut leaves = BTreeMap::new();
    flatten("", doc, &mut leaves);
    let mut out = String::new();
    let _ = writeln!(out, "numeric leaves of `{path}`:");
    for (leaf, value) in &leaves {
        let _ = writeln!(out, "  {leaf} = {value}");
    }
    emit(out);
}

fn parse_json_file(path: &str) -> Json {
    json::parse(&read(path)).unwrap_or_else(|e| {
        eprintln!("psastat: `{path}` is not valid JSON: {e}");
        exit(1);
    })
}

/// Collect every numeric leaf under a dotted path (`a.b[2].c`).
fn flatten(prefix: &str, v: &Json, out: &mut BTreeMap<String, f64>) {
    match v {
        Json::Num(n) => {
            out.insert(prefix.to_string(), *n);
        }
        Json::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(&format!("{prefix}[{i}]"), item, out);
            }
        }
        Json::Object(pairs) => {
            for (k, item) in pairs {
                let child = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&child, item, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A serve-drain bundle (two `psa-serve/{tenant}/{id}` job roots,
    /// engine spans nested under them) renders a job index and one
    /// causal tree per job.
    #[test]
    fn serve_bundles_render_per_job_causal_trees() {
        let bundle = r#"{"format":"psa-forensic-bundle","version":1,
            "triggers":[],"dropped_spans":0,
            "spans":[
              {"trace":"000000000000000a","span":"000000000000000a",
               "parent":"0000000000000000","label":"psa-serve/acme/job-00","worker":1,
               "open_ns":1000,"close_ns":2501000},
              {"trace":"000000000000000a","span":"000000000000000b",
               "parent":"000000000000000a","label":"flow/psa-flow","worker":1,
               "open_ns":2000,"close_ns":14500},
              {"trace":"000000000000000c","span":"000000000000000c",
               "parent":"0000000000000000","label":"psa-serve/blue/job-01","worker":2,
               "open_ns":3000,"close_ns":null},
              {"trace":"000000000000000c","span":"000000000000000d",
               "parent":"000000000000000c","label":"flow/psa-flow","worker":2,
               "open_ns":4000,"close_ns":4900},
              {"trace":"00000000000000ff","span":"00000000000000ff",
               "parent":"0000000000000000","label":"offline-run","worker":3,
               "open_ns":0,"close_ns":null}
            ],
            "workers":[
              {"worker":1,"dropped":0,"events":[
                {"seq":1,"wall_ns":5,"kind":"fault_fired","seam":"task",
                 "site":"psa-flow/gen_omp","span":"000000000000000b"}
              ]}
            ],
            "perfetto":{"traceEvents":[]}}"#;
        let doc = json::parse(bundle).expect("synthetic bundle parses");
        let report = bundle_report("drain.json", &doc);

        let jobs_at = report.find("service jobs:").expect("job index present");
        assert!(
            report.contains("  acme/job-00: 2 span(s), 1 event(s)"),
            "{report}"
        );
        assert!(
            report.contains("  blue/job-01: 2 span(s), 0 event(s)"),
            "{report}"
        );
        // Job trees come first, rooted at the tenant/job span, with the
        // engine span nested beneath; the non-service root follows.
        let tree_at = report.find("causal tree:").expect("tree present");
        assert!(jobs_at < tree_at, "job index precedes the tree:\n{report}");
        let tree = &report[tree_at..];
        // Each span shows its duration, or `open` if it never closed.
        assert!(
            tree.contains("  psa-serve/acme/job-00 (worker 1, 2.500 ms)"),
            "{report}"
        );
        assert!(
            tree.contains("    flow/psa-flow (worker 1, 12.5 µs)"),
            "{report}"
        );
        assert!(
            tree.contains("  psa-serve/blue/job-01 (worker 2, open)"),
            "{report}"
        );
        assert!(
            tree.contains("    flow/psa-flow (worker 2, 900 ns)"),
            "{report}"
        );
        assert!(tree.contains("FAULT task:psa-flow/gen_omp"), "{report}");
        assert!(tree.contains("  offline-run (worker 3, open)"), "{report}");
        let serve_root = tree.find("psa-serve/blue").expect("second job root");
        let other_root = tree.find("offline-run").expect("offline root");
        assert!(
            serve_root < other_root,
            "service jobs render first:\n{report}"
        );
    }
}
