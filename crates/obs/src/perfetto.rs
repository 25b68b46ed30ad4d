//! Chrome `trace_event` / Perfetto JSON building.
//!
//! [`TraceBuilder`] collects duration (`B`/`E`), instant (`i`) and metadata
//! (`M`) events on `(pid, tid)` tracks and serialises them into the JSON
//! object format both `chrome://tracing` and <https://ui.perfetto.dev>
//! load. Producers are responsible for two invariants that make the result
//! render correctly (and that the workspace proptests verify):
//!
//! * per track, `B` and `E` events are balanced and properly nested;
//! * per track, timestamps are monotonically non-decreasing in emission
//!   order.
//!
//! Timestamps are taken in nanoseconds and written as microseconds with
//! three decimal places (the `ts` unit of the trace_event format is µs),
//! so nanosecond precision survives the export exactly.

use crate::json::write_str;
use std::fmt::Write as _;

/// A typed event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    Str(String),
    U64(u64),
    F64(f64),
    Bool(bool),
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

#[derive(Debug, Clone)]
struct Event {
    ph: char,
    name: String,
    pid: u32,
    tid: u32,
    ts_ns: u64,
    args: Vec<(String, ArgValue)>,
}

/// Accumulates trace events and serialises them as Chrome trace JSON.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    events: Vec<Event>,
}

impl TraceBuilder {
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Number of events recorded so far (metadata included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Name the process `pid` (shown as the track group title).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.events.push(Event {
            ph: 'M',
            name: "process_name".into(),
            pid,
            tid: 0,
            ts_ns: 0,
            args: vec![("name".into(), ArgValue::Str(name.to_string()))],
        });
    }

    /// Name the track `(pid, tid)`.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(Event {
            ph: 'M',
            name: "thread_name".into(),
            pid,
            tid,
            ts_ns: 0,
            args: vec![("name".into(), ArgValue::Str(name.to_string()))],
        });
    }

    /// Open a duration span on track `(pid, tid)` at `ts_ns`.
    pub fn begin(
        &mut self,
        pid: u32,
        tid: u32,
        ts_ns: u64,
        name: &str,
        args: Vec<(String, ArgValue)>,
    ) {
        self.events.push(Event {
            ph: 'B',
            name: name.to_string(),
            pid,
            tid,
            ts_ns,
            args,
        });
    }

    /// Close the innermost open span on track `(pid, tid)` at `ts_ns`.
    pub fn end(&mut self, pid: u32, tid: u32, ts_ns: u64) {
        self.events.push(Event {
            ph: 'E',
            name: String::new(),
            pid,
            tid,
            ts_ns,
            args: Vec::new(),
        });
    }

    /// Record a thread-scoped instant event.
    pub fn instant(
        &mut self,
        pid: u32,
        tid: u32,
        ts_ns: u64,
        name: &str,
        args: Vec<(String, ArgValue)>,
    ) {
        self.events.push(Event {
            ph: 'i',
            name: name.to_string(),
            pid,
            tid,
            ts_ns,
            args,
        });
    }

    /// Serialise as a Chrome trace JSON object (`{"traceEvents": [...]}`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"ph\":\"");
            out.push(e.ph);
            out.push_str("\",\"name\":");
            write_str(&mut out, &e.name);
            let _ = write!(
                out,
                ",\"pid\":{},\"tid\":{},\"ts\":{}",
                e.pid,
                e.tid,
                format_ts_us(e.ts_ns)
            );
            if e.ph == 'i' {
                // Thread-scoped instants render as ticks on their track.
                out.push_str(",\"s\":\"t\"");
            }
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in e.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    write_str(&mut out, k);
                    out.push(':');
                    write_arg(&mut out, v);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Nanoseconds → microseconds with exactly three decimals (lossless).
fn format_ts_us(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1000, ts_ns % 1000)
}

fn write_arg(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::Str(s) => write_str(out, s),
        ArgValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::F64(f) => {
            if f.is_finite() {
                let _ = write!(out, "{f}");
            } else {
                out.push_str("null");
            }
        }
        ArgValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn builder_emits_loadable_chrome_trace_json() {
        let mut tb = TraceBuilder::new();
        tb.process_name(1, "flow \"x\"");
        tb.thread_name(1, 0, "main");
        tb.begin(1, 0, 0, "task", vec![("class".into(), ArgValue::from("A"))]);
        tb.instant(1, 0, 500, "note", vec![]);
        tb.end(1, 0, 1_234_567);

        let parsed = json::parse(&tb.to_json()).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 5);
        let begin = &events[2];
        assert_eq!(begin.get("ph").and_then(|v| v.as_str()), Some("B"));
        assert_eq!(begin.get("ts").and_then(|v| v.as_f64()), Some(0.0));
        let end = &events[4];
        assert_eq!(end.get("ph").and_then(|v| v.as_str()), Some("E"));
        // 1_234_567 ns = 1234.567 µs, exactly.
        assert_eq!(end.get("ts").and_then(|v| v.as_f64()), Some(1234.567));
        let instant = &events[3];
        assert_eq!(instant.get("s").and_then(|v| v.as_str()), Some("t"));
    }

    #[test]
    fn timestamps_keep_nanosecond_precision() {
        assert_eq!(format_ts_us(0), "0.000");
        assert_eq!(format_ts_us(1), "0.001");
        assert_eq!(format_ts_us(999), "0.999");
        assert_eq!(format_ts_us(1_000), "1.000");
        assert_eq!(format_ts_us(1_000_001), "1000.001");
    }
}
