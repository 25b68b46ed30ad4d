//! The psa-serve job protocol: line-delimited JSON over stdin or TCP.
//!
//! One request per line, one or more response lines per request. The wire
//! grammar is deliberately small and hand-rolled on both sides (the
//! workspace has no JSON library): [`encode_request`] /
//! [`Response::encode`] emit canonical single-line JSON, and
//! [`decode_request`] parses with [`psa_obs::json`] and maps every
//! malformed input to a typed [`ProtoError`] — a hostile byte stream can
//! produce rejections, never panics.
//!
//! Requests:
//!
//! ```text
//! {"op":"submit","job":{"id":"j1","tenant":"acme","bench":"nbody",
//!     "mode":"informed","policy":"degrade","arrive_ms":12,
//!     "deadline_ms":5000,"faults":"seed=7; task:gpu=error:transform:x"}}
//! {"op":"cancel","id":"j1"}      cooperatively cancel a queued/running job
//! {"op":"resume"}                start executing (paused-start servers)
//! {"op":"wait"}                  block until every accepted job finished;
//!                                emits the results no earlier wait
//!                                returned, in submission order
//! {"op":"stats"}                 admission/outcome counters
//! {"op":"metrics"}               Prometheus text exposition (as a string)
//! {"op":"drain"}                 stop admitting, finish in-flight work,
//!                                flush metrics + forensic bundles, stop
//! ```
//!
//! A job names its program either by benchmark `"bench"` key (the Table I
//! suite) or by inline `"source"` (MiniC++) — exactly one of the two.
//! `"arrive_ms"` is the job's position on the *virtual* clock: admission
//! (token buckets, queue-wait deadlines) is computed on virtual time so a
//! given submission stream admits, rejects and deadline-expires the exact
//! same jobs on every run and every machine.

use psa_obs::json::{parse, write_str, Json};
use psaflow_core::{FlowMode, FlowOutcome};

/// Maximum accepted line length (1 MiB): a framing backstop so one
/// malformed client cannot balloon server memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A typed protocol-level failure: the line never became a valid request.
/// These map to a `400`-style [`Response::BadRequest`]; they are distinct
/// from admission rejections (429/503) and job failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The line is not valid JSON.
    Json { detail: String },
    /// The line parsed, but the top level is not an object.
    NotAnObject,
    /// The line is longer than [`MAX_LINE_BYTES`].
    LineTooLong { len: usize },
    /// A required field is absent.
    MissingField { field: &'static str },
    /// A field is present but unusable (wrong type, bad enum value,
    /// unparseable policy/fault spec, …).
    BadField { field: &'static str, detail: String },
    /// The `"op"` value is not one the server speaks.
    UnknownOp { op: String },
}

impl ProtoError {
    /// Short machine-readable label for counters and responses.
    pub fn label(&self) -> &'static str {
        match self {
            ProtoError::Json { .. } => "bad_json",
            ProtoError::NotAnObject => "not_an_object",
            ProtoError::LineTooLong { .. } => "line_too_long",
            ProtoError::MissingField { .. } => "missing_field",
            ProtoError::BadField { .. } => "bad_field",
            ProtoError::UnknownOp { .. } => "unknown_op",
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Json { detail } => write!(f, "invalid JSON: {detail}"),
            ProtoError::NotAnObject => write!(f, "request must be a JSON object"),
            ProtoError::LineTooLong { len } => {
                write!(
                    f,
                    "line of {len} bytes exceeds the {MAX_LINE_BYTES}-byte limit"
                )
            }
            ProtoError::MissingField { field } => write!(f, "missing field \"{field}\""),
            ProtoError::BadField { field, detail } => {
                write!(f, "bad field \"{field}\": {detail}")
            }
            ProtoError::UnknownOp { op } => write!(f, "unknown op \"{op}\""),
        }
    }
}

/// One job submission: what to run, for whom, and under which failure
/// policy, deadline, fault plan and virtual arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-chosen job id, unique per connection (echoed in responses).
    pub id: String,
    /// Tenant the job is billed to; admission control is per-tenant.
    pub tenant: String,
    /// Benchmark key from the Table I suite (`rushlarsen`, `nbody`, …).
    /// Exactly one of `bench` / `source` is set.
    pub bench: Option<String>,
    /// Inline MiniC++ source; the job id doubles as the app name.
    pub source: Option<String>,
    /// Informed (strategy at branch point A) or uninformed (all paths).
    pub mode: FlowMode,
    /// Failure-policy spec, `FailurePolicy::parse` grammar
    /// (`failfast` | `degrade` | `retry[:n[:ms[:f]]]`). Validated at
    /// decode; kept as the spec string so round-trips are exact.
    pub policy: String,
    /// End-to-end deadline in virtual milliseconds from `arrive_ms`;
    /// queue wait counts against it.
    pub deadline_ms: Option<u64>,
    /// Position on the submission stream's virtual clock (monotone
    /// non-decreasing per tenant); drives token-bucket refill and
    /// queue-wait deadline accounting deterministically.
    pub arrive_ms: u64,
    /// Per-job fault-injection plan (`FaultPlan::parse` grammar),
    /// travelling context-locally so tenants cannot interfere.
    pub faults: Option<String>,
}

impl JobSpec {
    /// The flow's app name: the benchmark key, or the job id for inline
    /// sources.
    pub fn app_name(&self) -> &str {
        self.bench.as_deref().unwrap_or(&self.id)
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Submit(JobSpec),
    Cancel { id: String },
    Resume,
    Wait,
    Stats,
    Metrics,
    Drain,
}

/// Why admission refused a job. `code()` follows HTTP conventions:
/// per-tenant limits are the client's fault (429), capacity and shutdown
/// are the server's state (503).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's token bucket is empty at the job's virtual arrival.
    RateLimit,
    /// The tenant already has `max_in_flight` jobs admitted and unfinished.
    InFlightQuota,
    /// The global queue is at capacity; load is shed.
    QueueFull,
    /// The server is draining and admits nothing new.
    Draining,
}

impl RejectReason {
    pub fn code(&self) -> u16 {
        match self {
            RejectReason::RateLimit | RejectReason::InFlightQuota => 429,
            RejectReason::QueueFull | RejectReason::Draining => 503,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::RateLimit => "rate_limit",
            RejectReason::InFlightQuota => "in_flight_quota",
            RejectReason::QueueFull => "queue_full",
            RejectReason::Draining => "draining",
        }
    }
}

/// Terminal state of an accepted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The flow completed; `outcome` holds the canonical rendering.
    Done,
    /// The flow returned a typed [`psaflow_core::FlowError`].
    Failed,
    /// The job panicked outside the engine's per-task isolation and was
    /// caught at the worker's job seam; the worker survived.
    Panicked,
    /// The end-to-end deadline elapsed (in queue or mid-flow).
    DeadlineExpired,
    /// The job was cooperatively cancelled.
    Cancelled,
}

impl JobStatus {
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Panicked => "panicked",
            JobStatus::DeadlineExpired => "deadline",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// The terminal record of one accepted job, emitted by `wait` in
/// submission order. Deliberately carries no wall-clock timings: result
/// lines are a pure function of the submission stream, so soak runs can
/// be diffed byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Submission sequence number (0-based, server-assigned).
    pub seq: u64,
    pub id: String,
    pub tenant: String,
    pub status: JobStatus,
    /// Error message for non-`Done` statuses, empty otherwise.
    pub detail: String,
    /// Canonical [`render_outcome`] JSON for `Done` jobs, carried as a
    /// string so clients can compare it byte-for-byte against an offline
    /// `full_psa_flow_cached_on` run.
    pub outcome: Option<String>,
    /// The job's causal trace id (`psa-serve/{tenant}/{id}` root span);
    /// keys the per-job forensic bundle flushed at drain.
    pub trace_id: u64,
    /// Virtual milliseconds the job waited in queue before execution.
    pub queue_wait_ms: u64,
}

/// Counter snapshot returned by the `stats` op. Everything is a count —
/// no timings — so stats lines are deterministic under a fixed stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub accepted: u64,
    pub rejected_rate_limit: u64,
    pub rejected_in_flight_quota: u64,
    pub rejected_queue_full: u64,
    pub rejected_draining: u64,
    pub bad_requests: u64,
    pub done: u64,
    pub failed: u64,
    pub panicked: u64,
    pub deadline_expired: u64,
    pub cancelled: u64,
    pub queued: u64,
    pub running: u64,
    pub draining: bool,
}

/// A server response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job passed admission; `seq` is its submission index.
    Accepted {
        id: String,
        seq: u64,
    },
    /// Admission refused the job with a typed reason.
    Rejected {
        id: String,
        reason: RejectReason,
        detail: String,
    },
    /// The line never became a request (see [`ProtoError`]).
    BadRequest {
        code: u16,
        label: String,
        detail: String,
    },
    /// One finished job (emitted by `wait`, submission order).
    Result(Box<JobResult>),
    /// Acknowledges `cancel`; `found` is false for unknown/finished ids.
    CancelAck {
        id: String,
        found: bool,
    },
    Resumed,
    Stats(StatsSnapshot),
    Metrics {
        text: String,
    },
    /// Drain finished: everything accepted reached a terminal state and
    /// artifacts were flushed.
    Drained {
        completed: u64,
        bundles: u64,
    },
}

// ---------------------------------------------------------------------------
// encoding

fn push_kv_str(out: &mut String, key: &str, val: &str) {
    write_str(out, key);
    out.push(':');
    write_str(out, val);
}

/// Encode a request as one line of JSON (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    let mut s = String::from("{\"op\":");
    match req {
        Request::Submit(job) => {
            s.push_str("\"submit\",\"job\":{");
            push_kv_str(&mut s, "id", &job.id);
            s.push(',');
            push_kv_str(&mut s, "tenant", &job.tenant);
            if let Some(b) = &job.bench {
                s.push(',');
                push_kv_str(&mut s, "bench", b);
            }
            if let Some(src) = &job.source {
                s.push(',');
                push_kv_str(&mut s, "source", src);
            }
            let mode = match job.mode {
                FlowMode::Informed => "informed",
                FlowMode::Uninformed => "uninformed",
            };
            s.push(',');
            push_kv_str(&mut s, "mode", mode);
            s.push(',');
            push_kv_str(&mut s, "policy", &job.policy);
            if let Some(d) = job.deadline_ms {
                s.push_str(&format!(",\"deadline_ms\":{d}"));
            }
            s.push_str(&format!(",\"arrive_ms\":{}", job.arrive_ms));
            if let Some(fp) = &job.faults {
                s.push(',');
                push_kv_str(&mut s, "faults", fp);
            }
            s.push('}');
        }
        Request::Cancel { id } => {
            s.push_str("\"cancel\",");
            push_kv_str(&mut s, "id", id);
        }
        Request::Resume => s.push_str("\"resume\""),
        Request::Wait => s.push_str("\"wait\""),
        Request::Stats => s.push_str("\"stats\""),
        Request::Metrics => s.push_str("\"metrics\""),
        Request::Drain => s.push_str("\"drain\""),
    }
    s.push('}');
    s
}

impl Response {
    /// Encode as one line of JSON (no trailing newline).
    pub fn encode(&self) -> String {
        let mut s = String::from("{");
        match self {
            Response::Accepted { id, seq } => {
                s.push_str("\"ok\":true,\"op\":\"submit\",");
                push_kv_str(&mut s, "id", id);
                s.push_str(&format!(",\"status\":\"accepted\",\"seq\":{seq}"));
            }
            Response::Rejected { id, reason, detail } => {
                s.push_str("\"ok\":false,\"op\":\"submit\",");
                push_kv_str(&mut s, "id", id);
                s.push_str(&format!(",\"code\":{},", reason.code()));
                push_kv_str(&mut s, "reason", reason.label());
                s.push(',');
                push_kv_str(&mut s, "detail", detail);
            }
            Response::BadRequest {
                code,
                label,
                detail,
            } => {
                s.push_str(&format!("\"ok\":false,\"op\":\"error\",\"code\":{code},"));
                push_kv_str(&mut s, "reason", label);
                s.push(',');
                push_kv_str(&mut s, "detail", detail);
            }
            Response::Result(r) => {
                s.push_str(&format!("\"ok\":true,\"op\":\"result\",\"seq\":{},", r.seq));
                push_kv_str(&mut s, "id", &r.id);
                s.push(',');
                push_kv_str(&mut s, "tenant", &r.tenant);
                s.push(',');
                push_kv_str(&mut s, "status", r.status.label());
                s.push_str(&format!(",\"queue_wait_ms\":{}", r.queue_wait_ms));
                s.push_str(&format!(",\"trace_id\":\"{:016x}\"", r.trace_id));
                if !r.detail.is_empty() {
                    s.push(',');
                    push_kv_str(&mut s, "detail", &r.detail);
                }
                if let Some(o) = &r.outcome {
                    s.push(',');
                    push_kv_str(&mut s, "outcome", o);
                }
            }
            Response::CancelAck { id, found } => {
                s.push_str("\"ok\":true,\"op\":\"cancel\",");
                push_kv_str(&mut s, "id", id);
                s.push_str(&format!(",\"found\":{found}"));
            }
            Response::Resumed => s.push_str("\"ok\":true,\"op\":\"resume\""),
            Response::Stats(t) => {
                s.push_str("\"ok\":true,\"op\":\"stats\"");
                s.push_str(&format!(
                    ",\"accepted\":{},\"rejected\":{{\"rate_limit\":{},\"in_flight_quota\":{},\"queue_full\":{},\"draining\":{}}}",
                    t.accepted,
                    t.rejected_rate_limit,
                    t.rejected_in_flight_quota,
                    t.rejected_queue_full,
                    t.rejected_draining,
                ));
                s.push_str(&format!(
                    ",\"bad_requests\":{},\"done\":{},\"failed\":{},\"panicked\":{},\"deadline\":{},\"cancelled\":{}",
                    t.bad_requests, t.done, t.failed, t.panicked, t.deadline_expired, t.cancelled,
                ));
                s.push_str(&format!(
                    ",\"queued\":{},\"running\":{},\"draining\":{}",
                    t.queued, t.running, t.draining
                ));
            }
            Response::Metrics { text } => {
                s.push_str("\"ok\":true,\"op\":\"metrics\",");
                push_kv_str(&mut s, "text", text);
            }
            Response::Drained { completed, bundles } => {
                s.push_str(&format!(
                    "\"ok\":true,\"op\":\"drain\",\"completed\":{completed},\"bundles\":{bundles}"
                ));
            }
        }
        s.push('}');
        s
    }
}

/// Canonical JSON rendering of a successful flow outcome: the designs,
/// reference time, selected target and degraded-path failures — the
/// *outputs* of the flow, excluding telemetry (trace, log, cache stats)
/// whose content legitimately differs between a warm service cache and a
/// cold offline run. Byte-identical outcomes ⇒ byte-identical renderings,
/// so the soak harness compares served results against offline
/// `full_psa_flow_cached_on` with `==` on strings.
pub fn render_outcome(o: &FlowOutcome) -> String {
    let mut s = String::from("{");
    push_kv_str(&mut s, "app", &o.app);
    s.push_str(&format!(",\"reference_time_s\":{}", o.reference_time_s));
    s.push_str(",\"selected_target\":");
    match &o.selected_target {
        Some(t) => write_str(&mut s, t.label()),
        None => s.push_str("null"),
    }
    s.push_str(",\"designs\":[");
    for (i, d) in o.designs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('{');
        push_kv_str(&mut s, "target", d.target.label());
        s.push(',');
        push_kv_str(&mut s, "device", d.device.label());
        s.push_str(&format!(",\"loc\":{}", d.loc));
        s.push_str(",\"estimated_time_s\":");
        match d.estimated_time_s {
            Some(t) => s.push_str(&format!("{t}")),
            None => s.push_str("null"),
        }
        s.push_str(&format!(",\"synthesizable\":{}", d.synthesizable));
        s.push_str(",\"notes\":[");
        for (j, n) in d.notes.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            write_str(&mut s, n);
        }
        s.push_str("],");
        push_kv_str(&mut s, "source", &d.source);
        s.push('}');
    }
    s.push_str("],\"failures\":[");
    for (i, f) in o.failures.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('{');
        push_kv_str(&mut s, "branch", &format!("{}/{}", f.flow, f.branch));
        s.push_str(&format!(",\"index\":{},", f.index));
        push_kv_str(&mut s, "label", &f.label);
        s.push(',');
        push_kv_str(&mut s, "error", &f.error.message());
        s.push('}');
    }
    s.push_str("]}");
    s
}

// ---------------------------------------------------------------------------
// decoding

fn req_str(obj: &Json, field: &'static str) -> Result<String, ProtoError> {
    let v = obj.get(field).ok_or(ProtoError::MissingField { field })?;
    v.as_str().map(str::to_owned).ok_or(ProtoError::BadField {
        field,
        detail: "expected a string".into(),
    })
}

fn opt_str(obj: &Json, field: &'static str) -> Result<Option<String>, ProtoError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or(ProtoError::BadField {
                field,
                detail: "expected a string".into(),
            }),
    }
}

fn opt_u64(obj: &Json, field: &'static str) -> Result<Option<u64>, ProtoError> {
    match obj.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or(ProtoError::BadField {
            field,
            detail: "expected a non-negative integer".into(),
        }),
    }
}

fn decode_job(job: &Json) -> Result<JobSpec, ProtoError> {
    if !matches!(job, Json::Object(_)) {
        return Err(ProtoError::BadField {
            field: "job",
            detail: "expected an object".into(),
        });
    }
    let id = req_str(job, "id")?;
    if id.is_empty() {
        return Err(ProtoError::BadField {
            field: "id",
            detail: "must be non-empty".into(),
        });
    }
    let tenant = req_str(job, "tenant")?;
    if tenant.is_empty() {
        return Err(ProtoError::BadField {
            field: "tenant",
            detail: "must be non-empty".into(),
        });
    }
    let bench = opt_str(job, "bench")?;
    let source = opt_str(job, "source")?;
    match (&bench, &source) {
        (None, None) => {
            return Err(ProtoError::MissingField { field: "bench" });
        }
        (Some(_), Some(_)) => {
            return Err(ProtoError::BadField {
                field: "bench",
                detail: "give either \"bench\" or \"source\", not both".into(),
            });
        }
        _ => {}
    }
    let mode = match req_str(job, "mode")?.as_str() {
        "informed" => FlowMode::Informed,
        "uninformed" => FlowMode::Uninformed,
        other => {
            return Err(ProtoError::BadField {
                field: "mode",
                detail: format!("\"{other}\" is not \"informed\" or \"uninformed\""),
            })
        }
    };
    let policy = opt_str(job, "policy")?.unwrap_or_else(|| "degrade".into());
    if let Err(e) = psaflow_core::FailurePolicy::parse(&policy) {
        return Err(ProtoError::BadField {
            field: "policy",
            detail: e,
        });
    }
    let deadline_ms = opt_u64(job, "deadline_ms")?;
    let arrive_ms = opt_u64(job, "arrive_ms")?.unwrap_or(0);
    let faults = opt_str(job, "faults")?;
    if let Some(spec) = &faults {
        if let Err(e) = psa_faults::FaultPlan::parse(spec) {
            return Err(ProtoError::BadField {
                field: "faults",
                detail: e,
            });
        }
    }
    Ok(JobSpec {
        id,
        tenant,
        bench,
        source,
        mode,
        policy,
        deadline_ms,
        arrive_ms,
        faults,
    })
}

/// Decode one request line. Every malformed input maps to a typed
/// [`ProtoError`]; this function never panics on hostile bytes.
pub fn decode_request(line: &str) -> Result<Request, ProtoError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtoError::LineTooLong { len: line.len() });
    }
    let doc = parse(line).map_err(|detail| ProtoError::Json { detail })?;
    if !matches!(doc, Json::Object(_)) {
        return Err(ProtoError::NotAnObject);
    }
    let op = req_str(&doc, "op")?;
    match op.as_str() {
        "submit" => {
            let job = doc
                .get("job")
                .ok_or(ProtoError::MissingField { field: "job" })?;
            Ok(Request::Submit(decode_job(job)?))
        }
        "cancel" => Ok(Request::Cancel {
            id: req_str(&doc, "id")?,
        }),
        "resume" => Ok(Request::Resume),
        "wait" => Ok(Request::Wait),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "drain" => Ok(Request::Drain),
        other => Err(ProtoError::UnknownOp {
            op: other.to_owned(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            id: "j-1".into(),
            tenant: "acme".into(),
            bench: Some("nbody".into()),
            source: None,
            mode: FlowMode::Informed,
            policy: "degrade".into(),
            deadline_ms: Some(5000),
            arrive_ms: 12,
            faults: Some("seed=7; task:gpu=error:transform:x".into()),
        }
    }

    #[test]
    fn submit_round_trips() {
        let req = Request::Submit(spec());
        let line = encode_request(&req);
        assert_eq!(decode_request(&line), Ok(req));
    }

    #[test]
    fn control_ops_round_trip() {
        for req in [
            Request::Cancel { id: "x".into() },
            Request::Resume,
            Request::Wait,
            Request::Stats,
            Request::Metrics,
            Request::Drain,
        ] {
            let line = encode_request(&req);
            assert_eq!(decode_request(&line), Ok(req));
        }
    }

    #[test]
    fn escapes_survive_the_wire() {
        let mut s = spec();
        s.id = "we\"ird\\id\nwith\tcontrol\u{1}chars".into();
        s.bench = None;
        s.source = Some("int main() { return 0; } // \"quoted\"".into());
        let req = Request::Submit(s);
        assert_eq!(decode_request(&encode_request(&req)), Ok(req));
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        let cases: &[(&str, &str)] = &[
            ("", "bad_json"),
            ("{", "bad_json"),
            ("42", "not_an_object"),
            ("[1,2]", "not_an_object"),
            ("{\"op\":\"submit\"}", "missing_field"),
            ("{\"op\":\"submit\",\"job\":3}", "bad_field"),
            ("{\"op\":\"submit\",\"job\":{\"id\":\"a\",\"tenant\":\"t\",\"mode\":\"informed\"}}", "missing_field"),
            ("{\"op\":\"submit\",\"job\":{\"id\":\"a\",\"tenant\":\"t\",\"bench\":\"nbody\",\"mode\":\"sideways\"}}", "bad_field"),
            ("{\"op\":\"submit\",\"job\":{\"id\":\"a\",\"tenant\":\"t\",\"bench\":\"nbody\",\"mode\":\"informed\",\"policy\":\"never\"}}", "bad_field"),
            ("{\"op\":\"submit\",\"job\":{\"id\":\"a\",\"tenant\":\"t\",\"bench\":\"nbody\",\"mode\":\"informed\",\"faults\":\"beep\"}}", "bad_field"),
            ("{\"op\":\"submit\",\"job\":{\"id\":\"a\",\"tenant\":\"t\",\"bench\":\"nbody\",\"source\":\"x\",\"mode\":\"informed\"}}", "bad_field"),
            ("{\"op\":\"launch\"}", "unknown_op"),
            ("{\"op\":7}", "bad_field"),
            ("{\"op\":\"cancel\"}", "missing_field"),
            ("{\"op\":\"submit\",\"job\":{\"id\":\"a\",\"tenant\":\"t\",\"bench\":\"nbody\",\"mode\":\"informed\",\"arrive_ms\":-3}}", "bad_field"),
            ("{\"op\":\"wait\"} trailing", "bad_json"),
        ];
        for (line, label) in cases {
            let err = decode_request(line).expect_err(line);
            assert_eq!(err.label(), *label, "{line} → {err}");
        }
    }

    #[test]
    fn oversized_lines_are_rejected_without_parsing() {
        let line = format!("{{\"op\":\"{}\"}}", "x".repeat(MAX_LINE_BYTES));
        assert!(matches!(
            decode_request(&line),
            Err(ProtoError::LineTooLong { .. })
        ));
    }

    #[test]
    fn defaults_fill_in_policy_and_arrival() {
        let line = "{\"op\":\"submit\",\"job\":{\"id\":\"a\",\"tenant\":\"t\",\"bench\":\"nbody\",\"mode\":\"uninformed\"}}";
        match decode_request(line) {
            Ok(Request::Submit(j)) => {
                assert_eq!(j.policy, "degrade");
                assert_eq!(j.arrive_ms, 0);
                assert_eq!(j.deadline_ms, None);
                assert_eq!(j.mode, FlowMode::Uninformed);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejection_codes_follow_http_conventions() {
        assert_eq!(RejectReason::RateLimit.code(), 429);
        assert_eq!(RejectReason::InFlightQuota.code(), 429);
        assert_eq!(RejectReason::QueueFull.code(), 503);
        assert_eq!(RejectReason::Draining.code(), 503);
    }

    #[test]
    fn outcome_rendering_is_stable_and_parseable() {
        let o = psaflow_core::full_psa_flow(
            "int main() { int n = 96; double* a = alloc_double(n);\
             double* b = alloc_double(n); fill_random(a, n, 3);\
             for (int i = 0; i < n; i++) { double x = a[i];\
             b[i] = exp(x) * sqrt(x + 1.0) + x * x; }\
             double s = 0.0;\
             for (int i = 0; i < n; i++) { s += b[i]; }\
             sink(s); return 0; }",
            "tiny",
            FlowMode::Uninformed,
            psaflow_core::PsaParams::default(),
        )
        .expect("flow runs");
        let a = render_outcome(&o);
        let b = render_outcome(&o);
        assert_eq!(a, b);
        let doc = psa_obs::json::parse(&a).expect("valid JSON");
        assert_eq!(doc.get("app").and_then(|v| v.as_str()), Some("tiny"));
        assert!(!doc.get("designs").unwrap().as_array().unwrap().is_empty());
    }
}
