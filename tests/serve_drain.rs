//! Graceful drain under load: a drain request during active jobs must
//! stop admissions with typed 503s, let in-flight work finish, flush the
//! final metrics snapshot and one forensic bundle per job (rooted at the
//! job's `psa-serve/{tenant}/{id}` span, whether or not a `wait` already
//! delivered its result), and leave the daemon cleanly shut down.
//!
//! One test per binary: the flight recorder is process-global state, so
//! this file owns it for its whole run.

use psaflow::obs::json::{parse, Json};
use psaflow::serve::{JobSpec, RejectReason, Request, Response, Server, ServerConfig};
use psaflow_core::FlowMode;

const SMOKE_SRC: &str = "int main() { int n = 96; double* a = alloc_double(n);\
    double* b = alloc_double(n); fill_random(a, n, 3);\
    for (int i = 0; i < n; i++) { double x = a[i];\
    b[i] = exp(x) * sqrt(x + 1.0) + x * x; }\
    double s = 0.0;\
    for (int i = 0; i < n; i++) { s += b[i]; }\
    sink(s); return 0; }";

fn job(i: usize) -> JobSpec {
    JobSpec {
        id: format!("job-{i:02}"),
        tenant: "acme".to_owned(),
        bench: None,
        source: Some(SMOKE_SRC.to_owned()),
        mode: FlowMode::Informed,
        policy: "degrade".to_owned(),
        deadline_ms: None,
        arrive_ms: i as u64,
        // A small injected delay keeps jobs in flight when drain lands.
        faults: Some("task:psa-flow=delay:5".to_owned()),
    }
}

#[test]
fn drain_flushes_metrics_and_per_job_bundles() {
    psaflow::obs::set_enabled(true);
    psaflow::obs::recorder::set_enabled(true);

    let root = std::env::temp_dir().join(format!("psa-serve-drain-{}", std::process::id()));
    let bundle_dir = root.join("bundles");
    let metrics_path = root.join("metrics.prom");
    std::fs::create_dir_all(&root).expect("temp dir");

    let server = Server::new(ServerConfig {
        workers: 2,
        bundle_dir: Some(bundle_dir.clone()),
        metrics_path: Some(metrics_path.clone()),
        ..ServerConfig::default()
    });

    const JOBS: usize = 6;
    let submit = |i: usize| match server.handle_request(&Request::Submit(job(i))).remove(0) {
        Response::Accepted { .. } => {}
        other => panic!("job {i} not accepted: {other:?}"),
    };
    // The first half is delivered by a `wait` before drain: a delivered
    // result still gets its bundle.
    (0..JOBS / 2).for_each(submit);
    let delivered = server.handle_request(&Request::Wait);
    assert_eq!(delivered.len(), JOBS / 2, "wait delivers the first half");
    (JOBS / 2..JOBS).for_each(submit);

    // Drain while jobs are live: blocks until every accepted job reaches
    // a terminal state, then flushes artifacts and joins the workers.
    let drained = server.handle_request(&Request::Drain).remove(0);
    let (completed, bundles) = match drained {
        Response::Drained { completed, bundles } => (completed, bundles),
        other => panic!("expected drained ack, got {other:?}"),
    };
    assert_eq!(completed, JOBS as u64, "all in-flight jobs completed");
    assert_eq!(bundles, JOBS as u64, "one forensic bundle per job");
    assert!(server.is_shutdown(), "drain leaves the daemon shut down");

    // Post-drain submissions get a typed 503, not a hang or a panic.
    match server.handle_request(&Request::Submit(job(99))).remove(0) {
        Response::Rejected { reason, .. } => {
            assert_eq!(reason, RejectReason::Draining);
            assert_eq!(reason.code(), 503);
        }
        other => panic!("post-drain submit must be rejected, got {other:?}"),
    }

    // The metrics snapshot was flushed and carries the service counters.
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics file");
    assert!(
        metrics.contains("psa_serve_jobs_total"),
        "metrics snapshot has job counters:\n{metrics}"
    );

    // Every bundle parses, self-identifies, and is rooted at its own
    // job's tenant/id span — per-job causal isolation in the artifacts.
    let mut seen = 0;
    for entry in std::fs::read_dir(&bundle_dir).expect("bundle dir") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("bundle read");
        let doc = parse(&text).unwrap_or_else(|e| panic!("{} parses: {e}", path.display()));
        assert_eq!(
            doc.get("format").and_then(Json::as_str),
            Some("psa-forensic-bundle"),
            "{}",
            path.display()
        );
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf8 name");
        let id = name.strip_prefix("acme-").expect("tenant-prefixed bundle");
        let root_label = format!("psa-serve/acme/{id}");
        let spans = doc
            .get("spans")
            .and_then(Json::as_array)
            .expect("bundle spans");
        assert!(
            spans
                .iter()
                .any(|s| { s.get("label").and_then(Json::as_str) == Some(root_label.as_str()) }),
            "{} lacks its root span {root_label}",
            path.display()
        );
        seen += 1;
    }
    assert_eq!(seen, JOBS, "bundle files on disk match the drain ack");

    let _ = std::fs::remove_dir_all(&root);
}
