//! Observability acceptance tests: the latency percentiles reported by
//! `{"stats":true}` and the Prometheus-style `{"metrics":true}` exposition
//! must match the server's authoritative histograms at the wire level, and
//! the offline span profiler must attribute (nearly) all of a training
//! run's wall time to named spans.

use std::path::PathBuf;
use std::sync::Arc;

use logirec_suite::core::{train, LogiRec, LogiRecConfig, Precision};
use logirec_suite::data::interactions::Dataset;
use logirec_suite::data::{DatasetSpec, Scale};
use logirec_suite::obs::json::{self, Json};
use logirec_suite::obs::profile::profile_trace_file;
use logirec_suite::obs::Telemetry;
use logirec_suite::serve::{
    Client, ModelSnapshot, Request, ServeContext, Server, ServerConfig,
};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("logirec-observability-{name}-{}", std::process::id()))
}

fn dataset() -> Dataset {
    DatasetSpec::ciao(Scale::Tiny).generate(17)
}

/// Starts a server and drives `n` nominal exact-path requests through it.
fn server_after_requests(n: usize) -> (Server, Client) {
    server_after_requests_with(n, Telemetry::disabled())
}

/// [`server_after_requests`] with `telemetry` as the server's span sink.
fn server_after_requests_with(n: usize, telemetry: Telemetry) -> (Server, Client) {
    let ds = dataset();
    let cfg = LogiRecConfig { epochs: 2, ..LogiRecConfig::test_config() };
    let model = train(cfg, &ds).0;
    let ctx = Arc::new(ServeContext::from_dataset(&ds));
    let snap = ModelSnapshot::build(model, Precision::F64, &ctx, "obs").expect("valid snapshot");
    let cfg = ServerConfig { telemetry, ..ServerConfig::default() };
    let server = Server::start(cfg, Arc::clone(&ctx), snap).expect("server starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    for i in 0..n {
        let req = Request { id: i as u64, user: i % ctx.n_users(), k: 5, deadline_ms: None };
        client.recommend(&req).expect("nominal request");
    }
    (server, client)
}

/// `{"stats":true}` must carry p50/p95/p99 per degradation path, and the
/// values on the wire must be exactly the quantiles of the server's own
/// latency histograms — not a recomputation that can drift.
#[test]
fn stats_percentiles_match_the_latency_histograms() {
    let (server, mut client) = server_after_requests(40);
    let line = client.roundtrip_line("{\"stats\":true}").expect("stats roundtrip");
    let j = json::parse(&line).expect("stats line parses");
    assert_eq!(j.get("stats").and_then(Json::as_bool), Some(true));
    assert_eq!(j.get("requests").and_then(Json::as_u64), Some(40));

    let [exact, approx, fallback, shed] = server.latency_snapshot();
    assert_eq!(exact.count, 40, "all nominal requests served exactly");
    for (path, h) in
        [("exact", &exact), ("approx", &approx), ("fallback", &fallback), ("shed", &shed)]
    {
        let (p50, p95, p99) = h.percentiles();
        for (suffix, want) in [("p50_us", p50), ("p95_us", p95), ("p99_us", p99)] {
            let key = format!("{path}_{suffix}");
            assert_eq!(
                j.get(&key).and_then(Json::as_u64),
                Some(want),
                "{key} on the wire must equal the histogram quantile"
            );
        }
    }
    // Quantile sanity on the populated path.
    let (p50, p95, p99) = exact.percentiles();
    assert!(p50 <= p95 && p95 <= p99, "percentiles must be ordered");
    assert!(p99 > 0, "40 real requests cannot all take 0us");
    server.shutdown();
}

/// The `{"metrics":true}` admin verb must return the same exposition text
/// `Server::exposition` renders, with counters and latency quantiles that
/// match the authoritative stats — with telemetry off and with a ring-sink
/// telemetry recording the serve spans alongside.
#[test]
fn metrics_exposition_matches_server_state_over_the_wire() {
    exposition_matches_server_state(Telemetry::disabled());
    exposition_matches_server_state(Telemetry::enabled());
}

fn exposition_matches_server_state(telemetry: Telemetry) {
    let (server, mut client) = server_after_requests_with(25, telemetry);
    let line = client.roundtrip_line("{\"metrics\":true}").expect("metrics roundtrip");
    let j = json::parse(&line).expect("metrics line parses");
    assert_eq!(j.get("metrics").and_then(Json::as_bool), Some(true));
    let body = j.get("body").and_then(Json::as_str).expect("exposition body").to_string();

    // Counters reflect the driven load; families are typed and unique.
    assert!(body.contains("# TYPE logirec_serve_requests_total counter\n"), "{body}");
    assert!(body.contains("logirec_serve_requests_total 25\n"), "{body}");
    assert!(body.contains("logirec_serve_exact_total 25\n"), "{body}");
    assert!(body.contains("logirec_serve_shed_total 0\n"), "{body}");
    assert!(body.contains("logirec_serve_model_version 1\n"), "{body}");
    let mut families: Vec<&str> = body.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    let n_families = families.len();
    families.sort_unstable();
    families.dedup();
    assert_eq!(families.len(), n_families, "each family must be emitted exactly once:\n{body}");

    // Latency summary lines equal the histogram quantiles bit-for-bit.
    let [exact, _, _, _] = server.latency_snapshot();
    for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
        let want = format!(
            "logirec_serve_exact_latency_us{{quantile=\"{label}\"}} {}\n",
            exact.quantile(q)
        );
        assert!(body.contains(&want), "missing {want:?} in\n{body}");
    }
    assert!(body.contains(&format!("logirec_serve_exact_latency_us_count {}\n", exact.count)));
    assert!(body.contains(&format!("logirec_serve_exact_latency_us_sum {}\n", exact.sum)));

    // The in-process accessor renders the same families (RSS and inflight
    // gauges may move between scrapes, so compare the stable lines).
    let direct = server.exposition();
    for line in body.lines().filter(|l| {
        !l.contains("peak_rss_bytes") && !l.contains("inflight")
    }) {
        assert!(direct.contains(line), "wire line {line:?} missing from Server::exposition");
    }
    server.shutdown();
}

/// A peak-RSS gauge must appear in the exposition on Linux — serving is
/// where the memory ceiling matters operationally.
#[cfg(target_os = "linux")]
#[test]
fn exposition_reports_a_peak_rss_gauge() {
    let (server, _client) = server_after_requests(1);
    let body = server.exposition();
    assert!(body.contains("# TYPE logirec_process_peak_rss_bytes gauge\n"), "{body}");
    let peak: f64 = body
        .lines()
        .find_map(|l| l.strip_prefix("logirec_process_peak_rss_bytes "))
        .expect("gauge value line")
        .parse()
        .expect("numeric gauge");
    assert!(peak > 1e6, "a live process peaks above 1MB, got {peak}");
    server.shutdown();
}

/// The offline profiler must attribute at least 90% of a training run's
/// wall time to named spans — the acceptance bar for "no un-instrumented
/// time on the hot path".
#[test]
fn trace_profile_attributes_training_wall_time_to_spans() {
    let path = tmp("train.jsonl");
    let _ = std::fs::remove_file(&path);
    let tel = Telemetry::builder().jsonl(&path).build().expect("jsonl sink");
    let ds = dataset();
    let cfg = LogiRecConfig {
        epochs: 2,
        telemetry: tel.clone(),
        ..LogiRecConfig::test_config()
    };
    let model: LogiRec = train(cfg, &ds).0;
    assert!(model.all_finite());
    tel.finish();

    let profile = profile_trace_file(&path).expect("trace profiles");
    assert!(
        profile.coverage() >= 0.9,
        "spans must cover >=90% of wall time, got {:.1}% over {}us",
        profile.coverage() * 100.0,
        profile.wall_us
    );
    let names: Vec<&str> = profile.rows.iter().map(|r| r.name.as_str()).collect();
    assert!(names.contains(&"epoch"), "per-epoch spans must be present: {names:?}");
    let rendered = profile.render(10);
    assert!(rendered.contains("epoch"), "{rendered}");
    let _ = std::fs::remove_file(&path);
}
