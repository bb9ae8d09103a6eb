//! The metrics and ops endpoint.
//!
//! [`MetricsExporter`] serves [`crate::observe::MetricsSnapshot`]
//! renderings and, when a [`Tracer`] is attached, the span-tracing views:
//!
//! - `GET /metrics` — Prometheus text exposition format
//! - `GET /metrics.json` — JSON
//! - `GET /healthz` — liveness probe (200 `ok`)
//! - `GET /trace/{id}` — span tree of one sampled trace (JSON)
//! - `GET /flight` — current flight-recorder ring contents (JSON)
//!
//! With an [`OpsState`] attached ([`MetricsEndpoint::ops`]) the same
//! listener also serves the live operations surface (`crate::ops`):
//!
//! - `GET /reports[?since=&severity=&template=&source=&limit=]` — query the
//!   recent-anomaly store
//! - `GET /reports/{id}` — one report joined to its sampled trace spans
//! - `GET /status` — the `ok | degraded | critical` health rollup
//! - `GET /readyz` — readiness gate: 200 `ok`, 200 with a `degraded`
//!   status body (still ready — e.g. a lost router link while local
//!   sources keep flowing), or 503 with reasons
//! - `GET /config` / `POST /config` — view / hot-reload the runtime config
//!
//! Other methods answer 405. Requests go through the shared HTTP layer
//! (`crate::net::http`) on a [`crate::net::EventLoop`]: its own thread
//! for a standalone exporter, or the sources' loop when network sources
//! run. The ops listener's limits are tight — 4 KiB of head, 4 KiB of
//! body, 2 s to receive a request — since only probes, scrapers and
//! operators talk to it.

use crate::net::http::{Admit, Head, HttpConn, HttpError, Limits, Response, Service};
use crate::net::{EventLoop, Handler, Interest, LoopCtx, Next};
use crate::observe::MetricsRegistry;
use crate::ops::{
    degraded_reasons, parse_config_pairs, readiness_reasons, render_status, report_detail_json,
    reports_json, OpsState, ReportsQuery,
};
use crate::trace::Tracer;
use monilog_model::trace::json_string;
use monilog_model::TraceId;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Cap on the request head, and separately on the request body.
const MAX_REQUEST_BYTES: usize = 4096;

/// Rendered snapshot cache shared between the refresher and request
/// handling.
#[derive(Debug, Default)]
struct Rendered {
    prometheus: String,
    json: String,
}

/// Renders snapshots and answers routed requests.
struct MetricsService {
    registry: Arc<MetricsRegistry>,
    tracer: Option<Arc<Tracer>>,
    ops: Option<Arc<OpsState>>,
    cache: Mutex<Rendered>,
}

impl MetricsService {
    /// Re-render the snapshot cache (called on accept and on the refresh
    /// interval, so a scrape never walks histogram buckets on the request
    /// path of a busy endpoint).
    fn render(&self) {
        let snapshot = self.registry.snapshot();
        let mut slot = self.cache.lock().expect("render cache");
        slot.prometheus = snapshot.to_prometheus();
        slot.json = snapshot.to_json();
    }

    fn route(&self, method: &str, path: &str, body: &str) -> Response {
        if method == "POST" {
            return self.route_post(path, body);
        }
        match path {
            "/status" => match &self.ops {
                Some(ops) => {
                    // A fresh snapshot, not the render cache: the health
                    // rollup is the page an operator refreshes while
                    // something is on fire.
                    let snap = self.registry.snapshot();
                    let inputs = ops.status.inputs();
                    let (_, json) =
                        render_status(&snap, &inputs, ops.status.budget_ms(), ops.reload.version());
                    Response::json("200 OK", json)
                }
                None => ops_disabled(),
            },
            "/readyz" => match &self.ops {
                // Without an ops state there is nothing that could be
                // not-ready: fall back to liveness semantics.
                None => Response::new("200 OK", "text/plain", "ok\n"),
                Some(ops) => {
                    let inputs = ops.status.inputs();
                    let critical = readiness_reasons(&inputs);
                    let degraded = degraded_reasons(&inputs);
                    let enc = |rs: &[String]| -> String {
                        let quoted: Vec<String> = rs.iter().map(|r| json_string(r)).collect();
                        quoted.join(",")
                    };
                    if !critical.is_empty() {
                        Response::json(
                            "503 Service Unavailable",
                            format!("{{\"ready\":false,\"reasons\":[{}]}}\n", enc(&critical)),
                        )
                    } else if !degraded.is_empty() {
                        // Degraded but ready: a monitor that lost its
                        // router keeps serving local sources, so probes
                        // must NOT pull it from rotation — 200 with the
                        // machine-readable reason in the body.
                        Response::json(
                            "200 OK",
                            format!(
                                "{{\"ready\":true,\"status\":\"degraded\",\"reasons\":[{}]}}\n",
                                enc(&degraded)
                            ),
                        )
                    } else {
                        Response::new("200 OK", "text/plain", "ok\n")
                    }
                }
            },
            "/config" => match &self.ops {
                Some(ops) => Response::json("200 OK", ops.reload.to_json()),
                None => ops_disabled(),
            },
            p if p == "/reports" || p.starts_with("/reports?") || p.starts_with("/reports/") => {
                self.route_reports(p)
            }
            _ => route(path, &self.cache, self.tracer.as_deref()),
        }
    }

    fn route_post(&self, path: &str, body: &str) -> Response {
        match (path, &self.ops) {
            ("/config", Some(ops)) => {
                match parse_config_pairs(body)
                    .and_then(|pairs| ops.reload.apply_pairs(&pairs, "post"))
                {
                    Ok(_) => Response::json("200 OK", ops.reload.to_json()),
                    Err(e) => Response::error("400 Bad Request", &e),
                }
            }
            ("/config", None) => ops_disabled(),
            _ => Response::error("405 Method Not Allowed", "POST is only accepted on /config"),
        }
    }

    fn route_reports(&self, path: &str) -> Response {
        let Some(ops) = &self.ops else {
            return ops_disabled();
        };
        if let Some(rest) = path.strip_prefix("/reports/") {
            return match rest.parse::<u64>() {
                Err(_) => {
                    Response::error("400 Bad Request", "report id must be an unsigned integer")
                }
                Ok(id) => match ops.reports.get(id) {
                    Some(r) => {
                        Response::json("200 OK", report_detail_json(&r, self.tracer.as_deref()))
                    }
                    None => {
                        Response::error("404 Not Found", &format!("no report {id} in the store"))
                    }
                },
            };
        }
        let qs = path
            .strip_prefix("/reports")
            .map(|rest| rest.strip_prefix('?').unwrap_or(rest))
            .unwrap_or("");
        match ReportsQuery::parse(qs) {
            Err(e) => Response::error("400 Bad Request", &e),
            Ok(q) => {
                let (total, items) = ops.reports.query(&q);
                Response::json("200 OK", reports_json(total, &items))
            }
        }
    }
}

fn ops_disabled() -> Response {
    Response::error("404 Not Found", "ops surface disabled")
}

/// Where and what the metrics endpoint serves. With `ops` set, the live
/// operations surface (`/reports`, `/status`, `/readyz`, `/config`) is
/// served from the same listener.
pub struct MetricsEndpoint {
    pub addr: SocketAddr,
    /// Snapshot re-render interval (every accepted connection re-renders
    /// as well).
    pub interval: Duration,
    /// Enables `/trace/{id}` and `/flight` (404 without).
    pub tracer: Option<Arc<Tracer>>,
    pub ops: Option<Arc<OpsState>>,
}

/// Metrics endpoint on its own thread; serves until dropped. Bind to
/// port 0 to let the OS pick a free port and read it back with
/// [`MetricsExporter::local_addr`].
#[derive(Debug)]
pub struct MetricsExporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsExporter {
    /// Bind `endpoint.addr` and start serving snapshots of `registry`.
    pub fn spawn(endpoint: MetricsEndpoint, registry: Arc<MetricsRegistry>) -> io::Result<Self> {
        let mut event_loop = EventLoop::new()?;
        let addr = mount(&mut event_loop, endpoint, registry)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("monilog-metrics-exporter".into())
            .spawn(move || event_loop.run(stop_flag))
            .expect("spawn exporter thread");
        Ok(MetricsExporter {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Serve `endpoint` on `event_loop`; returns the bound address. Used by
/// the standalone exporter and by the sources server, which shares its
/// loop with the syslog/HTTP ingest endpoints.
pub(crate) fn mount(
    event_loop: &mut EventLoop,
    endpoint: MetricsEndpoint,
    registry: Arc<MetricsRegistry>,
) -> io::Result<SocketAddr> {
    let service = Arc::new(MetricsService {
        registry,
        tracer: endpoint.tracer,
        ops: endpoint.ops,
        cache: Mutex::new(Rendered::default()),
    });
    service.render();
    let accepting = Arc::clone(&service);
    let addr = event_loop.listen(endpoint.addr, move |conn| {
        // Re-render on accept too, so a scrape right after a burst sees
        // fresh numbers even with a long refresh interval.
        accepting.render();
        let request = OpsRequest {
            service: Arc::clone(&accepting),
            head: Head::default(),
        };
        Box::new(HttpConn::new(conn, request))
    })?;
    event_loop.register_timer(Box::new(Refresh {
        service,
        interval: endpoint.interval,
        last: Instant::now(),
    }));
    Ok(addr)
}

/// Re-renders the snapshot cache every `interval`.
struct Refresh {
    service: Arc<MetricsService>,
    interval: Duration,
    last: Instant,
}

impl Handler for Refresh {
    fn ready(&mut self, _r: bool, _w: bool, _ctx: &mut LoopCtx<'_>) -> Next {
        Next::Keep
    }

    fn tick(&mut self, now: Instant, _ctx: &mut LoopCtx<'_>) -> Next {
        if now.duration_since(self.last) >= self.interval {
            self.service.render();
            self.last = now;
        }
        Next::Keep
    }

    fn interest(&self) -> Interest {
        Interest::NONE
    }
}

/// One ops-listener request on the shared HTTP layer.
struct OpsRequest {
    service: Arc<MetricsService>,
    head: Head,
}

impl Service for OpsRequest {
    const LIMITS: Limits = Limits {
        head_bytes: MAX_REQUEST_BYTES,
        request_deadline: Duration::from_secs(2),
        write_deadline: Duration::from_secs(2),
    };

    fn head(&mut self, head: Head) -> Admit {
        if head.method != "GET" && head.method != "POST" {
            let allowed = "only GET, and POST to /config, are served";
            return Admit::Reply(Response::error("405 Method Not Allowed", allowed));
        }
        if head.content_length > MAX_REQUEST_BYTES {
            // Same answer as an over-cap head.
            return Admit::Reply(self.refuse(HttpError::HeadTooLarge));
        }
        self.head = head;
        Admit::Body
    }

    fn body(&mut self, body: Vec<u8>) -> Option<Response> {
        let body = String::from_utf8_lossy(&body);
        Some(
            self.service
                .route(&self.head.method, &self.head.path, &body),
        )
    }

    fn refuse(&mut self, err: HttpError) -> Response {
        let message = match err {
            HttpError::HeadTooLarge => format!("request exceeds {MAX_REQUEST_BYTES} bytes"),
            _ => err.message().to_string(),
        };
        Response::new(err.status(), "text/plain", message + "\n")
    }
}

fn route(path: &str, cache: &Mutex<Rendered>, tracer: Option<&Tracer>) -> Response {
    match path {
        // Liveness probe, shared convention with the delivery sinks'
        // healthcheck (`crate::sinks`): 200 + "ok" with no registry work.
        "/healthz" => Response::new("200 OK", "text/plain", "ok\n"),
        "/metrics" | "/" => {
            let rendered = cache.lock().expect("render cache");
            Response::new(
                "200 OK",
                "text/plain; version=0.0.4",
                rendered.prometheus.clone(),
            )
        }
        "/metrics.json" => {
            let rendered = cache.lock().expect("render cache");
            Response::json("200 OK", rendered.json.clone())
        }
        "/flight" => match tracer {
            Some(t) => Response::json("200 OK", t.flight_json()),
            None => Response::error("404 Not Found", "tracing disabled"),
        },
        _ => match path.strip_prefix("/trace/") {
            Some(id) => match (id.parse::<u64>(), tracer) {
                (Err(_), _) | (Ok(0), _) => {
                    Response::error("400 Bad Request", "trace id must be a positive integer")
                }
                (Ok(_), None) => Response::error("404 Not Found", "tracing disabled"),
                (Ok(id), Some(t)) => match t.trace_json(TraceId(id)) {
                    Some(json) => Response::json("200 OK", json),
                    None => Response::error("404 Not Found", &format!("no spans for trace {id}")),
                },
            },
            None => Response::new(
                "404 Not Found",
                "text/plain",
                "not found; try /metrics, /metrics.json, /healthz, /readyz, /status, \
                 /reports, /config, /trace/{id} or /flight\n",
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PipelineMetrics;
    use crate::net::http::client;
    use crate::observe::Stage;
    use crate::ops::{
        ConfigSnapshot, ReloadableConfig, ReportStore, StatusBoard, StatusInputs, StoredReport,
        DEFAULT_LATENCY_BUDGET_MS,
    };
    use crate::trace::{SpanRecord, SpanStage, TraceConfig};
    use monilog_model::{
        AnomalyKind, AnomalyReport, Criticality, EventId, LogEvent, Provenance, ScoreComponent,
        Severity, SourceId, TemplateId, Timestamp,
    };
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let response = client::get(addr, path);
        let (head, body) = client::split(&response);
        (head.to_string(), body.to_string())
    }

    fn http_post(addr: SocketAddr, path: &str, payload: &str) -> (String, String) {
        let response = client::post(addr, path, "", payload.as_bytes());
        let (head, body) = client::split(&response);
        (head.to_string(), body.to_string())
    }

    fn exporter_at(
        addr: SocketAddr,
        registry: Arc<MetricsRegistry>,
        interval: Duration,
    ) -> io::Result<MetricsExporter> {
        let endpoint = MetricsEndpoint {
            addr,
            interval,
            tracer: None,
            ops: None,
        };
        MetricsExporter::spawn(endpoint, registry)
    }

    /// Body length must match the advertised Content-Length exactly.
    fn assert_content_length(head: &str, body: &str) {
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .trim()
            .parse()
            .expect("numeric Content-Length");
        assert_eq!(len, body.len(), "Content-Length mismatch: {head}");
    }

    fn test_registry() -> Arc<MetricsRegistry> {
        let r = MetricsRegistry::shared_with_shards(2);
        PipelineMetrics::add(&r.counters().lines_ingested, 42);
        r.stage(Stage::Parse).record(Duration::from_micros(15));
        r
    }

    fn anomaly(id: u64, template: u32) -> AnomalyReport {
        let event = LogEvent::new(
            EventId(id * 100),
            Timestamp::from_millis(1_000 + id),
            SourceId(id as u16),
            Severity::Info,
            TemplateId(template),
            vec![],
            None,
        )
        .with_trace(Some(TraceId(id)));
        AnomalyReport {
            id,
            kind: AnomalyKind::Sequential,
            score: 0.9,
            detector: "deeplog".to_string(),
            events: vec![event],
            explanation: "unexpected successor".to_string(),
            provenance: Provenance {
                trace_ids: vec![TraceId(id)],
                template_ids: vec![template],
                window: None,
                score_components: vec![ScoreComponent::new("score", 0.9)],
            },
        }
    }

    /// Twelve reports: ids 1..=12, even ids high severity, ids 1..=6 on
    /// template 7 and 7..=12 on template 9, source id = report id.
    fn test_ops(registry: &Arc<MetricsRegistry>) -> Arc<OpsState> {
        let reports = ReportStore::shared(64);
        for id in 1..=12u64 {
            let severity = if id % 2 == 0 {
                Criticality::High
            } else {
                Criticality::Low
            };
            let template = if id <= 6 { 7 } else { 9 };
            assert!(reports.record(StoredReport::from_report(&anomaly(id, template), severity)));
        }
        Arc::new(OpsState::new(
            reports,
            StatusBoard::shared(DEFAULT_LATENCY_BUDGET_MS),
            ReloadableConfig::shared(
                ConfigSnapshot::default(),
                vec!["file"],
                None,
                Arc::clone(registry.counters()),
            ),
        ))
    }

    fn spawn_ops_exporter() -> (MetricsExporter, Arc<OpsState>) {
        let registry = test_registry();
        let ops = test_ops(&registry);
        let endpoint = MetricsEndpoint {
            addr: "127.0.0.1:0".parse().unwrap(),
            interval: Duration::from_millis(50),
            tracer: Some(test_tracer()),
            ops: Some(Arc::clone(&ops)),
        };
        let exporter = MetricsExporter::spawn(endpoint, registry).expect("bind");
        (exporter, ops)
    }

    fn test_tracer() -> Arc<Tracer> {
        let t = Tracer::shared(&TraceConfig::default(), 1);
        t.record(SpanRecord {
            trace: monilog_model::TraceId(1),
            stage: SpanStage::Parse,
            shard: 0,
            start_ns: 100,
            end_ns: 300,
            template: Some(4),
            cache_hit: Some(false),
        });
        t
    }

    #[test]
    fn serves_prometheus_over_http() {
        let exporter = exporter_at(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        let (head, body) = http_get(exporter.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain"), "{head}");
        assert!(body.contains("monilog_lines_ingested_total 42"), "{body}");
        assert!(
            body.contains("monilog_stage_latency_seconds_count{stage=\"parse_exec\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("monilog_shard_queue_depth{shard=\"1\"}"),
            "{body}"
        );
    }

    #[test]
    fn serves_json_and_404() {
        let exporter = exporter_at(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        let (head, body) = http_get(exporter.local_addr(), "/metrics.json");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.contains("\"lines_ingested\":42"), "{body}");
        assert!(body.contains("\"parse_exec\":{\"count\":1"), "{body}");
        let (head, body) = http_get(exporter.local_addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert_content_length(&head, &body);
    }

    #[test]
    fn scrape_sees_updates_after_spawn() {
        let registry = test_registry();
        let exporter = exporter_at(
            "127.0.0.1:0".parse().unwrap(),
            Arc::clone(&registry),
            Duration::from_secs(3600), // interval irrelevant: scrape re-renders
        )
        .expect("bind");
        PipelineMetrics::add(&registry.counters().lines_parsed, 7);
        let (_, body) = http_get(exporter.local_addr(), "/metrics");
        assert!(body.contains("monilog_lines_parsed_total 7"), "{body}");
    }

    #[test]
    fn drop_stops_the_listener() {
        let exporter = exporter_at(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        let addr = exporter.local_addr();
        drop(exporter);
        // Port released: either connect fails or a fresh bind succeeds.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "exporter did not release {addr}");
    }

    #[test]
    fn serves_trace_and_flight_views() {
        let endpoint = MetricsEndpoint {
            addr: "127.0.0.1:0".parse().unwrap(),
            interval: Duration::from_millis(50),
            tracer: Some(test_tracer()),
            ops: None,
        };
        let exporter = MetricsExporter::spawn(endpoint, test_registry()).expect("bind");
        let (head, body) = http_get(exporter.local_addr(), "/trace/1");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.starts_with("{\"trace_id\":1,"), "{body}");
        assert!(body.contains("\"stage\":\"parse_exec\""), "{body}");
        assert_content_length(&head, &body);

        let (head, body) = http_get(exporter.local_addr(), "/flight");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"spans\":[{\"trace_id\":1,"), "{body}");
        assert_content_length(&head, &body);

        // Unknown trace id → 404; junk id → 400.
        let (head, body) = http_get(exporter.local_addr(), "/trace/999");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert_content_length(&head, &body);
        let (head, body) = http_get(exporter.local_addr(), "/trace/bogus");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        assert_content_length(&head, &body);
    }

    #[test]
    fn trace_routes_404_without_a_tracer() {
        let exporter = exporter_at(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        for path in ["/trace/1", "/flight"] {
            let (head, body) = http_get(exporter.local_addr(), path);
            assert!(head.starts_with("HTTP/1.1 404"), "{path}: {head}");
            assert!(body.contains("tracing disabled"), "{path}: {body}");
            assert_content_length(&head, &body);
        }
    }

    #[test]
    fn restart_rebinds_the_same_address_immediately() {
        // A restarting process must be able to reclaim its metrics address
        // right away: bind, serve, drop, and rebind the same port twice.
        let registry = test_registry();
        let first = exporter_at(
            "127.0.0.1:0".parse().unwrap(),
            Arc::clone(&registry),
            Duration::from_millis(50),
        )
        .expect("initial bind");
        let addr = first.local_addr();
        let (head, _) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        drop(first);
        for generation in 0..2 {
            let again = exporter_at(addr, Arc::clone(&registry), Duration::from_millis(50))
                .unwrap_or_else(|e| panic!("rebind generation {generation} failed: {e}"));
            let (head, _) = http_get(again.local_addr(), "/metrics");
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
            assert_eq!(again.local_addr(), addr);
        }
    }

    #[test]
    fn bind_conflict_is_reported_after_retries() {
        // A port that stays occupied: bind_reusable must back off, retry,
        // and surface the error instead of hanging or panicking.
        let occupant = TcpListener::bind("127.0.0.1:0").expect("occupant");
        let addr = occupant.local_addr().unwrap();
        let started = std::time::Instant::now();
        let result = exporter_at(addr, test_registry(), Duration::from_millis(50));
        assert!(result.is_err(), "bind to an occupied port must fail");
        assert!(
            started.elapsed() >= Duration::from_millis(300),
            "failure must come after backoff retries, not instantly"
        );
    }

    #[test]
    fn healthz_answers_without_touching_the_registry() {
        let exporter = exporter_at(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        let (head, body) = http_get(exporter.local_addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "ok\n");
        assert_content_length(&head, &body);
    }

    #[test]
    fn slow_loris_request_is_cut_off_at_the_overall_deadline() {
        let exporter = exporter_at(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        // Trickle bytes forever without completing a request line. The
        // overall deadline must cut the connection loose regardless.
        let addr = exporter.local_addr();
        let started = std::time::Instant::now();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET").unwrap();
        let mut answered = String::new();
        loop {
            if started.elapsed() > Duration::from_secs(8) {
                panic!("handler still holding the slow-loris connection");
            }
            if stream.write_all(b"X").is_err() {
                break; // handler gave up on us
            }
            stream
                .set_read_timeout(Some(Duration::from_millis(50)))
                .unwrap();
            let mut buf = [0u8; 512];
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    answered.push_str(&String::from_utf8_lossy(&buf[..n]));
                    if answered.contains("\r\n\r\n") {
                        break;
                    }
                }
                Err(_) => {}
            }
            thread::sleep(Duration::from_millis(400));
        }
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "deadline bounded the slow client"
        );
        // And the endpoint keeps serving real scrapes.
        let (head, _) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    }

    #[test]
    fn oversized_and_malformed_requests_get_400() {
        let exporter = exporter_at(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        // A request line well past the 4 KiB cap: the exporter must answer
        // 400 instead of buffering without bound or hanging the loop.
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(8192));
        let response = client::send(exporter.local_addr(), huge.as_bytes());
        let (head, body) = client::split(&response);
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        assert_content_length(head, body);

        // Garbage that is not an HTTP request line at all.
        let response = client::send(exporter.local_addr(), b"\x00\x01\x02 garbage\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");

        // The loop survives both and keeps serving.
        let (head, _) = http_get(exporter.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    }

    /// Regression for the head-of-line blocking bug: the old exporter
    /// accepted and served one connection at a time inline, so a client
    /// that connected and sent nothing delayed every other scrape by up to
    /// its 500 ms read timeout. On the event loop a stalled client costs
    /// other scrapes nothing.
    #[test]
    fn stalled_client_does_not_block_concurrent_scrapes() {
        let exporter = exporter_at(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        let addr = exporter.local_addr();
        // Two clients connect and stall without sending a byte.
        let _stalled_a = TcpStream::connect(addr).unwrap();
        let _stalled_b = TcpStream::connect(addr).unwrap();

        let mut latencies: Vec<Duration> = (0..10)
            .map(|_| {
                let t0 = Instant::now();
                let (head, _) = http_get(addr, "/metrics");
                assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
                t0.elapsed()
            })
            .collect();
        latencies.sort();
        let median = latencies[latencies.len() / 2];
        // The old inline loop paid ≥500 ms per stalled client per scrape;
        // use a generous CI-safe bound well below that.
        assert!(
            median < Duration::from_millis(250),
            "scrape median {median:?} while clients stalled — head-of-line blocking is back"
        );
    }

    /// Regression for the 20 ms accept busy-poll: readiness notification
    /// must answer an idle-endpoint scrape well under the old poll tick.
    #[test]
    fn idle_scrape_latency_beats_the_old_poll_tick() {
        let exporter = exporter_at(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_secs(3600),
        )
        .expect("bind");
        let addr = exporter.local_addr();
        // Warm up (thread spawn, first render).
        let _ = http_get(addr, "/healthz");
        let mut latencies: Vec<Duration> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                let (head, _) = http_get(addr, "/healthz");
                assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
                t0.elapsed()
            })
            .collect();
        latencies.sort();
        let median = latencies[latencies.len() / 2];
        assert!(
            median < Duration::from_millis(20),
            "idle scrape median {median:?} — should be far below the old 20 ms accept poll"
        );
    }

    #[test]
    fn reports_route_filters_and_paginates() {
        let (exporter, _ops) = spawn_ops_exporter();
        let addr = exporter.local_addr();

        let (head, body) = http_get(addr, "/reports");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.starts_with("{\"total\":12,\"count\":12,"), "{body}");
        assert_content_length(&head, &body);

        // Pagination: first page of 5, then resume from the last seen id.
        let (_, body) = http_get(addr, "/reports?limit=5");
        assert!(body.starts_with("{\"total\":12,\"count\":5,"), "{body}");
        for id in 1..=5 {
            assert!(body.contains(&format!("\"id\":{id},")), "{id}: {body}");
        }
        let (_, body) = http_get(addr, "/reports?since=5&limit=5");
        assert!(body.starts_with("{\"total\":7,\"count\":5,"), "{body}");
        assert!(
            body.contains("\"id\":6,") && body.contains("\"id\":10,"),
            "{body}"
        );
        assert!(
            !body.contains("\"id\":5,") && !body.contains("\"id\":11,"),
            "{body}"
        );

        // Severity, template, and source filters.
        let (_, body) = http_get(addr, "/reports?severity=high");
        assert!(body.starts_with("{\"total\":6,"), "{body}");
        assert!(!body.contains("\"severity\":\"low\""), "{body}");
        let (_, body) = http_get(addr, "/reports?template=9");
        assert!(body.starts_with("{\"total\":6,"), "{body}");
        let (_, body) = http_get(addr, "/reports?source=3");
        assert!(body.starts_with("{\"total\":1,"), "{body}");
        assert!(body.contains("\"id\":3,"), "{body}");
        let (_, body) = http_get(addr, "/reports?severity=high&template=9&limit=2");
        assert!(body.starts_with("{\"total\":3,\"count\":2,"), "{body}");

        // Bad queries are 400s, not silently-empty result sets.
        for bad in [
            "/reports?bogus=1",
            "/reports?limit=0",
            "/reports?severity=purple",
            "/reports?since=1&since=2",
        ] {
            let (head, body) = http_get(addr, bad);
            assert!(head.starts_with("HTTP/1.1 400"), "{bad}: {head}");
            assert!(body.contains("\"error\":"), "{bad}: {body}");
        }
    }

    #[test]
    fn report_detail_joins_sampled_spans() {
        let (exporter, _ops) = spawn_ops_exporter();
        let addr = exporter.local_addr();
        // Report 1's provenance carries TraceId(1), which the test tracer
        // has a recorded span for.
        let (head, body) = http_get(addr, "/reports/1");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"report\":{\"id\":1,"), "{body}");
        assert!(body.contains("\"spans\":[{\"trace_id\":1,"), "{body}");
        assert_content_length(&head, &body);
        // Report 2 has no sampled spans: still 200, empty join.
        let (_, body) = http_get(addr, "/reports/2");
        assert!(body.ends_with("\"spans\":[]}"), "{body}");

        let (head, _) = http_get(addr, "/reports/999");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let (head, _) = http_get(addr, "/reports/abc");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    }

    #[test]
    fn post_config_applies_allowlisted_keys_and_rejects_others() {
        let (exporter, ops) = spawn_ops_exporter();
        let addr = exporter.local_addr();

        let (head, body) = http_get(addr, "/config");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.starts_with("{\"version\":0,"), "{body}");

        let (head, body) = http_post(addr, "/config", "on-overload=shed&trace-sample-rate=64");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.starts_with("{\"version\":1,"), "{body}");
        assert!(body.contains("\"on-overload\":\"shed\""), "{body}");
        assert!(body.contains("\"trace-sample-rate\":64"), "{body}");
        assert_content_length(&head, &body);
        assert_eq!(ops.reload.version(), 1);

        // A non-allowlisted key rejects the whole update: the snapshot
        // stays at version 1 with the values applied above.
        let (head, body) = http_post(addr, "/config", "state-dir=/tmp/elsewhere");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        assert!(body.contains("\"error\":"), "{body}");
        assert_content_length(&head, &body);
        let (_, body) = http_get(addr, "/config");
        assert!(body.starts_with("{\"version\":1,"), "{body}");
        assert!(body.contains("\"on-overload\":\"shed\""), "{body}");

        // POST anywhere else is a 405.
        let (head, _) = http_post(addr, "/metrics", "x=y");
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");
    }

    #[test]
    fn readyz_gates_on_published_status_inputs() {
        let (exporter, ops) = spawn_ops_exporter();
        let addr = exporter.local_addr();
        let (head, body) = http_get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "ok\n");

        let inputs = StatusInputs {
            delivery_spilling: true,
            ..StatusInputs::default()
        };
        ops.status.publish(inputs);
        let (head, body) = http_get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert!(body.contains("\"ready\":false"), "{body}");
        assert!(body.contains("spilling"), "{body}");
        assert_content_length(&head, &body);

        // /status agrees: the same condition is its critical tier.
        let (head, body) = http_get(addr, "/status");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.starts_with("{\"status\":\"critical\""), "{body}");
        assert!(body.contains("\"config_version\":0"), "{body}");
        assert_content_length(&head, &body);
    }

    #[test]
    fn readyz_reports_a_lost_router_link_as_degraded_not_503() {
        let (exporter, ops) = spawn_ops_exporter();
        let addr = exporter.local_addr();

        // The monitor lost its router but keeps serving local sources:
        // still ready, body carries the machine-readable reason.
        ops.status.publish(StatusInputs {
            router_link: Some(("degraded".to_string(), "router-link-lost".to_string())),
            ..StatusInputs::default()
        });
        let (head, body) = http_get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"ready\":true"), "{body}");
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        assert!(body.contains("router-link-lost"), "{body}");
        assert_content_length(&head, &body);

        // /status carries the same condition in its degraded tier plus a
        // structured cluster section.
        let (_, body) = http_get(addr, "/status");
        assert!(body.starts_with("{\"status\":\"degraded\""), "{body}");
        assert!(
            body.contains(
                "\"cluster\":{\"router_link\":\"degraded\",\"reason\":\"router-link-lost\"}"
            ),
            "{body}"
        );

        // Reconnected: back to the plain ok probe, cluster section shows
        // the healthy link.
        ops.status.publish(StatusInputs {
            router_link: Some(("connected".to_string(), String::new())),
            ..StatusInputs::default()
        });
        let (head, body) = http_get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "ok\n");
        let (_, body) = http_get(addr, "/status");
        assert!(body.starts_with("{\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"router_link\":\"connected\""), "{body}");
    }

    /// Satellite guarantee: `/status` stays responsive while wedged
    /// clients (stalled connections and a slow-loris half-finished POST)
    /// sit on the same listener.
    #[test]
    fn status_answers_under_concurrent_scrapes_with_wedged_clients() {
        let (exporter, _ops) = spawn_ops_exporter();
        let addr = exporter.local_addr();
        // Two clients stall without sending a byte; one wedges mid-POST
        // (complete head, body never arrives).
        let _stalled_a = TcpStream::connect(addr).unwrap();
        let _stalled_b = TcpStream::connect(addr).unwrap();
        let mut loris = TcpStream::connect(addr).unwrap();
        loris
            .write_all(b"POST /config HTTP/1.1\r\nContent-Length: 4000\r\n\r\non-ov")
            .unwrap();

        let mut latencies: Vec<Duration> = (0..10)
            .map(|_| {
                let t0 = Instant::now();
                let (head, body) = http_get(addr, "/status");
                assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
                assert!(body.starts_with("{\"status\":"), "{body}");
                t0.elapsed()
            })
            .collect();
        latencies.sort();
        let median = latencies[latencies.len() / 2];
        assert!(
            median < Duration::from_millis(250),
            "/status median {median:?} while clients wedged — head-of-line blocking"
        );
    }

    #[test]
    fn ops_routes_404_without_an_ops_state() {
        let exporter = exporter_at(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        let addr = exporter.local_addr();
        for path in ["/reports", "/reports/1", "/status", "/config"] {
            let (head, body) = http_get(addr, path);
            assert!(head.starts_with("HTTP/1.1 404"), "{path}: {head}");
            assert!(body.contains("ops surface disabled"), "{path}: {body}");
        }
        // Liveness-style readiness still answers without ops state.
        let (head, body) = http_get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "ok\n");
    }

    /// Only GET and POST are routed: `PUT /config` used to answer 200 with
    /// the unchanged config and `DELETE /reports/5` returned the report.
    #[test]
    fn other_methods_get_405_and_change_nothing() {
        let (exporter, ops) = spawn_ops_exporter();
        let addr = exporter.local_addr();
        for request in [
            &b"PUT /config HTTP/1.1\r\nContent-Length: 16\r\n\r\non-overload=shed"[..],
            b"DELETE /reports/5 HTTP/1.1\r\n\r\n",
            b"HEAD /metrics HTTP/1.1\r\n\r\n",
        ] {
            let response = client::send(addr, request);
            let (head, body) = client::split(&response);
            assert!(
                head.starts_with("HTTP/1.1 405 Method Not Allowed"),
                "{head}"
            );
            assert_content_length(head, body);
        }
        assert_eq!(ops.reload.version(), 0);
        assert!(ops.reports.get(5).is_some());
    }

    /// A body the layer cannot frame is refused instead of read as empty.
    #[test]
    fn chunked_and_bad_length_bodies_are_refused() {
        let (exporter, ops) = spawn_ops_exporter();
        let addr = exporter.local_addr();
        for (request, status) in [
            (
                &b"POST /config HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n10\r\non-overload=shed\r\n0\r\n\r\n"[..],
                "411 Length Required",
            ),
            (
                b"POST /config HTTP/1.1\r\nContent-Length: 16x\r\n\r\non-overload=shed",
                "400 Bad Request",
            ),
            (
                b"POST /config HTTP/1.1\r\nContent-Length: 16\r\nContent-Length: 3\r\n\r\non-overload=shed",
                "400 Bad Request",
            ),
        ] {
            let response = client::send(addr, request);
            let (head, body) = client::split(&response);
            assert!(head.starts_with(&format!("HTTP/1.1 {status}")), "{head}");
            assert_content_length(head, body);
        }
        assert_eq!(ops.reload.version(), 0);
    }
}
