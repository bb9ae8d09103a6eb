//! HTTP bulk-ingest source: `POST /ingest` with a newline-delimited
//! body, a JSON array of strings (`Content-Type: application/json`), or
//! either of those gzipped (`Content-Encoding: gzip`, decompressed by
//! the vendored [`super::inflate`] — no compression crate).
//!
//! Requests arrive through the shared HTTP layer ([`crate::net::http`]),
//! which reads a body by `Content-Length` only: a chunked upload answers
//! 411 and a bad length 400. Admission control happens *before* the
//! body is accepted into the pipeline: a `Content-Length` above the
//! configured cap is refused with 413 (the body is discarded, not
//! buffered; the same cap bounds the *decompressed* size of a gzip body),
//! and a body whose line count exceeds the ingest queue's free space is
//! refused with 429 + `Retry-After` so well-behaved clients back off
//! instead of silently losing a prefix of their batch — a bulk POST is
//! all-or-nothing, and a malformed JSON or gzip body rejects whole with
//! 400. An admitted batch that loses a race for queue space is held until
//! the queue drains and then answered 200; the request deadline only
//! bounds receiving the request.

use super::{inflate, Shared, SourceEvent, HTTP_SOURCE};
use crate::metrics::PipelineMetrics;
use crate::net::http::{Admit, Head, HttpConn, HttpError, Limits, Response, Service};
use crate::net::Handler;
use monilog_model::ByteLine;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// The handler for one accepted ingest connection.
pub(super) fn serve(conn: TcpStream, shared: &Arc<Shared>) -> Box<dyn Handler> {
    PipelineMetrics::add(&shared.metrics.sources_connections, 1);
    let request = IngestRequest {
        shared: shared.clone(),
        gzip: false,
        json: false,
        pending: VecDeque::new(),
        accepted: 0,
    };
    Box::new(HttpConn::new(conn, request))
}

/// One `/ingest` request on the shared HTTP layer.
struct IngestRequest {
    shared: Arc<Shared>,
    /// `Content-Encoding: gzip` on the request.
    gzip: bool,
    /// `Content-Type: application/json`: the body is a JSON array of
    /// strings, one log line per element.
    json: bool,
    /// Lines of an admitted body not yet in the queue.
    pending: VecDeque<ByteLine>,
    accepted: usize,
}

impl IngestRequest {
    /// A refusal, counted in `sources_http_rejected`.
    fn reject(&self, status: &'static str, message: &str) -> Response {
        PipelineMetrics::add(&self.shared.metrics.sources_http_rejected, 1);
        Response::error(status, message)
    }

    /// The body's log lines, or the 400/413 that refuses it.
    fn decode(&self, mut raw: Vec<u8>) -> Result<Vec<ByteLine>, Response> {
        let max = self.shared.max_http_body_bytes;
        if self.gzip {
            // The body cap applies to what the pipeline would hold, so
            // the *decompressed* size is capped too — a compression bomb
            // stops inflating at the limit and is refused.
            raw = inflate::gunzip(&raw, max).map_err(|e| match e {
                inflate::InflateError::TooLarge => self.reject(
                    "413 Payload Too Large",
                    &format!("decompressed body exceeds {max} bytes"),
                ),
                e => self.reject("400 Bad Request", &format!("invalid gzip body: {e}")),
            })?;
        }
        if !self.json {
            // The whole body becomes one refcounted arrival buffer; each
            // line is a sub-slice sharing it — no per-line allocation.
            // (Invalid UTF-8 is lossy-repaired once, inside `from_bytes`.)
            let body = ByteLine::from_bytes(raw.into());
            return Ok(body
                .lines()
                .map(str::trim_end)
                .filter(|l| !l.is_empty())
                .map(|l| body.slice_of(l))
                .collect());
        }
        // JSON array of strings: one log line per element, decoded into
        // owned lines (escapes make zero-copy slicing moot).
        let items = std::str::from_utf8(&raw)
            .map_err(|_| "json body is not valid utf-8".to_string())
            .and_then(|text| {
                parse_json_string_array(text).map_err(|why| format!("invalid json body: {why}"))
            })
            .map_err(|why| self.reject("400 Bad Request", &why))?;
        Ok(items
            .into_iter()
            .map(|s| s.trim_end().to_string())
            .filter(|s| !s.is_empty())
            .map(ByteLine::from_string)
            .collect())
    }
}

impl Service for IngestRequest {
    const LIMITS: Limits = Limits {
        head_bytes: 8 * 1024,
        // Room for an 8 MiB body from a slow client.
        request_deadline: Duration::from_secs(10),
        write_deadline: Duration::from_secs(5),
    };

    fn head(&mut self, head: Head) -> Admit {
        let encoding = head.content_encoding.to_ascii_lowercase();
        self.gzip = matches!(encoding.as_str(), "gzip" | "x-gzip");
        // Parameters (`; charset=...`) don't change the shape.
        self.json = head
            .content_type
            .split(';')
            .next()
            .unwrap_or("")
            .trim()
            .eq_ignore_ascii_case("application/json");
        let max = self.shared.max_http_body_bytes;
        Admit::Reply(match (head.method.as_str(), head.path.as_str()) {
            ("GET", "/healthz") => Response::json("200 OK", "{\"status\":\"ok\"}\n"),
            ("POST", "/ingest" | "/") if !self.gzip && !matches!(&*encoding, "identity" | "") => {
                let only = "only identity or gzip content-encoding";
                self.reject("415 Unsupported Media Type", only)
            }
            ("POST", "/ingest" | "/") if head.content_length > max => self.reject(
                "413 Payload Too Large",
                &format!("body exceeds {max} bytes"),
            ),
            ("POST", "/ingest" | "/") => return Admit::Body,
            ("POST" | "GET", _) => self.reject("404 Not Found", "try POST /ingest or GET /healthz"),
            _ => self.refuse(HttpError::Malformed),
        })
    }

    /// Admission-check the whole batch, then enqueue it.
    fn body(&mut self, raw: Vec<u8>) -> Option<Response> {
        let lines = match self.decode(raw) {
            Ok(lines) => lines,
            Err(refusal) => return Some(refusal),
        };
        if lines.len() > self.shared.tx.free() {
            let saturated = "ingest queue saturated, retry with backoff";
            let mut refusal = self.reject("429 Too Many Requests", saturated);
            refusal.extra_headers = "Retry-After: 1\r\n";
            return Some(refusal);
        }
        self.accepted = lines.len();
        self.pending = VecDeque::from(lines);
        // The queue can fill between the check and the pushes (another
        // source raced us): then the batch is held and finishes on wake.
        self.wake()
    }

    /// Move held lines into the queue; answer once all of them are in.
    fn wake(&mut self) -> Option<Response> {
        while let Some(line) = self.pending.pop_front() {
            let ev = SourceEvent {
                source: HTTP_SOURCE,
                line,
                cursor: None,
                seq: None,
            };
            if let Err(ev) = self.shared.push_or_apply_policy(ev, true) {
                self.pending.push_front(ev.line);
                return None;
            }
        }
        let n = self.accepted;
        Some(Response::json("200 OK", format!("{{\"accepted\":{n}}}\n")))
    }

    fn refuse(&mut self, err: HttpError) -> Response {
        match err {
            // A request line that names no method this endpoint knows.
            HttpError::Malformed => self.reject(
                "405 Method Not Allowed",
                "POST newline-delimited lines to /ingest",
            ),
            _ => self.reject(err.status(), err.message()),
        }
    }

    fn closed(&mut self) {
        PipelineMetrics::add(&self.shared.metrics.sources_disconnects, 1);
    }
}

/// Parse a JSON array of strings — the only JSON shape `/ingest`
/// accepts. Strict by design: the admission contract is all-or-nothing,
/// so the first malformed element rejects the whole body. Small enough
/// to live here rather than pull in a JSON crate.
fn parse_json_string_array(text: &str) -> Result<Vec<String>, &'static str> {
    fn skip_ws(b: &[u8], i: &mut usize) {
        while matches!(b.get(*i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            *i += 1;
        }
    }

    fn hex4(b: &[u8], i: &mut usize) -> Result<u32, &'static str> {
        let hex = b.get(*i..*i + 4).ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "invalid \\u escape")?;
        *i += 4;
        u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")
    }

    fn parse_string(b: &[u8], i: &mut usize) -> Result<String, &'static str> {
        if b.get(*i) != Some(&b'"') {
            return Err("array elements must be strings");
        }
        *i += 1;
        let mut s: Vec<u8> = Vec::new();
        loop {
            let c = *b.get(*i).ok_or("unterminated string")?;
            *i += 1;
            match c {
                b'"' => {
                    // Raw multi-byte UTF-8 passed through untouched; the
                    // input was validated as UTF-8 before parsing.
                    return String::from_utf8(s).map_err(|_| "invalid utf-8 in string");
                }
                b'\\' => {
                    let e = *b.get(*i).ok_or("unterminated escape")?;
                    *i += 1;
                    let ch = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hi = hex4(b, i)?;
                            if (0xD800..0xDC00).contains(&hi) {
                                if b.get(*i..*i + 2) != Some(b"\\u") {
                                    return Err("lone high surrogate");
                                }
                                *i += 2;
                                let lo = hex4(b, i)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid surrogate pair");
                                }
                                char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                                    .ok_or("invalid surrogate pair")?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err("lone low surrogate");
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            }
                        }
                        _ => return Err("unknown escape"),
                    };
                    s.extend_from_slice(ch.encode_utf8(&mut [0u8; 4]).as_bytes());
                }
                0x00..=0x1F => return Err("unescaped control character"),
                _ => s.push(c),
            }
        }
    }

    let b = text.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    if b.get(i) != Some(&b'[') {
        return Err("body is not a JSON array");
    }
    i += 1;
    skip_ws(b, &mut i);
    let mut items = Vec::new();
    if b.get(i) == Some(&b']') {
        i += 1;
    } else {
        loop {
            skip_ws(b, &mut i);
            items.push(parse_string(b, &mut i)?);
            skip_ws(b, &mut i);
            match b.get(i) {
                Some(&b',') => i += 1,
                Some(&b']') => {
                    i += 1;
                    break;
                }
                _ => return Err("expected ',' or ']'"),
            }
        }
    }
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err("trailing data after the array");
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::super::{MetricsEndpoint, SourceQueue, SourcesConfig, SourcesServer};
    use super::*;
    use crate::net::http::client::{self, with_ctx};
    use crate::net::{EventLoop, Next};
    use crate::observe::MetricsRegistry;
    use std::net::SocketAddr;
    use std::sync::atomic::Ordering;
    use std::time::Instant;

    fn spawn(queue_capacity: usize) -> (SourcesServer, SourceQueue, SocketAddr) {
        let cfg = SourcesConfig {
            http: Some("127.0.0.1:0".parse().unwrap()),
            queue_capacity,
            max_http_body_bytes: 4096,
            assumed_year: 2026,
            ..SourcesConfig::default()
        };
        let (server, queue) =
            SourcesServer::spawn(cfg, MetricsRegistry::shared_with_shards(1), None, None).unwrap();
        let addr = server.http_addr().unwrap();
        (server, queue, addr)
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> String {
        client::post(addr, path, "", body.as_bytes())
    }

    #[test]
    fn bulk_post_ingests_every_line() {
        let (_server, queue, addr) = spawn(1024);
        let body = "alpha line\nbeta line\n\ngamma line\n";
        let response = post(addr, "/ingest", body);
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("\"accepted\":3"), "{response}");
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < 3 && Instant::now() < deadline {
            got.extend(queue.recv_batch(16, Duration::from_millis(20)));
        }
        let lines: Vec<&str> = got.iter().map(|e| e.line.as_str()).collect();
        assert_eq!(lines, vec!["alpha line", "beta line", "gamma line"]);
    }

    /// POST with arbitrary extra headers and a binary body.
    fn post_raw(addr: SocketAddr, extra_headers: &str, body: &[u8]) -> String {
        client::post(addr, "/ingest", extra_headers, body)
    }

    /// A gzip member wrapping one stored deflate block — enough to
    /// exercise the whole decode path without a compressor.
    fn gzip_stored(payload: &[u8]) -> Vec<u8> {
        let mut g = vec![0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255];
        g.push(0x01); // BFINAL=1, BTYPE=stored
        g.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        g.extend_from_slice(&(!(payload.len() as u16)).to_le_bytes());
        g.extend_from_slice(payload);
        g.extend_from_slice(&monilog_model::codec::crc32(payload).to_le_bytes());
        g.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        g
    }

    fn drain(queue: &SourceQueue, want: usize) -> Vec<String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < want && Instant::now() < deadline {
            got.extend(
                queue
                    .recv_batch(16, Duration::from_millis(20))
                    .into_iter()
                    .map(|e| e.line.as_str().to_string()),
            );
        }
        got
    }

    #[test]
    fn gzip_body_ingests_after_inflation() {
        let (_server, queue, addr) = spawn(1024);
        let body = gzip_stored(b"gz alpha\ngz beta\n");
        let response = post_raw(addr, "Content-Encoding: gzip\r\n", &body);
        assert!(response.contains("\"accepted\":2"), "{response}");
        assert_eq!(drain(&queue, 2), vec!["gz alpha", "gz beta"]);
    }

    #[test]
    fn corrupt_gzip_gets_400_all_or_nothing() {
        let (_server, queue, addr) = spawn(1024);
        let mut body = gzip_stored(b"one\ntwo\n");
        let crc_at = body.len() - 8;
        body[crc_at] ^= 0xFF;
        let response = post_raw(addr, "Content-Encoding: gzip\r\n", &body);
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(queue.recv_batch(16, Duration::from_millis(100)).is_empty());
    }

    #[test]
    fn json_array_body_ingests_each_element() {
        let (_server, queue, addr) = spawn(1024);
        let body = br#"[ "json one", "json two\twith tab", "", "json three" ]"#;
        let response = post_raw(addr, "Content-Type: application/json\r\n", body);
        assert!(response.contains("\"accepted\":3"), "{response}");
        assert_eq!(
            drain(&queue, 3),
            vec!["json one", "json two\twith tab", "json three"]
        );
    }

    #[test]
    fn gzipped_json_combines_both_layers() {
        let (_server, queue, addr) = spawn(1024);
        let body = gzip_stored(br#"["deep one","deep two"]"#);
        let response = post_raw(
            addr,
            "Content-Type: application/json\r\nContent-Encoding: gzip\r\n",
            &body,
        );
        assert!(response.contains("\"accepted\":2"), "{response}");
        assert_eq!(drain(&queue, 2), vec!["deep one", "deep two"]);
    }

    #[test]
    fn malformed_json_gets_400() {
        let (_server, queue, addr) = spawn(1024);
        for body in [
            &br#"{"not":"an array"}"#[..],
            br#"["unterminated"#,
            br#"[1, 2, 3]"#,
            br#"["ok"] trailing"#,
        ] {
            let response = post_raw(addr, "Content-Type: application/json\r\n", body);
            assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        }
        assert!(queue.recv_batch(16, Duration::from_millis(100)).is_empty());
    }

    #[test]
    fn unsupported_encoding_gets_415() {
        let (_server, queue, addr) = spawn(1024);
        let response = post_raw(addr, "Content-Encoding: br\r\n", b"whatever\n");
        assert!(response.starts_with("HTTP/1.1 415"), "{response}");
        assert!(queue.recv_batch(16, Duration::from_millis(100)).is_empty());
    }

    #[test]
    fn json_escapes_decode() {
        assert_eq!(
            super::parse_json_string_array(r#"["a\nb", "Aé", "😀"]"#).unwrap(),
            vec!["a\nb".to_string(), "Aé".to_string(), "😀".to_string()]
        );
        assert!(super::parse_json_string_array(r#"["\ud83d"]"#).is_err());
        assert!(super::parse_json_string_array("[\"ctrl\u{1}\"]").is_err());
    }

    #[test]
    fn oversized_body_gets_413_without_buffering() {
        let (_server, queue, addr) = spawn(1024);
        let body = "x".repeat(8192); // over the 4096 cap
        let response = post(addr, "/ingest", &body);
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        assert!(queue.recv_batch(16, Duration::from_millis(100)).is_empty());
    }

    #[test]
    fn saturated_queue_gets_429_all_or_nothing() {
        let (_server, queue, addr) = spawn(4);
        let body = (0..32).map(|i| format!("line {i}\n")).collect::<String>();
        let response = post(addr, "/ingest", &body);
        assert!(response.starts_with("HTTP/1.1 429"), "{response}");
        assert!(response.contains("Retry-After: 1"), "{response}");
        // All-or-nothing: no partial prefix leaked into the queue.
        assert!(queue.recv_batch(16, Duration::from_millis(100)).is_empty());
    }

    #[test]
    fn healthz_and_404() {
        let (_server, _queue, addr) = spawn(16);
        let response = client::get(addr, "/healthz");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");

        let response = post(addr, "/elsewhere", "body\n");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    }

    #[test]
    fn sources_and_metrics_coexist_under_one_spawn() {
        // The tentpole claim in miniature: ingest + scrape on one loop.
        let cfg = SourcesConfig {
            http: Some("127.0.0.1:0".parse().unwrap()),
            queue_capacity: 64,
            assumed_year: 2026,
            ..SourcesConfig::default()
        };
        let registry = MetricsRegistry::shared_with_shards(1);
        let (server, queue) = SourcesServer::spawn(
            cfg,
            Arc::clone(&registry),
            None,
            Some(MetricsEndpoint {
                addr: "127.0.0.1:0".parse().unwrap(),
                interval: Duration::from_millis(50),
                tracer: None,
                ops: None,
            }),
        )
        .unwrap();
        let response = post(server.http_addr().unwrap(), "/ingest", "one line\n");
        assert!(response.contains("\"accepted\":1"), "{response}");
        let got = queue.recv_batch(4, Duration::from_secs(2));
        assert_eq!(got.len(), 1);

        let response = client::get(server.metrics_addr().unwrap(), "/metrics");
        assert!(
            response.contains("monilog_sources_lines_total 1"),
            "{response}"
        );
    }

    /// A chunked upload, or one whose length cannot be trusted, used to be
    /// read as an empty body: `200 {"accepted":0}` and the lines dropped.
    #[test]
    fn chunked_and_bad_length_uploads_are_refused_not_read_as_empty() {
        let (server, queue, addr) = spawn(1024);
        for (request, status) in [
            (
                &b"POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nline\r\n0\r\n\r\n"[..],
                "411 Length Required",
            ),
            (
                b"POST /ingest HTTP/1.1\r\nContent-Length: five\r\n\r\nline\n",
                "400 Bad Request",
            ),
            (
                b"POST /ingest HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nline\n",
                "400 Bad Request",
            ),
        ] {
            let response = client::send(addr, request);
            assert!(response.starts_with(&format!("HTTP/1.1 {status}\r\n")), "{response}");
        }
        assert!(queue.recv_batch(16, Duration::from_millis(100)).is_empty());
        let rejected = &server.shared.metrics.sources_http_rejected;
        assert_eq!(rejected.load(Ordering::SeqCst), 3);
    }

    /// Shared state and queue without a running loop, for driving one
    /// connection's callbacks by hand.
    fn detached(capacity: usize) -> (Arc<Shared>, SourceQueue) {
        let config = SourcesConfig {
            queue_capacity: capacity,
            max_http_body_bytes: 4096,
            assumed_year: 2026,
            ..SourcesConfig::default()
        };
        let waker = EventLoop::new().unwrap().waker().unwrap();
        let registry = MetricsRegistry::shared_with_shards(1);
        Shared::new(&config, &registry, None, waker)
    }

    /// A refused body that stops arriving used to turn into a 408 at the
    /// request deadline, counted as a second rejection.
    #[test]
    fn a_refused_body_cut_off_at_the_deadline_still_gets_its_413_counted_once() {
        let (shared, queue) = detached(16);
        let (server, mut client) = client::socket_pair();
        let mut conn = serve(server.try_clone().unwrap(), &shared);
        let request = b"POST /ingest HTTP/1.1\r\nContent-Length: 8192\r\n\r\nxxxxxxxx";
        client::deliver(conn.as_mut(), &mut client, &server, request);
        let late = Instant::now() + IngestRequest::LIMITS.request_deadline;
        assert_eq!(with_ctx(late, |ctx| conn.tick(late, ctx)), Next::Close);
        drop((conn, server));
        let response = client::response(client);
        assert!(
            response.starts_with("HTTP/1.1 413 Payload Too Large\r\n"),
            "{response}"
        );
        assert_eq!(
            shared.metrics.sources_http_rejected.load(Ordering::SeqCst),
            1
        );
        assert!(queue.recv_batch(16, Duration::from_millis(10)).is_empty());
    }

    /// An admitted batch waiting for queue space used to get a 408 at the
    /// request deadline after part of it was queued; the rest was dropped
    /// and the client's retry duplicated the prefix.
    #[test]
    fn an_admitted_batch_held_for_queue_space_is_answered_200_past_the_deadline() {
        let (shared, queue) = detached(4);
        // Three events slip into the channel behind the depth count, as if
        // another producer raced this request between admission and push.
        for i in 0..3 {
            let line = ByteLine::from_string(format!("racer {i}"));
            let ev = SourceEvent {
                source: HTTP_SOURCE,
                line,
                cursor: None,
                seq: None,
            };
            shared.tx.tx.try_send(ev).unwrap();
        }
        let (server, mut client) = client::socket_pair();
        let mut conn = serve(server.try_clone().unwrap(), &shared);
        let request = b"POST /ingest HTTP/1.1\r\nContent-Length: 12\r\n\r\none\ntwo\nsix\n";
        client::deliver(conn.as_mut(), &mut client, &server, request);

        // Admitted (3 ≤ 4 free by the count), one line in, two held.
        let late = Instant::now() + IngestRequest::LIMITS.request_deadline * 2;
        assert_eq!(with_ctx(late, |ctx| conn.tick(late, ctx)), Next::Keep);
        assert_eq!(with_ctx(late, |ctx| conn.wake(ctx)), Next::Keep);

        // The consumer takes the racers; the wake finishes the batch.
        for _ in 0..3 {
            queue.rx.try_recv().unwrap();
        }
        assert_eq!(with_ctx(late, |ctx| conn.wake(ctx)), Next::Close);
        drop((conn, server));
        let response = client::response(client);
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.ends_with("{\"accepted\":3}\n"), "{response}");
        assert_eq!(drain(&queue, 3), vec!["one", "two", "six"]);
        assert_eq!(
            shared.metrics.sources_http_rejected.load(Ordering::SeqCst),
            0
        );
    }
}
