//! Deterministic fault injection for the network-facing layers: scripted
//! sink receivers, source clients and cluster links whose faults are keyed
//! on connection or frame indices, not on wall clock or thread
//! interleaving, so a chaos test can assert exact outcomes.
//!
//! ## Sink faults
//!
//! The delivery layer ([`crate::sinks`]) is tested against
//! [`FlakySinkServer`]: a scripted in-process receiver whose faults are
//! keyed on the **accepted-connection index** — connection 0 gets
//! `script[0]`, connection 1 gets `script[1]`, … — so "refuse the first
//! two connections, reset the third mid-frame, answer 429 to the fourth,
//! hang on the fifth, then behave" is a reproducible plan, not a race.
//! The server records every report id it acknowledged; the harness
//! compares that *receiver-side* delivered set against a fault-free run.

use crate::net::http;
use crate::sinks::{self, BufferedReport, PING_ACK};
use monilog_model::ReportLine;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One connection's scripted behaviour in a [`FlakySinkServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkFault {
    /// Serve the connection normally (record + ack everything).
    Healthy,
    /// Close immediately after accepting — the client sees a refused/reset
    /// connection before any byte moves.
    Refuse,
    /// Read part of the first data frame, then drop the socket mid-frame.
    ResetMidFrame,
    /// HTTP mode: answer `429 Too Many Requests` without recording.
    /// Framed mode: read one frame, ack nothing, close (equivalent
    /// transient rejection).
    Http429,
    /// HTTP mode: answer `500 Internal Server Error` without recording.
    /// Framed mode: same as [`SinkFault::Http429`].
    Http500,
    /// Go silent after accepting: read nothing, write nothing, for longer
    /// than any client write/read timeout.
    Hang,
}

/// Which protocol the flaky server speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkProtocol {
    /// The [`crate::sinks`] frame protocol with per-report acks.
    Framed,
    /// Minimal HTTP/1.1: `POST` of ndjson bodies, `GET /healthz`.
    Http,
}

/// Shared observable state of a [`FlakySinkServer`].
#[derive(Debug, Default)]
struct SinkLedger {
    /// Ids seen at least once — the receiver-side dedup set.
    seen: Mutex<HashSet<u64>>,
    duplicates: AtomicU64,
    connections: AtomicU64,
}

/// A scripted in-process flaky sink endpoint.
///
/// Faults are consumed per accepted connection: connection `i` behaves as
/// `script[i]`, and connections past the script's end are
/// [`SinkFault::Healthy`]. The server dedups by report id (mirroring any
/// real idempotent receiver), so the harness can assert "zero lost, zero
/// duplicate after dedup" directly on [`FlakySinkServer::delivered_ids`].
pub struct FlakySinkServer {
    addr: SocketAddr,
    ledger: Arc<SinkLedger>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FlakySinkServer {
    /// Bind `addr` (use port 0 for ephemeral) and serve `protocol` with
    /// the given per-connection fault script.
    pub fn spawn(
        addr: &str,
        protocol: SinkProtocol,
        script: Vec<SinkFault>,
    ) -> std::io::Result<FlakySinkServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Accept with a poll timeout so `stop` is honoured promptly.
        listener.set_nonblocking(true)?;
        let ledger = Arc::new(SinkLedger::default());
        let stop = Arc::new(AtomicBool::new(false));
        let thread_ledger = Arc::clone(&ledger);
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("flaky-sink".into())
            .spawn(move || {
                let (ledger, stop) = (&*thread_ledger, &*thread_stop);
                // One thread per connection, so a hang cannot block the
                // accept loop; the scope joins them all before it returns.
                std::thread::scope(|conns| {
                    while !stop.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                let idx = ledger.connections.fetch_add(1, Ordering::Relaxed);
                                let fault = script
                                    .get(idx as usize)
                                    .copied()
                                    .unwrap_or(SinkFault::Healthy);
                                conns.spawn(move || {
                                    serve_connection(stream, protocol, fault, ledger, stop)
                                });
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(_) => break,
                        }
                    }
                })
            })
            .expect("spawn flaky sink server");
        Ok(FlakySinkServer {
            addr: local,
            ledger,
            stop,
            handle: Some(handle),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The receiver-side delivered set: every id acknowledged at least
    /// once, ascending.
    pub fn delivered_ids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.ledger.seen.lock().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Acks whose id had already been seen (re-deliveries absorbed by the
    /// receiver-side dedup).
    pub fn duplicate_acks(&self) -> u64 {
        self.ledger.duplicates.load(Ordering::Relaxed)
    }

    /// Connections accepted so far (the script cursor).
    pub fn connections(&self) -> u64 {
        self.ledger.connections.load(Ordering::Relaxed)
    }

    /// Stop accepting and join the accept loop and every connection
    /// thread — each serve path sees the stop within its 200 ms read
    /// timeout — so the returned delivered set is final. A harness keeps
    /// it and can start a fresh server on the same port.
    pub fn shutdown(mut self) -> Vec<u64> {
        self.stop_and_join();
        self.delivered_ids()
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FlakySinkServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn record(ledger: &SinkLedger, report: &BufferedReport) {
    let fresh = ledger.seen.lock().insert(report.id);
    if !fresh {
        ledger.duplicates.fetch_add(1, Ordering::Relaxed);
    }
}

fn serve_connection(
    mut stream: TcpStream,
    protocol: SinkProtocol,
    fault: SinkFault,
    ledger: &SinkLedger,
    stop: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(1_000)));
    let _ = stream.set_nodelay(true);
    match fault {
        SinkFault::Refuse => { /* drop immediately */ }
        SinkFault::Hang => {
            // Stay silent until the harness stops the server (bounded so a
            // forgotten server can't leak the thread forever).
            for _ in 0..600 {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        SinkFault::ResetMidFrame => {
            // Consume a few bytes — less than one frame header+payload —
            // then drop, so the client's write or ack read dies mid-frame.
            let mut partial = [0u8; 6];
            let _ = stream.read(&mut partial);
        }
        SinkFault::Http429 | SinkFault::Http500 => match protocol {
            SinkProtocol::Http => {
                let _ = read_http_request(&mut stream);
                let status = if fault == SinkFault::Http429 {
                    "429 Too Many Requests"
                } else {
                    "500 Internal Server Error"
                };
                respond(&mut stream, status, "");
            }
            SinkProtocol::Framed => {
                let _ = sinks::read_frame(&mut stream);
                // no ack: the client times out and retries
            }
        },
        SinkFault::Healthy => match protocol {
            SinkProtocol::Framed => serve_framed(stream, ledger, stop),
            SinkProtocol::Http => serve_http(stream, ledger),
        },
    }
}

/// Healthy framed service: record + ack every data frame, `PING_ACK` for
/// pings, until EOF or shutdown.
fn serve_framed(mut stream: TcpStream, ledger: &SinkLedger, stop: &AtomicBool) {
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match sinks::read_frame(&mut stream) {
            Ok(Some(payload)) => {
                let ack = match sinks::decode_report_payload(&payload) {
                    Some(report) => {
                        record(ledger, &report);
                        report.id
                    }
                    None => PING_ACK,
                };
                if stream.write_all(&ack.to_le_bytes()).is_err() {
                    return;
                }
            }
            Ok(None) => return, // clean EOF
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => continue,
            Err(_) => return,
        }
    }
}

/// Read one HTTP request (head + `Content-Length` body) with the shared
/// head parser.
fn read_http_request(stream: &mut TcpStream) -> std::io::Result<(http::Head, Vec<u8>)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let (head, len) = loop {
        match http::parse_head(&buf, 1 << 20) {
            Ok(Some(parsed)) => break parsed,
            Ok(None) => {}
            Err(e) => return Err(std::io::Error::other(e.message())),
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::other("eof before head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let mut body = buf.split_off(len);
    while body.len() < head.content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(head.content_length);
    Ok((head, body))
}

fn respond(stream: &mut TcpStream, status: &'static str, body: &str) {
    let _ = stream.write_all(&http::Response::new(status, "text/plain", body).into_bytes());
}

/// Healthy HTTP service: 200 to `/healthz`, record ndjson POST bodies
/// (one report per line, id parsed from the leading `{"id":N,` that
/// `AnomalyReport::to_json` guarantees), 200 on success.
fn serve_http(mut stream: TcpStream, ledger: &SinkLedger) {
    let Ok((head, body)) = read_http_request(&mut stream) else {
        return;
    };
    if head.method == "GET" && head.path == "/healthz" {
        return respond(&mut stream, "200 OK", "ok\n");
    }
    if head.method == "POST" {
        let text = String::from_utf8_lossy(&body);
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let id = ReportLine::id_of(line.trim_start().as_bytes()).unwrap_or(0);
            record(
                ledger,
                &BufferedReport {
                    id,
                    class: monilog_model::DeliveryClass::Page,
                    body: line.to_string(),
                },
            );
        }
        return respond(&mut stream, "200 OK", "");
    }
    respond(&mut stream, "404 Not Found", "");
}

/// One scripted misbehaviour of a [`FlakySourceClient`] connection against
/// a syslog-TCP source. Every variant is careful to never complete a frame:
/// the source discards torn partial frames at disconnect (they are counted,
/// not flushed), so a fleet of chaos clients contributes **zero** lines to
/// the pipeline and a chaos run can still assert byte-identical anomaly
/// sets against a clean reference feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceFault {
    /// Drip a partial LF frame one byte at a time with a delay between
    /// bytes, then disconnect before the newline — the classic slow loris.
    SlowLoris {
        /// Bytes to drip (must not contain `\n`; keep it starting with `<`
        /// so the connection sticks to LF framing).
        prefix: String,
        /// Delay between single-byte writes.
        byte_delay: Duration,
    },
    /// Send an octet-counted header promising more bytes than follow, then
    /// drop the socket mid-frame.
    ResetMidFrame {
        /// Bytes actually sent after a header that claims twice as many.
        partial: String,
    },
    /// Rapid connect → (optional single byte) → disconnect cycles.
    ReconnectStorm {
        /// How many connections to slam through.
        connects: u32,
    },
    /// Connect and sit silent — an idle-timeout candidate that holds a
    /// connection slot without sending anything.
    IdleHold { hold: Duration },
}

/// Totals a chaos-client thread observed, for gate-side sanity checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceChaosStats {
    /// Connections successfully established.
    pub connections: u64,
    /// Connections the script attempted but the peer refused.
    pub refused: u64,
    /// Total bytes written across all connections.
    pub bytes_sent: u64,
}

/// A scripted misbehaving syslog-TCP client: runs each [`SourceFault`] in
/// order on its own connection(s), on a background thread. The target
/// source must survive the abuse without letting any torn frame reach the
/// pipeline — see [`SourceFault`] for why that is assertable.
pub struct FlakySourceClient {
    handle: std::thread::JoinHandle<SourceChaosStats>,
}

impl FlakySourceClient {
    /// Run `script` against the syslog-TCP listener at `addr` on a new
    /// thread. Connection errors are tolerated (the server may be mid-
    /// shutdown); they are tallied in the returned stats.
    pub fn spawn(addr: SocketAddr, script: Vec<SourceFault>) -> FlakySourceClient {
        let handle = std::thread::Builder::new()
            .name("flaky-source-client".into())
            .spawn(move || run_source_script(addr, &script))
            .expect("spawn flaky source client");
        FlakySourceClient { handle }
    }

    /// Wait for the script to finish and return what it observed.
    pub fn join(self) -> SourceChaosStats {
        self.handle.join().unwrap_or_default()
    }
}

fn run_source_script(addr: SocketAddr, script: &[SourceFault]) -> SourceChaosStats {
    let mut stats = SourceChaosStats::default();
    let connect = |stats: &mut SourceChaosStats| -> Option<TcpStream> {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(1_000)) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                let _ = s.set_write_timeout(Some(Duration::from_millis(1_000)));
                stats.connections += 1;
                Some(s)
            }
            Err(_) => {
                stats.refused += 1;
                None
            }
        }
    };
    for fault in script {
        match fault {
            SourceFault::SlowLoris { prefix, byte_delay } => {
                debug_assert!(
                    !prefix.contains('\n'),
                    "slow loris must never finish a frame"
                );
                let Some(mut s) = connect(&mut stats) else {
                    continue;
                };
                for b in prefix.as_bytes() {
                    if s.write_all(std::slice::from_ref(b)).is_err() {
                        break;
                    }
                    stats.bytes_sent += 1;
                    std::thread::sleep(*byte_delay);
                }
                // Drop without the terminating newline: torn frame.
            }
            SourceFault::ResetMidFrame { partial } => {
                let Some(mut s) = connect(&mut stats) else {
                    continue;
                };
                let wire = format!("{} {partial}", partial.len() * 2 + 4);
                if s.write_all(wire.as_bytes()).is_ok() {
                    stats.bytes_sent += wire.len() as u64;
                }
                // Drop with the octet count unsatisfied: torn frame.
            }
            SourceFault::ReconnectStorm { connects } => {
                for i in 0..*connects {
                    let Some(mut s) = connect(&mut stats) else {
                        continue;
                    };
                    // Odd connections tease a single byte first so the
                    // server also sees storms of torn one-byte frames.
                    if i % 2 == 1 && s.write_all(b"<").is_ok() {
                        stats.bytes_sent += 1;
                    }
                }
            }
            SourceFault::IdleHold { hold } => {
                let Some(s) = connect(&mut stats) else {
                    continue;
                };
                std::thread::sleep(*hold);
                drop(s);
            }
        }
    }
    stats
}

/// A byte-counting TCP proxy that injects *link* faults between a monitor
/// and the cluster router: session `i` is killed (both directions torn
/// down, mid-frame by construction) after forwarding `cut_after[i]` bytes;
/// sessions past the script run clean. Reconnects land as new sessions, so
/// `vec![200, 17, 900]` scripts "cut mid-stream, cut almost immediately
/// (reconnect storm), cut again later, then behave". The cluster's
/// at-least-once wire contract plus seq dedup must turn all of that into
/// **zero** lost and zero duplicated lines — the harness asserts exactly
/// that.
pub struct FlakyLinkProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    sessions: Arc<AtomicU64>,
    cuts: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl FlakyLinkProxy {
    /// Listen on an ephemeral local port, forwarding every connection to
    /// `upstream` under the scripted cut schedule.
    pub fn spawn(upstream: SocketAddr, cut_after: Vec<usize>) -> std::io::Result<FlakyLinkProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let sessions = Arc::new(AtomicU64::new(0));
        let cuts = Arc::new(AtomicU64::new(0));
        let (t_stop, t_sessions, t_cuts) = (stop.clone(), sessions.clone(), cuts.clone());
        let thread = std::thread::Builder::new()
            .name("flaky-link-proxy".into())
            .spawn(move || {
                while !t_stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let session = t_sessions.fetch_add(1, Ordering::SeqCst) as usize;
                            let budget = cut_after.get(session).copied();
                            if run_proxy_session(client, upstream, budget, &t_stop) {
                                t_cuts.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn flaky link proxy");
        Ok(FlakyLinkProxy {
            addr,
            stop,
            sessions,
            cuts,
            thread: Some(thread),
        })
    }

    /// The address monitors should dial instead of the router.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions accepted so far (each monitor reconnect is one).
    pub fn sessions(&self) -> u64 {
        self.sessions.load(Ordering::SeqCst)
    }

    /// Sessions that were killed by the script (vs. ran clean).
    pub fn cuts(&self) -> u64 {
        self.cuts.load(Ordering::SeqCst)
    }

    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FlakyLinkProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Shuttle bytes both ways until the budget is spent (returns `true`: the
/// session was cut) or a side closes (`false`). Single-threaded
/// nonblocking loop — sessions are sequential on the proxy thread, which
/// is exactly what a scripted schedule wants.
fn run_proxy_session(
    client: TcpStream,
    upstream: SocketAddr,
    budget: Option<usize>,
    stop: &AtomicBool,
) -> bool {
    let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_millis(1_000)) else {
        return false;
    };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    if client.set_nonblocking(true).is_err() || server.set_nonblocking(true).is_err() {
        return false;
    }
    let mut forwarded = 0usize;
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            return false;
        }
        let mut moved = false;
        for (from, to) in [(&client, &server), (&server, &client)] {
            // Cap the read so the cut lands exactly on the budget byte —
            // mid-frame whenever the budget says so.
            let window = budget.map_or(buf.len(), |b| (b - forwarded).min(buf.len()));
            match std::io::Read::read(&mut { from }, &mut buf[..window.max(1)]) {
                Ok(0) => return false,
                Ok(n) => {
                    moved = true;
                    forwarded += n;
                    if std::io::Write::write_all(&mut { to }, &buf[..n]).is_err() {
                        return false;
                    }
                    if budget.is_some_and(|b| forwarded >= b) {
                        let _ = client.shutdown(std::net::Shutdown::Both);
                        let _ = server.shutdown(std::net::Shutdown::Both);
                        return true;
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => return false,
            }
        }
        if !moved {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinks::{FramedTcpSink, Sink, WebhookSink};
    use monilog_model::DeliveryClass;

    fn report(id: u64) -> BufferedReport {
        BufferedReport {
            id,
            class: DeliveryClass::Page,
            body: format!("{{\"id\":{id},\"detector\":\"test\"}}"),
        }
    }

    #[test]
    fn flaky_framed_server_follows_its_script_then_recovers() {
        let server = FlakySinkServer::spawn(
            "127.0.0.1:0",
            SinkProtocol::Framed,
            vec![
                SinkFault::Refuse,
                SinkFault::ResetMidFrame,
                SinkFault::Http429, // framed mode: read, never ack
            ],
        )
        .unwrap();
        let mut sink = FramedTcpSink::new(server.addr().to_string())
            .with_timeouts(Duration::from_millis(300), Duration::from_millis(300));
        // Scripted faults: three retryable failures in a row.
        for attempt in 0..3 {
            let err = sink.deliver(&[report(1)]).unwrap_err();
            assert!(err.is_retryable(), "attempt {attempt}: {err}");
        }
        // Script exhausted → healthy: same batch goes through.
        sink.deliver(&[report(1), report(2)]).unwrap();
        assert_eq!(server.delivered_ids(), vec![1, 2]);
        // Re-delivery is absorbed by receiver-side dedup.
        drop(sink);
        let mut sink2 = FramedTcpSink::new(server.addr().to_string())
            .with_timeouts(Duration::from_millis(300), Duration::from_millis(300));
        sink2.deliver(&[report(2), report(3)]).unwrap();
        assert_eq!(server.delivered_ids(), vec![1, 2, 3]);
        assert_eq!(server.duplicate_acks(), 1);
        assert!(server.connections() >= 5);
    }

    #[test]
    fn flaky_framed_server_hang_times_out_the_client() {
        let server =
            FlakySinkServer::spawn("127.0.0.1:0", SinkProtocol::Framed, vec![SinkFault::Hang])
                .unwrap();
        let mut sink = FramedTcpSink::new(server.addr().to_string())
            .with_timeouts(Duration::from_millis(200), Duration::from_millis(200));
        let start = std::time::Instant::now();
        let err = sink.deliver(&[report(9)]).unwrap_err();
        assert!(err.is_retryable(), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "write/read timeout bounded the hang"
        );
        assert!(server.delivered_ids().is_empty());
    }

    #[test]
    fn flaky_http_server_scripts_status_codes_and_serves_healthz() {
        let server = FlakySinkServer::spawn(
            "127.0.0.1:0",
            SinkProtocol::Http,
            vec![SinkFault::Http429, SinkFault::Http500, SinkFault::Healthy],
        )
        .unwrap();
        let url = format!("http://{}/hooks", server.addr());
        let mut sink = WebhookSink::from_url(&url)
            .unwrap()
            .with_timeouts(Duration::from_millis(300), Duration::from_millis(300));
        for _ in 0..2 {
            let err = sink.deliver(&[report(11)]).unwrap_err();
            assert!(err.is_retryable(), "{err}");
        }
        assert!(server.delivered_ids().is_empty(), "429/500 record nothing");
        sink.deliver(&[report(11), report(12)]).unwrap();
        assert_eq!(server.delivered_ids(), vec![11, 12]);
        // Healthcheck convention: GET /healthz answers 200.
        sink.healthcheck().unwrap();
    }

    #[test]
    fn flaky_source_clients_contribute_zero_lines_while_a_sane_client_gets_through() {
        use crate::observe::MetricsRegistry;
        use crate::sources::{SourcesConfig, SourcesServer};

        let registry = MetricsRegistry::shared();
        let (server, queue) = SourcesServer::spawn(
            SourcesConfig {
                syslog_tcp: Some("127.0.0.1:0".parse().unwrap()),
                ..SourcesConfig::default()
            },
            Arc::clone(&registry),
            None,
            None,
        )
        .unwrap();
        let addr = server.syslog_tcp_addr().unwrap();

        let chaos = FlakySourceClient::spawn(
            addr,
            vec![
                SourceFault::SlowLoris {
                    prefix: "<13>torn slow frame with no newline".into(),
                    byte_delay: Duration::from_millis(1),
                },
                SourceFault::ResetMidFrame {
                    partial: "<13>octet frame cut short".into(),
                },
                SourceFault::ReconnectStorm { connects: 8 },
                SourceFault::IdleHold {
                    hold: Duration::from_millis(50),
                },
            ],
        );

        // A well-behaved client rides alongside the abuse.
        let mut sane = TcpStream::connect(addr).unwrap();
        sane.write_all(b"<14>healthy line one\n<14>healthy line two\n")
            .unwrap();
        drop(sane);

        let stats = chaos.join();
        assert!(stats.connections >= 11, "{stats:?}");
        assert!(stats.bytes_sent > 0);

        let mut lines = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while lines.len() < 2 && std::time::Instant::now() < deadline {
            lines.extend(
                queue
                    .recv_batch(16, Duration::from_millis(50))
                    .into_iter()
                    .map(|ev| ev.line),
            );
        }
        assert_eq!(
            lines,
            vec![
                "healthy line one".to_string(),
                "healthy line two".to_string()
            ],
            "torn chaos frames must never surface as lines"
        );
        // Nothing further trickles in from the chaos connections.
        assert!(queue.recv_batch(16, Duration::from_millis(200)).is_empty());
        drop(server);
        let m = registry.counters();
        assert_eq!(m.sources_lines.load(Ordering::SeqCst), 2);
        assert!(
            m.sources_frame_errors.load(Ordering::SeqCst) >= 2,
            "torn frames counted"
        );
        assert!(m.sources_disconnects.load(Ordering::SeqCst) >= 11);
    }

    #[test]
    fn shutdown_returns_the_ledger_for_cross_restart_assertions() {
        let server = FlakySinkServer::spawn("127.0.0.1:0", SinkProtocol::Framed, vec![]).unwrap();
        let mut sink = FramedTcpSink::new(server.addr().to_string())
            .with_timeouts(Duration::from_millis(300), Duration::from_millis(300));
        sink.deliver(&[report(5)]).unwrap();
        drop(sink);
        let delivered = server.shutdown();
        assert_eq!(delivered, vec![5]);
    }

    #[test]
    fn shutdown_stops_open_connections_before_returning_the_ledger() {
        let server = FlakySinkServer::spawn("127.0.0.1:0", SinkProtocol::Framed, vec![]).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut ack = [0u8; 8];
        sinks::write_frame(&mut conn, &sinks::encode_report_payload(&report(1))).unwrap();
        conn.read_exact(&mut ack).unwrap();
        assert_eq!(server.shutdown(), vec![1]);
        // The ledger is final: the open connection records and acks nothing.
        let _ = sinks::write_frame(&mut conn, &sinks::encode_report_payload(&report(2)));
        assert!(
            conn.read_exact(&mut ack).is_err(),
            "a frame was acked after shutdown"
        );
    }
}
