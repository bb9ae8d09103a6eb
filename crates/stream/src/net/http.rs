//! The HTTP/1.1 layer under `POST /ingest` and the ops listener.
//!
//! One head parser ([`parse_head`]), one response writer ([`Response`])
//! and one connection state machine ([`HttpConn`]) that walks every
//! request through the same phases:
//!
//! head → body by `Content-Length` → (discard a refused body) → write →
//! bounded straggler drain → close.
//!
//! What differs between endpoints is a [`Service`]: its limits (head cap,
//! deadlines) and what it answers. Every response carries
//! `Connection: close`, so one connection serves one request; chunked
//! request bodies are refused with 411.

use super::{Handler, Interest, LoopCtx, Next};
use monilog_model::trace::json_string;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Bytes read per `read(2)`.
const READ_CHUNK: usize = 16 * 1024;

/// Cap on bytes discarded after the response is queued. Closing with
/// unread bytes in the receive buffer makes the kernel RST the connection,
/// which can destroy the response before the client reads it.
const DRAIN_CAP: usize = 64 * 1024;

/// A parsed request head.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Head {
    pub method: String,
    pub path: String,
    /// 0 when the header is absent.
    pub content_length: usize,
    /// Raw header value, empty when absent.
    pub content_type: String,
    /// Raw header value, empty when absent.
    pub content_encoding: String,
}

/// Why a request was refused before any service saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpError {
    /// No blank line within the service's head cap.
    HeadTooLarge,
    /// Not `METHOD /path ...`, or not UTF-8.
    Malformed,
    /// `Content-Length` unparsable, or repeated with different values.
    BadContentLength,
    /// A `Transfer-Encoding` header: only `Content-Length` bodies are read.
    TransferCoded,
    /// The request did not arrive within the service's deadline.
    Timeout,
}

impl HttpError {
    pub fn status(self) -> &'static str {
        match self {
            HttpError::TransferCoded => "411 Length Required",
            HttpError::Timeout => "408 Request Timeout",
            _ => "400 Bad Request",
        }
    }

    pub fn message(self) -> &'static str {
        match self {
            HttpError::HeadTooLarge => "request head too large",
            HttpError::Malformed => "malformed request line",
            HttpError::BadContentLength => "invalid content-length",
            HttpError::TransferCoded => "transfer-encoding is not supported, send content-length",
            HttpError::Timeout => "request timed out",
        }
    }
}

/// Parse a request head from the front of `buf`. `Ok(None)` means the
/// blank line has not arrived yet; on success the head's byte length comes
/// back with it. Looks at no more than `cap` bytes and allocates only
/// copies of what it returns, so both are bounded by `cap`.
pub fn parse_head(buf: &[u8], cap: usize) -> Result<Option<(Head, usize)>, HttpError> {
    let scan = &buf[..buf.len().min(cap)];
    // The first blank line ends the head; `\n\n` and `\n\r\n` both count.
    let end = scan.iter().enumerate().find_map(|(i, &b)| {
        if b != b'\n' {
            return None;
        }
        match &scan[i + 1..] {
            [b'\n', ..] => Some(i + 2),
            [b'\r', b'\n', ..] => Some(i + 3),
            _ => None,
        }
    });
    let Some(end) = end else {
        return if buf.len() >= cap {
            Err(HttpError::HeadTooLarge)
        } else {
            Ok(None)
        };
    };
    let text = std::str::from_utf8(&buf[..end]).map_err(|_| HttpError::Malformed)?;
    let mut lines = text.lines();
    let mut request_line = lines.next().unwrap_or("").split_whitespace();
    let (Some(method), Some(path)) = (request_line.next(), request_line.next()) else {
        return Err(HttpError::Malformed);
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) || !path.starts_with('/') {
        return Err(HttpError::Malformed);
    }
    let mut head = Head {
        method: method.to_string(),
        path: path.to_string(),
        content_length: 0,
        content_type: String::new(),
        content_encoding: String::new(),
    };
    let mut length: Option<Result<usize, ()>> = None;
    let mut transfer_coded = false;
    for (name, value) in lines.filter_map(|l| l.split_once(':')) {
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            let parsed = match value.bytes().all(|b| b.is_ascii_digit()) {
                true => value.parse::<usize>().map_err(|_| ()),
                false => Err(()),
            };
            length = match length {
                Some(earlier) if earlier != parsed => Some(Err(())),
                _ => Some(parsed),
            };
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            transfer_coded = true;
        } else if name.eq_ignore_ascii_case("content-type") {
            head.content_type = value.to_string();
        } else if name.eq_ignore_ascii_case("content-encoding") {
            head.content_encoding = value.to_string();
        }
    }
    if transfer_coded {
        return Err(HttpError::TransferCoded);
    }
    head.content_length = match length {
        Some(Ok(n)) => n,
        Some(Err(())) => return Err(HttpError::BadContentLength),
        None => 0,
    };
    Ok(Some((head, end)))
}

/// One response; always `Connection: close`.
#[derive(Debug)]
pub struct Response {
    pub status: &'static str,
    pub content_type: &'static str,
    /// Extra header lines, each ending in `\r\n`.
    pub extra_headers: &'static str,
    pub body: String,
}

impl Response {
    pub fn new(status: &'static str, content_type: &'static str, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type,
            extra_headers: "",
            body: body.into(),
        }
    }

    pub fn json(status: &'static str, body: impl Into<String>) -> Self {
        Response::new(status, "application/json", body)
    }

    /// `{"error":<message>}` as JSON.
    pub fn error(status: &'static str, message: &str) -> Self {
        Response::json(status, format!("{{\"error\":{}}}\n", json_string(message)))
    }

    pub fn into_bytes(self) -> Vec<u8> {
        format!(
            "HTTP/1.1 {}\r\nContent-Type: {}\r\n{}Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.status,
            self.content_type,
            self.extra_headers,
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

/// Limits of one service.
pub struct Limits {
    /// Largest request head, blank line included.
    pub head_bytes: usize,
    /// Bounds receiving the request (head and body), from accept.
    pub request_deadline: Duration,
    /// Bounds flushing the response, from the moment it is queued.
    pub write_deadline: Duration,
}

/// What a service does with a complete head.
pub enum Admit {
    /// Read `content_length` body bytes and pass them to [`Service::body`].
    Body,
    /// Answer this once the body (if any) has been read and discarded.
    Reply(Response),
}

/// One connection's worth of an HTTP endpoint.
pub trait Service: Send + 'static {
    const LIMITS: Limits;

    fn head(&mut self, head: Head) -> Admit;

    /// The complete body, moved in. `None` holds the connection until
    /// [`Service::wake`] answers; no deadline applies meanwhile.
    fn body(&mut self, body: Vec<u8>) -> Option<Response>;

    /// The loop's waker fired while this request was held.
    fn wake(&mut self) -> Option<Response> {
        None
    }

    /// The answer to a request the layer refused.
    fn refuse(&mut self, err: HttpError) -> Response;

    /// The connection is closing.
    fn closed(&mut self) {}
}

enum Phase {
    Head,
    Body {
        remaining: usize,
    },
    /// Dropping a refused body; the answer waits in `out`.
    Discard {
        remaining: usize,
    },
    /// The service holds an admitted request (see [`Service::body`]).
    Held,
    Write {
        since: Instant,
    },
    /// Closed; the loop drops the handler at the end of this round, which
    /// may still tick it.
    Done,
}

/// One non-blocking HTTP connection on the event loop.
pub struct HttpConn<S> {
    conn: TcpStream,
    service: S,
    phase: Phase,
    /// The head while it accumulates, then the body.
    buf: Vec<u8>,
    out: Vec<u8>,
    opened: Instant,
    drained: usize,
}

impl<S: Service> HttpConn<S> {
    pub fn new(conn: TcpStream, service: S) -> Self {
        HttpConn {
            conn,
            service,
            phase: Phase::Head,
            buf: Vec::new(),
            out: Vec::new(),
            opened: Instant::now(),
            drained: 0,
        }
    }

    fn close(&mut self) -> Next {
        if !matches!(self.phase, Phase::Done) {
            self.service.closed();
            self.phase = Phase::Done;
        }
        Next::Close
    }

    fn respond(&mut self, response: Response, now: Instant) {
        self.buf = Vec::new();
        self.out = response.into_bytes();
        self.phase = Phase::Write { since: now };
    }

    fn on_head(&mut self, now: Instant) {
        let (head, len) = match parse_head(&self.buf, S::LIMITS.head_bytes) {
            Ok(None) => return,
            Ok(Some(parsed)) => parsed,
            Err(e) => {
                let response = self.service.refuse(e);
                return self.respond(response, now);
            }
        };
        self.buf.drain(..len);
        let length = head.content_length;
        match self.service.head(head) {
            Admit::Reply(response) => {
                let remaining = length.saturating_sub(self.buf.len());
                self.respond(response, now);
                if remaining > 0 {
                    self.phase = Phase::Discard { remaining };
                }
            }
            Admit::Body if self.buf.len() >= length => {
                self.buf.truncate(length);
                self.on_body(now);
            }
            Admit::Body => {
                let remaining = length - self.buf.len();
                self.phase = Phase::Body { remaining };
            }
        }
    }

    fn on_body(&mut self, now: Instant) {
        let body = std::mem::take(&mut self.buf);
        match self.service.body(body) {
            Some(response) => self.respond(response, now),
            None => self.phase = Phase::Held,
        }
    }

    /// Read what the socket holds for the current phase; `Err` closes.
    fn pump_read(&mut self, now: Instant) -> Result<(), ()> {
        let mut chunk = [0u8; READ_CHUNK];
        while !matches!(self.phase, Phase::Held | Phase::Done) {
            let n = match self.conn.read(&mut chunk) {
                // EOF before the request completed: nothing to answer.
                // After the response is queued: keep flushing it.
                Ok(0) if matches!(self.phase, Phase::Write { .. }) => return Ok(()),
                Ok(0) => return Err(()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            };
            match &mut self.phase {
                Phase::Head => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.on_head(now);
                }
                Phase::Body { remaining } => {
                    let take = n.min(*remaining);
                    self.buf.extend_from_slice(&chunk[..take]);
                    *remaining -= take;
                    if *remaining == 0 {
                        self.on_body(now);
                    }
                }
                Phase::Discard { remaining } => {
                    *remaining = remaining.saturating_sub(n);
                    if *remaining == 0 {
                        self.phase = Phase::Write { since: now };
                    }
                }
                Phase::Write { .. } => {
                    self.drained += n;
                    if self.drained > DRAIN_CAP {
                        return Err(());
                    }
                }
                Phase::Held | Phase::Done => {}
            }
        }
        Ok(())
    }

    /// Flush the queued response; once it is out, drain stragglers so the
    /// close sends FIN rather than RST, and close.
    fn flush(&mut self, now: Instant) -> Next {
        while !self.out.is_empty() {
            match self.conn.write(&self.out) {
                Ok(0) => return self.close(),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Next::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.close(),
            }
        }
        let _ = self.pump_read(now);
        self.close()
    }
}

impl<S: Service> Handler for HttpConn<S> {
    fn ready(&mut self, readable: bool, _writable: bool, ctx: &mut LoopCtx<'_>) -> Next {
        if readable && self.pump_read(ctx.now).is_err() {
            return self.close();
        }
        match self.phase {
            Phase::Write { .. } => self.flush(ctx.now),
            _ => Next::Keep,
        }
    }

    fn tick(&mut self, now: Instant, _ctx: &mut LoopCtx<'_>) -> Next {
        let late = now.duration_since(self.opened) >= S::LIMITS.request_deadline;
        match self.phase {
            Phase::Write { since } => match self.flush(now) {
                Next::Keep if now.duration_since(since) >= S::LIMITS.write_deadline => self.close(),
                next => next,
            },
            Phase::Head | Phase::Body { .. } if late => {
                let response = self.service.refuse(HttpError::Timeout);
                self.respond(response, now);
                self.flush(now)
            }
            // A refused body that never finished arriving still gets the
            // refusal it earned.
            Phase::Discard { .. } if late => {
                self.phase = Phase::Write { since: now };
                self.flush(now)
            }
            Phase::Done => Next::Close,
            _ => Next::Keep,
        }
    }

    fn wake(&mut self, ctx: &mut LoopCtx<'_>) -> Next {
        if !matches!(self.phase, Phase::Held) {
            return Next::Keep;
        }
        match self.service.wake() {
            Some(response) => {
                self.respond(response, ctx.now);
                self.flush(ctx.now)
            }
            None => Next::Keep,
        }
    }

    fn interest(&self) -> Interest {
        Interest {
            read: !matches!(self.phase, Phase::Held | Phase::Done),
            write: matches!(self.phase, Phase::Write { .. }) && !self.out.is_empty(),
        }
    }
}

/// A blocking client for tests: one request per connection, response read
/// to EOF. Also drives a single handler by hand, one read at a time.
#[cfg(test)]
pub(crate) mod client {
    use crate::net::{Handler, LoopCtx};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    /// Run `f` with a context outside any loop, for driving one handler's
    /// callbacks by hand (registrations it makes are dropped).
    pub(crate) fn with_ctx<R>(now: Instant, f: impl FnOnce(&mut LoopCtx<'_>) -> R) -> R {
        f(&mut LoopCtx {
            adds: &mut Vec::new(),
            now,
        })
    }

    /// Send `request` as is; return the whole response.
    pub(crate) fn send(addr: SocketAddr, request: &[u8]) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.write_all(request).expect("send request");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read response");
        response
    }

    pub(crate) fn get(addr: SocketAddr, path: &str) -> String {
        send(
            addr,
            format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
        )
    }

    /// `headers` are whole lines (`Name: value\r\n`); `Content-Length` is
    /// added.
    pub(crate) fn post(addr: SocketAddr, path: &str, headers: &str, body: &[u8]) -> String {
        let mut request = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\n{headers}Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);
        send(addr, &request)
    }

    /// Split a response into head and body at the blank line.
    pub(crate) fn split(response: &str) -> (&str, &str) {
        response
            .split_once("\r\n\r\n")
            .expect("header/body separator")
    }

    /// A connected pair: the non-blocking server half, and the client half.
    pub(crate) fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (server, client)
    }

    /// Send `bytes` from `client`, wait until all of them sit in
    /// `server`'s receive buffer, then give `handler` one `ready`: the
    /// bytes arrive as one read.
    pub(crate) fn deliver(
        handler: &mut dyn Handler,
        client: &mut TcpStream,
        server: &TcpStream,
        bytes: &[u8],
    ) {
        client.write_all(bytes).unwrap();
        let mut probe = vec![0u8; bytes.len()];
        while !matches!(server.peek(&mut probe), Ok(n) if n == bytes.len()) {
            std::thread::yield_now();
        }
        with_ctx(Instant::now(), |ctx| handler.ready(true, true, ctx));
    }

    /// What the client received, once the server half is closed.
    pub(crate) fn response(mut client: TcpStream) -> String {
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut response = Vec::new();
        let _ = client.read_to_end(&mut response);
        String::from_utf8_lossy(&response).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::client::with_ctx;
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const CAP: usize = 256;

    /// Answers `method path body-length body`; refusals as `status: message`.
    struct Echo {
        head: Head,
        closes: usize,
    }

    impl Service for Echo {
        const LIMITS: Limits = Limits {
            head_bytes: CAP,
            request_deadline: Duration::from_secs(1),
            write_deadline: Duration::from_secs(1),
        };

        fn head(&mut self, head: Head) -> Admit {
            if head.method == "DELETE" {
                return Admit::Reply(Response::new("405 Method Not Allowed", "text/plain", ""));
            }
            self.head = head;
            Admit::Body
        }

        fn body(&mut self, body: Vec<u8>) -> Option<Response> {
            let h = &self.head;
            let text = format!(
                "{} {} {} {}",
                h.method,
                h.path,
                body.len(),
                String::from_utf8_lossy(&body)
            );
            Some(Response::new("200 OK", "text/plain", text))
        }

        fn refuse(&mut self, err: HttpError) -> Response {
            Response::new(err.status(), "text/plain", err.message())
        }

        fn closed(&mut self) {
            self.closes += 1;
        }
    }

    /// Bytes from a small vocabulary of request fragments, so that heads
    /// that almost parse come up often.
    fn request_like() -> impl Strategy<Value = Vec<u8>> {
        const TOKENS: &[&str] = &[
            "GET",
            "POST",
            "get",
            " ",
            "/",
            "/ingest",
            "HTTP/1.1",
            "\r\n",
            "\n",
            "\r",
            ":",
            "Content-Length",
            "content-length: 5",
            "Content-Length: 99999999999999999999999",
            "Transfer-Encoding: chunked",
            "Content-Type: application/json",
            "12",
            "x",
            "\u{e9}",
        ];
        vec(0..TOKENS.len(), 0..48)
            .prop_map(|picks| picks.iter().flat_map(|&i| TOKENS[i].bytes()).collect())
    }

    fn check_bounded(buf: &[u8]) {
        let parsed = parse_head(buf, CAP);
        // Nothing past the cap is looked at.
        assert_eq!(parsed, parse_head(&buf[..buf.len().min(CAP)], CAP));
        if let Ok(Some((head, len))) = parsed {
            assert!(len <= CAP, "head of {len} bytes past the {CAP}-byte cap");
            let held = head.method.capacity()
                + head.path.capacity()
                + head.content_type.capacity()
                + head.content_encoding.capacity();
            assert!(held <= len, "{held} bytes allocated for a {len}-byte head");
        }
    }

    proptest! {
        /// Arbitrary bytes never panic the parser, and what it keeps is
        /// bounded by the head, which is bounded by the cap.
        #[test]
        fn parse_head_is_total_and_bounded(bytes in vec(any::<u8>(), 0..3 * CAP)) {
            check_bounded(&bytes);
        }

        #[test]
        fn parse_head_is_total_and_bounded_on_request_like_bytes(bytes in request_like()) {
            check_bounded(&bytes);
        }
    }

    #[test]
    fn parse_head_reads_the_fields_and_refuses_what_it_cannot_frame() {
        let req = b"POST /ingest HTTP/1.1\r\ncontent-length: 3\r\nContent-Type: a/b\r\n\
                    Content-Encoding: gzip\r\n\r\nabc";
        let (head, len) = parse_head(req, CAP).unwrap().unwrap();
        assert_eq!(len, req.len() - 3);
        assert_eq!(
            head,
            Head {
                method: "POST".into(),
                path: "/ingest".into(),
                content_length: 3,
                content_type: "a/b".into(),
                content_encoding: "gzip".into(),
            }
        );
        assert_eq!(parse_head(b"GET / HTTP/1.1\r\nHost: t\r\n", CAP), Ok(None));
        let repeated = b"GET / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\n";
        assert_eq!(
            parse_head(repeated, CAP).unwrap().unwrap().0.content_length,
            4
        );
        assert_eq!(
            parse_head(b"GET / HTTP/1.1\n\n", CAP).unwrap().unwrap().1,
            16
        );
        for (bad, err) in [
            (
                &b"GET / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\n"[..],
                HttpError::BadContentLength,
            ),
            (
                b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
                HttpError::BadContentLength,
            ),
            (
                b"GET / HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n",
                HttpError::BadContentLength,
            ),
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                HttpError::TransferCoded,
            ),
            (b"get / HTTP/1.1\r\n\r\n", HttpError::Malformed),
            (b"GET nope HTTP/1.1\r\n\r\n", HttpError::Malformed),
            (b"\xff / HTTP/1.1\r\n\r\n", HttpError::Malformed),
            (&[b'a'; CAP][..], HttpError::HeadTooLarge),
        ] {
            assert_eq!(
                parse_head(bad, CAP),
                Err(err),
                "{}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    fn echo(server: &TcpStream) -> HttpConn<Echo> {
        let echo = Echo {
            head: Head::default(),
            closes: 0,
        };
        HttpConn::new(server.try_clone().unwrap(), echo)
    }

    /// The request in two reads, split at `at`; returns the response.
    fn torn(request: &[u8], at: usize) -> String {
        let (server, mut client) = client::socket_pair();
        let mut conn = echo(&server);
        for part in [&request[..at], &request[at..]] {
            if !part.is_empty() {
                client::deliver(&mut conn, &mut client, &server, part);
            }
        }
        drop((conn, server));
        client::response(client)
    }

    #[test]
    fn a_request_torn_at_any_byte_gets_the_same_response() {
        let oversized = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(CAP));
        let table: [&[u8]; 9] = [
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
            b"POST /ingest HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello\nworld",
            b"POST /x HTTP/1.1\nContent-Length: 2\n\nok",
            b"DELETE /reports/5 HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody",
            b"POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
            b"POST /ingest HTTP/1.1\r\nContent-Length: 12x\r\n\r\nline\n",
            b"\x00\x01\x02 garbage\r\n\r\n",
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
            oversized.as_bytes(),
        ];
        for request in table {
            let whole = torn(request, request.len());
            assert!(whole.starts_with("HTTP/1.1 "), "{whole:?}");
            for at in 1..request.len() {
                assert_eq!(
                    torn(request, at),
                    whole,
                    "split at {at} of {:?}",
                    String::from_utf8_lossy(request)
                );
            }
        }
    }

    #[test]
    fn the_request_deadline_answers_408_and_a_refused_body_keeps_its_refusal() {
        // Half a head at the deadline: 408.
        let (server, mut client) = client::socket_pair();
        let mut conn = echo(&server);
        let late = Instant::now() + Echo::LIMITS.request_deadline;
        client::deliver(&mut conn, &mut client, &server, b"GET /slow HTT");
        assert_eq!(with_ctx(late, |ctx| conn.tick(late, ctx)), Next::Close);
        drop((conn, server));
        let response = client::response(client);
        assert!(
            response.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "{response}"
        );

        // Half a refused body at the deadline: the refusal, not a 408.
        let (server, mut client) = client::socket_pair();
        let mut conn = echo(&server);
        let late = Instant::now() + Echo::LIMITS.request_deadline;
        let request = b"DELETE / HTTP/1.1\r\nContent-Length: 9\r\n\r\nab";
        client::deliver(&mut conn, &mut client, &server, request);
        assert_eq!(with_ctx(late, |ctx| conn.tick(late, ctx)), Next::Close);
        drop((conn, server));
        let response = client::response(client);
        assert!(
            response.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
            "{response}"
        );
    }

    /// The loop ticks every handler before it drops the ones closed in
    /// that round; the close must still be counted once.
    #[test]
    fn a_connection_closed_mid_round_counts_its_close_once() {
        let (server, mut client) = client::socket_pair();
        let mut conn = echo(&server);
        client::deliver(&mut conn, &mut client, &server, b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(conn.service.closes, 1);
        let now = Instant::now();
        assert_eq!(with_ctx(now, |ctx| conn.tick(now, ctx)), Next::Close);
        assert_eq!(conn.service.closes, 1);
    }
}
