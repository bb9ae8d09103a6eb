//! A minimal readiness-based event loop shared by every network endpoint in
//! the stream layer: the syslog/HTTP ingest sources and the
//! [`MetricsExporter`](crate::export::MetricsExporter).
//!
//! One thread owns an epoll instance plus a registration table of
//! [`Handler`]s. Each handler wraps one non-blocking fd (a listener, an
//! accepted connection, a UDP socket) or no fd at all (timer-only handlers,
//! used by the file tailer). The loop dispatches readiness to handlers,
//! re-arms interest after every callback, and fires a coarse periodic tick so
//! handlers can enforce idle timeouts and deadlines without per-connection
//! timers. Another thread can interrupt the wait through a [`LoopWaker`]:
//! the loop then calls [`Handler::wake`] on every handler, which is how a
//! source paused on a full queue resumes as soon as the consumer has made
//! room instead of on the next tick.
//!
//! The design goal is the smallest loop that removes head-of-line blocking:
//! no futures, level-triggered epoll only. On non-Linux platforms a timed
//! sweep poller keeps everything compiling and functional (handlers already
//! tolerate spurious readiness because epoll is level-triggered).

pub(crate) mod http;
pub mod sys;

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(unix)]
pub type Fd = std::os::unix::io::RawFd;
#[cfg(not(unix))]
pub type Fd = i64;

/// Cross-platform fd extraction for loop registration. On non-unix targets
/// the sweep poller never inspects the fd, so a dummy value suffices.
pub trait AsLoopFd {
    fn loop_fd(&self) -> Fd;
}

#[cfg(unix)]
impl<T: std::os::unix::io::AsRawFd> AsLoopFd for T {
    fn loop_fd(&self) -> Fd {
        self.as_raw_fd()
    }
}

#[cfg(not(unix))]
impl<T> AsLoopFd for T {
    fn loop_fd(&self) -> Fd {
        0
    }
}

/// Readiness interest for a registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub read: bool,
    pub write: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

/// What the loop should do with a handler after a callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Keep the registration; interest is re-queried via [`Handler::interest`].
    Keep,
    /// Deregister and drop the handler (dropping closes its socket).
    Close,
}

/// Passed into handler callbacks; lets a handler register new fds (a
/// listener registering an accepted connection) without aliasing the loop's
/// registration table mid-dispatch.
pub struct LoopCtx<'a> {
    adds: &'a mut Vec<Registration>,
    pub now: Instant,
}

impl LoopCtx<'_> {
    /// Register a new fd-backed handler; it joins the loop after the current
    /// dispatch round.
    pub fn register(&mut self, fd: Fd, handler: Box<dyn Handler>) {
        self.adds.push(Registration {
            fd: Some(fd),
            handler,
        });
    }

    /// Register a handler with no fd; it only receives `tick` callbacks.
    pub fn register_timer(&mut self, handler: Box<dyn Handler>) {
        self.adds.push(Registration { fd: None, handler });
    }
}

/// One endpoint on the loop. Handlers own their socket: the fd passed at
/// registration must stay open for as long as the handler is registered
/// (the loop deregisters the fd *before* dropping the handler).
pub trait Handler: Send {
    /// The fd is ready. Level-triggered: do as much non-blocking work as
    /// possible, then return. `readable`/`writable` may both be set.
    fn ready(&mut self, readable: bool, writable: bool, ctx: &mut LoopCtx<'_>) -> Next;

    /// Periodic callback (roughly every [`EventLoop::TICK`]); enforce idle
    /// timeouts and deadlines here.
    fn tick(&mut self, _now: Instant, _ctx: &mut LoopCtx<'_>) -> Next {
        Next::Keep
    }

    /// A [`LoopWaker`] fired: whatever this handler was holding back for
    /// another thread (lines a full queue refused) may fit now. Sent to
    /// every handler, so it must be cheap when there is nothing held.
    fn wake(&mut self, _ctx: &mut LoopCtx<'_>) -> Next {
        Next::Keep
    }

    /// Current interest, re-queried after every callback to re-arm epoll.
    fn interest(&self) -> Interest {
        Interest::READ
    }
}

struct Registration {
    fd: Option<Fd>,
    handler: Box<dyn Handler>,
}

struct Entry {
    fd: Option<Fd>,
    handler: Box<dyn Handler>,
    armed: Interest,
}

/// Platform poller: epoll on Linux, timed sweep elsewhere.
enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(sys::Epoll),
    /// Fallback: report every registered fd as ready at each timeout expiry.
    /// Correct (handlers tolerate spurious readiness) but O(n) per sweep.
    Sweep(HashMap<u64, Interest>),
}

impl Poller {
    fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            return Ok(Poller::Epoll(sys::Epoll::new()?));
        }
        #[allow(unreachable_code)]
        Ok(Poller::Sweep(HashMap::new()))
    }

    fn events_for(interest: Interest) -> u32 {
        #[cfg(target_os = "linux")]
        {
            let mut ev = sys::EPOLLRDHUP;
            if interest.read {
                ev |= sys::EPOLLIN;
            }
            if interest.write {
                ev |= sys::EPOLLOUT;
            }
            return ev;
        }
        #[allow(unreachable_code)]
        {
            let _ = interest;
            0
        }
    }

    fn add(&mut self, fd: Fd, interest: Interest, token: u64) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.add(fd, Self::events_for(interest), token),
            Poller::Sweep(map) => {
                let _ = fd;
                map.insert(token, interest);
                Ok(())
            }
        }
    }

    fn modify(&mut self, fd: Fd, interest: Interest, token: u64) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.modify(fd, Self::events_for(interest), token),
            Poller::Sweep(map) => {
                let _ = fd;
                map.insert(token, interest);
                Ok(())
            }
        }
    }

    fn delete(&mut self, fd: Fd, token: u64) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.delete(fd),
            Poller::Sweep(map) => {
                let _ = fd;
                map.remove(&token);
                Ok(())
            }
        }
    }

    /// Collect `(token, readable, writable)` triples.
    fn wait(&mut self, out: &mut Vec<(u64, bool, bool)>, timeout: Duration) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => {
                let mut raw = Vec::new();
                let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
                ep.wait(&mut raw, ms)?;
                for (token, events) in raw {
                    let err = events & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
                    // Surface errors/hangups as readability so handlers see
                    // the EOF/error from their next read().
                    let readable = events & sys::EPOLLIN != 0 || err;
                    let writable = events & sys::EPOLLOUT != 0 || err;
                    out.push((token, readable, writable));
                }
                Ok(())
            }
            Poller::Sweep(map) => {
                std::thread::sleep(timeout.min(Duration::from_millis(5)));
                for (&token, &interest) in map.iter() {
                    if interest.read || interest.write {
                        out.push((token, interest.read, interest.write));
                    }
                }
                Ok(())
            }
        }
    }
}

/// Handle another thread uses to make the loop call [`Handler::wake`] on
/// every handler, at once rather than on the next tick.
pub struct LoopWaker {
    woken: Arc<AtomicBool>,
    /// Write end of the socket pair whose read end sits on the loop: one
    /// byte ends the poller's wait. (The sweep poller needs no byte; it
    /// looks at `woken` every 5 ms.)
    #[cfg(unix)]
    tx: std::os::unix::net::UnixStream,
}

impl LoopWaker {
    pub fn wake(&self) {
        self.woken.store(true, Ordering::SeqCst);
        #[cfg(unix)]
        {
            // A full socket buffer already holds bytes that end the wait.
            let _ = io::Write::write(&mut &self.tx, &[1]);
        }
    }
}

/// Read end of a [`LoopWaker`]'s socket pair: swallows the wake bytes. The
/// loop acts on the `woken` flag, not on this handler.
#[cfg(unix)]
struct WakeDrain(std::os::unix::net::UnixStream);

#[cfg(unix)]
impl Handler for WakeDrain {
    fn ready(&mut self, _r: bool, _w: bool, _ctx: &mut LoopCtx<'_>) -> Next {
        let mut sink = [0u8; 64];
        loop {
            match io::Read::read(&mut self.0, &mut sink) {
                // The waker is gone; its EOF would stay readable forever.
                Ok(0) => return Next::Close,
                Ok(_) => {}
                Err(_) => return Next::Keep,
            }
        }
    }
}

/// Bind a non-blocking listener. std sets `SO_REUSEADDR` on Unix, so a
/// restarting process re-binds an address whose old connections sit in
/// TIME_WAIT; a short exponential backoff rides out a port that is still
/// held by a process on its way out.
fn bind_reusable(addr: SocketAddr) -> io::Result<TcpListener> {
    let mut delay = Duration::from_millis(50);
    let mut attempt = 0;
    loop {
        match TcpListener::bind(addr) {
            Ok(listener) => {
                listener.set_nonblocking(true)?;
                return Ok(listener);
            }
            Err(e) if attempt == 4 => return Err(e),
            Err(_) => {}
        }
        std::thread::sleep(delay);
        delay *= 2;
        attempt += 1;
    }
}

/// Accepts connections and registers the handler `serve` builds for each.
struct Listener<F> {
    listener: TcpListener,
    serve: F,
}

impl<F> Handler for Listener<F>
where
    F: FnMut(TcpStream) -> Box<dyn Handler> + Send,
{
    fn ready(&mut self, _r: bool, _w: bool, ctx: &mut LoopCtx<'_>) -> Next {
        loop {
            match self.listener.accept() {
                Ok((conn, _peer)) => {
                    if conn.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let fd = conn.loop_fd();
                    ctx.register(fd, (self.serve)(conn));
                }
                Err(_) => return Next::Keep,
            }
        }
    }
}

/// The event loop. Build it, register the initial handlers, then hand it to
/// a thread via [`EventLoop::run`].
pub struct EventLoop {
    poller: Poller,
    entries: HashMap<u64, Entry>,
    next_token: u64,
    /// Set by a [`LoopWaker`]; the loop swaps it after every wait.
    woken: Arc<AtomicBool>,
}

impl EventLoop {
    /// Tick cadence: idle-timeout resolution and the upper bound on how long
    /// a stop request can go unnoticed.
    pub const TICK: Duration = Duration::from_millis(50);

    pub fn new() -> io::Result<EventLoop> {
        Ok(EventLoop {
            poller: Poller::new()?,
            entries: HashMap::new(),
            next_token: 1,
            woken: Arc::new(AtomicBool::new(false)),
        })
    }

    /// A waker for this loop. Each call registers one socket pair.
    pub fn waker(&mut self) -> io::Result<LoopWaker> {
        #[cfg(unix)]
        {
            let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            self.register(rx.loop_fd(), Box::new(WakeDrain(rx)))?;
            Ok(LoopWaker {
                woken: self.woken.clone(),
                tx,
            })
        }
        #[cfg(not(unix))]
        Ok(LoopWaker {
            woken: self.woken.clone(),
        })
    }

    /// Register an fd-backed handler. The fd must already be non-blocking.
    pub fn register(&mut self, fd: Fd, handler: Box<dyn Handler>) -> io::Result<u64> {
        let token = self.next_token;
        self.next_token += 1;
        let interest = handler.interest();
        self.poller.add(fd, interest, token)?;
        self.entries.insert(
            token,
            Entry {
                fd: Some(fd),
                handler,
                armed: interest,
            },
        );
        Ok(token)
    }

    /// Register a timer-only handler (no fd; only `tick` fires).
    pub fn register_timer(&mut self, handler: Box<dyn Handler>) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.entries.insert(
            token,
            Entry {
                fd: None,
                handler,
                armed: Interest::NONE,
            },
        );
        token
    }

    /// Bind `addr` and serve every accepted connection with the handler
    /// `serve` builds. Returns the bound address (resolves port 0).
    pub(crate) fn listen<F>(&mut self, addr: SocketAddr, serve: F) -> io::Result<SocketAddr>
    where
        F: FnMut(TcpStream) -> Box<dyn Handler> + Send + 'static,
    {
        let listener = bind_reusable(addr)?;
        let bound = listener.local_addr()?;
        self.register(listener.loop_fd(), Box::new(Listener { listener, serve }))?;
        Ok(bound)
    }

    fn apply(&mut self, token: u64, verdict: Next, closes: &mut Vec<u64>) {
        match verdict {
            Next::Close => closes.push(token),
            Next::Keep => {
                if let Some(entry) = self.entries.get_mut(&token) {
                    let want = entry.handler.interest();
                    if want != entry.armed {
                        if let Some(fd) = entry.fd {
                            // A failed re-arm (fd gone bad) drops the conn.
                            if self.poller.modify(fd, want, token).is_err() {
                                closes.push(token);
                                return;
                            }
                        }
                        entry.armed = want;
                    }
                }
            }
        }
    }

    /// Run `call` on every registered handler (tick and wake rounds).
    fn dispatch_all(
        &mut self,
        now: Instant,
        adds: &mut Vec<Registration>,
        closes: &mut Vec<u64>,
        call: impl Fn(&mut dyn Handler, &mut LoopCtx<'_>) -> Next,
    ) {
        let tokens: Vec<u64> = self.entries.keys().copied().collect();
        for token in tokens {
            let verdict = match self.entries.get_mut(&token) {
                Some(entry) => call(entry.handler.as_mut(), &mut LoopCtx { adds, now }),
                None => continue,
            };
            self.apply(token, verdict, closes);
        }
    }

    fn close_all(&mut self, closes: &mut Vec<u64>) {
        for token in closes.drain(..) {
            if let Some(entry) = self.entries.remove(&token) {
                if let Some(fd) = entry.fd {
                    let _ = self.poller.delete(fd, token);
                }
                // Dropping the handler closes its socket.
            }
        }
    }

    /// Run until `stop` is set. Consumes the loop; registered handlers are
    /// dropped (closing their sockets) on the way out.
    pub fn run(mut self, stop: Arc<AtomicBool>) {
        let mut ready = Vec::new();
        let mut adds: Vec<Registration> = Vec::new();
        let mut closes: Vec<u64> = Vec::new();
        let mut last_tick = Instant::now();

        while !stop.load(Ordering::SeqCst) {
            ready.clear();
            let until_tick = Self::TICK.saturating_sub(last_tick.elapsed());
            if self
                .poller
                .wait(&mut ready, until_tick.max(Duration::from_millis(1)))
                .is_err()
            {
                break;
            }

            for &(token, readable, writable) in ready.iter() {
                let verdict = match self.entries.get_mut(&token) {
                    Some(entry) => {
                        let mut ctx = LoopCtx {
                            adds: &mut adds,
                            now: Instant::now(),
                        };
                        entry.handler.ready(readable, writable, &mut ctx)
                    }
                    None => continue,
                };
                self.apply(token, verdict, &mut closes);
            }

            if self.woken.swap(false, Ordering::SeqCst) {
                self.dispatch_all(Instant::now(), &mut adds, &mut closes, |h, ctx| h.wake(ctx));
            }

            if last_tick.elapsed() >= Self::TICK {
                last_tick = Instant::now();
                self.dispatch_all(last_tick, &mut adds, &mut closes, |h, ctx| {
                    h.tick(last_tick, ctx)
                });
            }

            self.close_all(&mut closes);
            for reg in adds.drain(..) {
                match reg.fd {
                    Some(fd) => {
                        let _ = self.register(fd, reg.handler);
                    }
                    None => {
                        self.register_timer(reg.handler);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    /// Echo server: listener handler accepts and registers per-conn handlers.
    struct EchoListener {
        listener: TcpListener,
        accepted: Arc<AtomicUsize>,
    }

    impl Handler for EchoListener {
        fn ready(&mut self, _r: bool, _w: bool, ctx: &mut LoopCtx<'_>) -> Next {
            loop {
                match self.listener.accept() {
                    Ok((conn, _)) => {
                        conn.set_nonblocking(true).unwrap();
                        self.accepted.fetch_add(1, Ordering::SeqCst);
                        let fd = conn.loop_fd();
                        ctx.register(
                            fd,
                            Box::new(EchoConn {
                                conn,
                                out: Vec::new(),
                            }),
                        );
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Next::Keep,
                    Err(_) => return Next::Keep,
                }
            }
        }
    }

    struct EchoConn {
        conn: TcpStream,
        out: Vec<u8>,
    }

    impl Handler for EchoConn {
        fn ready(&mut self, readable: bool, writable: bool, _ctx: &mut LoopCtx<'_>) -> Next {
            if readable {
                let mut buf = [0u8; 4096];
                loop {
                    match self.conn.read(&mut buf) {
                        Ok(0) => return Next::Close,
                        Ok(n) => self.out.extend_from_slice(&buf[..n]),
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => return Next::Close,
                    }
                }
            }
            if (writable || !self.out.is_empty()) && !self.out.is_empty() {
                match self.conn.write(&self.out) {
                    Ok(n) => {
                        self.out.drain(..n);
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => return Next::Close,
                }
            }
            Next::Keep
        }

        fn interest(&self) -> Interest {
            Interest {
                read: true,
                write: !self.out.is_empty(),
            }
        }
    }

    struct TickCounter {
        ticks: Arc<AtomicUsize>,
    }

    impl Handler for TickCounter {
        fn ready(&mut self, _r: bool, _w: bool, _ctx: &mut LoopCtx<'_>) -> Next {
            Next::Keep
        }
        fn tick(&mut self, _now: Instant, _ctx: &mut LoopCtx<'_>) -> Next {
            self.ticks.fetch_add(1, Ordering::SeqCst);
            Next::Keep
        }
        fn interest(&self) -> Interest {
            Interest::NONE
        }
    }

    fn spawn_loop(
        build: impl FnOnce(&mut EventLoop),
    ) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let mut el = EventLoop::new().unwrap();
        build(&mut el);
        let stop = Arc::new(AtomicBool::new(false));
        let s = stop.clone();
        let h = std::thread::spawn(move || el.run(s));
        (stop, h)
    }

    #[test]
    fn echo_round_trip_and_concurrent_clients() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let acc = accepted.clone();
        let (stop, h) = spawn_loop(move |el| {
            el.register(
                listener.loop_fd(),
                Box::new(EchoListener {
                    listener,
                    accepted: acc,
                }),
            )
            .unwrap();
        });

        // A stalled client must not block other clients (head-of-line test
        // at the loop level).
        let _stalled = TcpStream::connect(addr).unwrap();

        let mut clients: Vec<TcpStream> =
            (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for (i, c) in clients.iter_mut().enumerate() {
            c.write_all(format!("hello-{i}").as_bytes()).unwrap();
        }
        for (i, c) in clients.iter_mut().enumerate() {
            c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let want = format!("hello-{i}");
            let mut got = vec![0u8; want.len()];
            c.read_exact(&mut got).unwrap();
            assert_eq!(got, want.as_bytes());
        }
        assert!(accepted.load(Ordering::SeqCst) >= 5);

        stop.store(true, Ordering::SeqCst);
        h.join().unwrap();
    }

    #[test]
    fn timer_handlers_tick_without_an_fd() {
        let ticks = Arc::new(AtomicUsize::new(0));
        let t = ticks.clone();
        let (stop, h) = spawn_loop(move |el| {
            el.register_timer(Box::new(TickCounter { ticks: t }));
        });
        let deadline = Instant::now() + Duration::from_secs(2);
        while ticks.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::SeqCst);
        h.join().unwrap();
        assert!(
            ticks.load(Ordering::SeqCst) >= 2,
            "timer handler never ticked"
        );
    }

    /// A waker reaches every handler — fd-backed or timer-only — without
    /// waiting for the tick, and a burst of wakes is not lost.
    #[test]
    fn waker_interrupts_the_wait_and_reaches_every_handler() {
        struct WakeStamp {
            wakes: Arc<Mutex<Vec<Instant>>>,
        }
        impl Handler for WakeStamp {
            fn ready(&mut self, _r: bool, _w: bool, _ctx: &mut LoopCtx<'_>) -> Next {
                Next::Keep
            }
            fn wake(&mut self, _ctx: &mut LoopCtx<'_>) -> Next {
                self.wakes.lock().unwrap().push(Instant::now());
                Next::Keep
            }
            fn interest(&self) -> Interest {
                Interest::NONE
            }
        }

        let wakes = Arc::new(Mutex::new(Vec::new()));
        let mut el = EventLoop::new().unwrap();
        let waker = el.waker().unwrap();
        el.register_timer(Box::new(WakeStamp {
            wakes: wakes.clone(),
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let s = stop.clone();
        let h = std::thread::spawn(move || el.run(s));

        let mut delays = Vec::new();
        for round in 1..=20usize {
            // Land mid-wait, never phase-locked to the 50 ms tick.
            std::thread::sleep(Duration::from_millis(7));
            let fired = Instant::now();
            waker.wake();
            let deadline = fired + Duration::from_secs(5);
            while wakes.lock().unwrap().len() < round {
                assert!(Instant::now() < deadline, "wake {round} never arrived");
                std::thread::yield_now();
            }
            delays.push(wakes.lock().unwrap()[round - 1].duration_since(fired));
        }
        stop.store(true, Ordering::SeqCst);
        h.join().unwrap();
        delays.sort();
        assert!(
            delays[delays.len() / 2] < Duration::from_millis(10),
            "median wake delay {:?} (TICK is {:?})",
            delays[delays.len() / 2],
            EventLoop::TICK
        );
    }

    /// Handlers registered mid-flight (via ctx) and closed handlers drop
    /// their sockets promptly.
    #[test]
    fn close_drops_the_connection() {
        struct CloseOnRead {
            conn: TcpStream,
            log: Arc<Mutex<Vec<u8>>>,
        }
        impl Handler for CloseOnRead {
            fn ready(&mut self, _r: bool, _w: bool, _ctx: &mut LoopCtx<'_>) -> Next {
                let mut buf = [0u8; 64];
                match self.conn.read(&mut buf) {
                    Ok(n) if n > 0 => {
                        self.log.lock().unwrap().extend_from_slice(&buf[..n]);
                        Next::Close
                    }
                    _ => Next::Close,
                }
            }
        }
        struct Acceptor {
            listener: TcpListener,
            log: Arc<Mutex<Vec<u8>>>,
        }
        impl Handler for Acceptor {
            fn ready(&mut self, _r: bool, _w: bool, ctx: &mut LoopCtx<'_>) -> Next {
                while let Ok((conn, _)) = self.listener.accept() {
                    conn.set_nonblocking(true).unwrap();
                    let fd = conn.loop_fd();
                    ctx.register(
                        fd,
                        Box::new(CloseOnRead {
                            conn,
                            log: self.log.clone(),
                        }),
                    );
                }
                Next::Keep
            }
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        let (stop, h) = spawn_loop(move |el| {
            el.register(listener.loop_fd(), Box::new(Acceptor { listener, log: l2 }))
                .unwrap();
        });

        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"bye").unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut sink = Vec::new();
        // Server closes after reading: read() observes EOF.
        let _ = c.read_to_end(&mut sink);
        assert_eq!(log.lock().unwrap().as_slice(), b"bye");

        stop.store(true, Ordering::SeqCst);
        h.join().unwrap();
    }
}
