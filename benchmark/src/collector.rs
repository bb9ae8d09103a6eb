//! The in-harness framed-ack collector: the receiving end of
//! `--sink-tcp`. It speaks the frame protocol of `stream::sinks`
//! (`[len u32][crc32 u32][payload]`, payload `[id u64][class u8][json]`,
//! empty payload = ping), stamps every data frame on receipt, records
//! it, and acks with the 8-byte report id.

use crate::oracle::{body_hash, Receipt};
use monilog_core::model::crc32;
use monilog_core::stream::sinks::PING_ACK;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest frame accepted; a report is a few KiB.
const MAX_FRAME: usize = 16 * 1024 * 1024;

pub struct Collector {
    addr: SocketAddr,
    receipts: Arc<Mutex<Vec<Receipt>>>,
    /// Data frames received so far, readable without taking the lock.
    count: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Collector {
    pub fn spawn() -> std::io::Result<Collector> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let receipts = Arc::new(Mutex::new(Vec::new()));
        let count = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (r, c, s) = (receipts.clone(), count.clone(), stop.clone());
        let handle = std::thread::Builder::new()
            .name("bench-collector".into())
            .spawn(move || accept_loop(listener, &r, &c, &s))?;
        Ok(Collector {
            addr,
            receipts,
            count,
            stop,
            handle: Some(handle),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Data frames acknowledged so far (duplicates included).
    pub fn received(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    pub fn receipts(&self) -> Vec<Receipt> {
        self.receipts
            .lock()
            .expect("collector thread panicked")
            .clone()
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One connection at a time: the monitor's delivery worker holds a
/// single persistent connection and reconnects only after an error.
fn accept_loop(
    listener: TcpListener,
    receipts: &Mutex<Vec<Receipt>>,
    count: &AtomicUsize,
    stop: &AtomicBool,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = serve(stream, receipts, count, stop);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

/// Fill `buf`, riding out read timeouts (they only exist so `stop` is
/// noticed). `Ok(false)` = clean EOF or stop before the first byte.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> std::io::Result<bool> {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn serve(
    mut stream: TcpStream,
    receipts: &Mutex<Vec<Receipt>>,
    count: &AtomicUsize,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    stream.set_nodelay(true)?;
    let mut payload = Vec::new();
    loop {
        let mut head = [0u8; 8];
        if !read_full(&mut stream, &mut head, stop)? {
            return Ok(());
        }
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        let crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
        if len > MAX_FRAME {
            return Err(std::io::Error::other("oversized frame"));
        }
        payload.resize(len, 0);
        if !read_full(&mut stream, &mut payload, stop)? {
            return Ok(());
        }
        let at = Instant::now();
        if crc32(&payload) != crc {
            // Poison the connection: the sink retries the whole batch.
            return Err(std::io::Error::other("frame CRC mismatch"));
        }
        let ack = if payload.len() < 9 {
            PING_ACK
        } else {
            let id = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
            receipts
                .lock()
                .expect("collector lock poisoned")
                .push(Receipt {
                    id,
                    class: payload[8],
                    body_hash: body_hash(&payload[9..]),
                    at,
                });
            count.fetch_add(1, Ordering::Release);
            id
        };
        stream.write_all(&ack.to_le_bytes())?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_core::model::DeliveryClass;
    use monilog_core::stream::{BufferedReport, FramedTcpSink, Sink};

    #[test]
    fn acks_the_real_framed_sink_and_records_receipts() {
        let collector = Collector::spawn().unwrap();
        let mut sink = FramedTcpSink::new(collector.addr().to_string());
        sink.healthcheck().expect("ping acked");
        let batch: Vec<BufferedReport> = (0..5)
            .map(|id| BufferedReport {
                id,
                class: DeliveryClass::Page,
                body: format!("{{\"id\":{id}}}"),
            })
            .collect();
        sink.deliver(&batch).expect("every frame acked");
        sink.deliver(&batch[..1]).expect("a re-send is acked too");
        assert_eq!(collector.received(), 6);
        let receipts = collector.receipts();
        assert_eq!(receipts[3].id, 3);
        assert_eq!(receipts[3].class, DeliveryClass::Page.tag());
        assert_eq!(receipts[3].body_hash, body_hash(b"{\"id\":3}"));
        assert_eq!(receipts[5].id, 0);
    }
}
