//! The length-framed TCP sink.
//!
//! Speaks the frame protocol defined in [`crate::sinks`] (length + CRC +
//! payload) over a persistent connection, reconnecting lazily. Delivery
//! is **ack-driven**: the receiver answers every data frame with the
//! 8-byte report id once it has recorded the report, and the sink only
//! reports success when every frame in the batch is acknowledged. A TCP
//! write completing proves nothing — the kernel buffers it, the peer may
//! reset mid-frame — so acks are what make "delivered" mean
//! receiver-side delivered, which is exactly what the fault-injection
//! harness asserts on.
//!
//! Every failure here is [`SinkError::Retryable`]: a framed peer has no
//! way to say "well-formed but rejected", it either records and acks or
//! the connection dies.

use super::{write_frame, BufferedReport, Sink, SinkError, PING_ACK};
use monilog_model::put_frame;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Sink that streams CRC-framed reports to a TCP receiver.
pub struct FramedTcpSink {
    addr: String,
    connect_timeout: Duration,
    io_timeout: Duration,
    conn: Option<TcpStream>,
}

impl FramedTcpSink {
    pub fn new(addr: impl Into<String>) -> FramedTcpSink {
        FramedTcpSink {
            addr: addr.into(),
            connect_timeout: Duration::from_millis(1_000),
            io_timeout: Duration::from_millis(2_000),
            conn: None,
        }
    }

    /// Override the connect and per-read/write timeouts.
    pub fn with_timeouts(mut self, connect: Duration, io: Duration) -> FramedTcpSink {
        self.connect_timeout = connect;
        self.io_timeout = io;
        self
    }

    fn resolve(&self) -> Result<SocketAddr, SinkError> {
        self.addr
            .to_socket_addrs()
            .map_err(|e| SinkError::Retryable(format!("resolve {}: {e}", self.addr)))?
            .next()
            .ok_or_else(|| SinkError::Retryable(format!("no address for {}", self.addr)))
    }

    /// Get (or re-establish) the connection.
    fn stream(&mut self) -> Result<&mut TcpStream, SinkError> {
        if self.conn.is_none() {
            let addr = self.resolve()?;
            let stream = TcpStream::connect_timeout(&addr, self.connect_timeout)
                .map_err(|e| SinkError::Retryable(format!("connect {addr}: {e}")))?;
            stream.set_read_timeout(Some(self.io_timeout))?;
            stream.set_write_timeout(Some(self.io_timeout))?;
            stream.set_nodelay(true)?;
            self.conn = Some(stream);
        }
        Ok(self.conn.as_mut().expect("just set"))
    }

    /// Run `f` on the connection; any error poisons it (next call
    /// reconnects) and is retryable.
    fn with_conn<R>(
        &mut self,
        f: impl FnOnce(&mut TcpStream) -> std::io::Result<R>,
    ) -> Result<R, SinkError> {
        let stream = self.stream()?;
        match f(stream) {
            Ok(r) => Ok(r),
            Err(e) => {
                self.conn = None;
                Err(SinkError::Retryable(e.to_string()))
            }
        }
    }
}

fn read_ack(stream: &mut impl Read) -> std::io::Result<u64> {
    let mut buf = [0u8; 8];
    stream.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

impl Sink for FramedTcpSink {
    fn kind(&self) -> &'static str {
        "tcp"
    }

    /// Probe: a ping frame (empty payload) the receiver must ack with
    /// [`PING_ACK`]. Exercises connect + write + receiver read loop + ack
    /// path without sending a report.
    fn healthcheck(&mut self) -> Result<(), SinkError> {
        self.with_conn(|stream| {
            write_frame(stream, &[])?;
            stream.flush()?;
            let ack = read_ack(stream)?;
            if ack != PING_ACK {
                return Err(std::io::Error::other(format!("bad ping ack: {ack:#x}")));
            }
            Ok(())
        })
    }

    /// Write every frame, then collect one ack per frame (pipelined). Any
    /// short write, reset, timeout or ack mismatch fails the whole batch —
    /// the receiver dedups re-sent ids, so coarse retry is safe.
    fn deliver(&mut self, batch: &[BufferedReport]) -> Result<(), SinkError> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut frames = Vec::new();
        for r in batch {
            put_frame(&mut frames, &super::encode_report_payload(r));
        }
        self.with_conn(|stream| {
            stream.write_all(&frames)?;
            for r in batch {
                let ack = read_ack(stream)?;
                if ack != r.id {
                    return Err(std::io::Error::other(format!(
                        "ack mismatch: sent {}, acked {ack}",
                        r.id
                    )));
                }
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinks::read_frame;
    use monilog_model::DeliveryClass;
    use std::net::TcpListener;

    fn report(id: u64) -> BufferedReport {
        BufferedReport {
            id,
            class: DeliveryClass::Ticket,
            body: format!("{{\"id\":{id}}}"),
        }
    }

    /// Minimal in-test receiver: ack everything, record ids.
    fn ack_server(listener: TcpListener, conns: usize) -> std::thread::JoinHandle<Vec<u64>> {
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            for _ in 0..conns {
                let (mut s, _) = listener.accept().unwrap();
                while let Ok(Some(payload)) = read_frame(&mut s) {
                    let ack = match super::super::decode_report_payload(&payload) {
                        Some(r) => {
                            seen.push(r.id);
                            r.id
                        }
                        None => PING_ACK,
                    };
                    if s.write_all(&ack.to_le_bytes()).is_err() {
                        break;
                    }
                }
            }
            seen
        })
    }

    #[test]
    fn delivers_batches_and_healthchecks_over_one_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = ack_server(listener, 1);
        let mut sink = FramedTcpSink::new(addr.to_string())
            .with_timeouts(Duration::from_millis(500), Duration::from_millis(500));
        sink.healthcheck().unwrap();
        sink.deliver(&[report(1), report(2)]).unwrap();
        sink.deliver(&[report(3)]).unwrap();
        drop(sink); // closes the connection so the server thread exits
        assert_eq!(server.join().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn refused_connection_is_retryable_and_recovers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener); // nothing listening now
        let mut sink = FramedTcpSink::new(addr.to_string())
            .with_timeouts(Duration::from_millis(200), Duration::from_millis(200));
        assert!(sink.deliver(&[report(9)]).unwrap_err().is_retryable());
        // Endpoint comes back (new listener on the same port is racy on
        // some systems; bind a fresh one and repoint instead).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr2 = listener.local_addr().unwrap();
        let server = ack_server(listener, 1);
        sink.addr = addr2.to_string();
        sink.deliver(&[report(9)]).unwrap();
        drop(sink);
        assert_eq!(server.join().unwrap(), vec![9]);
    }

    #[test]
    fn peer_reset_mid_batch_is_retryable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Server accepts, reads one frame, then drops without acking.
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = read_frame(&mut s);
            // dropped: connection resets under the sink's ack read
        });
        let mut sink = FramedTcpSink::new(addr.to_string())
            .with_timeouts(Duration::from_millis(300), Duration::from_millis(300));
        let err = sink.deliver(&[report(1), report(2)]).unwrap_err();
        assert!(err.is_retryable(), "{err}");
        server.join().unwrap();
    }
}
