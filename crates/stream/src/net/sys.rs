//! Raw `epoll(7)` FFI, in the same spirit as the `signal(2)` shim in
//! `durable::signal` and the `SO_REUSEADDR` shim in `export`: we link the
//! three syscall wrappers straight out of libc instead of pulling in a
//! dependency for a handful of constants.
//!
//! Only the Linux ABI is bound here; `net::poll` falls back to a timed
//! sweep poller on other platforms.

#![cfg(target_os = "linux")]

use std::io;
use std::os::unix::io::RawFd;

pub const EPOLL_CLOEXEC: i32 = 0o2000000;

pub const EPOLL_CTL_ADD: i32 = 1;
pub const EPOLL_CTL_DEL: i32 = 2;
pub const EPOLL_CTL_MOD: i32 = 3;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

/// `struct epoll_event`. The kernel packs this on x86-64 (12 bytes) and uses
/// natural alignment everywhere else — mirror that or `epoll_wait` corrupts
/// the buffer.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// Owned epoll instance; closed on drop.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 has no pointer arguments.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let evp = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, evp) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout_ms` for readiness; appends `(token, events)` pairs
    /// to `out`. Returns the number of ready fds. EINTR counts as zero ready.
    pub fn wait(&self, out: &mut Vec<(u64, u32)>, timeout_ms: i32) -> io::Result<usize> {
        let mut buf = [EpollEvent { events: 0, data: 0 }; 64];
        // SAFETY: `buf` is a valid writable array of `maxevents` entries.
        let n = unsafe { epoll_wait(self.fd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for ev in buf.iter().take(n as usize) {
            // Copy out of the (possibly packed) struct before use.
            let (events, data) = (ev.events, ev.data);
            out.push((data, events));
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: fd came from epoll_create1 and is closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_reports_readable_listener() {
        let ep = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        ep.add(listener.as_raw_fd(), EPOLLIN, 7).unwrap();

        let mut ready = Vec::new();
        assert_eq!(
            ep.wait(&mut ready, 0).unwrap(),
            0,
            "no pending connection yet"
        );

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.write_all(b"x").unwrap();

        let mut ready = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while ready.is_empty() && std::time::Instant::now() < deadline {
            ep.wait(&mut ready, 100).unwrap();
        }
        assert_eq!(ready.len(), 1);
        let (token, events) = ready[0];
        assert_eq!(token, 7);
        assert_ne!(events & EPOLLIN, 0);

        ep.delete(listener.as_raw_fd()).unwrap();
        let mut ready = Vec::new();
        ep.wait(&mut ready, 0).unwrap();
        assert!(ready.is_empty(), "deleted fd must not report");
    }
}
