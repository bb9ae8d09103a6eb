//! Graceful-shutdown signalling.
//!
//! SIGTERM and SIGINT set a process-wide latch; the ingestion loop polls
//! [`shutdown_requested`] between lines and, when set, quiesces: stops
//! reading input, syncs the journal, writes a final checkpoint, and exits
//! cleanly — so the next start replays zero journal lines. The handler
//! itself only stores an atomic counter (the only thing that's async-signal
//! safe); all real work happens on the main thread.
//!
//! **Second signal = immediate exit.** A drain over a large backlog can take
//! seconds; an operator (or init system) that signals again is saying "stop
//! now". The handler counts deliveries and, on the second one, calls
//! `_exit(130)` directly from signal context — async-signal-safe, no
//! destructors, no flushing. That is exactly the crash the WAL exists for:
//! the next start replays the journal from the last checkpoint, so the
//! forced exit loses nothing that was durably ingested.
//!
//! **SIGHUP = hot reload.** The classic daemon convention: SIGHUP latches
//! a separate counter that the monitor loop drains via
//! [`take_reload_request`] and answers by re-reading its config file into
//! a fresh [`crate::ops::ReloadableConfig`] snapshot — no restart, no
//! dropped lines. A SIGHUP never escalates to an exit.
//!
//! No libc crate: `signal(2)` / `_exit(2)` are declared directly. On
//! non-Unix targets installation is a no-op and drain must be requested
//! programmatically.

use std::sync::atomic::{AtomicU32, Ordering};

static SIGNAL_COUNT: AtomicU32 = AtomicU32::new(0);
static RELOAD_COUNT: AtomicU32 = AtomicU32::new(0);

/// Exit status for a forced (second-signal) shutdown: 128 + SIGINT, the
/// conventional "killed by Ctrl-C" status.
pub const FORCED_EXIT_CODE: i32 = 130;

#[cfg(unix)]
mod ffi {
    use std::sync::atomic::Ordering;

    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn latch(_signum: i32) {
        // fetch_add returns the previous count: 0 on the first signal
        // (request graceful drain), >=1 on any further signal (force exit).
        if super::SIGNAL_COUNT.fetch_add(1, Ordering::SeqCst) >= 1 {
            // SAFETY: `_exit(2)` is async-signal-safe and takes no pointers;
            // it ends the process without running any Rust code.
            unsafe { _exit(super::FORCED_EXIT_CODE) };
        }
    }

    extern "C" fn latch_reload(_signum: i32) {
        super::RELOAD_COUNT.fetch_add(1, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn _exit(status: i32) -> !;
    }

    pub fn install() {
        // SAFETY: `latch` has the `extern "C" fn(i32)` signature `signal(2)`
        // expects and only touches an atomic, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, latch);
            signal(SIGINT, latch);
        }
    }

    pub fn install_reload() {
        // SAFETY: as in `install`: `latch_reload` matches the handler
        // signature and only increments an atomic.
        unsafe {
            signal(SIGHUP, latch_reload);
        }
    }
}

/// Install the SIGTERM/SIGINT latch. Idempotent; call once near startup,
/// before the ingestion loop.
pub fn install_shutdown_handler() {
    #[cfg(unix)]
    ffi::install();
}

/// Whether a shutdown signal has arrived since the last reset.
pub fn shutdown_requested() -> bool {
    SIGNAL_COUNT.load(Ordering::SeqCst) > 0
}

/// Clear the latch (tests, or a supervisor restarting the loop in-process).
/// Also resets the second-signal force-exit counter.
pub fn reset_shutdown_flag() {
    SIGNAL_COUNT.store(0, Ordering::SeqCst);
}

/// Install the SIGHUP hot-reload latch. Idempotent; default SIGHUP
/// disposition (terminate) is replaced, so a daemonized monitor survives
/// terminal hangups even before it polls the latch.
pub fn install_reload_handler() {
    #[cfg(unix)]
    ffi::install_reload();
}

/// Consume any pending reload request. Returns true when at least one
/// SIGHUP arrived since the last call; coalesces bursts into one reload.
pub fn take_reload_request() -> bool {
    RELOAD_COUNT.swap(0, Ordering::SeqCst) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test (not several) because the latch is process-global state and
    // the test harness runs in parallel.
    #[test]
    fn latch_sets_resets_and_trips_on_a_real_signal() {
        reset_shutdown_flag();
        assert!(!shutdown_requested());
        SIGNAL_COUNT.store(1, Ordering::SeqCst);
        assert!(shutdown_requested());
        reset_shutdown_flag();
        assert!(!shutdown_requested());
        #[cfg(unix)]
        {
            install_shutdown_handler();
            // Raise SIGTERM at ourselves through the installed handler.
            // Exactly once — a second raise would _exit(130) the test
            // harness; the process-level double-signal path is covered by
            // the exp_d7 gate instead.
            extern "C" {
                fn raise(signum: i32) -> i32;
            }
            // SAFETY: `raise(2)` takes no pointers; the SIGTERM handler
            // installed above only latches an atomic.
            unsafe {
                raise(15);
            }
            assert!(shutdown_requested());
            reset_shutdown_flag();

            // SIGHUP latches the reload counter, not the shutdown one,
            // and take_reload_request coalesces + clears it.
            install_reload_handler();
            assert!(!take_reload_request());
            // SAFETY: as above; the SIGHUP handler only latches an atomic.
            unsafe {
                raise(1);
                raise(1);
            }
            assert!(take_reload_request(), "SIGHUP latched a reload");
            assert!(!take_reload_request(), "latch cleared after take");
            assert!(!shutdown_requested(), "SIGHUP never requests shutdown");
        }
    }
}
