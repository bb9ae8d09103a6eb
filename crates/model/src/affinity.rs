//! Best-effort thread-per-core pinning for worker threads.
//!
//! Shard workers own mutable parser state (Drain trees, match caches) that
//! is hot in cache; letting the scheduler migrate a worker between cores
//! invalidates those lines on every move. Pinning each shard to one core
//! keeps the working set resident and makes per-shard latency less noisy.
//! The detectors' forward-pass workers (`detect::deep`) pin for another
//! reason: they live for a millisecond or two, and a scheduler that starts
//! a thread on its parent's core and balances only every so often never
//! gives such a thread a core of its own.
//!
//! Follows the workspace's raw-FFI convention (`stream::net::sys`,
//! `stream::durable::signal`): the libc symbol is declared directly, no
//! crate dependency. Pinning is strictly best-effort — a failure (exotic
//! kernel, restricted cpuset, non-Linux target) is reported but never
//! fatal, and callers treat `false` as "run unpinned".

/// Number of cores usable for pinning (1 if undetectable).
pub fn core_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pin the *calling thread* to `core` (modulo the core count). Returns
/// whether the kernel accepted the mask.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(core: usize) -> bool {
    // 1024-bit cpu mask, the kernel's default CPU_SETSIZE.
    const WORDS: usize = 1024 / 64;
    extern "C" {
        // glibc: pid 0 = calling thread.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let core = core % core_count().max(1);
    let mut mask = [0u64; WORDS];
    mask[(core / 64) % WORDS] |= 1u64 << (core % 64);
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_count_is_positive() {
        assert!(core_count() >= 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_current_thread_succeeds_on_linux() {
        // Run on a scratch thread so the test harness thread's affinity is
        // untouched.
        let ok = std::thread::spawn(|| {
            let a = pin_current_thread(0);
            // Out-of-range cores wrap instead of failing.
            let b = pin_current_thread(usize::MAX);
            a && b
        })
        .join()
        .unwrap();
        assert!(ok, "sched_setaffinity rejected a 1-core mask");
    }
}
