//! Building, training and driving the real `monilog` binary, plus the
//! `/proc` readings taken from its process.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single wait on the monitor may take.
pub const WAIT_BUDGET: Duration = Duration::from_secs(45);

/// Kernel `USER_HZ`: `/proc/<pid>/stat` times are in 1/100 s on Linux.
const TICKS_PER_SECOND: f64 = 100.0;

/// Where cargo puts build output for this checkout: `CARGO_TARGET_DIR`
/// when the caller set it, else `default_dir`.
fn target_dir(default_dir: &str) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from(default_dir), PathBuf::from)
}

/// Root for per-run state directories, inside the checkout and inside a
/// directory `.gitignore` already names.
pub fn state_root() -> PathBuf {
    target_dir("benchmark/target").join("bench-state")
}

/// Run `f` with a fresh state directory named for this process and
/// `name`, and remove the directory afterwards whatever `f` returned.
pub fn with_state_dir<T>(
    name: &str,
    f: impl FnOnce(&Path) -> Result<T, String>,
) -> Result<T, String> {
    let dir = state_root().join(format!("{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Build the repository's own release `monilog` (root manifest, root
/// profile) and return its path. A no-op when it is up to date.
pub fn build_monilog() -> Result<PathBuf, String> {
    if !Path::new("crates/core/Cargo.toml").exists() {
        return Err(
            "run from the repository root: crates/core/Cargo.toml not found (the benchmark \
             drives the repository's own monilog binary)"
                .into(),
        );
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "monilog-core",
            "--bin",
            "monilog",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of monilog failed: {status}"));
    }
    let bin = target_dir("target").join("release").join("monilog");
    if !bin.exists() {
        return Err(format!("{} missing after the build", bin.display()));
    }
    Ok(bin)
}

/// `monilog train <log> --checkpoint <out>`; returns its wall time.
pub fn train(bin: &Path, train_log: &Path, checkpoint: &Path) -> Result<Duration, String> {
    let start = Instant::now();
    let status = Command::new(bin)
        .arg("train")
        .arg(train_log)
        .arg("--checkpoint")
        .arg(checkpoint)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn monilog train: {e}"))?;
    if !status.success() {
        return Err(format!("monilog train failed: {status}"));
    }
    Ok(start.elapsed())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Listen {
    SyslogTcp,
    Http,
}

/// A running `monilog monitor` on the full path: network source, WAL
/// and checkpoints at their defaults, framed-TCP sink, ops surface.
pub struct Monitor {
    child: Child,
    pub ingest_addr: String,
    pub metrics_addr: String,
    /// Spawn until `/readyz` answered 200.
    pub ready_after: Duration,
}

impl Monitor {
    pub fn spawn(
        bin: &Path,
        checkpoint: &Path,
        state_dir: &Path,
        listen: Listen,
        sink_addr: &str,
    ) -> Result<Monitor, String> {
        std::fs::create_dir_all(state_dir).map_err(|e| format!("create state dir: {e}"))?;
        let start = Instant::now();
        let (listen_flag, addr_key) = match listen {
            Listen::SyslogTcp => ("--listen-syslog-tcp", "syslog-tcp"),
            Listen::Http => ("--listen-http", "http"),
        };
        let mut child = Command::new(bin)
            .arg("monitor")
            .arg("--checkpoint")
            .arg(checkpoint)
            .arg("--state-dir")
            .arg(state_dir)
            .args([listen_flag, "127.0.0.1:0"])
            .args(["--metrics-addr", "127.0.0.1:0"])
            .args(["--sink-tcp", sink_addr])
            // The criticality head is untrained, so every report rates
            // `low`; page on it or nothing would reach the TCP sink.
            .args(["--page-at", "low"])
            .args(["--on-overload", "block"])
            .args(["--trace-sample-rate", "0"])
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn monilog monitor: {e}"))?;
        let addrs = (|| {
            let ingest_addr = wait_for_addr(state_dir, addr_key, &mut child)?;
            let metrics_addr = wait_for_addr(state_dir, "metrics", &mut child)?;
            let deadline = Instant::now() + WAIT_BUDGET;
            loop {
                if let Ok((status, _)) = http_get(&metrics_addr, "/readyz") {
                    if status == 200 {
                        return Ok((ingest_addr, metrics_addr));
                    }
                }
                if Instant::now() > deadline {
                    return Err("monitor never became ready".to_string());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })();
        match addrs {
            Ok((ingest_addr, metrics_addr)) => Ok(Monitor {
                child,
                ingest_addr,
                metrics_addr,
                ready_after: start.elapsed(),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A Prometheus counter from a fresh `/metrics` scrape.
    pub fn counter(&self, name: &str) -> Result<u64, String> {
        let (status, body) = http_get(&self.metrics_addr, "/metrics")?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        counter_in(&body, name).ok_or_else(|| format!("{name} missing from /metrics"))
    }

    pub fn exited(&mut self) -> Option<std::process::ExitStatus> {
        self.child.try_wait().ok().flatten()
    }

    /// SIGTERM and wait for the graceful drain; dropping the handle
    /// then reaps the process (and kills it if the drain overran).
    pub fn stop(mut self) {
        let _ = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status();
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline && matches!(self.child.try_wait(), Ok(None)) {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// No run, however it ends, leaves a monitor behind.
impl Drop for Monitor {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn wait_for_addr(state: &Path, key: &str, child: &mut Child) -> Result<String, String> {
    let deadline = Instant::now() + WAIT_BUDGET;
    loop {
        if let Ok(content) = std::fs::read_to_string(state.join("listen-addrs")) {
            if let Some(addr) = content
                .lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
            {
                return Ok(addr.to_string());
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("monitor exited ({status}) before publishing {key}"));
        }
        if Instant::now() > deadline {
            return Err(format!("no {key} address within the wait budget"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One `GET`, `Connection: close`; returns status code and body.
pub fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: monilog\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("write request: {e}"))?;
    let mut response = String::new();
    conn.read_to_string(&mut response)
        .map_err(|e| format!("read response: {e}"))?;
    parse_response(&response).ok_or_else(|| format!("malformed response from {path}"))
}

pub fn parse_response(response: &str) -> Option<(u16, String)> {
    let status = response.split_whitespace().nth(1)?.parse().ok()?;
    let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Some((status, body.to_string()))
}

/// Value of `monilog_<name>_total` in a Prometheus exposition.
pub fn counter_in(body: &str, name: &str) -> Option<u64> {
    let needle = format!("monilog_{name}_total ");
    body.lines()
        .find_map(|l| l.strip_prefix(&needle))
        .and_then(|v| v.trim().parse().ok())
}

/// CPU, disk and memory readings of one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// utime + stime, seconds.
    pub cpu_s: f64,
    /// `write_bytes` of `/proc/<pid>/io`: bytes sent to the block layer.
    pub write_bytes: u64,
    /// `wchar`: bytes passed to write-like syscalls (sockets included).
    pub wchar: u64,
    /// `VmHWM`, KiB.
    pub peak_rss_kib: u64,
}

pub fn proc_sample(pid: u32) -> Result<ProcSample, String> {
    let read = |file: &str| {
        std::fs::read_to_string(format!("/proc/{pid}/{file}"))
            .map_err(|e| format!("read /proc/{pid}/{file}: {e}"))
    };
    let field = |text: &str, key: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    };
    let io = read("io")?;
    let status = read("status")?;
    Ok(ProcSample {
        cpu_s: stat_cpu_seconds(&read("stat")?).ok_or("malformed /proc stat")?,
        write_bytes: field(&io, "write_bytes:"),
        wchar: field(&io, "wchar:"),
        peak_rss_kib: field(&status, "VmHWM:"),
    })
}

/// utime + stime from a `/proc/.../stat` line. The command name (field
/// 2) may contain spaces, so fields are counted from the closing paren.
pub fn stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // `after` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// CPU seconds consumed so far by the calling thread.
pub fn thread_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| stat_cpu_seconds(&s))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_stat_and_prometheus_lines() {
        let stat = "4242 (moni log) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(stat_cpu_seconds(stat), Some(3.0));
        assert!(thread_cpu_seconds() >= 0.0);
        let body =
            "# TYPE monilog_lines_ingested_total counter\nmonilog_lines_ingested_total 1234\n\
                    monilog_sources_lines_total 99\n";
        assert_eq!(counter_in(body, "lines_ingested"), Some(1234));
        assert_eq!(counter_in(body, "sources_lines"), Some(99));
        assert_eq!(counter_in(body, "absent"), None);
        assert_eq!(
            parse_response("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n"),
            Some((200, "ok\n".to_string()))
        );
        let me = proc_sample(std::process::id()).unwrap();
        assert!(me.peak_rss_kib > 0);
    }
}
