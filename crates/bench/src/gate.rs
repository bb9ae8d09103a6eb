//! The harness of the process gates — `exp_d5` (recovery), `exp_d6`
//! (delivery), `exp_d7` (sources), `exp_d8` (ops) and `exp_d9` (fleet)
//! drive the real `monilog` binary, and everything they share lives
//! here, so each gate binary keeps only its scenario: argv, workloads,
//! fault scripts, thresholds and assertions.
//!
//! A gate works in `temp_dir()/monilog-exp-<gate>-<pid>` and every child
//! writes its stdout to `<label>.out` there. [`fail`] kills every child
//! still running, keeps that directory for a post-mortem and exits 1; a
//! gate that passes removes it in [`Gate::finish`].

use monilog_core::model::ReportLine;
use monilog_core::stream::durable::write_atomic;
use monilog_loggen::{GenLog, HdfsWorkload, HdfsWorkloadConfig};
use std::fs;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How long to wait for any single child process or poll condition.
pub const WAIT_BUDGET: Duration = Duration::from_secs(180);
/// Interval between two checks of a polled condition.
const POLL: Duration = Duration::from_millis(10);

static WORK_DIR: OnceLock<PathBuf> = OnceLock::new();
/// Pids of the spawned children not reaped yet.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn live() -> std::sync::MutexGuard<'static, Vec<u32>> {
    LIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fail the gate: stop every child still running, name the kept work
/// dir, exit 1. SIGTERM comes first so a monitor drains and prints its
/// summary into its `.out` file; SIGKILL follows for any that hang.
pub fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    let pids: Vec<String> = live().iter().map(u32::to_string).collect();
    if !pids.is_empty() {
        let _ = Command::new("kill").arg("-TERM").args(&pids).status();
        std::thread::sleep(Duration::from_secs(2));
        let _ = Command::new("kill").arg("-KILL").args(&pids).status();
    }
    if let Some(dir) = WORK_DIR.get() {
        eprintln!("work dir kept: {}", dir.display());
    }
    std::process::exit(1);
}

/// The `monilog` binary next to this experiment binary.
pub fn monilog_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let mut dir = exe.parent().expect("exe dir").to_path_buf();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join("monilog");
    if !bin.exists() {
        fail(&format!(
            "{} not found — build it first: cargo build --release -p monilog-core",
            bin.display()
        ));
    }
    bin
}

/// Write `logs` as a newline-separated log file.
pub fn write_workload(path: &Path, logs: &[GenLog]) {
    let text: Vec<String> = logs.iter().map(|l| l.record.to_line()).collect();
    fs::write(path, text.join("\n")).expect("workload file writable");
}

/// One gate run: its name, work dir and `--check` flag.
pub struct Gate {
    name: &'static str,
    dir: PathBuf,
    /// `--check`: the results artifact is not rewritten.
    pub check: bool,
    bin: PathBuf,
}

impl Gate {
    /// Print the title, find `monilog` and make a fresh work dir. `name`
    /// is the experiment id (`d5_recovery`); its first part names the dir.
    pub fn start(name: &'static str, title: &str) -> Gate {
        println!("# {title}\n");
        let check = std::env::args().any(|a| a == "--check");
        let bin = monilog_bin();
        println!("driving {}", bin.display());
        let short = name.split('_').next().unwrap_or(name);
        let dir = std::env::temp_dir().join(format!("monilog-exp-{short}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        let _ = WORK_DIR.set(dir.clone());
        Gate {
            name,
            dir,
            check,
            bin,
        }
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    /// Train the model every gate monitors with (200 anomaly-free HDFS
    /// sessions) and return its checkpoint.
    pub fn train(&self) -> PathBuf {
        let logs = self.path("train.log");
        let training = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 200,
            sequential_anomaly_rate: 0.0,
            quantitative_anomaly_rate: 0.0,
            seed: 6,
            start_ms: 1_600_000_000_000,
        })
        .generate();
        write_workload(&logs, &training);
        let ckpt = self.path("model.mlcp");
        let args = [
            "train",
            &logs.display().to_string(),
            "--checkpoint",
            &ckpt.display().to_string(),
        ];
        self.spawn("train", &args.map(String::from), &[]).wait_ok();
        ckpt
    }

    /// Spawn `monilog` with `args` and extra environment variables; its
    /// stdout goes to `<label>.out` in the work dir.
    pub fn spawn(&self, label: &str, args: &[String], envs: &[(&str, &str)]) -> Proc {
        let out_path = self.path(&format!("{label}.out"));
        let out = fs::File::create(&out_path)
            .unwrap_or_else(|e| fail(&format!("create {}: {e}", out_path.display())));
        let child = Command::new(&self.bin)
            .args(args)
            .envs(envs.iter().copied())
            .stdout(out)
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| fail(&format!("spawn {label}: {e}")));
        live().push(child.id());
        Proc {
            child,
            label: label.to_string(),
            out_path,
        }
    }

    /// Write `results/exp_<name>.json` (`{"experiment":"<name>",<fields>}`)
    /// unless `--check`, then remove the work dir.
    pub fn finish(self, fields: &str) {
        if !self.check {
            let json = format!("{{\"experiment\":\"{}\",{fields}}}\n", self.name);
            let out_path = PathBuf::from(format!("results/exp_{}.json", self.name));
            match write_atomic(&out_path, json.as_bytes()) {
                Ok(()) => println!("wrote {}", out_path.display()),
                Err(e) => println!("could not write {}: {e}", out_path.display()),
            }
        }
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// A spawned `monilog` child.
pub struct Proc {
    child: Child,
    label: String,
    out_path: PathBuf,
}

impl Proc {
    /// The exit status once the child has exited.
    fn exited(&mut self) -> Option<ExitStatus> {
        let status = self
            .child
            .try_wait()
            .unwrap_or_else(|e| fail(&format!("wait for {}: {e}", self.label)))?;
        let pid = self.child.id();
        live().retain(|&p| p != pid);
        Some(status)
    }

    /// Wait for the exit within [`WAIT_BUDGET`]: the status and stdout.
    pub fn wait(mut self) -> (ExitStatus, String) {
        let deadline = Instant::now() + WAIT_BUDGET;
        loop {
            if let Some(status) = self.exited() {
                return (status, self.stdout());
            }
            if Instant::now() > deadline {
                fail(&format!(
                    "{} did not exit within the wait budget",
                    self.label
                ));
            }
            std::thread::sleep(POLL);
        }
    }

    /// [`Proc::wait`], failing the gate unless the exit is clean.
    pub fn wait_ok(self) -> String {
        let label = self.label.clone();
        let (status, out) = self.wait();
        if !status.success() {
            fail(&format!("{label} exited with {status}:\n{out}"));
        }
        out
    }

    /// Everything the child has written to stdout so far.
    fn stdout(&self) -> String {
        fs::read_to_string(&self.out_path).unwrap_or_default()
    }

    pub fn sigterm(&self) {
        let status = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        if !status.success() {
            fail(&format!("kill -TERM {} failed", self.label));
        }
    }

    /// SIGKILL the child and reap it.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        self.wait();
    }
}

/// Poll `f` until it yields a value. Fails the gate when `proc` exits
/// first or the wait budget runs out; `what` names the awaited event.
pub fn wait_for<T>(proc: &mut Proc, what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + WAIT_BUDGET;
    loop {
        if let Some(value) = f() {
            return value;
        }
        if let Some(status) = proc.exited() {
            fail(&format!("{} exited ({status}) before {what}", proc.label));
        }
        if Instant::now() > deadline {
            fail(&format!("{}: no {what} within the wait budget", proc.label));
        }
        std::thread::sleep(POLL);
    }
}

/// [`wait_for`] a condition.
pub fn wait_until(proc: &mut Proc, what: &str, mut cond: impl FnMut() -> bool) {
    wait_for(proc, what, || cond().then_some(()))
}

/// The `key` address `proc` publishes in `<state>/listen-addrs`.
pub fn listen_addr(state: &Path, key: &str, proc: &mut Proc) -> String {
    let prefix = format!("{key} ");
    wait_for(proc, &format!("a published {key} address"), || {
        let addrs = fs::read_to_string(state.join("listen-addrs")).ok()?;
        let line = addrs.lines().find_map(|l| l.strip_prefix(&prefix))?;
        Some(line.to_string())
    })
}

/// Total bytes of the files in `dir` (0 while it does not exist).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// One HTTP/1.1 exchange on a fresh connection: the status code and body.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("read timeout: {e}"))?;
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("write {method} {path}: {e}"))?;
    let mut response = String::new();
    conn.read_to_string(&mut response)
        .map_err(|e| format!("read {method} {path} after {} bytes: {e}", response.len()))?;
    let code = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("unparseable response to {method} {path}"))?;
    let body_at = response.find("\r\n\r\n").map_or(response.len(), |i| i + 4);
    Ok((code, response[body_at..].to_string()))
}

/// [`http`], failing the gate on a transport error.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    http(addr, method, path, body).unwrap_or_else(|e| fail(&e))
}

/// The value of Prometheus counter `name` in a `/metrics` body.
pub fn counter(scrape: &str, name: &str) -> u64 {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or_else(|| fail(&format!("{name} missing from /metrics scrape:\n{scrape}")))
}

/// The numbers in the first line of `out` that contains `marker`.
pub fn numbers_in_line(out: &str, marker: &str) -> Vec<u64> {
    let line = out
        .lines()
        .find(|l| l.contains(marker))
        .unwrap_or_else(|| fail(&format!("no `{marker}` line in output:\n{out}")));
    line.split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("digits"))
        .collect()
}

/// Send already-enveloped syslog lines, LF-framed, in order on one
/// connection (ordering matters to the windowed detectors).
pub fn feed_syslog(addr: &str, lines: &[String]) {
    let mut conn =
        TcpStream::connect(addr).unwrap_or_else(|e| fail(&format!("connect feeder: {e}")));
    conn.set_nodelay(true).unwrap();
    let mut wire = String::new();
    for (i, line) in lines.iter().enumerate() {
        wire.push_str(line);
        wire.push('\n');
        if wire.len() >= 32 * 1024 || i + 1 == lines.len() {
            conn.write_all(wire.as_bytes())
                .unwrap_or_else(|e| fail(&format!("feeder write: {e}")));
            wire.clear();
        }
    }
}

/// Every report line of a sink file (`anomalies.jsonl`), through `key`. A
/// missing file holds no reports; a line the reader rejects fails the gate.
pub fn read_reports<T>(sink: &Path, key: impl Fn(&ReportLine) -> T) -> Vec<T> {
    let body = fs::read_to_string(sink).unwrap_or_default();
    body.lines()
        .map(|line| match ReportLine::parse(line) {
            Some(report) => key(&report),
            None => fail(&format!(
                "unparseable sink line in {}: {line}",
                sink.display()
            )),
        })
        .collect()
}

/// A report's identity within one run: `(id, kind, score)`. Trace ids
/// (sampling) and event sources (transport) are left out.
pub type ReportKey = (u64, String, String);

pub fn report_keys(sink: &Path) -> Vec<ReportKey> {
    read_reports(sink, |r| (r.id, r.kind.to_string(), r.score.to_string()))
}

/// Fail unless `got` holds each id once and the same keys as `want`;
/// print the extra and missing keys first.
pub fn assert_same_reports(label: &str, got: &[ReportKey], want: &[ReportKey]) {
    let mut ids: Vec<u64> = got.iter().map(|k| k.0).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != got.len() {
        fail(&format!(
            "{label}: duplicate report ids in the anomaly sink"
        ));
    }
    let (mut got, mut want) = (got.to_vec(), want.to_vec());
    got.sort();
    want.sort();
    if got != want {
        for k in got.iter().filter(|k| want.binary_search(k).is_err()) {
            eprintln!("  extra:   {k:?}");
        }
        for k in want.iter().filter(|k| got.binary_search(k).is_err()) {
            eprintln!("  missing: {k:?}");
        }
        fail(&format!(
            "{label}: anomaly set diverged from the reference ({} vs {} reports)",
            got.len(),
            want.len()
        ));
    }
}
