//! The seven runtime settings are one surface: the `monitor` flags and a
//! live monitor's `POST /config` accept and reject exactly the same
//! values, an update the monitor cannot carry out is rejected whole, and
//! a `GET /config` body posted back reproduces the same settings. Drives
//! the real binary over its ops listener.

use monilog_core::cli::parse_args;
use monilog_core::stream::RELOADABLE_KEYS;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_monilog");

/// One valid and one invalid value per reloadable key, for a monitor that
/// runs no `--sink-http` or `--sink-tcp`.
const CASES: [(&str, &str, &str); 7] = [
    ("on-overload", "shed", "explode"),
    ("trace-sample-rate", "64", "-1"),
    ("page-at", "moderate", "volcanic"),
    ("route-critical", "file", "tcp"),
    ("batch-lines", "16", "0"),
    ("batch-deadline-ms", "20", "soon"),
    ("sink-retry-max-ms", "250", "0"),
];

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("monilog-settings-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A network monitor with the ops surface on its metrics listener and no
/// delivery sink; killed on drop.
struct Monitor {
    child: Child,
    metrics: String,
    state: PathBuf,
}

impl Drop for Monitor {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start_monitor(dir: &Path) -> Monitor {
    let train = dir.join("train.log");
    let lines: Vec<String> = (0..60)
        .flat_map(|job| {
            "abcd"
                .chars()
                .map(move |step| format!("step {step} of job j{job}"))
        })
        .collect();
    std::fs::write(&train, lines.join("\n")).unwrap();
    let ckpt = dir.join("model.mlcp").display().to_string();
    let trained = Command::new(BIN)
        .args(["train", &train.display().to_string(), "--format", "bare"])
        .args(["--checkpoint", &ckpt])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(trained.success());
    let state = dir.join("state");
    let child = Command::new(BIN)
        .args(["monitor", "--format", "bare", "--checkpoint", &ckpt])
        .args(["--state-dir", &state.display().to_string()])
        .args(["--listen-syslog-tcp", "127.0.0.1:0"])
        .args(["--metrics-addr", "127.0.0.1:0"])
        .env_remove("MONILOG_IDLE_EXIT_MS")
        .stdout(Stdio::null())
        .spawn()
        .unwrap();
    let mut monitor = Monitor {
        child,
        metrics: String::new(),
        state,
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while monitor.metrics.is_empty() {
        assert!(Instant::now() < deadline, "no metrics address published");
        if let Ok(addrs) = std::fs::read_to_string(monitor.state.join("listen-addrs")) {
            if let Some(addr) = addrs.lines().find_map(|l| l.strip_prefix("metrics ")) {
                monitor.metrics = addr.to_string();
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    monitor
}

/// One HTTP/1.1 request; the status code and body of the answer.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let code = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body_at = response.find("\r\n\r\n").map_or(response.len(), |i| i + 4);
    (code, response[body_at..].to_string())
}

/// A `GET /config` body as a `POST /config` body: every key but the
/// version, `null` as `none`.
fn config_as_update(config: &str) -> String {
    let inner = config.trim().trim_start_matches('{').trim_end_matches('}');
    let pairs: Vec<String> = inner
        .split(',')
        .filter_map(|pair| {
            let (key, value) = pair.split_once(':')?;
            let key = key.trim_matches('"');
            let value = match value.trim_matches('"') {
                "null" => "none",
                v => v,
            };
            (key != "version").then(|| format!("{key}={value}"))
        })
        .collect();
    pairs.join("&")
}

/// The config body with its version replaced, to compare settings alone.
fn settings_of(config: &str) -> String {
    let start = config.find("\"version\":").expect("a version") + "\"version\":".len();
    let digits = config[start..]
        .bytes()
        .take_while(u8::is_ascii_digit)
        .count();
    format!("{}{}", &config[..start], &config[start + digits..])
}

fn argv_accepts(key: &str, value: &str) -> bool {
    let flag = format!("--{key}");
    let argv = [
        "monitor",
        "x.log",
        "--checkpoint",
        "m",
        "--state-dir",
        "d",
        &flag,
        value,
    ];
    parse_args(&argv.map(String::from)).is_ok()
}

/// Each key's flag and `POST /config` accept one valid value and reject
/// one invalid value alike, and posting `GET /config` back reproduces the
/// same settings at the next version.
#[test]
fn argv_and_post_config_agree_on_every_reloadable_key() {
    assert_eq!(CASES.map(|(key, _, _)| key), RELOADABLE_KEYS);
    let dir = tmp_dir("agree");
    let monitor = start_monitor(&dir);
    let addr = monitor.metrics.as_str();

    let (code, boot) = http(addr, "GET", "/config", "");
    assert_eq!(code, 200, "{boot}");
    assert!(boot.contains("\"version\":0"), "{boot}");
    let (code, echoed) = http(addr, "POST", "/config", &config_as_update(&boot));
    assert_eq!(code, 200, "{echoed}");
    assert!(echoed.contains("\"version\":1"), "{echoed}");
    assert_eq!(settings_of(&echoed), settings_of(&boot));

    let mut version = 1;
    for (key, good, bad) in CASES {
        assert!(argv_accepts(key, good), "--{key} {good} refused");
        assert!(!argv_accepts(key, bad), "--{key} {bad} accepted");
        let (code, body) = http(addr, "POST", "/config", &format!("{key}={good}"));
        assert_eq!(code, 200, "{key}={good}: {body}");
        version += 1;
        assert!(body.contains(&format!("\"version\":{version}")), "{body}");
        let (code, body) = http(addr, "POST", "/config", &format!("{key}={bad}"));
        assert_eq!(code, 400, "{key}={bad}: {body}");
    }

    let (_, config) = http(addr, "GET", "/config", "");
    assert!(
        config.contains(&format!("\"version\":{version}")),
        "{config}"
    );
    let (code, echoed) = http(addr, "POST", "/config", &config_as_update(&config));
    assert_eq!(code, 200, "{echoed}");
    assert!(
        echoed.contains(&format!("\"version\":{}", version + 1)),
        "{echoed}"
    );
    assert_eq!(settings_of(&echoed), settings_of(&config));
    drop(monitor);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Paging to a sink the monitor does not run, or a zero retry cap, is
/// refused with a 400 and changes nothing: no version, no audit record,
/// no applied reload.
#[test]
fn updates_the_monitor_cannot_carry_out_are_rejected_whole() {
    let dir = tmp_dir("reject");
    let monitor = start_monitor(&dir);
    let addr = monitor.metrics.as_str();
    let (_, boot) = http(addr, "GET", "/config", "");

    for update in ["route-critical=tcp", "page-at=low&sink-retry-max-ms=0"] {
        let (code, body) = http(addr, "POST", "/config", update);
        assert_eq!(code, 400, "{update}: {body}");
        assert!(body.contains("\"error\":"), "{body}");
    }
    let (_, config) = http(addr, "GET", "/config", "");
    assert_eq!(config, boot);
    assert!(config.contains("\"route-critical\":null"), "{config}");
    assert!(config.contains("\"sink-retry-max-ms\":5000"), "{config}");
    let audit = std::fs::read_to_string(monitor.state.join("config-audit.log"));
    assert_eq!(
        audit.unwrap_or_default(),
        "",
        "a rejected update is not audited"
    );

    let deadline = Instant::now() + Duration::from_secs(30);
    let metrics = loop {
        let (_, metrics) = http(addr, "GET", "/metrics", "");
        if metrics.contains("monilog_config_reload_rejected_total 2\n") {
            break metrics;
        }
        assert!(Instant::now() < deadline, "rejections never counted");
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(
        metrics.contains("monilog_config_reloads_applied_total 0\n"),
        "{metrics}"
    );
    drop(monitor);
    let _ = std::fs::remove_dir_all(&dir);
}
