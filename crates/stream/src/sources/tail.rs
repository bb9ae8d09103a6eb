//! Checkpointed file tailing: follow a live log file, surviving rotation
//! (inode change) and truncation, and emit an inode+offset cursor with
//! every line so the consumer can persist resume positions through the
//! durable checkpoint manifest.
//!
//! The cursor protocol (mirrors vector's file-source checkpointing, adapted
//! to the WAL): `offset` only ever points at a *line boundary* of the file
//! with inode `inode`, and `last_seq` is the journal seq of the last line
//! emitted at that offset. On restart the consumer seeks to the cursor and
//! skips `journal_high_water - last_seq` lines — the lines that were
//! journaled after the checkpoint was cut — so replay and re-read never
//! double-ingest.
//!
//! Tails are timer-driven handlers on the shared event loop (regular files
//! are always "ready"; readiness APIs are useless for them), polling at the
//! loop tick.
//!
//! Every `--tail` argument is a pattern whose basename may contain `*` or
//! `?` (a literal basename matches one file): a [`GlobTailHandler`]
//! rescans the parent directory on a timer and registers a fresh
//! [`FileTailHandler`] for every newly matching file — discovery at
//! runtime, not just at startup. Each discovered file gets a stable slot
//! (hence a stable `SourceId`) from a shared allocator, and the
//! `(slot, path)` pair is recorded in the server's tail registry so the
//! consumer can persist *path-keyed* cursors, which resume a file at its
//! own slot whatever the order of the flags.

use super::{Shared, SourceEvent, TAIL_SOURCE_BASE};
use crate::net::{Handler, Interest, LoopCtx, Next};
use monilog_model::ByteLine;
use monilog_model::SourceId;
use std::collections::VecDeque;
use std::ffi::OsString;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bytes read per poll tick, bounding loop stall per tail.
const TAIL_QUANTUM: usize = 256 * 1024;

/// How often a glob tail rescans its directory for new matches.
const GLOB_SCAN_INTERVAL: Duration = Duration::from_millis(200);

/// Tail slots live in the source-id range `[TAIL_SOURCE_BASE,
/// ROUTER_SOURCE_BASE)`; a glob that discovers more files than this stops
/// attaching new ones rather than colliding with router-assigned sources.
pub const MAX_TAIL_SLOTS: usize = (crate::cluster::ROUTER_SOURCE_BASE - TAIL_SOURCE_BASE) as usize;

/// Resume position for one tailed file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TailCursor {
    /// Inode the offset refers to; a mismatch on resume means the file was
    /// rotated and the tail restarts from offset 0 of the new file.
    pub inode: u64,
    /// Byte offset of the next unread line boundary.
    pub offset: u64,
    /// Journal seq of the last line emitted at `offset`.
    pub last_seq: u64,
}

/// One discovered file to tail.
#[derive(Debug, Clone)]
pub(super) struct TailSpec {
    path: PathBuf,
    /// Recovered cursor from the checkpoint manifest, if any.
    resume: Option<TailCursor>,
    /// Lines journaled past the checkpointed cursor (replayed from the
    /// WAL); the tail skips this many lines after seeking.
    skip_lines: u64,
}

/// A tail: `dir/pattern` where the basename may carry `*`/`?` wildcards.
/// The directory part is literal.
#[derive(Debug, Clone)]
pub struct TailGlobSpec {
    /// Full pattern as configured (e.g. `/var/log/app-*.log`).
    pub pattern: PathBuf,
    /// Path-keyed resume state recovered from the checkpoint manifest:
    /// files this glob discovered in a previous life keep their slot,
    /// cursor, and WAL skip count.
    pub known: Vec<GlobResume>,
}

impl TailGlobSpec {
    pub fn new(pattern: impl Into<PathBuf>) -> Self {
        TailGlobSpec {
            pattern: pattern.into(),
            known: Vec::new(),
        }
    }
}

/// Recovered state for one file a glob tail discovered before a restart.
#[derive(Debug, Clone)]
pub struct GlobResume {
    /// The tail slot the file held (its `SourceId` is
    /// `TAIL_SOURCE_BASE + slot`); reusing it keeps journal seqs and
    /// dedup state consistent across restarts.
    pub slot: usize,
    pub path: PathBuf,
    pub resume: TailCursor,
    /// Lines journaled past the cursor (replayed from the WAL) that the
    /// re-opened tail must skip.
    pub skip_lines: u64,
}

/// Match `name` against a basename glob `pattern` supporting `*` (any run,
/// including empty) and `?` (any single byte). Iterative with single-star
/// backtracking — linear in practice, never recursive.
pub fn glob_match(pattern: &str, name: &str) -> bool {
    let p = pattern.as_bytes();
    let n = name.as_bytes();
    let (mut pi, mut ni) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while ni < n.len() {
        if pi < p.len() && (p[pi] == b'?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = pi;
            mark = ni;
            pi += 1;
        } else if star != usize::MAX {
            // Backtrack: let the last `*` swallow one more byte.
            pi = star + 1;
            mark += 1;
            ni = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// Timer-driven directory scanner: discovers files matching a glob and
/// registers a [`FileTailHandler`] for each, at startup and at runtime.
pub(super) struct GlobTailHandler {
    dir: PathBuf,
    /// Basename pattern (`*`/`?` wildcards).
    pattern: String,
    shared: Arc<Shared>,
    known: Vec<GlobResume>,
    /// Basenames already attached (or permanently skipped): a file is
    /// discovered at most once; rotation/truncation of an attached file is
    /// the per-file handler's business.
    seen: std::collections::HashSet<OsString>,
    next_scan: Instant,
}

impl GlobTailHandler {
    pub(super) fn new(spec: TailGlobSpec, shared: Arc<Shared>) -> Self {
        let dir = match spec.pattern.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let pattern = spec
            .pattern
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("*")
            .to_string();
        GlobTailHandler {
            dir,
            pattern,
            shared,
            known: spec.known,
            seen: std::collections::HashSet::new(),
            next_scan: Instant::now(),
        }
    }

    fn scan(&mut self, ctx: &mut LoopCtx<'_>) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return; // directory missing or unreadable; retry next scan
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name_str) = name.to_str() else {
                continue;
            };
            if !glob_match(&self.pattern, name_str) || self.seen.contains(&name) {
                continue;
            }
            let path = self.dir.join(&name);
            // Follow symlinks; only regular files are tailable.
            if !std::fs::metadata(&path)
                .map(|m| m.is_file())
                .unwrap_or(false)
            {
                continue;
            }
            self.seen.insert(name);
            let (slot, resume, skip_lines) = match self.known.iter().position(|k| k.path == path) {
                Some(i) => {
                    let k = self.known.swap_remove(i);
                    (k.slot, Some(k.resume), k.skip_lines)
                }
                None => (
                    self.shared.next_tail_slot.fetch_add(1, Ordering::SeqCst),
                    None,
                    0,
                ),
            };
            if slot >= MAX_TAIL_SLOTS {
                // Source-id space exhausted: the file stays untailed (and
                // `seen`, so the scan does not spin on it).
                crate::metrics::PipelineMetrics::add(&self.shared.metrics.sources_lines_shed, 1);
                continue;
            }
            if let Ok(mut reg) = self.shared.tail_registry.lock() {
                reg.push((slot, path.clone()));
            }
            ctx.register_timer(Box::new(FileTailHandler::new(
                TailSpec {
                    path,
                    resume,
                    skip_lines,
                },
                slot,
                self.shared.clone(),
            )));
        }
    }
}

impl Handler for GlobTailHandler {
    fn ready(&mut self, _r: bool, _w: bool, _ctx: &mut LoopCtx<'_>) -> Next {
        Next::Keep // timer-only: no fd
    }

    fn tick(&mut self, now: Instant, ctx: &mut LoopCtx<'_>) -> Next {
        if now >= self.next_scan {
            self.next_scan = now + GLOB_SCAN_INTERVAL;
            self.scan(ctx);
        }
        Next::Keep
    }

    fn interest(&self) -> Interest {
        Interest::NONE
    }
}

#[cfg(unix)]
fn inode_of(meta: &std::fs::Metadata) -> u64 {
    use std::os::unix::fs::MetadataExt;
    meta.ino()
}

#[cfg(not(unix))]
fn inode_of(_meta: &std::fs::Metadata) -> u64 {
    0 // no rotation detection without inodes; offsets still work
}

pub(super) struct FileTailHandler {
    path: PathBuf,
    source: SourceId,
    index: usize,
    shared: Arc<Shared>,
    file: Option<File>,
    inode: u64,
    /// Offset of the next byte to read (>= line boundary + partial bytes).
    read_offset: u64,
    /// Offset of the last *emitted* line boundary (what cursors carry).
    line_offset: u64,
    partial: Vec<u8>,
    skip: u64,
    resume: Option<TailCursor>,
    /// Lines decoded but refused by a full queue (Block policy): the tail
    /// simply stops reading until these drain.
    pending: VecDeque<(ByteLine, TailCursor)>,
}

impl FileTailHandler {
    pub(super) fn new(spec: TailSpec, index: usize, shared: Arc<Shared>) -> Self {
        FileTailHandler {
            path: spec.path,
            source: SourceId(TAIL_SOURCE_BASE + index as u16),
            index,
            shared,
            file: None,
            inode: 0,
            read_offset: 0,
            line_offset: 0,
            partial: Vec::new(),
            skip: spec.skip_lines,
            resume: spec.resume,
            pending: VecDeque::new(),
        }
    }

    fn flush_pending(&mut self) -> bool {
        while let Some((line, cursor)) = self.pending.pop_front() {
            let ev = SourceEvent {
                source: self.source,
                line,
                cursor: Some((self.index, cursor)),
                seq: None,
            };
            if let Err(ev) = self.shared.push_or_apply_policy(ev, true) {
                let (_, cursor) = ev.cursor.expect("tail event keeps its cursor");
                self.pending.push_front((ev.line, cursor));
                return false;
            }
        }
        true
    }

    /// Open (or re-open after rotation/truncation) the file if needed.
    fn ensure_open(&mut self) -> bool {
        let meta = match std::fs::metadata(&self.path) {
            Ok(m) => m,
            Err(_) => {
                // File missing (rotation gap): finish the old handle if any.
                return self.file.is_some();
            }
        };
        let disk_inode = inode_of(&meta);
        match &self.file {
            Some(_) if disk_inode == self.inode && meta.len() >= self.read_offset => true,
            Some(_) if disk_inode == self.inode => {
                // Truncated in place: restart from the top.
                self.reopen(disk_inode, 0)
            }
            Some(_) => {
                // Rotated: the poll loop reads the old handle to EOF first
                // (self.file still points at the old inode); only swap once
                // the old file is fully consumed.
                true
            }
            None => {
                let start = match self.resume.take() {
                    Some(c) if c.inode == disk_inode && c.offset <= meta.len() => c.offset,
                    Some(_) => {
                        // Rotated (or truncated) while we were down; the
                        // journal already holds what we read of the old
                        // file. Start over on the new one.
                        self.skip = 0;
                        0
                    }
                    None => 0,
                };
                self.reopen(disk_inode, start)
            }
        }
    }

    fn reopen(&mut self, inode: u64, offset: u64) -> bool {
        match File::open(&self.path) {
            Ok(mut f) => {
                if f.seek(SeekFrom::Start(offset)).is_err() {
                    return false;
                }
                self.file = Some(f);
                self.inode = inode;
                self.read_offset = offset;
                self.line_offset = offset;
                self.partial.clear();
                true
            }
            Err(_) => false,
        }
    }

    /// After the current handle hits EOF: swap to a rotated replacement if
    /// one is sitting at `path` with a different inode.
    fn maybe_rotate(&mut self) {
        if let Ok(meta) = std::fs::metadata(&self.path) {
            let disk_inode = inode_of(&meta);
            if disk_inode != self.inode {
                // The partial tail of the rotated-away file never got its
                // newline; it is dropped, mirroring the torn-frame rule.
                if !self.partial.is_empty() {
                    self.partial.clear();
                }
                self.file = None;
                self.skip = 0;
                self.reopen(disk_inode, 0);
            }
        }
    }

    /// Read up to the quantum, emit complete lines. Returns false when the
    /// queue paused us.
    fn poll_file(&mut self) -> bool {
        if !self.ensure_open() {
            return true;
        }
        if self.file.is_none() {
            return true;
        }
        let mut budget = TAIL_QUANTUM;
        let mut chunk = [0u8; 16 * 1024];
        let mut hit_eof = false;
        while budget > 0 {
            let want = budget.min(chunk.len());
            let Some(file) = self.file.as_mut() else {
                break;
            };
            match file.read(&mut chunk[..want]) {
                Ok(0) => {
                    hit_eof = true;
                    break;
                }
                Ok(n) => {
                    budget -= n;
                    self.read_offset += n as u64;
                    self.partial.extend_from_slice(&chunk[..n]);
                    if !self.emit_lines() {
                        return false;
                    }
                }
                Err(_) => break,
            }
        }
        if hit_eof {
            self.maybe_rotate();
        }
        true
    }

    /// Split `partial` at newlines and enqueue the complete lines; the
    /// remainder stays buffered (a half-written line is not ingested until
    /// its newline lands). Returns false when paused by a full queue.
    fn emit_lines(&mut self) -> bool {
        let mut consumed = 0usize;
        let mut paused = false;
        while let Some(rel) = self.partial[consumed..].iter().position(|&b| b == b'\n') {
            let nl = consumed + rel;
            let start = consumed;
            consumed = nl + 1;
            self.line_offset += (consumed - start) as u64;
            if self.skip > 0 {
                self.skip -= 1;
                continue;
            }
            let mut end = nl;
            if end > start && self.partial[end - 1] == b'\r' {
                end -= 1;
            }
            if end == start {
                continue; // empty line
            }
            if end - start > self.shared.max_frame_bytes {
                crate::metrics::PipelineMetrics::add(&self.shared.metrics.sources_frame_errors, 1);
                continue;
            }
            let line = ByteLine::from_string(
                String::from_utf8_lossy(&self.partial[start..end]).into_owned(),
            );
            let cursor = TailCursor {
                inode: self.inode,
                offset: self.line_offset,
                last_seq: 0,
            };
            if self.pending.is_empty() {
                let ev = SourceEvent {
                    source: self.source,
                    line,
                    cursor: Some((self.index, cursor)),
                    seq: None,
                };
                if let Err(ev) = self.shared.push_or_apply_policy(ev, true) {
                    let (_, cursor) = ev.cursor.expect("tail event keeps its cursor");
                    self.pending.push_back((ev.line, cursor));
                    paused = true;
                    break;
                }
            } else {
                self.pending.push_back((line, cursor));
            }
        }
        self.partial.drain(..consumed);
        !paused
    }
}

impl Handler for FileTailHandler {
    fn ready(&mut self, _r: bool, _w: bool, _ctx: &mut LoopCtx<'_>) -> Next {
        Next::Keep // timer-only: no fd
    }

    fn tick(&mut self, _now: Instant, _ctx: &mut LoopCtx<'_>) -> Next {
        if !self.flush_pending() {
            return Next::Keep; // still backpressured; don't read more
        }
        self.poll_file();
        Next::Keep
    }

    fn interest(&self) -> Interest {
        Interest::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::super::{SourceQueue, SourcesConfig, SourcesServer};
    use super::*;
    use crate::observe::MetricsRegistry;
    use std::io::Write;
    use std::time::{Duration, Instant};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "monilog-tail-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    impl TailSpec {
        fn new(path: impl Into<PathBuf>) -> Self {
            TailSpec {
                path: path.into(),
                resume: None,
                skip_lines: 0,
            }
        }
    }

    /// Tail the one file `spec` names, resuming from its cursor.
    fn spawn_tail(spec: TailSpec, queue_capacity: usize) -> (SourcesServer, SourceQueue) {
        let known = spec.resume.map(|resume| GlobResume {
            slot: 0,
            path: spec.path.clone(),
            resume,
            skip_lines: spec.skip_lines,
        });
        let cfg = SourcesConfig {
            tail_globs: vec![TailGlobSpec {
                pattern: spec.path,
                known: known.into_iter().collect(),
            }],
            queue_capacity,
            assumed_year: 2026,
            ..SourcesConfig::default()
        };
        SourcesServer::spawn(cfg, MetricsRegistry::shared_with_shards(1), None, None).unwrap()
    }

    fn drain_for(queue: &SourceQueue, want: usize, secs: u64) -> Vec<SourceEvent> {
        let deadline = Instant::now() + Duration::from_secs(secs);
        let mut got = Vec::new();
        while got.len() < want && Instant::now() < deadline {
            got.extend(queue.recv_batch(64, Duration::from_millis(20)));
        }
        got
    }

    #[test]
    fn tails_appended_lines_with_cursors() {
        let path = temp_path("basic");
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "first").unwrap();
        f.flush().unwrap();

        let (_server, queue) = spawn_tail(TailSpec::new(&path), 128);
        let got = drain_for(&queue, 1, 5);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, "first");
        let (idx, cursor) = got[0].cursor.unwrap();
        assert_eq!(idx, 0);
        assert_eq!(cursor.offset, 6); // "first\n"
        assert_ne!(cursor.inode, 0);

        // Lines appended while tailing are picked up, partial lines are not.
        writeln!(f, "second").unwrap();
        write!(f, "partial-no-newline").unwrap();
        f.flush().unwrap();
        let got = drain_for(&queue, 1, 5);
        assert_eq!(got.len(), 1, "only the complete line arrives");
        assert_eq!(got[0].line, "second");
        assert_eq!(got[0].cursor.unwrap().1.offset, 13);

        writeln!(f).unwrap(); // newline completes the partial
        f.flush().unwrap();
        let got = drain_for(&queue, 1, 5);
        assert_eq!(got[0].line, "partial-no-newline");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_from_cursor_skips_consumed_lines() {
        let path = temp_path("resume");
        let mut f = std::fs::File::create(&path).unwrap();
        for i in 0..10 {
            writeln!(f, "line {i}").unwrap();
        }
        f.flush().unwrap();
        let inode = inode_of(&std::fs::metadata(&path).unwrap());

        // Cursor after "line 4" (5 lines * 7 bytes each), with 2 more lines
        // already recovered from the WAL (skip them too).
        let spec = TailSpec {
            path: path.clone(),
            resume: Some(TailCursor {
                inode,
                offset: 35,
                last_seq: 5,
            }),
            skip_lines: 2,
        };
        let (_server, queue) = spawn_tail(spec, 128);
        let got = drain_for(&queue, 3, 5);
        let lines: Vec<&str> = got.iter().map(|e| e.line.as_str()).collect();
        assert_eq!(lines, vec!["line 7", "line 8", "line 9"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_cursor_from_a_rotated_file_restarts_at_zero() {
        let path = temp_path("stale");
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "fresh contents").unwrap();
        f.flush().unwrap();

        let spec = TailSpec {
            path: path.clone(),
            resume: Some(TailCursor {
                inode: 0xdead_beef,
                offset: 999,
                last_seq: 4,
            }),
            skip_lines: 3,
        };
        let (_server, queue) = spawn_tail(spec, 128);
        let got = drain_for(&queue, 1, 5);
        assert_eq!(got.len(), 1, "stale cursor must fall back to a full read");
        assert_eq!(got[0].line, "fresh contents");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rotation_is_followed_to_the_new_inode() {
        let path = temp_path("rotate");
        let rotated = temp_path("rotate-old");
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "before rotation").unwrap();
        f.flush().unwrap();

        let (_server, queue) = spawn_tail(TailSpec::new(&path), 128);
        let got = drain_for(&queue, 1, 5);
        assert_eq!(got[0].line, "before rotation");
        let old_inode = got[0].cursor.unwrap().1.inode;

        // logrotate-style: rename away, create fresh at the same path.
        drop(f);
        std::fs::rename(&path, &rotated).unwrap();
        let mut f2 = std::fs::File::create(&path).unwrap();
        writeln!(f2, "after rotation").unwrap();
        f2.flush().unwrap();

        let got = drain_for(&queue, 1, 10);
        assert_eq!(got.len(), 1, "tail must follow the rotation");
        assert_eq!(got[0].line, "after rotation");
        assert_ne!(got[0].cursor.unwrap().1.inode, old_inode);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);
    }

    #[test]
    fn glob_match_covers_star_and_question() {
        assert!(glob_match("*", "anything.log"));
        assert!(glob_match("app-*.log", "app-1.log"));
        assert!(glob_match("app-*.log", "app-.log"));
        assert!(glob_match("app-*.log", "app-very-long-suffix.log"));
        assert!(!glob_match("app-*.log", "app-1.txt"));
        assert!(!glob_match("app-*.log", "web-1.log"));
        assert!(glob_match("?.log", "a.log"));
        assert!(!glob_match("?.log", "ab.log"));
        assert!(glob_match("a*b*c", "a-x-b-y-c"));
        assert!(!glob_match("a*b*c", "a-x-b-y"));
        assert!(glob_match("**", "x"));
        assert!(glob_match("*", ""));
        assert!(!glob_match("?", ""));
        // `*` must backtrack past a premature literal match.
        assert!(glob_match("*.tar.gz", "backup.tar.tar.gz"));
    }

    #[test]
    fn glob_discovers_files_at_runtime_with_distinct_slots() {
        let dir = std::env::temp_dir().join(format!(
            "monilog-glob-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("app-a.log");
        let mut fa = std::fs::File::create(&a).unwrap();
        writeln!(fa, "from a").unwrap();
        fa.flush().unwrap();
        // A non-matching neighbour must be ignored.
        std::fs::write(dir.join("other.txt"), b"nope\n").unwrap();

        let cfg = SourcesConfig {
            tail_globs: vec![TailGlobSpec::new(dir.join("app-*.log"))],
            queue_capacity: 128,
            assumed_year: 2026,
            ..SourcesConfig::default()
        };
        let (server, queue) =
            SourcesServer::spawn(cfg, MetricsRegistry::shared_with_shards(1), None, None).unwrap();

        let got = drain_for(&queue, 1, 5);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, "from a");
        let (slot_a, _) = got[0].cursor.unwrap();

        // A file created while the server runs is discovered and tailed.
        let b = dir.join("app-b.log");
        let mut fb = std::fs::File::create(&b).unwrap();
        writeln!(fb, "from b").unwrap();
        fb.flush().unwrap();
        let got = drain_for(&queue, 1, 10);
        assert_eq!(got.len(), 1, "runtime-created file must be discovered");
        assert_eq!(got[0].line, "from b");
        let (slot_b, _) = got[0].cursor.unwrap();
        assert_ne!(slot_a, slot_b, "each discovered file gets its own slot");

        // The registry exposes both discovered paths, keyed by slot.
        let paths = server.tail_paths();
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().any(|(s, p)| *s == slot_a && *p == a));
        assert!(paths.iter().any(|(s, p)| *s == slot_b && *p == b));

        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn glob_resume_reuses_the_recovered_slot_and_cursor() {
        let dir = std::env::temp_dir().join(format!(
            "monilog-glob-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("svc-0.log");
        let mut f = std::fs::File::create(&path).unwrap();
        for i in 0..6 {
            writeln!(f, "line {i}").unwrap();
        }
        f.flush().unwrap();
        let inode = inode_of(&std::fs::metadata(&path).unwrap());

        // A previous life tailed this file at slot 5 and checkpointed a
        // cursor after "line 2" (3 lines * 7 bytes), with one more line in
        // the WAL past the cursor.
        let cfg = SourcesConfig {
            tail_globs: vec![TailGlobSpec {
                pattern: dir.join("svc-*.log"),
                known: vec![GlobResume {
                    slot: 5,
                    path: path.clone(),
                    resume: TailCursor {
                        inode,
                        offset: 21,
                        last_seq: 3,
                    },
                    skip_lines: 1,
                }],
            }],
            queue_capacity: 128,
            assumed_year: 2026,
            ..SourcesConfig::default()
        };
        let (_server, queue) =
            SourcesServer::spawn(cfg, MetricsRegistry::shared_with_shards(1), None, None).unwrap();
        let got = drain_for(&queue, 2, 5);
        let lines: Vec<&str> = got.iter().map(|e| e.line.as_str()).collect();
        assert_eq!(lines, vec!["line 4", "line 5"]);
        assert_eq!(got[0].cursor.unwrap().0, 5, "recovered slot is reused");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_restarts_from_the_top() {
        let path = temp_path("trunc");
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "long line before truncation").unwrap();
        f.flush().unwrap();

        let (_server, queue) = spawn_tail(TailSpec::new(&path), 128);
        assert_eq!(
            drain_for(&queue, 1, 5)[0].line,
            "long line before truncation"
        );

        drop(f);
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        writeln!(f, "tiny").unwrap();
        f.flush().unwrap();

        let got = drain_for(&queue, 1, 10);
        assert_eq!(got.len(), 1, "truncation must re-read from offset 0");
        assert_eq!(got[0].line, "tiny");
        let _ = std::fs::remove_file(&path);
    }
}
