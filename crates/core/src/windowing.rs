//! Online window assembly.
//!
//! Detection operates on windows; a streaming pipeline must *close*
//! windows as data flows. Two policies:
//! - [`WindowPolicy::Session`] — group by derived session key, close a
//!   session once it has been idle for `idle_ms` (watermark time) or grew
//!   past `max_events`.
//! - [`WindowPolicy::Tumbling`] — fixed-size windows over the merged
//!   stream, the fallback when no session key exists (multi-source mixed
//!   streams, experiment P3).

use monilog_detect::Window;
use monilog_model::hash::FnvBuild;
use monilog_model::{CodecError, Decoder, Encoder, LogEvent, SourceId, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// How the pipeline cuts the event stream into detection windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowPolicy {
    /// Session windows keyed by [`LogEvent::session`]; events without a
    /// session fall back to per-source tumbling.
    Session { idle_ms: u64, max_events: usize },
    /// Fixed-size tumbling windows over the whole stream.
    Tumbling { size: usize },
}

/// A closed window plus the events that formed it (for anomaly reports).
#[derive(Debug, Clone)]
pub struct ClosedWindow {
    pub window: Window,
    pub events: Vec<LogEvent>,
}

/// Stateful window assembler.
#[derive(Debug)]
pub struct WindowAssembler {
    policy: WindowPolicy,
    /// Open sessions: key → (events, last activity).
    sessions: HashMap<String, (Vec<LogEvent>, Timestamp), FnvBuild>,
    /// Buffer for the explicit tumbling policy (whole merged stream).
    buffer: Vec<LogEvent>,
    /// Per-source side buffers for sessionless events under the session
    /// policy. Keyed by source so a fleet monitor serving many sources
    /// closes the same windows as one monitor per source — merging
    /// sessionless events across sources would make window contents
    /// depend on how sources are distributed over the fleet. BTreeMap so
    /// sweeps and flushes close buffers in deterministic source order.
    side: BTreeMap<SourceId, (Vec<LogEvent>, Timestamp)>,
    /// Lower bound on the least-recent activity among open sessions, or
    /// `None` when no sessions are open. Activity only ever raises a
    /// session's `last`, so the bound can go stale-low (triggering a
    /// harmless early sweep that recomputes it) but never stale-high —
    /// the idle sweep still fires on exactly the event it always did,
    /// without walking every open session on every line.
    sweep_floor: Option<Timestamp>,
}

impl WindowAssembler {
    pub fn new(policy: WindowPolicy) -> Self {
        if let WindowPolicy::Tumbling { size } = policy {
            assert!(size >= 1, "tumbling windows need size >= 1");
        }
        WindowAssembler {
            policy,
            sessions: HashMap::default(),
            buffer: Vec::new(),
            side: BTreeMap::new(),
            sweep_floor: None,
        }
    }

    /// Number of currently open sessions / buffered events.
    pub fn open_count(&self) -> usize {
        self.sessions.len() + self.side.len() + usize::from(!self.buffer.is_empty())
    }

    /// Feed one event (watermark = event time, monotone after the reorder
    /// buffer); returns any windows this event closed.
    pub fn push(&mut self, event: LogEvent) -> Vec<ClosedWindow> {
        let now = event.timestamp;
        let mut closed = Vec::new();
        match self.policy {
            WindowPolicy::Tumbling { size } => {
                self.buffer.push(event);
                if self.buffer.len() >= size {
                    closed.push(Self::close(std::mem::take(&mut self.buffer)));
                }
            }
            WindowPolicy::Session {
                idle_ms,
                max_events,
            } => {
                match event.session.clone() {
                    Some(key) => match self.sessions.get_mut(key.0.as_str()) {
                        Some(entry) => {
                            entry.0.push(event);
                            entry.1 = now;
                            if entry.0.len() >= max_events {
                                let (events, _) =
                                    self.sessions.remove(key.0.as_str()).expect("just updated");
                                closed.push(Self::close(events));
                            }
                        }
                        None => {
                            self.sweep_floor = Some(match self.sweep_floor {
                                Some(f) => f.min(now),
                                None => now,
                            });
                            self.sessions.insert(key.0, (vec![event], now));
                        }
                    },
                    None => {
                        // Sessionless events tumble in a per-source side
                        // buffer.
                        let source = event.source;
                        let entry = self.side.entry(source).or_insert_with(|| (Vec::new(), now));
                        entry.0.push(event);
                        entry.1 = now;
                        if entry.0.len() >= max_events {
                            let (events, _) = self.side.remove(&source).expect("just updated");
                            closed.push(Self::close(events));
                        }
                    }
                }
                // Idle-session sweep, gated on the activity floor: the
                // floor is ≤ every open session's `last`, so the gate
                // opens on (at latest) the first event any session truly
                // expires at — the sweep below then closes exactly the
                // sessions the ungated scan would have. Sorted so that
                // multiple sessions expiring on the same event close in a
                // deterministic order — report ids must be reproducible
                // across a crash replay for the durable pipeline's
                // exactly-once dedup.
                let sweep_due = self
                    .sweep_floor
                    .is_some_and(|f| now.millis_since(f) > idle_ms);
                if sweep_due {
                    let mut expired: Vec<String> = self
                        .sessions
                        .iter()
                        .filter(|(_, (_, last))| now.millis_since(*last) > idle_ms)
                        .map(|(k, _)| k.clone())
                        .collect();
                    expired.sort();
                    for key in expired {
                        let (events, _) = self.sessions.remove(&key).expect("listed");
                        closed.push(Self::close(events));
                    }
                    self.sweep_floor = self.sessions.values().map(|(_, last)| *last).min();
                }
                // The sessionless side buffers expire on idle too — a
                // trailing partial window must not sit open until
                // max_events or final flush, delaying anomaly reports.
                let idle_sources: Vec<SourceId> = self
                    .side
                    .iter()
                    .filter(|(_, (_, last))| now.millis_since(*last) > idle_ms)
                    .map(|(s, _)| *s)
                    .collect();
                for source in idle_sources {
                    let (events, _) = self.side.remove(&source).expect("listed");
                    closed.push(Self::close(events));
                }
            }
        }
        closed
    }

    /// Silently drop every open session containing events from `source`,
    /// plus its sessionless side buffer. This is the
    /// cluster revocation path: a monitor that lost a source to failover
    /// must not later emit reports from recovered half-windows — the new
    /// owner rebuilds those windows in full. Returns dropped sessions
    /// (counting the side buffer as one when it was touched).
    pub fn discard_source(&mut self, source: monilog_model::SourceId) -> usize {
        let doomed: Vec<String> = self
            .sessions
            .iter()
            .filter(|(_, (events, _))| events.iter().any(|e| e.source == source))
            .map(|(k, _)| k.clone())
            .collect();
        let mut dropped = doomed.len();
        for key in &doomed {
            self.sessions.remove(key);
        }
        if self.side.remove(&source).is_some() {
            dropped += 1;
        }
        let before = self.buffer.len();
        self.buffer.retain(|e| e.source != source);
        if self.buffer.len() < before {
            dropped += 1;
        }
        self.sweep_floor = self.sessions.values().map(|(_, last)| *last).min();
        dropped
    }

    /// Close everything still open (end of stream).
    pub fn flush(&mut self) -> Vec<ClosedWindow> {
        let mut closed: Vec<ClosedWindow> = Vec::new();
        let mut keys: Vec<String> = self.sessions.keys().cloned().collect();
        keys.sort(); // deterministic flush order
        for key in keys {
            let (events, _) = self.sessions.remove(&key).expect("listed");
            closed.push(Self::close(events));
        }
        for (_, (events, _)) in std::mem::take(&mut self.side) {
            closed.push(Self::close(events));
        }
        if !self.buffer.is_empty() {
            closed.push(Self::close(std::mem::take(&mut self.buffer)));
        }
        closed
    }

    /// Serialize open sessions, the per-source sessionless buffers, the
    /// tumbling buffer, and their activity timestamps for the durable
    /// checkpoint (`WNDA` v2). Sessions are encoded in key order (and
    /// side buffers in source order) so identical assemblers export
    /// identical bytes.
    pub fn export_state(&self) -> Vec<u8> {
        let mut e = Encoder::with_header(*b"WNDA", 2);
        let mut keys: Vec<&String> = self.sessions.keys().collect();
        keys.sort();
        e.put_len(keys.len());
        for key in keys {
            let (events, last) = &self.sessions[key];
            e.put_str(key);
            e.put_u64(last.as_millis());
            e.put_len(events.len());
            for ev in events {
                ev.encode_into(&mut e);
            }
        }
        e.put_len(self.side.len());
        for (source, (events, last)) in &self.side {
            e.put_u64(source.0 as u64);
            e.put_u64(last.as_millis());
            e.put_len(events.len());
            for ev in events {
                ev.encode_into(&mut e);
            }
        }
        e.put_len(self.buffer.len());
        for ev in &self.buffer {
            ev.encode_into(&mut e);
        }
        e.finish()
    }

    /// Rebuild an assembler from [`WindowAssembler::export_state`] bytes.
    /// The restored assembler closes the same windows at the same points
    /// in the event stream as the original would have.
    pub fn import_state(policy: WindowPolicy, bytes: &[u8]) -> Result<WindowAssembler, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(*b"WNDA", 2)?;
        let n_sessions = d.get_len()?;
        let mut sessions: HashMap<String, (Vec<LogEvent>, Timestamp), FnvBuild> =
            HashMap::with_capacity_and_hasher(n_sessions, FnvBuild::default());
        for _ in 0..n_sessions {
            let key = d.get_str()?;
            let last = Timestamp::from_millis(d.get_u64()?);
            let n_events = d.get_len()?;
            let mut events = Vec::with_capacity(n_events);
            for _ in 0..n_events {
                events.push(LogEvent::decode_from(&mut d)?);
            }
            sessions.insert(key, (events, last));
        }
        let n_side = d.get_len()?;
        let mut side: BTreeMap<SourceId, (Vec<LogEvent>, Timestamp)> = BTreeMap::new();
        for _ in 0..n_side {
            let source =
                SourceId(u16::try_from(d.get_u64()?).map_err(|_| {
                    CodecError::Corrupt("side buffer source id does not fit in u16")
                })?);
            let last = Timestamp::from_millis(d.get_u64()?);
            let n_events = d.get_len()?;
            let mut events = Vec::with_capacity(n_events);
            for _ in 0..n_events {
                events.push(LogEvent::decode_from(&mut d)?);
            }
            side.insert(source, (events, last));
        }
        let n_buffer = d.get_len()?;
        let mut buffer = Vec::with_capacity(n_buffer);
        for _ in 0..n_buffer {
            buffer.push(LogEvent::decode_from(&mut d)?);
        }
        if !d.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes after assembler state"));
        }
        let mut assembler = WindowAssembler::new(policy);
        assembler.sweep_floor = sessions.values().map(|(_, last)| *last).min();
        assembler.sessions = sessions;
        assembler.side = side;
        assembler.buffer = buffer;
        Ok(assembler)
    }

    fn close(events: Vec<LogEvent>) -> ClosedWindow {
        let window = Window {
            sequence: events.iter().map(|e| e.template.0).collect(),
            numerics: events
                .iter()
                .map(|e| e.numeric_values().collect())
                .collect(),
        };
        ClosedWindow { window, events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_model::{EventId, SessionKey, Severity, SourceId, TemplateId};

    fn event(ts: u64, template: u32, session: Option<&str>) -> LogEvent {
        LogEvent::new(
            EventId(ts),
            Timestamp::from_millis(ts),
            SourceId(0),
            Severity::Info,
            TemplateId(template),
            vec!["42".into()],
            session.map(|s| SessionKey(s.to_string())),
        )
    }

    #[test]
    fn tumbling_closes_at_size() {
        let mut a = WindowAssembler::new(WindowPolicy::Tumbling { size: 3 });
        assert!(a.push(event(1, 0, None)).is_empty());
        assert!(a.push(event(2, 1, None)).is_empty());
        let closed = a.push(event(3, 2, None));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].window.sequence, vec![0, 1, 2]);
        assert_eq!(closed[0].window.numerics[0], vec![42.0]);
        assert_eq!(a.open_count(), 0);
    }

    #[test]
    fn sessions_close_on_idle() {
        let mut a = WindowAssembler::new(WindowPolicy::Session {
            idle_ms: 100,
            max_events: 100,
        });
        a.push(event(0, 0, Some("s1")));
        a.push(event(50, 1, Some("s1")));
        // A much later event on another session expires s1.
        let closed = a.push(event(500, 9, Some("s2")));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].window.sequence, vec![0, 1]);
        assert_eq!(a.open_count(), 1, "s2 still open");
    }

    #[test]
    fn sessions_close_on_max_events() {
        let mut a = WindowAssembler::new(WindowPolicy::Session {
            idle_ms: 1_000_000,
            max_events: 2,
        });
        assert!(a.push(event(1, 0, Some("s"))).is_empty());
        let closed = a.push(event(2, 1, Some("s")));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].window.sequence, vec![0, 1]);
    }

    #[test]
    fn interleaved_sessions_stay_separate() {
        let mut a = WindowAssembler::new(WindowPolicy::Session {
            idle_ms: 1_000,
            max_events: 100,
        });
        a.push(event(1, 0, Some("a")));
        a.push(event(2, 10, Some("b")));
        a.push(event(3, 1, Some("a")));
        a.push(event(4, 11, Some("b")));
        let mut closed = a.flush();
        closed.sort_by_key(|c| c.window.sequence[0]);
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].window.sequence, vec![0, 1]);
        assert_eq!(closed[1].window.sequence, vec![10, 11]);
    }

    #[test]
    fn sessionless_events_fall_back_to_buffer() {
        let mut a = WindowAssembler::new(WindowPolicy::Session {
            idle_ms: 100,
            max_events: 2,
        });
        assert!(a.push(event(1, 0, None)).is_empty());
        let closed = a.push(event(2, 1, None));
        assert_eq!(closed.len(), 1);
    }

    #[test]
    fn sessionless_buffer_closes_on_idle() {
        // Regression: the sessionless side buffer used to be exempt from
        // the idle sweep, so a trailing partial window stayed open until
        // max_events or final flush.
        let mut a = WindowAssembler::new(WindowPolicy::Session {
            idle_ms: 100,
            max_events: 100,
        });
        a.push(event(0, 0, None));
        a.push(event(50, 1, None));
        // Watermark advances far past the buffer's last activity via a
        // *sessioned* event: the idle buffer must close like a session.
        let closed = a.push(event(500, 9, Some("s1")));
        assert_eq!(closed.len(), 1, "idle sessionless buffer closes");
        assert_eq!(closed[0].window.sequence, vec![0, 1]);
        assert_eq!(a.open_count(), 1, "s1 still open");
        // A sessionless event exactly at the idle bound does not close
        // (strictly-greater semantics, matching named sessions).
        let mut b = WindowAssembler::new(WindowPolicy::Session {
            idle_ms: 100,
            max_events: 100,
        });
        b.push(event(0, 0, None));
        assert!(b.push(event(100, 1, None)).is_empty());
        assert_eq!(b.open_count(), 1);
    }

    #[test]
    fn export_import_state_resumes_identically() {
        let policy = WindowPolicy::Session {
            idle_ms: 100,
            max_events: 4,
        };
        let mut original = WindowAssembler::new(policy);
        let mut shadow = WindowAssembler::new(policy);
        for (ts, tpl, session) in [
            (0u64, 0u32, Some("s1")),
            (10, 1, Some("s2")),
            (20, 2, None),
            (30, 3, Some("s1")),
        ] {
            original.push(event(ts, tpl, session));
            shadow.push(event(ts, tpl, session));
        }
        let bytes = original.export_state();
        let mut restored = WindowAssembler::import_state(policy, &bytes).expect("import");
        assert_eq!(restored.open_count(), shadow.open_count());
        // The continuation closes s1 by max_events, expires s2 and the
        // sessionless buffer by idle — all must match the uninterrupted
        // assembler, windows and events alike.
        let continuation = [
            (40u64, 4u32, Some("s1")),
            (50, 5, Some("s1")),
            (400, 6, Some("s3")),
        ];
        for (ts, tpl, session) in continuation {
            let a = restored.push(event(ts, tpl, session));
            let b = shadow.push(event(ts, tpl, session));
            assert_eq!(a.len(), b.len(), "close count at ts {ts}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.window, y.window);
                assert_eq!(x.events, y.events);
            }
        }
        // Export determinism + corrupt-input safety.
        assert_eq!(restored.export_state(), shadow.export_state());
        for cut in 0..bytes.len() {
            assert!(
                WindowAssembler::import_state(policy, &bytes[..cut]).is_err(),
                "prefix of {cut} bytes imported"
            );
        }
    }

    #[test]
    fn restored_sessions_expire_without_new_session_activity() {
        // The idle sweep is gated on `sweep_floor`, which is seeded by
        // new-session inserts. After a restore the continuation may
        // never insert a new session (here: sessionless traffic only),
        // so `import_state` must derive the floor from the restored
        // sessions or they would stay open forever.
        let policy = WindowPolicy::Session {
            idle_ms: 100,
            max_events: 100,
        };
        let mut original = WindowAssembler::new(policy);
        original.push(event(0, 0, Some("s1")));
        original.push(event(10, 1, Some("s2")));
        let bytes = original.export_state();
        let mut restored = WindowAssembler::import_state(policy, &bytes).expect("import");
        let closed = restored.push(event(500, 9, None));
        assert_eq!(closed.len(), 2, "both restored sessions expire");
        assert_eq!(restored.open_count(), 1, "only the new buffer is open");
    }

    #[test]
    fn flush_is_deterministic_and_complete() {
        let mut a = WindowAssembler::new(WindowPolicy::Session {
            idle_ms: 1_000,
            max_events: 100,
        });
        for (i, s) in ["z", "a", "m"].iter().enumerate() {
            a.push(event(i as u64, i as u32, Some(s)));
        }
        let closed = a.flush();
        assert_eq!(closed.len(), 3);
        // Sorted by key: a, m, z.
        assert_eq!(closed[0].window.sequence, vec![1]);
        assert_eq!(closed[1].window.sequence, vec![2]);
        assert_eq!(closed[2].window.sequence, vec![0]);
        assert_eq!(a.open_count(), 0);
    }
}
