//! Header parsing (Fig. 2 of the paper).
//!
//! "A log can be divided into two parts: a HEADER, composed of different
//! fields such as timestamp, criticality level, source, etc. \[and\] a
//! MESSAGE, which is a text field without format constraint."
//!
//! Header fields are "already structured according to a predefined format",
//! so — unlike message parsing — header parsing is configuration, not
//! learning. [`HeaderFormat`] describes a source's header layout;
//! [`parse_header`] splits a raw line into [`LogHeader`] + message.

use crate::log::{LogHeader, LogRecord, RawLog};
use crate::severity::Severity;
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Layout of a source's log-line header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HeaderFormat {
    /// `<timestamp> - <component> - <LEVEL> - <message>` — the layout of the
    /// paper's Fig. 2 example and of the synthetic generators.
    #[default]
    DashSeparated,
    /// `<timestamp> <LEVEL> <component>: <message>` — a syslog-like layout,
    /// to exercise multi-format ingestion.
    SyslogLike,
    /// No header: the whole line is the message. Timestamp and level come
    /// from the collector. Used for sources that ship bare messages.
    Bare,
}

impl HeaderFormat {
    /// The `--format` name of each layout.
    pub const NAMES: [(&'static str, HeaderFormat); 3] = [
        ("dash", HeaderFormat::DashSeparated),
        ("syslog", HeaderFormat::SyslogLike),
        ("bare", HeaderFormat::Bare),
    ];

    /// This layout's `--format` name.
    pub fn name(self) -> &'static str {
        let named = Self::NAMES.iter().find(|(_, f)| *f == self);
        named.expect("every layout is named").0
    }
}

/// Why a header failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderParseError {
    /// The line does not contain the expected field separators.
    MissingFields,
    /// The timestamp field did not match `YYYY-MM-DD HH:MM:SS,mmm`.
    BadTimestamp,
}

impl fmt::Display for HeaderParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderParseError::MissingFields => f.write_str("header is missing fields"),
            HeaderParseError::BadTimestamp => f.write_str("header timestamp is malformed"),
        }
    }
}

impl std::error::Error for HeaderParseError {}

/// Parse a raw line into a structured record according to `format`.
///
/// For [`HeaderFormat::Bare`] the caller supplies `fallback_ts`, the
/// collector-side arrival time.
pub fn parse_header(
    raw: &RawLog,
    format: &HeaderFormat,
    fallback_ts: Timestamp,
) -> Result<LogRecord, HeaderParseError> {
    // The message is always a suffix of the line, so it is carved out of
    // the arrival buffer (`ByteLine::slice_of`) rather than copied — the
    // first allocation-free hop of the zero-copy hot path.
    let (header, message) = match format {
        HeaderFormat::DashSeparated => {
            let (header, msg) = parse_dash_separated(&raw.line)?;
            (header, raw.line.slice_of(msg))
        }
        HeaderFormat::SyslogLike => {
            let (header, msg) = parse_syslog_like(&raw.line)?;
            (header, raw.line.slice_of(msg))
        }
        HeaderFormat::Bare => (
            LogHeader::new(fallback_ts, "", Severity::Unknown),
            raw.line.clone(),
        ),
    };
    Ok(LogRecord {
        source: raw.source,
        seq: raw.seq,
        header,
        message,
    })
}

fn parse_dash_separated(line: &str) -> Result<(LogHeader, &str), HeaderParseError> {
    // `2020-03-19 15:38:55,977 - serviceManager - INFO - <message>`
    // The timestamp itself contains dashes, so split on " - " instead.
    let ts_end = 23;
    if line.len() < ts_end {
        return Err(HeaderParseError::MissingFields);
    }
    let timestamp =
        Timestamp::parse_log_format(line.get(..ts_end).ok_or(HeaderParseError::MissingFields)?)
            .ok_or(HeaderParseError::BadTimestamp)?;
    let rest = line[ts_end..]
        .strip_prefix(" - ")
        .ok_or(HeaderParseError::MissingFields)?;
    let (component, rest) = rest
        .split_once(" - ")
        .ok_or(HeaderParseError::MissingFields)?;
    let (level, message) = rest
        .split_once(" - ")
        .ok_or(HeaderParseError::MissingFields)?;
    let level: Severity = level.parse().expect("severity parsing is infallible");
    Ok((LogHeader::new(timestamp, component, level), message))
}

fn parse_syslog_like(line: &str) -> Result<(LogHeader, &str), HeaderParseError> {
    // `2020-03-19 15:38:55,977 INFO serviceManager: <message>`
    let ts_end = 23;
    if line.len() < ts_end {
        return Err(HeaderParseError::MissingFields);
    }
    let ts_text = line.get(..ts_end).ok_or(HeaderParseError::MissingFields)?;
    let timestamp = Timestamp::parse_log_format(ts_text).ok_or(HeaderParseError::BadTimestamp)?;
    let rest = line[ts_end..]
        .strip_prefix(' ')
        .ok_or(HeaderParseError::MissingFields)?;
    let (level, rest) = rest
        .split_once(' ')
        .ok_or(HeaderParseError::MissingFields)?;
    let (component, message) = rest
        .split_once(": ")
        .ok_or(HeaderParseError::MissingFields)?;
    let level: Severity = level.parse().expect("severity parsing is infallible");
    Ok((LogHeader::new(timestamp, component, level), message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::SourceId;

    fn raw(line: &str) -> RawLog {
        RawLog::new(SourceId(0), 0, line)
    }

    #[test]
    fn parses_fig2_example() {
        // Fig. 2 of the paper: the line decomposes into the four fields shown.
        let line = "2020-03-19 15:38:55,977 - serviceManager - INFO - \
                    New process started: process x92 started on port 42";
        let rec = parse_header(&raw(line), &HeaderFormat::DashSeparated, Timestamp::EPOCH).unwrap();
        assert_eq!(
            rec.header.timestamp.to_log_format(),
            "2020-03-19 15:38:55,977"
        );
        assert_eq!(rec.header.component, "serviceManager");
        assert_eq!(rec.header.level, Severity::Info);
        assert_eq!(
            rec.message,
            "New process started: process x92 started on port 42"
        );
    }

    #[test]
    fn dash_round_trip() {
        let line = "2021-01-02 03:04:05,006 - net - ERROR - connection reset by peer";
        let rec = parse_header(&raw(line), &HeaderFormat::DashSeparated, Timestamp::EPOCH).unwrap();
        assert_eq!(rec.to_line(), line);
    }

    #[test]
    fn message_containing_separator_survives() {
        // " - " inside the message must not confuse field splitting beyond
        // the first three separators.
        let line = "2021-01-02 03:04:05,006 - app - INFO - phase a - phase b done";
        let rec = parse_header(&raw(line), &HeaderFormat::DashSeparated, Timestamp::EPOCH).unwrap();
        assert_eq!(rec.message, "phase a - phase b done");
    }

    #[test]
    fn parses_syslog_like() {
        let line = "2021-06-01 10:00:00,500 WARNING scheduler: queue depth 900 exceeds soft limit";
        let rec = parse_header(&raw(line), &HeaderFormat::SyslogLike, Timestamp::EPOCH).unwrap();
        assert_eq!(rec.header.component, "scheduler");
        assert_eq!(rec.header.level, Severity::Warning);
        assert_eq!(rec.message, "queue depth 900 exceeds soft limit");
    }

    #[test]
    fn bare_uses_fallback_timestamp() {
        let ts = Timestamp::from_millis(1234);
        let rec = parse_header(&raw("free text only"), &HeaderFormat::Bare, ts).unwrap();
        assert_eq!(rec.header.timestamp, ts);
        assert_eq!(rec.header.level, Severity::Unknown);
        assert_eq!(rec.message, "free text only");
    }

    #[test]
    fn rejects_malformed_lines() {
        for line in ["", "short", "2020-03-19 15:38:55,977 no separators here"] {
            assert!(
                parse_header(&raw(line), &HeaderFormat::DashSeparated, Timestamp::EPOCH).is_err(),
                "accepted {line:?}"
            );
        }
        assert_eq!(
            parse_header(
                &raw("20XX-03-19 15:38:55,977 - a - INFO - msg"),
                &HeaderFormat::DashSeparated,
                Timestamp::EPOCH
            )
            .unwrap_err(),
            HeaderParseError::BadTimestamp
        );
    }

    #[test]
    fn unknown_level_is_tolerated() {
        let line = "2021-06-01 10:00:00,500 - app - WEIRD - message body";
        let rec = parse_header(&raw(line), &HeaderFormat::DashSeparated, Timestamp::EPOCH).unwrap();
        assert_eq!(rec.header.level, Severity::Unknown);
    }
}
