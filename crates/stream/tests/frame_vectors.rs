//! Byte-level pins for every `[len u32 LE][crc32 u32 LE][payload]` frame
//! the system writes: a WAL segment, a delivery-buffer file, a framed-TCP
//! sink frame and an MLCW `Ack` frame, all encoded by
//! `monilog_model::codec::put_frame`. Bytes on disk and on the wire must
//! not move without a format version bump.

use monilog_model::{DeliveryClass, RawLog, SourceId};
use monilog_stream::cluster::{encode_frame, FrameReader, Message};
use monilog_stream::sinks::{encode_report_payload, read_frame, write_frame};
use monilog_stream::{BufferedReport, DeliveryBuffer, Journal, JournalConfig};
use std::path::PathBuf;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "monilog-frame-vectors-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn reports() -> Vec<BufferedReport> {
    vec![
        BufferedReport {
            id: 1,
            class: DeliveryClass::Page,
            body: "{\"id\":1}".into(),
        },
        BufferedReport {
            id: 258,
            class: DeliveryClass::Log,
            body: "{\"id\":258,\"x\":\"h\u{e9}llo\"}".into(),
        },
    ]
}

const JOURNAL_SEGMENT: &str = concat!(
    "4d4c574a01000300070000000000000011000000c7afe1770700000000000000",
    "68656c6c6f2077616c17000000d830632208000000000000007365636f6e6420",
    "e28094206c696e65",
);
const BUFFER_FILE: &str = concat!(
    "4d4c444201000000000000000000000011000000521d366f0100000000000000",
    "007b226964223a317d2000000008ad40f20201000000000000027b226964223a",
    "3235382c2278223a2268c3a96c6c6f227d",
);
const SINK_FRAMES: &str = concat!(
    "11000000521d366f0100000000000000007b226964223a317d2000000008ad40",
    "f20201000000000000027b226964223a3235382c2278223a2268c3a96c6c6f22",
    "7d0000000000000000",
);
const ACK_FRAME: &str = "0f000000bc30a69b4d4c43570100040403020100000000";

#[test]
fn journal_segment_bytes_are_pinned() {
    let dir = tmp("journal");
    let mut journal = Journal::open(&dir, JournalConfig::default()).unwrap();
    journal
        .append(&RawLog::new(SourceId(3), 7, "hello wal"))
        .unwrap();
    journal
        .append(&RawLog::new(SourceId(3), 8, "second \u{2014} line"))
        .unwrap();
    journal.sync().unwrap();
    let segment = dir.join(format!("src3-{:020}.wal", 7));
    let bytes = std::fs::read(&segment).unwrap();
    assert_eq!(hex(&bytes), JOURNAL_SEGMENT);
    let replayed = Journal::replay_after(&dir, &[]).unwrap();
    assert_eq!(replayed.len(), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn delivery_buffer_bytes_are_pinned() {
    let dir = tmp("buffer");
    let path = dir.join("route.buf");
    let mut buffer = DeliveryBuffer::open(&path, None).unwrap();
    buffer.append(&reports()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(hex(&bytes), BUFFER_FILE);
    let (peeked, _) = buffer.peek(10).unwrap();
    assert_eq!(peeked, reports());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sink_frame_bytes_are_pinned() {
    let mut wire = Vec::new();
    for r in &reports() {
        write_frame(&mut wire, &encode_report_payload(r)).unwrap();
    }
    write_frame(&mut wire, &[]).unwrap(); // ping
    assert_eq!(hex(&wire), SINK_FRAMES);
    let mut cursor = &wire[..];
    for r in &reports() {
        assert_eq!(
            read_frame(&mut cursor).unwrap().unwrap(),
            encode_report_payload(r)
        );
    }
    assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), Vec::<u8>::new());
}

#[test]
fn mlcw_ack_frame_bytes_are_pinned() {
    let frame = encode_frame(&Message::Ack {
        batch_id: 0x0102_0304,
    });
    assert_eq!(hex(&frame), ACK_FRAME);
    let mut reader = FrameReader::new();
    reader.extend(&frame);
    assert_eq!(
        reader.next_message().unwrap(),
        Some(Message::Ack {
            batch_id: 0x0102_0304
        })
    );
}
