//! The traced run: every layer's **public** functions over one
//! workload's corpus, in the order the monitor composes them, with one
//! in-memory span per layer per chunk. Nothing under `crates/` is
//! instrumented; tracing inside the program is a later change.
//!
//! Passes, each over the whole corpus in ~1,024-line chunks:
//! 1. ingress and WAL: framing → syslog (or HTTP ingest + inflate) →
//!    `Journal::append` / `sync`;
//! 2. `core.ingest`: the real `MoniLog::ingest` facade, the
//!    reconciliation base (and a twin with no recorder, for the tracing
//!    overhead), plus checkpoint export/commit;
//! 3. the facade decomposed into its public parts: dedup → header →
//!    reorder → payload extraction → tokenize/Drain → window → DeepLog →
//!    classify → render. Its reports must equal pass 2's, byte for byte;
//! 4. egress: `DeliveryBuffer` and `FramedTcpSink` against the in-harness
//!    collector;
//! 5. layers off the binary's path: the supervised parse service, the
//!    cluster wire codec, one LSTM step.

use crate::collector::Collector;
use crate::json::Json;
use crate::monitor;
use crate::oracle;
use crate::spans::{self, Recorder, CHUNK_LINES};
use crate::workloads::{self, Corpus, Transport, Wire, Workload};
use monilog_core::classify::AnomalyClassifier;
use monilog_core::detect::{DeepLog, Detector};
use monilog_core::model::codec::Decoder;
use monilog_core::model::{
    extract_structured, parse_header, AnomalyKind, AnomalyReport, ByteLine, CheckpointManifest,
    DeliveryClass, EventId, HeaderFormat, LogEvent, LogRecord, Provenance, RawLog, SessionKey,
    SourceId, TemplateStore, Timestamp,
};
use monilog_core::parse::preprocess::Preprocessor;
use monilog_core::parse::{Drain, OnlineParser};
use monilog_core::stream::cluster::wire::{encode_frame, BatchEntry, FrameReader, Message};
use monilog_core::stream::sources::{inflate::gunzip, parse_syslog, FrameDecoder};
use monilog_core::stream::{
    BoundedReorderBuffer, BufferedReport, CheckpointStore, DedupFilter, DeliveryBuffer,
    FramedTcpSink, Journal, JournalConfig, MetricsRegistry, Sink, SourcesConfig, SourcesServer,
    SupervisedParseService, SupervisorConfig,
};
use monilog_core::windowing::WindowAssembler;
use monilog_core::{MoniLog, WindowPolicy};
use monilog_nn::{Graph, Lstm, Matrix, ParamSet};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every per-layer metric: name, unit, which direction is better. The
/// `per_layer` list of `BENCHMARK.json` is this table.
pub const LAYER_METRICS: [(&str, &str, &str); 73] = [
    ("sources.framing.ns_per_line", "ns", "lower"),
    ("sources.framing.bytes_per_line", "bytes", "lower"),
    ("sources.framing.calls", "count", "lower"),
    ("sources.syslog.ns_per_line", "ns", "lower"),
    ("sources.syslog.calls", "count", "lower"),
    ("sources.http.ns_per_line", "ns", "lower"),
    ("sources.http.calls", "count", "lower"),
    ("sources.inflate.ns_per_byte", "ns", "lower"),
    ("sources.inflate.calls", "count", "lower"),
    ("model.header.ns_per_line", "ns", "lower"),
    ("model.header.calls", "count", "lower"),
    ("model.structured.ns_per_line", "ns", "lower"),
    ("model.structured.calls", "count", "lower"),
    ("merge.dedup.ns_per_line", "ns", "lower"),
    ("merge.dedup.calls", "count", "lower"),
    ("merge.reorder.ns_per_line", "ns", "lower"),
    ("merge.reorder.peak_len", "count", "lower"),
    ("merge.reorder.calls", "count", "lower"),
    ("parse.tokenize.ns_per_line", "ns", "lower"),
    ("parse.tokenize.tokens_per_line", "count", "lower"),
    ("parse.tokenize.calls", "count", "lower"),
    ("parse.drain.ns_per_line", "ns", "lower"),
    ("parse.drain.templates", "count", "lower"),
    ("parse.drain.new_template_share", "share", "lower"),
    ("parse.drain.calls", "count", "lower"),
    ("service.submit_recv.shards1.ns_per_line", "ns", "lower"),
    ("service.submit_recv.shards2.ns_per_line", "ns", "lower"),
    ("service.submit_recv.shard_skew", "ratio", "lower"),
    ("service.submit_recv.calls", "count", "lower"),
    ("windowing.push.ns_per_line", "ns", "lower"),
    ("windowing.push.windows_closed", "count", "lower"),
    ("windowing.push.peak_open", "count", "lower"),
    ("windowing.push.calls", "count", "lower"),
    ("detect.deeplog.ns_per_line", "ns", "lower"),
    ("detect.deeplog.ns_per_window", "ns", "lower"),
    ("detect.deeplog.distinct_history_share", "share", "lower"),
    ("detect.deeplog.calls", "count", "lower"),
    ("nn.lstm_step.ns", "ns", "lower"),
    ("nn.lstm_step.calls", "count", "lower"),
    ("classify.ns_per_report", "ns", "lower"),
    ("classify.calls", "count", "lower"),
    ("report.render.ns_per_report", "ns", "lower"),
    ("report.render.bytes_per_report", "bytes", "lower"),
    ("report.render.events_per_report", "count", "lower"),
    ("report.render.calls", "count", "lower"),
    ("core.ingest.ns_per_line", "ns", "lower"),
    ("core.ingest.calls", "count", "lower"),
    ("durable.journal.append_ns_per_line", "ns", "lower"),
    ("durable.journal.sync_ms", "ms", "lower"),
    ("durable.journal.bytes_per_line", "bytes", "lower"),
    ("durable.journal.syncs", "count", "lower"),
    ("durable.journal.calls", "count", "lower"),
    ("durable.checkpoint.export_ms", "ms", "lower"),
    ("durable.checkpoint.commit_ms", "ms", "lower"),
    ("durable.checkpoint.bytes", "bytes", "lower"),
    ("durable.checkpoint.calls", "count", "lower"),
    ("sinks.buffer.append_ns_per_report", "ns", "lower"),
    ("sinks.buffer.calls", "count", "lower"),
    ("sinks.tcp.ack_us_per_report", "us", "lower"),
    ("sinks.tcp.retries", "count", "lower"),
    ("sinks.tcp.calls", "count", "lower"),
    ("cluster.wire.encode_ns_per_line", "ns", "lower"),
    ("cluster.wire.decode_ns_per_line", "ns", "lower"),
    ("cluster.wire.calls", "count", "lower"),
    ("ledger.unattributed_share", "share", "lower"),
    ("e2e.unattributed_share", "share", "lower"),
    ("e2e.blocking_path_ns_per_line", "ns", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("ledger.lines", "count", "higher"),
    ("ledger.reports", "count", "higher"),
    ("ledger.spans", "count", "lower"),
    ("sinks.share_of_ingest_plus_egress", "share", "lower"),
    ("ledger.compose_glue_ns_per_line", "ns", "lower"),
];

/// Lines per wire batch, as the cluster router seals them.
const WIRE_BATCH_LINES: usize = 64;
/// Reports per delivery attempt, the delivery pipeline's `batch_max`.
const DELIVERY_BATCH: usize = 64;
/// The parse service is not on the binary's path; a prefix of the corpus
/// is enough to price its hand-offs.
const SERVICE_LINES: usize = 128 * CHUNK_LINES;
/// A checkpoint every this many chunks (and one at the end).
const CHECKPOINT_EVERY_CHUNKS: usize = 128;

#[derive(Debug, Clone)]
pub struct Ledger {
    /// One value per [`LAYER_METRICS`] name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Where ingress did not decode to the corpus, or the decomposed
    /// facade did not produce the facade's reports. Empty on a correct run.
    pub mismatches: Vec<String>,
    pub chrome_trace: String,
}

impl Ledger {
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

/// `derive_session` of `core::pipeline` (private there): the first
/// variable shaped like `word_1234`. Pass 3 checks the copy against the
/// facade on every run.
fn derive_session(variables: &[String]) -> Option<SessionKey> {
    variables
        .iter()
        .find(|v| match v.split_once('_') {
            Some((prefix, digits)) => {
                !prefix.is_empty()
                    && prefix.bytes().all(|b| b.is_ascii_alphanumeric())
                    && prefix.bytes().any(|b| b.is_ascii_alphabetic())
                    && !digits.is_empty()
                    && digits.bytes().all(|b| b.is_ascii_digit())
            }
            None => false,
        })
        .map(|v| SessionKey(v.clone()))
}

/// Split a `MoniLog::checkpoint` blob (`MLCP` v1) into the template
/// store and the DeepLog detector it carries.
fn split_checkpoint(blob: &[u8]) -> Result<(TemplateStore, DeepLog), String> {
    let err = |e| format!("decode model checkpoint: {e}");
    let mut d = Decoder::new(blob);
    d.expect_header(*b"MLCP", 1).map_err(err)?;
    let section = |d: &mut Decoder<'_>| -> Result<Vec<u8>, String> {
        let n = d.get_len().map_err(err)?;
        (0..n).map(|_| d.get_u8().map_err(err)).collect()
    };
    let store = section(&mut d)?;
    let tag = d.get_u8().map_err(err)?;
    if tag != 0 {
        return Err(format!(
            "checkpoint carries detector tag {tag}, not DeepLog"
        ));
    }
    let detector = section(&mut d)?;
    Ok((
        TemplateStore::decode(&store).map_err(err)?,
        DeepLog::load(&detector).map_err(err)?,
    ))
}

/// One chunk: consecutive wire units covering at least [`CHUNK_LINES`]
/// lines (an HTTP body is one unit of 2,000), and the lines they carry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Chunk {
    id: u32,
    units: Range<usize>,
    lines: Range<usize>,
}

fn chunks(wire: &Wire) -> Vec<Chunk> {
    let mut out = Vec::new();
    let (mut u0, mut l0) = (0usize, 0usize);
    for u in 0..wire.units() {
        let l1 = wire.unit_last_line[u];
        if l1 - l0 >= CHUNK_LINES || u + 1 == wire.units() {
            out.push(Chunk {
                id: out.len() as u32,
                units: u0..u + 1,
                lines: l0..l1,
            });
            (u0, l0) = (u + 1, l1);
        }
    }
    out
}

/// What every pass works from.
struct Run<'a> {
    workload: &'a Workload,
    live: &'a [String],
    wire: Wire,
    chunks: Vec<Chunk>,
    dir: &'a Path,
    /// The `monilog train` checkpoint, built in process.
    blob: Vec<u8>,
}

impl Run<'_> {
    fn source(&self) -> SourceId {
        self.workload.transport.source()
    }

    /// Line `i` as the monitor journals it.
    fn raw(&self, i: usize) -> RawLog {
        RawLog::new(self.source(), i as u64 + 1, self.live[i].as_str())
    }

    fn raws(&self, chunk: &Chunk) -> Vec<RawLog> {
        chunk.lines.clone().map(|i| self.raw(i)).collect()
    }
}

/// A report `MoniLog::ingest` produced in pass 2.
struct Produced {
    chunk: u32,
    id: u64,
    body: String,
}

pub fn run(w: &Workload, corpus: &Corpus) -> Result<Ledger, String> {
    monitor::with_state_dir(&format!("layers-{}", w.name), |dir| run_in(w, corpus, dir))
}

fn run_in(w: &Workload, corpus: &Corpus, dir: &Path) -> Result<Ledger, String> {
    // Train exactly as `monilog train` does, in process.
    let mut trainer = MoniLog::new(oracle::pipeline_config());
    for (i, line) in corpus.train.iter().enumerate() {
        trainer.ingest_training(&RawLog::new(SourceId(0), i as u64, line.as_str()));
    }
    trainer.train();
    let blob = trainer.checkpoint()?;
    drop(trainer);

    let wire = workloads::render(w.transport, &corpus.live);
    let run = Run {
        workload: w,
        live: &corpus.live,
        chunks: chunks(&wire),
        wire,
        dir,
        blob,
    };
    let mut rec = Recorder::new();
    let mut mismatches = Vec::new();
    let ingress = pass_ingress(&run, &mut rec, &mut mismatches)?;
    let facade = pass_facade(&run, &mut rec)?;
    let parts = pass_decomposed(&run, &mut rec, &facade, &mut mismatches)?;
    let sink_retries = pass_egress(&run, &mut rec, &facade.produced, &mut mismatches)?;
    let off_path = pass_off_path(&run, &mut rec, &mut mismatches)?;
    let counts = Counts {
        ingress,
        facade,
        parts,
        sink_retries,
        off_path,
    };
    Ok(ledger(&run, &rec, &counts, mismatches))
}

/// What the passes counted, next to what the recorder timed.
struct Counts {
    ingress: Ingress,
    facade: Facade,
    parts: Parts,
    sink_retries: u64,
    off_path: OffPath,
}

struct Ingress {
    framing_bytes: usize,
    inflated_bytes: usize,
    journal_bytes: u64,
    syncs: u64,
}

/// Pass 1: wire bytes → lines → WAL.
fn pass_ingress(
    run: &Run<'_>,
    rec: &mut Recorder,
    mismatches: &mut Vec<String>,
) -> Result<Ingress, String> {
    let wire = &run.wire;
    let mut journal = Journal::open(run.dir.join("journal"), JournalConfig::default())
        .map_err(|e| format!("open journal: {e}"))?;
    let mut decoder = FrameDecoder::new(1 << 20);
    let mut read_buf: Vec<u8> = Vec::new();
    // The HTTP head and JSON-array code is private to the sources
    // module; its public surface is a running server and its queue.
    let http = match run.workload.transport {
        Transport::HttpGzipJson { .. } => Some(
            SourcesServer::spawn(
                SourcesConfig {
                    http: Some("127.0.0.1:0".parse().expect("static addr")),
                    ..SourcesConfig::default()
                },
                MetricsRegistry::shared(),
                None,
                None,
            )
            .map_err(|e| format!("spawn http source: {e}"))?,
        ),
        _ => None,
    };
    let mut out = Ingress {
        framing_bytes: 0,
        inflated_bytes: 0,
        journal_bytes: 0,
        syncs: 0,
    };
    for chunk in &run.chunks {
        let c = chunk.id;
        let msgs: Vec<ByteLine> = match &http {
            None => {
                let bytes = wire.unit_bytes(chunk.units.start, chunk.units.end);
                out.framing_bytes += bytes.len();
                let id = rec.begin("sources.framing", None, c);
                let mut frames = Vec::with_capacity(chunk.lines.len());
                // 16 KiB reads, as the TCP syslog connection does.
                for piece in bytes.chunks(16 * 1024) {
                    read_buf.extend_from_slice(piece);
                    decoder
                        .drain(&mut read_buf, &mut frames)
                        .map_err(|e| format!("framing: {e}"))?;
                }
                rec.end(id);
                rec.time("sources.syslog", None, c, || {
                    frames
                        .iter()
                        .map(|f| ByteLine::from_string(parse_syslog(f, 2020).msg))
                        .collect()
                })
            }
            Some((server, queue)) => {
                let addr = server.http_addr().expect("http source bound").to_string();
                // `inflate` runs inside the ingest handler; the same call
                // on the same body is timed standalone.
                let id = rec.begin("sources.inflate", None, c);
                for u in chunk.units.clone() {
                    let request = wire.unit_bytes(u, u + 1);
                    let plain = gunzip(&request[head_end(request)..], 64 << 20)
                        .map_err(|e| format!("inflate: {e}"))?;
                    out.inflated_bytes += black_box(plain).len();
                }
                rec.end(id);
                let id = rec.begin("sources.http", None, c);
                let mut msgs = Vec::with_capacity(chunk.lines.len());
                for u in chunk.units.clone() {
                    let mut conn =
                        TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
                    conn.write_all(wire.unit_bytes(u, u + 1))
                        .map_err(|e| format!("post: {e}"))?;
                    let mut response = String::new();
                    conn.read_to_string(&mut response)
                        .map_err(|e| format!("response: {e}"))?;
                    if !response.starts_with("HTTP/1.1 200") {
                        return Err(format!("http source answered {response:?}"));
                    }
                    let first = if u == 0 {
                        0
                    } else {
                        wire.unit_last_line[u - 1]
                    };
                    let want = msgs.len() + wire.unit_last_line[u] - first;
                    while msgs.len() < want {
                        let batch = queue.recv_batch(want - msgs.len(), Duration::from_secs(5));
                        if batch.is_empty() {
                            return Err("http source lost accepted lines".into());
                        }
                        msgs.extend(batch.into_iter().map(|ev| ev.line));
                    }
                }
                rec.end(id);
                msgs
            }
        };
        let decoded_ok = msgs.len() == chunk.lines.len()
            && msgs
                .iter()
                .zip(&run.live[chunk.lines.clone()])
                .all(|(a, b)| a.as_str() == b.as_str());
        if !decoded_ok {
            mismatches.push(format!(
                "chunk {c}: ingress did not decode to the corpus lines"
            ));
        }
        let raws: Vec<RawLog> = msgs
            .into_iter()
            .zip(chunk.lines.clone())
            .map(|(line, i)| RawLog::new(run.source(), i as u64 + 1, line))
            .collect();
        let id = rec.begin("durable.journal.append", None, c);
        for raw in &raws {
            out.journal_bytes += journal
                .append(raw)
                .map_err(|e| format!("journal append: {e}"))?;
        }
        rec.end(id);
        // Group commit at the default 50 ms of wall-clock time; the last
        // chunk always syncs, so nothing is left for the kernel to write
        // back during the next passes.
        if journal.sync_due() || c as usize + 1 == run.chunks.len() {
            rec.time("durable.journal.sync", None, c, || journal.sync())
                .map_err(|e| format!("journal sync: {e}"))?;
            out.syncs += 1;
        }
    }
    Ok(out)
}

struct Facade {
    produced: Vec<Produced>,
    /// Time the recorder-less twin spent on the same chunks.
    plain_ns: u64,
    checkpoints: u64,
    checkpoint_bytes: usize,
    templates: usize,
}

/// Pass 2: the real `MoniLog::ingest`, and checkpoints of its state.
fn pass_facade(run: &Run<'_>, rec: &mut Recorder) -> Result<Facade, String> {
    let restore = || {
        MoniLog::restore(oracle::pipeline_config(), &run.blob).map_err(|e| format!("restore: {e}"))
    };
    let mut facade = restore()?;
    // A second, identical facade runs the same chunks with no recorder,
    // timed by a bare pair of clock reads: the difference is what span
    // recording costs. The two alternate who goes first, so drift in the
    // machine's speed over the pass cancels instead of posing as overhead.
    let mut plain = restore()?;
    let store = CheckpointStore::open(run.dir.join("checkpoints"))
        .map_err(|e| format!("open checkpoint store: {e}"))?;
    let mut out = Facade {
        produced: Vec::new(),
        plain_ns: 0,
        checkpoints: 0,
        checkpoint_bytes: 0,
        templates: 0,
    };
    for chunk in &run.chunks {
        let raws = run.raws(chunk);
        let mut run_plain = || {
            let t = Instant::now();
            for raw in &raws {
                black_box(plain.ingest(raw));
            }
            out.plain_ns += t.elapsed().as_nanos() as u64;
        };
        if chunk.id % 2 == 1 {
            run_plain();
        }
        let reports = rec.time("core.ingest", None, chunk.id, || {
            let mut reports = Vec::new();
            for raw in &raws {
                reports.extend(facade.ingest(raw));
            }
            reports
        });
        if chunk.id % 2 == 0 {
            run_plain();
        }
        out.produced.extend(reports.into_iter().map(|a| Produced {
            chunk: chunk.id,
            id: a.report.id,
            body: a.report.to_json(),
        }));
        let n = chunk.id as usize + 1;
        if n.is_multiple_of(CHECKPOINT_EVERY_CHUNKS) || n == run.chunks.len() {
            let state = rec.time("durable.checkpoint.export", None, chunk.id, || {
                facade.export_durable_state()
            })?;
            out.checkpoints += 1;
            out.checkpoint_bytes = state.len();
            let mut manifest = CheckpointManifest {
                generation: out.checkpoints,
                ..CheckpointManifest::default()
            };
            manifest.set_position(run.source(), chunk.lines.end as u64);
            manifest.set_section("pipeline", state);
            rec.time("durable.checkpoint.commit", None, chunk.id, || {
                store.commit(&manifest)
            })
            .map_err(|e| format!("commit checkpoint: {e}"))?;
        }
    }
    out.templates = facade.templates().len();
    Ok(out)
}

#[derive(Default)]
struct Parts {
    tokens: usize,
    new_templates: usize,
    parsed: usize,
    templates: usize,
    reorder_peak: usize,
    open_peak: usize,
    windows_closed: usize,
    /// History windows DeepLog's `prob_cache` is keyed by: all, distinct.
    grams: usize,
    distinct_grams: usize,
    reports: usize,
    report_bytes: usize,
    report_events: usize,
}

/// Pass 3: the facade decomposed into its public parts, checked against
/// pass 2's reports.
fn pass_decomposed(
    run: &Run<'_>,
    rec: &mut Recorder,
    facade: &Facade,
    mismatches: &mut Vec<String>,
) -> Result<Parts, String> {
    let config = oracle::pipeline_config();
    let (store, deeplog) = split_checkpoint(&run.blob)?;
    let WindowPolicy::Session { .. } = config.window else {
        return Err("the monitor's window policy is no longer Session".into());
    };
    let mut dedup = DedupFilter::new(config.dedup_window);
    let mut reorder: BoundedReorderBuffer<LogRecord> =
        BoundedReorderBuffer::new(config.reorder_bound_ms);
    let pre = Preprocessor::new(config.drain.mask);
    let mut parser = Drain::warm_start(config.drain, store);
    let mut assembler = WindowAssembler::new(config.window);
    let classifier = AnomalyClassifier::new();
    let history = oracle::deeplog_config().history;
    let (mut next_event, mut next_report) = (0u64, 0u64);
    let mut distinct_grams = HashSet::<Vec<u32>>::new();
    let mut out = Parts::default();
    for chunk in &run.chunks {
        let c = chunk.id;
        let raws = run.raws(chunk);
        let parent = rec.begin("ledger.compose", None, c);
        let p = Some(parent);
        let admitted: Vec<&RawLog> = rec.time("merge.dedup", p, c, || {
            raws.iter()
                .filter(|r| dedup.admit(r.source, r.seq))
                .collect()
        });
        let records: Vec<LogRecord> = rec.time("model.header", p, c, || {
            admitted
                .iter()
                .filter_map(|r| {
                    parse_header(r, &HeaderFormat::DashSeparated, Timestamp::EPOCH).ok()
                })
                .collect()
        });
        let mut released: Vec<(Timestamp, LogRecord)> = Vec::with_capacity(records.len());
        rec.time("merge.reorder", p, c, || {
            for record in records {
                let ts = record.header.timestamp;
                reorder.push_into(ts, record, &mut released);
                out.reorder_peak = out.reorder_peak.max(reorder.len());
            }
        });
        let extracted = rec.time("model.structured", p, c, || {
            released
                .iter()
                .map(|(_, r)| extract_structured(&r.message))
                .collect::<Vec<_>>()
        });
        // Tokenizing happens inside `Drain::parse`; the same call on the
        // same text, timed standalone, is booked as its child.
        let (mut tok_spans, mut masked, mut original) = (Vec::new(), Vec::new(), Vec::new());
        let t = Instant::now();
        for (text, _) in &extracted {
            pre.mask_into(text, &mut tok_spans, &mut masked, &mut original);
            out.tokens += black_box(&original).len();
        }
        let tokenize_ns = t.elapsed().as_nanos() as u64;
        drop((masked, original));
        let before = parser.store().len();
        let drain_span = rec.begin("parse.drain", p, c);
        let outcomes: Vec<_> = extracted
            .iter()
            .map(|(text, _)| parser.parse(text))
            .collect();
        rec.end(drain_span);
        rec.book_child("parse.tokenize", drain_span, tokenize_ns);
        out.new_templates += parser.store().len() - before;
        out.parsed += outcomes.len();
        let events: Vec<LogEvent> = outcomes
            .into_iter()
            .zip(extracted)
            .zip(&released)
            .map(|((outcome, (_, payload)), (_, record))| {
                let mut variables = outcome.variables;
                variables.extend(payload.fields.into_iter().map(|(_, v)| v));
                let session = derive_session(&variables);
                let event = LogEvent::new(
                    EventId(next_event),
                    record.header.timestamp,
                    record.source,
                    record.header.level,
                    outcome.template,
                    variables,
                    session,
                );
                next_event += 1;
                event
            })
            .collect();
        let closed = rec.time("windowing.push", p, c, || {
            let mut closed = Vec::new();
            for event in events {
                closed.extend(assembler.push(event));
            }
            closed
        });
        out.open_peak = out.open_peak.max(assembler.open_count());
        out.windows_closed += closed.len();
        for cw in &closed {
            let seq = &cw.window.sequence;
            for i in 0..seq.len() {
                out.grams += 1;
                distinct_grams.insert(seq[i.saturating_sub(history)..i].to_vec());
            }
        }
        // What `detect_and_classify` asks of the detector, in its order.
        let flagged = rec.time("detect.deeplog", p, c, || {
            closed
                .into_iter()
                .filter_map(|cw| {
                    if !deeplog.predict(&cw.window) {
                        return None;
                    }
                    let (seq, quant) = deeplog.violation_breakdown(&cw.window);
                    let kind = if quant > 0 && seq == 0 {
                        AnomalyKind::Quantitative
                    } else {
                        AnomalyKind::Sequential
                    };
                    let score = deeplog.score(&cw.window);
                    let components = deeplog.score_components(&cw.window);
                    Some((cw, kind, score, components))
                })
                .collect::<Vec<_>>()
        });
        let reports: Vec<AnomalyReport> = flagged
            .into_iter()
            .map(|(cw, kind, score, score_components)| {
                let mut template_ids: Vec<u32> = cw.events.iter().map(|e| e.template.0).collect();
                template_ids.sort_unstable();
                template_ids.dedup();
                let report = AnomalyReport {
                    id: next_report,
                    kind,
                    score,
                    detector: deeplog.name().to_string(),
                    explanation: format!(
                        "{} flagged a {}-event window with score {score:.3}",
                        deeplog.name(),
                        cw.events.len()
                    ),
                    provenance: Provenance {
                        trace_ids: Vec::new(),
                        template_ids,
                        window: cw
                            .events
                            .first()
                            .zip(cw.events.last())
                            .map(|(a, b)| (a.timestamp, b.timestamp)),
                        score_components,
                    },
                    events: cw.events,
                };
                next_report += 1;
                report
            })
            .collect();
        rec.time("classify", p, c, || {
            for r in &reports {
                black_box(classifier.classify(r));
            }
        });
        let bodies: Vec<String> = rec.time("report.render", p, c, || {
            reports.iter().map(AnomalyReport::to_json).collect()
        });
        rec.end(parent);
        out.report_events += reports.iter().map(|r| r.events.len()).sum::<usize>();
        for body in &bodies {
            let same = facade
                .produced
                .get(out.reports)
                .is_some_and(|want| want.body == *body);
            if !same && mismatches.len() < 5 {
                mismatches.push(format!(
                    "chunk {c}: report {} of the decomposed facade differs from MoniLog::ingest",
                    out.reports
                ));
            }
            out.reports += 1;
            out.report_bytes += body.len();
        }
    }
    out.templates = parser.store().len();
    out.distinct_grams = distinct_grams.len();
    if out.reports != facade.produced.len() {
        mismatches.push(format!(
            "decomposed facade produced {} reports, MoniLog::ingest {}",
            out.reports,
            facade.produced.len()
        ));
    }
    if out.templates != facade.templates {
        mismatches.push(format!(
            "decomposed facade holds {} templates, MoniLog::ingest {}",
            out.templates, facade.templates
        ));
    }
    Ok(out)
}

/// Pass 4: delivery buffer and framed-TCP sink against the collector.
/// Returns the delivery attempts that had to be repeated.
fn pass_egress(
    run: &Run<'_>,
    rec: &mut Recorder,
    produced: &[Produced],
    mismatches: &mut Vec<String>,
) -> Result<u64, String> {
    let collector = Collector::spawn().map_err(|e| format!("spawn collector: {e}"))?;
    let mut buffer = DeliveryBuffer::open(run.dir.join("delivery").join("tcp.buf"), None)
        .map_err(|e| format!("open delivery buffer: {e}"))?;
    let mut sink = FramedTcpSink::new(collector.addr().to_string());
    let mut retries = 0u64;
    for reports in produced.chunk_by(|a, b| a.chunk == b.chunk) {
        let c = reports[0].chunk;
        // One durable append per report: the monitor's emit path accepts
        // the reports of one ingested line at a time.
        let id = rec.begin("sinks.buffer.append", None, c);
        for r in reports {
            buffer
                .append(&[BufferedReport {
                    id: r.id,
                    class: DeliveryClass::Page,
                    body: r.body.clone(),
                }])
                .map_err(|e| format!("buffer append: {e}"))?;
        }
        rec.end(id);
        let id = rec.begin("sinks.tcp", None, c);
        loop {
            let (batch, next) = buffer
                .peek(DELIVERY_BATCH)
                .map_err(|e| format!("buffer peek: {e}"))?;
            if batch.is_empty() {
                break;
            }
            match sink.deliver(&batch) {
                Ok(()) => buffer
                    .advance(next)
                    .map_err(|e| format!("buffer advance: {e}"))?,
                Err(_) if retries < 100 => retries += 1,
                Err(e) => return Err(format!("framed sink keeps failing: {e}")),
            }
        }
        rec.end(id);
    }
    if collector.received() != produced.len() {
        mismatches.push(format!(
            "collector acked {} of {} reports",
            collector.received(),
            produced.len()
        ));
    }
    Ok(retries)
}

struct OffPath {
    service_lines: usize,
    shard_skew: f64,
    wire_batches: u64,
    lstm_ns: u64,
}

/// LSTM steps timed for `nn.lstm_step.ns`.
const LSTM_STEPS: u64 = 2_000;

/// Pass 5: layers that are not on the binary's path today.
fn pass_off_path(
    run: &Run<'_>,
    rec: &mut Recorder,
    mismatches: &mut Vec<String>,
) -> Result<OffPath, String> {
    let config = oracle::pipeline_config();
    let messages: Vec<ByteLine> = (0..run.live.len().min(SERVICE_LINES))
        .filter_map(|i| {
            parse_header(&run.raw(i), &HeaderFormat::DashSeparated, Timestamp::EPOCH).ok()
        })
        .map(|r| r.message)
        .collect();
    let mut shard_skew = 0.0f64;
    for (shards, name) in [
        (1usize, "service.submit_recv.shards1"),
        (2, "service.submit_recv.shards2"),
    ] {
        let service = SupervisedParseService::spawn(SupervisorConfig {
            n_shards: shards,
            drain: config.drain,
            ..SupervisorConfig::default()
        })
        .map_err(|e| format!("spawn parse service: {e:?}"))?;
        let mut per_shard = vec![0u64; shards];
        let mut seq = 0u64;
        for (c, chunk) in messages.chunks(CHUNK_LINES).enumerate() {
            let id = rec.begin(name, None, c as u32);
            for batch in chunk.chunks(WIRE_BATCH_LINES) {
                let items = batch
                    .iter()
                    .map(|line| {
                        seq += 1;
                        (seq, line.clone())
                    })
                    .collect();
                service
                    .submit_batch(items)
                    .map_err(|e| format!("submit: {e:?}"))?;
            }
            for _ in 0..chunk.len() {
                let item = service.recv().ok_or("parse service closed early")?;
                per_shard[item.shard % shards] += 1;
            }
            rec.end(id);
        }
        let mean = per_shard.iter().sum::<u64>() as f64 / shards as f64;
        shard_skew = per_shard.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0);
        let _ = service.shutdown();
    }

    // The cluster codec, in the 64-line batches the router seals.
    let mut reader = FrameReader::new();
    let mut wire_batches = 0u64;
    for chunk in &run.chunks {
        let batches: Vec<Message> = chunk
            .lines
            .clone()
            .collect::<Vec<usize>>()
            .chunks(WIRE_BATCH_LINES)
            .map(|lines| {
                wire_batches += 1;
                Message::Batch {
                    batch_id: wire_batches,
                    entries: lines
                        .iter()
                        .map(|&i| BatchEntry {
                            source: run.source(),
                            seq: i as u64 + 1,
                            line: run.live[i].as_bytes().to_vec(),
                        })
                        .collect(),
                }
            })
            .collect();
        let frames: Vec<Vec<u8>> = rec.time("cluster.wire.encode", None, chunk.id, || {
            batches.iter().map(encode_frame).collect()
        });
        let decoded = rec.time("cluster.wire.decode", None, chunk.id, || {
            frames
                .iter()
                .map(|frame| {
                    reader.extend(frame);
                    reader.next_message()
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let round_trip = decoded
            .map_err(|e| format!("wire decode: {e:?}"))?
            .into_iter()
            .zip(&batches)
            .all(|(back, sent)| back.as_ref() == Some(sent));
        if !round_trip && mismatches.len() < 5 {
            mismatches.push(format!(
                "chunk {}: wire batches did not round-trip",
                chunk.id
            ));
        }
    }

    // One LSTM step at DeepLog's shape: embedding 16 in, 32 hidden.
    let dl = oracle::deeplog_config();
    let mut params = ParamSet::new();
    let lstm = Lstm::new(
        &mut params,
        dl.embedding_dim,
        dl.hidden,
        &mut StdRng::seed_from_u64(dl.seed),
    );
    let t = Instant::now();
    for _ in 0..LSTM_STEPS {
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(1, dl.embedding_dim));
        let state = lstm.zero_state(&mut g, 1);
        black_box(lstm.step(&mut g, &params, x, state));
    }
    Ok(OffPath {
        service_lines: messages.len(),
        shard_skew,
        wire_batches,
        lstm_ns: t.elapsed().as_nanos() as u64,
    })
}

/// Turn spans and counts into the [`LAYER_METRICS`] values.
fn ledger(run: &Run<'_>, rec: &Recorder, counts: &Counts, mismatches: Vec<String>) -> Ledger {
    let Counts {
        ingress,
        facade,
        parts,
        sink_retries,
        off_path,
    } = counts;
    let totals = spans::totals_by_name(rec.spans());
    let self_ns = |name: &str| totals.get(name).map_or(0, |t| t.0) as f64;
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.1) as f64;
    let per = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 };
    let n_lines = run.live.len();
    let n_reports = facade.produced.len();
    let n_units = run.wire.units() as f64;
    let is_http = matches!(run.workload.transport, Transport::HttpGzipJson { .. });
    let mut m: BTreeMap<&'static str, f64> =
        LAYER_METRICS.iter().map(|(n, _, _)| (*n, 0.0)).collect();
    let mut set = |name: &'static str, v: f64| {
        *m.get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in LAYER_METRICS")) = v;
    };

    set(
        "sources.framing.ns_per_line",
        per(self_ns("sources.framing"), n_lines),
    );
    set(
        "sources.framing.bytes_per_line",
        per(ingress.framing_bytes as f64, n_lines),
    );
    set("sources.framing.calls", calls("sources.framing"));
    set(
        "sources.syslog.ns_per_line",
        per(self_ns("sources.syslog"), n_lines),
    );
    set(
        "sources.syslog.calls",
        if is_http { 0.0 } else { n_lines as f64 },
    );
    // The ingest handler inflates inside the request; take the
    // standalone inflate time out of the request's.
    let inflate_ns = self_ns("sources.inflate");
    let http_ns = (self_ns("sources.http") - inflate_ns).max(0.0);
    set("sources.http.ns_per_line", per(http_ns, n_lines));
    set("sources.http.calls", if is_http { n_units } else { 0.0 });
    set(
        "sources.inflate.ns_per_byte",
        per(inflate_ns, ingress.inflated_bytes),
    );
    set("sources.inflate.calls", if is_http { n_units } else { 0.0 });
    set(
        "model.header.ns_per_line",
        per(self_ns("model.header"), n_lines),
    );
    set("model.header.calls", n_lines as f64);
    set(
        "model.structured.ns_per_line",
        per(self_ns("model.structured"), n_lines),
    );
    set("model.structured.calls", parts.parsed as f64);
    set(
        "merge.dedup.ns_per_line",
        per(self_ns("merge.dedup"), n_lines),
    );
    set("merge.dedup.calls", n_lines as f64);
    set(
        "merge.reorder.ns_per_line",
        per(self_ns("merge.reorder"), n_lines),
    );
    set("merge.reorder.peak_len", parts.reorder_peak as f64);
    set("merge.reorder.calls", n_lines as f64);
    set(
        "parse.tokenize.ns_per_line",
        per(self_ns("parse.tokenize"), n_lines),
    );
    set(
        "parse.tokenize.tokens_per_line",
        per(parts.tokens as f64, parts.parsed),
    );
    set("parse.tokenize.calls", parts.parsed as f64);
    set(
        "parse.drain.ns_per_line",
        per(self_ns("parse.drain"), n_lines),
    );
    set("parse.drain.templates", parts.templates as f64);
    set(
        "parse.drain.new_template_share",
        per(parts.new_templates as f64, parts.parsed),
    );
    set("parse.drain.calls", parts.parsed as f64);
    set(
        "service.submit_recv.shards1.ns_per_line",
        per(
            self_ns("service.submit_recv.shards1"),
            off_path.service_lines,
        ),
    );
    set(
        "service.submit_recv.shards2.ns_per_line",
        per(
            self_ns("service.submit_recv.shards2"),
            off_path.service_lines,
        ),
    );
    set("service.submit_recv.shard_skew", off_path.shard_skew);
    set(
        "service.submit_recv.calls",
        2.0 * off_path.service_lines as f64,
    );
    set(
        "windowing.push.ns_per_line",
        per(self_ns("windowing.push"), n_lines),
    );
    set("windowing.push.windows_closed", parts.windows_closed as f64);
    set("windowing.push.peak_open", parts.open_peak as f64);
    set("windowing.push.calls", parts.parsed as f64);
    let detect_ns = self_ns("detect.deeplog");
    set("detect.deeplog.ns_per_line", per(detect_ns, n_lines));
    set(
        "detect.deeplog.ns_per_window",
        per(detect_ns, parts.windows_closed),
    );
    set(
        "detect.deeplog.distinct_history_share",
        per(parts.distinct_grams as f64, parts.grams),
    );
    set("detect.deeplog.calls", parts.windows_closed as f64);
    set(
        "nn.lstm_step.ns",
        off_path.lstm_ns as f64 / LSTM_STEPS as f64,
    );
    set("nn.lstm_step.calls", LSTM_STEPS as f64);
    set(
        "classify.ns_per_report",
        per(self_ns("classify"), n_reports),
    );
    set("classify.calls", n_reports as f64);
    set(
        "report.render.ns_per_report",
        per(self_ns("report.render"), n_reports),
    );
    set(
        "report.render.bytes_per_report",
        per(parts.report_bytes as f64, n_reports),
    );
    set(
        "report.render.events_per_report",
        per(parts.report_events as f64, n_reports),
    );
    set("report.render.calls", n_reports as f64);
    let core_ns = self_ns("core.ingest");
    set("core.ingest.ns_per_line", per(core_ns, n_lines));
    set("core.ingest.calls", n_lines as f64);
    let sync_ns = self_ns("durable.journal.sync");
    set(
        "durable.journal.append_ns_per_line",
        per(self_ns("durable.journal.append"), n_lines),
    );
    set(
        "durable.journal.sync_ms",
        per(sync_ns / 1e6, ingress.syncs as usize),
    );
    set(
        "durable.journal.bytes_per_line",
        per(ingress.journal_bytes as f64, n_lines),
    );
    set("durable.journal.syncs", ingress.syncs as f64);
    set("durable.journal.calls", n_lines as f64);
    let checkpoint_ns = self_ns("durable.checkpoint.export") + self_ns("durable.checkpoint.commit");
    let n_checkpoints = facade.checkpoints as usize;
    set(
        "durable.checkpoint.export_ms",
        per(self_ns("durable.checkpoint.export") / 1e6, n_checkpoints),
    );
    set(
        "durable.checkpoint.commit_ms",
        per(self_ns("durable.checkpoint.commit") / 1e6, n_checkpoints),
    );
    set("durable.checkpoint.bytes", facade.checkpoint_bytes as f64);
    set("durable.checkpoint.calls", facade.checkpoints as f64);
    let buffer_ns = self_ns("sinks.buffer.append");
    set(
        "sinks.buffer.append_ns_per_report",
        per(buffer_ns, n_reports),
    );
    set("sinks.buffer.calls", n_reports as f64);
    set(
        "sinks.tcp.ack_us_per_report",
        per(self_ns("sinks.tcp") / 1e3, n_reports),
    );
    set("sinks.tcp.retries", *sink_retries as f64);
    set("sinks.tcp.calls", n_reports as f64);
    set(
        "cluster.wire.encode_ns_per_line",
        per(self_ns("cluster.wire.encode"), n_lines),
    );
    set(
        "cluster.wire.decode_ns_per_line",
        per(self_ns("cluster.wire.decode"), n_lines),
    );
    set("cluster.wire.calls", off_path.wire_batches as f64);

    // Reconciliation. Children: the facade's parts (tokenize counts
    // once, as parse.drain's child).
    let children: f64 = [
        "merge.dedup",
        "model.header",
        "merge.reorder",
        "model.structured",
        "parse.tokenize",
        "parse.drain",
        "windowing.push",
        "detect.deeplog",
        "classify",
    ]
    .iter()
    .map(|n| self_ns(n))
    .sum();
    set(
        "ledger.unattributed_share",
        1.0 - children / core_ns.max(1.0),
    );
    set(
        "ledger.compose_glue_ns_per_line",
        per(self_ns("ledger.compose"), n_lines),
    );
    set(
        "trace.overhead_share",
        core_ns / (facade.plain_ns as f64).max(1.0) - 1.0,
    );
    // The monitor's consumer thread, per line: WAL append and its share
    // of group commits, the facade, its share of checkpoints, and per
    // report a render (twice: delivery body and anomalies.jsonl) and a
    // durable buffer append. Sources and delivery run on other threads.
    let blocking = per(
        self_ns("durable.journal.append")
            + sync_ns
            + core_ns
            + checkpoint_ns
            + 2.0 * self_ns("report.render")
            + buffer_ns,
        n_lines,
    );
    set("e2e.blocking_path_ns_per_line", blocking);
    let e2e_share = match latest_lines_per_s(run.workload.name, n_lines) {
        Some(lps) if lps > 0.0 => 1.0 - blocking / (1e9 / lps),
        _ => 1.0,
    };
    set("e2e.unattributed_share", e2e_share);
    let sinks_ns = buffer_ns + self_ns("sinks.tcp");
    set(
        "sinks.share_of_ingest_plus_egress",
        sinks_ns / (core_ns + sinks_ns).max(1.0),
    );
    set("ledger.lines", n_lines as f64);
    set("ledger.reports", n_reports as f64);
    set("ledger.spans", rec.spans().len() as f64);

    Ledger {
        metrics: m,
        mismatches,
        chrome_trace: spans::chrome_trace_json(run.workload.name, rec.spans()),
    }
}

fn head_end(request: &[u8]) -> usize {
    request
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(request.len(), |i| i + 4)
}

/// `lines_per_s` of the newest end-to-end record in the committed
/// trajectory for this workload at this corpus size (a record of another
/// `--seconds` ran another stream length, and `cloud_churn` slows down as
/// its stream grows).
fn latest_lines_per_s(workload: &str, lines: usize) -> Option<f64> {
    let text = std::fs::read_to_string("benchmark/BENCH_e2e.jsonl").ok()?;
    text.lines().rev().find_map(|line| {
        let rec = Json::parse(line).ok()?;
        (rec.get("workload")?.as_str()? == workload
            && rec.get("manifest")?.get("lines")?.as_f64()? == lines as f64)
            .then(|| rec.get("metrics")?.get("lines_per_s")?.as_f64())
            .flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_every_unit_once() {
        let wire = Wire {
            bytes: Vec::new(),
            unit_end: vec![0; 5],
            unit_last_line: vec![600, 1_200, 1_800, 2_400, 2_500],
        };
        let got: Vec<(Range<usize>, Range<usize>)> = chunks(&wire)
            .into_iter()
            .map(|c| (c.units, c.lines))
            .collect();
        assert_eq!(
            got,
            vec![(0..2, 0..1_200), (2..4, 1_200..2_400), (4..5, 2_400..2_500)]
        );
    }

    #[test]
    fn session_keys_match_the_pipeline_heuristic() {
        let vars = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            derive_session(&vars(&["10.0.0.1", "blk_1234", "42"])),
            Some(SessionKey("blk_1234".into()))
        );
        assert_eq!(
            derive_session(&vars(&["_123", "user_id", "10.0.0.1"])),
            None
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_the_ledger_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the package is being tested outside the repository
        };
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed: Vec<(String, String, String)> = spec
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer array")
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = LAYER_METRICS
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }
}
