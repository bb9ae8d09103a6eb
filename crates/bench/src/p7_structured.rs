//! Experiment P7 (paper Section IV): structured-payload extraction.
//!
//! "Almost 60% of the tokens composing log messages are coming from JSON
//! or XML-formatted data. [...] We therefore recommend a preliminary step
//! to extract potential data coming from a structured format. This helps
//! reduce the average length of log messages and can increase the
//! discovery rate of log parsing algorithms."
//!
//! On the payload-heavy API corpus we measure: the payload-token share,
//! the message-length reduction from extraction, and parser accuracy with
//! and without the preliminary extraction step.

use crate::{template_ids, truth_ids, Table, PARSERS};
use monilog_core::model::extract_structured;
use monilog_core::parse::eval::grouping_accuracy;
use monilog_loggen::corpus;
use std::fmt;

/// Grouping accuracy and template count of one parse.
pub type Grouping = (f64, usize);

pub struct P7 {
    pub lines: usize,
    /// Whitespace tokens before and after extraction, over all lines.
    pub tokens: (usize, usize),
    /// Per parser: [`Grouping`] on the raw messages, then after extraction.
    pub rows: Vec<(&'static str, Grouping, Grouping)>,
}

pub fn run() -> P7 {
    let corpus = corpus::api_json(400, 701);
    let truth = truth_ids(&corpus);
    let raw: Vec<&str> = corpus.messages().collect();
    let stripped: Vec<String> = raw.iter().map(|m| extract_structured(m).0.into()).collect();
    let clean: Vec<&str> = stripped.iter().map(String::as_str).collect();
    let count = |messages: &[&str]| -> usize {
        messages.iter().map(|m| m.split_whitespace().count()).sum()
    };
    let compared = ["Drain", "Spell", "LenMa", "SHISO"];
    let parsers = PARSERS.iter().filter(|(name, _)| compared.contains(name));
    let rows = parsers.map(|(name, parse)| {
        let score = |messages: &[&str]| {
            let (outcomes, store) = parse(messages);
            (grouping_accuracy(&template_ids(&outcomes), &truth), store.len())
        };
        (*name, score(&raw), score(&clean))
    });
    P7 {
        lines: raw.len(),
        tokens: (count(&raw), count(&clean)),
        rows: rows.collect(),
    }
}

impl fmt::Display for P7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (total, kept) = self.tokens;
        let per_line = |tokens: usize| tokens as f64 / self.lines as f64;
        let mut table = Table::new(
            "parser|GA raw|templates raw|GA extracted|templates extracted|gain".split('|'),
        );
        for &(parser, (ga_raw, raw), (ga_clean, clean)) in &self.rows {
            let row = table.row().cell(parser).pct(ga_raw).cell(raw);
            row.pct(ga_clean).cell(clean).pct(ga_clean - ga_raw);
        }
        writeln!(
            f,
            "# P7 — extracting embedded structured payloads before parsing\n\n\
             payload-token share: {:.1}% of {total} tokens (paper observed ~60% internally)\n\
             mean message length: {:.1} → {:.1} tokens after extraction\n\n{table}\n\
             Shape check: extraction shortens messages and improves (or at worst\n\
             preserves) grouping accuracy, and it never adds a template: Drain's\n\
             spurious ones disappear.",
            100.0 * (total - kept) as f64 / total as f64,
            per_line(total),
            per_line(kept),
        )
    }
}
