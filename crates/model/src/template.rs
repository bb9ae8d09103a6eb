//! Log message templates.
//!
//! "The MESSAGE field is composed of a static part (template) and of a
//! variable part (variables). The log parsing challenge lies within the
//! discovery of those two parts." (Section IV)
//!
//! A [`Template`] is a sequence of tokens, each either a literal static
//! token or a wildcard marking a variable position. [`TemplateStore`] is the
//! append-only registry that assigns dense [`TemplateId`]s — the "log keys"
//! consumed by every detector.

use crate::codec::{CodecError, Decoder, Encoder};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Dense identifier of a discovered template ("log key" in DeepLog's terms).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TemplateId(pub u32);

impl TemplateId {
    pub fn as_index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TemplateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// One token of a template.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TemplateToken {
    /// A literal token that is part of the static text.
    Static(String),
    /// A variable position, rendered as `<*>`.
    Wildcard,
}

impl TemplateToken {
    pub fn is_wildcard(&self) -> bool {
        matches!(self, TemplateToken::Wildcard)
    }

    /// The literal text, or `"<*>"` for wildcards.
    pub fn as_str(&self) -> &str {
        match self {
            TemplateToken::Static(s) => s,
            TemplateToken::Wildcard => "<*>",
        }
    }
}

/// A discovered message template: the static skeleton of a log statement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Template {
    pub id: TemplateId,
    pub tokens: Vec<TemplateToken>,
}

impl Template {
    pub fn new(id: TemplateId, tokens: Vec<TemplateToken>) -> Self {
        Template { id, tokens }
    }

    /// Build a template from a rendered string where variables are `<*>`.
    pub fn from_pattern(id: TemplateId, pattern: &str) -> Self {
        let tokens = pattern
            .split_whitespace()
            .map(|t| {
                if t == "<*>" {
                    TemplateToken::Wildcard
                } else {
                    TemplateToken::Static(t.to_string())
                }
            })
            .collect();
        Template { id, tokens }
    }

    /// Number of tokens (static + wildcard).
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Number of wildcard (variable) positions.
    pub fn wildcard_count(&self) -> usize {
        self.tokens.iter().filter(|t| t.is_wildcard()).count()
    }

    /// Fraction of tokens that are static; 1.0 for a fully-literal template.
    /// Used by unsupervised parser-quality metrics: over-generalized
    /// templates have low specificity.
    pub fn specificity(&self) -> f64 {
        if self.tokens.is_empty() {
            return 0.0;
        }
        1.0 - self.wildcard_count() as f64 / self.tokens.len() as f64
    }

    /// Render as the conventional pattern string, e.g.
    /// `"New process started: process <*> started on port <*>"` (Fig. 2).
    pub fn render(&self) -> String {
        render_tokens(&self.tokens)
    }

    /// Does this template match the given message tokens exactly (same
    /// length, statics equal, wildcards match anything)?
    pub fn matches(&self, message_tokens: &[&str]) -> bool {
        self.tokens.len() == message_tokens.len()
            && self
                .tokens
                .iter()
                .zip(message_tokens)
                .all(|(t, m)| match t {
                    TemplateToken::Static(s) => s == m,
                    TemplateToken::Wildcard => true,
                })
    }

    /// Extract the variable values of `message_tokens` at this template's
    /// wildcard positions. Returns `None` if the message does not match.
    pub fn extract_variables(&self, message_tokens: &[&str]) -> Option<Vec<String>> {
        if !self.matches(message_tokens) {
            return None;
        }
        Some(
            self.tokens
                .iter()
                .zip(message_tokens)
                .filter(|(t, _)| t.is_wildcard())
                .map(|(_, m)| (*m).to_string())
                .collect(),
        )
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.id, self.render())
    }
}

/// Render a token slice as the conventional pattern string without
/// needing an owning [`Template`].
pub fn render_tokens(tokens: &[TemplateToken]) -> String {
    let mut out = String::with_capacity(tokens.len() * 8);
    for (i, tok) in tokens.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(tok.as_str());
    }
    out
}

/// Append-only registry of templates with dense ids.
///
/// Parsers register the templates they discover; detectors look templates up
/// by id. Registration is idempotent on the rendered pattern, so re-parsing
/// the same stream yields the same ids.
#[derive(Debug, Default, Clone)]
pub struct TemplateStore {
    templates: Vec<Template>,
    by_pattern: HashMap<String, TemplateId>,
    revision: u64,
}

impl TemplateStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Bumped whenever a template is minted or its tokens change, and by
    /// nothing else: a consumer that derived state from every template
    /// (semantic vectors) is still current while this is unchanged. Counts
    /// from 0 in each store, decoded ones included — compare revisions of
    /// one store only.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Register `tokens` as a template, returning its id. If an identical
    /// pattern already exists, the existing id is returned.
    pub fn intern(&mut self, tokens: Vec<TemplateToken>) -> TemplateId {
        // Render from the borrowed slice — interning used to clone the
        // whole token vector just to produce the lookup key.
        let pattern = render_tokens(&tokens);
        if let Some(&id) = self.by_pattern.get(&pattern) {
            return id;
        }
        let id = TemplateId(self.templates.len() as u32);
        self.by_pattern.insert(pattern, id);
        self.templates.push(Template::new(id, tokens));
        self.revision += 1;
        id
    }

    /// Replace the token sequence of an existing template (parsers merge
    /// templates by widening statics to wildcards as new lines arrive).
    /// The id and pattern-lookup of the *new* rendering are updated; the old
    /// rendering keeps resolving to this id so previously-parsed lines stay
    /// consistent. A no-op (no render, no allocation) when `tokens` already
    /// equals the stored sequence, so callers may sync unconditionally.
    pub fn update(&mut self, id: TemplateId, tokens: Vec<TemplateToken>) {
        let idx = id.as_index();
        assert!(idx < self.templates.len(), "unknown template id {id}");
        if self.templates[idx].tokens == tokens {
            return;
        }
        self.templates[idx].tokens = tokens;
        self.revision += 1;
        let pattern = self.templates[idx].render();
        self.by_pattern.entry(pattern).or_insert(id);
    }

    pub fn get(&self, id: TemplateId) -> Option<&Template> {
        self.templates.get(id.as_index())
    }

    /// Look up a template id by its rendered pattern.
    pub fn find_by_pattern(&self, pattern: &str) -> Option<TemplateId> {
        self.by_pattern.get(pattern).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Template> {
        self.templates.iter()
    }

    /// Serialize the store (templates in id order; alias patterns from
    /// [`TemplateStore::update`] history are preserved so previously-parsed
    /// renderings keep resolving).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_header(*b"TPLS", 1);
        e.put_len(self.templates.len());
        for t in &self.templates {
            e.put_len(t.tokens.len());
            for tok in &t.tokens {
                match tok {
                    TemplateToken::Wildcard => e.put_u8(0),
                    TemplateToken::Static(s) => {
                        e.put_u8(1);
                        e.put_str(s);
                    }
                }
            }
        }
        // Pattern aliases (old renderings → id), sorted for determinism.
        let mut aliases: Vec<(&String, &TemplateId)> = self.by_pattern.iter().collect();
        aliases.sort();
        e.put_len(aliases.len());
        for (pattern, id) in aliases {
            e.put_str(pattern);
            e.put_u32(id.0);
        }
        e.finish()
    }

    /// Deserialize a store previously produced by [`TemplateStore::encode`].
    pub fn decode(bytes: &[u8]) -> Result<TemplateStore, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(*b"TPLS", 1)?;
        let n = d.get_len()?;
        let mut templates = Vec::with_capacity(n);
        for i in 0..n {
            let n_tokens = d.get_len()?;
            let mut tokens = Vec::with_capacity(n_tokens);
            for _ in 0..n_tokens {
                tokens.push(match d.get_u8()? {
                    0 => TemplateToken::Wildcard,
                    1 => TemplateToken::Static(d.get_str()?),
                    _ => return Err(CodecError::Corrupt("template token tag")),
                });
            }
            templates.push(Template::new(TemplateId(i as u32), tokens));
        }
        let n_aliases = d.get_len()?;
        let mut by_pattern = HashMap::with_capacity(n_aliases);
        for _ in 0..n_aliases {
            let pattern = d.get_str()?;
            let id = TemplateId(d.get_u32()?);
            if id.as_index() >= templates.len() {
                return Err(CodecError::Corrupt("alias id out of range"));
            }
            by_pattern.insert(pattern, id);
        }
        if !d.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        Ok(TemplateStore {
            templates,
            by_pattern,
            revision: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_template() -> Template {
        Template::from_pattern(
            TemplateId(0),
            "New process started: process <*> started on port <*>",
        )
    }

    #[test]
    fn fig2_template_round_trip() {
        let t = fig2_template();
        assert_eq!(
            t.render(),
            "New process started: process <*> started on port <*>"
        );
        assert_eq!(t.wildcard_count(), 2);
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn fig2_variable_extraction() {
        // Fig. 2: variables ("x92", "42") extracted from the message.
        let t = fig2_template();
        let msg: Vec<&str> = "New process started: process x92 started on port 42"
            .split_whitespace()
            .collect();
        assert_eq!(t.extract_variables(&msg).unwrap(), vec!["x92", "42"]);
    }

    #[test]
    fn matches_rejects_wrong_length_and_statics() {
        let t = fig2_template();
        let short: Vec<&str> = "New process started:".split_whitespace().collect();
        assert!(!t.matches(&short));
        let wrong: Vec<&str> = "Old process started: process x92 started on port 42"
            .split_whitespace()
            .collect();
        assert!(!t.matches(&wrong));
    }

    #[test]
    fn specificity() {
        let t = fig2_template();
        assert!((t.specificity() - 7.0 / 9.0).abs() < 1e-12);
        let all_wild = Template::from_pattern(TemplateId(1), "<*> <*>");
        assert_eq!(all_wild.specificity(), 0.0);
        let empty = Template::new(TemplateId(2), vec![]);
        assert_eq!(empty.specificity(), 0.0);
    }

    #[test]
    fn store_interning_is_idempotent() {
        let mut store = TemplateStore::new();
        let a = store.intern(fig2_template().tokens);
        let b = store.intern(fig2_template().tokens);
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn store_assigns_dense_ids() {
        let mut store = TemplateStore::new();
        let a = store.intern(Template::from_pattern(TemplateId(0), "a b").tokens);
        let b = store.intern(Template::from_pattern(TemplateId(0), "c d").tokens);
        assert_eq!(a, TemplateId(0));
        assert_eq!(b, TemplateId(1));
        assert_eq!(store.get(b).unwrap().render(), "c d");
    }

    #[test]
    fn store_persistence_round_trip() {
        let mut store = TemplateStore::new();
        let a = store.intern(fig2_template().tokens);
        let b = store.intern(Template::from_pattern(TemplateId(0), "send 42 bytes").tokens);
        store.update(
            b,
            Template::from_pattern(TemplateId(0), "send <*> bytes").tokens,
        );
        let bytes = store.encode();
        let restored = TemplateStore::decode(&bytes).expect("round trip");
        assert_eq!(restored.len(), store.len());
        assert_eq!(
            restored.get(a).unwrap().render(),
            store.get(a).unwrap().render()
        );
        // Alias from before the update still resolves.
        assert_eq!(restored.find_by_pattern("send 42 bytes"), Some(b));
        assert_eq!(restored.find_by_pattern("send <*> bytes"), Some(b));
        // And interning into the restored store continues the id sequence.
        let mut restored = restored;
        let c = restored.intern(Template::from_pattern(TemplateId(0), "new one").tokens);
        assert_eq!(c, TemplateId(2));
    }

    #[test]
    fn store_decode_rejects_garbage() {
        assert!(TemplateStore::decode(b"nonsense").is_err());
        let mut bytes = TemplateStore::new().encode();
        bytes.push(0); // trailing byte
        assert!(TemplateStore::decode(&bytes).is_err());
    }

    #[test]
    fn store_update_widens_template() {
        let mut store = TemplateStore::new();
        let id = store.intern(Template::from_pattern(TemplateId(0), "send 42 bytes").tokens);
        store.update(
            id,
            Template::from_pattern(TemplateId(0), "send <*> bytes").tokens,
        );
        assert_eq!(store.get(id).unwrap().render(), "send <*> bytes");
        // Both the old and the new rendering resolve to the same id.
        assert_eq!(store.find_by_pattern("send 42 bytes"), Some(id));
        assert_eq!(store.find_by_pattern("send <*> bytes"), Some(id));
    }

    #[test]
    fn revision_moves_exactly_on_mint_and_update() {
        let tokens = |p: &str| Template::from_pattern(TemplateId(0), p).tokens;
        let mut store = TemplateStore::new();
        assert_eq!(store.revision(), 0);
        let id = store.intern(tokens("send 42 bytes"));
        assert_eq!(store.revision(), 1, "mint");
        store.intern(tokens("send 42 bytes"));
        assert_eq!(store.revision(), 1, "re-interning a known pattern");
        store.update(id, tokens("send 42 bytes"));
        assert_eq!(store.revision(), 1, "update to the stored tokens");
        store.update(id, tokens("send <*> bytes"));
        assert_eq!(store.revision(), 2, "widening update");
        store.intern(tokens("send 42 bytes"));
        assert_eq!(store.revision(), 2, "an alias resolves without minting");
        store.get(id);
        store.find_by_pattern("send <*> bytes");
        store.encode();
        assert_eq!(store.revision(), 2, "reads");
        assert_eq!(store.clone().revision(), 2);
        store.intern(tokens("recv <*> bytes"));
        assert_eq!(store.revision(), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_tokens() -> impl Strategy<Value = Vec<TemplateToken>> {
        proptest::collection::vec(
            prop_oneof![
                "[a-z]{1,6}".prop_map(TemplateToken::Static),
                Just(TemplateToken::Wildcard),
            ],
            1..12,
        )
    }

    proptest! {
        /// render → from_pattern round-trips the token sequence.
        #[test]
        fn render_round_trip(tokens in arb_tokens()) {
            let t = Template::new(TemplateId(0), tokens.clone());
            let back = Template::from_pattern(TemplateId(0), &t.render());
            prop_assert_eq!(back.tokens, tokens);
        }

        /// Interning the same token sequence twice yields the same id, and
        /// ids are always dense indices into the store.
        #[test]
        fn intern_idempotent(seqs in proptest::collection::vec(arb_tokens(), 1..20)) {
            let mut store = TemplateStore::new();
            let ids: Vec<TemplateId> = seqs.iter().map(|s| store.intern(s.clone())).collect();
            for (seq, id) in seqs.iter().zip(&ids) {
                prop_assert_eq!(store.intern(seq.clone()), *id);
                prop_assert!(id.as_index() < store.len());
            }
        }

        /// A template always matches a message built by substituting its
        /// wildcards, and extraction returns exactly the substituted values.
        #[test]
        fn extraction_inverts_substitution(tokens in arb_tokens(),
                                           vals in proptest::collection::vec("[0-9]{1,4}", 12)) {
            let t = Template::new(TemplateId(0), tokens);
            let mut vi = 0;
            let rendered: Vec<String> = t.tokens.iter().map(|tok| match tok {
                TemplateToken::Static(s) => s.clone(),
                TemplateToken::Wildcard => { let v = vals[vi].clone(); vi += 1; v }
            }).collect();
            let refs: Vec<&str> = rendered.iter().map(String::as_str).collect();
            let extracted = t.extract_variables(&refs).expect("must match");
            prop_assert_eq!(extracted, vals[..vi].to_vec());
        }
    }
}
