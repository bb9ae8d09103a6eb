//! Drain: online log parsing with a fixed-depth tree (He et al., ICWS 2017).
//!
//! The paper singles Drain out: "According to recent studies, Drain is the
//! most efficient existing parsing solution" — and identifies its two
//! automation limits, which experiments P4/P6 quantify:
//! 1. accuracy is influenced by preprocessing, and
//! 2. its two hyper-parameters (tree depth and similarity threshold) have a
//!    significant impact on precision.
//!
//! Structure: a prefix tree of fixed depth. Level 1 groups by token count;
//! the next `depth - 2` levels route by the first message tokens (tokens
//! containing digits route to a `<*>` child; full nodes overflow to `<*>`);
//! leaves hold template groups compared by token-wise similarity.

use crate::api::{OnlineParser, ParseOutcome, ParserKind};
use crate::preprocess::{MaskConfig, Preprocessor};
use monilog_model::hash::FnvBuild;
use monilog_model::{CodecError, Decoder, Encoder, TemplateId, TemplateStore, TemplateToken};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Drain hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DrainConfig {
    /// Total tree depth. The classic setting is 4: root → length →
    /// (depth-2) token levels → leaf.
    pub depth: usize,
    /// Similarity threshold `st` in `[0,1]`: a message joins the best group
    /// if the fraction of matching static tokens reaches `st`.
    pub sim_threshold: f64,
    /// Maximum children per internal node before overflowing to `<*>`.
    pub max_children: usize,
    /// Preprocessing masks.
    pub mask: MaskConfig,
    /// Maximum entries in the match cache (0 disables it). The cache
    /// memoizes *pure* matches — masked shape → template, no widening —
    /// and is flushed whole on any tree or store mutation, so it can
    /// never change parse output (see `MatchCache`).
    pub cache_capacity: usize,
}

impl Default for DrainConfig {
    fn default() -> Self {
        DrainConfig {
            depth: 4,
            sim_threshold: 0.4,
            max_children: 100,
            mask: MaskConfig::STANDARD,
            cache_capacity: 4096,
        }
    }
}

#[derive(Debug, Default)]
struct Node {
    children: HashMap<String, Node>,
    /// Template groups at this leaf (only non-empty at leaf depth).
    groups: Vec<TemplateId>,
}

/// Stop growing the interner past this many distinct tokens — shapes
/// containing tokens beyond the cap simply never cache (graceful
/// degradation, bounded memory).
const MAX_INTERNED_TOKENS: usize = 1 << 20;

/// Memoized template matches in front of the tree walk.
///
/// Log streams are massively repetitive: once a template stabilizes,
/// every further line of it walks the same tree path, scans the same
/// leaf groups, and widens nothing. The cache short-circuits that whole
/// sequence to one hash-map probe.
///
/// The probe is keyed on *interned token ids*, not on the token strings:
/// each distinct masked token is assigned a stable `u32` once, so a
/// lookup resolves the line's tokens to ids (one cheap map probe per
/// token), then probes the cache with the id slice. Key equality is
/// exact `[u32]` comparison — no joined-string rebuild, no per-hit
/// string re-verification, and hash collisions are impossible to confuse
/// with hits. A token never seen by the interner is a guaranteed miss
/// and short-circuits before any hashing of the remaining tokens.
///
/// Output-invisibility argument (enforced by the differential proptest
/// in `tests/cache_differential.rs`):
/// - an entry is installed only for a *pure* match — similarity above
///   threshold, zero positions widened, no new template minted — so a
///   hit replays a parse whose result is a pure function of frozen
///   parser state;
/// - *any* mutation (template widened, template minted) flushes the
///   entire entry map, so no entry can outlive the state it memoized
///   (the interner survives flushes: token ids are stable names, not
///   memoized state);
/// - variables are re-extracted from the *current* line at the
///   template's wildcard positions — lines with equal masked shape still
///   differ in their raw variable tokens.
///
/// Respawn coherence comes for free: `Drain::warm_start` builds a fresh
/// parser, and a fresh parser has an empty cache.
#[derive(Debug, Default)]
struct MatchCache {
    /// Masked token → stable id. Never flushed; capped at
    /// [`MAX_INTERNED_TOKENS`].
    interner: HashMap<Box<str>, u32, FnvBuild>,
    /// Interned-id shape → memoized pure match.
    map: HashMap<Box<[u32]>, CacheEntry, FnvBuild>,
    /// Reused id buffer so lookups never allocate.
    scratch: Vec<u32>,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct CacheEntry {
    template: TemplateId,
    /// Wildcard positions of the template at install time.
    wildcards: Box<[u32]>,
}

impl MatchCache {
    /// Probe for a memoized pure match. Counts the hit/miss either way.
    fn lookup(&mut self, masked: &[&str]) -> Option<(TemplateId, &[u32])> {
        self.scratch.clear();
        for tok in masked {
            match self.interner.get(*tok) {
                Some(&id) => self.scratch.push(id),
                None => {
                    // Unknown token: no installed shape can contain it.
                    self.misses += 1;
                    return None;
                }
            }
        }
        match self.map.get(self.scratch.as_slice()) {
            Some(entry) => {
                self.hits += 1;
                Some((entry.template, &entry.wildcards))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn install(
        &mut self,
        capacity: usize,
        masked: &[&str],
        gid: TemplateId,
        store: &TemplateStore,
    ) {
        if self.map.len() >= capacity {
            return;
        }
        self.scratch.clear();
        for tok in masked {
            match self.interner.get(*tok) {
                Some(&id) => self.scratch.push(id),
                None => {
                    if self.interner.len() >= MAX_INTERNED_TOKENS {
                        return; // shape not cacheable; parse stays correct
                    }
                    let id = self.interner.len() as u32;
                    self.interner.insert((*tok).into(), id);
                    self.scratch.push(id);
                }
            }
        }
        let template = store.get(gid).expect("cached ids are valid");
        let wildcards = template
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_wildcard())
            .map(|(i, _)| i as u32)
            .collect();
        self.map.insert(
            self.scratch.as_slice().into(),
            CacheEntry {
                template: gid,
                wildcards,
            },
        );
    }

    /// Drop every memoized match: the parser state an entry memoized no
    /// longer exists. Coarse by design — mutations are rare once
    /// templates plateau, and per-entry invalidation would need to know
    /// which shapes a widened template *could* now match. The interner is
    /// deliberately kept: ids are stable names for tokens, not state.
    fn flush(&mut self) {
        self.map.clear();
    }
}

/// The Drain parser.
#[derive(Debug)]
pub struct Drain {
    config: DrainConfig,
    pre: Preprocessor,
    /// Root children keyed by token count.
    by_len: HashMap<usize, Node>,
    store: TemplateStore,
    cache: MatchCache,
    /// Lines parsed so far (for diagnostics/benchmarks).
    lines: u64,
    /// Whether the most recent `parse` was served from the match cache —
    /// the per-line span hook behind trace provenance (`cache_stats` only
    /// gives totals).
    last_cache_hit: bool,
    /// Recycled tokenization buffers (see `parse`): always empty between
    /// calls, so the `'static` lifetime is never inhabited by live data.
    scratch_spans: Vec<crate::preprocess::TokenSpan>,
    scratch_masked: Vec<&'static str>,
    scratch_original: Vec<&'static str>,
}

impl Drain {
    pub fn new(config: DrainConfig) -> Self {
        assert!(
            config.depth >= 3,
            "depth must be at least 3 (root, length, leaf)"
        );
        assert!(
            (0.0..=1.0).contains(&config.sim_threshold),
            "similarity threshold must be in [0,1]"
        );
        assert!(
            config.max_children >= 2,
            "need at least two children per node"
        );
        Drain {
            pre: Preprocessor::new(config.mask),
            config,
            by_len: HashMap::new(),
            store: TemplateStore::new(),
            cache: MatchCache::default(),
            lines: 0,
            last_cache_hit: false,
            scratch_spans: Vec::new(),
            scratch_masked: Vec::new(),
            scratch_original: Vec::new(),
        }
    }

    pub fn config(&self) -> &DrainConfig {
        &self.config
    }

    /// Rebuild a parser from a persisted template store (see
    /// `TemplateStore::encode`): every template is routed back into the
    /// tree by its own tokens, so the warm-started parser assigns the
    /// *same ids* to known log lines as the original instance did — the
    /// restart contract a deployed pipeline needs (detectors key on ids).
    ///
    /// Group order inside a leaf follows id order, which can differ from
    /// the original discovery order; this only affects tie-breaks between
    /// equally-similar groups.
    pub fn warm_start(config: DrainConfig, store: TemplateStore) -> Self {
        let mut drain = Drain::new(config);
        for template in store.iter() {
            let masked: Vec<&str> = template.tokens.iter().map(|t| t.as_str()).collect();
            let leaf = Self::leaf_mut(&mut drain.by_len, &drain.config, &masked);
            leaf.groups.push(template.id);
        }
        drain.store = store;
        drain
    }

    /// Insert an already-discovered template into the tree — the handoff
    /// path when a hot routing key splits to a new shard replica (see
    /// `ShardedDrain`): the receiving shard learns the key's templates up
    /// front so it groups the key's lines exactly as the source shard
    /// does from the very first line. Returns the local id (the existing
    /// one if the pattern is already known). A tree mutation, so the
    /// match cache is flushed.
    pub fn adopt(&mut self, tokens: &[TemplateToken]) -> TemplateId {
        let before = self.store.len();
        let id = self.store.intern(tokens.to_vec());
        if self.store.len() > before {
            let masked: Vec<&str> = tokens.iter().map(|t| t.as_str()).collect();
            let leaf = Self::leaf_mut(&mut self.by_len, &self.config, &masked);
            leaf.groups.push(id);
            self.cache.flush();
        }
        id
    }

    /// Number of lines parsed so far.
    pub fn lines_parsed(&self) -> u64 {
        self.lines
    }

    /// Serialize parser state for the durable checkpoint: the template
    /// store plus the parsed-line counter. The tree and match cache are
    /// derived state — [`Drain::import_state`] rebuilds the tree via
    /// [`Drain::warm_start`] and starts with a cold cache.
    pub fn export_state(&self) -> Vec<u8> {
        let mut e = Encoder::with_header(*b"DRNS", 1);
        e.put_bytes(&self.store.encode());
        e.put_u64(self.lines);
        e.finish()
    }

    /// Rebuild a parser from [`Drain::export_state`] bytes. Known lines
    /// map to the same template ids as in the exporting instance.
    pub fn import_state(config: DrainConfig, bytes: &[u8]) -> Result<Drain, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(*b"DRNS", 1)?;
        let store_bytes = d.get_bytes()?;
        let lines = d.get_u64()?;
        if !d.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes after drain state"));
        }
        let store = TemplateStore::decode(&store_bytes)?;
        let mut drain = Drain::warm_start(config, store);
        drain.lines = lines;
        Ok(drain)
    }

    /// `(hits, misses)` of the match cache so far. Misses count every
    /// cache-enabled parse that fell through to the tree walk.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits, self.cache.misses)
    }

    /// Entries currently memoized.
    pub fn cache_len(&self) -> usize {
        self.cache.map.len()
    }

    /// Whether the most recent [`OnlineParser::parse`] call hit the match
    /// cache (`false` before the first parse).
    pub fn last_parse_cache_hit(&self) -> bool {
        self.last_cache_hit
    }

    /// Similarity of `template` to `tokens`: fraction of positions where a
    /// static template token equals the message token. Also returns the
    /// template's wildcard count (used to break ties toward more general
    /// templates, as in the reference implementation).
    fn seq_dist(template: &[TemplateToken], tokens: &[&str]) -> (f64, usize) {
        debug_assert_eq!(template.len(), tokens.len());
        if template.is_empty() {
            return (1.0, 0);
        }
        let mut sim = 0usize;
        let mut wildcards = 0usize;
        for (t, tok) in template.iter().zip(tokens) {
            match t {
                TemplateToken::Wildcard => wildcards += 1,
                TemplateToken::Static(s) => {
                    if s == tok {
                        sim += 1;
                    }
                }
            }
        }
        (sim as f64 / template.len() as f64, wildcards)
    }

    /// Route to the leaf for `masked`, creating internal nodes as needed.
    /// Takes the tree by field so the caller can keep using the template
    /// store while holding the returned leaf borrow.
    fn leaf_mut<'t>(
        by_len: &'t mut HashMap<usize, Node>,
        config: &DrainConfig,
        masked: &[&str],
    ) -> &'t mut Node {
        let mut node = by_len.entry(masked.len()).or_default();
        let internal_levels = config.depth - 2;
        for level in 0..internal_levels {
            let Some(token) = masked.get(level) else {
                break;
            };
            let key = if *token == "<*>" || token.bytes().any(|b| b.is_ascii_digit()) {
                "<*>"
            } else {
                token
            };
            // Route to an existing child, or create one if capacity allows;
            // otherwise overflow into the `<*>` child. The existing-child
            // case is the steady-state hot path (template counts plateau
            // fast), so it must be a borrowed lookup — allocating a keyed
            // String per level per line would dominate warm parsing.
            node = if node.children.contains_key(key) {
                node.children.get_mut(key).expect("checked above")
            } else if node.children.len() < config.max_children || key == "<*>" {
                node.children.entry(key.to_string()).or_default()
            } else if node.children.contains_key("<*>") {
                node.children.get_mut("<*>").expect("checked above")
            } else {
                node.children.entry("<*>".to_string()).or_default()
            };
        }
        node
    }
}

impl OnlineParser for Drain {
    fn parse(&mut self, message: &str) -> ParseOutcome {
        self.lines += 1;
        self.last_cache_hit = false;
        // Recycled buffers: `Vec` is covariant, so the empty
        // `Vec<&'static str>` scratch moves out as `Vec<&str>` borrowing
        // `message`; `recycle_scratch` empties it before the lifetime is
        // erased again, so no dangling borrow ever exists.
        let mut masked: Vec<&str> = std::mem::take(&mut self.scratch_masked);
        let mut original: Vec<&str> = std::mem::take(&mut self.scratch_original);
        let mut spans = std::mem::take(&mut self.scratch_spans);
        self.pre
            .mask_into(message, &mut spans, &mut masked, &mut original);
        self.scratch_spans = spans;
        let outcome = self.parse_masked(&masked, &original);
        self.scratch_masked = recycle_scratch(masked);
        self.scratch_original = recycle_scratch(original);
        outcome
    }

    fn store(&self) -> &TemplateStore {
        &self.store
    }

    fn kind(&self) -> ParserKind {
        ParserKind::Drain
    }
}

impl Drain {
    /// The tree walk on already-tokenized input — the body of
    /// [`OnlineParser::parse`] minus tokenization, so `parse` can recycle
    /// its token buffers around a single call site.
    fn parse_masked(&mut self, masked: &[&str], original: &[&str]) -> ParseOutcome {
        // Fast path: a memoized pure match replays the tree walk's result
        // on provably unchanged state (see `MatchCache`).
        let use_cache = self.config.cache_capacity > 0 && !masked.is_empty();
        if use_cache {
            if let Some((template, wildcards)) = self.cache.lookup(masked) {
                self.last_cache_hit = true;
                let variables = wildcards
                    .iter()
                    .map(|&i| original[i as usize].to_string())
                    .collect();
                return ParseOutcome {
                    template,
                    is_new: false,
                    variables,
                };
            }
        }

        let leaf = Self::leaf_mut(&mut self.by_len, &self.config, masked);

        // Find the most similar group in the leaf.
        let mut best: Option<(TemplateId, f64, usize)> = None;
        for &gid in &leaf.groups {
            let template = self.store.get(gid).expect("group ids are valid");
            let (sim, wild) = Self::seq_dist(&template.tokens, masked);
            let better = match best {
                None => true,
                Some((_, bs, bw)) => sim > bs || (sim == bs && wild > bw),
            };
            if better {
                best = Some((gid, sim, wild));
            }
        }

        let matched = best.filter(|(_, sim, _)| *sim >= self.config.sim_threshold);
        match matched {
            Some((gid, _, _)) => {
                // Merge: widen mismatching positions to wildcards. The
                // pure-match case (nothing to widen) is the steady state
                // and must not clone the template.
                let template = self.store.get(gid).expect("valid id");
                let changed = template
                    .tokens
                    .iter()
                    .zip(masked)
                    .any(|(t, tok)| matches!(t, TemplateToken::Static(s) if s != tok));
                if changed {
                    let mut tokens = template.tokens.clone();
                    for (t, tok) in tokens.iter_mut().zip(masked) {
                        if let TemplateToken::Static(s) = t {
                            if s != tok {
                                *t = TemplateToken::Wildcard;
                            }
                        }
                    }
                    self.store.update(gid, tokens);
                    self.cache.flush();
                } else if use_cache {
                    self.cache
                        .install(self.config.cache_capacity, masked, gid, &self.store);
                }
                let template = self.store.get(gid).expect("valid id");
                let variables = template
                    .tokens
                    .iter()
                    .zip(original)
                    .filter(|(t, _)| t.is_wildcard())
                    .map(|(_, tok)| (*tok).to_string())
                    .collect();
                ParseOutcome {
                    template: gid,
                    is_new: false,
                    variables,
                }
            }
            None => {
                let tokens: Vec<TemplateToken> = masked
                    .iter()
                    .map(|t| {
                        if *t == "<*>" {
                            TemplateToken::Wildcard
                        } else {
                            TemplateToken::Static((*t).to_string())
                        }
                    })
                    .collect();
                let variables = tokens
                    .iter()
                    .zip(original)
                    .filter(|(t, _)| t.is_wildcard())
                    .map(|(_, tok)| (*tok).to_string())
                    .collect();
                // A wildcard-heavy template can score below the similarity
                // threshold against its *own* shape forever (wildcards
                // don't count toward similarity), so this arm repeats for
                // every line of such a shape. `intern` dedupes by pattern;
                // only a genuinely new template or new leaf membership
                // mutates state (and flushes the cache). The repeated
                // no-mutation case is itself a pure match, so memoize it —
                // without the dedupe, `groups` gains a duplicate id per
                // line and the leaf scan above goes quadratic in stream
                // length while every flush evicts all other shapes.
                let before = self.store.len();
                let gid = self.store.intern(tokens);
                let is_new = self.store.len() > before;
                if !leaf.groups.contains(&gid) {
                    leaf.groups.push(gid);
                    self.cache.flush();
                } else if use_cache {
                    self.cache
                        .install(self.config.cache_capacity, masked, gid, &self.store);
                }
                ParseOutcome {
                    template: gid,
                    is_new,
                    variables,
                }
            }
        }
    }
}

/// Empty a recycled token buffer and erase its (now uninhabited) borrow
/// lifetime so it can be stored back in the parser. Sound because the
/// vector is cleared first: no `&'a str` values survive the cast.
fn recycle_scratch(mut v: Vec<&str>) -> Vec<&'static str> {
    v.clear();
    let cap = v.capacity();
    let ptr = v.as_mut_ptr();
    std::mem::forget(v);
    // SAFETY: same layout (`&str` is lifetime-erased, not re-typed), zero
    // length, original capacity from the same allocation.
    unsafe { Vec::from_raw_parts(ptr.cast::<&'static str>(), 0, cap) }
}

#[cfg(test)]
mod alloc_counter {
    //! Thread-local allocation counting for the hot-path regression test:
    //! wraps the system allocator and counts allocations made by the
    //! *current* thread, so parallel tests don't interfere.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    pub struct CountingAllocator;

    // SAFETY: every call is forwarded unchanged to `System`, which upholds
    // the `GlobalAlloc` contract; the counter never allocates.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // try_with: TLS may be mid-teardown during thread exit.
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            // SAFETY: the caller's `layout` obligations pass straight through.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `alloc` above, that is from `System`,
            // with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: CountingAllocator = CountingAllocator;

    /// Allocations made by this thread so far.
    pub fn current_thread_allocs() -> u64 {
        ALLOCS.with(|c| c.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain() -> Drain {
        Drain::new(DrainConfig::default())
    }

    #[test]
    fn warm_routing_path_does_not_allocate() {
        // Regression: `leaf_mut` used to build `key.to_string()` at every
        // routing level of every line even when the child already existed.
        // On a warmed tree, routing must be pure borrowed lookups.
        let mut d = Drain::new(DrainConfig {
            mask: MaskConfig::NONE,
            ..DrainConfig::default()
        });
        d.parse("alpha beta gamma delta");
        d.parse("alpha beta gamma delta");
        let tokens = ["alpha", "beta", "gamma", "delta"];
        // Warm the lane (TLS init, hash state, etc.) before measuring.
        let _ = Drain::leaf_mut(&mut d.by_len, &d.config, &tokens);
        let before = super::alloc_counter::current_thread_allocs();
        for _ in 0..1_000 {
            let leaf = Drain::leaf_mut(&mut d.by_len, &d.config, &tokens);
            assert!(!leaf.groups.is_empty(), "routed to the populated leaf");
        }
        let after = super::alloc_counter::current_thread_allocs();
        assert_eq!(
            after - before,
            0,
            "existing-child routing must not allocate"
        );
    }

    #[test]
    fn overflow_routing_still_reaches_wildcard_child() {
        // The restructured routing keeps the capacity/overflow semantics:
        // full node + unknown key routes to `<*>` (allocating only when
        // that child is first created).
        let mut d = Drain::new(DrainConfig {
            max_children: 2,
            mask: MaskConfig::NONE,
            sim_threshold: 0.5,
            ..DrainConfig::default()
        });
        d.parse("alpha path one");
        d.parse("beta path one");
        d.parse("gamma path one"); // overflows into <*>
        let tokens = ["gamma", "path", "one"];
        let before = super::alloc_counter::current_thread_allocs();
        let _ = Drain::leaf_mut(&mut d.by_len, &d.config, &tokens);
        let after = super::alloc_counter::current_thread_allocs();
        assert_eq!(after - before, 0, "existing overflow path is borrowed too");
    }

    #[test]
    fn identical_messages_share_template() {
        let mut d = drain();
        let a = d.parse("Connection established to backend be3");
        let b = d.parse("Connection established to backend be3");
        assert_eq!(a.template, b.template);
        assert!(a.is_new);
        assert!(!b.is_new);
    }

    #[test]
    fn table1_grouping() {
        // Section IV: "log message L1 & L3 are considered correctly
        // classified if they are identified as coming from the same class".
        let mut d = drain();
        let l1 = d.parse("Sending 138 bytes src: 10.250.11.53 dest: /10.250.11.53");
        let l3 = d.parse("Sending 745675869 bytes src: 10.250.11.53 dest: /10.250.11.53");
        assert_eq!(l1.template, l3.template);
        // And the error line L2 (different length) is a different class.
        let l2 = d.parse("Error while receiving data src: 10.250.11.53 dest: /10.250.11.53");
        assert_ne!(l1.template, l2.template);
    }

    #[test]
    fn variables_extracted_at_masked_positions() {
        let mut d = drain();
        let out = d.parse("Sending 138 bytes src: 10.250.11.53 dest: /10.250.11.53");
        assert_eq!(out.variables, vec!["138", "10.250.11.53", "/10.250.11.53"]);
    }

    #[test]
    fn fig2_template_discovery() {
        let mut d = Drain::new(DrainConfig {
            mask: MaskConfig::AGGRESSIVE,
            ..DrainConfig::default()
        });
        d.parse("New process started: process x92 started on port 42");
        d.parse("New process started: process b7 started on port 9000");
        let t = d.store().iter().next().unwrap();
        assert_eq!(
            t.render(),
            "New process started: process <*> started on port <*>"
        );
    }

    #[test]
    fn template_widens_on_unmasked_variables() {
        // Without masking, Drain still converges by widening mismatches —
        // provided the variable sits past the routing prefix (the first
        // depth-2 tokens), which is where Drain's design expects variables.
        let mut d = Drain::new(DrainConfig {
            mask: MaskConfig::NONE,
            sim_threshold: 0.5,
            ..DrainConfig::default()
        });
        let a = d.parse("job run alpha done fast mode");
        let b = d.parse("job run beta done slow mode");
        assert_eq!(a.template, b.template);
        let t = d.store().get(a.template).unwrap();
        assert_eq!(t.render(), "job run <*> done <*> mode");
    }

    #[test]
    fn unmasked_variable_in_routing_prefix_splits_groups() {
        // The flip side — and the reason the paper calls preprocessing an
        // automation limit: a variable within the first depth-2 tokens
        // routes identical templates to different leaves.
        let mut d = Drain::new(DrainConfig {
            mask: MaskConfig::NONE,
            sim_threshold: 0.5,
            ..DrainConfig::default()
        });
        let a = d.parse("job alpha finished in fast mode");
        let b = d.parse("job beta finished in fast mode");
        assert_ne!(a.template, b.template);
        // With masking, the same pair converges.
        let mut masked = Drain::new(DrainConfig {
            mask: MaskConfig::AGGRESSIVE,
            sim_threshold: 0.5,
            ..DrainConfig::default()
        });
        let a = masked.parse("job alpha17 finished in fast mode");
        let b = masked.parse("job beta9 finished in fast mode");
        assert_eq!(a.template, b.template);
    }

    #[test]
    fn below_threshold_creates_new_group() {
        let mut d = Drain::new(DrainConfig {
            mask: MaskConfig::NONE,
            sim_threshold: 0.9,
            ..DrainConfig::default()
        });
        let a = d.parse("alpha beta gamma delta");
        let b = d.parse("alpha zzz yyy xxx");
        assert_ne!(
            a.template, b.template,
            "0.25 similarity must not merge at st=0.9"
        );
    }

    #[test]
    fn different_lengths_never_share_template() {
        let mut d = drain();
        let a = d.parse("one two three");
        let b = d.parse("one two three four");
        assert_ne!(a.template, b.template);
    }

    #[test]
    fn empty_message_is_handled() {
        let mut d = drain();
        let out = d.parse("");
        assert!(out.is_new);
        assert!(out.variables.is_empty());
        let again = d.parse("   ");
        assert_eq!(
            out.template, again.template,
            "all-empty messages share a class"
        );
    }

    #[test]
    fn max_children_overflows_to_wildcard() {
        let mut d = Drain::new(DrainConfig {
            max_children: 2,
            mask: MaskConfig::NONE,
            sim_threshold: 0.5,
            ..DrainConfig::default()
        });
        // Three distinct first tokens at the same length: the third must
        // overflow into the <*> child rather than growing the node.
        d.parse("alpha path one");
        d.parse("beta path one");
        d.parse("gamma path one");
        d.parse("delta path one");
        // All messages parsed without panic; at most 3 templates exist
        // (two named children plus the shared overflow group).
        assert!(d.store().len() <= 3, "{} templates", d.store().len());
    }

    #[test]
    fn high_depth_uses_more_prefix_tokens() {
        let mut shallow = Drain::new(DrainConfig {
            depth: 3,
            mask: MaskConfig::NONE,
            sim_threshold: 0.45,
            ..DrainConfig::default()
        });
        // depth 3 → 1 token level. Same first token, so these meet in one
        // leaf and merge at 2/4 similarity.
        let a = shallow.parse("op read file alpha");
        let b = shallow.parse("op read sock beta");
        assert_eq!(a.template, b.template);

        let mut deep = Drain::new(DrainConfig {
            depth: 5,
            mask: MaskConfig::NONE,
            sim_threshold: 0.45,
            ..DrainConfig::default()
        });
        // depth 5 → 3 token levels: "op read file ..." and "op read sock
        // ..." part ways at level 3 and never meet.
        let a = deep.parse("op read file alpha");
        let b = deep.parse("op read sock beta");
        assert_ne!(a.template, b.template);
    }

    #[test]
    #[should_panic(expected = "depth must be at least 3")]
    fn rejects_tiny_depth() {
        Drain::new(DrainConfig {
            depth: 2,
            ..DrainConfig::default()
        });
    }

    #[test]
    fn warm_start_preserves_template_ids() {
        // Train a parser, persist its store, warm-start a new one: known
        // lines must map to the same ids; new templates continue the id
        // sequence.
        let mut original = Drain::new(DrainConfig::default());
        let lines = [
            "Receiving block blk_1 src: 10.0.0.1 dest: 10.0.0.2",
            "Verification succeeded for blk_1",
            "Deleting block blk_1 file /data/1",
        ];
        let original_ids: Vec<_> = lines.iter().map(|l| original.parse(l).template).collect();

        let bytes = original.store().encode();
        let store = monilog_model::TemplateStore::decode(&bytes).expect("round trip");
        let mut restored = Drain::warm_start(DrainConfig::default(), store);
        for (line, expected) in lines.iter().zip(&original_ids) {
            let out = restored.parse(line);
            assert_eq!(
                out.template, *expected,
                "id changed across restart for {line}"
            );
            assert!(!out.is_new);
        }
        let fresh = restored.parse("an entirely different statement shape");
        assert!(fresh.is_new);
        assert_eq!(fresh.template.as_index(), original_ids.len());
    }

    #[test]
    fn export_import_state_round_trips() {
        let mut original = Drain::new(DrainConfig::default());
        let lines = [
            "Receiving block blk_1 src: 10.0.0.1 dest: 10.0.0.2",
            "Verification succeeded for blk_1",
            "Deleting block blk_1 file /data/1",
        ];
        let ids: Vec<_> = lines.iter().map(|l| original.parse(l).template).collect();
        let bytes = original.export_state();
        let mut restored =
            Drain::import_state(DrainConfig::default(), &bytes).expect("import state");
        assert_eq!(restored.lines_parsed(), original.lines_parsed());
        for (line, expected) in lines.iter().zip(&ids) {
            assert_eq!(restored.parse(line).template, *expected);
        }
        // Corrupt or truncated state is a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                Drain::import_state(DrainConfig::default(), &bytes[..cut]).is_err(),
                "prefix of {cut} bytes imported"
            );
        }
    }

    #[test]
    fn warm_start_empty_store_behaves_like_new() {
        let mut a = Drain::new(DrainConfig::default());
        let mut b = Drain::warm_start(DrainConfig::default(), monilog_model::TemplateStore::new());
        let la = a.parse("x y z");
        let lb = b.parse("x y z");
        assert_eq!(la, lb);
    }

    #[test]
    fn cache_hits_after_template_stabilizes() {
        let mut d = drain();
        d.parse("Sending 138 bytes src: 10.0.0.1 dest: /10.0.0.2");
        // Second line of the same shape is a pure match → installs.
        d.parse("Sending 999 bytes src: 10.9.9.9 dest: /10.0.0.1");
        assert_eq!(d.cache_len(), 1);
        let (hits_before, _) = d.cache_stats();
        let out = d.parse("Sending 7 bytes src: 10.1.1.1 dest: /10.2.2.2");
        let (hits_after, _) = d.cache_stats();
        assert_eq!(hits_after, hits_before + 1, "third line must hit");
        // Variables come from *this* line, not the memoized one.
        assert_eq!(out.variables, vec!["7", "10.1.1.1", "/10.2.2.2"]);
        assert!(!out.is_new);
    }

    #[test]
    fn below_threshold_shape_memoizes_instead_of_duplicating() {
        // A 3-token shape with one static token can never reach the 0.4
        // similarity threshold against its own template (wildcards score
        // zero), so every line of it lands in the no-match arm. That arm
        // must dedupe against the existing template — not mint a
        // "new" template per line, grow the leaf's group list, and flush
        // the cache for every other shape (the quadratic pathology this
        // guards against).
        let mut d = drain();
        let a = d.parse("allocateBlock: /user/data/part-1 blk_1");
        assert!(a.is_new, "first sighting mints the template");
        let b = d.parse("allocateBlock: /user/data/part-2 blk_2");
        assert_eq!(b.template, a.template);
        assert!(!b.is_new, "the template already existed");
        assert_eq!(b.variables, vec!["/user/data/part-2", "blk_2"]);
        // The repeated no-mutation outcome is itself memoized: the third
        // line is a cache hit, which also proves the second line did not
        // mutate parser state (any mutation would have flushed).
        let c = d.parse("allocateBlock: /user/data/part-3 blk_3");
        assert!(d.last_parse_cache_hit(), "repeat shape must hit the cache");
        assert_eq!(c.template, a.template);
        assert_eq!(c.variables, vec!["/user/data/part-3", "blk_3"]);
        // An unrelated stable shape keeps its cache entry across the
        // repeats (the old behavior flushed the whole cache per line).
        // Minting the Sending template flushes once, so the next
        // allocateBlock line re-installs its entry — it must do so
        // *without* flushing the Sending entry.
        d.parse("Sending 10 bytes src: 10.0.0.1 dest: /10.0.0.2");
        d.parse("Sending 11 bytes src: 10.0.0.3 dest: /10.0.0.4");
        let len_before = d.cache_len();
        d.parse("allocateBlock: /user/data/part-4 blk_4");
        assert_eq!(d.cache_len(), len_before + 1, "install, not flush");
        d.parse("Sending 12 bytes src: 10.0.0.5 dest: /10.0.0.6");
        assert!(d.last_parse_cache_hit(), "unrelated entry survived");
    }

    #[test]
    fn last_parse_cache_hit_tracks_each_line() {
        let mut d = drain();
        assert!(!d.last_parse_cache_hit(), "false before the first parse");
        d.parse("Sending 138 bytes src: 10.0.0.1 dest: /10.0.0.2");
        assert!(!d.last_parse_cache_hit(), "first line can't hit");
        d.parse("Sending 999 bytes src: 10.9.9.9 dest: /10.0.0.1");
        assert!(!d.last_parse_cache_hit(), "install, not a hit");
        d.parse("Sending 7 bytes src: 10.1.1.1 dest: /10.2.2.2");
        assert!(d.last_parse_cache_hit(), "steady state hits");
        d.parse("a line of an entirely different shape");
        assert!(!d.last_parse_cache_hit(), "resets on a miss");
    }

    #[test]
    fn cache_flushes_on_any_mutation() {
        let mut d = Drain::new(DrainConfig {
            mask: MaskConfig::NONE,
            sim_threshold: 0.5,
            ..DrainConfig::default()
        });
        d.parse("job run alpha done fast mode");
        d.parse("job run alpha done fast mode"); // pure match → installs
        assert_eq!(d.cache_len(), 1);
        // Widening mutation flushes...
        d.parse("job run beta done slow mode");
        assert_eq!(d.cache_len(), 0, "widening must flush the cache");
        d.parse("job run beta done slow mode");
        assert_eq!(d.cache_len(), 1);
        // ...and so does minting a new template.
        d.parse("an entirely different statement");
        assert_eq!(d.cache_len(), 0, "new template must flush the cache");
    }

    #[test]
    fn cache_capacity_zero_disables() {
        let mut d = Drain::new(DrainConfig {
            cache_capacity: 0,
            ..DrainConfig::default()
        });
        for _ in 0..5 {
            d.parse("Sending 138 bytes src: 10.0.0.1 dest: /10.0.0.2");
        }
        assert_eq!(d.cache_stats(), (0, 0));
        assert_eq!(d.cache_len(), 0);
    }

    #[test]
    fn cached_and_uncached_agree_on_repeats() {
        // Inline spot check of what tests/cache_differential.rs proves at
        // scale: hit-path outcomes equal cold-parser outcomes.
        let lines = [
            "Receiving block blk_1 src: 10.0.0.1 dest: 10.0.0.2",
            "Receiving block blk_9 src: 10.0.0.7 dest: 10.0.0.8",
            "Receiving block blk_4 src: 10.0.0.2 dest: 10.0.0.3",
            "Verification succeeded for blk_4",
            "Receiving block blk_5 src: 10.0.0.1 dest: 10.0.0.9",
        ];
        let mut cached = drain();
        let mut plain = Drain::new(DrainConfig {
            cache_capacity: 0,
            ..DrainConfig::default()
        });
        for line in lines {
            assert_eq!(cached.parse(line), plain.parse(line));
        }
        assert!(cached.cache_stats().0 > 0, "repeats must hit the cache");
    }

    #[test]
    fn parse_all_matches_sequential_parse() {
        let msgs = vec![
            "Receiving block blk_1 src: 10.0.0.1 dest: 10.0.0.2",
            "Receiving block blk_2 src: 10.0.0.3 dest: 10.0.0.4",
            "Verification succeeded for blk_1",
        ];
        let refs: Vec<&str> = msgs.clone();
        let mut d1 = drain();
        let batch = d1.parse_all(&refs);
        let mut d2 = drain();
        let seq: Vec<ParseOutcome> = msgs.iter().map(|m| d2.parse(m)).collect();
        assert_eq!(batch, seq);
    }
}

#[cfg(test)]
mod corpus_tests {
    use super::*;
    use monilog_loggen::corpus;
    use std::collections::HashMap;

    /// Drain must recover the HDFS-like corpus almost perfectly: the
    /// per-line truth→parsed mapping should be a near-bijection.
    #[test]
    fn high_grouping_fidelity_on_hdfs_like() {
        let corpus = corpus::hdfs_like(200, 11);
        let mut d = Drain::new(DrainConfig::default());
        let mut pairs: HashMap<(u32, u32), usize> = HashMap::new();
        for log in &corpus.logs {
            let out = d.parse(&log.record.message);
            *pairs
                .entry((log.truth.template.0, out.template.0))
                .or_default() += 1;
        }
        // Every truth template maps predominantly to one parsed template.
        let mut by_truth: HashMap<u32, Vec<usize>> = HashMap::new();
        for ((truth, _), n) in &pairs {
            by_truth.entry(*truth).or_default().push(*n);
        }
        for (truth, counts) in by_truth {
            let total: usize = counts.iter().sum();
            let max = counts.iter().max().copied().unwrap_or(0);
            assert!(
                max as f64 / total as f64 > 0.95,
                "truth template {truth} is split: {counts:?}"
            );
        }
    }
}
