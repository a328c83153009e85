//! The shared result caches: elaborations ([`DesignCache`]) and scoring
//! outcomes ([`ScoreCache`]). Per-process compilation units live one
//! level down, in [`mage_core::UnitCache`] (re-exported here).
//!
//! # One tier
//!
//! Every cache is a thin wrapper over one [`TieredLru`]: entries keyed
//! by a 64-bit hash of their full identity, that identity stored and
//! verified on every hit (a colliding lookup falls through to a real
//! compile or simulation), LRU-evicted with promote-on-hit, and counted
//! as hits, misses, collisions and promotions. A wrapper adds only what
//! is its own: the identity (a source text for designs; typed
//! source/design + bench values for scores), the miss path (compile
//! with delta hints, or simulate), and for scores the structural
//! short-circuit index — a second, untiered tier.
//!
//! The tier's race and collision rules (see [`mage_core::tier`]):
//! racing stores of one identity keep the first value and return it;
//! two identities on one key keep the most recent; a collision counts
//! at most once per tier per lookup, whether the lookup's probe saw it
//! or a racer created it before the lookup's store.
//!
//! # Tiered fabric
//!
//! [`DesignCache::tiered`] / [`ScoreCache::tiered`] /
//! [`UnitCache::tiered`] build a small local tier backed by a shared
//! global parent. A local miss consults the parent before computing; a
//! parent hit is **promoted** into the local tier (counted by
//! `promotions`), and every fresh computation is published to the
//! parent so sibling tiers can reuse it. Entries are
//! schedule-independent facts (pure functions of their identity), so
//! the fabric can only change *where* work happens, never *what* any
//! lookup returns — tiering is invisible to traces by construction.

use mage_core::solvejob::{execute_sim_with, SimOutcome, SimRequest};
use mage_core::tier::{CacheTierStats, TieredLru};
pub use mage_core::units::{UnitCache, DEFAULT_UNIT_CAPACITY};
use mage_core::{compile, compile_with_provider};
use mage_sim::{
    delta_enabled, ChainedUnits, Design, DesignUnits, Process, SignalDecl, SignalId, UnitSource,
};
use mage_tb::{TbReport, Testbench};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Default entry bound: comfortably above any one round's working set,
/// small enough that a day-long stream cannot grow without limit.
pub const DEFAULT_CACHE_CAPACITY: usize = 8192;

/// Hash function keying a [`DesignCache`]. Injectable so tests can force
/// distinct sources onto one key and exercise the collision path.
pub type SourceHasher = fn(&str) -> u64;

fn fnv1a_source(source: &str) -> u64 {
    mage_logic::fnv1a(source.as_bytes())
}

/// An elaboration result: the design, or the diagnostic fed to the
/// syntax-repair loop.
type Elaboration = Result<Arc<Design>, String>;

/// A bounded map from candidate source text to its elaboration result,
/// shared by every job (and every engine) holding the same
/// `Arc<DesignCache>`.
///
/// Keying: `fnv1a(source bytes)` over the *full* source text, with the
/// text itself stored and verified on every hit — a colliding lookup
/// falls through to a real compile instead of returning the wrong
/// design. Elaboration ([`mage_core::compile`]) is a pure function of
/// that text, so entries are schedule-independent facts — sharing them
/// across jobs cannot leak state between solves, and evicting one only
/// costs a recompile (the determinism suite verifies warmth changes
/// nothing). Both successes (`Arc<Design>`) and failures (the
/// diagnostic string fed to the syntax-repair loop) are cached; the
/// syntax loop re-probes the same broken source often.
///
/// Capacity: at most `capacity` entries, evicted least-recently-used —
/// a hit refreshes recency, so the hot grading benches and re-probed
/// syntax-repair sources survive a stream of unique high-temperature
/// candidates.
#[derive(Debug)]
pub struct DesignCache {
    tier: Arc<TieredLru<str, Elaboration>>,
}

impl Default for DesignCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl DesignCache {
    /// An empty cache with the [default capacity](DEFAULT_CACHE_CAPACITY).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to `capacity` entries (0 = unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_hasher(capacity, fnv1a_source)
    }

    /// An empty cache with an explicit key hasher. The production hasher
    /// is FNV-1a over the full source; tests inject degenerate hashers
    /// to force key collisions.
    pub fn with_capacity_and_hasher(capacity: usize, hasher: SourceHasher) -> Self {
        let tier = Arc::new(TieredLru::with_hasher(capacity, hasher, None));
        DesignCache { tier }
    }

    /// A local tier bounded to `capacity` entries, backed by `parent`:
    /// local misses consult the parent (promoting hits locally) and
    /// fresh compiles are published to it. The parent uses its own
    /// hasher; the local tier uses the production hasher.
    pub fn tiered(capacity: usize, parent: Arc<DesignCache>) -> Self {
        let parent = Some(Arc::clone(&parent.tier));
        let tier = Arc::new(TieredLru::with_hasher(capacity, fnv1a_source, parent));
        DesignCache { tier }
    }

    /// Look up `source`, elaborating on a miss. Two workers racing on
    /// the same new source may both compile; the results are identical
    /// and the first insert wins, so callers observe one canonical
    /// entry either way.
    pub fn get_or_compile(&self, source: &str) -> Elaboration {
        self.get_or_compile_with(source, None, None)
    }

    /// [`get_or_compile`](Self::get_or_compile) with delta-compilation
    /// hints: on a cache miss the compile probes `parent` (the design
    /// the source was derived from) and `units` (the shared process-unit
    /// tier) for unchanged compilation units, chained parent-first, and
    /// rebuilds only what misses. Fresh units are published to `units`.
    /// The hints never change the cached result — a delta-built design
    /// is store-exact against a from-scratch compile — and are ignored
    /// entirely under `MAGE_SIM_DELTA=off`.
    pub fn get_or_compile_with(
        &self,
        source: &str,
        parent: Option<&Arc<Design>>,
        units: Option<&UnitCache>,
    ) -> Elaboration {
        self.tier
            .get_or_insert_with(source, || compile_delta(source, parent, units))
    }

    /// Number of distinct sources cached.
    pub fn len(&self) -> usize {
        self.tier.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.tier.is_empty()
    }

    /// The entry bound (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.tier.capacity()
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> usize {
        self.tier.hits()
    }

    /// Lookups that compiled (or were promoted from the global tier).
    pub fn misses(&self) -> usize {
        self.tier.misses()
    }

    /// Lookups whose key matched a *different* cached source (each one
    /// fell through to a real compile instead of returning the wrong
    /// design).
    pub fn collisions(&self) -> usize {
        self.tier.collisions()
    }

    /// Local misses answered by the global tier (a subset of
    /// [`misses`](Self::misses)). Always 0 on an untiered cache.
    pub fn promotions(&self) -> usize {
        self.tier.promotions()
    }

    /// All four tier counters at once.
    pub fn stats(&self) -> CacheTierStats {
        self.tier.stats()
    }
}

/// Compile `source`, reusing units from `parent` and/or `units` when
/// delta compilation is enabled. With neither hint (or with
/// `MAGE_SIM_DELTA=off`) this is exactly [`mage_core::compile`].
fn compile_delta(
    source: &str,
    parent: Option<&Arc<Design>>,
    units: Option<&UnitCache>,
) -> Elaboration {
    if !delta_enabled() || (parent.is_none() && units.is_none()) {
        return compile(source);
    }
    let parent_units = parent.map(|p| DesignUnits::new(Arc::clone(p)));
    let mut sources: Vec<&dyn UnitSource> = Vec::new();
    if let Some(p) = &parent_units {
        sources.push(p);
    }
    if let Some(u) = units {
        sources.push(u);
    }
    let chain = ChainedUnits::new(sources);
    compile_with_provider(source, &chain).map(|(design, _)| design)
}

/// Default [`ScoreCache`] entry bound. Scored outcomes carry full
/// reports (one record per bench step), so the bound sits below the
/// design cache's.
pub const DEFAULT_SCORE_CAPACITY: usize = 4096;

/// Last step of a [`ScoreCache`] key: maps an identity's 64-bit
/// structural hash to its tier key. Injectable so tests can force
/// distinct identities onto one key and exercise the collision path.
pub type KeyHasher = fn(u64) -> u64;

fn plain_key(hash: u64) -> u64 {
    hash
}

/// The 64-bit hash of `value`'s derived [`Hash`] (std's SipHash with
/// fixed keys, so a key is the same in every run).
fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Bench equality for both score identities: the same allocation, or
/// structurally equal content.
fn same_bench(a: &Arc<Testbench>, b: &Arc<Testbench>) -> bool {
    Arc::ptr_eq(a, b) || **a == **b
}

/// What [`mage_tb::run_testbench`] observes of a design: top name,
/// every signal with its declaration, port orders, every process body.
/// Two designs with equal structure observe the same report and score
/// under one bench, whatever their source text.
type Structure<'a> = (
    &'a str,
    &'a [SignalDecl],
    &'a [SignalId],
    &'a [SignalId],
    &'a [Process],
);

fn structure(d: &Design) -> Structure<'_> {
    (&d.top, &d.signals, &d.inputs, &d.outputs, &d.processes)
}

/// The identity a scored outcome is keyed under: the candidate source
/// and the bench, verified in full on every hit.
#[derive(Clone)]
struct ScoreId {
    /// Tier key, computed once per lookup.
    key: u64,
    source: String,
    bench: Arc<Testbench>,
}

impl PartialEq for ScoreId {
    fn eq(&self, other: &Self) -> bool {
        self.source == other.source && same_bench(&self.bench, &other.bench)
    }
}

/// The identity a *delta short-circuit* is keyed under: the design's
/// [structure](Structure) plus the bench, verified in full on every
/// hit. Candidates with equal structure (e.g. whitespace or comment
/// edits, where the delta elaboration reports 0 rebuilt units) share
/// it, whatever their source text.
#[derive(Clone)]
struct DesignId {
    /// Tier key, computed once per lookup.
    key: u64,
    design: Arc<Design>,
    bench: Arc<Testbench>,
}

impl PartialEq for DesignId {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.design, &other.design)
            || structure(&self.design) == structure(&other.design))
            && same_bench(&self.bench, &other.bench)
    }
}

/// A bounded map from `(candidate source, bench content)` to the full
/// scoring outcome, shared across jobs exactly like [`DesignCache`].
///
/// Scores could not ride the design cache: a score depends on the
/// *bench* the job generated, and benches are per-job artifacts. But
/// they are still pure — [`mage_tb::run_testbench`] is a deterministic
/// function of `(bench, design)`, and the design is a pure function of
/// the source — so two jobs that generated *structurally equal* benches
/// for the same candidate source must observe the same report and
/// score. This cache shares exactly those.
///
/// Keying: the identity is the typed pair `(source, Arc<Testbench>)`.
/// Its key hashes the source and the bench's derived [`Hash`] once per
/// lookup (the bench hash is reused by the structural index), passed
/// through the cache's [`KeyHasher`]. Every hit is verified by full
/// equality — the source text, and the bench by `Arc::ptr_eq` or else
/// derived `PartialEq` — so a colliding lookup falls through to a real
/// simulation, mirroring the design cache's guard. Entries are
/// LRU-evicted with promote-on-hit.
///
/// Compile-only probes (no bench) are never cached here — the design
/// cache already covers them.
#[derive(Debug)]
pub struct ScoreCache {
    tier: Arc<TieredLru<ScoreId, SimOutcome>>,
    /// Delta-aware secondary index: elaborated design structure plus
    /// bench → report and score. Populated and probed only by
    /// [`ScoreCache::get_or_run_delta`], under `MAGE_SIM_DELTA`; a hit
    /// here means the probing candidate elaborated to a structurally
    /// identical design (0 rebuilt units — e.g. a whitespace or comment
    /// edit) under an unchanged bench, so its score is served without
    /// running a sim. Untiered: the primary tier still publishes
    /// upward, so siblings share exact-text outcomes.
    by_design: TieredLru<DesignId, (Option<TbReport>, f64)>,
    /// Final step of both tiers' keys.
    key_hasher: KeyHasher,
}

impl Default for ScoreCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SCORE_CAPACITY)
    }
}

impl ScoreCache {
    /// An empty cache with the [default capacity](DEFAULT_SCORE_CAPACITY).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to `capacity` entries (0 = unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_hasher(capacity, plain_key)
    }

    /// An empty cache with an explicit key hasher, applied to every
    /// identity's structural hash — score and short-circuit identities
    /// alike. The production hasher passes the hash through; tests
    /// inject degenerate hashers to force key collisions.
    pub fn with_capacity_and_hasher(capacity: usize, hasher: KeyHasher) -> Self {
        ScoreCache {
            tier: Arc::new(TieredLru::with_hasher(capacity, |id| id.key, None)),
            by_design: TieredLru::with_hasher(capacity, |id| id.key, None),
            key_hasher: hasher,
        }
    }

    /// A local tier bounded to `capacity` entries, backed by `parent` —
    /// the scoring side of the tiered fabric (see the module docs).
    /// Keys are computed once, with the parent's hasher, and serve both
    /// tiers.
    pub fn tiered(capacity: usize, parent: Arc<ScoreCache>) -> Self {
        ScoreCache {
            tier: Arc::new(TieredLru::with_hasher(
                capacity,
                |id| id.key,
                Some(Arc::clone(&parent.tier)),
            )),
            by_design: TieredLru::with_hasher(capacity, |id| id.key, None),
            key_hasher: parent.key_hasher,
        }
    }

    /// The identity `req` is scored under, plus its bench's hash (the
    /// structural key reuses it); `None` for a compile-only probe.
    fn score_id(&self, req: &SimRequest) -> Option<(ScoreId, u64)> {
        let bench = req.bench.as_ref()?;
        let bench_hash = hash_of(&**bench);
        let id = ScoreId {
            key: (self.key_hasher)(hash_of(&(&req.source, bench_hash))),
            source: req.source.clone(),
            bench: Arc::clone(bench),
        };
        Some((id, bench_hash))
    }

    /// The structural identity of `design` under `bench`, whose hash is
    /// `bench_hash`.
    fn design_id(&self, design: &Arc<Design>, bench: &Arc<Testbench>, bench_hash: u64) -> DesignId {
        DesignId {
            key: (self.key_hasher)(hash_of(&(structure(design), bench_hash))),
            design: Arc::clone(design),
            bench: Arc::clone(bench),
        }
    }

    /// Resolve `req` through the cache: a scoring request whose
    /// `(source, bench)` identity was seen before returns the cached
    /// outcome; anything else runs `execute` (and, for scoring
    /// requests, caches the result). Two workers racing on the same new
    /// identity may both simulate; the outcomes are identical and the
    /// first insert wins.
    pub fn get_or_run(
        &self,
        req: &SimRequest,
        execute: impl FnOnce(&SimRequest) -> SimOutcome,
    ) -> SimOutcome {
        match self.score_id(req) {
            Some((id, _)) => self.tier.get_or_insert_with(&id, || execute(req)),
            // Compile-only probe: the design cache's territory.
            None => execute(req),
        }
    }

    /// [`get_or_run`](Self::get_or_run) with delta-aware scoring: on a
    /// text-identity miss the request is compiled first (through
    /// `compile`, so the design cache and delta elaboration absorb the
    /// cost), and if the elaborated design is *structurally identical*
    /// to one already scored under the same bench — the case where
    /// `DeltaStats` reports 0 rebuilt units, e.g. a whitespace or
    /// comment edit — the cached report and score are served with the
    /// candidate's own design, without running a sim. Counted by
    /// [`shortcircuits`](Self::shortcircuits). Scores are pure in
    /// `(design structure, bench)`, so a short-circuit is bit-identical
    /// to a fresh run; under `MAGE_SIM_DELTA=off` the structural index
    /// is never touched and every miss simulates, exactly as
    /// [`get_or_run`](Self::get_or_run) would.
    pub fn get_or_run_delta(
        &self,
        req: &SimRequest,
        compile: impl FnOnce(&str) -> Elaboration,
    ) -> SimOutcome {
        let Some((id, bench_hash)) = self.score_id(req) else {
            // Compile-only probe: the design cache's territory.
            return execute_sim_with(req, compile);
        };
        self.tier.get_or_insert_with(&id, || {
            self.execute_shortcircuit(req, &id.bench, bench_hash, compile)
        })
    }

    /// The miss-path executor behind [`get_or_run_delta`]: compile,
    /// probe the structural index, simulate only when it misses too.
    fn execute_shortcircuit(
        &self,
        req: &SimRequest,
        bench: &Arc<Testbench>,
        bench_hash: u64,
        compile: impl FnOnce(&str) -> Elaboration,
    ) -> SimOutcome {
        let design = match &req.design {
            Some(d) => Ok(Arc::clone(d)),
            None => compile(&req.source),
        };
        let Ok(design) = design else {
            // Failed compiles score 0 with no report, exactly as
            // `execute_sim_with` reports them.
            return SimOutcome {
                design,
                report: None,
                score: 0.0,
            };
        };
        if !delta_enabled() {
            return execute_sim_with(req, |_| Ok(design));
        }
        // A hit serves the cached report and score with the *probing*
        // candidate's own design.
        let id = self.design_id(&design, bench, bench_hash);
        let (report, score) = self.by_design.get_or_insert_with(&id, || {
            let run = execute_sim_with(req, |_| Ok(Arc::clone(&design)));
            (run.report, run.score)
        });
        SimOutcome {
            design: Ok(design),
            report,
            score,
        }
    }

    /// Number of distinct `(source, bench)` identities cached.
    pub fn len(&self) -> usize {
        self.tier.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.tier.is_empty()
    }

    /// The entry bound (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.tier.capacity()
    }

    /// Scoring lookups answered from the cache.
    pub fn hits(&self) -> usize {
        self.tier.hits()
    }

    /// Scoring lookups that simulated (or were promoted from the global
    /// tier, or short-circuited).
    pub fn misses(&self) -> usize {
        self.tier.misses()
    }

    /// Lookups whose key matched a *different* cached identity (each
    /// fell through to a real simulation).
    pub fn collisions(&self) -> usize {
        self.tier.collisions()
    }

    /// Local misses answered by the global tier (a subset of
    /// [`misses`](Self::misses)). Always 0 on an untiered cache.
    pub fn promotions(&self) -> usize {
        self.tier.promotions()
    }

    /// All four primary-tier counters at once.
    pub fn stats(&self) -> CacheTierStats {
        self.tier.stats()
    }

    /// Scoring misses served from the structural index without running
    /// a sim (a subset of [`misses`](Self::misses)): the candidate
    /// elaborated to a design structurally identical to one already
    /// scored under the same bench. Only
    /// [`get_or_run_delta`](Self::get_or_run_delta) moves this, and
    /// only under `MAGE_SIM_DELTA`.
    pub fn shortcircuits(&self) -> usize {
        self.by_design.hits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Mutex;

    const GOOD: &str = "module top_module(input a, output y); assign y = a; endmodule";
    const BAD: &str = "module top_module(input a, output y assign y = a; endmodule";

    fn src(name: &str) -> String {
        format!("module {name}(input a, output y); assign y = a; endmodule")
    }

    #[test]
    fn caches_successes_and_failures() {
        let cache = DesignCache::new();
        let d1 = cache.get_or_compile(GOOD).expect("elaborates");
        let d2 = cache.get_or_compile(GOOD).expect("elaborates");
        assert!(Arc::ptr_eq(&d1, &d2), "second lookup must reuse the design");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        let e1 = cache.get_or_compile(BAD).unwrap_err();
        let e2 = cache.get_or_compile(BAD).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.collisions(), 0);
    }

    #[test]
    fn cached_result_matches_direct_compile() {
        let cache = DesignCache::new();
        assert_eq!(cache.get_or_compile(GOOD).is_ok(), compile(GOOD).is_ok());
        assert_eq!(
            cache.get_or_compile(BAD).unwrap_err(),
            compile(BAD).unwrap_err()
        );
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = DesignCache::with_capacity(2);
        let (a, b, c) = (src("m_a"), src("m_b"), src("m_c"));
        cache.get_or_compile(&a).unwrap();
        cache.get_or_compile(&b).unwrap();
        assert_eq!(cache.len(), 2);
        cache.get_or_compile(&c).unwrap(); // evicts a
        assert_eq!(cache.len(), 2);
        // b and c still hit; a recompiles (a miss), with identical result.
        let misses = cache.misses();
        cache.get_or_compile(&b).unwrap();
        cache.get_or_compile(&c).unwrap();
        assert_eq!(cache.misses(), misses);
        let again = cache.get_or_compile(&a).unwrap();
        assert_eq!(cache.misses(), misses + 1);
        // The recompile is a fresh but equivalent elaboration.
        assert!(!Arc::ptr_eq(&again, &cache.get_or_compile(&b).unwrap()));
        assert!(compile(&a).is_ok());
    }

    /// Degenerate hasher mapping every source to one key.
    fn collide_all(_: &str) -> u64 {
        42
    }

    /// Degenerate key hasher mapping every score and structural
    /// identity to one key.
    fn collide_all_keys(_: u64) -> u64 {
        42
    }

    #[test]
    fn colliding_sources_both_get_correct_designs() {
        let cache = DesignCache::with_capacity_and_hasher(8, collide_all);
        let (a, b) = (src("m_a"), src("m_b"));
        let da = cache.get_or_compile(&a).expect("a elaborates");
        assert_eq!(da.top, "m_a");
        // Same key, different source: must NOT be served `m_a`'s design.
        let db = cache.get_or_compile(&b).expect("b elaborates");
        assert_eq!(db.top, "m_b", "collision must not serve the wrong design");
        assert_eq!(cache.collisions(), 1);
        // And probing back is again correct (the slot now holds `m_b`).
        let da2 = cache.get_or_compile(&a).expect("a elaborates");
        assert_eq!(da2.top, "m_a");
        assert_eq!(cache.collisions(), 2);
        assert_eq!(cache.len(), 1, "one slot thrashes; correctness holds");
    }

    #[test]
    fn colliding_failure_does_not_poison_success() {
        let cache = DesignCache::with_capacity_and_hasher(8, collide_all);
        assert!(cache.get_or_compile(BAD).is_err());
        // A different (valid) source on the same key compiles cleanly.
        assert!(cache.get_or_compile(GOOD).is_ok());
    }

    #[test]
    fn hit_promotes_entry_under_unique_candidate_stream() {
        let cache = DesignCache::with_capacity(4);
        let hot = src("hot_bench");
        cache.get_or_compile(&hot).unwrap();
        // Stream of unique candidates, with the hot entry re-probed
        // between arrivals (the grading-bench access pattern). Under
        // FIFO eviction the hot entry would be flushed as the oldest
        // insert; LRU promotion keeps it resident throughout.
        for i in 0..32 {
            cache.get_or_compile(&src(&format!("cand_{i}"))).unwrap();
            let misses = cache.misses();
            cache.get_or_compile(&hot).unwrap();
            assert_eq!(
                cache.misses(),
                misses,
                "hot entry evicted after unique candidate #{i}"
            );
        }
        assert!(cache.hits() >= 32);
    }

    use std::sync::atomic::AtomicUsize as Counter;

    fn bench(name: &str, steps: usize) -> Arc<Testbench> {
        Arc::new(Testbench {
            name: name.to_string(),
            clock: None,
            steps: (0..steps).map(|_| Default::default()).collect(),
        })
    }

    fn score_req(source: &str, bench: Option<Arc<Testbench>>) -> SimRequest {
        SimRequest {
            source: source.to_string(),
            design: None,
            bench,
            parent: None,
        }
    }

    fn fake_outcome(score: f64) -> SimOutcome {
        SimOutcome {
            design: Err("stub".into()),
            report: None,
            score,
        }
    }

    #[test]
    fn identical_source_and_bench_share_one_simulation() {
        let cache = ScoreCache::new();
        let runs = Counter::new(0);
        let req = score_req(GOOD, Some(bench("tb", 2)));
        let run = |r: &SimRequest| {
            let _ = r;
            runs.fetch_add(1, Ordering::Relaxed);
            fake_outcome(0.75)
        };
        let a = cache.get_or_run(&req, run);
        let b = cache.get_or_run(&req, run);
        assert_eq!(runs.load(Ordering::Relaxed), 1, "second lookup must hit");
        assert_eq!(a.score, b.score);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn different_bench_text_does_not_share_scores() {
        let cache = ScoreCache::new();
        let runs = Counter::new(0);
        let run = |_: &SimRequest| {
            runs.fetch_add(1, Ordering::Relaxed);
            fake_outcome(0.5)
        };
        cache.get_or_run(&score_req(GOOD, Some(bench("tb", 2))), run);
        cache.get_or_run(&score_req(GOOD, Some(bench("tb", 3))), run);
        assert_eq!(
            runs.load(Ordering::Relaxed),
            2,
            "a structurally different bench must score fresh"
        );
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn compile_only_probes_bypass_the_score_cache() {
        let cache = ScoreCache::new();
        let runs = Counter::new(0);
        let run = |_: &SimRequest| {
            runs.fetch_add(1, Ordering::Relaxed);
            fake_outcome(0.0)
        };
        cache.get_or_run(&score_req(GOOD, None), run);
        cache.get_or_run(&score_req(GOOD, None), run);
        assert_eq!(runs.load(Ordering::Relaxed), 2);
        assert!(cache.is_empty(), "probes must not occupy score slots");
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn colliding_score_identities_both_run_fresh() {
        let cache = ScoreCache::with_capacity_and_hasher(8, collide_all_keys);
        let tb = bench("tb", 1);
        let a = cache.get_or_run(&score_req(&src("m_a"), Some(Arc::clone(&tb))), |_| {
            fake_outcome(0.25)
        });
        // Same key, different identity: must NOT serve m_a's outcome.
        let b = cache.get_or_run(&score_req(&src("m_b"), Some(Arc::clone(&tb))), |_| {
            fake_outcome(0.75)
        });
        assert_eq!(a.score, 0.25);
        assert_eq!(b.score, 0.75, "collision must not serve the wrong score");
        assert_eq!(cache.collisions(), 1);
        assert_eq!(cache.len(), 1, "one slot thrashes; correctness holds");
    }

    #[test]
    fn score_lru_promotes_on_hit() {
        let cache = ScoreCache::with_capacity(2);
        let tb = bench("tb", 1);
        let req = |name: &str| score_req(&src(name), Some(Arc::clone(&tb)));
        cache.get_or_run(&req("m_a"), |_| fake_outcome(0.1)); // oldest insert…
        cache.get_or_run(&req("m_b"), |_| fake_outcome(0.2));
        cache.get_or_run(&req("m_a"), |_| fake_outcome(9.9)); // …but recently hit
        cache.get_or_run(&req("m_c"), |_| fake_outcome(0.3)); // evicts m_b
        let misses = cache.misses();
        let a = cache.get_or_run(&req("m_a"), |_| fake_outcome(9.9));
        assert_eq!(cache.misses(), misses, "promoted entry must survive");
        assert_eq!(a.score, 0.1, "hit returns the original outcome");
        cache.get_or_run(&req("m_b"), |_| fake_outcome(0.2));
        assert_eq!(cache.misses(), misses + 1, "unpromoted entry evicted");
    }

    #[test]
    fn tiered_design_miss_promotes_from_global() {
        let global = Arc::new(DesignCache::with_capacity(64));
        let shard_a = DesignCache::tiered(8, Arc::clone(&global));
        let shard_b = DesignCache::tiered(8, Arc::clone(&global));
        let s = src("m_shared");
        // Shard A compiles once and publishes to the global tier.
        shard_a.get_or_compile(&s).unwrap();
        assert_eq!(shard_a.misses(), 1);
        assert_eq!(shard_a.promotions(), 0);
        assert_eq!(global.len(), 1);
        // Shard B misses locally but promotes from global — no compile
        // (observable: global counts a hit, B counts a promotion).
        shard_b.get_or_compile(&s).unwrap();
        assert_eq!(shard_b.misses(), 1);
        assert_eq!(shard_b.promotions(), 1);
        assert_eq!(global.hits(), 1);
        // Now resident locally: the next lookup never leaves shard B.
        let global_ticks = global.hits() + global.misses();
        shard_b.get_or_compile(&s).unwrap();
        assert_eq!(shard_b.hits(), 1);
        assert_eq!(global.hits() + global.misses(), global_ticks);
    }

    #[test]
    fn tiered_design_survives_local_eviction_via_global() {
        let global = Arc::new(DesignCache::with_capacity(64));
        let local = DesignCache::tiered(2, Arc::clone(&global));
        let keep = src("m_keep");
        local.get_or_compile(&keep).unwrap();
        // Flush the local tier with fresh sources.
        for i in 0..4 {
            local.get_or_compile(&src(&format!("m_f{i}"))).unwrap();
        }
        // Locally evicted, globally retained: promotion, not recompile.
        let promos = local.promotions();
        let d = local.get_or_compile(&keep).unwrap();
        assert_eq!(d.top, "m_keep");
        assert_eq!(local.promotions(), promos + 1);
        assert_eq!(global.len(), 5);
    }

    #[test]
    fn tiered_design_collision_in_global_falls_through() {
        // A colliding global tier must never serve the wrong design —
        // the local tier compiles fresh instead.
        let global = Arc::new(DesignCache::with_capacity_and_hasher(8, collide_all));
        let local = DesignCache::tiered(8, Arc::clone(&global));
        let (a, b) = (src("m_a"), src("m_b"));
        local.get_or_compile(&a).unwrap();
        let db = local.get_or_compile(&b).expect("b elaborates");
        assert_eq!(db.top, "m_b", "global collision must not cross-serve");
        assert_eq!(local.promotions(), 0);
        assert!(global.collisions() >= 1);
    }

    #[test]
    fn tiered_scores_share_across_locals() {
        let global = Arc::new(ScoreCache::with_capacity(64));
        let shard_a = ScoreCache::tiered(8, Arc::clone(&global));
        let shard_b = ScoreCache::tiered(8, Arc::clone(&global));
        let runs = Counter::new(0);
        let run = |_: &SimRequest| {
            runs.fetch_add(1, Ordering::Relaxed);
            fake_outcome(0.6)
        };
        let req = score_req(GOOD, Some(bench("tb", 2)));
        let a = shard_a.get_or_run(&req, run);
        let b = shard_b.get_or_run(&req, run);
        assert_eq!(runs.load(Ordering::Relaxed), 1, "one simulation total");
        assert_eq!(a.score, b.score);
        assert_eq!(shard_b.promotions(), 1);
        assert_eq!(global.hits(), 1);
        // Compile-only probes stay out of every tier.
        shard_a.get_or_run(&score_req(GOOD, None), run);
        assert_eq!(global.len(), 1);
    }

    const DELTA_BASE: &str =
        "module top_module(input clk, input a, input b, output reg q, output w);\n\
         wire x;\n\
         assign x = a & b;\n\
         assign w = x | a;\n\
         always @(posedge clk) q <= x;\n\
         endmodule\n";

    /// Run `f` with `MAGE_SIM_DELTA` forced to `value`, restoring the
    /// ambient setting afterwards. Serialized on one lock: env vars are
    /// process-global, so delta-on and delta-off tests must not race.
    fn with_delta<R>(value: &str, f: impl FnOnce() -> R) -> R {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let prev = std::env::var("MAGE_SIM_DELTA").ok();
        std::env::set_var("MAGE_SIM_DELTA", value);
        let r = f();
        match prev {
            Some(v) => std::env::set_var("MAGE_SIM_DELTA", v),
            None => std::env::remove_var("MAGE_SIM_DELTA"),
        }
        r
    }

    fn with_delta_on<R>(f: impl FnOnce() -> R) -> R {
        with_delta("on", f)
    }

    #[test]
    fn unit_cache_fills_on_miss_and_serves_sibling_compiles() {
        with_delta_on(|| {
            let units = UnitCache::new();
            let cache = DesignCache::new();
            let d1 = cache
                .get_or_compile_with(DELTA_BASE, None, Some(&units))
                .expect("elaborates");
            // Every unit was rebuilt and published.
            assert_eq!(units.len(), d1.processes.len());
            assert_eq!(units.hits(), 0);
            let before_misses = units.misses();
            assert!(before_misses >= d1.processes.len());
            // A one-process edit on a *distinct source*: the design
            // cache misses, the unit cache serves everything unchanged.
            let edited = DELTA_BASE.replace("x | a", "x ^ a");
            let d2 = cache
                .get_or_compile_with(&edited, None, Some(&units))
                .expect("elaborates");
            assert_eq!(units.hits(), d1.processes.len() - 1);
            // The delta-built design is store-exact vs from-scratch.
            let scratch = compile(&edited).unwrap();
            assert_eq!(d2.processes, scratch.processes);
            assert_eq!(
                format!("{:?}", d2.compiled().procs),
                format!("{:?}", scratch.compiled().procs),
            );
        });
    }

    #[test]
    fn unit_cache_parent_hint_beats_cold_units() {
        with_delta_on(|| {
            let cache = DesignCache::new();
            let parent = cache.get_or_compile(DELTA_BASE).expect("elaborates");
            let units = UnitCache::new();
            let edited = DELTA_BASE.replace("x | a", "x ^ a");
            // Cold unit cache, but the parent hint serves everything
            // unchanged; fresh units (the edit) publish to the cache.
            let d = cache
                .get_or_compile_with(&edited, Some(&parent), Some(&units))
                .expect("elaborates");
            let scratch = compile(&edited).unwrap();
            assert_eq!(d.processes, scratch.processes);
            assert!(!units.is_empty(), "fresh units published");
        });
    }

    #[test]
    fn tiered_units_promote_from_global() {
        with_delta_on(|| {
            let global = Arc::new(UnitCache::with_capacity(1024));
            let shard_a = UnitCache::tiered(64, Arc::clone(&global));
            let shard_b = UnitCache::tiered(64, Arc::clone(&global));
            let cache_a = DesignCache::new();
            let cache_b = DesignCache::new();
            cache_a
                .get_or_compile_with(DELTA_BASE, None, Some(&shard_a))
                .unwrap();
            assert!(!global.is_empty(), "fresh units published upward");
            // Shard B never compiled this source: its local tier misses,
            // the global tier serves, and each hit promotes locally.
            let d = cache_b
                .get_or_compile_with(DELTA_BASE, None, Some(&shard_b))
                .unwrap();
            assert_eq!(shard_b.promotions(), d.processes.len());
            assert_eq!(shard_b.len(), d.processes.len());
        });
    }

    #[test]
    fn unit_cache_lru_promotes_on_hit() {
        with_delta_on(|| {
            let units = UnitCache::with_capacity(2);
            let cache = DesignCache::with_capacity(1); // thrash designs
            let small = "module top_module(input a, output y); assign y = a; endmodule";
            cache
                .get_or_compile_with(small, None, Some(&units))
                .unwrap();
            assert_eq!(units.len(), 1);
            // Re-compiling a textually *edited* source hits the one unit
            // left untouched... here the single process changed, so this
            // exercises eviction instead: fill past capacity.
            let other = "module top_module(input a, output y); assign y = ~a; endmodule";
            let third = "module top_module(input a, output y); assign y = a & a; endmodule";
            cache
                .get_or_compile_with(other, None, Some(&units))
                .unwrap();
            assert_eq!(units.len(), 2);
            // Touch the first unit (hit promotes it), then insert a third:
            // the second (least recently used) is evicted, not the first.
            cache
                .get_or_compile_with(small, None, Some(&units))
                .unwrap();
            let hits = units.hits();
            assert!(hits >= 1, "re-compile must hit the cached unit");
            cache
                .get_or_compile_with(third, None, Some(&units))
                .unwrap();
            assert_eq!(units.len(), 2);
            cache
                .get_or_compile_with(small, None, Some(&units))
                .unwrap();
            assert!(units.hits() > hits, "promoted unit must survive");
        });
    }

    #[test]
    fn delta_off_bypasses_unit_cache_entirely() {
        with_delta("off", || {
            let units = UnitCache::new();
            let cache = DesignCache::new();
            let parent = cache.get_or_compile(DELTA_BASE).unwrap();
            let edited = DELTA_BASE.replace("x | a", "x ^ a");
            let d = cache
                .get_or_compile_with(&edited, Some(&parent), Some(&units))
                .expect("elaborates");
            assert!(units.is_empty(), "off-oracle must never touch the tier");
            assert_eq!((units.hits(), units.misses()), (0, 0));
            let scratch = compile(&edited).unwrap();
            assert_eq!(d.processes, scratch.processes);
        });
    }

    /// A real scoring bench over `GOOD` (`assign y = a`): drives `a`
    /// and checks `y` follows, so outcomes carry genuine reports.
    fn real_bench(steps: u64) -> Arc<Testbench> {
        use mage_logic::LogicVec;
        use mage_tb::{Check, TbStep};
        Arc::new(Testbench {
            name: "follow".into(),
            clock: None,
            steps: (0..steps)
                .map(|p| TbStep {
                    drives: vec![("a".into(), LogicVec::from_u64(1, p & 1))],
                    checks: vec![Check {
                        signal: "y".into(),
                        expected: LogicVec::from_u64(1, p & 1),
                    }],
                    clocks: vec![],
                })
                .collect(),
        })
    }

    /// `GOOD` with whitespace and comment edits only: parses and
    /// elaborates to a structurally identical design (0 rebuilt units
    /// under delta compilation).
    const GOOD_WS: &str = "module top_module(input a, output y);\n  \
                           // identity buffer\n  assign  y = a ;\nendmodule\n";

    #[test]
    fn whitespace_equivalent_candidate_short_circuits_scoring() {
        with_delta_on(|| {
            let cache = ScoreCache::new();
            let tb = real_bench(4);
            let a = cache.get_or_run_delta(&score_req(GOOD, Some(Arc::clone(&tb))), compile);
            assert_eq!(cache.shortcircuits(), 0, "first candidate must simulate");
            assert_eq!(a.score, 1.0);
            // The whitespace/comment variant misses on text identity but
            // elaborates to the same structure: served without a sim.
            let b = cache.get_or_run_delta(&score_req(GOOD_WS, Some(Arc::clone(&tb))), compile);
            assert_eq!(
                cache.shortcircuits(),
                1,
                "structural twin must short-circuit"
            );
            assert_eq!(b.score, a.score);
            assert_eq!(b.report, a.report, "served report is the cached one");
            // The served design is the probing candidate's own compile.
            assert_eq!(b.design.as_ref().unwrap().top, "top_module");
            // Re-probing the variant now hits the primary text map —
            // the short-circuit count does not move again.
            let hits = cache.hits();
            cache.get_or_run_delta(&score_req(GOOD_WS, Some(Arc::clone(&tb))), compile);
            assert_eq!(cache.hits(), hits + 1);
            assert_eq!(cache.shortcircuits(), 1);
        });
    }

    #[test]
    fn structural_or_bench_changes_do_not_short_circuit() {
        with_delta_on(|| {
            let cache = ScoreCache::new();
            let tb = real_bench(4);
            cache.get_or_run_delta(&score_req(GOOD, Some(Arc::clone(&tb))), compile);
            // A real logic edit is a different structure: full sim.
            let inverted = "module top_module(input a, output y); assign y = ~a; endmodule";
            let inv = cache.get_or_run_delta(&score_req(inverted, Some(Arc::clone(&tb))), compile);
            assert_eq!(cache.shortcircuits(), 0);
            assert_eq!(inv.score, 0.0, "inverter fails the follow bench");
            // The same structure under a *different* bench: full sim.
            let other = real_bench(5);
            cache.get_or_run_delta(&score_req(GOOD_WS, Some(other)), compile);
            assert_eq!(cache.shortcircuits(), 0, "changed bench must rescore");
        });
    }

    #[test]
    fn colliding_structural_identities_do_not_short_circuit() {
        with_delta_on(|| {
            // Every text identity AND every structural identity shares
            // one key: the index must verify before it serves.
            let cache = ScoreCache::with_capacity_and_hasher(8, collide_all_keys);
            let tb = real_bench(4);
            let a = cache.get_or_run_delta(&score_req(GOOD, Some(Arc::clone(&tb))), compile);
            assert_eq!(a.score, 1.0);
            let inverted = "module top_module(input a, output y); assign y = ~a; endmodule";
            let inv = cache.get_or_run_delta(&score_req(inverted, Some(Arc::clone(&tb))), compile);
            assert_eq!(
                inv.score, 0.0,
                "collision must not serve the buffer's score"
            );
            assert_eq!(cache.shortcircuits(), 0);
            assert_eq!(cache.collisions(), 1, "text identities collided");
            assert_eq!(
                cache.by_design.collisions(),
                1,
                "structural identities collided and were verified"
            );
        });
    }

    #[test]
    fn delta_off_never_touches_the_structural_index() {
        with_delta("off", || {
            let cache = ScoreCache::new();
            let tb = real_bench(4);
            let a = cache.get_or_run_delta(&score_req(GOOD, Some(Arc::clone(&tb))), compile);
            let b = cache.get_or_run_delta(&score_req(GOOD_WS, Some(Arc::clone(&tb))), compile);
            assert_eq!(cache.shortcircuits(), 0, "off-oracle must always simulate");
            assert_eq!(cache.misses(), 2);
            // Scores agree anyway — the short-circuit only skips work.
            assert_eq!(a.score, b.score);
        });
    }

    #[test]
    fn equal_bench_content_shares_scores_across_allocations() {
        with_delta_on(|| {
            let cache = ScoreCache::new();
            let tb = real_bench(4);
            let twin = Arc::new((*tb).clone());
            assert!(!Arc::ptr_eq(&tb, &twin));
            let a = cache.get_or_run_delta(&score_req(GOOD, Some(tb)), compile);
            assert_eq!(a.score, 1.0);
            // A separately allocated, equal bench is the same identity
            // in both tiers: one simulation, then one hit each.
            cache.get_or_run_delta(&score_req(GOOD, Some(Arc::clone(&twin))), compile);
            assert_eq!((cache.hits(), cache.misses()), (1, 1));
            cache.get_or_run_delta(&score_req(GOOD_WS, Some(Arc::clone(&twin))), compile);
            assert_eq!(cache.shortcircuits(), 1);
            // One expected bit flipped: a different bench, simulated
            // fresh in both tiers.
            let mut flipped = (*twin).clone();
            flipped.steps[3].checks[0].expected = mage_logic::LogicVec::from_u64(1, 0);
            let f = cache.get_or_run_delta(&score_req(GOOD, Some(Arc::new(flipped))), compile);
            assert!(f.score < 1.0, "the flipped check must fail");
            assert_eq!((cache.hits(), cache.misses()), (1, 3));
            assert_eq!(cache.shortcircuits(), 1);
            assert_eq!(cache.by_design.misses(), 2, "two simulations in all");
        });
    }

    /// The string identities the score cache was keyed under before its
    /// identities were typed, kept only as the oracle below: a score
    /// identity rendered source and bench, a structural identity the
    /// design's structure and the bench.
    fn debug_score_text(source: &str, tb: &Testbench) -> String {
        format!("{source}\0{tb:?}")
    }

    fn debug_design_text(d: &Design, tb: &Testbench) -> String {
        format!(
            "{}\0{:?}\0{:?}\0{:?}\0{:?}\0{tb:?}",
            d.top, d.signals, d.inputs, d.outputs, d.processes
        )
    }

    #[test]
    fn typed_identities_agree_with_debug_renderings() {
        let problems = mage_problems::all_problems();
        let mut cases: Vec<(String, Arc<Design>, Arc<Testbench>)> = problems
            .iter()
            .map(|p| {
                let design = compile(p.golden).expect("golden elaborates");
                let bench = mage_core::experiments::grading_bench_shared(p);
                (p.golden.to_string(), design, bench)
            })
            .collect();
        let golden = cases.clone();
        // Whitespace/comment twins: new text, same structure.
        for (source, _, bench) in golden.iter().take(6) {
            let twin = format!("// twin\n{}", source.replace(';', " ;"));
            let design = compile(&twin).expect("twin elaborates");
            cases.push((twin, design, Arc::clone(bench)));
        }
        // One-operator mutants: new text, new structure.
        let swaps = [
            (" & ", " | "),
            (" | ", " & "),
            (" + ", " - "),
            (" ^ ", " | "),
        ];
        let mutants = golden.iter().filter_map(|(source, _, bench)| {
            let (from, to) = swaps.iter().find(|(from, _)| source.contains(from))?;
            let mutant = source.replacen(from, to, 1);
            let design = compile(&mutant).ok()?;
            Some((mutant, design, Arc::clone(bench)))
        });
        cases.extend(mutants.take(6).collect::<Vec<_>>());
        // Equal benches in fresh allocations, and sources scored against
        // a neighbour's bench.
        for (i, (source, design, bench)) in golden.iter().take(4).enumerate() {
            let copy = Arc::new((**bench).clone());
            cases.push((source.clone(), Arc::clone(design), copy));
            let other = Arc::clone(&golden[i + 1].2);
            cases.push((source.clone(), Arc::clone(design), other));
        }

        // Equal signals and processes, but a different port list (`y`
        // demoted to an internal wire) or a different top name.
        let tb = real_bench(2);
        let no_port = "module top_module(input a); wire y; assign y = a; endmodule";
        for source in [GOOD.to_string(), no_port.to_string(), src("m_a")] {
            let design = compile(&source).expect("elaborates");
            cases.push((source, design, Arc::clone(&tb)));
        }

        let cache = ScoreCache::new();
        let ids: Vec<_> = cases
            .iter()
            .map(|(source, design, bench)| {
                let req = score_req(source, Some(Arc::clone(bench)));
                let (score, bench_hash) = cache.score_id(&req).expect("scoring request");
                let structural = cache.design_id(design, bench, bench_hash);
                let texts = (
                    debug_score_text(source, bench),
                    debug_design_text(design, bench),
                );
                (score, structural, texts)
            })
            .collect();
        let (mut score_twins, mut design_twins) = (0, 0);
        for (i, (sa, da, (sta, dta))) in ids.iter().enumerate() {
            for (sb, db, (stb, dtb)) in &ids[i + 1..] {
                assert_eq!(sa == sb, sta == stb, "score identity vs rendering");
                assert_eq!(da == db, dta == dtb, "design identity vs rendering");
                if sa == sb {
                    assert_eq!(sa.key, sb.key);
                    score_twins += 1;
                }
                if da == db {
                    assert_eq!(da.key, db.key);
                    design_twins += 1;
                }
            }
        }
        // The equal pairs the cases were built to contain: each fresh
        // bench allocation shares its source's score identity; each
        // twin and each fresh allocation shares a structural identity.
        assert!(score_twins >= 4, "{score_twins} equal score pairs");
        assert!(design_twins >= 10, "{design_twins} equal design pairs");
    }

    #[test]
    fn lru_evicts_least_recently_used_not_oldest_insert() {
        let cache = DesignCache::with_capacity(2);
        let (a, b, c) = (src("m_a"), src("m_b"), src("m_c"));
        cache.get_or_compile(&a).unwrap(); // oldest insert…
        cache.get_or_compile(&b).unwrap();
        cache.get_or_compile(&a).unwrap(); // …but most recently used
        cache.get_or_compile(&c).unwrap(); // evicts b, not a
        let misses = cache.misses();
        cache.get_or_compile(&a).unwrap();
        assert_eq!(cache.misses(), misses, "promoted entry must survive");
        cache.get_or_compile(&b).unwrap();
        assert_eq!(cache.misses(), misses + 1, "unpromoted entry evicted");
    }
}
