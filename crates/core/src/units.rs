//! Process-unit caches: [`UnitCache`], the unit tier of `mage-serve`'s
//! shared cache fabric, and [`SolveUnits`], the same type used as the
//! solo engine's per-solve pool.
//!
//! Whole-design caches share elaborations between *textually
//! identical* sources; a unit cache shares the pieces. A candidate that
//! differs from anything seen before still reuses every process whose
//! canonical text and resolved signal binding match a cached unit — the
//! delta elaboration rebuilds only the edited processes (see
//! [`mage_sim::elaborate_with`]). The cache is probed by item
//! fingerprint *before* a module item's body is elaborated (see
//! `crates/sim/src/elab.rs`), so a hit skips the elaboration walk and
//! the lowering both. That matters most inside one solve: the
//! high-temperature samples of a solve routinely share most of their
//! processes (the model rewrites one `always` block and keeps the
//! rest), and the solo [`crate::Mage`] engine keeps one [`SolveUnits`]
//! per solve so sibling candidates reuse each other's units. One solve
//! never comes near [`DEFAULT_UNIT_CAPACITY`] units, so the pool never
//! evicts.
//!
//! A unit cache is a [`TieredLru`] keyed by [`UnitKey`] (a hash triple)
//! that stores and verifies the full [`UnitTag`] — canonical item text
//! and binding environment — on every hit, so a collision falls through
//! to a rebuild instead of serving the wrong bytecode (see
//! [`crate::tier`] for the eviction, race, collision and tiering
//! rules). Reuse is advisory by construction — a verified unit is
//! bit-identical to a rebuild — so it changes *where* work happens,
//! never what any compile returns. The `MAGE_SIM_DELTA` oracle
//! discipline applies: callers gate on [`mage_sim::delta_enabled`] (see
//! [`crate::compile_pooled`]), and under `MAGE_SIM_DELTA=off` no unit
//! cache is consulted.

use crate::tier::TieredLru;
use mage_sim::{ProcessUnit, UnitKey, UnitSource, UnitTag};
use std::sync::Arc;

/// Default [`UnitCache`] entry bound: units are per-process (a design
/// holds several), so the bound sits well above the design cache's.
pub const DEFAULT_UNIT_CAPACITY: usize = 32768;

/// A bounded map from [`UnitKey`] to a compiled process unit, verified
/// against the full [`UnitTag`] and optionally tiered — shared by every
/// job (and every shard tier) holding the same `Arc<UnitCache>`.
pub type UnitCache = TieredLru<UnitTag, ProcessUnit, UnitKey>;

/// The solo engine's per-solve unit pool: every process elaborated for
/// any candidate of one solve is published here and served, fully
/// verified, to later sibling compiles.
pub type SolveUnits = UnitCache;

fn unit_key(tag: &UnitTag) -> UnitKey {
    tag.key
}

impl Default for UnitCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_UNIT_CAPACITY)
    }
}

impl UnitCache {
    /// An empty cache with the [default capacity](DEFAULT_UNIT_CAPACITY).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to `capacity` entries (0 = unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_hasher(capacity, unit_key, None)
    }

    /// A local tier bounded to `capacity` entries, backed by `parent`:
    /// local misses consult the parent (promoting hits locally) and
    /// fresh units are published to it.
    pub fn tiered(capacity: usize, parent: Arc<UnitCache>) -> Self {
        Self::with_hasher(capacity, unit_key, Some(parent))
    }
}

impl UnitSource for UnitCache {
    fn lookup(&self, tag: &UnitTag) -> Option<ProcessUnit> {
        TieredLru::lookup(self, tag)
    }

    fn publish(&self, tag: &UnitTag, unit: ProcessUnit) {
        TieredLru::publish(self, tag, unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{compile, compile_pooled};
    use mage_sim::DesignUnits;
    use std::sync::Mutex;

    const BASE: &str = "module top_module(input clk, input a, input b, \
                        output reg q, output w);\n\
                        wire x;\n\
                        assign x = a & b;\n\
                        assign w = x | a;\n\
                        always @(posedge clk) q <= x;\n\
                        endmodule\n";

    /// Force `MAGE_SIM_DELTA` for the duration of `f` (env vars are
    /// process-global; serialized on one lock).
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

    #[test]
    fn sibling_candidates_reuse_pooled_units() {
        with_delta("on", || {
            let units = SolveUnits::new();
            let (d1, s1) = compile_pooled(BASE, None, &units).expect("elaborates");
            assert_eq!(s1.rebuilt, d1.processes.len(), "cold pool builds all");
            assert_eq!(units.len(), d1.processes.len(), "fresh units pooled");
            // A sibling differing in one process: every other unit is
            // served from the pool, elaboration walk skipped.
            let sibling = BASE.replace("x | a", "x ^ a");
            let (d2, s2) = compile_pooled(&sibling, None, &units).expect("elaborates");
            assert_eq!(s2.reused, d1.processes.len() - 1);
            assert_eq!(s2.rebuilt, 1);
            assert_eq!(units.hits(), d1.processes.len() - 1);
            // Pooled compiles are store-exact against from-scratch.
            let scratch = compile(&sibling).expect("elaborates");
            assert_eq!(d2.processes, scratch.processes);
            assert_eq!(
                format!("{:?}", d2.compiled()),
                format!("{:?}", scratch.compiled()),
            );
        });
    }

    #[test]
    fn parent_hint_chains_ahead_of_the_pool() {
        with_delta("on", || {
            let units = SolveUnits::new();
            let (parent, _) = compile_pooled(BASE, None, &units).expect("elaborates");
            let edited = BASE.replace("x | a", "x ^ a");
            // Parent-first chaining: unchanged units come from the
            // parent design, the edit rebuilds and publishes.
            let before = units.len();
            let (d, stats) =
                compile_pooled(&edited, Some(&Arc::clone(&parent)), &units).expect("elaborates");
            assert_eq!(stats.rebuilt, 1);
            assert!(units.len() > before, "fresh unit published to the pool");
            let scratch = compile(&edited).expect("elaborates");
            assert_eq!(d.processes, scratch.processes);
        });
    }

    #[test]
    fn delta_off_bypasses_the_pool_entirely() {
        with_delta("off", || {
            let units = SolveUnits::new();
            let (d1, _) = compile_pooled(BASE, None, &units).expect("elaborates");
            let sibling = BASE.replace("x | a", "x ^ a");
            let (d2, stats) = compile_pooled(&sibling, None, &units).expect("elaborates");
            assert!(units.is_empty(), "off-oracle must never touch the pool");
            assert_eq!((units.hits(), units.misses()), (0, 0));
            assert_eq!(stats.rebuilt, d2.processes.len());
            assert_eq!(d1.processes.len(), d2.processes.len());
        });
    }

    #[test]
    fn colliding_key_with_different_identity_misses() {
        // Hand-rolled collision: publish under a tag, then look up with
        // the same key but a different environment witness.
        let units = SolveUnits::new();
        let d = with_delta("on", || {
            let (d, _) = compile_pooled(BASE, None, &units).expect("elaborates");
            assert!(!units.is_empty());
            d
        });
        let tag = d.units()[0].clone();
        assert!(units.lookup(&tag).is_some(), "published unit is pooled");
        let mut wrong = tag.clone();
        wrong.env = "m=other;p=;s=[];c=[]".into();
        assert!(
            units.lookup(&wrong).is_none(),
            "unverified identity must miss"
        );
    }

    #[test]
    fn tiered_unit_collision_counts_once() {
        let d = compile(BASE).expect("elaborates");
        let key = d.units()[0].key;
        let unit = DesignUnits::new(Arc::clone(&d))
            .lookup(&d.units()[0])
            .expect("parent design serves its own unit");
        let tag = |text: &str| UnitTag {
            key,
            text: text.into(),
            env: "env".into(),
        };
        let (a, b) = (tag("a"), tag("b"));
        let global = Arc::new(UnitCache::new());
        let local = UnitCache::tiered(8, Arc::clone(&global));
        UnitSource::publish(&local, &a, unit.clone());
        assert!(UnitSource::lookup(&local, &b).is_none());
        assert_eq!(local.collisions(), 1);
        // The publish that follows a colliding lookup is a separate call
        // and counts nothing: one collision, not two.
        UnitSource::publish(&local, &b, unit);
        assert_eq!(local.collisions(), 1);
        assert!(UnitSource::lookup(&local, &b).is_some());
        assert!(UnitSource::lookup(&local, &a).is_none());
    }
}
