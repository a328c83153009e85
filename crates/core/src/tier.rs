//! The verified tiered LRU behind every result cache: whole designs and
//! scoring outcomes (`mage-serve`'s `DesignCache` and `ScoreCache`, plus
//! the score cache's structural short-circuit index) and compiled
//! process units ([`crate::UnitCache`], which is also the solo engine's
//! per-solve [`crate::SolveUnits`] pool).
//!
//! # Verification
//!
//! An entry is keyed by a hash of its identity (a full source text, a
//! typed source + bench or design structure + bench pair, or a unit's
//! canonical item text + binding environment) and stores that identity
//! in full. Every hit compares it: a 64-bit key alone would let two
//! colliding identities serve each other's value, so a mismatch counts
//! a collision and misses instead.
//!
//! # Eviction
//!
//! At most `capacity` entries (0 = unbounded), evicted least recently
//! used: every insert and hit takes a fresh stamp from the tier's
//! monotonic clock, and an insert at capacity removes the oldest stamp.
//! The eviction is a linear min-stamp scan — it only runs on an
//! at-capacity insert, where the adjacent compile or simulation dwarfs
//! it.
//!
//! # Races and collisions
//!
//! Values are pure functions of their identity, so two workers racing
//! on one new identity may both compute it; the copies are identical.
//! One rule per case:
//!
//! - **Same identity stored twice** (a race): first insert wins. The
//!   store refreshes the entry's stamp and returns the canonical value.
//! - **Two identities on one key** (a collision): most recent wins. The
//!   slot is overwritten in place, without evicting anything, so the
//!   side the stream is probing now stays warm.
//! - **Counting collisions**: at most once per tier per call. The probe
//!   that finds another identity under its key counts it; the store
//!   that follows in the same call counts only a collision the probe
//!   did not see (a racer filled the slot between the two locks).
//!   [`TieredLru::publish`] has no probe and never counts one: the unit
//!   path's lookup and publish are separate calls, and counting on both
//!   would count every unit collision twice.
//!
//! # Tiers
//!
//! A tier built with a parent is a small local tier backed by a shared
//! global one. A local miss probes the parent; a parent hit is
//! **promoted** into the local tier (counted by
//! [`TieredLru::promotions`]), and a freshly computed value is published
//! to the parent so sibling tiers can reuse it. Entries are
//! schedule-independent facts, so tiering changes only *where* work
//! happens, never what a lookup returns. Lock discipline: a tier only
//! ever holds its own mutex (parent calls happen outside the local
//! lock), so any number of local tiers can share one parent without
//! deadlock.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A snapshot of one tier's counters. Snapshots add up, so a fleet sums
/// its shards' local tiers into one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTierStats {
    /// Lookups answered by this tier.
    pub hits: usize,
    /// Lookups this tier could not answer itself.
    pub misses: usize,
    /// Parent-tier hits copied into this tier (local tiers only).
    pub promotions: usize,
    /// Key collisions detected.
    pub collisions: usize,
}

impl AddAssign for CacheTierStats {
    fn add_assign(&mut self, other: Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.promotions += other.promotions;
        self.collisions += other.collisions;
    }
}

struct Entry<O, V> {
    /// The full identity, verified on every hit.
    id: O,
    value: V,
    /// Recency stamp for LRU eviction.
    stamp: u64,
}

struct Slots<K, O, V> {
    map: HashMap<K, Entry<O, V>>,
    /// Monotonic recency clock; bumped on every probe and store.
    tick: u64,
}

/// A bounded, verified, optionally tiered LRU map from identity `I` to
/// value `V`, keyed by `hasher(identity) : K` (see the module docs for
/// the verification, eviction, race and tiering rules).
pub struct TieredLru<I: ?Sized + ToOwned, V, K = u64> {
    slots: Mutex<Slots<K, I::Owned, V>>,
    capacity: usize,
    hasher: fn(&I) -> K,
    /// Shared global tier consulted on local misses.
    parent: Option<Arc<Self>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    collisions: AtomicUsize,
    promotions: AtomicUsize,
}

impl<I, V, K> TieredLru<I, V, K>
where
    I: ?Sized + ToOwned + PartialEq,
    V: Clone,
    K: Copy + Eq + Hash,
{
    /// An empty tier bounded to `capacity` entries (0 = unbounded),
    /// keyed by `hasher`, and backed by `parent` when one is given.
    pub fn with_hasher(capacity: usize, hasher: fn(&I) -> K, parent: Option<Arc<Self>>) -> Self {
        TieredLru {
            slots: Mutex::new(Slots {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hasher,
            parent,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            collisions: AtomicUsize::new(0),
            promotions: AtomicUsize::new(0),
        }
    }

    /// The value for `id`: from this tier, else promoted from the
    /// parent, else `compute`d (outside every lock), published to the
    /// parent and stored here. Returns the canonical value.
    pub fn get_or_insert_with(&self, id: &I, compute: impl FnOnce() -> V) -> V {
        let key = (self.hasher)(id);
        let collided = match self.probe(key, id) {
            Ok(value) => return value,
            Err(collided) => collided,
        };
        let value = match self.promote(id) {
            Ok(value) => value,
            Err(parent_collided) => {
                let value = compute();
                if let Some(parent) = &self.parent {
                    parent.store((parent.hasher)(id), id, value.clone(), parent_collided);
                }
                value
            }
        };
        self.store(key, id, value.clone(), collided)
            .unwrap_or(value)
    }

    /// The value for `id` from this tier, else promoted from the parent;
    /// `None` when neither holds it.
    pub fn lookup(&self, id: &I) -> Option<V> {
        let key = (self.hasher)(id);
        let collided = match self.probe(key, id) {
            Ok(value) => return Some(value),
            Err(collided) => collided,
        };
        let value = self.promote(id).ok()?;
        Some(
            self.store(key, id, value.clone(), collided)
                .unwrap_or(value),
        )
    }

    /// Store a value computed elsewhere, in the parent and in this
    /// tier. Moves no counter.
    pub fn publish(&self, id: &I, value: V) {
        if let Some(parent) = &self.parent {
            parent.store((parent.hasher)(id), id, value.clone(), true);
        }
        self.store((self.hasher)(id), id, value, true);
    }

    /// Probe this tier only. Counts a hit (refreshing the entry's
    /// stamp) or a miss, plus a collision when another identity holds
    /// the key; a miss reports whether it collided.
    fn probe(&self, key: K, id: &I) -> Result<V, bool> {
        let mut slots = self.slots.lock().expect("cache tier poisoned");
        slots.tick += 1;
        let tick = slots.tick;
        let collided = match slots.map.get_mut(&key) {
            Some(entry) if entry.id.borrow() == id => {
                entry.stamp = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(entry.value.clone());
            }
            Some(_) => {
                self.collisions.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        Err(collided)
    }

    /// After a local miss: probe the parent, counting a promotion on a
    /// hit. A miss reports whether the parent's probe collided.
    fn promote(&self, id: &I) -> Result<V, bool> {
        let Some(parent) = &self.parent else {
            return Err(false);
        };
        let value = parent.probe((parent.hasher)(id), id)?;
        self.promotions.fetch_add(1, Ordering::Relaxed);
        Ok(value)
    }

    /// Store `value` under `key` by the race and collision rules (a
    /// collision counts unless `counted`), evicting to the bound first.
    /// Returns the racer's canonical value when one already won.
    fn store(&self, key: K, id: &I, value: V, counted: bool) -> Option<V> {
        let mut slots = self.slots.lock().expect("cache tier poisoned");
        slots.tick += 1;
        let stamp = slots.tick;
        match slots.map.get_mut(&key) {
            Some(entry) if entry.id.borrow() == id => {
                entry.stamp = stamp;
                return Some(entry.value.clone());
            }
            Some(entry) => {
                if !counted {
                    self.collisions.fetch_add(1, Ordering::Relaxed);
                }
                *entry = Entry {
                    id: id.to_owned(),
                    value,
                    stamp,
                };
                return None;
            }
            None => {}
        }
        while self.capacity > 0 && slots.map.len() >= self.capacity {
            let oldest = slots
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&k, _)| k)
                .expect("non-empty map");
            slots.map.remove(&oldest);
        }
        slots.map.insert(
            key,
            Entry {
                id: id.to_owned(),
                value,
                stamp,
            },
        );
        None
    }
}

impl<I: ?Sized + ToOwned, V, K> TieredLru<I, V, K> {
    /// Number of distinct identities cached.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("cache tier poisoned").map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry bound (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups answered by this tier.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups this tier could not answer itself (computed, or
    /// promoted from the parent).
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups whose key matched a *different* cached identity (each
    /// fell through to a real computation instead of serving the wrong
    /// value).
    pub fn collisions(&self) -> usize {
        self.collisions.load(Ordering::Relaxed)
    }

    /// Local misses answered by the parent tier (a subset of
    /// [`misses`](Self::misses)). Always 0 on an untiered cache.
    pub fn promotions(&self) -> usize {
        self.promotions.load(Ordering::Relaxed)
    }

    /// All four counters at once.
    pub fn stats(&self) -> CacheTierStats {
        CacheTierStats {
            hits: self.hits(),
            misses: self.misses(),
            promotions: self.promotions(),
            collisions: self.collisions(),
        }
    }
}

impl<I: ?Sized + ToOwned, V, K> fmt::Debug for TieredLru<I, V, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TieredLru")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("tiered", &self.parent.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Tier = TieredLru<str, u32>;

    fn fnv(s: &str) -> u64 {
        mage_logic::fnv1a(s.as_bytes())
    }

    /// Degenerate hasher mapping every identity to one key.
    fn collide_all(_: &str) -> u64 {
        42
    }

    #[test]
    fn racing_store_of_one_identity_keeps_the_first_value() {
        let tier = Tier::with_hasher(8, fnv, None);
        // The racer stores between this call's probe and its store.
        let v = tier.get_or_insert_with("a", || {
            tier.publish("a", 1);
            2
        });
        assert_eq!(v, 1, "first insert wins; the canonical value returns");
        assert_eq!(tier.lookup("a"), Some(1));
        assert_eq!((tier.hits(), tier.misses(), tier.collisions()), (1, 1, 0));
    }

    #[test]
    fn store_side_collision_counts_once_and_most_recent_wins() {
        let tier = Tier::with_hasher(8, collide_all, None);
        // The slot is empty at the probe; a racer fills it with another
        // identity before the store: the store counts the collision.
        let v = tier.get_or_insert_with("a", || {
            tier.publish("b", 2);
            1
        });
        assert_eq!(v, 1);
        assert_eq!(tier.collisions(), 1);
        assert_eq!(
            tier.lookup("a"),
            Some(1),
            "most recent identity holds the slot"
        );
        // A probe that sees the collision counts it; its store does not.
        assert_eq!(tier.get_or_insert_with("b", || 2), 2);
        assert_eq!(tier.collisions(), 2);
        assert_eq!(tier.len(), 1);
    }

    #[test]
    fn collision_overwrite_evicts_nothing() {
        let tier = Tier::with_hasher(2, |s| u64::from(s.starts_with('x')), None);
        tier.publish("a", 1);
        tier.publish("x1", 2);
        tier.publish("b", 3); // same key as "a": overwritten in place
        assert_eq!(tier.len(), 2);
        assert_eq!(tier.lookup("x1"), Some(2), "the other entry survives");
        assert_eq!(tier.lookup("b"), Some(3));
        assert_eq!(tier.lookup("a"), None);
    }

    #[test]
    fn tiered_collision_counts_once_in_the_parent() {
        let parent = Arc::new(Tier::with_hasher(8, collide_all, None));
        let local = Tier::with_hasher(8, fnv, Some(Arc::clone(&parent)));
        assert_eq!(local.get_or_insert_with("a", || 1), 1);
        // The parent's probe sees "a" under "b"'s key; the publish that
        // follows in the same call does not count it again.
        assert_eq!(local.get_or_insert_with("b", || 2), 2);
        assert_eq!(parent.collisions(), 1);
        assert_eq!(local.promotions(), 0);
        assert_eq!(parent.lookup("b"), Some(2));
    }

    #[test]
    fn stats_snapshot_and_sum() {
        let parent = Arc::new(Tier::with_hasher(8, fnv, None));
        let a = Tier::with_hasher(8, fnv, Some(Arc::clone(&parent)));
        let b = Tier::with_hasher(8, fnv, Some(Arc::clone(&parent)));
        a.get_or_insert_with("k", || 7);
        assert_eq!(b.lookup("k"), Some(7), "promoted from the parent");
        assert_eq!(b.lookup("k"), Some(7), "now local");
        let mut sum = a.stats();
        sum += b.stats();
        let expect = CacheTierStats {
            hits: 1,
            misses: 2,
            promotions: 1,
            collisions: 0,
        };
        assert_eq!(sum, expect);
        assert_eq!((parent.hits(), parent.misses()), (1, 1));
    }
}
