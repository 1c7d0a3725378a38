//! In-memory component-plan cache for [`harden_cached`].
//!
//! The service daemon keeps one of these per process so repeated
//! harden jobs over related images reuse per-CFG-component analysis
//! results. Eviction is FIFO with a bounded entry count: component
//! plans are regenerable from the input, so an evicted entry only
//! costs recomputation, never correctness.
//!
//! [`harden_cached`]: crate::harden_cached

use crate::digest::Digest;
use crate::pipeline::{ComponentCache, ComponentPlan};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Bounded thread-safe FIFO cache of component plans.
pub struct MemoryComponentCache {
    state: Mutex<State>,
    capacity: usize,
}

struct State {
    map: HashMap<Digest, Arc<ComponentPlan>>,
    order: VecDeque<Digest>,
}

/// Default entry bound: comfortably above the component count of any
/// workload in the suite, small enough that plans stay far below the
/// image sizes they describe. A plan carries its payloads' machine
/// code: kromium's 3,419 average 1.2 KiB each, 818 bytes of it code.
pub const DEFAULT_COMPONENT_CAPACITY: usize = 65_536;

impl MemoryComponentCache {
    /// Cache holding at most [`DEFAULT_COMPONENT_CAPACITY`] plans.
    pub fn new() -> MemoryComponentCache {
        MemoryComponentCache::with_capacity(DEFAULT_COMPONENT_CAPACITY)
    }

    /// Cache holding at most `capacity` plans (minimum 1).
    pub fn with_capacity(capacity: usize) -> MemoryComponentCache {
        MemoryComponentCache {
            state: Mutex::new(State {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        match self.state.lock() {
            Ok(s) => s.map.len(),
            Err(poisoned) => poisoned.into_inner().map.len(),
        }
    }

    /// `true` if no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A panic while holding the lock poisons it; the state itself
        // is a plain map that is never left mid-update (every mutation
        // is a single insert/remove), so continuing with the inner
        // value is safe and keeps the cache usable from other workers.
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl Default for MemoryComponentCache {
    fn default() -> MemoryComponentCache {
        MemoryComponentCache::new()
    }
}

impl ComponentCache for MemoryComponentCache {
    fn get(&self, key: &Digest) -> Option<Arc<ComponentPlan>> {
        self.lock().map.get(key).cloned()
    }

    fn put(&self, key: &Digest, plan: Arc<ComponentPlan>) {
        let mut s = self.lock();
        if s.map.insert(*key, plan).is_none() {
            s.order.push_back(*key);
            while s.map.len() > self.capacity {
                match s.order.pop_front() {
                    Some(old) => {
                        s.map.remove(&old);
                    }
                    None => break,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::sha256;
    use crate::{harden_cached, harden_threaded, HardenConfig};
    use redfat_workloads::spec;

    #[test]
    fn fifo_eviction_bounds_entries() {
        // ComponentPlan is opaque, so seed one real plan via the
        // pipeline, then exercise the bound with synthetic keys.
        let cache = MemoryComponentCache::with_capacity(2);
        let image = spec::all()[0].image();
        harden_cached(&image, &HardenConfig::default(), 1, &cache).expect("hardens");
        assert!(cache.len() <= 2, "capacity bound holds after real run");
        let plan = cache.lock().map.values().next().cloned().expect("seeded");
        for i in 0..10u64 {
            cache.put(&sha256(&i.to_le_bytes()), plan.clone());
            assert!(cache.len() <= 2, "capacity bound holds at insert {i}");
        }
        // The most recent keys survive (FIFO evicts oldest first)...
        assert!(cache.get(&sha256(&9u64.to_le_bytes())).is_some());
        assert!(cache.get(&sha256(&8u64.to_le_bytes())).is_some());
        // ...and a duplicate put is a no-op.
        let before = cache.len();
        cache.put(&sha256(&9u64.to_le_bytes()), plan);
        assert_eq!(cache.len(), before, "duplicate put is a no-op");
    }

    #[test]
    fn warm_rerun_reuses_every_component_and_matches_cold_bytes() {
        let cache = MemoryComponentCache::new();
        let image = spec::all()[0].image();
        let config = HardenConfig::default();

        let cold = harden_cached(&image, &config, 1, &cache).expect("cold hardens");
        assert!(cold.stats.components > 0, "image has components");
        assert_eq!(cold.stats.components_reused, 0, "cold run computes all");

        let warm = harden_cached(&image, &config, 1, &cache).expect("warm hardens");
        assert_eq!(
            warm.stats.components_reused, warm.stats.components,
            "warm run reuses every component"
        );
        assert_eq!(
            warm.image.to_bytes(),
            cold.image.to_bytes(),
            "warm output is byte-identical"
        );

        // And both match the uncached pipeline.
        let uncached = harden_threaded(&image, &config, 1).expect("uncached hardens");
        assert_eq!(uncached.image.to_bytes(), cold.image.to_bytes());
        assert_eq!(uncached.stats.components_reused, 0);
    }

    #[test]
    fn different_config_is_a_cache_miss() {
        let cache = MemoryComponentCache::new();
        let image = spec::all()[0].image();
        let a = HardenConfig::default();
        let b = HardenConfig::unoptimized(crate::LowFatPolicy::All);
        harden_cached(&image, &a, 1, &cache).expect("hardens under a");
        let under_b = harden_cached(&image, &b, 1, &cache).expect("hardens under b");
        assert_eq!(
            under_b.stats.components_reused, 0,
            "a different config must never hit the other config's entries"
        );
    }
}
