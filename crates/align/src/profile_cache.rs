//! Per-query profile cache: build the striped profiles for a
//! (query, matrix) pair once, reuse them across database chunks, jobs
//! and worker threads.
//!
//! Database search re-scores the *same* query against thousands of
//! subjects, usually split into many chunk-jobs. Without a cache every
//! job rebuilds the query profile — pure overhead that the profiler
//! reports as `profile_build` self-time. With the cache, the first job
//! for a query pays the build and every later job gets an `Arc` to the
//! shared bundle; `profile_build` collapses to a lookup.
//!
//! Keys are exact: a fast FNV-1a fingerprint over the query residues
//! and matrix table prefilters, then the stored query and matrix are
//! compared for equality (`Matrix` derives `Eq`), so two different
//! matrices can never alias a profile. Eviction is LRU by insertion
//! order with a small default capacity — a worker rarely serves more
//! than a handful of live queries at once.

use crate::dispatch::{Backend, QueryProfiles};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use swdual_bio::matrix::Matrix;

/// Default number of (query, matrix) entries kept per cache.
pub const DEFAULT_CAPACITY: usize = 16;

struct Entry {
    fingerprint: u64,
    backend: Backend,
    matrix: Matrix,
    profiles: Arc<QueryProfiles>,
}

/// Thread-safe LRU cache of built [`QueryProfiles`].
pub struct ProfileCache {
    /// Most-recently-used last.
    entries: Mutex<Vec<Entry>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ProfileCache {
    fn default() -> Self {
        ProfileCache::new(DEFAULT_CAPACITY)
    }
}

impl ProfileCache {
    /// Create a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> ProfileCache {
        ProfileCache {
            entries: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The entries, whatever a thread that unwound while holding them
    /// left: every entry is whole between two statements that change
    /// the list, so a job that panicked cannot fail the next lookup.
    fn entries(&self) -> MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// FNV-1a over the query residues and the matrix identity.
    fn fingerprint(query: &[u8], matrix: &Matrix) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for &b in query {
            eat(b);
        }
        eat(0xff); // separator so (query+name) pairs can't collide trivially
        for &b in matrix.name.as_bytes() {
            eat(b);
        }
        eat(matrix.size() as u8);
        h
    }

    /// Fetch the profiles for `(query, matrix)` under the process-wide
    /// active backend, building and inserting them on a miss.
    pub fn get_or_build(&self, query: &[u8], matrix: &Matrix) -> Arc<QueryProfiles> {
        self.get_or_build_for(Backend::active(), query, matrix)
    }

    /// Fetch for an explicit backend (benches compare backends side by
    /// side from one cache).
    pub fn get_or_build_for(
        &self,
        backend: Backend,
        query: &[u8],
        matrix: &Matrix,
    ) -> Arc<QueryProfiles> {
        let fp = ProfileCache::fingerprint(query, matrix);
        {
            let mut entries = self.entries();
            if let Some(i) = entries.iter().position(|e| {
                e.fingerprint == fp
                    && e.backend == backend
                    && e.profiles.query() == query
                    && e.matrix == *matrix
            }) {
                // Move to MRU position.
                let entry = entries.remove(i);
                let profiles = Arc::clone(&entry.profiles);
                entries.push(entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return profiles;
            }
        }
        // Build outside the lock: profile construction is the expensive
        // part and other workers should not serialise behind it. A racing
        // duplicate build is possible and harmless (last writer wins).
        let profiles = Arc::new(QueryProfiles::build_for(backend, query, matrix));
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries();
        if entries.len() >= self.capacity {
            entries.remove(0); // LRU is at the front
        }
        entries.push(Entry {
            fingerprint: fp,
            backend,
            matrix: matrix.clone(),
            profiles: Arc::clone(&profiles),
        });
        profiles
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= profile builds) since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// True when no profiles are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for ProfileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdual_bio::{Alphabet, ScoringScheme};

    fn prot(t: &[u8]) -> Vec<u8> {
        Alphabet::Protein.encode(t).unwrap()
    }

    #[test]
    fn second_lookup_hits_and_shares_the_arc() {
        let scheme = ScoringScheme::protein_default();
        let q = prot(b"MKWVTFISLL");
        let cache = ProfileCache::default();
        let a = cache.get_or_build(&q, &scheme.matrix);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let b = cache.get_or_build(&q, &scheme.matrix);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_matrix_same_query_is_a_distinct_entry() {
        let blosum = ScoringScheme::protein_default();
        let mm = Matrix::match_mismatch(Alphabet::Protein, 3, -2);
        let q = prot(b"MKWVTFISLL");
        let cache = ProfileCache::default();
        let a = cache.get_or_build(&q, &blosum.matrix);
        let b = cache.get_or_build(&q, &mm);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let scheme = ScoringScheme::protein_default();
        let cache = ProfileCache::new(2);
        let q1 = prot(b"AAAA");
        let q2 = prot(b"CCCC");
        let q3 = prot(b"DDDD");
        cache.get_or_build(&q1, &scheme.matrix);
        cache.get_or_build(&q2, &scheme.matrix);
        // Touch q1 so q2 becomes the LRU entry.
        cache.get_or_build(&q1, &scheme.matrix);
        cache.get_or_build(&q3, &scheme.matrix); // evicts q2
        assert_eq!(cache.len(), 2);
        let misses_before = cache.misses();
        cache.get_or_build(&q1, &scheme.matrix); // still cached
        assert_eq!(cache.misses(), misses_before);
        cache.get_or_build(&q2, &scheme.matrix); // rebuilt
        assert_eq!(cache.misses(), misses_before + 1);
    }

    #[test]
    fn a_poisoned_cache_still_serves_lookups() {
        let cache = ProfileCache::default();
        let m = Matrix::blosum62();
        let q = prot(b"MKVLAT");
        cache.get_or_build(&q, m);
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = cache.entries.lock().unwrap();
                panic!("a job unwinds while holding the cache");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.entries.is_poisoned());
        cache.get_or_build(&q, m);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
    }

    #[test]
    fn shared_across_threads() {
        let scheme = ScoringScheme::protein_default();
        let cache = Arc::new(ProfileCache::default());
        let q = prot(b"MKWVTFISLLFLFSSAYS");
        // Warm the cache first so every thread hits.
        cache.get_or_build(&q, &scheme.matrix);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let q = q.clone();
                let m = scheme.matrix.clone();
                std::thread::spawn(move || cache.get_or_build(&q, &m).query().len())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), q.len());
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 4);
    }
}
