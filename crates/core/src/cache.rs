//! The file cache with GreedyDual-Size eviction (§2.3).
//!
//! "Any PAST node can cache additional copies of a file, which achieves
//! query load balancing, high throughput for popular files, and reduces
//! fetch distance and network traffic." The cache lives in the node's
//! *unused* storage: cached copies are evicted instantly whenever primary
//! storage needs the space. Eviction follows the GreedyDual-Size policy
//! used by the SOSP'01 companion paper: each entry carries a credit
//! `H = L + cost/size`; the entry with minimal `H` is evicted and its `H`
//! becomes the new aging floor `L`.

use crate::cert::{cert_share, FileCertificate, SharedCert};
use crate::fileid::FileId;
use past_wire::btree_heap_bytes;
use std::collections::BTreeMap;

/// One cached file: a handle on the certificate the serving node sent,
/// not a copy of it.
#[derive(Clone, Debug)]
struct CacheEntry {
    cert: SharedCert,
    h: f64,
}

/// A GreedyDual-Size cache over a byte budget supplied by the caller.
#[derive(Clone, Debug, Default)]
pub struct Cache {
    // BTreeMap, not HashMap: eviction scans the entries, and hash order
    // would leak into victim choice on credit ties (rule D3, `clippy.toml`).
    entries: BTreeMap<FileId, CacheEntry>,
    used: u64,
    aging_floor: f64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new() -> Cache {
        Cache::default()
    }

    /// Bytes currently cached.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of cached files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cache hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total admissions.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Total evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The GreedyDual-Size credit for a file of `size` bytes over the
    /// aging floor `floor`.
    fn credit(floor: f64, size: u64) -> f64 {
        // Cost 1 per retrieval (uniform miss penalty), so H = L + 1/size:
        // small popular files are worth more per byte.
        floor + 1.0 / size.max(1) as f64
    }

    /// Looks a file up, refreshing its credit on a hit.
    pub fn lookup(&mut self, id: &FileId) -> Option<&SharedCert> {
        match self.entries.get_mut(id) {
            Some(e) => {
                self.hits += 1;
                e.h = Cache::credit(self.aging_floor, e.cert.size);
                Some(&e.cert)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Non-statistical peek (does not count as a hit or miss).
    pub fn contains(&self, id: &FileId) -> bool {
        self.entries.contains_key(id)
    }

    /// The cached certificate for `id`, read without counting a hit or
    /// a miss and without refreshing its credit.
    pub(crate) fn peek(&self, id: &FileId) -> Option<&SharedCert> {
        self.entries.get(id).map(|e| &e.cert)
    }

    /// False when [`Cache::offer`] would refuse `cert` whatever the
    /// incumbents' credits: an empty file, one larger than the whole
    /// `budget`, or one already cached. Reads no counter and changes
    /// nothing, so callers can test it before paying for anything else.
    pub fn admissible(&self, cert: &FileCertificate, budget: u64) -> bool {
        cert.size != 0 && cert.size <= budget && !self.entries.contains_key(&cert.file_id)
    }

    /// Offers a file for caching within `budget` total bytes.
    ///
    /// Evicts lowest-credit entries to fit; refuses files that would not
    /// fit even after evicting everything, or whose credit is below every
    /// incumbent's (GD-S admission). A handle is kept as is; a plain
    /// certificate is copied into a fresh allocation.
    pub fn offer(&mut self, cert: impl Into<SharedCert>, budget: u64) -> bool {
        let cert = cert.into();
        if !self.admissible(&cert, budget) {
            return false;
        }
        let size = cert.size;
        let new_h = Cache::credit(self.aging_floor, size);
        // Evict until it fits, but never evict an entry more valuable than
        // the newcomer.
        while self.used + size > budget {
            if !self.evict_one(new_h) {
                return false;
            }
        }
        self.used += size;
        self.insertions += 1;
        self.entries
            .insert(cert.file_id, CacheEntry { cert, h: new_h });
        true
    }

    /// Shrinks the cache to at most `budget` bytes (called when primary
    /// storage grows into space the cache was borrowing).
    pub fn shrink_to(&mut self, budget: u64) {
        while self.used > budget && self.evict_one(f64::INFINITY) {}
    }

    /// Drops a specific entry (e.g. after the file is reclaimed).
    pub fn invalidate(&mut self, id: &FileId) {
        self.remove_entry(id);
    }

    /// Iterates over cached files as `(id, size)` (snapshot/invariant
    /// support).
    pub fn entries(&self) -> impl Iterator<Item = (&FileId, u64)> {
        self.entries.iter().map(|(id, e)| (id, e.cert.size))
    }

    /// Estimated heap held: the map's nodes plus this cache's share of
    /// each certificate it holds a handle on.
    pub(crate) fn heap_bytes(&self) -> usize {
        btree_heap_bytes::<FileId, CacheEntry>(self.entries.len())
            + self
                .entries
                .values()
                .map(|e| cert_share(&e.cert))
                .sum::<usize>()
    }

    /// Evicts the lowest-credit entry unless the cache is empty or that
    /// credit exceeds `ceiling`, and answers whether it did. The evicted
    /// credit becomes the aging floor.
    fn evict_one(&mut self, ceiling: f64) -> bool {
        let victim = self
            .entries
            .iter()
            .min_by(|a, b| a.1.h.total_cmp(&b.1.h))
            .map(|(id, e)| (*id, e.h));
        let Some((vid, vh)) = victim.filter(|&(_, vh)| vh <= ceiling) else {
            return false;
        };
        self.remove_entry(&vid);
        self.aging_floor = vh;
        self.evictions += 1;
        true
    }

    fn remove_entry(&mut self, id: &FileId) {
        if let Some(e) = self.entries.remove(id) {
            self.used -= e.cert.size;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use crate::fileid::ContentRef;

    fn cert_of(size: u64, tag: u64) -> FileCertificate {
        let mut broker = Broker::new(b"b");
        let mut card = broker.issue_card(b"u", u64::MAX / 2, 0);
        let content = ContentRef::synthetic(0, &format!("f{tag}"), size);
        card.issue_file_certificate(&format!("f{tag}"), &content, 1, tag, 0)
            .unwrap()
    }

    #[test]
    fn offer_and_lookup() {
        let mut c = Cache::new();
        let cert = cert_of(100, 1);
        assert!(c.offer(cert, 1000));
        assert_eq!(c.used(), 100);
        assert!(c.lookup(&cert.file_id).is_some());
        assert_eq!(c.hits(), 1);
        assert!(c.lookup(&cert_of(100, 2).file_id).is_none());
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn rejects_oversized_and_duplicates() {
        let mut c = Cache::new();
        let cert = cert_of(100, 1);
        assert!(!c.offer(cert, 50));
        assert!(c.offer(cert, 100));
        assert!(!c.offer(cert, 1000), "duplicate refused");
    }

    #[test]
    fn evicts_lowest_credit_first() {
        let mut c = Cache::new();
        let big = cert_of(800, 1); // H = 1/800 (low)
        let small = cert_of(100, 2); // H = 1/100 (high)
        assert!(c.offer(big, 1000));
        assert!(c.offer(small, 1000));
        // A newcomer that needs space evicts `big` (lower credit).
        let mid = cert_of(500, 3); // H = 1/500 > 1/800
        assert!(c.offer(mid, 1000));
        assert!(!c.contains(&big.file_id));
        assert!(c.contains(&small.file_id));
        assert!(c.contains(&mid.file_id));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn admission_refuses_low_value_newcomer() {
        let mut c = Cache::new();
        let small = cert_of(10, 1); // H = 0.1
        assert!(c.offer(small, 100));
        // Newcomer is huge (credit 1/100) and would evict the more
        // valuable incumbent: refused.
        let big = cert_of(100, 2);
        assert!(!c.offer(big, 100));
        assert!(c.contains(&small.file_id));
    }

    #[test]
    fn aging_floor_lets_new_content_in_eventually() {
        let mut c = Cache::new();
        let a = cert_of(100, 1);
        let b = cert_of(100, 2);
        let d = cert_of(100, 3);
        assert!(c.offer(a, 100));
        // Same size: H equal to floor+1/100; eviction allowed (vh == new_h).
        assert!(c.offer(b, 100));
        assert!(!c.contains(&a.file_id));
        // Floor rose, so the next same-size newcomer still gets in.
        assert!(c.offer(d, 100));
        assert!(c.contains(&d.file_id));
    }

    #[test]
    fn shrink_evicts_until_within_budget() {
        let mut c = Cache::new();
        for i in 0..5 {
            assert!(c.offer(cert_of(100, i), 1000));
        }
        assert_eq!(c.used(), 500);
        c.shrink_to(250);
        assert!(c.used() <= 250);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = Cache::new();
        let cert = cert_of(100, 1);
        c.offer(cert, 1000);
        c.invalidate(&cert.file_id);
        assert!(!c.contains(&cert.file_id));
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn an_entry_is_a_handle_and_a_credit() {
        assert!(std::mem::size_of::<CacheEntry>() <= 16);
    }

    #[test]
    fn an_offered_handle_is_kept_not_copied() {
        let mut c = Cache::new();
        let cert: SharedCert = cert_of(100, 1).into();
        assert!(c.offer(cert.clone(), 1000));
        assert!(std::sync::Arc::ptr_eq(
            c.lookup(&cert.file_id).unwrap(),
            &cert
        ));
    }

    #[test]
    fn heap_bytes_count_entries_and_give_them_back() {
        const N: u64 = 40;
        let mut c = Cache::new();
        let empty = c.heap_bytes();
        let certs: Vec<_> = (0..N).map(|i| cert_of(10, i)).collect();
        for cert in &certs {
            assert!(c.offer(cert, 1 << 20));
        }
        // Each entry's own certificate counts whole: no other handle.
        let entry = std::mem::size_of::<(FileId, CacheEntry)>();
        let per_cert = entry + std::mem::size_of::<FileCertificate>();
        assert!(c.heap_bytes() - empty >= N as usize * per_cert);
        for cert in &certs {
            c.invalidate(&cert.file_id);
        }
        assert_eq!(c.heap_bytes(), empty);
    }

    /// GreedyDual-Size may evict and then refuse the newcomer anyway: the
    /// eviction loop checks only the next victim's credit, so it can free
    /// cheaper entries before meeting one worth more than the newcomer.
    /// Budget 100, offers of 63, 26, 53 and 77 bytes: the 53-byte offer
    /// evicts the 63-byte entry (evictions 1, entries 2); the 77-byte offer
    /// evicts the 53-byte entry, then meets the 26-byte one, whose credit
    /// is higher, and returns `false` with evictions 2 and one entry left.
    /// 400 offers of 1–99 bytes (sizes from `Rng::seed_from_u64(7)`) into
    /// the same budget hit this 51 times. Fixing it changes which files
    /// stay cached, a semantic change for a change of its own (ROADMAP,
    /// the GreedyDual-Size item).
    #[test]
    #[ignore = "known GreedyDual-Size bug: a refused offer can already have evicted"]
    fn a_refused_offer_evicts_nothing() {
        let mut c = Cache::new();
        for (tag, size) in [(1, 63), (2, 26), (3, 53)] {
            assert!(c.offer(cert_of(size, tag), 100));
        }
        assert_eq!((c.evictions(), c.len()), (1, 2));
        assert!(!c.offer(cert_of(77, 4), 100));
        assert_eq!((c.evictions(), c.len()), (1, 2), "refused, yet evicted");
    }
}
