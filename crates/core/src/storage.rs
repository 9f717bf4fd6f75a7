//! Per-node storage management (§2.3, after the SOSP'01 companion paper).
//!
//! A node's disk holds *primary* replicas (the node is one of the k
//! numerically closest to the fileId), *diverted* replicas (stored on
//! behalf of a leaf-set neighbor that was full), *pointers* to replicas it
//! diverted elsewhere, and — in whatever space is left — the cache.
//!
//! The acceptance policy is threshold-based: a file of size `s` is
//! accepted as a primary replica only if `s / free ≤ t_pri`, and as a
//! diverted replica only if `s / free ≤ t_div` with `t_div < t_pri`. The
//! tighter diversion threshold keeps far-from-home replicas from crowding
//! out local ones; both thresholds bias rejections toward large files,
//! reproducing the paper's "failed insertions are heavily biased towards
//! large files".

use crate::cache::Cache;
use crate::cert::{cert_share, FileCertificate, SharedCert};
use crate::fileid::FileId;
use past_wire::{btree_heap_bytes, Addr};
use std::collections::BTreeMap;

/// Why an insertion was refused by the local policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefuseReason {
    /// The file does not fit in free space at all.
    NoSpace,
    /// The threshold test `size/free ≤ t` failed.
    Threshold,
    /// The node already holds this file.
    AlreadyStored,
}

/// Where a held replica came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaKind {
    /// One of the k numerically closest nodes.
    Primary,
    /// Held on behalf of a full leaf-set neighbor.
    Diverted,
}

/// A stored replica.
#[derive(Clone, Debug)]
pub struct StoredFile {
    /// The file's certificate (carries size and content hash), shared
    /// with every other holder of the same issuance.
    pub cert: SharedCert,
    /// Primary or diverted.
    pub kind: ReplicaKind,
}

/// A stored replica by value, as [`Store::files`] yields it.
#[derive(Clone, Copy, Debug)]
pub struct FileCopy {
    /// The file's certificate.
    pub cert: FileCertificate,
    /// Primary or diverted.
    pub kind: ReplicaKind,
}

/// The storage state of one PAST node.
#[derive(Debug)]
pub struct Store {
    capacity: u64,
    used: u64,
    // BTreeMaps, not HashMaps: replica maintenance iterates `files`, and
    // hash order would leak into which replicas move first (rule D3,
    // `clippy.toml`).
    files: BTreeMap<FileId, StoredFile>,
    /// fileId → node holding the replica this node diverted, and the
    /// replica's certificate (a reclaim is checked against its owner).
    pointers: BTreeMap<FileId, (Addr, SharedCert)>,
    /// The cache living in unused space.
    pub cache: Cache,
    /// Primary-replica acceptance threshold (`t_pri`).
    pub t_pri: f64,
    /// Diverted-replica acceptance threshold (`t_div`).
    pub t_div: f64,
}

impl Store {
    /// Creates a store with the given capacity and thresholds.
    pub fn new(capacity: u64, t_pri: f64, t_div: f64) -> Store {
        assert!(t_div <= t_pri, "t_div must not exceed t_pri");
        Store {
            capacity,
            used: 0,
            files: BTreeMap::new(),
            pointers: BTreeMap::new(),
            cache: Cache::new(),
            t_pri,
            t_div,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes committed to primary + diverted replicas.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Free bytes (cache space is reclaimable, so it counts as free).
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            1.0
        } else {
            self.used as f64 / self.capacity as f64
        }
    }

    /// The stored replica for `id`, if any.
    pub fn get(&self, id: &FileId) -> Option<&StoredFile> {
        self.files.get(id)
    }

    /// The diversion pointer for `id`, if this node diverted it.
    pub fn pointer(&self, id: &FileId) -> Option<Addr> {
        self.pointers.get(id).map(|(holder, _)| *holder)
    }

    /// The certificates this node holds for `id`: its replica's, its
    /// diversion pointer's and its cached copy's, whichever exist.
    pub(crate) fn certs(&self, id: &FileId) -> impl Iterator<Item = &SharedCert> {
        let replica = self.files.get(id).map(|f| &f.cert);
        let pointer = self.pointers.get(id).map(|(_, cert)| cert);
        replica
            .into_iter()
            .chain(pointer)
            .chain(self.cache.peek(id))
    }

    /// Iterates over stored replicas, handles and all.
    pub fn replicas(&self) -> impl Iterator<Item = (&FileId, &StoredFile)> {
        self.files.iter()
    }

    /// Iterates over stored replicas by value. The benchmark harness reads
    /// `cert` here as a plain `FileCertificate`; once it reads
    /// [`Store::replicas`] instead (ROADMAP H1), H1's `simplicity`
    /// follow-up deletes this view and [`FileCopy`].
    pub fn files(&self) -> impl Iterator<Item = (&FileId, FileCopy)> {
        self.files.iter().map(|(id, f)| {
            let (cert, kind) = (*f.cert, f.kind);
            (id, FileCopy { cert, kind })
        })
    }

    /// Iterates over diversion pointers (snapshot/invariant support).
    pub fn pointers(&self) -> impl Iterator<Item = (&FileId, Addr)> {
        self.pointers.iter().map(|(id, (a, _))| (id, *a))
    }

    /// Tests the acceptance policy without storing.
    pub fn admits(&self, size: u64, kind: ReplicaKind) -> Result<(), RefuseReason> {
        let free = self.free();
        if size > free {
            return Err(RefuseReason::NoSpace);
        }
        let t = match kind {
            ReplicaKind::Primary => self.t_pri,
            ReplicaKind::Diverted => self.t_div,
        };
        if free == 0 || size as f64 / free as f64 > t {
            return Err(RefuseReason::Threshold);
        }
        Ok(())
    }

    /// Stores a replica if the policy admits it, shrinking the cache to
    /// make room. A handle is kept as is; a plain certificate is copied
    /// into a fresh allocation.
    pub fn insert(
        &mut self,
        cert: impl Into<SharedCert>,
        kind: ReplicaKind,
    ) -> Result<(), RefuseReason> {
        let cert = cert.into();
        if self.files.contains_key(&cert.file_id) {
            return Err(RefuseReason::AlreadyStored);
        }
        self.admits(cert.size, kind)?;
        self.used += cert.size;
        // The cache borrows free space only; give it back.
        self.cache.shrink_to(self.free());
        self.cache.invalidate(&cert.file_id);
        self.files.insert(cert.file_id, StoredFile { cert, kind });
        Ok(())
    }

    /// Records that this node diverted the replica `cert` to `holder`.
    pub fn add_pointer(&mut self, cert: impl Into<SharedCert>, holder: Addr) {
        let cert = cert.into();
        self.pointers.insert(cert.file_id, (holder, cert));
    }

    /// Removes a replica, returning the bytes freed (0 if absent).
    ///
    /// Also drops any cached copy and any diversion pointer for the same
    /// id: a removal means the file is gone from this node's perspective
    /// (reclaimed or no longer its responsibility), and a stale pointer or
    /// cache entry would keep serving it afterwards.
    pub fn remove(&mut self, id: &FileId) -> u64 {
        self.cache.invalidate(id);
        self.pointers.remove(id);
        match self.files.remove(id) {
            Some(f) => {
                self.used -= f.cert.size;
                f.cert.size
            }
            None => 0,
        }
    }

    /// Removes a diversion pointer, returning the holder if present.
    pub fn remove_pointer(&mut self, id: &FileId) -> Option<Addr> {
        self.pointers.remove(id).map(|(holder, _)| holder)
    }

    /// True if the node can serve `id` from primary, diverted, or cache.
    pub fn can_serve(&self, id: &FileId) -> bool {
        self.files.contains_key(id) || self.cache.contains(id)
    }

    /// The certificate to serve for `id`, marking cache hits.
    /// Returns `(certificate, from_cache)`.
    pub fn serve(&mut self, id: &FileId) -> Option<(SharedCert, bool)> {
        if let Some(f) = self.files.get(id) {
            return Some((f.cert.clone(), false));
        }
        self.cache.lookup(id).map(|c| (c.clone(), true))
    }

    /// False when [`Store::offer_cache`] would refuse `cert` outright:
    /// the node already holds the file as a replica or in its cache, or
    /// the file is empty or larger than the free space the cache may
    /// borrow. Side-effect free, so it can gate work (a signature check)
    /// that only an admissible file is worth.
    pub fn cache_admissible(&self, cert: &FileCertificate) -> bool {
        !self.files.contains_key(&cert.file_id) && self.cache.admissible(cert, self.free())
    }

    /// Offers a passing file to the cache (bounded by current free space).
    pub fn offer_cache(&mut self, cert: impl Into<SharedCert>) -> bool {
        let cert = cert.into();
        if self.files.contains_key(&cert.file_id) {
            return false;
        }
        self.cache.offer(cert, self.free())
    }

    /// Estimated heap held: the replica and pointer maps' nodes, this
    /// store's share of each certificate it holds a handle on, and the
    /// cache.
    pub(crate) fn heap_bytes(&self) -> usize {
        let pointed = self.pointers.values().map(|(_, cert)| cert);
        btree_heap_bytes::<FileId, StoredFile>(self.files.len())
            + btree_heap_bytes::<FileId, (Addr, SharedCert)>(self.pointers.len())
            + self
                .files
                .values()
                .map(|f| &f.cert)
                .chain(pointed)
                .map(cert_share)
                .sum::<usize>()
            + self.cache.heap_bytes()
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
    fn threshold_policy() {
        let s = Store::new(1000, 0.1, 0.05);
        // Primary: up to 10% of free.
        assert!(s.admits(100, ReplicaKind::Primary).is_ok());
        assert_eq!(
            s.admits(101, ReplicaKind::Primary),
            Err(RefuseReason::Threshold)
        );
        // Diverted: tighter.
        assert!(s.admits(50, ReplicaKind::Diverted).is_ok());
        assert_eq!(
            s.admits(51, ReplicaKind::Diverted),
            Err(RefuseReason::Threshold)
        );
        assert_eq!(
            s.admits(2000, ReplicaKind::Primary),
            Err(RefuseReason::NoSpace)
        );
    }

    #[test]
    fn threshold_tightens_as_disk_fills() {
        let mut s = Store::new(1000, 0.5, 0.25);
        assert!(s.insert(cert_of(400, 1), ReplicaKind::Primary).is_ok());
        assert_eq!(s.free(), 600);
        // 301/600 > 0.5 refused, 300/600 accepted.
        assert_eq!(
            s.admits(301, ReplicaKind::Primary),
            Err(RefuseReason::Threshold)
        );
        assert!(s.insert(cert_of(300, 2), ReplicaKind::Primary).is_ok());
        assert_eq!(s.used(), 700);
        assert!((s.utilization() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn duplicate_insert_refused() {
        let mut s = Store::new(1000, 1.0, 1.0);
        let c = cert_of(100, 1);
        assert!(s.insert(c, ReplicaKind::Primary).is_ok());
        assert_eq!(
            s.insert(c, ReplicaKind::Primary),
            Err(RefuseReason::AlreadyStored)
        );
        assert_eq!(s.used(), 100);
    }

    #[test]
    fn remove_frees_space() {
        let mut s = Store::new(1000, 1.0, 1.0);
        let c = cert_of(100, 1);
        s.insert(c, ReplicaKind::Primary).unwrap();
        assert_eq!(s.remove(&c.file_id), 100);
        assert_eq!(s.used(), 0);
        assert_eq!(s.remove(&c.file_id), 0);
    }

    #[test]
    fn remove_invalidates_cache_and_pointer() {
        // Regression: `remove` used to free the bytes but leave a stale
        // diversion pointer and a live cache entry behind, so a reclaimed
        // file could still be served or chased through the pointer.
        let mut s = Store::new(1000, 1.0, 1.0);
        let c = cert_of(100, 1);
        s.insert(c, ReplicaKind::Primary).unwrap();
        s.add_pointer(c, 42);
        // Force a cache copy alongside (simulates a pre-insert cached copy
        // plus a pointer left by an earlier diversion of the same id).
        assert!(s.cache.offer(c, 500));
        assert_eq!(s.remove(&c.file_id), 100);
        assert!(!s.cache.contains(&c.file_id), "cache copy invalidated");
        assert_eq!(s.pointer(&c.file_id), None, "diversion pointer dropped");
        assert!(!s.can_serve(&c.file_id));
    }

    #[test]
    fn pointers_roundtrip() {
        let mut s = Store::new(1000, 1.0, 1.0);
        let c = cert_of(100, 1);
        s.add_pointer(c, 42);
        assert_eq!(s.pointer(&c.file_id), Some(42));
        let certs: Vec<_> = s.certs(&c.file_id).map(|cert| **cert).collect();
        assert_eq!(certs, [c], "a pointer keeps the replica's certificate");
        assert_eq!(s.remove_pointer(&c.file_id), Some(42));
        assert_eq!(s.pointer(&c.file_id), None);
    }

    #[test]
    fn cache_borrows_free_space_and_yields_it() {
        let mut s = Store::new(1000, 1.0, 1.0);
        let cached = cert_of(500, 1);
        assert!(s.offer_cache(cached));
        assert_eq!(s.cache.used(), 500);
        // Primary insert still sees the full free space and evicts cache.
        let primary = cert_of(900, 2);
        assert!(s.insert(primary, ReplicaKind::Primary).is_ok());
        assert!(s.cache.used() <= s.free());
        assert!(!s.cache.contains(&cached.file_id));
    }

    #[test]
    fn cache_admissible_names_the_outright_refusals() {
        let mut s = Store::new(1000, 1.0, 1.0);
        let replica = cert_of(100, 1);
        s.insert(replica, ReplicaKind::Primary).unwrap();
        let cached = cert_of(100, 2);
        assert!(s.cache_admissible(&cached));
        assert!(s.offer_cache(cached));
        // The replica left 900 bytes free: that is the cache's budget.
        let refused = [replica, cached, cert_of(0, 3), cert_of(901, 4)];
        let before = (s.cache.insertions(), s.cache.evictions(), s.cache.used());
        for c in &refused {
            assert!(!s.cache_admissible(c), "size {}", c.size);
            assert!(!s.offer_cache(c));
        }
        assert_eq!(
            (s.cache.insertions(), s.cache.evictions(), s.cache.used()),
            before
        );
        assert!(s.cache_admissible(&cert_of(900, 5)));
    }

    #[test]
    fn serve_prefers_replica_over_cache() {
        let mut s = Store::new(1000, 1.0, 1.0);
        let c = cert_of(100, 1);
        s.insert(c, ReplicaKind::Primary).unwrap();
        let (got, from_cache) = s.serve(&c.file_id).unwrap();
        assert_eq!(got.file_id, c.file_id);
        assert!(!from_cache);
        let d = cert_of(50, 2);
        assert!(s.offer_cache(d));
        let (_, from_cache) = s.serve(&d.file_id).unwrap();
        assert!(from_cache);
        assert!(s.serve(&cert_of(10, 3).file_id).is_none());
    }

    #[test]
    fn inserting_a_cached_file_drops_the_cache_copy() {
        let mut s = Store::new(1000, 1.0, 1.0);
        let c = cert_of(100, 1);
        assert!(s.offer_cache(c));
        assert!(s.insert(c, ReplicaKind::Primary).is_ok());
        assert!(!s.cache.contains(&c.file_id));
        assert!(s.can_serve(&c.file_id));
    }

    #[test]
    fn heap_bytes_count_replicas_and_give_them_back() {
        const N: u64 = 40;
        let mut s = Store::new(1 << 30, 1.0, 1.0);
        let empty = s.heap_bytes();
        let certs: Vec<_> = (0..N).map(|i| cert_of(10, i)).collect();
        for c in &certs {
            s.insert(c, ReplicaKind::Primary).unwrap();
        }
        // Each replica's own certificate counts whole: no other handle.
        let entry = std::mem::size_of::<(FileId, StoredFile)>();
        let per_cert = entry + std::mem::size_of::<FileCertificate>();
        let full = s.heap_bytes();
        assert!(full - empty >= N as usize * per_cert);
        // A second handle on each certificate halves the store's share.
        let held: Vec<SharedCert> = s.replicas().map(|(_, f)| f.cert.clone()).collect();
        assert!(s.heap_bytes() < full);
        drop(held);
        for c in &certs {
            s.remove(&c.file_id);
        }
        assert_eq!(s.heap_bytes(), empty);
    }

    #[test]
    fn files_yield_the_replicas_by_value() {
        let mut s = Store::new(1000, 1.0, 1.0);
        let c = cert_of(100, 1);
        s.insert(c, ReplicaKind::Diverted).unwrap();
        let (id, copy) = s.files().next().unwrap();
        assert_eq!(
            (*id, copy.cert, copy.kind),
            (c.file_id, c, ReplicaKind::Diverted)
        );
    }

    #[test]
    fn zero_capacity_store() {
        let s = Store::new(0, 0.1, 0.05);
        assert_eq!(
            s.admits(1, ReplicaKind::Primary),
            Err(RefuseReason::NoSpace)
        );
        assert_eq!(s.utilization(), 1.0);
    }
}
