//! The PAST node application: storage protocol logic on top of Pastry.
//!
//! Implements the paper's three operations — insert (k replicas on the k
//! nodes with nodeIds numerically closest to the fileId), lookup (answered
//! by the first node along the route holding a copy, including cached
//! copies), reclaim (owner-verified storage release) — plus replica
//! diversion for full nodes, file diversion (client re-salting), replica
//! maintenance under churn, cache management, storage audits, and the
//! fault-injection behaviors the security experiments need.

use crate::broker::Broker;
use crate::cert::{FileCertificate, ReclaimCertificate, ReclaimReceipt};
use crate::fileid::{audit_proof, ContentRef, FileId};
use crate::msg::{NackReason, PastMsg};
use crate::smartcard::{CardError, Smartcard};
use crate::storage::{ReplicaKind, Store};
use past_crypto::{Digest256, PublicKey};
use past_pastry::{App, AppCtx, Id, NodeHandle, PastryState, RouteEnvelope, RouteInfo};
use past_wire::{Addr, OpId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Tunable PAST parameters.
#[derive(Clone, Copy, Debug)]
pub struct PastConfig {
    /// Default replication factor `k` (the paper's replica-locality
    /// experiment uses 5).
    pub default_k: u8,
    /// Primary-replica acceptance threshold `t_pri`.
    pub t_pri: f64,
    /// Diverted-replica acceptance threshold `t_div`.
    pub t_div: f64,
    /// Insert attempts including the original (file diversion retries
    /// with a fresh salt; "the client retries with a different salt").
    pub max_insert_attempts: u32,
    /// Leaf-set nodes probed during replica diversion before giving up.
    pub divert_candidates: usize,
    /// Master switch for caching.
    pub cache_enabled: bool,
    /// Route-path nodes a serving node pushes a cache copy to.
    pub cache_push: usize,
    /// Cache files passing through on the insert path.
    pub cache_on_insert_path: bool,
    /// Verify signatures end to end. Large storage/caching experiments
    /// (E7, E8) disable this to measure storage policy rather than
    /// big-integer arithmetic; structural checks (content hash vs
    /// certificate, sizes) always run.
    pub crypto_checks: bool,
    /// Client-side request deadline (simulated µs). When set, every
    /// insert / lookup / reclaim arms a retransmission timer so requests
    /// lost to a faulty network are retried with exponential backoff and
    /// eventually surface an explicit failure event — never a silent
    /// hang. `None` (the default) disables the whole retry layer: no
    /// timers, no extra state, bit-identical lossless runs.
    pub request_timeout_us: Option<u64>,
    /// Total transmissions per request (the original plus retries)
    /// before the operation is declared failed. Only consulted when
    /// [`request_timeout_us`] is set.
    ///
    /// [`request_timeout_us`]: PastConfig::request_timeout_us
    pub request_attempts: u32,
}

impl Default for PastConfig {
    fn default() -> PastConfig {
        PastConfig {
            default_k: 5,
            t_pri: 0.1,
            t_div: 0.05,
            max_insert_attempts: 4,
            divert_candidates: 3,
            cache_enabled: true,
            cache_push: 1,
            cache_on_insert_path: true,
            crypto_checks: true,
            request_timeout_us: None,
            request_attempts: 4,
        }
    }
}

/// Client-visible protocol outcomes, emitted to the harness.
#[derive(Clone, Debug)]
pub enum PastOut {
    /// All `k` receipts collected.
    InsertOk {
        /// The client-local request id.
        request_id: u64,
        /// The final fileId (may differ from the first attempt's after
        /// file diversion).
        file_id: FileId,
        /// Attempts used (1 = no diversion needed).
        attempts: u32,
        /// Receipts collected.
        receipts: u8,
    },
    /// The insert failed after all attempts.
    InsertFailed {
        /// The client-local request id.
        request_id: u64,
        /// Size of the rejected file.
        size: u64,
        /// Attempts used.
        attempts: u32,
    },
    /// A lookup returned a verified file.
    LookupOk {
        /// The file.
        file_id: FileId,
        /// The node that served it.
        server: Addr,
        /// Whether a cached copy answered.
        from_cache: bool,
        /// When the lookup started (simulated µs).
        started_us: u64,
    },
    /// A lookup failed (miss or bad certificate).
    LookupFailed {
        /// The file.
        file_id: FileId,
    },
    /// A reclaim receipt was credited against the quota.
    ReclaimCredited {
        /// The file.
        file_id: FileId,
        /// Bytes credited.
        freed: u64,
    },
    /// A reclaim was refused (requester is not the owner).
    ReclaimDenied {
        /// The file.
        file_id: FileId,
    },
    /// A reclaim got no response after all retries (retry layer only).
    ReclaimFailed {
        /// The file.
        file_id: FileId,
    },
    /// An audited node proved possession.
    AuditPassed {
        /// The audited file.
        file_id: FileId,
        /// The prover.
        prover: Addr,
    },
    /// An audited node failed to prove possession.
    AuditFailed {
        /// The audited file.
        file_id: FileId,
        /// The prover.
        prover: Addr,
    },
}

/// An in-flight client insertion.
struct PendingInsert {
    request_id: u64,
    name: String,
    content: ContentRef,
    cert: FileCertificate,
    k: u8,
    attempts: u32,
    salt: u64,
    receipts: u8,
    receipt_keys: BTreeSet<[u8; 32]>,
    nacks: u32,
    fatal: bool,
    /// Transmissions of this attempt so far (retry layer).
    sends: u32,
    /// Trace attribution for the whole client operation (stable across
    /// file-diversion re-salts and retransmissions).
    op: OpId,
}

/// An in-flight client lookup.
struct PendingLookup {
    started_us: u64,
    sends: u32,
    /// Trace attribution for the operation.
    op: OpId,
}

/// An in-flight client (or internal cleanup) reclaim.
struct PendingReclaim {
    rcert: ReclaimCertificate,
    sends: u32,
    /// Internal reclaims (failed-insert cleanup) fail silently; the
    /// insert already reported its own failure.
    internal: bool,
    /// Trace attribution ([`OpId::NONE`] for internal reclaims).
    op: OpId,
}

/// What a retransmission timer is watching (retry layer).
#[derive(Clone, Copy, Debug)]
pub enum RetryOp {
    /// An insert attempt, by the attempt's fileId.
    Insert(FileId),
    /// A lookup.
    Lookup(FileId),
    /// A reclaim.
    Reclaim(FileId),
}

/// Replica-diversion state at a full primary.
struct DivertState {
    cert: FileCertificate,
    content: ContentRef,
    client: Addr,
    /// The client operation the diversion serves.
    op: OpId,
    /// The candidate probed and not yet answered (retransmissions
    /// re-probe it rather than fanning to fresh candidates).
    current: Addr,
    candidates: Vec<Addr>,
}

/// The PAST application state of one node.
pub struct PastApp {
    /// PAST parameters.
    pub cfg: PastConfig,
    /// This node's smartcard (storage-node and client roles).
    pub card: Smartcard,
    /// The local store.
    pub store: Store,
    /// The broker's public key (trust anchor).
    pub broker_key: PublicKey,
    /// Fault injection: corrupt insert contents passing through.
    pub corrupts_content: bool,
    /// Fault injection: acknowledge stores without keeping the data
    /// (exposed by random audits).
    pub drops_stored_files: bool,
    /// Fault injection: a malicious root that stores its own copy but
    /// suppresses the k−1 replica fan-out (exposed by missing store
    /// receipts at the client, §2.1).
    pub suppresses_replicas: bool,
    /// BTreeMap, not HashMap: `pending_insert_bytes` iterates it, and
    /// decision-crate iteration must be hash-order-free (rule D3).
    pending_inserts: BTreeMap<FileId, PendingInsert>,
    pending_lookups: HashMap<FileId, PendingLookup>,
    pending_audits: HashMap<FileId, (Digest256, u64)>,
    pending_diverts: HashMap<FileId, DivertState>,
    pending_reclaims: BTreeMap<FileId, PendingReclaim>,
    /// Armed retransmission timers, by timer token (retry layer).
    retry_timers: BTreeMap<u64, RetryOp>,
    next_retry_token: u64,
    /// Failed insert attempts: the storer keys whose receipts were
    /// counted before the attempt concluded. Reclaim receipts from any
    /// *other* storer of these files are quota-suppressed — their share
    /// of the debit was already returned as "unstored" (a copy whose
    /// store receipt the network lost).
    settled: BTreeMap<FileId, BTreeSet<[u8; 32]>>,
    /// Reclaim receipts this node issued, kept to re-acknowledge
    /// retransmitted reclaims for files already freed: `(owner card
    /// key, receipt)`.
    issued_reclaim_receipts: BTreeMap<FileId, ([u8; 32], ReclaimReceipt)>,
    /// Reclaim receipts already processed, by (file, storer): guards
    /// duplicated deliveries even with crypto checks off.
    reclaim_seen: BTreeSet<(FileId, [u8; 32])>,
    next_request_id: u64,
}

type Cx<'a, 'b> = AppCtx<'a, 'b, PastMsg, PastOut>;

impl PastApp {
    /// Creates a node application with the given card and capacity.
    pub fn new(cfg: PastConfig, card: Smartcard, capacity: u64, broker: &Broker) -> PastApp {
        PastApp {
            store: Store::new(capacity, cfg.t_pri, cfg.t_div),
            cfg,
            card,
            broker_key: broker.public(),
            corrupts_content: false,
            drops_stored_files: false,
            suppresses_replicas: false,
            pending_inserts: BTreeMap::new(),
            pending_lookups: HashMap::new(),
            pending_audits: HashMap::new(),
            pending_diverts: HashMap::new(),
            pending_reclaims: BTreeMap::new(),
            retry_timers: BTreeMap::new(),
            next_retry_token: 0,
            settled: BTreeMap::new(),
            issued_reclaim_receipts: BTreeMap::new(),
            reclaim_seen: BTreeSet::new(),
            next_request_id: 0,
        }
    }

    /// True when the client-side retry layer is active.
    fn retry_enabled(&self) -> bool {
        self.cfg.request_timeout_us.is_some()
    }

    /// Registers a retransmission watch and returns the app-timer token
    /// the harness must arm (used from outside an app context; inside
    /// one, use [`Self::arm_retry`]).
    pub fn register_retry(&mut self, op: RetryOp) -> u64 {
        let token = self.next_retry_token;
        self.next_retry_token += 1;
        self.retry_timers.insert(token, op);
        token
    }

    /// Registers a retransmission watch and arms its timer.
    fn arm_retry(&mut self, op: RetryOp, delay_us: u64, cx: &mut Cx) {
        let token = self.register_retry(op);
        cx.set_app_timer(delay_us, token);
    }

    /// Exponential backoff: the base timeout doubled per transmission.
    fn backoff_us(&self, sends: u32) -> u64 {
        let base = self.cfg.request_timeout_us.unwrap_or(0);
        base.saturating_mul(1u64 << sends.saturating_sub(1).min(6))
    }

    // --- Client-side entry points (invoked by the harness) -------------

    /// Issues a certificate and registers the pending insert.
    ///
    /// Returns `(request_id, certificate)`; the caller routes the
    /// [`PastMsg::Insert`] toward the fileId.
    pub fn begin_insert(
        &mut self,
        name: &str,
        content: ContentRef,
        k: u8,
        now_us: u64,
        op: OpId,
    ) -> Result<(u64, FileCertificate), CardError> {
        let salt = 0;
        let cert = self
            .card
            .issue_file_certificate(name, &content, k, salt, now_us)?;
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        self.pending_inserts.insert(
            cert.file_id,
            PendingInsert {
                request_id,
                name: name.to_string(),
                content,
                cert,
                k,
                attempts: 1,
                salt,
                receipts: 0,
                receipt_keys: BTreeSet::new(),
                nacks: 0,
                fatal: false,
                sends: 1,
                op,
            },
        );
        Ok((request_id, cert))
    }

    /// Registers a pending lookup (for latency measurement).
    pub fn begin_lookup(&mut self, file_id: FileId, now_us: u64, op: OpId) {
        self.pending_lookups.insert(
            file_id,
            PendingLookup {
                started_us: now_us,
                sends: 1,
                op,
            },
        );
    }

    /// Issues a reclaim certificate for a file this card owns.
    pub fn begin_reclaim(&mut self, file_id: FileId, op: OpId) -> ReclaimCertificate {
        let rcert = self.card.issue_reclaim_certificate(&file_id);
        if self.retry_enabled() {
            self.pending_reclaims.insert(
                file_id,
                PendingReclaim {
                    rcert,
                    sends: 1,
                    internal: false,
                    op,
                },
            );
        }
        rcert
    }

    /// Registers an expected audit answer before challenging a node.
    pub fn begin_audit(&mut self, file_id: FileId, content_hash: Digest256, nonce: u64) {
        self.pending_audits.insert(file_id, (content_hash, nonce));
    }

    /// Number of outstanding client inserts (for harness draining).
    pub fn pending_insert_count(&self) -> usize {
        self.pending_inserts.len()
    }

    /// Bytes debited for in-flight insertions not yet covered by store
    /// receipts (snapshot/invariant support: quota conservation counts
    /// these as "in flight" rather than stored).
    pub fn pending_insert_bytes(&self) -> u64 {
        self.pending_inserts
            .values()
            .map(|p| (p.k.saturating_sub(p.receipts)) as u64 * p.content.size)
            .sum()
    }

    // --- Internal helpers ----------------------------------------------

    /// The k nodes (self + leaf members) numerically closest to `rid`.
    fn kset(state: &PastryState, rid: Id, k: u8) -> Vec<NodeHandle> {
        let mut v = state.leaf.sorted_by_dist(&rid);
        v.push(state.me);
        v.sort_by_key(|h| (h.id.ring_dist(&rid), h.id.0));
        v.truncate(k.max(1) as usize);
        v
    }

    /// Serves `fid` to `client` if held; optionally pushes cache copies to
    /// route-path nodes. Returns true if served.
    fn reply_file(
        &mut self,
        fid: &FileId,
        client: Addr,
        path: &[Addr],
        op: OpId,
        cx: &mut Cx,
    ) -> bool {
        let me = cx.me();
        let Some((cert, from_cache)) = self.store.serve(fid) else {
            return false;
        };
        cx.send_direct(
            client,
            PastMsg::FileReply {
                cert,
                from_cache,
                op,
            },
        );
        if self.cfg.cache_enabled && self.cfg.cache_push > 0 {
            // "Caches copies of popular files close to interested
            // clients": the earliest path entries are nearest the client.
            for &p in path
                .iter()
                .filter(|&&p| p != client && p != me)
                .take(self.cfg.cache_push)
            {
                cx.send_direct(p, PastMsg::CachePush { cert });
            }
        }
        true
    }

    /// Validates an (insert-time) certificate + content pair.
    fn insert_valid(&self, cert: &FileCertificate, content: &ContentRef) -> bool {
        cert.replication >= 1
            && content.hash == cert.content_hash
            && content.size == cert.size
            && (!self.cfg.crypto_checks || cert.verify(&self.broker_key))
    }

    /// Attempts to store a primary replica, diverting on refusal.
    fn try_store_primary(
        &mut self,
        cert: FileCertificate,
        content: ContentRef,
        client: Option<Addr>,
        op: OpId,
        state: &PastryState,
        cx: &mut Cx,
    ) {
        if !self.insert_valid(&cert, &content) {
            if let Some(c) = client {
                cx.send_direct(
                    c,
                    PastMsg::InsertNack {
                        file_id: cert.file_id,
                        reason: NackReason::BadCertificate,
                        op,
                    },
                );
            }
            return;
        }
        if self.drops_stored_files {
            // Cheat: acknowledge without storing (random audits expose
            // this).
            if let Some(c) = client {
                let receipt = self
                    .card
                    .issue_store_receipt(&cert.file_id, cert.size, false);
                cx.send_direct(c, PastMsg::StoreAck { receipt, op });
            }
            return;
        }
        if client.is_none() {
            // Maintenance copy: accept it only if this node is in the
            // file's k-set by its own routing state; otherwise fan-out
            // from peers with stale leaf sets would over-replicate the
            // file past k (invariant I5).
            let rid = cert.file_id.routing_id();
            let me = cx.me();
            let in_kset = Self::kset(state, rid, cert.replication)
                .iter()
                .any(|h| h.addr == me);
            if !in_kset {
                return;
            }
        }
        if let Some(f) = self.store.get(&cert.file_id) {
            // Idempotent: re-acknowledge. An identical certificate is the
            // same issuance — a retransmission of the very insert that
            // stored this copy — so the ack reports the bytes as stored
            // (the client deduplicates by storer key either way). A
            // different certificate is a distinct insert of an existing
            // file: that copy consumed nothing new, reported as 0.
            let same_issuance = self.retry_enabled() && f.cert == cert;
            if let Some(c) = client {
                let stored = if same_issuance { cert.size } else { 0 };
                let receipt = self.card.issue_store_receipt(&cert.file_id, stored, false);
                cx.send_direct(c, PastMsg::StoreAck { receipt, op });
            }
            return;
        }
        if let Some(c) = client {
            if self.retry_enabled() {
                // A retransmitted insert must not restart diversion: it
                // would place a second diverted copy elsewhere. Re-probe
                // the in-flight candidate, or the recorded holder.
                if let Some(st) = self.pending_diverts.get(&cert.file_id) {
                    if st.cert == cert {
                        let (current, content) = (st.current, st.content);
                        let me = cx.me();
                        cx.send_direct(
                            current,
                            PastMsg::DivertStore {
                                cert,
                                content,
                                primary: me,
                                client: c,
                                op,
                            },
                        );
                        return;
                    }
                }
                if let Some(holder) = self.store.pointer(&cert.file_id) {
                    let me = cx.me();
                    cx.send_direct(
                        holder,
                        PastMsg::DivertStore {
                            cert,
                            content,
                            primary: me,
                            client: c,
                            op,
                        },
                    );
                    return;
                }
            }
        }
        match self.store.insert(&cert, ReplicaKind::Primary) {
            Ok(()) => {
                let (now, me) = (cx.now_us(), cx.me());
                cx.tracer()
                    .replica_stored(now, op, me, cert.file_id.routing_id().0, false);
                if let Some(c) = client {
                    let receipt = self
                        .card
                        .issue_store_receipt(&cert.file_id, cert.size, false);
                    cx.send_direct(c, PastMsg::StoreAck { receipt, op });
                }
            }
            Err(_) => {
                if let Some(c) = client {
                    self.start_diversion(cert, content, c, op, state, cx);
                }
                // Maintenance copies are best-effort: no diversion.
            }
        }
    }

    /// Begins replica diversion: probe leaf-set nodes outside the k-set.
    fn start_diversion(
        &mut self,
        cert: FileCertificate,
        content: ContentRef,
        client: Addr,
        op: OpId,
        state: &PastryState,
        cx: &mut Cx,
    ) {
        let rid = cert.file_id.routing_id();
        let kset_addrs: HashSet<Addr> = Self::kset(state, rid, cert.replication)
            .iter()
            .map(|h| h.addr)
            .collect();
        let mut candidates: Vec<Addr> = state
            .leaf
            .members()
            .map(|h| h.addr)
            .filter(|a| !kset_addrs.contains(a) && *a != cx.me())
            .collect();
        // Fisher-Yates shuffle so repeated diversions spread load.
        for i in (1..candidates.len()).rev() {
            let j = cx.rng().random_range(0..=i);
            candidates.swap(i, j);
        }
        candidates.truncate(self.cfg.divert_candidates);
        if candidates.is_empty() {
            cx.send_direct(
                client,
                PastMsg::InsertNack {
                    file_id: cert.file_id,
                    reason: NackReason::StoreRefused,
                    op,
                },
            );
            return;
        }
        let first = candidates.remove(0);
        self.pending_diverts.insert(
            cert.file_id,
            DivertState {
                cert,
                content,
                client,
                op,
                current: first,
                candidates,
            },
        );
        cx.send_direct(
            first,
            PastMsg::DivertStore {
                cert,
                content,
                primary: cx.me(),
                client,
                op,
            },
        );
    }

    /// Probes the next diversion candidate, or gives up with a nack.
    fn try_next_divert(&mut self, fid: FileId, cx: &mut Cx) {
        let Some(st) = self.pending_diverts.get_mut(&fid) else {
            return;
        };
        if st.candidates.is_empty() {
            let (client, op) = (st.client, st.op);
            self.pending_diverts.remove(&fid);
            cx.send_direct(
                client,
                PastMsg::InsertNack {
                    file_id: fid,
                    reason: NackReason::StoreRefused,
                    op,
                },
            );
            return;
        }
        let next = st.candidates.remove(0);
        st.current = next;
        let (cert, content, client, op) = (st.cert, st.content, st.client, st.op);
        let me = cx.me();
        cx.send_direct(
            next,
            PastMsg::DivertStore {
                cert,
                content,
                primary: me,
                client,
                op,
            },
        );
    }

    /// Records an insert response at the client and decides the attempt.
    ///
    /// A receipt is `(storer card key, bytes stored)`; `None` is a nack.
    fn note_insert_response(
        &mut self,
        fid: FileId,
        receipt: Option<([u8; 32], u64)>,
        fatal: bool,
        cx: &mut Cx,
    ) {
        let Some(p) = self.pending_inserts.get_mut(&fid) else {
            return;
        };
        let mut credit = 0u64;
        match receipt {
            Some((key, stored)) => {
                if p.receipt_keys.insert(key) {
                    p.receipts += 1;
                    if stored == 0 {
                        // The holder already had the file (duplicate
                        // insert): this copy consumed no new storage, so
                        // its share of the certificate's debit is
                        // returned (quota conservation, invariant I5).
                        credit = p.content.size;
                    }
                }
            }
            None => {
                p.nacks += 1;
                p.fatal |= fatal;
            }
        }
        let complete = p.receipts >= p.k;
        let failed = p.fatal || p.receipts as u32 + p.nacks >= p.k as u32;
        if credit > 0 {
            self.card.credit(credit);
        }
        if complete {
            let Some(p) = self.pending_inserts.remove(&fid) else {
                return;
            };
            let (now, me) = (cx.now_us(), cx.me());
            cx.tracer()
                .op_end(now, p.op, me, "insert", true, u32::from(p.receipts));
            cx.emit(PastOut::InsertOk {
                request_id: p.request_id,
                file_id: fid,
                attempts: p.attempts,
                receipts: p.receipts,
            });
        } else if failed {
            self.conclude_failed_attempt(fid, cx);
        }
    }

    /// An attempt failed: credit unstored quota, reclaim partial copies,
    /// and retry with a fresh salt (file diversion) or give up.
    fn conclude_failed_attempt(&mut self, fid: FileId, cx: &mut Cx) {
        let Some(p) = self.pending_inserts.remove(&fid) else {
            return;
        };
        let retrying = self.retry_enabled();
        // Unstored copies never consumed storage: credit their debit.
        let unstored = (p.k - p.receipts) as u64 * p.content.size;
        self.card.credit(unstored);
        // Stored partial copies are reclaimed; their receipts credit
        // later. Under loss a holder may have stored a copy whose receipt
        // vanished: reclaim unconditionally, and record which storers'
        // receipts were counted — only those reclaim credits may apply,
        // the rest were just returned in the "unstored" credit above.
        if p.receipts > 0 || retrying {
            if retrying {
                self.settled
                    .insert(fid, p.receipt_keys.iter().copied().collect());
            }
            let rcert = self.card.issue_reclaim_certificate(&fid);
            let me = cx.me();
            // Cleanup reclaims are not client operations: no attribution.
            cx.route(
                fid.routing_id(),
                PastMsg::Reclaim {
                    rcert,
                    client: me,
                    op: OpId::NONE,
                },
            );
            if retrying {
                self.pending_reclaims.insert(
                    fid,
                    PendingReclaim {
                        rcert,
                        sends: 1,
                        internal: true,
                        op: OpId::NONE,
                    },
                );
                let delay = self.backoff_us(1);
                self.arm_retry(RetryOp::Reclaim(fid), delay, cx);
            }
        }
        if p.attempts < self.cfg.max_insert_attempts {
            let salt = p.salt + 1;
            match self
                .card
                .issue_file_certificate(&p.name, &p.content, p.k, salt, cx.now_us())
            {
                Ok(cert) => {
                    let new_fid = cert.file_id;
                    self.pending_inserts.insert(
                        new_fid,
                        PendingInsert {
                            request_id: p.request_id,
                            name: p.name,
                            content: p.content,
                            cert,
                            k: p.k,
                            attempts: p.attempts + 1,
                            salt,
                            receipts: 0,
                            receipt_keys: BTreeSet::new(),
                            nacks: 0,
                            fatal: false,
                            sends: 1,
                            op: p.op,
                        },
                    );
                    let (now, me) = (cx.now_us(), cx.me());
                    cx.tracer()
                        .op_retry(now, p.op, me, "insert", p.attempts + 1);
                    cx.route(
                        new_fid.routing_id(),
                        PastMsg::Insert {
                            cert,
                            content: p.content,
                            client: me,
                            op: p.op,
                        },
                    );
                    if retrying {
                        let delay = self.backoff_us(1);
                        self.arm_retry(RetryOp::Insert(new_fid), delay, cx);
                    }
                }
                Err(_) => {
                    let (now, me) = (cx.now_us(), cx.me());
                    cx.tracer()
                        .op_end(now, p.op, me, "insert", false, u32::from(p.receipts));
                    cx.emit(PastOut::InsertFailed {
                        request_id: p.request_id,
                        size: p.content.size,
                        attempts: p.attempts,
                    });
                }
            }
        } else {
            let (now, me) = (cx.now_us(), cx.me());
            cx.tracer()
                .op_end(now, p.op, me, "insert", false, u32::from(p.receipts));
            cx.emit(PastOut::InsertFailed {
                request_id: p.request_id,
                size: p.content.size,
                attempts: p.attempts,
            });
        }
    }

    /// A retransmission timer fired for an insert attempt: retransmit
    /// the same certificate (holders are idempotent) or conclude.
    fn retry_insert(&mut self, fid: FileId, cx: &mut Cx) {
        let attempts = self.cfg.request_attempts;
        let Some(p) = self.pending_inserts.get_mut(&fid) else {
            return; // already completed
        };
        if p.sends >= attempts {
            self.conclude_failed_attempt(fid, cx);
            return;
        }
        p.sends += 1;
        // Responses count per transmission round: stale nacks from an
        // earlier round must not conclude the fresh one early.
        p.nacks = 0;
        p.fatal = false;
        let sends = p.sends;
        let (cert, content, op) = (p.cert, p.content, p.op);
        let (now, me) = (cx.now_us(), cx.me());
        cx.tracer().op_retry(now, op, me, "insert", sends);
        cx.route(
            fid.routing_id(),
            PastMsg::Insert {
                cert,
                content,
                client: me,
                op,
            },
        );
        let delay = self.backoff_us(sends);
        self.arm_retry(RetryOp::Insert(fid), delay, cx);
    }

    /// A retransmission timer fired for a lookup: retransmit or fail.
    fn retry_lookup(&mut self, fid: FileId, cx: &mut Cx) {
        let Some(p) = self.pending_lookups.get_mut(&fid) else {
            return;
        };
        if p.sends >= self.cfg.request_attempts {
            let op = p.op;
            self.pending_lookups.remove(&fid);
            let (now, me) = (cx.now_us(), cx.me());
            cx.tracer().op_end(now, op, me, "lookup", false, 0);
            cx.emit(PastOut::LookupFailed { file_id: fid });
            return;
        }
        p.sends += 1;
        let (sends, op) = (p.sends, p.op);
        let (now, me) = (cx.now_us(), cx.me());
        cx.tracer().op_retry(now, op, me, "lookup", sends);
        cx.route(
            fid.routing_id(),
            PastMsg::Lookup {
                file_id: fid,
                client: me,
                path: Vec::new(),
                redirected: false,
                op,
            },
        );
        let delay = self.backoff_us(sends);
        self.arm_retry(RetryOp::Lookup(fid), delay, cx);
    }

    /// A retransmission timer fired for a reclaim: retransmit or fail.
    fn retry_reclaim(&mut self, fid: FileId, cx: &mut Cx) {
        let Some(p) = self.pending_reclaims.get_mut(&fid) else {
            return;
        };
        if p.sends >= self.cfg.request_attempts {
            let (internal, op) = (p.internal, p.op);
            self.pending_reclaims.remove(&fid);
            if !internal {
                let (now, me) = (cx.now_us(), cx.me());
                cx.tracer().op_end(now, op, me, "reclaim", false, 0);
                cx.emit(PastOut::ReclaimFailed { file_id: fid });
            }
            return;
        }
        p.sends += 1;
        let (sends, rcert, op) = (p.sends, p.rcert, p.op);
        let (now, me) = (cx.now_us(), cx.me());
        cx.tracer().op_retry(now, op, me, "reclaim", sends);
        cx.route(
            fid.routing_id(),
            PastMsg::Reclaim {
                rcert,
                client: me,
                op,
            },
        );
        let delay = self.backoff_us(sends);
        self.arm_retry(RetryOp::Reclaim(fid), delay, cx);
    }

    /// Handles a reclaim at a holder; roots also propagate to the k-set.
    fn handle_reclaim(
        &mut self,
        rcert: ReclaimCertificate,
        client: Addr,
        op: OpId,
        propagate: bool,
        state: &PastryState,
        cx: &mut Cx,
    ) {
        let fid = rcert.file_id;
        if self.cfg.crypto_checks && !rcert.verify(&self.broker_key) {
            cx.send_direct(client, PastMsg::ReclaimDenied { file_id: fid, op });
            return;
        }
        let mut replication = self.cfg.default_k;
        // Peek at the diversion pointer before `remove`, which drops it.
        let diverted_to = self.store.pointer(&fid);
        if let Some(f) = self.store.get(&fid) {
            // "The smartcard of a storage node first verifies that the
            // signature in the reclaim certificate matches that in the
            // file certificate stored with the file."
            if f.cert.owner.card_key != rcert.owner.card_key {
                cx.send_direct(client, PastMsg::ReclaimDenied { file_id: fid, op });
                return;
            }
            replication = f.cert.replication;
            let freed = self.store.remove(&fid);
            let receipt = self.card.issue_reclaim_receipt(&fid, freed);
            if self.retry_enabled() {
                // Keep the receipt: if this ack is lost, the owner's
                // retransmitted reclaim finds the file already gone and
                // must still be answered, or its quota stays debited for
                // storage nobody holds.
                self.issued_reclaim_receipts
                    .insert(fid, (rcert.owner.card_key.to_bytes(), receipt));
            }
            cx.send_direct(client, PastMsg::ReclaimAck { receipt, op });
        } else if self.retry_enabled() {
            if let Some((owner, receipt)) = self.issued_reclaim_receipts.get(&fid) {
                if *owner == rcert.owner.card_key.to_bytes() {
                    // Retransmission of a reclaim already honored: re-ack
                    // with the cached receipt (the client deduplicates).
                    cx.send_direct(
                        client,
                        PastMsg::ReclaimAck {
                            receipt: *receipt,
                            op,
                        },
                    );
                }
            }
        }
        // Any cached copy must go even when no replica is held here:
        // serving a reclaimed file from the cache would resurrect it.
        self.store.cache.invalidate(&fid);
        self.store.remove_pointer(&fid);
        if let Some(holder) = diverted_to {
            cx.send_direct(holder, PastMsg::ReclaimFree { rcert, client, op });
        }
        if propagate {
            let me = cx.me();
            for h in Self::kset(state, fid.routing_id(), replication) {
                if h.addr != me {
                    cx.send_direct(h.addr, PastMsg::ReclaimFree { rcert, client, op });
                }
            }
        }
    }
}

impl App for PastApp {
    type Payload = PastMsg;
    type Out = PastOut;

    fn deliver(
        &mut self,
        state: &PastryState,
        _key: Id,
        payload: PastMsg,
        _info: RouteInfo,
        cx: &mut Cx,
    ) {
        match payload {
            PastMsg::Insert {
                cert,
                content,
                client,
                op,
            } => {
                if !self.insert_valid(&cert, &content) {
                    cx.send_direct(
                        client,
                        PastMsg::InsertNack {
                            file_id: cert.file_id,
                            reason: NackReason::BadCertificate,
                            op,
                        },
                    );
                    return;
                }
                let rid = cert.file_id.routing_id();
                let kset = Self::kset(state, rid, cert.replication);
                let me = cx.me();
                let mut covered = 0u8;
                let mut store_here = false;
                for h in &kset {
                    if h.addr == me {
                        store_here = true;
                    } else if !self.suppresses_replicas {
                        cx.send_direct(
                            h.addr,
                            PastMsg::Replicate {
                                cert,
                                content,
                                client: Some(client),
                                op,
                            },
                        );
                    }
                    covered += 1;
                }
                // Network smaller than k: the client must learn of the
                // shortfall to decide the attempt.
                for _ in covered..cert.replication {
                    cx.send_direct(
                        client,
                        PastMsg::InsertNack {
                            file_id: cert.file_id,
                            reason: NackReason::InsufficientNodes,
                            op,
                        },
                    );
                }
                if store_here {
                    self.try_store_primary(cert, content, Some(client), op, state, cx);
                }
            }
            PastMsg::Lookup {
                file_id,
                client,
                path,
                redirected: _,
                op,
            } => {
                if self.reply_file(&file_id, client, &path, op, cx) {
                    return;
                }
                if let Some(holder) = self.store.pointer(&file_id) {
                    cx.send_direct(
                        holder,
                        PastMsg::LookupHop {
                            file_id,
                            client,
                            path,
                            terminal: true,
                            op,
                        },
                    );
                    return;
                }
                // The root may lack the file (e.g. it joined recently):
                // ask the next-closest k-set member.
                let kset = Self::kset(state, file_id.routing_id(), self.cfg.default_k);
                let me = cx.me();
                if let Some(other) = kset.iter().find(|h| h.addr != me) {
                    cx.send_direct(
                        other.addr,
                        PastMsg::LookupHop {
                            file_id,
                            client,
                            path,
                            terminal: true,
                            op,
                        },
                    );
                } else {
                    cx.send_direct(client, PastMsg::LookupMiss { file_id, op });
                }
            }
            PastMsg::Reclaim { rcert, client, op } => {
                self.handle_reclaim(rcert, client, op, true, state, cx);
            }
            // Direct-only messages routed here would be a logic error;
            // ignore them defensively.
            _ => {}
        }
    }

    fn forward(
        &mut self,
        _state: &PastryState,
        env: &mut RouteEnvelope<PastMsg>,
        _next: NodeHandle,
        cx: &mut Cx,
    ) -> bool {
        match &mut env.payload {
            PastMsg::Insert { cert, content, .. } => {
                if self.corrupts_content {
                    // A faulty/malicious intermediate flips content bits;
                    // the storing node detects the mismatch against the
                    // certificate (§2.1).
                    let mut h = content.hash;
                    h.0[0] ^= 0xff;
                    content.hash = h;
                }
                if self.cfg.cache_enabled && self.cfg.cache_on_insert_path {
                    self.store.offer_cache(cert);
                }
                true
            }
            PastMsg::Lookup {
                file_id,
                client,
                path,
                redirected,
                op,
            } => {
                let (fid, client, op) = (*file_id, *client, *op);
                if self.store.can_serve(&fid) {
                    let path = path.clone();
                    self.reply_file(&fid, client, &path, op, cx);
                    return false;
                }
                // "Messages have a tendency to first reach a node, among
                // the k nodes that store the requested file, that is near
                // the client": once this node's leaf set covers the
                // fileId it knows the whole k-set, and — being itself
                // near the client thanks to route locality — it redirects
                // to its proximity-nearest replica holder rather than
                // letting the route terminate at the numeric root.
                let rid = fid.routing_id();
                if !*redirected && _state.leaf.covers(&rid) {
                    let kset = Self::kset(_state, rid, self.cfg.default_k);
                    let me = cx.me();
                    let nearest = kset
                        .iter()
                        .filter(|h| h.addr != me)
                        .min_by_key(|h| cx.delay_to(h.addr));
                    if let Some(target) = nearest {
                        let mut path = path.clone();
                        if path.len() < 8 {
                            path.push(me);
                        }
                        cx.send_direct(
                            target.addr,
                            PastMsg::LookupHop {
                                file_id: fid,
                                client,
                                path,
                                terminal: false,
                                op,
                            },
                        );
                        return false;
                    }
                }
                if path.len() < 8 {
                    path.push(cx.me());
                }
                true
            }
            _ => true,
        }
    }

    fn on_direct(&mut self, state: &PastryState, from: Addr, payload: PastMsg, cx: &mut Cx) {
        match payload {
            PastMsg::Replicate {
                cert,
                content,
                client,
                op,
            } => {
                self.try_store_primary(cert, content, client, op, state, cx);
            }
            PastMsg::DivertStore {
                cert,
                content,
                primary,
                client,
                op,
            } => {
                if self.retry_enabled() {
                    if let Some(f) = self.store.get(&cert.file_id) {
                        if f.cert == cert {
                            // Retransmission of a diversion already
                            // admitted here: re-acknowledge instead of
                            // refusing, or the lost-ack client would
                            // never collect its receipt.
                            let receipt =
                                self.card
                                    .issue_store_receipt(&cert.file_id, cert.size, true);
                            cx.send_direct(client, PastMsg::StoreAck { receipt, op });
                            cx.send_direct(
                                primary,
                                PastMsg::DivertAck {
                                    file_id: cert.file_id,
                                    op,
                                },
                            );
                            return;
                        }
                    }
                }
                let valid = self.insert_valid(&cert, &content);
                let admitted = valid
                    && self.store.get(&cert.file_id).is_none()
                    && !self.drops_stored_files
                    && self.store.insert(&cert, ReplicaKind::Diverted).is_ok();
                if admitted {
                    let (now, me) = (cx.now_us(), cx.me());
                    cx.tracer()
                        .replica_stored(now, op, me, cert.file_id.routing_id().0, true);
                    let receipt = self
                        .card
                        .issue_store_receipt(&cert.file_id, cert.size, true);
                    cx.send_direct(client, PastMsg::StoreAck { receipt, op });
                    cx.send_direct(
                        primary,
                        PastMsg::DivertAck {
                            file_id: cert.file_id,
                            op,
                        },
                    );
                } else {
                    cx.send_direct(
                        primary,
                        PastMsg::DivertNack {
                            file_id: cert.file_id,
                            op,
                        },
                    );
                }
            }
            PastMsg::DivertAck { file_id, .. } => {
                if self.pending_diverts.remove(&file_id).is_some() {
                    self.store.add_pointer(file_id, from);
                }
            }
            PastMsg::DivertNack { file_id, .. } => {
                self.try_next_divert(file_id, cx);
            }
            PastMsg::StoreAck { receipt, .. } => {
                if !self.cfg.crypto_checks || receipt.verify(&self.broker_key) {
                    self.note_insert_response(
                        receipt.file_id,
                        Some((receipt.storer.card_key.to_bytes(), receipt.stored)),
                        false,
                        cx,
                    );
                }
            }
            PastMsg::InsertNack {
                file_id, reason, ..
            } => {
                self.note_insert_response(file_id, None, reason.is_fatal(), cx);
            }
            PastMsg::LookupHop {
                file_id,
                client,
                path,
                terminal,
                op,
            } => {
                if !self.reply_file(&file_id, client, &path, op, cx) {
                    if terminal {
                        cx.send_direct(client, PastMsg::LookupMiss { file_id, op });
                    } else {
                        // Not a holder after all (e.g. a just-joined k-set
                        // member): continue the lookup toward the root.
                        cx.route(
                            file_id.routing_id(),
                            PastMsg::Lookup {
                                file_id,
                                client,
                                path,
                                redirected: true,
                                op,
                            },
                        );
                    }
                }
            }
            PastMsg::FileReply {
                cert, from_cache, ..
            } => {
                if let Some(pending) = self.pending_lookups.remove(&cert.file_id) {
                    let started_us = pending.started_us;
                    // "The file certificate is returned along with the
                    // file, and allows the client to verify that the
                    // contents are authentic."
                    let verified = !self.cfg.crypto_checks || cert.verify(&self.broker_key);
                    let (now, me) = (cx.now_us(), cx.me());
                    cx.tracer()
                        .op_end(now, pending.op, me, "lookup", verified, 0);
                    if verified {
                        cx.emit(PastOut::LookupOk {
                            file_id: cert.file_id,
                            server: from,
                            from_cache,
                            started_us,
                        });
                    } else {
                        cx.emit(PastOut::LookupFailed {
                            file_id: cert.file_id,
                        });
                    }
                }
            }
            PastMsg::LookupMiss { file_id, .. } => {
                if let Some(pending) = self.pending_lookups.remove(&file_id) {
                    let (now, me) = (cx.now_us(), cx.me());
                    cx.tracer().op_end(now, pending.op, me, "lookup", false, 0);
                    cx.emit(PastOut::LookupFailed { file_id });
                }
            }
            PastMsg::ReclaimFree { rcert, client, op } => {
                self.handle_reclaim(rcert, client, op, false, state, cx);
            }
            PastMsg::ReclaimAck { receipt, .. } => {
                let fid = receipt.file_id;
                let freed = receipt.freed;
                if self.retry_enabled() {
                    // The first ack settles the pending reclaim (other
                    // holders' acks still credit below).
                    if let Some(pending) = self.pending_reclaims.remove(&fid) {
                        if !pending.internal {
                            let (now, me) = (cx.now_us(), cx.me());
                            cx.tracer().op_end(now, pending.op, me, "reclaim", true, 0);
                        }
                    }
                    let storer = receipt.storer.card_key.to_bytes();
                    if !self.reclaim_seen.insert((fid, storer)) {
                        return; // duplicated delivery
                    }
                    if let Some(counted) = self.settled.get(&fid) {
                        if !counted.contains(&storer) {
                            // A copy from a failed insert attempt whose
                            // store receipt the network lost: its share
                            // of the debit was already returned as
                            // "unstored" when the attempt concluded, so
                            // this reclaim must not credit it again.
                            return;
                        }
                    }
                }
                let credited = if self.cfg.crypto_checks {
                    self.card.credit_reclaim(&receipt, &self.broker_key).is_ok()
                } else {
                    self.card.credit(freed);
                    true
                };
                if credited {
                    cx.emit(PastOut::ReclaimCredited {
                        file_id: fid,
                        freed,
                    });
                }
            }
            PastMsg::ReclaimDenied { file_id, .. } => {
                if self.retry_enabled() {
                    if let Some(pending) = self.pending_reclaims.remove(&file_id) {
                        if !pending.internal {
                            let (now, me) = (cx.now_us(), cx.me());
                            cx.tracer().op_end(now, pending.op, me, "reclaim", false, 0);
                        }
                    }
                }
                cx.emit(PastOut::ReclaimDenied { file_id });
            }
            PastMsg::CachePush { cert } => {
                // Two signature checks are only worth paying for a file
                // the cache could take at all.
                if self.cfg.cache_enabled
                    && self.store.cache_admissible(&cert)
                    && (!self.cfg.crypto_checks || cert.verify(&self.broker_key))
                {
                    self.store.offer_cache(&cert);
                }
            }
            PastMsg::AuditChallenge { file_id, nonce } => {
                let proof = if self.drops_stored_files {
                    None
                } else {
                    self.store
                        .serve(&file_id)
                        .map(|(cert, _)| audit_proof(nonce, &cert.content_hash))
                };
                cx.send_direct(from, PastMsg::AuditProof { file_id, proof });
            }
            PastMsg::AuditProof { file_id, proof } => {
                if let Some((expected_hash, nonce)) = self.pending_audits.remove(&file_id) {
                    let expected = audit_proof(nonce, &expected_hash);
                    if proof == Some(expected) {
                        cx.emit(PastOut::AuditPassed {
                            file_id,
                            prover: from,
                        });
                    } else {
                        cx.emit(PastOut::AuditFailed {
                            file_id,
                            prover: from,
                        });
                    }
                }
            }
            // Routed-only messages arriving directly are ignored.
            _ => {}
        }
    }

    fn on_direct_failed(&mut self, state: &PastryState, to: Addr, payload: PastMsg, cx: &mut Cx) {
        match payload {
            PastMsg::Replicate {
                cert,
                content,
                client: Some(client),
                op,
            } => {
                // A replica target died mid-insert. The overlay purged it
                // before this callback ran, so the recomputed k-set names
                // its replacement: re-fan the copy there (receivers are
                // idempotent, the client deduplicates receipts by storer).
                // Only when no live peer remains does the client learn of
                // the shortfall.
                let me = cx.me();
                let replacements: Vec<Addr> =
                    Self::kset(state, cert.file_id.routing_id(), cert.replication)
                        .iter()
                        .map(|h| h.addr)
                        .filter(|&a| a != me && a != to)
                        .collect();
                if replacements.is_empty() {
                    cx.send_direct(
                        client,
                        PastMsg::InsertNack {
                            file_id: cert.file_id,
                            reason: NackReason::TargetDead,
                            op,
                        },
                    );
                } else {
                    for a in replacements {
                        cx.send_direct(
                            a,
                            PastMsg::Replicate {
                                cert,
                                content,
                                client: Some(client),
                                op,
                            },
                        );
                    }
                }
            }
            PastMsg::DivertStore { cert, .. } => {
                self.try_next_divert(cert.file_id, cx);
            }
            PastMsg::LookupHop {
                file_id,
                client,
                path,
                op,
                ..
            } => {
                // The probed holder died; re-route the lookup with the
                // purged state instead of reporting a spurious miss.
                cx.route(
                    file_id.routing_id(),
                    PastMsg::Lookup {
                        file_id,
                        client,
                        path,
                        redirected: true,
                        op,
                    },
                );
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _state: &PastryState, kind: u64, cx: &mut Cx) {
        let Some(op) = self.retry_timers.remove(&kind) else {
            return;
        };
        match op {
            RetryOp::Insert(fid) => self.retry_insert(fid, cx),
            RetryOp::Lookup(fid) => self.retry_lookup(fid, cx),
            RetryOp::Reclaim(fid) => self.retry_reclaim(fid, cx),
        }
    }

    fn on_leafset_changed(
        &mut self,
        state: &PastryState,
        added: &[NodeHandle],
        removed: &[NodeHandle],
        cx: &mut Cx,
    ) {
        if added.is_empty() && removed.is_empty() {
            return;
        }
        // Replica maintenance: for every primary file whose root we are,
        // make sure the current k-set holds copies ("the system
        // automatically restores k copies of a file as part of a failure
        // recovery procedure").
        let me = state.me.addr;
        let my_files: Vec<FileCertificate> = self
            .store
            .files()
            .filter(|(_, f)| f.kind == ReplicaKind::Primary)
            .map(|(_, f)| f.cert)
            .collect();
        let added_addrs: HashSet<Addr> = added.iter().map(|h| h.addr).collect();
        for cert in my_files {
            let rid = cert.file_id.routing_id();
            let kset = Self::kset(state, rid, cert.replication);
            if !kset.iter().any(|h| h.addr == me) {
                // Newcomers pushed this node out of the file's k-set: the
                // replica is no longer ours to hold as primary. Demote it
                // to a cached copy so the file stays at exactly k primary
                // replicas (invariant I5); the new k-set members receive
                // copies from the members that remain.
                self.store.remove(&cert.file_id);
                if self.cfg.cache_enabled {
                    self.store.offer_cache(&cert);
                }
                continue;
            }
            // Every surviving k-set member refreshes the newcomers (not
            // just the root: the root may itself be a newcomer without
            // the file). The receiver-side k-set check keeps this
            // idempotent fan-out from over-replicating.
            let content = ContentRef {
                hash: cert.content_hash,
                size: cert.size,
            };
            for h in &kset {
                if h.addr == me {
                    continue;
                }
                // After a removal the whole k-set is refreshed (cheap and
                // idempotent); after additions only the newcomers are.
                if removed.is_empty() && !added_addrs.contains(&h.addr) {
                    continue;
                }
                cx.send_direct(
                    h.addr,
                    PastMsg::Replicate {
                        cert,
                        content,
                        client: None,
                        op: OpId::NONE,
                    },
                );
            }
        }
    }
}
