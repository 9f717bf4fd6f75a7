//! The PAST node application: storage protocol logic on top of Pastry.
//!
//! Implements the paper's three operations — insert (k replicas on the k
//! nodes with nodeIds numerically closest to the fileId), lookup (answered
//! by the first node along the route holding a copy, including cached
//! copies), reclaim (owner-verified storage release) — plus replica
//! diversion for full nodes, file diversion (client re-salting), replica
//! maintenance under churn, cache management, storage audits, and the
//! fault-injection behaviors the security experiments need.
//!
//! This file holds the node's parameters, its state and the Pastry
//! callbacks, which only dispatch: what a node does for its own requests
//! is in [`crate::client`], what it does for other nodes' files in
//! `crate::holder`.

use crate::broker::Broker;
use crate::cert::ReclaimReceipt;
use crate::client::{Request, RequestKey};
use crate::fileid::FileId;
use crate::holder::DivertState;
use crate::msg::PastMsg;
use crate::smartcard::Smartcard;
use crate::storage::Store;
use past_crypto::{AnchorKey, Digest256};
use past_pastry::{App, AppCtx, Id, NodeHandle, PastryState, RouteEnvelope, RouteInfo};
use past_wire::{btree_heap_bytes, Addr};
use std::collections::{BTreeMap, BTreeSet};

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
    /// Master switch for caching: off, a node keeps no cached copy, be it
    /// of an insert routed through it, a lookup's push or a demoted replica.
    pub cache_enabled: bool,
    /// Route-path nodes a serving node pushes a cache copy to.
    pub cache_push: usize,
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

/// The PAST application state of one node.
pub struct PastApp {
    /// PAST parameters.
    pub cfg: PastConfig,
    /// This node's smartcard (storage-node and client roles).
    pub card: Smartcard,
    /// The local store.
    pub store: Store,
    /// The broker's public key (trust anchor), sharing the broker's
    /// verification table.
    pub broker_key: AnchorKey,
    /// Fault injection: corrupt insert contents passing through.
    pub corrupts_content: bool,
    /// Fault injection: acknowledge stores without keeping the data
    /// (exposed by random audits).
    pub drops_stored_files: bool,
    /// Fault injection: a malicious root that stores its own copy but
    /// suppresses the k−1 replica fan-out (exposed by missing store
    /// receipts at the client, §2.1).
    pub suppresses_replicas: bool,
    /// This node's client requests in flight. BTreeMap, not HashMap:
    /// `pending_insert_bytes` iterates it, and decision-crate iteration
    /// must be hash-order-free (rule D3).
    pub(crate) requests: BTreeMap<RequestKey, Request>,
    /// Armed request timers, by timer token (retry layer).
    pub(crate) request_timers: BTreeMap<u64, RequestKey>,
    pub(crate) next_timer_token: u64,
    pub(crate) next_request_id: u64,
    pub(crate) pending_audits: BTreeMap<FileId, (Digest256, u64)>,
    pub(crate) pending_diverts: BTreeMap<FileId, DivertState>,
    /// Failed insert attempts: the storer keys whose receipts were
    /// counted before the attempt concluded. Reclaim receipts from any
    /// *other* storer of these files are quota-suppressed — their share
    /// of the debit was already returned as "unstored" (a copy whose
    /// store receipt the network lost).
    pub(crate) settled: BTreeMap<FileId, BTreeSet<[u8; 32]>>,
    /// Reclaim receipts this node issued, kept to re-acknowledge
    /// retransmitted reclaims for files already freed: `(owner card
    /// key, receipt)`.
    pub(crate) issued_reclaim_receipts: BTreeMap<FileId, ([u8; 32], ReclaimReceipt)>,
    /// Reclaim receipts already processed, by (file, storer): guards
    /// duplicated deliveries even with crypto checks off.
    pub(crate) reclaim_seen: BTreeSet<(FileId, [u8; 32])>,
}

pub(crate) type Cx<'a, 'b> = AppCtx<'a, 'b, PastMsg, PastOut>;

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
            requests: BTreeMap::new(),
            request_timers: BTreeMap::new(),
            next_timer_token: 0,
            next_request_id: 0,
            pending_audits: BTreeMap::new(),
            pending_diverts: BTreeMap::new(),
            settled: BTreeMap::new(),
            issued_reclaim_receipts: BTreeMap::new(),
            reclaim_seen: BTreeSet::new(),
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
        self.serve_routed(state, payload, cx);
    }

    fn forward(
        &mut self,
        state: &PastryState,
        env: &mut RouteEnvelope<PastMsg>,
        _next: NodeHandle,
        cx: &mut Cx,
    ) -> bool {
        self.serve_forward(state, &mut env.payload, cx)
    }

    fn on_direct(&mut self, state: &PastryState, from: Addr, payload: PastMsg, cx: &mut Cx) {
        match payload {
            PastMsg::StoreAck { .. }
            | PastMsg::InsertNack { .. }
            | PastMsg::FileReply { .. }
            | PastMsg::LookupMiss { .. }
            | PastMsg::ReclaimAck { .. }
            | PastMsg::ReclaimDenied { .. }
            | PastMsg::AuditProof { .. } => self.on_response(from, payload, cx),
            _ => self.serve_direct(state, from, payload, cx),
        }
    }

    fn on_direct_failed(&mut self, state: &PastryState, to: Addr, payload: PastMsg, cx: &mut Cx) {
        self.serve_failed(state, to, payload, cx);
    }

    fn on_timer(&mut self, _state: &PastryState, kind: u64, cx: &mut Cx) {
        self.on_request_timer(kind, cx);
    }

    fn on_leafset_changed(
        &mut self,
        state: &PastryState,
        added: &[NodeHandle],
        removed: &[NodeHandle],
        cx: &mut Cx,
    ) {
        self.maintain_replicas(state, added, removed, cx);
    }

    /// The store (replicas, pointers, cache) and every per-node table,
    /// B-trees estimated from their lengths.
    fn heap_bytes(&self) -> usize {
        self.store.heap_bytes()
            + btree_heap_bytes::<RequestKey, Request>(self.requests.len())
            + self
                .requests
                .values()
                .map(Request::heap_bytes)
                .sum::<usize>()
            + btree_heap_bytes::<u64, RequestKey>(self.request_timers.len())
            + btree_heap_bytes::<FileId, (Digest256, u64)>(self.pending_audits.len())
            + btree_heap_bytes::<FileId, DivertState>(self.pending_diverts.len())
            + btree_heap_bytes::<FileId, BTreeSet<[u8; 32]>>(self.settled.len())
            + self
                .settled
                .values()
                .map(|keys| btree_heap_bytes::<[u8; 32], ()>(keys.len()))
                .sum::<usize>()
            + btree_heap_bytes::<FileId, ([u8; 32], ReclaimReceipt)>(
                self.issued_reclaim_receipts.len(),
            )
            + btree_heap_bytes::<(FileId, [u8; 32]), ()>(self.reclaim_seen.len())
    }
}
