//! The client half of a PAST node: the requests it has in flight.
//!
//! The paper gives a client three operations — insert, lookup, reclaim —
//! and one recovery rule ("the client retries with a different salt").
//! Each is a [`Request`] in one table with one life, written once:
//! [`PastApp::begin`] registers it and hands back its frame,
//! `on_request_timer` retransmits that same frame with backoff or gives
//! up, `on_response` decides it, and `conclude` takes it out of the
//! table, closes its trace span and tells the harness.

use crate::cert::{FileCertificate, ReclaimCertificate, ReclaimReceipt};
use crate::fileid::{audit_proof, ContentRef, FileId};
use crate::msg::{NackReason, PastMsg};
use crate::node::{Cx, PastApp, PastOut};
use crate::smartcard::CardError;
use past_crypto::Digest256;
use past_wire::{btree_heap_bytes, Addr, OpId};
use std::collections::BTreeSet;

/// The three client operations (§2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Kind {
    Insert,
    Lookup,
    Reclaim,
}

impl Kind {
    /// The operation's name in trace records.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kind::Insert => "insert",
            Kind::Lookup => "lookup",
            Kind::Reclaim => "reclaim",
        }
    }
}

/// What identifies a pending request: every response names the file and
/// echoes the operation id, so two requests for one file (a client
/// looking the same file up twice at once) conclude separately.
pub(crate) type RequestKey = (Kind, FileId, OpId);

/// A client request in flight.
pub struct Request {
    /// The file it names (an insert's current attempt).
    pub(crate) file_id: FileId,
    /// Trace attribution; stable across retransmissions and
    /// file-diversion re-salts.
    pub(crate) op: OpId,
    /// Transmissions of the current frame so far (retry layer).
    sends: u32,
    state: State,
}

/// The per-operation part of a [`Request`].
enum State {
    Insert(Box<InsertState>),
    Lookup {
        started_us: u64,
    },
    /// Boxed like the insert: most requests are lookups, and a node's
    /// table slot should cost what a lookup needs.
    Reclaim(Box<ReclaimCertificate>),
}

/// An insert attempt: one certificate (one salt) awaiting `k` receipts.
struct InsertState {
    request_id: u64,
    name: String,
    cert: FileCertificate,
    /// Attempts including this one (1 = no file diversion yet).
    attempts: u32,
    /// Storers whose receipts were counted.
    receipt_keys: BTreeSet<[u8; 32]>,
    nacks: u32,
    fatal: bool,
}

impl InsertState {
    /// Debited bytes no store receipt covers (yet).
    fn unreceipted_bytes(&self) -> u64 {
        let missing = usize::from(self.cert.replication).saturating_sub(self.receipt_keys.len());
        missing as u64 * self.cert.size
    }
}

/// How a request ended.
enum Outcome {
    /// Insert: `k` receipts. Reclaim: the first acknowledgement (each
    /// holder's credit is its own event).
    Done,
    /// Lookup: a verified copy arrived.
    Served { server: Addr, from_cache: bool },
    /// No usable answer: attempts or retransmissions exhausted, a miss,
    /// a certificate that does not verify.
    Failed,
    /// Reclaim: a holder refused, and the refusal is the event reported.
    Denied,
}

impl Request {
    fn new(file_id: FileId, op: OpId, state: State) -> Request {
        Request {
            file_id,
            op,
            sends: 1,
            state,
        }
    }

    /// A lookup of `file_id` starting now.
    pub fn lookup(file_id: FileId, now_us: u64, op: OpId) -> Request {
        Request::new(file_id, op, State::Lookup { started_us: now_us })
    }

    pub(crate) fn kind(&self) -> Kind {
        match self.state {
            State::Insert(_) => Kind::Insert,
            State::Lookup { .. } => Kind::Lookup,
            State::Reclaim(_) => Kind::Reclaim,
        }
    }

    fn key(&self) -> RequestKey {
        (self.kind(), self.file_id, self.op)
    }

    /// Heap behind the table entry: a boxed insert or reclaim state.
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.state {
            State::Insert(p) => {
                std::mem::size_of::<InsertState>()
                    + p.name.capacity()
                    + btree_heap_bytes::<[u8; 32], ()>(p.receipt_keys.len())
            }
            State::Lookup { .. } => 0,
            State::Reclaim(_) => std::mem::size_of::<ReclaimCertificate>(),
        }
    }

    /// The frame this request routes toward its fileId — the first
    /// transmission, a retransmission and a re-salted attempt alike.
    fn frame(&self, me: Addr) -> PastMsg {
        let op = self.op;
        match &self.state {
            State::Insert(p) => PastMsg::Insert {
                cert: p.cert,
                content: p.cert.content(),
                client: me,
                op,
            },
            State::Lookup { .. } => PastMsg::Lookup {
                file_id: self.file_id,
                client: me,
                path: Vec::new(),
                redirected: false,
                op,
            },
            State::Reclaim(rcert) => PastMsg::Reclaim {
                rcert: **rcert,
                client: me,
                op,
            },
        }
    }
}

impl PastApp {
    // --- Entry points (invoked by the harness) -------------------------

    /// Issues the certificate for a new insert (debiting the quota) and
    /// returns `(request_id, request)` for [`Self::begin`].
    pub fn insert_request(
        &mut self,
        name: &str,
        content: ContentRef,
        k: u8,
        now_us: u64,
        op: OpId,
    ) -> Result<(u64, Request), CardError> {
        let cert = self
            .card
            .issue_file_certificate(name, &content, k, 0, now_us)?;
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let state = InsertState {
            request_id,
            name: name.to_string(),
            cert,
            attempts: 1,
            receipt_keys: BTreeSet::new(),
            nacks: 0,
            fatal: false,
        };
        let state = State::Insert(Box::new(state));
        Ok((request_id, Request::new(cert.file_id, op, state)))
    }

    /// Signs a reclaim certificate for a file this card owns. A reclaim
    /// under [`OpId::NONE`] is the cleanup after a failed insert attempt,
    /// not a client operation: it fails silently, the insert reports its
    /// own outcome.
    pub fn reclaim_request(&self, file_id: FileId, op: OpId) -> Request {
        let rcert = self.card.issue_reclaim_certificate(&file_id);
        Request::new(file_id, op, State::Reclaim(Box::new(rcert)))
    }

    /// Starts a request: registers it and returns the frame to route
    /// toward its fileId plus, under the retry layer, the `(token, delay)`
    /// of the timer to arm for it. Routing and arming are left to the
    /// caller — their order is part of the event key, and the harness
    /// (arm, then route) and a running node (route, then arm) differ in it.
    ///
    /// A reclaim is tracked only under the retry layer: without a timer
    /// nothing would ever remove one whose acknowledgements were lost.
    pub fn begin(&mut self, me: Addr, req: Request) -> (PastMsg, Option<(u64, u64)>) {
        let frame = req.frame(me);
        let timer = self.arm(req.key(), req.sends);
        if timer.is_some() || req.kind() != Kind::Reclaim {
            self.requests.insert(req.key(), req);
        }
        (frame, timer)
    }

    /// Registers an expected audit answer; returns the challenge to send
    /// the audited node.
    pub fn begin_audit(&mut self, file_id: FileId, content_hash: Digest256, nonce: u64) -> PastMsg {
        self.pending_audits.insert(file_id, (content_hash, nonce));
        PastMsg::AuditChallenge { file_id, nonce }
    }

    /// Number of outstanding client inserts (for harness draining).
    pub fn pending_insert_count(&self) -> usize {
        self.pending_inserts().count()
    }

    /// Bytes debited for in-flight insertions not yet covered by store
    /// receipts (snapshot/invariant support: quota conservation counts
    /// these as "in flight" rather than stored).
    pub fn pending_insert_bytes(&self) -> u64 {
        self.pending_inserts()
            .map(InsertState::unreceipted_bytes)
            .sum()
    }

    fn pending_inserts(&self) -> impl Iterator<Item = &InsertState> {
        self.requests.values().filter_map(|r| match &r.state {
            State::Insert(p) => Some(&**p),
            _ => None,
        })
    }

    // --- The lifecycle --------------------------------------------------

    /// True when the client-side retry layer is active.
    pub(crate) fn retry_enabled(&self) -> bool {
        self.cfg.request_timeout_us.is_some()
    }

    /// Under the retry layer, registers a timer for `key`'s `sends`-th
    /// transmission: its token, and its delay — the base timeout doubled
    /// per transmission so far.
    fn arm(&mut self, key: RequestKey, sends: u32) -> Option<(u64, u64)> {
        let base = self.cfg.request_timeout_us?;
        let token = self.next_timer_token;
        self.next_timer_token += 1;
        self.request_timers.insert(token, key);
        let delay = base.saturating_mul(1u64 << sends.saturating_sub(1).min(6));
        Some((token, delay))
    }

    /// Starts a request from inside a callback: route, then arm.
    fn start(&mut self, req: Request, cx: &mut Cx) {
        let rid = req.file_id.routing_id();
        let (frame, timer) = self.begin(cx.me(), req);
        cx.route(rid, frame);
        if let Some((token, delay)) = timer {
            cx.set_app_timer(delay, token);
        }
    }

    /// A request timer fired: retransmit the same frame (holders are
    /// idempotent) with a doubled deadline, or give up after
    /// `request_attempts` transmissions. Timers are never cancelled; one
    /// that outlives its request finds nothing here.
    pub(crate) fn on_request_timer(&mut self, token: u64, cx: &mut Cx) {
        let Some(key) = self.request_timers.remove(&token) else {
            return;
        };
        let attempts = self.cfg.request_attempts;
        let Some(req) = self.requests.get_mut(&key) else {
            return;
        };
        if req.sends >= attempts {
            match key.0 {
                Kind::Insert => self.insert_attempt_failed(&key, cx),
                Kind::Lookup | Kind::Reclaim => self.conclude(&key, Outcome::Failed, cx),
            }
            return;
        }
        req.sends += 1;
        if let State::Insert(p) = &mut req.state {
            // Responses count per transmission round: stale nacks from an
            // earlier round must not conclude the fresh one early.
            p.nacks = 0;
            p.fatal = false;
        }
        let (sends, op) = (req.sends, req.op);
        let (now, me) = (cx.now_us(), cx.me());
        let frame = req.frame(me);
        cx.tracer().op_retry(now, op, me, key.0.name(), sends);
        cx.route(key.1.routing_id(), frame);
        if let Some((token, delay)) = self.arm(key, sends) {
            cx.set_app_timer(delay, token);
        }
    }

    /// Concludes a request: takes it out of the table, closes its trace
    /// span and reports the outcome. A response to a request already
    /// concluded finds nothing and reports nothing.
    fn conclude(&mut self, key: &RequestKey, outcome: Outcome, cx: &mut Cx) {
        if let Some(req) = self.requests.remove(key) {
            Self::finish(req, outcome, cx);
        }
    }

    /// The tail of [`Self::conclude`], for a request already taken out.
    fn finish(req: Request, outcome: Outcome, cx: &mut Cx) {
        let (file_id, kind) = (req.file_id, req.kind());
        let ok = matches!(outcome, Outcome::Done | Outcome::Served { .. });
        let (fanout, out) = match (req.state, outcome) {
            (State::Insert(p), outcome) => {
                let receipts = p.receipt_keys.len() as u8;
                let out = match outcome {
                    Outcome::Done => PastOut::InsertOk {
                        request_id: p.request_id,
                        file_id,
                        attempts: p.attempts,
                        receipts,
                    },
                    _ => PastOut::InsertFailed {
                        request_id: p.request_id,
                        size: p.cert.size,
                        attempts: p.attempts,
                    },
                };
                (u32::from(receipts), Some(out))
            }
            (State::Lookup { started_us }, Outcome::Served { server, from_cache }) => (
                0,
                Some(PastOut::LookupOk {
                    file_id,
                    server,
                    from_cache,
                    started_us,
                }),
            ),
            (State::Lookup { .. }, _) => (0, Some(PastOut::LookupFailed { file_id })),
            (State::Reclaim(_), Outcome::Failed) if !req.op.is_none() => {
                (0, Some(PastOut::ReclaimFailed { file_id }))
            }
            (State::Reclaim(_), _) => (0, None),
        };
        let (now, me) = (cx.now_us(), cx.me());
        cx.tracer().op_end(now, req.op, me, kind.name(), ok, fanout);
        if let Some(out) = out {
            cx.emit(out);
        }
    }

    // --- Responses -------------------------------------------------------

    /// A response to one of this node's own requests arrived from `from`.
    pub(crate) fn on_response(&mut self, from: Addr, payload: PastMsg, cx: &mut Cx) {
        match payload {
            PastMsg::StoreAck { receipt, op } => {
                // Two signature checks are only worth paying for an
                // insert still waiting: a late or duplicated ack is
                // dropped either way.
                let key = (Kind::Insert, receipt.file_id, op);
                if self.requests.contains_key(&key)
                    && (!self.cfg.crypto_checks || receipt.verify(&self.broker_key))
                {
                    let storer = receipt.storer.card_key.to_bytes();
                    let response = Ok((storer, receipt.stored));
                    self.note_insert_response(receipt.file_id, op, response, cx);
                }
            }
            PastMsg::InsertNack {
                file_id,
                reason,
                op,
            } => self.note_insert_response(file_id, op, Err(reason), cx),
            PastMsg::FileReply {
                cert,
                from_cache,
                op,
            } => {
                let key = (Kind::Lookup, cert.file_id, op);
                if !self.requests.contains_key(&key) {
                    return;
                }
                // "The file certificate is returned along with the file,
                // and allows the client to verify that the contents are
                // authentic."
                let outcome = if !self.cfg.crypto_checks || cert.verify(&self.broker_key) {
                    Outcome::Served {
                        server: from,
                        from_cache,
                    }
                } else {
                    Outcome::Failed
                };
                self.conclude(&key, outcome, cx);
            }
            PastMsg::LookupMiss { file_id, op } => {
                self.conclude(&(Kind::Lookup, file_id, op), Outcome::Failed, cx);
            }
            PastMsg::ReclaimAck { receipt, op } => self.on_reclaim_ack(receipt, op, cx),
            PastMsg::ReclaimDenied { file_id, op } => {
                self.conclude(&(Kind::Reclaim, file_id, op), Outcome::Denied, cx);
                cx.emit(PastOut::ReclaimDenied { file_id });
            }
            PastMsg::AuditProof { file_id, proof } => {
                if let Some((expected_hash, nonce)) = self.pending_audits.remove(&file_id) {
                    cx.emit(if proof == Some(audit_proof(nonce, &expected_hash)) {
                        PastOut::AuditPassed {
                            file_id,
                            prover: from,
                        }
                    } else {
                        PastOut::AuditFailed {
                            file_id,
                            prover: from,
                        }
                    });
                }
            }
            // Everything else is a request for this node's storage half.
            _ => {}
        }
    }

    /// Records an insert response and decides the attempt. A receipt is
    /// `(storer card key, bytes stored)`.
    fn note_insert_response(
        &mut self,
        file_id: FileId,
        op: OpId,
        response: Result<([u8; 32], u64), NackReason>,
        cx: &mut Cx,
    ) {
        let key = (Kind::Insert, file_id, op);
        let Some(Request {
            state: State::Insert(p),
            ..
        }) = self.requests.get_mut(&key)
        else {
            return;
        };
        let mut credit = 0u64;
        match response {
            Ok((storer, stored)) => {
                if p.receipt_keys.insert(storer) && stored == 0 {
                    // The holder already had the file (duplicate
                    // insert): this copy consumed no new storage, so
                    // its share of the certificate's debit is
                    // returned (quota conservation, invariant I5).
                    credit = p.cert.size;
                }
            }
            Err(reason) => {
                p.nacks += 1;
                p.fatal |= reason.is_fatal();
            }
        }
        let (k, receipts) = (usize::from(p.cert.replication), p.receipt_keys.len());
        let complete = receipts >= k;
        let failed = p.fatal || receipts + p.nacks as usize >= k;
        if credit > 0 {
            self.card.credit(credit);
        }
        if complete {
            self.conclude(&key, Outcome::Done, cx);
        } else if failed {
            self.insert_attempt_failed(&key, cx);
        }
    }

    /// An insert attempt failed: credit unstored quota, reclaim partial
    /// copies, and retry with a fresh salt (file diversion) or give up.
    fn insert_attempt_failed(&mut self, key: &RequestKey, cx: &mut Cx) {
        let Some(mut req) = self.requests.remove(key) else {
            return;
        };
        let State::Insert(p) = &mut req.state else {
            return;
        };
        let retrying = self.retry_enabled();
        // Unstored copies never consumed storage: credit their debit.
        self.card.credit(p.unreceipted_bytes());
        // Stored partial copies are reclaimed; their receipts credit
        // later. Under loss a holder may have stored a copy whose receipt
        // vanished: reclaim unconditionally, and record which storers'
        // receipts were counted — only those reclaim credits may apply,
        // the rest were just returned in the "unstored" credit above.
        if !p.receipt_keys.is_empty() || retrying {
            if retrying {
                self.settled.insert(req.file_id, p.receipt_keys.clone());
            }
            let cleanup = self.reclaim_request(req.file_id, OpId::NONE);
            self.start(cleanup, cx);
        }
        let resalted = if p.attempts < self.cfg.max_insert_attempts {
            let (content, k, salt) = (p.cert.content(), p.cert.replication, p.cert.salt + 1);
            self.card
                .issue_file_certificate(&p.name, &content, k, salt, cx.now_us())
                .ok()
        } else {
            None
        };
        let Some(cert) = resalted else {
            return Self::finish(req, Outcome::Failed, cx);
        };
        p.cert = cert;
        p.attempts += 1;
        p.receipt_keys.clear();
        p.nacks = 0;
        p.fatal = false;
        let attempts = p.attempts;
        req.file_id = cert.file_id;
        req.sends = 1;
        let (now, me) = (cx.now_us(), cx.me());
        cx.tracer().op_retry(now, req.op, me, "insert", attempts);
        self.start(req, cx);
    }

    /// A holder freed its copy and sent the receipt.
    fn on_reclaim_ack(&mut self, receipt: ReclaimReceipt, op: OpId, cx: &mut Cx) {
        let (fid, freed) = (receipt.file_id, receipt.freed);
        // The first ack settles the request; every holder's ack credits.
        self.conclude(&(Kind::Reclaim, fid, op), Outcome::Done, cx);
        if self.retry_enabled() {
            let storer = receipt.storer.card_key.to_bytes();
            if !self.reclaim_seen.insert((fid, storer)) {
                return; // duplicated delivery
            }
            let counted = self.settled.get(&fid);
            if counted.is_some_and(|counted| !counted.contains(&storer)) {
                // A copy from a failed insert attempt whose store receipt
                // the network lost: its share of the debit was already
                // returned as "unstored" when the attempt concluded, so
                // this reclaim must not credit it again.
                return;
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
}
