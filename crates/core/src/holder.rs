//! The storage half of a PAST node: what it does for other nodes' files.
//!
//! Storing replicas for the k-set of a fileId, replica diversion when
//! the local disk refuses one, serving lookups (from replicas, diversion
//! pointers and the cache), honoring reclaims, answering audits, and
//! keeping k copies alive as the leaf set changes.

use crate::cert::{FileCertificate, ReclaimCertificate, ReclaimReceipt, SharedCert};
use crate::fileid::{audit_proof, ContentRef, FileId};
use crate::msg::{NackReason, PastMsg};
use crate::node::{Cx, PastApp};
use crate::storage::ReplicaKind;
use past_pastry::{Id, NodeHandle, PastryState};
use past_wire::{Addr, OpId};

/// Replica-diversion state at a full primary.
pub(crate) struct DivertState {
    cert: SharedCert,
    client: Addr,
    /// The client operation the diversion serves.
    op: OpId,
    /// Leaf-set nodes still to try. The front one is being probed and has
    /// not answered yet (a retransmitted insert re-probes it rather than
    /// fanning to a fresh one).
    candidates: Vec<Addr>,
}

/// The k nodes (self + leaf members) numerically closest to `rid`.
fn kset(state: &PastryState, rid: Id, k: u8) -> Vec<NodeHandle> {
    let mut v = state.leaf.sorted_by_dist(&rid);
    v.push(state.me);
    v.sort_by_key(|h| (h.id.ring_dist(&rid), h.id.0));
    v.truncate(k.max(1) as usize);
    v
}

/// Tells `client` one copy of its insert will not be stored.
fn nack(client: Addr, file_id: FileId, reason: NackReason, op: OpId, cx: &mut Cx) {
    cx.send_direct(
        client,
        PastMsg::InsertNack {
            file_id,
            reason,
            op,
        },
    );
}

/// Asks `to` to hold a replica this node has no room for.
fn divert_store(to: Addr, cert: SharedCert, client: Addr, op: OpId, cx: &mut Cx) {
    let (primary, content) = (cx.me(), cert.content());
    cx.send_direct(
        to,
        PastMsg::DivertStore {
            cert,
            content,
            primary,
            client,
            op,
        },
    );
}

/// Sends a lookup that already took its one redirect on toward the root.
fn reroute_lookup(file_id: FileId, client: Addr, path: Vec<Addr>, op: OpId, cx: &mut Cx) {
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

impl PastApp {
    // --- Arrivals ----------------------------------------------------------

    /// Validates a certificate + content pair as it arrives; a pair that
    /// fails is nacked to the client (if one is waiting). Everything
    /// downstream of an arrival takes the certificate as checked here.
    fn check_insert(
        &self,
        cert: &FileCertificate,
        content: &ContentRef,
        client: Option<Addr>,
        op: OpId,
        cx: &mut Cx,
    ) -> bool {
        let valid = cert.replication >= 1
            && *content == cert.content()
            && (!self.cfg.crypto_checks || cert.verify(&self.broker_key));
        if let (false, Some(c)) = (valid, client) {
            nack(c, cert.file_id, NackReason::BadCertificate, op, cx);
        }
        valid
    }

    /// Sends `client` (if one is waiting) a signed receipt for a copy.
    fn ack_store(
        &self,
        client: Option<Addr>,
        file_id: &FileId,
        stored: u64,
        diverted: bool,
        op: OpId,
        cx: &mut Cx,
    ) {
        if let Some(c) = client {
            let receipt = self.card.issue_store_receipt(file_id, stored, diverted);
            cx.send_direct(c, PastMsg::StoreAck { receipt, op });
        }
    }

    /// A routed request reached the node responsible for its fileId.
    pub(crate) fn serve_routed(&mut self, state: &PastryState, payload: PastMsg, cx: &mut Cx) {
        match payload {
            PastMsg::Insert {
                cert,
                content,
                client,
                op,
            } => {
                if !self.check_insert(&cert, &content, Some(client), op, cx) {
                    return;
                }
                // The one allocation of this issuance: every replica,
                // cache entry and message from here on shares it.
                let cert = SharedCert::new(cert);
                // Fan the copies out to the k-set and store this node's own.
                let copy = PastMsg::Replicate {
                    cert: cert.clone(),
                    content,
                    client: Some(client),
                    op,
                };
                let me = cx.me();
                let mut covered = 0u8;
                let mut store_here = false;
                for h in kset(state, cert.file_id.routing_id(), cert.replication) {
                    if h.addr == me {
                        store_here = true;
                    } else if !self.suppresses_replicas {
                        cx.send_direct(h.addr, copy.clone());
                    }
                    covered += 1;
                }
                // Network smaller than k: the client must learn of the
                // shortfall to decide the attempt.
                for _ in covered..cert.replication {
                    nack(client, cert.file_id, NackReason::InsufficientNodes, op, cx);
                }
                if store_here {
                    self.store_primary(cert, Some(client), op, state, cx);
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
                // A diverted replica is one hop away; failing that, the
                // root may lack the file (e.g. it joined recently): ask
                // the next-closest k-set member.
                let me = cx.me();
                let holder = self.store.pointer(&file_id).or_else(|| {
                    kset(state, file_id.routing_id(), self.cfg.default_k)
                        .iter()
                        .map(|h| h.addr)
                        .find(|&a| a != me)
                });
                let Some(holder) = holder else {
                    return cx.send_direct(client, PastMsg::LookupMiss { file_id, op });
                };
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
            }
            PastMsg::Reclaim { rcert, client, op } => {
                self.handle_reclaim(rcert, client, op, true, state, cx);
            }
            // Direct-only messages routed here would be a logic error;
            // ignore them defensively.
            _ => {}
        }
    }

    /// A routed request passes through on its way to the root. Returns
    /// false when it was consumed here.
    pub(crate) fn serve_forward(
        &mut self,
        state: &PastryState,
        payload: &mut PastMsg,
        cx: &mut Cx,
    ) -> bool {
        match payload {
            PastMsg::Insert { cert, content, .. } => {
                if self.corrupts_content {
                    // A faulty/malicious intermediate flips content bits;
                    // the storing node detects the mismatch against the
                    // certificate (§2.1).
                    content.hash.0[0] ^= 0xff;
                }
                if self.cfg.cache_enabled {
                    self.store.offer_cache(*cert);
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
                let (file_id, client, op) = (*file_id, *client, *op);
                if self.store.can_serve(&file_id) {
                    self.reply_file(&file_id, client, path, op, cx);
                    return false;
                }
                // "Messages have a tendency to first reach a node, among
                // the k nodes that store the requested file, that is near
                // the client": once this node's leaf set covers the
                // fileId it knows the whole k-set, and — being itself
                // near the client thanks to route locality — it redirects
                // to its proximity-nearest replica holder rather than
                // letting the route terminate at the numeric root.
                let me = cx.me();
                let rid = file_id.routing_id();
                let nearest = (!*redirected && state.leaf.covers(&rid))
                    .then(|| kset(state, rid, self.cfg.default_k))
                    .and_then(|kset| {
                        kset.into_iter()
                            .filter(|h| h.addr != me)
                            .min_by_key(|h| cx.delay_to(h.addr))
                    });
                if path.len() < 8 {
                    path.push(me);
                }
                let Some(target) = nearest else {
                    return true;
                };
                cx.send_direct(
                    target.addr,
                    PastMsg::LookupHop {
                        file_id,
                        client,
                        path: std::mem::take(path),
                        terminal: false,
                        op,
                    },
                );
                false
            }
            _ => true,
        }
    }

    /// Another node asks this one, directly, to do something for a file.
    pub(crate) fn serve_direct(
        &mut self,
        state: &PastryState,
        from: Addr,
        payload: PastMsg,
        cx: &mut Cx,
    ) {
        match payload {
            PastMsg::Replicate {
                cert,
                content,
                client,
                op,
            } if self.check_insert(&cert, &content, client, op, cx) => {
                self.store_primary(cert, client, op, state, cx);
            }
            PastMsg::DivertStore {
                cert,
                content,
                primary,
                client,
                op,
            } => {
                let file_id = cert.file_id;
                // Retransmission of a diversion already admitted here:
                // re-acknowledge instead of refusing, or the lost-ack
                // client would never collect its receipt.
                let held = self.retry_enabled()
                    && self.store.get(&file_id).is_some_and(|f| f.cert == cert);
                let admitted = !held
                    && self.check_insert(&cert, &content, None, op, cx)
                    && self.store.get(&file_id).is_none()
                    && !self.drops_stored_files
                    && self
                        .store
                        .insert(cert.clone(), ReplicaKind::Diverted)
                        .is_ok();
                if admitted {
                    let (now, me) = (cx.now_us(), cx.me());
                    cx.tracer()
                        .replica_stored(now, op, me, file_id.routing_id().0, true);
                }
                if held || admitted {
                    self.ack_store(Some(client), &file_id, cert.size, true, op, cx);
                    cx.send_direct(primary, PastMsg::DivertAck { file_id, op });
                } else {
                    cx.send_direct(primary, PastMsg::DivertNack { file_id, op });
                }
            }
            PastMsg::DivertAck { file_id, .. } => {
                if let Some(st) = self.pending_diverts.remove(&file_id) {
                    self.store.add_pointer(st.cert, from);
                }
            }
            PastMsg::DivertNack { file_id, .. } => self.divert_refused(file_id, cx),
            PastMsg::LookupHop {
                file_id,
                client,
                path,
                terminal,
                op,
            } => {
                if self.reply_file(&file_id, client, &path, op, cx) {
                    return;
                }
                if terminal {
                    cx.send_direct(client, PastMsg::LookupMiss { file_id, op });
                } else {
                    // Not a holder after all (e.g. a just-joined k-set
                    // member): continue the lookup toward the root.
                    reroute_lookup(file_id, client, path, op, cx);
                }
            }
            PastMsg::ReclaimFree { rcert, client, op } => {
                self.handle_reclaim(rcert, client, op, false, state, cx);
            }
            // Two signature checks are only worth paying for a file the
            // cache could take at all.
            PastMsg::CachePush { cert }
                if self.cfg.cache_enabled
                    && self.store.cache_admissible(&cert)
                    && (!self.cfg.crypto_checks || cert.verify(&self.broker_key)) =>
            {
                self.store.offer_cache(cert);
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
            // Routed-only messages arriving directly are ignored.
            _ => {}
        }
    }

    /// A direct message found its destination dead.
    pub(crate) fn serve_failed(
        &mut self,
        state: &PastryState,
        dead: Addr,
        payload: PastMsg,
        cx: &mut Cx,
    ) {
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
                let (fid, k) = (cert.file_id, cert.replication);
                let copy = PastMsg::Replicate {
                    cert,
                    content,
                    client: Some(client),
                    op,
                };
                let me = cx.me();
                let mut refanned = false;
                for h in kset(state, fid.routing_id(), k) {
                    if h.addr != me && h.addr != dead {
                        cx.send_direct(h.addr, copy.clone());
                        refanned = true;
                    }
                }
                if !refanned {
                    nack(client, fid, NackReason::TargetDead, op, cx);
                }
            }
            PastMsg::DivertStore { cert, .. } => self.divert_refused(cert.file_id, cx),
            // The probed holder died; re-route the lookup with the purged
            // state instead of reporting a spurious miss.
            PastMsg::LookupHop {
                file_id,
                client,
                path,
                op,
                ..
            } => reroute_lookup(file_id, client, path, op, cx),
            _ => {}
        }
    }

    /// Stores a primary replica of a validated certificate, diverting on
    /// refusal. `client: None` is a maintenance copy.
    fn store_primary(
        &mut self,
        cert: SharedCert,
        client: Option<Addr>,
        op: OpId,
        state: &PastryState,
        cx: &mut Cx,
    ) {
        let fid = cert.file_id;
        if self.drops_stored_files {
            // Cheat: acknowledge without storing (random audits expose
            // this).
            self.ack_store(client, &fid, cert.size, false, op, cx);
            return;
        }
        if client.is_none() {
            // Maintenance copy: accept it only if this node is in the
            // file's k-set by its own routing state; otherwise fan-out
            // from peers with stale leaf sets would over-replicate the
            // file past k (invariant I5).
            let me = cx.me();
            let in_kset = kset(state, fid.routing_id(), cert.replication)
                .iter()
                .any(|h| h.addr == me);
            if !in_kset {
                return;
            }
        }
        if let Some(f) = self.store.get(&fid) {
            // Idempotent: re-acknowledge. An identical certificate is the
            // same issuance — a retransmission of the very insert that
            // stored this copy — so the ack reports the bytes as stored
            // (the client deduplicates by storer key either way). A
            // different certificate is a distinct insert of an existing
            // file: that copy consumed nothing new, reported as 0.
            let same_issuance = self.retry_enabled() && f.cert == cert;
            let stored = if same_issuance { cert.size } else { 0 };
            self.ack_store(client, &fid, stored, false, op, cx);
            return;
        }
        if let (Some(c), true) = (client, self.retry_enabled()) {
            // A retransmitted insert must not restart diversion: it
            // would place a second diverted copy elsewhere. Re-probe
            // the in-flight candidate, or the recorded holder.
            let in_flight = self.pending_diverts.get(&fid).filter(|st| st.cert == cert);
            let probing = in_flight.and_then(|st| st.candidates.first().copied());
            if let Some(holder) = probing.or_else(|| self.store.pointer(&fid)) {
                divert_store(holder, cert, c, op, cx);
                return;
            }
        }
        match self.store.insert(cert.clone(), ReplicaKind::Primary) {
            Ok(()) => {
                let (now, me) = (cx.now_us(), cx.me());
                cx.tracer()
                    .replica_stored(now, op, me, fid.routing_id().0, false);
                self.ack_store(client, &fid, cert.size, false, op, cx);
            }
            Err(_) => {
                // Maintenance copies are best-effort: no diversion.
                if let Some(c) = client {
                    self.start_diversion(cert, c, op, state, cx);
                }
            }
        }
    }

    // --- Replica diversion ----------------------------------------------

    /// Begins replica diversion: probe leaf-set nodes outside the k-set.
    fn start_diversion(
        &mut self,
        cert: SharedCert,
        client: Addr,
        op: OpId,
        state: &PastryState,
        cx: &mut Cx,
    ) {
        let kset = kset(state, cert.file_id.routing_id(), cert.replication);
        let mut candidates: Vec<Addr> = state
            .leaf
            .members()
            .map(|h| h.addr)
            .filter(|&a| a != cx.me() && !kset.iter().any(|h| h.addr == a))
            .collect();
        // Fisher-Yates shuffle so repeated diversions spread load.
        for i in (1..candidates.len()).rev() {
            let j = cx.rng().random_range(0..=i);
            candidates.swap(i, j);
        }
        candidates.truncate(self.cfg.divert_candidates);
        let fid = cert.file_id;
        let st = DivertState {
            cert,
            client,
            op,
            candidates,
        };
        self.pending_diverts.insert(fid, st);
        self.probe_divert(fid, cx);
    }

    /// Probes the front diversion candidate, or gives up with a nack when
    /// none is left.
    fn probe_divert(&mut self, fid: FileId, cx: &mut Cx) {
        let Some(st) = self.pending_diverts.get(&fid) else {
            return;
        };
        match st.candidates.first() {
            Some(&next) => divert_store(next, st.cert.clone(), st.client, st.op, cx),
            None => {
                nack(st.client, fid, NackReason::StoreRefused, st.op, cx);
                self.pending_diverts.remove(&fid);
            }
        }
    }

    /// The probed candidate refused (or died): try the next one.
    fn divert_refused(&mut self, fid: FileId, cx: &mut Cx) {
        if let Some(st) = self.pending_diverts.get_mut(&fid) {
            st.candidates.remove(0);
            self.probe_divert(fid, cx);
        }
    }

    // --- Lookup ------------------------------------------------------------

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
                cert: cert.clone(),
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
                cx.send_direct(p, PastMsg::CachePush { cert: cert.clone() });
            }
        }
        true
    }

    // --- Reclaim -----------------------------------------------------------

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
        let owner = rcert.owner.card_key;
        let held = self.store.get(&fid).map(|f| f.cert.replication);
        // "The smartcard of a storage node first verifies that the
        // signature in the reclaim certificate matches that in the file
        // certificate stored with the file." A diversion pointer and a
        // cached copy carry that certificate too: another card's reclaim
        // must not drop them either.
        if (self.cfg.crypto_checks && !rcert.verify(&self.broker_key))
            || self
                .store
                .certs(&fid)
                .any(|cert| cert.owner.card_key != owner)
        {
            cx.send_direct(client, PastMsg::ReclaimDenied { file_id: fid, op });
            return;
        }
        // Peek at the diversion pointer before `remove`, which drops it.
        let diverted_to = self.store.pointer(&fid);
        let receipt: Option<ReclaimReceipt> = if held.is_some() {
            let freed = self.store.remove(&fid);
            let receipt = self.card.issue_reclaim_receipt(&fid, freed);
            if self.retry_enabled() {
                // Keep the receipt: if this ack is lost, the owner's
                // retransmitted reclaim finds the file already gone and
                // must still be answered, or its quota stays debited for
                // storage nobody holds.
                self.issued_reclaim_receipts
                    .insert(fid, (owner.to_bytes(), receipt));
            }
            Some(receipt)
        } else {
            // Retransmission of a reclaim already honored: re-ack with
            // the kept receipt (the client deduplicates).
            self.issued_reclaim_receipts
                .get(&fid)
                .filter(|(to, _)| self.retry_enabled() && *to == owner.to_bytes())
                .map(|(_, receipt)| *receipt)
        };
        if let Some(receipt) = receipt {
            cx.send_direct(client, PastMsg::ReclaimAck { receipt, op });
        }
        // Any cached copy must go even when no replica is held here:
        // serving a reclaimed file from the cache would resurrect it.
        self.store.cache.invalidate(&fid);
        self.store.remove_pointer(&fid);
        let free = || PastMsg::ReclaimFree { rcert, client, op };
        if let Some(holder) = diverted_to {
            cx.send_direct(holder, free());
        }
        if propagate {
            let me = cx.me();
            let replication = held.unwrap_or(self.cfg.default_k);
            for h in kset(state, fid.routing_id(), replication) {
                if h.addr != me {
                    cx.send_direct(h.addr, free());
                }
            }
        }
    }

    // --- Replica maintenance -----------------------------------------------

    /// Replica maintenance: for every primary file held here, make sure
    /// the current k-set holds copies ("the system automatically restores
    /// k copies of a file as part of a failure recovery procedure").
    pub(crate) fn maintain_replicas(
        &mut self,
        state: &PastryState,
        added: &[NodeHandle],
        removed: &[NodeHandle],
        cx: &mut Cx,
    ) {
        if added.is_empty() && removed.is_empty() {
            return;
        }
        let me = state.me.addr;
        let my_files: Vec<SharedCert> = self
            .store
            .replicas()
            .filter(|(_, f)| f.kind == ReplicaKind::Primary)
            .map(|(_, f)| f.cert.clone())
            .collect();
        for cert in my_files {
            let kset = kset(state, cert.file_id.routing_id(), cert.replication);
            if !kset.iter().any(|h| h.addr == me) {
                // Newcomers pushed this node out of the file's k-set: the
                // replica is no longer ours to hold as primary. Demote it
                // to a cached copy so the file stays at exactly k primary
                // replicas (invariant I5); the new k-set members receive
                // copies from the members that remain.
                self.store.remove(&cert.file_id);
                if self.cfg.cache_enabled {
                    self.store.offer_cache(cert);
                }
                continue;
            }
            // Every surviving k-set member refreshes the newcomers (not
            // just the root: the root may itself be a newcomer without
            // the file). The receiver-side k-set check keeps this
            // idempotent fan-out from over-replicating.
            for h in &kset {
                if h.addr == me {
                    continue;
                }
                // After a removal the whole k-set is refreshed (cheap and
                // idempotent); after additions only the newcomers are.
                if removed.is_empty() && !added.iter().any(|a| a.addr == h.addr) {
                    continue;
                }
                cx.send_direct(
                    h.addr,
                    PastMsg::Replicate {
                        cert: cert.clone(),
                        content: cert.content(),
                        client: None,
                        op: OpId::NONE,
                    },
                );
            }
        }
    }
}
