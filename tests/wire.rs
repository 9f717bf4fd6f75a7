//! Wire-codec conformance for every protocol message (DESIGN.md §13).
//!
//! Four obligations, enforced per variant of all four message enums
//! (`PastryMsg`, `PastMsg`, `ChordMsg`, `CanMsg`):
//!
//! 1. **Exact round-trip** — `decode(encode(m))` reconstructs an equal
//!    value and consumes exactly the encoded bytes.
//! 2. **Honest sizes** — `wire_size()` / `encoded_len()` equal
//!    `encode().len()`. These counters feed every bandwidth number in
//!    EXPERIMENTS.md; an estimate that drifts from the codec is a bug.
//!    No value encodes below its `MIN_WIRE_LEN`, and the fixed-size
//!    structures encode to exactly theirs (pinned).
//! 3. **Total decoding** — `decode` on arbitrary mutated frames returns
//!    `Ok` or a typed `DecodeError`, never panics (seeded corpus of
//!    >10 000 truncations, bit flips, and length-prefix splices).
//! 4. **Canonical form** — every frame of that corpus that decodes
//!    re-encodes to exactly the bytes it was decoded from, so no two
//!    frames stand for the same message (content bodies aside: the
//!    decoder skips them and the message value does not hold them).
//!
//! Golden hex vectors pin one frame of every kind so accidental layout
//! changes (field order, endianness, header bytes) fail loudly even if
//! they round-trip.

use past::baselines::can::{CanLookup, CanMsg};
use past::baselines::chord::{ChordLookup, ChordMsg};
use past::core::{
    CardCert, ContentRef, FileCertificate, FileId, NackReason, PastMsg, ReclaimCertificate,
    ReclaimReceipt, StoreReceipt,
};
use past::crypto::rng::Rng;
use past::crypto::u256::U256;
use past::crypto::{Digest160, Digest256, PublicKey, Signature};
use past::netsim::{Message, OpId};
use past::pastry::{Id, JoinReply, JoinRequest, NodeHandle, PastryMsg, RouteEnvelope};
use past::wire::{DecodeError, Wire, WIRE_VERSION};

// ---------------------------------------------------------- fixtures

fn u256(rng: &mut Rng) -> U256 {
    U256([rng.random(), rng.random(), rng.random(), rng.random()])
}

fn sig(rng: &mut Rng) -> Signature {
    Signature {
        commitment: u256(rng),
        response: u256(rng),
    }
}

fn d160(rng: &mut Rng) -> Digest160 {
    let mut b = [0u8; 20];
    rng.fill_bytes(&mut b);
    Digest160(b)
}

fn d256(rng: &mut Rng) -> Digest256 {
    let mut b = [0u8; 32];
    rng.fill_bytes(&mut b);
    Digest256(b)
}

fn card(rng: &mut Rng) -> CardCert {
    CardCert {
        card_key: PublicKey(u256(rng)),
        broker_key: PublicKey(u256(rng)),
        broker_sig: sig(rng),
    }
}

fn fcert(rng: &mut Rng, size: u64) -> FileCertificate {
    FileCertificate {
        file_id: FileId(d160(rng)),
        content_hash: d256(rng),
        size,
        replication: rng.random_range(1..=5) as u8,
        salt: rng.random(),
        inserted_at: rng.random(),
        owner: card(rng),
        signature: sig(rng),
    }
}

fn content(rng: &mut Rng, size: u64) -> ContentRef {
    ContentRef {
        hash: d256(rng),
        size,
    }
}

fn rcert(rng: &mut Rng) -> ReclaimCertificate {
    ReclaimCertificate {
        file_id: FileId(d160(rng)),
        owner: card(rng),
        signature: sig(rng),
    }
}

fn receipt(rng: &mut Rng) -> StoreReceipt {
    StoreReceipt {
        file_id: FileId(d160(rng)),
        stored: rng.random(),
        diverted: rng.random_range(0..2) == 1,
        storer: card(rng),
        signature: sig(rng),
    }
}

fn rreceipt(rng: &mut Rng) -> ReclaimReceipt {
    ReclaimReceipt {
        file_id: FileId(d160(rng)),
        freed: rng.random(),
        storer: card(rng),
        signature: sig(rng),
    }
}

fn handle(rng: &mut Rng) -> NodeHandle {
    NodeHandle {
        id: Id(rng.random::<u128>()),
        addr: rng.random_range(0usize..1 << 32),
    }
}

fn handles(rng: &mut Rng, n: usize) -> Vec<NodeHandle> {
    (0..n).map(|_| handle(rng)).collect()
}

fn addrs(rng: &mut Rng, n: usize) -> Vec<usize> {
    (0..n).map(|_| rng.random_range(0usize..1 << 32)).collect()
}

/// One sample of every `PastryMsg` variant (in `KINDS` order).
fn pastry_samples(rng: &mut Rng) -> Vec<PastryMsg<u64>> {
    vec![
        PastryMsg::Route(RouteEnvelope {
            key: Id(rng.random::<u64>() as u128),
            payload: rng.random::<u64>(),
            origin: rng.random_range(0..512),
            hops: rng.random_range(0..8) as u32,
            path_us: rng.random(),
        }),
        PastryMsg::JoinRequest(Box::new(JoinRequest {
            joiner: handle(rng),
            rows: handles(rng, 5),
            rows_done: rng.random_range(0..32) as u16,
            hops: rng.random_range(0..8) as u32,
        })),
        PastryMsg::JoinReply(Box::new(JoinReply {
            z: handle(rng),
            rows: handles(rng, 4),
            leaf: handles(rng, 3),
            hops: rng.random_range(0..8) as u32,
        })),
        PastryMsg::NeighborhoodRequest,
        PastryMsg::NeighborhoodReply {
            members: handles(rng, 3),
        },
        PastryMsg::Announce { from: handle(rng) },
        PastryMsg::LeafRequest,
        PastryMsg::LeafReply {
            members: handles(rng, 6),
        },
        PastryMsg::RowRequest {
            row: rng.random_range(0..32) as u16,
        },
        PastryMsg::RowReply {
            entries: handles(rng, 2),
        },
        PastryMsg::RepairRequest {
            row: rng.random_range(0..32) as u16,
            col: rng.random_range(0..16) as u16,
        },
        PastryMsg::RepairReply {
            entry: if rng.random_range(0..2) == 1 {
                Some(handle(rng))
            } else {
                None
            },
        },
        PastryMsg::Heartbeat,
        PastryMsg::HeartbeatAck,
        PastryMsg::AppDirect {
            payload: rng.random::<u64>(),
        },
    ]
}

/// One sample of every `PastMsg` variant (in wire-tag order, 0..=17).
fn past_samples(rng: &mut Rng) -> Vec<PastMsg> {
    let size = rng.random_range(1u64..2048);
    vec![
        PastMsg::Insert {
            cert: fcert(rng, size),
            content: content(rng, size),
            client: rng.random_range(0..512) as usize,
            op: OpId(rng.random()),
        },
        PastMsg::Lookup {
            file_id: FileId(d160(rng)),
            client: rng.random_range(0..512) as usize,
            path: addrs(rng, 3),
            redirected: rng.random_range(0..2) == 1,
            op: OpId(rng.random()),
        },
        PastMsg::Reclaim {
            rcert: rcert(rng),
            client: rng.random_range(0..512) as usize,
            op: OpId(rng.random()),
        },
        PastMsg::Replicate {
            cert: fcert(rng, size).into(),
            content: content(rng, size),
            client: if rng.random_range(0..2) == 1 {
                Some(rng.random_range(0..512) as usize)
            } else {
                None
            },
            op: OpId(rng.random()),
        },
        PastMsg::DivertStore {
            cert: fcert(rng, size).into(),
            content: content(rng, size),
            primary: rng.random_range(0..512) as usize,
            client: rng.random_range(0..512) as usize,
            op: OpId(rng.random()),
        },
        PastMsg::DivertAck {
            file_id: FileId(d160(rng)),
            op: OpId(rng.random()),
        },
        PastMsg::DivertNack {
            file_id: FileId(d160(rng)),
            op: OpId(rng.random()),
        },
        PastMsg::StoreAck {
            receipt: receipt(rng),
            op: OpId(rng.random()),
        },
        PastMsg::InsertNack {
            file_id: FileId(d160(rng)),
            reason: match rng.random_range(0..4) {
                0 => NackReason::BadCertificate,
                1 => NackReason::StoreRefused,
                2 => NackReason::TargetDead,
                _ => NackReason::InsufficientNodes,
            },
            op: OpId(rng.random()),
        },
        PastMsg::LookupHop {
            file_id: FileId(d160(rng)),
            client: rng.random_range(0..512) as usize,
            path: addrs(rng, 4),
            terminal: rng.random_range(0..2) == 1,
            op: OpId(rng.random()),
        },
        PastMsg::FileReply {
            cert: fcert(rng, size).into(),
            from_cache: rng.random_range(0..2) == 1,
            op: OpId(rng.random()),
        },
        PastMsg::LookupMiss {
            file_id: FileId(d160(rng)),
            op: OpId(rng.random()),
        },
        PastMsg::ReclaimFree {
            rcert: rcert(rng),
            client: rng.random_range(0..512) as usize,
            op: OpId(rng.random()),
        },
        PastMsg::ReclaimAck {
            receipt: rreceipt(rng),
            op: OpId(rng.random()),
        },
        PastMsg::ReclaimDenied {
            file_id: FileId(d160(rng)),
            op: OpId(rng.random()),
        },
        PastMsg::CachePush {
            cert: fcert(rng, size).into(),
        },
        PastMsg::AuditChallenge {
            file_id: FileId(d160(rng)),
            nonce: rng.random(),
        },
        PastMsg::AuditProof {
            file_id: FileId(d160(rng)),
            proof: if rng.random_range(0..2) == 1 {
                Some(d256(rng))
            } else {
                None
            },
        },
    ]
}

fn chord_sample(rng: &mut Rng) -> ChordMsg {
    ChordMsg::Lookup(ChordLookup {
        key: Id(rng.random::<u128>()),
        origin: rng.random_range(0..512) as usize,
        hops: rng.random_range(0..40) as u32,
        path_us: rng.random(),
        terminal: rng.random_range(0..2) == 1,
    })
}

fn can_sample(rng: &mut Rng) -> CanMsg {
    let d = rng.random_range(1..=8) as usize;
    CanMsg::Lookup(CanLookup {
        target: (0..d)
            .map(|_| rng.random::<u64>() as f64 / u64::MAX as f64)
            .collect(),
        origin: rng.random_range(0..512) as usize,
        hops: rng.random_range(0..40) as u32,
        path_us: rng.random(),
    })
}

/// The message enums derive `Clone + Debug` but (deliberately) not
/// `PartialEq`; the `Debug` rendering is total over every field, so it
/// is the equality the round-trip asserts.
fn assert_roundtrip<T: Wire + std::fmt::Debug>(m: &T, what: &str) {
    let bytes = m.to_wire();
    assert_eq!(
        bytes.len() as u64,
        m.encoded_len(),
        "{what}: encoded_len() lies about encode().len()"
    );
    // `Vec` reads bound a length prefix by this floor before allocating;
    // a floor above a real encoding would refuse honest frames.
    assert!(
        m.encoded_len() >= T::MIN_WIRE_LEN as u64,
        "{what}: encodes to {} bytes, below MIN_WIRE_LEN {}",
        m.encoded_len(),
        T::MIN_WIRE_LEN
    );
    let (back, used) = match T::decode(&bytes) {
        Ok(r) => r,
        Err(e) => panic!("{what}: decode failed: {e}"),
    };
    assert_eq!(used, bytes.len(), "{what}: decode left trailing bytes");
    assert_eq!(
        format!("{m:?}"),
        format!("{back:?}"),
        "{what}: round-trip changed the value"
    );
}

// ------------------------------------------------- per-variant audit

#[test]
fn every_pastry_variant_roundtrips_and_sizes_honestly() {
    let mut rng = Rng::seed_from_u64(0x3133_0001);
    for round in 0..16 {
        let samples = pastry_samples(&mut rng);
        assert_eq!(
            samples.len(),
            <PastryMsg<u64> as Message>::KINDS.len(),
            "sample list must cover every variant"
        );
        for m in &samples {
            let what = format!(
                "PastryMsg::{} (round {round})",
                <PastryMsg<u64> as Message>::KINDS[m.kind_id()]
            );
            assert_roundtrip(m, &what);
            assert_eq!(
                m.wire_size(),
                m.to_wire().len() as u64,
                "{what}: wire_size() lies"
            );
        }
    }
}

#[test]
fn every_past_variant_roundtrips_and_sizes_honestly() {
    // Compile-time exhaustiveness: adding a `PastMsg` variant breaks
    // this match, forcing the sample list (and the codec) to grow. The
    // tags are written here apart from the codec's `wire_enum!` line, so
    // each table checks the other.
    fn wire_tag(m: &PastMsg) -> u8 {
        match m {
            PastMsg::Insert { .. } => 0,
            PastMsg::Lookup { .. } => 1,
            PastMsg::Reclaim { .. } => 2,
            PastMsg::Replicate { .. } => 3,
            PastMsg::DivertStore { .. } => 4,
            PastMsg::DivertAck { .. } => 5,
            PastMsg::DivertNack { .. } => 6,
            PastMsg::StoreAck { .. } => 7,
            PastMsg::InsertNack { .. } => 8,
            PastMsg::LookupHop { .. } => 9,
            PastMsg::FileReply { .. } => 10,
            PastMsg::LookupMiss { .. } => 11,
            PastMsg::ReclaimFree { .. } => 12,
            PastMsg::ReclaimAck { .. } => 13,
            PastMsg::ReclaimDenied { .. } => 14,
            PastMsg::CachePush { .. } => 15,
            PastMsg::AuditChallenge { .. } => 16,
            PastMsg::AuditProof { .. } => 17,
        }
    }
    let mut rng = Rng::seed_from_u64(0x3133_0002);
    for round in 0..16 {
        let samples = past_samples(&mut rng);
        assert_eq!(samples.len(), 18, "sample list must cover every variant");
        for (i, m) in samples.iter().enumerate() {
            assert_eq!(wire_tag(m), i as u8, "samples out of wire-tag order");
            let what = format!("PastMsg tag {i} (round {round})");
            assert_roundtrip(m, &what);
            assert_eq!(
                m.encoded_len(),
                m.to_wire().len() as u64,
                "{what}: encoded_len() lies"
            );
            assert_eq!(m.to_wire()[1], i as u8, "{what}: kind byte");
        }
    }
}

#[test]
fn baseline_variants_roundtrip_and_size_honestly() {
    let mut rng = Rng::seed_from_u64(0x3133_0003);
    for round in 0..64 {
        let c = chord_sample(&mut rng);
        assert_roundtrip(&c, &format!("ChordMsg (round {round})"));
        assert_eq!(c.wire_size(), c.to_wire().len() as u64);
        let a = can_sample(&mut rng);
        assert_roundtrip(&a, &format!("CanMsg (round {round})"));
        assert_eq!(a.wire_size(), a.to_wire().len() as u64);
    }
}

/// The size floors, pinned, and every fixed-size structure encodes to
/// exactly its floor: the certificates and receipts of §2.1, the node
/// handle, the signature and an envelope around an empty payload.
#[test]
fn fixed_size_structs_encode_to_exactly_their_min_wire_len() {
    assert_eq!(CardCert::MIN_WIRE_LEN, 128);
    assert_eq!(FileCertificate::MIN_WIRE_LEN, 269);
    assert_eq!(StoreReceipt::MIN_WIRE_LEN, 221);
    assert_eq!(ReclaimReceipt::MIN_WIRE_LEN, 220);
    assert_eq!(ReclaimCertificate::MIN_WIRE_LEN, 212);
    assert_eq!(NodeHandle::MIN_WIRE_LEN, 24);
    assert_eq!(Signature::MIN_WIRE_LEN, 64);
    assert_eq!(RouteEnvelope::<()>::MIN_WIRE_LEN, 36);

    fn exact<T: Wire + std::fmt::Debug>(v: &T, what: &str) {
        assert_roundtrip(v, what);
        assert_eq!(v.to_wire().len(), T::MIN_WIRE_LEN, "{what}: not fixed-size");
    }
    let mut rng = Rng::seed_from_u64(0x3133_0009);
    for round in 0..16 {
        let size = rng.random();
        exact(&card(&mut rng), &format!("CardCert (round {round})"));
        exact(
            &fcert(&mut rng, size),
            &format!("FileCertificate (round {round})"),
        );
        exact(&receipt(&mut rng), &format!("StoreReceipt (round {round})"));
        exact(
            &rreceipt(&mut rng),
            &format!("ReclaimReceipt (round {round})"),
        );
        exact(
            &rcert(&mut rng),
            &format!("ReclaimCertificate (round {round})"),
        );
        exact(&handle(&mut rng), &format!("NodeHandle (round {round})"));
        exact(&sig(&mut rng), &format!("Signature (round {round})"));
        exact(
            &RouteEnvelope {
                key: Id(rng.random::<u128>()),
                payload: (),
                origin: rng.random_range(0..512),
                hops: rng.random_range(0..8) as u32,
                path_us: rng.random(),
            },
            &format!("RouteEnvelope<()> (round {round})"),
        );
    }
}

#[test]
fn nested_past_in_pastry_roundtrips() {
    // The deployment frame: a PAST message riding a Pastry route.
    let mut rng = Rng::seed_from_u64(0x3133_0004);
    for m in past_samples(&mut rng) {
        let framed = PastryMsg::Route(RouteEnvelope {
            key: Id(rng.random::<u64>() as u128),
            payload: m,
            origin: 3,
            hops: 2,
            path_us: 77,
        });
        assert_roundtrip(&framed, "PastryMsg::Route(PastMsg)");
        assert_eq!(framed.wire_size(), framed.to_wire().len() as u64);
    }
}

/// The engine carries a message whose kind `fieldless` answers as the
/// kind id alone. Under the deployment payload, every kind must answer
/// exactly when its frame is the bare `[version, kind]` header, and
/// rebuild that frame (`pastry/src/msg.rs` checks `()` and `u32`).
#[test]
fn fieldless_kinds_are_exactly_the_past_frames_without_a_body() {
    let mut rng = Rng::seed_from_u64(0x3133_0008);
    // The corpus holds every kind (`corpus` checks).
    let msgs: Vec<PastryMsg<PastMsg>> = corpus(&mut rng)
        .iter()
        .filter_map(|f| match f {
            Frame::Pastry(b) => Some(PastryMsg::decode(b).expect("corpus frame decodes").0),
            Frame::Past(_) | Frame::Chord(_) | Frame::Can(_) => None,
        })
        .collect();
    for m in &msgs {
        let frame = m.to_wire();
        let rebuilt = <PastryMsg<PastMsg> as Message>::fieldless(m.kind_id());
        assert_eq!(
            rebuilt.is_some(),
            frame.len() == 2,
            "{}: {}-byte frame",
            m.kind(),
            frame.len()
        );
        if let Some(r) = rebuilt {
            assert_eq!(r.kind_id(), m.kind_id());
            assert_eq!(r.to_wire(), frame, "{}: rebuilt frame differs", m.kind());
        }
    }
}

/// The engine's per-kind counters, the trace and the metrics look a
/// kind up by its label, so no kind table may list a label twice.
#[test]
fn every_kind_table_has_distinct_labels() {
    for kinds in [
        <PastryMsg<PastMsg> as Message>::KINDS,
        ChordMsg::KINDS,
        CanMsg::KINDS,
    ] {
        let distinct: std::collections::BTreeSet<&str> = kinds.iter().copied().collect();
        assert_eq!(distinct.len(), kinds.len(), "a label repeats in {kinds:?}");
    }
}

// --------------------------------------------------------- fuzzing

enum Frame {
    Pastry(Vec<u8>),
    Past(Vec<u8>),
    Chord(Vec<u8>),
    Can(Vec<u8>),
}

impl Frame {
    fn bytes(&self) -> &[u8] {
        match self {
            Frame::Pastry(b) | Frame::Past(b) | Frame::Chord(b) | Frame::Can(b) => b,
        }
    }

    /// Decoding must be total: `Ok` or a typed error, never a panic.
    /// A successful decode never claims more bytes than it got, and the
    /// message it returns re-encodes to exactly the bytes it claimed —
    /// outside the content body, which the decoder skips and the
    /// simulator's message value does not hold (it re-encodes as filler).
    fn try_decode(&self, buf: &[u8]) -> Result<usize, DecodeError> {
        fn canonical<T: Wire>(
            buf: &[u8],
            body: impl Fn(&T) -> Option<(usize, u64)>,
        ) -> Result<usize, DecodeError> {
            let (m, used) = T::decode(buf)?;
            assert!(used <= buf.len(), "decode claimed {used} of {}", buf.len());
            let mut claimed = buf[..used].to_vec();
            if let Some((at, len)) = body(&m) {
                claimed[at..at + len as usize].fill(0);
            }
            assert!(m.to_wire() == claimed, "accepted frame is not canonical");
            Ok(used)
        }
        match self {
            Frame::Pastry(_) => canonical(buf, |m: &PastryMsg<PastMsg>| match m {
                // header(2) key(16) origin(8) hops(4) path_us(8)
                PastryMsg::Route(env) => body_span(&env.payload).map(|(at, n)| (38 + at, n)),
                PastryMsg::AppDirect { payload } => body_span(payload).map(|(at, n)| (2 + at, n)),
                _ => None,
            }),
            Frame::Past(_) => canonical(buf, body_span),
            Frame::Chord(_) => canonical(buf, |_: &ChordMsg| None),
            Frame::Can(_) => canonical(buf, |_: &CanMsg| None),
        }
    }
}

/// Where a PAST frame carries its content body: `(offset, length)`.
fn body_span(m: &PastMsg) -> Option<(usize, u64)> {
    match m {
        // header(2) cert(269) content hash(32) size(8)
        PastMsg::Insert { content, .. }
        | PastMsg::Replicate { content, .. }
        | PastMsg::DivertStore { content, .. } => Some((311, content.size)),
        // header(2) cert(269) from_cache(1) op(8)
        PastMsg::FileReply { cert, .. } => Some((280, cert.size)),
        PastMsg::CachePush { cert } => Some((271, cert.size)),
        _ => None,
    }
}

fn corpus(rng: &mut Rng) -> Vec<Frame> {
    let mut out: Vec<Frame> = Vec::new();
    // Every Pastry kind, with the PAST payload type plugged in: each PAST
    // sample routed and sent direct, then the maintenance frames.
    let mut pastry: Vec<PastryMsg<PastMsg>> = Vec::new();
    for m in past_samples(rng) {
        pastry.push(PastryMsg::Route(RouteEnvelope {
            key: Id(rng.random::<u64>() as u128),
            payload: m.clone(),
            origin: 1,
            hops: 0,
            path_us: 0,
        }));
        pastry.push(PastryMsg::AppDirect { payload: m.clone() });
        out.push(Frame::Past(m.to_wire()));
    }
    pastry.extend([
        PastryMsg::JoinRequest(Box::new(JoinRequest {
            joiner: handle(rng),
            rows: handles(rng, 6),
            rows_done: 3,
            hops: 2,
        })),
        PastryMsg::JoinReply(Box::new(JoinReply {
            z: handle(rng),
            rows: handles(rng, 6),
            leaf: handles(rng, 4),
            hops: 3,
        })),
        PastryMsg::NeighborhoodRequest,
        PastryMsg::NeighborhoodReply {
            members: handles(rng, 4),
        },
        PastryMsg::Announce { from: handle(rng) },
        PastryMsg::LeafRequest,
        PastryMsg::LeafReply {
            members: handles(rng, 8),
        },
        PastryMsg::RowRequest { row: 4 },
        PastryMsg::RowReply {
            entries: handles(rng, 3),
        },
        PastryMsg::RepairRequest { row: 2, col: 9 },
        PastryMsg::RepairReply {
            entry: Some(handle(rng)),
        },
        PastryMsg::Heartbeat,
        PastryMsg::HeartbeatAck,
    ]);
    // So the fuzzer mutates every kind's read arm.
    let kinds: std::collections::BTreeSet<usize> = pastry.iter().map(|m| m.kind_id()).collect();
    assert_eq!(
        kinds.len(),
        <PastryMsg<PastMsg> as Message>::KINDS.len(),
        "the corpus must hold every Pastry kind"
    );
    out.extend(pastry.iter().map(|m| Frame::Pastry(m.to_wire())));
    out.push(Frame::Chord(chord_sample(rng).to_wire()));
    out.push(Frame::Can(can_sample(rng).to_wire()));
    out
}

#[test]
fn decode_never_panics_on_mutated_frames() {
    let mut rng = Rng::seed_from_u64(0xf022_1234_5678_9abc);
    let corpus = corpus(&mut rng);
    let mut attempts = 0u64;
    let mut oks = 0u64;
    let mut errs = 0u64;

    // Systematic truncation: every prefix of every corpus frame.
    for frame in &corpus {
        let b = frame.bytes();
        for cut in 0..=b.len() {
            attempts += 1;
            match frame.try_decode(&b[..cut]) {
                Ok(_) => oks += 1,
                Err(_) => errs += 1,
            }
        }
    }

    // Randomized mutations: bit flips, byte splices, length-prefix
    // forgeries, random garbage.
    for _ in 0..12_000 {
        attempts += 1;
        let frame = &corpus[rng.random_range(0..corpus.len() as u64) as usize];
        let mut b = frame.bytes().to_vec();
        match rng.random_range(0..4) {
            0 => {
                // Flip 1..=8 random bits.
                for _ in 0..rng.random_range(1..=8) {
                    let i = rng.random_range(0..b.len() as u64) as usize;
                    b[i] ^= 1u8 << rng.random_range(0u32..8);
                }
            }
            1 => {
                // Overwrite a random 4-byte window with a forged length.
                if b.len() >= 4 {
                    let i = rng.random_range(0..b.len() - 3);
                    let forged = rng.random::<u32>().to_le_bytes();
                    b[i..i + 4].copy_from_slice(&forged);
                }
            }
            2 => {
                // Truncate at a random point, then flip one bit.
                let cut = rng.random_range(0..=b.len() as u64) as usize;
                b.truncate(cut);
                if !b.is_empty() {
                    let i = rng.random_range(0..b.len() as u64) as usize;
                    b[i] ^= 1u8 << rng.random_range(0u32..8);
                }
            }
            _ => {
                // Replace the whole frame with random garbage of the
                // same length (first two bytes kept half the time so
                // the mutation reaches past the header checks).
                let keep_header = rng.random_range(0..2) == 1;
                let start = if keep_header { 2.min(b.len()) } else { 0 };
                for x in b[start..].iter_mut() {
                    *x = rng.random_range(0..256) as u8;
                }
            }
        }
        match frame.try_decode(&b) {
            Ok(_) => oks += 1,
            Err(_) => errs += 1,
        }
    }

    assert!(attempts >= 10_000, "fuzz corpus too small: {attempts}");
    assert!(errs > 0, "mutations never produced a decode error?");
    assert!(oks > 0, "even pristine prefixes never decoded?");
}

#[test]
fn typed_errors_name_the_failure() {
    let mut rng = Rng::seed_from_u64(0x3133_0005);
    let m = past_samples(&mut rng).remove(11); // LookupMiss: compact frame
    let bytes = m.to_wire();
    assert!(matches!(
        PastMsg::decode(&bytes[..bytes.len() - 1]).unwrap_err(),
        DecodeError::Truncated
    ));
    let mut bad_ver = bytes.clone();
    bad_ver[0] = WIRE_VERSION + 1;
    assert!(matches!(
        PastMsg::decode(&bad_ver).unwrap_err(),
        DecodeError::BadVersion(v) if v == WIRE_VERSION + 1
    ));
    let mut bad_kind = bytes.clone();
    bad_kind[1] = 18;
    assert!(matches!(
        PastMsg::decode(&bad_kind).unwrap_err(),
        DecodeError::UnknownKind(18)
    ));
    // The first kind byte past each enum's last variant.
    assert_eq!(
        PastryMsg::<PastMsg>::decode(&[WIRE_VERSION, 15]).unwrap_err(),
        DecodeError::UnknownKind(15)
    );
    let mut chord = chord_sample(&mut rng).to_wire();
    chord[1] = 1;
    assert_eq!(
        ChordMsg::decode(&chord).unwrap_err(),
        DecodeError::UnknownKind(1)
    );
    let mut can = can_sample(&mut rng).to_wire();
    can[1] = 1;
    assert_eq!(
        CanMsg::decode(&can).unwrap_err(),
        DecodeError::UnknownKind(1)
    );
    // A forged vector length that multiplies past the buffer.
    let lk = PastMsg::Lookup {
        file_id: FileId(d160(&mut rng)),
        client: 1,
        path: addrs(&mut rng, 2),
        redirected: false,
        op: OpId(9),
    };
    let mut bytes = lk.to_wire();
    let off = 2 + 20 + 8; // header, file_id, client — the path length prefix
    bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        PastMsg::decode(&bytes).unwrap_err(),
        DecodeError::LengthOverflow
    ));
}

/// A bool byte is `0` or `1`: a `Lookup` frame whose `redirected` byte
/// is `2` used to decode to the same message as the frame with `1`.
#[test]
fn non_canonical_bool_is_rejected() {
    let mut rng = Rng::seed_from_u64(0x3133_0006);
    let lk = PastMsg::Lookup {
        file_id: FileId(d160(&mut rng)),
        client: 1,
        path: addrs(&mut rng, 2),
        redirected: true,
        op: OpId(9),
    };
    let mut bytes = lk.to_wire();
    let off = 2 + 20 + 8 + 4 + 2 * 8; // header, file_id, client, path
    assert_eq!(bytes[off], 1, "offset of the `redirected` byte");
    assert!(PastMsg::decode(&bytes).is_ok());
    bytes[off] = 2;
    assert_eq!(
        PastMsg::decode(&bytes).unwrap_err(),
        DecodeError::UnknownKind(2)
    );
}

/// `encoded_len` counts a content body with one addition. Were the
/// counting sink ever handed the body's bytes, these terabyte bodies
/// would abort the test on allocation.
#[test]
fn encoded_len_never_materialises_a_body() {
    const BODY: u64 = 1 << 40;
    let mut rng = Rng::seed_from_u64(0x3133_0007);
    assert_eq!(content(&mut rng, BODY).encoded_len(), 40 + BODY);
    let reply = PastMsg::FileReply {
        cert: fcert(&mut rng, BODY).into(),
        from_cache: false,
        op: OpId(3),
    };
    // header(2) cert(269) from_cache(1) op(8), then the body.
    assert_eq!(reply.encoded_len(), 280 + BODY);
    let push = PastMsg::CachePush {
        cert: fcert(&mut rng, BODY).into(),
    };
    assert_eq!(push.encoded_len(), 271 + BODY);
    let routed = PastryMsg::Route(RouteEnvelope {
        key: Id(1),
        payload: push,
        origin: 0,
        hops: 0,
        path_us: 0,
    });
    assert_eq!(routed.wire_size(), 2 + 36 + 271 + BODY);
}

// ---------------------------------------------------- golden vectors

/// Deterministic fixture values (no RNG): byte-for-byte stable input
/// for the golden vectors.
fn fixed_rng() -> Rng {
    Rng::seed_from_u64(0x601D_601D_601D_601D)
}

/// One frame of every kind across all four enums, deterministic.
fn golden_frames() -> Vec<(String, Vec<u8>)> {
    let mut rng = fixed_rng();
    let mut out: Vec<(String, Vec<u8>)> = Vec::new();
    for m in pastry_samples(&mut rng) {
        let name = format!("pastry/{}", <PastryMsg<u64> as Message>::KINDS[m.kind_id()]);
        out.push((name, m.to_wire()));
    }
    for (i, m) in past_samples(&mut rng).into_iter().enumerate() {
        out.push((format!("past/{i:02}"), m.to_wire()));
    }
    out.push(("chord/lookup".to_string(), chord_sample(&mut rng).to_wire()));
    out.push(("can/lookup".to_string(), can_sample(&mut rng).to_wire()));
    out
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// Every kind, pinned by length + SHA-256 (an in-tree primitive): any
/// layout change — field order, endianness, header — moves the digest
/// even when the frame still round-trips.
#[test]
fn golden_frame_digests() {
    use past::crypto::sha256::sha256;
    let actual: Vec<String> = golden_frames()
        .iter()
        .map(|(name, b)| format!("{name} len={} sha256={}", b.len(), hex(&sha256(b)[..8])))
        .collect();
    let expected = [
        "pastry/route len=46 sha256=9977bde9dab2e79f",
        "pastry/join_request len=156 sha256=3509c18758fb97ed",
        "pastry/join_reply len=206 sha256=fcf834f165fc56e4",
        "pastry/neighborhood_request len=2 sha256=c79b932e1e1da3c0",
        "pastry/neighborhood_reply len=78 sha256=facf0d549aae0bd6",
        "pastry/announce len=26 sha256=d4f6d816c3164444",
        "pastry/leaf_request len=2 sha256=44602a999abbebed",
        "pastry/leaf_reply len=150 sha256=ffb8c408a243513c",
        "pastry/row_request len=4 sha256=ca1f56439c793997",
        "pastry/row_reply len=54 sha256=20f128094a500324",
        "pastry/repair_request len=6 sha256=06b3f2e29f39e10c",
        "pastry/repair_reply len=3 sha256=ea462d1fc991f412",
        "pastry/heartbeat len=2 sha256=6b6daa8334bbcc8f",
        "pastry/heartbeat_ack len=2 sha256=c7b89cfb9abf2c4c",
        "pastry/app_direct len=10 sha256=ff819f080cc6729f",
        "past/00 len=1668 sha256=2329605df330d9bd",
        "past/01 len=67 sha256=ba3582e609c473aa",
        "past/02 len=230 sha256=5edf7c75400cd45a",
        "past/03 len=1661 sha256=85f4f0b8a9b99971",
        "past/04 len=1676 sha256=930f805f4ab2b1e1",
        "past/05 len=30 sha256=a766b29f3ec18111",
        "past/06 len=30 sha256=eaf3e4cbb60fc4e3",
        "past/07 len=231 sha256=85834dec9e3ab527",
        "past/08 len=31 sha256=27b5c3fc71919611",
        "past/09 len=75 sha256=94c6e57111fbbead",
        "past/10 len=1621 sha256=3396ec58c44306aa",
        "past/11 len=30 sha256=c9006aaacfb60e2f",
        "past/12 len=230 sha256=ba3333ab1708a7f7",
        "past/13 len=230 sha256=2972240bfdb39247",
        "past/14 len=30 sha256=034e365857457ef5",
        "past/15 len=1612 sha256=4b26735ead955c70",
        "past/16 len=30 sha256=2faa6c43a26437cf",
        "past/17 len=55 sha256=e5dc4b99b758c7a6",
        "chord/lookup len=39 sha256=a4c35c597dd19112",
        "can/lookup len=34 sha256=5e2e0d884261919f",
    ];
    assert_eq!(actual.len(), 35, "one golden frame per kind");
    for (a, e) in actual.iter().zip(expected.iter()) {
        assert_eq!(a, e, "golden frame moved");
    }
    assert_eq!(actual.len(), expected.len());
}

/// Full hex for a handful of compact frames: human-checkable layout
/// documentation (version byte, kind byte, little-endian fields).
#[test]
fn golden_hex_small_frames() {
    let heartbeat: PastryMsg<u64> = PastryMsg::Heartbeat;
    assert_eq!(hex(&heartbeat.to_wire()), "010c");
    let row_req: PastryMsg<u64> = PastryMsg::RowRequest { row: 5 };
    assert_eq!(hex(&row_req.to_wire()), "01080500");
    let announce: PastryMsg<u64> = PastryMsg::Announce {
        from: NodeHandle {
            id: Id(0x0102030405060708090a0b0c0d0e0f10),
            addr: 0x2a,
        },
    };
    assert_eq!(
        hex(&announce.to_wire()),
        // ver kind id-le(16) addr-le(8)
        "0105100f0e0d0c0b0a0908070605040302012a00000000000000"
    );
    let chord = ChordMsg::Lookup(ChordLookup {
        key: Id(1),
        origin: 2,
        hops: 3,
        path_us: 4,
        terminal: true,
    });
    assert_eq!(
        hex(&chord.to_wire()),
        "010001000000000000000000000000000000020000000000000003000000040000000000000001"
    );
    let audit = PastMsg::AuditChallenge {
        file_id: FileId(Digest160([0xaa; 20])),
        nonce: 0x0102030405060708,
    };
    assert_eq!(
        hex(&audit.to_wire()),
        "0110aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa0807060504030201"
    );
}
