//! The client-request lifecycle, stepped without an engine.
//!
//! A `PastryNode<PastApp>` is driven by `PastryNode::step` with a
//! `StepIo` effect collector — no simulator, no clock. App timers arrive
//! as `Input::Timer { kind: APP_TIMER_BASE + token }`, responses as
//! `PastryMsg::AppDirect`. One table covers the three client operations
//! (and the cleanup reclaim a failed insert attempt issues for itself):
//! begin → transmit → retransmit → conclude is one code path, so it is
//! one test.

use past_core::{Broker, ContentRef, PastApp, PastConfig, PastMsg, PastOut, Request, Smartcard};
use past_crypto::rng::Rng;
use past_netsim::{OpId, Tracer};
use past_pastry::{
    Config, Effect, Id, Input, NodeHandle, PastryMsg, PastryNode, PastryOut, PayloadSize, StepIo,
    Wire, APP_TIMER_BASE,
};

type Msg = PastryMsg<PastMsg>;
type Effects = Vec<Effect<Msg, PastryOut<PastOut>>>;

const ME: usize = 1;
const TIMEOUT_US: u64 = 1_000;
const ATTEMPTS: u32 = 3;

/// A lone node with the retry layer on, plus the card of a storage node
/// (same broker) to sign the responses with.
fn fixture() -> (PastryNode<PastApp>, Smartcard) {
    let cfg = PastConfig {
        request_timeout_us: Some(TIMEOUT_US),
        request_attempts: ATTEMPTS,
        // One attempt: a timed-out insert fails instead of re-salting.
        max_insert_attempts: 1,
        ..PastConfig::default()
    };
    let mut broker = Broker::new(b"lifecycle");
    let card = broker.issue_card(b"client", 1 << 30, 0);
    let storer = broker.issue_card(b"storer", 1 << 30, 1 << 30);
    let me = NodeHandle {
        id: Id(0x1111),
        addr: ME,
    };
    let app = PastApp::new(cfg, card, 1 << 30, &broker);
    (PastryNode::new(Config::default(), me, app), storer)
}

fn step(node: &mut PastryNode<PastApp>, input: Input<Msg>) -> Effects {
    let mut rng = Rng::seed_from_u64(7);
    let mut tracer = Tracer::default();
    let mut effects = Vec::new();
    let prox = |_a: usize, _b: usize| 1_000u64;
    let mut io = StepIo {
        now_us: 1_000_000,
        me: ME,
        rng: &mut rng,
        tracer: &mut tracer,
        proximity: &prox,
        effects: &mut effects,
    };
    node.step(input, &mut io);
    effects
}

fn fire(node: &mut PastryNode<PastApp>, token: u64) -> Effects {
    step(
        node,
        Input::Timer {
            kind: APP_TIMER_BASE + token,
        },
    )
}

fn outputs(effects: &Effects) -> Vec<&PastOut> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::Out(PastryOut::App(out)) => Some(out),
            _ => None,
        })
        .collect()
}

/// The answer a storage node would give to `frame`.
fn response(frame: &PastMsg, storer: &mut Smartcard, content: &ContentRef) -> PastMsg {
    let op = frame.op_id();
    match frame {
        PastMsg::Insert { cert, .. } => PastMsg::StoreAck {
            receipt: storer.issue_store_receipt(&cert.file_id, cert.size, false),
            op,
        },
        PastMsg::Lookup { .. } => PastMsg::FileReply {
            cert: storer
                .issue_file_certificate("held", content, 1, 0, 0)
                .expect("quota")
                .into(),
            from_cache: false,
            op,
        },
        PastMsg::Reclaim { rcert, .. } => PastMsg::ReclaimAck {
            receipt: storer.issue_reclaim_receipt(&rcert.file_id, content.size),
            op,
        },
        other => panic!("not a client frame: {other:?}"),
    }
}

#[test]
fn every_client_request_lives_the_same_life() {
    let content = ContentRef::synthetic(0, "held", 4_096);
    // A file the storer's card owns: what lookups and reclaims name.
    let held = fixture()
        .1
        .issue_file_certificate("held", &content, 1, 0, 0)
        .expect("quota")
        .file_id;
    type Make = fn(&mut PastApp, past_core::FileId, ContentRef) -> Request;
    type Failure = fn(&PastOut) -> bool;
    // (name, how the request is made, the failure a timeout reports).
    let table: [(&str, Make, Option<Failure>); 4] = [
        (
            "insert",
            |app, _, content| {
                let made = app.insert_request("mine", content, 1, 0, OpId(7));
                made.expect("quota").1
            },
            Some(|out| matches!(out, PastOut::InsertFailed { attempts: 1, .. })),
        ),
        (
            "lookup",
            |_, held, _| Request::lookup(held, 0, OpId(8)),
            Some(|out| matches!(out, PastOut::LookupFailed { .. })),
        ),
        (
            "reclaim",
            |app, held, _| app.reclaim_request(held, OpId(9)),
            Some(|out| matches!(out, PastOut::ReclaimFailed { .. })),
        ),
        // A failed insert attempt's own cleanup: fails silently.
        (
            "cleanup reclaim",
            |app, held, _| app.reclaim_request(held, OpId::NONE),
            None,
        ),
    ];
    for (name, make, failure) in table {
        // Unanswered: the same bytes go out again under a doubled
        // deadline, and the last timeout reports the failure once.
        let (mut node, _) = fixture();
        let req = make(&mut node.app, held, content);
        let (first, timer) = node.app.begin(ME, req);
        let (mut token, delay) = timer.expect("the retry layer arms a timer");
        assert_eq!(delay, TIMEOUT_US, "{name}");
        for sends in 2..=ATTEMPTS {
            match &fire(&mut node, token)[..] {
                [Effect::Send {
                    to: ME,
                    msg: PastryMsg::Route(env),
                    ..
                }, Effect::Timer { delay_us, kind }] => {
                    assert_eq!(env.payload.to_wire(), first.to_wire(), "{name}");
                    assert_eq!(*delay_us, TIMEOUT_US << (sends - 1), "{name}");
                    token = kind - APP_TIMER_BASE;
                }
                other => panic!("{name}: transmission {sends} produced {other:?}"),
            }
        }
        let last = fire(&mut node, token);
        match (&outputs(&last)[..], failure) {
            ([], None) => {}
            ([out], Some(is_failure)) => assert!(is_failure(out), "{name}: {out:?}"),
            (outs, _) => panic!("{name}: the last timeout reported {outs:?}"),
        }
        assert_eq!(node.app.pending_insert_count(), 0, "{name}");
        assert!(
            fire(&mut node, token).is_empty(),
            "{name}: a timer fired twice"
        );

        // Answered: one output; the duplicated answer and the timer
        // that outlives the request find nothing.
        let (mut node, mut storer) = fixture();
        let req = make(&mut node.app, held, content);
        let (frame, timer) = node.app.begin(ME, req);
        let (token, _) = timer.expect("the retry layer arms a timer");
        let answer = Input::Message {
            from: 9,
            msg: PastryMsg::AppDirect {
                payload: response(&frame, &mut storer, &content),
            },
        };
        let answered = step(&mut node, answer.clone());
        assert_eq!(outputs(&answered).len(), 1, "{name}: {answered:?}");
        let duplicate = step(&mut node, answer);
        assert!(duplicate.is_empty(), "{name}: {duplicate:?}");
        let late = fire(&mut node, token);
        assert!(late.is_empty(), "{name}: {late:?}");
    }
}

#[test]
fn a_store_ack_after_insert_ok_changes_nothing() {
    // A late or duplicated receipt for a concluded insert is dropped
    // before any signature is checked: no output, no quota movement —
    // also for a zero-`stored` receipt, which a pending insert would
    // credit back.
    let content = ContentRef::synthetic(0, "acked", 4_096);
    let (mut node, storer) = fixture();
    let (_, req) = node
        .app
        .insert_request("acked", content, 1, 0, OpId(11))
        .expect("quota");
    let (frame, _) = node.app.begin(ME, req);
    let PastMsg::Insert { cert, .. } = &frame else {
        panic!("not an insert: {frame:?}");
    };
    let ack = |stored| Input::Message {
        from: 9,
        msg: PastryMsg::AppDirect {
            payload: PastMsg::StoreAck {
                receipt: storer.issue_store_receipt(&cert.file_id, stored, false),
                op: frame.op_id(),
            },
        },
    };
    let answered = step(&mut node, ack(content.size));
    assert!(
        matches!(
            outputs(&answered)[..],
            [PastOut::InsertOk { receipts: 1, .. }]
        ),
        "{answered:?}"
    );
    let card = |node: &PastryNode<PastApp>| {
        let card = &node.app.card;
        (
            card.quota_remaining(),
            card.debited_total(),
            card.credited_total(),
        )
    };
    let settled = card(&node);
    for stored in [content.size, 0] {
        let late = step(&mut node, ack(stored));
        assert!(late.is_empty(), "stored {stored}: {late:?}");
        assert_eq!(card(&node), settled, "stored {stored}");
    }
}
