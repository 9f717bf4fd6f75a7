//! Workspace-wide randomized property tests of core invariants.
//!
//! Formerly written against the external `proptest` crate; now driven by
//! the in-tree deterministic RNG (`past::crypto::rng`) so the whole test
//! suite builds and runs with zero registry access. Each test draws a
//! fixed number of cases from a fixed seed, so failures reproduce
//! exactly; to explore more of the space, bump `CASES` locally.

use past::core::{ContentRef, ReplicaKind, Store};
use past::crypto::modmath::{addmod, mulmod, powmod, rem256};
use past::crypto::rng::Rng;
use past::crypto::schnorr::{group_p, group_q, KeyPair};
use past::crypto::sha256::{sha256, Sha256};
use past::crypto::u256::U256;
use past::pastry::{next_hop, Config, Id, LeafSet, NextHop, NodeHandle, PastryState};

/// Cases per property (roughly proptest's default budget).
const CASES: usize = 256;

fn rand_u256(rng: &mut Rng) -> U256 {
    U256([rng.random(), rng.random(), rng.random(), rng.random()])
}

fn rand_bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let len = rng.random_range(0..=max_len);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

// ---------------- u256 / modular arithmetic ------------------------

#[test]
fn u256_add_commutes() {
    let mut rng = Rng::seed_from_u64(0x0256_0001);
    for _ in 0..CASES {
        let (a, b) = (rand_u256(&mut rng), rand_u256(&mut rng));
        assert_eq!(a.overflowing_add(&b), b.overflowing_add(&a));
    }
}

#[test]
fn u256_add_sub_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x0256_0002);
    for _ in 0..CASES {
        let (a, b) = (rand_u256(&mut rng), rand_u256(&mut rng));
        let (sum, _) = a.overflowing_add(&b);
        let (back, _) = sum.overflowing_sub(&b);
        assert_eq!(back, a);
    }
}

#[test]
fn u256_mul_commutes() {
    let mut rng = Rng::seed_from_u64(0x0256_0003);
    for _ in 0..CASES {
        let a = U256([rng.random(), rng.random(), 0, 0]);
        let b = U256([rng.random(), rng.random(), 0, 0]);
        assert_eq!(a.widening_mul(&b).0, b.widening_mul(&a).0);
    }
}

#[test]
fn u256_bytes_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x0256_0004);
    for _ in 0..CASES {
        let a = rand_u256(&mut rng);
        assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
    }
}

#[test]
fn modmath_matches_u128() {
    let mut rng = Rng::seed_from_u64(0x0256_0005);
    for _ in 0..CASES {
        // Compare against native arithmetic in a u64 modulus.
        let a: u128 = rng.random();
        let b: u128 = rng.random();
        let m: u64 = rng.random_range(2..u64::MAX);
        let m256 = U256::from_u64(m);
        let am = (a % m as u128) as u64;
        let bm = (b % m as u128) as u64;
        let a256 = U256::from_u64(am);
        let b256 = U256::from_u64(bm);
        assert_eq!(
            addmod(&a256, &b256, &m256),
            U256::from_u64(((am as u128 + bm as u128) % m as u128) as u64)
        );
        assert_eq!(
            mulmod(&a256, &b256, &m256),
            U256::from_u64(((am as u128 * bm as u128) % m as u128) as u64)
        );
    }
}

#[test]
fn fermat_inverse_in_group() {
    let mut rng = Rng::seed_from_u64(0x0256_0006);
    let p = group_p();
    let (p_minus_2, _) = p.overflowing_sub(&U256::from_u64(2));
    for _ in 0..CASES {
        let x = rem256(&rand_u256(&mut rng), &p);
        if !x.is_zero() {
            let inv = powmod(&x, &p_minus_2, &p);
            assert_eq!(mulmod(&x, &inv, &p), U256::ONE);
        }
    }
}

#[test]
fn powmod_homomorphism() {
    let mut rng = Rng::seed_from_u64(0x0256_0007);
    let p = group_p();
    let g = U256::from_u64(4);
    for _ in 0..64 {
        // g^(e1+e2) == g^e1 * g^e2 (mod p).
        let e1: u64 = rng.random_range(0..1_000_000);
        let e2: u64 = rng.random_range(0..1_000_000);
        let lhs = powmod(&g, &U256::from_u64(e1 + e2), &p);
        let rhs = mulmod(
            &powmod(&g, &U256::from_u64(e1), &p),
            &powmod(&g, &U256::from_u64(e2), &p),
            &p,
        );
        assert_eq!(lhs, rhs);
    }
}

// ---------------- hashing ------------------------------------------

#[test]
fn sha256_incremental_equals_oneshot() {
    let mut rng = Rng::seed_from_u64(0x0256_0008);
    for _ in 0..CASES {
        let data = rand_bytes(&mut rng, 512);
        let split = rng.random_range(0..=data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), sha256(&data));
    }
}

#[test]
fn sha256_is_deterministic_and_sensitive() {
    let mut rng = Rng::seed_from_u64(0x0256_0009);
    for _ in 0..CASES {
        let mut data = rand_bytes(&mut rng, 255);
        data.push(rng.random()); // at least one byte
        let flip = rng.random_range(0..data.len());
        let mut tampered = data.clone();
        tampered[flip] ^= 1;
        assert_eq!(sha256(&data), sha256(&data));
        assert_ne!(sha256(&data), sha256(&tampered));
    }
}

// ---------------- signatures ----------------------------------------

#[test]
fn schnorr_roundtrip_and_tamper() {
    let mut rng = Rng::seed_from_u64(0x0256_000a);
    for _ in 0..32 {
        let mut seed = rand_bytes(&mut rng, 31);
        seed.push(rng.random()); // non-empty
        let msg = rand_bytes(&mut rng, 128);
        let kp = KeyPair::from_seed(&seed);
        let sig = kp.sign(&msg);
        assert!(kp.public.verify(&msg, &sig));
        let mut tampered = msg.clone();
        tampered.push(0x55);
        assert!(!kp.public.verify(&tampered, &sig));
        // Response scalar must stay below q.
        assert!(sig.response < group_q());
    }
}

// ---------------- identifiers ---------------------------------------

#[test]
fn id_prefix_len_is_symmetric_and_bounded() {
    let mut rng = Rng::seed_from_u64(0x0256_000b);
    for case in 0..CASES {
        let a: u128 = rng.random();
        // Half the cases flip one bit of `a` to exercise long shared
        // prefixes, which independent draws would essentially never hit.
        let b: u128 = if case % 2 == 0 {
            rng.random()
        } else {
            a ^ (1u128 << rng.random_range(0..128u32))
        };
        let (x, y) = (Id(a), Id(b));
        let p = x.prefix_len(&y, 4);
        assert_eq!(p, y.prefix_len(&x, 4));
        assert!(p <= 32);
        if a == b {
            assert_eq!(p, 32);
        }
        // Shared prefix means equal leading digits.
        for i in 0..p.min(31) {
            assert_eq!(x.digit(i, 4), y.digit(i, 4));
        }
        if p < 32 {
            assert_ne!(x.digit(p, 4), y.digit(p, 4));
        }
    }
}

#[test]
fn ring_distance_is_a_metric() {
    let mut rng = Rng::seed_from_u64(0x0256_000c);
    for _ in 0..CASES {
        let a: u128 = rng.random();
        let b: u128 = rng.random();
        let (x, y) = (Id(a), Id(b));
        assert_eq!(x.ring_dist(&y), y.ring_dist(&x));
        assert_eq!(x.ring_dist(&x), 0);
        assert!(x.ring_dist(&y) <= u128::MAX / 2 + 1);
        if a != b {
            assert!(x.ring_dist(&y) > 0);
        }
    }
}

// ---------------- leaf set -------------------------------------------

#[test]
fn leafset_keeps_the_closest() {
    let mut rng = Rng::seed_from_u64(0x0256_000d);
    for _ in 0..CASES {
        let own: u128 = rng.random();
        let count = rng.random_range(1..40usize);
        let mut others: Vec<u128> = (0..count).map(|_| rng.random()).collect();
        others.sort_unstable();
        others.dedup();
        let mut ls = LeafSet::new(Id(own), 8);
        let handles: Vec<NodeHandle> = others
            .iter()
            .filter(|&&id| id != own)
            .enumerate()
            .map(|(i, &id)| NodeHandle::new(Id(id), i + 1))
            .collect();
        for &h in &handles {
            ls.insert(h);
        }
        assert!(ls.len() <= 8);
        // Each retained member on a side must be at least as close as any
        // rejected node on that side.
        for side in [past::pastry::Side::Smaller, past::pastry::Side::Larger] {
            let members = ls.side_members(side);
            if members.len() == 4 {
                let worst = members.last().expect("non-empty");
                let worst_d = match side {
                    past::pastry::Side::Larger => Id(own).cw_dist(&worst.id),
                    past::pastry::Side::Smaller => worst.id.cw_dist(&Id(own)),
                };
                for h in &handles {
                    if ls.side_of(&h.id) == side && !ls.contains_addr(h.addr) {
                        let d = match side {
                            past::pastry::Side::Larger => Id(own).cw_dist(&h.id),
                            past::pastry::Side::Smaller => h.id.cw_dist(&Id(own)),
                        };
                        assert!(d >= worst_d, "rejected closer node");
                    }
                }
            }
        }
    }
}

// ---------------- routing step ---------------------------------------

#[test]
fn routing_step_strictly_progresses() {
    let mut rng = Rng::seed_from_u64(0x0256_000e);
    for _ in 0..CASES {
        let own: u128 = rng.random();
        let key_raw: u128 = rng.random();
        let count = rng.random_range(1..60usize);
        let mut others: Vec<u128> = (0..count).map(|_| rng.random()).collect();
        others.sort_unstable();
        others.dedup();
        let cfg = Config {
            leaf_len: 8,
            neighborhood_len: 8,
            ..Config::default()
        };
        let mut st = PastryState::new(cfg, NodeHandle::new(Id(own), 0));
        for (i, &id) in others.iter().enumerate() {
            if id != own {
                st.add_node(NodeHandle::new(Id(id), i + 1), (i as u64 % 100) + 1);
            }
        }
        let key = Id(key_raw);
        let mut hop_rng = Rng::seed_from_u64(1);
        if let NextHop::Forward(next) = next_hop(&st, &key, &mut hop_rng) {
            let own_p = Id(own).prefix_len(&key, 4);
            let next_p = next.id.prefix_len(&key, 4);
            let own_d = Id(own).ring_dist(&key);
            let next_d = next.id.ring_dist(&key);
            // Every forward either lengthens the shared prefix (routing
            // table branch) or strictly approaches the key numerically
            // (leaf-set and rare-case branches; ties break to the smaller
            // id). The leaf branch may *shorten* the prefix across a digit
            // boundary — canonical Pastry allows this, and the route-hop
            // TTL (DESIGN.md 3.8) backstops the resulting corner cases.
            assert!(
                next_p > own_p || next_d < own_d || (next_d == own_d && next.id.0 < own),
                "invalid step own={own:x} next={:x} key={:x}",
                next.id.0,
                key.0
            );
        }
    }
}

// ---------------- storage accounting ---------------------------------

#[test]
fn store_accounting_is_conserved() {
    let mut rng = Rng::seed_from_u64(0x0256_000f);
    for _ in 0..64 {
        let op_count = rng.random_range(1..60usize);
        let ops: Vec<(u64, bool)> = (0..op_count)
            .map(|_| (rng.random_range(1..2_000u64), rng.random()))
            .collect();
        let mut store = Store::new(20_000, 1.0, 0.5);
        let mut broker = past::core::Broker::new(b"prop");
        let mut card = broker.issue_card(b"u", u64::MAX / 2, 0);
        let mut live: Vec<(past::core::FileId, u64)> = Vec::new();
        let mut expected_used = 0u64;
        for (i, &(size, remove)) in ops.iter().enumerate() {
            if remove && !live.is_empty() {
                let (fid, sz) = live.remove(i % live.len());
                assert_eq!(store.remove(&fid), sz);
                expected_used -= sz;
            } else {
                let name = format!("f{i}");
                let content = ContentRef::synthetic(0, &name, size);
                let cert = card
                    .issue_file_certificate(&name, &content, 1, i as u64, 0)
                    .expect("quota");
                if store.insert(cert, ReplicaKind::Primary).is_ok() {
                    expected_used += size;
                    live.push((cert.file_id, size));
                }
            }
            assert_eq!(store.used(), expected_used);
            assert_eq!(store.free(), 20_000 - expected_used);
            assert!(store.cache.used() <= store.free());
        }
    }
}

// ---------------- GreedyDual-Size cache -------------------------------

#[test]
fn cache_never_exceeds_budget() {
    let mut rng = Rng::seed_from_u64(0x0256_0010);
    for _ in 0..64 {
        let budget = rng.random_range(100..2_000u64);
        let count = rng.random_range(1..50usize);
        let mut broker = past::core::Broker::new(b"prop2");
        let mut card = broker.issue_card(b"u", u64::MAX / 2, 0);
        let mut cache = past::core::cache::Cache::new();
        for i in 0..count {
            let size = rng.random_range(1..500u64);
            let name = format!("c{i}");
            let content = ContentRef::synthetic(0, &name, size);
            let cert = card
                .issue_file_certificate(&name, &content, 1, i as u64, 0)
                .expect("quota");
            cache.offer(cert, budget);
            assert!(
                cache.used() <= budget,
                "cache {} over budget {}",
                cache.used(),
                budget
            );
        }
    }
}

// ---------------- certificates ----------------------------------------

#[test]
fn certificate_tamper_always_detected() {
    let mut rng = Rng::seed_from_u64(0x0256_0011);
    for _ in 0..32 {
        let size = rng.random_range(1..1_000_000u64);
        let k = rng.random_range(1..10u8);
        let salt: u64 = rng.random();
        let which = rng.random_range(0..4usize);
        let mut broker = past::core::Broker::new(b"prop3");
        let mut card = broker.issue_card(b"u", u64::MAX / 2, 0);
        let content = ContentRef::synthetic(0, "t", size);
        let mut cert = card
            .issue_file_certificate("t", &content, k, salt, 7)
            .expect("quota");
        assert!(cert.verify(&broker.public()));
        match which {
            0 => cert.size ^= 1,
            1 => cert.replication ^= 1,
            2 => cert.salt ^= 1,
            _ => cert.content_hash.0[0] ^= 1,
        }
        assert!(!cert.verify(&broker.public()));
    }
}
