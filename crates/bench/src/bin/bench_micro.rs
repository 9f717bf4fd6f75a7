//! `bench_micro` — microbenchmarks of the measured hot paths, published
//! as `BENCH_micro.json` at the repository root.
//!
//! Covers the three paths the performance work targets: the crypto layer
//! (Schnorr sign/verify and the modular reduction under them), the Pastry
//! routing step and routing-table update, and the simulator engine, its
//! timer wheel under a burst, and topology proximity queries.
//! Successive PRs regenerate the file, leaving a perf trajectory.
//!
//! Usage: `cargo run --release -p past-bench --bin bench_micro --
//! [--smoke] [--out PATH]`. `--smoke` shrinks the measurement budget to a
//! fraction of a second (CI asserts the binary runs and emits valid
//! JSON; timings in smoke mode are meaningless).

use past_bench::{json, Bench, Measurement};
use past_crypto::modmath::{mulmod, powmod, powmod2};
use past_crypto::rng::Rng;
use past_crypto::schnorr::pow_g;
use past_crypto::u256::U256;
use past_crypto::{AnchorKey, KeyPair};
use past_netsim::wheel::TimerWheel;
use past_netsim::{Addr, Ctx, Engine, Message, NodeLogic, Plane, Sphere, Topology, UniformRandom};
use past_pastry::{next_hop, Config, Id, NodeHandle, PastryState};
use std::hint::black_box;

/// A toy protocol for timing the engine's event loop: every Ping is
/// answered with a Ping back, so one injected message keeps a pair of
/// nodes exchanging events until the hop budget runs out.
#[derive(Clone)]
struct Ping {
    hops_left: u32,
}

impl Message for Ping {
    const KINDS: &'static [&'static str] = &["ping"];

    fn kind_id(&self) -> usize {
        0
    }
}

struct PingNode;

impl NodeLogic for PingNode {
    type Msg = Ping;
    type Out = ();

    fn on_message(&mut self, from: Addr, msg: Ping, ctx: &mut Ctx<'_, Ping, ()>) {
        if msg.hops_left > 0 {
            ctx.send(
                from,
                Ping {
                    hops_left: msg.hops_left - 1,
                },
            );
        }
    }
}

fn bench_crypto(b: &mut Bench) {
    b.group("crypto/schnorr");
    b.run("keygen", || {
        black_box(KeyPair::from_seed(black_box(b"bench")))
    });
    let kp = KeyPair::from_seed(b"bench");
    let msg = b"a store receipt-sized message for signing benchmarks";
    b.run("sign", || black_box(kp.sign(black_box(msg))));
    let sig = kp.sign(msg);
    b.run("verify", || {
        black_box(kp.public.verify(black_box(msg), black_box(&sig)))
    });
    // The same check against a key that carries its own comb, as every
    // node holds the broker's.
    let anchor = AnchorKey::new(kp.public);
    b.run("verify_anchor", || {
        black_box(anchor.verify(black_box(msg), black_box(&sig)))
    });

    b.group("crypto/modmath");
    let p = past_crypto::schnorr::group_p();
    let mut rng = Rng::seed_from_u64(3);
    let a = U256([rng.random(), rng.random(), rng.random(), 0]);
    let c = U256([rng.random(), rng.random(), rng.random(), 0]);
    let e = U256([rng.random(), rng.random(), rng.random(), 0]);
    b.run("mulmod", || {
        black_box(mulmod(black_box(&a), black_box(&c), black_box(&p)))
    });
    b.run("powmod", || {
        black_box(powmod(black_box(&a), black_box(&e), black_box(&p)))
    });
    // The reference walk, with full-width exponents as a signature check
    // hands them over (`s`, `p − 1 − e`): 255 random bits each. `verify`
    // itself runs the same walk on Montgomery multiplies mod `p`.
    let mut exp255 = || {
        U256([
            rng.random(),
            rng.random(),
            rng.random(),
            rng.random::<u64>() >> 1,
        ])
    };
    let (x, y) = (exp255(), exp255());
    b.run("powmod2", || {
        black_box(powmod2(
            black_box(&a),
            black_box(&x),
            black_box(&c),
            black_box(&y),
            black_box(&p),
        ))
    });
    // The fixed-base comb under `sign` and `keygen`, at the width their
    // scalars have (the `powmod` row above keeps its 192-bit exponent).
    // Its multiplies are Montgomery ones on the crate's private `Fp`, not
    // `mulmod`; the row keeps its `crypto/modmath` name so its history
    // reads on.
    b.run("pow_g", || black_box(pow_g(black_box(&x))));
}

fn routing_state(n: usize, seed: u64, randomization: f64) -> PastryState {
    let cfg = Config {
        route_randomization: randomization,
        ..Config::default()
    };
    let mut rng = Rng::seed_from_u64(seed);
    let mut st = PastryState::new(cfg, NodeHandle::new(Id(rng.random()), 0));
    for i in 1..n {
        st.add_node(
            NodeHandle::new(Id(rng.random()), i),
            rng.random_range(1..50_000),
        );
    }
    st
}

fn bench_routing(b: &mut Bench) {
    b.group("pastry/route");
    let st = routing_state(1_000, 7, 0.0);
    let mut key_rng = Rng::seed_from_u64(9);
    let mut step_rng = Rng::seed_from_u64(1);
    b.run("next_hop", || {
        let key = Id(key_rng.random());
        black_box(next_hop(&st, &key, &mut step_rng))
    });
    let st_rand = routing_state(1_000, 8, 0.5);
    b.run("next_hop_randomized", || {
        let key = Id(key_rng.random());
        black_box(next_hop(&st_rand, &key, &mut step_rng))
    });
}

fn bench_table(b: &mut Bench) {
    b.group("pastry/table");
    // pastbench's `pastry.table_insert_ns` loop: offer a stranger to a
    // populated table and, if it was installed, purge its address again
    // (one scan of every allocated slot), so each iteration meets the
    // same table.
    let mut st = routing_state(1_000, 7, 0.0);
    let mut rng = Rng::seed_from_u64(13);
    let strangers: Vec<NodeHandle> = (0..2_000)
        .map(|a| NodeHandle::new(Id(rng.random()), 1_000 + a))
        .collect();
    let mut i = 0usize;
    b.run("consider_remove", || {
        i = (i + 1) % strangers.len();
        if st.table.consider(strangers[i], 50) {
            black_box(st.table.remove_addr(strangers[i].addr));
        }
    });
}

fn bench_wheel(b: &mut Bench) {
    b.group("netsim/wheel");
    // A 100k-node stabilize round in miniature: a million events land
    // within 120 ms of now and are delivered in order. The wheel lives
    // across iterations, so buffers it keeps are reused and buffers it
    // gives back are paid for again.
    let mut wheel: TimerWheel<[u32; 4]> = TimerWheel::new();
    let mut rng = Rng::seed_from_u64(19);
    let (mut now, mut tie) = (0u64, 0u128);
    b.run("burst_drain_1m", || {
        for _ in 0..1_000_000 {
            tie += 1;
            wheel.push(now + rng.random_range(1..=120_000u64), tie, [0; 4]);
        }
        while let Some((t, _, _)) = wheel.pop() {
            now = t;
        }
        now
    });
}

fn bench_engine(b: &mut Bench) {
    b.group("netsim/engine");
    // 128 events per iteration: one injected ping bounces 127 times.
    let mut e = Engine::new(
        UniformRandom::new(2, 5, 10, 100),
        vec![PingNode, PingNode],
        5,
    );
    b.run("event_128", || {
        e.inject(0, 1, Ping { hops_left: 127 }, 0);
        black_box(e.run_until_quiet(1_000))
    });
}

fn bench_topology(b: &mut Bench) {
    b.group("netsim/topology");
    let n = 4_096;
    let sphere = Sphere::new(n, 17);
    let plane = Plane::new(n, 17, 60_000);
    // Repeat: a small working set of pairs, queried over and over — the
    // pattern routing and maintenance produce (same neighbors each time).
    let mut i = 0usize;
    b.run("sphere_delay_repeat", || {
        i = (i + 1) & 255;
        black_box(sphere.delay_us(i, (i * 7 + 1) & 255))
    });
    // Scan: a fresh pair nearly every call (static_build's sampling).
    let mut j = 0usize;
    b.run("sphere_delay_scan", || {
        j = (j + 1) & (n - 1);
        black_box(sphere.delay_us(j, (j * 2_467 + 1) & (n - 1)))
    });
    let mut k = 0usize;
    b.run("plane_delay_repeat", || {
        k = (k + 1) & 255;
        black_box(plane.delay_us(k, (k * 7 + 1) & 255))
    });
}

fn measurement_json(m: &Measurement) -> String {
    json::Obj::new()
        .str("name", &m.name)
        .num("median_ns", m.median_ns)
        .num("min_ns", m.min_ns)
        .int("iters_per_sample", m.iters_per_sample)
        .build()
}

/// What `bench_micro` accepts, printed on a bad command line.
const USAGE: &str = "usage: bench_micro [--smoke] [--out PATH]";

/// Prints `problem` (if any) and the usage to stderr and exits with
/// status 2: a bad command line is the caller's error, not a crash.
fn usage_exit(problem: Option<&str>) -> ! {
    if let Some(problem) = problem {
        eprintln!("bench_micro: {problem}");
    }
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut out = format!("{}/../../BENCH_micro.json", env!("CARGO_MANIFEST_DIR"));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out = args
                    .next()
                    .unwrap_or_else(|| usage_exit(Some("--out needs a path")))
            }
            "--help" | "-h" => usage_exit(None),
            other => usage_exit(Some(&format!("unknown flag {other}"))),
        }
    }

    let mut b = Bench::new();
    if smoke {
        b.samples = 2;
        b.target_sample_ns = 200_000;
    }
    bench_crypto(&mut b);
    bench_routing(&mut b);
    bench_table(&mut b);
    bench_engine(&mut b);
    bench_wheel(&mut b);
    bench_topology(&mut b);

    let doc = json::Obj::new()
        .str("schema", "past-bench/v1")
        .str("bench", "micro")
        .str("mode", if smoke { "smoke" } else { "full" })
        .raw(
            "results",
            &json::array(b.results().iter().map(measurement_json)),
        )
        .build();
    json::validate(&doc).expect("bench output must be valid JSON");
    std::fs::write(&out, format!("{doc}\n")).expect("write bench output");
    println!("\nwrote {} ({} results)", out, b.results().len());
}
