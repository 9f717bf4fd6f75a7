//! The JSONL reader is total: on a trace or series line mangled any way
//! at all, `json::parse`, `analyze::parse_jsonl` and `analyze` return
//! (`Ok` or `Err`), never panic, and never size memory by a number read.
//!
//! The corpus is real: the lines a traced lossy-churn run writes through
//! `Tracer::to_jsonl` and `TimeSeries::to_jsonl`. A seeded mutator flips
//! bits, truncates, and inserts digit runs and brackets.

use past_crypto::rng::Rng;
use past_invariants::scenarios::lossy_churn_traced;
use past_trace::{analyze, json, TraceConfig};

/// Parses `text` every way the tools do; panics only if a reader does.
/// Returns whether the whole document parsed as trace lines.
fn read_all(text: &str) -> bool {
    for line in text.lines() {
        let parsed = json::parse(line);
        assert_eq!(json::validate(line).is_ok(), parsed.is_ok(), "{line:?}");
    }
    match analyze::parse_jsonl(text) {
        Ok(recs) => {
            assert!(
                text.lines()
                    .filter(|l| !l.trim().is_empty())
                    .all(|l| json::parse(l).is_ok()),
                "a trace line parsed that is not JSON: {text:?}"
            );
            let rep = analyze::analyze(&recs, 4);
            assert!(rep.hop_hist.len() <= 256, "{text:?}");
            if let Some(r) = recs.first() {
                assert!(analyze::timeline(&recs, r.op).len() <= recs.len());
            }
            true
        }
        Err(_) => false,
    }
}

fn mutate(rng: &mut Rng, b: &mut Vec<u8>) {
    let at = |rng: &mut Rng, b: &Vec<u8>| rng.random_range(0..=b.len() as u64) as usize;
    match rng.random_range(0..4u32) {
        0 => {
            // Flip 1..=4 random bits (possibly breaking UTF-8).
            for _ in 0..rng.random_range(1..=4u32) {
                if !b.is_empty() {
                    let i = rng.random_range(0..b.len() as u64) as usize;
                    b[i] ^= 1u8 << rng.random_range(0u32..8);
                }
            }
        }
        1 => {
            let cut = at(rng, b);
            b.truncate(cut);
        }
        2 => {
            // A run of digits: grows a number past u64, or makes one
            // where a string or a bracket was.
            let i = at(rng, b);
            let n = rng.random_range(1..=24u32);
            let digits: Vec<u8> = (0..n)
                .map(|_| b'0' + rng.random_range(0..10u32) as u8)
                .collect();
            b.splice(i..i, digits);
        }
        _ => {
            // Brackets: a few of any kind, or a deep run of one.
            let i = at(rng, b);
            let run: Vec<u8> = if rng.random_range(0..4u32) == 0 {
                let open = b"[{"[rng.random_range(0..2u32) as usize];
                vec![open; rng.random_range(60..=200u32) as usize]
            } else {
                (0..rng.random_range(1..=6u32))
                    .map(|_| b"[]{}:,\""[rng.random_range(0..7u32) as usize])
                    .collect()
            };
            b.splice(i..i, run);
        }
    }
}

#[test]
fn readers_never_panic_on_mutated_lines() {
    let run = lossy_churn_traced(4, TraceConfig::full());
    let series = run.tracer.series().expect("the traced run keeps a series");
    let docs = [run.tracer.to_jsonl(), series.to_jsonl()];
    let lines: Vec<&str> = docs.iter().flat_map(|d| d.lines()).collect();
    assert!(lines.len() > 100, "corpus of {} lines", lines.len());
    for doc in &docs {
        assert!(read_all(doc), "the unmutated document must parse");
    }

    // Every prefix of a sample of lines.
    let mut rng = Rng::seed_from_u64(0x7ace_0bad_1234_5678);
    for _ in 0..64 {
        let line = lines[rng.random_range(0..lines.len() as u64) as usize];
        for cut in 0..=line.len() {
            read_all(&String::from_utf8_lossy(&line.as_bytes()[..cut]));
        }
    }

    // Windows of 1..=8 consecutive lines, each mutated 1..=3 times.
    let (mut oks, mut errs) = (0u32, 0u32);
    for _ in 0..12_000 {
        let start = rng.random_range(0..lines.len() as u64) as usize;
        let end = (start + rng.random_range(1..=8u64) as usize).min(lines.len());
        let mut b = lines[start..end].join("\n").into_bytes();
        for _ in 0..rng.random_range(1..=3u32) {
            mutate(&mut rng, &mut b);
        }
        if read_all(&String::from_utf8_lossy(&b)) {
            oks += 1;
        } else {
            errs += 1;
        }
    }
    assert!(oks > 100 && errs > 100, "{oks} parsed, {errs} refused");
}
