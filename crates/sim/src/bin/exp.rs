//! Paper-scale runs of the experiments E1–E13.
//!
//! `cargo run --release -p past-sim --bin exp -- e7` runs one
//! experiment, `-- e1 e7` several, `-- all` every one in order. An
//! unknown name prints the table of names and exits nonzero.

use past_sim::experiments::{Scale, ALL};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known = |n: &String| n == "all" || ALL.iter().any(|e| e.id == n);
    if names.is_empty() || !names.iter().all(known) {
        eprintln!("usage: exp <name>... | all");
        for e in &ALL {
            eprintln!("  {:<4} {}", e.id, e.claim);
        }
        std::process::exit(2);
    }
    for e in &ALL {
        if names.iter().any(|n| n == e.id || n == "all") {
            let (params, tables) = (e.run)(Scale::Paper);
            println!("Running {} at paper scale: {params}\n", e.id.to_uppercase());
            for table in &tables {
                println!("{table}");
            }
        }
    }
}
