//! The `exp` runner's usage path: with no experiment named, or an
//! unknown one, it lists every experiment and exits with status 2
//! without running any.

use past_sim::experiments::ALL;
use std::process::Command;

fn usage_exit(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("exp runs");
    assert_eq!(out.status.code(), Some(2), "exp {args:?}");
    assert!(out.stdout.is_empty(), "exp {args:?} ran an experiment");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 usage");
    for e in &ALL {
        assert!(
            stderr
                .lines()
                .any(|l| l.split_whitespace().next() == Some(e.id)),
            "exp {args:?}: usage does not list {}:\n{stderr}",
            e.id
        );
    }
}

#[test]
fn no_arguments_prints_usage() {
    usage_exit(&[]);
}

#[test]
fn unknown_name_prints_usage() {
    usage_exit(&["e99"]);
}
