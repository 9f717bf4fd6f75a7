//! The `tracecheck` and `obsreport` binaries on files whose integers are
//! large enough to overflow a careless reader: each must report, not panic
//! or allocate by what it read.

use std::path::PathBuf;
use std::process::Command;

/// Writes `text` to a file named `name` under the test scratch directory.
fn file(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write test input");
    path
}

/// Runs `bin` on `args` and returns its exit success and stdout.
fn run(bin: &str, args: &[&str], input: &PathBuf) -> (bool, String) {
    let out = Command::new(bin)
        .args(args)
        .arg(input)
        .output()
        .expect("run the binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// 2 PB used of 4 PB (100 000 nodes of 40 GB) is 5 000 bp: the product
/// `used × 10 000` needs more than 64 bits.
#[test]
fn obsreport_reads_petabyte_gauges() {
    let series = file(
        "petabyte_series.jsonl",
        "{\"t\":0,\"op\":0,\"ev\":\"series\",\"window_us\":1000,\"windows\":1,\"fp\":0}\n\
         {\"t\":0,\"op\":0,\"ev\":\"window\",\"events\":1,\
         \"store_used\":2000000000000000,\"store_capacity\":4000000000000000}\n",
    );
    let (ok, stdout) = run(env!("CARGO_BIN_EXE_obsreport"), &["--require-slo"], &series);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("utilization: peak=5000bp at t=0"),
        "{stdout}"
    );

    let over = file(
        "petabyte_series_full.jsonl",
        &std::fs::read_to_string(&series)
            .unwrap()
            .replace("2000000000000000,", "3960000000000000,"),
    );
    let (ok, stdout) = run(env!("CARGO_BIN_EXE_obsreport"), &["--require-slo"], &over);
    assert!(!ok, "9 900 bp is over the 9 800 bp SLO: {stdout}");
    assert!(stdout.contains("peak=9900bp"), "{stdout}");
}

#[test]
fn tracecheck_counts_a_huge_hop_count_over_the_bound() {
    let trace = file(
        "huge_hops.jsonl",
        "{\"t\":5,\"op\":1,\"ev\":\"deliver\",\"node\":1,\"key\":\"00\",\"hops\":4000000000000000000}\n",
    );
    let (ok, stdout) = run(env!("CARGO_BIN_EXE_tracecheck"), &[], &trace);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("delivered=1 hop_hist=[] bound=ceil(log2^4(N))=0 over_bound=1"),
        "{stdout}"
    );
}
