//! Argument checks of the `repro` binary that fail before any experiment
//! runs, so they cost one process start each.

use std::process::Command;

/// `--shards` above the sharded queue's limit is a usage error naming the
/// limit, not a run on silently fewer shards.
#[test]
fn shards_above_the_limit_are_a_usage_error() {
    let k = amac_sim::MAX_SHARDS + 1;
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["scale", "--smoke", "--shards", &k.to_string()])
        .output()
        .expect("repro starts");
    assert!(!out.status.success(), "--shards {k} must be rejected");
    assert!(out.stdout.is_empty(), "nothing may run before the check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("limit of {} shards", amac_sim::MAX_SHARDS)),
        "stderr must name the limit: {stderr}"
    );
}
