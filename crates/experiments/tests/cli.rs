//! The `aapm-experiments` binary, driven as a user drives it.

use std::process::Command;

/// An unknown id fails at once: the binary must not spend the training
/// run on an id it will reject.
#[test]
fn unknown_id_fails_before_training() {
    let output = Command::new(env!("CARGO_BIN_EXE_aapm-experiments"))
        .args(["fig99", "--jobs", "1"])
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "fig99 must fail: {stderr}");
    assert!(stderr.contains("unknown experiment id `fig99`"), "{stderr}");
    assert!(!stderr.contains("training"), "fig99 must fail before training: {stderr}");
}
