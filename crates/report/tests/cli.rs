//! The `report` binary as a pipeline stage: a reader that exits before the
//! CLI writes (`report --list-scenarios | head -1`) must not make it panic.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_cli_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("--list-scenarios")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the report binary starts");
    // Close the read end before the child gets to write its listing.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("the report binary exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{}: {stderr}", output.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
