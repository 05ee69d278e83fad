//! `hinch-insight` argument errors: bad input exits 2 with a message
//! instead of panicking inside the simulator.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hinch-insight"))
        .args(args)
        .output()
        .expect("spawn hinch-insight");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn zero_cores_is_a_usage_error() {
    let (code, stderr) = run(&["--app", "pip1", "--cores", "0"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--cores must be at least 1"), "{stderr}");
}

#[test]
fn unknown_app_is_a_usage_error() {
    let (code, stderr) = run(&["--app", "pip3"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown app 'pip3'"), "{stderr}");
}
