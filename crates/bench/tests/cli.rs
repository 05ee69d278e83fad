//! `paper-figures` argument errors: bad input exits 2 with a message
//! before any figure runs, instead of panicking inside the simulator.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_paper-figures"))
        .args(args)
        .output()
        .expect("spawn paper-figures");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn zero_nodes_is_a_usage_error() {
    for nodes in ["0", "1,0,4"] {
        let (code, stdout, stderr) = run(&["--fig", "9", "--scale", "small", "--nodes", nodes]);
        assert_eq!(code, Some(2), "--nodes {nodes}: {stderr}");
        assert!(
            stderr.contains("--nodes entries must be at least 1"),
            "{stderr}"
        );
        assert!(stdout.is_empty(), "--nodes {nodes} printed {stdout}");
    }
}

#[test]
fn unknown_fig_is_a_usage_error() {
    let (code, _, stderr) = run(&["--fig", "11"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("bad --fig '11'"), "{stderr}");
}
