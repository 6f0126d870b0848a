//! The `logres` binary on a program whose fact names an attribute twice:
//! `logres check` reports E001 and exits 1, and the shell loading the file
//! prints the error and keeps running.

use std::io::Write;
use std::process::{Command, Stdio};

const SOURCE: &str = "associations\n  p = (a: integer);\nfacts\n  p(a: 1, a: 2).\n";

fn program_file(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("logres-{name}-{}.lgr", std::process::id()));
    std::fs::write(&path, SOURCE).expect("temp file writes");
    path
}

#[test]
fn check_reports_a_repeated_fact_attribute_as_e001() {
    let path = program_file("check");
    let out = Command::new(env!("CARGO_BIN_EXE_logres"))
        .args(["check", path.to_str().unwrap(), "--json"])
        .output()
        .expect("logres runs");
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("\"code\":\"E001\""), "{stdout}");
    assert!(stdout.contains("appears twice"), "{stdout}");
}

#[test]
fn the_shell_reports_a_repeated_fact_attribute_without_panicking() {
    let path = program_file("repl");
    let mut child = Command::new(env!("CARGO_BIN_EXE_logres"))
        .arg(&path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("logres runs");
    child.stdin.take().unwrap().write_all(b":quit\n").unwrap();
    let out = child.wait_with_output().expect("logres exits");
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stdout.contains("appears twice"), "{stdout}");
}
