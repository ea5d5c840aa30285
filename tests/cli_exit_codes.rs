//! Pins the CLI exit-code contract: 0 = success, 1 = findings in valid
//! inputs (retry bugs, lint diagnostics), 2 = usage, input, or I/O
//! errors. Scripts (xtask, CI) branch on these values — `run_wasabi_test`
//! tolerates 1 and aborts on ≥ 2 — so a drift here silently corrupts
//! every downstream gate.

use std::path::Path;
use std::process::{Command, Output};

const CLEAN_APP: &str = "\
exception E;\n\
class Clean {\n\
  method op() { return \"ok\"; }\n\
  test tOp() { assert(this.op() == \"ok\"); }\n\
}\n";

const BUGGY_APP: &str = "\
exception E;\n\
class Buggy {\n\
  method op() throws E { return \"ok\"; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (E e) { log(\"retrying\"); }\n\
    }\n\
  }\n\
  test tRun() { assert(this.run() == \"ok\"); }\n\
}\n";

fn wasabi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wasabi"))
}

fn run(args: &[&str]) -> Output {
    wasabi().args(args).output().expect("wasabi runs")
}

fn code(output: &Output) -> i32 {
    output.status.code().expect("wasabi exits, not signalled")
}

fn write_app(dir: &Path, name: &str, source: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, source).expect("write app");
    path.to_string_lossy().into_owned()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wasabi-exit-codes-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn no_arguments_and_unknown_command_are_usage_errors() {
    assert_eq!(code(&run(&[])), 2);
    assert_eq!(code(&run(&["frobnicate"])), 2);
    assert_eq!(code(&run(&["bench"])), 2, "removed command: perfbench is the timing harness");
    assert_eq!(code(&run(&["test"])), 2, "no input files");
    assert_eq!(code(&run(&["test", "--jobs", "0", "x.jav"])), 2, "bad flag value");
}

#[test]
fn missing_and_invalid_inputs_are_exit_2() {
    let dir = temp_dir("invalid");
    assert_eq!(
        code(&run(&["test", "--quiet", "/nonexistent/missing.jav"])),
        2,
        "unreadable input"
    );
    let bad = write_app(&dir, "bad.jav", "class {");
    for command in ["analyze", "sweep", "lint", "test"] {
        assert_eq!(
            code(&run(&[command, "--quiet", &bad])),
            2,
            "compile errors are input errors, not findings ({command})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_app_is_0_and_findings_are_1() {
    let dir = temp_dir("findings");
    let clean = write_app(&dir, "clean.jav", CLEAN_APP);
    let buggy = write_app(&dir, "buggy.jav", BUGGY_APP);
    assert_eq!(code(&run(&["test", "--quiet", &clean])), 0, "no retry bugs");
    assert_eq!(code(&run(&["test", "--quiet", &buggy])), 1, "retry bugs found");
    assert_eq!(code(&run(&["analyze", &clean])), 0);
    assert_eq!(code(&run(&["lint", "--quiet", &clean])), 0, "no diagnostics");
    assert_eq!(code(&run(&["lint", "--quiet", &buggy])), 1, "lint diagnostics");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_io_failure_is_exit_2() {
    assert_eq!(code(&run(&["corpus", "NOPE", "/tmp"])), 2, "unknown app");
    assert_eq!(
        code(&run(&["corpus", "HD", "/proc/wasabi-cannot-write-here"])),
        2,
        "unwritable output directory"
    );
}

#[test]
fn stats_usage_errors_are_exit_2() {
    assert_eq!(code(&run(&["stats"])), 2, "no trace files");
    assert_eq!(code(&run(&["stats", "/nonexistent/trace.jsonl"])), 2);
}

#[test]
fn submit_without_daemon_is_exit_2() {
    assert_eq!(code(&run(&["submit", "x.jav"])), 2, "missing --addr");
    // Port 9 (discard) on loopback is never a wasabi daemon.
    assert_eq!(
        code(&run(&["submit", "--addr", "127.0.0.1:9", "x.jav"])),
        2,
        "connection refused is an I/O error"
    );
}
