//! Hostile-input integration tests: drive the real `secbus` binary with the
//! malformed inputs a user can actually type and assert every one exits with
//! a typed error on stderr and a nonzero status — never a panic.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn secbus(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_secbus"))
        .args(args)
        .output()
        .expect("failed to spawn secbus binary")
}

/// Assert the invocation failed like a CLI tool should: nonzero exit, a
/// `secbus:`-prefixed diagnostic mentioning `needle`, and no panic backtrace.
fn assert_typed_failure(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "expected nonzero exit, got success; stderr: {stderr}"
    );
    assert!(
        stderr.starts_with("secbus: "),
        "diagnostic must be typed (secbus: prefix), got: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "stderr should mention {needle:?}, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "CLI must not panic on hostile input: {stderr}"
    );
}

/// A scratch file under the target-provided temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str, contents: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("secbus-hostile-{}-{name}", std::process::id()));
        fs::write(&path, contents).expect("write scratch file");
        Scratch(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("scratch path is UTF-8")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

#[test]
fn unknown_command_is_a_typed_error() {
    assert_typed_failure(&secbus(&["frobnicate"]), "unknown command");
}

#[test]
fn asm_without_operand_names_the_missing_file() {
    assert_typed_failure(&secbus(&["asm"]), "asm needs a source file");
}

#[test]
fn asm_on_missing_path_reports_the_path() {
    assert_typed_failure(
        &secbus(&["asm", "/nonexistent/secbus-hostile.s"]),
        "/nonexistent/secbus-hostile.s",
    );
}

#[test]
fn disasm_on_garbage_hex_reports_the_bad_word() {
    let f = Scratch::new("garbage.hex", "00000000\nnot-hex\n");
    assert_typed_failure(&secbus(&["disasm", f.path()]), "bad hex word");
}

#[test]
fn run_with_malformed_cycles_is_a_typed_error() {
    let src = Scratch::new("empty.s", "");
    assert_typed_failure(
        &secbus(&["run", src.path(), "--cycles", "a-lot"]),
        "--cycles",
    );
}

#[test]
fn run_with_flag_missing_its_value_is_a_typed_error() {
    let src = Scratch::new("noval.s", "");
    assert_typed_failure(&secbus(&["run", src.path(), "--cycles"]), "needs a value");
}

#[test]
fn run_with_malformed_policy_is_a_typed_error() {
    let src = Scratch::new("polsrc.s", "");
    let policy = Scratch::new("broken.policy", "region { this is not the DSL }");
    assert_typed_failure(
        &secbus(&["run", src.path(), "--policy", policy.path()]),
        policy.path(),
    );
}

#[test]
fn run_with_shadowed_policy_prints_the_counterexample() {
    let src = Scratch::new("shadowsrc.s", "halt\n");
    let policy = Scratch::new(
        "shadowed.policy",
        "master cpu0 = 0\n\
         region ddr = 0x8000_0000 + 0x1000\n\
         allow cpu0 ddr rw\n\
         allow cpu0 ddr ro\n",
    );
    let out = secbus(&["run", src.path(), "--policy", policy.path()]);
    assert_typed_failure(&out, "REJECTED");
    assert_typed_failure(&out, "line 4 can never fire — line 3 already rules");
}

#[test]
fn run_with_policy_lacking_master_0_is_a_typed_error() {
    let src = Scratch::new("nomaster0src.s", "halt\n");
    let policy = Scratch::new(
        "nomaster0.policy",
        "master dma = 1\n\
         region bram = 0x2000_0000 + 0x1_0000\n\
         allow dma bram rw\n",
    );
    assert_typed_failure(
        &secbus(&["run", src.path(), "--policy", policy.path()]),
        "no master 0",
    );
}

#[test]
fn run_with_malformed_image_is_a_typed_error() {
    let src = Scratch::new("imgsrc.s", "");
    let image = Scratch::new("broken.ihex", ":zzzz-not-intel-hex\n");
    assert_typed_failure(
        &secbus(&["run", src.path(), "--image", image.path()]),
        "secbus: ",
    );
}

#[test]
fn policy_check_without_file_is_a_typed_error() {
    assert_typed_failure(&secbus(&["policy", "check"]), "policy check needs");
}

#[test]
fn policy_check_on_malformed_source_is_a_typed_error() {
    let f = Scratch::new("broken.policy", "region { this is not the DSL }");
    assert_typed_failure(&secbus(&["policy", "check", f.path()]), f.path());
}

#[test]
fn observe_with_malformed_tail_is_a_typed_error() {
    assert_typed_failure(&secbus(&["observe", "--tail", "many"]), "--tail");
}

#[test]
fn attacks_with_malformed_seed_is_a_typed_error() {
    assert_typed_failure(&secbus(&["attacks", "--seed", "0x-bad"]), "--seed");
}

#[test]
fn help_succeeds_and_prints_usage() {
    let out = secbus(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage"));
}

#[test]
fn backends_succeeds_and_reports_detection() {
    let out = secbus(&["backends"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("aes-ni"));
    assert!(stdout.contains("active"));
}
