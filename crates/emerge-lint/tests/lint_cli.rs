//! End-to-end checks of the `emerge-lint` binary: exit codes over fixture
//! workspaces, and the self-check that the real workspace lints clean.

use std::path::Path;
use std::process::Command;

fn run_lint(root: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_emerge-lint"))
        .args(["--check", "--root", root])
        .output()
        .expect("spawn emerge-lint")
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .display()
        .to_string()
}

#[test]
fn clean_workspace_exits_zero() {
    let out = run_lint(&fixture("ws_clean"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("clean"), "stdout: {stdout}");
}

#[test]
fn dirty_workspace_exits_one_with_findings() {
    let out = run_lint(&fixture("ws_dirty"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("[panic]"), "stdout: {stdout}");
    assert!(stdout.contains("src/lib.rs:6"), "stdout: {stdout}");
}

#[test]
fn usage_errors_exit_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_emerge-lint"))
        .arg("--no-such-flag")
        .output()
        .expect("spawn emerge-lint");
    assert_eq!(out.status.code(), Some(2));

    let out = run_lint("/nonexistent/fixture/root");
    assert_eq!(out.status.code(), Some(2));
}

/// The real workspace must lint clean — and the scan must actually cover
/// it (a floor on files scanned guards against a path regression turning
/// this into a vacuous pass).
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = emerge_lint::lint_workspace(&root).expect("workspace scan");
    assert!(
        report.findings.is_empty(),
        "workspace findings: {:#?}",
        report.findings
    );
    assert!(
        report.files_scanned >= 40,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    assert!(report.waivers_honored >= 90, "waiver count collapsed");
}

/// Every `HOT_PATH_FNS` entry must name at least one non-test `fn` in the
/// real workspace: the list matches bare names, so an entry left behind
/// by a rename or deletion checks nothing while the lint stays green.
#[test]
fn every_hot_path_entry_names_a_workspace_fn() {
    use emerge_lint::analyze::FileModel;
    use emerge_lint::rules::HOT_PATH_FNS;

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut defined = std::collections::BTreeSet::new();
    for path in emerge_lint::engine::collect_files(&root).expect("workspace scan") {
        let src = std::fs::read_to_string(&path).expect("readable source");
        let lexed = emerge_lint::lexer::lex(&src);
        let model = FileModel::build(&lexed);
        for f in &model.fns {
            if f.body.is_some_and(|(start, _)| !model.is_test(start)) {
                defined.insert(f.name.clone());
            }
        }
    }
    let dead: Vec<&str> = HOT_PATH_FNS
        .iter()
        .copied()
        .filter(|name| !defined.contains(*name))
        .collect();
    assert!(
        dead.is_empty(),
        "HOT_PATH_FNS entries naming no fn: {dead:?}"
    );
}
