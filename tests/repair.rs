//! End-to-end `wasabi repair` invariants: the CLI fixes seeded retry
//! bugs in file mode, the corpus-mode report is byte-identical across
//! worker counts, and amplification repair touches only the files that
//! actually host a genuine A001 seed (decoys stay byte-identical).

use std::path::{Path, PathBuf};
use std::process::Command;

/// Uncapped + undelayed retry loop with a covering test: lint reports
/// W001 and W002, and the K=100 campaign confirms both dynamically.
const FLAKY: &str = "\
exception ConnectException;\n\
class Flaky {\n\
  method op() throws ConnectException { return 7; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (ConnectException e) { log(\"retrying\"); }\n\
    }\n\
  }\n\
  test tFlaky() { assert(this.run() == 7); }\n\
}\n";

/// Clean capped + delayed retry: no diagnostics, must stay byte-identical.
const SOLID: &str = "\
class Solid {\n\
  field maxAttempts = 4;\n\
  method fetch() throws ConnectException { return \"ok\"; }\n\
  method run() {\n\
    for (var retry = 0; retry < this.maxAttempts; retry = retry + 1) {\n\
      try { return this.fetch(); } catch (ConnectException e) { sleep(25); }\n\
    }\n\
    throw new ConnectException(\"giving up\");\n\
  }\n\
  test tSolid() { assert(this.run() == \"ok\"); }\n\
}\n";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wasabi-repair-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run_repair(args: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_wasabi"))
        .arg("repair")
        .args(args)
        .output()
        .expect("wasabi runs");
    let code = output.status.code().expect("wasabi exits");
    assert!(
        code <= 1,
        "wasabi repair exited {code}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (code, String::from_utf8(output.stdout).expect("utf-8 output"))
}

#[test]
fn repair_cli_fixes_file_mode_project_and_leaves_clean_files_alone() {
    let dir = temp_dir("files");
    let flaky = dir.join("flaky.jav");
    let solid = dir.join("solid.jav");
    std::fs::write(&flaky, FLAKY).expect("write flaky");
    std::fs::write(&solid, SOLID).expect("write solid");
    let out = dir.join("patched");

    let (code, report) = run_repair(&[
        "--json",
        "--out",
        out.to_str().expect("utf-8 path"),
        flaky.to_str().expect("utf-8 path"),
        solid.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(code, 0, "all targets fixed:\n{report}");
    assert!(report.contains("\"code\": \"W001\""), "{report}");
    assert!(report.contains("\"code\": \"W002\""), "{report}");
    assert!(!report.contains("\"fixed\": false"), "{report}");

    // The patched flaky file gained a cap guard and a delay; the clean
    // file came through byte-identical.
    let patched_flaky =
        std::fs::read_to_string(out.join(flaky.to_str().unwrap().trim_start_matches('/')))
            .expect("patched flaky");
    assert!(patched_flaky.contains("retryGuard"), "{patched_flaky}");
    assert!(patched_flaky.contains("sleep("), "{patched_flaky}");
    let patched_solid =
        std::fs::read_to_string(out.join(solid.to_str().unwrap().trim_start_matches('/')))
            .expect("patched solid");
    assert_eq!(patched_solid, SOLID);

    // The patched project re-lints clean: running repair on it finds
    // nothing left to fix.
    let flaky2 = dir.join("flaky2.jav");
    std::fs::write(&flaky2, &patched_flaky).expect("write flaky2");
    let (code, second) = run_repair(&[
        "--json",
        flaky2.to_str().expect("utf-8 path"),
        solid.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(code, 0, "{second}");
    assert!(second.contains("\"targets\": 0"), "{second}");
}

#[test]
fn repair_report_is_byte_identical_across_jobs() {
    let dir = temp_dir("jobs");
    for jobs in ["1", "4"] {
        let report = dir.join(format!("report-{jobs}.json"));
        let (_, _) = run_repair(&[
            "--corpus",
            "HA",
            "--scale",
            "tiny",
            "--amp",
            "--jobs",
            jobs,
            "--report",
            report.to_str().expect("utf-8 path"),
        ]);
    }
    let one = std::fs::read(dir.join("report-1.json")).expect("jobs 1 report");
    let four = std::fs::read(dir.join("report-4.json")).expect("jobs 4 report");
    assert_eq!(one, four, "repair report must not depend on --jobs");
}

#[test]
fn repair_fixes_amp_seeds_and_leaves_decoys_byte_identical() {
    let spec = wasabi::corpus::spec::paper_apps()
        .into_iter()
        .find(|s| s.short == "HA")
        .expect("HA spec");
    let generated =
        wasabi::corpus::synth::generate_app_with_amp(&spec, wasabi::corpus::spec::Scale::Tiny);
    let original: std::collections::BTreeMap<&str, &str> = generated
        .files
        .iter()
        .map(|(path, source)| (path.as_str(), source.as_str()))
        .collect();

    let dir = temp_dir("amp");
    let out = dir.join("patched");
    let report_path = dir.join("report.json");
    let (code, _) = run_repair(&[
        "--corpus",
        "HA",
        "--scale",
        "tiny",
        "--amp",
        "--report",
        report_path.to_str().expect("utf-8 path"),
        "--out",
        out.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(code, 0, "all HA targets fixed");
    let report = std::fs::read_to_string(&report_path).expect("report");
    assert!(report.contains("\"fix_rate_percent\": 100"), "{report}");

    let genuine_files: std::collections::BTreeSet<&str> = generated
        .truth
        .amp_seeds
        .iter()
        .filter(|seed| seed.genuine)
        .map(|seed| seed.file_path.as_str())
        .collect();
    assert!(!genuine_files.is_empty(), "HA --amp seeds genuine sites");
    let decoy_files: Vec<&str> = generated
        .truth
        .amp_seeds
        .iter()
        .filter(|seed| !seed.genuine)
        .map(|seed| seed.file_path.as_str())
        .filter(|path| !genuine_files.contains(path))
        .collect();
    assert!(!decoy_files.is_empty(), "HA --amp seeds decoy sites");

    for (path, source) in original {
        let patched = std::fs::read_to_string(Path::new(&out).join(path))
            .unwrap_or_else(|_| panic!("patched output for {path}"));
        if genuine_files.contains(path) {
            assert_ne!(patched, source, "genuine amp file {path} must be patched");
        }
        if decoy_files.contains(&path) {
            assert_eq!(patched, source, "decoy file {path} must stay untouched");
        }
    }
}

/// A capped-by-rethrow fix breaks this loop's contract: the test asserts
/// the value `run` returns when it gives up. `cap-rethrow` (W001's first
/// template) makes the injected exception escape into the test, so its
/// assertion fails; the rejection's trace steers the loop to `cap-break`,
/// which falls through to the give-up return and validates.
const GIVES_UP: &str = "\
exception ConnectException;\n\
class Stubborn {\n\
  method op() throws ConnectException { return 7; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (ConnectException e) { log(\"retrying\"); sleep(10); }\n\
    }\n\
    return \"gave-up\";\n\
  }\n\
  test tGivesUp() {\n\
    var got = null;\n\
    try { got = this.run(); } catch (ConnectException e) { got = \"threw\"; }\n\
    assert(got != \"threw\", \"run gives up with a value\");\n\
  }\n\
}\n";

#[test]
fn rejected_candidate_falls_back_to_the_next_template_from_the_accepted_sources() {
    use wasabi::analysis::checkers::{lint_project, LintOptions};
    use wasabi::analysis::patchsite::patch_site_for;
    use wasabi::lang::project::Project;
    use wasabi::repair::{repair, synthesize, templates_for, RepairOptions, Template};

    let sources = vec![("Stubborn.jav".to_string(), GIVES_UP.to_string())];
    let outcome = repair("gives-up", sources.clone(), &RepairOptions::default()).expect("repair");
    assert_eq!(outcome.targets.len(), 1, "one W001 target: {:?}", outcome.targets);
    let target = &outcome.targets[0];
    assert_eq!(target.code, "W001");
    assert_eq!(
        templates_for("W001").first(),
        Some(&Template::CapRethrow),
        "cap-rethrow is tried first"
    );
    assert_eq!(target.attempts, 2, "{:?}", target.tried);
    assert_eq!(target.tried.len(), 2, "{:?}", target.tried);
    assert_eq!(target.tried[0].template, "cap-rethrow");
    assert!(!target.tried[0].accepted, "{:?}", target.tried[0]);
    assert!(
        target.tried[0].reason.to_lowercase().contains("assert"),
        "rejected for the failed assertion: {}",
        target.tried[0].reason
    );
    assert_eq!(target.tried[1].template, "cap-break");
    assert!(target.tried[1].accepted, "{:?}", target.tried[1]);
    assert!(target.fixed, "{}", target.reason);

    // The accepted candidate was built from the original sources, not
    // from the rejected one: the final text is exactly cap-break applied
    // to the input.
    let project = Project::compile("gives-up", sources).expect("compile");
    let options = LintOptions::default();
    let lint = lint_project(&project, &options);
    let diag = lint
        .diagnostics
        .iter()
        .find(|d| d.code == "W001")
        .expect("W001 before repair");
    let site = patch_site_for(&project, diag, &options.loops).expect("patch site");
    let expected = synthesize(Template::CapBreak, &project, &site, None).expect("cap-break");
    assert_eq!(outcome.sources.len(), 1);
    assert_eq!(outcome.sources[0].1, expected.source);
    assert!(!outcome.sources[0].1.contains("throw e"), "{}", outcome.sources[0].1);
}
