//! Integration tests for the interprocedural lint: determinism across
//! worker counts and runs, amplification precision/recall against the
//! seeded corpus ground truth, and CFG exceptional-edge invariants swept
//! across every generated method.

use wasabi::analysis::cfg::{BlockId, Cfg};
use wasabi::analysis::checkers::{lint_project, LintOptions};
use wasabi::analysis::diag::render_text;
use wasabi::core::lint::{cross_check, lint_with_overlap};
use wasabi::corpus::spec::{paper_apps, Scale};
use wasabi::corpus::synth::{
    append_policy_seeds, compile_app, generate_app, generate_app_with_amp, GeneratedApp,
};
use wasabi::lang::project::Project;
use wasabi::llm::simulated::SimulatedLlm;

fn amp_app(short: &str) -> (GeneratedApp, Project) {
    let spec = paper_apps()
        .into_iter()
        .find(|s| s.short == short)
        .expect("known app");
    let app = generate_app_with_amp(&spec, Scale::Small);
    let project = compile_app(&app);
    (app, project)
}

fn policy_app(short: &str) -> (GeneratedApp, Project) {
    let spec = paper_apps()
        .into_iter()
        .find(|s| s.short == short)
        .expect("known app");
    let mut app = generate_app(&spec, Scale::Small);
    append_policy_seeds(&mut app);
    let project = compile_app(&app);
    (app, project)
}

fn lint_text(project: &Project, jobs: usize) -> String {
    let options = LintOptions {
        jobs,
        ..LintOptions::default()
    };
    render_text(&lint_project(project, &options).diagnostics)
}

/// The rendered diagnostics are byte-identical whatever the worker count,
/// and across consecutive runs of the same configuration.
#[test]
fn lint_output_is_byte_identical_across_jobs_and_runs() {
    let (_, project) = amp_app("HD");
    let serial = lint_text(&project, 1);
    assert!(!serial.is_empty(), "corpus app produces diagnostics");
    assert_eq!(serial, lint_text(&project, 4), "jobs 1 vs 4");
    assert_eq!(serial, lint_text(&project, 1), "consecutive runs");
    // A fresh compile of the same sources also agrees: no hidden state.
    let (_, again) = amp_app("HD");
    assert_eq!(serial, lint_text(&again, 4), "fresh compile, jobs 4");
}

/// The amplification detector scores at least 0.9 precision AND recall
/// against the seeded ground truth, across all eight applications, and
/// every genuine finding carries the full call chain and the worst-case
/// attempt product.
#[test]
fn amplification_precision_and_recall_meet_the_bar() {
    let mut true_positives = 0usize;
    let mut genuine_total = 0usize;
    let mut reported_in_amp_files = 0usize;

    for spec in paper_apps() {
        let app = generate_app_with_amp(&spec, Scale::Small);
        let project = compile_app(&app);
        let result = lint_project(&project, &LintOptions::default());
        let amp_files: std::collections::BTreeSet<&str> = app
            .truth
            .amp_seeds
            .iter()
            .map(|s| s.file_path.as_str())
            .collect();
        let a001: Vec<_> = result
            .diagnostics
            .iter()
            .filter(|d| d.code == "A001" && amp_files.contains(d.file.as_str()))
            .collect();
        reported_in_amp_files += a001.len();

        for seed in &app.truth.amp_seeds {
            let matched = a001.iter().find(|d| {
                d.file == seed.file_path && d.coordinator == seed.coordinator.to_string()
            });
            if seed.genuine {
                genuine_total += 1;
                let diag = match matched {
                    Some(diag) => diag,
                    None => continue, // missed: costs recall
                };
                true_positives += 1;
                assert!(
                    diag.message.contains(&seed.expected_product),
                    "{}: finding lacks worst-case product {}: {}",
                    seed.id,
                    seed.expected_product,
                    diag.message
                );
                assert!(
                    diag.chain.first() == Some(&seed.coordinator.to_string())
                        && diag.chain.last() == Some(&seed.inner),
                    "{}: chain {:?} should run {} -> {}",
                    seed.id,
                    diag.chain,
                    seed.coordinator,
                    seed.inner
                );
            } else {
                assert!(
                    matched.is_none(),
                    "{}: decoy was reported: {:?}",
                    seed.id,
                    matched
                );
            }
        }
    }

    assert!(genuine_total > 0 && reported_in_amp_files > 0);
    let precision = true_positives as f64 / reported_in_amp_files as f64;
    let recall = true_positives as f64 / genuine_total as f64;
    assert!(
        precision >= 0.9,
        "precision {precision:.2} below 0.9 ({true_positives}/{reported_in_amp_files})"
    );
    assert!(
        recall >= 0.9,
        "recall {recall:.2} below 0.9 ({true_positives}/{genuine_total})"
    );
}

/// The W004/W005/W006 abstract-interpretation checkers score at least 0.9
/// precision AND recall *per code* against the seeded policy ground
/// truth, across all eight applications — the same bar the A001 gate
/// sets.
#[test]
fn policy_checkers_meet_the_precision_recall_bar_per_code() {
    let mut true_positives = std::collections::BTreeMap::new();
    let mut genuine_total = std::collections::BTreeMap::new();
    let mut reported = std::collections::BTreeMap::new();

    for spec in paper_apps() {
        let (app, project) = policy_app(spec.short);
        let result = lint_project(&project, &LintOptions::default());
        let policy_files: std::collections::BTreeSet<&str> = app
            .truth
            .policy_seeds
            .iter()
            .map(|s| s.file_path.as_str())
            .collect();
        for code in ["W004", "W005", "W006"] {
            let found: Vec<_> = result
                .diagnostics
                .iter()
                .filter(|d| d.code == code && policy_files.contains(d.file.as_str()))
                .collect();
            *reported.entry(code).or_insert(0usize) += found.len();
            for seed in app.truth.policy_seeds.iter().filter(|s| s.code == code) {
                let matched = found.iter().any(|d| {
                    d.file == seed.file_path && d.coordinator == seed.coordinator.to_string()
                });
                if seed.genuine {
                    *genuine_total.entry(code).or_insert(0usize) += 1;
                    if matched {
                        *true_positives.entry(code).or_insert(0usize) += 1;
                    }
                } else {
                    assert!(!matched, "{}: decoy was reported", seed.id);
                }
            }
        }
    }

    for code in ["W004", "W005", "W006"] {
        let tp = true_positives.get(code).copied().unwrap_or(0);
        let genuine = genuine_total.get(code).copied().unwrap_or(0);
        let found = reported.get(code).copied().unwrap_or(0);
        assert!(genuine > 0 && found > 0, "{code}: empty measurement");
        let precision = tp as f64 / found as f64;
        let recall = tp as f64 / genuine as f64;
        assert!(
            precision >= 0.9,
            "{code}: precision {precision:.2} below 0.9 ({tp}/{found})"
        );
        assert!(
            recall >= 0.9,
            "{code}: recall {recall:.2} below 0.9 ({tp}/{genuine})"
        );
    }
}

/// The cross-check agreement matrix is byte-identical across worker
/// counts: both detectors are deterministic and the cells are sorted.
#[test]
fn cross_check_matrix_is_byte_identical_across_jobs() {
    let (_, project) = policy_app("HB");
    let render = |jobs: usize| {
        let options = LintOptions {
            jobs,
            ..LintOptions::default()
        };
        let report = lint_with_overlap(&project, &mut SimulatedLlm::with_seed(0), &options);
        cross_check(&report.lint, &report.sweep).render_text()
    };
    let serial = render(1);
    assert!(
        serial.contains("static-only"),
        "policy seeds must surface static-only tiers:\n{serial}"
    );
    assert_eq!(serial, render(4), "jobs 1 vs 4");
    assert_eq!(serial, render(1), "consecutive runs");
}

/// `wasabi test --adaptive` takes its disagreement hints from the identify
/// pass's sweep instead of sweeping again through `lint_with_overlap`:
/// both ways give the same hints, on every corpus app with its amp seeds.
#[test]
fn adaptive_hints_from_the_identify_sweep_equal_a_fresh_sweep() {
    use wasabi::core::identify::identify;

    for spec in paper_apps() {
        let project = compile_app(&generate_app_with_amp(&spec, Scale::Small));
        let identified = identify(&project, &mut SimulatedLlm::with_seed(0));
        let lint = lint_project(&project, &LintOptions::default());
        let reused = cross_check(&lint, &identified.llm_sweep).disagreement_methods();
        let report = lint_with_overlap(
            &project,
            &mut SimulatedLlm::with_seed(0),
            &LintOptions::default(),
        );
        let fresh = cross_check(&report.lint, &report.sweep).disagreement_methods();
        assert!(
            !fresh.is_empty(),
            "{}: the hints are not vacuous",
            spec.short
        );
        assert_eq!(reused, fresh, "{}", spec.short);
    }
}

/// Exceptional-edge invariants hold for every method of a generated
/// application: successor edges stay in bounds and every catch entry has a
/// predecessor and is reachable from its method's entry.
#[test]
fn cfg_exceptional_invariants_hold_corpus_wide() {
    use wasabi::lang::ast::Item;
    let (_, project) = amp_app("HB");
    let mut methods_seen = 0usize;
    let mut catch_entries = 0usize;
    for file in &project.files {
        for item in &file.items {
            let Item::Class(class) = item else { continue };
            for method in &class.methods {
                methods_seen += 1;
                let cfg = Cfg::build(&method.body);
                let n = cfg.blocks.len();
                let mut preds = vec![0usize; n];
                for block in &cfg.blocks {
                    for succ in &block.succs {
                        assert!((succ.0 as usize) < n, "edge out of bounds");
                        preds[succ.0 as usize] += 1;
                    }
                }
                let reachable: std::collections::HashSet<BlockId> =
                    cfg.reachable_from(cfg.entry()).into_iter().collect();
                for (i, block) in cfg.blocks.iter().enumerate() {
                    if block.catch_entry.is_none() {
                        continue;
                    }
                    catch_entries += 1;
                    assert!(
                        preds[i] > 0,
                        "{}.{}: catch entry without predecessor",
                        class.name,
                        method.name
                    );
                    assert!(
                        reachable.contains(&BlockId(i as u32)),
                        "{}.{}: unreachable catch entry",
                        class.name,
                        method.name
                    );
                }
            }
        }
    }
    assert!(methods_seen > 100, "sweep covered the whole app");
    assert!(catch_entries > 50, "sweep saw real exceptional edges");
}

/// The shard supervisor's own restart policy, transliterated to Javelin
/// (`examples/supervisor_policy.jav`), must be *recognized* as a retry
/// structure by the analyzer and still produce zero WHEN/HOW diagnostics:
/// the engine's crash-tolerance layer passes the rules it enforces.
#[test]
fn supervisor_policy_transliteration_is_recognized_and_lint_clean() {
    use wasabi::analysis::loops::{all_retry_locations, LoopQueryOptions};
    use wasabi::analysis::resolve::ProjectIndex;

    let source = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/supervisor_policy.jav"
    ))
    .expect("read supervisor policy example");
    let project = Project::compile("supervisor_policy", vec![("supervisor_policy.jav", &source)])
        .expect("example compiles");

    let index = ProjectIndex::build(&project);
    let locations: Vec<_> = all_retry_locations(&index, &LoopQueryOptions::default())
        .into_iter()
        .flat_map(|(_, locations)| locations)
        .collect();
    assert!(
        !locations.is_empty(),
        "the supervisor policy must be seen as a retry structure — a lint \
         that never looks at it proves nothing"
    );

    let result = lint_project(&project, &LintOptions::default());
    assert!(
        result.diagnostics.is_empty(),
        "supervisor policy must pass its own WHEN/HOW rules, got:\n{}",
        render_text(&result.diagnostics)
    );
}
