//! The three workloads: corpus set-up, one app's drive from sources to
//! verdict, the ground-truth check of that verdict, and the integer work
//! counters read off its results.

use crate::trace::{PhaseSpans, Tracer, APP, PROBE};
use std::collections::BTreeMap;
use wasabi_analysis::callgraph::CallGraph;
use wasabi_analysis::checkers::{lint_project, LintOptions, LintResult};
use wasabi_core::api::{compile_app, report_json, run_app_job, source_digest, AppJob};
use wasabi_core::dynamic::{DynamicOptions, DynamicResult};
use wasabi_core::identify::identify;
use wasabi_core::lint::{cross_check, CrossCheck};
use wasabi_core::score::score;
use wasabi_corpus::spec::{paper_apps, Scale};
use wasabi_corpus::synth::{
    append_policy_seeds, generate_app, generate_app_with_amp, GeneratedApp,
};
use wasabi_engine::NullObserver;
use wasabi_lang::parser::parse_file;
use wasabi_lang::project::Project;
use wasabi_llm::detector::{sweep_project, LlmSweep};
use wasabi_llm::simulated::SimulatedLlm;
use wasabi_llm::{Answer, LanguageModel, Prompt, Usage};
use wasabi_repair::{render_report, repair, score_against_truth, RepairOptions, RepairOutcome};

/// The precision and recall floor `cargo xtask lint-gate` enforces.
const LINT_FLOOR: f64 = 0.9;
/// The fix-rate floor (percent) `cargo xtask repair-gate` enforces.
const REPAIR_FLOOR_PERCENT: i64 = 80;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `wasabi test`: compile, identify, profile, plan, run, report.
    CampaignPaper,
    /// `wasabi lint --cross-check` over the amplification and policy seeds.
    LintPaper,
    /// `wasabi repair --amp`: patch, recompile, re-lint, targeted campaign.
    RepairSmall,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "campaign-paper" => Some(Workload::CampaignPaper),
            "lint-paper" => Some(Workload::LintPaper),
            "repair-small" => Some(Workload::RepairSmall),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignPaper => "campaign-paper",
            Workload::LintPaper => "lint-paper",
            Workload::RepairSmall => "repair-small",
        }
    }

    pub fn scale(self) -> Scale {
        match self {
            Workload::CampaignPaper | Workload::LintPaper => Scale::Paper,
            Workload::RepairSmall => Scale::Small,
        }
    }
}

/// A ground-truth label or verdict `--corrupt` breaks on the first app, so
/// the truth check guarding it must fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Campaign: the structure behind the first reported bug loses its
    /// bug and trap labels.
    Structure,
    /// Lint: one genuine policy seed is relabelled a decoy.
    Policy,
    /// Lint: one genuine amplification seed is relabelled a decoy.
    Amp,
    /// Repair: every target is marked unfixed.
    Fixed,
}

impl Corruption {
    pub fn parse(name: &str) -> Option<Corruption> {
        match name {
            "structure" => Some(Corruption::Structure),
            "policy" => Some(Corruption::Policy),
            "amp" => Some(Corruption::Amp),
            "fixed" => Some(Corruption::Fixed),
            _ => None,
        }
    }

    /// The workload whose truth check this corruption targets.
    pub fn workload(self) -> Workload {
        match self {
            Corruption::Structure => Workload::CampaignPaper,
            Corruption::Policy | Corruption::Amp => Workload::LintPaper,
            Corruption::Fixed => Workload::RepairSmall,
        }
    }
}

/// One corpus app and the simulated-LLM seed the benchmark seed gives it.
pub struct App {
    pub generated: GeneratedApp,
    pub llm_seed: u64,
}

/// Generates the eight corpus apps with the seed families the workload
/// needs. Seed 0 gives each app its spec seed, as `wasabi bench` and
/// `repro` use.
pub fn generate(workload: Workload, seed: u64) -> Vec<App> {
    let scale = workload.scale();
    paper_apps()
        .iter()
        .map(|spec| {
            let generated = match workload {
                Workload::CampaignPaper => generate_app(spec, scale),
                Workload::LintPaper => {
                    let mut app = generate_app_with_amp(spec, scale);
                    append_policy_seeds(&mut app);
                    app
                }
                Workload::RepairSmall => generate_app_with_amp(spec, scale),
            };
            App {
                generated,
                llm_seed: spec.seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }
        })
        .collect()
}

/// What an app's drive leaves behind for the checks and counters. Only
/// one lives at a time, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Outcome {
    Campaign {
        job: AppJob,
        result: DynamicResult,
    },
    Lint {
        project: Project,
        lint: LintResult,
        sweep: LlmSweep,
        cross: CrossCheck,
    },
    Repair(RepairOutcome),
}

/// A verdict document plus the results it was rendered from.
pub struct Verdict {
    pub doc: String,
    pub outcome: Outcome,
}

/// Drives one app from its sources to a verdict. `sources` is handed over
/// by value, as the library takes it; every layer call is bracketed by a
/// span when `tracer` is enabled. The campaign workload's untraced drive
/// is the `wasabi test` call sequence itself; its traced drive calls the
/// layers behind `compile_app` one at a time.
pub fn drive(
    workload: Workload,
    app: &App,
    sources: Vec<(String, String)>,
    jobs: usize,
    tracer: &mut Tracer,
) -> Result<Verdict, String> {
    tracer.begin(APP);
    let verdict = drive_layers(workload, app, sources, jobs, tracer);
    tracer.end_all();
    verdict
}

fn drive_layers(
    workload: Workload,
    app: &App,
    sources: Vec<(String, String)>,
    jobs: usize,
    tracer: &mut Tracer,
) -> Result<Verdict, String> {
    let name = app.generated.spec.name;
    match workload {
        Workload::CampaignPaper if tracer.enabled() => {
            campaign_layers(name, sources, app.llm_seed, &campaign_options(jobs), tracer)
        }
        Workload::CampaignPaper => {
            let job = compile_app(name, sources, app.llm_seed).map_err(compile_error)?;
            let result = run_app_job(&job, &campaign_options(jobs), &mut NullObserver);
            let doc = report_json(&job.identified, &result);
            Ok(Verdict {
                doc,
                outcome: Outcome::Campaign { job, result },
            })
        }
        Workload::LintPaper => lint_layers(name, sources, app.llm_seed, jobs, tracer),
        Workload::RepairSmall => {
            let options = RepairOptions {
                jobs,
                llm_seed: app.llm_seed,
                ..RepairOptions::default()
            };
            let outcome = tracer.span("repair.session", || repair(name, sources, &options))?;
            let doc = tracer.span("core.report", || {
                render_report(&outcome, Some(&app.generated.truth)).pretty()
            });
            Ok(Verdict {
                doc,
                outcome: Outcome::Repair(outcome),
            })
        }
    }
}

/// The `wasabi test` options: fixed grid, no profile cache, no per-run
/// host timing.
fn campaign_options(jobs: usize) -> DynamicOptions {
    DynamicOptions {
        jobs,
        capture_timing: false,
        ..DynamicOptions::default()
    }
}

fn compile_error(diagnostics: Vec<wasabi_lang::error::Diagnostic>) -> String {
    match diagnostics.first() {
        Some(first) => format!("compile failed: {first}"),
        None => "compile failed".to_string(),
    }
}

/// `compile_app` → `run_app_job` → `report_json`, with `compile_app`
/// split into its calls: the digest, the compile, and `identify`, whose
/// model answers each run under an `llm.sweep` span.
fn campaign_layers(
    name: &str,
    sources: Vec<(String, String)>,
    llm_seed: u64,
    options: &DynamicOptions,
    tracer: &mut Tracer,
) -> Result<Verdict, String> {
    let digest = tracer.span("core.digest", || source_digest(name, &sources));
    let project = tracer
        .span("lang.compile", || Project::compile(name, sources))
        .map_err(compile_error)?;
    tracer.begin("analysis.identify_static");
    let identified = identify(
        &project,
        &mut Timed {
            tracer: &mut *tracer,
            model: SimulatedLlm::with_seed(llm_seed),
        },
    );
    tracer.end();
    let job = AppJob {
        name: name.to_string(),
        digest,
        project,
        identified,
    };
    let result = run_app_job(&job, options, &mut PhaseSpans(tracer));
    let doc = tracer.span("core.report", || report_json(&job.identified, &result));
    Ok(Verdict {
        doc,
        outcome: Outcome::Campaign { job, result },
    })
}

/// The simulated model with an `llm.sweep` span around each answer, so
/// `identify`'s self time is its own work: the index, the loop query,
/// the prompts and the merge.
struct Timed<'t> {
    tracer: &'t mut Tracer,
    model: SimulatedLlm,
}

impl LanguageModel for Timed<'_> {
    fn ask_yes_no(&mut self, prompt: &Prompt) -> Answer {
        let model = &mut self.model;
        self.tracer.span("llm.sweep", || model.ask_yes_no(prompt))
    }

    fn ask_methods(&mut self, prompt: &Prompt) -> Vec<String> {
        let model = &mut self.model;
        self.tracer.span("llm.sweep", || model.ask_methods(prompt))
    }

    fn usage(&self) -> Usage {
        self.model.usage()
    }
}

/// `Project::compile` → `lint_project` → `sweep_project` → `cross_check`.
fn lint_layers(
    name: &str,
    sources: Vec<(String, String)>,
    llm_seed: u64,
    jobs: usize,
    tracer: &mut Tracer,
) -> Result<Verdict, String> {
    let project = tracer
        .span("lang.compile", || Project::compile(name, sources))
        .map_err(compile_error)?;
    let options = LintOptions {
        jobs,
        ..LintOptions::default()
    };
    let lint = tracer.span("analysis.lint", || lint_project(&project, &options));
    let sweep = tracer.span("llm.sweep", || {
        sweep_project(&project, &mut SimulatedLlm::with_seed(llm_seed))
    });
    let cross = tracer.span("core.cross_check", || cross_check(&lint, &sweep));
    let doc = tracer.span("core.report", || {
        let mut doc = wasabi_analysis::diag::render_json(&lint.diagnostics);
        doc.push('\n');
        doc.push_str(&cross.render_text());
        doc
    });
    Ok(Verdict {
        doc,
        outcome: Outcome::Lint {
            project,
            lint,
            sweep,
            cross,
        },
    })
}

/// Layer calls that cannot be split out of the drive, timed beside it
/// under a probe root: parsing alone, the call graph alone, and for the
/// repair workload one baseline pass (compile, identify, lint, campaign),
/// the unit each repair candidate repeats. Returns the counters the
/// baseline pass adds.
pub fn probe(
    app: &App,
    verdict: &Verdict,
    jobs: usize,
    tracer: &mut Tracer,
) -> Result<BTreeMap<&'static str, u64>, String> {
    let mut counters = BTreeMap::new();
    let replay;
    let project = match &verdict.outcome {
        Outcome::Campaign { job, .. } => &job.project,
        Outcome::Lint { project, .. } => project,
        Outcome::Repair(_) => {
            tracer.begin(PROBE);
            let pass = campaign_layers(
                app.generated.spec.name,
                app.generated.files.clone(),
                app.llm_seed,
                &campaign_options(jobs),
                tracer,
            );
            let pass = match pass {
                Ok(pass) => pass,
                Err(err) => {
                    tracer.end_all();
                    return Err(err);
                }
            };
            let Outcome::Campaign { job, result } = pass.outcome else {
                unreachable!("campaign_layers returns a campaign outcome");
            };
            let options = LintOptions {
                jobs,
                ifratio: false,
                ..LintOptions::default()
            };
            let lint = tracer.span("analysis.lint", || lint_project(&job.project, &options));
            tracer.end();
            counters.insert("analysis.diagnostics", lint.diagnostics.len() as u64);
            add_campaign_counters(&mut counters, &job, &result);
            replay = job;
            &replay.project
        }
    };
    tracer.begin(PROBE);
    tracer.span("lang.parse", || {
        for (_, source) in &app.generated.files {
            std::hint::black_box(parse_file(source).ok());
        }
    });
    tracer.span("analysis.callgraph", || {
        std::hint::black_box(CallGraph::build(project));
    });
    tracer.end();
    Ok(counters)
}

/// Integer work counters read off a drive's results.
pub fn counters(outcome: &Outcome) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    match outcome {
        Outcome::Campaign { job, result } => add_campaign_counters(&mut out, job, result),
        Outcome::Lint {
            project,
            lint,
            sweep,
            cross,
        } => {
            add_front_counters(&mut out, project, sweep);
            out.insert("analysis.retry_loops", lint.loops.len() as u64);
            out.insert("analysis.diagnostics", lint.diagnostics.len() as u64);
            out.insert("core.cross_check_cells", cross.cells.len() as u64);
        }
        Outcome::Repair(outcome) => {
            let attempts: u32 = outcome.targets.iter().map(|t| t.attempts).sum();
            let rejected = outcome
                .targets
                .iter()
                .flat_map(|t| &t.tried)
                .filter(|a| !a.accepted)
                .count();
            out.insert("repair.targets", outcome.targets.len() as u64);
            out.insert(
                "repair.fixed",
                outcome.targets.iter().filter(|t| t.fixed).count() as u64,
            );
            out.insert("repair.attempts", u64::from(attempts));
            out.insert("repair.rejected", rejected as u64);
            out.insert(
                "repair.campaign_runs",
                (outcome.baseline_runs + outcome.validation_runs) as u64,
            );
        }
    }
    out
}

fn add_front_counters(out: &mut BTreeMap<&'static str, u64>, project: &Project, sweep: &LlmSweep) {
    out.insert("lang.files", project.files.len() as u64);
    out.insert("lang.bytes", project.source_bytes() as u64);
    out.insert("lang.methods", project.all_methods().count() as u64);
    out.insert("lang.tests", project.tests().len() as u64);
    out.insert("llm.calls", sweep.usage.calls);
    out.insert("llm.tokens", sweep.usage.tokens);
    out.insert("llm.retry_files", sweep.retry_files.len() as u64);
}

fn add_campaign_counters(
    out: &mut BTreeMap<&'static str, u64>,
    job: &AppJob,
    result: &DynamicResult,
) {
    add_front_counters(out, &job.project, &job.identified.llm_sweep);
    let stats = &result.campaign;
    let counts = [
        ("analysis.retry_loops", job.identified.codeql_loops.len()),
        ("analysis.locations", job.identified.locations.len()),
        ("planner.tests_total", result.profile.tests_total),
        (
            "planner.tests_covering",
            result.profile.tests_covering_retry(),
        ),
        ("planner.runs_planned", result.runs_planned),
        ("planner.runs_naive", result.runs_naive),
        ("engine.runs", stats.runs_total),
        ("engine.failed_runs", stats.crashed + stats.timed_out),
        ("engine.retried", stats.retried),
        ("oracles.bugs", result.bugs.len()),
        ("oracles.reports", result.reports.len()),
    ];
    for (name, value) in counts {
        out.insert(name, value as u64);
    }
    out.insert(
        "planner.profile_virtual_ms",
        result.profile.profile_virtual_ms,
    );
    out.insert("vm.steps", stats.steps);
    out.insert("vm.virtual_ms", stats.virtual_ms);
}

/// Checks a verdict against the corpus ground truth, never against the
/// program's own output. With `corrupt`, one label or verdict is broken
/// first, so the check must fail.
pub fn check(app: &App, verdict: &mut Verdict, corrupt: Option<Corruption>) -> Result<(), String> {
    let generated = &app.generated;
    match &mut verdict.outcome {
        Outcome::Campaign { job, result } => {
            let corrupted;
            let labelled = if corrupt == Some(Corruption::Structure) {
                corrupted = corrupt_campaign_label(generated, result)?;
                &corrupted
            } else {
                generated
            };
            let eval = score(labelled, &job.project, &job.identified, result, &[]);
            let unlabelled = eval.fp_taxonomy.get("dyn-other").copied().unwrap_or(0);
            if unlabelled > 0 {
                return Err(format!(
                    "{unlabelled} dynamic report(s) match neither a seeded bug nor a trap"
                ));
            }
            let budget = &generated.spec.bugs;
            let expected = [
                (
                    "missing-cap",
                    eval.dyn_cap.tp,
                    budget.cap_both + budget.cap_dyn_only,
                ),
                (
                    "missing-delay",
                    eval.dyn_delay.tp,
                    budget.delay_both + budget.delay_dyn_only,
                ),
                ("how", eval.dyn_how.tp, budget.how),
            ];
            for (kind, found, seeded) in expected {
                if found < seeded {
                    return Err(format!(
                        "{found} of {seeded} dynamically findable {kind} bugs reported"
                    ));
                }
            }
            Ok(())
        }
        Outcome::Lint { lint, .. } => {
            let truth = &generated.truth;
            let mut policy: Vec<Label> = truth
                .policy_seeds
                .iter()
                .map(|s| Label {
                    code: s.code,
                    file: &s.file_path,
                    coordinator: s.coordinator.to_string(),
                    genuine: s.genuine,
                })
                .collect();
            let mut amp: Vec<Label> = truth
                .amp_seeds
                .iter()
                .map(|s| Label {
                    code: "A001",
                    file: &s.file_path,
                    coordinator: s.coordinator.to_string(),
                    genuine: s.genuine,
                })
                .collect();
            match corrupt {
                Some(Corruption::Policy) => mislabel(&mut policy)?,
                Some(Corruption::Amp) => mislabel(&mut amp)?,
                _ => {}
            }
            check_lint_labels(lint, &["W004", "W005", "W006"], &policy)?;
            check_lint_labels(lint, &["A001"], &amp)
        }
        Outcome::Repair(outcome) => {
            if corrupt == Some(Corruption::Fixed) {
                for target in &mut outcome.targets {
                    target.fixed = false;
                }
            }
            let scored = score_against_truth(outcome, &generated.truth);
            let rate = scored
                .get("fix_rate_percent")
                .and_then(wasabi_util::Json::as_i64)
                .ok_or("repair score has no fix rate")?;
            if rate < REPAIR_FLOOR_PERCENT {
                return Err(format!(
                    "fix rate {rate}% is below the {REPAIR_FLOOR_PERCENT}% floor"
                ));
            }
            Ok(())
        }
    }
}

/// A copy of the app whose structure behind the first reported bug has
/// lost its bug and trap labels.
fn corrupt_campaign_label(
    generated: &GeneratedApp,
    result: &DynamicResult,
) -> Result<GeneratedApp, String> {
    let bug = result.bugs.first().ok_or("no bug report to mislabel")?;
    let coordinator = &bug.representative().location.coordinator;
    let mut corrupted = generated.clone();
    let structure = corrupted
        .truth
        .structures
        .iter_mut()
        .find(|s| s.coordinator == *coordinator)
        .ok_or("reported coordinator has no structure to mislabel")?;
    structure.bugs.clear();
    structure.traps.clear();
    Ok(corrupted)
}

/// One seeded lint site: a finding of `code` at `coordinator` in `file`
/// is correct when `genuine`, and a false positive on a decoy.
struct Label<'a> {
    code: &'a str,
    file: &'a str,
    coordinator: String,
    genuine: bool,
}

/// Relabels the first genuine site a decoy.
fn mislabel(labels: &mut [Label<'_>]) -> Result<(), String> {
    let label = labels
        .iter_mut()
        .find(|l| l.genuine)
        .ok_or("no genuine label to corrupt")?;
    label.genuine = false;
    Ok(())
}

/// Per-code precision and recall over one seed family's labels, each at
/// least [`LINT_FLOOR`]; a decoy reported under its code fails outright.
/// Only diagnostics in the family's seeded files are scored, as the
/// workspace's lint tests do.
fn check_lint_labels(lint: &LintResult, codes: &[&str], labels: &[Label<'_>]) -> Result<(), String> {
    if !labels.iter().any(|l| l.genuine) {
        return Err(format!("no genuine {} label to score", codes.join("/")));
    }
    for code in codes {
        let found: Vec<_> = lint
            .diagnostics
            .iter()
            .filter(|d| d.code == *code && labels.iter().any(|l| l.file == d.file))
            .collect();
        let mut true_positives = 0usize;
        let mut genuine = 0usize;
        for label in labels.iter().filter(|l| l.code == *code) {
            let matched = found
                .iter()
                .any(|d| d.file == label.file && d.coordinator == label.coordinator);
            if label.genuine {
                genuine += 1;
                true_positives += usize::from(matched);
            } else if matched {
                return Err(format!("decoy {} reported as {code}", label.coordinator));
            }
        }
        let ratio = |num: usize, den: usize| {
            if den == 0 {
                1.0
            } else {
                num as f64 / den as f64
            }
        };
        let precision = ratio(true_positives, found.len());
        let recall = ratio(true_positives, genuine);
        if precision < LINT_FLOOR || recall < LINT_FLOOR {
            return Err(format!(
                "{code} precision {precision:.2} recall {recall:.2} below {LINT_FLOOR}"
            ));
        }
    }
    Ok(())
}
