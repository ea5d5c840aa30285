//! The compile-once / run-many campaign API.
//!
//! `wasabi test` and the serve daemon must produce byte-identical reports
//! for the same app, so the pipeline they share lives here rather than in
//! the CLI binary:
//!
//! - [`compile_app`] is the *cacheable* unit: source → compiled
//!   [`Project`] (interned symbols, `Arc<ProgramIndex>`) →
//!   [`identify`](crate::identify::identify) pass. Everything downstream
//!   is a pure function of its output plus run options, which is what
//!   lets the daemon key an LRU cache on [`source_digest`] and skip
//!   compilation for repeat submissions.
//! - [`run_app_job`] runs the dynamic workflow on a compiled job. The
//!   engine's determinism contract makes the result independent of the
//!   worker count, so cached and fresh submissions judge identically.
//! - [`report_json`] renders the report document `wasabi test --json`
//!   prints — only record-derived fields, byte-identical across `--jobs`
//!   values, resume, and batch vs. daemon execution.

use crate::dynamic::{run_dynamic_with_observer, DynamicOptions, DynamicResult};
use crate::identify::{identify_with_sweep, Identified};
use wasabi_engine::journal;
use wasabi_engine::observer::EngineObserver;
use wasabi_lang::error::Diagnostic;
use wasabi_lang::project::Project;
use wasabi_llm::detector::sweep_sources;
use wasabi_llm::simulated::SimulatedLlm;
use wasabi_util::rng::fnv1a64;
use wasabi_util::Json;

/// A compiled, identified app: the unit the serve daemon caches and the
/// batch CLI runs once. Owns its data (the project holds interned symbols
/// behind an `Arc`), so it is `Send + Sync` and shareable across runner
/// threads.
#[derive(Debug)]
pub struct AppJob {
    /// Project name (the CLI compiles everything as `"cli"`; the digest
    /// includes it, so differently named submissions never collide).
    pub name: String,
    /// [`source_digest`] of the inputs — the cache key.
    pub digest: u64,
    /// The compiled project.
    pub project: Project,
    /// The identification pass (retry locations, LLM sweep).
    pub identified: Identified,
}

/// FNV-1a digest over `(name, path, contents)*` — the serve cache key.
/// Paths are part of the digest because the simulated LLM draws its error
/// modes from file paths, so the same bytes under different paths can
/// identify (and therefore report) differently.
pub fn source_digest(name: &str, sources: &[(String, String)]) -> u64 {
    let mut chunks: Vec<&[u8]> = Vec::with_capacity(2 + sources.len() * 4);
    chunks.push(name.as_bytes());
    chunks.push(b"\0");
    for (path, contents) in sources {
        chunks.push(path.as_bytes());
        chunks.push(b"\0");
        chunks.push(contents.as_bytes());
        chunks.push(b"\0");
    }
    fnv1a64(chunks)
}

/// Compiles `sources` and runs the identification pass — the expensive,
/// cacheable front half of the pipeline. `llm_seed` seeds the simulated
/// LLM (the CLI uses 0).
///
/// The digest and the LLM sweep read only the raw sources, so they run on
/// one helper thread while this thread parses and links
/// ([`Project::compile_beside`]); the static query then merges the
/// finished sweep. The result equals [`source_digest`], then
/// [`Project::compile`], then [`identify`](crate::identify::identify), run
/// one after another.
pub fn compile_app(
    name: &str,
    sources: Vec<(String, String)>,
    llm_seed: u64,
) -> Result<AppJob, Vec<Diagnostic>> {
    let (project, (digest, llm_sweep)) = Project::compile_beside(name, sources, |sources| {
        let digest = source_digest(name, sources);
        let sweep = sweep_sources(sources, &mut SimulatedLlm::with_seed(llm_seed));
        (digest, sweep)
    });
    let project = project?;
    let identified = identify_with_sweep(&project, llm_sweep);
    Ok(AppJob {
        name: name.to_string(),
        digest,
        project,
        identified,
    })
}

/// Runs the dynamic workflow on a compiled job, streaming progress into
/// `observer`.
pub fn run_app_job(
    job: &AppJob,
    options: &DynamicOptions,
    observer: &mut dyn EngineObserver,
) -> DynamicResult {
    run_dynamic_with_observer(&job.project, &job.identified.locations, options, observer)
}

/// The `wasabi test --json` report document. Only record-derived fields
/// appear here (never scheduling- or session-dependent ones like
/// wall-clock or per-worker counts): this document must be byte-identical
/// across `--jobs` values, across an uninterrupted run vs. a `--resume`
/// of it, and across batch vs. daemon execution.
pub fn report_json(identified: &Identified, result: &DynamicResult) -> String {
    report_json_with(identified, result, 0)
}

/// [`report_json`] with an explicit `dead_lettered` count — runs a shard
/// supervisor quarantined at the *process* level (they repeatedly killed
/// their shard child and produced no record). Single-process campaigns
/// can never dead-letter, so `report_json` pins the field to 0; the field
/// is always present so sharded and single-process reports stay
/// byte-identical whenever nothing was lost.
pub fn report_json_with(
    identified: &Identified,
    result: &DynamicResult,
    dead_lettered: usize,
) -> String {
    let value = Json::obj([
        ("schema_version", Json::from(journal::SCHEMA_VERSION)),
        ("locations", Json::from(identified.locations.len())),
        (
            "covering_tests",
            Json::from(result.profile.tests_covering_retry()),
        ),
        ("runs_planned", Json::from(result.runs_planned)),
        ("runs_naive", Json::from(result.runs_naive)),
        ("timed_out", Json::from(result.campaign.timed_out)),
        ("crashed", Json::from(result.campaign.crashed)),
        ("quarantined", Json::from(result.campaign.quarantined)),
        ("dead_lettered", Json::from(dead_lettered)),
        (
            "pinned_configs",
            Json::arr(result.restoration.pinned.iter().map(|k| Json::from(k.as_str()))),
        ),
        (
            "bugs",
            Json::arr(result.bugs.iter().map(|b| {
                Json::obj([
                    ("kind", Json::from(b.kind.to_string())),
                    (
                        "coordinator",
                        Json::from(b.representative().location.coordinator.to_string()),
                    ),
                    (
                        "exception",
                        Json::from(b.representative().location.exception.as_str()),
                    ),
                    ("detail", Json::from(b.representative().detail.as_str())),
                    ("reports", Json::from(b.reports.len())),
                ])
            })),
        ),
    ]);
    value.pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_engine::observer::NullObserver;

    const SOURCE: &str = "\
exception E;\n\
class C {\n\
  method op() throws E { return \"ok\"; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (E e) { log(\"retrying\"); }\n\
    }\n\
  }\n\
  test tRun() { assert(this.run() == \"ok\"); }\n\
}\n";

    fn sources() -> Vec<(String, String)> {
        vec![("c.jav".to_string(), SOURCE.to_string())]
    }

    #[test]
    fn digest_depends_on_name_path_and_contents() {
        let base = source_digest("cli", &sources());
        assert_eq!(base, source_digest("cli", &sources()), "digest is stable");
        assert_ne!(base, source_digest("other", &sources()));
        let mut renamed = sources();
        renamed[0].0 = "d.jav".to_string();
        assert_ne!(base, source_digest("cli", &renamed));
        let mut edited = sources();
        edited[0].1.push(' ');
        assert_ne!(base, source_digest("cli", &edited));
    }

    #[test]
    fn compiled_job_reports_identically_to_a_recompile() {
        let job = compile_app("cli", sources(), 0).expect("compile");
        let first = {
            let result = run_app_job(&job, &DynamicOptions::default(), &mut NullObserver);
            report_json(&job.identified, &result)
        };
        // A cache hit replays the same AppJob; a fresh compile of the same
        // sources must agree byte-for-byte.
        let again = compile_app("cli", sources(), 0).expect("compile");
        assert_eq!(job.digest, again.digest);
        let second = {
            let result = run_app_job(&again, &DynamicOptions::default(), &mut NullObserver);
            report_json(&again.identified, &result)
        };
        assert_eq!(first, second, "report must be a pure function of sources");
        assert!(first.contains("\"bugs\""));
    }

    #[test]
    fn disabling_timing_capture_never_changes_the_report() {
        let job = compile_app("cli", sources(), 0).expect("compile");
        let timed = {
            let options = DynamicOptions::default();
            assert!(options.capture_timing, "timing capture is on by default");
            let result = run_app_job(&job, &options, &mut NullObserver);
            report_json(&job.identified, &result)
        };
        let untimed = {
            let options = DynamicOptions {
                capture_timing: false,
                ..DynamicOptions::default()
            };
            let result = run_app_job(&job, &options, &mut NullObserver);
            report_json(&job.identified, &result)
        };
        assert_eq!(timed, untimed, "timing is never report-bearing");
    }

    #[test]
    fn compile_errors_surface_as_diagnostics() {
        let bad = vec![("b.jav".to_string(), "class {".to_string())];
        assert!(compile_app("cli", bad, 0).is_err());
    }
}
