//! The WASABI benchmark: one workload over all eight corpus apps, timed
//! end to end, every verdict checked against the corpus ground truth.
//!
//! ```text
//! wasabi-perfbench --workload campaign-paper|lint-paper|repair-small
//!     --seed N --seconds S --trace 0|1
//!     [--corrupt structure|policy|amp|fixed] [--spans-out FILE]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` drives the same
//! apps once more with a span around every layer call and prints the
//! per-layer metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--corrupt` breaks one
//! ground-truth label or verdict of the first app, so the truth check that
//! guards it must report a failure.

mod drive;
mod trace;

use drive::{App, Corruption, Verdict, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Campaign, lint and repair worker threads.
const JOBS: usize = 2;
/// Corpus generations per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Share of the traced wall time the layer spans must cover.
const TILING_FLOOR: f64 = 0.9;

/// Layer self-time metrics and the span each sums.
const LAYER_TIMES: [(&str, &str); 15] = [
    ("lang.compile_s", "lang.compile"),
    ("lang.parse_s", "lang.parse"),
    ("analysis.identify_static_s", "analysis.identify_static"),
    ("analysis.lint_s", "analysis.lint"),
    ("analysis.callgraph_s", "analysis.callgraph"),
    ("llm.sweep_s", "llm.sweep"),
    ("planner.restore_s", "planner.restore"),
    ("planner.profile_s", "planner.profile"),
    ("planner.plan_s", "planner.plan"),
    ("engine.run_s", "engine.run"),
    ("oracles.dedup_s", "oracles.dedup"),
    ("core.digest_s", "core.digest"),
    ("core.cross_check_s", "core.cross_check"),
    ("core.report_s", "core.report"),
    ("repair.session_s", "repair.session"),
];

/// Spans timed beside the drive (under a probe root), not part of it.
const PROBE_SPANS: [&str; 2] = ["lang.parse", "analysis.callgraph"];

/// Integer work counters, summed over the apps of the traced run.
const COUNTERS: [&str; 28] = [
    "lang.files",
    "lang.bytes",
    "lang.methods",
    "lang.tests",
    "llm.calls",
    "llm.tokens",
    "llm.retry_files",
    "analysis.retry_loops",
    "analysis.locations",
    "analysis.diagnostics",
    "planner.tests_total",
    "planner.tests_covering",
    "planner.profile_virtual_ms",
    "planner.runs_planned",
    "planner.runs_naive",
    "engine.runs",
    "engine.failed_runs",
    "engine.retried",
    "vm.steps",
    "vm.virtual_ms",
    "oracles.bugs",
    "oracles.reports",
    "core.cross_check_cells",
    "repair.targets",
    "repair.fixed",
    "repair.attempts",
    "repair.rejected",
    "repair.campaign_runs",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: Option<Corruption>,
    spans_out: Option<PathBuf>,
}

impl Args {
    /// The corruption applied to the app at `index`: the first app only.
    fn corrupt_at(&self, index: usize) -> Option<Corruption> {
        self.corrupt.filter(|_| index == 0)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0_f64;
    let mut trace = false;
    let mut corrupt = None;
    let mut spans_out = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--corrupt" => corrupt = Some(Corruption::parse(&value).ok_or_else(bad)?),
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if let Some(kind) = corrupt.filter(|kind| kind.workload() != workload) {
        return Err(format!(
            "--corrupt {kind:?} guards {}, not {}",
            kind.workload().name(),
            workload.name()
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        corrupt,
        spans_out,
    })
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => run(&args),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Verdict bookkeeping across every drive of a run.
struct Ledger {
    attempted: u64,
    failed: u64,
    /// Verdict bytes and counters of each app's first drive.
    first: Vec<Option<(String, BTreeMap<&'static str, u64>)>>,
    /// Determinism breaks: differing verdict bytes or counters.
    inconsistencies: Vec<String>,
}

impl Ledger {
    /// Checks one drive's verdict and returns its counters.
    fn settle(
        &mut self,
        index: usize,
        app: &App,
        verdict: Result<Verdict, String>,
        corrupt: Option<Corruption>,
        label: &str,
    ) -> Option<BTreeMap<&'static str, u64>> {
        self.attempted += 1;
        let short = app.generated.spec.short;
        let mut verdict = match verdict {
            Ok(verdict) => verdict,
            Err(err) => {
                self.failed += 1;
                eprintln!("{short}: {label} drive failed: {err}");
                return None;
            }
        };
        if let Err(err) = drive::check(app, &mut verdict, corrupt) {
            self.failed += 1;
            eprintln!("{short}: {label} verdict fails its truth check: {err}");
        }
        let counters = drive::counters(&verdict.outcome);
        match &self.first[index] {
            None => self.first[index] = Some((verdict.doc, counters.clone())),
            Some((doc, first)) => {
                if *doc != verdict.doc {
                    self.inconsistencies
                        .push(format!("{short}: {label} verdict bytes differ"));
                }
                for (name, value) in &counters {
                    if first.get(name) != Some(value) {
                        self.inconsistencies.push(format!(
                            "{short}: {label} counter {name} = {value}, first run {:?}",
                            first.get(name)
                        ));
                    }
                }
            }
        }
        Some(counters)
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Drives one app with its sources copied before the clock starts.
fn timed_drive(
    workload: Workload,
    app: &App,
    jobs: usize,
    tracer: &mut Tracer,
) -> (f64, Result<Verdict, String>) {
    let sources = app.generated.files.clone();
    let start = Instant::now();
    let verdict = drive::drive(workload, app, sources, jobs, tracer);
    (start.elapsed().as_secs_f64(), verdict)
}

struct Metric {
    name: &'static str,
    value: String,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: format!("{value:?}"),
        unit,
    }
}

fn run(args: &Args) -> ExitCode {
    let workload = args.workload;
    let mut setup_times = Vec::new();
    let mut apps = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut apps));
        let start = Instant::now();
        apps = drive::generate(workload, args.seed);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let files: usize = apps.iter().map(|a| a.generated.files.len()).sum();

    let mut ledger = Ledger {
        attempted: 0,
        failed: 0,
        first: vec![None; apps.len()],
        inconsistencies: Vec::new(),
    };
    let mut untraced = Tracer::new(false);
    let mut walls = Vec::new();
    let mut app_times: Vec<Vec<f64>> = vec![Vec::new(); apps.len()];
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let mut wall = 0.0;
        for (index, app) in apps.iter().enumerate() {
            let (elapsed, verdict) = timed_drive(workload, app, JOBS, &mut untraced);
            wall += elapsed;
            app_times[index].push(elapsed);
            ledger.settle(index, app, verdict, args.corrupt_at(index), "untraced");
        }
        walls.push(wall);
    }
    let wall_s = median(&walls);

    let metrics = if args.trace {
        match traced(args, &apps, &mut ledger) {
            Ok(metrics) => metrics,
            Err(err) => {
                eprintln!("{err}");
                ledger.inconsistencies.push(err);
                Vec::new()
            }
        }
    } else {
        let per_app: Vec<f64> = app_times.iter().map(|t| median(t)).collect();
        let mut metrics = vec![
            metric("wall_s", wall_s, "s"),
            metric("files_per_s", files as f64 / wall_s, "1/s"),
            metric("app_s.p50", median(&per_app), "s"),
            metric(
                "app_s.max",
                per_app.iter().copied().fold(0.0, f64::max),
                "s",
            ),
        ];
        if let Some(peak) = trace::peak_rss_mb() {
            metrics.push(metric("peak_rss_mb", peak, "MB"));
        }
        metrics.push(metric("setup_s", median(&setup_times), "s"));
        metrics
    };

    for line in &ledger.inconsistencies {
        eprintln!("inconsistent: {line}");
    }
    let failed_share = ledger.failed as f64 / ledger.attempted as f64;
    println!(
        "{} seed {} scale {:?} jobs {JOBS}: {} apps, {files} files, {} timed pass(es)",
        workload.name(),
        args.seed,
        workload.scale(),
        apps.len(),
        walls.len()
    );
    let passes: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("  {:<28} {} s", "pass_wall_s", passes.join(" "));
    for m in &metrics {
        println!("  {:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<28} {:>16} ({}/{} app verdicts)",
        "failed_share", failed_share, ledger.failed, ledger.attempted
    );
    let correct = ledger.failed == 0 && ledger.inconsistencies.is_empty() && !metrics.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// The traced pass: every app once more with layer spans (same seed, same
/// jobs), each right after an untraced drive of the same app so the pair
/// gives the tracing overhead, and the probes beside it; then once
/// untraced with one worker so counters and verdicts are compared across
/// worker counts too.
fn traced(args: &Args, apps: &[App], ledger: &mut Ledger) -> Result<Vec<Metric>, String> {
    let workload = args.workload;
    let mut tracer = Tracer::new(true);
    let mut untraced = Tracer::new(false);
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut overheads = Vec::new();
    for (index, app) in apps.iter().enumerate() {
        let corrupt = args.corrupt_at(index);
        let (untraced_s, verdict) = timed_drive(workload, app, JOBS, &mut untraced);
        ledger.settle(index, app, verdict, corrupt, "paired untraced");
        let (traced_s, verdict) = timed_drive(workload, app, JOBS, &mut tracer);
        overheads.push(traced_s - untraced_s);
        let probed = match &verdict {
            Ok(verdict) => Some(drive::probe(app, verdict, JOBS, &mut tracer)),
            Err(_) => None,
        };
        if let Some(found) = ledger.settle(index, app, verdict, corrupt, "traced") {
            merge_counts(&mut counts, found);
        }
        match probed {
            Some(Ok(found)) => merge_counts(&mut counts, found),
            Some(Err(err)) => return Err(format!("probe failed: {err}")),
            None => {}
        }
    }
    if let Some(path) = &args.spans_out {
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for (index, app) in apps.iter().enumerate() {
        let (_, verdict) = timed_drive(workload, app, 1, &mut untraced);
        ledger.settle(index, app, verdict, args.corrupt_at(index), "jobs=1");
    }

    let spans = tracer.spans();
    let self_times = trace::self_times(spans);
    let (traced_wall, tiled) = trace::app_tiling(spans);
    let tiled_share = tiled / traced_wall;
    if tiled_share < TILING_FLOOR {
        return Err(format!(
            "layer spans tile {:.1}% of the traced wall time, below {:.0}%",
            tiled_share * 100.0,
            TILING_FLOOR * 100.0
        ));
    }

    let mut metrics = Vec::new();
    let mut largest: Option<(&str, f64)> = None;
    for (name, span) in LAYER_TIMES {
        let value = self_times.get(span).copied().unwrap_or(0.0);
        if !PROBE_SPANS.contains(&span) && largest.is_none_or(|(_, v)| value > v) {
            largest = Some((name, value));
        }
        metrics.push(metric(name, value, "s"));
    }
    for name in COUNTERS {
        let value = counts.get(name).copied().unwrap_or(0);
        metrics.push(Metric {
            name,
            value: value.to_string(),
            unit: "count",
        });
    }
    let ratio = |num: &str, den: &str| {
        let den = counts.get(den).copied().unwrap_or(0);
        if den == 0 {
            0.0
        } else {
            counts.get(num).copied().unwrap_or(0) as f64 / den as f64
        }
    };
    metrics.push(metric(
        "planner.covering_share",
        ratio("planner.tests_covering", "planner.tests_total"),
        "ratio",
    ));
    metrics.push(metric(
        "repair.fixed_per_attempt",
        ratio("repair.fixed", "repair.attempts"),
        "ratio",
    ));
    if let Some(peak) = tracer.profile_peak_mb() {
        metrics.push(metric("planner.profile_rss_mb", peak, "MB"));
    }
    metrics.push(metric("trace.wall_s", traced_wall, "s"));
    metrics.push(metric("trace.overhead_s", median(&overheads), "s"));
    metrics.push(metric("trace.tiled_share", tiled_share, "ratio"));
    if let Some((name, value)) = largest {
        println!("largest layer: {name} ({value:.3} s of {traced_wall:.3} s traced)");
    }
    Ok(metrics)
}

fn merge_counts(into: &mut BTreeMap<&'static str, u64>, from: BTreeMap<&'static str, u64>) {
    for (name, value) in from {
        *into.entry(name).or_insert(0) += value;
    }
}
