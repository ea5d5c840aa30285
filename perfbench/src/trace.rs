//! In-memory spans recorded around calls into the library's layers.
//!
//! The benchmark never instruments the program: each span brackets one
//! call into a public function (or one pipeline phase the engine already
//! announces through [`EngineObserver`]). A span's self time is its
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;
use wasabi_engine::{EngineEvent, EngineObserver};

/// Root span of one app's drive, from handing over sources to its verdict.
pub const APP: &str = "app";
/// Root span of work measured beside the drive, outside its wall time.
pub const PROBE: &str = "probe";

/// One closed span; times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans when enabled; a disabled tracer only runs the
/// closures it is handed.
pub struct Tracer {
    /// Highest resident-set peak of any profile phase, in MB.
    profile_peak_mb: f64,
    /// Set once the peak could not be reset or read.
    profile_peak_unavailable: bool,
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            profile_peak_mb: 0.0,
            profile_peak_unavailable: false,
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let index = self.open.pop().expect("span end without a begin");
        self.spans[index].end = end;
    }

    /// Closes every open span, as after a drive that returned early.
    pub fn end_all(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// The largest resident-set peak reached inside a profile phase, 0
    /// when none ran; `None` where the peak cannot be reset (off Linux).
    pub fn profile_peak_mb(&self) -> Option<f64> {
        (!self.profile_peak_unavailable).then_some(self.profile_peak_mb)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span: name, start, end, parent index.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}",
                span.name, span.start, span.end
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time summed per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut covered = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration();
        }
    }
    let mut out = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        *out.entry(span.name).or_insert(0.0) += span.duration() - covered;
    }
    out
}

/// `(wall, tiled)`: total duration of the app roots, and the part of it
/// their layer spans cover.
pub fn app_tiling(spans: &[Span]) -> (f64, f64) {
    let mut wall = 0.0;
    let mut tiled = 0.0;
    for span in spans {
        if span.name == APP {
            wall += span.duration();
        } else if span.parent.is_some_and(|p| spans[p].name == APP) {
            tiled += span.duration();
        }
    }
    (wall, tiled)
}

/// Maps the dynamic pipeline's phase events onto layer spans.
pub struct PhaseSpans<'t>(pub &'t mut Tracer);

fn phase_layer(phase: &str) -> &'static str {
    match phase {
        "restore" => "planner.restore",
        "profile" => "planner.profile",
        "plan" => "planner.plan",
        "run" => "engine.run",
        "report" => "oracles.dedup",
        _ => "core.phase",
    }
}

impl EngineObserver for PhaseSpans<'_> {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        match event {
            EngineEvent::PhaseStarted { name } => {
                if *name == "profile" && !reset_peak_rss() {
                    self.0.profile_peak_unavailable = true;
                }
                self.0.begin(phase_layer(name));
            }
            EngineEvent::PhaseFinished { name } => {
                self.0.end();
                if *name == "profile" {
                    match peak_rss_mb() {
                        Some(peak) => self.0.profile_peak_mb = self.0.profile_peak_mb.max(peak),
                        None => self.0.profile_peak_unavailable = true,
                    }
                }
            }
            _ => {}
        }
    }
}

/// Resets the process's peak resident set to its current size, so the next
/// [`peak_rss_mb`] covers only what follows; false where Linux's
/// `clear_refs` is unavailable.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set (`VmHWM`) in MB; `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
