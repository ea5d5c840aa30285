//! IF-bug detection via application-wide retry ratios (§3.2.2).
//!
//! For each exception `E`, count the retry loops where `E` could be thrown
//! (`N_E`) and the subset where `E` is actually retried — covered by a catch
//! clause that reaches the loop header (`R_E`). Exceptions that are *almost
//! always* retried (ratio ≥ 2/3 but < 1) or *almost never* retried (ratio ≤
//! 1/3 but > 0) are reported, with the outlier loops attached.

use crate::cfg::{Atom, Cfg};
use crate::loops::{find_retry_loops, LoopQueryOptions, RetryLoop};
use crate::resolve::ProjectIndex;
use std::collections::BTreeMap;
use wasabi_lang::project::{FileId, MethodId};
use wasabi_lang::span::Span;

/// Which side of the ratio the outliers fall on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutlierKind {
    /// The exception is mostly retried; outliers do not retry it.
    MostlyRetried,
    /// The exception is mostly not retried; outliers do retry it.
    MostlyNotRetried,
}

/// One loop instance flagged as inconsistent with the application-wide
/// policy for its exception.
#[derive(Debug, Clone)]
pub struct IfOutlier {
    /// Coordinator method containing the loop.
    pub coordinator: MethodId,
    /// Whether this instance retries the exception.
    pub retried: bool,
    /// File containing the loop (diagnostic anchor).
    pub file: FileId,
    /// Source span of the loop (diagnostic anchor).
    pub span: Span,
}

/// Per-exception retry-ratio report.
#[derive(Debug, Clone)]
pub struct IfReport {
    /// The exception type.
    pub exception: String,
    /// Loops where the exception could be thrown.
    pub n: usize,
    /// Loops where the exception is retried.
    pub r: usize,
    /// Which policy the majority follows.
    pub kind: OutlierKind,
    /// The minority (inconsistent) loop instances.
    pub outliers: Vec<IfOutlier>,
}

impl IfReport {
    /// The retry ratio `R_E / N_E`.
    pub fn ratio(&self) -> f64 {
        self.r as f64 / self.n as f64
    }
}

/// Options for the IF-ratio analysis.
#[derive(Debug, Clone)]
pub struct IfOptions {
    /// Minimum `N_E` for an exception to be considered (ratios over tiny
    /// samples are noise).
    pub min_sites: usize,
    /// Upper threshold: ratios at or above this (but below 1) flag
    /// non-retried outliers. The paper uses 2/3.
    pub hi: f64,
    /// Lower threshold: ratios at or below this (but above 0) flag retried
    /// outliers. The paper uses 1/3.
    pub lo: f64,
    /// Loop-query options used to find retry loops.
    pub loop_options: LoopQueryOptions,
}

impl Default for IfOptions {
    fn default() -> Self {
        IfOptions {
            min_sites: 3,
            hi: 2.0 / 3.0,
            lo: 1.0 / 3.0,
            loop_options: LoopQueryOptions::default(),
        }
    }
}

/// Per-loop view of one exception: could it be thrown, and is it retried?
#[derive(Debug, Clone)]
struct LoopExceptionUse {
    coordinator: MethodId,
    retried: bool,
    file: FileId,
    span: Span,
}

/// Runs the IF-ratio analysis across the project.
pub fn if_ratio_reports(index: &ProjectIndex<'_>, options: &IfOptions) -> Vec<IfReport> {
    let loops = find_retry_loops(index, &options.loop_options);
    if_ratio_reports_for(index, &loops, options)
}

/// [`if_ratio_reports`] over retry loops already found with
/// `options.loop_options`.
pub fn if_ratio_reports_for(
    index: &ProjectIndex<'_>,
    loops: &[RetryLoop],
    options: &IfOptions,
) -> Vec<IfReport> {
    let mut uses: BTreeMap<String, Vec<LoopExceptionUse>> = BTreeMap::new();
    for retry_loop in loops {
        for (exception, retried) in loop_exceptions(index, retry_loop) {
            uses.entry(exception).or_default().push(LoopExceptionUse {
                coordinator: retry_loop.coordinator.clone(),
                retried,
                file: retry_loop.file,
                span: retry_loop.span,
            });
        }
    }
    let mut out = Vec::new();
    for (exception, instances) in uses {
        let n = instances.len();
        if n < options.min_sites {
            continue;
        }
        let r = instances.iter().filter(|u| u.retried).count();
        let ratio = r as f64 / n as f64;
        let (kind, outlier_filter): (OutlierKind, fn(&LoopExceptionUse) -> bool) =
            if ratio >= options.hi && r < n {
                (OutlierKind::MostlyRetried, |u| !u.retried)
            } else if ratio <= options.lo && r > 0 {
                (OutlierKind::MostlyNotRetried, |u| u.retried)
            } else {
                continue;
            };
        let outliers = instances
            .iter()
            .filter(|u| outlier_filter(u))
            .map(|u| IfOutlier {
                coordinator: u.coordinator.clone(),
                retried: u.retried,
                file: u.file,
                span: u.span,
            })
            .collect();
        out.push(IfReport {
            exception,
            n,
            r,
            kind,
            outliers,
        });
    }
    out
}

/// Exceptions that could be thrown inside `retry_loop` (from callee
/// signatures and syntactic throws), each with whether a header-reaching
/// catch covers it.
fn loop_exceptions(
    index: &ProjectIndex<'_>,
    retry_loop: &RetryLoop,
) -> Vec<(String, bool)> {
    let Some(loop_site) = index
        .loops()
        .iter()
        .find(|l| l.file == retry_loop.file && l.loop_id == retry_loop.loop_id)
    else {
        return Vec::new();
    };
    let cfg = Cfg::build(&loop_site.method.body);
    let symbols = &index.project().symbols;
    let mut thrown: Vec<String> = Vec::new();
    for block in cfg.blocks_in_loop(retry_loop.loop_id) {
        for atom in &cfg.blocks[block.0 as usize].atoms {
            match atom {
                Atom::Call {
                    method, recv_this, ..
                } => {
                    if let Some((_, decl)) =
                        index.resolve_callee(loop_site.class, method, *recv_this)
                    {
                        thrown.extend(decl.throws.iter().cloned());
                    }
                }
                Atom::Throw {
                    exc_type: Some(ty), ..
                } => thrown.push(ty.clone()),
                _ => {}
            }
        }
    }
    thrown.sort();
    thrown.dedup();
    thrown
        .into_iter()
        .map(|exception| {
            let retried = retry_loop.reaching_catches.iter().any(|caught| {
                symbols.is_exception_subtype(&exception, caught)
            });
            (exception, retried)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_lang::project::Project;

    /// Builds N retry loops that retry KeeperException and M that do not.
    fn keeper_project(retried: usize, not_retried: usize) -> Project {
        let mut src = String::from(
            "exception KeeperException;\n\
             class Zk { method op() throws KeeperException { return 1; } }\n",
        );
        for i in 0..retried {
            src.push_str(&format!(
                "class R{i} {{\n\
                   method run(zk) {{\n\
                     for (var retry = 0; retry < 5; retry = retry + 1) {{\n\
                       try {{ return zk.op(); }} catch (KeeperException e) {{ sleep(10); }}\n\
                     }}\n\
                     return null;\n\
                   }}\n\
                 }}\n"
            ));
        }
        for i in 0..not_retried {
            // A retry loop (some other exception retried) where
            // KeeperException could be thrown but is NOT caught-and-retried:
            // its catch breaks out.
            src.push_str(&format!(
                "exception Transient{i};\n\
                 class N{i} {{\n\
                   method flaky() throws Transient{i} {{ return 1; }}\n\
                   method run(zk) {{\n\
                     for (var retry = 0; retry < 5; retry = retry + 1) {{\n\
                       try {{ zk.op(); return this.flaky(); }}\n\
                       catch (Transient{i} e) {{ sleep(10); }}\n\
                       catch (KeeperException e) {{ break; }}\n\
                     }}\n\
                     return null;\n\
                   }}\n\
                 }}\n"
            ));
        }
        Project::compile("zk", vec![("zk.jav", src)]).expect("compile")
    }

    #[test]
    fn mostly_retried_exception_flags_non_retrying_outlier() {
        let p = keeper_project(5, 1);
        let idx = ProjectIndex::build(&p);
        let reports = if_ratio_reports(&idx, &IfOptions::default());
        let keeper = reports
            .iter()
            .find(|r| r.exception == "KeeperException")
            .expect("KeeperException report");
        assert_eq!((keeper.n, keeper.r), (6, 5));
        assert_eq!(keeper.kind, OutlierKind::MostlyRetried);
        assert_eq!(keeper.outliers.len(), 1);
        assert_eq!(keeper.outliers[0].coordinator, MethodId::new("N0", "run"));
    }

    #[test]
    fn mostly_not_retried_exception_flags_retrying_outlier() {
        let p = keeper_project(1, 5);
        let idx = ProjectIndex::build(&p);
        let reports = if_ratio_reports(&idx, &IfOptions::default());
        let keeper = reports
            .iter()
            .find(|r| r.exception == "KeeperException")
            .expect("KeeperException report");
        assert_eq!((keeper.n, keeper.r), (6, 1));
        assert_eq!(keeper.kind, OutlierKind::MostlyNotRetried);
        assert_eq!(keeper.outliers.len(), 1);
        assert_eq!(keeper.outliers[0].coordinator, MethodId::new("R0", "run"));
    }

    #[test]
    fn consistent_policy_produces_no_report() {
        let p = keeper_project(6, 0);
        let idx = ProjectIndex::build(&p);
        let reports = if_ratio_reports(&idx, &IfOptions::default());
        assert!(
            !reports.iter().any(|r| r.exception == "KeeperException"),
            "uniformly retried exception should not be an outlier"
        );
    }

    #[test]
    fn small_samples_are_ignored() {
        let p = keeper_project(1, 1);
        let idx = ProjectIndex::build(&p);
        let reports = if_ratio_reports(&idx, &IfOptions::default());
        assert!(!reports.iter().any(|r| r.exception == "KeeperException"));
    }

    #[test]
    fn boolean_flag_blindness_counts_flag_break_as_retried() {
        // The paper's one IF false positive (§4.3): the catch sets a flag
        // that always breaks, so the exception is never actually retried,
        // but syntactic reachability counts it as retried.
        let mut src = String::from(
            "exception FileNotFoundException;\n\
             class Fs { method open() throws FileNotFoundException { return 1; } }\n",
        );
        // Three loops that genuinely do not retry it.
        for i in 0..3 {
            src.push_str(&format!(
                "exception T{i};\n\
                 class N{i} {{\n\
                   method flaky() throws T{i} {{ return 1; }}\n\
                   method run(fs) {{\n\
                     for (var retry = 0; retry < 5; retry = retry + 1) {{\n\
                       try {{ fs.open(); return this.flaky(); }}\n\
                       catch (T{i} e) {{ sleep(10); }}\n\
                       catch (FileNotFoundException e) {{ return null; }}\n\
                     }}\n\
                     return null;\n\
                   }}\n\
                 }}\n"
            ));
        }
        // One loop with the boolean-flag pattern.
        src.push_str(
            "class Flag {\n\
               method run(fs) {\n\
                 var failed = false;\n\
                 for (var retry = 0; retry < 5; retry = retry + 1) {\n\
                   try { fs.open(); }\n\
                   catch (FileNotFoundException e) { failed = true; }\n\
                   if (failed) { break; }\n\
                 }\n\
                 return null;\n\
               }\n\
             }\n",
        );
        let p = Project::compile("fs", vec![("fs.jav", src)]).expect("compile");
        let idx = ProjectIndex::build(&p);
        let reports = if_ratio_reports(&idx, &IfOptions::default());
        let fnf = reports
            .iter()
            .find(|r| r.exception == "FileNotFoundException")
            .expect("report");
        // Declared retried in 1/4 although it is never actually retried —
        // the false positive the paper describes.
        assert_eq!((fnf.n, fnf.r), (4, 1));
        assert_eq!(fnf.kind, OutlierKind::MostlyNotRetried);
        assert_eq!(fnf.outliers[0].coordinator, MethodId::new("Flag", "run"));
    }
}
