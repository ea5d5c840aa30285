//! The `wasabi lint` workflow: interprocedural static diagnostics plus
//! Figure-4-style overlap accounting between the query-based checkers and
//! the LLM static sweep.
//!
//! The paper's Figure 4 compares what CodeQL-style queries and the
//! LLM-based checker each find, and what both find. Here the query side is
//! [`lint_project`]'s WHEN diagnostics (`W001` missing cap, `W002` missing
//! delay) and the LLM side is the sweep's WHEN findings; a finding is
//! *shared* when both techniques flag the same `(file, method, kind)`.
//!
//! On top of the counts, [`cross_check`] runs the two techniques as
//! mutually-checking detectors (the CERBERUS arbitration idea: when two
//! imperfect detectors agree, confidence rises; when they disagree, that
//! is exactly where scrutiny should go). Every finding becomes a
//! [`CrossCheckCell`] in one of three [`Tier`]s, the matrix renders
//! deterministically, and [`CrossCheck::disagreement_methods`] feeds the
//! adaptive planner so disagreement-tier methods get probe priority.

use std::collections::BTreeSet;
use wasabi_analysis::checkers::{lint_project, LintOptions, LintResult};
use wasabi_lang::project::Project;
use wasabi_llm::detector::{sweep_project, LlmSweep, LlmWhenKind};
use wasabi_llm::model::LanguageModel;

/// Overlap counts between the static checkers and the LLM sweep, for WHEN
/// findings only (the codes both techniques can express).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WhenOverlap {
    /// WHEN findings only the static checkers report.
    pub static_only: usize,
    /// WHEN findings only the LLM sweep reports.
    pub llm_only: usize,
    /// WHEN findings both techniques report.
    pub both: usize,
}

impl WhenOverlap {
    /// Total distinct WHEN findings across both techniques.
    pub fn total(&self) -> usize {
        self.static_only + self.llm_only + self.both
    }
}

/// Everything `wasabi lint` computes for one project.
#[derive(Debug)]
pub struct LintReport {
    /// The static lint result (sorted diagnostics + per-loop facts).
    pub lint: LintResult,
    /// The LLM sweep the overlap was computed against.
    pub sweep: LlmSweep,
    /// CodeQL-vs-LLM WHEN overlap.
    pub overlap: WhenOverlap,
}

/// The diagnostic code an LLM WHEN finding corresponds to.
fn code_of(kind: LlmWhenKind) -> &'static str {
    match kind {
        LlmWhenKind::MissingCap => "W001",
        LlmWhenKind::MissingDelay => "W002",
    }
}

/// Confidence tier of one cross-checked finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Both detectors flagged the same `(file, method, code)`.
    BothAgree,
    /// Only the static checkers flagged it. WHEN codes here mean the LLM
    /// sweep missed it; codes the sweep cannot express (`W003`–`W006`,
    /// `A001`, `I001`) are inherently static-only.
    StaticOnly,
    /// Only the LLM sweep flagged it.
    LlmOnly,
}

impl Tier {
    /// The stable label used in text and JSON renderings.
    pub fn label(self) -> &'static str {
        match self {
            Tier::BothAgree => "both-agree",
            Tier::StaticOnly => "static-only",
            Tier::LlmOnly => "llm-only",
        }
    }
}

/// One `(code, file, method)` finding with its arbitration tier.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CrossCheckCell {
    /// Source file path (project-relative, as diagnostics report it).
    pub file: String,
    /// Coordinator method name (class-stripped — the granularity the LLM
    /// sweep reports at).
    pub method: String,
    /// Diagnostic code (`W001`, ..., `I001`).
    pub code: String,
    /// Which detector(s) flagged it.
    pub tier: Tier,
}

/// The deterministic agreement matrix between the static checkers and the
/// LLM sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrossCheck {
    /// All cells, sorted by `(file, method, code, tier)` — byte-identical
    /// across `--jobs` values (both inputs are already deterministic).
    pub cells: Vec<CrossCheckCell>,
    /// Findings both detectors agree on.
    pub both: usize,
    /// Findings only the static checkers report.
    pub static_only: usize,
    /// Findings only the LLM sweep reports.
    pub llm_only: usize,
}

impl CrossCheck {
    /// Total distinct findings across both detectors.
    pub fn total(&self) -> usize {
        self.both + self.static_only + self.llm_only
    }

    /// Coordinator method names in a disagreement tier (exactly one
    /// detector spoke). The adaptive planner boosts probe priority for
    /// retry sites anchored in these methods.
    pub fn disagreement_methods(&self) -> BTreeSet<String> {
        self.cells
            .iter()
            .filter(|cell| cell.tier != Tier::BothAgree)
            .map(|cell| cell.method.clone())
            .collect()
    }

    /// Renders the matrix as stable text: one header, one row per cell,
    /// one totals line.
    pub fn render_text(&self) -> String {
        let mut out = String::from("cross-check agreement matrix:\n");
        for cell in &self.cells {
            out.push_str(&format!(
                "  {:<12} {:<5} {}  {}\n",
                cell.tier.label(),
                cell.code,
                cell.file,
                cell.method
            ));
        }
        out.push_str(&format!(
            "tiers: {} both-agree, {} static-only, {} llm-only\n",
            self.both, self.static_only, self.llm_only
        ));
        out
    }
}

/// Arbitrates the static diagnostics against the LLM sweep findings.
///
/// WHEN diagnostics (`W001`/`W002`) are matched against LLM findings on
/// `(file, method, code)`; every other static code is static-only by
/// construction (the sweep has no question for it); unmatched LLM
/// findings are llm-only. Duplicate diagnostics in one method (two loops,
/// same code) collapse into one cell — the matrix is about *which
/// detector spoke where*, not occurrence counts.
pub fn cross_check(lint: &LintResult, sweep: &LlmSweep) -> CrossCheck {
    let llm_found: BTreeSet<(String, String, &'static str)> = sweep
        .findings
        .iter()
        .map(|f| (f.path.clone(), f.method.clone(), code_of(f.kind)))
        .collect();

    let mut cells: BTreeSet<CrossCheckCell> = BTreeSet::new();
    let mut matched: BTreeSet<(String, String, &'static str)> = BTreeSet::new();
    for d in &lint.diagnostics {
        let method = d
            .coordinator
            .rsplit('.')
            .next()
            .unwrap_or(&d.coordinator)
            .to_string();
        let when_key = (d.file.clone(), method.clone(), d.code);
        let tier = if (d.code == "W001" || d.code == "W002") && llm_found.contains(&when_key) {
            matched.insert(when_key);
            Tier::BothAgree
        } else {
            Tier::StaticOnly
        };
        cells.insert(CrossCheckCell {
            file: d.file.clone(),
            method,
            code: d.code.to_string(),
            tier,
        });
    }
    for (file, method, code) in &llm_found {
        if !matched.contains(&(file.clone(), method.clone(), *code)) {
            cells.insert(CrossCheckCell {
                file: file.clone(),
                method: method.clone(),
                code: (*code).to_string(),
                tier: Tier::LlmOnly,
            });
        }
    }

    let mut check = CrossCheck {
        cells: cells.into_iter().collect(),
        ..CrossCheck::default()
    };
    for cell in &check.cells {
        match cell.tier {
            Tier::BothAgree => check.both += 1,
            Tier::StaticOnly => check.static_only += 1,
            Tier::LlmOnly => check.llm_only += 1,
        }
    }
    check
}

/// Runs the static checkers and the LLM sweep and accounts their overlap.
pub fn lint_with_overlap(
    project: &Project,
    llm: &mut dyn LanguageModel,
    options: &LintOptions,
) -> LintReport {
    lint_with_sweep(project, sweep_project(project, llm), options)
}

/// [`lint_with_overlap`] with the LLM sweep of `project` already done, for
/// example by [`sweep_sources`](wasabi_llm::detector::sweep_sources)
/// beside the compile: runs the static checkers and accounts their overlap
/// with `sweep`.
pub fn lint_with_sweep(project: &Project, sweep: LlmSweep, options: &LintOptions) -> LintReport {
    let lint = lint_project(project, options);

    let static_found: BTreeSet<(String, String, &'static str)> = lint
        .diagnostics
        .iter()
        .filter(|d| d.code == "W001" || d.code == "W002")
        .map(|d| {
            let method = d
                .coordinator
                .rsplit('.')
                .next()
                .unwrap_or(&d.coordinator)
                .to_string();
            (d.file.clone(), method, d.code)
        })
        .collect();
    let llm_found: BTreeSet<(String, String, &'static str)> = sweep
        .findings
        .iter()
        .map(|f| (f.path.clone(), f.method.clone(), code_of(f.kind)))
        .collect();

    let both = static_found.intersection(&llm_found).count();
    let overlap = WhenOverlap {
        static_only: static_found.len() - both,
        llm_only: llm_found.len() - both,
        both,
    };
    LintReport {
        lint,
        sweep,
        overlap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_llm::simulated::SimulatedLlm;

    #[test]
    fn overlap_counts_are_consistent() {
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 while (true) {\n\
                   try { return this.op(); } catch (E e) { log(\"retry\"); }\n\
                 }\n\
               }\n\
             }";
        let project = Project::compile("t", vec![("t.jav", src)]).unwrap();
        let mut llm = SimulatedLlm::with_seed(11);
        let report = lint_with_overlap(&project, &mut llm, &LintOptions::default());
        // The static side always sees the uncapped, undelayed loop.
        let static_when = report
            .lint
            .diagnostics
            .iter()
            .filter(|d| d.code == "W001" || d.code == "W002")
            .count();
        assert_eq!(static_when, 2);
        assert_eq!(
            report.overlap.static_only + report.overlap.both,
            static_when,
            "every static WHEN finding is either shared or static-only"
        );
        assert_eq!(
            report.overlap.llm_only + report.overlap.both,
            report.sweep.findings.len(),
            "every LLM finding is either shared or LLM-only"
        );
    }

    #[test]
    fn overlap_is_deterministic_for_a_fixed_seed() {
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { }\n\
                 }\n\
                 return null;\n\
               }\n\
             }";
        let project = Project::compile("t", vec![("t.jav", src)]).unwrap();
        let one = lint_with_overlap(
            &project,
            &mut SimulatedLlm::with_seed(7),
            &LintOptions::default(),
        );
        let two = lint_with_overlap(
            &project,
            &mut SimulatedLlm::with_seed(7),
            &LintOptions::default(),
        );
        assert_eq!(one.overlap, two.overlap);
        assert_eq!(one.lint.diagnostics, two.lint.diagnostics);
    }

    #[test]
    fn cross_check_tiers_cover_every_finding_exactly_once() {
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 while (true) {\n\
                   try { return this.op(); } catch (E e) { log(\"retry\"); }\n\
                 }\n\
               }\n\
             }";
        let project = Project::compile("t", vec![("t.jav", src)]).unwrap();
        let mut llm = SimulatedLlm::with_seed(0);
        let report = lint_with_overlap(&project, &mut llm, &LintOptions::default());
        let check = cross_check(&report.lint, &report.sweep);

        assert_eq!(check.total(), check.cells.len());
        assert_eq!(
            check.both, report.overlap.both,
            "WHEN agreement matches the overlap accounting"
        );
        // The uncapped, undelayed loop yields static W001 + W002 cells.
        assert!(check
            .cells
            .iter()
            .any(|c| c.code == "W001" && c.method == "run"));
        assert!(check
            .cells
            .iter()
            .any(|c| c.code == "W002" && c.method == "run"));
        // Cells are sorted, so the render is canonical.
        let mut sorted = check.cells.clone();
        sorted.sort();
        assert_eq!(check.cells, sorted);
    }

    #[test]
    fn cross_check_matrix_and_hints_are_deterministic() {
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { }\n\
                 }\n\
                 return null;\n\
               }\n\
             }";
        let project = Project::compile("t", vec![("t.jav", src)]).unwrap();
        let renders: Vec<String> = (0..2)
            .map(|_| {
                let report = lint_with_overlap(
                    &project,
                    &mut SimulatedLlm::with_seed(0),
                    &LintOptions::default(),
                );
                cross_check(&report.lint, &report.sweep).render_text()
            })
            .collect();
        assert_eq!(renders[0], renders[1]);
        assert!(renders[0].starts_with("cross-check agreement matrix:\n"));
        assert!(renders[0].contains("tiers: "));
    }

    #[test]
    fn non_when_codes_are_always_static_only() {
        // A bounded-by-one loop produces W006 (and the missing-delay
        // W002); W006 must never land in a both-agree tier because the
        // sweep has no question that could express it.
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 1; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(10); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }";
        let project = Project::compile("t", vec![("t.jav", src)]).unwrap();
        let report = lint_with_overlap(
            &project,
            &mut SimulatedLlm::with_seed(0),
            &LintOptions::default(),
        );
        let check = cross_check(&report.lint, &report.sweep);
        let w006: Vec<_> = check.cells.iter().filter(|c| c.code == "W006").collect();
        assert!(!w006.is_empty(), "bound of one should produce W006");
        assert!(w006.iter().all(|c| c.tier == Tier::StaticOnly));
        // And every disagreement cell's method shows up in the hint set.
        let hints = check.disagreement_methods();
        assert!(hints.contains("run"));
    }
}
