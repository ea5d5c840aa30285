//! The LLM static-checking workflow (§3.2.1): retry identification plus
//! WHEN-bug detection across a whole project.
//!
//! Per file: Q1 (performs retry?) → Q4 (poll/spin exclusion) → Q1 follow-up
//! (which methods) → Q2 (delay?) → Q3 (cap?). A flagged retry method in a
//! file answering No to Q2 yields a missing-delay finding; No to Q3 yields a
//! missing-cap finding.
//!
//! The workflow reads only a file's path and text. [`sweep_file`] runs it
//! on one file, [`sweep_project`] over every file of a compiled project,
//! and [`sweep_sources`] over raw `(path, source)` pairs, which lets the
//! sweep run beside the compile. [`LlmSweep::replace_file`] swaps one
//! file's answers in a finished sweep, which is how repair revalidates a
//! one-file patch without re-asking about the other files.

use crate::model::{LanguageModel, Usage};
use crate::prompts;
use wasabi_lang::project::{FileId, Project, SourceFile};

/// WHEN-bug categories the LLM detector reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LlmWhenKind {
    /// No cap or time limit on retry attempts.
    MissingCap,
    /// No delay between retry attempts.
    MissingDelay,
}

impl std::fmt::Display for LlmWhenKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlmWhenKind::MissingCap => write!(f, "missing-cap"),
            LlmWhenKind::MissingDelay => write!(f, "missing-delay"),
        }
    }
}

/// The per-file answers gathered by the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileReport {
    /// File id in the project.
    pub file: FileId,
    /// File path.
    pub path: String,
    /// Q1 answer.
    pub performs_retry: bool,
    /// Q4: excluded as poll/spin behaviour.
    pub poll_excluded: bool,
    /// Q1 follow-up: methods implementing retry.
    pub retry_methods: Vec<String>,
    /// Q2 answer (only meaningful when retry was identified).
    pub sleeps_before_retry: bool,
    /// Q3 answer (only meaningful when retry was identified).
    pub has_cap: bool,
}

/// One WHEN-bug finding from the LLM detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlmWhenFinding {
    /// File id.
    pub file: FileId,
    /// File path.
    pub path: String,
    /// Flagged method name.
    pub method: String,
    /// What is missing.
    pub kind: LlmWhenKind,
}

/// The result of an LLM static sweep over a project.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LlmSweep {
    /// Per-file reports for files where Q1 answered Yes, in file order.
    pub retry_files: Vec<FileReport>,
    /// WHEN-bug findings, in file order.
    pub findings: Vec<LlmWhenFinding>,
    /// API usage for the whole sweep.
    pub usage: Usage,
}

/// The workflow's answers about one file: its contribution to an
/// [`LlmSweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct FileSweep {
    /// File id in the project.
    pub file: FileId,
    /// The file's report, when Q1 answered Yes.
    pub report: Option<FileReport>,
    /// The file's WHEN-bug findings, in method order.
    pub findings: Vec<LlmWhenFinding>,
    /// API usage for this file's questions.
    pub usage: Usage,
}

impl LlmSweep {
    /// Swaps one file's contribution: `old` is what the sweep holds for
    /// file `new.file` (the file swept before its edit), `new` the edited
    /// file's answers. The report and findings keep their place in file
    /// order, and `usage` drops `old`'s usage and adds `new`'s. With a
    /// model whose answers about a file depend only on that file, as
    /// [`SimulatedLlm`](crate::simulated::SimulatedLlm)'s do, this equals
    /// re-sweeping the whole project with the file edited.
    pub fn replace_file(&mut self, old: &FileSweep, new: FileSweep) {
        let file = new.file;
        let reports = file_range(&self.retry_files, file, |r| r.file);
        self.retry_files.splice(reports, new.report);
        let findings = file_range(&self.findings, file, |f| f.file);
        self.findings.splice(findings, new.findings);
        self.usage.retract(&old.usage);
        self.usage.absorb(&new.usage);
    }
}

/// The index range of `file`'s entries in a list sorted by file id.
fn file_range<T>(items: &[T], file: FileId, key: impl Fn(&T) -> FileId) -> std::ops::Range<usize> {
    items.partition_point(|item| key(item) < file)..items.partition_point(|item| key(item) <= file)
}

/// Runs the full LLM static-checking workflow over every file.
pub fn sweep_project(project: &Project, llm: &mut dyn LanguageModel) -> LlmSweep {
    sweep_files(
        project
            .files
            .iter()
            .map(|f| (f.path.as_str(), f.source.as_str())),
        llm,
    )
}

/// Runs the workflow over raw `(path, source)` pairs, numbering files by
/// their input index. The questions read only a file's path and text, so
/// this equals [`sweep_project`] on the project these sources compile to
/// (a compiled project keeps its files in input order), usage included.
/// It needs no parse, so it can run while the sources compile.
pub fn sweep_sources(sources: &[(String, String)], llm: &mut dyn LanguageModel) -> LlmSweep {
    sweep_files(sources.iter().map(|(p, s)| (p.as_str(), s.as_str())), llm)
}

/// The workflow over `(path, source)` files in file-id order.
fn sweep_files<'a>(
    files: impl Iterator<Item = (&'a str, &'a str)>,
    llm: &mut dyn LanguageModel,
) -> LlmSweep {
    let usage_before = llm.usage();
    let mut sweep = LlmSweep::default();
    for (fidx, (path, source)) in files.enumerate() {
        sweep.retry_files.extend(ask_file(
            FileId(fidx as u32),
            path,
            source,
            llm,
            &mut sweep.findings,
        ));
    }
    sweep.usage = llm.usage().since(&usage_before);
    sweep
}

/// Runs the workflow over one file.
pub fn sweep_file(file_id: FileId, file: &SourceFile, llm: &mut dyn LanguageModel) -> FileSweep {
    let usage_before = llm.usage();
    let mut findings = Vec::new();
    let report = ask_file(file_id, &file.path, &file.source, llm, &mut findings);
    FileSweep {
        file: file_id,
        report,
        findings,
        usage: llm.usage().since(&usage_before),
    }
}

/// Q1, then Q4, the method follow-up, Q2 and Q3 when Q1 answers Yes.
/// Returns the file's report, if Q1 answered Yes, and pushes its findings
/// onto `findings`.
fn ask_file(
    file_id: FileId,
    path: &str,
    source: &str,
    llm: &mut dyn LanguageModel,
    findings: &mut Vec<LlmWhenFinding>,
) -> Option<FileReport> {
    let q1 = prompts::q1_performs_retry(path, source);
    if !llm.ask_yes_no(&q1).is_yes() {
        return None;
    }
    let poll_excluded = llm.ask_yes_no(&prompts::q4_poll_or_spin(path)).is_yes();
    if poll_excluded {
        return Some(FileReport {
            file: file_id,
            path: path.to_string(),
            performs_retry: true,
            poll_excluded: true,
            retry_methods: Vec::new(),
            sleeps_before_retry: false,
            has_cap: false,
        });
    }
    let mut retry_methods = llm.ask_methods(&prompts::q1_which_methods(path));
    if retry_methods.is_empty() {
        // The model said "this file performs retry" but could not name a
        // method — attribute the finding to the file as a whole.
        retry_methods.push(format!("<file:{path}>"));
    }
    let sleeps = llm
        .ask_yes_no(&prompts::q2_sleeps_before_retry(path))
        .is_yes();
    let has_cap = llm.ask_yes_no(&prompts::q3_has_cap(path)).is_yes();
    for method in &retry_methods {
        if !sleeps {
            findings.push(LlmWhenFinding {
                file: file_id,
                path: path.to_string(),
                method: method.clone(),
                kind: LlmWhenKind::MissingDelay,
            });
        }
        if !has_cap {
            findings.push(LlmWhenFinding {
                file: file_id,
                path: path.to_string(),
                method: method.clone(),
                kind: LlmWhenKind::MissingCap,
            });
        }
    }
    Some(FileReport {
        file: file_id,
        path: path.to_string(),
        performs_retry: true,
        poll_excluded: false,
        retry_methods,
        sleeps_before_retry: sleeps,
        has_cap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulated::SimulatedLlm;
    use wasabi_lang::project::Project;

    fn project(files: Vec<(&str, String)>) -> Project {
        Project::compile("t", files).expect("compile")
    }

    fn retry_file(delay: bool, cap: bool) -> String {
        let sleep = if delay { "sleep(100);" } else { "log(\"again\");" };
        let cond = if cap {
            "var retry = 0; retry < this.maxAttempts; retry = retry + 1"
        } else {
            "var retry = 0; true; retry = retry + 1"
        };
        format!(
            "exception ConnectException;\n\
             class Client {{\n\
               field maxAttempts = 5;\n\
               // Retry the connection on transient errors.\n\
               method connect() throws ConnectException {{ return 1; }}\n\
               method run() {{\n\
                 for ({cond}) {{\n\
                   try {{ return this.connect(); }} catch (ConnectException e) {{ {sleep} }}\n\
                 }}\n\
                 return null;\n\
               }}\n\
             }}"
        )
    }

    #[test]
    fn clean_retry_file_yields_no_findings() {
        let p = project(vec![("client.jav", retry_file(true, true))]);
        let mut llm = SimulatedLlm::with_seed(7);
        let sweep = sweep_project(&p, &mut llm);
        assert_eq!(sweep.retry_files.len(), 1);
        assert_eq!(sweep.retry_files[0].retry_methods, vec!["run"]);
        assert!(sweep.findings.is_empty(), "findings: {:?}", sweep.findings);
    }

    #[test]
    fn missing_delay_and_cap_are_found() {
        let p = project(vec![("client.jav", retry_file(false, false))]);
        let mut llm = SimulatedLlm::with_seed(7);
        let sweep = sweep_project(&p, &mut llm);
        let kinds: Vec<LlmWhenKind> = sweep.findings.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&LlmWhenKind::MissingDelay));
        assert!(kinds.contains(&LlmWhenKind::MissingCap));
    }

    #[test]
    fn non_retry_files_cost_one_call_each() {
        let files: Vec<(String, String)> = (0..10)
            .map(|i| {
                (
                    format!("util{i}.jav"),
                    format!("class Util{i} {{ method add(a, b) {{ return a + b; }} }}"),
                )
            })
            .collect();
        let p = Project::compile("t", files).unwrap();
        let mut llm = SimulatedLlm::with_seed(7);
        let sweep = sweep_project(&p, &mut llm);
        assert!(sweep.retry_files.is_empty());
        assert_eq!(sweep.usage.calls, 10, "one Q1 call per file");
        assert!(sweep.usage.tokens > 0);
    }

    #[test]
    fn queue_reenqueue_is_identified_without_retry_keyword() {
        let src = "exception TaskException;\n\
             class Processor {\n\
               field taskQueue;\n\
               method run() {\n\
                 while (!this.taskQueue.isEmpty()) {\n\
                   var task = this.taskQueue.take();\n\
                   try { task.execute(); } catch (TaskException e) { this.taskQueue.put(task); }\n\
                 }\n\
               }\n\
             }\n\
             class Task { method execute() throws TaskException { return 1; } }";
        let p = project(vec![("proc.jav", src.to_string())]);
        let mut llm = SimulatedLlm::with_seed(7);
        let sweep = sweep_project(&p, &mut llm);
        assert_eq!(sweep.retry_files.len(), 1);
        assert!(sweep.retry_files[0].retry_methods.contains(&"run".to_string()));
    }

    #[test]
    fn replacing_a_file_equals_resweeping_the_edited_project() {
        // Files after the first declare their own client class and reuse
        // the first file's exception.
        let client = |name: &str, delay: bool, cap: bool| {
            retry_file(delay, cap)
                .replace("exception ConnectException;", "")
                .replace("Client", name)
        };
        let files = |middle: String| {
            vec![
                ("a.jav", retry_file(false, false)),
                ("b.jav", middle),
                ("c.jav", client("C", true, false)),
            ]
        };
        let plain = "class Plain { method add(a, b) { return a + b; } }".to_string();
        let edits = [client("B", false, true), plain.clone(), client("B", true, true)];
        let mut current = project(files(plain));
        let mut sweep = sweep_project(&current, &mut SimulatedLlm::with_seed(3));
        for edit in edits {
            let edited = project(files(edit));
            let mut llm = SimulatedLlm::with_seed(3);
            let old = sweep_file(FileId(1), &current.files[1], &mut llm);
            sweep.replace_file(&old, sweep_file(FileId(1), &edited.files[1], &mut llm));
            assert_eq!(sweep, sweep_project(&edited, &mut SimulatedLlm::with_seed(3)));
            current = edited;
        }
    }

    #[test]
    fn sweeping_raw_sources_equals_sweeping_the_compiled_project() {
        let sources: Vec<(String, String)> = vec![
            ("a.jav".into(), retry_file(false, false)),
            (
                "b.jav".into(),
                "class Plain { method add(a, b) { return a + b; } }".into(),
            ),
            (
                "c.jav".into(),
                retry_file(true, false)
                    .replace("exception ConnectException;", "")
                    .replace("Client", "C"),
            ),
        ];
        let p = Project::compile("t", sources.clone()).expect("compile");
        let raw = sweep_sources(&sources, &mut SimulatedLlm::with_seed(5));
        assert_eq!(raw, sweep_project(&p, &mut SimulatedLlm::with_seed(5)));
        assert_eq!(raw.retry_files[1].file, FileId(2), "ids are input indices");
        assert!(raw.usage.calls > 3);
    }

    #[test]
    fn sweep_is_deterministic_for_a_seed() {
        let p = project(vec![("client.jav", retry_file(false, true))]);
        let run = |seed| {
            let mut llm = SimulatedLlm::with_seed(seed);
            sweep_project(&p, &mut llm).findings
        };
        assert_eq!(run(42), run(42));
    }
}
