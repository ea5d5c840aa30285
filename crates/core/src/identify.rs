//! Retry-location identification: the union of the control-flow query and
//! the LLM technique (§3.1.1).

use wasabi_analysis::loops::{
    all_retry_locations, LoopQueryOptions, Mechanism, RetryLocation, RetryLoop,
};
use wasabi_analysis::resolve::ProjectIndex;
use wasabi_lang::ast::Item;
use wasabi_lang::project::{CallSite, FileId, MethodId, Project, SourceFile};
use wasabi_llm::detector::{sweep_file, sweep_project, LlmSweep};
use wasabi_llm::model::LanguageModel;
use std::collections::BTreeMap;

/// Everything the identification stage produces.
#[derive(Debug, Clone)]
pub struct Identified {
    /// Retry loops found by the control-flow + keyword query.
    pub codeql_loops: Vec<RetryLoop>,
    /// The LLM sweep (file reports, WHEN findings, usage).
    pub llm_sweep: LlmSweep,
    /// LLM-flagged coordinator methods resolved to classes.
    pub llm_coordinators: Vec<(FileId, MethodId)>,
    /// The union of retry locations from both techniques, deduplicated by
    /// (site, exception); loop-backed locations win ties.
    pub locations: Vec<RetryLocation>,
}

/// Runs both identification techniques and merges their locations.
pub fn identify(project: &Project, llm: &mut dyn LanguageModel) -> Identified {
    identify_with_sweep(project, sweep_project(project, llm))
}

/// [`identify`] with the LLM sweep of `project` already done, for example
/// by [`sweep_sources`](wasabi_llm::detector::sweep_sources) beside the
/// compile: runs the control-flow query and merges the sweep into it.
pub fn identify_with_sweep(project: &Project, llm_sweep: LlmSweep) -> Identified {
    StaticQuery::run(project).merge(llm_sweep)
}

/// Re-identifies after one file changed. `project` is the project
/// `previous` was identified on with file `file`, formerly `replaced`,
/// edited (see [`Project::with_file_replaced`]). Only that file is asked
/// about, before and after the edit, to swap its usage; every other file
/// keeps its answers from `previous`, which is exact for a model whose
/// answers about a file depend on that file alone. The static query
/// reruns over the whole project.
pub fn reidentify_file(
    project: &Project,
    previous: &Identified,
    file: FileId,
    replaced: &SourceFile,
    llm: &mut dyn LanguageModel,
) -> Identified {
    let query = StaticQuery::run(project);
    let old = sweep_file(file, replaced, llm);
    let new = sweep_file(file, &project.files[file.0 as usize], llm);
    let mut llm_sweep = previous.llm_sweep.clone();
    llm_sweep.replace_file(&old, new);
    query.merge(llm_sweep)
}

/// Technique 1 over a whole project: the control-flow query plus naming
/// conventions, with the index the LLM merge resolves callees through.
struct StaticQuery<'p> {
    project: &'p Project,
    index: ProjectIndex<'p>,
    codeql_loops: Vec<RetryLoop>,
    merged: BTreeMap<(CallSite, String), RetryLocation>,
}

impl<'p> StaticQuery<'p> {
    /// Runs the control-flow query over `project`.
    fn run(project: &'p Project) -> StaticQuery<'p> {
        let index = ProjectIndex::build(project);
        let with_locations = all_retry_locations(&index, &LoopQueryOptions::default());
        let mut merged = BTreeMap::new();
        for (_, locations) in &with_locations {
            for location in locations {
                merged.insert(
                    (location.site, location.exception.clone()),
                    location.clone(),
                );
            }
        }
        StaticQuery {
            project,
            index,
            codeql_loops: with_locations.into_iter().map(|(l, _)| l).collect(),
            merged,
        }
    }

    /// Technique 2 over a finished sweep of the same project: resolves the
    /// LLM-flagged methods, then a follow-up query adds their callees and
    /// exceptions to the loop locations.
    fn merge(self, llm_sweep: LlmSweep) -> Identified {
        let StaticQuery {
            project,
            index,
            codeql_loops,
            mut merged,
        } = self;
        let mut llm_coordinators = Vec::new();
        for report in &llm_sweep.retry_files {
            if report.poll_excluded {
                continue;
            }
            for method_name in &report.retry_methods {
                if method_name.starts_with('<') {
                    continue;
                }
                // Resolve the named method within the flagged file.
                let file = &project.files[report.file.0 as usize];
                for item in &file.items {
                    let Item::Class(class) = item else { continue };
                    let Some(decl) = class.methods.iter().find(|m| m.name == *method_name) else {
                        continue;
                    };
                    llm_coordinators.push((report.file, MethodId::new(&class.name, method_name)));
                    for (site, callee, throws) in index.invoked_with_throws(&class.name, decl) {
                        for exception in throws {
                            merged.entry((site, exception.clone())).or_insert_with(|| {
                                RetryLocation {
                                    site,
                                    coordinator: MethodId::new(&class.name, method_name),
                                    retried: callee.clone(),
                                    exception,
                                    mechanism: Mechanism::LlmFlagged,
                                }
                            });
                        }
                    }
                }
            }
        }

        Identified {
            codeql_loops,
            llm_sweep,
            llm_coordinators,
            locations: merged.into_values().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_llm::simulated::SimulatedLlm;

    #[test]
    fn merges_loop_and_llm_locations() {
        // One keyword loop (both techniques) and one queue (LLM only).
        let loop_src = "exception ConnectException;\n\
             class Client {\n\
               method connect() throws ConnectException { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.connect(); } catch (ConnectException e) { sleep(10); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }";
        let queue_src = "exception TaskException;\n\
             class Item { method executeItem() throws TaskException { return 1; } }\n\
             class Proc {\n\
               field q;\n\
               method init() { this.q = queue(); }\n\
               method drain() {\n\
                 while (!this.q.isEmpty()) {\n\
                   var item = this.q.take();\n\
                   try { item.executeItem(); } catch (TaskException e) { this.q.put(item); }\n\
                 }\n\
                 return \"done\";\n\
               }\n\
             }";
        let project = Project::compile(
            "t",
            vec![("client.jav", loop_src), ("proc.jav", queue_src)],
        )
        .unwrap();
        let mut llm = SimulatedLlm::with_seed(11);
        let identified = identify(&project, &mut llm);
        assert_eq!(identified.codeql_loops.len(), 1);
        let mechs: Vec<Mechanism> = identified.locations.iter().map(|l| l.mechanism).collect();
        assert!(mechs.contains(&Mechanism::LlmFlagged), "queue location found");
        assert!(
            mechs.iter().any(|m| matches!(m, Mechanism::Loop(_))),
            "loop location found"
        );
        let coords: Vec<String> = identified
            .llm_coordinators
            .iter()
            .map(|(_, m)| m.to_string())
            .collect();
        assert!(coords.contains(&"Proc.drain".to_string()), "{coords:?}");
    }

    #[test]
    fn loop_locations_win_dedup_ties() {
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 // retry op a few times\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(5); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }";
        let project = Project::compile("t", vec![("c.jav", src)]).unwrap();
        let mut llm = SimulatedLlm::with_seed(11);
        let identified = identify(&project, &mut llm);
        // The same (site, exception) pair is found by both techniques but
        // appears once, with the loop mechanism.
        assert_eq!(identified.locations.len(), 1);
        assert!(matches!(identified.locations[0].mechanism, Mechanism::Loop(_)));
    }
}
