//! The retry-loop query and retry-location extraction (§3.1.1, first
//! technique).
//!
//! A loop is a *retry loop* when (1) at least one catch block inside its body
//! can reach the loop header — exception-triggered re-execution — and (2) the
//! loop carries naming-convention evidence (a string literal, variable, or
//! method name containing "retry"/"retries"). The keyword filter can be
//! disabled to reproduce the paper's §4.4 ablation (3.5× more loops, mostly
//! non-retry).

use crate::cfg::{Atom, Cfg};
use crate::resolve::ProjectIndex;
use std::collections::HashMap;
use wasabi_lang::ast::{Expr, Literal, LoopId, Stmt};
use wasabi_lang::project::{CallSite, FileId, MethodId};
use wasabi_lang::span::Span;

/// Options for the retry-loop query.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopQueryOptions {
    /// Require naming-convention evidence (the paper's keyword filter).
    pub keyword_filter: bool,
    /// Keywords to look for, matched case-insensitively as substrings.
    pub keywords: Vec<String>,
}

impl Default for LoopQueryOptions {
    fn default() -> Self {
        LoopQueryOptions {
            keyword_filter: true,
            keywords: vec!["retry".to_string(), "retries".to_string()],
        }
    }
}

/// A loop identified as (potentially) implementing retry.
#[derive(Debug, Clone)]
pub struct RetryLoop {
    /// File containing the loop.
    pub file: FileId,
    /// The coordinator method containing the loop.
    pub coordinator: MethodId,
    /// Loop id within the file.
    pub loop_id: LoopId,
    /// Source span of the loop.
    pub span: Span,
    /// Whether naming-convention evidence was found.
    pub keyword_evidence: bool,
    /// Exception types of catch clauses that can reach the loop header.
    pub reaching_catches: Vec<String>,
}

/// How a retry location was identified, and which code structure backs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mechanism {
    /// A retry loop found by control-flow analysis; carries the loop id.
    Loop(LoopId),
    /// A coordinator method flagged by the LLM (loop, queue, or state
    /// machine); no loop structure is attached.
    LlmFlagged,
}

/// A retry-location triplet: coordinator `C`, retried method `M`, and trigger
/// exception `E`, anchored at the call site of `M` inside `C`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RetryLocation {
    /// The call site of the retried method inside the coordinator.
    pub site: CallSite,
    /// Coordinator method (catches the error and re-executes).
    pub coordinator: MethodId,
    /// Retried method (re-executed on failure).
    pub retried: MethodId,
    /// Trigger exception type.
    pub exception: String,
    /// The structure the location belongs to.
    pub mechanism: Mechanism,
}

impl RetryLocation {
    /// A stable key identifying the retry *structure* this location belongs
    /// to — the paper counts at most one missing-cap/delay bug per structure.
    pub fn structure_key(&self) -> String {
        match self.mechanism {
            Mechanism::Loop(loop_id) => format!("{}:{}", self.site.file, loop_id),
            Mechanism::LlmFlagged => format!("llm:{}", self.coordinator),
        }
    }
}

/// Finds retry loops across the whole project.
pub fn find_retry_loops(index: &ProjectIndex<'_>, options: &LoopQueryOptions) -> Vec<RetryLoop> {
    let mut out = Vec::new();
    // Cache CFGs per (class, method) to avoid rebuilding for multi-loop
    // methods.
    let mut cfgs: HashMap<(String, String), Cfg> = HashMap::new();
    for site in index.loops() {
        let key = (site.class.to_string(), site.method.name.clone());
        let cfg = cfgs
            .entry(key)
            .or_insert_with(|| Cfg::build(&site.method.body));
        let reaching: Vec<String> = cfg
            .catches_in_loop(site.loop_id)
            .into_iter()
            .filter(|(block, _)| cfg.header_reachable_from(*block, site.loop_id))
            .map(|(_, ty)| ty.to_string())
            .collect();
        if reaching.is_empty() {
            continue;
        }
        let keyword_evidence = has_keyword_evidence(site.stmt, &options.keywords);
        if options.keyword_filter && !keyword_evidence {
            continue;
        }
        out.push(RetryLoop {
            file: site.file,
            coordinator: MethodId::new(site.class, &site.method.name),
            loop_id: site.loop_id,
            span: site.stmt.span(),
            keyword_evidence,
            reaching_catches: dedup(reaching),
        });
    }
    out
}

/// Extracts retry locations for one retry loop: every resolvable call inside
/// the loop whose declared `throws` includes an exception covered by a
/// header-reaching catch.
pub fn retry_locations(
    index: &ProjectIndex<'_>,
    retry_loop: &RetryLoop,
) -> Vec<RetryLocation> {
    let Some(loop_site) = index
        .loops()
        .iter()
        .find(|l| l.file == retry_loop.file && l.loop_id == retry_loop.loop_id)
    else {
        return Vec::new();
    };
    let cfg = Cfg::build(&loop_site.method.body);
    let symbols = &index.project().symbols;
    let mut out = Vec::new();
    for block in cfg.blocks_in_loop(retry_loop.loop_id) {
        for atom in &cfg.blocks[block.0 as usize].atoms {
            let Atom::Call {
                id,
                method,
                recv_this,
                ..
            } = atom
            else {
                continue;
            };
            // All dispatch-consistent targets: a `this` call may reach a
            // subclass override whose `throws` differ from the base's.
            for (callee, decl) in index.resolve_targets(loop_site.class, method, *recv_this) {
                for thrown in &decl.throws {
                    let covered = retry_loop.reaching_catches.iter().any(|caught| {
                        symbols.is_exception_subtype(thrown, caught)
                            || symbols.is_exception_subtype(caught, thrown)
                    });
                    if covered {
                        out.push(RetryLocation {
                            site: CallSite {
                                file: retry_loop.file,
                                call: *id,
                            },
                            coordinator: retry_loop.coordinator.clone(),
                            retried: callee.clone(),
                            exception: thrown.clone(),
                            mechanism: Mechanism::Loop(retry_loop.loop_id),
                        });
                    }
                }
            }
        }
    }
    out.sort_by(|a, b| (a.site, &a.exception).cmp(&(b.site, &b.exception)));
    out.dedup();
    out
}

/// Finds all retry locations in the project, keyed by retry loop.
pub fn all_retry_locations(
    index: &ProjectIndex<'_>,
    options: &LoopQueryOptions,
) -> Vec<(RetryLoop, Vec<RetryLocation>)> {
    find_retry_loops(index, options)
        .into_iter()
        .map(|l| {
            let locations = retry_locations(index, &l);
            (l, locations)
        })
        .collect()
}

/// Whether the loop statement carries naming-convention evidence: a string
/// literal, variable name, or called-method name containing a keyword.
pub fn has_keyword_evidence(loop_stmt: &Stmt, keywords: &[String]) -> bool {
    let lowered: Vec<String> = keywords.iter().map(|k| k.to_lowercase()).collect();
    let matches = |text: &str| {
        let text = text.to_lowercase();
        lowered.iter().any(|k| text.contains(k.as_str()))
    };
    let mut found = false;
    let mut check_expr = |expr: &Expr| match expr {
        Expr::Literal(Literal::Str(s), _) if matches(s) => found = true,
        Expr::Ident(name, _) if matches(name) => found = true,
        Expr::Field { name, .. } if matches(name) => found = true,
        Expr::Call { method, .. } if matches(method) => found = true,
        _ => {}
    };
    // Wrap the loop statement in a synthetic block so the generic walkers
    // cover the header (condition, init, update) and the body uniformly.
    let block = wasabi_lang::ast::Block {
        stmts: vec![loop_stmt.clone()],
        span: loop_stmt.span(),
    };
    wasabi_lang::ast::walk_exprs(&block, &mut check_expr);
    if found {
        return true;
    }
    // `var retry = ...` declarations bind through statement names, not
    // expressions; check those too.
    wasabi_lang::ast::walk_stmts(&block, &mut |stmt| {
        match stmt {
            Stmt::Var { name, .. } if matches(name) => found = true,
            Stmt::Assign {
                target: wasabi_lang::ast::LValue::Var(name, _),
                ..
            } if matches(name) => found = true,
            _ => {}
        }
        true
    });
    found
}

fn dedup(mut items: Vec<String>) -> Vec<String> {
    items.sort();
    items.dedup();
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_lang::project::Project;

    fn index(project: &Project) -> ProjectIndex<'_> {
        ProjectIndex::build(project)
    }

    const WEBHDFS: &str = "exception IOException;\n\
         exception AccessControlException extends IOException;\n\
         exception ConnectException extends IOException;\n\
         class WebHdfs {\n\
           field maxAttempts = 5;\n\
           method connect(url) throws AccessControlException, ConnectException { return url; }\n\
           method getResponse(conn) throws IOException { return conn; }\n\
           method run() {\n\
             for (var retry = 0; retry < this.maxAttempts; retry = retry + 1) {\n\
               try {\n\
                 var conn = this.connect(\"u\");\n\
                 return this.getResponse(conn);\n\
               } catch (AccessControlException e) {\n\
                 break;\n\
               } catch (ConnectException e) {\n\
               }\n\
               sleep(1000);\n\
             }\n\
             return null;\n\
           }\n\
         }";

    #[test]
    fn detects_webhdfs_style_retry_loop() {
        let p = Project::compile("t", vec![("w.jav", WEBHDFS)]).unwrap();
        let idx = index(&p);
        let loops = find_retry_loops(&idx, &LoopQueryOptions::default());
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.coordinator, MethodId::new("WebHdfs", "run"));
        assert!(l.keyword_evidence);
        // Only the ConnectException catch falls through to the header; the
        // AccessControlException catch breaks.
        assert_eq!(l.reaching_catches, vec!["ConnectException"]);
    }

    #[test]
    fn extracts_retry_location_triplets() {
        let p = Project::compile("t", vec![("w.jav", WEBHDFS)]).unwrap();
        let idx = index(&p);
        let loops = find_retry_loops(&idx, &LoopQueryOptions::default());
        let locations = retry_locations(&idx, &loops[0]);
        // connect throws ConnectException (covered). getResponse throws
        // IOException, a supertype of the caught ConnectException — also
        // covered under the over-approximate both-direction subtype check.
        assert_eq!(locations.len(), 2);
        let retried: Vec<String> = locations.iter().map(|l| l.retried.to_string()).collect();
        assert!(retried.contains(&"WebHdfs.connect".to_string()));
        assert!(retried.contains(&"WebHdfs.getResponse".to_string()));
        let exceptions: Vec<&str> = locations.iter().map(|l| l.exception.as_str()).collect();
        assert!(exceptions.contains(&"ConnectException"));
        assert!(exceptions.contains(&"IOException"));
    }

    #[test]
    fn keyword_filter_drops_unnamed_retry_loops() {
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var i = 0; i < 3; i = i + 1) {\n\
                   try { return this.op(); } catch (E e) { }\n\
                 }\n\
                 return null;\n\
               }\n\
             }";
        let p = Project::compile("t", vec![("c.jav", src)]).unwrap();
        let idx = index(&p);
        assert!(find_retry_loops(&idx, &LoopQueryOptions::default()).is_empty());
        let no_filter = LoopQueryOptions {
            keyword_filter: false,
            ..LoopQueryOptions::default()
        };
        let loops = find_retry_loops(&idx, &no_filter);
        assert_eq!(loops.len(), 1);
        assert!(!loops[0].keyword_evidence);
    }

    #[test]
    fn non_retry_loop_with_keyword_but_no_reaching_catch_is_excluded() {
        // A lock-acquisition "retry": logs failure and exits — the catch
        // never reaches the header.
        let src = "exception LockException;\n\
             class C {\n\
               method tryLock() throws LockException { return true; }\n\
               method run() {\n\
                 for (var retries = 0; retries < 3; retries = retries + 1) {\n\
                   try { return this.tryLock(); } catch (LockException e) { log(\"failed\"); return false; }\n\
                 }\n\
                 return false;\n\
               }\n\
             }";
        let p = Project::compile("t", vec![("c.jav", src)]).unwrap();
        let idx = index(&p);
        assert!(find_retry_loops(&idx, &LoopQueryOptions::default()).is_empty());
    }

    #[test]
    fn loop_without_try_catch_is_not_retry() {
        let src = "class C { method m(items) { for (var retry = 0; retry < 10; retry = retry + 1) { log(retry); } } }";
        let p = Project::compile("t", vec![("c.jav", src)]).unwrap();
        let idx = index(&p);
        let no_filter = LoopQueryOptions {
            keyword_filter: false,
            ..LoopQueryOptions::default()
        };
        assert!(find_retry_loops(&idx, &no_filter).is_empty());
    }

    #[test]
    fn keyword_evidence_from_string_literal_and_method_name() {
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method shouldRetry() { return true; }\n\
               method a() { while (true) { try { this.op(); return 1; } catch (E e) { log(\"will retry\"); } } }\n\
               method b() { while (true) { try { this.op(); return 1; } catch (E e) { if (!this.shouldRetry()) { break; } } } }\n\
             }";
        let p = Project::compile("t", vec![("c.jav", src)]).unwrap();
        let idx = index(&p);
        let loops = find_retry_loops(&idx, &LoopQueryOptions::default());
        assert_eq!(loops.len(), 2);
        assert!(loops.iter().all(|l| l.keyword_evidence));
    }

    #[test]
    fn while_loop_with_retry_counter_in_condition() {
        let src = "exception E;\n\
             class C {\n\
               field maxRetries = 4;\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 var attempts = 0;\n\
                 while (attempts < this.maxRetries) {\n\
                   try { return this.op(); } catch (E e) { attempts = attempts + 1; }\n\
                 }\n\
                 return null;\n\
               }\n\
             }";
        let p = Project::compile("t", vec![("c.jav", src)]).unwrap();
        let idx = index(&p);
        let loops = find_retry_loops(&idx, &LoopQueryOptions::default());
        assert_eq!(loops.len(), 1, "field name `maxRetries` is keyword evidence");
    }

    #[test]
    fn ablation_finds_many_more_loops_without_filter() {
        // Three loops with catch-to-header flow, only one named retry.
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method a() { while (true) { try { this.op(); } catch (E e) { } } }\n\
               method b() { var items = list(); for (var i = 0; i < items.size(); i = i + 1) { try { this.op(); } catch (E e) { } } }\n\
               method c() { for (var retry = 0; retry < 3; retry = retry + 1) { try { this.op(); } catch (E e) { } } }\n\
             }";
        let p = Project::compile("t", vec![("c.jav", src)]).unwrap();
        let idx = index(&p);
        let with = find_retry_loops(&idx, &LoopQueryOptions::default());
        let opts = LoopQueryOptions {
            keyword_filter: false,
            ..LoopQueryOptions::default()
        };
        let without = find_retry_loops(&idx, &opts);
        assert_eq!(with.len(), 1);
        assert_eq!(without.len(), 3);
    }
}
