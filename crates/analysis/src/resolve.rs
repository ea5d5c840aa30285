//! Callee resolution and project-wide indexes.
//!
//! Like the paper's CodeQL queries, resolution is *static and approximate*:
//! calls on `this` resolve through the enclosing class hierarchy; calls on
//! other receivers resolve only when exactly one compiled method carries
//! the called name. Unresolvable calls are skipped, which is a (realistic)
//! source of false negatives.
//!
//! Resolution consults the compiled [`ProgramIndex`] call-target tables —
//! the dispatch tables the VM dispatches through, plus the per-name method
//! table — rather than a parallel name-matching structure, so static
//! targets can never drift from runtime targets.
//! [`ProjectIndex::resolve_callee`] keeps the historical single-target
//! contract (the statically enclosing class's view);
//! [`ProjectIndex::resolve_targets`] returns the full dispatch-consistent
//! may-set, which includes subclass overrides a `this` call can reach at
//! runtime.

use wasabi_lang::ast::{Item, LoopId, MethodDecl, Stmt};
use wasabi_lang::index::ProgramIndex;
use wasabi_lang::project::{FileId, MethodId, Project};

/// Where a loop lives: file, enclosing class/method, and the loop statement.
#[derive(Debug, Clone, Copy)]
pub struct LoopSite<'p> {
    /// File the loop is in.
    pub file: FileId,
    /// Enclosing (coordinator) method.
    pub method: &'p MethodDecl,
    /// Enclosing class name.
    pub class: &'p str,
    /// The loop statement (`Stmt::While` or `Stmt::For`).
    pub stmt: &'p Stmt,
    /// The loop id.
    pub loop_id: LoopId,
}

/// Appends the loops of one file, in source order.
fn file_loops<'p>(project: &'p Project, file: FileId, loops: &mut Vec<LoopSite<'p>>) {
    for item in &project.files[file.0 as usize].items {
        let Item::Class(class) = item else { continue };
        for method in &class.methods {
            wasabi_lang::ast::walk_stmts(&method.body, &mut |stmt| {
                match stmt {
                    Stmt::While { id, .. } | Stmt::For { id, .. } => {
                        loops.push(LoopSite {
                            file,
                            method,
                            class: class.name.as_str(),
                            stmt,
                            loop_id: *id,
                        });
                    }
                    _ => {}
                }
                true
            });
        }
    }
}

/// The first loop of `file` with id `loop_id` — the site
/// [`ProjectIndex::loops`] lists first for that pair — found by walking
/// that file alone.
pub fn loop_site(project: &Project, file: FileId, loop_id: LoopId) -> Option<LoopSite<'_>> {
    let mut loops = Vec::new();
    file_loops(project, file, &mut loops);
    loops.into_iter().find(|l| l.loop_id == loop_id)
}

/// Precomputed project-wide lookup structures.
pub struct ProjectIndex<'p> {
    project: &'p Project,
    /// All loops in the project.
    loops: Vec<LoopSite<'p>>,
}

impl<'p> ProjectIndex<'p> {
    /// Builds the index by walking every method in the project.
    pub fn build(project: &'p Project) -> Self {
        let mut loops = Vec::new();
        for fidx in 0..project.files.len() {
            file_loops(project, FileId(fidx as u32), &mut loops);
        }
        ProjectIndex { project, loops }
    }

    /// The underlying project.
    pub fn project(&self) -> &'p Project {
        self.project
    }

    /// All loops in the project, in file/source order.
    pub fn loops(&self) -> &[LoopSite<'p>] {
        &self.loops
    }

    /// Maps a compiled method index back to its AST declaration.
    fn compiled_target(&self, midx: u32) -> Option<(MethodId, &'p MethodDecl)> {
        let index: &ProgramIndex = &self.project.index;
        let compiled = &index.methods[midx as usize];
        let owner = &index.classes[compiled.owner.0 as usize].name_str;
        let name = index.interner.resolve(compiled.name);
        let decl = self.project.class_decl(owner)?;
        let method = decl.methods.iter().find(|m| m.name == name)?;
        Some((MethodId::new(owner, name), method))
    }

    /// The single method named `method` anywhere in the program, if
    /// exactly one class declares it; two or more make the name
    /// ambiguous, and the call stays unresolved like a purely syntactic
    /// query would leave it.
    fn unique_foreign_target(&self, method: &str) -> Option<u32> {
        let index: &ProgramIndex = &self.project.index;
        match index.methods_named(index.interner.lookup(method)?) {
            &[only] => Some(only),
            _ => None,
        }
    }

    /// Resolves a called method statically to a single target.
    ///
    /// `recv_this` means the receiver is `this` (or implicit): resolve
    /// through `enclosing_class`'s dispatch table. Otherwise the name must
    /// map to a single dispatch target project-wide. This is the
    /// historical point query — a `this` call resolves to the statically
    /// enclosing class's view and ignores subclass overrides; use
    /// [`ProjectIndex::resolve_targets`] for the dispatch-consistent set.
    pub fn resolve_callee(
        &self,
        enclosing_class: &str,
        method: &str,
        recv_this: bool,
    ) -> Option<(MethodId, &'p MethodDecl)> {
        let index: &ProgramIndex = &self.project.index;
        if recv_this {
            let cid = index.class_by_name(enclosing_class)?;
            let sym = index.interner.lookup(method)?;
            return self.compiled_target(index.resolve_dispatch(cid, sym)?);
        }
        self.compiled_target(self.unique_foreign_target(method)?)
    }

    /// Every method a call could dispatch to at runtime.
    ///
    /// For `this` calls the receiver may be any subtype of the enclosing
    /// class, so every override in the hierarchy below it is a possible
    /// target. Foreign receivers keep the unique-target rule. Targets are
    /// returned in compiled-method order, deduplicated.
    pub fn resolve_targets(
        &self,
        enclosing_class: &str,
        method: &str,
        recv_this: bool,
    ) -> Vec<(MethodId, &'p MethodDecl)> {
        let index: &ProgramIndex = &self.project.index;
        let mids: Vec<u32> = if recv_this {
            let (Some(cid), Some(sym)) = (
                index.class_by_name(enclosing_class),
                index.interner.lookup(method),
            ) else {
                return Vec::new();
            };
            index.this_call_targets(cid, sym)
        } else {
            self.unique_foreign_target(method).into_iter().collect()
        };
        mids.into_iter()
            .filter_map(|m| self.compiled_target(m))
            .collect()
    }

    /// Methods invoked by `method` (resolved where possible) with their
    /// declared `throws` — the CodeQL follow-up step WASABI runs after the
    /// LLM flags a coordinator method (§3.1.1, second technique).
    pub fn invoked_with_throws(
        &self,
        class: &str,
        method: &MethodDecl,
    ) -> Vec<(wasabi_lang::project::CallSite, MethodId, Vec<String>)> {
        let file = match self.project.symbols.class(class) {
            Some(info) => info.file,
            None => return Vec::new(),
        };
        let mut out = Vec::new();
        wasabi_lang::ast::walk_exprs(&method.body, &mut |expr| {
            if let wasabi_lang::ast::Expr::Call {
                id, recv, method, ..
            } = expr
            {
                let recv_this = matches!(
                    recv.as_deref(),
                    None | Some(wasabi_lang::ast::Expr::This(_))
                );
                for (callee, decl) in self.resolve_targets(class, method, recv_this) {
                    out.push((
                        wasabi_lang::project::CallSite { file, call: *id },
                        callee,
                        decl.throws.clone(),
                    ));
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn project(src: &str) -> Project {
        Project::compile("t", vec![("t.jav", src)]).expect("compile")
    }

    #[test]
    fn indexes_loops_across_methods() {
        let p = project(
            "class A { method m() { while (true) { break; } for (;;) { break; } } }\n\
             class B { method n() { while (false) { } } }",
        );
        let index = ProjectIndex::build(&p);
        assert_eq!(index.loops().len(), 3);
        assert_eq!(index.loops()[0].class, "A");
        assert_eq!(index.loops()[2].class, "B");
    }

    #[test]
    fn resolves_this_calls_through_hierarchy() {
        let p = project(
            "class Base { method helper() { return 1; } }\n\
             class Kid extends Base { method m() { this.helper(); } }",
        );
        let index = ProjectIndex::build(&p);
        let (id, _) = index.resolve_callee("Kid", "helper", true).expect("resolved");
        assert_eq!(id, MethodId::new("Base", "helper"));
    }

    #[test]
    fn unique_name_resolution_for_foreign_receivers() {
        let p = project(
            "class Conn { method close() { return 1; } }\n\
             class C { method m(conn) { conn.close(); } }",
        );
        let index = ProjectIndex::build(&p);
        let (id, _) = index.resolve_callee("C", "close", false).expect("resolved");
        assert_eq!(id, MethodId::new("Conn", "close"));
    }

    #[test]
    fn ambiguous_names_are_unresolved() {
        let p = project(
            "class A { method go() { return 1; } }\n\
             class B { method go() { return 2; } }\n\
             class C { method m(x) { x.go(); } }",
        );
        let index = ProjectIndex::build(&p);
        assert!(index.resolve_callee("C", "go", false).is_none());
    }

    #[test]
    fn this_call_targets_include_subclass_overrides() {
        // The split-brain divergence this reroute pins down: the old
        // name-matching resolver saw only the statically enclosing
        // hierarchy's declaration for a `this` call, but at runtime the
        // receiver can be a subclass whose override throws something else
        // entirely. The point query keeps the historical single-target
        // answer; the dispatch-table may-set includes the override.
        let p = project(
            "exception BaseError;\n\
             exception KidError;\n\
             class Base {\n\
               method process() throws BaseError { return 1; }\n\
               method run() { return this.process(); }\n\
             }\n\
             class Kid extends Base {\n\
               method process() throws KidError { return 2; }\n\
             }",
        );
        let index = ProjectIndex::build(&p);
        let (id, decl) = index.resolve_callee("Base", "process", true).expect("resolved");
        assert_eq!(id, MethodId::new("Base", "process"));
        assert_eq!(decl.throws, vec!["BaseError"]);
        let targets: Vec<MethodId> = index
            .resolve_targets("Base", "process", true)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(
            targets,
            vec![MethodId::new("Base", "process"), MethodId::new("Kid", "process")]
        );
        // From Kid's point of view only the override is reachable.
        let from_kid: Vec<MethodId> = index
            .resolve_targets("Kid", "process", true)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(from_kid, vec![MethodId::new("Kid", "process")]);
    }

    #[test]
    fn invoked_with_throws_lists_call_sites() {
        let p = project(
            "exception ConnectException;\nexception IOException;\n\
             class C {\n\
               method connect() throws ConnectException { return 1; }\n\
               method fetch() throws IOException { return 2; }\n\
               method run() { this.connect(); this.fetch(); this.fetch(); }\n\
             }",
        );
        let index = ProjectIndex::build(&p);
        let run = p.resolve_method("C", "run").unwrap().1;
        let invoked = index.invoked_with_throws("C", run);
        assert_eq!(invoked.len(), 3);
        assert_eq!(invoked[0].1, MethodId::new("C", "connect"));
        assert_eq!(invoked[0].2, vec!["ConnectException"]);
        assert_eq!(invoked[1].2, vec!["IOException"]);
    }
}
