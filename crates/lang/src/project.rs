//! Compiled multi-file programs: source files, symbol tables, and the
//! exception hierarchy.

use crate::ast::{walk_exprs, CallId, ClassDecl, Expr, Item, Literal, MethodDecl};
use crate::error::Diagnostic;
use crate::index::ProgramIndex;
use crate::parser::parse_file;
use crate::span::{LineMap, Span};
use std::collections::HashMap;
use std::fmt;
use std::panic::resume_unwind;
use std::sync::{Arc, Mutex};

/// Index of a source file within a [`Project`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A static call site: file plus call id within the file.
///
/// Retry locations are anchored at call sites; the analysis crate produces
/// them and the injection/planner crates match on them at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallSite {
    /// File containing the call expression.
    pub file: FileId,
    /// Call id within the file.
    pub call: CallId,
}

impl fmt::Display for CallSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.call)
    }
}

/// A parsed source file plus its raw text (kept for the LLM analyses).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceFile {
    /// File path (used in diagnostics and reports).
    pub path: String,
    /// Raw source text, comments included.
    pub source: String,
    /// Parsed top-level items.
    pub items: Vec<Item>,
}

impl SourceFile {
    /// Builds a line map for rendering spans in this file.
    pub fn line_map(&self) -> LineMap {
        LineMap::new(&self.source)
    }
}

/// A fully-qualified method name, `Class.method`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId {
    /// Declaring (or receiving) class name.
    pub class: String,
    /// Method name.
    pub name: String,
}

impl MethodId {
    /// Creates a method id.
    pub fn new(class: impl Into<String>, name: impl Into<String>) -> Self {
        MethodId {
            class: class.into(),
            name: name.into(),
        }
    }
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.class, self.name)
    }
}

/// Information about one declared class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassInfo {
    /// File the class is declared in.
    pub file: FileId,
    /// Index of the class item within the file's `items`.
    pub item_idx: usize,
    /// Superclass name, if any.
    pub parent: Option<String>,
}

/// Information about one declared exception type.
#[derive(Debug, Clone, PartialEq)]
pub struct ExceptionInfo {
    /// Parent exception type (`None` only for the root `Throwable`).
    pub parent: Option<String>,
    /// Whether the type is a language builtin rather than user-declared.
    pub builtin: bool,
}

/// Exception types that exist in every project.
///
/// `Throwable` is the root; `AssertionError` sits directly under it so that
/// application-level `catch (Exception e)` handlers do not swallow test
/// assertions, mirroring Java's `Error` branch.
pub const BUILTIN_EXCEPTIONS: &[(&str, Option<&str>)] = &[
    ("Throwable", None),
    ("Exception", Some("Throwable")),
    ("AssertionError", Some("Throwable")),
    ("RuntimeException", Some("Exception")),
    ("NullPointerException", Some("RuntimeException")),
    ("IllegalArgumentException", Some("RuntimeException")),
    ("IllegalStateException", Some("RuntimeException")),
    ("ArithmeticException", Some("RuntimeException")),
];

/// Symbols declared across a project: classes, exceptions, and configs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymbolTable {
    classes: HashMap<String, ClassInfo>,
    exceptions: HashMap<String, ExceptionInfo>,
    configs: HashMap<String, Literal>,
}

impl SymbolTable {
    /// Looks up a class by name.
    pub fn class(&self, name: &str) -> Option<&ClassInfo> {
        self.classes.get(name)
    }

    /// Looks up an exception type by name.
    pub fn exception(&self, name: &str) -> Option<&ExceptionInfo> {
        self.exceptions.get(name)
    }

    /// Returns the default value for a configuration key.
    pub fn config_default(&self, key: &str) -> Option<&Literal> {
        self.configs.get(key)
    }

    /// Iterates over all configuration keys with their defaults.
    pub fn configs(&self) -> impl Iterator<Item = (&String, &Literal)> {
        self.configs.iter()
    }

    /// Iterates over all declared class names.
    pub fn class_names(&self) -> impl Iterator<Item = &String> {
        self.classes.keys()
    }

    /// Iterates over all exception type names (builtins included).
    pub fn exception_names(&self) -> impl Iterator<Item = &String> {
        self.exceptions.keys()
    }

    /// Whether exception type `sub` is `sup` or a descendant of `sup`.
    ///
    /// Unknown types are not subtypes of anything.
    pub fn is_exception_subtype(&self, sub: &str, sup: &str) -> bool {
        let mut current = sub;
        loop {
            if current == sup {
                return true;
            }
            match self.exceptions.get(current).and_then(|i| i.parent.as_deref()) {
                Some(parent) => current = parent,
                None => return false,
            }
        }
    }

    /// Whether class `sub` is `sup` or a descendant of `sup`.
    pub fn is_class_subtype(&self, sub: &str, sup: &str) -> bool {
        let mut current = sub;
        loop {
            if current == sup {
                return true;
            }
            match self.classes.get(current).and_then(|i| i.parent.as_deref()) {
                Some(parent) => current = parent,
                None => return false,
            }
        }
    }
}

/// A compiled multi-file Javelin program.
#[derive(Debug, Clone)]
pub struct Project {
    /// Project (application) name, e.g. `"hdfs"`.
    pub name: String,
    /// Source files in compilation order. Shared, so a project derived by
    /// [`Project::with_file_replaced`] reuses every file it did not
    /// reparse.
    pub files: Vec<Arc<SourceFile>>,
    /// Project-wide symbol table.
    pub symbols: SymbolTable,
    /// The compile-once execution index (interned names, lowered bodies,
    /// resolution tables). Built after validation; shared across workers.
    pub index: Arc<ProgramIndex>,
}

impl Project {
    /// Parses and links a set of `(path, source)` files into a project.
    ///
    /// All files are parsed even if earlier ones fail, so the returned error
    /// list covers the whole input.
    pub fn compile(
        name: impl Into<String>,
        sources: Vec<(impl Into<String>, impl Into<String>)>,
    ) -> Result<Project, Vec<Diagnostic>> {
        let sources = sources
            .into_iter()
            .map(|(path, source)| (path.into(), source.into()))
            .collect();
        Project::compile_with(name.into(), sources, None::<fn(&[(String, String)])>).0
    }

    /// [`Project::compile`] with `side` run on a second thread over the
    /// same sources while they parse on this one: work that reads only
    /// the raw `(path, source)` pairs, such as a digest or an LLM sweep,
    /// overlaps the parse instead of following it. The project (or
    /// diagnostics) equals what [`Project::compile`] returns, and `side`
    /// sees the sources in input order whether or not they compile.
    ///
    /// If no thread can be spawned, `side` runs on this thread after the
    /// parse. If `side` panics, the panic resumes here once the parse is
    /// done.
    pub fn compile_beside<R: Send>(
        name: impl Into<String>,
        sources: Vec<(String, String)>,
        side: impl FnOnce(&[(String, String)]) -> R + Send,
    ) -> (Result<Project, Vec<Diagnostic>>, R) {
        let (project, side) = Project::compile_with(name.into(), sources, Some(side));
        (project, side.expect("side work ran"))
    }

    /// The one parse loop: parses every source by reference (running
    /// `side` beside it, if given), then moves each source into its
    /// [`SourceFile`] and links.
    fn compile_with<R: Send>(
        name: String,
        sources: Vec<(String, String)>,
        side: Option<impl FnOnce(&[(String, String)]) -> R + Send>,
    ) -> (Result<Project, Vec<Diagnostic>>, Option<R>) {
        let parse_all = || -> Vec<_> {
            sources
                .iter()
                .map(|(_, source)| parse_file(source))
                .collect()
        };
        let (parsed, side) = match side {
            None => (parse_all(), None),
            Some(side) => {
                let helper = std::thread::Builder::new().name("compile-side".to_string());
                let (parsed, side) = run_beside(helper, parse_all, || side(&sources));
                (parsed, Some(side))
            }
        };
        let mut files = Vec::with_capacity(sources.len());
        let mut errors = Vec::new();
        for ((path, source), parsed) in sources.into_iter().zip(parsed) {
            match source_file(path, source, parsed) {
                Ok(file) => files.push(Arc::new(file)),
                Err(err) => errors.push(err),
            }
        }
        if !errors.is_empty() {
            return (Err(errors), side);
        }
        (Project::link(name, files), side)
    }

    /// This project with the file at `path` replaced by `source`: the one
    /// file is reparsed, every other file is shared, and the whole
    /// program is relinked exactly as [`Project::compile`] links it. The
    /// result (project or diagnostics) therefore equals compiling the
    /// patched source list. `path` must name a file of this project.
    pub fn with_file_replaced(
        &self,
        path: &str,
        source: impl Into<String>,
    ) -> Result<Project, Vec<Diagnostic>> {
        let Some(at) = self.files.iter().position(|f| f.path == path) else {
            return Err(vec![Diagnostic::new(
                Span::default(),
                format!("no file `{path}` in project `{}`", self.name),
            )
            .with_path(path)]);
        };
        let source = source.into();
        let parsed = parse_file(&source);
        let file = source_file(path.to_string(), source, parsed).map_err(|err| vec![err])?;
        let mut files = self.files.clone();
        files[at] = Arc::new(file);
        Project::link(self.name.clone(), files)
    }

    /// The one link step: symbols, validation, then the index.
    fn link(name: String, files: Vec<Arc<SourceFile>>) -> Result<Project, Vec<Diagnostic>> {
        let mut errors = Vec::new();
        let symbols = build_symbols(&files, &mut errors);
        let mut project = Project {
            name,
            files,
            symbols,
            index: Arc::new(ProgramIndex::default()),
        };
        project.validate(&mut errors);
        if errors.is_empty() {
            // The index builder relies on validation invariants (declared
            // catch/instanceof types, unique methods), so build it last.
            project.index = Arc::new(ProgramIndex::build(&project.files, &project.symbols));
            Ok(project)
        } else {
            Err(errors)
        }
    }

    /// Returns the class declaration for `name`, if declared.
    pub fn class_decl(&self, name: &str) -> Option<&ClassDecl> {
        let info = self.symbols.class(name)?;
        match &self.files[info.file.0 as usize].items[info.item_idx] {
            Item::Class(class) => Some(class),
            _ => None,
        }
    }

    /// Resolves a method on `class`, walking the superclass chain.
    ///
    /// Returns the declaring class name together with the declaration.
    pub fn resolve_method(&self, class: &str, method: &str) -> Option<(&str, &MethodDecl)> {
        let mut current = class;
        loop {
            let decl = self.class_decl(current)?;
            if let Some(m) = decl.methods.iter().find(|m| m.name == method) {
                return Some((&decl.name, m));
            }
            current = decl.parent.as_deref()?;
        }
    }

    /// Iterates over `(file, class, method)` for every method in the project.
    pub fn all_methods(&self) -> impl Iterator<Item = (FileId, &ClassDecl, &MethodDecl)> {
        self.files.iter().enumerate().flat_map(|(fidx, file)| {
            file.items.iter().filter_map(move |item| match item {
                Item::Class(class) => Some((FileId(fidx as u32), class)),
                _ => None,
            })
        })
        .flat_map(|(fid, class)| class.methods.iter().map(move |m| (fid, class, m)))
    }

    /// All unit tests in the project, as `(file, MethodId)`.
    pub fn tests(&self) -> Vec<(FileId, MethodId)> {
        self.all_methods()
            .filter(|(_, _, m)| m.is_test)
            .map(|(fid, class, m)| (fid, MethodId::new(&class.name, &m.name)))
            .collect()
    }

    /// Total source size in bytes (the paper tracks per-file sizes for the
    /// LLM cost model).
    pub fn source_bytes(&self) -> usize {
        self.files.iter().map(|f| f.source.len()).sum()
    }

    /// Renders a span in file `file` as `path:line:col`.
    pub fn locate(&self, file: FileId, span: Span) -> String {
        let f = &self.files[file.0 as usize];
        let pos = f.line_map().line_col(span.start);
        format!("{}:{pos}", f.path)
    }

    fn validate(&self, errors: &mut Vec<Diagnostic>) {
        for file in &self.files {
            for item in &file.items {
                let Item::Class(class) = item else { continue };
                if let Some(parent) = &class.parent {
                    if self.symbols.class(parent).is_none() {
                        errors.push(
                            Diagnostic::new(
                                class.span,
                                format!("unknown superclass `{parent}`"),
                            )
                            .with_path(&file.path),
                        );
                    }
                }
                let mut seen = HashMap::new();
                for method in &class.methods {
                    if let Some(_prev) = seen.insert(&method.name, method.span) {
                        errors.push(
                            Diagnostic::new(
                                method.span,
                                format!(
                                    "duplicate method `{}` in class `{}`",
                                    method.name, class.name
                                ),
                            )
                            .with_path(&file.path),
                        );
                    }
                    for thrown in &method.throws {
                        if self.symbols.exception(thrown).is_none() {
                            errors.push(
                                Diagnostic::new(
                                    method.span,
                                    format!("unknown exception `{thrown}` in throws clause"),
                                )
                                .with_path(&file.path),
                            );
                        }
                    }
                    self.validate_body(file, method, errors);
                }
            }
        }
    }

    fn validate_body(&self, file: &SourceFile, method: &MethodDecl, errors: &mut Vec<Diagnostic>) {
        crate::ast::walk_stmts(&method.body, &mut |stmt| {
            if let crate::ast::Stmt::Try { catches, .. } = stmt {
                for catch in catches {
                    if self.symbols.exception(&catch.exc_type).is_none() {
                        errors.push(
                            Diagnostic::new(
                                catch.span,
                                format!("unknown exception `{}` in catch", catch.exc_type),
                            )
                            .with_path(&file.path),
                        );
                    }
                }
            }
            true
        });
        walk_exprs(&method.body, &mut |expr| {
            if let Expr::InstanceOf { ty, span, .. } = expr {
                if self.symbols.exception(ty).is_none() && self.symbols.class(ty).is_none() {
                    errors.push(
                        Diagnostic::new(*span, format!("unknown type `{ty}` in instanceof"))
                            .with_path(&file.path),
                    );
                }
            }
        });
    }
}

/// Runs `here` on this thread while `there` runs on a thread spawned from
/// `helper`, and returns both results. If the spawn fails, `there` runs
/// here after `here`; if `there` panics, its panic resumes here.
fn run_beside<A, R: Send>(
    helper: std::thread::Builder,
    here: impl FnOnce() -> A,
    there: impl FnOnce() -> R + Send,
) -> (A, R) {
    // The helper takes `there` out of the slot, so a failed spawn leaves
    // it behind to run inline.
    let slot = Mutex::new(Some(there));
    let take = || {
        slot.lock()
            .expect("side slot")
            .take()
            .expect("side work runs once")
    };
    std::thread::scope(|scope| {
        let spawned = helper.spawn_scoped(scope, || take()());
        let mine = here();
        let theirs = match spawned {
            Ok(handle) => handle.join().unwrap_or_else(|panic| resume_unwind(panic)),
            Err(_) => take()(),
        };
        (mine, theirs)
    })
}

/// One file with its parse result; a parse error carries the file's path.
fn source_file(
    path: String,
    source: String,
    parsed: Result<Vec<Item>, Diagnostic>,
) -> Result<SourceFile, Diagnostic> {
    match parsed {
        Ok(items) => Ok(SourceFile {
            path,
            source,
            items,
        }),
        Err(err) => Err(err.with_path(&path)),
    }
}

fn build_symbols(files: &[Arc<SourceFile>], errors: &mut Vec<Diagnostic>) -> SymbolTable {
    let mut symbols = SymbolTable::default();
    for (name, parent) in BUILTIN_EXCEPTIONS {
        symbols.exceptions.insert(
            name.to_string(),
            ExceptionInfo {
                parent: parent.map(str::to_string),
                builtin: true,
            },
        );
    }
    for (fidx, file) in files.iter().enumerate() {
        for (item_idx, item) in file.items.iter().enumerate() {
            match item {
                Item::ExceptionDecl(decl) => {
                    let info = ExceptionInfo {
                        parent: Some(
                            decl.parent.clone().unwrap_or_else(|| "Exception".to_string()),
                        ),
                        builtin: false,
                    };
                    if symbols.exceptions.insert(decl.name.clone(), info).is_some() {
                        errors.push(
                            Diagnostic::new(
                                decl.span,
                                format!("duplicate exception declaration `{}`", decl.name),
                            )
                            .with_path(&file.path),
                        );
                    }
                }
                Item::ConfigDecl(decl) => {
                    if symbols
                        .configs
                        .insert(decl.key.clone(), decl.default.clone())
                        .is_some()
                    {
                        errors.push(
                            Diagnostic::new(
                                decl.span,
                                format!("duplicate config declaration `{}`", decl.key),
                            )
                            .with_path(&file.path),
                        );
                    }
                }
                Item::Class(decl) => {
                    let info = ClassInfo {
                        file: FileId(fidx as u32),
                        item_idx,
                        parent: decl.parent.clone(),
                    };
                    if symbols.classes.insert(decl.name.clone(), info).is_some() {
                        errors.push(
                            Diagnostic::new(
                                decl.span,
                                format!("duplicate class declaration `{}`", decl.name),
                            )
                            .with_path(&file.path),
                        );
                    }
                }
            }
        }
    }
    // Check exception parents after all declarations are collected.
    for file in files {
        for item in &file.items {
            if let Item::ExceptionDecl(decl) = item {
                let parent = decl.parent.as_deref().unwrap_or("Exception");
                if !symbols.exceptions.contains_key(parent) {
                    errors.push(
                        Diagnostic::new(
                            decl.span,
                            format!("unknown parent exception `{parent}`"),
                        )
                        .with_path(&file.path),
                    );
                }
            }
        }
    }
    symbols
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(sources: &[(&str, &str)]) -> Project {
        Project::compile("test", sources.to_vec()).expect("compile should succeed")
    }

    #[test]
    fn builtin_exception_hierarchy() {
        let p = compile(&[("a.jav", "class A { }")]);
        assert!(p.symbols.is_exception_subtype("NullPointerException", "Exception"));
        assert!(p.symbols.is_exception_subtype("AssertionError", "Throwable"));
        assert!(!p.symbols.is_exception_subtype("AssertionError", "Exception"));
        assert!(p.symbols.is_exception_subtype("Exception", "Exception"));
    }

    #[test]
    fn user_exceptions_default_to_exception_parent() {
        let p = compile(&[(
            "e.jav",
            "exception IOException;\nexception ConnectException extends IOException;\nclass A { }",
        )]);
        assert!(p.symbols.is_exception_subtype("ConnectException", "IOException"));
        assert!(p.symbols.is_exception_subtype("ConnectException", "Exception"));
        assert!(!p.symbols.is_exception_subtype("IOException", "ConnectException"));
    }

    #[test]
    fn method_resolution_walks_superclass_chain() {
        let p = compile(&[(
            "a.jav",
            "class Base { method greet() { return \"hi\"; } }\n\
             class Derived extends Base { method other() { return 1; } }",
        )]);
        let (owner, m) = p.resolve_method("Derived", "greet").expect("resolved");
        assert_eq!(owner, "Base");
        assert_eq!(m.name, "greet");
        assert!(p.resolve_method("Derived", "missing").is_none());
    }

    #[test]
    fn collects_tests_across_files() {
        let p = compile(&[
            ("a.jav", "class A { test t1() { assert(true); } method m() { } }"),
            ("b.jav", "class B { test t2() { assert(true); } }"),
        ]);
        let tests = p.tests();
        assert_eq!(tests.len(), 2);
        assert_eq!(tests[0].1, MethodId::new("A", "t1"));
        assert_eq!(tests[1].1, MethodId::new("B", "t2"));
    }

    #[test]
    fn config_defaults_are_recorded() {
        let p = compile(&[(
            "c.jav",
            "config \"dfs.retry.max\" default 5;\nconfig \"dfs.retry.enabled\" default true;\nclass A { }",
        )]);
        assert_eq!(p.symbols.config_default("dfs.retry.max"), Some(&Literal::Int(5)));
        assert_eq!(
            p.symbols.config_default("dfs.retry.enabled"),
            Some(&Literal::Bool(true))
        );
        assert_eq!(p.symbols.config_default("missing"), None);
    }

    #[test]
    fn rejects_duplicate_class() {
        let err = Project::compile("t", vec![("a.jav", "class A { }\nclass A { }")]).unwrap_err();
        assert!(err[0].message.contains("duplicate class"));
    }

    #[test]
    fn rejects_unknown_superclass_and_exception() {
        let err = Project::compile(
            "t",
            vec![(
                "a.jav",
                "class A extends Missing { method m() throws NoSuchExc { } }",
            )],
        )
        .unwrap_err();
        let messages: Vec<_> = err.iter().map(|d| d.message.as_str()).collect();
        assert!(messages.iter().any(|m| m.contains("unknown superclass")));
        assert!(messages.iter().any(|m| m.contains("unknown exception")));
    }

    #[test]
    fn rejects_unknown_catch_type() {
        let err = Project::compile(
            "t",
            vec![("a.jav", "class A { method m() { try { this.x(); } catch (Nope e) { } } }")],
        )
        .unwrap_err();
        assert!(err[0].message.contains("unknown exception `Nope`"));
    }

    #[test]
    fn rejects_unknown_instanceof_type() {
        let err = Project::compile(
            "t",
            vec![("a.jav", "class A { method m(e) { return e instanceof Ghost; } }")],
        )
        .unwrap_err();
        assert!(err[0].message.contains("unknown type `Ghost`"));
    }

    #[test]
    fn rejects_duplicate_method() {
        let err = Project::compile(
            "t",
            vec![("a.jav", "class A { method m() { } method m() { } }")],
        )
        .unwrap_err();
        assert!(err[0].message.contains("duplicate method"));
    }

    #[test]
    fn parse_errors_carry_paths() {
        let err = Project::compile("t", vec![("bad.jav", "class {")]).unwrap_err();
        assert_eq!(err[0].path, "bad.jav");
    }

    #[test]
    fn replacing_a_file_reparses_it_alone_and_relinks() {
        let base = compile(&[
            ("e.jav", "exception E;"),
            ("a.jav", "class A { method m() throws E { } }"),
            ("b.jav", "class B extends A { }"),
        ]);
        let edited = base
            .with_file_replaced("a.jav", "class A { method m() { } method n() { } }")
            .expect("edit compiles");
        assert!(Arc::ptr_eq(&edited.files[0], &base.files[0]));
        assert!(!Arc::ptr_eq(&edited.files[1], &base.files[1]));
        assert!(Arc::ptr_eq(&edited.files[2], &base.files[2]));
        assert_eq!(edited.files[1].path, "a.jav");
        assert!(edited.resolve_method("B", "n").is_some(), "B sees A's new method");

        // Dropping a class another file extends fails the link, exactly as
        // a full compile of the edited sources does.
        let err = base.with_file_replaced("a.jav", "class Z { }").unwrap_err();
        assert!(err[0].message.contains("unknown superclass `A`"));
        assert_eq!(err[0].path, "b.jav");
        let err = base.with_file_replaced("a.jav", "class {").unwrap_err();
        assert_eq!(err[0].path, "a.jav");
        let err = base.with_file_replaced("nope.jav", "").unwrap_err();
        assert!(err[0].message.contains("no file `nope.jav`"));
    }

    fn owned(sources: &[(&str, &str)]) -> Vec<(String, String)> {
        sources
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    #[test]
    fn compiling_beside_side_work_equals_compiling_alone() {
        let good = owned(&[
            ("e.jav", "exception E;"),
            ("a.jav", "class A { method m() throws E { } }"),
        ]);
        let bad = owned(&[
            ("a.jav", "class {"),
            ("b.jav", "class B extends Missing { }"),
            ("c.jav", "class"),
        ]);
        for sources in [good, bad] {
            let (project, seen) =
                Project::compile_beside("t", sources.clone(), |side| side.to_vec());
            assert_eq!(seen, sources, "side work sees every source, in order");
            let alone = Project::compile("t", sources);
            match (project, alone) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.files, b.files);
                    assert_eq!(a.symbols, b.symbols);
                    assert_eq!(a.index, b.index);
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b);
                    assert_eq!(a.len(), 2, "both parse errors, in file order");
                }
                (a, b) => panic!("beside {:?} vs alone {:?}", a.is_ok(), b.is_ok()),
            }
        }
    }

    #[test]
    fn a_panic_in_side_work_resumes_on_the_caller() {
        let sources = owned(&[("a.jav", "class A { }")]);
        let caught = std::panic::catch_unwind(|| {
            Project::compile_beside("t", sources, |_| -> () { std::panic::panic_any(42_u32) })
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<u32>(), Some(&42));
    }

    #[test]
    fn side_work_runs_inline_when_no_thread_can_be_spawned() {
        // No stack this large can be mapped, so the spawn fails and
        // starts nothing.
        let unspawnable = std::thread::Builder::new().stack_size(usize::MAX >> 4);
        let here = std::thread::current().id();
        let (mine, theirs) = run_beside(unspawnable, || 1, || std::thread::current().id());
        assert_eq!((mine, theirs), (1, here));
        let spawnable = std::thread::Builder::new();
        let (_, theirs) = run_beside(spawnable, || 1, || std::thread::current().id());
        assert_ne!(theirs, here);
    }

    #[test]
    fn locate_renders_path_line_col() {
        let p = compile(&[("dir/a.jav", "class A {\n  method m() { }\n}")]);
        let Item::Class(class) = &p.files[0].items[0] else {
            panic!("class expected")
        };
        let loc = p.locate(FileId(0), class.methods[0].span);
        assert_eq!(loc, "dir/a.jav:2:3");
    }
}
