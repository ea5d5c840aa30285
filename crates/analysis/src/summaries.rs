//! Per-method interprocedural summaries, computed as a fixpoint over the
//! call graph's SCC condensation.
//!
//! Each method gets a [`MethodSummary`]:
//!
//! - **may-throw** — the set of declared exception types that can escape
//!   the method: its `throws` clause, explicit `throw new E(..)` sites not
//!   covered by an enclosing catch, rethrown catch bindings, and every
//!   callee's may-throw set filtered through the try/catch context of the
//!   call site. The set is an over-approximation under exception
//!   subtyping: anything the method actually raises is a subtype of some
//!   member.
//! - **may-sleep** — whether a `sleep(..)` statement is reachable through
//!   any call chain (no catch filtering: delays count wherever they
//!   live).
//! - **may-retry / attempt bound** — whether the method (or anything it
//!   transitively calls) contains a retry loop, and the local loop's
//!   attempt bound when it does.
//!
//! # Demand
//!
//! Only the methods the call graph resolved get a summary. A graph built
//! from roots resolves a set closed under callees, so every component of
//! it is a whole component of the full graph, at the same level, and each
//! summary equals the one the full graph gives. Reading any other method's
//! summary is a bug; [`Summaries::get`] asserts against it in debug
//! builds.
//!
//! # Determinism
//!
//! Components are processed level by level over the condensation DAG
//! (level = longest path to a leaf). Two components on the same level
//! cannot call each other, so every cross-component read touches a
//! finalized summary from a strictly lower level; within a component the
//! fixpoint iterates members in ascending method order until stable. The
//! worker threads that split a level's components among themselves
//! therefore compute identical values in any interleaving — `--jobs 1`
//! and `--jobs 4` produce byte-identical summaries.

use crate::callgraph::{sccs_from, CallGraph, ResolvedCall};
use crate::idx;
use std::collections::{BTreeSet, HashMap};
use wasabi_lang::ast::BinOp;
use wasabi_lang::index::{ExcId, LExpr, LStmt, ProgramIndex, Slot};
use wasabi_lang::project::{CallSite, Project};

/// Worst-case attempt bound of a retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptBound {
    /// Bounded by a statically known count.
    Bounded(u64),
    /// A cap exists but its value is not statically known.
    Capped,
    /// No attempt cap found.
    Unbounded,
}

impl AttemptBound {
    /// Multiplies two bounds (worst-case product of nested retries).
    pub fn multiply(self, other: AttemptBound) -> AttemptBound {
        match (self, other) {
            (AttemptBound::Unbounded, _) | (_, AttemptBound::Unbounded) => AttemptBound::Unbounded,
            (AttemptBound::Capped, _) | (_, AttemptBound::Capped) => AttemptBound::Capped,
            (AttemptBound::Bounded(a), AttemptBound::Bounded(b)) => {
                AttemptBound::Bounded(a.saturating_mul(b))
            }
        }
    }
}

impl std::fmt::Display for AttemptBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptBound::Bounded(n) => write!(f, "{n}"),
            AttemptBound::Capped => write!(f, "capped(?)"),
            AttemptBound::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// The interprocedural facts computed for one compiled method.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MethodSummary {
    /// Exception types that may escape the method.
    pub may_throw: BTreeSet<ExcId>,
    /// Whether a `sleep` is reachable through the method.
    pub may_sleep: bool,
    /// Whether the method body itself contains a retry loop.
    pub has_retry_loop: bool,
    /// Whether a retry loop is reachable through the method.
    pub may_retry: bool,
    /// Attempt bound of the method's own retry loop(s); worst case when
    /// there are several. `None` when the method has no retry loop.
    pub attempts: Option<AttemptBound>,
    /// Whether the method body itself contains an ordering comparison
    /// (`<`, `<=`, `>`, `>=`) — a local fact (not propagated) used to
    /// recognise cap checks delegated to helpers.
    pub has_comparison: bool,
}

/// Summaries for the methods a call graph resolved, indexed by method
/// index.
#[derive(Debug)]
pub struct Summaries {
    /// `methods[m]` — summary for method index `m`; a default for a
    /// method the call graph did not resolve.
    methods: Vec<MethodSummary>,
    /// `resolved[m]` — whether `methods[m]` was solved.
    resolved: Vec<bool>,
}

impl Summaries {
    /// Computes the summaries of every method `cg` resolved. `local_retry` carries, per method index,
    /// the attempt bound of the retry loops found in that method by the
    /// loop query (empty slice when only throw/sleep facts are needed);
    /// `jobs` bounds the worker threads used per condensation level.
    pub fn compute(
        project: &Project,
        cg: &CallGraph,
        local_retry: &[(u32, AttemptBound)],
        jobs: usize,
    ) -> Summaries {
        let index = &project.index;
        let n = index.methods.len();
        let mut retry_bounds: Vec<Option<AttemptBound>> = vec![None; n];
        for &(midx, bound) in local_retry {
            let slot = &mut retry_bounds[idx(midx, "retry method")];
            *slot = Some(match *slot {
                // Several loops in one method: keep the worst case.
                Some(existing) => existing.max_of(bound),
                None => bound,
            });
        }

        let scc = sccs_from(
            &cg.callees,
            (0..n as u32).filter(|&m| cg.resolved[m as usize]),
        );
        // Level = longest path to a leaf component. Components arrive in
        // reverse topological order, so every callee component has a
        // smaller index and its level is already final.
        let mut levels = vec![0u32; scc.components.len()];
        for (ci, members) in scc.components.iter().enumerate() {
            let mut level = 0;
            for &m in members {
                for &callee in &cg.callees[idx(m, "scc member")] {
                    let cc = idx(scc.component_of[idx(callee, "callee method")], "component");
                    if cc != ci {
                        level = level.max(levels[cc] + 1);
                    }
                }
            }
            levels[ci] = level;
        }
        let max_level = levels.iter().copied().max().unwrap_or(0);
        let mut by_level: Vec<Vec<usize>> = vec![Vec::new(); idx(max_level, "scc level") + 1];
        for (ci, &level) in levels.iter().enumerate() {
            by_level[idx(level, "scc level")].push(ci);
        }

        let mut methods: Vec<MethodSummary> = vec![MethodSummary::default(); n];
        let jobs = jobs.max(1);
        for level in &by_level {
            if level.is_empty() {
                continue;
            }
            let chunk = level.len().div_ceil(jobs);
            let results: Vec<(u32, MethodSummary)> = if jobs == 1 || level.len() == 1 {
                solve_components(index, cg, &scc.components, level, &retry_bounds, &methods)
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = level
                        .chunks(chunk)
                        .map(|part| {
                            let methods = &methods;
                            let retry_bounds = &retry_bounds;
                            let components = &scc.components;
                            scope.spawn(move || {
                                solve_components(
                                    index,
                                    cg,
                                    components,
                                    part,
                                    retry_bounds,
                                    methods,
                                )
                            })
                        })
                        .collect();
                    let mut out = Vec::new();
                    for handle in handles {
                        out.extend(handle.join().expect("summary worker panicked"));
                    }
                    out
                })
            };
            for (midx, summary) in results {
                methods[idx(midx, "solved method")] = summary;
            }
        }
        Summaries {
            methods,
            resolved: cg.resolved.clone(),
        }
    }

    /// The summary of method `m`, which the call graph must have resolved.
    pub fn get(&self, m: u32) -> &MethodSummary {
        let at = idx(m, "method");
        debug_assert!(
            self.resolved[at],
            "summary of method {m}, which the call graph did not resolve"
        );
        &self.methods[at]
    }

    /// Union of the may-throw sets of a call's targets.
    pub fn targets_may_throw(&self, call: &ResolvedCall) -> BTreeSet<ExcId> {
        let mut out = BTreeSet::new();
        for &t in &call.targets {
            out.extend(self.get(t).may_throw.iter().copied());
        }
        out
    }
}

impl AttemptBound {
    /// The worse (larger) of two bounds.
    fn max_of(self, other: AttemptBound) -> AttemptBound {
        match (self, other) {
            (AttemptBound::Unbounded, _) | (_, AttemptBound::Unbounded) => AttemptBound::Unbounded,
            (AttemptBound::Capped, _) | (_, AttemptBound::Capped) => AttemptBound::Capped,
            (AttemptBound::Bounded(a), AttemptBound::Bounded(b)) => AttemptBound::Bounded(a.max(b)),
        }
    }
}

/// Solves the fixpoint for a slice of same-level components. Only reads
/// `finalized` entries from strictly lower levels (plus the local overlay
/// for in-component recursion), so the result is independent of how
/// components are distributed across workers.
fn solve_components(
    index: &ProgramIndex,
    cg: &CallGraph,
    components: &[Vec<u32>],
    which: &[usize],
    retry_bounds: &[Option<AttemptBound>],
    finalized: &[MethodSummary],
) -> Vec<(u32, MethodSummary)> {
    let mut out = Vec::new();
    for &ci in which {
        let members = &components[ci];
        let mut overlay: HashMap<u32, MethodSummary> = members
            .iter()
            .map(|&m| (m, MethodSummary::default()))
            .collect();
        loop {
            let mut changed = false;
            for &m in members {
                let next = transfer(index, cg, m, retry_bounds, finalized, &overlay);
                let current = overlay.get_mut(&m).expect("overlay member");
                if *current != next {
                    *current = next;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for &m in members {
            out.push((m, overlay.remove(&m).expect("overlay member")));
        }
    }
    out
}

/// One application of the summary transfer function for method `midx`.
fn transfer(
    index: &ProgramIndex,
    cg: &CallGraph,
    midx: u32,
    retry_bounds: &[Option<AttemptBound>],
    finalized: &[MethodSummary],
    overlay: &HashMap<u32, MethodSummary>,
) -> MethodSummary {
    let method = &index.methods[idx(midx, "method")];
    let call_targets: HashMap<CallSite, &[u32]> = cg.calls[idx(midx, "method")]
        .iter()
        .map(|c| (c.site, c.targets.as_slice()))
        .collect();
    let mut walker = BodyWalker {
        index,
        overlay,
        finalized,
        call_targets: &call_targets,
        handlers: Vec::new(),
        bindings: HashMap::new(),
        may_throw: method.throws.iter().copied().collect(),
        may_sleep: false,
        may_retry: false,
        has_comparison: false,
    };
    walker.stmts(&method.body);
    let attempts = retry_bounds[idx(midx, "method")];
    MethodSummary {
        may_throw: walker.may_throw,
        may_sleep: walker.may_sleep,
        has_retry_loop: attempts.is_some(),
        may_retry: attempts.is_some() || walker.may_retry,
        attempts,
        has_comparison: walker.has_comparison,
    }
}

struct BodyWalker<'a> {
    index: &'a ProgramIndex,
    overlay: &'a HashMap<u32, MethodSummary>,
    finalized: &'a [MethodSummary],
    call_targets: &'a HashMap<CallSite, &'a [u32]>,
    /// Stack of enclosing catch-clause type lists (innermost last); only
    /// the clauses protecting the *current* position are on the stack.
    handlers: Vec<Vec<ExcId>>,
    /// Catch-binding slots in scope, for typing `throw e;` rethrows.
    bindings: HashMap<Slot, ExcId>,
    may_throw: BTreeSet<ExcId>,
    may_sleep: bool,
    may_retry: bool,
    has_comparison: bool,
}

impl<'a> BodyWalker<'a> {
    /// The current summary of method `m`: in-component overlay first,
    /// else the finalized lower-level result.
    fn summary_of(&self, m: u32) -> &MethodSummary {
        self.overlay.get(&m).unwrap_or(&self.finalized[idx(m, "method")])
    }

    /// Records that exception `exc` is raised at the current position; it
    /// escapes unless an enclosing catch clause covers it.
    fn raise(&mut self, exc: ExcId) {
        let handled = self
            .handlers
            .iter()
            .flatten()
            .any(|&h| self.index.is_exc_subtype(exc, h));
        if !handled {
            self.may_throw.insert(exc);
        }
    }

    /// The top exception type, used when a rethrown value cannot be typed.
    fn throwable(&self) -> Option<ExcId> {
        self.index.exc_by_name("Throwable")
    }

    fn expr(&mut self, expr: &LExpr) {
        match expr {
            LExpr::Call {
                site, recv, args, ..
            } => {
                if let Some(r) = recv {
                    self.expr(r);
                }
                for a in args {
                    self.expr(a);
                }
                if let Some(targets) = self.call_targets.get(site) {
                    let mut thrown: Vec<ExcId> = Vec::new();
                    let mut sleeps = false;
                    let mut retries = false;
                    for &t in *targets {
                        let summary = self.summary_of(t);
                        sleeps |= summary.may_sleep;
                        retries |= summary.may_retry;
                        thrown.extend(summary.may_throw.iter().copied());
                    }
                    self.may_sleep |= sleeps;
                    self.may_retry |= retries;
                    for exc in thrown {
                        self.raise(exc);
                    }
                }
            }
            LExpr::Field { recv, .. } => self.expr(recv),
            LExpr::GlobalCall { args, .. }
            | LExpr::NewExc { args, .. }
            | LExpr::NewObj { args, .. }
            | LExpr::NewUnknown { args, .. } => {
                for a in args {
                    self.expr(a);
                }
            }
            LExpr::Binary { op, lhs, rhs } => {
                if matches!(op, BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq) {
                    self.has_comparison = true;
                }
                self.expr(lhs);
                self.expr(rhs);
            }
            LExpr::Unary { expr, .. } | LExpr::InstanceOf { expr, .. } => self.expr(expr),
            LExpr::Literal(_) | LExpr::Local { .. } | LExpr::ImplicitField { .. } | LExpr::This => {
            }
        }
    }

    fn stmts(&mut self, stmts: &[LStmt]) {
        for stmt in stmts {
            match stmt {
                LStmt::Var { init, .. } => self.expr(init),
                LStmt::AssignLocal { value, .. } => self.expr(value),
                LStmt::AssignField { recv, value, .. } => {
                    self.expr(recv);
                    self.expr(value);
                }
                LStmt::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    self.expr(cond);
                    self.stmts(then_blk);
                    if let Some(e) = else_blk {
                        self.stmts(e);
                    }
                }
                LStmt::While { cond, body } => {
                    self.expr(cond);
                    self.stmts(body);
                }
                LStmt::For {
                    init,
                    cond,
                    update,
                    body,
                } => {
                    if let Some(i) = init {
                        self.stmts(std::slice::from_ref(i));
                    }
                    if let Some(c) = cond {
                        self.expr(c);
                    }
                    if let Some(u) = update {
                        self.stmts(std::slice::from_ref(u));
                    }
                    self.stmts(body);
                }
                LStmt::Switch {
                    scrutinee,
                    cases,
                    default,
                } => {
                    self.expr(scrutinee);
                    for (_, body) in cases {
                        self.stmts(body);
                    }
                    if let Some(d) = default {
                        self.stmts(d);
                    }
                }
                LStmt::Try {
                    body,
                    catches,
                    finally,
                } => {
                    // The protected body runs under this try's clauses.
                    self.handlers
                        .push(catches.iter().map(|c| c.exc).collect());
                    self.stmts(body);
                    self.handlers.pop();
                    // Catch bodies run under the *outer* context only; the
                    // binding slot types rethrows inside the body.
                    for c in catches {
                        let shadowed = self.bindings.insert(c.binding, c.exc);
                        self.stmts(&c.body);
                        match shadowed {
                            Some(prev) => {
                                self.bindings.insert(c.binding, prev);
                            }
                            None => {
                                self.bindings.remove(&c.binding);
                            }
                        }
                    }
                    if let Some(f) = finally {
                        self.stmts(f);
                    }
                }
                LStmt::Throw { expr } => {
                    self.expr(expr);
                    let raised = match expr {
                        LExpr::NewExc { exc, .. } => Some(*exc),
                        LExpr::Local { slot, .. } => self
                            .bindings
                            .get(slot)
                            .copied()
                            .or_else(|| self.throwable()),
                        _ => self.throwable(),
                    };
                    if let Some(exc) = raised {
                        self.raise(exc);
                    }
                }
                LStmt::Return { expr } => {
                    if let Some(e) = expr {
                        self.expr(e);
                    }
                }
                LStmt::Sleep { ms } => {
                    self.expr(ms);
                    self.may_sleep = true;
                }
                LStmt::Log { expr } | LStmt::Expr { expr } => self.expr(expr),
                LStmt::Assert { cond, msg } => {
                    self.expr(cond);
                    if let Some(m) = msg {
                        self.expr(m);
                    }
                }
                LStmt::Break | LStmt::Continue => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_lang::project::Project;

    fn project(src: &str) -> Project {
        Project::compile("t", vec![("t.jav", src)]).expect("compile")
    }

    fn summaries(p: &Project, jobs: usize) -> Summaries {
        let cg = CallGraph::build(p);
        Summaries::compute(p, &cg, &[], jobs)
    }

    fn midx(p: &Project, class: &str, name: &str) -> u32 {
        let cid = p.index.class_by_name(class).expect("class");
        let sym = p.index.interner.lookup(name).expect("name");
        p.index.resolve_dispatch(cid, sym).expect("dispatch")
    }

    fn exc(p: &Project, name: &str) -> ExcId {
        p.index.exc_by_name(name).expect("exception")
    }

    #[test]
    fn may_throw_propagates_through_calls_and_catches() {
        let p = project(
            "exception NetError;\n\
             exception DiskError;\n\
             class C {\n\
               method low() { throw new NetError(\"n\"); }\n\
               method mid() { throw new DiskError(\"d\"); }\n\
               method both() { this.low(); this.mid(); return 1; }\n\
               method filtered() {\n\
                 try { this.both(); } catch (NetError e) { log(e); }\n\
                 return 1;\n\
               }\n\
             }",
        );
        let s = summaries(&p, 1);
        let both = s.get(midx(&p, "C", "both"));
        assert!(both.may_throw.contains(&exc(&p, "NetError")));
        assert!(both.may_throw.contains(&exc(&p, "DiskError")));
        let filtered = s.get(midx(&p, "C", "filtered"));
        assert!(!filtered.may_throw.contains(&exc(&p, "NetError")));
        assert!(filtered.may_throw.contains(&exc(&p, "DiskError")));
    }

    #[test]
    fn rethrown_binding_keeps_its_catch_type() {
        let p = project(
            "exception NetError;\n\
             class C {\n\
               method low() throws NetError { return 1; }\n\
               method wrap() {\n\
                 try { this.low(); } catch (NetError e) { log(\"x\"); throw e; }\n\
                 return 1;\n\
               }\n\
             }",
        );
        let s = summaries(&p, 1);
        let wrap = s.get(midx(&p, "C", "wrap"));
        assert!(wrap.may_throw.contains(&exc(&p, "NetError")));
    }

    #[test]
    fn may_sleep_crosses_two_call_levels() {
        let p = project(
            "class C {\n\
               method pause() { sleep(50); }\n\
               method backoff() { this.pause(); }\n\
               method run() { this.backoff(); return 1; }\n\
               method quiet() { return 1; }\n\
             }",
        );
        let s = summaries(&p, 1);
        assert!(s.get(midx(&p, "C", "run")).may_sleep);
        assert!(!s.get(midx(&p, "C", "quiet")).may_sleep);
    }

    #[test]
    fn recursive_cycle_reaches_fixpoint() {
        let p = project(
            "exception NetError;\n\
             class C {\n\
               method a(n) { if (n > 0) { this.b(n - 1); } return 1; }\n\
               method b(n) { if (n > 2) { throw new NetError(\"x\"); } this.a(n); return 2; }\n\
             }",
        );
        let s = summaries(&p, 1);
        assert!(s
            .get(midx(&p, "C", "a"))
            .may_throw
            .contains(&exc(&p, "NetError")));
        assert!(s
            .get(midx(&p, "C", "b"))
            .may_throw
            .contains(&exc(&p, "NetError")));
    }

    #[test]
    fn jobs_do_not_change_summaries() {
        let src = "exception NetError;\n\
             exception DiskError;\n\
             class A { method x() { throw new NetError(\"a\"); } }\n\
             class B { method y() { new A().x(); sleep(5); return 1; } }\n\
             class C {\n\
               method r1() { new B().y(); return this.r2(); }\n\
               method r2() { if (true) { return this.r1(); } throw new DiskError(\"c\"); }\n\
             }";
        let p = project(src);
        let s1 = summaries(&p, 1);
        let s4 = summaries(&p, 4);
        assert_eq!(s1.methods, s4.methods);
    }

    const ROOTED: &str = "exception NetError;\n\
         class A { method x() { throw new NetError(\"a\"); } method unused() { sleep(1); } }\n\
         class B { method y() { new A().x(); sleep(5); return 1; } }\n\
         class C {\n\
           method r1() { new B().y(); return this.r2(); }\n\
           method r2() { if (true) { return this.r1(); } return 2; }\n\
           method other() { return new A().unused(); }\n\
         }";

    #[test]
    fn summaries_from_roots_equal_the_full_summaries() {
        let p = project(ROOTED);
        let full = summaries(&p, 1);
        let cg = CallGraph::from_roots(&p, [midx(&p, "C", "r1")]);
        let rooted = Summaries::compute(&p, &cg, &[], 2);
        for (class, name) in [("C", "r1"), ("C", "r2"), ("B", "y"), ("A", "x")] {
            let m = midx(&p, class, name);
            assert!(cg.resolved[m as usize], "{class}.{name} resolved");
            assert_eq!(rooted.get(m), full.get(m), "{class}.{name}");
        }
        for (class, name) in [("C", "other"), ("A", "unused")] {
            assert!(
                !cg.resolved[midx(&p, class, name) as usize],
                "{class}.{name}"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "did not resolve")]
    fn reading_an_unresolved_summary_fails() {
        let p = project(ROOTED);
        let cg = CallGraph::from_roots(&p, [midx(&p, "C", "r1")]);
        let rooted = Summaries::compute(&p, &cg, &[], 1);
        rooted.get(midx(&p, "C", "other"));
    }
}
