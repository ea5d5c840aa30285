//! Deterministic call graph over the compile-once
//! [`ProgramIndex`](wasabi_lang::index::ProgramIndex), either whole-program
//! ([`CallGraph::build`]) or demand-driven: only the methods reachable from
//! a set of roots ([`CallGraph::from_roots`]).
//!
//! Calls are resolved through the same flattened dispatch tables the
//! interpreter executes, so static reasoning and dynamic dispatch can no
//! longer disagree (the `resolve.rs` name-matching split-brain):
//!
//! - **this-calls** (`this.m()` / implicit receiver) resolve through the
//!   dispatch table of the declaring class *and every subclass of it* —
//!   at run time `this` may be any subtype, so the target set
//!   over-approximates dynamic dispatch exactly.
//! - **typed receivers** (`new C().m()`, locals assigned `new C(...)`,
//!   fields initialised `new C(...)`) resolve through `C`'s table alone.
//! - **unknown receivers** fall back to every compiled method of the
//!   called name ([`ProgramIndex::methods_named`]); a unique target
//!   resolves, anything else stays a may-set.
//!
//! Parameters are never typed: a caller may pass any receiver, so a
//! `new` assigned to a parameter slot proves nothing about its other
//! values.
//!
//! Everything is computed from dense ids in declaration order — no hash
//! iteration escapes into results — so the graph is byte-stable across
//! runs and worker counts.

use crate::idx;
use std::collections::HashMap;
use wasabi_lang::index::{visit_exprs, ClassId, FieldInit, LExpr, LStmt, ProgramIndex, Slot};
use wasabi_lang::intern::Symbol;
use wasabi_lang::project::{CallSite, Project};

/// One call expression with its resolved may-target set.
#[derive(Debug, Clone)]
pub struct ResolvedCall {
    /// The static call site (file + span), as carried by the lowered IR.
    pub site: CallSite,
    /// Called method name.
    pub method: Symbol,
    /// May-target method indices, sorted and deduped. Empty when the name
    /// resolves on no class (e.g. methods of runtime builtin values).
    pub targets: Vec<u32>,
}

/// The call graph: per-method resolved call sites and the flattened
/// callee adjacency used by SCC/fixpoint passes. A graph built from roots
/// ([`CallGraph::from_roots`]) resolves only the methods those roots reach;
/// every other method keeps empty `calls` and `callees`.
#[derive(Debug)]
pub struct CallGraph {
    /// `calls[m]` — every call expression in method `m`, in lowering
    /// order.
    pub calls: Vec<Vec<ResolvedCall>>,
    /// `callees[m]` — union of target sets of `calls[m]`, sorted, deduped.
    pub callees: Vec<Vec<u32>>,
    /// `resolved[m]` — whether method `m`'s calls were resolved. The
    /// resolved set is closed under `callees`.
    pub resolved: Vec<bool>,
}

impl CallGraph {
    /// Builds the call graph for a compiled project: every method is a
    /// root.
    pub fn build(project: &Project) -> CallGraph {
        CallGraph::from_roots(project, 0..project.index.methods.len() as u32)
    }

    /// Builds the part of the call graph reachable from `roots`: a worklist
    /// resolves a method's calls, then enqueues every target it has not
    /// seen. A method's calls depend only on its own body and the
    /// whole-program field typing, so each resolved method gets exactly
    /// the calls [`CallGraph::build`] gives it.
    pub fn from_roots(project: &Project, roots: impl IntoIterator<Item = u32>) -> CallGraph {
        let index = &project.index;
        let n = index.methods.len();
        // Field typing stays whole-program: a field's type depends on
        // every assignment to it, wherever the assigning method lives.
        let field_types = infer_field_types(index);
        let mut calls = vec![Vec::new(); n];
        let mut callees = vec![Vec::new(); n];
        let mut resolved = vec![false; n];
        let mut worklist: Vec<u32> = Vec::new();
        for root in roots {
            if !std::mem::replace(&mut resolved[idx(root, "root method")], true) {
                worklist.push(root);
            }
        }
        // Methods are resolved in the order they are first reached, so
        // with every method a root this is one pass in index order.
        let mut next = 0;
        while let Some(&m) = worklist.get(next) {
            next += 1;
            let out = resolve_calls(index, &field_types, m);
            let mut adjacent: Vec<u32> = out
                .iter()
                .flat_map(|c| c.targets.iter().copied())
                .collect();
            adjacent.sort_unstable();
            adjacent.dedup();
            for &target in &adjacent {
                if !std::mem::replace(&mut resolved[idx(target, "call target")], true) {
                    worklist.push(target);
                }
            }
            calls[idx(m, "method")] = out;
            callees[idx(m, "method")] = adjacent;
        }
        CallGraph {
            calls,
            callees,
            resolved,
        }
    }

    /// Number of methods (nodes).
    pub fn len(&self) -> usize {
        self.callees.len()
    }

    /// Whether the graph has no methods.
    pub fn is_empty(&self) -> bool {
        self.callees.is_empty()
    }
}

/// Every call expression in method `m` with its may-targets. Children
/// before parents: a call nested in another call's receiver or arguments
/// is listed first, in evaluation order.
fn resolve_calls(
    index: &ProgramIndex,
    field_types: &HashMap<(ClassId, Symbol), ClassId>,
    m: u32,
) -> Vec<ResolvedCall> {
    let method = &index.methods[idx(m, "method")];
    let locals = infer_local_types(&method.body, method.params);
    let resolver = CallResolver {
        index,
        field_types,
        locals: &locals,
        owner: method.owner,
    };
    let mut out = Vec::new();
    visit_exprs(&method.body, &mut |expr| {
        if let LExpr::Call {
            site, recv, method, ..
        } = expr
        {
            out.push(ResolvedCall {
                site: *site,
                method: *method,
                targets: resolver.resolve(recv.as_deref(), *method),
            });
        }
    });
    out
}

/// Flow-insensitive `(class, field) -> concrete class` typing: a field
/// whose every initialiser and every `this.f = new C(...)` assignment
/// agrees on one class gets that type; any conflict poisons it.
fn infer_field_types(index: &ProgramIndex) -> HashMap<(ClassId, Symbol), ClassId> {
    // `None` marks a poisoned (conflicting) entry.
    let mut types: HashMap<(ClassId, Symbol), Option<ClassId>> = HashMap::new();
    let mut record = |key: (ClassId, Symbol), class: ClassId| match types.entry(key) {
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(Some(class));
        }
        std::collections::hash_map::Entry::Occupied(mut e) => {
            if *e.get() != Some(class) {
                e.insert(None);
            }
        }
    };
    for (cidx, class) in index.classes.iter().enumerate() {
        let cid = ClassId(cidx as u32);
        for FieldInit { slot, expr } in &class.inits {
            if let LExpr::NewObj { class: c, .. } = expr {
                // Field initialisers address layout slots; map back to the
                // field name through the layout.
                if let Some((sym, _)) = class.layout.slots().find(|&(_, s)| s == *slot) {
                    record((cid, sym), *c);
                }
            }
        }
    }
    for method in &index.methods {
        walk_assignments(&method.body, &mut |name, value| {
            if let LExpr::NewObj { class: c, .. } = value {
                record((method.owner, name), *c);
            }
        });
    }
    types
        .into_iter()
        .filter_map(|(k, v)| v.map(|c| (k, c)))
        .collect()
}

/// Visits every `this.name = value` / implicit-field assignment in a body.
fn walk_assignments(stmts: &[LStmt], visit: &mut dyn FnMut(Symbol, &LExpr)) {
    for stmt in stmts {
        match stmt {
            LStmt::AssignField {
                recv: LExpr::This,
                name,
                value,
            } => visit(*name, value),
            LStmt::If {
                then_blk, else_blk, ..
            } => {
                walk_assignments(then_blk, visit);
                if let Some(e) = else_blk {
                    walk_assignments(e, visit);
                }
            }
            LStmt::While { body, .. } | LStmt::For { body, .. } => walk_assignments(body, visit),
            LStmt::Switch { cases, default, .. } => {
                for (_, body) in cases {
                    walk_assignments(body, visit);
                }
                if let Some(d) = default {
                    walk_assignments(d, visit);
                }
            }
            LStmt::Try {
                body,
                catches,
                finally,
            } => {
                walk_assignments(body, visit);
                for c in catches {
                    walk_assignments(&c.body, visit);
                }
                if let Some(f) = finally {
                    walk_assignments(f, visit);
                }
            }
            _ => {}
        }
    }
}

/// Flow-insensitive local typing: slots only ever assigned `new C(...)`
/// for a single `C` get that type. Parameter slots `0..params` start
/// poisoned, since the caller's argument is one more unknown value.
fn infer_local_types(stmts: &[LStmt], params: u32) -> HashMap<Slot, ClassId> {
    let mut types: HashMap<Slot, Option<ClassId>> = (0..params).map(|p| (p, None)).collect();
    collect_local_types(stmts, &mut types);
    types
        .into_iter()
        .filter_map(|(k, v)| v.map(|c| (k, c)))
        .collect()
}

fn record_local_type(types: &mut HashMap<Slot, Option<ClassId>>, slot: Slot, value: &LExpr) {
    let class = match value {
        LExpr::NewObj { class, .. } => Some(*class),
        _ => None,
    };
    match types.entry(slot) {
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(class);
        }
        std::collections::hash_map::Entry::Occupied(mut e) => {
            if *e.get() != class {
                e.insert(None);
            }
        }
    }
}

fn collect_local_types(stmts: &[LStmt], types: &mut HashMap<Slot, Option<ClassId>>) {
    for stmt in stmts {
        match stmt {
            LStmt::Var { slot, init } => record_local_type(types, *slot, init),
            LStmt::AssignLocal { slot, value, .. } => record_local_type(types, *slot, value),
            LStmt::If {
                then_blk, else_blk, ..
            } => {
                collect_local_types(then_blk, types);
                if let Some(e) = else_blk {
                    collect_local_types(e, types);
                }
            }
            LStmt::While { body, .. } => collect_local_types(body, types),
            LStmt::For { init, body, .. } => {
                if let Some(i) = init {
                    collect_local_types(std::slice::from_ref(i), types);
                }
                collect_local_types(body, types);
            }
            LStmt::Switch { cases, default, .. } => {
                for (_, body) in cases {
                    collect_local_types(body, types);
                }
                if let Some(d) = default {
                    collect_local_types(d, types);
                }
            }
            LStmt::Try {
                body,
                catches,
                finally,
            } => {
                collect_local_types(body, types);
                for c in catches {
                    collect_local_types(&c.body, types);
                }
                if let Some(f) = finally {
                    collect_local_types(f, types);
                }
            }
            _ => {}
        }
    }
}

struct CallResolver<'a> {
    index: &'a ProgramIndex,
    field_types: &'a HashMap<(ClassId, Symbol), ClassId>,
    locals: &'a HashMap<Slot, ClassId>,
    owner: ClassId,
}

impl<'a> CallResolver<'a> {
    /// The concrete class of a receiver expression, when statically known.
    fn static_class(&self, expr: &LExpr) -> Option<ClassId> {
        match expr {
            LExpr::This => Some(self.owner),
            LExpr::NewObj { class, .. } => Some(*class),
            LExpr::Local { slot, name } => self
                .locals
                .get(slot)
                .copied()
                .or_else(|| self.field_types.get(&(self.owner, *name)).copied()),
            LExpr::ImplicitField { name } => self.field_types.get(&(self.owner, *name)).copied(),
            LExpr::Field { recv, name } => {
                let recv_class = self.static_class(recv)?;
                self.field_types.get(&(recv_class, *name)).copied()
            }
            _ => None,
        }
    }

    fn resolve(&self, recv: Option<&LExpr>, method: Symbol) -> Vec<u32> {
        match recv {
            None | Some(LExpr::This) => self.index.this_call_targets(self.owner, method),
            Some(expr) => match self.static_class(expr) {
                Some(class) => self.index.resolve_dispatch(class, method).into_iter().collect(),
                None => self.index.methods_named(method).to_vec(),
            },
        }
    }
}

/// Strongly connected components of the callee graph, in reverse
/// topological order (callees before callers), with a dense
/// `component_of` lookup. Computed with an iterative Tarjan so deep call
/// chains cannot overflow the stack.
#[derive(Debug)]
pub struct Sccs {
    /// Components in reverse topological order; members sorted ascending.
    pub components: Vec<Vec<u32>>,
    /// `component_of[m]` — index into `components` for method `m`
    /// (`u32::MAX` when no start reaches `m`).
    pub component_of: Vec<u32>,
}

/// Computes SCCs of `callees` (adjacency by method index).
pub fn sccs(callees: &[Vec<u32>]) -> Sccs {
    sccs_from(callees, 0..callees.len() as u32)
}

/// Computes the SCCs of the nodes reachable from `starts`. Every other
/// node is in no component: its `component_of` entry is `u32::MAX`.
pub fn sccs_from(callees: &[Vec<u32>], starts: impl IntoIterator<Item = u32>) -> Sccs {
    let n = callees.len();
    let mut index_of = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut components: Vec<Vec<u32>> = Vec::new();
    let mut component_of = vec![u32::MAX; n];
    let mut next_index = 0u32;

    // Explicit DFS frames: (node, next-child position).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for start in starts {
        if index_of[start as usize] != u32::MAX {
            continue;
        }
        frames.push((start, 0));
        index_of[start as usize] = next_index;
        low[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child < callees[v as usize].len() {
                let w = callees[v as usize][*child];
                *child += 1;
                if index_of[w as usize] == u32::MAX {
                    index_of[w as usize] = next_index;
                    low[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index_of[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent as usize] = low[parent as usize].min(low[v as usize]);
                }
                if low[v as usize] == index_of[v as usize] {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        component_of[w as usize] = components.len() as u32;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    components.push(component);
                }
            }
        }
    }
    Sccs {
        components,
        component_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_lang::project::Project;

    fn project(src: &str) -> Project {
        Project::compile("t", vec![("t.jav", src)]).expect("compile")
    }

    fn method_idx(p: &Project, class: &str, name: &str) -> u32 {
        let cid = p.index.class_by_name(class).expect("class");
        let sym = p.index.interner.lookup(name).expect("name");
        p.index.resolve_dispatch(cid, sym).expect("dispatch")
    }

    #[test]
    fn this_calls_resolve_through_dispatch_including_overrides() {
        let p = project(
            "class Base {\n\
               method helper() { return 1; }\n\
               method run() { return this.helper(); }\n\
             }\n\
             class Derived extends Base {\n\
               method helper() { return 2; }\n\
             }",
        );
        let cg = CallGraph::build(&p);
        let run = method_idx(&p, "Base", "run");
        let base_helper = method_idx(&p, "Base", "helper");
        let derived_helper = method_idx(&p, "Derived", "helper");
        assert_ne!(base_helper, derived_helper);
        // `this.helper()` inside Base.run may dispatch to either override:
        // the runtime receiver can be a Derived instance.
        assert_eq!(cg.callees[run as usize], vec![base_helper, derived_helper]);
    }

    #[test]
    fn typed_receivers_resolve_precisely() {
        let p = project(
            "class Worker { method go() { return 1; } }\n\
             class Other { method go() { return 2; } }\n\
             class Main {\n\
               field w = new Worker();\n\
               method a() { var x = new Other(); return x.go(); }\n\
               method b() { return this.w.go(); }\n\
             }",
        );
        let cg = CallGraph::build(&p);
        let a = method_idx(&p, "Main", "a");
        let b = method_idx(&p, "Main", "b");
        let worker_go = method_idx(&p, "Worker", "go");
        let other_go = method_idx(&p, "Other", "go");
        assert_eq!(cg.callees[a as usize], vec![other_go]);
        assert_eq!(cg.callees[b as usize], vec![worker_go]);
    }

    #[test]
    fn unknown_receiver_falls_back_to_all_named_targets() {
        let p = project(
            "class A { method go() { return 1; } }\n\
             class B { method go() { return 2; } }\n\
             class Main { method run(x) { return x.go(); } }",
        );
        let cg = CallGraph::build(&p);
        let run = method_idx(&p, "Main", "run");
        assert_eq!(cg.callees[run as usize].len(), 2);
    }

    #[test]
    fn reassigned_parameters_stay_untyped() {
        // `x` is whatever the caller passed until the reassignment, so
        // the call may reach `B.go` (as `run(new B())` does) even though
        // the only `new` assigned to `x` is an `A`.
        let p = project(
            "class A { method go() { return 1; } }\n\
             class B { method go() { return 2; } }\n\
             class Main {\n\
               method run(x) { var r = x.go(); x = new A(); return r; }\n\
               test t() { assert(this.run(new B()) == 2); }\n\
             }",
        );
        let cg = CallGraph::build(&p);
        let run = method_idx(&p, "Main", "run");
        let a_go = method_idx(&p, "A", "go");
        let b_go = method_idx(&p, "B", "go");
        assert_eq!(cg.callees[run as usize], vec![a_go, b_go]);
    }

    #[test]
    fn sccs_group_mutual_recursion_in_reverse_topo_order() {
        let p = project(
            "class C {\n\
               method a() { return this.b(); }\n\
               method b() { return this.a(); }\n\
               method leaf() { return 1; }\n\
               method top() { return this.a() + this.leaf(); }\n\
             }",
        );
        let cg = CallGraph::build(&p);
        let s = sccs(&cg.callees);
        let a = method_idx(&p, "C", "a");
        let b = method_idx(&p, "C", "b");
        let top = method_idx(&p, "C", "top");
        assert_eq!(
            s.component_of[a as usize], s.component_of[b as usize],
            "mutual recursion shares a component"
        );
        // Reverse topological: the a/b component precedes top's.
        assert!(s.component_of[a as usize] < s.component_of[top as usize]);
    }

    #[test]
    fn build_is_deterministic() {
        let src = "class A { method go() { return this.go(); } }\n\
                   class B extends A { method go() { return 2; } method other() { return new A().go(); } }";
        let p1 = project(src);
        let p2 = project(src);
        let render = |p: &Project| format!("{:?}", CallGraph::build(p).callees);
        assert_eq!(render(&p1), render(&p2));
    }
}
