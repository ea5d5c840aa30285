//! The compile-once program index: lowered bodies, resolution tables, and
//! layouts the interpreter executes against.
//!
//! A [`ProgramIndex`] is built exactly once, at the end of
//! [`Project::compile`](crate::project::Project::compile), and shared
//! immutably (`Arc`) across every campaign worker. It precomputes all the
//! work the tree-walking interpreter used to redo on every run:
//!
//! - **Interned names** ([`Symbol`]) for classes, methods, fields, locals,
//!   exception types, and config keys — the hot path compares `u32`s.
//! - **Method-resolution tables**: each class carries a flattened dispatch
//!   table with the superclass walk done at compile time, and two [`Csr`]
//!   tables answer the static call-target questions: every method of a
//!   name ([`ProgramIndex::methods_named`]) and every class a `this` may
//!   be ([`ProgramIndex::this_call_targets`]).
//! - **Field layouts** ([`FieldLayout`]): object fields live in a `Vec`
//!   indexed by slot instead of a `HashMap<String, Value>`.
//! - **Local slots**: every method body is lowered to [`LStmt`]/[`LExpr`]
//!   with locals resolved to dense slots, so the environment is a
//!   `Vec<Option<Value>>`.
//! - **Exception-ancestry tables**: `is_exception_subtype` becomes a
//!   boolean matrix lookup instead of a parent-chain string walk.
//! - **Config-key ids**: declared keys get dense ids for a `Vec`-backed
//!   runtime store.
//!
//! Lowering is purely structural — statement-for-statement, with call
//! sites ([`CallSite`]) baked in — so the interpreter's observable output
//! (fault messages, traces, fuel accounting) is byte-identical to the
//! pre-index tree walker.

use crate::ast::{Block, Expr, Item, LValue, Literal, MethodDecl, Stmt, UnOp};
use crate::intern::{Interner, Symbol};
use crate::project::{CallSite, FileId, SourceFile, SymbolTable};
use std::collections::HashMap;
use std::sync::Arc;

pub use crate::ast::BinOp;

/// Dense id of a declared class, in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Dense id of a declared exception type (builtins included).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExcId(pub u32);

/// A local-variable slot within one method's environment.
pub type Slot = u32;

/// Per-class field layout: field name → dense slot, plus the class names
/// the runtime needs for rendering and fault messages. Shared by every
/// instance of the class via `Arc`.
#[derive(Debug, PartialEq)]
pub struct FieldLayout {
    /// The class this layout belongs to.
    pub class_id: ClassId,
    /// Interned class name.
    pub class_sym: Symbol,
    /// Class name as text (for `render` and fault messages).
    pub class_name: String,
    /// `(field name, slot)`, sorted by symbol for binary search.
    slots: Vec<(Symbol, u32)>,
    len: usize,
}

impl FieldLayout {
    /// Slot of `name`, if the class (or an ancestor) declares that field.
    pub fn slot(&self, name: Symbol) -> Option<usize> {
        self.slots
            .binary_search_by_key(&name, |&(sym, _)| sym)
            .ok()
            .map(|i| self.slots[i].1 as usize)
    }

    /// `(field name, slot)` pairs, sorted by interned name.
    pub fn slots(&self) -> impl Iterator<Item = (Symbol, u32)> + '_ {
        self.slots.iter().copied()
    }

    /// Number of field slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the class has no fields.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A lowered field initializer: evaluated in superclass-chain order during
/// instantiation, writing into `slot`.
#[derive(Debug, PartialEq)]
pub struct FieldInit {
    /// Destination field slot.
    pub slot: u32,
    /// Initializer expression (call sites carry the declaring class's file).
    pub expr: LExpr,
}

/// One compiled (lowered) method body.
#[derive(Debug, PartialEq)]
pub struct CompiledMethod {
    /// Interned method name.
    pub name: Symbol,
    /// Parameter count; parameters occupy slots `0..params`.
    pub params: u32,
    /// Total local slots (parameters included).
    pub n_slots: u32,
    /// Lowered body.
    pub body: Vec<LStmt>,
    /// Whether this is a `test` method.
    pub is_test: bool,
    /// Declaring class (the class whose `methods` list this body came
    /// from; subclasses inherit it through their dispatch tables).
    pub owner: ClassId,
    /// File the declaring class lives in.
    pub file: FileId,
    /// Declared `throws` clause, lowered to dense ids, sorted and deduped.
    pub throws: Vec<ExcId>,
}

/// A compiled class: layout, initializers, and the flattened dispatch
/// table (inheritance walk done once, at build time).
#[derive(Debug, PartialEq)]
pub struct ClassDef {
    /// Interned class name.
    pub name: Symbol,
    /// Class name as text.
    pub name_str: String,
    /// File the class is declared in.
    pub file: FileId,
    /// Superclass, if any.
    pub parent: Option<ClassId>,
    /// Field layout shared by all instances.
    pub layout: Arc<FieldLayout>,
    /// Field initializers across the chain, base-class fields first.
    pub inits: Vec<FieldInit>,
    /// Whether an `init` constructor resolves on this class.
    pub has_init: bool,
    /// `(method name, index into ProgramIndex::methods)`, sorted by
    /// symbol; includes inherited methods.
    dispatch: Vec<(Symbol, u32)>,
}

/// A declared exception type.
#[derive(Debug, PartialEq)]
pub struct ExcDef {
    /// Interned type name.
    pub name: Symbol,
    /// Type name as text.
    pub name_str: String,
    /// Parent type (`None` only for the root `Throwable`).
    pub parent: Option<ExcId>,
}

/// A declared configuration key with its dense id (= index in
/// [`ProgramIndex::configs`]) and default literal.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigDef {
    /// The key text.
    pub key: String,
    /// Interned key.
    pub sym: Symbol,
    /// Declared default.
    pub default: Literal,
}

/// Symbols and exception ids the interpreter needs unconditionally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WellKnown {
    /// `"<entry>"` — the synthetic entry frame.
    pub entry: Symbol,
    /// `"init"` — the constructor name.
    pub init: Symbol,
    /// `NullPointerException`.
    pub npe: ExcId,
    /// `ArithmeticException`.
    pub arithmetic: ExcId,
    /// `AssertionError`.
    pub assertion: ExcId,
}

impl Default for WellKnown {
    fn default() -> Self {
        WellKnown {
            entry: Symbol(0),
            init: Symbol(0),
            npe: ExcId(0),
            arithmetic: ExcId(0),
            assertion: ExcId(0),
        }
    }
}

/// The compile-once execution layer. Immutable after build; `Send + Sync`
/// so one `Arc<ProgramIndex>` serves every worker thread.
#[derive(Debug, Default, PartialEq)]
pub struct ProgramIndex {
    /// The frozen global interner.
    pub interner: Interner,
    /// Classes in declaration order (`ClassId` indexes this).
    pub classes: Vec<ClassDef>,
    /// All compiled method bodies (dispatch tables index this).
    pub methods: Vec<CompiledMethod>,
    /// Exception types, sorted by name (`ExcId` indexes this).
    pub exceptions: Vec<ExcDef>,
    /// Declared config keys, sorted by key (dense config ids index this).
    pub configs: Vec<ConfigDef>,
    class_by_sym: Vec<(Symbol, ClassId)>,
    exc_by_sym: Vec<(Symbol, ExcId)>,
    config_by_sym: Vec<(Symbol, u32)>,
    /// `exc_matrix[sub * n + sup]` ⇔ `sub` is a subtype of `sup`.
    exc_matrix: Vec<bool>,
    /// Row `c`: class `c` and every subclass of it, ascending.
    subclasses: Csr,
    /// Row `s`: every compiled method named `Symbol(s)`, ascending.
    methods_by_name: Csr,
    /// Well-known symbols and exception ids.
    pub wk: WellKnown,
}

impl ProgramIndex {
    /// The class named by `sym`, if declared.
    pub fn class_by_sym(&self, sym: Symbol) -> Option<ClassId> {
        lookup_sorted(&self.class_by_sym, sym)
    }

    /// The class named `name`, if declared.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.interner.lookup(name).and_then(|s| self.class_by_sym(s))
    }

    /// The exception type named by `sym`, if declared.
    pub fn exc_by_sym(&self, sym: Symbol) -> Option<ExcId> {
        lookup_sorted(&self.exc_by_sym, sym)
    }

    /// The exception type named `name`, if declared.
    pub fn exc_by_name(&self, name: &str) -> Option<ExcId> {
        self.interner.lookup(name).and_then(|s| self.exc_by_sym(s))
    }

    /// The dense id of config key `name`, if declared.
    pub fn config_by_name(&self, name: &str) -> Option<u32> {
        self.interner
            .lookup(name)
            .and_then(|s| lookup_sorted(&self.config_by_sym, s))
    }

    /// Whether exception `sub` is `sup` or a descendant — a table lookup.
    pub fn is_exc_subtype(&self, sub: ExcId, sup: ExcId) -> bool {
        self.exc_matrix[sub.0 as usize * self.exceptions.len() + sup.0 as usize]
    }

    /// Whether class `sub` is `sup` or a descendant — a binary search of
    /// `sup`'s subclass row.
    pub fn is_class_subtype(&self, sub: ClassId, sup: ClassId) -> bool {
        self.subclasses.row(sup.0 as usize).binary_search(&sub.0).is_ok()
    }

    /// Resolves `method` on `class` via the flattened dispatch table.
    pub fn resolve_dispatch(&self, class: ClassId, method: Symbol) -> Option<u32> {
        lookup_sorted(&self.classes[class.0 as usize].dispatch, method)
    }

    /// Every compiled method named `name`, ascending. Each method is its
    /// owner's dispatch entry for its name (validation forbids duplicate
    /// methods in a class), so this row is also the union of all classes'
    /// dispatch targets for `name`: the targets of a call whose receiver
    /// type is unknown.
    pub fn methods_named(&self, name: Symbol) -> &[u32] {
        self.methods_by_name.row(name.index())
    }

    /// The dispatch targets of `method` on `class` and on every subclass
    /// of it, sorted and deduped: the targets of a `this` call in a method
    /// of `class`, since at run time `this` may be any subtype.
    pub fn this_call_targets(&self, class: ClassId, method: Symbol) -> Vec<u32> {
        let mut targets: Vec<u32> = self
            .subclasses
            .row(class.0 as usize)
            .iter()
            .filter_map(|&sub| self.resolve_dispatch(ClassId(sub), method))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        targets
    }

    /// Renders a method index as `DeclaringClass.method`.
    pub fn method_display(&self, midx: u32) -> String {
        let m = &self.methods[midx as usize];
        format!(
            "{}.{}",
            self.classes[m.owner.0 as usize].name_str,
            self.interner.resolve(m.name)
        )
    }

    /// Builds the index for a validated project. Must only be called after
    /// validation succeeded: lowering relies on its invariants (catch and
    /// instanceof types declared, no duplicate methods, known parents).
    pub fn build(files: &[Arc<SourceFile>], symbols: &SymbolTable) -> ProgramIndex {
        Builder::run(files, symbols)
    }
}

/// A compressed-sparse-row table: row `r` is the slice
/// `values[offsets[r]..offsets[r + 1]]`.
#[derive(Debug, Default, PartialEq)]
pub struct Csr {
    offsets: Vec<u32>,
    values: Vec<u32>,
}

impl Csr {
    /// Groups `(row, value)` pairs into `rows` rows by a stable counting
    /// sort: within a row, values keep the order of `pairs`.
    pub fn from_pairs(rows: usize, pairs: &[(u32, u32)]) -> Csr {
        let mut offsets = vec![0u32; rows + 1];
        for &(row, _) in pairs {
            offsets[row as usize + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        let mut cursor = offsets.clone();
        let mut values = vec![0u32; pairs.len()];
        for &(row, value) in pairs {
            let slot = &mut cursor[row as usize];
            values[*slot as usize] = value;
            *slot += 1;
        }
        Csr { offsets, values }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Row `r`; empty past the last row.
    pub fn row(&self, r: usize) -> &[u32] {
        match (self.offsets.get(r), self.offsets.get(r + 1)) {
            (Some(&lo), Some(&hi)) => &self.values[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

fn lookup_sorted<T: Copy>(table: &[(Symbol, T)], sym: Symbol) -> Option<T> {
    table
        .binary_search_by_key(&sym, |&(s, _)| s)
        .ok()
        .map(|i| table[i].1)
}

// ---- Lowered IR ------------------------------------------------------------

/// A lowered statement. Mirrors [`Stmt`] one-for-one so the interpreter's
/// control flow (and fuel accounting) is unchanged.
#[derive(Debug, PartialEq)]
pub enum LStmt {
    /// `var name = init;` — always writes the local slot.
    Var {
        /// Destination slot.
        slot: Slot,
        /// Initializer.
        init: LExpr,
    },
    /// `name = value;` — dynamic local-or-field resolution (a slot that is
    /// set wins; else an existing `this` field; else first write creates
    /// the local).
    AssignLocal {
        /// The name's local slot.
        slot: Slot,
        /// The name, for the `this`-field fallback and messages.
        name: Symbol,
        /// Right-hand side.
        value: LExpr,
    },
    /// `recv.name = value;`
    AssignField {
        /// Receiver expression.
        recv: LExpr,
        /// Field name.
        name: Symbol,
        /// Right-hand side.
        value: LExpr,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        /// Condition (must evaluate to a bool).
        cond: LExpr,
        /// Then branch.
        then_blk: Vec<LStmt>,
        /// Else branch, if present.
        else_blk: Option<Vec<LStmt>>,
    },
    /// `while (cond) { .. }`
    While {
        /// Loop condition.
        cond: LExpr,
        /// Loop body.
        body: Vec<LStmt>,
    },
    /// `for (init; cond; update) { .. }`
    For {
        /// Init statement, if present.
        init: Option<Box<LStmt>>,
        /// Condition, if present.
        cond: Option<LExpr>,
        /// Update statement, if present.
        update: Option<Box<LStmt>>,
        /// Loop body.
        body: Vec<LStmt>,
    },
    /// `switch (scrutinee) { case lit: { .. } default: { .. } }`
    Switch {
        /// Scrutinee expression.
        scrutinee: LExpr,
        /// `(literal, body)` arms, in source order; no fallthrough.
        cases: Vec<(Literal, Vec<LStmt>)>,
        /// Default arm, if present.
        default: Option<Vec<LStmt>>,
    },
    /// `try { .. } catch (E e) { .. } finally { .. }`
    Try {
        /// Protected body.
        body: Vec<LStmt>,
        /// Catch clauses in source order.
        catches: Vec<LCatch>,
        /// Finally block, if present.
        finally: Option<Vec<LStmt>>,
    },
    /// `throw expr;`
    Throw {
        /// The thrown expression (must evaluate to an exception).
        expr: LExpr,
    },
    /// `return;` / `return expr;`
    Return {
        /// Returned expression, if present.
        expr: Option<LExpr>,
    },
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `sleep(ms);`
    Sleep {
        /// Milliseconds (must evaluate to a non-negative int).
        ms: LExpr,
    },
    /// `log(expr);`
    Log {
        /// Logged expression.
        expr: LExpr,
    },
    /// `assert(cond);` / `assert(cond, msg);`
    Assert {
        /// Asserted condition.
        cond: LExpr,
        /// Failure message, if present.
        msg: Option<LExpr>,
    },
    /// An expression statement.
    Expr {
        /// The expression.
        expr: LExpr,
    },
}

/// A lowered catch clause. The exception type is always declared (the
/// validator guarantees it), so matching is a pure table lookup.
#[derive(Debug, PartialEq)]
pub struct LCatch {
    /// Caught exception type.
    pub exc: ExcId,
    /// Slot the binding is written to.
    pub binding: Slot,
    /// Handler body.
    pub body: Vec<LStmt>,
}

/// A lowered expression.
#[derive(Debug, PartialEq)]
pub enum LExpr {
    /// A literal.
    Literal(Literal),
    /// A name with a local slot: reads the slot if set, else falls back to
    /// a `this` field, else faults (`unknown variable`).
    Local {
        /// The name's slot.
        slot: Slot,
        /// The name, for the field fallback and messages.
        name: Symbol,
    },
    /// A name with no local slot in this method: a `this` field or a
    /// fault.
    ImplicitField {
        /// The name.
        name: Symbol,
    },
    /// `this`
    This,
    /// `recv.name`
    Field {
        /// Receiver expression.
        recv: Box<LExpr>,
        /// Field name.
        name: Symbol,
    },
    /// A receiver-less call to a reserved global builtin
    /// (`queue`/`getConfig`/...). Classified at compile time.
    GlobalCall {
        /// Builtin name.
        name: Symbol,
        /// Arguments.
        args: Vec<LExpr>,
    },
    /// A (possibly implicit-`this`) method call: the interception point.
    Call {
        /// The static call site (file baked in at lowering).
        site: CallSite,
        /// Receiver, or `None` for implicit `this`.
        recv: Option<Box<LExpr>>,
        /// Method name.
        method: Symbol,
        /// Arguments.
        args: Vec<LExpr>,
    },
    /// `new E(..)` where `E` is a declared exception type.
    NewExc {
        /// The exception type.
        exc: ExcId,
        /// Constructor arguments.
        args: Vec<LExpr>,
    },
    /// `new C(..)` where `C` is a declared class.
    NewObj {
        /// The class.
        class: ClassId,
        /// Constructor arguments.
        args: Vec<LExpr>,
    },
    /// `new X(..)` where `X` is neither: arguments still evaluate, then
    /// the run faults (`cannot instantiate unknown class`).
    NewUnknown {
        /// The undeclared name.
        class: String,
        /// Arguments (evaluated before the fault, as the tree walker did).
        args: Vec<LExpr>,
    },
    /// A binary operation (`&&`/`||` short-circuit at eval).
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<LExpr>,
        /// Right operand.
        rhs: Box<LExpr>,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<LExpr>,
    },
    /// `expr instanceof Ty` — `Ty` resolved at compile time against both
    /// namespaces (a name may be a class *and* an exception type).
    InstanceOf {
        /// Tested expression.
        expr: Box<LExpr>,
        /// The type name (for the undeclared-exception string fallback).
        ty: Symbol,
        /// `Ty` as an exception type, if declared as one.
        exc: Option<ExcId>,
        /// `Ty` as a class, if declared as one.
        class: Option<ClassId>,
    },
}

/// Visits every expression in a lowered body, in source order, each
/// node after the expressions it contains (a call after its receiver and
/// arguments). Statements are not visited; nested blocks are.
pub fn visit_exprs<'a>(body: &'a [LStmt], visit: &mut dyn FnMut(&'a LExpr)) {
    for stmt in body {
        match stmt {
            LStmt::Var { init: expr, .. }
            | LStmt::AssignLocal { value: expr, .. }
            | LStmt::Throw { expr }
            | LStmt::Log { expr }
            | LStmt::Expr { expr }
            | LStmt::Sleep { ms: expr }
            | LStmt::Return { expr: Some(expr) } => visit_expr(expr, visit),
            LStmt::AssignField { recv, value, .. } => {
                visit_expr(recv, visit);
                visit_expr(value, visit);
            }
            LStmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                visit_expr(cond, visit);
                visit_exprs(then_blk, visit);
                if let Some(e) = else_blk {
                    visit_exprs(e, visit);
                }
            }
            LStmt::While { cond, body } => {
                visit_expr(cond, visit);
                visit_exprs(body, visit);
            }
            LStmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(i) = init {
                    visit_exprs(std::slice::from_ref(i), visit);
                }
                if let Some(c) = cond {
                    visit_expr(c, visit);
                }
                if let Some(u) = update {
                    visit_exprs(std::slice::from_ref(u), visit);
                }
                visit_exprs(body, visit);
            }
            LStmt::Switch {
                scrutinee,
                cases,
                default,
            } => {
                visit_expr(scrutinee, visit);
                for (_, body) in cases {
                    visit_exprs(body, visit);
                }
                if let Some(d) = default {
                    visit_exprs(d, visit);
                }
            }
            LStmt::Try {
                body,
                catches,
                finally,
            } => {
                visit_exprs(body, visit);
                for c in catches {
                    visit_exprs(&c.body, visit);
                }
                if let Some(f) = finally {
                    visit_exprs(f, visit);
                }
            }
            LStmt::Assert { cond, msg } => {
                visit_expr(cond, visit);
                if let Some(m) = msg {
                    visit_expr(m, visit);
                }
            }
            LStmt::Return { expr: None } | LStmt::Break | LStmt::Continue => {}
        }
    }
}

/// [`visit_exprs`] for one expression tree (a field initialiser, say):
/// children first, then `expr` itself.
pub fn visit_expr<'a>(expr: &'a LExpr, visit: &mut dyn FnMut(&'a LExpr)) {
    match expr {
        LExpr::Call { recv, args, .. } => {
            if let Some(r) = recv {
                visit_expr(r, visit);
            }
            for a in args {
                visit_expr(a, visit);
            }
        }
        LExpr::GlobalCall { args, .. }
        | LExpr::NewExc { args, .. }
        | LExpr::NewObj { args, .. }
        | LExpr::NewUnknown { args, .. } => {
            for a in args {
                visit_expr(a, visit);
            }
        }
        LExpr::Binary { lhs, rhs, .. } => {
            visit_expr(lhs, visit);
            visit_expr(rhs, visit);
        }
        LExpr::Field { recv: inner, .. }
        | LExpr::Unary { expr: inner, .. }
        | LExpr::InstanceOf { expr: inner, .. } => visit_expr(inner, visit),
        LExpr::Literal(_) | LExpr::Local { .. } | LExpr::ImplicitField { .. } | LExpr::This => {}
    }
    visit(expr);
}

/// Names reserved for global builtins. A receiver-less call to one of
/// these is always the builtin, never a method on `this`.
pub fn is_global_builtin(name: &str) -> bool {
    matches!(
        name,
        "queue" | "list" | "map" | "now" | "getConfig" | "setConfig" | "str" | "min" | "max"
            | "abs" | "pow"
    )
}

// ---- Builder ---------------------------------------------------------------

struct Builder<'a> {
    symbols: &'a SymbolTable,
    interner: Interner,
    exc_ids: HashMap<String, ExcId>,
    class_ids: HashMap<String, ClassId>,
}

impl<'a> Builder<'a> {
    fn run(files: &[Arc<SourceFile>], symbols: &'a SymbolTable) -> ProgramIndex {
        let mut b = Builder {
            symbols,
            interner: Interner::new(),
            exc_ids: HashMap::new(),
            class_ids: HashMap::new(),
        };
        let entry = b.interner.intern("<entry>");
        let init = b.interner.intern("init");

        // Exceptions, sorted by name for deterministic dense ids.
        let mut exc_names: Vec<&String> = symbols.exception_names().collect();
        exc_names.sort_unstable();
        for (i, name) in exc_names.iter().enumerate() {
            b.exc_ids.insert((*name).clone(), ExcId(i as u32));
        }
        let exceptions: Vec<ExcDef> = exc_names
            .iter()
            .map(|name| ExcDef {
                name: b.interner.intern(name),
                name_str: (*name).clone(),
                parent: b
                    .symbols
                    .exception(name)
                    .and_then(|info| info.parent.as_deref())
                    .map(|p| b.exc_ids[p]),
            })
            .collect();
        let exc_matrix = ancestry_matrix(exceptions.len(), |i| {
            exceptions[i].parent.map(|p| p.0 as usize)
        });

        // Classes in declaration order, with their decls kept at hand.
        let mut decls = Vec::new();
        for (fidx, file) in files.iter().enumerate() {
            for item in &file.items {
                if let Item::Class(class) = item {
                    let id = ClassId(decls.len() as u32);
                    b.class_ids.insert(class.name.clone(), id);
                    decls.push((FileId(fidx as u32), class));
                }
            }
        }
        let parents: Vec<Option<ClassId>> = decls
            .iter()
            .map(|(_, class)| class.parent.as_ref().map(|p| b.class_ids[p]))
            .collect();

        // Layouts, field initializers, and method bodies.
        let mut classes: Vec<ClassDef> = Vec::with_capacity(decls.len());
        // `(ancestor, class)` pairs, a class counting as its own ancestor.
        let mut ancestry: Vec<(u32, u32)> = Vec::new();
        let mut methods: Vec<CompiledMethod> = Vec::new();
        let mut own_methods: Vec<Vec<(Symbol, u32)>> = Vec::with_capacity(decls.len());
        for (idx, (file, class)) in decls.iter().enumerate() {
            // Superclass chain, base first.
            let mut chain = vec![idx];
            let mut cursor = parents[idx];
            while let Some(p) = cursor {
                chain.push(p.0 as usize);
                cursor = parents[p.0 as usize];
            }
            chain.reverse();
            ancestry.extend(chain.iter().map(|&ci| (ci as u32, idx as u32)));

            // Field slots: first declaration along the chain wins the slot;
            // a shadowing redeclaration reuses it (matching the HashMap
            // the tree walker kept per object).
            let mut slots: Vec<(Symbol, u32)> = Vec::new();
            let mut by_name: HashMap<Symbol, u32> = HashMap::new();
            for &ci in &chain {
                for field in &decls[ci].1.fields {
                    let sym = b.interner.intern(&field.name);
                    if let std::collections::hash_map::Entry::Vacant(e) = by_name.entry(sym) {
                        e.insert(slots.len() as u32);
                        slots.push((sym, slots.len() as u32));
                    }
                }
            }
            let len = slots.len();
            slots.sort_unstable_by_key(|&(sym, _)| sym);
            let class_sym = b.interner.intern(&class.name);
            let layout = Arc::new(FieldLayout {
                class_id: ClassId(idx as u32),
                class_sym,
                class_name: class.name.clone(),
                slots,
                len,
            });

            // Initializers in chain order; call sites inside carry the
            // declaring class's file. Initializer expressions cannot touch
            // locals, so they lower with an empty scope.
            let mut inits = Vec::new();
            for &ci in &chain {
                let (decl_file, decl) = decls[ci];
                for field in &decl.fields {
                    if let Some(expr) = &field.init {
                        let sym = b.interner.intern(&field.name);
                        let slot = by_name[&sym];
                        let mut lower = Lowerer::new(&mut b, decl_file);
                        let expr = lower.expr(expr);
                        inits.push(FieldInit { slot, expr });
                    }
                }
            }

            // This class's own methods.
            let mut own: Vec<(Symbol, u32)> = Vec::new();
            for method in &class.methods {
                let midx = methods.len() as u32;
                let compiled = compile_method(&mut b, *file, ClassId(idx as u32), method);
                own.push((compiled.name, midx));
                methods.push(compiled);
            }
            own_methods.push(own);

            classes.push(ClassDef {
                name: class_sym,
                name_str: class.name.clone(),
                file: *file,
                parent: parents[idx],
                layout,
                inits,
                has_init: false, // filled in after dispatch flattening
                dispatch: Vec::new(),
            });
        }

        // Flatten dispatch: walk derived → base, first definition wins.
        for idx in 0..classes.len() {
            let mut dispatch: Vec<(Symbol, u32)> = Vec::new();
            let mut seen: HashMap<Symbol, ()> = HashMap::new();
            let mut cursor = Some(idx);
            while let Some(ci) = cursor {
                for &(name, midx) in &own_methods[ci] {
                    if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(name) {
                        e.insert(());
                        dispatch.push((name, midx));
                    }
                }
                cursor = classes[ci].parent.map(|p| p.0 as usize);
            }
            dispatch.sort_unstable_by_key(|&(sym, _)| sym);
            classes[idx].has_init = lookup_sorted(&dispatch, init).is_some();
            classes[idx].dispatch = dispatch;
        }

        // Configs, sorted by key for deterministic dense ids.
        let mut config_keys: Vec<(&String, &Literal)> = symbols.configs().collect();
        config_keys.sort_unstable_by_key(|&(k, _)| k);
        let configs: Vec<ConfigDef> = config_keys
            .into_iter()
            .map(|(key, default)| ConfigDef {
                key: key.clone(),
                sym: b.interner.intern(key),
                default: default.clone(),
            })
            .collect();

        let wk = WellKnown {
            entry,
            init,
            npe: b.exc_ids["NullPointerException"],
            arithmetic: b.exc_ids["ArithmeticException"],
            assertion: b.exc_ids["AssertionError"],
        };

        let mut class_by_sym: Vec<(Symbol, ClassId)> = classes
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name, ClassId(i as u32)))
            .collect();
        class_by_sym.sort_unstable_by_key(|&(sym, _)| sym);
        let mut exc_by_sym: Vec<(Symbol, ExcId)> = exceptions
            .iter()
            .enumerate()
            .map(|(i, e)| (e.name, ExcId(i as u32)))
            .collect();
        exc_by_sym.sort_unstable_by_key(|&(sym, _)| sym);
        let mut config_by_sym: Vec<(Symbol, u32)> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| (c.sym, i as u32))
            .collect();
        config_by_sym.sort_unstable_by_key(|&(sym, _)| sym);
        let names: Vec<(u32, u32)> = methods
            .iter()
            .enumerate()
            .map(|(m, method)| (method.name.0, m as u32))
            .collect();
        let methods_by_name = Csr::from_pairs(b.interner.len(), &names);
        let subclasses = Csr::from_pairs(classes.len(), &ancestry);

        ProgramIndex {
            interner: b.interner,
            classes,
            methods,
            exceptions,
            configs,
            class_by_sym,
            exc_by_sym,
            config_by_sym,
            exc_matrix,
            subclasses,
            methods_by_name,
            wk,
        }
    }
}

/// Builds the `n × n` transitive-ancestry matrix for a parent function.
fn ancestry_matrix(n: usize, parent: impl Fn(usize) -> Option<usize>) -> Vec<bool> {
    let mut matrix = vec![false; n * n];
    for sub in 0..n {
        let mut cursor = Some(sub);
        while let Some(cur) = cursor {
            matrix[sub * n + cur] = true;
            cursor = parent(cur);
        }
    }
    matrix
}

fn compile_method(
    b: &mut Builder<'_>,
    file: FileId,
    owner: ClassId,
    method: &MethodDecl,
) -> CompiledMethod {
    let mut throws: Vec<ExcId> = method
        .throws
        .iter()
        .filter_map(|t| b.exc_ids.get(t).copied())
        .collect();
    throws.sort_unstable();
    throws.dedup();
    let mut lower = Lowerer::new(b, file);
    for param in &method.params {
        lower.slot_for(param);
    }
    // Pass 1: collect every name that can become a local anywhere in the
    // body (var declarations, bare-assignment targets, catch bindings).
    // Reads resolve against the full set so a read that dynamically
    // precedes the write still falls through to the `this`-field lookup at
    // run time, exactly like the HashMap environment did.
    lower.collect_locals(&method.body);
    let body = lower.block(&method.body);
    let name = lower.b.interner.intern(&method.name);
    CompiledMethod {
        name,
        params: method.params.len() as u32,
        n_slots: lower.n_slots,
        body,
        is_test: method.is_test,
        owner,
        file,
        throws,
    }
}

struct Lowerer<'b, 'a> {
    b: &'b mut Builder<'a>,
    file: FileId,
    scope: HashMap<String, Slot>,
    n_slots: u32,
}

impl<'b, 'a> Lowerer<'b, 'a> {
    fn new(b: &'b mut Builder<'a>, file: FileId) -> Self {
        Lowerer {
            b,
            file,
            scope: HashMap::new(),
            n_slots: 0,
        }
    }

    fn slot_for(&mut self, name: &str) -> Slot {
        if let Some(&slot) = self.scope.get(name) {
            return slot;
        }
        let slot = self.n_slots;
        self.n_slots += 1;
        self.scope.insert(name.to_string(), slot);
        slot
    }

    fn collect_locals(&mut self, block: &Block) {
        for stmt in &block.stmts {
            self.collect_stmt(stmt);
        }
    }

    fn collect_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Var { name, .. } => {
                self.slot_for(name);
            }
            Stmt::Assign {
                target: LValue::Var(name, _),
                ..
            } => {
                self.slot_for(name);
            }
            Stmt::Assign { .. } => {}
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                self.collect_locals(then_blk);
                if let Some(else_blk) = else_blk {
                    self.collect_locals(else_blk);
                }
            }
            Stmt::While { body, .. } => self.collect_locals(body),
            Stmt::For {
                init, update, body, ..
            } => {
                if let Some(init) = init {
                    self.collect_stmt(init);
                }
                if let Some(update) = update {
                    self.collect_stmt(update);
                }
                self.collect_locals(body);
            }
            Stmt::Switch { cases, default, .. } => {
                for (_, body) in cases {
                    self.collect_locals(body);
                }
                if let Some(default) = default {
                    self.collect_locals(default);
                }
            }
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } => {
                self.collect_locals(body);
                for catch in catches {
                    self.slot_for(&catch.binding);
                    self.collect_locals(&catch.body);
                }
                if let Some(finally) = finally {
                    self.collect_locals(finally);
                }
            }
            _ => {}
        }
    }

    fn block(&mut self, block: &Block) -> Vec<LStmt> {
        block.stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &Stmt) -> LStmt {
        match stmt {
            Stmt::Var { name, init, .. } => LStmt::Var {
                slot: self.scope[name],
                init: self.expr(init),
            },
            Stmt::Assign { target, value, .. } => {
                let value = self.expr(value);
                match target {
                    LValue::Var(name, _) => LStmt::AssignLocal {
                        slot: self.scope[name],
                        name: self.b.interner.intern(name),
                        value,
                    },
                    LValue::Field { recv, name, .. } => LStmt::AssignField {
                        recv: self.expr(recv),
                        name: self.b.interner.intern(name),
                        value,
                    },
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => LStmt::If {
                cond: self.expr(cond),
                then_blk: self.block(then_blk),
                else_blk: else_blk.as_ref().map(|blk| self.block(blk)),
            },
            Stmt::While { cond, body, .. } => LStmt::While {
                cond: self.expr(cond),
                body: self.block(body),
            },
            Stmt::For {
                init,
                cond,
                update,
                body,
                ..
            } => LStmt::For {
                init: init.as_ref().map(|s| Box::new(self.stmt(s))),
                cond: cond.as_ref().map(|e| self.expr(e)),
                update: update.as_ref().map(|s| Box::new(self.stmt(s))),
                body: self.block(body),
            },
            Stmt::Switch {
                scrutinee,
                cases,
                default,
                ..
            } => LStmt::Switch {
                scrutinee: self.expr(scrutinee),
                cases: cases
                    .iter()
                    .map(|(lit, body)| (lit.clone(), self.block(body)))
                    .collect(),
                default: default.as_ref().map(|blk| self.block(blk)),
            },
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } => LStmt::Try {
                body: self.block(body),
                catches: catches
                    .iter()
                    .map(|catch| LCatch {
                        exc: self.b.exc_ids[&catch.exc_type],
                        binding: self.scope[&catch.binding],
                        body: self.block(&catch.body),
                    })
                    .collect(),
                finally: finally.as_ref().map(|blk| self.block(blk)),
            },
            Stmt::Throw { expr, .. } => LStmt::Throw {
                expr: self.expr(expr),
            },
            Stmt::Return { expr, .. } => LStmt::Return {
                expr: expr.as_ref().map(|e| self.expr(e)),
            },
            Stmt::Break { .. } => LStmt::Break,
            Stmt::Continue { .. } => LStmt::Continue,
            Stmt::Sleep { ms, .. } => LStmt::Sleep { ms: self.expr(ms) },
            Stmt::Log { expr, .. } => LStmt::Log {
                expr: self.expr(expr),
            },
            Stmt::Assert { cond, msg, .. } => LStmt::Assert {
                cond: self.expr(cond),
                msg: msg.as_ref().map(|e| self.expr(e)),
            },
            Stmt::Expr { expr, .. } => LStmt::Expr {
                expr: self.expr(expr),
            },
        }
    }

    fn expr(&mut self, expr: &Expr) -> LExpr {
        match expr {
            Expr::Literal(lit, _) => LExpr::Literal(lit.clone()),
            Expr::Ident(name, _) => match self.scope.get(name.as_str()) {
                Some(&slot) => LExpr::Local {
                    slot,
                    name: self.b.interner.intern(name),
                },
                None => LExpr::ImplicitField {
                    name: self.b.interner.intern(name),
                },
            },
            Expr::This(_) => LExpr::This,
            Expr::Field { recv, name, .. } => LExpr::Field {
                recv: Box::new(self.expr(recv)),
                name: self.b.interner.intern(name),
            },
            Expr::Call {
                id,
                recv,
                method,
                args,
                ..
            } => {
                let args: Vec<LExpr> = args.iter().map(|a| self.expr(a)).collect();
                if recv.is_none() && is_global_builtin(method) {
                    LExpr::GlobalCall {
                        name: self.b.interner.intern(method),
                        args,
                    }
                } else {
                    LExpr::Call {
                        site: CallSite {
                            file: self.file,
                            call: *id,
                        },
                        recv: recv.as_ref().map(|r| Box::new(self.expr(r))),
                        method: self.b.interner.intern(method),
                        args,
                    }
                }
            }
            Expr::New { class, args, .. } => {
                let args: Vec<LExpr> = args.iter().map(|a| self.expr(a)).collect();
                // Exception types take precedence over classes, matching the
                // tree walker's `symbols.exception(..)`-first resolution.
                if let Some(&exc) = self.b.exc_ids.get(class.as_str()) {
                    return LExpr::NewExc { exc, args };
                }
                match self.b.class_ids.get(class.as_str()) {
                    Some(&class) => LExpr::NewObj { class, args },
                    None => LExpr::NewUnknown {
                        class: class.clone(),
                        args,
                    },
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => LExpr::Binary {
                op: *op,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
            },
            Expr::Unary { op, expr, .. } => LExpr::Unary {
                op: *op,
                expr: Box::new(self.expr(expr)),
            },
            Expr::InstanceOf { expr, ty, .. } => LExpr::InstanceOf {
                expr: Box::new(self.expr(expr)),
                ty: self.b.interner.intern(ty),
                exc: self.b.exc_ids.get(ty.as_str()).copied(),
                class: self.b.class_ids.get(ty.as_str()).copied(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::Project;

    fn compile(src: &str) -> Project {
        Project::compile("t", vec![("t.jav", src)]).expect("compile")
    }

    #[test]
    fn dispatch_flattens_the_inheritance_walk() {
        let p = compile(
            "class Base { method greet() { return 1; } method shared() { return 2; } }\n\
             class Derived extends Base { method shared() { return 3; } }",
        );
        let index = &p.index;
        let base = index.class_by_name("Base").expect("Base");
        let derived = index.class_by_name("Derived").expect("Derived");
        let greet = index.interner.lookup("greet").expect("greet interned");
        let shared = index.interner.lookup("shared").expect("shared interned");
        // Derived inherits greet from Base and overrides shared.
        let inherited = index.resolve_dispatch(derived, greet).expect("inherited");
        assert_eq!(inherited, index.resolve_dispatch(base, greet).unwrap());
        let overridden = index.resolve_dispatch(derived, shared).expect("own");
        assert_ne!(overridden, index.resolve_dispatch(base, shared).unwrap());
        assert!(index.resolve_dispatch(base, index.interner.lookup("missing").unwrap_or(Symbol(u32::MAX - 1))).is_none());
    }

    #[test]
    fn field_layouts_flatten_the_chain_base_first() {
        let p = compile(
            "class Base { field a = 1; field b = 2; }\n\
             class Derived extends Base { field c = 3; field b = 4; }",
        );
        let index = &p.index;
        let derived = index.class_by_name("Derived").expect("Derived");
        let layout = &index.classes[derived.0 as usize].layout;
        assert_eq!(layout.len(), 3, "shadowed field shares its slot");
        let slot = |name: &str| layout.slot(index.interner.lookup(name).unwrap()).unwrap();
        assert_eq!(slot("a"), 0);
        assert_eq!(slot("b"), 1);
        assert_eq!(slot("c"), 2);
        // Both initializers for `b` write the same slot, chain order.
        let def = &index.classes[derived.0 as usize];
        let b_inits: Vec<u32> = def
            .inits
            .iter()
            .map(|i| i.slot)
            .filter(|&s| s == 1)
            .collect();
        assert_eq!(b_inits.len(), 2);
    }

    #[test]
    fn exception_matrix_matches_symbol_table() {
        let p = compile(
            "exception IOException;\n\
             exception ConnectException extends IOException;\n\
             class A { }",
        );
        let index = &p.index;
        for sub in index.exceptions.iter() {
            for sup in index.exceptions.iter() {
                let sub_id = index.exc_by_name(&sub.name_str).unwrap();
                let sup_id = index.exc_by_name(&sup.name_str).unwrap();
                assert_eq!(
                    index.is_exc_subtype(sub_id, sup_id),
                    p.symbols.is_exception_subtype(&sub.name_str, &sup.name_str),
                    "{} <: {}",
                    sub.name_str,
                    sup.name_str
                );
            }
        }
    }

    #[test]
    fn locals_get_dense_slots_and_unscoped_reads_fall_through() {
        let p = compile(
            "class C {\n\
               field f = 7;\n\
               method m(a, b) { var x = a; x = x + b; return f; }\n\
             }",
        );
        let index = &p.index;
        let c = index.class_by_name("C").unwrap();
        let m = index
            .resolve_dispatch(c, index.interner.lookup("m").unwrap())
            .unwrap();
        let method = &index.methods[m as usize];
        assert_eq!(method.params, 2);
        assert_eq!(method.n_slots, 3, "a, b, x");
        // `return f;` must lower to the implicit-field fallback, not a slot.
        let LStmt::Return { expr: Some(LExpr::ImplicitField { .. }) } = &method.body[2] else {
            panic!("expected implicit-field read, got {:?}", method.body[2]);
        };
    }

    #[test]
    fn config_keys_get_dense_sorted_ids() {
        let p = compile(
            "config \"b.key\" default 2;\nconfig \"a.key\" default 1;\nclass A { }",
        );
        let index = &p.index;
        assert_eq!(index.configs.len(), 2);
        assert_eq!(index.configs[0].key, "a.key");
        assert_eq!(index.config_by_name("a.key"), Some(0));
        assert_eq!(index.config_by_name("b.key"), Some(1));
        assert_eq!(index.config_by_name("missing"), None);
    }
}
