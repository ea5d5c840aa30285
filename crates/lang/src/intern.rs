//! Global string interning for the compile-once program index.
//!
//! Every identifier that can appear on the interpreter's hot path — class
//! names, method names, field names, local variables, exception types,
//! config keys — is interned to a dense [`Symbol`] (`u32`) when a
//! [`Project`](crate::project::Project) is compiled. The interpreter then
//! compares, hashes, and copies symbols instead of `String`s, and resolves
//! them back to text only at report/judge time.
//!
//! The [`Interner`] is frozen after compilation and shared immutably across
//! campaign workers. Names that only exist at run time (e.g. an unknown
//! method name passed to `Interp::invoke`) get ids *past* the frozen range
//! from a small per-run overlay; [`NameTable`] resolves both.

use crate::project::MethodId;
use std::collections::HashMap;
use std::fmt;

/// An interned string. Dense, starting at 0, in compilation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The symbol's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned `Class.method` pair — the `Copy` counterpart of
/// [`MethodId`]. Call stacks, frames, and trace events carry these; they
/// are resolved back to [`MethodId`] only when a report is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MethodSym {
    /// Receiving (or declaring) class name.
    pub class: Symbol,
    /// Method name.
    pub name: Symbol,
}

/// A string interner: bidirectional `String` ↔ [`Symbol`] map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Interner {
    strings: Vec<String>,
    map: HashMap<String, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `s`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&id) = self.map.get(s) {
            return Symbol(id);
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.map.insert(s.to_string(), id);
        Symbol(id)
    }

    /// Looks up `s` without interning it.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied().map(Symbol)
    }

    /// Resolves a symbol back to its string.
    ///
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// Resolves symbols from a frozen [`Interner`] plus a per-run overlay of
/// extra names (ids `base.len()..`). Cheap to copy; borrowed by
/// interceptor contexts so fault handlers can render names on demand.
#[derive(Debug, Clone, Copy)]
pub struct NameTable<'a> {
    base: &'a Interner,
    extra: &'a [String],
}

impl<'a> NameTable<'a> {
    /// Creates a table over a frozen interner and a run-local overlay.
    pub fn new(base: &'a Interner, extra: &'a [String]) -> Self {
        NameTable { base, extra }
    }

    /// Resolves a symbol from the base interner or the overlay.
    ///
    /// Panics if `sym` is past both the frozen range and the overlay. The
    /// report/trace edges (interceptors, fault handlers) must use
    /// [`NameTable::try_resolve`] / [`NameTable::method_display`] instead:
    /// a symbol minted in *another* interpreter's runtime overlay is
    /// legitimately absent here, and a panic at those edges would be
    /// contained by the engine into a bogus `Crashed` record.
    pub fn resolve(&self, sym: Symbol) -> &'a str {
        self.try_resolve(sym)
            .unwrap_or_else(|| panic!("symbol {sym} out of range for this name table"))
    }

    /// Resolves a symbol, returning `None` for ids past both the frozen
    /// interner and this table's overlay (e.g. a name minted at run time
    /// by a different interpreter).
    pub fn try_resolve(&self, sym: Symbol) -> Option<&'a str> {
        let idx = sym.index();
        if idx < self.base.len() {
            Some(self.base.resolve(sym))
        } else {
            self.extra.get(idx - self.base.len()).map(String::as_str)
        }
    }

    /// Renders a symbol, degrading unresolvable ids to a `<s42?>` marker
    /// instead of panicking.
    fn render(&self, sym: Symbol) -> String {
        match self.try_resolve(sym) {
            Some(name) => name.to_string(),
            None => format!("<{sym}?>"),
        }
    }

    /// Resolves a method symbol to an owned [`MethodId`]. Total: ids
    /// outside this table render as `<s42?>` markers.
    pub fn method_id(&self, m: MethodSym) -> MethodId {
        MethodId::new(self.render(m.class), self.render(m.name))
    }

    /// Renders a method symbol as `Class.method` (the [`MethodId`] display
    /// format). Total: ids outside this table render as `<s42?>` markers.
    pub fn method_display(&self, m: MethodSym) -> String {
        format!("{}.{}", self.render(m.class), self.render(m.name))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_resolves() {
        let mut interner = Interner::new();
        let a = interner.intern("alpha");
        let b = interner.intern("beta");
        assert_ne!(a, b);
        assert_eq!(interner.intern("alpha"), a);
        assert_eq!(interner.resolve(a), "alpha");
        assert_eq!(interner.resolve(b), "beta");
        assert_eq!(interner.lookup("beta"), Some(b));
        assert_eq!(interner.lookup("gamma"), None);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn name_table_resolves_overlay_past_base() {
        let mut interner = Interner::new();
        let a = interner.intern("A");
        let extra = vec!["runtimeName".to_string()];
        let table = NameTable::new(&interner, &extra);
        assert_eq!(table.resolve(a), "A");
        assert_eq!(table.resolve(Symbol(1)), "runtimeName");
        let m = MethodSym {
            class: a,
            name: Symbol(1),
        };
        assert_eq!(table.method_display(m), "A.runtimeName");
        assert_eq!(table.method_id(m), MethodId::new("A", "runtimeName"));
    }

    /// Regression: a symbol minted in one interpreter's runtime overlay is
    /// absent from a table built over the frozen interner alone. The old
    /// `resolve` path indexed out of bounds and panicked — which the
    /// engine's panic containment then mislabelled as a run crash. Display
    /// edges must degrade to a marker instead.
    #[test]
    fn display_edges_degrade_for_foreign_runtime_symbols() {
        let mut interner = Interner::new();
        let a = interner.intern("A");
        // Frozen table: no overlay. Symbol 7 was minted elsewhere.
        let table = NameTable::new(&interner, &[]);
        let foreign = Symbol(7);
        assert_eq!(table.try_resolve(a), Some("A"));
        assert_eq!(table.try_resolve(foreign), None);
        let m = MethodSym {
            class: a,
            name: foreign,
        };
        assert_eq!(table.method_display(m), "A.<s7?>");
        assert_eq!(table.method_id(m), MethodId::new("A", "<s7?>"));
    }
}
