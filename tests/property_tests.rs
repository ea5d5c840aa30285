//! Randomized property tests over the language front end, the CFG, the
//! planner, incremental recompilation, the overlapped `compile_app`, the
//! demand-driven call graph and lint, and the wire and disk decoders, driven by the in-repo seeded
//! PRNG (`wasabi::util::Rng`) so the suite needs no external framework
//! and every failure is reproducible from the printed seed.
//!
//! Gated behind the `proptest-suite` feature:
//! `cargo test --features proptest-suite --test property_tests`.

use wasabi::util::{Json, Rng};

// ---- Source generators -----------------------------------------------------

/// A small expression in concrete syntax.
fn gen_expr(rng: &mut Rng, depth: u32) -> String {
    let leaf = |rng: &mut Rng| match rng.below(7) {
        0 => rng.below(1000).to_string(),
        1 => "true".to_string(),
        2 => "false".to_string(),
        3 => "null".to_string(),
        4 => "x".to_string(),
        5 => "this.f".to_string(),
        _ => "\"lit\"".to_string(),
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.below(5) {
        0 => leaf(rng),
        1 => {
            let a = gen_expr(rng, depth - 1);
            let b = gen_expr(rng, depth - 1);
            let op = *rng.pick(&["+", "-", "*", "==", "!=", "<", ">=", "&&", "||"]);
            // Logical operators need boolean operands at run time, but
            // parsing/printing does not evaluate, so any shape is fine.
            format!("({a} {op} {b})")
        }
        2 => format!("!({})", gen_expr(rng, depth - 1)),
        3 => format!("this.m({})", gen_expr(rng, depth - 1)),
        _ => {
            let a = gen_expr(rng, depth - 1);
            let b = gen_expr(rng, depth - 1);
            format!("this.g({a}, {b})")
        }
    }
}

/// A statement in concrete syntax.
fn gen_stmt(rng: &mut Rng, depth: u32) -> String {
    let simple = |rng: &mut Rng| match rng.below(8) {
        0 => format!("var v = {};", gen_expr(rng, 2)),
        1 => format!("x = {};", gen_expr(rng, 2)),
        2 => format!("log({});", gen_expr(rng, 2)),
        3 => format!("sleep(5);\n log({});", gen_expr(rng, 2)),
        4 => format!("return {};", gen_expr(rng, 2)),
        5 => "break;".to_string(),
        6 => "continue;".to_string(),
        _ => "throw new E(\"boom\");".to_string(),
    };
    if depth == 0 {
        return simple(rng);
    }
    match rng.below(6) {
        0 => simple(rng),
        1 => {
            let c = gen_expr(rng, 2);
            let a = gen_stmt(rng, depth - 1);
            let b = gen_stmt(rng, depth - 1);
            format!("if ({c}) {{ {a} }} else {{ {b} }}")
        }
        2 => {
            let c = gen_expr(rng, 2);
            let s = gen_stmt(rng, depth - 1);
            format!("while ({c}) {{ {s} }}")
        }
        3 => {
            let c = gen_expr(rng, 2);
            let s = gen_stmt(rng, depth - 1);
            format!("for (var i = 0; {c}; i = i + 1) {{ {s} }}")
        }
        4 => {
            let a = gen_stmt(rng, depth - 1);
            let b = gen_stmt(rng, depth - 1);
            format!("try {{ {a} }} catch (E e) {{ {b} }}")
        }
        _ => {
            let c = gen_expr(rng, 2);
            let a = gen_stmt(rng, depth - 1);
            let b = gen_stmt(rng, depth - 1);
            format!("switch ({c}) {{ case 1: {{ {a} }} default: {{ {b} }} }}")
        }
    }
}

fn gen_file(rng: &mut Rng) -> String {
    let count = rng.range(1, 6) as usize;
    let stmts: Vec<String> = (0..count).map(|_| gen_stmt(rng, 3)).collect();
    format!(
        "exception E;\nclass C {{\n  field f = 0;\n  method m(x) {{\n    {}\n  }}\n  method g(a, b) {{ return a; }}\n}}\n",
        stmts.join("\n    ")
    )
}

/// An arbitrary (mostly garbage) input string for totality tests: a mix of
/// ASCII printables, language punctuation, and a few multi-byte chars.
fn gen_garbage(rng: &mut Rng, max_len: usize) -> String {
    const POOL: &[char] = &[
        'a', 'z', 'A', 'Z', '0', '9', '_', ' ', '\n', '\t', '{', '}', '(', ')', ';', '"', '\\',
        '+', '-', '*', '/', '<', '>', '=', '!', '&', '|', '.', ',', ':', '\'', '\u{e9}',
        '\u{2603}', '\u{1f980}',
    ];
    let len = rng.below(max_len as u64 + 1) as usize;
    (0..len).map(|_| *rng.pick(POOL)).collect()
}

// ---- Front-end properties --------------------------------------------------

/// The lexer never panics and either tokenizes or reports an error.
#[test]
fn lexer_total_on_arbitrary_input() {
    use wasabi::lang::lexer::Lexer;
    for case in 0..128u64 {
        let mut rng = Rng::new(0x1_e7e5_0000 + case);
        let input = gen_garbage(&mut rng, 200);
        let _ = Lexer::tokenize(&input);
    }
}

/// The parser never panics on arbitrary input.
#[test]
fn parser_total_on_arbitrary_input() {
    use wasabi::lang::parser::parse_file;
    for case in 0..128u64 {
        let mut rng = Rng::new(0x9_a25e_0000 + case);
        let input = gen_garbage(&mut rng, 300);
        let _ = parse_file(&input);
    }
}

/// Printing is a fixed point through the parser: print(parse(print(p)))
/// equals print(p) for every generated program.
#[test]
fn printer_roundtrip_fixed_point() {
    use wasabi::lang::parser::parse_file;
    use wasabi::lang::printer::print_items;
    for case in 0..128u64 {
        let mut rng = Rng::new(0x9021_0000 + case);
        let source = gen_file(&mut rng);
        let items = parse_file(&source)
            .unwrap_or_else(|e| panic!("[case {case}] generated source failed to parse: {e}"));
        let printed = print_items(&items);
        let reparsed = parse_file(&printed).unwrap_or_else(|e| {
            panic!("[case {case}] printed source failed to parse: {e}\n{printed}")
        });
        let reprinted = print_items(&reparsed);
        assert_eq!(printed, reprinted, "[case {case}] printer not a fixed point");
    }
}

/// CFG construction is total on generated programs, every edge targets a
/// valid block, and loop headers are unique per loop id.
#[test]
fn cfg_structural_invariants() {
    use wasabi::analysis::cfg::Cfg;
    use wasabi::lang::ast::Item;
    use wasabi::lang::parser::parse_file;
    for case in 0..128u64 {
        let mut rng = Rng::new(0xcf9_0000 + case);
        let source = gen_file(&mut rng);
        let items = parse_file(&source).expect("generated source parses");
        for item in &items {
            let Item::Class(class) = item else { continue };
            for method in &class.methods {
                let cfg = Cfg::build(&method.body);
                let blocks = cfg.blocks.len();
                let mut headers = std::collections::HashSet::new();
                for block in &cfg.blocks {
                    for succ in &block.succs {
                        assert!((succ.0 as usize) < blocks, "[case {case}] edge out of range");
                    }
                    if let Some(id) = block.loop_header {
                        assert!(headers.insert(id), "[case {case}] duplicate header for {id}");
                    }
                }
                // Reachability from the entry never escapes the graph.
                let reachable = cfg.reachable_from(cfg.entry());
                assert!(reachable.len() <= blocks, "[case {case}] reachability escaped");
            }
        }
    }
}

/// Retry-loop detection is deterministic and keyword filtering only
/// removes loops (never adds).
#[test]
fn keyword_filter_is_monotone() {
    use wasabi::analysis::loops::{find_retry_loops, LoopQueryOptions};
    use wasabi::analysis::resolve::ProjectIndex;
    use wasabi::lang::parser::parse_file;
    use wasabi::lang::project::Project;
    for case in 0..128u64 {
        let mut rng = Rng::new(0x1007_0000 + case);
        let source = gen_file(&mut rng);
        let _ = parse_file(&source).expect("generated source parses");
        let Ok(project) = Project::compile("p", vec![("f.jav", source)]) else {
            continue; // e.g. `x = ...` before declaration; compile errors are fine
        };
        let index = ProjectIndex::build(&project);
        let with = find_retry_loops(&index, &LoopQueryOptions::default());
        let options = LoopQueryOptions {
            keyword_filter: false,
            ..LoopQueryOptions::default()
        };
        let without = find_retry_loops(&index, &options);
        assert!(with.len() <= without.len(), "[case {case}] filter added loops");
        let unfiltered: std::collections::HashSet<_> =
            without.iter().map(|l| (l.file, l.loop_id)).collect();
        for retry_loop in &with {
            assert!(
                unfiltered.contains(&(retry_loop.file, retry_loop.loop_id)),
                "[case {case}] filtered set is not a subset"
            );
        }
    }
}

// ---- Interning and slot-environment properties ------------------------------

/// A random identifier-ish string (the interner must also cope with
/// non-identifier text, so a few odd characters are mixed in).
fn gen_name(rng: &mut Rng) -> String {
    const POOL: &[char] = &[
        'a', 'b', 'z', 'A', 'Z', '0', '9', '_', '.', '<', '>', '\u{e9}',
    ];
    let len = rng.range(1, 12) as usize;
    (0..len).map(|_| *rng.pick(POOL)).collect()
}

/// `resolve(intern(s)) == s` over a generated corpus, interning is
/// idempotent (same symbol back), and distinct strings get distinct
/// symbols.
#[test]
fn interner_roundtrip_and_idempotence() {
    use std::collections::HashMap;
    use wasabi::lang::intern::Interner;
    for case in 0..64u64 {
        let mut rng = Rng::new(0x1_274e_0000 + case);
        let mut interner = Interner::new();
        let mut expected: HashMap<String, wasabi::lang::intern::Symbol> = HashMap::new();
        for _ in 0..rng.range(1, 300) {
            let name = gen_name(&mut rng);
            let sym = interner.intern(&name);
            match expected.get(&name) {
                Some(prior) => assert_eq!(*prior, sym, "[case {case}] intern not idempotent"),
                None => {
                    expected.insert(name.clone(), sym);
                }
            }
            assert_eq!(interner.resolve(sym), name, "[case {case}] roundtrip");
            assert_eq!(interner.lookup(&name), Some(sym), "[case {case}] lookup");
        }
        // Distinct strings map to distinct symbols.
        assert_eq!(interner.len(), expected.len(), "[case {case}] symbol reuse");
    }
}

// A reference evaluator over the *surface AST* with a string-keyed
// HashMap environment — the semantics the slot-lowered interpreter must
// reproduce. Covers int locals (declared anywhere, function-scoped),
// assignment, if/while, and wrapping arithmetic.
mod reference {
    use std::collections::HashMap;
    use wasabi::lang::ast::{BinOp, Block, Expr, Literal, Stmt};

    pub fn eval(env: &mut HashMap<String, i64>, expr: &Expr) -> i64 {
        match expr {
            Expr::Literal(Literal::Int(v), _) => *v,
            Expr::Unary {
                op: wasabi::lang::ast::UnOp::Neg,
                expr,
                ..
            } => eval(env, expr).wrapping_neg(),
            Expr::Ident(name, _) => env[name.as_str()],
            Expr::Binary { op, lhs, rhs, .. } => {
                let (a, b) = (eval(env, lhs), eval(env, rhs));
                match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    other => panic!("reference: unexpected int op {other:?}"),
                }
            }
            other => panic!("reference: unexpected expr {other:?}"),
        }
    }

    pub fn eval_cond(env: &mut HashMap<String, i64>, expr: &Expr) -> bool {
        match expr {
            Expr::Binary { op, lhs, rhs, .. } => {
                let (a, b) = (eval(env, lhs), eval(env, rhs));
                match op {
                    BinOp::Lt => a < b,
                    BinOp::LtEq => a <= b,
                    BinOp::Gt => a > b,
                    BinOp::GtEq => a >= b,
                    BinOp::Eq => a == b,
                    BinOp::NotEq => a != b,
                    other => panic!("reference: unexpected cmp {other:?}"),
                }
            }
            other => panic!("reference: unexpected cond {other:?}"),
        }
    }

    /// Executes a block; returns `Some(value)` when a `return` fired.
    pub fn exec(env: &mut HashMap<String, i64>, block: &Block) -> Option<i64> {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Var { name, init, .. } => {
                    let value = eval(env, init);
                    env.insert(name.clone(), value);
                }
                Stmt::Assign { target, value, .. } => {
                    let value = eval(env, value);
                    match target {
                        wasabi::lang::ast::LValue::Var(name, _) => {
                            env.insert(name.clone(), value);
                        }
                        other => panic!("reference: unexpected lvalue {other:?}"),
                    }
                }
                Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                    ..
                } => {
                    if eval_cond(env, cond) {
                        if let Some(v) = exec(env, then_blk) {
                            return Some(v);
                        }
                    } else if let Some(else_blk) = else_blk {
                        if let Some(v) = exec(env, else_blk) {
                            return Some(v);
                        }
                    }
                }
                Stmt::While { cond, body, .. } => {
                    while eval_cond(env, cond) {
                        if let Some(v) = exec(env, body) {
                            return Some(v);
                        }
                    }
                }
                Stmt::Return { expr: Some(expr), .. } => return Some(eval(env, expr)),
                other => panic!("reference: unexpected stmt {other:?}"),
            }
        }
        None
    }
}

/// Generates an int-only method body over function-scoped locals: `var`
/// declarations (possibly nested inside branches, exercising the lowering
/// rule that locals are slotted per method, not per block), assignments,
/// `if`/`else`, and bounded `while` loops with fresh counters.
fn gen_int_body(rng: &mut Rng, vars: &mut Vec<String>, loops: &mut u32, depth: u32) -> String {
    let int_expr = |rng: &mut Rng, vars: &[String]| -> String {
        let leaf = |rng: &mut Rng, vars: &[String]| -> String {
            if !vars.is_empty() && rng.below(2) == 0 {
                rng.pick(vars).clone()
            } else {
                (rng.below(2000) as i64 - 1000).to_string()
            }
        };
        let a = leaf(rng, vars);
        let b = leaf(rng, vars);
        let op = *rng.pick(&["+", "-", "*"]);
        format!("({a} {op} {b})")
    };
    let cond_expr = |rng: &mut Rng, vars: &[String]| -> String {
        let a = int_expr(rng, vars);
        let b = int_expr(rng, vars);
        let cmp = *rng.pick(&["<", "<=", ">", ">=", "==", "!="]);
        format!("({a} {cmp} {b})")
    };
    let count = rng.range(1, 5) as usize;
    let mut out = String::new();
    for _ in 0..count {
        let choice = if depth == 0 { rng.below(2) } else { rng.below(4) };
        match choice {
            0 => {
                let name = format!("v{}", vars.len());
                out.push_str(&format!("var {name} = {};\n", int_expr(rng, vars)));
                vars.push(name);
            }
            1 if !vars.is_empty() => {
                let name = rng.pick(vars).clone();
                out.push_str(&format!("{name} = {};\n", int_expr(rng, vars)));
            }
            1 => {}
            2 => {
                // Vars declared inside a branch may be skipped at run time,
                // so they must not be read afterwards: generate each branch
                // with its own clone of the var list. Both clones start at
                // the same length, so sibling branches routinely declare the
                // same name — exercising slot sharing in the lowering.
                let cond = cond_expr(rng, vars);
                let mut then_vars = vars.clone();
                let then_blk = gen_int_body(rng, &mut then_vars, loops, depth - 1);
                let mut else_vars = vars.clone();
                let else_blk = gen_int_body(rng, &mut else_vars, loops, depth - 1);
                out.push_str(&format!(
                    "if ({cond}) {{\n{then_blk}}} else {{\n{else_blk}}}\n"
                ));
            }
            _ => {
                // Bounded loop on a fresh counter, so termination is
                // guaranteed whatever the generated body does.
                let counter = format!("l{loops}");
                *loops += 1;
                let bound = rng.range(1, 5);
                // The counter is deliberately NOT visible inside the body:
                // a generated `lN = ...` reset would loop forever.
                let mut body_vars = vars.clone();
                let body = gen_int_body(rng, &mut body_vars, loops, depth - 1);
                out.push_str(&format!(
                    "var {counter} = 0;\nwhile ({counter} < {bound}) {{\n{body}{counter} = {counter} + 1;\n}}\n"
                ));
                vars.push(counter);
            }
        }
    }
    out
}

/// The slot-addressed environment of the lowered interpreter computes the
/// same result as a string-keyed HashMap environment over the surface AST,
/// on random method bodies.
#[test]
fn slot_env_matches_reference_hashmap_env() {
    use std::collections::HashMap;
    use wasabi::lang::ast::Item;
    use wasabi::lang::parser::parse_file;
    use wasabi::lang::project::Project;
    use wasabi::vm::interp::{Interp, InvokeResult, RunLimits};
    use wasabi::vm::interceptor::NoopInterceptor;
    use wasabi::vm::Value;

    for case in 0..96u64 {
        let mut rng = Rng::new(0x5107_0000 + case);
        let mut vars = vec!["p0".to_string(), "p1".to_string()];
        let mut loops = 0u32;
        let body = gen_int_body(&mut rng, &mut vars, &mut loops, 3);
        // Mix every variable into the result so a single misassigned slot
        // changes the output.
        let sum = vars
            .iter()
            .enumerate()
            .map(|(i, v)| format!("{v} * {}", 2 * i as i64 + 1))
            .collect::<Vec<_>>()
            .join(" + ");
        let source = format!("class P {{\n method run(p0, p1) {{\n{body}return {sum};\n }}\n}}\n");

        // Reference: string-keyed environment over the parsed AST.
        let items = parse_file(&source)
            .unwrap_or_else(|e| panic!("[case {case}] generated source failed to parse: {e}"));
        let Item::Class(class) = &items[0] else {
            panic!("[case {case}] expected a class");
        };
        let method = &class.methods[0];
        let (a0, a1) = (rng.below(100) as i64, rng.below(100) as i64);
        let mut env: HashMap<String, i64> = HashMap::new();
        env.insert("p0".to_string(), a0);
        env.insert("p1".to_string(), a1);
        let expected = reference::exec(&mut env, &method.body)
            .unwrap_or_else(|| panic!("[case {case}] reference did not return"));

        // Subject: the slot-compiled interpreter.
        let project = Project::compile("prop", vec![("p.jav", source.clone())])
            .unwrap_or_else(|e| panic!("[case {case}] compile failed: {e:?}"));
        let mut noop = NoopInterceptor;
        let mut interp = Interp::new(&project, &mut noop, RunLimits::default());
        match interp.invoke("P", "run", vec![Value::Int(a0), Value::Int(a1)]) {
            InvokeResult::Ok(Value::Int(actual)) => {
                assert_eq!(actual, expected, "[case {case}]\n{source}");
            }
            other => panic!("[case {case}] unexpected result {other:?}\n{source}"),
        }
    }
}

// ---- Planner properties ----------------------------------------------------

/// Every coverable site appears exactly once in the plan, and only
/// covering tests are used.
#[test]
fn plan_covers_each_site_exactly_once() {
    use std::collections::BTreeSet;
    use wasabi::lang::ast::CallId;
    use wasabi::lang::project::{CallSite, FileId, MethodId};
    use wasabi::planner::coverage::CoverageProfile;
    use wasabi::planner::plan::plan;

    let site = |c: u32| CallSite { file: FileId(0), call: CallId(c) };
    for case in 0..64u64 {
        let mut rng = Rng::new(0x91a9_0000 + case);
        // 1..12 tests, each covering a random set of 0..6 sites from 0..20.
        let tests = rng.range(1, 12) as usize;
        let coverage: Vec<BTreeSet<u32>> = (0..tests)
            .map(|_| {
                let count = rng.below(6);
                (0..count).map(|_| rng.below(20) as u32).collect()
            })
            .collect();

        let mut profile = CoverageProfile {
            tests_total: coverage.len(),
            ..CoverageProfile::default()
        };
        for (i, sites) in coverage.iter().enumerate() {
            if sites.is_empty() {
                continue;
            }
            let test = MethodId::new("T", format!("t{i:02}"));
            let sites: Vec<CallSite> = sites.iter().map(|c| site(*c)).collect();
            for s in &sites {
                profile.site_to_tests.entry(*s).or_default().push(test.clone());
            }
            profile.per_test.insert(test, sites);
        }
        let all_sites: BTreeSet<CallSite> = (0u32..25).map(site).collect();
        let test_plan = plan(&profile, &all_sites);

        // Exactly-once coverage of every coverable site.
        let mut planned: Vec<CallSite> = test_plan.entries.iter().map(|e| e.site).collect();
        planned.sort();
        let mut expected: Vec<CallSite> = profile.covered_sites().into_iter().collect();
        expected.sort();
        assert_eq!(planned, expected, "[case {case}]");
        // Plan entries reference real covering tests.
        for entry in &test_plan.entries {
            let sites = &profile.per_test[&entry.test];
            assert!(sites.contains(&entry.site), "[case {case}]");
        }
        // Uncovered = all minus covered.
        assert_eq!(
            test_plan.uncovered_sites.len(),
            all_sites.len() - profile.covered_sites().len(),
            "[case {case}]"
        );
    }
}

// ---- Abstract-interpretation properties --------------------------------------

/// The statically inferred attempt-bound interval over-approximates what
/// the VM actually does: on random bounded retry loops (random
/// init/bound/step, failures injected through an argument, optionally
/// exiting early on success), the attempt count the interpreter observes
/// always falls inside the loop's static interval.
#[test]
fn attempt_interval_over_approximates_vm_attempts() {
    use wasabi::analysis::absint::analyze_method;
    use wasabi::lang::ast::Item;
    use wasabi::lang::project::Project;
    use wasabi::vm::interceptor::NoopInterceptor;
    use wasabi::vm::interp::{Interp, InvokeResult, RunLimits};
    use wasabi::vm::Value;

    for case in 0..96u64 {
        let mut rng = Rng::new(0xab51_0000 + case);
        let init = rng.below(4) as i64;
        let bound = rng.below(12) as i64;
        let step = rng.range(1, 4);
        // Half the cases return out of the loop on success (observing
        // fewer attempts than the bound permits), half run to the bound.
        let call = if rng.below(2) == 0 {
            "if ((fail - attempts) <= 0) { return attempts; }\n        this.op((fail - attempts));"
        } else {
            "this.op((fail - attempts));"
        };
        let source = format!(
            "exception E;\n\
             class C {{\n\
               method op(f) throws E {{\n\
                 if (f > 0) {{ throw new E(\"transient\"); }}\n\
                 return 1;\n\
               }}\n\
               method run(fail) {{\n\
                 var attempts = 0;\n\
                 for (var retry = {init}; retry < {bound}; retry = retry + {step}) {{\n\
                   attempts = attempts + 1;\n\
                   try {{\n\
                     {call}\n\
                   }} catch (E e) {{ sleep(1); }}\n\
                 }}\n\
                 return attempts;\n\
               }}\n\
             }}\n"
        );
        let project = Project::compile("prop", vec![("c.jav", source.clone())])
            .unwrap_or_else(|e| panic!("[case {case}] compile failed: {e:?}\n{source}"));

        let Item::Class(class) = &project.files[0].items[1] else {
            panic!("[case {case}] expected the class item");
        };
        let method = class
            .methods
            .iter()
            .find(|m| m.name == "run")
            .unwrap_or_else(|| panic!("[case {case}] C.run missing"));
        let abs = analyze_method(&project.index, "C", method);
        let obs = abs
            .loops
            .values()
            .next()
            .unwrap_or_else(|| panic!("[case {case}] no loop observation"));

        for fail in [0i64, 2, 5, 40] {
            let mut noop = NoopInterceptor;
            let mut interp = Interp::new(&project, &mut noop, RunLimits::default());
            let observed = match interp.invoke("C", "run", vec![Value::Int(fail)]) {
                InvokeResult::Ok(Value::Int(n)) => n,
                other => panic!("[case {case}] unexpected result {other:?}\n{source}"),
            };
            assert!(
                obs.attempts.lo <= observed && observed <= obs.attempts.hi,
                "[case {case}] fail={fail}: observed {observed} attempts outside \
                 static interval {}\n{source}",
                obs.attempts,
            );
        }
    }
}

/// Abstract interpretation is total and well-formed across every corpus
/// app (amplification and policy seeds included): every method analyses
/// without panicking, every loop observation carries a well-formed
/// attempts interval, and the sweep sees real finite attempt bounds.
#[test]
fn absint_is_total_and_well_formed_corpus_wide() {
    use wasabi::analysis::absint::{analyze_method, POS_INF};
    use wasabi::corpus::spec::{paper_apps, Scale};
    use wasabi::corpus::synth::{append_policy_seeds, compile_app, generate_app_with_amp};
    use wasabi::lang::ast::Item;

    let mut loops_seen = 0usize;
    let mut finite_bounds = 0usize;
    for spec in paper_apps() {
        let mut app = generate_app_with_amp(&spec, Scale::Tiny);
        append_policy_seeds(&mut app);
        let project = compile_app(&app);
        for file in &project.files {
            for item in &file.items {
                let Item::Class(class) = item else { continue };
                for method in &class.methods {
                    let abs = analyze_method(&project.index, &class.name, method);
                    for obs in abs.loops.values() {
                        loops_seen += 1;
                        assert!(
                            obs.attempts.lo <= obs.attempts.hi,
                            "{}.{}: malformed attempts interval {}",
                            class.name,
                            method.name,
                            obs.attempts
                        );
                        if obs.attempts.hi < POS_INF {
                            finite_bounds += 1;
                            assert!(
                                obs.attempts.lo >= 0,
                                "{}.{}: negative attempt bound {}",
                                class.name,
                                method.name,
                                obs.attempts
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(loops_seen > 100, "sweep covered real loops ({loops_seen})");
    assert!(
        finite_bounds > 50,
        "sweep inferred finite attempt bounds ({finite_bounds})"
    );
}

// ---- Interprocedural summary properties -------------------------------------

/// A method body made of throws, rethrowing catches, and acyclic
/// `this` calls: method `i` may only call methods with larger indices, so
/// every generated program terminates and the call graph is a DAG.
fn gen_throwy_method(rng: &mut Rng, index: usize, methods: usize, depth: u32) -> String {
    let excs = ["E0", "E1", "E2"];
    let call = |rng: &mut Rng| -> Option<String> {
        if index + 1 >= methods {
            return None;
        }
        let callee = rng.range(index as i64 + 1, methods as i64) as usize;
        Some(format!("this.m{callee}((p + 1));"))
    };
    let simple = |rng: &mut Rng| match rng.below(4) {
        0 => format!("throw new {}(\"boom\");", rng.pick(&excs)),
        1 => call(rng).unwrap_or_else(|| "log(\"leaf\");".to_string()),
        2 => "return 1;".to_string(),
        _ => "log(\"noop\");".to_string(),
    };
    if depth == 0 {
        return simple(rng);
    }
    match rng.below(5) {
        0 | 1 => simple(rng),
        2 => {
            let a = gen_throwy_method(rng, index, methods, depth - 1);
            let b = gen_throwy_method(rng, index, methods, depth - 1);
            format!("if (p < {}) {{ {a} }} else {{ {b} }}", rng.below(10))
        }
        3 => {
            let body = gen_throwy_method(rng, index, methods, depth - 1);
            let caught = rng.pick(&excs);
            let handler = match rng.below(3) {
                0 => "throw e;".to_string(),
                1 => format!("throw new {}(\"wrapped\");", rng.pick(&excs)),
                _ => "log(\"swallowed\");".to_string(),
            };
            format!("try {{ {body} }} catch ({caught} e) {{ {handler} }}")
        }
        _ => {
            let a = gen_throwy_method(rng, index, methods, depth - 1);
            let b = gen_throwy_method(rng, index, methods, depth - 1);
            format!("{a}\n{b}")
        }
    }
}

/// Every exception the VM observes escaping a method is predicted by that
/// method's interprocedural may-throw summary (the static set
/// over-approximates the dynamic behaviour).
#[test]
fn may_throw_over_approximates_vm_exceptions() {
    use wasabi::analysis::callgraph::CallGraph;
    use wasabi::analysis::summaries::Summaries;
    use wasabi::lang::project::Project;
    use wasabi::vm::interceptor::NoopInterceptor;
    use wasabi::vm::interp::{Interp, InvokeResult, RunLimits};
    use wasabi::vm::Value;

    for case in 0..96u64 {
        let mut rng = Rng::new(0x7112_0000 + case);
        let methods = rng.range(2, 6) as usize;
        let bodies: Vec<String> = (0..methods)
            .map(|i| {
                let body = gen_throwy_method(&mut rng, i, methods, 3);
                format!(" method m{i}(p) {{ {body}\n return 0; }}")
            })
            .collect();
        let source = format!(
            "exception E0;\nexception E1;\nexception E2;\nclass C {{\n{}\n}}\n",
            bodies.join("\n")
        );
        let project = Project::compile("prop", vec![("c.jav", source.clone())])
            .unwrap_or_else(|e| panic!("[case {case}] compile failed: {e:?}\n{source}"));
        let cg = CallGraph::build(&project);
        let summaries = Summaries::compute(&project, &cg, &[], 1);
        let index = &project.index;

        for i in 0..methods {
            let name = format!("m{i}");
            let midx = (0..index.methods.len() as u32)
                .find(|&m| index.method_display(m) == format!("C.{name}"))
                .unwrap_or_else(|| panic!("[case {case}] method C.{name} not indexed"));
            let may_throw = &summaries.get(midx).may_throw;
            for arg in [0i64, 3, 7, 11] {
                let mut noop = NoopInterceptor;
                let mut interp = Interp::new(&project, &mut noop, RunLimits::default());
                match interp.invoke("C", &name, vec![Value::Int(arg)]) {
                    InvokeResult::Ok(_) => {}
                    InvokeResult::Exception(exc) => {
                        let escaped = index
                            .exc_by_name(&exc.ty)
                            .unwrap_or_else(|| panic!("[case {case}] undeclared {}", exc.ty));
                        assert!(
                            may_throw.iter().any(|&t| index.is_exc_subtype(escaped, t)),
                            "[case {case}] C.{name}({arg}) escaped {} but may-throw \
                             predicts only {:?}\n{source}",
                            exc.ty,
                            may_throw,
                        );
                    }
                    InvokeResult::Vm(err) => {
                        panic!("[case {case}] VM error in C.{name}({arg}): {err:?}\n{source}")
                    }
                }
            }
        }
    }
}

// ---- Coverage-prefilter properties -------------------------------------------

/// Retry coordinators `R0..R{count}`: each defines the same `op`/`run`
/// pair, so a call by either name may land on any of them.
fn gen_retry_classes(count: usize) -> String {
    (0..count)
        .map(|r| {
            format!(
                "class R{r} {{\n\
                   method op(p) throws Transient {{\n\
                     if (p < {r}) {{ throw new Transient(\"flaky\"); }}\n\
                     return 1;\n\
                   }}\n\
                   method run(p) {{\n\
                     for (var retry = 0; retry < 3; retry = retry + 1) {{\n\
                       try {{ return this.op(p); }} catch (Transient e) {{ sleep(1); }}\n\
                     }}\n\
                     return null;\n\
                   }}\n\
                 }}\n"
            )
        })
        .collect()
}

/// A [`gen_throwy_method`] body for `m{index}` of a worker class, preceded
/// by one statement the prefilter can only resolve by name: a call on a
/// receiver of unknown type (built by `F.make`), an instantiation whose
/// constructor may reach a retry loop, or a direct coordinator call. Calls
/// still only go to higher-numbered methods, so programs terminate.
fn gen_multiclass_method(
    rng: &mut Rng,
    index: usize,
    methods: usize,
    classes: usize,
    retries: usize,
) -> String {
    let extra = match rng.below(5) {
        0 if index + 1 < methods => {
            let callee = rng.range(index as i64 + 1, methods as i64);
            format!("var o = new F().make(p); o.m{callee}((p + 1));")
        }
        1 => format!("var k = new K{}();", rng.below(classes as u64)),
        2 => format!("var r = new R{}(); r.run(p);", rng.below(retries as u64)),
        _ => String::new(),
    };
    format!("{extra}\n{}", gen_throwy_method(rng, index, methods, 3))
}

/// A program for the prefilter property: `classes` worker classes
/// `K{c}` that all define `m0..m{methods}`, retry coordinators, a factory
/// `F` whose `make` hides the receiver's class, a relay `G`, and test
/// classes mixing filler tests with tests that reach a retry loop by
/// name, through constructors (worker and test-class `init`), or through
/// the factory. With `field_calls`, one field initialiser runs user code:
/// `T0.w` either constructs `K0`, whose `init` then reaches a retry loop,
/// or calls the relay, so `T0.tField` covers a site through the
/// initialiser alone.
fn gen_prefilter_program(rng: &mut Rng, field_calls: bool) -> String {
    let classes = rng.range(2, 6) as usize;
    let methods = rng.range(2, 5) as usize;
    let retries = rng.range(1, 3) as usize;
    let mut src =
        String::from("exception E0;\nexception E1;\nexception E2;\nexception Transient;\n");
    src.push_str(&gen_retry_classes(retries));
    src.push_str("class G { method relay(p) { var r = new R0(); return r.run(p); } }\n");
    let (small, large) = (rng.below(classes as u64), rng.below(classes as u64));
    src.push_str(&format!(
        "class F {{ method make(p) {{ if (p < 4) {{ return new K{small}(); }} return new K{large}(); }} }}\n"
    ));
    // A constructor may reach a retry loop, directly or through the relay,
    // but never instantiates a worker, so construction terminates.
    let gen_init = |rng: &mut Rng, forced: bool| -> String {
        match if forced { 0 } else { rng.below(4) } {
            0 => format!(
                " method init() {{ var r = new R{}(); r.run(0); }}\n",
                rng.below(retries as u64)
            ),
            1 => " method init() { var g = new G(); g.relay(1); }\n".to_string(),
            2 => " method init() { log(\"init\"); }\n".to_string(),
            _ => String::new(),
        }
    };
    for c in 0..classes {
        src.push_str(&format!("class K{c} {{\n field n = {c};\n"));
        src.push_str(&gen_init(rng, field_calls && c == 0));
        for i in 0..methods {
            let body = gen_multiclass_method(rng, i, methods, classes, retries);
            src.push_str(&format!(" method m{i}(p) {{ {body}\n return 0; }}\n"));
        }
        src.push_str("}\n");
    }
    for t in 0..rng.range(1, 4) {
        src.push_str(&format!("class T{t} {{\n"));
        if field_calls && t == 0 {
            let init = if rng.below(2) == 0 {
                "new K0()"
            } else {
                "new G().relay(0)"
            };
            src.push_str(&format!(
                " field w = {init};\n test tField() {{ assert(true); }}\n"
            ));
        } else {
            src.push_str(" field n = 0;\n");
        }
        if rng.below(4) == 0 {
            src.push_str(&gen_init(rng, false));
        }
        for n in 0..rng.range(2, 7) {
            let p = rng.below(8);
            let body = match rng.below(6) {
                0 => format!(
                    "var k = new K{}(); k.m{}({p});",
                    rng.below(classes as u64),
                    rng.below(methods as u64)
                ),
                1 => format!(
                    "var o = new F().make({p}); o.m{}({p});",
                    rng.below(methods as u64)
                ),
                2 => format!("var k = new K{}();", rng.below(classes as u64)),
                3 => format!("var r = new R{}(); r.run({p});", rng.below(retries as u64)),
                4 => "sleep(1);".to_string(),
                _ => "assert(true);".to_string(),
            };
            src.push_str(&format!(" test t{n}() {{ {body} }}\n"));
        }
        src.push_str("}\n");
    }
    src
}

/// The coverage prefilter is sound: on random multi-class programs (wide
/// name buckets, receivers of unknown type, constructors that reach retry
/// loops, filler tests) every test the VM shows covering a site is kept,
/// and `profile_coverage` records exactly the coverage of an exhaustive
/// profile that runs every test. Programs whose field initialisers run
/// user code make the prefilter refuse, and the profile still matches.
/// (`profile_virtual_ms` is not compared: skipped tests contribute none.)
#[test]
fn coverage_prefilter_matches_exhaustive_profile() {
    use std::collections::BTreeMap;
    use wasabi::analysis::loops::{all_retry_locations, LoopQueryOptions};
    use wasabi::analysis::resolve::ProjectIndex;
    use wasabi::inject::CoverageRecorder;
    use wasabi::lang::project::{CallSite, MethodId, Project};
    use wasabi::planner::coverage::{profile_coverage, reachable_test_mask};
    use wasabi::vm::runner::{run_test, RunOptions};

    let (mut skipped, mut refused, mut field_covered) = (0usize, 0usize, 0usize);
    for case in 0..80u64 {
        let mut rng = Rng::new(0xc0fe_0000 + case);
        let field_calls = case % 4 == 3;
        let source = gen_prefilter_program(&mut rng, field_calls);
        let project = Project::compile("prop", vec![("c.jav", source.clone())])
            .unwrap_or_else(|e| panic!("[case {case}] compile failed: {e:?}\n{source}"));
        let locations: Vec<_> =
            all_retry_locations(&ProjectIndex::build(&project), &LoopQueryOptions::default())
                .into_iter()
                .flat_map(|(_, locs)| locs)
                .collect();
        assert!(
            !locations.is_empty(),
            "[case {case}] no retry location\n{source}"
        );
        let sites: Vec<CallSite> = locations.iter().map(|l| l.site).collect();
        let options = RunOptions::default();

        // The exhaustive profile: every test runs, in suite order.
        let tests = project.tests();
        let mut exhaustive: BTreeMap<MethodId, Vec<CallSite>> = BTreeMap::new();
        let mut site_to_tests: BTreeMap<CallSite, Vec<MethodId>> = BTreeMap::new();
        let mut recorder = CoverageRecorder::new(sites.iter().copied());
        for (_, test) in &tests {
            recorder.reset();
            run_test(&project, test, &mut recorder, &options);
            let covered = recorder.covered();
            for site in &covered {
                site_to_tests.entry(*site).or_default().push(test.clone());
            }
            if !covered.is_empty() {
                exhaustive.insert(test.clone(), covered);
            }
        }

        let mask = reachable_test_mask(&project, &sites.iter().copied().collect(), &tests);
        if field_calls {
            assert!(
                mask.is_none(),
                "[case {case}] field initialiser did not disable the prefilter\n{source}"
            );
            refused += 1;
            field_covered += exhaustive.contains_key(&MethodId::new("T0", "tField")) as usize;
        } else {
            let mask = mask.unwrap_or_else(|| panic!("[case {case}] prefilter refused\n{source}"));
            for ((_, test), keep) in tests.iter().zip(&mask) {
                assert!(
                    *keep || !exhaustive.contains_key(test),
                    "[case {case}] prefilter skips {test:?}, which covers {:?}\n{source}",
                    exhaustive[test]
                );
            }
            skipped += mask.iter().filter(|keep| !**keep).count();
        }

        let profile = profile_coverage(&project, &locations, &options);
        assert_eq!(profile.tests_total, tests.len(), "[case {case}]");
        assert_eq!(profile.per_test, exhaustive, "[case {case}]\n{source}");
        assert_eq!(
            profile.site_to_tests, site_to_tests,
            "[case {case}]\n{source}"
        );
    }
    // The property is not vacuous: the prefilter skipped filler, and the
    // refusal cases covered a site through a field initialiser alone.
    assert!(skipped > 20, "prefilter skipped only {skipped} tests");
    assert_eq!(
        field_covered, refused,
        "every refusal case covers T0.tField"
    );
}

// ---- Simulated-LLM comprehension gate --------------------------------------

// The simulated LLM as it was before it gated the per-method split on the
// whole file reading like retry: `signals_for` splits every file it is
// sent. The rest is the unchanged model, so answers can be compared.
mod ungated_llm {
    use std::collections::HashMap;
    use wasabi::llm::{Answer, LanguageModel, Prompt, Question, SimProfile, TextSignals, Usage};

    #[derive(Debug, Clone, Default)]
    struct FileComprehension {
        signals: TextSignals,
        retry_methods: Vec<String>,
    }

    fn method_regions(text: &str) -> Vec<(String, String)> {
        let mut decls: Vec<(usize, String)> = Vec::new();
        for keyword in ["method ", "test "] {
            let mut from = 0;
            while let Some(pos) = text[from..].find(keyword) {
                let at = from + pos;
                let rest = &text[at + keyword.len()..];
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '$')
                    .collect();
                if !name.is_empty() && rest[name.len()..].trim_start().starts_with('(') {
                    decls.push((at, name));
                }
                from = at + keyword.len();
            }
        }
        decls.sort();
        let mut out = Vec::new();
        for (i, (start, name)) in decls.iter().enumerate() {
            let end = decls.get(i + 1).map(|(e, _)| *e).unwrap_or(text.len());
            out.push((name.clone(), text[*start..end].to_string()));
        }
        out
    }

    pub struct UngatedLlm {
        seed: u64,
        profile: SimProfile,
        usage: Usage,
        memory: HashMap<String, FileComprehension>,
    }

    impl UngatedLlm {
        pub fn with_seed(seed: u64) -> Self {
            UngatedLlm {
                seed,
                profile: SimProfile::default(),
                usage: Usage::default(),
                memory: HashMap::new(),
            }
        }

        fn draw(&self, file_path: &str, tag: &str) -> f64 {
            let mut hash: u64 = 0xcbf29ce484222325;
            let mut mix = |byte: u8| {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x100000001b3);
            };
            for byte in self.seed.to_le_bytes() {
                mix(byte);
            }
            for byte in file_path.bytes() {
                mix(byte);
            }
            for byte in tag.bytes() {
                mix(byte);
            }
            hash ^= hash >> 33;
            hash = hash.wrapping_mul(0xff51afd7ed558ccd);
            hash ^= hash >> 33;
            (hash >> 11) as f64 / (1u64 << 53) as f64
        }

        fn chance(&self, file_path: &str, tag: &str, probability: f64) -> bool {
            self.draw(file_path, tag) < probability
        }

        fn large_file_miss(&self, file_path: &str, bytes: usize) -> bool {
            if bytes <= self.profile.large_file_bytes {
                return false;
            }
            let over = (bytes - self.profile.large_file_bytes) as f64;
            let prob =
                (over / self.profile.miss_slope_bytes as f64).min(self.profile.max_miss_prob);
            self.chance(file_path, "large-file-miss", prob)
        }

        /// Whether the file last sent for `path` reads like retry.
        pub fn remembers_retry(&self, path: &str) -> Option<(bool, bool)> {
            self.memory
                .get(path)
                .map(|c| (c.signals.reads_like_retry(), c.signals.reads_like_errcode_retry()))
        }

        fn signals_for(&mut self, prompt: &Prompt) -> TextSignals {
            if !prompt.file_contents.is_empty() {
                let signals = TextSignals::extract(&prompt.file_contents);
                let retry_methods = method_regions(&prompt.file_contents)
                    .into_iter()
                    .filter(|(_, body)| {
                        let signals = TextSignals::extract(body);
                        signals.reads_like_retry() || signals.reads_like_errcode_retry()
                    })
                    .map(|(name, _)| name)
                    .collect();
                self.memory.insert(
                    prompt.file_path.clone(),
                    FileComprehension {
                        signals,
                        retry_methods,
                    },
                );
            }
            self.memory
                .get(&prompt.file_path)
                .map(|c| c.signals.clone())
                .unwrap_or_default()
        }

        fn answer_q1(&mut self, prompt: &Prompt) -> Answer {
            let signals = self.signals_for(prompt);
            if signals.reads_like_retry() || signals.reads_like_errcode_retry() {
                if self.large_file_miss(&prompt.file_path, signals.bytes) {
                    return Answer::No;
                }
                return Answer::Yes;
            }
            if signals.has_poll
                && signals.has_loop
                && self.chance(&prompt.file_path, "poll-fp", self.profile.poll_fp_rate)
            {
                return Answer::Yes;
            }
            if !(signals.has_poll && signals.has_loop)
                && signals.retry_keyword
                && !signals.has_catch
                && self.chance(&prompt.file_path, "param-fp", self.profile.param_fp_rate)
            {
                return Answer::Yes;
            }
            Answer::No
        }

        fn answer_q2(&mut self, prompt: &Prompt) -> Answer {
            let signals = self.signals_for(prompt);
            let mut saw_delay = signals.has_sleep;
            if !saw_delay && signals.calls_delay_helper && signals.defines_delay_helper {
                saw_delay = true;
            }
            let answer = if saw_delay { Answer::Yes } else { Answer::No };
            self.maybe_flip(&prompt.file_path, "q2-flip", answer)
        }

        fn maybe_flip(&self, file_path: &str, tag: &str, answer: Answer) -> Answer {
            let rate = match answer {
                Answer::Yes => self.profile.flip_yes_rate,
                Answer::No => self.profile.flip_no_rate,
            };
            if self.chance(file_path, tag, rate) {
                match answer {
                    Answer::Yes => Answer::No,
                    Answer::No => Answer::Yes,
                }
            } else {
                answer
            }
        }

        fn answer_q3(&mut self, prompt: &Prompt) -> Answer {
            let signals = self.signals_for(prompt);
            let answer = if signals.has_cap_comparison {
                Answer::Yes
            } else {
                Answer::No
            };
            self.maybe_flip(&prompt.file_path, "q3-flip", answer)
        }

        fn answer_q4(&mut self, prompt: &Prompt) -> Answer {
            let signals = self.signals_for(prompt);
            if signals.has_poll {
                if self.chance(&prompt.file_path, "q4-miss", self.profile.q4_miss_rate) {
                    return Answer::No;
                }
                return Answer::Yes;
            }
            Answer::No
        }
    }

    impl LanguageModel for UngatedLlm {
        fn ask_yes_no(&mut self, prompt: &Prompt) -> Answer {
            self.usage.record(prompt.chars_sent());
            match prompt.question {
                Question::PerformsRetry => self.answer_q1(prompt),
                Question::SleepsBeforeRetry => self.answer_q2(prompt),
                Question::HasCap => self.answer_q3(prompt),
                Question::PollOrSpin => self.answer_q4(prompt),
                Question::WhichMethods => Answer::No,
            }
        }

        fn ask_methods(&mut self, prompt: &Prompt) -> Vec<String> {
            self.usage.record(prompt.chars_sent());
            self.memory
                .get(&prompt.file_path)
                .map(|c| c.retry_methods.clone())
                .unwrap_or_default()
        }

        fn usage(&self) -> Usage {
            self.usage
        }
    }
}

/// A file built from the fragments the simulated LLM reads: retry and
/// error-code vocabulary, catches, loops, switches, re-enqueues, method
/// headers, comparisons near cap words, and non-ASCII text.
fn gen_llm_file(rng: &mut Rng) -> String {
    const FRAGMENTS: &[&str] = &[
        "retry", "Retries", "// keep retrying", "reattempt", "resubmit", "reschedule",
        "catch (E e) {", "catch(", "while (true) {", "while(", "for (", "for(",
        "switch (s) {", "switch(", "case 1:", "q.put(t);", ".putDelayed(t, 5)",
        "error code", "errCode", "ERR_", "method run(", "method x (", "test tA(",
        "method (", "method backoff(n) {", "test t$1(", "<", ">", "x < max", "limit",
        "cap", "attempt", "budget", "sleep(5);", "poll", "compareAndSet", "backoff(",
        "}", "{", "\n", "é", "→ ü", "Σς", "İ", "ΣΑΣ", "日本",
    ];
    let len = rng.below(40) as usize;
    let mut text = String::new();
    for _ in 0..len {
        let fragment = rng.pick(FRAGMENTS);
        text.push_str(fragment);
        if rng.chance(0.7) {
            text.push(' ');
        }
    }
    text
}

/// Gating the per-method split on the whole file reading like retry (or
/// like error-code retry) changes no answer: for random files and random
/// question orders — follow-ups before Q1, after a Q1 No, for files never
/// sent, and after a file is resent with new contents — every Q1–Q4
/// answer, every method list and the usage match the ungated model.
#[test]
fn comprehension_gate_matches_ungated_model() {
    use ungated_llm::UngatedLlm;
    use wasabi::llm::{prompts, LanguageModel, SimulatedLlm};

    let (mut errcode_only, mut methods_named) = (0usize, 0usize);
    for case in 0..400u64 {
        let mut rng = Rng::new(0x11_5a7e_0000 + case);
        let seed = rng.below(1 << 16);
        let mut gated = SimulatedLlm::with_seed(seed);
        let mut ungated = UngatedLlm::with_seed(seed);
        let mut files: Vec<String> = (0..4).map(|_| gen_llm_file(&mut rng)).collect();
        for step in 0..40 {
            // Path 4 is never sent with contents.
            let index = rng.below(5) as usize;
            let path = format!("f{index}.jav");
            let op = rng.below(7);
            if op == 0 && index < files.len() {
                if rng.chance(0.2) {
                    files[index] = gen_llm_file(&mut rng);
                }
                let q1 = prompts::q1_performs_retry(&path, &files[index]);
                assert_eq!(
                    gated.ask_yes_no(&q1),
                    ungated.ask_yes_no(&q1),
                    "[case {case} step {step}] Q1 {path}\n{}",
                    files[index]
                );
                continue;
            }
            let prompt = match op {
                1 => prompts::q2_sleeps_before_retry(&path),
                2 => prompts::q3_has_cap(&path),
                3 => prompts::q4_poll_or_spin(&path),
                4 => prompts::q1_which_methods(&path),
                _ => {
                    let prompt = prompts::q1_which_methods(&path);
                    let methods = gated.ask_methods(&prompt);
                    assert_eq!(
                        methods,
                        ungated.ask_methods(&prompt),
                        "[case {case} step {step}] methods {path}"
                    );
                    if !methods.is_empty() {
                        methods_named += 1;
                        errcode_only += (ungated.remembers_retry(&path) == Some((false, true)))
                            as usize;
                    }
                    continue;
                }
            };
            assert_eq!(
                gated.ask_yes_no(&prompt),
                ungated.ask_yes_no(&prompt),
                "[case {case} step {step}] {:?} {path}",
                prompt.question
            );
        }
        assert_eq!(gated.usage(), ungated.usage(), "[case {case}] usage");
    }
    // Not vacuous: methods were named, some of them in files that read
    // only like error-code retry (where a gate on `reads_like_retry`
    // alone would lose them).
    assert!(methods_named > 100, "only {methods_named} method lists were non-empty");
    assert!(errcode_only > 5, "only {errcode_only} error-code-only method lists");
}

// ---- Incremental revalidation ----------------------------------------------

/// How [`gen_incr_file`] shapes file `i`, including the edits that make a
/// program fail to parse or to validate.
#[derive(Clone, Copy, Default)]
struct IncrShape {
    /// Leave out exception `X{i}`, which other files may catch or extend.
    no_exception: bool,
    /// Leave out class `C{i}`, which other files may extend.
    no_class: bool,
    /// Declare `op0` twice.
    dup_method: bool,
    /// Catch an exception nobody declares.
    unknown_exception: bool,
    /// Also declare another file's class.
    dup_class: Option<usize>,
    /// Cut the text at this fraction of its length.
    truncate: Option<f64>,
}

/// File `i` of an `n`-file program: exception `X{i}` (possibly extending
/// an earlier file's), class `C{i}` (possibly extending an earlier file's
/// class), `op` methods throwing any file's exception, retry loops around
/// `this` and cross-file calls (with or without a cap and a delay, a few
/// in queue or poll vocabulary), and a test.
fn gen_incr_file(rng: &mut Rng, i: usize, n: usize, shape: IncrShape) -> String {
    let mut src = String::new();
    if !shape.no_exception {
        match i {
            0 => src.push_str("exception X0;\n"),
            _ => src.push_str(&format!("exception X{i} extends X{};\n", rng.below(i as u64))),
        }
    }
    if rng.chance(0.3) {
        src.push_str(&format!("config \"k{i}.retries\" default {};\n", rng.range(1, 5)));
    }
    if let Some(j) = shape.dup_class {
        src.push_str(&format!("class C{j} {{ }}\n"));
    }
    if shape.no_class {
        return src;
    }
    let parent = match i {
        0 => String::new(),
        _ if rng.chance(0.4) => format!(" extends C{}", rng.below(i as u64)),
        _ => String::new(),
    };
    src.push_str(&format!("class C{i}{parent} {{\n  field n = {i};\n"));
    let ops = rng.range(1, 3) as usize;
    for m in 0..ops {
        let x = rng.below(n as u64);
        src.push_str(&format!(
            "  method op{m}(p) throws X{x} {{ if (p < {m}) {{ throw new X{x}(\"flaky\"); }} return p; }}\n"
        ));
    }
    if shape.dup_method {
        src.push_str("  method op0(p) { return 0; }\n");
    }
    for r in 0..rng.range(0, 3) {
        let x = if shape.unknown_exception && r == 0 {
            "Nope".to_string()
        } else {
            format!("X{}", rng.below(n as u64))
        };
        let callee = match rng.below(3) {
            0 => format!("new C{}().op0(p)", rng.below(n as u64)),
            _ => format!("this.op{}(p)", rng.below(ops as u64)),
        };
        let cond = match rng.below(2) {
            0 => "retry < 3",
            _ => "true",
        };
        let handler = match rng.below(3) {
            0 => "sleep(10);",
            1 => "log(\"again\");",
            _ => "this.n = this.n + 1;",
        };
        let vocabulary = *rng.pick(&["// retry on transient errors", "// poll until ready", ""]);
        src.push_str(&format!(
            "  method run{r}(p) {{\n    {vocabulary}\n    for (var retry = 0; {cond}; retry = retry + 1) {{\n      \
             try {{ return {callee}; }} catch ({x} e) {{ {handler} }}\n    }}\n    return null;\n  }}\n"
        ));
    }
    if rng.chance(0.5) {
        src.push_str(&format!("  test t{i}() {{ var c = new C{i}(); assert(c.op0(1) == 1); }}\n"));
    }
    src.push_str("}\n");
    if let Some(cut) = shape.truncate {
        let mut at = (src.len() as f64 * cut) as usize;
        while !src.is_char_boundary(at) {
            at -= 1;
        }
        src.truncate(at);
    }
    src
}

/// A random edit of file `i`: a regenerated file, or one that fails to
/// parse, declares something twice, names an undeclared exception, or
/// drops a declaration other files use.
fn gen_incr_edit(rng: &mut Rng, i: usize, n: usize) -> String {
    let mut shape = IncrShape::default();
    match rng.below(8) {
        0 => shape.no_exception = true,
        1 => shape.no_class = true,
        2 => shape.dup_method = true,
        3 => shape.unknown_exception = true,
        4 => shape.dup_class = Some(rng.below(n as u64) as usize),
        5 => shape.truncate = Some(rng.unit()),
        _ => {}
    }
    gen_incr_file(rng, i, n, shape)
}

/// Two compile results agree: the same diagnostics in the same order, or
/// the same files, symbols and index.
fn assert_same_result(
    label: &str,
    got: &Result<wasabi::lang::project::Project, Vec<wasabi::lang::error::Diagnostic>>,
    want: &Result<wasabi::lang::project::Project, Vec<wasabi::lang::error::Diagnostic>>,
) {
    match (got, want) {
        (Err(got), Err(want)) => assert_eq!(got, want, "{label}: diagnostics"),
        (Ok(got), Ok(want)) => {
            assert_eq!(got.name, want.name, "{label}: name");
            assert_eq!(got.files.len(), want.files.len(), "{label}: file count");
            for (f, (a, b)) in got.files.iter().zip(&want.files).enumerate() {
                assert_eq!(a.path, b.path, "{label}: file {f} path");
                assert_eq!(a.source, b.source, "{label}: file {f} source");
                assert!(a.items == b.items, "{label}: file {f} items");
            }
            assert!(got.symbols == want.symbols, "{label}: symbols");
            assert!(*got.index == *want.index, "{label}: index tables");
        }
        (got, want) => panic!(
            "{label}: got a compile that {} but expected one that {}",
            if got.is_ok() { "succeeds" } else { "fails" },
            if want.is_ok() { "succeeds" } else { "fails" },
        ),
    }
}

/// `incremental` (from [`Project::with_file_replaced`] on `base`) equals
/// `full` (a compile of the patched sources): the same errors, or the same
/// files, symbols and index, with every file but `edited` shared with
/// `base`.
fn assert_same_compile(
    label: &str,
    base: &wasabi::lang::project::Project,
    edited: usize,
    incremental: &Result<wasabi::lang::project::Project, Vec<wasabi::lang::error::Diagnostic>>,
    full: &Result<wasabi::lang::project::Project, Vec<wasabi::lang::error::Diagnostic>>,
) {
    assert_same_result(label, incremental, full);
    if let Ok(inc) = incremental {
        for (f, file) in inc.files.iter().enumerate() {
            assert_eq!(
                f != edited,
                std::sync::Arc::ptr_eq(file, &base.files[f]),
                "{label}: file {f} shared iff not edited"
            );
        }
    }
}

/// [`reidentify_file`](wasabi::core::reidentify_file) on the incremental
/// project equals `identify` on the full compile: the sweep's retry files,
/// findings and usage, and the identified loops, coordinators and
/// locations.
fn assert_same_identified(
    label: &str,
    incremental: &wasabi::core::Identified,
    full: &wasabi::core::Identified,
) {
    let (inc, all) = (&incremental.llm_sweep, &full.llm_sweep);
    assert_eq!(inc.retry_files, all.retry_files, "{label}: retry files");
    assert_eq!(inc.findings, all.findings, "{label}: findings");
    assert_eq!(inc.usage, all.usage, "{label}: usage");
    assert_eq!(
        format!("{:?}", incremental.codeql_loops),
        format!("{:?}", full.codeql_loops),
        "{label}: loops"
    );
    assert_eq!(
        incremental.llm_coordinators, full.llm_coordinators,
        "{label}: coordinators"
    );
    assert_eq!(incremental.locations, full.locations, "{label}: locations");
}

/// Replacing one file of a compiled project equals compiling the patched
/// sources, and re-asking the LLM about that file alone equals sweeping
/// the whole patched project. Random multi-file programs take chains of
/// random single-file edits; an edit that compiles becomes the base of the
/// next (as an accepted repair candidate does), one that fails leaves the
/// base as it was (as a rejected one does).
#[test]
fn file_replacement_matches_full_recompile() {
    use wasabi::core::{identify, reidentify_file, SimulatedLlm};
    use wasabi::lang::project::{FileId, Project};

    let (mut accepted, mut rejected, mut resized) = (0usize, 0usize, 0usize);
    for case in 0..150u64 {
        let mut rng = Rng::new(0x1ac2_0000 + case);
        let seed = rng.below(1 << 16);
        let n = rng.range(2, 6) as usize;
        let mut sources: Vec<(String, String)> = (0..n)
            .map(|i| (format!("f{i}.jav"), gen_incr_file(&mut rng, i, n, IncrShape::default())))
            .collect();
        let mut base = Project::compile("incr", sources.clone())
            .unwrap_or_else(|e| panic!("[case {case}] base does not compile: {e:?}"));
        let mut identified = identify(&base, &mut SimulatedLlm::with_seed(seed));
        for step in 0..4 {
            let label = format!("[case {case} step {step}]");
            let edited = rng.below(n as u64) as usize;
            let text = gen_incr_edit(&mut rng, edited, n);
            let mut patched = sources.clone();
            patched[edited].1 = text.clone();
            let incremental = base.with_file_replaced(&sources[edited].0, text.as_str());
            let full = Project::compile("incr", patched.clone());
            assert_same_compile(&label, &base, edited, &incremental, &full);
            let (Ok(incremental), Ok(full)) = (incremental, full) else {
                rejected += 1;
                continue;
            };
            let next = reidentify_file(
                &incremental,
                &identified,
                FileId(edited as u32),
                &base.files[edited],
                &mut SimulatedLlm::with_seed(seed),
            );
            assert_same_identified(
                &label,
                &next,
                &identify(&full, &mut SimulatedLlm::with_seed(seed)),
            );
            resized += (next.llm_sweep.retry_files.len() != identified.llm_sweep.retry_files.len())
                as usize;
            accepted += 1;
            sources = patched;
            base = incremental;
            identified = next;
        }
    }
    // Not vacuous: both outcomes occur, and edits moved files in and out
    // of the sweep's retry list.
    assert!(accepted > 150, "only {accepted} edits compiled");
    assert!(rejected > 200, "only {rejected} edits failed to compile");
    assert!(resized > 50, "only {resized} edits changed the retry file count");
}

/// The same agreement on the patches repair really makes: every template
/// for every W001, W002 and A001 diagnostic of the tiny-scale corpus apps
/// (amplification seeds included), synthesized against the app as
/// generated.
#[test]
fn repair_patches_match_full_recompile_on_corpus() {
    use wasabi::analysis::checkers::{lint_project, LintOptions};
    use wasabi::analysis::patchsite::{amp_sites_for, patch_site_for};
    use wasabi::core::{identify, reidentify_file, SimulatedLlm};
    use wasabi::corpus::spec::{paper_apps, Scale};
    use wasabi::corpus::synth::generate_app_with_amp;
    use wasabi::lang::project::{FileId, Project};
    use wasabi::repair::{synthesize, templates_for};

    let mut patches = 0usize;
    for spec in paper_apps() {
        let app = generate_app_with_amp(&spec, Scale::Tiny);
        let seed = app.spec.seed;
        let base = Project::compile(app.spec.name, app.files.clone()).expect("corpus compiles");
        let identified = identify(&base, &mut SimulatedLlm::with_seed(seed));
        let lint_opts = LintOptions {
            ifratio: false,
            ..LintOptions::default()
        };
        let lint = lint_project(&base, &lint_opts);
        for diag in &lint.diagnostics {
            let resolved = match diag.code {
                "A001" => amp_sites_for(&base, diag, &lint_opts.loops)
                    .map(|(outer, inner)| (outer, Some(inner))),
                "W001" | "W002" => {
                    patch_site_for(&base, diag, &lint_opts.loops).map(|site| (site, None))
                }
                _ => continue,
            };
            let Some((site, inner)) = resolved else { continue };
            for template in templates_for(diag.code) {
                let Ok(patch) = synthesize(*template, &base, &site, inner.as_ref()) else {
                    continue;
                };
                let label = format!("[{} {} {}]", spec.short, diag.coordinator, template.name());
                let edited = base
                    .files
                    .iter()
                    .position(|f| f.path == patch.path)
                    .expect("patch names a project file");
                let mut patched = app.files.clone();
                patched[edited].1 = patch.source.clone();
                let incremental = base.with_file_replaced(&patch.path, patch.source.as_str());
                let full = Project::compile(app.spec.name, patched);
                assert_same_compile(&label, &base, edited, &incremental, &full);
                let (Ok(incremental), Ok(full)) = (incremental, full) else {
                    continue;
                };
                assert_same_identified(
                    &label,
                    &reidentify_file(
                        &incremental,
                        &identified,
                        FileId(edited as u32),
                        &base.files[edited],
                        &mut SimulatedLlm::with_seed(seed),
                    ),
                    &identify(&full, &mut SimulatedLlm::with_seed(seed)),
                );
                patches += 1;
            }
        }
    }
    assert!(patches > 100, "only {patches} corpus patches compiled");
}

// ---- Overlapped front end ---------------------------------------------------

/// `compile_app`, which digests and sweeps the raw sources on a helper
/// thread while this one parses and links, equals the serial composition
/// `source_digest`, `Project::compile`, `identify`: the same diagnostics,
/// or the same digest, project and identification. Returns the overlapped
/// result.
fn assert_overlap_matches_serial(
    label: &str,
    name: &str,
    sources: &[(String, String)],
    seed: u64,
) -> Result<wasabi::core::AppJob, Vec<wasabi::lang::error::Diagnostic>> {
    use wasabi::core::{compile_app, identify, source_digest, SimulatedLlm};
    use wasabi::lang::project::Project;

    let overlapped = compile_app(name, sources.to_vec(), seed);
    let serial = Project::compile(name, sources.to_vec());
    let project = overlapped
        .as_ref()
        .map(|job| job.project.clone())
        .map_err(Clone::clone);
    assert_same_result(label, &project, &serial);
    if let (Ok(job), Ok(serial)) = (&overlapped, serial) {
        assert_eq!(job.name, name, "{label}: name");
        assert_eq!(job.digest, source_digest(name, sources), "{label}: digest");
        assert_same_identified(
            label,
            &job.identified,
            &identify(&serial, &mut SimulatedLlm::with_seed(seed)),
        );
    }
    overlapped
}

/// The overlapped `compile_app` equals the serial composition on random
/// multi-file programs, including ones where a file fails to parse or the
/// program fails to validate.
#[test]
fn overlapped_compile_app_matches_serial_composition() {
    let (mut compiled, mut failed, mut swept) = (0usize, 0usize, 0usize);
    for case in 0..150u64 {
        let mut rng = Rng::new(0x0e71_a900 + case);
        let seed = rng.below(1 << 16);
        let n = rng.range(1, 6) as usize;
        let mut sources: Vec<(String, String)> = (0..n)
            .map(|i| {
                (
                    format!("f{i}.jav"),
                    gen_incr_file(&mut rng, i, n, IncrShape::default()),
                )
            })
            .collect();
        if rng.chance(0.5) {
            let broken = rng.below(n as u64) as usize;
            sources[broken].1 = gen_incr_edit(&mut rng, broken, n);
        }
        let label = format!("[case {case}]");
        match assert_overlap_matches_serial(&label, "overlap", &sources, seed) {
            Ok(job) => {
                compiled += 1;
                swept += !job.identified.llm_sweep.retry_files.is_empty() as usize;
            }
            Err(_) => failed += 1,
        }
    }
    // Not vacuous: both outcomes occur, and most compiled programs have
    // files the sweep flags.
    assert!(compiled > 60, "only {compiled} programs compiled");
    assert!(failed > 30, "only {failed} programs failed to compile");
    assert!(
        swept > compiled / 2,
        "only {swept} of {compiled} sweeps flagged a file"
    );
}

/// The same agreement on the eight tiny-scale corpus apps with their
/// amplification and policy seeds, at each app's LLM seed.
#[test]
fn overlapped_compile_app_matches_serial_composition_on_corpus() {
    use wasabi::corpus::spec::{paper_apps, Scale};
    use wasabi::corpus::synth::{append_policy_seeds, generate_app_with_amp};

    for spec in paper_apps() {
        let mut app = generate_app_with_amp(&spec, Scale::Tiny);
        append_policy_seeds(&mut app);
        let label = format!("[{}]", spec.short);
        let job = assert_overlap_matches_serial(&label, app.spec.name, &app.files, app.spec.seed)
            .expect("corpus compiles");
        assert!(
            job.identified.llm_sweep.usage.calls > 0,
            "{label}: the sweep ran"
        );
        assert!(
            !job.identified.locations.is_empty(),
            "{label}: locations found"
        );
    }
}

// ---- Demand-driven lint ----------------------------------------------------

/// A [`gen_prefilter_program`] (worker classes sharing method names,
/// factory-returned receivers, retry coordinators, `this` calls) plus
/// subclasses `S{c}` that override some of `K{c}`'s methods, and a holder
/// `H` whose field `k` is typed by its initialiser and may be poisoned by
/// an assignment in another method, so call resolution depends on
/// whole-program field typing.
fn gen_demand_program(rng: &mut Rng) -> String {
    let mut src = gen_prefilter_program(rng, false);
    let classes = (0..)
        .take_while(|c| src.contains(&format!("class K{c} ")))
        .count();
    let methods = (0..)
        .take_while(|i| src.contains(&format!("method m{i}(p)")))
        .count();
    for c in 0..classes {
        if rng.chance(0.5) {
            continue;
        }
        src.push_str(&format!("class S{c} extends K{c} {{\n"));
        for i in 0..methods {
            if rng.chance(0.5) {
                let body = gen_throwy_method(rng, i, methods, 2);
                src.push_str(&format!(" method m{i}(p) {{ {body}\n return 1; }}\n"));
            }
        }
        src.push_str("}\n");
    }
    let (a, b) = (rng.below(classes as u64), rng.below(classes as u64));
    let reset = if rng.chance(0.5) {
        format!(" method reset() {{ this.k = new K{b}(); }}\n")
    } else {
        String::new()
    };
    src.push_str(&format!(
        "class H {{\n field k = new K{a}();\n{reset} method use(p) {{ return this.k.m0(p); }}\n \
         method made(p) {{ var o = new F().make(p); return o.m0(p); }}\n}}\n"
    ));
    src
}

/// The call graph built from random roots resolves exactly the callee
/// closure of the roots, gives every resolved method the calls and callees
/// the whole-program graph gives it, and the summaries solved over it
/// equal the whole-program summaries on every resolved method.
#[test]
fn demand_driven_call_graph_matches_the_whole_program_graph() {
    use wasabi::analysis::callgraph::CallGraph;
    use wasabi::analysis::summaries::{AttemptBound, Summaries};
    use wasabi::lang::project::Project;

    let (mut partial, mut fanned_out) = (0usize, 0usize);
    for case in 0..120u64 {
        let mut rng = Rng::new(0xde3a_0000 + case);
        let source = gen_demand_program(&mut rng);
        let project = Project::compile("demand", vec![("d.jav", source.clone())])
            .unwrap_or_else(|e| panic!("[case {case}] compile failed: {e:?}\n{source}"));
        let n = project.index.methods.len() as u32;
        let full = CallGraph::build(&project);
        let bounds = [
            AttemptBound::Bounded(3),
            AttemptBound::Capped,
            AttemptBound::Unbounded,
        ];
        let mut local_retry: Vec<(u32, AttemptBound)> = Vec::new();
        for m in 0..n {
            if rng.chance(0.2) {
                local_retry.push((m, *rng.pick(&bounds)));
            }
        }
        let jobs = rng.range(1, 3) as usize;
        let full_summaries = Summaries::compute(&project, &full, &local_retry, jobs);

        for draw in 0..4 {
            let label = format!("[case {case} draw {draw}]");
            let roots: Vec<u32> = (0..rng.range(1, 4))
                .map(|_| rng.below(n as u64) as u32)
                .collect();
            let rooted = CallGraph::from_roots(&project, roots.iter().copied());

            // The callee closure of the roots over the full graph.
            let mut closure = vec![false; n as usize];
            let mut stack = roots.clone();
            while let Some(m) = stack.pop() {
                if !std::mem::replace(&mut closure[m as usize], true) {
                    stack.extend(full.callees[m as usize].iter().copied());
                }
            }
            assert_eq!(rooted.resolved, closure, "{label}: resolved set\n{source}");
            partial += closure.iter().any(|r| !r) as usize;

            let summaries = Summaries::compute(&project, &rooted, &local_retry, jobs);
            for m in (0..n).filter(|&m| closure[m as usize]) {
                let at = m as usize;
                let name = project.index.method_display(m);
                assert_eq!(
                    format!("{:?}", rooted.calls[at]),
                    format!("{:?}", full.calls[at]),
                    "{label}: calls of {name}\n{source}"
                );
                assert_eq!(
                    rooted.callees[at], full.callees[at],
                    "{label}: callees of {name}"
                );
                assert_eq!(
                    summaries.get(m),
                    full_summaries.get(m),
                    "{label}: summary of {name}\n{source}"
                );
                fanned_out += full.calls[at].iter().any(|c| c.targets.len() > 1) as usize;
            }
        }
    }
    // Not vacuous: roots usually reach part of the program, and resolved
    // methods make calls with several possible targets.
    assert!(
        partial > 300,
        "only {partial} root sets left methods unresolved"
    );
    assert!(
        fanned_out > 150,
        "only {fanned_out} resolved methods fan out"
    );
}

/// A program of classes `A{c}` (some extending the previous one and
/// overriding its methods) whose `run{r}` loops catch `T` and retry an
/// operation, another class's or their own `run`, or a nested loop; the
/// loop variable gives keyword evidence only sometimes, so the keyword
/// filter changes which loops count.
fn gen_amp_program(rng: &mut Rng) -> String {
    let classes = rng.range(2, 5) as usize;
    let runs = rng.range(1, 4) as usize;
    let mut src = String::from("exception T;\n");
    for c in 0..classes {
        let parent = if c > 0 && rng.chance(0.3) {
            format!(" extends A{}", c - 1)
        } else {
            String::new()
        };
        src.push_str(&format!(
            "class A{c}{parent} {{\n method op(p) throws T {{ if (p < {c}) {{ throw new T(\"x\"); }} return p; }}\n"
        ));
        for r in 0..runs {
            let var = *rng.pick(&["retry", "retries", "i", "n"]);
            let cond = if rng.chance(0.6) {
                format!("{var} < {}", rng.range(2, 6))
            } else {
                "true".to_string()
            };
            let other = rng.below(runs as u64);
            let body = match rng.below(5) {
                0 => "return this.op(p);".to_string(),
                1 => format!("return this.run{other}(p);"),
                2 => format!("return new A{}().run{other}(p);", rng.below(classes as u64)),
                3 => {
                    let inner = *rng.pick(&["retry", "attempt"]);
                    format!(
                        "for (var {inner} = 0; {inner} < 2; {inner} = {inner} + 1) {{ \
                         try {{ return this.op(p); }} catch (T e2) {{ log(\"inner\"); }} }}\n \
                         return this.op(p);"
                    )
                }
                _ => format!("return new A{}().op(p);", rng.below(classes as u64)),
            };
            let handler = *rng.pick(&["sleep(10);", "log(\"again\");"]);
            src.push_str(&format!(
                " method run{r}(p) {{\n  for (var {var} = 0; {cond}; {var} = {var} + 1) {{\n   \
                 try {{ {body} }} catch (T e) {{ {handler} }}\n  }}\n  return null;\n }}\n"
            ));
        }
        src.push_str("}\n");
    }
    src
}

/// The retry-loop query patch-site resolution used to run: the loops
/// under `options`, then, with the keyword filter on, the loops only the
/// relaxed filter finds.
fn strict_then_relaxed_loops(
    project: &wasabi::lang::project::Project,
    options: &wasabi::analysis::loops::LoopQueryOptions,
) -> Vec<wasabi::analysis::loops::RetryLoop> {
    use wasabi::analysis::loops::{find_retry_loops, LoopQueryOptions};
    use wasabi::analysis::resolve::ProjectIndex;
    let index = ProjectIndex::build(project);
    let mut loops = find_retry_loops(&index, options);
    if options.keyword_filter {
        let relaxed = LoopQueryOptions {
            keyword_filter: false,
            ..options.clone()
        };
        for rl in find_retry_loops(&index, &relaxed) {
            if !loops
                .iter()
                .any(|have| have.file == rl.file && have.loop_id == rl.loop_id)
            {
                loops.push(rl);
            }
        }
    }
    loops
}

/// Every W001, W002 and A001 diagnostic of `lint` resolves over `loops`
/// (the lint run's own retry loops), to the same sites the strict-then-
/// relaxed search finds. Returns how many A001 findings it checked.
fn assert_sites_resolve_over_own_loops(
    label: &str,
    project: &wasabi::lang::project::Project,
    lint: &wasabi::analysis::checkers::LintResult,
    loops: &[wasabi::analysis::loops::RetryLoop],
    options: &wasabi::analysis::loops::LoopQueryOptions,
) -> usize {
    use wasabi::analysis::patchsite::{amp_sites_in, patch_site_in};
    let old = strict_then_relaxed_loops(project, options);
    let mut amps = 0;
    for diag in &lint.diagnostics {
        let fingerprint = diag.fingerprint();
        match diag.code {
            "A001" => {
                let got = amp_sites_in(project, loops, diag);
                assert!(got.is_some(), "{label}: {fingerprint} does not resolve");
                assert_eq!(
                    got,
                    amp_sites_in(project, &old, diag),
                    "{label}: {fingerprint}"
                );
                amps += 1;
            }
            "W001" | "W002" => {
                let got = patch_site_in(project, loops, diag);
                assert!(got.is_some(), "{label}: {fingerprint} does not resolve");
                assert_eq!(
                    got,
                    patch_site_in(project, &old, diag),
                    "{label}: {fingerprint}"
                );
            }
            _ => {}
        }
    }
    amps
}

/// Lint over the loops it finds itself resolves every retry finding to a
/// loop without a relaxed second query, on random amplification programs
/// under both keyword-filter settings: the sites equal what the old
/// strict-then-relaxed search found.
#[test]
fn strict_site_resolution_always_succeeds() {
    use wasabi::analysis::checkers::{lint_with_loops, LintOptions};
    use wasabi::analysis::loops::{find_retry_loops, LoopQueryOptions};
    use wasabi::analysis::resolve::ProjectIndex;
    use wasabi::lang::project::Project;

    let (mut amps, mut relaxed_extra) = (0usize, 0usize);
    for case in 0..200u64 {
        let mut rng = Rng::new(0x517e_0000 + case);
        let source = gen_amp_program(&mut rng);
        let project = Project::compile("amp", vec![("a.jav", source.clone())])
            .unwrap_or_else(|e| panic!("[case {case}] compile failed: {e:?}\n{source}"));
        for keyword_filter in [true, false] {
            let options = LintOptions {
                loops: LoopQueryOptions {
                    keyword_filter,
                    ..LoopQueryOptions::default()
                },
                ..LintOptions::default()
            };
            let loops = find_retry_loops(&ProjectIndex::build(&project), &options.loops);
            let lint = lint_with_loops(&project, &loops, &options);
            let label = format!("[case {case} keyword_filter {keyword_filter}]");
            amps += assert_sites_resolve_over_own_loops(
                &label,
                &project,
                &lint,
                &loops,
                &options.loops,
            );
            relaxed_extra +=
                (strict_then_relaxed_loops(&project, &options.loops).len() > loops.len()) as usize;
        }
    }
    // Not vacuous: amplification findings occur, and the relaxed query
    // does find loops the strict one does not.
    assert!(amps > 100, "only {amps} A001 findings");
    assert!(
        relaxed_extra > 50,
        "only {relaxed_extra} programs with relaxed-only loops"
    );
}

/// Each repair state's retry loops stand in for lint's own query: on the
/// tiny corpus apps (amplification seeds included), and after each patch
/// of a chain of accepted template patches, lint over the static
/// identification's loops equals `lint_project` (diagnostics and loop
/// facts), and every W001, W002 and A001 diagnostic resolves over those
/// loops to the site the old strict-then-relaxed search found.
#[test]
fn lint_over_identified_loops_matches_lint_project_on_corpus() {
    use wasabi::analysis::checkers::{lint_project, lint_with_loops, LintOptions};
    use wasabi::analysis::patchsite::{amp_sites_in, patch_site_in};
    use wasabi::core::{identify, SimulatedLlm};
    use wasabi::corpus::spec::{paper_apps, Scale};
    use wasabi::corpus::synth::generate_app_with_amp;
    use wasabi::lang::project::Project;
    use wasabi::repair::{synthesize, templates_for};

    let (mut states, mut amps) = (0usize, 0usize);
    for spec in paper_apps() {
        let app = generate_app_with_amp(&spec, Scale::Tiny);
        let seed = app.spec.seed;
        let mut project =
            Project::compile(app.spec.name, app.files.clone()).expect("corpus compiles");
        let lint_opts = LintOptions {
            ifratio: false,
            ..LintOptions::default()
        };
        for step in 0..6 {
            let label = format!("[{} step {step}]", spec.short);
            let identified = identify(&project, &mut SimulatedLlm::with_seed(seed));
            let reused = lint_with_loops(&project, &identified.codeql_loops, &lint_opts);
            let fresh = lint_project(&project, &lint_opts);
            assert_eq!(
                reused.diagnostics, fresh.diagnostics,
                "{label}: diagnostics"
            );
            assert_eq!(
                format!("{:?}", reused.loops),
                format!("{:?}", fresh.loops),
                "{label}: loop facts"
            );
            amps += assert_sites_resolve_over_own_loops(
                &label,
                &project,
                &reused,
                &identified.codeql_loops,
                &lint_opts.loops,
            );
            states += 1;

            // Accept the first template patch that compiles, as repair
            // would, rotating through the diagnostics as the chain grows.
            let targets: Vec<_> = reused
                .diagnostics
                .iter()
                .filter(|d| matches!(d.code, "W001" | "W002" | "A001"))
                .collect();
            let mut next = None;
            for diag in targets.iter().cycle().skip(step).take(targets.len()) {
                let loops = &identified.codeql_loops;
                let sites = match diag.code {
                    "A001" => amp_sites_in(&project, loops, diag).map(|(o, i)| (o, Some(i))),
                    _ => patch_site_in(&project, loops, diag).map(|site| (site, None)),
                };
                let Some((site, inner)) = sites else { continue };
                for template in templates_for(diag.code) {
                    let Ok(patch) = synthesize(*template, &project, &site, inner.as_ref()) else {
                        continue;
                    };
                    if let Ok(patched) =
                        project.with_file_replaced(&patch.path, patch.source.as_str())
                    {
                        next = Some(patched);
                        break;
                    }
                }
                if next.is_some() {
                    break;
                }
            }
            match next {
                Some(patched) => project = patched,
                None => break,
            }
        }
    }
    assert!(states > 40, "only {states} repair states checked");
    assert!(amps > 20, "only {amps} A001 findings resolved");
}

// ---- Decoder totality ------------------------------------------------------

/// Valid documents for every wire/disk decoder, produced by the real
/// writers from a small campaign: serve request lines, journal run
/// records, dead-letter records, and a trace file.
struct DecoderSeeds {
    requests: Vec<String>,
    records: Vec<String>,
    dead_letters: Vec<String>,
    manifests: Vec<String>,
    trace: String,
}

fn decoder_seeds() -> DecoderSeeds {
    use wasabi::core::dynamic::{run_dynamic_with_observer, DynamicOptions};
    use wasabi::core::identify::identify;
    use wasabi::engine::journal::{dead_letter_to_json, record_from_json, DeadLetter};
    use wasabi::engine::shard::{manifest_to_json, partition, ShardManifest};
    use wasabi::engine::spans::render_trace;
    use wasabi::engine::MetricsObserver;
    use wasabi::lang::project::Project;
    use wasabi::llm::simulated::SimulatedLlm;
    use wasabi::serve::protocol::{render_request, Request};

    const APP: &str = "\
exception E;\n\
class Flaky {\n\
  method op() throws E { return \"ok\"; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (E e) { log(\"retrying \u{e9}\"); }\n\
    }\n\
  }\n\
  test tFlaky() { assert(this.run() == \"ok\"); }\n\
}\n";
    let project =
        Project::compile("seeds", vec![("flaky.jav", APP.to_string())]).expect("seed app compiles");
    let identified = identify(&project, &mut SimulatedLlm::with_seed(0));
    let journal =
        std::env::temp_dir().join(format!("wasabi-decoder-seeds-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let options = DynamicOptions {
        journal: Some(journal.clone()),
        ..DynamicOptions::default()
    };
    let mut recorder = MetricsObserver::new();
    run_dynamic_with_observer(&project, &identified.locations, &options, &mut recorder);
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let _ = std::fs::remove_file(&journal);
    let records: Vec<String> = text
        .lines()
        .filter(|line| {
            Json::parse(line)
                .ok()
                .is_some_and(|value| record_from_json(&value).is_ok())
        })
        .map(str::to_string)
        .collect();
    assert!(!records.is_empty(), "seed campaign journaled no run records");
    let key = record_from_json(&Json::parse(&records[0]).expect("seed record")).expect("seed").key;
    let dead_letters = ["bisected", "restart cap exhausted"]
        .iter()
        .map(|reason| {
            dead_letter_to_json(&DeadLetter {
                key: key.clone(),
                shard: 3,
                exit: "signal 9".to_string(),
                restarts: 2,
                reason: reason.to_string(),
            })
            .to_string()
        })
        .collect();
    let requests = [
        Request::Submit {
            name: "cli".to_string(),
            priority: 5,
            files: vec![("flaky.jav".to_string(), APP.to_string())],
            jobs: Some(2),
            shards: Some(4),
        },
        Request::Status { id: 7 },
        Request::Cancel { id: 7 },
        Request::Subscribe { id: 7 },
        Request::Wait { id: 7 },
        Request::Stats,
        Request::Shutdown {
            drain: true,
            deadline_ms: Some(250),
        },
    ]
    .iter()
    .map(render_request)
    .collect();
    let manifests = [(0, 1), (12, 3), (5, 2)]
        .iter()
        .map(|&(total_runs, shards)| {
            manifest_to_json(&ShardManifest {
                shards,
                total_runs,
                ranges: partition(total_runs, shards),
                source_digest: 0x0123_4567_89ab_cdef,
                files: vec!["flaky.jav".to_string(), "dir/other.jav".to_string()],
            })
            .to_string()
        })
        .collect();
    DecoderSeeds {
        requests,
        records,
        dead_letters,
        manifests,
        trace: render_trace("seeds", recorder.phases(), recorder.runs()),
    }
}

/// Text fragments that have broken decoders before: nesting far past any
/// stack, lone/invalid surrogates, signed `\u` escapes, and out-of-range
/// numbers.
fn gen_hostile_fragment(rng: &mut Rng) -> String {
    const ESCAPES: &[&str] = &[
        "\\uD800\\u0000",
        "\\uDBFF\\uE000",
        "\\uD800\\uD800",
        "\\uD800",
        "\\uDC00",
        "\\u+041",
        "\\u-041",
        "\\u004",
        "\\u",
    ];
    match rng.below(6) {
        0 => "[".repeat(1 + rng.below(100_000) as usize),
        1 => "{\"a\":".repeat(1 + rng.below(20_000) as usize),
        2 => format!("\"{}\"", rng.pick(ESCAPES)),
        3 => rng.pick(ESCAPES).to_string(),
        4 => rng
            .pick(&["99999999999999999999", "-9223372036854775809", "-1", "1e999", "-0.5"])
            .to_string(),
        _ => gen_garbage(rng, 40),
    }
}

/// Arbitrary bytes (not necessarily UTF-8), rendered lossily: the
/// decoders take `&str`, as they do after a line read.
fn gen_bytes(rng: &mut Rng, max_len: usize) -> String {
    let len = rng.below(max_len as u64 + 1) as usize;
    let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One SplitMix64-driven edit of a valid document's text.
fn mutate_text(rng: &mut Rng, doc: &str) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let at = |rng: &mut Rng, len: usize| rng.below(len as u64 + 1) as usize;
    for _ in 0..1 + rng.below(3) {
        let len = bytes.len();
        match rng.below(7) {
            0 if len > 0 => {
                let i = at(rng, len - 1);
                bytes[i] = rng.below(256) as u8;
            }
            1 => {
                let (a, b) = (at(rng, len), at(rng, len));
                bytes.drain(a.min(b)..a.max(b));
            }
            2 => {
                let (a, b) = (at(rng, len), at(rng, len));
                let copy = bytes[a.min(b)..a.max(b)].to_vec();
                let i = at(rng, len);
                bytes.splice(i..i, copy);
            }
            3 => bytes.truncate(at(rng, len)),
            _ => {
                // Splice a hostile fragment, preferably right after a
                // quote so escapes land inside a string.
                let quotes: Vec<usize> = (0..len).filter(|&i| bytes[i] == b'"').collect();
                let i = if !quotes.is_empty() && rng.chance(0.5) {
                    quotes[rng.below(quotes.len() as u64) as usize] + 1
                } else {
                    at(rng, len)
                };
                let fragment = gen_hostile_fragment(rng);
                bytes.splice(i..i, fragment.into_bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A random JSON value, including shapes and magnitudes no writer emits.
fn gen_json(rng: &mut Rng, depth: u32) -> Json {
    match rng.below(if depth == 0 { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(0.5)),
        2 => Json::Int(*rng.pick(&[0, 1, -1, 7, i64::MAX, i64::MIN, u32::MAX as i64 + 1])),
        3 => Json::Float(*rng.pick(&[0.5, -1.0, 1e300, f64::NAN, f64::INFINITY])),
        4 => Json::from(gen_garbage(rng, 12)),
        5 => Json::from(*rng.pick(&["ok", "crashed", "timed_out", "bisected", "submit", "cli"])),
        6 => Json::arr((0..rng.below(4)).map(|_| gen_json(rng, depth - 1))),
        _ => Json::obj((0..rng.below(4)).map(|_| (gen_garbage(rng, 6), gen_json(rng, depth - 1)))),
    }
}

/// One structural edit of a valid value: replace a random node with a
/// random value, or drop a random object field.
fn mutate_value(rng: &mut Rng, value: &mut Json) {
    let descend = rng.chance(0.7);
    match value {
        Json::Obj(fields) if !fields.is_empty() => {
            let i = rng.below(fields.len() as u64) as usize;
            if descend {
                mutate_value(rng, &mut fields[i].1);
            } else if rng.chance(0.5) {
                fields.remove(i);
            } else {
                fields[i].1 = gen_json(rng, 2);
            }
        }
        Json::Arr(items) if !items.is_empty() && descend => {
            let i = rng.below(items.len() as u64) as usize;
            mutate_value(rng, &mut items[i]);
        }
        _ => *value = gen_json(rng, 2),
    }
}

/// Runs `decode` on `input`; a panic fails the test with the case and a
/// prefix of the offending input.
fn assert_total<T>(
    what: &str,
    case: u64,
    input: &str,
    decode: impl FnOnce(&str) -> Result<T, String>,
) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = decode(input);
    }));
    if outcome.is_err() {
        let prefix: String = input.chars().take(160).collect();
        panic!("[{what} case {case}] decoder panicked on input starting {prefix:?}");
    }
}

/// Every decoder of wire or disk bytes is total: random bytes, hostile
/// fragments, and text and structural mutations of valid documents all
/// come back as `Ok` or `Err`, never a panic or a stack overflow.
#[test]
fn decoders_total_on_arbitrary_and_mutated_input() {
    use wasabi::engine::journal::{dead_letter_from_json, record_from_json};
    use wasabi::engine::shard::manifest_from_json;
    use wasabi::engine::spans::parse_trace;
    use wasabi::serve::protocol::parse_request;

    let seeds = decoder_seeds();
    // The seeds are valid to begin with, so mutations start inside the
    // decoders' accepted language.
    for line in &seeds.requests {
        parse_request(line).unwrap_or_else(|e| panic!("seed request rejected: {e}\n{line}"));
    }
    for line in &seeds.dead_letters {
        dead_letter_from_json(&Json::parse(line).expect("seed dead letter"))
            .unwrap_or_else(|e| panic!("seed dead letter rejected: {e}\n{line}"));
    }
    parse_trace(&seeds.trace).unwrap_or_else(|e| panic!("seed trace rejected: {e}"));
    for line in &seeds.manifests {
        manifest_from_json(&Json::parse(line).expect("seed manifest"))
            .unwrap_or_else(|e| panic!("seed manifest rejected: {e}\n{line}"));
    }
    // A shard count its ranges do not back is rejected up front, before
    // `wasabi merge` sizes anything by it.
    let oversized = seeds.manifests[1].replace("\"shards\":3", "\"shards\":1152921504606846976");
    assert_ne!(oversized, seeds.manifests[1]);
    assert!(manifest_from_json(&Json::parse(&oversized).unwrap()).is_err());

    let json_docs: Vec<&String> = seeds
        .requests
        .iter()
        .chain(&seeds.records)
        .chain(&seeds.dead_letters)
        .chain(&seeds.manifests)
        .collect();
    let record =
        |text: &str| -> Result<(), String> { record_from_json(&Json::parse(text)?).map(drop) };
    let dead_letter =
        |text: &str| -> Result<(), String> { dead_letter_from_json(&Json::parse(text)?).map(drop) };
    let manifest =
        |text: &str| -> Result<(), String> { manifest_from_json(&Json::parse(text)?).map(drop) };
    // A seed document after one to three structural mutations.
    let mutated = |rng: &mut Rng, docs: &[String]| {
        let mut value = Json::parse(rng.pick(docs).as_str()).expect("seed document parses");
        for _ in 0..1 + rng.below(3) {
            mutate_value(rng, &mut value);
        }
        value
    };
    let trace_lines: Vec<&str> = seeds.trace.lines().collect();

    for case in 0..400u64 {
        let mut rng = Rng::new(0xdec0_0000 + case);
        let input = match case % 4 {
            0 => gen_bytes(&mut rng, 300),
            1 => gen_hostile_fragment(&mut rng),
            _ => {
                let doc = *rng.pick(&json_docs);
                mutate_text(&mut rng, doc)
            }
        };
        assert_total("json", case, &input, Json::parse);
        assert_total("request", case, &input, parse_request);
        assert_total("record", case, &input, record);
        assert_total("dead letter", case, &input, dead_letter);
        assert_total("manifest", case, &input, manifest);
        assert_total("trace", case, &input, parse_trace);

        // Structural mutations reach past the JSON layer into the typed
        // decoders' field handling.
        let value = mutated(&mut rng, &seeds.requests);
        assert_total("request value", case, &value.to_string(), parse_request);
        let value = mutated(&mut rng, &seeds.records);
        assert_total("record value", case, &value.to_string(), |_| {
            record_from_json(&value).map(drop)
        });
        let value = mutated(&mut rng, &seeds.dead_letters);
        assert_total("dead letter value", case, &value.to_string(), |_| {
            dead_letter_from_json(&value).map(drop)
        });
        let value = mutated(&mut rng, &seeds.manifests);
        assert_total("manifest value", case, &value.to_string(), |_| {
            manifest_from_json(&value).map(drop)
        });

        // A trace with one line text-mutated and one value-mutated.
        let mut lines: Vec<String> = trace_lines.iter().map(|l| l.to_string()).collect();
        let i = rng.below(lines.len() as u64) as usize;
        lines[i] = mutate_text(&mut rng, &lines[i]);
        let j = rng.below(lines.len() as u64) as usize;
        if let Ok(mut value) = Json::parse(&lines[j]) {
            mutate_value(&mut rng, &mut value);
            lines[j] = value.to_string();
        }
        assert_total("trace mutation", case, &lines.join("\n"), parse_trace);
    }
}
