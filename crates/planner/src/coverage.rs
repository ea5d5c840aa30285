//! Coverage profiling: which unit test covers which retry location.
//!
//! WASABI instruments every retry location and runs the whole suite once
//! (§3.1.4). Here the instrumentation is a
//! [`wasabi_inject::CoverageRecorder`] attached to the interpreter.

use std::collections::{BTreeMap, BTreeSet};
use wasabi_analysis::loops::RetryLocation;
use wasabi_inject::CoverageRecorder;
use wasabi_lang::index::{visit_expr, visit_exprs, ClassId, Csr, LExpr, ProgramIndex};
use wasabi_lang::intern::Symbol;
use wasabi_lang::project::{CallSite, FileId, MethodId, Project};
use wasabi_vm::runner::{run_test, RunOptions};

/// The result of the profiling pass.
#[derive(Debug, Clone, Default)]
pub struct CoverageProfile {
    /// Sites covered by each test (only tests that cover at least one).
    pub per_test: BTreeMap<MethodId, Vec<CallSite>>,
    /// Tests covering each site.
    pub site_to_tests: BTreeMap<CallSite, Vec<MethodId>>,
    /// Total number of tests in the suite.
    pub tests_total: usize,
    /// Total virtual milliseconds spent profiling.
    pub profile_virtual_ms: u64,
}

impl CoverageProfile {
    /// Number of tests covering at least one retry location.
    pub fn tests_covering_retry(&self) -> usize {
        self.per_test.len()
    }

    /// Sites covered by at least one test.
    pub fn covered_sites(&self) -> BTreeSet<CallSite> {
        self.site_to_tests.keys().copied().collect()
    }
}

/// Runs every test once with coverage instrumentation on `locations`.
pub fn profile_coverage(
    project: &Project,
    locations: &[RetryLocation],
    options: &RunOptions,
) -> CoverageProfile {
    profile_coverage_jobs(project, locations, options, 1)
}

/// [`profile_coverage`] on `jobs` worker threads. Baseline executions are
/// independent (each test runs in its own interpreter with its own
/// recorder), so the suite is split into contiguous chunks and the
/// per-chunk results concatenated back in suite order — the resulting
/// profile is byte-identical to the serial one for any `jobs` value.
pub fn profile_coverage_jobs(
    project: &Project,
    locations: &[RetryLocation],
    options: &RunOptions,
    jobs: usize,
) -> CoverageProfile {
    let sites: BTreeSet<CallSite> = locations.iter().map(|l| l.site).collect();
    let tests = project.tests();
    let mut profile = CoverageProfile {
        tests_total: tests.len(),
        ..CoverageProfile::default()
    };
    // Static reachability prefilter: a test whose call graph provably
    // cannot reach any instrumented site would record empty coverage —
    // exactly what `per_test` drops below — so executing it buys nothing.
    // Large generated suites are mostly such filler (app HI: ~35k tests
    // for a handful of sites), which made the profile phase the dominant
    // cost of every campaign.
    let tests: Vec<(FileId, MethodId)> = match reachable_test_mask(project, &sites, &tests) {
        Some(mask) => tests
            .into_iter()
            .zip(mask)
            .filter_map(|(test, keep)| keep.then_some(test))
            .collect(),
        None => tests,
    };
    let jobs = jobs.max(1).min(tests.len().max(1));
    let per_test: Vec<(MethodId, Vec<CallSite>, u64)> = if jobs == 1 {
        profile_chunk(project, &sites, &tests, options)
    } else {
        let chunk_len = tests.len().div_ceil(jobs);
        let mut merged = Vec::with_capacity(tests.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = tests
                .chunks(chunk_len)
                .map(|chunk| {
                    let sites = &sites;
                    scope.spawn(move || profile_chunk(project, sites, chunk, options))
                })
                .collect();
            for handle in handles {
                merged.extend(handle.join().expect("profile worker panicked"));
            }
        });
        merged
    };
    for (test, covered, virtual_ms) in per_test {
        profile.profile_virtual_ms += virtual_ms;
        if covered.is_empty() {
            continue;
        }
        for site in &covered {
            profile
                .site_to_tests
                .entry(*site)
                .or_default()
                .push(test.clone());
        }
        profile.per_test.insert(test, covered);
    }
    profile
}

/// Profiles one contiguous chunk of the suite, returning `(test, covered
/// sites, virtual ms)` in chunk order.
fn profile_chunk(
    project: &Project,
    sites: &BTreeSet<CallSite>,
    tests: &[(FileId, MethodId)],
    options: &RunOptions,
) -> Vec<(MethodId, Vec<CallSite>, u64)> {
    let mut recorder = CoverageRecorder::new(sites.iter().copied());
    tests
        .iter()
        .map(|(_, test)| {
            recorder.reset();
            let run = run_test(project, test, &mut recorder, options);
            (test.clone(), recorder.covered(), run.virtual_ms)
        })
        .collect()
}

/// Which suite tests can possibly reach one of the instrumented sites,
/// decided by a *maximally over-approximate* static walk; `None` disables
/// the prefilter entirely (every test executes, the pre-existing
/// behaviour).
///
/// Soundness is the whole game here — a skipped test that dynamically
/// covered a site would change the plan and therefore the report bytes —
/// so the walk is deliberately cruder than the lint layer's typed
/// [`CallGraph`](wasabi_analysis::callgraph::CallGraph):
///
/// - a call `x.m(...)` may target **every** compiled method named `m`,
///   regardless of what receiver typing could prove (dynamic dispatch
///   always lands on a method of the called name, so the name-set is a
///   superset of any resolution);
/// - `new C(...)` edges to `C`'s (possibly inherited) `init` constructor,
///   and so does running a test, which instantiates the test's class
///   before invoking the test method;
/// - global builtins never invoke user methods (they fault on unknown
///   names), so `GlobalCall`s contribute no edges beyond their argument
///   expressions;
/// - field initialisers also run on instantiation but live outside method
///   bodies, so if **any** class's initialiser expression contains a call
///   or an instantiation the prefilter refuses (`None`) rather than model
///   it. (Corpus and example programs initialise fields with literals.)
pub fn reachable_test_mask(
    project: &Project,
    sites: &BTreeSet<CallSite>,
    tests: &[(FileId, MethodId)],
) -> Option<Vec<bool>> {
    let index = &project.index;
    for class in &index.classes {
        for init in &class.inits {
            if expr_contains_user_call(&init.expr) {
                return None;
            }
        }
    }

    let reach = reverse_graph(index, sites).reach();
    Some(
        tests
            .iter()
            .map(|(_, test)| {
                // A test that cannot be mapped back to a compiled method
                // executes unconditionally: degrade to profiling, never to
                // silently skipping.
                let resolved = index.class_by_name(&test.class).and_then(|class| {
                    let name = index.interner.lookup(&test.name)?;
                    Some((class, index.resolve_dispatch(class, name)?))
                });
                match resolved {
                    Some((class, m)) => {
                        reach[m as usize]
                            || index
                                .resolve_dispatch(class, index.wk.init)
                                .is_some_and(|ctor| reach[ctor as usize])
                    }
                    None => true,
                }
            })
            .collect(),
    )
}

/// The prefilter's reverse call graph in compressed sparse row form.
/// Nodes `0..methods` are the compiled methods (`ProgramIndex::methods`
/// indices); node `methods + s` is the name vertex of `Symbol(s)`, one
/// per row of [`ProgramIndex::methods_named`]. Edges run from a callee
/// towards everything that may call it:
///
/// - each method → its name's vertex;
/// - each name vertex → every method whose body calls that name;
/// - each `init` constructor → every method instantiating its class.
///
/// A call by name thus still reaches every method of that name, through
/// one extra hop, while the edge count stays linear in methods plus
/// distinct calls. Linking each method directly to every caller of its
/// name instead costs the product of the two, which is quadratic on wide
/// name buckets (generated suites define the same helper names thousands
/// of times).
struct ReverseGraph {
    /// Row `v` holds the successors of node `v`.
    edges: Csr,
    /// Methods whose body contains an instrumented call site.
    roots: Vec<u32>,
}

impl ReverseGraph {
    /// Every node reachable from a root, as a per-node flag.
    fn reach(&self) -> Vec<bool> {
        let mut reach = vec![false; self.edges.rows()];
        for &root in &self.roots {
            reach[root as usize] = true;
        }
        let mut frontier = self.roots.clone();
        while let Some(v) = frontier.pop() {
            for &next in self.edges.row(v as usize) {
                if !reach[next as usize] {
                    reach[next as usize] = true;
                    frontier.push(next);
                }
            }
        }
        reach
    }
}

/// Builds the [`ReverseGraph`] of `index` rooted at the methods whose
/// bodies contain one of `sites`, from one walk over every method body.
fn reverse_graph(index: &ProgramIndex, sites: &BTreeSet<CallSite>) -> ReverseGraph {
    let methods = index.methods.len();
    let name_vertex = |name: Symbol| (methods + name.index()) as u32;
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(2 * methods);
    for (m, method) in index.methods.iter().enumerate() {
        edges.push((m as u32, name_vertex(method.name)));
    }

    let mut roots = Vec::new();
    let (mut called, mut instantiated): (Vec<Symbol>, Vec<ClassId>) = (Vec::new(), Vec::new());
    for (m, method) in index.methods.iter().enumerate() {
        called.clear();
        instantiated.clear();
        let mut hits_target = false;
        visit_exprs(&method.body, &mut |expr| match expr {
            LExpr::Call { site, method, .. } => {
                called.push(*method);
                hits_target |= sites.contains(site);
            }
            LExpr::NewObj { class, .. } => instantiated.push(*class),
            _ => {}
        });
        if hits_target {
            roots.push(m as u32);
        }
        called.sort_unstable();
        called.dedup();
        // A name no method defines reaches nothing: such a call faults at
        // run time.
        edges.extend(
            called
                .iter()
                .filter(|&&name| !index.methods_named(name).is_empty())
                .map(|&name| (name_vertex(name), m as u32)),
        );
        instantiated.sort_unstable();
        instantiated.dedup();
        edges.extend(
            instantiated
                .iter()
                .filter_map(|&class| index.resolve_dispatch(class, index.wk.init))
                .map(|ctor| (ctor, m as u32)),
        );
    }

    ReverseGraph {
        edges: Csr::from_pairs(methods + index.interner.len(), &edges),
        roots,
    }
}

/// Whether an expression contains user-code invocation (a dispatchable
/// call or an instantiation, whose constructor and field initialisers run
/// user code). Builtin `GlobalCall`s and exception constructions are
/// benign in themselves; their argument expressions still recurse.
fn expr_contains_user_call(expr: &LExpr) -> bool {
    let mut found = false;
    visit_expr(expr, &mut |e| {
        if matches!(e, LExpr::Call { .. } | LExpr::NewObj { .. }) {
            found = true;
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_analysis::loops::{all_retry_locations, LoopQueryOptions};
    use wasabi_analysis::resolve::ProjectIndex;

    fn project() -> Project {
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method op2() throws E { return 2; }\n\
               method runA() {\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(1); }\n\
                 }\n\
                 return null;\n\
               }\n\
               method runB() {\n\
                 for (var retries = 0; retries < 3; retries = retries + 1) {\n\
                   try { return this.op2(); } catch (E e) { sleep(1); }\n\
                 }\n\
                 return null;\n\
               }\n\
               test t1() { assert(this.runA() == 1); }\n\
               test t2() { assert(this.runA() == 1); assert(this.runB() == 2); }\n\
               test t3() { assert(true); }\n\
             }";
        Project::compile("t", vec![("c.jav", src)]).expect("compile")
    }

    #[test]
    fn profiles_per_test_site_coverage() {
        let p = project();
        let index = ProjectIndex::build(&p);
        let locations: Vec<RetryLocation> =
            all_retry_locations(&index, &LoopQueryOptions::default())
                .into_iter()
                .flat_map(|(_, locs)| locs)
                .collect();
        assert_eq!(locations.len(), 2, "two retry locations");
        let profile = profile_coverage(&p, &locations, &RunOptions::default());
        assert_eq!(profile.tests_total, 3);
        assert_eq!(profile.tests_covering_retry(), 2, "t3 covers nothing");
        assert_eq!(profile.covered_sites().len(), 2);
        let t1 = profile.per_test.get(&MethodId::new("C", "t1")).unwrap();
        assert_eq!(t1.len(), 1);
        let t2 = profile.per_test.get(&MethodId::new("C", "t2")).unwrap();
        assert_eq!(t2.len(), 2);
        // Both t1 and t2 cover the runA site.
        let shared = profile.site_to_tests.get(&t1[0]).unwrap();
        assert_eq!(shared.len(), 2);
    }

    fn locations_of(p: &Project) -> Vec<RetryLocation> {
        let index = ProjectIndex::build(p);
        all_retry_locations(&index, &LoopQueryOptions::default())
            .into_iter()
            .flat_map(|(_, locs)| locs)
            .collect()
    }

    #[test]
    fn prefilter_keeps_reaching_tests_and_skips_filler() {
        let p = project();
        let locations = locations_of(&p);
        let sites: BTreeSet<CallSite> = locations.iter().map(|l| l.site).collect();
        let tests = p.tests();
        let mask = reachable_test_mask(&p, &sites, &tests).expect("prefilter enabled");
        let verdicts: BTreeMap<&str, bool> = tests
            .iter()
            .zip(&mask)
            .map(|((_, t), &keep)| (t.name.as_str(), keep))
            .collect();
        assert!(verdicts["t1"] && verdicts["t2"], "covering tests kept");
        assert!(!verdicts["t3"], "filler test provably reaches no site");
    }

    #[test]
    fn prefilter_traces_reachability_through_constructors() {
        // The covering test only touches the retry loop via `new D()`:
        // D's constructor calls the coordinator, so the test is reachable
        // only through the NewObj -> init edge.
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(1); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }\n\
             class D {\n\
               method init() { var c = new C(); c.run(); }\n\
             }\n\
             class T {\n\
               test tCtor() { var d = new D(); assert(true); }\n\
               test tFiller() { assert(true); }\n\
             }";
        let p = Project::compile("t", vec![("c.jav", src)]).expect("compile");
        let locations = locations_of(&p);
        assert_eq!(locations.len(), 1);
        let sites: BTreeSet<CallSite> = locations.iter().map(|l| l.site).collect();
        let tests = p.tests();
        let mask = reachable_test_mask(&p, &sites, &tests).expect("prefilter enabled");
        let verdicts: BTreeMap<&str, bool> = tests
            .iter()
            .zip(&mask)
            .map(|((_, t), &keep)| (t.name.as_str(), keep))
            .collect();
        assert!(verdicts["tCtor"], "constructor edge keeps the test");
        assert!(!verdicts["tFiller"]);
        // And the executed profile agrees with the static verdict.
        let profile = profile_coverage(&p, &locations, &RunOptions::default());
        assert!(profile
            .per_test
            .contains_key(&MethodId::new("T", "tCtor")));
    }

    #[test]
    fn prefilter_refuses_field_initialiser_calls() {
        // `field w = new Worker()` runs Worker's constructor outside any
        // method body; the prefilter must disable itself rather than
        // model it.
        let src = "exception E;\n\
             class Worker { method go() { return 1; } }\n\
             class C {\n\
               field w = new Worker();\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(1); }\n\
                 }\n\
                 return null;\n\
               }\n\
               test t() { assert(this.run() == 1); }\n\
             }";
        let p = Project::compile("t", vec![("c.jav", src)]).expect("compile");
        let locations = locations_of(&p);
        let sites: BTreeSet<CallSite> = locations.iter().map(|l| l.site).collect();
        assert!(
            reachable_test_mask(&p, &sites, &p.tests()).is_none(),
            "field-initialiser instantiation disables the prefilter"
        );
    }

    #[test]
    fn prefilter_keeps_tests_whose_class_constructor_reaches_a_site() {
        // Running a test instantiates its class first, so T's constructor
        // covers the retry site although the test body calls nothing.
        let src = "exception E;\n\
             class C {\n\
               method op() throws E { return 1; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(1); }\n\
                 }\n\
                 return null;\n\
               }\n\
             }\n\
             class T {\n\
               method init() { var c = new C(); c.run(); }\n\
               test tInit() { assert(true); }\n\
             }\n\
             class U { test tFiller() { assert(true); } }";
        let p = Project::compile("t", vec![("c.jav", src)]).expect("compile");
        let locations = locations_of(&p);
        assert_eq!(locations.len(), 1);
        let sites: BTreeSet<CallSite> = locations.iter().map(|l| l.site).collect();
        let tests = p.tests();
        let mask = reachable_test_mask(&p, &sites, &tests).expect("prefilter enabled");
        let verdicts: BTreeMap<&str, bool> = tests
            .iter()
            .zip(&mask)
            .map(|((_, t), &keep)| (t.name.as_str(), keep))
            .collect();
        assert!(verdicts["tInit"], "test-class constructor keeps the test");
        assert!(!verdicts["tFiller"]);
        let profile = profile_coverage(&p, &locations, &RunOptions::default());
        assert!(profile.per_test.contains_key(&MethodId::new("T", "tInit")));
    }

    #[test]
    fn prefilter_graph_is_linear_on_wide_name_buckets() {
        // 300 classes define `helper`, and 300 methods call it on a
        // receiver of unknown type. Linking every `helper` to every caller
        // would take 300 x 300 = 90,000 edges; the name vertex takes one
        // edge per method plus one per distinct call.
        const WIDTH: usize = 300;
        let mut src = String::new();
        for i in 0..WIDTH {
            src.push_str(&format!(
                "class H{i} {{ method helper() {{ return {i}; }} }}\n"
            ));
            src.push_str(&format!(
                "class U{i} {{ method use{i}(x) {{ return x.helper(); }} }}\n"
            ));
        }
        let p = Project::compile("t", vec![("c.jav", src)]).expect("compile");
        let index = &p.index;
        let (mut call_edges, mut ctor_edges) = (0, 0);
        for method in &index.methods {
            let mut called = BTreeSet::new();
            let mut instantiated = BTreeSet::new();
            visit_exprs(&method.body, &mut |expr| match expr {
                LExpr::Call { method, .. } => {
                    called.insert(*method);
                }
                LExpr::NewObj { class, .. } => {
                    instantiated.insert(*class);
                }
                _ => {}
            });
            call_edges += called.len();
            ctor_edges += instantiated.len();
        }
        assert_eq!(call_edges, WIDTH);
        let graph = reverse_graph(index, &BTreeSet::new());
        let edges: usize = (0..graph.edges.rows()).map(|v| graph.edges.row(v).len()).sum();
        assert!(
            edges <= index.methods.len() + call_edges + ctor_edges,
            "{edges} edges for {} methods, {call_edges} call edges and {ctor_edges} \
             constructor edges",
            index.methods.len()
        );
        assert!(edges * 50 < WIDTH * WIDTH, "{edges} edges is not linear");
    }

    #[test]
    fn parallel_profile_is_identical_to_serial() {
        let p = project();
        let index = ProjectIndex::build(&p);
        let locations: Vec<RetryLocation> =
            all_retry_locations(&index, &LoopQueryOptions::default())
                .into_iter()
                .flat_map(|(_, locs)| locs)
                .collect();
        let serial = profile_coverage(&p, &locations, &RunOptions::default());
        // jobs beyond the suite size must clamp, not spawn idle workers.
        for jobs in [2, 3, 4, 16] {
            let parallel = profile_coverage_jobs(&p, &locations, &RunOptions::default(), jobs);
            assert_eq!(
                format!("{serial:?}"),
                format!("{parallel:?}"),
                "profile diverges at jobs={jobs}"
            );
        }
    }
}
