//! Bounded-memory streaming: with `CampaignOptions::stream` and a journal,
//! finished records spill to disk and the engine's peak resident record
//! count stays O(in-flight jobs) instead of O(total runs) — and the
//! journal still contains every record, so the report phase loses nothing.

use std::collections::BTreeSet;
use std::path::PathBuf;

use wasabi_analysis::loops::{all_retry_locations, LoopQueryOptions};
use wasabi_analysis::resolve::ProjectIndex;
use wasabi_engine::campaign::{run_campaign, CampaignOptions};
use wasabi_engine::journal;
use wasabi_engine::observer::NullObserver;
use wasabi_lang::project::Project;
use wasabi_planner::coverage::profile_coverage;
use wasabi_planner::plan::{expand_plan, plan, InjectionRun};
use wasabi_vm::runner::RunOptions;

const SOURCE: &str = "\
exception ConnectException;\nexception SocketException;\n\
class Flaky {\n\
  method op() throws ConnectException { return \"ok\"; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (ConnectException e) { log(\"retrying\"); }\n\
    }\n\
  }\n\
  test tFlaky() { assert(this.run() == \"ok\"); }\n\
}\n\
class Solid {\n\
  field maxAttempts = 4;\n\
  method fetch() throws SocketException { return \"ok\"; }\n\
  method run() {\n\
    for (var retry = 0; retry < this.maxAttempts; retry = retry + 1) {\n\
      try { return this.fetch(); } catch (SocketException e) { sleep(25); }\n\
    }\n\
    throw new SocketException(\"giving up\");\n\
  }\n\
  test tSolid() { assert(this.run() == \"ok\"); }\n\
}\n";

fn campaign_fixture() -> (Project, Vec<InjectionRun>) {
    let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
    let index = ProjectIndex::build(&project);
    let locations: Vec<_> = all_retry_locations(&index, &LoopQueryOptions::default())
        .into_iter()
        .flat_map(|(_, locations)| locations)
        .collect();
    let run_options = RunOptions::default();
    let profile = profile_coverage(&project, &locations, &run_options);
    let all_sites: BTreeSet<_> = locations.iter().map(|l| l.site).collect();
    let test_plan = plan(&profile, &all_sites);
    let mut runs = expand_plan(&test_plan, &locations, &[1, 2, 3, 100]);
    runs.sort_by_key(|run| run.key());
    (project, runs)
}

fn temp_journal(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("wasabi-streaming-test-{}-{name}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn streaming_bounds_resident_records_without_losing_any() {
    let (project, runs) = campaign_fixture();
    assert!(runs.len() >= 8, "fixture too small to observe a bound: {}", runs.len());

    // Baseline: a non-streaming campaign keeps every record resident.
    let baseline = run_campaign(&project, &runs, &CampaignOptions::default(), &mut NullObserver);
    assert_eq!(baseline.stats.peak_resident_records, runs.len());
    assert_eq!(baseline.records.len(), runs.len());

    // Streaming: records spill to the journal as their slots complete.
    let path = temp_journal("bounded");
    let options = CampaignOptions {
        jobs: 2,
        journal: Some(path.clone()),
        stream: true,
        ..CampaignOptions::default()
    };
    let streamed = run_campaign(&project, &runs, &options, &mut NullObserver);
    assert!(streamed.records.is_empty(), "streaming must not accumulate records in RAM");
    assert!(
        streamed.stats.peak_resident_records < runs.len() / 2,
        "peak residency {} is not bounded against {} runs",
        streamed.stats.peak_resident_records,
        runs.len()
    );

    // The journal holds every record, byte-equal to the in-memory run.
    let load = journal::load(&path).expect("load journal");
    assert!(!load.dropped_tail);
    assert_eq!(load.records.len(), runs.len());
    let mut recovered = load.records;
    recovered.sort_by(|a, b| a.key.cmp(&b.key));
    for (mem, disk) in baseline.records.iter().zip(&recovered) {
        assert_eq!(
            journal::record_to_json(mem).to_string(),
            journal::record_to_json(disk).to_string(),
            "streamed record diverged from the in-memory campaign"
        );
    }
    let _ = std::fs::remove_file(&path);
}
