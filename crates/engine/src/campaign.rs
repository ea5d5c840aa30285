//! Campaign execution: a fixed-size worker pool over a sharded run queue,
//! with panic containment, bounded retries, worker supervision,
//! checkpoint/resume, and a deterministic merge of results.
//!
//! # Determinism contract
//!
//! The engine guarantees that [`CampaignResult::records`] is a pure
//! function of `(project, runs, options)` — independent of `jobs`, of how
//! the OS schedules the workers, of lost worker threads, and of whether
//! the campaign ran in one piece or was resumed from a journal:
//!
//! - runs execute in **isolated interpreters**: each worker constructs its
//!   own `Interp` (own virtual clock, config store, trace buffer) and its
//!   own `InjectionHandler` per attempt, so no state crosses runs or
//!   attempts;
//! - results land in **key-addressed slots**: the engine orders runs by
//!   [`RunKey`] up front and each worker writes its record into the slot
//!   for that key, so the merged vector has the same order no matter which
//!   worker finished first;
//! - **timed-out runs are normalized**: a run aborted by the wall-clock
//!   budget records a bare [`RunOutcome::TimedOut`] with zeroed
//!   nondeterministic fields (virtual time, steps, injections) and is never
//!   judged by the oracles, because *where* the abort landed depends on
//!   host speed;
//! - **panicking runs are contained**: each attempt executes under
//!   [`std::panic::catch_unwind`], and a panic becomes a
//!   [`RunOutcome::Crashed`] record with zeroed measurements instead of
//!   poisoning the worker pool — nothing from the broken attempt reaches
//!   the report because every attempt rebuilds its interpreter from
//!   scratch (per-run isolation is what makes the unwind safe);
//! - **retries are seeded**: the [`RetryPolicy`] re-executes
//!   `Crashed`/`TimedOut` runs with exponential backoff whose jitter is
//!   drawn from a SplitMix64 stream keyed on `(jitter_seed, RunKey,
//!   attempt)`, so the attempt count and final outcome of every run are
//!   reproducible; runs that exhaust the policy are *quarantined*
//!   ([`RunRecord::quarantined`]), never dropped;
//! - **lost workers degrade gracefully**: a worker thread that dies is
//!   detected by the coordinator, its in-flight run is re-queued for the
//!   survivors, and any run still unexecuted when the pool drains is run
//!   inline by the coordinator — the campaign always reports every
//!   planned key exactly once.
//!
//! Scheduling-dependent observations (per-worker run counts, wall time,
//! workers lost, resumed-run count) are confined to
//! [`CampaignStats::worker_runs`] / [`CampaignStats::wall_ms`] /
//! [`CampaignStats::workers_lost`] / [`CampaignStats::resumed`] /
//! [`CampaignStats::supervisor_runs`] and the observer event stream;
//! nothing in `records` derives from them.

use crate::journal::Journal;
use crate::metrics::{CampaignMetrics, RunTiming, WorkerTimings};
use crate::observer::{EngineEvent, EngineObserver};
use crate::queue::ShardedQueue;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Once};
use std::thread;
use std::time::{Duration, Instant};
use wasabi_inject::InjectionHandler;
use wasabi_lang::project::Project;
use wasabi_oracles::judge::{judge_run, judge_run_timed, OracleConfig, OracleReport};
use wasabi_planner::plan::{InjectionRun, RunKey};
use wasabi_util::rng::{fnv1a64, Rng};
use wasabi_util::{saturating_ms, saturating_us};
use wasabi_vm::runner::{run_test, RunOptions};
use wasabi_vm::trace::TestOutcome;

/// A stable 64-bit digest of a run key, used to seed per-run deterministic
/// decisions (backoff jitter, chaos draws) independently of scheduling.
pub(crate) fn key_hash(key: &RunKey, salt: u64) -> u64 {
    fnv1a64([
        key.test.class.as_bytes(),
        b"\0",
        key.test.name.as_bytes(),
        b"\0",
        key.site.file.0.to_le_bytes().as_slice(),
        key.site.call.0.to_le_bytes().as_slice(),
        key.exception.as_bytes(),
        b"\0",
        key.k.to_le_bytes().as_slice(),
        salt.to_le_bytes().as_slice(),
    ])
}

/// Bounded, jittered, capped retry policy for transient run failures
/// (`Crashed` and `TimedOut` outcomes) — the paper's §2 *HOW* best
/// practice (exponential backoff with a cap) applied to the engine itself.
///
/// Jitter is drawn from [`wasabi_util::rng::Rng`] seeded on
/// `(jitter_seed, RunKey, attempt)`, so the delay sequence of a run — and
/// therefore a rerun of the whole campaign — is deterministic regardless
/// of which worker executes it.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per run, including the first (minimum 1;
    /// 1 disables retries).
    pub max_attempts: u8,
    /// Backoff before the second attempt; doubles (times `multiplier`)
    /// per further attempt. Zero disables sleeping entirely.
    pub base_delay: Duration,
    /// Exponential growth factor between attempts.
    pub multiplier: f64,
    /// Upper bound on any single backoff delay.
    pub cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(5),
            multiplier: 2.0,
            cap: Duration::from_millis(100),
            jitter_seed: 0x5741_5341_4249, // "WASABI"
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt per run).
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The default policy with a different attempt bound.
    pub fn with_max_attempts(max_attempts: u8) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// The backoff delay after `failed_attempt` (1-based) failed:
    /// `base_delay * multiplier^(failed_attempt-1)`, capped, with equal
    /// jitter (uniform in `[d/2, d)`) drawn deterministically from the
    /// run key.
    pub fn backoff(&self, key: &RunKey, failed_attempt: u8) -> Duration {
        // Only the jitter-seed derivation is ours (keyed on the run so the
        // schedule is scheduling-independent); the delay math is the
        // workspace-shared formula.
        wasabi_util::equal_jitter_backoff(
            self.base_delay,
            self.multiplier,
            self.cap,
            u32::from(failed_attempt),
            key_hash(key, self.jitter_seed ^ u64::from(failed_attempt)),
        )
    }
}

/// Deterministic fault injection into the engine itself — the chaos
/// self-test hook behind the resilience test suite and the `cargo xtask
/// smoke` CI stage.
///
/// Every decision is a pure function of `(seed, RunKey, attempt)`, so a
/// chaos campaign produces byte-identical records for any worker count —
/// which is exactly what the self-tests assert. Production campaigns
/// leave this `None`.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Probability that an attempt panics mid-run.
    pub panic_rate: f64,
    /// Maximum extra pre-run delay, in milliseconds (uniformly drawn;
    /// shakes worker scheduling without touching results). Zero disables.
    pub max_delay_ms: u64,
    /// Seed for the decision stream.
    pub seed: u64,
    /// If set, this worker index dies (thread exits without completing
    /// its current run) on its first pop — exercises the supervisor's
    /// requeue-and-degrade path. When the other workers drained the queue
    /// before it popped anything, it dies on finding the queue empty, so
    /// exactly one worker is lost however the threads are scheduled.
    pub kill_worker: Option<usize>,
    /// If set, the whole *process* exits (code 86) once this many records
    /// have been appended to the journal — the crash point the shard
    /// supervisor's chaos CI stage uses to kill a child mid-flight at a
    /// deterministic, journal-aligned spot. Count-based, not time-based,
    /// so recovery is byte-reproducible.
    pub exit_after_appends: Option<u64>,
}

impl ChaosConfig {
    /// Chaos that only injects panics at `panic_rate`, seeded.
    pub fn panics(panic_rate: f64, seed: u64) -> Self {
        ChaosConfig {
            panic_rate,
            max_delay_ms: 0,
            seed,
            kill_worker: None,
            exit_after_appends: None,
        }
    }

    fn draw(&self, key: &RunKey, attempt: u8) -> ChaosDraw {
        let mut rng = Rng::new(key_hash(key, self.seed ^ (u64::from(attempt) << 32)));
        ChaosDraw {
            panic: rng.chance(self.panic_rate),
            delay_ms: if self.max_delay_ms == 0 {
                0
            } else {
                rng.below(self.max_delay_ms + 1)
            },
        }
    }
}

struct ChaosDraw {
    panic: bool,
    delay_ms: u64,
}

/// Options for one campaign.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker count. `1` executes serially through the same code path as
    /// any other value (one worker thread, one shard).
    pub jobs: usize,
    /// Per-run interpreter options (limits, pinned configs).
    pub run_options: RunOptions,
    /// Oracle thresholds for judging completed runs.
    pub oracle: OracleConfig,
    /// Optional wall-clock budget per run. A run that exceeds it is
    /// cancelled cooperatively (the interpreter checks the deadline every
    /// few thousand steps) and recorded as [`RunOutcome::TimedOut`];
    /// the campaign itself never hangs on one stuck run.
    pub run_budget: Option<Duration>,
    /// Retry policy for transient failures (`Crashed`/`TimedOut`).
    pub retry: RetryPolicy,
    /// Chaos self-test hook; `None` in production campaigns.
    pub chaos: Option<ChaosConfig>,
    /// Durable journal path: every finished record is appended as one
    /// JSON line, with fsync'd epoch markers, so an interrupted campaign
    /// can resume without re-running completed work.
    pub journal: Option<PathBuf>,
    /// Records recovered from a previous journal (see
    /// [`crate::journal::load`]). Runs whose key appears here are not
    /// re-executed; their records merge into the result in key order, so
    /// a resumed campaign's report is byte-identical to an uninterrupted
    /// one.
    pub resume: Vec<RunRecord>,
    /// Whether to capture per-run host timings ([`RunTiming`]): the
    /// `Instant` reads bracketing each run, the timed oracle judgement,
    /// and the queue-wait stamp. On by default; campaigns that do not
    /// record traces (plain `wasabi test`, `wasabi repair`) turn it off so
    /// the hot loop carries no clock reads beyond the interpreter's own.
    /// Never affects [`CampaignResult::records`] — timings live only in
    /// the metrics/observer layer.
    pub capture_timing: bool,
    /// Optional execution-order hint: runs whose key maps to a larger
    /// value are dispatched to workers first (ties keep key order; keys
    /// absent from the map rank lowest). Pure scheduling — records still
    /// land in key-addressed slots and merge in key order, so the result
    /// is byte-identical with or without a priority map. The adaptive
    /// planner uses this to front-load injection sites with the most
    /// uncovered catch-paths.
    pub schedule_priority: Option<BTreeMap<RunKey, u64>>,
    /// Bounded-memory streaming: finished records are appended to the
    /// journal and **dropped from RAM** instead of accumulating in
    /// [`CampaignResult::records`] (which comes back empty); the caller's
    /// report phase re-reads the journal. Requires `journal`; if the
    /// journal cannot be opened (or dies to an I/O error mid-campaign),
    /// records are kept in memory after all — losing the memory bound, not
    /// the data. Stats are accumulated incrementally either way, and
    /// [`CampaignStats::peak_resident_records`] reports the high-water
    /// mark this option exists to bound.
    pub stream: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            jobs: 1,
            run_options: RunOptions::default(),
            oracle: OracleConfig::default(),
            run_budget: None,
            retry: RetryPolicy::default(),
            chaos: None,
            journal: None,
            resume: Vec::new(),
            capture_timing: true,
            schedule_priority: None,
            stream: false,
        }
    }
}

/// How one campaign run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The interpreter ran the test to an outcome within budget.
    Completed(TestOutcome),
    /// The wall-clock budget expired; the partial run was discarded.
    TimedOut,
    /// The attempt panicked; the panic was contained and the partial run
    /// discarded (all measurements zeroed).
    Crashed {
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl RunOutcome {
    /// Whether this outcome is a transient engine-level failure that the
    /// retry policy may re-execute.
    pub fn is_transient_failure(&self) -> bool {
        matches!(self, RunOutcome::TimedOut | RunOutcome::Crashed { .. })
    }
}

/// The merged result of one injection run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The run's identity; records are sorted by this key.
    pub key: RunKey,
    /// How the run ended (final attempt).
    pub outcome: RunOutcome,
    /// Oracle findings (empty for timed-out and crashed runs, which are
    /// not judged).
    pub reports: Vec<OracleReport>,
    /// The run crashed by re-throwing the injected exception (correct
    /// give-up behaviour, filtered by the different-exception oracle).
    pub rethrow_filtered: bool,
    /// The injected exception escaped without any retry (the location was
    /// not actually a retry trigger).
    pub not_a_trigger: bool,
    /// Virtual milliseconds the run consumed (0 if timed out or crashed).
    pub virtual_ms: u64,
    /// Interpreter steps the run consumed (0 if timed out or crashed).
    pub steps: u64,
    /// Faults injected during the run (0 if timed out or crashed).
    pub injections: u32,
    /// Attempts executed (1 = no retries were needed).
    pub attempts: u8,
    /// The run still ended in a transient failure after exhausting the
    /// retry policy; it is reported here and in the report's quarantine
    /// section instead of aborting the campaign.
    pub quarantined: bool,
}

/// Aggregate campaign statistics.
///
/// All fields except `worker_runs`, `supervisor_runs`, `workers_lost`,
/// `resumed`, and `wall_ms` are deterministic given the same runs and
/// options.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Total runs reported (executed + resumed).
    pub runs_total: usize,
    /// Runs that completed within budget.
    pub completed: usize,
    /// Runs cancelled by the wall-clock budget.
    pub timed_out: usize,
    /// Completed runs that did not pass.
    pub failed: usize,
    /// Runs whose final attempt panicked (contained as
    /// [`RunOutcome::Crashed`]).
    pub crashed: usize,
    /// Extra attempts spent re-executing transient failures.
    pub retried: usize,
    /// Runs quarantined after exhausting the retry policy.
    pub quarantined: usize,
    /// Runs filtered as correct give-up rethrows.
    pub rethrow_filtered: usize,
    /// Runs evidencing a misidentified trigger.
    pub not_a_trigger: usize,
    /// Total oracle reports across runs.
    pub reports: usize,
    /// Total faults injected.
    pub injections: u64,
    /// Total virtual milliseconds across completed runs.
    pub virtual_ms: u64,
    /// Total interpreter steps across completed runs (final attempts
    /// only; timed-out and crashed runs record zero).
    pub steps: u64,
    /// Worker count used.
    pub jobs: usize,
    /// Runs executed per worker (scheduling-dependent; utilization only).
    pub worker_runs: Vec<usize>,
    /// Runs the coordinator executed inline after the pool drained with
    /// work left over (only non-zero when workers were lost).
    pub supervisor_runs: usize,
    /// Worker threads that died mid-campaign (scheduling-dependent).
    pub workers_lost: usize,
    /// Runs recovered from the resume journal instead of executed.
    pub resumed: usize,
    /// Campaign wall time in milliseconds (scheduling-dependent).
    pub wall_ms: u64,
    /// High-water mark of run records resident in the coordinator's
    /// memory. With [`CampaignOptions::stream`] this stays O(1) — each
    /// record is spilled to the journal and dropped as it lands — while a
    /// non-streaming campaign ends holding every record. Observational,
    /// like `wall_ms`: nothing in `records` derives from it.
    pub peak_resident_records: usize,
}

/// A finished campaign: records in [`RunKey`] order plus statistics.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// One record per input run, sorted by key.
    pub records: Vec<RunRecord>,
    /// Aggregate statistics.
    pub stats: CampaignStats,
    /// Per-run distributions (deterministic half + host-timing half; see
    /// [`CampaignMetrics`]).
    pub metrics: CampaignMetrics,
}

impl CampaignResult {
    /// The quarantined subset of [`CampaignResult::records`], in key
    /// order — runs that still ended in a transient failure after
    /// exhausting the retry policy.
    pub fn quarantine(&self) -> impl Iterator<Item = &RunRecord> {
        self.records.iter().filter(|r| r.quarantined)
    }
}

/// What a worker sends back to the coordinator.
enum Message {
    Started {
        slot: usize,
        worker: usize,
        key: RunKey,
    },
    Retried {
        slot: usize,
        worker: usize,
        key: RunKey,
        /// The attempt (1-based) that just failed.
        attempt: u8,
        delay_ms: u64,
    },
    Finished {
        slot: usize,
        worker: usize,
        record: RunRecord,
        timing: RunTiming,
    },
    /// The worker thread is dead (panic outside the per-run containment,
    /// or a chaos kill). Its in-flight run, if any, must be re-queued.
    WorkerDied { worker: usize },
}

thread_local! {
    /// Set while a run attempt executes under `catch_unwind`, so the
    /// process-wide panic hook knows the panic is contained and skips the
    /// default stderr backtrace (a 10%-panic-rate chaos campaign would
    /// otherwise spend its wall clock printing traces).
    static PANIC_CONTAINED: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that suppresses output for
/// panics the engine is about to contain and chains to the previous hook
/// for everything else.
fn install_contained_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if PANIC_CONTAINED.with(Cell::get) {
                return;
            }
            previous(info);
        }));
    });
}

/// RAII flag for [`PANIC_CONTAINED`]; unsets on drop (including unwind).
struct ContainGuard;

impl ContainGuard {
    fn new() -> Self {
        PANIC_CONTAINED.with(|c| c.set(true));
        ContainGuard
    }
}

impl Drop for ContainGuard {
    fn drop(&mut self) {
        PANIC_CONTAINED.with(|c| c.set(false));
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes `runs` on `options.jobs` workers and merges the results
/// deterministically. See the module docs for the determinism contract.
pub fn run_campaign(
    project: &Project,
    runs: &[InjectionRun],
    options: &CampaignOptions,
    observer: &mut dyn EngineObserver,
) -> CampaignResult {
    let started_at = Instant::now();
    install_contained_panic_hook();

    // The engine re-derives key order itself rather than trusting the
    // caller to have sorted: slot i of the output always holds the i-th
    // run in key order.
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by_key(|&i| runs[i].key());

    let mut slots: Vec<Option<RunRecord>> = Vec::new();
    slots.resize_with(runs.len(), || None);
    // Completion is tracked separately from the slot payload: a streaming
    // campaign spills each record to the journal and drops it, leaving the
    // slot empty but done.
    let mut done: Vec<bool> = vec![false; runs.len()];
    let mut det_stats = CampaignStats::default();
    let mut resident = 0usize;
    let mut peak_resident = 0usize;

    // Resume: pre-fill slots from recovered records (first record wins on
    // duplicate journal keys; records are deterministic, so duplicates
    // are identical anyway). Keys outside the plan are ignored. In
    // streaming mode the record's stats are absorbed and the record
    // dropped — the journal it was recovered from still holds it for the
    // caller's report phase.
    let mut resumed = 0usize;
    if !options.resume.is_empty() {
        let mut by_key: BTreeMap<&RunKey, &RunRecord> = BTreeMap::new();
        for record in &options.resume {
            by_key.entry(&record.key).or_insert(record);
        }
        for (slot, &run_index) in order.iter().enumerate() {
            if let Some(record) = by_key.get(&runs[run_index].key()) {
                absorb_record_stats(&mut det_stats, record);
                done[slot] = true;
                resumed += 1;
                if !options.stream {
                    slots[slot] = Some((*record).clone());
                    resident += 1;
                    peak_resident = peak_resident.max(resident);
                }
            }
        }
    }
    let mut pending: Vec<usize> = (0..slots.len()).filter(|&s| !done[s]).collect();
    // Priority is a dispatch-order hint only: slots are key-addressed, so
    // reordering `pending` cannot change the merged records.
    if let Some(priority) = options.schedule_priority.as_ref() {
        pending.sort_by_cached_key(|&slot| {
            std::cmp::Reverse(priority.get(&runs[order[slot]].key()).copied().unwrap_or(0))
        });
    }

    let jobs = options.jobs.max(1).min(pending.len().max(1));
    observer.on_event(&EngineEvent::Started {
        total_runs: runs.len(),
        jobs,
        resumed,
    });

    let mut journal = options.journal.as_deref().and_then(|path| {
        Journal::open(path)
            .map_err(|err| {
                eprintln!(
                    "[engine] cannot open journal {}: {err}; journaling disabled",
                    path.display()
                );
            })
            .ok()
    });

    let chaos_exit_after = options.chaos.as_ref().and_then(|c| c.exit_after_appends);
    let mut worker_runs = vec![0usize; jobs];
    let mut workers_lost = 0usize;
    let mut supervisor_runs = 0usize;
    // One timing collector per worker, plus one (the last) for inline
    // supervisor runs; merged into the metrics in index order at the end.
    let mut worker_timings = vec![WorkerTimings::default(); jobs + 1];

    if !pending.is_empty() {
        let queue = ShardedQueue::prefilled(pending, jobs);
        let (sender, receiver) = mpsc::channel::<Message>();
        thread::scope(|scope| {
            let (queue, order) = (&queue, &order);
            for worker in 0..jobs {
                let sender = sender.clone();
                scope.spawn(move || {
                    // Worker supervision: the loop body contains per-run
                    // panics itself, so an unwind reaching this frame means
                    // the engine (not a run) is broken — report the death
                    // instead of silently shrinking the pool.
                    let exit = panic::catch_unwind(AssertUnwindSafe(|| {
                        worker_loop(worker, queue, order, project, runs, options, &sender, started_at)
                    }));
                    if !matches!(exit, Ok(WorkerExit::Drained)) {
                        let _ = sender.send(Message::WorkerDied { worker });
                    }
                });
            }
            drop(sender);
            // Replay worker messages into the observer on this thread, so
            // observers need no locking; the receive loop ends when every
            // worker has dropped its sender.
            let mut in_flight: Vec<Option<(usize, RunKey)>> = vec![None; jobs];
            for message in receiver {
                match message {
                    Message::Started { slot, worker, key } => {
                        observer.on_event(&EngineEvent::RunStarted {
                            index: slot,
                            key: &key,
                            worker,
                        });
                        in_flight[worker] = Some((slot, key));
                    }
                    Message::Retried {
                        slot,
                        worker,
                        key,
                        attempt,
                        delay_ms,
                    } => {
                        observer.on_event(&EngineEvent::RunRetried {
                            index: slot,
                            key: &key,
                            worker,
                            attempt,
                            delay_ms,
                        });
                    }
                    Message::Finished {
                        slot,
                        worker,
                        record,
                        timing,
                    } => {
                        in_flight[worker] = None;
                        worker_runs[worker] += 1;
                        worker_timings[worker].record(&timing);
                        complete_slot(
                            slot,
                            worker,
                            record,
                            &timing,
                            observer,
                            &mut journal,
                            &mut CompletionSink {
                                slots: &mut slots,
                                done: &mut done,
                                det_stats: &mut det_stats,
                                resident: &mut resident,
                                peak_resident: &mut peak_resident,
                                stream: options.stream,
                                chaos_exit: chaos_exit_after,
                            },
                        );
                    }
                    Message::WorkerDied { worker } => {
                        workers_lost += 1;
                        let lost = in_flight[worker].take();
                        if let Some((slot, _)) = lost {
                            if !done[slot] {
                                // Hand the orphaned run to the survivors;
                                // if they have already drained and exited,
                                // the inline fallback below picks it up.
                                queue.push(worker.wrapping_add(1), slot);
                            }
                        }
                        observer.on_event(&EngineEvent::WorkerLost {
                            worker,
                            requeued: lost.as_ref().map(|(_, key)| key),
                        });
                    }
                }
            }
        });
    }

    // Graceful degradation, last line of defence: anything the pool did
    // not finish (every worker died, or a re-queued run raced the
    // survivors' exit) is executed inline, so the campaign always
    // completes with a record for every planned key.
    for slot in 0..slots.len() {
        if done[slot] {
            continue;
        }
        let run = &runs[order[slot]];
        let key = run.key();
        observer.on_event(&EngineEvent::RunStarted {
            index: slot,
            key: &key,
            worker: jobs,
        });
        let queue_wait_us = if options.capture_timing {
            saturating_us(started_at.elapsed())
        } else {
            0
        };
        let (record, mut timing) = {
            let observer_cell = std::cell::RefCell::new(&mut *observer);
            let mut notify = |attempt: u8, delay: Duration| {
                observer_cell.borrow_mut().on_event(&EngineEvent::RunRetried {
                    index: slot,
                    key: &key,
                    worker: jobs,
                    attempt,
                    delay_ms: saturating_ms(delay),
                });
            };
            execute_run(project, run, options, &mut notify)
        };
        timing.queue_wait_us = queue_wait_us;
        supervisor_runs += 1;
        worker_timings[jobs].record(&timing);
        complete_slot(
            slot,
            jobs,
            record,
            &timing,
            observer,
            &mut journal,
            &mut CompletionSink {
                slots: &mut slots,
                done: &mut done,
                det_stats: &mut det_stats,
                resident: &mut resident,
                peak_resident: &mut peak_resident,
                stream: options.stream,
                chaos_exit: chaos_exit_after,
            },
        );
    }

    if let Some(journal) = journal.as_mut() {
        if let Some(completed) = journal.finish() {
            observer.on_event(&EngineEvent::CheckpointWritten { completed });
        }
    }

    // Non-streaming campaigns hold every record; streaming ones only keep
    // what could not be spilled (journal missing or dead), normally none.
    let records: Vec<RunRecord> = if options.stream {
        slots.into_iter().flatten().collect()
    } else {
        slots
            .into_iter()
            .map(|slot| slot.expect("every planned run produces a record"))
            .collect()
    };

    let mut stats = det_stats;
    stats.runs_total = runs.len();
    stats.jobs = jobs;
    stats.worker_runs = worker_runs;
    stats.supervisor_runs = supervisor_runs;
    stats.workers_lost = workers_lost;
    stats.resumed = resumed;
    stats.wall_ms = saturating_ms(started_at.elapsed());
    stats.peak_resident_records = peak_resident;
    let mut metrics = CampaignMetrics::from_records(&records, &options.retry);
    metrics.absorb_worker_timings(&worker_timings);
    observer.on_event(&EngineEvent::Finished {
        stats: &stats,
        metrics: &metrics,
    });
    CampaignResult {
        records,
        stats,
        metrics,
    }
}

enum WorkerExit {
    /// The queue is drained; normal exit.
    Drained,
    /// Chaos killed this worker (simulates a thread death the supervisor
    /// must absorb).
    Killed,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    worker: usize,
    queue: &ShardedQueue<usize>,
    order: &[usize],
    project: &Project,
    runs: &[InjectionRun],
    options: &CampaignOptions,
    sender: &mpsc::Sender<Message>,
    campaign_started: Instant,
) -> WorkerExit {
    let doomed = options
        .chaos
        .as_ref()
        .is_some_and(|chaos| chaos.kill_worker == Some(worker));
    while let Some(slot) = queue.pop(worker) {
        let queue_wait_us = if options.capture_timing {
            saturating_us(campaign_started.elapsed())
        } else {
            0
        };
        let run = &runs[order[slot]];
        let key = run.key();
        if sender
            .send(Message::Started {
                slot,
                worker,
                key: key.clone(),
            })
            .is_err()
        {
            return WorkerExit::Drained;
        }
        if doomed {
            return WorkerExit::Killed;
        }
        let mut notify = |attempt: u8, delay: Duration| {
            let _ = sender.send(Message::Retried {
                slot,
                worker,
                key: key.clone(),
                attempt,
                delay_ms: saturating_ms(delay),
            });
        };
        let (record, mut timing) = execute_run(project, run, options, &mut notify);
        timing.queue_wait_us = queue_wait_us;
        if sender
            .send(Message::Finished {
                slot,
                worker,
                record,
                timing,
            })
            .is_err()
        {
            return WorkerExit::Drained;
        }
    }
    if doomed {
        return WorkerExit::Killed;
    }
    WorkerExit::Drained
}

/// Folds one record into the deterministic half of the campaign stats.
/// Called as records land (execution order) — every field is a commutative
/// sum or count, so the result is identical to a key-order fold.
fn absorb_record_stats(stats: &mut CampaignStats, record: &RunRecord) {
    match &record.outcome {
        RunOutcome::TimedOut => stats.timed_out += 1,
        RunOutcome::Crashed { .. } => stats.crashed += 1,
        RunOutcome::Completed(outcome) => {
            stats.completed += 1;
            if !outcome.is_pass() {
                stats.failed += 1;
            }
        }
    }
    stats.retried += usize::from(record.attempts.saturating_sub(1));
    stats.quarantined += usize::from(record.quarantined);
    stats.rethrow_filtered += usize::from(record.rethrow_filtered);
    stats.not_a_trigger += usize::from(record.not_a_trigger);
    stats.reports += record.reports.len();
    stats.injections += u64::from(record.injections);
    stats.virtual_ms += record.virtual_ms;
    stats.steps += record.steps;
}

/// Where a finished record lands: the slot vector (non-streaming), or the
/// journal alone (streaming spill), plus the completion/stats trackers.
struct CompletionSink<'a> {
    slots: &'a mut [Option<RunRecord>],
    done: &'a mut [bool],
    det_stats: &'a mut CampaignStats,
    resident: &'a mut usize,
    peak_resident: &'a mut usize,
    stream: bool,
    chaos_exit: Option<u64>,
}

/// Finalizes one record: observer events, journal append, spill-or-store.
fn complete_slot(
    slot: usize,
    worker: usize,
    record: RunRecord,
    timing: &RunTiming,
    observer: &mut dyn EngineObserver,
    journal: &mut Option<Journal>,
    sink: &mut CompletionSink<'_>,
) {
    // The record in hand is resident until spilled or the campaign ends —
    // this counter is the memory bound the streaming test pins.
    *sink.resident += 1;
    *sink.peak_resident = (*sink.peak_resident).max(*sink.resident);
    observer.on_event(&EngineEvent::RunFinished {
        index: slot,
        key: &record.key,
        worker,
        outcome: &record.outcome,
        injections: record.injections,
        reports: record.reports.len(),
        attempts: record.attempts,
        steps: record.steps,
        timing,
    });
    if let RunOutcome::Crashed { message } = &record.outcome {
        observer.on_event(&EngineEvent::RunCrashed {
            index: slot,
            key: &record.key,
            worker,
            message,
        });
    }
    if record.quarantined {
        observer.on_event(&EngineEvent::RunQuarantined {
            index: slot,
            key: &record.key,
            attempts: record.attempts,
            outcome: &record.outcome,
        });
    }
    // Full-record feedback for planners, emitted before any streaming
    // spill so it fires even when the record never reaches RAM.
    observer.on_event(&EngineEvent::RunRecorded {
        index: slot,
        record: &record,
    });
    let mut spilled = false;
    if let Some(journal) = journal.as_mut() {
        if let Some(completed) = journal.append(&record) {
            observer.on_event(&EngineEvent::CheckpointWritten { completed });
        }
        // Chaos crash point: die *after* the append, so the journal holds
        // exactly `chaos_exit` records — the supervisor must observe
        // progress and plain-restart, never bisect.
        if let Some(limit) = sink.chaos_exit {
            if journal.appended() as u64 >= limit {
                eprintln!("[engine] chaos: exiting after {limit} journal append(s)");
                std::process::exit(86);
            }
        }
        // Streaming spill: the journal write went through (the journal is
        // still active), so the record is durable and RAM can drop it. A
        // dead journal falls back to the slot — bounded memory degrades,
        // data does not.
        spilled = sink.stream && journal.active();
    }
    absorb_record_stats(sink.det_stats, &record);
    sink.done[slot] = true;
    if spilled {
        *sink.resident -= 1;
    } else {
        sink.slots[slot] = Some(record);
    }
}

/// Executes one run under the retry policy. Each attempt runs in a fresh,
/// fully isolated interpreter under `catch_unwind`; transient failures
/// (`Crashed`, `TimedOut`) are retried with deterministic backoff until
/// the policy is exhausted, at which point the record is quarantined.
fn execute_run(
    project: &Project,
    run: &InjectionRun,
    options: &CampaignOptions,
    notify_retry: &mut dyn FnMut(u8, Duration),
) -> (RunRecord, RunTiming) {
    let run_started = options.capture_timing.then(Instant::now);
    let max_attempts = options.retry.max_attempts.max(1);
    // Clone the run options (pinned-config list included) once per run, not
    // once per attempt; only the wall-clock deadline varies between attempts.
    let mut run_options = options.run_options.clone();
    let mut timing = RunTiming::default();
    let mut attempt = 1u8;
    loop {
        let caught = {
            let _guard = ContainGuard::new();
            let timing = &mut timing;
            panic::catch_unwind(AssertUnwindSafe(|| {
                execute_attempt(project, run, options, &mut run_options, attempt, timing)
            }))
        };
        let mut record = match caught {
            Ok(record) => record,
            // Per-run isolation makes the unwind safe: the broken
            // interpreter, handler, and trace died with the attempt, and
            // the next attempt (or the report) only sees this fresh
            // record. (A panicking attempt's interpreter time is lost to
            // the timing breakdown — run_wall_us still covers it.)
            Err(payload) => crashed_record(run.key(), panic_message(payload)),
        };
        record.attempts = attempt;
        let transient = record.outcome.is_transient_failure();
        if transient && attempt < max_attempts {
            let delay = options.retry.backoff(&record.key, attempt);
            timing.backoff_ms = timing.backoff_ms.saturating_add(saturating_ms(delay));
            notify_retry(attempt, delay);
            if !delay.is_zero() {
                thread::sleep(delay);
            }
            attempt += 1;
            continue;
        }
        record.quarantined = transient;
        if let Some(started) = run_started {
            timing.run_wall_us = saturating_us(started.elapsed());
        }
        return (record, timing);
    }
}

/// A contained panic, normalized: nothing from the partial attempt may
/// reach the report (measurements are scheduling- and progress-dependent).
fn crashed_record(key: RunKey, message: String) -> RunRecord {
    RunRecord {
        key,
        outcome: RunOutcome::Crashed { message },
        reports: Vec::new(),
        rethrow_filtered: false,
        not_a_trigger: false,
        virtual_ms: 0,
        steps: 0,
        injections: 0,
        attempts: 1,
        quarantined: false,
    }
}

/// Executes one attempt in a fresh, fully isolated interpreter and judges
/// it. Chaos (if configured) may delay or panic the attempt first — both
/// decisions are pure functions of `(seed, key, attempt)`.
fn execute_attempt(
    project: &Project,
    run: &InjectionRun,
    options: &CampaignOptions,
    run_options: &mut RunOptions,
    attempt: u8,
    timing: &mut RunTiming,
) -> RunRecord {
    let key = run.key();
    if let Some(chaos) = &options.chaos {
        let draw = chaos.draw(&key, attempt);
        if draw.delay_ms > 0 {
            thread::sleep(Duration::from_millis(draw.delay_ms));
        }
        if draw.panic {
            panic!(
                "chaos: injected panic ({}.{} @ {} {} K={}, attempt {attempt})",
                key.test.class, key.test.name, key.site, key.exception, key.k
            );
        }
    }
    if let Some(budget) = options.run_budget {
        run_options.limits.wall_deadline = Some(Instant::now() + budget);
    }
    let mut handler = InjectionHandler::single(run.spec.location.clone(), run.spec.k);
    let test_run = run_test(project, &run.test, &mut handler, run_options);
    timing.interp_us = timing.interp_us.saturating_add(test_run.wall_us);
    if matches!(test_run.outcome, TestOutcome::WallClockExceeded) {
        // Normalize: where the abort landed is host-dependent, so nothing
        // from the partial run may reach the report.
        return RunRecord {
            key,
            outcome: RunOutcome::TimedOut,
            reports: Vec::new(),
            rethrow_filtered: false,
            not_a_trigger: false,
            virtual_ms: 0,
            steps: 0,
            injections: 0,
            attempts: 1,
            quarantined: false,
        };
    }
    let verdict = if options.capture_timing {
        let (verdict, judge_elapsed) = judge_run_timed(&test_run, &run.spec, &options.oracle);
        timing.judge_us = timing.judge_us.saturating_add(saturating_us(judge_elapsed));
        verdict
    } else {
        judge_run(&test_run, &run.spec, &options.oracle)
    };
    RunRecord {
        key,
        outcome: RunOutcome::Completed(test_run.outcome.clone()),
        reports: verdict.reports,
        rethrow_filtered: verdict.rethrow_filtered,
        not_a_trigger: verdict.not_a_trigger,
        virtual_ms: test_run.virtual_ms,
        steps: test_run.steps,
        injections: handler.total_injected(),
        attempts: 1,
        quarantined: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use std::collections::BTreeSet;
    use wasabi_analysis::loops::{all_retry_locations, LoopQueryOptions};
    use wasabi_analysis::resolve::ProjectIndex;
    use wasabi_planner::coverage::profile_coverage;
    use wasabi_planner::plan::{expand_plan, plan};

    // Both tests burn >4096 interpreter steps up front (`spin`), so a
    // zero wall-clock budget is guaranteed to hit a deadline check —
    // the interpreter only polls the deadline every WALL_CHECK_INTERVAL
    // steps.
    const SOURCE: &str = "\
exception ConnectException;\nexception SocketException;\n\
class Flaky {\n\
  method spin() { var i = 0; while (i < 6000) { i = i + 1; } return i; }\n\
  method op() throws ConnectException { return \"ok\"; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (ConnectException e) { log(\"retrying\"); }\n\
    }\n\
  }\n\
  test tFlaky() { this.spin(); assert(this.run() == \"ok\"); }\n\
}\n\
class Solid {\n\
  field maxAttempts = 4;\n\
  method spin() { var i = 0; while (i < 6000) { i = i + 1; } return i; }\n\
  method fetch() throws SocketException { return \"ok\"; }\n\
  method run() {\n\
    for (var retry = 0; retry < this.maxAttempts; retry = retry + 1) {\n\
      try { return this.fetch(); } catch (SocketException e) { sleep(25); }\n\
    }\n\
    throw new SocketException(\"giving up\");\n\
  }\n\
  test tSolid() { this.spin(); assert(this.run() == \"ok\"); }\n\
}\n";

    fn campaign_runs(project: &Project) -> Vec<InjectionRun> {
        let index = ProjectIndex::build(project);
        let locations: Vec<_> = all_retry_locations(&index, &LoopQueryOptions::default())
            .into_iter()
            .flat_map(|(_, locations)| locations)
            .collect();
        let run_options = RunOptions::default();
        let profile = profile_coverage(project, &locations, &run_options);
        let all_sites: BTreeSet<_> = locations.iter().map(|l| l.site).collect();
        let test_plan = plan(&profile, &all_sites);
        expand_plan(&test_plan, &locations, &[1, 100])
    }

    fn render(records: &[RunRecord]) -> Vec<String> {
        records.iter().map(|r| format!("{r:?}")).collect()
    }

    /// Fast-backoff options so retry-heavy tests don't sleep.
    fn fast_retry(max_attempts: u8) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_delay: Duration::ZERO,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn records_are_identical_across_job_counts() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let runs = campaign_runs(&project);
        assert!(runs.len() >= 4, "expected >= 4 runs, got {}", runs.len());

        let baseline = run_campaign(
            &project,
            &runs,
            &CampaignOptions::default(),
            &mut NullObserver,
        );
        for jobs in [2, 4, 8] {
            let parallel = run_campaign(
                &project,
                &runs,
                &CampaignOptions {
                    jobs,
                    ..CampaignOptions::default()
                },
                &mut NullObserver,
            );
            assert_eq!(
                render(&baseline.records),
                render(&parallel.records),
                "records diverge at jobs={jobs}"
            );
            assert_eq!(parallel.stats.completed, baseline.stats.completed);
            assert_eq!(parallel.stats.failed, baseline.stats.failed);
            assert_eq!(parallel.stats.reports, baseline.stats.reports);
            assert_eq!(parallel.stats.virtual_ms, baseline.stats.virtual_ms);
        }
    }

    #[test]
    fn records_come_back_in_key_order_even_from_shuffled_input() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let mut runs = campaign_runs(&project);
        runs.reverse();
        let result = run_campaign(
            &project,
            &runs,
            &CampaignOptions {
                jobs: 4,
                ..CampaignOptions::default()
            },
            &mut NullObserver,
        );
        let keys: Vec<RunKey> = result.records.iter().map(|r| r.key.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "records must be in key order");
    }

    #[test]
    fn zero_budget_times_every_run_out_identically() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let runs = campaign_runs(&project);
        let options = CampaignOptions {
            run_budget: Some(Duration::ZERO),
            retry: fast_retry(3),
            ..CampaignOptions::default()
        };
        let serial = run_campaign(&project, &runs, &options, &mut NullObserver);
        assert_eq!(serial.stats.timed_out, runs.len());
        assert_eq!(serial.stats.reports, 0, "timed-out runs are not judged");
        assert_eq!(
            serial.stats.quarantined,
            runs.len(),
            "exhausted timed-out runs are quarantined"
        );
        assert_eq!(serial.stats.retried, runs.len() * 2, "3 attempts per run");
        let parallel = run_campaign(
            &project,
            &runs,
            &CampaignOptions { jobs: 8, ..options },
            &mut NullObserver,
        );
        assert_eq!(
            render(&serial.records),
            render(&parallel.records),
            "timed-out runs must be reported identically regardless of worker"
        );
        for record in &serial.records {
            assert_eq!(record.outcome, RunOutcome::TimedOut);
            assert_eq!((record.virtual_ms, record.steps, record.injections), (0, 0, 0));
            assert_eq!(record.attempts, 3);
            assert!(record.quarantined);
        }
    }

    #[test]
    fn empty_campaign_finishes_cleanly() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let result = run_campaign(
            &project,
            &[],
            &CampaignOptions {
                jobs: 4,
                ..CampaignOptions::default()
            },
            &mut NullObserver,
        );
        assert!(result.records.is_empty());
        assert_eq!(result.stats.runs_total, 0);
    }

    #[test]
    fn observer_sees_every_run_start_and_finish() {
        #[derive(Default)]
        struct Counter {
            started: usize,
            finished: usize,
            campaign_started: usize,
            campaign_finished: usize,
        }
        impl EngineObserver for Counter {
            fn on_event(&mut self, event: &EngineEvent<'_>) {
                match event {
                    EngineEvent::Started { .. } => self.campaign_started += 1,
                    EngineEvent::RunStarted { .. } => self.started += 1,
                    EngineEvent::RunFinished { .. } => self.finished += 1,
                    EngineEvent::Finished { .. } => self.campaign_finished += 1,
                    _ => {}
                }
            }
        }
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let runs = campaign_runs(&project);
        let mut counter = Counter::default();
        let result = run_campaign(
            &project,
            &runs,
            &CampaignOptions {
                jobs: 3,
                ..CampaignOptions::default()
            },
            &mut counter,
        );
        assert_eq!(counter.campaign_started, 1);
        assert_eq!(counter.campaign_finished, 1);
        assert_eq!(counter.started, runs.len());
        assert_eq!(counter.finished, runs.len());
        assert_eq!(
            result.stats.worker_runs.iter().sum::<usize>(),
            runs.len(),
            "worker utilization accounts for every run"
        );
    }

    // ---- Resilience: chaos self-tests --------------------------------------

    /// The chaos matrix of the resilience acceptance criteria: campaigns
    /// with injected panics must complete, report every key exactly once,
    /// and produce byte-identical records across panic rates and worker
    /// counts.
    #[test]
    fn chaos_panics_are_contained_and_deterministic_across_jobs() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let runs = campaign_runs(&project);
        let expected_keys: Vec<RunKey> = {
            let mut keys: Vec<RunKey> = runs.iter().map(InjectionRun::key).collect();
            keys.sort();
            keys
        };
        for panic_rate in [0.1, 0.5, 1.0] {
            let options = |jobs: usize| CampaignOptions {
                jobs,
                retry: fast_retry(2),
                chaos: Some(ChaosConfig::panics(panic_rate, 0xC0FFEE)),
                ..CampaignOptions::default()
            };
            let baseline = run_campaign(&project, &runs, &options(1), &mut NullObserver);
            let keys: Vec<RunKey> = baseline.records.iter().map(|r| r.key.clone()).collect();
            assert_eq!(keys, expected_keys, "every planned key exactly once");
            if panic_rate >= 1.0 {
                assert_eq!(
                    baseline.stats.crashed,
                    runs.len(),
                    "rate 1.0 crashes every run"
                );
                assert_eq!(baseline.stats.quarantined, runs.len());
            }
            for record in &baseline.records {
                if let RunOutcome::Crashed { message } = &record.outcome {
                    assert!(message.starts_with("chaos: injected panic"));
                    assert!(record.quarantined, "exhausted crashes are quarantined");
                    assert_eq!(
                        (record.virtual_ms, record.steps, record.injections),
                        (0, 0, 0),
                        "crashed runs have zeroed measurements"
                    );
                }
            }
            for jobs in [2, 8] {
                let parallel = run_campaign(&project, &runs, &options(jobs), &mut NullObserver);
                assert_eq!(
                    render(&baseline.records),
                    render(&parallel.records),
                    "chaos campaign diverged at panic_rate={panic_rate} jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn retry_policy_recovers_single_attempt_panics() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let runs = campaign_runs(&project);
        // Rate 1.0 on attempt 1 only: chaos draws are per-attempt, so with
        // enough attempts every run eventually gets a panic-free draw.
        // A rate this high needs a couple of retries; 1.0 would never
        // recover, and the matrix test covers that case.
        let options = CampaignOptions {
            jobs: 4,
            retry: fast_retry(8),
            chaos: Some(ChaosConfig::panics(0.5, 7)),
            ..CampaignOptions::default()
        };
        let result = run_campaign(&project, &runs, &options, &mut NullObserver);
        assert!(
            result.stats.retried > 0,
            "a 50% panic rate must trigger retries"
        );
        assert_eq!(
            result.stats.crashed, 0,
            "8 attempts recover every 50%-rate run: {:?}",
            result
                .records
                .iter()
                .map(|r| (&r.outcome, r.attempts))
                .collect::<Vec<_>>()
        );
        assert_eq!(result.stats.quarantined, 0);
        // Recovered runs judge identically to a chaos-free campaign.
        let clean = run_campaign(
            &project,
            &runs,
            &CampaignOptions::default(),
            &mut NullObserver,
        );
        assert_eq!(result.stats.reports, clean.stats.reports);
        assert_eq!(result.stats.failed, clean.stats.failed);
    }

    #[test]
    fn killed_worker_degrades_gracefully_and_campaign_completes() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let runs = campaign_runs(&project);
        for jobs in [1usize, 2, 4] {
            let options = CampaignOptions {
                jobs,
                chaos: Some(ChaosConfig {
                    panic_rate: 0.0,
                    max_delay_ms: 0,
                    seed: 0,
                    kill_worker: Some(0),
                    exit_after_appends: None,
                }),
                ..CampaignOptions::default()
            };
            let result = run_campaign(&project, &runs, &options, &mut NullObserver);
            assert_eq!(result.stats.workers_lost, 1, "worker 0 dies at jobs={jobs}");
            assert_eq!(
                result.records.len(),
                runs.len(),
                "campaign completes with fewer workers at jobs={jobs}"
            );
            let clean = run_campaign(
                &project,
                &runs,
                &CampaignOptions::default(),
                &mut NullObserver,
            );
            assert_eq!(
                render(&result.records),
                render(&clean.records),
                "lost worker must not change records at jobs={jobs}"
            );
            if jobs == 1 {
                assert!(
                    result.stats.supervisor_runs > 0,
                    "with the only worker dead, the coordinator drains the queue inline"
                );
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = RetryPolicy::default();
        let runs_key = RunKey {
            test: wasabi_lang::project::MethodId::new("C", "t"),
            site: wasabi_lang::project::CallSite {
                file: wasabi_lang::project::FileId(0),
                call: wasabi_lang::ast::CallId(1),
            },
            exception: "E".to_string(),
            k: 1,
        };
        let d1 = policy.backoff(&runs_key, 1);
        let d2 = policy.backoff(&runs_key, 2);
        assert_eq!(d1, policy.backoff(&runs_key, 1), "jitter is seeded");
        // Equal jitter keeps each delay in [d/2, d).
        assert!(d1 >= policy.base_delay / 2 && d1 < policy.base_delay);
        assert!(d2 >= policy.base_delay, "attempt 2 backs off further");
        // A huge attempt number stays under the cap.
        let capped = policy.backoff(&runs_key, 40);
        assert!(capped < policy.cap);
        // Zero base delay disables sleeping regardless of attempt.
        let zero = RetryPolicy {
            base_delay: Duration::ZERO,
            ..RetryPolicy::default()
        };
        assert_eq!(zero.backoff(&runs_key, 3), Duration::ZERO);
    }

    #[test]
    fn resume_skips_completed_runs_and_merges_identically() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let runs = campaign_runs(&project);
        let full = run_campaign(
            &project,
            &runs,
            &CampaignOptions::default(),
            &mut NullObserver,
        );
        // Resume from the first half of the records.
        let half = full.records.len() / 2;
        let resumed = run_campaign(
            &project,
            &runs,
            &CampaignOptions {
                jobs: 4,
                resume: full.records[..half].to_vec(),
                ..CampaignOptions::default()
            },
            &mut NullObserver,
        );
        assert_eq!(resumed.stats.resumed, half);
        assert_eq!(
            resumed.stats.worker_runs.iter().sum::<usize>() + resumed.stats.supervisor_runs,
            runs.len() - half,
            "resume executes strictly fewer runs than the full plan"
        );
        assert_eq!(
            render(&full.records),
            render(&resumed.records),
            "resumed campaign must merge to identical records"
        );
    }
}
