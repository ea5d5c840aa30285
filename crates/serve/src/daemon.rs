//! The campaign-as-a-service daemon.
//!
//! One accept loop hands each connection to a detached session thread; a
//! fixed pool of runner threads executes jobs in the order the
//! [`Scheduler`](crate::scheduler::Scheduler) dictates. All shared state
//! lives behind one mutex; campaigns themselves run outside it, so a
//! slow campaign never blocks submissions, status queries, or cancels.
//!
//! Determinism contract: a job's report is produced by the same
//! [`compile_app`] → [`run_app_job`] → [`report_json`] pipeline as
//! `wasabi test --json`, so daemon output is byte-identical to batch
//! output for the same sources — cached or freshly compiled, whatever
//! the submission order or worker count.

use crate::cache::IndexCache;
use crate::protocol::{
    error_response, ok_response, parse_request, rejected_response, Request, DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_KIND, PROTOCOL_VERSION,
};
use crate::scheduler::{Admission, CancelOutcome, JobState, Scheduler, SchedulerConfig};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;
use wasabi_core::{compile_app, report_json, run_app_job, source_digest, DynamicOptions};
use wasabi_engine::observer::{EngineEvent, EngineObserver};
use wasabi_util::metrics::{Clock, WallClock};
use wasabi_util::Json;

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Bind {
    /// A TCP address like `127.0.0.1:0` (port 0 picks a free port).
    Tcp(String),
    /// A unix-domain socket path (created at bind, removed if stale).
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address.
    pub bind: Bind,
    /// Scheduling policy (admission caps, queue timeout).
    pub scheduler: SchedulerConfig,
    /// Compiled-app cache capacity.
    pub cache_capacity: usize,
    /// Default campaign worker count for jobs that don't override it.
    pub campaign_jobs: usize,
    /// Per-frame size cap; oversized frames get an error and the
    /// connection is dropped.
    pub max_frame_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            scheduler: SchedulerConfig::default(),
            cache_capacity: 8,
            campaign_jobs: 2,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// A submitted job's inputs, queued until a runner picks them up.
#[derive(Debug)]
struct JobPayload {
    name: String,
    files: Vec<(String, String)>,
    jobs: Option<usize>,
    /// `Some(n)` runs the campaign as a sharded multi-process campaign
    /// with `n` child processes (re-execing this daemon's own binary).
    shards: Option<usize>,
}

/// A finished job's product.
#[derive(Debug)]
struct JobDone {
    report: String,
    bugs: usize,
    cached: bool,
}

#[derive(Debug)]
struct State {
    scheduler: Scheduler<JobPayload>,
    cache: IndexCache,
    results: BTreeMap<u64, Result<JobDone, String>>,
    subscribers: BTreeMap<u64, Vec<mpsc::Sender<String>>>,
    shutdown: bool,
    /// Graceful drain: refuse new admissions (retryable `"draining"`
    /// rejection), finish what was admitted, then flip `shutdown`.
    draining: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when queued work or a free runner slot appears.
    work: Condvar,
    /// Signalled when any job reaches a terminal state.
    done: Condvar,
    clock: WallClock,
    campaign_jobs: usize,
}

impl Shared {
    /// Expires queue-wait deadlines and closes their subscriber streams.
    /// Called from every wait loop so expiry does not depend on runner
    /// availability.
    fn tick_locked(&self, state: &mut State) {
        let now = self.clock.now_us();
        let expired = state.scheduler.tick(now);
        if expired.is_empty() {
            return;
        }
        for id in expired {
            finish_subscribers(state, id, "expired");
        }
        self.done.notify_all();
    }
}

/// Sends the terminal event to a job's subscribers and drops their
/// senders, which ends each subscriber's stream.
fn finish_subscribers(state: &mut State, id: u64, terminal: &str) {
    if let Some(senders) = state.subscribers.remove(&id) {
        let line = Json::obj([
            ("event", Json::from("finished")),
            ("id", Json::from(id)),
            ("state", Json::from(terminal)),
        ])
        .to_string();
        for sender in senders {
            let _ = sender.send(line.clone());
        }
    }
}

/// Forwards engine events to a job's live subscribers as JSON lines.
/// Re-reads the subscriber list per event so clients attaching mid-run
/// receive the remainder of the stream.
struct SubscriberBridge<'a> {
    shared: &'a Shared,
    id: u64,
}

impl SubscriberBridge<'_> {
    fn broadcast(&self, line: String) {
        let state = &mut *self.shared.state.lock().expect("serve state lock");
        if let Some(senders) = state.subscribers.get_mut(&self.id) {
            senders.retain(|sender| sender.send(line.clone()).is_ok());
        }
    }
}

impl EngineObserver for SubscriberBridge<'_> {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        let id = self.id;
        let line = match event {
            EngineEvent::PhaseStarted { name } => Json::obj([
                ("event", Json::from("phase_started")),
                ("id", Json::from(id)),
                ("name", Json::from(*name)),
            ]),
            EngineEvent::PhaseFinished { name } => Json::obj([
                ("event", Json::from("phase_finished")),
                ("id", Json::from(id)),
                ("name", Json::from(*name)),
            ]),
            EngineEvent::Started {
                total_runs, jobs, ..
            } => Json::obj([
                ("event", Json::from("campaign_started")),
                ("id", Json::from(id)),
                ("total_runs", Json::from(*total_runs)),
                ("jobs", Json::from(*jobs)),
            ]),
            EngineEvent::RunFinished {
                index,
                reports,
                attempts,
                ..
            } => Json::obj([
                ("event", Json::from("run_finished")),
                ("id", Json::from(id)),
                ("index", Json::from(*index)),
                ("reports", Json::from(*reports)),
                ("attempts", Json::from(u32::from(*attempts))),
            ]),
            EngineEvent::Finished { stats, .. } => Json::obj([
                ("event", Json::from("campaign_finished")),
                ("id", Json::from(id)),
                ("runs_total", Json::from(stats.runs_total)),
                ("reports", Json::from(stats.reports)),
            ]),
            // Per-attempt noise (retries, crashes, checkpoints) stays
            // local; subscribers get phase edges and run completions.
            _ => return,
        };
        self.broadcast(line.to_string());
    }
}

/// A running daemon: its bound address and the threads to join.
pub struct DaemonHandle {
    /// The bound address — `host:port` for TCP (with the real port when
    /// 0 was requested), the socket path for unix.
    pub addr: String,
    threads: Vec<thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// The startup banner printed by `wasabi serve` (and parsed by the
    /// smoke test to discover the port).
    pub fn banner(&self) -> String {
        Json::obj([
            ("kind", Json::from(PROTOCOL_KIND)),
            ("version", Json::from(PROTOCOL_VERSION)),
            ("addr", Json::from(self.addr.as_str())),
        ])
        .to_string()
    }

    /// Blocks until the daemon shuts down (via the `shutdown` op).
    pub fn join(self) {
        for handle in self.threads {
            let _ = handle.join();
        }
    }
}

enum ListenerKind {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// Binds, spawns the runner pool and accept loop, and returns. The
/// daemon stops when a client sends the `shutdown` op.
pub fn spawn(options: ServeOptions) -> io::Result<DaemonHandle> {
    let (listener, addr) = match &options.bind {
        Bind::Tcp(addr) => {
            let listener = TcpListener::bind(addr.as_str())?;
            let local = listener.local_addr()?.to_string();
            (ListenerKind::Tcp(listener), local)
        }
        #[cfg(unix)]
        Bind::Unix(path) => {
            // A stale socket file from a dead daemon would fail the bind;
            // connect() distinguishes stale from live.
            if path.exists() && UnixStream::connect(path).is_err() {
                let _ = std::fs::remove_file(path);
            }
            let listener = UnixListener::bind(path)?;
            (
                ListenerKind::Unix(listener),
                path.to_string_lossy().into_owned(),
            )
        }
    };

    let max_inflight = options.scheduler.max_inflight.max(1);
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            scheduler: Scheduler::new(options.scheduler.clone()),
            cache: IndexCache::new(options.cache_capacity),
            results: BTreeMap::new(),
            subscribers: BTreeMap::new(),
            shutdown: false,
            draining: false,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
        clock: WallClock::new(),
        campaign_jobs: options.campaign_jobs.max(1),
    });

    let mut threads = Vec::with_capacity(max_inflight + 1);
    for _ in 0..max_inflight {
        let shared = Arc::clone(&shared);
        threads.push(thread::spawn(move || runner_loop(&shared)));
    }

    let accept_shared = Arc::clone(&shared);
    let accept_addr = addr.clone();
    let max_frame = options.max_frame_bytes;
    threads.push(thread::spawn(move || match listener {
        ListenerKind::Tcp(listener) => {
            for stream in listener.incoming() {
                if accept_shared.state.lock().expect("serve state lock").shutdown {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(&accept_shared);
                let addr = accept_addr.clone();
                // Detached: a lingering connection must not block shutdown.
                thread::spawn(move || run_session(stream, &shared, &addr, max_frame));
            }
        }
        #[cfg(unix)]
        ListenerKind::Unix(listener) => {
            for stream in listener.incoming() {
                if accept_shared.state.lock().expect("serve state lock").shutdown {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let shared = Arc::clone(&accept_shared);
                let addr = accept_addr.clone();
                thread::spawn(move || run_session(stream, &shared, &addr, max_frame));
            }
        }
    }));

    Ok(DaemonHandle { addr, threads })
}

/// Connects to the daemon's own listener; used after setting the
/// shutdown flag to unblock the blocking accept call.
fn poke_listener(addr: &str) {
    #[cfg(unix)]
    if addr.starts_with('/') || addr.starts_with('.') {
        let _ = UnixStream::connect(addr);
        return;
    }
    let _ = TcpStream::connect(addr);
}

fn runner_loop(shared: &Shared) {
    loop {
        let (id, payload) = {
            let mut state = shared.state.lock().expect("serve state lock");
            loop {
                if state.shutdown {
                    return;
                }
                shared.tick_locked(&mut state);
                if let Some(job) = state.scheduler.start_next() {
                    break job;
                }
                // The timeout bounds how stale queue-wait expiry can get
                // while every runner idles; work arrival still wakes us
                // immediately via the condvar.
                state = shared
                    .work
                    .wait_timeout(state, Duration::from_millis(25))
                    .expect("serve state lock")
                    .0;
            }
        };
        execute_job(shared, id, payload);
    }
}

fn execute_job(shared: &Shared, id: u64, payload: JobPayload) {
    if let Some(shards) = payload.shards {
        let result = execute_sharded_job(shared, id, shards, &payload);
        let mut state = shared.state.lock().expect("serve state lock");
        let was_cancelled = state.scheduler.state(id) == Some(JobState::Cancelled);
        state.scheduler.finish(id, result.is_ok());
        if was_cancelled {
            finish_subscribers(&mut state, id, "cancelled");
        } else {
            let terminal = if result.is_ok() { "done" } else { "failed" };
            state.results.insert(id, result);
            finish_subscribers(&mut state, id, terminal);
        }
        shared.done.notify_all();
        shared.work.notify_all();
        return;
    }
    let digest = source_digest(&payload.name, &payload.files);
    let cached_job = shared
        .state
        .lock()
        .expect("serve state lock")
        .cache
        .get(digest);
    let (job, cached) = match cached_job {
        Some(job) => (job, true),
        // Compile outside the lock: other sessions keep submitting and
        // querying while this runner compiles.
        None => match compile_app(&payload.name, payload.files, 0) {
            Ok(job) => {
                let job = Arc::new(job);
                shared
                    .state
                    .lock()
                    .expect("serve state lock")
                    .cache
                    .insert(Arc::clone(&job));
                (job, false)
            }
            Err(diagnostics) => {
                let message = diagnostics
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("; ");
                let mut state = shared.state.lock().expect("serve state lock");
                state.scheduler.finish(id, false);
                state.results.insert(id, Err(format!("compile failed: {message}")));
                finish_subscribers(&mut state, id, "failed");
                shared.done.notify_all();
                shared.work.notify_all();
                return;
            }
        },
    };

    let mut options = DynamicOptions {
        jobs: payload.jobs.unwrap_or(shared.campaign_jobs),
        ..DynamicOptions::default()
    };
    // Timing capture only matters to subscribers watching span events;
    // unobserved jobs skip the clock reads (the report never carries
    // timing, so this cannot change the output bytes).
    options.capture_timing = {
        let state = shared.state.lock().expect("serve state lock");
        state.subscribers.contains_key(&id)
    };

    let mut bridge = SubscriberBridge { shared, id };
    let result = run_app_job(&job, &options, &mut bridge);
    let report = report_json(&job.identified, &result);
    let bugs = result.bugs.len();

    let mut state = shared.state.lock().expect("serve state lock");
    let was_cancelled = state.scheduler.state(id) == Some(JobState::Cancelled);
    state.scheduler.finish(id, true);
    if was_cancelled {
        // The cancel won: the computed result is discarded.
        finish_subscribers(&mut state, id, "cancelled");
    } else {
        state.results.insert(id, Ok(JobDone { report, bugs, cached }));
        finish_subscribers(&mut state, id, "done");
    }
    shared.done.notify_all();
    shared.work.notify_all();
}

/// Runs a submission as a crash-tolerant multi-process sharded campaign:
/// sources go to a per-job scratch directory (the child processes — this
/// daemon's own binary, re-execed — read them from disk), the supervisor
/// and merge run there, and the merged report comes back byte-identical
/// to the in-process pipeline whenever nothing was dead-lettered.
fn execute_sharded_job(
    shared: &Shared,
    id: u64,
    shards: usize,
    payload: &JobPayload,
) -> Result<JobDone, String> {
    for (path, _) in &payload.files {
        // Submitted paths are digest keys in the in-process pipeline, but
        // here they touch the filesystem: keep them inside the scratch dir.
        if std::path::Path::new(path).is_absolute() || path.split('/').any(|seg| seg == "..") {
            return Err(format!("sharded submission paths must be relative: {path:?}"));
        }
    }
    let digest = source_digest(&payload.name, &payload.files);
    let scratch = std::env::temp_dir().join(format!("wasabi-serve-shard-{digest:016x}-{id}"));
    std::fs::create_dir_all(&scratch)
        .map_err(|err| format!("create scratch dir {}: {err}", scratch.display()))?;
    let write = (|| -> Result<(), String> {
        for (path, contents) in &payload.files {
            let full = scratch.join(path);
            if let Some(parent) = full.parent() {
                std::fs::create_dir_all(parent)
                    .map_err(|err| format!("create {}: {err}", parent.display()))?;
            }
            std::fs::write(&full, contents)
                .map_err(|err| format!("write {}: {err}", full.display()))?;
        }
        Ok(())
    })();
    let result = write.and_then(|()| {
        let exe = std::env::current_exe()
            .map_err(|err| format!("cannot locate the wasabi binary for re-exec: {err}"))?;
        let options = wasabi_core::sharded::ShardedOptions {
            shards,
            dir: scratch.join("shards"),
            exe,
            cwd: Some(scratch.clone()),
            jobs: payload.jobs.unwrap_or(shared.campaign_jobs),
            quiet: true,
            ..wasabi_core::sharded::ShardedOptions::default()
        };
        let files: Vec<String> = payload.files.iter().map(|(path, _)| path.clone()).collect();
        wasabi_core::sharded::run_sharded(&files, &options).map(|outcome| JobDone {
            report: outcome.report,
            bugs: outcome.bugs,
            cached: false,
        })
    });
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Reads one frame (a line up to `max_frame` bytes). Returns
/// `Ok(None)` on EOF, `Err(oversized)` when the cap is hit.
fn read_frame<R: BufRead>(reader: &mut R, max_frame: usize) -> io::Result<Option<Result<String, ()>>> {
    let mut line = Vec::new();
    let n = reader
        .by_ref()
        .take(max_frame as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if line.len() > max_frame {
        return Ok(Some(Err(())));
    }
    while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(Some(Ok(String::from_utf8_lossy(&line).into_owned())))
}

fn write_line<W: Write>(writer: &mut W, line: &str) -> io::Result<()> {
    // One write per frame: splitting the newline into its own segment
    // triggers Nagle/delayed-ACK stalls (~40ms per response) on TCP.
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    writer.write_all(&framed)?;
    writer.flush()
}

fn run_session<S: Read + Write>(stream: S, shared: &Arc<Shared>, addr: &str, max_frame: usize) {
    let mut reader = BufReader::new(stream);
    loop {
        let frame = match read_frame(&mut reader, max_frame) {
            Ok(Some(Ok(frame))) => frame,
            Ok(Some(Err(()))) => {
                // Oversized: answer, then drop the connection — the rest
                // of the frame is unread and would desynchronize parsing.
                let _ = write_line(
                    reader.get_mut(),
                    &error_response(&format!("frame exceeds {max_frame} bytes")),
                );
                return;
            }
            Ok(None) | Err(_) => return,
        };
        if frame.trim().is_empty() {
            continue;
        }
        let request = match parse_request(&frame) {
            Ok(request) => request,
            Err(message) => {
                // Malformed frames get an error; the connection stays
                // usable (line framing is intact).
                if write_line(reader.get_mut(), &error_response(&message)).is_err() {
                    return;
                }
                continue;
            }
        };
        let keep_going = handle_request(request, &mut reader, shared, addr);
        if !keep_going {
            return;
        }
    }
}

/// Handles one request, writing responses through the reader's inner
/// stream. Returns `false` when the session should end.
fn handle_request<S: Read + Write>(
    request: Request,
    reader: &mut BufReader<S>,
    shared: &Arc<Shared>,
    addr: &str,
) -> bool {
    match request {
        Request::Submit {
            name,
            priority,
            files,
            jobs,
            shards,
        } => {
            let response = {
                let mut state = shared.state.lock().expect("serve state lock");
                // Draining first: a drained daemon has also set `shutdown`,
                // and a late submission still gets the retryable answer.
                if state.draining {
                    // A rejection, not an error: like a full queue, this
                    // is backpressure the client may retry elsewhere (or
                    // later, against a restarted daemon).
                    rejected_response("draining")
                } else if state.shutdown {
                    error_response("daemon is shutting down")
                } else {
                    shared.tick_locked(&mut state);
                    let now = shared.clock.now_us();
                    match state.scheduler.submit(
                        now,
                        priority,
                        JobPayload {
                            name,
                            files,
                            jobs,
                            shards,
                        },
                    ) {
                        Admission::Queued { id, position } => {
                            shared.work.notify_all();
                            ok_response([
                                ("id", Json::from(id)),
                                ("position", Json::from(position)),
                            ])
                        }
                        Admission::Rejected { reason } => rejected_response(&reason),
                    }
                }
            };
            write_line(reader.get_mut(), &response).is_ok()
        }
        Request::Status { id } => {
            let response = {
                let mut state = shared.state.lock().expect("serve state lock");
                shared.tick_locked(&mut state);
                match state.scheduler.state(id) {
                    None => error_response("unknown job id"),
                    Some(job_state) => {
                        let mut fields = vec![
                            ("id", Json::from(id)),
                            ("state", Json::from(job_state.as_str())),
                        ];
                        if let Some(position) = state.scheduler.queue_position(id) {
                            fields.push(("position", Json::from(position)));
                        }
                        ok_response(fields)
                    }
                }
            };
            write_line(reader.get_mut(), &response).is_ok()
        }
        Request::Cancel { id } => {
            let response = {
                let mut state = shared.state.lock().expect("serve state lock");
                let outcome = state.scheduler.cancel(id);
                match outcome {
                    CancelOutcome::CancelledQueued => {
                        // No runner will ever touch this job; close its
                        // subscriber streams here.
                        finish_subscribers(&mut state, id, "cancelled");
                        shared.done.notify_all();
                        ok_response([("id", Json::from(id)), ("cancelled", Json::from("queued"))])
                    }
                    CancelOutcome::CancelledRunning => {
                        shared.done.notify_all();
                        ok_response([("id", Json::from(id)), ("cancelled", Json::from("running"))])
                    }
                    CancelOutcome::AlreadyCancelled => error_response("job already cancelled"),
                    CancelOutcome::AlreadyFinished => error_response("job already finished"),
                    CancelOutcome::Unknown => error_response("unknown job id"),
                }
            };
            write_line(reader.get_mut(), &response).is_ok()
        }
        Request::Subscribe { id } => {
            let outcome = {
                let mut state = shared.state.lock().expect("serve state lock");
                shared.tick_locked(&mut state);
                match state.scheduler.state(id) {
                    None => Err(error_response("unknown job id")),
                    Some(job_state) if job_state.is_terminal() => Ok(Err(job_state)),
                    Some(_) => {
                        let (tx, rx) = mpsc::channel();
                        state.subscribers.entry(id).or_default().push(tx);
                        Ok(Ok(rx))
                    }
                }
            };
            match outcome {
                Err(response) => write_line(reader.get_mut(), &response).is_ok(),
                Ok(Err(terminal)) => {
                    let ok = ok_response([("id", Json::from(id)), ("streaming", Json::from(false))]);
                    if write_line(reader.get_mut(), &ok).is_err() {
                        return false;
                    }
                    let line = Json::obj([
                        ("event", Json::from("finished")),
                        ("id", Json::from(id)),
                        ("state", Json::from(terminal.as_str())),
                    ])
                    .to_string();
                    write_line(reader.get_mut(), &line).is_ok()
                }
                Ok(Ok(rx)) => {
                    let ok = ok_response([("id", Json::from(id)), ("streaming", Json::from(true))]);
                    if write_line(reader.get_mut(), &ok).is_err() {
                        return false;
                    }
                    // Stream until the runner (or cancel/expiry) drops
                    // the senders; the "finished" event is last.
                    for line in rx {
                        if write_line(reader.get_mut(), &line).is_err() {
                            return false;
                        }
                    }
                    true
                }
            }
        }
        Request::Wait { id } => {
            let response = wait_for_job(shared, id);
            write_line(reader.get_mut(), &response).is_ok()
        }
        Request::Stats => {
            let response = {
                let state = shared.state.lock().expect("serve state lock");
                let c = state.scheduler.counters;
                ok_response([
                    ("queued", Json::from(state.scheduler.queued_len())),
                    ("running", Json::from(state.scheduler.running_len())),
                    ("submitted", Json::from(c.submitted)),
                    ("rejected", Json::from(c.rejected)),
                    ("expired", Json::from(c.expired)),
                    ("cancelled", Json::from(c.cancelled)),
                    ("finished", Json::from(c.finished)),
                    ("cache_hits", Json::from(state.cache.hits)),
                    ("cache_misses", Json::from(state.cache.misses)),
                    ("cache_evicted", Json::from(state.cache.evicted)),
                ])
            };
            write_line(reader.get_mut(), &response).is_ok()
        }
        Request::Shutdown { drain, deadline_ms } => {
            if drain {
                {
                    let mut state = shared.state.lock().expect("serve state lock");
                    state.draining = true;
                    shared.work.notify_all();
                    shared.done.notify_all();
                }
                // A detached monitor flips `shutdown` once the scheduler
                // is empty (or the deadline passes); runners and waiters
                // never have to know drain exists.
                let monitor = Arc::clone(shared);
                let monitor_addr = addr.to_string();
                let deadline_us = deadline_ms
                    .map(|ms| shared.clock.now_us().saturating_add(ms.saturating_mul(1000)));
                thread::spawn(move || drain_monitor(&monitor, &monitor_addr, deadline_us));
                let response =
                    ok_response([("stopping", Json::from(true)), ("draining", Json::from(true))]);
                let _ = write_line(reader.get_mut(), &response);
            } else {
                {
                    let mut state = shared.state.lock().expect("serve state lock");
                    state.shutdown = true;
                    shared.work.notify_all();
                    shared.done.notify_all();
                }
                let _ =
                    write_line(reader.get_mut(), &ok_response([("stopping", Json::from(true))]));
                // Unblock the accept loop so it observes the flag.
                poke_listener(addr);
            }
            false
        }
    }
}

/// Waits out a graceful drain: once every admitted job is terminal (or
/// the deadline passes, abandoning whatever is still queued), flips the
/// shutdown flag and pokes the accept loop so the daemon exits cleanly.
fn drain_monitor(shared: &Shared, addr: &str, deadline_us: Option<u64>) {
    loop {
        let finished = {
            let mut state = shared.state.lock().expect("serve state lock");
            if state.shutdown {
                true
            } else {
                shared.tick_locked(&mut state);
                let idle =
                    state.scheduler.queued_len() == 0 && state.scheduler.running_len() == 0;
                let expired = deadline_us.is_some_and(|d| shared.clock.now_us() >= d);
                if idle || expired {
                    state.shutdown = true;
                    true
                } else {
                    let _ = shared
                        .done
                        .wait_timeout(state, Duration::from_millis(25))
                        .expect("serve state lock");
                    false
                }
            }
        };
        if finished {
            shared.work.notify_all();
            shared.done.notify_all();
            poke_listener(addr);
            return;
        }
    }
}

fn wait_for_job(shared: &Shared, id: u64) -> String {
    let mut state = shared.state.lock().expect("serve state lock");
    loop {
        shared.tick_locked(&mut state);
        match state.scheduler.state(id) {
            None => return error_response("unknown job id"),
            Some(JobState::Done) | Some(JobState::Failed) => {
                return match state.results.get(&id) {
                    Some(Ok(done)) => ok_response([
                        ("id", Json::from(id)),
                        ("state", Json::from("done")),
                        ("cached", Json::from(done.cached)),
                        ("bugs", Json::from(done.bugs)),
                        ("report", Json::from(done.report.as_str())),
                    ]),
                    Some(Err(message)) => error_response(message),
                    None => error_response("job result was discarded"),
                };
            }
            Some(JobState::Cancelled) => return error_response("job was cancelled"),
            Some(JobState::Expired) => {
                return error_response("job expired waiting in queue")
            }
            Some(JobState::Queued) | Some(JobState::Running) => {
                if state.shutdown {
                    return error_response("daemon is shutting down");
                }
                // The timeout keeps queue-wait expiry moving even when
                // no runner is idle to tick the wheel.
                state = shared
                    .done
                    .wait_timeout(state, Duration::from_millis(25))
                    .expect("serve state lock")
                    .0;
            }
        }
    }
}
