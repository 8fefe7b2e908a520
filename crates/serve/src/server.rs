//! The daemon: a single acceptor thread, a bounded job queue, and a fixed
//! worker pool sharing one [`Store`] and one [`Recorder`].
//!
//! Sharding model: the *job* is the unit of distribution. The acceptor
//! parses and validates each request inline (cheap — bodies are small
//! text), then hands the job plus its connection to the queue; whichever
//! worker pops it runs the full compaction and writes the response on the
//! job's own socket. Backpressure is explicit: a full queue answers
//! `429 Too Many Requests` with `Retry-After`, never an unbounded buffer.
//!
//! Thread budget: an N-worker pool gives each job
//! `host_parallelism() / N` engine threads (at least 1), so N concurrent
//! fault simulations together use the host once over — not N times
//! (oversubscription measured 0.807x in PR 3).
//!
//! Shutdown (`POST /shutdown`, SIGTERM, or [`ServerHandle::shutdown`])
//! drains gracefully: the acceptor stops accepting, workers finish every
//! queued job, and only jobs that no worker will ever pop (a zero-worker
//! test configuration) are answered `503`.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use warpstl_sync::AtomicBool;

use warpstl_core::jobs::{
    analyze_job, compact_job, compact_stl_job, lint_job, JobError, JobOptions,
};
use warpstl_fault::{host_parallelism, FaultModel};
use warpstl_obs::{names, Recorder};
use warpstl_store::Store;

use crate::http::{read_request, write_response, ParseError, Request, READ_TIMEOUT};
use crate::json::{escape, parse, Json};
use crate::queue::{JobQueue, PushRejection};

/// How often the nonblocking accept loop polls the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Daemon configuration; the CLI's `serve` flags map onto this 1:1.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 picks a free port).
    pub addr: String,
    /// Worker pool size. `None` resolves to `min(4, host_parallelism())`;
    /// `Some(0)` is a test hook — jobs queue but never run, which makes
    /// queue-full behavior deterministic.
    pub workers: Option<usize>,
    /// Bounded queue capacity; the `workers + queue_cap + 1`-th
    /// concurrent job is rejected with 429.
    pub queue_cap: usize,
    /// Artifact cache directory shared by every job, if any.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: None,
            queue_cap: 16,
            cache_dir: None,
        }
    }
}

/// One queued unit of work: the validated job plus the connection its
/// response belongs on.
struct Job {
    spec: JobSpec,
    /// `?format=report`: respond with the raw report bytes (the CLI's
    /// `--json` output) instead of the envelope.
    raw_report: bool,
    stream: TcpStream,
}

enum JobSpec {
    Compact { ptp: String, opts: JobOptions },
    CompactStl { stl: String, opts: JobOptions },
    Analyze { module: String, lanes: usize },
    Lint { ptp: String },
}

struct Shared {
    store: Option<Arc<Store>>,
    recorder: Recorder,
    queue: JobQueue<Job>,
    workers: usize,
    /// Engine threads each job gets: the worker pool's even share of the
    /// host, so the pool as a whole never oversubscribes.
    job_threads: usize,
    shutdown: AtomicBool,
}

impl Shared {
    /// Folds a per-job recorder's counters into the daemon-lifetime
    /// recorder. Jobs get their own recorder (not the shared one) so the
    /// daemon aggregates *counters* without accumulating every job's
    /// spans for its whole lifetime.
    fn absorb_job_counters(&self, job_rec: &Recorder) {
        for (name, n) in &job_rec.metrics().counters {
            self.recorder.add(name, *n);
        }
    }

    fn metrics_json(&self) -> String {
        let m = self.recorder.metrics();
        let mut out = String::from("{\n");
        match self.store.as_deref() {
            Some(store) => {
                let s = store.session();
                out.push_str(&format!(
                    "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"corrupt\": {}, \"version_mismatch\": {}, \"writes\": {}, \"write_errors\": {}}},\n",
                    s.hits, s.misses, s.corrupt, s.version_mismatch, s.writes, s.write_errors
                ));
            }
            None => out.push_str("  \"cache\": null,\n"),
        }
        out.push_str("  \"counters\": {");
        let counters: Vec<String> = m
            .counters
            .iter()
            .map(|(name, n)| format!("\"{}\": {n}", escape(name)))
            .collect();
        out.push_str(&counters.join(", "));
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"jobs\": {{\"accepted\": {}, \"completed\": {}, \"failed\": {}, \"rejected\": {}}},\n",
            m.counter(names::SERVE_ACCEPTED),
            m.counter(names::SERVE_COMPLETED),
            m.counter(names::SERVE_FAILED),
            m.counter(names::SERVE_REJECTED)
        ));
        out.push_str(&format!(
            "  \"queue\": {{\"capacity\": {}, \"depth\": {}, \"workers\": {}}}\n",
            self.queue.capacity(),
            self.queue.depth(),
            self.workers
        ));
        out.push('}');
        out
    }
}

/// A running daemon: the bound address plus the threads to join on
/// shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Flags the daemon to stop accepting; does not wait.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until the daemon has shut down (via `POST /shutdown`,
    /// SIGTERM/SIGINT, or [`ServerHandle::request_shutdown`]) and every
    /// queued job has drained.
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Only a zero-worker configuration leaves jobs behind; tell their
        // clients the truth rather than hanging up silently.
        for mut job in self.shared.queue.drain_remaining() {
            let _ = respond_error(&mut job.stream, 503, "Service Unavailable", "draining");
        }
    }

    /// [`ServerHandle::request_shutdown`] + [`ServerHandle::wait`].
    pub fn shutdown(self) {
        self.request_shutdown();
        self.wait();
    }
}

/// Binds, spawns the acceptor and worker threads, and returns immediately.
///
/// # Errors
///
/// Returns the bind/open error when the address or cache directory is
/// unusable.
pub fn serve(config: &ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let store = match &config.cache_dir {
        Some(dir) => Some(Arc::new(Store::open(dir)?)),
        None => None,
    };
    let workers = config.workers.unwrap_or_else(|| host_parallelism().min(4));
    let shared = Arc::new(Shared {
        store,
        recorder: Recorder::new(),
        queue: JobQueue::new(config.queue_cap),
        workers,
        job_threads: (host_parallelism() / workers.max(1)).max(1),
        shutdown: AtomicBool::new(false),
    });

    // A failed spawn (thread limits, OOM) is a startup error the caller
    // can report, not a panic. Already-started workers are shut down
    // cleanly before the error propagates.
    let mut worker_handles: Vec<JoinHandle<()>> = Vec::with_capacity(workers);
    for i in 0..workers {
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
        };
        match worker {
            Ok(handle) => worker_handles.push(handle),
            Err(e) => {
                shared.queue.close();
                for handle in worker_handles {
                    let _ = handle.join();
                }
                return Err(e);
            }
        }
    }
    let acceptor = {
        let acceptor_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("serve-acceptor".to_string())
            .spawn(move || accept_loop(&listener, &acceptor_shared));
        match spawned {
            Ok(handle) => handle,
            Err(e) => {
                shared.queue.close();
                for handle in worker_handles {
                    let _ = handle.join();
                }
                return Err(e);
            }
        }
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers: worker_handles,
    })
}

/// Installs SIGTERM/SIGINT handlers that flag a graceful drain, then runs
/// the daemon in the foreground. `on_ready` is called once with the bound
/// address (the CLI prints the URL from it).
///
/// # Errors
///
/// Propagates [`serve`]'s bind errors.
pub fn run(config: &ServeConfig, on_ready: impl FnOnce(SocketAddr)) -> io::Result<()> {
    signals::install();
    let handle = serve(config)?;
    on_ready(handle.addr());
    handle.wait();
    Ok(())
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || signals::terminated() {
            shared.shutdown.store(true, Ordering::SeqCst);
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => handle_connection(stream, shared),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            // Transient accept failures (EMFILE, aborted handshake):
            // back off and keep serving.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Reads one request and either answers it inline (health, metrics,
/// shutdown, every error) or enqueues it for a worker.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    let request = match read_request(&mut stream) {
        Ok(Ok(request)) => request,
        Ok(Err(ParseError(msg))) => {
            let _ = respond_error(&mut stream, 400, "Bad Request", msg);
            return;
        }
        Err(_) => return, // dead socket: nothing to answer
    };

    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let _ = respond_json(&mut stream, 200, "OK", b"{\"status\": \"ok\"}");
        }
        ("GET", "/metrics") => {
            let body = shared.metrics_json();
            let _ = respond_json(&mut stream, 200, "OK", body.as_bytes());
        }
        ("POST", "/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            let _ = respond_json(&mut stream, 200, "OK", b"{\"status\": \"draining\"}");
        }
        ("POST", "/compact" | "/compact-stl" | "/analyze" | "/lint") => {
            enqueue_job(stream, &request, shared);
        }
        _ => {
            let _ = respond_error(&mut stream, 404, "Not Found", "unknown endpoint");
        }
    }
}

fn enqueue_job(mut stream: TcpStream, request: &Request, shared: &Arc<Shared>) {
    let spec = match parse_job(request, shared) {
        Ok(spec) => spec,
        Err(msg) => {
            let _ = respond_error(&mut stream, 400, "Bad Request", &msg);
            return;
        }
    };
    let job = Job {
        spec,
        raw_report: request.query_is("format", "report"),
        stream,
    };
    match shared.queue.try_push(job) {
        Ok(()) => shared.recorder.add(names::SERVE_ACCEPTED, 1),
        Err((mut job, PushRejection::Full)) => {
            shared.recorder.add(names::SERVE_REJECTED, 1);
            let _ = write_response(
                &mut job.stream,
                429,
                "Too Many Requests",
                &[("Retry-After", "1")],
                "application/json",
                b"{\"error\": \"job queue is full\"}",
            );
        }
        Err((mut job, PushRejection::Draining)) => {
            let _ = respond_error(&mut job.stream, 503, "Service Unavailable", "draining");
        }
    }
}

/// Validates one job request body into a [`JobSpec`]; the error string is
/// the 400 response's message.
fn parse_job(request: &Request, shared: &Shared) -> Result<JobSpec, String> {
    let text = std::str::from_utf8(&request.body).map_err(|_| "body is not UTF-8".to_string())?;
    let body = parse(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let field = |name: &str| -> Result<String, String> {
        body.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field `{name}`"))
    };
    match request.path.as_str() {
        "/compact" => Ok(JobSpec::Compact {
            ptp: field("ptp")?,
            opts: parse_options(&body, shared)?,
        }),
        "/compact-stl" => Ok(JobSpec::CompactStl {
            stl: field("stl")?,
            opts: parse_options(&body, shared)?,
        }),
        "/analyze" => Ok(JobSpec::Analyze {
            module: field("module")?,
            lanes: match body.get("lanes") {
                None => 0,
                Some(v) => v
                    .as_count()
                    .ok_or_else(|| "`lanes` must be a non-negative integer".to_string())?,
            },
        }),
        "/lint" => Ok(JobSpec::Lint { ptp: field("ptp")? }),
        other => Err(format!("unknown job endpoint `{other}`")),
    }
}

/// The optional `options` object: every field defaults to the server's
/// own configuration, so a bare `{"ptp": ...}` body means "the CLI's
/// defaults".
fn parse_options(body: &Json, shared: &Shared) -> Result<JobOptions, String> {
    let mut opts = JobOptions {
        threads: shared.job_threads,
        ..JobOptions::default()
    };
    let Some(options) = body.get("options") else {
        return Ok(opts);
    };
    if !matches!(options, Json::Obj(_)) {
        return Err("`options` must be an object".to_string());
    }
    let flag = |name: &str, default: bool| -> Result<bool, String> {
        match options.get(name) {
            None => Ok(default),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| format!("`options.{name}` must be a boolean")),
        }
    };
    opts.reverse = flag("reverse", opts.reverse)?;
    opts.respect_arc = flag("respect_arc", opts.respect_arc)?;
    opts.drop_detected = flag("drop_detected", opts.drop_detected)?;
    if let Some(v) = options.get("lanes") {
        opts.lanes = v
            .as_count()
            .ok_or_else(|| "`options.lanes` must be a non-negative integer".to_string())?;
    }
    if let Some(v) = options.get("fault_model") {
        let name = v
            .as_str()
            .ok_or_else(|| "`options.fault_model` must be a string".to_string())?;
        opts.fault_model = FaultModel::parse(name)
            .ok_or_else(|| format!("unknown fault model `{name}` (stuck-at|bridging)"))?;
    }
    if let Some(v) = options.get("threads") {
        opts.threads = v
            .as_count()
            .ok_or_else(|| "`options.threads` must be a non-negative integer".to_string())?;
    }
    Ok(opts)
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(mut job) = shared.queue.pop() {
        // Per-job recorder: counters fold into the daemon's metrics, the
        // job's spans die with it (a long-running daemon must not hoard
        // every span it ever recorded).
        let job_rec = Arc::new(Recorder::new());
        let result = execute(&job.spec, job.raw_report, shared, &job_rec);
        shared.absorb_job_counters(&job_rec);
        match result {
            Ok(body) => {
                shared.recorder.add(names::SERVE_COMPLETED, 1);
                let _ = respond_json(&mut job.stream, 200, "OK", body.as_bytes());
            }
            Err(JobError::BadRequest(msg)) => {
                shared.recorder.add(names::SERVE_FAILED, 1);
                let _ = respond_error(&mut job.stream, 400, "Bad Request", &msg);
            }
            Err(JobError::Failed(msg)) => {
                shared.recorder.add(names::SERVE_FAILED, 1);
                let _ = respond_error(&mut job.stream, 422, "Unprocessable Entity", &msg);
            }
        }
    }
}

/// Runs one job to its response body. With `raw_report` the body is the
/// report JSON **byte-identical** to the CLI's `--json` output; otherwise
/// it is an envelope that embeds the same report verbatim.
fn execute(
    spec: &JobSpec,
    raw_report: bool,
    shared: &Shared,
    job_rec: &Arc<Recorder>,
) -> Result<String, JobError> {
    let store = shared.store.clone();
    let obs = Some(Arc::clone(job_rec));
    match spec {
        JobSpec::Compact { ptp, opts } => {
            let out = compact_job(ptp, opts, store, obs)?;
            Ok(if raw_report {
                out.report_json
            } else {
                format!(
                    "{{\n\"compacted\": \"{}\",\n\"report\": {}\n}}",
                    escape(&out.compacted),
                    out.report_json
                )
            })
        }
        JobSpec::CompactStl { stl, opts } => {
            let out = compact_stl_job(stl, opts, store, obs)?;
            Ok(if raw_report {
                out.report_json
            } else {
                format!(
                    "{{\n\"compacted\": \"{}\",\n\"reports\": {}}}",
                    escape(&out.compacted),
                    out.report_json
                )
            })
        }
        JobSpec::Analyze { module, lanes } => {
            let out = analyze_job(module, *lanes)?;
            Ok(if raw_report {
                out.report_json
            } else {
                format!(
                    "{{\n\"clean\": {},\n\"report\": {}\n}}",
                    out.clean, out.report_json
                )
            })
        }
        JobSpec::Lint { ptp } => {
            let out = lint_job(ptp)?;
            Ok(if raw_report {
                out.report_json
            } else {
                format!(
                    "{{\n\"clean\": {},\n\"report\": {}\n}}",
                    out.clean, out.report_json
                )
            })
        }
    }
}

fn respond_json(stream: &mut TcpStream, status: u16, reason: &str, body: &[u8]) -> io::Result<()> {
    write_response(stream, status, reason, &[], "application/json", body)
}

fn respond_error(stream: &mut TcpStream, status: u16, reason: &str, msg: &str) -> io::Result<()> {
    let body = format!("{{\"error\": \"{}\"}}", escape(msg));
    respond_json(stream, status, reason, body.as_bytes())
}

#[cfg(unix)]
mod signals {
    // The raw std atomic, not the warpstl-sync wrapper: a signal handler
    // may only do async-signal-safe work, and the wrapper's model-checker
    // hook (thread-locals, a mutex) is not.
    // xlint: allow(raw-sync)
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATE: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: set the flag the accept loop
        // polls.
        TERMINATE.store(true, Ordering::SeqCst);
    }

    /// Installs SIGTERM and SIGINT handlers via the raw `signal(2)`
    /// symbol — the build is dependency-light, so no libc crate.
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        // SAFETY: `signal(2)` is in every libc the build targets; the
        // handler address is a valid `extern "C" fn(i32)` for the
        // process's lifetime, and the handler body only performs the
        // async-signal-safe atomic store above. Replacing a prior
        // disposition is the intended effect.
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    pub fn terminated() -> bool {
        TERMINATE.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}

    pub fn terminated() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_rejects_beyond_capacity_and_drains_in_order() {
        // TcpStream-free queue logic is exercised through the public
        // protocol tests and the model-checker suite in tests/model.rs;
        // here we only pin the capacity arithmetic.
        let queue: JobQueue<Job> = JobQueue::new(2);
        assert_eq!(queue.depth(), 0);
        queue.close();
        assert!(queue.pop().is_none());
    }

    #[test]
    fn default_config_resolves_workers_and_budget() {
        let config = ServeConfig::default();
        let workers = config.workers.unwrap_or_else(|| host_parallelism().min(4));
        assert!(workers >= 1);
        let per_job = (host_parallelism() / workers.max(1)).max(1);
        // The pool's total engine-thread budget never exceeds the host
        // (modulo the at-least-one floor on tiny hosts).
        assert!(per_job * workers <= host_parallelism().max(workers));
    }
}
