//! `delpropd`: the daemon itself — listeners, connection threads,
//! request dispatch, and orderly shutdown.
//!
//! One thread accepts connections; each connection gets a thread that
//! decodes frames through a read loop with a short socket timeout, so
//! it observes the shutdown flag within one timeout tick even while a
//! client is idle. Frames on one connection are served sequentially
//! (responses in request order — what the open-loop client counts
//! on); concurrency comes from connections, bounded by the admission
//! [`Gate`].
//!
//! Shutdown is cooperative, in dependency order: close the gate (new
//! solves shed), cancel every in-flight attempt budget pool-wide with
//! cause `"shutdown"` (stalled members included — see
//! `Budget::cancel_all_with_cause`), set the flag, wake the accept
//! loop by connecting to ourselves, then join every thread. No thread
//! is ever killed; everything drains through typed errors.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use delprop_core::runtime::sync::{AtomicBool, AtomicU64, Ordering};
use delprop_core::runtime::{now, EpochCell, Portfolio};
use delprop_core::solvers::local_search::Objective;
use delprop_core::DeltaBatch;
use delprop_query::ViewTupleId;

use crate::admission::{AdmissionConfig, Gate};
use crate::engine::{self, ActiveRequests, EngineConfig, Served};
use crate::state::{InstanceSpec, ServingInstance};
use crate::stats;
use crate::wire::{send_frame, ConnStream, FrameBuffer, Request, Response};

/// How long a connection read blocks before rechecking shutdown.
const READ_TICK: Duration = Duration::from_millis(50);

/// Builds the portfolio answering an objective. Swappable so the
/// chaos harness can inject faulty members into a real daemon.
pub type PortfolioFactory = Arc<dyn Fn(Objective) -> Portfolio + Send + Sync>;

/// Where to listen.
#[derive(Debug, Clone)]
pub enum Bind {
    /// TCP, e.g. `127.0.0.1:0` for an ephemeral port.
    Tcp(String),
    /// Unix-domain socket path (removed and re-created on spawn).
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

/// Full daemon configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Listener address.
    pub bind: Bind,
    /// Admission limits.
    pub admission: AdmissionConfig,
    /// Per-request solve policy.
    pub engine: EngineConfig,
    /// The instance served at epoch 1.
    pub initial: InstanceSpec,
    /// Its label.
    pub initial_label: String,
    /// Portfolio construction (default: the core chains).
    pub portfolio: PortfolioFactory,
    /// Base seed for per-request backoff jitter.
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            admission: AdmissionConfig::default(),
            engine: EngineConfig::default(),
            initial: InstanceSpec::default(),
            initial_label: "forest-default".to_string(),
            portfolio: Arc::new(Portfolio::for_objective),
            seed: 0x5EED_D003,
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener, std::path::PathBuf),
}

impl Listener {
    fn accept(&self) -> io::Result<Box<dyn ConnStream>> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true).ok();
                Ok(Box::new(s))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(Box::new(s))
            }
        }
    }

    /// Unblock a blocking `accept` by connecting to ourselves.
    fn wake(&self) {
        match self {
            Listener::Tcp(l) => {
                if let Ok(addr) = l.local_addr() {
                    let _ = TcpStream::connect(addr);
                }
            }
            #[cfg(unix)]
            Listener::Unix(_, path) => {
                let _ = std::os::unix::net::UnixStream::connect(path);
            }
        }
    }
}

struct Shared {
    cell: EpochCell<ServingInstance>,
    gate: Gate,
    active: ActiveRequests,
    engine: EngineConfig,
    admission_wait: Duration,
    portfolio: PortfolioFactory,
    shutdown: AtomicBool,
    request_seq: AtomicU64,
    seed: u64,
    /// Serializes snapshot→patch→publish sequences: two concurrent
    /// `publish_delta` requests must not both fork the same epoch, or
    /// the slower one would silently drop the faster one's ΔV.
    publish_lock: Mutex<()>,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) // ordering: pairs with the AcqRel swap in shutdown()
    }
}

/// A running daemon; dropping it shuts it down and joins all threads.
pub struct Daemon {
    shared: Arc<Shared>,
    listener: Arc<Listener>,
    tcp_addr: Option<SocketAddr>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Daemon {
    /// Build the initial instance, bind, and start serving.
    pub fn spawn(cfg: ServerConfig) -> io::Result<Daemon> {
        let instance = ServingInstance::build(cfg.initial_label.clone(), &cfg.initial)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let (listener, tcp_addr) = match &cfg.bind {
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                let local = l.local_addr()?;
                (Listener::Tcp(l), Some(local))
            }
            #[cfg(unix)]
            Bind::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let l = std::os::unix::net::UnixListener::bind(path)?;
                (Listener::Unix(l, path.clone()), None)
            }
        };
        let shared = Arc::new(Shared {
            cell: EpochCell::new(instance),
            gate: Gate::new(cfg.admission),
            active: ActiveRequests::new(),
            engine: cfg.engine,
            admission_wait: cfg.admission.max_wait,
            portfolio: cfg.portfolio,
            shutdown: AtomicBool::new(false),
            request_seq: AtomicU64::new(0),
            seed: cfg.seed,
            publish_lock: Mutex::new(()),
        });
        let listener = Arc::new(listener);
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_shared = Arc::clone(&shared);
        let accept_listener = Arc::clone(&listener);
        let accept_conns = Arc::clone(&conn_threads);
        let accept_thread = std::thread::spawn(move || {
            loop {
                let stream = match accept_listener.accept() {
                    Ok(s) => s,
                    Err(_) if accept_shared.is_shutdown() => break,
                    Err(_) => continue,
                };
                if accept_shared.is_shutdown() {
                    break; // the wake-up connection (or a late client)
                }
                stats::CONNECTIONS.inc();
                let conn_shared = Arc::clone(&accept_shared);
                let handle = std::thread::spawn(move || handle_conn(&conn_shared, stream));
                accept_conns
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(handle);
            }
        });

        Ok(Daemon {
            shared,
            listener,
            tcp_addr,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The bound TCP address (ephemeral ports resolved), if TCP.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }

    /// Publish a new instance out-of-band (same path as the wire
    /// `publish` op). Returns the new epoch.
    pub fn publish(&self, label: impl Into<String>, spec: &InstanceSpec) -> io::Result<u64> {
        let instance = ServingInstance::build(label, spec)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let _publish = self
            .shared
            .publish_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        stats::PUBLISHES.inc();
        Ok(self.shared.cell.publish(instance))
    }

    /// Orderly shutdown: shed, cancel, wake, join. Idempotent.
    pub fn shutdown(&mut self) {
        // ordering: AcqRel — the winning swap publishes everything
        // written before shutdown was requested; losers acquire it and
        // return without re-running the teardown.
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.gate.close();
        self.shared.active.cancel_all_with_cause("shutdown");
        self.listener.wake();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conn_threads.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &*self.listener {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one connection until EOF, protocol corruption, or shutdown.
fn handle_conn(shared: &Shared, mut stream: Box<dyn ConnStream>) {
    let _ = stream.set_stream_read_timeout(Some(READ_TICK));
    let mut frames = FrameBuffer::new();
    // One encode buffer for every response on this connection.
    let mut out = Vec::new();
    loop {
        // Serve every complete frame already buffered.
        loop {
            match frames.next_frame() {
                Ok(Some(payload)) => {
                    let response = handle_request(shared, payload);
                    if send_frame(&mut stream, &mut out, |b| response.encode(b)).is_err() {
                        return;
                    }
                }
                Ok(None) => break,
                Err(message) => {
                    // Corrupt framing: answer once, then drop the
                    // connection (resync is impossible).
                    let response = Response::Error { message };
                    let _ = send_frame(&mut stream, &mut out, |b| response.encode(b));
                    stream.shutdown_both();
                    return;
                }
            }
        }
        if shared.is_shutdown() {
            stream.shutdown_both();
            return;
        }
        match frames.fill(&mut stream) {
            Ok(0) => return, // clean EOF
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue; // timeout tick: recheck shutdown
            }
            Err(_) => return,
        }
    }
}

/// Wire `(view, index)` pairs as view-tuple ids.
fn to_ids(pairs: &[(usize, usize)]) -> Vec<ViewTupleId> {
    pairs
        .iter()
        .map(|&(view, index)| ViewTupleId::new(view, index))
        .collect()
}

/// Dispatch one framed request.
fn handle_request(shared: &Shared, payload: &[u8]) -> Response {
    stats::REQUESTS.inc();
    let start = now();
    let response = match Request::from_bytes(payload) {
        Err(message) => {
            stats::REQUESTS_ERROR.inc();
            Response::Error {
                message: format!("bad request: {message}"),
            }
        }
        Ok(Request::Health) => {
            let snap = shared.cell.snapshot();
            Response::Health {
                epoch: snap.epoch(),
                label: snap.label.clone(),
                inflight: shared.gate.inflight() as u64,
                requests: stats::REQUESTS.get(),
            }
        }
        Ok(Request::Epoch) => {
            let snap = shared.cell.snapshot();
            Response::Epoch {
                epoch: snap.epoch(),
                label: snap.label.clone(),
            }
        }
        Ok(Request::Stats) => Response::Stats {
            metrics: stats::render_all(),
        },
        Ok(Request::Publish { label, spec }) => {
            match ServingInstance::build(label.clone(), &spec) {
                Ok(instance) => {
                    let _publish = shared
                        .publish_lock
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    stats::PUBLISHES.inc();
                    let epoch = shared.cell.publish(instance);
                    Response::Published { epoch, label }
                }
                Err(e) => {
                    stats::REQUESTS_ERROR.inc();
                    Response::Error {
                        message: format!("publish failed: {e}"),
                    }
                }
            }
        }
        Ok(Request::PublishDelta {
            deletions,
            restores,
        }) => {
            // Hold the publish lock across snapshot→patch→publish so
            // concurrent delta publishes compose instead of forking
            // the same epoch and losing one batch.
            let _publish = shared
                .publish_lock
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let snap = shared.cell.snapshot();
            let mut engine = snap.engine.clone();
            let batch = DeltaBatch {
                delete: to_ids(&deletions),
                restore: to_ids(&restores),
            };
            match engine.apply(&batch) {
                Ok(report) => {
                    stats::PUBLISHES.inc();
                    stats::DELTA_PUBLISHES.inc();
                    let label = snap.label.clone();
                    let epoch = shared.cell.publish(ServingInstance {
                        label: label.clone(),
                        engine,
                    });
                    Response::DeltaPublished {
                        epoch,
                        label,
                        deleted: report.deleted as u64,
                        restored: report.restored as u64,
                        overdeleted: report.overdeleted as u64,
                        rederived: report.rederived as u64,
                    }
                }
                Err(e) => {
                    stats::REQUESTS_ERROR.inc();
                    Response::Error {
                        message: format!("delta publish failed: {e}"),
                    }
                }
            }
        }
        Ok(Request::Solve(req)) => match shared.gate.acquire(&req.tenant, shared.admission_wait) {
            Err(e) => {
                stats::REQUESTS_OVERLOADED.inc();
                Response::Overloaded {
                    reason: e.to_string(),
                }
            }
            Ok(_permit) => {
                // Snapshot *after* admission: a request that waited in
                // the queue solves the freshest epoch.
                let snap = shared.cell.snapshot();
                let portfolio = (shared.portfolio)(req.objective);
                // ordering: Relaxed — only uniqueness of the ticket
                // matters (seed derivation), not its order.
                let seq = shared.request_seq.fetch_add(1, Ordering::Relaxed);
                let seed = shared.seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                match engine::serve_solve(
                    &snap,
                    &req,
                    &portfolio,
                    &shared.engine,
                    &shared.active,
                    seed,
                ) {
                    Served::Ok(ok) => {
                        stats::REQUESTS_OK.inc();
                        Response::Ok(ok)
                    }
                    Served::DeadlineExceeded { attempts, micros } => {
                        stats::REQUESTS_DEADLINE.inc();
                        Response::DeadlineExceeded { attempts, micros }
                    }
                    Served::Failed { message } => {
                        stats::REQUESTS_ERROR.inc();
                        Response::Error { message }
                    }
                }
            }
        },
    };
    stats::REQUEST_MICROS.observe(start.elapsed().as_micros() as u64);
    response
}
