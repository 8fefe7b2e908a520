#![warn(missing_docs)]
//! # warpstl-serve
//!
//! A long-running compaction daemon: hand-rolled HTTP/1.1 + JSON over
//! `std::net` (the build is dependency-light by policy) in front of the
//! job entry points of [`warpstl_core::jobs`]. This is the serving-stack
//! face of the paper's flow — many STLs, many modules, concurrent
//! clients, one warm artifact store.
//!
//! ## Protocol
//!
//! | Endpoint | Body | Answer |
//! |---|---|---|
//! | `POST /compact` | `{"ptp": "<text>", "options": {...}}` | compacted PTP + report |
//! | `POST /compact-stl` | `{"stl": "<text>", "options": {...}}` | compacted STL + per-PTP reports |
//! | `POST /analyze` | `{"module": "<name>"}` | analyze report |
//! | `POST /lint` | `{"ptp": "<text>"}` | verifier report |
//! | `GET /healthz` | — | `{"status": "ok"}` |
//! | `GET /metrics` | — | deterministic counters/cache/queue JSON |
//! | `POST /shutdown` | — | flags a graceful drain |
//!
//! `options` accepts `reverse`, `respect_arc`, `drop_detected`
//! (booleans), `lanes`, `fault_model` (`stuck-at|bridging`) and `threads`;
//! every field defaults to the server's configuration, and keys it does
//! not read are ignored. Appending `?format=report` to a job endpoint returns
//! the raw report JSON **byte-identical** to the CLI's `--json` file for
//! the same input — the CLI equivalence suite doubles as the protocol
//! oracle. Malformed bodies answer `400`, a full job queue answers `429`
//! with `Retry-After`, compaction failures on well-formed input answer
//! `422`.
//!
//! ## Concurrency
//!
//! One acceptor thread validates requests and feeds a bounded queue; a
//! fixed worker pool runs jobs and answers on each job's own connection
//! (one request per connection, `Connection: close`). All workers share
//! one [`Store`](warpstl_store::Store) — safe because the store's
//! concurrency contract is atomic-rename + degrade-to-miss, not locks —
//! and each job gets `host_parallelism() / workers` engine threads so the
//! pool never oversubscribes the host.
//!
//! # Examples
//!
//! ```
//! use std::io::{Read, Write};
//! use warpstl_serve::{serve, ServeConfig};
//!
//! let handle = serve(&ServeConfig::default()).unwrap();
//! let mut conn = std::net::TcpStream::connect(handle.addr()).unwrap();
//! conn.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
//! let mut reply = String::new();
//! conn.read_to_string(&mut reply).unwrap();
//! assert!(reply.starts_with("HTTP/1.1 200 OK"));
//! handle.shutdown();
//! ```

pub mod http;
pub mod json;
pub mod queue;
mod server;

pub use server::{run, serve, ServeConfig, ServerHandle};
