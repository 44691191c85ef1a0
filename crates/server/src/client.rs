//! A minimal blocking client for the fgac wire protocol.
//!
//! Used by the REPL-style tooling, the integration tests, and the
//! `fgacbench` load generator. One request in flight at a time; the
//! socket read timeout bounds every wait so a dead server surfaces as
//! an error rather than a hang.

use crate::frame::{read_frame_blocking, write_frame};
use crate::protocol::{AdminOp, Request, Response};
use fgac_types::{Error, Result, Value};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected, HELLO-completed (after [`Client::hello`]) session.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects with a bound on both the connect and every subsequent
    /// read, so no call blocks forever on an unresponsive server.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Client> {
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| Error::Execution(format!("resolve server address: {e}")))?
            .next()
            .ok_or_else(|| Error::Execution("server address resolved to nothing".into()))?;
        let stream = TcpStream::connect_timeout(&resolved, timeout)
            .map_err(|e| Error::Execution(format!("connect {resolved}: {e}")))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| Error::Execution(format!("set_read_timeout: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| Error::Execution(format!("set_nodelay: {e}")))?;
        Ok(Client { stream })
    }

    /// Sends one request and reads one response.
    pub fn call(&mut self, request: &Request) -> Result<Response> {
        let (kind, payload) = request.to_frame();
        write_frame(&mut self.stream, kind, &payload)?;
        match read_frame_blocking(&mut self.stream)? {
            Some((kind, payload)) => Response::from_frame(kind, &payload),
            None => Err(Error::Execution(
                "server closed the connection without replying".into(),
            )),
        }
    }

    /// Opens the session as `principal`. Must precede everything else.
    pub fn hello(&mut self, principal: &str) -> Result<Response> {
        self.call(&Request::Hello {
            principal: principal.into(),
        })
    }

    /// Runs one SQL statement with no explicit deadline.
    pub fn query(&mut self, sql: &str) -> Result<Response> {
        self.call(&Request::Query {
            sql: sql.into(),
            deadline_ms: None,
        })
    }

    /// Runs one SQL statement under a wall-clock deadline (milliseconds
    /// from server-side admission).
    pub fn query_deadline(&mut self, sql: &str, deadline_ms: u64) -> Result<Response> {
        self.call(&Request::Query {
            sql: sql.into(),
            deadline_ms: Some(deadline_ms),
        })
    }

    /// Issues an admin operation (server enforces the admin principal).
    pub fn admin(&mut self, op: AdminOp) -> Result<Response> {
        self.call(&Request::Admin(op))
    }

    pub fn ping(&mut self) -> Result<Response> {
        self.call(&Request::Ping)
    }

    /// Fetches the server's counters as (metric, value) pairs.
    pub fn metrics(&mut self) -> Result<Vec<(String, u64)>> {
        match self.call(&Request::Metrics)? {
            Response::Rows { rows, .. } => rows
                .into_iter()
                .map(|row| match row.0.as_slice() {
                    [Value::Str(k), Value::Int(v)] => Ok((k.clone(), *v as u64)),
                    other => Err(Error::Corrupt(format!(
                        "malformed metrics row: {other:?}"
                    ))),
                })
                .collect(),
            other => Err(Error::Execution(format!(
                "metrics returned status {:#04x}",
                other.status()
            ))),
        }
    }

    /// Orderly goodbye; the server acknowledges and closes.
    pub fn bye(mut self) -> Result<Response> {
        self.call(&Request::Bye)
    }

    /// The raw stream — test hooks (half-writes, stalls) only.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}
