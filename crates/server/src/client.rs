//! A small blocking client for the wire protocol.
//!
//! Used by the `delpropd` CLI's request mode, the integration tests,
//! and the chaos harness's load generator. Supports both the
//! one-shot [`Client::request`] call and split [`Client::send`] /
//! [`Client::recv`] halves for open-loop load generation (fire
//! requests without waiting, then drain responses — responses come
//! back in request order because the daemon serves each connection's
//! frames sequentially).

use std::io;
use std::net::TcpStream;

use crate::wire::{send_frame, ConnStream, FrameBuffer, Request, Response};

/// A connected protocol client.
pub struct Client {
    stream: Box<dyn ConnStream>,
    /// Response bytes read but not yet decoded.
    frames: FrameBuffer,
    /// Request encode buffer, reused across sends.
    out: Vec<u8>,
}

impl Client {
    fn new(stream: Box<dyn ConnStream>) -> Client {
        Client {
            stream,
            frames: FrameBuffer::new(),
            out: Vec::new(),
        }
    }

    /// Connect over TCP.
    pub fn connect_tcp(addr: std::net::SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client::new(Box::new(stream)))
    }

    /// Connect over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &std::path::Path) -> io::Result<Client> {
        Ok(Client::new(Box::new(
            std::os::unix::net::UnixStream::connect(path)?,
        )))
    }

    /// Bound how long [`Client::recv`] blocks — the chaos harness uses
    /// this to turn "the daemon hung" into a test failure instead of a
    /// hung test.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.stream.set_stream_read_timeout(timeout)
    }

    /// Fire a request without waiting for the response.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        send_frame(&mut self.stream, &mut self.out, |out| req.encode(out))
    }

    /// Read the next response frame (blocking).
    pub fn recv(&mut self) -> io::Result<Response> {
        let payload = self.frames.read_from(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        Response::from_bytes(payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// One request/response round trip.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        self.send(req)?;
        self.recv()
    }
}
