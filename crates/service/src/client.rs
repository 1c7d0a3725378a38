//! Minimal blocking client for the daemon protocol.

use crate::proto::{read_frame, write_frame, Op, ProtoError, Request, Response};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// One connection to a running daemon.
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to the daemon listening at `socket`.
    pub fn connect(socket: impl AsRef<Path>) -> std::io::Result<Client> {
        Ok(Client {
            stream: UnixStream::connect(socket)?,
        })
    }

    /// Sends one request and blocks for its response.
    pub fn submit(&mut self, req: &Request) -> Result<Response, ProtoError> {
        write_frame(&mut self.stream, &req.encode())?;
        let payload = read_frame(&mut self.stream)?;
        Response::decode(payload)
    }

    /// Submits a job op with the given canonical config and image
    /// bytes.
    pub fn job(&mut self, op: Op, config: Vec<u8>, image: Vec<u8>) -> Result<Response, ProtoError> {
        self.submit(&Request { op, config, image })
    }

    /// Fetches the daemon's statistics rendering.
    pub fn stats(&mut self) -> Result<String, ProtoError> {
        match self.submit(&Request {
            op: Op::Stats,
            config: Vec::new(),
            image: Vec::new(),
        })? {
            Response::Ok { stats, .. } => Ok(stats),
            Response::Err(e) => Err(ProtoError::Malformed(format!("stats refused: {e}"))),
        }
    }

    /// Asks the daemon to shut down (acknowledged before it exits).
    pub fn shutdown(&mut self) -> Result<(), ProtoError> {
        match self.submit(&Request {
            op: Op::Shutdown,
            config: Vec::new(),
            image: Vec::new(),
        })? {
            Response::Ok { .. } => Ok(()),
            Response::Err(e) => Err(ProtoError::Malformed(format!("shutdown refused: {e}"))),
        }
    }
}
