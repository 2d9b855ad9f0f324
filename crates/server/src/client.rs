//! A minimal blocking client for the daemon protocol.
//!
//! Used by the `dts request` subcommand, the load generator in
//! `dts_bench`, and the end-to-end tests. One [`Client`] owns one
//! connection and runs strictly request/response — the daemon replies to
//! frames in order, so no correlation ids are needed.

use crate::protocol::{read_frame, write_frame, FrameRead, SolveRequest};
use dts_core::error::{CoreError, Result as CoreResult};
use serde::Value;
use std::net::{TcpStream, ToSocketAddrs};

/// Response frames larger than this are treated as a protocol violation
/// by the client (the daemon never sends frames near this size).
const CLIENT_MAX_FRAME_BYTES: usize = 64 << 20;

/// A blocking connection to a scheduling daemon.
pub struct Client {
    reader: TcpStream,
    writer: TcpStream,
}

fn transport(e: std::io::Error) -> CoreError {
    CoreError::Internal(format!("transport: {e}"))
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// [`CoreError::Internal`] on connection failure.
    pub fn connect(addr: impl ToSocketAddrs) -> CoreResult<Client> {
        let writer = TcpStream::connect(addr).map_err(transport)?;
        // Frames are small request/response units; leaving Nagle on adds
        // a delayed-ACK stall to every exchange.
        writer.set_nodelay(true).map_err(transport)?;
        let reader = writer.try_clone().map_err(transport)?;
        Ok(Client { reader, writer })
    }

    /// Sends one raw payload and returns the raw response payload.
    ///
    /// This is the byte-exact layer: tests use it to send malformed
    /// payloads and to compare response bytes across cache hits.
    ///
    /// # Errors
    ///
    /// [`CoreError::Internal`] on transport failure or a response that is
    /// not UTF-8; [`CoreError::Serialization`] never (raw bytes pass
    /// through).
    pub fn send_text(&mut self, payload: &str) -> CoreResult<String> {
        write_frame(&mut self.writer, payload.as_bytes()).map_err(transport)?;
        self.read_response()
    }

    /// Reads one response payload without sending anything (used after
    /// writing a frame by hand on the underlying stream).
    ///
    /// # Errors
    ///
    /// [`CoreError::Internal`] on transport failure, early EOF or an
    /// oversized/non-UTF-8 response.
    pub fn read_response(&mut self) -> CoreResult<String> {
        match read_frame(&mut self.reader, CLIENT_MAX_FRAME_BYTES).map_err(transport)? {
            FrameRead::Payload(payload) => String::from_utf8(payload)
                .map_err(|e| CoreError::Internal(format!("response is not UTF-8: {e}"))),
            FrameRead::Eof => Err(CoreError::Internal(
                "daemon closed the connection before replying".to_string(),
            )),
            FrameRead::Oversized(len) => Err(CoreError::Internal(format!(
                "daemon sent an oversized {len}-byte response"
            ))),
        }
    }

    /// Sends a typed request as JSON and parses the JSON response.
    ///
    /// # Errors
    ///
    /// Transport failures as [`CoreError::Internal`]; an unparsable
    /// response as [`CoreError::Serialization`].
    pub fn send_request(&mut self, request: &SolveRequest) -> CoreResult<Value> {
        let payload =
            serde_json::to_string(request).map_err(|e| CoreError::Serialization(e.to_string()))?;
        let response = self.send_text(&payload)?;
        serde_json::from_str(&response).map_err(|e| CoreError::Serialization(e.to_string()))
    }
}
