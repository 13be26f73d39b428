//! The load generator's client: one blocking loopback connection that
//! writes pre-sealed request frames verbatim and hands back the raw
//! response payload, so answers can be compared byte for byte and no
//! request is encoded while the clock runs.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};

use plus_store::wire::{decode_response, encode_request, Request, Response};
use plus_store::{codec::seal_frame, PROTOCOL_VERSION};
use server::read_frame;

/// One handshaken connection.
pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Conn {
    /// Connects to `addr` and completes the Hello handshake as
    /// `consumer` claiming `claims` (empty: the Public consumer).
    pub fn connect(addr: SocketAddr, consumer: &str, claims: &[&str]) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            stream,
            inbuf: Vec::with_capacity(1 << 16),
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            consumer: consumer.to_string(),
            claims: claims.iter().map(|c| c.to_string()).collect(),
        };
        let frame = seal_frame(&encode_request(&hello).map_err(|e| invalid(e.to_string()))?);
        match decode_response(conn.round_trip(&frame)?) {
            Ok(Response::Hello(_)) => Ok(conn),
            other => Err(invalid(format!("handshake refused: {other:?}"))),
        }
    }

    /// Sends one sealed request frame and returns the response payload.
    pub fn round_trip(&mut self, frame: &[u8]) -> io::Result<&[u8]> {
        self.stream.write_all(frame)?;
        match read_frame(&mut self.stream, &mut self.inbuf) {
            Ok(Some(payload)) => Ok(payload),
            Ok(None) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Err(e) => Err(invalid(e.to_string())),
        }
    }
}

/// The epoch a `Query` answer was computed at, or why the payload is not
/// a successful `Query` answer.
pub fn query_epoch(payload: &[u8]) -> Result<u64, String> {
    match decode_response(payload) {
        Ok(Response::Query(answer)) => Ok(answer.epoch),
        Ok(other) => Err(format!("expected a Query answer, got {other:?}")),
        Err(e) => Err(format!("undecodable answer: {e}")),
    }
}

/// The `(clock, id)` of a `Written` acknowledgement.
pub fn written(payload: &[u8]) -> Result<(u64, Option<plus_store::RecordId>), String> {
    match decode_response(payload) {
        Ok(Response::Written { clock, id }) => Ok((clock, id)),
        Ok(other) => Err(format!("expected Written, got {other:?}")),
        Err(e) => Err(format!("undecodable acknowledgement: {e}")),
    }
}
