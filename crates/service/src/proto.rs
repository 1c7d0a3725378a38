//! Wire protocol: length-prefixed frames over a local stream socket.
//!
//! Framing is a `u32` little-endian payload length followed by the
//! payload, capped at [`MAX_FRAME`] so a corrupt length prefix cannot
//! make the peer allocate gigabytes. Payloads are versioned by magic
//! (`RFS1` requests, `RFR1` responses); every multi-byte integer is
//! little-endian, and every variable-length field carries its own
//! length, so decoding is total: any malformed byte sequence decodes
//! to a structured error, never a panic or a wild slice.

use std::io::{Read, Write};

/// Upper bound on one frame's payload.
pub const MAX_FRAME: usize = 64 << 20;

/// Request payload magic.
pub const REQUEST_MAGIC: &[u8; 4] = b"RFS1";
/// Response payload magic.
pub const RESPONSE_MAGIC: &[u8; 4] = b"RFR1";

/// What the client is asking the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Harden the submitted image; the artifact is the hardened image.
    Harden,
    /// Run the harden pipeline for its analysis only; the response
    /// carries statistics but no artifact bytes.
    Analyze,
    /// Build the §5 profiling instrumentation of the submitted image.
    Profile,
    /// Report server statistics (no image or config).
    Stats,
    /// Ask the daemon to shut down after acknowledging.
    Shutdown,
}

impl Op {
    /// Wire byte for this op.
    pub fn to_byte(self) -> u8 {
        match self {
            Op::Harden => 1,
            Op::Analyze => 2,
            Op::Profile => 3,
            Op::Stats => 4,
            Op::Shutdown => 5,
        }
    }

    /// Decodes a wire byte.
    pub fn from_byte(b: u8) -> Option<Op> {
        match b {
            1 => Some(Op::Harden),
            2 => Some(Op::Analyze),
            3 => Some(Op::Profile),
            4 => Some(Op::Stats),
            5 => Some(Op::Shutdown),
            _ => None,
        }
    }
}

/// How the daemon produced a successful job response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Computed fresh by this request.
    Computed,
    /// Served from the on-disk artifact cache.
    ArtifactHit,
    /// Deduplicated onto another in-flight identical request's
    /// computation.
    Deduped,
}

impl Source {
    fn to_byte(self) -> u8 {
        match self {
            Source::Computed => 0,
            Source::ArtifactHit => 1,
            Source::Deduped => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Source> {
        match b {
            0 => Some(Source::Computed),
            1 => Some(Source::ArtifactHit),
            2 => Some(Source::Deduped),
            _ => None,
        }
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The requested operation.
    pub op: Op,
    /// Canonical [`HardenConfig`] bytes (empty for `Stats`/`Shutdown`).
    ///
    /// [`HardenConfig`]: redfat_core::HardenConfig
    pub config: Vec<u8>,
    /// The input image's ELF serialization (empty for
    /// `Stats`/`Shutdown`).
    pub image: Vec<u8>,
}

/// A decoded daemon response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request succeeded.
    Ok {
        /// Where the result came from.
        source: Source,
        /// Microseconds the server spent producing the result (compute
        /// time for `Computed`/`Deduped`, lookup time for
        /// `ArtifactHit`).
        micros: u64,
        /// Human-readable statistics (pipeline stats for jobs, server
        /// stats for `Stats`, empty for `Shutdown`).
        stats: String,
        /// The artifact bytes (hardened/profiled image; empty for
        /// `Analyze`, `Stats` and `Shutdown`).
        artifact: Vec<u8>,
    },
    /// The request failed; the daemon stays up.
    Err(String),
}

/// A protocol-level failure: bad framing, bad magic, or a field that
/// does not decode.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The peer sent bytes that do not decode.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "socket i/o failed: {e}"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> ProtoError {
        ProtoError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> ProtoError {
    ProtoError::Malformed(msg.into())
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    write_frame_parts(w, payload, &[])
}

/// Writes one length-prefixed frame whose payload is `head` followed by
/// `tail`, without joining them first.
fn write_frame_parts(w: &mut impl Write, head: &[u8], tail: &[u8]) -> Result<(), ProtoError> {
    let len = head.len() + tail.len();
    if len > MAX_FRAME {
        return Err(malformed(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(head)?;
    w.write_all(tail)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(malformed(format!(
            "declared frame length {len} exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// A cursor over a frame payload with bounds-checked field reads.
struct Fields<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Fields<'a> {
    fn new(data: &'a [u8]) -> Fields<'a> {
        Fields { data, pos: 0 }
    }

    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| malformed(format!("truncated {what}")))?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ProtoError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u64(&mut self, what: &str) -> Result<u64, ProtoError> {
        let b = self.bytes(8, what)?;
        let mut le = [0u8; 8];
        le.copy_from_slice(b);
        Ok(u64::from_le_bytes(le))
    }

    fn var_slice(&mut self, what: &str) -> Result<&'a [u8], ProtoError> {
        let len = self.u64(what)? as usize;
        if len > MAX_FRAME {
            return Err(malformed(format!(
                "{what} declares {len} bytes, over the frame cap"
            )));
        }
        self.bytes(len, what)
    }

    fn var_bytes(&mut self, what: &str) -> Result<Vec<u8>, ProtoError> {
        Ok(self.var_slice(what)?.to_vec())
    }

    fn var_string(&mut self, what: &str) -> Result<String, ProtoError> {
        let bytes = self.var_bytes(what)?;
        String::from_utf8(bytes).map_err(|_| malformed(format!("{what} is not UTF-8")))
    }

    fn finish(self, what: &str) -> Result<(), ProtoError> {
        if self.pos != self.data.len() {
            return Err(malformed(format!(
                "{} trailing bytes after {what}",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn push_var_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

impl Request {
    /// Encodes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.image.len() + self.config.len() + 32);
        out.extend_from_slice(REQUEST_MAGIC);
        out.push(self.op.to_byte());
        push_var_bytes(&mut out, &self.config);
        push_var_bytes(&mut out, &self.image);
        out
    }

    /// Decodes a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut f = Fields::new(payload);
        if f.bytes(4, "request magic")? != REQUEST_MAGIC {
            return Err(malformed("bad request magic"));
        }
        let op_byte = f.u8("request op")?;
        let op = Op::from_byte(op_byte)
            .ok_or_else(|| malformed(format!("unknown op byte {op_byte}")))?;
        let config = f.var_bytes("request config")?;
        let image = f.var_bytes("request image")?;
        f.finish("request")?;
        Ok(Request { op, config, image })
    }
}

impl Response {
    /// Encodes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let (mut out, artifact) = self.encode_parts();
        out.extend_from_slice(artifact);
        out
    }

    /// Writes the response as one frame, the same bytes as
    /// `write_frame(w, &self.encode())`, with the artifact written
    /// straight from `self` instead of copied into the payload first.
    pub fn write_frame(&self, w: &mut impl Write) -> Result<(), ProtoError> {
        let (head, artifact) = self.encode_parts();
        write_frame_parts(w, &head, artifact)
    }

    /// The encoded payload up to its artifact bytes, and those bytes
    /// (empty for an error).
    fn encode_parts(&self) -> (Vec<u8>, &[u8]) {
        let mut out = Vec::new();
        out.extend_from_slice(RESPONSE_MAGIC);
        match self {
            Response::Ok {
                source,
                micros,
                stats,
                artifact,
            } => {
                out.push(0);
                out.push(source.to_byte());
                out.extend_from_slice(&micros.to_le_bytes());
                push_var_bytes(&mut out, stats.as_bytes());
                out.extend_from_slice(&(artifact.len() as u64).to_le_bytes());
                (out, artifact)
            }
            Response::Err(msg) => {
                out.push(1);
                push_var_bytes(&mut out, msg.as_bytes());
                (out, &[])
            }
        }
    }

    /// Decodes a frame payload. The artifact, the payload's last field,
    /// is taken out of `payload` rather than copied.
    pub fn decode(mut payload: Vec<u8>) -> Result<Response, ProtoError> {
        let mut f = Fields::new(&payload);
        if f.bytes(4, "response magic")? != RESPONSE_MAGIC {
            return Err(malformed("bad response magic"));
        }
        match f.u8("response status")? {
            0 => {
                let source_byte = f.u8("response source")?;
                let source = Source::from_byte(source_byte)
                    .ok_or_else(|| malformed(format!("unknown source byte {source_byte}")))?;
                let micros = f.u64("response micros")?;
                let stats = f.var_string("response stats")?;
                let artifact_len = f.var_slice("response artifact")?.len();
                f.finish("response")?;
                payload.drain(..payload.len() - artifact_len);
                Ok(Response::Ok {
                    source,
                    micros,
                    stats,
                    artifact: payload,
                })
            }
            1 => {
                let msg = f.var_string("response error")?;
                f.finish("response")?;
                Ok(Response::Err(msg))
            }
            other => Err(malformed(format!("unknown status byte {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request {
            op: Op::Harden,
            config: vec![1, 2, 3],
            image: vec![9; 100],
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        let empty = Request {
            op: Op::Stats,
            config: vec![],
            image: vec![],
        };
        assert_eq!(Request::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn response_roundtrip() {
        let ok = Response::Ok {
            source: Source::Deduped,
            micros: 12_345,
            stats: "components=3\n".to_string(),
            artifact: vec![0xAA; 64],
        };
        assert_eq!(Response::decode(ok.encode()).unwrap(), ok);
        let err = Response::Err("harden failed: no entry".to_string());
        assert_eq!(Response::decode(err.encode()).unwrap(), err);
    }

    #[test]
    fn a_response_frame_written_from_its_parts_equals_the_encoding() {
        let responses = [
            Response::Ok {
                source: Source::Computed,
                micros: 7,
                stats: "components=3\n".to_string(),
                artifact: (0..=255).collect(),
            },
            Response::Ok {
                source: Source::ArtifactHit,
                micros: 0,
                stats: String::new(),
                artifact: Vec::new(),
            },
            Response::Err("pipeline failed".to_string()),
        ];
        for resp in responses {
            let mut from_parts = Vec::new();
            resp.write_frame(&mut from_parts).unwrap();
            let mut encoded = Vec::new();
            write_frame(&mut encoded, &resp.encode()).unwrap();
            assert_eq!(from_parts, encoded, "{resp:?}");
            let payload = read_frame(&mut std::io::Cursor::new(from_parts)).unwrap();
            assert_eq!(Response::decode(payload).unwrap(), resp);
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        let req = Request {
            op: Op::Harden,
            config: vec![1, 2, 3],
            image: vec![9; 10],
        };
        let good = req.encode();
        // Every truncation must fail cleanly.
        for len in 0..good.len() {
            assert!(Request::decode(&good[..len]).is_err(), "truncated to {len}");
        }
        // Trailing garbage, bad magic, bad op.
        let mut padded = good.clone();
        padded.push(0);
        assert!(Request::decode(&padded).is_err());
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(Request::decode(&bad_magic).is_err());
        let mut bad_op = good;
        bad_op[4] = 99;
        assert!(Request::decode(&bad_op).is_err());

        let ok = Response::Ok {
            source: Source::Computed,
            micros: 1,
            stats: "s".to_string(),
            artifact: vec![1],
        };
        let good = ok.encode();
        for len in 0..good.len() {
            assert!(
                Response::decode(good[..len].to_vec()).is_err(),
                "truncated to {len}"
            );
        }
        // A declared field length far beyond the data must error, not
        // allocate or slice wild.
        let mut huge = Response::Err("x".to_string()).encode();
        let at = RESPONSE_MAGIC.len() + 1; // error-message length field
        huge[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Response::decode(huge).is_err());
    }

    #[test]
    fn frame_roundtrip_and_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");

        // A poisoned length prefix is rejected before allocation.
        let mut poisoned = Vec::new();
        poisoned.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(poisoned);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn op_bytes_roundtrip() {
        for op in [
            Op::Harden,
            Op::Analyze,
            Op::Profile,
            Op::Stats,
            Op::Shutdown,
        ] {
            assert_eq!(Op::from_byte(op.to_byte()), Some(op));
        }
        assert_eq!(Op::from_byte(0), None);
        assert_eq!(Op::from_byte(6), None);
    }
}
