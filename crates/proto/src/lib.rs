#![warn(missing_docs)]

//! # gt-proto — the client-facing wire protocol
//!
//! A versioned, dependency-free binary protocol between `gt-client` and
//! `gt-server`. The submission payload is the *textual* GTravel grammar
//! (`crates/core/src/parse.rs`) — programs travel to the machine that
//! executes them, per the Gremlin traversal-machine model — so this crate
//! only needs to frame strings, ids, and result tables, never plans.
//!
//! ## Framing
//!
//! Every message is one frame: `[len: u32 LE][payload: len bytes]`, with
//! the payload starting at a one-byte message tag. Frames above
//! [`MAX_FRAME`] are rejected without allocation. See [`read_frame`] /
//! [`write_frame`].
//!
//! ## Version negotiation
//!
//! The first client frame must be [`ClientMsg::Hello`] carrying the
//! client's protocol version and tenant id. The server answers
//! [`ServerMsg::HelloAck`] with the negotiated version, or
//! [`ServerMsg::Unsupported`] carrying its supported range — a clean,
//! decodable refusal instead of a decode panic — and closes. Decoding is
//! total: malformed bytes give [`ProtoError`], never a panic.
//!
//! ## Requests
//!
//! Requests carry a client-chosen correlation id (`id`), echoed in every
//! response; a connection may have many requests in flight. Dropping the
//! connection implicitly cancels the tenant's in-flight travels
//! (server-side scoped cancellation).

use std::io::{Read, Write};

mod wire;
pub use wire::{decode_exact, min_of, Reader, Wire, MAX_BOX_DEPTH};

/// Highest protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;
/// Lowest protocol version this build still accepts.
pub const MIN_PROTOCOL_VERSION: u16 = 1;

/// Upper bound on one frame's payload (16 MiB): results are vertex-id
/// tables, not graph data, so anything bigger is a malformed peer.
pub const MAX_FRAME: usize = 16 << 20;

/// Negotiate against this build's supported range: the answer for a
/// `Hello{version}` is `Ok(min(version, PROTOCOL_VERSION))` when the
/// ranges overlap, else `Err((MIN_PROTOCOL_VERSION, PROTOCOL_VERSION))`
/// to be sent as [`ServerMsg::Unsupported`].
pub fn negotiate(client_version: u16) -> Result<u16, (u16, u16)> {
    if client_version < MIN_PROTOCOL_VERSION {
        Err((MIN_PROTOCOL_VERSION, PROTOCOL_VERSION))
    } else {
        Ok(client_version.min(PROTOCOL_VERSION))
    }
}

/// Decode/IO failure at the protocol layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload ended before the message did.
    Truncated,
    /// Unknown message or variant tag.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A frame's length prefix exceeds [`MAX_FRAME`].
    Oversize(usize),
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
    /// A field failed validation, or values nest deeper than
    /// [`MAX_BOX_DEPTH`].
    Malformed,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated message"),
            ProtoError::BadTag(t) => write!(f, "unknown tag {t}"),
            ProtoError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            ProtoError::Oversize(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            ProtoError::Malformed => write!(f, "malformed field"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Options attached to a submission.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubmitOpts {
    /// Per-request deadline in milliseconds; the server fails the travel
    /// with a `Timeout` error once it expires. `None` = server default.
    pub deadline_ms: Option<u64>,
}

/// Progress totals as they cross the wire (mirrors the engine's
/// `ProgressSnapshot` without depending on it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireProgress {
    /// Executions created so far.
    pub created: u64,
    /// Executions terminated so far.
    pub terminated: u64,
    /// Outstanding executions per step.
    pub outstanding_by_depth: Vec<(u16, u64)>,
}

/// Why a travel failed, as it crosses the wire. Mirrors the engine's
/// typed `TravelError` plus front-door-only causes (parse errors,
/// admission throttling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// No completion within the deadline.
    Timeout {
        /// Submission attempts made.
        attempts: u32,
        /// Last progress estimate, if one was available.
        last_progress: Option<WireProgress>,
    },
    /// Coordinator died and could not be failed over.
    CoordinatorLost,
    /// The travel was cancelled (explicitly or by disconnect).
    Cancelled,
    /// A coordinator failover stalled.
    FailoverStalled,
    /// The submitted GTravel text did not parse or compile.
    Query(String),
    /// Rejected by per-tenant admission control (rate limit).
    Throttled {
        /// Suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// Internal server failure, with a human-readable cause.
    Server(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Timeout { attempts, .. } => {
                write!(f, "timed out after {attempts} attempt(s)")
            }
            WireError::CoordinatorLost => write!(f, "coordinator lost"),
            WireError::Cancelled => write!(f, "cancelled"),
            WireError::FailoverStalled => write!(f, "failover stalled"),
            WireError::Query(e) => write!(f, "query error: {e}"),
            WireError::Throttled { retry_after_ms } => {
                write!(f, "throttled; retry after {retry_after_ms} ms")
            }
            WireError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Messages from client to server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMsg {
    /// Mandatory first message: protocol version + tenant identity.
    Hello {
        /// The client's protocol version ([`PROTOCOL_VERSION`]).
        version: u16,
        /// Tenant this connection belongs to (QoS scope).
        tenant: String,
    },
    /// Submit a GTravel program (textual grammar) for execution.
    Submit {
        /// Client-chosen correlation id, echoed in responses.
        id: u64,
        /// The program, in the `parse.rs` grammar.
        gtravel: String,
        /// Deadline and other options.
        opts: SubmitOpts,
    },
    /// Ask for a progress snapshot of an in-flight travel.
    Progress {
        /// Correlation id of the travel.
        id: u64,
    },
    /// Cancel an in-flight travel.
    Cancel {
        /// Correlation id of the travel.
        id: u64,
    },
    /// Ask for the server's metrics counters (includes per-tenant QoS
    /// counters when QoS is enabled).
    Metrics,
    /// Orderly goodbye; the server retires the connection without
    /// treating it as an abnormal disconnect.
    Goodbye,
}

/// Messages from server to client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerMsg {
    /// Version accepted; `version` is what both sides now speak.
    HelloAck {
        /// Negotiated protocol version.
        version: u16,
    },
    /// The client's version is outside the supported range; the server
    /// closes after sending this.
    Unsupported {
        /// Lowest version the server accepts.
        min: u16,
        /// Highest version the server speaks.
        max: u16,
    },
    /// Progress snapshot for an in-flight travel.
    Progress {
        /// Correlation id of the travel.
        id: u64,
        /// Status-tracing totals.
        progress: WireProgress,
    },
    /// A travel completed successfully.
    Result {
        /// Correlation id of the travel.
        id: u64,
        /// Returned vertex ids per returned depth, sorted and dedup'd.
        by_depth: Vec<(u16, Vec<u64>)>,
        /// Final progress totals.
        progress: WireProgress,
        /// Wall-clock execution time in microseconds.
        elapsed_us: u64,
    },
    /// A travel failed.
    Error {
        /// Correlation id of the travel (0 for connection-level errors).
        id: u64,
        /// The typed failure.
        error: WireError,
    },
    /// Metrics counters, flattened to (name, value).
    MetricsReport {
        /// Counter name/value pairs, sorted by name.
        counters: Vec<(String, u64)>,
    },
}

// ------------------------------------------------------------------
// Binary encoding: one tag table per enum (see [`wire_enum!`]). Tags
// are append-only.
// ------------------------------------------------------------------

wire_struct! {
    SubmitOpts { deadline_ms }
    WireProgress { created, terminated, outstanding_by_depth }
}

wire_enum! {
    WireError {
        1 => Timeout { attempts, last_progress },
        2 => CoordinatorLost,
        3 => Cancelled,
        4 => FailoverStalled,
        5 => Query(msg),
        6 => Throttled { retry_after_ms },
        7 => Server(msg),
    }
}

wire_enum! {
    ClientMsg {
        1 => Hello { version, tenant },
        2 => Submit { id, gtravel, opts },
        3 => Progress { id },
        4 => Cancel { id },
        5 => Metrics,
        6 => Goodbye,
    }
}

wire_enum! {
    ServerMsg {
        1 => HelloAck { version },
        2 => Unsupported { min, max },
        3 => Progress { id, progress },
        4 => Result { id, by_depth, progress, elapsed_us },
        5 => Error { id, error },
        6 => MetricsReport { counters },
    }
}

impl ClientMsg {
    /// Append this message's binary form (tag + fields) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    /// Decode one message from exactly `buf`.
    pub fn decode(buf: &[u8]) -> Result<ClientMsg, ProtoError> {
        decode_exact(buf)
    }
}

impl ServerMsg {
    /// Append this message's binary form (tag + fields) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    /// Decode one message from exactly `buf`.
    pub fn decode(buf: &[u8]) -> Result<ServerMsg, ProtoError> {
        decode_exact(buf)
    }
}

// ------------------------------------------------------------------
// Frame IO.
// ------------------------------------------------------------------

/// Write `payload` as one `[len u32 LE][payload]` frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            ProtoError::Oversize(payload.len()).to_string(),
        ));
    }
    // One write per frame: a separate prefix write would interact with
    // Nagle + delayed ACK on TCP (tens of ms per small-write pair).
    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(payload);
    w.write_all(&framed)?;
    w.flush()
}

/// Read one `[len u32 LE][payload]` frame. `Ok(None)` on clean EOF at a
/// frame boundary; oversized length prefixes are `InvalidData` errors
/// (the stream is then unusable).
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match r.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ProtoError::Oversize(len).to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Encode `msg` (client side) and write it as one frame.
pub fn send_client<W: Write>(w: &mut W, msg: &ClientMsg) -> std::io::Result<()> {
    let mut buf = Vec::new();
    msg.encode(&mut buf);
    write_frame(w, &buf)
}

/// Encode `msg` (server side) and write it as one frame.
pub fn send_server<W: Write>(w: &mut W, msg: &ServerMsg) -> std::io::Result<()> {
    let mut buf = Vec::new();
    msg.encode(&mut buf);
    write_frame(w, &buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CT_HELLO: u8 = 1;

    fn rt_client(m: ClientMsg) {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        assert_eq!(ClientMsg::decode(&buf), Ok(m));
    }

    fn rt_server(m: ServerMsg) {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        assert_eq!(ServerMsg::decode(&buf), Ok(m));
    }

    fn client_samples() -> Vec<ClientMsg> {
        vec![
            ClientMsg::Hello {
                version: 1,
                tenant: "acme".into(),
            },
            ClientMsg::Submit {
                id: 7,
                gtravel: "v(1).e('knows').rtn()".into(),
                opts: SubmitOpts {
                    deadline_ms: Some(250),
                },
            },
            ClientMsg::Submit {
                id: 8,
                gtravel: "v()".into(),
                opts: SubmitOpts::default(),
            },
            ClientMsg::Progress { id: 9 },
            ClientMsg::Cancel { id: 10 },
            ClientMsg::Metrics,
            ClientMsg::Goodbye,
        ]
    }

    fn server_samples() -> Vec<ServerMsg> {
        let mut msgs = vec![
            ServerMsg::HelloAck { version: 1 },
            ServerMsg::Unsupported { min: 1, max: 1 },
            ServerMsg::Progress {
                id: 3,
                progress: WireProgress {
                    created: 10,
                    terminated: 4,
                    outstanding_by_depth: vec![(0, 2), (1, 4)],
                },
            },
            ServerMsg::Result {
                id: 4,
                by_depth: vec![(1, vec![5, 9]), (2, vec![])],
                progress: WireProgress::default(),
                elapsed_us: 1234,
            },
        ];
        for error in [
            WireError::Timeout {
                attempts: 3,
                last_progress: Some(WireProgress {
                    created: 5,
                    terminated: 5,
                    outstanding_by_depth: vec![],
                }),
            },
            WireError::Timeout {
                attempts: 1,
                last_progress: None,
            },
            WireError::CoordinatorLost,
            WireError::Cancelled,
            WireError::FailoverStalled,
            WireError::Query("bad token".into()),
            WireError::Throttled { retry_after_ms: 50 },
            WireError::Server("oops".into()),
        ] {
            msgs.push(ServerMsg::Error { id: 5, error });
        }
        msgs.push(ServerMsg::MetricsReport {
            counters: vec![("qos_admitted_total".into(), 12)],
        });
        msgs
    }

    #[test]
    fn client_round_trips() {
        for m in client_samples() {
            rt_client(m);
        }
    }

    #[test]
    fn server_round_trips() {
        for m in server_samples() {
            rt_server(m);
        }
    }

    /// `Enum::Variant hex` for one sample, in the golden file's format.
    fn golden_line(ty: &str, debug: String, encoded: Vec<u8>) -> String {
        let variant: String = debug.chars().take_while(|c| c.is_alphanumeric()).collect();
        let hex: String = encoded.iter().map(|b| format!("{b:02x}")).collect();
        format!("{ty}::{variant} {hex}")
    }

    #[test]
    fn encodings_match_golden_bytes() {
        let mut lines = Vec::new();
        for m in client_samples() {
            let mut buf = Vec::new();
            m.encode(&mut buf);
            lines.push(golden_line("ClientMsg", format!("{m:?}"), buf));
        }
        for m in server_samples() {
            let mut buf = Vec::new();
            m.encode(&mut buf);
            lines.push(golden_line("ServerMsg", format!("{m:?}"), buf));
        }
        let golden: Vec<&str> = include_str!("../tests/golden.hex")
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        assert_eq!(lines, golden);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        assert_eq!(ClientMsg::decode(&[]), Err(ProtoError::Truncated));
        assert_eq!(ClientMsg::decode(&[99]), Err(ProtoError::BadTag(99)));
        assert_eq!(
            ServerMsg::decode(&[200, 1, 2]),
            Err(ProtoError::BadTag(200))
        );
        // Truncated string length.
        assert_eq!(
            ClientMsg::decode(&[CT_HELLO, 1, 0, 255, 255, 255]),
            Err(ProtoError::Truncated)
        );
        // Trailing garbage after a complete message.
        let mut buf = Vec::new();
        ClientMsg::Metrics.encode(&mut buf);
        buf.push(0);
        assert_eq!(ClientMsg::decode(&buf), Err(ProtoError::TrailingBytes(1)));
    }

    #[test]
    fn negotiation_gates_old_and_new_clients() {
        assert_eq!(negotiate(PROTOCOL_VERSION), Ok(PROTOCOL_VERSION));
        assert_eq!(negotiate(u16::MAX), Ok(PROTOCOL_VERSION));
        if MIN_PROTOCOL_VERSION > 0 {
            assert_eq!(
                negotiate(MIN_PROTOCOL_VERSION - 1),
                Err((MIN_PROTOCOL_VERSION, PROTOCOL_VERSION))
            );
        }
    }

    #[test]
    fn frame_io_round_trips_and_rejects_oversize() {
        let mut buf = Vec::new();
        send_client(&mut buf, &ClientMsg::Metrics).expect("write");
        send_client(&mut buf, &ClientMsg::Goodbye).expect("write");
        let mut cur = std::io::Cursor::new(buf);
        let f1 = read_frame(&mut cur).expect("read").expect("frame");
        assert_eq!(ClientMsg::decode(&f1), Ok(ClientMsg::Metrics));
        let f2 = read_frame(&mut cur).expect("read").expect("frame");
        assert_eq!(ClientMsg::decode(&f2), Ok(ClientMsg::Goodbye));
        assert!(read_frame(&mut cur).expect("eof read").is_none());

        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut cur = std::io::Cursor::new(huge.to_vec());
        assert!(read_frame(&mut cur).is_err());
    }
}
