//! Length-prefixed binary frame protocol for graph serving.
//!
//! Every message — request or response — is one *frame* on the wire:
//!
//! ```text
//! u32 BE body length | body
//! ```
//!
//! A request body is an opcode byte followed by opcode-specific fields; a
//! response body is a status byte (`0` ok, `1` error, `2` rejected)
//! followed by a payload (for errors: the message as raw UTF-8; for
//! rejections: a list of structured diagnostics — see
//! [`WireDiagnostic`]). Integers are big-endian; strings are `u16 BE
//! length + UTF-8 bytes` unless noted.
//!
//! **One segment per frame, sent now.** Prefix and body leave in a single
//! `write` ([`send_frame`]), and both ends set `TCP_NODELAY`
//! ([`crate::Client::connect`], every socket the server accepts): a
//! request/response protocol has nothing to coalesce, and a prefix sent
//! on its own makes Nagle hold the body back until the peer's delayed ACK
//! — two ~44 ms timers a round trip on Linux loopback.
//!
//! | opcode | request fields | ok-response payload |
//! |--------|----------------|---------------------|
//! | `0x01` Spawn      | app `str`, depth `u32`, max_backlog `u64` | graph id `u32` |
//! | `0x02` Submit     | graph `u32`, frames `u64`                 | accepted `u64` |
//! | `0x03` Inject     | graph `u32`, queue `str`, kind `str`, payload `i64` | — |
//! | `0x04` Stats      | graph `u32` (`0xFFFF_FFFF` = all)         | JSON `str` |
//! | `0x05` Drain      | graph `u32`                               | JSON `str` |
//! | `0x06` Ping       | —                                         | — |
//! | `0x07` Shutdown   | —                                         | — |
//! | `0x08` SpawnXspcl | source `lstr` (u32 BE length), depth `u32`, max_backlog `u64` | graph id `u32` |
//! | `0x09` Telemetry  | format `u8` (0 json, 1 prometheus, 2 table)  | rendered text |
//! | `0x0A` AttachSlo  | graph `u32`, target_p99_ns `u64`, low_watermark `u64` (f64 bits), cooldown_ticks `u32`, min_samples `u64`, max_backlog `u64` | JSON `str` |
//! | `0x0B` DetachSlo  | graph `u32`                               | JSON `str` |
//!
//! `Submit` is where admission control surfaces: the response carries how
//! many of the offered frames the server *accepted* (possibly 0) — the
//! client's backpressure signal. `Inject` is reconfiguration over the
//! wire: the event lands in the named manager queue and takes effect at
//! the graph's next quiescent point, exactly as an in-process event.
//!
//! **A `Stats` that would repeat itself is held.** The server remembers,
//! per connection, the value of [`hinch::Runtime::progress`] its last
//! `Stats` reply (one graph or all) was rendered under. A `Stats` arriving
//! on that connection while `progress()` still reads the same value waits
//! until it moves, the server is shutting down, or **1 ms** has passed,
//! and is then answered with the state of that moment. The first `Stats`
//! on a connection, every other opcode, and the HTTP gateway (a connection
//! per request has no previous reply) are never held. So a client that
//! learns of completions by polling `Stats` in a loop is paced by the
//! server instead of spinning a core against the worker pool — and a
//! `Stats` round trip measured by such a client includes the hold.
//!
//! Graphs spawned over the wire **discard their sink output**: nothing in
//! the protocol can read a served graph's frames back, so its `frame_sink`
//! components are built without capture buffers (in-process builds keep
//! capturing — see `apps::registry::AppAssets::discarding`).
//!
//! `Spawn`/`SpawnXspcl` are where the static analyzer surfaces: before a
//! graph is admitted the server runs `crates/analyze` over the spec, and
//! an analysis error rejects the spawn with status `2` carrying the
//! `XA0xx` diagnostics, so the client sees *why* the spec is unsound
//! rather than an opaque failure (or worse, a graph that deadlocks).

use std::io::{self, Read, Write};

/// Largest accepted frame body; guards the server against a garbage
/// length prefix allocating gigabytes.
pub const MAX_FRAME: u32 = 1 << 20;

/// Wildcard graph id in a `Stats` request: report every tenant.
pub const ALL_GRAPHS: u32 = u32::MAX;

/// Request opcodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Spawn {
        app: String,
        pipeline_depth: u32,
        max_backlog: u64,
    },
    Submit {
        graph: u32,
        frames: u64,
    },
    Inject {
        graph: u32,
        queue: String,
        kind: String,
        payload: i64,
    },
    Stats {
        graph: u32,
    },
    Drain {
        graph: u32,
    },
    Ping,
    Shutdown,
    /// Spawn from XSPCL source shipped over the wire: the server parses,
    /// statically analyzes and elaborates the document against its
    /// component registry before admitting the graph.
    SpawnXspcl {
        source: String,
        pipeline_depth: u32,
        max_backlog: u64,
    },
    /// Live-telemetry export: the server samples its pool's counters and
    /// returns one rendered snapshot. `format` selects the rendering
    /// (see `crate::telemetry::{FORMAT_JSON, FORMAT_PROMETHEUS,
    /// FORMAT_TABLE}`), so clients stay parser-free.
    Telemetry {
        format: u8,
    },
    /// Attach (or replace) a latency SLO policy on a graph: the server's
    /// closed-loop controller (`crates/adapt`) then watches the graph's
    /// rolling telemetry windows and toggles its quality option to hold
    /// the objective. `low_watermark` travels as raw `f64` bits so the
    /// encoding is exact. Decisions surface in the `Telemetry` export
    /// (`hinch_adapt_*`).
    AttachSlo {
        graph: u32,
        target_p99_ns: u64,
        /// `f64::to_bits` of the recovery watermark in (0, 1].
        low_watermark_bits: u64,
        cooldown_ticks: u32,
        min_samples: u64,
        max_backlog: u64,
    },
    /// Detach the SLO policy from a graph; the response carries the
    /// controller's final decision counters as JSON.
    DetachSlo {
        graph: u32,
    },
}

/// One static-analysis finding carried over the wire: the stable `XA0xx`
/// code, its severity and the human-readable message. A flattened
/// [`analyze::Diagnostic`] — spans and fix-its stay server-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiagnostic {
    /// 0 = warning, 1 = error.
    pub severity: u8,
    /// Stable machine-readable code (`XA001`, `XA090`, ...).
    pub code: String,
    pub message: String,
}

impl WireDiagnostic {
    pub fn is_error(&self) -> bool {
        self.severity == SEVERITY_ERROR
    }
}

impl std::fmt::Display for WireDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = if self.is_error() { "error" } else { "warning" };
        write!(f, "{sev}[{}]: {}", self.code, self.message)
    }
}

pub const SEVERITY_WARNING: u8 = 0;
pub const SEVERITY_ERROR: u8 = 1;

/// A decoded response: `Ok` with opcode-specific payload bytes, an error
/// message, or a spawn rejected by static analysis with its diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Ok(Vec<u8>),
    Err(String),
    Rejected(Vec<WireDiagnostic>),
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---- primitive codecs ---------------------------------------------------

/// Append a `u16 BE length + UTF-8` string. Fails (instead of panicking)
/// on strings over `u16::MAX` bytes — a client bug surfaced as a
/// structured error, not a poisoned connection.
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) -> io::Result<()> {
    let len = u16::try_from(s.len()).map_err(|_| bad("string over u16::MAX bytes"))?;
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Append a `u32 BE length + UTF-8` *long* string (XSPCL sources can
/// exceed 64 KiB). Still bounded by [`MAX_FRAME`] at framing time.
pub(crate) fn put_lstr(buf: &mut Vec<u8>, s: &str) -> io::Result<()> {
    let len = u32::try_from(s.len()).map_err(|_| bad("string over u32::MAX bytes"))?;
    if len > MAX_FRAME {
        return Err(bad("string exceeds maximum frame size"));
    }
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| bad("overflow"))?;
        if end > self.buf.len() {
            return Err(bad("truncated frame"));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Take exactly `N` bytes as a fixed-size array. Infallible once
    /// `take` succeeds — no `try_into().unwrap()` on the decode path.
    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    pub(crate) fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    pub(crate) fn i64(&mut self) -> io::Result<i64> {
        Ok(i64::from_be_bytes(self.array()?))
    }

    pub(crate) fn str(&mut self) -> io::Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("non-UTF-8 string"))
    }

    /// Long-string counterpart of [`Cursor::str`] (`u32 BE` length).
    pub(crate) fn lstr(&mut self) -> io::Result<String> {
        let len = self.u32()?;
        if len > MAX_FRAME {
            return Err(bad("string length exceeds maximum frame size"));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("non-UTF-8 string"))
    }

    pub(crate) fn done(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes in frame"))
        }
    }
}

// ---- framing ------------------------------------------------------------

/// Bytes of the length prefix every frame starts with.
const PREFIX: usize = 4;

/// Start a frame in `buf`: drop what it held and leave room for the
/// length prefix, so the body is encoded straight behind it and
/// [`send_frame`] can put prefix and body on the wire as one write.
pub(crate) fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0; PREFIX]);
}

/// Fill in the prefix of the frame [`begin_frame`] started in `buf` and
/// send it: **one** `write_all` of prefix + body. Two writes would leave
/// the kernel free to send the 4-byte prefix as a segment of its own and
/// then sit on the body until the peer's (delayed) ACK for it arrives.
pub(crate) fn send_frame(w: &mut impl Write, buf: &mut [u8]) -> io::Result<()> {
    let len = u32::try_from(buf.len() - PREFIX)
        .ok()
        .filter(|&len| len <= MAX_FRAME)
        .ok_or_else(|| bad("frame too large"))?;
    buf[..PREFIX].copy_from_slice(&len.to_be_bytes());
    w.write_all(buf)?;
    w.flush()
}

/// Write one length-prefixed frame (as a single write — see
/// [`send_frame`]).
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(PREFIX + body.len());
    begin_frame(&mut buf);
    buf.extend_from_slice(body);
    send_frame(w, &mut buf)
}

/// Size `body` for the frame whose prefix was just read: the announced
/// length, bounded by [`MAX_FRAME`] before anything is allocated for it.
pub(crate) fn size_body(body: &mut Vec<u8>, prefix: [u8; PREFIX]) -> io::Result<()> {
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME {
        return Err(bad(format!("frame length {len} exceeds {MAX_FRAME}")));
    }
    body.clear();
    body.resize(len as usize, 0);
    Ok(())
}

/// Read one length-prefixed frame into `body` (reusing its allocation).
/// Returns `false` on clean EOF at a frame boundary (peer hung up between
/// requests).
pub(crate) fn read_frame_into(r: &mut impl Read, body: &mut Vec<u8>) -> io::Result<bool> {
    let mut prefix = [0u8; PREFIX];
    match r.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    size_body(body, prefix)?;
    r.read_exact(body)?;
    Ok(true)
}

/// Read one length-prefixed frame. Returns `None` on clean EOF at a
/// frame boundary (peer hung up between requests).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut body = Vec::new();
    Ok(read_frame_into(r, &mut body)?.then_some(body))
}

// ---- request codec ------------------------------------------------------

impl Request {
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut b = Vec::new();
        self.encode_into(&mut b)?;
        Ok(b)
    }

    /// Append the encoded request to `b`.
    pub(crate) fn encode_into(&self, b: &mut Vec<u8>) -> io::Result<()> {
        match self {
            Request::Spawn {
                app,
                pipeline_depth,
                max_backlog,
            } => {
                b.push(0x01);
                put_str(b, app)?;
                b.extend_from_slice(&pipeline_depth.to_be_bytes());
                b.extend_from_slice(&max_backlog.to_be_bytes());
            }
            Request::Submit { graph, frames } => {
                b.push(0x02);
                b.extend_from_slice(&graph.to_be_bytes());
                b.extend_from_slice(&frames.to_be_bytes());
            }
            Request::Inject {
                graph,
                queue,
                kind,
                payload,
            } => {
                b.push(0x03);
                b.extend_from_slice(&graph.to_be_bytes());
                put_str(b, queue)?;
                put_str(b, kind)?;
                b.extend_from_slice(&payload.to_be_bytes());
            }
            Request::Stats { graph } => {
                b.push(0x04);
                b.extend_from_slice(&graph.to_be_bytes());
            }
            Request::Drain { graph } => {
                b.push(0x05);
                b.extend_from_slice(&graph.to_be_bytes());
            }
            Request::Ping => b.push(0x06),
            Request::Shutdown => b.push(0x07),
            Request::SpawnXspcl {
                source,
                pipeline_depth,
                max_backlog,
            } => {
                b.push(0x08);
                put_lstr(b, source)?;
                b.extend_from_slice(&pipeline_depth.to_be_bytes());
                b.extend_from_slice(&max_backlog.to_be_bytes());
            }
            Request::Telemetry { format } => {
                b.push(0x09);
                b.push(*format);
            }
            Request::AttachSlo {
                graph,
                target_p99_ns,
                low_watermark_bits,
                cooldown_ticks,
                min_samples,
                max_backlog,
            } => {
                b.push(0x0a);
                b.extend_from_slice(&graph.to_be_bytes());
                b.extend_from_slice(&target_p99_ns.to_be_bytes());
                b.extend_from_slice(&low_watermark_bits.to_be_bytes());
                b.extend_from_slice(&cooldown_ticks.to_be_bytes());
                b.extend_from_slice(&min_samples.to_be_bytes());
                b.extend_from_slice(&max_backlog.to_be_bytes());
            }
            Request::DetachSlo { graph } => {
                b.push(0x0b);
                b.extend_from_slice(&graph.to_be_bytes());
            }
        }
        Ok(())
    }

    pub fn decode(body: &[u8]) -> io::Result<Request> {
        let mut c = Cursor::new(body);
        let req = match c.u8()? {
            0x01 => Request::Spawn {
                app: c.str()?,
                pipeline_depth: c.u32()?,
                max_backlog: c.u64()?,
            },
            0x02 => Request::Submit {
                graph: c.u32()?,
                frames: c.u64()?,
            },
            0x03 => Request::Inject {
                graph: c.u32()?,
                queue: c.str()?,
                kind: c.str()?,
                payload: c.i64()?,
            },
            0x04 => Request::Stats { graph: c.u32()? },
            0x05 => Request::Drain { graph: c.u32()? },
            0x06 => Request::Ping,
            0x07 => Request::Shutdown,
            0x08 => Request::SpawnXspcl {
                source: c.lstr()?,
                pipeline_depth: c.u32()?,
                max_backlog: c.u64()?,
            },
            0x09 => Request::Telemetry { format: c.u8()? },
            0x0a => Request::AttachSlo {
                graph: c.u32()?,
                target_p99_ns: c.u64()?,
                low_watermark_bits: c.u64()?,
                cooldown_ticks: c.u32()?,
                min_samples: c.u64()?,
                max_backlog: c.u64()?,
            },
            0x0b => Request::DetachSlo { graph: c.u32()? },
            op => return Err(bad(format!("unknown opcode 0x{op:02x}"))),
        };
        c.done()?;
        Ok(req)
    }
}

// ---- response codec -----------------------------------------------------

impl Response {
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        // Sized up front where the size is known: one exact allocation.
        let mut b = Vec::with_capacity(match self {
            Response::Ok(payload) => 1 + payload.len(),
            Response::Err(msg) => 1 + msg.len(),
            Response::Rejected(_) => 0,
        });
        self.encode_into(&mut b)?;
        Ok(b)
    }

    /// Append the encoded response to `b`.
    pub(crate) fn encode_into(&self, b: &mut Vec<u8>) -> io::Result<()> {
        match self {
            Response::Ok(payload) => {
                b.push(0);
                b.extend_from_slice(payload);
            }
            Response::Err(msg) => {
                b.push(1);
                b.extend_from_slice(msg.as_bytes());
            }
            Response::Rejected(diags) => {
                b.push(2);
                let count = u16::try_from(diags.len()).map_err(|_| bad("too many diagnostics"))?;
                b.extend_from_slice(&count.to_be_bytes());
                for d in diags {
                    b.push(d.severity);
                    put_str(b, &d.code)?;
                    put_str(b, &d.message)?;
                }
            }
        }
        Ok(())
    }

    pub fn decode(body: &[u8]) -> io::Result<Response> {
        let (&status, payload) = body.split_first().ok_or_else(|| bad("empty response"))?;
        match status {
            0 => Ok(Response::Ok(payload.to_vec())),
            1 => Ok(Response::Err(String::from_utf8_lossy(payload).into_owned())),
            2 => {
                let mut c = Cursor::new(payload);
                let count = c.u16()? as usize;
                let mut diags = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    diags.push(WireDiagnostic {
                        severity: c.u8()?,
                        code: c.str()?,
                        message: c.str()?,
                    });
                }
                c.done()?;
                Ok(Response::Rejected(diags))
            }
            s => Err(bad(format!("unknown response status {s}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Spawn {
                app: "pip1".into(),
                pipeline_depth: 5,
                max_backlog: 32,
            },
            Request::Submit {
                graph: 3,
                frames: 17,
            },
            Request::Inject {
                graph: 0,
                queue: "mq".into(),
                kind: "flip".into(),
                payload: -7,
            },
            Request::Stats { graph: ALL_GRAPHS },
            Request::Drain { graph: 9 },
            Request::Ping,
            Request::Shutdown,
            Request::SpawnXspcl {
                source: "<application name=\"x\"/>".into(),
                pipeline_depth: 2,
                max_backlog: 8,
            },
            Request::Telemetry { format: 1 },
            Request::AttachSlo {
                graph: 4,
                target_p99_ns: 2_000_000,
                low_watermark_bits: 0.5f64.to_bits(),
                cooldown_ticks: 2,
                min_samples: 4,
                max_backlog: 16,
            },
            Request::DetachSlo { graph: 4 },
        ];
        for req in reqs {
            let decoded = Request::decode(&req.encode().unwrap()).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Ok(vec![1, 2, 3]),
            Response::Ok(vec![]),
            Response::Err("no such graph".into()),
            Response::Rejected(vec![]),
            Response::Rejected(vec![
                WireDiagnostic {
                    severity: SEVERITY_ERROR,
                    code: "XA002".into(),
                    message: "stream-dependency cycle: a -> b -> a".into(),
                },
                WireDiagnostic {
                    severity: SEVERITY_WARNING,
                    code: "XA010".into(),
                    message: "stream 'dead' written but never read".into(),
                },
            ]),
        ] {
            assert_eq!(Response::decode(&resp.encode().unwrap()).unwrap(), resp);
        }
    }

    #[test]
    fn oversized_strings_are_errors_not_panics() {
        let big = "x".repeat(u16::MAX as usize + 1);
        let req = Request::Spawn {
            app: big.clone(),
            pipeline_depth: 1,
            max_backlog: 1,
        };
        assert!(req.encode().is_err(), "u16 strings over 64 KiB must fail");
        // The long-string field takes it fine.
        let req = Request::SpawnXspcl {
            source: big,
            pipeline_depth: 1,
            max_backlog: 1,
        };
        let decoded = Request::decode(&req.encode().unwrap()).unwrap();
        assert_eq!(decoded, req);
        // ... up to the frame cap.
        let req = Request::SpawnXspcl {
            source: "x".repeat(MAX_FRAME as usize + 1),
            pipeline_depth: 1,
            max_backlog: 1,
        };
        assert!(req.encode().is_err(), "lstr is still bounded by MAX_FRAME");
    }

    #[test]
    fn framing_round_trips_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    /// A sink that counts `write` calls and takes all it is offered, as
    /// a socket with room in its send buffer does.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Prefix and body must reach the socket in one `write`: a prefix
    /// written on its own is a segment on its own, and Nagle then holds
    /// the body until the peer's delayed ACK.
    #[test]
    fn a_frame_is_one_write() {
        for body in [vec![], b"hello".to_vec(), vec![7u8; MAX_FRAME as usize]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &body).unwrap();
            assert_eq!(w.writes, 1, "{}-byte body", body.len());
            assert_eq!(read_frame(&mut &w.bytes[..]).unwrap().unwrap(), body);
        }
        let mut w = CountingWriter::default();
        assert!(write_frame(&mut w, &vec![0u8; MAX_FRAME as usize + 1]).is_err());
        assert_eq!(w.writes, 0, "an oversized frame writes nothing");
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xff]).is_err());
        // Truncated Submit.
        assert!(Request::decode(&[0x02, 0, 0]).is_err());
        // Trailing garbage.
        let mut b = Request::Ping.encode().unwrap();
        b.push(0);
        assert!(Request::decode(&b).is_err());
        // Rejected response whose diagnostic count exceeds its payload.
        assert!(Response::decode(&[2, 0xff, 0xff]).is_err());
        // SpawnXspcl whose lstr length points past the frame cap.
        let mut b = vec![0x08];
        b.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        assert!(Request::decode(&b).is_err());
        // Oversized length prefix.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        assert!(read_frame(&mut &wire[..]).is_err());
    }

    /// Feed the decoders random garbage and random mutations of valid
    /// frames: they must return structured errors, never panic. This is
    /// the wire-path audit as a test — any `unwrap` on attacker-supplied
    /// bytes shows up here as a test abort.
    #[test]
    fn decode_survives_fuzzed_frames() {
        let mut rng = StdRng::seed_from_u64(0xF422);
        // Pure garbage, all lengths 0..64, first byte swept over all
        // opcodes/statuses so every decode arm sees hostile input.
        for round in 0..2000u32 {
            let len = rng.gen_range(0usize..64);
            let mut body: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
            if !body.is_empty() {
                body[0] = (round % 12) as u8; // cover 0x00..=0x0b
            }
            let _ = Request::decode(&body);
            let _ = Response::decode(&body);
        }
        // Mutations of valid encodings: truncations and single-byte
        // corruptions of every request and a Rejected response.
        let valid: Vec<Vec<u8>> = [
            Request::Spawn {
                app: "pip1".into(),
                pipeline_depth: 5,
                max_backlog: 32,
            }
            .encode()
            .unwrap(),
            Request::Inject {
                graph: 1,
                queue: "mq".into(),
                kind: "flip".into(),
                payload: -1,
            }
            .encode()
            .unwrap(),
            Request::SpawnXspcl {
                source: "<application name=\"x\"/>".into(),
                pipeline_depth: 1,
                max_backlog: 4,
            }
            .encode()
            .unwrap(),
            Request::AttachSlo {
                graph: 0,
                target_p99_ns: 1_000_000,
                low_watermark_bits: 0.4f64.to_bits(),
                cooldown_ticks: 1,
                min_samples: 2,
                max_backlog: 8,
            }
            .encode()
            .unwrap(),
            Response::Rejected(vec![WireDiagnostic {
                severity: SEVERITY_ERROR,
                code: "XA014".into(),
                message: "stream read but never written".into(),
            }])
            .encode()
            .unwrap(),
        ]
        .into_iter()
        .collect();
        for body in &valid {
            for cut in 0..body.len() {
                let _ = Request::decode(&body[..cut]);
                let _ = Response::decode(&body[..cut]);
            }
            for _ in 0..200 {
                let mut mutated = body.clone();
                let idx = rng.gen_range(0usize..mutated.len());
                mutated[idx] ^= 1 << rng.gen_range(0u32..8);
                let _ = Request::decode(&mutated);
                let _ = Response::decode(&mutated);
            }
        }
    }
}
