//! Typed client for the frame protocol (used by the load harness, the
//! smoke gate and external tools).

use crate::protocol::{
    begin_frame, read_frame_into, send_frame, Request, Response, WireDiagnostic, ALL_GRAPHS,
};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side errors: transport failures vs errors the server reported
/// vs spawns the server's static analyzer rejected.
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    /// The server answered with an error response (its message).
    Server(String),
    /// The server's static analyzer rejected the spawn; the `XA0xx`
    /// diagnostics say why.
    Rejected(Vec<WireDiagnostic>),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Server(msg) => write!(f, "server: {msg}"),
            ClientError::Rejected(diags) => {
                write!(
                    f,
                    "rejected by static analysis ({} finding(s))",
                    diags.len()
                )?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection to a serving front-end. Requests are synchronous:
/// write a frame, read the response frame.
pub struct Client {
    stream: TcpStream,
    /// The request frame going out, then the response frame coming in.
    buf: Vec<u8>,
}

impl Client {
    /// Connect with `TCP_NODELAY` set: every request is one small segment
    /// whose reply the caller is waiting for, so there is nothing for
    /// Nagle to coalesce it with.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Raw request/response round trip.
    pub fn request(&mut self, req: &Request) -> Result<Vec<u8>, ClientError> {
        begin_frame(&mut self.buf);
        req.encode_into(&mut self.buf)?;
        send_frame(&mut self.stream, &mut self.buf)?;
        if !read_frame_into(&mut self.stream, &mut self.buf)? {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        match Response::decode(&self.buf)? {
            Response::Ok(payload) => Ok(payload),
            Response::Err(msg) => Err(ClientError::Server(msg)),
            Response::Rejected(diags) => Err(ClientError::Rejected(diags)),
        }
    }

    /// Spawn an app instance; returns its graph id.
    pub fn spawn(
        &mut self,
        app: &str,
        pipeline_depth: u32,
        max_backlog: u64,
    ) -> Result<u32, ClientError> {
        let payload = self.request(&Request::Spawn {
            app: app.to_string(),
            pipeline_depth,
            max_backlog,
        })?;
        let bytes: [u8; 4] = payload
            .try_into()
            .map_err(|_| ClientError::Server("malformed spawn response".into()))?;
        Ok(u32::from_be_bytes(bytes))
    }

    /// Spawn a graph from XSPCL source shipped over the wire; the server
    /// statically analyzes and elaborates it first. Returns the graph id,
    /// or [`ClientError::Rejected`] with the analyzer's diagnostics.
    pub fn spawn_xspcl(
        &mut self,
        source: &str,
        pipeline_depth: u32,
        max_backlog: u64,
    ) -> Result<u32, ClientError> {
        let payload = self.request(&Request::SpawnXspcl {
            source: source.to_string(),
            pipeline_depth,
            max_backlog,
        })?;
        let bytes: [u8; 4] = payload
            .try_into()
            .map_err(|_| ClientError::Server("malformed spawn response".into()))?;
        Ok(u32::from_be_bytes(bytes))
    }

    /// Offer `frames` frames; returns how many the server accepted
    /// (admission control — 0 means shed, retry later).
    pub fn submit(&mut self, graph: u32, frames: u64) -> Result<u64, ClientError> {
        let payload = self.request(&Request::Submit { graph, frames })?;
        let bytes: [u8; 8] = payload
            .try_into()
            .map_err(|_| ClientError::Server("malformed submit response".into()))?;
        Ok(u64::from_be_bytes(bytes))
    }

    /// Inject a manager event (reconfiguration over the wire).
    pub fn inject(
        &mut self,
        graph: u32,
        queue: &str,
        kind: &str,
        payload: i64,
    ) -> Result<(), ClientError> {
        self.request(&Request::Inject {
            graph,
            queue: queue.to_string(),
            kind: kind.to_string(),
            payload,
        })?;
        Ok(())
    }

    /// Stats of one graph as a JSON string.
    pub fn stats(&mut self, graph: u32) -> Result<String, ClientError> {
        let payload = self.request(&Request::Stats { graph })?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }

    /// Stats of every live graph as a JSON array string.
    pub fn all_stats(&mut self) -> Result<String, ClientError> {
        self.stats(ALL_GRAPHS)
    }

    /// Drain a graph to completion and tear it down; returns its final
    /// stats as a JSON string.
    pub fn drain(&mut self, graph: u32) -> Result<String, ClientError> {
        let payload = self.request(&Request::Drain { graph })?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }

    /// Fetch one live-telemetry snapshot, rendered server-side in the
    /// requested format (`crate::telemetry::{FORMAT_JSON,
    /// FORMAT_PROMETHEUS, FORMAT_TABLE}`).
    pub fn telemetry(&mut self, format: u8) -> Result<String, ClientError> {
        let payload = self.request(&Request::Telemetry { format })?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }

    /// Attach (or replace) a latency SLO policy on a graph: the server's
    /// closed-loop controller then holds the objective by toggling the
    /// app's quality option at the graph's quiescent points. Returns the
    /// attach summary (initial config, candidate count) as a JSON string.
    #[allow(clippy::too_many_arguments)]
    pub fn attach_slo(
        &mut self,
        graph: u32,
        target_p99_ns: u64,
        low_watermark: f64,
        cooldown_ticks: u32,
        min_samples: u64,
        max_backlog: u64,
    ) -> Result<String, ClientError> {
        let payload = self.request(&Request::AttachSlo {
            graph,
            target_p99_ns,
            low_watermark_bits: low_watermark.to_bits(),
            cooldown_ticks,
            min_samples,
            max_backlog,
        })?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }

    /// Detach the SLO policy from a graph; returns the controller's final
    /// decision counters as a JSON string.
    pub fn detach_slo(&mut self, graph: u32) -> Result<String, ClientError> {
        let payload = self.request(&Request::DetachSlo { graph })?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }

    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Ping)?;
        Ok(())
    }

    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Shutdown)?;
        Ok(())
    }
}
