//! The component interface: the leaf unit of an application.
//!
//! A component implements one basic function of the application (a down
//! scaler, a blender, an IDCT, ...). It has a fixed number of input and
//! output ports to which streams are connected by the coordination layer —
//! a component never knows *which* other components it talks to, which is
//! what makes it reusable across applications.
//!
//! Components are written against [`RunCtx`]: when scheduled they read the
//! packets at their input ports (written by components scheduled earlier in
//! the iteration), compute, and write their output ports. The optional
//! *reconfiguration interface* ([`Component::reconfigure`]) receives slice
//! assignments for data-parallel execution and user reconfiguration
//! requests broadcast by managers (e.g. "move the blended picture").

use crate::event::EventQueue;
use crate::meter::{MemAccess, Meter};
use crate::stream::Stream;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Position of one copy within a data-parallel (`slice`/`crossdep`) group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceAssign {
    /// This copy's index in `0..total`.
    pub index: usize,
    /// Total number of copies in the group.
    pub total: usize,
}

impl SliceAssign {
    /// The whole computation as a single slice.
    pub const WHOLE: SliceAssign = SliceAssign { index: 0, total: 1 };

    /// Split `len` items into `total` near-equal contiguous ranges and
    /// return this copy's range. The first `len % total` slices get one
    /// extra item, so the union is exactly `0..len` and slices are disjoint.
    pub fn range(&self, len: usize) -> std::ops::Range<usize> {
        let base = len / self.total;
        let extra = len % self.total;
        let start = self.index * base + self.index.min(extra);
        let size = base + usize::from(self.index < extra);
        start..(start + size).min(len)
    }
}

/// A request delivered through the component reconfiguration interface.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconfigRequest {
    /// Tell the component which part of the input to process when run in
    /// data-parallel mode.
    Slice(SliceAssign),
    /// An application-defined request (key/value), e.g. a new picture
    /// position for a blender.
    User { key: String, value: ParamValue },
}

/// A typed initialization-parameter value.
#[derive(Clone)]
pub enum ParamValue {
    Int(i64),
    Float(f64),
    Str(String),
    /// An event-queue handle — how components learn where to send events.
    Queue(EventQueue),
}

impl ParamValue {
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            _ => None,
        }
    }
    pub fn as_float(&self) -> Option<f64> {
        match self {
            ParamValue::Float(v) => Some(*v),
            ParamValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Str(v) => Some(v),
            _ => None,
        }
    }
    pub fn as_queue(&self) -> Option<&EventQueue> {
        match self {
            ParamValue::Queue(q) => Some(q),
            _ => None,
        }
    }
}

impl fmt::Debug for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "Int({v})"),
            ParamValue::Float(v) => write!(f, "Float({v})"),
            ParamValue::Str(v) => write!(f, "Str({v:?})"),
            ParamValue::Queue(q) => write!(f, "Queue({})", q.name()),
        }
    }
}

impl PartialEq for ParamValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ParamValue::Int(a), ParamValue::Int(b)) => a == b,
            (ParamValue::Float(a), ParamValue::Float(b)) => a == b,
            (ParamValue::Str(a), ParamValue::Str(b)) => a == b,
            (ParamValue::Queue(a), ParamValue::Queue(b)) => a.same_queue(b),
            _ => false,
        }
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}
impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}
impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_string())
    }
}
impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}
impl From<EventQueue> for ParamValue {
    fn from(v: EventQueue) -> Self {
        ParamValue::Queue(v)
    }
}

/// Initialization parameters handed to a component factory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    map: BTreeMap<String, ParamValue>,
}

impl Params {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(mut self, key: impl Into<String>, value: impl Into<ParamValue>) -> Self {
        self.map.insert(key.into(), value.into());
        self
    }

    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.map.get(key)
    }

    /// Integer parameter or `default` when absent.
    ///
    /// # Panics
    /// If the parameter exists but is not an integer.
    pub fn int_or(&self, key: &str, default: i64) -> i64 {
        match self.map.get(key) {
            None => default,
            Some(v) => v
                .as_int()
                .unwrap_or_else(|| panic!("parameter '{key}' is not an integer: {v:?}")),
        }
    }

    /// Required integer parameter.
    pub fn int(&self, key: &str) -> i64 {
        self.map
            .get(key)
            .unwrap_or_else(|| panic!("missing required parameter '{key}'"))
            .as_int()
            .unwrap_or_else(|| panic!("parameter '{key}' is not an integer"))
    }

    /// Required float parameter (integers are widened).
    pub fn float(&self, key: &str) -> f64 {
        self.map
            .get(key)
            .unwrap_or_else(|| panic!("missing required parameter '{key}'"))
            .as_float()
            .unwrap_or_else(|| panic!("parameter '{key}' is not numeric"))
    }

    /// Required string parameter.
    pub fn str(&self, key: &str) -> &str {
        self.map
            .get(key)
            .unwrap_or_else(|| panic!("missing required parameter '{key}'"))
            .as_str()
            .unwrap_or_else(|| panic!("parameter '{key}' is not a string"))
    }

    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        match self.map.get(key) {
            None => default,
            Some(v) => v
                .as_str()
                .unwrap_or_else(|| panic!("parameter '{key}' is not a string")),
        }
    }

    /// Required event-queue parameter.
    pub fn queue(&self, key: &str) -> EventQueue {
        self.map
            .get(key)
            .unwrap_or_else(|| panic!("missing required parameter '{key}'"))
            .as_queue()
            .unwrap_or_else(|| panic!("parameter '{key}' is not an event queue"))
            .clone()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &ParamValue)> {
        self.map.iter()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Everything a component can see while it runs.
pub struct RunCtx<'a> {
    pub(crate) iter: u64,
    depth: usize,
    pub(crate) inputs: &'a [Arc<Stream>],
    pub(crate) outputs: &'a [Arc<Stream>],
    pub(crate) meter: &'a mut dyn Meter,
}

impl<'a> RunCtx<'a> {
    /// Construct a context manually — exposed so sequential baselines and
    /// tests can drive a component outside an engine.
    pub fn new(
        iter: u64,
        inputs: &'a [Arc<Stream>],
        outputs: &'a [Arc<Stream>],
        meter: &'a mut dyn Meter,
    ) -> Self {
        Self {
            iter,
            depth: 1,
            inputs,
            outputs,
            meter,
        }
    }

    /// Run inside a pipeline of `depth` iterations (1 unless set: a
    /// context built outside an engine has no pipeline).
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// The current iteration number (0-based).
    pub fn iteration(&self) -> u64 {
        self.iter
    }

    /// The run's pipeline depth *d*: an event this job sends is due at
    /// iteration `iteration() + d`, and a reconfiguration it causes lands
    /// at `iteration() + 2d` (see [`crate::event`]).
    pub fn pipeline_depth(&self) -> usize {
        self.depth
    }

    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Read input port `port` for the current iteration.
    ///
    /// # Panics
    /// On bad port index, missing data (scheduling bug) or type mismatch.
    pub fn read<T: Send + Sync + 'static>(&self, port: usize) -> Arc<T> {
        self.inputs
            .get(port)
            .unwrap_or_else(|| {
                panic!(
                    "input port {port} out of range ({} ports)",
                    self.inputs.len()
                )
            })
            .read_as::<T>(self.iter)
    }

    fn output(&self, port: usize) -> &Stream {
        self.outputs.get(port).unwrap_or_else(|| {
            panic!(
                "output port {port} out of range ({} ports)",
                self.outputs.len()
            )
        })
    }

    /// Write `value` to output port `port` for the current iteration.
    pub fn write<T: Send + Sync + 'static>(&self, port: usize, value: T) -> Arc<T> {
        let packet: Arc<T> = Arc::new(value);
        self.write_arc(port, packet.clone());
        packet
    }

    /// Write an already-shared value to output port `port` (no copy). The
    /// stream does not keep it past the iteration's retirement.
    pub fn write_arc<T: Send + Sync + 'static>(&self, port: usize, value: Arc<T>) {
        self.output(port).write(self.iter, value);
    }

    /// Build the value of output port `port` for the current iteration,
    /// single-writer form of [`RunCtx::write_shared`]: `init` receives the
    /// payload this stream slot held `pipeline_depth` iterations ago (if
    /// it is a `T` and nothing else still holds it) to rebuild the output
    /// in the same storage. See [`Stream::write_with`].
    pub fn write_with<T, F>(&self, port: usize, init: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce(Option<T>) -> T,
    {
        self.output(port).write_with(self.iter, init)
    }

    /// Forward an already-shared value to output port `port`; safe to call
    /// from every copy of a sliced group (all must pass the same `Arc`).
    /// This is how *in-place* components hand their (mutated) input buffer
    /// downstream. The output stream only holds an alias: the buffer goes
    /// back to the stream slot it was built for.
    pub fn forward_shared<T: Send + Sync + 'static>(&self, port: usize, value: Arc<T>) {
        self.output(port).write_shared_packet(self.iter, value);
    }

    /// Direct access to the meter (for substrate helpers that report
    /// sweeps on behalf of a component).
    pub fn meter_mut(&mut self) -> &mut dyn Meter {
        self.meter
    }

    /// Get-or-create the *shared* output of a sliced group on port `port`.
    ///
    /// The first copy to arrive runs `init` (building, say, the output
    /// frame — in the storage of the `Some(old)` it is handed when this
    /// stream slot has a retired payload to give back, see
    /// [`Stream::write_shared`]); all copies receive the same `Arc` and
    /// then fill their disjoint regions through `RegionBuf` leases.
    pub fn write_shared<T, F>(&self, port: usize, init: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce(Option<T>) -> T,
    {
        self.output(port).write_shared(self.iter, init)
    }

    /// Charge compute cycles for the work being done (no-op natively).
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.meter.charge(cycles);
    }

    /// Report a pre-built access record.
    #[inline]
    pub fn touch(&mut self, access: MemAccess) {
        self.meter.touch(access);
    }
}

/// The component trait: implement this to plug a function into the graph.
pub trait Component: Send {
    /// The component class name (matches the XSPCL `class` attribute).
    fn class(&self) -> &'static str;

    /// Execute one iteration: read inputs, compute, write outputs.
    ///
    /// Components always run to completion; they must not block on
    /// resources other than their ports (the design guarantees
    /// deadlock-freedom only under that rule, as in the paper §3.1).
    fn run(&mut self, ctx: &mut RunCtx<'_>);

    /// Receive a reconfiguration request (slice assignment or user
    /// request). The default ignores everything.
    fn reconfigure(&mut self, _req: &ReconfigRequest) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::NullMeter;

    #[test]
    fn slice_ranges_partition_exactly() {
        for total in 1..10 {
            for len in [0usize, 1, 7, 45, 576, 720] {
                let mut covered = 0;
                let mut prev_end = 0;
                for index in 0..total {
                    let r = SliceAssign { index, total }.range(len);
                    assert_eq!(r.start, prev_end, "slices must be contiguous");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, len);
                assert_eq!(prev_end, len);
            }
        }
    }

    #[test]
    fn slice_range_balance() {
        // 720 rows over 45 slices → 16 each (the paper's JPiP split).
        let r = SliceAssign {
            index: 44,
            total: 45,
        }
        .range(720);
        assert_eq!(r, 704..720);
        // 576 rows over 8 slices → 72 each (PiP).
        let r = SliceAssign { index: 0, total: 8 }.range(576);
        assert_eq!(r, 0..72);
    }

    #[test]
    fn params_typed_accessors() {
        let q = EventQueue::new("mq");
        let p = Params::new()
            .set("factor", 3i64)
            .set("sigma", 1.0f64)
            .set("file", "bg.yuv")
            .set("events", q.clone());
        assert_eq!(p.int("factor"), 3);
        assert_eq!(p.float("sigma"), 1.0);
        assert_eq!(p.float("factor"), 3.0); // int widens
        assert_eq!(p.str("file"), "bg.yuv");
        assert!(p.queue("events").same_queue(&q));
        assert_eq!(p.int_or("missing", 9), 9);
        assert_eq!(p.str_or("missing", "d"), "d");
    }

    #[test]
    #[should_panic(expected = "missing required parameter")]
    fn missing_param_panics() {
        Params::new().int("nope");
    }

    #[test]
    fn ctx_rw_roundtrip() {
        let a = Stream::new("a");
        let b = Stream::new("b");
        let inputs = [a.clone()];
        let outputs = [b.clone()];
        a.write(0, crate::packet::pack(5i32));
        let mut meter = NullMeter;
        let ctx = RunCtx::new(0, &inputs, &outputs, &mut meter);
        let v = ctx.read::<i32>(0);
        ctx.write(0, *v * 2);
        assert_eq!(*b.read_as::<i32>(0), 10);
    }

    #[test]
    fn param_value_equality() {
        assert_eq!(ParamValue::from(3i64), ParamValue::Int(3));
        assert_ne!(ParamValue::from(3i64), ParamValue::Float(3.0));
        let q = EventQueue::new("x");
        assert_eq!(ParamValue::from(q.clone()), ParamValue::Queue(q));
    }
}
