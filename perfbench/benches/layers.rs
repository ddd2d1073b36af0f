//! Outside-in tracing: wrappers around the public traits each layer
//! exposes, and the per-layer totals they fill.
//!
//! Nothing here reaches inside a crate.  The protocol layer is measured by
//! wrapping every node in [`TimedProtocol`] (multi-port: two clock reads per
//! call) or [`CountedSpProtocol`] (single-port: counts only, because a clock
//! pair on each of the ~32 M single-port calls costs several times the run
//! itself); the crash phase by wrapping the adversary in [`TimedAdversary`];
//! the shard layer by wrapping the coordinator's transports in
//! [`CountingTransport`] and each worker's in [`BusyTransport`].  Runner steps
//! are clocked by the caller, once per `step`.
//!
//! The runners here are serial (`--jobs 1`), so the protocol wrappers add
//! into thread-local cells; [`take_protocol_counts`] drains them after each
//! traced repetition.

use std::cell::Cell;
use std::io;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dft_sim::shard::ShardTransport;
use dft_sim::{
    AdversaryView, CrashAdversary, CrashDirective, Delivered, NodeId, Outgoing, Round,
    SinglePortProtocol, SyncProtocol,
};

/// Protocol-layer totals, added to by the node wrappers.
#[derive(Clone, Copy, Default)]
pub struct ProtocolCounts {
    pub send: Duration,
    pub receive: Duration,
    pub send_calls: u64,
    pub receive_calls: u64,
    pub inbox_msgs: u64,
    pub sp_sends: u64,
    pub sp_polls: u64,
    pub sp_receives: u64,
}

thread_local! {
    static COUNTS: Cell<ProtocolCounts> = const {
        Cell::new(ProtocolCounts {
            send: Duration::ZERO,
            receive: Duration::ZERO,
            send_calls: 0,
            receive_calls: 0,
            inbox_msgs: 0,
            sp_sends: 0,
            sp_polls: 0,
            sp_receives: 0,
        })
    };
}

fn add(update: impl FnOnce(&mut ProtocolCounts)) {
    COUNTS.with(|cell| {
        let mut counts = cell.get();
        update(&mut counts);
        cell.set(counts);
    });
}

/// Returns the protocol totals gathered on this thread and resets them.
pub fn take_protocol_counts() -> ProtocolCounts {
    COUNTS.with(|cell| cell.replace(ProtocolCounts::default()))
}

/// A multi-port node whose `send` and `receive` calls are clocked.
pub struct TimedProtocol<P>(pub P);

impl<P: SyncProtocol> SyncProtocol for TimedProtocol<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<P::Msg>>) {
        let start = Instant::now();
        self.0.send(round, out);
        let spent = start.elapsed();
        add(|c| {
            c.send += spent;
            c.send_calls += 1;
        });
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<P::Msg>]) {
        let start = Instant::now();
        self.0.receive(round, inbox);
        let spent = start.elapsed();
        add(|c| {
            c.receive += spent;
            c.receive_calls += 1;
            c.inbox_msgs += inbox.len() as u64;
        });
    }

    fn output(&self) -> Option<P::Output> {
        self.0.output()
    }

    fn has_halted(&self) -> bool {
        self.0.has_halted()
    }
}

/// A single-port node whose sends, polls and received messages are counted
/// (never clocked).
pub struct CountedSpProtocol<P>(pub P);

impl<P: SinglePortProtocol> SinglePortProtocol for CountedSpProtocol<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn send(&mut self, round: Round) -> Option<Outgoing<P::Msg>> {
        let out = self.0.send(round);
        if out.is_some() {
            add(|c| c.sp_sends += 1);
        }
        out
    }

    fn poll(&mut self, round: Round) -> Option<NodeId> {
        let port = self.0.poll(round);
        if port.is_some() {
            add(|c| c.sp_polls += 1);
        }
        port
    }

    fn receive(&mut self, round: Round, from: NodeId, msgs: &mut Vec<P::Msg>) {
        let count = msgs.len() as u64;
        add(|c| c.sp_receives += count);
        self.0.receive(round, from, msgs);
    }

    fn output(&self) -> Option<P::Output> {
        self.0.output()
    }

    fn has_halted(&self) -> bool {
        self.0.has_halted()
    }
}

/// A crash adversary whose planning phase is clocked.
pub struct TimedAdversary {
    inner: Box<dyn CrashAdversary>,
    spent: Rc<Cell<Duration>>,
}

impl TimedAdversary {
    /// Wraps `inner`; the returned handle reads the time spent planning.
    pub fn new(inner: Box<dyn CrashAdversary>) -> (Self, Rc<Cell<Duration>>) {
        let spent = Rc::new(Cell::new(Duration::ZERO));
        let adversary = TimedAdversary {
            inner,
            spent: Rc::clone(&spent),
        };
        (adversary, spent)
    }
}

impl CrashAdversary for TimedAdversary {
    fn plan_round(&mut self, view: &AdversaryView<'_>) -> Vec<CrashDirective> {
        let start = Instant::now();
        let directives = self.inner.plan_round(view);
        self.spent.set(self.spent.get() + start.elapsed());
        directives
    }
}

/// Coordinator-side shard transport totals.
#[derive(Clone, Copy, Default)]
pub struct TransportCounts {
    pub frames: u64,
    pub bytes: u64,
    /// Time blocked in `recv`, waiting for a worker's answer.
    pub wait: Duration,
    /// Time spent in `send`.
    pub send: Duration,
}

/// A coordinator-side transport that counts frames and bytes in both
/// directions and clocks its `send` and `recv` calls.
pub struct CountingTransport {
    inner: Box<dyn ShardTransport>,
    counts: Arc<Mutex<TransportCounts>>,
}

impl CountingTransport {
    pub fn new(inner: Box<dyn ShardTransport>, counts: Arc<Mutex<TransportCounts>>) -> Self {
        CountingTransport { inner, counts }
    }
}

impl ShardTransport for CountingTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.send(frame);
        let spent = start.elapsed();
        let mut counts = self.counts.lock().expect("transport counts poisoned");
        counts.send += spent;
        counts.frames += 1;
        counts.bytes += frame.len() as u64;
        result
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let start = Instant::now();
        let result = self.inner.recv();
        let spent = start.elapsed();
        let mut counts = self.counts.lock().expect("transport counts poisoned");
        counts.wait += spent;
        if let Ok(frame) = &result {
            counts.frames += 1;
            counts.bytes += frame.len() as u64;
        }
        result
    }
}

/// A worker-side transport that clocks the time between receiving a request
/// and sending its answer: the worker's busy time.
pub struct BusyTransport<T> {
    inner: T,
    since: Option<Instant>,
    pub busy: Duration,
}

impl<T> BusyTransport<T> {
    pub fn new(inner: T) -> Self {
        BusyTransport {
            inner,
            since: None,
            busy: Duration::ZERO,
        }
    }
}

impl<T: ShardTransport> ShardTransport for BusyTransport<T> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        if let Some(since) = self.since.take() {
            self.busy += since.elapsed();
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let frame = self.inner.recv();
        self.since = Some(Instant::now());
        frame
    }
}

/// One traced repetition's per-layer totals over all of a workload's
/// executions.
#[derive(Default)]
pub struct Layers {
    /// The thread's protocol totals, taken once the repetition is over.
    pub protocol: ProtocolCounts,
    /// `for_all_nodes` (with overlay construction).
    pub build: Duration,
    /// `KeyDirectory::generate`.
    pub keys: Duration,
    /// One sample per `Runner::step`.
    pub steps: Vec<Duration>,
    pub adversary: Duration,
    pub crashes: u64,
    /// One sample per `SinglePortRunner::step`.
    pub sp_steps: Vec<Duration>,
    pub sp_ports_max: u64,
    pub sp_buffered_max: u64,
    /// Shared by every coordinator-side transport of the repetition.
    pub transport: Arc<Mutex<TransportCounts>>,
    pub shard_rounds: u64,
    /// Coordinator wall time of the sharded executions, spawn to reap.
    pub shard_run: Duration,
    pub worker_busy: Duration,
}

impl Layers {
    /// The per-layer metrics as (name, unit, value), in output order, bar
    /// the two `trace.*` metrics, which compare traced with untraced
    /// repetitions and are added by the caller.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let p = &self.protocol;
        let step: Duration = self.steps.iter().sum();
        let sp_step: Duration = self.sp_steps.iter().sum();
        let core = p.send + p.receive;
        let t = *self.transport.lock().expect("transport counts poisoned");
        let secs = Duration::as_secs_f64;
        vec![
            ("core.send_s", "s", secs(&p.send)),
            ("core.receive_s", "s", secs(&p.receive)),
            ("core.send_calls", "count", p.send_calls as f64),
            ("core.receive_calls", "count", p.receive_calls as f64),
            ("core.inbox_msgs", "count", p.inbox_msgs as f64),
            (
                "core.receive_ns_per_msg",
                "ns",
                ratio(p.receive.as_nanos() as f64, p.inbox_msgs as f64),
            ),
            ("setup.build_s", "s", secs(&self.build)),
            ("setup.keys_s", "s", secs(&self.keys)),
            ("sim.step_s", "s", secs(&step)),
            (
                "sim.self_s",
                "s",
                secs(&step.saturating_sub(core + self.adversary)),
            ),
            ("sim.adversary_s", "s", secs(&self.adversary)),
            ("sim.crashes", "count", self.crashes as f64),
            (
                "sim.step_p50_us",
                "us",
                percentile_us(&self.steps, Rank::Median),
            ),
            (
                "sim.step_tail_us",
                "us",
                percentile_us(&self.steps, Rank::Tail),
            ),
            ("sim.step_samples", "count", self.steps.len() as f64),
            ("sp.step_s", "s", secs(&sp_step)),
            (
                "sp.step_p50_us",
                "us",
                percentile_us(&self.sp_steps, Rank::Median),
            ),
            (
                "sp.step_tail_us",
                "us",
                percentile_us(&self.sp_steps, Rank::Tail),
            ),
            ("sp.step_samples", "count", self.sp_steps.len() as f64),
            ("sp.sends", "count", p.sp_sends as f64),
            ("sp.polls", "count", p.sp_polls as f64),
            ("sp.receives", "count", p.sp_receives as f64),
            ("sp.ports_in_use_max", "count", self.sp_ports_max as f64),
            ("sp.buffered_max", "count", self.sp_buffered_max as f64),
            ("shard.frames", "count", t.frames as f64),
            ("shard.bytes", "B", t.bytes as f64),
            (
                "shard.bytes_per_frame",
                "B",
                ratio(t.bytes as f64, t.frames as f64),
            ),
            (
                "shard.frames_per_round",
                "count",
                ratio(t.frames as f64, self.shard_rounds as f64),
            ),
            ("shard.wait_s", "s", secs(&t.wait)),
            ("shard.send_s", "s", secs(&t.send)),
            (
                "shard.coord_self_s",
                "s",
                secs(&self.shard_run.saturating_sub(t.wait + t.send)),
            ),
            ("shard.worker_busy_s", "s", secs(&self.worker_busy)),
        ]
    }
}

/// `num / den`, or 0 where the layer did no work.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

enum Rank {
    Median,
    /// The highest percentile with at least ten samples beyond it.
    Tail,
}

/// A step-time percentile in microseconds (0 without samples).
fn percentile_us(samples: &[Duration], rank: Rank) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let index = match rank {
        Rank::Median => sorted.len() / 2,
        Rank::Tail => sorted.len().saturating_sub(11),
    };
    sorted[index].as_secs_f64() * 1e6
}
