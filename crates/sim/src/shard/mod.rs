//! Sharding a **single execution** across OS worker processes.
//!
//! The in-process host (see [`crate::engine`]) splits one run's nodes into
//! contiguous chunks of sans-I/O [`RoundCore`]s / [`SinglePortCore`]s; the
//! transport host [`Remote`] serves each such chunk by a **shard worker** on
//! the far side of a [`ShardTransport`] instead.  Two transport backends
//! exist:
//!
//! * in-process: workers are jobs on a [`WorkerPool`] owned by the host,
//!   connected by [`ChannelTransport`] pairs (every frame still crosses the
//!   full wire codec, so this backend exercises the same protocol the pipes
//!   do);
//! * worker processes: `run_experiments --shard-worker` children connected
//!   by length-prefixed pipes ([`StreamTransport`]); moving a shard to
//!   another machine is a transport swap (pipe → socket), not a rewrite.
//!
//! # Determinism
//!
//! [`ShardedRunner`] and [`SpShardedRunner`] are the same [`Engine`] as the
//! in-process runners, paired with a [`Remote`] host: the crash-adversary
//! phase, the fixed chunk-order merge, the single-port port buffers and the
//! decision/halt replay run once, in the coordinating process, on the
//! engine's own round loop.  A sharded run is therefore byte-identical to a
//! serial or `--jobs N` run of the same seeded workload;
//! `crates/bench/tests/determinism.rs` pins this with table diffs and
//! transcript proptests.
//!
//! # Protocol
//!
//! Each frame is `[u16 version][u8 tag][payload]` (see [`WIRE_VERSION`] and
//! the [`wire`] codec).  Per round the parent sends `Collect`, merges the
//! returned intents, runs the crash phase, sends `Deliver` (multi-port; the
//! worker returns surviving messages and metric deltas) or performs the
//! port-map mutations itself (single-port), routes inbound messages, sends
//! `Receive`, and replays the returned decision/halt events in chunk order.
//! `Shutdown` ends the loop; a worker treats transport EOF as shutdown, so
//! a dying parent never leaves workers spinning.  Both sides reject
//! malformed frames with an error instead of panicking.
//!
//! # Worker-failure recovery
//!
//! A worker process is *substrate*, not a simulated node: its death must
//! not change the computed execution.  When [`Recovery`] is configured the
//! host retains every request frame it sends (per shard; `Shutdown`
//! excluded), and on any transport failure — EOF, I/O error, read deadline
//! ([`DeadlineTransport`]), an unexpected tag, or a payload that fails to
//! decode — it obtains a fresh transport (the respawn factory, bounded by
//! `max_respawns` with exponential backoff, then the in-process fallback
//! factory once) and **replays** the retained log lock-step, discarding
//! every response but the last.  Replay is sound because workers rebuild
//! their state machines deterministically from the handshake and the parent
//! authors every inbound frame: the same requests in the same order produce
//! the same worker state and the same responses.  [`RecoveryStats`] counts
//! what the ladder did.  Deterministic fault injection for all four entry
//! points lives in [`fault`].
//!
//! [`WorkerPool`]: crate::pool::WorkerPool

pub mod fault;
pub mod transport;
pub mod wire;

use std::io;
use std::marker::PhantomData;
use std::ops::Range;
use std::time::Duration;

use crate::adversary::{CrashAdversary, DeliveryFilter};
use crate::driver::{RoundCore, SinglePortCore};
use crate::engine::{ChunkCore, Engine, EventSink, Host, MultiPortHost, SinglePortHost, Staged};
use crate::error::{ShardError, SimError, SimResult};
use crate::message::{Delivered, Outgoing, Payload};
use crate::node::{NodeId, NodeSet};
use crate::parallel::ChunkPlan;
use crate::pool::WorkerPool;
use crate::protocol::{SinglePortProtocol, SyncProtocol};
use crate::report::ExecutionReport;
use crate::round::Round;
use crate::runner::{byzantine_set, Participant};

pub use fault::{ArmedPlan, FaultKind, FaultPlan, FaultSpec, FaultyTransport};
pub use transport::{
    read_frame, write_frame, ChannelTransport, DeadlineTransport, ShardTransport, StreamTransport,
    MAX_FRAME_LEN,
};
pub use wire::{
    decode_error_path_violations, from_bytes, to_bytes, Wire, WireError, WireReader, WireResult,
};

/// Version of the shard wire format.  Every frame carries it; both sides
/// reject a mismatch, so a stale worker binary fails loudly instead of
/// silently mis-decoding.
pub const WIRE_VERSION: u16 = 1;

/// Frame tags (parent → worker).
const REQ_COLLECT: u8 = 1;
const REQ_DELIVER: u8 = 2;
const REQ_RECEIVE: u8 = 3;
const REQ_SP_RECEIVE: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;

/// Frame tags (worker → parent).
const RESP_INTENTS: u8 = 64;
const RESP_SP_INTENTS: u8 = 65;
const RESP_DELIVERED: u8 = 66;
const RESP_EVENTS: u8 = 67;

/// Starts a frame: the `[u16 version][u8 tag]` header every shard frame
/// (including the bench layer's handshake) opens with.  Append the payload
/// with [`Wire::encode`] calls.
pub fn frame(tag: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    WIRE_VERSION.encode(&mut out);
    out.push(tag);
    out
}

/// Opens a frame: checks the version and returns the tag and a reader over
/// the payload.
///
/// # Errors
///
/// Returns a [`WireError`] on a truncated header or a version mismatch (a
/// stale worker binary must fail loudly, never mis-decode).
pub fn open_frame(buf: &[u8]) -> WireResult<(u8, WireReader<'_>)> {
    let mut r = WireReader::new(buf);
    let version = r.u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::new(format!(
            "shard wire version mismatch: peer speaks v{version}, this binary v{WIRE_VERSION}"
        )));
    }
    let tag = r.u8()?;
    Ok((tag, r))
}

fn wire_io(err: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err.to_string())
}

/// Produces a replacement [`ShardTransport`] for the given shard index —
/// a respawned worker process, a fresh serving thread, or an in-process
/// fallback server over a channel pair.
pub type TransportFactory = Box<dyn FnMut(usize) -> io::Result<Box<dyn ShardTransport>> + Send>;

/// The worker-failure recovery ladder a coordinator climbs when a shard
/// transport fails: up to `max_respawns` fresh transports from the respawn
/// factory (with exponential backoff between consecutive attempts), then —
/// budget exhausted — one in-process fallback, then a hard
/// [`SimError::Shard`].
pub struct Recovery {
    max_respawns: u32,
    backoff: Duration,
    respawn: TransportFactory,
    fallback: Option<TransportFactory>,
}

impl Recovery {
    /// A ladder that respawns at most `max_respawns` times via `respawn`.
    /// `max_respawns` of 0 means the first failure goes straight to the
    /// fallback (or the hard error when none is configured).
    pub fn new(max_respawns: u32, respawn: TransportFactory) -> Self {
        Recovery {
            max_respawns,
            backoff: Duration::from_millis(10),
            respawn,
            fallback: None,
        }
    }

    /// Adds the last rung: an in-process fallback used once per shard when
    /// the respawn budget is exhausted.
    #[must_use]
    pub fn with_fallback(mut self, fallback: TransportFactory) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// Sets the base backoff delay (doubled per consecutive respawn of one
    /// shard; the first respawn is immediate).  Zero disables sleeping.
    #[must_use]
    pub fn with_backoff(mut self, base: Duration) -> Self {
        self.backoff = base;
        self
    }
}

impl std::fmt::Debug for Recovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recovery")
            .field("max_respawns", &self.max_respawns)
            .field("backoff", &self.backoff)
            .field("has_fallback", &self.fallback.is_some())
            .finish_non_exhaustive()
    }
}

/// What the recovery ladder did over one execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Fresh transports obtained from the respawn factory.
    pub respawns: u64,
    /// Shards moved onto the in-process fallback.
    pub fallbacks: u64,
    /// Request frames replayed to fresh transports.
    pub replayed_frames: u64,
    /// Completed rounds whose frames were replayed (summed per recovery).
    pub replayed_rounds: u64,
}

impl RecoveryStats {
    /// Whether any recovery action ran.
    pub fn any(&self) -> bool {
        self.respawns > 0 || self.fallbacks > 0
    }
}

/// The number of shard workers a system of `n` nodes actually uses when
/// `shards` are requested: the chunk partition never creates empty trailing
/// chunks, so tiny systems use fewer workers than requested (see
/// [`crate::parallel`]'s `ChunkPlan`).  Parent and workers must agree on
/// this; both derive it from here.
pub fn shard_count(n: usize, shards: usize) -> usize {
    ChunkPlan::new(n, shards).chunks
}

/// The node range owned by shard `index` of `shards` over `n` nodes.
pub fn shard_range(n: usize, shards: usize, index: usize) -> Range<usize> {
    ChunkPlan::new(n, shards).range(index, n)
}

/// A decision/halt event reported by a shard worker: the global node index,
/// whether the node voluntarily halted, and — on the node's first decision —
/// its output value.
struct WireEvent<O> {
    node: usize,
    halted: bool,
    output: Option<O>,
}

impl<O: Wire> Wire for WireEvent<O> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.halted.encode(out);
        self.output.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(WireEvent {
            node: usize::decode(r)?,
            halted: bool::decode(r)?,
            output: Option::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

fn invalid(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// Checks a chunk-local node index from a request frame.
fn local_node(local: usize, len: usize) -> io::Result<usize> {
    if local < len {
        Ok(local)
    } else {
        Err(invalid(format!(
            "node {local} outside a chunk of {len} nodes"
        )))
    }
}

/// Encodes a chunk's decision/halt events of the last finalize as a
/// `RESP_EVENTS` frame, mirroring voluntary halts into the chunk's status
/// as the in-process host's replay does.
fn events_response<C: ChunkCore>(chunk: &mut C) -> Vec<u8>
where
    C::Output: Wire,
{
    let mut events = Vec::new();
    chunk.replay_events(&mut |node, output, halted| {
        events.push(WireEvent {
            node,
            halted,
            output: output.cloned(),
        });
    });
    let mut resp = frame(RESP_EVENTS);
    events.encode(&mut resp);
    resp
}

/// The request loop both serve functions share: answers every request
/// with `respond(chunk, tag, round, payload)` until `Shutdown` or a clean
/// EOF, which a worker treats as shutdown.
fn serve_chunk<C>(
    mut chunk: C,
    transport: &mut dyn ShardTransport,
    respond: impl Fn(&mut C, u8, Round, &mut WireReader<'_>) -> io::Result<Vec<u8>>,
) -> io::Result<()> {
    loop {
        let request = match transport.recv() {
            Ok(frame) => frame,
            Err(err) if err.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(err) => return Err(err),
        };
        let (tag, mut r) = open_frame(&request).map_err(wire_io)?;
        if tag == REQ_SHUTDOWN {
            return Ok(());
        }
        let round = Round::decode(&mut r).map_err(wire_io)?;
        transport.send(&respond(&mut chunk, tag, round, &mut r)?)?;
    }
}

/// Serves one multi-port chunk over `transport` until `Shutdown` (or EOF).
///
/// The chunk owns nodes `base .. base + participants.len()` of the sharded
/// execution and runs the same three phase bodies every backend runs
/// ([`RoundCore`]'s `begin_round` / `deliver` / `finalize`); only the phase
/// inputs and outputs cross the transport.
///
/// # Errors
///
/// Returns an I/O error when the transport fails mid-execution or a frame is
/// malformed (including a node index outside the chunk); a clean EOF before
/// a request is treated as shutdown.
pub fn serve_multi_port<P>(
    participants: Vec<Participant<P>>,
    base: usize,
    transport: &mut dyn ShardTransport,
) -> io::Result<()>
where
    P: SyncProtocol,
    P::Msg: Wire,
    P::Output: Wire,
{
    let len = participants.len();
    let chunk = RoundCore::new(base, participants);
    serve_chunk(chunk, transport, |chunk, tag, round, r| match tag {
        REQ_COLLECT => {
            chunk.begin_round(round);
            let mut resp = frame(RESP_INTENTS);
            chunk.send_intents.encode(&mut resp);
            Ok(resp)
        }
        REQ_DELIVER => {
            let crashed: Vec<(usize, DeliveryFilter)> = Vec::decode(r).map_err(wire_io)?;
            let mut filters = Vec::with_capacity(crashed.len());
            for (local, filter) in crashed {
                chunk.set_crashed(local_node(local, len)?, round);
                filters.push((base + local, filter));
            }
            chunk.deliver(&filters);
            let mut resp = frame(RESP_DELIVERED);
            (chunk.msgs, chunk.bits, chunk.byz_msgs).encode(&mut resp);
            chunk.delivered.encode(&mut resp);
            chunk.delivered.clear();
            Ok(resp)
        }
        REQ_RECEIVE => {
            let inbound: Vec<(usize, Delivered<P::Msg>)> = Vec::decode(r).map_err(wire_io)?;
            for (local, msg) in inbound {
                chunk.accept(local_node(local, len)?, msg);
            }
            chunk.finalize(round);
            Ok(events_response(chunk))
        }
        other => Err(invalid(format!("unexpected shard request tag {other}"))),
    })
}

/// Serves one single-port chunk over `transport` until `Shutdown` (or EOF).
///
/// The port map and its mutations (enqueue, drain, drop) live in the
/// parent's engine — they are shared, order-sensitive state — so the
/// single-port worker only runs the per-node `send`/`poll` collection and
/// the `receive` loop over parent-pre-drained port contents.
///
/// # Errors
///
/// Returns an I/O error when the transport fails mid-execution or a frame is
/// malformed (including a node index outside the chunk or a poll-result
/// list of the wrong length); a clean EOF before a request is treated as
/// shutdown.
pub fn serve_single_port<P>(
    nodes: Vec<P>,
    base: usize,
    transport: &mut dyn ShardTransport,
) -> io::Result<()>
where
    P: SinglePortProtocol,
    P::Msg: Wire,
    P::Output: Wire,
{
    let len = nodes.len();
    let chunk = SinglePortCore::new(base, nodes);
    serve_chunk(chunk, transport, |chunk, tag, round, r| match tag {
        REQ_COLLECT => {
            chunk.begin_round(round);
            let mut resp = frame(RESP_SP_INTENTS);
            // The parent's engine enqueues the sends itself, so they are
            // *moved* out of the chunk, exactly as in process.
            let sends: Vec<Option<Outgoing<P::Msg>>> =
                chunk.sends.iter_mut().map(Option::take).collect();
            sends.encode(&mut resp);
            chunk.polls.encode(&mut resp);
            Ok(resp)
        }
        REQ_SP_RECEIVE => {
            let crashed: Vec<usize> = Vec::decode(r).map_err(wire_io)?;
            let drained: Vec<Option<Vec<P::Msg>>> = Vec::decode(r).map_err(wire_io)?;
            if drained.len() != len {
                let got = drained.len();
                return Err(invalid(format!("{got} poll results for {len} nodes")));
            }
            for local in crashed {
                chunk.set_crashed(local_node(local, len)?, round);
            }
            chunk.drained = drained;
            chunk.finalize(round);
            Ok(events_response(chunk))
        }
        other => Err(invalid(format!("unexpected shard request tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

/// Bound alias for message types the shard protocol can carry.
pub trait WireMsg: Payload + Wire {}
impl<M: Payload + Wire> WireMsg for M {}

/// Bound alias for output types the shard protocol can carry.
pub trait WireOutput: Wire + Clone + PartialEq + std::fmt::Debug + Send + 'static {}
impl<O: Wire + Clone + PartialEq + std::fmt::Debug + Send + 'static> WireOutput for O {}

/// Model marker of a [`Remote`] host whose workers serve
/// [`serve_multi_port`].
#[derive(Debug)]
pub enum MultiPort {}

/// Model marker of a [`Remote`] host whose workers serve
/// [`serve_single_port`].
#[derive(Debug)]
pub enum SinglePort {}

/// The transport host: each of an [`Engine`]'s chunks is served by a shard
/// worker behind a [`ShardTransport`], for the model `Md`.
///
/// It never holds protocol state machines — it is generic over the message
/// and output wire types only — so the worker-process backend does not pay
/// for a redundant parent-side node construction.  It turns each phase into
/// frames and owns the worker-failure recovery ladder (see the module
/// docs).
pub struct Remote<M, O, Md> {
    n: usize,
    plan: ChunkPlan,
    transports: Vec<Box<dyn ShardTransport>>,
    /// The round in flight (error context).
    round: Round,
    /// Per-shard retained request log (only fed while recovery is
    /// configured; `Shutdown` is never logged).  On recovery the whole log
    /// is replayed to the fresh transport — sound because the worker
    /// rebuilds deterministically and the parent authors every request.
    frame_log: Vec<Vec<Vec<u8>>>,
    /// A response produced by replay, pending consumption by `transact`.
    stashed: Vec<Option<Vec<u8>>>,
    recovery: Option<Recovery>,
    respawns_used: Vec<u32>,
    fallback_active: Vec<bool>,
    stats: RecoveryStats,
    /// Every node's first output, as its worker reported it.
    outputs: Vec<Option<O>>,
    /// Multi-port: this round's inbound messages per chunk, tagged with
    /// their chunk-local destination.
    inbound: Vec<Vec<(usize, Delivered<M>)>>,
    /// Single-port: this round's sends, crash victims (chunk-local) and
    /// poll results per chunk.
    sends: Vec<Vec<Option<Outgoing<M>>>>,
    victims: Vec<Vec<usize>>,
    polled: Vec<Vec<Option<Vec<M>>>>,
    /// Keeps in-process serving threads alive for the host's lifetime
    /// (declared after `transports`, so workers see EOF before the join);
    /// `None` for remote (process/pipe) backends.
    _pool: Option<WorkerPool>,
    _model: PhantomData<fn() -> Md>,
}

impl<M: WireMsg, O: WireOutput, Md> Remote<M, O, Md> {
    fn new(
        n: usize,
        shards: usize,
        transports: Vec<Box<dyn ShardTransport>>,
        pool: Option<WorkerPool>,
    ) -> Self {
        // Parent and workers must agree on the partition, so both derive it
        // from the *requested* shard count (see [`shard_count`] /
        // [`shard_range`]), never from the transport count.
        let plan = ChunkPlan::new(n, shards.max(1));
        let chunks = plan.chunks;
        Remote {
            n,
            plan,
            transports,
            round: Round::ZERO,
            frame_log: per_chunk(chunks),
            stashed: (0..chunks).map(|_| None).collect(),
            recovery: None,
            respawns_used: vec![0; chunks],
            fallback_active: vec![false; chunks],
            stats: RecoveryStats::default(),
            outputs: (0..n).map(|_| None).collect(),
            inbound: per_chunk(chunks),
            sends: per_chunk(chunks),
            victims: per_chunk(chunks),
            polled: (0..chunks)
                .map(|ci| plan.range(ci, n).map(|_| None).collect())
                .collect(),
            _pool: pool,
            _model: PhantomData,
        }
    }

    /// Sends one request to shard `ci`, retaining it in the frame log and
    /// entering the recovery ladder on failure.
    fn send_to(&mut self, ci: usize, request: &[u8]) -> SimResult<()> {
        let tag = request.get(2).copied();
        if self.recovery.is_some() {
            self.frame_log[ci].push(request.to_vec());
        }
        if let Err(err) = self.transports[ci].send(request) {
            // The request is already logged, so a successful replay leaves
            // its response stashed for the upcoming `transact`.
            self.recover(ci, tag, format!("sending request: {err}"))?;
        }
        Ok(())
    }

    /// Broadcasts this round's `Collect` request to every shard worker.
    fn broadcast_collect(&mut self, round: Round) -> SimResult<()> {
        self.round = round;
        let mut request = frame(REQ_COLLECT);
        round.encode(&mut request);
        for ci in 0..self.transports.len() {
            self.send_to(ci, &request)?;
        }
        Ok(())
    }

    /// Receives shard `ci`'s pending response, checks its tag, and decodes
    /// the payload with `parse`; any failure — transport error, bad frame,
    /// wrong tag, undecodable payload — enters the recovery ladder and the
    /// replayed response is tried again.
    fn transact<T>(
        &mut self,
        ci: usize,
        expected: u8,
        parse: impl Fn(&mut WireReader<'_>) -> Result<T, String>,
    ) -> SimResult<T> {
        loop {
            let response = match self.stashed[ci].take() {
                Some(replayed) => Ok(replayed),
                None => self.transports[ci].recv(),
            };
            let detail = match response {
                Ok(bytes) => match open_frame(&bytes) {
                    Ok((tag, mut r)) if tag == expected => match parse(&mut r) {
                        Ok(value) => return Ok(value),
                        Err(detail) => format!("response payload: {detail}"),
                    },
                    Ok((tag, _)) => format!("answered with tag {tag}, expected {expected}"),
                    Err(err) => format!("response frame: {err}"),
                },
                Err(err) => format!("receiving response: {err}"),
            };
            self.recover(ci, Some(expected), detail)?;
        }
    }

    /// Climbs the recovery ladder for shard `ci`: respawn (bounded, with
    /// backoff), then fallback (once), then the hard error.  On success the
    /// retained log has been replayed and the outstanding request's
    /// response, if any, is stashed.
    fn recover(&mut self, ci: usize, tag: Option<u8>, reason: String) -> SimResult<()> {
        let round = self.round.as_u64();
        let fail = move |detail: String| -> SimError {
            let mut err = ShardError::new(ci, detail).with_round(round);
            if let Some(tag) = tag {
                err = err.with_tag(tag);
            }
            SimError::Shard(err)
        };
        if self.fallback_active[ci] {
            return Err(fail(format!(
                "{reason} (already on the in-process fallback)"
            )));
        }
        let mut detail = reason;
        loop {
            let Some(recovery) = self.recovery.as_mut() else {
                return Err(fail(detail));
            };
            let attempt = self.respawns_used[ci];
            let via_fallback = attempt >= recovery.max_respawns;
            let transport = if via_fallback {
                let max_respawns = recovery.max_respawns;
                let Some(fallback) = recovery.fallback.as_mut() else {
                    return Err(fail(format!(
                        "{detail} (respawn budget {max_respawns} exhausted, no fallback)"
                    )));
                };
                match fallback(ci) {
                    Ok(transport) => transport,
                    Err(err) => {
                        return Err(fail(format!("starting the in-process fallback: {err}")));
                    }
                }
            } else {
                if attempt > 0 && !recovery.backoff.is_zero() {
                    // Exponential: immediate, base, 2*base, ... capped.
                    let factor = 1u32 << (attempt - 1).min(5);
                    std::thread::sleep(recovery.backoff * factor);
                }
                self.respawns_used[ci] += 1;
                match (recovery.respawn)(ci) {
                    Ok(transport) => transport,
                    Err(err) => {
                        detail = format!("respawning the shard worker: {err}");
                        continue;
                    }
                }
            };
            self.transports[ci] = transport;
            if via_fallback {
                self.fallback_active[ci] = true;
                self.stats.fallbacks += 1;
            } else {
                self.stats.respawns += 1;
            }
            match self.replay_log(ci) {
                Ok(()) => {
                    self.stats.replayed_frames += self.frame_log[ci].len() as u64;
                    self.stats.replayed_rounds += round;
                    return Ok(());
                }
                Err(err) => {
                    if via_fallback {
                        return Err(fail(format!(
                            "replay on the in-process fallback failed: {err}"
                        )));
                    }
                    detail = format!("replay after respawn: {err}");
                }
            }
        }
    }

    /// Replays every retained request to shard `ci`'s (fresh) transport in
    /// lock-step, discarding every response but the last, which is stashed
    /// for the outstanding request.
    fn replay_log(&mut self, ci: usize) -> io::Result<()> {
        self.stashed[ci] = None;
        let mut last_response = None;
        for request in &self.frame_log[ci] {
            self.transports[ci].send(request)?;
            last_response = Some(self.transports[ci].recv()?);
        }
        self.stashed[ci] = last_response;
        Ok(())
    }
}

impl<M: WireMsg, O: WireOutput, Md> Host for Remote<M, O, Md> {
    type Msg = M;
    type Output = O;
    type Error = SimError;

    fn chunks(&self) -> usize {
        self.transports.len()
    }

    /// Receives shard `ci`'s events, rejecting any for a node the shard
    /// does not own.
    fn replay_events(&mut self, ci: usize, event: &mut EventSink<'_, O>) -> SimResult<()> {
        let range = self.plan.range(ci, self.n);
        let events: Vec<WireEvent<O>> = self.transact(ci, RESP_EVENTS, |r| {
            let events: Vec<WireEvent<O>> =
                Vec::decode(r).map_err(|err| format!("events: {err}"))?;
            match events.iter().find(|event| !range.contains(&event.node)) {
                Some(stray) => Err(format!(
                    "an event for node {} outside {range:?}",
                    stray.node
                )),
                None => Ok(events),
            }
        })?;
        for WireEvent {
            node,
            halted,
            output,
        } in events
        {
            let decided = output.is_some();
            if decided {
                self.outputs[node] = output;
            }
            event(
                node,
                self.outputs[node].as_ref().filter(|_| decided),
                halted,
            );
        }
        Ok(())
    }

    fn outputs(&self) -> Vec<Option<O>> {
        self.outputs.clone()
    }

    /// Best-effort shutdown of every worker (errors ignored: a worker that
    /// already went away has nothing left to shut down).
    fn finish_run(&mut self) {
        let request = frame(REQ_SHUTDOWN);
        for transport in &mut self.transports {
            let _ = transport.send(&request);
        }
    }
}

/// One empty buffer per chunk.
fn per_chunk<T>(chunks: usize) -> Vec<Vec<T>> {
    (0..chunks).map(|_| Vec::new()).collect()
}

impl<M: WireMsg, O: WireOutput> MultiPortHost for Remote<M, O, MultiPort> {
    fn gather_intents(&mut self, round: Round, intents: &mut [Vec<NodeId>]) -> SimResult<()> {
        self.broadcast_collect(round)?;
        for ci in 0..self.transports.len() {
            let range = self.plan.range(ci, self.n);
            let len = range.len();
            let lists: Vec<Vec<NodeId>> = self.transact(ci, RESP_INTENTS, move |r| {
                let lists: Vec<Vec<NodeId>> =
                    Vec::decode(r).map_err(|err| format!("intents: {err}"))?;
                if lists.len() != len {
                    return Err(format!("{} intent lists for {len} nodes", lists.len()));
                }
                Ok(lists)
            })?;
            for (slot, list) in intents[range].iter_mut().zip(lists) {
                *slot = list;
            }
        }
        Ok(())
    }

    fn stage_delivery(
        &mut self,
        round: Round,
        crashes: Vec<(usize, DeliveryFilter)>,
    ) -> SimResult<()> {
        for ci in 0..self.transports.len() {
            let range = self.plan.range(ci, self.n);
            let crashed: Vec<(usize, DeliveryFilter)> = crashes
                .iter()
                .filter(|(node, _)| range.contains(node))
                .map(|(node, filter)| (node - range.start, filter.clone()))
                .collect();
            let mut request = frame(REQ_DELIVER);
            round.encode(&mut request);
            crashed.encode(&mut request);
            self.send_to(ci, &request)?;
        }
        Ok(())
    }

    fn take_staged(&mut self, ci: usize) -> SimResult<Staged<M>> {
        self.transact(ci, RESP_DELIVERED, |r| {
            let context = |err| format!("delivery: {err}");
            Ok(Staged {
                messages: u64::decode(r).map_err(context)?,
                bits: u64::decode(r).map_err(context)?,
                byzantine_messages: u64::decode(r).map_err(context)?,
                delivered: Vec::decode(r).map_err(context)?,
            })
        })
    }

    fn route(&mut self, dest: usize, msg: Delivered<M>) {
        let ci = self.plan.chunk_of(dest);
        self.inbound[ci].push((dest - ci * self.plan.chunk_len, msg));
    }

    fn receive_phase(&mut self, round: Round) -> SimResult<()> {
        for ci in 0..self.transports.len() {
            let mut request = frame(REQ_RECEIVE);
            round.encode(&mut request);
            self.inbound[ci].encode(&mut request);
            self.inbound[ci].clear();
            self.send_to(ci, &request)?;
        }
        Ok(())
    }
}

impl<M: WireMsg, O: WireOutput> SinglePortHost for Remote<M, O, SinglePort> {
    fn gather_sends(
        &mut self,
        round: Round,
        intents: &mut [Vec<NodeId>],
        polls: &mut [Option<NodeId>],
    ) -> SimResult<()> {
        self.broadcast_collect(round)?;
        for ci in 0..self.transports.len() {
            let range = self.plan.range(ci, self.n);
            let len = range.len();
            let (sends, chunk_polls) = self.transact(ci, RESP_SP_INTENTS, move |r| {
                let context = |err| format!("intents: {err}");
                let sends: Vec<Option<Outgoing<M>>> = Vec::decode(r).map_err(context)?;
                let polls: Vec<Option<NodeId>> = Vec::decode(r).map_err(context)?;
                if sends.len() != len || polls.len() != len {
                    let (s, p) = (sends.len(), polls.len());
                    return Err(format!("{s}/{p} send/poll slots for {len} nodes"));
                }
                Ok((sends, polls))
            })?;
            for (node, send) in range.clone().zip(&sends) {
                intents[node].clear();
                intents[node].extend(send.iter().map(|o| o.to));
            }
            polls[range].copy_from_slice(&chunk_polls);
            self.sends[ci] = sends;
        }
        Ok(())
    }

    fn receive_phase(&mut self, round: Round) -> SimResult<()> {
        for ci in 0..self.transports.len() {
            let mut request = frame(REQ_SP_RECEIVE);
            round.encode(&mut request);
            self.victims[ci].encode(&mut request);
            self.polled[ci].encode(&mut request);
            self.victims[ci].clear();
            self.polled[ci].fill(None);
            self.send_to(ci, &request)?;
        }
        Ok(())
    }

    fn mirror_crashes(&mut self, _round: Round, victims: &[usize]) {
        for &node in victims {
            let ci = self.plan.chunk_of(node);
            self.victims[ci].push(node - ci * self.plan.chunk_len);
        }
    }

    fn send_slots(&mut self, ci: usize) -> (usize, &mut [Option<Outgoing<M>>]) {
        (ci * self.plan.chunk_len, &mut self.sends[ci])
    }

    fn poll_slots(&mut self, ci: usize) -> (usize, &mut [Option<Vec<M>>]) {
        (ci * self.plan.chunk_len, &mut self.polled[ci])
    }
}

/// Serves `nodes` in-process: one [`WorkerPool`] job per chunk of
/// `shard_count(n, shards)`, each running `serve` behind a
/// [`ChannelTransport`].
fn serve_in_process<N: Send + 'static>(
    nodes: Vec<N>,
    shards: usize,
    serve: fn(Vec<N>, usize, &mut dyn ShardTransport) -> io::Result<()>,
) -> (Vec<Box<dyn ShardTransport>>, WorkerPool) {
    let n = nodes.len();
    let plan = ChunkPlan::new(n, shards.max(1));
    let pool = WorkerPool::new(plan.chunks);
    let mut nodes = nodes.into_iter();
    let transports = (0..plan.chunks)
        .map(|ci| {
            let range = plan.range(ci, n);
            let chunk: Vec<N> = nodes.by_ref().take(range.len()).collect();
            let (parent_end, mut worker_end) = ChannelTransport::pair();
            pool.submit(
                ci,
                Box::new(move || {
                    serve(chunk, range.start, &mut worker_end)
                        .expect("in-process shard worker failed");
                }),
            );
            Box::new(parent_end) as Box<dyn ShardTransport>
        })
        .collect();
    (transports, pool)
}

/// Coordinates one **multi-port** execution whose chunks live behind shard
/// transports: the [`Engine`] paired with a [`Remote`] host.
///
/// Use [`ShardedRunner::in_process`] to serve the chunks on this process's
/// own worker pool, or [`ShardedRunner::connect`] with transports to
/// external workers (see `run_experiments --shard-worker`).
pub type ShardedRunner<M, O> = Engine<Remote<M, O, MultiPort>>;

/// Coordinates one **single-port** execution whose chunks live behind shard
/// transports: the [`Engine`] paired with a [`Remote`] host.  The sparse
/// port map and every mutation of it stay in the parent's engine.
pub type SpShardedRunner<M, O> = Engine<Remote<M, O, SinglePort>>;

impl<M: WireMsg, O: WireOutput, Md> Engine<Remote<M, O, Md>> {
    /// The engine over `host`'s nodes, checking that it has one transport
    /// per chunk of the partition.
    fn sharded(
        host: Remote<M, O, Md>,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
        byzantine: NodeSet,
        execute: fn(&mut Self) -> SimResult<()>,
    ) -> SimResult<Self> {
        let n = host.n;
        let engine = Engine::with_host(n, adversary, fault_budget, byzantine, host, execute)?;
        let (chunks, transports) = (engine.host.plan.chunks, engine.host.transports.len());
        if chunks != transports {
            return Err(SimError::InvalidConfig(format!(
                "{transports} shard transports for a partition of {chunks} chunks \
                 (see shard_count)"
            )));
        }
        Ok(engine)
    }

    /// Arms worker-failure recovery: from now on every request frame is
    /// retained and a failing shard transport climbs the
    /// respawn → fallback → error ladder instead of aborting the run.
    pub fn set_recovery(&mut self, recovery: Recovery) -> &mut Self {
        self.host.recovery = Some(recovery);
        self
    }

    /// What the recovery ladder did so far.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.host.stats
    }

    /// Runs the sharded execution until every non-faulty node has halted or
    /// `max_rounds` rounds have been executed, shuts the workers down, and
    /// returns the execution report.
    ///
    /// Single-shot: the workers are gone afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Shard`] when a worker dies or answers with a
    /// malformed frame mid-execution and recovery cannot mend it.
    pub fn run(&mut self, max_rounds: u64) -> SimResult<ExecutionReport<O>> {
        self.try_run(max_rounds)
    }
}

impl<M: WireMsg, O: WireOutput> ShardedRunner<M, O> {
    /// Connects a coordinator over `n` nodes to already-serving shard
    /// workers (one transport per chunk of `shard_count(n, shards)`).
    ///
    /// `byzantine` names the Byzantine participants the workers were built
    /// with (empty for honest-only executions) — the coordinator needs it
    /// for message accounting and the final report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySystem`] for zero nodes,
    /// [`SimError::InvalidConfig`] when the fault budget or transport count
    /// is inconsistent with `n`.
    pub fn connect(
        n: usize,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
        byzantine: NodeSet,
        shards: usize,
        transports: Vec<Box<dyn ShardTransport>>,
    ) -> SimResult<Self> {
        let host = Remote::new(n, shards, transports, None);
        Self::sharded(
            host,
            adversary,
            fault_budget,
            byzantine,
            Self::multi_port_round,
        )
    }

    /// Spawns an in-process sharded execution: the participants are split
    /// into `shard_count(n, shards)` chunks, each served by a job on a
    /// fresh [`WorkerPool`] behind a [`ChannelTransport`] — the same wire
    /// protocol the worker-process backend speaks, without the processes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySystem`] if `participants` is empty, or
    /// [`SimError::InvalidConfig`] if the budget is not smaller than the
    /// number of nodes.
    pub fn in_process<P>(
        participants: Vec<Participant<P>>,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
        shards: usize,
    ) -> SimResult<Self>
    where
        P: SyncProtocol<Msg = M, Output = O>,
    {
        let n = participants.len();
        let byzantine = byzantine_set(&participants);
        let (transports, pool) = serve_in_process(participants, shards, serve_multi_port::<P>);
        let host = Remote::new(n, shards, transports, Some(pool));
        Self::sharded(
            host,
            adversary,
            fault_budget,
            byzantine,
            Self::multi_port_round,
        )
    }
}

impl<M: WireMsg, O: WireOutput> SpShardedRunner<M, O> {
    /// Connects a coordinator over `n` nodes to already-serving single-port
    /// shard workers (one transport per chunk of `shard_count(n, shards)`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySystem`] for zero nodes,
    /// [`SimError::InvalidConfig`] when the fault budget or transport count
    /// is inconsistent with `n`.
    pub fn connect(
        n: usize,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
        shards: usize,
        transports: Vec<Box<dyn ShardTransport>>,
    ) -> SimResult<Self> {
        let host = Remote::new(n, shards, transports, None);
        Self::sharded(
            host,
            adversary,
            fault_budget,
            NodeSet::empty(n),
            Self::single_port_round,
        )
    }

    /// Spawns an in-process sharded single-port execution (see
    /// [`ShardedRunner::in_process`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySystem`] if `nodes` is empty, or
    /// [`SimError::InvalidConfig`] if the budget is not smaller than the
    /// number of nodes.
    pub fn in_process<P>(
        nodes: Vec<P>,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
        shards: usize,
    ) -> SimResult<Self>
    where
        P: SinglePortProtocol<Msg = M, Output = O>,
    {
        let n = nodes.len();
        let (transports, pool) = serve_in_process(nodes, shards, serve_single_port::<P>);
        let host = Remote::new(n, shards, transports, Some(pool));
        Self::sharded(
            host,
            adversary,
            fault_budget,
            NodeSet::empty(n),
            Self::single_port_round,
        )
    }
}

#[cfg(test)]
mod tests;
