//! Shard-layer tests: the sharded coordinators must be byte-identical to
//! the serial runners, over both transport backends.

use std::io::{self, Read, Write};
use std::sync::mpsc::{Receiver, Sender};

use super::*;
use crate::adversary::byzantine::FloodByzantine;
use crate::adversary::{CrashDirective, FixedCrashSchedule, NoFaults};
use crate::runner::Runner;
use crate::single_port::SinglePortRunner;

/// Every node floods the OR of everything seen; decides after 3 receives.
struct FloodOr {
    n: usize,
    value: bool,
    rounds: u64,
    decided: Option<bool>,
}

impl FloodOr {
    fn nodes(n: usize, one_at: usize) -> Vec<FloodOr> {
        (0..n)
            .map(|i| FloodOr {
                n,
                value: i == one_at,
                rounds: 0,
                decided: None,
            })
            .collect()
    }
}

impl SyncProtocol for FloodOr {
    type Msg = bool;
    type Output = bool;

    fn send(&mut self, _round: Round, out: &mut Vec<Outgoing<bool>>) {
        out.extend((0..self.n).map(|i| Outgoing::new(NodeId::new(i), self.value)));
    }

    fn receive(&mut self, _round: Round, inbox: &[Delivered<bool>]) {
        for m in inbox {
            self.value |= m.msg;
        }
        self.rounds += 1;
        if self.rounds >= 3 {
            self.decided = Some(self.value);
        }
    }

    fn output(&self) -> Option<bool> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        self.decided.is_some()
    }
}

/// Ring for the single-port model: node `i` sends its OR to `i + 1`, polls
/// `i − 1`, decides after `2n` receives.
struct Ring {
    me: usize,
    n: usize,
    value: bool,
    rounds: u64,
    decided: Option<bool>,
}

impl Ring {
    fn nodes(n: usize, one_at: usize) -> Vec<Ring> {
        (0..n)
            .map(|me| Ring {
                me,
                n,
                value: me == one_at,
                rounds: 0,
                decided: None,
            })
            .collect()
    }
}

impl SinglePortProtocol for Ring {
    type Msg = bool;
    type Output = bool;

    fn send(&mut self, _round: Round) -> Option<Outgoing<bool>> {
        Some(Outgoing::new(
            NodeId::new((self.me + 1) % self.n),
            self.value,
        ))
    }

    fn poll(&mut self, _round: Round) -> Option<NodeId> {
        Some(NodeId::new((self.me + self.n - 1) % self.n))
    }

    fn receive(&mut self, _round: Round, _from: NodeId, msgs: &mut Vec<bool>) {
        for m in msgs.drain(..) {
            self.value |= m;
        }
        self.rounds += 1;
        if self.rounds >= 2 * self.n as u64 {
            self.decided = Some(self.value);
        }
    }

    fn output(&self) -> Option<bool> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        self.decided.is_some()
    }
}

fn crash_schedule(n: usize) -> FixedCrashSchedule {
    FixedCrashSchedule::new()
        .crash_at(0, CrashDirective::silent(NodeId::new(1)))
        .crash_at(
            1,
            CrashDirective {
                node: NodeId::new(n / 2),
                deliver: DeliveryFilter::Prefix(3),
            },
        )
        .crash_at(2, CrashDirective::after_send(NodeId::new(n - 1)))
}

#[test]
fn shard_partition_helpers_tile_the_node_range() {
    for n in [1usize, 2, 9, 64, 100] {
        for shards in [1usize, 2, 3, 8] {
            let count = shard_count(n, shards);
            assert!(count >= 1 && count <= shards.max(1));
            let mut covered = 0;
            for index in 0..count {
                let range = shard_range(n, shards, index);
                assert_eq!(range.start, covered, "contiguous n={n} shards={shards}");
                assert!(!range.is_empty());
                covered = range.end;
            }
            assert_eq!(covered, n);
        }
    }
}

#[test]
fn multi_port_sharded_transcript_matches_serial() {
    let n = 24;
    let serial = {
        let mut runner =
            Runner::with_adversary(FloodOr::nodes(n, 3), Box::new(crash_schedule(n)), 3).unwrap();
        runner.enable_trace();
        let report = runner.run(10);
        (report, runner.trace().events().to_vec())
    };
    for shards in [1usize, 2, 3, 5] {
        let participants = FloodOr::nodes(n, 3)
            .into_iter()
            .map(Participant::Honest)
            .collect();
        let mut sharded = ShardedRunner::<bool, bool>::in_process(
            participants,
            Box::new(crash_schedule(n)),
            3,
            shards,
        )
        .unwrap();
        sharded.enable_trace();
        let report = sharded.run(10).expect("sharded run");
        assert_eq!(serial.0, report, "report with shards={shards}");
        assert_eq!(
            serial.1,
            sharded.trace().events().to_vec(),
            "trace with shards={shards}"
        );
    }
    assert_eq!(serial.0.metrics.crashes, 3);
    assert!(serial.0.all_non_faulty_decided());
}

#[test]
fn multi_port_sharded_matches_serial_with_byzantine_nodes() {
    let n = 12;
    let build = || {
        let mut participants: Vec<Participant<FloodOr>> = FloodOr::nodes(n, 1)
            .into_iter()
            .skip(1)
            .map(Participant::Honest)
            .collect();
        participants.insert(
            0,
            Participant::Byzantine(Box::new(FloodByzantine::<bool>::new(n))),
        );
        participants
    };
    let serial = {
        let mut runner = Runner::with_participants(build(), Box::new(NoFaults), 0).unwrap();
        runner.run(10)
    };
    let mut sharded =
        ShardedRunner::<bool, bool>::in_process(build(), Box::new(NoFaults), 0, 3).unwrap();
    let report = sharded.run(10).expect("sharded run");
    assert_eq!(serial, report);
    assert!(report.byzantine.contains(NodeId::new(0)));
    assert!(report.metrics.byzantine_messages > 0);
}

#[test]
fn single_port_sharded_transcript_matches_serial() {
    let n = 16;
    let serial = {
        let mut runner =
            SinglePortRunner::with_adversary(Ring::nodes(n, 0), Box::new(crash_schedule(n)), 3)
                .unwrap();
        runner.enable_trace();
        let report = runner.run(3 * n as u64);
        (
            report,
            runner.trace().events().to_vec(),
            runner.buffered_messages(),
            runner.ports_in_use(),
        )
    };
    for shards in [2usize, 4] {
        let mut sharded = SpShardedRunner::<bool, bool>::in_process(
            Ring::nodes(n, 0),
            Box::new(crash_schedule(n)),
            3,
            shards,
        )
        .unwrap();
        sharded.enable_trace();
        let report = sharded.run(3 * n as u64).expect("sharded run");
        assert_eq!(serial.0, report, "report with shards={shards}");
        assert_eq!(
            serial.1,
            sharded.trace().events().to_vec(),
            "trace with shards={shards}"
        );
        assert_eq!(
            serial.2,
            sharded.buffered_messages(),
            "buffered with shards={shards}"
        );
        assert_eq!(
            serial.3,
            sharded.ports_in_use(),
            "ports with shards={shards}"
        );
    }
    assert_eq!(serial.0.metrics.crashes, 3);
}

#[test]
fn coordinator_rejects_mismatched_transport_count() {
    let (a, _b) = ChannelTransport::pair();
    let err = ShardedRunner::<bool, bool>::connect(
        10,
        Box::new(NoFaults),
        0,
        NodeSet::empty(10),
        2,
        vec![Box::new(a)],
    )
    .unwrap_err();
    assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
}

#[test]
fn coordinator_rejects_empty_and_overbudget_systems() {
    assert!(matches!(
        ShardedRunner::<bool, bool>::connect(
            0,
            Box::new(NoFaults),
            0,
            NodeSet::empty(0),
            1,
            Vec::new()
        ),
        Err(SimError::EmptySystem)
    ));
    let (a, _b) = ChannelTransport::pair();
    assert!(matches!(
        SpShardedRunner::<bool, bool>::connect(3, Box::new(NoFaults), 3, 1, vec![Box::new(a)]),
        Err(SimError::InvalidConfig(_))
    ));
}

#[test]
fn dead_worker_surfaces_as_shard_error_not_a_hang() {
    let (parent, worker) = ChannelTransport::pair();
    drop(worker); // the "worker process" died before round 0
    let mut sharded = ShardedRunner::<bool, bool>::connect(
        4,
        Box::new(NoFaults),
        0,
        NodeSet::empty(4),
        1,
        vec![Box::new(parent)],
    )
    .unwrap();
    let err = sharded.run(5).unwrap_err();
    assert!(matches!(err, SimError::Shard(_)), "{err}");
}

/// A `Read`/`Write` pair over byte channels, so the stream transport can be
/// exercised end-to-end without OS pipes.
struct ChannelStream {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    pending: Vec<u8>,
}

impl ChannelStream {
    fn pair() -> (ChannelStream, ChannelStream) {
        let (a_tx, b_rx) = std::sync::mpsc::channel();
        let (b_tx, a_rx) = std::sync::mpsc::channel();
        (
            ChannelStream {
                tx: a_tx,
                rx: a_rx,
                pending: Vec::new(),
            },
            ChannelStream {
                tx: b_tx,
                rx: b_rx,
                pending: Vec::new(),
            },
        )
    }
}

impl Read for ChannelStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pending.is_empty() {
            match self.rx.recv() {
                Ok(bytes) => self.pending = bytes,
                Err(_) => return Ok(0), // EOF
            }
        }
        let len = buf.len().min(self.pending.len());
        buf[..len].copy_from_slice(&self.pending[..len]);
        self.pending.drain(..len);
        Ok(len)
    }
}

impl Write for ChannelStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx
            .send(buf.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// End-to-end over the *stream* backend: a worker thread serving its chunk
/// through length-prefixed frames (the same path `--shard-worker` pipes
/// use) produces a transcript identical to the serial runner.
#[test]
fn stream_backend_matches_serial() {
    let n = 10;
    let shards = 2;
    let serial = {
        let mut runner =
            Runner::with_adversary(FloodOr::nodes(n, 2), Box::new(crash_schedule(n)), 3).unwrap();
        runner.run(10)
    };

    let mut transports: Vec<Box<dyn ShardTransport>> = Vec::new();
    let mut handles = Vec::new();
    let mut all_nodes = FloodOr::nodes(n, 2).into_iter();
    for index in 0..shard_count(n, shards) {
        let range = shard_range(n, shards, index);
        let chunk: Vec<Participant<FloodOr>> = all_nodes
            .by_ref()
            .take(range.len())
            .map(Participant::Honest)
            .collect();
        // One simplex stream per direction: the parent writes into the
        // first pair, the worker into the second.
        let (parent_to_worker_w, parent_to_worker_r) = ChannelStream::pair();
        let (worker_to_parent_w, worker_to_parent_r) = ChannelStream::pair();
        let base = range.start;
        handles.push(std::thread::spawn(move || {
            let mut transport = StreamTransport::new(parent_to_worker_r, worker_to_parent_w);
            serve_multi_port(chunk, base, &mut transport).expect("stream worker");
        }));
        transports.push(Box::new(StreamTransport::new(
            worker_to_parent_r,
            parent_to_worker_w,
        )));
    }
    let mut sharded = ShardedRunner::<bool, bool>::connect(
        n,
        Box::new(crash_schedule(n)),
        3,
        NodeSet::empty(n),
        shards,
        transports,
    )
    .unwrap();
    let report = sharded.run(10).expect("sharded run");
    assert_eq!(serial, report);
    for handle in handles {
        handle.join().expect("worker thread");
    }
}

// ---------------------------------------------------------------------------
// Worker-failure recovery
// ---------------------------------------------------------------------------

/// Spawns a fresh serving thread for multi-port shard `index`, rebuilding
/// its chunk deterministically — exactly what a respawned `--shard-worker`
/// process does from the handshake.  A replaced worker sees EOF when the
/// parent drops its old transport end and exits cleanly.
fn flood_or_worker(n: usize, shards: usize, index: usize) -> Box<dyn ShardTransport> {
    let range = shard_range(n, shards, index);
    let chunk: Vec<Participant<FloodOr>> = FloodOr::nodes(n, 2)
        .into_iter()
        .skip(range.start)
        .take(range.len())
        .map(Participant::Honest)
        .collect();
    let (parent_end, mut worker_end) = ChannelTransport::pair();
    let base = range.start;
    std::thread::spawn(move || {
        let _ = serve_multi_port(chunk, base, &mut worker_end);
    });
    Box::new(parent_end)
}

/// Same, for single-port `Ring` chunks.
fn ring_worker(n: usize, shards: usize, index: usize) -> Box<dyn ShardTransport> {
    let range = shard_range(n, shards, index);
    let chunk: Vec<Ring> = Ring::nodes(n, 0)
        .into_iter()
        .skip(range.start)
        .take(range.len())
        .collect();
    let (parent_end, mut worker_end) = ChannelTransport::pair();
    let base = range.start;
    std::thread::spawn(move || {
        let _ = serve_single_port(chunk, base, &mut worker_end);
    });
    Box::new(parent_end)
}

fn flood_or_serial(n: usize) -> ExecutionReport<bool> {
    let mut runner =
        Runner::with_adversary(FloodOr::nodes(n, 2), Box::new(crash_schedule(n)), 3).unwrap();
    runner.run(10)
}

/// Builds a faulted sharded FloodOr run with a recovery ladder whose
/// respawn factory rebuilds workers (wrapped by the same armed plan, so a
/// recovered fault must not re-fire).
fn faulted_flood_or(
    n: usize,
    shards: usize,
    plan: &FaultPlan,
    max_respawns: u32,
    with_fallback: bool,
) -> ShardedRunner<bool, bool> {
    let armed = plan.arm();
    let transports: Vec<Box<dyn ShardTransport>> = (0..shard_count(n, shards))
        .map(|index| armed.wrap(index, flood_or_worker(n, shards, index)))
        .collect();
    let mut sharded = ShardedRunner::<bool, bool>::connect(
        n,
        Box::new(crash_schedule(n)),
        3,
        NodeSet::empty(n),
        shards,
        transports,
    )
    .unwrap();
    let respawn_armed = armed.clone();
    let mut recovery = Recovery::new(
        max_respawns,
        Box::new(move |index| Ok(respawn_armed.wrap(index, flood_or_worker(n, shards, index)))),
    )
    .with_backoff(Duration::ZERO);
    if with_fallback {
        recovery =
            recovery.with_fallback(Box::new(move |index| Ok(flood_or_worker(n, shards, index))));
    }
    sharded.set_recovery(recovery);
    sharded
}

#[test]
fn killed_worker_is_respawned_and_replayed_byte_identically() {
    let n = 10;
    let shards = 2;
    let serial = flood_or_serial(n);
    let plan = FaultPlan::parse("kill:1@4").unwrap();
    let mut sharded = faulted_flood_or(n, shards, &plan, 2, false);
    let report = sharded.run(10).expect("recovered run");
    assert_eq!(serial, report);
    let stats = sharded.recovery_stats();
    assert_eq!(stats.respawns, 1, "{stats:?}");
    assert_eq!(stats.fallbacks, 0, "{stats:?}");
    assert!(stats.replayed_frames > 0, "{stats:?}");
    assert!(stats.any());
}

#[test]
fn killing_any_frame_of_any_shard_recovers_byte_identically() {
    let n = 10;
    let shards = 2;
    let serial = flood_or_serial(n);
    // The full run exchanges ~12 response frames per shard; sweep past the
    // end so the no-fire (fault never reached) edge is covered too.
    for shard in 0..shard_count(n, shards) {
        for frame in 0..14 {
            let plan = FaultPlan::parse(&format!("kill:{shard}@{frame}")).unwrap();
            let mut sharded = faulted_flood_or(n, shards, &plan, 2, false);
            let report = sharded
                .run(10)
                .unwrap_or_else(|err| panic!("kill:{shard}@{frame}: {err}"));
            assert_eq!(serial, report, "kill:{shard}@{frame}");
        }
    }
}

#[test]
fn torn_and_garbage_frames_trigger_respawn_and_stay_identical() {
    let n = 10;
    let shards = 2;
    let serial = flood_or_serial(n);
    let plan = FaultPlan::parse("torn:0@2,garbage:1@5").unwrap();
    let mut sharded = faulted_flood_or(n, shards, &plan, 2, false);
    let report = sharded.run(10).expect("recovered run");
    assert_eq!(serial, report);
    let stats = sharded.recovery_stats();
    assert_eq!(
        stats.respawns, 2,
        "one respawn per corrupted shard: {stats:?}"
    );
}

#[test]
fn dead_transport_on_send_recovers_through_the_same_ladder() {
    let n = 10;
    let shards = 2;
    let serial = flood_or_serial(n);
    // Shard 0's initial transport is already dead: the very first broadcast
    // send fails, exercising the send-side entry into recovery.
    let (dead, gone) = ChannelTransport::pair();
    drop(gone);
    let transports: Vec<Box<dyn ShardTransport>> =
        vec![Box::new(dead), flood_or_worker(n, shards, 1)];
    let mut sharded = ShardedRunner::<bool, bool>::connect(
        n,
        Box::new(crash_schedule(n)),
        3,
        NodeSet::empty(n),
        shards,
        transports,
    )
    .unwrap();
    sharded.set_recovery(
        Recovery::new(
            1,
            Box::new(move |index| Ok(flood_or_worker(n, shards, index))),
        )
        .with_backoff(Duration::ZERO),
    );
    let report = sharded.run(10).expect("recovered run");
    assert_eq!(serial, report);
    assert_eq!(sharded.recovery_stats().respawns, 1);
}

#[test]
fn exhausted_respawns_degrade_to_the_fallback() {
    let n = 10;
    let shards = 2;
    let serial = flood_or_serial(n);
    let plan = FaultPlan::parse("kill:0@3").unwrap();
    // max_respawns = 0: the first failure goes straight to the fallback —
    // the `--max-worker-respawns 0` degradation path.
    let mut sharded = faulted_flood_or(n, shards, &plan, 0, true);
    let report = sharded.run(10).expect("fallback run");
    assert_eq!(serial, report);
    let stats = sharded.recovery_stats();
    assert_eq!(stats.respawns, 0, "{stats:?}");
    assert_eq!(stats.fallbacks, 1, "{stats:?}");
}

#[test]
fn exhausted_ladder_is_a_hard_structured_error() {
    let n = 10;
    let shards = 2;
    let plan = FaultPlan::parse("kill:0@0").unwrap();
    let mut sharded = faulted_flood_or(n, shards, &plan, 0, false);
    let err = sharded.run(10).unwrap_err();
    let SimError::Shard(shard_err) = err else {
        panic!("expected a shard error, got {err}");
    };
    assert_eq!(shard_err.shard, 0);
    assert_eq!(shard_err.frame_tag, Some(RESP_INTENTS));
    assert_eq!(shard_err.round, Some(0));
    assert!(
        shard_err.detail.contains("no fallback"),
        "detail names the exhausted ladder: {}",
        shard_err.detail
    );
}

#[test]
fn stalled_worker_trips_the_read_deadline_and_recovers() {
    let n = 10;
    let shards = 2;
    let serial = flood_or_serial(n);
    let armed = FaultPlan::parse("stall:0@1").unwrap().arm();

    // A worker behind a DeadlineTransport over byte streams — the stack the
    // process backend runs — with the stall fault layered on top.
    fn deadline_worker(n: usize, shards: usize, index: usize) -> Box<dyn ShardTransport> {
        let range = shard_range(n, shards, index);
        let chunk: Vec<Participant<FloodOr>> = FloodOr::nodes(n, 2)
            .into_iter()
            .skip(range.start)
            .take(range.len())
            .map(Participant::Honest)
            .collect();
        let (parent_to_worker_w, parent_to_worker_r) = ChannelStream::pair();
        let (worker_to_parent_w, worker_to_parent_r) = ChannelStream::pair();
        let base = range.start;
        std::thread::spawn(move || {
            let mut transport = StreamTransport::new(parent_to_worker_r, worker_to_parent_w);
            let _ = serve_multi_port(chunk, base, &mut transport);
        });
        Box::new(DeadlineTransport::new(
            worker_to_parent_r,
            parent_to_worker_w,
            Duration::from_millis(150),
        ))
    }

    let transports: Vec<Box<dyn ShardTransport>> = (0..shard_count(n, shards))
        .map(|index| armed.wrap(index, deadline_worker(n, shards, index)))
        .collect();
    let mut sharded = ShardedRunner::<bool, bool>::connect(
        n,
        Box::new(crash_schedule(n)),
        3,
        NodeSet::empty(n),
        shards,
        transports,
    )
    .unwrap();
    let respawn_armed = armed.clone();
    sharded.set_recovery(
        Recovery::new(
            2,
            Box::new(move |index| Ok(respawn_armed.wrap(index, deadline_worker(n, shards, index)))),
        )
        .with_backoff(Duration::ZERO),
    );
    let report = sharded.run(10).expect("recovered run");
    assert_eq!(serial, report);
    assert_eq!(sharded.recovery_stats().respawns, 1);
}

#[test]
fn single_port_killed_worker_recovers_byte_identically() {
    let n = 8;
    let shards = 2;
    let serial = {
        let mut runner =
            SinglePortRunner::with_adversary(Ring::nodes(n, 0), Box::new(crash_schedule(n)), 3)
                .unwrap();
        runner.run(3 * n as u64)
    };
    let armed = FaultPlan::parse("kill:1@6").unwrap().arm();
    let transports: Vec<Box<dyn ShardTransport>> = (0..shard_count(n, shards))
        .map(|index| armed.wrap(index, ring_worker(n, shards, index)))
        .collect();
    let mut sharded = SpShardedRunner::<bool, bool>::connect(
        n,
        Box::new(crash_schedule(n)),
        3,
        shards,
        transports,
    )
    .unwrap();
    let respawn_armed = armed.clone();
    sharded.set_recovery(
        Recovery::new(
            2,
            Box::new(move |index| Ok(respawn_armed.wrap(index, ring_worker(n, shards, index)))),
        )
        .with_backoff(Duration::ZERO),
    );
    let report = sharded.run(3 * n as u64).expect("recovered run");
    assert_eq!(serial, report);
    assert_eq!(sharded.recovery_stats().respawns, 1);
}

#[test]
fn wire_event_round_trips() {
    let decided = WireEvent::<u64> {
        node: 17,
        halted: false,
        output: Some(42),
    };
    let halted = WireEvent::<u64> {
        node: 3,
        halted: true,
        output: None,
    };
    for event in [decided, halted] {
        let decoded: WireEvent<u64> = from_bytes(&to_bytes(&event)).expect("WireEvent round trip");
        assert_eq!(decoded.node, event.node);
        assert_eq!(decoded.halted, event.halted);
        assert_eq!(decoded.output, event.output);
        assert_eq!(
            decode_error_path_violations(&event),
            Vec::<usize>::new(),
            "every truncated or oversized WireEvent frame must fail to decode"
        );
    }
}

// ---------------------------------------------------------------------------
// Malformed frames
// ---------------------------------------------------------------------------

/// Feeds one hand-built request to a real serve loop over a channel
/// transport and returns the error it must answer with.  The parent end is
/// dropped first, so a loop that wrongly accepted the frame fails on its
/// response with a different error kind instead of hanging.
fn reject(request: Vec<u8>, serve: impl FnOnce(&mut ChannelTransport) -> io::Result<()>) {
    let (mut parent, mut worker) = ChannelTransport::pair();
    parent.send(&request).expect("queue the request");
    drop(parent);
    let err = serve(&mut worker).expect_err("a malformed frame must be rejected");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
}

/// A request frame of `tag` for round 0, ready for its payload.
fn request(tag: u8) -> Vec<u8> {
    let mut out = frame(tag);
    Round::ZERO.encode(&mut out);
    out
}

fn flood_chunk() -> Vec<Participant<FloodOr>> {
    FloodOr::nodes(4, 0)
        .into_iter()
        .map(Participant::Honest)
        .collect()
}

#[test]
fn deliver_frame_crashing_a_node_outside_the_chunk_is_rejected() {
    let mut frame = request(REQ_DELIVER);
    vec![(4usize, DeliveryFilter::All)].encode(&mut frame);
    reject(frame, |t| serve_multi_port(flood_chunk(), 0, t));
}

#[test]
fn receive_frame_for_a_node_outside_the_chunk_is_rejected() {
    let mut frame = request(REQ_RECEIVE);
    vec![(7usize, Delivered::new(NodeId::new(0), true))].encode(&mut frame);
    reject(frame, |t| serve_multi_port(flood_chunk(), 0, t));
}

#[test]
fn sp_receive_frame_crashing_a_node_outside_the_chunk_is_rejected() {
    let mut frame = request(REQ_SP_RECEIVE);
    vec![9usize].encode(&mut frame);
    vec![None::<Vec<bool>>; 4].encode(&mut frame);
    reject(frame, |t| serve_single_port(Ring::nodes(4, 0), 0, t));
}

#[test]
fn sp_receive_frame_with_too_few_poll_results_is_rejected() {
    let mut frame = request(REQ_SP_RECEIVE);
    Vec::<usize>::new().encode(&mut frame);
    vec![None::<Vec<bool>>; 2].encode(&mut frame);
    reject(frame, |t| serve_single_port(Ring::nodes(4, 0), 0, t));
}

/// A shard-0 worker that answers every phase well-formed but reports a
/// decision for node 3, which shard 1 owns.
fn stray_event_worker() -> Box<dyn ShardTransport> {
    let (parent_end, mut worker) = ChannelTransport::pair();
    std::thread::spawn(move || {
        while let Ok(request) = worker.recv() {
            let Ok((tag, _)) = open_frame(&request) else {
                break;
            };
            let response = match tag {
                REQ_COLLECT => {
                    let mut resp = frame(RESP_INTENTS);
                    vec![Vec::<NodeId>::new(); 2].encode(&mut resp);
                    resp
                }
                REQ_DELIVER => {
                    let mut resp = frame(RESP_DELIVERED);
                    (0u64, 0u64, 0u64).encode(&mut resp);
                    Vec::<(usize, Delivered<bool>)>::new().encode(&mut resp);
                    resp
                }
                REQ_RECEIVE => {
                    let mut resp = frame(RESP_EVENTS);
                    let stray = WireEvent {
                        node: 3,
                        halted: true,
                        output: Some(true),
                    };
                    vec![stray].encode(&mut resp);
                    resp
                }
                _ => break,
            };
            if worker.send(&response).is_err() {
                break;
            }
        }
    });
    Box::new(parent_end)
}

#[test]
fn worker_event_for_a_node_outside_its_shard_is_a_shard_error() {
    let (n, shards) = (4, 2);
    let transports = vec![stray_event_worker(), flood_or_worker(n, shards, 1)];
    let mut sharded = ShardedRunner::<bool, bool>::connect(
        n,
        Box::new(NoFaults),
        0,
        NodeSet::empty(n),
        shards,
        transports,
    )
    .unwrap();
    let err = sharded.run(5).unwrap_err();
    let SimError::Shard(shard_err) = err else {
        panic!("expected a shard error, got {err}");
    };
    assert_eq!(shard_err.shard, 0);
    assert_eq!(shard_err.frame_tag, Some(RESP_EVENTS));
    assert!(shard_err.detail.contains("node 3"), "{}", shard_err.detail);
}
