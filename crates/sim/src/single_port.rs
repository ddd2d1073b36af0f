//! The single-port model (Section 8 of the paper): its round loop and
//! [`SinglePortRunner`], the in-process engine that runs it.
//!
//! In the single-port model a node may choose only one other node to send a
//! message to in a round, and may retrieve buffered messages from only one of
//! its in-ports per round.  A node gets no signal that a port holds pending
//! messages; it must decide which port to poll blindly.  Messages sent to a
//! port are buffered until polled.
//!
//! The per-node bodies are the sans-I/O [`SinglePortCore`] of
//! [`crate::driver`].  Port buffers are shared, order-sensitive state, so
//! they live in the engine, not in the chunks: [`Engine::single_port_round`]
//! enqueues in sender order, pre-drains polled ports in poller order and
//! frees crashed and halted destinations, whichever host carries the
//! chunks.  The buffers are a sparse `PortMap` rather than a dense `n × n`
//! queue matrix, so an engine over `n` nodes costs `O(n + live messages)`
//! memory — the property that makes paper-scale `n = 10^3`–`10^4` runs
//! feasible.

use std::convert::Infallible;

use crate::adversary::{CrashAdversary, NoFaults};
use crate::driver::SinglePortCore;
use crate::engine::{replay_core_events, ChunkCore, Engine, EventSink, InProcess, SinglePortHost};
use crate::error::SimResult;
use crate::message::{Outgoing, Payload};
use crate::node::{NodeId, NodeSet};
use crate::parallel;
use crate::protocol::SinglePortProtocol;
use crate::round::Round;

/// Single-port synchronous runner: the [`Engine`] over in-process
/// [`SinglePortCore`]s.
///
/// Messages addressed to nodes that have crashed **or halted** are dropped
/// instead of buffered (the send is still counted): a halted node never
/// polls again, so buffering onto its ports could only leak memory.  This
/// matches the multi-port `Runner`'s halted-destination rule.
///
/// # Examples
///
/// ```
/// use dft_sim::{NodeId, Outgoing, Round, SinglePortProtocol, SinglePortRunner};
///
/// /// Node 0 sends its value to node 1 in round 0; node 1 polls port 0 in
/// /// round 1 and decides on what it finds.
/// struct Relay {
///     me: usize,
///     value: bool,
///     decided: Option<bool>,
/// }
///
/// impl SinglePortProtocol for Relay {
///     type Msg = bool;
///     type Output = bool;
///
///     fn send(&mut self, round: Round) -> Option<Outgoing<bool>> {
///         (self.me == 0 && round.as_u64() == 0).then(|| Outgoing::new(NodeId::new(1), self.value))
///     }
///
///     fn poll(&mut self, round: Round) -> Option<NodeId> {
///         (self.me == 1 && round.as_u64() == 1).then(|| NodeId::new(0))
///     }
///
///     fn receive(&mut self, _round: Round, _from: NodeId, msgs: &mut Vec<bool>) {
///         if let Some(&v) = msgs.first() {
///             self.decided = Some(v);
///         }
///     }
///
///     fn output(&self) -> Option<bool> {
///         self.decided.or(if self.me == 0 { Some(self.value) } else { None })
///     }
///
///     fn has_halted(&self) -> bool {
///         self.output().is_some()
///     }
/// }
///
/// let nodes = vec![
///     Relay { me: 0, value: true, decided: None },
///     Relay { me: 1, value: false, decided: None },
/// ];
/// let mut runner = SinglePortRunner::new(nodes).unwrap();
/// let report = runner.run(5);
/// assert_eq!(report.agreed_value(), Some(&true));
/// ```
pub type SinglePortRunner<P> = Engine<InProcess<SinglePortCore<P>>>;

impl<P: SinglePortProtocol> SinglePortRunner<P> {
    /// Creates a fault-free single-port runner.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySystem`](crate::SimError::EmptySystem) if `nodes` is empty.
    pub fn new(nodes: Vec<P>) -> SimResult<Self> {
        Self::with_adversary(nodes, Box::new(NoFaults), 0)
    }

    /// Creates a single-port runner with a crash adversary limited to
    /// `fault_budget` crashes.
    ///
    /// The single-port fork threshold
    /// (`parallel::MIN_NODES_PER_FORK_SINGLE_PORT`) is higher than the
    /// multi-port one: a single-port round is one send and one poll per
    /// node, so the pool's dispatch only pays off once a round's node loop
    /// is itself substantial.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySystem`](crate::SimError::EmptySystem) if `nodes` is empty, or
    /// [`SimError::InvalidConfig`](crate::SimError::InvalidConfig) if the budget is not smaller than the
    /// number of nodes.
    pub fn with_adversary(
        nodes: Vec<P>,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
    ) -> SimResult<Self> {
        let n = nodes.len();
        let core = SinglePortCore::new(0, nodes);
        let host = InProcess::new(core, n, parallel::MIN_NODES_PER_FORK_SINGLE_PORT);
        let byzantine = NodeSet::empty(n);
        Engine::with_host(
            n,
            adversary,
            fault_budget,
            byzantine,
            host,
            Self::single_port_round,
        )
    }
}

impl<H: SinglePortHost> Engine<H> {
    /// Executes one single-port round on whichever host carries the
    /// chunks.  The port-map mutations stay on this thread — at one
    /// message per node per round the enqueue loop is memory-movement bound
    /// anyway — and walk chunks in ascending order, so every partition
    /// produces byte-identical state.
    pub(crate) fn single_port_round(&mut self) -> Result<(), H::Error> {
        let round = self.core.round;
        let n = self.core.n();
        self.host
            .gather_sends(round, &mut self.send_intents, &mut self.poll_intents)?;
        self.crash_phase();
        self.host
            .mirror_crashes(round, self.core.crashed_this_round());
        // Last round's emptied poll buffers go back to the port map before
        // enqueueing, so this round's pushes and drains reuse them.
        self.host.reclaim_buffers(&mut self.spares);
        self.ports.reclaim(&mut self.spares);
        // Enqueue in sender order, applying mid-round crash filters and
        // counting every send.
        for ci in 0..self.host.chunks() {
            let (base, sends) = self.host.send_slots(ci);
            for (i, slot) in sends.iter_mut().enumerate() {
                let Some(out) = slot.take() else { continue };
                let sender = base + i;
                if let Some(filter) = self.core.filter(sender) {
                    if !filter.allows(0, out.to) {
                        continue;
                    }
                }
                let bits = out.msg.bit_len();
                self.core.metrics.record_message(round.as_u64(), bits);
                let dest = out.to.index();
                if dest < n && self.core.status[dest].is_running() {
                    self.ports.push(dest, sender, out.msg);
                }
            }
        }
        // Pre-drain polled ports in node order: a drain touches only the
        // poller's own in-ports and `receive` never touches the port map,
        // so draining up front equals draining inside the receive loop.
        for ci in 0..self.host.chunks() {
            let (base, slots) = self.host.poll_slots(ci);
            for (i, slot) in slots.iter_mut().enumerate() {
                let node = base + i;
                *slot = match self.poll_intents[node] {
                    Some(port) if self.core.status[node].is_running() => {
                        Some(self.ports.drain(node, port.index()))
                    }
                    _ => None,
                };
            }
        }
        self.host.receive_phase(round)?;
        self.replay_and_finish()
    }

    /// Total number of sent-but-not-yet-polled messages currently buffered
    /// on ports.  Together with [`Engine::ports_in_use`] this exposes the
    /// engine's memory footprint: both are `O(live messages)`, never
    /// `O(n²)`.
    pub fn buffered_messages(&self) -> usize {
        self.ports.buffered_messages()
    }

    /// Number of ports currently buffering at least one message.
    pub fn ports_in_use(&self) -> usize {
        self.ports.ports_in_use()
    }
}

impl<P: SinglePortProtocol> ChunkCore for SinglePortCore<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn replay_events(&mut self, event: &mut EventSink<'_, P::Output>) {
        replay_core_events(
            self.base,
            &self.events,
            &self.outputs,
            &mut self.status,
            event,
        );
    }

    fn outputs(&self) -> &[Option<P::Output>] {
        &self.outputs
    }

    fn split_off(&mut self, at: usize) -> Self {
        SinglePortCore {
            base: self.base + at,
            nodes: self.nodes.split_off(at),
            status: self.status.split_off(at),
            sends: self.sends.split_off(at),
            polls: self.polls.split_off(at),
            drained: self.drained.split_off(at),
            spare: Vec::new(),
            outputs: self.outputs.split_off(at),
            events: Vec::new(),
        }
    }

    fn append(&mut self, mut other: Self) {
        self.nodes.append(&mut other.nodes);
        self.status.append(&mut other.status);
        self.sends.append(&mut other.sends);
        self.polls.append(&mut other.polls);
        self.drained.append(&mut other.drained);
        self.spare.append(&mut other.spare);
        self.outputs.append(&mut other.outputs);
    }
}

impl<P: SinglePortProtocol> SinglePortHost for InProcess<SinglePortCore<P>> {
    fn gather_sends(
        &mut self,
        round: Round,
        intents: &mut [Vec<NodeId>],
        polls: &mut [Option<NodeId>],
    ) -> Result<(), Infallible> {
        self.prepare(intents.len());
        self.run_phase(move |core| core.begin_round(round));
        for core in self.cores_mut() {
            for (i, send) in core.sends.iter().enumerate() {
                let node = core.base + i;
                intents[node].clear();
                intents[node].extend(send.iter().map(|o| o.to));
                polls[node] = core.polls[i];
            }
        }
        Ok(())
    }

    fn mirror_crashes(&mut self, round: Round, victims: &[usize]) {
        for &node in victims {
            let (core, local) = self.core_of(node);
            core.set_crashed(local, round);
        }
    }

    fn receive_phase(&mut self, round: Round) -> Result<(), Infallible> {
        self.run_phase(move |core| {
            core.finalize(round);
        });
        Ok(())
    }

    fn reclaim_buffers(&mut self, out: &mut Vec<Vec<P::Msg>>) {
        for core in self.cores_mut() {
            core.take_spares(out);
        }
    }

    fn send_slots(&mut self, ci: usize) -> (usize, &mut [Option<Outgoing<P::Msg>>]) {
        let core = self.core(ci);
        (core.base, &mut core.sends)
    }

    fn poll_slots(&mut self, ci: usize) -> (usize, &mut [Option<Vec<P::Msg>>]) {
        let core = self.core(ci);
        (core.base, &mut core.drained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdaptiveSplitAdversary;
    use crate::error::SimError;
    use crate::message::Outgoing;
    use crate::report::Termination;
    use crate::round::Round;

    /// A round-robin token ring: node i sends its accumulated OR to node
    /// (i+1) mod n in round i, and polls port (i-1) mod n in every round.
    struct Ring {
        me: usize,
        n: usize,
        value: bool,
        decided: Option<bool>,
        rounds: u64,
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
        }

        fn output(&self) -> Option<bool> {
            self.decided
        }

        fn has_halted(&self) -> bool {
            self.decided.is_some()
        }
    }

    impl Ring {
        fn tick(&mut self) {
            self.rounds += 1;
        }
    }

    /// Wrapper that decides after 2n rounds.
    struct RingUntil(Ring);

    impl SinglePortProtocol for RingUntil {
        type Msg = bool;
        type Output = bool;

        fn send(&mut self, round: Round) -> Option<Outgoing<bool>> {
            self.0.send(round)
        }

        fn poll(&mut self, round: Round) -> Option<NodeId> {
            self.0.poll(round)
        }

        fn receive(&mut self, round: Round, from: NodeId, msgs: &mut Vec<bool>) {
            self.0.receive(round, from, msgs);
            self.0.tick();
            if self.0.rounds >= 2 * self.0.n as u64 {
                self.0.decided = Some(self.0.value);
            }
        }

        fn output(&self) -> Option<bool> {
            self.0.output()
        }

        fn has_halted(&self) -> bool {
            self.0.has_halted()
        }
    }

    fn ring(n: usize, one_at: usize) -> Vec<RingUntil> {
        (0..n)
            .map(|i| {
                RingUntil(Ring {
                    me: i,
                    n,
                    value: i == one_at,
                    decided: None,
                    rounds: 0,
                })
            })
            .collect()
    }

    #[test]
    fn rejects_empty_system() {
        let nodes: Vec<RingUntil> = Vec::new();
        assert!(matches!(
            SinglePortRunner::new(nodes),
            Err(SimError::EmptySystem)
        ));
    }

    #[test]
    fn ring_propagates_value_one_hop_per_round() {
        let n = 6;
        let mut runner = SinglePortRunner::new(ring(n, 0)).unwrap();
        let report = runner.run(3 * n as u64);
        assert!(report.all_non_faulty_decided());
        assert!(report.non_faulty_deciders_agree());
        assert_eq!(report.agreed_value(), Some(&true));
        // Each node sends exactly one message per round.
        assert_eq!(report.metrics.peak_messages_in_a_round(), n as u64);
    }

    #[test]
    fn ports_buffer_until_polled() {
        // A node that never polls never sees the message, but the message is
        // still counted as sent.
        struct SendOnly {
            me: usize,
            done: bool,
        }
        impl SinglePortProtocol for SendOnly {
            type Msg = bool;
            type Output = bool;
            fn send(&mut self, round: Round) -> Option<Outgoing<bool>> {
                (self.me == 0 && round.as_u64() == 0).then(|| Outgoing::new(NodeId::new(1), true))
            }
            fn poll(&mut self, _round: Round) -> Option<NodeId> {
                None
            }
            fn receive(&mut self, _round: Round, _from: NodeId, _msgs: &mut Vec<bool>) {}
            fn output(&self) -> Option<bool> {
                self.done.then_some(false)
            }
            fn has_halted(&self) -> bool {
                self.done
            }
        }
        let nodes = vec![
            SendOnly { me: 0, done: false },
            SendOnly { me: 1, done: false },
        ];
        let mut runner = SinglePortRunner::new(nodes).unwrap();
        let report = runner.run(3);
        assert_eq!(report.metrics.messages, 1);
        assert_eq!(runner.buffered_messages(), 1, "unpolled message buffered");
        assert_eq!(runner.ports_in_use(), 1);
        assert_eq!(report.termination, Termination::RoundLimit);
    }

    #[test]
    fn adaptive_split_adversary_isolates_a_node() {
        let n = 8;
        let t = 6;
        let adversary = AdaptiveSplitAdversary::new(NodeId::new(0));
        let mut runner =
            SinglePortRunner::with_adversary(ring(n, 0), Box::new(adversary), t).unwrap();
        let report = runner.run(3 * n as u64);
        // Node 0's neighbours get crashed, so the `true` held by node 0 cannot
        // spread to everyone; the nodes far from 0 decide `false`.
        let crashed = report.crashed();
        assert!(crashed.len() <= t);
        assert!(!crashed.is_empty());
        let zero_output = report.output_of(NodeId::new(0));
        // Node 0 remains operational (the adversary crashes its neighbours,
        // not node 0 itself).
        assert!(report.non_faulty().contains(NodeId::new(0)));
        assert_eq!(zero_output, Some(&true));
    }

    /// Regression test for the halted-destination rule: the seed engine kept
    /// buffering messages onto halted nodes' ports (only crashed
    /// destinations were dropped), which leaks memory at scale — a halted
    /// node can never poll.  Both runners now drop such messages while still
    /// counting them against the sender.
    #[test]
    fn messages_to_halted_nodes_are_counted_but_not_buffered() {
        /// Node 1 halts in round 0; node 0 keeps sending to node 1 forever.
        struct Pesterer {
            me: usize,
        }
        impl SinglePortProtocol for Pesterer {
            type Msg = bool;
            type Output = bool;
            fn send(&mut self, _round: Round) -> Option<Outgoing<bool>> {
                (self.me == 0).then(|| Outgoing::new(NodeId::new(1), true))
            }
            fn poll(&mut self, _round: Round) -> Option<NodeId> {
                None
            }
            fn receive(&mut self, _round: Round, _from: NodeId, _msgs: &mut Vec<bool>) {}
            fn output(&self) -> Option<bool> {
                (self.me == 1).then_some(true)
            }
            fn has_halted(&self) -> bool {
                self.me == 1
            }
        }
        let nodes = vec![Pesterer { me: 0 }, Pesterer { me: 1 }];
        let mut runner = SinglePortRunner::new(nodes).unwrap();
        // Round 0: node 1 still runs, so node 0's first message is buffered;
        // node 1 halts at the end of the round and its ports are dropped.
        runner.step();
        assert_eq!(runner.core.halted_at[1], Some(Round::new(0)));
        assert_eq!(runner.buffered_messages(), 0, "halted ports freed");
        // Rounds 1..: messages to the halted node are counted, not buffered.
        for _ in 0..4 {
            runner.step();
        }
        assert_eq!(runner.metrics().messages, 5, "every send is counted");
        assert_eq!(runner.buffered_messages(), 0);
        assert_eq!(runner.ports_in_use(), 0);
    }

    /// Parallel phase loops must be observationally identical to the serial
    /// ones: same report, same trace, same buffered-port diagnostics.
    #[test]
    fn parallel_execution_is_byte_identical_to_serial() {
        use crate::adversary::{CrashDirective, FixedCrashSchedule};
        use crate::parallel::MIN_NODES_PER_FORK;
        let n = MIN_NODES_PER_FORK + 5;
        let run = |jobs: usize| {
            let adversary = FixedCrashSchedule::new()
                .crash_at(1, CrashDirective::silent(NodeId::new(2)))
                .crash_at(3, CrashDirective::after_send(NodeId::new(n - 1)));
            let mut runner = SinglePortRunner::with_adversary(ring(n, 0), Box::new(adversary), 2)
                .unwrap()
                .with_jobs(jobs);
            // The single-port default threshold only engages the pool for
            // very large systems; force it so this test exercises the
            // parallel path at a testable size.
            runner.set_fork_threshold(1);
            runner.enable_trace();
            let report = runner.run(3 * n as u64);
            (
                report,
                runner.trace().events().to_vec(),
                runner.buffered_messages(),
                runner.ports_in_use(),
            )
        };
        let serial = run(1);
        for jobs in [2, 4] {
            let parallel = run(jobs);
            assert_eq!(serial.0, parallel.0, "report with jobs={jobs}");
            assert_eq!(serial.1, parallel.1, "trace with jobs={jobs}");
            assert_eq!(serial.2, parallel.2, "buffered messages with jobs={jobs}");
            assert_eq!(serial.3, parallel.3, "ports in use with jobs={jobs}");
        }
        assert_eq!(serial.0.metrics.crashes, 2);
    }

    /// A pool reused across two consecutive `run()`s on the same runner
    /// produces transcripts identical to two fresh serial runs (the
    /// single-port variant of the multi-port runner's test: port buffers
    /// carry state across the boundary too).
    #[test]
    fn pool_reused_across_two_runs_matches_two_serial_runs() {
        use crate::adversary::{CrashDirective, FixedCrashSchedule};
        let n = 40;
        let run_twice = |first_jobs: usize, second_jobs: usize| {
            let adversary = FixedCrashSchedule::new()
                .crash_at(2, CrashDirective::silent(NodeId::new(3)))
                .crash_at(n as u64, CrashDirective::after_send(NodeId::new(7)));
            let mut runner = SinglePortRunner::with_adversary(ring(n, 0), Box::new(adversary), 2)
                .unwrap()
                .with_jobs(first_jobs);
            // Force the pool at a testable size (the production threshold
            // only engages it at paper scale).
            runner.set_fork_threshold(1);
            runner.enable_trace();
            let first = runner.run(n as u64);
            // A changed job count re-partitions the cores between runs.
            runner.set_jobs(second_jobs);
            let second = runner.run(3 * n as u64);
            (
                first,
                second,
                runner.trace().events().to_vec(),
                runner.buffered_messages(),
            )
        };
        let serial = run_twice(1, 1);
        for (first_jobs, second_jobs) in [(4, 4), (4, 3), (3, 1)] {
            let pooled = run_twice(first_jobs, second_jobs);
            let jobs = format!("jobs {first_jobs} then {second_jobs}");
            assert_eq!(serial.0, pooled.0, "first run() report, {jobs}");
            assert_eq!(serial.1, pooled.1, "second run() report, {jobs}");
            assert_eq!(serial.2, pooled.2, "combined trace, {jobs}");
            assert_eq!(serial.3, pooled.3, "buffered ports after both runs, {jobs}");
        }
    }

    #[test]
    fn crashed_destination_ports_are_freed() {
        use crate::adversary::{CrashDirective, FixedCrashSchedule};
        /// Node 0 sends to node 2 every round; node 2 never polls, so its
        /// port from node 0 accumulates messages until node 2 crashes.
        struct Pester;
        impl SinglePortProtocol for Pester {
            type Msg = bool;
            type Output = bool;
            fn send(&mut self, _round: Round) -> Option<Outgoing<bool>> {
                Some(Outgoing::new(NodeId::new(2), true))
            }
            fn poll(&mut self, _round: Round) -> Option<NodeId> {
                None
            }
            fn receive(&mut self, _round: Round, _from: NodeId, _msgs: &mut Vec<bool>) {}
            fn output(&self) -> Option<bool> {
                None
            }
            fn has_halted(&self) -> bool {
                false
            }
        }
        let adversary =
            FixedCrashSchedule::new().crash_at(2, CrashDirective::silent(NodeId::new(2)));
        let nodes = vec![Pester, Pester, Pester];
        let mut runner = SinglePortRunner::with_adversary(nodes, Box::new(adversary), 1).unwrap();
        runner.step();
        runner.step();
        // Two rounds of three senders each, all addressed to node 2.
        assert_eq!(runner.buffered_messages(), 6);
        // Round 2: node 2 crashes before delivery; its buffered ports are
        // dropped and this round's sends to it are skipped at push time.
        runner.step();
        assert!(runner.core.status[2].is_crashed());
        assert_eq!(runner.buffered_messages(), 0, "crash freed node 2's ports");
        assert_eq!(runner.ports_in_use(), 0);
        assert_eq!(runner.metrics().messages, 8, "sends still counted");
    }
}
