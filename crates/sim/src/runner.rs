//! The multi-port model: its participants, its round loop, and
//! [`Runner`], the in-process engine that runs it.
//!
//! A multi-port round has four phases: the nodes collect their sends, the
//! crash adversary picks victims centrally, the surviving messages are
//! delivered, and the nodes receive.  The per-node bodies are the sans-I/O
//! [`RoundCore`] (see [`crate::driver`]); the order-sensitive rest — the
//! crash phase, merging every chunk's delivered messages and metric counts
//! in ascending chunk (= sender) order, routing them to inboxes, and the
//! decision/halt replay — is [`Engine::multi_port_round`], written once for
//! every host ([`crate::engine`]).  The partition into chunks is therefore
//! invisible: reports, metrics and traces are byte-identical across job
//! counts and shard counts (see the threading-model notes in `DESIGN.md`).

use std::convert::Infallible;
use std::sync::Arc;

use crate::adversary::byzantine::ByzantineStrategy;
use crate::adversary::{CrashAdversary, DeliveryFilter, NoFaults};
use crate::driver::RoundCore;
use crate::engine::{
    replay_core_events, ChunkCore, Engine, EventSink, InProcess, MultiPortHost, Staged,
};
use crate::error::SimResult;
use crate::message::Delivered;
use crate::node::{NodeId, NodeSet};
use crate::parallel;
use crate::protocol::SyncProtocol;
use crate::report::ExecutionReport;
use crate::round::Round;

/// A participant in an execution: either an honest node running the protocol
/// under test or a Byzantine node running an arbitrary strategy.
///
/// Byzantine strategies are boxed with a `Send` bound so the runner may call
/// them from phase workers; every strategy in this repository is plain data.
pub enum Participant<P: SyncProtocol> {
    /// An honest node executing the protocol.
    Honest(P),
    /// A Byzantine node executing an adversarial strategy over the same
    /// message type.
    Byzantine(Box<dyn ByzantineStrategy<P::Msg> + Send>),
}

impl<P: SyncProtocol> Participant<P> {
    pub(crate) fn is_byzantine(&self) -> bool {
        matches!(self, Participant::Byzantine(_))
    }
}

impl<P: SyncProtocol> std::fmt::Debug for Participant<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Participant::Honest(_) => write!(f, "Honest"),
            Participant::Byzantine(_) => write!(f, "Byzantine"),
        }
    }
}

/// The Byzantine members of a participant list.
pub(crate) fn byzantine_set<P: SyncProtocol>(participants: &[Participant<P>]) -> NodeSet {
    let members = participants.iter().enumerate();
    let byzantine = members.filter(|(_, p)| p.is_byzantine());
    NodeSet::from_iter(participants.len(), byzantine.map(|(i, _)| NodeId::new(i)))
}

/// Multi-port synchronous runner: the [`Engine`] over in-process
/// [`RoundCore`]s.
///
/// Messages addressed to nodes that have crashed **or halted** are dropped
/// at delivery time (they are still counted against the sender): a halted
/// node no longer participates in the protocol.  Both models share this
/// rule — see `SinglePortRunner` for the buffered-port variant.
///
/// # Examples
///
/// Running a toy protocol in which every node halts immediately:
///
/// ```
/// use dft_sim::{Delivered, Outgoing, Round, Runner, SyncProtocol};
///
/// struct Halt;
/// impl SyncProtocol for Halt {
///     type Msg = bool;
///     type Output = bool;
///     fn send(&mut self, _: Round, _: &mut Vec<Outgoing<bool>>) {}
///     fn receive(&mut self, _: Round, _: &[Delivered<bool>]) {}
///     fn output(&self) -> Option<bool> { Some(true) }
///     fn has_halted(&self) -> bool { true }
/// }
///
/// let mut runner = Runner::new((0..4).map(|_| Halt).collect()).unwrap();
/// let report = runner.run(10);
/// assert!(report.all_non_faulty_decided());
/// assert_eq!(report.metrics.rounds, 1);
/// ```
pub type Runner<P> = Engine<InProcess<RoundCore<P>>>;

impl<P: SyncProtocol> Runner<P> {
    /// Creates a runner over honest nodes only, with no faults.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySystem`](crate::SimError::EmptySystem) if `protocols` is empty.
    pub fn new(protocols: Vec<P>) -> SimResult<Self> {
        Self::with_adversary(protocols, Box::new(NoFaults), 0)
    }

    /// Creates a runner over honest nodes with a crash adversary limited to
    /// `fault_budget` crashes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySystem`](crate::SimError::EmptySystem) if `protocols` is empty, or
    /// [`SimError::InvalidConfig`](crate::SimError::InvalidConfig) if the budget is not smaller than the
    /// number of nodes.
    pub fn with_adversary(
        protocols: Vec<P>,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
    ) -> SimResult<Self> {
        let participants = protocols.into_iter().map(Participant::Honest).collect();
        Self::with_participants(participants, adversary, fault_budget)
    }

    /// Creates a runner over a mix of honest and Byzantine participants.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySystem`](crate::SimError::EmptySystem) if `participants` is empty, or
    /// [`SimError::InvalidConfig`](crate::SimError::InvalidConfig) if the crash budget is not smaller than
    /// the number of nodes.
    pub fn with_participants(
        participants: Vec<Participant<P>>,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
    ) -> SimResult<Self> {
        let n = participants.len();
        let byzantine = byzantine_set(&participants);
        let core = RoundCore::new(0, participants);
        let host = InProcess::new(core, n, parallel::MIN_NODES_PER_FORK);
        Engine::with_host(
            n,
            adversary,
            fault_budget,
            byzantine,
            host,
            Self::multi_port_round,
        )
    }
}

impl<H: MultiPortHost> Engine<H> {
    /// Executes one multi-port round on whichever host carries the chunks.
    pub(crate) fn multi_port_round(&mut self) -> Result<(), H::Error> {
        let round = self.core.round;
        let n = self.core.n();
        self.host.gather_intents(round, &mut self.send_intents)?;
        self.crash_phase();
        let crashed = self.core.crashed_this_round().iter();
        let crashes: Vec<(usize, DeliveryFilter)> = crashed
            .filter_map(|&idx| Some((idx, self.core.filter(idx)?.clone())))
            .collect();
        // Merging chunks in ascending order *is* sender-index order, so
        // inbox order and metric totals are independent of the partition.
        self.host.stage_delivery(round, crashes)?;
        for ci in 0..self.host.chunks() {
            let mut staged = self.host.take_staged(ci)?;
            let metrics = &mut self.core.metrics;
            metrics.record_messages(round.as_u64(), staged.messages, staged.bits);
            metrics.byzantine_messages += staged.byzantine_messages;
            for (dest, msg) in staged.delivered.drain(..) {
                if dest < n && self.core.status[dest].is_running() {
                    self.host.route(dest, msg);
                }
            }
            self.host.return_staged(ci, staged.delivered);
        }
        self.host.receive_phase(round)?;
        self.replay_and_finish()
    }
}

impl<P: SyncProtocol> ChunkCore for RoundCore<P> {
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
        RoundCore {
            base: self.base + at,
            participants: self.participants.split_off(at),
            status: self.status.split_off(at),
            byz: self.byz.split_off(at),
            outgoing: self.outgoing.split_off(at),
            send_intents: self.send_intents.split_off(at),
            inboxes: self.inboxes.split_off(at),
            byz_inboxes: self.byz_inboxes.split_off(at),
            outputs: self.outputs.split_off(at),
            delivered: Vec::new(),
            events: Vec::new(),
            msgs: 0,
            bits: 0,
            byz_msgs: 0,
        }
    }

    fn append(&mut self, mut other: Self) {
        self.participants.append(&mut other.participants);
        self.status.append(&mut other.status);
        self.byz.append(&mut other.byz);
        self.outgoing.append(&mut other.outgoing);
        self.send_intents.append(&mut other.send_intents);
        self.inboxes.append(&mut other.inboxes);
        self.byz_inboxes.append(&mut other.byz_inboxes);
        self.outputs.append(&mut other.outputs);
    }
}

impl<P: SyncProtocol> MultiPortHost for InProcess<RoundCore<P>> {
    fn gather_intents(
        &mut self,
        round: Round,
        intents: &mut [Vec<NodeId>],
    ) -> Result<(), Infallible> {
        self.prepare(intents.len());
        self.run_phase(move |core| core.begin_round(round));
        // Each node's intent vector ping-pongs between its core and the
        // flat slot; both sides rebuild it per round, so only capacity
        // persists.
        for core in self.cores_mut() {
            for (i, list) in core.send_intents.iter_mut().enumerate() {
                std::mem::swap(&mut intents[core.base + i], list);
            }
        }
        Ok(())
    }

    fn stage_delivery(
        &mut self,
        round: Round,
        crashes: Vec<(usize, DeliveryFilter)>,
    ) -> Result<(), Infallible> {
        for &(node, _) in &crashes {
            let (core, local) = self.core_of(node);
            core.set_crashed(local, round);
        }
        let filters = if crashes.is_empty() {
            Arc::clone(&self.no_filters)
        } else {
            Arc::new(crashes)
        };
        self.run_phase(move |core| core.deliver(&filters));
        Ok(())
    }

    fn take_staged(&mut self, ci: usize) -> Result<Staged<P::Msg>, Infallible> {
        let core = self.core(ci);
        Ok(Staged {
            messages: core.msgs,
            bits: core.bits,
            byzantine_messages: core.byz_msgs,
            delivered: std::mem::take(&mut core.delivered),
        })
    }

    fn route(&mut self, dest: usize, msg: Delivered<P::Msg>) {
        let (core, local) = self.core_of(dest);
        core.inboxes[local].push(msg);
    }

    fn receive_phase(&mut self, round: Round) -> Result<(), Infallible> {
        self.run_phase(move |core| {
            core.finalize(round);
        });
        Ok(())
    }

    fn return_staged(&mut self, ci: usize, delivered: Vec<(usize, Delivered<P::Msg>)>) {
        self.core(ci).delivered = delivered;
    }
}

/// Convenience: runs `protocols` under `adversary` with budget `t` for at
/// most `max_rounds` rounds and returns the report.
///
/// # Errors
///
/// Propagates construction errors from [`Runner::with_adversary`].
pub fn run_with_crashes<P: SyncProtocol>(
    protocols: Vec<P>,
    adversary: Box<dyn CrashAdversary>,
    fault_budget: usize,
    max_rounds: u64,
) -> SimResult<ExecutionReport<P::Output>> {
    let mut runner = Runner::with_adversary(protocols, adversary, fault_budget)?;
    Ok(runner.run(max_rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryView, CrashDirective, FixedCrashSchedule};
    use crate::error::SimError;
    use crate::message::{Delivered, Outgoing};
    use crate::report::Termination;

    /// Every node floods its input to all nodes each round; decides on the OR
    /// of everything seen after 3 rounds.
    struct FloodOr {
        n: usize,
        value: bool,
        decided: Option<bool>,
        rounds_seen: u64,
    }

    impl FloodOr {
        fn new(n: usize, value: bool) -> Self {
            FloodOr {
                n,
                value,
                decided: None,
                rounds_seen: 0,
            }
        }
    }

    impl SyncProtocol for FloodOr {
        type Msg = bool;
        type Output = bool;

        fn send(&mut self, _round: Round, out: &mut Vec<Outgoing<bool>>) {
            out.extend((0..self.n).map(|i| Outgoing::new(NodeId::new(i), self.value)));
        }

        fn receive(&mut self, _round: Round, inbox: &[Delivered<bool>]) {
            for msg in inbox {
                self.value |= msg.msg;
            }
            self.rounds_seen += 1;
            if self.rounds_seen >= 3 {
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

    #[test]
    fn rejects_empty_system() {
        let protocols: Vec<FloodOr> = Vec::new();
        assert_eq!(Runner::new(protocols).err(), Some(SimError::EmptySystem));
    }

    #[test]
    fn rejects_budget_not_below_n() {
        let protocols = vec![FloodOr::new(2, false), FloodOr::new(2, true)];
        let err = Runner::with_adversary(protocols, Box::new(NoFaults), 2).err();
        assert!(matches!(err, Some(SimError::InvalidConfig(_))));
    }

    #[test]
    fn flood_or_reaches_agreement_without_faults() {
        let n = 8;
        let protocols: Vec<FloodOr> = (0..n).map(|i| FloodOr::new(n, i == 3)).collect();
        let mut runner = Runner::new(protocols).unwrap();
        runner.enable_trace();
        let report = runner.run(10);
        assert_eq!(report.termination, Termination::AllHalted);
        assert!(report.all_non_faulty_decided());
        assert!(report.non_faulty_deciders_agree());
        assert_eq!(report.agreed_value(), Some(&true));
        assert_eq!(report.metrics.rounds, 3);
        // Every node sends n messages in each of 3 rounds.
        assert_eq!(report.metrics.messages, (n * n * 3) as u64);
        assert_eq!(report.metrics.bits, (n * n * 3) as u64);
        assert!(!runner.trace().is_empty());
    }

    #[test]
    fn silent_crash_suppresses_messages() {
        let n = 4;
        // Only node 0 holds `true`; it crashes silently in round 0, so nobody
        // ever learns the value and all decide `false`.
        let protocols: Vec<FloodOr> = (0..n).map(|i| FloodOr::new(n, i == 0)).collect();
        let adversary =
            FixedCrashSchedule::new().crash_at(0, CrashDirective::silent(NodeId::new(0)));
        let report = run_with_crashes(protocols, Box::new(adversary), 1, 10).unwrap();
        assert_eq!(report.metrics.crashes, 1);
        assert!(report.non_faulty_deciders_agree());
        assert_eq!(report.agreed_value(), Some(&false));
        assert_eq!(report.non_faulty().len(), n - 1);
    }

    #[test]
    fn after_send_crash_still_delivers() {
        let n = 4;
        let protocols: Vec<FloodOr> = (0..n).map(|i| FloodOr::new(n, i == 0)).collect();
        let adversary =
            FixedCrashSchedule::new().crash_at(0, CrashDirective::after_send(NodeId::new(0)));
        let report = run_with_crashes(protocols, Box::new(adversary), 1, 10).unwrap();
        assert_eq!(report.agreed_value(), Some(&true));
    }

    #[test]
    fn prefix_crash_delivers_partial_output() {
        use crate::adversary::DeliveryFilter;
        let n = 6;
        let protocols: Vec<FloodOr> = (0..n).map(|i| FloodOr::new(n, i == 0)).collect();
        // Node 0 reaches only its first two destinations (nodes 0 and 1) before crashing.
        let adversary = FixedCrashSchedule::new().crash_at(
            0,
            CrashDirective {
                node: NodeId::new(0),
                deliver: DeliveryFilter::Prefix(2),
            },
        );
        let report = run_with_crashes(protocols, Box::new(adversary), 1, 10).unwrap();
        // Node 1 got the value and re-floods it, so everyone still decides true.
        assert_eq!(report.agreed_value(), Some(&true));
        assert!(report.non_faulty_deciders_agree());
    }

    #[test]
    fn fault_budget_is_enforced() {
        let n = 5;
        let protocols: Vec<FloodOr> = (0..n).map(|_| FloodOr::new(n, false)).collect();
        let adversary = FixedCrashSchedule::new().crash_all_at(0, (0..4).map(NodeId::new));
        let report = run_with_crashes(protocols, Box::new(adversary), 2, 10).unwrap();
        assert_eq!(
            report.metrics.crashes, 2,
            "only budget-many crashes applied"
        );
    }

    #[test]
    fn byzantine_messages_not_counted() {
        use crate::adversary::byzantine::FloodByzantine;
        let n = 4;
        let mut participants: Vec<Participant<FloodOr>> = (1..n)
            .map(|i| Participant::Honest(FloodOr::new(n, i == 1)))
            .collect();
        participants.insert(
            0,
            Participant::Byzantine(Box::new(FloodByzantine::<bool>::new(n))),
        );
        let mut runner = Runner::with_participants(participants, Box::new(NoFaults), 0).unwrap();
        let report = runner.run(10);
        assert!(report.byzantine.contains(NodeId::new(0)));
        assert_eq!(report.non_faulty().len(), n - 1);
        // Honest nodes: 3 nodes * n messages * 3 rounds.
        assert_eq!(report.metrics.messages, (3 * n * 3) as u64);
        assert!(report.metrics.byzantine_messages > 0);
        assert!(report.non_faulty_deciders_agree());
    }

    #[test]
    fn round_limit_reported() {
        // A protocol that never halts.
        struct Never;
        impl SyncProtocol for Never {
            type Msg = bool;
            type Output = bool;
            fn send(&mut self, _: Round, _: &mut Vec<Outgoing<bool>>) {}
            fn receive(&mut self, _: Round, _: &[Delivered<bool>]) {}
            fn output(&self) -> Option<bool> {
                None
            }
            fn has_halted(&self) -> bool {
                false
            }
        }
        let mut runner = Runner::new(vec![Never, Never]).unwrap();
        let report = runner.run(5);
        assert_eq!(report.termination, Termination::RoundLimit);
        assert_eq!(report.metrics.rounds, 5);
    }

    /// Sends one message per round to a fixed target and counts how many
    /// messages it has ever received; never halts on its own.
    struct CountingSender {
        target: usize,
        received: u64,
        halt_after: Option<u64>,
        rounds: u64,
    }

    impl SyncProtocol for CountingSender {
        type Msg = bool;
        type Output = u64;

        fn send(&mut self, _round: Round, out: &mut Vec<Outgoing<bool>>) {
            out.push(Outgoing::new(NodeId::new(self.target), true));
        }

        fn receive(&mut self, _round: Round, inbox: &[Delivered<bool>]) {
            self.received += inbox.len() as u64;
            self.rounds += 1;
        }

        fn output(&self) -> Option<u64> {
            Some(self.received)
        }

        fn has_halted(&self) -> bool {
            self.halt_after.is_some_and(|h| self.rounds >= h)
        }
    }

    /// Parallel phase loops must be observationally identical to the serial
    /// ones: same report (outputs, crash/halt rounds, metrics including the
    /// per-round profile) and same trace, event for event.  `n` sits above
    /// the fork threshold so the worker-pool path actually runs.
    #[test]
    fn parallel_execution_is_byte_identical_to_serial() {
        use crate::parallel::MIN_NODES_PER_FORK;
        let n = MIN_NODES_PER_FORK + 9;
        let run = |jobs: usize| {
            let protocols: Vec<FloodOr> = (0..n).map(|i| FloodOr::new(n, i == 3)).collect();
            let adversary = FixedCrashSchedule::new()
                .crash_at(0, CrashDirective::silent(NodeId::new(1)))
                .crash_at(
                    1,
                    CrashDirective {
                        node: NodeId::new(4),
                        deliver: crate::adversary::DeliveryFilter::Prefix(3),
                    },
                )
                .crash_at(2, CrashDirective::after_send(NodeId::new(n - 1)));
            let mut runner = Runner::with_adversary(protocols, Box::new(adversary), 3)
                .unwrap()
                .with_jobs(jobs);
            runner.enable_trace();
            let report = runner.run(10);
            (report, runner.trace().events().to_vec())
        };
        let (serial_report, serial_trace) = run(1);
        for jobs in [2, 4, 7] {
            let (parallel_report, parallel_trace) = run(jobs);
            assert_eq!(serial_report, parallel_report, "report with jobs={jobs}");
            assert_eq!(serial_trace, parallel_trace, "trace with jobs={jobs}");
        }
        assert_eq!(serial_report.metrics.crashes, 3);
        assert!(serial_report.all_non_faulty_decided());
    }

    /// A pool reused across two consecutive `run()`s on the same runner
    /// produces transcripts identical to two fresh serial runs: the workers
    /// and their core scratch persist between `run()` calls, and nothing
    /// about that persistence may leak into results.
    #[test]
    fn pool_reused_across_two_runs_matches_two_serial_runs() {
        use crate::parallel::MIN_NODES_PER_FORK;
        let n = MIN_NODES_PER_FORK + 3;
        let run_twice = |first_jobs: usize, second_jobs: usize| {
            let protocols: Vec<CountingSender> = (0..n)
                .map(|i| CountingSender {
                    target: (i + 1) % n,
                    received: 0,
                    halt_after: Some(7),
                    rounds: 0,
                })
                .collect();
            let adversary = FixedCrashSchedule::new()
                .crash_at(1, CrashDirective::silent(NodeId::new(0)))
                .crash_at(5, CrashDirective::after_send(NodeId::new(2)));
            let mut runner = Runner::with_adversary(protocols, Box::new(adversary), 2)
                .unwrap()
                .with_jobs(first_jobs);
            runner.enable_trace();
            // Two back-to-back run() calls: the second resumes the same
            // execution (and, with jobs > 1, the same pool and cores, or
            // re-partitioned ones when the job count changed in between).
            let first = runner.run(4);
            runner.set_jobs(second_jobs);
            let second = runner.run(10);
            (first, second, runner.trace().events().to_vec())
        };
        let serial = run_twice(1, 1);
        for (first_jobs, second_jobs) in [(4, 4), (4, 3), (3, 1)] {
            let pooled = run_twice(first_jobs, second_jobs);
            let jobs = format!("jobs {first_jobs} then {second_jobs}");
            assert_eq!(serial.0, pooled.0, "first run() report, {jobs}");
            assert_eq!(serial.1, pooled.1, "second run() report, {jobs}");
            assert_eq!(serial.2, pooled.2, "combined trace, {jobs}");
            assert_eq!(pooled.1.metrics.crashes, 2);
        }
    }

    /// The parallel path preserves Byzantine accounting: uncounted Byzantine
    /// messages, per-node inbox retention, identical honest-side metrics.
    #[test]
    fn parallel_execution_matches_serial_with_byzantine_nodes() {
        use crate::adversary::byzantine::FloodByzantine;
        use crate::parallel::MIN_NODES_PER_FORK;
        let n = MIN_NODES_PER_FORK + 2;
        let run = |first_jobs: usize, second_jobs: usize| {
            // The Byzantine node is the last one, so it lives in the last
            // core of every partition.
            let mut participants: Vec<Participant<FloodOr>> = (1..n)
                .map(|i| Participant::Honest(FloodOr::new(n, i == 1)))
                .collect();
            participants.push(Participant::Byzantine(Box::new(
                FloodByzantine::<bool>::new(n),
            )));
            let mut runner = Runner::with_participants(participants, Box::new(NoFaults), 0)
                .unwrap()
                .with_jobs(first_jobs);
            // A job-count change mid-execution re-partitions the cores,
            // which must carry the Byzantine node's retained inbox along.
            runner.run(1);
            runner.set_jobs(second_jobs);
            runner.run(10)
        };
        let serial = run(1, 1);
        for (first_jobs, second_jobs) in [(4, 4), (4, 1), (1, 3)] {
            let parallel = run(first_jobs, second_jobs);
            assert_eq!(serial, parallel, "jobs {first_jobs} then {second_jobs}");
            assert!(parallel.metrics.byzantine_messages > 0);
        }
    }

    /// Regression test for the halted-destination rule: once a node halts,
    /// messages addressed to it are dropped (but still counted against the
    /// sender), exactly like messages to a crashed node.
    #[test]
    fn messages_to_halted_nodes_are_counted_but_dropped() {
        // Node 1 halts after its first round; node 0 keeps sending to it.
        let nodes = vec![
            CountingSender {
                target: 1,
                received: 0,
                halt_after: None,
                rounds: 0,
            },
            CountingSender {
                target: 0,
                received: 0,
                halt_after: Some(1),
                rounds: 0,
            },
        ];
        let mut runner = Runner::new(nodes).unwrap();
        let report = runner.run(5);
        assert_eq!(report.halted_at[1], Some(Round::new(0)));
        // All 5 of node 0's sends are counted, plus node 1's single send.
        assert_eq!(report.metrics.messages, 6);
        // Node 1 received exactly one message (round 0) before halting.
        assert_eq!(report.output_of(NodeId::new(1)), Some(&1));
    }

    /// Regression test: the multi-port runner hands the adversary one poll
    /// slot per node (all `None`), so adversaries written for the
    /// single-port model may index `poll_intents[node]` without panicking.
    #[test]
    fn adversary_view_has_one_poll_slot_per_node() {
        struct IndexesPolls;
        impl CrashAdversary for IndexesPolls {
            fn plan_round(&mut self, view: &AdversaryView<'_>) -> Vec<CrashDirective> {
                // Direct indexing, as `AdaptiveSplitAdversary` effectively
                // does; this panicked when the view carried an empty slice.
                for node in 0..view.n() {
                    assert_eq!(view.poll_intents[node], None);
                }
                assert_eq!(view.poll_intents.len(), view.n());
                // Crash node 0 so the report proves plan_round actually ran
                // (and its assertions executed).
                vec![CrashDirective::silent(NodeId::new(0))]
            }
        }
        let n = 4;
        let protocols: Vec<FloodOr> = (0..n).map(|i| FloodOr::new(n, i == 0)).collect();
        let mut runner = Runner::with_adversary(protocols, Box::new(IndexesPolls), 1).unwrap();
        let report = runner.run(5);
        assert_eq!(report.metrics.crashes, 1, "the adversary was consulted");
        assert_eq!(report.termination, Termination::AllHalted);
    }
}
