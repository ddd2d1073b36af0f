//! The round engine: one round loop per communication model, driving node
//! chunks that live in a [`Host`].
//!
//! The cores of [`crate::driver`] hold the per-node round semantics.  What
//! needs the whole system at once — the crash phase, the fixed chunk-order
//! merge and routing of delivered messages, the single-port port buffers,
//! the decision/halt replay, and the run loop — [`Engine`] owns exactly
//! once: the multi-port round is in `runner.rs`, the single-port round in
//! `single_port.rs`, the rest here.  Two hosts carry the chunks:
//! [`InProcess`] cores (inline, or on a [`WorkerPool`] above the fork
//! threshold) and the transport host [`crate::shard::Remote`].  Hosts
//! answer in ascending chunk order, which is node order, so every host and
//! partition yields byte-identical runs.

use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;

use crate::adversary::{CrashAdversary, DeliveryFilter};
use crate::delivery::{EngineCore, PortMap};
use crate::driver::NodeEvent;
use crate::error::{SimError, SimResult};
use crate::message::{Delivered, Outgoing, Payload};
use crate::metrics::Metrics;
use crate::node::{NodeId, NodeSet};
use crate::parallel::{self, ChunkPlan};
use crate::pool::WorkerPool;
use crate::protocol::NodeStatus;
use crate::report::{ExecutionReport, Termination};
use crate::round::Round;
use crate::trace::Trace;

/// Where an [`Engine`]'s node chunks live, and how phase work reaches them.
///
/// The chunks partition the nodes into contiguous ranges; every per-chunk
/// call below is made in ascending chunk order.
pub trait Host: Sized {
    /// The message type the nodes exchange.
    type Msg: Payload;
    /// The nodes' output type.
    type Output: Clone + fmt::Debug;
    /// How a phase can fail: never in process, a shard error over transports.
    type Error;
    /// Number of chunks in the current round's partition.
    fn chunks(&self) -> usize;
    /// Hands chunk `ci`'s decision/halt events to `event`, in node order.
    fn replay_events(
        &mut self,
        ci: usize,
        event: &mut EventSink<'_, Self::Output>,
    ) -> Result<(), Self::Error>;
    /// Every node's first output, in node order.
    fn outputs(&self) -> Vec<Option<Self::Output>>;
    /// Called when a run returns (the transport host shuts its workers
    /// down).
    fn finish_run(&mut self) {}
}

/// Receives one decision/halt event: `(node, first_output, halted)`, where
/// `first_output` is `Some` only on the round the node first decides.
pub type EventSink<'a, O> = dyn FnMut(usize, Option<&O>, bool) + 'a;

/// A chunk's surviving messages of one multi-port round, as staged by
/// [`crate::RoundCore::deliver`].
#[derive(Debug)]
pub struct Staged<M> {
    /// Messages sent by the chunk's non-Byzantine senders.
    pub messages: u64,
    /// Bits carried by those messages.
    pub bits: u64,
    /// Messages sent by the chunk's Byzantine senders.
    pub byzantine_messages: u64,
    /// The messages in sender order, tagged with their global destination.
    pub delivered: Vec<(usize, Delivered<M>)>,
}

/// A host for the multi-port model ([`crate::RoundCore`] chunks).
pub trait MultiPortHost: Host {
    /// Phase 1: every chunk collects its sends; `intents[node]` receives
    /// each node's destinations for the adversary's view.
    fn gather_intents(
        &mut self,
        round: Round,
        intents: &mut [Vec<NodeId>],
    ) -> Result<(), Self::Error>;
    /// Phase 3: mirrors this round's crashes (global node, delivery filter)
    /// into their chunks, and has every chunk stage its surviving messages.
    fn stage_delivery(
        &mut self,
        round: Round,
        crashes: Vec<(usize, DeliveryFilter)>,
    ) -> Result<(), Self::Error>;
    /// Chunk `ci`'s staged messages and counters.
    fn take_staged(&mut self, ci: usize) -> Result<Staged<Self::Msg>, Self::Error>;
    /// Puts a message into node `dest`'s inbox for this round.
    fn route(&mut self, dest: usize, msg: Delivered<Self::Msg>);
    /// Phase 4: every chunk drives `receive` over its routed inboxes.
    fn receive_phase(&mut self, round: Round) -> Result<(), Self::Error>;
    /// Returns chunk `ci`'s emptied staging buffer, so its capacity
    /// survives the round.
    fn return_staged(&mut self, _ci: usize, _delivered: Vec<(usize, Delivered<Self::Msg>)>) {}
}

/// A host for the single-port model ([`crate::SinglePortCore`] chunks).
/// The engine owns the port buffers; chunks only produce sends and polls
/// and consume pre-drained ports.
pub trait SinglePortHost: Host {
    /// Phase 1: every chunk collects each node's single send and poll;
    /// `intents` and `polls` receive them per node for the adversary's view.
    fn gather_sends(
        &mut self,
        round: Round,
        intents: &mut [Vec<NodeId>],
        polls: &mut [Option<NodeId>],
    ) -> Result<(), Self::Error>;
    /// Mirrors this round's crash victims into their chunks.
    fn mirror_crashes(&mut self, round: Round, victims: &[usize]);
    /// Phase 4: every chunk drives `receive` over its pre-drained ports.
    fn receive_phase(&mut self, round: Round) -> Result<(), Self::Error>;
    /// Moves the emptied poll buffers the chunks retained into `out`.
    fn reclaim_buffers(&mut self, _out: &mut Vec<Vec<Self::Msg>>) {}
    /// Chunk `ci`'s first node and its per-node send slots, which the
    /// engine empties as it enqueues.
    fn send_slots(&mut self, ci: usize) -> (usize, &mut [Option<Outgoing<Self::Msg>>]);
    /// Chunk `ci`'s first node and its per-node poll-result slots, which
    /// the engine fills as it drains ports.
    fn poll_slots(&mut self, ci: usize) -> (usize, &mut [Option<Vec<Self::Msg>>]);
}

/// A round engine over `n` nodes whose chunks live in host `H`.
///
/// [`crate::Runner`], [`crate::SinglePortRunner`],
/// [`crate::shard::ShardedRunner`] and [`crate::shard::SpShardedRunner`]
/// are this type paired with a host.
pub struct Engine<H: Host> {
    pub(crate) core: EngineCore,
    adversary: Box<dyn CrashAdversary>,
    /// The Byzantine participants, fixed at construction.
    byzantine: NodeSet,
    /// Byzantine participants still running.  Byzantine nodes never halt,
    /// so with [`EngineCore::running_nodes`] this makes the per-round
    /// "has every non-faulty node halted?" check O(1).
    byz_running: usize,
    /// Per-node destinations shown to the adversary (reused).
    pub(crate) send_intents: Vec<Vec<NodeId>>,
    /// Per-node poll intents shown to the adversary: always `None` in the
    /// multi-port model, which still shows one slot per node (see
    /// [`crate::AdversaryView`]).
    pub(crate) poll_intents: Vec<Option<NodeId>>,
    /// The single-port model's sparse port buffers (empty in multi-port).
    pub(crate) ports: PortMap<H::Msg>,
    /// Emptied poll buffers on their way from the chunks back into `ports`
    /// (empty between rounds).
    pub(crate) spares: Vec<Vec<H::Msg>>,
    pub(crate) host: H,
    /// The round loop of the engine's communication model
    /// (`multi_port_round` or `single_port_round`).
    execute: fn(&mut Self) -> Result<(), H::Error>,
}

impl<H: Host> Engine<H> {
    /// An engine over `n` nodes at round 0.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptySystem`] for zero nodes, [`SimError::InvalidConfig`]
    /// when the crash budget is not smaller than `n`.
    pub(crate) fn with_host(
        n: usize,
        adversary: Box<dyn CrashAdversary>,
        fault_budget: usize,
        byzantine: NodeSet,
        host: H,
        execute: fn(&mut Self) -> Result<(), H::Error>,
    ) -> SimResult<Self> {
        if n == 0 {
            return Err(SimError::EmptySystem);
        }
        if fault_budget >= n {
            return Err(SimError::InvalidConfig(format!(
                "fault budget {fault_budget} must be smaller than the number of nodes {n}"
            )));
        }
        Ok(Engine {
            core: EngineCore::new(n, fault_budget),
            adversary,
            byz_running: byzantine.len(),
            byzantine,
            send_intents: (0..n).map(|_| Vec::new()).collect(),
            poll_intents: vec![None; n],
            ports: PortMap::new(),
            spares: Vec::new(),
            host,
            execute,
        })
    }

    /// Enables coarse-grained event tracing (crashes, decisions, halts).
    pub fn enable_trace(&mut self) -> &mut Self {
        self.core.trace = Trace::enabled();
        self
    }

    /// The recorded trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.core.n()
    }

    /// The current round (the next one to be executed).
    pub fn round(&self) -> Round {
        self.core.round
    }

    /// The metrics accumulated so far (also available via the report).
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Whether every node that has not crashed has halted voluntarily.
    /// O(1): running nodes are counted incrementally.
    pub fn all_non_faulty_halted(&self) -> bool {
        self.core.running_nodes() == self.byz_running
    }

    /// Runs rounds until every non-faulty node has halted or `max_rounds`
    /// rounds have been executed, and returns the execution report.
    pub(crate) fn try_run(
        &mut self,
        max_rounds: u64,
    ) -> Result<ExecutionReport<H::Output>, H::Error> {
        let mut termination = Termination::RoundLimit;
        for _ in 0..max_rounds {
            (self.execute)(self)?;
            if self.all_non_faulty_halted() {
                termination = Termination::AllHalted;
                break;
            }
        }
        self.host.finish_run();
        Ok(ExecutionReport {
            outputs: self.host.outputs(),
            crashed_at: self.core.crashed_at.clone(),
            halted_at: self.core.halted_at.clone(),
            byzantine: self.byzantine.clone(),
            metrics: self.core.metrics.clone(),
            termination,
        })
    }

    /// Phase 2 of both models, always central: the crash adversary picks
    /// this round's victims from one coherent view of the whole round.
    /// A victim's buffered ports are freed (it never polls again).
    pub(crate) fn crash_phase(&mut self) {
        self.core
            .apply_crash_phase(&mut *self.adversary, &self.send_intents, &self.poll_intents);
        for &idx in self.core.crashed_this_round() {
            if self.byzantine.contains(NodeId::new(idx)) {
                self.byz_running -= 1;
            }
            self.ports.drop_destination(idx);
        }
    }

    /// The end of both models' rounds: replays decision/halt events chunk
    /// by chunk, so they land in node-index order whatever the partition,
    /// frees halted nodes' buffered ports, and closes the round.
    pub(crate) fn replay_and_finish(&mut self) -> Result<(), H::Error> {
        let (core, ports) = (&mut self.core, &mut self.ports);
        for ci in 0..self.host.chunks() {
            self.host.replay_events(ci, &mut |node, output, halted| {
                if let Some(output) = output {
                    core.record_decision(node, output);
                }
                if halted {
                    core.mark_halted(node);
                    ports.drop_destination(node);
                }
            })?;
        }
        self.core.finish_round();
        Ok(())
    }
}

impl<H: Host> fmt::Debug for Engine<H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("n", &self.n())
            .field("round", &self.core.round)
            .field("crashes", &self.core.crashes)
            .field("chunks", &self.host.chunks())
            .finish_non_exhaustive()
    }
}

/// What the in-process host needs from a sans-I/O core type.
pub trait ChunkCore: Send + Sized + 'static {
    /// The message type the core's nodes exchange.
    type Msg: Payload;
    /// The core's output type.
    type Output: Clone + fmt::Debug + Send + 'static;
    /// Replays the last finalize's events (see [`Host::replay_events`]) and
    /// mirrors voluntary halts into the core's status.
    fn replay_events(&mut self, event: &mut EventSink<'_, Self::Output>);
    /// The core's first outputs, in node order.
    fn outputs(&self) -> &[Option<Self::Output>];
    /// Moves local nodes `at..` into a new core (between rounds only).
    fn split_off(&mut self, at: usize) -> Self;
    /// Appends the nodes of `other`, the core that follows this one
    /// (between rounds only).
    fn append(&mut self, other: Self);
}

/// The [`ChunkCore::replay_events`] body both core types share: hands each
/// event to `event` with the node's first output when it decided, then
/// mirrors a voluntary halt into the core-local status.
pub(crate) fn replay_core_events<O>(
    base: usize,
    events: &[NodeEvent],
    outputs: &[Option<O>],
    status: &mut [NodeStatus],
    event: &mut EventSink<'_, O>,
) {
    for e in events {
        let local = e.node - base;
        event(
            e.node,
            outputs[local].as_ref().filter(|_| e.decided),
            e.halted,
        );
        if e.halted {
            status[local] = NodeStatus::Halted;
        }
    }
}

/// The in-process host: the nodes live in sans-I/O cores in this process.
///
/// With one core (the default) every phase runs inline on the engine's
/// thread.  With `jobs > 1` and at least `fork_threshold` nodes, the nodes
/// are split into one core per [`WorkerPool`] worker and each phase body
/// runs on the pool: cores are moved to their pinned worker and back (the
/// ownership shuttle of [`crate::pool`]), so no state is shared and core
/// `i` always covers the same node range.
pub struct InProcess<C> {
    /// Worker threads for the phase bodies (1 = inline).
    jobs: usize,
    /// Node count from which `jobs > 1` engages the pool.
    fork_threshold: usize,
    /// Persistent phase workers, spawned on the first forked round and
    /// kept across re-partitions.
    pool: Option<WorkerPool>,
    /// The cores, partitioned per `plan`.  A slot is `None` only while its
    /// core is out on a pool worker.
    cores: Vec<Option<C>>,
    /// The partition `cores` follow.
    plan: ChunkPlan,
    /// The shared empty filter list for multi-port rounds without fresh
    /// crashes: cloning it is a refcount bump, so a filter list is only
    /// allocated in the at most `t` rounds in which a crash lands.
    pub(crate) no_filters: Arc<Vec<(usize, DeliveryFilter)>>,
}

impl<C: ChunkCore> InProcess<C> {
    /// A host over one inline core holding all `n` nodes.
    pub(crate) fn new(core: C, n: usize, fork_threshold: usize) -> Self {
        InProcess {
            jobs: 1,
            fork_threshold,
            pool: None,
            plan: ChunkPlan::new(n, 1),
            cores: vec![Some(core)],
            no_filters: Arc::new(Vec::new()),
        }
    }

    /// Re-partitions the cores for this round's job setting (and spawns or
    /// resizes the pool); a no-op when the partition already fits.
    pub(crate) fn prepare(&mut self, n: usize) {
        let jobs = if parallel::should_fork(n, self.jobs, self.fork_threshold) {
            self.jobs
        } else {
            1
        };
        let plan = ChunkPlan::new(n, jobs);
        if plan == self.plan {
            return;
        }
        if plan.chunks > 1 && self.pool.as_ref().map(WorkerPool::workers) != Some(plan.chunks) {
            self.pool = Some(WorkerPool::new(plan.chunks));
        }
        // Join every node into one core, then split it back out from the
        // end; the per-round scratch is empty between rounds.
        let mut cores = std::mem::take(&mut self.cores).into_iter().flatten();
        let mut whole = cores.next().expect("an engine holds at least one core");
        for core in cores {
            whole.append(core);
        }
        let mut split = Vec::with_capacity(plan.chunks);
        for ci in (1..plan.chunks).rev() {
            split.push(Some(whole.split_off(plan.range(ci, n).start)));
        }
        split.push(Some(whole));
        split.reverse();
        self.cores = split;
        self.plan = plan;
    }

    /// Runs one phase body over every core: inline while there is one
    /// core, on the pool otherwise (see [`WorkerPool::run_phase`] for the
    /// shuttle protocol and the panic behaviour).
    pub(crate) fn run_phase(&mut self, phase: impl Fn(&mut C) + Clone + Send + 'static) {
        if self.cores.len() > 1 {
            let pool = self
                .pool
                .as_ref()
                .expect("a partition above one core has a pool");
            pool.run_phase(&mut self.cores, phase);
        } else {
            phase(self.core(0));
        }
    }

    /// Core `ci` (between phases every core is home).
    pub(crate) fn core(&mut self, ci: usize) -> &mut C {
        self.cores[ci].as_mut().expect("core home between phases")
    }

    /// The core owning `node`, and the node's index within it.
    pub(crate) fn core_of(&mut self, node: usize) -> (&mut C, usize) {
        let ci = self.plan.chunk_of(node);
        let local = node - ci * self.plan.chunk_len;
        (self.core(ci), local)
    }

    /// Every core, in node order.
    pub(crate) fn cores_mut(&mut self) -> impl Iterator<Item = &mut C> {
        self.cores.iter_mut().flatten()
    }
}

impl<C: ChunkCore> Host for InProcess<C> {
    type Msg = C::Msg;
    type Output = C::Output;
    type Error = Infallible;

    fn chunks(&self) -> usize {
        self.cores.len()
    }

    fn replay_events(
        &mut self,
        ci: usize,
        event: &mut EventSink<'_, C::Output>,
    ) -> Result<(), Infallible> {
        self.core(ci).replay_events(event);
        Ok(())
    }

    fn outputs(&self) -> Vec<Option<C::Output>> {
        self.cores
            .iter()
            .flatten()
            .flat_map(|core| core.outputs().iter().cloned())
            .collect()
    }
}

/// The knobs and entry points of the in-process engines
/// ([`crate::Runner`], [`crate::SinglePortRunner`]).
impl<C: ChunkCore> Engine<InProcess<C>> {
    /// Sets the number of worker threads for the per-node phase loops.
    ///
    /// `1` (the default) keeps the single inline core; `0` means "pick for
    /// me" ([`parallel::available_jobs`]).  Parallel execution is
    /// deterministic — reports, metrics and traces are byte-identical to a
    /// serial run — so this is purely a performance knob.  Systems below
    /// the fork threshold stay on the single inline core regardless.
    pub fn set_jobs(&mut self, jobs: usize) -> &mut Self {
        self.host.jobs = parallel::effective_jobs(jobs);
        self
    }

    /// Builder-style variant of [`Engine::set_jobs`].
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.set_jobs(jobs);
        self
    }

    /// The configured worker-thread count.
    pub fn jobs(&self) -> usize {
        self.host.jobs
    }

    /// Overrides the node count from which `jobs > 1` engages the worker
    /// pool (the defaults are in [`crate::parallel`]).  Both paths are
    /// byte-identical; this only trades dispatch overhead against parallel
    /// speedup, e.g. for protocols with unusually heavy per-node work.
    pub fn set_fork_threshold(&mut self, nodes: usize) -> &mut Self {
        self.host.fork_threshold = nodes.max(1);
        self
    }

    /// Runs rounds until every non-faulty node has halted or `max_rounds`
    /// rounds have been executed, and returns the execution report.  May be
    /// called again to continue the same execution.
    pub fn run(&mut self, max_rounds: u64) -> ExecutionReport<C::Output> {
        self.try_run(max_rounds)
            .unwrap_or_else(|never| match never {})
    }

    /// Executes one synchronous round.
    pub fn step(&mut self) {
        (self.execute)(self).unwrap_or_else(|never| match never {});
    }
}
