//! The four workloads: which executions each runs, how their nodes are
//! built, and how one execution is run (untraced or traced) and checked.
//!
//! Inputs, seeds and adversaries are those of the `run_experiments --scale
//! paper --n 1000` rows E4/E6/E7/E8/E9: the builders below call the same
//! public `for_all_nodes` constructors with the same arguments as
//! `dft_bench`'s, and the crash adversary is the same `RandomCrashes`.  The
//! benchmark seed `s` (default 17) gives the executions seeds `s`, `s + 6`,
//! `s + 12`, `s + 14` and `s + 20`, so the default reproduces the table
//! seeds 17/23/29/31/37 and its counters are checked against those cells.

use std::io::{self, Read};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dft_auth::KeyDirectory;
use dft_bench::shard::recovery_totals;
use dft_bench::{Measurement, Workload};
use dft_core::{
    linear_consensus_for_all_nodes, AbConsensus, Checkpointing, ExtantSet, FcMsg,
    FewCrashesConsensus, Gossip, GossipMsg, LinearConsensus, SystemConfig,
};
use dft_sim::shard::{
    serve_multi_port, shard_count, shard_range, DeadlineTransport, Recovery, ShardTransport,
    ShardedRunner, StreamTransport, WireMsg, WireOutput,
};
use dft_sim::{
    CrashAdversary, ExecutionReport, NoFaults, NodeSet, Participant, RandomCrashes, Runner,
    SinglePortProtocol, SinglePortRunner, SyncProtocol, Termination,
};

use crate::layers::{
    BusyTransport, CountedSpProtocol, CountingTransport, Layers, TimedAdversary, TimedProtocol,
};

/// The benchmark seed whose executions are the E4/E6/E7/E8/E9 table rows.
pub const DEFAULT_SEED: u64 = 17;

/// Rounds allowed beyond a protocol's `total_rounds()`, as `dft_bench` allows.
const MULTI_PORT_SLACK: u64 = 2;
const SINGLE_PORT_SLACK: u64 = 4;

/// Shard worker processes in `sharded`: one per core of the 2-core machine
/// the benchmark was defined on.
const SHARDS: usize = 2;

/// Per-frame read deadline on the traced run's worker pipes (as generous as
/// `dft_bench`'s own).
const READ_DEADLINE: Duration = Duration::from_secs(120);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Crash,
    Byzantine,
    SinglePort,
    Sharded,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Crash,
        Kind::Byzantine,
        Kind::SinglePort,
        Kind::Sharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Crash => "crash",
            Kind::Byzantine => "byzantine",
            Kind::SinglePort => "single-port",
            Kind::Sharded => "sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// The workload's executions for benchmark seed `seed`.
    pub fn executions(self, seed: u64) -> Vec<Exec> {
        let pin = |exec: Exec, rounds, messages| Exec {
            cell: (seed == DEFAULT_SEED).then_some((rounds, messages)),
            ..exec
        };
        match self {
            Kind::Crash => vec![
                pin(Exec::new(Algo::FewCrashes, 1000, 125, seed), 654, 165_535),
                pin(Exec::new(Algo::Gossip, 1000, 125, seed), 280, 2_936_923),
                pin(
                    Exec::new(Algo::Checkpointing, 1000, 125, seed),
                    934,
                    3_228_735,
                ),
            ],
            Kind::Byzantine => vec![pin(
                Exec::new(Algo::AbConsensus, 1000, 31, seed),
                43,
                88_329,
            )],
            Kind::SinglePort => vec![pin(
                Exec::new(Algo::LinearConsensus, 1000, 125, seed),
                32_300,
                166_282,
            )],
            Kind::Sharded => vec![
                Exec::new(Algo::Gossip, 200, 25, seed).sharded(),
                Exec::new(Algo::FewCrashes, 2000, 250, seed).sharded(),
            ],
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    FewCrashes,
    Gossip,
    Checkpointing,
    AbConsensus,
    LinearConsensus,
}

impl Algo {
    fn name(self) -> &'static str {
        match self {
            Algo::FewCrashes => "few-crashes",
            Algo::Gossip => "gossip",
            Algo::Checkpointing => "checkpointing",
            Algo::AbConsensus => "ab-consensus",
            Algo::LinearConsensus => "linear-consensus",
        }
    }

    /// The offset from the benchmark seed to this execution's seed (the
    /// table's base seed minus 17).
    fn seed_offset(self) -> u64 {
        match self {
            Algo::FewCrashes => 0,
            Algo::Gossip => 6,
            Algo::Checkpointing => 12,
            Algo::AbConsensus => 14,
            Algo::LinearConsensus => 20,
        }
    }
}

/// One execution of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Exec {
    pub algo: Algo,
    pub w: Workload,
    /// The `RandomCrashes` seed (see `Exec::new`).
    pub adversary_seed: u64,
    /// Run across `SHARDS` worker processes instead of in this process.
    pub sharded: bool,
    /// The `run_experiments` cell (rounds, messages) this execution must
    /// reproduce, at the default seed.
    pub cell: Option<(u64, u64)>,
}

impl Exec {
    /// An in-process execution.  The benchmark seed drives the overlays,
    /// inputs and keys; the crash schedule stays the table row's
    /// (`RandomCrashes` with seed `17 + offset`).  Gossip and checkpointing
    /// cost about four times as much under schedules in which a crashed
    /// node's rumor never spreads, because extant sets then never fill and
    /// no merge short-circuits.  About 40 % of `RandomCrashes` seeds do
    /// that, so a schedule drawn from the benchmark seed would make `run_s`
    /// depend mostly on which seeds the benchmark is run with.
    fn new(algo: Algo, n: usize, t: usize, seed: u64) -> Exec {
        let offset = algo.seed_offset();
        let seed = seed.wrapping_add(offset);
        let w = if algo == Algo::AbConsensus {
            Workload::fault_free(n, t, seed)
        } else {
            Workload::full_budget(n, t, seed)
        };
        Exec {
            algo,
            w,
            adversary_seed: DEFAULT_SEED + offset,
            sharded: false,
            cell: None,
        }
    }

    /// A sharded execution.  `dft_bench::measure_*` draws the crash schedule
    /// from the workload seed, so here the benchmark seed drives it too.
    fn sharded(self) -> Exec {
        Exec {
            adversary_seed: self.w.seed,
            sharded: true,
            ..self
        }
    }

    pub fn label(&self) -> String {
        let shards = if self.sharded { ", sharded" } else { "" };
        format!(
            "{} n={} t={} seed={}{shards}",
            self.algo.name(),
            self.w.n,
            self.w.t,
            self.w.seed
        )
    }
}

/// What one execution produced.
pub struct ExecResult {
    /// Node construction: `for_all_nodes` plus key generation.
    pub setup: Duration,
    /// Round 0 until the report is back.
    pub run: Duration,
    pub n: usize,
    pub m: Measurement,
    /// Why the oracle rejected the execution, if it did.
    pub failure: Option<String>,
}

/// Runs `exec` once, untraced (`layers` is `None`) or traced.  An untraced
/// sharded execution with `check_serial` is also compared with a serial run
/// of the same inputs.
pub fn run(exec: &Exec, layers: Option<&mut Layers>, check_serial: bool) -> ExecResult {
    let w = &exec.w;
    match (exec.algo, exec.sharded) {
        (Algo::Gossip, true) => {
            run_sharded::<GossipMsg, ExtantSet, _>(exec, build_gossip(w), layers, check_serial)
        }
        (Algo::FewCrashes, true) => {
            run_sharded::<FcMsg<bool>, bool, _>(exec, build_few_crashes(w), layers, check_serial)
        }
        (algo, true) => unreachable!("{algo:?} is not a sharded execution"),
        (Algo::FewCrashes, false) => run_multi_port(exec, build_few_crashes(w), layers),
        (Algo::Gossip, false) => run_multi_port(exec, build_gossip(w), layers),
        (Algo::Checkpointing, false) => run_multi_port(exec, build_checkpointing(w), layers),
        (Algo::AbConsensus, false) => run_multi_port(exec, build_ab_consensus(w), layers),
        (Algo::LinearConsensus, false) => run_single_port(exec, build_linear(w), layers),
    }
}

// ---------------------------------------------------------------------------
// Node construction (the same calls as `dft_bench`'s builders)
// ---------------------------------------------------------------------------

struct Built<P> {
    nodes: Vec<P>,
    /// The protocol's round budget (`total_rounds()`).
    rounds: u64,
    build: Duration,
    keys: Duration,
}

impl<P> Built<P> {
    fn setup(&self) -> Duration {
        self.build + self.keys
    }

    fn record(&self, layers: &mut Layers) {
        layers.build += self.build;
        layers.keys += self.keys;
    }
}

fn config(w: &Workload) -> SystemConfig {
    SystemConfig::new(w.n, w.t)
        .expect("valid workload")
        .with_seed(w.seed)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

fn build_few_crashes(w: &Workload) -> Built<FewCrashesConsensus<bool>> {
    let (cfg, inputs) = (config(w), w.mixed_inputs());
    let (nodes, build) = timed(|| FewCrashesConsensus::for_all_nodes(&cfg, &inputs));
    let nodes = nodes.expect("few-crashes config");
    let rounds = nodes[0].total_rounds();
    Built {
        nodes,
        rounds,
        build,
        keys: Duration::ZERO,
    }
}

fn build_gossip(w: &Workload) -> Built<Gossip> {
    let cfg = config(w);
    let rumors: Vec<u64> = (0..w.n as u64).map(|i| 1_000 + i).collect();
    let (nodes, build) = timed(|| Gossip::for_all_nodes(&cfg, &rumors));
    let nodes = nodes.expect("gossip config");
    let rounds = nodes[0].total_rounds();
    Built {
        nodes,
        rounds,
        build,
        keys: Duration::ZERO,
    }
}

fn build_checkpointing(w: &Workload) -> Built<Checkpointing> {
    let cfg = config(w);
    let (nodes, build) = timed(|| Checkpointing::for_all_nodes(&cfg));
    let nodes = nodes.expect("checkpointing config");
    let rounds = nodes[0].total_rounds();
    Built {
        nodes,
        rounds,
        build,
        keys: Duration::ZERO,
    }
}

fn build_ab_consensus(w: &Workload) -> Built<AbConsensus> {
    let cfg = config(w);
    let inputs: Vec<u64> = (0..w.n as u64).collect();
    let (directory, keys) = timed(|| Arc::new(KeyDirectory::generate(w.n, w.seed)));
    let (nodes, build) = timed(|| AbConsensus::for_all_nodes(&cfg, &inputs, directory));
    let nodes = nodes.expect("ab-consensus config");
    let rounds = nodes[0].total_rounds();
    Built {
        nodes,
        rounds,
        build,
        keys,
    }
}

fn build_linear(w: &Workload) -> Built<LinearConsensus<bool>> {
    let (cfg, inputs) = (config(w), w.mixed_inputs());
    let (built, build) = timed(|| linear_consensus_for_all_nodes(&cfg, &inputs));
    let (nodes, rounds) = built.expect("linear-consensus config");
    Built {
        nodes,
        rounds,
        build,
        keys: Duration::ZERO,
    }
}

/// The crash adversary and fault budget `dft_bench` uses: `RandomCrashes`
/// over the protocol's horizon for the crash workloads, none for
/// AB-consensus.
fn adversary(exec: &Exec, horizon: u64) -> (Box<dyn CrashAdversary>, usize) {
    let w = &exec.w;
    if w.crashes == 0 {
        (Box::new(NoFaults), 0)
    } else {
        let crashes = RandomCrashes::new(w.n, w.crashes, horizon, exec.adversary_seed);
        (Box::new(crashes), w.t)
    }
}

// ---------------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------------

fn measurement<O: Clone + PartialEq + std::fmt::Debug>(report: &ExecutionReport<O>) -> Measurement {
    Measurement {
        rounds: report.metrics.rounds,
        messages: report.metrics.messages,
        bits: report.metrics.bits,
        all_decided: report.all_non_faulty_decided(),
        agreement: report.non_faulty_deciders_agree(),
        decider_fraction: report.deciders().len() as f64 / report.n() as f64,
    }
}

/// Checks one in-process execution: it halted within its round cap, every
/// non-faulty node decided, the deciders agree, and at the default seed the
/// counters equal the `run_experiments` cell.
fn finish<O: Clone + PartialEq + std::fmt::Debug>(
    exec: &Exec,
    setup: Duration,
    run: Duration,
    report: &ExecutionReport<O>,
) -> ExecResult {
    let m = measurement(report);
    let failure = if report.termination != Termination::AllHalted {
        Some("did not halt within total_rounds() plus slack".to_string())
    } else if !m.all_decided {
        Some("a non-faulty node did not decide".to_string())
    } else if !m.agreement {
        Some("non-faulty deciders disagree".to_string())
    } else {
        match exec.cell {
            Some((rounds, messages)) if (m.rounds, m.messages) != (rounds, messages) => Some(
                format!(
                    "rounds/messages {}/{} differ from the run_experiments cell {rounds}/{messages}",
                    m.rounds, m.messages
                ),
            ),
            _ => None,
        }
    };
    ExecResult {
        setup,
        run,
        n: exec.w.n,
        m,
        failure,
    }
}

// ---------------------------------------------------------------------------
// In-process runs
// ---------------------------------------------------------------------------

fn run_multi_port<P>(exec: &Exec, built: Built<P>, layers: Option<&mut Layers>) -> ExecResult
where
    P: SyncProtocol,
    P::Output: PartialEq,
{
    let setup = built.setup();
    let (adversary, budget) = adversary(exec, built.rounds);
    let cap = built.rounds + MULTI_PORT_SLACK;
    let Some(layers) = layers else {
        let start = Instant::now();
        let mut runner = Runner::with_adversary(built.nodes, adversary, budget).expect("runner");
        let report = runner.run(cap);
        return finish(exec, setup, start.elapsed(), &report);
    };
    built.record(layers);
    let nodes: Vec<_> = built.nodes.into_iter().map(TimedProtocol).collect();
    let (adversary, planning) = TimedAdversary::new(adversary);
    let start = Instant::now();
    let mut runner = Runner::with_adversary(nodes, Box::new(adversary), budget).expect("runner");
    let mut halted = false;
    for _ in 0..cap {
        let step = Instant::now();
        runner.step();
        layers.steps.push(step.elapsed());
        if runner.all_non_faulty_halted() {
            halted = true;
            break;
        }
    }
    let report = report_after_steps(runner.run(0), halted);
    let run = start.elapsed();
    layers.adversary += planning.get();
    layers.crashes += report.crashed().len() as u64;
    finish(exec, setup, run, &report)
}

fn run_single_port<P>(exec: &Exec, built: Built<P>, layers: Option<&mut Layers>) -> ExecResult
where
    P: SinglePortProtocol,
    P::Output: PartialEq,
{
    let setup = built.setup();
    let (adversary, budget) = adversary(exec, built.rounds);
    let cap = built.rounds + SINGLE_PORT_SLACK;
    let Some(layers) = layers else {
        let start = Instant::now();
        let mut runner =
            SinglePortRunner::with_adversary(built.nodes, adversary, budget).expect("runner");
        let report = runner.run(cap);
        return finish(exec, setup, start.elapsed(), &report);
    };
    built.record(layers);
    let nodes: Vec<_> = built.nodes.into_iter().map(CountedSpProtocol).collect();
    let start = Instant::now();
    let mut runner = SinglePortRunner::with_adversary(nodes, adversary, budget).expect("runner");
    let mut halted = false;
    for _ in 0..cap {
        let step = Instant::now();
        runner.step();
        layers.sp_steps.push(step.elapsed());
        layers.sp_ports_max = layers.sp_ports_max.max(runner.ports_in_use() as u64);
        layers.sp_buffered_max = layers
            .sp_buffered_max
            .max(runner.buffered_messages() as u64);
        if runner.all_non_faulty_halted() {
            halted = true;
            break;
        }
    }
    let report = report_after_steps(runner.run(0), halted);
    let run = start.elapsed();
    layers.crashes += report.crashed().len() as u64;
    finish(exec, setup, run, &report)
}

/// A traced run steps the runner itself, so that each `step` is clocked;
/// `run(0)` then executes no round and only assembles the report, whose
/// termination the stepping loop decided (as `run` would have).
fn report_after_steps<O>(mut report: ExecutionReport<O>, halted: bool) -> ExecutionReport<O> {
    if halted {
        report.termination = Termination::AllHalted;
    }
    report
}

// ---------------------------------------------------------------------------
// Sharded runs
// ---------------------------------------------------------------------------

/// A sharded execution.  Untraced, it runs the same inputs through
/// `dft_bench::measure_*` across `SHARDS` worker processes, and no worker
/// recovery may run; with `check_serial` it first runs the serial reference
/// on the built nodes (unclocked), which the sharded result must equal.
/// Traced, it drives `ShardedRunner::connect` itself over counting
/// transports to worker processes serving `serve_multi_port` (this binary's
/// `--trace-shard-worker`), with the same pipe transport and frame retention
/// as `dft_bench`.  In both, `setup` is the in-process build; the workers'
/// own builds fall inside `run`.
fn run_sharded<M, O, P>(
    exec: &Exec,
    built: Built<P>,
    layers: Option<&mut Layers>,
    check_serial: bool,
) -> ExecResult
where
    M: WireMsg,
    O: WireOutput,
    P: SyncProtocol<Msg = M, Output = O>,
{
    let setup = built.setup();
    let rounds = built.rounds;
    let w = exec.w.with_shards(SHARDS);
    let Some(layers) = layers else {
        let reference = check_serial.then(|| run_multi_port(exec, built, None));
        let measure = match exec.algo {
            Algo::Gossip => dft_bench::measure_gossip,
            _ => dft_bench::measure_few_crashes,
        };
        let recovered_before = recovery_totals();
        let start = Instant::now();
        let m = measure(&w);
        let run = start.elapsed();
        let failure = if recovery_totals() != recovered_before {
            Some("a shard worker was respawned or replaced in-process".to_string())
        } else {
            reference.and_then(|serial| match serial.failure {
                Some(why) => Some(format!("serial reference: {why}")),
                None => (m != serial.m)
                    .then(|| format!("sharded result {m:?} differs from serial {:?}", serial.m)),
            })
        };
        return ExecResult {
            setup,
            run,
            n: exec.w.n,
            m,
            failure,
        };
    };
    built.record(layers);
    drop(built.nodes);
    let start = Instant::now();
    let mut children = Vec::new();
    let mut transports: Vec<Box<dyn ShardTransport>> = Vec::new();
    for index in 0..shard_count(w.n, w.shards) {
        let (child, pipe) = spawn_traced_worker(exec.algo, &w, index);
        children.push(child);
        transports.push(Box::new(CountingTransport::new(
            pipe,
            Arc::clone(&layers.transport),
        )));
    }
    let (adversary, budget) = adversary(exec, rounds);
    let (adversary, planning) = TimedAdversary::new(adversary);
    let mut runner = ShardedRunner::<M, O>::connect(
        w.n,
        Box::new(adversary),
        budget,
        NodeSet::empty(w.n),
        w.shards,
        transports,
    )
    .expect("sharded coordinator");
    // Arm recovery as `dft_bench` does, so that the coordinator retains its
    // request frames for replay here too; a worker failure still fails the
    // run, since there is nothing to respawn from.
    runner.set_recovery(Recovery::new(
        0,
        Box::new(|_| Err(io::Error::other("the traced run does not respawn workers"))),
    ));
    let report = runner
        .run(rounds + MULTI_PORT_SLACK)
        .expect("sharded execution");
    drop(runner);
    for child in children {
        layers.worker_busy += reap_traced_worker(child);
    }
    let run = start.elapsed();
    layers.shard_rounds += report.metrics.rounds;
    layers.shard_run += run;
    layers.adversary += planning.get();
    layers.crashes += report.crashed().len() as u64;
    finish(exec, setup, run, &report)
}

fn spawn_traced_worker(algo: Algo, w: &Workload, index: usize) -> (Child, Box<dyn ShardTransport>) {
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    let args = [
        algo.name().to_string(),
        w.n.to_string(),
        w.t.to_string(),
        w.crashes.to_string(),
        w.seed.to_string(),
        w.shards.to_string(),
        index.to_string(),
    ];
    let mut child = Command::new(exe)
        .arg("--trace-shard-worker")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning a traced shard worker");
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut pipe = DeadlineTransport::new(stdout, stdin, READ_DEADLINE);
    // Like `dft_bench`'s handshake, wait until this worker has built its
    // nodes before spawning the next one.
    let ready = pipe.recv().expect("a traced shard worker's ready frame");
    assert_eq!(
        ready, READY,
        "unexpected ready frame from a traced shard worker"
    );
    (child, Box::new(pipe))
}

/// Waits for a traced worker and returns the busy time it reported.
fn reap_traced_worker(mut child: Child) -> Duration {
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("reading a shard worker's stderr");
    let status = child.wait().expect("waiting for a shard worker");
    let busy = stderr
        .lines()
        .find_map(|line| line.strip_prefix("busy_ns="))
        .and_then(|ns| ns.parse().ok());
    match busy {
        Some(ns) if status.success() => Duration::from_nanos(ns),
        _ => panic!("traced shard worker failed ({status}):\n{stderr}"),
    }
}

/// The body of `--trace-shard-worker ALGO N T CRASHES SEED SHARDS INDEX`:
/// rebuilds the execution's nodes, serves this shard's range over
/// stdin/stdout, and reports its busy time on stderr.
pub fn serve_traced_worker(args: &[String]) -> ExitCode {
    match serve_traced(args) {
        Ok(busy) => {
            eprintln!("busy_ns={}", busy.as_nanos());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench --trace-shard-worker: {err}");
            ExitCode::FAILURE
        }
    }
}

fn serve_traced(args: &[String]) -> io::Result<Duration> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidInput, what.to_string());
    let [algo, numbers @ ..] = args else {
        return Err(bad("missing arguments"));
    };
    let numbers: Vec<u64> = numbers
        .iter()
        .map(|arg| arg.parse().map_err(|_| bad("non-numeric argument")))
        .collect::<io::Result<_>>()?;
    let [n, t, crashes, seed, shards, index] = numbers[..] else {
        return Err(bad("expected ALGO N T CRASHES SEED SHARDS INDEX"));
    };
    let w = Workload {
        n: n as usize,
        t: t as usize,
        crashes: crashes as usize,
        seed,
        jobs: 1,
        shards: shards as usize,
    };
    let index = index as usize;
    if index >= shard_count(w.n, w.shards) {
        return Err(bad("shard index out of range"));
    }
    let mut transport = BusyTransport::new(StreamTransport::new(io::stdin(), io::stdout()));
    match algo.as_str() {
        "gossip" => serve_chunk(build_gossip(&w).nodes, &w, index, &mut transport)?,
        "few-crashes" => serve_chunk(build_few_crashes(&w).nodes, &w, index, &mut transport)?,
        _ => return Err(bad("unknown sharded algorithm")),
    }
    Ok(transport.busy)
}

/// The frame a traced worker sends once its nodes are built.
const READY: &[u8] = b"ready";

fn serve_chunk<P: SyncProtocol>(
    nodes: Vec<P>,
    w: &Workload,
    index: usize,
    transport: &mut dyn ShardTransport,
) -> io::Result<()>
where
    P::Msg: dft_sim::shard::Wire,
    P::Output: dft_sim::shard::Wire,
{
    transport.send(READY)?;
    let range = shard_range(w.n, w.shards, index);
    let chunk: Vec<Participant<P>> = nodes
        .into_iter()
        .skip(range.start)
        .take(range.len())
        .map(Participant::Honest)
        .collect();
    serve_multi_port(chunk, range.start, transport)
}
