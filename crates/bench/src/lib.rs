//! # dft-bench — experiment harness
//!
//! Regenerates the paper's Table 1 and the per-theorem complexity claims as
//! measured tables (see `DESIGN.md`, "Per-experiment index", and
//! `EXPERIMENTS.md` for paper-vs-measured discussion).  The harness exposes
//! one `measure_*` function per algorithm/baseline — each runs a full
//! simulated execution and returns a [`Measurement`] — plus one `experiment_*`
//! function per experiment id (E1–E11) returning a printable [`Table`].
//!
//! `cargo run -p dft-bench --bin run_experiments` prints every table;
//! `cargo bench` runs the corresponding criterion benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod diag;
pub mod experiments;
pub mod shard;

use std::sync::Arc;

use dft_auth::KeyDirectory;
use dft_baselines::{AllToAllGossip, FloodingConsensus, NaiveCheckpointing, ParallelDsConsensus};
use dft_core::{
    linear_consensus_for_all_nodes, AbConsensus, AlmostEverywhereAgreement, Checkpointing,
    FewCrashesConsensus, Gossip, ManyCrashesConsensus, SpreadCommonValue, SystemConfig,
};
use std::io;

use dft_sim::shard::{
    serve_multi_port, serve_single_port, MultiPort, Recovery, RecoveryStats, ShardTransport,
    ShardedRunner, SinglePort, SpShardedRunner, WireMsg, WireOutput,
};
use dft_sim::{
    CrashAdversary, ExecutionReport, NoFaults, NodeSet, Participant, RandomCrashes, Runner,
    SinglePortProtocol, SinglePortRunner, SyncProtocol,
};
use serde::{Deserialize, Serialize};

/// One measured execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Rounds until all non-faulty nodes halted (or the cap).
    pub rounds: u64,
    /// Messages sent by non-faulty nodes.
    pub messages: u64,
    /// Bits sent by non-faulty nodes.
    pub bits: u64,
    /// Whether every non-faulty node decided.
    pub all_decided: bool,
    /// Whether all non-faulty deciders agreed.
    pub agreement: bool,
    /// Fraction of nodes that decided (relevant for almost-everywhere
    /// agreement).
    pub decider_fraction: f64,
}

impl Measurement {
    fn from_report<O: Clone + PartialEq + std::fmt::Debug>(report: &ExecutionReport<O>) -> Self {
        Measurement {
            rounds: report.metrics.rounds,
            messages: report.metrics.messages,
            bits: report.metrics.bits,
            all_decided: report.all_non_faulty_decided(),
            agreement: report.non_faulty_deciders_agree(),
            decider_fraction: report.deciders().len() as f64 / report.n() as f64,
        }
    }
}

/// A workload: system size, fault budget and how many of the budgeted
/// crashes the adversary actually uses.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Workload {
    /// Number of nodes.
    pub n: usize,
    /// Fault bound `t`.
    pub t: usize,
    /// Crashes actually injected (`≤ t`).
    pub crashes: usize,
    /// Seed for overlays, inputs and crash schedules.
    pub seed: u64,
    /// Worker threads for the runner's phase loops (1 = serial; purely a
    /// performance knob — measurements are byte-identical at any setting).
    pub jobs: usize,
    /// Shard worker **processes** the execution is partitioned across
    /// (1 = this process only).  Like `jobs`, purely a performance /
    /// topology knob: sharded measurements are byte-identical to local
    /// ones — the determinism suite pins this.
    pub shards: usize,
}

impl Workload {
    /// A crash-free workload.
    pub fn fault_free(n: usize, t: usize, seed: u64) -> Self {
        Workload {
            n,
            t,
            crashes: 0,
            seed,
            jobs: 1,
            shards: 1,
        }
    }

    /// A workload that uses the full crash budget.
    pub fn full_budget(n: usize, t: usize, seed: u64) -> Self {
        Workload {
            n,
            t,
            crashes: t,
            seed,
            jobs: 1,
            shards: 1,
        }
    }

    /// Sets the runner worker-thread count (see [`dft_sim::Runner::set_jobs`];
    /// `0` lets the runner pick the machine's available parallelism).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the number of shard worker processes (see [`crate::shard`];
    /// `0` and `1` both mean "run in this process").
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The deterministic mixed boolean inputs every execution path derives
    /// from `(n, seed)` alone — `measure_*`, shard workers and the
    /// `dft-node` cluster all call this so a process can rebuild its input
    /// without any input wiring on the command line.
    pub fn mixed_inputs(&self) -> Vec<bool> {
        (0..self.n)
            .map(|i| (i + self.seed as usize).is_multiple_of(2))
            .collect()
    }
}

fn config(w: &Workload) -> SystemConfig {
    SystemConfig::new(w.n, w.t)
        .expect("valid workload")
        .with_seed(w.seed)
}

/// A deterministically constructed node set plus the protocol's round
/// budget.  Both the local `measure_*` path and a `--shard-worker` process
/// build through these, so a shard worker reconstructs byte-identical nodes
/// from the workload alone (see [`crate::shard`]).
pub(crate) struct BuiltNodes<P> {
    pub(crate) nodes: Vec<P>,
    pub(crate) rounds: u64,
}

pub(crate) fn build_aea(w: &Workload) -> BuiltNodes<AlmostEverywhereAgreement<bool>> {
    let cfg = config(w);
    let inputs = w.mixed_inputs();
    let nodes = AlmostEverywhereAgreement::for_all_nodes(&cfg, &inputs).expect("config");
    let rounds = dft_core::AeaConfig::from_system(&cfg)
        .expect("config")
        .total_rounds();
    BuiltNodes { nodes, rounds }
}

pub(crate) fn build_scv(w: &Workload) -> BuiltNodes<SpreadCommonValue<bool>> {
    let cfg = config(w);
    let initialized = 3 * w.n / 5 + 1;
    let initials: Vec<Option<bool>> = (0..w.n)
        .map(|i| (i >= w.n - initialized).then_some(true))
        .collect();
    let nodes = SpreadCommonValue::for_all_nodes(&cfg, &initials).expect("config");
    let rounds = dft_core::ScvConfig::from_system(&cfg)
        .expect("config")
        .total_rounds();
    BuiltNodes { nodes, rounds }
}

pub(crate) fn build_few_crashes(w: &Workload) -> BuiltNodes<FewCrashesConsensus<bool>> {
    let cfg = config(w);
    let inputs = w.mixed_inputs();
    let nodes = FewCrashesConsensus::for_all_nodes(&cfg, &inputs).expect("config");
    let rounds = nodes[0].total_rounds();
    BuiltNodes { nodes, rounds }
}

pub(crate) fn build_many_crashes(w: &Workload) -> BuiltNodes<ManyCrashesConsensus> {
    let cfg = config(w);
    let inputs = w.mixed_inputs();
    let nodes = ManyCrashesConsensus::for_all_nodes(&cfg, &inputs).expect("config");
    let rounds = nodes[0].total_rounds();
    BuiltNodes { nodes, rounds }
}

pub(crate) fn build_gossip(w: &Workload) -> BuiltNodes<Gossip> {
    let cfg = config(w);
    let rumors: Vec<u64> = (0..w.n as u64).map(|i| 1_000 + i).collect();
    let nodes = Gossip::for_all_nodes(&cfg, &rumors).expect("config");
    let rounds = nodes[0].total_rounds();
    BuiltNodes { nodes, rounds }
}

pub(crate) fn build_checkpointing(w: &Workload) -> BuiltNodes<Checkpointing> {
    let cfg = config(w);
    let nodes = Checkpointing::for_all_nodes(&cfg).expect("config");
    let rounds = nodes[0].total_rounds();
    BuiltNodes { nodes, rounds }
}

pub(crate) fn build_ab_consensus(w: &Workload) -> BuiltNodes<AbConsensus> {
    let cfg = config(w);
    let directory = Arc::new(KeyDirectory::generate(w.n, w.seed));
    let inputs: Vec<u64> = (0..w.n as u64).collect();
    let nodes = AbConsensus::for_all_nodes(&cfg, &inputs, directory).expect("config");
    let rounds = nodes[0].total_rounds();
    BuiltNodes { nodes, rounds }
}

pub(crate) fn build_linear_consensus(w: &Workload) -> BuiltNodes<dft_core::LinearConsensus<bool>> {
    let cfg = config(w);
    let inputs = w.mixed_inputs();
    let (nodes, sp_rounds) = linear_consensus_for_all_nodes(&cfg, &inputs).expect("config");
    BuiltNodes {
        nodes,
        rounds: sp_rounds,
    }
}

pub(crate) fn build_flooding(w: &Workload) -> BuiltNodes<FloodingConsensus> {
    let inputs = w.mixed_inputs();
    BuiltNodes {
        nodes: FloodingConsensus::for_all_nodes(w.n, w.t, &inputs),
        rounds: FloodingConsensus::total_rounds(w.t),
    }
}

pub(crate) fn build_all_to_all_gossip(w: &Workload) -> BuiltNodes<AllToAllGossip> {
    let rumors: Vec<u64> = (0..w.n as u64).map(|i| 1_000 + i).collect();
    BuiltNodes {
        nodes: AllToAllGossip::for_all_nodes(w.n, w.t, &rumors),
        rounds: AllToAllGossip::total_rounds(w.t),
    }
}

pub(crate) fn build_naive_checkpointing(w: &Workload) -> BuiltNodes<NaiveCheckpointing> {
    BuiltNodes {
        nodes: NaiveCheckpointing::for_all_nodes(w.n, w.t),
        rounds: NaiveCheckpointing::total_rounds(w.t),
    }
}

pub(crate) fn build_parallel_ds(w: &Workload) -> BuiltNodes<ParallelDsConsensus> {
    let directory = Arc::new(KeyDirectory::generate(w.n, w.seed));
    let inputs: Vec<u64> = (0..w.n as u64).collect();
    BuiltNodes {
        nodes: ParallelDsConsensus::for_all_nodes(w.n, w.t, &inputs, directory),
        rounds: ParallelDsConsensus::total_rounds(w.t),
    }
}

/// One execution of a table entry: the entry, its workload, and the
/// protocol's round budget.
#[derive(Clone, Copy)]
pub(crate) struct Job<'w> {
    pub(crate) kind: MeasureKind,
    pub(crate) w: &'w Workload,
    pub(crate) rounds: u64,
}

impl Job<'_> {
    /// The crash adversary and fault budget the entry runs under (the
    /// authenticated-Byzantine measurements run fault-free with budget 0).
    pub(crate) fn adversary(&self) -> (Box<dyn CrashAdversary>, usize) {
        let w = self.w;
        match (self.kind.uses_crash_adversary(), w.crashes) {
            (false, _) => (Box::new(NoFaults), 0),
            (true, 0) => (Box::new(NoFaults), w.t),
            (true, crashes) => {
                let schedule = RandomCrashes::new(w.n, crashes, self.rounds, w.seed);
                (Box::new(schedule), w.t)
            }
        }
    }

    /// The round cap: the protocol's budget plus the entry's slack.
    pub(crate) fn max_rounds(&self) -> u64 {
        self.rounds + self.kind.round_slack()
    }
}

/// A communication model's ways into the round engine for nodes of type
/// `P`: the in-process runner, the shard coordinator, and the shard
/// worker's serve loop.
pub(crate) trait Model<P> {
    /// Runs `nodes` in this process.
    fn run_local(nodes: Vec<P>, job: Job<'_>) -> Measurement;
    /// Runs the job's nodes served behind shard `transports`.
    fn run_sharded(
        transports: Vec<Box<dyn ShardTransport>>,
        recovery: Recovery,
        job: Job<'_>,
    ) -> (Measurement, RecoveryStats);
    /// Serves one shard's `nodes`, the first of which is node `base`.
    fn serve(nodes: Vec<P>, base: usize, transport: &mut dyn ShardTransport) -> io::Result<()>;
}

impl<P: SyncProtocol<Msg: WireMsg, Output: WireOutput>> Model<P> for MultiPort {
    fn run_local(nodes: Vec<P>, job: Job<'_>) -> Measurement {
        let (adversary, budget) = job.adversary();
        let runner = Runner::with_adversary(nodes, adversary, budget).expect("runner");
        Measurement::from_report(&runner.with_jobs(job.w.jobs).run(job.max_rounds()))
    }

    fn run_sharded(
        transports: Vec<Box<dyn ShardTransport>>,
        recovery: Recovery,
        job: Job<'_>,
    ) -> (Measurement, RecoveryStats) {
        let (adversary, budget) = job.adversary();
        let (n, byzantine) = (job.w.n, NodeSet::empty(job.w.n));
        let mut runner = ShardedRunner::<P::Msg, P::Output>::connect(
            n,
            adversary,
            budget,
            byzantine,
            job.w.shards,
            transports,
        )
        .expect("sharded coordinator");
        runner.set_recovery(recovery);
        let report = runner.run(job.max_rounds()).expect("sharded execution");
        (Measurement::from_report(&report), runner.recovery_stats())
    }

    fn serve(nodes: Vec<P>, base: usize, transport: &mut dyn ShardTransport) -> io::Result<()> {
        let participants = nodes.into_iter().map(Participant::Honest).collect();
        serve_multi_port(participants, base, transport)
    }
}

impl<P: SinglePortProtocol<Msg: WireMsg, Output: WireOutput>> Model<P> for SinglePort {
    fn run_local(nodes: Vec<P>, job: Job<'_>) -> Measurement {
        let (adversary, budget) = job.adversary();
        let runner = SinglePortRunner::with_adversary(nodes, adversary, budget).expect("runner");
        Measurement::from_report(&runner.with_jobs(job.w.jobs).run(job.max_rounds()))
    }

    fn run_sharded(
        transports: Vec<Box<dyn ShardTransport>>,
        recovery: Recovery,
        job: Job<'_>,
    ) -> (Measurement, RecoveryStats) {
        let (adversary, budget) = job.adversary();
        let mut runner = SpShardedRunner::<P::Msg, P::Output>::connect(
            job.w.n,
            adversary,
            budget,
            job.w.shards,
            transports,
        )
        .expect("sharded coordinator");
        runner.set_recovery(recovery);
        let report = runner.run(job.max_rounds()).expect("sharded execution");
        (Measurement::from_report(&report), runner.recovery_stats())
    }

    fn serve(nodes: Vec<P>, base: usize, transport: &mut dyn ShardTransport) -> io::Result<()> {
        serve_single_port(nodes, base, transport)
    }
}

/// A computation over one measurement table entry: its kind, node builder
/// and model.
pub(crate) trait Visit {
    /// What the computation returns.
    type Out;
    /// Runs the computation for the entry `kind`.
    fn visit<Md: Model<P>, P>(
        self,
        kind: MeasureKind,
        build: fn(&Workload) -> BuiltNodes<P>,
    ) -> Self::Out;
}

/// Declares the measurement table: one entry per `measure_*` function.
macro_rules! measurements {
    ($($(#[$doc:meta])* $kind:ident = $code:literal: $build:ident, $model:ident,
        crash adversary: $crash:literal, round slack: $slack:literal;)+) => {
        /// Which measurement to run — locally, or rebuilt by a shard worker.
        ///
        /// The code is part of the shard handshake wire format; variants map
        /// 1:1 onto the crate's `measure_*` functions.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum MeasureKind {
            $($(#[$doc])* $kind,)+
        }

        impl MeasureKind {
            pub(crate) fn code(self) -> u8 {
                match self {
                    $(MeasureKind::$kind => $code,)+
                }
            }

            pub(crate) fn from_code(code: u8) -> Option<MeasureKind> {
                match code {
                    $($code => Some(MeasureKind::$kind),)+
                    _ => None,
                }
            }

            /// Whether the kind runs under the workload's crash adversary
            /// (the authenticated-Byzantine measurements run fault-free
            /// with budget 0).
            pub(crate) fn uses_crash_adversary(self) -> bool {
                match self {
                    $(MeasureKind::$kind => $crash,)+
                }
            }

            /// Extra rounds allowed beyond the protocol's round budget.
            pub(crate) fn round_slack(self) -> u64 {
                match self {
                    $(MeasureKind::$kind => $slack,)+
                }
            }

            /// Hands this kind's builder and model to `visitor`.
            pub(crate) fn visit<V: Visit>(self, visitor: V) -> V::Out {
                match self {
                    $(MeasureKind::$kind => visitor.visit::<$model, _>(self, $build),)+
                }
            }
        }
    };
}

measurements! {
    /// `measure_aea` (Theorem 5).
    Aea = 0: build_aea, MultiPort, crash adversary: true, round slack: 2;
    /// `measure_scv` (Theorem 6).
    Scv = 1: build_scv, MultiPort, crash adversary: true, round slack: 2;
    /// `measure_few_crashes` (Theorem 7).
    FewCrashes = 2: build_few_crashes, MultiPort, crash adversary: true, round slack: 2;
    /// `measure_many_crashes` (Theorem 8).
    ManyCrashes = 3: build_many_crashes, MultiPort, crash adversary: true, round slack: 2;
    /// `measure_gossip` (Theorem 9).
    Gossip = 4: build_gossip, MultiPort, crash adversary: true, round slack: 2;
    /// `measure_checkpointing` (Theorem 10).
    Checkpointing = 5: build_checkpointing, MultiPort, crash adversary: true, round slack: 2;
    /// `measure_ab_consensus` (Theorem 11).
    AbConsensus = 6: build_ab_consensus, MultiPort, crash adversary: false, round slack: 2;
    /// `measure_linear_consensus` (Theorem 12, single-port).
    LinearConsensus = 7: build_linear_consensus, SinglePort, crash adversary: true, round slack: 4;
    /// `measure_flooding` (baseline).
    Flooding = 8: build_flooding, MultiPort, crash adversary: true, round slack: 2;
    /// `measure_all_to_all_gossip` (baseline).
    AllToAllGossip = 9: build_all_to_all_gossip, MultiPort, crash adversary: true, round slack: 2;
    /// `measure_naive_checkpointing` (baseline).
    NaiveCheckpointing = 10: build_naive_checkpointing, MultiPort, crash adversary: true, round slack: 2;
    /// `measure_parallel_ds` (baseline).
    ParallelDs = 11: build_parallel_ds, MultiPort, crash adversary: false, round slack: 2;
}

/// Runs one table entry in this process.
struct Local<'w>(&'w Workload);

impl Visit for Local<'_> {
    type Out = Measurement;

    fn visit<Md: Model<P>, P>(
        self,
        kind: MeasureKind,
        build: fn(&Workload) -> BuiltNodes<P>,
    ) -> Measurement {
        let built = build(self.0);
        let rounds = built.rounds;
        Md::run_local(
            built.nodes,
            Job {
                kind,
                w: self.0,
                rounds,
            },
        )
    }
}

/// Runs one measurement: in this process, or across `w.shards` worker
/// processes (byte-identical either way).
fn measure(kind: MeasureKind, w: &Workload) -> Measurement {
    if w.shards > 1 {
        shard::measure_sharded(kind, w)
    } else {
        kind.visit(Local(w))
    }
}

/// Measures `Almost-Everywhere-Agreement` (Theorem 5).
pub fn measure_aea(w: &Workload) -> Measurement {
    measure(MeasureKind::Aea, w)
}

/// Measures `Spread-Common-Value` (Theorem 6) with 3/5·n initialized nodes.
pub fn measure_scv(w: &Workload) -> Measurement {
    measure(MeasureKind::Scv, w)
}

/// Measures `Few-Crashes-Consensus` (Theorem 7).
pub fn measure_few_crashes(w: &Workload) -> Measurement {
    measure(MeasureKind::FewCrashes, w)
}

/// Measures `Many-Crashes-Consensus` (Theorem 8 / Corollary 1).
pub fn measure_many_crashes(w: &Workload) -> Measurement {
    measure(MeasureKind::ManyCrashes, w)
}

/// Measures `Gossip` (Theorem 9).
pub fn measure_gossip(w: &Workload) -> Measurement {
    measure(MeasureKind::Gossip, w)
}

/// Measures `Checkpointing` (Theorem 10).
pub fn measure_checkpointing(w: &Workload) -> Measurement {
    measure(MeasureKind::Checkpointing, w)
}

/// Measures `AB-Consensus` (Theorem 11) with all-honest participants (the
/// cost side of the theorem counts non-faulty messages, which is maximised
/// when everyone is honest).
pub fn measure_ab_consensus(w: &Workload) -> Measurement {
    measure(MeasureKind::AbConsensus, w)
}

/// Measures single-port `Linear-Consensus` (Theorem 12).
pub fn measure_linear_consensus(w: &Workload) -> Measurement {
    measure(MeasureKind::LinearConsensus, w)
}

/// Measures the flooding-consensus baseline.
pub fn measure_flooding(w: &Workload) -> Measurement {
    measure(MeasureKind::Flooding, w)
}

/// Measures the all-to-all gossip baseline.
pub fn measure_all_to_all_gossip(w: &Workload) -> Measurement {
    measure(MeasureKind::AllToAllGossip, w)
}

/// Measures the naive checkpointing baseline.
pub fn measure_naive_checkpointing(w: &Workload) -> Measurement {
    measure(MeasureKind::NaiveCheckpointing, w)
}

/// Measures the parallel Dolev–Strong Byzantine baseline.
pub fn measure_parallel_ds(w: &Workload) -> Measurement {
    measure(MeasureKind::ParallelDs, w)
}

/// A labelled table of measurement rows, printable as aligned text.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table {
    /// Experiment identifier (e.g. `"E4 thm7_few_crashes"`).
    pub id: String,
    /// What the paper claims for this experiment.
    pub paper_claim: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells, already rendered as strings.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, paper_claim: &str, columns: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            paper_claim: paper_claim.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Sums the parseable integer cells of the column named `name`, if the
    /// table has one.  This is how the perf baseline (`--bench-json`) reads
    /// message/bit totals out of an experiment without every experiment
    /// having to thread counters through separately; non-numeric cells
    /// (e.g. `yes`/`no`) contribute nothing.
    pub fn column_sum(&self, name: &str) -> Option<u64> {
        let index = self.columns.iter().position(|c| c == name)?;
        Some(
            self.rows
                .iter()
                .filter_map(|row| row.get(index))
                .filter_map(|cell| cell.parse::<u64>().ok())
                .sum(),
        )
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.id));
        out.push_str(&format!("paper: {}\n", self.paper_claim));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Workload {
        Workload::full_budget(60, 8, 3)
    }

    #[test]
    fn consensus_measurements_report_agreement() {
        let m = measure_few_crashes(&small());
        assert!(m.all_decided);
        assert!(m.agreement);
        assert!(m.rounds > 0 && m.messages > 0);
    }

    #[test]
    fn aea_measurement_reports_decider_fraction() {
        let m = measure_aea(&small());
        assert!(m.agreement);
        assert!(m.decider_fraction >= 0.6 || m.all_decided);
    }

    #[test]
    fn baselines_are_more_expensive_in_messages() {
        let w = Workload::fault_free(80, 10, 5);
        let ours = measure_few_crashes(&w);
        let flooding = measure_flooding(&w);
        assert!(
            flooding.messages > ours.messages,
            "{} vs {}",
            flooding.messages,
            ours.messages
        );
    }

    #[test]
    fn table_renders_all_rows() {
        let mut table = Table::new("T", "claim", &["a", "b"]);
        table.push_row(vec!["1".into(), "2".into()]);
        table.push_row(vec!["333".into(), "4".into()]);
        let text = table.render();
        assert!(text.contains("claim"));
        assert!(text.contains("333"));
        assert_eq!(text.lines().count(), 6);
    }

    #[test]
    fn column_sum_totals_numeric_cells_only() {
        let mut table = Table::new("T", "claim", &["n", "messages", "agreement"]);
        table.push_row(vec!["60".into(), "100".into(), "yes".into()]);
        table.push_row(vec!["120".into(), "250".into(), "no".into()]);
        assert_eq!(table.column_sum("messages"), Some(350));
        assert_eq!(table.column_sum("agreement"), Some(0), "no numeric cells");
        assert_eq!(table.column_sum("bits"), None, "no such column");
    }

    #[test]
    fn workload_constructors() {
        let w = Workload::fault_free(10, 1, 0);
        assert_eq!(w.crashes, 0);
        let w = Workload::full_budget(10, 1, 0);
        assert_eq!(w.crashes, 1);
    }
}
