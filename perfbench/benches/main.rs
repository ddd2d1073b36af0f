//! The repository benchmark.
//!
//! ```text
//! perfbench --workload crash|byzantine|single-port|sharded|all
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs the workload's executions once to warm up, then repeats them until
//! `--seconds` have passed (at least five times), checks every execution,
//! prints each metric by name with its unit, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics, medians over untraced
//! repetitions.  `--trace 1` alternates untraced and traced repetitions and
//! reports the per-layer metrics, medians over the traced ones.  Any failed
//! execution makes the exit code 1.  The package's `README.md` describes the
//! workloads, the metrics and the layer table.

mod layers;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::Layers;
use workloads::{ExecResult, Kind, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload crash|byzantine|single-port|sharded|all \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Timed repetitions every run makes after its warm-up, however short
/// `--seconds` is.
const MIN_REPS: usize = 5;

struct Options {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut kinds = None;
        let mut opts = Options {
            kinds: Vec::new(),
            seed: DEFAULT_SEED,
            seconds: 10,
            trace: false,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
            };
            match flag.as_str() {
                "--workload" if value == "all" => kinds = Some(Kind::ALL.to_vec()),
                "--workload" => {
                    let kind =
                        Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                    kinds = Some(vec![kind]);
                }
                "--seed" => opts.seed = number()?,
                "--seconds" => opts.seconds = number()?,
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        opts.kinds = kinds.ok_or("--workload is required")?;
        Ok(opts)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        // `dft_bench`'s sharded measurements spawn this binary as a worker.
        Some("--shard-worker") => return dft_bench::shard::serve_stdio(),
        Some("--trace-shard-worker") => return workloads::serve_traced_worker(&args[1..]),
        _ => {}
    }
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let prefix_names = opts.kinds.len() > 1;
    let mut total = Outcome::default();
    let mut metrics = Vec::new();
    for &kind in &opts.kinds {
        let outcome = bench(kind, &opts);
        total.attempted += outcome.attempted;
        total.failed += outcome.failed;
        for (name, unit, value) in outcome.metrics {
            let name = if prefix_names {
                format!("{}.{name}", kind.name())
            } else {
                name.to_string()
            };
            metrics.push((name, unit, value));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.failed == 0,
        total.attempted,
        total.failed,
        body.join(", ")
    );
    if total.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// One pass over a workload's executions.
struct Rep {
    results: Vec<ExecResult>,
    layers: Option<Layers>,
}

#[derive(Clone, Copy, PartialEq)]
enum Pass {
    /// The first, untimed repetition: it warms the allocator and caches, and
    /// compares each sharded execution with a serial run.
    Warmup,
    Untraced,
    Traced,
}

impl Rep {
    fn run(execs: &[workloads::Exec], pass: Pass) -> Rep {
        let mut layers = (pass == Pass::Traced).then(Layers::default);
        let results = execs
            .iter()
            .map(|exec| workloads::run(exec, layers.as_mut(), pass == Pass::Warmup))
            .collect();
        if let Some(layers) = layers.as_mut() {
            layers.protocol = layers::take_protocol_counts();
        }
        Rep { results, layers }
    }

    fn setup_s(&self) -> f64 {
        self.results
            .iter()
            .map(|r| r.setup)
            .sum::<Duration>()
            .as_secs_f64()
    }

    fn run_s(&self) -> f64 {
        self.results
            .iter()
            .map(|r| r.run)
            .sum::<Duration>()
            .as_secs_f64()
    }

    fn sum(&self, field: impl Fn(&ExecResult) -> u64) -> f64 {
        self.results.iter().map(field).sum::<u64>() as f64
    }
}

fn bench(kind: Kind, opts: &Options) -> Outcome {
    let execs = kind.executions(opts.seed);
    let budget = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    let warmup = Rep::run(&execs, Pass::Warmup);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while plain.len() < MIN_REPS || start.elapsed() < budget {
        plain.push(Rep::run(&execs, Pass::Untraced));
        if opts.trace {
            traced.push(Rep::run(&execs, Pass::Traced));
        }
    }

    // Every execution is checked by the oracle; every repetition, traced
    // or not, must also reproduce the warm-up's counters exactly.
    let mut outcome = Outcome::default();
    for rep in std::iter::once(&warmup).chain(&plain).chain(&traced) {
        for (i, result) in rep.results.iter().enumerate() {
            outcome.attempted += 1;
            let failure = result.failure.clone().or_else(|| {
                let expected = &warmup.results[i].m;
                (result.m != *expected).then(|| {
                    format!(
                        "counters {:?} differ from the warm-up's {expected:?}",
                        result.m
                    )
                })
            });
            if let Some(why) = failure {
                outcome.failed += 1;
                eprintln!(
                    "perfbench: {}: FAILED: {} — {why}",
                    kind.name(),
                    execs[i].label()
                );
            }
        }
    }

    let run_s = median(plain.iter().map(Rep::run_s));
    println!(
        "== {} (seed {}, {} untraced{} repetitions) ==",
        kind.name(),
        opts.seed,
        plain.len(),
        if opts.trace {
            format!(" and {} traced", traced.len())
        } else {
            String::new()
        }
    );
    for exec in &execs {
        println!("   {}", exec.label());
    }
    let per_rep: Vec<String> = plain
        .iter()
        .map(|rep| format!("{:.3}", rep.run_s()))
        .collect();
    println!("   untraced run_s per repetition: {}", per_rep.join(" "));
    outcome.metrics = if opts.trace {
        let reps: Vec<_> = traced
            .iter()
            .map(|rep| rep.layers.as_ref().expect("traced repetition").metrics())
            .collect();
        let mut metrics: Vec<_> = reps[0]
            .iter()
            .enumerate()
            .map(|(i, &(name, unit, _))| (name, unit, median(reps.iter().map(|m| m[i].2))))
            .collect();
        let traced_run_s = median(traced.iter().map(Rep::run_s));
        metrics.push(("trace.overhead_s", "s", traced_run_s - run_s));
        metrics.push(("trace.run_s", "s", traced_run_s));
        metrics
    } else {
        let node_rounds = |rep: &Rep| rep.sum(|r| r.n as u64 * r.m.rounds);
        vec![
            ("setup_s", "s", median(plain.iter().map(Rep::setup_s))),
            ("run_s", "s", run_s),
            (
                "node_rounds_per_s",
                "1/s",
                median(plain.iter().map(|rep| node_rounds(rep) / rep.run_s())),
            ),
            ("peak_rss_mib", "MiB", peak_rss_mib()),
            ("rounds", "count", warmup.sum(|r| r.m.rounds)),
            ("messages", "count", warmup.sum(|r| r.m.messages)),
            ("bits", "count", warmup.sum(|r| r.m.bits)),
        ]
    };
    for (name, unit, value) in &outcome.metrics {
        println!("   {name:<26} {value:>18.6} {unit}");
    }
    println!(
        "   executions: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    outcome
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.collect();
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident memory of this process so far, in MiB (`getrusage`'s
/// `ru_maxrss`, which Linux reports in KiB).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn peak_rss_mib() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `struct timeval`s, then fourteen
    /// `long`s, the first of which is `ru_maxrss`.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, exclusively borrowed value laid out as
    // `struct rusage` is on 64-bit Linux, and `getrusage` writes only that
    // struct.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss as f64 / 1024.0
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads peak memory through getrusage on 64-bit Linux");
