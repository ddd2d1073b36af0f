//! Deterministic parallel-execution helpers for the round engine.
//!
//! The engine's in-process host can split the per-node phase loops (send
//! collection, delivery, receive) across the persistent worker pool in
//! [`crate::pool`].  The parallel schedule is *deterministic by
//! construction*: nodes are partitioned into contiguous index chunks, each
//! chunk is pinned to one pool worker, and every cross-chunk effect
//! (delivered messages, metric counters, decision and halt events) is
//! collected into per-chunk scratch buffers that the engine merges in
//! fixed node-index order.  Serial and parallel executions of the same
//! seeded workload therefore produce byte-identical reports, traces and
//! experiment tables — the determinism suite in
//! `crates/bench/tests/determinism.rs` pins this.
//!
//! The crash-adversary phase is *never* parallelised: the adversary contract
//! ([`crate::CrashAdversary`]) hands a single mutable strategy a coherent
//! view of the whole round, so it runs serially on the main thread between
//! the send and delivery phases (see `EngineCore::apply_crash_phase`).

/// Number of worker threads worth spawning on this machine: the standard
/// library's available-parallelism estimate, with a fallback of 1 when the
/// estimate is unavailable (e.g. restricted sandboxes).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Below this node count the per-round dispatch overhead outweighs any
/// speedup; the in-process host keeps one inline core (observationally
/// identical, so the cutoff is invisible to callers).
///
/// This is the multi-port threshold: a multi-port round moves
/// `O(n · degree)` messages, so even modest systems amortise the ~µs cost
/// of handing the phase closures to the persistent pool (the
/// `pool_handoff` criterion bench measures the handoff against the retired
/// per-phase `thread::scope` spawn, which cost ~0.3–0.5 ms).
pub(crate) const MIN_NODES_PER_FORK: usize = 128;

/// The single-port fork threshold: a single-port round is one send and one
/// poll per node — `O(n)` work with a tiny constant — while executions run
/// for `Θ(t + log n)` slots (tens of thousands of rounds at paper scale).
/// Under the per-phase `thread::scope` engine this had to be 8192: three
/// ~0.3–0.5 ms spawns per round would have dominated 10⁴–10⁵-round
/// executions.  The persistent pool's ~µs handoff amortises three orders
/// of magnitude earlier, so paper-scale single-port systems (n ≥ 1024) now
/// engage the pool (measured in `crates/bench/benches/pool_handoff.rs`;
/// numbers recorded in `DESIGN.md`).
pub(crate) const MIN_NODES_PER_FORK_SINGLE_PORT: usize = 1024;

/// Normalises a requested job count: `0` means "pick for me"
/// ([`available_jobs`]), anything else is used as given.
pub(crate) fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        available_jobs()
    } else {
        requested
    }
}

/// The contiguous partition of `n` nodes across at most `jobs` workers.
///
/// `chunk_len` is the ceiling division `⌈n / jobs⌉`, which can leave the
/// trailing workers with *zero* nodes (e.g. `n = 9, jobs = 8` gives eight
/// 2-node chunks worth of length but only five non-empty chunks).  `chunks`
/// is therefore the number of **non-empty** chunks — the pool spawns
/// exactly that many workers, never an idle trailing one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChunkPlan {
    /// Nodes per chunk (the last non-empty chunk may be shorter).
    pub chunk_len: usize,
    /// Number of non-empty chunks = number of pool workers to use.
    pub chunks: usize,
}

impl ChunkPlan {
    /// Plans the partition of `n` nodes across at most `jobs` workers.
    pub fn new(n: usize, jobs: usize) -> Self {
        let chunk_len = n.div_ceil(jobs.max(1)).max(1);
        ChunkPlan {
            chunk_len,
            chunks: n.div_ceil(chunk_len).max(1),
        }
    }

    /// The chunk index owning node `node`.
    pub fn chunk_of(&self, node: usize) -> usize {
        node / self.chunk_len
    }

    /// The node range of chunk `index` within an `n`-node system.
    pub fn range(&self, index: usize, n: usize) -> std::ops::Range<usize> {
        let start = index * self.chunk_len;
        start..((start + self.chunk_len).min(n))
    }
}

/// Whether a runner over `n` nodes with this job setting and fork threshold
/// should take the parallel path.
pub(crate) fn should_fork(n: usize, jobs: usize, threshold: usize) -> bool {
    jobs > 1 && n >= threshold
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    fn chunk_plan_covers_all_nodes_without_empty_chunks() {
        for n in [1usize, 5, 9, 127, 128, 1000] {
            for jobs in [1usize, 2, 3, 4, 8, 16] {
                let plan = ChunkPlan::new(n, jobs);
                assert!(plan.chunk_len >= 1);
                // Never more chunks than jobs, and never an empty chunk.
                assert!(plan.chunks <= jobs.max(1), "n={n} jobs={jobs}");
                for chunk in 0..plan.chunks {
                    let range = plan.range(chunk, n);
                    assert!(!range.is_empty(), "empty chunk {chunk} n={n} jobs={jobs}");
                }
                // The ranges tile 0..n exactly and `chunk_of` is their
                // inverse.
                let mut covered = 0;
                for chunk in 0..plan.chunks {
                    for node in plan.range(chunk, n) {
                        assert_eq!(node, covered, "contiguous coverage");
                        assert_eq!(plan.chunk_of(node), chunk);
                        covered += 1;
                    }
                }
                assert_eq!(covered, n);
            }
        }
    }

    /// The regression the clamp exists for: `⌈n / jobs⌉`-length chunks can
    /// satisfy all of `0..n` before the worker count runs out, and the pool
    /// must not spawn (or park) the leftover workers at all.
    #[test]
    fn trailing_zero_node_workers_are_never_planned() {
        let plan = ChunkPlan::new(9, 8);
        assert_eq!(plan.chunk_len, 2);
        assert_eq!(plan.chunks, 5, "three trailing workers clamped away");
        let plan = ChunkPlan::new(65, 64);
        assert_eq!(plan.chunk_len, 2);
        assert_eq!(plan.chunks, 33);
        // Exact division plans every worker.
        assert_eq!(
            ChunkPlan::new(64, 4),
            ChunkPlan {
                chunk_len: 16,
                chunks: 4
            }
        );
    }

    #[test]
    fn effective_jobs_resolves_zero() {
        assert_eq!(effective_jobs(3), 3);
        assert!(effective_jobs(0) >= 1);
    }

    #[test]
    fn forking_needs_both_jobs_and_scale() {
        assert!(!should_fork(10000, 1, MIN_NODES_PER_FORK));
        assert!(!should_fork(10, 4, MIN_NODES_PER_FORK));
        assert!(should_fork(MIN_NODES_PER_FORK, 2, MIN_NODES_PER_FORK));
        assert!(!should_fork(
            MIN_NODES_PER_FORK,
            4,
            MIN_NODES_PER_FORK_SINGLE_PORT
        ));
        assert!(should_fork(
            MIN_NODES_PER_FORK_SINGLE_PORT,
            4,
            MIN_NODES_PER_FORK_SINGLE_PORT
        ));
    }
}
