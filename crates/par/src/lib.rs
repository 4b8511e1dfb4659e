//! # lpr-par — the workspace parallel execution layer
//!
//! The paper's dataset holds ~14 million LSPs *per cycle*; almost all
//! of the LPR pipeline's wall-clock goes into embarrassingly parallel
//! per-trace and per-IOTP work. This crate is the scheduler that work
//! runs on: a dependency-free shard scheduler built on
//! [`std::thread::scope`] (the offline `crates/shim` policy rules out
//! rayon/crossbeam).
//!
//! The model is deliberately simple and, above all, **deterministic**:
//!
//! 1. The input slice is cut into contiguous *shards* (more shards than
//!    workers, so stragglers rebalance).
//! 2. Worker *i* starts on shard *i* (so every worker is guaranteed
//!    work even when an early spawn races ahead), then pulls further
//!    shard indices from a chunked work queue (an atomic cursor).
//! 3. Outputs are returned **in shard order**, regardless of which
//!    worker ran which shard or in what order they finished.
//!
//! Because shards are contiguous and merged in shard order,
//! concatenating the outputs of an order-preserving per-item closure
//! reproduces the sequential result *byte for byte*, for any thread
//! count. Order-insensitive merges (set unions, counter sums) are
//! trivially deterministic too.
//!
//! ```
//! use lpr_par::{map_shards, ShardOptions};
//!
//! let items: Vec<u64> = (0..10_000).collect();
//! let run = map_shards(&items, ShardOptions::new(4), |_shard, slice| {
//!     slice.iter().copied().filter(|x| x % 3 == 0).collect::<Vec<_>>()
//! });
//! let par: Vec<u64> = run.outputs.into_iter().flatten().collect();
//! let seq: Vec<u64> = items.iter().copied().filter(|x| x % 3 == 0).collect();
//! assert_eq!(par, seq); // deterministic merge, any thread count
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lpr_obs::{FieldValue, Level, Recorder, SpanContext, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The machine's available parallelism (1 when undetectable).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// How a [`map_shards`] run is cut up and scheduled.
#[derive(Clone, Copy, Debug)]
pub struct ShardOptions {
    /// Worker threads. `0` means [`available_threads`].
    pub threads: usize,
    /// Target shards per worker (>1 lets the chunked queue rebalance
    /// uneven shards).
    pub shards_per_thread: usize,
    /// Minimum items per shard; tiny inputs collapse into fewer shards
    /// so scheduling overhead never dominates.
    pub min_shard_len: usize,
}

impl ShardOptions {
    /// Options for `threads` workers with the default shard geometry.
    pub fn new(threads: usize) -> Self {
        ShardOptions { threads, shards_per_thread: 4, min_shard_len: 64 }
    }

    /// The worker count actually used (resolves `threads == 0`).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            available_threads()
        } else {
            self.threads
        }
    }

    /// Number of shards for an input of `len` items.
    ///
    /// Depends only on the options and `len` — never on runtime timing —
    /// so a run's shard boundaries are reproducible.
    pub fn shard_count(&self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let by_len = len.div_ceil(self.min_shard_len.max(1));
        let by_threads = self.effective_threads().max(1) * self.shards_per_thread.max(1);
        by_len.min(by_threads).max(1)
    }
}

/// One worker's accounting for a [`map_shards`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// Worker index (0-based).
    pub worker: usize,
    /// Shards this worker processed.
    pub shards: usize,
    /// Items this worker processed (sum of its shard lengths).
    pub items: u64,
    /// Busy wall time of this worker, microseconds (its whole pull
    /// loop, queue overhead included).
    pub busy_us: u64,
}

/// The result of a [`map_shards`] run.
#[derive(Debug)]
pub struct ShardRun<R> {
    /// Per-shard outputs, in shard (= input) order.
    pub outputs: Vec<R>,
    /// Which worker ran each shard (parallel to `outputs`).
    pub shard_workers: Vec<usize>,
    /// Item count of each shard (parallel to `outputs`), so a caller
    /// can account for a poisoned shard's items without re-deriving the
    /// shard geometry.
    pub shard_lens: Vec<usize>,
    /// Per-worker accounting, indexed by worker.
    pub workers: Vec<WorkerStat>,
}

impl<R> ShardRun<R> {
    /// Records each worker's share of `stage` as a `worker{N}/{stage}`
    /// row: the worker's busy time, and `counts(shard, output)` as
    /// `(input, output)` items summed over the shards it ran.
    pub fn record_workers(
        &self,
        recorder: &Recorder,
        stage: &str,
        counts: impl Fn(usize, &R) -> (u64, u64),
    ) {
        let mut sums = vec![(0u64, 0u64); self.workers.len()];
        for (shard, out) in self.outputs.iter().enumerate() {
            let (input, output) = counts(shard, out);
            let sum = &mut sums[self.shard_workers[shard]];
            sum.0 += input;
            sum.1 += output;
        }
        for (stat, (input, output)) in self.workers.iter().zip(sums) {
            recorder.record_worker_stage(stat.worker, stage, stat.busy_us, input, output);
        }
    }
}

impl<R> ShardRun<Result<R, PoisonedShard>> {
    /// Unwraps every shard output, panicking with the first poisoned
    /// shard's message (in shard order) — [`map_shards`] semantics for
    /// the traced engine, for callers whose closures are not expected
    /// to panic.
    pub fn expect_ok(self) -> ShardRun<R> {
        let outputs = self
            .outputs
            .into_iter()
            .map(|o| match o {
                Ok(r) => r,
                Err(poisoned) => panic!("{poisoned}"),
            })
            .collect();
        ShardRun {
            outputs,
            shard_workers: self.shard_workers,
            shard_lens: self.shard_lens,
            workers: self.workers,
        }
    }
}

/// A shard whose closure panicked.
///
/// The panic is caught at the shard boundary ([`std::panic::catch_unwind`]
/// inside the worker's pull loop), so one poisoned shard never tears
/// down the other workers or the process: every remaining shard still
/// runs and returns its output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoisonedShard {
    /// Index of the shard whose closure panicked.
    pub shard: usize,
    /// Worker that ran it.
    pub worker: usize,
    /// The panic payload, stringified (`&str`/`String` payloads are
    /// preserved verbatim).
    pub message: String,
}

impl std::fmt::Display for PoisonedShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {} poisoned (worker {}): {}", self.shard, self.worker, self.message)
    }
}

impl std::error::Error for PoisonedShard {}

/// Span context a traced run propagates into its shard workers: each
/// shard runs inside a `shard{N}` span parented under `parent` (the
/// caller's stage span), drawn on lane `worker + 1` so worker activity
/// separates from the main thread in timeline exporters. A caught
/// shard panic journals a `poisoned-shard` error event inside the
/// shard's span.
#[derive(Clone, Copy)]
pub struct ShardTrace<'a> {
    /// The journal shard spans record into.
    pub tracer: &'a Tracer,
    /// The span shard spans parent under (the stage span).
    pub parent: SpanContext,
}

impl<'a> ShardTrace<'a> {
    /// A trace context under `parent` in `tracer`'s journal.
    pub fn new(tracer: &'a Tracer, parent: SpanContext) -> Self {
        ShardTrace { tracer, parent }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "non-string panic payload".to_string(),
        },
    }
}

/// Cuts `items` into contiguous shards and maps `f` over them on a pool
/// of scoped worker threads, returning the outputs **in shard order**.
///
/// `f` receives `(shard_index, shard_slice)`. Shards are near-equal
/// contiguous splits; workers pull the next unclaimed shard from an
/// atomic cursor until the queue drains. With `threads <= 1` (after
/// resolving `0`) everything runs inline on the caller's thread — same
/// shard boundaries, same outputs, no spawn.
///
/// A panicking shard closure poisons only its own shard; the run
/// completes and this function then re-panics on the caller's thread
/// with the first poisoned shard's message (use [`map_shards_traced`]
/// to handle poisoning without unwinding).
pub fn map_shards<T, R, F>(items: &[T], opts: ShardOptions, f: F) -> ShardRun<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    map_shards_engine(items, opts, None, f).expect_ok()
}

/// The engine behind [`map_shards`], with span propagation and caught
/// panics: every shard runs to completion inside a `shard{N}` span
/// under `trace.parent`, and each output is `Ok(R)` or the
/// [`PoisonedShard`] describing its caught panic — callers that can
/// degrade gracefully (quarantine the shard's items, keep the rest)
/// consume this directly. A caught panic journals a `poisoned-shard`
/// error event (fields: `shard`, `worker`, `message`) before the span
/// closes — so a trace shows *which* shard died, on which worker lane,
/// and when.
pub fn map_shards_traced<T, R, F>(
    items: &[T],
    opts: ShardOptions,
    trace: ShardTrace<'_>,
    f: F,
) -> ShardRun<Result<R, PoisonedShard>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    map_shards_engine(items, opts, Some(trace), f)
}

fn map_shards_engine<T, R, F>(
    items: &[T],
    opts: ShardOptions,
    trace: Option<ShardTrace<'_>>,
    f: F,
) -> ShardRun<Result<R, PoisonedShard>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let nshards = opts.shard_count(items.len());
    let bounds = shard_bounds(items.len(), nshards);
    let threads = opts.effective_threads().max(1).min(nshards.max(1));

    // The closure only ever borrows `f` and the input slice, so a caught
    // panic cannot leave broken state behind: the shard's would-be
    // output is simply replaced by the error.
    let run_one = |shard: usize, slice: &[T], worker: usize| -> Result<R, PoisonedShard> {
        // Skip the span bookkeeping entirely (name formatting included)
        // unless a live journal is attached.
        let span = trace.filter(|tr| tr.tracer.is_enabled()).map(|tr| {
            tr.tracer.span_on(tr.parent, format!("shard{shard}"), worker as u64 + 1)
        });
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(shard, slice)))
            .map_err(|payload| PoisonedShard { shard, worker, message: panic_message(payload) });
        if let (Some(span), Err(poisoned)) = (&span, &out) {
            span.event(
                Level::Error,
                "poisoned-shard",
                vec![
                    ("shard".to_string(), FieldValue::U64(poisoned.shard as u64)),
                    ("worker".to_string(), FieldValue::U64(poisoned.worker as u64)),
                    ("message".to_string(), FieldValue::Str(poisoned.message.clone())),
                ],
            );
        }
        out
    };

    let mut outputs: Vec<Option<Result<R, PoisonedShard>>> = Vec::new();
    outputs.resize_with(nshards, || None);
    let mut shard_workers = vec![0usize; nshards];
    let shard_lens: Vec<usize> = bounds.iter().map(|(s, e)| e - s).collect();
    let mut workers: Vec<WorkerStat> = Vec::new();

    if threads <= 1 || nshards <= 1 {
        let sw = Instant::now();
        let mut stat = WorkerStat::default();
        for (shard, out) in outputs.iter_mut().enumerate() {
            let slice = &items[bounds[shard].0..bounds[shard].1];
            stat.shards += 1;
            stat.items += slice.len() as u64;
            *out = Some(run_one(shard, slice, 0));
        }
        stat.busy_us = sw.elapsed().as_micros() as u64;
        workers.push(stat);
    } else {
        // Shards 0..threads are statically assigned (worker i owns
        // shard i); only the remainder goes through the shared cursor.
        // Without this, a worker that spawns early can drain the whole
        // queue before the later spawns are even scheduled, leaving
        // them with zero items — a real effect at small queue sizes,
        // and a guaranteed one on a single-core host.
        let cursor = AtomicUsize::new(threads);
        let run_one = &run_one;
        let bounds = &bounds;
        let cursor = &cursor;
        // One worker's harvest: its stats plus every (shard, result)
        // pair it claimed off the queue.
        type Harvest<R> = (WorkerStat, Vec<(usize, Result<R, PoisonedShard>)>);
        let mut results: Vec<Harvest<R>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|worker| {
                        scope.spawn(move || {
                            let sw = Instant::now();
                            let mut stat = WorkerStat { worker, ..Default::default() };
                            let mut produced = Vec::new();
                            let mut first = Some(worker); // threads <= nshards
                            loop {
                                let shard = match first.take() {
                                    Some(s) => s,
                                    None => cursor.fetch_add(1, Ordering::Relaxed),
                                };
                                if shard >= nshards {
                                    break;
                                }
                                let slice = &items[bounds[shard].0..bounds[shard].1];
                                stat.shards += 1;
                                stat.items += slice.len() as u64;
                                produced.push((shard, run_one(shard, slice, worker)));
                            }
                            stat.busy_us = sw.elapsed().as_micros() as u64;
                            (stat, produced)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker itself cannot panic: shards are caught"))
                    .collect()
            });
        for (stat, produced) in &mut results {
            for (shard, out) in produced.drain(..) {
                shard_workers[shard] = stat.worker;
                outputs[shard] = Some(out);
            }
        }
        workers = results.into_iter().map(|(stat, _)| stat).collect();
    }

    ShardRun {
        outputs: outputs
            .into_iter()
            .map(|o| o.expect("every shard claimed exactly once"))
            .collect(),
        shard_workers,
        shard_lens,
        workers,
    }
}

/// `(start, end)` byte-identical shard boundaries: near-equal contiguous
/// splits, earlier shards one longer when `len` does not divide evenly.
fn shard_bounds(len: usize, nshards: usize) -> Vec<(usize, usize)> {
    let mut bounds = Vec::with_capacity(nshards);
    if nshards == 0 {
        return bounds;
    }
    let base = len / nshards;
    let rem = len % nshards;
    let mut start = 0;
    for shard in 0..nshards {
        let extent = base + usize::from(shard < rem);
        bounds.push((start, start + extent));
        start += extent;
    }
    debug_assert_eq!(start, len);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bounds_cover_input_exactly() {
        for len in [0usize, 1, 7, 64, 1000, 1001] {
            for n in 1..9usize {
                let b = shard_bounds(len, n);
                assert_eq!(b.len(), n);
                assert_eq!(b[0].0, 0);
                assert_eq!(b[n - 1].1, len);
                for w in b.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                }
            }
        }
    }

    #[test]
    fn empty_input_runs_nothing() {
        let items: Vec<u32> = Vec::new();
        let run = map_shards(&items, ShardOptions::new(4), |_, s: &[u32]| s.len());
        assert!(run.outputs.is_empty());
        assert_eq!(run.workers.iter().map(|w| w.items).sum::<u64>(), 0);
    }

    #[test]
    fn concat_merge_is_identical_for_any_thread_count() {
        let items: Vec<u64> = (0..5000).map(|x| x * 7 % 4096).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [0usize, 1, 2, 3, 4, 8, 13] {
            let run = map_shards(&items, ShardOptions::new(threads), |_, s| {
                s.iter().map(|x| x * x).collect::<Vec<u64>>()
            });
            let par: Vec<u64> = run.outputs.into_iter().flatten().collect();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn shard_indices_arrive_in_order() {
        let items: Vec<u8> = vec![0; 4096];
        let run = map_shards(&items, ShardOptions::new(4), |shard, _| shard);
        let expect: Vec<usize> = (0..run.outputs.len()).collect();
        assert_eq!(run.outputs, expect);
    }

    #[test]
    fn worker_stats_account_for_every_item() {
        let items: Vec<u32> = (0..10_000).collect();
        let run = map_shards(&items, ShardOptions::new(4), |_, s| s.len());
        let items_seen: u64 = run.workers.iter().map(|w| w.items).sum();
        assert_eq!(items_seen, 10_000);
        let shards_seen: usize = run.workers.iter().map(|w| w.shards).sum();
        assert_eq!(shards_seen, run.outputs.len());
        assert_eq!(run.shard_workers.len(), run.outputs.len());
        for &w in &run.shard_workers {
            assert!(w < run.workers.len().max(1) + 16, "worker id sane");
        }
    }

    /// Regression: before the static first-shard assignment, a worker
    /// spawned early could drain the whole cursor queue before the rest
    /// were scheduled, and `worker2`/`worker3` reported 0 items on a
    /// 3654-trace run. Every spawned worker now owns at least one shard.
    #[test]
    fn every_worker_receives_work() {
        let items: Vec<u32> = (0..3654).collect();
        for threads in [2usize, 4, 8] {
            let run = map_shards(&items, ShardOptions::new(threads), |_, s| s.len());
            assert_eq!(run.workers.len(), threads);
            for w in &run.workers {
                assert!(w.shards >= 1, "worker {} starved at threads={threads}", w.worker);
                assert!(w.items > 0, "worker {} got 0 items at threads={threads}", w.worker);
            }
        }
    }

    #[test]
    fn worker_rows_sum_to_the_run() {
        let items: Vec<u32> = (0..1000).collect();
        let rec = Recorder::new("par");
        let run = map_shards(&items, ShardOptions::new(4), |_, s| {
            s.iter().filter(|x| *x % 2 == 0).count()
        });
        run.record_workers(&rec, "Even", |shard, &kept| (run.shard_lens[shard] as u64, kept as u64));
        let t = rec.finish();
        let rows = t.worker_stages("Even");
        assert_eq!(rows.len(), run.workers.len());
        assert_eq!(rows.iter().map(|r| r.input).sum::<u64>(), 1000);
        assert_eq!(rows.iter().map(|r| r.output).sum::<u64>(), 500);
    }

    #[test]
    fn tiny_inputs_collapse_to_few_shards() {
        let opts = ShardOptions::new(8);
        assert_eq!(opts.shard_count(0), 0);
        assert_eq!(opts.shard_count(1), 1);
        assert_eq!(opts.shard_count(64), 1);
        assert_eq!(opts.shard_count(65), 2);
        assert!(opts.shard_count(1 << 20) <= 32);
    }

    #[test]
    fn zero_threads_resolves_to_available() {
        let opts = ShardOptions::new(0);
        assert!(opts.effective_threads() >= 1);
    }

    /// Suppresses the default panic hook's backtrace spam for the
    /// duration of a test that panics on purpose inside workers.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    /// `map_shards_traced` without a journal.
    fn untraced<R: Send>(
        items: &[u32],
        threads: usize,
        f: impl Fn(usize, &[u32]) -> R + Sync,
    ) -> ShardRun<Result<R, PoisonedShard>> {
        let tracer = Tracer::disabled();
        let trace = ShardTrace::new(&tracer, SpanContext::ROOT);
        map_shards_traced(items, ShardOptions::new(threads), trace, f)
    }

    /// Regression: a panic inside a shard used to propagate through
    /// `std::thread::scope`'s join and abort the whole run. Now it
    /// poisons only its shard.
    #[test]
    fn panicking_shard_poisons_only_itself() {
        with_quiet_panics(|| {
            let items: Vec<u32> = (0..1000).collect();
            for threads in [1usize, 2, 4] {
                let run = untraced(&items, threads, |shard, s| {
                    if shard == 1 {
                        panic!("boom in shard {shard}");
                    }
                    s.len()
                });
                assert_eq!(run.shard_lens.iter().sum::<usize>(), items.len());
                for (shard, out) in run.outputs.iter().enumerate() {
                    match out {
                        Ok(n) => {
                            assert_ne!(shard, 1);
                            assert_eq!(*n, run.shard_lens[shard]);
                        }
                        Err(p) => {
                            assert_eq!(shard, 1, "threads={threads}");
                            assert_eq!(p.shard, 1);
                            assert_eq!(p.message, "boom in shard 1");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn traced_run_parents_shard_spans_and_journals_poison() {
        with_quiet_panics(|| {
            let items: Vec<u32> = (0..1000).collect();
            let tracer = Tracer::new(Level::Debug);
            let stage = tracer.span("parent");
            let stage_ctx = stage.context();
            let run = map_shards_traced(
                &items,
                ShardOptions::new(4),
                ShardTrace::new(&tracer, stage_ctx),
                |shard, s| {
                    if shard == 2 {
                        panic!("shard 2 down");
                    }
                    s.len()
                },
            );
            drop(stage);
            assert_eq!(run.outputs.iter().filter(|o| o.is_err()).count(), 1);
            let snap = tracer.snapshot();
            let shard_begins: Vec<_> = snap
                .events
                .iter()
                .filter_map(|e| match e {
                    lpr_obs::TraceEvent::SpanBegin { parent, name, tid, .. }
                        if name.starts_with("shard") =>
                    {
                        Some((*parent, *tid))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(shard_begins.len(), run.outputs.len());
            assert!(
                shard_begins.iter().all(|(p, tid)| *p == stage_ctx.id() && *tid >= 1),
                "shard spans parent under the stage, off the main lane"
            );
            let poison_events: Vec<_> = snap
                .events
                .iter()
                .filter(|e| matches!(e, lpr_obs::TraceEvent::Event { name, level, .. }
                    if name == "poisoned-shard" && *level == Level::Error))
                .collect();
            assert_eq!(poison_events.len(), 1);
            let lpr_obs::TraceEvent::Event { fields, .. } = poison_events[0] else { panic!() };
            assert!(fields.iter().any(|(k, v)| k == "message"
                && matches!(v, FieldValue::Str(s) if s.contains("shard 2 down"))));
        });
    }

    #[test]
    fn untraced_runs_stay_silent() {
        let items: Vec<u32> = (0..200).collect();
        let tracer = Tracer::disabled();
        let run = map_shards_traced(
            &items,
            ShardOptions::new(2),
            ShardTrace::new(&tracer, SpanContext::ROOT),
            |_, s| s.len(),
        );
        assert_eq!(run.outputs.iter().filter_map(|o| o.as_ref().ok()).sum::<usize>(), 200);
        assert_eq!(tracer.snapshot(), lpr_obs::TraceSnapshot::default());
    }

    #[test]
    fn first_poisoned_shard_in_shard_order_comes_first() {
        with_quiet_panics(|| {
            let items: Vec<u32> = (0..1000).collect();
            let run = untraced(&items, 4, |shard, _| {
                if shard >= 2 {
                    panic!("shard {shard} down");
                }
                shard
            });
            let err = run.outputs.iter().find_map(|o| o.as_ref().err()).cloned().unwrap();
            assert_eq!(err.shard, 2, "first poisoned shard in shard order wins");
            assert_eq!(err.message, "shard 2 down");
            assert!(err.to_string().contains("poisoned"));
            let repanic =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.expect_ok()))
                    .unwrap_err();
            let msg = repanic.downcast_ref::<String>().expect("formatted message");
            assert_eq!(*msg, err.to_string());

            let ok = untraced(&items, 4, |shard, _| shard).expect_ok();
            assert_eq!(ok.outputs, (0..ok.outputs.len()).collect::<Vec<_>>());
        });
    }

    #[test]
    fn map_shards_repanics_with_the_shard_message() {
        with_quiet_panics(|| {
            let items: Vec<u32> = (0..200).collect();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                map_shards(&items, ShardOptions::new(2), |shard, s| {
                    if shard == 0 {
                        panic!("first shard failed");
                    }
                    s.len()
                })
            }));
            let payload = caught.unwrap_err();
            let msg = payload.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("first shard failed"), "{msg}");
            assert!(msg.contains("shard 0"), "{msg}");
        });
    }
}
