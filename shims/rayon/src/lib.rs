//! Offline shim for `rayon`: the data-parallel surface this workspace uses
//! (`par_chunks`, `par_chunks_mut().enumerate()`, range `into_par_iter`,
//! `map`/`for_each`/`collect`, the global-pool thread count), implemented
//! over a persistent worker pool.
//!
//! Semantics preserved from rayon for the covered surface:
//! - `map(..).collect()` keeps input order;
//! - closures run concurrently on up to [`current_num_threads`] workers, so
//!   they must be `Sync` and items `Send` (same bounds rayon demands);
//! - `ThreadPoolBuilder::num_threads(n).build_global()` pins the worker
//!   count once per process (first call wins). Unlike rayon, a pin still
//!   takes effect after parallel calls have run: the pool is never sized
//!   by its first use, so `build_global(1)` makes every later call inline;
//! - a panic in a closure resumes on the calling thread with its payload.
//!
//! # The pool
//!
//! Helper threads are started as calls need them, up to
//! `current_num_threads() − 1` read at each call, the calling thread being
//! the remaining worker; they live for the rest of the process. A call
//! splits its items into at most `4 × threads` contiguous blocks (one block
//! per item when there are fewer: callers such as `vgpu`'s dispatchers
//! that pre-chunk their work own its granularity) and publishes them as
//! one job; the caller claims blocks from its front and any idle helper
//! from its back, through one atomic word, until none is left. Uneven
//! blocks balance themselves, a helper that wakes late finds nothing left
//! to do, and repeated calls of one shape tend to give each thread the same
//! blocks, whose data is still in that core's cache. The caller then
//! waits only for blocks other threads are still running. Every caller
//! works its own job, so nested calls and calls from several threads at
//! once cannot deadlock.
//!
//! **Occupancy rule.** A call fans out only while a CPU is idle: while
//! fewer threads than the pool's size are busy with parallel work (callers
//! inside a call, helpers running blocks). Otherwise it runs inline on the
//! caller, so two callers that already fill the CPUs, or a call nested in a
//! block that runs next to another, do not pay for splitting. This is
//! observed at run time, not configured.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// 0 = not yet fixed; otherwise the pinned global worker count.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Most blocks a fanned-out call is split into per worker: enough for
/// dynamic claiming to even out blocks of unequal cost. Only calls over
/// more items than `4 × threads` are grouped into blocks.
const BLOCKS_PER_THREAD: usize = 4;

/// The host's parallelism, read once: `available_parallelism` reads cgroup
/// and affinity state, too slow for a per-call path.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Number of worker threads parallel operations fan out over, the calling
/// thread included.
pub fn current_num_threads() -> usize {
    match GLOBAL_THREADS.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Error type for [`ThreadPoolBuilder::build_global`] (the shim never
/// actually fails; rayon errors on double initialisation, we keep first-wins
/// semantics and report success).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "global thread pool already initialised")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for the global pool; only the thread count is configurable.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// A builder with default settings.
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Sets the worker count (0 = auto).
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = Some(n);
        self
    }

    /// Installs this configuration as the global pool. First call wins; it
    /// also applies to a pool whose helpers already started (surplus
    /// helpers stay asleep).
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        let n = match self.num_threads {
            Some(0) | None => default_threads(),
            Some(n) => n,
        };
        let _ = GLOBAL_THREADS.compare_exchange(0, n, Ordering::Relaxed, Ordering::Relaxed);
        Ok(())
    }
}

/// Threads busy with parallel work: callers inside a call and helpers
/// running a job's blocks. A statistic for the occupancy rule only; it
/// publishes no other data, hence `Relaxed`.
static BUSY: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is already counted in [`BUSY`] (a nested call,
    /// or a helper running a block).
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Counts the calling thread in [`BUSY`] for the duration of one call,
/// unless an enclosing call (or the helper loop) already did.
struct Occupancy {
    entered: bool,
}

impl Occupancy {
    /// Enters and returns how many *other* threads were busy.
    fn enter() -> (Occupancy, usize) {
        if COUNTED.with(|c| c.replace(true)) {
            let others = BUSY.load(Ordering::Relaxed).saturating_sub(1);
            (Occupancy { entered: false }, others)
        } else {
            let others = BUSY.fetch_add(1, Ordering::Relaxed);
            (Occupancy { entered: true }, others)
        }
    }
}

impl Drop for Occupancy {
    fn drop(&mut self) {
        if self.entered {
            BUSY.fetch_sub(1, Ordering::Relaxed);
            COUNTED.with(|c| c.set(false));
        }
    }
}

/// A caller's block runner with its lifetime erased (see [`Job::task`]).
type Task = dyn Fn(usize) + Sync;

/// One fanned-out call: `blocks` block indices claimed from `unclaimed`.
struct Job {
    /// Unclaimed blocks `front..back`, packed as `front << 32 | back`. The
    /// caller claims from the front and helpers from the back, so repeated
    /// calls of one shape tend to hand each thread the same blocks, whose
    /// data is then still in that core's cache, while uneven blocks still
    /// balance.
    unclaimed: AtomicU64,
    blocks: usize,
    /// Blocks finished, run to completion or panicked. The mutex also
    /// publishes the blocks' results to the caller (release on the
    /// finisher's unlock, acquire on the caller's lock).
    done: Mutex<usize>,
    all_done: Condvar,
    /// The first panic payload of any block.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Runs one block. Points into the caller's stack frame: dereferenced
    /// only by a thread that claimed a block index below `blocks`, and the
    /// caller does not return before every claimed block is done.
    task: *const Task,
}

// SAFETY: `unclaimed`, `done`, `all_done` and `panic` are thread-safe types.
// `task` points to a `Sync` closure, so sharing it between threads is
// sound; it is only dereferenced while the caller keeps it alive (see the
// field's documentation and `run_blocks`).
unsafe impl Send for Job {}
// SAFETY: as for `Send`.
unsafe impl Sync for Job {}

impl Job {
    /// Claims the first unclaimed block, or the last one for `from_back`.
    fn claim(&self, from_back: bool) -> Option<usize> {
        let mut cur = self.unclaimed.load(Ordering::Relaxed);
        loop {
            let (front, back) = (cur >> 32, cur & u64::from(u32::MAX));
            if front >= back {
                return None;
            }
            let (rest, b) = if from_back { (cur - 1, back - 1) } else { (cur + (1 << 32), front) };
            match self.unclaimed.compare_exchange_weak(
                cur,
                rest,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(b as usize),
                Err(now) => cur = now,
            }
        }
    }

    /// Claims and runs blocks until none is left, from the front or the
    /// back (see `unclaimed`). A block's panic is kept for the caller; the
    /// block still counts as done.
    fn work(&self, from_back: bool) {
        while let Some(b) = self.claim(from_back) {
            // SAFETY: block `b < blocks` is claimed and not yet counted in
            // `done`, so the caller is still waiting in `run_blocks` and the
            // closure behind `task` is alive.
            let task = unsafe { &*self.task };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(b))) {
                self.panic
                    .lock()
                    .expect("panic slot is never held across a block")
                    .get_or_insert(payload);
            }
            let mut done = self.done.lock().expect("done count is never held across a block");
            *done += 1;
            if *done == self.blocks {
                self.all_done.notify_all();
            }
        }
    }

    fn exhausted(&self) -> bool {
        let cur = self.unclaimed.load(Ordering::Relaxed);
        cur >> 32 >= cur & u64::from(u32::MAX)
    }

    /// Blocks until every block is done.
    fn wait(&self) {
        let mut done = self.done.lock().expect("done count is never held across a block");
        while *done < self.blocks {
            done = self.all_done.wait(done).expect("done count is never held across a block");
        }
    }
}

/// The persistent helpers and the jobs published to them.
struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    wake: Condvar,
    /// Helper threads started so far; it only grows.
    helpers: AtomicUsize,
}

impl Pool {
    /// The process-wide pool with at least `helpers` helper threads.
    fn with_helpers(helpers: usize) -> &'static Pool {
        static POOL: Pool = Pool {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            helpers: AtomicUsize::new(0),
        };
        let mut have = POOL.helpers.load(Ordering::Relaxed);
        while have < helpers {
            match POOL.helpers.compare_exchange(
                have,
                have + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    have += 1;
                    // Helpers live as long as the process (like rayon's
                    // global pool) and never unwind: every block runs under
                    // `catch_unwind`.
                    std::thread::Builder::new()
                        .name(format!("rayon-shim-{have}"))
                        .spawn(|| POOL.help())
                        .expect("spawn a pool helper thread");
                }
                Err(now) => have = now,
            }
        }
        &POOL
    }

    /// A helper's life: take the oldest job with blocks left, work it, and
    /// sleep while there is none.
    fn help(&self) {
        COUNTED.with(|c| c.set(true));
        loop {
            let job = {
                let mut q = self.queue.lock().expect("job queue is never held across a block");
                loop {
                    q.retain(|j| !j.exhausted());
                    if let Some(j) = q.front() {
                        break j.clone();
                    }
                    q = self.wake.wait(q).expect("job queue is never held across a block");
                }
            };
            BUSY.fetch_add(1, Ordering::Relaxed);
            job.work(true);
            BUSY.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Publishes `job` and wakes up to `helpers` sleeping helpers.
    fn publish(&self, job: &Arc<Job>, helpers: usize) {
        self.queue.lock().expect("job queue is never held across a block").push_back(job.clone());
        for _ in 0..helpers {
            self.wake.notify_one();
        }
    }

    /// Removes `job` from the queue once its caller ran out of blocks.
    fn retire(&self, job: &Arc<Job>) {
        self.queue
            .lock()
            .expect("job queue is never held across a block")
            .retain(|j| !Arc::ptr_eq(j, job));
    }
}

/// Runs `f(b)` for every block `b < blocks` on the caller and any idle
/// helper, and returns once all have finished; a block's panic resumes here.
fn run_blocks(threads: usize, blocks: usize, f: &(dyn Fn(usize) + Sync)) {
    // SAFETY: only the lifetime is erased. `Job::work` dereferences `task`
    // only for a claimed block, and this function does not return (nor
    // unwind: blocks run under `catch_unwind`) before `wait` has seen every
    // claimed block finish.
    let task = unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const Task>(f as *const _)
    };
    let job = Arc::new(Job {
        // front = 0, back = blocks (at most 4 × threads, far below 2³²).
        unclaimed: AtomicU64::new(blocks as u64),
        blocks,
        done: Mutex::new(0),
        all_done: Condvar::new(),
        panic: Mutex::new(None),
        task,
    });
    let pool = Pool::with_helpers(threads - 1);
    pool.publish(&job, (blocks - 1).min(threads - 1));
    job.work(false);
    pool.retire(&job);
    job.wait();
    let payload = job.panic.lock().expect("panic slot is never held across a block").take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Runs `f` over `n` items split into contiguous runs, invoking
/// `f(start..end)` per run, and returns the runs' results in item order.
/// Fans out over the pool only under the occupancy rule (see the crate
/// docs); otherwise one run covers every item, on the caller.
fn split_runs<R: Send>(n: usize, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    let threads = current_num_threads();
    if threads <= 1 || n <= 1 {
        return vec![f(0..n)];
    }
    let (_occupancy, others) = Occupancy::enter();
    if others + 1 >= threads {
        return vec![f(0..n)];
    }
    let per = n.div_ceil(threads * BLOCKS_PER_THREAD);
    let blocks = n.div_ceil(per);
    let slots: Vec<Mutex<Option<R>>> = (0..blocks).map(|_| Mutex::new(None)).collect();
    run_blocks(threads, blocks, &|b| {
        let r = f(b * per..((b + 1) * per).min(n));
        *slots[b].lock().expect("result slot is never held across a block") = Some(r);
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot is never held across a block")
                .expect("every block ran")
        })
        .collect()
}

/// Subset of rayon's `ParallelIterator`: the adapters this workspace calls.
pub mod iter {
    use super::split_runs;
    use std::ops::Range;

    /// Parallel iterator over immutable chunks of a slice.
    pub struct ParChunks<'a, T> {
        pub(crate) slice: &'a [T],
        pub(crate) size: usize,
    }

    /// [`ParChunks`] with a mapping function applied.
    pub struct ParChunksMap<'a, T, F> {
        chunks: ParChunks<'a, T>,
        f: F,
    }

    impl<'a, T: Sync> ParChunks<'a, T> {
        /// Applies `f` to every chunk.
        pub fn map<R, F>(self, f: F) -> ParChunksMap<'a, T, F>
        where
            R: Send,
            F: Fn(&'a [T]) -> R + Sync,
        {
            ParChunksMap { chunks: self, f }
        }

        /// Runs `f` on every chunk.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(&'a [T]) + Sync,
        {
            let _ = self.map(f).collect::<Vec<()>>();
        }
    }

    impl<'a, T: Sync, R: Send, F: Fn(&'a [T]) -> R + Sync> ParChunksMap<'a, T, F> {
        /// Collects results in input order.
        pub fn collect<C: FromIterator<R>>(self) -> C {
            let ParChunksMap { chunks, f } = self;
            let slice = chunks.slice;
            let size = chunks.size.max(1);
            let nchunks = slice.len().div_ceil(size);
            let runs = split_runs(nchunks, |r: Range<usize>| {
                r.map(|i| f(&slice[i * size..((i + 1) * size).min(slice.len())]))
                    .collect::<Vec<R>>()
            });
            runs.into_iter().flatten().collect()
        }
    }

    /// Parallel iterator over mutable chunks of a slice.
    pub struct ParChunksMut<'a, T> {
        pub(crate) slice: &'a mut [T],
        pub(crate) size: usize,
    }

    /// [`ParChunksMut`] with chunk indices attached.
    pub struct ParChunksMutEnumerate<'a, T> {
        inner: ParChunksMut<'a, T>,
    }

    /// [`ParChunksMutEnumerate`] with a mapping function applied.
    pub struct ParChunksMutMap<'a, T, F> {
        inner: ParChunksMut<'a, T>,
        f: F,
    }

    impl<'a, T: Send> ParChunksMut<'a, T> {
        /// Pairs every chunk with its index.
        pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
            ParChunksMutEnumerate { inner: self }
        }

        /// Runs `f` on every chunk.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(&mut [T]) + Sync,
        {
            self.enumerate().for_each(|(_, c)| f(c));
        }
    }

    /// A taken-once cell handing one disjoint `&mut` chunk to a worker.
    type ChunkCell<'a, T> = std::sync::Mutex<Option<(usize, &'a mut [T])>>;

    impl<'a, T: Send> ParChunksMutEnumerate<'a, T> {
        /// Applies `f` to every `(index, chunk)` pair.
        pub fn map<R, F>(self, f: F) -> ParChunksMutMap<'a, T, F>
        where
            R: Send,
            F: Fn((usize, &mut [T])) -> R + Sync,
        {
            ParChunksMutMap { inner: self.inner, f }
        }

        /// Runs `f` on every `(index, chunk)` pair.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn((usize, &mut [T])) + Sync,
        {
            let _ = self.map(f).collect::<Vec<()>>();
        }
    }

    impl<'a, T: Send, R: Send, F: Fn((usize, &mut [T])) -> R + Sync> ParChunksMutMap<'a, T, F> {
        /// Collects results in chunk order.
        pub fn collect<C: FromIterator<R>>(self) -> C {
            let ParChunksMutMap { inner, f } = self;
            let size = inner.size.max(1);
            // Pre-split into disjoint &mut chunks so workers never alias.
            let cells: Vec<ChunkCell<'_, T>> = inner
                .slice
                .chunks_mut(size)
                .enumerate()
                .map(|c| std::sync::Mutex::new(Some(c)))
                .collect();
            let runs = split_runs(cells.len(), |r: Range<usize>| {
                r.map(|i| {
                    let item = cells[i]
                        .lock()
                        .expect("chunk cell is never held across a block")
                        .take()
                        .expect("chunk taken twice");
                    f(item)
                })
                .collect::<Vec<R>>()
            });
            runs.into_iter().flatten().collect()
        }
    }

    /// Parallel iterator over a `Range<usize>`.
    pub struct ParRange {
        pub(crate) range: Range<usize>,
    }

    /// [`ParRange`] with a mapping function applied.
    pub struct ParRangeMap<F> {
        range: Range<usize>,
        f: F,
    }

    impl ParRange {
        /// Applies `f` to every index.
        pub fn map<R, F>(self, f: F) -> ParRangeMap<F>
        where
            R: Send,
            F: Fn(usize) -> R + Sync,
        {
            ParRangeMap { range: self.range, f }
        }

        /// Runs `f` on every index.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(usize) + Sync,
        {
            let _ = self.map(f).collect::<Vec<()>>();
        }
    }

    impl<R: Send, F: Fn(usize) -> R + Sync> ParRangeMap<F> {
        /// Collects results in index order.
        pub fn collect<C: FromIterator<R>>(self) -> C {
            let ParRangeMap { range, f } = self;
            let lo = range.start;
            let runs =
                split_runs(range.len(), |r: Range<usize>| r.map(|i| f(lo + i)).collect::<Vec<R>>());
            runs.into_iter().flatten().collect()
        }
    }
}

/// The traits user code imports via `use rayon::prelude::*`.
pub mod prelude {
    use super::iter::{ParChunks, ParChunksMut, ParRange};
    use std::ops::Range;

    /// `slice.par_chunks(n)` (rayon's `ParallelSlice`).
    pub trait ParallelSlice<T: Sync> {
        /// Parallel iterator over `n`-sized chunks.
        fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
            ParChunks { slice: self, size }
        }
    }

    /// `slice.par_chunks_mut(n)` (rayon's `ParallelSliceMut`).
    pub trait ParallelSliceMut<T: Send> {
        /// Parallel iterator over mutable `n`-sized chunks.
        fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
            ParChunksMut { slice: self, size }
        }
    }

    /// `range.into_par_iter()` (rayon's `IntoParallelIterator`).
    pub trait IntoParallelIterator {
        /// The parallel iterator type.
        type Iter;
        /// Converts into a parallel iterator.
        fn into_par_iter(self) -> Self::Iter;
    }

    impl IntoParallelIterator for Range<usize> {
        type Iter = ParRange;
        fn into_par_iter(self) -> ParRange {
            ParRange { range: self }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::{Arc, Barrier, Mutex};

    /// Every test pins the same size first (first call wins), so the pool
    /// has helpers even on a one-CPU host.
    fn pool4() {
        super::ThreadPoolBuilder::new().num_threads(4).build_global().unwrap();
    }

    #[test]
    fn par_chunks_map_collect_preserves_order() {
        pool4();
        let v: Vec<u32> = (0..1000).collect();
        let sums: Vec<u64> = v.par_chunks(7).map(|c| c.iter().map(|&x| x as u64).sum()).collect();
        let want: Vec<u64> = v.chunks(7).map(|c| c.iter().map(|&x| x as u64).sum()).collect();
        assert_eq!(sums, want);
    }

    #[test]
    fn par_chunks_mut_enumerate_writes_disjoint() {
        pool4();
        let mut v = vec![0usize; 100];
        v.par_chunks_mut(9).enumerate().for_each(|(i, c)| {
            for x in c.iter_mut() {
                *x = i;
            }
        });
        for (j, &x) in v.iter().enumerate() {
            assert_eq!(x, j / 9);
        }
        let firsts: Vec<usize> = v.par_chunks_mut(9).enumerate().map(|(i, c)| i + c[0]).collect();
        assert_eq!(firsts, (0..firsts.len()).map(|i| 2 * i).collect::<Vec<_>>());
    }

    #[test]
    fn range_into_par_iter() {
        pool4();
        let sq: Vec<usize> = (0..64usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(sq[63], 63 * 63);
        assert_eq!(sq.len(), 64);
    }

    #[test]
    fn current_num_threads_positive() {
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn order_is_kept_over_many_tasks() {
        pool4();
        for n in [2usize, 3, 17, 100, 10_007] {
            let got: Vec<usize> = (0..n).into_par_iter().map(|i| 3 * i + 1).collect();
            assert_eq!(got, (0..n).map(|i| 3 * i + 1).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn nested_call_inside_a_task_completes() {
        pool4();
        let got: Vec<usize> = (0..16usize)
            .into_par_iter()
            .map(|i| (0..100usize).into_par_iter().map(|j| i * j).collect::<Vec<_>>().iter().sum())
            .collect();
        let want: Vec<usize> = (0..16).map(|i| i * (0..100).sum::<usize>()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn two_threads_calling_at_once_both_get_correct_results() {
        pool4();
        let start = Arc::new(Barrier::new(2));
        let callers: Vec<_> = (0..2usize)
            .map(|t| {
                let start = start.clone();
                std::thread::spawn(move || {
                    start.wait();
                    for round in 0..200usize {
                        let k = t * 1000 + round;
                        let got: Vec<usize> =
                            (0..257usize).into_par_iter().map(|i| i ^ k).collect();
                        assert_eq!(got, (0..257).map(|i| i ^ k).collect::<Vec<_>>());
                    }
                })
            })
            .collect();
        for h in callers {
            h.join().expect("caller thread panicked");
        }
    }

    #[test]
    fn task_panic_reaches_the_caller_and_the_pool_survives() {
        pool4();
        let caught = std::panic::catch_unwind(|| {
            (0..64usize).into_par_iter().for_each(|i| {
                if i == 37 {
                    std::panic::panic_any(format!("task {i} failed"));
                }
            })
        })
        .expect_err("the task panic must reach the caller");
        assert_eq!(caught.downcast_ref::<String>().map(String::as_str), Some("task 37 failed"));
        let after: Vec<usize> = (0..64usize).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(after, (1..65).collect::<Vec<_>>());
    }

    #[test]
    fn caller_claims_from_the_front_and_helpers_from_the_back() {
        fn noop(_: usize) {}
        let job = super::Job {
            unclaimed: super::AtomicU64::new(5),
            blocks: 5,
            done: Mutex::new(0),
            all_done: std::sync::Condvar::new(),
            panic: Mutex::new(None),
            task: &noop as &super::Task,
        };
        let order: Vec<Option<usize>> =
            [false, true, true, false, false, true, false].map(|back| job.claim(back)).into();
        assert_eq!(order, [Some(0), Some(4), Some(3), Some(1), Some(2), None, None]);
        assert!(job.exhausted());
    }

    #[test]
    fn the_same_threads_run_tasks_across_calls() {
        pool4();
        let seen = Mutex::new(HashSet::new());
        for _ in 0..100 {
            (0..64usize).into_par_iter().for_each(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
            });
        }
        let distinct = seen.into_inner().unwrap().len();
        assert!(
            distinct <= super::current_num_threads(),
            "{distinct} distinct threads ran tasks; the pool has {}",
            super::current_num_threads()
        );
    }
}
