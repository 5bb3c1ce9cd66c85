#pragma once
// A small fixed-size thread pool with blocking chunked fan-out.
//
// The simulator separates *simulated* time (ehw::sim::SimClock, which
// models the FPGA) from *host* time. Host threads are only an accelerator
// for the functional simulation: candidate circuits evaluated on different
// simulated arrays are independent pixel pipelines, so we fan their
// evaluation out across cores. Determinism is preserved because each unit
// of work owns its own RNG stream and writes to disjoint outputs.
//
// The hot entry point is parallel_chunks: the range is split into one
// contiguous chunk per worker, chunks are enqueued as plain
// {function-pointer, context} records (no std::function or packaged_task
// allocation per task), the caller runs the first chunk inline, and a
// std::latch collects completion. submit() is the generic one-off task:
// sched::ArrayPool runs every mission job body as one on global().
//
// One FIFO queue that every worker pops: whichever worker is idle takes
// the oldest task, so there is no per-worker backlog to rebalance, and a
// queue operation's nanoseconds are nothing against a job body's
// milliseconds.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <latch>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace ehw {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  /// Runs every queued task, including any that a running task submits
  /// meanwhile, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a generic task and returns its future.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.push(Task{nullptr, nullptr, 0, 0, nullptr,
                       [task] { (*task)(); }});
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs body(lo, hi) over disjoint contiguous chunks covering
  /// [begin, end), one chunk per worker, blocking until all complete.
  /// The calling thread executes the first chunk itself. `body` must be
  /// safe to invoke concurrently on disjoint ranges. The first exception
  /// thrown by any chunk is rethrown here once every chunk has finished.
  template <typename F>
  void parallel_chunks(std::size_t begin, std::size_t end, F&& body) {
    if (begin >= end) return;
    const std::size_t n = end - begin;
    const std::size_t chunks =
        std::min(n, std::max<std::size_t>(1, size()));
    if (chunks <= 1) {
      body(begin, end);
      return;
    }
    using Body = std::remove_reference_t<F>;
    Body& ref = body;
    const std::size_t per = (n + chunks - 1) / chunks;
    const std::size_t used = (n + per - 1) / per;  // non-empty chunks
    FanoutState state(static_cast<std::ptrdiff_t>(used - 1));
    {
      std::lock_guard lock(mutex_);
      for (std::size_t c = 1; c < used; ++c) {
        const std::size_t lo = begin + c * per;
        const std::size_t hi = std::min(end, lo + per);
        queue_.push(Task{
            [](void* ctx, std::size_t l, std::size_t h) {
              (*static_cast<Body*>(ctx))(l, h);
            },
            const_cast<void*>(static_cast<const void*>(&ref)), lo, hi,
            &state, nullptr});
      }
    }
    cv_.notify_all();
    try {
      body(begin, std::min(end, begin + per));
    } catch (...) {
      state.record_error();
    }
    state.done.wait();
    if (state.error) std::rethrow_exception(state.error);
  }

  /// Runs fn(i) for i in [begin, end), blocking until all complete.
  /// Work is split into contiguous chunks (one per worker) so that image
  /// rows stay cache-friendly. Executes inline when the range is tiny or
  /// the pool has a single worker.
  template <typename F>
  void parallel_for(std::size_t begin, std::size_t end, F&& fn) {
    parallel_chunks(begin, end, [&fn](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    });
  }

  /// Process-wide pool of max(2, hardware_concurrency) workers: the one
  /// executor every sched::ArrayPool runs its job bodies on (benches
  /// share it too). At least 2 so that one long job body cannot hold a
  /// single-core host's only worker while the next admitted one waits.
  /// A job body blocks in parallel_chunks on its mission's host pool, so
  /// global() may never be that pool (ArrayPool refuses it as
  /// PoolConfig::host_pool): every worker could be such a body, waiting
  /// on chunks that no free worker is left to run.
  static ThreadPool& global();

 private:
  /// Caller-stack completion record for one parallel_chunks fan-out:
  /// counts worker chunks down and carries the first exception any chunk
  /// threw back to the caller.
  struct FanoutState {
    explicit FanoutState(std::ptrdiff_t worker_chunks)
        : done(worker_chunks) {}
    void record_error() noexcept {
      std::lock_guard lock(mutex);
      if (!error) error = std::current_exception();
    }
    std::latch done;
    std::mutex mutex;
    std::exception_ptr error;
  };

  /// One queued unit of work: either a chunk of a parallel_chunks fan-out
  /// (bulk != nullptr; a plain function pointer plus caller-stack context,
  /// completion signalled through `state`) or a generic submit() closure.
  struct Task {
    void (*bulk)(void*, std::size_t, std::size_t);
    void* ctx;
    std::size_t lo;
    std::size_t hi;
    FanoutState* state;
    std::function<void()> generic;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace ehw
