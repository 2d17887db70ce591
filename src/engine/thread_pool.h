/**
 * @file
 * Self-clocking fan-out pool used by the PredictionEngine.
 *
 * A pool of N lanes is the calling thread (lane 0) plus N-1 helper
 * threads (lanes 1..N-1). parallelForWorker cuts [0, n) into
 * fixed-size chunks, and every lane, the caller included, claims
 * chunks with one fetch_add each until none is left. The call returns
 * once every claimed chunk has finished: the caller never waits on a
 * helper that has not started, a one-chunk call never leaves the
 * caller, and a one-lane pool starts no thread at all.
 *
 * Bodies receive their lane index in [0, size()), so callers can keep
 * per-lane state (scratch buffers, counters) without locks: within
 * one call, no two bodies that run at the same time share a lane.
 */
#ifndef FACILE_ENGINE_THREAD_POOL_H
#define FACILE_ENGINE_THREAD_POOL_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace facile::engine {

class ThreadPool
{
  public:
    /** A pool of @p lanes lanes (at least one): lanes - 1 helpers. */
    explicit ThreadPool(int lanes)
    {
        for (int lane = 1; lane < lanes; ++lane)
            helpers_.emplace_back([this, lane] { helperLoop(lane); });
    }

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto &h : helpers_)
            h.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Lanes: the caller plus the helper threads. */
    int size() const { return static_cast<int>(helpers_.size()) + 1; }

    /**
     * Run @p body(index) for every index in [0, n) and block until all
     * indices completed. If @p body throws, the remaining indices are
     * abandoned and the first exception is rethrown on the calling
     * thread (a helper must never unwind, which would std::terminate
     * the process).
     */
    void
    parallelFor(std::size_t n, const std::function<void(std::size_t)> &body)
    {
        parallelForWorker(n, [&body](int, std::size_t i) { body(i); });
    }

    /** As parallelFor, but the body also receives its lane index. */
    void
    parallelForWorker(std::size_t n,
                      const std::function<void(int, std::size_t)> &body)
    {
        if (n == 0)
            return;
        Lane &self = currentLane();
        // Re-entrant call from a body of this pool: run inline on the
        // current lane, so per-lane state of the outer call never sees
        // a second thread claiming the same lane index.
        if (self.pool == this) {
            for (std::size_t i = 0; i < n; ++i)
                body(self.lane, i);
            return;
        }
        const Lane saved = self;
        self = {this, 0};
        struct Restore
        {
            Lane &self;
            Lane saved;
            ~Restore() { self = saved; }
        } restore{self, saved};

        // About kChunksPerLane chunks per lane: small enough to
        // balance uneven block costs, large enough that claiming is
        // one fetch_add per chunk, not per index.
        constexpr std::size_t kChunksPerLane = 8;
        const auto lanes = static_cast<std::size_t>(size());
        const std::size_t chunk =
            std::max<std::size_t>(1, n / (kChunksPerLane * lanes));
        const std::size_t chunks = (n + chunk - 1) / chunk;
        const std::size_t wake = std::min(lanes - 1, chunks - 1);
        if (wake == 0) {
            for (std::size_t i = 0; i < n; ++i)
                body(0, i);
            return;
        }

        auto call = std::make_shared<Call>(body, n, chunk, chunks);
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (std::size_t k = 0; k < wake; ++k)
                queue_.push_back(call);
        }
        for (std::size_t k = 0; k < wake; ++k)
            cv_.notify_one();
        call->run(0);
        // Every chunk is claimed now; wait only for the ones that
        // helpers are still running.
        for (int done; (done = call->finished.load(
                            std::memory_order_acquire)) != call->chunks;)
            call->finished.wait(done, std::memory_order_acquire);
        if (call->error)
            std::rethrow_exception(call->error);
    }

  private:
    /** One parallelForWorker call, shared by the lanes that join it. */
    struct Call
    {
        Call(const std::function<void(int, std::size_t)> &b, std::size_t n_,
             std::size_t chunk_, std::size_t chunks_)
            : body(b), n(n_), chunk(chunk_), chunks(static_cast<int>(chunks_))
        {}

        /**
         * Valid while chunks remain unclaimed. A helper that joins
         * after the caller returned claims nothing and never calls it.
         */
        const std::function<void(int, std::size_t)> &body;
        const std::size_t n, chunk;
        const int chunks;
        std::atomic<int> next{0};     ///< next unclaimed chunk
        std::atomic<int> finished{0}; ///< chunks run (or abandoned)
        std::atomic<bool> failed{false};
        std::exception_ptr error; ///< set once, by whoever failed first

        /** Claim and run chunks on @p lane until none is left. */
        void
        run(int lane)
        {
            for (;;) {
                const int c = next.fetch_add(1, std::memory_order_relaxed);
                if (c >= chunks)
                    return;
                if (!failed.load(std::memory_order_relaxed)) {
                    const std::size_t begin =
                        static_cast<std::size_t>(c) * chunk;
                    const std::size_t end = std::min(n, begin + chunk);
                    try {
                        for (std::size_t i = begin; i < end; ++i)
                            body(lane, i);
                    } catch (...) {
                        if (!failed.exchange(true,
                                             std::memory_order_relaxed))
                            error = std::current_exception();
                    }
                }
                if (finished.fetch_add(1, std::memory_order_release) + 1 ==
                    chunks)
                    finished.notify_one();
            }
        }
    };

    /** The pool and lane the current thread is running a body for. */
    struct Lane
    {
        const ThreadPool *pool = nullptr;
        int lane = 0;
    };

    static Lane &
    currentLane()
    {
        thread_local Lane lane;
        return lane;
    }

    void
    helperLoop(int lane)
    {
        currentLane() = {this, lane};
        for (;;) {
            std::shared_ptr<Call> call;
            {
                std::unique_lock<std::mutex> lock(mu_);
                cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
                if (stop_)
                    return;
                call = std::move(queue_.front());
                queue_.pop_front();
            }
            call->run(lane);
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::shared_ptr<Call>> queue_; ///< guarded by mu_
    bool stop_ = false;                       ///< guarded by mu_
    std::vector<std::thread> helpers_;        ///< last: they use the above
};

} // namespace facile::engine

#endif // FACILE_ENGINE_THREAD_POOL_H
