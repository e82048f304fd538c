/**
 * @file
 * Forwarding decorators for the benchmark's traced run.
 *
 * The engine reaches the workload and the tiered runtime only through
 * two public interfaces, gpu::AccessStream and TieredRuntime. The
 * decorators below implement those interfaces by forwarding every call,
 * arguments and result unchanged, to the real object, so the traced run
 * simulates exactly what the untraced run does. On the way through they
 * count every call and time a random sample of them: a steady_clock read
 * costs more than the ~15 ns hit-path calls it would measure, so timing
 * every call would swamp them. Each sample also times an empty region
 * next to the call and subtracts it, which removes the clock's own cost
 * at the moment and in the cache state the call ran in.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>

#include "core/runtime.hpp"
#include "gpu/access_stream.hpp"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Calls into one layer, and the host time of a sample of them. */
class LayerClock
{
  public:
    /** Time on average one call in @p mean_period (1 = every call). The
     *  gap between samples is drawn uniformly from [1, 2p - 1] so the
     *  sample cannot lock onto a periodic access pattern (a workload
     *  touching each page 16 times in a row, say). */
    explicit LayerClock(std::uint64_t mean_period, std::uint64_t seed)
        : span(2 * mean_period - 1), rng(seed | 1)
    {
    }

    /** Run @p call, timing it if it is the next sampled call. */
    template <typename F>
    decltype(auto)
    operator()(F &&call)
    {
        ++calls;
        if (--untilSample != 0)
            return call();
        untilSample = 1 + next() % span;
        ++sampled;
        const Clock::time_point t0 = Clock::now();
        const Clock::time_point t1 = Clock::now();
        if constexpr (std::is_void_v<decltype(call())>) {
            call();
            sampledNs += ((Clock::now() - t1) - (t1 - t0)).count();
        } else {
            auto r = call();
            sampledNs += ((Clock::now() - t1) - (t1 - t0)).count();
            return r;
        }
    }

    /** Host ns over all calls, extrapolated from the sample. */
    double
    estimateNs() const
    {
        if (sampled == 0 || sampledNs <= 0)
            return 0.0;
        return double(sampledNs) * double(calls) / double(sampled);
    }

    std::uint64_t calls = 0;
    std::uint64_t sampled = 0;
    std::int64_t sampledNs = 0;

  private:
    std::uint64_t
    next()
    {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    }

    std::uint64_t span;
    std::uint64_t rng;
    std::uint64_t untilSample = 1;
};

/** Mean calls between samples on each boundary. The hit-path calls
 *  (stream pulls, tryHit) run 10-20 ns each and number in the millions;
 *  the miss path is slower and rarer; ticks and flushes are timed on
 *  every call. */
inline constexpr std::uint64_t kHotPeriod = 64;
inline constexpr std::uint64_t kMissPeriod = 8;

/** The clocks of one traced pass, one per timed layer boundary. */
struct Layers
{
    /** AccessStream::nextAccess / nextAccessAt. */
    LayerClock next{kHotPeriod, 0x243f6a8885a308d3};
    /** TieredRuntime::tryHit, and how many of its calls committed. */
    LayerClock tryHit{kHotPeriod, 0x13198a2e03707344};
    std::uint64_t tryHitCommits = 0;
    /** TieredRuntime::access, the miss path. */
    LayerClock access{kMissPeriod, 0xa4093822299f31d0};
    /** TieredRuntime::backgroundTick. */
    LayerClock tick{1, 0x082efa98ec4e6c89};
    /** TieredRuntime::flush. */
    LayerClock flush{1, 0x452821e638d01377};
};

/** AccessStream that forwards to @p inner and clocks its pulls. */
class TracedStream final : public gmt::gpu::AccessStream
{
  public:
    TracedStream(gmt::gpu::AccessStream &inner, Layers &layers)
        : inner(inner), layers(layers)
    {
    }

    unsigned numWarps() const override { return inner.numWarps(); }
    std::uint64_t numPages() const override { return inner.numPages(); }

    bool
    nextAccess(gmt::WarpId warp, gmt::gpu::Access &out) override
    {
        return layers.next([&] { return inner.nextAccess(warp, out); });
    }

    bool
    nextAccessAt(gmt::SimTime now, gmt::WarpId warp,
                 gmt::gpu::Access &out) override
    {
        return layers.next(
            [&] { return inner.nextAccessAt(now, warp, out); });
    }

    gmt::gpu::serving::ServingHooks *
    serving() override
    {
        return inner.serving();
    }

    const std::string &name() const override { return inner.name(); }
    void reset() override { inner.reset(); }

  private:
    gmt::gpu::AccessStream &inner;
    Layers &layers;
};

/** TieredRuntime that forwards to @p inner and clocks each entry point.
 *  Counters, page table and tier state all stay in @p inner; this
 *  object's own base state is never used. */
class TracedRuntime final : public gmt::TieredRuntime
{
  public:
    TracedRuntime(gmt::TieredRuntime &inner, Layers &layers)
        : gmt::TieredRuntime(inner.config()), inner(inner), layers(layers)
    {
    }

    gmt::AccessResult
    access(gmt::SimTime now, gmt::WarpId warp, gmt::PageId page,
           bool is_write) override
    {
        return layers.access(
            [&] { return inner.access(now, warp, page, is_write); });
    }

    bool
    tryHit(gmt::SimTime now, gmt::WarpId warp, gmt::PageId page,
           bool is_write, gmt::AccessResult &out) override
    {
        const bool hit = layers.tryHit(
            [&] { return inner.tryHit(now, warp, page, is_write, out); });
        layers.tryHitCommits += hit ? 1 : 0;
        return hit;
    }

    void
    backgroundTick(gmt::SimTime now) override
    {
        layers.tick([&] { inner.backgroundTick(now); });
    }

    gmt::SimTime
    flush(gmt::SimTime now) override
    {
        return layers.flush([&] { return inner.flush(now); });
    }

    const char *name() const override { return inner.name(); }
    void reset() override { inner.reset(); }

  private:
    gmt::TieredRuntime &inner;
    Layers &layers;
};

} // namespace perfbench
