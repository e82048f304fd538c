/**
 * @file
 * A reference kernel that measures how fast the host runs right now.
 *
 * On a shared machine the same simulator pass can take 1.8x longer from
 * one minute to the next while the clock frequency stays put: cores and
 * caches are shared with other tenants. Raw host time then spreads by
 * 13-49% between runs, more than the changes the benchmark must resolve.
 * The gauge is benchmark-owned code with the simulator's profile on the
 * host: a small event heap, an L2-resident hash-table probe and a burst
 * of independent integer work per event. It slows down with the host as
 * the simulator does, and no change to the simulator changes it. The
 * benchmark runs it between cells and scales each cell's host time by
 * kGaugeRefNs over the mean of the gauge runs on either side, i.e. to a
 * host on which one gauge run takes kGaugeRefNs.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench
{

/** One gauge run on the reference host: about its median on a 4-core
 *  Xeon VM at 2.1 GHz, so scaled times read close to raw ones there. */
inline constexpr double kGaugeRefNs = 2.3e6;

class HostGauge
{
  public:
    HostGauge()
    {
        std::uint64_t x = kSeed;
        keys.resize(kKeys);
        for (std::uint32_t &k : keys)
            k = std::uint32_t(next(x));
        for (std::uint32_t i = 0; i < kKeys; ++i)
            table[keys[i]] = i;
    }

    /** Host ns of one run of the kernel. */
    double
    run()
    {
        const auto t0 = std::chrono::steady_clock::now();
        std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                            std::greater<>>
            events;
        for (std::uint64_t w = 0; w < 64; ++w)
            events.push(w);
        std::uint64_t x = kSeed, h = 0, a = 1, b = 2, c = 3;
        for (int i = 0; i < kEvents; ++i) {
            const std::uint64_t now = events.top();
            events.pop();
            const std::uint64_t r = next(x);
            h += table.find(keys[r % kKeys])->second;
            a = a * 0x9e3779b97f4a7c15 + r;
            b ^= (b >> 7) + a;
            c = (c << 3) ^ (c >> 5) ^ b;
            events.push(now + 1000 + ((h & 3) == 0 ? (r & 0xffff) : 0));
        }
        h ^= a ^ b ^ c;
        asm volatile("" : : "r"(h) : "memory");
        return double((std::chrono::steady_clock::now() - t0).count());
    }

  private:
    static constexpr std::uint64_t kSeed = 0x2545f4914f6cdd1d;
    static constexpr std::uint32_t kKeys = 8192;
    static constexpr int kEvents = 25000;

    static std::uint64_t
    next(std::uint64_t &x)
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }

    std::vector<std::uint32_t> keys;
    std::unordered_map<std::uint32_t, std::uint32_t> table;
};

} // namespace perfbench
