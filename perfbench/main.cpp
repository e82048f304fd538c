/**
 * @file
 * Host-time benchmark of the simulator.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs one workload's cells serially on one thread through the public
 * harness API (makeWorkload / makeTenantStream, makeSystem, runOne, and
 * runMatrix for the reference pass), repeats whole passes over the cells
 * for S seconds, checks every cell's simulated outcome, and prints one
 * JSON object on stdout. With --trace 1 it alternates untraced passes
 * with passes driven through the forwarding decorators of traced.hpp and
 * reports per-layer host time instead of the end-to-end numbers.
 *
 * run.py builds this binary, compares the default-seed outcomes with
 * the committed digests, derives paper_err from the "paper" cells, and
 * prints the benchmark's result line.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/run_matrix.hpp"
#include "host_gauge.hpp"
#include "traced.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "workloads/factory.hpp"
#include "workloads/tenant_schedule.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace gmt;
using harness::ExperimentResult;
using harness::RunSpec;
using harness::System;
using perfbench::Clock;

/** The figure benches' seed: RuntimeConfig's default. */
constexpr std::uint64_t kDefaultSeed = 1;

/** The cell being simulated and the workload's cell count, for the
 *  abort report. */
const char *currentCell = "setup";
std::size_t numCells = 0;

/** One cell of a workload: a RunSpec plus the page-visit length, which
 *  RunSpec cannot carry. */
struct Cell
{
    std::string label;
    RunSpec spec;
    unsigned touchesPerVisit = 16;
};

/** Table 2 apps x systems at @p cfg, one cell per pair. */
std::vector<Cell>
appCells(const std::vector<std::string> &apps,
         const std::vector<System> &systems, const RuntimeConfig &cfg,
         unsigned touches)
{
    std::vector<Cell> cells;
    for (const std::string &app : apps) {
        for (System sys : systems) {
            Cell c;
            c.label = app + "/" + harness::systemName(sys);
            c.spec.system = sys;
            c.spec.workload = app;
            c.spec.cfg = cfg;
            c.spec.warps = 64;
            c.touchesPerVisit = touches;
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/** Fig. 8 + Fig. 14: the nine Table 2 apps x five systems on the §3.1
 *  platform (T1 16 GB, T2 64 GB at 1:1024, OSF 2). */
std::vector<Cell>
paperSweep(std::uint64_t seed)
{
    RuntimeConfig cfg = RuntimeConfig::paperDefault();
    cfg.seed = seed;
    std::vector<std::string> apps;
    for (const workloads::WorkloadInfo &info : workloads::allWorkloads())
        apps.push_back(info.name);
    return appCells(apps,
                    {System::Bam, System::GmtTierOrder, System::GmtRandom,
                     System::GmtReuse, System::Hmm},
                    cfg, 16);
}

/** Miss-heavy cells: OSF 8 and one touch per page visit, so most
 *  accesses leave Tier-1; Srad, Backprop and Hotspot also write back. */
std::vector<Cell>
missStorm(std::uint64_t seed)
{
    RuntimeConfig cfg = RuntimeConfig::paperDefault();
    cfg.setOversubscription(8.0);
    cfg.seed = seed;
    return appCells({"BFS", "PageRank", "Srad", "Backprop", "Hotspot"},
                    {System::Bam, System::GmtTierOrder, System::GmtReuse,
                     System::Hmm},
                    cfg, 1);
}

/** Requests per tenant in a tenant_serving cell. */
constexpr std::uint64_t kTenantRequests = 24000;

/** bench_tenants' four tenants (Zipf kv, uniform scan, sequential etl,
 *  hotspot web) tiling @p num_pages, seeded seed + 10 + t. */
std::vector<workloads::TenantSpec>
servingTenants(std::uint64_t num_pages, std::uint64_t seed)
{
    using workloads::ArrivalPattern;
    const ArrivalPattern patterns[4] = {
        ArrivalPattern::Zipf, ArrivalPattern::Uniform, ArrivalPattern::Scan,
        ArrivalPattern::Hotspot};
    const char *const names[4] = {"kv", "scan", "etl", "web"};
    std::vector<workloads::TenantSpec> specs(4);
    for (unsigned t = 0; t < 4; ++t) {
        workloads::TenantSpec &s = specs[t];
        s.name = names[t];
        s.pattern = patterns[t];
        s.pages = num_pages / 4;
        s.requests = kTenantRequests;
        s.periodNs = 50000;
        s.phaseNs = t * 12500;
        s.warps = 8;
        s.touchesPerRequest = 8;
        s.seed = seed + 10 + t;
    }
    specs[3].pages += num_pages - 4 * (num_pages / 4);
    return specs;
}

/** GMT-Reuse serving at OSF {2, 8}, each with the shared Tier-1 clock
 *  and with QoS (partitioned clock, pinned hot sets, fetch window 4). */
std::vector<Cell>
tenantServing(std::uint64_t seed)
{
    std::vector<Cell> cells;
    for (double osf : {2.0, 8.0}) {
        RuntimeConfig base = RuntimeConfig::paperDefault();
        base.setOversubscription(osf);
        base.seed = seed;
        const auto tenants = servingTenants(base.numPages, seed);
        std::uint64_t end = 0;
        for (const auto &s : tenants) {
            end += s.pages;
            base.tenants.pageBounds.push_back(end);
        }
        for (bool qos : {false, true}) {
            Cell c;
            c.label = "osf" + std::to_string(int(osf))
                      + (qos ? "/qos" : "/shared");
            c.spec.system = System::GmtReuse;
            c.spec.cfg = base;
            c.spec.tenants = tenants;
            if (qos) {
                TenantQosConfig &q = c.spec.cfg.tenants;
                q.partitionTier1 = true;
                const std::uint64_t quota = base.tier1Pages / 4;
                q.tier1Quota = {quota, quota, quota, quota};
                q.pinnedPages = {quota / 2, 0, 0, quota / 4};
                q.fetchWindow = 4;
            }
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/** A cell's simulated objects, built fresh for every run of the cell. */
struct Built
{
    std::unique_ptr<gpu::AccessStream> stream;
    std::unique_ptr<TieredRuntime> runtime;
    gpu::EngineConfig engine;
};

/** Build @p c the way runSystem / runTenants would. */
Built
build(const Cell &c)
{
    Built b;
    const RuntimeConfig &cfg = c.spec.cfg;
    if (c.spec.tenants.empty()) {
        workloads::WorkloadConfig wc;
        wc.pages = cfg.numPages;
        wc.warps = c.spec.warps;
        wc.touchesPerVisit = c.touchesPerVisit;
        wc.seed = cfg.seed + 13;
        b.stream = workloads::makeWorkload(c.spec.workload, wc);
    } else {
        workloads::TenantScheduleConfig sc;
        sc.computeNsPerAccess = b.engine.computeNsPerAccess;
        b.stream = workloads::makeTenantStream(c.spec.tenants, sc);
    }
    b.runtime = harness::makeSystem(c.spec.system, cfg);
    return b;
}

double
nsSince(Clock::time_point t0)
{
    return double((Clock::now() - t0).count());
}

/** Host time of one untraced pass over a workload's cells. */
struct Pass
{
    double runNs = 0;         ///< raw host time in runOne
    double scaledRunNs = 0;   ///< the same, at the gauge's reference speed
    double scaledSetupNs = 0; ///< build time, at the reference speed
    double gaugeNs = 0;       ///< the gauge runs between the cells
    std::uint64_t accesses = 0;
};

/** Build and run every cell once through runOne, with a gauge run
 *  before the first cell and after each one. */
Pass
untracedPass(const std::vector<Cell> &cells,
             std::vector<ExperimentResult> &out, perfbench::HostGauge &gauge)
{
    Pass p;
    out.resize(cells.size());
    double before = gauge.run();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        currentCell = cells[i].label.c_str();
        const Clock::time_point t0 = Clock::now();
        Built b = build(cells[i]);
        const Clock::time_point t1 = Clock::now();
        out[i] = harness::runOne(*b.runtime, *b.stream, b.engine);
        const double run = nsSince(t1);
        const double after = gauge.run();
        const double scale = 2 * perfbench::kGaugeRefNs / (before + after);
        p.runNs += run;
        p.scaledRunNs += run * scale;
        p.scaledSetupNs += double((t1 - t0).count()) * scale;
        p.gaugeNs += after;
        p.accesses += out[i].accesses;
        before = after;
    }
    return p;
}

/** runOne's harvest, repeated for the traced run (which calls the
 *  engine itself so it can time GpuEngine::run and keep its RunResult).
 *  The purity check compares the two field for field. */
ExperimentResult
harvest(TieredRuntime &runtime, gpu::AccessStream &stream,
        SimTime flushed, std::uint64_t fast_path_hits)
{
    const auto &c = runtime.counters();
    ExperimentResult r;
    r.system = runtime.name();
    r.workload = stream.name();
    r.makespanNs = flushed;
    r.accesses = c.value("accesses");
    r.tier1Hits = c.value("tier1_hits");
    r.tier1Misses = c.value("tier1_misses");
    r.tier2Lookups = c.value("tier2_lookups");
    r.tier2Hits = c.value("tier2_hits");
    r.wastefulLookups = c.value("wasteful_lookups");
    r.ssdReads = c.value("ssd_reads");
    r.ssdWrites = c.value("ssd_writes");
    r.tier1Evictions = c.value("tier1_evictions");
    r.evictToTier2 = c.value("evict_to_tier2");
    r.tier2Fetches = c.value("tier2_fetches");
    r.predTotal = c.value("pred_total");
    r.predCorrect = c.value("pred_correct");
    r.overflowRedirects = c.value("overflow_redirects");
    r.prefetches = c.value("prefetches");
    r.fastPathHits = fast_path_hits;
    if (gpu::serving::ServingHooks *hooks = stream.serving()) {
        for (unsigned t = 0; t < hooks->numTenants(); ++t) {
            const gpu::serving::TenantSnapshot s = hooks->snapshot(t);
            harness::TenantResult tr;
            tr.tenant = s.name;
            tr.requests = s.requests;
            tr.accesses = s.counters.accesses;
            tr.tier1Hits = s.counters.tier1Hits;
            tr.tier2Hits = s.counters.tier2Hits;
            tr.faults = s.counters.faults;
            tr.p50Ns = s.latency->percentile(50);
            tr.p95Ns = s.latency->percentile(95);
            tr.p99Ns = s.latency->percentile(99);
            tr.maxNs = s.latency->max();
            tr.sumNs = s.latency->sum();
            r.tenants.push_back(std::move(tr));
        }
    }
    return r;
}

// RunResult's diagnostic counters belong to engine accelerators that may
// be removed; read each only while it exists.
template <typename R>
std::uint64_t
eventsDispatched(const R &rr)
{
    if constexpr (requires { rr.eventsDispatched; })
        return rr.eventsDispatched;
    return 0;
}

template <typename R>
std::uint64_t
laneDispatches(const R &rr)
{
    if constexpr (requires { rr.laneDispatches; })
        return rr.laneDispatches;
    return 0;
}

template <typename R>
std::uint64_t
ffEpochs(const R &rr)
{
    if constexpr (requires { rr.ffEpochs; })
        return rr.ffEpochs;
    return 0;
}

/** Host ns one call spends in a LayerClock of mean period @p period
 *  besides the call itself, measured on a no-op. */
double
clockCostNs(std::uint64_t period)
{
    constexpr std::uint64_t kCalls = 1 << 18;
    perfbench::LayerClock clk(period, 0x9e3779b97f4a7c15);
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < kCalls; ++i) {
        clk([] {
            asm volatile("" ::: "memory");
            return 0;
        });
    }
    return nsSince(t0) / double(kCalls);
}

/** The decorators' bookkeeping cost per call at each sampling period;
 *  gpu.self takes it off the engine's time. */
struct ClockCost
{
    double every = 0;
    double miss = 0;
    double hot = 0;
};

ClockCost
measureClockCost()
{
    return {clockCostNs(1), clockCostNs(perfbench::kMissPeriod),
            clockCostNs(perfbench::kHotPeriod)};
}

/** Per-layer totals of one traced pass, summed over its cells. */
struct TracedPass
{
    double setupNs = 0;
    double cellNs = 0;   ///< reset + engine run + flush + harvest
    double engineNs = 0; ///< GpuEngine::run
    perfbench::Layers layers;
    std::uint64_t accesses = 0;
    std::uint64_t events = 0;
    std::uint64_t lane = 0;
    std::uint64_t ffEpochs = 0;
    std::uint64_t fastPathHits = 0;
    std::uint64_t admissionWaits = 0;
};

/** Build and run every cell once through the decorators, mirroring
 *  runOne: reset, engine run, flush, harvest. */
TracedPass
tracedPass(const std::vector<Cell> &cells,
           std::vector<ExperimentResult> &out)
{
    TracedPass p;
    out.resize(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        currentCell = cells[i].label.c_str();
        const Clock::time_point t0 = Clock::now();
        Built b = build(cells[i]);
        p.setupNs += nsSince(t0);
        perfbench::TracedRuntime runtime(*b.runtime, p.layers);
        perfbench::TracedStream stream(*b.stream, p.layers);

        const Clock::time_point t1 = Clock::now();
        runtime.reset();
        stream.reset();
        gpu::GpuEngine engine(b.engine);
        const Clock::time_point t2 = Clock::now();
        const gpu::RunResult rr = engine.run(runtime, stream);
        p.engineNs += nsSince(t2);
        const SimTime flushed = runtime.flush(rr.makespanNs);
        out[i] = harvest(*b.runtime, stream, flushed, rr.fastPathHits);
        p.cellNs += nsSince(t1);

        p.accesses += rr.accesses;
        p.events += eventsDispatched(rr);
        p.lane += laneDispatches(rr);
        p.ffEpochs += ffEpochs(rr);
        p.fastPathHits += rr.fastPathHits;
        p.admissionWaits += b.runtime->counters().value("admission_waits");
    }
    return p;
}

/** This process's high-water RSS. VmHWM belongs to the current address
 *  space; getrusage's ru_maxrss would also carry the peak of a parent
 *  process across exec. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        fatal("cannot read /proc/self/status for the peak RSS");
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof line, f)) {
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    if (kb < 0)
        fatal("no VmHWM line in /proc/self/status");
    return double(kb) / 1024.0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** The invariants every cell's outcome must satisfy, at any seed. */
std::vector<std::string>
invariantFailures(const ExperimentResult &r)
{
    std::vector<std::string> f;
    if (r.tier1Hits + r.tier1Misses != r.accesses)
        f.push_back("tier1Hits + tier1Misses != accesses");
    if (r.fastPathHits > r.tier1Hits)
        f.push_back("fastPathHits > tier1Hits");
    if (r.tier2Hits > r.tier2Lookups)
        f.push_back("tier2Hits > tier2Lookups");
    if (!r.tenants.empty()) {
        std::uint64_t sum = 0;
        for (const harness::TenantResult &t : r.tenants)
            sum += t.accesses;
        if (sum != r.accesses)
            f.push_back("per-tenant accesses do not sum to the total");
    }
    if (r.accesses == 0)
        f.push_back("no accesses simulated");
    return f;
}

// ---- JSON output ----------------------------------------------------

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(ch));
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

/** Every field of @p r, per-tenant tails included, as one JSON object:
 *  the cell's digest. */
std::string
resultJson(const ExperimentResult &r)
{
    std::string s = "{\"system\":" + quoted(r.system)
        + ",\"workload\":" + quoted(r.workload);
    const std::pair<const char *, std::uint64_t> fields[] = {
        {"makespan_ns", r.makespanNs},
        {"accesses", r.accesses},
        {"tier1_hits", r.tier1Hits},
        {"tier1_misses", r.tier1Misses},
        {"tier2_lookups", r.tier2Lookups},
        {"tier2_hits", r.tier2Hits},
        {"wasteful_lookups", r.wastefulLookups},
        {"ssd_reads", r.ssdReads},
        {"ssd_writes", r.ssdWrites},
        {"tier1_evictions", r.tier1Evictions},
        {"evict_to_tier2", r.evictToTier2},
        {"tier2_fetches", r.tier2Fetches},
        {"pred_total", r.predTotal},
        {"pred_correct", r.predCorrect},
        {"overflow_redirects", r.overflowRedirects},
        {"prefetches", r.prefetches},
        {"fast_path_hits", r.fastPathHits},
    };
    for (const auto &[key, value] : fields)
        s += ",\"" + std::string(key) + "\":" + num(value);
    s += ",\"tenants\":[";
    for (std::size_t i = 0; i < r.tenants.size(); ++i) {
        const harness::TenantResult &t = r.tenants[i];
        s += i ? ",{" : "{";
        s += "\"tenant\":" + quoted(t.tenant);
        const std::pair<const char *, std::uint64_t> tf[] = {
            {"requests", t.requests}, {"accesses", t.accesses},
            {"tier1_hits", t.tier1Hits}, {"tier2_hits", t.tier2Hits},
            {"faults", t.faults},     {"p50_ns", t.p50Ns},
            {"p95_ns", t.p95Ns},      {"p99_ns", t.p99Ns},
            {"max_ns", t.maxNs},      {"sum_ns", t.sumNs},
        };
        for (const auto &[key, value] : tf)
            s += ",\"" + std::string(key) + "\":" + num(value);
        s += "}";
    }
    return s + "]}";
}

/** Metric name -> (value, unit), printed in insertion order. */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> rows;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        rows.push_back({name, {value, unit}});
    }

    std::string
    json() const
    {
        std::string s = "{";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            s += (i ? "," : "") + quoted(rows[i].first) + ":{\"value\":"
                 + num(rows[i].second.first)
                 + ",\"unit\":" + quoted(rows[i].second.second) + "}";
        }
        return s + "}";
    }
};

// ---- Options and host context --------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            fatal("%s needs a value", arg.c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = v;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
            if (end == v || *end)
                fatal("--seed wants an unsigned integer, got '%s'", v);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(v, &end);
            if (end == v || *end || !(o.seconds > 0))
                fatal("--seconds wants a positive number, got '%s'", v);
        } else if (arg == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                fatal("--trace wants 0 or 1, got '%s'", v);
            o.trace = v[0] == '1';
        } else {
            fatal("unknown option '%s' (expected --workload NAME --seed N "
                  "--seconds S --trace 0|1)",
                  arg.c_str());
        }
    }
    if (o.workload.empty())
        fatal("--workload is required");
    return o;
}

/** Refuse GMT_* overrides (both sides of an A/B must measure the
 *  default engine path) and return every registered knob's value,
 *  which is therefore its default. */
std::string
knobsJson()
{
    for (char **env = environ; *env; ++env) {
        const char *eq = std::strchr(*env, '=');
        if (std::strncmp(*env, "GMT_", 4) == 0 && eq && eq[1])
            fatal("%s is set; the benchmark measures the default engine "
                  "path only (unset every GMT_* variable)",
                  *env);
    }
    std::size_t n = 0;
    const util::EnvKnob *knobs = util::envKnobs(&n);
    std::string s = "{";
    for (std::size_t i = 0; i < n; ++i) {
        s += (i ? "," : "") + quoted(knobs[i].name) + ":"
             + quoted(knobs[i].fallback);
    }
    return s + "}";
}

void
reportAbort()
{
    std::printf("{\"aborted\":%s,\"attempted\":%zu}\n",
                quoted(currentCell).c_str(), numCells);
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const std::string knobs = knobsJson();
    setInformEnabled(false);
    setFailureHook(reportAbort);

    std::vector<Cell> cells;
    if (opt.workload == "paper_sweep")
        cells = paperSweep(opt.seed);
    else if (opt.workload == "miss_storm")
        cells = missStorm(opt.seed);
    else if (opt.workload == "tenant_serving")
        cells = tenantServing(opt.seed);
    else
        fatal("unknown workload '%s' (expected paper_sweep, miss_storm "
              "or tenant_serving)",
              opt.workload.c_str());
    numCells = cells.size();
    // Closed-loop cells with the default page visit are exactly RunSpecs
    // and serving cells are RunSpecs with tenants, so the library's own
    // runMatrix gives their reference outcome; the benchmark's
    // build-then-runOne split must reproduce it.
    const bool matrixExpressible =
        std::all_of(cells.begin(), cells.end(), [](const Cell &c) {
            return !c.spec.tenants.empty() || c.touchesPerVisit == 16;
        });

    std::vector<RunSpec> specs;
    for (const Cell &c : cells)
        specs.push_back(c.spec);

    // Reference pass (untimed; also warms the allocator and caches).
    perfbench::HostGauge gauge;
    std::vector<ExperimentResult> reference;
    if (matrixExpressible) {
        currentCell = "reference pass (runMatrix)";
        reference = harness::runMatrix(specs, 1);
    } else {
        untracedPass(cells, reference, gauge);
    }

    std::vector<std::vector<std::string>> failures(cells.size());
    const auto check = [&](const std::vector<ExperimentResult> &got,
                           const char *what) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (!(got[i] == reference[i])
                && std::find(failures[i].begin(), failures[i].end(), what)
                       == failures[i].end())
                failures[i].push_back(what);
        }
    };
    for (std::size_t i = 0; i < cells.size(); ++i)
        failures[i] = invariantFailures(reference[i]);

    Metrics metrics;
    std::vector<double> passWall; // untraced passes, raw host seconds
    std::vector<double> gaugeNs;  // per untraced pass
    std::vector<ExperimentResult> got;
    unsigned passes = 0;
    const Clock::time_point start = Clock::now();
    const double budgetNs = opt.seconds * 1e9;
    if (!opt.trace) {
        // Host times are scaled to the gauge's reference host speed
        // (host_gauge.hpp); the raw ones go to the context.
        std::vector<double> setup, wall, rate;
        while (passes == 0 || nsSince(start) < budgetNs) {
            const Pass p = untracedPass(cells, got, gauge);
            passWall.push_back(p.runNs * 1e-9);
            gaugeNs.push_back(p.gaugeNs);
            setup.push_back(p.scaledSetupNs * 1e-9);
            wall.push_back(p.scaledRunNs * 1e-9);
            rate.push_back(double(p.accesses) / (p.scaledRunNs * 1e-9));
            check(got, "pass differs from the reference pass");
            ++passes;
        }
        metrics.add("accesses_per_s", median(rate), "1/s");
        metrics.add("wall_s", median(wall), "s");
        metrics.add("setup_s", median(setup), "s");
        metrics.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
        std::vector<TracedPass> traced;
        std::vector<ClockCost> clockCost;
        while (passes == 0 || nsSince(start) < budgetNs) {
            const Pass p = untracedPass(cells, got, gauge);
            passWall.push_back(p.runNs * 1e-9);
            gaugeNs.push_back(p.gaugeNs);
            check(got, "pass differs from the reference pass");
            traced.push_back(tracedPass(cells, got));
            check(got, "traced run differs from the untraced run");
            // Measured after each traced pass: it drifts with the host.
            clockCost.push_back(measureClockCost());
            ++passes;
        }

        // Every per-pass figure below is a median over the traced passes.
        std::map<std::string, std::vector<double>> per;
        for (std::size_t i = 0; i < traced.size(); ++i) {
            const TracedPass &p = traced[i];
            const perfbench::Layers &l = p.layers;
            const ClockCost &cost = clockCost[i];
            const double next = l.next.estimateNs();
            const double tryHit = l.tryHit.estimateNs();
            const double access = l.access.estimateNs();
            const double tick = l.tick.estimateNs();
            const double flush = l.flush.estimateNs();
            const double timerNs =
                double(l.next.calls + l.tryHit.calls) * cost.hot
                + double(l.access.calls) * cost.miss
                + double(l.tick.calls) * cost.every;
            const double self = std::max(
                0.0, p.engineNs - next - tryHit - access - tick - timerNs);
            per["next.ns"].push_back(next);
            per["try_hit.ns"].push_back(tryHit);
            per["access.ns"].push_back(access);
            per["tick.ns"].push_back(tick);
            per["flush.ns"].push_back(flush);
            per["self.ns"].push_back(self);
            per["setup.ns"].push_back(p.setupNs);
            per["cell.ns"].push_back(p.cellNs);
            per["next.share"].push_back(ratio(next, p.cellNs));
            per["try_hit.share"].push_back(ratio(tryHit, p.cellNs));
            per["access.share"].push_back(ratio(access, p.cellNs));
            per["tick.share"].push_back(ratio(tick, p.cellNs));
            per["flush.share"].push_back(ratio(flush, p.cellNs));
            per["self.share"].push_back(ratio(self, p.cellNs));
            per["sample.ns"].push_back(cost.every);
        }
        const auto med = [&](const char *key) { return median(per[key]); };
        const TracedPass &p0 = traced.front();
        const perfbench::Layers &l0 = p0.layers;

        metrics.add("workloads.next.calls", double(l0.next.calls), "count");
        metrics.add("workloads.next.ns", med("next.ns"), "ns");
        metrics.add("workloads.next.ns_per_call",
                    ratio(med("next.ns"), double(l0.next.calls)), "ns");
        metrics.add("workloads.next.share", med("next.share"), "ratio");
        metrics.add("gpu.self.ns", med("self.ns"), "ns");
        metrics.add("gpu.self.ns_per_access",
                    ratio(med("self.ns"), double(p0.accesses)), "ns");
        metrics.add("gpu.self.share", med("self.share"), "ratio");
        metrics.add("sim.events_per_access",
                    ratio(double(p0.events + p0.lane), double(p0.accesses)),
                    "events/access");
        metrics.add("sim.lane_share",
                    ratio(double(p0.lane), double(p0.events + p0.lane)),
                    "ratio");
        metrics.add("gpu.fast_path_share",
                    ratio(double(p0.fastPathHits), double(p0.accesses)),
                    "ratio");
        metrics.add("gpu.ff_epochs", double(p0.ffEpochs), "count");
        metrics.add("core.try_hit.calls", double(l0.tryHit.calls), "count");
        metrics.add("core.try_hit.ns_per_call",
                    ratio(med("try_hit.ns"), double(l0.tryHit.calls)), "ns");
        metrics.add("core.try_hit.commit_ratio",
                    ratio(double(l0.tryHitCommits), double(l0.tryHit.calls)),
                    "ratio");
        metrics.add("core.try_hit.share", med("try_hit.share"), "ratio");
        metrics.add("core.access.calls", double(l0.access.calls), "count");
        metrics.add("core.access.ns_per_call",
                    ratio(med("access.ns"), double(l0.access.calls)), "ns");
        metrics.add("core.access.share", med("access.share"), "ratio");
        metrics.add("reuse.tick.calls", double(l0.tick.calls), "count");
        metrics.add("reuse.tick.ns", med("tick.ns"), "ns");
        metrics.add("reuse.tick.share", med("tick.share"), "ratio");
        metrics.add("core.flush.ns", med("flush.ns"), "ns");
        metrics.add("core.flush.share", med("flush.share"), "ratio");
        metrics.add("harness.setup.ns", med("setup.ns"), "ns");
        metrics.add("trace.overhead",
                    ratio(med("cell.ns"), median(passWall) * 1e9), "ratio");
        metrics.add("trace.sample_ns", med("sample.ns"), "ns");

        ExperimentResult sum;
        for (const ExperimentResult &r : reference) {
            sum.accesses += r.accesses;
            sum.tier1Hits += r.tier1Hits;
            sum.tier1Evictions += r.tier1Evictions;
            sum.tier2Lookups += r.tier2Lookups;
            sum.tier2Hits += r.tier2Hits;
            sum.wastefulLookups += r.wastefulLookups;
            sum.predTotal += r.predTotal;
            sum.predCorrect += r.predCorrect;
            sum.ssdReads += r.ssdReads;
            sum.ssdWrites += r.ssdWrites;
        }
        metrics.add("cache.tier1_hit_ratio",
                    ratio(double(sum.tier1Hits), double(sum.accesses)),
                    "ratio");
        metrics.add("cache.evictions", double(sum.tier1Evictions), "count");
        metrics.add("tier2.lookups", double(sum.tier2Lookups), "count");
        metrics.add("tier2.hit_ratio",
                    ratio(double(sum.tier2Hits), double(sum.tier2Lookups)),
                    "ratio");
        metrics.add("tier2.wasteful_ratio",
                    ratio(double(sum.wastefulLookups),
                          double(sum.tier2Lookups)),
                    "ratio");
        metrics.add("reuse.pred_accuracy",
                    ratio(double(sum.predCorrect), double(sum.predTotal)),
                    "ratio");
        metrics.add("nvme.reads", double(sum.ssdReads), "count");
        metrics.add("nvme.writes", double(sum.ssdWrites), "count");
        metrics.add("serving.admission_waits", double(p0.admissionWaits),
                    "count");
    }

    // Paper fidelity needs the Fig. 8 / Fig. 14 matrix at this seed;
    // other workloads run it once, untimed, after the measurement.
    std::vector<Cell> paperCells;
    std::vector<ExperimentResult> paperResults;
    if (opt.workload == "paper_sweep") {
        paperCells = cells;
        paperResults = reference;
    } else if (!opt.trace) {
        paperCells = paperSweep(opt.seed);
        std::vector<RunSpec> ps;
        for (const Cell &c : paperCells)
            ps.push_back(c.spec);
        currentCell = "paper matrix (runMatrix)";
        paperResults = harness::runMatrix(ps, 1);
    }

    std::string out = "{\"passes\":" + num(std::uint64_t(passes))
        + ",\"build\":{\"compiler\":" + quoted(PERFBENCH_COMPILER)
        + ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE)
        + "},\"knobs\":" + knobs + ",\"pass_wall_s\":[";
    for (std::size_t i = 0; i < passWall.size(); ++i)
        out += (i ? "," : "") + num(passWall[i]);
    out += "],\"gauge_ns\":[";
    for (std::size_t i = 0; i < gaugeNs.size(); ++i)
        out += (i ? "," : "") + num(gaugeNs[i]);
    out += "],\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        out += (i ? ",{" : "{") + std::string("\"cell\":")
               + quoted(cells[i].label)
               + ",\"result\":" + resultJson(reference[i])
               + ",\"failures\":[";
        for (std::size_t k = 0; k < failures[i].size(); ++k)
            out += (k ? "," : "") + quoted(failures[i][k]);
        out += "]}";
    }
    out += "],\"paper\":[";
    for (std::size_t i = 0; i < paperCells.size(); ++i) {
        out += (i ? ",{" : "{") + std::string("\"app\":")
               + quoted(paperCells[i].spec.workload)
               + ",\"system\":" + quoted(paperResults[i].system)
               + ",\"makespan_ns\":" + num(paperResults[i].makespanNs)
               + "}";
    }
    out += "],\"metrics\":" + metrics.json() + "}";
    std::printf("%s\n", out.c_str());
    return 0;
}
