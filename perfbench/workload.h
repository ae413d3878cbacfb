/**
 * @file
 * The benchmark's workloads and the helpers both of its binaries share:
 * the campaign configuration of each workload, the command line, and a
 * minimal JSON writer for the records run.py reads.
 *
 * A run times one fixed campaign per workload, the workload's standard
 * campaign at seed 20240427, repeated in rounds until `--seconds` have
 * elapsed. Unit costs are heavy-tailed (a ubfuzz unit takes 0.05-0.9 s
 * depending on its seed program), so timing a campaign drawn from the
 * run's seed would spread throughput by more than any useful bound;
 * the fixed campaign makes every timed round the same work, and its
 * finding digest is pinned. The run's seed drives a separate check
 * campaign on fresh inputs, which every correctness check also runs
 * on but whose time no metric includes.
 */

#ifndef UBFUZZ_PERFBENCH_WORKLOAD_H
#define UBFUZZ_PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <string_view>

#include "fuzzer/fuzzer.h"
#include "support/parse_num.h"

namespace ubfuzz::perfbench {

/** Seed of every timed round (ASPLOS'24 conference date). */
inline constexpr uint64_t kStandardSeed = 20240427;

struct Workload
{
    const char *name;
    fuzzer::SourceMode source;
    /** Campaign units (seeds) per timed round. */
    int unitsPerRound;
    /** Units of the seed-driven check campaign. */
    int checkUnits;
    int jobs;
    bool isolate;
    /** Journal every unit to a fresh CampaignStore per round. */
    bool journal;
};

/**
 * ubfuzz and harden time the 20-unit standard digest campaign; music
 * needs more units per round because ~90% of its mutants carry no UB;
 * service units take ~5 ms, so a round needs a thousand of them for
 * fork, result frames and journal appends to be measured at scale.
 */
inline constexpr Workload kWorkloads[] = {
    {"ubfuzz", fuzzer::SourceMode::UBFuzz, 20, 4, 1, false, false},
    {"music", fuzzer::SourceMode::Music, 100, 20, 1, false, false},
    {"service", fuzzer::SourceMode::CsmithNoSafe, 1000, 200, 4, true,
     true},
    {"harden", fuzzer::SourceMode::Harden, 20, 2, 1, false, false},
};

inline const Workload *
findWorkload(std::string_view name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

inline fuzzer::CampaignConfig
campaignConfig(const Workload &w, uint64_t seed, int units)
{
    fuzzer::CampaignConfig cfg;
    cfg.seed = seed;
    cfg.numSeeds = units;
    cfg.capPerKind = 4;
    cfg.source = w.source;
    cfg.jobs = w.jobs;
    cfg.isolate = w.isolate;
    return cfg;
}

/** CLOCK_MONOTONIC in seconds. */
inline double
monotonicSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[noreturn]] inline void
usageError(const char *prog, const char *what)
{
    std::fprintf(stderr, "%s: %s\n", prog, what);
    std::exit(2);
}

/** Command-line flags shared by both binaries. */
struct Args
{
    const Workload *workload = nullptr;
    uint64_t seed = kStandardSeed;
    double seconds = 10;
    /** Rounds to run; 0 = until `seconds` have elapsed. */
    int rounds = 0;
    /** Scratch directory for journals and the span dump. */
    std::string workdir = ".";
    bool setupOnly = false;
};

inline Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        std::string_view flag = argv[i];
        if (flag == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usageError(argv[0], "flag without a value");
        const char *v = argv[++i];
        if (flag == "--workload") {
            a.workload = findWorkload(v);
            if (!a.workload)
                usageError(argv[0], "unknown workload");
        } else if (flag == "--seed") {
            auto s = support::parseUint64(v);
            if (!s)
                usageError(argv[0], "invalid --seed");
            a.seed = *s;
        } else if (flag == "--seconds") {
            auto s = support::parseInt(v, 1);
            if (!s)
                usageError(argv[0], "invalid --seconds");
            a.seconds = *s;
        } else if (flag == "--rounds") {
            auto r = support::parseInt(v, 0);
            if (!r)
                usageError(argv[0], "invalid --rounds");
            a.rounds = *r;
        } else if (flag == "--workdir") {
            a.workdir = v;
        } else {
            usageError(argv[0], "unknown flag");
        }
    }
    if (!a.workload)
        usageError(argv[0], "--workload is required");
    return a;
}

/** Appends `"key": value` members to a JSON object under construction. */
class JsonObject
{
  public:
    JsonObject &
    num(const char *key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.9g", v);
        return raw(key, buf);
    }

    JsonObject &
    count(const char *key, uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonObject &
    str(const char *key, std::string_view v)
    {
        std::string quoted = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += (c == '\n') ? ' ' : c;
        }
        return raw(key, quoted + "\"");
    }

    JsonObject &
    raw(const char *key, std::string_view json)
    {
        body_ += body_.empty() ? "" : ", ";
        body_ += '"';
        body_ += key;
        body_ += "\": ";
        body_ += json;
        return *this;
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** The counters the traced mirror must reproduce exactly. The harden
 *  counters are also what run.py pins for the harden workload. */
inline std::string
parityCounters(const fuzzer::CampaignStats &s)
{
    const compiler::CompileStats &c = s.compile;
    const fuzzer::HardenStats &h = s.harden;
    return JsonObject()
        .count("lowerings", c.lowerings)
        .count("deltaLowerings", c.deltaLowerings)
        .count("deltaFallbacks", c.deltaFallbacks)
        .count("earlyOptRuns", c.earlyOptRuns)
        .count("earlyOptCacheHits", c.earlyOptCacheHits)
        .count("specializations", c.specializations)
        .count("traceExecutions", c.traceExecutions)
        .count("ubPrograms", s.ubPrograms)
        .count("nonTriggering", s.nonTriggering)
        .count("noUB", s.noUB)
        .count("executions", s.exec.executions)
        .count("hardenPrograms", h.programs)
        .count("faultsInjected", h.faultsInjected)
        .count("faultsDetected", h.faultsDetected)
        .count("faultsMasked", h.faultsMasked)
        .count("faultsSdc", h.faultsSdc)
        .count("driftComparisons", h.driftComparisons)
        .count("driftReports", h.driftReports)
        .text();
}

inline std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace ubfuzz::perfbench

#endif // UBFUZZ_PERFBENCH_WORKLOAD_H
