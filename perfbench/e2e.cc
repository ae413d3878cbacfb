/**
 * @file
 * End-to-end campaign benchmark: runs a workload's standard campaign
 * through the public service entry point (fuzzer::runCampaignService)
 * round after round until `--seconds` have elapsed, then one check
 * campaign seeded with `--seed`, checks every campaign, and prints one
 * JSON object with a record per campaign. perfbench/run.py turns the
 * records into the end-to-end metrics.
 *
 *   perfbench_e2e --workload W --seed N --seconds S [--rounds R]
 *                 [--workdir DIR] [--setup-only]
 *
 * `setup_s` runs from the process's first own instruction (a
 * .preinit_array hook, which runs before every static constructor of
 * the binary and the library) to the moment set-up (pass registry,
 * configuration, journal store and manifest) is done and the first
 * campaign call is about to start. The kernel's exec and the dynamic
 * loader come before the hook and are left out: they are not the
 * program's work. `--setup-only` exits right after set-up, so run.py
 * can launch set-up several times and take the median.
 *
 * This binary links no allocation counter: its timings are the ones a
 * user of the library sees.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>

#include "campaign/store.h"
#include "fuzzer/orchestrator.h"
#include "passes/registry.h"
#include "workload.h"

using namespace ubfuzz;
using namespace ubfuzz::perfbench;

namespace {

double g_processStart = 0;

void
markProcessStart(int, char **, char **)
{
    g_processStart = monotonicSeconds();
}

[[gnu::section(".preinit_array"), gnu::used]] void (
    *const kMarkProcessStart)(int, char **, char **) = markProcessStart;

struct Usage
{
    double cpuSeconds = 0;
    long maxRssSelfKb = 0;
    long maxRssChildrenKb = 0;
};

/** CPU of this process plus every reaped worker, and their peak RSS. */
Usage
usageNow()
{
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    Usage u;
    u.cpuSeconds = seconds(self.ru_utime) + seconds(self.ru_stime) +
                   seconds(children.ru_utime) +
                   seconds(children.ru_stime);
    u.maxRssSelfKb = self.ru_maxrss;
    u.maxRssChildrenKb = children.ru_maxrss;
    return u;
}

/** A fresh journal store for one round, or null for in-memory work. */
struct RoundStore
{
    std::string dir;
    std::unique_ptr<campaign::CampaignStore> store;
};

RoundStore
openRoundStore(const Args &args, const fuzzer::CampaignConfig &cfg)
{
    RoundStore rs;
    if (!args.workload->journal)
        return rs;
    rs.dir = args.workdir + "/journal-" + std::to_string(::getpid());
    std::filesystem::remove_all(rs.dir);
    std::string error;
    rs.store = campaign::CampaignStore::open(
        rs.dir, campaign::manifestFor(cfg, campaign::ShardSpec{}),
        /*resume=*/false, &error);
    if (!rs.store) {
        std::fprintf(stderr, "perfbench_e2e: cannot open store %s: %s\n",
                     rs.dir.c_str(), error.c_str());
        std::exit(1);
    }
    return rs;
}

/** Run one campaign and report everything run.py needs from it. */
std::string
runRound(const fuzzer::CampaignConfig &cfg, RoundStore rs)
{
    // Time of the fold of the unit that first found each distinct
    // injected bug; the last such fold ends the bug-finding curve.
    std::set<san::BugId> bugsSeen;
    double lastNewBug = -1;
    double t0 = 0;
    fuzzer::ServiceOptions opts;
    opts.store = rs.store.get();
    opts.onUnitFolded = [&](int, const fuzzer::CampaignStats &delta,
                            bool) {
        for (const auto &[id, n] : delta.bugFindingCounts)
            if (bugsSeen.insert(id).second)
                lastNewBug = monotonicSeconds() - t0;
    };

    Usage before = usageNow();
    t0 = monotonicSeconds();
    fuzzer::ServiceResult res = fuzzer::runCampaignService(cfg, opts);
    double wall = monotonicSeconds() - t0;
    Usage after = usageNow();

    std::string error;
    if (!res.complete)
        error = "campaign did not complete";
    if (error.empty())
        error = fuzzer::statsInvariantViolation(res.stats);
    if (rs.store) {
        // The journal is the campaign's durable result: folding it back
        // must reproduce the live stats field for field.
        rs.store.reset();
        campaign::MergeResult merged = campaign::mergeStore(rs.dir);
        if (error.empty() && !merged.ok)
            error = "mergeStore failed: " + merged.error;
        else if (error.empty() && !(merged.stats == res.stats))
            error = "mergeStore of the run's journal differs from the "
                    "live CampaignStats";
        std::filesystem::remove_all(rs.dir);
    }

    const fuzzer::CampaignStats &s = res.stats;
    return JsonObject()
        .count("campaign_seed", cfg.seed)
        .count("units", static_cast<uint64_t>(res.unitsOwned))
        .num("wall_s", wall)
        .num("last_new_bug_s", lastNewBug)
        .num("cpu_s", after.cpuSeconds - before.cpuSeconds)
        .count("ub_programs", s.ubPrograms)
        .count("non_triggering", s.nonTriggering)
        .count("no_ub", s.noUB)
        .str("digest", hex64(fuzzer::findingsDigest(s)))
        .count("worker_crashes", s.workerCrashes)
        .count("worker_timeouts", s.workerTimeouts)
        .count("quarantined", s.quarantined)
        .str("error", error)
        .raw("parity", parityCounters(s))
        .text();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    // Set-up as a campaign process pays it: the pass registry's
    // one-time construction, the configuration, and (service) the
    // journal store with its manifest.
    passes::PassRegistry::instance();
    std::filesystem::create_directories(args.workdir);
    const Workload &w = *args.workload;
    const fuzzer::CampaignConfig timed =
        campaignConfig(w, kStandardSeed, w.unitsPerRound);
    RoundStore firstStore = openRoundStore(args, timed);
    const double ready = monotonicSeconds();
    const double setup = ready - g_processStart;

    if (args.setupOnly) {
        if (!firstStore.dir.empty()) {
            firstStore.store.reset();
            std::filesystem::remove_all(firstStore.dir);
        }
        std::printf("%s\n", JsonObject()
                                .num("setup_s", setup)
                                .text()
                                .c_str());
        return 0;
    }

    std::string rounds;
    for (int round = 0;; round++) {
        RoundStore rs = round == 0 ? std::move(firstStore)
                                   : openRoundStore(args, timed);
        rounds += (round ? ", " : "") + runRound(timed, std::move(rs));
        bool enough = args.rounds > 0
                          ? round + 1 >= args.rounds
                          : monotonicSeconds() - ready >= args.seconds;
        if (enough)
            break;
    }
    // Peak RSS of the timed rounds only: the check campaign's inputs
    // change with the seed.
    Usage u = usageNow();
    const fuzzer::CampaignConfig check =
        campaignConfig(w, args.seed, w.checkUnits);
    std::string checkRecord = runRound(check, openRoundStore(args, check));
    std::printf("%s\n",
                JsonObject()
                    .str("workload", args.workload->name)
                    .num("setup_s", setup)
                    .count("max_rss_self_kb",
                           static_cast<uint64_t>(u.maxRssSelfKb))
                    .count("max_rss_children_kb",
                           static_cast<uint64_t>(u.maxRssChildrenKb))
                    .raw("rounds", "[" + rounds + "]")
                    .raw("check", checkRecord)
                    .text()
                    .c_str());
    return 0;
}
