/**
 * @file
 * Traced mirror of the campaign loop: per-layer times, call counts and
 * allocations, measured from outside the library.
 *
 *   perfbench_trace --workload W [--workdir DIR]
 *
 * Runs the workload's timed campaign once at `--jobs 1` by calling each
 * module's public functions in the order fuzzer::Campaign calls them,
 * with a span around every call: name, start, end, parent, and the unit
 * index as the request id. Spans stay in memory and are written once,
 * to DIR/spans-W.tsv, when the run ends. The service workload
 * additionally supervises every unit in a forked worker
 * (fuzzer::superviseUnit), re-encodes its result frame, journals it,
 * and finally resumes the finished journal; the in-process mirror of
 * the same unit supplies the inner spans and must equal the worker's
 * result field for field.
 *
 * The printed counters must equal an untraced run's (perfbench/run.py
 * compares them), which shows the mirror walks the same path as the
 * library. This binary replaces the global operator new/delete with
 * counting versions; the end-to-end binary does not link them.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "ast/printer.h"
#include "campaign/store.h"
#include "compiler/compiler.h"
#include "fuzzer/orchestrator.h"
#include "fuzzer/supervisor.h"
#include "generator/generator.h"
#include "mutation/music.h"
#include "oracle/oracle.h"
#include "passes/registry.h"
#include "support/rng.h"
#include "ubgen/ubgen.h"
#include "vm/bytecode.h"
#include "vm/vm.h"
#include "workload.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_allocBytes{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(n, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace ubfuzz;
using namespace ubfuzz::perfbench;

namespace {

/** Span names: `<src module>.<operation>`, one per wrapped call. */
enum Layer : uint8_t {
    GeneratorGenerate,
    UbgenProfile,
    UbgenGenerate,
    UbgenValidate,
    MutationMutate,
    AstPrint,
    CompilerLower,
    OracleCompile,
    OracleRun,
    VmClassify,
    VmSetup,
    HardenTwin,
    HardenFault,
    FuzzerSupervise,
    FuzzerFrame,
    CampaignAppend,
    CampaignReplay,
    FuzzerUnit,
    kNumLayers,
};

constexpr const char *kLayerNames[kNumLayers] = {
    "generator.generate", "ubgen.profile",    "ubgen.generate",
    "ubgen.validate",     "mutation.mutate",  "ast.print",
    "compiler.lower",     "oracle.compile",   "oracle.run",
    "vm.classify",        "vm.setup",         "harden.twin",
    "harden.fault",       "fuzzer.supervise", "fuzzer.frame",
    "campaign.append",    "campaign.replay",  "fuzzer.unit",
};

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One timed call. Times and allocation counts are inclusive. */
struct Span
{
    Layer layer;
    int32_t parent;
    int32_t unit;
    int64_t start;
    int64_t end;
    uint64_t allocs;
    uint64_t bytes;
};

class Tracer
{
  public:
    /** Preallocated so the span log's own growth rarely lands inside
     *  a measured span's allocation count. */
    Tracer() { spans_.reserve(1 << 17); }

    int32_t
    begin(Layer layer)
    {
        spans_.push_back({layer, open_, unit_, nowNs(), 0,
                          g_allocs.load(std::memory_order_relaxed),
                          g_allocBytes.load(std::memory_order_relaxed)});
        open_ = static_cast<int32_t>(spans_.size() - 1);
        return open_;
    }

    void
    end(int32_t idx)
    {
        Span &s = spans_[static_cast<size_t>(idx)];
        s.end = nowNs();
        s.allocs = g_allocs.load(std::memory_order_relaxed) - s.allocs;
        s.bytes = g_allocBytes.load(std::memory_order_relaxed) - s.bytes;
        open_ = s.parent;
    }

    void setUnit(int unit) { unit_ = unit; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    int32_t open_ = -1;
    int32_t unit_ = -1;
};

Tracer g_tracer;

class Scope
{
  public:
    explicit Scope(Layer layer) : idx_(g_tracer.begin(layer)) {}
    ~Scope() { g_tracer.end(idx_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int32_t idx_;
};

template <class F>
auto
timed(Layer layer, F &&f)
{
    Scope s(layer);
    return f();
}

/**
 * Runs a teardown inside a span when it goes out of scope, so freeing
 * what a layer built (compiled modules, machine arenas) is charged to
 * that layer instead of to the unit's unattributed time.
 */
template <class F>
class FreeIn
{
  public:
    FreeIn(Layer layer, F f) : layer_(layer), f_(std::move(f)) {}
    ~FreeIn()
    {
        Scope s(layer_);
        f_();
    }
    FreeIn(const FreeIn &) = delete;
    FreeIn &operator=(const FreeIn &) = delete;

  private:
    Layer layer_;
    F f_;
};

/** Counts only the mirror can see (UBGen's yield). */
struct LayerCounts
{
    size_t ubgenGenerated = 0;
    size_t ubgenValidated = 0;
};

LayerCounts g_counts;

// ---- Copies of fuzzer.cc's internal helpers (anonymous namespace
// there), kept identical so the mirror computes the same results. ----

Rng
unitRng(uint64_t campaignSeed, uint64_t index)
{
    Rng splitter(campaignSeed * 0x2545F4914F6CDD1DULL + 99 +
                 (index + 1) * 0x9E3779B97F4A7C15ULL);
    return splitter.fork();
}

bool
globalFiringExplains(san::BugId id, ubgen::UBKind kind)
{
    using ubgen::UBKind;
    switch (id) {
      case san::BugId::GccAsanStackRedzoneMultiple32:
      case san::BugId::LlvmAsanGlobalSmallArrayRedzoneSkip:
        return kind == UBKind::BufferOverflowArray ||
               kind == UBKind::BufferOverflowPointer;
      case san::BugId::GccAsanScopePoisonLoopRemoved:
      case san::BugId::LlvmAsanEscapedScopeNoPoison:
        return kind == UBKind::UseAfterScope;
      case san::BugId::LlvmMsanSubConstDefined:
        return kind == UBKind::UseOfUninitMemory;
      default:
        return false;
    }
}

int
attributeFiring(const san::CompileLog &log, SourceLoc ubLoc,
                ubgen::UBKind kind)
{
    for (const auto &f : log.firings)
        if (f.loc == ubLoc)
            return static_cast<int>(f.id);
    for (const auto &f : log.firings)
        if (!f.loc.isValid() && globalFiringExplains(f.id, kind))
            return static_cast<int>(f.id);
    return -1;
}

bool
sameObservable(const vm::ExecResult &a, const vm::ExecResult &b)
{
    return a.kind == b.kind && a.report == b.report &&
           a.reportLoc == b.reportLoc && a.trap == b.trap &&
           a.exitCode == b.exitCode && a.checksum == b.checksum;
}

struct TestItem
{
    std::unique_ptr<ast::Program> program;
    ubgen::UBKind kind = ubgen::UBKind::BufferOverflowArray;
    uint32_t siteId = 0;
    SourceLoc gtLoc;
    std::optional<ast::PrintedProgram> printed;
    std::optional<ir::Module> baseModule;
};

/**
 * One campaign unit, computed by calling the library's public functions
 * in fuzzer::Campaign's order, each inside its span.
 */
class MirrorUnit
{
  public:
    MirrorUnit(const fuzzer::CampaignConfig &cfg, fuzzer::CorpusMemo *memo)
        : cfg_(cfg), memo_(memo), codeCache_(cfg.codeCacheCap)
    {
        Scope s(VmSetup);
        classifyMachine_.emplace(&codeCache_);
    }

    ~MirrorUnit()
    {
        Scope s(VmSetup);
        classifyMachine_.reset();
    }

    MirrorUnit(const MirrorUnit &) = delete;
    MirrorUnit &operator=(const MirrorUnit &) = delete;

    fuzzer::CampaignStats
    runUnit(int index)
    {
        runUnitInner(index);
        stats_.exec.translationCapRejects += codeCache_.capRejects();
        stats_.exec.quickenedTranslations +=
            codeCache_.quickenedTranslations();
        stats_.exec.fusedRecords += codeCache_.fusedRecords();
        return std::move(stats_);
    }

  private:
    void
    runUnitInner(int index)
    {
        using fuzzer::SourceMode;
        stats_.seeds++;
        Rng rng = unitRng(cfg_.seed, static_cast<uint64_t>(index));
        gen::GeneratorConfig gc;
        gc.seed = cfg_.seed * 1000003ULL + static_cast<uint64_t>(index);
        switch (cfg_.source) {
          case SourceMode::UBFuzz:
          case SourceMode::Harden: {
            gc.safeMath = true;
            auto seed = timed(GeneratorGenerate,
                              [&] { return gen::generateProgram(gc); });
            std::optional<ubgen::UBGenerator> ubg;
            {
                Scope s(UbgenProfile);
                ubg.emplace(*seed);
            }
            if (!ubg->profiled()) {
                stats_.unprofiledSeeds++;
                break;
            }
            auto programs = timed(UbgenGenerate, [&] {
                return ubg->generateAll(rng, cfg_.capPerKind);
            });
            g_counts.ubgenGenerated += programs.size();
            std::optional<compiler::SeedLoweringCache> seedCache;
            {
                Scope s(CompilerLower);
                seedCache.emplace(*seed, &stats_.compile);
            }
            for (auto &ub : programs) {
                ast::PrintedProgram printed = timed(
                    AstPrint, [&] { return ast::printProgram(*ub.program); });
                ir::Module mod = timed(CompilerLower, [&] {
                    return seedCache->lowerDerived(*ub.program, printed,
                                                   ub.perturbedFnId,
                                                   &stats_.compile);
                });
                bool triggers = timed(UbgenValidate, [&] {
                    return ubgen::validateUBModule(ub, mod, printed,
                                                   *classifyMachine_);
                });
                if (!triggers) {
                    stats_.nonTriggering++;
                    continue;
                }
                g_counts.ubgenValidated++;
                TestItem item;
                item.program = std::move(ub.program);
                item.kind = ub.kind;
                item.siteId = ub.siteId;
                item.printed = std::move(printed);
                item.baseModule = std::move(mod);
                testItem(std::move(item));
            }
            if (cfg_.source == SourceMode::Harden)
                faultOracle(*seedCache, rng);
            break;
          }
          case SourceMode::Music: {
            gc.safeMath = true;
            auto seed = timed(GeneratorGenerate,
                              [&] { return gen::generateProgram(gc); });
            std::optional<compiler::SeedLoweringCache> seedCache;
            {
                Scope s(CompilerLower);
                seedCache.emplace(*seed, &stats_.compile);
            }
            for (int m = 0; m < cfg_.mutantsPerSeed; m++) {
                uint32_t fnId = 0;
                auto mutant = timed(MutationMutate, [&] {
                    return mutation::musicMutate(*seed, rng, &fnId);
                });
                if (!mutant)
                    continue;
                ast::PrintedProgram printed = timed(
                    AstPrint, [&] { return ast::printProgram(*mutant); });
                ir::Module mod = timed(CompilerLower, [&] {
                    return seedCache->lowerDerived(*mutant, printed, fnId,
                                                   &stats_.compile);
                });
                classifyAndTestLowered(std::move(mutant),
                                       std::move(printed), std::move(mod));
            }
            break;
          }
          case SourceMode::CsmithNoSafe: {
            gc.safeMath = false;
            auto prog = timed(GeneratorGenerate,
                              [&] { return gen::generateProgram(gc); });
            ast::PrintedProgram printed =
                timed(AstPrint, [&] { return ast::printProgram(*prog); });
            ir::Module mod = timed(CompilerLower, [&] {
                return compiler::lowerOnce(*prog, printed, &stats_.compile);
            });
            classifyAndTestLowered(std::move(prog), std::move(printed),
                                   std::move(mod));
            break;
          }
          case SourceMode::Juliet:
            usageError("perfbench_trace", "juliet is not a workload");
        }
    }

    void
    faultOracle(compiler::SeedLoweringCache &seedCache, Rng &rng)
    {
        Scope span(HardenFault);
        compiler::CompilerConfig hc;
        hc.vendor = Vendor::GCC;
        hc.level = OptLevel::O2;
        hc.sanitizer = SanitizerKind::None;
        hc.harden = cfg_.hardenPasses;
        compiler::Binary bin = compiler::specialize(
            compiler::earlyOptimize(ir::cloneModule(seedCache.baseModule()),
                                    hc.vendor, hc.level, &stats_.compile),
            hc, &stats_.compile);
        stats_.harden.programs++;
        vm::Machine machine(&codeCache_);
        vm::ExecOptions opts;
        opts.stepLimit = cfg_.stepLimit;
        vm::ExecResult base = machine.run(bin.module, opts);
        if (base.kind != vm::ExecResult::Kind::Timeout && base.steps > 1) {
            for (int k = 0; k < cfg_.faultsPerProgram; k++) {
                vm::FaultPlan plan;
                plan.step = 1 + rng.below(base.steps - 1);
                plan.target = rng.next();
                plan.bitIndex = static_cast<uint8_t>(rng.below(64));
                vm::ExecOptions fopts;
                fopts.stepLimit = cfg_.stepLimit;
                fopts.fault = &plan;
                vm::ExecResult r = machine.run(bin.module, fopts);
                stats_.harden.faultsInjected++;
                if (r.kind == vm::ExecResult::Kind::Report &&
                    r.report == vm::ReportKind::HardeningFault)
                    stats_.harden.faultsDetected++;
                else if (sameObservable(r, base))
                    stats_.harden.faultsMasked++;
                else
                    stats_.harden.faultsSdc++;
            }
        }
        stats_.exec.merge(machine.stats());
    }

    void
    classifyAndTestLowered(std::unique_ptr<ast::Program> prog,
                           ast::PrintedProgram printed, ir::Module mod)
    {
        vm::ExecOptions opts;
        opts.groundTruth = true;
        opts.stepLimit = cfg_.stepLimit;
        vm::ExecResult r =
            timed(VmClassify, [&] { return classifyMachine_->run(mod, opts); });
        if (r.kind != vm::ExecResult::Kind::Report) {
            stats_.noUB++;
            return;
        }
        TestItem item;
        item.program = std::move(prog);
        item.kind = fuzzer::kindOfReport(r.report);
        item.gtLoc = r.reportLoc;
        item.printed = std::move(printed);
        item.baseModule = std::move(mod);
        testItem(std::move(item));
    }

    void
    testItem(TestItem item)
    {
        ast::PrintedProgram printed =
            item.printed ? std::move(*item.printed)
                         : timed(AstPrint, [&] {
                               return ast::printProgram(*item.program);
                           });
        SourceLoc ubLoc =
            item.siteId ? printed.map.loc(item.siteId) : item.gtLoc;

        std::optional<compiler::CompilationCache> cacheSlot;
        cacheSlot.emplace(*item.program, printed);
        FreeIn freeCache(OracleCompile, [&] { cacheSlot.reset(); });
        compiler::CompilationCache &cache = *cacheSlot;
        if (item.baseModule)
            cache.adoptBase(std::move(*item.baseModule));

        fuzzer::CorpusKey key;
        key.textHash = cache.baseTextHash();
        key.textLen = printed.text.size();
        key.kind = item.kind;
        key.ubLoc = ubLoc;
        if (stats_.corpusSeen[key]++ > 0)
            stats_.corpusDuplicates++;

        if (memo_ && cfg_.corpusDedup) {
            if (auto delta = memo_->find(key)) {
                stats_.exec.corpusSkips++;
                fuzzer::detail::mergeCampaignStats(
                    stats_, fuzzer::CampaignStats(*delta));
                return;
            }
        }

        std::optional<vm::Machine> machine;
        timed(VmSetup, [&] { return &machine.emplace(&codeCache_); });
        FreeIn freeMachine(VmSetup, [&] { machine.reset(); });
        fuzzer::CampaignStats delta;
        testItemMatrix(std::move(item), ubLoc, cache, *machine, delta);
        stats_.exec.merge(machine->stats());
        if (memo_ && cfg_.corpusDedup) {
            auto recorded =
                std::make_shared<const fuzzer::CampaignStats>(delta);
            if (memo_->insert(key, std::move(recorded)) ==
                fuzzer::CorpusMemo::Insert::CapFull)
                stats_.exec.corpusCapRejects++;
        }
        fuzzer::detail::mergeCampaignStats(stats_, std::move(delta));
    }

    void
    testItemMatrix(TestItem item, SourceLoc ubLoc,
                   compiler::CompilationCache &cache, vm::Machine &machine,
                   fuzzer::CampaignStats &delta)
    {
        delta.ubPrograms++;
        delta.perKind[static_cast<size_t>(item.kind)]++;
        bool programDiscrepant = false;
        bool programSelected = false;

        for (SanitizerKind sani : ubgen::sanitizersFor(item.kind)) {
            std::vector<compiler::CompilerConfig> configs =
                oracle::testingMatrix(sani);
            if (cfg_.onlyO0) {
                std::erase_if(configs,
                              [](const compiler::CompilerConfig &c) {
                                  return c.level != OptLevel::O0;
                              });
            }
            oracle::ExecutionPlan plan = timed(OracleCompile, [&] {
                return oracle::ExecutionPlan::compile(cache, configs);
            });
            oracle::DifferentialResult diff = timed(OracleRun, [&] {
                return plan.run(machine, cfg_.stepLimit);
            });
            FreeIn freeDiff(OracleCompile,
                            [&] { diff = oracle::DifferentialResult{}; });
            delta.execTimeouts += diff.timeouts;
            delta.timeoutExcluded += diff.timeoutExcluded;

            if (cfg_.source == fuzzer::SourceMode::Harden) {
                for (const auto &oc : diff.outcomes) {
                    if (oc.result.kind == vm::ExecResult::Kind::Timeout)
                        continue;
                    Scope span(HardenTwin);
                    compiler::CompilerConfig hc = oc.config;
                    hc.harden = cfg_.hardenPasses;
                    compiler::Binary hardened = cache.compile(hc);
                    vm::ExecOptions opts;
                    opts.stepLimit = cfg_.stepLimit;
                    vm::ExecResult hr = machine.run(hardened.module, opts);
                    if (hr.kind == vm::ExecResult::Kind::Timeout)
                        continue;
                    delta.harden.driftComparisons++;
                    if (!sameObservable(oc.result, hr))
                        delta.harden.driftReports++;
                }
            }

            for (const auto &oc : diff.outcomes) {
                if (!oc.result.crashed() || oc.result.reportLoc == ubLoc)
                    continue;
                for (const auto &f : oc.log.firings) {
                    if (f.loc == ubLoc &&
                        san::bugInfo(f.id).category ==
                            san::BugCategory::WrongLineInformation) {
                        delta.wrongReports++;
                        delta.wrongReportBugs.insert(f.id);
                        break;
                    }
                }
            }

            if (!diff.hasDiscrepancy())
                continue;
            programDiscrepant = true;

            for (const auto &v : diff.verdicts) {
                delta.verdictPairs++;
                const oracle::ConfigOutcome &missing =
                    diff.outcomes[v.nonCrashingIdx];
                int attributed =
                    attributeFiring(missing.log, ubLoc, item.kind);
                bool gtBug = attributed >= 0;
                bool selected = cfg_.useOracle ? v.isBug : true;
                if (!selected) {
                    delta.droppedPairs++;
                    if (gtBug)
                        delta.droppedTrueBug++;
                    continue;
                }
                delta.selectedPairs++;
                programSelected = true;
                if (gtBug)
                    delta.selectedTrueBug++;
                else
                    delta.selectedOptimization++;

                fuzzer::FindingRecord rec;
                rec.kind = item.kind;
                rec.crashing = diff.outcomes[v.crashingIdx].config;
                rec.missing = missing.config;
                rec.ubLoc = ubLoc;
                rec.groundTruthBug = gtBug;
                if (gtBug) {
                    rec.attributedBug = attributed;
                    auto id = static_cast<san::BugId>(attributed);
                    delta.bugFindingCounts[id]++;
                    delta.bugFirstKind.emplace(id, item.kind);
                    delta.bugLevels[id].insert(missing.config.level);
                } else {
                    delta.invalidFindings++;
                }
                if (delta.findings.size() < 200)
                    delta.findings.push_back(rec);
            }
        }
        if (programDiscrepant)
            delta.discrepantPrograms++;
        if (programSelected)
            delta.oracleSelectedPrograms++;
        delta.compile.merge(cache.stats());
    }

    fuzzer::CampaignConfig cfg_;
    fuzzer::CorpusMemo *memo_;
    fuzzer::CampaignStats stats_;
    /** Declared before the machine that points at it. */
    vm::CodeCache codeCache_;
    std::optional<vm::Machine> classifyMachine_;
};

/** What the service-only steps measured. */
struct ServiceCounts
{
    uint64_t frameBytes = 0;
    uint64_t journalBytes = 0;
    /** Sum over units of (supervised wall - in-process mirror wall). */
    double superviseOverheadSeconds = 0;
};

std::string
journalDir(const Args &args)
{
    return args.workdir + "/trace-journal-" + std::to_string(::getpid());
}

/**
 * The service workload's unit: supervise it in a forked worker, check
 * and re-time its result frame, journal it, then mirror it in process
 * for the inner spans. Returns an error, or "" when the worker's result
 * equals the mirror's.
 */
std::string
serviceUnit(const fuzzer::CampaignConfig &cfg, int unit,
            fuzzer::CorpusMemo &workerMemo, fuzzer::CorpusMemo &mirrorMemo,
            campaign::CampaignStore &store, ServiceCounts &counts,
            fuzzer::CampaignStats &mirrored)
{
    int64_t t0 = nowNs();
    fuzzer::SuperviseOutcome sup = timed(FuzzerSupervise, [&] {
        return fuzzer::superviseUnit(cfg, unit, &workerMemo);
    });
    int64_t supervised = nowNs() - t0;
    if (sup.kind != fuzzer::SuperviseOutcome::Kind::Completed)
        return "unit " + std::to_string(unit) + " was not completed";
    for (auto &[key, delta] : sup.out.memoAdds)
        workerMemo.insert(key, delta);

    bool frameOk = timed(FuzzerFrame, [&] {
        std::string frame = fuzzer::encodeUnitFrame(unit, sup.out);
        counts.frameBytes += frame.size();
        fuzzer::detail::UnitOutput decoded;
        return fuzzer::decodeUnitFrame(frame, unit, decoded) &&
               decoded.stats == sup.out.stats;
    });
    if (!frameOk)
        return "unit " + std::to_string(unit) + " frame did not round-trip";

    campaign::UnitRecord rec;
    rec.unit = unit;
    rec.stats = sup.out.stats;
    for (auto &[key, delta] : sup.out.memoAdds)
        rec.memoAdds.emplace_back(key, *delta);
    timed(CampaignAppend, [&] {
        store.append(rec);
        return 0;
    });

    t0 = nowNs();
    mirrored = MirrorUnit(cfg, &mirrorMemo).runUnit(unit);
    counts.superviseOverheadSeconds +=
        static_cast<double>(supervised - (nowNs() - t0)) * 1e-9;
    if (!(mirrored == sup.out.stats))
        return "unit " + std::to_string(unit) +
               ": in-process mirror differs from the supervised worker";
    return "";
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Per-layer metrics from the span log and the campaign's counters. */
std::string
layerMetrics(const std::vector<Span> &spans,
             const fuzzer::CampaignStats &s, const ServiceCounts &svc,
             int units)
{
    struct Totals
    {
        uint64_t calls = 0;
        double selfSeconds = 0;
        uint64_t selfAllocs = 0;
    };
    std::vector<int64_t> childNs(spans.size(), 0);
    std::vector<uint64_t> childAllocs(spans.size(), 0);
    for (const Span &sp : spans) {
        if (sp.parent < 0)
            continue;
        childNs[static_cast<size_t>(sp.parent)] += sp.end - sp.start;
        childAllocs[static_cast<size_t>(sp.parent)] += sp.allocs;
    }
    Totals totals[kNumLayers];
    std::vector<double> unitMs;
    double unitSeconds = 0;
    uint64_t unitAllocs = 0, unitBytes = 0;
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &sp = spans[i];
        Totals &t = totals[sp.layer];
        t.calls++;
        t.selfSeconds +=
            static_cast<double>(sp.end - sp.start - childNs[i]) * 1e-9;
        t.selfAllocs += sp.allocs - childAllocs[i];
        if (sp.layer == FuzzerUnit) {
            double secs = static_cast<double>(sp.end - sp.start) * 1e-9;
            unitMs.push_back(secs * 1e3);
            unitSeconds += secs;
            unitAllocs += sp.allocs;
            unitBytes += sp.bytes;
        }
    }

    JsonObject m;
    for (int l = 0; l < kNumLayers; l++) {
        const std::string name = kLayerNames[l];
        m.count((name + ".calls").c_str(), totals[l].calls);
        m.num((name + ".self_s").c_str(), totals[l].selfSeconds);
        m.num((name + ".share").c_str(),
              ratio(totals[l].selfSeconds, unitSeconds));
        m.count((name + ".allocs").c_str(), totals[l].selfAllocs);
    }

    std::sort(unitMs.begin(), unitMs.end());
    auto percentile = [&](double p) {
        if (unitMs.empty())
            return 0.0;
        return unitMs[static_cast<size_t>(
            p / 100.0 * static_cast<double>(unitMs.size() - 1) + 0.5)];
    };

    const double ub = static_cast<double>(s.ubPrograms);
    const compiler::CompileStats &c = s.compile;
    const vm::ExecStats &e = s.exec;
    m.num("fuzzer.unit.p50_ms", percentile(50))
        .num("fuzzer.unit.p90_ms", percentile(90))
        .num("fuzzer.unattributed_share",
             ratio(totals[FuzzerUnit].selfSeconds, unitSeconds))
        .num("fuzzer.supervise.overhead_ms",
             ratio(svc.superviseOverheadSeconds * 1e3, units))
        .num("fuzzer.frame.bytes_per_unit",
             ratio(static_cast<double>(svc.frameBytes), units))
        .num("campaign.journal_bytes_per_unit",
             ratio(static_cast<double>(svc.journalBytes), units))
        .num("fuzzer.memo_hit_ratio",
             ratio(static_cast<double>(e.corpusSkips), ub))
        .num("ubgen.yield",
             ratio(static_cast<double>(g_counts.ubgenValidated),
                   static_cast<double>(g_counts.ubgenGenerated)))
        .num("compiler.delta_ratio",
             ratio(static_cast<double>(c.deltaLowerings),
                   static_cast<double>(c.deltaLowerings +
                                       c.deltaFallbacks)))
        .count("compiler.delta_fallbacks", c.deltaFallbacks)
        .num("compiler.early_opt_hit_ratio",
             ratio(static_cast<double>(c.earlyOptCacheHits),
                   static_cast<double>(c.earlyOptCacheHits +
                                       c.earlyOptRuns)))
        .count("compiler.specializations", c.specializations)
        .num("oracle.dedup_skip_ratio",
             ratio(static_cast<double>(e.dedupSkips),
                   static_cast<double>(e.dedupSkips + e.executions)))
        .count("vm.executions", e.executions)
        .num("vm.translation_hit_ratio",
             ratio(static_cast<double>(e.translationHits),
                   static_cast<double>(e.translationHits +
                                       e.translations)))
        .num("alloc.per_ub_program",
             ratio(static_cast<double>(unitAllocs), ub))
        .num("alloc.bytes_per_ub_program",
             ratio(static_cast<double>(unitBytes), ub));
    return m.text();
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return;
    std::fprintf(f, "name\tunit\tparent\tstart_ns\tend_ns\tallocs\tbytes\n");
    for (const Span &sp : spans) {
        std::fprintf(f, "%s\t%d\t%d\t%lld\t%lld\t%llu\t%llu\n",
                     kLayerNames[sp.layer], sp.unit, sp.parent,
                     static_cast<long long>(sp.start),
                     static_cast<long long>(sp.end),
                     static_cast<unsigned long long>(sp.allocs),
                     static_cast<unsigned long long>(sp.bytes));
    }
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const Workload &w = *args.workload;
    passes::PassRegistry::instance();
    std::filesystem::create_directories(args.workdir);

    // Same campaign as the timed rounds, traced at --jobs 1.
    fuzzer::CampaignConfig cfg =
        campaignConfig(w, kStandardSeed, w.unitsPerRound);
    cfg.jobs = 1;

    fuzzer::CorpusMemo mirrorMemo(cfg.corpusMemoCap);
    fuzzer::CorpusMemo workerMemo(cfg.corpusMemoCap);
    ServiceCounts svc;
    std::unique_ptr<campaign::CampaignStore> store;
    const std::string dir = journalDir(args);
    const campaign::Manifest manifest =
        campaign::manifestFor(cfg, campaign::ShardSpec{});
    std::string error;
    if (w.journal) {
        std::filesystem::remove_all(dir);
        store = campaign::CampaignStore::open(dir, manifest, false, &error);
        if (!store) {
            std::fprintf(stderr, "perfbench_trace: %s\n", error.c_str());
            return 1;
        }
    }

    fuzzer::CampaignStats total;
    const int64_t t0 = nowNs();
    for (int unit = 0; unit < cfg.numSeeds && error.empty(); unit++) {
        g_tracer.setUnit(unit);
        Scope span(FuzzerUnit);
        fuzzer::CampaignStats unitStats;
        if (w.isolate)
            error = serviceUnit(cfg, unit, workerMemo, mirrorMemo, *store,
                                svc, unitStats);
        else
            unitStats = MirrorUnit(cfg, &mirrorMemo).runUnit(unit);
        fuzzer::detail::mergeCampaignStats(total, std::move(unitStats));
    }
    const double wall = static_cast<double>(nowNs() - t0) * 1e-9;
    g_tracer.setUnit(-1);

    if (store && error.empty()) {
        // The journal's read side: resume the finished campaign.
        store.reset();
        svc.journalBytes = std::filesystem::file_size(
            dir + "/" + campaign::CampaignStore::journalFileName({}));
        size_t replayed = timed(CampaignReplay, [&] {
            auto resumed =
                campaign::CampaignStore::open(dir, manifest, true, &error);
            return resumed ? resumed->takeReplayed().size() : 0;
        });
        if (error.empty() && replayed != static_cast<size_t>(cfg.numSeeds))
            error = "resume replayed " + std::to_string(replayed) +
                    " of " + std::to_string(cfg.numSeeds) + " units";
    }
    if (error.empty())
        error = fuzzer::statsInvariantViolation(total);
    std::filesystem::remove_all(dir);

    const std::vector<Span> &spans = g_tracer.spans();
    writeSpans(args.workdir + "/spans-" + w.name + ".tsv", spans);
    std::printf(
        "%s\n",
        JsonObject()
            .str("workload", w.name)
            .num("wall_s", wall)
            .count("spans", spans.size())
            .str("digest", hex64(fuzzer::findingsDigest(total)))
            .str("error", error)
            .raw("parity", parityCounters(total))
            .raw("metrics", layerMetrics(spans, total, svc, cfg.numSeeds))
            .text()
            .c_str());
    return 0;
}
