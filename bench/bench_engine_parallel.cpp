//===----------------------------------------------------------------------===//
// Measures the parallel corpus driver and the content-addressed result
// cache: end-to-end corpus analysis wall-clock at jobs ∈ {1, 2, 4, 8},
// cold cache vs. warm cache. Alongside the printed table it emits a
// machine-readable trajectory point, BENCH_engine_parallel.json, in the
// current directory so successive runs can be compared over time.
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "corpus/MirCorpus.h"
#include "engine/Engine.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using namespace rs;
using namespace rs::bench;
using namespace rs::corpus;
using namespace rs::engine;

namespace {

MirCorpusConfig fileConfig(uint64_t Seed) {
  MirCorpusConfig C;
  C.Seed = Seed;
  C.BenignFunctions = 30;
  C.UseAfterFreeBugs = 2;
  C.UseAfterFreeBenign = 4;
  C.DoubleLockBugs = 2;
  C.DoubleLockBenign = 4;
  C.LockOrderBugPairs = 1;
  C.DoubleFreeBugs = 1;
  C.UninitReadBugs = 1;
  C.RefCellConflictBugs = 1;
  return C;
}

/// Writes a 16-file corpus (one generated module per file) and returns its
/// directory. Reused across the whole binary so every measurement sees the
/// same inputs.
const std::string &corpusDir() {
  static const std::string Dir = [] {
    fs::path D = fs::temp_directory_path() / "rustsight_bench_parallel";
    fs::remove_all(D);
    fs::create_directories(D);
    for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
      mir::Module M = MirCorpusGenerator(fileConfig(Seed)).generate();
      std::ofstream(D / ("corpus_" + std::to_string(Seed) + ".mir"))
          << M.toString();
    }
    return D.string();
  }();
  return Dir;
}

struct Sample {
  unsigned Jobs;
  double ColdMs;
  double WarmMs;
  uint64_t WarmHits;
};

Sample measure(unsigned Jobs) {
  EngineOptions O;
  O.Jobs = Jobs;
  AnalysisEngine E(O);
  CorpusReport Cold = E.analyzeCorpus({corpusDir()});
  CorpusReport Warm = E.analyzeCorpus({corpusDir()});
  return {Jobs, Cold.Stats.WallMs, Warm.Stats.WallMs,
          Warm.Stats.CacheHits};
}

/// The cold-corpus story for the snapshot layer: a fresh engine process
/// (empty memory cache) against a persistent disk cache directory.
///   no_cache   — parse + verify + detect every file (the true cold floor)
///   disk_warm  — report entries hit from disk (no parse, no detectors)
///   snap_warm  — report keys invalidated (detector-option change), but
///                snapshots serve the parsed modules: detectors re-run,
///                Lexer/Parser never touched.
struct DiskColdSamples {
  double NoCacheMs;
  double DiskWarmMs;
  double SnapWarmMs;
};

/// Repetitions of each disk-cold configuration; odd, so the median is a
/// sample.
constexpr unsigned DiskColdReps = 31;

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

/// The repetitions interleave the three configurations, so drift on a
/// shared machine (frequency, neighbours) lands on all three alike, and
/// each reports its median. Every cached repetition starts from a copy of
/// one primed cache directory: a run's own stores — the invalidated run's
/// reports, a pack compaction — must not change what the next one finds.
DiskColdSamples measureDiskCold(unsigned Jobs) {
  fs::path Root = fs::temp_directory_path() / "rustsight_bench_snapcache";
  fs::path Primed = Root / "primed", Scratch = Root / "run";
  fs::remove_all(Root);
  EngineOptions Base;
  Base.Jobs = Jobs;
  Base.CacheDir = Primed.string();
  {
    AnalysisEngine Prime(Base);
    Prime.analyzeCorpus({corpusDir()}); // Populate reports + snapshots.
  }

  EngineOptions NoCache;
  NoCache.Jobs = Jobs;
  NoCache.UseCache = false;
  EngineOptions DiskWarm = Base;
  DiskWarm.CacheDir = Scratch.string();
  // A detector-option change: one more summary round than the cap the
  // corpus converges within, so the analysis does the same work under a
  // different cache salt and every report key misses.
  EngineOptions Invalidated = DiskWarm;
  Invalidated.MaxSummaryRounds = Base.MaxSummaryRounds + 1;

  auto RunMs = [&](const EngineOptions &O) {
    if (O.UseCache) {
      fs::remove_all(Scratch);
      fs::copy(Primed, Scratch, fs::copy_options::recursive);
    }
    AnalysisEngine E(O);
    return E.analyzeCorpus({corpusDir()}).Stats.WallMs;
  };
  std::vector<double> NoCacheMs, DiskWarmMs, SnapWarmMs;
  for (unsigned Rep = 0; Rep != DiskColdReps; ++Rep) {
    NoCacheMs.push_back(RunMs(NoCache));
    DiskWarmMs.push_back(RunMs(DiskWarm));
    SnapWarmMs.push_back(RunMs(Invalidated));
  }
  fs::remove_all(Root);
  return {median(NoCacheMs), median(DiskWarmMs), median(SnapWarmMs)};
}

} // namespace

static void printExperiment() {
  banner("Parallel analysis scheduler + incremental result cache",
         "Corpus analysis wall-clock at jobs 1/2/4/8, cold vs. warm cache, "
         "over a 16-file generated corpus. The JSON report is byte-identical "
         "in every cell of this table.");

  std::vector<Sample> Samples;
  for (unsigned Jobs : {1u, 2u, 4u, 8u})
    Samples.push_back(measure(Jobs));

  std::printf("  %-8s %14s %14s %12s %10s\n", "jobs", "cold (ms)",
              "warm (ms)", "speedup", "warm hits");
  double SerialCold = Samples.front().ColdMs;
  for (const Sample &S : Samples)
    std::printf("  %-8u %14.2f %14.2f %11.2fx %10llu\n", S.Jobs, S.ColdMs,
                S.WarmMs, SerialCold / S.ColdMs,
                static_cast<unsigned long long>(S.WarmHits));

  DiskColdSamples Disk = measureDiskCold(4);
  std::printf("\n  cold-corpus story at jobs=4 (fresh engine, persistent "
              "disk cache; medians of %u interleaved runs):\n",
              DiskColdReps);
  std::printf("  %-26s %10.2f ms\n", "no cache (parse+detect)",
              Disk.NoCacheMs);
  std::printf("  %-26s %10.2f ms  (%.1fx)\n", "disk-warm reports",
              Disk.DiskWarmMs,
              Disk.DiskWarmMs > 0 ? Disk.NoCacheMs / Disk.DiskWarmMs : 0);
  std::printf("  %-26s %10.2f ms  (%.1fx, detectors re-run)\n",
              "snapshot-warm modules", Disk.SnapWarmMs,
              Disk.SnapWarmMs > 0 ? Disk.NoCacheMs / Disk.SnapWarmMs : 0);

  JsonWriter W;
  W.beginObject();
  W.field("bench", "engine_parallel");
  W.field("corpus_files", int64_t(16));
  W.key("no_cache_ms");
  W.value(Disk.NoCacheMs);
  W.key("disk_warm_ms");
  W.value(Disk.DiskWarmMs);
  W.key("snapshot_warm_ms");
  W.value(Disk.SnapWarmMs);
  W.key("disk_warm_speedup");
  W.value(Disk.DiskWarmMs > 0 ? Disk.NoCacheMs / Disk.DiskWarmMs : 0);
  W.key("snapshot_warm_speedup");
  W.value(Disk.SnapWarmMs > 0 ? Disk.NoCacheMs / Disk.SnapWarmMs : 0);
  W.field("disk_cold_reps", int64_t(DiskColdReps));
  W.key("samples");
  W.beginArray();
  for (const Sample &S : Samples) {
    W.beginObject();
    W.field("jobs", int64_t(S.Jobs));
    W.key("cold_ms");
    W.value(S.ColdMs);
    W.key("warm_ms");
    W.value(S.WarmMs);
    W.field("warm_cache_hits", int64_t(S.WarmHits));
    W.endObject();
  }
  W.endArray();
  writeMachineFacts(W);
  W.endObject();
  std::ofstream("BENCH_engine_parallel.json") << W.str() << "\n";
  std::printf("\n  trajectory point written to BENCH_engine_parallel.json\n\n");
}

static void BM_AnalyzeCorpusCold(benchmark::State &State) {
  EngineOptions O;
  O.Jobs = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    AnalysisEngine E(O); // Fresh engine: empty cache every iteration.
    CorpusReport R = E.analyzeCorpus({corpusDir()});
    benchmark::DoNotOptimize(R.totalFindings());
  }
}
BENCHMARK(BM_AnalyzeCorpusCold)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

static void BM_AnalyzeCorpusWarm(benchmark::State &State) {
  EngineOptions O;
  O.Jobs = static_cast<unsigned>(State.range(0));
  AnalysisEngine E(O);
  E.analyzeCorpus({corpusDir()}); // Prime the cache once.
  for (auto _ : State) {
    CorpusReport R = E.analyzeCorpus({corpusDir()});
    benchmark::DoNotOptimize(R.totalFindings());
  }
}
BENCHMARK(BM_AnalyzeCorpusWarm)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond);

static void BM_FingerprintSource(benchmark::State &State) {
  mir::Module M = MirCorpusGenerator(fileConfig(1)).generate();
  std::string Source = M.toString();
  for (auto _ : State)
    benchmark::DoNotOptimize(fingerprintSource(Source));
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Source.size()));
}
BENCHMARK(BM_FingerprintSource);

RUSTSIGHT_BENCH_MAIN(printExperiment)
