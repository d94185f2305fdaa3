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

DiskColdSamples measureDiskCold(unsigned Jobs) {
  fs::path CacheDir =
      fs::temp_directory_path() / "rustsight_bench_snapcache";
  fs::remove_all(CacheDir);
  EngineOptions Base;
  Base.Jobs = Jobs;
  Base.CacheDir = CacheDir.string();
  {
    AnalysisEngine Prime(Base);
    Prime.analyzeCorpus({corpusDir()}); // Populate reports + snapshots.
  }

  EngineOptions NoCache;
  NoCache.Jobs = Jobs;
  NoCache.UseCache = false;
  double NoCacheMs = 1e300, DiskWarmMs = 1e300, SnapWarmMs = 1e300;
  for (int Rep = 0; Rep != 3; ++Rep) { // Fastest-of-3 per configuration.
    // A fresh salt every rep: the rep's own report stores must not turn
    // the next rep's snapshot measurement into a report-cache hit.
    EngineOptions Invalidated = Base;
    Invalidated.MaxSummaryRounds =
        Base.MaxSummaryRounds + 1 + static_cast<unsigned>(Rep);
    {
      AnalysisEngine E(NoCache);
      NoCacheMs =
          std::min(NoCacheMs, E.analyzeCorpus({corpusDir()}).Stats.WallMs);
    }
    {
      AnalysisEngine E(Base); // Fresh process-equivalent: disk serves.
      DiskWarmMs =
          std::min(DiskWarmMs, E.analyzeCorpus({corpusDir()}).Stats.WallMs);
    }
    {
      AnalysisEngine E(Invalidated); // Snapshots serve, detectors re-run.
      SnapWarmMs =
          std::min(SnapWarmMs, E.analyzeCorpus({corpusDir()}).Stats.WallMs);
    }
  }
  fs::remove_all(CacheDir);
  return {NoCacheMs, DiskWarmMs, SnapWarmMs};
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
              "disk cache):\n");
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
