//===----------------------------------------------------------------------===//
//
// End-to-end tests for the whole-program link step (docs/WHOLEPROGRAM.md):
// cross-file findings with counterpart spans in both files, the
// withheld-callee miss, and the determinism matrix — in-process vs shard
// fleet, job counts, cold vs warm SummaryDb, and the schema-bump drill.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "diag/Diag.h"
#include "engine/Supervisor.h"
#include "mir/Snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace fs = std::filesystem;
using namespace rs;
using namespace rs::engine;

namespace {

// The caller half of the cross-file use-after-free: the allocation only
// dies inside the callee, which lives in the other file.
const char *UafUseSrc = "fn xp_caller() -> u8 {\n"
                        "    let _1: *mut u8;\n"
                        "    let _2: ();\n"
                        "    bb0: {\n"
                        "        _1 = alloc(const 8) -> bb1;\n"
                        "    }\n"
                        "    bb1: {\n"
                        "        (*_1) = const 5;\n"
                        "        _2 = xp_free(copy _1) -> bb2;\n"
                        "    }\n"
                        "    bb2: {\n"
                        "        _0 = copy (*_1);\n"
                        "        return;\n"
                        "    }\n"
                        "}\n";

const char *UafDefSrc = "fn xp_free(_1: *mut u8) {\n"
                        "    bb0: {\n"
                        "        dealloc(copy _1) -> bb1;\n"
                        "    }\n"
                        "    bb1: {\n"
                        "        return;\n"
                        "    }\n"
                        "}\n";

// The caller half of the cross-file double lock: the guard is still live
// across a call to a helper that re-locks the same mutex.
const char *DlUseSrc = "fn xp_outer(_1: &Mutex<i32>) -> i32 {\n"
                       "    let _2: MutexGuard<i32>;\n"
                       "    bb0: {\n"
                       "        _2 = Mutex::lock(copy _1) -> bb1;\n"
                       "    }\n"
                       "    bb1: {\n"
                       "        _0 = xp_relock(copy _1) -> bb2;\n"
                       "    }\n"
                       "    bb2: {\n"
                       "        return;\n"
                       "    }\n"
                       "}\n";

const char *DlDefSrc = "fn xp_relock(_1: &Mutex<i32>) -> i32 {\n"
                       "    let _2: MutexGuard<i32>;\n"
                       "    bb0: {\n"
                       "        _2 = Mutex::lock(copy _1) -> bb1;\n"
                       "    }\n"
                       "    bb1: {\n"
                       "        _0 = copy (*_2);\n"
                       "        return;\n"
                       "    }\n"
                       "}\n";

fs::path writePair(const char *Name, const char *UseSrc, const char *DefSrc) {
  fs::path Dir = fs::path(testing::TempDir()) / Name;
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  std::ofstream(Dir / "a_def.mir") << DefSrc;
  std::ofstream(Dir / "b_use.mir") << UseSrc;
  return Dir;
}

EngineOptions baseOptions() {
  EngineOptions Opts;
  Opts.Jobs = 1;
  Opts.UseCache = false;
  return Opts;
}

const FileReport *findFile(const CorpusReport &R, const char *Needle) {
  for (const FileReport &F : R.Files)
    if (F.Path.find(Needle) != std::string::npos)
      return &F;
  return nullptr;
}

/// The first finding of \p Kind in \p F, or null.
const diag::Diagnostic *findKind(const FileReport &F, const char *Kind) {
  for (const diag::Diagnostic &D : F.Findings)
    if (std::string_view(diag::ruleName(D.Kind)) == Kind)
      return &D;
  return nullptr;
}

/// The first secondary span whose location lives in \p FileNeedle, or null.
const diag::Span *spanInto(const diag::Diagnostic &D,
                           const char *FileNeedle) {
  for (const diag::Span &S : D.Secondary)
    if (S.Loc.file().find(FileNeedle) != std::string::npos)
      return &S;
  return nullptr;
}

} // namespace

TEST(WholeProgram, CrossFileUseAfterFreeHasCounterpartSpan) {
  fs::path Dir = writePair("wp_uaf", UafUseSrc, UafDefSrc);
  AnalysisEngine E(baseOptions());
  CorpusReport R = E.analyzeCorpus({Dir.string()});

  EXPECT_TRUE(R.Stats.LinkEnabled);
  EXPECT_EQ(R.Stats.LinkedFiles, 2u);

  // The finding lands in the use file...
  const FileReport *Use = findFile(R, "b_use.mir");
  ASSERT_NE(Use, nullptr);
  const diag::Diagnostic *D = findKind(*Use, "use-after-free");
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Function, "xp_caller");

  // ...with a secondary span pointing at the dealloc inside the callee,
  // in the counterpart file.
  const diag::Span *S = spanInto(*D, "a_def.mir");
  ASSERT_NE(S, nullptr) << R.renderText();
  EXPECT_EQ(S->Label, "may be dropped inside callee 'xp_free' here");
  EXPECT_EQ(S->Loc.line(), 3u); // dealloc(copy _1) in a_def.mir.

  // The def file itself stays clean: standalone, xp_free frees an unknown
  // caller-owned object.
  const FileReport *Def = findFile(R, "a_def.mir");
  ASSERT_NE(Def, nullptr);
  EXPECT_TRUE(Def->Findings.empty());
}

TEST(WholeProgram, CrossFileDoubleLockHasCounterpartSpan) {
  fs::path Dir = writePair("wp_dl", DlUseSrc, DlDefSrc);
  AnalysisEngine E(baseOptions());
  CorpusReport R = E.analyzeCorpus({Dir.string()});

  const FileReport *Use = findFile(R, "b_use.mir");
  ASSERT_NE(Use, nullptr);
  const diag::Diagnostic *D = findKind(*Use, "double-lock");
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_NE(D->Message.find("xp_relock"), std::string::npos);

  const diag::Span *S = spanInto(*D, "a_def.mir");
  ASSERT_NE(S, nullptr) << R.renderText();
  EXPECT_EQ(S->Label, "acquired inside callee 'xp_relock' here");
  EXPECT_EQ(S->Loc.line(), 4u); // Mutex::lock in a_def.mir.

  const FileReport *Def = findFile(R, "a_def.mir");
  ASSERT_NE(Def, nullptr);
  EXPECT_TRUE(Def->Findings.empty());
}

TEST(WholeProgram, MissedWhenCalleeFileWithheld) {
  // Analyzing the use file alone — even with linking forced on — must not
  // report the bug: the callee is an unresolved leaf with no summary.
  fs::path Dir = writePair("wp_withheld", UafUseSrc, UafDefSrc);
  EngineOptions Opts = baseOptions();
  Opts.WholeProgram = WholeProgramMode::On;
  AnalysisEngine E(Opts);
  CorpusReport R = E.analyzeCorpus({(Dir / "b_use.mir").string()});

  ASSERT_EQ(R.Files.size(), 1u);
  EXPECT_EQ(R.Files[0].Status, EngineStatus::Ok);
  EXPECT_EQ(R.totalFindings(), 0u) << R.renderText();
}

TEST(WholeProgram, OffModeStaysPerFile) {
  fs::path Dir = writePair("wp_off", UafUseSrc, UafDefSrc);
  EngineOptions Opts = baseOptions();
  Opts.WholeProgram = WholeProgramMode::Off;
  AnalysisEngine E(Opts);
  CorpusReport R = E.analyzeCorpus({Dir.string()});

  EXPECT_FALSE(R.Stats.LinkEnabled);
  EXPECT_EQ(R.totalFindings(), 0u) << R.renderText();
}

TEST(WholeProgram, AutoLinksOnlyMultiFileCorpora) {
  fs::path Dir = writePair("wp_auto", UafUseSrc, UafDefSrc);
  {
    AnalysisEngine E(baseOptions());
    CorpusReport R = E.analyzeCorpus({(Dir / "b_use.mir").string()});
    EXPECT_FALSE(R.Stats.LinkEnabled);
  }
  {
    AnalysisEngine E(baseOptions());
    CorpusReport R = E.analyzeCorpus({Dir.string()});
    EXPECT_TRUE(R.Stats.LinkEnabled);
  }
}

TEST(WholeProgram, JsonIsByteIdenticalAcrossJobsAndShards) {
  fs::path Dir = writePair("wp_determinism", UafUseSrc, UafDefSrc);
  std::ofstream(Dir / "c_dl_def.mir") << DlDefSrc;
  std::ofstream(Dir / "d_dl_use.mir") << DlUseSrc;

  AnalysisEngine Serial(baseOptions());
  CorpusReport Want = Serial.analyzeCorpus({Dir.string()});
  EXPECT_EQ(Want.totalFindings(), 2u) << Want.renderText();

  // Job counts.
  for (unsigned Jobs : {2u, 8u}) {
    EngineOptions Opts = baseOptions();
    Opts.Jobs = Jobs;
    AnalysisEngine E(Opts);
    CorpusReport Got = E.analyzeCorpus({Dir.string()});
    EXPECT_EQ(Want.renderJson(), Got.renderJson()) << "jobs=" << Jobs;
    EXPECT_EQ(Want.renderSarif(), Got.renderSarif()) << "jobs=" << Jobs;
  }

  // Shard fleet: the supervised two-phase link must reproduce the
  // in-process bytes for every shard count.
  for (unsigned Shards : {1u, 4u}) {
    SupervisorOptions SO;
    SO.Engine = baseOptions();
    SO.Shards = Shards;
    SO.BackoffMs = 1;
    SO.WorkerExe = RS_RUSTSIGHT_BIN;
    Supervisor S(std::move(SO));
    CorpusReport Got = S.run({Dir.string()});
    EXPECT_EQ(Want.renderJson(), Got.renderJson()) << "shards=" << Shards;
    EXPECT_EQ(Want.renderSarif(), Got.renderSarif()) << "shards=" << Shards;
  }
}

TEST(WholeProgram, ColdVsWarmSummaryDbIsByteIdentical) {
  fs::path Dir = writePair("wp_warm", UafUseSrc, UafDefSrc);
  fs::path CacheDir = fs::path(testing::TempDir()) / "wp_warm_cache";
  fs::remove_all(CacheDir);

  EngineOptions Opts = baseOptions();
  Opts.UseCache = true;
  Opts.CacheDir = CacheDir.string();

  std::string Cold, Warm;
  {
    AnalysisEngine E(Opts);
    CorpusReport R = E.analyzeCorpus({Dir.string()});
    EXPECT_GT(R.Stats.SummaryDbStores, 0u);
    EXPECT_EQ(R.Stats.ModulesFromSummaryDb, 0u);
    Cold = R.renderJson();
  }
  {
    // A fresh engine against the same disk root: every link key hits, so
    // no module is summarized and the bytes match the cold run exactly.
    // The def file is the one contributing module; the use file defines
    // nothing another file calls, so the solver never probes it.
    AnalysisEngine E(Opts);
    CorpusReport R = E.analyzeCorpus({Dir.string()});
    EXPECT_EQ(R.Stats.ModulesFromSummaryDb, 1u) << R.Stats.renderLine();
    EXPECT_EQ(R.Stats.ModulesUnreferenced, 1u) << R.Stats.renderLine();
    EXPECT_GT(R.Stats.SummaryDbHits, 0u);
    Warm = R.renderJson();
  }
  EXPECT_EQ(Cold, Warm);
}

TEST(WholeProgram, SummaryDbSchemaBumpIsColdNotCorrupt) {
  fs::path Dir = writePair("wp_schema", UafUseSrc, UafDefSrc);
  fs::path CacheDir = fs::path(testing::TempDir()) / "wp_schema_cache";
  fs::remove_all(CacheDir);

  EngineOptions Opts = baseOptions();
  Opts.UseCache = true;
  Opts.CacheDir = CacheDir.string();

  std::string Cold;
  {
    AnalysisEngine E(Opts);
    Cold = E.analyzeCorpus({Dir.string()}).renderJson();
  }

  // The CI drill: a bumped address schema must read as a cold DB — same
  // bytes, zero corruption, old entries simply never addressed.
  Opts.SummaryDbSchemaOverride = sched::SummaryDb::SchemaVersion + 1;
  AnalysisEngine Bumped(Opts);
  CorpusReport R = Bumped.analyzeCorpus({Dir.string()});
  EXPECT_EQ(Cold, R.renderJson());
  EXPECT_EQ(R.Stats.ModulesFromSummaryDb, 0u);
  ASSERT_NE(Bumped.summaryDb(), nullptr);
  EXPECT_EQ(Bumped.summaryDb()->stats().CorruptEntries, 0u);
}

TEST(WholeProgram, WarmRunDecodesOnlyReportMisses) {
  fs::path Dir = fs::path(testing::TempDir()) / "wp_lazy_eval";
  fs::path CacheDir = fs::path(testing::TempDir()) / "wp_lazy_cache";
  fs::remove_all(Dir);
  fs::remove_all(CacheDir);
  fs::copy(fs::path(RS_REPO_ROOT) / "examples/mir/eval", Dir);

  EngineOptions Opts = baseOptions();
  Opts.Jobs = 2;
  Opts.UseCache = true;
  Opts.CacheDir = CacheDir.string();

  std::string Cold;
  {
    AnalysisEngine E(Opts);
    CorpusReport R = E.analyzeCorpus({Dir.string()});
    ASSERT_GT(R.Stats.LinkedFiles, 1u);
    EXPECT_EQ(R.Stats.ModulesDecoded, R.Stats.LinkedFiles);
    Cold = R.renderJson();
  }
  {
    // Fully warm: every module goes from its blob's facts section to a
    // report hit; not one is decoded.
    AnalysisEngine E(Opts);
    CorpusReport R = E.analyzeCorpus({Dir.string()});
    EXPECT_EQ(R.Stats.ModulesDecoded, 0u) << R.Stats.renderLine();
    EXPECT_GE(R.Stats.ModulesFromSummaryDb, 1u);
    EXPECT_EQ(R.renderJson(), Cold);
  }
  {
    // One edited caller: its report misses and it is the only module
    // decoded (parsed, since its bytes are new). A trailing comment moves
    // no location, so the report bytes stay the same.
    std::ofstream(Dir / "xfile_uaf_bug_0_use.mir", std::ios::app)
        << "// edited\n";
    AnalysisEngine E(Opts);
    CorpusReport R = E.analyzeCorpus({Dir.string()});
    EXPECT_EQ(R.Stats.ModulesDecoded, 1u) << R.Stats.renderLine();
    EXPECT_EQ(R.renderJson(), Cold);
  }
}

TEST(WholeProgram, DamagedFactsSectionIsAMissNotCorruption) {
  fs::path Dir = writePair("wp_facts", UafUseSrc, UafDefSrc);
  fs::path CacheDir = fs::path(testing::TempDir()) / "wp_facts_cache";
  fs::remove_all(CacheDir);

  EngineOptions Opts = baseOptions();
  Opts.UseCache = true;
  Opts.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(Opts);
    Cold = E.analyzeCorpus({Dir.string()}).renderJson();
  }

  std::vector<uint64_t> Keys = {snapshotCacheKey(fingerprintSource(UafDefSrc)),
                                snapshotCacheKey(fingerprintSource(UafUseSrc))};

  // Each damage leaves the envelope valid (re-sealed by storeBlob) and the
  // snapshot half intact, so only the facts-section decoder can notice it.
  using DamageFn = std::function<std::string(std::string, size_t)>;
  std::vector<std::pair<const char *, DamageFn>> Damages = {
      {"absent", [](std::string B, size_t Snap) { return B.substr(0, Snap); }},
      {"truncated",
       [](std::string B, size_t Snap) {
         return B.substr(0, Snap + (B.size() - Snap) / 2);
       }},
      {"bit-flipped",
       [](std::string B, size_t) {
         B.back() = static_cast<char>(B.back() ^ 0x10);
         return B;
       }},
  };
  for (const auto &[What, Damage] : Damages) {
    {
      // Read both blobs through the pack and store the damaged ones back
      // into it: the newest segment wins.
      sched::ResultCache::Options CO;
      CO.DiskDir = CacheDir.string();
      sched::ResultCache C(CO);
      C.openPack();
      for (uint64_t Key : Keys) {
        std::optional<std::string> Bytes = C.lookupBlob(Key);
        ASSERT_TRUE(Bytes.has_value()) << What;
        std::optional<size_t> Snap = mir::snapshot::encodedSize(*Bytes);
        ASSERT_TRUE(Snap.has_value()) << What;
        ASSERT_LT(*Snap, Bytes->size()) << What << ": no facts section";
        C.storeBlob(Key, Damage(*Bytes, *Snap));
      }
      EXPECT_EQ(C.stats().PackHits, Keys.size()) << What;
      C.writePack();
      EXPECT_EQ(C.stats().PackWrites, 1u) << What;
    }
    AnalysisEngine E(Opts);
    CorpusReport R = E.analyzeCorpus({Dir.string()});
    EXPECT_EQ(R.renderJson(), Cold) << What;
    EXPECT_EQ(R.Stats.CorruptEntries, 0u) << What;
    // Both modules took the cold facts path: decoded from the snapshot
    // half, which the damage left intact.
    EXPECT_EQ(R.Stats.ModulesDecoded, 2u) << What << ": "
                                          << R.Stats.renderLine();
    // ...and rewrote their blobs, so the next run decodes nothing.
    AnalysisEngine Again(Opts);
    CorpusReport R2 = Again.analyzeCorpus({Dir.string()});
    EXPECT_EQ(R2.Stats.ModulesDecoded, 0u) << What;
    EXPECT_EQ(R2.renderJson(), Cold) << What;
  }
}


TEST(WholeProgram, WarmRunReadsOnlyThePack) {
  fs::path Dir = fs::path(testing::TempDir()) / "wp_pack_eval";
  fs::path CacheDir = fs::path(testing::TempDir()) / "wp_pack_cache";
  fs::remove_all(Dir);
  fs::remove_all(CacheDir);
  fs::copy(fs::path(RS_REPO_ROOT) / "examples/mir/eval", Dir);
  const fs::path Pack = CacheDir / sched::ResultCache::packFileName();

  EngineOptions Opts = baseOptions();
  Opts.UseCache = true;
  Opts.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(Opts);
    Cold = E.analyzeCorpus({Dir.string()}).renderJson();
  }
  ASSERT_TRUE(fs::exists(Pack));

  for (unsigned Jobs : {1u, 4u}) {
    Opts.Jobs = Jobs;
    {
      // Fully warm: every report and blob lookup is a pack hit, no loose
      // entry is opened, and the pack is left as it is.
      AnalysisEngine E(Opts);
      CorpusReport R = E.analyzeCorpus({Dir.string()});
      EXPECT_EQ(R.renderJson(), Cold) << "jobs=" << Jobs;
      sched::ResultCache::Stats S = E.cache()->stats();
      EXPECT_GT(S.PackHits, 0u);
      EXPECT_EQ(S.PackHits, S.Hits + S.BlobHits) << R.Stats.renderLine();
      EXPECT_EQ(S.Misses + S.BlobMisses, 0u) << R.Stats.renderLine();
      EXPECT_EQ(S.LooseReads, 0u) << R.Stats.renderLine();
      EXPECT_EQ(S.PackWrites, 0u) << R.Stats.renderLine();
      EXPECT_EQ(R.Stats.PackHits, S.PackHits);
      EXPECT_NE(R.Stats.renderLine().find(std::to_string(S.PackHits) +
                                          " entr(ies) from pack"),
                std::string::npos)
          << R.Stats.renderLine();
    }
    {
      // Absent: the loose entries serve the same bytes and the pack is
      // written again.
      fs::remove(Pack);
      AnalysisEngine E(Opts);
      CorpusReport R = E.analyzeCorpus({Dir.string()});
      EXPECT_EQ(R.renderJson(), Cold) << "jobs=" << Jobs;
      EXPECT_EQ(R.Stats.PackHits, 0u);
      EXPECT_EQ(R.Stats.CorruptEntries, 0u);
      EXPECT_EQ(E.cache()->stats().PackWrites, 1u);
      EXPECT_TRUE(fs::exists(Pack));
    }
    {
      // Corrupt: one corrupt count, the same bytes, a good pack after.
      std::string Bytes;
      {
        std::ifstream In(Pack, std::ios::binary);
        Bytes.assign(std::istreambuf_iterator<char>(In), {});
      }
      ASSERT_GT(Bytes.size(), 40u);
      Bytes[30] = static_cast<char>(Bytes[30] ^ 0x01); // In the index.
      std::ofstream(Pack, std::ios::binary | std::ios::trunc) << Bytes;
      AnalysisEngine E(Opts);
      CorpusReport R = E.analyzeCorpus({Dir.string()});
      EXPECT_EQ(R.renderJson(), Cold) << "jobs=" << Jobs;
      EXPECT_EQ(R.Stats.PackHits, 0u);
      EXPECT_EQ(R.Stats.CorruptEntries, 1u);
      EXPECT_EQ(E.cache()->stats().PackWrites, 1u);
    }
  }
}

namespace {

size_t looseEntriesIn(const fs::path &Dir) {
  size_t N = 0;
  for (const auto &E : fs::directory_iterator(Dir))
    N += E.path().filename().string().rfind("rscache-", 0) == 0;
  return N;
}

std::string readBytes(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

} // namespace

TEST(WholeProgram, WarmEditWritesNoLooseEntries) {
  fs::path Dir = fs::path(testing::TempDir()) / "wp_edit_eval";
  fs::path CacheDir = fs::path(testing::TempDir()) / "wp_edit_cache";
  fs::remove_all(Dir);
  fs::remove_all(CacheDir);
  fs::copy(fs::path(RS_REPO_ROOT) / "examples/mir/eval", Dir);
  const fs::path Pack = CacheDir / sched::ResultCache::packFileName();

  EngineOptions Opts = baseOptions();
  Opts.UseCache = true;
  Opts.CacheDir = CacheDir.string();
  {
    AnalysisEngine E(Opts);
    E.analyzeCorpus({Dir.string()});
  }
  // What is loose now belongs to the SummaryDb, which never opens a pack.
  const size_t Loose = looseEntriesIn(CacheDir);
  const std::string Before = readBytes(Pack);
  ASSERT_FALSE(Before.empty());

  // A caller no other file calls: its report and snapshot are new, and
  // the SummaryDb is not consulted for it.
  std::ofstream(Dir / "xfile_uaf_bug_0_use.mir", std::ios::app)
      << "// edited\n";
  AnalysisEngine E(Opts);
  CorpusReport R = E.analyzeCorpus({Dir.string()});
  EXPECT_EQ(looseEntriesIn(CacheDir), Loose) << R.Stats.renderLine();
  EXPECT_EQ(R.Stats.CacheMisses, 1u) << R.Stats.renderLine();
  sched::ResultCache::Stats S = E.cache()->stats();
  EXPECT_EQ(S.PackWrites, 1u);
  EXPECT_EQ(S.PackCompactions, 0u);
  // One segment appended behind the untouched old bytes.
  const std::string After = readBytes(Pack);
  EXPECT_GT(After.size(), Before.size());
  EXPECT_EQ(After.substr(0, Before.size()), Before);

  AnalysisEngine NoCache(baseOptions());
  EXPECT_EQ(R.renderJson(), NoCache.analyzeCorpus({Dir.string()}).renderJson());
}

TEST(WholeProgram, SubsetRunsLeaveTheCorpusWarm) {
  fs::path Dir = fs::path(testing::TempDir()) / "wp_subset_eval";
  fs::path Other = fs::path(testing::TempDir()) / "wp_subset_other";
  fs::path CacheDir = fs::path(testing::TempDir()) / "wp_subset_cache";
  fs::remove_all(Dir);
  fs::remove_all(Other);
  fs::remove_all(CacheDir);
  fs::copy(fs::path(RS_REPO_ROOT) / "examples/mir/eval", Dir);
  fs::create_directories(Other);

  EngineOptions Opts = baseOptions();
  Opts.UseCache = true;
  Opts.CacheDir = CacheDir.string();
  const CorpusReport Cold = AnalysisEngine(Opts).analyzeCorpus({Dir.string()});
  const std::string Want = Cold.renderJson();
  auto ExpectWarm = [&](const char *When) {
    AnalysisEngine E(Opts);
    CorpusReport R = E.analyzeCorpus({Dir.string()});
    EXPECT_EQ(R.renderJson(), Want) << When;
    EXPECT_EQ(R.Stats.CacheMisses, 0u) << When << ": "
                                       << R.Stats.renderLine();
    EXPECT_EQ(R.Stats.CacheHits, Cold.Stats.CacheMisses) << When;
    EXPECT_EQ(E.cache()->stats().PackWrites, 0u) << When;
  };

  // One file the corpus links with, alone: its per-file key is not the
  // linked key the corpus run stored, so it misses and appends a segment.
  {
    AnalysisEngine E(Opts);
    CorpusReport R =
        E.analyzeCorpus({(Dir / "xfile_uaf_bug_0_use.mir").string()});
    EXPECT_EQ(R.Stats.CacheMisses, 1u);
    EXPECT_EQ(E.cache()->stats().PackWrites, 1u);
  }
  ExpectWarm("after a one-file run");

  // Runs over other files that share the cache dir, each new, until one
  // compacts at the segment bound.
  const std::string Src = readBytes(Dir / "clean_0.mir");
  size_t Appends = 1;
  bool Compacted = false;
  for (size_t Run = 0; Run != sched::ResultCache::MaxPackSegments; ++Run) {
    fs::path F = Other / ("other_" + std::to_string(Run) + ".mir");
    std::ofstream(F) << Src << "// other " << Run << "\n";
    AnalysisEngine E(Opts);
    E.analyzeCorpus({F.string()});
    sched::ResultCache::Stats S = E.cache()->stats();
    EXPECT_EQ(S.PackWrites, 1u) << Run;
    if (S.PackCompactions != 0) {
      Compacted = true;
      break;
    }
    ++Appends;
  }
  EXPECT_TRUE(Compacted);
  EXPECT_EQ(Appends, sched::ResultCache::MaxPackSegments - 1);
  ExpectWarm("after a compaction by another run");
}

TEST(WholeProgram, FleetAndInProcessRunsShareACacheDir) {
  fs::path Dir = writePair("wp_share", UafUseSrc, UafDefSrc);
  std::ofstream(Dir / "c_dl_def.mir") << DlDefSrc;
  std::ofstream(Dir / "d_dl_use.mir") << DlUseSrc;
  const std::string Want =
      AnalysisEngine(baseOptions()).analyzeCorpus({Dir.string()}).renderJson();

  EngineOptions Opts = baseOptions();
  Opts.UseCache = true;
  auto Fleet = [&](const fs::path &CacheDir) {
    SupervisorOptions SO;
    SO.Engine = Opts;
    SO.Engine.CacheDir = CacheDir.string();
    SO.Shards = 2;
    SO.BackoffMs = 1;
    SO.WorkerExe = RS_RUSTSIGHT_BIN;
    return Supervisor(std::move(SO)).run({Dir.string()});
  };
  auto InProcess = [&](const fs::path &CacheDir) {
    EngineOptions O = Opts;
    O.CacheDir = CacheDir.string();
    return AnalysisEngine(O).analyzeCorpus({Dir.string()});
  };

  // Fleet first: its workers write loose entries, which the in-process
  // run reads and folds into the pack.
  fs::path CacheDir = fs::path(testing::TempDir()) / "wp_share_fleet_first";
  fs::remove_all(CacheDir);
  CorpusReport R = Fleet(CacheDir);
  EXPECT_EQ(R.renderJson(), Want);
  // The fleet measures neither decodes nor pack hits, so its stats line
  // leaves them out; it does count unreferenced modules. Its cache
  // counters are its workers' own, summed: cold, every report misses.
  std::string Line = R.Stats.renderLine();
  EXPECT_EQ(Line.find("decoded"), std::string::npos) << Line;
  EXPECT_EQ(Line.find("from pack"), std::string::npos) << Line;
  EXPECT_NE(Line.find(" unreferenced"), std::string::npos) << Line;
  EXPECT_NE(Line.find("cache: 0 hit(s), 4 miss(es)"), std::string::npos)
      << Line;
  EXPECT_FALSE(fs::exists(CacheDir / sched::ResultCache::packFileName()));
  // Warm, every report hits — from disk, since each worker starts empty.
  const RunStats WarmFleet = Fleet(CacheDir).Stats;
  EXPECT_EQ(WarmFleet.CacheHits, 4u) << WarmFleet.renderLine();
  EXPECT_EQ(WarmFleet.CacheMisses, 0u) << WarmFleet.renderLine();
  EXPECT_EQ(WarmFleet.DiskHits, 4u) << WarmFleet.renderLine();
  R = InProcess(CacheDir);
  EXPECT_EQ(R.renderJson(), Want);
  EXPECT_GT(R.Stats.DiskHits, 0u) << R.Stats.renderLine();
  EXPECT_EQ(R.Stats.CacheMisses, 0u) << R.Stats.renderLine();
  // A warm fleet and a warm in-process run count the same lookups.
  EXPECT_EQ(R.Stats.CacheHits, WarmFleet.CacheHits) << R.Stats.renderLine();
  R = InProcess(CacheDir);
  EXPECT_EQ(R.renderJson(), Want);
  EXPECT_GT(R.Stats.PackHits, 0u);
  Line = R.Stats.renderLine();
  EXPECT_NE(Line.find(" module(s) decoded, "), std::string::npos) << Line;
  EXPECT_NE(Line.find(std::to_string(R.Stats.PackHits) + " entr(ies) from pack"),
            std::string::npos)
      << Line;

  // In-process first: the pack is its only store, so a fleet right after
  // finds no loose entries and runs cold — with the same bytes.
  CacheDir = fs::path(testing::TempDir()) / "wp_share_in_process_first";
  fs::remove_all(CacheDir);
  EXPECT_EQ(InProcess(CacheDir).renderJson(), Want);
  const size_t Loose = looseEntriesIn(CacheDir);
  R = Fleet(CacheDir);
  EXPECT_EQ(R.renderJson(), Want);
  EXPECT_EQ(R.Stats.CacheHits, 0u) << R.Stats.renderLine();
  EXPECT_EQ(R.Stats.CacheMisses, 4u) << R.Stats.renderLine();
  // Cold: its workers stored every report and snapshot as loose entries.
  EXPECT_GT(looseEntriesIn(CacheDir), Loose);
}
