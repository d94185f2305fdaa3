//===----------------------------------------------------------------------===//
//
// Tests for the parsed-MIR snapshot layer wired through the engine cache:
// a report miss with a valid snapshot on disk must run detectors without
// ever touching the Lexer/Parser (proved by arming the parse fault probe),
// a defective snapshot must fall back to the parser, and a previous-schema
// report entry must read as a cold miss — never as corruption.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "diag/Version.h"
#include "mir/Snapshot.h"
#include "support/FaultInjection.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;
using namespace rs;
using namespace rs::engine;

namespace {

const char *BuggySrc = "fn uaf() -> u8 {\n"
                       "    let _1: Box<u8>;\n"
                       "    let _2: *const u8;\n"
                       "    bb0: {\n"
                       "        _1 = Box::new(const 7) -> bb1;\n"
                       "    }\n"
                       "    bb1: {\n"
                       "        _2 = &raw const (*_1);\n"
                       "        drop(_1) -> bb2;\n"
                       "    }\n"
                       "    bb2: {\n"
                       "        _0 = copy (*_2);\n"
                       "        return;\n"
                       "    }\n"
                       "}\n";

fs::path freshCacheDir(const char *Name) {
  fs::path Dir = fs::path(testing::TempDir()) / Name;
  fs::remove_all(Dir);
  return Dir;
}

/// The path of the snapshot blob the engine would store for \p Source.
fs::path snapshotPathFor(const fs::path &CacheDir, std::string_view Source) {
  return CacheDir / sched::ResultCache::blobFileName(
                        snapshotCacheKey(fingerprintSource(Source)));
}

std::string readFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void writeFile(const fs::path &P, std::string_view Bytes) {
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

std::string renderReport(const FileReport &R) {
  // Findings plus status: enough shape to detect any divergence between
  // a parsed and a snapshot-served analysis.
  std::ostringstream Out;
  Out << engineStatusName(R.Status) << "|" << R.Reason << "|";
  for (const auto &D : R.Findings)
    Out << D.Loc.line() << ":" << D.Loc.column() << " " << D.Message
        << ";";
  Out << "suppressed=" << R.SuppressedFindings;
  return Out.str();
}

} // namespace

TEST(SnapshotCache, CleanAnalysisStoresASnapshotBlob) {
  fs::path CacheDir = freshCacheDir("snap_store_cache");
  EngineOptions O;
  O.CacheDir = CacheDir.string();
  AnalysisEngine E(O);
  FileReport R = E.analyzeSourceThroughCache(BuggySrc, "buggy.mir");
  EXPECT_EQ(R.Status, EngineStatus::Ok);
  EXPECT_EQ(R.Findings.size(), 1u);
  EXPECT_TRUE(fs::exists(snapshotPathFor(CacheDir, BuggySrc)));
  fs::remove_all(CacheDir);
}

TEST(SnapshotCache, SnapshotServesWithoutTouchingTheParser) {
  fs::path CacheDir = freshCacheDir("snap_serve_cache");
  EngineOptions O;
  O.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(O);
    Cold = renderReport(E.analyzeSourceThroughCache(BuggySrc, "buggy.mir"));
  }

  // Different analysis options: the report key changes (cold), but the
  // snapshot key is content-only, so the module must load from the blob.
  // With the parse probe armed to fail every hit, any attempt to lex or
  // parse would be contained as Skipped — an Ok report proves the parser
  // was never entered.
  EngineOptions Changed = O;
  Changed.MaxSummaryRounds = Changed.MaxSummaryRounds + 1;
  AnalysisEngine E(Changed);
  fault::ScopedFault NoParse("engine.parse", 1, 1000000);
  FileReport R = E.analyzeSourceThroughCache(BuggySrc, "buggy.mir");
  EXPECT_EQ(R.Status, EngineStatus::Ok);
  EXPECT_EQ(renderReport(R), Cold);
  ASSERT_NE(E.cache(), nullptr);
  EXPECT_EQ(E.cache()->stats().BlobDiskHits, 1u);
  fs::remove_all(CacheDir);
}

TEST(SnapshotCache, CorruptSnapshotFallsBackToTheParser) {
  fs::path CacheDir = freshCacheDir("snap_corrupt_cache");
  EngineOptions O;
  O.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(O);
    Cold = renderReport(E.analyzeSourceThroughCache(BuggySrc, "buggy.mir"));
  }

  // Flip one payload byte inside the blob envelope: the cache-layer
  // checksum rejects it, the engine re-parses, and the result is
  // byte-identical to the cold run.
  fs::path Blob = snapshotPathFor(CacheDir, BuggySrc);
  ASSERT_TRUE(fs::exists(Blob));
  std::string Bytes = readFile(Blob);
  ASSERT_GT(Bytes.size(), 40u);
  Bytes[Bytes.size() - 1] = static_cast<char>(Bytes[Bytes.size() - 1] ^ 1);
  writeFile(Blob, Bytes);

  EngineOptions Changed = O;
  Changed.MaxSummaryRounds = Changed.MaxSummaryRounds + 1;
  AnalysisEngine E(Changed);
  FileReport R = E.analyzeSourceThroughCache(BuggySrc, "buggy.mir");
  EXPECT_EQ(R.Status, EngineStatus::Ok);
  EXPECT_EQ(renderReport(R), Cold);
  ASSERT_NE(E.cache(), nullptr);
  EXPECT_EQ(E.cache()->stats().BlobDiskHits, 0u);
  EXPECT_GE(E.cache()->stats().CorruptEntries, 1u);
  fs::remove_all(CacheDir);
}

TEST(SnapshotCache, SnapshotSchemaSkewIsAMissNotACrash) {
  fs::path CacheDir = freshCacheDir("snap_skew_cache");
  EngineOptions O;
  O.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(O);
    Cold = renderReport(E.analyzeSourceThroughCache(BuggySrc, "buggy.mir"));
  }

  // Rewrite the blob with a snapshot from "the future": valid envelope
  // (the cache layer accepts it) but a bumped snapshot schema version, so
  // the snapshot reader itself must reject it and fall back to parsing.
  fs::path Blob = snapshotPathFor(CacheDir, BuggySrc);
  ASSERT_TRUE(fs::exists(Blob));
  {
    std::string Skewed = readFile(Blob);
    // Decode the envelope payload, bump the inner schema byte, restore.
    // Envelope: magic(4) version(4) key(8) size(8) checksum(8) payload.
    // The snapshot schema version is payload byte 4 (after "RSMS").
    std::string Payload = Skewed.substr(32);
    Payload[4] = static_cast<char>(mir::snapshot::SnapshotSchemaVersion + 1);
    sched::ResultCache::Options CO;
    CO.DiskDir = CacheDir.string();
    sched::ResultCache C(CO);
    C.storeBlob(snapshotCacheKey(fingerprintSource(BuggySrc)), Payload);
  }

  EngineOptions Changed = O;
  Changed.MaxSummaryRounds = Changed.MaxSummaryRounds + 1;
  AnalysisEngine E(Changed);
  FileReport R = E.analyzeSourceThroughCache(BuggySrc, "buggy.mir");
  EXPECT_EQ(R.Status, EngineStatus::Ok);
  EXPECT_EQ(renderReport(R), Cold);
  fs::remove_all(CacheDir);
}

TEST(SnapshotCache, PreviousSchemaReportEntryIsColdNotCorrupt) {
  // After a ReportSchemaVersion bump, an on-disk report entry whose
  // payload carries the previous version must behave like a cold cache —
  // deserialization declines, the file is re-analyzed, and the corruption
  // counter stays at zero (the envelope itself is fine).
  fs::path CacheDir = freshCacheDir("snap_v2_cache");
  EngineOptions O;
  O.CacheDir = CacheDir.string();
  std::string Cold;
  {
    AnalysisEngine E(O);
    Cold = renderReport(E.analyzeSourceThroughCache(BuggySrc, "buggy.mir"));
  }

  // Downgrade the stored payload's schema tag in place, simulating an
  // entry written by the previous release at the same key. The entry file
  // is the only .json in the fresh cache dir.
  unsigned JsonEntries = 0;
  fs::path Found;
  for (const auto &F : fs::directory_iterator(CacheDir))
    if (F.path().extension() == ".json") {
      ++JsonEntries;
      Found = F.path();
    }
  ASSERT_EQ(JsonEntries, 1u);
  // The loose envelope is JSON with the binary payload as a string; the
  // payload's schema version is the varint after its 4-byte magic.
  std::optional<JsonValue> Envelope = JsonValue::parse(readFile(Found));
  ASSERT_TRUE(Envelope && Envelope->isObject());
  std::string Payload(Envelope->getString("payload"));
  ASSERT_GT(Payload.size(), 4u);
  ASSERT_EQ(static_cast<uint64_t>(Payload[4]), version::ReportSchemaVersion);
  Payload[4] = static_cast<char>(version::ReportSchemaVersion - 1);
  JsonWriter W;
  W.beginObject();
  W.field("version", Envelope->getInt("version"));
  W.field("key", Envelope->getString("key"));
  W.field("payload", Payload);
  W.endObject();
  writeFile(Found, W.str());
  // Drop the snapshot blob too so the rerun exercises the full cold path.
  fs::remove(snapshotPathFor(CacheDir, BuggySrc));

  AnalysisEngine E(O); // Same options: same report key as the stale entry.
  FileReport R = E.analyzeSourceThroughCache(BuggySrc, "buggy.mir");
  EXPECT_EQ(R.Status, EngineStatus::Ok);
  EXPECT_EQ(renderReport(R), Cold);
  ASSERT_NE(E.cache(), nullptr);
  // The envelope itself read fine (a Hit at the cache layer), but the
  // stale payload was declined above it and the file re-analyzed — with
  // zero corruption recorded. Cold, not corrupt.
  EXPECT_EQ(E.cache()->stats().CorruptEntries, 0u);
  EXPECT_EQ(E.cache()->stats().DiskHits, 1u);
  fs::remove_all(CacheDir);
}
