//===----------------------------------------------------------------------===//
//
// Tests for the content-addressed result cache: memory-layer hit/miss and
// LRU eviction, disk-layer round trips, and — most importantly — the
// corruption contract: a damaged on-disk entry is a miss, never a crash.
//
//===----------------------------------------------------------------------===//

#include "sched/ResultCache.h"

#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

namespace fs = std::filesystem;
using namespace rs::sched;

namespace {

/// A fresh temp dir per test so entries never leak between them.
fs::path freshDir(const char *Name) {
  fs::path Dir = fs::path(testing::TempDir()) / Name;
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  return Dir;
}

std::string readFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

TEST(ResultCache, MemoryHitMissAndStats) {
  ResultCache C;
  EXPECT_FALSE(C.lookup(1).has_value());
  C.store(1, "payload-one");
  auto Hit = C.lookup(1);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, "payload-one");
  EXPECT_FALSE(C.lookup(2).has_value());

  ResultCache::Stats S = C.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(S.DiskHits, 0u);
}

TEST(ResultCache, StoreOverwritesInPlace) {
  ResultCache C;
  C.store(7, "old");
  C.store(7, "new");
  EXPECT_EQ(C.memoryEntryCount(), 1u);
  EXPECT_EQ(*C.lookup(7), "new");
}

TEST(ResultCache, LruEvictionPrefersColdEntries) {
  ResultCache::Options O;
  O.MaxMemoryEntries = 2;
  ResultCache C(O);
  C.store(1, "a");
  C.store(2, "b");
  ASSERT_TRUE(C.lookup(1).has_value()); // Touch 1 so 2 is the cold one.
  C.store(3, "c");
  EXPECT_EQ(C.stats().Evictions, 1u);
  EXPECT_EQ(C.memoryEntryCount(), 2u);
  EXPECT_TRUE(C.lookup(1).has_value());
  EXPECT_FALSE(C.lookup(2).has_value()); // Evicted.
  EXPECT_TRUE(C.lookup(3).has_value());
}

TEST(ResultCache, DiskRoundTripAcrossInstances) {
  fs::path Dir = freshDir("rscache_roundtrip");
  uint64_t Key = 0xdeadbeef12345678ull;
  {
    ResultCache::Options O;
    O.DiskDir = Dir.string();
    ResultCache Writer(O);
    Writer.store(Key, "the serialized report");
  }
  EXPECT_TRUE(fs::exists(Dir / ResultCache::entryFileName(Key)));
  EXPECT_EQ(ResultCache::entryFileName(Key), "rscache-deadbeef12345678.json");

  ResultCache::Options O;
  O.DiskDir = Dir.string();
  ResultCache Reader(O);
  auto Hit = Reader.lookup(Key);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, "the serialized report");
  ResultCache::Stats S = Reader.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.DiskHits, 1u);
  // The disk hit was promoted: the second lookup is served from memory.
  ASSERT_TRUE(Reader.lookup(Key).has_value());
  EXPECT_EQ(Reader.stats().DiskHits, 1u);
}

TEST(ResultCache, PayloadBytesSurviveEscaping) {
  fs::path Dir = freshDir("rscache_escape");
  std::string Nasty = "{\"json\":\"in json\"}\nline2\ttab \\ \"quote\" \x01";
  Nasty += '\0'; // Even an embedded NUL must round-trip.
  Nasty += "tail";
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache W(O);
    W.store(42, Nasty);
  }
  ResultCache R(O);
  auto Hit = R.lookup(42);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, Nasty);
}

TEST(ResultCache, CorruptEntryDegradesToMissAndIsDropped) {
  fs::path Dir = freshDir("rscache_corrupt");
  ResultCache::Options O;
  O.DiskDir = Dir.string();

  const char *Cases[] = {
      "",                                   // Empty file.
      "not json at all",                    // Garbage.
      "{\"version\":1,\"key\":\"zz\"}",     // Bad key, no payload.
      "{\"version\":99,\"key\":\"0000000000000007\",\"payload\":\"x\"}",
      "{\"version\":1,\"key\":\"0000000000000007\",\"payload\":7}",
      "{\"version\":1,\"key\":\"0000000000000007\",\"payl", // Truncated.
  };
  uint64_t Key = 7;
  for (const char *Body : Cases) {
    fs::path Entry = Dir / ResultCache::entryFileName(Key);
    std::ofstream(Entry, std::ios::binary) << Body;
    ResultCache C(O);
    EXPECT_FALSE(C.lookup(Key).has_value()) << "case: " << Body;
    EXPECT_EQ(C.stats().CorruptEntries, 1u) << "case: " << Body;
    EXPECT_EQ(C.stats().Misses, 1u) << "case: " << Body;
    EXPECT_FALSE(fs::exists(Entry)) << "corrupt entry should be dropped";
  }
}

TEST(ResultCache, EntryUnderWrongNameIsRejected) {
  // A valid entry copied to another key's file name must not be served:
  // the envelope key check catches renamed/aliased entries.
  fs::path Dir = freshDir("rscache_wrongname");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache W(O);
    W.store(1, "payload of key 1");
  }
  fs::copy_file(Dir / ResultCache::entryFileName(1),
                Dir / ResultCache::entryFileName(2));
  ResultCache C(O);
  EXPECT_FALSE(C.lookup(2).has_value());
  EXPECT_EQ(C.stats().CorruptEntries, 1u);
}

TEST(ResultCache, UnwritableDiskDirCountsStoreErrorsWithoutCrashing) {
  ResultCache::Options O;
  // A path under a regular file can never become a directory.
  fs::path Blocker = fs::path(testing::TempDir()) / "rscache_blocker";
  std::ofstream(Blocker) << "i am a file";
  O.DiskDir = (Blocker / "sub").string();
  ResultCache C(O);
  C.store(9, "lost payload");
  EXPECT_EQ(C.stats().StoreErrors, 1u);
  // The memory layer still works.
  EXPECT_TRUE(C.lookup(9).has_value());
}

TEST(ResultCache, FirstDiskWriteFailureDisablesTheDiskLayer) {
  fs::path Dir = freshDir("rscache_disable");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache Seed(O);
    Seed.store(1, "seeded before the failure");
  }
  ResultCache C(O);
  ASSERT_FALSE(C.diskDisabled());
  {
    rs::fault::ScopedFault Fault("cache.disk.store", 1);
    C.store(2, "victim of the first failure");
  }
  EXPECT_TRUE(C.diskDisabled());
  EXPECT_EQ(C.stats().StoreErrors, 1u);
  // Disk reads are gated too: the entry seeded on disk is not consulted
  // once the layer is down (a filesystem sick enough to fail writes is
  // not trusted for reads either).
  EXPECT_FALSE(C.lookup(1).has_value());
  EXPECT_EQ(C.stats().DiskHits, 0u);
  // The memory layer is unaffected.
  EXPECT_TRUE(C.lookup(2).has_value());
  // Later stores skip the disk silently — one error total, no files.
  for (uint64_t Key = 10; Key != 20; ++Key)
    C.store(Key, "memory only");
  EXPECT_EQ(C.stats().StoreErrors, 1u);
  EXPECT_FALSE(fs::exists(Dir / ResultCache::entryFileName(2)));
  EXPECT_FALSE(fs::exists(Dir / ResultCache::entryFileName(10)));
  // A fresh cache over the same directory starts with the layer healthy.
  EXPECT_FALSE(ResultCache(O).diskDisabled());
}

TEST(ResultCache, UnwritableDiskDirFailsOnceThenGoesQuiet) {
  // Same contract through the real IO path: a DiskDir that can never be
  // created (nested under a regular file — root ignores permission bits,
  // so chmod is not a reliable blocker) trips the disable on the first
  // store and stays silent for the rest.
  ResultCache::Options O;
  fs::path Blocker = fs::path(testing::TempDir()) / "rscache_quiet_blocker";
  std::ofstream(Blocker) << "i am a file";
  O.DiskDir = (Blocker / "sub").string();
  ResultCache C(O);
  for (uint64_t Key = 0; Key != 8; ++Key)
    C.store(Key, "payload");
  EXPECT_TRUE(C.diskDisabled());
  EXPECT_EQ(C.stats().StoreErrors, 1u);
  for (uint64_t Key = 0; Key != 8; ++Key)
    EXPECT_TRUE(C.lookup(Key).has_value());
}

TEST(ResultCache, ConcurrentMixedUseIsSafe) {
  fs::path Dir = freshDir("rscache_threads");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  O.MaxMemoryEntries = 16; // Force evictions under contention too.
  ResultCache C(O);
  std::vector<std::thread> Threads;
  for (int T = 0; T != 8; ++T)
    Threads.emplace_back([&C, T] {
      for (uint64_t I = 0; I != 64; ++I) {
        uint64_t Key = (I + uint64_t(T) * 7) % 32;
        if (auto Hit = C.lookup(Key))
          EXPECT_EQ(*Hit, "payload-" + std::to_string(Key));
        else
          C.store(Key, "payload-" + std::to_string(Key));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  // Every surviving entry must still read back intact.
  for (uint64_t Key = 0; Key != 32; ++Key)
    if (auto Hit = C.lookup(Key)) {
      EXPECT_EQ(*Hit, "payload-" + std::to_string(Key));
    }
}

TEST(ResultCache, DiskEntryIsWellFormedJson) {
  fs::path Dir = freshDir("rscache_format");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  ResultCache C(O);
  C.store(0xabc, "hello");
  std::string Text = readFile(Dir / ResultCache::entryFileName(0xabc));
  EXPECT_NE(Text.find("\"version\":1"), std::string::npos);
  EXPECT_NE(Text.find("\"key\":\"0000000000000abc\""), std::string::npos);
  EXPECT_NE(Text.find("\"payload\":\"hello\""), std::string::npos);
  // No temporary files left behind.
  size_t Entries = 0;
  for (const auto &E : fs::directory_iterator(Dir)) {
    (void)E;
    ++Entries;
  }
  EXPECT_EQ(Entries, 1u);
}

//===----------------------------------------------------------------------===//
// The binary blob layer (lookupBlob/storeBlob): length-framed envelopes
// for payloads that may contain any bytes, with their own hit/miss
// counters so report-cache accounting stays exact.
//===----------------------------------------------------------------------===//

namespace {

/// A payload no text format would survive: embedded NULs, every byte
/// value, no trailing newline.
std::string binaryPayload() {
  std::string P("snapshot\0bytes", 14); // Length-given: keeps the NUL.
  for (int I = 0; I != 256; ++I)
    P.push_back(static_cast<char>(I));
  return P;
}

} // namespace

TEST(ResultCacheBlob, MemoryRoundTripAndSeparateCounters) {
  ResultCache C;
  EXPECT_FALSE(C.lookupBlob(9).has_value());
  C.storeBlob(9, binaryPayload());
  auto Got = C.lookupBlob(9);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, binaryPayload());
  ResultCache::Stats S = C.stats();
  EXPECT_EQ(S.BlobHits, 1u);
  EXPECT_EQ(S.BlobMisses, 1u);
  // The JSON-entry counters are untouched by blob traffic.
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, 0u);
}

TEST(ResultCacheBlob, DiskRoundTripAcrossInstances) {
  fs::path Dir = freshDir("rscache_blob_disk");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache C(O);
    C.storeBlob(0x1234, binaryPayload());
  }
  ResultCache C(O); // Fresh instance: memory layer empty.
  auto Got = C.lookupBlob(0x1234);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, binaryPayload());
  ResultCache::Stats S = C.stats();
  EXPECT_EQ(S.BlobDiskHits, 1u);
  EXPECT_EQ(S.BlobHits, 1u);
  // Promoted into memory: the second lookup skips the disk.
  EXPECT_TRUE(C.lookupBlob(0x1234).has_value());
  EXPECT_EQ(C.stats().BlobDiskHits, 1u);
}

TEST(ResultCacheBlob, CorruptEnvelopeDegradesToMissAndIsDropped) {
  fs::path Dir = freshDir("rscache_blob_corrupt");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache C(O);
    C.storeBlob(7, binaryPayload());
  }
  fs::path File = Dir / ResultCache::blobFileName(7);
  ASSERT_TRUE(fs::exists(File));
  {
    // Flip one payload byte: the checksum must catch it.
    std::fstream F(File, std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(-1, std::ios::end);
    char Last = 0;
    F.seekg(-1, std::ios::end);
    F.get(Last);
    F.seekp(-1, std::ios::end);
    F.put(static_cast<char>(Last ^ 0x40));
  }
  ResultCache C(O);
  EXPECT_FALSE(C.lookupBlob(7).has_value());
  EXPECT_EQ(C.stats().CorruptEntries, 1u);
  EXPECT_EQ(C.stats().BlobMisses, 1u);
  EXPECT_FALSE(fs::exists(File)) << "corrupt blob not dropped";
}

TEST(ResultCacheBlob, TruncatedEnvelopeIsCorrupt) {
  fs::path Dir = freshDir("rscache_blob_trunc");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache C(O);
    C.storeBlob(8, binaryPayload());
  }
  fs::path File = Dir / ResultCache::blobFileName(8);
  std::string Bytes = readFile(File);
  {
    std::ofstream Out(File, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size() / 2));
  }
  ResultCache C(O);
  EXPECT_FALSE(C.lookupBlob(8).has_value());
  EXPECT_EQ(C.stats().CorruptEntries, 1u);
}

TEST(ResultCacheBlob, EnvelopeUnderWrongKeyIsRejected) {
  fs::path Dir = freshDir("rscache_blob_wrongkey");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache C(O);
    C.storeBlob(21, binaryPayload());
  }
  // Rename the entry to the file name of a different key: the embedded
  // key no longer matches and the entry must be rejected.
  fs::rename(Dir / ResultCache::blobFileName(21),
             Dir / ResultCache::blobFileName(22));
  ResultCache C(O);
  EXPECT_FALSE(C.lookupBlob(22).has_value());
  EXPECT_EQ(C.stats().CorruptEntries, 1u);
}

TEST(ResultCacheBlob, JsonAndBlobEntriesCoexistOnDisk) {
  fs::path Dir = freshDir("rscache_blob_coexist");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  ResultCache C(O);
  C.store(1, "json payload");
  C.storeBlob(2, binaryPayload());
  EXPECT_TRUE(fs::exists(Dir / ResultCache::entryFileName(1)));
  EXPECT_TRUE(fs::exists(Dir / ResultCache::blobFileName(2)));
  ResultCache Fresh(O);
  EXPECT_EQ(Fresh.lookup(1).value_or(""), "json payload");
  EXPECT_EQ(Fresh.lookupBlob(2).value_or(""), binaryPayload());
}

TEST(ResultCacheBlob, StoreFaultDisablesDiskLayerForBlobsToo) {
  fs::path Dir = freshDir("rscache_blob_fault");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  ResultCache C(O);
  {
    rs::fault::ScopedFault F("cache.disk.store", 1);
    C.storeBlob(5, "doomed");
  }
  EXPECT_TRUE(C.diskDisabled());
  EXPECT_EQ(C.stats().StoreErrors, 1u);
  // The memory layer still serves it.
  EXPECT_EQ(C.lookupBlob(5).value_or(""), "doomed");
  EXPECT_FALSE(fs::exists(Dir / ResultCache::blobFileName(5)));
}

//===----------------------------------------------------------------------===//
// The pack (openPack/writePack): the store of a bracketed run, a sequence
// of segments each run appends its new entries to. A pack hit counts as a
// disk hit; a defective pack is one corrupt count, a fall-through to the
// loose entries, and a compaction on the next write.
//===----------------------------------------------------------------------===//

namespace {

/// Report and blob entries with distinct payloads; report key 1 sorts
/// first in the pack, so its payload is the pack's first payload.
const std::vector<std::pair<uint64_t, std::string>> PackReports = {
    {1, "report one"}, {2, "report two"}, {3, "report three"}};
const std::vector<std::pair<uint64_t, std::string>> PackBlobs = {
    {10, binaryPayload()}, {11, "blob eleven"}};

/// Stores every pack entry as a loose entry through an instance that
/// never opens a pack, then folds them into the pack through a bracketed
/// instance that reads them, so both the loose entries and the pack (one
/// segment) hold them.
ResultCache::Options seedPackDir(const fs::path &Dir) {
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache Loose(O);
    for (const auto &[Key, Payload] : PackReports)
      Loose.store(Key, Payload);
    for (const auto &[Key, Payload] : PackBlobs)
      Loose.storeBlob(Key, Payload);
  }
  ResultCache C(O);
  C.openPack();
  for (const auto &[Key, Payload] : PackReports)
    EXPECT_TRUE(C.lookup(Key).has_value());
  for (const auto &[Key, Payload] : PackBlobs)
    EXPECT_TRUE(C.lookupBlobRef(Key).has_value());
  C.writePack();
  EXPECT_EQ(C.stats().PackWrites, 1u);
  return O;
}

/// The byte sizes of the pack's leading segments that carry a plausible
/// header (v2 layout: magic, version, then the segment size at byte 8).
std::vector<size_t> segmentSizes(const std::string &Pack) {
  std::vector<size_t> Sizes;
  for (size_t Base = 0; Pack.size() - Base >= 32;) {
    if (Pack.compare(Base, 4, "RSCP") != 0)
      break;
    uint64_t Size = 0;
    for (int I = 0; I != 8; ++I)
      Size |= uint64_t(static_cast<unsigned char>(Pack[Base + 8 + I]))
              << (8 * I);
    if (Size < 32 || Size > Pack.size() - Base)
      break;
    Sizes.push_back(Size);
    Base += Size;
  }
  return Sizes;
}

size_t looseEntriesIn(const fs::path &Dir) {
  size_t N = 0;
  for (const auto &E : fs::directory_iterator(Dir))
    N += E.path().filename().string().rfind("rscache-", 0) == 0;
  return N;
}

/// Looks up every pack entry (reports first, in key order) and checks the
/// payload bytes.
void expectAllEntries(ResultCache &C, const std::string &What) {
  for (const auto &[Key, Payload] : PackReports)
    EXPECT_EQ(C.lookup(Key).value_or("<miss>"), Payload) << What;
  for (const auto &[Key, Payload] : PackBlobs) {
    std::optional<ResultCache::BlobRef> Ref = C.lookupBlobRef(Key);
    ASSERT_TRUE(Ref.has_value()) << What;
    EXPECT_EQ(Ref->bytes(), Payload) << What;
  }
}

size_t tmpFilesIn(const fs::path &Dir) {
  size_t N = 0;
  for (const auto &E : fs::directory_iterator(Dir))
    N += E.path().filename().string().find(".tmp.") != std::string::npos;
  return N;
}

} // namespace

TEST(ResultCachePack, RoundTripServesEveryEntryFromThePack) {
  fs::path Dir = freshDir("rscache_pack_roundtrip");
  ResultCache::Options O = seedPackDir(Dir);
  ASSERT_TRUE(fs::exists(Dir / ResultCache::packFileName()));
  EXPECT_EQ(ResultCache::packFileName(), "rscache.pack");

  ResultCache C(O);
  C.openPack();
  expectAllEntries(C, "pack");
  // lookupBlob serves the pack too, and copies.
  EXPECT_EQ(C.lookupBlob(11).value_or("<miss>"), "blob eleven");
  ResultCache::Stats S = C.stats();
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.DiskHits, 3u);
  EXPECT_EQ(S.BlobHits, 3u);
  EXPECT_EQ(S.BlobDiskHits, 3u);
  EXPECT_EQ(S.PackHits, 6u);
  EXPECT_EQ(S.LooseReads, 0u);
  EXPECT_EQ(S.CorruptEntries, 0u);
  // Pack hits are not promoted into the memory layer.
  EXPECT_EQ(C.memoryEntryCount(), 0u);
  // Misses still fall through to the loose layer.
  EXPECT_FALSE(C.lookup(99).has_value());
  EXPECT_EQ(C.stats().LooseReads, 1u);
}

TEST(ResultCachePack, FullyWarmRerunDoesNotRewriteThePack) {
  fs::path Dir = freshDir("rscache_pack_warm");
  ResultCache::Options O = seedPackDir(Dir);
  const std::string Before = readFile(Dir / ResultCache::packFileName());
  ASSERT_EQ(segmentSizes(Before).size(), 1u);
  {
    ResultCache C(O);
    C.openPack();
    expectAllEntries(C, "warm");
    C.writePack();
    EXPECT_EQ(C.stats().PackWrites, 0u);
  }
  EXPECT_EQ(readFile(Dir / ResultCache::packFileName()), Before);

  // A run that serves only part of the pack and adds nothing leaves it as
  // it is too.
  {
    ResultCache C(O);
    C.openPack();
    EXPECT_TRUE(C.lookup(2).has_value());
    C.writePack();
    EXPECT_EQ(C.stats().PackWrites, 0u);
  }
  EXPECT_EQ(readFile(Dir / ResultCache::packFileName()), Before);

  // An entry the run read from the loose layer is new to the pack: it is
  // appended as one segment behind the untouched old bytes.
  ResultCache(O).store(4, "report four");
  {
    ResultCache C(O);
    C.openPack();
    expectAllEntries(C, "warm plus loose");
    EXPECT_EQ(C.lookup(4).value_or("<miss>"), "report four");
    ResultCache::Stats S = C.stats();
    EXPECT_EQ(S.PackHits, PackReports.size() + PackBlobs.size());
    EXPECT_EQ(S.LooseReads, 1u);
    C.writePack();
    EXPECT_EQ(C.stats().PackWrites, 1u);
    EXPECT_EQ(C.stats().PackCompactions, 0u);
  }
  const std::string After = readFile(Dir / ResultCache::packFileName());
  EXPECT_EQ(After.substr(0, Before.size()), Before);
  EXPECT_EQ(segmentSizes(After).size(), 2u);
  {
    ResultCache C(O);
    C.openPack();
    expectAllEntries(C, "appended");
    EXPECT_EQ(C.lookup(4).value_or("<miss>"), "report four");
    EXPECT_EQ(C.stats().LooseReads, 0u);
    C.writePack();
    EXPECT_EQ(C.stats().PackWrites, 0u);
  }
  EXPECT_EQ(readFile(Dir / ResultCache::packFileName()), After);
  EXPECT_EQ(tmpFilesIn(Dir), 0u);
}

TEST(ResultCachePack, EachDefectIsCountedOnceAndFallsThroughToLoose) {
  fs::path Seed = freshDir("rscache_pack_defect_seed");
  seedPackDir(Seed);
  const std::string Good = readFile(Seed / ResultCache::packFileName());
  ASSERT_EQ(segmentSizes(Good).size(), 1u);
  const size_t IndexStart = 32;
  const size_t FirstPayload =
      IndexStart + 40 * (PackReports.size() + PackBlobs.size());
  ASSERT_GT(Good.size(), FirstPayload);

  using DamageFn = std::function<std::string(std::string)>;
  auto Flip = [](size_t At) {
    return [At](std::string B) {
      B[At] = static_cast<char>(B[At] ^ 0x04);
      return B;
    };
  };
  std::vector<std::pair<const char *, DamageFn>> Damages = {
      {"bad magic", Flip(0)},
      {"version skew", Flip(4)},
      {"segment size skew", Flip(8 + 5)},
      {"truncated", [](std::string B) { return B.substr(0, B.size() - 1); }},
      {"truncated header", [](std::string B) { return B.substr(0, 10); }},
      {"index bit flip", Flip(IndexStart + 40 + 3)},
      // Report key 1's payload, looked up first: the checksum catches it
      // on that hit, before anything is served from the pack.
      {"payload bit flip", Flip(FirstPayload)},
  };
  for (const auto &[What, Damage] : Damages) {
    fs::path Dir = freshDir("rscache_pack_defect");
    fs::copy(Seed, Dir, fs::copy_options::recursive);
    std::ofstream(Dir / ResultCache::packFileName(),
                  std::ios::binary | std::ios::trunc)
        << Damage(Good);
    ResultCache::Options O;
    O.DiskDir = Dir.string();
    {
      ResultCache C(O);
      C.openPack();
      expectAllEntries(C, What);
      ResultCache::Stats S = C.stats();
      EXPECT_EQ(S.CorruptEntries, 1u) << What;
      EXPECT_EQ(S.PackHits, 0u) << What;
      EXPECT_EQ(S.LooseReads, PackReports.size() + PackBlobs.size()) << What;
      EXPECT_EQ(S.Misses + S.BlobMisses, 0u) << What;
      // The defective pack is replaced by a good one.
      C.writePack();
      EXPECT_EQ(C.stats().PackWrites, 1u) << What;
      EXPECT_EQ(C.stats().PackCompactions, 1u) << What;
    }
    EXPECT_EQ(readFile(Dir / ResultCache::packFileName()), Good) << What;
    ResultCache Again(O);
    Again.openPack();
    expectAllEntries(Again, What);
    EXPECT_EQ(Again.stats().PackHits, PackReports.size() + PackBlobs.size())
        << What;
    EXPECT_EQ(Again.stats().CorruptEntries, 0u) << What;
    EXPECT_EQ(tmpFilesIn(Dir), 0u) << What;
  }
}

TEST(ResultCachePack, InstanceWithoutOpenPackNeverReadsOrRecords) {
  fs::path Dir = freshDir("rscache_pack_unopened");
  ResultCache::Options O = seedPackDir(Dir);
  const std::string Before = readFile(Dir / ResultCache::packFileName());
  // Without the loose entries only the pack could serve a hit.
  fs::remove(Dir / ResultCache::entryFileName(1));
  fs::remove(Dir / ResultCache::blobFileName(10));

  ResultCache C(O);
  EXPECT_FALSE(C.lookup(1).has_value());
  EXPECT_FALSE(C.lookupBlobRef(10).has_value());
  EXPECT_TRUE(C.lookup(2).has_value());
  C.store(4, "never packed");
  C.writePack(); // No openPack(): nothing was recorded, nothing written.
  // Its store went to a loose entry instead.
  EXPECT_TRUE(fs::exists(Dir / ResultCache::entryFileName(4)));
  ResultCache::Stats S = C.stats();
  EXPECT_EQ(S.PackHits, 0u);
  EXPECT_EQ(S.PackWrites, 0u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.BlobMisses, 1u);
  EXPECT_EQ(readFile(Dir / ResultCache::packFileName()), Before);

  // A memory-only cache has no pack to open.
  ResultCache Mem;
  Mem.openPack();
  Mem.store(1, "x");
  Mem.writePack();
  EXPECT_EQ(Mem.stats().PackWrites, 0u);
  EXPECT_EQ(Mem.stats().StoreErrors, 0u);
}

TEST(ResultCachePack, WriteFailureTakesTheStoreErrorPath) {
  fs::path Dir = freshDir("rscache_pack_fault");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache Seed(O);
    Seed.store(1, "loose only");
  }
  ResultCache C(O);
  C.openPack();
  EXPECT_EQ(C.lookup(1).value_or("<miss>"), "loose only");
  {
    rs::fault::ScopedFault F("cache.disk.store", 1);
    C.writePack();
  }
  EXPECT_EQ(C.stats().StoreErrors, 1u);
  EXPECT_EQ(C.stats().PackWrites, 0u);
  EXPECT_TRUE(C.diskDisabled());
  EXPECT_FALSE(fs::exists(Dir / ResultCache::packFileName()));
  EXPECT_EQ(tmpFilesIn(Dir), 0u);
}

TEST(ResultCachePack, PackedStoresWriteNoLooseEntries) {
  fs::path Dir = freshDir("rscache_pack_store");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache C(O);
    C.openPack();
    C.store(1, "report one");
    C.storeBlob(10, binaryPayload());
    // Served from memory within the run.
    EXPECT_EQ(C.lookup(1).value_or("<miss>"), "report one");
    EXPECT_EQ(looseEntriesIn(Dir), 0u);
    C.writePack();
    EXPECT_EQ(C.stats().PackWrites, 1u);
    EXPECT_EQ(C.stats().StoreErrors, 0u);
  }
  EXPECT_EQ(looseEntriesIn(Dir), 0u);
  EXPECT_EQ(segmentSizes(readFile(Dir / ResultCache::packFileName())).size(),
            1u);
  // Only a packed run finds them.
  ResultCache Loose(O);
  EXPECT_FALSE(Loose.lookup(1).has_value());
  ResultCache Packed(O);
  Packed.openPack();
  EXPECT_EQ(Packed.lookup(1).value_or("<miss>"), "report one");
  EXPECT_EQ(Packed.lookupBlob(10).value_or("<miss>"), binaryPayload());
  EXPECT_EQ(Packed.stats().PackHits, 2u);
}

TEST(ResultCachePack, NewestSegmentWinsAKey) {
  fs::path Dir = freshDir("rscache_pack_newest");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  const std::string Big(200, 'b');
  {
    ResultCache C(O);
    C.openPack();
    C.store(1, "old");
    C.store(2, Big);
    C.writePack();
  }
  {
    // The rewrite of key 1 is appended; the older segment keeps its bytes.
    ResultCache C(O);
    C.openPack();
    EXPECT_EQ(C.lookup(2).value_or("<miss>"), Big);
    C.store(1, "new");
    C.writePack();
    EXPECT_EQ(C.stats().PackCompactions, 0u);
  }
  EXPECT_EQ(segmentSizes(readFile(Dir / ResultCache::packFileName())).size(),
            2u);
  ResultCache C(O);
  C.openPack();
  EXPECT_EQ(C.lookup(1).value_or("<miss>"), "new");
  EXPECT_EQ(C.lookup(2).value_or("<miss>"), Big);
  EXPECT_EQ(C.stats().PackHits, 2u);
  EXPECT_EQ(C.stats().CorruptEntries, 0u);
}

TEST(ResultCachePack, TornLastSegmentServesThePrefix) {
  fs::path Seed = freshDir("rscache_pack_torn_seed");
  ResultCache::Options SO;
  SO.DiskDir = Seed.string();
  const std::string Big(300, 'p');
  {
    ResultCache C(SO);
    C.openPack();
    C.store(1, Big);
    C.storeBlob(2, binaryPayload());
    C.writePack();
  }
  {
    ResultCache C(SO);
    C.openPack();
    EXPECT_TRUE(C.lookup(1).has_value());
    EXPECT_TRUE(C.lookupBlobRef(2).has_value());
    C.store(3, "in the torn segment");
    C.writePack();
    EXPECT_EQ(C.stats().PackCompactions, 0u);
  }
  const std::string Full = readFile(Seed / ResultCache::packFileName());
  std::vector<size_t> Sizes = segmentSizes(Full);
  ASSERT_EQ(Sizes.size(), 2u);

  // Every cut inside the last segment, as a killed or short append leaves.
  for (size_t Cut = 1; Cut != Sizes[1]; ++Cut) {
    fs::path Dir = freshDir("rscache_pack_torn");
    ResultCache::Options O;
    O.DiskDir = Dir.string();
    std::ofstream(Dir / ResultCache::packFileName(),
                  std::ios::binary | std::ios::trunc)
        << Full.substr(0, Sizes[0] + Cut);
    {
      ResultCache C(O);
      C.openPack();
      EXPECT_EQ(C.lookup(1).value_or("<miss>"), Big) << Cut;
      EXPECT_EQ(C.lookupBlob(2).value_or("<miss>"), binaryPayload()) << Cut;
      EXPECT_FALSE(C.lookup(3).has_value()) << Cut;
      ResultCache::Stats S = C.stats();
      EXPECT_EQ(S.PackHits, 2u) << Cut;
      EXPECT_EQ(S.CorruptEntries, 1u) << Cut;
      C.writePack(); // Nothing new, but the defect compacts.
      EXPECT_EQ(C.stats().PackCompactions, 1u) << Cut;
    }
    // The valid prefix rewritten as one segment: the same entries, so the
    // same size; only their generation moves on.
    const std::string Compacted = readFile(Dir / ResultCache::packFileName());
    EXPECT_EQ(segmentSizes(Compacted), std::vector<size_t>{Sizes[0]}) << Cut;
    ResultCache Again(O);
    Again.openPack();
    EXPECT_EQ(Again.lookup(1).value_or("<miss>"), Big) << Cut;
    EXPECT_EQ(Again.lookupBlob(2).value_or("<miss>"), binaryPayload()) << Cut;
    EXPECT_FALSE(Again.lookup(3).has_value()) << Cut;
    EXPECT_EQ(Again.stats().PackHits, 2u) << Cut;
    EXPECT_EQ(Again.stats().CorruptEntries, 0u) << Cut;
  }
}

TEST(ResultCachePack, CompactsAtTheSegmentBound) {
  fs::path Dir = freshDir("rscache_pack_bound");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  const size_t Bound = ResultCache::MaxPackSegments;
  // Each run serves every earlier entry and adds one; only the segment
  // count forces a compaction.
  for (uint64_t Run = 1; Run <= Bound + 1; ++Run) {
    ResultCache C(O);
    C.openPack();
    for (uint64_t Key = 1; Key < Run; ++Key)
      EXPECT_EQ(C.lookup(Key).value_or("<miss>"), "entry") << Run;
    EXPECT_EQ(C.stats().PackHits, Run - 1);
    C.store(Run, "entry");
    C.writePack();
    ResultCache::Stats S = C.stats();
    EXPECT_EQ(S.PackWrites, 1u) << Run;
    EXPECT_EQ(S.PackCompactions, Run == Bound + 1 ? 1u : 0u) << Run;
    std::vector<size_t> Sizes =
        segmentSizes(readFile(Dir / ResultCache::packFileName()));
    EXPECT_EQ(Sizes.size(), Run == Bound + 1 ? 1u : Run) << Run;
  }
  ResultCache C(O);
  C.openPack();
  for (uint64_t Key = 1; Key <= Bound + 1; ++Key)
    EXPECT_EQ(C.lookup(Key).value_or("<miss>"), "entry") << Key;
  EXPECT_EQ(C.stats().PackHits, Bound + 1);
}

TEST(ResultCachePack, SubsetRunsKeepTheEntriesTheyDidNotUse) {
  fs::path Dir = freshDir("rscache_pack_subset");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  const std::string P(100, 'x');
  {
    ResultCache C(O);
    C.openPack();
    for (uint64_t Key = 1; Key <= 4; ++Key)
      C.store(Key, P);
    C.writePack();
  }
  // Runs that use one entry and add one, up to and through the write that
  // compacts at the segment bound.
  for (uint64_t Run = 1; Run <= ResultCache::MaxPackSegments; ++Run) {
    ResultCache C(O);
    C.openPack();
    EXPECT_TRUE(C.lookup(1).has_value()) << Run;
    C.store(100 + Run, "subset");
    C.writePack();
    EXPECT_EQ(C.stats().PackCompactions,
              Run == ResultCache::MaxPackSegments ? 1u : 0u)
        << Run;
  }
  EXPECT_EQ(segmentSizes(readFile(Dir / ResultCache::packFileName())).size(),
            1u);
  // The whole set is still served from the pack.
  ResultCache C(O);
  C.openPack();
  for (uint64_t Key = 1; Key <= 4; ++Key)
    EXPECT_EQ(C.lookup(Key).value_or("<miss>"), P) << Key;
  for (uint64_t Run = 1; Run <= ResultCache::MaxPackSegments; ++Run)
    EXPECT_EQ(C.lookup(100 + Run).value_or("<miss>"), "subset") << Run;
  ResultCache::Stats S = C.stats();
  EXPECT_EQ(S.PackHits, 4u + ResultCache::MaxPackSegments);
  EXPECT_EQ(S.LooseReads, 0u);
}

TEST(ResultCachePack, CompactionDropsEntriesNoRecentWriteWrote) {
  fs::path Dir = freshDir("rscache_pack_retain");
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  {
    ResultCache C(O);
    C.openPack();
    C.store(1, "first write");
    C.writePack();
  }
  // Write W stores only key 1000 + W. Key 1, written by write 1, goes at
  // the first compaction past PackRetainWrites writes; key 1002, written
  // by write 2, is young enough to outlive that compaction.
  const uint32_t Last =
      ResultCache::PackRetainWrites + ResultCache::MaxPackSegments;
  bool Gone = false;
  for (uint32_t W = 2; W <= Last; ++W) {
    {
      ResultCache C(O);
      C.openPack();
      C.store(1000 + W, "later write");
      C.writePack();
      if (C.stats().PackCompactions != 0 &&
          W - 1 >= ResultCache::PackRetainWrites)
        Gone = true;
    }
    ResultCache Reader(O);
    Reader.openPack();
    EXPECT_EQ(Reader.lookup(1).has_value(), !Gone) << W;
    EXPECT_TRUE(Reader.lookup(1002).has_value()) << W;
    EXPECT_EQ(Reader.stats().CorruptEntries, 0u) << W;
  }
  EXPECT_TRUE(Gone);
}
