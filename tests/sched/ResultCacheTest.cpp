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
// The pack (openPack/writePack): one file holding the working set of the
// last bracketed run. A pack hit counts as a disk hit; a defective pack is
// one corrupt count and a fall-through to the loose entries.
//===----------------------------------------------------------------------===//

namespace {

/// Report and blob entries with distinct payloads; report key 1 sorts
/// first in the pack, so its payload is the pack's first payload.
const std::vector<std::pair<uint64_t, std::string>> PackReports = {
    {1, "report one"}, {2, "report two"}, {3, "report three"}};
const std::vector<std::pair<uint64_t, std::string>> PackBlobs = {
    {10, binaryPayload()}, {11, "blob eleven"}};

/// Stores every pack entry through a bracketed instance, so both the
/// loose entries and the pack hold them.
ResultCache::Options seedPackDir(const fs::path &Dir) {
  ResultCache::Options O;
  O.DiskDir = Dir.string();
  ResultCache C(O);
  C.openPack();
  for (const auto &[Key, Payload] : PackReports)
    C.store(Key, Payload);
  for (const auto &[Key, Payload] : PackBlobs)
    C.storeBlob(Key, Payload);
  C.writePack();
  EXPECT_EQ(C.stats().PackWrites, 1u);
  return O;
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
  {
    ResultCache C(O);
    C.openPack();
    expectAllEntries(C, "warm");
    C.writePack();
    EXPECT_EQ(C.stats().PackWrites, 0u);
  }
  EXPECT_EQ(readFile(Dir / ResultCache::packFileName()), Before);

  // A run that serves only part of the pack rewrites it to that part.
  {
    ResultCache C(O);
    C.openPack();
    EXPECT_TRUE(C.lookup(2).has_value());
    C.writePack();
    EXPECT_EQ(C.stats().PackWrites, 1u);
  }
  {
    ResultCache C(O);
    C.openPack();
    EXPECT_TRUE(C.lookup(2).has_value());
    EXPECT_TRUE(C.lookup(1).has_value()); // From the loose entry.
    ResultCache::Stats S = C.stats();
    EXPECT_EQ(S.PackHits, 1u);
    EXPECT_EQ(S.LooseReads, 1u);
    C.writePack(); // Key 1 came from the loose layer: rewritten.
    EXPECT_EQ(C.stats().PackWrites, 1u);
  }
  EXPECT_EQ(tmpFilesIn(Dir), 0u);
}

TEST(ResultCachePack, EachDefectIsCountedOnceAndFallsThroughToLoose) {
  fs::path Seed = freshDir("rscache_pack_defect_seed");
  seedPackDir(Seed);
  const std::string Good = readFile(Seed / ResultCache::packFileName());
  const size_t IndexStart = 24;
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
