#include "sched/ResultCache.h"

#include "support/FaultInjection.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace fs = std::filesystem;

using namespace rs;
using namespace rs::sched;

ResultCache::ResultCache() : ResultCache(Options{}) {}

ResultCache::ResultCache(Options O) : Opts(std::move(O)) {}

std::string ResultCache::entryFileName(uint64_t Key) {
  return "rscache-" + hashToHex(Key) + ".json";
}

std::string ResultCache::blobFileName(uint64_t Key) {
  return "rscache-" + hashToHex(Key) + ".bin";
}

std::string ResultCache::packFileName() { return "rscache.pack"; }

std::optional<std::string> ResultCache::lookup(uint64_t Key) {
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Index.find(Key);
    if (It != Index.end()) {
      Lru.splice(Lru.begin(), Lru, It->second); // Touch: move to front.
      ++Counters.Hits;
      recordLocked(Key, EntryKind::Report, It->second->second,
                   /*FromPack=*/false);
      return It->second->second;
    }
    if (std::optional<std::string_view> P =
            packLookupLocked(Key, EntryKind::Report)) {
      ++Counters.Hits;
      ++Counters.DiskHits;
      return std::string(*P);
    }
  }
  if (!Opts.DiskDir.empty() && !diskDisabled()) {
    if (std::optional<std::string> Payload = loadFromDisk(Key)) {
      std::lock_guard<std::mutex> Lock(M);
      ++Counters.Hits;
      ++Counters.DiskHits;
      recordLocked(Key, EntryKind::Report, *Payload, /*FromPack=*/false);
      insertMemory(Key, *Payload);
      return Payload;
    }
  }
  std::lock_guard<std::mutex> Lock(M);
  ++Counters.Misses;
  return std::nullopt;
}

void ResultCache::store(uint64_t Key, std::string_view Payload) {
  {
    std::lock_guard<std::mutex> Lock(M);
    recordLocked(Key, EntryKind::Report, Payload, /*FromPack=*/false);
    insertMemory(Key, std::string(Payload));
  }
  if (!Opts.DiskDir.empty() && !diskDisabled())
    storeToDisk(Key, Payload);
}

std::optional<std::string> ResultCache::lookupBlob(uint64_t Key) {
  std::optional<BlobRef> Ref = lookupBlobImpl(Key, /*PromoteDiskHit=*/true);
  if (!Ref)
    return std::nullopt;
  return std::string(Ref->bytes());
}

std::optional<ResultCache::BlobRef> ResultCache::lookupBlobRef(uint64_t Key) {
  return lookupBlobImpl(Key, /*PromoteDiskHit=*/false);
}

std::optional<ResultCache::BlobRef>
ResultCache::lookupBlobImpl(uint64_t Key, bool PromoteDiskHit) {
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Index.find(Key);
    if (It != Index.end()) {
      Lru.splice(Lru.begin(), Lru, It->second);
      ++Counters.BlobHits;
      recordLocked(Key, EntryKind::Blob, It->second->second,
                   /*FromPack=*/false);
      BlobRef R;
      R.Owned = It->second->second; // Copy: the LRU entry may be evicted.
      R.Len = R.Owned.size();
      return R;
    }
    if (std::optional<std::string_view> P =
            packLookupLocked(Key, EntryKind::Blob)) {
      ++Counters.BlobHits;
      ++Counters.BlobDiskHits;
      BlobRef R;
      R.Pack = PackBuf;
      R.Off = static_cast<size_t>(P->data() - PackBuf->data());
      R.Len = P->size();
      return R;
    }
  }
  if (!Opts.DiskDir.empty() && !diskDisabled()) {
    if (std::optional<BlobRef> Ref = loadBlobFromDisk(Key)) {
      std::lock_guard<std::mutex> Lock(M);
      ++Counters.BlobHits;
      ++Counters.BlobDiskHits;
      recordLocked(Key, EntryKind::Blob, Ref->bytes(), /*FromPack=*/false);
      if (PromoteDiskHit)
        insertMemory(Key, std::string(Ref->bytes()));
      return Ref;
    }
  }
  std::lock_guard<std::mutex> Lock(M);
  ++Counters.BlobMisses;
  return std::nullopt;
}

void ResultCache::storeBlob(uint64_t Key, std::string_view Payload) {
  {
    std::lock_guard<std::mutex> Lock(M);
    recordLocked(Key, EntryKind::Blob, Payload, /*FromPack=*/false);
    insertMemory(Key, std::string(Payload));
  }
  if (!Opts.DiskDir.empty() && !diskDisabled())
    storeBlobToDisk(Key, Payload);
}

bool ResultCache::diskDisabled() const {
  std::lock_guard<std::mutex> Lock(M);
  return DiskDisabledFlag;
}

void ResultCache::clearMemory() {
  std::lock_guard<std::mutex> Lock(M);
  Lru.clear();
  Index.clear();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return Counters;
}

size_t ResultCache::memoryEntryCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Index.size();
}

/// Caller holds the mutex.
void ResultCache::insertMemory(uint64_t Key, std::string Payload) {
  auto It = Index.find(Key);
  if (It != Index.end()) {
    It->second->second = std::move(Payload);
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Lru.emplace_front(Key, std::move(Payload));
  Index[Key] = Lru.begin();
  while (Opts.MaxMemoryEntries != 0 && Index.size() > Opts.MaxMemoryEntries) {
    Index.erase(Lru.back().first);
    Lru.pop_back();
    ++Counters.Evictions;
  }
}

std::optional<std::string> ResultCache::loadFromDisk(uint64_t Key) {
  fs::path Path = fs::path(Opts.DiskDir) / entryFileName(Key);
  {
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.LooseReads;
  }
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt; // Absent: a plain miss, not corruption.
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Text = Buf.str();

  // Any defect from here on is corruption: count it, drop the entry so the
  // next run does not pay the parse again, and miss.
  auto Corrupt = [&]() -> std::optional<std::string> {
    {
      std::lock_guard<std::mutex> Lock(M);
      ++Counters.CorruptEntries;
    }
    std::error_code Ec;
    fs::remove(Path, Ec); // Best-effort.
    return std::nullopt;
  };

  std::optional<JsonValue> Doc = JsonValue::parse(Text);
  if (!Doc || !Doc->isObject())
    return Corrupt();
  if (Doc->getInt("version", -1) != DiskFormatVersion)
    return Corrupt();
  uint64_t StoredKey = 0;
  if (!hexToHash(Doc->getString("key"), StoredKey) || StoredKey != Key)
    return Corrupt();
  const JsonValue *Payload = Doc->get("payload");
  if (!Payload || !Payload->isString())
    return Corrupt();
  return Payload->asString();
}

/// Writes \p Contents to DiskDir/FileName via a temporary + atomic rename.
/// Returns false on any failure (the caller records it); one write failure
/// disables the layer for the rest of the run — a full disk or revoked
/// permission would otherwise fail identically for every file, and a cache
/// must never turn a sick filesystem into per-file latency. The warning
/// prints exactly once, on the transition.
bool ResultCache::writeDiskFile(const std::string &FileName,
                                std::string_view Contents) {
  std::error_code Ec;
  fs::create_directories(Opts.DiskDir, Ec);

  // Unique-enough temporary name per writer (pid + thread), then an atomic
  // rename: concurrent writers of the same key race benignly because both
  // wrote identical content for identical keys.
  fs::path Final = fs::path(Opts.DiskDir) / FileName;
  std::string Suffix =
      ".tmp." + std::to_string(::getpid()) + "." +
      hashToHex(std::hash<std::thread::id>()(std::this_thread::get_id()));
  fs::path Tmp = Final;
  Tmp += Suffix;

  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(Contents.data(),
              static_cast<std::streamsize>(Contents.size()));
    Out.flush();
    if (!Out) {
      Out.close();
      fs::remove(Tmp, Ec);
      return false;
    }
  }
  fs::rename(Tmp, Final, Ec);
  if (Ec) {
    fs::remove(Tmp, Ec);
    return false;
  }
  return true;
}

namespace {

/// Little-endian fixed-width fields for the blob envelope.
void putU32LE(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putU64LE(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

uint32_t getU32LE(const char *P) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(static_cast<uint8_t>(P[I])) << (8 * I);
  return V;
}

uint64_t getU64LE(const char *P) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(static_cast<uint8_t>(P[I])) << (8 * I);
  return V;
}

constexpr char BlobMagic[4] = {'R', 'S', 'C', 'B'};
constexpr size_t BlobHeaderSize = 4 + 4 + 8 + 8 + 8;

// The pack: header (magic, version, entry count, index checksum), then
// one index record per entry (key, kind, payload offset, payload length,
// payload checksum) sorted by (key, kind), then the payloads. Every
// multi-byte field is little-endian; the checksums are hashCanonicalBytes.
constexpr char PackMagic[4] = {'R', 'S', 'C', 'P'};
constexpr size_t PackHeaderSize = 4 + 4 + 8 + 8;
constexpr size_t PackRecordSize = 5 * 8;

} // namespace

/// Counts a failed disk write; the first one disables the disk layer and
/// prints the run's one warning.
void ResultCache::recordStoreFailure() {
  bool WarnNow = false;
  {
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.StoreErrors;
    if (!DiskDisabledFlag) {
      DiskDisabledFlag = true;
      WarnNow = true;
    }
  }
  if (WarnNow)
    std::fprintf(stderr,
                 "rustsight: warning: cannot write result cache entry "
                 "under '%s'; disk cache layer disabled for the rest of "
                 "this run (in-memory layer unaffected)\n",
                 Opts.DiskDir.c_str());
}

void ResultCache::storeToDisk(uint64_t Key, std::string_view Payload) {
  if (fault::shouldFail("cache.disk.store")) {
    recordStoreFailure();
    return;
  }

  JsonWriter W;
  W.beginObject();
  W.field("version", DiskFormatVersion);
  W.field("key", hashToHex(Key));
  W.field("payload", Payload);
  W.endObject();

  if (!writeDiskFile(entryFileName(Key), W.str()))
    recordStoreFailure();
}

void ResultCache::storeBlobToDisk(uint64_t Key, std::string_view Payload) {
  if (fault::shouldFail("cache.disk.store")) {
    recordStoreFailure();
    return;
  }

  std::string Envelope;
  Envelope.reserve(BlobHeaderSize + Payload.size());
  Envelope.append(BlobMagic, 4);
  putU32LE(Envelope, DiskBlobFormatVersion);
  putU64LE(Envelope, Key);
  putU64LE(Envelope, Payload.size());
  putU64LE(Envelope, fnv1a64(Payload));
  Envelope.append(Payload.data(), Payload.size());

  if (!writeDiskFile(blobFileName(Key), Envelope))
    recordStoreFailure();
}

std::optional<ResultCache::BlobRef> ResultCache::loadBlobFromDisk(
    uint64_t Key) {
  fs::path Path = fs::path(Opts.DiskDir) / blobFileName(Key);
  {
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.LooseReads;
  }

  // Map the envelope when possible: validation reads straight from the
  // page cache and the returned view borrows the mapping, so the payload
  // never takes a heap copy. When mmap refuses (or the "support.mmap"
  // fault probe fires) fall back to a buffered read — byte-for-byte the
  // same validation on an owned buffer.
  BlobRef Ref;
  if (std::optional<MappedFile> Map = MappedFile::open(Path.string())) {
    Ref.Map = std::move(*Map);
  } else {
    std::ifstream In(Path, std::ios::binary);
    if (!In)
      return std::nullopt; // Absent: a plain miss, not corruption.
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Ref.Owned = Buf.str();
  }
  std::string_view Bytes = Ref.Map ? Ref.Map.view()
                                   : std::string_view(Ref.Owned);

  auto Corrupt = [&]() -> std::optional<BlobRef> {
    {
      std::lock_guard<std::mutex> Lock(M);
      ++Counters.CorruptEntries;
    }
    std::error_code Ec;
    fs::remove(Path, Ec); // Best-effort.
    return std::nullopt;
  };

  if (Bytes.size() < BlobHeaderSize ||
      std::memcmp(Bytes.data(), BlobMagic, 4) != 0)
    return Corrupt();
  const char *P = Bytes.data() + 4;
  uint32_t Version = getU32LE(P);
  uint64_t StoredKey = getU64LE(P + 4);
  uint64_t Size = getU64LE(P + 12);
  uint64_t Checksum = getU64LE(P + 20);
  if (Version != DiskBlobFormatVersion || StoredKey != Key)
    return Corrupt();
  std::string_view Payload = Bytes.substr(BlobHeaderSize);
  if (Payload.size() != Size || fnv1a64(Payload) != Checksum)
    return Corrupt();
  Ref.Off = BlobHeaderSize;
  Ref.Len = Payload.size();
  return Ref;
}

//===----------------------------------------------------------------------===//
// The pack
//===----------------------------------------------------------------------===//

/// Caller holds the mutex.
void ResultCache::resetPackLocked() {
  Recording = false;
  PackDirty = false;
  Working.clear();
  PackIndex.clear();
  PackBuf.reset();
}

/// Caller holds the mutex. Entries already served from the pack passed
/// their own checksum, so they stay recorded, as copies.
void ResultCache::packDefectLocked() {
  ++Counters.CorruptEntries;
  PackDirty = true;
  for (auto &[Id, E] : Working)
    if (E.FromPack) {
      E.Copy = std::string(E.PackBytes);
      E.FromPack = false;
    }
  PackIndex.clear();
  PackBuf.reset();
}

/// Caller holds the mutex.
void ResultCache::recordLocked(uint64_t Key, EntryKind Kind,
                               std::string_view Bytes, bool FromPack) {
  if (!Recording)
    return;
  WorkingEntry &E = Working[{Key, Kind}];
  E.FromPack = FromPack;
  if (FromPack) {
    E.PackBytes = Bytes;
    E.Copy.clear();
  } else {
    E.Copy = std::string(Bytes);
    PackDirty = true;
  }
}

/// Caller holds the mutex. A hit is counted in PackHits and recorded; the
/// caller counts it as a disk hit of its kind.
std::optional<std::string_view>
ResultCache::packLookupLocked(uint64_t Key, EntryKind Kind) {
  if (!PackBuf || DiskDisabledFlag)
    return std::nullopt;
  auto It = std::lower_bound(
      PackIndex.begin(), PackIndex.end(), std::make_pair(Key, Kind),
      [](const PackSlot &S, const std::pair<uint64_t, EntryKind> &Id) {
        return std::make_pair(S.Key, S.Kind) < Id;
      });
  if (It == PackIndex.end() || It->Key != Key || It->Kind != Kind)
    return std::nullopt;
  if (hashCanonicalBytes(It->Payload) != It->Checksum) {
    packDefectLocked();
    return std::nullopt;
  }
  std::string_view Payload = It->Payload;
  ++Counters.PackHits;
  recordLocked(Key, Kind, Payload, /*FromPack=*/true);
  return Payload;
}

void ResultCache::openPack() {
  std::lock_guard<std::mutex> Lock(M);
  resetPackLocked();
  if (Opts.DiskDir.empty() || DiskDisabledFlag)
    return;
  Recording = true;

  std::string Path = (fs::path(Opts.DiskDir) / packFileName()).string();
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return; // Absent: nothing to accelerate, not corruption.
  auto Buf = std::make_shared<std::string>();
  struct stat St;
  bool ReadOk = ::fstat(Fd, &St) == 0 && S_ISREG(St.st_mode);
  if (ReadOk) {
    Buf->resize(static_cast<size_t>(St.st_size));
    size_t Got = 0;
    while (Got < Buf->size()) {
      ssize_t N = ::read(Fd, Buf->data() + Got, Buf->size() - Got);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        break; // Shrunk under us: validation sees the truncation.
      Got += static_cast<size_t>(N);
    }
    Buf->resize(Got);
  }
  ::close(Fd);

  std::string_view Bytes(*Buf);
  auto Valid = [&] {
    if (!ReadOk || Bytes.size() < PackHeaderSize ||
        std::memcmp(Bytes.data(), PackMagic, 4) != 0)
      return false;
    const char *P = Bytes.data() + 4;
    uint32_t Version = getU32LE(P);
    uint64_t Count = getU64LE(P + 4);
    uint64_t IndexChecksum = getU64LE(P + 12);
    if (Version != PackFormatVersion ||
        Count > (Bytes.size() - PackHeaderSize) / PackRecordSize)
      return false;
    const size_t PayloadStart = PackHeaderSize + Count * PackRecordSize;
    std::string_view IndexBytes =
        Bytes.substr(PackHeaderSize, PayloadStart - PackHeaderSize);
    if (hashCanonicalBytes(IndexBytes) != IndexChecksum)
      return false;
    PackIndex.reserve(Count);
    for (uint64_t I = 0; I != Count; ++I) {
      const char *R = IndexBytes.data() + I * PackRecordSize;
      uint64_t Key = getU64LE(R);
      uint64_t Kind = getU64LE(R + 8);
      uint64_t Off = getU64LE(R + 16);
      uint64_t Len = getU64LE(R + 24);
      if (Kind > uint64_t(EntryKind::Blob) || Off < PayloadStart ||
          Off > Bytes.size() || Len > Bytes.size() - Off)
        return false;
      PackSlot S{Key, EntryKind(Kind), Bytes.substr(Off, Len),
                 getU64LE(R + 32)};
      if (!PackIndex.empty() && std::make_pair(PackIndex.back().Key,
                                               PackIndex.back().Kind) >=
                                    std::make_pair(S.Key, S.Kind))
        return false;
      PackIndex.push_back(S);
    }
    return true;
  };
  if (!Valid()) {
    PackIndex.clear();
    ++Counters.CorruptEntries;
    PackDirty = true; // Rewrite it even if nothing else changes.
    return;
  }
  PackBuf = std::move(Buf);
}

void ResultCache::writePack() {
  std::string Pack;
  {
    std::lock_guard<std::mutex> Lock(M);
    bool Unchanged = !PackDirty && Working.size() == PackIndex.size();
    if (!Recording || Unchanged || DiskDisabledFlag) {
      resetPackLocked();
      return;
    }
    std::string Index;
    size_t Offset = PackHeaderSize + Working.size() * PackRecordSize;
    for (const auto &[Id, E] : Working) {
      std::string_view Bytes = E.bytes();
      putU64LE(Index, Id.first);
      putU64LE(Index, static_cast<uint64_t>(Id.second));
      putU64LE(Index, Offset);
      putU64LE(Index, Bytes.size());
      putU64LE(Index, hashCanonicalBytes(Bytes));
      Offset += Bytes.size();
    }
    Pack.reserve(Offset);
    Pack.append(PackMagic, 4);
    putU32LE(Pack, PackFormatVersion);
    putU64LE(Pack, Working.size());
    putU64LE(Pack, hashCanonicalBytes(Index));
    Pack += Index;
    for (const auto &[Id, E] : Working)
      Pack += E.bytes();
    resetPackLocked();
  }
  if (fault::shouldFail("cache.disk.store") ||
      !writeDiskFile(packFileName(), Pack)) {
    recordStoreFailure();
    return;
  }
  std::lock_guard<std::mutex> Lock(M);
  ++Counters.PackWrites;
}
