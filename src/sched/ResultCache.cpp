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
      recordLocked(Key, EntryKind::Report, It->second->second);
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
      recordLocked(Key, EntryKind::Report, *Payload);
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
    recordLocked(Key, EntryKind::Report, Payload);
    insertMemory(Key, std::string(Payload));
    if (Recording)
      return; // The pack is the run's store: writePack() writes it.
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
      recordLocked(Key, EntryKind::Blob, It->second->second);
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
      recordLocked(Key, EntryKind::Blob, Ref->bytes());
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
    recordLocked(Key, EntryKind::Blob, Payload);
    insertMemory(Key, std::string(Payload));
    if (Recording)
      return; // The pack is the run's store: writePack() writes it.
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

/// Appends \p Contents to DiskDir/FileName (created if missing) with one
/// O_APPEND write, so concurrent appenders never interleave within it. A
/// short write leaves a torn tail, which the next reader detects; it is
/// reported as a failure, like any other write error.
bool ResultCache::appendDiskFile(const std::string &FileName,
                                 std::string_view Contents) {
  std::error_code Ec;
  fs::create_directories(Opts.DiskDir, Ec);
  std::string Path = (fs::path(Opts.DiskDir) / FileName).string();
  int Fd = ::open(Path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                  0644);
  if (Fd < 0)
    return false;
  ssize_t N;
  do
    N = ::write(Fd, Contents.data(), Contents.size());
  while (N < 0 && errno == EINTR);
  bool Ok = ::close(Fd) == 0 && N == static_cast<ssize_t>(Contents.size());
  return Ok;
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

// The pack: a sequence of segments. A segment is a header (magic,
// version, segment byte size, entry count, index checksum), one index
// record per entry (key, kind as 32 bits, generation as 32 bits, payload
// offset, payload length, payload checksum) sorted by (key, kind), then
// the payloads; offsets count from the segment's first byte. Every
// multi-byte field is little-endian. The payload checksums are
// hashCanonicalBytes; the index checksum is that of the index folded with
// the segment size.
constexpr char PackMagic[4] = {'R', 'S', 'C', 'P'};
constexpr size_t SegmentHeaderSize = 4 + 4 + 8 + 8 + 8;
constexpr size_t PackRecordSize = 5 * 8;

uint64_t segmentIndexChecksum(std::string_view Index, uint64_t SegmentSize) {
  return fnv1a64U64(SegmentSize, hashCanonicalBytes(Index));
}

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
  PackDefective = false;
  Working.clear();
  PackIndex.clear();
  PackSegments = 0;
  PackGeneration = 0;
  PackBuf.reset();
}

/// Caller holds the mutex. Entries already served from the pack passed
/// their own checksum, so they stay recorded, as copies; nothing else of
/// the pack survives, its generations included.
void ResultCache::packDefectLocked() {
  ++Counters.CorruptEntries;
  PackDefective = true;
  for (auto &[Id, E] : Working)
    if (E.FromPack) {
      E.Copy = std::string(E.PackBytes);
      E.FromPack = false;
    }
  PackIndex.clear();
  PackGeneration = 0;
  PackBuf.reset();
}

/// Caller holds the mutex. \p FromPack is the pack slot that served
/// \p Bytes (its checksum verified), or null for bytes from anywhere else.
void ResultCache::recordLocked(uint64_t Key, EntryKind Kind,
                               std::string_view Bytes,
                               const PackSlot *FromPack) {
  if (!Recording)
    return;
  WorkingEntry &E = Working[{Key, Kind}];
  E.FromPack = FromPack != nullptr;
  if (FromPack) {
    E.PackBytes = Bytes;
    E.Checksum = FromPack->Checksum;
    E.Copy.clear();
  } else {
    E.Copy = std::string(Bytes);
  }
}

/// Caller holds the mutex. The pack's live entry for (Key, Kind), unverified.
const ResultCache::PackSlot *ResultCache::packSlotLocked(uint64_t Key,
                                                         EntryKind Kind) const {
  if (!PackBuf)
    return nullptr;
  auto It = std::lower_bound(
      PackIndex.begin(), PackIndex.end(), std::make_pair(Key, Kind),
      [](const PackSlot &S, const std::pair<uint64_t, EntryKind> &Id) {
        return std::make_pair(S.Key, S.Kind) < Id;
      });
  if (It == PackIndex.end() || It->Key != Key || It->Kind != Kind)
    return nullptr;
  return &*It;
}

/// Caller holds the mutex. A hit is counted in PackHits and recorded; the
/// caller counts it as a disk hit of its kind.
std::optional<std::string_view>
ResultCache::packLookupLocked(uint64_t Key, EntryKind Kind) {
  if (DiskDisabledFlag)
    return std::nullopt;
  const PackSlot *S = packSlotLocked(Key, Kind);
  if (!S)
    return std::nullopt;
  if (hashCanonicalBytes(S->Payload) != S->Checksum) {
    packDefectLocked();
    return std::nullopt;
  }
  std::string_view Payload = S->Payload;
  ++Counters.PackHits;
  recordLocked(Key, Kind, Payload, S);
  return Payload;
}

/// Caller holds the mutex. Indexes the valid segments of \p Bytes, a view
/// of the buffer PackBuf will own; returns false when a segment fails
/// validation (the segments before it stay indexed).
bool ResultCache::loadPackLocked(std::string_view Bytes) {
  // Indexes the segment at the front of Rest; false leaves PackIndex as
  // it was.
  auto LoadSegment = [&](std::string_view Rest) -> std::optional<size_t> {
    if (Rest.size() < SegmentHeaderSize ||
        std::memcmp(Rest.data(), PackMagic, 4) != 0)
      return std::nullopt;
    const char *P = Rest.data() + 4;
    uint32_t Version = getU32LE(P);
    uint64_t Size = getU64LE(P + 4);
    uint64_t Count = getU64LE(P + 12);
    uint64_t IndexChecksum = getU64LE(P + 20);
    if (Version != PackFormatVersion || Size < SegmentHeaderSize ||
        Size > Rest.size() ||
        Count > (Size - SegmentHeaderSize) / PackRecordSize)
      return std::nullopt;
    std::string_view Segment = Rest.substr(0, Size);
    const size_t PayloadStart = SegmentHeaderSize + Count * PackRecordSize;
    std::string_view IndexBytes =
        Segment.substr(SegmentHeaderSize, PayloadStart - SegmentHeaderSize);
    if (segmentIndexChecksum(IndexBytes, Size) != IndexChecksum)
      return std::nullopt;
    const size_t FirstSlot = PackIndex.size();
    PackIndex.reserve(FirstSlot + Count);
    uint32_t Generation = PackGeneration;
    for (uint64_t I = 0; I != Count; ++I) {
      const char *R = IndexBytes.data() + I * PackRecordSize;
      uint64_t Key = getU64LE(R);
      uint32_t Kind = getU32LE(R + 8);
      uint32_t Gen = getU32LE(R + 12);
      uint64_t Off = getU64LE(R + 16);
      uint64_t Len = getU64LE(R + 24);
      bool Sorted = PackIndex.size() == FirstSlot ||
                    std::make_pair(PackIndex.back().Key,
                                   uint32_t(PackIndex.back().Kind)) <
                        std::make_pair(Key, Kind);
      if (Kind > uint32_t(EntryKind::Blob) || Off < PayloadStart ||
          Off > Size || Len > Size - Off || !Sorted) {
        PackIndex.resize(FirstSlot);
        return std::nullopt;
      }
      PackIndex.push_back(PackSlot{Key, EntryKind(Kind), Gen,
                                   Segment.substr(Off, Len),
                                   getU64LE(R + 32)});
      Generation = std::max(Generation, Gen);
    }
    PackGeneration = Generation;
    return Size;
  };

  bool Valid = true;
  for (size_t Base = 0; Base != Bytes.size();) {
    std::optional<size_t> Size = LoadSegment(Bytes.substr(Base));
    if (!Size) {
      Valid = false;
      break;
    }
    ++PackSegments;
    Base += *Size;
  }
  if (PackSegments > 1) {
    // Each segment is sorted; a stable sort keeps equal keys in segment
    // order, so the last of each run is the newest segment's entry.
    auto Id = [](const PackSlot &S) { return std::make_pair(S.Key, S.Kind); };
    std::stable_sort(PackIndex.begin(), PackIndex.end(),
                     [&](const PackSlot &A, const PackSlot &B) {
                       return Id(A) < Id(B);
                     });
    auto Newest = std::unique(PackIndex.rbegin(), PackIndex.rend(),
                              [&](const PackSlot &A, const PackSlot &B) {
                                return Id(A) == Id(B);
                              });
    PackIndex.erase(PackIndex.begin(), Newest.base());
  }
  return Valid;
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

  if (!ReadOk || !loadPackLocked(*Buf)) {
    ++Counters.CorruptEntries;
    PackDefective = true;
  }
  if (PackSegments != 0)
    PackBuf = std::move(Buf);
}

namespace {

/// One entry bound for a pack segment.
struct SegmentEntry {
  uint64_t Key;
  uint32_t Kind;
  uint32_t Generation;
  std::string_view Bytes;
  uint64_t Checksum;
};

/// Encodes \p Entries, sorted by (key, kind), as one pack segment.
std::string encodeSegment(const std::vector<SegmentEntry> &Entries) {
  std::string Index;
  Index.reserve(Entries.size() * PackRecordSize);
  uint64_t Offset = SegmentHeaderSize + Entries.size() * PackRecordSize;
  for (const SegmentEntry &E : Entries) {
    putU64LE(Index, E.Key);
    putU32LE(Index, E.Kind);
    putU32LE(Index, E.Generation);
    putU64LE(Index, Offset);
    putU64LE(Index, E.Bytes.size());
    putU64LE(Index, E.Checksum);
    Offset += E.Bytes.size();
  }
  std::string Segment;
  Segment.reserve(Offset);
  Segment.append(PackMagic, 4);
  putU32LE(Segment, ResultCache::PackFormatVersion);
  putU64LE(Segment, Offset);
  putU64LE(Segment, Entries.size());
  putU64LE(Segment, segmentIndexChecksum(Index, Offset));
  Segment += Index;
  for (const SegmentEntry &E : Entries)
    Segment += E.Bytes;
  return Segment;
}

} // namespace

void ResultCache::writePack() {
  std::string Segment;
  bool Compact = false;
  {
    std::lock_guard<std::mutex> Lock(M);
    if (!Recording || DiskDisabledFlag) {
      resetPackLocked();
      return;
    }
    // Split the working set into what the pack already holds and what is
    // new. An entry from elsewhere (memory, loose) whose bytes equal the
    // pack's live entry is not new.
    size_t NewCount = 0;
    for (auto &[Id, E] : Working) {
      if (!E.FromPack)
        if (const PackSlot *S = packSlotLocked(Id.first, Id.second))
          if (S->Payload == E.Copy) {
            E.FromPack = true;
            E.PackBytes = S->Payload;
            E.Checksum = S->Checksum;
            E.Copy.clear();
          }
      NewCount += !E.FromPack;
    }
    Compact = PackDefective ||
              (NewCount != 0 && PackSegments >= MaxPackSegments);
    if (NewCount == 0 && !Compact) {
      resetPackLocked();
      return;
    }
    // This write's generation stamps every entry it writes from the
    // working set; a compaction carries the other live entries over with
    // their own, while they are young enough.
    const uint32_t Generation = PackGeneration + 1;
    std::vector<SegmentEntry> Entries;
    Entries.reserve(Compact ? Working.size() + PackIndex.size() : NewCount);
    for (const auto &[Id, E] : Working) {
      if (E.FromPack && !Compact)
        continue;
      Entries.push_back({Id.first, static_cast<uint32_t>(Id.second),
                         Generation, E.bytes(),
                         E.FromPack ? E.Checksum
                                    : hashCanonicalBytes(E.Copy)});
    }
    if (Compact) {
      for (const PackSlot &S : PackIndex)
        if (Generation - S.Generation < PackRetainWrites &&
            !Working.count({S.Key, S.Kind}))
          Entries.push_back({S.Key, static_cast<uint32_t>(S.Kind),
                             S.Generation, S.Payload, S.Checksum});
      std::sort(Entries.begin(), Entries.end(),
                [](const SegmentEntry &A, const SegmentEntry &B) {
                  return std::make_pair(A.Key, A.Kind) <
                         std::make_pair(B.Key, B.Kind);
                });
    }
    Segment = encodeSegment(Entries);
    resetPackLocked();
  }
  bool Ok = !fault::shouldFail("cache.disk.store") &&
            (Compact ? writeDiskFile(packFileName(), Segment)
                     : appendDiskFile(packFileName(), Segment));
  if (!Ok) {
    recordStoreFailure();
    return;
  }
  std::lock_guard<std::mutex> Lock(M);
  ++Counters.PackWrites;
  Counters.PackCompactions += Compact;
}
