//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed incremental result cache. Summary-based analyses
/// scale because per-unit results are reusable across runs; RustSight's
/// unit is the file, keyed by a stable 64-bit FNV-1a fingerprint of the
/// file's canonical MIR text folded with a detector-set/version salt
/// (the engine derives the key; the cache is payload-agnostic and stores
/// opaque serialized reports).
///
/// Two layers:
///  - in-memory: an LRU map, bounded by MaxMemoryEntries, thread-safe;
///  - on-disk (optional): one JSON file per entry in DiskDir, written to a
///    temporary name and atomically renamed into place so readers never
///    see a torn entry. A corrupt, truncated, mismatched or unreadable
///    entry degrades to a cache miss — never a crash (PR 1's resilience
///    rules apply to the cache too).
///
/// An in-process corpus run may also bracket itself with openPack() and
/// writePack(). While the pack (DiskDir/rscache.pack) is open it is the
/// run's store: lookups go memory -> pack -> loose entries, and stores
/// write no loose file but reach disk through writePack(), which appends
/// one segment holding only the run's new entries. Runs that never open a
/// pack (shard workers, serve, SummaryDb) keep reading and writing loose
/// entries, and a packed run still reads loose entries as a fallback and
/// folds what it finds there into the pack.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SCHED_RESULTCACHE_H
#define RUSTSIGHT_SCHED_RESULTCACHE_H

#include "support/Mmap.h"

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rs::sched {

class ResultCache {
public:
  struct Options {
    /// In-memory entry cap; older entries are LRU-evicted past it.
    /// 0 means unbounded.
    size_t MaxMemoryEntries = 4096;

    /// On-disk layer root ("" disables the disk layer). Created on first
    /// store if missing.
    std::string DiskDir;
  };

  /// Counters since construction. Reads that hit the disk layer count as
  /// both a Hit and a DiskHit. The blob layer (lookupBlob/storeBlob) keeps
  /// its own hit/miss counters so report-cache accounting — which feeds
  /// CorpusReport::Stats and several exactness tests — is unaffected by
  /// how many snapshot probes a run makes.
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    uint64_t DiskHits = 0;
    uint64_t CorruptEntries = 0; ///< Disk entries that failed to load.
    uint64_t StoreErrors = 0;    ///< Disk writes that failed (non-fatal).
    uint64_t BlobHits = 0;       ///< lookupBlob successes (either layer).
    uint64_t BlobMisses = 0;     ///< lookupBlob misses.
    uint64_t BlobDiskHits = 0;   ///< lookupBlob hits served from disk.
    /// Report and blob hits served from the pack. Each also counts as a
    /// disk hit of its kind (DiskHits or BlobDiskHits).
    uint64_t PackHits = 0;
    /// Loose entry files the disk layer tried to open (found or not).
    uint64_t LooseReads = 0;
    /// Pack writes by writePack(): appended segments and compactions.
    uint64_t PackWrites = 0;
    /// The subset of PackWrites that rewrote the pack as one segment.
    uint64_t PackCompactions = 0;
  };

  ResultCache(); ///< Default options (memory-only, default cap).
  explicit ResultCache(Options O);

  /// Returns the payload stored under \p Key, or nullopt. A disk hit is
  /// promoted into the memory layer. Thread-safe.
  std::optional<std::string> lookup(uint64_t Key);

  /// Stores \p Payload under \p Key in both layers (between openPack()
  /// and writePack() the disk layer is the pack). Disk failures are
  /// counted, not raised — and the first write failure (disk full,
  /// permission lost, directory unwritable) disables the disk layer for
  /// the rest of the run with a single stderr warning, so a sick
  /// filesystem costs one syscall round-trip total, not one per file.
  /// Thread-safe. Fault-injection probe site: "cache.disk.store".
  void store(uint64_t Key, std::string_view Payload);

  /// Binary-safe lookup: like lookup(), but the disk layer reads the
  /// length-framed ".bin" envelope instead of the JSON one. Payloads may
  /// contain any bytes (the MIR snapshot layer stores serialized modules
  /// here). Callers must keep blob keys disjoint from JSON-entry keys —
  /// the in-memory layer is shared.
  std::optional<std::string> lookupBlob(uint64_t Key);

  /// Binary-safe store; same failure/disable semantics as store().
  /// Fault-injection probe site: "cache.disk.store".
  void storeBlob(uint64_t Key, std::string_view Payload);

  /// A blob payload together with whatever owns its bytes: an owned heap
  /// string (memory-layer hit, or the buffered fallback when mmap fails),
  /// the pack buffer, or a read-only file mapping the view borrows in
  /// place. Move-only; bytes() is valid for the lifetime of the BlobRef.
  class BlobRef {
  public:
    std::string_view bytes() const {
      std::string_view All = Map    ? Map.view()
                             : Pack ? std::string_view(*Pack)
                                    : std::string_view(Owned);
      return All.substr(Off, Len);
    }

  private:
    friend class ResultCache;
    std::string Owned;
    MappedFile Map;
    std::shared_ptr<const std::string> Pack; ///< A pack hit's buffer.
    size_t Off = 0;
    size_t Len = 0;
  };

  /// Zero-copy variant of lookupBlob(): a pack hit views the pack buffer
  /// and a loose disk hit maps the envelope, and neither is promoted into
  /// the memory layer — snapshot blobs are typically read once per (run,
  /// file), and for the mapped path the OS page cache is the caching
  /// layer. Counters move exactly as for lookupBlob(). Thread-safe.
  std::optional<BlobRef> lookupBlobRef(uint64_t Key);

  /// Reads DiskDir/rscache.pack whole (one read, no mapping, so another
  /// process truncating it cannot fault this one) and validates its
  /// segments in order, then starts recording the working set: every key
  /// served or stored until writePack(). Lookups then go memory -> pack ->
  /// loose, the newest segment holding a key wins, and a pack hit counts
  /// as a disk hit and is not promoted into memory. The first segment that
  /// fails validation (bad magic, version skew, a torn or truncated tail,
  /// an index checksum mismatch) ends the pack: the segments before it
  /// still serve, the defect counts as one corrupt entry, and writePack()
  /// compacts. A payload checksum mismatch on a hit drops the whole pack
  /// for the run (one corrupt entry; lookups fall through to the loose
  /// entries). No-op without a DiskDir or once the disk layer is disabled.
  /// Must not run concurrently with lookups or stores.
  void openPack();

  /// Ends recording and puts the run's new entries (stored, or served
  /// from loose files) on disk: one segment appended to the pack with a
  /// single O_APPEND write. Writes nothing when the run has nothing new
  /// and the pack was intact. Compacts instead after a pack defect, or
  /// when the pack already holds MaxPackSegments segments: one segment,
  /// temporary + atomic rename, holding the working set and every live
  /// pack entry the run did not use that one of the last PackRetainWrites
  /// writes wrote. Superseded entries are dropped, and checksums the pack
  /// already holds are reused, not recomputed. A failed write takes the
  /// store() failure path: one StoreErrors count and the one-time warning.
  /// No-op without a preceding openPack(). Must not run concurrently with
  /// lookups or stores. Fault-injection probe site: "cache.disk.store".
  void writePack();

  /// True once a write failure has disabled the disk layer (memory layer
  /// unaffected). Always false when no DiskDir was configured.
  bool diskDisabled() const;

  /// Drops every in-memory entry (the disk layer is untouched).
  void clearMemory();

  Stats stats() const;

  size_t memoryEntryCount() const;

  /// The on-disk file name for \p Key: "rscache-<16 hex digits>.json".
  static std::string entryFileName(uint64_t Key);

  /// The on-disk file name for a blob entry: "rscache-<16 hex>.bin".
  static std::string blobFileName(uint64_t Key);

  /// The pack's file name: "rscache.pack", outside the rscache-* globs.
  static std::string packFileName();

  /// The on-disk entry format version; bump when the envelope changes.
  static constexpr int64_t DiskFormatVersion = 1;

  /// The binary envelope version ("RSCB" magic + version + key + size +
  /// checksum + bytes); bump when the framing changes.
  static constexpr uint32_t DiskBlobFormatVersion = 1;

  /// The pack format version. A pack is a sequence of segments, each
  /// valid on its own: "RSCP" magic + version + segment byte size + entry
  /// count + index checksum, then the index sorted by (key, kind), then
  /// the payloads, offsets relative to the segment. Each index record
  /// carries the generation of the write that last wrote its entry.
  static constexpr uint32_t PackFormatVersion = 2;

  /// Segments a pack may hold; a write that would add one more compacts.
  static constexpr size_t MaxPackSegments = 16;

  /// Pack writes an entry no run uses survives: a compaction keeps it
  /// only when one of the last PackRetainWrites writes (counting its own)
  /// wrote it. Entries the compacting run used are always kept.
  static constexpr uint32_t PackRetainWrites = 2 * MaxPackSegments;

private:
  enum class EntryKind : uint32_t { Report = 0, Blob = 1 };

  /// One validated pack index record; Payload views the pack buffer.
  struct PackSlot {
    uint64_t Key;
    EntryKind Kind;
    uint32_t Generation; ///< The pack write that last wrote the entry.
    std::string_view Payload;
    uint64_t Checksum;
  };

  /// One recorded working-set entry: a view into the pack buffer and its
  /// verified checksum when the pack served it, else its own copy.
  struct WorkingEntry {
    std::string Copy;
    std::string_view PackBytes;
    uint64_t Checksum = 0;
    bool FromPack = false;
    std::string_view bytes() const {
      return FromPack ? PackBytes : std::string_view(Copy);
    }
  };

  std::optional<BlobRef> lookupBlobImpl(uint64_t Key, bool PromoteDiskHit);
  const PackSlot *packSlotLocked(uint64_t Key, EntryKind Kind) const;
  std::optional<std::string_view> packLookupLocked(uint64_t Key,
                                                   EntryKind Kind);
  void recordLocked(uint64_t Key, EntryKind Kind, std::string_view Bytes,
                    const PackSlot *FromPack = nullptr);
  void packDefectLocked();
  void resetPackLocked();
  bool loadPackLocked(std::string_view Bytes);
  void recordStoreFailure();
  std::optional<std::string> loadFromDisk(uint64_t Key);
  std::optional<BlobRef> loadBlobFromDisk(uint64_t Key);
  void storeToDisk(uint64_t Key, std::string_view Payload);
  void storeBlobToDisk(uint64_t Key, std::string_view Payload);
  bool writeDiskFile(const std::string &FileName, std::string_view Contents);
  bool appendDiskFile(const std::string &FileName, std::string_view Contents);
  void insertMemory(uint64_t Key, std::string Payload);

  Options Opts;

  mutable std::mutex M;
  /// LRU list, most-recent first; the map points into it.
  std::list<std::pair<uint64_t, std::string>> Lru;
  std::unordered_map<uint64_t, decltype(Lru)::iterator> Index;
  Stats Counters;
  /// Set by the first disk write failure; gates both disk reads and
  /// writes from then on (guarded by M).
  bool DiskDisabledFlag = false;

  // The pack and the recorded working set, between openPack() and
  // writePack() (guarded by M).
  bool Recording = false;
  std::shared_ptr<const std::string> PackBuf; ///< Null: no usable pack.
  /// The live entries of the valid segments, sorted by (Key, Kind); where
  /// segments share a key the newest one's entry is kept.
  std::vector<PackSlot> PackIndex;
  size_t PackSegments = 0;     ///< Valid segments read.
  uint32_t PackGeneration = 0; ///< The newest generation they hold.
  /// Set by a pack defect: the next writePack() compacts.
  bool PackDefective = false;
  std::map<std::pair<uint64_t, EntryKind>, WorkingEntry> Working;
};

} // namespace rs::sched

#endif // RUSTSIGHT_SCHED_RESULTCACHE_H
