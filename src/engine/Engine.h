//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resilient corpus analysis engine: wraps parse -> verify -> detect for
/// whole corpora the way the paper ran its detectors over Servo, TiKV,
/// Parity and the CVE sets — one bad input must cost one status entry, not
/// the run. Three mechanisms (see docs/RESILIENCE.md):
///
///  - Fault isolation: every per-file and per-detector stage runs inside a
///    containment boundary. A parse error, verifier rejection, or detector
///    fault (a thrown exception, including injected ones) quarantines that
///    unit with a structured EngineStatus and the run continues.
///
///  - Resource budgets: a per-file Budget (wall-clock and/or steps) plus a
///    per-function dataflow cap are threaded through summaries and
///    MemoryAnalysis. Exhaustion degrades along the ladder: full analysis
///    -> per-function-only summaries -> detector skipped-with-note. Never a
///    hang.
///
///  - Observability: the CorpusReport carries per-file and per-detector
///    statuses, reasons, and every surviving finding, rendered as text or
///    JSON with a documented exit-code contract.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_ENGINE_ENGINE_H
#define RUSTSIGHT_ENGINE_ENGINE_H

#include "corpus/CorpusWalk.h"
#include "detectors/Detector.h"
#include "diag/Baseline.h"
#include "sched/ResultCache.h"
#include "sched/SummaryDb.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rs {
class JsonValue;
} // namespace rs

namespace rs::diag {
class SourceManager;
} // namespace rs::diag

namespace rs::engine {

/// How far a unit (file or detector) got through the pipeline.
enum class EngineStatus {
  Ok,       ///< Completed fully.
  Degraded, ///< Completed, but recovery or budget exhaustion lost precision.
  Skipped,  ///< Quarantined; no (trustworthy) results for this unit.
};

/// Short stable identifier ("ok" / "degraded" / "skipped").
const char *engineStatusName(EngineStatus S);

/// One detector's outcome on one file.
struct DetectorOutcome {
  std::string Name;
  EngineStatus Status = EngineStatus::Ok;
  std::string Note; ///< Why it degraded or was skipped ("" when Ok).
  size_t Findings = 0;
};

/// One file's outcome. Parse errors, verifier rejections, suppression
/// notices, and the findings themselves are all diag::Diagnostic values —
/// one schema from producer to renderer.
struct FileReport {
  std::string Path;
  EngineStatus Status = EngineStatus::Skipped;
  std::string Reason; ///< Why the file degraded or was skipped ("" when Ok).
  std::vector<diag::Diagnostic> ParseErrors;    ///< RS-PARSE-001 entries.
  std::vector<diag::Diagnostic> VerifierErrors; ///< RS-VERIFY-001 entries.
  /// Non-finding diagnostics about the file itself, e.g. RS-META-001
  /// unknown-suppression warnings (with their machine-applicable fix-its).
  std::vector<diag::Diagnostic> Notices;
  unsigned ItemsDropped = 0; ///< Items lost to parser resynchronization.
  /// Findings dropped by `// rustsight-allow(...)` comments in the source.
  size_t SuppressedFindings = 0;
  /// Findings dropped by an accepted `--baseline` file (applyBaseline).
  size_t BaselinedFindings = 0;
  std::vector<DetectorOutcome> Detectors;
  std::vector<detectors::Diagnostic> Findings; ///< Sorted, deduplicated.

  bool analyzed() const { return Status != EngineStatus::Skipped; }

  /// The degradation machinery as first-class diagnostics: one
  /// RS-ENGINE-001/002 per degraded/skipped file and one RS-ENGINE-003/004
  /// per degraded/skipped detector, each carrying the budget or fault cause.
  /// Derived on demand so the statuses stay the single source of truth.
  std::vector<diag::Diagnostic> statusDiagnostics() const;
};

/// Aggregate observability for one corpus run: scheduler shape, cache
/// effectiveness, wall-clock. Deliberately NOT part of renderJson() — the
/// JSON report is byte-identical across job counts and cold/warm caches,
/// and these numbers are anything but.
struct RunStats {
  unsigned Jobs = 1;         ///< Worker threads actually used.
  double WallMs = 0;         ///< End-to-end corpus wall-clock.
  bool CacheEnabled = false; ///< False when EngineOptions::UseCache is off.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheEvictions = 0;
  uint64_t DiskHits = 0;       ///< Subset of CacheHits served from disk.
  uint64_t CorruptEntries = 0; ///< Disk entries that degraded to misses.
  /// Report and snapshot-blob lookups served from the cache pack
  /// (sched::ResultCache::openPack); each is also a disk hit. In-process
  /// runs only: a shard fleet never reads the pack.
  uint64_t PackHits = 0;

  // Whole-program link step (all zero when the run was per-file).
  bool LinkEnabled = false;
  unsigned LinkedFiles = 0;    ///< Modules that joined the link.
  unsigned LinkRounds = 0;     ///< Summarization rounds the solver ran.
  unsigned ModulesFromSummaryDb = 0; ///< Modules served entirely by the DB.
  uint64_t SummaryDbHits = 0;
  uint64_t SummaryDbMisses = 0;
  uint64_t SummaryDbStores = 0;
  /// Modules the link solver never probed or summarized because no other
  /// module references them (analysis::LinkStats::ModulesUnreferenced).
  unsigned ModulesUnreferenced = 0;
  /// Linked modules materialized (snapshot decode or parse) during an
  /// in-process run. A warm run decodes only report misses and the modules
  /// the link solver had to summarize; every other module goes from its
  /// blob's facts section to a report hit without a decode. A shard
  /// fleet's workers decode out of process and are not counted here.
  unsigned ModulesDecoded = 0;
  /// True for a run of the in-process engine, false for a shard fleet.
  /// A fleet does not measure ModulesDecoded or PackHits, so renderLine()
  /// leaves those clauses out for it.
  bool InProcess = false;

  /// One human-readable line, e.g.
  /// "cache: 3 hits, 5 misses, 0 evictions; 12.4 ms wall-clock, 8 jobs".
  std::string renderLine() const;
};

/// The whole corpus run.
struct CorpusReport {
  std::vector<FileReport> Files;
  RunStats Stats;

  size_t countWithStatus(EngineStatus S) const;
  size_t totalFindings() const;

  /// The determinism pass: explicitly re-sorts every file's findings into
  /// the canonical (function, block, statement, kind, message) order.
  /// Files are already in input order — the parallel driver merges results
  /// by input ordinal, never by completion order — so after this pass the
  /// rendered report is byte-identical for any job count. Idempotent.
  void finalize();

  /// One status line per file plus its findings (with labeled secondary
  /// spans, notes and fix-its) and detector notes. Pass a SourceManager to
  /// annotate every span with a caret snippet; with null the spans render
  /// location-only.
  std::string renderText(const diag::SourceManager *SM = nullptr) const;

  /// {"files": [...], "summary": {...}} — see docs/RESILIENCE.md and
  /// docs/DIAGNOSTICS.md for the per-diagnostic schema (schema v2).
  std::string renderJson() const;

  /// SARIF 2.1.0: the full Rules.def catalog as tool.driver.rules plus one
  /// result per finding, parse/verifier error, suppression notice, and
  /// degraded/skipped status diagnostic.
  std::string renderSarif() const;

  /// The exit-code contract: 0 = at least one file analyzed, no findings;
  /// 1 = findings reported; 2 = no file produced results (or, under
  /// \p Strict, any file was skipped/degraded or any recovery happened).
  int exitCode(bool Strict = false) const;
};

/// The fingerprints of every finding in \p Report — the payload of
/// `--write-baseline`.
diag::Baseline collectBaseline(const CorpusReport &Report);

/// Drops every finding whose fingerprint \p B contains (the `--baseline`
/// flow: only *new* findings survive). Bumps each file's BaselinedFindings
/// by the number dropped there; returns the total dropped.
size_t applyBaseline(CorpusReport &Report, const diag::Baseline &B);

/// Whole-program link mode for analyzeCorpus (docs/WHOLEPROGRAM.md).
enum class WholeProgramMode {
  Auto, ///< Link when the corpus has more than one analyzable file.
  On,   ///< Always link.
  Off,  ///< Strictly per-file (the historical pipeline).
};

/// Engine configuration. Zeros mean unlimited (the fail-fast pipeline's
/// historical behavior, minus the fail-fast).
struct EngineOptions {
  uint64_t BudgetMs = 0;         ///< Per-file wall-clock budget.
  uint64_t MaxFileSteps = 0;     ///< Per-file analysis step budget.
  uint64_t MaxDataflowIters = 0; ///< Per-function dataflow update cap.
  unsigned MaxSummaryRounds = 8; ///< Interprocedural summary rounds.

  /// Whole-program link step: resolve extern callees across corpus files
  /// and let detectors consume cross-file summaries.
  WholeProgramMode WholeProgram = WholeProgramMode::Auto;

  /// SummaryDb address-schema override (0 = the built-in schema). Only the
  /// CI schema-bump drill sets this: a bumped schema must read as a cold
  /// DB, never as corruption.
  int64_t SummaryDbSchemaOverride = 0;

  /// Worker threads for analyzeCorpus (0 = hardware_concurrency, 1 =
  /// serial). Output is byte-identical for every value.
  unsigned Jobs = 0;

  /// Result-cache master switch. The in-memory layer always rides along
  /// when enabled; only clean (Ok) file reports are ever cached.
  bool UseCache = true;

  /// On-disk cache layer root ("" = memory-only).
  std::string CacheDir;

  /// In-memory cache entry cap (0 = unbounded).
  size_t CacheMaxEntries = 4096;
};

//===----------------------------------------------------------------------===//
// Cache key derivation and report serialization (exposed for tests and
// docs/PARALLELISM.md's invalidation rules).
//===----------------------------------------------------------------------===//

/// Fingerprints one file's canonical MIR text: CRLF is normalized to LF so
/// a checkout-mode change does not invalidate, any other byte change does.
uint64_t fingerprintSource(std::string_view Source);

/// Folds everything that changes analysis results — the report schema
/// version, the detector battery (names, in order), and the analysis
/// budget options — into a salt. A content fingerprint combined with a
/// different salt can never collide back onto the same cache key, so
/// adding a detector or changing a budget invalidates en masse.
uint64_t cacheSalt(const EngineOptions &Opts,
                   const std::vector<std::string> &DetectorNames);

/// The full cache key for one file under one engine configuration.
uint64_t cacheKey(uint64_t SourceFingerprint, uint64_t Salt);

/// The cache key for one file's parsed-MIR snapshot blob. Deliberately
/// independent of the detector/options salt — a snapshot captures the
/// parse, not the analysis, so changing the detector battery re-runs
/// detectors against the cached module instead of re-lexing the world.
/// Folds the snapshot schema version and the interner epoch so format or
/// interner changes invalidate en masse, plus a distinct tag so snapshot
/// keys can never collide with report keys in the shared cache.
uint64_t snapshotCacheKey(uint64_t SourceFingerprint);

/// Serializes a clean (Ok) FileReport into the cache payload JSON. The
/// path is deliberately excluded: identical content at two paths shares
/// one entry.
std::string serializeFileReport(const FileReport &R);

/// Rebuilds a FileReport from a cache payload, re-anchored at \p Path
/// (finding locations are re-interned against it). Returns nullopt on any
/// schema mismatch — the caller treats that as a miss and re-analyzes.
std::optional<FileReport> deserializeFileReport(std::string_view Payload,
                                                const std::string &Path);

/// Full-fidelity FileReport serialization for the worker wire protocol and
/// the checkpoint journal. Unlike the cache payload it carries the path,
/// status, reason, parse/verifier errors, items-dropped and suppression
/// counts, and per-detector statuses verbatim, so a report that crossed a
/// process boundary (or a resume) renders byte-identically to one computed
/// in-process. See docs/RESILIENCE.md ("worker wire protocol").
std::string serializeWireFileReport(const FileReport &R);

/// Rebuilds a FileReport from a parsed wire/checkpoint object. Returns
/// nullopt on any schema defect — the supervisor treats that as a protocol
/// error (worker retry), the checkpoint loader as an absent journal.
std::optional<FileReport> fileReportFromJson(const JsonValue &V);

/// String-payload convenience over fileReportFromJson.
std::optional<FileReport> deserializeWireFileReport(std::string_view Payload);

/// Runs the detector battery over files/sources with fault isolation and
/// budgets. Fault-injection probe sites: "engine.parse", "engine.verify",
/// "engine.detector" (one probe per detector per file).
class AnalysisEngine {
public:
  using DetectorFactory =
      std::function<std::vector<std::unique_ptr<detectors::Detector>>()>;

  explicit AnalysisEngine(EngineOptions Opts = EngineOptions());

  /// Replaces the built-in detector battery (tests inject faulty
  /// detectors through this).
  void setDetectorFactory(DetectorFactory F) { Factory = std::move(F); }

  /// Analyzes one in-memory buffer.
  FileReport analyzeSource(std::string_view Source, std::string Name);

  /// Reads and analyzes one file; unreadable files are Skipped. Always
  /// analyzes fresh (no cache) — the cached path is analyzeCorpus.
  FileReport analyzeFile(const std::string &Path);

  /// Reads and analyzes one file through the result cache (the same path
  /// analyzeCorpus takes per file). This is the worker-mode entry point:
  /// a shard worker streams one of these per input so the supervisor can
  /// checkpoint and attribute failures file-by-file.
  FileReport analyzeFileThroughCache(const std::string &Path);

  /// analyzeFileThroughCache against a whole-program link environment: the
  /// detectors resolve extern callees through \p Env, and \p LinkDigest
  /// (the file's LinkedCorpus::linkDigest) is folded into the report cache
  /// key so cross-file changes invalidate this file's entry. The sharded
  /// analyze phase drives this; in-process linked runs take the same code
  /// path with the module already in memory.
  FileReport
  analyzeFileThroughCacheLinked(const std::string &Path,
                                const analysis::ExternalSummaries &Env,
                                uint64_t LinkDigest);

  /// Link facts for one file: straight from the facts section of its
  /// module blob when the cache holds one, else snapshot-or-parse + verify
  /// and the linker-visible shape (the blob is then rewritten with both
  /// halves). Returns nullopt when the file cannot join the link
  /// (unreadable, parse errors, verifier rejection) — such files are
  /// analyzed per-file instead. Worker entry for the supervisor's facts
  /// phase.
  std::optional<analysis::ModuleFacts>
  collectFileFacts(const std::string &Path);

  /// One link-solver round over one file: summarize every function of
  /// \p Path's module (as corpus module \p ModuleIdx) against \p Env.
  /// Returns nullopt when the module no longer loads cleanly. Worker entry
  /// for the supervisor's summarize rounds.
  std::optional<analysis::ModuleSummaries>
  summarizeFileForLink(const std::string &Path, uint32_t ModuleIdx,
                       const analysis::ExternalSummaries &Env);

  /// Analyzes one in-memory buffer through the result cache — the
  /// re-entrant per-session entry point the serve daemon uses for editor
  /// overlay documents. Keying is identical to the file path: content
  /// fingerprint x option/detector salt, so an overlay whose text matches
  /// the on-disk file (or a previously analyzed buffer state) is a cache
  /// hit, and every keystroke that changes bytes is a miss. Only clean
  /// (Ok) results are stored, like everywhere else.
  FileReport analyzeSourceThroughCache(std::string_view Source,
                                       const std::string &Path);

  /// Analyzes every path, never aborting the batch. Directories expand to
  /// their .mir files (recursively, in sorted order); a directory with no
  /// .mir files yields one Skipped entry. Files run as parallel tasks on a
  /// work-stealing pool (EngineOptions::Jobs), each inside the containment
  /// boundary; results are merged in input order, so the report renders
  /// byte-identically for any job count. Clean per-file results are served
  /// from / stored into the content-addressed result cache.
  CorpusReport analyzeCorpus(const std::vector<std::string> &Paths);

  /// Historical name for analyzeCorpus.
  CorpusReport run(const std::vector<std::string> &Paths) {
    return analyzeCorpus(Paths);
  }

  /// The engine's cache (null when disabled). Persists across
  /// analyzeCorpus calls, which is what makes warm reruns hit.
  sched::ResultCache *cache() { return Cache.get(); }

  /// The engine's summary DB (null until a linked run created it).
  sched::SummaryDb *summaryDb() { return SummaryDbPtr.get(); }

private:
  void runDetectors(const mir::Module &M, FileReport &R,
                    const analysis::ExternalSummaries *Ext);
  /// The shared back half of analysis: detectors + suppressions over an
  /// already-built module, inside the containment boundary. Both the
  /// parse path and the snapshot fast path funnel through this, which is
  /// what keeps snapshot-served reports byte-identical to parsed ones.
  /// \p Ext (optional) is the whole-program link environment.
  FileReport analyzeParsedModule(const mir::Module &M, std::string_view Source,
                                 std::string Name,
                                 const analysis::ExternalSummaries *Ext);
  /// analyzeSource plus an optional snapshot store: when \p StoreSnapshot
  /// is set and the parse had no errors and the verifier passed, the
  /// module is serialized into the cache's blob layer under \p SnapKey so
  /// the next cold run skips the Lexer/Parser/Verifier entirely.
  FileReport analyzeSourceImpl(std::string_view Source, std::string Name,
                               bool StoreSnapshot, uint64_t SnapKey,
                               uint64_t Fingerprint,
                               const analysis::ExternalSummaries *Ext);
  FileReport analyzeFileCached(const std::string &Path, uint64_t Salt,
                               const analysis::ExternalSummaries *Ext = nullptr,
                               uint64_t LinkDigest = 0);
  /// The link facts of \p Source (fingerprint \p Fp, corpus path \p Path):
  /// from its module blob's facts section when intact — no decode — else
  /// from the module, decoded from the blob's snapshot or parsed + verified,
  /// after which the blob is rewritten with both halves. A module
  /// materialized on the way is handed back through \p ModuleOut (and
  /// counted in \p Decodes) so the caller need not decode it again.
  /// nullopt when the module is not link-clean.
  std::optional<analysis::ModuleFacts>
  linkFactsFor(std::string_view Source, const std::string &Path, uint64_t Fp,
               std::optional<mir::Module> *ModuleOut,
               std::atomic<unsigned> *Decodes);
  /// The module of a linked source: decoded from its blob's snapshot, else
  /// parsed + verified (the blob is then rewritten). nullopt when it no
  /// longer loads cleanly. Counts in \p Decodes (optional).
  std::optional<mir::Module> materializeModule(std::string_view Source,
                                               const std::string &Path,
                                               uint64_t Fp,
                                               std::atomic<unsigned> *Decodes);
  /// The linked corpus driver behind analyzeCorpus (whole-program mode).
  CorpusReport
  analyzeCorpusLinked(std::vector<corpus::CorpusInput> Inputs,
                      std::chrono::steady_clock::time_point Start);
  /// Brackets one in-process corpus run on the result cache:
  /// beginCacheRun snapshots the counters and opens the pack; endCacheRun
  /// writes the pack and fills \p Out's cache fields with the run's
  /// deltas (and marks it InProcess). Only analyzeCorpus's two drivers use
  /// the pack.
  sched::ResultCache::Stats beginCacheRun();
  void endCacheRun(const sched::ResultCache::Stats &Before, RunStats &Out);
  void ensureCache();
  void ensureSummaryDb();
  std::vector<std::string> detectorNames();

  EngineOptions Opts;
  DetectorFactory Factory;
  std::unique_ptr<sched::ResultCache> Cache;
  std::unique_ptr<sched::SummaryDb> SummaryDbPtr;
};

} // namespace rs::engine

#endif // RUSTSIGHT_ENGINE_ENGINE_H
