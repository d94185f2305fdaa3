#include "engine/Engine.h"

#include "analysis/Link.h"
#include "corpus/CorpusWalk.h"
#include "diag/Render.h"
#include "diag/Sarif.h"
#include "diag/SourceManager.h"
#include "diag/Suppress.h"
#include "diag/Version.h"
#include "mir/Parser.h"
#include "mir/Snapshot.h"
#include "mir/Verifier.h"
#include "sched/ThreadPool.h"
#include "support/FaultInjection.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <tuple>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace rs;
using namespace rs::engine;

const char *rs::engine::engineStatusName(EngineStatus S) {
  switch (S) {
  case EngineStatus::Ok:
    return "ok";
  case EngineStatus::Degraded:
    return "degraded";
  case EngineStatus::Skipped:
    return "skipped";
  }
  return "?";
}

AnalysisEngine::AnalysisEngine(EngineOptions Opts) : Opts(Opts) {}

//===----------------------------------------------------------------------===//
// Per-file pipeline
//===----------------------------------------------------------------------===//

void AnalysisEngine::runDetectors(const mir::Module &M, FileReport &R,
                                  const analysis::ExternalSummaries *Ext) {
  Budget FileBudget;
  bool HasFileBudget = Opts.BudgetMs != 0 || Opts.MaxFileSteps != 0;
  if (Opts.BudgetMs != 0)
    FileBudget.setDeadline(Opts.BudgetMs);
  if (Opts.MaxFileSteps != 0)
    FileBudget.setMaxSteps(Opts.MaxFileSteps);

  detectors::AnalysisLimits Limits;
  Limits.ContextBudget = HasFileBudget ? &FileBudget : nullptr;
  Limits.MaxDataflowSteps = Opts.MaxDataflowIters;
  Limits.MaxSummaryRounds = Opts.MaxSummaryRounds;
  Limits.External = Ext && !Ext->empty() ? Ext : nullptr;
  detectors::AnalysisContext Ctx(M, Limits);

  detectors::DiagnosticEngine FileDiags;
  bool AnyQuarantined = false;
  bool AnyBudgetSkip = false;

  std::vector<std::unique_ptr<detectors::Detector>> Detectors =
      Factory ? Factory() : detectors::makeAllDetectors();
  for (const auto &D : Detectors) {
    DetectorOutcome O;
    O.Name = D->name();
    if (HasFileBudget && FileBudget.exhausted()) {
      // Bottom rung of the degradation ladder: no budget left, so the
      // detector is skipped with a note rather than run to a hang.
      O.Status = EngineStatus::Skipped;
      O.Note = std::string(FileBudget.reason()) + "; skipped before run";
      AnyBudgetSkip = true;
      R.Detectors.push_back(std::move(O));
      continue;
    }
    detectors::DiagnosticEngine DetDiags;
    try {
      if (fault::shouldFail("engine.detector"))
        throw std::runtime_error("injected fault at probe engine.detector");
      D->run(Ctx, DetDiags);
      DetDiags.sort();
      O.Findings = DetDiags.count();
      for (const detectors::Diagnostic &Diag : DetDiags.diagnostics())
        FileDiags.report(Diag);
      if (Ctx.anyDegraded()) {
        O.Status = EngineStatus::Degraded;
        O.Note = Ctx.summariesComplete()
                     ? "analysis budget exhausted; findings may be incomplete"
                     : "interprocedural summaries truncated; per-function "
                       "results only";
      }
    } catch (const std::exception &E) {
      // The containment boundary: a buggy (or fault-injected) detector is
      // quarantined — its partial findings are dropped so the report never
      // mixes trustworthy and half-computed results — and the battery
      // continues.
      O.Status = EngineStatus::Skipped;
      O.Note = std::string("quarantined: ") + E.what();
      O.Findings = 0;
      AnyQuarantined = true;
    } catch (...) {
      O.Status = EngineStatus::Skipped;
      O.Note = "quarantined: unknown fault";
      O.Findings = 0;
      AnyQuarantined = true;
    }
    R.Detectors.push_back(std::move(O));
  }

  FileDiags.sort();
  R.Findings = FileDiags.take();

  // Fold the stage outcomes into the file status.
  std::vector<std::string> Reasons;
  if (!R.ParseErrors.empty())
    Reasons.push_back(std::to_string(R.ItemsDropped) +
                      " malformed item(s) dropped by parser recovery");
  if (Ctx.anyDegraded())
    Reasons.push_back("analysis budget exhausted; precision degraded");
  if (AnyBudgetSkip)
    Reasons.push_back("budget exhausted: detector(s) skipped");
  if (AnyQuarantined)
    Reasons.push_back("detector fault(s) quarantined");

  bool AnyDetectorRan = Detectors.empty();
  for (const DetectorOutcome &O : R.Detectors)
    AnyDetectorRan |= O.Status != EngineStatus::Skipped;

  std::string Joined;
  for (const std::string &Reason : Reasons)
    Joined += (Joined.empty() ? "" : "; ") + Reason;

  if (!AnyDetectorRan) {
    R.Status = EngineStatus::Skipped;
    R.Reason = Joined.empty() ? "all detectors skipped" : Joined;
  } else if (!Reasons.empty()) {
    R.Status = EngineStatus::Degraded;
    R.Reason = Joined;
  } else {
    R.Status = EngineStatus::Ok;
  }
}

/// Converts a recoverable pipeline error into the file-level diagnostic
/// shape shared by every renderer.
static diag::Diagnostic errorDiagnostic(diag::RuleId Rule, const Error &E) {
  diag::Diagnostic D(Rule);
  D.Message = E.message();
  D.Loc = E.location();
  return D;
}

/// Applies `// rustsight-allow(...)` comments: drops the findings they
/// cover (keeping the per-detector counts honest via the rule table's
/// detector column) and surfaces unknown rule spellings as RS-META-001
/// warnings with a machine-applicable comment rewrite.
static void applySuppressions(std::string_view Source, FileReport &R) {
  diag::SuppressionSet Supp = diag::scanSuppressions(Source);
  if (Supp.empty())
    return;
  const std::string *File = internFileName(R.Path);
  for (const diag::UnknownSuppression &U : Supp.Unknown) {
    diag::Diagnostic D(diag::RuleId::UnknownSuppression);
    D.Message =
        "unknown rule '" + U.Token + "' in rustsight-allow comment";
    D.Loc = SourceLocation(File, U.Line, U.Col);
    diag::FixIt Fix;
    Fix.Loc = SourceLocation(File, U.Line, 1);
    Fix.Replacement = U.FixedLine;
    Fix.Description = "drop the unknown rule from the allow list";
    D.Fixes.push_back(std::move(Fix));
    R.Notices.push_back(std::move(D));
  }
  if (Supp.ByLine.empty())
    return;
  std::vector<diag::Diagnostic> Kept;
  Kept.reserve(R.Findings.size());
  for (diag::Diagnostic &D : R.Findings) {
    if (D.Loc.isValid() && Supp.allows(D.Kind, D.Loc.line())) {
      ++R.SuppressedFindings;
      for (DetectorOutcome &O : R.Detectors)
        if (O.Name == diag::ruleInfo(D.Kind).Detector && O.Findings != 0) {
          --O.Findings;
          break;
        }
    } else {
      Kept.push_back(std::move(D));
    }
  }
  R.Findings = std::move(Kept);
}

/// The containment boundary's verdict on a fault in analysis: the file is
/// Skipped and keeps no partial results.
static void containFault(FileReport &R, const char *What) {
  R.Status = EngineStatus::Skipped;
  R.Reason = std::string("engine fault contained: ") + What;
  R.Detectors.clear();
  R.Findings.clear();
  R.Notices.clear();
  R.SuppressedFindings = 0;
}

FileReport AnalysisEngine::analyzeSource(std::string_view Source,
                                         std::string Name) {
  return analyzeSourceImpl(Source, std::move(Name), /*StoreSnapshot=*/false,
                           /*SnapKey=*/0, /*Fingerprint=*/0, /*Ext=*/nullptr);
}

FileReport
AnalysisEngine::analyzeSourceImpl(std::string_view Source, std::string Name,
                                  bool StoreSnapshot, uint64_t SnapKey,
                                  uint64_t Fingerprint,
                                  const analysis::ExternalSummaries *Ext) {
  FileReport R;
  R.Path = std::move(Name);
  try {
    if (fault::shouldFail("engine.parse"))
      throw std::runtime_error("injected fault at probe engine.parse");
    mir::ModuleParse P = mir::Parser::parseRecover(Source, R.Path);
    for (const Error &E : P.Errors)
      R.ParseErrors.push_back(errorDiagnostic(diag::RuleId::ParseError, E));
    R.ItemsDropped = P.ItemsDropped;
    if (!P.Errors.empty() && P.M.functions().empty() &&
        P.M.structs().empty() && P.M.statics().empty()) {
      R.Status = EngineStatus::Skipped;
      R.Reason = "no parseable items: " + P.Errors.front().toString();
      return R;
    }

    if (fault::shouldFail("engine.verify"))
      throw std::runtime_error("injected fault at probe engine.verify");
    std::vector<Error> VErr;
    if (!mir::verifyModule(P.M, VErr)) {
      for (const Error &E : VErr)
        R.VerifierErrors.push_back(
            errorDiagnostic(diag::RuleId::VerifyError, E));
      R.Status = EngineStatus::Skipped;
      R.Reason = "verifier rejected module: " + VErr.front().toString();
      return R;
    }

    // Only a fully clean parse is worth snapshotting: a recovered parse
    // carries ParseErrors/ItemsDropped that a snapshot-served report could
    // not reproduce.
    if (StoreSnapshot && Cache && P.Errors.empty())
      Cache->storeBlob(SnapKey, mir::snapshot::write(P.M, Fingerprint));

    runDetectors(P.M, R, Ext);
    applySuppressions(Source, R);
  } catch (const std::exception &E) {
    containFault(R, E.what());
  } catch (...) {
    containFault(R, "unknown exception");
  }
  return R;
}

FileReport
AnalysisEngine::analyzeParsedModule(const mir::Module &M,
                                    std::string_view Source, std::string Name,
                                    const analysis::ExternalSummaries *Ext) {
  FileReport R;
  R.Path = std::move(Name);
  try {
    runDetectors(M, R, Ext);
    applySuppressions(Source, R);
  } catch (const std::exception &E) {
    containFault(R, E.what());
  } catch (...) {
    containFault(R, "unknown exception");
  }
  return R;
}

namespace {

/// Reads \p Path whole with one open, fstat and read; nullopt for a
/// directory or an unreadable file, with the reason in \p WhyNot when
/// given ("is a directory" or "cannot open file"). A directory must be
/// refused: read as empty, it would masquerade as a clean empty module.
std::optional<std::string> readSourceFile(const std::string &Path,
                                          const char **WhyNot = nullptr) {
  auto Fail = [&](const char *Why) -> std::optional<std::string> {
    if (WhyNot)
      *WhyNot = Why;
    return std::nullopt;
  };
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return Fail("cannot open file");
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    ::close(Fd);
    return Fail("cannot open file");
  }
  if (S_ISDIR(St.st_mode)) {
    ::close(Fd);
    return Fail("is a directory");
  }
  // A regular file is read in one call of its fstat size; anything else
  // (a pipe, a device reporting size 0) is read to end of file.
  const bool Regular = S_ISREG(St.st_mode);
  const size_t Size = static_cast<size_t>(St.st_size);
  std::string Out(Regular ? Size : 4096, '\0');
  size_t Got = 0;
  for (;;) {
    if (Regular && Got == Size)
      break;
    if (Got == Out.size())
      Out.resize(Out.size() * 2);
    ssize_t N = ::read(Fd, Out.data() + Got, Out.size() - Got);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0) {
      ::close(Fd);
      return Fail("cannot open file");
    }
    if (N == 0)
      break;
    Got += static_cast<size_t>(N);
  }
  ::close(Fd);
  Out.resize(Got);
  return Out;
}

/// The report of a file that was never analyzed.
FileReport skippedFile(const std::string &Path, std::string Reason) {
  FileReport R;
  R.Path = Path;
  R.Status = EngineStatus::Skipped;
  R.Reason = std::move(Reason);
  return R;
}

} // namespace

FileReport AnalysisEngine::analyzeFile(const std::string &Path) {
  const char *WhyNot = nullptr;
  std::optional<std::string> Source = readSourceFile(Path, &WhyNot);
  if (!Source)
    return skippedFile(Path, WhyNot);
  return analyzeSource(*Source, Path);
}

//===----------------------------------------------------------------------===//
// Cache key derivation and report serialization
//===----------------------------------------------------------------------===//

/// The FileReport serialization schema version, shared with --version and
/// the serve daemon's serverInfo via diag/Version.h. It feeds the cache
/// salt, so old entries stop matching instead of misparsing.
static constexpr uint64_t ReportSchemaVersion = version::ReportSchemaVersion;

uint64_t rs::engine::fingerprintSource(std::string_view Source) {
  // Canonicalize CRLF -> LF so checkouts differing only in line endings
  // share cache entries. Sources without a '\r' — the overwhelmingly
  // common case — hash in 8-byte chunks straight off the buffer; any
  // '\r' takes the materialize-then-hash path so both spellings of the
  // same canonical bytes agree (a lone '\r' is content and is kept).
  if (Source.find('\r') == std::string_view::npos)
    return hashCanonicalBytes(Source);
  std::string Canon;
  Canon.reserve(Source.size());
  for (size_t I = 0; I < Source.size(); ++I)
    if (!(Source[I] == '\r' && I + 1 < Source.size() &&
          Source[I + 1] == '\n'))
      Canon.push_back(Source[I]);
  return hashCanonicalBytes(Canon);
}

uint64_t rs::engine::cacheSalt(const EngineOptions &Opts,
                               const std::vector<std::string> &DetectorNames) {
  uint64_t H = fnv1a64("rustsight-filereport");
  H = fnv1a64U64(ReportSchemaVersion, H);
  for (const std::string &Name : DetectorNames) {
    H = fnv1a64(Name, H);
    H = fnv1a64("\n", H); // Separator: {"ab"} must differ from {"a","b"}.
  }
  H = fnv1a64U64(Opts.BudgetMs, H);
  H = fnv1a64U64(Opts.MaxFileSteps, H);
  H = fnv1a64U64(Opts.MaxDataflowIters, H);
  H = fnv1a64U64(Opts.MaxSummaryRounds, H);
  return H;
}

uint64_t rs::engine::cacheKey(uint64_t SourceFingerprint, uint64_t Salt) {
  return fnv1a64U64(SourceFingerprint, Salt);
}

uint64_t rs::engine::snapshotCacheKey(uint64_t SourceFingerprint) {
  uint64_t H = fnv1a64("rustsight-mir-snapshot");
  H = fnv1a64U64(mir::snapshot::SnapshotSchemaVersion, H);
  H = fnv1a64U64(Symbol::EpochVersion, H);
  return fnv1a64U64(SourceFingerprint, H);
}

namespace {

bool severityFromName(std::string_view Name, diag::Severity &Out) {
  if (Name == "error")
    Out = diag::Severity::Error;
  else if (Name == "warning")
    Out = diag::Severity::Warning;
  else if (Name == "note")
    Out = diag::Severity::Note;
  else
    return false;
  return true;
}

/// Writes one diagnostic into the cache payload. The primary location's
/// file name is omitted: it re-anchors to whatever path the content shows
/// up at on the way back in (fingerprints are recomputed from the
/// re-anchored locations, so they follow). Secondary spans and fix-its
/// carry an explicit "file" only when they point into a counterpart file
/// (whole-program link findings, schema v4) — those names are corpus
/// identities and must survive the round trip verbatim.
bool isCounterpart(const SourceLocation &Loc, const std::string &OwnPath) {
  return Loc.isValid() && !Loc.file().empty() && Loc.file() != OwnPath;
}

void writeCounterpartFile(JsonWriter &W, const SourceLocation &Loc,
                          const std::string &OwnPath) {
  if (isCounterpart(Loc, OwnPath))
    W.field("file", Loc.file());
}

void writeCachedDiagnostic(JsonWriter &W, const diag::Diagnostic &D,
                           const std::string &OwnPath) {
  W.beginObject();
  W.field("rule", diag::ruleStringId(D.Kind));
  W.field("severity", diag::severityName(D.Sev));
  W.field("function", D.Function);
  W.field("block", static_cast<int64_t>(D.Block));
  W.field("statement", static_cast<int64_t>(D.StmtIndex));
  W.field("message", D.Message);
  W.field("line", static_cast<int64_t>(D.Loc.line()));
  W.field("col", static_cast<int64_t>(D.Loc.column()));
  if (!D.Secondary.empty()) {
    W.key("secondary");
    W.beginArray();
    for (const diag::Span &S : D.Secondary) {
      W.beginObject();
      W.field("line", static_cast<int64_t>(S.Loc.line()));
      W.field("col", static_cast<int64_t>(S.Loc.column()));
      writeCounterpartFile(W, S.Loc, OwnPath);
      if (!S.Function.empty())
        W.field("function", S.Function);
      W.field("label", S.Label);
      W.endObject();
    }
    W.endArray();
  }
  if (!D.Notes.empty()) {
    W.key("notes");
    W.beginArray();
    for (const std::string &N : D.Notes)
      W.value(N);
    W.endArray();
  }
  if (!D.Fixes.empty()) {
    W.key("fixes");
    W.beginArray();
    for (const diag::FixIt &F : D.Fixes) {
      W.beginObject();
      W.field("line", static_cast<int64_t>(F.Loc.line()));
      W.field("col", static_cast<int64_t>(F.Loc.column()));
      writeCounterpartFile(W, F.Loc, OwnPath);
      W.field("replacement", F.Replacement);
      W.field("description", F.Description);
      W.endObject();
    }
    W.endArray();
  }
  W.endObject();
}

SourceLocation cachedLoc(const JsonValue &V, const std::string *File) {
  unsigned Line = static_cast<unsigned>(V.getInt("line"));
  unsigned Col = static_cast<unsigned>(V.getInt("col"));
  if (Line == 0)
    return SourceLocation();
  // An explicit "file" is a counterpart-file span (schema v4): keep it
  // verbatim instead of re-anchoring to the report's own path.
  std::string_view Counterpart = V.getString("file");
  if (!Counterpart.empty())
    File = internFileName(std::string(Counterpart));
  return SourceLocation(File, Line, Col);
}

bool readCachedDiagnostic(const JsonValue &V, const std::string *File,
                          diag::Diagnostic &D) {
  if (!V.isObject())
    return false;
  if (!diag::ruleFromString(V.getString("rule"), D.Kind))
    return false;
  if (!severityFromName(V.getString("severity"), D.Sev))
    return false;
  D.Function = V.getString("function");
  D.Block = static_cast<mir::BlockId>(V.getInt("block"));
  D.StmtIndex = static_cast<size_t>(V.getInt("statement"));
  D.Message = V.getString("message");
  D.Loc = cachedLoc(V, File);
  if (const JsonValue *Spans = V.get("secondary")) {
    if (!Spans->isArray())
      return false;
    for (const JsonValue &S : Spans->elements()) {
      if (!S.isObject())
        return false;
      diag::Span Span;
      Span.Loc = cachedLoc(S, File);
      Span.Function = S.getString("function");
      Span.Label = S.getString("label");
      D.Secondary.push_back(std::move(Span));
    }
  }
  if (const JsonValue *Notes = V.get("notes")) {
    if (!Notes->isArray())
      return false;
    for (const JsonValue &N : Notes->elements())
      D.Notes.push_back(N.isString() ? N.asString() : std::string());
  }
  if (const JsonValue *Fixes = V.get("fixes")) {
    if (!Fixes->isArray())
      return false;
    for (const JsonValue &FV : Fixes->elements()) {
      if (!FV.isObject())
        return false;
      diag::FixIt F;
      F.Loc = cachedLoc(FV, File);
      F.Replacement = FV.getString("replacement");
      F.Description = FV.getString("description");
      D.Fixes.push_back(std::move(F));
    }
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Report cache payloads
//===----------------------------------------------------------------------===//
//
// A cached FileReport is binary: magic "RSFR", the schema version, the
// detector outcomes (count, then name and finding count each), the findings
// and the notices (count, then one diagnostic each), and the suppressed-
// finding count. A diagnostic is its rule string ID, severity, function,
// block, statement index, message and primary location, then its secondary
// spans (location, function, label), notes and fix-its (location,
// replacement, description), each list a count plus its items. A location
// is line, column and a counterpart file name, empty when the location
// re-anchors to the report's own path (see isCounterpart). Every
// integer is a LEB128 varint and every string a varint length plus bytes.
// Anything that does not decode exactly, to the last byte, is a miss.

namespace {

constexpr char ReportMagic[4] = {'R', 'S', 'F', 'R'};

void putVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>(V | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

void putString(std::string &Out, std::string_view S) {
  putVarint(Out, S.size());
  Out += S;
}

void putLoc(std::string &Out, const SourceLocation &Loc,
            const std::string &OwnPath) {
  putVarint(Out, Loc.line());
  putVarint(Out, Loc.column());
  putString(Out, isCounterpart(Loc, OwnPath) ? std::string_view(Loc.file())
                                             : std::string_view());
}

void putDiagnostic(std::string &Out, const diag::Diagnostic &D,
                   const std::string &OwnPath) {
  putString(Out, diag::ruleStringId(D.Kind));
  putVarint(Out, static_cast<uint64_t>(D.Sev));
  putString(Out, D.Function);
  putVarint(Out, D.Block);
  putVarint(Out, D.StmtIndex);
  putString(Out, D.Message);
  putLoc(Out, D.Loc, OwnPath);
  putVarint(Out, D.Secondary.size());
  for (const diag::Span &S : D.Secondary) {
    putLoc(Out, S.Loc, OwnPath);
    putString(Out, S.Function);
    putString(Out, S.Label);
  }
  putVarint(Out, D.Notes.size());
  for (const std::string &N : D.Notes)
    putString(Out, N);
  putVarint(Out, D.Fixes.size());
  for (const diag::FixIt &F : D.Fixes) {
    putLoc(Out, F.Loc, OwnPath);
    putString(Out, F.Replacement);
    putString(Out, F.Description);
  }
}

/// Bounds-checked reader for the engine's binary payloads (report entries
/// and module-blob facts sections); any overrun or malformed varint
/// latches Ok = false and reads as zero or empty from then on.
struct ByteReader {
  std::string_view B;
  size_t Pos = 0;
  bool Ok = true;

  /// A little-endian integer of \p Bytes bytes.
  uint64_t get(unsigned Bytes) {
    if (!Ok || B.size() - Pos < Bytes) {
      Ok = false;
      return 0;
    }
    uint64_t V = 0;
    for (unsigned I = 0; I != Bytes; ++I)
      V |= uint64_t(static_cast<unsigned char>(B[Pos + I])) << (8 * I);
    Pos += Bytes;
    return V;
  }

  /// A string with a 4-byte little-endian length.
  std::string_view bytes() { return take(get(4)); }

  /// A LEB128 varint.
  uint64_t varint() {
    uint64_t V = 0;
    for (unsigned Shift = 0; Ok && Pos != B.size(); Shift += 7) {
      uint64_t Byte = static_cast<unsigned char>(B[Pos++]);
      // The tenth byte may only carry the top bit of a 64-bit value.
      if (Shift == 63 && Byte > 1)
        break;
      V |= (Byte & 0x7f) << Shift;
      if (!(Byte & 0x80))
        return V;
    }
    Ok = false;
    return 0;
  }

  /// A list length. Every item takes at least one byte, so a length past
  /// the bytes left is a lie.
  uint64_t count() {
    uint64_t N = varint();
    if (N > B.size() - Pos)
      Ok = false;
    return Ok ? N : 0;
  }

  /// A string with a varint length.
  std::string_view str() { return take(varint()); }

private:
  std::string_view take(uint64_t Len) {
    if (!Ok || Len > B.size() - Pos) {
      Ok = false;
      return {};
    }
    std::string_view S = B.substr(Pos, Len);
    Pos += Len;
    return S;
  }
};

SourceLocation readLoc(ByteReader &R, const std::string *File) {
  unsigned Line = static_cast<unsigned>(R.varint());
  unsigned Col = static_cast<unsigned>(R.varint());
  std::string_view Counterpart = R.str();
  if (Line == 0)
    return SourceLocation();
  if (!Counterpart.empty())
    File = internFileName(Counterpart);
  return SourceLocation(File, Line, Col);
}

bool readDiagnostic(ByteReader &R, const std::string *File,
                    diag::Diagnostic &D) {
  if (!diag::ruleFromString(R.str(), D.Kind))
    return false;
  uint64_t Sev = R.varint();
  if (Sev > static_cast<uint64_t>(diag::Severity::Note))
    return false;
  D.Sev = static_cast<diag::Severity>(Sev);
  D.Function = R.str();
  D.Block = static_cast<mir::BlockId>(R.varint());
  D.StmtIndex = static_cast<size_t>(R.varint());
  D.Message = R.str();
  D.Loc = readLoc(R, File);
  for (uint64_t I = 0, N = R.count(); I != N && R.Ok; ++I) {
    diag::Span S;
    S.Loc = readLoc(R, File);
    S.Function = R.str();
    S.Label = R.str();
    D.Secondary.push_back(std::move(S));
  }
  for (uint64_t I = 0, N = R.count(); I != N && R.Ok; ++I)
    D.Notes.emplace_back(R.str());
  for (uint64_t I = 0, N = R.count(); I != N && R.Ok; ++I) {
    diag::FixIt F;
    F.Loc = readLoc(R, File);
    F.Replacement = R.str();
    F.Description = R.str();
    D.Fixes.push_back(std::move(F));
  }
  return R.Ok;
}

} // namespace

std::string rs::engine::serializeFileReport(const FileReport &R) {
  std::string Out(ReportMagic, 4);
  putVarint(Out, ReportSchemaVersion);
  putVarint(Out, R.Detectors.size());
  for (const DetectorOutcome &D : R.Detectors) {
    putString(Out, D.Name);
    putVarint(Out, D.Findings);
  }
  putVarint(Out, R.Findings.size());
  for (const detectors::Diagnostic &D : R.Findings)
    putDiagnostic(Out, D, R.Path);
  putVarint(Out, R.Notices.size());
  for (const diag::Diagnostic &D : R.Notices)
    putDiagnostic(Out, D, R.Path);
  putVarint(Out, R.SuppressedFindings);
  return Out;
}

std::optional<FileReport>
rs::engine::deserializeFileReport(std::string_view Payload,
                                  const std::string &Path) {
  if (Payload.size() < 4 || std::memcmp(Payload.data(), ReportMagic, 4) != 0)
    return std::nullopt;
  ByteReader In{Payload, 4};
  if (In.varint() != ReportSchemaVersion || !In.Ok)
    return std::nullopt;

  FileReport R;
  R.Path = Path;
  R.Status = EngineStatus::Ok; // Only clean reports are ever cached.
  for (uint64_t I = 0, N = In.count(); I != N && In.Ok; ++I) {
    DetectorOutcome O;
    O.Name = In.str();
    O.Status = EngineStatus::Ok;
    O.Findings = static_cast<size_t>(In.varint());
    R.Detectors.push_back(std::move(O));
  }
  const std::string *File = internFileName(Path);
  auto ReadDiagnostics = [&](std::vector<diag::Diagnostic> &Out) {
    for (uint64_t I = 0, N = In.count(); I != N && In.Ok; ++I) {
      diag::Diagnostic D;
      if (!readDiagnostic(In, File, D))
        return false;
      Out.push_back(std::move(D));
    }
    return In.Ok;
  };
  if (!ReadDiagnostics(R.Findings) || !ReadDiagnostics(R.Notices))
    return std::nullopt;
  R.SuppressedFindings = static_cast<size_t>(In.varint());
  if (!In.Ok || In.Pos != Payload.size())
    return std::nullopt;
  return R;
}

//===----------------------------------------------------------------------===//
// Wire serialization (worker protocol + checkpoint journal)
//===----------------------------------------------------------------------===//

namespace {

bool engineStatusFromName(std::string_view Name, EngineStatus &Out) {
  if (Name == "ok")
    Out = EngineStatus::Ok;
  else if (Name == "degraded")
    Out = EngineStatus::Degraded;
  else if (Name == "skipped")
    Out = EngineStatus::Skipped;
  else
    return false;
  return true;
}

bool readWireDiagnostics(const JsonValue *Arr, const std::string *File,
                         std::vector<diag::Diagnostic> &Out) {
  if (!Arr)
    return true; // Absent array == empty.
  if (!Arr->isArray())
    return false;
  for (const JsonValue &V : Arr->elements()) {
    diag::Diagnostic D;
    if (!readCachedDiagnostic(V, File, D))
      return false;
    Out.push_back(std::move(D));
  }
  return true;
}

} // namespace

std::string rs::engine::serializeWireFileReport(const FileReport &R) {
  JsonWriter W;
  W.beginObject();
  W.field("v", static_cast<int64_t>(ReportSchemaVersion));
  W.field("path", R.Path);
  W.field("status", engineStatusName(R.Status));
  if (!R.Reason.empty())
    W.field("reason", R.Reason);
  if (R.ItemsDropped != 0)
    W.field("items_dropped", static_cast<int64_t>(R.ItemsDropped));
  if (R.SuppressedFindings != 0)
    W.field("suppressed", static_cast<int64_t>(R.SuppressedFindings));
  if (R.BaselinedFindings != 0)
    W.field("baselined", static_cast<int64_t>(R.BaselinedFindings));
  auto WriteDiags = [&](const char *Key,
                        const std::vector<diag::Diagnostic> &Diags) {
    if (Diags.empty())
      return;
    W.key(Key);
    W.beginArray();
    for (const diag::Diagnostic &D : Diags)
      writeCachedDiagnostic(W, D, R.Path);
    W.endArray();
  };
  WriteDiags("parse_errors", R.ParseErrors);
  WriteDiags("verifier_errors", R.VerifierErrors);
  WriteDiags("notices", R.Notices);
  W.key("detectors");
  W.beginArray();
  for (const DetectorOutcome &D : R.Detectors) {
    W.beginObject();
    W.field("name", D.Name);
    W.field("status", engineStatusName(D.Status));
    if (!D.Note.empty())
      W.field("note", D.Note);
    W.field("findings", static_cast<int64_t>(D.Findings));
    W.endObject();
  }
  W.endArray();
  WriteDiags("findings", R.Findings);
  W.endObject();
  return W.str();
}

std::optional<FileReport>
rs::engine::fileReportFromJson(const JsonValue &Doc) {
  if (!Doc.isObject())
    return std::nullopt;
  if (Doc.getInt("v", -1) != static_cast<int64_t>(ReportSchemaVersion))
    return std::nullopt;
  FileReport R;
  R.Path = std::string(Doc.getString("path"));
  if (R.Path.empty())
    return std::nullopt;
  if (!engineStatusFromName(Doc.getString("status"), R.Status))
    return std::nullopt;
  R.Reason = std::string(Doc.getString("reason"));
  R.ItemsDropped = static_cast<unsigned>(Doc.getInt("items_dropped", 0));
  R.SuppressedFindings = static_cast<size_t>(Doc.getInt("suppressed", 0));
  R.BaselinedFindings = static_cast<size_t>(Doc.getInt("baselined", 0));

  const std::string *File = internFileName(R.Path);
  if (!readWireDiagnostics(Doc.get("parse_errors"), File, R.ParseErrors) ||
      !readWireDiagnostics(Doc.get("verifier_errors"), File,
                           R.VerifierErrors) ||
      !readWireDiagnostics(Doc.get("notices"), File, R.Notices) ||
      !readWireDiagnostics(Doc.get("findings"), File, R.Findings))
    return std::nullopt;

  const JsonValue *Dets = Doc.get("detectors");
  if (!Dets || !Dets->isArray())
    return std::nullopt;
  for (const JsonValue &D : Dets->elements()) {
    if (!D.isObject())
      return std::nullopt;
    DetectorOutcome O;
    O.Name = std::string(D.getString("name"));
    if (!engineStatusFromName(D.getString("status"), O.Status))
      return std::nullopt;
    O.Note = std::string(D.getString("note"));
    O.Findings = static_cast<size_t>(D.getInt("findings"));
    R.Detectors.push_back(std::move(O));
  }
  return R;
}

std::optional<FileReport>
rs::engine::deserializeWireFileReport(std::string_view Payload) {
  std::optional<JsonValue> Doc = JsonValue::parse(Payload);
  if (!Doc)
    return std::nullopt;
  return fileReportFromJson(*Doc);
}

//===----------------------------------------------------------------------===//
// Module blobs: a MIR snapshot followed by the module's link facts
//===----------------------------------------------------------------------===//
//
// The blob stored under snapshotCacheKey(Fp) is a MIR snapshot, optionally
// followed by a facts section holding the module's link facts, so a warm
// linked run goes from source fingerprint to link facts without decoding
// the module. The engine composes the two halves (rs_mir cannot depend on
// the link layer); mir::snapshot::encodedSize() finds the seam.
//
// Facts section (integers little-endian):
//   magic "RSLF" (4), version u32, fingerprint u64, payload size u64,
//   payload checksum u64, then the payload: u32 function count, and per
//   function its name, u32 argument count, u64 body fingerprint, u32 callee
//   count and the callee names (every string a u32 length plus bytes).
//
// The path is not stored: like report entries, facts re-anchor at whatever
// path the content shows up at. A section that is absent, truncated,
// corrupt, from another version or for another fingerprint reads as
// absent, and the module takes the cold path (decode or parse, collect,
// rewrite the blob). Only link-clean modules — clean parse, verifier pass —
// are ever snapshotted, so an intact blob already implies the module can
// join the link.

namespace {

/// Bump on any layout change, and on any change to what
/// analysis::collectModuleFacts computes (the body fingerprint recipe,
/// callee extraction): stale sections then read as absent.
constexpr uint32_t FactsSectionVersion = 1;
constexpr char FactsMagic[4] = {'R', 'S', 'L', 'F'};
constexpr size_t FactsHeaderSize = 4 + 4 + 8 + 8 + 8;

void putLE(std::string &Out, uint64_t V, unsigned Bytes) {
  for (unsigned I = 0; I != Bytes; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putBytes(std::string &Out, std::string_view S) {
  putLE(Out, S.size(), 4);
  Out += S;
}

std::string encodeFactsSection(const analysis::ModuleFacts &Facts,
                               uint64_t Fp) {
  std::string Payload;
  putLE(Payload, Facts.Functions.size(), 4);
  for (const analysis::FunctionFacts &FF : Facts.Functions) {
    putBytes(Payload, FF.Name);
    putLE(Payload, FF.NumArgs, 4);
    putLE(Payload, FF.BodyFp, 8);
    putLE(Payload, FF.Callees.size(), 4);
    for (const std::string &C : FF.Callees)
      putBytes(Payload, C);
  }
  std::string Out(FactsMagic, 4);
  putLE(Out, FactsSectionVersion, 4);
  putLE(Out, Fp, 8);
  putLE(Out, Payload.size(), 8);
  putLE(Out, hashCanonicalBytes(Payload), 8);
  return Out + Payload;
}

std::optional<analysis::ModuleFacts>
decodeFactsSection(std::string_view Bytes, uint64_t Fp,
                   const std::string &Path) {
  if (Bytes.size() < FactsHeaderSize ||
      std::memcmp(Bytes.data(), FactsMagic, 4) != 0)
    return std::nullopt;
  ByteReader H{Bytes.substr(4, FactsHeaderSize - 4)};
  uint64_t Version = H.get(4);
  uint64_t StoredFp = H.get(8);
  uint64_t Size = H.get(8);
  uint64_t Checksum = H.get(8);
  std::string_view Payload = Bytes.substr(FactsHeaderSize);
  if (!H.Ok || Version != FactsSectionVersion || StoredFp != Fp ||
      Payload.size() != Size || hashCanonicalBytes(Payload) != Checksum)
    return std::nullopt;

  ByteReader R{Payload};
  analysis::ModuleFacts Facts;
  Facts.Path = Path;
  uint64_t NumFns = R.get(4);
  // Every record takes at least 20 bytes; a count beyond that is a lie
  // that must not drive an allocation.
  if (NumFns > Payload.size() / 20)
    return std::nullopt;
  Facts.Functions.reserve(NumFns);
  for (uint64_t I = 0; I != NumFns && R.Ok; ++I) {
    analysis::FunctionFacts FF;
    FF.Name = std::string(R.bytes());
    FF.NumArgs = static_cast<unsigned>(R.get(4));
    FF.BodyFp = R.get(8);
    uint64_t NumCallees = R.get(4);
    if (FF.Name.empty() || NumCallees > Payload.size())
      return std::nullopt;
    for (uint64_t C = 0; C != NumCallees && R.Ok; ++C)
      FF.Callees.emplace_back(R.bytes());
    Facts.Functions.push_back(std::move(FF));
  }
  if (!R.Ok || R.Pos != Payload.size())
    return std::nullopt;
  return Facts;
}

/// The two halves of a module blob. A blob without a well-formed snapshot
/// header is all "snapshot", which snapshot::read then rejects.
struct ModuleBlobParts {
  std::string_view Snapshot;
  std::string_view Facts;
};

/// The module blob for \p Snapshot (a snapshot of the module whose source
/// fingerprint is \p Fp) and its link facts.
std::string composeModuleBlob(std::string Snapshot,
                              const analysis::ModuleFacts &Facts,
                              uint64_t Fp) {
  return Snapshot + encodeFactsSection(Facts, Fp);
}

ModuleBlobParts splitModuleBlob(std::string_view Blob) {
  std::optional<size_t> Len = mir::snapshot::encodedSize(Blob);
  if (!Len)
    return {Blob, {}};
  return {Blob.substr(0, *Len), Blob.substr(*Len)};
}

std::optional<mir::Module> readSnapshotHalf(std::string_view Blob,
                                            uint64_t Fp) {
  return mir::snapshot::read(splitModuleBlob(Blob).Snapshot, &Fp);
}

/// The report cache key of a file. A linked file folds its link digest in:
/// a change to a callee body in another corpus file must invalidate this
/// file's entry even though this file's bytes are unchanged. Files that
/// resolve nothing (digest 0) share their entries with per-file runs.
uint64_t reportKey(uint64_t Fp, uint64_t Salt, uint64_t LinkDigest) {
  uint64_t Key = cacheKey(Fp, Salt);
  return LinkDigest == 0 ? Key : fnv1a64U64(LinkDigest, Key);
}

/// Parse + verify for the link: only a fully clean module qualifies —
/// recovered parses carry dropped items a linked summary must not pretend
/// to cover, and such files fall back to the per-file pipeline, which
/// reports them with its usual recovery/skip statuses.
std::optional<mir::Module> parseLinkClean(std::string_view Source,
                                          const std::string &Path) {
  try {
    if (fault::shouldFail("engine.parse"))
      throw std::runtime_error("injected fault at probe engine.parse");
    mir::ModuleParse P = mir::Parser::parseRecover(Source, Path);
    if (!P.Errors.empty())
      return std::nullopt;
    if (fault::shouldFail("engine.verify"))
      throw std::runtime_error("injected fault at probe engine.verify");
    std::vector<Error> VErr;
    if (!mir::verifyModule(P.M, VErr))
      return std::nullopt;
    return std::move(P.M);
  } catch (...) {
    return std::nullopt;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// The parallel corpus driver
//===----------------------------------------------------------------------===//

void AnalysisEngine::ensureCache() {
  if (!Opts.UseCache) {
    Cache.reset();
    return;
  }
  if (Cache)
    return;
  sched::ResultCache::Options O;
  O.MaxMemoryEntries = Opts.CacheMaxEntries;
  O.DiskDir = Opts.CacheDir;
  Cache = std::make_unique<sched::ResultCache>(std::move(O));
}

void AnalysisEngine::ensureSummaryDb() {
  if (!Opts.UseCache) {
    SummaryDbPtr.reset();
    return;
  }
  if (SummaryDbPtr)
    return;
  sched::SummaryDb::Options O;
  O.DiskDir = Opts.CacheDir; // Shared root; addresses are salted apart.
  O.SchemaOverride = Opts.SummaryDbSchemaOverride;
  SummaryDbPtr = std::make_unique<sched::SummaryDb>(std::move(O));
}

std::vector<std::string> AnalysisEngine::detectorNames() {
  std::vector<std::string> Names;
  std::vector<std::unique_ptr<detectors::Detector>> Detectors =
      Factory ? Factory() : detectors::makeAllDetectors();
  Names.reserve(Detectors.size());
  for (const auto &D : Detectors)
    Names.emplace_back(D->name());
  return Names;
}

FileReport
AnalysisEngine::analyzeFileThroughCache(const std::string &Path,
                                        const analysis::ExternalSummaries *Env,
                                        uint64_t LinkDigest) {
  ensureCache();
  return analyzeFileCached(Path, cacheSalt(Opts, detectorNames()), Env,
                           LinkDigest);
}

std::optional<analysis::ModuleFacts>
AnalysisEngine::collectFileFacts(const std::string &Path) {
  ensureCache();
  std::optional<std::string> Source = readSourceFile(Path);
  if (!Source)
    return std::nullopt;
  return linkFactsFor(*Source, Path, fingerprintSource(*Source),
                      /*ModuleOut=*/nullptr, /*Decodes=*/nullptr);
}

std::optional<analysis::ModuleSummaries>
AnalysisEngine::summarizeFileForLink(const std::string &Path,
                                     uint32_t ModuleIdx,
                                     const analysis::ExternalSummaries &Env) {
  ensureCache();
  std::optional<std::string> Source = readSourceFile(Path);
  if (!Source)
    return std::nullopt;
  std::optional<mir::Module> M = materializeModule(
      *Source, Path, fingerprintSource(*Source), /*Decodes=*/nullptr);
  if (!M)
    return std::nullopt;
  try {
    return analysis::summarizeLinkedModule(
        *M, ModuleIdx, Env,
        Opts.MaxSummaryRounds ? Opts.MaxSummaryRounds : 8);
  } catch (...) {
    // Containment: a summarization fault degrades this module to "no
    // contribution" rather than killing the run; the solver treats a
    // missing round result as unchanged.
    return std::nullopt;
  }
}

FileReport AnalysisEngine::analyzeSourceThroughCache(std::string_view Source,
                                                     const std::string &Path) {
  ensureCache();
  return analyzeSourceCached(Source, Path, cacheSalt(Opts, detectorNames()),
                             /*Ext=*/nullptr, /*LinkDigest=*/0);
}

FileReport AnalysisEngine::analyzeFileCached(const std::string &Path,
                                             uint64_t Salt,
                                             const analysis::ExternalSummaries *Ext,
                                             uint64_t LinkDigest) {
  const char *WhyNot = nullptr;
  std::optional<std::string> Source = readSourceFile(Path, &WhyNot);
  if (!Source)
    return skippedFile(Path, WhyNot);
  return analyzeSourceCached(*Source, Path, Salt, Ext, LinkDigest);
}

FileReport AnalysisEngine::analyzeSourceCached(
    std::string_view Source, const std::string &Path, uint64_t Salt,
    const analysis::ExternalSummaries *Ext, uint64_t LinkDigest) {
  if (!Cache)
    return analyzeSourceImpl(Source, Path, /*StoreSnapshot=*/false,
                             /*SnapKey=*/0, /*Fingerprint=*/0, Ext);

  uint64_t Fp = fingerprintSource(Source);
  uint64_t Key = reportKey(Fp, Salt, LinkDigest);
  if (std::optional<std::string> Payload = Cache->lookup(Key))
    if (std::optional<FileReport> R = deserializeFileReport(*Payload, Path))
      return std::move(*R);

  // Report miss: a parsed-MIR snapshot (keyed by content only, not by the
  // detector salt) lets us run detectors without lexing or parsing — the
  // common case after a detector or option change, and the whole point of
  // the binary snapshot layer on a cold disk-warm corpus. A defective
  // snapshot is a miss, never an error. lookupBlobRef maps the envelope in
  // place; the decoder borrows the mapped bytes until the Module owns them.
  uint64_t SnapKey = snapshotCacheKey(Fp);
  std::optional<mir::Module> M;
  if (std::optional<sched::ResultCache::BlobRef> Blob =
          Cache->lookupBlobRef(SnapKey))
    M = readSnapshotHalf(Blob->bytes(), Fp);
  FileReport R = M ? analyzeParsedModule(*M, Source, Path, Ext)
                   : analyzeSourceImpl(Source, Path, /*StoreSnapshot=*/true,
                                       SnapKey, Fp, Ext);
  // Only clean results are cached: degraded/skipped outcomes depend on
  // wall-clock budgets and embed path-bearing error text, neither of which
  // belongs in a content-addressed entry.
  if (R.Status == EngineStatus::Ok)
    Cache->store(Key, serializeFileReport(R));
  return R;
}

std::optional<analysis::ModuleFacts>
AnalysisEngine::linkFactsFor(std::string_view Source, const std::string &Path,
                             uint64_t Fp,
                             std::optional<mir::Module> *ModuleOut,
                             std::atomic<unsigned> *Decodes) {
  const uint64_t SnapKey = snapshotCacheKey(Fp);
  std::optional<mir::Module> M;
  std::string Snapshot; // The blob's intact snapshot half, reused below.
  if (Cache)
    if (std::optional<sched::ResultCache::BlobRef> Blob =
            Cache->lookupBlobRef(SnapKey)) {
      ModuleBlobParts Parts = splitModuleBlob(Blob->bytes());
      if (std::optional<analysis::ModuleFacts> Facts =
              decodeFactsSection(Parts.Facts, Fp, Path))
        return Facts;
      M = mir::snapshot::read(Parts.Snapshot, &Fp);
      if (M)
        Snapshot = std::string(Parts.Snapshot);
    }
  if (!M)
    M = parseLinkClean(Source, Path);
  if (!M)
    return std::nullopt;
  if (Decodes)
    ++*Decodes;
  analysis::ModuleFacts Facts = analysis::collectModuleFacts(*M, Path);
  if (Cache)
    Cache->storeBlob(SnapKey,
                     composeModuleBlob(Snapshot.empty()
                                           ? mir::snapshot::write(*M, Fp)
                                           : std::move(Snapshot),
                                       Facts, Fp));
  if (ModuleOut)
    *ModuleOut = std::move(M);
  return Facts;
}

std::optional<mir::Module>
AnalysisEngine::materializeModule(std::string_view Source,
                                  const std::string &Path, uint64_t Fp,
                                  std::atomic<unsigned> *Decodes) {
  const uint64_t SnapKey = snapshotCacheKey(Fp);
  std::optional<mir::Module> M;
  if (Cache)
    if (std::optional<sched::ResultCache::BlobRef> Blob =
            Cache->lookupBlobRef(SnapKey))
      M = readSnapshotHalf(Blob->bytes(), Fp);
  if (!M) {
    M = parseLinkClean(Source, Path);
    if (!M)
      return std::nullopt;
    if (Cache)
      Cache->storeBlob(SnapKey,
                       composeModuleBlob(mir::snapshot::write(*M, Fp),
                                         analysis::collectModuleFacts(*M, Path),
                                         Fp));
  }
  if (Decodes)
    ++*Decodes;
  return M;
}

CorpusReport AnalysisEngine::analyzeCorpus(const std::vector<std::string> &Paths) {
  auto Start = std::chrono::steady_clock::now();
  std::vector<corpus::CorpusInput> Inputs = corpus::expandMirPaths(Paths);

  // Per-file mode is the linked pipeline resolving nothing: without the
  // link no file joins it, and phase C gives every file the per-file path.
  size_t Analyzable = 0;
  for (const corpus::CorpusInput &In : Inputs)
    Analyzable += In.SkipReason.empty();
  const bool Linked =
      Opts.WholeProgram == WholeProgramMode::On ||
      (Opts.WholeProgram == WholeProgramMode::Auto && Analyzable > 1);

  CorpusReport Report;
  Report.Files.resize(Inputs.size());

  const sched::ResultCache::Stats Before = beginCacheRun();
  const uint64_t Salt = cacheSalt(Opts, detectorNames());
  const unsigned MaxRounds = Opts.MaxSummaryRounds ? Opts.MaxSummaryRounds : 8;

  unsigned Jobs =
      Opts.Jobs == 0 ? sched::ThreadPool::defaultWorkerCount() : Opts.Jobs;
  if (Jobs > Inputs.size() && !Inputs.empty())
    Jobs = unsigned(Inputs.size());
  if (Jobs < 1)
    Jobs = 1;
  // One pool for the whole run — every phase and every summarize round —
  // created by the first phase wide enough to need it.
  std::optional<sched::ThreadPool> Pool;
  auto RunParallel = [&](size_t N, const std::function<void(size_t)> &Fn) {
    if (N == 0)
      return;
    if (Jobs <= 1 || N == 1) {
      for (size_t I = 0; I != N; ++I)
        Fn(I);
      return;
    }
    if (!Pool)
      Pool.emplace(Jobs);
    sched::parallelFor(*Pool, N, Fn);
  };

  // Phase A (linked runs): read and fingerprint every analyzable input and
  // take its link facts — from the facts section of its module blob when
  // the cache has one, so a warm run decodes nothing here. Only link-clean
  // modules (parse without recovery, verifier pass) join the link; the rest
  // take the per-file path in phase C so their recovery/skip reporting is
  // byte-identical to a per-file run. A module is decoded (or parsed) only
  // when phase C misses its report or the solver has to summarize it.
  struct LinkSource {
    std::string Source;
    uint64_t Fp = 0;
    std::optional<analysis::ModuleFacts> Facts;
    std::optional<mir::Module> M; ///< Materialized on demand.
  };
  std::vector<LinkSource> Mods(Linked ? Inputs.size() : 0);
  std::atomic<unsigned> Decodes{0};
  if (Linked) {
    ensureSummaryDb();
    RunParallel(Inputs.size(), [&](size_t I) {
      if (!Inputs[I].SkipReason.empty())
        return;
      std::optional<std::string> Source = readSourceFile(Inputs[I].Path);
      if (!Source)
        return;
      LinkSource &L = Mods[I];
      L.Source = std::move(*Source);
      L.Fp = fingerprintSource(L.Source);
      L.Facts = linkFactsFor(L.Source, Inputs[I].Path, L.Fp, &L.M, &Decodes);
    });
  }
  auto Materialize = [&](size_t I) -> const mir::Module * {
    LinkSource &L = Mods[I];
    if (!L.M)
      L.M = materializeModule(L.Source, Inputs[I].Path, L.Fp, &Decodes);
    return L.M ? &*L.M : nullptr;
  };

  // Phase B: link. Facts enter in input order — the determinism anchor the
  // first-definition-wins rule and the shard fleet both key on. A per-file
  // run links nothing and skips the solver.
  std::vector<analysis::ModuleFacts> Facts;
  std::vector<size_t> LinkInput; // Module index -> input ordinal.
  std::vector<uint32_t> InputModule(Inputs.size(), UINT32_MAX);
  for (size_t I = 0; I != Mods.size(); ++I)
    if (Mods[I].Facts) {
      InputModule[I] = static_cast<uint32_t>(Facts.size());
      Facts.push_back(std::move(*Mods[I].Facts));
      LinkInput.push_back(I);
    }

  analysis::LinkResult LR;
  if (Linked) {
    analysis::LinkOptions LO;
    LO.MaxSummaryRounds = MaxRounds;
    analysis::LinkDbHooks Hooks;
    if (SummaryDbPtr) {
      Hooks.Lookup = [this](uint64_t K) { return SummaryDbPtr->lookup(K); };
      Hooks.Store = [this](uint64_t K, std::string_view P) {
        SummaryDbPtr->store(K, P);
      };
    }
    // Each module index appears once per round and rounds run one after
    // another, so every task owns its LinkSource slot.
    analysis::SummarizeRoundFn Summarize =
        [&](const std::vector<uint32_t> &ModuleIdxs,
            const analysis::ExternalSummaries &Env) {
          std::vector<analysis::ModuleSummaries> Out(ModuleIdxs.size());
          RunParallel(ModuleIdxs.size(), [&](size_t I) {
            uint32_t MIdx = ModuleIdxs[I];
            Out[I].ModuleIdx = MIdx;
            try {
              const mir::Module *M = Materialize(LinkInput[MIdx]);
              if (!M)
                throw std::runtime_error("module no longer loads cleanly");
              Out[I] =
                  analysis::summarizeLinkedModule(*M, MIdx, Env, MaxRounds);
            } catch (...) {
              // Contained: this module contributes nothing this round and
              // its summaries are never persisted.
              Out[I].Functions.clear();
              Out[I].Complete = false;
            }
          });
          return Out;
        };
    LR = analysis::solveLink(analysis::LinkedCorpus::build(std::move(Facts)),
                             LO, Hooks, Summarize);
  }

  // Phase C: analyze every file. Linked files consume the converged
  // environment (their detectors see callee summaries from other files)
  // under a digest-folded cache key; everything else takes the plain
  // per-file path.
  RunParallel(Inputs.size(), [&](size_t I) {
    const corpus::CorpusInput &In = Inputs[I];
    if (!In.SkipReason.empty()) {
      Report.Files[I] = skippedFile(In.Path, In.SkipReason);
      return;
    }
    if (InputModule[I] == UINT32_MAX) {
      Report.Files[I] = analyzeFileCached(In.Path, Salt);
      return;
    }
    LinkSource &L = Mods[I];
    uint64_t Key =
        reportKey(L.Fp, Salt, LR.Corpus.linkDigest(InputModule[I]));
    if (Cache)
      if (std::optional<std::string> Payload = Cache->lookup(Key))
        if (std::optional<FileReport> R =
                deserializeFileReport(*Payload, In.Path)) {
          Report.Files[I] = std::move(*R);
          L = LinkSource();
          return;
        }
    // Lookups during analysis only use the module's own callee names, so
    // analyzing against the full environment is byte-identical to the
    // sliced environment a shard worker receives. A module that no longer
    // loads cleanly (its blob went bad and a parse fault hit) takes the
    // parse path, which reports why.
    const mir::Module *M = Materialize(I);
    FileReport R =
        M ? analyzeParsedModule(*M, L.Source, In.Path, &LR.Env)
          : analyzeSourceImpl(L.Source, In.Path, /*StoreSnapshot=*/false,
                              /*SnapKey=*/0, L.Fp, &LR.Env);
    if (Cache && R.Status == EngineStatus::Ok)
      Cache->store(Key, serializeFileReport(R));
    Report.Files[I] = std::move(R);
    L = LinkSource();
  });

  Report.finalize();
  endCacheRun(Before, Report.Stats);

  Report.Stats.Jobs = Jobs;
  Report.Stats.WallMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - Start)
                            .count();
  if (Linked) {
    Report.Stats.LinkEnabled = true;
    Report.Stats.LinkedFiles = static_cast<unsigned>(LinkInput.size());
    Report.Stats.LinkRounds = LR.Stats.Rounds;
    Report.Stats.ModulesFromSummaryDb = LR.Stats.ModulesFromDb;
    Report.Stats.SummaryDbHits = LR.Stats.DbHits;
    Report.Stats.SummaryDbMisses = LR.Stats.DbMisses;
    Report.Stats.SummaryDbStores = LR.Stats.DbStores;
    Report.Stats.ModulesUnreferenced = LR.Stats.ModulesUnreferenced;
    Report.Stats.ModulesDecoded = Decodes.load();
  }
  return Report;
}

sched::ResultCache::Stats AnalysisEngine::beginCacheRun() {
  ensureCache();
  if (!Cache)
    return {};
  sched::ResultCache::Stats Before = Cache->stats();
  Cache->openPack();
  return Before;
}

void AnalysisEngine::endCacheRun(const sched::ResultCache::Stats &Before,
                                 RunStats &Out) {
  Out.InProcess = true;
  Out.CacheEnabled = Cache != nullptr;
  if (!Cache)
    return;
  Cache->writePack();
  sched::ResultCache::Stats After = Cache->stats();
  Out.CacheHits = After.Hits - Before.Hits;
  Out.CacheMisses = After.Misses - Before.Misses;
  Out.CacheEvictions = After.Evictions - Before.Evictions;
  Out.DiskHits = After.DiskHits - Before.DiskHits;
  Out.CorruptEntries = After.CorruptEntries - Before.CorruptEntries;
  Out.PackHits = After.PackHits - Before.PackHits;
}

//===----------------------------------------------------------------------===//
// CorpusReport
//===----------------------------------------------------------------------===//

std::string RunStats::renderLine() const {
  std::string Out = "cache: ";
  if (!CacheEnabled) {
    Out += "disabled";
  } else {
    Out += std::to_string(CacheHits) + " hit(s), " +
           std::to_string(CacheMisses) + " miss(es), " +
           std::to_string(CacheEvictions) + " eviction(s)";
    if (DiskHits != 0 || CorruptEntries != 0)
      Out += " (" + std::to_string(DiskHits) + " from disk, " +
             std::to_string(CorruptEntries) + " corrupt)";
  }
  if (LinkEnabled) {
    Out += "; link: " + std::to_string(LinkedFiles) + " file(s), " +
           std::to_string(LinkRounds) + " round(s), " +
           std::to_string(ModulesFromSummaryDb) + " module(s) from summary-db";
    if (SummaryDbHits != 0 || SummaryDbMisses != 0 || SummaryDbStores != 0)
      Out += " (" + std::to_string(SummaryDbHits) + " hit(s), " +
             std::to_string(SummaryDbMisses) + " miss(es), " +
             std::to_string(SummaryDbStores) + " store(s))";
  }
  Out += "; " + formatDouble(WallMs, 1) + " ms wall-clock, " +
         std::to_string(Jobs) + " job(s)";
  // Appended last so parsers of the fields above keep matching.
  if (LinkEnabled) {
    Out += "; ";
    if (InProcess)
      Out += std::to_string(ModulesDecoded) + " module(s) decoded, ";
    Out += std::to_string(ModulesUnreferenced) + " unreferenced";
  }
  if (CacheEnabled && InProcess)
    Out += "; " + std::to_string(PackHits) + " entr(ies) from pack";
  return Out;
}

void CorpusReport::finalize() {
  for (FileReport &F : Files)
    std::stable_sort(F.Findings.begin(), F.Findings.end(),
                     diag::diagnosticLess);
}

std::vector<diag::Diagnostic> FileReport::statusDiagnostics() const {
  std::vector<diag::Diagnostic> Out;
  const std::string *File = Path.empty() ? nullptr : internFileName(Path);
  auto FileLevel = [&](diag::RuleId Rule, std::string Message) {
    diag::Diagnostic D(Rule);
    D.Message = std::move(Message);
    // Anchor at the top of the file so renderers with location-keyed
    // output (SARIF region, text header) have somewhere to point.
    if (File)
      D.Loc = SourceLocation(File, 1, 1);
    return D;
  };
  if (Status == EngineStatus::Degraded)
    Out.push_back(FileLevel(diag::RuleId::FileDegraded,
                            "analysis degraded: " + Reason));
  else if (Status == EngineStatus::Skipped)
    Out.push_back(
        FileLevel(diag::RuleId::FileSkipped, "file skipped: " + Reason));
  for (const DetectorOutcome &O : Detectors) {
    if (O.Status == EngineStatus::Ok)
      continue;
    diag::RuleId Rule = O.Status == EngineStatus::Degraded
                            ? diag::RuleId::DetectorDegraded
                            : diag::RuleId::DetectorSkipped;
    diag::Diagnostic D = FileLevel(
        Rule, "detector '" + O.Name + "' " +
                  engineStatusName(O.Status) + " on this file");
    if (!O.Note.empty())
      D.Notes.push_back(O.Note); // The budget or fault cause.
    Out.push_back(std::move(D));
  }
  return Out;
}

size_t CorpusReport::countWithStatus(EngineStatus S) const {
  size_t N = 0;
  for (const FileReport &F : Files)
    N += F.Status == S;
  return N;
}

size_t CorpusReport::totalFindings() const {
  size_t N = 0;
  for (const FileReport &F : Files)
    N += F.Findings.size();
  return N;
}

std::string CorpusReport::renderText(const diag::SourceManager *SM) const {
  std::string Out;
  for (const FileReport &F : Files) {
    Out += "== " + F.Path + ": " + engineStatusName(F.Status) + ", " +
           std::to_string(F.Findings.size()) + " finding(s)";
    if (F.SuppressedFindings != 0)
      Out += ", " + std::to_string(F.SuppressedFindings) + " suppressed";
    if (F.BaselinedFindings != 0)
      Out += ", " + std::to_string(F.BaselinedFindings) + " baselined";
    if (!F.Reason.empty())
      Out += " (" + F.Reason + ")";
    Out += " ==\n";
    for (const diag::Diagnostic &E : F.ParseErrors)
      Out += "  recovered parse error: " + E.toString() + "\n";
    for (const diag::Diagnostic &E : F.VerifierErrors)
      Out += "  verifier: " + E.toString() + "\n";
    for (const DetectorOutcome &D : F.Detectors)
      if (D.Status != EngineStatus::Ok)
        Out += "  [" + D.Name + "] " + engineStatusName(D.Status) + ": " +
               D.Note + "\n";
    for (const diag::Diagnostic &N : F.Notices)
      Out += diag::renderDiagnosticText(N, SM);
    for (const detectors::Diagnostic &Diag : F.Findings)
      Out += diag::renderDiagnosticText(Diag, SM);
  }
  return Out;
}

std::string CorpusReport::renderJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("files");
  W.beginArray();
  for (const FileReport &F : Files) {
    W.beginObject();
    W.field("path", F.Path);
    W.field("status", engineStatusName(F.Status));
    if (!F.Reason.empty())
      W.field("reason", F.Reason);
    if (!F.ParseErrors.empty()) {
      W.key("parse_errors");
      W.beginArray();
      for (const diag::Diagnostic &E : F.ParseErrors)
        diag::writeDiagnosticJson(W, E);
      W.endArray();
    }
    if (!F.VerifierErrors.empty()) {
      W.key("verifier_errors");
      W.beginArray();
      for (const diag::Diagnostic &E : F.VerifierErrors)
        diag::writeDiagnosticJson(W, E);
      W.endArray();
    }
    if (F.ItemsDropped != 0)
      W.field("items_dropped", static_cast<int64_t>(F.ItemsDropped));
    if (F.SuppressedFindings != 0)
      W.field("suppressed", static_cast<int64_t>(F.SuppressedFindings));
    if (F.BaselinedFindings != 0)
      W.field("baselined", static_cast<int64_t>(F.BaselinedFindings));
    W.key("detectors");
    W.beginArray();
    for (const DetectorOutcome &D : F.Detectors) {
      W.beginObject();
      W.field("name", D.Name);
      W.field("status", engineStatusName(D.Status));
      if (!D.Note.empty())
        W.field("note", D.Note);
      W.field("findings", static_cast<int64_t>(D.Findings));
      W.endObject();
    }
    W.endArray();
    if (!F.Notices.empty()) {
      W.key("notices");
      W.beginArray();
      for (const diag::Diagnostic &N : F.Notices)
        diag::writeDiagnosticJson(W, N);
      W.endArray();
    }
    // The per-finding objects come from writeDiagnosticJson, the single
    // diagnostic schema every JSON surface shares.
    W.key("findings");
    W.beginArray();
    for (const detectors::Diagnostic &D : F.Findings)
      diag::writeDiagnosticJson(W, D);
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.key("summary");
  W.beginObject();
  W.field("files", static_cast<int64_t>(Files.size()));
  W.field("ok", static_cast<int64_t>(countWithStatus(EngineStatus::Ok)));
  W.field("degraded",
          static_cast<int64_t>(countWithStatus(EngineStatus::Degraded)));
  W.field("skipped",
          static_cast<int64_t>(countWithStatus(EngineStatus::Skipped)));
  W.field("findings", static_cast<int64_t>(totalFindings()));
  size_t Suppressed = 0, Baselined = 0;
  for (const FileReport &F : Files) {
    Suppressed += F.SuppressedFindings;
    Baselined += F.BaselinedFindings;
  }
  W.field("suppressed", static_cast<int64_t>(Suppressed));
  W.field("baselined", static_cast<int64_t>(Baselined));
  W.endObject();
  W.endObject();
  return W.str();
}

std::string CorpusReport::renderSarif() const {
  diag::SarifWriter W;
  for (const FileReport &F : Files) {
    for (const diag::Diagnostic &E : F.ParseErrors)
      W.addResult(E, F.Path);
    for (const diag::Diagnostic &E : F.VerifierErrors)
      W.addResult(E, F.Path);
    for (const diag::Diagnostic &D : F.statusDiagnostics())
      W.addResult(D, F.Path);
    for (const diag::Diagnostic &N : F.Notices)
      W.addResult(N, F.Path);
    for (const detectors::Diagnostic &D : F.Findings)
      W.addResult(D, F.Path);
  }
  return W.finish();
}

diag::Baseline rs::engine::collectBaseline(const CorpusReport &Report) {
  diag::Baseline B;
  for (const FileReport &F : Report.Files)
    for (const detectors::Diagnostic &D : F.Findings)
      B.add(D.fingerprintHex());
  return B;
}

size_t rs::engine::applyBaseline(CorpusReport &Report,
                                 const diag::Baseline &B) {
  size_t Dropped = 0;
  for (FileReport &F : Report.Files) {
    std::vector<detectors::Diagnostic> Kept;
    Kept.reserve(F.Findings.size());
    for (detectors::Diagnostic &D : F.Findings) {
      if (B.contains(D.fingerprintHex())) {
        ++F.BaselinedFindings;
        ++Dropped;
      } else {
        Kept.push_back(std::move(D));
      }
    }
    F.Findings = std::move(Kept);
  }
  return Dropped;
}

int CorpusReport::exitCode(bool Strict) const {
  bool AnyAnalyzed = false;
  bool AnyImperfect = false;
  for (const FileReport &F : Files) {
    AnyAnalyzed |= F.analyzed();
    AnyImperfect |= F.Status != EngineStatus::Ok;
  }
  if (Files.empty() || !AnyAnalyzed)
    return 2;
  if (Strict && AnyImperfect)
    return 2;
  return totalFindings() == 0 ? 0 : 1;
}
