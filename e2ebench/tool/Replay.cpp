#include "Replay.h"
#include "Spans.h"

#include "analysis/Link.h"
#include "corpus/CorpusWalk.h"
#include "detectors/Detector.h"
#include "engine/Engine.h"
#include "engine/Supervisor.h"
#include "mir/Parser.h"
#include "mir/Snapshot.h"
#include "mir/Verifier.h"
#include "sched/ResultCache.h"
#include "sched/SummaryDb.h"
#include "serve/DocumentStore.h"
#include "serve/Server.h"
#include "serve/Transport.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

using namespace rs;
using namespace bench;
namespace fs = std::filesystem;

namespace {

using Scope = Recorder::Scope;
using Clock = std::chrono::steady_clock;

/// The edit rule every workload shares (run.py applies the same one): the
/// file's first line becomes a comment carrying the operation number,
/// replacing the previous edit's comment, so every edit is new bytes.
constexpr std::string_view EditMarker = "// e2ebench edit ";

std::string applyEdit(const std::string &Text, uint64_t Op) {
  std::string_view Body = Text;
  if (Body.substr(0, EditMarker.size()) == EditMarker) {
    size_t Nl = Body.find('\n');
    Body = Nl == std::string_view::npos ? std::string_view()
                                        : Body.substr(Nl + 1);
  }
  return std::string(EditMarker) + std::to_string(Op) + "\n" +
         std::string(Body);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
}

uint64_t countFiles(const std::string &Dir) {
  std::error_code Ec;
  uint64_t N = 0;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec))
    ++N;
  return N;
}

void resetDir(const std::string &Dir) {
  fs::remove_all(Dir);
  fs::create_directories(Dir);
}

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Work counted at the layer boundaries, per operation.
struct Counts {
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t SummaryDbHits = 0;
  uint64_t SummaryDbMisses = 0;
  uint64_t SummaryDbStores = 0;
  uint64_t LinkRounds = 0;
  uint64_t ModulesFromDb = 0;
  uint64_t FilesReanalyzed = 0;
  uint64_t Statements = 0;
  uint64_t SnapshotBytes = 0;
  uint64_t Findings = 0;
  uint64_t DiskFilesWritten = 0;
};

/// Operations whose spans go into the Chrome trace file. The per-layer
/// metrics use every operation; a few are enough to look at, and a cold
/// check operation alone records some 20,000 spans.
constexpr uint64_t TracedOpsKept = 2;

/// Spans whose callee is a whole front door rather than one layer.
bool isEntrySpan(const std::string &Name) {
  return Name == "engine.analyze_corpus" || Name == "engine.supervisor_run" ||
         Name == "serve.flush";
}

/// "detectors.<name>" span names, kept alive for the recorder.
const char *detectorSpanName(const char *Detector) {
  static std::map<std::string, std::string> Names;
  auto It = Names.find(Detector);
  if (It == Names.end())
    It = Names.emplace(Detector, std::string("detectors.") + Detector).first;
  return It->second.c_str();
}

uint64_t statementCount(const mir::Module &M) {
  uint64_t N = 0;
  for (const mir::Function &F : M.functions())
    for (const mir::BasicBlock &B : F.Blocks)
      N += B.Statements.size();
  return N;
}

/// What the engine's private per-file back half does after a report miss
/// (AnalysisEngine::runDetectors): one AnalysisContext — the summaries —
/// then every battery detector over it.
engine::FileReport analyzeModule(Recorder &Rec, const mir::Module &M,
                                 const std::string &Path,
                                 const engine::EngineOptions &Opts,
                                 const analysis::ExternalSummaries *Ext) {
  engine::FileReport R;
  R.Path = Path;
  detectors::AnalysisLimits Limits;
  Limits.MaxDataflowSteps = Opts.MaxDataflowIters;
  Limits.MaxSummaryRounds = Opts.MaxSummaryRounds;
  Limits.External = Ext && !Ext->empty() ? Ext : nullptr;
  std::optional<detectors::AnalysisContext> Ctx;
  {
    Scope S(Rec, "analysis.summaries");
    Ctx.emplace(M, Limits);
  }
  detectors::DiagnosticEngine FileDiags;
  for (const auto &D : detectors::makeAllDetectors()) {
    engine::DetectorOutcome O;
    O.Name = D->name();
    detectors::DiagnosticEngine DetDiags;
    {
      Scope S(Rec, detectorSpanName(D->name()));
      D->run(*Ctx, DetDiags);
    }
    DetDiags.sort();
    O.Findings = DetDiags.count();
    for (const detectors::Diagnostic &Diag : DetDiags.diagnostics())
      FileDiags.report(Diag);
    R.Detectors.push_back(std::move(O));
  }
  FileDiags.sort();
  R.Findings = FileDiags.take();
  R.Status = Ctx->anyDegraded() ? engine::EngineStatus::Degraded
                                : engine::EngineStatus::Ok;
  if (Ctx->anyDegraded())
    R.Reason = "analysis budget exhausted; precision degraded";
  return R;
}

/// Parse + verify, then the snapshot store — the snapshot-miss half of
/// AnalysisEngine::loadModuleForLink and analyzeSourceThroughCache.
std::optional<mir::Module> parseAndStore(Recorder &Rec,
                                         sched::ResultCache &Cache,
                                         const std::string &Source,
                                         const std::string &Path, uint64_t Fp,
                                         Counts &C) {
  mir::ModuleParse P;
  {
    Scope S(Rec, "mir.parse");
    P = mir::Parser::parseRecover(Source, Path);
  }
  if (!P.Errors.empty())
    return std::nullopt;
  {
    Scope S(Rec, "mir.verify");
    std::vector<Error> VErr;
    if (!mir::verifyModule(P.M, VErr))
      return std::nullopt;
  }
  std::string Snap;
  {
    Scope S(Rec, "mir.snapshot_write");
    Snap = mir::snapshot::write(P.M, Fp);
  }
  C.SnapshotBytes += Snap.size();
  {
    Scope S(Rec, "sched.blob_store");
    Cache.storeBlob(engine::snapshotCacheKey(Fp), Snap);
  }
  C.Statements += statementCount(P.M);
  return std::move(P.M);
}

std::optional<mir::Module> readSnapshot(Recorder &Rec,
                                        sched::ResultCache &Cache,
                                        uint64_t Fp, Counts &C) {
  std::optional<sched::ResultCache::BlobRef> Blob;
  {
    Scope S(Rec, "sched.blob_lookup");
    Blob = Cache.lookupBlobRef(engine::snapshotCacheKey(Fp));
  }
  if (!Blob)
    return std::nullopt;
  std::optional<mir::Module> M;
  {
    Scope S(Rec, "mir.snapshot_read");
    M = mir::snapshot::read(Blob->bytes(), &Fp);
  }
  if (M) {
    C.SnapshotBytes += Blob->bytes().size();
    C.Statements += statementCount(*M);
  }
  return M;
}

//===----------------------------------------------------------------------===//
// check workloads
//===----------------------------------------------------------------------===//

struct CheckConfig {
  std::string Corpus;
  bool Cold = false;
  bool Sharded = false;
  std::string RustSight;
  engine::EngineOptions Opts;
  uint64_t Salt = 0;
};

/// One `rustsight check` operation, layer by layer, in the order of
/// AnalysisEngine::analyzeCorpusLinked: load every module (snapshot or
/// parse), collect link facts, build and solve the link against the
/// SummaryDb, then per file a report-cache probe or a fresh analysis, and
/// finally the JSON render. Returns the rendered report.
std::string replayCheck(Recorder &Rec, const CheckConfig &Cfg,
                        const std::string &CacheDir, Counts &C) {
  sched::ResultCache::Options CO;
  CO.MaxMemoryEntries = Cfg.Opts.CacheMaxEntries;
  CO.DiskDir = CacheDir;
  sched::ResultCache Cache(CO);
  sched::SummaryDb::Options DO;
  DO.DiskDir = CacheDir;
  sched::SummaryDb Db(DO);

  std::vector<corpus::CorpusInput> Inputs;
  {
    Scope S(Rec, "corpus.walk");
    Inputs = corpus::expandMirPaths({Cfg.Corpus});
  }

  struct Loaded {
    std::optional<mir::Module> M;
    uint64_t Fp = 0;
  };
  std::vector<Loaded> Mods(Inputs.size());
  for (size_t I = 0; I != Inputs.size(); ++I) {
    const std::string &Path = Inputs[I].Path;
    std::string Source;
    {
      Scope S(Rec, "corpus.read");
      Source = readFile(Path);
    }
    {
      Scope S(Rec, "engine.fingerprint");
      Mods[I].Fp = engine::fingerprintSource(Source);
    }
    Mods[I].M = readSnapshot(Rec, Cache, Mods[I].Fp, C);
    if (!Mods[I].M)
      Mods[I].M = parseAndStore(Rec, Cache, Source, Path, Mods[I].Fp, C);
  }

  std::vector<analysis::ModuleFacts> Facts;
  std::vector<size_t> LinkInput;
  std::vector<uint32_t> InputModule(Inputs.size(), UINT32_MAX);
  for (size_t I = 0; I != Inputs.size(); ++I) {
    if (!Mods[I].M)
      continue;
    InputModule[I] = static_cast<uint32_t>(Facts.size());
    Scope S(Rec, "analysis.link_facts");
    Facts.push_back(analysis::collectModuleFacts(*Mods[I].M, Inputs[I].Path));
    LinkInput.push_back(I);
  }
  std::optional<analysis::LinkedCorpus> Linked;
  {
    Scope S(Rec, "analysis.link_build");
    Linked = analysis::LinkedCorpus::build(std::move(Facts));
  }

  analysis::LinkOptions LO;
  LO.MaxSummaryRounds = Cfg.Opts.MaxSummaryRounds;
  analysis::LinkDbHooks Hooks;
  Hooks.Lookup = [&](uint64_t K) {
    Scope S(Rec, "sched.summarydb_lookup");
    std::optional<std::string> P = Db.lookup(K);
    ++(P ? C.SummaryDbHits : C.SummaryDbMisses);
    return P;
  };
  Hooks.Store = [&](uint64_t K, std::string_view P) {
    Scope S(Rec, "sched.summarydb_store");
    Db.store(K, P);
    ++C.SummaryDbStores;
  };
  analysis::SummarizeRoundFn Summarize =
      [&](const std::vector<uint32_t> &Idxs,
          const analysis::ExternalSummaries &Env) {
        std::vector<analysis::ModuleSummaries> Out;
        for (uint32_t MIdx : Idxs) {
          Scope S(Rec, "analysis.summaries");
          Out.push_back(analysis::summarizeLinkedModule(
              *Mods[LinkInput[MIdx]].M, MIdx, Env, LO.MaxSummaryRounds));
        }
        return Out;
      };
  std::optional<analysis::LinkResult> LR;
  {
    Scope S(Rec, "analysis.link_solve");
    LR = analysis::solveLink(std::move(*Linked), LO, Hooks, Summarize);
  }
  C.LinkRounds += LR->Stats.Rounds;
  C.ModulesFromDb += LR->Stats.ModulesFromDb;

  engine::CorpusReport Report;
  Report.Files.resize(Inputs.size());
  for (size_t I = 0; I != Inputs.size(); ++I) {
    const std::string &Path = Inputs[I].Path;
    engine::FileReport &R = Report.Files[I];
    R.Path = Path;
    if (InputModule[I] == UINT32_MAX) {
      // The generated corpus is clean, so every file joins the link. One
      // that does not is left skipped here, which makes this report differ
      // from the engine's and fails the traced run.
      R.Reason = "replay: module did not load";
      continue;
    }
    uint64_t Digest = LR->Corpus.linkDigest(InputModule[I]);
    uint64_t Key = engine::cacheKey(Mods[I].Fp, Cfg.Salt);
    if (Digest != 0)
      Key = fnv1a64U64(Digest, Key);
    std::optional<std::string> Payload;
    {
      Scope S(Rec, "sched.cache_lookup");
      Payload = Cache.lookup(Key);
    }
    std::optional<engine::FileReport> Hit;
    if (Payload) {
      Scope S(Rec, "engine.report_codec");
      Hit = engine::deserializeFileReport(*Payload, Path);
    }
    if (Hit) {
      R = std::move(*Hit);
    } else {
      R = analyzeModule(Rec, *Mods[I].M, Path, Cfg.Opts, &LR->Env);
      if (R.Status == engine::EngineStatus::Ok) {
        std::string P;
        {
          Scope S(Rec, "engine.report_codec");
          P = engine::serializeFileReport(R);
        }
        Scope S(Rec, "sched.cache_store");
        Cache.store(Key, P);
      }
    }
    if (Cfg.Sharded) {
      // The sharded analyze phase ships every report over the worker wire.
      Scope S(Rec, "engine.wire_codec");
      std::optional<engine::FileReport> Back =
          engine::deserializeWireFileReport(
              engine::serializeWireFileReport(R));
      if (Back)
        R = std::move(*Back);
    }
  }
  Report.finalize();
  C.CacheHits += Cache.stats().Hits;
  C.CacheMisses += Cache.stats().Misses;
  C.Findings += Report.totalFindings();
  Scope S(Rec, "diag.render_json");
  return Report.renderJson();
}

/// The workload's whole front door, in-process, on \p CacheDir.
engine::CorpusReport runCheckEntry(Recorder &Rec, const CheckConfig &Cfg,
                                   const std::string &CacheDir) {
  engine::EngineOptions Opts = Cfg.Opts;
  Opts.CacheDir = CacheDir;
  if (Cfg.Sharded) {
    engine::SupervisorOptions SO;
    SO.Engine = Opts;
    SO.Shards = 2;
    SO.MaxWorkers = Opts.Jobs;
    SO.WorkerExe = Cfg.RustSight;
    SO.CheckpointPath = CacheDir + "/rs-checkpoint.json";
    Scope S(Rec, "engine.supervisor_run");
    return engine::Supervisor(std::move(SO)).run({Cfg.Corpus});
  }
  Scope S(Rec, "engine.analyze_corpus");
  return engine::AnalysisEngine(Opts).analyzeCorpus({Cfg.Corpus});
}

//===----------------------------------------------------------------------===//
// serve_edit
//===----------------------------------------------------------------------===//

/// One open document's re-analysis as Session::refresh performs it
/// (AnalysisEngine::analyzeSourceThroughCache, no link environment).
void replayServeFile(Recorder &Rec, sched::ResultCache &Cache,
                     const engine::EngineOptions &Opts, uint64_t Salt,
                     const std::string &Source, const std::string &Path,
                     Counts &C) {
  uint64_t Fp;
  {
    Scope S(Rec, "engine.fingerprint");
    Fp = engine::fingerprintSource(Source);
  }
  uint64_t Key = engine::cacheKey(Fp, Salt);
  std::optional<std::string> Payload;
  {
    Scope S(Rec, "sched.cache_lookup");
    Payload = Cache.lookup(Key);
  }
  if (Payload) {
    Scope S(Rec, "engine.report_codec");
    if (engine::deserializeFileReport(*Payload, Path))
      return;
  }
  std::optional<mir::Module> M = readSnapshot(Rec, Cache, Fp, C);
  if (!M)
    M = parseAndStore(Rec, Cache, Source, Path, Fp, C);
  if (!M)
    return;
  engine::FileReport R = analyzeModule(Rec, *M, Path, Opts, nullptr);
  C.Findings += R.Findings.size();
  if (R.Status != engine::EngineStatus::Ok)
    return;
  std::string P;
  {
    Scope S(Rec, "engine.report_codec");
    P = engine::serializeFileReport(R);
  }
  Scope S(Rec, "sched.cache_store");
  Cache.store(Key, P);
}

std::string rpc(const std::string &Method, const std::string &ParamsJson,
                int64_t Id = -1) {
  std::string Out = "{\"jsonrpc\":\"2.0\",";
  if (Id >= 0)
    Out += "\"id\":" + std::to_string(Id) + ",";
  return Out + "\"method\":\"" + Method + "\",\"params\":" + ParamsJson + "}";
}

std::string documentParams(const std::string &Path, int64_t Version,
                           const std::string &Text, bool Open) {
  JsonWriter W;
  W.beginObject();
  W.key("textDocument");
  W.beginObject();
  W.field("uri", serve::pathToUri(Path));
  W.key("version");
  W.value(Version);
  if (Open) {
    W.field("languageId", "mir");
    W.field("text", Text);
  }
  W.endObject();
  if (!Open) {
    W.key("contentChanges");
    W.beginArray();
    W.beginObject();
    W.field("text", Text);
    W.endObject();
    W.endArray();
  }
  W.endObject();
  return W.str();
}

/// True when \p Frames hold a publishDiagnostics for \p Path at \p Version.
bool sawPublish(const std::vector<std::string> &Frames, const std::string &Path,
                int64_t Version) {
  for (const std::string &Frame : Frames) {
    serve::FrameReader Reader;
    Reader.feed(Frame);
    std::string Payload, Err;
    if (Reader.next(Payload, Err) != serve::FrameReader::Status::Frame)
      continue;
    std::optional<JsonValue> Doc = JsonValue::parse(Payload);
    if (!Doc || Doc->getString("method") != "textDocument/publishDiagnostics")
      continue;
    const JsonValue *P = Doc->get("params");
    if (P && serve::uriToPath(P->getString("uri")) == Path &&
        P->getInt("version", -1) == Version)
      return true;
  }
  return false;
}

/// One of an operation's two runs: traced (spans on) or untraced.
struct Twin {
  explicit Twin(bool Traced) : Rec(Traced) {}
  Recorder Rec;
  /// Per operation: its time minus its front-door entry call, which both
  /// twins make alike, so the traced/untraced difference is the recorder's.
  std::vector<double> ReplayMs;
  std::vector<Counts> OpCounts;
};

/// One in-process serve session plus the replay's own memory cache.
struct ServeInstance : Twin {
  explicit ServeInstance(bool Traced) : Twin(Traced) {}
  std::unique_ptr<serve::Server> Server;
  sched::ResultCache Cache;
  std::map<std::string, std::string> Text;
  std::map<std::string, int64_t> Version;
  bool PublishesOk = true;
};

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

struct EditOp {
  uint64_t Op = 0;
  std::vector<std::string> Files;
};

std::optional<std::vector<EditOp>> loadEdits(const std::string &Path) {
  std::optional<JsonValue> Doc = JsonValue::parse(readFile(Path));
  const JsonValue *Ops = Doc ? Doc->get("ops") : nullptr;
  if (!Ops || !Ops->isArray())
    return std::nullopt;
  std::vector<EditOp> Out;
  for (const JsonValue &O : Ops->elements()) {
    EditOp E;
    E.Op = static_cast<uint64_t>(O.getInt("op"));
    const JsonValue *Files = O.get("files");
    if (!Files || !Files->isArray())
      return std::nullopt;
    for (const JsonValue &F : Files->elements())
      E.Files.push_back(F.asString());
    Out.push_back(std::move(E));
  }
  return Out;
}

void writeResult(const Twin &Traced, const Twin &Untraced, bool ReplayMatches,
                 bool PublishesOk) {
  std::map<uint64_t, std::map<std::string, double>> Self =
      Traced.Rec.selfTimesByOp();
  std::set<std::string> Names;
  for (const auto &[Op, ByName] : Self)
    for (const auto &[Name, Ms] : ByName)
      if (Name != "op")
        Names.insert(Name);
  std::vector<double> ReplaySelf;
  for (const auto &[Op, ByName] : Self) {
    double Sum = 0;
    for (const auto &[Name, Ms] : ByName)
      if (Name != "op" && !isEntrySpan(Name))
        Sum += Ms;
    ReplaySelf.push_back(Sum);
  }

  JsonWriter W;
  W.beginObject();
  W.key("ops");
  W.value(static_cast<uint64_t>(Traced.ReplayMs.size()));
  W.key("layers_ms");
  W.beginObject();
  for (const std::string &Name : Names) {
    std::vector<double> PerOp;
    for (const auto &[Op, ByName] : Self) {
      auto It = ByName.find(Name);
      PerOp.push_back(It == ByName.end() ? 0 : It->second);
    }
    W.key(Name);
    W.value(median(PerOp));
  }
  W.endObject();
  W.key("counts");
  W.beginObject();
  auto Count = [&](const char *Name, uint64_t Counts::*Field) {
    std::vector<double> PerOp;
    for (const Counts &C : Traced.OpCounts)
      PerOp.push_back(double(C.*Field));
    W.key(Name);
    W.value(median(PerOp));
  };
  Count("cache_hits", &Counts::CacheHits);
  Count("cache_misses", &Counts::CacheMisses);
  Count("summarydb_hits", &Counts::SummaryDbHits);
  Count("summarydb_misses", &Counts::SummaryDbMisses);
  Count("summarydb_stores", &Counts::SummaryDbStores);
  Count("link_rounds", &Counts::LinkRounds);
  Count("modules_from_db", &Counts::ModulesFromDb);
  Count("files_reanalyzed", &Counts::FilesReanalyzed);
  Count("statements", &Counts::Statements);
  Count("snapshot_bytes", &Counts::SnapshotBytes);
  Count("findings", &Counts::Findings);
  Count("disk_files_written", &Counts::DiskFilesWritten);
  W.endObject();
  W.key("traced_replay_ms");
  W.value(median(Traced.ReplayMs));
  W.key("untraced_replay_ms");
  W.value(median(Untraced.ReplayMs));
  W.key("replay_self_ms");
  W.value(median(ReplaySelf));
  W.key("replay_matches_engine");
  W.value(ReplayMatches);
  W.key("publishes_ok");
  W.value(PublishesOk);
  W.endObject();
  std::printf("%s\n", W.str().c_str());
}

int traceCheck(const CheckConfig &Cfg, const std::vector<EditOp> &Edits,
               const std::string &Work, const std::string &Primed,
               const std::string &TraceOut) {
  struct Instance : Twin {
    explicit Instance(bool Traced) : Twin(Traced) {}
    std::string ReplayDir, EntryDir;
  };
  Instance Traced(true), Untraced(false);
  Traced.ReplayDir = Work + "/traced-replay";
  Traced.EntryDir = Work + "/traced-entry";
  Untraced.ReplayDir = Work + "/untraced-replay";
  Untraced.EntryDir = Work + "/untraced-entry";
  for (Instance *I : {&Traced, &Untraced})
    for (const std::string *Dir : {&I->ReplayDir, &I->EntryDir}) {
      resetDir(*Dir);
      if (!Cfg.Cold)
        fs::copy(Primed, *Dir, fs::copy_options::recursive |
                                   fs::copy_options::overwrite_existing);
    }

  bool Matches = true;
  for (size_t K = 0; K != Edits.size(); ++K) {
    for (const std::string &F : Edits[K].Files) {
      std::string Path = Cfg.Corpus + "/" + F;
      writeFile(Path, applyEdit(readFile(Path), Edits[K].Op));
    }
    // Alternate which twin goes first, so neither always finds the page
    // cache warmed by the other.
    Instance *Order[2] = {&Traced, &Untraced};
    if (K % 2)
      std::swap(Order[0], Order[1]);
    for (Instance *I : Order) {
      if (Cfg.Cold) {
        resetDir(I->ReplayDir);
        resetDir(I->EntryDir);
      }
      uint64_t FilesBefore = countFiles(I->EntryDir);
      Counts C;
      std::string ReplayJson;
      std::optional<engine::CorpusReport> Entry;
      I->Rec.beginOp(K);
      auto T0 = Clock::now();
      double EntryMs = 0;
      {
        Scope Op(I->Rec, "op");
        ReplayJson = replayCheck(I->Rec, Cfg, I->ReplayDir, C);
        auto E0 = Clock::now();
        Entry = runCheckEntry(I->Rec, Cfg, I->EntryDir);
        EntryMs = msSince(E0);
      }
      I->ReplayMs.push_back(msSince(T0) - EntryMs);
      C.DiskFilesWritten = countFiles(I->EntryDir) - FilesBefore;
      I->OpCounts.push_back(C);
      Matches &= ReplayJson == Entry->renderJson();
    }
  }
  Traced.Rec.writeChromeTrace(TraceOut, TracedOpsKept);
  writeResult(Traced, Untraced, Matches, true);
  return 0;
}

int traceServe(const std::string &Corpus, const std::vector<EditOp> &Edits,
               const std::string &TraceOut) {
  serve::ServerOptions SO;
  SO.Session.Roots = {Corpus};
  SO.DebounceMs = 0;
  const engine::EngineOptions &Opts = SO.Session.Engine;
  std::vector<std::string> Names;
  for (const auto &D : detectors::makeAllDetectors())
    Names.emplace_back(D->name());
  uint64_t Salt = engine::cacheSalt(Opts, Names);

  ServeInstance Traced(true), Untraced(false);
  for (ServeInstance *I : {&Traced, &Untraced}) {
    // initialize + the initial publish sweep, then every file opened, as
    // the front-door session does before its first timed edit.
    I->Server = std::make_unique<serve::Server>(SO);
    I->Server->handleMessage(rpc("initialize", "{}", 1));
    I->Server->handleMessage(rpc("initialized", "{}"));
    Recorder Off(false);
    Counts Unused;
    for (const corpus::CorpusInput &In : corpus::expandMirPaths({Corpus})) {
      std::string Text = readFile(In.Path);
      I->Text[In.Path] = Text;
      I->Version[In.Path] = 1;
      I->Server->handleMessage(rpc("textDocument/didOpen",
                                   documentParams(In.Path, 1, Text, true)));
      replayServeFile(Off, I->Cache, Opts, Salt, Text, In.Path, Unused);
    }
    I->Server->flushPending();
    I->Server->takeOutgoing();
  }

  for (size_t K = 0; K != Edits.size(); ++K) {
    ServeInstance *Order[2] = {&Traced, &Untraced};
    if (K % 2)
      std::swap(Order[0], Order[1]);
    for (ServeInstance *I : Order) {
      std::string Path = Corpus + "/" + Edits[K].Files.front();
      std::string Text = applyEdit(I->Text[Path], Edits[K].Op);
      I->Text[Path] = Text;
      int64_t Version = ++I->Version[Path];
      std::string Payload = rpc("textDocument/didChange",
                                documentParams(Path, Version, Text, false));
      serve::Server &S = *I->Server;
      Counts C;
      std::vector<std::string> Frames;
      sched::ResultCache::Stats Before = I->Cache.stats();
      I->Rec.beginOp(K);
      auto T0 = Clock::now();
      double EntryMs = 0;
      {
        Scope Op(I->Rec, "op");
        std::string In, Err;
        {
          Scope F(I->Rec, "serve.frame");
          serve::FrameReader Reader;
          Reader.feed(serve::frameMessage(Payload));
          Reader.next(In, Err);
        }
        {
          Scope H(I->Rec, "serve.handle");
          S.handleMessage(In);
        }
        // The re-analysis Session::refresh performs: the edited document
        // and every file that references a function it defines.
        replayServeFile(I->Rec, I->Cache, Opts, Salt, Text, Path, C);
        for (const std::string &Dep : S.session().dependentsOf(Path))
          replayServeFile(I->Rec, I->Cache, Opts, Salt, I->Text[Dep], Dep, C);
        {
          Scope Fl(I->Rec, "serve.flush");
          uint64_t Before = S.session().totalAnalyses();
          auto E0 = Clock::now();
          S.flushPending();
          EntryMs = msSince(E0);
          C.FilesReanalyzed = S.session().totalAnalyses() - Before;
        }
        Scope F(I->Rec, "serve.frame");
        for (const std::string &Out : S.takeOutgoing())
          Frames.push_back(serve::frameMessage(Out));
      }
      I->ReplayMs.push_back(msSince(T0) - EntryMs);
      C.CacheHits = I->Cache.stats().Hits - Before.Hits;
      C.CacheMisses = I->Cache.stats().Misses - Before.Misses;
      I->OpCounts.push_back(C);
      I->PublishesOk &= sawPublish(Frames, Path, Version);
    }
  }
  Traced.Rec.writeChromeTrace(TraceOut, TracedOpsKept);
  writeResult(Traced, Untraced, true,
              Traced.PublishesOk && Untraced.PublishesOk);
  return 0;
}

} // namespace

int bench::runTrace(std::map<std::string, std::string> &Args) {
  for (const char *Key :
       {"workload", "corpus", "work", "edits", "rustsight", "trace-out"})
    if (!Args.count(Key)) {
      std::fprintf(stderr, "error: trace needs --%s\n", Key);
      return 2;
    }
  std::optional<std::vector<EditOp>> Edits = loadEdits(Args["edits"]);
  if (!Edits || Edits->empty()) {
    std::fprintf(stderr, "error: unreadable edit stream '%s'\n",
                 Args["edits"].c_str());
    return 2;
  }
  const std::string &W = Args["workload"];
  if (W == "serve_edit")
    return traceServe(Args["corpus"], *Edits, Args["trace-out"]);

  CheckConfig Cfg;
  Cfg.Corpus = Args["corpus"];
  Cfg.RustSight = Args["rustsight"];
  if (W == "check_cold") {
    Cfg.Cold = true;
    Cfg.Opts.Jobs = 4;
  } else if (W == "check_incremental") {
    Cfg.Opts.Jobs = 1;
  } else if (W == "check_sharded") {
    Cfg.Sharded = true;
    Cfg.Opts.Jobs = 2;
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n", W.c_str());
    return 2;
  }
  std::vector<std::string> Names;
  for (const auto &D : detectors::makeAllDetectors())
    Names.emplace_back(D->name());
  Cfg.Salt = engine::cacheSalt(Cfg.Opts, Names);
  if (!Cfg.Cold && !Args.count("primed")) {
    std::fprintf(stderr, "error: warm workloads need --primed\n");
    return 2;
  }
  return traceCheck(Cfg, *Edits, Args["work"],
                    Args.count("primed") ? Args["primed"] : "",
                    Args["trace-out"]);
}
