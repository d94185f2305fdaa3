#include "engine/Supervisor.h"

#include "analysis/Link.h"
#include "corpus/CorpusWalk.h"
#include "detectors/Detector.h"
#include "diag/Diag.h"
#include "engine/Checkpoint.h"
#include "support/FaultInjection.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/SourceLocation.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include <poll.h>
#include <unistd.h>

using namespace rs;
using namespace rs::engine;

namespace {

using Clock = std::chrono::steady_clock;

/// Backstop against a worker announcing an absurd frame; a single file
/// report is orders of magnitude smaller.
constexpr size_t MaxFramePayload = 64u << 20;

/// Worker stderr kept per attempt (the tail is what lands in quarantine
/// notes; anything longer has stopped being a note).
constexpr size_t StderrTailCap = 8192;

/// Grace period between a worker closing both streams and the supervisor
/// SIGKILLing it anyway — a worker with closed pipes that has not exited
/// is as hung as one that never wrote.
constexpr auto ReapGrace = std::chrono::seconds(5);

/// Adds what a fleet loop waits on for one worker to \p Fds: its open
/// output pipes, or — once both have closed — its exit fd, so the loop
/// wakes the moment the worker exits and reaps it then. Returns false when
/// the worker has closed both pipes and there is no exit fd to wait on;
/// the caller then must not sleep long.
bool appendWaitFds(proc::Subprocess &P, std::vector<struct pollfd> &Fds) {
  int Out = P.stdoutFd(), Err = P.stderrFd();
  if (Out != -1)
    Fds.push_back({Out, POLLIN, 0});
  if (Err != -1)
    Fds.push_back({Err, POLLIN, 0});
  if (Out != -1 || Err != -1)
    return true;
  int Exit = P.exitFd();
  if (Exit == -1)
    return false;
  Fds.push_back({Exit, POLLIN, 0});
  return true;
}

/// One fleet-loop wait. \p IdlePolls counts waits with nothing to wait
/// on (a blind sleep).
void pollFleet(std::vector<struct pollfd> &Fds, int TimeoutMs,
               uint64_t &IdlePolls) {
  IdlePolls += Fds.empty();
  ::poll(Fds.empty() ? nullptr : Fds.data(), nfds_t(Fds.size()), TimeoutMs);
}

enum class Outcome {
  Done,     ///< Complete frame stream + "done" frame.
  Crash,    ///< Killed by a signal (SIGSEGV, SIGABRT, ...).
  Exit,     ///< Exited with a nonzero code.
  Timeout,  ///< SIGKILLed by the watchdog deadline.
  Protocol, ///< Output unusable: bad framing, bad JSON, premature exit 0.
};

/// One unit of queued work: a sorted slice of global input ordinals.
/// Attempts counts protocol-failure attempts (trusted-frame failures use
/// per-file strike counters instead, so attribution survives re-sharding).
struct Shard {
  std::vector<size_t> Ordinals;
  unsigned Attempts = 0;
  Clock::time_point NotBefore{};
};

struct ActiveWorker {
  ActiveWorker(proc::Subprocess P, Shard T)
      : Proc(std::move(P)), Task(std::move(T)) {}

  proc::Subprocess Proc;
  Shard Task;
  std::string OutBuf;  ///< Unconsumed frame bytes.
  std::string ErrTail; ///< Trailing stderr (capped).
  /// Results accepted from this attempt's frame stream, in arrival order.
  /// Only merged into the run once the attempt is classified: trusted
  /// classifications (done/crash/exit/timeout) keep them, protocol
  /// failures discard them.
  std::vector<std::pair<size_t, FileReport>> Accepted;
  bool Done = false;
  bool Protocol = false;
  std::string ProtocolNote;
  bool HasDeadline = false;
  Clock::time_point Deadline{};
};

bool parseHexLen(const char *P, size_t &Out) {
  size_t V = 0;
  for (int I = 0; I != 8; ++I) {
    char C = P[I];
    unsigned D = 0;
    if (C >= '0' && C <= '9')
      D = unsigned(C - '0');
    else if (C >= 'a' && C <= 'f')
      D = unsigned(C - 'a') + 10;
    else
      return false;
    V = (V << 4) | D;
  }
  Out = V;
  return true;
}

void markProtocol(ActiveWorker &W, std::string Note) {
  W.Protocol = true;
  if (W.ProtocolNote.empty())
    W.ProtocolNote = std::move(Note);
}

void handlePayload(ActiveWorker &W, std::string_view Payload) {
  std::optional<JsonValue> V = JsonValue::parse(Payload);
  if (!V || !V->isObject()) {
    markProtocol(W, "unparseable frame payload");
    return;
  }
  std::string_view Type = V->getString("type");
  if (Type == "done") {
    W.Done = true;
    return;
  }
  if (Type != "file") {
    markProtocol(W, "unknown frame type");
    return;
  }
  int64_t Ordinal = V->getInt("ordinal", -1);
  const JsonValue *Report = V->get("report");
  if (Ordinal < 0 || !Report ||
      !std::binary_search(W.Task.Ordinals.begin(), W.Task.Ordinals.end(),
                          size_t(Ordinal))) {
    markProtocol(W, "frame for an ordinal outside the shard");
    return;
  }
  for (const auto &P : W.Accepted)
    if (P.first == size_t(Ordinal)) {
      markProtocol(W, "duplicate frame for one ordinal");
      return;
    }
  std::optional<FileReport> R = fileReportFromJson(*Report);
  if (!R) {
    markProtocol(W, "malformed file report");
    return;
  }
  W.Accepted.emplace_back(size_t(Ordinal), std::move(*R));
}

void parseFrames(ActiveWorker &W) {
  while (!W.Protocol) {
    if (W.OutBuf.size() < 9)
      return;
    size_t Len = 0;
    if (!parseHexLen(W.OutBuf.data(), Len) || W.OutBuf[8] != '\n' ||
        Len > MaxFramePayload) {
      markProtocol(W, "corrupt frame header");
      return;
    }
    if (W.OutBuf.size() < 9 + Len + 1)
      return;
    if (W.OutBuf[9 + Len] != '\n') {
      markProtocol(W, "missing frame terminator");
      return;
    }
    handlePayload(W, std::string_view(W.OutBuf.data() + 9, Len));
    W.OutBuf.erase(0, 9 + Len + 1);
  }
}

/// Drains whatever is currently readable from the worker's streams.
/// Returns true while at least one stream is still open.
bool drainStreams(ActiveWorker &W) {
  if (int Fd = W.Proc.stdoutFd(); Fd != -1) {
    W.Proc.readSome(Fd, W.OutBuf);
    parseFrames(W);
  }
  if (int Fd = W.Proc.stderrFd(); Fd != -1) {
    std::string Chunk;
    if (W.Proc.readSome(Fd, Chunk) == proc::Subprocess::ReadStatus::Data) {
      // Forward worker-side notes (budget exhaustion, fault causes) so a
      // supervised run surfaces the same observability as an in-process
      // one; stderr is already outside the byte-stable report surface.
      std::fwrite(Chunk.data(), 1, Chunk.size(), stderr);
      W.ErrTail += Chunk;
      if (W.ErrTail.size() > StderrTailCap)
        W.ErrTail.erase(0, W.ErrTail.size() - StderrTailCap);
    }
  }
  return W.Proc.stdoutFd() != -1 || W.Proc.stderrFd() != -1;
}

/// Keeps the stderr-tail lines relevant to \p Path: lines naming the path,
/// plus unattributed lines (crash spew). Lines the worker attributed to
/// *other* files ("worker: <other>: ...") are dropped so quarantine notes
/// stay byte-identical however the corpus was sharded around the victim.
std::string filterTailFor(const std::string &Tail, const std::string &Path) {
  std::string Out;
  size_t Begin = 0;
  while (Begin < Tail.size()) {
    size_t End = Tail.find('\n', Begin);
    size_t Len = (End == std::string::npos ? Tail.size() : End) - Begin;
    std::string_view Line(Tail.data() + Begin, Len);
    bool NamesPath = Line.find(Path) != std::string_view::npos;
    bool AttributedElsewhere =
        !NamesPath && Line.substr(0, 8) == "worker: ";
    if (!Line.empty() && !AttributedElsewhere) {
      Out.append(Line);
      Out += '\n';
    }
    if (End == std::string::npos)
      break;
    Begin = End + 1;
  }
  return Out;
}

FileReport makeQuarantineReport(const std::string &Path,
                                const std::string &Cause, unsigned Attempts,
                                const std::string &Tail) {
  FileReport R;
  R.Path = Path;
  R.Status = EngineStatus::Skipped;
  R.Reason = "quarantined after " + std::to_string(Attempts) +
             " isolated worker attempt(s): " + Cause;

  diag::Diagnostic D(diag::RuleId::WorkerQuarantined);
  D.Message = "file quarantined: " + Cause;
  D.Loc = SourceLocation(internFileName(Path), 1, 1);
  size_t Notes = 0;
  size_t Begin = 0;
  while (Begin < Tail.size() && Notes != 5) {
    size_t End = Tail.find('\n', Begin);
    size_t Len = (End == std::string::npos ? Tail.size() : End) - Begin;
    if (Len != 0) {
      D.Notes.push_back("worker stderr: " + Tail.substr(Begin, Len));
      ++Notes;
    }
    if (End == std::string::npos)
      break;
    Begin = End + 1;
  }
  R.Notices.push_back(std::move(D));
  return R;
}

std::vector<std::string> workerArgv(const SupervisorOptions &Opts) {
  const EngineOptions &E = Opts.Engine;
  std::vector<std::string> Argv{Opts.WorkerExe, "worker"};
  auto Push = [&](const char *Flag, uint64_t Value) {
    Argv.emplace_back(Flag);
    Argv.push_back(std::to_string(Value));
  };
  if (E.BudgetMs)
    Push("--budget-ms", E.BudgetMs);
  if (E.MaxFileSteps)
    Push("--max-file-steps", E.MaxFileSteps);
  if (E.MaxDataflowIters)
    Push("--max-dataflow-iters", E.MaxDataflowIters);
  if (E.MaxSummaryRounds != EngineOptions().MaxSummaryRounds)
    Push("--max-summary-rounds", E.MaxSummaryRounds);
  if (!E.UseCache)
    Argv.emplace_back("--no-cache");
  else if (!E.CacheDir.empty()) {
    Argv.emplace_back("--cache-dir");
    Argv.push_back(E.CacheDir);
  }
  return Argv;
}

/// One JSON string literal (quoted, escaped).
std::string jsonString(std::string_view S) {
  JsonWriter W;
  W.value(S);
  return W.str();
}

//===----------------------------------------------------------------------===//
// The map fleet (link phases 1 and 2)
//===----------------------------------------------------------------------===//
//
// The link step's facts and summarize phases are simple maps: item in,
// opaque JSON payload out, no cross-item state. They reuse the worker wire
// protocol (length-prefixed frames) under a mode preamble, with a reduced
// supervision ladder: retries with first-unreported-file attribution, but
// no bisection — a file whose facts cannot be collected just degrades to
// per-file analysis (and a module whose summarize round is lost contributes
// nothing that round), so poison files meet the full quarantine machinery
// in the analyze phase, exactly once.

struct MapWorker {
  MapWorker(proc::Subprocess P, Shard T)
      : Proc(std::move(P)), Task(std::move(T)) {}

  proc::Subprocess Proc;
  Shard Task;
  std::string OutBuf;
  std::string ErrTail;
  std::vector<std::pair<size_t, std::optional<std::string>>> Accepted;
  bool Done = false;
  bool Protocol = false;
  bool HasDeadline = false;
  Clock::time_point Deadline{};
};

void parseMapFrames(MapWorker &W) {
  while (!W.Protocol) {
    if (W.OutBuf.size() < 9)
      return;
    size_t Len = 0;
    if (!parseHexLen(W.OutBuf.data(), Len) || W.OutBuf[8] != '\n' ||
        Len > MaxFramePayload)
      W.Protocol = true;
    if (W.Protocol || W.OutBuf.size() < 9 + Len + 1)
      return;
    if (W.OutBuf[9 + Len] != '\n') {
      W.Protocol = true;
      return;
    }
    std::string_view Payload(W.OutBuf.data() + 9, Len);
    std::optional<JsonValue> V = JsonValue::parse(Payload);
    if (!V || !V->isObject()) {
      W.Protocol = true;
      return;
    }
    std::string_view Type = V->getString("type");
    if (Type == "done") {
      W.Done = true;
    } else if (Type == "file") {
      int64_t Ordinal = V->getInt("ordinal", -1);
      if (Ordinal < 0 ||
          !std::binary_search(W.Task.Ordinals.begin(),
                              W.Task.Ordinals.end(), size_t(Ordinal))) {
        W.Protocol = true;
        return;
      }
      const JsonValue *P = V->get("payload");
      std::optional<std::string> Out;
      if (P && P->isString())
        Out = std::string(P->asString());
      W.Accepted.emplace_back(size_t(Ordinal), std::move(Out));
    } else {
      W.Protocol = true;
      return;
    }
    W.OutBuf.erase(0, 9 + Len + 1);
  }
}

bool drainMapStreams(MapWorker &W) {
  if (int Fd = W.Proc.stdoutFd(); Fd != -1) {
    W.Proc.readSome(Fd, W.OutBuf);
    parseMapFrames(W);
  }
  if (int Fd = W.Proc.stderrFd(); Fd != -1) {
    std::string Chunk;
    if (W.Proc.readSome(Fd, Chunk) == proc::Subprocess::ReadStatus::Data) {
      std::fwrite(Chunk.data(), 1, Chunk.size(), stderr);
      W.ErrTail += Chunk;
      if (W.ErrTail.size() > StderrTailCap)
        W.ErrTail.erase(0, W.ErrTail.size() - StderrTailCap);
    }
  }
  return W.Proc.stdoutFd() != -1 || W.Proc.stderrFd() != -1;
}

/// Maps \p ItemTails through a worker fleet under \p Preamble (the mode
/// line). Item I is fed as "<I>\t<ItemTails[I]>"; the result slot holds the
/// worker's payload string, or nullopt when the worker returned null or the
/// item kept failing (MaxRetries strikes on the first unreported file of a
/// failed attempt, like the analyze fleet's trusted path).
std::vector<std::optional<std::string>>
runMapFleet(const SupervisorOptions &Opts, const std::string &Preamble,
            const std::vector<std::string> &ItemTails, unsigned MaxWorkers,
            uint64_t &IdlePolls) {
  const size_t N = ItemTails.size();
  std::vector<std::optional<std::string>> Out(N);
  if (N == 0)
    return Out;
  std::vector<bool> Resolved(N, false);

  std::deque<Shard> Queue;
  {
    unsigned ShardCount = std::min<size_t>(MaxWorkers, N);
    size_t Base = 0;
    for (unsigned S = 0; S != ShardCount; ++S) {
      size_t Count = N / ShardCount + (S < N % ShardCount ? 1 : 0);
      if (Count == 0)
        continue;
      Shard Sh;
      for (size_t I = Base; I != Base + Count; ++I)
        Sh.Ordinals.push_back(I);
      Base += Count;
      Queue.push_back(std::move(Sh));
    }
  }

  std::map<size_t, unsigned> Strikes;
  std::vector<std::unique_ptr<MapWorker>> Active;

  auto Requeue = [&](std::vector<std::pair<size_t, std::optional<std::string>>>
                         &Accepted,
                     const std::vector<size_t> &Ordinals, bool Trusted) {
    if (Trusted)
      for (auto &P : Accepted)
        if (!Resolved[P.first]) {
          Resolved[P.first] = true;
          Out[P.first] = std::move(P.second);
        }
    std::vector<size_t> Remaining;
    for (size_t Ord : Ordinals)
      if (!Resolved[Ord])
        Remaining.push_back(Ord);
    if (Remaining.empty())
      return;
    const size_t Suspect = Remaining.front();
    if (++Strikes[Suspect] > Opts.MaxRetries) {
      Resolved[Suspect] = true; // Stays nullopt: degraded, not retried.
      Remaining.erase(Remaining.begin());
      if (Remaining.empty())
        return;
    }
    Shard Next;
    Next.Ordinals = std::move(Remaining);
    Queue.push_back(std::move(Next));
  };

  auto Launch = [&](Shard Task) {
    proc::Subprocess::Options SO;
    SO.Argv = workerArgv(Opts);
    SO.PipeStdin = true;
    std::string Err;
    std::optional<proc::Subprocess> P = proc::Subprocess::spawn(SO, &Err);
    if (!P) {
      // Spawn failure: strike through the same path a dead worker takes.
      std::vector<std::pair<size_t, std::optional<std::string>>> None;
      Requeue(None, Task.Ordinals, /*Trusted=*/false);
      return;
    }
    std::string Feed = Preamble;
    Feed += '\n';
    for (size_t Ord : Task.Ordinals) {
      Feed += std::to_string(Ord);
      Feed += '\t';
      Feed += ItemTails[Ord];
      Feed += '\n';
    }
    auto W = std::make_unique<MapWorker>(std::move(*P), std::move(Task));
    W->Proc.writeStdin(Feed);
    W->Proc.closeStdin();
    if (Opts.TimeoutMs) {
      W->HasDeadline = true;
      W->Deadline = Clock::now() + std::chrono::milliseconds(Opts.TimeoutMs);
    }
    Active.push_back(std::move(W));
  };

  while (!Queue.empty() || !Active.empty()) {
    while (!Queue.empty() && Active.size() < MaxWorkers) {
      Shard Task = std::move(Queue.front());
      Queue.pop_front();
      Launch(std::move(Task));
    }
    if (Active.empty())
      continue;

    {
      std::vector<struct pollfd> Fds;
      int TimeoutMs = 100;
      for (const auto &W : Active)
        if (!appendWaitFds(W->Proc, Fds))
          TimeoutMs = 1;
      pollFleet(Fds, TimeoutMs, IdlePolls);
    }
    for (auto &W : Active)
      drainMapStreams(*W);

    for (size_t I = 0; I != Active.size();) {
      MapWorker &W = *Active[I];
      bool Finished = false;
      bool Trusted = true;
      if (W.Protocol) {
        W.Proc.kill();
        W.Proc.wait();
        Finished = true;
        Trusted = false;
      } else if (W.Proc.stdoutFd() == -1 && W.Proc.stderrFd() == -1) {
        if (std::optional<proc::ExitStatus> St = W.Proc.tryWait()) {
          Finished = true;
          Trusted = St->Signaled || St->Code != 0 ||
                    (W.Done && W.Accepted.size() == W.Task.Ordinals.size());
          // A clean exit mid-protocol is as untrustworthy here as in the
          // analyze fleet.
          if (!St->Signaled && St->Code == 0 && !W.Done)
            Trusted = false;
        } else if (!W.HasDeadline || W.Deadline > Clock::now() + ReapGrace) {
          W.HasDeadline = true;
          W.Deadline = Clock::now() + ReapGrace;
        }
      }
      if (!Finished && W.HasDeadline && Clock::now() >= W.Deadline) {
        W.Proc.kill();
        W.Proc.wait();
        while (drainMapStreams(W))
          ;
        Finished = true;
        Trusted = !W.Protocol;
      }
      if (!Finished) {
        ++I;
        continue;
      }
      std::unique_ptr<MapWorker> Owned = std::move(Active[I]);
      Active.erase(Active.begin() + long(I));
      if (Owned->Done &&
          Owned->Accepted.size() == Owned->Task.Ordinals.size() &&
          !Owned->Protocol) {
        for (auto &P : Owned->Accepted)
          if (!Resolved[P.first]) {
            Resolved[P.first] = true;
            Out[P.first] = std::move(P.second);
          }
      } else {
        Requeue(Owned->Accepted, Owned->Task.Ordinals, Trusted);
      }
    }
  }
  return Out;
}

} // namespace

uint64_t rs::engine::journalSalt(const EngineOptions &Opts,
                                 const std::vector<std::string> &DetectorNames,
                                 bool Linked) {
  uint64_t Salt = cacheSalt(Opts, DetectorNames);
  if (Linked)
    Salt = fnv1a64("rustsight-whole-program", Salt);
  return Salt;
}

CorpusReport Supervisor::run(const std::vector<std::string> &Paths) {
  const auto Start = Clock::now();
  IdlePolls = 0;

  std::vector<corpus::CorpusInput> Inputs = corpus::expandMirPaths(Paths);
  const size_t N = Inputs.size();
  std::vector<std::optional<FileReport>> Results(N);
  for (size_t I = 0; I != N; ++I) {
    if (Inputs[I].SkipReason.empty())
      continue;
    FileReport R;
    R.Path = Inputs[I].Path;
    R.Status = EngineStatus::Skipped;
    R.Reason = Inputs[I].SkipReason;
    Results[I] = std::move(R);
  }

  // The whole-program gate, decided exactly like the in-process driver
  // (AnalysisEngine::analyzeCorpus) so `--shards N` never changes modes.
  size_t Analyzable = 0;
  for (const corpus::CorpusInput &In : Inputs)
    Analyzable += In.SkipReason.empty();
  const bool Linked =
      Opts.Engine.WholeProgram == WholeProgramMode::On ||
      (Opts.Engine.WholeProgram == WholeProgramMode::Auto && Analyzable > 1);

  // The same salt the workers' caches use keys the checkpoint journal: a
  // journal from a different battery or budget configuration never resumes.
  std::vector<std::string> DetNames;
  for (const auto &D : detectors::makeAllDetectors())
    DetNames.emplace_back(D->name());
  const RunKey Key{fingerprintCorpus(Inputs),
                   journalSalt(Opts.Engine, DetNames, Linked)};

  std::optional<CheckpointJournal> Journal;
  if (!Opts.CheckpointPath.empty())
    Journal.emplace(Opts.CheckpointPath);
  if (Journal && Opts.Resume)
    Journal->load(Key, Results);

  std::vector<size_t> PendingOrdinals;
  for (size_t I = 0; I != N; ++I)
    if (!Results[I])
      PendingOrdinals.push_back(I);

  const unsigned Hardware =
      std::max(1u, std::thread::hardware_concurrency());
  unsigned ShardCount =
      Opts.Shards ? Opts.Shards
                  : (Opts.MaxWorkers ? Opts.MaxWorkers : Hardware);
  if (!PendingOrdinals.empty() && ShardCount > PendingOrdinals.size())
    ShardCount = unsigned(PendingOrdinals.size());
  const unsigned MaxWorkers =
      Opts.MaxWorkers ? Opts.MaxWorkers : std::min(ShardCount, Hardware);

  // The link step (phases 1 and 2 of the whole-program protocol). The
  // supervisor drives the same solveLink() fixpoint as the in-process
  // engine — only the transport of each phase differs (a map fleet instead
  // of a thread pool) — so the round trajectory, the environment, and the
  // per-file digests are byte-identical to an in-process run over the same
  // corpus and summary DB.
  analysis::ExternalSummaries LinkEnv;
  std::vector<uint64_t> LinkDigest(N, 0);
  std::vector<bool> InLink(N, false);
  std::string AnalyzePreamble;
  analysis::LinkStats LinkStats;
  unsigned LinkedFiles = 0;
  if (Linked) {
    const unsigned FleetWorkers =
        std::max(1u, Opts.MaxWorkers ? Opts.MaxWorkers : Hardware);

    // Phase 1: facts, one fleet over every analyzable input (journaled
    // files included — their summaries still feed other files' analyses).
    // A file whose facts cannot be collected degrades to per-file mode.
    std::vector<size_t> FactInput;
    std::vector<std::string> FactTails;
    for (size_t I = 0; I != N; ++I)
      if (Inputs[I].SkipReason.empty()) {
        FactInput.push_back(I);
        FactTails.push_back(Inputs[I].Path);
      }
    std::vector<std::optional<std::string>> FactPayloads =
        runMapFleet(Opts, "{\"mode\":\"facts\"}", FactTails, FleetWorkers,
                    IdlePolls);

    std::vector<analysis::ModuleFacts> Facts;
    std::vector<size_t> LinkInputOrd; // Module index -> input ordinal.
    for (size_t K = 0; K != FactInput.size(); ++K) {
      if (!FactPayloads[K])
        continue;
      std::optional<analysis::ModuleFacts> F =
          analysis::deserializeModuleFacts(*FactPayloads[K]);
      if (!F)
        continue;
      LinkInputOrd.push_back(FactInput[K]);
      Facts.push_back(std::move(*F));
    }

    // Phase 2: the link fixpoint; each solver round is one summarize fleet.
    analysis::LinkOptions LO;
    LO.MaxSummaryRounds =
        Opts.Engine.MaxSummaryRounds ? Opts.Engine.MaxSummaryRounds : 8;
    std::optional<sched::SummaryDb> Db;
    analysis::LinkDbHooks Hooks;
    if (Opts.Engine.UseCache) {
      sched::SummaryDb::Options DO;
      DO.DiskDir = Opts.Engine.CacheDir;
      DO.SchemaOverride = Opts.Engine.SummaryDbSchemaOverride;
      Db.emplace(std::move(DO));
      Hooks.Lookup = [&Db](uint64_t K) { return Db->lookup(K); };
      Hooks.Store = [&Db](uint64_t K, std::string_view P) {
        Db->store(K, P);
      };
    }
    analysis::SummarizeRoundFn Summarize =
        [&](const std::vector<uint32_t> &ModuleIdxs,
            const analysis::ExternalSummaries &Env) {
          std::vector<std::string> Tails;
          Tails.reserve(ModuleIdxs.size());
          for (uint32_t M : ModuleIdxs)
            Tails.push_back(std::to_string(M) + "\t" +
                            Inputs[LinkInputOrd[M]].Path);
          std::string Pre = "{\"mode\":\"summarize\",\"env\":" +
                            jsonString(analysis::serializeEnv(Env)) + "}";
          std::vector<std::optional<std::string>> Payloads =
              runMapFleet(Opts, Pre, Tails, FleetWorkers, IdlePolls);
          std::vector<analysis::ModuleSummaries> Round;
          for (auto &P : Payloads) {
            if (!P)
              continue; // Lost module: unchanged this round.
            if (std::optional<analysis::ModuleSummaries> MS =
                    analysis::deserializeModuleSummaries(*P))
              Round.push_back(std::move(*MS));
          }
          return Round;
        };
    analysis::LinkResult LR =
        analysis::solveLink(analysis::LinkedCorpus::build(std::move(Facts)),
                            LO, Hooks, Summarize);
    LinkEnv = std::move(LR.Env);
    for (uint32_t M = 0;
         M != static_cast<uint32_t>(LR.Corpus.modules().size()); ++M) {
      size_t Ord = LinkInputOrd[M];
      InLink[Ord] = true;
      LinkDigest[Ord] = LR.Corpus.linkDigest(M);
    }
    AnalyzePreamble = "{\"mode\":\"analyze\",\"env\":" +
                      jsonString(analysis::serializeEnv(LinkEnv)) + "}";
    LinkedFiles = static_cast<unsigned>(LinkInputOrd.size());
    LinkStats = LR.Stats;
  }

  // Contiguous, deterministic partition of the pending ordinals.
  std::deque<Shard> Queue;
  if (!PendingOrdinals.empty()) {
    size_t Base = 0;
    for (unsigned S = 0; S != ShardCount; ++S) {
      size_t Count = PendingOrdinals.size() / ShardCount +
                     (S < PendingOrdinals.size() % ShardCount ? 1 : 0);
      if (Count == 0)
        continue;
      Shard Sh;
      Sh.Ordinals.assign(PendingOrdinals.begin() + long(Base),
                         PendingOrdinals.begin() + long(Base + Count));
      Base += Count;
      Queue.push_back(std::move(Sh));
    }
  }

  std::map<size_t, unsigned> Strikes;
  std::vector<std::unique_ptr<ActiveWorker>> Active;
  bool Interrupted = false;

  auto Checkpoint = [&] {
    if (Journal)
      Journal->write(Key, Results);
    // Deterministic stand-in for kill -9: tests arm this site to verify
    // that whatever the journal holds right now is enough to resume from.
    if (fault::shouldFail("engine.supervisor.interrupt"))
      Interrupted = true;
  };

  auto Quarantine = [&](size_t Ordinal, const std::string &Cause,
                        unsigned Attempts, const std::string &Tail) {
    Results[Ordinal] = makeQuarantineReport(
        Inputs[Ordinal].Path, Cause, Attempts,
        filterTailFor(Tail, Inputs[Ordinal].Path));
  };

  auto Backoff = [&](unsigned Strike) {
    uint64_t Ms = Opts.BackoffMs;
    for (unsigned I = 1; I < Strike && Ms < 2000; ++I)
      Ms *= 2;
    return Clock::now() + std::chrono::milliseconds(std::min<uint64_t>(
                              Ms, 2000));
  };

  // Frames from the attempt could not be trusted (corrupt framing or JSON,
  // premature clean exit, spawn failure): retry the remainder whole, then
  // bisect — each level gets one attempt — down to a quarantined singleton.
  auto HandleUntrusted = [&](Shard Task, const std::string &Cause,
                             const std::string &Tail) {
    std::vector<size_t> Remaining;
    for (size_t Ord : Task.Ordinals)
      if (!Results[Ord])
        Remaining.push_back(Ord);
    if (Remaining.empty()) {
      Checkpoint();
      return;
    }
    Task.Ordinals = std::move(Remaining);
    ++Task.Attempts;
    if (Task.Attempts <= Opts.MaxRetries) {
      Task.NotBefore = Backoff(Task.Attempts);
      Queue.push_back(std::move(Task));
      return;
    }
    if (Task.Ordinals.size() == 1) {
      Quarantine(Task.Ordinals[0], Cause, Task.Attempts, Tail);
      Checkpoint();
      return;
    }
    size_t Mid = Task.Ordinals.size() / 2;
    Shard Lo, Hi;
    Lo.Ordinals.assign(Task.Ordinals.begin(),
                       Task.Ordinals.begin() + long(Mid));
    Hi.Ordinals.assign(Task.Ordinals.begin() + long(Mid),
                       Task.Ordinals.end());
    // One attempt per bisection level keeps isolation O(log n) worker runs
    // while the total attempt count at quarantine stays MaxRetries + 1 —
    // the reason text is byte-identical however the run was sharded.
    Lo.Attempts = Hi.Attempts = Opts.MaxRetries;
    Lo.NotBefore = Hi.NotBefore = Clock::now();
    Queue.push_back(std::move(Lo));
    Queue.push_back(std::move(Hi));
  };

  // The frame stream up to the failure is trustworthy (crash, nonzero
  // exit, watchdog kill): keep every streamed result, attribute the
  // failure to the first file without one, and strike it.
  auto HandleTrusted = [&](ActiveWorker &W, const std::string &Cause) {
    for (auto &P : W.Accepted)
      if (!Results[P.first])
        Results[P.first] = std::move(P.second);
    std::vector<size_t> Remaining;
    for (size_t Ord : W.Task.Ordinals)
      if (!Results[Ord])
        Remaining.push_back(Ord);
    if (Remaining.empty()) {
      Checkpoint();
      return;
    }
    const size_t Suspect = Remaining.front();
    const unsigned S = ++Strikes[Suspect];
    Shard Next;
    if (S > Opts.MaxRetries) {
      Quarantine(Suspect, Cause, S, W.ErrTail);
      Remaining.erase(Remaining.begin());
      Checkpoint();
      if (Remaining.empty())
        return;
      Next.NotBefore = Clock::now();
    } else {
      Next.NotBefore = Backoff(S);
      Checkpoint();
    }
    Next.Ordinals = std::move(Remaining);
    Queue.push_back(std::move(Next));
  };

  auto Launch = [&](Shard Task) {
    proc::Subprocess::Options SO;
    SO.Argv = workerArgv(Opts);
    SO.PipeStdin = true;
    std::string Err;
    std::optional<proc::Subprocess> P = proc::Subprocess::spawn(SO, &Err);
    if (!P) {
      HandleUntrusted(std::move(Task), "worker spawn failed: " + Err, "");
      return;
    }
    // Linked runs prepend the analyze preamble (mode + environment) and a
    // per-file digest column; the legacy two-column feed is preserved for
    // per-file runs so the wire stays byte-compatible.
    std::string Feed;
    if (Linked) {
      Feed += AnalyzePreamble;
      Feed += '\n';
    }
    for (size_t Ord : Task.Ordinals) {
      Feed += std::to_string(Ord);
      Feed += '\t';
      if (Linked) {
        Feed += InLink[Ord] ? std::to_string(LinkDigest[Ord])
                            : std::string("-");
        Feed += '\t';
      }
      Feed += Inputs[Ord].Path;
      Feed += '\n';
    }
    auto W = std::make_unique<ActiveWorker>(std::move(*P), std::move(Task));
    // A write failure means the child is already dead; the reap below
    // classifies that better than we could here.
    W->Proc.writeStdin(Feed);
    W->Proc.closeStdin();
    if (Opts.TimeoutMs) {
      W->HasDeadline = true;
      W->Deadline = Clock::now() + std::chrono::milliseconds(Opts.TimeoutMs);
    }
    Active.push_back(std::move(W));
  };

  while (!Interrupted && (!Queue.empty() || !Active.empty())) {
    // Launch every ready shard for which there is a worker slot.
    const auto Now = Clock::now();
    for (size_t I = 0; I != Queue.size() && Active.size() < MaxWorkers;) {
      if (Queue[I].NotBefore <= Now) {
        Shard Task = std::move(Queue[I]);
        Queue.erase(Queue.begin() + long(I));
        Launch(std::move(Task));
      } else {
        ++I;
      }
    }
    if (Interrupted)
      break;
    if (Active.empty()) {
      if (Queue.empty())
        break;
      // Everything queued is backing off; sleep until the earliest gate.
      Clock::time_point Earliest = Queue.front().NotBefore;
      for (const Shard &Sh : Queue)
        Earliest = std::min(Earliest, Sh.NotBefore);
      std::this_thread::sleep_until(Earliest);
      continue;
    }

    // Wait for output, a death, or a deadline. readSome is non-blocking,
    // so it is safe (and simplest) to attempt a drain on every worker
    // afterwards regardless of which fd woke us.
    {
      std::vector<struct pollfd> Fds;
      int TimeoutMsPoll = 100;
      for (const auto &W : Active)
        if (!appendWaitFds(W->Proc, Fds))
          TimeoutMsPoll = 1;
      const auto PollNow = Clock::now();
      auto Consider = [&](Clock::time_point T) {
        auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      T - PollNow)
                      .count();
        TimeoutMsPoll = int(std::clamp<long long>(Ms, 0, TimeoutMsPoll));
      };
      for (const auto &W : Active)
        if (W->HasDeadline)
          Consider(W->Deadline);
      if (Active.size() < MaxWorkers)
        for (const Shard &Sh : Queue)
          Consider(Sh.NotBefore);
      pollFleet(Fds, TimeoutMsPoll, IdlePolls);
    }

    for (auto &W : Active)
      drainStreams(*W);

    // Classify every worker that finished (or must be finished off).
    for (size_t I = 0; I != Active.size();) {
      ActiveWorker &W = *Active[I];
      bool Finished = false;
      Outcome Oc = Outcome::Done;
      std::string Cause;

      if (W.Protocol) {
        W.Proc.kill();
        W.Proc.wait();
        Finished = true;
        Oc = Outcome::Protocol;
        Cause = "unusable worker output (" + W.ProtocolNote + ")";
      } else if (W.Proc.stdoutFd() == -1 && W.Proc.stderrFd() == -1) {
        if (std::optional<proc::ExitStatus> St = W.Proc.tryWait()) {
          Finished = true;
          if (W.Done && W.Accepted.size() == W.Task.Ordinals.size()) {
            Oc = Outcome::Done;
          } else if (St->Signaled) {
            Oc = Outcome::Crash;
            Cause = "worker " + St->describe();
          } else if (St->Code != 0) {
            Oc = Outcome::Exit;
            Cause = "worker " + St->describe();
          } else {
            Oc = Outcome::Protocol;
            Cause = "unusable worker output (exited cleanly mid-protocol)";
          }
        } else if (!W.HasDeadline ||
                   W.Deadline > Clock::now() + ReapGrace) {
          // Streams closed but not exited: give it a short grace, then
          // the deadline branch below SIGKILLs it.
          W.HasDeadline = true;
          W.Deadline = Clock::now() + ReapGrace;
        }
      }

      if (!Finished && W.HasDeadline && Clock::now() >= W.Deadline) {
        W.Proc.kill();
        W.Proc.wait();
        // The pipes may still hold frames written before the hang; use
        // them — they tighten the attribution to the first un-reported
        // file.
        while (drainStreams(W))
          ;
        Finished = true;
        if (W.Protocol) {
          Oc = Outcome::Protocol;
          Cause = "unusable worker output (" + W.ProtocolNote + ")";
        } else {
          Oc = Outcome::Timeout;
          Cause = Opts.TimeoutMs
                      ? "watchdog timeout after " +
                            std::to_string(Opts.TimeoutMs) + " ms"
                      : "worker unresponsive after closing its streams";
        }
      }

      if (!Finished) {
        ++I;
        continue;
      }
      std::unique_ptr<ActiveWorker> Owned = std::move(Active[I]);
      Active.erase(Active.begin() + long(I));
      switch (Oc) {
      case Outcome::Done:
        for (auto &P : Owned->Accepted)
          Results[P.first] = std::move(P.second);
        Checkpoint();
        break;
      case Outcome::Protocol:
        HandleUntrusted(std::move(Owned->Task), Cause, Owned->ErrTail);
        break;
      case Outcome::Crash:
      case Outcome::Exit:
      case Outcome::Timeout:
        HandleTrusted(*Owned, Cause);
        break;
      }
      if (Interrupted)
        break;
    }
  }

  for (auto &W : Active) {
    W->Proc.kill();
    W->Proc.wait();
  }
  Active.clear();

  // Only an interrupt can leave holes; a completed run resolved every
  // ordinal through done/quarantine handling.
  for (size_t I = 0; I != N; ++I) {
    if (Results[I])
      continue;
    FileReport R;
    R.Path = Inputs[I].Path;
    R.Status = EngineStatus::Skipped;
    R.Reason = "run interrupted before analysis (resume with --resume)";
    Results[I] = std::move(R);
  }

  CorpusReport Report;
  Report.Files.reserve(N);
  for (auto &R : Results)
    Report.Files.push_back(std::move(*R));
  Report.finalize();
  Report.Stats.Jobs = MaxWorkers;
  Report.Stats.CacheEnabled = Opts.Engine.UseCache;
  Report.Stats.WallMs = std::chrono::duration<double, std::milli>(
                            Clock::now() - Start)
                            .count();
  if (Linked) {
    Report.Stats.LinkEnabled = true;
    Report.Stats.LinkedFiles = LinkedFiles;
    Report.Stats.LinkRounds = LinkStats.Rounds;
    Report.Stats.ModulesFromSummaryDb = LinkStats.ModulesFromDb;
    Report.Stats.SummaryDbHits = LinkStats.DbHits;
    Report.Stats.SummaryDbMisses = LinkStats.DbMisses;
    Report.Stats.SummaryDbStores = LinkStats.DbStores;
    Report.Stats.ModulesUnreferenced = LinkStats.ModulesUnreferenced;
  }
  return Report;
}

//===----------------------------------------------------------------------===//
// Worker mode
//===----------------------------------------------------------------------===//

namespace {

void writeFrame(std::string_view Payload) {
  char Header[16];
  std::snprintf(Header, sizeof(Header), "%08zx\n", Payload.size());
  std::fwrite(Header, 1, 9, stdout);
  std::fwrite(Payload.data(), 1, Payload.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

} // namespace

int rs::engine::runWorker(const EngineOptions &OptsIn) {
  EngineOptions Opts = OptsIn;
  Opts.Jobs = 1; // Parallelism is the supervisor's job, one level up.
  AnalysisEngine Engine(Opts);

  // Fault injection must cross the process boundary, so the worker side is
  // armed through the environment rather than the in-process registry:
  // RUSTSIGHT_WORKER_FAULT names the site, RUSTSIGHT_WORKER_FAULT_FILE
  // optionally gates it to paths containing the substring. Fresh processes
  // make the injection deterministic per attempt.
  std::string FaultSite;
  if (const char *S = std::getenv("RUSTSIGHT_WORKER_FAULT"))
    FaultSite = S;
  std::string FaultFile;
  if (const char *S = std::getenv("RUSTSIGHT_WORKER_FAULT_FILE"))
    FaultFile = S;
  if (!FaultSite.empty())
    fault::arm(FaultSite, 1, uint64_t(1) << 32); // Every hit, sans overflow.

  // Read the whole shard before producing any output: the supervisor
  // writes the list and closes our stdin up front, so consuming it first
  // leaves no window for pipe deadlock. A first line starting with '{' is
  // a mode preamble (whole-program link phases); the plain two-column feed
  // stays the legacy analyze protocol.
  enum class Mode { Analyze, LinkedAnalyze, Facts, Summarize };
  Mode WorkerMode = Mode::Analyze;
  analysis::ExternalSummaries Env;

  struct Item {
    uint64_t Ordinal;  ///< Corpus input ordinal (facts/analyze) or module
                       ///< ordinal as assigned by the fleet (summarize).
    uint64_t Aux = 0;  ///< LinkedAnalyze: digest. Summarize: module index.
    bool Linked = false; ///< LinkedAnalyze: file joined the link.
    std::string Path;
  };
  std::vector<Item> Items;
  std::string Line;
  bool First = true;
  while (std::getline(std::cin, Line)) {
    if (Line.empty())
      continue;
    if (First && Line[0] == '{') {
      First = false;
      std::optional<JsonValue> P = JsonValue::parse(Line);
      if (!P || !P->isObject()) {
        std::fprintf(stderr, "worker: malformed mode preamble\n");
        return 3;
      }
      std::string_view M = P->getString("mode");
      if (M == "facts")
        WorkerMode = Mode::Facts;
      else if (M == "summarize")
        WorkerMode = Mode::Summarize;
      else if (M == "analyze")
        WorkerMode = Mode::LinkedAnalyze;
      else {
        std::fprintf(stderr, "worker: unknown mode preamble\n");
        return 3;
      }
      std::string_view E = P->getString("env");
      if (!E.empty()) {
        std::optional<analysis::ExternalSummaries> D =
            analysis::deserializeEnv(E);
        if (!D) {
          std::fprintf(stderr, "worker: malformed link environment\n");
          return 3;
        }
        Env = std::move(*D);
      }
      continue;
    }
    First = false;
    size_t Tab = Line.find('\t');
    if (Tab == std::string::npos || Tab == 0) {
      std::fprintf(stderr, "worker: malformed shard line\n");
      return 3;
    }
    Item It;
    It.Ordinal = std::strtoull(Line.c_str(), nullptr, 10);
    std::string Rest = Line.substr(Tab + 1);
    if (WorkerMode == Mode::LinkedAnalyze || WorkerMode == Mode::Summarize) {
      size_t Tab2 = Rest.find('\t');
      if (Tab2 == std::string::npos || Tab2 == 0) {
        std::fprintf(stderr, "worker: malformed shard line\n");
        return 3;
      }
      std::string Field = Rest.substr(0, Tab2);
      if (WorkerMode == Mode::LinkedAnalyze && Field == "-") {
        It.Linked = false;
      } else {
        It.Linked = true;
        It.Aux = std::strtoull(Field.c_str(), nullptr, 10);
      }
      It.Path = Rest.substr(Tab2 + 1);
    } else {
      It.Path = std::move(Rest);
    }
    Items.push_back(std::move(It));
  }

  for (const Item &It : Items) {
    if (FaultFile.empty() ||
        It.Path.find(FaultFile) != std::string::npos) {
      if (fault::shouldFail("engine.worker.crash")) {
        // Die by a genuine SIGSEGV even under sanitizers (restore the
        // default disposition first) so the supervisor's classification
        // sees "killed by signal 11", exactly like a real crash.
        std::signal(SIGSEGV, SIG_DFL);
        std::raise(SIGSEGV);
      }
      if (fault::shouldFail("engine.worker.hang"))
        for (;;)
          ::sleep(1); // Watchdog food.
      if (fault::shouldFail("engine.worker.garbage-output")) {
        std::fputs("!! this is not a frame: corrupted worker stream\n",
                   stdout);
        std::fflush(stdout);
        return 0;
      }
    }

    switch (WorkerMode) {
    case Mode::Facts: {
      std::optional<analysis::ModuleFacts> F =
          Engine.collectFileFacts(It.Path);
      if (!F)
        std::fprintf(stderr, "worker: %s: no link facts (per-file mode)\n",
                     It.Path.c_str());
      writeFrame(
          "{\"type\":\"file\",\"ordinal\":" + std::to_string(It.Ordinal) +
          ",\"payload\":" +
          (F ? jsonString(analysis::serializeModuleFacts(*F)) : "null") +
          "}");
      continue;
    }
    case Mode::Summarize: {
      std::optional<analysis::ModuleSummaries> MS = Engine.summarizeFileForLink(
          It.Path, static_cast<uint32_t>(It.Aux), Env);
      if (!MS)
        std::fprintf(stderr, "worker: %s: summarize round lost\n",
                     It.Path.c_str());
      writeFrame(
          "{\"type\":\"file\",\"ordinal\":" + std::to_string(It.Ordinal) +
          ",\"payload\":" +
          (MS ? jsonString(analysis::serializeModuleSummaries(*MS)) : "null") +
          "}");
      continue;
    }
    case Mode::Analyze:
    case Mode::LinkedAnalyze:
      break;
    }

    FileReport R =
        WorkerMode == Mode::LinkedAnalyze && It.Linked
            ? Engine.analyzeFileThroughCacheLinked(It.Path, Env, It.Aux)
            : Engine.analyzeFileThroughCache(It.Path);
    if (R.Status != EngineStatus::Ok)
      std::fprintf(stderr, "worker: %s: %s: %s\n", R.Path.c_str(),
                   engineStatusName(R.Status), R.Reason.c_str());
    writeFrame("{\"type\":\"file\",\"ordinal\":" +
               std::to_string(It.Ordinal) +
               ",\"report\":" + serializeWireFileReport(R) + "}");
  }
  writeFrame("{\"type\":\"done\",\"files\":" + std::to_string(Items.size()) +
             "}");
  return 0;
}
