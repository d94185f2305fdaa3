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
#include <functional>
#include <iostream>
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

enum class Outcome {
  Done,     ///< Complete frame stream + "done" frame.
  Crash,    ///< Killed by a signal (SIGSEGV, SIGABRT, ...).
  Exit,     ///< Exited with a nonzero code.
  Timeout,  ///< SIGKILLed by the watchdog deadline.
  Protocol, ///< Output unusable: bad framing, bad JSON, premature exit 0.
};

/// One unit of queued work: a sorted slice of a phase's item indices.
/// Attempts counts protocol-failure attempts (trusted-frame failures use
/// per-item strike counters instead, so attribution survives re-sharding).
struct Shard {
  std::vector<size_t> Ordinals;
  unsigned Attempts = 0;
  Clock::time_point NotBefore{};
};

/// Contiguous, deterministic partition of \p Items into at most \p Count
/// shards of near-equal size.
std::deque<Shard> partitionShards(const std::vector<size_t> &Items,
                                  size_t Count) {
  std::deque<Shard> Queue;
  Count = std::min(Count, Items.size());
  size_t Base = 0;
  for (size_t S = 0; S != Count; ++S) {
    size_t Len = Items.size() / Count + (S < Items.size() % Count ? 1 : 0);
    Shard Sh;
    Sh.Ordinals.assign(Items.begin() + long(Base),
                       Items.begin() + long(Base + Len));
    Base += Len;
    Queue.push_back(std::move(Sh));
  }
  return Queue;
}

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

/// What one fleet phase (facts, summarize or analyze) does with its items;
/// the fleet supplies the transport and the supervision ladder. \p T is
/// the decoded result of one item's file frame.
template <typename T> struct FleetPhase {
  /// The feed's first line: the worker mode, plus the link environment
  /// where the mode needs one.
  std::string Preamble;
  /// Item I's feed line after its ordinal: "<aux>\t<path>".
  std::function<std::string(size_t)> Line;
  /// The result carried by a file frame; nullopt marks the stream corrupt.
  std::function<std::optional<T>(const JsonValue &Frame)> Decode;
  /// Takes item I's result from a trusted frame stream.
  std::function<void(size_t, T)> Accept;
  /// Item I exhausted its retries: the classified cause, the attempts it
  /// took, and the failing worker's stderr tail.
  std::function<void(size_t, const std::string &, unsigned,
                     const std::string &)>
      GiveUp;
  /// Runs after every classified attempt (optional); false stops the
  /// fleet at once, leaving unresolved items without a result.
  std::function<bool()> Settled;
};

/// A supervised worker fleet running one phase. Each attempt spawns a
/// worker for one shard and classifies how it ended:
///  - done: every item's result is kept;
///  - crash, nonzero exit, watchdog timeout: the frames up to the failure
///    are trusted and kept, and the first item without one takes a strike;
///    after MaxRetries strikes it is given up and the rest runs on;
///  - protocol failure (corrupt framing or payload, a clean exit without
///    "done", a spawn failure): nothing is trusted; the remainder is
///    retried whole, then bisected down to a singleton that is given up.
/// Every retry waits out an exponential backoff.
template <typename T> class Fleet {
public:
  Fleet(const SupervisorOptions &Opts, FleetPhase<T> Phase, size_t NumItems,
        uint64_t &IdlePolls)
      : Opts(Opts), Phase(std::move(Phase)), Resolved(NumItems, false),
        IdlePolls(IdlePolls) {}

  /// Runs \p Shards on at most \p MaxWorkers concurrent workers. Returns
  /// the workers' result-cache counters summed over the attempts that
  /// completed.
  sched::ResultCache::Stats run(std::deque<Shard> Shards,
                                unsigned MaxWorkers);

private:
  struct Worker {
    Worker(proc::Subprocess P, Shard S)
        : Proc(std::move(P)), Task(std::move(S)) {}

    proc::Subprocess Proc;
    Shard Task;
    std::string OutBuf;  ///< Unconsumed frame bytes.
    std::string ErrTail; ///< Trailing stderr (capped).
    /// Results accepted from this attempt's frame stream, in arrival
    /// order. Only merged once the attempt is classified: trusted
    /// classifications keep them, protocol failures discard them.
    std::vector<std::pair<size_t, T>> Accepted;
    sched::ResultCache::Stats Cache; ///< From the "done" frame.
    bool Done = false;
    bool Protocol = false;
    std::string ProtocolNote;
    bool HasDeadline = false;
    Clock::time_point Deadline{};
  };

  void markProtocol(Worker &W, std::string Note) {
    W.Protocol = true;
    if (W.ProtocolNote.empty())
      W.ProtocolNote = std::move(Note);
  }
  void handlePayload(Worker &W, std::string_view Payload);
  void parseFrames(Worker &W);
  bool drainStreams(Worker &W);
  void launch(Shard Task);
  void settle();
  std::vector<size_t> unresolved(const std::vector<size_t> &Items) const;
  void handleUntrusted(Shard Task, const std::string &Cause,
                       const std::string &Tail);
  void handleTrusted(Worker &W, const std::string &Cause);
  Clock::time_point backoff(unsigned Strike) const;

  const SupervisorOptions &Opts;
  FleetPhase<T> Phase;
  std::vector<bool> Resolved;
  uint64_t &IdlePolls;
  std::deque<Shard> Queue;
  std::vector<std::unique_ptr<Worker>> Active;
  std::map<size_t, unsigned> Strikes;
  bool Stopped = false;
};

template <typename T>
void Fleet<T>::handlePayload(Worker &W, std::string_view Payload) {
  std::optional<JsonValue> V = JsonValue::parse(Payload);
  if (!V || !V->isObject()) {
    markProtocol(W, "unparseable frame payload");
    return;
  }
  std::string_view Type = V->getString("type");
  if (Type == "done") {
    W.Done = true;
    if (const JsonValue *C = V->get("cache")) {
      auto Count = [C](const char *Key) {
        return uint64_t(std::max<int64_t>(0, C->getInt(Key)));
      };
      W.Cache.Hits = Count("hits");
      W.Cache.Misses = Count("misses");
      W.Cache.DiskHits = Count("disk_hits");
      W.Cache.Evictions = Count("evictions");
      W.Cache.CorruptEntries = Count("corrupt");
    }
    return;
  }
  if (Type != "file") {
    markProtocol(W, "unknown frame type");
    return;
  }
  int64_t Ordinal = V->getInt("ordinal", -1);
  if (Ordinal < 0 ||
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
  std::optional<T> R = Phase.Decode(*V);
  if (!R) {
    markProtocol(W, "malformed file report");
    return;
  }
  W.Accepted.emplace_back(size_t(Ordinal), std::move(*R));
}

template <typename T> void Fleet<T>::parseFrames(Worker &W) {
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
template <typename T> bool Fleet<T>::drainStreams(Worker &W) {
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

template <typename T> void Fleet<T>::settle() {
  if (Phase.Settled && !Phase.Settled())
    Stopped = true;
}

template <typename T>
std::vector<size_t>
Fleet<T>::unresolved(const std::vector<size_t> &Items) const {
  std::vector<size_t> Out;
  for (size_t I : Items)
    if (!Resolved[I])
      Out.push_back(I);
  return Out;
}

template <typename T>
Clock::time_point Fleet<T>::backoff(unsigned Strike) const {
  uint64_t Ms = Opts.BackoffMs;
  for (unsigned I = 1; I < Strike && Ms < 2000; ++I)
    Ms *= 2;
  return Clock::now() +
         std::chrono::milliseconds(std::min<uint64_t>(Ms, 2000));
}

/// Frames from the attempt could not be trusted: retry the remainder
/// whole, then bisect — each level gets one attempt — down to a singleton
/// that is given up.
template <typename T>
void Fleet<T>::handleUntrusted(Shard Task, const std::string &Cause,
                               const std::string &Tail) {
  Task.Ordinals = unresolved(Task.Ordinals);
  if (Task.Ordinals.empty())
    return settle();
  ++Task.Attempts;
  if (Task.Attempts <= Opts.MaxRetries) {
    Task.NotBefore = backoff(Task.Attempts);
    Queue.push_back(std::move(Task));
    return settle();
  }
  if (Task.Ordinals.size() == 1) {
    Resolved[Task.Ordinals[0]] = true;
    Phase.GiveUp(Task.Ordinals[0], Cause, Task.Attempts, Tail);
    return settle();
  }
  size_t Mid = Task.Ordinals.size() / 2;
  Shard Lo, Hi;
  Lo.Ordinals.assign(Task.Ordinals.begin(), Task.Ordinals.begin() + long(Mid));
  Hi.Ordinals.assign(Task.Ordinals.begin() + long(Mid), Task.Ordinals.end());
  // One attempt per bisection level keeps isolation O(log n) worker runs
  // while the total attempt count at give-up stays MaxRetries + 1 — the
  // reason text is byte-identical however the run was sharded.
  Lo.Attempts = Hi.Attempts = Opts.MaxRetries;
  Lo.NotBefore = Hi.NotBefore = Clock::now();
  Queue.push_back(std::move(Lo));
  Queue.push_back(std::move(Hi));
  settle();
}

/// The frame stream up to the failure is trustworthy (crash, nonzero exit,
/// watchdog kill): keep every streamed result, attribute the failure to the
/// first item without one, and strike it.
template <typename T>
void Fleet<T>::handleTrusted(Worker &W, const std::string &Cause) {
  for (auto &P : W.Accepted)
    if (!Resolved[P.first]) {
      Resolved[P.first] = true;
      Phase.Accept(P.first, std::move(P.second));
    }
  std::vector<size_t> Remaining = unresolved(W.Task.Ordinals);
  if (Remaining.empty())
    return settle();
  const size_t Suspect = Remaining.front();
  const unsigned S = ++Strikes[Suspect];
  Shard Next;
  if (S > Opts.MaxRetries) {
    Resolved[Suspect] = true;
    Phase.GiveUp(Suspect, Cause, S, W.ErrTail);
    Remaining.erase(Remaining.begin());
    Next.NotBefore = Clock::now();
  } else {
    Next.NotBefore = backoff(S);
  }
  if (!Remaining.empty()) {
    Next.Ordinals = std::move(Remaining);
    Queue.push_back(std::move(Next));
  }
  settle();
}

template <typename T> void Fleet<T>::launch(Shard Task) {
  proc::Subprocess::Options SO;
  SO.Argv = workerArgv(Opts);
  SO.PipeStdin = true;
  std::string Err;
  std::optional<proc::Subprocess> P = proc::Subprocess::spawn(SO, &Err);
  if (!P)
    return handleUntrusted(std::move(Task), "worker spawn failed: " + Err, "");
  std::string Feed = Phase.Preamble + "\n";
  for (size_t Ord : Task.Ordinals)
    Feed += std::to_string(Ord) + "\t" + Phase.Line(Ord) + "\n";
  auto W = std::make_unique<Worker>(std::move(*P), std::move(Task));
  // A write failure means the child is already dead; the reap below
  // classifies that better than we could here.
  W->Proc.writeStdin(Feed);
  W->Proc.closeStdin();
  if (Opts.TimeoutMs) {
    W->HasDeadline = true;
    W->Deadline = Clock::now() + std::chrono::milliseconds(Opts.TimeoutMs);
  }
  Active.push_back(std::move(W));
}

template <typename T>
sched::ResultCache::Stats Fleet<T>::run(std::deque<Shard> Shards,
                                        unsigned MaxWorkers) {
  Queue = std::move(Shards);
  sched::ResultCache::Stats Counters;
  while (!Stopped && (!Queue.empty() || !Active.empty())) {
    // Launch every ready shard for which there is a worker slot.
    const auto Now = Clock::now();
    for (size_t I = 0;
         I != Queue.size() && Active.size() < MaxWorkers && !Stopped;) {
      if (Queue[I].NotBefore <= Now) {
        Shard Task = std::move(Queue[I]);
        Queue.erase(Queue.begin() + long(I));
        launch(std::move(Task));
      } else {
        ++I;
      }
    }
    if (Stopped)
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
      int TimeoutMs = 100;
      for (const auto &W : Active)
        if (!appendWaitFds(W->Proc, Fds))
          TimeoutMs = 1;
      const auto PollNow = Clock::now();
      auto Consider = [&](Clock::time_point At) {
        auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      At - PollNow)
                      .count();
        TimeoutMs = int(std::clamp<long long>(Ms, 0, TimeoutMs));
      };
      for (const auto &W : Active)
        if (W->HasDeadline)
          Consider(W->Deadline);
      if (Active.size() < MaxWorkers)
        for (const Shard &Sh : Queue)
          Consider(Sh.NotBefore);
      IdlePolls += Fds.empty(); // A blind sleep: nothing to wait on.
      ::poll(Fds.empty() ? nullptr : Fds.data(), nfds_t(Fds.size()),
             TimeoutMs);
    }

    for (auto &W : Active)
      drainStreams(*W);

    // Classify every worker that finished (or must be finished off).
    for (size_t I = 0; I != Active.size() && !Stopped;) {
      Worker &W = *Active[I];
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
        // item.
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
      std::unique_ptr<Worker> Owned = std::move(Active[I]);
      Active.erase(Active.begin() + long(I));
      switch (Oc) {
      case Outcome::Done:
        for (auto &P : Owned->Accepted) {
          Resolved[P.first] = true;
          Phase.Accept(P.first, std::move(P.second));
        }
        Counters.Hits += Owned->Cache.Hits;
        Counters.Misses += Owned->Cache.Misses;
        Counters.DiskHits += Owned->Cache.DiskHits;
        Counters.Evictions += Owned->Cache.Evictions;
        Counters.CorruptEntries += Owned->Cache.CorruptEntries;
        settle();
        break;
      case Outcome::Protocol:
        handleUntrusted(std::move(Owned->Task), Cause, Owned->ErrTail);
        break;
      case Outcome::Crash:
      case Outcome::Exit:
      case Outcome::Timeout:
        handleTrusted(*Owned, Cause);
        break;
      }
    }
  }

  for (auto &W : Active) {
    W->Proc.kill();
    W->Proc.wait();
  }
  Active.clear();
  return Counters;
}

/// The link step's facts and summarize phases: item I goes out as feed line
/// \p Lines[I] under \p Preamble, and slot I of the result holds the
/// worker's payload string — nullopt when the worker returned null or the
/// item was given up. A lost item only costs precision: a file without
/// facts is analyzed per-file, a module without summaries is unchanged
/// that round. Poison files still meet quarantine in the analyze phase.
std::vector<std::optional<std::string>>
runLinkPhase(const SupervisorOptions &Opts, std::string Preamble,
             const std::vector<std::string> &Lines, unsigned MaxWorkers,
             uint64_t &IdlePolls) {
  std::vector<std::optional<std::string>> Out(Lines.size());
  FleetPhase<std::optional<std::string>> Phase;
  Phase.Preamble = std::move(Preamble);
  Phase.Line = [&](size_t I) { return Lines[I]; };
  Phase.Decode = [](const JsonValue &Frame) {
    std::optional<std::string> Payload;
    if (const JsonValue *P = Frame.get("payload"); P && P->isString())
      Payload = P->asString();
    return std::optional<std::optional<std::string>>(std::move(Payload));
  };
  Phase.Accept = [&](size_t I, std::optional<std::string> P) {
    Out[I] = std::move(P);
  };
  Phase.GiveUp = [](size_t, const std::string &, unsigned,
                    const std::string &) {};
  std::vector<size_t> Items(Lines.size());
  for (size_t I = 0; I != Items.size(); ++I)
    Items[I] = I;
  Fleet<std::optional<std::string>>(Opts, std::move(Phase), Lines.size(),
                                    IdlePolls)
      .run(partitionShards(Items, MaxWorkers), MaxWorkers);
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
  // engine — only the transport of each phase differs (a worker fleet
  // instead of a thread pool) — so the round trajectory, the environment,
  // and the per-file digests are byte-identical to an in-process run over
  // the same corpus and summary DB. A per-file run links nothing: every
  // file goes to the analyze phase with digest "-" and no environment.
  std::vector<std::string> Digest(N, "-");
  std::string AnalyzePreamble = "{\"mode\":\"analyze\"}";
  analysis::LinkStats LinkStats;
  unsigned LinkedFiles = 0;
  if (Linked) {
    const unsigned FleetWorkers =
        std::max(1u, Opts.MaxWorkers ? Opts.MaxWorkers : Hardware);

    // Phase 1: facts, one fleet over every analyzable input (journaled
    // files included — their summaries still feed other files' analyses).
    // A file whose facts cannot be collected degrades to per-file mode.
    std::vector<size_t> FactInput;
    std::vector<std::string> FactLines;
    for (size_t I = 0; I != N; ++I)
      if (Inputs[I].SkipReason.empty()) {
        FactInput.push_back(I);
        FactLines.push_back("-\t" + Inputs[I].Path);
      }
    std::vector<std::optional<std::string>> FactPayloads = runLinkPhase(
        Opts, "{\"mode\":\"facts\"}", FactLines, FleetWorkers, IdlePolls);

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
          std::vector<std::string> Lines;
          Lines.reserve(ModuleIdxs.size());
          for (uint32_t M : ModuleIdxs)
            Lines.push_back(std::to_string(M) + "\t" +
                            Inputs[LinkInputOrd[M]].Path);
          std::string Pre = "{\"mode\":\"summarize\",\"env\":" +
                            jsonString(analysis::serializeEnv(Env)) + "}";
          std::vector<std::optional<std::string>> Payloads =
              runLinkPhase(Opts, Pre, Lines, FleetWorkers, IdlePolls);
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
    for (uint32_t M = 0;
         M != static_cast<uint32_t>(LR.Corpus.modules().size()); ++M)
      Digest[LinkInputOrd[M]] = std::to_string(LR.Corpus.linkDigest(M));
    AnalyzePreamble = "{\"mode\":\"analyze\",\"env\":" +
                      jsonString(analysis::serializeEnv(LR.Env)) + "}";
    LinkedFiles = static_cast<unsigned>(LinkInputOrd.size());
    LinkStats = LR.Stats;
  }

  // Phase 3: analyze. Items are input ordinals; a file that exhausts its
  // retries is quarantined, and the journal is rewritten after every
  // classified attempt.
  FleetPhase<FileReport> Analyze;
  Analyze.Preamble = AnalyzePreamble;
  Analyze.Line = [&](size_t Ord) {
    return Digest[Ord] + "\t" + Inputs[Ord].Path;
  };
  Analyze.Decode = [](const JsonValue &Frame) -> std::optional<FileReport> {
    const JsonValue *Report = Frame.get("report");
    if (!Report)
      return std::nullopt;
    return fileReportFromJson(*Report);
  };
  Analyze.Accept = [&](size_t Ord, FileReport R) {
    Results[Ord] = std::move(R);
  };
  Analyze.GiveUp = [&](size_t Ord, const std::string &Cause,
                       unsigned Attempts, const std::string &Tail) {
    Results[Ord] = makeQuarantineReport(Inputs[Ord].Path, Cause, Attempts,
                                        filterTailFor(Tail, Inputs[Ord].Path));
  };
  Analyze.Settled = [&] {
    if (Journal)
      Journal->write(Key, Results);
    // Deterministic stand-in for kill -9: tests arm this site to verify
    // that whatever the journal holds right now is enough to resume from.
    return !fault::shouldFail("engine.supervisor.interrupt");
  };
  sched::ResultCache::Stats CacheStats =
      Fleet<FileReport>(Opts, std::move(Analyze), N, IdlePolls)
          .run(partitionShards(PendingOrdinals, ShardCount), MaxWorkers);

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
  Report.Stats.CacheHits = CacheStats.Hits;
  Report.Stats.CacheMisses = CacheStats.Misses;
  Report.Stats.CacheEvictions = CacheStats.Evictions;
  Report.Stats.DiskHits = CacheStats.DiskHits;
  Report.Stats.CorruptEntries = CacheStats.CorruptEntries;
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

  // Read the whole feed before producing any output: the supervisor writes
  // it and closes our stdin up front, so consuming it first leaves no
  // window for pipe deadlock. The first line is the mode preamble; every
  // line after it is "<ordinal>\t<aux>\t<path>".
  std::string Line;
  std::optional<JsonValue> Preamble;
  if (std::getline(std::cin, Line))
    Preamble = JsonValue::parse(Line);
  if (!Preamble || !Preamble->isObject()) {
    std::fprintf(stderr, "worker: malformed mode preamble\n");
    return 3;
  }
  analysis::ExternalSummaries Env;
  if (std::string_view E = Preamble->getString("env"); !E.empty()) {
    std::optional<analysis::ExternalSummaries> D = analysis::deserializeEnv(E);
    if (!D) {
      std::fprintf(stderr, "worker: malformed link environment\n");
      return 3;
    }
    Env = std::move(*D);
  }

  // Each mode maps one item (its aux column and path) to the result member
  // of its file frame. Aux is "-" for facts, the module index for
  // summarize, and for analyze the file's link digest, or "-" for a file
  // that resolves nothing.
  std::function<std::string(const std::string &, const std::string &)> Handle;
  std::string_view Mode = Preamble->getString("mode");
  if (Mode == "facts") {
    Handle = [&](const std::string &, const std::string &Path) {
      std::optional<analysis::ModuleFacts> F = Engine.collectFileFacts(Path);
      if (!F)
        std::fprintf(stderr, "worker: %s: no link facts (per-file mode)\n",
                     Path.c_str());
      return "\"payload\":" +
             (F ? jsonString(analysis::serializeModuleFacts(*F)) : "null");
    };
  } else if (Mode == "summarize") {
    Handle = [&](const std::string &Aux, const std::string &Path) {
      std::optional<analysis::ModuleSummaries> MS =
          Engine.summarizeFileForLink(
              Path, static_cast<uint32_t>(std::strtoul(Aux.c_str(), nullptr, 10)),
              Env);
      if (!MS)
        std::fprintf(stderr, "worker: %s: summarize round lost\n",
                     Path.c_str());
      return "\"payload\":" +
             (MS ? jsonString(analysis::serializeModuleSummaries(*MS))
                 : "null");
    };
  } else if (Mode == "analyze") {
    Handle = [&](const std::string &Aux, const std::string &Path) {
      FileReport R =
          Aux == "-" ? Engine.analyzeFileThroughCache(Path)
                     : Engine.analyzeFileThroughCache(
                           Path, &Env, std::strtoull(Aux.c_str(), nullptr, 10));
      if (R.Status != EngineStatus::Ok)
        std::fprintf(stderr, "worker: %s: %s: %s\n", R.Path.c_str(),
                     engineStatusName(R.Status), R.Reason.c_str());
      return "\"report\":" + serializeWireFileReport(R);
    };
  } else {
    std::fprintf(stderr, "worker: unknown mode preamble\n");
    return 3;
  }

  struct Item {
    uint64_t Ordinal;
    std::string Aux, Path;
  };
  std::vector<Item> Items;
  while (std::getline(std::cin, Line)) {
    if (Line.empty())
      continue;
    size_t Tab1 = Line.find('\t');
    size_t Tab2 = Tab1 == std::string::npos ? Tab1 : Line.find('\t', Tab1 + 1);
    if (Tab1 == 0 || Tab2 == std::string::npos || Tab2 == Tab1 + 1) {
      std::fprintf(stderr, "worker: malformed shard line\n");
      return 3;
    }
    Items.push_back({std::strtoull(Line.c_str(), nullptr, 10),
                     Line.substr(Tab1 + 1, Tab2 - Tab1 - 1),
                     Line.substr(Tab2 + 1)});
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
    writeFrame("{\"type\":\"file\",\"ordinal\":" +
               std::to_string(It.Ordinal) + "," +
               Handle(It.Aux, It.Path) + "}");
  }

  // The result-cache counters of this attempt, which the supervisor sums
  // into the run's stats line.
  sched::ResultCache::Stats C;
  if (sched::ResultCache *Cache = Engine.cache())
    C = Cache->stats();
  writeFrame("{\"type\":\"done\",\"files\":" + std::to_string(Items.size()) +
             ",\"cache\":{\"hits\":" + std::to_string(C.Hits) +
             ",\"misses\":" + std::to_string(C.Misses) +
             ",\"disk_hits\":" + std::to_string(C.DiskHits) +
             ",\"evictions\":" + std::to_string(C.Evictions) +
             ",\"corrupt\":" + std::to_string(C.CorruptEntries) + "}}");
  return 0;
}
