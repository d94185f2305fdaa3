//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Child-process plumbing for the out-of-process analysis fleet: spawn a
/// worker with piped stdin/stdout/stderr (posix_spawn), stream its output
/// through non-blocking reads, kill it when a watchdog expires, and reap it
/// into a classified exit status (clean exit vs nonzero exit vs death by
/// signal). The supervisor's whole worker contract — SIGSEGV and SIGABRT
/// are crashes, SIGKILL after a deadline is a timeout, exit 0 after a
/// "done" frame is success — is built on the ExitStatus this class
/// returns. See docs/RESILIENCE.md ("Process-level supervision").
///
/// Everything here reports failure by return value, never by exception:
/// a worker that cannot be spawned or read is a supervisor-visible event
/// to classify, not a reason to die.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SUPPORT_SUBPROCESS_H
#define RUSTSIGHT_SUPPORT_SUBPROCESS_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

namespace rs::proc {

/// How a reaped child ended.
struct ExitStatus {
  bool Signaled = false; ///< True when the child was killed by a signal.
  int Code = 0;          ///< WEXITSTATUS when !Signaled.
  int Sig = 0;           ///< WTERMSIG when Signaled.

  bool cleanExit() const { return !Signaled && Code == 0; }

  /// "exited with code 3" / "killed by signal 11 (SIGSEGV)".
  std::string describe() const;
};

/// One spawned child with piped standard streams. Move-only; the
/// destructor kills (SIGKILL) and reaps a child that is still running so a
/// supervisor bug can never leak zombies or orphaned workers.
class Subprocess {
public:
  struct Options {
    /// Argv[0] is the executable, resolved through PATH (posix_spawnp).
    std::vector<std::string> Argv;
    /// When false the child inherits the parent's stdin and stdinFd() is
    /// -1.
    bool PipeStdin = true;
  };

  /// Spawns the child. On failure returns nullopt and, when \p Err is
  /// non-null, a description of what failed.
  static std::optional<Subprocess> spawn(const Options &O,
                                         std::string *Err = nullptr);

  Subprocess(Subprocess &&Other) noexcept;
  Subprocess &operator=(Subprocess &&Other) noexcept;
  Subprocess(const Subprocess &) = delete;
  Subprocess &operator=(const Subprocess &) = delete;
  ~Subprocess();

  pid_t pid() const { return Pid; }

  /// Parent ends of the child's streams. stdout/stderr are non-blocking
  /// (O_NONBLOCK) so a supervisor can poll() many workers at once; -1 once
  /// closed.
  int stdoutFd() const { return OutFd; }
  int stderrFd() const { return ErrFd; }
  int stdinFd() const { return InFd; }

  /// A pollable descriptor that turns readable (POLLIN) once the child
  /// has exited — a Linux pidfd, opened on first use. A supervisor polls
  /// it after both output pipes have closed, so it reaps the child the
  /// moment it exits instead of sleeping on an fd-less poll. -1 when the
  /// kernel has no pidfd support.
  int exitFd();

  /// Blocking write of the whole buffer to the child's stdin. Returns
  /// false on any write error (including EPIPE from a child that died —
  /// SIGPIPE is suppressed for the write, so the caller sees a return
  /// value, not a signal).
  bool writeStdin(std::string_view Data);

  /// Closes the child's stdin so it sees EOF.
  void closeStdin();

  enum class ReadStatus {
    Data,       ///< Appended at least one byte to the buffer.
    WouldBlock, ///< Nothing available right now (EAGAIN).
    Eof,        ///< Stream closed by the child; the fd has been closed.
    Error,      ///< Read error; the fd has been closed.
  };

  /// Non-blocking drain of one of this child's stream fds into \p Out.
  /// Call with stdoutFd() or stderrFd() after poll() reports readability.
  ReadStatus readSome(int Fd, std::string &Out);

  /// Sends \p Signal (default SIGKILL) to the child. Safe to call on an
  /// already-reaped child (no-op).
  void kill(int Signal = 9);

  /// Reaps the child without blocking; nullopt while it is still running.
  /// The status is cached: later calls keep returning it.
  std::optional<ExitStatus> tryWait();

  /// Blocking reap (waits for the child to end first).
  ExitStatus wait();

private:
  Subprocess() = default;
  void closeFd(int &Fd);

  pid_t Pid = -1;
  int InFd = -1;
  int OutFd = -1;
  int ErrFd = -1;
  int PidFd = -1;
  bool PidFdTried = false;
  std::optional<ExitStatus> Reaped;
};

/// Convenience one-shot runner used by tests and tools: spawns Argv, feeds
/// \p Stdin, collects both output streams, and enforces \p TimeoutMs
/// (0 = none) by SIGKILL.
struct RunResult {
  bool Spawned = false;   ///< False when the process never started.
  bool TimedOut = false;  ///< True when the deadline killed it.
  ExitStatus Exit;        ///< Valid when Spawned.
  std::string Stdout;
  std::string Stderr;
  std::string Error;      ///< Spawn-failure description.
};
RunResult runCommand(const std::vector<std::string> &Argv,
                     std::string_view Stdin = "", uint64_t TimeoutMs = 0);

/// Absolute path of the running executable (/proc/self/exe on Linux),
/// falling back to \p Argv0 when the link cannot be read. The supervisor
/// uses this to respawn itself in worker mode.
std::string currentExecutablePath(const char *Argv0);

} // namespace rs::proc

#endif // RUSTSIGHT_SUPPORT_SUBPROCESS_H
