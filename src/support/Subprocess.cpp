#include "support/Subprocess.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace rs;
using namespace rs::proc;

std::string ExitStatus::describe() const {
  if (!Signaled)
    return "exited with code " + std::to_string(Code);
  std::string Out = "killed by signal " + std::to_string(Sig);
#ifdef SIGSEGV
  // Spell the signals the worker exit-code contract names; others render
  // numerically (strsignal is locale-dependent, and quarantine reasons
  // must be byte-stable across shard counts and runs).
  switch (Sig) {
  case SIGSEGV:
    Out += " (SIGSEGV)";
    break;
  case SIGABRT:
    Out += " (SIGABRT)";
    break;
  case SIGKILL:
    Out += " (SIGKILL)";
    break;
  case SIGBUS:
    Out += " (SIGBUS)";
    break;
  default:
    break;
  }
#endif
  return Out;
}

namespace {

void setFlags(int Fd) {
  int F = ::fcntl(Fd, F_GETFL);
  if (F != -1)
    ::fcntl(Fd, F_SETFL, F | O_NONBLOCK);
  int D = ::fcntl(Fd, F_GETFD);
  if (D != -1)
    ::fcntl(Fd, F_SETFD, D | FD_CLOEXEC);
}

struct PipePair {
  int Read = -1;
  int Write = -1;
  bool open() {
    int Fds[2];
    if (::pipe(Fds) != 0)
      return false;
    Read = Fds[0];
    Write = Fds[1];
    return true;
  }
  void closeBoth() {
    if (Read != -1)
      ::close(Read);
    if (Write != -1)
      ::close(Write);
    Read = Write = -1;
  }
};

} // namespace

std::optional<Subprocess> Subprocess::spawn(const Options &O,
                                            std::string *Err) {
  auto Fail = [&](const std::string &What) -> std::optional<Subprocess> {
    if (Err)
      *Err = What + ": " + std::strerror(errno);
    return std::nullopt;
  };
  if (O.Argv.empty()) {
    if (Err)
      *Err = "empty argv";
    return std::nullopt;
  }

  PipePair In, Out, ErrPipe;
  if (O.PipeStdin && !In.open())
    return Fail("pipe(stdin)");
  if (!Out.open()) {
    In.closeBoth();
    return Fail("pipe(stdout)");
  }
  if (!ErrPipe.open()) {
    In.closeBoth();
    Out.closeBoth();
    return Fail("pipe(stderr)");
  }

  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  if (O.PipeStdin) {
    posix_spawn_file_actions_adddup2(&Actions, In.Read, 0);
    posix_spawn_file_actions_addclose(&Actions, In.Read);
    posix_spawn_file_actions_addclose(&Actions, In.Write);
  }
  posix_spawn_file_actions_adddup2(&Actions, Out.Write, 1);
  posix_spawn_file_actions_adddup2(&Actions, ErrPipe.Write, 2);
  posix_spawn_file_actions_addclose(&Actions, Out.Read);
  posix_spawn_file_actions_addclose(&Actions, Out.Write);
  posix_spawn_file_actions_addclose(&Actions, ErrPipe.Read);
  posix_spawn_file_actions_addclose(&Actions, ErrPipe.Write);

  std::vector<char *> Argv;
  Argv.reserve(O.Argv.size() + 1);
  for (const std::string &A : O.Argv)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);

  pid_t Pid = -1;
  int Rc = ::posix_spawnp(&Pid, Argv[0], &Actions, nullptr, Argv.data(),
                          environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Rc != 0) {
    errno = Rc;
    In.closeBoth();
    Out.closeBoth();
    ErrPipe.closeBoth();
    return Fail("posix_spawnp(" + O.Argv[0] + ")");
  }

  // Parent keeps the far ends only.
  if (O.PipeStdin) {
    ::close(In.Read);
    In.Read = -1;
  }
  ::close(Out.Write);
  Out.Write = -1;
  ::close(ErrPipe.Write);
  ErrPipe.Write = -1;

  Subprocess P;
  P.Pid = Pid;
  P.InFd = O.PipeStdin ? In.Write : -1;
  P.OutFd = Out.Read;
  P.ErrFd = ErrPipe.Read;
  if (P.InFd != -1) {
    int D = ::fcntl(P.InFd, F_GETFD);
    if (D != -1)
      ::fcntl(P.InFd, F_SETFD, D | FD_CLOEXEC);
  }
  setFlags(P.OutFd);
  setFlags(P.ErrFd);
  return P;
}

Subprocess::Subprocess(Subprocess &&Other) noexcept
    : Pid(Other.Pid), InFd(Other.InFd), OutFd(Other.OutFd),
      ErrFd(Other.ErrFd), PidFd(Other.PidFd), PidFdTried(Other.PidFdTried),
      Reaped(Other.Reaped) {
  Other.Pid = -1;
  Other.InFd = Other.OutFd = Other.ErrFd = Other.PidFd = -1;
  Other.PidFdTried = false;
  Other.Reaped.reset();
}

Subprocess &Subprocess::operator=(Subprocess &&Other) noexcept {
  if (this != &Other) {
    this->~Subprocess();
    new (this) Subprocess(std::move(Other));
  }
  return *this;
}

Subprocess::~Subprocess() {
  if (Pid != -1 && !Reaped) {
    ::kill(Pid, SIGKILL);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
  }
  closeFd(InFd);
  closeFd(OutFd);
  closeFd(ErrFd);
  closeFd(PidFd);
}

int Subprocess::exitFd() {
  if (!PidFdTried && Pid != -1) {
    PidFdTried = true;
#ifdef SYS_pidfd_open
    long Fd = ::syscall(SYS_pidfd_open, Pid, 0);
    if (Fd >= 0) {
      PidFd = static_cast<int>(Fd);
      ::fcntl(PidFd, F_SETFD, FD_CLOEXEC);
    }
#endif
  }
  return PidFd;
}

void Subprocess::closeFd(int &Fd) {
  if (Fd != -1) {
    ::close(Fd);
    Fd = -1;
  }
}

bool Subprocess::writeStdin(std::string_view Data) {
  if (InFd == -1)
    return false;
  // Suppress SIGPIPE for the duration: a worker that crashed before
  // reading its shard list must surface as a classified exit, not kill
  // the supervisor.
  sigset_t Pipe, Old;
  sigemptyset(&Pipe);
  sigaddset(&Pipe, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &Pipe, &Old);
  bool Ok = true;
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::write(InFd, Data.data() + Off, Data.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Ok = false;
      break;
    }
    Off += static_cast<size_t>(N);
  }
  // Drain any pending SIGPIPE we generated before restoring the mask.
  struct timespec Zero = {0, 0};
  sigset_t Pending;
  sigpending(&Pending);
  if (sigismember(&Pending, SIGPIPE))
    sigtimedwait(&Pipe, nullptr, &Zero);
  pthread_sigmask(SIG_SETMASK, &Old, nullptr);
  return Ok;
}

void Subprocess::closeStdin() { closeFd(InFd); }

Subprocess::ReadStatus Subprocess::readSome(int Fd, std::string &Out) {
  if (Fd == -1)
    return ReadStatus::Eof;
  char Buf[16 * 1024];
  bool Any = false;
  while (true) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N > 0) {
      Out.append(Buf, static_cast<size_t>(N));
      Any = true;
      continue;
    }
    if (N == 0) {
      if (Fd == OutFd)
        closeFd(OutFd);
      else if (Fd == ErrFd)
        closeFd(ErrFd);
      return ReadStatus::Eof;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return Any ? ReadStatus::Data : ReadStatus::WouldBlock;
    if (Fd == OutFd)
      closeFd(OutFd);
    else if (Fd == ErrFd)
      closeFd(ErrFd);
    return ReadStatus::Error;
  }
}

void Subprocess::kill(int Signal) {
  if (Pid != -1 && !Reaped)
    ::kill(Pid, Signal);
}

std::optional<ExitStatus> Subprocess::tryWait() {
  if (Reaped)
    return Reaped;
  if (Pid == -1)
    return std::nullopt;
  int Status = 0;
  pid_t R = ::waitpid(Pid, &Status, WNOHANG);
  if (R == 0)
    return std::nullopt;
  ExitStatus E;
  if (R < 0) {
    // Already reaped elsewhere (should not happen) — treat as clean so the
    // supervisor does not spin.
    Reaped = E;
    return Reaped;
  }
  if (WIFSIGNALED(Status)) {
    E.Signaled = true;
    E.Sig = WTERMSIG(Status);
  } else {
    E.Code = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  }
  Reaped = E;
  return Reaped;
}

ExitStatus Subprocess::wait() {
  while (true) {
    if (std::optional<ExitStatus> E = tryWait())
      return *E;
    int Status = 0;
    pid_t R = ::waitpid(Pid, &Status, 0);
    if (R < 0 && errno == EINTR)
      continue;
    if (R == Pid) {
      ExitStatus E;
      if (WIFSIGNALED(Status)) {
        E.Signaled = true;
        E.Sig = WTERMSIG(Status);
      } else {
        E.Code = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
      }
      Reaped = E;
      return E;
    }
    if (R < 0) {
      ExitStatus E;
      Reaped = E;
      return E;
    }
  }
}

RunResult rs::proc::runCommand(const std::vector<std::string> &Argv,
                               std::string_view Stdin, uint64_t TimeoutMs) {
  RunResult R;
  Subprocess::Options O;
  O.Argv = Argv;
  O.PipeStdin = true;
  std::optional<Subprocess> P = Subprocess::spawn(O, &R.Error);
  if (!P)
    return R;
  R.Spawned = true;
  if (!Stdin.empty())
    P->writeStdin(Stdin);
  P->closeStdin();

  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  while (P->stdoutFd() != -1 || P->stderrFd() != -1) {
    struct pollfd Fds[2];
    nfds_t N = 0;
    if (P->stdoutFd() != -1)
      Fds[N++] = {P->stdoutFd(), POLLIN, 0};
    if (P->stderrFd() != -1)
      Fds[N++] = {P->stderrFd(), POLLIN, 0};
    int Wait = -1;
    if (TimeoutMs != 0) {
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Deadline - std::chrono::steady_clock::now())
                      .count();
      if (Left <= 0) {
        R.TimedOut = true;
        P->kill(SIGKILL);
        break;
      }
      Wait = static_cast<int>(Left);
    }
    int Rc = ::poll(Fds, N, Wait);
    if (Rc < 0 && errno != EINTR) {
      break;
    }
    int OutFd = P->stdoutFd(), ErrFd = P->stderrFd();
    if (OutFd != -1)
      P->readSome(OutFd, R.Stdout);
    if (ErrFd != -1)
      P->readSome(ErrFd, R.Stderr);
  }
  R.Exit = P->wait();
  // Drain anything that landed between the last poll and process exit.
  if (P->stdoutFd() != -1)
    P->readSome(P->stdoutFd(), R.Stdout);
  if (P->stderrFd() != -1)
    P->readSome(P->stderrFd(), R.Stderr);
  return R;
}

std::string rs::proc::currentExecutablePath(const char *Argv0) {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N > 0) {
    Buf[N] = '\0';
    return Buf;
  }
  return Argv0 ? Argv0 : "";
}
