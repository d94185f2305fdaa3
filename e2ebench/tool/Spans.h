//===----------------------------------------------------------------------===//
//
// The traced run's span recorder. Spans are recorded from the benchmark's
// own code, around its calls into each layer's public functions; the
// program itself is not instrumented.
//
//===----------------------------------------------------------------------===//

#ifndef RSBENCH_SPANS_H
#define RSBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

/// Records (name, start, end, parent, operation id) spans in memory. A
/// disabled recorder costs one branch per span, which is what the untraced
/// twin of every traced operation pays.
class Recorder {
public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char *Name; ///< A string literal or otherwise immortal string.
    uint32_t Parent;  ///< Index of the enclosing span, or NoParent.
    uint64_t Op;
    int64_t StartNs;
    int64_t EndNs;
  };
  static constexpr uint32_t NoParent = UINT32_MAX;

  explicit Recorder(bool Enabled) : Enabled(Enabled) {}

  /// Every span opened until the next beginOp belongs to operation \p Op.
  void beginOp(uint64_t Op) { CurrentOp = Op; }

  /// One span, open for the guard's lifetime. Guards nest strictly.
  class Scope {
  public:
    Scope(Recorder &R, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Recorder &R;
    uint32_t Index = NoParent;
    uint32_t SavedParent = NoParent;
  };

  /// Self time in milliseconds, summed by span name, for every recorded
  /// operation: a span's duration minus the part of it its children cover.
  std::map<uint64_t, std::map<std::string, double>> selfTimesByOp() const;

  /// Writes the spans of operations below \p MaxOp as Chrome trace-event
  /// JSON ("X" complete events; parent name and operation id in args).
  bool writeChromeTrace(const std::string &Path, uint64_t MaxOp) const;

private:
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                Epoch)
        .count();
  }

  bool Enabled;
  uint64_t CurrentOp = 0;
  uint32_t Current = NoParent;
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
};

} // namespace bench

#endif // RSBENCH_SPANS_H
