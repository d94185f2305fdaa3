//===----------------------------------------------------------------------===//
//
// Shared helpers for the RustSight bench binaries: each binary prints the
// paper's rows (paper value vs regenerated value) before running its
// google-benchmark timings, so `for b in build/bench/*; do $b; done`
// regenerates every table and figure.
//
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_BENCH_BENCHUTIL_H
#define RUSTSIGHT_BENCH_BENCHUTIL_H

#include "support/Json.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <thread>

namespace rs::bench {

/// Prints a banner naming the experiment being regenerated.
inline void banner(const char *Experiment, const char *Description) {
  std::printf("==============================================================="
              "=\n%s\n%s\n"
              "==============================================================="
              "=\n\n",
              Experiment, Description);
}

/// Prints one paper-vs-measured comparison line.
inline void compare(const std::string &What, unsigned long long Paper,
                    unsigned long long Measured) {
  std::printf("  %-52s paper: %8llu   reproduced: %8llu   %s\n", What.c_str(),
              Paper, Measured, Paper == Measured ? "[match]" : "[DIFFERS]");
}

/// Writes a "machine" object — hardware threads, build type, compiler —
/// into a trajectory point, so numbers from different machines or builds
/// are not mistaken for comparable ones.
inline void writeMachineFacts(JsonWriter &W) {
  W.key("machine");
  W.beginObject();
  W.field("nproc", int64_t(std::thread::hardware_concurrency()));
#ifdef RS_BUILD_TYPE
  W.field("build_type", RS_BUILD_TYPE);
#endif
#ifdef RS_COMPILER
  W.field("compiler", RS_COMPILER);
#endif
  W.endObject();
}

/// Standard main: print the experiment via \p Print, then run benchmarks.
#define RUSTSIGHT_BENCH_MAIN(PRINT_FN)                                        \
  int main(int argc, char **argv) {                                           \
    PRINT_FN();                                                               \
    ::benchmark::Initialize(&argc, argv);                                     \
    ::benchmark::RunSpecifiedBenchmarks();                                    \
    ::benchmark::Shutdown();                                                  \
    return 0;                                                                 \
  }

} // namespace rs::bench

#endif // RUSTSIGHT_BENCH_BENCHUTIL_H
