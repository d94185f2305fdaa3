//===----------------------------------------------------------------------===//
//
// rsbench: the end-to-end benchmark's in-process helper.
//
//   rsbench gen --seed N --out DIR --manifest FILE
//       writes the seeded, labeled corpus (testgen::writeEvalCorpus at the
//       benchmark's scale) into DIR and moves its manifest to FILE, so the
//       program under test only ever sees the .mir files.
//   rsbench rules
//       prints the detector battery and the rule-id -> kind-name table the
//       verdict checker scores with (the spellings testgen::scoreReport
//       matches on).
//   rsbench trace --workload W --corpus DIR --work DIR --edits FILE
//                 [--primed DIR] --rustsight EXE --trace-out FILE
//       the traced run: replays one workload's operations in-process,
//       layer by layer, and prints per-layer self times and counts as JSON
//       (see Replay.h). Warm check workloads copy their caches from the
//       primed cache directory.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "detectors/Detector.h"
#include "diag/Diag.h"
#include "support/Json.h"
#include "testgen/EvalCorpus.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

using namespace rs;

namespace {

/// The corpus shape every workload runs on: 10 mutations x (30 positives +
/// 20 benign twins) + 150 clean programs + the 12 cross-file pair files.
testgen::EvalCorpusSpec benchSpec(uint64_t Seed) {
  testgen::EvalCorpusSpec S;
  S.BaseSeed = Seed;
  S.PositivesPerMutation = 30;
  S.BenignPerMutation = 20;
  S.CleanCases = 150;
  S.CrossFileCases = true;
  return S;
}

int usage() {
  std::fprintf(stderr,
               "usage: rsbench gen --seed N --out DIR --manifest FILE\n"
               "       rsbench rules\n"
               "       rsbench trace --workload W --corpus DIR --work DIR "
               "--edits FILE [--primed DIR]\n"
               "                     --rustsight EXE --trace-out FILE\n");
  return 2;
}

int cmdGen(std::map<std::string, std::string> &Args) {
  if (!Args.count("seed") || !Args.count("out") || !Args.count("manifest"))
    return usage();
  uint64_t Seed = std::strtoull(Args["seed"].c_str(), nullptr, 10);
  const std::string &Out = Args["out"];
  size_t N = testgen::writeEvalCorpus(Out, benchSpec(Seed));
  std::error_code Ec;
  std::filesystem::rename(Out + "/manifest.json", Args["manifest"], Ec);
  if (Ec) {
    std::fprintf(stderr, "error: cannot move manifest: %s\n",
                 Ec.message().c_str());
    return 1;
  }
  std::printf("%zu\n", N);
  return 0;
}

int cmdRules() {
  JsonWriter W;
  W.beginObject();
  W.key("battery");
  W.beginArray();
  for (const auto &D : detectors::makeAllDetectors())
    W.value(D->name());
  W.endArray();
  W.key("kinds");
  W.beginObject();
  for (size_t I = 0; I != diag::numRules(); ++I) {
    auto R = static_cast<diag::RuleId>(I);
    if (diag::isBugRule(R))
      W.field(diag::ruleStringId(R), diag::ruleName(R));
  }
  W.endObject();
  W.endObject();
  std::printf("%s\n", W.str().c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  std::string Cmd = argv[1];
  std::map<std::string, std::string> Args;
  for (int I = 2; I < argc; ++I) {
    if (std::strncmp(argv[I], "--", 2) != 0 || I + 1 >= argc)
      return usage();
    Args[argv[I] + 2] = argv[I + 1];
    ++I;
  }
  if (Cmd == "gen")
    return cmdGen(Args);
  if (Cmd == "rules")
    return cmdRules();
  if (Cmd == "trace")
    return bench::runTrace(Args);
  return usage();
}
