#include "Spans.h"

#include "support/Json.h"

#include <fstream>

using namespace bench;

Recorder::Scope::Scope(Recorder &R, const char *Name) : R(R) {
  if (!R.Enabled)
    return;
  Index = static_cast<uint32_t>(R.Spans.size());
  SavedParent = R.Current;
  R.Spans.push_back({Name, R.Current, R.CurrentOp, R.nowNs(), 0});
  R.Current = Index;
}

Recorder::Scope::~Scope() {
  if (Index == NoParent)
    return;
  R.Spans[Index].EndNs = R.nowNs();
  R.Current = SavedParent;
}

std::map<uint64_t, std::map<std::string, double>>
Recorder::selfTimesByOp() const {
  // Children never overlap (the replay is single-threaded), so the part of
  // a span its children cover is the sum of their durations.
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent != NoParent)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<uint64_t, std::map<std::string, double>> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out[S.Op][S.Name] += double(S.EndNs - S.StartNs - ChildNs[I]) / 1e6;
  }
  return Out;
}

bool Recorder::writeChromeTrace(const std::string &Path, uint64_t MaxOp) const {
  rs::JsonWriter W;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  for (const Span &S : Spans) {
    if (S.Op >= MaxOp)
      continue;
    W.beginObject();
    W.field("name", S.Name);
    W.field("cat", "rsbench");
    W.field("ph", "X");
    W.key("ts");
    W.value(double(S.StartNs) / 1e3);
    W.key("dur");
    W.value(double(S.EndNs - S.StartNs) / 1e3);
    W.key("pid");
    W.value(1);
    W.key("tid");
    W.value(1);
    W.key("args");
    W.beginObject();
    W.key("op");
    W.value(S.Op);
    W.field("parent", S.Parent == NoParent ? "" : Spans[S.Parent].Name);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.field("displayTimeUnit", "ms");
  W.endObject();
  std::ofstream Out(Path, std::ios::binary);
  Out << W.str() << "\n";
  return static_cast<bool>(Out);
}
