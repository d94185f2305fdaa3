#include "support/Json.h"

#include "support/StringUtils.h"

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace rs;

JsonWriter::JsonWriter() { Stack.push_back({ScopeKind::Root}); }

void JsonWriter::preValue() {
  Scope &Top = Stack.back();
  if (Top.Kind == ScopeKind::Object) {
    assert(Top.PendingKey && "object value without a key");
    Top.PendingKey = false;
    return;
  }
  if (Top.SawElement)
    Out += ',';
  Top.SawElement = true;
}

void JsonWriter::appendEscaped(std::string_view S) {
  Out += '"';
  // Copy each run of bytes that need no escape in one append.
  size_t Run = 0;
  for (size_t I = 0; I != S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S.data() + Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default: {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    }
    }
  }
  Out.append(S.data() + Run, S.size() - Run);
  Out += '"';
}

void JsonWriter::beginObject() {
  preValue();
  Out += '{';
  Stack.push_back({ScopeKind::Object});
}

void JsonWriter::endObject() {
  assert(Stack.back().Kind == ScopeKind::Object && "mismatched endObject");
  assert(!Stack.back().PendingKey && "dangling key at endObject");
  Stack.pop_back();
  Out += '}';
}

void JsonWriter::beginArray() {
  preValue();
  Out += '[';
  Stack.push_back({ScopeKind::Array});
}

void JsonWriter::endArray() {
  assert(Stack.back().Kind == ScopeKind::Array && "mismatched endArray");
  Stack.pop_back();
  Out += ']';
}

void JsonWriter::key(std::string_view Name) {
  Scope &Top = Stack.back();
  assert(Top.Kind == ScopeKind::Object && "key outside of object");
  assert(!Top.PendingKey && "two keys in a row");
  if (Top.SawElement)
    Out += ',';
  Top.SawElement = true;
  Top.PendingKey = true;
  appendEscaped(Name);
  Out += ':';
}

void JsonWriter::value(std::string_view S) {
  preValue();
  appendEscaped(S);
}

void JsonWriter::value(int64_t N) {
  preValue();
  Out += std::to_string(N);
}

void JsonWriter::value(uint64_t N) {
  preValue();
  Out += std::to_string(N);
}

void JsonWriter::value(double D) {
  preValue();
  Out += formatDouble(D, 6);
}

void JsonWriter::value(bool B) {
  preValue();
  Out += B ? "true" : "false";
}

void JsonWriter::nullValue() {
  preValue();
  Out += "null";
}

//===----------------------------------------------------------------------===//
// JsonValue parsing
//===----------------------------------------------------------------------===//

namespace rs {

/// Recursive-descent parser over a string_view. Every entry point leaves
/// Pos just past what it consumed; failure is reported by return value,
/// never by exception, so corrupt cache entries cannot take down a run.
class JsonParser {
public:
  explicit JsonParser(std::string_view Text) : Text(Text) {}

  bool parseDocument(JsonValue &Out) {
    skipWs();
    if (!parseValue(Out, /*Depth=*/0))
      return false;
    skipWs();
    return Pos == Text.size(); // Trailing garbage is corruption.
  }

private:
  static constexpr int MaxDepth = JsonValue::MaxParseDepth;

  std::string_view Text;
  size_t Pos = 0;

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool eat(char C) {
    if (Pos >= Text.size() || Text[Pos] != C)
      return false;
    ++Pos;
    return true;
  }

  bool eatWord(std::string_view W) {
    if (Text.substr(Pos, W.size()) != W)
      return false;
    Pos += W.size();
    return true;
  }

  bool parseValue(JsonValue &Out, int Depth) {
    if (Depth > MaxDepth || Pos >= Text.size())
      return false;
    switch (Text[Pos]) {
    case '{':
      return Depth < MaxDepth && parseObject(Out, Depth);
    case '[':
      return Depth < MaxDepth && parseArray(Out, Depth);
    case '"':
      Out.K = JsonValue::Kind::String;
      return parseString(Out.S);
    case 't':
      Out.K = JsonValue::Kind::Bool;
      Out.B = true;
      return eatWord("true");
    case 'f':
      Out.K = JsonValue::Kind::Bool;
      Out.B = false;
      return eatWord("false");
    case 'n':
      Out.K = JsonValue::Kind::Null;
      return eatWord("null");
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(JsonValue &Out, int Depth) {
    Out.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (eat('}'))
      return true;
    while (true) {
      skipWs();
      std::string Key;
      if (Pos >= Text.size() || Text[Pos] != '"' || !parseString(Key))
        return false;
      skipWs();
      if (!eat(':'))
        return false;
      skipWs();
      JsonValue V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.Members.emplace_back(std::move(Key), std::move(V));
      skipWs();
      if (eat('}'))
        return true;
      if (!eat(','))
        return false;
    }
  }

  bool parseArray(JsonValue &Out, int Depth) {
    Out.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (eat(']'))
      return true;
    while (true) {
      skipWs();
      JsonValue V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.Elems.push_back(std::move(V));
      skipWs();
      if (eat(']'))
        return true;
      if (!eat(','))
        return false;
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // '"'
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C == '\\') {
        if (Pos + 1 >= Text.size())
          return false;
        char E = Text[Pos + 1];
        Pos += 2;
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'n':
          Out += '\n';
          break;
        case 't':
          Out += '\t';
          break;
        case 'r':
          Out += '\r';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'u': {
          if (Pos + 4 > Text.size())
            return false;
          unsigned Code = 0;
          for (int I = 0; I != 4; ++I) {
            char H = Text[Pos + I];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= unsigned(H - '0');
            else if (H >= 'a' && H <= 'f')
              Code |= unsigned(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Code |= unsigned(H - 'A' + 10);
            else
              return false;
          }
          Pos += 4;
          // The writer only emits \u00xx control escapes; decode the BMP
          // as UTF-8 so any conforming producer round-trips too.
          if (Code < 0x80) {
            Out += char(Code);
          } else if (Code < 0x800) {
            Out += char(0xc0 | (Code >> 6));
            Out += char(0x80 | (Code & 0x3f));
          } else {
            Out += char(0xe0 | (Code >> 12));
            Out += char(0x80 | ((Code >> 6) & 0x3f));
            Out += char(0x80 | (Code & 0x3f));
          }
          break;
        }
        default:
          return false;
        }
        continue;
      }
      Out += C;
      ++Pos;
    }
    return false; // Unterminated string.
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    bool Fractional = false;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C >= '0' && C <= '9') {
        ++Pos;
      } else if (C == '.' || C == 'e' || C == 'E' || C == '+' || C == '-') {
        Fractional = true;
        ++Pos;
      } else {
        break;
      }
    }
    if (Pos == Start)
      return false;
    std::string Num(Text.substr(Start, Pos - Start));
    errno = 0;
    char *End = nullptr;
    if (!Fractional) {
      long long V = std::strtoll(Num.c_str(), &End, 10);
      if (End == Num.c_str() + Num.size() && errno != ERANGE) {
        Out.K = JsonValue::Kind::Int;
        Out.I = V;
        return true;
      }
    }
    errno = 0;
    double D = std::strtod(Num.c_str(), &End);
    if (End != Num.c_str() + Num.size() || errno == ERANGE)
      return false;
    Out.K = JsonValue::Kind::Double;
    Out.D = D;
    return true;
  }
};

} // namespace rs

std::optional<JsonValue> JsonValue::parse(std::string_view Text) {
  JsonValue V;
  if (!JsonParser(Text).parseDocument(V))
    return std::nullopt;
  return V;
}

const JsonValue *JsonValue::get(std::string_view Key) const {
  for (const auto &[Name, Value] : Members)
    if (Name == Key)
      return &Value;
  return nullptr;
}

std::string_view JsonValue::getString(std::string_view Key,
                                      std::string_view Default) const {
  const JsonValue *V = get(Key);
  return V && V->isString() ? std::string_view(V->S) : Default;
}

int64_t JsonValue::getInt(std::string_view Key, int64_t Default) const {
  const JsonValue *V = get(Key);
  return V && V->isInt() ? V->I : Default;
}

bool JsonValue::getBool(std::string_view Key, bool Default) const {
  const JsonValue *V = get(Key);
  return V && V->isBool() ? V->B : Default;
}
