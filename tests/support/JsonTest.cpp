#include "support/Json.h"

#include <gtest/gtest.h>

#include <string>

using namespace rs;

TEST(Json, EmptyObject) {
  JsonWriter W;
  W.beginObject();
  W.endObject();
  EXPECT_EQ(W.str(), "{}");
}

TEST(Json, NestedStructure) {
  JsonWriter W;
  W.beginObject();
  W.field("name", "uaf");
  W.field("count", int64_t(4));
  W.key("items");
  W.beginArray();
  W.value(1);
  W.value(2);
  W.beginObject();
  W.field("ok", true);
  W.endObject();
  W.endArray();
  W.endObject();
  EXPECT_EQ(W.str(),
            "{\"name\":\"uaf\",\"count\":4,\"items\":[1,2,{\"ok\":true}]}");
}

TEST(Json, EscapesStrings) {
  JsonWriter W;
  W.beginArray();
  W.value("a\"b\\c\nd");
  W.endArray();
  EXPECT_EQ(W.str(), "[\"a\\\"b\\\\c\\nd\"]");
}

TEST(Json, EveryByteRoundTripsThroughTheWriter) {
  // Each byte alone, between plain runs, and all 256 in one string: the
  // escaper copies unescaped runs in bulk, so the runs' edges are where it
  // could drop or repeat a byte.
  std::string All;
  for (int B = 0; B != 256; ++B) {
    std::string One(1, static_cast<char>(B));
    All += One;
    for (const std::string &S : {One, "ab" + One + "cd" + One}) {
      JsonWriter W;
      W.value(S);
      std::optional<JsonValue> V = JsonValue::parse(W.str());
      ASSERT_TRUE(V && V->isString()) << "byte " << B << ": " << W.str();
      EXPECT_EQ(V->asString(), S) << "byte " << B;
    }
  }
  JsonWriter W;
  W.value(All);
  std::optional<JsonValue> V = JsonValue::parse(W.str());
  ASSERT_TRUE(V && V->isString());
  EXPECT_EQ(V->asString(), All);
}

TEST(Json, EscapedTextOfAMixedStringIsPinned) {
  using namespace std::string_literals;
  JsonWriter W;
  W.value("plain \"q\" back\\slash\n\t\r\x01\x1f\x7f\xc3\xa9\0end"s);
  EXPECT_EQ(W.str(), "\"plain \\\"q\\\" back\\\\slash\\n\\t\\r\\u0001"
                     "\\u001f\x7f\xc3\xa9\\u0000end\"");
}

TEST(Json, NullAndNumbers) {
  JsonWriter W;
  W.beginArray();
  W.nullValue();
  W.value(int64_t(-7));
  W.value(uint64_t(7));
  W.endArray();
  EXPECT_EQ(W.str(), "[null,-7,7]");
}

TEST(Json, TopLevelScalar) {
  JsonWriter W;
  W.value("hello");
  EXPECT_EQ(W.str(), "\"hello\"");
}

//===----------------------------------------------------------------------===//
// JsonValue parsing — the read side of the result cache's on-disk entries.
//===----------------------------------------------------------------------===//

TEST(JsonParse, ObjectWithTypedMembers) {
  auto V = JsonValue::parse(
      " {\"version\": 1, \"key\":\"abc\", \"flag\": true, \"pi\": 3.5} ");
  ASSERT_TRUE(V.has_value());
  ASSERT_TRUE(V->isObject());
  EXPECT_EQ(V->getInt("version", -1), 1);
  EXPECT_EQ(V->getString("key"), "abc");
  EXPECT_TRUE(V->getBool("flag"));
  ASSERT_NE(V->get("pi"), nullptr);
  EXPECT_DOUBLE_EQ(V->get("pi")->asDouble(), 3.5);
  EXPECT_EQ(V->get("missing"), nullptr);
  EXPECT_EQ(V->getInt("missing", 42), 42);
  EXPECT_EQ(V->getString("version", "fallback"), "fallback"); // Mistyped.
}

TEST(JsonParse, NestedArraysAndObjects) {
  auto V = JsonValue::parse("{\"files\":[{\"n\":1},{\"n\":2}],\"empty\":[]}");
  ASSERT_TRUE(V.has_value());
  const JsonValue *Files = V->get("files");
  ASSERT_NE(Files, nullptr);
  ASSERT_TRUE(Files->isArray());
  ASSERT_EQ(Files->elements().size(), 2u);
  EXPECT_EQ(Files->elements()[1].getInt("n"), 2);
  EXPECT_TRUE(V->get("empty")->elements().empty());
}

TEST(JsonParse, ScalarsAndNull) {
  EXPECT_TRUE(JsonValue::parse("null")->isNull());
  EXPECT_EQ(JsonValue::parse("-42")->asInt(), -42);
  EXPECT_FALSE(JsonValue::parse("false")->asBool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("1e3")->asDouble(), 1000.0);
  EXPECT_TRUE(JsonValue::parse("1e3")->kind() == JsonValue::Kind::Double);
  EXPECT_TRUE(JsonValue::parse("13")->isInt());
}

TEST(JsonParse, StringEscapes) {
  auto V = JsonValue::parse("\"a\\\"b\\\\c\\nd\\u0041\\u00e9\"");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->asString(), "a\"b\\c\ndA\xc3\xa9");
}

TEST(JsonParse, CorruptDocumentsRejected) {
  EXPECT_FALSE(JsonValue::parse("").has_value());
  EXPECT_FALSE(JsonValue::parse("{").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\":}").has_value());
  EXPECT_FALSE(JsonValue::parse("[1,]").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(JsonValue::parse("\"unterminated").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(JsonValue::parse("nul").has_value());
  EXPECT_FALSE(JsonValue::parse("\"bad\\u00zz\"").has_value());
}

TEST(JsonParse, DeeplyNestedInputIsBoundedNotFatal) {
  std::string Evil(10000, '[');
  EXPECT_FALSE(JsonValue::parse(Evil).has_value());
  // Balanced-but-hostile documents are rejected too (the truncated form
  // above fails at the first missing ']'; this one only fails the cap).
  std::string Balanced = std::string(10000, '[') + std::string(10000, ']');
  EXPECT_FALSE(JsonValue::parse(Balanced).has_value());
  // Same bound for objects, which burn more stack per frame than arrays.
  std::string EvilObj;
  for (int I = 0; I != 10000; ++I)
    EvilObj += "{\"k\":";
  EXPECT_FALSE(JsonValue::parse(EvilObj).has_value());
}

TEST(JsonParse, NestingDepthBoundaryIsExact) {
  auto Nested = [](int Depth) {
    return std::string(size_t(Depth), '[') + "0" +
           std::string(size_t(Depth), ']');
  };
  // Exactly MaxParseDepth containers parse; one more is a parse error,
  // not a crash.
  EXPECT_TRUE(JsonValue::parse(Nested(JsonValue::MaxParseDepth)).has_value());
  EXPECT_FALSE(
      JsonValue::parse(Nested(JsonValue::MaxParseDepth + 1)).has_value());

  // Mixed object/array nesting obeys the same cap.
  std::string Mixed, Close;
  for (int I = 0; I != JsonValue::MaxParseDepth / 2; ++I) {
    Mixed += "{\"k\":[";
    Close = "]}" + Close;
  }
  EXPECT_TRUE(JsonValue::parse(Mixed + "null" + Close).has_value());
  EXPECT_FALSE(
      JsonValue::parse(Mixed + "[[null]]" + Close).has_value());
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter W;
  W.beginObject();
  W.field("text", "line1\nline2\t\"quoted\"");
  W.field("n", int64_t(-123));
  W.key("inner");
  W.beginArray();
  W.value(true);
  W.nullValue();
  W.endArray();
  W.endObject();
  auto V = JsonValue::parse(W.str());
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->getString("text"), "line1\nline2\t\"quoted\"");
  EXPECT_EQ(V->getInt("n"), -123);
  ASSERT_EQ(V->get("inner")->elements().size(), 2u);
  EXPECT_TRUE(V->get("inner")->elements()[0].asBool());
  EXPECT_TRUE(V->get("inner")->elements()[1].isNull());
}
