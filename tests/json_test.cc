// Unit tests for the JSON parser/printer.

#include <gtest/gtest.h>

#include "json/json.h"
#include "testing.h"

namespace dynamite {
namespace {

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_TRUE(Json::Parse("true")->AsBool());
  EXPECT_FALSE(Json::Parse("false")->AsBool());
  EXPECT_EQ(Json::Parse("-42")->AsInt(), -42);
  EXPECT_DOUBLE_EQ(Json::Parse("2.5e1")->AsDouble(), 25.0);
  EXPECT_EQ(Json::Parse("\"hi\\nthere\"")->AsString(), "hi\nthere");
}

TEST(Json, ParseNested) {
  ASSERT_OK_AND_ASSIGN(Json doc, Json::Parse(R"({
    "Univ": [{"id": 1, "name": "U1", "Admit": [{"uid": 1, "count": 10}]}]
  })"));
  const Json* univ = doc.Find("Univ");
  ASSERT_NE(univ, nullptr);
  ASSERT_TRUE(univ->is_array());
  const Json& first = univ->AsArray()[0];
  EXPECT_EQ(first.Find("id")->AsInt(), 1);
  EXPECT_EQ(first.Find("name")->AsString(), "U1");
  EXPECT_EQ(first.Find("Admit")->AsArray()[0].Find("count")->AsInt(), 10);
}

TEST(Json, RoundTripCompact) {
  const char* text = R"({"a":[1,2.5,true,null,"x"],"b":{"c":"\""}})";
  ASSERT_OK_AND_ASSIGN(Json doc, Json::Parse(text));
  ASSERT_OK_AND_ASSIGN(Json again, Json::Parse(doc.Dump()));
  EXPECT_EQ(doc, again);
}

TEST(Json, RoundTripPretty) {
  ASSERT_OK_AND_ASSIGN(Json doc, Json::Parse(R"({"k":[{"x":1},{"y":[]}]})"));
  ASSERT_OK_AND_ASSIGN(Json again, Json::Parse(doc.Pretty()));
  EXPECT_EQ(doc, again);
}

TEST(Json, UnicodeEscapes) {
  ASSERT_OK_AND_ASSIGN(Json doc, Json::Parse("\"\\u0041\\u00e9\""));
  EXPECT_EQ(doc.AsString(), "A\xc3\xa9");
}

TEST(Json, PreservesFieldOrder) {
  ASSERT_OK_AND_ASSIGN(Json doc, Json::Parse(R"({"z":1,"a":2})"));
  EXPECT_EQ(doc.Dump(), R"({"z":1,"a":2})");
}

TEST(Json, ErrorsAreReported) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("12 34").ok());  // trailing garbage
  EXPECT_FALSE(Json::Parse("nul").ok());
}

TEST(Json, NestingIsBounded) {
  // 1,000 levels parse; deeper input is a ParseError, not a stack overflow.
  EXPECT_OK(Json::Parse(std::string(1000, '[') + std::string(1000, ']')).status());
  auto deep = Json::Parse(std::string(1000000, '['));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kParseError);
  auto one_too_deep = Json::Parse(std::string(1001, '[') + std::string(1001, ']'));
  EXPECT_EQ(one_too_deep.status().code(), StatusCode::kParseError);
}

TEST(Json, EscapingControlCharacters) {
  Json s = Json::String(std::string("a\x01") + "b");
  ASSERT_OK_AND_ASSIGN(Json back, Json::Parse(s.Dump()));
  EXPECT_EQ(back.AsString(), s.AsString());
}

TEST(Json, BuildersProduceExpectedShape) {
  Json obj = Json::MakeObject();
  Json arr = Json::MakeArray();
  arr.Append(Json::Int(1));
  arr.Append(Json::String("two"));
  obj.Set("items", std::move(arr));
  EXPECT_EQ(obj.Dump(), R"({"items":[1,"two"]})");
}

}  // namespace
}  // namespace dynamite
