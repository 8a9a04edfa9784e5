#include "json/json.h"

#include <gtest/gtest.h>

#include <cmath>

namespace loglens {
namespace {

TEST(JsonDump, Scalars) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(int64_t{-7}).dump(), "-7");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(JsonDump, StringEscapes) {
  EXPECT_EQ(Json("a\"b\\c\nd\te").dump(), "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(Json(std::string("\x01", 1)).dump(), "\"\\u0001\"");
}

TEST(JsonDump, NestedStructures) {
  JsonObject obj;
  obj.emplace_back("Action", Json("Connect"));
  obj.emplace_back("Server", Json("127.0.0.1"));
  JsonArray arr;
  arr.emplace_back(1);
  arr.emplace_back("two");
  obj.emplace_back("list", Json(std::move(arr)));
  EXPECT_EQ(Json(std::move(obj)).dump(),
            R"({"Action":"Connect","Server":"127.0.0.1","list":[1,"two"]})");
}

TEST(JsonDump, PreservesInsertionOrder) {
  Json j{JsonObject{}};
  j.set("zebra", 1);
  j.set("apple", 2);
  EXPECT_EQ(j.dump(), R"({"zebra":1,"apple":2})");
}

TEST(JsonParse, RoundTrip) {
  const char* text =
      R"({"a":1,"b":-2.5,"c":"x\ny","d":[true,false,null],"e":{"f":"g"}})";
  auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->dump(), text);
}

TEST(JsonParse, Numbers) {
  EXPECT_EQ(Json::parse("123")->as_int(), 123);
  EXPECT_TRUE(Json::parse("123")->is_int());
  EXPECT_TRUE(Json::parse("1.5")->is_double());
  EXPECT_DOUBLE_EQ(Json::parse("1.5e2")->as_double(), 150.0);
  EXPECT_EQ(Json::parse("-9")->as_int(), -9);
}

TEST(JsonParse, NegativeZeroRoundTripsAsDouble) {
  const std::string text = Json(-0.0).dump();
  EXPECT_EQ(text, "-0");
  auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->is_double());
  EXPECT_TRUE(std::signbit(parsed->as_double()));
  EXPECT_EQ(parsed->dump(), text);
  auto obj = Json::parse(R"({"x":-0,"y":0})");
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(obj->find("x")->is_double());
  EXPECT_TRUE(obj->find("y")->is_int());
  EXPECT_EQ(obj->dump(), R"({"x":-0,"y":0})");
}

TEST(JsonParse, Errors) {
  EXPECT_FALSE(Json::parse("").ok());
  EXPECT_FALSE(Json::parse("{").ok());
  EXPECT_FALSE(Json::parse("[1,]").ok());
  EXPECT_FALSE(Json::parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::parse("tru").ok());
  EXPECT_FALSE(Json::parse("1 2").ok());
  EXPECT_FALSE(Json::parse("\"unterminated").ok());
}

TEST(JsonParse, UnicodeEscape) {
  auto j = Json::parse(R"("Aé")");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->as_string(), "A\xc3\xa9");
}

TEST(JsonObjectHelpers, FindSetGet) {
  Json j{JsonObject{}};
  EXPECT_EQ(j.find("missing"), nullptr);
  j.set("k", "v");
  j.set("n", 5);
  ASSERT_NE(j.find("k"), nullptr);
  EXPECT_EQ(j.get_string("k"), "v");
  EXPECT_EQ(j.get_string("missing", "dflt"), "dflt");
  EXPECT_EQ(j.get_int("n"), 5);
  EXPECT_EQ(j.get_int("missing", -1), -1);
  j.set("k", "v2");  // overwrite
  EXPECT_EQ(j.get_string("k"), "v2");
  EXPECT_EQ(j.as_object().size(), 2u);
}

TEST(JsonEquality, DeepCompare) {
  auto a = Json::parse(R"({"x":[1,2,{"y":"z"}]})");
  auto b = Json::parse(R"({"x":[1,2,{"y":"z"}]})");
  auto c = Json::parse(R"({"x":[1,2,{"y":"w"}]})");
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
}

TEST(JsonParse, WhitespaceTolerant) {
  auto j = Json::parse("  { \"a\" :\n[ 1 , 2 ]\t} ");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->dump(), R"({"a":[1,2]})");
}

}  // namespace
}  // namespace loglens
