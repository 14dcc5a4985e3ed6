#include <gtest/gtest.h>

#include <limits>

#include "util/json.hpp"

namespace mfv::util {
namespace {

TEST(Json, BuildAndDump) {
  Json j = Json::object();
  j["name"] = "R1";
  j["count"] = 3;
  j["up"] = true;
  Json array = Json::array();
  array.push_back(1);
  array.push_back("two");
  j["items"] = std::move(array);
  EXPECT_EQ(j.dump(), R"({"name":"R1","count":3,"up":true,"items":[1,"two"]})");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j["z"] = 1;
  j["a"] = 2;
  EXPECT_EQ(j.dump(), R"({"z":1,"a":2})");
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      R"({"s":"hi","i":-5,"d":2.5,"b":false,"n":null,"a":[1,2,3],"o":{"k":"v"}})";
  auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("s")->as_string(), "hi");
  EXPECT_EQ(parsed->find("i")->as_int(), -5);
  EXPECT_DOUBLE_EQ(parsed->find("d")->as_double(), 2.5);
  EXPECT_FALSE(parsed->find("b")->as_bool());
  EXPECT_TRUE(parsed->find("n")->is_null());
  EXPECT_EQ(parsed->find("a")->as_array().size(), 3u);
  EXPECT_EQ(parsed->find("o")->find("k")->as_string(), "v");
  EXPECT_EQ(Json::parse(parsed->dump())->dump(), parsed->dump());
}

TEST(Json, StringEscapes) {
  Json j = Json::object();
  j["text"] = "line1\nline2\t\"quoted\"\\";
  auto parsed = Json::parse(j.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("text")->as_string(), "line1\nline2\t\"quoted\"\\");
}

TEST(Json, ParseUnicodeEscape) {
  auto parsed = Json::parse(R"("Aé")");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "A\xc3\xa9");
}

TEST(Json, RejectsMalformed) {
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(Json::parse("tru").has_value());
  EXPECT_FALSE(Json::parse("1 2").has_value());  // trailing garbage
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("").has_value());
}

TEST(Json, PrettyPrint) {
  Json j = Json::object();
  j["a"] = 1;
  EXPECT_EQ(j.dump(2), "{\n  \"a\": 1\n}");
}

TEST(Json, FindOnNonObjectIsNull) {
  Json j = Json(5);
  EXPECT_EQ(j.find("x"), nullptr);
}

TEST(Json, LargeIntegersSurvive) {
  Json j = Json(int64_t{1234567890123456789});
  auto parsed = Json::parse(j.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_int(), 1234567890123456789);
}

TEST(Json, LengthHelpersMatchDump) {
  for (int64_t value : {int64_t{0}, int64_t{9}, int64_t{10}, int64_t{-1}, int64_t{-10},
                        int64_t{4294967295}, std::numeric_limits<int64_t>::max(),
                        std::numeric_limits<int64_t>::min()})
    EXPECT_EQ(json_int_length(value), Json(value).dump().size()) << value;
  for (const std::string& text :
       {std::string(), std::string("plain"), std::string("\" \\ \n \t \r"),
        std::string("\x01\x1f\x20\x7f"), std::string(1, '\0'), std::string("\xc3\xa9")})
    EXPECT_EQ(json_string_length(text), Json(text).dump().size()) << text;
}

// ---------------------------------------------------------------------------
// Untrusted-input hardening (the service feeds wire bytes to the parser)

TEST(JsonLimits, DeepNestingIsRejectedNotFatal) {
  // 100k unbalanced brackets: the recursive-descent parser would overflow
  // its stack without the depth limit; with it, this is just an error.
  std::string bomb(100000, '[');
  EXPECT_FALSE(Json::parse(bomb).has_value());

  auto checked = Json::parse_checked(bomb);
  ASSERT_FALSE(checked.ok());
  EXPECT_NE(checked.status().message().find("depth"), std::string::npos)
      << checked.status().to_string();

  std::string object_bomb;
  for (int i = 0; i < 100000; ++i) object_bomb += "{\"a\":";
  EXPECT_FALSE(Json::parse(object_bomb).has_value());
  EXPECT_FALSE(Json::parse_checked(object_bomb).ok());
}

TEST(JsonLimits, DepthLimitIsExact) {
  JsonParseLimits limits;
  limits.max_depth = 3;
  EXPECT_TRUE(Json::parse_checked("[[[1]]]", limits).ok());
  EXPECT_FALSE(Json::parse_checked("[[[[1]]]]", limits).ok());
  // Balanced nesting at the default limit parses fine.
  std::string nested;
  for (int i = 0; i < 128; ++i) nested += '[';
  nested += '1';
  for (int i = 0; i < 128; ++i) nested += ']';
  EXPECT_TRUE(Json::parse_checked(nested).ok());
}

TEST(JsonLimits, InputSizeLimit) {
  JsonParseLimits limits;
  limits.max_bytes = 16;
  EXPECT_TRUE(Json::parse_checked(R"({"a":1})", limits).ok());
  auto rejected = Json::parse_checked(R"({"key":"0123456789abcdef"})", limits);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonLimits, ParseCheckedReportsPosition) {
  auto result = Json::parse_checked("{\"a\": tru}");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("at byte"), std::string::npos)
      << result.status().to_string();
}

TEST(JsonLimits, TruncatedAndAdversarialInputs) {
  const char* cases[] = {
      "{\"a\":",               // truncated value
      "[1,2",                  // unterminated array
      "\"\\u12",               // truncated unicode escape
      "\"\\u12zz\"",           // bad unicode escape digits
      "\"\\q\"",               // unknown escape
      "-",                     // lone minus
      "0x10",                  // hex is not JSON
      "{\"a\" 1}",             // missing colon
      "{1: 2}",                // non-string key
      "[,1]",                  // leading comma
      "nul",                   // truncated keyword
      "\x01",                  // control character
  };
  for (const char* text : cases) {
    EXPECT_FALSE(Json::parse(text).has_value()) << "input: " << text;
    EXPECT_FALSE(Json::parse_checked(text).ok()) << "input: " << text;
  }
}

TEST(JsonLimits, CheckedAndUncheckedAgreeOnValidInput) {
  const std::string text =
      R"({"s":"hi","i":-5,"d":2.5,"b":false,"n":null,"a":[1,2,3],"o":{"k":"v"}})";
  auto unchecked = Json::parse(text);
  auto checked = Json::parse_checked(text);
  ASSERT_TRUE(unchecked.has_value());
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(unchecked->dump(), checked->dump());
}

}  // namespace
}  // namespace mfv::util
