#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "util/error.h"

namespace specnoc::util {
namespace {

TEST(JsonTest, WritesScalarsCanonically) {
  EXPECT_EQ(json_write(Json()), "null");
  EXPECT_EQ(json_write(Json(true)), "true");
  EXPECT_EQ(json_write(Json(false)), "false");
  EXPECT_EQ(json_write(Json(std::int64_t{-42})), "-42");
  EXPECT_EQ(json_write(Json(std::uint64_t{18446744073709551615ull})),
            "18446744073709551615");
  EXPECT_EQ(json_write(Json("hi")), "\"hi\"");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Json json = Json::object();
  json.set("zebra", 1);
  json.set("apple", 2);
  json.set("mango", 3);
  EXPECT_EQ(json_write(json), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
  json.set("apple", 9);  // overwrite in place, order unchanged
  EXPECT_EQ(json_write(json), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
}

TEST(JsonTest, RoundTripsNestedStructure) {
  Json inner = Json::object();
  inner.set("flag", true);
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(Json());
  Json json = Json::object();
  json.set("inner", std::move(inner));
  json.set("arr", std::move(arr));

  const std::string text = json_write(json);
  const Json parsed = json_parse(text);
  EXPECT_EQ(json_write(parsed), text);
  EXPECT_TRUE(parsed.at("inner").at("flag").as_bool());
  EXPECT_EQ(parsed.at("arr").items().size(), 3u);
  EXPECT_EQ(parsed.at("arr").items()[1].as_string(), "two");
  EXPECT_TRUE(parsed.at("arr").items()[2].is_null());
}

TEST(JsonTest, IntegersSurviveExactly) {
  const std::int64_t big = (std::int64_t{1} << 62) + 12345;
  const Json parsed = json_parse(json_write(Json(big)));
  EXPECT_EQ(parsed.as_i64(), big);
  const std::uint64_t ubig = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(json_parse(json_write(Json(ubig))).as_u64(), ubig);
}

TEST(JsonTest, DoublesRoundTripBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.26,
                           0.1,
                           1.0 / 3.0,
                           6.02214076e23,
                           -2.2250738585072014e-308,
                           123456789.123456789,
                           std::numeric_limits<double>::denorm_min()};
  for (const double value : values) {
    const Json parsed = json_parse(json_write(Json(value)));
    const double back = parsed.as_double();
    EXPECT_EQ(std::memcmp(&back, &value, sizeof value), 0)
        << "value " << value << " serialized as " << json_write(Json(value));
  }
}

TEST(JsonTest, FormatDoubleIsShortest) {
  EXPECT_EQ(format_double(1.26), "1.26");
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(2.0), "2");
}

TEST(JsonTest, NonFiniteDoublesSerializeAsNull) {
  EXPECT_EQ(json_write(Json(std::numeric_limits<double>::infinity())), "null");
  EXPECT_EQ(json_write(Json(std::nan(""))), "null");
  EXPECT_TRUE(std::isnan(json_parse("null").as_double()));
}

TEST(JsonTest, StringEscapesRoundTrip) {
  const std::string tricky = "line\nbreak \"quoted\" tab\t back\\slash \x01";
  const Json parsed = json_parse(json_write(Json(tricky)));
  EXPECT_EQ(parsed.as_string(), tricky);
}

TEST(JsonTest, ParsesUnicodeEscapes) {
  EXPECT_EQ(json_parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
}

TEST(JsonTest, StrictParserRejectsMalformedInput) {
  EXPECT_THROW(json_parse(""), ConfigError);
  EXPECT_THROW(json_parse("{"), ConfigError);
  EXPECT_THROW(json_parse("{\"a\":}"), ConfigError);
  EXPECT_THROW(json_parse("[1,]"), ConfigError);
  EXPECT_THROW(json_parse("12 34"), ConfigError);  // trailing garbage
  EXPECT_THROW(json_parse("\"unterminated"), ConfigError);
  EXPECT_THROW(json_parse("nul"), ConfigError);
  EXPECT_THROW(json_parse("+1"), ConfigError);
}

TEST(JsonTest, AccessorsCheckKinds) {
  const Json json = json_parse("{\"n\":1}");
  EXPECT_THROW(json.as_string(), ConfigError);
  EXPECT_THROW(json.at("n").as_bool(), ConfigError);
  EXPECT_THROW(json.at("missing"), ConfigError);
  EXPECT_EQ(json.find("missing"), nullptr);
  EXPECT_NE(json.find("n"), nullptr);
}

TEST(JsonTest, IntegerConversionsRejectLossy) {
  EXPECT_THROW(json_parse("-1").as_u64(), ConfigError);
  EXPECT_THROW(json_parse("18446744073709551615").as_i64(), ConfigError);
  EXPECT_EQ(json_parse("-1").as_i64(), -1);
  // Narrowing to a field's own width is checked too, never truncated.
  EXPECT_THROW(json_parse("4294967296").as_int<std::uint32_t>(), ConfigError);
  EXPECT_EQ(json_parse("4294967295").as_int<std::uint32_t>(), 4294967295u);
  EXPECT_THROW(json_parse("-1").as_int<unsigned>(), ConfigError);
  EXPECT_THROW(json_parse("2147483648").as_int<std::int32_t>(), ConfigError);
  EXPECT_THROW(json_parse("-2147483649").as_int<std::int32_t>(), ConfigError);
  EXPECT_EQ(json_parse("-2147483648").as_int<std::int32_t>(),
            std::numeric_limits<std::int32_t>::min());
}

}  // namespace
}  // namespace specnoc::util
