#include "ftmc/io/json.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>

namespace ftmc::io {
namespace {

TEST(JsonEscape, PassesPlainText) {
  EXPECT_EQ(json::escape("tau1"), "tau1");
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json::escape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

TEST(JsonNumber, SpecialValues) {
  EXPECT_EQ(json::number(std::nan("")), "null");
  EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()),
            "\"inf\"");
  EXPECT_EQ(json::number(-std::numeric_limits<double>::infinity()),
            "\"-inf\"");
  EXPECT_EQ(json::number(2.0), "2");
}

TEST(JsonNumber, FullPrecisionRoundTrip) {
  const double v = 2.04e-10;
  EXPECT_DOUBLE_EQ(std::stod(json::number(v)), v);
}

TEST(JsonObject, OrderPreservingAndTyped) {
  const std::string s = json::Object{}
                            .add_string("name", "x")
                            .add_int("n", 3)
                            .add_bool("ok", true)
                            .add_number("u", 0.5)
                            .add_raw("list", "[1,2]")
                            .str();
  EXPECT_EQ(s, R"({"name":"x","n":3,"ok":true,"u":0.5,"list":[1,2]})");
}

TEST(JsonArray, JoinsValues) {
  EXPECT_EQ(json::array({}), "[]");
  EXPECT_EQ(json::array({"1", "\"a\""}), "[1,\"a\"]");
}

core::FtTaskSet example31() {
  return core::FtTaskSet(
      {core::FtTask{"tau1", 60, 60, 5, Dal::B, 1e-5},
       core::FtTask{"tau3", 40, 40, 7, Dal::D, 1e-5}},
      DualCriticalityMapping{Dal::B, Dal::D});
}

TEST(JsonTaskSet, ContainsMappingAndTasks) {
  const std::string s = task_set_to_json(example31());
  EXPECT_NE(s.find("\"hi_dal\":\"B\""), std::string::npos);
  EXPECT_NE(s.find("\"lo_dal\":\"D\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"tau1\""), std::string::npos);
  EXPECT_NE(s.find("\"crit\":\"LO\""), std::string::npos);
  EXPECT_NE(s.find("\"failure_prob\":1.0000000000000001e-05"),
            std::string::npos);
}

TEST(JsonTaskSet, RoundTripsThroughParser) {
  const core::FtTaskSet original = example31();
  const core::FtTaskSet parsed =
      task_set_from_json(json::parse(task_set_to_json(original)));
  // Emission is canonical: an exact round trip re-emits the same bytes
  // (the property the serve answer cache keys on).
  EXPECT_EQ(task_set_to_json(parsed), task_set_to_json(original));
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].name, original[i].name);
    EXPECT_EQ(parsed[i].period, original[i].period);
    EXPECT_EQ(parsed[i].deadline, original[i].deadline);
    EXPECT_EQ(parsed[i].wcet, original[i].wcet);
    EXPECT_EQ(parsed[i].failure_prob, original[i].failure_prob);
    EXPECT_EQ(parsed[i].dal, original[i].dal);
  }
}

TEST(JsonTaskSet, FromJsonValidatesInput) {
  EXPECT_THROW((void)task_set_from_json(json::parse("{}")), ParseError)
      << "mapping is required";
  EXPECT_THROW(
      (void)task_set_from_json(json::parse(
          "{\"hi_dal\":\"B\",\"lo_dal\":\"D\",\"tasks\":["
          "{\"name\":\"t\",\"period_ms\":10,\"wcet_ms\":0,"
          "\"dal\":\"B\",\"failure_prob\":1e-5}]}")),
      ParseError)
      << "zero wcet violates the task contract";
  EXPECT_THROW(
      (void)task_set_from_json(json::parse(
          "{\"hi_dal\":\"B\",\"lo_dal\":\"D\",\"tasks\":["
          "{\"name\":\"t\",\"period_ms\":10,\"wcet_ms\":1,"
          "\"dal\":\"B\",\"failure_prob\":1e-5,\"extra\":1}]}")),
      ParseError)
      << "unknown task keys are rejected";
}

TEST(JsonFtsResult, SerializesVerdictAndProfiles) {
  core::FtsConfig cfg;
  cfg.adaptation.kind = AdaptationKind::kKilling;
  cfg.adaptation.os_hours = 1.0;
  core::FtTaskSet ts(
      {core::FtTask{"tau1", 60, 60, 5, Dal::B, 1e-5},
       core::FtTask{"tau2", 25, 25, 4, Dal::B, 1e-5},
       core::FtTask{"tau3", 40, 40, 7, Dal::D, 1e-5},
       core::FtTask{"tau4", 90, 90, 6, Dal::D, 1e-5},
       core::FtTask{"tau5", 70, 70, 8, Dal::D, 1e-5}},
      DualCriticalityMapping{Dal::B, Dal::D});
  const auto result = core::ft_schedule(ts, cfg);
  const std::string s = fts_result_to_json(result);
  EXPECT_NE(s.find("\"success\":true"), std::string::npos);
  EXPECT_NE(s.find("\"n_hi\":3"), std::string::npos);
  EXPECT_NE(s.find("\"n_adapt\":2"), std::string::npos);
  EXPECT_NE(s.find("\"scheduler\":\"EDF-VD\""), std::string::npos);
  EXPECT_NE(s.find("\"wcet_hi_ms\":15"), std::string::npos);
  // Balanced braces (cheap structural sanity).
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['),
            std::count(s.begin(), s.end(), ']'));
}

TEST(JsonParse, ScalarsAndContainers) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_TRUE(json::parse("true").as_bool());
  EXPECT_FALSE(json::parse(" false ").as_bool());
  EXPECT_DOUBLE_EQ(json::parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(json::parse("\"a\\n\\\"b\\u0041\"").as_string(), "a\n\"bA");

  const json::Value arr = json::parse("[1, [2, 3], {\"k\": 4}]");
  ASSERT_EQ(arr.kind(), json::Value::Kind::kArray);
  ASSERT_EQ(arr.items().size(), 3u);
  EXPECT_DOUBLE_EQ(arr.items()[1].items()[1].as_number(), 3.0);
  EXPECT_DOUBLE_EQ(arr.items()[2].at("k").as_number(), 4.0);

  const json::Value obj = json::parse("{\"a\": 1, \"b\": {\"c\": true}}");
  ASSERT_EQ(obj.kind(), json::Value::Kind::kObject);
  EXPECT_EQ(obj.fields().size(), 2u);
  EXPECT_TRUE(obj.at("b").at("c").as_bool());
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_THROW((void)obj.at("missing"), ParseError);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW((void)json::parse(""), ParseError);
  EXPECT_THROW((void)json::parse("{"), ParseError);
  EXPECT_THROW((void)json::parse("[1,]"), ParseError);
  EXPECT_THROW((void)json::parse("{\"a\":1,}"), ParseError);
  EXPECT_THROW((void)json::parse("1 2"), ParseError);  // trailing garbage
  EXPECT_THROW((void)json::parse("'single'"), ParseError);
  EXPECT_THROW((void)json::parse("{\"a\":1,\"a\":2}"), ParseError)
      << "duplicate keys are ambiguous and must be rejected";
  // Depth bomb: deeper than the parser's recursion limit.
  const std::string deep(200, '[');
  EXPECT_THROW((void)json::parse(deep), ParseError);
}

TEST(JsonParse, SurrogatePairsDecodeToUtf8) {
  // U+1D11E (musical G clef): high surrogate D834 + low surrogate DD1E.
  EXPECT_EQ(json::parse("\"\\ud834\\udd1e\"").as_string(),
            "\xf0\x9d\x84\x9e");
  // U+1F600 (grinning face), the classic beyond-BMP regression.
  EXPECT_EQ(json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
  // Pairs compose with surrounding text and BMP escapes.
  EXPECT_EQ(json::parse("\"a\\u0041\\ud83d\\ude00z\"").as_string(),
            "aA\xf0\x9f\x98\x80z");
}

TEST(JsonParse, LoneSurrogatesAreRejectedWithOffsets) {
  // Unpaired surrogate halves are not scalar values (RFC 8259 sec. 7 /
  // Unicode D91); each rejection names the offending escape's offset.
  const auto offset_of = [](std::string_view text) {
    try {
      (void)json::parse(text);
    } catch (const ParseError& e) {
      const std::string what = e.what();
      const auto pos = what.find("offset ");
      if (pos == std::string::npos) return std::size_t(-1);
      return static_cast<std::size_t>(
          std::atoll(what.c_str() + pos + 7));
    }
    return std::size_t(-2);  // did not throw
  };
  EXPECT_THROW((void)json::parse("\"\\udd1e\""), ParseError)
      << "lone low surrogate";
  EXPECT_THROW((void)json::parse("\"\\ud834\""), ParseError)
      << "high surrogate at end of string";
  EXPECT_THROW((void)json::parse("\"\\ud834x\""), ParseError)
      << "high surrogate followed by a plain character";
  EXPECT_THROW((void)json::parse("\"\\ud834\\u0041\""), ParseError)
      << "high surrogate followed by a non-surrogate escape";
  EXPECT_THROW((void)json::parse("\"\\ud834\\ud834\""), ParseError)
      << "high surrogate followed by another high surrogate";
  // The reported offset is the backslash of the bad escape, not the
  // position the scanner had reached.
  EXPECT_EQ(offset_of("\"\\udd1e\""), 1u);
  EXPECT_EQ(offset_of("[1, \"x\\ud834\"]"), 6u);
}

TEST(JsonParse, OutOfRangeNumberLiteralsAreRejected) {
  // Beyond-double literals are a parse error (explicit), not a silent
  // saturation to infinity or zero as with strtod.
  EXPECT_THROW((void)json::parse("1e400"), ParseError);
  EXPECT_THROW((void)json::parse("-1e400"), ParseError);
  EXPECT_THROW((void)json::parse("1e-400"), ParseError);  // underflow
  // The largest finite double still parses.
  EXPECT_DOUBLE_EQ(json::parse("1.7976931348623157e308").as_number(),
                   1.7976931348623157e308);
}

TEST(JsonParse, NumberEmissionRoundTripsThroughParser) {
  // The number() contract: every double comes back bit-equal (NaN by
  // kind) when re-parsed with as_number.
  const double cases[] = {0.0, -0.0, 2.0, 2.04e-10, 1.0 / 3.0,
                          -12345.678901234567, 1e308};
  for (const double v : cases) {
    EXPECT_DOUBLE_EQ(json::parse(json::number(v)).as_number(), v);
  }
  EXPECT_EQ(json::parse(json::number(
                            std::numeric_limits<double>::infinity()))
                .as_number(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(json::parse(json::number(
                            -std::numeric_limits<double>::infinity()))
                .as_number(),
            -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(json::parse(json::number(std::nan(""))).as_number()));
  // Only the two sentinel strings are numeric; others stay strings.
  EXPECT_THROW((void)json::parse("\"fast\"").as_number(), ParseError);
}

TEST(JsonParse, Uint64AcceptsFullRangeSeedsAsStrings) {
  EXPECT_EQ(json::parse("0").as_uint64(), 0u);
  EXPECT_EQ(json::parse("20140601").as_uint64(), 20140601u);
  // Full 64-bit seeds do not fit a double; the decimal-string form does.
  EXPECT_EQ(json::parse("\"18446744073709551615\"").as_uint64(),
            18446744073709551615ULL);
  EXPECT_THROW((void)json::parse("\"18446744073709551616\"").as_uint64(),
               ParseError);  // overflow
  EXPECT_THROW((void)json::parse("1.5").as_uint64(), ParseError);
  EXPECT_THROW((void)json::parse("-1").as_uint64(), ParseError);
  EXPECT_THROW((void)json::parse("\"12x\"").as_uint64(), ParseError);
}

TEST(JsonSweep, SerializesPoints) {
  const std::vector<core::AdaptationSweepPoint> pts = {
      {0, 0.73, 14400.0, true, false},
      {3, std::numeric_limits<double>::infinity(), 1e-10, false, true}};
  const std::string s = sweep_to_json(pts);
  EXPECT_NE(s.find("\"n_adapt\":0"), std::string::npos);
  EXPECT_NE(s.find("\"schedulable\":true"), std::string::npos);
  EXPECT_NE(s.find("\"u_mc\":\"inf\""), std::string::npos);
  EXPECT_NE(s.find("\"safe\":true"), std::string::npos);
}

}  // namespace
}  // namespace ftmc::io
