// Tests for the JSON parser (obs/json_parse.hpp): values, escapes, exact
// integers, depth cap, and the message and offset of every failure.

#include <gtest/gtest.h>

#include <string>

#include "obs/json_parse.hpp"

namespace gcdr::obs {
namespace {

TEST(JsonParse, Scalars) {
    JsonValue v;
    ASSERT_TRUE(json_parse("null", v, nullptr));
    EXPECT_TRUE(v.is_null());
    ASSERT_TRUE(json_parse("true", v, nullptr));
    EXPECT_TRUE(v.boolean);
    ASSERT_TRUE(json_parse("-1.5e3", v, nullptr));
    EXPECT_DOUBLE_EQ(v.number, -1500.0);
    ASSERT_TRUE(json_parse("\"hi\"", v, nullptr));
    EXPECT_EQ(v.text, "hi");
}

TEST(JsonParse, NestedContainersPreserveOrder) {
    JsonValue v;
    ASSERT_TRUE(json_parse(R"({"b":[1,2,{"c":3}],"a":null})", v, nullptr));
    ASSERT_TRUE(v.is_object());
    ASSERT_EQ(v.members.size(), 2u);
    EXPECT_EQ(v.members[0].first, "b");  // document order, not sorted
    EXPECT_EQ(v.members[1].first, "a");
    const JsonValue* b = v.find("b");
    ASSERT_TRUE(b && b->is_array());
    ASSERT_EQ(b->items.size(), 3u);
    EXPECT_DOUBLE_EQ(b->items[1].number, 2.0);
    EXPECT_DOUBLE_EQ(b->items[2].find("c")->number_or(0), 3.0);
}

TEST(JsonParse, StringEscapes) {
    JsonValue v;
    ASSERT_TRUE(json_parse(R"("a\"b\\c\n\tA")", v, nullptr));
    EXPECT_EQ(v.text, "a\"b\\c\n\tA");
}

TEST(JsonParse, UnicodeEscapesAndSurrogatePairs) {
    JsonValue v;
    ASSERT_TRUE(json_parse("\"\\u00e9\"", v, nullptr));  // e-acute
    EXPECT_EQ(v.text, "\xC3\xA9");
    ASSERT_TRUE(json_parse("\"\\ud83d\\ude00\"", v, nullptr));  // emoji
    EXPECT_EQ(v.text, "\xF0\x9F\x98\x80");
    // A lone high surrogate is malformed.
    EXPECT_FALSE(json_parse(R"("\ud83d")", v, nullptr));
}

TEST(JsonParse, ExactUint64ViaToken) {
    JsonValue v;
    // 2^63 + 1 is not representable as a double; the token read is exact.
    ASSERT_TRUE(json_parse("9223372036854775809", v, nullptr));
    EXPECT_EQ(v.uint_or(0), 9223372036854775809ull);
    ASSERT_TRUE(json_parse("-3", v, nullptr));
    EXPECT_EQ(v.uint_or(7), 7u);  // negative: fallback
    ASSERT_TRUE(json_parse("1.25", v, nullptr));
    EXPECT_EQ(v.uint_or(7), 7u);  // fractional: fallback
}

TEST(JsonParse, RejectsGarbage) {
    JsonValue v;
    std::string err;
    EXPECT_FALSE(json_parse("", v, &err));
    EXPECT_FALSE(json_parse("{", v, &err));
    EXPECT_FALSE(json_parse("[1,]", v, &err));
    EXPECT_FALSE(json_parse("{\"a\":1} trailing", v, &err));
    EXPECT_FALSE(err.empty());
}

TEST(JsonParse, DepthCapStopsRunawayNesting) {
    std::string deep(200, '[');
    deep += std::string(200, ']');
    JsonValue v;
    EXPECT_FALSE(json_parse(deep, v, nullptr));
}

TEST(JsonParse, StringErrorsPinMessageAndOffset) {
    // parse_string copies each run of plain characters in one append;
    // these pin the decoded text at run boundaries and the exact error
    // string (message, byte offset, line/column) of every string failure.
    struct Ok {
        const char* doc;
        const char* text;
    };
    for (const Ok& c : {Ok{R"("\"start")", "\"start"},
                        Ok{R"("end\\")", "end\\"},
                        Ok{R"("a\\\nb")", "a\\\nb"},
                        Ok{R"("\n\t")", "\n\t"},
                        Ok{R"("")", ""},
                        Ok{R"("x\ud83d\ude00y")", "x\xF0\x9F\x98\x80y"}}) {
        JsonValue v;
        std::string err;
        ASSERT_TRUE(json_parse(c.doc, v, &err)) << c.doc << ": " << err;
        EXPECT_EQ(v.text, c.text) << c.doc;
    }
    struct Bad {
        std::string doc;
        const char* error;
    };
    const Bad bad[] = {
        {"\"abc", "unterminated string at byte 4 (line 1, column 5)"},
        {"{\"k\":\"abc", "unterminated string at byte 9 (line 1, column 10)"},
        {"\"abc\\", "unterminated escape at byte 5 (line 1, column 6)"},
        {R"("ab\q")", "unknown escape at byte 5 (line 1, column 6)"},
        {"\"ab\x01" "cd\"",
         "raw control character in string at byte 4 (line 1, column 5)"},
        {"\"a\nb\"",
         "raw control character in string at byte 3 (line 2, column 1)"},
        {R"("x\ud83d")", "lone high surrogate at byte 8 (line 1, column 9)"},
        {R"("\ud83d\u0041")", "bad low surrogate at byte 13 (line 1, column 14)"},
        {R"("\ude00")", "lone low surrogate at byte 7 (line 1, column 8)"},
        {R"("\ud83d\u12")", "truncated \\u escape at byte 9 (line 1, column 10)"},
        {R"("\u00G0")", "bad \\u escape digit at byte 3 (line 1, column 4)"},
    };
    for (const Bad& c : bad) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(json_parse(c.doc, v, &err)) << c.doc;
        EXPECT_EQ(err, c.error) << c.doc;
    }
}

TEST(JsonParse, FailureKeepsCompletedMembersAndDropsThePartialOne) {
    JsonValue v;
    std::string err;
    ASSERT_FALSE(json_parse(R"({"a":1,"b":[2,{"c":"x)", v, &err));
    EXPECT_EQ(err, "unterminated string at byte 21 (line 1, column 22)");
    ASSERT_EQ(v.members.size(), 1u);
    EXPECT_EQ(v.members[0].first, "a");
    EXPECT_DOUBLE_EQ(v.members[0].second.number, 1.0);
    ASSERT_FALSE(json_parse(R"([1,{"k":tru])", v, &err));
    EXPECT_EQ(err, "invalid literal at byte 8 (line 1, column 9)");
    ASSERT_EQ(v.items.size(), 1u);
    EXPECT_DOUBLE_EQ(v.items[0].number, 1.0);
}

}  // namespace
}  // namespace gcdr::obs
