#include "util/json.hh"

#include <gtest/gtest.h>

#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hh"

using namespace dronedse;

TEST(Json, EscapeAndQuote)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(jsonQuote(std::string("tab\there\nnl")),
              "\"tab\\there\\nnl\"");
    EXPECT_EQ(jsonQuote(std::string("ctl\x01\x1f", 5)),
              "\"ctl\\u0001\\u001f\"");
    std::string appended = "x";
    appendJsonQuoted(appended, "q\"");
    EXPECT_EQ(appended, "x\"q\\\"\"");
}

TEST(Json, NumberFormatting)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(1.5), "1.5");
    EXPECT_EQ(jsonNumber(2.5, 6), "2.5");
    // Non-finite values have no JSON spelling.
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
}

TEST(Json, ParseScalars)
{
    for (const char *doc : {"null", "true", "false", " -12.75e1 ",
                            "\"hi\"", "0"})
        EXPECT_TRUE(JsonScanner(doc).skipDocument()) << doc;
    double number = 0.0;
    JsonScanner scan(" -12.75e1,");
    ASSERT_TRUE(scan.readNumber(number));
    EXPECT_DOUBLE_EQ(number, -127.5);
    EXPECT_EQ(scan.pos(), 9u);
    std::string text = "stale";
    ASSERT_TRUE(JsonScanner("\"hi\"").readString(text));
    EXPECT_EQ(text, "hi");
}

TEST(Json, SkipValueStopsAfterOneValue)
{
    const std::string doc = R"({"a": [1, {"b": "}"}], "c": 2} tail)";
    JsonScanner scan(doc);
    ASSERT_TRUE(scan.skipValue());
    EXPECT_EQ(doc.substr(scan.pos()), " tail");
    EXPECT_TRUE(scan.error().empty());
}

TEST(Json, ParseContainers)
{
    const std::string doc =
        R"({"z": [1, [], 3], "a": {"c": "d"}, "m": 3, "z": null})";
    std::vector<JsonEntry> entries;
    ASSERT_TRUE(JsonScanner(doc).skipDocument(&entries));
    // z, its three items, a, its member c, m, z.
    ASSERT_EQ(entries.size(), 8u);
    std::vector<std::size_t> top;
    for (std::size_t i = 0; i < entries.size(); i = entries[i].end)
        top.push_back(i);
    EXPECT_EQ(top, (std::vector<std::size_t>{0, 4, 6, 7}));
    EXPECT_TRUE(entries[0].is("z"));
    EXPECT_TRUE(entries[4].is("a"));
    EXPECT_TRUE(entries[5].is("c"));
    EXPECT_TRUE(entries[6].is("m"));
    EXPECT_TRUE(entries[7].is("z"));
    EXPECT_FALSE(entries[0].is("a"));
    EXPECT_EQ(doc.substr(entries[6].value, 1), "3");
    EXPECT_EQ(doc.substr(entries[7].value, 4), "null");

    // Array items have no key; an empty container has no entries.
    EXPECT_TRUE(entries[1].key.empty());
    EXPECT_EQ(entries[2].end, 3u);
    double third = 0.0;
    ASSERT_TRUE(JsonScanner(doc, entries[3].value).readNumber(third));
    EXPECT_EQ(third, 3.0);

    // A skip from inside a document appends what it finds.
    ASSERT_TRUE(JsonScanner(doc, entries[4].value).skipValue(0, &entries));
    ASSERT_EQ(entries.size(), 9u);
    EXPECT_TRUE(entries[8].is("c"));

    std::vector<JsonEntry> none;
    EXPECT_TRUE(JsonScanner(" { } ").skipDocument(&none));
    EXPECT_TRUE(JsonScanner("[ ]").skipDocument(&none));
    EXPECT_TRUE(JsonScanner("7").skipDocument(&none));
    EXPECT_TRUE(none.empty());
}

TEST(Json, ObjectsPreserveMemberOrder)
{
    std::vector<JsonEntry> members;
    ASSERT_TRUE(
        JsonScanner(R"({"z": 1, "a": 2, "m": 3})").skipDocument(&members));
    ASSERT_EQ(members.size(), 3u);
    EXPECT_TRUE(members[0].is("z"));
    EXPECT_TRUE(members[1].is("a"));
    EXPECT_TRUE(members[2].is("m"));
}

TEST(Json, EscapedKeysMatchTheirDecodedSpelling)
{
    const std::string doc =
        R"({"\u0069d": 1, "p\"q": 2, "caf\u00e9": 3, "plain": 4})";
    std::vector<JsonEntry> members;
    ASSERT_TRUE(JsonScanner(doc).skipDocument(&members));
    ASSERT_EQ(members.size(), 4u);
    EXPECT_TRUE(members[0].escaped);
    EXPECT_TRUE(members[0].is("id"));
    EXPECT_FALSE(members[0].is("\\u0069d"));
    EXPECT_TRUE(members[1].is("p\"q"));
    EXPECT_TRUE(members[2].is("caf\xc3\xa9"));
    EXPECT_FALSE(members[3].escaped);
    EXPECT_TRUE(members[3].is("plain"));
    EXPECT_FALSE(members[3].is("plai"));
}

TEST(Json, UnicodeEscapes)
{
    std::string text;
    ASSERT_TRUE(
        JsonScanner("\"\\u0041\\u00e9\\ud83d\\ude00\\/\"").readString(text));
    // A, e-acute (2 UTF-8 bytes), grinning-face (4 bytes), solidus.
    EXPECT_EQ(text, std::string("A\xc3\xa9\xf0\x9f\x98\x80/"));
}

TEST(Json, RejectsMalformedDocuments)
{
    const std::vector<std::string> bad = {
        "",
        "{",
        "[1, 2",
        "{\"a\": }",
        "{\"a\" 1}",
        "tru",
        "01",
        "1.",
        "+1",
        "NaN",
        "Infinity",
        "-Infinity",
        "\"unterminated",
        "\"bad \\x escape\"",
        "\"\\ud800\"", // lone high surrogate
        "\"\\udc00\"", // lone low surrogate
        "\"\\ud800\\u0041\"", // high surrogate, then no low one
        "\"\\u12\"",
        "{\"a\": 1} trailing",
        "{\"a\": 1,}",
        "[1,]",
        "'single'",
        "\"raw\tcontrol\"",
        "1e400",
    };
    for (const std::string &text : bad) {
        JsonScanner scan(text);
        EXPECT_FALSE(scan.skipDocument()) << "accepted: " << text;
        EXPECT_FALSE(scan.error().empty())
            << "no diagnostic for: " << text;
    }
    // The first error is the one reported, at its byte.
    JsonScanner scan("[1, tru, 01]");
    EXPECT_FALSE(scan.skipDocument());
    EXPECT_EQ(scan.error(), "byte 4: unexpected token");
}

TEST(Json, RejectsOverDeepNesting)
{
    const auto nested = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[') +
               std::string(static_cast<std::size_t>(depth), ']');
    };
    // The outermost array is depth 0, so 97 levels are the most.
    EXPECT_TRUE(JsonScanner(nested(97)).skipDocument());
    const std::string too_deep = nested(98);
    JsonScanner deeper(too_deep);
    EXPECT_FALSE(deeper.skipDocument());
    EXPECT_EQ(deeper.error(), "byte 97: nesting too deep");
    EXPECT_FALSE(JsonScanner(nested(200)).skipDocument());
    // A skip from inside a document counts from its own `depth`.
    EXPECT_TRUE(JsonScanner(nested(90)).skipValue(7));
    EXPECT_FALSE(JsonScanner(nested(90)).skipValue(8));
}

namespace {

/**
 * Doubles both number codecs must agree on: seeded random bit
 * patterns, random subnormals, +-0, the powers of ten from 1e-320 to
 * 1e308, and the extremes of the range.
 */
std::vector<double>
numberCorpus()
{
    std::vector<double> out = {0.0,
                               -0.0,
                               DBL_MAX,
                               -DBL_MAX,
                               DBL_MIN,
                               -DBL_MIN,
                               std::numeric_limits<double>::denorm_min(),
                               -std::numeric_limits<double>::denorm_min(),
                               0.1,
                               1.0 / 3.0,
                               123456789012345678.0};
    for (int e = -320; e <= 308; ++e)
        out.push_back(std::strtod(("1e" + std::to_string(e)).c_str(),
                                  nullptr));
    Rng rng(20261019);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t bits = rng.next();
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof value);
        if (std::isfinite(value))
            out.push_back(value);
    }
    for (int i = 0; i < 2000; ++i) {
        // Exponent field 0: a subnormal (or zero) of either sign.
        const std::uint64_t bits =
            rng.next() & 0x800FFFFFFFFFFFFFULL;
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof value);
        out.push_back(value);
    }
    return out;
}

std::string
printfNumber(const char *format, int precision, double value)
{
    char buf[512];
    std::snprintf(buf, sizeof buf, format, precision, value);
    return buf;
}

/** strtod's verdict on a whole token, as the reader's fallback has it. */
std::optional<double>
strtodOracle(const std::string &token)
{
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value))
        return std::nullopt;
    return value;
}

void
expectReaderMatchesStrtod(const std::string &token)
{
    const std::optional<double> expected = strtodOracle(token);
    // A skip checks the range of the same tokens a read does.
    ASSERT_EQ(JsonScanner(token).skipDocument(), expected.has_value())
        << token;
    double value = 0.0;
    JsonScanner scan(token);
    ASSERT_EQ(scan.readNumber(value) && scan.pos() == token.size(),
              expected.has_value())
        << token;
    if (!expected)
        return;
    EXPECT_EQ(std::memcmp(&value, &*expected, sizeof value), 0)
        << token << " read as " << printfNumber("%.*g", 17, value);
}

} // namespace

TEST(Json, NumberWriterMatchesPrintfAtEveryPrecision)
{
    for (const double value : numberCorpus()) {
        for (int significant = 1; significant <= 17; ++significant) {
            const std::string expected =
                printfNumber("%.*g", significant, value);
            std::string appended = "x";
            appendJsonNumber(appended, value, significant);
            ASSERT_EQ(appended, "x" + expected)
                << "significant " << significant;
            ASSERT_EQ(jsonNumber(value, significant), expected);
        }
    }
}

TEST(Json, NumberReaderMatchesStrtod)
{
    for (const double value : numberCorpus()) {
        expectReaderMatchesStrtod(printfNumber("%.*g", 17, value));
        expectReaderMatchesStrtod(printfNumber("%.*g", 6, value));
        expectReaderMatchesStrtod(printfNumber("%.*e", 20, value));
    }
    // Underflow reads as +-0 and overflow is rejected, as with strtod.
    for (const char *token :
         {"1e-400", "-1e-400", "2.4e-324", "1e400", "-1e400",
          "1.7976931348623157e308", "1.7976931348623159e308",
          "4.9406564584124654e-324", "2.4703282292062328e-324"})
        expectReaderMatchesStrtod(token);
    // An 800-digit mantissa, read as an integer (out of range), as a
    // fraction, and scaled back into range.
    Rng rng(800);
    std::string digits = "7";
    while (digits.size() < 800)
        digits += static_cast<char>('0' + rng.uniformInt(0, 9));
    for (const std::string &token :
         {digits, "0." + digits, "-" + digits + "e-790",
          digits + "e-1120"})
        expectReaderMatchesStrtod(token);
}
