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
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(jsonQuote(std::string("tab\there\nnl")),
              "\"tab\\there\\nnl\"");
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
    EXPECT_TRUE(parseJson("null")->isNull());
    EXPECT_EQ(parseJson("true")->asBool(), true);
    EXPECT_EQ(parseJson("false")->asBool(), false);
    EXPECT_DOUBLE_EQ(parseJson("-12.75e1")->asNumber(), -127.5);
    EXPECT_EQ(parseJson("\"hi\"")->asString(), "hi");
}

TEST(Json, ParseContainers)
{
    const auto doc =
        parseJson("{\"a\": [1, 2, 3], \"b\": {\"c\": \"d\"}}");
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());
    const JsonValue *a = doc->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items().size(), 3u);
    EXPECT_DOUBLE_EQ(a->items()[1].asNumber(), 2.0);
    const JsonValue *b = doc->find("b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->find("c")->asString(), "d");
    EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(Json, ObjectsPreserveMemberOrder)
{
    const auto doc = parseJson("{\"z\": 1, \"a\": 2, \"m\": 3}");
    ASSERT_TRUE(doc.has_value());
    const auto &members = doc->members();
    ASSERT_EQ(members.size(), 3u);
    EXPECT_EQ(members[0].first, "z");
    EXPECT_EQ(members[1].first, "a");
    EXPECT_EQ(members[2].first, "m");
}

TEST(Json, UnicodeEscapes)
{
    const auto doc = parseJson("\"\\u0041\\u00e9\\ud83d\\ude00\"");
    ASSERT_TRUE(doc.has_value());
    // A, e-acute (2 UTF-8 bytes), grinning-face (4 bytes).
    EXPECT_EQ(doc->asString(),
              std::string("A\xc3\xa9\xf0\x9f\x98\x80"));
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
        "{\"a\": 1} trailing",
        "{\"a\": 1,}",
        "[1,]",
        "'single'",
        "\"raw\tcontrol\"",
    };
    for (const std::string &text : bad) {
        std::string error;
        EXPECT_FALSE(parseJson(text, &error).has_value())
            << "accepted: " << text;
        EXPECT_FALSE(error.empty()) << "no diagnostic for: " << text;
    }
}

TEST(Json, RejectsOverDeepNesting)
{
    std::string deep;
    for (int i = 0; i < 200; ++i)
        deep += '[';
    for (int i = 0; i < 200; ++i)
        deep += ']';
    EXPECT_FALSE(parseJson(deep).has_value());
}

TEST(Json, DumpParseDumpFixedPoint)
{
    const std::vector<std::string> canonical = {
        "null",
        "true",
        "[1, 2.5, \"three\"]",
        "{\"a\": [], \"b\": {}, \"c\": \"\\\"quoted\\\"\"}",
    };
    for (const std::string &text : canonical) {
        const auto doc = parseJson(text);
        ASSERT_TRUE(doc.has_value()) << text;
        EXPECT_EQ(doc->dump(), text);
    }
}

namespace {

JsonValue
randomValue(Rng &rng, int depth)
{
    const int kind = depth >= 4 ? rng.uniformInt(0, 3)
                                : rng.uniformInt(0, 5);
    switch (kind) {
    case 0: return JsonValue();
    case 1: return JsonValue::boolean(rng.uniform() < 0.5);
    case 2:
        return JsonValue::number(
            std::round(rng.uniform(-1e6, 1e6) * 1e3) / 1e3);
    case 3: {
        std::string s;
        const int len = rng.uniformInt(0, 12);
        for (int i = 0; i < len; ++i)
            s += static_cast<char>(rng.uniformInt(32, 126));
        return JsonValue::string(std::move(s));
    }
    case 4: {
        std::vector<JsonValue> items;
        const int len = rng.uniformInt(0, 4);
        for (int i = 0; i < len; ++i)
            items.push_back(randomValue(rng, depth + 1));
        return JsonValue::array(std::move(items));
    }
    default: {
        std::vector<JsonValue::Member> members;
        const int len = rng.uniformInt(0, 4);
        for (int i = 0; i < len; ++i)
            members.emplace_back("k" + std::to_string(i),
                                 randomValue(rng, depth + 1));
        return JsonValue::object(std::move(members));
    }
    }
}

} // namespace

TEST(Json, FuzzRoundTrip)
{
    // Seeded, so failures reproduce: dump -> parse -> dump must be a
    // byte-identical fixed point for arbitrary generated values.
    Rng rng(20260805);
    for (int trial = 0; trial < 500; ++trial) {
        const JsonValue value = randomValue(rng, 0);
        const std::string once = value.dump();
        std::string error;
        const auto reparsed = parseJson(once, &error);
        ASSERT_TRUE(reparsed.has_value())
            << "trial " << trial << ": " << error << "\n"
            << once;
        EXPECT_EQ(reparsed->dump(), once) << "trial " << trial;
    }
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
    const std::optional<JsonValue> got = parseJson(token);
    ASSERT_EQ(got.has_value(), expected.has_value()) << token;
    if (!expected)
        return;
    ASSERT_TRUE(got->isNumber()) << token;
    const double value = got->asNumber();
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
