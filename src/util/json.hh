/**
 * @file
 * Minimal JSON writer helpers and a strict in-place scanner.
 *
 * One serialization home (with util/csv's RFC-4180 pair) for every
 * boundary that speaks text: the serve wire protocol, obs metric
 * snapshots, and engine sweep stats.
 * The writer helpers (`jsonQuote`, `jsonNumber`) are the former
 * private copies from obs/metrics.cc and engine/stats.hh, promoted
 * so the emitted spellings cannot drift apart.
 *
 * The reader builds nothing.  `JsonScanner` reads one token at a time
 * straight from the text's bytes and *returns* errors instead of
 * fatal()ing — the serve layer must answer malformed frames with
 * typed error replies, not die.  Skipping a value validates it and
 * can list where each array or object entry in it starts, so a
 * caller checks a whole document in one pass and then reads just the
 * values it wants, in place.
 *
 * Strictness (RFC 8259): no NaN/Infinity tokens, no leading zeros,
 * no trailing garbage, no raw control characters in strings, correct
 * surrogate-pair handling, bounded nesting depth.
 */

#ifndef DRONEDSE_UTIL_JSON_HH
#define DRONEDSE_UTIL_JSON_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace dronedse {

/** Quote + escape a string as a JSON string literal. */
std::string jsonQuote(const std::string &s);

/** `jsonQuote(s)`, appended to `out` with no temporary string. */
void appendJsonQuoted(std::string &out, std::string_view s);

/**
 * Format a double with `significant` digits (clamped to 1..17) of
 * %g precision.  Non-finite values have no JSON spelling and render
 * as "null".
 */
std::string jsonNumber(double value, int significant = 17);

/**
 * `jsonNumber(value, significant)`, appended to `out` with no
 * temporary string.  The digits come from `std::to_chars` in general
 * format, which spells every double exactly as printf's `%.*g` does
 * (held to snprintf in tests/util/test_json.cc).
 */
void appendJsonNumber(std::string &out, double value,
                      int significant = 17);

/**
 * One entry of an array or object, as `JsonScanner::skipValue` lists
 * it: depth first, so the entries of the container this one holds
 * follow it and end at `end`.
 */
struct JsonEntry
{
    /** The member's quoted key token; empty for an array item. */
    std::string_view key;
    /** Offset of the value's first byte. */
    std::size_t value = 0;
    /**
     * One past the last entry nested in this one's value: the next
     * entry of the same container, if there is one.
     */
    std::size_t end = 0;
    /** Whether `key` holds an escape, so must be decoded to compare. */
    bool escaped = false;

    /** Whether the key reads as `name` once unescaped. */
    bool is(std::string_view name) const
    {
        if (escaped)
            return decodedKeyIs(name);
        return key.size() == name.size() + 2 &&
               key.substr(1, name.size()) == name;
    }

  private:
    bool decodedKeyIs(std::string_view name) const;
};

/**
 * A strict scanner over one JSON text.  Each call reads the token at
 * `pos()`, after any whitespace, and moves past it.  On malformed
 * input a call returns false and `error()` keeps the first
 * "byte N: reason" diagnostic.
 */
class JsonScanner
{
  public:
    explicit JsonScanner(std::string_view text, std::size_t pos = 0)
        : text_(text), pos_(pos)
    {
    }

    std::size_t pos() const { return pos_; }
    const std::string &error() const { return error_; }

    /**
     * One whole document: a value, then nothing but whitespace.  See
     * `skipValue` for `entries`.
     */
    bool skipDocument(std::vector<JsonEntry> *entries = nullptr)
    {
        return skipValue(0, entries) && expectEnd();
    }

    /**
     * Validates one value and moves past it.  A value nested more
     * than 96 levels below `depth` fails.  With `entries`, every
     * entry of every array and object in the value is appended to it,
     * depth first, so one pass both checks a document and indexes it.
     * The value's own entries then start at the first appended one,
     * each at the previous one's `end`.
     */
    bool skipValue(int depth = 0, std::vector<JsonEntry> *entries = nullptr);

    /** A number token, read as `strtod` reads it (bit for bit). */
    bool readNumber(double &out)
    {
        skipWhitespace();
        return scanNumber(&out);
    }

    /** A string token, unescaped into `out` as UTF-8. */
    bool readString(std::string &out)
    {
        skipWhitespace();
        out.clear();
        return scanString(&out);
    }

  private:
    void skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool fail(const char *reason);
    bool expectEnd();
    bool literal(std::string_view word);
    bool scanNumber(double *out);
    bool scanHex4(unsigned long &out);
    bool scanString(std::string *out);
    bool skipContainer(char close, int depth,
                       std::vector<JsonEntry> *entries);

    std::string_view text_;
    std::size_t pos_;
    std::string error_;
};

} // namespace dronedse

#endif // DRONEDSE_UTIL_JSON_HH
