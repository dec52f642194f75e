/**
 * @file
 * Minimal JSON writer helpers and a strict reader.
 *
 * One serialization home (with util/csv's RFC-4180 pair) for every
 * boundary that speaks text: the serve wire protocol, obs metric
 * snapshots, and engine sweep stats.
 * The writer helpers (`jsonQuote`, `jsonNumber`) are the former
 * private copies from obs/metrics.cc and engine/stats.hh, promoted
 * so the emitted spellings cannot drift apart; the reader is a
 * hand-rolled recursive-descent parser in the style of `parseCsv`,
 * except that it *returns* errors instead of fatal()ing — the serve
 * layer must answer malformed frames with typed error replies, not
 * die.
 *
 * Strictness (RFC 8259): no NaN/Infinity tokens, no leading zeros,
 * no trailing garbage, no raw control characters in strings, correct
 * surrogate-pair handling, bounded nesting depth.  `dump` emits a
 * canonical spelling, so dump -> parse -> dump is a byte-identical
 * fixed point (fuzz-tested in tests/util/test_json.cc).
 */

#ifndef DRONEDSE_UTIL_JSON_HH
#define DRONEDSE_UTIL_JSON_HH

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dronedse {

/** Escape a string's content for a JSON string literal (no quotes). */
std::string jsonEscape(const std::string &s);

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
 * One parsed JSON value.  Objects preserve member order (the wire
 * protocol's canonical frames are order-sensitive for byte-identical
 * round trips); lookups scan linearly, which is fine at protocol
 * sizes.
 */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    using Member = std::pair<std::string, JsonValue>;

    /** Null by default. */
    JsonValue() = default;

    static JsonValue boolean(bool v);
    static JsonValue number(double v);
    static JsonValue string(std::string v);
    static JsonValue array(std::vector<JsonValue> items);
    static JsonValue object(std::vector<Member> members);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Accessors panic() on a kind mismatch (internal bug). */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &items() const;
    const std::vector<Member> &members() const;

    /** Object member by key; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Canonical serialization (see file comment). */
    std::string dump(int significant = 17) const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<Member> members_;
};

/**
 * Parse one JSON document.  Returns nullopt on malformed input and,
 * when `error` is non-null, stores a "byte N: reason" diagnostic.
 */
std::optional<JsonValue> parseJson(const std::string &text,
                                   std::string *error = nullptr);

} // namespace dronedse

#endif // DRONEDSE_UTIL_JSON_HH
