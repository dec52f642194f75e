#include "util/json.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

#include "util/logging.hh"

namespace dronedse {

namespace {

/** Hostile inputs must not recurse past this nesting depth. */
constexpr int kMaxDepth = 96;

void
appendUtf8(std::string &out, unsigned long code_point)
{
    if (code_point < 0x80) {
        out += static_cast<char>(code_point);
    } else if (code_point < 0x800) {
        out += static_cast<char>(0xC0 | (code_point >> 6));
        out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else if (code_point < 0x10000) {
        out += static_cast<char>(0xE0 | (code_point >> 12));
        out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else {
        out += static_cast<char>(0xF0 | (code_point >> 18));
        out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
        out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (code_point & 0x3F));
    }
}

/** Append `s` with JSON string escapes (no quotes). */
void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    for (char c : s) {
        const unsigned char u = static_cast<unsigned char>(c);
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        default:
            if (u < 0x20) {
                out += "\\u00";
                out += kHex[u >> 4];
                out += kHex[u & 0xF];
            } else {
                out += c;
            }
        }
    }
}

/** Recursive-descent parser over one immutable text. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    std::optional<JsonValue> parse(std::string *error)
    {
        JsonValue value;
        if (!parseValue(value, 0) || !expectEnd()) {
            if (error)
                *error = error_;
            return std::nullopt;
        }
        return value;
    }

  private:
    bool fail(const std::string &reason)
    {
        if (error_.empty())
            error_ = "byte " + std::to_string(pos_) + ": " + reason;
        return false;
    }

    void skipWhitespace()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool expectEnd()
    {
        skipWhitespace();
        if (pos_ != text_.size())
            return fail("trailing garbage after document");
        return true;
    }

    bool literal(const char *word)
    {
        const std::size_t len = std::char_traits<char>::length(word);
        if (text_.compare(pos_, len, word) != 0)
            return fail("unexpected token");
        pos_ += len;
        return true;
    }

    bool parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWhitespace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
        case 'n':
            if (!literal("null"))
                return false;
            out = JsonValue();
            return true;
        case 't':
            if (!literal("true"))
                return false;
            out = JsonValue::boolean(true);
            return true;
        case 'f':
            if (!literal("false"))
                return false;
            out = JsonValue::boolean(false);
            return true;
        case '"':
            return parseString(out);
        case '[':
            return parseArray(out, depth);
        case '{':
            return parseObject(out, depth);
        default:
            return parseNumber(out);
        }
    }

    bool parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        // Integer part: "0" or a nonzero digit run (no leading
        // zeros); this is also where NaN/Infinity tokens die.
        if (pos_ >= text_.size() ||
            !std::isdigit(static_cast<unsigned char>(text_[pos_])))
            return fail("malformed number");
        if (text_[pos_] == '0') {
            ++pos_;
        } else {
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                return fail("malformed number fraction");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                return fail("malformed number exponent");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        // The token is grammar-checked, so from_chars reads all of it
        // in place, correctly rounded like strtod.  It reports
        // overflow *and* underflow as out of range with the value
        // unset, where strtod gives +-inf or +-0 (a subnormal like
        // 2.4e-324 rounds to 0), so those tokens, and anything else
        // from_chars will not read, take the strtod path.
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        double value = 0.0;
        const std::from_chars_result r =
            std::from_chars(first, last, value);
        if (r.ec != std::errc() || r.ptr != last)
            return parseNumberStrtod(std::string(first, last), out);
        out = JsonValue::number(value);
        return true;
    }

    bool parseNumberStrtod(const std::string &token, JsonValue &out)
    {
        errno = 0;
        char *parse_end = nullptr;
        const double value = std::strtod(token.c_str(), &parse_end);
        if (parse_end != token.c_str() + token.size())
            return fail("malformed number");
        if (errno == ERANGE && !std::isfinite(value))
            return fail("number out of range");
        if (!std::isfinite(value))
            return fail("non-finite number");
        out = JsonValue::number(value);
        return true;
    }

    bool parseHex4(unsigned long &out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        unsigned long value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + i];
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<unsigned long>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<unsigned long>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<unsigned long>(c - 'A' + 10);
            else
                return fail("bad \\u escape digit");
        }
        pos_ += 4;
        out = value;
        return true;
    }

    bool parseStringRaw(std::string &out)
    {
        // Caller guarantees text_[pos_] == '"'.
        ++pos_;
        out.clear();
        while (true) {
            if (pos_ >= text_.size())
                return fail("unterminated string");
            const unsigned char c =
                static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += static_cast<char>(c);
                ++pos_;
                continue;
            }
            ++pos_;
            if (pos_ >= text_.size())
                return fail("truncated escape");
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                unsigned long code = 0;
                if (!parseHex4(code))
                    return false;
                if (code >= 0xD800 && code <= 0xDBFF) {
                    // High surrogate: a \uDC00-\uDFFF must follow.
                    if (pos_ + 2 > text_.size() ||
                        text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
                        return fail("lone high surrogate");
                    pos_ += 2;
                    unsigned long low = 0;
                    if (!parseHex4(low))
                        return false;
                    if (low < 0xDC00 || low > 0xDFFF)
                        return fail("bad low surrogate");
                    code = 0x10000 + ((code - 0xD800) << 10) +
                           (low - 0xDC00);
                } else if (code >= 0xDC00 && code <= 0xDFFF) {
                    return fail("lone low surrogate");
                }
                appendUtf8(out, code);
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
    }

    bool parseString(JsonValue &out)
    {
        std::string value;
        if (!parseStringRaw(value))
            return false;
        out = JsonValue::string(std::move(value));
        return true;
    }

    bool parseArray(JsonValue &out, int depth)
    {
        ++pos_; // '['
        std::vector<JsonValue> items;
        skipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            out = JsonValue::array(std::move(items));
            return true;
        }
        while (true) {
            JsonValue item;
            if (!parseValue(item, depth + 1))
                return false;
            items.push_back(std::move(item));
            skipWhitespace();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            const char c = text_[pos_++];
            if (c == ']')
                break;
            if (c != ',') {
                --pos_;
                return fail("expected ',' or ']' in array");
            }
        }
        out = JsonValue::array(std::move(items));
        return true;
    }

    bool parseObject(JsonValue &out, int depth)
    {
        ++pos_; // '{'
        std::vector<JsonValue::Member> members;
        skipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            out = JsonValue::object(std::move(members));
            return true;
        }
        while (true) {
            skipWhitespace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseStringRaw(key))
                return false;
            skipWhitespace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            members.emplace_back(std::move(key), std::move(value));
            skipWhitespace();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            const char c = text_[pos_++];
            if (c == '}')
                break;
            if (c != ',') {
                --pos_;
                return fail("expected ',' or '}' in object");
            }
        }
        out = JsonValue::object(std::move(members));
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    std::string error_;
};

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    appendJsonQuoted(out, s);
    return out;
}

void
appendJsonQuoted(std::string &out, std::string_view s)
{
    out += '"';
    appendEscaped(out, s);
    out += '"';
}

std::string
jsonNumber(double value, int significant)
{
    std::string out;
    appendJsonNumber(out, value, significant);
    return out;
}

void
appendJsonNumber(std::string &out, double value, int significant)
{
    if (!std::isfinite(value)) {
        out += "null";
        return;
    }
    // %.17g needs at most 24 characters ("-1.2345678901234567e-308").
    char buf[32];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof buf, value,
                      std::chars_format::general,
                      std::clamp(significant, 1, 17));
    out.append(buf, r.ptr);
}

JsonValue
JsonValue::boolean(bool v)
{
    JsonValue out;
    out.kind_ = Kind::Bool;
    out.bool_ = v;
    return out;
}

JsonValue
JsonValue::number(double v)
{
    JsonValue out;
    out.kind_ = Kind::Number;
    out.number_ = v;
    return out;
}

JsonValue
JsonValue::string(std::string v)
{
    JsonValue out;
    out.kind_ = Kind::String;
    out.string_ = std::move(v);
    return out;
}

JsonValue
JsonValue::array(std::vector<JsonValue> items)
{
    JsonValue out;
    out.kind_ = Kind::Array;
    out.items_ = std::move(items);
    return out;
}

JsonValue
JsonValue::object(std::vector<Member> members)
{
    JsonValue out;
    out.kind_ = Kind::Object;
    out.members_ = std::move(members);
    return out;
}

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        panic("JsonValue::asBool: not a bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::Number)
        panic("JsonValue::asNumber: not a number");
    return number_;
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        panic("JsonValue::asString: not a string");
    return string_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (kind_ != Kind::Array)
        panic("JsonValue::items: not an array");
    return items_;
}

const std::vector<JsonValue::Member> &
JsonValue::members() const
{
    if (kind_ != Kind::Object)
        panic("JsonValue::members: not an object");
    return members_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const Member &member : members_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

std::string
JsonValue::dump(int significant) const
{
    switch (kind_) {
    case Kind::Null:
        return "null";
    case Kind::Bool:
        return bool_ ? "true" : "false";
    case Kind::Number:
        return jsonNumber(number_, significant);
    case Kind::String:
        return jsonQuote(string_);
    case Kind::Array: {
        std::string out = "[";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += items_[i].dump(significant);
        }
        out += "]";
        return out;
    }
    case Kind::Object: {
        std::string out = "{";
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += jsonQuote(members_[i].first) + ": " +
                   members_[i].second.dump(significant);
        }
        out += "}";
        return out;
    }
    }
    panic("JsonValue::dump: corrupt kind");
    return "";
}

std::optional<JsonValue>
parseJson(const std::string &text, std::string *error)
{
    return Parser(text).parse(error);
}

} // namespace dronedse
