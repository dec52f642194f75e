#include "util/json.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

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

} // namespace

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

bool
JsonScanner::fail(const char *reason)
{
    if (error_.empty())
        error_ = "byte " + std::to_string(pos_) + ": " + reason;
    return false;
}

bool
JsonScanner::expectEnd()
{
    skipWhitespace();
    if (pos_ != text_.size())
        return fail("trailing garbage after document");
    return true;
}

bool
JsonScanner::literal(std::string_view word)
{
    if (text_.substr(pos_, word.size()) != word)
        return fail("unexpected token");
    pos_ += word.size();
    return true;
}

bool
JsonScanner::skipValue(int depth, std::vector<JsonEntry> *entries)
{
    if (depth > kMaxDepth)
        return fail("nesting too deep");
    skipWhitespace();
    if (pos_ >= text_.size())
        return fail("unexpected end of input");
    switch (text_[pos_]) {
    case 'n': return literal("null");
    case 't': return literal("true");
    case 'f': return literal("false");
    case '"': return scanString(nullptr);
    case '[': return skipContainer(']', depth, entries);
    case '{': return skipContainer('}', depth, entries);
    default: return scanNumber(nullptr);
    }
}

bool
JsonScanner::skipContainer(char close, int depth,
                           std::vector<JsonEntry> *entries)
{
    const bool object = close == '}';
    ++pos_; // '[' or '{'
    skipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == close) {
        ++pos_;
        return true;
    }
    while (true) {
        JsonEntry entry;
        if (object) {
            skipWhitespace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            const std::size_t key = pos_;
            if (!scanString(nullptr))
                return false;
            entry.key = text_.substr(key, pos_ - key);
            skipWhitespace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
        }
        const std::size_t index = entries ? entries->size() : 0;
        if (entries) {
            entry.value = text_.find_first_not_of(" \t\n\r", pos_);
            entry.escaped = entry.key.find('\\') != std::string_view::npos;
            entries->push_back(entry);
        }
        if (!skipValue(depth + 1, entries))
            return false;
        if (entries)
            (*entries)[index].end = entries->size();
        skipWhitespace();
        if (pos_ >= text_.size())
            return fail(object ? "unterminated object"
                               : "unterminated array");
        const char c = text_[pos_++];
        if (c == close)
            return true;
        if (c != ',') {
            --pos_;
            return fail(object ? "expected ',' or '}' in object"
                               : "expected ',' or ']' in array");
        }
    }
}

bool
JsonScanner::scanNumber(double *out)
{
    const auto digit = [this] {
        return pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9';
    };
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-')
        ++pos_;
    // Integer part: "0" or a nonzero digit run (no leading zeros);
    // this is also where NaN/Infinity tokens die.
    if (!digit())
        return fail("malformed number");
    const std::size_t int_start = pos_;
    if (text_[pos_] == '0') {
        ++pos_;
    } else {
        while (digit())
            ++pos_;
    }
    const std::size_t int_digits = pos_ - int_start;
    if (pos_ < text_.size() && text_[pos_] == '.') {
        ++pos_;
        if (!digit())
            return fail("malformed number fraction");
        while (digit())
            ++pos_;
    }
    const bool exponent = pos_ < text_.size() &&
                          (text_[pos_] == 'e' || text_[pos_] == 'E');
    if (exponent) {
        ++pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '+' || text_[pos_] == '-'))
            ++pos_;
        if (!digit())
            return fail("malformed number exponent");
        while (digit())
            ++pos_;
    }
    // Below 10^308 with no exponent, a token cannot overflow, so a
    // skip need not convert it.
    if (!out && !exponent && int_digits <= 308)
        return true;
    // The token is grammar-checked, so from_chars reads all of it in
    // place, correctly rounded like strtod.  It reports overflow
    // *and* underflow as out of range with the value unset, where
    // strtod gives +-inf or +-0 (a subnormal like 2.4e-324 rounds to
    // 0), so those tokens, and anything else from_chars will not
    // read, take the strtod path.
    const char *first = text_.data() + start;
    const char *last = text_.data() + pos_;
    double value = 0.0;
    const std::from_chars_result r = std::from_chars(first, last, value);
    if (r.ec != std::errc() || r.ptr != last) {
        const std::string token(first, last);
        errno = 0;
        char *parse_end = nullptr;
        value = std::strtod(token.c_str(), &parse_end);
        if (parse_end != token.c_str() + token.size())
            return fail("malformed number");
        if (errno == ERANGE && !std::isfinite(value))
            return fail("number out of range");
        if (!std::isfinite(value))
            return fail("non-finite number");
    }
    if (out)
        *out = value;
    return true;
}

bool
JsonScanner::scanHex4(unsigned long &out)
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

bool
JsonScanner::scanString(std::string *out)
{
    ++pos_; // '"'
    while (true) {
        // Copy each run of plain bytes at once.
        const std::size_t run = pos_;
        while (pos_ < text_.size() && text_[pos_] != '"' &&
               text_[pos_] != '\\' &&
               static_cast<unsigned char>(text_[pos_]) >= 0x20)
            ++pos_;
        if (out)
            out->append(text_.data() + run, pos_ - run);
        if (pos_ >= text_.size())
            return fail("unterminated string");
        if (text_[pos_] == '"') {
            ++pos_;
            return true;
        }
        if (text_[pos_] != '\\')
            return fail("raw control character in string");
        ++pos_;
        if (pos_ >= text_.size())
            return fail("truncated escape");
        char plain = 0;
        switch (text_[pos_++]) {
        case '"': plain = '"'; break;
        case '\\': plain = '\\'; break;
        case '/': plain = '/'; break;
        case 'b': plain = '\b'; break;
        case 'f': plain = '\f'; break;
        case 'n': plain = '\n'; break;
        case 'r': plain = '\r'; break;
        case 't': plain = '\t'; break;
        case 'u': {
            unsigned long code = 0;
            if (!scanHex4(code))
                return false;
            if (code >= 0xD800 && code <= 0xDBFF) {
                // High surrogate: a \uDC00-\uDFFF must follow.
                if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                    text_[pos_ + 1] != 'u')
                    return fail("lone high surrogate");
                pos_ += 2;
                unsigned long low = 0;
                if (!scanHex4(low))
                    return false;
                if (low < 0xDC00 || low > 0xDFFF)
                    return fail("bad low surrogate");
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else if (code >= 0xDC00 && code <= 0xDFFF) {
                return fail("lone low surrogate");
            }
            if (out)
                appendUtf8(*out, code);
            continue;
        }
        default:
            return fail("unknown escape");
        }
        if (out)
            *out += plain;
    }
}

bool
JsonEntry::decodedKeyIs(std::string_view name) const
{
    std::string decoded;
    JsonScanner(key).readString(decoded);
    return decoded == name;
}

} // namespace dronedse
