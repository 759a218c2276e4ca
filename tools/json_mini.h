// Minimal JSON model + recursive-descent parser shared by the repo's
// offline tools (validate_metrics, obs_report).  No third-party
// dependency, by design: the toolchain image is frozen, and the JSON
// these tools read is the repo's own deterministic output, so a small
// strict parser beats a vendored library.
//
// Deliberately NOT a general-purpose JSON library: object keys are
// stored in a sorted map (duplicate keys: last wins), \uXXXX escapes
// beyond the control range are unsupported, and numbers parse via stod.
// That is exactly sufficient for ms.metrics.v1 / ms.run.v2 files and
// their JSONL trace cousins.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace ms::tools {

struct Json {
  enum class Kind { Object, Array, String, Number, Bool, Null } kind;
  std::map<std::string, Json> object;
  std::vector<Json> array;
  std::string string;
  double number = 0.0;
  bool integral = false;  // number had no '.', 'e', or 'E'
  bool boolean = false;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing data after top-level value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("byte " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "', found '" + s_[pos_] + "'");
    ++pos_;
  }

  void expect_word(const char* word) {
    for (const char* p = word; *p; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p)
        fail(std::string("expected '") + word + "'");
      ++pos_;
    }
  }

  Json value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': {
        Json v;
        v.kind = Json::Kind::Bool;
        v.boolean = true;
        expect_word("true");
        return v;
      }
      case 'f': {
        Json v;
        v.kind = Json::Kind::Bool;
        expect_word("false");
        return v;
      }
      case 'n': {
        Json v;
        v.kind = Json::Kind::Null;
        expect_word("null");
        return v;
      }
      default: return number();
    }
  }

  Json object() {
    Json v;
    v.kind = Json::Kind::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      const std::string key = string_value().string;
      skip_ws();
      expect(':');
      v.object[key] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    Json v;
    v.kind = Json::Kind::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Json string_value() {
    Json v;
    v.kind = Json::Kind::String;
    expect('"');
    while (peek() != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': v.string += '"'; break;
          case '\\': v.string += '\\'; break;
          case '/': v.string += '/'; break;
          case 'n': v.string += '\n'; break;
          case 't': v.string += '\t'; break;
          case 'r': v.string += '\r'; break;
          case 'u': {
            // Only the control-range escapes our writers emit (\u00XX).
            if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
            const std::string hex = s_.substr(pos_, 4);
            pos_ += 4;
            v.string += static_cast<char>(std::stoi(hex, nullptr, 16));
            break;
          }
          default: fail(std::string("unsupported escape '\\") + esc + "'");
        }
      } else {
        v.string += c;
      }
    }
    ++pos_;
    return v;
  }

  Json number() {
    Json v;
    v.kind = Json::Kind::Number;
    const std::size_t start = pos_;
    bool integral = true;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a number");
    v.number = std::stod(s_.substr(start, pos_ - start));
    v.integral = integral;
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace ms::tools
