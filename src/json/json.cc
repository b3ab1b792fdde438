#include "json/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dynamite {

Json Json::Bool(bool v) {
  Json j;
  j.kind_ = JsonKind::kBool;
  j.bool_ = v;
  return j;
}

Json Json::Int(int64_t v) {
  Json j;
  j.kind_ = JsonKind::kInt;
  j.int_ = v;
  return j;
}

Json Json::Double(double v) {
  Json j;
  j.kind_ = JsonKind::kDouble;
  j.double_ = v;
  return j;
}

Json Json::String(std::string v) {
  Json j;
  j.kind_ = JsonKind::kString;
  j.string_ = std::move(v);
  return j;
}

Json Json::MakeArray() {
  Json j;
  j.kind_ = JsonKind::kArray;
  return j;
}

Json Json::MakeObject() {
  Json j;
  j.kind_ = JsonKind::kObject;
  return j;
}

const Json* Json::Find(std::string_view key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Json::operator==(const Json& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case JsonKind::kNull:
      return true;
    case JsonKind::kBool:
      return bool_ == other.bool_;
    case JsonKind::kInt:
      return int_ == other.int_;
    case JsonKind::kDouble:
      return double_ == other.double_;
    case JsonKind::kString:
      return string_ == other.string_;
    case JsonKind::kArray:
      return array_ == other.array_;
    case JsonKind::kObject:
      return object_ == other.object_;
  }
  return false;
}

namespace {

void EscapeString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void Indent(std::string* out, int n) {
  for (int i = 0; i < n; ++i) out->append("  ");
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, bool pretty) const {
  switch (kind_) {
    case JsonKind::kNull:
      out->append("null");
      break;
    case JsonKind::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case JsonKind::kInt:
      out->append(std::to_string(int_));
      break;
    case JsonKind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", double_);
      out->append(buf);
      break;
    }
    case JsonKind::kString:
      EscapeString(string_, out);
      break;
    case JsonKind::kArray: {
      if (array_.empty()) {
        out->append("[]");
        break;
      }
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        if (pretty) {
          out->push_back('\n');
          Indent(out, indent + 1);
        }
        array_[i].DumpTo(out, indent + 1, pretty);
      }
      if (pretty) {
        out->push_back('\n');
        Indent(out, indent);
      }
      out->push_back(']');
      break;
    }
    case JsonKind::kObject: {
      if (object_.empty()) {
        out->append("{}");
        break;
      }
      out->push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out->push_back(',');
        if (pretty) {
          out->push_back('\n');
          Indent(out, indent + 1);
        }
        EscapeString(object_[i].first, out);
        out->append(pretty ? ": " : ":");
        object_[i].second.DumpTo(out, indent + 1, pretty);
      }
      if (pretty) {
        out->push_back('\n');
        Indent(out, indent);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out, 0, /*pretty=*/false);
  return out;
}

std::string Json::Pretty() const {
  std::string out;
  DumpTo(&out, 0, /*pretty=*/true);
  return out;
}

namespace {

/// Recursive-descent JSON parser.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> Parse() {
    SkipWs();
    DYNAMITE_ASSIGN_OR_RETURN(Json value, ParseValue());
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& msg) {
    return Status::ParseError("JSON: " + msg + " at offset " + std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Eof() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  Result<Json> ParseValue() {
    if (Eof()) return Error("unexpected end of input");
    char c = Peek();
    switch (c) {
      case '{':
      case '[': {
        // Arrays and objects recurse: bound the depth so hostile input
        // fails with a ParseError instead of overflowing the stack.
        if (depth_ == kMaxDepth) {
          return Error("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        ++depth_;
        Result<Json> nested = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return nested;
      }
      case '"': {
        DYNAMITE_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json::String(std::move(s));
      }
      case 't':
        return ParseKeyword("true", Json::Bool(true));
      case 'f':
        return ParseKeyword("false", Json::Bool(false));
      case 'n':
        return ParseKeyword("null", Json::Null());
      default:
        return ParseNumber();
    }
  }

  Result<Json> ParseKeyword(std::string_view kw, Json value) {
    if (text_.substr(pos_, kw.size()) != kw) return Error("invalid literal");
    pos_ += kw.size();
    return value;
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    if (!Eof() && (Peek() == '-' || Peek() == '+')) ++pos_;
    bool is_double = false;
    while (!Eof() && (std::isdigit(static_cast<unsigned char>(Peek())) || Peek() == '.' ||
                      Peek() == 'e' || Peek() == 'E' || Peek() == '-' || Peek() == '+')) {
      if (Peek() == '.' || Peek() == 'e' || Peek() == 'E') is_double = true;
      ++pos_;
    }
    if (pos_ == start) return Error("invalid number");
    std::string token(text_.substr(start, pos_ - start));
    if (is_double) {
      char* end = nullptr;
      double d = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size()) return Error("invalid number " + token);
      return Json::Double(d);
    }
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(token.c_str(), &end, 10);
    if (errno != 0 || end != token.c_str() + token.size()) {
      return Error("invalid integer " + token);
    }
    return Json::Int(v);
  }

  Result<std::string> ParseString() {
    if (Eof() || Peek() != '"') return Error("expected '\"'");
    ++pos_;
    std::string out;
    while (true) {
      if (Eof()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (Eof()) return Error("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("bad \\u escape digit");
              }
            }
            // Encode the code point as UTF-8 (BMP only; surrogate pairs are
            // passed through as replacement chars — sufficient for our data).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Error("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Result<Json> ParseArray() {
    ++pos_;  // consume '['
    Json arr = Json::MakeArray();
    SkipWs();
    if (!Eof() && Peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      SkipWs();
      DYNAMITE_ASSIGN_OR_RETURN(Json v, ParseValue());
      arr.Append(std::move(v));
      SkipWs();
      if (Eof()) return Error("unterminated array");
      char c = text_[pos_++];
      if (c == ']') break;
      if (c != ',') return Error("expected ',' or ']'");
    }
    return arr;
  }

  Result<Json> ParseObject() {
    ++pos_;  // consume '{'
    Json obj = Json::MakeObject();
    SkipWs();
    if (!Eof() && Peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      SkipWs();
      DYNAMITE_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWs();
      if (Eof() || text_[pos_++] != ':') return Error("expected ':'");
      SkipWs();
      DYNAMITE_ASSIGN_OR_RETURN(Json v, ParseValue());
      obj.Set(std::move(key), std::move(v));
      SkipWs();
      if (Eof()) return Error("unterminated object");
      char c = text_[pos_++];
      if (c == '}') break;
      if (c != ',') return Error("expected ',' or '}'");
    }
    return obj;
  }

  static constexpr size_t kMaxDepth = 1000;

  std::string_view text_;
  size_t pos_ = 0;
  size_t depth_ = 0;  ///< arrays and objects currently open
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) { return Parser(text).Parse(); }

}  // namespace dynamite
