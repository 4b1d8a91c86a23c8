// The system's one JSON codec: a value type, its canonical writer and its
// parser. Every JSON byte pbSE reads or writes goes through here — the
// pbse-serve control wire (server/protocol.h), the JSONL trace reader
// (obs/trace_reader.h), the string quoting of the streaming trace sinks and
// BENCH writers, and `pbse-analyze --json`.
//
// The value is deliberately minimal: null/bool/number/string/array/object.
// A number written as a plain unsigned integer lives in an exact u64 lane
// (tick budgets and ids need all 64 bits); every other number is a double,
// and as_u64() refuses any double that is not a whole number in [0, 2^64).
// Object keys are kept sorted, so dump() is canonical.
//
// std-only and its own library (pbse_json), so pbse_obs links it without
// linking pbse_support, which itself depends on pbse_obs. No external
// dependency: the container bakes in no JSON library.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pbse {

/// Malformed JSON text, or a value read as a type it does not hold.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json number(std::uint64_t v);
  static Json number_double(double v);
  static Json string(std::string s);
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  /// A number in the exact u64 lane: built by number(), or parsed from
  /// digits alone (no sign, fraction or exponent).
  bool is_integer() const { return kind_ == Kind::kNumber && integer_; }

  bool as_bool() const;
  /// Throws JsonError unless the number is a whole value in [0, 2^64).
  std::uint64_t as_u64() const;
  double as_double() const;
  const std::string& as_string() const;
  const std::vector<Json>& items() const;

  /// Object field access; get() returns null for a missing key.
  const Json& get(const std::string& key) const;
  bool has(const std::string& key) const;
  void set(const std::string& key, Json value);
  void push_back(Json value);
  const std::map<std::string, Json>& fields() const;

  /// Convenience typed getters with defaults (missing or wrong type ->
  /// fallback), the common shape of optional protocol fields. A number
  /// that is not a u64 still throws from get_u64.
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Compact canonical text. Non-finite doubles, which JSON cannot spell,
  /// are written as null.
  std::string dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool integer_ = false;
  std::uint64_t unum_ = 0;
  double num_ = 0;
  std::string str_;
  std::vector<Json> items_;
  std::map<std::string, Json> fields_;
};

/// Parses one JSON document (RFC 8259; whitespace around tokens allowed).
/// Throws JsonError on malformed input, trailing bytes, or nesting deeper
/// than 256 levels.
Json parse_json(std::string_view text);

/// `s` as a JSON string literal, quotes included: exactly what dump()
/// writes for a string value.
std::string json_quote(std::string_view s);

}  // namespace pbse
