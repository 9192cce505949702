#include "common/flags.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/check.h"

namespace driftsync {

namespace {

// The strto* family fails open in three ways a flag parser must not: it
// skips leading whitespace, accepts trailing garbage only via the end
// pointer (which callers must check), and signals overflow by *saturating*
// the result with errno=ERANGE — silently truncating "--budget=1e999"-style
// typos into a huge-but-valid value.  These helpers close all three holes.

/// A numeric flag value must start with the number itself: strtod/strtoll
/// would silently skip leading whitespace, letting "--x= 5" parse.
bool bad_lead(const std::string& v) {
  return v.empty() || std::isspace(static_cast<unsigned char>(v[0])) != 0;
}

[[noreturn]] void bad_value(const std::string& key, const char* kind,
                            const std::string& value) {
  throw FlagError("flag --" + key + " is not " + kind + ": " + value);
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = Entry{body.substr(eq + 1)};
    } else {
      if (i + 1 >= argc) {
        throw FlagError("flag --" + body + " needs a value");
      }
      values_[body] = Entry{argv[++i]};
    }
  }
}

const Flags::Entry* Flags::find(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  it->second.read = true;
  return &it->second;
}

bool Flags::has(const std::string& key) const {
  return find(key) != nullptr;
}

std::string Flags::get_string(const std::string& key,
                              const std::string& fallback) const {
  const Entry* e = find(key);
  return e == nullptr ? fallback : e->value;
}

double Flags::get_double(const std::string& key, double fallback) const {
  const Entry* e = find(key);
  if (e == nullptr) return fallback;
  if (bad_lead(e->value)) bad_value(key, "a number", e->value);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(e->value.c_str(), &end);
  if (end == e->value.c_str() || *end != '\0') {
    bad_value(key, "a number", e->value);
  }
  if (errno == ERANGE) {
    throw FlagError("flag --" + key + " overflows a double: " + e->value);
  }
  return v;
}

std::int64_t Flags::get_int(const std::string& key,
                            std::int64_t fallback) const {
  const Entry* e = find(key);
  if (e == nullptr) return fallback;
  if (bad_lead(e->value)) bad_value(key, "an integer", e->value);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(e->value.c_str(), &end, 10);
  if (end == e->value.c_str() || *end != '\0') {
    bad_value(key, "an integer", e->value);
  }
  if (errno == ERANGE) {
    throw FlagError("flag --" + key + " overflows 64 bits: " + e->value);
  }
  return v;
}

std::uint64_t Flags::get_uint(const std::string& key,
                              std::uint64_t fallback) const {
  const Entry* e = find(key);
  if (e == nullptr) return fallback;
  if (bad_lead(e->value) || e->value[0] == '-' || e->value[0] == '+') {
    // strtoull quietly wraps "-1" to 2^64-1; an unsigned flag must reject
    // a negative value instead of truncating it.
    bad_value(key, "a non-negative integer", e->value);
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(e->value.c_str(), &end, 10);
  if (end == e->value.c_str() || *end != '\0') {
    bad_value(key, "a non-negative integer", e->value);
  }
  if (errno == ERANGE) {
    throw FlagError("flag --" + key + " overflows 64 bits: " + e->value);
  }
  return v;
}

std::uint64_t Flags::get_uint_range(const std::string& key,
                                    std::uint64_t fallback, std::uint64_t min,
                                    std::uint64_t max) const {
  DS_CHECK_MSG(min <= fallback && fallback <= max,
               "flag fallback outside its own validity range");
  const std::uint64_t v = get_uint(key, fallback);
  if (v < min || v > max) {
    throw FlagError("flag --" + key + "=" + std::to_string(v) +
                    " is outside [" + std::to_string(min) + ", " +
                    std::to_string(max) + "]");
  }
  return v;
}

std::uint64_t Flags::get_seed(const std::string& key,
                              std::uint64_t fallback) const {
  const Entry* e = find(key);
  if (e == nullptr) return fallback;
  if (bad_lead(e->value) || e->value[0] == '-' || e->value[0] == '+') {
    bad_value(key, "a seed", e->value);
  }
  char* end = nullptr;
  errno = 0;
  // Base 0: seeds may be written in hex ("0xdead...").
  const unsigned long long v = std::strtoull(e->value.c_str(), &end, 0);
  if (end == e->value.c_str() || *end != '\0') {
    bad_value(key, "a seed", e->value);
  }
  if (errno == ERANGE) {
    throw FlagError("flag --" + key + " overflows 64 bits: " + e->value);
  }
  return v;
}

bool Flags::get_bool(const std::string& key, bool fallback) const {
  const Entry* e = find(key);
  if (e == nullptr) return fallback;
  const std::string& v = e->value;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw FlagError("flag --" + key + " is not a boolean: " + v);
}

std::vector<std::string> Flags::get_subset(
    const std::string& key, const std::vector<std::string>& allowed) const {
  const Entry* e = find(key);
  if (e == nullptr) return allowed;
  const std::string& list = e->value;
  std::vector<std::string> subset;
  for (const std::string& name : allowed) {
    if (("," + list + ",").find("," + name + ",") != std::string::npos) {
      subset.push_back(name);
    }
  }
  // Every entry must have matched a distinct allowed name.
  const auto entries = std::count(list.begin(), list.end(), ',') + 1;
  if (static_cast<std::ptrdiff_t>(subset.size()) != entries) {
    throw FlagError("flag --" + key + " is not a list of distinct names "
                    "from the usage text: " + list);
  }
  return subset;
}

std::vector<std::string> Flags::unknown_keys() const {
  std::vector<std::string> unknown;
  for (const auto& [key, entry] : values_) {
    if (!entry.read) unknown.push_back(key);
  }
  return unknown;
}

void Flags::reject_unknown(const std::string& usage) const {
  const std::vector<std::string> unknown = unknown_keys();
  if (unknown.empty()) return;
  std::string msg = "unknown flag";
  if (unknown.size() > 1) msg += 's';
  for (const std::string& key : unknown) msg += " --" + key;
  std::string known;
  for (const auto& [key, entry] : values_) {
    if (!entry.read) continue;
    if (!known.empty()) known += ' ';
    known += "--";
    known += key;
  }
  if (!known.empty()) msg += " (recognized here: " + known + ")";
  if (!usage.empty()) msg += "\n" + usage;
  throw FlagError(msg);
}

}  // namespace driftsync
