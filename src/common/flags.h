// Minimal command-line flag parsing for the experiment harnesses, tools and
// daemons: `--key=value` and `--key value` pairs with typed getters and
// defaults.  Unrecognized positional arguments are kept in order.
//
// Misconfiguration must not fail open (a daemon silently ignoring a
// mistyped flag would run with defaults the operator did not choose), so
// every syntax or value error throws FlagError — a std::runtime_error the
// tool's main() catches to print the message plus its usage text and exit
// non-zero.  Getters record which keys the program understands; after the
// last getter, call reject_unknown() to turn any leftover (i.e. unknown)
// flag into a FlagError listing the known flags.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace driftsync {

/// A malformed, unknown or value-less command-line flag.  Deliberately NOT
/// part of the DecodeError taxonomy (common/errors.h): flags are operator
/// input at process start, not untrusted runtime bytes, and the recovery is
/// "print usage and exit", not "drop the message and keep serving".
class FlagError : public std::runtime_error {
 public:
  explicit FlagError(const std::string& what) : std::runtime_error(what) {}
};

class Flags {
 public:
  /// Parses argv; throws FlagError on a malformed flag (e.g. a trailing
  /// `--key` with no value).
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Numeric getters reject what the strto* family fails open on: leading
  /// whitespace, trailing garbage, and out-of-range values (which strtoll
  /// and friends silently saturate with errno=ERANGE).  The unsigned
  /// getters additionally reject a sign — "-1" must not wrap to 2^64-1.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  /// Unsigned decimal flag (counts, budgets, sizes).
  [[nodiscard]] std::uint64_t get_uint(const std::string& key,
                                       std::uint64_t fallback) const;
  /// get_uint with an inclusive [min, max] validity range.  A value outside
  /// it throws FlagError naming the range, so nonsensical configurations
  /// ("--max-clients=0") die at startup with usable text instead of failing
  /// open.  The fallback must itself lie in range (caller bug otherwise).
  [[nodiscard]] std::uint64_t get_uint_range(const std::string& key,
                                             std::uint64_t fallback,
                                             std::uint64_t min,
                                             std::uint64_t max) const;
  /// Unsigned flag accepting hex/octal prefixes (base 0) for RNG seeds.
  [[nodiscard]] std::uint64_t get_seed(const std::string& key,
                                       std::uint64_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  /// Comma list of distinct names drawn from `allowed`, matched exactly;
  /// returns them in `allowed` order (all of them when the flag is absent).
  /// Anything else — a typo, an empty entry, a repeat — throws FlagError:
  /// a mistyped list must not shrink a sweep to nothing.
  [[nodiscard]] std::vector<std::string> get_subset(
      const std::string& key, const std::vector<std::string>& allowed) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Keys given on the command line that no getter (or has()) ever asked
  /// about, in lexicographic order.
  [[nodiscard]] std::vector<std::string> unknown_keys() const;

  /// Throws FlagError when the command line contained flags the program
  /// never read, listing them and every key the program did ask about.
  /// Call after the last getter; `usage` (if non-empty) is appended to the
  /// message verbatim.
  void reject_unknown(const std::string& usage = "") const;

 private:
  struct Entry {
    std::string value;
    mutable bool read = false;
  };

  const Entry* find(const std::string& key) const;

  // Ordered so that error listings are deterministic.
  std::map<std::string, Entry> values_;
  std::vector<std::string> positional_;
};

}  // namespace driftsync
