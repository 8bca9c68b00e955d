// The one codec for numbers and names on every input surface: scenario
// files, fault plans, the rank and p4lite languages, and command-line
// flags.
//
// Reading takes the whole token or nothing: `4x`, `-1` into an unsigned
// field, `70000` into a uint16, `nan`, `inf` and `1e400` are errors, never
// coerced values.  Integers are decimal; a `0x` prefix is read only where
// the caller's syntax says hex.  Writing a double picks the fewest %g
// significant digits, at least 6 (the default stream precision), that
// read back to the same double, so printed scenarios replay exactly.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace panic::codec {

/// Shortest exact text of `v` (see the header comment).
std::string write(double v);
template <std::integral T>
std::string write(T v) {
  return std::to_string(v);
}

/// The values a field admits: [lo, hi], or (lo, hi] when `open_lo`.  The
/// default is the whole type (every finite double).
template <typename T>
struct Range {
  T lo = std::numeric_limits<T>::lowest();
  T hi = std::numeric_limits<T>::max();
  bool open_lo = false;

  bool contains(T v) const { return (open_lo ? lo < v : lo <= v) && v <= hi; }

  /// "2..32", "0..2^64-1", "> 0", ">= 0" or "a finite number".
  std::string text() const {
    constexpr T kMax = std::numeric_limits<T>::max();
    if constexpr (std::is_floating_point_v<T>) {
      if (hi == kMax && open_lo) return "> " + write(lo);
      if (hi == kMax && lo == -kMax) return "a finite number";
      if (hi == kMax) return ">= " + write(lo);
    }
    const bool u64_max = sizeof(T) == 8 && std::is_unsigned_v<T> && hi == kMax;
    return write(lo) + ".." + (u64_max ? "2^64-1" : write(hi));
  }
};

/// Reads all of `text` into *out when it is a T inside `range` (`hex`
/// admits a `0x` prefix).  On failure *out is untouched and *why, when
/// non-null, reads "expected <what>, got '<text>'".
template <typename T>
  requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
bool read(std::string_view text, T* out, std::string* why,
          const Range<T>& range = {}, bool hex = false) {
  auto fail = [&](const std::string& what) {
    if (why != nullptr) {
      *why = "expected " + what + ", got '" + std::string(text) + "'";
    }
    return false;
  };
  const char* first = text.data();
  const char* const last = first + text.size();
  T v{};
  std::from_chars_result r{};
  if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(first, last, v);
    if (r.ptr != last || r.ec == std::errc::invalid_argument) {
      return fail("a number");
    }
    if (r.ec != std::errc{} || !std::isfinite(v)) return fail("a finite number");
  } else {
    const bool is_hex = hex && text.size() > 2 && text[0] == '0' &&
                        (text[1] == 'x' || text[1] == 'X');
    if (is_hex) first += 2;
    // A sign belongs to signed decimal values; "-1" into an unsigned field
    // is out of range, not malformed.
    const bool minus = first != last && *first == '-';
    const bool unsigned_minus = minus && std::is_unsigned_v<T>;
    r = std::from_chars(first + unsigned_minus, last, v, is_hex ? 16 : 10);
    if (r.ptr != last || r.ec == std::errc::invalid_argument ||
        (minus && is_hex)) {
      return fail(hex ? "an integer or 0x-hex" : "an integer");
    }
    if (unsigned_minus) r.ec = std::errc::result_out_of_range;
  }
  if (r.ec != std::errc{} || !range.contains(v)) return fail(range.text());
  *out = v;
  return true;
}

/// One spelling of an enum value; a table of them serves both the reader
/// and the printer (the first spelling of a value is the printed one).
template <typename E>
struct Name {
  E value;
  std::string_view name;
};

/// "on" / "off" switches.
inline constexpr Name<bool> kSwitchNames[] = {{true, "on"}, {false, "off"}};

template <typename E>
std::string_view name_of(std::span<const Name<std::type_identity_t<E>>> names,
                         E value) {
  for (const Name<E>& n : names) {
    if (n.value == value) return n.name;
  }
  return "?";
}

/// Call as value_of<E>(table, name).
template <typename E>
std::optional<E> value_of(std::span<const Name<E>> names,
                          std::string_view name) {
  for (const Name<E>& n : names) {
    if (n.name == name) return n.value;
  }
  return std::nullopt;
}

/// "a | b | c" (call as alternatives<E>(table)).
template <typename E>
std::string alternatives(std::span<const Name<E>> names) {
  std::string out;
  for (const Name<E>& n : names) {
    out += (out.empty() ? "" : " | ") + std::string(n.name);
  }
  return out;
}

}  // namespace panic::codec
