#include "scenario/scenario.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/codec.h"
#include "common/log.h"
#include "engines/rank_program.h"
#include "net/addr.h"
#include "rmt/p4lite.h"

namespace panic::scenario {

namespace {

/// Tiles consumed by the fixed engine set (dma, pcie, ipsec x2, kvs, rdma,
/// compression, checksum, regex, tso, rate_limiter) — must match
/// PanicNic::plan_topology.
constexpr int kFixedEngineTiles = 11;
/// No tile count can exceed the largest mesh.
constexpr int kMaxTiles = kMaxMeshK * kMaxMeshK;
/// RMT flow-cache geometry bounds.
constexpr std::uint32_t kMaxCacheSets = 1u << 20;
constexpr std::uint32_t kMaxCacheWays = 1024;

constexpr std::string_view kHeader = "panic_scenario 1";
constexpr std::string_view kHeredoc = "<<END";

using codec::Name;
using codec::Range;
using WKind = WorkloadSpec::Kind;
using IKind = InjectSpec::Kind;

constexpr Name<WKind> kWorkloadKinds[] = {
    {WKind::kUdp, "udp"},           {WKind::kMinFrame, "min"},
    {WKind::kKvs, "kvs"},           {WKind::kEsp, "esp"},
    {WKind::kUdpFill, "udp_fill"},  {WKind::kMinFill, "min_fill"},
};
constexpr Name<IKind> kInjectKinds[] = {
    {IKind::kUdp, "udp"},
    {IKind::kKvsGet, "kvs_get"},
    {IKind::kKvsSet, "kvs_set"},
    {IKind::kEsp, "esp"},
};

constexpr Name<bool> kBits[] = {{false, "0"}, {true, "1"}};
constexpr bool kIpv4 = true;  ///< text(): the value is an IPv4 address

constexpr Range<double> kPositive{0.0, std::numeric_limits<double>::max(),
                                  /*open_lo=*/true};

bool fail(std::string* why, std::string reason) {
  if (why != nullptr) *why = std::move(reason);
  return false;
}

/// The lines of a scenario text; `number` counts the lines read.
struct Lines {
  std::istringstream in;
  int number = 0;

  /// The next line that is neither blank nor a `#` comment, trimmed.
  bool next(std::string* line) {
    while (std::getline(in, *line)) {
      ++number;
      const auto first = line->find_first_not_of(" \t\r");
      if (first == std::string::npos) continue;
      const auto last = line->find_last_not_of(" \t\r");
      *line = line->substr(first, last - first + 1);
      if ((*line)[0] != '#') return true;
    }
    return false;
  }

  /// A heredoc body: raw lines (comments and blanks kept) up to a line
  /// that is exactly END.  False when the text ends first.
  bool heredoc(std::string* body) {
    for (std::string line; std::getline(in, line);) {
      ++number;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line == "END") return true;
      *body += line + "\n";
    }
    return false;
  }
};

/// `opener`, then `body` as a heredoc block (a last line left open is
/// closed), as the value of one printed line.
std::string heredoc(const std::string& opener, const std::string& body) {
  const bool open = !body.empty() && body.back() != '\n';
  return opener + "\n" + body + (open ? "\n" : "") + "END";
}

std::vector<std::string> split(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::vector<std::string> out;
  for (std::string tok; in >> tok;) out.push_back(std::move(tok));
  return out;
}

/// When a field is printed in canonical text.
struct Print {
  unsigned kinds = ~0u;     ///< bit per spec kind whose lines carry the key
  bool if_changed = false;  ///< only when it differs from the default
};
constexpr Print kAlways{};
constexpr Print kIfChanged{~0u, true};

/// Printed on the lines of these kinds only (and, with `if_changed`, only
/// when not the default).
template <typename... K>
constexpr Print only(bool if_changed, K... kinds) {
  return {((1u << static_cast<unsigned>(kinds)) | ...), if_changed};
}

/// One key of a line type — the top-level keys (S = Scenario) or the
/// `key=value` tokens of a workload / inject / host_tx line — declared
/// once for the parser, the printer, feasible() and the field reference.
template <typename S>
struct Field {
  std::string_view key{};
  std::string syntax{};    ///< value syntax, with the range
  std::string fallback{};  ///< the default, as the reference shows it
  std::string_view doc{};
  Print print{};
  bool required = false;
  /// Reads one value into the spec; heredoc keys pull their block from
  /// `lines`.  False + the reason (without the key) on a bad value.
  std::function<bool(S&, std::string_view, Lines*, std::string*)> read{};
  /// The member as canonical text.  Structural keys print through `lines`
  /// instead: one value per `<key> <value>` line.
  std::function<std::string(const S&)> value{};
  std::function<std::vector<std::string>(const S&)> lines{};
  /// A structural key's part of feasible(): false + "<key>: <reason>".
  std::function<bool(const S&, std::string*)> check{};
  std::string default_text{};  ///< value(S{}), for Print::if_changed
  /// Line-type keys (workload, inject, host_tx): their own keys' section
  /// of the field reference.
  std::string line_docs{};
};

/// One line of the field reference.
template <typename S>
std::string doc_line(const Field<S>& f) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "  %-20s %-28s default %-10s %s\n",
                std::string(f.key).c_str(), f.syntax.c_str(),
                f.fallback.c_str(), std::string(f.doc).c_str());
  return buf;
}

/// Fills in the default-derived parts of `f`.
template <typename S>
Field<S> finish(Field<S> f, std::string shown_default = "") {
  if (f.value) f.default_text = f.value(S{});
  f.fallback = !shown_default.empty() ? std::move(shown_default)
               : f.default_text.empty() ? "(empty)"
                                        : f.default_text;
  return f;
}

template <typename S, typename T>
Field<S> number(std::string_view key, T S::*m, Print print,
                std::string_view doc, Range<T> range = {}, bool hex = false) {
  Field<S> f{.key = key,
             .syntax = range.text() + (hex ? " or 0x-hex" : ""),
             .doc = doc,
             .print = print};
  f.read = [m, range, hex](S& s, std::string_view v, Lines*,
                           std::string* why) {
    return codec::read(v, &(s.*m), why, range, hex);
  };
  f.value = [m](const S& s) { return codec::write(s.*m); };
  return finish(std::move(f));
}

template <typename S, typename E, std::size_t N>
Field<S> choice(std::string_view key, E S::*m, const Name<E> (&names)[N],
                Print print, std::string_view doc) {
  const std::span<const Name<E>> table(names);
  Field<S> f{.key = key,
             .syntax = codec::alternatives<E>(table),
             .doc = doc,
             .print = print};
  f.read = [m, table, syntax = f.syntax](S& s, std::string_view v, Lines*,
                                         std::string* why) {
    const auto e = codec::value_of<E>(table, v);
    if (!e) return fail(why, "expected " + syntax + ", got '" +
                                 std::string(v) + "'");
    s.*m = *e;
    return true;
  };
  f.value = [m, table](const S& s) {
    return std::string(codec::name_of<E>(table, s.*m));
  };
  return finish(std::move(f));
}

/// A string value; `ipv4` requires a dotted-quad address.  Empty is the
/// default, which the reference shows as `shown_default`.
template <typename S>
Field<S> text(std::string_view key, std::string S::*m, std::string_view doc,
              std::string shown_default = "", bool ipv4 = false) {
  Field<S> f{.key = key,
             .syntax = ipv4 ? "<a.b.c.d>" : "<string>",
             .doc = doc,
             .print = kIfChanged};
  f.read = [m, ipv4](S& s, std::string_view v, Lines*, std::string* why) {
    if (ipv4 && !Ipv4Addr::parse(v).has_value()) {
      return fail(why, "expected an IPv4 address, got '" + std::string(v) +
                           "'");
    }
    s.*m = std::string(v);
    return true;
  };
  f.value = [m](const S& s) { return s.*m; };
  return finish(std::move(f), std::move(shown_default));
}

/// A key with its own grammar (heredocs, repeating entries): it reads its
/// value itself and prints any number of lines.
Field<Scenario> structural(
    std::string_view key, std::string syntax, std::string fallback,
    std::string_view doc,
    std::function<bool(Scenario&, std::string_view, Lines*, std::string*)>
        read,
    std::function<std::vector<std::string>(const Scenario&)> lines,
    std::function<bool(const Scenario&, std::string*)> check = {}) {
  return Field<Scenario>{.key = key,
                         .syntax = std::move(syntax),
                         .fallback = std::move(fallback),
                         .doc = doc,
                         .read = std::move(read),
                         .lines = std::move(lines),
                         .check = std::move(check)};
}

/// A key every line of its type must carry.
template <typename S>
Field<S> required(Field<S> f) {
  f.required = true;
  f.fallback = "(required)";
  return f;
}

template <typename S>
const Field<S>* find(const std::vector<Field<S>>& fields,
                     std::string_view key) {
  for (const Field<S>& f : fields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

template <typename S>
bool shown(const Field<S>& f, const S& s) {
  if constexpr (requires { s.kind; }) {
    if ((f.print.kinds >> static_cast<unsigned>(s.kind) & 1u) == 0) {
      return false;
    }
  }
  return !f.print.if_changed || f.value(s) != f.default_text;
}

/// The per-field part of feasible(): every value but the default must
/// read back through its own declaration (so it lies in the declared
/// range), and every structural key must pass its check.
template <typename S>
bool check_all(const std::vector<Field<S>>& fields, const S& s,
               std::string* why) {
  for (const Field<S>& f : fields) {
    S scratch;
    std::string reason;
    if (f.value && f.value(s) != f.default_text &&
        !f.read(scratch, f.value(s), nullptr, &reason)) {
      return fail(why, std::string(f.key) + ": " + reason);
    }
    if (f.check && !f.check(s, why)) return false;
  }
  return true;
}

/// The ` key=value` tokens `spec` prints.
template <typename S>
std::string write_tokens(const std::vector<Field<S>>& fields, const S& spec) {
  std::string out;
  for (const Field<S>& f : fields) {
    if (!shown(f, spec)) continue;
    out += ' ';
    out += f.key;
    out += '=';
    out += f.value(spec);
  }
  return out;
}

/// Reads `key=value` tokens into `spec`.
template <typename S>
bool read_tokens(const std::vector<Field<S>>& fields, std::string_view text,
                 S* spec, std::string* why) {
  std::vector<bool> seen(fields.size());
  for (const std::string& tok : split(text)) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) {
      return fail(why, "expected key=value, got '" + tok + "'");
    }
    const std::string key = tok.substr(0, eq);
    const Field<S>* f = find(fields, key);
    if (f == nullptr) return fail(why, "unknown key '" + key + "'");
    std::string reason;
    if (!f->read(*spec, std::string_view(tok).substr(eq + 1), nullptr,
                 &reason)) {
      return fail(why, key + ": " + reason);
    }
    seen[static_cast<std::size_t>(f - fields.data())] = true;
  }
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].required && !seen[i]) {
      return fail(why, std::string(fields[i].key) + ": missing (" +
                           fields[i].syntax + ")");
    }
  }
  return true;
}

// --- The repeating line types. ---

const std::vector<Field<WorkloadSpec>>& workload_fields() {
  using W = WorkloadSpec;
  static const std::vector<Field<W>> fields = {
      text("name", &W::name, "telemetry name (workload.<name>.generated)",
           "w<index>"),
      number("port", &W::port, kAlways, "Ethernet port fed by this source",
             {0, kMaxTiles - 1}),
      choice("kind", &W::kind, kWorkloadKinds, kAlways, "frame factory"),
      number("tenant", &W::tenant, kAlways, "tenant id stamped on frames"),
      choice("pattern", &W::pattern, workload::kArrivalPatternNames, kAlways,
             "arrival process"),
      number("gap", &W::mean_gap_cycles, kAlways,
             "mean inter-arrival cycles", kPositive),
      number("on", &W::on_cycles, kAlways, "onoff burst duration"),
      number("off", &W::off_cycles, kAlways, "onoff idle duration"),
      number("frames", &W::max_frames, kAlways,
             "stop after this many frames (0 = unlimited)"),
      number("bytes", &W::frame_bytes, kAlways, "udp/udp_fill frame size"),
      // Source ports stay inside [40000, 41024): the range the default
      // program's LB hash was tuned against.
      number("flows", &W::flows, kIfChanged,
             "distinct 5-tuples cycled (sport 40000+seq%flows); flow "
             "locality",
             {1, 1024}),
      number("sport", &W::src_port, kIfChanged, "UDP source port (esp)"),
      number("dport", &W::dst_port, kAlways, "UDP destination port"),
      number("wan", &W::wan_fraction, kAlways,
             "kvs: fraction arriving WAN-encrypted (0 or 1)", {0.0, 1.0}),
      number("seed", &W::seed, kAlways, "per-source random stream"),
      text("src", &W::src, "client IPv4", "10.<tenant>.0.2", kIpv4),
      text("dst", &W::dst, "server IPv4", "10.0.0.1", kIpv4),
      number("spi", &W::spi, only(false, WKind::kEsp),
             "esp: SPI (seq starts at 1)", {}, /*hex=*/true),
  };
  return fields;
}

const std::vector<Field<InjectSpec>>& inject_fields() {
  using I = InjectSpec;
  constexpr Print kUdpEsp = only(true, IKind::kUdp, IKind::kEsp);
  constexpr Print kKvs = only(false, IKind::kKvsGet, IKind::kKvsSet);
  static const std::vector<Field<I>> fields = {
      number("at", &I::at, kAlways, "injection cycle (event-scheduled)"),
      number("port", &I::port, kAlways, "Ethernet port", {0, kMaxTiles - 1}),
      required(
          choice("kind", &I::kind, kInjectKinds, kAlways, "frame constructor")),
      text("src", &I::src, "source IPv4", "10.1.0.2", kIpv4),
      text("dst", &I::dst, "destination IPv4", "10.0.0.1", kIpv4),
      number("sport", &I::src_port, kUdpEsp, "UDP source port"),
      number("dport", &I::dst_port, kUdpEsp, "UDP destination port"),
      number("tenant", &I::tenant, kKvs, "kvs: in-frame tenant"),
      number("key", &I::key, kKvs, "kvs: key"),
      number("req", &I::request_id, kKvs, "kvs: request id"),
      number("bytes", &I::value_bytes, only(false, IKind::kKvsSet),
             "kvs_set: value size"),
      number("spi", &I::spi, only(false, IKind::kEsp), "esp: SPI", {},
             /*hex=*/true),
      number("seq", &I::seq, only(false, IKind::kEsp),
             "esp: sequence number"),
      choice("tamper", &I::tamper, kBits, only(true, IKind::kEsp),
             "esp: corrupt the auth tag (frame must be dropped)"),
  };
  return fields;
}

const std::vector<Field<HostTxSpec>>& host_tx_fields() {
  using T = HostTxSpec;
  static const std::vector<Field<T>> fields = {
      number("at", &T::at, kAlways, "post cycle (event-scheduled)"),
      number("port", &T::port, kAlways, "egress port", {0, kMaxTiles - 1}),
      text("src", &T::src, "source IPv4", "10.0.0.1", kIpv4),
      text("dst", &T::dst,
           "destination IPv4 (WAN prefix -> encrypted on egress)",
           "203.0.113.80", kIpv4),
      number("sport", &T::src_port, kAlways, "UDP source port"),
      number("dport", &T::dst_port, kAlways, "UDP destination port"),
      number("bytes", &T::payload_bytes, kAlways, "payload size"),
  };
  return fields;
}

/// A line-type key: each `key k=v ...` line appends one spec to `list`.
template <typename S>
Field<Scenario> line_type(std::string_view key,
                          std::vector<S> Scenario::*list,
                          const std::vector<Field<S>>& fields,
                          std::string_view doc) {
  Field<Scenario> f = structural(
      key, "<key>=<value> ...", "(none)", doc,
      [list, &fields](Scenario& s, std::string_view v, Lines*,
                      std::string* why) {
        S spec;
        if (!read_tokens(fields, v, &spec, why)) return false;
        (s.*list).push_back(std::move(spec));
        return true;
      },
      [list, &fields](const Scenario& s) {
        std::vector<std::string> out;
        for (const S& spec : s.*list) {
          out.push_back(write_tokens(fields, spec).substr(1));
        }
        return out;
      },
      [key, list, &fields](const Scenario& s, std::string* why) {
        for (std::size_t i = 0; i < (s.*list).size(); ++i) {
          const S& spec = (s.*list)[i];
          std::string reason;
          if (spec.port >= s.eth_ports) {
            reason = "port: expected 0..eth_ports-1 = " +
                     std::to_string(s.eth_ports - 1) + ", got " +
                     std::to_string(spec.port);
          }
          if (!reason.empty() || !check_all(fields, spec, &reason)) {
            return fail(why, std::string(key) + " " + std::to_string(i) +
                                 ": " + reason);
          }
        }
        return true;
      });
  f.line_docs = "\n[" + std::string(key) + "]\n";
  for (const Field<S>& sub : fields) f.line_docs += doc_line(sub);
  return f;
}

// --- Structural top-level keys. ---

Field<Scenario> sched_key() {
  using engines::SchedKind;
  constexpr std::string_view key = "sched";
  // `pifo` is the custom policy, which only the heredoc form spells.
  const std::string opener = "pifo rank=" + std::string(kHeredoc);
  const std::string syntax =
      codec::alternatives<SchedKind>(engines::kSchedKindNames) + " rank=" +
      std::string(kHeredoc) + " ... END";
  return structural(
      key, syntax,
      engines::to_string(Scenario{}.sched_policy.kind),
      "engine queue PIFO rank policy; `pifo rank=<<END` opens a heredoc "
      "holding a custom rank program (engines/rank_program.h)",
      [opener, syntax](Scenario& s, std::string_view v, Lines* lines,
                       std::string* why) {
        if (v == opener) {
          std::string body;
          if (!lines->heredoc(&body)) {
            return fail(why, "missing END terminator");
          }
          // Compile now, so a bad program fails at parse time with the
          // compiler's own "line N: reason" (N into the heredoc).
          std::string error;
          if (!engines::RankProgram::compile(body, &error).has_value()) {
            return fail(why, "rank program " + error);
          }
          s.sched_policy.kind = SchedKind::kCustom;
          s.sched_policy.rank_source = body;
          return true;
        }
        const auto kind =
            codec::value_of<SchedKind>(engines::kSchedKindNames, v);
        if (!kind || *kind == SchedKind::kCustom) {
          return fail(why, "expected " + syntax + ", got '" +
                               std::string(v) + "'");
        }
        s.sched_policy.kind = *kind;
        s.sched_policy.rank_source.clear();
        return true;
      },
      [opener](const Scenario& s) -> std::vector<std::string> {
        if (s.sched_policy.kind != SchedKind::kCustom) {
          return {engines::to_string(s.sched_policy.kind)};
        }
        return {heredoc(opener, s.sched_policy.rank_source)};
      },
      [key](const Scenario& s, std::string* why) {
        std::string error;
        return s.sched_policy.kind != SchedKind::kCustom ||
               engines::RankProgram::compile_spec(s.sched_policy, &error) !=
                   nullptr ||
               fail(why, std::string(key) + ": " + error);
      });
}

/// `<key> <tenant> <value>` lines, at most one per tenant; `entries`
/// maps a scenario to its list.
template <typename Entries>
Field<Scenario> tenant_entries(std::string_view key, Entries entries,
                               Range<std::uint32_t> range, bool sorted,
                               std::string fallback, std::string_view doc) {
  return structural(
      key, "<0..65535> <" + range.text() + ">", std::move(fallback), doc,
      [=](Scenario& s, std::string_view v, Lines*, std::string* why) {
        const std::vector<std::string> tok = split(v);
        std::uint16_t tenant = 0;
        std::uint32_t value = 0;
        if (tok.size() != 2) {
          return fail(why, "expected '<tenant> <value>', got '" +
                               std::string(v) + "'");
        }
        if (!codec::read(tok[0], &tenant, why) ||
            !codec::read(tok[1], &value, why, range)) {
          return false;
        }
        auto& list = entries(s);
        for (const auto& [t, unused] : list) {
          if (t == tenant) return fail(why, "duplicate tenant " + tok[0]);
        }
        list.emplace_back(tenant, value);
        if (sorted) std::sort(list.begin(), list.end());
        return true;
      },
      [=](const Scenario& s) {
        std::vector<std::string> out;
        for (const auto& [tenant, value] : entries(s)) {
          out.push_back(codec::write(tenant) + " " + codec::write(value));
        }
        return out;
      },
      [=](const Scenario& s, std::string* why) {
        for (const auto& [tenant, value] : entries(s)) {
          if (!range.contains(value)) {
            return fail(why, std::string(key) + " " + codec::write(tenant) +
                                 ": expected " + range.text() + ", got " +
                                 codec::write(value));
          }
        }
        return true;
      });
}

/// `rmt_cache off | on | sets=<n> ways=<n>`.
Field<Scenario> rmt_cache_key() {
  using S = Scenario;
  constexpr std::string_view key = "rmt_cache";
  static const std::vector<Field<S>> geometry = {
      number("sets", &S::rmt_cache_sets, kAlways, "", {1, kMaxCacheSets}),
      number("ways", &S::rmt_cache_ways, kAlways, "", {1, kMaxCacheWays}),
  };
  const std::string defaults = write_tokens(geometry, S{});
  std::string syntax = codec::alternatives<bool>(codec::kSwitchNames) + " |";
  for (const Field<S>& f : geometry) {
    syntax += ' ';
    syntax += f.key;
    syntax += '=';
    syntax += f.syntax;
  }
  return structural(
      key, syntax, defaults.substr(1),
      "RMT flow-signature resolution cache (host-time only; rmt.cache.* "
      "metrics)",
      [syntax](S& s, std::string_view v, Lines*, std::string* why) {
        if (const auto on = codec::value_of<bool>(codec::kSwitchNames, v)) {
          s.rmt_cache_enabled = *on;
          return true;
        }
        if (v.find('=') == std::string_view::npos) {
          return fail(why, "expected " + syntax + ", got '" + std::string(v) +
                               "'");
        }
        s.rmt_cache_enabled = true;
        return read_tokens(geometry, v, &s, why);
      },
      [defaults](const S& s) -> std::vector<std::string> {
        const std::string tokens = write_tokens(geometry, s);
        if (!s.rmt_cache_enabled) {
          return {std::string(codec::name_of(codec::kSwitchNames, false))};
        }
        if (tokens == defaults) return {};
        return {tokens.substr(1)};
      },
      [key](const S& s, std::string* why) {
        std::string reason;
        return check_all(geometry, s, &reason) ||
               fail(why, std::string(key) + ": " + reason);
      });
}

Field<Scenario> fault_seed_key() {
  return structural(
      "fault_seed", "0..2^64-1", codec::write(Scenario{}.faults.seed),
      "fault plan seed (printed with a non-empty plan)",
      [](Scenario& s, std::string_view v, Lines*, std::string* why) {
        return codec::read(v, &s.faults.seed, why);
      },
      [](const Scenario& s) -> std::vector<std::string> {
        if (s.faults.empty()) return {};
        return {codec::write(s.faults.seed)};
      });
}

Field<Scenario> fault_key() {
  return structural(
      "fault", "<fault-plan line>", "(none)",
      "fault/fault_plan.h grammar, e.g. 'kill aux0 @15000', 'revive aux0 "
      "@30000 warmup=500', 'spare aux1 for=aux0 @30000'; repeats",
      [](Scenario& s, std::string_view v, Lines*, std::string* why) {
        auto spec = fault::FaultSpec::parse(v, why);
        if (!spec.has_value()) return false;
        s.faults.add(std::move(*spec));
        return true;
      },
      [](const Scenario& s) {
        std::vector<std::string> out;
        for (const fault::FaultSpec& spec : s.faults.faults()) {
          out.push_back(spec.to_string());
        }
        return out;
      });
}

Field<Scenario> program_key() {
  return structural(
      "program", std::string(kHeredoc) + " ... END", "(none)",
      "p4lite stages appended to the default RMT program",
      [](Scenario& s, std::string_view v, Lines* lines, std::string* why) {
        if (v != kHeredoc) {
          return fail(why, "expected '" + std::string(kHeredoc) + "', got '" +
                               std::string(v) + "'");
        }
        std::string body;
        if (!lines->heredoc(&body)) return fail(why, "missing END terminator");
        s.program = body;
        return true;
      },
      [](const Scenario& s) -> std::vector<std::string> {
        if (s.program.empty()) return {};
        return {heredoc(std::string(kHeredoc), s.program)};
      });
}

/// The terminator: Scenario::parse stops at it before any read.
Field<Scenario> end_key() {
  return structural("end", "", "", "mandatory terminator", nullptr,
                    [](const Scenario&) { return std::vector{std::string()}; });
}

// --- The top-level keys, in canonical order. ---

const std::vector<Field<Scenario>>& scenario_fields() {
  using S = Scenario;
  static const std::vector<Field<S>> fields = {
      text("name", &S::name, "scenario label, echoed in result JSON"),
      number("seed", &S::seed, kAlways,
             "generator provenance seed (0 = hand-written)"),
      number("mesh_k", &S::mesh_k, kAlways, "mesh side length (k*k tiles)",
             {2, kMaxMeshK}),
      number("channel_bits", &S::channel_bits, kIfChanged,
             "NoC channel width", {1}),
      number("freq_mhz", &S::freq_mhz, kIfChanged, "core clock frequency",
             {1}),
      number("eth_ports", &S::eth_ports, kAlways, "Ethernet port count",
             {1, kMaxTiles}),
      number("rmt_engines", &S::rmt_engines, kAlways,
             "RMT pipeline engine count", {1, kMaxTiles}),
      number("aux_engines", &S::aux_engines, kAlways,
             "extra pass-through delay engines", {0, kMaxTiles}),
      number("aux_fixed_cycles", &S::aux_fixed_cycles, kIfChanged,
             "aux engine fixed service latency"),
      number("spare_tiles", &S::spare_tiles, kIfChanged,
             "tiles reserved for caller-attached engines", {0, kMaxTiles}),
      choice("routing", &S::routing, noc::kRoutingNames, kIfChanged,
             "NoC routing algorithm (dimension-ordered XY or west-first "
             "turn-model)"),
      sched_key(),
      tenant_entries(
          "weight", [](auto& s) -> auto& { return s.sched_policy.weights; },
          {1}, /*sorted=*/true, "(none; absent tenants = 1)",
          "per-tenant wfq weight `<tenant> <weight>`, read by rank programs "
          "as `weight`; repeats"),
      choice("drop", &S::drop_policy, engines::kDropPolicyNames, kAlways,
             "full-queue drop policy"),
      number("queue_capacity", &S::engine_queue_capacity, kAlways,
             "per-engine queue capacity", {1, kMaxQueueCapacity}),
      number("rmt_input_queue", &S::rmt_input_queue, kAlways,
             "RMT engine input queue capacity", {1, kMaxRmtInputQueue}),
      rmt_cache_key(),
      number("dma_base_latency", &S::dma_base_latency, kIfChanged,
             "DMA fixed service latency"),
      number("dma_bytes_per_cycle", &S::dma_bytes_per_cycle, kIfChanged,
             "DMA payload bandwidth per cycle", kPositive),
      number("dma_contention", &S::dma_contention_mean, kAlways,
             "mean of the DMA contention jitter (0 = none)", {0.0}),
      number("default_slack", &S::default_slack, kAlways,
             "slack for tenants without an explicit entry"),
      number("pool_reserve", &S::pool_reserve, kIfChanged,
             "pre-warm the MessagePool free list to this depth before the "
             "run",
             {0, kMaxPoolReserve}),
      number("warmup", &S::warmup_cycles, kIfChanged,
             "cycles before the measured window"),
      number("budget", &S::budget_cycles, kAlways, "measured cycles", {1}),
      choice("mode", &S::mode, kSimModeNames, kIfChanged,
             "default kernel; panic_run --mode overrides"),
      tenant_entries(
          "slack", [](auto& s) -> auto& { return s.tenant_slacks; }, {},
          /*sorted=*/false, "(none)",
          "per-tenant slack `<tenant> <slack>`; repeats"),
      line_type("workload", &S::workloads, workload_fields(),
                "one open-loop traffic source (keys below); repeats"),
      line_type("inject", &S::injects, inject_fields(),
                "one frame into a port at an exact cycle (keys below); "
                "repeats"),
      line_type("host_tx", &S::host_txs, host_tx_fields(),
                "one host TX frame posted at an exact cycle (keys below); "
                "repeats"),
      choice("on_no_route", &S::on_no_route, fault::kNoRoutePolicyNames,
             kIfChanged,
             "degraded-mode admission when steering has no live route: "
             "drop (fate kFaulted) or bounded parking until a revive/spare "
             "re-opens the route (overflow fate kShed)"),
      number("no_route_depth", &S::no_route_depth, kIfChanged,
             "backpressure parking capacity per steering tile"),
      fault_seed_key(),
      fault_key(),
      program_key(),
      end_key(),
  };
  return fields;
}

}  // namespace

std::string field_reference() {
  std::string out = "\n[scalar]\n";
  for (const Field<Scenario>& f : scenario_fields()) out += doc_line(f);
  for (const Field<Scenario>& f : scenario_fields()) out += f.line_docs;
  return out;
}

bool Scenario::feasible(bool strict_finite, std::string* why) const {
  if (!check_all(scenario_fields(), *this, why)) return false;
  const int tiles = mesh_k * mesh_k;
  const int needed =
      kFixedEngineTiles + eth_ports + rmt_engines + aux_engines + spare_tiles;
  if (needed > tiles) {
    return fail(why, "mesh_k: " + std::to_string(tiles) + " tiles, but " +
                         std::to_string(kFixedEngineTiles) +
                         " fixed engines + eth_ports + rmt_engines + "
                         "aux_engines + spare_tiles need " +
                         std::to_string(needed));
  }
  if (on_no_route == fault::NoRoutePolicy::kBackpressure &&
      no_route_depth == 0) {
    // A zero-depth parking buffer sheds everything.
    return fail(why, "no_route_depth: expected 1..2^64-1 under "
                     "backpressure, got 0");
  }
  for (std::size_t i = 0; strict_finite && i < workloads.size(); ++i) {
    if (workloads[i].max_frames == 0) {
      return fail(why, "workload " + std::to_string(i) +
                           ": frames: unlimited in a run that must end");
    }
  }
  return true;
}

std::uint64_t Scenario::total_frames() const {
  std::uint64_t total = 0;
  for (const WorkloadSpec& w : workloads) total += w.max_frames;
  return total + injects.size() + host_txs.size();
}

core::PanicConfig Scenario::to_config() const {
  core::PanicConfig cfg;
  cfg.mesh.k = mesh_k;
  cfg.mesh.channel_bits = channel_bits;
  cfg.mesh.routing = routing;
  cfg.freq = Frequency::megahertz(freq_mhz);
  cfg.eth_ports = eth_ports;
  cfg.rmt_engines = rmt_engines;
  cfg.aux_engines = aux_engines;
  cfg.spare_tiles = spare_tiles;
  cfg.sched_policy = sched_policy;
  cfg.drop_policy = drop_policy;
  cfg.engine_queue_capacity = engine_queue_capacity;
  cfg.rmt_input_queue = rmt_input_queue;
  cfg.rmt_cache.enabled = rmt_cache_enabled;
  cfg.rmt_cache.sets = rmt_cache_sets;
  cfg.rmt_cache.ways = rmt_cache_ways;
  cfg.aux_fixed_cycles = aux_fixed_cycles;
  cfg.dma.base_latency = dma_base_latency;
  cfg.dma.bytes_per_cycle = dma_bytes_per_cycle;
  cfg.dma.contention_mean = dma_contention_mean;
  cfg.default_slack = default_slack;
  cfg.tenant_slacks = tenant_slacks;
  cfg.faults = faults;
  cfg.on_no_route = on_no_route;
  cfg.no_route_depth = no_route_depth;
  if (!program.empty()) {
    // Compiled against the NIC's actual tile placement once the default
    // program exists.  The full engine namespace is exposed; a compile
    // error aborts the NIC build (PanicNic construction is where every
    // other config error surfaces too).
    const std::string source = program;
    cfg.customize_program = [source](rmt::RmtProgram& prog,
                                     const core::PanicTopology& topo) {
      rmt::SymbolTable symbols = {
          {"dma", topo.dma.value},
          {"pcie", topo.pcie.value},
          {"ipsec_rx", topo.ipsec_rx.value},
          {"ipsec_tx", topo.ipsec_tx.value},
          {"kvs", topo.kvs.value},
          {"rdma", topo.rdma.value},
          {"compression", topo.compression.value},
          {"checksum", topo.checksum.value},
          {"regex", topo.regex.value},
          {"tso", topo.tso.value},
          {"rate_limiter", topo.rate_limiter.value},
      };
      for (std::size_t i = 0; i < topo.eth_ports.size(); ++i) {
        symbols["eth" + std::to_string(i)] = topo.eth_ports[i].value;
      }
      for (std::size_t i = 0; i < topo.aux.size(); ++i) {
        symbols["aux" + std::to_string(i)] = topo.aux[i].value;
      }
      std::string error;
      if (!rmt::append_p4lite_stages(prog, source, symbols, &error)) {
        throw std::runtime_error("scenario program: " + error);
      }
    };
  }
  return cfg;
}


std::string Scenario::to_string() const {
  std::string out = std::string(kHeader) + "\n";
  for (const Field<Scenario>& f : scenario_fields()) {
    const std::vector<std::string> values =
        f.lines ? f.lines(*this)
                : shown(f, *this) ? std::vector{f.value(*this)}
                                  : std::vector<std::string>{};
    for (const std::string& v : values) {
      out += std::string(f.key) + (v.empty() ? "" : " ") + v + "\n";
    }
  }
  return out;
}

std::optional<Scenario> Scenario::parse(const std::string& text,
                                        std::string* error) {
  Lines lines{std::istringstream(text)};
  auto fail_at = [&](int line, const std::string& reason) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line) + ": " + reason;
    }
    return std::nullopt;
  };
  std::string line;
  const bool any = lines.next(&line);
  if (!any || line != kHeader) {
    return fail_at(lines.number, std::string(any ? "expected" : "missing") +
                                     " '" + std::string(kHeader) + "' header");
  }
  Scenario s;
  while (lines.next(&line)) {
    const int at = lines.number;
    const auto space = line.find_first_of(" \t");
    const std::string key = line.substr(0, space);
    const std::string_view value = std::string_view(line).substr(
        std::min(line.size(), line.find_first_not_of(" \t", space)));
    const Field<Scenario>* f = find(scenario_fields(), key);
    if (f == nullptr) return fail_at(at, "unknown key '" + key + "'");
    if (!f->read) return s;  // the `end` terminator
    std::string why;
    if (!f->read(s, value, &lines, &why)) return fail_at(at, key + ": " + why);
  }
  return fail_at(lines.number, "missing 'end' terminator");
}

bool Scenario::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    PANIC_WARN("scenario", "cannot open %s for scenario", path.c_str());
    return false;
  }
  out << to_string();
  return static_cast<bool>(out);
}

std::optional<Scenario> Scenario::load(const std::string& path,
                                       std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str(), error);
}

}  // namespace panic::scenario
