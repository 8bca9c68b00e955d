#include "fault/fault_plan.h"

#include <limits>
#include <sstream>

#include "common/codec.h"

namespace panic::fault {

namespace {

constexpr codec::Name<FaultKind> kKindNames[] = {
    {FaultKind::kEngineDeath, "kill"},    {FaultKind::kEngineStall, "stall"},
    {FaultKind::kEngineDegrade, "degrade"}, {FaultKind::kLinkFlaky, "flaky"},
    {FaultKind::kCorruption, "corrupt"},  {FaultKind::kCreditLeak, "leak"},
    {FaultKind::kEngineRevive, "revive"}, {FaultKind::kSpareActivate, "spare"},
};

/// Router input ports; the first spelling of each is the printed one.
constexpr codec::Name<int> kPortNames[] = {
    {0, "n"},     {1, "e"},    {2, "s"},     {3, "w"},    {4, "local"},
    {0, "north"}, {1, "east"}, {2, "south"}, {3, "west"}, {4, "l"},
};

}  // namespace

std::string FaultSpec::to_string() const {
  std::string out = std::string(codec::name_of(kKindNames, kind)) + " ";
  if (kind == FaultKind::kLinkFlaky || kind == FaultKind::kCreditLeak) {
    out += codec::write(router_tile);
    if (port >= 0) {
      out += " port=" + std::string(codec::name_of(kPortNames, port));
    }
  } else {
    out += engine;
  }
  out += " @" + codec::write(at);
  const std::string for_text =
      duration > 0 ? " for=" + codec::write(duration) : "";
  switch (kind) {
    case FaultKind::kEngineDeath:
      if (!fallback.empty()) out += " fallback=" + fallback;
      break;
    case FaultKind::kEngineStall:
      out += " for=" + codec::write(duration);
      break;
    case FaultKind::kEngineDegrade:
      out += " x=" + codec::write(factor) + for_text;
      break;
    case FaultKind::kLinkFlaky:
      out += " p=" + codec::write(probability) +
             " delay=" + codec::write(delay) + for_text;
      break;
    case FaultKind::kCorruption:
      out += " p=" + codec::write(probability) + for_text;
      break;
    case FaultKind::kCreditLeak:
      out += " credits=" + codec::write(amount);
      break;
    case FaultKind::kEngineRevive:
      if (warmup > 0) out += " warmup=" + codec::write(warmup);
      break;
    case FaultKind::kSpareActivate:
      out += " for=" + spare_for;
      break;
  }
  return out;
}

std::optional<FaultSpec> FaultSpec::parse(std::string_view line,
                                          std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<FaultSpec> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  std::istringstream toks{std::string(line.substr(0, line.find('#')))};
  std::vector<std::string> tok;
  for (std::string t; toks >> t;) tok.push_back(std::move(t));
  if (tok.empty()) return fail("missing fault kind");

  FaultSpec spec;
  const auto kind = codec::value_of<FaultKind>(kKindNames, tok[0]);
  if (!kind) return fail("unknown fault kind '" + tok[0] + "'");
  spec.kind = *kind;
  if (tok.size() < 2) return fail("missing target");

  if (spec.kind == FaultKind::kLinkFlaky ||
      spec.kind == FaultKind::kCreditLeak) {
    if (!codec::read(tok[1], &spec.router_tile, nullptr,
                     {0, std::numeric_limits<int>::max()})) {
      return fail("router target must be a tile id");
    }
  } else {
    spec.engine = tok[1];
  }

  bool saw_at = false;
  for (std::size_t i = 2; i < tok.size(); ++i) {
    const std::string& t = tok[i];
    // "@<cycle>" or "key=value".
    const std::size_t eq = t[0] == '@' ? 0 : t.find('=');
    const std::string key = t[0] == '@' ? "@" : t.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : t.substr(eq + 1);
    std::string why;
    bool ok = true;
    if (key == "@") {
      ok = codec::read(value, &spec.at, &why);
      saw_at = true;
    } else if (eq == std::string::npos) {
      return fail("unknown token '" + t + "'");
    } else if (key == "for" && spec.kind == FaultKind::kSpareActivate) {
      spec.spare_for = value;  // an engine name, not a duration
    } else if (key == "for") {
      ok = codec::read(value, &spec.duration, &why);
    } else if (key == "warmup") {
      ok = codec::read(value, &spec.warmup, &why);
    } else if (key == "x") {
      ok = codec::read(value, &spec.factor, &why,
                       {0.0, std::numeric_limits<double>::max(), true});
    } else if (key == "p") {
      ok = codec::read(value, &spec.probability, &why, {0.0, 1.0});
    } else if (key == "delay") {
      ok = codec::read(value, &spec.delay, &why);
    } else if (key == "credits") {
      ok = codec::read(value, &spec.amount, &why);
    } else if (key == "fallback") {
      spec.fallback = value;
    } else if (key == "port") {
      const auto port = codec::value_of<int>(kPortNames, value);
      if (!port) return fail("bad port in " + t);
      spec.port = *port;
    } else {
      return fail("unknown token '" + t + "'");
    }
    if (!ok) return fail("bad " + t + ": " + why);
  }
  if (!saw_at) return fail("missing @<cycle>");
  if (spec.kind == FaultKind::kEngineStall && spec.duration == 0) {
    return fail("stall requires for=<cycles>");
  }
  if (spec.kind == FaultKind::kCreditLeak && spec.amount == 0) {
    return fail("leak requires credits=<n>");
  }
  if (spec.kind == FaultKind::kSpareActivate && spec.spare_for.empty()) {
    return fail("spare requires for=<dead_engine>");
  }
  return spec;
}

FaultPlan& FaultPlan::kill(std::string engine, Cycle at, std::string fb) {
  FaultSpec s;
  s.kind = FaultKind::kEngineDeath;
  s.engine = std::move(engine);
  s.at = at;
  s.fallback = std::move(fb);
  add(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::stall(std::string engine, Cycle at, Cycles duration) {
  FaultSpec s;
  s.kind = FaultKind::kEngineStall;
  s.engine = std::move(engine);
  s.at = at;
  s.duration = duration;
  add(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::degrade(std::string engine, Cycle at, double factor,
                              Cycles duration) {
  FaultSpec s;
  s.kind = FaultKind::kEngineDegrade;
  s.engine = std::move(engine);
  s.at = at;
  s.factor = factor;
  s.duration = duration;
  add(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::flaky_link(int router_tile, int port, Cycle at,
                                 double probability, Cycles delay,
                                 Cycles duration) {
  FaultSpec s;
  s.kind = FaultKind::kLinkFlaky;
  s.router_tile = router_tile;
  s.port = port;
  s.at = at;
  s.probability = probability;
  s.delay = delay;
  s.duration = duration;
  add(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::corrupt(std::string engine, Cycle at, double probability,
                              Cycles duration) {
  FaultSpec s;
  s.kind = FaultKind::kCorruption;
  s.engine = std::move(engine);
  s.at = at;
  s.probability = probability;
  s.duration = duration;
  add(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::leak_credits(int router_tile, int port, Cycle at,
                                   std::uint32_t amount) {
  FaultSpec s;
  s.kind = FaultKind::kCreditLeak;
  s.router_tile = router_tile;
  s.port = port;
  s.at = at;
  s.amount = amount;
  add(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::revive(std::string engine, Cycle at, Cycles warmup) {
  FaultSpec s;
  s.kind = FaultKind::kEngineRevive;
  s.engine = std::move(engine);
  s.at = at;
  s.warmup = warmup;
  add(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::spare(std::string engine, std::string dead_engine,
                            Cycle at) {
  FaultSpec s;
  s.kind = FaultKind::kSpareActivate;
  s.engine = std::move(engine);
  s.spare_for = std::move(dead_engine);
  s.at = at;
  add(std::move(s));
  return *this;
}

}  // namespace panic::fault
