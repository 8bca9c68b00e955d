#include "common/cli.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/rng.h"

namespace panic::cli {

ArgParser::ArgParser(std::string program, std::string synopsis)
    : program_(std::move(program)), synopsis_(std::move(synopsis)) {}

void ArgParser::add(std::string_view name, std::string_view doc,
                    bool takes_value, Setter set) {
  specs_.push_back(
      Spec{std::string(name), std::string(doc), takes_value, std::move(set)});
}

void ArgParser::flag(std::string_view name, std::string_view doc, bool* out) {
  add(name, doc, false, [out](const char*, std::string*) {
    *out = true;
    return true;
  });
}
void ArgParser::option(std::string_view name, std::string_view doc,
                       std::string* out) {
  add(name, doc, true, [out](const char* value, std::string*) {
    *out = value;
    return true;
  });
}

std::string ArgParser::usage() const {
  std::string out = "usage: " + program_ +
                    " [flags] [file ...]\n  " + synopsis_ +
                    "\n\nflags:\n";
  auto line = [&out](const char* flag, const char* doc) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  %-22s %s\n", flag, doc);
    out += buf;
  };
  line("--seed <n>", "global simulation seed (decimal or 0x-hex)");
  line("--mode <m>", "kernel: dense | event");
  line("--help", "print this message and exit");
  for (const Spec& s : specs_) {
    const std::string flag =
        "--" + s.name + (s.takes_value ? " <v>" : "");
    line(flag.c_str(), s.doc.c_str());
  }
  return out;
}

void ArgParser::fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), message.c_str(),
               usage().c_str());
  std::exit(2);
}

void ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      // Bare token: a positional.  A leading '-' without '--' is a typo
      // worth rejecting, and so is key=value — no binary takes settings
      // that way, so accepting one would silently ignore it.
      if (arg[0] == '-' && arg[1] != '\0') {
        fail(std::string("unknown argument '") + arg +
             "' (flags are spelled --name)");
      }
      const char* eq = std::strchr(arg, '=');
      if (eq != nullptr && eq != arg) {
        fail(std::string("unexpected argument '") + arg + "'");
      }
      positionals_.emplace_back(arg);
      continue;
    }
    // "--name" or "--name=value".
    std::string name = arg + 2;
    const char* inline_value = nullptr;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = arg + 2 + eq + 1;
      name.resize(eq);
    }
    // Consumes the flag's value: inline (--name=v) or the next token.
    auto take_value = [&]() -> const char* {
      if (inline_value != nullptr) return inline_value;
      if (i + 1 >= argc) fail("--" + name + " expects a value");
      return argv[++i];
    };

    if (name == "help") {
      std::fputs(usage().c_str(), stdout);
      std::exit(0);
    }
    if (name == "seed") {
      std::uint64_t v = 0;
      std::string why;
      if (!codec::read(take_value(), &v, &why, {}, /*hex=*/true)) {
        fail("--seed: " + why);
      }
      set_sim_seed(v);
      seed_given_ = true;
      continue;
    }
    if (name == "mode") {
      const char* value = take_value();
      const auto mode = codec::value_of<SimMode>(kSimModeNames, value);
      if (!mode) {
        fail(std::string("--mode expects dense|event, got '") +
             value + "'");
      }
      mode_ = *mode;
      mode_given_ = true;
      set_sim_mode(*mode);
      continue;
    }
    const Spec* match = nullptr;
    for (const Spec& s : specs_) {
      if (s.name == name) {
        match = &s;
        break;
      }
    }
    if (match == nullptr) fail("unknown flag --" + name);
    if (!match->takes_value) {
      if (inline_value != nullptr) fail("--" + name + " takes no value");
      match->set(nullptr, nullptr);
      continue;
    }
    std::string why;
    if (!match->set(take_value(), &why)) fail("--" + name + ": " + why);
  }
  seed_ = sim_seed();
}

SimMode ArgParser::sim_mode(SimMode fallback) const {
  if (mode_given_) return mode_;
  return requested_sim_mode(fallback);
}

}  // namespace panic::cli
