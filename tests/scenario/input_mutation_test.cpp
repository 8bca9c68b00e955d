// Deterministic input mutation over the checked-in scenario corpus (every
// `.scenario` and `.panic` file under examples/, bench/,
// perfbench/workloads/, tests/scenario/ and tests/proptest/replays/).
//
// Each number-like token of each file is replaced in turn by each hostile
// spelling in kMutations.  A mutant must either fail to parse with
// "line N: ...", or parse to a canonical fixpoint.  A feasible fixpoint
// must build its NIC, or fail the build exactly as the unmutated file does
// (tests/scenario/unknown_fault_target.scenario names an engine the NIC
// lacks), or fail with a `scenario program:` compile error (a mutated
// p4lite heredoc).  Any other exception — std::bad_alloc included — fails
// the test, and the sanitizer CI job runs it under ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace panic::scenario {
namespace {

namespace fs = std::filesystem;

const char* const kMutations[] = {
    "-1", "0", "4x", "nan", "inf", "1e400", "18446744073709551616", "0x10",
    ""};

std::vector<std::string> corpus() {
  std::vector<std::string> files;
  for (const char* dir : {"examples", "bench", "perfbench/workloads",
                          "tests/scenario", "tests/proptest/replays"}) {
    for (const auto& entry :
         fs::directory_iterator(fs::path(PANIC_SOURCE_DIR) / dir)) {
      const fs::path ext = entry.path().extension();
      if (ext == ".scenario" || ext == ".panic") {
        files.push_back(entry.path().string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// [begin, end) of every number-like token outside `#` comment lines: a
/// run of digits and dots that starts with a digit and is not part of a
/// name (aux0, eth1, mesh4_saturated).
std::vector<std::pair<std::size_t, std::size_t>> number_tokens(
    const std::string& text) {
  auto name_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
  };
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t line = 0;
  while (line < text.size()) {
    const std::size_t eol = std::min(text.find('\n', line), text.size());
    const std::size_t first = text.find_first_not_of(" \t", line);
    if (first < eol && text[first] != '#') {
      for (std::size_t i = line; i < eol; ++i) {
        if (!std::isdigit(static_cast<unsigned char>(text[i])) ||
            (i > line && name_char(text[i - 1]))) {
          continue;
        }
        std::size_t end = i;
        while (end < eol && (std::isdigit(static_cast<unsigned char>(
                                 text[end])) ||
                             text[end] == '.')) {
          ++end;
        }
        out.emplace_back(i, end);
        i = end;
      }
    }
    line = eol + 1;
  }
  return out;
}

/// "" when the NIC builds, else the reason it does not.
std::string build(const Scenario& s) {
  try {
    ScenarioRun run(s);
    return "";
  } catch (const std::runtime_error& e) {
    return e.what();
  }
}

bool names_a_line(const std::string& error) {
  if (error.rfind("line ", 0) != 0) return false;
  std::size_t i = 5;
  while (i < error.size() &&
         std::isdigit(static_cast<unsigned char>(error[i]))) {
    ++i;
  }
  return i > 5 && error.compare(i, 2, ": ") == 0;
}

class InputMutation : public ::testing::TestWithParam<std::string> {};

TEST_P(InputMutation, EveryMutantFailsOnALineOrBuilds) {
  std::ifstream in(GetParam());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::string error;
  const auto original = Scenario::parse(text, &error);
  ASSERT_TRUE(original.has_value()) << error;
  const std::string original_build = build(*original);

  const auto tokens = number_tokens(text);
  ASSERT_FALSE(tokens.empty());
  int rejected = 0;
  int built = 0;
  for (const auto& [begin, end] : tokens) {
    for (const char* mutation : kMutations) {
      const std::string mutant =
          text.substr(0, begin) + mutation + text.substr(end);
      const std::string where = "'" + text.substr(begin, end - begin) +
                                "' -> '" + mutation + "' at offset " +
                                std::to_string(begin);
      const auto parsed = Scenario::parse(mutant, &error);
      if (!parsed.has_value()) {
        EXPECT_TRUE(names_a_line(error)) << where << ": " << error;
        ++rejected;
        continue;
      }
      const std::string canonical = parsed->to_string();
      const auto again = Scenario::parse(canonical, &error);
      ASSERT_TRUE(again.has_value()) << where << ": " << error;
      EXPECT_EQ(again->to_string(), canonical) << where;
      if (!again->feasible()) continue;
      const std::string outcome = build(*again);
      EXPECT_TRUE(outcome.empty() || outcome == original_build ||
                  outcome.rfind("scenario program: ", 0) == 0)
          << where << ": " << outcome;
      built += outcome.empty() ? 1 : 0;
    }
  }
  std::printf("%zu tokens, %zu mutants: %d rejected on a line, %d built\n",
              tokens.size(), tokens.size() * std::size(kMutations), rejected,
              built);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, InputMutation, ::testing::ValuesIn(corpus()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = fs::path(info.param).filename().string();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace panic::scenario
