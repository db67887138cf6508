// Range-edge cases for the numeric scenario options, shared by the sweep-axis
// tests and the runner's CLI/sweep parity test: each numeric row's range ends,
// values just outside them, and a fractional value for integer rows.

#ifndef TESTS_HARNESS_OPTION_RANGE_CASES_H_
#define TESTS_HARNESS_OPTION_RANGE_CASES_H_

#include <string>
#include <vector>

namespace bullet {

struct OptionRangeCases {
  const char* key;
  std::vector<std::string> accepted;
  std::vector<std::string> rejected;
};

inline const std::vector<OptionRangeCases> kOptionRangeCases = {
    {"nodes", {"2", "1000000"}, {"1", "1000001", "2.5"}},
    {"file-mb", {"0.001", "1e6"}, {"0", "-0.001"}},
    {"seed", {"0", "18446744073709551615"}, {"-1", "1.5"}},
    {"block-bytes", {"512", "1073741824"}, {"511", "512.5", "1073741825", "1e19"}},
    {"deadline-sec", {"0.001"}, {"0"}},
    {"join-fraction", {"0", "1"}, {"-0.001", "1.001"}},
    {"loss", {"0", "1"}, {"-0.001", "1.001"}},
    {"lifetime-pareto-alpha", {"0.001"}, {"0"}},
    {"stream-bitrate-mbps", {"0.001"}, {"0"}},
    {"stream-window-blocks", {"1", "1000000"}, {"0", "1000001", "1.5"}},
    {"threads", {"1", "64"}, {"0", "65", "1.5"}},
};

}  // namespace bullet

#endif  // TESTS_HARNESS_OPTION_RANGE_CASES_H_
