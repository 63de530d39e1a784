// Expected virtual-time results, recorded from the seed and checked on
// every run.
//
// File format (perfbench/expected.txt), one value per line:
//   <workload-key> <seed> <result-key> <value>
// where <workload-key> is the workload name, with ".smoke" appended for the
// reduced self-test size. Lines starting with '#' are comments. Values are
// written with %.17g, so a recorded double reads back exactly; the
// benchmark prints them in that form as "result <result-key> <value>".
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// One named virtual-time result of a sub-run (a mode, or the fleet).
struct VirtualResult {
  std::string key;  // "<sub-run>.<quantity>", e.g. "ud_send_recv.goodput_MBps"
  double value = 0.0;
};

class Expectations {
 public:
  /// Parse `path`; on failure returns false and fills `err`.
  bool load(const std::string& path, std::string* err);

  /// Recorded results for one workload size and seed (null when none).
  const std::map<std::string, double>* find(const std::string& workload_key,
                                            std::uint64_t seed) const;

 private:
  std::map<std::pair<std::string, std::uint64_t>,
           std::map<std::string, double>>
      table_;
};

}  // namespace perfbench
