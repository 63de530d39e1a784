#include "expect.hpp"

#include <fstream>
#include <sstream>

namespace perfbench {

bool Expectations::load(const std::string& path, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot open expectation file " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, key, extra;
    std::uint64_t seed = 0;
    double value = 0.0;
    if (!(fields >> workload >> seed >> key >> value) || (fields >> extra)) {
      *err = path + ":" + std::to_string(lineno) + ": malformed line";
      return false;
    }
    if (!table_[{workload, seed}].emplace(key, value).second) {
      *err = path + ":" + std::to_string(lineno) + ": " + key +
             " recorded twice";
      return false;
    }
  }
  return true;
}

const std::map<std::string, double>* Expectations::find(
    const std::string& workload_key, std::uint64_t seed) const {
  auto it = table_.find({workload_key, seed});
  return it == table_.end() ? nullptr : &it->second;
}

}  // namespace perfbench
