// perfbench: one workload, one seed, one JSON line of results.
//
//   perfbench --workload <eos_read|table_update|cluster_coll|ckpt_spill>
//             --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-expected]
//             [--span-file PATH] [--work-dir DIR]
//
// Prints a single JSON object: the host/build stamp, every metric that
// applies (end-to-end metrics untraced, per-layer metrics traced), the
// names of those that do not, and every output check. Exits 1 when a
// check failed or the workload threw, 2 on bad arguments.
#include <cpuid.h>
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string features() {
  const std::pair<const char*, int> f[] = {
      {"OBS", HLSMPC_OBS_ENABLED},
      {"COLL_SHM", HLSMPC_COLL_SHM_ENABLED},
      {"COLL_PIPELINE", HLSMPC_COLL_PIPELINE_ENABLED},
      {"RMA", HLSMPC_RMA_ENABLED},
      {"TCP", HLSMPC_TCP_ENABLED},
      {"RECOVERY", HLSMPC_RECOVERY_ENABLED},
      {"STORAGE_TIER", HLSMPC_STORAGE_TIER_ENABLED},
  };
  std::string s;
  for (const auto& [name, on] : f) {
    if (!s.empty()) s += ' ';
    s += name;
    s += on != 0 ? "=1" : "=0";
  }
  return s;
}

std::map<std::string, std::string> stamp(const Args& a) {
  return {
      {"nproc", std::to_string(nproc())},
      {"cpu_model", cpu_model()},
      {"kernel_threads_max", std::to_string(a.max_threads)},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"cxx_flags", PERFBENCH_CXX_FLAGS},
      {"compiler", PERFBENCH_COMPILER},
      {"features", features()},
      {"workload", a.workload},
      {"seed", std::to_string(a.seed)},
      {"trace", a.trace ? "1" : "0"},
      {"tiny", a.tiny ? "1" : "0"},
  };
}

std::string json_map(const std::map<std::string, std::string>& m) {
  std::string o = "{";
  for (const auto& [k, v] : m) {
    if (o.size() > 1) o += ',';
    o += json_str(k);
    o += ':';
    o += json_str(v);
  }
  return o + "}";
}

std::string json_result(const Args& a, const Result& r, std::size_t attempted,
                        std::size_t failed) {
  std::string o = "{\"stamp\":" + json_map(stamp(a)) + ",\"metrics\":{";
  const char* sep = "";
  for (const auto& [name, m] : r.metrics) {
    o += sep;
    o += json_str(name);
    o += ":{\"value\":" + json_num(m.value) + ",\"unit\":" + json_str(m.unit);
    o += '}';
    sep = ",";
  }
  o += "},\"not_applicable\":[";
  sep = "";
  for (const std::string& n : r.not_applicable) {
    o += sep;
    o += json_str(n);
    sep = ",";
  }
  o += "],\"checks\":[";
  sep = "";
  for (const auto& c : r.checks) {
    o += sep;
    o += "{\"name\":" + json_str(c.name);
    o += c.ok ? ",\"ok\":true" : ",\"ok\":false";
    o += ",\"detail\":" + json_str(c.detail) + "}";
    sep = ",";
  }
  o += "],\"attempted\":" + std::to_string(attempted);
  o += ",\"failed\":" + std::to_string(failed);
  o += ",\"info\":" + json_map(r.info) + "}";
  return o;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--corrupt-expected] "
               "[--span-file PATH] [--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  a.max_threads = std::min(4, nproc());
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (k == "--tiny") {
        a.tiny = true;
      } else if (k == "--corrupt-expected") {
        a.corrupt_expected = true;
      } else if (!has_value) {
        return usage(("missing value for " + k).c_str());
      } else if (k == "--workload") {
        a.workload = argv[++i];
      } else if (k == "--seed") {
        a.seed = std::stoull(argv[++i]);
      } else if (k == "--seconds") {
        a.seconds = std::stod(argv[++i]);
      } else if (k == "--trace") {
        a.trace = std::string(argv[++i]) == "1";
      } else if (k == "--span-file") {
        a.span_file = argv[++i];
      } else if (k == "--work-dir") {
        a.work_dir = argv[++i];
      } else {
        return usage(("unknown argument " + k).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + k).c_str());
    }
  }
  Result (*run)(const Args&) = nullptr;
  if (a.workload == "eos_read") run = run_eos_read;
  if (a.workload == "table_update") run = run_table_update;
  if (a.workload == "cluster_coll") run = run_cluster_coll;
  if (a.workload == "ckpt_spill") run = run_ckpt_spill;
  if (run == nullptr) return usage("unknown workload");
  if (!(a.seconds > 0)) return usage("--seconds must be positive");

  Result r;
  try {
    r = run(a);
  } catch (const std::exception& e) {
    // An exception counts as one failed check.
    r.check("no_exception", false, e.what());
  }
  std::size_t failed = 0;
  for (const auto& c : r.checks) failed += c.ok ? 0 : 1;
  const std::size_t attempted = std::max<std::size_t>(r.checks.size(), 1);
  r.set("error_rate", static_cast<double>(failed) / attempted, "fraction");

  std::printf("%s\n", json_result(a, r, attempted, failed).c_str());
  return failed == 0 ? 0 : 1;
}
