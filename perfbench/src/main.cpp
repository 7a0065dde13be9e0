// afdx_perfbench -- the repository benchmark (see ../README.md).
//
//   afdx_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--net-seed <n>] [--scale full|small] [--perturb <check>]
//                  [--git-sha <sha>]
//
// --seed is the run seed (VL declaration order, what-if request stream);
// --net-seed picks the generated network, by default the workload's own.
//
// Prints a host/build stamp line, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: every
// end-to-end metric with --trace 0, every per-layer metric with --trace 1.
// Exits 1 when an output check fails (the result line still says which
// run it was, with "correct": false), 2 on a usage error.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "harness.hpp"
#include "trajectory/sweep.hpp"

namespace {

using namespace afdx::perfbench;

struct WorkloadDef {
  void (*run)(const Context&, Outcome&);
  /// Network generator seed used when --net-seed is absent, and the
  /// held-out seed kept for confirming a claim on a network nobody tuned
  /// against.
  std::uint64_t default_net_seed;
  std::uint64_t held_out_net_seed;
};

const std::map<std::string, WorkloadDef>& workloads() {
  static const std::map<std::string, WorkloadDef> defs = {
      {"full_analysis", {&run_full_analysis, 42, 4242}},
      {"whatif_local", {&run_whatif_local, 1, 707}},
      {"fault_sweep", {&run_fault_sweep, 42, 4242}},
      {"ladder_budget", {&run_ladder_budget, 42, 4242}},
  };
  return defs;
}

int usage(const std::string& why) {
  std::cerr << "afdx_perfbench: " << why
            << "\nusage: afdx_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--net-seed <n>] "
               "[--scale full|small] [--perturb <check>] [--git-sha <sha>]\n"
               "workloads (default / held-out network seed):\n";
  for (const auto& [name, def] : workloads()) {
    std::cerr << "  " << name << " (" << def.default_net_seed << " / "
              << def.held_out_net_seed << ")\n";
  }
  return 2;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string isa() {
  std::string s = "x86-64";
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) s += "+avx2";
  if (__builtin_cpu_supports("avx512f")) s += "+avx512f";
  return s;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  // Failed requests carry +infinity latency; JSON has no infinity, so a
  // percentile landing on one prints as this sentinel (and "failed" > 0).
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  ctx.seed = 1;
  std::string net_seed_arg;
  std::string git_sha = "unavailable";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        ctx.workload = val;
      } else if (arg == "--seed") {
        ctx.seed = std::stoull(val);
      } else if (arg == "--net-seed") {
        net_seed_arg = val;
        ctx.net_seed = std::stoull(val);
      } else if (arg == "--seconds") {
        ctx.seconds = std::stod(val);
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        ctx.trace = val == "1";
      } else if (arg == "--scale") {
        if (val != "full" && val != "small") {
          return usage("--scale takes full or small");
        }
        ctx.small = val == "small";
      } else if (arg == "--perturb") {
        ctx.perturb = val;
      } else if (arg == "--git-sha") {
        git_sha = val;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + val);
    }
  }
  const auto it = workloads().find(ctx.workload);
  if (it == workloads().end()) return usage("unknown workload '" + ctx.workload + "'");
  if (!(ctx.seconds > 0.0)) return usage("--seconds must be positive");
  if (net_seed_arg.empty()) ctx.net_seed = it->second.default_net_seed;

  const int nproc = online_cpus();
  ctx.threads = std::min(4, nproc);

  const auto kind = afdx::trajectory::sweep::active();
  std::cout << "{\"host\":{\"cpu\":" << json_string(cpu_model())
            << ",\"nproc\":" << nproc << ",\"threads\":" << ctx.threads
            << ",\"isa\":" << json_string(isa())
            << ",\"sweep_kernel\":" << json_string(afdx::trajectory::sweep::name(kind))
            << ",\"compiler\":" << json_string(AFDX_PERFBENCH_COMPILER)
            << ",\"build_type\":" << json_string(AFDX_PERFBENCH_BUILD_TYPE)
            << ",\"git_sha\":" << json_string(git_sha)
            << "},\"run\":{\"workload\":" << json_string(ctx.workload)
            << ",\"seed\":" << ctx.seed
            << ",\"net_seed\":" << ctx.net_seed
            << ",\"default_net_seed\":" << it->second.default_net_seed
            << ",\"held_out_net_seed\":" << it->second.held_out_net_seed
            << ",\"seconds\":" << json_number(ctx.seconds)
            << ",\"trace\":" << (ctx.trace ? 1 : 0)
            << ",\"scale\":" << json_string(ctx.small ? "small" : "full")
            << "}}" << std::endl;

  Outcome out;
  try {
    it->second.run(ctx, out);
  } catch (const std::exception& e) {
    std::cerr << "afdx_perfbench: " << ctx.workload << " failed: " << e.what()
              << "\n";
    return 3;
  }

  const double failed_frac =
      out.attempted() == 0 ? 1.0
                           : static_cast<double>(out.failed()) /
                                 static_cast<double>(out.attempted());
  if (ctx.trace) out.metric("failed_frac", failed_frac);

  // Every catalogued metric of this run's kind must be present: an
  // end-to-end metric a workload forgot is a benchmark bug; a per-layer
  // metric of a layer the workload does not run is 0 by definition.
  const auto& specs = ctx.trace ? per_layer_specs() : end_to_end_specs();
  std::string line = "{\"correct\": ";
  line += out.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted());
  line += ", \"failed\": " + std::to_string(out.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    double value = 0.0;
    bool found = false;
    for (const Metric& m : out.metrics()) {
      if (m.name == spec.name) {
        value = m.value;
        found = true;
      }
    }
    if (!found && !ctx.trace) {
      std::cerr << "afdx_perfbench: " << ctx.workload
                << " did not measure end-to-end metric " << spec.name << "\n";
      return 3;
    }
    if (!first) line += ", ";
    first = false;
    line += json_string(spec.name) + ": {\"value\": " + json_number(value) +
            ", \"unit\": " + json_string(spec.unit) + "}";
  }
  line += "}}";

  for (const std::string& f : out.failures()) {
    std::cerr << "check failed: " << f << "\n";
  }
  std::cout << line << std::endl;
  return out.correct() ? 0 : 1;
}
