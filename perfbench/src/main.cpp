// remo_perfbench: runs one benchmark workload and prints its raw result
// (samples, exact counts, checks, spans) as one JSON line on stdout.
// perfbench/run.py builds this binary and turns the raw result into the
// benchmark's metrics.
//
//   remo_perfbench --workload plan-cold --seed 1 --seconds 10 --trace 0
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/simd.h"
#include "harness.h"
#include "obs/metrics.h"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "remo_perfbench: %s\nusage: remo_perfbench --workload "
               "<plan-cold|churn-federated|ingest-steady> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               msg);
  std::exit(2);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "0") != 0;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) usage("arguments come in --key value pairs");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");

  // obs defaults to on; end-to-end runs measure with it off, and traced
  // runs switch it on only inside their ledger segments.
  remo::obs::set_enabled(false);

  perfbench::Result result;
  result.info("workload", args.workload);
  result.info("seed", static_cast<double>(args.seed));
  result.info("seconds", args.seconds);
  result.info("trace", args.trace ? 1.0 : 0.0);
  result.info("nproc", static_cast<double>(perfbench::hardware_threads()));
  result.info("compiler", compiler());
  result.info("build_type", PERFBENCH_BUILD_TYPE);
  // REMO_SIMD=ON builds for AVX2, which is what compiled_with_avx2() reports.
  result.info("remo_simd", remo::simd::compiled_with_avx2() ? "ON" : "OFF");
  result.info("simd_avx2_kernels",
              remo::simd::compiled_with_avx2() && remo::simd::enabled() ? "on" : "off");

  if (args.workload == "plan-cold") {
    perfbench::run_plan_cold(args, result);
  } else if (args.workload == "churn-federated") {
    perfbench::run_churn_federated(args, result);
  } else if (args.workload == "ingest-steady") {
    perfbench::run_ingest_steady(args, result);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }
  std::cout << result.to_json() << '\n';
  return 0;
}
