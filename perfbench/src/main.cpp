// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end metrics; with --trace 1 they are the per-layer
// metrics of a traced run, whose spans are written to <dir>. Lines
// before it carry the build, the simulated fingerprint and every
// percentile's sample count. Exits 1 when any result differs from its
// host reference or any call fails, 2 on bad arguments.
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  using namespace perfbench;
  options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  outcome out;
  std::string error;
  try {
    if (opt.workload == "runtime_tenants") {
      out = run_runtime_tenants(opt);
    } else if (opt.workload == "query_scan") {
      out = run_query_scan(opt);
    } else if (opt.workload == "service_io_loopback") {
      out = run_service_io_loopback(opt);
    } else {
      std::cerr << "perfbench: unknown workload " << opt.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    error = e.what();
    ++out.failed;
    ++out.attempted;
  }

  const std::uint64_t bad = out.failed + out.mismatched;
  const double failed_pct =
      out.attempted == 0 ? 100.0
                         : 100.0 * static_cast<double>(bad) /
                               static_cast<double>(out.attempted);
  if (opt.trace) {
    out.metrics.push_back({"failed_pct", failed_pct, "%"});
  } else {
    out.metrics.push_back({"peak_rss_mb", out.peak_rss_mb, "MiB"});
  }

  const std::string env = "{\"nproc\":" +
                          std::to_string(std::thread::hardware_concurrency()) +
                          ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"" +
                          ",\"workload\":\"" + opt.workload +
                          "\",\"seed\":" + std::to_string(opt.seed) +
                          ",\"trace\":" + (opt.trace ? "1" : "0") + "}";
  std::ostringstream metrics;
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const metric& m = out.metrics[i];
    metrics << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
            << format_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  const bool correct = error.empty() && bad == 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.attempted) +
      ", \"failed\": " + std::to_string(bad) + ", \"metrics\": {" +
      metrics.str() + "}}";

  std::ofstream record(opt.out_dir + "/" + opt.workload + "-seed" +
                       std::to_string(opt.seed) + "-trace" +
                       (opt.trace ? "1" : "0") + ".json");
  record << "{\"env\": " << env
         << ", \"fingerprint\": " << out.print.to_json()
         << ", \"result\": " << result << "}\n";

  std::cout << "env " << env << "\n";
  std::cout << "fingerprint " << out.print.to_json() << "\n";
  for (const std::string& note : out.notes) std::cout << note << "\n";
  if (!error.empty()) std::cout << "error: " << error << "\n";
  if (out.mismatched > 0) {
    std::cout << "mismatch: " << out.mismatched
              << " results differ from the host reference\n";
  }
  std::cout << result << std::endl;
  return correct ? 0 : 1;
}
