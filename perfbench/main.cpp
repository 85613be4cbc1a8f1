//===- main.cpp - usuba_perfbench entry point -----------------------------===//
//
// Part of the usuba-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// usuba_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                 [--trace-out FILE]
///
/// Runs one workload and prints, as its last line, one JSON object:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
/// The line before it records the workload's parameters and every
/// pinned cipher knob. --trace 0 reports the end-to-end metrics with
/// telemetry off; --trace 1 reports the per-layer metrics and writes
/// the recorded spans to --trace-out. perfbench/run.py builds and
/// drives this binary.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Telemetry.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace perfbench;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload bulk_ctr|svc_shared_key|svc_own_keys "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               Argv0);
  return 2;
}

void printResult(const Result &Res) {
  bool Finite = true;
  std::string Metrics;
  for (const auto &[Name, M] : Res.Metrics) {
    Finite = Finite && std::isfinite(M.Value);
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  Metrics.empty() ? "" : ", ", Name.c_str(),
                  std::isfinite(M.Value) ? M.Value : 0.0, M.Unit.c_str());
    Metrics += Buf;
  }
  const bool Correct = Res.Failed == 0 && Res.Attempted > 0 && Finite;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Res.Attempted),
              static_cast<unsigned long long>(Res.Failed), Metrics.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const char *Flag = Argv[I], *Value = Argv[I + 1];
    if (!std::strcmp(Flag, "--workload"))
      Opts.Workload = Value;
    else if (!std::strcmp(Flag, "--seed"))
      Opts.Seed = std::strtoull(Value, nullptr, 10);
    else if (!std::strcmp(Flag, "--seconds"))
      Opts.Seconds = std::strtod(Value, nullptr);
    else if (!std::strcmp(Flag, "--trace"))
      Opts.Trace = std::strcmp(Value, "0") != 0;
    else if (!std::strcmp(Flag, "--trace-out"))
      Opts.TraceOut = Value;
    else
      return usage(Argv[0]);
  }
  if (Argc % 2 == 0 || !(Opts.Seconds > 0))
    return usage(Argv[0]);

  // End-to-end numbers are measured with telemetry off; traced runs
  // switch it on only around what they attribute.
  usuba::Telemetry::instance().setEnabled(false);

  Result Res;
  if (Opts.Workload == "bulk_ctr")
    Res = runBulkCtr(Opts);
  else if (Opts.Workload == "svc_shared_key")
    Res = runService(Opts, /*OwnKeys=*/false);
  else if (Opts.Workload == "svc_own_keys")
    Res = runService(Opts, /*OwnKeys=*/true);
  else
    return usage(Argv[0]);

  if (Opts.Trace && !Opts.TraceOut.empty() &&
      !Tracer::instance().write(Opts.TraceOut))
    std::fprintf(stderr, "cannot write %s\n", Opts.TraceOut.c_str());
  std::printf("%s\n", Res.ConfigJson.empty() ? "{}" : Res.ConfigJson.c_str());
  printResult(Res);
  std::fflush(stdout);
  return 0;
}
