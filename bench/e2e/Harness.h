//===- bench/e2e/Harness.h - End-to-end benchmark harness -------*- C++ -*-===//
//
// Part of the Bamboo reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the end-to-end benchmark (bench/e2e/README.md): run
/// options, clocks, the span recorder behind the traced run, the
/// tree-walking oracle, and the report every workload fills in.
///
/// The harness only calls the repository's public functions. Everything it
/// attributes to a layer is timed from outside, around those calls.
///
//===----------------------------------------------------------------------===//

#ifndef BAMBOO_BENCH_E2E_HARNESS_H
#define BAMBOO_BENCH_E2E_HARNESS_H

#include "runtime/BoundProgram.h"
#include "vm/Vm.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace bamboo::e2e {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  /// Length of the measured window: BENCHMARK.json's run_seconds, or
  /// 1.5 s in smoke mode.
  double Seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool Traced = false;
  /// How often the untraced run repeats its setup to time it.
  int SetupReps = 5;
  /// Directory of the DSL example apps.
  std::string AppsDir;
};

/// Prints a harness error and exits with code 2, before any result line.
[[noreturn]] void die(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

int64_t wallNs();
int64_t threadCpuNs();
int64_t processCpuNs();
inline double nsToMs(int64_t Ns) { return static_cast<double>(Ns) / 1e6; }

/// Linear-interpolation quantile (Python's statistics "inclusive" rule);
/// 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}
inline double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0.0 : Sum / static_cast<double>(V.size());
}

/// Derives an independent 64-bit seed from (\p A, \p B).
uint64_t mixSeed(uint64_t A, uint64_t B);

std::string readFile(const std::string &Path);

/// Milliseconds of one fixed run of the host-speed canary: a small
/// switch-dispatched interpreter over a seeded opcode stream, code of the
/// harness's own that no change to the repository can speed up. The shared
/// host slows the repository's code by up to 50% for seconds at a time, so
/// the canary is taken between the operations it corrects.
double canaryMs();
/// canaryMs() on the reference host (bench/e2e/README.md) when no other
/// tenant loads it.
constexpr double CanaryRefMs = 4.4;
/// When the shared host slows the canary by a factor s, it slows the
/// workloads by about s to this power (README.md, "Noise", gives the fit).
constexpr double HostExponent = 1.5;

/// How much slower than the reference the host runs the workloads when
/// the canary reads \p CanaryMs.
double hostFactor(double CanaryMs);

/// Each time in \p Ms at the reference host speed: Ms[I] over the host
/// factor of CanaryMs[I], the canary taken around it.
std::vector<double> atHostSpeed(const std::vector<double> &Ms,
                                const std::vector<double> &CanaryMs);

/// Host-time spans recorded around calls into each layer. A span's self
/// time is its length minus what its direct children cover. Recording is
/// single-threaded; the serve workload adds its spans after the run.
class Spans {
public:
  explicit Spans(bool On) : On(On) {}

  /// Opens a span named \p Name in layer \p Layer; returns its index, or
  /// -1 when recording is off.
  int open(const char *Layer, const std::string &Name);
  void close(int Idx);
  /// Adds a finished span.
  int add(const char *Layer, const std::string &Name, int64_t BeginNs,
          int64_t EndNs, int Tid = 0, int Parent = -1);
  /// Adds the task bodies of engine run \p Run as one "vm" span: it starts
  /// with the run and is as long as the bodies' summed CPU time.
  void addBodies(int Run, const std::string &Name, int64_t BodyNs);

  size_t size() const { return Recs.size(); }
  /// Self nanoseconds per span name over spans [From, size()).
  std::map<std::string, int64_t> selfNs(size_t From = 0) const;
  /// Writes every span as a Chrome trace ("X" events, microseconds since
  /// the harness started).
  void write(const std::string &Path) const;

private:
  struct Rec {
    std::string Layer, Name;
    int64_t Begin = 0, End = 0;
    int Tid = 0;
    int Parent = -1;
  };
  bool On;
  std::vector<Rec> Recs;
  std::vector<int> Stack;
};

/// The output of \p Source run by the tree-walking interpreter on one
/// core: the repository's independent reference for every other engine.
std::string oracleOutput(const std::string &Source, const std::string &Name,
                         const std::vector<std::string> &Args,
                         uint64_t Seed);

/// Runs the frontend, disjointness analysis and VM lowering, with one
/// span per step when \p S records. Dies when the source does not compile
/// or falls back to the interpreter.
std::unique_ptr<vm::VmProgram> compileVm(const std::string &Source,
                                         const std::string &Name, Spans &S);

/// Rebinds every task body of \p BP to a wrapper that adds the body's
/// thread-CPU time to \p *SinkNs. \p SinkNs must outlive every run.
void timeBodies(runtime::BoundProgram &BP, int64_t *SinkNs);

/// What one workload run measured. Units live in BENCHMARK.json.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> Metrics;
  /// How much slower than the reference the host ran during the measured
  /// window: hostFactor() of the median canary. The timed end-to-end
  /// metrics are already divided by a host factor; this one is printed so
  /// a reader can estimate the wall-clock numbers.
  double HostFactor = 0;
};

Report runCompile(const RunOptions &O, Spans &S);
Report runExecute(const RunOptions &O, Spans &S);
Report runServe(const RunOptions &O, Spans &S, bool Chaos);

/// Times \p SetupOnce \p Reps times and returns the median in seconds at
/// the reference host speed. \p SetupOnce returns a fingerprint of the
/// deterministic state it built; the harness dies when two repetitions
/// disagree.
template <typename Fn> double timedSetup(int Reps, Fn &&SetupOnce) {
  std::vector<double> Secs, Canary;
  std::string First;
  double Before = canaryMs();
  for (int R = 0; R < Reps; ++R) {
    int64_t T0 = wallNs();
    std::string Print = SetupOnce(R == Reps - 1);
    Secs.push_back(static_cast<double>(wallNs() - T0) / 1e9);
    double After = canaryMs();
    Canary.push_back((Before + After) / 2);
    Before = After;
    if (R == 0)
      First = Print;
    else if (Print != First)
      die("setup is not deterministic: repetition %d built %s, the first "
          "built %s",
          R, Print.c_str(), First.c_str());
  }
  return median(atHostSpeed(Secs, Canary));
}

} // namespace bamboo::e2e

#endif // BAMBOO_BENCH_E2E_HARNESS_H
