//===- bench/e2e/Harness.cpp - End-to-end benchmark harness ---------------===//
//
// Part of the Bamboo reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One run of one workload:
///
///   e2e_harness --workload NAME --seed N [--seconds S] --trace 0|1
///               --apps DIR --benchmark FILE [--spans DIR] [--smoke]
///
/// Measures for BENCHMARK.json's run_seconds; --seconds, which the
/// benchmark's callers pass, must equal it. Prints a metric table to stderr
/// and, as the last line of stdout, one JSON object {"correct",
/// "attempted", "failed", "metrics"}. An untraced run reports
/// BENCHMARK.json's end_to_end metrics; a traced run reports its per_layer
/// metrics and writes the spans to DIR/WORKLOAD-seedN.trace.json. Exits 2
/// without
/// a result line when the harness cannot run or a deterministic count
/// differs between two runs of the same input.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/Disjoint.h"
#include "frontend/Frontend.h"
#include "interp/Interp.h"
#include "runtime/TileExecutor.h"
#include "serve/Json.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

using namespace bamboo;
using namespace bamboo::e2e;

namespace {

const int64_t Origin = wallNs();

int64_t clockNs(clockid_t Id) {
  timespec Ts;
  clock_gettime(Id, &Ts);
  return static_cast<int64_t>(Ts.tv_sec) * 1'000'000'000 + Ts.tv_nsec;
}

/// The canary, median of fifteen, timed before and after each workload.
double calibrateMs() {
  std::vector<double> Ms;
  for (int R = 0; R < 15; ++R)
    Ms.push_back(canaryMs());
  return median(Ms);
}

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// What BENCHMARK.json, the one place they are declared, fixes: the
/// (name, unit) lists of metrics, the workloads and the run length.
struct MetricList {
  std::vector<std::pair<std::string, std::string>> EndToEnd, PerLayer;
  std::vector<std::string> Workloads;
  double RunSeconds = 0;
};

MetricList loadBenchmark(const std::string &Path) {
  serve::Json J;
  std::string Err;
  if (!serve::Json::parse(readFile(Path), J, Err))
    die("%s: %s", Path.c_str(), Err.c_str());
  MetricList L;
  const serve::Json *Secs = J.find("run_seconds");
  if (!Secs || !Secs->isUInt() || Secs->uint() == 0)
    die("%s: run_seconds must be a positive whole number", Path.c_str());
  L.RunSeconds = static_cast<double>(Secs->uint());
  auto Names = [&](const char *Key, auto &&Add) {
    const serve::Json *A = J.find(Key);
    if (!A || !A->isArray())
      die("%s: no %s list", Path.c_str(), Key);
    for (const serve::Json &E : A->array()) {
      const serve::Json *N = E.find("name");
      const serve::Json *U = E.find("unit");
      if (!N || !N->isString())
        die("%s: %s entry without a name", Path.c_str(), Key);
      Add(N->str(), U && U->isString() ? U->str() : std::string());
    }
  };
  Names("end_to_end",
        [&](std::string N, std::string U) { L.EndToEnd.emplace_back(N, U); });
  Names("per_layer",
        [&](std::string N, std::string U) { L.PerLayer.emplace_back(N, U); });
  Names("workloads",
        [&](std::string N, std::string) { L.Workloads.push_back(N); });
  return L;
}

} // namespace

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

void bamboo::e2e::die(const char *Fmt, ...) {
  std::fflush(stdout);
  std::fputs("e2e_harness: ", stderr);
  va_list Ap;
  va_start(Ap, Fmt);
  std::vfprintf(stderr, Fmt, Ap);
  va_end(Ap);
  std::fputc('\n', stderr);
  std::_Exit(2);
}

int64_t bamboo::e2e::wallNs() { return clockNs(CLOCK_MONOTONIC); }
int64_t bamboo::e2e::threadCpuNs() {
  return clockNs(CLOCK_THREAD_CPUTIME_ID);
}
int64_t bamboo::e2e::processCpuNs() {
  return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

double bamboo::e2e::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

uint64_t bamboo::e2e::mixSeed(uint64_t A, uint64_t B) {
  uint64_t Z = A * 0x9e3779b97f4a7c15ULL + B + 0x632be59bd9b4e019ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::string bamboo::e2e::readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot read %s", Path.c_str());
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

double bamboo::e2e::canaryMs() {
  static const std::vector<uint8_t> Code = [] {
    std::vector<uint8_t> C(1 << 14);
    uint64_t X = 1;
    for (uint8_t &Op : C) {
      X = X * 6364136223846793005ULL + 1442695040888963407ULL;
      Op = static_cast<uint8_t>(X >> 61);
    }
    return C;
  }();
  int64_t T0 = wallNs();
  uint64_t A = 1, B = 2, C = 3;
  for (int Round = 0; Round < 24; ++Round)
    for (uint8_t Op : Code)
      switch (Op) {
      case 0: A += B; break;
      case 1: B ^= A >> 3; break;
      case 2: C += A * B; break;
      case 3: A = C - B; break;
      case 4: B += 7; break;
      case 5: C ^= C << 1; break;
      case 6: A ^= C; break;
      default: B -= A; break;
      }
  volatile uint64_t Sink = A + B + C;
  (void)Sink;
  return nsToMs(wallNs() - T0);
}

double bamboo::e2e::hostFactor(double CanaryMs) {
  return std::pow(CanaryMs / CanaryRefMs, HostExponent);
}

std::vector<double>
bamboo::e2e::atHostSpeed(const std::vector<double> &Ms,
                         const std::vector<double> &CanaryMs) {
  if (CanaryMs.size() != Ms.size())
    die("%zu times with %zu canary readings", Ms.size(), CanaryMs.size());
  std::vector<double> Out;
  for (size_t I = 0; I < Ms.size(); ++I)
    Out.push_back(Ms[I] / hostFactor(CanaryMs[I]));
  return Out;
}

int Spans::open(const char *Layer, const std::string &Name) {
  if (!On)
    return -1;
  int Parent = Stack.empty() ? -1 : Stack.back();
  int Idx = add(Layer, Name, wallNs(), 0, 0, Parent);
  Stack.push_back(Idx);
  return Idx;
}

void Spans::close(int Idx) {
  if (!On)
    return;
  if (Stack.empty() || Stack.back() != Idx)
    die("span '%s' closed out of order", Recs[static_cast<size_t>(Idx)]
                                             .Name.c_str());
  Recs[static_cast<size_t>(Idx)].End = wallNs();
  Stack.pop_back();
}

int Spans::add(const char *Layer, const std::string &Name, int64_t BeginNs,
               int64_t EndNs, int Tid, int Parent) {
  if (!On)
    return -1;
  Recs.push_back({Layer, Name, BeginNs, EndNs, Tid, Parent});
  return static_cast<int>(Recs.size() - 1);
}

void Spans::addBodies(int Run, const std::string &Name, int64_t BodyNs) {
  if (!On)
    return;
  int64_t Begin = Recs[static_cast<size_t>(Run)].Begin;
  add("vm", Name, Begin, Begin + BodyNs, Recs[static_cast<size_t>(Run)].Tid,
      Run);
}

std::map<std::string, int64_t> Spans::selfNs(size_t From) const {
  std::vector<int64_t> Self(Recs.size(), 0);
  for (size_t I = From; I < Recs.size(); ++I) {
    const Rec &R = Recs[I];
    Self[I] += R.End - R.Begin;
    if (R.Parent >= static_cast<int>(From))
      Self[static_cast<size_t>(R.Parent)] -= R.End - R.Begin;
  }
  std::map<std::string, int64_t> ByName;
  for (size_t I = From; I < Recs.size(); ++I)
    ByName[Recs[I].Name] += Self[I];
  return ByName;
}

void Spans::write(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    die("cannot write %s", Path.c_str());
  Out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t I = 0; I < Recs.size(); ++I) {
    const Rec &R = Recs[I];
    Out << formatString(
        "{\"name\":%s,\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}%s\n",
        serve::Json::quote(R.Name).c_str(), R.Layer.c_str(), R.Tid,
        static_cast<double>(R.Begin - Origin) / 1e3,
        static_cast<double>(R.End - R.Begin) / 1e3, I, R.Parent,
        I + 1 < Recs.size() ? "," : "");
  }
  Out << "]}\n";
  if (!Out.flush())
    die("cannot write %s", Path.c_str());
}

std::string bamboo::e2e::oracleOutput(const std::string &Source,
                                      const std::string &Name,
                                      const std::vector<std::string> &Args,
                                      uint64_t Seed) {
  frontend::DiagnosticEngine Diags;
  auto CM = frontend::compileString(Source, Name, Diags);
  if (!CM)
    die("%s", Diags.render(Name).c_str());
  analysis::analyzeDisjointness(*CM);
  interp::InterpProgram P(std::move(*CM));
  analysis::Cstg G = analysis::buildCstg(P.bound().program());
  machine::Layout L = machine::Layout::allOnOneCore(P.bound().program());
  machine::MachineConfig One = machine::MachineConfig::singleCore();
  runtime::TileExecutor Exec(P.bound(), G, One, L);
  runtime::ExecOptions EO;
  EO.Args = Args;
  EO.Seed = Seed;
  runtime::ExecResult R = Exec.run(EO);
  if (!R.Completed || P.hadError())
    die("oracle run of %s failed: %s", Name.c_str(), P.error().c_str());
  return P.output();
}

std::unique_ptr<vm::VmProgram>
bamboo::e2e::compileVm(const std::string &Source, const std::string &Name,
                       Spans &S) {
  frontend::DiagnosticEngine Diags;
  int Sp = S.open("frontend", "frontend");
  auto CM = frontend::compileString(Source, Name, Diags);
  S.close(Sp);
  if (!CM)
    die("%s", Diags.render(Name).c_str());
  Sp = S.open("analysis", "analysis");
  analysis::analyzeDisjointness(*CM);
  S.close(Sp);
  Sp = S.open("vm", "vm.lower");
  auto P = std::make_unique<vm::VmProgram>(std::move(*CM));
  S.close(Sp);
  if (!P->usesBytecode())
    die("%s fell back to the interpreter", Name.c_str());
  return P;
}

void bamboo::e2e::timeBodies(runtime::BoundProgram &BP, int64_t *SinkNs) {
  for (ir::TaskId T = 0; T < static_cast<ir::TaskId>(BP.program().tasks().size());
       ++T) {
    runtime::TaskBody Orig = BP.bodyOf(T);
    BP.bind(T, [Orig = std::move(Orig), SinkNs](runtime::TaskContext &C) {
      int64_t T0 = threadCpuNs();
      Orig(C);
      *SinkNs += threadCpuNs() - T0;
    });
  }
}

//===----------------------------------------------------------------------===//
// main
//===----------------------------------------------------------------------===//

int main(int Argc, char **Argv) {
  RunOptions O;
  std::string BenchPath, SpanDir;
  bool Smoke = false;
  int Trace = -1;
  double Seconds = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        die("%s needs a value", A.c_str());
      return Argv[++I];
    };
    auto Number = [&](double Lo, double Hi) {
      std::string V = Value();
      char *End = nullptr;
      double D = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(D >= Lo && D <= Hi))
        die("%s must be a number in [%g, %g], got '%s'", A.c_str(), Lo, Hi,
            V.c_str());
      return D;
    };
    if (A == "--workload")
      O.Workload = Value();
    else if (A == "--seed")
      O.Seed = static_cast<uint64_t>(Number(0, 1e15));
    else if (A == "--seconds")
      Seconds = Number(1, 3600);
    else if (A == "--trace") {
      std::string V = Value();
      if (V != "0" && V != "1")
        die("--trace must be 0 or 1, got '%s'", V.c_str());
      Trace = V == "1";
    }
    else if (A == "--apps")
      O.AppsDir = Value();
    else if (A == "--benchmark")
      BenchPath = Value();
    else if (A == "--spans")
      SpanDir = Value();
    else if (A == "--smoke")
      Smoke = true;
    else
      die("unknown argument '%s'", A.c_str());
  }
  if (O.Workload.empty() || Trace < 0 || O.AppsDir.empty() ||
      BenchPath.empty())
    die("usage: e2e_harness --workload NAME --seed N [--seconds S] "
        "--trace 0|1 --apps DIR --benchmark FILE [--spans DIR] [--smoke]");
  MetricList List = loadBenchmark(BenchPath);
  if (std::find(List.Workloads.begin(), List.Workloads.end(), O.Workload) ==
      List.Workloads.end())
    die("unknown workload '%s'", O.Workload.c_str());
  // The benchmark fixes the run length, so that every run compares.
  if (Seconds != 0 && Seconds != List.RunSeconds)
    die("--seconds %g differs from run_seconds %g in %s", Seconds,
        List.RunSeconds, BenchPath.c_str());
  O.Seconds = Smoke ? 1.5 : List.RunSeconds;
  O.Traced = Trace == 1;
  if (Smoke || O.Traced)
    O.SetupReps = 1;

  Spans S(O.Traced);
  double CalBefore = calibrateMs();
  Report R;
  if (O.Workload == "compile")
    R = runCompile(O, S);
  else if (O.Workload == "execute")
    R = runExecute(O, S);
  else if (O.Workload == "serve_steady" || O.Workload == "serve_chaos")
    R = runServe(O, S, O.Workload == "serve_chaos");
  else
    die("workload '%s' has no implementation", O.Workload.c_str());
  double CalAfter = calibrateMs();
  double Drift = (CalAfter - CalBefore) / CalBefore * 100.0;
  if (O.Traced) {
    R.Metrics["host.calib_ms"] = (CalBefore + CalAfter) / 2;
    R.Metrics["host.calib_drift_pct"] = Drift;
    R.Metrics["host.speed_factor"] = R.HostFactor;
  } else {
    R.Metrics["peak_rss_mb"] = peakRssMb();
  }
  if (!SpanDir.empty() && O.Traced)
    S.write(formatString("%s/%s-seed%llu.trace.json", SpanDir.c_str(),
                         O.Workload.c_str(),
                         static_cast<unsigned long long>(O.Seed)));

  // Report exactly the mode's list: a metric the workload does not reach
  // reads 0 on a traced run; an unlisted one is a harness bug.
  const auto &Wanted = O.Traced ? List.PerLayer : List.EndToEnd;
  std::string Json = "{";
  std::vector<std::vector<std::string>> Rows;
  Rows.push_back({"metric", "value", "unit"});
  for (const auto &[Name, Unit] : Wanted) {
    auto It = R.Metrics.find(Name);
    if (It == R.Metrics.end() && !O.Traced)
      die("workload '%s' did not measure %s", O.Workload.c_str(),
          Name.c_str());
    double V = It == R.Metrics.end() ? 0.0 : It->second;
    if (!std::isfinite(V))
      die("%s is not a finite number", Name.c_str());
    Json += formatString("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         Json.size() > 1 ? ", " : "", Name.c_str(), V,
                         Unit.c_str());
    Rows.push_back({Name, formatString("%.6g", V), Unit});
  }
  Json += "}";
  for (const auto &[Name, V] : R.Metrics) {
    (void)V;
    if (std::none_of(Wanted.begin(), Wanted.end(),
                     [&](const auto &W) { return W.first == Name; }))
      die("%s is not declared in %s", Name.c_str(), BenchPath.c_str());
  }

  std::fprintf(stderr, "%s seed %llu, %s run, %.1f s%s\n%s",
               O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
               O.Traced ? "traced" : "untraced", O.Seconds,
               Smoke ? " (smoke)" : "", renderTable(Rows).c_str());
  std::fprintf(stderr,
               "host canary %.2f ms before, %.2f ms after (%+.1f%%)%s\n",
               CalBefore, CalAfter, Drift,
               std::fabs(Drift) > 10.0 ? " -- noisy host, do not compare" : "");
  std::fprintf(stderr,
               "host factor %.3f (the workloads took %.3fx the reference "
               "host's time); timed end-to-end metrics are at the reference "
               "speed\n",
               R.HostFactor, R.HostFactor);
  std::fprintf(stderr, "attempted %llu, failed %llu\n",
               static_cast<unsigned long long>(R.Attempted),
               static_cast<unsigned long long>(R.Failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              R.Failed == 0 && R.Attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Json.c_str());
  return 0;
}
