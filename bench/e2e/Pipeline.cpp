//===- bench/e2e/Pipeline.cpp - compile and execute workloads -------------===//
//
// Part of the Bamboo reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two closed-loop, single-threaded workloads:
///
///  - compile: the one-shot CLI's synthesis path (frontend, analysis,
///    lowering, driver::runPipeline on the 62-core TILEPro64) over six
///    apps, each under the same four DSA seeds every pass;
///  - execute: repeated TileExecutor runs of layouts synthesized during
///    setup, which bypasses synthesis entirely.
///
/// A traced run alternates an untraced pass with a traced pass on the same
/// input. The traced compile pass calls runPipeline's public steps one by
/// one, in its order, so each step gets its own span. Every pass, traced
/// or not, must repeat the first pass's cycle and evaluation counts.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "driver/Pipeline.h"
#include "machine/Topology.h"
#include "resilience/Checkpoint.h"
#include "serve/Protocol.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>

using namespace bamboo;
using namespace bamboo::e2e;

namespace {

/// One app with its argument and the oracle's output for the run's seed.
struct AppInput {
  std::string Name;
  std::string Source;
  std::vector<std::string> Args;
  std::string Expected;
};

AppInput loadApp(const RunOptions &O, const std::string &Name, int Size) {
  AppInput A{Name, readFile(O.AppsDir + "/" + Name + ".bb"),
             {serve::sizeArg(static_cast<uint64_t>(Size))}, ""};
  A.Expected = oracleOutput(A.Source, Name + ".bb", A.Args, O.Seed);
  return A;
}

std::string crcOf(const std::string &Text) {
  return formatString("%08x", resilience::crc32(Text.data(), Text.size()));
}

/// Timings of one run's passes. A traced run pairs each untraced pass
/// with a traced pass on the same input.
struct PassLog {
  std::vector<double> Ms, CpuMs, TracedMs;
  /// Per untraced pass, the mean canary of its Probe.
  std::vector<double> CanaryMs;
  /// Self nanoseconds by span name, one map per traced pass.
  std::vector<std::map<std::string, int64_t>> Self;
};

/// The canary readings that go with one untraced pass: one just before it,
/// one just after it, and any the pass takes in between, whose time the
/// pass does not count. A pass of seconds samples the host every few
/// hundred milliseconds that way.
struct Probe {
  std::vector<double> Ms;
  int64_t WallNs = 0, CpuNs = 0;

  void operator()() {
    int64_t W = wallNs(), C = threadCpuNs();
    Ms.push_back(canaryMs());
    WallNs += wallNs() - W;
    CpuNs += threadCpuNs() - C;
  }
};

/// Calls \p Pass(Traced, Probe) until \p O.Seconds have passed.
template <typename PassFn>
PassLog measurePasses(const RunOptions &O, Spans &S, PassFn &&Pass) {
  PassLog L;
  int64_t End = wallNs() + static_cast<int64_t>(O.Seconds * 1e9);
  double Before = canaryMs();
  do {
    Probe P;
    int64_t W = wallNs(), C = threadCpuNs();
    Pass(false, P);
    L.Ms.push_back(nsToMs(wallNs() - W - P.WallNs));
    L.CpuMs.push_back(nsToMs(threadCpuNs() - C - P.CpuNs));
    double After = canaryMs();
    P.Ms.push_back(Before);
    P.Ms.push_back(After);
    L.CanaryMs.push_back(mean(P.Ms));
    Before = After;
    if (!O.Traced)
      continue;
    size_t From = S.size();
    W = wallNs();
    int Sp = S.open("bench", "pass");
    Pass(true, P);
    S.close(Sp);
    L.TracedMs.push_back(nsToMs(wallNs() - W));
    L.Self.push_back(S.selfNs(From));
  } while (wallNs() < End);
  return L;
}

/// End-to-end metrics of an untraced closed-loop run, where one op is one
/// pass: the median pass time over the run at the reference host speed,
/// in wall time and in the thread's CPU time. The harness does nothing
/// else while a pass runs, so the two agree unless the host takes the CPU
/// away.
void reportPasses(const PassLog &L, Report &R) {
  R.Metrics["latency_p50_ms"] = median(atHostSpeed(L.Ms, L.CanaryMs));
  R.Metrics["cpu_ms_per_op"] = median(atHostSpeed(L.CpuMs, L.CanaryMs));
}

/// Median self milliseconds of span \p Name per traced pass.
double selfMs(const PassLog &L, const std::string &Name) {
  std::vector<double> V;
  for (const auto &M : L.Self) {
    auto It = M.find(Name);
    V.push_back(It == M.end() ? 0.0 : nsToMs(It->second));
  }
  return median(V);
}

/// Tracing metrics shared by both workloads: the traced pass's slowdown
/// against its untraced twin, and the share of the traced pass no layer
/// span covers (the harness's own bookkeeping).
void reportTracing(const PassLog &L, Report &R) {
  std::vector<double> Over, Unattr;
  for (size_t I = 0; I < L.TracedMs.size(); ++I) {
    Over.push_back((L.TracedMs[I] / L.Ms[I] - 1.0) * 100.0);
    Unattr.push_back(nsToMs(L.Self[I].at("pass")) / L.TracedMs[I] * 100.0);
  }
  R.Metrics["trace.overhead_pct"] = median(Over);
  R.Metrics["trace.unattributed_pct"] = median(Unattr);
}

//===----------------------------------------------------------------------===//
// compile
//===----------------------------------------------------------------------===//

const char *const CompileApps[] = {"series",     "montecarlo", "kmeans",
                                   "filterbank", "fractal",    "tracking"};
constexpr int CompileSize = 32;
/// Every pass synthesizes each app under DSA seeds 1..DsaSeeds. DSA's
/// search length varies by up to 5x with its seed, so one seed would make
/// a DSA change look faster or slower by luck; a fixed set makes every
/// pass and every run do the same synthesis work. --seed sets the
/// programs' inputs.
constexpr uint64_t DsaSeeds = 4;

/// The deterministic outcome of synthesizing one app.
struct Synthesis {
  uint64_t Real1 = 0, RealN = 0, EstN = 0, Evals = 0;
  bool Ok = false;

  bool operator==(const Synthesis &B) const {
    return Real1 == B.Real1 && RealN == B.RealN && EstN == B.EstN &&
           Evals == B.Evals;
  }
  std::string str() const {
    return formatString("1-core %llu, N-core %llu cycles, estimate %llu, "
                        "%llu DSA evaluations",
                        static_cast<unsigned long long>(Real1),
                        static_cast<unsigned long long>(RealN),
                        static_cast<unsigned long long>(EstN),
                        static_cast<unsigned long long>(Evals));
  }
};

/// runPipeline leaves the profiling run's output followed by the final
/// run's in the program; both must equal the oracle's.
bool outputOk(const vm::VmProgram &P, const AppInput &A) {
  return !P.hadError() && P.output() == A.Expected + A.Expected;
}

Synthesis synthesize(const AppInput &A, const driver::PipelineOptions &PO) {
  Spans Off(false);
  auto P = compileVm(A.Source, A.Name + ".bb", Off);
  driver::PipelineResult R = driver::runPipeline(P->bound(), PO);
  return {R.Real1Core, R.RealNCore, R.EstimatedNCore, R.DsaEvaluations,
          R.RealRunCompleted && outputOk(*P, A)};
}

/// The same synthesis through runPipeline's public steps, one span each.
Synthesis synthesizeTraced(const AppInput &A,
                           const driver::PipelineOptions &PO, Spans &S) {
  auto P = compileVm(A.Source, A.Name + ".bb", S);
  int64_t BodyNs = 0;
  timeBodies(P->bound(), &BodyNs);
  const ir::Program &Prog = P->bound().program();
  const profile::SimHints &Hints = P->bound().hints();

  int Sp = S.open("analysis", "analysis");
  analysis::Cstg G = analysis::buildCstg(Prog);
  S.close(Sp);

  machine::MachineConfig One = machine::MachineConfig::singleCore();
  machine::Layout OneLayout = machine::Layout::allOnOneCore(Prog);
  runtime::ExecOptions ProfOpts = PO.Exec;
  ProfOpts.CollectProfile = true;
  Sp = S.open("profile", "profile");
  runtime::ExecResult R1 =
      runtime::TileExecutor(P->bound(), G, One, OneLayout).run(ProfOpts);
  S.close(Sp);
  S.addBodies(Sp, "profile.body", BodyNs);
  const profile::Profile &Prof = *R1.CollectedProfile;

  Sp = S.open("schedsim", "schedsim");
  schedsim::simulateLayout(Prog, G, Prof, Hints, One, OneLayout);
  S.close(Sp);

  Sp = S.open("synthesis", "synthesis.plan");
  synthesis::GroupPlan Plan =
      synthesis::buildGroupPlan(Prog, G, Prof, PO.Target.NumCores);
  S.close(Sp);

  Sp = S.open("optimize", "optimize.dsa");
  optimize::DsaResult D =
      optimize::runDsa(Prog, G, Prof, Hints, PO.Target, Plan, PO.Dsa);
  S.close(Sp);

  BodyNs = 0;
  Sp = S.open("runtime", "runtime.final");
  runtime::ExecResult RN =
      runtime::TileExecutor(P->bound(), G, PO.Target, D.Best).run(PO.Exec);
  S.close(Sp);
  S.addBodies(Sp, "runtime.final_body", BodyNs);

  return {R1.TotalCycles, RN.TotalCycles, D.BestEstimate, D.Evaluations,
          RN.Completed && outputOk(*P, A)};
}

} // namespace

Report bamboo::e2e::runCompile(const RunOptions &O, Spans &S) {
  Report R;
  std::vector<AppInput> Apps;
  double SetupS = timedSetup(O.SetupReps, [&](bool Keep) {
    std::vector<AppInput> Loaded;
    std::string Print;
    for (const char *Name : CompileApps) {
      Loaded.push_back(loadApp(O, Name, CompileSize));
      Print += crcOf(Loaded.back().Expected) + " ";
    }
    if (Keep)
      Apps = std::move(Loaded);
    return Print;
  });

  // Every pass, traced or not, must repeat the first pass's cycles,
  // estimates and evaluation counts exactly.
  std::vector<Synthesis> First;
  PassLog L = measurePasses(O, S, [&](bool Traced, Probe &P) {
    driver::PipelineOptions PO;
    PO.Exec.Args = {serve::sizeArg(CompileSize)};
    PO.Exec.Seed = O.Seed;
    size_t K = 0;
    for (const AppInput &A : Apps) {
      if (!Traced && &A != &Apps.front())
        P();
      for (uint64_t Seed = 1; Seed <= DsaSeeds; ++Seed, ++K) {
        PO.Dsa.Seed = Seed;
        Synthesis Y = Traced ? synthesizeTraced(A, PO, S) : synthesize(A, PO);
        ++R.Attempted;
        R.Failed += Y.Ok ? 0 : 1;
        if (K == First.size())
          First.push_back(Y);
        else if (!(Y == First[K]))
          die("compile: %s%s with DSA seed %llu gave %s, the first pass %s",
              Traced ? "traced " : "", A.Name.c_str(),
              static_cast<unsigned long long>(Seed), Y.str().c_str(),
              First[K].str().c_str());
      }
    }
  });

  R.HostFactor = hostFactor(median(L.CanaryMs));
  if (!O.Traced) {
    reportPasses(L, R);
    R.Metrics["setup_s"] = SetupS;
    return R;
  }
  for (const char *Step : {"frontend", "analysis", "profile", "schedsim"})
    R.Metrics[std::string(Step) + ".ms"] = selfMs(L, Step);
  for (const char *Step : {"vm.lower", "profile.body", "synthesis.plan",
                           "optimize.dsa", "runtime.final",
                           "runtime.final_body"})
    R.Metrics[std::string(Step) + "_ms"] = selfMs(L, Step);

  double Evals = 0, LogSpeedup = 0, ErrPct = 0;
  for (const Synthesis &Y : First) {
    Evals += static_cast<double>(Y.Evals);
    LogSpeedup += std::log(static_cast<double>(Y.Real1) /
                           static_cast<double>(Y.RealN));
    ErrPct += std::fabs(static_cast<double>(Y.EstN) -
                        static_cast<double>(Y.RealN)) /
              static_cast<double>(Y.RealN) * 100.0;
  }
  double N = static_cast<double>(First.size());
  R.Metrics["optimize.dsa_evals"] = Evals;
  R.Metrics["optimize.speedup_geomean"] = std::exp(LogSpeedup / N);
  R.Metrics["schedsim.est_err_pct"] = ErrPct / N;
  R.Metrics["optimize.ms_per_eval"] = selfMs(L, "optimize.dsa") / Evals;
  reportTracing(L, R);
  return R;
}

//===----------------------------------------------------------------------===//
// execute
//===----------------------------------------------------------------------===//

namespace {

struct ExecCase {
  const char *App;
  int Size;
  /// Hierarchical machine spec; null runs the flat 62-core TILEPro64.
  const char *Topology;
};

const ExecCase ExecCases[] = {{"fractal", 64, nullptr},
                              {"tracking", 32, "4x4x64"},
                              {"kmeans", 32, nullptr},
                              {"montecarlo", 32, nullptr}};

/// One synthesized case. Not movable: the timed program's body wrappers
/// point at BodyNs.
struct Prepared {
  AppInput In;
  machine::MachineConfig Target;
  std::unique_ptr<vm::VmProgram> Plain;
  /// Same program with timed bodies (traced runs only).
  std::unique_ptr<vm::VmProgram> Timed;
  int64_t BodyNs = 0;
  driver::PipelineResult Synth;
  /// Counts of the first measured run; every later run must repeat them.
  runtime::ExecResult Ref;
  bool HaveRef = false;
};

std::unique_ptr<Prepared> prepare(const RunOptions &O, const ExecCase &C) {
  auto P = std::make_unique<Prepared>();
  P->In = loadApp(O, C.App, C.Size);
  if (C.Topology) {
    std::string Err;
    auto Topo = machine::Topology::parse(C.Topology, Err);
    if (!Topo)
      die("topology %s: %s", C.Topology, Err.c_str());
    P->Target = machine::MachineConfig::hierarchical(Topo);
  } else {
    P->Target = machine::MachineConfig::tilePro64();
  }
  Spans Off(false);
  P->Plain = compileVm(P->In.Source, P->In.Name + ".bb", Off);
  // DSA keeps its default seed: its search length varies by up to 5x with
  // the seed, and a seed-dependent setup and layout would spread setup_s
  // and the pass time across runs. The programs still run on --seed.
  driver::PipelineOptions PO;
  PO.Target = P->Target;
  PO.Exec.Args = P->In.Args;
  PO.Exec.Seed = O.Seed;
  P->Synth = driver::runPipeline(P->Plain->bound(), PO);
  if (O.Traced) {
    P->Timed = compileVm(P->In.Source, P->In.Name + ".bb", Off);
    timeBodies(P->Timed->bound(), &P->BodyNs);
  }
  return P;
}

bool sameCounts(const runtime::ExecResult &A, const runtime::ExecResult &B) {
  return A.TotalCycles == B.TotalCycles &&
         A.EventsProcessed == B.EventsProcessed &&
         A.TaskInvocations == B.TaskInvocations &&
         A.MessagesSent == B.MessagesSent && A.LockRetries == B.LockRetries;
}

} // namespace

Report bamboo::e2e::runExecute(const RunOptions &O, Spans &S) {
  Report R;
  std::vector<std::unique_ptr<Prepared>> Cases;
  double SetupS = timedSetup(O.SetupReps, [&](bool Keep) {
    std::vector<std::unique_ptr<Prepared>> Built;
    std::string Print;
    for (const ExecCase &C : ExecCases) {
      Built.push_back(prepare(O, C));
      const Prepared &P = *Built.back();
      Print += formatString("%s:%s:%llu:%llu ", C.App,
                            crcOf(P.In.Expected).c_str(),
                            static_cast<unsigned long long>(P.Synth.RealNCore),
                            static_cast<unsigned long long>(
                                P.Synth.DsaEvaluations));
    }
    if (Keep)
      Cases = std::move(Built);
    return Print;
  });

  Spans Off(false);
  PassLog L = measurePasses(O, S, [&](bool Traced, Probe &) {
    Spans &Sx = Traced ? S : Off;
    for (auto &CP : Cases) {
      Prepared &C = *CP;
      vm::VmProgram &P = Traced ? *C.Timed : *C.Plain;
      P.clearOutput();
      P.clearError();
      runtime::ExecOptions EO;
      EO.Args = C.In.Args;
      EO.Seed = O.Seed;
      C.BodyNs = 0;
      int Sp = Sx.open("runtime", std::string("runtime.exec.") + C.In.Name);
      runtime::ExecResult X =
          runtime::TileExecutor(P.bound(), C.Synth.Graph, C.Target,
                                C.Synth.BestLayout)
              .run(EO);
      Sx.close(Sp);
      Sx.addBodies(Sp, std::string("vm.body.") + C.In.Name, C.BodyNs);
      ++R.Attempted;
      R.Failed += X.Completed && !P.hadError() && P.output() == C.In.Expected
                      ? 0
                      : 1;
      if (!C.HaveRef) {
        if (X.TotalCycles != C.Synth.RealNCore)
          die("execute: %s ran %llu cycles, synthesis measured %llu",
              C.In.Name.c_str(), static_cast<unsigned long long>(X.TotalCycles),
              static_cast<unsigned long long>(C.Synth.RealNCore));
        C.Ref = X;
        C.HaveRef = true;
      } else if (!sameCounts(X, C.Ref)) {
        die("execute: %s%s run differs from the first run (%llu vs %llu "
            "cycles, %llu vs %llu events)",
            C.In.Name.c_str(), Traced ? " traced" : "",
            static_cast<unsigned long long>(X.TotalCycles),
            static_cast<unsigned long long>(C.Ref.TotalCycles),
            static_cast<unsigned long long>(X.EventsProcessed),
            static_cast<unsigned long long>(C.Ref.EventsProcessed));
      }
    }
  });

  R.HostFactor = hostFactor(median(L.CanaryMs));
  if (!O.Traced) {
    reportPasses(L, R);
    R.Metrics["setup_s"] = SetupS;
    return R;
  }
  double Makespan = 0;
  for (const auto &CP : Cases) {
    const Prepared &C = *CP;
    const std::string &A = C.In.Name;
    std::vector<double> Exec, Body, Engine, NsPerEvent;
    for (const auto &M : L.Self) {
      double E = nsToMs(M.at("runtime.exec." + A));
      double B = nsToMs(M.at("vm.body." + A));
      Exec.push_back(E + B);
      Body.push_back(B);
      Engine.push_back(E);
      NsPerEvent.push_back(E * 1e6 /
                           static_cast<double>(C.Ref.EventsProcessed));
    }
    R.Metrics["runtime.exec_ms." + A] = median(Exec);
    R.Metrics["vm.body_ms." + A] = median(Body);
    R.Metrics["runtime.engine_ms." + A] = median(Engine);
    R.Metrics["runtime.ns_per_event." + A] = median(NsPerEvent);
    R.Metrics["runtime.events." + A] =
        static_cast<double>(C.Ref.EventsProcessed);
    R.Metrics["runtime.invocations." + A] =
        static_cast<double>(C.Ref.TaskInvocations);
    R.Metrics["runtime.messages." + A] =
        static_cast<double>(C.Ref.MessagesSent);
    R.Metrics["runtime.lock_retries." + A] =
        static_cast<double>(C.Ref.LockRetries);
    Makespan += static_cast<double>(C.Ref.TotalCycles);
  }
  R.Metrics["runtime.makespan_cycles"] = Makespan;
  reportTracing(L, R);
  return R;
}
