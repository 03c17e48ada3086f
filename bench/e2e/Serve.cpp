//===- bench/e2e/Serve.cpp - serve_steady and serve_chaos workloads -------===//
//
// Part of the Bamboo reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Load on an in-process `bamboo serve` (2 workers, DSA jobs 1, default
/// batch) over two loopback connections, from at most three client
/// threads besides the main thread, which times the host-speed canary:
///
///  - an open loop: one sender thread fires seeded Poisson arrivals at a
///    fixed rate, one receiver per connection times each response from
///    when its request was due. It fills the measured time;
///  - in a traced run, after the open loop, closed loops: each receiver
///    keeps four requests outstanding on its connection, alternating
///    between the traced server and an untraced twin, which gives the
///    capacity and the tracing overhead.
///
/// serve_chaos runs the same mix under FaultPlan drop~0.01, so damaged
/// runs are re-run from their last checkpoint (max_retries 8, quarantine
/// off). Each job's fault stream is a pure function of (seed, request id),
/// so the open loop's retry count repeats exactly for a given seed.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "resilience/Checkpoint.h"
#include "resilience/FaultPlan.h"
#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/Server.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

using namespace bamboo;
using namespace bamboo::e2e;

namespace {

struct MixEntry {
  const char *App;
  const char *Engine;
  const char *Mode;
};

/// Every tile request runs real task bodies; series/interp keeps the
/// tree-walker on the path and tracking/sim the scheduling simulator.
const MixEntry Mix[] = {
    {"series", "tile", "vm"},   {"montecarlo", "tile", "vm"},
    {"kmeans", "tile", "vm"},   {"filterbank", "tile", "vm"},
    {"tracking", "tile", "vm"}, {"series", "tile", "interp"},
    {"tracking", "sim", "vm"}};
constexpr size_t MixSize = sizeof(Mix) / sizeof(Mix[0]);
constexpr int Size = 8, Cores = 4, Conns = 2, ClosedDepth = 4;
/// Ids at or above this are setup traffic, never measured.
constexpr uint64_t WarmIdBase = 1'000'000'000;

/// The mix entry of request \p Id: every block of MixSize consecutive ids
/// holds each entry once, in a seeded order, so every kind of request gets
/// the same share of the load in every stretch of every run.
size_t mixOf(uint64_t Seed, uint64_t Id) {
  size_t Order[MixSize];
  for (size_t M = 0; M < MixSize; ++M)
    Order[M] = M;
  Rng G(mixSeed(Seed, Id / MixSize));
  for (size_t M = MixSize - 1; M > 0; --M)
    std::swap(Order[M], Order[G.nextBelow(M + 1)]);
  return Order[Id % MixSize];
}

std::string requestLine(uint64_t Id, size_t M, uint64_t Seed) {
  return formatString("{\"id\":%llu,\"app\":\"%s\",\"size\":%d,\"seed\":%llu,"
                      "\"cores\":%d,\"engine\":\"%s\",\"exec_mode\":\"%s\"}",
                      static_cast<unsigned long long>(Id), Mix[M].App, Size,
                      static_cast<unsigned long long>(Seed), Cores,
                      Mix[M].Engine, Mix[M].Mode);
}

/// One response as a receiver saw it.
struct Response {
  uint64_t Id = 0;
  int64_t RecvNs = 0;
  uint64_t LatencyUs = 0, Cycles = 0, Retries = 0;
  bool Ok = false, Cached = false;
  std::string Checksum, Code;
};

bool parseResponse(const std::string &Line, int64_t RecvNs, Response &R) {
  serve::Json J;
  std::string Err;
  if (!serve::Json::parse(Line, J, Err))
    return false;
  const serve::Json *Id = J.find("id");
  const serve::Json *Ok = J.find("ok");
  if (!Id || !Id->isUInt() || !Ok || !Ok->isBool())
    return false;
  R.Id = Id->uint();
  R.RecvNs = RecvNs;
  R.Ok = Ok->boolean();
  auto UInt = [&](const char *Key) {
    const serve::Json *V = J.find(Key);
    return V && V->isUInt() ? V->uint() : 0;
  };
  R.LatencyUs = UInt("latency_us");
  R.Cycles = UInt("cycles");
  R.Retries = UInt("retries");
  const serve::Json *Cached = J.find("synth_cached");
  R.Cached = Cached && Cached->isBool() && Cached->boolean();
  const serve::Json *Sum = J.find("checksum");
  R.Checksum = Sum && Sum->isString() ? Sum->str() : "";
  const serve::Json *Code = J.find("code");
  R.Code = Code && Code->isString() ? Code->str() : "";
  return true;
}

/// A started server with its connections and what a correct answer to
/// each mix entry looks like.
struct Live {
  std::optional<resilience::FaultPlan> Plan;
  support::Trace Trace;
  std::unique_ptr<serve::Server> Srv;
  std::vector<serve::Client> Clients;
  int64_t StartNs = 0;
  /// Per mix entry: the oracle's checksum and the warm-up's cycle count.
  std::vector<std::string> Expected;
  std::vector<uint64_t> Cycles;

  bool valid(const Response &R, uint64_t Seed) const {
    size_t M = mixOf(Seed, R.Id);
    if (R.Ok && R.Checksum == Expected[M] && R.Cycles == Cycles[M])
      return true;
    std::fprintf(stderr,
                 "wrong answer to request %llu (%s/%s/%s): %s, checksum "
                 "%s, %llu cycles; expected %s, %llu cycles\n",
                 static_cast<unsigned long long>(R.Id), Mix[M].App,
                 Mix[M].Engine, Mix[M].Mode,
                 R.Ok ? "ok" : R.Code.c_str(), R.Checksum.c_str(),
                 static_cast<unsigned long long>(R.Cycles),
                 Expected[M].c_str(),
                 static_cast<unsigned long long>(Cycles[M]));
    return false;
  }
};

std::unique_ptr<Live> startServer(const RunOptions &O, bool Chaos,
                                  bool Traced,
                                  const std::vector<std::string> &Expected) {
  auto L = std::make_unique<Live>();
  L->Expected = Expected;
  serve::ServerOptions SO;
  SO.AppsDir = O.AppsDir;
  SO.Workers = 2;
  SO.Jobs = 1;
  SO.QueueLimit = 1 << 20;
  if (Chaos) {
    std::string Err;
    L->Plan = resilience::FaultPlan::parse("drop~0.01", Err);
    if (!L->Plan)
      die("fault plan: %s", Err.c_str());
    SO.Chaos = &*L->Plan;
    SO.ChaosSeed = O.Seed;
    SO.MaxRetries = 8;
    SO.QuarantineMs = 0;
  }
  if (Traced)
    SO.Trace = &L->Trace;
  L->Srv = std::make_unique<serve::Server>(SO);
  L->StartNs = wallNs();
  if (std::string Err = L->Srv->start(); !Err.empty())
    die("server: %s", Err.c_str());
  L->Clients.resize(Conns);
  for (serve::Client &C : L->Clients) {
    std::string Err;
    if (!C.connectTo(L->Srv->port(), Err))
      die("connect: %s", Err.c_str());
  }

  // Synthesize every key one at a time, then send the mix once more on
  // each connection so both workers have compiled most programs too.
  // Responses on one connection may come back in any order.
  uint64_t Base = WarmIdBase;
  L->Cycles.assign(MixSize, 0);
  auto Expect = [&](serve::Client &C, bool First) {
    std::string Line;
    Response R;
    size_t M = 0;
    if (!C.recvLine(Line) || !parseResponse(Line, wallNs(), R) ||
        R.Id < WarmIdBase || !R.Ok ||
        R.Checksum != L->Expected[M = (R.Id - WarmIdBase) % MixSize])
      die("warm-up request failed: %s", Line.c_str());
    if (First)
      L->Cycles[M] = R.Cycles;
    else if (R.Cycles != L->Cycles[M])
      die("warm-up %s/%s/%s: %llu cycles, then %llu", Mix[M].App,
          Mix[M].Engine, Mix[M].Mode,
          static_cast<unsigned long long>(L->Cycles[M]),
          static_cast<unsigned long long>(R.Cycles));
  };
  for (size_t M = 0; M < MixSize; ++M) {
    L->Clients[0].sendLine(requestLine(Base++, M, O.Seed));
    Expect(L->Clients[0], true);
  }
  for (serve::Client &C : L->Clients)
    for (size_t M = 0; M < MixSize; ++M)
      C.sendLine(requestLine(Base++, M, O.Seed));
  for (serve::Client &C : L->Clients)
    for (size_t M = 0; M < MixSize; ++M)
      Expect(C, false);
  return L;
}

/// What one phase's client threads measured.
struct Phase {
  std::vector<Response> Responses;
  /// Open loop: due and send times, indexed by id.
  std::vector<int64_t> DueNs, SentNs;
  /// Open loop: the canary, taken by the main thread about ten times a
  /// second while the client threads run.
  std::vector<double> CanaryMs;
  uint64_t Sent = 0, Lost = 0;
  /// CPU time of the harness's threads, the main thread's canary included.
  int64_t ClientCpuNs = 0;
  int64_t BeginNs = 0, EndNs = 0;
};

/// Seeded Poisson arrival offsets over \p Seconds at \p Rate per second.
std::vector<int64_t> arrivals(uint64_t Seed, double Rate, double Seconds) {
  Rng G(mixSeed(Seed, 0x0a11));
  std::vector<int64_t> Due;
  for (double T = 0;;) {
    T += -std::log(1.0 - G.nextDouble()) / Rate;
    if (T >= Seconds)
      return Due;
    Due.push_back(static_cast<int64_t>(T * 1e9));
  }
}

Phase openLoop(Live &L, uint64_t Seed, double Rate, double Seconds) {
  Phase P;
  std::vector<int64_t> Offsets = arrivals(Seed, Rate, Seconds);
  size_t N = Offsets.size();
  P.Sent = N;
  P.BeginNs = wallNs() + 20'000'000;
  for (int64_t Off : Offsets)
    P.DueNs.push_back(P.BeginNs + Off);
  P.SentNs.assign(N, 0);

  std::vector<std::vector<Response>> Got(Conns);
  std::vector<int64_t> Cpu(Conns + 1, 0);
  std::vector<uint64_t> Lost(Conns, 0);
  std::atomic<int> Running{Conns + 1};
  std::vector<std::thread> Threads;
  Threads.emplace_back([&] {
    int64_t C0 = threadCpuNs();
    for (size_t I = 0; I < N; ++I) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(P.DueNs[I])));
      P.SentNs[I] = wallNs();
      L.Clients[I % Conns].sendLine(
          requestLine(I, mixOf(Seed, I), Seed));
    }
    Cpu[Conns] = threadCpuNs() - C0;
    --Running;
  });
  for (int C = 0; C < Conns; ++C)
    Threads.emplace_back([&, C] {
      int64_t C0 = threadCpuNs();
      size_t Want = N / Conns + (static_cast<size_t>(C) < N % Conns ? 1 : 0);
      for (size_t K = 0; K < Want; ++K) {
        std::string Line;
        Response R;
        if (!L.Clients[static_cast<size_t>(C)].recvLine(Line)) {
          Lost[static_cast<size_t>(C)] = Want - K;
          break;
        }
        if (parseResponse(Line, wallNs(), R) && R.Id < N)
          Got[static_cast<size_t>(C)].push_back(R);
        else
          ++Lost[static_cast<size_t>(C)];
      }
      Cpu[static_cast<size_t>(C)] = threadCpuNs() - C0;
      --Running;
    });
  int64_t C0 = threadCpuNs();
  while (Running > 0) {
    P.CanaryMs.push_back(canaryMs());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  P.ClientCpuNs = threadCpuNs() - C0;
  for (std::thread &T : Threads)
    T.join();
  P.EndNs = wallNs();
  for (int C = 0; C < Conns; ++C) {
    P.Responses.insert(P.Responses.end(), Got[C].begin(), Got[C].end());
    P.Lost += Lost[static_cast<size_t>(C)];
  }
  for (int64_t Ns : Cpu)
    P.ClientCpuNs += Ns;
  return P;
}

/// Each connection keeps ClosedDepth requests outstanding until
/// \p Seconds pass, then drains.
Phase closedLoop(Live &L, uint64_t Seed, double Seconds, uint64_t FirstId) {
  Phase P;
  std::atomic<uint64_t> NextId{FirstId};
  std::vector<std::vector<Response>> Got(Conns);
  std::vector<uint64_t> Sent(Conns, 0), Lost(Conns, 0);
  P.BeginNs = wallNs();
  int64_t End = P.BeginNs + static_cast<int64_t>(Seconds * 1e9);
  std::vector<std::thread> Threads;
  for (int C = 0; C < Conns; ++C)
    Threads.emplace_back([&, C] {
      serve::Client &Cl = L.Clients[static_cast<size_t>(C)];
      auto SendNext = [&] {
        uint64_t Id = NextId.fetch_add(1);
        ++Sent[static_cast<size_t>(C)];
        Cl.sendLine(requestLine(Id, mixOf(Seed, Id), Seed));
      };
      int Out = 0;
      for (; Out < ClosedDepth; ++Out)
        SendNext();
      while (Out > 0) {
        std::string Line;
        Response R;
        if (!Cl.recvLine(Line)) {
          Lost[static_cast<size_t>(C)] += static_cast<uint64_t>(Out);
          break;
        }
        --Out;
        int64_t Now = wallNs();
        if (parseResponse(Line, Now, R))
          Got[static_cast<size_t>(C)].push_back(R);
        else
          ++Lost[static_cast<size_t>(C)];
        if (Now < End) {
          SendNext();
          ++Out;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  P.EndNs = End;
  for (int C = 0; C < Conns; ++C) {
    P.Responses.insert(P.Responses.end(), Got[C].begin(), Got[C].end());
    P.Sent += Sent[static_cast<size_t>(C)];
    P.Lost += Lost[static_cast<size_t>(C)];
  }
  return P;
}

/// Completions per second: the median over \p Slices equal slices of the
/// phase, so one stall of the shared host moves it less than a mean.
double capacity(const Phase &P, int Slices = 10) {
  std::vector<double> Done(Slices, 0);
  double SliceNs = static_cast<double>(P.EndNs - P.BeginNs) / Slices;
  for (const Response &X : P.Responses)
    if (X.RecvNs >= P.BeginNs && X.RecvNs < P.EndNs)
      Done[std::min(static_cast<size_t>(
                        static_cast<double>(X.RecvNs - P.BeginNs) / SliceNs),
                    Done.size() - 1)] += 1;
  for (double &D : Done)
    D /= SliceNs / 1e9;
  return median(Done);
}

} // namespace

Report bamboo::e2e::runServe(const RunOptions &O, Spans &S, bool Chaos) {
  Report R;
  // About a tenth of the closed-loop capacity, so requests rarely queue
  // behind each other: when other tenants take CPUs from the shared host,
  // a queue amplifies the slowdown. At 150 req/s the p50 of ten runs
  // ranged over 3x; at 50 req/s over 1.5x.
  const double Rate = 50.0;

  std::unique_ptr<Live> L;
  std::vector<std::string> Expected;
  double SetupS = timedSetup(O.SetupReps, [&](bool Keep) {
    std::vector<std::string> Sums;
    for (const MixEntry &M : Mix) {
      std::string Out;
      if (std::string(M.Engine) != "sim")
        Out = oracleOutput(readFile(O.AppsDir + "/" + M.App + ".bb"),
                           std::string(M.App) + ".bb",
                           {serve::sizeArg(Size)}, O.Seed);
      Sums.push_back(formatString(
          "%08x", resilience::crc32(Out.data(), Out.size())));
    }
    auto Started = startServer(O, Chaos, O.Traced, Sums);
    std::string Print;
    for (size_t M = 0; M < MixSize; ++M)
      Print += Sums[M] + formatString(":%llu ", static_cast<unsigned long long>(
                                                    Started->Cycles[M]));
    if (Keep) {
      L = std::move(Started);
      Expected = Sums;
    }
    return Print;
  });

  int64_t Cpu0 = processCpuNs();
  Phase Open = openLoop(*L, O.Seed, Rate, O.Seconds);
  int64_t ServerCpuNs = processCpuNs() - Cpu0 - Open.ClientCpuNs;

  // Every request sent must get exactly one correct answer; anything else
  // (an error, a wrong checksum or cycle count, a lost line) fails.
  std::vector<double> FromDue;
  std::vector<bool> Seen(Open.Sent, false);
  for (const Response &X : Open.Responses)
    if (L->valid(X, O.Seed) && !Seen[X.Id]) {
      Seen[X.Id] = true;
      FromDue.push_back(nsToMs(X.RecvNs - Open.DueNs[X.Id]));
    }
  R.Attempted += Open.Sent;
  R.Failed += Open.Sent - FromDue.size();
  auto Tally = [&](const Phase &P, const Live &Srv) {
    R.Attempted += P.Sent;
    R.Failed += P.Lost;
    for (const Response &X : P.Responses)
      R.Failed += Srv.valid(X, O.Seed) ? 0 : 1;
  };

  double CpuPerReq =
      nsToMs(ServerCpuNs) / static_cast<double>(FromDue.size());
  // Requests overlap, so they cannot each be paired with a canary as a
  // closed loop's passes are; the open loop's median canary scales both.
  R.HostFactor = hostFactor(median(Open.CanaryMs));
  if (!O.Traced) {
    R.Metrics["setup_s"] = SetupS;
    R.Metrics["latency_p50_ms"] = median(FromDue) / R.HostFactor;
    R.Metrics["cpu_ms_per_op"] = CpuPerReq / R.HostFactor;
    return R;
  }

  // Capacity and tracing overhead: short closed loops alternate between
  // this traced server and an untraced twin, so both see the same host.
  std::vector<double> Overhead, Capacity;
  {
    auto Plain = startServer(O, Chaos, false, Expected);
    uint64_t TracedId = Open.Sent, PlainId = 0;
    double SliceS = std::max(O.Seconds / 16, 0.5);
    for (int I = 0; I < 4; ++I) {
      Phase T = closedLoop(*L, O.Seed, SliceS, TracedId);
      Phase U = closedLoop(*Plain, O.Seed, SliceS, PlainId);
      Tally(T, *L);
      Tally(U, *Plain);
      TracedId += T.Sent;
      PlainId += U.Sent;
      Capacity.push_back(capacity(U));
      if (double Traced = capacity(T, 1); Traced > 0)
        Overhead.push_back((capacity(U, 1) / Traced - 1.0) * 100.0);
    }
  }
  // A worker records RequestEnd after writing the response, so the trace
  // is read only once the workers have been joined.
  serve::ServerStats Stats = L->Srv->stats();
  L->Srv->shutdown();

  // Job spans come from the server's RequestBegin/End events
  // (microseconds since start()); queue time is the server's latency_us
  // minus the job span.
  std::map<uint64_t, std::pair<int64_t, int64_t>> Job;
  std::map<uint64_t, int> Worker;
  for (const support::TraceEvent &E : L->Trace.events()) {
    uint64_t Id = static_cast<uint64_t>(E.Object);
    int64_t At = L->StartNs + static_cast<int64_t>(E.Time) * 1000;
    if (E.Kind == support::TraceEventKind::RequestBegin) {
      Job[Id].first = At;
      Worker[Id] = E.Core;
    } else if (E.Kind == support::TraceEventKind::RequestEnd) {
      Job[Id].second = At;
    }
  }
  std::vector<double> Wire, Queue, JobMs, Lag;
  uint64_t Cached = 0, Retries = 0, Exhausted = 0;
  for (const Response &X : Open.Responses) {
    Retries += X.Retries;
    Exhausted += X.Code == "retries-exhausted" ? 1 : 0;
    Cached += X.Cached ? 1 : 0;
    auto It = Job.find(X.Id);
    if (It == Job.end())
      die("serve: no job span for request %llu",
          static_cast<unsigned long long>(X.Id));
    auto [Begin, End] = It->second;
    double JMs = nsToMs(End - Begin);
    double LatMs = static_cast<double>(X.LatencyUs) / 1e3;
    JobMs.push_back(JMs);
    Queue.push_back(LatMs - JMs);
    Wire.push_back(nsToMs(X.RecvNs - Open.SentNs[X.Id]) - LatMs);
    int Req = S.add("serve", "serve.request", Open.DueNs[X.Id], X.RecvNs,
                    100 + static_cast<int>(X.Id % 32));
    S.add("serve", "serve.queue", End - static_cast<int64_t>(X.LatencyUs) * 1000,
          Begin, 100 + static_cast<int>(X.Id % 32), Req);
    S.add("serve", "serve.job", Begin, End, 10 + Worker[X.Id], Req);
  }
  for (size_t I = 0; I < Open.SentNs.size(); ++I)
    Lag.push_back(nsToMs(Open.SentNs[I] - Open.DueNs[I]));

  double N = static_cast<double>(Open.Responses.size());
  R.Metrics["serve.latency_p99_ms"] = quantile(FromDue, 0.99);
  R.Metrics["serve.wire_ms_p50"] = median(Wire);
  R.Metrics["serve.queue_ms_p50"] = median(Queue);
  R.Metrics["serve.queue_ms_p99"] = quantile(Queue, 0.99);
  R.Metrics["serve.job_ms_p50"] = median(JobMs);
  R.Metrics["serve.job_ms_p99"] = quantile(JobMs, 0.99);
  R.Metrics["serve.cpu_ms_per_req"] = CpuPerReq;
  R.Metrics["serve.capacity_rps"] = median(Capacity);
  R.Metrics["serve.synth_runs"] = static_cast<double>(Stats.SynthRuns);
  R.Metrics["serve.synth_hit_ratio"] = static_cast<double>(Cached) / N;
  R.Metrics["serve.retries"] = static_cast<double>(Retries);
  R.Metrics["serve.retries_exhausted"] = static_cast<double>(Exhausted);
  R.Metrics["serve.gen_lag_ms_p99"] = quantile(Lag, 0.99);
  R.Metrics["trace.overhead_pct"] = median(Overhead);
  return R;
}
