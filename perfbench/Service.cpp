//===- Service.cpp - The svc_shared_key and svc_own_keys workloads --------===//
//
// Part of the usuba-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One generator thread sends open-loop Poisson traffic to 64
/// CipherService sessions (DES/bitslice/SSE, 128 blocks per batch).
/// Requests are 64 bytes, except one in 16 which is 4 KiB and so takes
/// the direct full-batch path beside the coalescer. Completions arrive
/// through the Completion callback; latency runs from the scheduled send
/// time, so a stalled generator cannot hide queueing.
///
/// A run is one phase at the workload's nominal rate (latency_us: its
/// median latency) followed by a fixed rate ladder (throughput_mib_s:
/// the request bytes per second completed at the highest rung that
/// meets the SLO).
/// svc_shared_key gives all sessions one key, so their blocks share
/// batches; svc_own_keys gives each session its own key, so nothing
/// coalesces and every small request waits for the deadline flush.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ciphers/KernelCache.h"
#include "service/CipherService.h"
#include "support/Telemetry.h"
#include "types/Arch.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <exception>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include <sys/prctl.h>

using namespace usuba;

namespace perfbench {
namespace {

constexpr unsigned NumSessions = 64;
constexpr size_t SmallBytes = 64, LargeBytes = 4096;
constexpr unsigned LargeEvery = 16;
constexpr double SloP99Us = 5000;
constexpr unsigned FlushDeadlineUs = 200; ///< the service's default
constexpr size_t RingSlots = 4096;
constexpr unsigned SetupRepeats = 3;
/// Latency percentiles are taken per window, and the result is a low
/// percentile over the windows: contention on the host comes and goes
/// within seconds and inflates the windows it hits, while a slower
/// service is slower in every window. The SLO's p99 uses 0.5-s windows
/// of at least 1000 requests (ten beyond the p99) and takes their lower
/// quartile; the reported median uses 0.1-s windows of at least 100
/// requests and takes their 10th percentile.
struct WindowRule {
  double Seconds;
  size_t MinRequests;
  double Pick;
};
constexpr WindowRule P99Windows{0.5, 1000, 0.25}, P50Windows{0.1, 100, 0.1};
/// A rung whose generator falls this far behind is over capacity.
constexpr double OverloadLatenessS = 0.1;
constexpr double NominalShare = 0.7; ///< of a run; the ladder gets the rest
constexpr double Missed = std::numeric_limits<double>::infinity();

struct Profile {
  const char *Name;
  bool OwnKeys;
  double NominalRps;
  std::vector<double> Ladder;
};

/// The ladders' rungs are far apart, so that the host's drift cannot
/// decide which is the last to pass: the capacity of both workloads
/// moves between about 150k and 400k req/s with the host, and the top
/// rung is beyond what one generator thread can send.
Profile profileFor(bool OwnKeys) {
  if (OwnKeys)
    return {"svc_own_keys", true, 4000, {10000, 40000, 1000000}};
  return {"svc_shared_key", false, 100000, {30000, 100000, 1000000}};
}

/// One phase of traffic: a rate held for a duration, and what it
/// measured. Per-request data lives in the generator's buffers only
/// while the phase runs, so the benchmark's own memory is the same in
/// every run.
struct Phase {
  std::atomic<uint64_t> Completed{0};
  /// Set once the phase stops waiting; later completions are failures.
  std::atomic<bool> Closed{false};
  float *LatencyUs = nullptr; ///< per request; Missed when failed
  uint64_t Issued = 0;
  uint64_t Failed = 0;
  uint64_t SubmittedBytes = 0; ///< of the requests the service accepted
  bool Overloaded = false; ///< stopped early: the generator fell behind
  /// Requests due and not completed: the maximum, and the mean over
  /// each half of the phase.
  double BacklogMax = 0, BacklogEarly = 0, BacklogLate = 0;
  double P50Us = 0, P99Us = 0; ///< over windows, see WindowRule
  double MeanLatencyUs = 0, MeanLatenessUs = 0, LatenessP99Us = 0;
  double SubmitP50Us = 0, SubmitP99Us = 0;
};

/// A request in flight. Reused once its completion has run.
struct Slot {
  Phase *P = nullptr;
  uint64_t Seq = 0;
  uint64_t SchedNs = 0;
  std::atomic<bool> Busy{false};
  uint8_t Data[LargeBytes];
};

/// The request a session's correctness sample used.
struct Sample {
  bool Taken = false;
  uint64_t Counter = 0;
  size_t Length = 0;
  std::vector<uint8_t> Data;
};

class Generator {
public:
  /// \p MaxRequests bounds the requests of one phase.
  Generator(const Profile &Prof, uint64_t Seed, size_t MaxRequests)
      : Prof(Prof), Seed(Seed), Rng(Seed), LatencyUs(MaxRequests, 0),
        LatenessUs(MaxRequests, 0), SubmitUs(MaxRequests, 0),
        SchedNs(MaxRequests, 0), Slots(new Slot[RingSlots]) {}

  /// Builds the service, opens the sessions and warms every one.
  /// Returns the per-session openSession times (ms), empty on failure.
  std::vector<double> setUp(Result &Res) {
    Service.reset(); // the previous repetition's service, if any
    kernelCacheClear();
    ServiceConfig Svc;
    Svc.FlushDeadline = std::chrono::microseconds(FlushDeadlineUs);
    Svc.CoalesceOnly = false;
    Service = std::make_unique<CipherService>(Svc);
    Sids.clear();
    Keys.clear();
    Nonces.clear();
    Counters.assign(NumSessions, 0);
    std::vector<double> OpenMs;
    for (unsigned S = 0; S < NumSessions; ++S) {
      Keys.push_back(seededBytes(Seed, Prof.OwnKeys ? 500 + S : 500, 8));
      Nonces.push_back(seededBytes(Seed, 600 + S, 8));
      Tracer::Scope Span("service.openSession");
      const uint64_t T0 = nowNs();
      SessionResult R = Service->openSession(config(), Keys[S].data(), 8);
      OpenMs.push_back(double(nowNs() - T0) / 1e6);
      if (!R) {
        std::fprintf(stderr, "%s: openSession: %s\n", Prof.Name,
                     R.errorText().c_str());
        Res.fail();
        return {};
      }
      Sids.push_back(R.id());
    }
    // Warm-up: one small and one large request per session.
    std::vector<std::future<void>> Done;
    std::vector<uint8_t> Warm(NumSessions * (SmallBytes + LargeBytes));
    uint8_t *P = Warm.data();
    for (unsigned S = 0; S < NumSessions; ++S)
      for (size_t Len : {SmallBytes, LargeBytes}) {
        Done.push_back(Service->submitCtrXor(Sids[S], P, Len, Nonces[S].data(),
                                             Counters[S]));
        Counters[S] += Len / 8;
        P += Len;
      }
    Service->flush();
    for (std::future<void> &F : Done)
      F.get();
    return OpenMs;
  }

  CipherConfig config() const {
    CipherConfig C;
    C.Id = CipherId::Des;
    C.Slicing = SlicingMode::Bitslice;
    C.Target = &archSSE();
    pinKnobs(C, 1);
    return C;
  }

  CipherService &service() { return *Service; }

  /// Sends Poisson traffic at \p Rps for \p Seconds, then waits for the
  /// stragglers. With \p SampleSessions, each session's first request
  /// in the phase is a zero buffer kept for the correctness check. The
  /// phase lives as long as the generator, which outlives the service.
  Phase &run(double Rps, double Seconds, bool SampleSessions) {
    // Sleeps end within a microsecond or so of their deadline, not
    // within the default 50 us timer slack.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    Phase &P = Phases.emplace_back();
    P.LatencyUs = LatencyUs.data();
    std::exponential_distribution<double> Gap(Rps);
    const size_t Cap = LatencyUs.size();
    std::fill(LatencyUs.begin(), LatencyUs.end(), float(Missed));
    size_t NumLate = 0, NumSubmit = 0;
    const uint64_t Start = nowNs();
    const uint64_t End = Start + uint64_t(Seconds * 1e9);
    double Next = double(Start);
    double BacklogSum[2] = {0, 0};
    uint64_t BacklogN[2] = {0, 0};
    for (;;) {
      Next += Gap(Rng) * 1e9;
      const uint64_t Sched = uint64_t(Next);
      if (Sched >= End)
        break;
      waitUntil(Sched);
      if (double(nowNs() - Sched) / 1e9 > OverloadLatenessS) {
        P.Overloaded = true;
        break;
      }
      const uint64_t Seq = P.Issued++;
      if (Seq >= Cap) {
        ++P.Failed;
        continue;
      }
      SchedNs[Seq] = Sched;
      LatenessUs[NumLate++] = float(double(nowNs() - Sched) / 1e3);
      const unsigned S = unsigned(Rng() % NumSessions);
      const size_t Len = Rng() % LargeEvery == 0 ? LargeBytes : SmallBytes;

      Slot &Sl = Slots[NextSlot];
      if (Sl.Busy.load(std::memory_order_acquire)) {
        ++P.Failed; // refused: the ring of in-flight requests is full
        continue;
      }
      NextSlot = (NextSlot + 1) % RingSlots;
      Sl.P = &P;
      Sl.Seq = Seq;
      Sl.SchedNs = Sched;
      Sl.Busy.store(true, std::memory_order_relaxed);
      uint8_t *Data = Sl.Data;
      if (SampleSessions && !Samples[S].Taken) {
        Samples[S] = {true, Counters[S], Len, std::vector<uint8_t>(Len, 0)};
        Data = Samples[S].Data.data();
      }
      try {
        Tracer::Scope Span("service.submitCtrXor", Seq);
        const uint64_t T0 = nowNs();
        Service->submitCtrXor(Sids[S], Data, Len, Nonces[S].data(),
                              Counters[S], [&Sl] { complete(Sl); });
        SubmitUs[NumSubmit++] = float(double(nowNs() - T0) / 1e3);
      } catch (const std::exception &E) {
        std::fprintf(stderr, "%s: submit: %s\n", Prof.Name, E.what());
        Sl.Busy.store(false, std::memory_order_release);
        ++P.Failed;
        continue;
      }
      Counters[S] += (Len + 7) / 8;
      P.SubmittedBytes += Len;
      // Requests due but not done: in the service, plus those the
      // generator has not sent yet because it runs late.
      const double Backlog =
          double(P.Issued - P.Completed.load(std::memory_order_relaxed)) +
          double(nowNs() - Sched) / 1e9 * Rps;
      P.BacklogMax = std::max(P.BacklogMax, Backlog);
      const int Half = Sched < Start + (End - Start) / 2 ? 0 : 1;
      BacklogSum[Half] += Backlog;
      ++BacklogN[Half];
    }
    // Stragglers get one second, then count as failed.
    const uint64_t Accepted = P.Issued - P.Failed;
    const uint64_t Deadline = nowNs() + 1000000000ull;
    while (P.Completed.load(std::memory_order_acquire) < Accepted &&
           nowNs() < Deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    P.Closed.store(true, std::memory_order_release);
    P.Failed += Accepted - P.Completed.load(std::memory_order_acquire);
    P.BacklogEarly = BacklogN[0] ? BacklogSum[0] / double(BacklogN[0]) : 0;
    P.BacklogLate = BacklogN[1] ? BacklogSum[1] / double(BacklogN[1]) : 0;
    summarize(P, std::min<size_t>(P.Issued, Cap), NumLate, NumSubmit);
    return P;
  }

  /// Checks every sampled request against the reference; returns the
  /// number checked and adds mismatches to \p Res.
  uint64_t checkSamples(Result &Res) {
    uint64_t Checked = 0;
    for (unsigned S = 0; S < NumSessions; ++S) {
      if (!Samples[S].Taken)
        continue;
      ++Checked;
      const std::vector<uint8_t> Zero(Samples[S].Length, 0);
      RefCipher Ref(CipherId::Des, Keys[S].data());
      if (!checkCtr(Ref, Nonces[S].data(), Samples[S].Counter, Zero.data(),
                    Samples[S].Data.data(), Samples[S].Length, 0,
                    Samples[S].Length / 8)) {
        std::fprintf(stderr, "%s: session %u output differs from reference\n",
                     Prof.Name, S);
        Res.fail();
      }
    }
    return Checked;
  }

private:
  /// Fills \p P's summary from the first \p N requests' buffers.
  void summarize(Phase &P, size_t N, size_t NumLate, size_t NumSubmit) {
    auto Doubles = [](const std::vector<float> &V, size_t Count) {
      return std::vector<double>(V.begin(), V.begin() + Count);
    };
    const std::vector<double> Lat = Doubles(LatencyUs, N);
    const std::vector<double> Late = Doubles(LatenessUs, NumLate);
    const std::vector<double> Sub = Doubles(SubmitUs, NumSubmit);
    P.P50Us = windowQuantile(Lat, 0.5, P50Windows);
    P.P99Us = windowQuantile(Lat, 0.99, P99Windows);
    for (double L : Lat)
      P.MeanLatencyUs += L / double(Lat.size());
    for (double L : Late)
      P.MeanLatenessUs += L / double(Late.size());
    P.LatenessP99Us = quantile(Late, 0.99);
    P.SubmitP50Us = quantile(Sub, 0.5);
    P.SubmitP99Us = quantile(Sub, 0.99);
  }

  /// The \p Q quantile of each of the phase's windows of \p Rule that
  /// holds enough requests, picked over the windows at Rule.Pick; the
  /// whole phase's quantile when no window is that full.
  double windowQuantile(const std::vector<double> &Lat, double Q,
                        const WindowRule &Rule) const {
    if (Lat.empty())
      return Missed;
    std::map<uint64_t, std::vector<double>> Windows;
    for (size_t I = 0; I < Lat.size(); ++I)
      Windows[uint64_t(double(SchedNs[I] - SchedNs[0]) / 1e9 / Rule.Seconds)]
          .push_back(Lat[I]);
    std::vector<double> PerWindow;
    for (const auto &[Index, W] : Windows)
      if (W.size() >= Rule.MinRequests)
        PerWindow.push_back(quantile(W, Q));
    return PerWindow.empty() ? quantile(Lat, Q)
                             : quantile(PerWindow, Rule.Pick);
  }

  static void complete(Slot &Sl) {
    Phase &P = *Sl.P;
    if (!P.Closed.load(std::memory_order_acquire))
      P.LatencyUs[Sl.Seq] = float(double(nowNs() - Sl.SchedNs) / 1e3);
    Tracer::instance().record("request", Sl.SchedNs, nowNs(), Sl.Seq);
    Sl.Busy.store(false, std::memory_order_release);
    P.Completed.fetch_add(1, std::memory_order_release);
  }

  /// Sleeps until \p Ns; within the last few microseconds it yields
  /// instead, so it never holds a CPU the service's threads want.
  static void waitUntil(uint64_t Ns) {
    for (;;) {
      const uint64_t Now = nowNs();
      if (Now >= Ns)
        return;
      if (Ns - Now > 20000)
        std::this_thread::sleep_for(std::chrono::nanoseconds(Ns - Now - 10000));
      else
        std::this_thread::yield();
    }
  }

  const Profile &Prof;
  uint64_t Seed;
  std::mt19937_64 Rng;
  std::vector<float> LatencyUs, LatenessUs, SubmitUs; ///< per request
  std::vector<uint64_t> SchedNs; ///< scheduled send time per request
  std::deque<Phase> Phases;
  std::unique_ptr<Slot[]> Slots;
  size_t NextSlot = 0;
  std::unique_ptr<CipherService> Service;
  std::vector<SessionId> Sids;
  std::vector<std::vector<uint8_t>> Keys, Nonces;
  std::vector<uint64_t> Counters;
  Sample Samples[NumSessions];
};

/// Stage histogram snapshots of the service, for per-phase deltas.
struct Stages {
  static constexpr const char *Names[4] = {
      "service.queue_wait_ns", "service.coalesce_wait_ns",
      "service.kernel_ns", "service.callback_ns"};
  Histogram::Snapshot S[4];

  static Stages now() {
    Stages St;
    for (int I = 0; I < 4; ++I)
      St.S[I] = Telemetry::instance().histogramRef(Names[I]).snapshot();
    return St;
  }
  void subtract(const Stages &Earlier) {
    for (int I = 0; I < 4; ++I)
      S[I].subtract(Earlier.S[I]);
  }
};

ServiceStats delta(ServiceStats A, const ServiceStats &B) {
  A.Requests -= B.Requests;
  A.DirectBatches -= B.DirectBatches;
  A.CoalescedBatches -= B.CoalescedBatches;
  A.MultiSessionBatches -= B.MultiSessionBatches;
  A.CoalescedBlocks -= B.CoalescedBlocks;
  A.CoalescedSlots -= B.CoalescedSlots;
  A.DeadlineFlushes -= B.DeadlineFlushes;
  return A;
}

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

} // namespace

Result runService(const Options &Opts, bool OwnKeys) {
  const Profile Prof = profileFor(OwnKeys);
  Result Res;
  const double NominalS = Opts.Seconds * NominalShare;
  const double RungS =
      Opts.Seconds * (1 - NominalShare) / double(Prof.Ladder.size());
  double MaxRequests = Prof.NominalRps * NominalS;
  for (double Rps : Prof.Ladder)
    MaxRequests = std::max(MaxRequests, Rps * RungS);
  Generator Gen(Prof, Opts.Seed, size_t(MaxRequests * 1.2) + 1024);

  std::vector<double> SetupS, OpenMs;
  for (unsigned Rep = 0; Rep < (Opts.Trace ? 1 : SetupRepeats); ++Rep) {
    const auto T0 = Clock::now();
    OpenMs = Gen.setUp(Res);
    if (OpenMs.empty()) {
      Res.Attempted = std::max<uint64_t>(Res.Attempted, 1);
      return Res;
    }
    SetupS.push_back(secondsSince(T0));
  }
  const KernelCacheStats Cache = kernelCacheStats(); // since the last clear

  // The shards run the process-cached kernel: a compile of the same
  // config is a cache hit on the same rung.
  CipherResult Probe = UsubaCipher::compile(Gen.config());
  ++Res.Attempted;
  if (!Probe || !Probe.cipher().isNative()) {
    std::fprintf(stderr, "%s: the shard kernel is not native\n", Prof.Name);
    Res.fail();
  }

  std::string Ladder;
  for (double R : Prof.Ladder)
    Ladder += (Ladder.empty() ? "" : ", ") + std::to_string(int(R));
  char Head[512];
  std::snprintf(Head, sizeof(Head),
                "{\"workload\": \"%s\", \"sessions\": %u, \"keys\": %u, "
                "\"request_bytes\": [%zu, %zu], \"large_every\": %u, "
                "\"nominal_rps\": %.0f, \"ladder_rps\": [%s], "
                "\"slo_p99_us\": %.0f, \"flush_deadline_us\": %u, "
                "\"setup_repeats\": %zu, \"cipher\": ",
                Prof.Name, NumSessions, OwnKeys ? NumSessions : 1, SmallBytes,
                LargeBytes, LargeEvery, Prof.NominalRps, Ladder.c_str(),
                SloP99Us, FlushDeadlineUs, SetupS.size());
  Res.ConfigJson = Head + configJson(Gen.config()) + "}";

  if (!Opts.Trace) {
    const Phase &Nominal =
        Gen.run(Prof.NominalRps, NominalS, /*SampleSessions=*/true);
    Res.Attempted += Nominal.Issued;
    Res.Failed += Nominal.Failed;
    // Before the ladder, whose top rung overloads the service on purpose.
    Res.set("peak_rss_mib", peakRssMib(), "MiB");

    // The ladder: the highest rung whose p99 meets the limit with no
    // failures and no growing backlog. The request bytes completed per
    // second at that rung are throughput_mib_s. A rung gets a second
    // attempt, so a burst of contention on the host does not end the
    // climb by itself.
    double SloMiBs = 0;
    for (double Rps : Prof.Ladder) {
      double Achieved = 0;
      for (int Attempt = 0; Attempt < 2 && Achieved == 0; ++Attempt) {
        const Phase &Rung = Gen.run(Rps, RungS, false);
        const bool Growing = Rung.BacklogLate > 2 * Rung.BacklogEarly + 32;
        if (!Rung.Failed && !Rung.Overloaded && !Growing &&
            Rung.P99Us <= SloP99Us)
          Achieved = double(Rung.SubmittedBytes) / (1024.0 * 1024.0) / RungS;
        else
          std::fprintf(stderr,
                       "%s: %.0f req/s misses: failed %llu, overloaded %d, "
                       "backlog %.1f -> %.1f, p99 %.1f us\n",
                       Prof.Name, Rps,
                       static_cast<unsigned long long>(Rung.Failed),
                       int(Rung.Overloaded), Rung.BacklogEarly,
                       Rung.BacklogLate, Rung.P99Us);
      }
      if (Achieved == 0)
        break;
      SloMiBs = Achieved;
    }
    Res.Attempted += Gen.checkSamples(Res);
    // No p99_us: on a contended VM the nominal-rate p99 swings between
    // runs far beyond any bound a gate could use (see README.md). The
    // SLO ladder still judges rungs by it, and traced runs report the
    // stages' p99s.
    Res.set("latency_us", Nominal.P50Us, "us");
    Res.set("throughput_mib_s", SloMiBs, "MiB/s");
    Res.set("setup_s", median(SetupS), "s");
    return Res;
  }

  // Traced run: the nominal rate untraced, then traced with telemetry on.
  const Phase &Untraced = Gen.run(Prof.NominalRps, NominalS, true);
  Telemetry::instance().setEnabled(true);
  Tracer::instance().enable();
  const Stages Before = Stages::now();
  const ServiceStats Stats0 = Gen.service().stats();
  const Phase &Nominal = Gen.run(Prof.NominalRps, NominalS, false);
  Stages St = Stages::now();
  St.subtract(Before);
  const ServiceStats D = delta(Gen.service().stats(), Stats0);
  Telemetry::instance().setEnabled(false);
  Res.Attempted += Untraced.Issued + Nominal.Issued + Gen.checkSamples(Res);
  Res.Failed += Untraced.Failed + Nominal.Failed;

  Res.set("trace_overhead",
          ratio(Nominal.P50Us, Untraced.P50Us), "ratio");
  Res.set("service.submit_us.p50", Nominal.SubmitP50Us, "us");
  Res.set("service.submit_us.p99", Nominal.SubmitP99Us, "us");
  const char *Keys[4] = {"queue_wait", "coalesce_wait", "kernel", "callback"};
  double StageMeanUs = 0;
  for (int I = 0; I < 4; ++I) {
    const std::string K = std::string("service.") + Keys[I] + "_us.";
    Res.set(K + "p50", double(St.S[I].percentile(0.5)) / 1e3, "us");
    Res.set(K + "p99", double(St.S[I].percentile(0.99)) / 1e3, "us");
    StageMeanUs += St.S[I].mean() / 1e3;
  }
  Res.set("service.stage_closure",
          ratio(StageMeanUs, Nominal.MeanLatencyUs - Nominal.MeanLatenessUs),
          "ratio");
  Res.set("service.fill_ratio", D.fillRatio(), "ratio");
  Res.set("service.direct_batch_ratio",
          ratio(double(D.DirectBatches),
                double(D.DirectBatches + D.CoalescedBatches)),
          "ratio");
  Res.set("service.multi_session_ratio",
          ratio(double(D.MultiSessionBatches), double(D.CoalescedBatches)),
          "ratio");
  Res.set("service.deadline_flush_ratio",
          ratio(double(D.DeadlineFlushes), double(D.CoalescedBatches)),
          "ratio");
  if (OwnKeys)
    Res.set("service.timer_overshoot_us",
            St.S[1].mean() / 1e3 - FlushDeadlineUs, "us");
  Res.set("service.open_session_ms", median(OpenMs), "ms");
  Res.set("ciphers.kernel_cache_hits", double(Cache.Hits), "count");
  Res.set("ciphers.kernel_cache_misses", double(Cache.Misses), "count");
  Res.set("loadgen.lateness_us.p99", Nominal.LatenessP99Us, "us");
  Res.set("loadgen.backlog_max", Nominal.BacklogMax, "count");

  if (Probe)
    measureBackEnd({&Probe.cipher()}, Res);
  return Res;
}

} // namespace perfbench
