//===- BulkCtr.cpp - The bulk_ctr workload --------------------------------===//
//
// Part of the usuba-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One caller encrypts 1 MiB messages in CTR mode through four cipher
/// configurations, and 4 KiB messages through one of them, measured
/// round-robin in short slices so that slow, host-wide drift lands on
/// all of them alike. Every message is checked against the reference
/// cipher on sampled blocks; the first message of each configuration is
/// checked in full.
///
/// throughput_mib_s is the geometric mean of the four 1 MiB lanes'
/// throughputs; latency_us is the time of one 4 KiB call.
///
/// The traced run adds the layer split of each configuration (kernel,
/// ECB overhead, CTR overhead), the pool, the C back end and the JIT,
/// and the compiler layers: a sweep of every (cipher, slicing) pair that
/// type-checks on AVX2, without and with translation validation, each
/// pair then run for one batch on the simulator against its reference.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ciphers/KernelCache.h"
#include "runtime/ThreadPool.h"
#include "support/Telemetry.h"
#include "types/Arch.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include <sched.h>

using namespace usuba;

namespace perfbench {
namespace {

constexpr size_t MessageBytes = size_t{1} << 20;
constexpr size_t SmallMessageBytes = 4096;
constexpr double SliceSeconds = 0.05;
/// A lane's throughput is the 95th percentile over its slices:
/// contention on the host comes and goes within seconds and slows the
/// slices it hits, while a slower data path is slower in every slice.
constexpr double SlicePick = 0.95;
/// The latency lane's figure is the 5th percentile over its slices of
/// each slice's median call time, by the same reasoning.
constexpr double LatencyPick = 0.05;
constexpr unsigned SetupRepeats = 3;
constexpr double MiB = 1024.0 * 1024.0;

/// One measured configuration.
struct Lane {
  /// "vslice", "hslice", "bitslice", "vslice_mt" or "vslice_4k"
  const char *Name = "";
  CipherId Id = CipherId::Rectangle;
  SlicingMode Slicing = SlicingMode::Vslice;
  bool MultiThread = false;
  /// Bytes per ctrXor call; the small lane gives latency_us, the others
  /// throughput_mib_s.
  size_t Bytes = MessageBytes;
  std::optional<UsubaCipher> Cipher;
  std::unique_ptr<RefCipher> Ref;
  std::vector<uint8_t> Nonce;
  uint64_t Counter = 0;
  /// Throughput of each slice, MiB/s; traced runs keep traced slices
  /// apart.
  std::vector<double> SliceMiBs, TracedSliceMiBs;
  /// Median call time of each untraced slice, microseconds.
  std::vector<double> SliceCallUs;

  bool small() const { return Bytes != MessageBytes; }
};

double laneRate(const std::vector<double> &SliceMiBs) {
  return quantile(SliceMiBs, SlicePick);
}

unsigned multiThreads() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

std::vector<Lane> makeLanes() {
  std::vector<Lane> L(5);
  auto Set = [](Lane &X, const char *Name, CipherId Id, SlicingMode Slicing,
                bool MultiThread, size_t Bytes) {
    X.Name = Name;
    X.Id = Id;
    X.Slicing = Slicing;
    X.MultiThread = MultiThread;
    X.Bytes = Bytes;
  };
  Set(L[0], "vslice", CipherId::Rectangle, SlicingMode::Vslice, false,
      MessageBytes);
  Set(L[1], "hslice", CipherId::Aes128, SlicingMode::Hslice, false,
      MessageBytes);
  Set(L[2], "bitslice", CipherId::Rectangle, SlicingMode::Bitslice, false,
      MessageBytes);
  Set(L[3], "vslice_mt", CipherId::Rectangle, SlicingMode::Vslice, true,
      MessageBytes);
  Set(L[4], "vslice_4k", CipherId::Rectangle, SlicingMode::Vslice, false,
      SmallMessageBytes);
  return L;
}

CipherConfig laneConfig(const Lane &L) {
  CipherConfig C;
  C.Id = L.Id;
  C.Slicing = L.Slicing;
  C.Target = &archAVX2();
  pinKnobs(C, L.MultiThread ? multiThreads() : 1);
  return C;
}

/// Compiles, keys and warms every lane (one CTR message each, which
/// also runs the native first-batch self-check). Returns false when a
/// lane did not compile.
bool setUp(std::vector<Lane> &Lanes, uint64_t Seed,
           std::vector<uint8_t> &Buf) {
  kernelCacheClear(); // every set-up pays the full compile and JIT
  for (size_t I = 0; I < Lanes.size(); ++I) {
    Lane &L = Lanes[I];
    const CipherConfig Config = laneConfig(L);
    CipherResult R = UsubaCipher::compile(Config);
    if (!R) {
      std::fprintf(stderr, "bulk_ctr: %s/%s: %s\n", cipherName(L.Id),
                   slicingName(L.Slicing), R.errorText().c_str());
      return false;
    }
    L.Cipher.emplace(std::move(R).take());
    L.Cipher->setThreadCount(Config.Threads);
    const std::vector<uint8_t> Key =
        seededBytes(Seed, 100 + I, L.Cipher->keyBytes());
    L.Cipher->setKey(Key.data(), Key.size());
    L.Ref = std::make_unique<RefCipher>(L.Id, Key.data());
    L.Nonce = seededBytes(Seed, 200 + I, 12);
    L.Counter = 0;
    L.Cipher->ctrXor(Buf.data(), Buf.size(), L.Nonce.data(), L.Counter);
  }
  return true;
}

/// Runs \p L for one slice; returns the slice's MiB/s and its median
/// call time in microseconds.
std::pair<double, double> runSlice(Lane &L, const std::vector<uint8_t> &Plain,
                                   std::vector<uint8_t> &Buf,
                                   std::mt19937_64 &Rng, Result &Res) {
  const unsigned B = L.Ref->blockBytes();
  const size_t Blocks = L.Bytes / B;
  const auto SliceStart = Clock::now();
  std::vector<double> CallUs;
  double TimedNs = 0;
  size_t Bytes = 0;
  do {
    std::memcpy(Buf.data(), Plain.data(), L.Bytes);
    {
      Tracer::Scope S("ciphers.ctrXor");
      const uint64_t T0 = nowNs();
      L.Cipher->ctrXor(Buf.data(), L.Bytes, L.Nonce.data(), L.Counter);
      const double Ns = double(nowNs() - T0);
      TimedNs += Ns;
      CallUs.push_back(Ns / 1e3);
    }
    Bytes += L.Bytes;
    ++Res.Attempted;
    for (int K = 0; K < 2; ++K)
      if (!checkCtr(*L.Ref, L.Nonce.data(), L.Counter, Plain.data(),
                    Buf.data(), L.Bytes, Rng() % Blocks, 1)) {
        Res.fail();
        break;
      }
    L.Counter += Blocks;
  } while (secondsSince(SliceStart) < SliceSeconds);
  return {double(Bytes) / MiB / (TimedNs / 1e9), median(std::move(CallUs))};
}

/// Pins the calling thread to one CPU at a time, cycling through the
/// CPUs it may use when constructed, and gives it that set back when
/// destroyed. Contention from other tenants of the host often sits on
/// one CPU for a whole run, and a thread the scheduler leaves there
/// would see only that CPU; cycling lets every lane sample every CPU.
/// Threads started while a CPU is pinned inherit it, so the pool's
/// workers must be running before the first pin.
class CpuRotation {
public:
  CpuRotation() {
    CPU_ZERO(&Allowed);
    if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
      return; // no rotation: next() does nothing
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Allowed))
        Cpus.push_back(C);
  }
  ~CpuRotation() {
    if (!Cpus.empty())
      sched_setaffinity(0, sizeof(Allowed), &Allowed);
  }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  /// Moves the calling thread to the next CPU.
  void next() {
    if (Cpus.empty())
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Next++ % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
  }

private:
  cpu_set_t Allowed;
  std::vector<int> Cpus;
  size_t Next = 0;
};

/// Round-robin over the lanes until \p Seconds elapse; the lane order
/// rotates every round. With \p Traced, odd rounds run with telemetry
/// and spans on and fill TracedSliceMiBs. Each slice runs on the next
/// CPU; the pool's workers, started during set-up, keep every CPU.
void measure(std::vector<Lane> &Lanes, double Seconds, bool Traced,
             const std::vector<uint8_t> &Plain, std::vector<uint8_t> &Buf,
             std::mt19937_64 &Rng, Result &Res) {
  CpuRotation Cpus;
  const auto Start = Clock::now();
  for (unsigned Round = 0; secondsSince(Start) < Seconds; ++Round) {
    const bool On = Traced && Round % 2 == 1;
    Telemetry::instance().setEnabled(On);
    if (On)
      Tracer::instance().enable();
    for (size_t K = 0; K < Lanes.size(); ++K) {
      Lane &L = Lanes[(Round + K) % Lanes.size()];
      Cpus.next();
      const auto [Rate, CallUs] = runSlice(L, Plain, Buf, Rng, Res);
      (On ? L.TracedSliceMiBs : L.SliceMiBs).push_back(Rate);
      if (!On)
        L.SliceCallUs.push_back(CallUs);
    }
  }
  Telemetry::instance().setEnabled(false);
}

// ---------------------------------------------------------------------------
// Traced-run layers.

/// TSC cycles per byte of \p Fn, which processes \p Bytes per call.
template <typename F> double cyclesPerByte(F &&Fn, size_t Bytes) {
  const uint64_t C0 = telemetryCycles();
  Fn();
  return double(telemetryCycles() - C0) / double(Bytes);
}

/// Kernel, ECB overhead and CTR overhead per single-thread lane,
/// measured interleaved. Telemetry stays off: these are the layers as
/// the untraced run executes them.
void layerSplit(std::vector<Lane> &Lanes, std::vector<uint8_t> &Buf,
                Result &Res) {
  const size_t KernelCalls = 256;
  std::map<std::string, std::vector<double>> Kernel, Ecb, Ctr;
  for (unsigned Rep = 0; Rep < 15; ++Rep)
    for (Lane &L : Lanes) {
      if (L.MultiThread || L.small())
        continue;
      UsubaCipher &C = *L.Cipher;
      const size_t BatchBytes = size_t{C.blocksPerCall()} * C.blockBytes();
      Kernel[L.Name].push_back(cyclesPerByte(
          [&] {
            Tracer::Scope S("runtime.rawKernelCall");
            for (size_t I = 0; I < KernelCalls; ++I)
              C.rawKernelCall();
          },
          KernelCalls * BatchBytes));
      Ecb[L.Name].push_back(cyclesPerByte(
          [&] {
            Tracer::Scope S("runtime.encryptBlocks");
            C.encryptBlocks(Buf.data(), Buf.data(),
                            MessageBytes / C.blockBytes());
          },
          MessageBytes));
      Ctr[L.Name].push_back(cyclesPerByte(
          [&] {
            Tracer::Scope S("ciphers.ctrXor");
            C.ctrXor(Buf.data(), MessageBytes, L.Nonce.data(), L.Counter);
          },
          MessageBytes));
      L.Counter += MessageBytes / C.blockBytes();
    }
  for (const Lane &L : Lanes) {
    if (L.MultiThread || L.small())
      continue;
    const std::string S = L.Name;
    const double K = median(Kernel[S]), E = median(Ecb[S]),
                 C = median(Ctr[S]);
    Res.set("runtime.kernel_cpb." + S, K, "c/B");
    Res.set("runtime.ecb_overhead_cpb." + S, E - K, "c/B");
    Res.set("ciphers.ctr_overhead_cpb." + S, C - E, "c/B");
    const CipherStats St = L.Cipher->stats();
    Res.set("core.kernel_gates." + S, double(St.KernelGates), "count");
    Res.set("core.kernel_depth." + S, double(St.KernelDepth), "count");
  }
}

/// Round trip of an empty parallelFor over the multi-thread lane's
/// participant count.
double poolDispatchUs() {
  const unsigned Slots = multiThreads();
  std::vector<double> Us;
  for (unsigned I = 0; I < 2000; ++I) {
    Tracer::Scope S("runtime.parallelFor");
    const uint64_t T0 = nowNs();
    ThreadPool::global().parallelFor(Slots, Slots, [](size_t, unsigned) {});
    Us.push_back(double(nowNs() - T0) / 1e3);
  }
  return median(Us);
}

/// The compiler layers: every (cipher, slicing) pair that type-checks on
/// AVX2 through the pipeline, JIT and kernel cache off, first without
/// and then with translation validation; then one batch per pair on the
/// simulator against the reference.
void compilerLayers(uint64_t Seed, Result &Res) {
  const CipherId Ids[] = {CipherId::Rectangle, CipherId::Des,
                          CipherId::Aes128,    CipherId::Chacha20,
                          CipherId::Serpent,   CipherId::Present};
  std::vector<CipherConfig> Pairs;
  for (CipherId Id : Ids)
    for (SlicingMode S : UsubaCipher::supportedSlicings(Id, archAVX2())) {
      CipherConfig C;
      C.Id = Id;
      C.Slicing = S;
      C.Target = &archAVX2();
      pinKnobs(C, 1);
      C.PreferNative = false;
      C.UseKernelCache = false;
      Pairs.push_back(C);
    }

  auto Sweep = [&](bool Validate, std::vector<UsubaCipher> *Keep) {
    const uint64_t T0 = nowNs();
    double Instrs = 0;
    for (CipherConfig C : Pairs) {
      C.ValidatePasses = Validate;
      Tracer::Scope S(Validate ? "core.compile_validated" : "core.compile");
      CipherResult R = UsubaCipher::compile(C);
      ++Res.Attempted;
      if (!R) {
        Res.fail();
        continue;
      }
      Instrs += double(R.cipher().stats().InstrCount);
      if (Keep)
        Keep->push_back(std::move(R).take());
    }
    return std::pair<double, double>(double(nowNs() - T0) / 1e6, Instrs);
  };

  const auto [PipelineMs, Instrs] = Sweep(false, nullptr);
  Telemetry &T = Telemetry::instance();
  T.reset();
  T.setEnabled(true);
  std::vector<UsubaCipher> Validated;
  const double ValidatedMs = Sweep(true, &Validated).first;
  T.setEnabled(false);

  Res.set("core.pipeline_ms", PipelineMs, "ms");
  Res.set("core.validate_ms", ValidatedMs - PipelineMs, "ms");
  Res.set("core.instrs_total", Instrs, "count");
  Res.set("core.validate_proven", double(T.counter("usubac.validate.proven")),
          "count");
  Res.set("core.validate_checked_random",
          double(T.counter("usubac.validate.checked")), "count");
  Res.set("core.validate_skipped",
          double(T.counter("usubac.validate.skipped")), "count");
  Res.set("core.validate_demoted",
          double(T.counter("usubac.validate.demoted")), "count");
  std::map<std::string, double> PassMs;
  for (const UsubaCipher &C : Validated)
    for (const PassStat &P : C.stats().PassStats)
      PassMs[P.Name] = 0;
  for (auto &[Name, Ms] : PassMs)
    Ms = double(T.spanStat("usubac.pass." + Name).TotalNs) / 1e6;
  for (const auto &[Name, Ms] : PassMs)
    Res.set("core.pass_ms." + Name, Ms, "ms");

  // One batch per pair against the reference.
  for (size_t I = 0; I < Validated.size(); ++I) {
    UsubaCipher &C = Validated[I];
    const std::vector<uint8_t> Key = seededBytes(Seed, 300 + I, C.keyBytes());
    C.setKey(Key.data(), Key.size());
    RefCipher Ref(C.config().Id, Key.data());
    const size_t Bytes = size_t{C.blocksPerCall()} * C.blockBytes();
    const std::vector<uint8_t> In = seededBytes(Seed, 400 + I, Bytes);
    std::vector<uint8_t> Out(Bytes), Want(C.blockBytes());
    C.encryptBlocks(In.data(), Out.data(), C.blocksPerCall());
    ++Res.Attempted;
    for (size_t Off = 0; Off < Bytes; Off += C.blockBytes()) {
      Ref.encryptBlock(In.data() + Off, Want.data());
      if (std::memcmp(Want.data(), Out.data() + Off, C.blockBytes())) {
        std::fprintf(stderr, "bulk_ctr: %s/%s batch differs from reference\n",
                     cipherName(C.config().Id),
                     slicingName(C.config().Slicing));
        Res.fail();
        break;
      }
    }
  }
}

} // namespace

Result runBulkCtr(const Options &Opts) {
  Result Res;
  std::vector<Lane> Lanes = makeLanes();
  std::vector<uint8_t> Buf(MessageBytes);
  const std::vector<uint8_t> Plain = seededBytes(Opts.Seed, 1, MessageBytes);
  std::mt19937_64 Rng(Opts.Seed);

  // Set-up: compile, JIT, key and warm every lane, repeated; the median
  // is the set-up time. The last repetition's ciphers are measured.
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep < (Opts.Trace ? 1 : SetupRepeats); ++Rep) {
    const auto T0 = Clock::now();
    if (!setUp(Lanes, Opts.Seed, Buf)) {
      Res.Attempted = Res.Failed = 1;
      return Res;
    }
    SetupS.push_back(secondsSince(T0));
  }
  const KernelCacheStats Cache = kernelCacheStats(); // since the last clear

  // The first message of every lane, checked in full.
  std::string Configs;
  for (Lane &L : Lanes) {
    ++Res.Attempted;
    if (!L.Cipher->isNative()) {
      std::fprintf(stderr, "bulk_ctr: %s runs on the simulator: %s\n", L.Name,
                   L.Cipher->stats().FallbackDetail.c_str());
      Res.fail();
    }
    std::memcpy(Buf.data(), Plain.data(), L.Bytes);
    L.Cipher->ctrXor(Buf.data(), L.Bytes, L.Nonce.data(), L.Counter);
    ++Res.Attempted;
    if (!checkCtr(*L.Ref, L.Nonce.data(), L.Counter, Plain.data(), Buf.data(),
                  L.Bytes, 0, L.Bytes / L.Ref->blockBytes()))
      Res.fail();
    L.Counter += L.Bytes / L.Ref->blockBytes();
    Configs += (Configs.empty() ? "" : ", ") + std::string("\"") + L.Name +
               "\": " + configJson(L.Cipher->config());
  }
  char Head[200];
  std::snprintf(Head, sizeof(Head),
                "{\"workload\": \"bulk_ctr\", \"message_bytes\": %zu, "
                "\"small_message_bytes\": %zu, \"slice_s\": %.2f, "
                "\"setup_repeats\": %zu, ",
                MessageBytes, SmallMessageBytes, SliceSeconds, SetupS.size());
  Res.ConfigJson = Head + std::string("\"lanes\": {") + Configs + "}}";

  measure(Lanes, Opts.Seconds, Opts.Trace, Plain, Buf, Rng, Res);

  bool AllNative = true;
  for (const Lane &L : Lanes)
    AllNative = AllNative && L.Cipher->isNative();
  if (!Opts.Trace) {
    // A lane on the simulator is a failure, never a throughput.
    if (AllNative) {
      double LogSum = 0;
      unsigned N = 0;
      for (const Lane &L : Lanes)
        if (!L.small()) {
          std::fprintf(stderr, "bulk_ctr: %s %.1f MiB/s\n", L.Name,
                       laneRate(L.SliceMiBs));
          LogSum += std::log(laneRate(L.SliceMiBs));
          ++N;
        }
      Res.set("throughput_mib_s", std::exp(LogSum / N), "MiB/s");
      Res.set("latency_us", quantile(Lanes[4].SliceCallUs, LatencyPick), "us");
    }
    Res.set("setup_s", median(SetupS), "s");
    Res.set("peak_rss_mib", peakRssMib(), "MiB");
    return Res;
  }

  // Traced run: per-layer metrics only. The pool counters cover the
  // traced rounds, the only ones with telemetry on.
  Telemetry &T = Telemetry::instance();
  double Overhead = 0;
  for (const Lane &L : Lanes)
    Overhead += laneRate(L.SliceMiBs) / laneRate(L.TracedSliceMiBs);
  Res.set("trace_overhead", Overhead / double(Lanes.size()), "ratio");
  for (const Lane &L : Lanes)
    if (!L.small() && L.Cipher->isNative())
      Res.set(std::string("ciphers.ctr_mib_s.") + L.Name, laneRate(L.SliceMiBs),
              "MiB/s");
  const double Busy = double(T.counter("threadpool.worker_busy_ns"));
  const double Slot = double(T.counter("threadpool.slot_ns"));
  const double Jobs = double(T.counter("threadpool.jobs"));
  Res.set("runtime.pool_utilization", Slot > 0 ? Busy / Slot : 0, "ratio");
  Res.set("runtime.pool_steals",
          Jobs > 0 ? double(T.counter("threadpool.steals")) / Jobs : 0,
          "count");
  Res.set("runtime.pool_scaling",
          laneRate(Lanes[3].SliceMiBs) / laneRate(Lanes[0].SliceMiBs),
          "ratio");
  Res.set("runtime.pool_dispatch_us", poolDispatchUs(), "us");
  Res.set("ciphers.kernel_cache_hits", double(Cache.Hits), "count");
  Res.set("ciphers.kernel_cache_misses", double(Cache.Misses), "count");
  layerSplit(Lanes, Buf, Res);
  // vslice_mt and vslice_4k share vslice's kernel.
  std::vector<const UsubaCipher *> Kernels;
  for (const Lane &L : Lanes)
    if (!L.MultiThread && !L.small())
      Kernels.push_back(&*L.Cipher);
  measureBackEnd(Kernels, Res);
  compilerLayers(Opts.Seed, Res);
  return Res;
}

} // namespace perfbench
