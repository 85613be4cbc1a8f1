//===- Bench.h - Shared plumbing of the usuba_perfbench binary --*- C++ -*-===//
//
// Part of the usuba-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the run options, the
/// result it prints, an in-memory span recorder for traced runs, the
/// independent reference ciphers outputs are checked against, and small
/// statistics and clock helpers. The library is measured only from
/// outside, through its public headers.
///
//===----------------------------------------------------------------------===//

#ifndef USUBA_PERFBENCH_BENCH_H
#define USUBA_PERFBENCH_BENCH_H

#include "ciphers/UsubaCipher.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where a traced run writes its spans (empty: not written).
  std::string TraceOut;
};

/// One metric as printed: value and unit.
struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What a workload reports. Attempted/Failed count operations; a wrong
/// output, an error, a refused request and a run on the simulator rung
/// all count as failures.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Metric> Metrics;
  /// The pinned knobs and workload parameters, printed before the
  /// result line so every run records what it measured.
  std::string ConfigJson;

  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = {Value, Unit};
  }
  void fail() { ++Failed; }
};

Result runBulkCtr(const Options &Opts);
/// \p OwnKeys selects svc_own_keys (one key per session) over
/// svc_shared_key (one key for all sessions).
Result runService(const Options &Opts, bool OwnKeys);

// ---------------------------------------------------------------------------
// Clocks and statistics.

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count());
}

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// The \p Q quantile (0..1) of \p V by linear interpolation; 0 if empty.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// Peak resident set of this process in MiB (VmHWM).
double peakRssMib();

/// Applies the benchmark's explicit values to every typed knob of
/// \p Config, so no USUBA_* variable can change what is measured.
void pinKnobs(usuba::CipherConfig &Config, unsigned Threads);

/// JSON object of \p Config's cipher, slicing, target and knobs.
std::string configJson(const usuba::CipherConfig &Config);

/// Times emitC and NativeKernel::compile of each cipher's kernel, as a
/// set-up pays them, into the cbackend.* metrics.
void measureBackEnd(const std::vector<const usuba::UsubaCipher *> &Ciphers,
                    Result &Res);

/// A deterministic byte string from \p Seed and \p Stream.
std::vector<uint8_t> seededBytes(uint64_t Seed, uint64_t Stream, size_t N);

// ---------------------------------------------------------------------------
// Independent references (src/ciphers/Ref*), with the byte layout the
// UsubaCipher API documents for each cipher.

class RefCipher {
public:
  RefCipher(usuba::CipherId Id, const uint8_t *Key);
  /// One block (ChaCha20: one 64-byte input state to its keystream).
  void encryptBlock(const uint8_t *In, uint8_t *Out) const;
  /// The CTR keystream block for absolute block index \p Counter under
  /// \p Nonce, with UsubaCipher::ctrXor's counter layout.
  void ctrKeystreamBlock(const uint8_t *Nonce, uint64_t Counter,
                         uint8_t *Out) const;
  unsigned blockBytes() const;

private:
  usuba::CipherId Id;
  // Expanded keys; only the member of Id's cipher is used.
  uint16_t RectangleKeys[26][4] = {};
  uint64_t DesSubkeys[16] = {};
  uint8_t AesRoundKeys[11][16] = {};
  uint32_t SerpentKeys[33][4] = {};
  uint64_t PresentRoundKeys[32] = {};
  uint8_t ChachaKey[32] = {};
};

/// Checks \p NumBlocks of CTR output against the reference: \p Out is
/// \p In XOR keystream, starting at block \p FirstBlock of a stream
/// that began at counter \p Counter. \p Length bounds the bytes checked.
bool checkCtr(const RefCipher &Ref, const uint8_t *Nonce, uint64_t Counter,
              const uint8_t *In, const uint8_t *Out, size_t Length,
              size_t FirstBlock, size_t NumBlocks);

// ---------------------------------------------------------------------------
// Span recording for traced runs: name, start, end, parent and request
// id, kept in memory and written as JSON at exit. Spans are recorded
// only around calls the benchmark makes into the library.

class Tracer {
public:
  static Tracer &instance();

  bool on() const { return On.load(std::memory_order_relaxed); }
  void enable() { On.store(true); }

  /// RAII span. Nests with the spans the same thread has open.
  class Scope {
  public:
    Scope(const char *Name, uint64_t RequestId = 0);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int64_t Index = -1;
  };

  /// A complete span recorded after the fact (e.g. a request's end to
  /// end time, seen by its completion callback on another thread).
  void record(const char *Name, uint64_t StartNs, uint64_t EndNs,
              uint64_t RequestId);

  /// Writes {"spans": [...], "self_ns": {...}}; false on I/O error.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    uint64_t StartNs, EndNs;
    int64_t Parent;
    uint64_t RequestId;
    uint32_t Thread;
  };
  static constexpr size_t MaxSpans = 200000; // ~20 MB of JSON

  int64_t open(const char *Name, uint64_t RequestId);
  /// Self time (duration minus the time its children cover) summed per
  /// span name, in nanoseconds.
  std::map<std::string, double> selfNs() const;
  void close(int64_t Index);

  std::atomic<bool> On{false};
  mutable std::mutex M; ///< guards Spans and Dropped
  std::vector<Span> Spans;
  uint64_t Dropped = 0;
};

} // namespace perfbench

#endif // USUBA_PERFBENCH_BENCH_H
