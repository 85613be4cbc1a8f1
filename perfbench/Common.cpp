//===- Common.cpp - Shared plumbing of the usuba_perfbench binary ---------===//
//
// Part of the usuba-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cbackend/NativeJit.h"
#include "ciphers/RefAes.h"
#include "ciphers/RefChacha20.h"
#include "ciphers/RefDes.h"
#include "ciphers/RefPresent.h"
#include "ciphers/RefRectangle.h"
#include "ciphers/RefSerpent.h"
#include "types/Arch.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

using namespace usuba;

namespace perfbench {

static_assert(RectangleRoundKeys == 26 && SerpentRoundKeys == 33,
              "RefCipher's key arrays follow the reference schedules");

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * double(V.size() - 1);
  const size_t Lo = size_t(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  if (Pos == double(Lo) || V[Hi] == V[Lo])
    return V[Lo]; // also keeps infinite values (failed requests) exact
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double peakRssMib() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB -> MiB
  return 0;
}

void pinKnobs(CipherConfig &Config, unsigned Threads) {
  Config.Threads = Threads;
  Config.CtrFastPath = true;
  Config.SpecializeCtr = false;
  Config.Optimize = true;
  Config.ValidatePasses = false;
  Config.UseKernelCache = true;
  Config.JitOptLevel = "-O3";
  Config.CcTimeoutMillis = 120000;
  Config.PreferNative = true;
}

std::string configJson(const CipherConfig &C) {
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"cipher\": \"%s\", \"slicing\": \"%s\", \"arch\": \"%s\", "
      "\"Threads\": %u, \"CtrFastPath\": %s, \"SpecializeCtr\": %s, "
      "\"Optimize\": %s, \"ValidatePasses\": %s, \"UseKernelCache\": %s, "
      "\"JitOptLevel\": \"%s\", \"CcTimeoutMillis\": %u, "
      "\"PreferNative\": %s}",
      cipherName(C.Id), slicingName(C.Slicing),
      C.Target ? C.Target->Name : "gp64", C.Threads,
      C.effectiveCtrFastPath() ? "true" : "false",
      C.effectiveSpecializeCtr() ? "true" : "false",
      C.effectiveOptimize() ? "true" : "false",
      C.effectiveValidatePasses() ? "true" : "false",
      C.effectiveKernelCache() ? "true" : "false", C.JitOptLevel.c_str(),
      C.CcTimeoutMillis, C.PreferNative ? "true" : "false");
  return Buf;
}

std::vector<uint8_t> seededBytes(uint64_t Seed, uint64_t Stream, size_t N) {
  // splitmix64 over (seed, stream).
  uint64_t X = Seed * 0x9E3779B97F4A7C15ull ^ (Stream + 0x632BE59BD9B4E019ull);
  std::vector<uint8_t> Out(N);
  for (size_t I = 0; I < N; I += 8) {
    uint64_t Z = (X += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    Z ^= Z >> 31;
    std::memcpy(Out.data() + I, &Z, std::min<size_t>(8, N - I));
  }
  return Out;
}

void measureBackEnd(const std::vector<const UsubaCipher *> &Ciphers,
                    Result &Res) {
  double EmitMs = 0, CcSeconds = 0, CBytes = 0;
  for (const UsubaCipher *C : Ciphers) {
    std::vector<double> Ms;
    EmittedC E;
    for (int Rep = 0; Rep < 3; ++Rep) {
      Tracer::Scope S("cbackend.emitC");
      const uint64_t T0 = nowNs();
      E = emitC(C->kernel().Prog);
      Ms.push_back(double(nowNs() - T0) / 1e6);
    }
    EmitMs += median(Ms);
    CBytes += double(E.Code.size());
    Tracer::Scope S("cbackend.NativeKernel::compile");
    const uint64_t T0 = nowNs();
    std::optional<NativeKernel> K =
        NativeKernel::compile(E, C->config().JitOptLevel);
    CcSeconds += double(nowNs() - T0) / 1e9;
    ++Res.Attempted;
    if (!K)
      Res.fail();
  }
  Res.set("cbackend.emit_ms", EmitMs, "ms");
  Res.set("cbackend.c_bytes", CBytes, "bytes");
  Res.set("cbackend.jit_cc_s", CcSeconds, "s");
}

// ---------------------------------------------------------------------------
// References.

namespace {

uint64_t load64be(const uint8_t *P) {
  uint64_t V = 0;
  for (unsigned I = 0; I < 8; ++I)
    V = V << 8 | P[I];
  return V;
}

void store64be(uint64_t V, uint8_t *P) {
  for (unsigned I = 0; I < 8; ++I)
    P[I] = uint8_t(V >> (56 - 8 * I));
}

uint32_t load32le(const uint8_t *P) {
  return uint32_t(P[0]) | uint32_t(P[1]) << 8 | uint32_t(P[2]) << 16 |
         uint32_t(P[3]) << 24;
}

void store32le(uint32_t V, uint8_t *P) {
  for (unsigned I = 0; I < 4; ++I)
    P[I] = uint8_t(V >> (8 * I));
}

} // namespace

RefCipher::RefCipher(CipherId Id, const uint8_t *Key) : Id(Id) {
  switch (Id) {
  case CipherId::Rectangle: {
    uint16_t Rows[5];
    for (unsigned R = 0; R < 5; ++R)
      Rows[R] = uint16_t(Key[2 * R] | Key[2 * R + 1] << 8);
    rectangleKeySchedule80(Rows, RectangleKeys);
    break;
  }
  case CipherId::Des:
    desKeySchedule(load64be(Key), DesSubkeys);
    break;
  case CipherId::Aes128:
    aes128KeySchedule(Key, AesRoundKeys);
    break;
  case CipherId::Chacha20:
    std::memcpy(ChachaKey, Key, 32);
    break;
  case CipherId::Serpent:
    serpentKeySchedule(Key, SerpentKeys);
    break;
  case CipherId::Present:
    presentKeySchedule80(Key, PresentRoundKeys);
    break;
  }
}

unsigned RefCipher::blockBytes() const {
  switch (Id) {
  case CipherId::Rectangle:
  case CipherId::Des:
  case CipherId::Present:
    return 8;
  case CipherId::Aes128:
  case CipherId::Serpent:
    return 16;
  case CipherId::Chacha20:
    return 64;
  }
  return 8;
}

void RefCipher::encryptBlock(const uint8_t *In, uint8_t *Out) const {
  switch (Id) {
  case CipherId::Rectangle: {
    uint16_t State[4];
    for (unsigned R = 0; R < 4; ++R)
      State[R] = uint16_t(In[2 * R] | In[2 * R + 1] << 8);
    rectangleEncrypt(State, RectangleKeys);
    for (unsigned R = 0; R < 4; ++R) {
      Out[2 * R] = uint8_t(State[R]);
      Out[2 * R + 1] = uint8_t(State[R] >> 8);
    }
    return;
  }
  case CipherId::Des:
    store64be(desEncryptBlock(load64be(In), DesSubkeys), Out);
    return;
  case CipherId::Aes128: {
    uint8_t Block[16];
    std::memcpy(Block, In, 16);
    aesEncryptBlock(Block, AesRoundKeys);
    std::memcpy(Out, Block, 16);
    return;
  }
  case CipherId::Chacha20: {
    uint32_t State[16], Ks[16];
    for (unsigned W = 0; W < 16; ++W)
      State[W] = load32le(In + 4 * W);
    chacha20Block(State, Ks);
    for (unsigned W = 0; W < 16; ++W)
      store32le(Ks[W], Out + 4 * W);
    return;
  }
  case CipherId::Serpent: {
    uint32_t State[4];
    for (unsigned W = 0; W < 4; ++W)
      State[W] = load32le(In + 4 * W);
    serpentEncrypt(State, SerpentKeys);
    for (unsigned W = 0; W < 4; ++W)
      store32le(State[W], Out + 4 * W);
    return;
  }
  case CipherId::Present:
    store64be(presentEncryptBlock(load64be(In), PresentRoundKeys), Out);
    return;
  }
}

void RefCipher::ctrKeystreamBlock(const uint8_t *Nonce, uint64_t Counter,
                                  uint8_t *Out) const {
  uint8_t Block[64];
  switch (blockBytes()) {
  case 8: // the nonce read as a big-endian integer, plus the counter
    store64be(load64be(Nonce) + Counter, Block);
    break;
  case 16: // 12-byte nonce, then a big-endian 32-bit counter
    std::memcpy(Block, Nonce, 12);
    for (unsigned I = 0; I < 4; ++I)
      Block[12 + I] = uint8_t(uint32_t(Counter) >> (8 * (3 - I)));
    break;
  default: { // ChaCha20 (RFC 8439): the initial state is the counter block
    uint32_t State[16];
    chacha20InitState(State, ChachaKey, uint32_t(Counter), Nonce);
    for (unsigned W = 0; W < 16; ++W)
      store32le(State[W], Block + 4 * W);
    break;
  }
  }
  encryptBlock(Block, Out);
}

bool checkCtr(const RefCipher &Ref, const uint8_t *Nonce, uint64_t Counter,
              const uint8_t *In, const uint8_t *Out, size_t Length,
              size_t FirstBlock, size_t NumBlocks) {
  const unsigned B = Ref.blockBytes();
  uint8_t Ks[64];
  for (size_t Blk = FirstBlock; Blk < FirstBlock + NumBlocks; ++Blk) {
    const size_t Off = Blk * B;
    if (Off >= Length)
      break;
    Ref.ctrKeystreamBlock(Nonce, Counter + Blk, Ks);
    for (size_t I = 0; I < B && Off + I < Length; ++I)
      if (Out[Off + I] != uint8_t(In[Off + I] ^ Ks[I]))
        return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Tracer.

namespace {
thread_local std::vector<int64_t> OpenSpans;

uint32_t threadIndex() {
  static std::atomic<uint32_t> Next{0};
  thread_local uint32_t Mine = Next.fetch_add(1);
  return Mine;
}
} // namespace

Tracer &Tracer::instance() {
  static Tracer T;
  return T;
}

int64_t Tracer::open(const char *Name, uint64_t RequestId) {
  const int64_t Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  const uint64_t Start = nowNs();
  std::lock_guard<std::mutex> Lock(M);
  if (Spans.size() >= MaxSpans) {
    ++Dropped;
    return -1;
  }
  Spans.push_back({Name, Start, Start, Parent, RequestId, threadIndex()});
  return int64_t(Spans.size() - 1);
}

void Tracer::close(int64_t Index) {
  const uint64_t End = nowNs();
  std::lock_guard<std::mutex> Lock(M);
  Spans[size_t(Index)].EndNs = End;
}

Tracer::Scope::Scope(const char *Name, uint64_t RequestId) {
  Tracer &T = instance();
  if (!T.on())
    return;
  Index = T.open(Name, RequestId);
  if (Index >= 0)
    OpenSpans.push_back(Index);
}

Tracer::Scope::~Scope() {
  if (Index < 0)
    return;
  OpenSpans.pop_back();
  instance().close(Index);
}

void Tracer::record(const char *Name, uint64_t StartNs, uint64_t EndNs,
                    uint64_t RequestId) {
  if (!on())
    return;
  std::lock_guard<std::mutex> Lock(M);
  if (Spans.size() >= MaxSpans) {
    ++Dropped;
    return;
  }
  Spans.push_back({Name, StartNs, EndNs, -1, RequestId, threadIndex()});
}

std::map<std::string, double> Tracer::selfNs() const {
  std::lock_guard<std::mutex> Lock(M);
  // Children of one parent run on the parent's thread, one after
  // another, so their durations sum to the part of it they cover.
  std::vector<double> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[size_t(S.Parent)] += double(S.EndNs - S.StartNs);
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[Spans[I].Name] += double(Spans[I].EndNs - Spans[I].StartNs) -
                           ChildNs[I];
  return Self;
}

bool Tracer::write(const std::string &Path) const {
  const std::map<std::string, double> Self = selfNs();
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(M);
  std::fprintf(F, "{\"dropped\": %llu, \"self_ns\": {",
               static_cast<unsigned long long>(Dropped));
  bool First = true;
  for (const auto &[Name, Ns] : Self) {
    std::fprintf(F, "%s\"%s\": %.0f", First ? "" : ", ", Name.c_str(), Ns);
    First = false;
  }
  std::fprintf(F, "},\n\"spans\": [");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"parent\": %lld, \"request\": %llu, \"thread\": %u}",
                 I ? "," : "", S.Name,
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs),
                 static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.RequestId), S.Thread);
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench
