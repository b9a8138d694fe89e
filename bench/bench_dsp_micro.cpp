// E14: back-end throughput microbenchmarks (google-benchmark). The paper's
// back end must keep up with a >= 500 MSps converter stream; these numbers
// show the per-block software cost of the same algorithms.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "common/rng.h"
#include "dsp/correlator.h"
#include "dsp/fast_convolve.h"
#include "dsp/fft.h"
#include "dsp/filter_design.h"
#include "dsp/fir_filter.h"
#include "equalizer/mlse.h"
#include "equalizer/rake.h"
#include "fec/convolutional.h"
#include "fec/viterbi_decoder.h"
#include "phy/lfsr.h"
#include "channel/awgn.h"
#include "sim/scenario.h"
#include "txrx/receiver_gen1.h"

namespace {

using namespace uwb;

void BM_Fft1024(benchmark::State& state) {
  Rng rng(1);
  CplxVec x(1024);
  for (auto& v : x) v = rng.cgaussian();
  for (auto _ : state) {
    CplxVec copy = x;
    dsp::fft_inplace(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Fft1024);

void BM_Fft4096Inverse(benchmark::State& state) {
  Rng rng(7);
  CplxVec x(4096);
  for (auto& v : x) v = rng.cgaussian();
  const dsp::FftPlan& plan = dsp::fft_plan(4096);
  CplxVec buf(x.size());
  for (auto _ : state) {
    std::copy(x.begin(), x.end(), buf.begin());
    plan.inverse(buf.data());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Fft4096Inverse);

// Gaussian normals through the rail add_awgn every gen-2 trial calls: the
// ziggurat on the Rng engine's words, so an engine change shows here as its
// consumers see it. One capture of 8192 samples, both rails (the noise
// accumulates across iterations; only the draws are timed).
void BM_AwgnRailNormals(benchmark::State& state) {
  constexpr std::size_t kSamples = 8192;
  std::vector<double> re(kSamples, 0.0);
  std::vector<double> im(kSamples, 0.0);
  Rng rng(8);
  for (auto _ : state) {
    channel::add_awgn(re.data(), im.data(), kSamples, 2.0, rng);
    benchmark::DoNotOptimize(re.data());
    benchmark::DoNotOptimize(im.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * kSamples);
}
BENCHMARK(BM_AwgnRailNormals);

void BM_FirFilter64Tap(benchmark::State& state) {
  Rng rng(2);
  const RealVec taps = dsp::design_lowpass(200e6, 2e9, 64);
  CplxVec x(4096);
  for (auto& v : x) v = rng.cgaussian();
  for (auto _ : state) {
    auto y = dsp::convolve_same(x, taps);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_FirFilter64Tap);

// The gen-1 converter path's noise for one genie-timed waterfall trial:
// 2048 decision blocks of 12 converter samples, one frame (648 samples)
// apart -- the white draws, then each block's Cholesky factor applied.
// The factors are built once, in the warm-up iteration.
void BM_Gen1WindowNoise(benchmark::State& state) {
  const txrx::Gen1Config config = sim::gen1_fast();
  Rng mismatch(5);
  txrx::Gen1Receiver rx(config, mismatch);
  constexpr std::size_t kBlocks = 2048;
  constexpr std::size_t kLen = 12;
  std::vector<txrx::AdcWindow> blocks;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const std::size_t begin = (b + 2) * config.frame_samples_adc;
    blocks.push_back({begin, begin + kLen});
  }
  const std::size_t n = (kBlocks + 4) * config.frame_samples_analog();
  std::vector<float> white(kBlocks * kLen);
  std::vector<float> values(kBlocks * kLen);
  Rng rng(6);
  for (auto _ : state) {
    std::fill(white.begin(), white.end(), 0.0f);
    channel::add_awgn(white.data(), white.size(), 0.5, rng);
    rx.color_noise(blocks, n, config.analog_fs, white.data(), values.data());
    benchmark::DoNotOptimize(values.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_Gen1WindowNoise);

void BM_NormalizedCorrelation127(benchmark::State& state) {
  Rng rng(3);
  const auto chips = phy::to_chips(phy::msequence(7));
  CplxVec tmpl;
  for (double c : chips) tmpl.emplace_back(c, 0.0);
  CplxVec x(4096);
  for (auto& v : x) v = rng.cgaussian();
  for (auto _ : state) {
    auto nc = dsp::normalized_correlation(x, tmpl);
    benchmark::DoNotOptimize(nc.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size() - tmpl.size() + 1));
}
BENCHMARK(BM_NormalizedCorrelation127);

void BM_ViterbiDecodeK7(benchmark::State& state) {
  Rng rng(4);
  const fec::ConvCode code = fec::k7_rate_half();
  const fec::ConvEncoder enc(code);
  const fec::ViterbiDecoder dec(code);
  const BitVec info = rng.bits(512);
  const BitVec coded = enc.encode(info);
  for (auto _ : state) {
    auto out = dec.decode_hard(coded);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_ViterbiDecodeK7);

void BM_MlseDemod16State(benchmark::State& state) {
  Rng rng(5);
  const std::vector<cplx> g = {cplx{1.0, 0.0}, cplx{0.4, 0.1}, cplx{0.2, -0.1},
                               cplx{0.1, 0.0}, cplx{0.05, 0.0}};
  const equalizer::MlseDemodulator mlse(equalizer::MlseConfig{4}, g);
  CplxVec obs(1024);
  for (auto& v : obs) v = rng.cgaussian();
  for (auto _ : state) {
    auto bits = mlse.demodulate(obs);
    benchmark::DoNotOptimize(bits.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_MlseDemod16State);

void BM_RakeCombine8Finger(benchmark::State& state) {
  Rng rng(6);
  std::vector<channel::CirTap> taps;
  for (int k = 0; k < 8; ++k) {
    taps.push_back({k * 2e-9, rng.cgaussian()});
  }
  const channel::Cir cir(taps);
  const equalizer::RakeReceiver rake(equalizer::RakeConfig{}, cir, 1e9);
  CplxVec y(16384);
  for (auto& v : y) v = rng.cgaussian();
  const CplxWaveform w(y, 1e9);
  const equalizer::SymbolTiming timing{0, 10, 1600};
  for (auto _ : state) {
    auto soft = rake.demodulate(w, timing);
    benchmark::DoNotOptimize(soft.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1600);
}
BENCHMARK(BM_RakeCombine8Finger);

// ---- Convolution dispatch crossover fixtures --------------------------------
// These sweep the kernel length at a fixed signal length for each sample-type
// combination; the per-type kernel thresholds in dsp/fast_convolve.h are set
// where the Fft variant overtakes the Direct one on these curves (see
// docs/performance.md for the measured numbers).

void BM_ConvolveRealDirect(benchmark::State& state) {
  Rng rng(20);
  const auto h_len = static_cast<std::size_t>(state.range(0));
  RealVec x(16384), h(h_len);
  for (auto& v : x) v = rng.gaussian();
  for (auto& v : h) v = rng.gaussian();
  for (auto _ : state) {
    auto y = dsp::convolve_direct(x, h);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_ConvolveRealDirect)->Arg(32)->Arg(48)->Arg(64)->Arg(96)->Arg(128)->Arg(256)->Arg(1024);

void BM_ConvolveRealFft(benchmark::State& state) {
  Rng rng(20);
  const auto h_len = static_cast<std::size_t>(state.range(0));
  RealVec x(16384), h(h_len);
  for (auto& v : x) v = rng.gaussian();
  for (auto& v : h) v = rng.gaussian();
  dsp::FftWorkspace ws;
  for (auto _ : state) {
    RealVec y;  // fresh result like the production dispatch; ws stays warm
    dsp::ols_convolve(x, h, y, ws);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_ConvolveRealFft)->Arg(32)->Arg(48)->Arg(64)->Arg(96)->Arg(128)->Arg(256)->Arg(1024);

void BM_ConvolveCplxRealDirect(benchmark::State& state) {
  Rng rng(21);
  const auto h_len = static_cast<std::size_t>(state.range(0));
  CplxVec x(16384);
  RealVec h(h_len);
  for (auto& v : x) v = rng.cgaussian();
  for (auto& v : h) v = rng.gaussian();
  for (auto _ : state) {
    auto y = dsp::convolve_direct(x, h);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_ConvolveCplxRealDirect)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(1024);

void BM_ConvolveCplxRealFft(benchmark::State& state) {
  Rng rng(21);
  const auto h_len = static_cast<std::size_t>(state.range(0));
  CplxVec x(16384);
  RealVec h(h_len);
  for (auto& v : x) v = rng.cgaussian();
  for (auto& v : h) v = rng.gaussian();
  dsp::FftWorkspace ws;
  for (auto _ : state) {
    CplxVec y;  // fresh result like the production dispatch; ws stays warm
    dsp::ols_convolve(x, h, y, ws);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_ConvolveCplxRealFft)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(1024);

void BM_CorrelateCplxDirect(benchmark::State& state) {
  Rng rng(22);
  const auto m = static_cast<std::size_t>(state.range(0));
  CplxVec x(16384), tmpl(m);
  for (auto& v : x) v = rng.cgaussian();
  for (auto& v : tmpl) v = rng.cgaussian();
  for (auto _ : state) {
    auto y = dsp::correlate_direct(x, tmpl);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size() - m + 1));
}
BENCHMARK(BM_CorrelateCplxDirect)->Arg(16)->Arg(32)->Arg(64)->Arg(512)->Arg(4096);

void BM_CorrelateCplxFft(benchmark::State& state) {
  Rng rng(22);
  const auto m = static_cast<std::size_t>(state.range(0));
  CplxVec x(16384), tmpl(m);
  for (auto& v : x) v = rng.cgaussian();
  for (auto& v : tmpl) v = rng.cgaussian();
  dsp::FftWorkspace ws;
  for (auto _ : state) {
    CplxVec y;  // fresh result like the production dispatch; ws stays warm
    dsp::ols_correlate(x, tmpl, y, ws);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size() - m + 1));
}
BENCHMARK(BM_CorrelateCplxFft)->Arg(16)->Arg(32)->Arg(64)->Arg(512)->Arg(4096);

// One rail of the gen-2 capture synthesis: 506 pulse slots 40 samples apart
// through a k_len-sample composite kernel (97 = the AWGN prototype, 1297 = a
// long CM4 realization), plus the 256-sample tail pad.
void BM_ShiftedSum(benchmark::State& state) {
  Rng rng(23);
  const auto k_len = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSlots = 506;
  constexpr std::size_t kFrame = 40;
  RealVec w(kSlots), k(k_len);
  std::vector<std::size_t> offsets(kSlots);
  for (std::size_t m = 0; m < kSlots; ++m) {
    w[m] = rng.sign();
    offsets[m] = m * kFrame;
  }
  for (auto& v : k) v = rng.gaussian();
  const std::size_t len = kSlots * kFrame + k_len + 256;
  RealVec y(len);
  for (auto _ : state) {
    dsp::shifted_sum(w.data(), offsets.data(), kSlots, k.data(), k_len, 0, len, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_ShiftedSum)->Arg(97)->Arg(1297);

}  // namespace

BENCHMARK_MAIN();
