// End-to-end validation of the wfs guest application against the native
// golden model: same input, same arithmetic, outputs must agree.
#include <gtest/gtest.h>

#include <cmath>

#include "vm/machine.hpp"
#include "wfs/runner.hpp"

namespace tq::wfs {
namespace {

TEST(WfsPipeline, GuestRunsToCompletion) {
  WfsRun run = prepare_wfs_run(WfsConfig::tiny());
  vm::Machine machine(run.artifacts.program, run.host);
  machine.set_instruction_budget(200'000'000);
  const vm::RunOutcome result = machine.run();
  EXPECT_GT(result.retired, 100'000u);
  // Output WAV must exist: header + all interleaved PCM16 samples.
  const auto& bytes = run.host.output(WfsArtifacts::kOutputFd);
  const WfsConfig& cfg = run.config;
  EXPECT_EQ(bytes.size(), kWavHeaderSize + cfg.output_samples() * 2);
}

TEST(WfsPipeline, OutputMatchesGoldenModel) {
  const WfsConfig cfg = WfsConfig::tiny();
  WfsRun run = prepare_wfs_run(cfg);
  vm::Machine machine(run.artifacts.program, run.host);
  machine.set_instruction_budget(200'000'000);
  machine.run();

  const GoldenResult golden = run_golden(cfg, run.input);
  const WavData out = run.decode_output();
  ASSERT_EQ(out.channels, cfg.speakers);
  ASSERT_EQ(out.samples.size(), golden.output.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < out.samples.size(); ++i) {
    // The guest mirrors the golden arithmetic operation for operation, so
    // allow at most one LSB of quantisation wobble.
    if (std::abs(static_cast<int>(out.samples[i]) -
                 static_cast<int>(golden.output[i])) > 1) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first guest sample: " << out.samples[0]
                            << " golden: " << golden.output[0];
  // The output must not be silence.
  std::int16_t peak = 0;
  for (std::int16_t s : out.samples) {
    peak = std::max<std::int16_t>(peak, static_cast<std::int16_t>(std::abs(int(s))));
  }
  EXPECT_GT(peak, 1000);
}

TEST(WfsPipeline, GainsAndDelaysMatchGolden) {
  const WfsConfig cfg = WfsConfig::tiny();
  WfsRun run = prepare_wfs_run(cfg);
  vm::Machine machine(run.artifacts.program, run.host);
  machine.run();
  const GoldenResult golden = run_golden(cfg, run.input);
  for (std::uint32_t s = 0; s < cfg.speakers; ++s) {
    const double gain = machine.memory().load_f64(run.artifacts.gains_addr + 8 * s);
    const auto delay = static_cast<std::int64_t>(
        machine.memory().load(run.artifacts.delays_addr + 8 * s, 8));
    EXPECT_DOUBLE_EQ(gain, golden.gains[s]) << "speaker " << s;
    EXPECT_EQ(delay, golden.delays[s]) << "speaker " << s;
  }
}


TEST(WfsPipeline, StandardConfigMatchesGoldenBitExactly) {
  // The full-size workload (~43M instructions): the guest and the golden
  // model must agree on every output sample, proving numeric fidelity does
  // not drift with scale.
  const WfsConfig cfg = WfsConfig::standard();
  WfsRun run = prepare_wfs_run(cfg);
  vm::Machine machine(run.artifacts.program, run.host);
  machine.set_instruction_budget(500'000'000);
  machine.run();
  const GoldenResult golden = run_golden(cfg, run.input);
  const WavData out = run.decode_output();
  ASSERT_EQ(out.samples.size(), golden.output.size());
  EXPECT_EQ(out.samples, golden.output);
  EXPECT_EQ(out.channels, cfg.speakers);
}


TEST(WfsPipeline, MalformedInputWavAbortsGracefully) {
  // wav_load verifies the RIFF/WAVE/data magics and halts the guest (after
  // logging -1) on garbage input — the guest's error path, not a VM trap.
  const WfsConfig cfg = WfsConfig::tiny();
  WfsArtifacts artifacts = build_wfs_program(cfg);
  vm::HostEnv host;
  host.attach_input({0xde, 0xad, 0xbe, 0xef, 0x00, 0x11});  // not a WAV
  host.create_output();
  vm::Machine machine(artifacts.program, host);
  const vm::RunOutcome result = machine.run();  // must not throw
  // The guest stopped during wav_load: only initialisation (ldint + the two
  // ffw filter builds) ran — a tenth of the full ~716k-instruction run.
  EXPECT_LT(result.retired, 100'000u);
  // ...logged the error marker, and wrote no samples.
  ASSERT_FALSE(host.log().empty());
  EXPECT_EQ(host.log().back(), "-1");
  EXPECT_TRUE(host.output(WfsArtifacts::kOutputFd).empty());
}

TEST(WfsPipeline, TruncatedInputZeroFills) {
  // A valid but short WAV: the guest zero-fills the remainder, exactly like
  // the golden model.
  const WfsConfig cfg = WfsConfig::tiny();
  WavData input = make_test_signal(cfg.input_samples() / 3);
  WfsArtifacts artifacts = build_wfs_program(cfg);
  vm::HostEnv host;
  host.attach_input(wav_encode(input));
  host.create_output();
  vm::Machine machine(artifacts.program, host);
  machine.run();
  const GoldenResult golden = run_golden(cfg, input);
  const WavData out = wav_decode(host.output(WfsArtifacts::kOutputFd));
  EXPECT_EQ(out.samples, golden.output);
}

}  // namespace
}  // namespace tq::wfs
