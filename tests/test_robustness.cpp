// Tests for the numerics guardrails + recovery ladder: CRC32, the
// deterministic fault-point registry, config/job-spec input hardening,
// checkpoint CRC + .prev rotation, trajectory frame CRC, truncated and
// bit-flipped checkpoint and trajectory files, and every rung of the
// OrderNCalculator recovery ladder under injected faults.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/core/calculator_spec.hpp"
#include "src/core/health_spec.hpp"
#include "src/io/binary_trajectory.hpp"
#include "src/io/config.hpp"
#include "src/io/logger.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/structures/builders.hpp"
#include "src/svc/checkpoint.hpp"
#include "src/svc/job_spec.hpp"
#include "src/tb/tb_calculator.hpp"
#include "src/tb/tb_model.hpp"
#include "src/util/crc32.hpp"
#include "src/util/error.hpp"
#include "src/util/fault_point.hpp"

namespace tbmd {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("tbmd_rob_" + tag + "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }

 private:
  std::string path_;
};

/// The fault registry is process-global: every test that arms it must
/// disarm on exit, pass or fail.
struct FaultGuard {
  FaultGuard() { fault::disarm_all(); }
  ~FaultGuard() { fault::disarm_all(); }
};

// --- CRC32 ------------------------------------------------------------------

TEST(Crc32, KnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, UpdateChainsAcrossBuffers) {
  const std::uint32_t whole = crc32("123456789", 9);
  std::uint32_t chained = crc32_update(0, "1234", 4);
  chained = crc32_update(chained, "56789", 5);
  EXPECT_EQ(chained, whole);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> buf(257);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 31u);
  }
  const std::uint32_t clean = crc32(buf.data(), buf.size());
  buf[100] ^= 0x08;
  EXPECT_NE(crc32(buf.data(), buf.size()), clean);
}

// --- fault-point registry ---------------------------------------------------

TEST(FaultPoint, DisarmedFireIsInertAndCountsNothing) {
  const FaultGuard guard;
  EXPECT_FALSE(fault::any_armed());
  EXPECT_FALSE(fault::fire(fault::kOnxNanTile));
  EXPECT_FALSE(fault::fire(fault::kOnxNanTile));
  // Disarmed hits are deliberately not counted (the fast path is one
  // relaxed load, no registry access).
  EXPECT_EQ(fault::hits(fault::kOnxNanTile), 0);
}

TEST(FaultPoint, FiresOnExactHitWindow) {
  const FaultGuard guard;
  fault::arm(fault::kOnxNanTile, 2, 2);  // fire on hits 2 and 3
  EXPECT_TRUE(fault::any_armed());
  EXPECT_FALSE(fault::fire(fault::kOnxNanTile));  // hit 1
  EXPECT_TRUE(fault::fire(fault::kOnxNanTile));   // hit 2
  EXPECT_TRUE(fault::fire(fault::kOnxNanTile));   // hit 3
  EXPECT_FALSE(fault::fire(fault::kOnxNanTile));  // hit 4
  EXPECT_EQ(fault::hits(fault::kOnxNanTile), 4);
  EXPECT_EQ(fault::fired(fault::kOnxNanTile), 2);
  // An armed site never perturbs other sites.
  EXPECT_FALSE(fault::fire(fault::kSvcStall));
  fault::disarm_all();
  EXPECT_FALSE(fault::any_armed());
  EXPECT_FALSE(fault::fire(fault::kOnxNanTile));
}

TEST(FaultPoint, AtHitZeroFiresEveryTime) {
  const FaultGuard guard;
  fault::arm(fault::kSvcStall, 0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(fault::fire(fault::kSvcStall));
  EXPECT_EQ(fault::fired(fault::kSvcStall), 5);
}

TEST(FaultPoint, SpecGrammar) {
  const FaultGuard guard;
  fault::arm_from_spec("onx.nan_tile@2:3, svc.stall ckpt.torn_write@0");
  EXPECT_FALSE(fault::fire(fault::kOnxNanTile));  // hit 1
  EXPECT_TRUE(fault::fire(fault::kOnxNanTile));   // hit 2
  EXPECT_TRUE(fault::fire(fault::kSvcStall));     // bare name = first hit
  EXPECT_FALSE(fault::fire(fault::kSvcStall));
  EXPECT_TRUE(fault::fire(fault::kCkptTornWrite));
  EXPECT_TRUE(fault::fire(fault::kCkptTornWrite));
  // Empty spec is a no-op, malformed or unknown entries throw.
  fault::disarm_all();
  fault::arm_from_spec("");
  EXPECT_FALSE(fault::any_armed());
  EXPECT_THROW(fault::arm_from_spec("no.such.site"), Error);
  EXPECT_THROW(fault::arm_from_spec("svc.stall@bogus"), Error);
}

// --- config hardening -------------------------------------------------------

TEST(ConfigHardening, RejectsNonFiniteDoubles) {
  const io::Config cfg = io::Config::parse_string(
      "a = nan\nb = inf\nc = -inf\nd = 1.5\n", "h.cfg");
  EXPECT_THROW((void)cfg.get_double("a", 0.0), Error);
  EXPECT_THROW((void)cfg.get_double("b", 0.0), Error);
  EXPECT_THROW((void)cfg.get_double("c", 0.0), Error);
  EXPECT_DOUBLE_EQ(cfg.get_double("d", 0.0), 1.5);
  // The error carries source:line so a sweep author can find the key.
  try {
    (void)cfg.get_double("a", 0.0);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("h.cfg:1"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos);
  }
}

using svc::JobSpec;

JobSpec spec_from(const std::string& text) {
  return svc::JobSpec::from_config(io::Config::parse_string(text, "job.cfg"));
}

TEST(JobSpecHardening, RejectsOutOfRangeValues) {
  EXPECT_NO_THROW(spec_from("steps = 5\n"));
  EXPECT_THROW(spec_from("steps = 5\ndt = 0\n"), Error);
  EXPECT_THROW(spec_from("steps = 5\ndt = -1\n"), Error);
  EXPECT_THROW(spec_from("steps = 0\n"), Error);
  EXPECT_THROW(spec_from("steps = 5\ntemperature = -10\n"), Error);
  EXPECT_THROW(spec_from("steps = 5\nlattice = -1\n"), Error);
  EXPECT_THROW(spec_from("steps = 5\ncells = 2 0 2\n"), Error);
  EXPECT_THROW(spec_from("steps = 5\nseed = -3\n"), Error);
  EXPECT_THROW(spec_from("steps = 5\nskin = -0.1\n"), Error);
  EXPECT_THROW(spec_from("steps = 5\nsample_every = -1\n"), Error);
  EXPECT_THROW(spec_from("steps = 5\ncheckpoint_every = -1\n"), Error);
  EXPECT_THROW(spec_from("steps = 5\nmode = on\ndrop_tolerance = -1e-7\n"),
               Error);
  EXPECT_THROW(spec_from("steps = 5\nmode = on\nschedule_decay = 1.5\n"),
               Error);
  EXPECT_THROW(spec_from("steps = 5\nmode = on\nschedule_loosening = 0\n"),
               Error);
  EXPECT_THROW(
      spec_from("steps = 5\nthermostat = berendsen\nthermostat_tau = 0\n"),
      Error);
  EXPECT_THROW(spec_from("steps = 5\ndt = nan\n"), Error);
}

TEST(JobSpecHardening, IntegerKeysOutsideIntRangeAreRejected) {
  // int-valued keys are range-checked before they are narrowed: 2^32 + k
  // must throw instead of running as k (threads = 4294967297 would pin one
  // thread, indices = 4294967304 0 would build an (8,0) tube).
  struct Case {
    const char* key;
    const char* text;
  };
  for (const Case& c :
       {Case{"threads", "threads = 4294967297"},
        Case{"threads", "threads = -4294967295"},
        Case{"cells", "cells = 2 4294967298 2"},
        Case{"indices", "structure = nanotube\nindices = 4294967304 0"},
        Case{"domains", "mode = on\ndomains = 4294967298"},
        Case{"thermostat_interval",
             "thermostat = nose-hoover\nthermostat_interval = 4294967297"},
        Case{"chain_length",
             "thermostat = nose-hoover\nchain_length = 4294967298"}}) {
    const std::string text = std::string("steps = 5\n") + c.text + "\n";
    try {
      (void)spec_from(text);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const Error& e) {
      // The message names the key and its source line.
      const std::string what = e.what();
      EXPECT_NE(what.find("job.cfg:"), std::string::npos) << what;
      EXPECT_NE(what.find("key '" + std::string(c.key) + "'"),
                std::string::npos)
          << what;
    }
  }
  // In-range values still parse.
  const JobSpec ok = spec_from(
      "steps = 5\nthreads = 2147483647\nindices = 8 0\n"
      "thermostat = nose-hoover\nchain_length = 3\n");
  EXPECT_EQ(ok.threads, 2147483647);
  ASSERT_EQ(ok.indices.size(), 2u);
  EXPECT_EQ(ok.indices[0], 8);
  EXPECT_EQ(ok.thermostat.chain_length, 3);
}

TEST(JobSpecHardening, HealthAndFaultKeys) {
  const JobSpec s = spec_from(
      "steps = 5\nmode = on\nhealth = true\nmax_force = 50\n"
      "max_energy_per_atom = 100\nhealth_fp64_retry = false\n"
      "health_tighten_factor = 0.25\nfaults = svc.stall@3\n");
  EXPECT_TRUE(s.calc.health.enabled);
  EXPECT_DOUBLE_EQ(s.calc.health.max_force, 50.0);
  EXPECT_DOUBLE_EQ(s.calc.health.max_energy_per_atom, 100.0);
  EXPECT_FALSE(s.calc.health.fp64_retry);
  EXPECT_DOUBLE_EQ(s.calc.health.tighten_factor, 0.25);
  EXPECT_EQ(s.faults, "svc.stall@3");

  EXPECT_THROW(spec_from("steps = 5\nmode = on\nmax_force = -1\n"), Error);
  EXPECT_THROW(
      spec_from("steps = 5\nmode = on\nhealth_tighten_factor = 1.5\n"), Error);
}

TEST(JobSpecHardening, MutatedSpecTextEndsInATypedResult) {
  // One valid O(N) spec that sets every numerics and health key; every
  // prefix truncation and every single-bit flip of every byte must either
  // parse into a job whose system and calculator build, or throw
  // tbmd::Error -- never another exception type.
  const std::string valid =
      "name = mutant\nsteps = 5\nmode = on\nskin = 0.5\n"
      "drop_tolerance = 1e-6\nschedule_loosening = 4\nprecision = mixed\n"
      "reuse_patterns = true\ndomains = 2\ncache_spectral_bounds = true\n"
      "bond_reuse_skin = 0.05\nhealth = true\nmax_force = 50\n"
      "max_energy_per_atom = 100\nhealth_fp64_retry = false\n"
      "health_tighten_retry = true\nhealth_tighten_factor = 0.25\n"
      "health_exact_fallback = true\n";
  std::vector<std::string> inputs;
  for (std::size_t len = 0; len <= valid.size(); ++len) {
    inputs.push_back(valid.substr(0, len));
  }
  for (std::size_t at = 0; at < valid.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = valid;
      flipped[at] = static_cast<char>(
          static_cast<unsigned char>(flipped[at]) ^ (1u << bit));
      inputs.push_back(std::move(flipped));
    }
  }

  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const std::string& text : inputs) {
    try {
      const JobSpec s = spec_from(text);
      const System system = s.build_system();
      EXPECT_NE(s.make_calculator(system), nullptr);
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped exception '" << e.what() << "' for:\n"
                    << text;
    }
  }
  EXPECT_EQ(parsed + rejected, inputs.size());
  EXPECT_GT(parsed, 1u);    // the unmutated spec and harmless flips
  EXPECT_GT(rejected, 1u);  // truncated and corrupted keys/values
}

// --- checkpoint CRC + rotation ----------------------------------------------

svc::Checkpoint small_checkpoint(long step) {
  svc::Checkpoint ck;
  ck.step = step;
  ck.total_steps = 10;
  System sys;
  sys.add_atom(Element::Si, {0.1, 0.2, 0.3}, {1.0, -2.0, 3.0});
  sys.add_atom(Element::C, {1.5, 0.0, static_cast<double>(step)},
               {0.0, 0.5, 0.0});
  ck.system = std::move(sys);
  ck.thermostat_target = 300.0;
  ck.thermostat_state = {0.25, -0.125};
  return ck;
}

void expect_same_checkpoint(const svc::Checkpoint& a,
                            const svc::Checkpoint& b) {
  EXPECT_EQ(a.step, b.step);
  ASSERT_EQ(a.system.size(), b.system.size());
  for (std::size_t i = 0; i < a.system.size(); ++i) {
    EXPECT_EQ(a.system.positions()[i], b.system.positions()[i]);
    EXPECT_EQ(a.system.velocities()[i], b.system.velocities()[i]);
  }
  EXPECT_EQ(a.thermostat_state, b.thermostat_state);
}

TEST(CheckpointCrc, RoundTrips) {
  ScratchDir dir("ck_round");
  const std::string path = dir.file("a.ckpt");
  const svc::Checkpoint ck = small_checkpoint(3);
  svc::write_checkpoint(path, ck);
  expect_same_checkpoint(svc::read_checkpoint(path), ck);
}

TEST(CheckpointCrc, DetectsCorruptionAndFallsBackToPrev) {
  ScratchDir dir("ck_corrupt");
  const std::string path = dir.file("a.ckpt");
  svc::write_checkpoint(path, small_checkpoint(2));
  svc::write_checkpoint(path, small_checkpoint(4));  // rotates step 2 -> .prev
  ASSERT_TRUE(fs::exists(path + ".prev"));

  // Flip one payload byte of the primary: read must reject it, fallback
  // must recover the rotated step-2 state.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    char b;
    f.seekg(40);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(40);
    f.write(&b, 1);
  }
  EXPECT_THROW(svc::read_checkpoint(path), Error);
  bool used_prev = false;
  const svc::Checkpoint ck =
      svc::read_checkpoint_with_fallback(path, &used_prev);
  EXPECT_TRUE(used_prev);
  expect_same_checkpoint(ck, small_checkpoint(2));
}

TEST(CheckpointCrc, FallbackThrowsWhenBothCorrupt) {
  ScratchDir dir("ck_both");
  const std::string path = dir.file("a.ckpt");
  std::ofstream(path) << "garbage";
  std::ofstream(path + ".prev") << "also garbage";
  EXPECT_THROW(svc::read_checkpoint_with_fallback(path), Error);
}

TEST(CheckpointCrc, InjectedTornWriteLeavesRecoverablePrev) {
  const FaultGuard guard;
  ScratchDir dir("ck_torn");
  const std::string path = dir.file("a.ckpt");
  svc::write_checkpoint(path, small_checkpoint(2));
  fault::arm(fault::kCkptTornWrite, 1);
  // The torn write simulates a kill after a partial payload hit the disk:
  // it throws, the final file fails its CRC, and .prev holds step 2.
  EXPECT_THROW(svc::write_checkpoint(path, small_checkpoint(4)), Error);
  EXPECT_THROW(svc::read_checkpoint(path), Error);
  bool used_prev = false;
  expect_same_checkpoint(svc::read_checkpoint_with_fallback(path, &used_prev),
                         small_checkpoint(2));
  EXPECT_TRUE(used_prev);
}

TEST(CheckpointCrc, InjectedCrashBeforeRenameKeepsPrimary) {
  const FaultGuard guard;
  ScratchDir dir("ck_crash");
  const std::string path = dir.file("a.ckpt");
  svc::write_checkpoint(path, small_checkpoint(2));
  fault::arm(fault::kCkptCrashBeforeRename, 1);
  EXPECT_THROW(svc::write_checkpoint(path, small_checkpoint(4)), Error);
  // The crash happened before the rename: the primary still holds step 2
  // and passes its CRC -- no fallback needed.
  bool used_prev = true;
  expect_same_checkpoint(svc::read_checkpoint_with_fallback(path, &used_prev),
                         small_checkpoint(2));
  EXPECT_FALSE(used_prev);
}

TEST(CheckpointCrc, CorruptStateCountFailsBeforeAllocating) {
  ScratchDir dir("ck_nstate");
  const std::string path = dir.file("a.ckpt");
  svc::write_checkpoint(path, small_checkpoint(2));
  svc::write_checkpoint(path, small_checkpoint(4));  // rotates step 2 -> .prev

  // Patch the thermostat-state count to 0xFFFFFFFF and re-seal the CRC, so
  // the payload passes its checksum and only the count is wrong.  Offset:
  // 8 header bytes, then step, total_steps, natoms (24), the cell (72 + 3),
  // two atoms of 50 bytes each and the thermostat target (8).
  std::vector<char> bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  constexpr std::size_t kStateCountAt = 8 + 24 + 75 + 2 * 50 + 8;
  ASSERT_GT(bytes.size(), kStateCountAt + 4);
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + kStateCountAt, sizeof(count));
  ASSERT_EQ(count, 2u);  // small_checkpoint's two thermostat doubles
  count = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + kStateCountAt, &count, sizeof(count));
  const std::uint32_t crc = crc32(bytes.data() + 8, bytes.size() - 12);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  // A typed error naming the count, not a 32 GiB resize ...
  try {
    (void)svc::read_checkpoint(path);
    ADD_FAILURE() << "expected tbmd::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("state count 4294967295"),
              std::string::npos)
        << e.what();
  }
  // ... so the fallback reader recovers the rotated step-2 checkpoint.
  bool used_prev = false;
  expect_same_checkpoint(svc::read_checkpoint_with_fallback(path, &used_prev),
                         small_checkpoint(2));
  EXPECT_TRUE(used_prev);
}

// --- trajectory frame CRC ---------------------------------------------------

System two_atom_system() {
  System sys;
  sys.add_atom(Element::C, {0.0, 0.0, 0.0}, {0.01, 0.0, 0.0});
  sys.add_atom(Element::C, {1.4, 0.0, 0.0}, {0.0, -0.01, 0.0});
  return sys;
}

TEST(TrajectoryCrc, StrictReaderRejectsBitFlip) {
  ScratchDir dir("tbt_flip");
  const std::string path = dir.file("t.tbt");
  System sys = two_atom_system();
  {
    io::BinaryTrajectoryWriter w(path, sys);
    for (long s = 0; s <= 3; ++s) {
      sys.positions()[0].x += 0.01;
      w.add_frame(sys, s);
    }
  }
  // Clean file reads all four frames.
  {
    io::BinaryTrajectoryReader r(path);
    io::TrajectoryFrame f;
    int frames = 0;
    while (r.next(f)) ++frames;
    EXPECT_EQ(frames, 4);
  }
  // Flip one byte near the end (inside the last frame).
  const auto size = fs::file_size(path);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(size) - 7);
    char b;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x10);
    f.seekp(static_cast<std::streamoff>(size) - 7);
    f.write(&b, 1);
  }
  io::BinaryTrajectoryReader r(path);
  io::TrajectoryFrame f;
  EXPECT_TRUE(r.next(f));
  EXPECT_TRUE(r.next(f));
  EXPECT_TRUE(r.next(f));
  EXPECT_THROW(r.next(f), Error);
}

TEST(TrajectoryCrc, ResumeDropsTornTail) {
  ScratchDir dir("tbt_torn");
  const std::string path = dir.file("t.tbt");
  System sys = two_atom_system();
  {
    io::BinaryTrajectoryWriter w(path, sys);
    for (long s = 0; s <= 3; ++s) {
      sys.positions()[0].x += 0.01;
      w.add_frame(sys, s);
    }
  }
  // Tear the file mid-way through the last frame (as a kill mid-write
  // would): the tolerant resume scan must keep the intact frames and
  // truncate the debris, then append cleanly.
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - 5);
  System resume_sys = two_atom_system();
  resume_sys.positions()[0].x += 4 * 0.01;
  {
    io::BinaryTrajectoryWriter w =
        io::BinaryTrajectoryWriter::resume(path, resume_sys, 10);
    EXPECT_EQ(w.frames_written(), 3u);
    w.add_frame(resume_sys, 4);
  }
  io::BinaryTrajectoryReader r(path);
  io::TrajectoryFrame f;
  std::vector<long> steps;
  while (r.next(f)) steps.push_back(f.step);
  EXPECT_EQ(steps, (std::vector<long>{0, 1, 2, 4}));
}

TEST(TrajectoryCrc, CorruptAtomCountFailsBeforeAllocating) {
  ScratchDir dir("tbt_natoms");
  const std::string path = dir.file("t.tbt");
  const System sys = two_atom_system();
  {
    io::BinaryTrajectoryWriter w(path, sys);
    w.add_frame(sys, 0);
  }
  // The header CRC covers the species, so it can only be checked after
  // natoms sized the species read.  natoms (bytes 12..15) = 0xFFFFFFFF
  // must be rejected against the bytes left in the file, not size a
  // 16 GiB species buffer first.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12);
    const char all_ones[4] = {'\xff', '\xff', '\xff', '\xff'};
    f.write(all_ones, 4);
  }
  const auto expect_atom_count_error = [](const auto& open) {
    try {
      open();
      ADD_FAILURE() << "expected tbmd::Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("atom count 4294967295"),
                std::string::npos)
          << e.what();
    }
  };
  expect_atom_count_error([&] { io::BinaryTrajectoryReader r(path); });
  expect_atom_count_error(
      [&] { (void)io::BinaryTrajectoryWriter::resume(path, sys, 10); });
}

// --- mutated checkpoint and trajectory files --------------------------------

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), {}};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One corrupted copy of a valid file: a strict prefix (`flipped_byte` ==
/// npos) or the file with one bit of `flipped_byte` inverted.
struct Mutation {
  std::vector<char> bytes;
  std::size_t flipped_byte = std::string::npos;
};

/// Every strict prefix and every single-bit flip of `valid`.
std::vector<Mutation> mutations_of(const std::vector<char>& valid) {
  std::vector<Mutation> out;
  for (std::size_t len = 0; len < valid.size(); ++len) {
    out.push_back({std::vector<char>(valid.begin(),
                                     valid.begin() +
                                         static_cast<std::ptrdiff_t>(len)),
                   std::string::npos});
  }
  for (std::size_t at = 0; at < valid.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      Mutation m{valid, at};
      m.bytes[at] = static_cast<char>(
          static_cast<unsigned char>(m.bytes[at]) ^ (1u << bit));
      out.push_back(std::move(m));
    }
  }
  return out;
}

/// Runs `use`: true when it returns, false when it throws tbmd::Error.  Any
/// other exception fails the test (and counts as a rejection).
template <class Use>
bool typed_outcome(const Use& use, const std::string& what) {
  try {
    use();
    return true;
  } catch (const Error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": untyped exception '" << e.what() << "'";
    return false;
  }
}

/// 8-atom Si cell with distinct nonzero velocities.
System small_si_cell() {
  System sys = structures::diamond(Element::Si, 5.431, 1, 1, 1);
  for (std::size_t i = 0; i < sys.size(); ++i) {
    const double k = static_cast<double>(i + 1);
    sys.velocities()[i] = {1e-3 * k, -2e-3 * k, 5e-4};
  }
  return sys;
}

TEST(MutatedFiles, EveryCorruptCheckpointEndsInATypedError) {
  ScratchDir dir("ck_mutate");
  const std::string valid_path = dir.file("valid.ckpt");
  svc::Checkpoint ck;
  ck.step = 4;
  ck.total_steps = 10;
  ck.system = small_si_cell();
  ck.thermostat_target = 300.0;
  ck.thermostat_state = {0.25, -0.125, 0.5};
  svc::write_checkpoint(valid_path, ck);
  expect_same_checkpoint(svc::read_checkpoint(valid_path), ck);

  // The payload CRC covers every byte after the magic, so no prefix and no
  // single-bit flip may read back as a checkpoint.
  const std::string path = dir.file("mutant.ckpt");
  const std::vector<Mutation> inputs = mutations_of(read_bytes(valid_path));
  std::size_t accepted = 0;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    write_bytes(path, inputs[k].bytes);
    if (typed_outcome([&] { (void)svc::read_checkpoint(path); },
                      "ckpt input " + std::to_string(k))) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 0u);
}

TEST(MutatedFiles, EveryCorruptTrajectoryEndsInATypedResult) {
  ScratchDir dir("tbt_mutate");
  io::BinaryTrajectoryOptions opts;  // quantized
  opts.velocities = true;
  const System start = small_si_cell();
  const std::string header_path = dir.file("header.tbt");
  { io::BinaryTrajectoryWriter w(header_path, start, opts); }
  const std::size_t header_bytes = fs::file_size(header_path);

  const std::string valid_path = dir.file("valid.tbt");
  {
    System sys = start;
    io::BinaryTrajectoryWriter w(valid_path, sys, opts);
    for (long step = 0; step < 3; ++step) {
      for (Vec3& r : sys.positions()) r += Vec3{0.01, -0.02, 0.005};
      w.add_frame(sys, step);
    }
  }
  const std::vector<char> valid = read_bytes(valid_path);
  ASSERT_GT(valid.size(), header_bytes);

  const std::string path = dir.file("mutant.tbt");
  const std::string resume_path = dir.file("resumed.tbt");
  const std::vector<Mutation> inputs = mutations_of(valid);
  std::size_t strict_accepted = 0;
  std::size_t resume_accepted = 0;
  // resume() warns about every corrupt tail it drops.
  const io::LogLevel level = io::log_level();
  io::set_log_level(io::LogLevel::kError);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const Mutation& m = inputs[k];
    const std::string what = "tbt input " + std::to_string(k);
    write_bytes(path, m.bytes);
    const bool strict_ok = typed_outcome(
        [&] {
          io::BinaryTrajectoryReader r(path);
          io::TrajectoryFrame frame;
          while (r.next(frame)) (void)r.make_system(frame);
        },
        what + " (reader)");
    if (strict_ok) ++strict_accepted;
    // Every header byte is covered by the header CRC and every frame byte
    // by its frame's CRC.
    const bool flipped = m.flipped_byte != std::string::npos;
    if (flipped) {
      EXPECT_FALSE(strict_ok) << what << ": byte " << m.flipped_byte
                              << " flipped and the strict reader accepted it";
    }
    write_bytes(resume_path, m.bytes);
    const bool resume_ok = typed_outcome(
        [&] {
          (void)io::BinaryTrajectoryWriter::resume(resume_path, start, 1,
                                                   opts);
        },
        what + " (resume)");
    if (resume_ok) ++resume_accepted;
    // resume() drops a corrupt frame tail but never a corrupt header.
    if (flipped && m.flipped_byte < header_bytes) {
      EXPECT_FALSE(resume_ok) << what << ": header byte " << m.flipped_byte
                              << " flipped and resume() accepted it";
    }
  }
  io::set_log_level(level);
  // Prefixes that end on a frame boundary stay readable.
  EXPECT_GT(strict_accepted, 0u);
  EXPECT_GT(resume_accepted, 0u);
}

// --- recovery ladder --------------------------------------------------------

CalculatorSpec guarded_options() {
  CalculatorSpec opt = CalculatorSpec::order_n();
  opt.health.enabled = true;
  return opt;
}

System diamond64() { return structures::diamond(Element::C, 3.567, 2, 2, 2); }

TEST(RecoveryLadder, Fp64RetryRecoversMixedRun) {
  const FaultGuard guard;
  CalculatorSpec opt = guarded_options();
  opt.numerics.precision = PrecisionMode::kMixed;
  onx::OrderNCalculator calc(tb::xwch_carbon(), opt);
  const System sys = diamond64();
  fault::arm(fault::kOnxNoConverge, 1);  // stall only the first run
  const ForceResult res = calc.compute(sys);
  EXPECT_TRUE(std::isfinite(res.energy));
  EXPECT_TRUE(calc.last_purification().converged);
  EXPECT_EQ(calc.recovery_stats().fp64_retries, 1u);
  EXPECT_EQ(calc.recovery_stats().tighten_retries, 0u);
  EXPECT_EQ(calc.recovery_stats().exact_fallbacks, 0u);
  EXPECT_EQ(calc.recovery_stats().last_failure,
            FailureClass::kNonConvergence);
}

TEST(RecoveryLadder, TightenRetryRecoversFp64Run) {
  const FaultGuard guard;
  onx::OrderNCalculator calc(tb::xwch_carbon(), guarded_options());
  const System sys = diamond64();
  fault::arm(fault::kOnxNoConverge, 1);
  const ForceResult res = calc.compute(sys);
  EXPECT_TRUE(std::isfinite(res.energy));
  // Rung (a) is inapplicable to an fp64 run, so the ladder lands on (b).
  EXPECT_EQ(calc.recovery_stats().fp64_retries, 0u);
  EXPECT_EQ(calc.recovery_stats().tighten_retries, 1u);
  EXPECT_EQ(calc.recovery_stats().exact_fallbacks, 0u);
}

TEST(RecoveryLadder, NanTileRecoversViaTightenRung) {
  const FaultGuard guard;
  onx::OrderNCalculator calc(tb::xwch_carbon(), guarded_options());
  const System sys = diamond64();
  fault::arm(fault::kOnxNanTile, 1);
  const ForceResult res = calc.compute(sys);
  EXPECT_TRUE(std::isfinite(res.energy));
  for (const Vec3& f : res.forces) {
    EXPECT_TRUE(std::isfinite(f.x) && std::isfinite(f.y) &&
                std::isfinite(f.z));
  }
  EXPECT_EQ(calc.recovery_stats().tighten_retries, 1u);
  EXPECT_EQ(calc.recovery_stats().last_failure, FailureClass::kNonFinite);
}

TEST(RecoveryLadder, ExactFallbackWhenPurificationKeepsFailing) {
  const FaultGuard guard;
  const System sys = diamond64();
  // Clean reference for the energy cross-check.
  onx::OrderNCalculator clean(tb::xwch_carbon(), guarded_options());
  const double e_ref = clean.compute(sys).energy;

  onx::OrderNCalculator calc(tb::xwch_carbon(), guarded_options());
  fault::arm(fault::kOnxNoConverge, 0);  // every purification run stalls
  const ForceResult res = calc.compute(sys);
  EXPECT_EQ(calc.recovery_stats().tighten_retries, 1u);
  EXPECT_EQ(calc.recovery_stats().exact_fallbacks, 1u);
  EXPECT_EQ(calc.recovery_stats().failures, 0u);
  // The exact-diagonalization rung solves the same Hamiltonian, so the
  // energy must agree with the clean purification to its truncation level.
  EXPECT_NEAR(res.energy, e_ref, 1e-2);
  // With no truncation at all it must match the exact engine (T_el = 0)
  // to rounding.  Measured: |dE| 0 eV, max |dF| 1.8e-14 eV/A.
  tb::TightBindingCalculator exact(tb::xwch_carbon());
  const ForceResult ref = exact.compute(sys);
  EXPECT_NEAR(res.energy, ref.energy, 1e-9);
  ASSERT_EQ(res.forces.size(), ref.forces.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.forces.size(); ++i) {
    const Vec3 d = res.forces[i] - ref.forces[i];
    worst = std::max({worst, std::fabs(d.x), std::fabs(d.y), std::fabs(d.z)});
  }
  EXPECT_LT(worst, 1e-9);
}

TEST(RecoveryLadder, ThrowsTypedErrorWhenLadderExhausted) {
  const FaultGuard guard;
  CalculatorSpec opt = guarded_options();
  opt.health.exact_fallback = false;
  onx::OrderNCalculator calc(tb::xwch_carbon(), opt);
  const System sys = diamond64();
  fault::arm(fault::kOnxNoConverge, 0);
  try {
    (void)calc.compute(sys);
    FAIL() << "expected NumericsError";
  } catch (const NumericsError& e) {
    EXPECT_EQ(e.failure_class(), FailureClass::kNonConvergence);
    EXPECT_NE(std::string(e.what()).find("non-convergence"),
              std::string::npos);
  }
  EXPECT_EQ(calc.recovery_stats().failures, 1u);
}

TEST(RecoveryLadder, HealthOffCountsUnconvergedInsteadOfRetrying) {
  const FaultGuard guard;
  onx::OrderNCalculator calc(tb::xwch_carbon());
  const System sys = diamond64();
  fault::arm(fault::kOnxNoConverge, 1);
  const ForceResult res = calc.compute(sys);
  // Historical behavior preserved: the unconverged density is used, but
  // the step is counted and classified rather than passing silently.
  EXPECT_TRUE(std::isfinite(res.energy));
  EXPECT_FALSE(calc.last_purification().converged);
  EXPECT_EQ(calc.recovery_stats().unconverged_steps, 1u);
  EXPECT_EQ(calc.recovery_stats().fp64_retries, 0u);
  EXPECT_EQ(calc.recovery_stats().last_failure,
            FailureClass::kNonConvergence);
  // The next (fault-free) step is healthy and leaves the counter alone.
  (void)calc.compute(sys);
  EXPECT_EQ(calc.recovery_stats().unconverged_steps, 1u);
}

TEST(RecoveryLadder, HealthOnIsBitIdenticalWhenNothingFails) {
  // Acceptance: with no faults armed, the guarded path must be
  // bit-identical to the unguarded engine -- the scans only read results.
  const System sys = diamond64();
  onx::OrderNCalculator off(tb::xwch_carbon());
  onx::OrderNCalculator on(tb::xwch_carbon(), guarded_options());
  const ForceResult a = off.compute(sys);
  const ForceResult b = on.compute(sys);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.band_energy, b.band_energy);
  ASSERT_EQ(a.forces.size(), b.forces.size());
  for (std::size_t i = 0; i < a.forces.size(); ++i) {
    EXPECT_EQ(a.forces[i].x, b.forces[i].x) << "atom " << i;
    EXPECT_EQ(a.forces[i].y, b.forces[i].y) << "atom " << i;
    EXPECT_EQ(a.forces[i].z, b.forces[i].z) << "atom " << i;
  }
  EXPECT_EQ(on.recovery_stats().fp64_retries, 0u);
  EXPECT_EQ(on.recovery_stats().tighten_retries, 0u);
  EXPECT_EQ(on.recovery_stats().exact_fallbacks, 0u);
}

}  // namespace
}  // namespace tbmd
