// Tests for the extension features: SP2 purification, the Gear
// predictor-corrector integrator, configuration parsing and restart I/O.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "src/io/config.hpp"
#include "src/io/xyz.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/md/gear.hpp"
#include "src/md/md_driver.hpp"
#include "src/md/velocities.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/onx/purification.hpp"
#include "src/potentials/lennard_jones.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/occupations.hpp"

namespace tbmd {
namespace {

// --- SP2 purification ----------------------------------------------------

TEST(Sp2, MatchesExactBandEnergyOnGappedSystem) {
  const tb::TbModel m = tb::xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  const auto hd = tb::build_hamiltonian(m, s, list);
  const auto occ = tb::occupy(linalg::eigvalsh(hd),
                              s.total_valence_electrons(), 0.0);

  onx::PurificationOptions opt;
  opt.drop_tolerance = 0.0;
  const auto sp2 = onx::sp2_purification(
      onx::BlockSparseMatrix::from_dense(hd, 4),
      s.total_valence_electrons() / 2, opt);
  ASSERT_TRUE(sp2.converged);
  EXPECT_NEAR(sp2.band_energy, occ.band_energy, 1e-5);
  EXPECT_NEAR(sp2.density.trace(),
              static_cast<double>(s.total_valence_electrons() / 2), 1e-5);
}

TEST(Sp2, AgreesWithPalserManolopoulos) {
  const tb::TbModel m = tb::gsp_silicon();
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  tb::BondTable table;
  table.build(m, s, list, tb::BondTable::Mode::kBlocks);
  const auto h = onx::build_block_hamiltonian(m, s, table);
  const int nocc = s.total_valence_electrons() / 2;

  onx::PurificationOptions opt;
  opt.drop_tolerance = 1e-8;
  const auto pm = onx::palser_manolopoulos(h, nocc, opt);
  const auto sp2 = onx::sp2_purification(h, nocc, opt);
  ASSERT_TRUE(pm.converged);
  ASSERT_TRUE(sp2.converged);
  EXPECT_NEAR(pm.band_energy, sp2.band_energy, 1e-4);
}

// --- Gear predictor-corrector -------------------------------------------

TEST(Gear, ConservesEnergyOnLennardJonesCrystal) {
  System s = structures::fcc(Element::Ar, 5.26, 2, 2, 2);
  md::maxwell_boltzmann_velocities(s, 40.0, 5);
  potentials::LennardJonesParams p;
  p.cutoff = 4.8;
  p.skin = 0.4;
  potentials::LennardJonesCalculator calc(p);
  md::GearDriver driver(s, calc, 1.0);
  const double e0 = driver.total_energy();
  driver.run(400);
  EXPECT_NEAR(driver.total_energy(), e0, 5e-4 * s.size());
}

TEST(Gear, TracksVerletTrajectoryAtSmallTimestep) {
  // Both integrators converge to the true trajectory as dt -> 0; at a
  // small dt their short-time trajectories must agree closely.
  System s1 = structures::fcc(Element::Ar, 5.26, 2, 2, 2);
  md::maxwell_boltzmann_velocities(s1, 30.0, 7);
  System s2 = s1;

  potentials::LennardJonesParams p;
  p.cutoff = 4.8;
  p.skin = 0.4;
  potentials::LennardJonesCalculator c1(p), c2(p);
  md::GearDriver gear(s1, c1, 0.5);
  md::MdDriver verlet(s2, c2, {0.5});
  gear.run(100);
  verlet.run(100);

  double worst = 0.0;
  for (std::size_t i = 0; i < s1.size(); ++i) {
    worst = std::max(worst, norm(s1.positions()[i] - s2.positions()[i]));
  }
  EXPECT_LT(worst, 1e-3);
}

TEST(Gear, FrozenAtomsStayPut) {
  System s = structures::fcc(Element::Ar, 5.26, 2, 2, 2);
  s.set_frozen(0, true);
  const Vec3 pinned = s.positions()[0];
  md::maxwell_boltzmann_velocities(s, 50.0, 9);
  potentials::LennardJonesParams p;
  p.cutoff = 4.8;
  p.skin = 0.4;
  potentials::LennardJonesCalculator calc(p);
  md::GearDriver driver(s, calc, 1.0);
  driver.run(40);
  EXPECT_EQ(s.positions()[0], pinned);
}

TEST(Gear, RejectsBadTimestep) {
  System s = structures::dimer(Element::Ar, 3.8);
  potentials::LennardJonesCalculator calc;
  EXPECT_THROW(md::GearDriver(s, calc, 0.0), Error);
}

// --- Config --------------------------------------------------------------

TEST(Config, ParsesTypedValues) {
  const auto cfg = io::Config::parse_string(R"(
    # a comment
    model = tb-exact
    steps = 250
    dt    = 0.5       # trailing comment
    relax = yes
    cells = 2 3 4
    masses = 1.5 2.5
  )");
  EXPECT_EQ(cfg.require_string("model"), "tb-exact");
  EXPECT_EQ(cfg.get_long("steps", 0), 250);
  EXPECT_DOUBLE_EQ(cfg.get_double("dt", 0.0), 0.5);
  EXPECT_TRUE(cfg.get_bool("relax", false));
  const auto cells = cfg.get_longs("cells", {});
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[2], 4);
  const auto masses = cfg.get_doubles("masses", {});
  ASSERT_EQ(masses.size(), 2u);
  EXPECT_DOUBLE_EQ(masses[1], 2.5);
}

TEST(Config, KeysAreCaseInsensitive) {
  const auto cfg = io::Config::parse_string("Temperature = 300\n");
  EXPECT_TRUE(cfg.has("temperature"));
  EXPECT_TRUE(cfg.has("TEMPERATURE"));
  EXPECT_DOUBLE_EQ(cfg.get_double("temperature", 0.0), 300.0);
}

TEST(Config, DefaultsAndRequired) {
  const auto cfg = io::Config::parse_string("a = 1\n");
  EXPECT_EQ(cfg.get_long("missing", 7), 7);
  EXPECT_EQ(cfg.get_string("missing", "x"), "x");
  EXPECT_THROW((void)cfg.require_string("missing"), Error);
}

TEST(Config, SyntaxErrorsAreReportedWithLineNumbers) {
  EXPECT_THROW((void)io::Config::parse_string("novalue\n"), Error);
  EXPECT_THROW((void)io::Config::parse_string("= 3\n"), Error);
  EXPECT_THROW((void)io::Config::parse_string("a = 1\na = 2\n"), Error);
  try {
    (void)io::Config::parse_string("ok = 1\nbroken line\n");
    FAIL();
  } catch (const Error& e) {
    // Errors carry "source:line" prefixes (e.g. "<config>:2: ...").
    EXPECT_NE(std::string(e.what()).find(":2"), std::string::npos);
  }
}

TEST(Config, BadTypedValuesThrow) {
  const auto cfg = io::Config::parse_string("x = abc\nb = maybe\n");
  EXPECT_THROW((void)cfg.get_double("x", 0.0), Error);
  EXPECT_THROW((void)cfg.get_long("x", 0), Error);
  EXPECT_THROW((void)cfg.get_bool("b", false), Error);
}

TEST(Config, TypedRequireAccessors) {
  const auto cfg = io::Config::parse_string(
      "n = 5\nx = 2.5\nflag = true\nv = 1.0 2.0 3.0\nname = melt\n");
  EXPECT_EQ(cfg.require_long("n"), 5);
  EXPECT_EQ(cfg.require_double("x"), 2.5);
  EXPECT_TRUE(cfg.require_bool("flag"));
  EXPECT_EQ(cfg.require_string("name"), "melt");
  EXPECT_EQ(cfg.require_doubles("v", 3), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_THROW((void)cfg.require_doubles("v", 2), Error);  // wrong count
  EXPECT_THROW((void)cfg.require_long("x"), Error);        // wrong type
  EXPECT_THROW((void)cfg.require_long("absent"), Error);   // missing
}

TEST(Config, ErrorsCarryFileAndLine) {
  const auto cfg =
      io::Config::parse_string("a = 1\nb = oops\n", "demo.cfg");
  EXPECT_EQ(cfg.where("b"), "demo.cfg:2");
  EXPECT_EQ(cfg.line("a"), 1);
  EXPECT_EQ(cfg.line("absent"), 0);
  try {
    (void)cfg.require_long("b");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("demo.cfg:2"), std::string::npos);
  }
}

TEST(Config, UnusedKeysAreTracked) {
  const auto cfg = io::Config::parse_string("a = 1\ntypo = 2\n");
  (void)cfg.get_long("a", 0);
  EXPECT_EQ(cfg.unused_keys(), (std::vector<std::string>{"typo"}));
  try {
    cfg.require_all_used("test config");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("typo"), std::string::npos);
  }
  (void)cfg.get_long("typo", 0);
  EXPECT_TRUE(cfg.unused_keys().empty());
  cfg.require_all_used("test config");  // no longer throws
}

// --- restart I/O (velocities in XYZ) --------------------------------------

TEST(RestartXyz, VelocitiesRoundTrip) {
  System a = structures::diamond(Element::Si, 5.431, 1, 1, 2);
  md::maxwell_boltzmann_velocities(a, 300.0, 11);
  std::stringstream ss;
  io::write_xyz(ss, a, "restart", /*with_velocities=*/true);

  System b;
  ASSERT_TRUE(io::read_xyz(ss, b));
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(norm(b.velocities()[i] - a.velocities()[i]), 0.0, 1e-9);
  }
  EXPECT_NEAR(b.temperature(), a.temperature(), 1e-6);
}

TEST(RestartXyz, PlainFilesReadBackWithZeroVelocities) {
  System a = structures::dimer(Element::C, 1.4);
  a.velocities()[0] = {1, 2, 3};
  std::stringstream ss;
  io::write_xyz(ss, a, "", /*with_velocities=*/false);
  System b;
  ASSERT_TRUE(io::read_xyz(ss, b));
  EXPECT_EQ(b.velocities()[0], (Vec3{0, 0, 0}));
}

TEST(RestartXyz, RestartContinuesTrajectoryExactly) {
  // Running 20 steps straight must equal 10 steps + restart + 10 steps
  // when the full state (positions + velocities) round-trips.
  System s1 = structures::fcc(Element::Ar, 5.26, 2, 2, 2);
  md::maxwell_boltzmann_velocities(s1, 60.0, 13);
  System s2 = s1;

  potentials::LennardJonesParams p;
  p.cutoff = 4.8;
  p.skin = 0.4;

  potentials::LennardJonesCalculator c1(p);
  md::MdDriver d1(s1, c1, {2.0});
  d1.run(20);

  potentials::LennardJonesCalculator c2(p);
  md::MdDriver d2(s2, c2, {2.0});
  d2.run(10);
  std::stringstream ss;
  io::write_xyz(ss, s2, "half", true);
  System resumed;
  ASSERT_TRUE(io::read_xyz(ss, resumed));
  potentials::LennardJonesCalculator c3(p);
  md::MdDriver d3(resumed, c3, {2.0});
  d3.run(10);

  double worst = 0.0;
  for (std::size_t i = 0; i < s1.size(); ++i) {
    worst = std::max(worst, norm(s1.positions()[i] - resumed.positions()[i]));
  }
  EXPECT_LT(worst, 1e-7);
}

}  // namespace
}  // namespace tbmd
