/// \file tbmd_run.cpp
/// \brief Config-file driven simulation runner -- the library as a tool.
///
/// Usage:  ./tbmd_run input.cfg
///
/// Example configuration:
/// \code
///   # structure
///   structure   = diamond        # diamond | fcc | graphene | nanotube | c60 | xyz
///   element     = Si
///   lattice     = 5.431
///   cells       = 2 2 2
///   # model
///   model       = tb-exact       # tb-exact | tb-on | tersoff | lj
///   # optional relaxation before dynamics
///   relax       = false
///   # dynamics
///   ensemble    = nvt            # nve | nvt
///   temperature = 300
///   thermostat_tau = 50
///   dt          = 1.0
///   steps       = 200
///   seed        = 42
///   # output
///   trajectory  = run.xyz
///   sample_every = 20
///   restart     = final.xyz      # written with velocities at the end
/// \endcode

#include <cstdio>
#include <iostream>
#include <memory>

#include "src/analysis/thermo.hpp"
#include "src/core/calculator_spec.hpp"
#include "src/io/binary_trajectory.hpp"
#include "src/io/config.hpp"
#include "src/io/logger.hpp"
#include "src/io/table.hpp"
#include "src/io/xyz.hpp"
#include "src/md/md_driver.hpp"
#include "src/md/thermostat.hpp"
#include "src/md/velocities.hpp"
#include "src/potentials/lennard_jones.hpp"
#include "src/potentials/tersoff.hpp"
#include "src/relax/relax.hpp"
#include "src/structures/builders.hpp"
#include "src/structures/fullerene.hpp"
#include "src/structures/nanotube.hpp"
#include "src/tb/tb_model.hpp"
#include "src/util/error.hpp"
#include "src/util/string_util.hpp"

namespace {

using namespace tbmd;

System build_structure(const io::Config& cfg) {
  const std::string kind = to_lower(cfg.require_string("structure"));
  const Element elem =
      element_from_symbol(cfg.get_string("element", kind == "fcc" ? "Ar" : "Si"));
  const auto cells = cfg.get_ints("cells", {2, 2, 2});
  TBMD_REQUIRE(cells.size() == 3, "config: 'cells' needs three integers");

  if (kind == "diamond") {
    const double a = cfg.get_double("lattice", elem == Element::C ? 3.567 : 5.431);
    return structures::diamond(elem, a, cells[0], cells[1], cells[2]);
  }
  if (kind == "fcc") {
    const double a = cfg.get_double("lattice", 5.26);
    return structures::fcc(elem, a, cells[0], cells[1], cells[2]);
  }
  if (kind == "graphene") {
    const double bond = cfg.get_double("bond", 1.42);
    return structures::graphene(elem, bond, cells[0], cells[1]);
  }
  if (kind == "nanotube") {
    const auto nm = cfg.get_ints("indices", {10, 0});
    TBMD_REQUIRE(nm.size() == 2, "config: 'indices' needs n and m");
    const double bond = cfg.get_double("bond", 1.42);
    const bool periodic = cfg.get_bool("periodic", true);
    return structures::nanotube(elem, nm[0], nm[1], bond, cells[2], periodic);
  }
  if (kind == "c60") return structures::c60();
  if (kind == "xyz") return io::read_xyz_file(cfg.require_string("file"));
  throw Error("config: unknown structure '" + kind + "'");
}

std::unique_ptr<Calculator> build_calculator(const io::Config& cfg,
                                             const System& system) {
  const std::string kind = to_lower(cfg.get_string("model", "tb-exact"));
  const Element elem = system.species().empty() ? Element::Si
                                                : system.species().front();
  if (kind == "tb-exact" || kind == "tb-on") {
    CalculatorSpec spec;
    spec.mode = CalculatorSpec::mode_by_name(kind);
    spec.skin = cfg.get_double("skin", spec.skin);
    spec.electronic_temperature = cfg.get_double("electronic_temperature", 0.0);
    spec.numerics.drop_tolerance =
        cfg.get_double("drop_tolerance", spec.numerics.drop_tolerance);
    spec.numerics.precision = NumericsSpec::precision_by_name(
        to_lower(cfg.get_string("precision", spec.numerics.precision_name())));
    const std::string model_name =
        cfg.get_string("tb_model", std::string(element_symbol(elem)));
    return make_calculator(tb::model_by_name(model_name), system, spec);
  }
  if (kind == "tersoff") {
    return std::make_unique<potentials::TersoffCalculator>(
        elem == Element::C ? potentials::tersoff_carbon()
                           : potentials::tersoff_silicon());
  }
  if (kind == "lj") {
    potentials::LennardJonesParams p;
    p.epsilon = cfg.get_double("epsilon", p.epsilon);
    p.sigma = cfg.get_double("sigma", p.sigma);
    p.cutoff = cfg.get_double("cutoff", p.cutoff);
    return std::make_unique<potentials::LennardJonesCalculator>(p);
  }
  throw Error("config: unknown model '" + kind + "'");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s input.cfg\n", argv[0]);
    return 2;
  }
  try {
    using namespace tbmd;
    const io::Config cfg = io::Config::parse_file(argv[1]);

    System system = build_structure(cfg);
    std::unique_ptr<Calculator> calc = build_calculator(cfg, system);
    io::log_info("structure: ", system.size(), " atoms; model: ",
                 calc->name());

    if (cfg.get_bool("relax", false)) {
      relax::RelaxOptions ropt;
      ropt.force_tolerance = cfg.get_double("relax_tolerance", 1e-2);
      ropt.max_iterations = cfg.get_long("relax_max_iterations", 1000);
      const auto rr = relax::fire_relax(system, *calc, ropt);
      io::log_info("relaxation: converged=", rr.converged, " E=", rr.energy,
                   " eV, max|F|=", rr.max_force);
    }

    const long steps = cfg.get_long("steps", 100);
    const double dt = cfg.get_double("dt", 1.0);
    const double temperature = cfg.get_double("temperature", 300.0);
    const long sample_every = cfg.get_long("sample_every", 25);

    md::maxwell_boltzmann_velocities(
        system, temperature,
        static_cast<std::uint64_t>(cfg.get_long("seed", 42)));

    md::MdOptions mdopt;
    mdopt.dt = dt;
    const std::string ensemble = to_lower(cfg.get_string("ensemble", "nvt"));
    if (ensemble == "nvt") {
      mdopt.thermostat = md::ThermostatSpec::nose_hoover(
          temperature, cfg.get_double("thermostat_tau", 50.0), 2);
    } else {
      TBMD_REQUIRE(ensemble == "nve", "config: ensemble must be nve or nvt");
    }

    md::MdDriver driver(system, *calc, mdopt);

    // Trajectory output: a .tbt path selects the compact binary format.
    std::unique_ptr<io::TrajectoryWriter> traj;
    std::unique_ptr<io::BinaryTrajectoryWriter> btraj;
    if (cfg.has("trajectory")) {
      const std::string path = cfg.require_string("trajectory");
      if (path.size() > 4 && path.substr(path.size() - 4) == ".tbt") {
        btraj = std::make_unique<io::BinaryTrajectoryWriter>(path, system);
      } else {
        traj = std::make_unique<io::TrajectoryWriter>(path);
      }
    }

    io::Table table({"time_fs", "T_K", "E_pot_eV", "E_tot_eV", "P_GPa"});
    driver.run(steps, [&](const md::MdDriver& d, long step) {
      if (step % sample_every != 0) return;
      double p_gpa = 0.0;
      if (d.system().cell().periodic()) {
        p_gpa = analysis::kEvPerA3ToGPa *
                analysis::instantaneous_pressure(d.system(), d.last_result());
      }
      table.add_numeric_row({d.time_fs(), d.system().temperature(),
                             d.last_result().energy, d.total_energy(), p_gpa},
                            6);
      if (traj) traj->add_frame(d.system(), "t=" + std::to_string(d.time_fs()));
      if (btraj) btraj->add_frame(d.system(), step);
    });
    table.print(std::cout);

    if (cfg.has("restart")) {
      io::write_xyz_file(cfg.require_string("restart"), system, "restart",
                         /*with_velocities=*/true);
      io::log_info("restart written to ", cfg.require_string("restart"));
    }

    for (const std::string& key : cfg.unused_keys()) {
      io::log_warn("config: unused key '", key, "' at ", cfg.where(key));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
