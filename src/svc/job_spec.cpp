#include "src/svc/job_spec.hpp"

#include <filesystem>
#include <set>

#include "src/io/xyz.hpp"
#include "src/potentials/lennard_jones.hpp"
#include "src/potentials/tersoff.hpp"
#include "src/structures/builders.hpp"
#include "src/structures/fullerene.hpp"
#include "src/structures/nanotube.hpp"
#include "src/tb/tb_model.hpp"
#include "src/util/error.hpp"
#include "src/util/string_util.hpp"

namespace tbmd::svc {

JobSpec JobSpec::from_config(const io::Config& cfg) {
  JobSpec s;
  s.name = cfg.get_string("name", s.name);
  TBMD_REQUIRE(!s.name.empty() && s.name.find('/') == std::string::npos,
               "job spec: 'name' must be a non-empty file stem");

  s.structure = to_lower(cfg.get_string("structure", s.structure));
  s.element = element_from_symbol(
      cfg.get_string("element", s.structure == "fcc" ? "Ar" : "Si"));
  s.lattice = cfg.get_double("lattice", 0.0);
  TBMD_REQUIRE(s.lattice >= 0.0, "job spec: 'lattice' must be >= 0");
  s.bond = cfg.get_double("bond", 0.0);
  TBMD_REQUIRE(s.bond >= 0.0, "job spec: 'bond' must be >= 0");
  s.cells = cfg.get_longs("cells", s.cells);
  TBMD_REQUIRE(s.cells.size() == 3, "job spec: 'cells' needs three integers");
  for (const long n : s.cells) {
    TBMD_REQUIRE(n >= 1, "job spec: each 'cells' entry must be >= 1");
  }
  s.indices = cfg.get_longs("indices", s.indices);
  TBMD_REQUIRE(s.indices.size() == 2, "job spec: 'indices' needs n and m");
  s.periodic = cfg.get_bool("periodic", true);
  if (s.structure == "xyz") s.xyz_file = cfg.require_string("file");

  s.model = to_lower(cfg.get_string("model", ""));
  s.calc.skin = cfg.get_double("skin", s.calc.skin);
  TBMD_REQUIRE(s.calc.skin >= 0.0, "job spec: 'skin' must be >= 0");
  s.threads = static_cast<int>(cfg.get_long("threads", 0));
  TBMD_REQUIRE(s.threads >= 0, "job spec: 'threads' must be >= 0");
  if (s.classical()) {
    if (s.model == "lj") {
      s.lj_epsilon = cfg.get_double("epsilon", 0.0);
      s.lj_sigma = cfg.get_double("sigma", 0.0);
      s.lj_cutoff = cfg.get_double("cutoff", 0.0);
    }
  } else {
    s.calc.mode = CalculatorSpec::mode_by_name(cfg.get_string("mode", "exact"));
    s.calc.electronic_temperature =
        cfg.get_double("electronic_temperature", 0.0);
    TBMD_REQUIRE(s.calc.electronic_temperature >= 0.0,
                 "job spec: 'electronic_temperature' must be >= 0");
    // Numerics policy (O(N) engine): every key lands on the shared
    // NumericsSpec.
    NumericsSpec& num = s.calc.numerics;
    num.drop_tolerance = cfg.get_double("drop_tolerance", num.drop_tolerance);
    TBMD_REQUIRE(num.drop_tolerance >= 0.0,
                 "job spec: 'drop_tolerance' must be >= 0");
    num.schedule_loosening =
        cfg.get_double("schedule_loosening", num.schedule_loosening);
    TBMD_REQUIRE(num.schedule_loosening > 0.0,
                 "job spec: 'schedule_loosening' must be positive");
    num.precision = NumericsSpec::precision_by_name(
        to_lower(cfg.get_string("precision", num.precision_name())));
    s.calc.reuse_patterns = cfg.get_bool("reuse_patterns", true);
    s.calc.domains = static_cast<int>(cfg.get_long("domains", 0));
    TBMD_REQUIRE(s.calc.domains >= 0, "job spec: 'domains' must be >= 0");
    s.calc.cache_spectral_bounds =
        cfg.get_bool("cache_spectral_bounds", false);
    s.calc.bond_reuse_skin =
        cfg.get_double("bond_reuse_skin", s.calc.bond_reuse_skin);
    TBMD_REQUIRE(s.calc.bond_reuse_skin >= 0.0,
                 "job spec: 'bond_reuse_skin' must be >= 0");
    // Numerics guardrails + recovery ladder (O(N) engine).
    HealthSpec& health = s.calc.health;
    health.enabled = cfg.get_bool("health", health.enabled);
    health.max_force = cfg.get_double("max_force", health.max_force);
    TBMD_REQUIRE(health.max_force >= 0.0,
                 "job spec: 'max_force' must be >= 0");
    health.max_energy_per_atom =
        cfg.get_double("max_energy_per_atom", health.max_energy_per_atom);
    TBMD_REQUIRE(health.max_energy_per_atom >= 0.0,
                 "job spec: 'max_energy_per_atom' must be >= 0");
    health.fp64_retry = cfg.get_bool("health_fp64_retry", health.fp64_retry);
    health.tighten_retry =
        cfg.get_bool("health_tighten_retry", health.tighten_retry);
    health.tighten_factor =
        cfg.get_double("health_tighten_factor", health.tighten_factor);
    TBMD_REQUIRE(health.tighten_factor > 0.0 && health.tighten_factor < 1.0,
                 "job spec: 'health_tighten_factor' must be in (0, 1)");
    health.exact_fallback =
        cfg.get_bool("health_exact_fallback", health.exact_fallback);
  }

  s.dt = cfg.get_double("dt", s.dt);
  TBMD_REQUIRE(s.dt > 0.0, "job spec: 'dt' must be positive");
  s.steps = cfg.require_long("steps");
  TBMD_REQUIRE(s.steps > 0, "job spec: 'steps' must be positive");
  s.temperature = cfg.get_double("temperature", s.temperature);
  TBMD_REQUIRE(s.temperature >= 0.0, "job spec: 'temperature' must be >= 0");
  const long seed = cfg.get_long("seed", 42);
  TBMD_REQUIRE(seed >= 0, "job spec: 'seed' must be >= 0");
  s.seed = static_cast<std::uint64_t>(seed);

  s.thermostat = md::ThermostatSpec::by_name(
      cfg.get_string("thermostat", "none"), s.temperature);
  if (s.thermostat.active()) {
    s.thermostat.tau_fs = cfg.get_double("thermostat_tau", s.thermostat.tau_fs);
    TBMD_REQUIRE(s.thermostat.tau_fs > 0.0,
                 "job spec: 'thermostat_tau' must be positive");
    s.thermostat.interval =
        static_cast<int>(cfg.get_long("thermostat_interval", 1));
    TBMD_REQUIRE(s.thermostat.interval >= 1,
                 "job spec: 'thermostat_interval' must be >= 1");
    s.thermostat.chain_length =
        static_cast<int>(cfg.get_long("chain_length", 2));
    TBMD_REQUIRE(s.thermostat.chain_length >= 1,
                 "job spec: 'chain_length' must be >= 1");
  }
  s.ramp_to = cfg.get_double("ramp_to", 0.0);
  TBMD_REQUIRE(s.ramp_to >= 0.0, "job spec: 'ramp_to' must be >= 0");
  s.ramp_steps = cfg.get_long("ramp_steps", 0);
  TBMD_REQUIRE(s.ramp_steps >= 0, "job spec: 'ramp_steps' must be >= 0");
  TBMD_REQUIRE(s.ramp_steps == 0 || s.thermostat.active(),
               "job spec: a temperature ramp needs a thermostat");

  s.sample_every = cfg.get_long("sample_every", s.sample_every);
  TBMD_REQUIRE(s.sample_every >= 0, "job spec: 'sample_every' must be >= 0");
  s.checkpoint_every = cfg.get_long("checkpoint_every", 0);
  TBMD_REQUIRE(s.checkpoint_every >= 0,
               "job spec: 'checkpoint_every' must be >= 0");
  s.traj_velocities = cfg.get_bool("traj_velocities", false);
  s.traj_lossless = cfg.get_bool("traj_lossless", false);
  s.faults = cfg.get_string("faults", "");

  cfg.require_all_used("job spec '" + s.name + "'");
  return s;
}

JobSpec JobSpec::from_file(const std::string& path) {
  const io::Config cfg = io::Config::parse_file(path);
  const bool named = cfg.has("name");
  JobSpec s = from_config(cfg);
  if (!named) s.name = std::filesystem::path(path).stem().string();
  return s;
}

System JobSpec::build_system() const {
  const auto nx = cells[0];
  const auto ny = cells[1];
  const auto nz = cells[2];
  if (structure == "diamond") {
    const double a =
        lattice > 0.0 ? lattice : (element == Element::C ? 3.567 : 5.431);
    return structures::diamond(element, a, nx, ny, nz);
  }
  if (structure == "fcc") {
    const double a = lattice > 0.0 ? lattice : 5.26;
    return structures::fcc(element, a, nx, ny, nz);
  }
  if (structure == "graphene") {
    return structures::graphene(element, bond > 0.0 ? bond : 1.42, nx, ny);
  }
  if (structure == "nanotube") {
    return structures::nanotube(element, static_cast<int>(indices[0]),
                                static_cast<int>(indices[1]),
                                bond > 0.0 ? bond : 1.42,
                                static_cast<int>(nz), periodic);
  }
  if (structure == "c60") return structures::c60();
  if (structure == "xyz") return io::read_xyz_file(xyz_file);
  throw Error("job spec: unknown structure '" + structure + "'");
}

bool JobSpec::classical() const { return model == "tersoff" || model == "lj"; }

std::string JobSpec::resolved_model() const {
  if (classical()) return model;
  const std::string raw =
      model.empty() ? std::string(element_symbol(element)) : model;
  return tb::model_by_name(raw).name;
}

std::unique_ptr<Calculator> JobSpec::make_calculator(
    const System& system) const {
  const Element elem =
      system.species().empty() ? element : system.species().front();
  if (model == "tersoff") {
    potentials::TersoffParams p = elem == Element::C
                                      ? potentials::tersoff_carbon()
                                      : potentials::tersoff_silicon();
    p.skin = calc.skin;
    return std::make_unique<potentials::TersoffCalculator>(p);
  }
  if (model == "lj") {
    potentials::LennardJonesParams p;
    if (lj_epsilon > 0.0) p.epsilon = lj_epsilon;
    if (lj_sigma > 0.0) p.sigma = lj_sigma;
    if (lj_cutoff > 0.0) p.cutoff = lj_cutoff;
    p.skin = calc.skin;
    return std::make_unique<potentials::LennardJonesCalculator>(p);
  }
  return tbmd::make_calculator(tb::model_by_name(resolved_model()), system,
                               calc);
}

double JobSpec::target_at(long step) const {
  if (ramp_steps <= 0) return temperature;
  if (step >= ramp_steps) return ramp_to;
  const double f =
      static_cast<double>(step + 1) / static_cast<double>(ramp_steps);
  return temperature + f * (ramp_to - temperature);
}

Sweep load_sweep(const std::string& path) {
  const io::Config cfg = io::Config::parse_file(path);
  Sweep sw;
  sw.output_dir = cfg.get_string("output_dir", sw.output_dir);
  sw.workers = static_cast<int>(cfg.get_long("workers", 1));
  TBMD_REQUIRE(sw.workers >= 1, "sweep: 'workers' must be >= 1");
  sw.resume = cfg.get_bool("resume", true);
  sw.max_job_retries =
      static_cast<int>(cfg.get_long("max_job_retries", sw.max_job_retries));
  TBMD_REQUIRE(sw.max_job_retries >= 0,
               "sweep: 'max_job_retries' must be >= 0");
  sw.retry_backoff_s = cfg.get_double("retry_backoff", sw.retry_backoff_s);
  TBMD_REQUIRE(sw.retry_backoff_s >= 0.0,
               "sweep: 'retry_backoff' must be >= 0");
  sw.step_watchdog_s = cfg.get_double("step_watchdog", sw.step_watchdog_s);
  TBMD_REQUIRE(sw.step_watchdog_s >= 0.0,
               "sweep: 'step_watchdog' must be >= 0");
  const long replicas = cfg.get_long("replicas", 1);
  TBMD_REQUIRE(replicas >= 1, "sweep: 'replicas' must be >= 1");
  const std::vector<std::string> job_files =
      split_whitespace(cfg.require_string("jobs"));
  TBMD_REQUIRE(!job_files.empty(), "sweep: 'jobs' lists no spec files");
  cfg.require_all_used("sweep file '" + path + "'");

  const std::filesystem::path base = std::filesystem::path(path).parent_path();
  std::vector<JobSpec> parsed;
  for (const std::string& file : job_files) {
    std::filesystem::path p(file);
    if (p.is_relative()) p = base / p;
    parsed.push_back(JobSpec::from_file(p.string()));
  }

  for (const JobSpec& spec : parsed) {
    if (replicas == 1) {
      sw.jobs.push_back(spec);
      continue;
    }
    for (long k = 0; k < replicas; ++k) {
      JobSpec copy = spec;
      copy.name += "-r" + std::to_string(k);
      copy.seed += static_cast<std::uint64_t>(k);
      sw.jobs.push_back(std::move(copy));
    }
  }

  std::set<std::string> names;
  for (const JobSpec& spec : sw.jobs) {
    TBMD_REQUIRE(names.insert(spec.name).second,
                 "sweep: duplicate job name '" + spec.name + "'");
  }
  return sw;
}

}  // namespace tbmd::svc
