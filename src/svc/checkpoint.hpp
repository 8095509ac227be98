#pragma once

/// \file checkpoint.hpp
/// \brief Deterministic binary MD checkpoints (.ckpt) for kill-and-resume.
///
/// A checkpoint captures everything the job runner needs to continue a
/// trajectory bit-identically after a crash or preemption: the full System
/// (cell, species, frozen flags, positions, velocities as raw IEEE
/// doubles -- no decimal round trip), the thermostat's target and internal
/// chain state, and the integrator step count.  No RNG state is stored:
/// the only draw of a job is its initial Maxwell-Boltzmann velocities,
/// taken from the spec's seed before the first step, and no thermostat is
/// stochastic.  Forces are deliberately NOT stored: every calculator
/// recomputes them bit-identically from the restored positions at any
/// thread count (cold == warm, single-writer force kernels), which keeps
/// checkpoints small and independent of the engine in use.
///
/// Writes are atomic (temp file + rename), so a kill during checkpointing
/// leaves the previous checkpoint intact.  The payload carries a trailing
/// CRC-32 (since v2; v3 dropped the unused RNG state), and each successful
/// write first rotates the previous good checkpoint to `path`.prev (by
/// copy, so `path` never disappears): a torn or bit-flipped checkpoint is
/// detected on read and resume falls back one save interval instead of
/// aborting the job (see read_checkpoint_with_fallback).  Files of any
/// other version are rejected with tbmd::Error.

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/system.hpp"

namespace tbmd::svc {

/// Snapshot of one trajectory's integration state.
struct Checkpoint {
  /// Steps completed when the snapshot was taken.
  long step = 0;
  /// Total steps the job plans to run (lets a resumed sweep tell a
  /// completed job from an interrupted one without re-parsing the spec).
  long total_steps = 0;
  System system;
  /// Thermostat target (K) at the snapshot; 0 when running NVE.
  double thermostat_target = 0.0;
  /// Thermostat internal state (md::Thermostat::state()).
  std::vector<double> thermostat_state;

  [[nodiscard]] bool complete() const {
    return total_steps > 0 && step >= total_steps;
  }
};

/// Serialize atomically to `path` (writes `path`.tmp, then renames).
/// Throws tbmd::Error on I/O failure.
void write_checkpoint(const std::string& path, const Checkpoint& checkpoint);

/// Deserialize; throws tbmd::Error on missing/corrupt/mismatched files
/// (including CRC mismatch on a torn write).
[[nodiscard]] Checkpoint read_checkpoint(const std::string& path);

/// read_checkpoint(path), falling back to `path`.prev when the primary is
/// missing or corrupt (logs a warning; sets *used_prev when non-null).
/// Throws only when neither file yields a valid checkpoint.
[[nodiscard]] Checkpoint read_checkpoint_with_fallback(
    const std::string& path, bool* used_prev = nullptr);

/// True when `path` exists and starts with the checkpoint magic.
[[nodiscard]] bool is_checkpoint_file(const std::string& path);

}  // namespace tbmd::svc
