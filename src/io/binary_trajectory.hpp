#pragma once

/// \file binary_trajectory.hpp
/// \brief Compact binary trajectory format (.tbt) for MD output at scale.
///
/// Text XYZ costs ~52 bytes per atom per frame and a double-to-decimal
/// conversion per coordinate; at sweep scale trajectory I/O starts to rival
/// the force call.  The .tbt format stores the per-run constants (cell,
/// species) once in the header and encodes each frame's coordinates as
/// zigzag-varint *deltas* of quantized positions against the previous
/// frame: thermal displacements between samples are small, so most deltas
/// fit in 2 bytes and a 216-atom frame shrinks from ~11 KB of text to
/// ~1.5 KB.  A lossless mode (raw IEEE doubles, no quantization) exists
/// for workflows that need exact coordinates; checkpoints -- which must be
/// bit-exact -- always use their own full-precision format, so the
/// trajectory default favors compactness (1e-4 A grid, far below thermal
/// noise and ample for RDF/MSD/VACF analysis).
///
/// Layout (all little-endian):
///   header:  magic "TBTJ" | u32 version | u32 flags | u32 natoms
///            | f64 pos_quantum | f64 vel_quantum
///            | 9 x f64 cell rows | 3 x u8 pbc | u8 pad
///            | natoms x u8 species (atomic numbers)
///            | u32 crc32(magic..species)
///   frame:   u8 0xF5 | i64 step | u32 payload_len
///            | payload | u32 crc32(step..payload)
///   payload: positions  (3N zigzag-varint deltas, or 3N f64 lossless)
///            | velocities (same encoding; only when flags bit 0 is set)
/// Flags: bit 0 = frames carry velocities, bit 1 = lossless f64 coords.
///
/// Since v2 every frame is framed by an explicit length and a CRC-32 over
/// step + length + payload: Reader::next() rejects torn or bit-flipped
/// frames (throws), while Writer::resume() treats a corrupt tail as the
/// debris of the crash being recovered from -- it truncates the file at
/// the last intact frame and appends from there.  Since v3 the header
/// ends in a CRC-32 over every header byte before it: the reader and
/// resume() both reject a corrupt header (a flipped cell, quantum or
/// species byte) with tbmd::Error, as they do any other version.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/system.hpp"

namespace tbmd::io {

/// Encoding options of a BinaryTrajectoryWriter.
struct BinaryTrajectoryOptions {
  /// Store velocities in every frame (doubles the frame payload).
  bool velocities = false;
  /// Raw f64 coordinates instead of quantized deltas (lossless, ~4x
  /// larger).
  bool lossless = false;
  /// Position grid of the quantized encoding (A).
  double position_quantum = 1e-4;
  /// Velocity grid of the quantized encoding (A/fs).
  double velocity_quantum = 1e-7;
};

/// One decoded trajectory frame.
struct TrajectoryFrame {
  long step = 0;
  std::vector<Vec3> positions;
  /// Empty unless the file stores velocities.
  std::vector<Vec3> velocities;
};

/// Streaming writer; the System passed to the constructor fixes the
/// header's atom count, species and cell for the whole file.
class BinaryTrajectoryWriter {
 public:
  /// Create (truncate) `path` and write the header.
  BinaryTrajectoryWriter(const std::string& path, const System& system,
                         BinaryTrajectoryOptions options = {});

  /// Reopen an existing trajectory for appending after a checkpoint
  /// restart: frames with step <= `upto_step` are kept (later ones --
  /// written after the checkpoint the run is resuming from -- are
  /// truncated away) and the delta predictor is re-seeded from the kept
  /// frames, so appended frames are byte-identical to an uninterrupted
  /// write.  The header must match `system` and `options`.
  [[nodiscard]] static BinaryTrajectoryWriter resume(
      const std::string& path, const System& system, long upto_step,
      BinaryTrajectoryOptions options = {});

  ~BinaryTrajectoryWriter();
  BinaryTrajectoryWriter(BinaryTrajectoryWriter&&) noexcept;
  BinaryTrajectoryWriter& operator=(BinaryTrajectoryWriter&&) noexcept;
  BinaryTrajectoryWriter(const BinaryTrajectoryWriter&) = delete;
  BinaryTrajectoryWriter& operator=(const BinaryTrajectoryWriter&) = delete;

  /// Append one frame.  `system` must have the header's atom count.
  void add_frame(const System& system, long step);

  /// Frames in the file (kept + appended for a resumed writer).
  [[nodiscard]] std::size_t frames_written() const;

  /// Flush buffered bytes to the OS (the job runner flushes after each
  /// checkpoint so the trajectory never trails the checkpoint on disk).
  void flush();

 private:
  struct Impl;
  explicit BinaryTrajectoryWriter(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Streaming reader.
class BinaryTrajectoryReader {
 public:
  explicit BinaryTrajectoryReader(const std::string& path);
  ~BinaryTrajectoryReader();
  BinaryTrajectoryReader(BinaryTrajectoryReader&&) noexcept;
  BinaryTrajectoryReader& operator=(BinaryTrajectoryReader&&) noexcept;
  BinaryTrajectoryReader(const BinaryTrajectoryReader&) = delete;
  BinaryTrajectoryReader& operator=(const BinaryTrajectoryReader&) = delete;

  [[nodiscard]] std::size_t natoms() const;
  [[nodiscard]] const std::vector<Element>& species() const;
  [[nodiscard]] const Cell& cell() const;
  [[nodiscard]] bool has_velocities() const;
  [[nodiscard]] bool lossless() const;
  [[nodiscard]] double position_quantum() const;

  /// Read the next frame; false at end-of-file.  Throws tbmd::Error on a
  /// corrupt or truncated frame.
  bool next(TrajectoryFrame& frame);

  /// Materialize a frame as a System (header cell + species, frame
  /// positions/velocities).
  [[nodiscard]] System make_system(const TrajectoryFrame& frame) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convert a .tbt trajectory to (extended-)XYZ text, one frame per
/// configuration with the step number in the comment.  Returns the number
/// of frames converted.
std::size_t trajectory_to_xyz(const std::string& trajectory_path,
                              const std::string& xyz_path);

}  // namespace tbmd::io
