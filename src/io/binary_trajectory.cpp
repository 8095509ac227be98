#include "src/io/binary_trajectory.hpp"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "src/io/logger.hpp"
#include "src/io/xyz.hpp"
#include "src/util/crc32.hpp"
#include "src/util/error.hpp"

namespace tbmd::io {

namespace {

constexpr char kMagic[4] = {'T', 'B', 'T', 'J'};
constexpr std::uint32_t kVersion = 3;
/// Header bytes before the species: magic, version, flags, natoms, two
/// quanta, nine cell components, three pbc flags and a pad byte.
constexpr std::size_t kFixedHeaderBytes = 4 + 3 * 4 + 2 * 8 + 9 * 8 + 4;
/// Sanity cap on the frame payload length field: a corrupt length must not
/// drive a multi-GB allocation before the CRC check can reject the frame.
constexpr std::uint32_t kMaxFramePayload = 1u << 30;
constexpr std::uint32_t kFlagVelocities = 1u << 0;
constexpr std::uint32_t kFlagLossless = 1u << 1;
constexpr std::uint8_t kFrameMarker = 0xF5;

// --- little-endian scalar packing ------------------------------------------

template <typename T>
void put(std::vector<std::uint8_t>& buf, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(T));
  std::memcpy(buf.data() + at, &value, sizeof(T));
}

/// Zigzag map: small signed deltas -> small unsigned varints.
std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void put_varint(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  while (v >= 0x80) {
    buf.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf.push_back(static_cast<std::uint8_t>(v));
}

std::int64_t quantize(double x, double quantum) {
  return std::llround(x / quantum);
}

/// Byte cursor over either a stream (header scans) or an in-memory buffer
/// (frame payloads, which are slurped and CRC-verified before decoding).
class ByteSource {
 public:
  explicit ByteSource(std::istream& is) : is_(&is) {}
  ByteSource(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool read_exact(void* out, std::size_t n) {
    if (is_ == nullptr) {
      if (pos_ + n > size_) return false;
      std::memcpy(out, data_ + pos_, n);
      pos_ += n;
      return true;
    }
    is_->read(static_cast<char*>(out), static_cast<std::streamsize>(n));
    return is_->gcount() == static_cast<std::streamsize>(n);
  }

  template <typename T>
  T get() {
    T value;
    TBMD_REQUIRE(read_exact(&value, sizeof(T)),
                 "binary trajectory: truncated file");
    return value;
  }

  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      const std::uint8_t byte = get<std::uint8_t>();
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
      TBMD_REQUIRE(shift < 64, "binary trajectory: varint overflow");
    }
  }

 private:
  std::istream* is_ = nullptr;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

/// One v2 frame as raw bytes: step + declared payload, CRC already
/// verified.  `ok` is false at clean EOF; corruption throws.
struct RawFrame {
  bool ok = false;
  std::int64_t step = 0;
  std::vector<std::uint8_t> payload;
};

/// Read and CRC-check the next frame envelope from `is`.  Returns
/// ok=false on clean end-of-file (no marker byte); any partial or
/// corrupt frame throws tbmd::Error.
RawFrame read_raw_frame(std::istream& is) {
  RawFrame f;
  ByteSource src(is);
  std::uint8_t marker;
  if (!src.read_exact(&marker, 1)) return f;  // clean EOF
  TBMD_REQUIRE(marker == kFrameMarker,
               "binary trajectory: corrupt frame marker");
  // step + payload_len, kept as raw bytes so the CRC chain covers them.
  std::uint8_t head[12];
  TBMD_REQUIRE(src.read_exact(head, sizeof(head)),
               "binary trajectory: truncated frame header");
  std::uint32_t payload_len;
  std::memcpy(&f.step, head, 8);
  std::memcpy(&payload_len, head + 8, 4);
  TBMD_REQUIRE(payload_len < kMaxFramePayload,
               "binary trajectory: implausible frame length");
  f.payload.resize(payload_len);
  TBMD_REQUIRE(payload_len == 0 || src.read_exact(f.payload.data(), payload_len),
               "binary trajectory: truncated frame payload");
  const auto stored_crc = src.get<std::uint32_t>();
  std::uint32_t crc = crc32_update(0, head, sizeof(head));
  crc = crc32_update(crc, f.payload.data(), f.payload.size());
  TBMD_REQUIRE(crc == stored_crc, "binary trajectory: frame CRC mismatch");
  f.ok = true;
  return f;
}

struct Header {
  std::uint32_t flags = 0;
  std::size_t natoms = 0;
  double pos_quantum = 0.0;
  double vel_quantum = 0.0;
  Cell cell;
  std::vector<Element> species;

  [[nodiscard]] bool velocities() const {
    return (flags & kFlagVelocities) != 0;
  }
  [[nodiscard]] bool lossless() const { return (flags & kFlagLossless) != 0; }
};

void write_header(std::ostream& os, const System& system,
                  const BinaryTrajectoryOptions& options) {
  std::vector<std::uint8_t> buf;
  buf.insert(buf.end(), kMagic, kMagic + 4);
  put<std::uint32_t>(buf, kVersion);
  std::uint32_t flags = 0;
  if (options.velocities) flags |= kFlagVelocities;
  if (options.lossless) flags |= kFlagLossless;
  put<std::uint32_t>(buf, flags);
  put<std::uint32_t>(buf, static_cast<std::uint32_t>(system.size()));
  put<double>(buf, options.lossless ? 0.0 : options.position_quantum);
  put<double>(buf, options.lossless ? 0.0 : options.velocity_quantum);
  const Mat3& h = system.cell().h();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) put<double>(buf, h(i, j));
  }
  for (int axis = 0; axis < 3; ++axis) {
    put<std::uint8_t>(buf, system.cell().periodic(axis) ? 1 : 0);
  }
  put<std::uint8_t>(buf, 0);  // pad
  for (const Element e : system.species()) {
    put<std::uint8_t>(buf, static_cast<std::uint8_t>(static_cast<int>(e)));
  }
  put<std::uint32_t>(buf, crc32(buf.data(), buf.size()));
  os.write(reinterpret_cast<const char*>(buf.data()),
           static_cast<std::streamsize>(buf.size()));
}

/// Bytes between the read position of `is` and the end of the stream.
std::uintmax_t bytes_left(std::istream& is) {
  const std::streamoff at = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff end = is.tellg();
  is.seekg(at);
  return at >= 0 && end > at ? static_cast<std::uintmax_t>(end - at) : 0;
}

Header read_header(std::istream& is) {
  ByteSource src(is);
  std::uint8_t fixed[kFixedHeaderBytes];
  TBMD_REQUIRE(src.read_exact(fixed, 4) && std::memcmp(fixed, kMagic, 4) == 0,
               "binary trajectory: bad magic (not a .tbt file)");
  TBMD_REQUIRE(src.read_exact(fixed + 4, kFixedHeaderBytes - 4),
               "binary trajectory: truncated file");
  ByteSource field(fixed + 4, kFixedHeaderBytes - 4);
  const auto version = field.get<std::uint32_t>();
  TBMD_REQUIRE(version == kVersion,
               "binary trajectory: unsupported version " +
                   std::to_string(version));
  Header hd;
  hd.flags = field.get<std::uint32_t>();
  hd.natoms = field.get<std::uint32_t>();
  hd.pos_quantum = field.get<double>();
  hd.vel_quantum = field.get<double>();
  double h[9];
  for (double& v : h) v = field.get<double>();
  bool pbc[3];
  for (bool& p : pbc) p = field.get<std::uint8_t>() != 0;
  // A corrupt atom count must fail against the species and CRC bytes
  // actually present before it sizes any allocation.
  const std::uintmax_t left = bytes_left(is);
  TBMD_REQUIRE(hd.natoms + sizeof(std::uint32_t) <= left,
               "binary trajectory: header atom count " +
                   std::to_string(hd.natoms) + " exceeds the " +
                   std::to_string(left) + " bytes left in the file");
  std::vector<std::uint8_t> species(hd.natoms);
  TBMD_REQUIRE(hd.natoms == 0 || src.read_exact(species.data(), hd.natoms),
               "binary trajectory: truncated file");
  const auto stored_crc = src.get<std::uint32_t>();
  std::uint32_t crc = crc32_update(0, fixed, kFixedHeaderBytes);
  crc = crc32_update(crc, species.data(), species.size());
  TBMD_REQUIRE(crc == stored_crc, "binary trajectory: header CRC mismatch");

  if (pbc[0] || pbc[1] || pbc[2]) {
    hd.cell = Cell({h[0], h[1], h[2]}, {h[3], h[4], h[5]}, {h[6], h[7], h[8]},
                   pbc[0], pbc[1], pbc[2]);
  }
  hd.species.reserve(hd.natoms);
  for (const std::uint8_t z : species) {
    hd.species.push_back(static_cast<Element>(z));
  }
  return hd;
}

/// Append one coordinate block (positions or velocities) to `buf`.
void encode_block(std::vector<std::uint8_t>& buf, const std::vector<Vec3>& xs,
                  bool lossless, double quantum,
                  std::vector<std::int64_t>& prev, std::size_t prev_base) {
  if (lossless) {
    for (const Vec3& x : xs) {
      put<double>(buf, x.x);
      put<double>(buf, x.y);
      put<double>(buf, x.z);
    }
    return;
  }
  std::size_t k = prev_base;
  for (const Vec3& x : xs) {
    for (const double c : {x.x, x.y, x.z}) {
      const std::int64_t q = quantize(c, quantum);
      put_varint(buf, zigzag(q - prev[k]));
      prev[k] = q;
      ++k;
    }
  }
}

void decode_block(ByteSource& src, std::vector<Vec3>& out, std::size_t n,
                  bool lossless, double quantum,
                  std::vector<std::int64_t>& prev, std::size_t prev_base) {
  out.resize(n);
  if (lossless) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = {src.get<double>(), src.get<double>(), src.get<double>()};
    }
    return;
  }
  std::size_t k = prev_base;
  for (std::size_t i = 0; i < n; ++i) {
    double c[3];
    for (int d = 0; d < 3; ++d) {
      prev[k] += unzigzag(src.get_varint());
      c[d] = static_cast<double>(prev[k]) * quantum;
      ++k;
    }
    out[i] = {c[0], c[1], c[2]};
  }
}

}  // namespace

// --- writer -----------------------------------------------------------------

struct BinaryTrajectoryWriter::Impl {
  std::ofstream stream;
  BinaryTrajectoryOptions options;
  std::size_t natoms = 0;
  std::size_t frames = 0;
  /// Quantized coordinates of the previous frame (positions, then
  /// velocities when enabled) -- the delta predictor.
  std::vector<std::int64_t> prev;
  std::vector<std::uint8_t> buf;
  /// Frame payload staging (coordinates only; the envelope -- marker,
  /// step, length, CRC -- is assembled around it in `buf`).
  std::vector<std::uint8_t> payload;
};

BinaryTrajectoryWriter::BinaryTrajectoryWriter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

BinaryTrajectoryWriter::BinaryTrajectoryWriter(
    const std::string& path, const System& system,
    BinaryTrajectoryOptions options)
    : impl_(std::make_unique<Impl>()) {
  TBMD_REQUIRE(!options.lossless ? options.position_quantum > 0.0 &&
                                       options.velocity_quantum > 0.0
                                 : true,
               "BinaryTrajectoryWriter: quanta must be positive");
  impl_->stream.open(path, std::ios::binary | std::ios::trunc);
  TBMD_REQUIRE(impl_->stream.good(),
               "BinaryTrajectoryWriter: cannot open '" + path + "'");
  impl_->options = options;
  impl_->natoms = system.size();
  impl_->prev.assign(3 * system.size() * (options.velocities ? 2 : 1), 0);
  write_header(impl_->stream, system, options);
}

BinaryTrajectoryWriter BinaryTrajectoryWriter::resume(
    const std::string& path, const System& system, long upto_step,
    BinaryTrajectoryOptions options) {
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->natoms = system.size();
  impl->prev.assign(3 * system.size() * (options.velocities ? 2 : 1), 0);

  // Scan the existing file: validate the header against the requested
  // options, keep every frame with step <= upto_step while re-seeding the
  // delta predictor, and remember the byte offset of the first dropped
  // frame.
  std::uintmax_t keep_bytes = 0;
  std::size_t keep_frames = 0;
  {
    std::ifstream in(path, std::ios::binary);
    TBMD_REQUIRE(in.good(),
                 "BinaryTrajectoryWriter::resume: cannot open '" + path + "'");
    const Header hd = read_header(in);
    TBMD_REQUIRE(hd.natoms == system.size(),
                 "BinaryTrajectoryWriter::resume: atom count mismatch");
    TBMD_REQUIRE(hd.velocities() == options.velocities &&
                     hd.lossless() == options.lossless,
                 "BinaryTrajectoryWriter::resume: encoding mismatch");
    if (!options.lossless) {
      TBMD_REQUIRE(hd.pos_quantum == options.position_quantum &&
                       hd.vel_quantum == options.velocity_quantum,
                   "BinaryTrajectoryWriter::resume: quantum mismatch");
    }
    keep_bytes = static_cast<std::uintmax_t>(in.tellg());
    std::vector<Vec3> scratch;
    std::vector<std::int64_t> prev_good;
    for (;;) {
      // Tolerant scan: a torn/corrupt tail (truncated frame, bad marker,
      // CRC mismatch, garbled payload) ends the scan at the last good
      // frame instead of aborting the resume -- that tail was written
      // after the checkpoint being resumed from and is dead weight anyway.
      prev_good = impl->prev;
      RawFrame f;
      try {
        f = read_raw_frame(in);
        if (!f.ok) break;  // clean end of file
        if (f.step > upto_step) break;
        ByteSource payload(f.payload.data(), f.payload.size());
        decode_block(payload, scratch, hd.natoms, hd.lossless(),
                     hd.pos_quantum, impl->prev, 0);
        if (hd.velocities()) {
          decode_block(payload, scratch, hd.natoms, hd.lossless(),
                       hd.vel_quantum, impl->prev, 3 * hd.natoms);
        }
      } catch (const Error& e) {
        impl->prev = prev_good;
        log_warn("BinaryTrajectoryWriter::resume: dropping corrupt tail of '",
                 path, "' after ", keep_frames, " frame(s): ", e.what());
        break;
      }
      keep_bytes = static_cast<std::uintmax_t>(in.tellg());
      ++keep_frames;
    }
  }
  std::filesystem::resize_file(path, keep_bytes);
  impl->stream.open(path, std::ios::binary | std::ios::app);
  TBMD_REQUIRE(impl->stream.good(),
               "BinaryTrajectoryWriter::resume: cannot reopen '" + path + "'");
  impl->frames = keep_frames;
  return BinaryTrajectoryWriter(std::move(impl));
}

BinaryTrajectoryWriter::~BinaryTrajectoryWriter() = default;
BinaryTrajectoryWriter::BinaryTrajectoryWriter(
    BinaryTrajectoryWriter&&) noexcept = default;
BinaryTrajectoryWriter& BinaryTrajectoryWriter::operator=(
    BinaryTrajectoryWriter&&) noexcept = default;

void BinaryTrajectoryWriter::add_frame(const System& system, long step) {
  Impl& im = *impl_;
  TBMD_REQUIRE(system.size() == im.natoms,
               "BinaryTrajectoryWriter: atom count changed mid-trajectory");
  im.payload.clear();
  encode_block(im.payload, system.positions(), im.options.lossless,
               im.options.position_quantum, im.prev, 0);
  if (im.options.velocities) {
    encode_block(im.payload, system.velocities(), im.options.lossless,
                 im.options.velocity_quantum, im.prev, 3 * im.natoms);
  }
  im.buf.clear();
  put<std::uint8_t>(im.buf, kFrameMarker);
  put<std::int64_t>(im.buf, static_cast<std::int64_t>(step));
  put<std::uint32_t>(im.buf, static_cast<std::uint32_t>(im.payload.size()));
  im.buf.insert(im.buf.end(), im.payload.begin(), im.payload.end());
  // CRC over everything after the marker (step, length, payload).
  const std::uint32_t crc = crc32(im.buf.data() + 1, im.buf.size() - 1);
  put<std::uint32_t>(im.buf, crc);
  im.stream.write(reinterpret_cast<const char*>(im.buf.data()),
                  static_cast<std::streamsize>(im.buf.size()));
  TBMD_REQUIRE(im.stream.good(), "BinaryTrajectoryWriter: write failed");
  ++im.frames;
}

std::size_t BinaryTrajectoryWriter::frames_written() const {
  return impl_->frames;
}

void BinaryTrajectoryWriter::flush() { impl_->stream.flush(); }

// --- reader -----------------------------------------------------------------

struct BinaryTrajectoryReader::Impl {
  std::ifstream stream;
  Header header;
  std::vector<std::int64_t> prev;
};

BinaryTrajectoryReader::BinaryTrajectoryReader(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  impl_->stream.open(path, std::ios::binary);
  TBMD_REQUIRE(impl_->stream.good(),
               "BinaryTrajectoryReader: cannot open '" + path + "'");
  impl_->header = read_header(impl_->stream);
  impl_->prev.assign(
      3 * impl_->header.natoms * (impl_->header.velocities() ? 2 : 1), 0);
}

BinaryTrajectoryReader::~BinaryTrajectoryReader() = default;
BinaryTrajectoryReader::BinaryTrajectoryReader(
    BinaryTrajectoryReader&&) noexcept = default;
BinaryTrajectoryReader& BinaryTrajectoryReader::operator=(
    BinaryTrajectoryReader&&) noexcept = default;

std::size_t BinaryTrajectoryReader::natoms() const {
  return impl_->header.natoms;
}
const std::vector<Element>& BinaryTrajectoryReader::species() const {
  return impl_->header.species;
}
const Cell& BinaryTrajectoryReader::cell() const { return impl_->header.cell; }
bool BinaryTrajectoryReader::has_velocities() const {
  return impl_->header.velocities();
}
bool BinaryTrajectoryReader::lossless() const {
  return impl_->header.lossless();
}
double BinaryTrajectoryReader::position_quantum() const {
  return impl_->header.pos_quantum;
}

bool BinaryTrajectoryReader::next(TrajectoryFrame& frame) {
  Impl& im = *impl_;
  const RawFrame f = read_raw_frame(im.stream);
  if (!f.ok) return false;
  frame.step = static_cast<long>(f.step);
  ByteSource src(f.payload.data(), f.payload.size());
  decode_block(src, frame.positions, im.header.natoms, im.header.lossless(),
               im.header.pos_quantum, im.prev, 0);
  if (im.header.velocities()) {
    decode_block(src, frame.velocities, im.header.natoms,
                 im.header.lossless(), im.header.vel_quantum, im.prev,
                 3 * im.header.natoms);
  } else {
    frame.velocities.clear();
  }
  return true;
}

System BinaryTrajectoryReader::make_system(
    const TrajectoryFrame& frame) const {
  const Header& hd = impl_->header;
  TBMD_REQUIRE(frame.positions.size() == hd.natoms,
               "BinaryTrajectoryReader: frame/header atom count mismatch");
  System sys(hd.cell);
  for (std::size_t i = 0; i < hd.natoms; ++i) {
    sys.add_atom(hd.species[i], frame.positions[i],
                 frame.velocities.empty() ? Vec3{} : frame.velocities[i]);
  }
  return sys;
}

std::size_t trajectory_to_xyz(const std::string& trajectory_path,
                              const std::string& xyz_path) {
  BinaryTrajectoryReader reader(trajectory_path);
  std::ofstream out(xyz_path);
  TBMD_REQUIRE(out.good(),
               "trajectory_to_xyz: cannot open '" + xyz_path + "'");
  TrajectoryFrame frame;
  std::size_t frames = 0;
  while (reader.next(frame)) {
    const System sys = reader.make_system(frame);
    write_xyz(out, sys, "step=" + std::to_string(frame.step),
              reader.has_velocities());
    ++frames;
  }
  TBMD_REQUIRE(out.good(), "trajectory_to_xyz: write failed");
  return frames;
}

}  // namespace tbmd::io
