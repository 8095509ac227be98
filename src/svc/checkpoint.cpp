#include "src/svc/checkpoint.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "src/io/logger.hpp"
#include "src/util/crc32.hpp"
#include "src/util/error.hpp"
#include "src/util/fault_point.hpp"

namespace tbmd::svc {

namespace {

constexpr char kMagic[4] = {'T', 'B', 'C', 'K'};
constexpr std::uint32_t kVersion = 3;

template <typename T>
void put(std::vector<std::uint8_t>& buf, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(T));
  std::memcpy(buf.data() + at, &value, sizeof(T));
}

/// Bounds-checked cursor over the in-memory payload (the whole file is
/// slurped and CRC-verified before any field is parsed).
struct Cursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;
  std::string path;

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    TBMD_REQUIRE(pos + sizeof(T) <= size,
                 "checkpoint: truncated payload in '" + path + "'");
    T value;
    std::memcpy(&value, data + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }

  [[nodiscard]] std::size_t remaining() const { return size - pos; }
};

std::vector<std::uint8_t> serialize_payload(const Checkpoint& ck) {
  std::vector<std::uint8_t> buf;
  put<std::int64_t>(buf, ck.step);
  put<std::int64_t>(buf, ck.total_steps);

  // System.
  const System& sys = ck.system;
  put<std::uint64_t>(buf, sys.size());
  const Mat3& h = sys.cell().h();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) put<double>(buf, h(i, j));
  }
  for (int axis = 0; axis < 3; ++axis) {
    put<std::uint8_t>(buf, sys.cell().periodic(axis) ? 1 : 0);
  }
  for (std::size_t i = 0; i < sys.size(); ++i) {
    put<std::uint8_t>(
        buf, static_cast<std::uint8_t>(static_cast<int>(sys.species()[i])));
    put<std::uint8_t>(buf, sys.frozen(i) ? 1 : 0);
    const Vec3& r = sys.positions()[i];
    const Vec3& v = sys.velocities()[i];
    put<double>(buf, r.x);
    put<double>(buf, r.y);
    put<double>(buf, r.z);
    put<double>(buf, v.x);
    put<double>(buf, v.y);
    put<double>(buf, v.z);
  }

  // Thermostat.
  put<double>(buf, ck.thermostat_target);
  put<std::uint32_t>(buf,
                     static_cast<std::uint32_t>(ck.thermostat_state.size()));
  for (const double s : ck.thermostat_state) put<double>(buf, s);
  return buf;
}

Checkpoint parse_payload(Cursor& c) {
  Checkpoint ck;
  ck.step = static_cast<long>(c.get<std::int64_t>());
  ck.total_steps = static_cast<long>(c.get<std::int64_t>());

  const auto natoms = c.get<std::uint64_t>();
  double h[9];
  for (double& v : h) v = c.get<double>();
  bool pbc[3];
  for (bool& p : pbc) p = c.get<std::uint8_t>() != 0;
  Cell cell;
  if (pbc[0] || pbc[1] || pbc[2]) {
    cell = Cell({h[0], h[1], h[2]}, {h[3], h[4], h[5]}, {h[6], h[7], h[8]},
                pbc[0], pbc[1], pbc[2]);
  }
  System sys(cell);
  for (std::uint64_t i = 0; i < natoms; ++i) {
    const auto species = static_cast<Element>(c.get<std::uint8_t>());
    const bool frozen = c.get<std::uint8_t>() != 0;
    Vec3 r, v;
    r.x = c.get<double>();
    r.y = c.get<double>();
    r.z = c.get<double>();
    v.x = c.get<double>();
    v.y = c.get<double>();
    v.z = c.get<double>();
    const std::size_t at = sys.add_atom(species, r, v);
    if (frozen) sys.set_frozen(at, true);
  }
  ck.system = std::move(sys);

  ck.thermostat_target = c.get<double>();
  // A CRC-valid payload can still carry a count its writer never meant: it
  // must fail against the doubles actually left before it sizes the
  // allocation.
  const auto nstate = c.get<std::uint32_t>();
  TBMD_REQUIRE(nstate <= c.remaining() / sizeof(double),
               "checkpoint: thermostat state count " + std::to_string(nstate) +
                   " exceeds the " + std::to_string(c.remaining()) +
                   " bytes left in '" + c.path + "'");
  ck.thermostat_state.resize(nstate);
  for (double& s : ck.thermostat_state) s = c.get<double>();
  return ck;
}

}  // namespace

void write_checkpoint(const std::string& path, const Checkpoint& ck) {
  const std::vector<std::uint8_t> payload = serialize_payload(ck);
  // The CRC is computed over the intact payload even when the torn-write
  // fault truncates the bytes on disk: the reader must then see a CRC
  // mismatch, which is exactly the corruption the rotation guards against.
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  const bool torn = fault::fire(fault::kCkptTornWrite);
  std::size_t write_size = payload.size();
  if (torn && write_size > 16) write_size -= 16;

  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    TBMD_REQUIRE(os.good(), "checkpoint: cannot open '" + tmp + "'");
    os.write(kMagic, 4);
    const std::uint32_t version = kVersion;
    os.write(reinterpret_cast<const char*>(&version), sizeof(version));
    os.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(write_size));
    os.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    os.flush();
    TBMD_REQUIRE(os.good(), "checkpoint: write failed for '" + tmp + "'");
  }
  if (fault::fire(fault::kCkptCrashBeforeRename)) {
    // Simulated kill between the tmp write and the rename: the previous
    // checkpoint at `path` is untouched and a complete tmp is left behind.
    throw Error("checkpoint: injected crash before rename of '" + tmp + "'");
  }
  // Rotate the previous good checkpoint to .prev *by copy*, so there is
  // never a window where `path` itself is missing.  Only then promote the
  // new file.
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    std::filesystem::copy_file(
        path, path + ".prev",
        std::filesystem::copy_options::overwrite_existing);
  }
  std::filesystem::rename(tmp, path);
  if (torn) {
    // The torn bytes are already the final file -- simulate the process
    // dying right after the (partial) write was promoted.
    throw Error("checkpoint: injected torn write of '" + path + "'");
  }
}

Checkpoint read_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  TBMD_REQUIRE(is.good(), "checkpoint: cannot open '" + path + "'");
  const std::streamoff file_size = is.tellg();
  is.seekg(0);
  TBMD_REQUIRE(file_size >= 4 + 4 + 4,
               "checkpoint: truncated file '" + path + "'");
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(file_size));
  is.read(reinterpret_cast<char*>(bytes.data()), file_size);
  TBMD_REQUIRE(is.gcount() == static_cast<std::streamsize>(file_size),
               "checkpoint: short read of '" + path + "'");

  TBMD_REQUIRE(std::memcmp(bytes.data(), kMagic, 4) == 0,
               "checkpoint: bad magic in '" + path + "'");
  std::uint32_t version;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  TBMD_REQUIRE(version == kVersion, "checkpoint: unsupported version " +
                                        std::to_string(version));
  const std::size_t payload_size = bytes.size() - 4 - 4 - 4;
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4,
              sizeof(stored_crc));
  const std::uint32_t actual_crc = crc32(bytes.data() + 8, payload_size);
  TBMD_REQUIRE(actual_crc == stored_crc,
               "checkpoint: CRC mismatch in '" + path + "'");

  Cursor c{bytes.data() + 8, payload_size, 0, path};
  return parse_payload(c);
}

Checkpoint read_checkpoint_with_fallback(const std::string& path,
                                         bool* used_prev) {
  if (used_prev != nullptr) *used_prev = false;
  std::string primary_error;
  try {
    return read_checkpoint(path);
  } catch (const Error& e) {
    primary_error = e.what();
  }
  const std::string prev = path + ".prev";
  std::error_code ec;
  if (!std::filesystem::exists(prev, ec)) {
    throw Error(primary_error);
  }
  io::log_warn("checkpoint: '", path, "' unreadable (", primary_error,
               "); falling back to '", prev, "'");
  Checkpoint ck = read_checkpoint(prev);
  if (used_prev != nullptr) *used_prev = true;
  return ck;
}

bool is_checkpoint_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;
  char magic[4];
  is.read(magic, 4);
  return is.gcount() == 4 && std::memcmp(magic, kMagic, 4) == 0;
}

}  // namespace tbmd::svc
