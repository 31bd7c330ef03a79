// The benchmark's side of iatf-wire 1: the frames it sends (s/d 8x8x8
// GEMM, small and byte-heavy), a spawned iatf_served daemon, and the
// closed loop that drives connections with a window of outstanding
// frames and checks every Result against iatf::ref.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common.hpp"
#include "iatf/net/client.hpp"
#include "schedule.hpp"

namespace pb {

constexpr std::uint32_t kWireN = 8;   ///< every frame is 8x8x8
constexpr int kWireVariants = 4;
/// Closed-loop throughput is the median rate over windows this short.
constexpr std::int64_t kWireRateWindowNs = 100'000'000;
/// Heavy batches: 3 operands x 64 elements x batch >= 0.5 MB of payload.
constexpr std::uint32_t kHeavyBatchD = 344;
constexpr std::uint32_t kHeavyBatchS = 688;

/// Operands and expected results of one (dtype, size) frame class.
struct FrameClass {
  char dtype = 'd';
  std::uint32_t batch = 0;
  std::size_t elem = 0; ///< bytes per element
  std::vector<std::vector<std::uint8_t>> a, b, c, want; ///< per variant

  double flops() const { return 2.0 * kWireN * kWireN * kWireN * batch; }
  std::size_t operand_bytes() const { return kWireN * kWireN * batch * elem; }
  /// Bytes of one Submit frame plus its Result frame.
  std::size_t frame_bytes() const;
};

/// The four frame classes, indexed 2 * heavy + dbl; operands synthesised
/// from the seed.
struct Frames {
  std::array<FrameClass, 4> cls;

  explicit Frames(std::uint64_t seed);
  static int index(const WireReq& r) { return 2 * r.heavy + r.dbl; }
  iatf::net::GemmSubmit submit(const WireReq& r) const;
  /// Compare the checked lane of a Result payload with iatf::ref.
  bool matches(const WireReq& r, const std::vector<std::uint8_t>& c) const;
  /// Mix-weighted bytes on the wire per request (computed).
  double bytes_per_req() const;
};

/// An iatf_served child listening on a Unix socket; killed if still
/// running on destruction.
class Daemon {
public:
  Daemon(const std::string& binary, const std::string& socket,
         const std::string& log);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connect + handshake, retrying while the daemon starts up.
  void connect(iatf::net::Client& c) const;
  /// SIGTERM and wait (bounded); the exit code, or -1 when the daemon
  /// died on a signal or did not exit in time.
  int terminate();

private:
  std::string socket_;
  pid_t pid_ = -1;
};

struct LoopResult {
  Ops ops;
  std::vector<double> rtt_us;                    ///< ok frames
  std::array<std::vector<double>, 4> cls_rtt_us; ///< by frame class
  std::vector<double> submit_ns;                 ///< traced only
  std::vector<double> gap_us; ///< reply -> next submit, traced only
  double rps = 0.0;
  /// Per time window (by completion): round trips, and the completion
  /// rate of each kWireRateWindowNs window of the timed interval.
  std::vector<std::vector<double>> win_rtt_us;
  std::vector<double> win_rps;

  /// Median over windows of the per-window q-percentile round trip;
  /// `beyond` is the smallest count beyond it in any window.
  Percentile windowed(double q) const;
};

/// Closed loop on the first `conns` clients (one thread each), keeping
/// `window` frames outstanding per connection for `seconds`, then
/// collecting every reply. Connection errors fail `rep`.
LoopResult run_loop(Report& rep, std::vector<iatf::net::Client>& clients,
                    std::vector<WireStream>& streams, const Frames& frames,
                    int conns, int window, double seconds, bool traced,
                    bool small_d_only = false, int windows = 1);

/// Median ns of parse_gemm_submit + append_result + parse_result on a
/// small d frame, in isolation.
double codec_ns(const Frames& frames, double seconds);

/// Staging throughput (GB/s) at the small d frame shape: the daemon's
/// import_colmajor of A, B, C and export_colmajor of C, per lane.
double wire_convert_gbps(const Frames& frames, double seconds);

} // namespace pb
