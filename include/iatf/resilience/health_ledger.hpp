// Crash-consistent health journal: the persistence layer that lets the
// lessons the resilience machinery learns (quarantined kernels, tripped
// breakers, degrade storms) survive process restarts.
//
// The TuningTable already showed the shape persisted runtime state needs
// on this codebase -- versioned line-oriented text, hardware-signature
// keying, advisory flock discipline, atomic tmp+rename writes -- and the
// ledger follows it exactly, with one addition: because health events are
// appended mid-flight (a quarantine discovered during serving must hit
// disk before a crash, not at the next graceful save), every record line
// carries its own CRC-32 so a torn tail from a SIGKILL mid-append is
// detected and truncated away instead of poisoning the whole file.
//
// Record kinds:
//   q <kind> <dtype> <bytes> <m> <n>   kernel quarantine (KernelId)
//   b <slot-hash>                      breaker trip of one class slot
//   d <event-mask>                     degrade event (DegradeEvent bits)
//   w <slot-hash>                      watchdog reclaim of a stalled class
//
// Replay semantics (Engine::set_health_ledger): quarantine records
// re-quarantine their kernels (replay only ever *quarantines* -- a
// ledger cannot mark anything Verified, so "verify never resurrects"
// holds across restarts); breaker-trip and watchdog records seed their
// slots HalfOpen so the restarted process probes the class before
// trusting it again; degrade records are informational (stats only).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "iatf/resilience/resilience.hpp"

namespace iatf::resilience {

/// One journaled health event.
struct LedgerRecord {
  enum class Kind : std::uint8_t {
    KernelQuarantine = 0, ///< `kernel` was quarantined
    BreakerTrip = 1,      ///< class slot `slot` tripped Open
    Degrade = 2,          ///< degrade event bitmask `events`
    WatchdogReclaim = 3,  ///< watchdog reclaimed a stall on slot `slot`
  };

  Kind kind = Kind::Degrade;
  KernelId kernel{};        ///< KernelQuarantine payload
  std::uint64_t slot = 0;   ///< BreakerTrip / WatchdogReclaim payload
  std::uint32_t events = 0; ///< Degrade payload (DegradeEvent bits)

  friend bool operator==(const LedgerRecord&, const LedgerRecord&) = default;
};

/// Outcome of HealthLedger::load. Unlike TuningTable::load, a corrupt
/// *tail* is not fatal: the valid prefix is kept (and rewritten over the
/// damaged file) because losing every lesson to one torn append would
/// defeat the ledger's purpose. Only a damaged header rejects the file.
enum class LedgerLoad {
  Ok = 0,
  Missing,          ///< file absent or unreadable
  Corrupt,          ///< bad magic/version/hw header: loaded as empty
  HardwareMismatch, ///< valid file journaled on different hardware
  Recovered,        ///< corrupt tail truncated; valid prefix loaded
};

const char* to_string(LedgerLoad result) noexcept;

/// Summary counters over the loaded + appended records.
struct LedgerStats {
  std::size_t records = 0;
  std::size_t quarantines = 0;
  std::size_t breaker_trips = 0;
  std::size_t degrades = 0;
  std::size_t watchdog_reclaims = 0;
};

/// Append-only crash-consistent journal of health events. Thread-safe:
/// append() may be called from dispatch threads while stats()/records()
/// are read elsewhere. Cross-process safety follows the TuningTable
/// discipline -- an advisory `<path>.lock` flock around every file
/// operation, tmp + atomic rename for whole-file rewrites.
class HealthLedger {
public:
  static constexpr int kFormatVersion = 1;

  /// Bound to `path`; empty path disables the ledger (append/save become
  /// no-ops, load reports Missing). Hardware defaults to the host
  /// signature; tests may pin another.
  explicit HealthLedger(std::string path = std::string(),
                        std::string hardware = std::string());

  const std::string& path() const noexcept { return path_; }
  const std::string& hardware() const noexcept { return hardware_; }
  bool enabled() const noexcept { return !path_.empty(); }

  /// Journal one event: appends a CRC-checksummed line to the file (under
  /// the file lock, flushed before returning) and records it in memory.
  /// Creates the file with a header on first append. I/O failure is
  /// swallowed -- journaling must never fail the serving path -- but the
  /// in-memory record is kept either way.
  void append(const LedgerRecord& record);

  /// Replace the in-memory records from the file. A corrupt record tail
  /// keeps the valid prefix, rewrites the file to just that prefix
  /// (truncate-and-recover) and reports Recovered. A corrupt header or a
  /// hardware mismatch loads as empty.
  LedgerLoad load();

  /// Compact: rewrite the file from the in-memory records (tmp + atomic
  /// rename under the lock). Returns false on I/O failure or when
  /// disabled, leaving any previous file intact.
  bool save() const;

  std::vector<LedgerRecord> records() const;
  LedgerStats stats() const;
  void clear();

  /// $IATF_HEALTH_LEDGER when set, else empty (ledger disabled). Unlike
  /// the tuning table there is no default filename: processes must opt
  /// in to journaling health state.
  static std::string default_path();

private:
  bool save_locked() const; ///< save() body; caller holds mu_

  std::string path_;
  std::string hardware_;
  mutable std::mutex mu_;
  std::vector<LedgerRecord> records_;
};

} // namespace iatf::resilience
