#ifndef ARMNET_UTIL_FAULT_INJECTION_H_
#define ARMNET_UTIL_FAULT_INJECTION_H_

#include <cstddef>
#include <string>

// Deterministic fault-injection harness.
//
// Recovery code is only trustworthy if its failure paths are exercised, so
// the I/O and training layers query named *sites* at the exact points where
// the real world can fail (disk full, truncated file, NaN loss, stalled
// clock). Tests arm a site with a fault kind and a precise trigger point
// ("fail the 3rd write"), run the normal code path, and assert the recovery
// behaviour. Nothing is random: the same arming always fires at the same
// call.
//
// The whole harness is compiled behind the ARMNET_FAULT_INJECTION cmake
// option. When the option is OFF (the default, and always the case for
// release/production builds) every query below is an inline no-op returning
// "no fault" that the optimizer deletes, so instrumented call sites cost
// nothing. Tests that need injection skip themselves when kEnabled is false.
//
// Threading: arming/disarming and queries are mutex-serialized; sites may be
// queried from worker threads.

namespace armnet::fault {

enum class Kind {
  kFailOpen,      // opening/creating the destination fails (e.g. EACCES)
  kFailWrite,     // a write reports failure mid-stream (disk full)
  kShortWrite,    // only `magnitude` bytes reach disk but success is reported
  kTruncateRead,  // reads observe the file truncated to `magnitude` bytes
  kPoisonTensor,  // the produced value is overwritten with NaN
  kClockStall,    // the wall clock jumps forward by `magnitude` seconds
};

// Injection sites wired into the library. Tests should use these constants
// rather than re-typing the strings.
inline constexpr char kSiteSerializeOpen[] = "serialize/open";
inline constexpr char kSiteSerializeWrite[] = "serialize/write";
inline constexpr char kSiteSerializeRead[] = "serialize/read";
inline constexpr char kSiteTrainerLoss[] = "trainer/loss";
inline constexpr char kSiteTrainerClock[] = "trainer/clock";
inline constexpr char kSiteServeSlowForward[] = "serve/slow_forward";
inline constexpr char kSiteServeReloadCorrupt[] = "serve/reload_corrupt";
inline constexpr char kSiteServeQueueStall[] = "serve/queue_stall";
inline constexpr char kSiteServeWorkerStall[] = "serve/worker_stall";
inline constexpr char kSiteServeShadowStall[] = "serve/shadow_stall";
inline constexpr char kSiteServeDriftSkew[] = "serve/drift_skew";

#ifdef ARMNET_FAULT_INJECTION

inline constexpr bool kEnabled = true;

// Arms a fault at `site`: the fault skips the next `after` matching queries,
// then fires on `times` consecutive queries. `magnitude` carries the
// kind-specific payload (bytes kept for kShortWrite/kTruncateRead, seconds
// for kClockStall). Multiple faults may be armed at one site.
void Arm(const std::string& site, Kind kind, int after = 0, int times = 1,
         double magnitude = 0);

// Removes every armed fault and resets all hit counters.
void DisarmAll();

// Number of times `site` has been queried (armed or not) since the last
// DisarmAll(). Lets tests assert that an instrumented path actually ran.
int HitCount(const std::string& site);

// Queries for the simple yes/no kinds (kFailOpen, kFailWrite,
// kPoisonTensor). Counts a hit; returns true if an armed fault fires.
bool ShouldFail(const char* site, Kind kind);

// Queries for the byte-truncation kinds (kShortWrite, kTruncateRead).
// Counts a hit; on firing stores the number of bytes to keep in
// `*keep_bytes` and returns true.
bool ShouldTruncate(const char* site, Kind kind, size_t* keep_bytes);

// Query for kClockStall. Counts a hit; returns the injected extra seconds
// (0 when nothing fires).
double ClockStallSeconds(const char* site);

#else  // !ARMNET_FAULT_INJECTION

inline constexpr bool kEnabled = false;

inline void Arm(const std::string&, Kind, int = 0, int = 1, double = 0) {}
inline void DisarmAll() {}
inline int HitCount(const std::string&) { return 0; }
inline bool ShouldFail(const char*, Kind) { return false; }
inline bool ShouldTruncate(const char*, Kind, size_t*) { return false; }
inline double ClockStallSeconds(const char*) { return 0; }

#endif  // ARMNET_FAULT_INJECTION

}  // namespace armnet::fault

#endif  // ARMNET_UTIL_FAULT_INJECTION_H_
